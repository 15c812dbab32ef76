// Package server is stwigd's multi-tenant HTTP/JSON query service: one
// daemon hosting many named namespaces, each a fully isolated
// Cluster+Engine pair — the production request lifecycle the library
// itself stays agnostic of. Per namespace it owns admission control (a
// bounded in-flight query semaphore; overload is refused with 429),
// per-request deadlines and client-disconnect cancellation (propagated
// through context into the Executor), per-query match and byte caps,
// NDJSON match streaming with a trailing stats record, dynamic graph
// updates behind a per-tenant writer lock, and live observability.
//
// Endpoints, all under /v1 (pipeline.go's route table is the definition):
//
//	POST /v1/ns/{name}/query        stream matches as NDJSON (terminal "stats"/"error" record)
//	POST /v1/ns/{name}/explain      render the execution plan; analyze=true also runs it
//	POST /v1/ns/{name}/update       add_node / add_edge / remove_edge against the live graph
//	POST /v1/ns/{name}/update/bulk  an array of mutations as one journaled batch
//	GET  /v1/ns/{name}/stats        per-tenant graph, engine, admission, net, update, latency
//	GET  /v1/ns/{name}/wal|snapshot WAL-shipping replication (with /v1/replication/manifest, /v1/admin/promote)
//	GET  /v1/ns                     list namespaces
//	POST /v1/ns                     create a namespace from a spec (file or R-MAT); needs AdminToken
//	DELETE /v1/ns/{name}            drop a namespace (in-flight requests finish); needs AdminToken
//	GET  /v1/healthz|version|metrics liveness (503 while draining), build identity, Prometheus text
//
// The tenant paths directly under /v1 (/v1/query, /v1/stats, ...) address the
// "default" namespace; anything unversioned but /debug/pprof/ is a 404. See
// wire.go for the request/response schema and internal/server/client for
// the Go client.
package server

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"
)

// DefaultNamespace is the tenant the un-namespaced routes (/v1/query,
// /v1/explain, /v1/update, /v1/stats, ...) resolve to.
const DefaultNamespace = "default"

// Config tunes the service. The zero value selects production-ish defaults
// via normalize; Validate rejects nonsense. The field tags are the settings
// table (see setting): flag, environment variable, default and bound.
type Config struct {
	// MaxInFlight is the admission controller's concurrent query limit
	// (default 16). Requests beyond it receive 429 with a Retry-After.
	MaxInFlight int `flag:"max-inflight" def:"16" min:"1" help:"admission limit: concurrent queries per namespace before 429"`
	// DefaultTimeout is the per-request deadline applied when the request
	// does not choose one (default 30s).
	DefaultTimeout time.Duration `flag:"timeout" def:"30s" min:"0" help:"default per-request deadline"`
	// MaxTimeout caps client-requested timeouts (default 4× DefaultTimeout).
	MaxTimeout time.Duration `flag:"max-timeout" min:"0" help:"cap on client-requested deadlines (0 = 4× the default deadline)"`
	// MaxMatches caps any single request's match count; 0 means unlimited.
	// A request's own max_matches is clamped to this.
	MaxMatches int `flag:"max-matches" min:"0" help:"per-request match cap (0 = unlimited)"`
	// MaxBytes caps any single response's match payload bytes; 0 means
	// unlimited.
	MaxBytes int64 `flag:"max-bytes" min:"0" help:"per-response byte cap (0 = unlimited)"`
	// MaxRequestBytes bounds request bodies (default 1 MiB).
	MaxRequestBytes int64 `flag:"max-request-bytes" def:"1048576" min:"1" help:"request body bound in bytes"`
	// RetryAfter is the Retry-After hint attached to 429 responses
	// (default 1s).
	RetryAfter time.Duration `flag:"retry-after" def:"1s" min:"0" help:"Retry-After hint attached to 429 and 503 responses"`
	// UpdateLockWait bounds how long the update dispatcher parks for the
	// writer window before failing the batch with 503 (default 1s). New
	// readers are still admitted for the first min(100ms, half of it) of
	// the park and blocked after that (the epoch cutoff), so a steady
	// reader stream cannot starve the tenant's own updates. When the
	// dispatcher gives up, the cutoff is lifted, so queries never stall
	// behind a writer that is no longer trying.
	UpdateLockWait time.Duration `flag:"update-lock-wait" def:"1s" min:"0" help:"how long a queued update batch waits for the writer window before 503"`
	// UpdateQueueDepth is the per-tenant bounded update FIFO's capacity
	// (default 64). Updates beyond it receive 503 with a Retry-After.
	UpdateQueueDepth int `flag:"update-queue-depth" def:"64" min:"1" help:"per-namespace update queue capacity (queue full → 503 with Retry-After)"`
	// UpdateBatchMax is the single bound on a writer window (default 256):
	// the dispatcher takes queued updates up to this many mutations, and
	// they are one journal record, one fsync and one reader hold-out.
	UpdateBatchMax int `flag:"update-batch-max" def:"256" min:"1" help:"max queued mutations per writer window (one journal record, one fsync)"`
	// NamespaceRoot, when non-empty, permits POST /ns to create tenants
	// from file:/text: sources confined under this directory. Empty
	// (the default) disables file sources over the admin API entirely —
	// a network client must never choose arbitrary server-side paths.
	// Boot-time -ns flags are operator-controlled and unaffected.
	NamespaceRoot string `flag:"ns-root" help:"directory POST /v1/ns may load file:/text: graphs from (empty disables runtime file sources)"`
	// DataDir, when non-empty, enables durability: every namespace created
	// from a spec is recorded in <DataDir>/manifest.json, its update batches
	// are journaled (append + fsync before apply) under <DataDir>/ns/<name>/,
	// and on boot every manifest namespace is re-created and its journal
	// replayed. Empty (the default) keeps the PR 2–4 behavior: everything is
	// in-memory and lost on exit.
	DataDir string `flag:"data-dir" help:"durability root: journal every update batch, checkpoint when the journal is as large as the checkpoint, and recover namespaces on boot (empty disables persistence)"`
	// JournalNoSync skips the per-batch fsync. Throughput testing only: a
	// crash may then lose acknowledged updates, voiding the recovery
	// contract the crash tests pin.
	JournalNoSync bool `flag:"!journal-fsync" help:"fsync the journal before applying each batch (false voids crash durability)"`
	// JournalAlign is the block alignment journal fsyncs pad the file to
	// (default 4096, one flash block; 1 disables padding). Padding is
	// zeros past the last frame — recovery truncates it as a torn tail
	// and closed journals are trimmed, so only live files carry it.
	JournalAlign int64 `flag:"journal-align" def:"4096" min:"1" help:"pad journal fsyncs to this block alignment in bytes (1 disables)"`
	// FollowURL, when non-empty, starts the server as a read-only follower
	// of the leader at this base URL: on boot the replicator fetches the
	// leader's replication manifest, bootstraps each listed namespace (from
	// a snapshot when needed), and tails each journal over
	// GET /v1/ns/{name}/wal, replaying batches through the same apply path
	// recovery uses. Mutating endpoints answer 403 read_only until
	// POST /v1/admin/promote. A bare host:port is promoted to http://.
	FollowURL string `flag:"follow" help:"leader base URL (host:port or http://...): run as a read-only replica that bootstraps and tails every namespace the leader persists; writes answer 403 until POST /v1/admin/promote"`
	// ShardMap, when non-empty, switches the server into cluster mode. It
	// is the static shard map: a comma-separated list of base URLs, one
	// per shard, position = shard id (e.g.
	// "http://10.0.0.1:8080,http://10.0.0.2:8080"). Every process of one
	// cluster must be started with the identical map. Bare host:port
	// entries are promoted to http:// like FollowURL.
	ShardMap string `flag:"shard-map" help:"comma-separated shard base URLs enabling cluster mode; position in the list is the shard id"`
	// ShardID is this process's index into ShardMap and is only
	// meaningful when ShardMap is set. A negative value selects
	// coordinator mode: the process owns no graph and instead fans
	// queries out scatter-gather to every shard, merges the NDJSON match
	// streams under the global caps, and broadcasts updates (the owning
	// shard's response is returned). 0..len(ShardMap)-1 selects shard
	// mode: the process hosts the full graph but only computes the matches
	// that bind the pattern's centre vertex to a data vertex it owns under
	// the range partition of the id space.
	ShardID int `flag:"shard-id" unset:"-1" help:"this process's position in the shard map; omit (or pass a negative value) to run as the coordinator that fans queries out over the map"`
	// AdminToken, when non-empty, is the bearer token POST /ns,
	// DELETE /ns/{name}, and the /debug/pprof endpoints require
	// (Authorization: Bearer <token>). Empty (the default) disables
	// namespace mutation and live profiling over HTTP entirely, the
	// same opt-in posture as NamespaceRoot: creating and destroying
	// tenants is operator business, and the admin surface shares the
	// listener with untrusted tenant traffic. GET /ns and the tenant
	// routes are unaffected.
	AdminToken string `flag:"admin-token" help:"bearer token required by POST /v1/ns, DELETE /v1/ns/{name} and /debug/pprof (empty disables them)"`
	// Logger receives the structured request log: one summary line per
	// query/update/admin call (trace_id, namespace, route, status,
	// wait/exec/emit durations, matches, bytes) plus slow-query and boot
	// lines. Nil discards everything — the library default, so embedding a
	// Server stays silent unless the host wires a logger.
	Logger *slog.Logger
	// SlowQuery, when positive, is the execution-time threshold past which
	// a query's full span breakdown is logged at warn level. 0 disables
	// the slow-query log.
	SlowQuery time.Duration `flag:"slow-query" min:"0" help:"log a Warn-level span breakdown for queries whose execution exceeds this duration (0 disables)"`
}

// configTable is Config's settings table (see setting).
var configTable = tableOf(Config{})

// normalize resolves zero values: each setting's table default, then the
// defaults derived from other settings and the URL promotions.
func (cfg Config) normalize() Config {
	applyDefaults(configTable, &cfg, false)
	if cfg.MaxTimeout == 0 {
		cfg.MaxTimeout = 4 * cfg.DefaultTimeout
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	cfg.FollowURL = baseURL(cfg.FollowURL)
	shards := parseShardMap(cfg.ShardMap)
	for i, u := range shards {
		shards[i] = baseURL(u)
	}
	cfg.ShardMap = strings.Join(shards, ",")
	return cfg
}

// Validate rejects configurations the service cannot honor: a setting below
// its table minimum, or one of the cross-setting rules.
func (cfg Config) Validate() error {
	cfg = cfg.normalize()
	for _, b := range bind(configTable, &cfg) {
		if err := b.check(); err != nil {
			return fmt.Errorf("server: %s %v", b.name, err)
		}
	}
	if cfg.MaxTimeout < cfg.DefaultTimeout {
		return fmt.Errorf("server: MaxTimeout %v < DefaultTimeout %v", cfg.MaxTimeout, cfg.DefaultTimeout)
	}
	if cfg.ShardMap != "" {
		shards := parseShardMap(cfg.ShardMap)
		if i := slices.Index(shards, ""); i >= 0 {
			return fmt.Errorf("server: ShardMap entry %d is empty", i)
		}
		if cfg.ShardID >= len(shards) {
			return fmt.Errorf("server: ShardID %d out of range for a %d-shard map", cfg.ShardID, len(shards))
		}
		if cfg.ShardID < 0 && cfg.FollowURL != "" {
			return fmt.Errorf("server: a coordinator cannot also be a follower (replication runs per shard, not at the coordinator)")
		}
	}
	return nil
}

// baseURL promotes a bare host:port to http:// and drops trailing slashes.
func baseURL(u string) string {
	if u != "" && !strings.Contains(u, "://") {
		u = "http://" + u
	}
	return strings.TrimRight(u, "/")
}

// parseShardMap splits a shard map string into per-shard base URLs,
// trimming surrounding whitespace. Position = shard id.
func parseShardMap(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// FromEnv overlays the STWIGD_* environment variables (README "Settings
// reference" lists them) onto cfg and returns the result. An unset variable
// leaves its field untouched; a set but unparsable one is an error (a typo'd
// limit must not silently select the default). lookup defaults to
// os.LookupEnv; tests inject their own.
func (cfg Config) FromEnv(lookup func(string) (string, bool)) (Config, error) {
	if lookup == nil {
		lookup = os.LookupEnv
	}
	for _, b := range bind(configTable, &cfg) {
		if v, ok := lookup(b.env()); ok {
			if err := b.Set(v); err != nil {
				return cfg, fmt.Errorf("server: %s=%q: %v", b.env(), v, err)
			}
		}
	}
	return cfg, nil
}

// BindFlags registers one flag per setting on fs, bound to the fields of cfg
// (a zero Config). A flag's default is the setting's environment variable
// when lookupEnv (nil means os.LookupEnv) has it, else the table's — so after
// fs.Parse the precedence is flag > environment > default.
func (cfg *Config) BindFlags(fs *flag.FlagSet, lookupEnv func(string) (string, bool)) error {
	applyDefaults(configTable, cfg, true)
	var err error
	*cfg, err = cfg.FromEnv(lookupEnv)
	bindFlags(fs, configTable, cfg, true)
	return err
}

// ValidateNamespaceName rejects names the router and the spec grammar
// cannot carry: empty, longer than 64 bytes, or containing anything outside
// [a-zA-Z0-9_-]. The path separator, '=', ',' and ':' are thereby excluded,
// so a name can never be confused with spec syntax or split a route.
func ValidateNamespaceName(name string) error {
	if name == "" {
		return fmt.Errorf("server: empty namespace name")
	}
	if len(name) > 64 {
		return fmt.Errorf("server: namespace name %q longer than 64 bytes", name)
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
		default:
			return fmt.Errorf("server: namespace name %q: invalid character %q (want [a-zA-Z0-9_-])", name, r)
		}
	}
	return nil
}

// NamespaceSpec describes how to materialize one tenant: a graph source
// plus optional per-tenant limits. The textual form — shared by stwigd's
// boot-time -ns flag and the POST /ns admin endpoint — is
//
//	rmat:scale=12,degree=8,labels=16,seed=1[,OPT...]
//	file:/path/to/graph.bin[,OPT...]
//	text:/path/to/graph.txt[,OPT...]
//
// where OPT is key=value for any field's spec key below that applies to the
// source kind (README "Settings reference" lists them with their defaults).
// inflight/maxmatches/maxbytes override the server's defaults for this
// tenant only; the rest shape the cluster the graph is loaded onto —
// machines is the tenant's parallelism: a query runs its simulated machines
// on min(GOMAXPROCS, machines) goroutines. Fields that also carry a flag shape stwigd's default
// namespace. The keys in retiredSpecKeys are accepted and discarded.
type NamespaceSpec struct {
	Name string

	// Source is "rmat", "file", or "text".
	Source string
	// Path is the graph file for file/text sources.
	Path string
	// Scale, Degree, Labels, Seed parameterize the rmat source.
	Scale  int   `spec:"scale" flag:"rmat-scale" only:"rmat" help:"R-MAT graph with 2^N vertices; required by rmat specs, and the flag generates the default namespace instead of loading -graph"`
	Degree int   `spec:"degree" flag:"rmat-degree" only:"rmat" def:"8" help:"R-MAT average degree"`
	Labels int   `spec:"labels" flag:"rmat-labels" only:"rmat" def:"16" help:"R-MAT label alphabet size"`
	Seed   int64 `spec:"seed" flag:"rmat-seed" only:"rmat" def:"1" help:"R-MAT generation seed"`

	// Relabel is "" or "degree" (celebrity/regular/bot by degree band).
	Relabel string `spec:"relabel" flag:"relabel" in:"degree" help:"relabel the graph after load: 'degree' assigns celebrity/regular/bot by degree band"`
	// Machines is the simulated cluster size (default 8).
	Machines int `spec:"machines" flag:"machines" def:"8" min:"1" help:"simulated cluster size, and the parallelism of a query: its machines run on min(GOMAXPROCS, machines) goroutines"`

	// Per-tenant limit overrides; 0 inherits the server's Config.
	MaxInFlight int   `spec:"inflight" min:"0" help:"this tenant's admission limit (0 inherits the server's)"`
	MaxMatches  int   `spec:"maxmatches" min:"0" help:"this tenant's per-request match cap (0 inherits the server's)"`
	MaxBytes    int64 `spec:"maxbytes" min:"0" help:"this tenant's per-response byte cap (0 inherits the server's)"`
}

// specTable is NamespaceSpec's settings table (see setting).
var specTable = tableOf(NamespaceSpec{})

// retiredSpecKeys name settings that are gone: parallelism (a per-machine
// worker pool), plancache (the engine's plan cache) and semijoincap (the
// volume gate of a pre-join semi-join pass, since deleted). A manifest an
// earlier build wrote may still carry them, so the parser checks each value
// as an integer and discards it, and SpecString never writes one; boot then
// rewrites the manifest without them.
var retiredSpecKeys = []string{"parallelism", "plancache", "semijoincap"}

// BindFlags registers the flags that shape stwigd's default namespace —
// every spec field that carries one — on fs, bound to spec's fields with
// the spec grammar's own defaults, and returns their names.
func (spec *NamespaceSpec) BindFlags(fs *flag.FlagSet) []string {
	applyDefaults(specTable, spec, false)
	return bindFlags(fs, specTable, spec, false)
}

// ParseNamespaceFlag parses stwigd's -ns flag form "name=spec".
func ParseNamespaceFlag(s string) (NamespaceSpec, error) {
	name, rest, ok := strings.Cut(s, "=")
	if !ok {
		return NamespaceSpec{}, fmt.Errorf("server: -ns %q: want name=spec", s)
	}
	return ParseNamespaceSpec(name, rest)
}

// ParseNamespaceSpec parses the spec grammar documented on NamespaceSpec.
func ParseNamespaceSpec(name, spec string) (NamespaceSpec, error) {
	if err := ValidateNamespaceName(name); err != nil {
		return NamespaceSpec{}, err
	}
	kind, rest, ok := strings.Cut(spec, ":")
	if !ok {
		return NamespaceSpec{}, fmt.Errorf("server: namespace %q: spec %q: want kind:args with kind rmat, file, or text", name, spec)
	}
	out := NamespaceSpec{Name: name, Source: kind}
	applyDefaults(specTable, &out, false)
	parts := strings.Split(rest, ",")
	switch kind {
	case "file", "text":
		// The first segment is the path; options follow. (A path containing
		// a comma cannot be expressed — documented limitation.)
		if parts[0] == "" {
			return NamespaceSpec{}, fmt.Errorf("server: namespace %q: %s source needs a path", name, kind)
		}
		out.Path = parts[0]
		parts = parts[1:]
	case "rmat":
	default:
		return NamespaceSpec{}, fmt.Errorf("server: namespace %q: unknown source kind %q (want rmat, file, or text)", name, kind)
	}
	opts := bind(specTable, &out)
	for _, p := range parts {
		if p == "" {
			continue
		}
		k, v, ok := strings.Cut(p, "=")
		if !ok {
			return NamespaceSpec{}, fmt.Errorf("server: namespace %q: option %q: want key=value", name, p)
		}
		if slices.Contains(retiredSpecKeys, k) {
			if _, err := strconv.Atoi(v); err != nil {
				return NamespaceSpec{}, fmt.Errorf("server: namespace %q: option %s=%q: want an integer", name, k, v)
			}
			continue
		}
		i := slices.IndexFunc(opts, func(b bound) bool { return b.spec == k })
		if i < 0 {
			return NamespaceSpec{}, fmt.Errorf("server: namespace %q: unknown option %q", name, k)
		}
		b := opts[i]
		if b.only != "" && b.only != kind {
			return NamespaceSpec{}, fmt.Errorf("server: namespace %q: option %q only applies to %s sources", name, k, b.only)
		}
		err := b.Set(v)
		if err == nil {
			err = b.check()
		}
		if err != nil {
			return NamespaceSpec{}, fmt.Errorf("server: namespace %q: option %s=%q: %v", name, k, v, err)
		}
	}
	if kind == "rmat" && out.Scale <= 0 {
		return NamespaceSpec{}, fmt.Errorf("server: namespace %q: rmat source needs scale=N (N ≥ 1)", name)
	}
	return out, nil
}

// SpecString renders the spec back into the textual grammar
// ParseNamespaceSpec accepts, canonically (table order). It is what the
// durability manifest records, so a persisted namespace is re-created by
// the exact parser the boot flags use; ParseNamespaceSpec(name,
// spec.SpecString()) round-trips to an identical spec. A key with a parse
// default is always written (omitting it would mean the default, not the
// field), as are the source kind's own keys; the rest only when set.
func (spec NamespaceSpec) SpecString() string {
	var parts []string
	if spec.Source != "rmat" { // file, text
		parts = append(parts, spec.Path)
	}
	for _, b := range bind(specTable, &spec) {
		if b.only != "" && b.only != spec.Source {
			continue
		}
		if b.def != "" || b.only != "" || !b.f.IsZero() {
			parts = append(parts, b.spec+"="+b.String())
		}
	}
	return spec.Source + ":" + strings.Join(parts, ",")
}

// configFor folds the spec's per-tenant overrides into the server's base
// config.
func (spec NamespaceSpec) configFor(base Config) Config {
	if spec.MaxInFlight > 0 {
		base.MaxInFlight = spec.MaxInFlight
	}
	if spec.MaxMatches > 0 {
		base.MaxMatches = spec.MaxMatches
	}
	if spec.MaxBytes > 0 {
		base.MaxBytes = spec.MaxBytes
	}
	return base
}

// effectiveLimits folds a request's asks into the server's caps.
func (cfg Config) effectiveLimits(req QueryRequest) (timeout time.Duration, maxMatches int) {
	timeout = cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		// Compare in milliseconds before converting: a huge timeout_ms
		// would overflow the Duration multiplication to negative and slip
		// past both the clamp and the deadline.
		if int64(req.TimeoutMS) >= int64(cfg.MaxTimeout/time.Millisecond) {
			timeout = cfg.MaxTimeout
		} else {
			timeout = time.Duration(req.TimeoutMS) * time.Millisecond
		}
	}
	maxMatches = cfg.MaxMatches
	if req.MaxMatches > 0 && (maxMatches == 0 || req.MaxMatches < maxMatches) {
		maxMatches = req.MaxMatches
	}
	return timeout, maxMatches
}
