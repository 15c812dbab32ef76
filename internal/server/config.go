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
//	GET  /v1/ns/{name}/stats        per-tenant plan cache, admission, net, update, latency
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
	"fmt"
	"io"
	"log/slog"
	"os"
	"strconv"
	"strings"
	"time"

	"stwig/internal/journal"
)

// DefaultNamespace is the tenant the un-namespaced routes (/v1/query,
// /v1/explain, /v1/update, /v1/stats, ...) resolve to.
const DefaultNamespace = "default"

// Config tunes the service. The zero value selects production-ish defaults
// via normalize; Validate rejects nonsense.
type Config struct {
	// MaxInFlight is the admission controller's concurrent query limit
	// (default 16). Requests beyond it receive 429 with a Retry-After.
	MaxInFlight int
	// DefaultTimeout is the per-request deadline applied when the request
	// does not choose one (default 30s).
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested timeouts (default 4× DefaultTimeout).
	MaxTimeout time.Duration
	// MaxMatches caps any single request's match count; 0 means unlimited.
	// A request's own max_matches is clamped to this.
	MaxMatches int
	// MaxBytes caps any single response's match payload bytes; 0 means
	// unlimited.
	MaxBytes int64
	// MaxRequestBytes bounds request bodies (default 1 MiB).
	MaxRequestBytes int64
	// Parallelism is the per-query intra-machine worker count engines use
	// (core.Options.Parallelism): 0 (the default) resolves to GOMAXPROCS,
	// 1 disables intra-machine parallelism. Namespace specs may override
	// it per tenant with parallelism=N.
	Parallelism int
	// RetryAfter is the Retry-After hint attached to 429 responses
	// (default 1s).
	RetryAfter time.Duration
	// UpdateLockWait bounds how long the update dispatcher parks for the
	// writer window before failing the batch with 503 (default 1s). When
	// the dispatcher gives up, the reader cutoff is lifted, so queries
	// never stall behind a writer that is no longer trying.
	UpdateLockWait time.Duration
	// UpdateQueueDepth is the per-tenant bounded update FIFO's capacity
	// (default 64). Updates beyond it receive 503 with a Retry-After.
	UpdateQueueDepth int
	// UpdateBatchMax caps how many queued mutations the dispatcher applies
	// under one writer window (default 32) — the lock-traffic amortization
	// the batching pipeline exists for.
	UpdateBatchMax int
	// UpdateFairnessWindow is the reader grace period after the dispatcher
	// parks for the writer window (default min(100ms, UpdateLockWait/2)):
	// new readers are still admitted during it, and blocked after it (the
	// epoch cutoff), so a steady reader stream cannot starve the tenant's
	// own updates while a parked writer still bounds read unavailability.
	// Validate rejects a window the writer's patience would always outlast
	// — the cutoff could never fire and starvation would return silently.
	UpdateFairnessWindow time.Duration
	// NamespaceRoot, when non-empty, permits POST /ns to create tenants
	// from file:/text: sources confined under this directory. Empty
	// (the default) disables file sources over the admin API entirely —
	// a network client must never choose arbitrary server-side paths.
	// Boot-time -ns flags are operator-controlled and unaffected.
	NamespaceRoot string
	// DataDir, when non-empty, enables durability: every namespace created
	// from a spec is recorded in <DataDir>/manifest.json, its update batches
	// are journaled (append + fsync before apply) under <DataDir>/ns/<name>/,
	// and on boot every manifest namespace is re-created and its journal
	// replayed. Empty (the default) keeps the PR 2–4 behavior: everything is
	// in-memory and lost on exit.
	DataDir string
	// CheckpointEvery is how many journaled batches accumulate before the
	// namespace's cluster is snapshotted and its journal truncated (default
	// 256). Smaller values bound replay time tighter at the cost of more
	// snapshot I/O.
	CheckpointEvery int
	// JournalNoSync skips the per-batch fsync. Throughput testing only: a
	// crash may then lose acknowledged updates, voiding the recovery
	// contract the crash tests pin.
	JournalNoSync bool
	// GroupCommitWindow is how long the update dispatcher lingers after the
	// first queued batch arrives, gathering more batches so they all share
	// one journal fsync (default 0: no deliberate wait — the dispatcher
	// still opportunistically drains everything already queued into the
	// shared fsync window, which is where group commit's win comes from
	// under load). A positive window trades that much ack latency for
	// fewer fsyncs on slow devices.
	GroupCommitWindow time.Duration
	// GroupCommitBatches caps how many coalesced batches (journal records)
	// one shared fsync may cover (default 8). Bounds both the work a
	// single writer window holds readers out for and the loss radius of
	// one failed fsync, which fails every batch in its window.
	GroupCommitBatches int
	// JournalAlign is the block alignment journal fsyncs pad the file to
	// (default 4096, one flash block; 1 disables padding). Padding is
	// zeros past the last frame — recovery truncates it as a torn tail
	// and closed journals are trimmed, so only live files carry it.
	JournalAlign int64
	// FollowURL, when non-empty, starts the server as a read-only follower
	// of the leader at this base URL: on boot the replicator fetches the
	// leader's replication manifest, bootstraps each listed namespace (from
	// a snapshot when needed), and tails each journal over
	// GET /v1/ns/{name}/wal, replaying batches through the same apply path
	// recovery uses. Mutating endpoints answer 403 read_only until
	// POST /v1/admin/promote. A bare host:port is promoted to http://.
	FollowURL string
	// ShardMap, when non-empty, switches the server into cluster mode. It
	// is the static shard map: a comma-separated list of base URLs, one
	// per shard, position = shard id (e.g.
	// "http://10.0.0.1:8080,http://10.0.0.2:8080"). Every process of one
	// cluster must be started with the identical map. Bare host:port
	// entries are promoted to http:// like FollowURL.
	ShardMap string
	// ShardID is this process's index into ShardMap and is only
	// meaningful when ShardMap is set. A negative value selects
	// coordinator mode: the process owns no graph and instead fans
	// queries out scatter-gather to every shard, merges the NDJSON match
	// streams under the global caps, and broadcasts updates (the owning
	// shard's response is returned). 0..len(ShardMap)-1 selects shard
	// mode: the process hosts the full graph but only emits matches whose
	// root vertex it owns under the range partition of the id space.
	ShardID int
	// AdminToken, when non-empty, is the bearer token POST /ns,
	// DELETE /ns/{name}, and the /debug/pprof endpoints require
	// (Authorization: Bearer <token>). Empty (the default) disables
	// namespace mutation and live profiling over HTTP entirely, the
	// same opt-in posture as NamespaceRoot: creating and destroying
	// tenants is operator business, and the admin surface shares the
	// listener with untrusted tenant traffic. GET /ns and the tenant
	// routes are unaffected.
	AdminToken string
	// Logger receives the structured request log: one summary line per
	// query/update/admin call (trace_id, namespace, route, status,
	// wait/exec/emit durations, matches, bytes) plus slow-query and boot
	// lines. Nil discards everything — the library default, so embedding a
	// Server stays silent unless the host wires a logger.
	Logger *slog.Logger
	// SlowQuery, when positive, is the execution-time threshold past which
	// a query's full span breakdown is logged at warn level. 0 disables
	// the slow-query log.
	SlowQuery time.Duration
}

func (cfg Config) normalize() Config {
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = 16
	}
	if cfg.DefaultTimeout == 0 {
		cfg.DefaultTimeout = 30 * time.Second
	}
	if cfg.MaxTimeout == 0 {
		cfg.MaxTimeout = 4 * cfg.DefaultTimeout
	}
	if cfg.MaxRequestBytes == 0 {
		cfg.MaxRequestBytes = 1 << 20
	}
	if cfg.RetryAfter == 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.UpdateLockWait == 0 {
		cfg.UpdateLockWait = time.Second
	}
	if cfg.UpdateQueueDepth == 0 {
		cfg.UpdateQueueDepth = 64
	}
	if cfg.UpdateBatchMax == 0 {
		cfg.UpdateBatchMax = 32
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 256
	}
	if cfg.GroupCommitBatches == 0 {
		cfg.GroupCommitBatches = 8
	}
	if cfg.JournalAlign == 0 {
		cfg.JournalAlign = journal.DefaultAlign
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if cfg.FollowURL != "" && !strings.Contains(cfg.FollowURL, "://") {
		cfg.FollowURL = "http://" + cfg.FollowURL
	}
	cfg.FollowURL = strings.TrimRight(cfg.FollowURL, "/")
	if cfg.ShardMap != "" {
		shards := parseShardMap(cfg.ShardMap)
		for i, u := range shards {
			if u != "" && !strings.Contains(u, "://") {
				u = "http://" + u
			}
			shards[i] = strings.TrimRight(u, "/")
		}
		cfg.ShardMap = strings.Join(shards, ",")
	}
	if cfg.UpdateFairnessWindow == 0 {
		// The cutoff only matters if it fires before the writer gives up;
		// adapt the default to short writer patience instead of silently
		// configuring a cutoff that can never mature.
		cfg.UpdateFairnessWindow = 100 * time.Millisecond
		if half := cfg.UpdateLockWait / 2; half < cfg.UpdateFairnessWindow {
			cfg.UpdateFairnessWindow = half
		}
	}
	return cfg
}

// Validate rejects configurations the service cannot honor.
func (cfg Config) Validate() error {
	cfg = cfg.normalize()
	if cfg.MaxInFlight < 1 {
		return fmt.Errorf("server: MaxInFlight %d < 1", cfg.MaxInFlight)
	}
	if cfg.DefaultTimeout < 0 || cfg.MaxTimeout < 0 {
		return fmt.Errorf("server: negative timeout")
	}
	if cfg.MaxTimeout < cfg.DefaultTimeout {
		return fmt.Errorf("server: MaxTimeout %v < DefaultTimeout %v", cfg.MaxTimeout, cfg.DefaultTimeout)
	}
	if cfg.MaxMatches < 0 || cfg.MaxBytes < 0 {
		return fmt.Errorf("server: negative cap")
	}
	if cfg.Parallelism < 0 {
		return fmt.Errorf("server: Parallelism %d < 0", cfg.Parallelism)
	}
	if cfg.UpdateQueueDepth < 1 {
		return fmt.Errorf("server: UpdateQueueDepth %d < 1", cfg.UpdateQueueDepth)
	}
	if cfg.UpdateBatchMax < 1 {
		return fmt.Errorf("server: UpdateBatchMax %d < 1", cfg.UpdateBatchMax)
	}
	if cfg.UpdateLockWait < 0 || cfg.UpdateFairnessWindow < 0 {
		return fmt.Errorf("server: negative update window")
	}
	if cfg.CheckpointEvery < 1 {
		return fmt.Errorf("server: CheckpointEvery %d < 1", cfg.CheckpointEvery)
	}
	if cfg.GroupCommitWindow < 0 {
		return fmt.Errorf("server: GroupCommitWindow %v < 0", cfg.GroupCommitWindow)
	}
	if cfg.GroupCommitBatches < 1 {
		return fmt.Errorf("server: GroupCommitBatches %d < 1", cfg.GroupCommitBatches)
	}
	if cfg.JournalAlign < 1 {
		return fmt.Errorf("server: JournalAlign %d < 1", cfg.JournalAlign)
	}
	if cfg.SlowQuery < 0 {
		return fmt.Errorf("server: SlowQuery %v < 0", cfg.SlowQuery)
	}
	if cfg.ShardMap != "" {
		shards := parseShardMap(cfg.ShardMap)
		for i, u := range shards {
			if u == "" {
				return fmt.Errorf("server: ShardMap entry %d is empty", i)
			}
		}
		if cfg.ShardID >= len(shards) {
			return fmt.Errorf("server: ShardID %d out of range for a %d-shard map", cfg.ShardID, len(shards))
		}
		if cfg.ShardID < 0 && cfg.FollowURL != "" {
			return fmt.Errorf("server: a coordinator cannot also be a follower (replication runs per shard, not at the coordinator)")
		}
	}
	// A fairness window at or beyond the writer's patience means the
	// reader cutoff can never fire before the writer gives up — silently
	// reintroducing the writer starvation the pipeline exists to prevent.
	if cfg.UpdateFairnessWindow >= cfg.UpdateLockWait {
		return fmt.Errorf("server: UpdateFairnessWindow %v must be shorter than UpdateLockWait %v (the cutoff would never fire)",
			cfg.UpdateFairnessWindow, cfg.UpdateLockWait)
	}
	return nil
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

// FromEnv overlays STWIGD_* environment variables onto cfg and returns the
// result. Unset variables leave the corresponding field untouched; a set
// but unparsable variable is an error (a typo'd limit must not silently
// select the default). lookup defaults to os.LookupEnv; tests inject their
// own.
//
//	STWIGD_MAX_INFLIGHT       int       admission limit
//	STWIGD_TIMEOUT            duration  default per-request deadline
//	STWIGD_MAX_TIMEOUT        duration  cap on client-requested deadlines
//	STWIGD_MAX_MATCHES        int       per-request match cap
//	STWIGD_MAX_BYTES          int       per-response byte cap
//	STWIGD_MAX_REQUEST_BYTES  int       request body bound
//	STWIGD_PARALLELISM        int       per-query intra-machine workers (0 = GOMAXPROCS)
//	STWIGD_RETRY_AFTER        duration  Retry-After hint on 429/503
//	STWIGD_UPDATE_LOCK_WAIT   duration  writer-window patience before a batch fails 503
//	STWIGD_UPDATE_QUEUE_DEPTH int       per-tenant update queue capacity (503 when full)
//	STWIGD_UPDATE_BATCH_MAX   int       mutations applied per writer window
//	STWIGD_UPDATE_FAIRNESS_WINDOW duration  reader grace period before a parked writer blocks new readers
//	STWIGD_NS_ROOT            path      root for admin-API file:/text: sources
//	STWIGD_ADMIN_TOKEN        string    bearer token for POST/DELETE /ns (unset disables them)
//	STWIGD_DATA_DIR           path      durability root (journal + checkpoints + manifest; unset disables)
//	STWIGD_FOLLOW             url       leader base URL; start as a read-only WAL-shipping follower
//	STWIGD_SHARD_MAP          urls      comma-separated shard base URLs (position = shard id); enables cluster mode
//	STWIGD_SHARD_ID           int       this process's index into the shard map (negative = coordinator)
//	STWIGD_CHECKPOINT_EVERY   int       journaled batches between checkpoint/compaction cycles
//	STWIGD_JOURNAL_FSYNC      bool      false skips the per-batch fsync (crash durability lost)
//	STWIGD_GROUP_COMMIT_WINDOW  duration  linger gathering batches into one shared fsync (0 = opportunistic only)
//	STWIGD_GROUP_COMMIT_BATCHES int       max journal records one shared fsync may cover
//	STWIGD_JOURNAL_ALIGN      int       block alignment fsyncs pad the journal to (1 disables)
//	STWIGD_SLOW_QUERY         duration  span-breakdown log threshold for slow queries (0 disables)
func (cfg Config) FromEnv(lookup func(string) (string, bool)) (Config, error) {
	if lookup == nil {
		lookup = os.LookupEnv
	}
	var err error
	envInt := func(key string, dst *int) {
		if v, ok := lookup(key); ok && err == nil {
			n, perr := strconv.Atoi(v)
			if perr != nil {
				err = fmt.Errorf("server: %s=%q: not an integer", key, v)
				return
			}
			*dst = n
		}
	}
	envInt64 := func(key string, dst *int64) {
		if v, ok := lookup(key); ok && err == nil {
			n, perr := strconv.ParseInt(v, 10, 64)
			if perr != nil {
				err = fmt.Errorf("server: %s=%q: not an integer", key, v)
				return
			}
			*dst = n
		}
	}
	envDur := func(key string, dst *time.Duration) {
		if v, ok := lookup(key); ok && err == nil {
			d, perr := time.ParseDuration(v)
			if perr != nil {
				err = fmt.Errorf("server: %s=%q: not a duration (want e.g. 30s)", key, v)
				return
			}
			*dst = d
		}
	}
	envInt("STWIGD_MAX_INFLIGHT", &cfg.MaxInFlight)
	envDur("STWIGD_TIMEOUT", &cfg.DefaultTimeout)
	envDur("STWIGD_MAX_TIMEOUT", &cfg.MaxTimeout)
	envInt("STWIGD_MAX_MATCHES", &cfg.MaxMatches)
	envInt64("STWIGD_MAX_BYTES", &cfg.MaxBytes)
	envInt64("STWIGD_MAX_REQUEST_BYTES", &cfg.MaxRequestBytes)
	envInt("STWIGD_PARALLELISM", &cfg.Parallelism)
	envDur("STWIGD_RETRY_AFTER", &cfg.RetryAfter)
	envDur("STWIGD_UPDATE_LOCK_WAIT", &cfg.UpdateLockWait)
	envInt("STWIGD_UPDATE_QUEUE_DEPTH", &cfg.UpdateQueueDepth)
	envInt("STWIGD_UPDATE_BATCH_MAX", &cfg.UpdateBatchMax)
	envDur("STWIGD_UPDATE_FAIRNESS_WINDOW", &cfg.UpdateFairnessWindow)
	envBool := func(key string, dst *bool) {
		if v, ok := lookup(key); ok && err == nil {
			b, perr := strconv.ParseBool(v)
			if perr != nil {
				err = fmt.Errorf("server: %s=%q: not a boolean", key, v)
				return
			}
			*dst = b
		}
	}
	if v, ok := lookup("STWIGD_NS_ROOT"); ok {
		cfg.NamespaceRoot = v
	}
	if v, ok := lookup("STWIGD_ADMIN_TOKEN"); ok {
		cfg.AdminToken = v
	}
	if v, ok := lookup("STWIGD_DATA_DIR"); ok {
		cfg.DataDir = v
	}
	if v, ok := lookup("STWIGD_FOLLOW"); ok {
		cfg.FollowURL = v
	}
	if v, ok := lookup("STWIGD_SHARD_MAP"); ok {
		cfg.ShardMap = v
	}
	envInt("STWIGD_SHARD_ID", &cfg.ShardID)
	envInt("STWIGD_CHECKPOINT_EVERY", &cfg.CheckpointEvery)
	envDur("STWIGD_GROUP_COMMIT_WINDOW", &cfg.GroupCommitWindow)
	envInt("STWIGD_GROUP_COMMIT_BATCHES", &cfg.GroupCommitBatches)
	envInt64("STWIGD_JOURNAL_ALIGN", &cfg.JournalAlign)
	envDur("STWIGD_SLOW_QUERY", &cfg.SlowQuery)
	fsync := !cfg.JournalNoSync
	envBool("STWIGD_JOURNAL_FSYNC", &fsync)
	cfg.JournalNoSync = !fsync
	if err != nil {
		return cfg, err
	}
	return cfg, nil
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
// where OPT is any of machines=N, plancache=N, relabel=degree,
// inflight=N, maxmatches=N, maxbytes=N, parallelism=N, semijoincap=N.
// inflight/maxmatches/maxbytes override the server's defaults for this
// tenant only; parallelism/semijoincap tune the tenant engine's intra-
// machine workers and semi-join volume gate; the rest shape the cluster
// the graph is loaded onto.
type NamespaceSpec struct {
	Name string

	// Source is "rmat", "file", or "text".
	Source string
	// Path is the graph file for file/text sources.
	Path string
	// Scale, Degree, Labels, Seed parameterize the rmat source.
	Scale  int
	Degree int
	Labels int
	Seed   int64

	// Relabel is "" or "degree" (celebrity/regular/bot by degree band).
	Relabel string
	// Machines is the simulated cluster size (default 8).
	Machines int
	// PlanCache is the plan-cache capacity (0 = engine default, negative =
	// disabled).
	PlanCache int

	// Per-tenant limit overrides; 0 inherits the server's Config.
	MaxInFlight int
	MaxMatches  int
	MaxBytes    int64

	// Parallelism overrides the server's per-query intra-machine worker
	// count for this tenant's engine; 0 inherits Config.Parallelism.
	Parallelism int
	// SemijoinCap overrides the engine's semi-join volume gate in words
	// (core.Options.SemijoinWordCap); 0 keeps the engine default, negative
	// disables the reduction.
	SemijoinCap int
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
	out := NamespaceSpec{Name: name, Source: kind, Degree: 8, Labels: 16, Seed: 1, Machines: 8}
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
	for _, p := range parts {
		if p == "" {
			continue
		}
		k, v, ok := strings.Cut(p, "=")
		if !ok {
			return NamespaceSpec{}, fmt.Errorf("server: namespace %q: option %q: want key=value", name, p)
		}
		perr := func() error {
			return fmt.Errorf("server: namespace %q: option %s=%q: not an integer", name, k, v)
		}
		n, nerr := strconv.ParseInt(v, 10, 64)
		switch k {
		case "relabel":
			if v != "degree" {
				return NamespaceSpec{}, fmt.Errorf("server: namespace %q: relabel=%q (only \"degree\" is supported)", name, v)
			}
			out.Relabel = v
			continue
		case "scale", "degree", "labels", "seed":
			if kind != "rmat" {
				return NamespaceSpec{}, fmt.Errorf("server: namespace %q: option %q only applies to rmat sources", name, k)
			}
			if nerr != nil {
				return NamespaceSpec{}, perr()
			}
		case "machines", "plancache", "inflight", "maxmatches", "maxbytes", "parallelism", "semijoincap":
			if nerr != nil {
				return NamespaceSpec{}, perr()
			}
		default:
			return NamespaceSpec{}, fmt.Errorf("server: namespace %q: unknown option %q", name, k)
		}
		switch k {
		case "scale":
			out.Scale = int(n)
		case "degree":
			out.Degree = int(n)
		case "labels":
			out.Labels = int(n)
		case "seed":
			out.Seed = n
		case "machines":
			out.Machines = int(n)
		case "plancache":
			out.PlanCache = int(n)
		case "inflight":
			out.MaxInFlight = int(n)
		case "maxmatches":
			out.MaxMatches = int(n)
		case "maxbytes":
			out.MaxBytes = n
		case "parallelism":
			out.Parallelism = int(n)
		case "semijoincap":
			out.SemijoinCap = int(n)
		}
	}
	if kind == "rmat" && out.Scale <= 0 {
		return NamespaceSpec{}, fmt.Errorf("server: namespace %q: rmat source needs scale=N (N ≥ 1)", name)
	}
	if out.Machines < 1 {
		return NamespaceSpec{}, fmt.Errorf("server: namespace %q: machines=%d < 1", name, out.Machines)
	}
	if out.MaxInFlight < 0 || out.MaxMatches < 0 || out.MaxBytes < 0 || out.Parallelism < 0 {
		return NamespaceSpec{}, fmt.Errorf("server: namespace %q: negative limit override", name)
	}
	return out, nil
}

// SpecString renders the spec back into the textual grammar
// ParseNamespaceSpec accepts, canonically (fixed option order). It is what
// the durability manifest records, so a persisted namespace is re-created
// by the exact parser the boot flags use; ParseNamespaceSpec(name,
// spec.SpecString()) round-trips to an identical spec.
func (spec NamespaceSpec) SpecString() string {
	var b strings.Builder
	switch spec.Source {
	case "rmat":
		fmt.Fprintf(&b, "rmat:scale=%d,degree=%d,labels=%d,seed=%d", spec.Scale, spec.Degree, spec.Labels, spec.Seed)
	default: // file, text
		fmt.Fprintf(&b, "%s:%s", spec.Source, spec.Path)
	}
	if spec.Relabel != "" {
		fmt.Fprintf(&b, ",relabel=%s", spec.Relabel)
	}
	fmt.Fprintf(&b, ",machines=%d", spec.Machines)
	if spec.PlanCache != 0 {
		fmt.Fprintf(&b, ",plancache=%d", spec.PlanCache)
	}
	if spec.MaxInFlight != 0 {
		fmt.Fprintf(&b, ",inflight=%d", spec.MaxInFlight)
	}
	if spec.MaxMatches != 0 {
		fmt.Fprintf(&b, ",maxmatches=%d", spec.MaxMatches)
	}
	if spec.MaxBytes != 0 {
		fmt.Fprintf(&b, ",maxbytes=%d", spec.MaxBytes)
	}
	if spec.Parallelism != 0 {
		fmt.Fprintf(&b, ",parallelism=%d", spec.Parallelism)
	}
	if spec.SemijoinCap != 0 {
		fmt.Fprintf(&b, ",semijoincap=%d", spec.SemijoinCap)
	}
	return b.String()
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
	if spec.Parallelism > 0 {
		base.Parallelism = spec.Parallelism
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
