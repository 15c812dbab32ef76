// Command stwigd serves subgraph matching queries over HTTP: the paper's
// system as an online, multi-tenant service. At startup it loads a graph
// file (or generates an R-MAT graph in process) into a simulated memory
// cloud for the default namespace, materializes any -ns tenants the same
// way, then serves streaming queries, dynamic updates, runtime namespace
// administration, and live stats until shut down.
//
// Usage:
//
//	stwigd -graph data.bin [-text] [-addr :7029] [-machines 8]
//	stwigd -rmat-scale 14 -rmat-degree 8 -rmat-labels 16 [-relabel degree]
//	stwigd -rmat-scale 13 -ns 'tenantA=rmat:scale=12,labels=8,inflight=4' \
//	       -ns 'tenantB=file:/data/b.bin,machines=4'
//
// Endpoints, all under /v1 (see internal/server for the wire format and
// the full route table):
//
//	POST /v1/ns/{name}/query    {"pattern": "(a:L1)-(b:L2)"}       → NDJSON match stream
//	POST /v1/ns/{name}/explain  {"pattern": ...}                   → rendered plan
//	POST /v1/ns/{name}/update   {"op": "add_edge", "u": 1, "v": 2} → applied mutation
//	POST /v1/ns/{name}/update/bulk {"updates": [...]}              → one journaled batch
//	GET  /v1/ns/{name}/stats                                       → per-tenant counters
//	GET  /v1/ns                                                    → list namespaces
//	POST /v1/ns                 {"name": "t", "spec": "rmat:scale=10"} → create tenant
//	DELETE /v1/ns/{name}                                           → drop tenant
//	GET  /v1/healthz                                               → liveness + build info
//	GET  /v1/version                                               → build identity
//	GET  /v1/metrics                                               → Prometheus text
//	GET  /debug/pprof/                                             → live profiling (admin token)
//
// The tenant paths directly under /v1 (/v1/query, /v1/explain, /v1/update,
// /v1/stats) address the "default" namespace; unversioned paths other than
// /debug/pprof/ are 404s. POST /v1/ns, DELETE /v1/ns/{name}, and
// /debug/pprof require the -admin-token (or STWIGD_ADMIN_TOKEN) bearer token
// and are disabled when none is set — the admin surface shares the listener
// with untrusted tenant traffic.
//
// Every request is logged as one structured line on stderr carrying a
// trace ID (X-Stwig-Trace, honored from the client or minted); -slow-query
// DURATION additionally logs a per-phase span breakdown for slow queries.
//
// Server limits may also come from STWIGD_* env vars (see
// server.Config.FromEnv); explicit flags win over the environment.
// -max-timeout 0 (the default) caps client-requested deadlines at 4×
// -timeout.
//
// SIGINT/SIGTERM begins a graceful drain: health flips to 503, new queries
// are refused, in-flight streams run to completion (bounded by -drain),
// then remaining work is aborted.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"stwig/internal/server"
)

// nsFlags collects repeated -ns name=spec flags.
type nsFlags []string

func (n *nsFlags) String() string { return fmt.Sprint([]string(*n)) }
func (n *nsFlags) Set(v string) error {
	*n = append(*n, v)
	return nil
}

func main() {
	cfg, showVersion, err := parseFlags(os.Args[1:], nil)
	switch {
	case err != nil:
	case showVersion:
		bv := server.BuildVersion()
		fmt.Printf("stwigd %s %s", bv.Version, bv.GoVersion)
		if bv.Revision != "" {
			fmt.Printf(" (%s", bv.Revision)
			if bv.Dirty {
				fmt.Print("-dirty")
			}
			fmt.Print(")")
		}
		fmt.Println()
	default:
		err = run(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "stwigd:", err)
		os.Exit(1)
	}
}

// parseFlags turns the command line into the daemon's configuration.
// Environment (lookupEnv; nil means the process's) supplies the limit
// defaults and explicit flags override it. A limit whose default is derived
// from another setting (-max-timeout, -update-fairness-window) defaults to
// 0 here so the one derivation rule in server.Config applies.
func parseFlags(args []string, lookupEnv func(string) (string, bool)) (daemonConfig, bool, error) {
	// ShardID seeds as -1 (coordinator) so STWIGD_SHARD_ID=0 — shard zero —
	// stays distinguishable from "unset".
	envCfg, err := server.Config{ShardID: -1}.FromEnv(lookupEnv)
	if err != nil {
		return daemonConfig{}, false, err
	}
	fs := flag.NewFlagSet("stwigd", flag.ExitOnError)
	var (
		addr      = fs.String("addr", ":7029", "listen address")
		graphPath = fs.String("graph", "", "default namespace's graph file (binary from mkgraph, or text with -text)")
		textGraph = fs.Bool("text", false, "graph file is in text format")

		rmatScale  = fs.Int("rmat-scale", 0, "generate an R-MAT graph with 2^scale vertices instead of loading a file")
		rmatDegree = fs.Int("rmat-degree", 8, "R-MAT average degree")
		rmatLabels = fs.Int("rmat-labels", 16, "R-MAT label alphabet size")
		rmatSeed   = fs.Int64("rmat-seed", 1, "R-MAT generation seed")
		relabel    = fs.String("relabel", "", "relabel the graph after load: 'degree' assigns celebrity/regular/bot by degree band")

		machines  = fs.Int("machines", 8, "simulated cluster size")
		planCache = fs.Int("plan-cache", 0, "plan cache capacity (0 = default 128, negative = disabled)")

		maxInFlight = fs.Int("max-inflight", intOr(envCfg.MaxInFlight, 16), "admission limit: concurrent queries per namespace before 429")
		defTimeout  = fs.Duration("timeout", durOr(envCfg.DefaultTimeout, 30*time.Second), "default per-request deadline")
		maxTimeout  = fs.Duration("max-timeout", envCfg.MaxTimeout, "cap on client-requested deadlines (0 = 4× -timeout)")
		maxMatches  = fs.Int("max-matches", envCfg.MaxMatches, "per-request match cap (0 = unlimited)")
		maxBytes    = fs.Int64("max-bytes", envCfg.MaxBytes, "per-response byte cap (0 = unlimited)")
		parallel    = fs.Int("parallelism", envCfg.Parallelism, "per-query intra-machine workers for every namespace (0 = GOMAXPROCS, 1 = sequential; specs override with parallelism=N)")
		updQueue    = fs.Int("update-queue-depth", intOr(envCfg.UpdateQueueDepth, 64), "per-namespace update queue capacity (queue full → 503 with Retry-After)")
		updBatch    = fs.Int("update-batch-max", intOr(envCfg.UpdateBatchMax, 32), "max queued mutations applied per writer window")
		updFairness = fs.Duration("update-fairness-window", envCfg.UpdateFairnessWindow, "reader grace period before a parked update blocks new queries; 0 selects min(100ms, half the lock wait), and it must stay shorter than -update-lock-wait")
		updLockWait = fs.Duration("update-lock-wait", durOr(envCfg.UpdateLockWait, time.Second), "how long a queued update batch waits for the writer window before 503")
		drain       = fs.Duration("drain", 10*time.Second, "graceful-shutdown drain window for in-flight streams")
		nsRoot      = fs.String("ns-root", envCfg.NamespaceRoot, "directory POST /v1/ns may load file:/text: graphs from (empty disables runtime file sources)")
		adminToken  = fs.String("admin-token", envCfg.AdminToken, "bearer token required by POST /v1/ns and DELETE /v1/ns/{name} (empty disables namespace mutation over HTTP)")
		dataDir     = fs.String("data-dir", envCfg.DataDir, "durability root: journal every update batch, checkpoint periodically, and recover namespaces on boot (empty disables persistence)")
		follow      = fs.String("follow", envCfg.FollowURL, "leader base URL (host:port or http://...): run as a read-only replica that bootstraps and tails every namespace the leader persists; writes answer 403 until POST /v1/admin/promote (STWIGD_FOLLOW)")
		shardMap    = fs.String("shard-map", envCfg.ShardMap, "comma-separated shard base URLs enabling cluster mode; position in the list is the shard id (STWIGD_SHARD_MAP)")
		shardID     = fs.Int("shard-id", envCfg.ShardID, "this process's position in -shard-map; omit (or pass a negative value) to run as the coordinator that fans queries out over the map (STWIGD_SHARD_ID)")
		ckptEvery   = fs.Int("checkpoint-every", intOr(envCfg.CheckpointEvery, 256), "journaled update batches between checkpoint/compaction cycles")
		jrnlFsync   = fs.Bool("journal-fsync", !envCfg.JournalNoSync, "fsync the journal before applying each batch (disabling voids crash durability)")
		gcWindow    = fs.Duration("group-commit-window", envCfg.GroupCommitWindow, "how long the dispatcher lingers collecting concurrent updates to share one journal fsync (0 = coalesce only what is already queued; STWIGD_GROUP_COMMIT_WINDOW)")
		gcBatches   = fs.Int("group-commit-batches", intOr(envCfg.GroupCommitBatches, 8), "max journal records sharing one fsync window (STWIGD_GROUP_COMMIT_BATCHES)")
		jrnlAlign   = fs.Int64("journal-align", int64Or(envCfg.JournalAlign, 4096), "pad journal fsyncs to this block alignment in bytes; 1 disables (STWIGD_JOURNAL_ALIGN)")
		slowQuery   = fs.Duration("slow-query", envCfg.SlowQuery, "log a Warn-level span breakdown for queries whose execution exceeds this duration (0 disables; STWIGD_SLOW_QUERY)")
		logLevel    = fs.String("log-level", "info", "minimum request-log level: debug, info, warn, or error")
		logJSON     = fs.Bool("log-json", false, "emit request logs as JSON lines instead of logfmt-style text")
		showVersion = fs.Bool("version", false, "print build identity and exit")
	)
	var namespaces nsFlags
	fs.Var(&namespaces, "ns", "additional namespace as name=spec, e.g. 'tenantA=rmat:scale=12,labels=8,inflight=4' or 'b=file:/data/g.bin' (repeatable)")
	_ = fs.Parse(args) // ExitOnError: a bad flag has already exited
	logger, err := buildLogger(*logLevel, *logJSON)
	if err != nil {
		return daemonConfig{}, false, err
	}
	explicit := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	return daemonConfig{
		explicit: explicit,
		addr:     *addr, graphPath: *graphPath, textGraph: *textGraph,
		rmatScale: *rmatScale, rmatDegree: *rmatDegree, rmatLabels: *rmatLabels, rmatSeed: *rmatSeed,
		relabel: *relabel, machines: *machines, planCache: *planCache,
		namespaces: namespaces,
		srv: server.Config{
			MaxInFlight:          *maxInFlight,
			DefaultTimeout:       *defTimeout,
			MaxTimeout:           *maxTimeout,
			MaxMatches:           *maxMatches,
			MaxBytes:             *maxBytes,
			Parallelism:          *parallel,
			MaxRequestBytes:      envCfg.MaxRequestBytes,
			RetryAfter:           envCfg.RetryAfter,
			UpdateLockWait:       *updLockWait,
			UpdateQueueDepth:     *updQueue,
			UpdateBatchMax:       *updBatch,
			UpdateFairnessWindow: *updFairness,
			NamespaceRoot:        *nsRoot,
			AdminToken:           *adminToken,
			DataDir:              *dataDir,
			FollowURL:            *follow,
			ShardMap:             *shardMap,
			ShardID:              *shardID,
			CheckpointEvery:      *ckptEvery,
			JournalNoSync:        !*jrnlFsync,
			GroupCommitWindow:    *gcWindow,
			GroupCommitBatches:   *gcBatches,
			JournalAlign:         *jrnlAlign,
			SlowQuery:            *slowQuery,
			Logger:               logger,
		},
		drain: *drain,
	}, *showVersion, nil
}

// buildLogger assembles the daemon's structured logger: logfmt-style text
// (or JSON) on stderr, filtered at the requested level. Request summary
// lines, slow-query breakdowns, and client-correlatable trace IDs all flow
// through it; stdout stays reserved for the human boot banner.
func buildLogger(level string, asJSON bool) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "info", "":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn, or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	if asJSON {
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	}
	return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
}

// intOr / durOr pick the env-supplied value when set, else the flag's
// built-in default.
func intOr(v, def int) int {
	if v != 0 {
		return v
	}
	return def
}

func durOr(v, def time.Duration) time.Duration {
	if v != 0 {
		return v
	}
	return def
}

func int64Or(v, def int64) int64 {
	if v != 0 {
		return v
	}
	return def
}

type daemonConfig struct {
	// explicit records which flags were set on the command line, so flags
	// that only shape the default namespace can be rejected (not silently
	// dropped) in a pure -ns deployment.
	explicit   map[string]bool
	addr       string
	graphPath  string
	textGraph  bool
	rmatScale  int
	rmatDegree int
	rmatLabels int
	rmatSeed   int64
	relabel    string
	machines   int
	planCache  int
	namespaces []string
	srv        server.Config
	drain      time.Duration
}

func run(cfg daemonConfig) error {
	svc, err := server.NewMulti(cfg.srv)
	if err != nil {
		return err
	}
	// With -data-dir, NewMulti has already recovered every persisted
	// namespace (checkpoint + journal replay) before we get here.
	recovered := svc.Namespaces()
	for _, name := range recovered {
		ns, _ := svc.NamespaceInfo(name)
		fmt.Printf("namespace %q recovered from %s: %d nodes on %d machines\n",
			name, cfg.srv.DataDir, ns.Graph.Nodes, ns.Graph.Machines)
	}

	// Default namespace from -graph / -rmat-scale; optional when -ns
	// tenants are given (pure multi-tenant deployments need no default) or
	// when recovery already produced tenants. All tenants — default
	// included — go through the same NamespaceSpec.Build path, so loading
	// behavior cannot drift between the legacy flags and the spec grammar.
	// A follower takes no boot specs at all: its namespaces come from the
	// leader's replication manifest. A coordinator hosts no graphs either —
	// it fronts the shard map.
	var specs []server.NamespaceSpec
	if cfg.srv.ShardMap != "" && cfg.srv.ShardID < 0 {
		if cfg.graphPath != "" || cfg.rmatScale > 0 || len(cfg.namespaces) > 0 || cfg.srv.DataDir != "" {
			svc.Close()
			return fmt.Errorf("the coordinator holds no graphs; drop -graph, -rmat-scale, -ns, and -data-dir")
		}
		fmt.Printf("stwigd: cluster coordinator over %d shard(s): %s\n",
			len(strings.Split(cfg.srv.ShardMap, ",")), cfg.srv.ShardMap)
	} else if cfg.srv.FollowURL != "" {
		if cfg.graphPath != "" || cfg.rmatScale > 0 || len(cfg.namespaces) > 0 {
			svc.Close()
			return fmt.Errorf("-follow replicates the leader's namespaces; drop -graph, -rmat-scale, and -ns")
		}
		fmt.Printf("stwigd: read-only follower of %s (promote with POST /v1/admin/promote)\n", cfg.srv.FollowURL)
	} else if specs, err = bootSpecs(cfg, len(recovered)); err != nil {
		return err
	}
	already := make(map[string]bool, len(recovered))
	for _, name := range recovered {
		already[name] = true
	}
	for _, spec := range specs {
		nsStart := time.Now()
		if err := svc.AddNamespaceSpec(spec); err != nil {
			return err
		}
		if already[spec.Name] {
			continue // recovered above; the flag just re-stated it
		}
		ns, _ := svc.NamespaceInfo(spec.Name)
		fmt.Printf("namespace %q (%s): %d nodes on %d machines, ready in %v\n",
			spec.Name, spec.Source, ns.Graph.Nodes, ns.Graph.Machines, time.Since(nsStart).Round(time.Millisecond))
	}

	if cfg.srv.ShardMap != "" && cfg.srv.ShardID >= 0 {
		fmt.Printf("stwigd: cluster shard %d of %d (emitting matches rooted in its vertex range)\n",
			cfg.srv.ShardID, len(strings.Split(cfg.srv.ShardMap, ",")))
	}

	httpSrv := &http.Server{Addr: cfg.addr, Handler: svc}
	errCh := make(chan error, 1)
	go func() {
		bv := server.BuildVersion()
		fmt.Printf("stwigd %s (%s) listening on %s, namespaces %v\n",
			bv.Version, bv.GoVersion, cfg.addr, svc.Namespaces())
		errCh <- httpSrv.ListenAndServe()
	}()

	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		return err
	case <-sigCtx.Done():
	}

	// Graceful drain: stop admitting, let in-flight streams finish within
	// the window, then abort whatever is left.
	fmt.Println("stwigd: draining...")
	svc.BeginDrain()
	shutCtx, cancel := context.WithTimeout(context.Background(), cfg.drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		if !errors.Is(err, context.DeadlineExceeded) {
			svc.Abort()
			httpSrv.Close()
			return err
		}
		fmt.Println("stwigd: drain window expired, aborting in-flight queries")
		svc.Abort()
		if cerr := httpSrv.Close(); cerr != nil {
			svc.Close()
			return cerr
		}
	}
	// Stop every namespace's update dispatcher; anything still queued is
	// refused, which the listener shutdown above has already made moot.
	svc.Close()
	fmt.Println("stwigd: stopped")
	return nil
}

// bootSpecs maps the boot flag surface onto NamespaceSpecs: the legacy
// -graph/-rmat-scale/-relabel/-machines/-plan-cache flags become the
// default namespace's spec, followed by each -ns flag's spec verbatim.
// recovered is how many namespaces persistence already restored; a boot
// with neither flags nor recovered tenants has nothing to serve.
func bootSpecs(cfg daemonConfig, recovered int) ([]server.NamespaceSpec, error) {
	var specs []server.NamespaceSpec
	switch {
	case cfg.graphPath != "" && cfg.rmatScale > 0:
		return nil, fmt.Errorf("set only one of -graph and -rmat-scale")
	case cfg.graphPath != "" || cfg.rmatScale > 0:
		if cfg.relabel != "" && cfg.relabel != "degree" {
			return nil, fmt.Errorf("unknown -relabel mode %q (want 'degree')", cfg.relabel)
		}
		spec := server.NamespaceSpec{
			Name:      server.DefaultNamespace,
			Relabel:   cfg.relabel,
			Machines:  cfg.machines,
			PlanCache: cfg.planCache,
		}
		if cfg.graphPath != "" {
			spec.Source = "file"
			if cfg.textGraph {
				spec.Source = "text"
			}
			spec.Path = cfg.graphPath
		} else {
			spec.Source = "rmat"
			spec.Scale = cfg.rmatScale
			spec.Degree = cfg.rmatDegree
			spec.Labels = cfg.rmatLabels
			spec.Seed = cfg.rmatSeed
		}
		specs = append(specs, spec)
	case len(cfg.namespaces) == 0 && recovered == 0:
		return nil, fmt.Errorf("set -graph FILE, -rmat-scale N, or at least one -ns name=spec (see -help)")
	default:
		// Pure -ns deployment: flags that shape the default namespace must
		// not be silently dropped.
		for _, name := range []string{"text", "rmat-degree", "rmat-labels", "rmat-seed", "relabel", "machines", "plan-cache"} {
			if cfg.explicit[name] {
				return nil, fmt.Errorf("-%s shapes the default namespace and needs -graph or -rmat-scale; use the equivalent option inside the -ns spec instead", name)
			}
		}
	}
	for _, f := range cfg.namespaces {
		spec, err := server.ParseNamespaceFlag(f)
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	return specs, nil
}
