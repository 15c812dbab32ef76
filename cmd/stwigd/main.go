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
// The HTTP surface, all under /v1, is internal/server's: its package doc has
// the route table and the wire format. POST /v1/ns, DELETE /v1/ns/{name}, and
// /debug/pprof require the -admin-token bearer token and are disabled when
// none is set — the admin surface shares the listener with untrusted tenant
// traffic. Every request is logged as one structured line on stderr carrying
// a trace ID (X-Stwig-Trace, honored from the client or minted).
//
// Every server setting is a flag and a STWIGD_* environment variable (the
// flag name upper-snake-cased; explicit flags win), both derived from the
// tags on server.Config; `stwigd -help` and README "Settings reference" list
// them. A setting whose default derives from another (-max-timeout)
// defaults to 0, and passing 0 re-derives it.
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
	"slices"
	"strings"
	"syscall"
	"time"

	"stwig/internal/server"
)

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

// parseFlags turns the command line into the daemon's configuration. The
// server settings and the default-namespace shaping flags are bound from
// internal/server's settings tables: environment (lookupEnv; nil means the
// process's) supplies the setting defaults, explicit flags override it.
func parseFlags(args []string, lookupEnv func(string) (string, bool)) (daemonConfig, bool, error) {
	fs := flag.NewFlagSet("stwigd", flag.ExitOnError)
	var cfg daemonConfig
	fs.StringVar(&cfg.addr, "addr", ":7029", "listen address")
	fs.StringVar(&cfg.graphPath, "graph", "", "default namespace's graph file (binary from mkgraph, or text with -text)")
	fs.BoolVar(&cfg.textGraph, "text", false, "graph file is in text format")
	fs.Func("ns", "additional namespace as name=spec, e.g. 'tenantA=rmat:scale=12,labels=8,inflight=4' or 'b=file:/data/g.bin' (repeatable)", func(v string) error {
		cfg.namespaces = append(cfg.namespaces, v)
		return nil
	})
	fs.DurationVar(&cfg.drain, "drain", 10*time.Second, "graceful-shutdown drain window for in-flight streams")
	logLevel := fs.String("log-level", "info", "minimum request-log level: debug, info, warn, or error")
	logJSON := fs.Bool("log-json", false, "emit request logs as JSON lines instead of logfmt-style text")
	showVersion := fs.Bool("version", false, "print build identity and exit")
	shaping := append(cfg.def.BindFlags(fs), "text")
	if err := cfg.srv.BindFlags(fs, lookupEnv); err != nil {
		return daemonConfig{}, false, err
	}
	_ = fs.Parse(args) // ExitOnError: a bad flag has already exited
	fs.Visit(func(f *flag.Flag) {
		if slices.Contains(shaping, f.Name) {
			cfg.strayShaping = f.Name
		}
	})
	var err error
	cfg.srv.Logger, err = buildLogger(*logLevel, *logJSON)
	return cfg, *showVersion, err
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

type daemonConfig struct {
	// strayShaping names a flag set on the command line that only shapes the
	// default namespace, so it can be rejected (not silently dropped) in a
	// pure -ns deployment.
	strayShaping string
	addr         string
	graphPath    string
	textGraph    bool
	def          server.NamespaceSpec // the default namespace, less its source
	namespaces   []string
	srv          server.Config
	drain        time.Duration
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
		if cfg.graphPath != "" || cfg.def.Scale > 0 || len(cfg.namespaces) > 0 || cfg.srv.DataDir != "" {
			svc.Close()
			return fmt.Errorf("a coordinator holds no graphs: it takes no -graph, -rmat-scale or -ns, and no data directory")
		}
		fmt.Printf("stwigd: cluster coordinator over %d shard(s): %s\n",
			len(strings.Split(cfg.srv.ShardMap, ",")), cfg.srv.ShardMap)
	} else if cfg.srv.FollowURL != "" {
		if cfg.graphPath != "" || cfg.def.Scale > 0 || len(cfg.namespaces) > 0 {
			svc.Close()
			return fmt.Errorf("a follower replicates the leader's namespaces; drop -graph, -rmat-scale, and -ns")
		}
		fmt.Printf("stwigd: read-only follower of %s (promote with POST /v1/admin/promote)\n", cfg.srv.FollowURL)
	} else if specs, err = bootSpecs(cfg, len(recovered)); err != nil {
		return err
	}
	for _, spec := range specs {
		nsStart := time.Now()
		if err := svc.AddNamespaceSpec(spec); err != nil {
			return err
		}
		if slices.Contains(recovered, spec.Name) {
			continue // recovered above; the flag just re-stated it
		}
		ns, _ := svc.NamespaceInfo(spec.Name)
		fmt.Printf("namespace %q (%s): %d nodes on %d machines, ready in %v\n",
			spec.Name, spec.Source, ns.Graph.Nodes, ns.Graph.Machines, time.Since(nsStart).Round(time.Millisecond))
	}

	if cfg.srv.ShardMap != "" && cfg.srv.ShardID >= 0 {
		fmt.Printf("stwigd: cluster shard %d of %d (matching what binds the pattern's centre vertex in its vertex range)\n",
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
// -graph/-rmat-scale/-relabel/-machines flags become the
// default namespace's spec, followed by each -ns flag's spec verbatim.
// recovered is how many namespaces persistence already restored; a boot
// with neither flags nor recovered tenants has nothing to serve.
func bootSpecs(cfg daemonConfig, recovered int) ([]server.NamespaceSpec, error) {
	var specs []server.NamespaceSpec
	switch {
	case cfg.graphPath != "" && cfg.def.Scale > 0:
		return nil, fmt.Errorf("set only one of -graph and -rmat-scale")
	case cfg.graphPath != "" || cfg.def.Scale > 0:
		if cfg.def.Relabel != "" && cfg.def.Relabel != "degree" {
			return nil, fmt.Errorf("unknown -relabel mode %q (want 'degree')", cfg.def.Relabel)
		}
		spec := cfg.def
		spec.Name, spec.Source = server.DefaultNamespace, "rmat"
		if cfg.graphPath != "" {
			// A file source has no generator parameters.
			spec.Scale, spec.Degree, spec.Labels, spec.Seed = 0, 0, 0, 0
			spec.Path, spec.Source = cfg.graphPath, "file"
			if cfg.textGraph {
				spec.Source = "text"
			}
		}
		specs = append(specs, spec)
	case len(cfg.namespaces) == 0 && recovered == 0:
		return nil, fmt.Errorf("set -graph FILE, -rmat-scale N, or at least one -ns name=spec (see -help)")
	case cfg.strayShaping != "":
		// Pure -ns deployment: a flag that shapes the default namespace must
		// not be silently dropped.
		return nil, fmt.Errorf("-%s shapes the default namespace and needs -graph or a positive -rmat-scale; use the equivalent option inside the -ns spec instead", cfg.strayShaping)
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
