package core

import (
	"context"
	"sync"
	"sync/atomic"

	"stwig/internal/graph"
	"stwig/internal/memcloud"
)

// Options tunes query planning and execution. The zero value is the paper's
// default configuration with unlimited enumeration; experiments set
// MatchBudget to 1024 to follow §6.1's protocol ("the program terminates
// after 1024 matches have been found").
type Options struct {
	// MatchBudget bounds the total number of matches enumerated across the
	// cluster; 0 means unlimited.
	MatchBudget int
	// BlockSize is the pipelined-join block length (default 256): how many
	// driver matches a joiner expands between flushes and, capped at 1024,
	// how many matches it buffers before it flushes early — so also the
	// most matches one MatchStreamBlocks callback receives.
	BlockSize int
	// Seed seeds RandomDecomposition's random cover; nothing else draws
	// from it.
	Seed int64
	// TraceID, when non-empty, traces every run of this engine that does
	// not already carry a trace ID in its context: ExecStats.TraceID is
	// stamped and ExecStats.Spans records the phase tree. Per-request
	// tracing (the daemon) uses WithTraceID on the context instead; this
	// field serves per-invocation embedders like the CLI. Empty (the
	// default) leaves untraced runs free of any recording overhead.
	TraceID string

	// Ablation switches (all false in the paper's configuration):

	// NoBindings disables exploration-time binding propagation, degrading
	// the algorithm to "match every STwig independently, then join" (§3's
	// join-only strategy).
	NoBindings bool
	// NoLoadSets replaces Theorem 4's load sets with all-to-all exchange.
	NoLoadSets bool
	// RandomDecomposition uses the unrevised random 2-approximation instead
	// of Algorithm 2.
	RandomDecomposition bool
	// NoJoinOrderOpt joins each machine's relations in root-id order
	// instead of reordering them smallest first.
	NoJoinOrderOpt bool

	// SimulateParallel runs the per-machine phases sequentially, timing
	// each machine, and reports ExecStats.ModeledParallelTime — the wall
	// time a real k-machine cluster would take: per phase, the maximum of
	// the machines' busy times, plus NetModel's transfer time for the
	// query's traffic. This is the honest way to measure the speed-up
	// experiments (Figure 9) on hosts without k real cores: goroutine
	// wall-clock on a time-sliced CPU cannot exhibit parallel speed-up,
	// only coordination overhead.
	SimulateParallel bool
	// NetModel converts traffic counters into modeled transfer time when
	// SimulateParallel is set; the zero value selects
	// memcloud.DefaultNetworkModel.
	NetModel memcloud.NetworkModel
}

// normalizeOptions fills defaulted fields; NewEngine, NewPlanner, and
// NewExecutor all apply it so the layers agree regardless of how they were
// constructed.
func normalizeOptions(opts Options) Options {
	if opts.BlockSize <= 0 {
		opts.BlockSize = 256
	}
	if opts.SimulateParallel && opts.NetModel == (memcloud.NetworkModel{}) {
		opts.NetModel = memcloud.DefaultNetworkModel()
	}
	return opts
}

// Engine answers subgraph matching queries over a loaded memory cloud. It
// is a thin facade over the three-layer pipeline:
//
//	Query ──Planner──▶ Plan ──Executor──▶ matches
//
// The Planner turns a query into an immutable Plan (decomposition, STwig
// order, load sets — everything derivable from the query plus cluster
// label statistics); the Executor runs it with per-run scratch state. Every
// query is planned afresh from the statistics of its moment: planning is
// cheap, and an update that moves them leaves nothing to invalidate. An
// Engine keeps nothing between queries but its workload counters and is
// safe for concurrent use.
type Engine struct {
	cluster  *memcloud.Cluster
	opts     Options
	planner  *Planner
	executor *Executor

	// Per-engine workload counters. Each tenant of a multi-engine process
	// (e.g. stwigd's namespaces) owns one Engine, so these are the natural
	// per-tenant accounting point: queries that reached execution and
	// matches emitted, cumulative since construction.
	queries atomic.Uint64
	matches atomic.Uint64
	// emitFlushes accumulates each run's ExecStats.EmitFlushes: batched
	// flushes through the serialized emit path.
	emitFlushes atomic.Uint64
	// netMessages and netBytes accumulate each run's ExecStats.Net.
	netMessages atomic.Uint64
	netBytes    atomic.Uint64
}

// NewEngine creates an engine over a loaded cluster.
func NewEngine(c *memcloud.Cluster, opts Options) *Engine {
	opts = normalizeOptions(opts)
	return &Engine{
		cluster:  c,
		opts:     opts,
		planner:  NewPlanner(c, opts),
		executor: NewExecutor(c, opts),
	}
}

// Cluster returns the engine's cluster.
func (e *Engine) Cluster() *memcloud.Cluster { return e.cluster }

// EngineSnapshot is a point-in-time view of an engine and its cluster for
// observability surfaces (the daemon's GET /stats, dashboards, tests). The
// workload counters (Net, Queries, MatchesEmitted, EmitFlushes) are this
// engine's own, cumulative since its construction; Updates is the
// cluster's.
type EngineSnapshot struct {
	// Epoch is the cluster's current mutation epoch.
	Epoch uint64
	// Machines and Nodes describe the cluster's current shape.
	Machines int
	Nodes    int64
	// Net sums ExecStats.Net over the engine's runs that completed; a run
	// that returns an error books nothing, as with EmitFlushes.
	Net memcloud.NetStats
	// Updates counts dynamic mutations applied to the cluster.
	Updates memcloud.UpdateStats
	// MemoryBytes estimates resident bytes across machines.
	MemoryBytes int64
	// Queries counts MatchStream runs that reached execution (successful
	// or not); MatchesEmitted counts matches delivered to callers.
	Queries        uint64
	MatchesEmitted uint64
	// EmitFlushes counts batched emit flushes, cumulative.
	EmitFlushes uint64
}

// Snapshot captures the engine's observable state. It is safe to call
// concurrently with queries and updates; the fields are individually
// consistent snapshots, not one atomic cut.
func (e *Engine) Snapshot() EngineSnapshot {
	return EngineSnapshot{
		Epoch:          e.cluster.Epoch(),
		Machines:       e.cluster.NumMachines(),
		Nodes:          e.cluster.NumNodes(),
		Net:            memcloud.NetStats{Messages: e.netMessages.Load(), Bytes: e.netBytes.Load()},
		Updates:        e.cluster.UpdateStats(),
		MemoryBytes:    e.cluster.TotalMemoryBytes(),
		Queries:        e.queries.Load(),
		MatchesEmitted: e.matches.Load(),
		EmitFlushes:    e.emitFlushes.Load(),
	}
}

// Match answers q per Definition 2, returning all (or MatchBudget)
// embeddings plus execution statistics. The three phases follow §4.2/§4.3:
// decompose and order on the proxy, explore in parallel, exchange and join
// in parallel, union without deduplication.
func (e *Engine) Match(q *Query) (*Result, error) {
	return e.MatchContext(context.Background(), q)
}

// MatchContext is Match with cancellation: the query aborts between
// exploration steps and between join expansions once ctx is done,
// returning ctx's error.
func (e *Engine) MatchContext(ctx context.Context, q *Query) (*Result, error) {
	res := &Result{}
	var mu sync.Mutex
	stats, err := e.MatchStream(ctx, q, func(m Match) bool {
		mu.Lock()
		res.Matches = append(res.Matches, m)
		mu.Unlock()
		return true
	})
	if err != nil {
		return nil, err
	}
	res.Stats = *stats
	return res, nil
}

// MatchStream answers q incrementally: emit is called once per match, from
// multiple goroutines but never concurrently; returning false stops the
// query (Stats.Truncated is set). The pipelined join makes the first
// matches arrive before the full result set is computed — the property the
// paper's block-based join exists for. A match handed to emit is the
// caller's to keep: it is a copy (one array per flushed block) of what the
// join buffered.
//
// MatchStream delegates to the Planner for the proxy phase and to the
// Executor for everything that touches the cluster; the returned stats
// report how long planning took (PlanTime).
func (e *Engine) MatchStream(ctx context.Context, q *Query, emit func(Match) bool) (*ExecStats, error) {
	_, stats, err := e.matchStream(ctx, q, emit, nil)
	return stats, err
}

// MatchStreamBlocks is MatchStream at block granularity: emitBlock receives
// each flushed block of matches (never concurrently; never empty; at most
// min(BlockSize, 1024) of them) and reports how many of them it consumed
// plus whether to continue; returning false stops the query with
// Stats.Truncated set. The consumed count lets a partially-delivered final
// block (a downstream cap cutting mid-block) be accounted exactly.
// Batch-oriented consumers — the daemon's NDJSON writer, bulk loaders — use
// it to pay their per-delivery overhead (flushes, syscalls) once per block
// instead of once per match.
//
// The block is lent, not given: the slice and every Assignment in it are
// the join's own buffers, overwritten by the next matches as soon as
// emitBlock returns. Encode, count or hash in place; copy (the ids, not the
// Match values) whatever must outlive the callback.
func (e *Engine) MatchStreamBlocks(ctx context.Context, q *Query, emitBlock func([]Match) (int, bool)) (*ExecStats, error) {
	_, stats, err := e.matchStream(ctx, q, nil, emitBlock)
	return stats, err
}

// matchStream plans q and runs the plan through whichever emit variant is
// non-nil, returning the plan with the run's statistics.
func (e *Engine) matchStream(ctx context.Context, q *Query, emit func(Match) bool, emitBlock func([]Match) (int, bool)) (*Plan, *ExecStats, error) {
	traceID := TraceIDFromContext(ctx)
	if traceID == "" && e.opts.TraceID != "" {
		// Options.TraceID traces engine-wide; publish it on the context so
		// the Executor sees one mechanism.
		traceID = e.opts.TraceID
		ctx = WithTraceID(ctx, traceID)
	}
	plan, err := e.planner.Plan(q)
	if err != nil {
		return nil, nil, err
	}

	e.queries.Add(1)
	// The callbacks are never invoked concurrently (the Executor serializes
	// emission), so plain counters are safe; the atomic adds below publish
	// them.
	var emitted uint64
	var counted func([]Match) (int, bool)
	if emitBlock != nil {
		counted = func(ms []Match) (int, bool) {
			n, ok := emitBlock(ms)
			if n < 0 {
				n = 0
			} else if n > len(ms) {
				n = len(ms)
			}
			emitted += uint64(n)
			return n, ok
		}
	} else {
		// The block dies when this callback returns, but a per-match caller
		// may keep what it is handed: give it copies, all of one block's in
		// one array.
		counted = func(ms []Match) (int, bool) {
			words := 0
			for _, m := range ms {
				words += len(m.Assignment)
			}
			kept := make([]graph.NodeID, 0, words)
			for i, m := range ms {
				at := len(kept)
				kept = append(kept, m.Assignment...)
				emitted++
				if !emit(Match{Assignment: kept[at:len(kept):len(kept)]}) {
					return i, false
				}
			}
			return len(ms), true
		}
	}
	stats, err := e.executor.Run(ctx, plan, counted)
	e.matches.Add(emitted)
	if err != nil {
		return nil, nil, err
	}
	e.emitFlushes.Add(stats.EmitFlushes)
	e.netMessages.Add(stats.Net.Messages)
	e.netBytes.Add(stats.Net.Bytes)
	stats.PlanTime = plan.BuildTime
	if traceID != "" {
		stats.TraceID = traceID
		// The plan span belongs to the Engine (the Executor never sees
		// planning); prepend it so top-level spans cover the whole run.
		stats.Spans = append([]Span{{Name: "plan", Duration: plan.BuildTime}}, stats.Spans...)
	}
	return plan, stats, nil
}
