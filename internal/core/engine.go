package core

import (
	"context"
	"slices"
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
	// TraceID, when non-empty, traces every run of this engine: a run
	// whose context carries no trace ID of its own stamps this one into
	// ExecStats.TraceID, and every run records its phase tree in
	// ExecStats.Spans. It serves per-invocation embedders like the CLI; a
	// caller that wants one run's spans asks with WithSpans instead. Empty
	// (the default) leaves runs free of any span recording.
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
}

// normalizeOptions fills defaulted fields; NewEngine, NewPlanner, and
// NewExecutor all apply it so the layers agree regardless of how they were
// constructed.
func normalizeOptions(opts Options) Options {
	if opts.BlockSize <= 0 {
		opts.BlockSize = 256
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
	// emitFlushes accumulates each run's ExecStats.EmitFlushes: the blocks
	// the machines flushed to emit.
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

// MatchContext is Match with cancellation: once ctx is done the query
// aborts within 1024 roots of an exploration step or one join expansion,
// returning ctx's error.
func (e *Engine) MatchContext(ctx context.Context, q *Query) (*Result, error) {
	// Each machine collects its own matches; the answer is their union.
	perMachine := make([][]Match, e.cluster.NumMachines())
	_, stats, err := e.matchStream(ctx, q, func(machine int, ms []Match) (int, bool) {
		perMachine[machine] = appendCopies(perMachine[machine], ms)
		return len(ms), true
	})
	if err != nil {
		return nil, err
	}
	return &Result{Matches: slices.Concat(perMachine...), Stats: *stats}, nil
}

// MatchStream answers q incrementally: emit is called once per match, from
// multiple goroutines but never concurrently; returning false stops the
// query (Stats.Truncated is set) and emit is not called again. The
// pipelined join makes the first matches arrive before the full result set
// is computed — the property the paper's block-based join exists for. A
// match handed to emit is the caller's to keep: it is a copy (one array per
// flushed block) of what the join buffered.
func (e *Engine) MatchStream(ctx context.Context, q *Query, emit func(Match) bool) (*ExecStats, error) {
	var copies []Match
	return e.MatchStreamBlocks(ctx, q, func(ms []Match) (int, bool) {
		copies = appendCopies(copies[:0], ms)
		for i, m := range copies {
			if !emit(m) {
				return i, false
			}
		}
		return len(ms), true
	})
}

// MatchStreamBlocks is MatchStream at block granularity: emitBlock receives
// each flushed block of matches (never concurrently; never empty; at most
// min(BlockSize, 1024) of them) and reports how many of them it consumed
// plus whether to continue; returning false stops the query with
// Stats.Truncated set, and emitBlock is not called again. The consumed
// count lets a partially-delivered final block (a downstream cap cutting
// mid-block) be accounted exactly. Batch consumers — bulk loaders, oracles
// that count and hash — pay their per-delivery overhead once per block.
//
// The block is lent, not given: the slice and every Assignment in it are
// the join's own buffers, overwritten by the next matches as soon as
// emitBlock returns. Encode, count or hash in place; copy (the ids, not the
// Match values) whatever must outlive the callback.
func (e *Engine) MatchStreamBlocks(ctx context.Context, q *Query, emitBlock func([]Match) (int, bool)) (*ExecStats, error) {
	var mu sync.Mutex // the machines emit concurrently
	stopped := false
	_, stats, err := e.matchStream(ctx, q, func(_ int, ms []Match) (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if stopped {
			return 0, false
		}
		n, ok := emitBlock(ms)
		stopped = !ok
		return n, ok
	})
	return stats, err
}

// MatchStreamMachines is MatchStreamBlocks without the lock: each machine
// hands its blocks, in the order it found them, to emit with its id — one
// call at a time per machine, concurrently across machines. Their answers
// are disjoint (§4.2 step 3), so the blocks need no lock between them.
// Returning false stops every machine, but one already inside emit
// finishes that call. Blocks are lent.
func (e *Engine) MatchStreamMachines(ctx context.Context, q *Query, emit func(machine int, ms []Match) (int, bool)) (*ExecStats, error) {
	_, stats, err := e.matchStream(ctx, q, emit)
	return stats, err
}

// appendCopies appends copies of the (non-empty) block ms to dst, all of
// their assignments in one new array: the block dies when its callback
// returns, but a per-match caller may keep what it is handed.
func appendCopies(dst, ms []Match) []Match {
	kept := make([]graph.NodeID, 0, len(ms)*len(ms[0].Assignment))
	for _, m := range ms {
		at := len(kept)
		kept = append(kept, m.Assignment...)
		dst = append(dst, Match{Assignment: kept[at:len(kept):len(kept)]})
	}
	return dst
}

// matchStream plans q and runs the plan, counting what emit accepts into
// MatchesEmitted; it returns the plan with the run's statistics.
func (e *Engine) matchStream(ctx context.Context, q *Query, emit func(int, []Match) (int, bool)) (*Plan, *ExecStats, error) {
	plan, err := e.planner.Plan(q)
	if err != nil {
		return nil, nil, err
	}

	e.queries.Add(1)
	stats, err := e.executor.Run(ctx, plan, func(machine int, ms []Match) (int, bool) {
		n, ok := emit(machine, ms)
		n = min(max(n, 0), len(ms))
		e.matches.Add(uint64(n))
		return n, ok
	})
	if err != nil {
		return nil, nil, err
	}
	e.emitFlushes.Add(stats.EmitFlushes)
	e.netMessages.Add(stats.Net.Messages)
	e.netBytes.Add(stats.Net.Bytes)
	if stats.TraceID = TraceIDFromContext(ctx); stats.TraceID == "" {
		stats.TraceID = e.opts.TraceID
	}
	return plan, stats, nil
}
