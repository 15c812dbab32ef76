package core

import (
	"context"
	"fmt"
	"math/bits"
	"strings"
	"sync/atomic"
	"time"
)

// EXPLAIN support: rendering a Plan (the Planner's immutable artifact,
// declared in planner.go) for humans. Engine.Explain runs the same planner
// Match does, so the printed plan is the one an execution of the query at
// the same cluster epoch runs — not a parallel reconstruction that could
// drift.

// Explain computes the execution plan for q without running the query. The
// plan is the caller's own; its Query is q, so the rendering of a sliced
// query's plan names the slice.
func (e *Engine) Explain(q *Query) (*Plan, error) { return e.planner.Plan(q) }

// AnalyzeResult is EXPLAIN ANALYZE's payload: the plan a run of the query
// uses, plus the statistics and span tree of an actual traced execution.
type AnalyzeResult struct {
	Plan    *Plan
	Stats   ExecStats
	Matches int
	// Wall is the measured wall clock of the whole run (plan resolution
	// included); the top-level span durations sum to within it.
	Wall time.Duration
}

// ExplainAnalyze is EXPLAIN ANALYZE: it runs q for real — discarding the
// matches — under a trace, and returns the plan that run executed alongside
// the recorded span tree. The trace ID is taken from ctx, then
// Options.TraceID, then minted. The run pays full execution cost and counts
// in the engine's workload counters like any query.
func (e *Engine) ExplainAnalyze(ctx context.Context, q *Query) (*AnalyzeResult, error) {
	if TraceIDFromContext(ctx) == "" && e.opts.TraceID == "" {
		ctx = WithTraceID(ctx, NewTraceID())
	}
	ctx = WithSpans(ctx)
	start := time.Now()
	var matches atomic.Int64 // the machines emit concurrently
	plan, stats, err := e.matchStream(ctx, q, func(_ int, ms []Match) (int, bool) {
		matches.Add(int64(len(ms)))
		return len(ms), true
	})
	if err != nil {
		return nil, err
	}
	return &AnalyzeResult{Plan: plan, Stats: *stats, Matches: int(matches.Load()), Wall: time.Since(start)}, nil
}

// String renders the plan followed by the executed span tree.
func (ar *AnalyzeResult) String() string {
	var b strings.Builder
	b.WriteString(ar.Plan.String())
	fmt.Fprintf(&b, "\nEXPLAIN ANALYZE trace=%s: %d matches in %v (net %s)\n",
		ar.Stats.TraceID, ar.Matches, ar.Wall.Round(time.Microsecond), ar.Stats.Net)
	b.WriteString(FormatSpans(ar.Stats.Spans))
	return b.String()
}

// String renders the plan in a compact, human-readable layout.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query: %d vertices, %d edges\n", p.Query.NumVertices(), p.Query.NumEdges())
	if !p.Resolvable {
		b.WriteString("plan: EMPTY (some query label is absent from the data graph)\n")
		return b.String()
	}
	fmt.Fprintf(&b, "plan: built in %v at cluster epoch %d, broadcast %d words/machine\n",
		p.BuildTime, p.Epoch, p.planWords)
	fmt.Fprintf(&b, "decomposition (%d STwigs, head=*):\n", len(p.Decomposition.Twigs))
	for t, twig := range p.Decomposition.Twigs {
		head := " "
		if t == p.Decomposition.Head {
			head = "*"
		}
		fmt.Fprintf(&b, "  %s step %d: root %d (%s, f=%.4g) leaves %v — %d root candidates\n",
			head, t+1, twig.Root, p.Query.Label(twig.Root), p.FValues[twig.Root],
			twig.Leaves, p.RootCandidates[t])
	}
	if p.Query.slice != wholeIDSpace {
		fmt.Fprintf(&b, "slice: v%d (%s) in %s\n", p.Center, p.Query.Label(p.Center), p.Query.slice)
	}
	fmt.Fprintf(&b, "cluster graph diameter: %d\n", p.ClusterDiameter)
	// Summarize load sets: total fetches vs the all-to-all worst case.
	k := p.LoadSets.Machines()
	fetches, worst := 0, 0
	for machine := 0; machine < k; machine++ {
		for t := range p.Decomposition.Twigs {
			if t == p.Decomposition.Head {
				continue
			}
			fetches += bits.OnesCount64(p.LoadSets.Mask(machine, t))
			worst += k - 1
		}
	}
	fmt.Fprintf(&b, "exchange: %d fetches across %d machines (all-to-all would be %d)\n",
		fetches, k, worst)
	return b.String()
}

// EstimatedSTwigWork returns a rough per-STwig work estimate: root
// candidates times the average degree would require graph statistics the
// paper assumes unavailable, so this reports the available proxy — the
// root-candidate counts in processing order.
func (p *Plan) EstimatedSTwigWork() []int64 {
	return append([]int64(nil), p.RootCandidates...)
}

// Interface check: Plan prints.
var _ fmt.Stringer = (*Plan)(nil)
