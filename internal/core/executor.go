package core

import (
	"context"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"stwig/internal/graph"
	"stwig/internal/memcloud"
)

// Executor runs Plans against a memcloud.Cluster: the exploration phase
// (§4.2 step 2, ordered STwig matching with binding propagation), the
// exchange governed by the plan's load sets, and the per-machine pipelined
// join (§4.2 step 3, §4.3). All mutable per-query state — bindings,
// relations, block buffers, phase timers — lives in a per-run execution
// value, so one Plan can be executed by any number of goroutines
// concurrently and an Executor is safe for concurrent use.
type Executor struct {
	cluster *memcloud.Cluster
	opts    Options
	// scratch pools *runScratch values between runs; it is the only state
	// concurrent runs of one Executor share.
	scratch sync.Pool
}

// NewExecutor creates an executor over a loaded cluster.
func NewExecutor(c *memcloud.Cluster, opts Options) *Executor {
	ex := &Executor{cluster: c, opts: normalizeOptions(opts)}
	ex.scratch.New = func() any { return newRunScratch(c.NumMachines()) }
	return ex
}

// Run executes plan, delivering matches in blocks: each machine calls emit
// with its own id and each block it flushes, concurrently with the other
// machines but never twice at once for itself (see
// Engine.MatchStreamMachines). emit returns how many of the block's matches
// it accepted plus whether to continue; a false return stops the run and
// sets Stats.Truncated. A block — the slice and the assignments in it — is
// the machine's buffer and dead once emit returns. The run produces the
// plan's query's slice of the answer (Query.Sliced). Run fills the stats'
// fixed fields on every run; it builds the span tree only when ctx asks
// for it (WithSpans) or Options.TraceID is set.
func (ex *Executor) Run(ctx context.Context, plan *Plan, emit func(machine int, ms []Match) (int, bool)) (*ExecStats, error) {
	spans := spansRequested(ctx) || ex.opts.TraceID != ""
	if !plan.Resolvable {
		stats := &ExecStats{PlanTime: plan.BuildTime}
		if spans {
			stats.Spans = []Span{{Name: "plan", Duration: plan.BuildTime}}
		}
		return stats, nil
	}
	r := &execution{ex: ex, plan: plan, emit: emit, spans: spans,
		cut: restriction{vertex: plan.Center, ids: plan.Query.slice}}
	return r.run(ctx)
}

// execution is the scratch state of one plan run. Nothing in it outlives
// the run, and nothing in the Plan is written by it.
type execution struct {
	ex   *Executor
	plan *Plan
	emit func(machine int, ms []Match) (int, bool)
	cut  restriction

	// Folded at each parallel section's barrier (forEachMachine): the sums
	// of every machine's time, of the sections' walls, and of each
	// section's longest machine time.
	machineTime, sectionWalls, sectionMax time.Duration

	// sc is the run's pooled scratch: taken when the run starts, handed
	// back — holding nothing of this run — when it ends.
	sc *runScratch

	// flushes counts the blocks the machines delivered through emit
	// (ExecStats.EmitFlushes).
	flushes atomic.Uint64

	// net is the traffic the proxy itself charges: the plan broadcast and
	// the binding sets it sends down. Each machine charges its own
	// (machineScratch.net); traffic sums the two.
	net memcloud.NetStats

	// emitTime sums the machines' time inside emit (machineScratch.emitTime),
	// folded after the join's barrier.
	emitTime time.Duration

	// Span state, populated only when the run records spans (see Run):
	// twigSpans collects one span per exploration step; machSpans one per
	// machine, filled after the join's barrier.
	spans     bool
	twigSpans []Span
	machSpans []Span
}

// machineSpanNames names the join's per-machine spans, so a run that
// records spans formats no name per machine.
var machineSpanNames = func() (names [memcloud.MaxMachines]string) {
	for i := range names {
		names[i] = fmt.Sprintf("machine %d", i)
	}
	return names
}()

// forEachMachine runs fn once per machine on Cluster.ParallelEach's
// workers, and after the barrier folds the times fn recorded
// (machineScratch.stop) into the run's totals.
func (r *execution) forEachMachine(fn func(m *memcloud.Machine, start time.Time) time.Time) {
	sectionStart := time.Now()
	r.ex.cluster.ParallelEach(fn)
	r.sectionWalls += time.Since(sectionStart)
	var longest time.Duration
	for i := range r.sc.machines {
		took := r.sc.machines[i].took
		r.machineTime += took
		longest = max(longest, took)
	}
	r.sectionMax += longest
}

// traffic sums what the run has charged so far: the proxy's own messages
// and every machine's. Call it between phases only, where the
// forEachMachine barrier has published the machines' counts.
func (r *execution) traffic() memcloud.NetStats {
	total := r.net
	for i := range r.sc.machines {
		total.Add(r.sc.machines[i].net)
	}
	return total
}

// run drives the two parallel phases and assembles the statistics. The
// proxy phase already happened at plan time; its broadcast (one small
// message per machine) is charged here, with the rest of the run's
// traffic.
func (r *execution) run(ctx context.Context) (*ExecStats, error) {
	ex := r.ex
	plan := r.plan
	r.sc = ex.scratch.Get().(*runScratch)
	defer func() {
		r.sc.forget()
		ex.scratch.Put(r.sc)
	}()
	for k := 0; k < ex.cluster.NumMachines(); k++ {
		ex.cluster.AccountProxyTransfer(&r.net, plan.planWords)
	}

	wallStart := time.Now()

	// Exploration phase.
	exploreStart := time.Now()
	perTwig, err := r.explore(ctx)
	if err != nil {
		return nil, err
	}
	exploreTime := time.Since(exploreStart)
	netAfterExplore := r.traffic()

	// Exchange + join phase.
	joinStart := time.Now()
	perMachine, truncated := r.exchangeAndJoin(ctx, perTwig)
	joinTime := time.Since(joinStart)
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	wall := time.Since(wallStart)

	stats := &ExecStats{
		PlanTime: plan.BuildTime,
		// Deep-copied: ExecStats escapes to callers, who may edit it while
		// still holding the plan (EXPLAIN ANALYZE hands out both).
		Decomposition:     plan.Decomposition.clone(),
		STwigMatchCounts:  make([]int, len(plan.Decomposition.Twigs)),
		Net:               r.traffic(),
		ExploreTime:       exploreTime,
		JoinTime:          joinTime,
		EmitTime:          r.emitTime,
		Truncated:         truncated,
		PerMachineMatches: perMachine,
		EmitFlushes:       r.flushes.Load(),
		MachineTime:       r.machineTime,
		ParallelTime:      wall - r.sectionWalls + r.sectionMax,
	}
	for t := range plan.Decomposition.Twigs {
		for k := 0; k < ex.cluster.NumMachines(); k++ {
			stats.STwigMatchCounts[t] += len(perTwig[t][k])
		}
	}
	if r.spans {
		stats.Spans = r.buildSpans(stats, netAfterExplore)
	}
	return stats, nil
}

// buildSpans assembles a run's span tree from its stats and the
// per-step/per-machine records the phases left behind. Top-level spans
// (plan, explore, join) are sequential; join's machine children overlap in
// time.
func (r *execution) buildSpans(stats *ExecStats, netAfterExplore memcloud.NetStats) []Span {
	exploreSpan := Span{
		Name:     "explore",
		Duration: stats.ExploreTime,
		Children: r.twigSpans,
	}
	for i := range r.twigSpans {
		exploreSpan.Matches += r.twigSpans[i].Matches
		exploreSpan.Words += r.twigSpans[i].Words
	}
	var joinMatches int64
	for _, n := range stats.PerMachineMatches {
		joinMatches += int64(n)
	}
	joinSpan := Span{
		Name:     "join",
		Duration: stats.JoinTime,
		Matches:  joinMatches,
		Words:    int64((stats.Net.Bytes - netAfterExplore.Bytes) / 8),
		Children: append(r.machSpans, Span{
			Name:     "emit",
			Duration: stats.EmitTime,
			Matches:  joinMatches,
		}),
	}
	return []Span{{Name: "plan", Duration: stats.PlanTime}, exploreSpan, joinSpan}
}

// explore runs the ordered STwig matching (§4.2 step 2): every machine
// matches STwig t in parallel against the current bindings; the proxy then
// rebuilds the binding sets of the vertices t covers from all machines'
// matches and broadcasts them before step t+1. Returns perTwig[t][machine]
// factored matches, or ctxErr's error: the machines poll it while they
// match, so a deadline ends the step it passes in.
func (r *execution) explore(ctx context.Context) ([][][]STwigMatch, error) {
	ex := r.ex
	dec := r.plan.Decomposition
	labels := r.plan.labels
	k := ex.cluster.NumMachines()
	numNodes := ex.cluster.QueryNumNodes()
	perTwig := make([][][]STwigMatch, len(dec.Twigs))

	sc := r.sc
	sc.fit(numNodes)
	var bindings *Bindings
	if !ex.opts.NoBindings {
		bindings = NewBindings(r.plan.Query.NumVertices(), numNodes)
		defer bindings.release(sc)
	}

	for t, twig := range dec.Twigs {
		var stepStart time.Time
		var netBefore memcloud.NetStats
		if r.spans {
			stepStart = time.Now()
			netBefore = r.traffic()
		}
		perTwig[t] = make([][]STwigMatch, k)
		// The modelled binding synchronization ships H_v as a bitset: one
		// bit per data vertex per query vertex the STwig covers. Each
		// machine sends its contribution up, and receives the updated sets
		// — only those this step touched — back down.
		syncWords := (1 + len(twig.Leaves)) * sc.words
		r.forEachMachine(func(m *memcloud.Machine, start time.Time) time.Time {
			ms := &sc.machines[m.ID()]
			perTwig[t][m.ID()] = matchSTwigOnMachine(ctx, m, twig, labels, bindings, r.cut, ms)
			if bindings != nil {
				ex.cluster.AccountProxyTransfer(&ms.net, syncWords)
			}
			return ms.stop(start)
		})
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		if bindings != nil {
			bindings.rebind(twig, perTwig[t], sc)
			for i := 0; i < k; i++ {
				ex.cluster.AccountProxyTransfer(&r.net, syncWords)
			}
		}
		if r.spans {
			matches := 0
			for j := 0; j < k; j++ {
				matches += len(perTwig[t][j])
			}
			r.twigSpans = append(r.twigSpans, Span{
				Name:     fmt.Sprintf("stwig %d (root %d)", t+1, twig.Root),
				Duration: time.Since(stepStart),
				Matches:  int64(matches),
				Words:    int64((r.traffic().Bytes - netBefore.Bytes) / 8),
			})
		}
	}
	return perTwig, nil
}

// ctxErr is ctx.Err(), but reports a past deadline at once: busy workers
// can delay the runtime's timer, so Done may close 10 ms or more late.
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return context.DeadlineExceeded
	}
	return nil
}

// exchangeAndJoin fetches remote STwig results per the plan's load sets,
// then runs the pipelined join on every machine in parallel, each machine
// handing its own blocks to emit. Per-machine result sets are disjoint by
// the head-STwig construction, so the union needs no deduplication.
func (r *execution) exchangeAndJoin(ctx context.Context, perTwig [][][]STwigMatch) ([]int, bool) {
	ex := r.ex
	q := r.plan.Query
	dec := r.plan.Decomposition
	loadSets := r.plan.LoadSets
	k := ex.cluster.NumMachines()
	var budget *atomic.Int64
	if ex.opts.MatchBudget > 0 {
		budget = &atomic.Int64{}
		budget.Store(int64(ex.opts.MatchBudget))
	}

	// A false return from emit stops every joiner; a machine already inside
	// emit finishes that call. Each machine writes only its own count, and
	// the forEachMachine barrier publishes them to the reader.
	var stopAll, truncatedFlag atomic.Bool
	perMachineCounts := make([]int, k)
	emitBlockFor := func(machine int) func([]graph.NodeID, int) bool {
		ms := &r.sc.machines[machine]
		return func(block []graph.NodeID, width int) bool {
			if stopAll.Load() {
				return false
			}
			r.flushes.Add(1)
			emitStart := time.Now()
			n, ok := r.emit(machine, ms.carve(block, width))
			ms.emitTime += time.Since(emitStart)
			perMachineCounts[machine] += n
			if !ok {
				stopAll.Store(true)
				truncatedFlag.Store(true)
			}
			return ok
		}
	}

	r.forEachMachine(func(mach *memcloud.Machine, start time.Time) time.Time {
		machine := mach.ID()

		// Assemble R_k(q_t) = G_k(q_t) ∪ ⋃_{j ∈ F_{k,t}} G_j(q_t).
		// Matches are aliased, not copied: the exploration results are
		// shared with every other machine's join, so a relation moves to a
		// private match array before its first remote extension.
		ms := &r.sc.machines[machine]
		rels := ms.join.relations(len(dec.Twigs))
		for t, twig := range dec.Twigs {
			rel := rels[t]
			rel.reset(twig, perTwig[t][machine])
			if t != dec.Head {
				for from := loadSets.Mask(machine, t); from != 0; from &= from - 1 {
					j := bits.TrailingZeros64(from)
					remote := perTwig[t][j]
					if len(remote) == 0 {
						continue
					}
					words := 0
					for _, m := range remote {
						words += m.words()
					}
					ex.cluster.ShipWords(&ms.net, j, machine, words)
					rel.extend(remote)
				}
			}
			rel.card = rel.size()
		}
		sortRelationsDeterministic(rels)
		if r.spans {
			ms.exchange = time.Since(start)
		}
		rels = orderRelations(rels, !ex.opts.NoJoinOrderOpt)

		jn := &ms.joiner
		jn.q, jn.rels, jn.budget, jn.blockSize = q, rels, budget, ex.opts.BlockSize
		jn.ctx, jn.stop, jn.emitBlock = ctx, &stopAll, emitBlockFor(machine)
		jn.run()
		if jn.budgetHit {
			truncatedFlag.Store(true)
		}
		return ms.stop(start)
	})
	for i := range r.sc.machines {
		r.emitTime += r.sc.machines[i].emitTime
	}
	if r.spans {
		// A machine's span is the time folded for it, split at exchange.
		r.machSpans = make([]Span, k)
		for i := range r.machSpans {
			ms := &r.sc.machines[i]
			r.machSpans[i] = Span{
				Name:     machineSpanNames[i],
				Duration: ms.took,
				Matches:  int64(perMachineCounts[i]),
				Children: []Span{
					{Name: "exchange", Duration: ms.exchange},
					{Name: "blockjoin", Duration: ms.took - ms.exchange},
				},
			}
		}
	}
	return perMachineCounts, truncatedFlag.Load()
}
