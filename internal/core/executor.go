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

// Run executes plan, delivering matches in blocks: emit is called with
// each flushed block (from multiple goroutines but never concurrently) and
// returns how many of the block's matches it accepted plus whether to
// continue; a false return stops the run and sets Stats.Truncated. A block
// — the slice and the assignments in it — is the join's buffer and dead
// once emit returns (see Engine.MatchStreamBlocks). The run produces the
// plan's query's slice of the answer (Query.Sliced). Engine stamps the
// returned stats with the planning time; Run itself fills everything
// execution-derived.
func (ex *Executor) Run(ctx context.Context, plan *Plan, emit func([]Match) (int, bool)) (*ExecStats, error) {
	if !plan.Resolvable {
		return &ExecStats{}, nil
	}
	r := &execution{ex: ex, plan: plan, emit: emit,
		cut:    restriction{vertex: plan.Center, ids: plan.Query.slice},
		traced: TraceIDFromContext(ctx) != "" || ex.opts.TraceID != ""}
	return r.run(ctx)
}

// execution is the scratch state of one plan run. Nothing in it outlives
// the run, and nothing in the Plan is written by it.
type execution struct {
	ex   *Executor
	plan *Plan
	emit func([]Match) (int, bool)
	cut  restriction
	pt   phaseTimer

	// sc is the run's pooled scratch: taken when the run starts, handed
	// back — holding nothing of this run — when it ends.
	sc *runScratch

	// flushes counts blocks delivered through the serialized emit path
	// (ExecStats.EmitFlushes).
	flushes atomic.Uint64

	// net is the traffic the proxy itself charges: the plan broadcast and
	// the binding sets it sends down. Each machine charges its own
	// (machineScratch.net); traffic sums the two.
	net memcloud.NetStats

	// Tracing state, populated only when traced (a trace ID in the context
	// or in Options.TraceID): twigSpans collects one span per exploration
	// step; machSpans one per machine during the join, indexed by machine
	// ID so the concurrent per-machine closures write disjoint slots;
	// emitTime accumulates serialized emit time under the join's emitMu.
	traced    bool
	twigSpans []Span
	machSpans []Span
	emitTime  time.Duration
}

// machineSpanNames names the join's per-machine spans. stwigd traces every
// query, so formatting the names would cost an allocation per machine per
// query.
var machineSpanNames = func() (names [memcloud.MaxMachines]string) {
	for i := range names {
		names[i] = fmt.Sprintf("machine %d", i)
	}
	return names
}()

// phaseTimer accumulates modeled times across a query's parallel sections.
type phaseTimer struct {
	parallel time.Duration // Σ over phases of max over machines
	serial   time.Duration // Σ over phases of Σ over machines
}

// forEachMachine runs fn once per machine: concurrently on at most
// GOMAXPROCS workers in normal mode (Cluster.ParallelEach), or sequentially
// with per-machine timing when SimulateParallel is set.
func (r *execution) forEachMachine(fn func(m *memcloud.Machine)) {
	cluster := r.ex.cluster
	if !r.ex.opts.SimulateParallel {
		cluster.ParallelEach(fn)
		return
	}
	var maxD, sumD time.Duration
	for i := 0; i < cluster.NumMachines(); i++ {
		start := time.Now()
		fn(cluster.Machine(i))
		d := time.Since(start)
		sumD += d
		if d > maxD {
			maxD = d
		}
	}
	r.pt.parallel += maxD
	r.pt.serial += sumD
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
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	wall := time.Since(wallStart)

	stats := &ExecStats{
		// Deep-copied: ExecStats escapes to callers, who may edit it while
		// still holding the plan (EXPLAIN ANALYZE hands out both).
		Decomposition:     plan.Decomposition.clone(),
		STwigMatchCounts:  make([]int, len(plan.Decomposition.Twigs)),
		Net:               r.traffic(),
		ExploreTime:       exploreTime,
		JoinTime:          joinTime,
		Truncated:         truncated,
		PerMachineMatches: perMachine,
		EmitFlushes:       r.flushes.Load(),
	}
	for t := range plan.Decomposition.Twigs {
		for k := 0; k < ex.cluster.NumMachines(); k++ {
			stats.STwigMatchCounts[t] += len(perTwig[t][k])
		}
	}
	if r.traced {
		stats.Spans = r.buildSpans(stats, exploreTime, joinTime, netAfterExplore)
	}
	if ex.opts.SimulateParallel {
		// Modeled cluster wall time: serial proxy sections (wall minus the
		// sequentialized machine time) + per-phase maxima + network.
		netTime := ex.opts.NetModel.TransferTime(stats.Net, ex.cluster.NumMachines())
		stats.ModeledParallelTime = wall - r.pt.serial + r.pt.parallel + netTime
		stats.ModeledMachineTime = r.pt.serial
		stats.ModeledNetTime = netTime
	}
	return stats, nil
}

// buildSpans assembles a traced run's span tree from the phase timers and
// the per-step/per-machine records the phases left behind. Top-level spans
// (explore, join) are sequential; join's machine children overlap in time.
func (r *execution) buildSpans(stats *ExecStats, exploreTime, joinTime time.Duration, netAfterExplore memcloud.NetStats) []Span {
	exploreSpan := Span{
		Name:     "explore",
		Duration: exploreTime,
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
		Duration: joinTime,
		Matches:  joinMatches,
		Words:    int64((stats.Net.Bytes - netAfterExplore.Bytes) / 8),
		Children: append(r.machSpans, Span{
			Name:     "emit",
			Duration: r.emitTime,
			Matches:  joinMatches,
		}),
	}
	return []Span{exploreSpan, joinSpan}
}

// explore runs the ordered STwig matching (§4.2 step 2): every machine
// matches STwig t in parallel against the current bindings; the proxy then
// rebuilds the binding sets of the vertices t covers from all machines'
// matches and broadcasts them before step t+1. Returns perTwig[t][machine]
// factored matches.
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
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var stepStart time.Time
		var netBefore memcloud.NetStats
		if r.traced {
			stepStart = time.Now()
			netBefore = r.traffic()
		}
		perTwig[t] = make([][]STwigMatch, k)
		// The modelled binding synchronization ships H_v as a bitset: one
		// bit per data vertex per query vertex the STwig covers. Each
		// machine sends its contribution up, and receives the updated sets
		// — only those this step touched — back down.
		syncWords := (1 + len(twig.Leaves)) * sc.words
		r.forEachMachine(func(m *memcloud.Machine) {
			ms := &sc.machines[m.ID()]
			perTwig[t][m.ID()] = matchSTwigOnMachine(m, twig, labels, bindings, r.cut, ms)
			if bindings != nil {
				ex.cluster.AccountProxyTransfer(&ms.net, syncWords)
			}
		})
		if bindings != nil {
			bindings.rebind(twig, perTwig[t], sc)
			for i := 0; i < k; i++ {
				ex.cluster.AccountProxyTransfer(&r.net, syncWords)
			}
		}
		if r.traced {
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

// exchangeAndJoin fetches remote STwig results per the plan's load sets,
// then runs the pipelined join on every machine in parallel, emitting
// matches through the serialized emit callback. Per-machine result sets are
// disjoint by the head-STwig construction, so the union needs no
// deduplication.
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

	// Serialize the user callback across the machines' workers; a false
	// return (or a done context) stops every joiner.
	// Joiners deliver whole blocks, so the mutex is taken once per block
	// rather than once per match. perMachineCounts writes also happen
	// under it; the forEachMachine barrier publishes them to the reader.
	var emitMu sync.Mutex
	var stopAll atomic.Bool
	var truncatedFlag atomic.Bool
	perMachineCounts := make([]int, k)
	emitBlockFor := func(machine int) func([]graph.NodeID, int) bool {
		return func(block []graph.NodeID, width int) bool {
			emitMu.Lock()
			defer emitMu.Unlock()
			if stopAll.Load() {
				return false
			}
			r.flushes.Add(1)
			var emitStart time.Time
			if r.traced {
				emitStart = time.Now()
			}
			n, ok := r.emit(r.sc.carve(block, width))
			if r.traced {
				r.emitTime += time.Since(emitStart)
			}
			perMachineCounts[machine] += n
			if !ok {
				stopAll.Store(true)
				truncatedFlag.Store(true)
			}
			return ok
		}
	}
	aborted := func() bool {
		if stopAll.Load() {
			return true
		}
		select {
		case <-ctx.Done():
			return true
		default:
			return false
		}
	}

	if r.traced {
		r.machSpans = make([]Span, k)
	}
	r.forEachMachine(func(mach *memcloud.Machine) {
		machine := mach.ID()

		// Per-machine tracing: exchangeD is stamped when the relations are
		// assembled; the deferred record derives blockjoin time as the
		// remainder and writes this machine's (disjoint) machSpans slot.
		// perMachineCounts[machine] is complete here because the joiner
		// delivers every block before the closure returns.
		var machStart time.Time
		var exchangeD time.Duration
		if r.traced {
			machStart = time.Now()
			defer func() {
				total := time.Since(machStart)
				r.machSpans[machine] = Span{
					Name:     machineSpanNames[machine],
					Duration: total,
					Matches:  int64(perMachineCounts[machine]),
					Children: []Span{
						{Name: "exchange", Duration: exchangeD},
						{Name: "blockjoin", Duration: total - exchangeD},
					},
				}
			}()
		}

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
		if r.traced {
			exchangeD = time.Since(machStart)
		}
		rels = orderRelations(rels, !ex.opts.NoJoinOrderOpt)

		jn := &ms.joiner
		jn.q, jn.rels, jn.budget, jn.blockSize = q, rels, budget, ex.opts.BlockSize
		jn.abort, jn.emitBlock = aborted, emitBlockFor(machine)
		jn.run()
		if jn.budgetHit {
			truncatedFlag.Store(true)
		}
	})
	return perMachineCounts, truncatedFlag.Load()
}
