package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"stwig/internal/graph"
	"stwig/internal/memcloud"
	"stwig/internal/rmat"
)

// The simulated machines are the engine's one level of parallelism: each of
// a run's phases runs every machine once, on min(GOMAXPROCS, machines)
// workers, and starts nothing else. These tests pin that, and that budget,
// consumer stop and cancellation reach every machine's joiner; run them with
// GOMAXPROCS>1 and -race so the workers really interleave (CI does both).

// scale15Fixture is a graph on which every machine has real work in both
// phases: ~10,800 candidate roots, of which ~1,200 match, and the query is a
// single STwig, so those factored matches are the driver relations — several
// blocks per machine at the default BlockSize — of a 125,228-match join.
func scale15Fixture(t testing.TB, machines int) (*Query, func(opts Options) *Engine) {
	t.Helper()
	q, g := scale15Query(), scale15Graph()
	return q, func(opts Options) *Engine {
		return NewEngine(clusterFor(t, g, machines), opts)
	}
}

func scale15Graph() *graph.Graph {
	return rmat.MustGenerate(rmat.Params{Scale: 15, AvgDegree: 2, NumLabels: 3, Seed: 7})
}

func scale15Query() *Query {
	return MustNewQuery(
		[]string{rmat.LabelName(0), rmat.LabelName(1), rmat.LabelName(2)},
		[][2]int{{0, 1}, {1, 2}},
	)
}

// denseClique returns a 24-clique of one label and a 2-vertex query with
// 24·23 matches — cheap to build, combinatorial to enumerate.
func denseClique(t testing.TB) (*graph.Graph, *Query) {
	t.Helper()
	b := graph.NewBuilder(graph.Undirected())
	for i := 0; i < 24; i++ {
		b.AddNode("a")
	}
	for i := 0; i < 24; i++ {
		for j := i + 1; j < 24; j++ {
			b.MustAddEdge(graph.NodeID(i), graph.NodeID(j))
		}
	}
	return b.Build(), MustNewQuery([]string{"a", "a"}, [][2]int{{0, 1}})
}

// liveGoroutines counts the goroutines that are not ParallelEach workers
// parked between phases: those are the process's worker pool, not a run's.
func liveGoroutines() int {
	return runtime.NumGoroutine() - memcloud.ParkedWorkers()
}

// waitNoExtraGoroutines fails the test if the live goroutine count does not
// return to (roughly) the pre-test baseline: a goroutine that outlives its
// run.
func waitNoExtraGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if liveGoroutines() <= base {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutine leak: %d live, baseline %d", liveGoroutines(), base)
}

// inFlight counts the calls of a probe that run at once, and keeps the
// peak and the total.
type inFlight struct{ now, peak, calls atomic.Int64 }

// hold is one probe call: it stays in flight for d.
func (f *inFlight) hold(d time.Duration) {
	f.calls.Add(1)
	n := f.now.Add(1)
	for old := f.peak.Load(); n > old && !f.peak.CompareAndSwap(old, n); old = f.peak.Load() {
	}
	time.Sleep(d)
	f.now.Add(-1)
}

// probedCtx holds every Err call in flight: exploration reads it on the
// machines, after every abortPoll roots.
type probedCtx struct {
	context.Context
	f *inFlight
}

func (c probedCtx) Err() error {
	c.f.hold(200 * time.Microsecond)
	return c.Context.Err()
}

// TestRunUsesAtMostOneGoroutinePerCore: a phase runs its machines on
// min(GOMAXPROCS, machines) workers while the caller waits, so neither the
// exploration nor the join ever has more machine calls in flight than that
// — fewer machines than cores, or fewer cores than machines. The probes sit
// inside the machine calls and sleep there, so a machine that had a worker
// of its own would be seen: in exploration the context's Err, which every
// machine reads at least once (the fixture has more than abortPoll roots
// per machine); in the join the block callback.
func TestRunUsesAtMostOneGoroutinePerCore(t *testing.T) {
	g, q := scale15Graph(), scale15Query()
	for _, tc := range []struct{ procs, machines int }{{2, 8}, {8, 2}} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d,machines=%d", tc.procs, tc.machines), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			eng := NewEngine(clusterFor(t, g, tc.machines), Options{})
			plan, err := eng.planner.Plan(q)
			if err != nil {
				t.Fatal(err)
			}
			var explore, join inFlight
			r := &execution{ex: eng.executor, plan: plan, cut: restriction{ids: wholeIDSpace},
				emit: func(_ int, ms []Match) (int, bool) {
					if join.calls.Load() < 16 {
						join.hold(200 * time.Microsecond)
					} else {
						join.hold(0)
					}
					return len(ms), true
				}}
			r.sc = eng.executor.scratch.Get().(*runScratch)
			defer r.sc.forget()
			perTwig, err := r.explore(probedCtx{context.Background(), &explore})
			if err != nil {
				t.Fatal(err)
			}
			r.exchangeAndJoin(context.Background(), perTwig)
			// The proxy reads Err once more after the step, alone.
			if explore.calls.Load() < int64(tc.machines)+1 || join.calls.Load() < 4 {
				t.Fatalf("%d context reads and %d blocks; the fixture must probe every machine in exploration and flush several blocks",
					explore.calls.Load(), join.calls.Load())
			}
			limit := int64(min(tc.procs, tc.machines))
			for _, p := range []struct {
				phase string
				peak  int64
			}{{"exploration", explore.peak.Load()}, {"join", join.peak.Load()}} {
				if p.peak > limit {
					t.Errorf("%d machine calls at once during the %s: more than min(GOMAXPROCS, machines) = %d", p.peak, p.phase, limit)
				}
			}
		})
	}
}

// TestSingleMachineEmissionIsDeterministic: one machine runs on one worker,
// so its matches reach the sink in driver order — the same sequence of ids,
// block for block, on every run.
func TestSingleMachineEmissionIsDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	q, engineFor := scale15Fixture(t, 1)
	eng := engineFor(Options{})
	var first uint64
	for run := 0; run < 5; run++ {
		// Blocks are lent: hash them in place.
		h := fnv.New64a()
		matches := 0
		var buf [8]byte
		_, err := eng.MatchStreamBlocks(context.Background(), q, func(ms []Match) (int, bool) {
			matches += len(ms)
			for _, m := range ms {
				for _, id := range m.Assignment {
					binary.LittleEndian.PutUint64(buf[:], uint64(id))
					h.Write(buf[:])
				}
			}
			return len(ms), true
		})
		if err != nil {
			t.Fatal(err)
		}
		if matches < 10_000 {
			t.Fatalf("fixture query has %d matches, want at least 10,000", matches)
		}
		if run == 0 {
			first = h.Sum64()
		} else if h.Sum64() != first {
			t.Fatalf("run %d emitted its %d matches in another order than run 0", run, matches)
		}
	}
}

// TestParallelBudgetStopsWorkers: the shared match budget must stop every
// machine's joiner, deliver at most MatchBudget matches, set Truncated, and
// leave no goroutines behind.
func TestParallelBudgetStopsWorkers(t *testing.T) {
	g, q := denseClique(t)
	c := clusterFor(t, g, 2)
	base := liveGoroutines()

	res, err := NewEngine(c, Options{MatchBudget: 64}).Match(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) > 64 {
		t.Fatalf("budget 64 delivered %d matches", len(res.Matches))
	}
	if !res.Stats.Truncated {
		t.Fatal("budget stop not reported as truncation")
	}
	for _, m := range res.Matches {
		if err := VerifyMatch(c, q, m); err != nil {
			t.Fatalf("invalid truncated match: %v", err)
		}
	}
	waitNoExtraGoroutines(t, base)
}

// TestParallelEmitStopStopsWorkers: a consumer returning false must stop
// the join on every machine at exactly that match, set Truncated, and leave
// no goroutines behind. Emission is serialized under the flush lock, so the
// count is exact however the machine goroutines interleave.
func TestParallelEmitStopStopsWorkers(t *testing.T) {
	g, q := denseClique(t)
	c := clusterFor(t, g, 2)
	base := liveGoroutines()

	count := 0
	stats, err := NewEngine(c, Options{}).MatchStream(
		context.Background(), q, func(Match) bool {
			count++
			return count < 5
		})
	if err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Fatalf("emitted %d, want exactly 5", count)
	}
	if !stats.Truncated {
		t.Fatal("emit stop not reported as truncation")
	}
	waitNoExtraGoroutines(t, base)
}

// TestParallelContextCancelStopsWorkers: cancelling mid-stream must abort
// the query with the context's error, deliver no more than a bounded
// overshoot past the cancellation point (buffered blocks in flight), and
// leave no goroutines behind.
func TestParallelContextCancelStopsWorkers(t *testing.T) {
	g, q := denseClique(t)
	c := clusterFor(t, g, 2)
	base := liveGoroutines()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	count := 0
	// Small blocks so the per-block context check fires close to the
	// cancellation point instead of after a full default-size block per
	// machine.
	_, err := NewEngine(c, Options{BlockSize: 16}).MatchStream(ctx, q, func(Match) bool {
		count++
		if count == 10 {
			cancel()
		}
		return true
	})
	if err == nil {
		t.Fatal("cancelled stream returned no error")
	}
	// 24·23 = 552 total; the abort must cut well before full enumeration
	// (a 16-match block per machine may already be in flight).
	if count > 300 {
		t.Fatalf("cancel at 10 still delivered %d of 552 matches", count)
	}
	waitNoExtraGoroutines(t, base)
}

// TestDeadlineEndsTheExplorationStep: the machines poll the context while
// they match an STwig, so a deadline that passes in the middle of a long
// step ends it, and the query returns the deadline's error. The fixture's
// one step matches a 4-leaf star at each of 100,000 roots of a 1-label
// graph: ~87 ms of machine time. On a 2-core box a query that checked the
// context only between steps returned 55–85 ms after its 2 ms deadline
// was set (~1 s under the race detector). Polling, 120 runs returned in
// 2.1–4.1 ms (median 2.5 ms), and 10–39 ms under the race detector with
// another package's race tests sharing the cores, as `go test ./...` runs
// them. The slack leaves room for that and for a slower runner.
func TestDeadlineEndsTheExplorationStep(t *testing.T) {
	const deadline = 2 * time.Millisecond
	slack := 20 * time.Millisecond
	if raceEnabled {
		slack = 200 * time.Millisecond
	}
	g := randomDataGraph(rand.New(rand.NewSource(1)), 100_000, 800_000, []string{"a"})
	eng := NewEngine(clusterFor(t, g, 2), Options{})
	q := MustNewQuery([]string{"a", "a", "a", "a", "a"}, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	for i := 0; i < 3; i++ {
		runtime.GC() // the graph's build garbage is not the step's to collect
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		start := time.Now()
		_, err := eng.MatchContext(ctx, q)
		took := time.Since(start)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("run %d: err %v, want the deadline's", i, err)
		}
		if took > deadline+slack {
			t.Errorf("run %d: returned %v after a %v deadline, more than %v late", i, took, deadline, slack)
		}
	}
}

// lateDone is a context whose Done closes — and whose Err turns non-nil —
// only a second after its deadline: the runtime's timer firing late while
// every P runs a worker, made certain instead of likely.
type lateDone struct {
	context.Context // the deadline
	done            <-chan struct{}
}

func (c lateDone) Done() <-chan struct{} { return c.done }

func (c lateDone) Err() error {
	select {
	case <-c.done:
		return context.DeadlineExceeded
	default:
		return nil
	}
}

// TestDeadlineEndsTheJoin is the join's twin of
// TestDeadlineEndsTheExplorationStep. The fixture's 5-vertex path on a
// dense 1-label graph (500 vertices, ~20,000 edges) explores and builds its
// join indexes in ~9 ms (~90 ms under the race detector, hence its later
// deadline), then enumerates for minutes, so the deadline passes inside the
// join's expansion. Done closes a second late (lateDone): a join that
// watched only Done ran until then and returned 1.0 s late. Reading the
// deadline from the clock every abortPollJoin polls, 60 runs returned
// 0.03–4.6 ms late (median 0.06 ms), and 18 under the race detector
// 0.17–0.77 ms; the slack leaves room for a loaded runner.
func TestDeadlineEndsTheJoin(t *testing.T) {
	deadline, slack := 100*time.Millisecond, 20*time.Millisecond
	if raceEnabled {
		deadline, slack = 500*time.Millisecond, 200*time.Millisecond
	}
	g := randomDataGraph(rand.New(rand.NewSource(1)), 500, 20_000, []string{"a"})
	eng := NewEngine(clusterFor(t, g, 2), Options{})
	q := MustNewQuery([]string{"a", "a", "a", "a", "a"}, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	for i := 0; i < 3; i++ {
		runtime.GC()
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		late, cancelLate := context.WithTimeout(context.Background(), deadline+time.Second)
		start := time.Now()
		var first time.Duration // when the first block arrived
		_, err := eng.MatchStreamBlocks(lateDone{ctx, late.Done()}, q, func(ms []Match) (int, bool) {
			if first == 0 {
				first = time.Since(start)
			}
			return len(ms), true
		})
		took := time.Since(start)
		cancel()
		cancelLate()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("run %d: err %v, want the deadline's", i, err)
		}
		if first == 0 || first >= deadline {
			t.Fatalf("run %d: first block after %v; the %v deadline must pass inside the join's expansion", i, first, deadline)
		}
		if took > deadline+slack {
			t.Errorf("run %d: returned %v after a %v deadline, more than %v late", i, took, deadline, slack)
		}
	}
}
