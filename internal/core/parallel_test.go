package core

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"testing"
	"time"

	"stwig/internal/graph"
	"stwig/internal/rmat"
)

// The simulated machines are the engine's one level of parallelism: a run
// starts one goroutine per machine for each of its two phases and nothing
// else. These tests pin that, and that budget, consumer stop and
// cancellation reach every machine's joiner; run them with GOMAXPROCS>1 and
// -race so the machine goroutines really interleave (CI does both).

// scale15Fixture is a graph on which every machine has real work in both
// phases: ~10,800 candidate roots, of which ~1,200 match, and the query is a
// single STwig, so those factored matches are the driver relations — several
// blocks per machine at the default BlockSize — of a 125,228-match join.
func scale15Fixture(t testing.TB, machines int) (*Query, func(opts Options) *Engine) {
	t.Helper()
	g := rmat.MustGenerate(rmat.Params{Scale: 15, AvgDegree: 2, NumLabels: 3, Seed: 7})
	q := MustNewQuery(
		[]string{rmat.LabelName(0), rmat.LabelName(1), rmat.LabelName(2)},
		[][2]int{{0, 1}, {1, 2}},
	)
	return q, func(opts Options) *Engine {
		return NewEngine(clusterFor(t, g, machines), opts)
	}
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

// waitNoExtraGoroutines fails the test if the goroutine count does not
// return to (roughly) the pre-test baseline: a goroutine that outlives its
// run.
func waitNoExtraGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutine leak: %d live, baseline %d", runtime.NumGoroutine(), base)
}

// peakGoroutines runs q and returns the largest goroutine count seen from
// inside the block callback — while the machines are joining — and the
// number of blocks that sampled it.
func peakGoroutines(t *testing.T, eng *Engine, q *Query) (peak, blocks int) {
	t.Helper()
	_, err := eng.MatchStreamBlocks(context.Background(), q, func(ms []Match) (int, bool) {
		blocks++
		peak = max(peak, runtime.NumGoroutine())
		return len(ms), true
	})
	if err != nil {
		t.Fatal(err)
	}
	return peak, blocks
}

// TestRunUsesOneGoroutinePerMachine: whatever GOMAXPROCS offers, a run adds
// one goroutine per machine and no more (the +1 is slack for a machine
// goroutine of the finished exploration step that has not exited yet).
func TestRunUsesOneGoroutinePerMachine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	q, engineFor := scale15Fixture(t, 2)
	eng := engineFor(Options{})
	base := runtime.NumGoroutine()
	peak, blocks := peakGoroutines(t, eng, q)
	if blocks < 4 {
		t.Fatalf("%d blocks; the fixture must flush several per machine", blocks)
	}
	if limit := base + eng.Cluster().NumMachines() + 1; peak > limit {
		t.Fatalf("%d goroutines during the join, %d before the run: more than one per machine (%d machines)",
			peak, base, eng.Cluster().NumMachines())
	}
	waitNoExtraGoroutines(t, base)
}

// TestSingleMachineEmissionIsDeterministic: one machine is one goroutine,
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
	base := runtime.NumGoroutine()

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
	base := runtime.NumGoroutine()

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
	base := runtime.NumGoroutine()

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

// TestSimulateParallelStaysSequential: modeled per-machine timing requires
// strictly sequential phases, so under SimulateParallel the machines take
// turns on the caller's goroutine — a run starts none of its own — and the
// results do not change.
func TestSimulateParallelStaysSequential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	q, engineFor := scale15Fixture(t, 2)
	sim := engineFor(Options{SimulateParallel: true})
	base := runtime.NumGoroutine()
	if peak, _ := peakGoroutines(t, sim, q); peak > base {
		t.Fatalf("%d goroutines during a SimulateParallel join, %d before the run", peak, base)
	}

	var plain, simulated []Match
	if _, err := engineFor(Options{}).MatchStream(
		context.Background(), q, func(m Match) bool { plain = append(plain, m); return true }); err != nil {
		t.Fatal(err)
	}
	stats, err := sim.MatchStream(
		context.Background(), q, func(m Match) bool { simulated = append(simulated, m); return true })
	if err != nil {
		t.Fatal(err)
	}
	// Modeled times are wall-clock measurements, so only their presence is
	// deterministic.
	if stats.ModeledParallelTime <= 0 {
		t.Errorf("modeled time not populated: %v", stats.ModeledParallelTime)
	}
	got, want := MatchSet(simulated), MatchSet(plain)
	if len(got) != len(want) {
		t.Fatalf("%d distinct matches, want %d", len(got), len(want))
	}
}
