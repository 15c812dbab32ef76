package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"stwig/internal/graph"
	"stwig/internal/rmat"
)

// Tests for intra-machine parallel execution: the run-scoped worker pool
// that chunks STwig matching and fans the block join out. Parallelism is
// set explicitly (the pool spawns its workers on the first fan-out,
// regardless of GOMAXPROCS), so these tests exercise the concurrent code paths even on a single-core
// host; run them with GOMAXPROCS>1 and -race for the full effect (CI does
// both).

// parallelFixture is a graph big enough that both parallel paths engage on
// each of its two machines: ~5,400 candidate roots (chunked matching needs
// 2×matchChunkMinCells = 128) of which ~600 match, and the query is a single
// STwig, so those ~600 factored matches are the join's driver relation
// (the block-join fan-out needs 2×BlockSize = 512). R-MAT's skew leaves most
// low-degree roots without both leaf labels, hence the 32k vertices;
// TestParallelTasksDispatched pins that both thresholds are crossed.
func parallelFixture(t testing.TB) (*Query, func(opts Options) *Engine) {
	t.Helper()
	g := rmat.MustGenerate(rmat.Params{Scale: 15, AvgDegree: 2, NumLabels: 3, Seed: 7})
	q := MustNewQuery(
		[]string{rmat.LabelName(0), rmat.LabelName(1), rmat.LabelName(2)},
		[][2]int{{0, 1}, {1, 2}},
	)
	return q, func(opts Options) *Engine {
		return NewEngine(clusterFor(t, g, 2), opts)
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
// return to (roughly) the pre-test baseline: a worker pool that outlives
// its run.
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

// TestParallelMatchesSequential is the determinism acceptance: the same
// query at Parallelism 1 and 4 must produce identical match sets AND
// identical deterministic statistics (STwig match counts, network traffic —
// both computed in the strictly-sequential accounting passes).
func TestParallelMatchesSequential(t *testing.T) {
	q, engineFor := parallelFixture(t)

	type outcome struct {
		set   map[string]bool
		stats *ExecStats
	}
	runAt := func(par int) outcome {
		var ms []Match
		stats, err := engineFor(Options{Parallelism: par}).MatchStream(
			context.Background(), q, func(m Match) bool {
				ms = append(ms, m)
				return true
			})
		if err != nil {
			t.Fatalf("parallelism=%d: %v", par, err)
		}
		return outcome{set: MatchSet(ms), stats: stats}
	}

	seq := runAt(1)
	for _, par := range []int{2, 4} {
		got := runAt(par)
		if len(got.set) != len(seq.set) {
			t.Fatalf("parallelism=%d: %d distinct matches, sequential found %d",
				par, len(got.set), len(seq.set))
		}
		for k := range seq.set {
			if !got.set[k] {
				t.Fatalf("parallelism=%d: missing match %s", par, k)
			}
		}
		if fmt.Sprint(got.stats.STwigMatchCounts) != fmt.Sprint(seq.stats.STwigMatchCounts) {
			t.Errorf("parallelism=%d: STwig match counts %v, sequential %v",
				par, got.stats.STwigMatchCounts, seq.stats.STwigMatchCounts)
		}
		if got.stats.Net != seq.stats.Net {
			t.Errorf("parallelism=%d: network accounting %+v, sequential %+v",
				par, got.stats.Net, seq.stats.Net)
		}
		if got.stats.Parallelism != par {
			t.Errorf("stats.Parallelism = %d, want %d", got.stats.Parallelism, par)
		}
	}
	if seq.stats.ParallelTasks != 0 {
		t.Errorf("sequential run dispatched %d pool tasks", seq.stats.ParallelTasks)
	}
}

// TestParallelTasksDispatched pins that the fixture actually exercises the
// pool — a regression here would silently turn every other test in this
// file into a sequential no-op. The two parallel paths are checked
// separately, on a traced run's explore and join spans.
func TestParallelTasksDispatched(t *testing.T) {
	q, engineFor := parallelFixture(t)
	var n int
	stats, err := engineFor(Options{Parallelism: 4, TraceID: "parallel-fixture"}).MatchStream(
		context.Background(), q, func(Match) bool { n++; return true })
	if err != nil {
		t.Fatal(err)
	}
	tasks := map[string]uint64{}
	for _, s := range stats.Spans {
		tasks[s.Name] = s.Tasks
	}
	if tasks["explore"] == 0 {
		t.Errorf("chunked STwig matching dispatched no pool tasks (%d STwig matches); fixture too small", stats.STwigMatchCounts)
	}
	if tasks["join"] == 0 {
		t.Errorf("the block join dispatched no pool tasks (%d matches); fixture too small", n)
	}
	if stats.ParallelTasks != tasks["explore"]+tasks["join"] {
		t.Errorf("ParallelTasks = %d, spans account for %d + %d", stats.ParallelTasks, tasks["explore"], tasks["join"])
	}
	if stats.EmitFlushes == 0 {
		t.Fatal("no emit flushes counted")
	}
}

// TestParallelBudgetStopsWorkers: the shared match budget must stop every
// join worker, deliver at most MatchBudget matches, set Truncated, and
// leave no goroutines behind.
func TestParallelBudgetStopsWorkers(t *testing.T) {
	g, q := denseClique(t)
	c := clusterFor(t, g, 2)
	base := runtime.NumGoroutine()

	res, err := NewEngine(c, Options{Parallelism: 4, MatchBudget: 64}).Match(q)
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
// the parallel join at exactly that match, set Truncated, and leave no
// goroutines behind. Emission is serialized under the flush lock, so the
// count is exact even with four join workers.
func TestParallelEmitStopStopsWorkers(t *testing.T) {
	g, q := denseClique(t)
	c := clusterFor(t, g, 2)
	base := runtime.NumGoroutine()

	count := 0
	stats, err := NewEngine(c, Options{Parallelism: 4}).MatchStream(
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
	// worker.
	_, err := NewEngine(c, Options{Parallelism: 4, BlockSize: 16}).MatchStream(ctx, q, func(Match) bool {
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
	// (a handful of 16-match blocks may already be in flight across the
	// four workers).
	if count > 300 {
		t.Fatalf("cancel at 10 still delivered %d of 552 matches", count)
	}
	waitNoExtraGoroutines(t, base)
}

// TestSimulateParallelStaysSequential: modeled per-machine timing requires
// strictly sequential phases, so SimulateParallel must force one worker no
// matter what Parallelism asks for — and its results must not change.
func TestSimulateParallelStaysSequential(t *testing.T) {
	q, engineFor := parallelFixture(t)
	var plain, forced []Match
	ref, err := engineFor(Options{SimulateParallel: true}).MatchStream(
		context.Background(), q, func(m Match) bool { plain = append(plain, m); return true })
	if err != nil {
		t.Fatal(err)
	}
	stats, err := engineFor(Options{SimulateParallel: true, Parallelism: 4}).MatchStream(
		context.Background(), q, func(m Match) bool { forced = append(forced, m); return true })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Parallelism != 1 || stats.ParallelTasks != 0 {
		t.Fatalf("SimulateParallel ran with parallelism=%d, tasks=%d; want sequential",
			stats.Parallelism, stats.ParallelTasks)
	}
	// Modeled times are wall-clock measurements, so only their presence is
	// deterministic.
	if ref.ModeledParallelTime <= 0 || stats.ModeledParallelTime <= 0 {
		t.Errorf("modeled time not populated: %v vs %v",
			stats.ModeledParallelTime, ref.ModeledParallelTime)
	}
	got, want := MatchSet(forced), MatchSet(plain)
	if len(got) != len(want) {
		t.Fatalf("%d distinct matches, want %d", len(got), len(want))
	}
}

// TestChunkRanges pins the chunking helper's contract: full coverage, in
// order, bounded count, minimum size.
func TestChunkRanges(t *testing.T) {
	for _, tc := range []struct {
		n, maxChunks, minPer int
		wantChunks           int
	}{
		{0, 4, 10, 0},
		{5, 4, 10, 1},   // below minPer: one chunk
		{40, 4, 10, 4},  // exact fit
		{100, 4, 10, 4}, // clamped by maxChunks
		{25, 8, 10, 2},  // limited by minPer, not maxChunks
	} {
		got := chunkRanges(tc.n, tc.maxChunks, tc.minPer)
		// Coverage and order are the hard invariants; chunk count is
		// implementation-defined within [1, maxChunks].
		lo := 0
		total := 0
		for _, rg := range got {
			if rg[0] != lo {
				t.Fatalf("chunkRanges(%d,%d,%d) = %v: gap at %d", tc.n, tc.maxChunks, tc.minPer, got, lo)
			}
			if rg[1] <= rg[0] {
				t.Fatalf("chunkRanges(%d,%d,%d) = %v: empty chunk", tc.n, tc.maxChunks, tc.minPer, got)
			}
			total += rg[1] - rg[0]
			lo = rg[1]
		}
		if total != tc.n {
			t.Fatalf("chunkRanges(%d,%d,%d) covers %d items", tc.n, tc.maxChunks, tc.minPer, total)
		}
		if len(got) > tc.maxChunks {
			t.Fatalf("chunkRanges(%d,%d,%d) = %d chunks, max %d", tc.n, tc.maxChunks, tc.minPer, len(got), tc.maxChunks)
		}
	}
}

// TestWorkerPoolConcurrentBatches: machine goroutines share one pool, each
// waiting only on its own batch.
func TestWorkerPoolConcurrentBatches(t *testing.T) {
	p := newWorkerPool(4)
	defer p.close()
	done := make(chan int, 8)
	for b := 0; b < 8; b++ {
		b := b
		go func() {
			tasks := make([]func(), 16)
			sum := make(chan int, 16)
			for i := range tasks {
				i := i
				tasks[i] = func() { sum <- i }
			}
			p.runAll(tasks)
			total := 0
			for range tasks {
				total += <-sum
			}
			if total != 120 {
				t.Errorf("batch %d: task sum %d, want 120", b, total)
			}
			done <- b
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
}

// TestWorkerPoolStartsOnFirstFanOut: a pool costs no goroutine until a
// batch of more than one task arrives, and a run that dispatches nothing —
// every selective query — starts and stops none.
func TestWorkerPoolStartsOnFirstFanOut(t *testing.T) {
	p := newWorkerPool(4)
	ran := 0
	p.runAll(nil)
	p.runAll([]func(){func() { ran++ }})
	if ran != 1 {
		t.Fatalf("single task ran %d times", ran)
	}
	if p.tasks != nil {
		t.Fatal("the pool started workers for batches that never fan out")
	}
	p.close() // a no-op: nothing to stop

	// The same through a whole run: figure 1's query is far below both
	// fan-out thresholds.
	c := clusterFor(t, figure1Graph(), 2)
	opts := Options{Parallelism: 4}
	plan, err := NewPlanner(c, opts).Plan(figure1Query())
	if err != nil {
		t.Fatal(err)
	}
	matches := 0
	r := &execution{ex: NewExecutor(c, opts), plan: plan, emit: func(ms []Match) (int, bool) {
		matches += len(ms)
		return len(ms), true
	}}
	stats, err := r.run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if matches != 2 || stats.Parallelism != 4 || stats.ParallelTasks != 0 {
		t.Fatalf("%d matches at parallelism %d with %d tasks; want 2, 4, 0", matches, stats.Parallelism, stats.ParallelTasks)
	}
	if r.pool == nil || r.pool.tasks != nil {
		t.Fatalf("a run that dispatched no task started its workers (pool %+v)", r.pool)
	}
}
