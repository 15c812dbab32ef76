package core

import (
	"context"
	"testing"
	"time"

	"stwig/internal/graph"
	"stwig/internal/memcloud"
)

func TestStreamLimiterCapsEmission(t *testing.T) {
	sl := Limits{MaxMatches: 3}.NewStreamLimiter()
	var got int
	emit := sl.Wrap(func(Match) bool { got++; return true })
	for i := 0; i < 10; i++ {
		if !emit(Match{Assignment: []graph.NodeID{graph.NodeID(i)}}) {
			break
		}
	}
	if got != 3 || sl.Count() != 3 {
		t.Fatalf("emitted %d, limiter counted %d; want 3", got, sl.Count())
	}
	if !sl.LimitHit() {
		t.Fatal("LimitHit not set after cap reached")
	}
}

func TestStreamLimiterUnlimited(t *testing.T) {
	sl := Limits{}.NewStreamLimiter()
	emit := sl.Wrap(func(Match) bool { return true })
	for i := 0; i < 100; i++ {
		if !emit(Match{}) {
			t.Fatalf("unlimited limiter stopped at %d", i)
		}
	}
	if sl.Count() != 100 || sl.LimitHit() {
		t.Fatalf("count=%d hit=%v; want 100,false", sl.Count(), sl.LimitHit())
	}
}

func TestStreamLimiterRespectsDownstreamStop(t *testing.T) {
	sl := Limits{MaxMatches: 10}.NewStreamLimiter()
	emit := sl.Wrap(func(Match) bool { return false })
	if emit(Match{}) {
		t.Fatal("emit should propagate downstream false")
	}
	if sl.Count() != 0 || sl.LimitHit() {
		t.Fatalf("count=%d hit=%v; downstream stop must not count as a limit hit", sl.Count(), sl.LimitHit())
	}
}

func TestLimitsWithContext(t *testing.T) {
	ctx, cancel := Limits{Timeout: time.Millisecond}.WithContext(context.Background())
	defer cancel()
	if _, ok := ctx.Deadline(); !ok {
		t.Fatal("timeout limit did not set a deadline")
	}
	ctx2, cancel2 := Limits{}.WithContext(context.Background())
	if _, ok := ctx2.Deadline(); ok {
		t.Fatal("zero limit set a deadline")
	}
	cancel2()
	if ctx2.Err() == nil {
		t.Fatal("cancel did not propagate")
	}
}

func TestLimitsEndToEndWithMatchStream(t *testing.T) {
	g := lineGraphABC(t)
	cluster := memcloud.MustNewCluster(memcloud.Config{Machines: 2})
	if err := cluster.LoadGraph(g); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(cluster, Options{})
	q := MustNewQuery([]string{"a", "b"}, [][2]int{{0, 1}})

	lim := Limits{MaxMatches: 1}
	ctx, cancel := lim.WithContext(context.Background())
	defer cancel()
	sl := lim.NewStreamLimiter()
	stats, err := eng.MatchStream(ctx, q, sl.Wrap(func(Match) bool { return true }))
	if err != nil {
		t.Fatal(err)
	}
	if sl.Count() != 1 || !sl.LimitHit() {
		t.Fatalf("count=%d hit=%v; want exactly the cap", sl.Count(), sl.LimitHit())
	}
	if !stats.Truncated {
		t.Fatal("stream stopped by limiter must report Truncated")
	}
}

func TestEngineSnapshot(t *testing.T) {
	g := lineGraphABC(t)
	cluster := memcloud.MustNewCluster(memcloud.Config{Machines: 2})
	if err := cluster.LoadGraph(g); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(cluster, Options{})
	q := MustNewQuery([]string{"a", "b"}, [][2]int{{0, 1}})
	for i := 0; i < 2; i++ {
		if _, err := eng.Match(q); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cluster.AddNode("a"); err != nil {
		t.Fatal(err)
	}

	snap := eng.Snapshot()
	if snap.Machines != 2 {
		t.Fatalf("Machines = %d, want 2", snap.Machines)
	}
	if snap.Nodes != g.NumNodes()+1 {
		t.Fatalf("Nodes = %d, want %d", snap.Nodes, g.NumNodes()+1)
	}
	if snap.Queries != 2 {
		t.Fatalf("Queries = %d, want 2", snap.Queries)
	}
	if snap.Epoch == 0 {
		t.Fatal("epoch not surfaced after an update")
	}
	if snap.Updates.NodesAdded != 1 {
		t.Fatalf("Updates.NodesAdded = %d, want 1", snap.Updates.NodesAdded)
	}
	if snap.MemoryBytes <= 0 {
		t.Fatal("MemoryBytes not surfaced")
	}
}

// TestEngineSnapshotConcurrentWithUpdates pins Snapshot's documented
// guarantee: it may run concurrently with dynamic updates (the daemon's
// GET /stats does exactly that). Run under -race, this catches any
// unlocked walk of the stores or indexes.
func TestEngineSnapshotConcurrentWithUpdates(t *testing.T) {
	g := lineGraphABC(t)
	cluster := memcloud.MustNewCluster(memcloud.Config{Machines: 2})
	if err := cluster.LoadGraph(g); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(cluster, Options{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			id, err := cluster.AddNode("grow")
			if err != nil {
				t.Error(err)
				return
			}
			if i > 0 {
				if err := cluster.AddEdge(id-1, id); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for {
		select {
		case <-done:
			if snap := eng.Snapshot(); snap.Updates.NodesAdded != 200 {
				t.Fatalf("NodesAdded = %d, want 200", snap.Updates.NodesAdded)
			}
			return
		default:
			_ = eng.Snapshot()
		}
	}
}

// lineGraphABC builds the 4-vertex path a-b-a-c used by the limits tests:
// two (a,b) edges exist so MaxMatches=1 genuinely truncates.
func lineGraphABC(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(graph.Undirected(), graph.Dedupe())
	b.AddNode("a")
	b.AddNode("b")
	b.AddNode("a")
	b.AddNode("c")
	b.MustAddEdge(0, 1)
	b.MustAddEdge(1, 2)
	b.MustAddEdge(2, 3)
	return b.Build()
}
