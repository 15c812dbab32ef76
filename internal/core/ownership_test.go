package core_test

import (
	"context"
	"testing"
	"unsafe"

	"stwig/internal/baseline"
	"stwig/internal/core"
	"stwig/internal/graph"
	"stwig/internal/memcloud"
	"stwig/internal/rmat"
)

// Who owns a match. MatchStreamBlocks lends: a block — the slice and every
// assignment in it — is the joiner's buffer, dead once the callback returns.
// MatchStream (and Match/MatchContext on top of it) gives: what its callback
// receives is the caller's to keep.

// streamFixture is a 4,096-vertex R-MAT graph and a 4-vertex path query
// with 4,924 matches on it: some twenty flushes per joiner at the default
// block size.
func streamFixture(t testing.TB, machines int) (*graph.Graph, *memcloud.Cluster, *core.Query) {
	t.Helper()
	g := rmat.MustGenerate(rmat.Params{Scale: 12, AvgDegree: 8, NumLabels: 16, Seed: 3})
	c := memcloud.MustNewCluster(memcloud.Config{Machines: machines})
	if err := c.LoadGraph(g); err != nil {
		t.Fatal(err)
	}
	l := rmat.LabelName
	return g, c, core.MustNewQuery([]string{l(2), l(0), l(1), l(7)}, [][2]int{{0, 1}, {1, 2}, {2, 3}})
}

// TestMatchStreamMatchesAreRetainable collects every match of the per-match
// API across all flushes and only then compares them with the VF2 oracle: a
// match that aliased the joiner's block would have been overwritten by the
// flushes that followed it.
func TestMatchStreamMatchesAreRetainable(t *testing.T) {
	g, c, q := streamFixture(t, 2)
	want := core.MatchSet(baseline.VF2(g, q, 0))
	if len(want) < 4000 {
		t.Fatalf("fixture has %d matches, want thousands", len(want))
	}
	eng := core.NewEngine(c, core.Options{BlockSize: 64})
	var kept []core.Match
	stats, err := eng.MatchStream(context.Background(), q, func(m core.Match) bool {
		kept = append(kept, m)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.EmitFlushes < 10 {
		t.Fatalf("%d flushes; the fixture must span many", stats.EmitFlushes)
	}
	got := core.MatchSet(kept)
	if len(kept) != len(want) || len(got) != len(want) {
		t.Fatalf("kept %d matches, %d distinct; VF2 finds %d", len(kept), len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("VF2 match %s is not among the kept matches", k)
		}
	}
	res, err := eng.Match(q)
	if err != nil {
		t.Fatal(err)
	}
	if again := core.MatchSet(res.Matches); len(res.Matches) != len(want) || len(again) != len(want) {
		t.Fatalf("Match returned %d matches, %d distinct; VF2 finds %d", len(res.Matches), len(again), len(want))
	}
}

// TestBlockAssignmentsAreReusedAfterTheCallback pins the other half of the
// contract, so that a per-match allocation cannot come back unnoticed: the
// assignments of a block lie back to back in one array, and that array is
// the same from flush to flush.
func TestBlockAssignmentsAreReusedAfterTheCallback(t *testing.T) {
	_, c, q := streamFixture(t, 1)
	eng := core.NewEngine(c, core.Options{})
	n := q.NumVertices()
	at := func(m core.Match) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(m.Assignment))) }
	blocks := map[uintptr]int{}
	flushes, matches := 0, 0
	_, err := eng.MatchStreamBlocks(context.Background(), q, func(ms []core.Match) (int, bool) {
		flushes++
		matches += len(ms)
		blocks[at(ms[0])]++
		for i := 1; i < len(ms); i++ {
			if at(ms[i]) != at(ms[i-1])+uintptr(n)*unsafe.Sizeof(graph.NodeID(0)) {
				t.Errorf("flush %d: assignment %d does not follow assignment %d in one array", flushes, i, i-1)
				return len(ms), false
			}
		}
		return len(ms), true
	})
	if err != nil {
		t.Fatal(err)
	}
	if flushes < 10 || matches < 4000 {
		t.Fatalf("%d flushes, %d matches; the fixture must span many", flushes, matches)
	}
	// One machine, one joiner: one block, but for the doublings it takes to
	// reach the flush threshold during the first flush.
	if len(blocks) > 2 {
		t.Errorf("%d flushes came out of %d different arrays; the joiner's block is not reused", flushes, len(blocks))
	}
}
