// Sliced runs (Query.Sliced): the k runs whose ranges partition the id space
// must produce the unsliced answer between them, match for match, each run
// doing its part of the work and none of the others'. Checked on the
// cross-check corpus (crosscheck_test.go: the same seeded graphs and random
// patterns) under three partitioners and 1/3/8 machines.
package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"stwig/internal/core"
	"stwig/internal/graph"
	"stwig/internal/memcloud"
	"stwig/internal/rmat"
)

// crossCheckCase rebuilds what seed gives TestCrossCheckEngineVsBaselinesUnderUpdates:
// its graph and its patterns, drawn in the same order from the same source.
func crossCheckCase(seed int64) (*graph.Graph, []*core.Query) {
	rng := rand.New(rand.NewSource(seed))
	g := rmat.MustGenerate(rmat.Params{
		Scale:     5 + rng.Intn(2),
		AvgDegree: 3 + rng.Intn(3),
		NumLabels: 3,
		Seed:      seed + 1000,
	})
	rng.Intn(4) // the cross-check's machine count
	labels := []string{rmat.LabelName(0), rmat.LabelName(1), rmat.LabelName(2)}
	return g, []*core.Query{randomPattern(rng, labels), randomPattern(rng, labels)}
}

// slicePartitioner builds one of the three placement policies for g.
func slicePartitioner(kind string, g *graph.Graph, k int) memcloud.Partitioner {
	switch kind {
	case "range":
		return memcloud.RangePartitioner{K: k, N: g.NumNodes()}
	case "bfs":
		return memcloud.NewBFSPartitioner(g, k)
	}
	return memcloud.HashPartitioner{K: k}
}

// matchMultiset counts matches by key: a duplicate is a count of two, not a
// set member that hides it.
func matchMultiset(ms []core.Match) map[string]int {
	out := make(map[string]int, len(ms))
	for _, m := range ms {
		out[m.Key()]++
	}
	return out
}

// TestSlicedRunsPartitionTheAnswer: for k in {1, 2, 3, 5} the multiset union
// of the k sliced runs is the unsliced run, with the divided count N not a
// multiple of k, with N pinned below the live vertex count (the late ids
// belong to the last slice) and with bindings off. Beyond the answer, the
// work: no run emits a match outside its range — there is no filter behind
// the engine here to hide one — and the STwig rooted at the centre vertex is
// matched once per root across all slices, never once per slice. Every run
// of one pattern, sliced or not, is planned alike.
func TestSlicedRunsPartitionTheAnswer(t *testing.T) {
	for seed := int64(0); seed < 9; seed++ {
		g, queries := crossCheckCase(seed)
		rng := rand.New(rand.NewSource(seed))
		for _, kind := range []string{"hash", "range", "bfs"} {
			for _, machines := range []int{1, 3, 8} {
				cluster := memcloud.MustNewCluster(memcloud.Config{Machines: machines, Partitioner: slicePartitioner(kind, g, machines)})
				if err := cluster.LoadGraph(g); err != nil {
					t.Fatal(err)
				}
				// Five late vertices, wired into the loaded graph: ids past
				// the count a coordinator pinned before they arrived.
				loaded := g.NumNodes()
				var late []memcloud.Mutation
				for i := int64(0); i < 5; i++ {
					late = append(late, memcloud.Mutation{Op: memcloud.MutAddNode, Label: rmat.LabelName(rng.Intn(3))})
				}
				for i := int64(0); i < 5; i++ {
					for _, v := range rng.Perm(int(loaded))[:3] {
						late = append(late, memcloud.Mutation{Op: memcloud.MutAddEdge, U: graph.NodeID(loaded + i), V: graph.NodeID(v)})
					}
				}
				applyToCluster(t, cluster, late)

				for _, opts := range []core.Options{{Seed: seed, BlockSize: 8}, {Seed: seed, BlockSize: 8, NoBindings: true}} {
					eng := core.NewEngine(cluster, opts)
					for qi, q := range queries {
						desc := fmt.Sprintf("seed %d, %s x %d, query %d, NoBindings=%v", seed, kind, machines, qi, opts.NoBindings)
						whole, err := eng.Match(q)
						if err != nil {
							t.Fatalf("%s: %v", desc, err)
						}
						want := matchMultiset(whole.Matches)
						center := q.Center()
						for _, n := range []int64{cluster.NumNodes(), loaded} {
							for _, k := range []int{1, 2, 3, 5} {
								checkSlices(t, fmt.Sprintf("%s, N=%d, k=%d", desc, n, k), eng, q, center, n, k, whole, want, opts.NoBindings)
							}
						}
					}
				}
			}
		}
	}
}

// checkSlices runs q's k slices over the range partition of n ids and
// compares them, together, with the unsliced run.
func checkSlices(t *testing.T, desc string, eng *core.Engine, q *core.Query, center int, n int64, k int, whole *core.Result, want map[string]int, noBindings bool) {
	t.Helper()
	got := make(map[string]int, len(want))
	rootedAtCenter := make([]int, len(whole.Stats.STwigMatchCounts))
	for i := 0; i < k; i++ {
		lo, hi := memcloud.RangePartitioner{K: k, N: n}.Range(i)
		res, err := eng.Match(q.Sliced(lo, hi))
		if err != nil {
			t.Fatalf("%s, slice %d: %v", desc, i, err)
		}
		for _, m := range res.Matches {
			if id := m.Assignment[center]; id < lo || id >= hi {
				t.Fatalf("%s, slice %d: match %v binds the centre v%d outside [%d, %d)", desc, i, m, center, lo, hi)
			}
			got[m.Key()]++
		}
		if !slices.EqualFunc(res.Stats.Decomposition.Twigs, whole.Stats.Decomposition.Twigs, func(a, b core.STwig) bool {
			return a.Root == b.Root && slices.Equal(a.Leaves, b.Leaves)
		}) {
			t.Fatalf("%s, slice %d: the slice bent the plan: %v, unsliced %v", desc, i, res.Stats.Decomposition, whole.Stats.Decomposition)
		}
		for ti, c := range res.Stats.STwigMatchCounts {
			rootedAtCenter[ti] += c
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: the slices hold %d distinct matches, the unsliced run %d", desc, len(got), len(want))
	}
	for key, c := range want {
		if got[key] != c {
			t.Fatalf("%s: match %s is in the slices %d times, in the unsliced run %d", desc, key, got[key], c)
		}
	}
	// Every root of a centre-rooted STwig lies in exactly one slice, and a
	// sliced run's bindings are never looser than the unsliced run's: no root
	// is matched twice, and with nothing earlier to tighten the bindings —
	// the first STwig, or bindings off — every root is matched exactly once.
	for ti, twig := range whole.Stats.Decomposition.Twigs {
		if twig.Root != center {
			continue
		}
		sum, unsliced := rootedAtCenter[ti], whole.Stats.STwigMatchCounts[ti]
		exact := ti == 0 || noBindings
		if sum > unsliced || (exact && sum != unsliced) {
			t.Fatalf("%s: STwig %d is rooted at the centre: the slices matched it %d times in total, the unsliced run %d (exact: %v)", desc, ti, sum, unsliced, exact)
		}
	}
}

// centerRank is what Center orders by, recomputed the plain way: a vertex's
// eccentricity and degree.
func centerRank(q *core.Query, v int) (ecc, degree int) {
	for _, hops := range q.ShortestPaths()[v] {
		ecc = max(ecc, hops)
	}
	return ecc, q.Degree(v)
}

// TestCenterDependsOnThePatternAlone pins the vertex sliced runs cut along:
// least eccentricity, then highest degree, then lowest index; the same
// vertex whatever the cluster's label statistics make of the plan — two
// shards mid-update must not cut one answer along two vertices — and, under
// a renumbering of the pattern, the corresponding vertex.
func TestCenterDependsOnThePatternAlone(t *testing.T) {
	same := func(n int) []string { return slices.Repeat([]string{"x"}, n) }
	for _, c := range []struct {
		name  string
		q     *core.Query
		want  int
		where string
	}{
		{"one edge", core.MustNewQuery(same(2), [][2]int{{0, 1}}), 0, "all tied: the lowest index"},
		{"path of three", core.MustNewQuery(same(3), [][2]int{{0, 1}, {1, 2}}), 1, "the middle"},
		{"path of four", core.MustNewQuery(same(4), [][2]int{{0, 1}, {1, 2}, {2, 3}}), 1, "two middles of one degree: the lower index"},
		{"star", core.MustNewQuery(same(5), [][2]int{{0, 3}, {1, 3}, {2, 3}, {4, 3}}), 3, "the hub"},
		{"triangle", core.MustNewQuery(same(3), [][2]int{{0, 1}, {1, 2}, {0, 2}}), 0, "all tied: the lowest index"},
		{"triangle with a tail", core.MustNewQuery(same(4), [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}}), 2, "the only vertex one hop from all"},
		{"path of four with a spur", core.MustNewQuery(same(5), [][2]int{{0, 1}, {1, 2}, {2, 3}, {2, 4}}), 2, "eccentricity ties 1 and 2: the higher degree, not the lower index"},
	} {
		if got := c.q.Center(); got != c.want {
			t.Errorf("%s: Center() = %d, want %d (%s)", c.name, got, c.want, c.where)
		}
	}

	// One pattern, two clusters whose label frequencies mirror each other:
	// Algorithm 2 orders the STwigs differently, the centre does not move.
	q := core.MustNewQuery([]string{"A", "B", "C", "D"}, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	var plans []*core.Plan
	for _, counts := range [][4]int{{1, 4, 8, 16}, {16, 8, 4, 1}} {
		b := graph.NewBuilder(graph.Undirected(), graph.Dedupe())
		var byLabel [4][]graph.NodeID
		for l, n := range counts {
			for i := 0; i < n; i++ {
				byLabel[l] = append(byLabel[l], b.AddNode(string(rune('A'+l))))
			}
		}
		for l := 0; l < 3; l++ {
			for _, u := range byLabel[l] {
				for _, v := range byLabel[l+1] {
					b.MustAddEdge(u, v)
				}
			}
		}
		cluster := memcloud.MustNewCluster(memcloud.Config{Machines: 3})
		if err := cluster.LoadGraph(b.Build()); err != nil {
			t.Fatal(err)
		}
		plan, err := core.NewPlanner(cluster, core.Options{}).Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, plan)
	}
	if a, b := plans[0].Decomposition.String(), plans[1].Decomposition.String(); a == b {
		t.Fatalf("fixture: both clusters planned %s; the label statistics were meant to order the STwigs differently", a)
	}
	if plans[0].Center != q.Center() || plans[1].Center != q.Center() {
		t.Fatalf("plans %s and %s cut along v%d and v%d, the pattern's centre is v%d",
			plans[0].Decomposition, plans[1].Decomposition, plans[0].Center, plans[1].Center, q.Center())
	}

	// Renumbered by perm, the pattern's centre is as good a vertex as the old
	// centre's image — and is that image whenever no other vertex ties it.
	rng := rand.New(rand.NewSource(21))
	labels := []string{rmat.LabelName(0), rmat.LabelName(1), rmat.LabelName(2)}
	unique := 0
	for round := 0; round < 200; round++ {
		q := randomPattern(rng, labels)
		n := q.NumVertices()
		perm := rng.Perm(n)
		renumberedLabels := make([]string, n)
		for v := 0; v < n; v++ {
			renumberedLabels[perm[v]] = q.Label(v)
		}
		var renumberedEdges [][2]int
		for _, e := range q.Edges() {
			renumberedEdges = append(renumberedEdges, [2]int{perm[e[1]], perm[e[0]]})
		}
		rq := core.MustNewQuery(renumberedLabels, renumberedEdges)
		c, rc := q.Center(), rq.Center()
		ecc, deg := centerRank(q, c)
		ties := 0
		for v := 0; v < n; v++ {
			if e, d := centerRank(q, v); e < ecc || (e == ecc && d > deg) {
				t.Fatalf("round %d: Center() = v%d (eccentricity %d, degree %d) but v%d has (%d, %d)\n%s", round, c, ecc, deg, v, e, d, q)
			} else if e == ecc && d == deg {
				ties++
			}
		}
		if rEcc, rDeg := centerRank(rq, rc); rEcc != ecc || rDeg != deg {
			t.Fatalf("round %d: renumbering moved the centre from rank (%d, %d) to (%d, %d)\n%s", round, ecc, deg, rEcc, rDeg, q)
		}
		if ties == 1 {
			unique++
			if rc != perm[c] {
				t.Fatalf("round %d: the unique centre v%d maps to v%d, the renumbered pattern's centre is v%d\n%s", round, c, perm[c], rc, q)
			}
		}
	}
	if unique < 50 {
		t.Fatalf("only %d of 200 generated patterns have a unique centre", unique)
	}
}
