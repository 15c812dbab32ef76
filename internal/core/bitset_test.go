package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"stwig/internal/graph"
)

// TestPropertyBitsetMatchesMapSet cross-checks the bitset against a map-set
// reference under random set/test/union/popcount workloads.
func TestPropertyBitsetMatchesMapSet(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int64(1 + rng.Intn(500))
		a := newBitset(n)
		b := newBitset(n)
		ref := map[graph.NodeID]bool{}
		refB := map[graph.NodeID]bool{}
		for i := 0; i < 200; i++ {
			id := graph.NodeID(rng.Int63n(n))
			switch rng.Intn(3) {
			case 0:
				a.set(id)
				ref[id] = true
			case 1:
				b.set(id)
				refB[id] = true
			case 2:
				if a.test(id) != ref[id] {
					return false
				}
			}
		}
		if a.popcount() != len(ref) || b.popcount() != len(refB) {
			return false
		}
		// Union — bit by bit, the way the proxy builds a binding set from
		// several machines' matches — and recheck.
		b.forEach(a.set)
		for id := range refB {
			ref[id] = true
		}
		if a.popcount() != len(ref) {
			return false
		}
		seen := 0
		ok := true
		a.forEach(func(id graph.NodeID) {
			seen++
			if !ref[id] {
				ok = false
			}
		})
		return ok && seen == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBitsetForEachOrder(t *testing.T) {
	s := newBitset(200)
	want := []graph.NodeID{3, 64, 65, 190}
	for _, id := range want {
		s.set(id)
	}
	var got []graph.NodeID
	s.forEach(func(id graph.NodeID) { got = append(got, id) })
	if len(got) != len(want) {
		t.Fatalf("forEach visited %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("forEach order %v, want %v", got, want)
		}
	}
}

// TestPropertyJoinerEqualsNaiveJoin compares the pipelined joiner against a
// naive nested-loop join over randomly generated factored relations.
func TestPropertyJoinerEqualsNaiveJoin(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Query: a path 0-1-2 decomposed as two relations sharing vertex 1.
		q := MustNewQuery([]string{"x", "y", "z"}, [][2]int{{0, 1}, {1, 2}})
		mkRel := func(twig STwig, nMatches, domain int) *relation {
			matches := make([]STwigMatch, 0, nMatches)
			usedRoots := map[graph.NodeID]bool{} // invariant: one factored match per root
			for i := 0; i < nMatches; i++ {
				root := graph.NodeID(rng.Intn(domain))
				if usedRoots[root] {
					continue
				}
				usedRoots[root] = true
				leafSets := make([][]graph.NodeID, len(twig.Leaves))
				for li := range leafSets {
					sz := 1 + rng.Intn(3)
					set := map[graph.NodeID]bool{}
					for j := 0; j < sz; j++ {
						set[graph.NodeID(rng.Intn(domain))] = true
					}
					for id := range set {
						leafSets[li] = append(leafSets[li], id)
					}
					sortNodeIDs(leafSets[li])
				}
				matches = append(matches, STwigMatch{Root: root, LeafSets: leafSets})
			}
			return newRelation(twig, matches)
		}
		const domain = 12
		r1 := mkRel(STwig{Root: 0, Leaves: []int{1}}, 1+rng.Intn(6), domain)
		r2 := mkRel(STwig{Root: 1, Leaves: []int{2}}, 1+rng.Intn(6), domain)

		// Naive join: enumerate all expansions of both relations and keep
		// consistent injective pairs.
		naive := map[string]bool{}
		for _, m1 := range r1.matches {
			for _, v1 := range m1.LeafSets[0] {
				if v1 == m1.Root {
					continue
				}
				for _, m2 := range r2.matches {
					if m2.Root != v1 {
						continue
					}
					for _, v2 := range m2.LeafSets[0] {
						if v2 == m1.Root || v2 == v1 {
							continue
						}
						naive[Match{Assignment: []graph.NodeID{m1.Root, v1, v2}}.Key()] = true
					}
				}
			}
		}

		var got []Match
		j := &joiner{
			q:         q,
			rels:      []*relation{r1, r2},
			blockSize: 3,
			emitBlock: collectInto(&got),
		}
		j.run()
		gotSet := MatchSet(got)
		if len(gotSet) != len(got) || len(gotSet) != len(naive) {
			t.Logf("seed %d: joiner %d distinct, naive %d", seed, len(gotSet), len(naive))
			return false
		}
		for k := range naive {
			if !gotSet[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func sortNodeIDs(ids []graph.NodeID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j-1] > ids[j]; j-- {
			ids[j-1], ids[j] = ids[j], ids[j-1]
		}
	}
}
