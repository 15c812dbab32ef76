package core

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"stwig/internal/graph"
	"stwig/internal/rmat"
)

// The reference implementation of what the join kept in Go maps before it
// moved to sorted arrays — the per-relation hash index — kept here, in test
// code only, as the oracle the flat posting arrays are compared against.

// refIndex is the old index: match indexes grouped by root, and per leaf by
// candidate id, each list in ascending match order.
type refIndex struct {
	byRoot map[graph.NodeID][]int32
	byLeaf []map[graph.NodeID][]int32
}

func buildRefIndex(twig STwig, matches []STwigMatch) refIndex {
	ix := refIndex{
		byRoot: make(map[graph.NodeID][]int32),
		byLeaf: make([]map[graph.NodeID][]int32, len(twig.Leaves)),
	}
	for li := range ix.byLeaf {
		ix.byLeaf[li] = make(map[graph.NodeID][]int32)
	}
	for i, m := range matches {
		ix.byRoot[m.Root] = append(ix.byRoot[m.Root], int32(i))
		for li := range twig.Leaves {
			for _, id := range m.LeafSets[li] {
				ix.byLeaf[li][id] = append(ix.byLeaf[li][id], int32(i))
			}
		}
	}
	return ix
}

// genMatches draws count factored matches for twig over ids [0,domain):
// roots repeat when uniqueRoots is false, leaf sets are sorted and distinct
// and share ids across matches.
func genMatches(rng *rand.Rand, twig STwig, count, domain int, uniqueRoots bool) []STwigMatch {
	var matches []STwigMatch
	used := map[graph.NodeID]bool{}
	for i := 0; i < count; i++ {
		root := graph.NodeID(rng.Intn(domain))
		if uniqueRoots && used[root] {
			continue
		}
		used[root] = true
		sets := make([][]graph.NodeID, len(twig.Leaves))
		for li := range sets {
			for k := 1 + rng.Intn(4); k > 0; k-- {
				sets[li] = append(sets[li], graph.NodeID(rng.Intn(domain)))
			}
			slices.Sort(sets[li])
			sets[li] = slices.Compact(sets[li])
		}
		matches = append(matches, STwigMatch{Root: root, LeafSets: sets})
	}
	return matches
}

// postingMatches lists the match indexes of a probe's run.
func postingMatches(run []posting) []int32 {
	var out []int32
	for _, p := range run {
		out = append(out, p.match)
	}
	return out
}

// TestRelationIndexMatchesMapReference: every root and leaf probe of the
// sorted posting arrays returns the same match indexes, in the same order,
// as the old hash index — on empty and one-match relations, duplicate roots,
// leaf ids shared between matches, and match arrays extended with another
// machine's matches the way the exchange extends them.
func TestRelationIndexMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	twigs := []STwig{
		{Root: 0, Leaves: []int{1}},
		{Root: 2, Leaves: []int{0, 1}},
		{Root: 1, Leaves: []int{0, 2, 3}},
	}
	for trial := 0; trial < 200; trial++ {
		twig := twigs[trial%len(twigs)]
		domain := 4 + rng.Intn(40)
		var count int
		switch trial % 5 {
		case 0:
			count = 0
		case 1:
			count = 1
		default:
			count = rng.Intn(120)
		}
		local := genMatches(rng, twig, count, domain, trial%2 == 0)
		var snapshot []STwigMatch
		r := &relation{}
		if trial%3 == 0 {
			// One relation value serves query after query: whatever an
			// earlier, larger relation left in its buffers must not show.
			r.reset(twig, genMatches(rng, twig, 150, domain, false))
			r.index(0)
			r.index(1)
			r.release()
		}
		r.reset(twig, local)
		if trial%4 == 3 {
			snapshot = slices.Clone(local)
			r.extend(genMatches(rng, twig, 1+rng.Intn(40), domain, false))
			r.extend(genMatches(rng, twig, rng.Intn(10), domain, false))
		}
		ref := buildRefIndex(twig, r.matches)
		for id := graph.NodeID(-1); id <= graph.NodeID(domain); id++ {
			if got, want := postingMatches(probe(r.index(0), id)), ref.byRoot[id]; !slices.Equal(got, want) {
				t.Fatalf("trial %d: root probe %d = %v, map index has %v", trial, id, got, want)
			}
			for li := range twig.Leaves {
				if got, want := postingMatches(probe(r.index(1+li), id)), ref.byLeaf[li][id]; !slices.Equal(got, want) {
					t.Fatalf("trial %d: leaf %d probe %d = %v, map index has %v", trial, li, id, got, want)
				}
			}
		}
		if snapshot != nil && !slices.EqualFunc(snapshot, local, func(a, b STwigMatch) bool {
			return a.Root == b.Root && len(a.LeafSets) == len(b.LeafSets)
		}) {
			t.Fatalf("trial %d: extending the relation wrote into the shared match array", trial)
		}
	}
}

// hashMatches folds every root, leaf-set length and candidate id, in order.
func hashMatches(h interface{ Write([]byte) (int, error) }, matches []STwigMatch) {
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	put(int64(len(matches)))
	for _, m := range matches {
		put(int64(m.Root))
		for _, s := range m.LeafSets {
			put(int64(len(s)))
			for _, id := range s {
				put(int64(id))
			}
		}
	}
}

// TestJoinLeavesExplorationResultsUntouched: every machine's join aliases
// the same exploration results, so nothing in exchangeAndJoin — remote
// extension, index building — may write to them. Checked by hashing perTwig
// before and after, on a cyclic query, over several machine counts.
func TestJoinLeavesExplorationResultsUntouched(t *testing.T) {
	g := rmat.MustGenerate(rmat.Params{Scale: 10, AvgDegree: 8, NumLabels: 4, Seed: 5})
	l := rmat.LabelName
	q := MustNewQuery([]string{l(0), l(1), l(2), l(3)}, [][2]int{{0, 1}, {1, 2}, {1, 3}, {2, 3}})
	for _, machines := range []int{1, 3, 8} {
		c := clusterFor(t, g, machines)
		opts := Options{BlockSize: 8}
		plan, err := NewPlanner(c, opts).Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		matches := 0
		r := &execution{ex: NewExecutor(c, opts), plan: plan, cut: restriction{ids: wholeIDSpace}, emit: func(ms []Match) (int, bool) {
			matches += len(ms)
			return len(ms), true
		}}
		r.sc = newRunScratch(machines)
		perTwig, err := r.explore(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		digest := func() uint64 {
			h := fnv.New64a()
			for _, perMachine := range perTwig {
				for _, ms := range perMachine {
					hashMatches(h, ms)
				}
			}
			return h.Sum64()
		}
		before := digest()
		r.exchangeAndJoin(context.Background(), perTwig)
		if matches == 0 {
			t.Fatalf("%d machines: the fixture query has no matches", machines)
		}
		if digest() != before {
			t.Fatalf("%d machines: the join wrote into the exploration results", machines)
		}
	}
}
