package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"stwig/internal/graph"
	"stwig/internal/rmat"
)

// Reference implementations of what the join kept in Go maps before it moved
// to sorted arrays — the per-relation hash indexes and the semi-join over
// map[NodeID]struct{} value sets — kept here, in test code only, as the
// oracle the flat structures are compared against.

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

// refCopyMatches is the old per-leaf-set deep copy.
func refCopyMatches(src []STwigMatch) []STwigMatch {
	dst := make([]STwigMatch, 0, len(src))
	for _, m := range src {
		nm := STwigMatch{Root: m.Root, LeafSets: make([][]graph.NodeID, len(m.LeafSets))}
		for i, s := range m.LeafSets {
			nm.LeafSets[i] = append([]graph.NodeID(nil), s...)
		}
		dst = append(dst, nm)
	}
	return dst
}

// refRelation is what the map semi-join works on.
type refRelation struct {
	twig    STwig
	matches []STwigMatch
}

// refSemijoinReduce is the map version of semijoinReduce, on deep copies:
// it returns the reduced relations and the number of passes.
func refSemijoinReduce(n int, in []*relation) ([]*refRelation, int) {
	rels := make([]*refRelation, len(in))
	for i, r := range in {
		rels[i] = &refRelation{twig: r.twig, matches: refCopyMatches(r.matches)}
	}
	const maxPasses = 4
	for pass := 0; pass < maxPasses; pass++ {
		allowed := make([]map[graph.NodeID]struct{}, n)
		for _, r := range rels {
			for v, set := range refValueSets(r, n) {
				if set == nil {
					continue
				}
				if allowed[v] == nil {
					allowed[v] = set
					continue
				}
				for id := range allowed[v] {
					if _, ok := set[id]; !ok {
						delete(allowed[v], id)
					}
				}
			}
		}
		changed := false
		for _, r := range rels {
			if refFilterRelation(r, allowed) {
				changed = true
			}
		}
		if !changed {
			return rels, pass + 1
		}
	}
	return rels, maxPasses
}

func refValueSets(r *refRelation, n int) []map[graph.NodeID]struct{} {
	vals := make([]map[graph.NodeID]struct{}, n)
	vals[r.twig.Root] = make(map[graph.NodeID]struct{}, len(r.matches))
	for _, leaf := range r.twig.Leaves {
		if vals[leaf] == nil {
			vals[leaf] = make(map[graph.NodeID]struct{})
		}
	}
	for _, m := range r.matches {
		vals[r.twig.Root][m.Root] = struct{}{}
		for i, leaf := range r.twig.Leaves {
			for _, id := range m.LeafSets[i] {
				vals[leaf][id] = struct{}{}
			}
		}
	}
	return vals
}

func refFilterRelation(r *refRelation, allowed []map[graph.NodeID]struct{}) bool {
	changed := false
	kept := r.matches[:0]
matchLoop:
	for _, m := range r.matches {
		if a := allowed[r.twig.Root]; a != nil {
			if _, ok := a[m.Root]; !ok {
				changed = true
				continue
			}
		}
		for i, leaf := range r.twig.Leaves {
			a := allowed[leaf]
			if a == nil {
				continue
			}
			set := m.LeafSets[i]
			filtered := set[:0]
			for _, id := range set {
				if _, ok := a[id]; ok {
					filtered = append(filtered, id)
				}
			}
			if len(filtered) != len(set) {
				changed = true
			}
			if len(filtered) == 0 {
				continue matchLoop
			}
			m.LeafSets[i] = filtered
		}
		if len(r.twig.Leaves) > 1 && !injectivelySatisfiable(m.LeafSets) {
			changed = true
			continue
		}
		kept = append(kept, m)
	}
	r.matches = kept
	return changed
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

// semijoinCase is one generated input of the semi-join comparison: a small
// connected query's decomposition and one factored relation per STwig.
type semijoinCase struct {
	q    *Query
	rels []*relation
}

// genSemijoinCase draws a random small query, decomposes it like the
// planner does, and fills every STwig's relation with random matches over a
// small id domain, so that value sets overlap only partly and several
// passes happen.
func genSemijoinCase(rng *rand.Rand) semijoinCase {
	n := 2 + rng.Intn(5)
	labels := make([]string, n)
	for i := range labels {
		labels[i] = fmt.Sprintf("l%d", i)
	}
	var edges [][2]int
	seen := map[[2]int]bool{}
	add := func(u, v int) {
		if u > v {
			u, v = v, u
		}
		if u != v && !seen[[2]int{u, v}] {
			seen[[2]int{u, v}] = true
			edges = append(edges, [2]int{u, v})
		}
	}
	for v := 1; v < n; v++ {
		add(rng.Intn(v), v)
	}
	for i := rng.Intn(3); i > 0; i-- {
		add(rng.Intn(n), rng.Intn(n))
	}
	q := MustNewQuery(labels, edges)
	freq := make([]float64, n)
	for i := range freq {
		freq[i] = 1 + float64(rng.Intn(5))
	}
	dec := DecomposeOrdered(q, freq)
	domain := 3 + rng.Intn(30)
	c := semijoinCase{q: q}
	for _, twig := range dec.Twigs {
		count := rng.Intn(60)
		if rng.Intn(8) == 0 {
			count = 0
		}
		c.rels = append(c.rels, newRelation(twig, genMatches(rng, twig, count, domain, rng.Intn(2) == 0)))
	}
	return c
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

// checkSemijoin runs the flat semi-join and the map reference on c and
// requires the same round count and, relation by relation, the same matches
// with the same leaf sets; the input match arrays must come out untouched.
func checkSemijoin(t *testing.T, c semijoinCase, js *joinScratch) {
	t.Helper()
	before := fnv.New64a()
	for _, r := range c.rels {
		hashMatches(before, r.matches)
	}
	shared := make([][]STwigMatch, len(c.rels))
	for i, r := range c.rels {
		shared[i] = r.matches
	}
	want, wantRounds := refSemijoinReduce(c.q.NumVertices(), c.rels)

	rounds := semijoinReduce(c.q, c.rels, js)
	if rounds != wantRounds {
		t.Fatalf("%d rounds, the map semi-join takes %d", rounds, wantRounds)
	}
	for i, r := range c.rels {
		if len(r.matches) != len(want[i].matches) {
			t.Fatalf("relation %d %v: %d matches left, the map semi-join leaves %d", i, r.twig, len(r.matches), len(want[i].matches))
		}
		for k, m := range r.matches {
			w := want[i].matches[k]
			if m.Root != w.Root || !slices.EqualFunc(m.LeafSets, w.LeafSets, func(a, b []graph.NodeID) bool { return slices.Equal(a, b) }) {
				t.Fatalf("relation %d %v, match %d: %v, the map semi-join leaves %v", i, r.twig, k, m, w)
			}
		}
		if card, _ := r.size(); r.card != card {
			t.Fatalf("relation %d: stale cardinality %v, its matches denote %v", i, r.card, card)
		}
	}
	after := fnv.New64a()
	for _, ms := range shared {
		hashMatches(after, ms)
	}
	if before.Sum64() != after.Sum64() {
		t.Fatal("the semi-join wrote into the match arrays it was given")
	}
}

func TestSemijoinMatchesMapReference(t *testing.T) {
	// One scratch for all cases, as one machine's serves query after query.
	js := &joinScratch{}
	for seed := int64(0); seed < 400; seed++ {
		checkSemijoin(t, genSemijoinCase(rand.New(rand.NewSource(seed))), js)
	}
}

func FuzzSemijoin(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 42, 1 << 33} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkSemijoin(t, genSemijoinCase(rand.New(rand.NewSource(seed))), &joinScratch{})
	})
}

// TestJoinLeavesExplorationResultsUntouched: every machine's join aliases
// the same exploration results, so nothing in exchangeAndJoin — remote
// extension, the semi-join's filtering, index building — may write to them.
// Checked by hashing perTwig before and after, on a cyclic query whose
// semi-join does filter, over several machine counts.
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
