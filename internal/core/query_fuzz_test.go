package core

import (
	"math/rand"
	"strings"
	"testing"
)

// FuzzParseQuery hardens the v/e text parser against arbitrary network
// input — stwigd feeds request bodies straight into it, so it must never
// panic — and checks the parse → render → parse round trip preserves the
// canonical rendering.
func FuzzParseQuery(f *testing.F) {
	seeds := []string{
		"v 0 a\nv 1 b\ne 0 1\n",
		"v 0 author\nv 1 paper\nv 2 venue\ne 0 1\ne 1 2\ne 0 2\n",
		"# comment\n\nv 0 x\n",
		"e 0 1\n",
		"v 0 a\ne 0 0\n",
		"v 0 a\nv 1 a\ne 0 1\ne 1 0\n",
		"v 0 \x00\nv 1 b\ne 0 1\n",
		"v 9999999999999999999 a\n",
		"w 0 a\n",
		"v 0 a b c\n",
		"v 1 a\n",
		strings.Repeat("v 0 a\n", 3),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		q, err := ParseQuery(strings.NewReader(input))
		if err != nil {
			return
		}
		// Anything accepted must be internally consistent and render back
		// to an equivalent query with an identical rendering.
		text := q.String()
		if text == "" {
			t.Fatal("accepted query renders empty")
		}
		q2, err := ParseQuery(strings.NewReader(text))
		if err != nil {
			t.Fatalf("rendered query does not re-parse: %v\n%s", err, text)
		}
		if q2.String() != text {
			t.Fatalf("round trip changed the rendering:\n  %q\n  %q", text, q2.String())
		}
		if q2.NumVertices() != q.NumVertices() || q2.NumEdges() != q.NumEdges() {
			t.Fatalf("round trip changed shape: %d/%d -> %d/%d",
				q.NumVertices(), q.NumEdges(), q2.NumVertices(), q2.NumEdges())
		}
	})
}

// FuzzSignatureCanonicalization checks the query's rendering (String) is
// invariant under edge listing order and endpoint orientation — two
// spellings of one pattern are one query, and plan alike — and that
// distinct labelings cannot collide.
func FuzzSignatureCanonicalization(f *testing.F) {
	f.Add(uint8(4), uint16(0b111), int64(1))
	f.Add(uint8(5), uint16(0b1010101010), int64(2))
	f.Add(uint8(2), uint16(1), int64(3))
	f.Add(uint8(7), uint16(0xFFFF), int64(4))
	f.Fuzz(func(t *testing.T, n uint8, edgeBits uint16, seed int64) {
		numV := int(n%7) + 2
		labels := make([]string, numV)
		for i := range labels {
			labels[i] = string(rune('a' + i%3))
		}
		// Candidate edge list over vertex pairs, gated by edgeBits.
		var edges [][2]int
		bit := 0
		for u := 0; u < numV; u++ {
			for v := u + 1; v < numV; v++ {
				if edgeBits&(1<<(bit%16)) != 0 {
					edges = append(edges, [2]int{u, v})
				}
				bit++
			}
		}
		if len(edges) == 0 {
			return
		}
		q1, err := NewQuery(labels, edges)
		if err != nil {
			t.Fatalf("constructed edges rejected: %v", err)
		}
		// Shuffle edge order and flip orientations: same graph, so the
		// canonical rendering must not move.
		rng := rand.New(rand.NewSource(seed))
		shuffled := make([][2]int, len(edges))
		copy(shuffled, edges)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for i := range shuffled {
			if rng.Intn(2) == 0 {
				shuffled[i][0], shuffled[i][1] = shuffled[i][1], shuffled[i][0]
			}
		}
		q2, err := NewQuery(labels, shuffled)
		if err != nil {
			t.Fatalf("shuffled edges rejected: %v", err)
		}
		if q1.String() != q2.String() {
			t.Fatalf("rendering not canonical under edge reordering:\n  %q\n  %q",
				q1.String(), q2.String())
		}
		// A changed label must change the rendering (no collisions across
		// the label/edge boundary).
		labels2 := append([]string(nil), labels...)
		labels2[0] += "x"
		q3, err := NewQuery(labels2, edges)
		if err != nil {
			t.Fatalf("relabeled query rejected: %v", err)
		}
		if q3.String() == q1.String() {
			t.Fatalf("distinct labelings share rendering %q", q1.String())
		}
	})
}
