package graph

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestTextRoundTrip(t *testing.T) {
	g := paperFigure1(t)
	var buf bytes.Buffer
	if err := WriteText(&buf, g); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	g2, err := ReadText(&buf, Undirected())
	if err != nil {
		t.Fatalf("ReadText: %v", err)
	}
	assertGraphsEqual(t, g, g2)
}

func TestTextParseErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"bad record", "x 1 2\n"},
		{"vertex out of order", "v 1 a\n"},
		{"edge fields", "v 0 a\ne 0\n"},
		{"edge unknown vertex", "v 0 a\ne 0 7\n"},
		{"bad vertex id", "v zero a\n"},
		{"bad src", "v 0 a\nv 1 b\ne x 1\n"},
		{"vertex fields", "v 0\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ReadText(strings.NewReader(c.in)); err == nil {
				t.Fatalf("ReadText(%q) succeeded, want error", c.in)
			}
		})
	}
}

func TestTextCommentsAndBlank(t *testing.T) {
	in := "# a comment\n\nv 0 a\nv 1 b\n\ne 0 1\n"
	g, err := ReadText(strings.NewReader(in), Undirected())
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2 || g.NumEdges() != 2 {
		t.Fatalf("got %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	g := paperFigure1(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	assertGraphsEqual(t, g, g2)
	if g2.Directed() != g.Directed() {
		t.Fatal("directed flag lost")
	}
}

// The adjacency is encoded straight into the write buffer: a graph whose
// adjacency fills the 1 MB buffer several times over, with cells that
// straddle its flushes, must still read back as written.
func TestBinaryRoundTripPastTheWriteBuffer(t *testing.T) {
	const n = 100_001
	b := NewBuilder(Undirected())
	for v := 0; v < n; v++ {
		b.AddNode([]string{"a", "b", "c"}[v%3])
	}
	for v := 1; v < n; v++ {
		b.MustAddEdge(0, NodeID(v)) // a hub whose cell spans a flush
		for _, d := range []int{7, 13} {
			if v+d < n {
				b.MustAddEdge(NodeID(v), NodeID(v+d))
			}
		}
	}
	g := b.Build()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	if adj := 8 * g.NumEdges(); adj < 3<<20 {
		t.Fatalf("the adjacency takes %d bytes, want several write buffers", adj)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, g, g2)
}

func TestBinaryBadMagic(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("NOPE----------"))); err == nil {
		t.Fatal("ReadBinary accepted bad magic")
	}
}

func TestBinaryTruncated(t *testing.T) {
	g := paperFigure1(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{3, 5, 12, len(full) / 2, len(full) - 1} {
		if _, err := ReadBinary(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("ReadBinary accepted truncation at %d bytes", cut)
		}
	}
}

func TestPropertyBinaryRoundTripRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		g := randomGraph(rng, n, 2*n, []string{"a", "b", "c", "d"})
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			return false
		}
		g2, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		return graphsEqual(g, g2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func graphsEqual(a, b *Graph) bool {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for v := int64(0); v < a.NumNodes(); v++ {
		if a.LabelString(NodeID(v)) != b.LabelString(NodeID(v)) {
			return false
		}
		an, bn := a.Neighbors(NodeID(v)), b.Neighbors(NodeID(v))
		if len(an) != len(bn) {
			return false
		}
		for i := range an {
			if an[i] != bn[i] {
				return false
			}
		}
	}
	return true
}

func assertGraphsEqual(t *testing.T, a, b *Graph) {
	t.Helper()
	if !graphsEqual(a, b) {
		t.Fatalf("graphs differ:\n a: %v\n b: %v", a.ComputeStats(), b.ComputeStats())
	}
}
