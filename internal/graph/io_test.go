package graph

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
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
		if BinarySize(g) != int64(buf.Len()) {
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

// binaryLayout gives where the arrays of g's binary encoding start.
func binaryLayout(g *Graph) (labelsAt, offsetsAt, adjAt int) {
	labelsAt = binaryHeaderSize
	for _, name := range g.LabelNames() {
		labelsAt += 4 + len(name)
	}
	offsetsAt = labelsAt + 4*int(g.NumNodes())
	adjAt = offsetsAt + 8*int(g.NumNodes()+1)
	return labelsAt, offsetsAt, adjAt
}

// Every check of the format is the decoder's: each corruption of a valid
// encoding is an error, never a graph — a label the table does not name
// included, which used to load and crash the next snapshot.
func TestBinaryDecoderRejectsCorruptPayloads(t *testing.T) {
	g := paperFigure1(t) // labels a a b c d; vertex 0's adjacency is [2 3]
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	labelsAt, offsetsAt, adjAt := binaryLayout(g)
	n := int(g.NumNodes())
	put32 := func(at int, x uint32) func([]byte) {
		return func(b []byte) { binary.LittleEndian.PutUint32(b[at:], x) }
	}
	put64 := func(at int, x uint64) func([]byte) {
		return func(b []byte) { binary.LittleEndian.PutUint64(b[at:], x) }
	}
	cases := []struct {
		name    string
		corrupt func([]byte)
	}{
		{"version", put32(4, 2)},
		{"label the table does not name", put32(labelsAt, 7)},
		{"label name twice", func(b []byte) { b[binaryHeaderSize+5+4] = 'a' }},
		{"offsets[0] not 0", put64(offsetsAt, 1)},
		{"offsets not monotone", put64(offsetsAt+8*2, 1)},
		{"offset past m", put64(offsetsAt+8, 15)},
		{"offsets[n] not m", put64(offsetsAt+8*n, 13)},
		{"neighbour out of range", put64(adjAt, uint64(n))},
		{"negative neighbour", put64(adjAt, math.MaxUint64)},
		{"adjacency unsorted", func(b []byte) { put64(adjAt, 3)(b); put64(adjAt+8, 2)(b) }},
		{"vertex count past the stream", put64(12, 1<<40)},
		{"edge count past the stream", put64(20, 1<<40)},
		{"label count past the stream", put32(28, 1<<30)},
		{"label name past the stream", put32(binaryHeaderSize, 1<<30)},
	}
	for _, c := range cases {
		b := bytes.Clone(valid)
		c.corrupt(b)
		if _, err := ReadBinary(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: ReadBinary accepted the payload", c.name)
		}
	}
	if _, err := ReadBinary(bytes.NewReader(valid)); err != nil {
		t.Fatalf("the uncorrupted payload: %v", err)
	}
}

// A decoder reads each array in whatever pieces its caller asks for, and
// refuses a read out of the format's order.
func TestBinaryDecoderReadsInAnyPieces(t *testing.T) {
	g := paperFigure1(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	d, err := NewBinaryDecoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ReadNeighbors(make([]NodeID, 2)); err == nil {
		t.Fatal("ReadNeighbors before the labels succeeded")
	}
	n := int(g.NumNodes())
	labels := make([]LabelID, n)
	for v := range labels {
		if err := d.ReadLabels(labels[v : v+1]); err != nil {
			t.Fatal(err)
		}
	}
	degrees := make([]int64, n)
	if err := d.ReadDegrees(degrees[:2]); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadDegrees(degrees[2:]); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < n; v++ {
		id := NodeID(v)
		nbrs := make([]NodeID, degrees[v])
		if err := d.ReadNeighbors(nbrs); err != nil {
			t.Fatal(err)
		}
		if labels[v] != g.Label(id) || !slices.Equal(nbrs, g.Neighbors(id)) {
			t.Fatalf("vertex %d decoded as label %d, adjacency %v", v, labels[v], nbrs)
		}
	}
	if err := d.ReadNeighbors(nil); err == nil {
		t.Fatal("ReadNeighbors past the last vertex succeeded")
	}
}
