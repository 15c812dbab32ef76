package core

import (
	"strings"
	"testing"
)

func TestNewQueryValidation(t *testing.T) {
	cases := []struct {
		name   string
		labels []string
		edges  [][2]int
	}{
		{"empty", nil, nil},
		{"self loop", []string{"a"}, [][2]int{{0, 0}}},
		{"out of range", []string{"a", "b"}, [][2]int{{0, 2}}},
		{"negative", []string{"a", "b"}, [][2]int{{-1, 0}}},
		{"duplicate", []string{"a", "b"}, [][2]int{{0, 1}, {1, 0}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := NewQuery(c.labels, c.edges); err == nil {
				t.Fatalf("NewQuery accepted %s", c.name)
			}
		})
	}
}

// TestNewQueryReportsTheFirstBadEdge: whichever way edges are wrong, the
// error names the first wrong edge in the order given.
func TestNewQueryReportsTheFirstBadEdge(t *testing.T) {
	labels := []string{"a", "b", "c"}
	for _, c := range []struct {
		edges [][2]int
		want  string
	}{
		{[][2]int{{0, 1}, {1, 0}, {0, 7}}, "duplicate query edge (1,0)"},
		{[][2]int{{0, 1}, {0, 7}, {1, 0}}, "query edge (0,7) out of range"},
		{[][2]int{{0, 1}, {2, 2}, {1, 0}}, "self-loop at vertex 2"},
		{[][2]int{{0, 1}, {1, 0}, {2, 2}}, "duplicate query edge (1,0)"},
		{[][2]int{{5, 5}}, "query edge (5,5) out of range"},
	} {
		if _, err := NewQuery(labels, c.edges); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("NewQuery(%v) = %v, want an error naming %q", c.edges, err, c.want)
		}
	}
}

// TestNewQueryAllocs: a query of up to 16 vertices is four allocations —
// its struct, its labels, its adjacency headers, and the one array its
// adjacency lists are carved from — however many edges it has.
func TestNewQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const n = 12
	labels := make([]string, n)
	var edges [][2]int
	for v := range labels {
		labels[v] = "x"
		edges = append(edges, [2]int{v, (v + 1) % n}, [2]int{v, (v + 3) % n})
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := NewQuery(labels, edges); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 4 {
		t.Errorf("NewQuery of %d vertices and %d edges allocates %v times, want 4", n, len(edges), allocs)
	}
}

func TestQueryAccessors(t *testing.T) {
	// The paper's Figure 4(a): a-b, a-c, b-c, b-e, c-d (roughly); use the
	// simpler Figure 1(b) query: d-a, a-b, a-c, b-c.
	q := MustNewQuery([]string{"a", "b", "c", "d"}, [][2]int{{0, 1}, {0, 2}, {1, 2}, {0, 3}})
	if q.NumVertices() != 4 || q.NumEdges() != 4 {
		t.Fatalf("size = (%d,%d)", q.NumVertices(), q.NumEdges())
	}
	if q.Label(3) != "d" {
		t.Fatalf("Label(3) = %q", q.Label(3))
	}
	if !q.HasEdge(1, 2) || q.HasEdge(1, 3) {
		t.Fatal("HasEdge wrong")
	}
	if q.Degree(0) != 3 {
		t.Fatalf("Degree(0) = %d", q.Degree(0))
	}
	if len(q.Edges()) != 4 {
		t.Fatalf("Edges() = %v", q.Edges())
	}
	if got := q.Labels(); len(got) != 4 || got[0] != "a" {
		t.Fatalf("Labels() = %v", got)
	}
}

func TestQueryConnected(t *testing.T) {
	conn := MustNewQuery([]string{"a", "b", "c"}, [][2]int{{0, 1}, {1, 2}})
	if !conn.Connected() {
		t.Fatal("path query reported disconnected")
	}
	disc := MustNewQuery([]string{"a", "b", "c", "d"}, [][2]int{{0, 1}, {2, 3}})
	if disc.Connected() {
		t.Fatal("two components reported connected")
	}
	single := MustNewQuery([]string{"a"}, nil)
	if !single.Connected() {
		t.Fatal("single vertex reported disconnected")
	}
}

func TestQueryShortestPaths(t *testing.T) {
	// Path a-b-c-d.
	q := MustNewQuery([]string{"a", "b", "c", "d"}, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	d := q.ShortestPaths()
	want := [][]int{
		{0, 1, 2, 3},
		{1, 0, 1, 2},
		{2, 1, 0, 1},
		{3, 2, 1, 0},
	}
	for i := range want {
		for j := range want[i] {
			if d[i][j] != want[i][j] {
				t.Fatalf("d[%d][%d] = %d, want %d", i, j, d[i][j], want[i][j])
			}
		}
	}
	// Disconnected pair.
	q2 := MustNewQuery([]string{"a", "b", "c"}, [][2]int{{0, 1}})
	if q2.ShortestPaths()[0][2] != Unreachable {
		t.Fatal("unreachable pair has finite distance")
	}
}

func TestParseQueryRoundTrip(t *testing.T) {
	q := MustNewQuery([]string{"a", "b", "c"}, [][2]int{{0, 1}, {1, 2}, {0, 2}})
	q2, err := ParseQuery(strings.NewReader(q.String()))
	if err != nil {
		t.Fatal(err)
	}
	if q2.NumVertices() != 3 || q2.NumEdges() != 3 || q2.Label(1) != "b" {
		t.Fatalf("round trip lost data: %v", q2)
	}
}

func TestParseQueryErrors(t *testing.T) {
	bad := []string{
		"x 0 a\n",
		"v 1 a\n",
		"v 0\n",
		"v 0 a\ne 0\n",
		"v 0 a\ne zero 0\n",
	}
	for _, in := range bad {
		if _, err := ParseQuery(strings.NewReader(in)); err == nil {
			t.Fatalf("ParseQuery(%q) succeeded", in)
		}
	}
}

func TestParseQueryCommentsBlank(t *testing.T) {
	in := "# query\n\nv 0 a\nv 1 b\ne 0 1\n"
	q, err := ParseQuery(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if q.NumVertices() != 2 || q.NumEdges() != 1 {
		t.Fatal("parse with comments failed")
	}
}
