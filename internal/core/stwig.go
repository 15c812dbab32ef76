package core

import (
	"fmt"
	"strings"
)

// STwig is the paper's basic query unit (§4.1): a two-level tree, written
// q = (r, L), where r is a root pattern vertex and L its child pattern
// vertices. Each root→leaf pair is one query edge; a decomposition assigns
// every query edge to exactly one STwig (an STwig cover, Problem 1).
//
// Root and Leaves are query-vertex indices, not labels: the paper assumes
// uniquely-labeled queries "for presentation simplicity", and indices remove
// that restriction.
type STwig struct {
	Root   int
	Leaves []int
}

// NumEdges returns how many query edges the STwig covers.
func (t STwig) NumEdges() int { return len(t.Leaves) }

// Vertices returns the root followed by the leaves.
func (t STwig) Vertices() []int {
	out := make([]int, 0, 1+len(t.Leaves))
	out = append(out, t.Root)
	return append(out, t.Leaves...)
}

// slot returns where query vertex v sits in t — 0 for the root, 1+i for
// leaf i — or -1 when t does not cover v.
func (t STwig) slot(v int) int {
	if t.Root == v {
		return 0
	}
	for i, leaf := range t.Leaves {
		if leaf == v {
			return 1 + i
		}
	}
	return -1
}

// String renders e.g. "(2; 0 5)" — root 2 with leaves 0 and 5.
func (t STwig) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "(%d;", t.Root)
	for _, l := range t.Leaves {
		fmt.Fprintf(&b, " %d", l)
	}
	b.WriteString(")")
	return b.String()
}

// Decomposition is an ordered STwig cover: the processing order produced by
// Algorithm 2 (or an ablation variant), plus the index of the head STwig
// chosen per §5.3.
type Decomposition struct {
	Twigs []STwig
	// Head indexes Twigs: the head STwig whose matches are never fetched
	// remotely, guaranteeing disjoint per-machine results (§4.3).
	Head int
}

// clone returns a deep copy with fresh Twigs and Leaves slices; handed out
// through ExecStats so a caller's edits cannot reach the plan it ran.
func (d Decomposition) clone() Decomposition {
	out := Decomposition{Twigs: make([]STwig, len(d.Twigs)), Head: d.Head}
	for i, t := range d.Twigs {
		out.Twigs[i] = STwig{Root: t.Root, Leaves: append([]int(nil), t.Leaves...)}
	}
	return out
}

// CoversAllEdges verifies the STwig-cover property against q: every query
// edge appears in exactly one STwig and no STwig contains a non-edge.
func (d Decomposition) CoversAllEdges(q *Query) error {
	seen := make(map[[2]int]int)
	for ti, t := range d.Twigs {
		if t.Root < 0 || t.Root >= q.NumVertices() {
			return fmt.Errorf("core: STwig %d root %d out of range", ti, t.Root)
		}
		if len(t.Leaves) == 0 {
			return fmt.Errorf("core: STwig %d has no leaves", ti)
		}
		for _, l := range t.Leaves {
			if l < 0 || l >= q.NumVertices() {
				return fmt.Errorf("core: STwig %d leaf %d out of range", ti, l)
			}
			if !q.HasEdge(t.Root, l) {
				return fmt.Errorf("core: STwig %d claims non-edge (%d,%d)", ti, t.Root, l)
			}
			key := [2]int{min(t.Root, l), max(t.Root, l)}
			if prev, dup := seen[key]; dup {
				return fmt.Errorf("core: edge (%d,%d) covered by STwigs %d and %d", key[0], key[1], prev, ti)
			}
			seen[key] = ti
		}
	}
	if len(seen) != q.NumEdges() {
		return fmt.Errorf("core: decomposition covers %d of %d query edges", len(seen), q.NumEdges())
	}
	return nil
}

// boundRoots reports, for each STwig after the first, whether its root
// appears as a vertex of an earlier STwig — the property Algorithm 2's
// ordering aims for ("the root of each STwig is a leaf node of at least one
// of the processed STwigs", §5.2).
func (d Decomposition) boundRoots() []bool {
	out := make([]bool, len(d.Twigs))
	for i, t := range d.Twigs {
		for _, earlier := range d.Twigs[:i] {
			if earlier.slot(t.Root) >= 0 {
				out[i] = true
				break
			}
		}
	}
	return out
}

func (d Decomposition) String() string {
	parts := make([]string, len(d.Twigs))
	for i, t := range d.Twigs {
		s := t.String()
		if i == d.Head {
			s += "*"
		}
		parts[i] = s
	}
	return strings.Join(parts, " ")
}
