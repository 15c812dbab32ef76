package memcloud

import (
	"stwig/internal/graph"
)

// StringIndex is the only index the paper allows itself (§1.1, §1.3): a
// linear-size, linear-build-time mapping from vertex labels to vertex IDs.
// Each machine indexes only its local vertices ("The string index in each
// machine only maps node labels to IDs of local nodes", §4.3).
//
// A load builds it at its size: every posting list is carved out of one
// array per machine with cap == len, so the first AddNode under a label
// moves that list rather than writing over the next label's postings.
type StringIndex struct {
	byLabel map[graph.LabelID][]graph.NodeID
}

// newStringIndex indexes machine's vertices as tags, the cluster's tag
// table, places them: it counts each label's vertices, carves the posting
// lists out of one array, and fills each in ascending ID order — the order
// tags lists them in, so no list needs sorting. Its counts take 8 bytes per
// label of the table while it runs.
func newStringIndex(tags []cellTag, machine, labels int) *StringIndex {
	// ends[code+1] counts the vertices of a tag code (label+1, NoLabel 0);
	// the prefix sum turns ends[code] into the start of code's list, and
	// filling advances it to the list's end.
	ends := make([]int, labels+2)
	for _, t := range tags {
		if t.owner() == machine {
			ends[t.code()+1]++
		}
	}
	distinct := 0
	for code := 1; code < len(ends); code++ {
		if ends[code] > 0 {
			distinct++
		}
		ends[code] += ends[code-1]
	}
	postings := make([]graph.NodeID, ends[len(ends)-1])
	for v, t := range tags {
		if t.owner() == machine {
			postings[ends[t.code()]] = graph.NodeID(v)
			ends[t.code()]++
		}
	}
	ix := &StringIndex{byLabel: make(map[graph.LabelID][]graph.NodeID, distinct)}
	start := 0
	for code, end := range ends[:labels+1] {
		if end > start {
			ix.byLabel[graph.LabelID(code)-1] = postings[start:end:end]
		}
		start = end
	}
	return ix
}

// IDs returns the local vertices carrying label, sorted ascending. The
// returned slice is shared; callers must not modify it. This is the paper's
// Index.getID(label).
func (ix *StringIndex) IDs(label graph.LabelID) []graph.NodeID {
	return ix.byLabel[label]
}

// Count returns the number of local vertices carrying label, without
// materializing anything. Used for selectivity estimates.
func (ix *StringIndex) Count(label graph.LabelID) int {
	return len(ix.byLabel[label])
}

// memoryBytes estimates the index's resident size: 8 bytes per posting a
// list has room for, plus per-label map overhead. The point of Table 1's
// "Index Size" column is that this is linear in the vertex count.
func (ix *StringIndex) memoryBytes() int64 {
	var total int64
	for _, ids := range ix.byLabel {
		total += int64(cap(ids))*8 + 48
	}
	return total
}
