package memcloud

import (
	"unsafe"

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
	// lists[c] is the posting list of tag code c (label+1, NoLabel 0; see
	// cellTag): a lookup is a bounds check and an index, no hashing. A
	// label the machine holds no vertex of has a nil list, or none past the
	// end of lists.
	lists [][]graph.NodeID
}

// listIndex is label's tag code, its list's index in lists: NoLabel wraps
// to 0.
func listIndex(label graph.LabelID) int { return int(label + 1) }

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
	for code := 1; code < len(ends); code++ {
		ends[code] += ends[code-1]
	}
	postings := make([]graph.NodeID, ends[len(ends)-1])
	for v, t := range tags {
		if t.owner() == machine {
			postings[ends[t.code()]] = graph.NodeID(v)
			ends[t.code()]++
		}
	}
	ix := &StringIndex{lists: make([][]graph.NodeID, labels+1)}
	start := 0
	for code, end := range ends[:labels+1] {
		if end > start {
			ix.lists[code] = postings[start:end:end]
		}
		start = end
	}
	return ix
}

// IDs returns the local vertices carrying label, sorted ascending. The
// returned slice is shared; callers must not modify it. This is the paper's
// Index.getID(label).
func (ix *StringIndex) IDs(label graph.LabelID) []graph.NodeID {
	if c := listIndex(label); c < len(ix.lists) {
		return ix.lists[c]
	}
	return nil
}

// Count returns the number of local vertices carrying label, without
// materializing anything. Used for selectivity estimates.
func (ix *StringIndex) Count(label graph.LabelID) int {
	return len(ix.IDs(label))
}

// memoryBytes estimates the index's resident size: 8 bytes per posting a
// list has room for, plus a 24-byte slice header per tag code. The point of
// Table 1's "Index Size" column is that this is linear in the vertex count.
func (ix *StringIndex) memoryBytes() int64 {
	total := int64(cap(ix.lists)) * int64(unsafe.Sizeof([]graph.NodeID(nil)))
	for _, ids := range ix.lists {
		total += int64(cap(ids)) * 8
	}
	return total
}
