package memcloud

import "stwig/internal/graph"

// crossPairs is the preprocessing structure of §5.3: "for each pairs of
// machines, we record all possible pairs of node labels" joined by a cross
// edge. Stored inverted — keyed by (source machine, label pair) with a
// bitmask of destination machines — so that building a query-specific
// cluster graph is a handful of map probes per query edge, never touching
// the data graph.
type crossPairs struct {
	k     int
	masks []map[uint64]uint64 // per source machine: labelPairKey -> dest machine bitmask
}

func newCrossPairs(k int) *crossPairs {
	cp := &crossPairs{k: k, masks: make([]map[uint64]uint64, k)}
	for i := range cp.masks {
		cp.masks[i] = make(map[uint64]uint64)
	}
	return cp
}

func labelPairKey(la, lb graph.LabelID) uint64 {
	return uint64(la)<<32 | uint64(lb)
}

// add records that machine i holds a vertex labeled la adjacent to vertices
// labeled lb held by every machine j in the bitmask js.
func (cp *crossPairs) add(i int, la, lb graph.LabelID, js uint64) {
	cp.masks[i][labelPairKey(la, lb)] |= js
}

// mask returns the bitmask of machines j such that (i, la) -> (j, lb) cross
// edges exist.
func (cp *crossPairs) mask(i int, la, lb graph.LabelID) uint64 {
	return cp.masks[i][labelPairKey(la, lb)]
}
