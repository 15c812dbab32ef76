package journal

import (
	"encoding/binary"
	"fmt"

	"stwig/internal/graph"
	"stwig/internal/memcloud"
)

// Mutation-batch body codec. One journal record carries the exact batch the
// dispatcher hands to memcloud.Cluster.ApplyBatch, so replay applies
// precisely what the live path applied.
//
// Body layout (little-endian):
//
//	u8 batchVersion | u32 count | mutation...
//	mutation: u8 op | (add_node: u32 labelLen | label bytes)
//	                | (add_edge / remove_edge: u64 u | u64 v)

const batchVersion = 1

// Decoder guardrails: a corrupt count or label length must produce a clean
// error, never an allocation sized by attacker-controlled bytes.
const (
	// MaxBatchLen bounds mutations per record; stwigd's UpdateBatchMax is
	// far below it.
	MaxBatchLen = 1 << 20
	// MaxLabelLen bounds one add_node label.
	MaxLabelLen = 1 << 16
)

// EncodeBatch serializes muts as a journal record body.
func EncodeBatch(muts []memcloud.Mutation) ([]byte, error) {
	if len(muts) > MaxBatchLen {
		return nil, fmt.Errorf("journal: batch of %d mutations exceeds MaxBatchLen", len(muts))
	}
	out := make([]byte, 0, 5+len(muts)*17)
	out = append(out, batchVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(muts)))
	for i, m := range muts {
		out = append(out, byte(m.Op))
		switch m.Op {
		case memcloud.MutAddNode:
			if len(m.Label) > MaxLabelLen {
				return nil, fmt.Errorf("journal: mutation %d: label %d bytes exceeds MaxLabelLen", i, len(m.Label))
			}
			out = binary.LittleEndian.AppendUint32(out, uint32(len(m.Label)))
			out = append(out, m.Label...)
		case memcloud.MutAddEdge, memcloud.MutRemoveEdge:
			out = binary.LittleEndian.AppendUint64(out, uint64(m.U))
			out = binary.LittleEndian.AppendUint64(out, uint64(m.V))
		default:
			return nil, fmt.Errorf("journal: mutation %d: unknown op %d", i, m.Op)
		}
	}
	return out, nil
}

// DecodeBatch parses a record body produced by EncodeBatch. Truncated,
// oversized, or otherwise malformed input returns an error; it never
// panics, over-reads, or allocates beyond the input's real size.
func DecodeBatch(body []byte) ([]memcloud.Mutation, error) {
	if len(body) < 5 {
		return nil, fmt.Errorf("journal: batch body %d bytes, want ≥ 5", len(body))
	}
	if body[0] != batchVersion {
		return nil, fmt.Errorf("journal: unsupported batch version %d", body[0])
	}
	count := binary.LittleEndian.Uint32(body[1:5])
	if count > MaxBatchLen {
		return nil, fmt.Errorf("journal: batch count %d exceeds MaxBatchLen", count)
	}
	// Every mutation is at least 1 byte of op; a count the remaining bytes
	// cannot possibly hold is rejected before the allocation.
	rest := body[5:]
	if uint64(count) > uint64(len(rest)) {
		return nil, fmt.Errorf("journal: batch count %d exceeds remaining %d bytes", count, len(rest))
	}
	muts := make([]memcloud.Mutation, 0, count)
	off := 0
	for i := uint32(0); i < count; i++ {
		if off >= len(rest) {
			return nil, fmt.Errorf("journal: batch truncated at mutation %d", i)
		}
		op := memcloud.MutationOp(rest[off])
		off++
		switch op {
		case memcloud.MutAddNode:
			if off+4 > len(rest) {
				return nil, fmt.Errorf("journal: mutation %d: truncated label length", i)
			}
			n := binary.LittleEndian.Uint32(rest[off : off+4])
			off += 4
			if n > MaxLabelLen {
				return nil, fmt.Errorf("journal: mutation %d: label %d bytes exceeds MaxLabelLen", i, n)
			}
			if off+int(n) > len(rest) {
				return nil, fmt.Errorf("journal: mutation %d: truncated label", i)
			}
			muts = append(muts, memcloud.Mutation{Op: op, Label: string(rest[off : off+int(n)])})
			off += int(n)
		case memcloud.MutAddEdge, memcloud.MutRemoveEdge:
			if off+16 > len(rest) {
				return nil, fmt.Errorf("journal: mutation %d: truncated edge endpoints", i)
			}
			u := graph.NodeID(binary.LittleEndian.Uint64(rest[off : off+8]))
			v := graph.NodeID(binary.LittleEndian.Uint64(rest[off+8 : off+16]))
			off += 16
			muts = append(muts, memcloud.Mutation{Op: op, U: u, V: v})
		default:
			return nil, fmt.Errorf("journal: mutation %d: unknown op %d", i, op)
		}
	}
	if off != len(rest) {
		return nil, fmt.Errorf("journal: %d trailing bytes after batch", len(rest)-off)
	}
	return muts, nil
}
