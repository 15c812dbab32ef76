package server

import (
	"encoding/json"

	"stwig/internal/core"
)

// streamWriter encodes a query's Records as NDJSON over a ResponseWriter,
// flushing per engine block so results reach the client as they are found,
// and enforcing the per-response byte cap. It is not safe for concurrent
// use; the handler serializes writes through the engine's emit callback.
type streamWriter struct {
	// w counts the bytes written, which until the trailer are all match
	// payload — what the cap bounds.
	w        *statusWriter
	enc      *json.Encoder // appends the NDJSON newline itself
	maxBytes int64
	capHit   bool
	failed   bool
}

func newStreamWriter(w *statusWriter, maxBytes int64) *streamWriter {
	return &streamWriter{w: w, enc: json.NewEncoder(w), maxBytes: maxBytes}
}

// writeTrailer emits the terminal stats record. It is attempted even after
// a byte-cap stop: the cap bounds match payload, not the ~100-byte trailer.
func (sw *streamWriter) writeTrailer(stats *StreamStats) {
	if !sw.failed && sw.enc.Encode(Record{Type: RecordStats, Stats: stats}) == nil {
		sw.w.Flush()
	}
}

// writeMatchBlock encodes one engine block of match records and flushes
// once at the end, amortizing the flush (and any underlying chunked write)
// over the whole block. The byte cap is still checked per record so it
// cuts inside a block at the same match it would have under per-record
// writes. sent is how many of the block's records reached the wire (the
// cap-hitting record included); ok reports whether the stream can accept
// further matches.
func (sw *streamWriter) writeMatchBlock(ms []core.Match) (sent int, ok bool) {
	if sw.failed {
		return 0, false
	}
	for _, m := range ms {
		if err := sw.enc.Encode(Record{Type: RecordMatch, Assignment: assignmentInt64(m)}); err != nil {
			sw.failed = true
			break
		}
		sent++
		if sw.maxBytes > 0 && sw.w.bytes >= sw.maxBytes {
			sw.capHit = true
			break
		}
	}
	sw.w.Flush()
	return sent, !sw.failed && !sw.capHit
}

func assignmentInt64(m core.Match) []int64 {
	out := make([]int64, len(m.Assignment))
	for i, id := range m.Assignment {
		out[i] = int64(id)
	}
	return out
}
