package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"

	"stwig/internal/core"
)

// blockBufSize is the capacity block buffers start with: a default engine
// block of four-vertex matches is ~13 KB, and a coordinator leg reads its
// shard's response in chunks of at most this.
const blockBufSize = 32 << 10

// blockPool recycles the buffers match blocks pass through on their way to
// the wire: a streamWriter encodes into one, a coordinator leg reads its
// shard's response into one. A buffer that had to grow past maxPooledBlock
// (one enormous line) is left to the collector instead.
var blockPool = sync.Pool{New: func() any {
	b := make([]byte, 0, blockBufSize)
	return &b
}}

const maxPooledBlock = 1 << 20

func putBlock(b *[]byte) {
	if cap(*b) <= maxPooledBlock {
		blockPool.Put(b)
	}
}

// streamWriter is a query response's one match sink, whichever side of the
// backend seam produces the matches: it owns the deferred 200, the block
// buffer, both caps and the trailer. Matches arrive as engine blocks, which
// it encodes (writeMatches), or as blocks of lines a shard already encoded,
// which it forwards untouched (writeLines); either way one block is one
// Write and one Flush, so results reach the client as they are found. Both
// caps cut at a record boundary, the cap-crossing record is delivered, and
// matches counts what reached the wire. It is not safe for concurrent use:
// the engine's emit path and the coordinator's fan-out each serialize their
// writers.
type streamWriter struct {
	// w counts the bytes written, which until the trailer are all match
	// payload — what the byte cap bounds.
	w          *statusWriter
	maxBytes   int64
	maxMatches int
	matches    int
	buf        *[]byte // encode buffer, taken from blockPool on first use
	limitHit   bool    // the match cap closed the stream
	capHit     bool    // the byte cap closed the stream
	failed     bool    // a write failed: the client is gone
}

func newStreamWriter(w *statusWriter, maxBytes int64, maxMatches int) *streamWriter {
	return &streamWriter{w: w, maxBytes: maxBytes, maxMatches: maxMatches}
}

// release returns the encode buffer to the pool; the writer must not be
// used afterwards.
func (sw *streamWriter) release() {
	if sw.buf != nil {
		putBlock(sw.buf)
		sw.buf = nil
	}
}

// begin sends the 200 header if nothing has been sent yet. It is deferred to
// the first record so that a failure preceding all output can still use a
// proper error status.
func (sw *streamWriter) begin() {
	if sw.w.status == 0 {
		sw.w.Header().Set("Content-Type", ndjsonContentType)
		sw.w.Header().Set("X-Accel-Buffering", "no")
		sw.w.WriteHeader(http.StatusOK)
	}
}

// announce sends the 200 header at once, ahead of any record: a shard's half
// of the leg handshake (see coordinator.streamMatches).
func (sw *streamWriter) announce() {
	sw.begin()
	sw.w.Flush()
}

// closed reports whether the stream takes no more matches.
func (sw *streamWriter) closed() bool { return sw.failed || sw.limitHit || sw.capHit }

// capped decides whether the record just added to a pending block — its
// n-th, the block now size bytes long — is the stream's last, and notes
// which cap said so. The byte cap is asked first: a record that crosses both
// reports byte_cap_hit alone.
func (sw *streamWriter) capped(n, size int) bool {
	switch {
	case sw.maxBytes > 0 && sw.w.bytes+int64(size) >= sw.maxBytes:
		sw.capHit = true
	case sw.maxMatches > 0 && sw.matches+n >= sw.maxMatches:
		sw.limitHit = true
	default:
		return false
	}
	return true
}

// send puts one block of records on the wire. It reports how many records
// the stream took and whether it takes more.
func (sw *streamWriter) send(block []byte, records int) (int, bool) {
	if len(block) > 0 {
		sw.begin()
		if _, err := sw.w.Write(block); err != nil {
			sw.failed = true
			return 0, false
		}
		sw.w.Flush()
		sw.matches += records
	}
	return records, !sw.closed()
}

// writeMatches encodes one engine block and sends it. sent is how many
// records reached the wire. The block is the engine's buffer and dies with
// this call: every record is encoded before it returns.
func (sw *streamWriter) writeMatches(ms []core.Match) (sent int, ok bool) {
	if sw.closed() {
		return 0, false
	}
	if sw.buf == nil {
		sw.buf = blockPool.Get().(*[]byte)
	}
	buf := (*sw.buf)[:0]
	for _, m := range ms {
		buf = appendMatchLine(buf, m.Assignment)
		sent++
		if sw.capped(sent, len(buf)) {
			break
		}
	}
	*sw.buf = buf
	return sw.send(buf, sent)
}

// writeLines forwards a block of complete canonical match lines as is,
// clipped at the line where a cap trips. taken is how many lines reached
// the wire.
func (sw *streamWriter) writeLines(block []byte) (taken int, ok bool) {
	if sw.closed() {
		return 0, false
	}
	taken = bytes.Count(block, []byte{'\n'})
	// Only a block a cap can trip inside is walked line by line.
	if (sw.maxBytes > 0 && sw.w.bytes+int64(len(block)) >= sw.maxBytes) ||
		(sw.maxMatches > 0 && sw.matches+taken >= sw.maxMatches) {
		end := 0
		for taken = 0; end < len(block); {
			end += bytes.IndexByte(block[end:], '\n') + 1
			taken++
			if sw.capped(taken, end) {
				break
			}
		}
		block = block[:end]
	}
	return sw.send(block, taken)
}

// writeTrailer closes a successful stream with the stats record, filling in
// what the sink knows: the count and the caps. It is attempted even after a
// byte-cap stop: the cap bounds match payload, not the ~100-byte trailer.
func (sw *streamWriter) writeTrailer(stats *StreamStats) {
	stats.Matches = sw.matches
	stats.Truncated = stats.Truncated || sw.limitHit || sw.capHit
	stats.LimitHit = sw.limitHit
	stats.ByteCapHit = sw.capHit
	if sw.failed {
		return
	}
	sw.begin()
	if json.NewEncoder(sw.w).Encode(Record{Type: RecordStats, Stats: stats}) == nil {
		sw.w.Flush()
	}
}
