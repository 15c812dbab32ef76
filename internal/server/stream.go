package server

import (
	"bytes"
	"net/http"
	"sync"

	"stwig/internal/core"
)

// blockBufSize is a match stream's write unit: a response's records collect
// in a pooled buffer that goes to the wire once it holds this much — two or
// three default engine blocks of four-vertex matches (~13 KB each). It
// outgrows net/http's buffers (2 KB response, 4 KB connection), so a unit
// reaches the socket as it is written, in two write syscalls, and only its
// chunk's CRLF waits for the next write. A coordinator leg reads its shard's
// response in chunks of at most this.
const blockBufSize = 32 << 10

// blockPool recycles the buffers match blocks pass through on their way to
// the wire: a streamWriter collects records in one, a coordinator leg reads
// its shard's response into one. Each holds two write units — records one
// short of a write plus the next engine block or leg chunk — so neither
// grows in steady state. A buffer that had to grow past maxPooledBlock (one
// enormous line) is left to the collector instead.
var blockPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 2*blockBufSize)
	return &b
}}

const maxPooledBlock = 1 << 20

func putBlock(b *[]byte) {
	if cap(*b) <= maxPooledBlock {
		blockPool.Put(b)
	}
}

// streamWriter is a query response's one match sink, whichever side of the
// backend seam produces the matches: it owns the deferred 200, the pending
// buffer, both caps and the terminal record. Matches arrive through a
// lineHandoff as blocks of canonical match lines (writeLines), encoded by
// the engine's machines or by a shard. Records collect until a write unit is
// pending, a cap closes the stream, or the terminal record — stats trailer
// or error — joins them, and each of those is one Write. So the first match
// reaches the client with the first write unit or the whole answer,
// whichever comes first, and an answer under net/http's 2 KB buffer leaves
// with a Content-Length, header and body in one write syscall. Both caps cut
// at a record boundary, counting what is pending as well as what was
// written, the cap-crossing record is delivered, and matches counts what
// reached the wire. It is not safe for concurrent use: producers go through
// the hand-off, and the terminal record follows them.
type streamWriter struct {
	// w counts the bytes written, which until the terminal record are all
	// match payload — what the byte cap bounds.
	w          *statusWriter
	maxBytes   int64
	maxMatches int
	matches    int     // records that reached the wire
	queued     int     // records in buf, not yet written
	buf        *[]byte // pending records, taken from blockPool on first use
	limitHit   bool    // the match cap closed the stream
	capHit     bool    // the byte cap closed the stream
	failed     bool    // a write failed: the client is gone
}

func newStreamWriter(w *statusWriter, maxBytes int64, maxMatches int) *streamWriter {
	return &streamWriter{w: w, maxBytes: maxBytes, maxMatches: maxMatches}
}

// release returns the pending buffer to the pool; the writer must not be
// used afterwards.
func (sw *streamWriter) release() {
	if sw.buf != nil {
		putBlock(sw.buf)
		sw.buf = nil
	}
}

// pending returns the buffer of records not yet written.
func (sw *streamWriter) pending() []byte {
	if sw.buf == nil {
		sw.buf = blockPool.Get().(*[]byte)
		*sw.buf = (*sw.buf)[:0]
	}
	return *sw.buf
}

// streamHeaders are a match stream's two fixed header values. Every
// response shares them: net/http only reads a handler's header values.
var (
	ndjsonContentTypeValue = []string{ndjsonContentType}
	noBufferingValue       = []string{"no"}
)

// begin sends the 200 header if nothing has been sent yet. It is deferred to
// the first write so that a failure preceding all output can still use a
// proper error status.
func (sw *streamWriter) begin() {
	if sw.w.status == 0 {
		h := sw.w.Header()
		h["Content-Type"] = ndjsonContentTypeValue
		h["X-Accel-Buffering"] = noBufferingValue
		sw.w.WriteHeader(http.StatusOK)
	}
}

// announce sends the 200 header at once, ahead of any record: a shard's half
// of the leg handshake (see coordinator.streamMatches). It is the sink's one
// flush; the handler's return flushes the terminal write.
func (sw *streamWriter) announce() {
	sw.begin()
	if f, ok := sw.w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// closed reports whether the stream takes no more matches.
func (sw *streamWriter) closed() bool { return sw.failed || sw.limitHit || sw.capHit }

// capped decides whether the record just added to the pending buffer — the
// n-th not yet written, the buffer now size bytes long — is the stream's
// last, and notes which cap said so. The byte cap is asked first: a record
// that crosses both reports byte_cap_hit alone.
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

// flush writes the pending buffer out in one Write and reports whether it
// reached the wire.
func (sw *streamWriter) flush() bool {
	buf, records := *sw.buf, sw.queued
	*sw.buf, sw.queued = buf[:0], 0
	if len(buf) == 0 {
		return true
	}
	sw.begin()
	if _, err := sw.w.Write(buf); err != nil {
		sw.failed = true
		return false
	}
	sw.matches += records
	return true
}

// queue books records just added to the pending buffer and writes the
// buffer out if a write unit is pending or a cap closed the stream. It
// reports how many records the stream took and whether it takes more.
func (sw *streamWriter) queue(records int) (int, bool) {
	sw.queued += records
	if (len(*sw.buf) >= blockBufSize || sw.limitHit || sw.capHit) && !sw.flush() {
		return 0, false
	}
	return records, !sw.closed()
}

// writeLines forwards a block of complete canonical match lines as is,
// clipped at the line where a cap trips. taken is how many lines the stream
// took. A block of up to one write unit never grows the pooled buffer.
func (sw *streamWriter) writeLines(block []byte) (taken int, ok bool) {
	if sw.closed() {
		return 0, false
	}
	buf := sw.pending()
	taken = bytes.Count(block, []byte{'\n'})
	// Only a block a cap can trip inside is walked line by line.
	if (sw.maxBytes > 0 && sw.w.bytes+int64(len(buf)+len(block)) >= sw.maxBytes) ||
		(sw.maxMatches > 0 && sw.matches+sw.queued+taken >= sw.maxMatches) {
		end := 0
		for taken = 0; end < len(block); {
			end += bytes.IndexByte(block[end:], '\n') + 1
			taken++
			if sw.capped(sw.queued+taken, len(buf)+end) {
				break
			}
		}
		block = block[:end]
	}
	*sw.buf = append(buf, block...)
	return sw.queue(taken)
}

// finish ends the stream with its terminal record — the line appendRecord
// adds to the records still pending — in one write with them.
func (sw *streamWriter) finish(appendRecord func([]byte) []byte) {
	if sw.failed {
		return
	}
	*sw.buf = appendRecord(sw.pending())
	sw.flush()
}

// writeTrailer closes a successful stream with the stats record, filling in
// what the sink knows: the count and the caps. It is attempted even after a
// byte-cap stop: the cap bounds match payload, not the ~100-byte trailer.
func (sw *streamWriter) writeTrailer(stats *StreamStats) {
	stats.Matches = sw.matches + sw.queued
	stats.Truncated = stats.Truncated || sw.limitHit || sw.capHit
	stats.LimitHit = sw.limitHit
	stats.ByteCapHit = sw.capHit
	sw.finish(stats.appendRecord)
}

// writeError closes a stream whose 200 is out with the error record, which
// carries the records still pending. While nothing has reached the wire —
// the status is set only as a write or an announced header goes out — it
// writes nothing and the pending records are dropped: the request's envelope
// reports the failure with its status, never a 200 and a partial answer.
func (sw *streamWriter) writeError(e *apiError, trace string) {
	if sw.w.status != 0 {
		sw.finish(func(dst []byte) []byte { return appendErrorRecord(dst, e.msg, e.code, trace) })
	}
}

// lineHandoff is the one way match lines reach a streamWriter from the
// producers running concurrently — the engine's machines (encodeBlock) or a
// coordinator's legs (fanout): the lock keeps a block whole and caps global.
type lineHandoff struct {
	mu   sync.Mutex
	sink *streamWriter
	shut bool // a coordinator leg failed (fanout.fail): take no more lines
}

// hand passes one block of whole lines to the sink: how many lines the
// stream took, and whether it takes more.
func (h *lineHandoff) hand(block []byte) (int, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.shut {
		return 0, false
	}
	return h.sink.writeLines(block)
}

// encodeBlock is a machine's emit (core.Engine.MatchStreamMachines): it
// encodes the block into a pooled buffer outside the lock and hands it over
// a write unit at a time, so neither buffer grows, and returns how many
// matches the stream took.
func (h *lineHandoff) encodeBlock(_ int, ms []core.Match) (int, bool) {
	buf := blockPool.Get().(*[]byte)
	defer putBlock(buf)
	lines, sent := (*buf)[:0], 0
	for _, m := range ms {
		if len(lines) > 0 && len(lines)+maxMatchLineLen(len(m.Assignment)) > blockBufSize {
			n, ok := h.hand(lines)
			if sent += n; !ok {
				return sent, false
			}
			lines = lines[:0]
		}
		lines = appendMatchLine(lines, m.Assignment)
	}
	*buf = lines
	n, ok := h.hand(lines)
	return sent + n, ok
}
