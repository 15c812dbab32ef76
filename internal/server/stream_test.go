package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"testing"

	"stwig/internal/core"
	"stwig/internal/graph"
)

// referenceStream is the sink's contract written the slow, obvious way — one
// record at a time through encoding/json, each cap asked after each record:
// the bytes a response carries and the flags its trailer reports.
func referenceStream(t *testing.T, assignments [][]int64, maxBytes int64, maxMatches int) (wire []byte, matches int, limitHit, capHit bool) {
	for _, a := range assignments {
		wire = append(wire, jsonMatchLine(t, a)...)
		matches++
		if maxBytes > 0 && int64(len(wire)) >= maxBytes {
			return wire, matches, false, true
		}
		if maxMatches > 0 && matches >= maxMatches {
			return wire, matches, true, false
		}
	}
	return wire, matches, false, false
}

// writeRecorder is a ResponseWriter that keeps the body and the size of
// every Write, and counts the Flushes asked of it.
type writeRecorder struct {
	h       http.Header
	body    []byte
	writes  []int
	flushes int
}

func (w *writeRecorder) Header() http.Header { return w.h }
func (w *writeRecorder) WriteHeader(int)     {}
func (w *writeRecorder) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	w.writes = append(w.writes, len(p))
	return len(p), nil
}
func (w *writeRecorder) Flush() { w.flushes++ }

// TestStreamWriterCapsCutWhereTheyAlwaysDid drives the sink's two inputs —
// engine blocks the hand-off encodes, and blocks of lines a shard encoded —
// with generated matches, block sizes and caps, and ends each stream with
// the stats trailer or, every other round, an error record. Both inputs
// must put exactly the reference's bytes on the wire ahead of the terminal
// record, cut at the same record with the same flags and the same count,
// and decline everything after the cut — except an error round in which no
// record reached the wire, which writes nothing at all: the request's
// envelope reports that failure. Records collect into write units: every
// write but the one a cap closes the stream with and the last is at least
// blockBufSize, the last carries the records still pending along with the
// terminal record, and nothing is flushed: the handler's return does that.
func TestStreamWriterCapsCutWhereTheyAlwaysDid(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 300; round++ {
		n, byteCap, blockLen := rng.Intn(60), int64(1500), 8
		if round%10 == 9 { // several write units, in blocks up to two of them long
			n, byteCap, blockLen = 2000+rng.Intn(2000), 200_000, 1500
		}
		assignments := make([][]int64, n)
		for i := range assignments {
			assignments[i] = make([]int64, 1+rng.Intn(4))
			for j := range assignments[i] {
				assignments[i][j] = rng.Int63n(1 << uint(1+rng.Intn(40)))
			}
		}
		var maxBytes int64
		var maxMatches int
		if rng.Intn(3) > 0 {
			maxBytes = 1 + rng.Int63n(byteCap)
		}
		if rng.Intn(3) > 0 {
			maxMatches = 1 + rng.Intn(len(assignments)+2)
		}
		wantWire, wantMatches, wantLimit, wantCap := referenceStream(t, assignments, maxBytes, maxMatches)

		for _, input := range []string{"matches", "lines"} {
			rec := &writeRecorder{h: http.Header{}}
			sw := newStreamWriter(&statusWriter{ResponseWriter: rec}, maxBytes, maxMatches)
			room := cap(sw.pending())
			delivered, open := 0, true
			for lo := 0; lo < len(assignments); {
				hi := min(lo+1+rng.Intn(blockLen), len(assignments))
				var n int
				var ok bool
				if input == "matches" {
					block := make([]core.Match, hi-lo)
					for i, a := range assignments[lo:hi] {
						block[i].Assignment = make([]graph.NodeID, len(a))
						for j, v := range a {
							block[i].Assignment[j] = graph.NodeID(v)
						}
					}
					n, ok = (&lineHandoff{sink: sw}).encodeBlock(0, block)
				} else {
					var block []byte
					for _, a := range assignments[lo:hi] {
						block = append(block, jsonMatchLine(t, a)...)
					}
					n, ok = sw.writeLines(block)
				}
				if !open && (n != 0 || ok) {
					t.Fatalf("round %d, %s: a closed sink took %d records, ok=%v", round, input, n, ok)
				}
				delivered += n
				open = open && ok
				lo = hi
			}
			desc := fmt.Sprintf("round %d, %s (max_bytes=%d max_matches=%d, %d matches)", round, input, maxBytes, maxMatches, len(assignments))
			if input == "matches" && cap(*sw.buf) != room {
				t.Fatalf("%s: encoding grew the buffer from %d to %d bytes", desc, room, cap(*sw.buf))
			}
			written, pending := len(rec.body), sw.queued
			var stats StreamStats
			if round%2 == 0 {
				sw.writeTrailer(&stats)
			} else {
				sw.writeError(errStatus(http.StatusInternalServerError, "engine on fire"), "trace")
			}
			sw.release()

			// A stream with nothing on the wire has no header out, so the
			// error envelope, not the sink, reports its failure, and the
			// records still pending are dropped.
			terminal := round%2 == 0 || written > 0
			body, wantBody, wantCount := rec.body, wantWire, wantMatches
			if !terminal {
				wantBody, wantCount = nil, 0
			}
			if terminal {
				last := bytes.LastIndexByte(body[:len(body)-1], '\n') + 1
				var end Record
				if err := json.Unmarshal(body[last:], &end); err != nil || (round%2 == 0) != (end.Type == RecordStats) {
					t.Fatalf("%s: terminal record %q (%v)", desc, body[last:], err)
				}
				body = body[:last]
				if w := rec.writes[len(rec.writes)-1]; w != len(rec.body)-written || bytes.Count(rec.body[written:], []byte{'\n'}) != pending+1 {
					t.Fatalf("%s: the terminal record's write is %d bytes after %d written; want the %d pending records in it", desc, w, written, pending)
				}
			}
			if !bytes.Equal(body, wantBody) {
				t.Fatalf("%s: wire differs from the reference:\n got %q\nwant %q", desc, body, wantBody)
			}
			if delivered != wantMatches || sw.matches != wantCount || sw.limitHit != wantLimit || sw.capHit != wantCap {
				t.Fatalf("%s: took %d, counts %d, limit_hit=%v byte_cap_hit=%v; want %d taken, %d counted, limit_hit=%v byte_cap_hit=%v",
					desc, delivered, sw.matches, sw.limitHit, sw.capHit, wantMatches, wantCount, wantLimit, wantCap)
			}
			if round%2 == 0 && (stats.Matches != wantMatches || stats.LimitHit != wantLimit || stats.ByteCapHit != wantCap) {
				t.Fatalf("%s: trailer %+v; want %d matches, limit_hit=%v byte_cap_hit=%v", desc, stats, wantMatches, wantLimit, wantCap)
			}
			if open == (wantLimit || wantCap) {
				t.Fatalf("%s: sink open = %v after limit_hit=%v byte_cap_hit=%v", desc, open, wantLimit, wantCap)
			}
			if rec.flushes != 0 {
				t.Fatalf("%s: %d flushes; the sink leaves them to the handler's return", desc, rec.flushes)
			}
			var units []int
			if len(rec.writes) > 1 {
				units = rec.writes[:len(rec.writes)-1]
			}
			if (wantLimit || wantCap) && len(units) > 0 {
				units = units[:len(units)-1]
			}
			for _, w := range units {
				if w < blockBufSize {
					t.Fatalf("%s: writes %v: a %d-byte write is neither the cap's nor the last", desc, rec.writes, w)
				}
			}
		}
	}
}

// nullWriter is a ResponseWriter that costs nothing, so an allocation count
// is the sink's own.
type nullWriter struct{ h http.Header }

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) WriteHeader(int)             {}
func (w *nullWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestStreamWriterBlocksDoNotAllocate is the allocation gate on both byte
// paths: once the pool is warm, encoding an engine block and forwarding a
// block of encoded lines each cost zero allocations, whatever the block
// holds. (The parent's encoder paid two per match.)
func TestStreamWriterBlocksDoNotAllocate(t *testing.T) {
	block := make([]core.Match, 256)
	var lines []byte
	for i := range block {
		block[i].Assignment = []graph.NodeID{graph.NodeID(i), graph.NodeID(1000 + i), graph.NodeID(1 << 40), 3}
		lines = appendMatchLine(lines, block[i].Assignment)
	}
	sw := newStreamWriter(&statusWriter{ResponseWriter: &nullWriter{h: http.Header{}}}, 1<<40, 1<<40)
	defer sw.release()
	out := &lineHandoff{sink: sw}
	for name, write := range map[string]func(){
		"engine block":    func() { out.encodeBlock(0, block) },
		"forwarded lines": func() { sw.writeLines(lines) },
	} {
		write() // takes the buffer, sends the header
		if allocs := testing.AllocsPerRun(50, write); allocs != 0 {
			t.Errorf("%s: %v allocations per block, want 0", name, allocs)
		}
	}
	if sw.closed() || sw.matches == 0 {
		t.Fatalf("the gate's sink stopped taking matches: %+v", sw)
	}
}
