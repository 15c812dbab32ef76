package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
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

// TestStreamWriterCapsCutWhereTheyAlwaysDid drives the sink's two inputs —
// engine blocks it encodes, and blocks of lines a shard already encoded —
// with generated matches, block sizes and caps: both must put exactly the
// reference's bytes on the wire, cut at the same record with the same flags
// and the same count, and decline everything after the cut.
func TestStreamWriterCapsCutWhereTheyAlwaysDid(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 300; round++ {
		assignments := make([][]int64, rng.Intn(60))
		for i := range assignments {
			assignments[i] = make([]int64, 1+rng.Intn(4))
			for j := range assignments[i] {
				assignments[i][j] = rng.Int63n(1 << uint(1+rng.Intn(40)))
			}
		}
		var maxBytes int64
		var maxMatches int
		if rng.Intn(3) > 0 {
			maxBytes = 1 + rng.Int63n(1500)
		}
		if rng.Intn(3) > 0 {
			maxMatches = 1 + rng.Intn(len(assignments)+2)
		}
		wantWire, wantMatches, wantLimit, wantCap := referenceStream(t, assignments, maxBytes, maxMatches)

		for _, input := range []string{"matches", "lines"} {
			rec := httptest.NewRecorder()
			sw := newStreamWriter(&statusWriter{ResponseWriter: rec}, maxBytes, maxMatches)
			delivered, open := 0, true
			for lo := 0; lo < len(assignments); {
				hi := min(lo+1+rng.Intn(8), len(assignments))
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
					n, ok = sw.writeMatches(block)
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
			sw.release()
			desc := fmt.Sprintf("round %d, %s (max_bytes=%d max_matches=%d, %d matches)", round, input, maxBytes, maxMatches, len(assignments))
			if got := rec.Body.Bytes(); !bytes.Equal(got, wantWire) {
				t.Fatalf("%s: wire differs from the reference:\n got %q\nwant %q", desc, got, wantWire)
			}
			if delivered != wantMatches || sw.matches != wantMatches || sw.limitHit != wantLimit || sw.capHit != wantCap {
				t.Fatalf("%s: took %d, counts %d, limit_hit=%v byte_cap_hit=%v; want %d, limit_hit=%v byte_cap_hit=%v",
					desc, delivered, sw.matches, sw.limitHit, sw.capHit, wantMatches, wantLimit, wantCap)
			}
			if open == (wantLimit || wantCap) {
				t.Fatalf("%s: sink open = %v after limit_hit=%v byte_cap_hit=%v", desc, open, wantLimit, wantCap)
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
	for name, write := range map[string]func(){
		"engine block":    func() { sw.writeMatches(block) },
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
