package server_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"testing"

	"stwig/internal/core"
	"stwig/internal/graph"
	"stwig/internal/pattern"
	"stwig/internal/server"
)

// TestConcurrentEmitStream drives the local sink from eight machines on four
// workers: each machine encodes its own blocks and hands the lines to the
// stream concurrently with the others, so the race detector sees the
// hand-off from every side. The answer must be the engine's (as a set, since
// machines interleave), a match cap must deliver exactly its count, and a
// byte cap must cut at a line boundary, after the line that crossed it.
func TestConcurrentEmitStream(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const pat = "(a:L1)-(b:L2), (b)-(c:L3), (c)-(d:L0)"
	eng := newEngine(t, 11, 8, 8, 8)
	q, err := pattern.Parse(pat)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Match(q)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(res.Matches))
	for i, m := range res.Matches {
		want[i] = m.Key()
	}
	slices.Sort(want)
	if len(want) < 4000 {
		t.Fatalf("fixture pattern has %d matches, want a streaming query of ~5,000", len(want))
	}

	const byteCap = 100_000
	_, whole, _ := newTestServer(t, eng, server.Config{})
	_, capped, _ := newTestServer(t, eng, server.Config{MaxBytes: byteCap})
	for round := 0; round < 3; round++ {
		lines, stats := streamLines(t, whole.URL, fmt.Sprintf(`{"pattern":%q}`, pat))
		got := make([]string, len(lines))
		for i, a := range lines {
			m := core.Match{Assignment: make([]graph.NodeID, len(a))}
			for j, id := range a {
				m.Assignment[j] = graph.NodeID(id)
			}
			got[i] = m.Key()
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: the stream's %d matches differ from the engine's %d", round, len(got), len(want))
		}
		if stats.Matches != len(want) || stats.Truncated {
			t.Fatalf("round %d: trailer %+v, want %d matches, not truncated", round, stats, len(want))
		}

		n := 1000 + 977*round
		lines, stats = streamLines(t, whole.URL, fmt.Sprintf(`{"pattern":%q,"max_matches":%d}`, pat, n))
		if len(lines) != n || stats.Matches != n || !stats.LimitHit {
			t.Fatalf("round %d: max_matches %d delivered %d lines, trailer %+v", round, n, len(lines), stats)
		}

		body := streamBody(t, capped.URL, fmt.Sprintf(`{"pattern":%q}`, pat))
		payload := body[:bytes.LastIndexByte(body[:len(body)-1], '\n')+1] // the match lines
		last := bytes.LastIndexByte(payload[:len(payload)-1], '\n') + 1
		if len(payload) < byteCap || last >= byteCap {
			t.Fatalf("round %d: %d bytes of matches, the last line starting at %d; want the line crossing %d to be the last", round, len(payload), last, byteCap)
		}
		lines, stats = parseStream(t, body)
		if !stats.ByteCapHit || stats.Matches != len(lines) {
			t.Fatalf("round %d: byte cap: %d lines, trailer %+v", round, len(lines), stats)
		}
	}
}

// streamBody posts a query and returns the whole NDJSON response.
func streamBody(t *testing.T, url, body string) []byte {
	t.Helper()
	resp, err := http.Post(url+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	if _, err := b.ReadFrom(resp.Body); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, %v", resp.StatusCode, err)
	}
	return b.Bytes()
}

// streamLines posts a query and parses its response.
func streamLines(t *testing.T, url, body string) ([][]int64, *server.StreamStats) {
	t.Helper()
	return parseStream(t, streamBody(t, url, body))
}

// parseStream decodes every line of a response: match records, then the
// stats trailer last. A line cut short fails the decode.
func parseStream(t *testing.T, body []byte) ([][]int64, *server.StreamStats) {
	t.Helper()
	var matches [][]int64
	var stats *server.StreamStats
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rec server.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %q: %v", sc.Bytes(), err)
		}
		switch {
		case stats != nil:
			t.Fatalf("line %q after the trailer", sc.Bytes())
		case rec.Type == server.RecordMatch:
			matches = append(matches, rec.Assignment)
		case rec.Type == server.RecordStats:
			stats = rec.Stats
		default:
			t.Fatalf("unexpected record %q", sc.Bytes())
		}
	}
	if stats == nil {
		t.Fatalf("no trailer in %d bytes", len(body))
	}
	return matches, stats
}
