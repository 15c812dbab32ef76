// Unit tests for coordinator internals that the in-process cluster harness
// cannot reach deterministically: the node-count cache's zero discipline,
// the server-side deadline on leg calls, and — against fake shards that
// misbehave on cue — the leg reader, the leg handshake, the legs' connection
// pool and the query path's allocation count.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testCoordinator wires a one-leg coordinator against a fake shard, with
// just enough Server behind it for callLeg's config lookup.
func testCoordinator(shardURL string, timeout time.Duration) *coordinator {
	return &coordinator{
		s:    &Server{cfg: Config{DefaultTimeout: timeout}},
		legs: []*shardLeg{{id: 0, url: shardURL}},
		hc:   &http.Client{},
	}
}

// TestCoordinatorNodeCountRecovers pins that a failed stats fetch is not
// cached as zero: ownership routing recovers as soon as shard 0 answers
// again, instead of pinning every ack to shard 0 for the process lifetime.
func TestCoordinatorNodeCountRecovers(t *testing.T) {
	var healthy atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !healthy.Load() {
			http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
			return
		}
		_ = json.NewEncoder(w).Encode(StatsResponse{Namespace: "ns", Graph: GraphInfo{Nodes: 7}})
	}))
	defer ts.Close()
	c := testCoordinator(ts.URL, time.Second)
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	n, e := c.nodeCount(context.Background(), req, "ns")
	if n != 0 || e == nil || e.status != http.StatusBadGateway || e.code != CodeShardUnavailable || !strings.Contains(e.msg, "shard 0") {
		t.Fatalf("count while shard 0 is failing = %d, %+v; want 0 and a 502 shard_unavailable naming shard 0", n, e)
	}
	healthy.Store(true)
	if n, e := c.nodeCount(context.Background(), req, "ns"); n != 7 || e != nil {
		t.Fatalf("count after shard 0 recovered = %d, %+v; want 7 (a zero was cached)", n, e)
	}
	healthy.Store(false)
	if n, e := c.nodeCount(context.Background(), req, "ns"); n != 7 || e != nil {
		t.Fatalf("count from warm cache = %d, %+v; want 7", n, e)
	}
}

// TestCoordinatorBumpNodeCount pins the cache discipline bumpNodeCount and
// nodeCount agree on: non-positive counts are never stored, and a stored
// count only rises.
func TestCoordinatorBumpNodeCount(t *testing.T) {
	c := &coordinator{}
	c.bumpNodeCount("ns", 0)
	if _, ok := c.nsNodes.Load("ns"); ok {
		t.Fatal("bumpNodeCount cached a zero")
	}
	c.bumpNodeCount("ns", 5)
	c.bumpNodeCount("ns", 3)
	v, ok := c.nsNodes.Load("ns")
	if !ok {
		t.Fatal("bumpNodeCount dropped a positive count")
	}
	if got := v.(*atomic.Int64).Load(); got != 5 {
		t.Fatalf("cached count = %d, want 5 (the count must never lower)", got)
	}
}

// TestCoordinatorLegDeadline pins that every leg call carries a server-side
// deadline: a shard that accepts the TCP connection but never answers fails
// the call within DefaultTimeout instead of hanging a broadcast (and its
// goroutine) forever.
func TestCoordinatorLegDeadline(t *testing.T) {
	block := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-block // wedged shard: connection up, no reply ever
	}))
	defer func() { close(block); ts.Close() }()
	c := testCoordinator(ts.URL, 50*time.Millisecond)
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	start := time.Now()
	res := c.callLeg(context.Background(), c.legs[0], req, http.MethodGet, ts.URL+"/v1/stats", nil)
	if res.err == nil {
		t.Fatalf("wedged shard produced no error (status %d)", res.status)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("leg call took %v despite the 50ms deadline", elapsed)
	}
}

// fakeLeg serves one fake shard's /query leg.
type fakeLeg func(w http.ResponseWriter, flush func())

// newFakeCluster boots a real coordinator, behind a real listener, over fake
// shards: each answers /stats with a fixed vertex count and hands its /query
// leg to legs[i]. connState, when set, observes the shards' connections.
func newFakeCluster(t *testing.T, connState func(net.Conn, http.ConnState), legs ...fakeLeg) (coordURL string) {
	t.Helper()
	urls := make([]string, len(legs))
	for i, leg := range legs {
		ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/stats") {
				_ = json.NewEncoder(w).Encode(StatsResponse{Namespace: DefaultNamespace, Graph: GraphInfo{Nodes: 1000}})
				return
			}
			_, _ = io.Copy(io.Discard, r.Body)
			leg(w, w.(http.Flusher).Flush)
		}))
		ts.Config.ConnState = connState
		ts.Start()
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	return newCoordinatorOver(t, urls)
}

// newCoordinatorOver boots a real coordinator, behind a real listener, over
// the shards at urls.
func newCoordinatorOver(t *testing.T, urls []string) (coordURL string) {
	t.Helper()
	coord, err := NewMulti(Config{ShardMap: strings.Join(urls, ","), ShardID: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	cts := httptest.NewServer(coord)
	t.Cleanup(cts.Close)
	return cts.URL
}

// postQuery sends one query to a coordinator and returns the reply whole.
func postQuery(t testing.TB, coordURL string) (status int, body []byte) {
	t.Helper()
	resp, err := http.Post(coordURL+"/v1/query", "application/json", strings.NewReader(`{"pattern":"(a:L0)-(b:L1)"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading the coordinator's reply: %v", err)
	}
	return resp.StatusCode, body
}

// legTrailer is the stats trailer of a leg that sent matches match lines.
func legTrailer(matches int) string {
	return fmt.Sprintf(`{"type":"stats","stats":{"matches":%d,"plan_us":1,"explore_us":1,"join_us":1,"elapsed_us":3,"net_messages":0,"net_bytes":0}}`+"\n", matches)
}

// emptyLeg is a healthy shard that owns none of the matches.
func emptyLeg(w http.ResponseWriter, flush func()) { _, _ = io.WriteString(w, legTrailer(0)) }

// chunkReader hands out its chunks one Read at a time, so a test decides
// exactly where the leg reader's reads split the stream.
type chunkReader struct{ chunks []string }

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.chunks[0])
	if r.chunks[0] = r.chunks[0][n:]; r.chunks[0] == "" {
		r.chunks = r.chunks[1:]
	}
	return n, nil
}

// splitEvery cuts s into pieces of n bytes.
func splitEvery(s string, n int) []string {
	var out []string
	for ; len(s) > n; s = s[n:] {
		out = append(out, s[:n])
	}
	return append(out, s)
}

// TestLegReaderAdversarialChunking feeds the leg reader streams cut in the
// worst places, spelled in the oddest legal ways, or corrupt. Whatever the
// chunking, the client must get exactly the lines the shard sent, in order,
// counted right — or a loud shard_unavailable. The leg reader decodes only
// the last line of each read, so what it forwards unread is checked by
// count: a trailer that does not count the lines the leg sent, a stats
// record mid-stream and bytes after the terminal record all fail the leg.
// Every case runs twice: against forwardLeg directly, where the chunk
// boundaries are exactly the ones written down, and end to end through a
// coordinator whose shard 0 writes and flushes the same chunks.
func TestLegReaderAdversarialChunking(t *testing.T) {
	line := func(ids ...int) string {
		parts := make([]string, len(ids))
		for i, id := range ids {
			parts[i] = fmt.Sprint(id)
		}
		return `{"type":"match","assignment":[` + strings.Join(parts, ",") + "]}\n"
	}
	three := line(1, 2) + line(30, 4) + line(5, 600)
	longIDs := make([]int, 9000) // one canonical line of ~50 KB: longer than the read buffer
	for i := range longIDs {
		longIDs[i] = 10000 + i
	}
	long := line(longIDs...)
	if len(long) <= blockBufSize {
		t.Fatalf("the long line is %d bytes, not longer than the %d-byte read buffer", len(long), blockBufSize)
	}
	trailer := legTrailer(3)
	spaced := `{ "type": "match", "assignment": [30, 4] }` + "\n"
	reordered := `{"assignment":[30,4],"type":"match"}` + "\n"
	cases := []struct {
		name    string
		chunks  []string
		want    string // the match lines the client must receive
		wantErr string // or: the failure's message must contain this
	}{
		{"one-byte writes", splitEvery(three+trailer, 1), three, ""},
		{"split mid-line", []string{three[:len(line(1, 2))+9], three[len(line(1, 2))+9:] + trailer}, three, ""},
		{"split between the newline and the next line", []string{line(1, 2), line(30, 4), line(5, 600), trailer}, three, ""},
		{"terminal record in the same chunk as matches", []string{three + trailer}, three, ""},
		// A match in another spelling is forwarded as the shard wrote it:
		// decoded where it ends a read, unread anywhere else.
		{"a match line spelled with spaces", []string{line(1, 2) + spaced, line(5, 600) + trailer}, line(1, 2) + spaced + line(5, 600), ""},
		{"a match line with reordered keys, split", []string{line(1, 2) + reordered[:18], reordered[18:] + line(5, 600) + trailer}, line(1, 2) + reordered + line(5, 600), ""},
		{"a trailer without its newline", []string{three + strings.TrimSuffix(trailer, "\n")}, three, ""},
		{"a line longer than the read buffer", append(splitEvery(line(1, 2)+long+line(30, 4), 7000), trailer), line(1, 2) + long + line(30, 4), ""},
		{"no matches at all", []string{legTrailer(0)}, "", ""},
		{"a trailer counting fewer matches than the leg sent", []string{three + legTrailer(2)}, "", "bad stream record"},
		{"a trailer counting more matches than the leg sent", []string{three, legTrailer(4)}, "", "bad stream record"},
		{"a stats record mid-stream", []string{line(1, 2) + legTrailer(1), line(30, 4) + line(5, 600) + trailer}, "", "bad stream record"},
		{"bytes after the terminal record", []string{three + trailer + "trailing junk\n"}, "", "bad stream record"},
		{"blank lines", []string{"\n" + line(1, 2) + "\n  \n" + line(30, 4), "\n", line(5, 600) + trailer}, "", "bad stream record"},
		{"a garbage line first", []string{"garbage\n" + three + trailer}, "", "bad stream record"},
		{"a garbage line after matches", []string{three, "{\"type\":\"match\",\"assignment\":[1,\n" + trailer}, "", "bad stream record"},
		{"an unknown record type", []string{three + `{"type":"progress"}` + "\n"}, "", `unknown stream record type "progress"`},
		{"an error record", []string{three + `{"type":"error","error":"engine on fire","code":"internal"}` + "\n"}, "", "engine on fire (internal)"},
		{"EOF without a terminal record", []string{three}, "", "unexpected EOF"},
		{"EOF mid-line", []string{three + trailer[:20]}, "", "bad stream record"},
	}
	for _, c := range cases {
		t.Run(c.name+"/reader", func(t *testing.T) {
			rec := httptest.NewRecorder()
			f := &fanout{out: lineHandoff{sink: newStreamWriter(&statusWriter{ResponseWriter: rec}, 0, 0)}, cancel: func() {}}
			res := &legQueryResult{}
			err := forwardLeg(f, res, &chunkReader{chunks: append([]string(nil), c.chunks...)})
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, c.wantErr)
				}
				return
			}
			if err != nil || res.stats == nil {
				t.Fatalf("err = %v, leg trailer %v; want a clean leg", err, res.stats)
			}
			f.out.sink.flush() // what the client's terminal record would take along
			if got := rec.Body.String(); got != c.want {
				t.Fatalf("forwarded %d bytes, want %d:\n got %.200q\nwant %.200q", len(got), len(c.want), got, c.want)
			}
			if want := strings.Count(c.want, "\n"); res.matches != want || f.out.sink.matches != want {
				t.Fatalf("leg counts %d matches, sink %d, want %d", res.matches, f.out.sink.matches, want)
			}
		})
		t.Run(c.name+"/cluster", func(t *testing.T) {
			coordURL := newFakeCluster(t, nil, func(w http.ResponseWriter, flush func()) {
				for _, chunk := range c.chunks {
					_, _ = io.WriteString(w, chunk)
					flush()
				}
			}, emptyLeg)
			status, body := postQuery(t, coordURL)
			lines := bytes.SplitAfter(body, []byte("\n"))
			last := lines[max(len(lines)-2, 0)] // SplitAfter leaves an empty tail
			if c.wantErr != "" {
				// Status-coded if the leg failed before anything was
				// forwarded, an error record after: loud either way.
				var msg, code string
				if status == http.StatusOK {
					var rec Record
					if err := json.Unmarshal(last, &rec); err != nil || rec.Type != RecordError {
						t.Fatalf("a failed leg ended the stream with %q", last)
					}
					msg, code = rec.Error, rec.Code
				} else {
					var env ErrorResponse
					if err := json.Unmarshal(body, &env); err != nil || status != http.StatusBadGateway {
						t.Fatalf("a failed leg drew status %d, body %q", status, body)
					}
					msg, code = env.Error, env.Code
				}
				if code != CodeShardUnavailable || !strings.Contains(msg, "shard 0") || !strings.Contains(msg, c.wantErr) {
					t.Fatalf("failure is %q (%s), want %s naming shard 0 and %q", msg, code, CodeShardUnavailable, c.wantErr)
				}
				return
			}
			var rec Record
			if err := json.Unmarshal(last, &rec); err != nil || status != http.StatusOK || rec.Type != RecordStats {
				t.Fatalf("status %d, terminal record %q (%v); want a stats trailer", status, last, err)
			}
			if got := string(body[:len(body)-len(last)]); got != c.want {
				t.Fatalf("client received %d bytes of matches, want %d:\n got %.200q\nwant %.200q", len(got), len(c.want), got, c.want)
			}
			if want := strings.Count(c.want, "\n"); rec.Stats.Matches != want || rec.Stats.Shards[0].Matches != want || rec.Stats.Shards[1].Matches != 0 {
				t.Fatalf("trailer counts %d matches (legs %+v), want %d, all from shard 0", rec.Stats.Matches, rec.Stats.Shards, want)
			}
		})
	}
}

// TestCoordinatorDegradesByStatusWhateverTheOtherLegSends pins the leg
// handshake: one shard answers at once with 10,000 matches, the other takes
// 50 ms to answer 503. Nothing is forwarded until every leg has answered, so
// the client gets the 502 envelope — never a 200 that then has to end in an
// error record. (The parent had flushed the first 64 matches by then.)
func TestCoordinatorDegradesByStatusWhateverTheOtherLegSends(t *testing.T) {
	var flood bytes.Buffer
	for i := 0; i < 10000; i++ {
		fmt.Fprintf(&flood, `{"type":"match","assignment":[%d,%d]}`+"\n", i, i+1)
	}
	flood.WriteString(legTrailer(10000))
	coordURL := newFakeCluster(t, nil,
		func(w http.ResponseWriter, flush func()) { _, _ = w.Write(flood.Bytes()) },
		func(w http.ResponseWriter, flush func()) {
			time.Sleep(50 * time.Millisecond)
			writeEnvelope(w, errStatus(http.StatusServiceUnavailable, "namespace is shutting down"))
		})
	for i := 0; i < 3; i++ {
		status, body := postQuery(t, coordURL)
		var env ErrorResponse
		if err := json.Unmarshal(body, &env); err != nil || status != http.StatusBadGateway || env.Code != CodeShardUnavailable {
			t.Fatalf("query %d: status %d, body %.300q; want the 502 %s envelope", i, status, body, CodeShardUnavailable)
		}
		if !strings.Contains(env.Error, "shard 1") || !strings.Contains(env.Error, "503") {
			t.Fatalf("query %d: envelope %q does not name shard 1 and its 503", i, env.Error)
		}
	}
}

// TestCoordinatorLegsReuseConnections pins the legs' own connection pool:
// after one wave of 8 concurrent queries, a second wave opens no connection
// to any shard. Each shard holds a wave's legs until all 8 have arrived, so
// the wave really needs 8 connections at once. (http.DefaultTransport keeps
// two idle per host and re-dialled the other six; and a leg that stopped
// reading at its trailer closed its connection instead of returning it.)
func TestCoordinatorLegsReuseConnections(t *testing.T) {
	const wave = 8
	var opened atomic.Int64
	connState := func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			opened.Add(1)
		}
	}
	var mu sync.Mutex
	arrived := map[int]int{} // shard → legs of the current wave that have arrived
	release := map[int]chan struct{}{0: make(chan struct{}), 1: make(chan struct{})}
	barrier := func(shard int) fakeLeg {
		return func(w http.ResponseWriter, flush func()) {
			mu.Lock()
			ch := release[shard]
			if arrived[shard]++; arrived[shard] == wave {
				arrived[shard], release[shard] = 0, make(chan struct{})
				close(ch)
			}
			mu.Unlock()
			<-ch
			_, _ = io.WriteString(w, `{"type":"match","assignment":[1,2]}`+"\n"+legTrailer(1))
		}
	}
	coordURL := newFakeCluster(t, connState, barrier(0), barrier(1))
	runWave := func() {
		var wg sync.WaitGroup
		for i := 0; i < wave; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if status, body := postQuery(t, coordURL); status != http.StatusOK {
					t.Errorf("status %d: %s", status, body)
				}
			}()
		}
		wg.Wait()
	}
	runWave()
	before := opened.Load()
	if before < 2*wave {
		t.Fatalf("the first wave opened %d shard connections, want at least %d (8 legs at once on each of 2 shards)", before, 2*wave)
	}
	runWave()
	if after := opened.Load(); after != before {
		t.Fatalf("the second wave opened %d new shard connections, want 0", after-before)
	}
}

// TestCoordinatorQueryAllocationsDoNotGrowWithMatches is the allocation gate
// on the coordinator's query path, counted over the whole process — client,
// coordinator and both fake shards: a query costs a fixed number of
// allocations (HTTP plumbing, two leg requests, three trailers) however many
// matches flow through it. The parent paid 13 per match here: 65,000 for the
// larger query.
func TestCoordinatorQueryAllocationsDoNotGrowWithMatches(t *testing.T) {
	perQuery := func(matches int) float64 {
		var half bytes.Buffer
		for i := 0; i < matches/2; i++ {
			fmt.Fprintf(&half, `{"type":"match","assignment":[%d,%d,%d,%d]}`+"\n", i, 1000+i, 50000+i, 7)
		}
		trailer := legTrailer(matches / 2)
		half.WriteString(trailer)
		leg := func(w http.ResponseWriter, flush func()) { _, _ = w.Write(half.Bytes()) }
		coordURL := newFakeCluster(t, nil, leg, leg)
		query := func() {
			resp, err := http.Post(coordURL+"/v1/query", "application/json", strings.NewReader(`{"pattern":"(a:L0)-(b:L1)"}`))
			if err != nil {
				t.Fatal(err)
			}
			n, _ := io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || n < int64(2*(half.Len()-len(trailer))) {
				t.Fatalf("status %d, %d body bytes; want all %d matches", resp.StatusCode, n, matches)
			}
		}
		query() // connections dialled, node count cached, pools warm
		return testing.AllocsPerRun(20, query)
	}
	small, large := perQuery(500), perQuery(5000)
	t.Logf("allocations per query: %.0f with 500 matches, %.0f with 5000", small, large)
	const fixed = 800
	if large > fixed {
		t.Errorf("a 5000-match query through the coordinator costs %.0f allocations, want at most %d", large, fixed)
	}
	if large > small+100 {
		t.Errorf("allocations grow with the match count: %.0f at 500 matches, %.0f at 5000", small, large)
	}
}

// TestCoordinatorFailsAQueryWhoseNItCannotPin: the vertex count every leg's
// selector carries is read from shard 0's /stats, and a count that cannot be
// read must fail the query as a 502 naming shard 0 — not go out as n = 0, on
// which each leg divides its own local count and, mid add_node broadcast,
// the two draw different boundaries. The stub shards' /query legs would have
// answered: the parent served these requests with a 200. A 4xx from /stats
// is not a dead shard (the legs relay the refusal itself), and an empty
// namespace still reads — and pins nothing — as zero.
func TestCoordinatorFailsAQueryWhoseNItCannotPin(t *testing.T) {
	var stats atomic.Value // the http.HandlerFunc shard 0's /stats runs
	var legs atomic.Int32  // /query legs the shards have served
	var lastN atomic.Int64 // the n of the last selector a leg received
	urls := make([]string, 2)
	for i := range urls {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/stats") {
				stats.Load().(http.HandlerFunc)(w, r)
				return
			}
			var req QueryRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Shard == nil {
				t.Errorf("leg request without a selector: %v", err)
				return
			}
			legs.Add(1)
			lastN.Store(req.Shard.N)
			emptyLeg(w, nil)
		}))
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	coordURL := newCoordinatorOver(t, urls)

	for _, c := range []struct {
		name  string
		stats http.HandlerFunc
	}{
		{"a 500", func(w http.ResponseWriter, r *http.Request) {
			writeEnvelope(w, errStatus(http.StatusInternalServerError, "stats on fire"))
		}},
		{"a severed connection", func(w http.ResponseWriter, r *http.Request) {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
		}},
		{"a body that is not stats", func(w http.ResponseWriter, r *http.Request) { _, _ = io.WriteString(w, "<html>") }},
	} {
		stats.Store(c.stats)
		status, body := postQuery(t, coordURL)
		var env ErrorResponse
		if err := json.Unmarshal(body, &env); err != nil || status != http.StatusBadGateway || env.Code != CodeShardUnavailable || !strings.Contains(env.Error, "shard 0") {
			t.Fatalf("/stats answering %s: status %d, body %.300q; want the 502 %s envelope naming shard 0", c.name, status, body, CodeShardUnavailable)
		}
		if n := legs.Load(); n != 0 {
			t.Fatalf("/stats answering %s: %d legs went out with an unpinned n", c.name, n)
		}
	}

	// A refusal is not a failure: the legs go out and relay their own.
	stats.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeEnvelope(w, errStatus(http.StatusNotFound, `unknown namespace "default"`))
	}))
	if status, body := postQuery(t, coordURL); status != http.StatusOK || legs.Load() != 2 {
		t.Fatalf("/stats answering 404: status %d, body %.300q, %d legs; want the query left to the legs", status, body, legs.Load())
	}
	// An empty namespace has no count to pin.
	stats.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(StatsResponse{Namespace: DefaultNamespace})
	}))
	if status, body := postQuery(t, coordURL); status != http.StatusOK || legs.Load() != 4 || lastN.Load() != 0 {
		t.Fatalf("empty namespace: status %d, body %.300q, %d legs, n = %d; want a served query with n = 0", status, body, legs.Load(), lastN.Load())
	}
	// And a count that can be read is the one every leg gets.
	stats.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(StatsResponse{Namespace: DefaultNamespace, Graph: GraphInfo{Nodes: 1000}})
	}))
	if status, _ := postQuery(t, coordURL); status != http.StatusOK || legs.Load() != 6 || lastN.Load() != 1000 {
		t.Fatalf("healthy /stats: status %d, %d legs, n = %d; want n = 1000 pinned", status, legs.Load(), lastN.Load())
	}
}
