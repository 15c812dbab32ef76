package client_test

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stwig/internal/core"
	"stwig/internal/server"
	"stwig/internal/server/client"
)

// flakyUpdateServer refuses the first busyCount updates with 503 +
// Retry-After, then succeeds. It counts every request it sees.
func flakyUpdateServer(t *testing.T, busyCount int32, retryAfter string) (*httptest.Server, *atomic.Int32) {
	t.Helper()
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/update" {
			t.Errorf("unexpected path %q", r.URL.Path)
		}
		n := hits.Add(1)
		if n <= busyCount {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(server.ErrorResponse{Error: "update queue full: retry"})
			return
		}
		json.NewEncoder(w).Encode(server.UpdateResponse{NodeID: 42, Epoch: uint64(n)})
	}))
	t.Cleanup(ts.Close)
	return ts, &hits
}

// TestUpdateRetriesBusy pins the retry fix: transient 503s with a
// Retry-After hint are retried (bounded, hint capped at the client's
// maxWait) and the eventual success is returned.
func TestUpdateRetriesBusy(t *testing.T) {
	ts, hits := flakyUpdateServer(t, 2, "1")
	c := client.New(ts.URL, client.WithRetry(3, 5*time.Millisecond)) // cap the 1s server hint for test speed

	start := time.Now()
	resp, err := c.Update(context.Background(), server.UpdateRequest{Op: server.OpAddNode, Label: "x"})
	if err != nil {
		t.Fatalf("update with 2 transient busies: %v", err)
	}
	if resp.NodeID != 42 {
		t.Fatalf("resp = %+v, want node 42", resp)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3 (2 busies + success)", got)
	}
	// The 1s Retry-After hint must have been capped at maxWait, not obeyed
	// literally — two uncapped sleeps would take ≥ 1s.
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("retries took %v; Retry-After cap not applied", elapsed)
	}
}

// TestUpdateRetryBudgetExhausted: a persistent 503 is surfaced after the
// budget, carrying the parsed Retry-After.
func TestUpdateRetryBudgetExhausted(t *testing.T) {
	ts, hits := flakyUpdateServer(t, 1000, "2")
	c := client.New(ts.URL, client.WithRetry(2, time.Millisecond))

	_, err := c.Update(context.Background(), server.UpdateRequest{Op: server.OpAddNode, Label: "x"})
	se, ok := err.(*client.StatusError)
	if !ok || se.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want terminal 503", err)
	}
	if !client.IsBusy(err) {
		t.Fatal("IsBusy must recognize the terminal 503")
	}
	if se.RetryAfter != 2*time.Second {
		t.Fatalf("RetryAfter = %v, want 2s parsed from the header", se.RetryAfter)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3 (1 + 2 retries)", got)
	}
}

// TestUpdateRetryZeroMaxWaitIgnoresServerHint: maxWait is an unconditional
// ceiling — with maxWait 0 the client retries immediately no matter how
// large a Retry-After the server asks for, so a misconfigured (or hostile)
// server can never dictate client sleep time.
func TestUpdateRetryZeroMaxWaitIgnoresServerHint(t *testing.T) {
	ts, hits := flakyUpdateServer(t, 2, "3600")
	c := client.New(ts.URL, client.WithRetry(3, 0))

	start := time.Now()
	if _, err := c.Update(context.Background(), server.UpdateRequest{Op: server.OpAddNode, Label: "x"}); err != nil {
		t.Fatalf("update with immediate retries: %v", err)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3", got)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("zero-maxWait retries took %v; the server's 3600s hint leaked into client sleep", elapsed)
	}
}

// TestUpdateNoRetryWithout503Hint: a 503 without a Retry-After hint is
// terminal by contract (namespace dropped, server draining — states a
// retry cannot clear); the client must surface it immediately instead of
// burning the budget and masking the diagnosis with a later 404.
func TestUpdateNoRetryWithout503Hint(t *testing.T) {
	ts, hits := flakyUpdateServer(t, 1000, "" /* no Retry-After */)
	c := client.New(ts.URL) // default retry policy stays enabled

	_, err := c.Update(context.Background(), server.UpdateRequest{Op: server.OpAddNode, Label: "x"})
	se, ok := err.(*client.StatusError)
	if !ok || se.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want the original 503", err)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("server saw %d requests for a hint-less 503, want 1 (no retry)", got)
	}
}

// TestUpdateRetryDisabled: a zero budget surfaces the first 503 verbatim —
// the raw contract tests and latency-sensitive callers pin.
func TestUpdateRetryDisabled(t *testing.T) {
	ts, hits := flakyUpdateServer(t, 1000, "1")
	c := client.New(ts.URL, client.WithRetry(0, 0))

	_, err := c.Update(context.Background(), server.UpdateRequest{Op: server.OpAddNode, Label: "x"})
	if !client.IsBusy(err) {
		t.Fatalf("err = %v, want immediate 503", err)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("server saw %d requests, want exactly 1", got)
	}
}

// TestUpdateRetryHonorsContext: a context that ends mid-backoff aborts the
// retry loop with the context's error instead of sleeping on.
func TestUpdateRetryHonorsContext(t *testing.T) {
	ts, _ := flakyUpdateServer(t, 1000, "1")
	c := client.New(ts.URL, client.WithRetry(5, 10*time.Second)) // would sleep ~1s per retry

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Update(ctx, server.UpdateRequest{Op: server.OpAddNode, Label: "x"})
	if err == nil || ctx.Err() == nil {
		t.Fatalf("err = %v, want a context-deadline abort", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("retry loop outlived its context by %v", elapsed)
	}
}

// TestUpdateNoRetryOnOtherStatuses: only 503 is transient; a 400/409 must
// not be retried (retrying a conflicting mutation cannot fix it).
func TestUpdateNoRetryOnOtherStatuses(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusConflict)
		json.NewEncoder(w).Encode(server.ErrorResponse{Error: "edge already exists"})
	}))
	t.Cleanup(ts.Close)
	c := client.New(ts.URL)

	_, err := c.Update(context.Background(), server.UpdateRequest{Op: server.OpAddEdge, U: 1, V: 2})
	se, ok := err.(*client.StatusError)
	if !ok || se.StatusCode != http.StatusConflict {
		t.Fatalf("err = %v, want 409", err)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("server saw %d requests for a 409, want 1 (no retry)", got)
	}
}

// TestNamespaceClientInheritsRetryPolicy: Namespace() must carry the parent
// client's retry settings, or scoped tenants silently lose the fix.
func TestNamespaceClientInheritsRetryPolicy(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/ns/t/update" {
			t.Errorf("unexpected path %q", r.URL.Path)
		}
		if hits.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(server.ErrorResponse{Error: "update busy"})
			return
		}
		json.NewEncoder(w).Encode(server.UpdateResponse{Epoch: 1})
	}))
	t.Cleanup(ts.Close)
	root := client.New(ts.URL, client.WithRetry(1, time.Millisecond))
	if _, err := root.Namespace("t").Update(context.Background(), server.UpdateRequest{Op: server.OpAddNode, Label: "x"}); err != nil {
		t.Fatalf("scoped update with one transient busy: %v", err)
	}
	if got := hits.Load(); got != 2 {
		t.Fatalf("scoped server saw %d requests, want 2 (busy + retried success)", got)
	}
}

// TestStatsDecodesJournal guards the durability additions to the stats wire
// format: a client built against these structs must see the journal block
// and the update-queue counters a durable server reports — omitting or
// renaming a JSON tag on either side breaks this test before it breaks an
// operator's dashboard.
func TestStatsDecodesJournal(t *testing.T) {
	payload := `{
		"namespace": "dur",
		"uptime_seconds": 1.5,
		"graph": {"nodes": 34, "machines": 2, "epoch": 7, "memory_bytes": 4096},
		"update_queue": {"depth": 64, "applied": 5, "batches": 2},
		"journal": {
			"enabled": true,
			"records_appended": 5,
			"bytes_appended": 190,
			"fsyncs": 5,
			"last_seq": 9,
			"size_bytes": 270,
			"checkpoints": 1,
			"checkpoint_seq": 4,
			"replayed_records": 4,
			"replayed_mutations": 6,
			"torn_tail_recovered": true
		},
		"endpoints": {}
	}`
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/stats" {
			t.Errorf("unexpected path %q", r.URL.Path)
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(payload))
	}))
	t.Cleanup(ts.Close)
	st, err := client.New(ts.URL).Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.UpdateQueue.Applied != 5 || st.UpdateQueue.Batches != 2 {
		t.Fatalf("update_queue decoded as %+v, want applied 5 in 2 batches", st.UpdateQueue)
	}
	j := st.Journal
	if j == nil || !j.Enabled {
		t.Fatalf("journal block missing: %+v", j)
	}
	want := server.JournalInfo{
		Enabled: true, Records: 5, Bytes: 190, Fsyncs: 5, LastSeq: 9, SizeBytes: 270,
		Checkpoints: 1, CheckpointSeq: 4, ReplayedRecords: 4, ReplayedMutations: 6,
		TornTailRecovered: true,
	}
	if *j != want {
		t.Fatalf("journal decoded as %+v, want %+v", *j, want)
	}
}

// traceServer records the X-Stwig-Trace header of every request it sees and
// echoes it back, like stwigd does.
func traceServer(t *testing.T, busyCount int32) (*httptest.Server, *[]string, *sync.Mutex) {
	t.Helper()
	var mu sync.Mutex
	var traces []string
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		trace := r.Header.Get("X-Stwig-Trace")
		mu.Lock()
		traces = append(traces, trace)
		mu.Unlock()
		w.Header().Set("X-Stwig-Trace", trace)
		if hits.Add(1) <= busyCount {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(server.ErrorResponse{Error: "busy"})
			return
		}
		json.NewEncoder(w).Encode(server.UpdateResponse{Epoch: 1})
	}))
	t.Cleanup(ts.Close)
	return ts, &traces, &mu
}

// TestUpdateTraceStableAcrossRetries: every attempt of one logical Update
// carries the same X-Stwig-Trace value — the caller's when the context has
// one, a minted one otherwise — so a retry chain greps as one trace.
func TestUpdateTraceStableAcrossRetries(t *testing.T) {
	ts, traces, mu := traceServer(t, 2)
	c := client.New(ts.URL, client.WithRetry(3, time.Millisecond))

	ctx := core.WithTraceID(context.Background(), "retry-chain-7")
	if _, err := c.Update(ctx, server.UpdateRequest{Op: server.OpAddNode, Label: "x"}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(*traces) != 3 {
		t.Fatalf("server saw %d attempts, want 3", len(*traces))
	}
	for i, tr := range *traces {
		if tr != "retry-chain-7" {
			t.Fatalf("attempt %d carried trace %q, want retry-chain-7", i+1, tr)
		}
	}
}

// TestUpdateTraceMintedWithoutContext: with no context trace ID the client
// mints one, still stable across the whole retry chain and non-empty.
func TestUpdateTraceMintedWithoutContext(t *testing.T) {
	ts, traces, mu := traceServer(t, 1)
	c := client.New(ts.URL, client.WithRetry(2, time.Millisecond))

	if _, err := c.Update(context.Background(), server.UpdateRequest{Op: server.OpAddNode, Label: "x"}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(*traces) != 2 {
		t.Fatalf("server saw %d attempts, want 2", len(*traces))
	}
	if (*traces)[0] == "" {
		t.Fatal("client sent no trace ID")
	}
	if (*traces)[0] != (*traces)[1] {
		t.Fatalf("minted trace changed across retries: %q then %q", (*traces)[0], (*traces)[1])
	}
}

// TestSetLoggerRetryLogs: an installed slog logger sees each backoff
// decision at Debug, tagged with the trace ID and attempt number.
func TestSetLoggerRetryLogs(t *testing.T) {
	ts, _, _ := traceServer(t, 2)
	var buf bytes.Buffer
	c := client.New(ts.URL, client.WithRetry(3, time.Millisecond),
		client.WithLogger(slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))))

	ctx := core.WithTraceID(context.Background(), "logged-trace")
	if _, err := c.Update(ctx, server.UpdateRequest{Op: server.OpAddNode, Label: "x"}); err != nil {
		t.Fatal(err)
	}
	var lines []map[string]any
	for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal(line, &m); err != nil {
			t.Fatalf("bad log line %q: %v", line, err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 2 {
		t.Fatalf("logged %d retry lines, want 2 (one per busy attempt):\n%s", len(lines), buf.String())
	}
	for i, m := range lines {
		if m["trace_id"] != "logged-trace" {
			t.Fatalf("retry log line %d trace_id = %v", i, m["trace_id"])
		}
		if m["attempt"] != float64(i+1) {
			t.Fatalf("retry log line %d attempt = %v, want %d", i, m["attempt"], i+1)
		}
	}

	// StatusError carries the echoed trace for a terminal failure too.
	ts2, _, _ := traceServer(t, 100)
	c2 := client.New(ts2.URL, client.WithRetry(1, time.Millisecond))
	_, err := c2.Update(core.WithTraceID(context.Background(), "doomed-trace"), server.UpdateRequest{Op: server.OpAddNode, Label: "x"})
	se, ok := err.(*client.StatusError)
	if !ok {
		t.Fatalf("err = %v, want StatusError", err)
	}
	if se.TraceID != "doomed-trace" {
		t.Fatalf("StatusError.TraceID = %q, want doomed-trace", se.TraceID)
	}
}

// TestQueryDecodesEverySpellingOfAMatch pins Query's two decode paths against
// a scripted stream: canonical match lines take the allocation-light parser,
// any other valid spelling (spaces, reordered keys, CRLF, an empty
// assignment, blank lines between) falls back to encoding/json, and both
// hand the callback a fresh slice with the same values, in order.
func TestQueryDecodesEverySpellingOfAMatch(t *testing.T) {
	const stream = `{"type":"match","assignment":[1,2,3]}` + "\n" +
		`{"type":"match","assignment":[-4,9223372036854775807,0]}` + "\n" +
		"\n" +
		`{ "type": "match", "assignment": [5, 6, 7] }` + "\n" +
		`{"assignment":[8,9,10],"type":"match"}` + "\r\n" +
		`{"type":"match","assignment":[11,12,13]}` + "\r\n" +
		`{"type":"match"}` + "\n" +
		`{"type":"stats","stats":{"matches":6,"plan_us":3}}` + "\n"
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(stream))
	}))
	defer ts.Close()
	var got [][]int64
	stats, err := client.New(ts.URL).Query(context.Background(), server.QueryRequest{Pattern: "(a:x)-(b:y)"}, func(a []int64) bool {
		got = append(got, a) // kept: each callback must own its slice
		return true
	})
	if err != nil || stats == nil || stats.Matches != 6 {
		t.Fatalf("stats = %+v, err = %v; want the trailer with 6 matches", stats, err)
	}
	want := [][]int64{{1, 2, 3}, {-4, 9223372036854775807, 0}, {5, 6, 7}, {8, 9, 10}, {11, 12, 13}, nil}
	if len(got) != len(want) {
		t.Fatalf("callback saw %d matches, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Errorf("match %d = %v, want %v", i, got[i], want[i])
		}
	}

	// A line that is no record at all still fails the stream loudly.
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"type":"match","assignment":[1,2,` + "\n"))
	}))
	defer bad.Close()
	if _, err := client.New(bad.URL).Query(context.Background(), server.QueryRequest{Pattern: "(a:x)-(b:y)"}, nil); err == nil || !strings.Contains(err.Error(), "bad stream record") {
		t.Fatalf("truncated match line: err = %v, want a bad stream record", err)
	}
}
