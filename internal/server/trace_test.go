package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"stwig/internal/core"
	"stwig/internal/server"
	"stwig/internal/server/client"
)

// syncBuffer is a bytes.Buffer safe for a slog handler writing from request
// goroutines while the test reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// logLines decodes every JSON log line the buffer holds.
func (b *syncBuffer) logLines(t *testing.T) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad log line %q: %v", line, err)
		}
		out = append(out, m)
	}
	return out
}

// waitForLogLine polls until a log line matching pred appears; the summary
// line is written after the handler returns, which can race the client
// seeing the response.
func waitForLogLine(t *testing.T, buf *syncBuffer, pred func(map[string]any) bool) map[string]any {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, m := range buf.logLines(t) {
			if pred(m) {
				return m
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("log line never appeared; log so far:\n%s", buf.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// slogJSON builds a Config logger writing JSON lines into buf at Debug.
func slogJSON(buf *syncBuffer) *slog.Logger {
	return slog.New(slog.NewJSONHandler(buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
}

// TestTraceFourSurfaces is the end-to-end identity check: one trace ID,
// supplied by the client, must come back verbatim on (1) the X-Stwig-Trace
// response header, (2) the NDJSON stats trailer's trace_id, (3) the server's
// structured request log line, and (4) the client's stats record /
// StatusError.
func TestTraceFourSurfaces(t *testing.T) {
	eng := newEngine(t, 8, 8, 4, 2)
	var buf syncBuffer
	_, ts, c := newTestServer(t, eng, server.Config{Logger: slogJSON(&buf)})

	const trace = "e2e-trace-0123456789abcdef"

	// Surface 1 + 2: raw HTTP, so the response header and the NDJSON trailer
	// are both visible.
	body, _ := json.Marshal(server.QueryRequest{Pattern: "(a:L0)-(b:L1)", MaxMatches: 5})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(server.TraceHeader, trace)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get(server.TraceHeader); got != trace {
		t.Fatalf("response header %s = %q, want %q", server.TraceHeader, got, trace)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var trailer *server.StreamStats
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec server.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("bad stream record %q: %v", line, err)
		}
		if rec.Type == server.RecordStats {
			trailer = rec.Stats
		}
	}
	if trailer == nil {
		t.Fatal("no stats trailer in NDJSON stream")
	}
	if trailer.TraceID != trace {
		t.Fatalf("stats trailer trace_id = %q, want %q", trailer.TraceID, trace)
	}

	// Surface 3: the server's request summary log line.
	line := waitForLogLine(t, &buf, func(m map[string]any) bool {
		return m["msg"] == "request" && m["route"] == "/query" && m["trace_id"] == trace
	})
	if line["namespace"] != "default" {
		t.Fatalf("request log namespace = %v, want default", line["namespace"])
	}
	if line["status"] != float64(200) {
		t.Fatalf("request log status = %v, want 200", line["status"])
	}

	// Surface 4a: the client's stats record, with the same ID threaded
	// through the context.
	ctx := core.WithTraceID(context.Background(), trace)
	stats, err := c.Query(ctx, server.QueryRequest{Pattern: "(a:L0)-(b:L1)", MaxMatches: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TraceID != trace {
		t.Fatalf("client stats record TraceID = %q, want %q", stats.TraceID, trace)
	}

	// Surface 4b: a failing call surfaces the same ID on StatusError.
	_, err = c.Query(ctx, server.QueryRequest{Pattern: "(a:L0"}, nil)
	se, ok := err.(*client.StatusError)
	if !ok {
		t.Fatalf("err = %v, want StatusError", err)
	}
	if se.TraceID != trace {
		t.Fatalf("StatusError.TraceID = %q, want %q", se.TraceID, trace)
	}
	if !strings.Contains(se.Error(), trace) {
		t.Fatalf("StatusError.Error() = %q does not mention the trace ID", se.Error())
	}
	// The failed request logged under the same ID too.
	waitForLogLine(t, &buf, func(m map[string]any) bool {
		return m["msg"] == "request" && m["trace_id"] == trace && m["error"] == true
	})
}

// TestTraceMinted: requests without a usable client trace ID get a minted
// 16-hex one; malformed or oversized header values are replaced, never
// echoed.
func TestTraceMinted(t *testing.T) {
	eng := newEngine(t, 6, 4, 2, 1)
	_, ts, _ := newTestServer(t, eng, server.Config{})

	hex16 := regexp.MustCompile(`^[0-9a-f]{16}$`)
	cases := []string{
		"",                      // absent
		"has space",             // forbidden rune
		"über-trace",            // non-ASCII
		"x;rm -rf",              // header injection attempt
		strings.Repeat("a", 65), // too long
		"bad\ttrace",            // control character
	}
	for _, sent := range cases {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		if sent != "" {
			req.Header.Set(server.TraceHeader, sent)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		got := resp.Header.Get(server.TraceHeader)
		if !hex16.MatchString(got) {
			t.Fatalf("sent %q: response trace %q is not a minted 16-hex ID", sent, got)
		}
		if got == sent {
			t.Fatalf("malformed trace %q was echoed back", sent)
		}
	}

	// A well-formed client ID is honored verbatim.
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(server.TraceHeader, "Good_ID-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(server.TraceHeader); got != "Good_ID-42" {
		t.Fatalf("well-formed trace not echoed: got %q", got)
	}
}

// TestSlowQueryLog: with SlowQuery set below any real execution time, every
// query emits a Warn breakdown whose span tree carries the phase names.
func TestSlowQueryLog(t *testing.T) {
	eng := newEngine(t, 8, 8, 4, 2)
	var buf syncBuffer
	_, _, c := newTestServer(t, eng, server.Config{
		Logger:    slogJSON(&buf),
		SlowQuery: 1 * time.Nanosecond,
	})

	const trace = "slow-query-trace"
	ctx := core.WithTraceID(context.Background(), trace)
	if _, err := c.Query(ctx, server.QueryRequest{Pattern: "(a:L0)-(b:L1)", MaxMatches: 5}, nil); err != nil {
		t.Fatal(err)
	}
	line := waitForLogLine(t, &buf, func(m map[string]any) bool {
		return m["msg"] == "slow query" && m["trace_id"] == trace
	})
	spans, _ := line["spans"].(string)
	for _, phase := range []string{"explore", "join", "emit"} {
		if !strings.Contains(spans, phase) {
			t.Fatalf("slow-query spans missing %q:\n%s", phase, spans)
		}
	}
}

// TestRequestLogEmitWithoutSpans: the request log's emit — the machines'
// summed time inside emit — is filled on every query, not only on one that
// records spans: here no trace header was sent and the slow-query log is
// off, so nothing asks for spans.
func TestRequestLogEmitWithoutSpans(t *testing.T) {
	eng := newEngine(t, 8, 8, 4, 2)
	var buf syncBuffer
	_, ts, _ := newTestServer(t, eng, server.Config{Logger: slogJSON(&buf)})
	resp, err := http.Post(ts.URL+"/v1/query", "application/json",
		strings.NewReader(`{"pattern":"(a:L0)-(b:L1)","max_matches":5}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	trace := resp.Header.Get(server.TraceHeader)
	line := waitForLogLine(t, &buf, func(m map[string]any) bool {
		return m["msg"] == "request" && m["route"] == "/query" && m["trace_id"] == trace
	})
	if line["matches"] != float64(5) {
		t.Fatalf("request log matches = %v, want 5", line["matches"])
	}
	if emit, _ := line["emit"].(float64); emit <= 0 {
		t.Fatalf("request log emit = %v, want a positive duration", line["emit"])
	}
}

// TestPprofGate: /debug/pprof is disabled outright (403) without an admin
// token, rejects a wrong token (401), and serves the index with the right
// one.
func TestPprofGate(t *testing.T) {
	get := func(t *testing.T, url, token string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	// No AdminToken configured: 403 regardless of what the caller sends.
	// (Built directly, bypassing newTestServer's default token.)
	engNoToken := newEngine(t, 6, 4, 2, 1)
	svc, err := server.New(engNoToken, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	tsNoToken := httptest.NewServer(svc)
	t.Cleanup(tsNoToken.Close)
	if resp := get(t, tsNoToken.URL+"/debug/pprof/", "whatever"); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("pprof without configured token: status %d, want 403", resp.StatusCode)
	}

	// Token configured: 401 without/with a wrong token, 200 with the right
	// one.
	eng := newEngine(t, 6, 4, 2, 1)
	_, ts, _ := newTestServer(t, eng, server.Config{})
	if resp := get(t, ts.URL+"/debug/pprof/", ""); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("pprof without bearer: status %d, want 401", resp.StatusCode)
	}
	if resp := get(t, ts.URL+"/debug/pprof/", "wrong-token"); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("pprof with wrong bearer: status %d, want 401", resp.StatusCode)
	}
	resp := get(t, ts.URL+"/debug/pprof/", testAdminToken)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof with admin token: status %d, want 200", resp.StatusCode)
	}
	index, _ := io.ReadAll(resp.Body)
	if !bytes.Contains(index, []byte("goroutine")) {
		t.Fatalf("pprof index does not list profiles:\n%.200s", index)
	}
	// The goroutine profile itself must be reachable through the gate.
	if resp := get(t, ts.URL+"/debug/pprof/goroutine?debug=1", testAdminToken); resp.StatusCode != http.StatusOK {
		t.Fatalf("goroutine profile: status %d, want 200", resp.StatusCode)
	}
}

// TestVersionAndHealthzBuild: /version reports the build identity and
// /healthz embeds the same build block next to its status.
func TestVersionAndHealthzBuild(t *testing.T) {
	eng := newEngine(t, 6, 4, 2, 1)
	_, ts, c := newTestServer(t, eng, server.Config{})

	v, err := c.Version(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v.Version == "" {
		t.Fatal("empty version (expected at least the \"dev\" default)")
	}
	if v.GoVersion != runtime.Version() {
		t.Fatalf("go_version = %q, want %q", v.GoVersion, runtime.Version())
	}

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz server.HealthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" {
		t.Fatalf("healthz status = %q, want ok", hz.Status)
	}
	if hz.Build.GoVersion != v.GoVersion || hz.Build.Version != v.Version {
		t.Fatalf("healthz build %+v disagrees with /version %+v", hz.Build, v)
	}
}

// TestExplainAnalyzeHTTP: analyze=true on /explain executes the query and
// returns the rendered span breakdown plus the trace ID that produced it.
func TestExplainAnalyzeHTTP(t *testing.T) {
	eng := newEngine(t, 8, 8, 4, 2)
	_, _, c := newTestServer(t, eng, server.Config{})

	const trace = "analyze-trace-1"
	ctx := core.WithTraceID(context.Background(), trace)
	out, err := c.Explain(ctx, server.QueryRequest{Pattern: "(a:L0)-(b:L1)", Analyze: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Plan == "" {
		t.Fatal("analyze response missing the plan")
	}
	if out.TraceID != trace {
		t.Fatalf("analyze TraceID = %q, want %q", out.TraceID, trace)
	}
	if !strings.Contains(out.Analyze, "EXPLAIN ANALYZE trace="+trace) {
		t.Fatalf("analyze output missing its trace banner:\n%s", out.Analyze)
	}
	for _, phase := range []string{"plan", "explore", "join", "emit"} {
		if !strings.Contains(out.Analyze, phase) {
			t.Fatalf("analyze output missing %q phase:\n%s", phase, out.Analyze)
		}
	}

	// Plain explain still omits the analyze block.
	plain, err := c.Explain(context.Background(), server.QueryRequest{Pattern: "(a:L0)-(b:L1)"})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Analyze != "" {
		t.Fatalf("plain explain unexpectedly ran the query: %q", plain.Analyze)
	}
}
