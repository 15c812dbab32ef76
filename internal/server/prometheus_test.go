package server_test

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"

	"stwig/internal/server"
	"stwig/internal/server/client"
)

// TestMetricsEndpoint drives one namespace through a query and an update,
// then checks GET /metrics exposes the Prometheus families the scrape
// contract promises: per-namespace engine/admission/update counters (with
// the parallel-execution counters of this release), latency histogram
// bucket series, and per-route HTTP series.
func TestMetricsEndpoint(t *testing.T) {
	svc, err := server.NewMulti(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.AddNamespace("m", newEngine(t, 9, 8, 4, 2), nil); err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, svc)
	c := client.New(ts.URL).Namespace("m")

	stats, err := c.Query(context.Background(), server.QueryRequest{Pattern: "(a:L0)-(b:L1)"}, nil)
	if err != nil || stats.Matches == 0 {
		t.Fatalf("query: stats=%+v err=%v", stats, err)
	}
	if _, err := c.Update(context.Background(), server.UpdateRequest{Op: server.OpAddNode, Label: "x"}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	// Families and per-namespace samples that must be present after one
	// query and one update.
	for _, want := range []string{
		"# TYPE stwig_uptime_seconds gauge",
		"# TYPE stwig_go_goroutines gauge",
		"# TYPE stwig_go_heap_inuse_bytes gauge",
		"# TYPE stwig_go_gc_cycles_total counter",
		"# TYPE stwig_go_gc_pause_seconds_total counter",
		"# TYPE stwig_engine_queries_total counter",
		`stwig_engine_queries_total{ns="m"} 1`,
		`stwig_engine_emit_flushes_total{ns="m"}`,
		`stwig_admission_admitted_total{ns="m"} 1`,
		`stwig_update_applied_total{ns="m"} 1`,
		"# TYPE stwig_update_wait_seconds histogram",
		`stwig_update_wait_seconds_bucket{ns="m",le="+Inf"} 1`,
		`stwig_update_wait_seconds_count{ns="m"} 1`,
		"# TYPE stwig_http_request_duration_seconds histogram",
		`stwig_http_requests_total{ns="m",route="/query"} 1`,
		`stwig_http_request_duration_seconds_bucket{ns="m",route="/query",le="+Inf"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// Matches were emitted and counted.
	if !strings.Contains(text, `stwig_engine_matches_emitted_total{ns="m"} `+itoa(stats.Matches)) {
		t.Errorf("matches_emitted series does not reflect the %d delivered matches", stats.Matches)
	}

	// Every HELP line must have a TYPE line, and bucket series must be
	// cumulative (the +Inf bucket equals the _count).
	if strings.Count(text, "# HELP ") != strings.Count(text, "# TYPE ") {
		t.Errorf("HELP/TYPE header counts differ")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
