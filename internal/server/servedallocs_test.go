package server_test

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"stwig/internal/server"
)

// servedLocalAllocs is what one warm query costs through Server.ServeHTTP
// on one daemon: decode, admission and gate, plan, run, encode, trailer and
// the request's log line — everything the process allocates between the
// request arriving and the handler returning, less the test's reused
// request and writer. It changes only with the code on the served query
// path (or, rarely, with the Go release); a change that moves it says why
// and updates it. 67, down from 116: a run records spans only when asked
// (the slow-query log), and a trace ID alone asks for nothing (15); the
// request's context is a deadline context Abort reaches through the
// server's in-flight set, with no AfterFunc watch or closure (3), and the
// request keeps its trace in the request instead of copying it into a new
// context and *http.Request (3); the trace header echoes the client's own
// value and the stream's fixed headers share their values (4); the
// trailer is appended, not marshalled (2); pattern.Parse keeps its
// variables in one sized slice, with no map or per-variable vertex (8), and
// is not followed by a second connectivity check (1); the body, in its
// canonical bare-pattern spelling, is read without a JSON decoder (6);
// core.NewQuery carves the adjacency lists from one array, with no
// duplicate-edge map (5); admission's leave is a method, not a closure
// (1); and the request and its status writer are one allocation (1).
const servedLocalAllocs = 67

// servedCoordinatorAllocs is the same for a query through a coordinator
// over two in-process shards, counted over the whole process: the
// coordinator's handling, both legs' HTTP requests and responses on both
// sides of the loopback, and both shards' handling. 411, down from 508: the
// local savings on each shard, and the coordinator's own request, context,
// body, parse and trailer. A leg's body carries a shard selector, so a
// shard decodes it with encoding/json.
const servedCoordinatorAllocs = 411

// TestServedQueryAllocs pins a served query's allocations: the wrapper
// around a run is a fixed cost per query, and this is where an allocation
// added to it shows. Local: a 4-vertex star on a scale-14 graph with 64
// labels over 8 machines, answered with two matches. Coordinator: a
// 3-vertex path answered with 42 matches by two shards.
func TestServedQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop entries at random, so no pool stays warm")
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))

	t.Run("local", func(t *testing.T) {
		svc, err := server.New(newEngine(t, 14, 8, 64, 8), server.Config{Logger: quiet})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(svc.Close)
		allocs, body := servedAllocs(t, svc, `{"pattern":"(a:L1)-(b:L7), (a)-(c:L14), (a)-(d:L27)"}`)
		if n := strings.Count(body, `"type":"match"`); n != 2 {
			t.Fatalf("the pinned query answered %d matches, want 2:\n%s", n, body)
		}
		if allocs != servedLocalAllocs {
			t.Errorf("a served local query allocates %v times, pinned at %d", allocs, servedLocalAllocs)
		}
	})

	t.Run("coordinator", func(t *testing.T) {
		tc := newTestCluster(t, 2, func(_ int, cfg *server.Config) { cfg.Logger = quiet })
		allocs, body := servedAllocs(t, tc.coord, `{"pattern":"(a:L0)-(b:L1), (b)-(c:L2)"}`)
		if n := strings.Count(body, `"type":"match"`); n != 42 {
			t.Fatalf("the pinned query answered %d matches, want 42:\n%s", n, body)
		}
		if allocs != servedCoordinatorAllocs {
			t.Errorf("a served coordinator query allocates %v times, pinned at %d", allocs, servedCoordinatorAllocs)
		}
	})
}

// servedAllocs serves body as POST /v1/query on h, warm, and returns the
// allocations per query and one answer. The request and the writer are
// reused, so their own costs stay out of the count; the GC is off (it would
// empty the pools) and one P runs everything.
func servedAllocs(t *testing.T, h http.Handler, body string) (float64, string) {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	src := strings.NewReader(body)
	req, err := http.NewRequest(http.MethodPost, "/v1/query", nil)
	if err != nil {
		t.Fatal(err)
	}
	reqBody := io.NopCloser(src)
	req.Header.Set("Content-Type", "application/json")
	// A client sends a trace ID (the Go client always does): the server
	// echoes it rather than minting one.
	req.Header.Set(server.TraceHeader, "served-allocs")
	w := &reusedWriter{h: http.Header{}}
	serve := func() {
		// The handler wraps the request's body in a size cap; each query
		// starts from the bare body again.
		src.Reset(body)
		req.Body = reqBody
		clear(w.h)
		w.status = 0
		w.out.Reset()
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("status %d: %s", w.status, w.out.String())
		}
	}
	for range 3 {
		serve()
	}
	return testing.AllocsPerRun(50, serve), w.out.String()
}

// reusedWriter is a ResponseWriter a test reuses across requests: its body
// buffer keeps its capacity, so only the server's allocations are counted.
type reusedWriter struct {
	h      http.Header
	status int
	out    bytes.Buffer
}

func (w *reusedWriter) Header() http.Header  { return w.h }
func (w *reusedWriter) WriteHeader(code int) { w.status = code }
func (w *reusedWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.out.Write(p)
}
