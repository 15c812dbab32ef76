package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"stwig/internal/core"
	"stwig/internal/graph"
	"stwig/internal/memcloud"
	"stwig/internal/rmat"
	"stwig/internal/server"
	"stwig/internal/server/client"
)

// newEngine loads an R-MAT graph into a fresh cluster and engine.
func newEngine(t testing.TB, scale, degree, labels, machines int) *core.Engine {
	t.Helper()
	g := rmat.MustGenerate(rmat.Params{Scale: scale, AvgDegree: degree, NumLabels: labels, Seed: 42})
	cluster := memcloud.MustNewCluster(memcloud.Config{Machines: machines})
	if err := cluster.LoadGraph(g); err != nil {
		t.Fatal(err)
	}
	return core.NewEngine(cluster, core.Options{})
}

// testAdminToken authorizes namespace mutation in tests; without a token
// the admin API refuses creates and drops outright.
const testAdminToken = "test-admin-token"

func newTestServer(t testing.TB, eng *core.Engine, cfg server.Config) (*server.Server, *httptest.Server, *client.Client) {
	t.Helper()
	if cfg.AdminToken == "" {
		cfg.AdminToken = testAdminToken
	}
	svc, err := server.New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close) // after ts.Close (LIFO): stop update dispatchers
	ts := httptest.NewServer(svc)
	t.Cleanup(ts.Close)
	c := client.New(ts.URL, client.WithToken(cfg.AdminToken))
	return svc, ts, c
}

func TestQueryStreamBasic(t *testing.T) {
	eng := newEngine(t, 9, 8, 4, 4)
	_, ts, c := newTestServer(t, eng, server.Config{})

	req := server.QueryRequest{Pattern: "(a:L0)-(b:L1), (b)-(c:L2)", MaxMatches: 50}
	var got [][]int64
	stats, err := c.Query(context.Background(), req, func(a []int64) bool {
		got = append(got, a)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats == nil {
		t.Fatal("no trailing stats record")
	}
	if stats.Matches != len(got) {
		t.Fatalf("stats.Matches = %d, streamed %d", stats.Matches, len(got))
	}
	if len(got) == 0 {
		t.Fatal("expected matches on an L0-L1-L2 wedge over a 4-label R-MAT graph")
	}
	if len(got) > 50 {
		t.Fatalf("match cap 50 exceeded: %d", len(got))
	}
	for _, a := range got {
		if len(a) != 3 {
			t.Fatalf("assignment arity %d, want 3", len(a))
		}
	}

	// The v/e text form, its edges reordered and reoriented, is the same
	// pattern: /explain renders it the same plan as the DSL form.
	veReq := server.QueryRequest{Query: "v 0 L0\nv 1 L1\nv 2 L2\ne 2 1\ne 1 0\n"}
	var plans []string
	for _, r := range []server.QueryRequest{{Pattern: req.Pattern}, veReq} {
		ex, err := c.Explain(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, buildTime.ReplaceAllString(ex.Plan, "built in -"))
	}
	if plans[0] != plans[1] {
		t.Fatalf("the v/e spelling explains to\n%s\nthe DSL to\n%s", plans[1], plans[0])
	}

	// The trailer reports the planning time and no plan-cache provenance.
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(`{"pattern":"(a:L0)-(b:L1)","max_matches":1}`))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(body, []byte(`"plan_us":`)) || bytes.Contains(body, []byte("plan_cache")) {
		t.Fatalf("stream %s: want a trailer with plan_us and no plan_cache field", body)
	}
}

// buildTime matches the one part of a rendered plan that differs between
// two plannings of one pattern at one epoch.
var buildTime = regexp.MustCompile(`built in \S+`)

func TestQueryBadRequests(t *testing.T) {
	eng := newEngine(t, 8, 8, 4, 2)
	_, ts, c := newTestServer(t, eng, server.Config{})

	cases := []server.QueryRequest{
		{},                                         // neither form
		{Pattern: "(a:L0)", Query: "v 0"},          // both forms
		{Pattern: "(a:L0"},                         // syntax error
		{Pattern: "(a:L0)-(b:L1"},                  // syntax error
		{Query: "v 0 L0\nv 1 L1\n"},                // no edges
		{Query: "v 0 L0\ne 0 5\n"},                 // out-of-range edge
		{Pattern: "(a:L0)-(a)"},                    // self loop
		{Query: "v 0 L0\nv 1 L1\nv 2 L2\ne 0 1\n"}, // disconnected
	}
	for i, req := range cases {
		_, err := c.Query(context.Background(), req, nil)
		se, ok := err.(*client.StatusError)
		if !ok || se.StatusCode != http.StatusBadRequest {
			t.Fatalf("case %d: err = %v, want HTTP 400", i, err)
		}
	}

	// Non-JSON body.
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("non-JSON body: status %d, want 400", resp.StatusCode)
	}

	// A label absent from the data graph is not an error: zero matches.
	stats, err := c.Query(context.Background(), server.QueryRequest{Pattern: "(a:nosuch)-(b:L0)"}, nil)
	if err != nil || stats == nil || stats.Matches != 0 {
		t.Fatalf("absent label: stats=%+v err=%v, want empty success", stats, err)
	}
}

func TestServerMatchCapAndByteCap(t *testing.T) {
	eng := newEngine(t, 9, 8, 2, 4)
	_, _, c := newTestServer(t, eng, server.Config{MaxMatches: 3})
	stats, err := c.Query(context.Background(), server.QueryRequest{Pattern: "(a:L0)-(b:L1)"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Matches != 3 || !stats.LimitHit || !stats.Truncated {
		t.Fatalf("server cap: %+v, want 3 matches, limit_hit, truncated", stats)
	}
	// A request asking beyond the server cap is clamped.
	stats, err = c.Query(context.Background(), server.QueryRequest{Pattern: "(a:L0)-(b:L1)", MaxMatches: 1000}, nil)
	if err != nil || stats.Matches != 3 {
		t.Fatalf("clamp: %+v err=%v, want 3 matches", stats, err)
	}

	eng2 := newEngine(t, 9, 8, 2, 4)
	_, _, c2 := newTestServer(t, eng2, server.Config{MaxBytes: 500})
	streamed := 0
	stats, err = c2.Query(context.Background(), server.QueryRequest{Pattern: "(a:L0)-(b:L1)"}, func([]int64) bool {
		streamed++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.ByteCapHit || !stats.Truncated {
		t.Fatalf("byte cap: %+v, want byte_cap_hit and truncated", stats)
	}
	if stats.Matches == 0 {
		t.Fatal("byte cap stopped the stream before any match")
	}
	// The trailer must count every record that reached the wire,
	// including the one that crossed the cap.
	if stats.Matches != streamed {
		t.Fatalf("byte cap: stats.Matches = %d, client streamed %d", stats.Matches, streamed)
	}
}

func TestExplainEndpoint(t *testing.T) {
	eng := newEngine(t, 8, 8, 4, 2)
	_, _, c := newTestServer(t, eng, server.Config{})
	req := server.QueryRequest{Pattern: "(a:L0)-(b:L1), (b)-(c:L2)"}
	first, err := c.Explain(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(first.Plan, "decomposition") {
		t.Fatalf("plan rendering missing decomposition section:\n%s", first.Plan)
	}
	second, err := c.Explain(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := buildTime.ReplaceAllString(first.Plan, ""), buildTime.ReplaceAllString(second.Plan, ""); a != b {
		t.Fatalf("two explains of one query at one epoch differ:\n%s\n%s", a, b)
	}
	// Explain is query work and must pass through the admission gate.
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Admission.Admitted != 2 {
		t.Fatalf("admitted = %d after two explains, want 2", st.Admission.Admitted)
	}
}

func TestUpdateLifecycle(t *testing.T) {
	eng := newEngine(t, 8, 8, 2, 4)
	_, _, c := newTestServer(t, eng, server.Config{})
	ctx := context.Background()

	// Mutate the live graph: two fresh-labeled vertices and an edge.
	n1, err := c.Update(ctx, server.UpdateRequest{Op: server.OpAddNode, Label: "sensor"})
	if err != nil {
		t.Fatal(err)
	}
	n2, err := c.Update(ctx, server.UpdateRequest{Op: server.OpAddNode, Label: "gateway"})
	if err != nil {
		t.Fatal(err)
	}
	if n2.Epoch <= n1.Epoch {
		t.Fatalf("epoch did not advance: %d then %d", n1.Epoch, n2.Epoch)
	}
	if _, err := c.Update(ctx, server.UpdateRequest{Op: server.OpAddEdge, U: n1.NodeID, V: n2.NodeID}); err != nil {
		t.Fatal(err)
	}

	// The freshly written edge is immediately queryable.
	stats, err := c.Query(ctx, server.QueryRequest{Pattern: "(a:sensor)-(b:gateway)"}, func(a []int64) bool {
		if a[0] != n1.NodeID || a[1] != n2.NodeID {
			t.Errorf("assignment %v, want [%d %d]", a, n1.NodeID, n2.NodeID)
		}
		return true
	})
	if err != nil || stats.Matches != 1 {
		t.Fatalf("query after update: stats=%+v err=%v, want exactly 1 match", stats, err)
	}

	// Remove the edge; the match disappears.
	if _, err := c.Update(ctx, server.UpdateRequest{Op: server.OpRemoveEdge, U: n1.NodeID, V: n2.NodeID}); err != nil {
		t.Fatal(err)
	}
	stats, err = c.Query(ctx, server.QueryRequest{Pattern: "(a:sensor)-(b:gateway)"}, nil)
	if err != nil || stats.Matches != 0 {
		t.Fatalf("query after removal: stats=%+v err=%v, want 0 matches", stats, err)
	}

	// Conflicts surface as 409, bad ops as 400.
	_, err = c.Update(ctx, server.UpdateRequest{Op: server.OpRemoveEdge, U: n1.NodeID, V: n2.NodeID})
	if se, ok := err.(*client.StatusError); !ok || se.StatusCode != http.StatusConflict {
		t.Fatalf("double remove: err = %v, want 409", err)
	}
	_, err = c.Update(ctx, server.UpdateRequest{Op: "truncate_graph"})
	if se, ok := err.(*client.StatusError); !ok || se.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown op: err = %v, want 400", err)
	}
	_, err = c.Update(ctx, server.UpdateRequest{Op: server.OpAddNode})
	if se, ok := err.(*client.StatusError); !ok || se.StatusCode != http.StatusBadRequest {
		t.Fatalf("add_node without label: err = %v, want 400", err)
	}
}

// TestUpdateRejectsPoisonedVertexIDs pins the poisoned-mutation defenses
// on the worst-case partitioner: table-backed BFS partitioning indexes an
// owners array by vertex ID, so before this PR's validation an
// out-of-range ID from the network panicked inside the store — and the
// dispatcher goroutine has no net/http recover above it, so that panic
// would now take the whole process down. Negative IDs are refused at the
// HTTP boundary (400, never sharing a batch with other clients' work);
// in-range-typed but nonexistent IDs are refused by the store (409); and
// the namespace keeps serving afterwards.
func TestUpdateRejectsPoisonedVertexIDs(t *testing.T) {
	g := rmat.MustGenerate(rmat.Params{Scale: 8, AvgDegree: 8, NumLabels: 4, Seed: 42})
	cluster := memcloud.MustNewCluster(memcloud.Config{
		Machines:    2,
		Partitioner: memcloud.NewBFSPartitioner(g, 2),
	})
	if err := cluster.LoadGraph(g); err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(cluster, core.Options{})
	_, _, c := newTestServer(t, eng, server.Config{})
	ctx := context.Background()

	_, err := c.Update(ctx, server.UpdateRequest{Op: server.OpAddEdge, U: -1, V: 0})
	if se, ok := err.(*client.StatusError); !ok || se.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative vertex ID: err = %v, want 400", err)
	}
	_, err = c.Update(ctx, server.UpdateRequest{Op: server.OpRemoveEdge, U: 0, V: -5})
	if se, ok := err.(*client.StatusError); !ok || se.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative vertex ID on remove: err = %v, want 400", err)
	}
	_, err = c.Update(ctx, server.UpdateRequest{Op: server.OpAddEdge, U: 1 << 40, V: 0})
	if se, ok := err.(*client.StatusError); !ok || se.StatusCode != http.StatusConflict {
		t.Fatalf("out-of-range vertex ID: err = %v, want 409 from the store", err)
	}
	// The tenant survived: queries run and further updates apply.
	if stats, err := c.Query(ctx, server.QueryRequest{Pattern: "(a:L0)-(b:L1)", MaxMatches: 1}, nil); err != nil || stats.Matches == 0 {
		t.Fatalf("query after poisoned updates: stats=%+v err=%v", stats, err)
	}
	if _, err := c.Update(ctx, server.UpdateRequest{Op: server.OpAddNode, Label: "alive"}); err != nil {
		t.Fatalf("update after poisoned updates: %v", err)
	}
}

func TestHealthzAndDrain(t *testing.T) {
	eng := newEngine(t, 8, 8, 2, 2)
	svc, _, c := newTestServer(t, eng, server.Config{})
	ctx := context.Background()
	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("healthz before drain: %v", err)
	}
	svc.BeginDrain()
	err := c.Healthz(ctx)
	if se, ok := err.(*client.StatusError); !ok || se.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: err = %v, want 503", err)
	}
	_, err = c.Query(ctx, server.QueryRequest{Pattern: "(a:L0)-(b:L1)"}, nil)
	if se, ok := err.(*client.StatusError); !ok || se.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query while draining: err = %v, want 503", err)
	}
	_, err = c.Update(ctx, server.UpdateRequest{Op: server.OpAddNode, Label: "x"})
	if se, ok := err.(*client.StatusError); !ok || se.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("update while draining: err = %v, want 503", err)
	}
	st, err := c.Stats(ctx)
	if err != nil || !st.Draining {
		t.Fatalf("stats while draining: %+v err=%v, want Draining", st, err)
	}
}

// heavyEngine serves the saturation tests: a single-label power-law graph
// on which the unbounded wedge (a:L0)-(b:L0),(b)-(c:L0) has ≥ n·E[d]² ≈
// millions of matches — far more output than kernel socket buffers hold, so
// a query whose client stops reading is guaranteed to still be in flight.
var heavyEngine = sync.OnceValue(func() *core.Engine {
	g := rmat.MustGenerate(rmat.Params{Scale: 13, AvgDegree: 16, NumLabels: 1, Seed: 7})
	cluster := memcloud.MustNewCluster(memcloud.Config{Machines: 4})
	if err := cluster.LoadGraph(g); err != nil {
		panic(err)
	}
	return core.NewEngine(cluster, core.Options{})
})

const heavyPattern = "(a:L0)-(b:L0), (b)-(c:L0)"

// startStream opens a /query stream with its own cancel, reads the first
// record to prove admission and execution, then leaves the stream hanging.
func startStream(t *testing.T, baseURL string, hc *http.Client) (cancel context.CancelFunc, firstType string) {
	t.Helper()
	ctx, cancelFn := context.WithCancel(context.Background())
	body, _ := json.Marshal(server.QueryRequest{Pattern: heavyPattern, TimeoutMS: 120_000})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := hc.Do(req)
	if err != nil {
		cancelFn()
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancelFn()
		t.Fatalf("stream request: status %d, want 200", resp.StatusCode)
	}
	line, err := bufio.NewReader(resp.Body).ReadBytes('\n')
	if err != nil {
		cancelFn()
		t.Fatalf("reading first stream record: %v", err)
	}
	var rec server.Record
	if err := json.Unmarshal(line, &rec); err != nil {
		cancelFn()
		t.Fatalf("first record not JSON: %v", err)
	}
	cleanup := func() {
		cancelFn()
		resp.Body.Close()
	}
	return cleanup, rec.Type
}

// waitNoInFlight polls /stats until every admitted query has released its
// slot: a disconnected client's handler winds down asynchronously, so the
// slot release must be awaited, not assumed.
func waitNoInFlight(t *testing.T, c *client.Client) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := c.Stats(context.Background())
		if err == nil && st.Admission.InFlight == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("in-flight queries never drained: %+v err=%v", st, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// liveGoroutines counts the goroutines that are not query-phase workers
// parked between phases (memcloud.ParkedWorkers): up to GOMAXPROCS of
// those outlive every query by design, and would eat the leak checks'
// slack on a many-core box.
func liveGoroutines() int {
	return runtime.NumGoroutine() - memcloud.ParkedWorkers()
}

// waitGoroutines polls until the live goroutine count drops to the baseline
// (plus slack for idle HTTP machinery) or the deadline passes.
func waitGoroutines(t *testing.T, baseline int, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		n := liveGoroutines()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d alive beside %d parked workers, baseline %d\n%s", n, memcloud.ParkedWorkers(), baseline, buf[:runtime.Stack(buf, true)])
		}
		runtime.GC()
		time.Sleep(20 * time.Millisecond)
	}
}

// TestConcurrentStreamingAdmissionCancelAndStats is the subsystem's
// acceptance test: ≥8 concurrent streaming queries against one shared
// Engine with admission limit 4 — the excess get 429 with Retry-After, a
// mid-stream client cancel frees its executor without leaking goroutines,
// and GET /stats afterwards reports engine and request counts consistent
// with the run.
func TestConcurrentStreamingAdmissionCancelAndStats(t *testing.T) {
	eng := heavyEngine()
	_, ts, c := newTestServer(t, eng, server.Config{MaxInFlight: 4})
	tr := &http.Transport{}
	hc := &http.Client{Transport: tr}
	defer tr.CloseIdleConnections()

	// Warm up one connection so the baseline includes HTTP machinery.
	if err := c.Healthz(context.Background()); err != nil {
		t.Fatal(err)
	}
	baseline := liveGoroutines() + 8 // slack for idle conns and timers

	// Saturate: 4 streams admitted, each verified in flight by its first
	// match record. Their clients stop reading, so the executors are
	// pinned mid-stream (the remaining output exceeds socket buffering).
	const admitted = 4
	cancels := make([]context.CancelFunc, 0, admitted)
	for i := 0; i < admitted; i++ {
		cancel, typ := startStream(t, ts.URL+"/v1", hc)
		cancels = append(cancels, cancel)
		if typ != server.RecordMatch {
			t.Fatalf("stream %d: first record %q, want a match", i, typ)
		}
	}

	// Overload: 4 more concurrent requests must all be refused with 429.
	const rejected = 4
	var wg sync.WaitGroup
	rejects := make([]error, rejected)
	for i := 0; i < rejected; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := c.Query(context.Background(), server.QueryRequest{Pattern: heavyPattern}, nil)
			rejects[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range rejects {
		if !client.IsOverloaded(err) {
			t.Fatalf("overload request %d: err = %v, want 429", i, err)
		}
	}
	// The 429 carries a Retry-After hint.
	resp, err := http.Post(ts.URL+"/v1/query", "application/json",
		strings.NewReader(fmt.Sprintf(`{"pattern": %q}`, heavyPattern)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("status %d, Retry-After %q; want 429 with a hint", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	resp.Body.Close()

	// Cancel every in-flight stream mid-flight: the executors must wind
	// down and release both their goroutines and their admission slots.
	for _, cancel := range cancels {
		cancel()
	}
	waitNoInFlight(t, c)
	tr.CloseIdleConnections()
	waitGoroutines(t, baseline, 10*time.Second)

	// The freed slots accept new work.
	queriesBefore := eng.Snapshot().Queries
	for i := 0; i < 2; i++ {
		stats, err := c.Query(context.Background(), server.QueryRequest{Pattern: heavyPattern, MaxMatches: 5}, nil)
		if err != nil {
			t.Fatalf("post-cancel query %d: %v", i, err)
		}
		if stats.Matches != 5 {
			t.Fatalf("post-cancel query %d: %+v, want 5 matches", i, stats)
		}
	}

	// Live observability must agree with everything this test did. The
	// handler releases its admission slot after the client has read the
	// last response byte, so drain before asserting on in-flight counts.
	waitNoInFlight(t, c)
	// And the wrapper books a request's counters after its handler has
	// flushed the trailer, so the last query's bump is awaited the same way.
	const queryRequests = admitted + rejected + 1 + 2
	var st *server.StatsResponse
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		var err error
		if st, err = c.Stats(context.Background()); err != nil {
			t.Fatal(err)
		}
		if st.Endpoints["/query"].Requests >= queryRequests || time.Now().After(deadline) {
			break
		}
	}
	if st.Engine.Queries != queriesBefore+2 {
		t.Fatalf("stats: engine queries = %d, want %d: the two post-cancel queries on top of %d", st.Engine.Queries, queriesBefore+2, queriesBefore)
	}
	if st.Admission.MaxInFlight != 4 || st.Admission.InFlight != 0 {
		t.Fatalf("stats: admission = %+v, want max 4, none in flight", st.Admission)
	}
	if st.Admission.Admitted != admitted+2 {
		t.Fatalf("stats: admitted = %d, want %d", st.Admission.Admitted, admitted+2)
	}
	if st.Admission.Rejected != rejected+1 {
		t.Fatalf("stats: rejected = %d, want %d", st.Admission.Rejected, rejected+1)
	}
	q := st.Endpoints["/query"]
	if q.Requests != queryRequests {
		t.Fatalf("stats: /query requests = %d, want %d", q.Requests, queryRequests)
	}
	if q.Errors < rejected+1 {
		t.Fatalf("stats: /query errors = %d, want ≥ %d (rejections)", q.Errors, rejected+1)
	}
	if q.Latency.Count != q.Requests {
		t.Fatalf("stats: latency count %d != requests %d", q.Latency.Count, q.Requests)
	}
	if st.Graph.Nodes == 0 || st.Graph.Machines != 4 {
		t.Fatalf("stats: graph info = %+v", st.Graph)
	}
}

// TestDeadlineExceededErrorRecord drives a stream past its deadline: the
// client stalls until the deadline has certainly fired, then drains the
// response and requires the terminal record to be a well-formed error
// record naming the deadline.
func TestDeadlineExceededErrorRecord(t *testing.T) {
	eng := heavyEngine()
	_, ts, _ := newTestServer(t, eng, server.Config{})

	body, _ := json.Marshal(server.QueryRequest{Pattern: heavyPattern, TimeoutMS: 250})
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 (stream started)", resp.StatusCode)
	}
	// Stall past the deadline without reading; the enormous result set
	// keeps the executor busy (then blocked on our unread socket) until
	// the deadline has fired, whatever the scheduling.
	time.Sleep(750 * time.Millisecond)

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var last server.Record
	records := 0
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		last = server.Record{}
		if err := json.Unmarshal(line, &last); err != nil {
			t.Fatalf("record %d is not valid JSON: %v", records, err)
		}
		records++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if last.Type != server.RecordError {
		t.Fatalf("terminal record type %q (of %d records), want %q", last.Type, records, server.RecordError)
	}
	if !strings.Contains(last.Error, "deadline") {
		t.Fatalf("error record %q does not name the deadline", last.Error)
	}
}

// TestDeadlineBeforeFirstWriteUnitIsAnEnvelope fails a query whose answer
// stays under one write unit: its 8 matches are found at once, and its
// deadline passes inside the join that follows. Nothing has reached the wire
// when it fails, so the client must get the deadline's status and error
// envelope — never a 200 carrying some matches and an error record. The
// fixture is two machines by vertex range: the first holds a 4-cycle, whose
// join emits its 8 matches within a few milliseconds (under the race detector
// too), the second a 4,000-leaf star, whose join runs for seconds and finds
// no cycle.
func TestDeadlineBeforeFirstWriteUnitIsAnEnvelope(t *testing.T) {
	const leaves, deadline = 4000, 200 * time.Millisecond
	b := graph.NewBuilder(graph.Undirected(), graph.Dedupe())
	for i := 0; i < 2*(leaves+1); i++ {
		b.AddNode("a")
	}
	for i := 0; i < 4; i++ {
		b.MustAddEdge(graph.NodeID(i), graph.NodeID((i+1)%4))
	}
	for hub, i := graph.NodeID(leaves+1), 1; i <= leaves; i++ {
		b.MustAddEdge(hub, hub+graph.NodeID(i))
	}
	g := b.Build()
	cluster := memcloud.MustNewCluster(memcloud.Config{Machines: 2, Partitioner: memcloud.RangePartitioner{K: 2, N: g.NumNodes()}})
	if err := cluster.LoadGraph(g); err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(cluster, core.Options{})

	// The fixture's own check: matches arrive before the deadline, which
	// then ends the query.
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	found := 0
	_, err := eng.MatchStreamBlocks(ctx, core.MustNewQuery([]string{"a", "a", "a", "a"}, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}),
		func(ms []core.Match) (int, bool) { found += len(ms); return len(ms), true })
	cancel()
	if found == 0 || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("%d matches before the deadline, err %v; want some, then the deadline's error", found, err)
	}

	_, ts, _ := newTestServer(t, eng, server.Config{})
	body, _ := json.Marshal(server.QueryRequest{Pattern: "(a:a)-(b:a), (b)-(c:a), (c)-(d:a), (d)-(a)", TimeoutMS: int(deadline.Milliseconds())})
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var env server.ErrorResponse
	if resp.StatusCode != http.StatusGatewayTimeout || json.Unmarshal(raw, &env) != nil || env.Code != server.CodeDeadline {
		t.Fatalf("status %d, body %q; want %d and a %s envelope", resp.StatusCode, raw, http.StatusGatewayTimeout, server.CodeDeadline)
	}
}

// TestUpdateBusyBehindStream pins the writer-starvation policy: an update
// arriving while a long stream holds the read lock must give up with 503
// (never park in Lock(), which would stall new queries behind it), and an
// early-stopped client stream surfaces as ErrStopped.
func TestUpdateBusyBehindStream(t *testing.T) {
	eng := heavyEngine()
	_, ts, _ := newTestServer(t, eng, server.Config{UpdateLockWait: 50 * time.Millisecond})
	// This test pins the raw 503 busy contract; retries would mask it.
	c := client.New(ts.URL, client.WithRetry(0, 0))
	tr := &http.Transport{}
	hc := &http.Client{Transport: tr}
	defer tr.CloseIdleConnections()

	cancel, typ := startStream(t, ts.URL+"/v1", hc)
	defer cancel()
	if typ != server.RecordMatch {
		t.Fatalf("first record %q, want a match", typ)
	}
	// Queries are still admitted while the update backs off...
	_, err := c.Update(context.Background(), server.UpdateRequest{Op: server.OpAddNode, Label: "x"})
	se, ok := err.(*client.StatusError)
	if !ok || se.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("update behind stream: err = %v, want 503", err)
	}
	_, err = c.Query(context.Background(), server.QueryRequest{Pattern: heavyPattern, MaxMatches: 1}, func([]int64) bool {
		return false
	})
	if err != client.ErrStopped {
		t.Fatalf("early-stopped stream: err = %v, want ErrStopped", err)
	}
}

// TestClientDisconnectFreesExecutor is the focused no-leak test: one
// mid-stream disconnect, goroutines back to baseline, slot released.
func TestClientDisconnectFreesExecutor(t *testing.T) {
	eng := heavyEngine()
	_, ts, c := newTestServer(t, eng, server.Config{MaxInFlight: 1})
	tr := &http.Transport{}
	hc := &http.Client{Transport: tr}
	defer tr.CloseIdleConnections()

	if err := c.Healthz(context.Background()); err != nil {
		t.Fatal(err)
	}
	baseline := liveGoroutines() + 8

	cancel, typ := startStream(t, ts.URL+"/v1", hc)
	if typ != server.RecordMatch {
		t.Fatalf("first record %q, want a match", typ)
	}
	// With MaxInFlight 1 the slot is provably held — by queries and
	// explains alike, which share the admission gate...
	_, err := c.Query(context.Background(), server.QueryRequest{Pattern: heavyPattern}, nil)
	if !client.IsOverloaded(err) {
		t.Fatalf("second query while streaming: err = %v, want 429", err)
	}
	_, err = c.Explain(context.Background(), server.QueryRequest{Pattern: heavyPattern})
	if !client.IsOverloaded(err) {
		t.Fatalf("explain while streaming: err = %v, want 429", err)
	}
	cancel()
	waitNoInFlight(t, c)
	tr.CloseIdleConnections()
	waitGoroutines(t, baseline, 10*time.Second)
	// ...and provably released after the disconnect.
	stats, err := c.Query(context.Background(), server.QueryRequest{Pattern: heavyPattern, MaxMatches: 1}, nil)
	if err != nil || stats.Matches != 1 {
		t.Fatalf("query after disconnect: stats=%+v err=%v", stats, err)
	}
}
