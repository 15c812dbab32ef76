package server_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
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

// TestTwoTenantIsolation is the multi-tenant acceptance test: tenant A is
// saturated at its own admission limit (429s) while tenant B's queries and
// updates complete untouched, and the two tenants' /ns/{name}/stats
// counters stay fully independent.
func TestTwoTenantIsolation(t *testing.T) {
	svc, err := server.NewMulti(server.Config{UpdateLockWait: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Tenant A gets the heavy single-label graph and a budget of 2; tenant
	// B a small graph with the default budget.
	aCfg := server.Config{MaxInFlight: 2, UpdateLockWait: 50 * time.Millisecond}
	if err := svc.AddNamespace("a", heavyEngine(), &aCfg); err != nil {
		t.Fatal(err)
	}
	if err := svc.AddNamespace("b", newEngine(t, 9, 8, 4, 4), nil); err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, svc)
	// This test pins the raw 503 busy contract; retries would mask it.
	root := client.New(ts.URL, client.WithRetry(0, 0))
	ca, cb := root.Namespace("a"), root.Namespace("b")
	tr := &http.Transport{}
	hc := &http.Client{Transport: tr}
	defer tr.CloseIdleConnections()

	// Saturate A: two admitted streams pinned mid-flight (their clients
	// stop reading; the remaining output exceeds socket buffering).
	for i := 0; i < 2; i++ {
		cancel, typ := startStream(t, ts.URL+"/v1/ns/a", hc)
		defer cancel()
		if typ != server.RecordMatch {
			t.Fatalf("tenant A stream %d: first record %q, want a match", i, typ)
		}
	}
	// A is now over budget…
	_, err = ca.Query(context.Background(), server.QueryRequest{Pattern: heavyPattern}, nil)
	if !client.IsOverloaded(err) {
		t.Fatalf("tenant A beyond budget: err = %v, want 429", err)
	}
	// …and A's writer cannot get in behind its own streams…
	_, err = ca.Update(context.Background(), server.UpdateRequest{Op: server.OpAddNode, Label: "blocked"})
	if se, ok := err.(*client.StatusError); !ok || se.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("tenant A update behind streams: err = %v, want 503", err)
	}
	// …while B's queries and updates complete as if A did not exist.
	stats, err := cb.Query(context.Background(), server.QueryRequest{Pattern: "(a:L0)-(b:L1)", MaxMatches: 5}, nil)
	if err != nil || stats.Matches == 0 {
		t.Fatalf("tenant B query during A's saturation: stats=%+v err=%v", stats, err)
	}
	if _, err := cb.Update(context.Background(), server.UpdateRequest{Op: server.OpAddNode, Label: "fresh"}); err != nil {
		t.Fatalf("tenant B update during A's saturation: %v", err)
	}

	// Counters are per-tenant: A saw 2 admissions and 1 rejection, B saw 1
	// admission and none; B's node add never shows up under A.
	// The wrapper books a request's counters after its handler has written
	// the response, so each tenant's one finished query is awaited before
	// its ledger is read.
	booked := func(c *client.Client) *server.StatsResponse {
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			st, err := c.Stats(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if st.Endpoints["/query"].Requests >= 1 || time.Now().After(deadline) {
				return st
			}
		}
	}
	sa, sb := booked(ca), booked(cb)
	if sa.Namespace != "a" || sb.Namespace != "b" {
		t.Fatalf("stats namespaces = %q, %q", sa.Namespace, sb.Namespace)
	}
	if sa.Admission.MaxInFlight != 2 || sa.Admission.Admitted != 2 || sa.Admission.Rejected != 1 {
		t.Fatalf("tenant A admission = %+v, want max 2, admitted 2, rejected 1", sa.Admission)
	}
	if sb.Admission.Rejected != 0 || sb.Admission.Admitted != 1 {
		t.Fatalf("tenant B admission = %+v, want admitted 1, rejected 0", sb.Admission)
	}
	if sa.Updates.NodesAdded != 0 || sb.Updates.NodesAdded != 1 {
		t.Fatalf("updates leaked across tenants: A=%+v B=%+v", sa.Updates, sb.Updates)
	}
	if sb.Engine.Queries != 1 || sb.Engine.MatchesEmitted == 0 {
		t.Fatalf("tenant B engine counters = %+v, want 1 query with matches", sb.Engine)
	}
	// The two pinned streams have not returned yet, so A's per-endpoint
	// ledger shows only the completed 429; B's shows its one clean query.
	if sa.Endpoints["/query"].Requests != 1 || sa.Endpoints["/query"].Errors != 1 {
		t.Fatalf("tenant A /query = %+v, want the lone 429", sa.Endpoints["/query"])
	}
	if sb.Endpoints["/query"].Requests != 1 || sb.Endpoints["/query"].Errors != 0 {
		t.Fatalf("tenant B /query = %+v, want 1 clean request", sb.Endpoints["/query"])
	}
}

// newHTTPServer wraps an already-built Server in an httptest listener.
func newHTTPServer(t testing.TB, svc *server.Server) *httptest.Server {
	t.Helper()
	t.Cleanup(svc.Close) // after ts.Close (LIFO): stop update dispatchers
	ts := httptest.NewServer(svc)
	t.Cleanup(ts.Close)
	return ts
}

// TestNamespaceAdminLifecycle drives the runtime admin API end to end:
// create from an R-MAT spec, list, query the new tenant, duplicate and
// invalid creations, drop, and 404 after the drop.
func TestNamespaceAdminLifecycle(t *testing.T) {
	eng := newEngine(t, 8, 8, 4, 2)
	svc, _, c := newTestServer(t, eng, server.Config{})
	ctx := context.Background()

	info, err := c.Admin().CreateNamespace(ctx, server.CreateNamespaceRequest{
		Name: "tenant2", Spec: "rmat:scale=8,degree=8,labels=4,seed=7,machines=2,inflight=3",
	})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if info.Name != "tenant2" || info.Graph.Nodes == 0 || info.Limits.MaxInFlight != 3 {
		t.Fatalf("created info = %+v, want a loaded tenant2 with inflight 3", info)
	}

	list, err := c.Admin().ListNamespaces(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].Name != "default" || list[1].Name != "tenant2" {
		t.Fatalf("list = %+v, want [default tenant2]", list)
	}

	stats, err := c.Namespace("tenant2").Query(ctx, server.QueryRequest{Pattern: "(a:L0)-(b:L1)", MaxMatches: 3}, nil)
	if err != nil || stats.Matches == 0 {
		t.Fatalf("query new tenant: stats=%+v err=%v", stats, err)
	}

	// Duplicates conflict; bad names and bad specs are rejected up front.
	_, err = c.Admin().CreateNamespace(ctx, server.CreateNamespaceRequest{Name: "tenant2", Spec: "rmat:scale=6"})
	if se, ok := err.(*client.StatusError); !ok || se.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate create: err = %v, want 409", err)
	}
	for _, req := range []server.CreateNamespaceRequest{
		{Name: "bad/name", Spec: "rmat:scale=6"},
		{Name: "", Spec: "rmat:scale=6"},
		{Name: "ok", Spec: "rmat:degree=8"},                  // missing scale
		{Name: "ok", Spec: "carrier-pigeon:coo"},             // unknown kind
		{Name: "ok", Spec: "rmat:scale=24"},                  // beyond the runtime scale cap
		{Name: "ok", Spec: "rmat:scale=10,degree=64"},        // beyond the runtime degree cap
		{Name: "ok", Spec: "rmat:scale=10,labels=100000"},    // beyond the runtime labels cap
		{Name: "ok", Spec: "rmat:scale=10,machines=128"},     // beyond the runtime machines cap
		{Name: "ok", Spec: "rmat:scale=10,inflight=1000000"}, // beyond the runtime admission cap
		{Name: "ok", Spec: "file:/no/such/file.bin"},         // file sources disabled without a -ns-root
	} {
		_, err := c.Admin().CreateNamespace(ctx, req)
		if se, ok := err.(*client.StatusError); !ok || se.StatusCode != http.StatusBadRequest {
			t.Fatalf("create %+v: err = %v, want 400", req, err)
		}
	}

	if err := c.Admin().DropNamespace(ctx, "tenant2"); err != nil {
		t.Fatalf("drop: %v", err)
	}
	_, err = c.Namespace("tenant2").Query(ctx, server.QueryRequest{Pattern: "(a:L0)-(b:L1)"}, nil)
	if se, ok := err.(*client.StatusError); !ok || se.StatusCode != http.StatusNotFound {
		t.Fatalf("query dropped tenant: err = %v, want 404", err)
	}
	err = c.Admin().DropNamespace(ctx, "tenant2")
	if se, ok := err.(*client.StatusError); !ok || se.StatusCode != http.StatusNotFound {
		t.Fatalf("double drop: err = %v, want 404", err)
	}

	// Namespace mutations are refused during drain, like all other writes.
	svc.BeginDrain()
	_, err = c.Admin().CreateNamespace(ctx, server.CreateNamespaceRequest{Name: "late", Spec: "rmat:scale=6"})
	if se, ok := err.(*client.StatusError); !ok || se.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create while draining: err = %v, want 503", err)
	}
	err = c.Admin().DropNamespace(ctx, "default")
	if se, ok := err.(*client.StatusError); !ok || se.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("drop while draining: err = %v, want 503", err)
	}
}

// TestRuntimeFileSourceConfinement pins the admin API's filesystem
// guardrail: with a namespace root configured, file: specs resolve only
// inside it — paths outside are refused before any open(2), so a network
// client cannot probe the daemon's filesystem — and a real graph file
// inside the root materializes into a live tenant.
func TestRuntimeFileSourceConfinement(t *testing.T) {
	root := t.TempDir()
	g := rmat.MustGenerate(rmat.Params{Scale: 7, AvgDegree: 4, NumLabels: 2, Seed: 3})
	f, err := os.Create(filepath.Join(root, "g.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteBinary(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	eng := newEngine(t, 8, 8, 4, 2)
	svc, err := server.NewMulti(server.Config{NamespaceRoot: root, MaxMatches: 100, AdminToken: testAdminToken})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.AddNamespace(server.DefaultNamespace, eng, nil); err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, svc)
	c := client.New(ts.URL, client.WithToken(testAdminToken))
	ctx := context.Background()

	for _, spec := range []string{
		"file:/etc/hosts",                     // absolute path outside the root
		"file:" + root + "/../escape.bin",     // dot-dot escape
		"text:" + filepath.Dir(root) + "/x.t", // sibling of the root
	} {
		_, err := c.Admin().CreateNamespace(ctx, server.CreateNamespaceRequest{Name: "probe", Spec: spec})
		se, ok := err.(*client.StatusError)
		if !ok || se.StatusCode != http.StatusBadRequest || !strings.Contains(se.Message, "outside the namespace root") {
			t.Fatalf("create %q: err = %v, want 400 naming the root confinement", spec, err)
		}
	}

	// A symlink planted inside the root must not alias a file outside it:
	// the lexical check passes, physical resolution must still refuse.
	outside := filepath.Join(t.TempDir(), "outside.bin")
	if err := os.WriteFile(outside, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(outside, filepath.Join(root, "sneaky.bin")); err != nil {
		t.Skipf("symlinks unavailable: %v", err)
	}
	_, err = c.Admin().CreateNamespace(ctx, server.CreateNamespaceRequest{Name: "sneaky", Spec: "file:" + filepath.Join(root, "sneaky.bin")})
	if se, ok := err.(*client.StatusError); !ok || se.StatusCode != http.StatusBadRequest || !strings.Contains(se.Message, "outside the namespace root") {
		t.Fatalf("symlink escape: err = %v, want 400 naming the root confinement", err)
	}

	// A typo'd filename inside the root is the client's mistake (400), not
	// a server fault.
	_, err = c.Admin().CreateNamespace(ctx, server.CreateNamespaceRequest{Name: "typo", Spec: "file:" + filepath.Join(root, "nope.bin")})
	if se, ok := err.(*client.StatusError); !ok || se.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing file inside root: err = %v, want 400", err)
	}

	// Runtime overrides may only tighten the operator's server-wide caps.
	_, err = c.Admin().CreateNamespace(ctx, server.CreateNamespaceRequest{Name: "loose", Spec: "rmat:scale=8,maxmatches=200"})
	if se, ok := err.(*client.StatusError); !ok || se.StatusCode != http.StatusBadRequest || !strings.Contains(se.Message, "exceeds the server cap") {
		t.Fatalf("loosening maxmatches: err = %v, want 400 naming the server cap", err)
	}

	info, err := c.Admin().CreateNamespace(ctx, server.CreateNamespaceRequest{
		Name: "filetenant", Spec: "file:" + filepath.Join(root, "g.bin") + ",machines=2",
	})
	if err != nil {
		t.Fatalf("create from file inside root: %v", err)
	}
	if info.Graph.Nodes != g.NumNodes() {
		t.Fatalf("file tenant nodes = %d, want %d", info.Graph.Nodes, g.NumNodes())
	}
	if stats, err := c.Namespace("filetenant").Query(ctx, server.QueryRequest{Pattern: "(a:L0)-(b:L1)", MaxMatches: 1}, nil); err != nil || stats.Matches == 0 {
		t.Fatalf("query file tenant: stats=%+v err=%v", stats, err)
	}

	// A symlink that resolves inside the root stays usable.
	if err := os.Symlink(filepath.Join(root, "g.bin"), filepath.Join(root, "alias.bin")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Admin().CreateNamespace(ctx, server.CreateNamespaceRequest{Name: "alias", Spec: "file:" + filepath.Join(root, "alias.bin")}); err != nil {
		t.Fatalf("create via in-root symlink: %v", err)
	}
}

// TestNamespaceAdminAuth pins the admin API's authentication contract:
// with no token configured the mutation endpoints are disabled outright
// (403); with one configured, missing or wrong tokens are 401 and only
// the exact token mutates. Listing and tenant traffic never need a token.
func TestNamespaceAdminAuth(t *testing.T) {
	ctx := context.Background()

	// No AdminToken: POST /ns and DELETE /ns/{name} are hard-disabled, so
	// an anonymous network client cannot destroy a tenant's graph.
	svc, err := server.New(newEngine(t, 8, 8, 4, 2), server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	open := client.New(newHTTPServer(t, svc).URL)
	if _, err := open.Admin().CreateNamespace(ctx, server.CreateNamespaceRequest{Name: "t", Spec: "rmat:scale=6"}); !isStatusErr(err, http.StatusForbidden) {
		t.Fatalf("create with admin disabled: err = %v, want 403", err)
	}
	if err := open.Admin().DropNamespace(ctx, "default"); !isStatusErr(err, http.StatusForbidden) {
		t.Fatalf("drop with admin disabled: err = %v, want 403", err)
	}
	if _, ok := svc.NamespaceInfo("default"); !ok {
		t.Fatal("default namespace destroyed through the disabled admin API")
	}

	// With a token: reads and tenant traffic stay open, mutation demands
	// exactly the configured bearer token.
	_, ts, c := newTestServer(t, newEngine(t, 8, 8, 4, 2), server.Config{AdminToken: "s3cret"})
	anon := client.New(ts.URL) // same server, no token
	if _, err := anon.Admin().ListNamespaces(ctx); err != nil {
		t.Fatalf("tokenless list: %v", err)
	}
	if _, err := anon.Query(ctx, server.QueryRequest{Pattern: "(a:L0)-(b:L1)", MaxMatches: 1}, nil); err != nil {
		t.Fatalf("tokenless query: %v", err)
	}
	if _, err := anon.Admin().CreateNamespace(ctx, server.CreateNamespaceRequest{Name: "t", Spec: "rmat:scale=6"}); !isStatusErr(err, http.StatusUnauthorized) {
		t.Fatalf("tokenless create: err = %v, want 401", err)
	}
	if err := client.New(ts.URL, client.WithToken("wrong")).Admin().DropNamespace(ctx, "default"); !isStatusErr(err, http.StatusUnauthorized) {
		t.Fatalf("wrong-token drop: err = %v, want 401", err)
	}
	if _, err := c.Admin().CreateNamespace(ctx, server.CreateNamespaceRequest{Name: "t", Spec: "rmat:scale=6"}); err != nil {
		t.Fatalf("authorized create: %v", err)
	}
	if err := c.Admin().DropNamespace(ctx, "t"); err != nil {
		t.Fatalf("authorized drop: %v", err)
	}
}

func isStatusErr(err error, code int) bool {
	se, ok := err.(*client.StatusError)
	return ok && se.StatusCode == code
}

// TestRuntimeNamespaceCeiling fills the registry to the runtime cap and
// requires the next create to be refused with 429 — per-create size caps
// alone would still let a create loop exhaust memory.
func TestRuntimeNamespaceCeiling(t *testing.T) {
	eng := newEngine(t, 8, 8, 4, 2)
	_, _, c := newTestServer(t, eng, server.Config{})
	ctx := context.Background()

	created := 0
	var capErr error
	for i := 0; i < 100; i++ { // cap is 64; 100 bounds a regression runaway
		_, err := c.Admin().CreateNamespace(ctx, server.CreateNamespaceRequest{
			Name: fmt.Sprintf("fill%d", i), Spec: "rmat:scale=4,degree=2,labels=2,machines=1",
		})
		if err != nil {
			capErr = err
			break
		}
		created++
	}
	se, ok := capErr.(*client.StatusError)
	if !ok || se.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("after %d creates: err = %v, want 429 at the ceiling", created, capErr)
	}
	// default + created == the ceiling.
	list, err := c.Admin().ListNamespaces(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != created+1 || len(list) != 64 {
		t.Fatalf("registry holds %d namespaces after hitting the cap (created %d), want 64", len(list), created)
	}
	// Dropping one frees a slot.
	if err := c.Admin().DropNamespace(ctx, "fill0"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Admin().CreateNamespace(ctx, server.CreateNamespaceRequest{
		Name: "afterdrop", Spec: "rmat:scale=4,degree=2,labels=2,machines=1",
	}); err != nil {
		t.Fatalf("create after drop: %v", err)
	}
}

// waitQueue polls the tenant's /stats until its update-queue snapshot
// satisfies pred, failing the test at the wait if it never does.
func waitQueue(t *testing.T, c *client.Client, desc string, pred func(server.UpdateQueueInfo) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := c.Stats(context.Background())
		if err == nil && pred(st.UpdateQueue) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("update queue never reached %s: %+v err=%v", desc, st, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// saturationEngine builds a private single-label engine whose wedge queries
// do real work, so looping readers keep the tenant's reader gate
// continuously occupied. Private per test: these tests mutate the graph.
func saturationEngine(t testing.TB) *core.Engine {
	t.Helper()
	g := rmat.MustGenerate(rmat.Params{Scale: 11, AvgDegree: 8, NumLabels: 1, Seed: 7})
	cluster := memcloud.MustNewCluster(memcloud.Config{Machines: 4})
	if err := cluster.LoadGraph(g); err != nil {
		t.Fatal(err)
	}
	return core.NewEngine(cluster, core.Options{})
}

// TestWriterFairnessUnderReaderSaturation is the starvation regression
// test: 8 looping readers keep a namespace's reader gate continuously
// held — the old bounded-poll writer (TryLock, which only succeeds in the
// instant no reader is inside) lost every race here — while an update is
// enqueued. The fairness cutoff must get the writer in within a bounded
// number of reader windows, and the readers must all keep succeeding.
func TestWriterFairnessUnderReaderSaturation(t *testing.T) {
	svc, _, c := newTestServer(t, saturationEngine(t), server.Config{
		MaxInFlight:    16,
		UpdateLockWait: 10 * time.Second,
	})
	ctx := context.Background()

	const readers = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	readErrs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				stats, err := c.Query(ctx, server.QueryRequest{Pattern: heavyPattern, MaxMatches: 400}, nil)
				if err != nil {
					readErrs <- fmt.Errorf("reader query: %w", err)
					return
				}
				if stats.Matches == 0 {
					readErrs <- fmt.Errorf("reader query returned no matches")
					return
				}
			}
		}()
	}
	// Let the readers reach steady-state saturation before the write.
	time.Sleep(200 * time.Millisecond)

	start := time.Now()
	resp, err := c.Update(ctx, server.UpdateRequest{Op: server.OpAddNode, Label: "parked"})
	elapsed := time.Since(start)
	close(stop)
	wg.Wait()
	close(readErrs)
	for e := range readErrs {
		t.Error(e)
	}
	if err != nil {
		t.Fatalf("update under reader saturation: %v", err)
	}
	if resp.Epoch == 0 {
		t.Fatalf("update applied but epoch did not advance: %+v", resp)
	}
	// The bound: one fairness window for the cutoff plus the in-flight
	// readers' own drain time, nowhere near the 10s writer patience (and
	// categorically not a timeout-shaped number). Generous for CI noise.
	if elapsed > 5*time.Second {
		t.Fatalf("update took %v under reader saturation, want bounded by the fairness window", elapsed)
	}

	// The write is durable and observable: stats report the applied batch.
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Updates.NodesAdded != 1 || st.UpdateQueue.Applied != 1 || st.UpdateQueue.Batches == 0 {
		t.Fatalf("update pipeline stats after fairness run: updates=%+v queue=%+v", st.Updates, st.UpdateQueue)
	}
	if st.UpdateQueue.Wait.Count != 1 {
		t.Fatalf("queue wait histogram count = %d, want 1", st.UpdateQueue.Wait.Count)
	}
	svc.Close()
}

// TestUpdateQueueBackpressureAndDrain pins the queue contract end to end:
// with depth 1 and the writer parked behind a pinned stream, the first
// update is held by the dispatcher, the second fills the queue, the third
// is refused with 503 + Retry-After; once the stream dies the queue drains,
// both held updates land, and stopping the pipeline leaks no goroutines.
func TestUpdateQueueBackpressureAndDrain(t *testing.T) {
	svc, ts, _ := newTestServer(t, saturationEngine(t), server.Config{
		MaxInFlight:      4,
		UpdateQueueDepth: 1,
		UpdateBatchMax:   1,
		UpdateLockWait:   30 * time.Second,
	})
	c := client.New(ts.URL, client.WithRetry(0, 0)) // the 503 is the assertion, not a transient
	ctx := context.Background()
	tr := &http.Transport{}
	hc := &http.Client{Transport: tr}
	defer tr.CloseIdleConnections()

	if err := c.Healthz(ctx); err != nil {
		t.Fatal(err)
	}
	baseline := liveGoroutines() + 8

	// Pin a stream: its executor holds the reader gate until canceled.
	cancel, typ := startStream(t, ts.URL+"/v1", hc)
	defer cancel()
	if typ != server.RecordMatch {
		t.Fatalf("first record %q, want a match", typ)
	}

	// u1 is picked up by the dispatcher, which parks for the writer window.
	type updOut struct {
		resp *server.UpdateResponse
		err  error
	}
	u1, u2 := make(chan updOut, 1), make(chan updOut, 1)
	go func() {
		r, err := c.Update(ctx, server.UpdateRequest{Op: server.OpAddNode, Label: "qa"})
		u1 <- updOut{r, err}
	}()
	waitQueue(t, c, "dispatcher holding u1", func(q server.UpdateQueueInfo) bool {
		return q.Enqueued == 1 && q.Queued == 0
	})
	// u2 fills the depth-1 queue.
	go func() {
		r, err := c.Update(ctx, server.UpdateRequest{Op: server.OpAddNode, Label: "qb"})
		u2 <- updOut{r, err}
	}()
	waitQueue(t, c, "u2 queued", func(q server.UpdateQueueInfo) bool { return q.Queued == 1 })

	// u3 bounces off the full queue: 503, Retry-After, and it is counted.
	_, err := c.Update(ctx, server.UpdateRequest{Op: server.OpAddNode, Label: "overflow"})
	se, ok := err.(*client.StatusError)
	if !ok || se.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("update against a full queue: err = %v, want 503", err)
	}
	if se.RetryAfter <= 0 {
		t.Fatalf("queue-full 503 carried no Retry-After hint: %+v", se)
	}
	if !strings.Contains(se.Message, "queue full") {
		t.Fatalf("queue-full 503 message %q does not name the queue", se.Message)
	}

	// Drain: kill the pinned stream; the writer window opens and both held
	// updates land, in FIFO order (qa got the lower vertex ID).
	cancel()
	o1, o2 := <-u1, <-u2
	if o1.err != nil || o2.err != nil {
		t.Fatalf("held updates after drain: u1 err=%v u2 err=%v", o1.err, o2.err)
	}
	if o1.resp.NodeID+1 != o2.resp.NodeID {
		t.Fatalf("FIFO violated: u1 node %d, u2 node %d", o1.resp.NodeID, o2.resp.NodeID)
	}
	if o1.resp.WaitMicros <= 0 {
		t.Fatalf("u1 reported no queue wait: %+v", o1.resp)
	}

	// The mutations are queryable: stitch the two fresh nodes and match.
	if _, err := c.Update(ctx, server.UpdateRequest{Op: server.OpAddEdge, U: o1.resp.NodeID, V: o2.resp.NodeID}); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Query(ctx, server.QueryRequest{Pattern: "(a:qa)-(b:qb)"}, func(a []int64) bool {
		if a[0] != o1.resp.NodeID || a[1] != o2.resp.NodeID {
			t.Errorf("assignment %v, want [%d %d]", a, o1.resp.NodeID, o2.resp.NodeID)
		}
		return true
	})
	if err != nil || stats.Matches != 1 {
		t.Fatalf("query after drain: stats=%+v err=%v", stats, err)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	q := st.UpdateQueue
	if q.RejectedFull != 1 || q.Applied != 3 || q.Queued != 0 || q.Depth != 1 {
		t.Fatalf("queue stats after drain = %+v, want 1 rejection, 3 applied, empty", q)
	}

	// No goroutine leaks once the pipeline stops.
	waitNoInFlight(t, c)
	svc.Close()
	tr.CloseIdleConnections()
	waitGoroutines(t, baseline, 10*time.Second)
}

// TestDropWhileUpdateParkedReportsClosed pins the shutdown contract: an
// update whose batch is parked on the writer window when its namespace is
// dropped must be answered as "dropped", not as a retryable "busy" — and
// must not pollute the busy-timeout counter of a clean teardown.
func TestDropWhileUpdateParkedReportsClosed(t *testing.T) {
	svc, err := server.NewMulti(server.Config{UpdateLockWait: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.AddNamespace("x", saturationEngine(t), nil); err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, svc)
	c := client.New(ts.URL, client.WithRetry(0, 0)).Namespace("x")
	tr := &http.Transport{}
	hc := &http.Client{Transport: tr}
	defer tr.CloseIdleConnections()

	cancel, typ := startStream(t, ts.URL+"/v1/ns/x", hc)
	defer cancel()
	if typ != server.RecordMatch {
		t.Fatalf("first record %q, want a match", typ)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Update(context.Background(), server.UpdateRequest{Op: server.OpAddNode, Label: "late"})
		done <- err
	}()
	waitQueue(t, c, "dispatcher holding the update", func(q server.UpdateQueueInfo) bool {
		return q.Enqueued == 1 && q.Queued == 0
	})
	if ok, err := svc.DropNamespace("x"); !ok || err != nil {
		t.Fatalf("drop failed: ok=%v err=%v", ok, err)
	}
	err = <-done
	se, ok := err.(*client.StatusError)
	if !ok || se.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("parked update after drop: err = %v, want 503", err)
	}
	if !strings.Contains(se.Message, "dropped") {
		t.Fatalf("parked update after drop reported %q, want the dropped-namespace message (busy would invite retries against a dead tenant)", se.Message)
	}
}

// TestLegacyRoutesAliasDefault pins the compatibility contract: the
// unprefixed routes and /ns/default/... are one namespace — same counters,
// same engine.
func TestLegacyRoutesAliasDefault(t *testing.T) {
	eng := newEngine(t, 8, 8, 4, 2)
	_, _, c := newTestServer(t, eng, server.Config{})
	ctx := context.Background()
	req := server.QueryRequest{Pattern: "(a:L0)-(b:L1)", MaxMatches: 1}

	if _, err := c.Query(ctx, req, nil); err != nil { // legacy route
		t.Fatal(err)
	}
	if _, err := c.Namespace("default").Query(ctx, req, nil); err != nil { // routed form
		t.Fatal(err)
	}
	if n := eng.Snapshot().Queries; n != 2 {
		t.Fatalf("the engine behind both routes ran %d queries, want 2", n)
	}
	legacy, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	routed, err := c.Namespace("default").Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if legacy.Namespace != "default" || routed.Namespace != "default" {
		t.Fatalf("namespaces = %q, %q, want default twice", legacy.Namespace, routed.Namespace)
	}
	if legacy.Admission.Admitted != 2 || routed.Admission.Admitted != 2 {
		t.Fatalf("admitted = %d (legacy), %d (routed), want 2 on both", legacy.Admission.Admitted, routed.Admission.Admitted)
	}
	if legacy.Engine.Queries != 2 || routed.Engine.Queries != 2 {
		t.Fatalf("engine queries = %d (legacy), %d (routed), want 2 on both", legacy.Engine.Queries, routed.Engine.Queries)
	}
}

// TestConcurrentCreateDropUnderLiveQueries churns a tenant through
// create → query → drop cycles while other goroutines hammer the default
// namespace; every default query must succeed (no 404s, no stalls) and the
// run must be race-clean.
func TestConcurrentCreateDropUnderLiveQueries(t *testing.T) {
	eng := newEngine(t, 8, 8, 4, 2)
	_, _, c := newTestServer(t, eng, server.Config{MaxInFlight: 64})
	ctx := context.Background()

	const churners = 2 // both churn the SAME name, forcing create/create and create/drop collisions
	const churns = 6
	const readers = 4
	var wg sync.WaitGroup
	errs := make(chan error, churners*churns+readers*16)

	isStatus := func(err error, code int) bool {
		se, ok := err.(*client.StatusError)
		return ok && se.StatusCode == code
	}
	for g := 0; g < churners; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < churns; i++ {
				// The twin churner may have won the create (409), dropped
				// the namespace mid-query (404), or beaten us to the drop
				// (404) — all legal outcomes; anything else is a bug.
				_, err := c.Admin().CreateNamespace(ctx, server.CreateNamespaceRequest{
					Name: "churn", Spec: "rmat:scale=6,degree=4,labels=2,machines=2",
				})
				if err != nil && !isStatus(err, http.StatusConflict) {
					errs <- fmt.Errorf("create churn: %w", err)
					return
				}
				_, err = c.Namespace("churn").Query(ctx, server.QueryRequest{Pattern: "(a:L0)-(b:L1)", MaxMatches: 1}, nil)
				if err != nil && !isStatus(err, http.StatusNotFound) {
					errs <- fmt.Errorf("query churn: %w", err)
					return
				}
				if err := c.Admin().DropNamespace(ctx, "churn"); err != nil && !isStatus(err, http.StatusNotFound) {
					errs <- fmt.Errorf("drop churn: %w", err)
					return
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				if _, err := c.Query(ctx, server.QueryRequest{Pattern: "(a:L0)-(b:L1)", MaxMatches: 2}, nil); err != nil {
					errs <- fmt.Errorf("default query: %w", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// After the churn at most the twins' last create survives; clean it up
	// and the registry holds exactly the default namespace.
	if err := c.Admin().DropNamespace(ctx, "churn"); err != nil && !isStatus(err, http.StatusNotFound) {
		t.Fatal(err)
	}
	list, err := c.Admin().ListNamespaces(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].Name != "default" {
		t.Fatalf("final namespaces = %+v, want [default]", list)
	}
}
