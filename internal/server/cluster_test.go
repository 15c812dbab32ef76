// Cluster-mode tests: an in-process 2-shard cluster (coordinator + shard
// servers over real HTTP via httptest) cross-checked against the VF2 and
// Ullmann oracles, plus trace propagation, global caps at the coordinator,
// update broadcast convergence, degraded-mode errors, and the coordinator's
// /metrics exposition lint.
package server_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"stwig/internal/baseline"
	"stwig/internal/core"
	"stwig/internal/memcloud"
	"stwig/internal/rmat"
	"stwig/internal/server"
	"stwig/internal/server/client"
)

// clusterParams is the deterministic graph every cluster test shards: small
// enough that VF2 and Ullmann enumerate it quickly, rich enough that every
// query's matches straddle both shards' vertex ranges.
var clusterParams = rmat.Params{Scale: 6, AvgDegree: 4, NumLabels: 3, Seed: 42}

// clusterPatterns pair each wire pattern with its compiled oracle query.
func clusterPatterns(t *testing.T) map[string]*core.Query {
	t.Helper()
	return map[string]*core.Query{
		"(a:L0)-(b:L1)":             core.MustNewQuery([]string{"L0", "L1"}, [][2]int{{0, 1}}),
		"(a:L0)-(b:L1), (b)-(c:L2)": core.MustNewQuery([]string{"L0", "L1", "L2"}, [][2]int{{0, 1}, {1, 2}}),
		"(a:L2)-(b:L2)":             core.MustNewQuery([]string{"L2", "L2"}, [][2]int{{0, 1}}),
	}
}

// testCluster is an in-process cluster: one coordinator and nShards shard
// servers, each replica holding the same graph, wired over loopback HTTP.
type testCluster struct {
	coordURL  string
	shardURLs []string

	mu          sync.Mutex
	handlers    []http.Handler    // nil = shard down (connection refused at the handler level)
	shardTraces []map[string]bool // trace IDs each shard's /query legs carried
	shards      []*server.Server
	coord       *server.Server
}

// coordinatorRole is the role newTestCluster's config hook sees for the
// coordinator; shards see their shard id.
const coordinatorRole = -1

// down takes one shard off the air: its listener stays up but every request
// is met with a hijack-and-drop, which the coordinator sees as a transport
// error — the closest in-process stand-in for a killed process.
func (tc *testCluster) down(i int) {
	tc.mu.Lock()
	tc.handlers[i] = nil
	tc.mu.Unlock()
}

func (tc *testCluster) tracesSeen(i int) map[string]bool {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	out := map[string]bool{}
	for k := range tc.shardTraces[i] {
		out[k] = true
	}
	return out
}

// newTestCluster boots nShards replicas of the clusterParams graph behind a
// coordinator. Listeners start before the servers exist so the shard map —
// which every member's config needs — is known up front. Each tune hook may
// adjust a member's config (role is the shard id, or coordinatorRole) after
// the cluster wiring is filled in.
func newTestCluster(t *testing.T, nShards int, tune ...func(role int, cfg *server.Config)) *testCluster {
	t.Helper()
	return newTestClusterOn(t, nShards, func() *core.Engine {
		cluster := memcloud.MustNewCluster(memcloud.Config{Machines: 2})
		if err := cluster.LoadGraph(rmat.MustGenerate(clusterParams)); err != nil {
			t.Fatal(err)
		}
		return core.NewEngine(cluster, core.Options{})
	}, tune...)
}

// newTestClusterOn is newTestCluster with each shard's replica built by
// engine.
func newTestClusterOn(t *testing.T, nShards int, engine func() *core.Engine, tune ...func(role int, cfg *server.Config)) *testCluster {
	t.Helper()
	tc := &testCluster{
		handlers:    make([]http.Handler, nShards),
		shardTraces: make([]map[string]bool, nShards),
		shards:      make([]*server.Server, nShards),
	}
	tc.shardURLs = make([]string, nShards)
	for i := 0; i < nShards; i++ {
		i := i
		tc.shardTraces[i] = map[string]bool{}
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			tc.mu.Lock()
			h := tc.handlers[i]
			if strings.HasSuffix(r.URL.Path, "/query") {
				if trace := r.Header.Get(server.TraceHeader); trace != "" {
					tc.shardTraces[i][trace] = true
				}
			}
			tc.mu.Unlock()
			if h == nil {
				if hj, ok := w.(http.Hijacker); ok {
					if conn, _, err := hj.Hijack(); err == nil {
						conn.Close() // simulate a dead process: RST, no HTTP reply
						return
					}
				}
				panic("shard down and not hijackable")
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		tc.shardURLs[i] = ts.URL
	}
	shardMap := strings.Join(tc.shardURLs, ",")

	for i := 0; i < nShards; i++ {
		cfg := server.Config{ShardMap: shardMap, ShardID: i, AdminToken: testAdminToken}
		for _, fn := range tune {
			fn(i, &cfg)
		}
		svc, err := server.New(engine(), cfg)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		t.Cleanup(svc.Close)
		tc.mu.Lock()
		tc.handlers[i] = svc
		tc.shards[i] = svc
		tc.mu.Unlock()
	}

	cfg := server.Config{ShardMap: shardMap, ShardID: coordinatorRole, AdminToken: testAdminToken}
	for _, fn := range tune {
		fn(coordinatorRole, &cfg)
	}
	coord, err := server.NewMulti(cfg)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	t.Cleanup(coord.Close)
	cts := httptest.NewServer(coord)
	t.Cleanup(cts.Close)
	tc.coordURL, tc.coord = cts.URL, coord
	return tc
}

// TestClusterQueryCrossCheck is the correctness pin for scatter-gather: the
// match set streamed through the coordinator must equal what VF2 and
// Ullmann enumerate on the whole (unsharded) graph, for every test pattern.
// It also pins the sharding invariant the merge relies on — each shard's
// directly-queried slice is disjoint from its sibling's and the slices
// union to the full set.
func TestClusterQueryCrossCheck(t *testing.T) {
	tc := newTestCluster(t, 2)
	c := client.New(tc.coordURL)
	g := rmat.MustGenerate(clusterParams)

	for pattern, q := range clusterPatterns(t) {
		got := serverSet(t, c, pattern)

		want := map[string]bool{}
		for _, m := range baseline.VF2(g, q, 0) {
			want[assignmentKey64(assignmentToInt64(m.Assignment))] = true
		}
		requireSetEqual(t, "coordinator vs VF2: "+pattern, got, want)
		ull := map[string]bool{}
		for _, m := range baseline.Ullmann(g, q, 0) {
			ull[assignmentKey64(assignmentToInt64(m.Assignment))] = true
		}
		requireSetEqual(t, "coordinator vs Ullmann: "+pattern, got, ull)

		// Shard slices: disjoint, and their union is the full set.
		union := map[string]bool{}
		for i, u := range tc.shardURLs {
			sc := client.New(u)
			slice := map[string]bool{}
			_, err := sc.Query(context.Background(), server.QueryRequest{
				Pattern: pattern,
				Shard:   &server.ShardSelector{Index: i, Count: len(tc.shardURLs)},
			}, func(a []int64) bool {
				slice[assignmentKey64(a)] = true
				return true
			})
			if err != nil {
				t.Fatalf("shard %d direct query: %v", i, err)
			}
			for k := range slice {
				if union[k] {
					t.Fatalf("%s: match [%s] emitted by more than one shard", pattern, k)
				}
				union[k] = true
			}
		}
		requireSetEqual(t, "shard union: "+pattern, union, want)
	}
}

// TestClusterShardSelectorValidation pins the wrong_shard refusal: a shard
// told it is shard 1 of 2 rejects a selector addressed to a different
// position or a different cluster size, so a mis-wired shard map fails
// loudly instead of double- or under-emitting.
func TestClusterShardSelectorValidation(t *testing.T) {
	tc := newTestCluster(t, 2)
	sc := client.New(tc.shardURLs[1])
	for _, sel := range []server.ShardSelector{{Index: 0, Count: 2}, {Index: 1, Count: 3}} {
		_, err := sc.Query(context.Background(), server.QueryRequest{
			Pattern: "(a:L0)-(b:L1)", Shard: &sel,
		}, func([]int64) bool { return true })
		se, ok := err.(*client.StatusError)
		if !ok || se.Code != server.CodeWrongShard {
			t.Fatalf("selector %+v on shard 1: err %v, want code %s", sel, err, server.CodeWrongShard)
		}
	}
	// And the coordinator refuses a client-supplied selector outright.
	_, err := client.New(tc.coordURL).Query(context.Background(), server.QueryRequest{
		Pattern: "(a:L0)-(b:L1)", Shard: &server.ShardSelector{Index: 0, Count: 2},
	}, func([]int64) bool { return true })
	if se, ok := err.(*client.StatusError); !ok || se.StatusCode != http.StatusBadRequest {
		t.Fatalf("coordinator with client selector: %v, want 400", err)
	}
}

// TestClusterGlobalMatchCap pins that MaxMatches is enforced once, at the
// coordinator, across the merged stream — not per leg, which would let
// nShards×cap records through.
func TestClusterGlobalMatchCap(t *testing.T) {
	tc := newTestCluster(t, 2)
	c := client.New(tc.coordURL)
	full := serverSet(t, c, "(a:L0)-(b:L1)")
	cap := 3
	if len(full) <= cap {
		t.Fatalf("graph too sparse for the cap test: %d total matches", len(full))
	}
	n := 0
	stats, err := c.Query(context.Background(), server.QueryRequest{
		Pattern: "(a:L0)-(b:L1)", MaxMatches: cap,
	}, func([]int64) bool { n++; return true })
	if err != nil {
		t.Fatalf("capped query: %v", err)
	}
	if n != cap {
		t.Fatalf("received %d matches, want exactly the cap %d", n, cap)
	}
	if stats == nil || !stats.Truncated || !stats.LimitHit {
		t.Fatalf("stats = %+v, want Truncated and LimitHit", stats)
	}
}

// TestClusterTracePropagation pins the one-trace-everywhere contract: the
// trace ID a client sends rides the coordinator's response AND every
// shard's query leg, and the merged stats trailer names each leg.
func TestClusterTracePropagation(t *testing.T) {
	tc := newTestCluster(t, 2)
	c := client.New(tc.coordURL)
	const trace = "cluster-trace-0001"
	ctx := core.WithTraceID(context.Background(), trace)
	stats, err := c.Query(ctx, server.QueryRequest{Pattern: "(a:L0)-(b:L1)"},
		func([]int64) bool { return true })
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if stats.TraceID != trace {
		t.Fatalf("stats trace %q, want %q", stats.TraceID, trace)
	}
	if len(stats.Shards) != 2 {
		t.Fatalf("stats carries %d shard legs, want 2: %+v", len(stats.Shards), stats.Shards)
	}
	for i, leg := range stats.Shards {
		if leg.Shard != i || leg.URL != tc.shardURLs[i] || leg.Error != "" {
			t.Fatalf("leg %d = %+v, want shard %d at %s with no error", i, leg, i, tc.shardURLs[i])
		}
	}
	for i := range tc.shardURLs {
		if !tc.tracesSeen(i)[trace] {
			t.Fatalf("shard %d never saw trace %q on its query leg (saw %v)", i, trace, tc.tracesSeen(i))
		}
	}
}

// TestClusterUpdateBroadcast drives the durability test's mutation script
// through the coordinator and pins that (1) the acks look like a single
// server's, (2) every shard replica converged to the oracle state, and (3)
// post-update queries through the coordinator still match VF2.
func TestClusterUpdateBroadcast(t *testing.T) {
	tc := newTestCluster(t, 2)
	c := client.New(tc.coordURL)

	model := oracleOf(rmat.MustGenerate(clusterParams))
	base := int64(len(model.labels))
	script := []server.UpdateRequest{
		{Op: server.OpAddNode, Label: "qa"},
		{Op: server.OpAddNode, Label: "qb"},
		{Op: server.OpAddEdge, U: base, V: base + 1},
		{Op: server.OpAddEdge, U: 0, V: base},
		{Op: server.OpRemoveEdge, U: base, V: base + 1},
		{Op: server.OpAddEdge, U: 1, V: base + 1},
	}
	for i, u := range script {
		resp, err := c.Update(context.Background(), u)
		if err != nil {
			t.Fatalf("mutation %d (%+v): %v", i, u, err)
		}
		if u.Op == server.OpAddNode && resp.NodeID != base+int64(i) {
			t.Fatalf("mutation %d: assigned node %d, want %d", i, resp.NodeID, base+int64(i))
		}
		model.apply(u)
	}

	for pattern, q := range map[string]*core.Query{
		"(a:qa)-(b:L0)": core.MustNewQuery([]string{"qa", "L0"}, [][2]int{{0, 1}}),
		"(a:qb)-(b:L1)": core.MustNewQuery([]string{"qb", "L1"}, [][2]int{{0, 1}}),
	} {
		want := oracleSet(model.build(), q)
		requireSetEqual(t, "post-update coordinator: "+pattern, serverSet(t, c, pattern), want)
		// Each replica holds the full updated graph (selector-free query).
		for i, u := range tc.shardURLs {
			requireSetEqual(t, fmt.Sprintf("post-update shard %d: %s", i, pattern),
				serverSet(t, client.New(u), pattern), want)
		}
	}
}

// TestClusterBulkUpdateBroadcast pins the bulk path: one wire round-trip,
// every shard applies the whole batch.
func TestClusterBulkUpdateBroadcast(t *testing.T) {
	tc := newTestCluster(t, 2)
	c := client.New(tc.coordURL)
	model := oracleOf(rmat.MustGenerate(clusterParams))
	base := int64(len(model.labels))
	batch := []server.UpdateRequest{
		{Op: server.OpAddNode, Label: "qa"},
		{Op: server.OpAddNode, Label: "qa"},
		{Op: server.OpAddEdge, U: base, V: base + 1},
	}
	resp, err := c.BulkUpdate(context.Background(), batch)
	if err != nil {
		t.Fatalf("bulk update: %v", err)
	}
	if len(resp.Results) != len(batch) {
		t.Fatalf("bulk ack carries %d results, want %d", len(resp.Results), len(batch))
	}
	for _, u := range batch {
		model.apply(u)
	}
	q := core.MustNewQuery([]string{"qa", "qa"}, [][2]int{{0, 1}})
	want := oracleSet(model.build(), q)
	requireSetEqual(t, "bulk via coordinator", serverSet(t, c, "(a:qa)-(b:qa)"), want)
	for i, u := range tc.shardURLs {
		requireSetEqual(t, fmt.Sprintf("bulk on shard %d", i), serverSet(t, client.New(u), "(a:qa)-(b:qa)"), want)
	}
}

// TestClusterDegradedMode pins loud degradation: with one shard dead, a
// query and an update both come back as shard_unavailable envelopes that
// name the dead shard — never a silently partial answer.
func TestClusterDegradedMode(t *testing.T) {
	tc := newTestCluster(t, 2)
	c := client.New(tc.coordURL)
	serverSet(t, c, "(a:L0)-(b:L1)") // cluster healthy first

	tc.down(1)
	_, err := c.Query(context.Background(), server.QueryRequest{Pattern: "(a:L0)-(b:L1)"},
		func([]int64) bool { return true })
	if !client.IsShardUnavailable(err) {
		t.Fatalf("query on degraded cluster: %v, want shard_unavailable", err)
	}
	se := err.(*client.StatusError)
	if se.StatusCode != http.StatusBadGateway {
		t.Fatalf("degraded query status %d, want 502", se.StatusCode)
	}
	if !strings.Contains(se.Message, "shard 1") || !strings.Contains(se.Message, tc.shardURLs[1]) {
		t.Fatalf("degraded error %q does not name shard 1 at %s", se.Message, tc.shardURLs[1])
	}
	if _, err := c.Update(context.Background(), server.UpdateRequest{Op: server.OpAddEdge, U: 0, V: 1}); !client.IsShardUnavailable(err) {
		t.Fatalf("update on degraded cluster: %v, want shard_unavailable", err)
	}
}

// TestClusterConcurrentUpdateConvergence pins the coordinator's
// single-writer-per-namespace rule: concurrent add_node updates racing
// through the coordinator must reach every shard in one order, so all
// replicas assign the same id to the same logical node and every ack names
// an id the whole cluster agrees on. Without serialization, shard A can
// apply U1,U2 while shard B applies U2,U1 — silent, permanent divergence.
func TestClusterConcurrentUpdateConvergence(t *testing.T) {
	tc := newTestCluster(t, 2)
	c := client.New(tc.coordURL)
	model := oracleOf(rmat.MustGenerate(clusterParams))
	base := int64(len(model.labels))

	const writers = 8
	ids := make([]int64, writers)
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for k := 0; k < writers; k++ {
		k := k
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := c.Update(context.Background(), server.UpdateRequest{
				Op: server.OpAddNode, Label: fmt.Sprintf("c%d", k),
			})
			if err != nil {
				errs[k] = err
				return
			}
			ids[k] = resp.NodeID
		}()
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			t.Fatalf("concurrent writer %d: %v", k, err)
		}
	}
	// The acks must hand out exactly the next `writers` ids, each once:
	// duplicates or gaps mean some shard's ack disagreed with the cluster.
	seen := map[int64]bool{}
	for k, id := range ids {
		if id < base || id >= base+writers || seen[id] {
			t.Fatalf("writer %d acked id %d, want unique ids covering [%d,%d)", k, id, base, base+writers)
		}
		seen[id] = true
	}

	// Chain the new nodes by their acked ids. If any shard had applied the
	// adds in a different order, its label→id assignment differs, so the
	// edge (added by id) connects the wrong labels there and the pattern
	// below returns a different — or empty — match set on that shard.
	for k := 0; k+1 < writers; k++ {
		if _, err := c.Update(context.Background(), server.UpdateRequest{
			Op: server.OpAddEdge, U: ids[k], V: ids[k+1],
		}); err != nil {
			t.Fatalf("edge %d-%d: %v", k, k+1, err)
		}
	}
	for k := 0; k+1 < writers; k++ {
		pattern := fmt.Sprintf("(a:c%d)-(b:c%d)", k, k+1)
		want := map[string]bool{assignmentKey64([]int64{ids[k], ids[k+1]}): true}
		requireSetEqual(t, "coordinator: "+pattern, serverSet(t, c, pattern), want)
		for i, u := range tc.shardURLs {
			requireSetEqual(t, fmt.Sprintf("shard %d: %s", i, pattern),
				serverSet(t, client.New(u), pattern), want)
		}
	}
}

// TestClusterLegClientErrorRelay pins that a deterministic client-level
// refusal from the legs (here: 404 unknown namespace) is relayed to the
// caller with its real status and code — not rewrapped as a 502
// shard_unavailable infrastructure failure — and is not booked against the
// per-leg error counters.
func TestClusterLegClientErrorRelay(t *testing.T) {
	tc := newTestCluster(t, 2)
	_, err := client.New(tc.coordURL).Namespace("ghost").Query(context.Background(),
		server.QueryRequest{Pattern: "(a:L0)-(b:L1)"}, func([]int64) bool { return true })
	se, ok := err.(*client.StatusError)
	if !ok || se.StatusCode != http.StatusNotFound || se.Code != server.CodeNotFound {
		t.Fatalf("coordinator query on unknown namespace: %v, want 404 %s", err, server.CodeNotFound)
	}
	if client.IsShardUnavailable(err) {
		t.Fatal("unknown namespace misclassified as shard_unavailable")
	}
	st, err := client.New(tc.coordURL).Stats(context.Background())
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	for i, sh := range st.Cluster.Shards {
		if sh.Errors != 0 {
			t.Fatalf("shard %d booked %d leg errors for a 404 refusal", i, sh.Errors)
		}
	}
}

// TestClusterRelaysRetryHint pins that a shard's 429 keeps its retry hint on
// the way through a coordinator: with every shard's one admission slot held
// by a stream whose client has stopped reading, a second query draws 429
// overloaded with Retry-After and retry_after_ms — wire.go's contract for
// that code — and the refusal is not booked as a leg error.
func TestClusterRelaysRetryHint(t *testing.T) {
	tc := newTestClusterOn(t, 2, heavyEngine, func(role int, cfg *server.Config) {
		if role != coordinatorRole {
			cfg.MaxInFlight = 1
		}
	})
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	// The first record reaches this client only after both legs were
	// admitted (the leg handshake), so both slots are provably taken.
	cancel, typ := startStream(t, tc.coordURL+"/v1", &http.Client{Transport: tr})
	defer cancel()
	if typ != server.RecordMatch {
		t.Fatalf("pinned stream's first record is %q, want a match", typ)
	}

	resp, err := http.Post(tc.coordURL+"/v1/query", "application/json",
		strings.NewReader(fmt.Sprintf(`{"pattern": %q}`, heavyPattern)))
	if err != nil {
		t.Fatal(err)
	}
	retryAfter := resp.Header.Get("Retry-After")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second query: status %d, want 429", resp.StatusCode)
	}
	env := decodeEnvelope(t, "second query", resp)
	if env.Code != server.CodeOverloaded || env.RetryAfterMS <= 0 || retryAfter == "" {
		t.Fatalf("relayed refusal: code %q, retry_after_ms %d, Retry-After %q; want %s with both hints",
			env.Code, env.RetryAfterMS, retryAfter, server.CodeOverloaded)
	}
	st, err := client.New(tc.coordURL).Stats(context.Background())
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	for i, sh := range st.Cluster.Shards {
		if sh.Errors != 0 {
			t.Fatalf("shard %d booked %d leg errors for a 429 refusal", i, sh.Errors)
		}
	}
}

// TestClusterConcurrentClients hammers the mutex-shared sink path: many
// clients at once against a 3-shard coordinator, each query's three legs
// forwarding into one response, capped and uncapped. Every answer must be
// whole and exact; run it under -race -count=10.
func TestClusterConcurrentClients(t *testing.T) {
	// A graph whose answers run to thousands of matches, so every leg sends
	// several blocks and the legs really interleave on the sink.
	tc := newTestClusterOn(t, 3, func() *core.Engine { return newEngine(t, 11, 8, 2, 4) })
	c := client.New(tc.coordURL)
	patterns := []string{"(a:L0)-(b:L1)", "(a:L0)-(b:L0)", "(a:L1)-(b:L1)"}
	want := make([]map[string]bool, len(patterns))
	for i, p := range patterns {
		if want[i] = serverSet(t, client.New(tc.shardURLs[0]), p); len(want[i]) < 1000 {
			t.Fatalf("%s: only %d matches; the legs would send a block each", p, len(want[i]))
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 6; round++ {
				i := (w + round) % len(patterns)
				cap := 0
				if round%3 == 2 {
					cap = 100 * (1 + w)
				}
				got := map[string]bool{}
				stats, err := c.Query(context.Background(), server.QueryRequest{Pattern: patterns[i], MaxMatches: cap},
					func(a []int64) bool { got[assignmentKey64(a)] = true; return true })
				if err != nil {
					t.Errorf("worker %d round %d: %v", w, round, err)
					return
				}
				legSum := 0
				for _, leg := range stats.Shards {
					legSum += leg.Matches
				}
				if stats.Matches != len(got) || legSum != len(got) {
					t.Errorf("worker %d round %d: trailer counts %d, legs sum to %d, %d distinct matches arrived", w, round, stats.Matches, legSum, len(got))
				}
				if cap > 0 {
					if len(got) != cap || !stats.LimitHit {
						t.Errorf("worker %d round %d: %d matches under max_matches=%d (limit_hit=%v)", w, round, len(got), cap, stats.LimitHit)
					}
					for k := range got {
						if !want[i][k] {
							t.Errorf("worker %d round %d: match [%s] is not in the full answer", w, round, k)
						}
					}
				} else if len(got) != len(want[i]) {
					t.Errorf("worker %d round %d: %d matches, want %d", w, round, len(got), len(want[i]))
				} else {
					for k := range want[i] {
						if !got[k] {
							t.Errorf("worker %d round %d: match [%s] missing", w, round, k)
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestClusterShardSelectorPinnedN pins that a selector's N overrides the
// shard's local vertex count when drawing range boundaries — the mechanism
// that keeps every fan-out leg partitioning the same id space while an
// add_node broadcast is mid-flight. With N twice the graph size, shard 0 of
// 2 owns every real vertex and shard 1 owns none.
func TestClusterShardSelectorPinnedN(t *testing.T) {
	tc := newTestCluster(t, 2)
	g := rmat.MustGenerate(clusterParams)
	const pattern = "(a:L0)-(b:L1)"
	full := serverSet(t, client.New(tc.shardURLs[0]), pattern) // selector-free: the whole answer

	pinned := map[string]bool{}
	if _, err := client.New(tc.shardURLs[0]).Query(context.Background(), server.QueryRequest{
		Pattern: pattern,
		Shard:   &server.ShardSelector{Index: 0, Count: 2, N: 2 * g.NumNodes()},
	}, func(a []int64) bool { pinned[assignmentKey64(a)] = true; return true }); err != nil {
		t.Fatalf("shard 0 with pinned N: %v", err)
	}
	requireSetEqual(t, "shard 0 owns all vertices under pinned N", pinned, full)

	rest := 0
	if _, err := client.New(tc.shardURLs[1]).Query(context.Background(), server.QueryRequest{
		Pattern: pattern,
		Shard:   &server.ShardSelector{Index: 1, Count: 2, N: 2 * g.NumNodes()},
	}, func([]int64) bool { rest++; return true }); err != nil {
		t.Fatalf("shard 1 with pinned N: %v", err)
	}
	if rest != 0 {
		t.Fatalf("shard 1 emitted %d matches under a pinned N that assigns it none", rest)
	}
}

// TestClusterStatsAndMetrics pins the observability surface: the /stats
// cluster block on both roles, per-leg counters after traffic, and the
// coordinator's /metrics page against the full exposition lint (type
// suffixes, histogram contract — the same gauntlet the single-node page
// runs).
func TestClusterStatsAndMetrics(t *testing.T) {
	tc := newTestCluster(t, 2)
	c := client.New(tc.coordURL)
	serverSet(t, c, "(a:L0)-(b:L1)")
	if _, err := c.Update(context.Background(), server.UpdateRequest{Op: server.OpAddNode, Label: "qa"}); err != nil {
		t.Fatalf("update: %v", err)
	}

	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Cluster == nil || st.Cluster.Role != "coordinator" || len(st.Cluster.Shards) != 2 {
		t.Fatalf("coordinator stats cluster block = %+v, want coordinator with 2 shards", st.Cluster)
	}
	for i, sh := range st.Cluster.Shards {
		if sh.Shard != i || sh.URL != tc.shardURLs[i] {
			t.Fatalf("cluster shard %d = %+v, want %s", i, sh, tc.shardURLs[i])
		}
		if sh.Requests == 0 {
			t.Fatalf("cluster shard %d shows zero leg requests after traffic", i)
		}
		if sh.Errors != 0 {
			t.Fatalf("cluster shard %d shows %d leg errors on a healthy cluster", i, sh.Errors)
		}
	}
	ss, err := client.New(tc.shardURLs[0]).Stats(context.Background())
	if err != nil {
		t.Fatalf("shard stats: %v", err)
	}
	if ss.Cluster == nil || ss.Cluster.Role != "shard" || ss.Cluster.ShardID != 0 {
		t.Fatalf("shard stats cluster block = %+v, want shard 0", ss.Cluster)
	}

	text := scrapeMetrics(t, tc.coordURL)
	lintExposition(t, text)
	for _, family := range []string{
		"stwig_cluster_shards",
		"stwig_cluster_leg_requests_total",
		"stwig_cluster_leg_errors_total",
		"stwig_cluster_leg_bytes_read_total",
		"stwig_cluster_leg_latency_seconds_bucket",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("coordinator /metrics is missing %s", family)
		}
	}
	if !strings.Contains(text, `stwig_cluster_leg_requests_total{shard="1"}`) {
		t.Errorf("coordinator /metrics has no per-shard leg sample:\n%s", text)
	}
}

// TestClusterAdminLifecycle pins namespace administration through the
// coordinator: a create broadcasts to every shard, queries against the new
// tenant fan out, and a drop removes it everywhere.
func TestClusterAdminLifecycle(t *testing.T) {
	tc := newTestCluster(t, 2)
	c := client.New(tc.coordURL, client.WithToken(testAdminToken))
	ctx := context.Background()

	if _, err := c.Admin().CreateNamespace(ctx, server.CreateNamespaceRequest{
		Name: "tenant2", Spec: "rmat:scale=5,degree=3,labels=2,seed=7,machines=2",
	}); err != nil {
		t.Fatalf("create via coordinator: %v", err)
	}
	for i := range tc.shards {
		if _, ok := tc.shards[i].NamespaceInfo("tenant2"); !ok {
			t.Fatalf("shard %d did not materialize tenant2", i)
		}
	}
	g := rmat.MustGenerate(rmat.Params{Scale: 5, AvgDegree: 3, NumLabels: 2, Seed: 7})
	q := core.MustNewQuery([]string{"L0", "L1"}, [][2]int{{0, 1}})
	want := map[string]bool{}
	for _, m := range baseline.VF2(g, q, 0) {
		want[assignmentKey64(assignmentToInt64(m.Assignment))] = true
	}
	requireSetEqual(t, "tenant2 via coordinator", serverSet(t, c.Namespace("tenant2"), "(a:L0)-(b:L1)"), want)

	if err := c.Admin().DropNamespace(ctx, "tenant2"); err != nil {
		t.Fatalf("drop via coordinator: %v", err)
	}
	for i := range tc.shards {
		if _, ok := tc.shards[i].NamespaceInfo("tenant2"); ok {
			t.Fatalf("shard %d still has tenant2 after the drop", i)
		}
	}
}

// TestClusterExplainHonoursShardSelector: /explain validates a selector the
// way /query does, names the slice in the plan — one extra line, in a plan
// that is otherwise the unsliced text — and ANALYZE runs the slice, so the
// shards' counts add up to the whole query's. (The parent decoded the
// selector and ignored it: every shard "analyzed" the whole answer.)
func TestClusterExplainHonoursShardSelector(t *testing.T) {
	tc := newTestCluster(t, 2)
	ctx := context.Background()
	const pattern = "(a:L0)-(b:L1), (b)-(c:L2)" // the centre is b: v1
	matchCount := regexp.MustCompile(`EXPLAIN ANALYZE trace=\S+: (\d+) matches in`)
	analyzed := func(out *server.ExplainResponse) int {
		m := matchCount.FindStringSubmatch(out.Analyze)
		if m == nil {
			t.Fatalf("no match count in the analyze report:\n%s", out.Analyze)
		}
		n, _ := strconv.Atoi(m[1])
		return n
	}

	whole, err := client.New(tc.shardURLs[0]).Explain(ctx, server.QueryRequest{Pattern: pattern, Analyze: true})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(whole.Plan, "slice:") || strings.Contains(whole.Analyze, "slice:") {
		t.Fatalf("an unsliced explain names a slice:\n%s", whole.Analyze)
	}
	total := analyzed(whole)
	if want := len(serverSet(t, client.New(tc.shardURLs[0]), pattern)); total != want || total == 0 {
		t.Fatalf("unsliced analyze counts %d matches, /query returns %d", total, want)
	}

	n := rmat.MustGenerate(clusterParams).NumNodes()
	sum := 0
	for i, line := range []string{
		fmt.Sprintf("slice: v1 (L1) in [0, %d)\n", n/2),
		fmt.Sprintf("slice: v1 (L1) in [%d, +inf)\n", n/2),
	} {
		sc := client.New(tc.shardURLs[i])
		req := server.QueryRequest{Pattern: pattern, Shard: &server.ShardSelector{Index: i, Count: 2}}
		plain, err := sc.Explain(ctx, req)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		unsliced, err := sc.Explain(ctx, server.QueryRequest{Pattern: pattern})
		if err != nil {
			t.Fatal(err)
		}
		sliced, whole := buildTime.ReplaceAllString(plain.Plan, ""), buildTime.ReplaceAllString(unsliced.Plan, "")
		if !strings.Contains(sliced, line) || strings.Replace(sliced, line, "", 1) != whole {
			t.Fatalf("shard %d: the sliced plan is not the unsliced plan plus %q:\n%s\nunsliced:\n%s", i, line, plain.Plan, unsliced.Plan)
		}
		req.Analyze = true
		out, err := sc.Explain(ctx, req)
		if err != nil {
			t.Fatalf("shard %d analyze: %v", i, err)
		}
		if !strings.Contains(out.Analyze, line) {
			t.Fatalf("shard %d: the analyze report does not name the slice:\n%s", i, out.Analyze)
		}
		part := analyzed(out)
		if part == 0 || part == total {
			t.Fatalf("shard %d analyzed %d of %d matches; the fixture's matches straddle both ranges", i, part, total)
		}
		sum += part
	}
	if sum != total {
		t.Fatalf("the shards analyzed %d matches between them, the whole query has %d", sum, total)
	}

	for _, sel := range []server.ShardSelector{{Index: 0, Count: 2}, {Index: 2, Count: 2}, {Index: 1, Count: 2, N: -1}} {
		_, err := client.New(tc.shardURLs[1]).Explain(ctx, server.QueryRequest{Pattern: pattern, Shard: &sel})
		if se, ok := err.(*client.StatusError); !ok || se.StatusCode != http.StatusBadRequest {
			t.Fatalf("explain with selector %+v on shard 1: %v, want a 400", sel, err)
		}
	}
}
