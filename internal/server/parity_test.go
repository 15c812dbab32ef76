// Parity tests for the one request pipeline: a single-node server and a
// coordinator over two shards run the same handlers with a different
// backend, so the same bad or edge input must get the same answer from
// both, and both must account for a request in their log the same way.
package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"stwig/internal/core"
	"stwig/internal/memcloud"
	"stwig/internal/rmat"
	"stwig/internal/server"
	"stwig/internal/server/client"
)

// outcome is what a client can tell apart about one reply: the status, the
// envelope code of a refusal, and how an NDJSON stream ended.
type outcome struct {
	status   int
	code     string // error envelope's, or the terminal error record's
	terminal string // last NDJSON record's type; "" for non-stream replies
	matches  int
	// the stats trailer's cap flags
	truncated, limitHit, byteCapHit bool
}

func (o outcome) String() string {
	return fmt.Sprintf("status=%d code=%q terminal=%q truncated=%v limit_hit=%v byte_cap_hit=%v",
		o.status, o.code, o.terminal, o.truncated, o.limitHit, o.byteCapHit)
}

// send performs one request and classifies the reply.
func send(t *testing.T, method, url, body string) outcome {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	out := outcome{status: resp.StatusCode}
	if resp.StatusCode != http.StatusOK {
		out.code = decodeEnvelope(t, method+" "+url, resp).Code
		return out
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: reading body: %v", method, url, err)
	}
	if !strings.HasPrefix(resp.Header.Get("Content-Type"), "application/x-ndjson") {
		return out
	}
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		var rec server.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("%s %s: bad stream record %q: %v", method, url, line, err)
		}
		out.terminal, out.code = rec.Type, rec.Code
		switch rec.Type {
		case server.RecordMatch:
			out.matches++
		case server.RecordStats:
			out.truncated, out.limitHit, out.byteCapHit = rec.Stats.Truncated, rec.Stats.LimitHit, rec.Stats.ByteCapHit
			if rec.Stats.Matches != out.matches {
				t.Fatalf("%s %s: trailer counts %d matches, stream carried %d", method, url, rec.Stats.Matches, out.matches)
			}
			// A coordinator's legs account for exactly what reached the
			// wire, capped or not.
			if legs := rec.Stats.Shards; len(legs) > 0 {
				sum := 0
				for _, leg := range legs {
					sum += leg.Matches
				}
				if sum != out.matches {
					t.Fatalf("%s %s: shards[].matches sum to %d, stream carried %d (%+v)", method, url, sum, out.matches, legs)
				}
			}
		}
	}
	return out
}

// TestLocalCoordinatorParity is the executable statement that validation,
// refusals, and caps exist once: every input below must draw the identical
// status, envelope code, and terminal-record flags from a single-node
// server and from a coordinator over two shards of the same graph.
func TestLocalCoordinatorParity(t *testing.T) {
	// The front process's limits: a byte cap a handful of matches fill, and
	// a body limit above an over-long bulk array's ~2 MB.
	limits := func(cfg *server.Config) {
		cfg.MaxBytes = 256
		cfg.MaxRequestBytes = 4 << 20
	}
	cluster := memcloud.MustNewCluster(memcloud.Config{Machines: 2})
	if err := cluster.LoadGraph(rmat.MustGenerate(clusterParams)); err != nil {
		t.Fatal(err)
	}
	localCfg := server.Config{}
	limits(&localCfg)
	local, localTS, _ := newTestServer(t, core.NewEngine(cluster, core.Options{}), localCfg)
	tc := newTestCluster(t, 2, func(role int, cfg *server.Config) {
		if role == coordinatorRole {
			limits(cfg)
		}
	})

	const pattern = `"pattern":"(a:L0)-(b:L1)"`
	// Three ids of one or two digits each make a match line 38 to 41 bytes,
	// so the 256-byte cap is crossed by the 7th record of this pattern in
	// whatever order the matches arrive: the two fronts must count alike.
	const wedge = `"pattern":"(a:L0)-(b:L1), (b)-(c:L2)"`
	tooMany := `{"updates":[` + strings.TrimSuffix(strings.Repeat(`{"op":"add_node","label":"x"},`, server.MaxBulkUpdates+1), ",") + `]}`
	cases := []struct {
		name, method, path, body string
		want                     outcome
	}{
		{"malformed JSON", "POST", "/v1/query", `{not json`, outcome{status: 400, code: server.CodeBadRequest}},
		{"malformed update JSON", "POST", "/v1/update", `[`, outcome{status: 400, code: server.CodeBadRequest}},
		{"neither pattern nor query", "POST", "/v1/query", `{}`, outcome{status: 400, code: server.CodeBadRequest}},
		{"both pattern and query", "POST", "/v1/query", `{` + pattern + `,"query":"v 0 L0"}`, outcome{status: 400, code: server.CodeBadRequest}},
		{"pattern syntax error", "POST", "/v1/query", `{"pattern":"(a:L0"}`, outcome{status: 400, code: server.CodeBadRequest}},
		{"oversize body", "POST", "/v1/query", `{` + pattern + `,"query":"` + strings.Repeat("x", 5<<20) + `"}`, outcome{status: 400, code: server.CodeBadRequest}},
		{"illegal shard selector", "POST", "/v1/query", `{` + pattern + `,"shard":{"index":2,"count":2}}`, outcome{status: 400, code: server.CodeBadRequest}},
		{"bulk with no items", "POST", "/v1/update/bulk", `{"updates":[]}`, outcome{status: 400, code: server.CodeBadRequest}},
		{"bulk over the item limit", "POST", "/v1/update/bulk", tooMany, outcome{status: 400, code: server.CodeBadRequest}},
		{"invalid op", "POST", "/v1/update", `{"op":"paint_node"}`, outcome{status: 400, code: server.CodeBadRequest}},
		{"invalid op inside a bulk", "POST", "/v1/update/bulk", `{"updates":[{"op":"add_node","label":"x"},{"op":"add_edge","u":-1,"v":0}]}`, outcome{status: 400, code: server.CodeBadRequest}},
		{"query on an unknown namespace", "POST", "/v1/ns/ghost/query", `{` + pattern + `}`, outcome{status: 404, code: server.CodeNotFound}},
		{"update on an unknown namespace", "POST", "/v1/ns/ghost/update", `{"op":"add_node","label":"x"}`, outcome{status: 404, code: server.CodeNotFound}},
		{"update conflict", "POST", "/v1/update", `{"op":"add_edge","u":1099511627776,"v":0}`, outcome{status: 409, code: server.CodeConflict}},
		{"unversioned path", "POST", "/query", `{` + pattern + `}`, outcome{status: 404, code: server.CodeNotFound}},
		{"max_matches cap hit", "POST", "/v1/query", `{` + pattern + `,"max_matches":3}`,
			outcome{status: 200, terminal: server.RecordStats, matches: 3, truncated: true, limitHit: true}},
		{"byte cap hit", "POST", "/v1/query", `{` + pattern + `}`,
			outcome{status: 200, terminal: server.RecordStats, truncated: true, byteCapHit: true}},
		{"byte cap cuts at the same record", "POST", "/v1/query", `{` + wedge + `}`,
			outcome{status: 200, terminal: server.RecordStats, matches: 7, truncated: true, byteCapHit: true}},
		{"max_matches below the byte cap", "POST", "/v1/query", `{` + wedge + `,"max_matches":6}`,
			outcome{status: 200, terminal: server.RecordStats, matches: 6, truncated: true, limitHit: true}},
		{"one record crosses both caps", "POST", "/v1/query", `{` + wedge + `,"max_matches":7}`,
			outcome{status: 200, terminal: server.RecordStats, matches: 7, truncated: true, byteCapHit: true}},
	}
	check := func(name, method, path, body string, want outcome) {
		t.Helper()
		for _, front := range []struct{ role, url string }{{"single node", localTS.URL}, {"coordinator", tc.coordURL}} {
			got := send(t, method, front.url+path, body)
			if want.matches == 0 {
				got.matches = 0 // where a byte cap cuts depends on the ids' digit counts
			}
			if got != want {
				t.Errorf("%s via %s:\n got %v\nwant %v", name, front.role, got, want)
			}
		}
	}
	for _, c := range cases {
		check(c.name, c.method, c.path, c.body, c.want)
	}

	// Draining last: it refuses everything above that is new work.
	local.BeginDrain()
	tc.coord.BeginDrain()
	draining := outcome{status: 503, code: server.CodeDraining}
	check("query while draining", "POST", "/v1/query", `{`+pattern+`}`, draining)
	check("explain while draining", "POST", "/v1/explain", `{`+pattern+`}`, draining)
	check("update while draining", "POST", "/v1/update", `{"op":"add_node","label":"x"}`, draining)
	check("bulk update while draining", "POST", "/v1/update/bulk", `{"updates":[{"op":"add_node","label":"x"}]}`, draining)
	check("stats while draining", "GET", "/v1/stats", "", outcome{status: 200})
}

// TestCoordinatorRequestLog pins that a coordinator accounts for a request
// in its log the way a single node does: the summary line names the
// namespace, the match count, and a non-zero exec time, under the same
// trace ID its shards logged their legs with — including an ID the
// coordinator minted itself — and the slow-query log can fire there, with a
// per-leg breakdown.
func TestCoordinatorRequestLog(t *testing.T) {
	var coordLog syncBuffer
	shardLogs := make([]syncBuffer, 2)
	tc := newTestCluster(t, 2, func(role int, cfg *server.Config) {
		if role == coordinatorRole {
			cfg.Logger = slogJSON(&coordLog)
			cfg.SlowQuery = time.Nanosecond
			return
		}
		cfg.Logger = slogJSON(&shardLogs[role])
	})
	c := client.New(tc.coordURL)
	requestLine := func(route, trace string) func(map[string]any) bool {
		return func(m map[string]any) bool {
			return m["msg"] == "request" && m["route"] == route && m["trace_id"] == trace
		}
	}
	requireShardLines := func(route, trace string) {
		t.Helper()
		for i := range shardLogs {
			line := waitForLogLine(t, &shardLogs[i], requestLine(route, trace))
			if line["namespace"] != "default" {
				t.Errorf("shard %d %s line namespace = %v, want default", i, route, line["namespace"])
			}
		}
	}

	const queryTrace = "coordinator-log-query"
	stats, err := c.Query(core.WithTraceID(context.Background(), queryTrace),
		server.QueryRequest{Pattern: "(a:L0)-(b:L1)"}, func([]int64) bool { return true })
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if stats.Matches == 0 {
		t.Fatal("query matched nothing; the log assertions below would be vacuous")
	}
	line := waitForLogLine(t, &coordLog, requestLine("/query", queryTrace))
	if line["namespace"] != "default" {
		t.Errorf("coordinator /query line namespace = %v, want default", line["namespace"])
	}
	if line["matches"] != float64(stats.Matches) {
		t.Errorf("coordinator /query line matches = %v, want %d", line["matches"], stats.Matches)
	}
	if exec, _ := line["exec"].(float64); exec <= 0 {
		t.Errorf("coordinator /query line exec = %v, want > 0", line["exec"])
	}
	requireShardLines("/query", queryTrace)
	slow := waitForLogLine(t, &coordLog, func(m map[string]any) bool {
		return m["msg"] == "slow query" && m["trace_id"] == queryTrace
	})
	if spans, _ := slow["spans"].(string); !strings.Contains(spans, "shard 0") || !strings.Contains(spans, "shard 1") {
		t.Errorf("coordinator slow-query breakdown = %q, want one span per leg", slow["spans"])
	}

	// An update sent with no trace header: the coordinator mints the ID, and
	// that — not a second, shard-minted one — is what the shards must log.
	resp, err := http.Post(tc.coordURL+"/v1/update", "application/json", strings.NewReader(`{"op":"add_node","label":"logged"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update via coordinator: status %d", resp.StatusCode)
	}
	updateTrace := resp.Header.Get(server.TraceHeader)
	if updateTrace == "" {
		t.Fatal("coordinator reply carries no trace ID")
	}
	line = waitForLogLine(t, &coordLog, requestLine("/update", updateTrace))
	if line["namespace"] != "default" {
		t.Errorf("coordinator /update line namespace = %v, want default", line["namespace"])
	}
	if exec, _ := line["exec"].(float64); exec <= 0 {
		t.Errorf("coordinator /update line exec = %v, want > 0", line["exec"])
	}
	requireShardLines("/update", updateTrace)
}
