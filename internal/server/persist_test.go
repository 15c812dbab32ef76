// HTTP-level durability tests: the crash-recovery suite that simulates a
// SIGKILL at every interesting byte of the journal and proves the rebooted
// server serves exactly the committed batch prefix — verified against the
// VF2 oracle — plus restart/drop durability and the Server.Close ordering
// test.
package server_test

import (
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"stwig/internal/baseline"
	"stwig/internal/core"
	"stwig/internal/graph"
	"stwig/internal/journal"
	"stwig/internal/rmat"
	"stwig/internal/server"
	"stwig/internal/server/client"
)

// durSpec is the persisted tenant every durability test uses: a small,
// seed-deterministic R-MAT graph, so a reboot's spec rebuild reproduces the
// exact pre-crash base graph.
const (
	durName = "dur"
	durSpec = "rmat:scale=5,degree=3,labels=2,seed=41,machines=2"
)

// durBase regenerates the spec's base graph for the oracle-side model.
func durBase(t *testing.T) *graph.Graph {
	t.Helper()
	return rmat.MustGenerate(rmat.Params{Scale: 5, AvgDegree: 3, NumLabels: 2, Seed: 41})
}

// oracleModel mirrors the server's graph for the VF2 oracle.
type oracleModel struct {
	labels []string
	edges  map[[2]int64]bool
}

func oracleOf(g *graph.Graph) *oracleModel {
	m := &oracleModel{edges: map[[2]int64]bool{}}
	for v := int64(0); v < g.NumNodes(); v++ {
		id := graph.NodeID(v)
		m.labels = append(m.labels, g.LabelString(id))
		for _, u := range g.Neighbors(id) {
			if id < u {
				m.edges[[2]int64{v, int64(u)}] = true
			}
		}
	}
	return m
}

func (m *oracleModel) apply(u server.UpdateRequest) {
	switch u.Op {
	case server.OpAddNode:
		m.labels = append(m.labels, u.Label)
	case server.OpAddEdge:
		a, b := u.U, u.V
		if a > b {
			a, b = b, a
		}
		m.edges[[2]int64{a, b}] = true
	case server.OpRemoveEdge:
		a, b := u.U, u.V
		if a > b {
			a, b = b, a
		}
		delete(m.edges, [2]int64{a, b})
	}
}

func (m *oracleModel) build() *graph.Graph {
	b := graph.NewBuilder(graph.Undirected())
	for _, l := range m.labels {
		b.AddNode(l)
	}
	for e := range m.edges {
		b.MustAddEdge(graph.NodeID(e[0]), graph.NodeID(e[1]))
	}
	return b.Build()
}

// oracleSet runs q through VF2 on the model graph and canonicalizes.
func oracleSet(g *graph.Graph, q *core.Query) map[string]bool {
	out := map[string]bool{}
	for _, mt := range baseline.VF2(g, q, 0) {
		out[assignmentKey64(assignmentToInt64(mt.Assignment))] = true
	}
	return out
}

func assignmentToInt64(a []graph.NodeID) []int64 {
	out := make([]int64, len(a))
	for i, id := range a {
		out[i] = int64(id)
	}
	return out
}

func assignmentKey64(a []int64) string {
	parts := make([]string, len(a))
	for i, v := range a {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, ",")
}

// serverSet streams q from the live server and canonicalizes.
func serverSet(t *testing.T, c *client.Client, pattern string) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	_, err := c.Query(context.Background(), server.QueryRequest{Pattern: pattern}, func(a []int64) bool {
		out[assignmentKey64(a)] = true
		return true
	})
	if err != nil {
		t.Fatalf("query %q: %v", pattern, err)
	}
	return out
}

func requireSetEqual(t *testing.T, desc string, got, want map[string]bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d", desc, len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("%s: missing match [%s]", desc, k)
		}
	}
}

// copyTree clones a data dir for a simulated-crash reboot.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		defer out.Close()
		_, err = io.Copy(out, in)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// bootPersisted boots a server purely from a data dir and wires a client
// to the durable namespace.
func bootPersisted(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server, *client.Client) {
	t.Helper()
	svc, err := server.NewMulti(cfg)
	if err != nil {
		t.Fatalf("recovery boot: %v", err)
	}
	ts := newHTTPServer(t, svc)
	return svc, ts, client.New(ts.URL).Namespace(durName)
}

// durMutations is the deterministic update script the crash tests journal:
// fresh vertices (IDs 32..34 on the scale-5 base), stitches among them and
// into the base graph, and a removal — every mutation kind crosses the
// journal.
func durMutations() []server.UpdateRequest {
	return []server.UpdateRequest{
		{Op: server.OpAddNode, Label: "qa"},     // id 32
		{Op: server.OpAddNode, Label: "qb"},     // id 33
		{Op: server.OpAddEdge, U: 32, V: 33},    // qa-qb
		{Op: server.OpAddNode, Label: "qa"},     // id 34
		{Op: server.OpAddEdge, U: 33, V: 34},    // qb-qa
		{Op: server.OpAddEdge, U: 0, V: 32},     // stitch into the base graph
		{Op: server.OpRemoveEdge, U: 32, V: 33}, // drop the first stitch
		{Op: server.OpAddNode, Label: "qb"},     // id 35
		{Op: server.OpAddEdge, U: 34, V: 35},    // qa-qb again elsewhere
	}
}

// durPatterns are the queries each recovery is checked with: one over the
// journaled labels, one over the base alphabet (catches base-graph
// corruption), one mixing both.
func durPatterns() map[string]*core.Query {
	return map[string]*core.Query{
		"(a:qa)-(b:qb)":             core.MustNewQuery([]string{"qa", "qb"}, [][2]int{{0, 1}}),
		"(a:L0)-(b:L1)":             core.MustNewQuery([]string{"L0", "L1"}, [][2]int{{0, 1}}),
		"(a:L0)-(b:qa), (b)-(c:qb)": core.MustNewQuery([]string{"L0", "qa", "qb"}, [][2]int{{0, 1}, {1, 2}}),
	}
}

// applyDurMutations runs the script through the live server, asserting
// every ack, and returns the per-prefix oracle models (models[k] is the
// state after the first k mutations).
func applyDurMutations(t *testing.T, c *client.Client) []*oracleModel {
	t.Helper()
	model := oracleOf(durBase(t))
	models := []*oracleModel{snapshotModel(model)}
	for i, u := range durMutations() {
		if _, err := c.Update(context.Background(), u); err != nil {
			t.Fatalf("mutation %d (%+v): %v", i, u, err)
		}
		model.apply(u)
		models = append(models, snapshotModel(model))
	}
	return models
}

func snapshotModel(m *oracleModel) *oracleModel {
	c := &oracleModel{labels: append([]string(nil), m.labels...), edges: make(map[[2]int64]bool, len(m.edges))}
	for e := range m.edges {
		c.edges[e] = true
	}
	return c
}

// TestCrashRecoveryCommittedPrefix is the acceptance crash suite: the
// journal is cut at EVERY record boundary and at offsets inside every
// frame — the states a SIGKILL mid-append (or mid-fsync) can leave on disk
// — and each cut is rebooted and required to serve exactly the committed
// batch prefix's match sets, bit-for-bit equal to the VF2 oracle. No torn
// mutation may surface, no committed mutation may vanish, none may apply
// twice.
func TestCrashRecoveryCommittedPrefix(t *testing.T) {
	liveDir := t.TempDir()
	cfg := server.Config{DataDir: liveDir}
	svc, err := server.NewMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.AddNamespaceSpec(mustSpec(t, durName, durSpec)); err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, svc)
	c := client.New(ts.URL).Namespace(durName)
	models := applyDurMutations(t, c)
	ts.Close()
	svc.Close() // drains the dispatcher; the journal now holds every batch

	walPath := filepath.Join(liveDir, "ns", durName, "journal.wal")
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	recs, rep, err := journal.Scan(strings.NewReader(string(raw)))
	if err != nil || rep.Torn {
		t.Fatalf("live journal scan: rep=%+v err=%v", rep, err)
	}
	if len(recs) != len(durMutations()) {
		t.Fatalf("journal holds %d records, want %d (sequential updates must journal one batch each)",
			len(recs), len(durMutations()))
	}
	// Frame boundaries: 8-byte header + 8-byte seq + body, matching the
	// journal package's framing (journal_test pins the layout).
	bounds := []int64{0}
	off := int64(0)
	for _, r := range recs {
		off += 16 + int64(len(r.Body))
		bounds = append(bounds, off)
	}
	if off != int64(len(raw)) {
		t.Fatalf("frame walk covers %d bytes, file has %d", off, len(raw))
	}

	patterns := durPatterns()
	// Every boundary cut (clean prefix) and, for each frame, two interior
	// cuts (torn header, torn payload): the crash states.
	type cut struct {
		at        int64
		committed int // records surviving the cut
		torn      bool
	}
	var cuts []cut
	for k := 0; k <= len(recs); k++ {
		cuts = append(cuts, cut{at: bounds[k], committed: k})
		if k < len(recs) {
			cuts = append(cuts, cut{at: bounds[k] + 3, committed: k, torn: true})
			mid := bounds[k] + (bounds[k+1]-bounds[k])/2
			cuts = append(cuts, cut{at: mid, committed: k, torn: true})
		}
	}
	for _, tc := range cuts {
		t.Run(fmt.Sprintf("cut=%d", tc.at), func(t *testing.T) {
			crashDir := t.TempDir()
			copyTree(t, liveDir, crashDir)
			if err := os.WriteFile(filepath.Join(crashDir, "ns", durName, "journal.wal"), raw[:tc.at], 0o644); err != nil {
				t.Fatal(err)
			}
			svc2, _, c2 := bootPersisted(t, server.Config{DataDir: crashDir})
			defer svc2.Close()

			gModel := models[tc.committed].build()
			for pat, q := range patterns {
				requireSetEqual(t, fmt.Sprintf("cut %d, pattern %s", tc.at, pat),
					serverSet(t, c2, pat), oracleSet(gModel, q))
			}
			st, err := c2.Stats(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if st.Graph.Nodes != gModel.NumNodes() {
				t.Fatalf("cut %d: recovered %d nodes, committed prefix has %d", tc.at, st.Graph.Nodes, gModel.NumNodes())
			}
			if st.Journal == nil || !st.Journal.Enabled {
				t.Fatalf("cut %d: journal stats missing after recovery: %+v", tc.at, st.Journal)
			}
			if st.Journal.ReplayedRecords != uint64(tc.committed) {
				t.Fatalf("cut %d: replayed %d records, want %d", tc.at, st.Journal.ReplayedRecords, tc.committed)
			}
			if st.Journal.TornTailRecovered != tc.torn {
				t.Fatalf("cut %d: torn_tail_recovered=%v, want %v", tc.at, st.Journal.TornTailRecovered, tc.torn)
			}
			// The epoch is restored exactly: one bump per committed mutation.
			if st.Graph.Epoch != uint64(tc.committed) {
				t.Fatalf("cut %d: epoch %d, want %d", tc.at, st.Graph.Epoch, tc.committed)
			}
		})
	}
}

// TestCrashRecoveryWithCheckpoint reruns the scenario with a small
// checkpoint size, so recovery exercises checkpoint-load + replay of the
// post-checkpoint suffix, and cuts the post-checkpoint journal.
func TestCrashRecoveryWithCheckpoint(t *testing.T) {
	liveDir := t.TempDir()
	// Each sequential update is one record: 28 bytes for an add_node of a
	// two-letter label, 38 for an add_edge or remove_edge. A 120-byte
	// checkpoint is due at 122 bytes after batches 1-4 (94 after 1-3), and
	// at 142 after batches 5-8 (114 after 5-7): checkpoints after batches
	// 4 and 8, one journal record (seq 9) left for replay.
	server.SetCheckpointBytes(t, 120)
	cfg := server.Config{DataDir: liveDir}
	svc, err := server.NewMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.AddNamespaceSpec(mustSpec(t, durName, durSpec)); err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, svc)
	c := client.New(ts.URL).Namespace(durName)
	models := applyDurMutations(t, c)
	final := len(durMutations())
	// Quiesce BEFORE reading any checkpoint state: the dispatcher runs its
	// checkpoint cadence asynchronously after acking a batch, so live
	// /stats may race the final checkpoint (Close waits the dispatcher
	// out, making the on-disk state final).
	ts.Close()
	svc.Close()

	raw, err := os.ReadFile(filepath.Join(liveDir, "ns", durName, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	recs, rep, err := journal.Scan(strings.NewReader(string(raw)))
	if err != nil || rep.Torn {
		t.Fatalf("journal scan: rep=%+v err=%v", rep, err)
	}
	// The checkpoint's covered sequence is whatever precedes the first
	// surviving journal record; sequential updates journal one batch each,
	// so with checkpoints after batches 4 and 8 exactly seq 9 must remain.
	if len(recs) != 1 {
		t.Fatalf("post-checkpoint journal holds %d records, want 1 (checkpoints after 4 and 8 of %d sequential batches)", len(recs), final)
	}
	ckptSeq := int(recs[0].Seq) - 1
	if ckptSeq != 8 {
		t.Fatalf("checkpoint covers seq %d, want 8", ckptSeq)
	}

	patterns := durPatterns()
	// Cut the suffix journal at each boundary; committed state is the
	// checkpoint plus k replayed records.
	bounds := []int64{0}
	off := int64(0)
	for _, r := range recs {
		off += 16 + int64(len(r.Body))
		bounds = append(bounds, off)
	}
	for k := 0; k <= len(recs); k++ {
		at := bounds[k]
		crashDir := t.TempDir()
		copyTree(t, liveDir, crashDir)
		if err := os.WriteFile(filepath.Join(crashDir, "ns", durName, "journal.wal"), raw[:at], 0o644); err != nil {
			t.Fatal(err)
		}
		svc2, _, c2 := bootPersisted(t, server.Config{DataDir: crashDir})
		gModel := models[ckptSeq+k].build()
		for pat, q := range patterns {
			requireSetEqual(t, fmt.Sprintf("ckpt cut %d, pattern %s", at, pat),
				serverSet(t, c2, pat), oracleSet(gModel, q))
		}
		st2, err := c2.Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st2.Graph.Epoch != uint64(ckptSeq+k) {
			t.Fatalf("ckpt cut %d: epoch %d, want %d", at, st2.Graph.Epoch, ckptSeq+k)
		}
		svc2.Close()
	}
}

// TestDurabilityAcrossRestart is the plain (non-crash) lifecycle: create,
// mutate, clean shutdown, reboot → everything still there; drop durably →
// a further reboot no longer has the namespace.
func TestDurabilityAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{DataDir: dir}
	svc, err := server.NewMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.AddNamespaceSpec(mustSpec(t, durName, durSpec)); err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, svc)
	c := client.New(ts.URL).Namespace(durName)
	ctx := context.Background()
	for _, u := range []server.UpdateRequest{
		{Op: server.OpAddNode, Label: "qa"},
		{Op: server.OpAddNode, Label: "qb"},
		{Op: server.OpAddEdge, U: 32, V: 33},
	} {
		if _, err := c.Update(ctx, u); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Journal == nil || st.Journal.Records != 3 || st.Journal.Fsyncs == 0 {
		t.Fatalf("live journal stats = %+v, want 3 records with fsyncs", st.Journal)
	}
	ts.Close()
	svc.Close()

	svc2, _, c2 := bootPersisted(t, cfg)
	if got := svc2.Namespaces(); len(got) != 1 || got[0] != durName {
		t.Fatalf("recovered namespaces %v, want [%s]", got, durName)
	}
	set := serverSet(t, c2, "(a:qa)-(b:qb)")
	if len(set) != 1 || !set["32,33"] {
		t.Fatalf("recovered match set %v, want exactly [32,33]", set)
	}
	st2, err := c2.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st2.Journal.ReplayedRecords != 3 || st2.Journal.ReplayedMutations != 3 {
		t.Fatalf("recovery replayed %+v, want 3 records / 3 mutations", st2.Journal)
	}
	// Durable drop: the manifest forgets it and the reboot stays clean.
	if ok, err := svc2.DropNamespace(durName); !ok || err != nil {
		t.Fatalf("drop failed: ok=%v err=%v", ok, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "ns", durName)); !os.IsNotExist(err) {
		t.Fatalf("namespace dir survived the drop: err=%v", err)
	}
	svc2.Close()

	svc3, err := server.NewMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc3.Close()
	if got := svc3.Namespaces(); len(got) != 0 {
		t.Fatalf("dropped namespace resurrected after reboot: %v", got)
	}
}

// TestBootSpecResumesPersistedNamespace: re-stating the persisted spec on
// the boot command line is a no-op (the recovered state wins), while a
// contradicting spec is refused instead of silently shadowing the data.
func TestBootSpecResumesPersistedNamespace(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{DataDir: dir}
	svc, err := server.NewMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.AddNamespaceSpec(mustSpec(t, durName, durSpec)); err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, svc)
	c := client.New(ts.URL).Namespace(durName)
	if _, err := c.Update(context.Background(), server.UpdateRequest{Op: server.OpAddNode, Label: "mark"}); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	svc.Close()

	svc2, _, c2 := bootPersisted(t, cfg)
	defer svc2.Close()
	// The boot flag re-states the same spec: must keep the recovered state
	// (including the "mark" vertex), not rebuild from scratch.
	if err := svc2.AddNamespaceSpec(mustSpec(t, durName, durSpec)); err != nil {
		t.Fatalf("re-stating the persisted spec: %v", err)
	}
	st, err := c2.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Updates.NodesAdded != 1 {
		t.Fatalf("recovered namespace lost its replayed mutation: %+v", st.Updates)
	}
	// A contradicting spec is an error, not a silent rebuild.
	err = svc2.AddNamespaceSpec(mustSpec(t, durName, "rmat:scale=6,degree=3,labels=2,seed=41,machines=2"))
	if err == nil || !strings.Contains(err.Error(), "contradicts") {
		t.Fatalf("contradicting boot spec: err=%v, want a contradiction error", err)
	}
}

// TestBootFromManifestWithRetiredSpecKey: a data dir whose manifest an
// earlier build wrote with every retired key in the spec (parallelism=2,
// plancache=-1, semijoincap=-1) boots, serves, accepts the same spec
// re-stated on the boot command line, and is upgraded to the canonical text.
func TestBootFromManifestWithRetiredSpecKey(t *testing.T) {
	dir := t.TempDir()
	const old = "rmat:scale=6,degree=8,labels=2,seed=1,machines=8,plancache=-1,parallelism=2,semijoincap=-1"
	manifest := filepath.Join(dir, "manifest.json")
	if err := os.WriteFile(manifest, []byte(`{"version":1,"namespaces":{"`+durName+`":"`+old+`"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	svc, _, c := bootPersisted(t, server.Config{DataDir: dir})
	defer svc.Close()
	if got := svc.Namespaces(); len(got) != 1 || got[0] != durName {
		t.Fatalf("recovered namespaces %v, want [%s]", got, durName)
	}
	if set := serverSet(t, c, "(a:L0)-(b:L1)"); len(set) == 0 {
		t.Fatal("the recovered namespace answered (a:L0)-(b:L1) with no match")
	}
	if err := svc.AddNamespaceSpec(mustSpec(t, durName, old)); err != nil {
		t.Fatalf("re-stating the persisted spec: %v", err)
	}
	raw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"rmat:scale=6,degree=8,labels=2,seed=1,machines=8"`) {
		t.Fatalf("manifest after the boot: %s", raw)
	}
}

// TestServerCloseDrainThenClose is the satellite ordering test:
// Server.Close racing live updates, namespace drops, and namespace creates
// must drain every dispatcher, answer every in-flight update terminally,
// refuse creates that lose the race (instead of leaking their dispatcher
// goroutine — the bug the sealed registry fixes), and leave no goroutines
// behind.
func TestServerCloseDrainThenClose(t *testing.T) {
	dir := t.TempDir()
	svc, err := server.NewMulti(server.Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.AddNamespaceSpec(mustSpec(t, durName, durSpec)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc)
	defer ts.Close()
	root := client.New(ts.URL, client.WithRetry(0, 0))
	c := root.Namespace(durName)
	baseline := liveGoroutines() + 8

	const updaters = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Hammer updates: every call must end terminally — success or a clean
	// shutdown refusal. Anything else (hang, panic, "busy" after close) is
	// the race.
	for g := 0; g < updaters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, err := c.Update(context.Background(), server.UpdateRequest{
					Op: server.OpAddNode, Label: fmt.Sprintf("u%d", g),
				})
				if err != nil {
					se, ok := err.(*client.StatusError)
					if !ok || se.StatusCode != 503 {
						t.Errorf("updater %d iteration %d: %v", g, i, err)
					}
					return
				}
			}
		}(g)
	}
	// Churn creates against the closing server: losers must get a clean
	// refusal and must not leave a dispatcher behind.
	creates := make(chan error, 8)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			creates <- svc.AddNamespaceSpec(mustSpec(t, fmt.Sprintf("churn%d", i), "rmat:scale=4,degree=3,labels=2,seed=1,machines=1"))
		}
	}()

	time.Sleep(20 * time.Millisecond) // let the races overlap
	svc.Close()
	close(stop)
	wg.Wait()
	for i := 0; i < 8; i++ {
		if err := <-creates; err != nil && !strings.Contains(err.Error(), "server closed") {
			t.Fatalf("create during close: %v (want success or ErrServerClosed)", err)
		}
	}
	// A create strictly after Close is refused deterministically.
	err = svc.AddNamespaceSpec(mustSpec(t, "late", "rmat:scale=4,degree=3,labels=2,seed=1,machines=1"))
	if err == nil || !strings.Contains(err.Error(), "server closed") {
		t.Fatalf("create after Close: err=%v, want ErrServerClosed", err)
	}
	ts.Close()
	waitGoroutines(t, baseline, 10*time.Second)

	// Whatever was acknowledged before the close is on disk: reboot and
	// compare node counts against the journal's applied ledger.
	svc2, _, c2 := bootPersisted(t, server.Config{DataDir: dir})
	defer svc2.Close()
	st, err := c2.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Journal == nil || st.Journal.ReplayedMutations != st.Updates.NodesAdded {
		t.Fatalf("reboot after close-race: journal=%+v updates=%+v", st.Journal, st.Updates)
	}
}

// TestDataDirSingleOwner: the data dir is flock'd for the server's
// lifetime — a second server (an overlapping restart, a double-started
// supervisor) must fail fast instead of interleaving journal appends with
// the live owner; after Close the lock is released and a successor boots.
func TestDataDirSingleOwner(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{DataDir: dir}
	svc, err := server.NewMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.NewMulti(cfg); err == nil || !strings.Contains(err.Error(), "locked") {
		t.Fatalf("second owner of a live data dir: err=%v, want a lock refusal", err)
	}
	svc.Close()
	svc2, err := server.NewMulti(cfg)
	if err != nil {
		t.Fatalf("boot after the owner closed: %v", err)
	}
	svc2.Close()
}

// TestPersistedSpecMustRoundTrip: a spec the manifest grammar cannot carry
// (a path with a comma reaches addNamespaceSpec only via the -graph flag,
// which bypasses the parser) is refused at create time — recording it
// would leave a data dir the daemon could never recover from.
func TestPersistedSpecMustRoundTrip(t *testing.T) {
	dir := t.TempDir()
	svc, err := server.NewMulti(server.Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	err = svc.AddNamespaceSpec(server.NamespaceSpec{
		Name: "comma", Source: "file", Path: "/data/my,graph.bin", Machines: 8,
	})
	if err == nil || !strings.Contains(err.Error(), "round-trip") {
		t.Fatalf("comma path under persistence: err=%v, want a round-trip refusal", err)
	}
	// Without a data dir the same spec stays acceptable (nothing is
	// recorded, so nothing can fail to re-parse); only the open fails.
	svc2, err := server.NewMulti(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	err = svc2.AddNamespaceSpec(server.NamespaceSpec{
		Name: "comma", Source: "file", Path: "/data/my,graph.bin", Machines: 8,
	})
	if err == nil || strings.Contains(err.Error(), "round-trip") {
		t.Fatalf("comma path without persistence: err=%v, want a plain open failure", err)
	}
}

// TestBootGraphFlagSpecPersists is the -graph/-text regression: bootSpecs
// builds file/text specs WITHOUT the parser's rmat defaults (degree=8,
// labels=16, seed=1), and the durable-create round-trip guard must accept
// them — only fields SpecString records need to survive the trip. The
// persisted tenant must then recover across a reboot.
func TestBootGraphFlagSpecPersists(t *testing.T) {
	gpath := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(gpath, []byte("v 0 qa\nv 1 qb\nv 2 qa\ne 0 1\ne 1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := server.Config{DataDir: dir}
	svc, err := server.NewMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Shape the spec exactly like cmd/stwigd's bootSpecs does for
	// `-graph FILE -text`: no rmat fields seeded.
	if err := svc.AddNamespaceSpec(server.NamespaceSpec{
		Name: server.DefaultNamespace, Source: "text", Path: gpath, Machines: 2,
	}); err != nil {
		t.Fatalf("boot-shaped text spec under persistence: %v", err)
	}
	ts := newHTTPServer(t, svc)
	c := client.New(ts.URL)
	if _, err := c.Update(context.Background(), server.UpdateRequest{Op: server.OpAddEdge, U: 0, V: 2}); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	svc.Close()

	svc2, err := server.NewMulti(cfg)
	if err != nil {
		t.Fatalf("reboot from the recorded -graph spec: %v", err)
	}
	ts2 := newHTTPServer(t, svc2)
	set := serverSet(t, client.New(ts2.URL), "(a:qa)-(b:qa)")
	if len(set) != 2 || !set["0,2"] || !set["2,0"] {
		t.Fatalf("recovered match set %v, want the journaled qa-qa edge both ways", set)
	}
}

// mustSpec parses a namespace spec or fails the test.
func mustSpec(t *testing.T, name, spec string) server.NamespaceSpec {
	t.Helper()
	s, err := server.ParseNamespaceSpec(name, spec)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFileNamespaceCheckpointsAtFirstUpdate pins the rule for a namespace
// built from a graph file: its first journaled update is followed by a
// checkpoint (an rmat namespace waits for a checkpoint's worth of journal),
// so its history never depends on the file again — a restart with the file
// deleted recovers the checkpoint plus the journal after it.
func TestFileNamespaceCheckpointsAtFirstUpdate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteBinary(f, durBase(t)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	cfg := server.Config{DataDir: t.TempDir()}
	svc, err := server.NewMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.AddNamespaceSpec(mustSpec(t, durName, "file:"+path+",machines=2")); err != nil {
		t.Fatal(err)
	}
	c := client.New(newHTTPServer(t, svc).URL).Namespace(durName)
	journalOf := func(c *client.Client) *server.JournalInfo {
		t.Helper()
		st, err := c.Stats(context.Background())
		if err != nil || st.Journal == nil {
			t.Fatalf("stats: %+v, err %v", st, err)
		}
		return st.Journal
	}
	if j := journalOf(c); j.Checkpoints != 0 {
		t.Fatalf("%d checkpoints before any update", j.Checkpoints)
	}
	model := oracleOf(durBase(t))
	for i, u := range durMutations() {
		if _, err := c.Update(context.Background(), u); err != nil {
			t.Fatalf("mutation %d: %v", i, err)
		}
		model.apply(u)
		// The dispatcher checkpoints after it has answered the window.
		j := journalOf(c)
		for deadline := time.Now().Add(10 * time.Second); j.Checkpoints == 0 && time.Now().Before(deadline); j = journalOf(c) {
			time.Sleep(time.Millisecond)
		}
		if j.Checkpoints != 1 || j.CheckpointSeq != 1 {
			t.Fatalf("after update %d: %d checkpoints, the last at seq %d; want one, at seq 1", i+1, j.Checkpoints, j.CheckpointSeq)
		}
	}
	svc.Close()
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}

	_, _, c2 := bootPersisted(t, cfg)
	if j := journalOf(c2); j.CheckpointSeq != 1 || j.ReplayedRecords != uint64(len(durMutations())-1) {
		t.Fatalf("recovered journal = %+v, want checkpoint seq 1 and %d replayed records", j, len(durMutations())-1)
	}
	og := model.build()
	for pattern, q := range durPatterns() {
		requireSetEqual(t, "recovered "+pattern, serverSet(t, c2, pattern), oracleSet(og, q))
	}
}
