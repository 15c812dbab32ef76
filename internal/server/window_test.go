// Writer-window tests: the write path has one batching level — everything
// queued when the window opens is one journal record behind one fsync,
// applied once in queue order — so a request's outcome cannot depend on
// which window it lands in, and the journal alone reproduces the graph.
package server_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"stwig/internal/graph"
	"stwig/internal/journal"
	"stwig/internal/memcloud"
	"stwig/internal/server"
	"stwig/internal/server/client"
)

// bootDur boots a persisted server holding the durSpec tenant.
func bootDur(t *testing.T, cfg server.Config) (*server.Server, *client.Client) {
	t.Helper()
	svc, err := server.NewMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	if err := svc.AddNamespaceSpec(mustSpec(t, durName, durSpec)); err != nil {
		t.Fatal(err)
	}
	return svc, client.New(newHTTPServer(t, svc).URL, client.WithRetry(0, 0)).Namespace(durName)
}

// scanJournal decodes every committed record of the tenant's live journal.
func scanJournal(t *testing.T, dataDir, ns string) [][]memcloud.Mutation {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dataDir, "ns", ns, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := journal.Scan(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]memcloud.Mutation, len(recs))
	for i, r := range recs {
		if out[i], err = journal.DecodeBatch(r.Body); err != nil {
			t.Fatalf("record seq %d does not decode: %v", r.Seq, err)
		}
	}
	return out
}

func mustStats(t *testing.T, c *client.Client) *server.StatsResponse {
	t.Helper()
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestWindowAppliesSequentially pins the semantics inside one window: an
// add_edge and a remove_edge of the same edge are journaled and applied in
// order like everything else. Over a pre-existing edge the add conflicts
// and the remove succeeds — the edge is gone, live and after a reboot —
// exactly what two separate requests report; over a fresh edge both
// succeed and the epoch moves twice.
func TestWindowAppliesSequentially(t *testing.T) {
	dir := t.TempDir()
	server.SetCheckpointBytes(t, server.NoCheckpoints)
	svc, c := bootDur(t, server.Config{DataDir: dir})
	ctx := context.Background()
	base := durBase(t)
	model := oracleOf(base)

	// A pre-existing L0-L1 edge (so "(a:L0)-(b:L1)" sees it go) and a pair
	// of vertices with no edge between them.
	var eu, ev, fu, fv int64 = -1, -1, -1, -1
	for u := int64(0); u < base.NumNodes() && (eu < 0 || fu < 0); u++ {
		for v := u + 1; v < base.NumNodes(); v++ {
			lu, lv := base.LabelString(graph.NodeID(u)), base.LabelString(graph.NodeID(v))
			switch has := base.HasEdge(graph.NodeID(u), graph.NodeID(v)); {
			case has && eu < 0 && lu != lv:
				eu, ev = u, v
			case !has && fu < 0 && lu != lv:
				fu, fv = u, v
			}
		}
	}
	if eu < 0 || fu < 0 {
		t.Fatal("base graph has no usable edge / non-edge")
	}

	pair := func(u, v int64) []server.UpdateRequest {
		return []server.UpdateRequest{{Op: server.OpAddEdge, U: u, V: v}, {Op: server.OpRemoveEdge, U: v, V: u}}
	}
	resp, err := c.BulkUpdate(ctx, pair(eu, ev))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Conflicts != 1 || resp.Results[0].Code != server.CodeConflict || resp.Results[1].Error != "" {
		t.Fatalf("pair over existing edge (%d,%d): %+v, want a conflict on the add and a clean remove", eu, ev, resp)
	}
	model.apply(server.UpdateRequest{Op: server.OpRemoveEdge, U: eu, V: ev})

	before := mustStats(t, c).Graph.Epoch
	resp, err = c.BulkUpdate(ctx, pair(fu, fv))
	if err != nil || resp.Conflicts != 0 {
		t.Fatalf("pair over fresh edge (%d,%d): resp=%+v err=%v", fu, fv, resp, err)
	}
	if st := mustStats(t, c); st.Graph.Epoch != before+2 || resp.Epoch != before+2 {
		t.Fatalf("fresh pair moved the epoch %d → %d (response %d), want two bumps", before, st.Graph.Epoch, resp.Epoch)
	}

	recs := scanJournal(t, dir, durName)
	if len(recs) != 2 || len(recs[0]) != 2 || len(recs[1]) != 2 ||
		recs[0][0].Op != memcloud.MutAddEdge || recs[0][1].Op != memcloud.MutRemoveEdge {
		t.Fatalf("journal holds %v, want both mutations of both pairs", recs)
	}
	if st := mustStats(t, c); st.UpdateQueue.Applied != 3 || st.UpdateQueue.Conflicts != 1 {
		t.Fatalf("queue stats %+v, want 3 applied and 1 conflict", st.UpdateQueue)
	}

	want := map[string]map[string]bool{}
	for pat, q := range durPatterns() {
		want[pat] = oracleSet(model.build(), q)
		requireSetEqual(t, "live, pattern "+pat, serverSet(t, c, pat), want[pat])
	}
	svc.Close()
	svc2, ts2, c2 := bootPersisted(t, server.Config{DataDir: dir})
	defer svc2.Close()
	defer ts2.Close()
	for pat := range want {
		requireSetEqual(t, "rebooted, pattern "+pat, serverSet(t, c2, pat), want[pat])
	}
}

// TestQueuedUpdatesRideOneWindow pins what shares an fsync: with the reader
// gate held by a stalled stream, N single updates queue up; when the stream
// dies they are ONE window — one journal record of N mutations, one fsync,
// N acks in request order.
func TestQueuedUpdatesRideOneWindow(t *testing.T) {
	const n = 8
	dir := t.TempDir()
	server.SetCheckpointBytes(t, server.NoCheckpoints)
	svc, err := server.NewMulti(server.Config{DataDir: dir, UpdateLockWait: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	// Single-label and dense, so heavyPattern streams far more than the
	// socket buffers hold and its executor stays inside the reader gate.
	if err := svc.AddNamespaceSpec(mustSpec(t, "pin", "rmat:scale=11,degree=8,labels=1,seed=7,machines=4")); err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, svc)
	c := client.New(ts.URL, client.WithRetry(0, 0)).Namespace("pin")
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()

	cancel, typ := startStream(t, ts.URL+"/v1/ns/pin", &http.Client{Transport: tr})
	defer cancel()
	if typ != server.RecordMatch {
		t.Fatalf("first record %q, want a match", typ)
	}
	type ack struct {
		resp *server.UpdateResponse
		err  error
	}
	acks := make([]chan ack, n)
	for i := range acks {
		acks[i] = make(chan ack, 1)
		go func(i int) {
			r, err := c.Update(context.Background(), server.UpdateRequest{Op: server.OpAddNode, Label: fmt.Sprintf("w%d", i)})
			acks[i] <- ack{r, err}
		}(i)
		// One at a time, so request order is queue order. The dispatcher
		// holds the first while it parks on the gate; the rest stay queued.
		waitQueue(t, c, fmt.Sprintf("update %d enqueued", i), func(q server.UpdateQueueInfo) bool {
			return q.Enqueued == uint64(i+1) && q.Queued == i
		})
	}
	cancel()

	first := int64(1) << 11 // the first fresh vertex id on the scale-11 base
	for i, ch := range acks {
		a := <-ch
		if a.err != nil {
			t.Fatalf("update %d: %v", i, a.err)
		}
		if a.resp.NodeID != first+int64(i) || a.resp.Epoch != uint64(i+1) {
			t.Fatalf("update %d acked node %d at epoch %d, want node %d at epoch %d (request order)",
				i, a.resp.NodeID, a.resp.Epoch, first+int64(i), i+1)
		}
	}
	st := mustStats(t, c)
	if st.Journal == nil || st.Journal.Records != 1 || st.Journal.Fsyncs != 1 {
		t.Fatalf("journal %+v, want exactly one record behind one fsync", st.Journal)
	}
	if q := st.UpdateQueue; q.Applied != n || q.Batches != 1 || q.MaxBatch != n || q.Wait.Count != n {
		t.Fatalf("queue stats %+v, want %d updates applied in one window", q, n)
	}
	recs := scanJournal(t, dir, "pin")
	if len(recs) != 1 || len(recs[0]) != n {
		t.Fatalf("journal holds %d records, want one of %d mutations", len(recs), n)
	}
	for i, m := range recs[0] {
		if m.Op != memcloud.MutAddNode || m.Label != fmt.Sprintf("w%d", i) {
			t.Fatalf("journaled mutation %d is %+v, want add_node w%d", i, m, i)
		}
	}
}

// TestJournalReproducesConcurrentWrites is the write path's model test:
// seeded concurrent writers push singles and bulks (duplicate adds and
// removes of missing edges included, so some mutations conflict) through a
// persisted namespace. However the dispatcher grouped them into windows, the
// live graph, the source graph with the journal's records replayed onto it,
// and the oracle model applied in journal order must agree match for match
// under VF2 — at GOMAXPROCS 1 (writers interleave only at blocking points)
// and 4 (anywhere).
func TestJournalReproducesConcurrentWrites(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			journalReproducesConcurrentWrites(t, int64(procs))
		})
	}
}

func journalReproducesConcurrentWrites(t *testing.T, seed int64) {
	const writers, rounds = 6, 12
	dir := t.TempDir()
	server.SetCheckpointBytes(t, server.NoCheckpoints)
	_, c := bootDur(t, server.Config{DataDir: dir})
	ctx := context.Background()
	base := durBase(t)
	nBase := base.NumNodes()

	var wg sync.WaitGroup
	var sent, conflicts int64
	var mu sync.Mutex
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*100 + int64(w)))
			// Edges only ever name base vertices or a vertex this writer has
			// been acked, so every conflict is a duplicate add or a remove of
			// a missing edge — no-ops the oracle model reproduces as-is.
			own := []int64{}
			vertex := func() int64 {
				if len(own) > 0 && rng.Intn(3) == 0 {
					return own[rng.Intn(len(own))]
				}
				return rng.Int63n(nBase)
			}
			edge := func(op string) server.UpdateRequest {
				u, v := vertex(), vertex()
				for v == u {
					v = vertex()
				}
				return server.UpdateRequest{Op: op, U: u, V: v}
			}
			var nSent, nConf int64
			for r := 0; r < rounds; r++ {
				switch rng.Intn(4) {
				case 0: // a fresh vertex, stitched in later
					resp, err := c.Update(ctx, server.UpdateRequest{Op: server.OpAddNode, Label: []string{"qa", "qb"}[rng.Intn(2)]})
					if err != nil {
						t.Errorf("writer %d add_node: %v", w, err)
						return
					}
					own = append(own, resp.NodeID)
					nSent++
				case 1: // a single that may conflict (409 is an answer, not a failure)
					op := []string{server.OpAddEdge, server.OpRemoveEdge}[rng.Intn(2)]
					_, err := c.Update(ctx, edge(op))
					if isStatusErr(err, http.StatusConflict) {
						nConf++
					} else if err != nil {
						t.Errorf("writer %d %s: %v", w, op, err)
						return
					}
					nSent++
				default: // a bulk: adds, one of them again, its removal, a stray removal
					var bulk []server.UpdateRequest
					for k := 1 + rng.Intn(3); k > 0; k-- {
						bulk = append(bulk, edge(server.OpAddEdge))
					}
					undo := bulk[0]
					undo.Op = server.OpRemoveEdge
					bulk = append(bulk, bulk[0], undo, edge(server.OpRemoveEdge))
					resp, err := c.BulkUpdate(ctx, bulk)
					if err != nil || len(resp.Results) != len(bulk) {
						t.Errorf("writer %d bulk: resp=%+v err=%v", w, resp, err)
						return
					}
					nSent += int64(len(bulk))
					nConf += int64(resp.Conflicts)
				}
			}
			mu.Lock()
			sent, conflicts = sent+nSent, conflicts+nConf
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	st := mustStats(t, c)
	if st.Journal.Records != st.Journal.Fsyncs || st.Journal.Records == 0 {
		t.Fatalf("journal %+v: every record is one fsync", st.Journal)
	}
	if q := st.UpdateQueue; int64(q.Applied+q.Conflicts) != sent || int64(q.Conflicts) != conflicts || conflicts == 0 {
		t.Fatalf("queue stats %+v, clients saw %d mutations with %d conflicts (want some)", q, sent, conflicts)
	}

	// Replay the journal onto the source graph and onto the oracle model.
	replay := memcloud.MustNewCluster(memcloud.Config{Machines: 2})
	if err := replay.LoadGraph(base); err != nil {
		t.Fatal(err)
	}
	model := oracleOf(base)
	var journaled, replayConflicts int64
	recs := scanJournal(t, dir, durName)
	for _, muts := range recs {
		for _, r := range replay.ApplyBatch(muts) {
			if r.Err != nil {
				replayConflicts++
			}
		}
		for _, m := range muts {
			applyDecodedMut(model, m)
		}
		journaled += int64(len(muts))
	}
	if uint64(len(recs)) != st.Journal.Records || journaled != sent || replayConflicts != conflicts {
		t.Fatalf("journal: %d records / %d mutations / %d conflicts on replay; live: %d / %d / %d",
			len(recs), journaled, replayConflicts, st.Journal.Records, sent, conflicts)
	}
	var snap bytes.Buffer
	if err := replay.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	replayed, err := graph.ReadBinary(&snap)
	if err != nil {
		t.Fatal(err)
	}
	modelGraph := model.build()
	for pat, q := range durPatterns() {
		want := oracleSet(modelGraph, q)
		requireSetEqual(t, "journal replay, pattern "+pat, oracleSet(replayed, q), want)
		requireSetEqual(t, "live server, pattern "+pat, serverSet(t, c, pat), want)
	}
}
