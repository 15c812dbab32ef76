// Shared-fsync durability tests: the crash suite over a block-aligned
// journal of multi-mutation records cut at EVERY byte offset, and the
// shared-fsync contract — concurrent writers must ack behind fewer fsyncs
// than acked mutations, with every ack sitting behind its covering fsync.
package server_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"stwig/internal/journal"
	"stwig/internal/memcloud"
	"stwig/internal/server"
	"stwig/internal/server/client"
)

// applyDecodedMut replays one journaled mutation onto the oracle model,
// mirroring what ApplyBatch will do on recovery. Only mutations the test
// script guarantees to succeed may reach this (a conflicted mutation is
// journaled but not applied, so it would diverge the oracle).
func applyDecodedMut(m *oracleModel, mut memcloud.Mutation) {
	switch mut.Op {
	case memcloud.MutAddNode:
		m.apply(server.UpdateRequest{Op: server.OpAddNode, Label: mut.Label})
	case memcloud.MutAddEdge:
		m.apply(server.UpdateRequest{Op: server.OpAddEdge, U: int64(mut.U), V: int64(mut.V)})
	case memcloud.MutRemoveEdge:
		m.apply(server.UpdateRequest{Op: server.OpRemoveEdge, U: int64(mut.U), V: int64(mut.V)})
	}
}

// TestGroupCommitCrashRecoveryEveryByte is the shared-window acceptance
// crash suite. A server taking bulk updates and concurrent singles under
// block alignment journals multi-mutation records and leaves zero padding
// past the committed prefix — the exact file a SIGKILL mid-window leaves
// behind. The live (padded, un-trimmed) journal is snapshotted and cut at
// EVERY byte offset; each cut is rebooted and must serve exactly the match
// sets of the cut's committed record prefix, bit-for-bit equal to the VF2
// oracle built by replaying the decoded records. No torn record or padding
// byte may surface as state; no committed record may vanish.
func TestGroupCommitCrashRecoveryEveryByte(t *testing.T) {
	liveDir := t.TempDir()
	server.SetCheckpointBytes(t, server.NoCheckpoints)
	cfg := server.Config{
		DataDir:      liveDir,
		JournalAlign: 512, // keep the padded file (and the cut count) small
	}
	svc, err := server.NewMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if err := svc.AddNamespaceSpec(mustSpec(t, durName, durSpec)); err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, svc)
	c := client.New(ts.URL).Namespace(durName)
	ctx := context.Background()

	// Deterministic bulk phases (multi-mutation records), then concurrent
	// singles riding shared windows. Every mutation is chosen to succeed,
	// so the journal's decoded records replay cleanly onto the oracle.
	bulk1 := []server.UpdateRequest{
		{Op: server.OpAddNode, Label: "qa"},  // id 32
		{Op: server.OpAddNode, Label: "qb"},  // id 33
		{Op: server.OpAddEdge, U: 32, V: 33}, // qa-qb
		{Op: server.OpAddEdge, U: 0, V: 32},  // stitch into the base graph
	}
	resp, err := c.BulkUpdate(ctx, bulk1)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Conflicts != 0 || len(resp.Results) != len(bulk1) {
		t.Fatalf("bulk1 response: %+v", resp)
	}
	if resp.Results[0].NodeID != 32 || resp.Results[1].NodeID != 33 {
		t.Fatalf("bulk1 node IDs: %+v", resp.Results)
	}
	if _, err := c.Update(ctx, server.UpdateRequest{Op: server.OpAddEdge, U: 1, V: 32}); err != nil {
		t.Fatal(err)
	}
	bulk2 := []server.UpdateRequest{
		{Op: server.OpRemoveEdge, U: 32, V: 33},
		{Op: server.OpAddNode, Label: "qa"},  // id 34
		{Op: server.OpAddEdge, U: 33, V: 34}, // qb-qa
	}
	if resp, err = c.BulkUpdate(ctx, bulk2); err != nil || resp.Conflicts != 0 {
		t.Fatalf("bulk2: resp=%+v err=%v", resp, err)
	}
	// Concurrent singles: distinct fresh labels, safe in any order.
	var wg sync.WaitGroup
	errs := make([]error, 6)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Update(ctx, server.UpdateRequest{Op: server.OpAddNode, Label: fmt.Sprintf("qc%d", i)})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent update %d: %v", i, err)
		}
	}

	// Snapshot the LIVE journal: every ack above sits behind its covering
	// fsync, so all records are on disk — plus the alignment padding a
	// crash would leave (Close would trim it; a SIGKILL does not).
	walPath := filepath.Join(liveDir, "ns", durName, "journal.wal")
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(raw))%512 != 0 {
		t.Fatalf("live journal is %d bytes, want a multiple of the 512-byte alignment", len(raw))
	}
	recs, rep, err := journal.Scan(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	totalMuts := 0
	for _, r := range recs {
		muts, err := journal.DecodeBatch(r.Body)
		if err != nil {
			t.Fatalf("record seq %d does not decode: %v", r.Seq, err)
		}
		totalMuts += len(muts)
	}
	if totalMuts != len(bulk1)+len(bulk2)+1+len(errs) {
		t.Fatalf("journal carries %d mutations, want %d", totalMuts, len(bulk1)+len(bulk2)+1+len(errs))
	}
	if len(recs) >= totalMuts {
		t.Fatalf("journal holds %d records for %d mutations — nothing was group-committed", len(recs), totalMuts)
	}
	if rep.Committed == int64(len(raw)) {
		t.Log("frames end exactly at an alignment boundary; no padding to exercise")
	}

	// Oracle per committed-record count, built by replaying decoded records.
	patterns := durPatterns()
	type expect struct {
		sets  map[string]map[string]bool
		nodes int64
	}
	model := oracleOf(durBase(t))
	expects := make([]expect, len(recs)+1)
	snap := func() expect {
		g := model.build()
		e := expect{sets: map[string]map[string]bool{}, nodes: g.NumNodes()}
		for pat, q := range patterns {
			e.sets[pat] = oracleSet(g, q)
		}
		return e
	}
	expects[0] = snap()
	for i, r := range recs {
		muts, _ := journal.DecodeBatch(r.Body)
		for _, mut := range muts {
			applyDecodedMut(model, mut)
		}
		expects[i+1] = snap()
	}

	for cut := 0; cut <= len(raw); cut++ {
		cutRecs, cutRep, err := journal.Scan(bytes.NewReader(raw[:cut]))
		if err != nil {
			t.Fatal(err)
		}
		k := len(cutRecs)
		crashDir := t.TempDir()
		copyTree(t, liveDir, crashDir)
		if err := os.WriteFile(filepath.Join(crashDir, "ns", durName, "journal.wal"), raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		svc2, ts2, c2 := bootPersisted(t, server.Config{DataDir: crashDir})

		for pat := range patterns {
			requireSetEqual(t, fmt.Sprintf("cut %d, pattern %s", cut, pat),
				serverSet(t, c2, pat), expects[k].sets[pat])
		}
		st, err := c2.Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st.Graph.Nodes != expects[k].nodes {
			t.Fatalf("cut %d: recovered %d nodes, committed prefix has %d", cut, st.Graph.Nodes, expects[k].nodes)
		}
		if st.Journal == nil || st.Journal.ReplayedRecords != uint64(k) {
			t.Fatalf("cut %d: journal stats %+v, want %d replayed records", cut, st.Journal, k)
		}
		if wantTorn := int64(cut) != cutRep.Committed; st.Journal.TornTailRecovered != wantTorn {
			t.Fatalf("cut %d: torn_tail_recovered=%v, want %v", cut, st.Journal.TornTailRecovered, wantTorn)
		}
		ts2.Close()
		svc2.Close()
	}
}

// TestGroupCommitSharedFsync pins the perf contract the writer window
// exists for: concurrent writers must complete behind FEWER fsyncs than acked
// mutations, and every acked mutation must already be in the journal's
// committed (scannable) prefix at ack time — observed here by scanning the
// live journal after the acks and before any shutdown flush could repair
// an unsynced tail.
func TestGroupCommitSharedFsync(t *testing.T) {
	dir := t.TempDir()
	server.SetCheckpointBytes(t, server.NoCheckpoints)
	cfg := server.Config{DataDir: dir}
	svc, err := server.NewMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if err := svc.AddNamespaceSpec(mustSpec(t, durName, durSpec)); err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, svc)
	c := client.New(ts.URL).Namespace(durName)
	ctx := context.Background()

	// 8 writers × 4 singles, plus one 16-mutation bulk: 48 acked mutations.
	// Even if every single lands in its own window, the bulk alone
	// guarantees fsyncs < acked mutations; singles that queue behind a
	// window in flight share the next one too.
	const writers, perWriter, bulkN = 8, 4, 16
	labels := make(map[string]bool)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				l := fmt.Sprintf("w%d-%d", w, i)
				if _, err := c.Update(ctx, server.UpdateRequest{Op: server.OpAddNode, Label: l}); err != nil {
					t.Errorf("writer %d update %d: %v", w, i, err)
					return
				}
				mu.Lock()
				labels[l] = true
				mu.Unlock()
			}
		}(w)
	}
	bulk := make([]server.UpdateRequest, bulkN)
	for i := range bulk {
		bulk[i] = server.UpdateRequest{Op: server.OpAddNode, Label: fmt.Sprintf("bulk-%d", i)}
	}
	resp, err := c.BulkUpdate(ctx, bulk)
	if err != nil || resp.Conflicts != 0 {
		t.Fatalf("bulk: resp=%+v err=%v", resp, err)
	}
	mu.Lock()
	for i := range bulk {
		labels[bulk[i].Label] = true
	}
	mu.Unlock()
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	acked := uint64(writers*perWriter + bulkN)
	if st.UpdateQueue.Applied != acked {
		t.Fatalf("applied %d mutations, want %d", st.UpdateQueue.Applied, acked)
	}
	if st.Journal == nil {
		t.Fatal("no journal stats on a persisted namespace")
	}
	if st.Journal.Fsyncs >= acked {
		t.Fatalf("%d fsyncs for %d acked mutations — group commit shared nothing", st.Journal.Fsyncs, acked)
	}
	if st.Journal.Fsyncs == 0 {
		t.Fatal("zero fsyncs with fsync enabled")
	}
	if st.UpdateQueue.JournalFailures != 0 {
		t.Fatalf("journal_failures = %d, want 0", st.UpdateQueue.JournalFailures)
	}

	// Ack-after-covering-fsync: every acked label must already sit in the
	// committed prefix of the LIVE journal file.
	raw, err := os.ReadFile(filepath.Join(dir, "ns", durName, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := journal.Scan(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	journaled := make(map[string]bool)
	for _, r := range recs {
		muts, err := journal.DecodeBatch(r.Body)
		if err != nil {
			t.Fatalf("record seq %d does not decode: %v", r.Seq, err)
		}
		for _, mut := range muts {
			if mut.Op == memcloud.MutAddNode {
				journaled[mut.Label] = true
			}
		}
	}
	for l := range labels {
		if !journaled[l] {
			t.Fatalf("acked mutation %q not in the journal's committed prefix", l)
		}
	}
	// Framed-bytes accounting: JournalInfo.Bytes counts body + overhead,
	// which is exactly the committed prefix length.
	var wantBytes uint64
	for _, r := range recs {
		wantBytes += uint64(len(r.Body)) + journal.FrameOverhead
	}
	if st.Journal.Bytes != wantBytes {
		t.Fatalf("journal bytes %d, want framed total %d", st.Journal.Bytes, wantBytes)
	}
}
