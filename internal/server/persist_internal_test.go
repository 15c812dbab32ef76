// Internal persistence tests: these drive recoverEngine and nsStorage
// directly (they are not exported), pinning the recovery semantics the
// HTTP-level crash suite in persist_test.go builds on.
package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"stwig/internal/baseline"
	"stwig/internal/core"
	"stwig/internal/graph"
	"stwig/internal/journal"
	"stwig/internal/memcloud"
	"stwig/internal/rmat"
)

// persistModel mirrors the cluster's live graph in mutable form so the VF2
// oracle — which reads an immutable graph.Graph — can be rebuilt after
// every batch (same shape as the PR 4 cross-check model).
type persistModel struct {
	labels []string
	edges  map[[2]graph.NodeID]bool
}

func edgeKeyOf(u, v graph.NodeID) [2]graph.NodeID {
	if u > v {
		u, v = v, u
	}
	return [2]graph.NodeID{u, v}
}

func modelOf(g *graph.Graph) *persistModel {
	m := &persistModel{edges: make(map[[2]graph.NodeID]bool)}
	for v := int64(0); v < g.NumNodes(); v++ {
		id := graph.NodeID(v)
		m.labels = append(m.labels, g.LabelString(id))
		for _, u := range g.Neighbors(id) {
			if id < u {
				m.edges[edgeKeyOf(id, u)] = true
			}
		}
	}
	return m
}

func (m *persistModel) apply(mut memcloud.Mutation) {
	switch mut.Op {
	case memcloud.MutAddNode:
		m.labels = append(m.labels, mut.Label)
	case memcloud.MutAddEdge:
		m.edges[edgeKeyOf(mut.U, mut.V)] = true
	case memcloud.MutRemoveEdge:
		delete(m.edges, edgeKeyOf(mut.U, mut.V))
	}
}

func (m *persistModel) build() *graph.Graph {
	b := graph.NewBuilder(graph.Undirected())
	for _, l := range m.labels {
		b.AddNode(l)
	}
	for e := range m.edges {
		b.MustAddEdge(e[0], e[1])
	}
	return b.Build()
}

// legalBatch generates count mutations legal against the model's current
// state, folding each into the model as it goes (mirrors the PR 4
// cross-check generator, which lives in package core_test and cannot be
// imported from here).
func legalBatch(rng *rand.Rand, m *persistModel, count int) []memcloud.Mutation {
	var out []memcloud.Mutation
	for len(out) < count {
		var mut memcloud.Mutation
		switch r := rng.Intn(10); {
		case r < 2:
			mut = memcloud.Mutation{Op: memcloud.MutAddNode, Label: m.labels[rng.Intn(len(m.labels))]}
		case r < 6 || len(m.edges) == 0:
			u := graph.NodeID(rng.Intn(len(m.labels)))
			v := graph.NodeID(rng.Intn(len(m.labels)))
			if u == v || m.edges[edgeKeyOf(u, v)] {
				continue
			}
			mut = memcloud.Mutation{Op: memcloud.MutAddEdge, U: u, V: v}
		default:
			keys := make([][2]graph.NodeID, 0, len(m.edges))
			for e := range m.edges {
				keys = append(keys, e)
			}
			sort.Slice(keys, func(i, j int) bool {
				return keys[i][0] < keys[j][0] || (keys[i][0] == keys[j][0] && keys[i][1] < keys[j][1])
			})
			e := keys[rng.Intn(len(keys))]
			mut = memcloud.Mutation{Op: memcloud.MutRemoveEdge, U: e[0], V: e[1]}
		}
		m.apply(mut)
		out = append(out, mut)
	}
	return out
}

// connectedPattern builds a random connected 3–5 vertex query over labels.
func connectedPattern(rng *rand.Rand, labels []string) *core.Query {
	n := 3 + rng.Intn(3)
	qLabels := make([]string, n)
	for i := range qLabels {
		qLabels[i] = labels[rng.Intn(len(labels))]
	}
	var edges [][2]int
	for v := 1; v < n; v++ {
		edges = append(edges, [2]int{rng.Intn(v), v})
	}
	return core.MustNewQuery(qLabels, edges)
}

// matchSet canonicalizes an engine's result for set comparison.
func matchSet(t *testing.T, eng *core.Engine, q *core.Query, desc string) map[string]bool {
	t.Helper()
	res, err := eng.Match(q)
	if err != nil {
		t.Fatalf("%s: %v", desc, err)
	}
	return core.MatchSet(res.Matches)
}

func requireSameSets(t *testing.T, got, want map[string]bool, desc string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d", desc, len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("%s: missing match %s", desc, k)
		}
	}
}

// TestReplayEqualsDirectApply is the restore+replay property suite: for
// seeded graph/batch combos, a namespace recovered from checkpoint +
// journal must serve exactly the match sets a cluster that applied the
// same batches directly serves — and both must agree with the VF2 oracle
// on the model graph.
func TestReplayEqualsDirectApply(t *testing.T) {
	cfg := Config{}.normalize()
	const (
		seeds            = 6
		batchesPerSeed   = 5
		mutationsPer     = 8
		patternsPerCheck = 2
	)
	combos := 0
	for seed := int64(0); seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			spec := NamespaceSpec{
				Name:     "prop",
				Source:   "rmat",
				Scale:    5,
				Degree:   3 + int(seed%3),
				Labels:   3,
				Seed:     seed + 2000,
				Machines: 1 + int(seed%4),
			}
			// Direct side: the spec's graph, batches applied straight in.
			direct, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			// Persisted side: the same build, plus journal + checkpoints —
			// the live server a crash will take down.
			dir := t.TempDir()
			live, st, err := recoverEngine(spec, dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Checkpoint mid-history on some seeds so recovery exercises
			// checkpoint-load + partial replay, not just full replay.
			ckptAfter := -1
			if seed%2 == 0 {
				ckptAfter = batchesPerSeed / 2
			}

			model := modelOf(rmat.MustGenerate(rmat.Params{
				Scale: spec.Scale, AvgDegree: spec.Degree, NumLabels: spec.Labels, Seed: spec.Seed,
			}))
			for b := 0; b < batchesPerSeed; b++ {
				muts := legalBatch(rng, model, mutationsPer)
				for i, r := range direct.Cluster().ApplyBatch(muts) {
					if r.Err != nil {
						t.Fatalf("direct batch %d mutation %d: %v", b, i, r.Err)
					}
				}
				// WAL order on the persisted side: journal, then apply.
				if _, err := st.appendBatch(muts); err != nil {
					t.Fatal(err)
				}
				live.Cluster().ApplyBatch(muts)
				if b == ckptAfter {
					if err := st.checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
			}
			st.close() // "crash": the live engine is abandoned

			rec, recSt, err := recoverEngine(spec, dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer recSt.close()
			wantReplayed := uint64(batchesPerSeed)
			if ckptAfter >= 0 {
				wantReplayed = uint64(batchesPerSeed - ckptAfter - 1)
			}
			info := recSt.journalStats()
			if info.ReplayedRecords != wantReplayed {
				t.Fatalf("replayed %d records, want %d", info.ReplayedRecords, wantReplayed)
			}
			if got, want := rec.Cluster().Epoch(), direct.Cluster().Epoch(); got != want {
				t.Fatalf("recovered epoch %d, direct epoch %d", got, want)
			}
			if got, want := rec.Cluster().NumNodes(), direct.Cluster().NumNodes(); got != want {
				t.Fatalf("recovered %d nodes, direct has %d", got, want)
			}

			gModel := model.build()
			labels := []string{rmat.LabelName(0), rmat.LabelName(1), rmat.LabelName(2)}
			for qi := 0; qi < patternsPerCheck; qi++ {
				q := connectedPattern(rng, labels)
				want := core.MatchSet(baseline.VF2(gModel, q, 0))
				requireSameSets(t,
					matchSet(t, direct, q, "direct"), want,
					fmt.Sprintf("seed %d query %d: direct vs VF2", seed, qi))
				requireSameSets(t,
					matchSet(t, rec, q, "recovered"), want,
					fmt.Sprintf("seed %d query %d: recovered vs VF2", seed, qi))
				combos++
			}
		})
	}
	if combos < 12 {
		t.Fatalf("property suite covered %d combos, want ≥ 12", combos)
	}
}

// TestRecoverySkipsRecordsAtOrBelowCheckpointSeq pins the crash window
// between checkpoint publication and journal truncation: the journal still
// holds records the checkpoint already covers, and replay must skip every
// one of them (double-applying an add_node would shift vertex IDs and
// corrupt every later edge).
func TestRecoverySkipsRecordsAtOrBelowCheckpointSeq(t *testing.T) {
	cfg := Config{}.normalize()
	spec := NamespaceSpec{Name: "ckpt", Source: "rmat", Scale: 4, Degree: 3, Labels: 2, Seed: 9, Machines: 2}
	dir := t.TempDir()
	eng, st, err := recoverEngine(spec, dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := eng.Cluster().NumNodes()
	const batches = 5
	for i := 0; i < batches; i++ {
		muts := []memcloud.Mutation{{Op: memcloud.MutAddNode, Label: "ck"}}
		if _, err := st.appendBatch(muts); err != nil {
			t.Fatal(err)
		}
		eng.Cluster().ApplyBatch(muts)
	}
	// Preserve the journal as it was before the checkpoint truncates it.
	walPath := filepath.Join(dir, journalName)
	preCkpt, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.checkpoint(); err != nil {
		t.Fatal(err)
	}
	st.close()
	// Simulate the crash: the checkpoint rename landed, the truncation did
	// not — the stale records reappear.
	if err := os.WriteFile(walPath, preCkpt, 0o644); err != nil {
		t.Fatal(err)
	}

	rec, recSt, err := recoverEngine(spec, dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer recSt.close()
	if got := rec.Cluster().NumNodes(); got != base+batches {
		t.Fatalf("recovered %d nodes, want %d (stale journal records double-applied?)", got, base+batches)
	}
	info := recSt.journalStats()
	if info.ReplayedRecords != 0 {
		t.Fatalf("replayed %d records, want 0 (all were ≤ checkpoint seq %d)", info.ReplayedRecords, info.CheckpointSeq)
	}
	// The interrupted truncation is finished during recovery…
	recs, rep, err := journal.ScanFile(walPath)
	if err != nil || rep.Torn || len(recs) != 0 {
		t.Fatalf("journal after recovery: %d records, rep=%+v, err=%v; want empty", len(recs), rep, err)
	}
	// …and sequence numbers keep counting from the recovered history.
	if _, err := recSt.appendBatch([]memcloud.Mutation{{Op: memcloud.MutAddNode, Label: "post"}}); err != nil {
		t.Fatal(err)
	}
	if got := recSt.journalStats().LastSeq; got != batches+1 {
		t.Fatalf("post-recovery append got seq %d, want %d", got, batches+1)
	}
}

// appendTo journals one add_node record sized so the journal ends exactly at
// size bytes. The cluster is left as it is, so its checkpoint size does not
// move: these records only feed the checkpoint rule.
func appendTo(t *testing.T, st *nsStorage, size int64) {
	t.Helper()
	const fixed = journal.FrameOverhead + 5 + 1 + 4 // frame, batch header, op, label length
	n := size - st.w.Size() - fixed
	if n < 0 {
		t.Fatalf("journal at %d bytes cannot end at %d with one record", st.w.Size(), size)
	}
	if _, err := st.appendBatch([]memcloud.Mutation{{Op: memcloud.MutAddNode, Label: strings.Repeat("x", int(n))}}); err != nil {
		t.Fatal(err)
	}
	if st.w.Size() != size {
		t.Fatalf("journal at %d bytes, want %d", st.w.Size(), size)
	}
}

// TestMaybeCheckpointWhenJournalReachesCheckpoint pins the checkpoint rule:
// a checkpoint is due exactly when the journal is at least as large as the
// checkpoint file would be, which is what the file then measures; a failed
// attempt waits for another checkpoint's worth of journal; a closed
// namespace, or an empty journal, writes none.
func TestMaybeCheckpointWhenJournalReachesCheckpoint(t *testing.T) {
	open := func(t *testing.T) (*nsStorage, int64) {
		spec := NamespaceSpec{Name: "due", Source: "rmat", Scale: 4, Degree: 3, Labels: 2, Seed: 5, Machines: 2}
		_, st, err := recoverEngine(spec, t.TempDir(), Config{}.normalize())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(st.close)
		return st, checkpointSize(st.cluster)
	}
	for _, tc := range []struct {
		name    string
		journal int64 // relative to the checkpoint size
		close   bool
		due     bool
	}{
		{name: "one byte short", journal: -1},
		{name: "as large", journal: 0, due: true},
		{name: "larger", journal: 1, due: true},
		{name: "closed", journal: 0, close: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, size := open(t)
			if st.dueAt != size {
				t.Fatalf("opened with a checkpoint due at %d journal bytes, the checkpoint is %d", st.dueAt, size)
			}
			appendTo(t, st, size+tc.journal)
			if tc.close {
				st.close()
			}
			st.maybeCheckpoint()
			info := st.journalStats()
			if got := info.Checkpoints == 1; got != tc.due || info.CheckpointErrors != 0 {
				t.Fatalf("journal of %d bytes against a %d-byte checkpoint: %d checkpoints, %d errors; due %v",
					size+tc.journal, size, info.Checkpoints, info.CheckpointErrors, tc.due)
			}
			fi, err := os.Stat(filepath.Join(st.dir, checkpointName))
			switch {
			case !tc.due && !os.IsNotExist(err):
				t.Fatalf("no checkpoint was due, yet the file is there (err %v)", err)
			case tc.due && (err != nil || fi.Size() != size):
				t.Fatalf("checkpoint file: %v, err %v; want %d bytes", fi, err, size)
			case tc.due && (st.w.Size() != 0 || st.dueAt != size):
				t.Fatalf("after the checkpoint: journal %d bytes, next due at %d; want 0 and %d", st.w.Size(), st.dueAt, size)
			}
		})
	}

	t.Run("empty journal", func(t *testing.T) {
		// A file-built namespace opens due at 0 (firstDue); a window that
		// journaled nothing (its gate wait timed out) must not checkpoint.
		st, _ := open(t)
		st.dueAt = 0
		st.maybeCheckpoint()
		if info := st.journalStats(); info.Checkpoints != 0 || info.CheckpointErrors != 0 {
			t.Fatalf("empty journal: %d checkpoints, %d errors; want none", info.Checkpoints, info.CheckpointErrors)
		}
	})

	t.Run("failure backs off", func(t *testing.T) {
		st, size := open(t)
		dir := st.dir
		st.dir = filepath.Join(dir, "missing") // the checkpoint's temp file cannot be created
		appendTo(t, st, size)
		st.maybeCheckpoint()
		if info := st.journalStats(); info.Checkpoints != 0 || info.CheckpointErrors != 1 || st.dueAt != 2*size {
			t.Fatalf("failed attempt: %d checkpoints, %d errors, next due at %d; want 0, 1, %d", info.Checkpoints, info.CheckpointErrors, st.dueAt, 2*size)
		}
		st.dir = dir
		appendTo(t, st, 2*size-100)
		st.maybeCheckpoint()
		if info := st.journalStats(); info.Checkpoints != 0 || info.CheckpointErrors != 1 {
			t.Fatalf("retried before another checkpoint's worth of journal: %d checkpoints, %d errors", info.Checkpoints, info.CheckpointErrors)
		}
		appendTo(t, st, 2*size)
		st.maybeCheckpoint()
		if info := st.journalStats(); info.Checkpoints != 1 || info.CheckpointErrors != 1 || st.w.Size() != 0 {
			t.Fatalf("retry: %d checkpoints, %d errors, journal %d bytes; want 1, 1, 0", info.Checkpoints, info.CheckpointErrors, st.w.Size())
		}
	})
}

// TestTailOffsetIndexesTheJournal pins the wal tail's index: from every
// cursor, a read starting at tailOffset ships exactly what a read of the
// whole file ships, and starts less than one stride plus one record in front
// of the cursor's record — live, after a discarded record, rebuilt by
// recovery (the same entries), and after a checkpoint empties it.
func TestTailOffsetIndexesTheJournal(t *testing.T) {
	cfg := Config{JournalNoSync: true}.normalize()
	spec := NamespaceSpec{Name: "tail", Source: "rmat", Scale: 4, Degree: 3, Labels: 2, Seed: 7, Machines: 2}
	dir := t.TempDir()
	walPath := filepath.Join(dir, journalName)
	_, st, err := recoverEngine(spec, dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	const maxLabel = 6000
	appendN := func(st *nsStorage, n int) {
		for i := 0; i < n; i++ {
			label := strings.Repeat("x", 1+rng.Intn(maxLabel))
			if _, err := st.appendBatch([]memcloud.Mutation{{Op: memcloud.MutAddNode, Label: label}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(st *nsStorage, what string) {
		t.Helper()
		recs, _, err := journal.ScanFile(walPath)
		if err != nil || len(recs) == 0 {
			t.Fatalf("%s: %d records, err %v", what, len(recs), err)
		}
		for i, r := range recs {
			from := r.Seq - 1
			start := int64(0)
			if i > 0 {
				start = recs[i-1].End
			}
			off := st.tailOffset(from)
			if off > start || start-off >= tailIndexStride+maxLabel+64 {
				t.Fatalf("%s: cursor %d reads from byte %d, its record starts at %d", what, from, off, start)
			}
			got, err := journal.TailAfter(walPath, off, from, 0)
			if err != nil {
				t.Fatal(err)
			}
			want, err := journal.TailAfter(walPath, 0, from, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Frames, want.Frames) || got.FirstSeq != want.FirstSeq || got.LastSeq != want.LastSeq {
				t.Fatalf("%s: cursor %d from byte %d ships [%d, %d] %d B, the whole file [%d, %d] %d B",
					what, from, off, got.FirstSeq, got.LastSeq, len(got.Frames), want.FirstSeq, want.LastSeq, len(want.Frames))
			}
		}
	}

	appendN(st, 120)
	if len(st.tailIndex) < 4 {
		t.Fatalf("%d index entries over a %d-byte journal", len(st.tailIndex), st.w.Size())
	}
	check(st, "live")
	for {
		// Discard a record that opened an index entry: the entry goes too.
		n := len(st.tailIndex)
		mark, err := st.appendBatch([]memcloud.Mutation{{Op: memcloud.MutAddNode, Label: strings.Repeat("d", maxLabel)}})
		if err != nil {
			t.Fatal(err)
		}
		if len(st.tailIndex) > n {
			st.discardAppended(mark)
			if len(st.tailIndex) != n {
				t.Fatalf("discarding the record that opened index entry %d left %d entries", n, len(st.tailIndex))
			}
			break
		}
	}
	check(st, "after a discarded record")
	live := slices.Clone(st.tailIndex)
	st.close()

	_, st, err = recoverEngine(spec, dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	if !slices.Equal(st.tailIndex, live) {
		t.Fatalf("recovery indexed %v, the live journal %v", st.tailIndex, live)
	}
	check(st, "recovered")
	if err := st.checkpoint(); err != nil {
		t.Fatal(err)
	}
	if len(st.tailIndex) != 0 {
		t.Fatalf("%d index entries after a checkpoint emptied the journal", len(st.tailIndex))
	}
	appendN(st, 40)
	check(st, "after a checkpoint")
}

// TestDiscardAppendedExcludesRecordFromReplay pins the journal/graph
// agreement contract: a batch that was journaled but then failed to apply
// (the dispatcher's ApplyBatch-panic path) is rolled out of the WAL, so
// recovery replays exactly the applied history — not the phantom batch.
func TestDiscardAppendedExcludesRecordFromReplay(t *testing.T) {
	cfg := Config{}.normalize()
	spec := NamespaceSpec{Name: "disc", Source: "rmat", Scale: 4, Degree: 3, Labels: 2, Seed: 3, Machines: 1}
	dir := t.TempDir()
	eng, st, err := recoverEngine(spec, dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	good := []memcloud.Mutation{{Op: memcloud.MutAddNode, Label: "ok"}}
	if _, err := st.appendBatch(good); err != nil {
		t.Fatal(err)
	}
	eng.Cluster().ApplyBatch(good)
	// A batch journaled but never applied (its apply "panicked"):
	mark, err := st.appendBatch([]memcloud.Mutation{{Op: memcloud.MutAddNode, Label: "phantom"}})
	if err != nil {
		t.Fatal(err)
	}
	st.discardAppended(mark)
	// One more applied batch proves the sequence continues cleanly.
	if _, err := st.appendBatch(good); err != nil {
		t.Fatal(err)
	}
	eng.Cluster().ApplyBatch(good)
	base := eng.Cluster().NumNodes()
	st.close()

	rec, recSt, err := recoverEngine(spec, dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer recSt.close()
	if got := rec.Cluster().NumNodes(); got != base {
		t.Fatalf("recovered %d nodes, live had %d (phantom batch replayed?)", got, base)
	}
	if info := recSt.journalStats(); info.ReplayedRecords != 2 {
		t.Fatalf("replayed %d records, want 2 (the discarded one must not count)", info.ReplayedRecords)
	}
}

// TestSpecStringRoundTrip: the manifest stores SpecString, so it must
// re-parse to an identical spec for every source kind.
func TestSpecStringRoundTrip(t *testing.T) {
	cases := []string{
		"rmat:scale=12",
		"rmat:scale=10,degree=6,labels=4,seed=77,machines=3,inflight=4,maxmatches=100,maxbytes=4096",
		"rmat:scale=8,relabel=degree",
		"file:/data/g.bin",
		"text:/data/g.txt,machines=2,inflight=8",
	}
	for _, in := range cases {
		spec, err := ParseNamespaceSpec("rt", in)
		if err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		again, err := ParseNamespaceSpec("rt", spec.SpecString())
		if err != nil {
			t.Fatalf("%s: reparse of %q: %v", in, spec.SpecString(), err)
		}
		if again != spec {
			t.Fatalf("%s: round trip drifted:\n  spec:  %+v\n  again: %+v\n  text:  %s", in, spec, again, spec.SpecString())
		}
	}
}
