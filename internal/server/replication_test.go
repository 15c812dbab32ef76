// Replication acceptance tests: a follower bootstrapped over HTTP must
// converge to bit-identical match sets with its leader — cross-checked
// against the VF2 oracle — survive mid-record connection cuts and its own
// torn-tail restarts, refuse writes until promoted, and accept them after.
package server_test

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"stwig/internal/journal"
	"stwig/internal/server"
	"stwig/internal/server/client"
)

// replTestToken is the admin token both sides of every replication test
// use, so promote is exercised through the real bearer gate.
const replTestToken = "repl-secret"

// bootLeader starts a persisted leader serving the durable test namespace
// and returns its server, listener, and a namespace-scoped client.
func bootLeader(t *testing.T, dir string) (*server.Server, *client.Client, string) {
	t.Helper()
	svc, err := server.NewMulti(server.Config{
		DataDir:        dir,
		AdminToken:     replTestToken,
		UpdateLockWait: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.AddNamespaceSpec(mustSpec(t, durName, durSpec)); err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, svc)
	return svc, client.New(ts.URL).Namespace(durName), ts.URL
}

// bootFollower starts a follower of leaderURL with its own data dir.
func bootFollower(t *testing.T, dir, leaderURL string) (*server.Server, *client.Client, string) {
	t.Helper()
	svc, err := server.NewMulti(server.Config{
		DataDir:        dir,
		AdminToken:     replTestToken,
		FollowURL:      leaderURL,
		UpdateLockWait: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, svc)
	return svc, client.New(ts.URL).Namespace(durName), ts.URL
}

// awaitReplicated polls the follower's replication stats until it has
// applied wantSeq and reports zero lag.
func awaitReplicated(t *testing.T, cf *client.Client, wantSeq uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var last *server.ReplicationInfo
	for time.Now().Before(deadline) {
		st, err := cf.Stats(context.Background())
		if err == nil && st.Replication != nil {
			last = st.Replication
			if last.LastSeq >= wantSeq && last.LagRecords == 0 {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("follower never reached seq %d with zero lag; last replication state: %+v", wantSeq, last)
}

// leaderSeqOf reads the leader's newest journaled sequence from /stats.
func leaderSeqOf(t *testing.T, cl *client.Client) uint64 {
	t.Helper()
	st, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Journal == nil {
		t.Fatal("leader stats carry no journal block")
	}
	return st.Journal.LastSeq
}

// requireConverged checks follower ≡ leader ≡ VF2 oracle on every durable
// test pattern, at the same epoch.
func requireConverged(t *testing.T, cl, cf *client.Client, model *oracleModel) {
	t.Helper()
	og := model.build()
	for pattern, q := range durPatterns() {
		want := oracleSet(og, q)
		requireSetEqual(t, "leader "+pattern, serverSet(t, cl, pattern), want)
		requireSetEqual(t, "follower "+pattern, serverSet(t, cf, pattern), want)
	}
	sl, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sf, err := cf.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sl.Graph.Epoch != sf.Graph.Epoch {
		t.Fatalf("epochs diverged: leader %d, follower %d", sl.Graph.Epoch, sf.Graph.Epoch)
	}
}

// TestFollowerReplicatesAndPromotes is the tentpole acceptance pin: a
// follower bootstraps from the leader's snapshot, tails its WAL to zero
// lag, answers every query with the leader's (VF2-verified) match sets at
// the same epoch, refuses writes with 403 read_only, and accepts them
// right after an admin-token promote.
func TestFollowerReplicatesAndPromotes(t *testing.T) {
	_, cl, leaderURL := bootLeader(t, t.TempDir())
	_, cf, followerURL := bootFollower(t, t.TempDir(), leaderURL)

	// The empty base graph replicates first (seq 0), then the update script.
	awaitReplicated(t, cf, 0)
	model := oracleOf(durBase(t))
	for i, u := range durMutations() {
		if _, err := cl.Update(context.Background(), u); err != nil {
			t.Fatalf("leader mutation %d: %v", i, u)
		}
		model.apply(u)
	}
	awaitReplicated(t, cf, leaderSeqOf(t, cl))
	requireConverged(t, cl, cf, model)

	// Writes bounce off the unpromoted follower with the read_only code.
	_, err := cf.Update(context.Background(), server.UpdateRequest{Op: server.OpAddNode, Label: "qa"})
	if !client.IsReadOnly(err) {
		t.Fatalf("follower write: err = %v, want 403 read_only", err)
	}
	se := err.(*client.StatusError)
	if se.StatusCode != http.StatusForbidden || se.Code != server.CodeReadOnly {
		t.Fatalf("follower write refusal = %+v, want 403 %s", se, server.CodeReadOnly)
	}

	// Promotion is bearer-gated: no token → 401 through the same envelope
	// contract the rest of the API uses.
	if _, err := client.New(followerURL).Admin().Promote(context.Background()); err == nil {
		t.Fatal("promote without token succeeded")
	}
	resp, err := client.New(followerURL, client.WithToken(replTestToken)).Admin().Promote(context.Background())
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if !resp.Promoted || len(resp.Namespaces) != 1 || resp.Namespaces[0] != durName {
		t.Fatalf("promote response = %+v, want promoted [%s]", resp, durName)
	}
	// Idempotent: a failover script may retry.
	if resp2, err := client.New(followerURL, client.WithToken(replTestToken)).Admin().Promote(context.Background()); err != nil || !resp2.Promoted {
		t.Fatalf("re-promote = %+v, %v; want the same success", resp2, err)
	}

	// Writes now land on the ex-follower, and its stats show the new role.
	if _, err := cf.Update(context.Background(), server.UpdateRequest{Op: server.OpAddNode, Label: "qb"}); err != nil {
		t.Fatalf("post-promote write: %v", err)
	}
	model.apply(server.UpdateRequest{Op: server.OpAddNode, Label: "qb"})
	ri, err := cf.ReplicationStatus(context.Background())
	if err != nil || ri == nil || ri.Role != "leader" {
		t.Fatalf("post-promote replication status = %+v, %v; want role leader", ri, err)
	}
	og := model.build()
	q := durPatterns()["(a:qa)-(b:qb)"]
	requireSetEqual(t, "promoted follower (a:qa)-(b:qb)", serverSet(t, cf, "(a:qa)-(b:qb)"), oracleSet(og, q))
}

// TestFollowerCheckpointsByJournalSize: a follower's journal is
// checkpointed by the leader's rule, when it has grown as large as the
// checkpoint, from the follower's own replication loop. The leader here never
// checkpoints, so every record stays tailable and the follower's checkpoints
// are its own: with a 120-byte checkpoint the follower's journal of the nine
// scripted updates is checkpointed after records 4 and 8 (the arithmetic is
// TestCrashRecoveryWithCheckpoint's), and a follower restarted from its data
// dir recovers from that checkpoint plus record 9.
func TestFollowerCheckpointsByJournalSize(t *testing.T) {
	server.SetCheckpointBytes(t, server.NoCheckpoints)
	_, cl, leaderURL := bootLeader(t, t.TempDir())
	server.SetCheckpointBytes(t, 120)
	dirF := t.TempDir()
	svcF, cf, _ := bootFollower(t, dirF, leaderURL)
	awaitReplicated(t, cf, 0)
	model := oracleOf(durBase(t))
	for i, u := range durMutations() {
		if _, err := cl.Update(context.Background(), u); err != nil {
			t.Fatalf("leader mutation %d: %v", i, err)
		}
		model.apply(u)
	}
	awaitReplicated(t, cf, leaderSeqOf(t, cl))
	requireConverged(t, cl, cf, model)

	sl, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sf, err := cf.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sl.Journal.Checkpoints != 0 {
		t.Fatalf("leader wrote %d checkpoints, want none", sl.Journal.Checkpoints)
	}
	if sf.Journal == nil || sf.Journal.Checkpoints != 2 || sf.Journal.CheckpointSeq != 8 || sf.Journal.CheckpointErrors != 0 {
		t.Fatalf("follower journal = %+v, want 2 checkpoints, the last covering seq 8", sf.Journal)
	}

	svcF.Close()
	_, cf2, _ := bootFollower(t, dirF, leaderURL)
	awaitReplicated(t, cf2, leaderSeqOf(t, cl))
	requireConverged(t, cl, cf2, model)
	sf2, err := cf2.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sf2.Journal.CheckpointSeq != 8 || sf2.Journal.ReplayedRecords != 1 {
		t.Fatalf("restarted follower journal = %+v, want checkpoint seq 8 and 1 replayed record", sf2.Journal)
	}
}

// cutProxy is a TCP proxy that forwards requests to target but severs the
// server→client stream of the first cuts wal responses after limit bytes —
// a mid-record connection cut, as seen from the follower.
func startCutProxy(t *testing.T, target string, cuts int32, limit int64) (string, *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	remaining := new(atomic.Int32)
	remaining.Store(cuts)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				req, err := http.ReadRequest(bufio.NewReader(c))
				if err != nil {
					return
				}
				up, err := net.Dial("tcp", target)
				if err != nil {
					return
				}
				defer up.Close()
				// One request per connection: the upstream closes after
				// responding, so the cut decision is per-response.
				req.Header.Set("Connection", "close")
				if err := req.Write(up); err != nil {
					return
				}
				// Propagate a client hang-up to the upstream, or a parked
				// long-poll would pin the leader's listener past the test.
				go func() {
					io.Copy(up, c)
					up.Close()
				}()
				if strings.Contains(req.URL.Path, "/wal") && remaining.Add(-1) >= 0 {
					io.CopyN(c, up, limit) // sever mid-response
					return
				}
				io.Copy(c, up)
			}(conn)
		}
	}()
	return "http://" + ln.Addr().String(), remaining
}

// TestFollowerSurvivesMidRecordCuts replays the update script through a
// proxy that repeatedly cuts the WAL stream mid-record: the follower must
// apply each intact prefix, reconnect, resume from its cursor, and still
// converge to the leader's exact (VF2-verified) match sets.
func TestFollowerSurvivesMidRecordCuts(t *testing.T) {
	_, cl, leaderURL := bootLeader(t, t.TempDir())

	// The follower attaches before any mutation lands, so the whole script
	// must cross as WAL records — through a proxy that severs the first 8
	// record-bearing responses at byte 290: inside the status line, the
	// headers, or a frame, forcing prefix-apply + reconnect + resume.
	proxyURL, cutsLeft := startCutProxy(t, strings.TrimPrefix(leaderURL, "http://"), 8, 290)
	_, cf, _ := bootFollower(t, t.TempDir(), proxyURL)
	awaitReplicated(t, cf, 0)

	model := oracleOf(durBase(t))
	for i, u := range durMutations() {
		if _, err := cl.Update(context.Background(), u); err != nil {
			t.Fatalf("leader mutation %d: %v", i, u)
		}
		model.apply(u)
	}

	awaitReplicated(t, cf, leaderSeqOf(t, cl))
	// Convergence can land with one cut still unspent (the final caught-up
	// long-poll is parked, not yet severed), but most cuts must have fired
	// or the test proved nothing.
	if fired := 8 - cutsLeft.Load(); fired < 5 {
		t.Fatalf("proxy only cut %d of 8 wal responses — the test did not exercise mid-record cuts", fired)
	}
	requireConverged(t, cl, cf, model)
}

// TestFollowerTornTailRestart kills a caught-up follower, tears the last
// journal frame on its disk (a crash mid-replicated-append), reboots it,
// and requires re-convergence: recovery truncates the torn record and the
// tail loop re-fetches it from the leader.
func TestFollowerTornTailRestart(t *testing.T) {
	_, cl, leaderURL := bootLeader(t, t.TempDir())

	// The follower attaches while the leader is still pristine, so every
	// scripted mutation crosses the wire as a WAL record and lands in the
	// follower's own journal — the file the crash will tear.
	dirF := t.TempDir()
	fsvc, err := server.NewMulti(server.Config{
		DataDir:        dirF,
		AdminToken:     replTestToken,
		FollowURL:      leaderURL,
		UpdateLockWait: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	fts := newHTTPServer(t, fsvc)
	cf := client.New(fts.URL).Namespace(durName)
	awaitReplicated(t, cf, 0)

	model := oracleOf(durBase(t))
	for i, u := range durMutations() {
		if _, err := cl.Update(context.Background(), u); err != nil {
			t.Fatalf("leader mutation %d: %v", i, u)
		}
		model.apply(u)
	}
	awaitReplicated(t, cf, leaderSeqOf(t, cl))
	fts.Close()
	fsvc.Close()

	// Tear the newest frame: drop its final 3 bytes, the classic
	// power-cut-mid-write shape the recovery suite pins.
	wal := filepath.Join(dirF, "ns", durName, "journal.wal")
	fi, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(wal, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	_, cf2, _ := bootFollower(t, dirF, leaderURL)
	awaitReplicated(t, cf2, leaderSeqOf(t, cl))
	requireConverged(t, cl, cf2, model)
}

// bootPaddedLeader is bootLeader with journal alignment left at a real
// deployment's block size, so every Sync pads the on-disk journal with
// zeros — the file shape a follower's wal requests actually tail between
// group commits.
func bootPaddedLeader(t *testing.T, dir string) (*server.Server, *client.Client, string) {
	t.Helper()
	svc, err := server.NewMulti(server.Config{
		DataDir:        dir,
		AdminToken:     replTestToken,
		UpdateLockWait: time.Second,
		JournalAlign:   4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.AddNamespaceSpec(mustSpec(t, durName, durSpec)); err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, svc)
	return svc, client.New(ts.URL).Namespace(durName), ts.URL
}

// TestFollowerConvergesOnPaddedLeader pins replication over an aligned
// journal: with the leader's live journal file zero-padded to 4 KiB blocks,
// the shipped wal frames must exclude the padding (a follower that scanned
// zeros would stall on a permanently torn tail) and the follower must
// converge to the oracle exactly as it does against an unpadded leader.
func TestFollowerConvergesOnPaddedLeader(t *testing.T) {
	dirL := t.TempDir()
	_, cl, leaderURL := bootPaddedLeader(t, dirL)
	models := applyDurMutations(t, cl)

	// The padding must really be there: a live aligned journal's physical
	// length is a block multiple strictly above its logical (framed) length.
	wal := filepath.Join(dirL, "ns", durName, "journal.wal")
	fi, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size()%4096 != 0 || fi.Size() == 0 {
		t.Fatalf("leader journal is %d bytes, want a non-zero multiple of the 4096 alignment", fi.Size())
	}

	// The wire never carries the padding: the full tail's frames re-scan
	// cleanly with no torn tail and end exactly at the leader's last seq.
	leaderSeq := leaderSeqOf(t, cl)
	resp, err := http.Get(leaderURL + "/v1/ns/" + durName + "/wal?from=0")
	if err != nil {
		t.Fatal(err)
	}
	frames, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("wal tail: status %d, err %v", resp.StatusCode, err)
	}
	if int64(len(frames)) >= fi.Size() {
		t.Fatalf("shipped tail is %d bytes, the padded file %d: padding leaked onto the wire", len(frames), fi.Size())
	}
	recs, rep, err := journal.Scan(bytes.NewReader(frames))
	if err != nil || rep.Torn {
		t.Fatalf("shipped frames do not scan cleanly: err=%v torn=%v", err, rep.Torn)
	}
	if len(recs) == 0 || recs[len(recs)-1].Seq != leaderSeq {
		t.Fatalf("shipped frames end at seq %d of %d records, want leader seq %d",
			recs[len(recs)-1].Seq, len(recs), leaderSeq)
	}

	_, cf, _ := bootFollower(t, t.TempDir(), leaderURL)
	awaitReplicated(t, cf, leaderSeq)
	requireConverged(t, cl, cf, models[len(models)-1])
}

// TestWalLongPollCaughtUpCarriesLeaderSeq pins the caught-up long-poll
// contract: when the wait window expires with nothing new, the empty 200
// still carries X-Stwig-Leader-Seq — the seq read under the same reader-gate
// window that decided "caught up" — so a follower's lag gauge stays exact
// even across idle polls.
func TestWalLongPollCaughtUpCarriesLeaderSeq(t *testing.T) {
	_, cl, leaderURL := bootLeader(t, t.TempDir())
	applyDurMutations(t, cl)
	leaderSeq := leaderSeqOf(t, cl)

	url := fmt.Sprintf("%s/v1/ns/%s/wal?from=%d&wait_ms=50", leaderURL, durName, leaderSeq)
	start := time.Now()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(body) != 0 {
		t.Fatalf("caught-up poll: status %d with %d body bytes, want an empty 200", resp.StatusCode, len(body))
	}
	if time.Since(start) < 50*time.Millisecond {
		t.Fatalf("caught-up poll returned in %v, before the 50ms wait window", time.Since(start))
	}
	got := resp.Header.Get(server.LeaderSeqHeader)
	if got != fmt.Sprint(leaderSeq) {
		t.Fatalf("caught-up poll %s = %q, want the leader seq %d", server.LeaderSeqHeader, got, leaderSeq)
	}
}

// TestFollowerCatchesUpThroughCappedPolls pins the wal response cap: with a
// cap below one record, a poll ships exactly the record after its cursor,
// wherever the cursor sits in the journal, and still names the leader's
// newest sequence; a follower that restarts far behind catches up through
// one poll per record and converges.
func TestFollowerCatchesUpThroughCappedPolls(t *testing.T) {
	server.SetCheckpointBytes(t, server.NoCheckpoints)
	server.SetWALTailBytes(t, 1)
	_, cl, leaderURL := bootLeader(t, t.TempDir())
	dirF := t.TempDir()
	svcF, cf, _ := bootFollower(t, dirF, leaderURL)
	awaitReplicated(t, cf, 0)
	svcF.Close()

	model := oracleOf(durBase(t))
	for i, u := range durMutations() {
		if _, err := cl.Update(context.Background(), u); err != nil {
			t.Fatalf("leader mutation %d: %v", i, err)
		}
		model.apply(u)
	}
	leaderSeq := leaderSeqOf(t, cl)
	if leaderSeq < 3 {
		t.Fatalf("leader journaled %d records; the test needs several", leaderSeq)
	}
	for from := uint64(0); from < leaderSeq; from++ {
		resp, err := http.Get(fmt.Sprintf("%s/v1/ns/%s/wal?from=%d", leaderURL, durName, from))
		if err != nil {
			t.Fatal(err)
		}
		recs, rep, err := journal.Scan(resp.Body)
		resp.Body.Close()
		if err != nil || rep.Torn || len(recs) != 1 || recs[0].Seq != from+1 {
			t.Fatalf("poll from %d: %d records (first %+v), torn %v, err %v; want record %d alone", from, len(recs), recs, rep.Torn, err, from+1)
		}
		if got := resp.Header.Get(server.LeaderSeqHeader); got != fmt.Sprint(leaderSeq) {
			t.Fatalf("poll from %d: %s = %q, want %d", from, server.LeaderSeqHeader, got, leaderSeq)
		}
	}

	_, cf2, _ := bootFollower(t, dirF, leaderURL)
	awaitReplicated(t, cf2, leaderSeq)
	requireConverged(t, cl, cf2, model)
}
