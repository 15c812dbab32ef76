package server

import (
	"bytes"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"stwig/internal/journal"
)

// Leader side of WAL-shipping replication. The wire protocol has three
// endpoints, all /v1-only:
//
//	GET /v1/replication/manifest   which namespaces a follower should tail
//	GET /v1/ns/{name}/snapshot     checkpoint-format bootstrap stream
//	GET /v1/ns/{name}/wal?from=N   long-poll journal tail: raw CRC frames
//
// The wal response body is a byte-for-byte suffix of the leader's journal
// file: the same framing recovery scans, so the follower replays it through
// the exact code path a crash restart uses. A connection cut mid-frame
// leaves the follower with a torn tail — which journal.Scan already treats
// as "committed prefix + garbage", so cuts cost a retry, never correctness.

// Replication response headers. Every wal and snapshot reply carries the
// leader's positions so a follower can compute lag without a second call.
const (
	// LeaderSeqHeader is the newest journaled sequence at response time.
	LeaderSeqHeader = "X-Stwig-Leader-Seq"
	// CheckpointSeqHeader is the highest sequence compacted into the
	// leader's checkpoint; a cursor at or below it must bootstrap from
	// /snapshot instead of tailing.
	CheckpointSeqHeader = "X-Stwig-Checkpoint-Seq"
	// EpochHeader is the namespace's mutation epoch (snapshot replies).
	EpochHeader = "X-Stwig-Epoch"
	// walContentType is the wal and snapshot payload media type.
	walContentType = "application/octet-stream"
)

// maxWALWait caps the wal long-poll window a client may request.
const maxWALWait = 30 * time.Second

// maxWALTailBytes caps the frames one wal response ships. A journal grows
// to the size of its checkpoint before it is reset, so a follower that is
// far behind catches up in polls of this size rather than one response as
// large as the graph. A variable only so tests can lower it.
var maxWALTailBytes int64 = 4 << 20

// walHeader stamps a wal or snapshot reply with the leader's positions.
func walHeader(w http.ResponseWriter, last, ckpt uint64) {
	w.Header().Set("Content-Type", walContentType)
	w.Header().Set(LeaderSeqHeader, strconv.FormatUint(last, 10))
	w.Header().Set(CheckpointSeqHeader, strconv.FormatUint(ckpt, 10))
}

// notPersistedError refuses a replication endpoint on a namespace without a
// journal — there is nothing to ship.
func notPersistedError(name string) *apiError {
	return errCode(http.StatusConflict, CodeNotPersisted,
		fmt.Sprintf("namespace %q has no journal to replicate (start the leader with -data-dir)", name))
}

// handleWALTail serves GET /v1/ns/{name}/wal?from=<seq>&wait_ms=<n>: every
// committed journal record with sequence > from, as raw frames. When the
// cursor is caught up and wait_ms is positive, the request parks (without
// holding any lock) until an append lands or the window closes, then
// answers — possibly with an empty body, which just means "still caught
// up". The response is one bounded batch, not an infinite stream: at most
// maxWALTailBytes of frames (or the one record past the cursor, when that
// alone is larger), read from the journal from just before the cursor's
// record (nsStorage.tailOffset), so a poll costs the bytes it ships however
// long the journal has grown. The follower loops.
func (s *Server) handleWALTail(rq *request) *apiError {
	ns, w, r := rq.ns, rq.w, rq.r
	q := r.URL.Query()
	from, err := parseUintParam(q.Get("from"), "from")
	if err != nil {
		return errStatus(http.StatusBadRequest, err.Error())
	}
	waitMS, err := parseUintParam(q.Get("wait_ms"), "wait_ms")
	if err != nil {
		return errStatus(http.StatusBadRequest, err.Error())
	}
	if ns.store == nil {
		return notPersistedError(ns.name)
	}
	wait := time.Duration(waitMS) * time.Millisecond
	if wait > maxWALWait {
		wait = maxWALWait
	}
	deadline := time.Now().Add(wait)

	for {
		// The read runs under the tenant's reader gate: appends, failed-append
		// rollbacks, and panic-discards all happen inside the writer window,
		// so under rlock every frame in the file is a committed, applied
		// record that can never be retracted. (Checkpoint truncation runs
		// outside the window, but only discards records ≤ CheckpointSeq — all
		// shipped long ago or covered by the snapshot_required refusal.)
		if err := ns.gate.rlock(r.Context()); err != nil {
			return errContext(err, gateWait)
		}
		last, ckpt := ns.store.tailState()
		if from < ckpt {
			ns.gate.runlock()
			return errCode(http.StatusConflict, CodeSnapshotRequired,
				fmt.Sprintf("records after seq %d were compacted into the checkpoint at seq %d; bootstrap from /v1/ns/%s/snapshot", from, ckpt, ns.name))
		}
		if last > from {
			off := ns.store.tailOffset(from)
			tail, err := journal.TailAfter(filepath.Join(ns.store.dir, journalName), off, from, maxWALTailBytes)
			ns.gate.runlock()
			if err != nil {
				return errStatus(http.StatusInternalServerError, fmt.Sprintf("reading journal tail: %v", err))
			}
			walHeader(w, last, ckpt)
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(tail.Frames) // client gone mid-write = torn tail on its side
			return nil
		}
		// Caught up: park on the append notifier outside the gate, bounded by
		// the wait window and the client's own context.
		ch, _ := ns.store.appendWait()
		ns.gate.runlock()
		remain := time.Until(deadline)
		if remain <= 0 {
			walHeader(w, last, ckpt)
			w.WriteHeader(http.StatusOK)
			return nil
		}
		t := time.NewTimer(remain)
		select {
		case <-r.Context().Done():
			t.Stop()
			return errContext(r.Context().Err(), gateWait)
		case <-ch:
			t.Stop()
		case <-t.C:
		}
	}
}

// handleSnapshot serves GET /v1/ns/{name}/snapshot: the namespace's current
// graph in checkpoint-file format ("STWC" header + graph binary), captured
// under the reader gate so the snapshot, its sequence number, and its epoch
// are one consistent triple. A follower saves the body as checkpoint.bin
// and runs ordinary recovery over it.
func (s *Server) handleSnapshot(rq *request) *apiError {
	ns, w, r := rq.ns, rq.w, rq.r
	if ns.store == nil {
		return notPersistedError(ns.name)
	}
	if err := ns.gate.rlock(r.Context()); err != nil {
		return errContext(err, gateWait)
	}
	// The frame is rendered into memory under the gate and sent after it is
	// released: a slow follower must not hold the leader's update lock.
	var frame bytes.Buffer
	last, ckpt := ns.store.tailState()
	epoch := ns.eng.Cluster().Epoch()
	// The snapshot covers everything up to and including last, so the frame
	// is stamped with last (not the on-disk checkpoint's seq): the follower
	// resumes tailing from exactly here.
	err := writeCheckpointTo(&frame, ns.eng.Cluster(), last, epoch)
	ns.gate.runlock()
	if err != nil {
		return errStatus(http.StatusInternalServerError, fmt.Sprintf("snapshotting graph: %v", err))
	}
	walHeader(w, last, ckpt)
	w.Header().Set(EpochHeader, strconv.FormatUint(epoch, 10))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(frame.Bytes()) // client gone mid-stream: its problem
	return nil
}

// handleReplicationManifest serves GET /v1/replication/manifest: every
// persisted namespace with the positions a follower needs to bootstrap or
// resume. Namespaces without a journal (engine-first registrations, or a
// server without -data-dir) are not replicable and are omitted; a fully
// journal-less server answers not_persisted so a follower fails loudly
// instead of replicating nothing.
func (s *Server) handleReplicationManifest(rq *request) *apiError {
	if s.store == nil {
		return notPersistedError("(all)")
	}
	resp := ReplicationManifest{Namespaces: []ReplicaNamespace{}}
	for _, ns := range s.reg.list() {
		if ns.store == nil {
			continue
		}
		spec, ok := s.store.specFor(ns.name)
		if !ok {
			continue
		}
		last, ckpt := ns.store.tailState()
		resp.Namespaces = append(resp.Namespaces, ReplicaNamespace{
			Name:          ns.name,
			Spec:          spec,
			LastSeq:       last,
			CheckpointSeq: ckpt,
			Epoch:         ns.eng.Cluster().Epoch(),
		})
	}
	writeJSON(rq.w, http.StatusOK, resp)
	return nil
}

// handlePromote serves POST /v1/admin/promote: the follower stops tailing,
// seals and fsyncs every journal tail, and starts accepting writes.
// Idempotent — promoting an already-promoted follower reports the same
// success, so a failover script can retry safely. A server that follows
// nobody answers 409 not_a_follower.
func (s *Server) handlePromote(rq *request) *apiError {
	if s.repl == nil {
		return errCode(http.StatusConflict, CodeNotFollower,
			"this server follows no leader (start stwigd with -follow to run a follower)")
	}
	names, err := s.repl.promote()
	if err != nil {
		return errStatus(http.StatusInternalServerError, fmt.Sprintf("sealing journal tails: %v", err))
	}
	writeJSON(rq.w, http.StatusOK, PromoteResponse{Promoted: true, Namespaces: names})
	return nil
}

// replicationInfoFor returns the /stats replication block for one
// namespace, nil on a server that never followed anyone.
func (s *Server) replicationInfoFor(name string) *ReplicationInfo {
	if s.repl == nil {
		return nil
	}
	return s.repl.infoFor(name)
}

// parseUintParam parses a non-negative integer query parameter; empty
// means 0.
func parseUintParam(v, name string) (uint64, error) {
	if v == "" {
		return 0, nil
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("query parameter %s=%q: want a non-negative integer", name, v)
	}
	return n, nil
}

// sortedNames is a small helper for deterministic promote responses.
func sortedNames(m map[string]*replState) []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
