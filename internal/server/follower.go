package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"sync"
	"time"

	"stwig/internal/core"
	"stwig/internal/journal"
)

// Follower side of WAL-shipping replication (Config.FollowURL / stwigd
// -follow). One background goroutine polls the leader's replication
// manifest; per listed namespace a tail goroutine long-polls
// GET /v1/ns/{name}/wal and replays each received record through the same
// writer-window + journal-before-apply path the local update dispatcher
// uses, so a follower's on-disk state is indistinguishable from a leader's
// and ordinary crash recovery keeps working. Because wal frames are the
// journal's own CRC framing, a connection cut mid-record is exactly a torn
// tail: the intact prefix applies, the cut record is re-fetched after
// reconnecting.

const (
	// replPollWindow is the wal long-poll window the follower requests.
	replPollWindow = 10 * time.Second
	// replManifestPoll is how often the manifest is re-fetched (to pick up
	// namespaces created on the leader after the follower booted).
	replManifestPoll = 2 * time.Second
	// replRetryMin / replRetryMax bound the reconnect backoff.
	replRetryMin = 100 * time.Millisecond
	replRetryMax = 3 * time.Second
)

// errReplResync reports a condition only a fresh snapshot bootstrap can
// heal: the cursor fell behind a leader checkpoint, a sequence mismatch, a
// record that fails to decode, or an apply panic that may have left the
// local graph half-mutated.
var errReplResync = errors.New("replication resync required")

// replState is one namespace's replication position and counters. The
// tail goroutine writes it; /stats and /metrics snapshots read it.
type replState struct {
	mu   sync.Mutex
	spec string // leader's canonical spec text, refreshed per manifest poll
	// lastSeq is the newest record applied locally; leaderSeq the leader's
	// newest as of the last successful poll.
	lastSeq   uint64
	leaderSeq uint64
	// behindSince is when the follower last fell behind; zero while caught
	// up. lag_ms is derived from it.
	behindSince time.Time
	connected   bool
	records     uint64
	resyncs     uint64
	lastErr     string
}

func (st *replState) last() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lastSeq
}

func (st *replState) getSpec() string {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.spec
}

func (st *replState) setSpec(spec string) {
	st.mu.Lock()
	st.spec = spec
	st.mu.Unlock()
}

func (st *replState) setConnected(ok bool) {
	st.mu.Lock()
	st.connected = ok
	if ok {
		st.lastErr = ""
	}
	st.mu.Unlock()
}

func (st *replState) setError(err error) {
	st.mu.Lock()
	st.lastErr = err.Error()
	st.mu.Unlock()
}

func (st *replState) setLeaderSeq(seq uint64) {
	st.mu.Lock()
	st.leaderSeq = seq
	st.updateLagLocked()
	st.mu.Unlock()
}

// advance records one applied record.
func (st *replState) advance(seq uint64) {
	st.mu.Lock()
	st.lastSeq = seq
	st.records++
	st.updateLagLocked()
	st.mu.Unlock()
}

// reset re-bases the position after a snapshot bootstrap.
func (st *replState) reset(seq uint64) {
	st.mu.Lock()
	st.lastSeq = seq
	st.resyncs++
	st.updateLagLocked()
	st.mu.Unlock()
}

func (st *replState) updateLagLocked() {
	if st.lastSeq >= st.leaderSeq {
		st.behindSince = time.Time{}
	} else if st.behindSince.IsZero() {
		st.behindSince = time.Now()
	}
}

// replicator is the follower runtime: the manifest poller plus one tail
// goroutine per replicated namespace, all bound to one cancelable context.
type replicator struct {
	s      *Server
	leader string
	hc     *http.Client
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.Mutex
	promoted bool
	tracked  map[string]*replState
}

func newReplicator(s *Server, leader string) *replicator {
	ctx, cancel := context.WithCancel(context.Background())
	return &replicator{
		s:       s,
		leader:  leader,
		hc:      &http.Client{}, // no client timeout: long-polls outlive any sane one; ctx bounds everything
		ctx:     ctx,
		cancel:  cancel,
		tracked: map[string]*replState{},
	}
}

func (r *replicator) start() {
	r.wg.Add(1)
	go r.run()
}

// stop cancels every replication goroutine and waits them out. Idempotent.
func (r *replicator) stop() {
	r.cancel()
	r.wg.Wait()
}

func (r *replicator) isPromoted() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.promoted
}

// promote stops replication, seals and fsyncs every replicated journal
// tail, and flips the server writable. Idempotent: a second promote
// reports the same success, so failover scripts can retry.
func (r *replicator) promote() ([]string, error) {
	r.mu.Lock()
	if r.promoted {
		names := sortedNames(r.tracked)
		r.mu.Unlock()
		return names, nil
	}
	r.mu.Unlock()
	// Stop tailing first: after wg.Wait no replication apply is in flight,
	// so the seal below fsyncs a quiescent journal.
	r.stop()
	r.mu.Lock()
	defer r.mu.Unlock()
	names := sortedNames(r.tracked)
	for _, name := range names {
		if ns, ok := r.s.reg.get(name); ok && ns.store != nil {
			if err := ns.store.sealTail(); err != nil {
				return nil, fmt.Errorf("namespace %q: %w", name, err)
			}
		}
	}
	r.promoted = true
	return names, nil
}

// infoFor snapshots one namespace's replication block for /stats, nil when
// the namespace is not replicated.
func (r *replicator) infoFor(name string) *ReplicationInfo {
	r.mu.Lock()
	st := r.tracked[name]
	promoted := r.promoted
	r.mu.Unlock()
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	role := "follower"
	if promoted {
		role = "leader"
	}
	var lag uint64
	if st.leaderSeq > st.lastSeq {
		lag = st.leaderSeq - st.lastSeq
	}
	var lagMS int64
	if !promoted && !st.behindSince.IsZero() {
		lagMS = time.Since(st.behindSince).Milliseconds()
	}
	return &ReplicationInfo{
		Role:              role,
		Leader:            r.leader,
		LastSeq:           st.lastSeq,
		LeaderSeq:         st.leaderSeq,
		LagRecords:        lag,
		LagMS:             lagMS,
		Connected:         !promoted && st.connected,
		RecordsReplicated: st.records,
		Resyncs:           st.resyncs,
		LastError:         st.lastErr,
	}
}

// run is the manifest poll loop: discover namespaces, spawn their tails.
// The failure backoff is tracked separately from the steady-state poll
// cadence: sleeping replManifestPoll after a success must not become the
// seed of the next failure's backoff, or the first retry after any outage
// would jump straight to the cap instead of replRetryMin.
func (r *replicator) run() {
	defer r.wg.Done()
	log := r.s.cfg.Logger
	log.Info("follower: replication starting", "leader", r.leader)
	bo := newReplBackoff()
	for {
		var delay time.Duration
		if err := r.syncManifest(); err != nil {
			if r.ctx.Err() != nil {
				return
			}
			log.Warn("follower: manifest sync failed", "leader", r.leader, "error", err)
			delay = bo.failure()
		} else {
			bo.success()
			delay = replManifestPoll
		}
		select {
		case <-r.ctx.Done():
			return
		case <-time.After(delay):
		}
	}
}

// replBackoff is the reconnect backoff shared by the manifest and tail
// loops: exponential from replRetryMin to replRetryMax, reset on success.
type replBackoff struct {
	next time.Duration
}

func newReplBackoff() *replBackoff {
	return &replBackoff{next: replRetryMin}
}

// failure returns the delay to sleep before the next attempt and advances
// the backoff.
func (b *replBackoff) failure() time.Duration {
	d := b.next
	b.next = min(b.next*2, replRetryMax)
	return d
}

// success resets the backoff so the next failure starts from replRetryMin.
func (b *replBackoff) success() {
	b.next = replRetryMin
}

// syncManifest fetches the leader's manifest and starts a tail goroutine
// for every namespace not already tracked.
func (r *replicator) syncManifest() error {
	req, err := http.NewRequestWithContext(r.ctx, http.MethodGet, r.leader+"/v1/replication/manifest", nil)
	if err != nil {
		return err
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("leader manifest: %s", readEnvelopeError(resp))
	}
	var man ReplicationManifest
	if err := json.NewDecoder(resp.Body).Decode(&man); err != nil {
		return fmt.Errorf("leader manifest: %w", err)
	}
	for _, e := range man.Namespaces {
		r.mu.Lock()
		st, tracked := r.tracked[e.Name]
		r.mu.Unlock()
		if tracked {
			st.setSpec(e.Spec) // keep the resync spec fresh
			continue
		}
		st, err := r.ensure(e)
		if err != nil {
			r.s.cfg.Logger.Warn("follower: namespace bootstrap failed", "namespace", e.Name, "error", err)
			continue
		}
		r.mu.Lock()
		r.tracked[e.Name] = st
		r.mu.Unlock()
		r.s.cfg.Logger.Info("follower: tailing namespace", "namespace", e.Name, "from_seq", st.last())
		r.wg.Add(1)
		go r.tail(e.Name, st)
	}
	return nil
}

// ensure makes the namespace live locally: adopt a boot-recovered replica
// (the torn-tail restart path — recovery already truncated any cut frame),
// or bootstrap from a leader snapshot.
func (r *replicator) ensure(e ReplicaNamespace) (*replState, error) {
	spec, err := ParseNamespaceSpec(e.Name, e.Spec)
	if err != nil {
		return nil, err
	}
	if ns, ok := r.s.reg.get(e.Name); ok {
		var last uint64
		if ns.store != nil {
			last, _ = ns.store.tailState()
		}
		return &replState{spec: e.Spec, lastSeq: last, leaderSeq: e.LastSeq}, nil
	}
	last, err := r.bootstrap(spec)
	if err != nil {
		return nil, err
	}
	return &replState{spec: e.Spec, lastSeq: last, leaderSeq: e.LastSeq}, nil
}

// bootstrap creates the local namespace from a leader snapshot, returning
// the sequence the snapshot covers. With a data dir the snapshot is saved
// as the namespace's checkpoint and ordinary recovery loads it, so the
// replica restarts (and repairs torn tails) exactly like a leader; without
// one the graph is loaded straight into memory.
func (r *replicator) bootstrap(spec NamespaceSpec) (uint64, error) {
	if r.s.store != nil {
		unlock := r.s.store.lockName(spec.Name)
		defer unlock()
		dir := r.s.store.nsDir(spec.Name)
		if err := os.RemoveAll(dir); err != nil {
			return 0, err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return 0, err
		}
		body, err := r.fetchSnapshot(spec.Name)
		if err != nil {
			return 0, err
		}
		err = saveCheckpointStream(dir, body)
		body.Close()
		if err != nil {
			return 0, err
		}
		eng, store, err := recoverEngine(spec, dir, r.s.cfg)
		if err != nil {
			return 0, err
		}
		ns := newNamespace(spec.Name, eng, spec.configFor(r.s.cfg), store)
		if err := r.s.reg.add(ns, 0); err != nil {
			ns.close()
			return 0, err
		}
		if err := r.s.store.record(spec.Name, spec.SpecString()); err != nil {
			return 0, err
		}
		last, _ := store.tailState()
		return last, nil
	}
	body, err := r.fetchSnapshot(spec.Name)
	if err != nil {
		return 0, err
	}
	defer body.Close()
	cluster, seq, err := readCheckpointFrom(body, "snapshot of "+spec.Name, spec.Machines)
	if err != nil {
		return 0, err
	}
	eng := core.NewEngine(cluster, core.Options{})
	ns := newNamespace(spec.Name, eng, spec.configFor(r.s.cfg), nil)
	if err := r.s.reg.add(ns, 0); err != nil {
		ns.close()
		return 0, err
	}
	return seq, nil
}

// fetchSnapshot opens the leader's snapshot stream for one namespace.
func (r *replicator) fetchSnapshot(name string) (io.ReadCloser, error) {
	u := r.leader + "/v1/ns/" + url.PathEscape(name) + "/snapshot"
	req, err := http.NewRequestWithContext(r.ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg := readEnvelopeError(resp)
		resp.Body.Close()
		return nil, fmt.Errorf("leader snapshot of %q: %s", name, msg)
	}
	return resp.Body, nil
}

// tail is one namespace's replication loop: long-poll, apply, repeat;
// resync from a snapshot when the journal alone cannot converge.
func (r *replicator) tail(name string, st *replState) {
	defer r.wg.Done()
	backoff := replRetryMin
	for {
		if r.ctx.Err() != nil {
			return
		}
		ns, ok := r.s.reg.get(name)
		if !ok {
			return
		}
		err := r.pollOnce(ns, st)
		if err == nil {
			backoff = replRetryMin
			continue
		}
		if r.ctx.Err() != nil {
			return
		}
		st.setError(err)
		if errors.Is(err, errReplResync) {
			r.s.cfg.Logger.Warn("follower: resyncing from snapshot", "namespace", name, "error", err)
			if rerr := r.resync(name, st); rerr != nil {
				st.setError(fmt.Errorf("resync: %w", rerr))
			} else {
				backoff = replRetryMin
				continue
			}
		}
		select {
		case <-r.ctx.Done():
			return
		case <-time.After(backoff):
		}
		backoff = min(backoff*2, replRetryMax)
	}
}

// pollOnce performs one wal long-poll round and applies what it returns. A
// connection cut mid-frame surfaces as a torn tail in journal.Scan: the
// intact record prefix is applied, the cut frame is simply re-fetched on
// the next round — the mid-record-cut correctness contract.
func (r *replicator) pollOnce(ns *namespace, st *replState) error {
	from := st.last()
	u := fmt.Sprintf("%s/v1/ns/%s/wal?from=%d&wait_ms=%d",
		r.leader, url.PathEscape(ns.name), from, replPollWindow.Milliseconds())
	req, err := http.NewRequestWithContext(r.ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		st.setConnected(false)
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		st.setConnected(false)
		var env ErrorResponse
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		_ = json.Unmarshal(raw, &env)
		if env.Code == CodeSnapshotRequired {
			return fmt.Errorf("%w: %s", errReplResync, env.Error)
		}
		return fmt.Errorf("leader wal: status %d: %s", resp.StatusCode, env.Error)
	}
	st.setConnected(true)
	if v := resp.Header.Get(LeaderSeqHeader); v != "" {
		if n, perr := strconv.ParseUint(v, 10, 64); perr == nil {
			st.setLeaderSeq(n)
		}
	}
	recs, _, scanErr := journal.Scan(resp.Body)
	for _, rec := range recs {
		if rec.Seq <= st.last() {
			continue
		}
		if err := r.applyRecord(ns, st, rec); err != nil {
			return err
		}
	}
	// A torn tail (cut connection) is not an error — the next round
	// re-fetches from the new cursor. Only real reader failures bubble up,
	// forcing a reconnect with backoff.
	return scanErr
}

// applyRecord replays one leader record through the same writer-window +
// journal-then-apply step (updatePipeline.commit) the local dispatcher uses,
// preserving every recovery invariant it provides.
func (r *replicator) applyRecord(ns *namespace, st *replState, rec journal.Record) error {
	muts, err := journal.DecodeBatch(rec.Body)
	if err != nil {
		// The CRC was intact, so this is version skew or corruption; a fresh
		// snapshot is the only way forward.
		return fmt.Errorf("%w: decoding record seq %d: %v", errReplResync, rec.Seq, err)
	}
	for !ns.gate.lock(ns.cfg.UpdateLockWait, r.ctx.Done()) {
		// Readers held the gate for the whole patience window; retry until
		// shutdown. gate.lock itself blocks, so this cannot spin hot.
		if r.ctx.Err() != nil {
			return r.ctx.Err()
		}
	}
	if ns.store != nil {
		if got := ns.store.w.NextSeq(); got != rec.Seq {
			ns.gate.unlock()
			return fmt.Errorf("%w: local journal expects seq %d, leader sent %d", errReplResync, got, rec.Seq)
		}
	}
	_, err = ns.pipe.commit(muts)
	ns.gate.unlock()
	if errors.Is(err, errUpdateInternal) {
		// The apply panicked: the graph may be half-mutated relative to the
		// journal. Only a snapshot re-bases both consistently.
		return fmt.Errorf("%w: %v", errReplResync, err)
	}
	if err != nil {
		return err
	}
	if ns.store != nil {
		// The replication loop is the namespace's only mutator (writes are
		// 403 until promotion), so the checkpoint rule runs here exactly
		// as it runs in the dispatcher loop on a leader.
		ns.store.maybeCheckpoint()
	}
	st.advance(rec.Seq)
	return nil
}

// resync tears the stale replica down and bootstraps it again from a fresh
// leader snapshot, preserving the state's counters.
func (r *replicator) resync(name string, st *replState) error {
	spec, err := ParseNamespaceSpec(name, st.getSpec())
	if err != nil {
		return err
	}
	if ns, ok := r.s.reg.remove(name); ok {
		// In-flight queries keep their *namespace and finish on the stale
		// graph, same as a drop; new lookups see the rebuilt one.
		ns.close()
	}
	seq, err := r.bootstrap(spec)
	if err != nil {
		return err
	}
	st.reset(seq)
	return nil
}

// readEnvelopeError renders a non-2xx leader response for logs.
func readEnvelopeError(resp *http.Response) string {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var env ErrorResponse
	if json.Unmarshal(raw, &env) == nil && env.Error != "" {
		return fmt.Sprintf("status %d: %s", resp.StatusCode, env.Error)
	}
	return fmt.Sprintf("status %d", resp.StatusCode)
}
