package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"stwig/internal/core"
	"stwig/internal/graph"
	"stwig/internal/journal"
	"stwig/internal/memcloud"
)

// This file is the namespace's update pipeline: a bounded FIFO queue of
// mutations in front of a single dispatcher goroutine that batches queued
// work and applies it through memcloud.Cluster.ApplyBatch under one writer
// window. It replaces the old bounded-poll writer acquisition, which lost
// every race against a steady reader stream — TryLock only succeeds in the
// instant no reader holds the gate, so a hot tenant starved its own updates
// forever (ROADMAP: "Backpressure on updates").
//
// Fairness is writer-priority with an epoch cutoff: a parked writer first
// grants arriving readers a bounded grace window (Config.
// UpdateFairnessWindow) to preserve read availability, then closes the gate
// to NEW readers — the ones already inside finish normally — so the writer
// admits at most one bounded reader window before it runs. If the in-flight
// readers never drain (a stream pinned by a stalled client), the writer
// gives up after Config.UpdateLockWait and the queued batch fails with the
// same 503 + Retry-After contract the old path had; the cutoff is lifted so
// readers never stall behind a writer that is no longer trying.

// errUpdateBusy reports that the dispatcher could not open a writer window
// within UpdateLockWait: in-flight readers held the graph the whole time.
var errUpdateBusy = errors.New("update busy: in-flight queries hold the graph")

// errUpdateQueueClosed reports the namespace was dropped (or the server
// closed) while the update was still queued.
var errUpdateQueueClosed = errors.New("update queue closed")

// errUpdateInternal wraps a panic recovered from a batch application: the
// dispatcher goroutine has no net/http per-request recover above it, so
// without containment one poisoned mutation would crash every tenant in
// the process instead of failing one request as the old inline path did.
var errUpdateInternal = errors.New("internal update failure")

// errUpdateJournal reports that the batch could not be made durable
// (journal append or fsync failed). The batch is NOT applied: acking a
// mutation the journal does not hold would break the recovery contract.
var errUpdateJournal = errors.New("update journal write failed")

// updateGate is the namespace's reader/writer gate. Readers (queries,
// explains) hold it shared for their full execution; the dispatcher — the
// gate's only writer — takes it exclusively per batch. Unlike sync.RWMutex,
// a parked writer does not block new readers immediately: it blocks them
// only after the fairness window elapses (the epoch cutoff), and releases
// them again if it gives up.
type updateGate struct {
	mu      sync.Mutex
	readers int
	writer  bool
	cutoff  bool
	// change is closed and replaced on every state transition — a
	// context-aware broadcast both sides wait on.
	change chan struct{}
}

func newUpdateGate() *updateGate { return &updateGate{change: make(chan struct{})} }

func (g *updateGate) broadcastLocked() {
	close(g.change)
	g.change = make(chan struct{})
}

// rlock admits a reader, parking while a writer holds the gate or a parked
// writer has passed its fairness window. The park is bounded by the
// writer's own patience (UpdateLockWait) and by ctx.
func (g *updateGate) rlock(ctx context.Context) error {
	for {
		g.mu.Lock()
		if !g.writer && !g.cutoff {
			g.readers++
			g.mu.Unlock()
			return nil
		}
		ch := g.change
		g.mu.Unlock()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ch:
		}
	}
}

func (g *updateGate) runlock() {
	g.mu.Lock()
	g.readers--
	if g.readers == 0 {
		g.broadcastLocked()
	}
	g.mu.Unlock()
}

// lock opens the writer window: it parks until every admitted reader has
// released, closing the gate to new readers once window has elapsed. It
// gives up after patience (or when stop closes), lifting the cutoff, and
// reports whether the window was acquired.
func (g *updateGate) lock(patience, window time.Duration, stop <-chan struct{}) bool {
	start := time.Now()
	deadline := start.Add(patience)
	cutoffAt := start.Add(window)
	giveUp := func() bool {
		g.cutoff = false
		g.broadcastLocked()
		g.mu.Unlock()
		return false
	}
	for {
		g.mu.Lock()
		if g.readers == 0 {
			g.writer = true
			g.cutoff = false
			g.mu.Unlock()
			return true
		}
		now := time.Now()
		if !now.Before(deadline) {
			return giveUp()
		}
		if !g.cutoff && !now.Before(cutoffAt) {
			g.cutoff = true
			g.broadcastLocked() // wake nobody useful, but keep change fresh
		}
		cut := g.cutoff
		ch := g.change
		g.mu.Unlock()

		// Sleep until a reader releases, the cutoff matures, patience runs
		// out, or the pipeline stops.
		wake := deadline
		if !cut && cutoffAt.Before(wake) {
			wake = cutoffAt
		}
		t := time.NewTimer(time.Until(wake))
		select {
		case <-stop:
			t.Stop()
			g.mu.Lock()
			return giveUp()
		case <-ch:
			t.Stop()
		case <-t.C:
		}
	}
}

func (g *updateGate) unlock() {
	g.mu.Lock()
	g.writer = false
	g.cutoff = false
	g.broadcastLocked()
	g.mu.Unlock()
}

// updateJob is one queued request — a single mutation, or a bulk
// request's whole mutation array riding one journal record — plus its
// rendezvous with the waiting handler.
type updateJob struct {
	muts []memcloud.Mutation
	enq  time.Time
	done chan updateJobResult // buffered: the dispatcher never blocks on it
}

type updateJobResult struct {
	// res has one entry per job mutation, in request order (coalesced-away
	// mutations report success at the batch's final epoch).
	res        []memcloud.MutationResult
	waitMicros int64
	err        error // errUpdateBusy / errUpdateQueueClosed; res[i].Err carries conflicts
}

// batchSizeBuckets are the update pipeline's batch-size histogram upper
// bounds; the final implicit bucket is unbounded.
var batchSizeBuckets = [...]int{1, 2, 4, 8, 16, 32, 64, 128}

// updatePipeline is one namespace's write path: enqueue puts a mutation on
// the bounded FIFO (refusing when full — the caller turns that into 503 +
// Retry-After), and a lazily started dispatcher goroutine drains the queue
// in batches, applying each batch through ApplyBatch under one writer
// window of the gate.
type updatePipeline struct {
	eng  *core.Engine
	gate *updateGate
	cfg  Config
	// store, when non-nil, is the namespace's durable state: every batch is
	// appended (and fsynced) there before ApplyBatch runs, and the
	// dispatcher runs the checkpoint cadence between batches.
	store *nsStorage

	jobs chan *updateJob
	stop chan struct{}
	done chan struct{}

	mu              sync.Mutex
	started         bool
	closed          bool
	enqueued        uint64
	rejectedFull    uint64
	applied         uint64
	conflicts       uint64
	coalesced       uint64
	busyTimeouts    uint64
	journalFailures uint64
	batches         uint64
	maxBatch        int
	batchSizes      [len(batchSizeBuckets) + 1]uint64
	batchSizeSum    uint64
	waitHist        histogram
	applyHist       histogram
}

func newUpdatePipeline(eng *core.Engine, gate *updateGate, cfg Config, store *nsStorage) *updatePipeline {
	return &updatePipeline{
		eng:   eng,
		gate:  gate,
		cfg:   cfg,
		store: store,
		jobs:  make(chan *updateJob, cfg.UpdateQueueDepth),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
}

// enqueueMuts queues a request's mutations — /update's one, or a bulk
// request's whole array — as one job sharing one queue slot, one writer
// window, and one journal record. It starts the dispatcher on first use and
// returns the job to wait on. The error is errUpdateQueueClosed after close
// or nil; full reports a queue-full refusal.
func (p *updatePipeline) enqueueMuts(muts []memcloud.Mutation) (job *updateJob, full bool, err error) {
	job = &updateJob{muts: muts, enq: time.Now(), done: make(chan updateJobResult, 1)}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, false, errUpdateQueueClosed
	}
	if !p.started {
		p.started = true
		go p.run()
	}
	select {
	case p.jobs <- job:
		p.enqueued++
		p.mu.Unlock()
		return job, false, nil
	default:
		p.rejectedFull++
		p.mu.Unlock()
		return nil, true, nil
	}
}

// close stops the dispatcher, failing every still-queued job with
// errUpdateQueueClosed, and waits for it to exit. Idempotent.
func (p *updatePipeline) close() {
	p.mu.Lock()
	if p.closed {
		started := p.started
		p.mu.Unlock()
		if started {
			<-p.done
		}
		return
	}
	p.closed = true
	started := p.started
	p.mu.Unlock()
	close(p.stop)
	if started {
		<-p.done
	}
}

func (p *updatePipeline) run() {
	defer close(p.done)
	for {
		var first *updateJob
		select {
		case <-p.stop:
			p.drainClosed()
			return
		case first = <-p.jobs:
		}
		p.applyWindow(p.gather(first), true)
		if p.store != nil {
			// Between windows the dispatcher is the only mutator, so the
			// checkpoint snapshot is exactly the state the journal's last
			// record left — the compaction is loss-free by construction.
			p.store.maybeCheckpoint()
		}
	}
}

// collect forms a batch: the triggering job plus whatever is already queued,
// up to UpdateBatchMax mutations.
func (p *updatePipeline) collect(first *updateJob) []*updateJob {
	batch := []*updateJob{first}
	total := len(first.muts)
	for total < p.cfg.UpdateBatchMax {
		select {
		case j := <-p.jobs:
			batch = append(batch, j)
			total += len(j.muts)
		default:
			return batch
		}
	}
	return batch
}

// gather assembles a group-commit window's batches: the triggering batch
// plus — when GroupCommitWindow is set and the namespace journals — up to
// GroupCommitBatches-1 more gathered while deliberately lingering, so one
// fsync covers them all. The linger runs BEFORE the writer window is
// acquired, so readers are never held out while the dispatcher merely
// waits for company.
func (p *updatePipeline) gather(first *updateJob) [][]*updateJob {
	batches := [][]*updateJob{p.collect(first)}
	if p.store == nil || p.cfg.GroupCommitWindow <= 0 {
		return batches
	}
	linger := time.NewTimer(p.cfg.GroupCommitWindow)
	defer linger.Stop()
	for len(batches) < p.cfg.GroupCommitBatches {
		select {
		case j := <-p.jobs:
			batches = append(batches, p.collect(j))
		case <-p.stop:
			return batches
		case <-linger.C:
			return batches
		}
	}
	return batches
}

// coalesceBatch folds the batch before it reaches the journal or the
// graph: an add_edge and a later remove_edge of the same (undirected) edge
// within one batch annihilate — neither is journaled nor applied, and both
// report success at the batch's final epoch. Repeated toggles pair off
// innermost-first (add,remove,add,remove → nothing; add,remove,add → the
// last add survives).
//
// The semantics are optimistic and are pinned by TestUpdateCoalescing: a
// cancelled pair reports success even when the edge already existed before
// the batch, where sequential application would have reported a
// duplicate-edge conflict on the add and then removed the pre-existing
// edge. Clients that need the sequential behavior must split the pair
// across batches; the common stitch-then-undo flow (the edge is the
// batch's own) coalesces exactly.
//
// It returns the surviving mutations, each job mutation's index into them
// (-1 for a cancelled mutation; mutIdx[job][k] maps batch[job].muts[k]),
// and how many mutations were cancelled. Pairing crosses job boundaries in
// flattened batch order, so a bulk job's internal toggles and a toggle
// split across two queued singles coalesce identically.
func coalesceBatch(batch []*updateJob) (muts []memcloud.Mutation, mutIdx [][]int, cancelled int) {
	mutIdx = make([][]int, len(batch))
	if len(batch) == 1 && len(batch[0].muts) == 1 {
		mutIdx[0] = []int{0}
		return batch[0].muts, mutIdx, 0
	}
	type edgeKey [2]graph.NodeID
	keyOf := func(m memcloud.Mutation) edgeKey {
		u, v := m.U, m.V
		if u > v {
			u, v = v, u
		}
		return edgeKey{u, v}
	}
	total := 0
	for _, j := range batch {
		total += len(j.muts)
	}
	dead := make([]bool, total)
	var pendingAdds map[edgeKey][]int
	fi := 0
	for _, j := range batch {
		for _, m := range j.muts {
			switch m.Op {
			case memcloud.MutAddEdge:
				if pendingAdds == nil {
					pendingAdds = make(map[edgeKey][]int)
				}
				k := keyOf(m)
				pendingAdds[k] = append(pendingAdds[k], fi)
			case memcloud.MutRemoveEdge:
				k := keyOf(m)
				if s := pendingAdds[k]; len(s) > 0 {
					ai := s[len(s)-1]
					pendingAdds[k] = s[:len(s)-1]
					dead[ai], dead[fi] = true, true
					cancelled += 2
				}
			}
			fi++
		}
	}
	fi = 0
	for bi, j := range batch {
		idx := make([]int, len(j.muts))
		for k, m := range j.muts {
			if dead[fi] {
				idx[k] = -1
			} else {
				idx[k] = len(muts)
				muts = append(muts, m)
			}
			fi++
		}
		mutIdx[bi] = idx
	}
	return muts, mutIdx, cancelled
}

// pendRec is one coalesced batch inside a group-commit window: appended to
// the journal, waiting for the window's shared fsync before it may be
// applied and acked.
type pendRec struct {
	batch  []*updateJob
	muts   []memcloud.Mutation
	mutIdx [][]int
	size   int // mutations the batch carried (survivors + coalesced-away)
	mark   journal.Mark
	pulled time.Time // when the batch left the queue (wait-histogram end)
}

// apply runs one single-batch writer window — the pre-group-commit entry
// point, kept for the coalescing and panic-containment tests that drive
// the pipeline directly.
func (p *updatePipeline) apply(batch []*updateJob) {
	p.applyWindow([][]*updateJob{batch}, false)
}

// applyWindow opens one writer window for a group of coalesced batches
// that will share a single durability point. On a busy timeout every
// batch fails — each job gets the 503 contract its author would have
// gotten from the old per-request path. A failure caused by shutdown is
// reported as closed, not busy: "busy" invites a retry against a
// namespace that no longer exists and would pollute the busy_timeouts
// counter on every clean drop.
//
// When the namespace is persisted, the window runs in three phases inside
// the gate, preserving the WAL ordering recovery depends on:
//
//  1. append: every batch becomes one journal record (a batch whose
//     append fails is failed alone, unapplied);
//  2. sync: ONE shared flush+fsync covers all of them (group commit) —
//     a sync failure rolls the whole window out of the journal and fails
//     every batch in it, none applied;
//  3. apply+ack: each record is applied and its jobs acked, in append
//     order. Every ack therefore sits behind its covering fsync.
//
// With drain set (the dispatcher loop), phase 1 also pulls batches that
// queued while the gate was being acquired, up to GroupCommitBatches —
// under load this is what folds N queued updates into one fsync.
func (p *updatePipeline) applyWindow(batches [][]*updateJob, drain bool) {
	// Coalesce up front; fully-annihilated batches ack without any window.
	var recs []pendRec
	now := time.Now()
	for _, batch := range batches {
		if rec, ok := p.coalesceRec(batch, now); ok {
			recs = append(recs, rec)
		}
	}
	if len(recs) == 0 {
		return
	}
	if !p.gate.lock(p.cfg.UpdateLockWait, p.cfg.UpdateFairnessWindow, p.stop) {
		failure := errUpdateBusy
		select {
		case <-p.stop:
			failure = errUpdateQueueClosed
		default:
			p.mu.Lock()
			p.busyTimeouts++
			p.mu.Unlock()
		}
		for _, rec := range recs {
			failBatch(rec.batch, failure)
		}
		return
	}
	acquired := time.Now()
	for i := range recs {
		recs[i].pulled = acquired
	}

	if p.store != nil {
		// Phase 1 — append. Durability point ordering: every record must be
		// on stable storage before any of it mutates the graph. The appends
		// sit inside the writer window so a batch that fails to journal is
		// provably unapplied (a failed append is rolled back) — journal and
		// graph can never disagree about what happened.
		pending := recs[:0]
		for _, rec := range recs {
			var err error
			rec.mark, err = p.store.appendRecord(rec.muts)
			if err != nil {
				p.failJournal(rec.batch, err)
				continue
			}
			pending = append(pending, rec)
		}
		if drain {
			// Batches that queued while the gate was being acquired can ride
			// this window's fsync instead of paying for their own.
			pending = p.drainInto(pending)
		}
		recs = pending
		if len(recs) == 0 {
			p.gate.unlock()
			return
		}
		// Phase 2 — the shared fsync every ack below sits behind.
		if err := p.store.syncWindow(recs[0].mark); err != nil {
			p.gate.unlock()
			for _, rec := range recs {
				p.failJournal(rec.batch, err)
			}
			return
		}
	}

	// Phase 3 — apply and ack, in append order. A contained panic on
	// record i truncates the journal back to its mark — dropping records
	// i..end, none of which were acked — and fails their jobs.
	for i, rec := range recs {
		results, panicErr := p.applyContained(rec.muts, rec.mark)
		if panicErr != nil {
			for _, bad := range recs[i:] {
				failBatch(bad.batch, panicErr)
			}
			break
		}
		p.ackApplied(rec, results)
	}
	p.gate.unlock()
}

// coalesceRec coalesces one batch. A fully-annihilated batch is acked on
// the spot — no writer window, no journal record, no epoch movement;
// every job reports success as-of now — and ok is false.
func (p *updatePipeline) coalesceRec(batch []*updateJob, now time.Time) (pendRec, bool) {
	muts, mutIdx, cancelled := coalesceBatch(batch)
	size := 0
	for _, j := range batch {
		size += len(j.muts)
	}
	if cancelled > 0 {
		p.mu.Lock()
		p.coalesced += uint64(cancelled)
		p.mu.Unlock()
	}
	if len(muts) == 0 {
		epoch := p.eng.Cluster().Epoch()
		for _, j := range batch {
			wait := now.Sub(j.enq)
			p.waitHist.observe(wait)
			res := make([]memcloud.MutationResult, len(j.muts))
			for k := range res {
				res[k] = memcloud.MutationResult{NodeID: graph.InvalidNode, Epoch: epoch}
			}
			j.done <- updateJobResult{res: res, waitMicros: wait.Microseconds()}
		}
		return pendRec{}, false
	}
	return pendRec{batch: batch, muts: muts, mutIdx: mutIdx, size: size}, true
}

// drainInto appends batches still arriving on the queue to the current
// window (gate already held), up to GroupCommitBatches records total.
func (p *updatePipeline) drainInto(pending []pendRec) []pendRec {
	for len(pending) < p.cfg.GroupCommitBatches {
		var j *updateJob
		select {
		case j = <-p.jobs:
		default:
			return pending
		}
		rec, ok := p.coalesceRec(p.collect(j), time.Now())
		if !ok {
			continue
		}
		rec.pulled = time.Now()
		var err error
		rec.mark, err = p.store.appendRecord(rec.muts)
		if err != nil {
			p.failJournal(rec.batch, err)
			continue
		}
		pending = append(pending, rec)
	}
	return pending
}

// failJournal answers every job of a batch whose record could not be made
// durable and counts the failure.
func (p *updatePipeline) failJournal(batch []*updateJob, err error) {
	p.mu.Lock()
	p.journalFailures++
	p.mu.Unlock()
	failBatch(batch, fmt.Errorf("%w: %v", errUpdateJournal, err))
}

func failBatch(batch []*updateJob, err error) {
	for _, j := range batch {
		j.done <- updateJobResult{err: err}
	}
}

// ackApplied publishes one applied record's counters and answers its jobs.
// Cancelled mutations report success at the batch's final epoch — the
// state the surviving mutations left behind.
func (p *updatePipeline) ackApplied(rec pendRec, results []memcloud.MutationResult) {
	p.mu.Lock()
	p.batches++
	if rec.size > p.maxBatch {
		p.maxBatch = rec.size
	}
	bi := 0
	for bi < len(batchSizeBuckets) && rec.size > batchSizeBuckets[bi] {
		bi++
	}
	p.batchSizes[bi]++
	p.batchSizeSum += uint64(rec.size)
	for _, r := range results {
		if r.Err != nil {
			p.conflicts++
		} else {
			p.applied++
		}
	}
	p.mu.Unlock()

	finalEpoch := results[len(results)-1].Epoch
	for i, j := range rec.batch {
		wait := rec.pulled.Sub(j.enq)
		p.waitHist.observe(wait)
		res := make([]memcloud.MutationResult, len(j.muts))
		for k, mi := range rec.mutIdx[i] {
			if mi >= 0 {
				res[k] = results[mi]
			} else {
				res[k] = memcloud.MutationResult{NodeID: graph.InvalidNode, Epoch: finalEpoch}
			}
		}
		j.done <- updateJobResult{res: res, waitMicros: wait.Microseconds()}
	}
}

// applyContained applies one record's batch under the already-acquired
// writer window, converting a panic into errUpdateInternal — the blast
// radius of a poisoned mutation must stay one window, not the process
// (the dispatcher goroutine has no net/http recover above it). On a panic
// the journaled record is rolled back while the gate is still held: every
// affected job is being answered 500, so the record must not survive to
// replay — and a wal tail reader entering the gate after this window must
// never see a record that is about to be discarded. The rollback
// truncates from this record's mark to the journal's end, so any later
// records of the same window (none of them acked yet) are discarded with
// it. The cluster's own locks were released by their defers; the graph
// may hold the batch's earlier mutations (best effort, like a crashed
// inline handler).
func (p *updatePipeline) applyContained(muts []memcloud.Mutation, mark journal.Mark) (results []memcloud.MutationResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", errUpdateInternal, r)
			if p.store != nil {
				p.store.discardAppended(mark)
			}
		}
	}()
	start := time.Now()
	results = p.eng.Cluster().ApplyBatch(muts)
	p.applyHist.observe(time.Since(start))
	return results, nil
}

// drainClosed fails everything still queued at close time.
func (p *updatePipeline) drainClosed() {
	for {
		select {
		case j := <-p.jobs:
			j.done <- updateJobResult{err: errUpdateQueueClosed}
		default:
			return
		}
	}
}

// stats snapshots the pipeline for /stats.
func (p *updatePipeline) stats() UpdateQueueInfo {
	p.mu.Lock()
	info := UpdateQueueInfo{
		Depth:           cap(p.jobs),
		Queued:          len(p.jobs),
		Enqueued:        p.enqueued,
		RejectedFull:    p.rejectedFull,
		Applied:         p.applied,
		Conflicts:       p.conflicts,
		Coalesced:       p.coalesced,
		BusyTimeouts:    p.busyTimeouts,
		JournalFailures: p.journalFailures,
		Batches:         p.batches,
		MaxBatch:        p.maxBatch,
		BatchSizeSum:    p.batchSizeSum,
	}
	sizes := p.batchSizes
	p.mu.Unlock()
	// The internal array counts each batch in exactly one bucket; publish
	// the Prometheus-style cumulative form (Count = observations ≤ Le), so
	// the final unbounded bucket equals the total batch count.
	info.BatchSizes = make([]BucketCount, 0, len(sizes))
	var cum uint64
	for i, n := range sizes {
		le := -1 // the overflow bucket is unbounded
		if i < len(batchSizeBuckets) {
			le = batchSizeBuckets[i]
		}
		cum += n
		info.BatchSizes = append(info.BatchSizes, BucketCount{Le: le, Count: cum})
	}
	info.Wait = p.waitHist.snapshot()
	info.Apply = p.applyHist.snapshot()
	return info
}
