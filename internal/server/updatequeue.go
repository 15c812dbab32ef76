package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"stwig/internal/core"
	"stwig/internal/journal"
	"stwig/internal/memcloud"
)

// This file is the namespace's update pipeline: a bounded FIFO queue of
// mutations in front of a single dispatcher goroutine. There is one level
// of batching: a writer window takes everything queued when it opens, and
// that is one journal record, one fsync and one memcloud.Cluster.ApplyBatch. It replaces the old bounded-poll writer acquisition, which lost
// every race against a steady reader stream — TryLock only succeeds in the
// instant no reader holds the gate, so a hot tenant starved its own updates
// forever (ROADMAP: "Backpressure on updates").
//
// Fairness is writer-priority with an epoch cutoff: a parked writer first
// grants arriving readers a bounded grace period (readerGrace, derived from
// Config.UpdateLockWait) to preserve read availability, then closes the gate
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
// only after the grace period elapses (the epoch cutoff), and releases
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
// writer has passed its grace period. The park is bounded by the
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

// readerGrace is how long a parked writer keeps admitting new readers
// before the cutoff: short enough to always fire before the writer's
// patience runs out, capped so a long patience does not starve updates.
func readerGrace(patience time.Duration) time.Duration {
	return min(100*time.Millisecond, patience/2)
}

// lock opens the writer window: it parks until every admitted reader has
// released, closing the gate to new readers once readerGrace(patience) has
// elapsed. It gives up after patience (or when stop closes), lifting the
// cutoff, and reports whether the window was acquired.
func (g *updateGate) lock(patience time.Duration, stop <-chan struct{}) bool {
	start := time.Now()
	deadline := start.Add(patience)
	cutoffAt := start.Add(readerGrace(patience))
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
	// res has one entry per job mutation, in request order.
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
// one writer window (see window) at a time.
type updatePipeline struct {
	eng  *core.Engine
	gate *updateGate
	cfg  Config
	// store, when non-nil, is the namespace's durable state: every window is
	// appended (and fsynced) there before ApplyBatch runs, and the
	// dispatcher runs the checkpoint cadence between windows.
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
		select {
		case <-p.stop:
			p.drainClosed()
			return
		case first := <-p.jobs:
			p.window(first)
		}
		if p.store != nil {
			// Between windows the dispatcher is the only mutator, so the
			// checkpoint snapshot is exactly the state the journal's last
			// record left — truncating the journal loses nothing.
			p.store.maybeCheckpoint()
		}
	}
}

// collect forms a window's batch: the triggering job plus whatever is
// already queued, up to UpdateBatchMax mutations. It returns the jobs and
// how many mutations they carry.
func (p *updatePipeline) collect(first *updateJob) (batch []*updateJob, total int) {
	batch = []*updateJob{first}
	total = len(first.muts)
	for total < p.cfg.UpdateBatchMax {
		select {
		case j := <-p.jobs:
			batch = append(batch, j)
			total += len(j.muts)
		default:
			return batch, total
		}
	}
	return batch, total
}

// window is one writer window, the write path's only batching level: take
// the gate, THEN collect — so whatever queued during the previous window's
// fsync and the wait for readers rides this one — journal the jobs'
// mutations as one record behind one fsync, apply them once in queue order,
// and ack each job its own slice of the results. Every ack therefore sits
// behind its covering fsync, and the record is on stable storage before any
// of it mutates the graph.
//
// On a busy timeout the jobs collected at that moment all fail — each gets
// the 503 contract its author would have gotten from the old per-request
// path. A failure caused by shutdown is reported as closed, not busy: "busy"
// invites a retry against a namespace that no longer exists and would
// pollute the busy_timeouts counter on every clean drop.
func (p *updatePipeline) window(first *updateJob) {
	if !p.gate.lock(p.cfg.UpdateLockWait, p.stop) {
		failure := errUpdateBusy
		select {
		case <-p.stop:
			failure = errUpdateQueueClosed
		default:
			p.mu.Lock()
			p.busyTimeouts++
			p.mu.Unlock()
		}
		batch, _ := p.collect(first)
		failBatch(batch, failure)
		return
	}
	batch, total := p.collect(first)
	pulled := time.Now()
	muts := first.muts
	if len(batch) > 1 {
		muts = make([]memcloud.Mutation, 0, total)
		for _, j := range batch {
			muts = append(muts, j.muts...)
		}
	}
	results, err := p.commit(muts)
	p.gate.unlock()
	if err != nil {
		failBatch(batch, err)
		return
	}

	p.mu.Lock()
	p.batches++
	p.maxBatch = max(p.maxBatch, len(muts))
	bi := 0
	for bi < len(batchSizeBuckets) && len(muts) > batchSizeBuckets[bi] {
		bi++
	}
	p.batchSizes[bi]++
	p.batchSizeSum += uint64(len(muts))
	for _, r := range results {
		if r.Err != nil {
			p.conflicts++
		} else {
			p.applied++
		}
	}
	p.mu.Unlock()

	for _, j := range batch {
		wait := pulled.Sub(j.enq)
		p.waitHist.observe(wait)
		n := len(j.muts)
		j.done <- updateJobResult{res: results[:n:n], waitMicros: wait.Microseconds()}
		results = results[n:]
	}
}

// commit is the journal-then-apply step, run with the writer window held
// (the dispatcher's window and the replication follower both come through
// here). When the namespace is persisted the batch is appended and fsynced
// as one record first; a batch that cannot be made durable is NOT applied —
// acking a mutation the journal does not hold would break the recovery
// contract. If the apply then panics the record is rolled back while the
// gate is still held: every affected job is being answered 500, so the
// record must not survive to replay — and a wal tail reader entering the
// gate after this window must never see a record that is about to be
// discarded. The graph may hold the batch's earlier mutations (best effort,
// like a crashed inline handler).
func (p *updatePipeline) commit(muts []memcloud.Mutation) ([]memcloud.MutationResult, error) {
	var mark journal.Mark
	if p.store != nil {
		var err error
		if mark, err = p.store.appendBatch(muts); err != nil {
			p.mu.Lock()
			p.journalFailures++
			p.mu.Unlock()
			return nil, fmt.Errorf("%w: %v", errUpdateJournal, err)
		}
	}
	start := time.Now()
	results, err := applyContained(p.eng, muts)
	if err != nil {
		if p.store != nil {
			p.store.discardAppended(mark)
		}
		return nil, err
	}
	p.applyHist.observe(time.Since(start))
	return results, nil
}

// applyContained is the write path's one recover boundary (live windows,
// replicated records and recovery replay all apply through it): a panic out
// of ApplyBatch comes back as errUpdateInternal — the blast radius of a
// poisoned mutation must stay one batch, not the process (the dispatcher
// goroutine has no net/http recover above it). The cluster's own locks were
// released by their defers.
func applyContained(eng *core.Engine, muts []memcloud.Mutation) (results []memcloud.MutationResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", errUpdateInternal, r)
		}
	}()
	return eng.Cluster().ApplyBatch(muts), nil
}

func failBatch(batch []*updateJob, err error) {
	for _, j := range batch {
		j.done <- updateJobResult{err: err}
	}
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
