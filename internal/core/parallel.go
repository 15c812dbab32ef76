package core

import (
	"runtime"
	"sync"
)

// Intra-machine parallelism. The cluster already fans one goroutine out per
// simulated machine (memcloud.ParallelEach); the worker pool below adds a
// second level inside each machine so a multi-core host is saturated even
// with few machines. Two phases use it: STwig matching chunks its
// surviving-roots list, and the pipelined join fans the driver relation's
// blocks out to independent joiners. The proxy's binding synchronization
// between two matching steps is sequential — it sets bits into one set per
// covered query vertex (Bindings.rebind) and has nothing to merge.
//
// The pool is run-scoped: one per query execution, sized by
// Options.Parallelism, shared by every machine goroutine of that run; its
// goroutines are started by the first batch of more than one task. Only
// leaf tasks are ever submitted — machine goroutines submit and wait, and
// tasks never submit tasks — so the pool cannot deadlock on itself.

// effectiveParallelism resolves Options.Parallelism to a worker count.
// SimulateParallel forces 1: modeled per-machine times require strictly
// sequential phases, and intra-machine concurrency would corrupt them.
func (o Options) effectiveParallelism() int {
	if o.SimulateParallel {
		return 1
	}
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// workerPool runs tasks on a fixed set of goroutines, started by the first
// batch that needs them: most runs (every selective query) never fan out,
// and pay for no goroutine. A nil pool is valid and runs everything inline
// on the caller's goroutine — the sequential mode when effective
// parallelism is 1.
type workerPool struct {
	size  int
	start sync.Once
	tasks chan func() // nil until started
	wg    sync.WaitGroup
}

// newWorkerPool returns a pool of size workers, none of them running yet;
// it returns nil (the inline pool) when size would leave nothing to
// parallelize.
func newWorkerPool(size int) *workerPool {
	if size <= 1 {
		return nil
	}
	return &workerPool{size: size}
}

// runAll dispatches tasks and waits until every one has finished. It is
// safe for concurrent use: machine goroutines of one run submit through the
// same channel and each waits only on its own batch. The channel is
// unbuffered, so submission applies backpressure instead of queueing
// unboundedly. Tasks must not call runAll themselves (leaf tasks only).
func (p *workerPool) runAll(tasks []func()) {
	if p == nil || len(tasks) <= 1 {
		for _, task := range tasks {
			task()
		}
		return
	}
	p.start.Do(func() {
		p.tasks = make(chan func())
		p.wg.Add(p.size)
		for i := 0; i < p.size; i++ {
			go func() {
				defer p.wg.Done()
				for task := range p.tasks {
					task()
				}
			}()
		}
	})
	var wg sync.WaitGroup
	wg.Add(len(tasks))
	for _, task := range tasks {
		task := task
		p.tasks <- func() {
			defer wg.Done()
			task()
		}
	}
	wg.Wait()
}

// close stops the workers after all submitted tasks drain; a pool that
// never started has none. Call it once every runAll has returned. Safe on
// nil.
func (p *workerPool) close() {
	if p == nil || p.tasks == nil {
		return
	}
	close(p.tasks)
	p.wg.Wait()
}

// chunkRanges splits n items into at most maxChunks contiguous [lo,hi)
// ranges of at least minPer items each (the last ranges may differ by one).
// Chunk order is ascending, so concatenating per-chunk outputs in range
// order reproduces the sequential output exactly.
func chunkRanges(n, maxChunks, minPer int) [][2]int {
	if n <= 0 {
		return nil
	}
	if minPer < 1 {
		minPer = 1
	}
	chunks := (n + minPer - 1) / minPer
	if chunks > maxChunks {
		chunks = maxChunks
	}
	if chunks < 1 {
		chunks = 1
	}
	per, rem := n/chunks, n%chunks
	out := make([][2]int, 0, chunks)
	lo := 0
	for i := 0; i < chunks; i++ {
		size := per
		if i < rem {
			size++
		}
		out = append(out, [2]int{lo, lo + size})
		lo += size
	}
	return out
}
