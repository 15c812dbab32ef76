package main

import (
	"context"
	"fmt"
	"net/http"
	"slices"
	"time"

	"stwig/internal/server"
)

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// report is one workload's outcome: the driver-facing counts, the metrics in
// print order, and the first few failure messages.
type report struct {
	workload          string
	ops, passes       int
	attempted, failed int
	failures          []string
	metrics           []metric
}

func (rep *report) add(name string, value float64, unit string) {
	rep.metrics = append(rep.metrics, metric{name, value, unit})
}

func (rep *report) fail(format string, args ...any) {
	rep.failed++
	if len(rep.failures) < 8 {
		rep.failures = append(rep.failures, fmt.Sprintf(format, args...))
	}
}

// runConfig is how long and how often a run measures. The contract's
// -seconds is the timed budget: whole passes of the fixed list are replayed
// until it is spent, and never fewer than passes — so an operation's floor is
// always over the same list and at least that many samples.
type runConfig struct {
	budget time.Duration
	passes int
	// boots is how many cold starts setup_s is the median of.
	boots int
}

// runner drives one booted topology for one workload.
type runner struct {
	w   *workloadData
	t   *topology
	c   *conn
	rep *report
	// tr, when set, receives a span per operation as pass k of the traced
	// run completes it.
	tr *tracer
	k  int
}

// span records op i's interval at the named depth if the run is traced.
func (rn *runner) span(name, parent string, i int, start time.Time, ns int64) {
	if rn.tr != nil {
		rn.tr.add(name, parent, i, rn.k, start, ns)
	}
}

// sample is one operation's outcome in one pass; ok is false for a failed
// operation, which then has no latency.
type sample struct {
	opSample
	ok bool
}

// counters is a reading of every process's runtime.MemStats, taken between
// passes.
type counters struct {
	mallocs int64 // summed over processes
	heap    []memStats
}

func (rn *runner) readCPU() ([]int64, error) {
	out := make([]int64, len(rn.t.all))
	for i, d := range rn.t.all {
		ns, err := d.cpuNanos()
		if err != nil {
			return nil, err
		}
		out[i] = ns
	}
	return out, nil
}

func (rn *runner) readHeap() (counters, error) {
	var c counters
	for _, d := range rn.t.all {
		ms, err := d.heapStats(false)
		if err != nil {
			return c, err
		}
		c.heap = append(c.heap, ms)
		c.mallocs += ms.mallocs
	}
	return c, nil
}

// pass replays the whole list once on the timed connection. A failed
// operation is counted and, if the daemon is still alive, the pass goes on
// with a fresh connection; a dead daemon ends the run with its stderr tail.
func (rn *runner) pass(out []sample) error {
	for i := range rn.w.ops {
		o := &rn.w.ops[i]
		s := &out[i]
		*s = sample{}
		err := rn.c.do(o, &s.opSample)
		if err == nil && o.isQuery() && s.stats.Matches != o.wantMatches {
			err = fmt.Errorf("%d matches, oracle says %d", s.stats.Matches, o.wantMatches)
		}
		rn.rep.attempted++
		if err == nil {
			s.ok = true
			rn.span("net.roundtrip", o.clientSpan(), i, s.start, s.totalNs)
			continue
		}
		rn.rep.fail("op %d: %v", i, err)
		if derr := rn.t.dead(); derr != nil {
			return derr
		}
		rn.c.close()
		if rn.c, err = dial(rn.t.front.addr); err != nil {
			return err
		}
	}
	return nil
}

// verify runs every operation once through the full client (client.Query
// decodes every record) and compares each query's match count and
// order-independent assignment hash with the oracle's. It returns the per-op
// wall times: the fully decoding client's depth of the trace.
func (rn *runner) verify(ctx context.Context) ([]int64, error) {
	cl := rn.t.front.cl
	out := make([]int64, len(rn.w.ops))
	for i := range rn.w.ops {
		o := &rn.w.ops[i]
		opCtx, cancel := context.WithTimeout(ctx, opTimeout)
		start := time.Now()
		var err error
		if o.isQuery() {
			n, hash := 0, uint64(0)
			_, err = cl.Query(opCtx, server.QueryRequest{Pattern: o.pattern}, func(a []int64) bool {
				n++
				hash += hashAssignment(a)
				return true
			})
			if err == nil && (n != o.wantMatches || hash != o.wantHash) {
				err = fmt.Errorf("%d matches hash %016x, oracle says %d hash %016x", n, hash, o.wantMatches, o.wantHash)
			}
		} else {
			name := server.OpAddEdge
			if o.kind == opRemoveEdge {
				name = server.OpRemoveEdge
			}
			_, err = cl.Update(opCtx, server.UpdateRequest{Op: name, U: int64(o.mut.U), V: int64(o.mut.V)})
		}
		out[i] = int64(time.Since(start))
		cancel()
		rn.rep.attempted++
		if err != nil {
			out[i] = noSample
			rn.rep.fail("verify op %d: %v", i, err)
			if derr := rn.t.dead(); derr != nil {
				return nil, derr
			}
			continue
		}
		rn.span(o.clientSpan(), "", i, start, out[i])
	}
	return out, nil
}

// stats fetches the front process's /v1/stats.
func (rn *runner) stats(ctx context.Context) (*server.StatsResponse, error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	return rn.t.front.cl.Stats(ctx)
}

// column extracts one field of every pass's samples as a [pass][op] matrix,
// restricted to the ops keep selects; failed ops become noSample.
func column(passes [][]sample, ops []op, keep func(*op) bool, field func(*sample) int64) [][]int64 {
	out := make([][]int64, len(passes))
	for k, pass := range passes {
		for i := range pass {
			if !keep(&ops[i]) {
				continue
			}
			v := int64(noSample)
			if pass[i].ok {
				v = field(&pass[i])
			}
			out[k] = append(out[k], v)
		}
	}
	return out
}

func isQueryOp(o *op) bool  { return o.isQuery() }
func isUpdateOp(o *op) bool { return !o.isQuery() }

const (
	nsPerMs = 1e6
	nsPerUs = 1e3
)

// bootAll cold-starts the topology cfg.boots times, keeps the last one
// running for the measurement, and returns every boot's duration.
func bootAll(ctx context.Context, r *rig, w *workloadData, boots int) (*topology, []float64, error) {
	var t *topology
	var secs []float64
	for b := 0; b < boots; b++ {
		if t != nil {
			t.stop()
		}
		var err error
		if t, err = r.boot(ctx, w, b); err != nil {
			return nil, nil, err
		}
		secs = append(secs, t.bootSeconds)
	}
	return t, secs, nil
}

// runTimed is the untraced run: boot, verify against the oracle, warm up,
// then replay the list for whole passes and report the end-to-end metrics.
func runTimed(ctx context.Context, r *rig, w *workloadData, cfg runConfig) (*report, error) {
	rep := &report{workload: w.spec.name, ops: len(w.ops)}
	t, bootSecs, err := bootAll(ctx, r, w, cfg.boots)
	if err != nil {
		return nil, err
	}
	defer t.stop()
	rn := &runner{w: w, t: t, rep: rep}
	if _, err := rn.verify(ctx); err != nil {
		return nil, err
	}
	// The timed run needs the oracle no more; dropping its graph keeps the
	// harness's own collector idle while the daemon is being timed.
	w.oracle = nil
	freeMemory()

	if rn.c, err = dial(t.front.addr); err != nil {
		return nil, err
	}
	defer func() { rn.c.close() }()
	scratch := make([]sample, len(w.ops))
	if err := rn.pass(scratch); err != nil { // warm-up: plan cache, arenas, connection
		return nil, err
	}

	var passes [][]sample
	var cpuPerQuery, mallocsPerQuery []float64
	queries := float64(w.queryCount())
	before, err := rn.readHeap()
	if err != nil {
		return nil, err
	}
	for start := time.Now(); len(passes) < cfg.passes || time.Since(start) < cfg.budget; {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out := make([]sample, len(w.ops))
		cpu0, err := rn.readCPU()
		if err != nil {
			return nil, err
		}
		if err := rn.pass(out); err != nil {
			return nil, err
		}
		cpu1, err := rn.readCPU()
		if err != nil {
			return nil, err
		}
		after, err := rn.readHeap()
		if err != nil {
			return nil, err
		}
		passes = append(passes, out)
		cpuPerQuery = append(cpuPerQuery, float64(sum(cpu1)-sum(cpu0))/queries)
		mallocsPerQuery = append(mallocsPerQuery, float64(after.mallocs-before.mallocs)/queries)
		before = after
	}
	rep.passes = len(passes)

	var liveHeap int64
	for _, d := range t.all {
		ms, err := d.heapStats(true)
		if err != nil {
			return nil, err
		}
		liveHeap += ms.heapAlloc
	}
	if w.spec.rw {
		if err := rn.checkUnchanged(ctx); err != nil {
			return nil, err
		}
	}

	total := valid(floors(column(passes, w.ops, isQueryOp, func(s *sample) int64 { return s.totalNs })))
	var bodyBytes, matches int64
	for i, s := range passes[len(passes)-1] {
		if s.ok && w.ops[i].isQuery() {
			bodyBytes += int64(s.bodyBytes)
			matches += int64(s.stats.Matches)
		}
	}
	rep.add("setup_s", percentile(bootSecs, 0.5), "s")
	rep.add("query_p50_ms", percentile(total, 0.5)/nsPerMs, "ms")
	rep.add("query_p90_ms", percentile(total, 0.9)/nsPerMs, "ms")
	rep.add("queries_per_s", ratio(float64(len(total)), float64(sum(total))/1e9), "1/s")
	rep.add("wire_bytes_per_match", ratio(float64(bodyBytes), float64(matches)), "B")
	rep.add("server_cpu_ms_per_query", slices.Min(cpuPerQuery)/nsPerMs, "ms")
	rep.add("server_allocs_per_query", percentile(mallocsPerQuery, 0.5), "count")
	rep.add("server_live_heap_mb", float64(liveHeap)/(1<<20), "MB")
	return rep, nil
}

// checkUnchanged asserts a read-write workload left the graph as it found
// it: same vertex count, and as many edges removed as added.
func (rn *runner) checkUnchanged(ctx context.Context) error {
	st, err := rn.stats(ctx)
	if err != nil {
		return err
	}
	rn.rep.attempted++
	if st.Updates.EdgesAdded != st.Updates.EdgesRemoved || st.Updates.NodesAdded != 0 {
		rn.rep.fail("graph changed by the passes: %d edges added, %d removed, %d nodes added",
			st.Updates.EdgesAdded, st.Updates.EdgesRemoved, st.Updates.NodesAdded)
	}
	return nil
}

// discardWriter is the http.ResponseWriter of the in-process handler depth:
// it keeps the status and counts the bytes.
type discardWriter struct {
	header http.Header
	status int
	bytes  int
}

func (d *discardWriter) Header() http.Header {
	if d.header == nil {
		d.header = make(http.Header)
	}
	return d.header
}

func (d *discardWriter) WriteHeader(status int) {
	if d.status == 0 {
		d.status = status
	}
}

func (d *discardWriter) Write(p []byte) (int, error) {
	d.WriteHeader(http.StatusOK)
	d.bytes += len(p)
	return len(p), nil
}

func (d *discardWriter) Flush() {}
