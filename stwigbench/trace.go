package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"stwig/internal/core"
	"stwig/internal/graph"
	"stwig/internal/journal"
	"stwig/internal/memcloud"
	"stwig/internal/pattern"
	"stwig/internal/server"
)

// tracePasses is how many passes each traced depth's floor is taken over.
const tracePasses = 5

// span is one traced interval. The five query depths — client.query (fully
// decoding client, live daemon), net.roundtrip (timed client, live daemon),
// server.loopback (timed client, server inside the harness behind a socket),
// server.handler (that server's ServeHTTP called directly), core.match (the
// engine in process) with its plan/explore/join children — are executed
// separately on the same operation, so Parent names the depth that contains
// this one in a real request, not an enclosing interval of one execution.
type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	Op      int    `json:"op"`
	Pass    int    `json:"pass"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func (tr *tracer) add(name, parent string, op, pass int, start time.Time, durNs int64) {
	s := int64(start.Sub(tr.epoch))
	tr.spans = append(tr.spans, span{Name: name, Parent: parent, Op: op, Pass: pass, StartNs: s, EndNs: s + durNs})
}

func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// matrix is a [pass][op] table of nanosecond samples, noSample where the
// depth does not apply to the op.
type matrix [][]int64

func newMatrix(passes, ops int) matrix {
	m := make(matrix, passes)
	for k := range m {
		m[k] = make([]int64, ops)
		for i := range m[k] {
			m[k][i] = noSample
		}
	}
	return m
}

// only keeps the floor slots of the ops keep selects, as floors(column(..))
// does for the live passes.
func only(fl []int64, ops []op, keep func(*op) bool) []int64 {
	out := make([]int64, 0, len(fl))
	for i, v := range fl {
		if keep(&ops[i]) {
			out = append(out, v)
		}
	}
	return out
}

// mallocs reads the harness's own cumulative allocation count and bytes.
func mallocs() (count, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// engineDepth replays the list on the in-process engine (the oracle), timing
// MatchStreamBlocks for queries and ApplyBatch for updates.
type engineDepth struct {
	total, plan, explore, join, apply matrix
	// Per query, from one extra untimed pass that reads runtime.MemStats
	// around every query (so update ops do not count).
	netMessages, parallelTasks, allocs, allocKB float64
}

func traceEngine(w *workloadData, tr *tracer) (*engineDepth, error) {
	n := len(w.ops)
	d := &engineDepth{
		total: newMatrix(tracePasses, n), plan: newMatrix(tracePasses, n), explore: newMatrix(tracePasses, n),
		join: newMatrix(tracePasses, n), apply: newMatrix(tracePasses, n),
	}
	eng := w.oracle
	queries := float64(w.queryCount())
	discard := func(ms []core.Match) (int, bool) { return len(ms), true }
	// Pass -1 warms the plan cache; pass tracePasses is untimed and counts
	// allocations and the engine's own counters instead.
	for k := -1; k <= tracePasses; k++ {
		timed, counting := k >= 0 && k < tracePasses, k == tracePasses
		for i := range w.ops {
			o := &w.ops[i]
			if !o.isQuery() {
				start := time.Now()
				res := eng.Cluster().ApplyBatch([]memcloud.Mutation{o.mut})
				ns := int64(time.Since(start))
				if res[0].Err != nil {
					return nil, fmt.Errorf("in-process update %d: %w", i, res[0].Err)
				}
				if timed {
					d.apply[k][i] = ns
					tr.add("memcloud.apply", "server.update_handler", i, k, start, ns)
				}
				continue
			}
			var c0, b0 uint64
			if counting {
				c0, b0 = mallocs()
			}
			start := time.Now()
			st, err := eng.MatchStreamBlocks(context.Background(), o.query, discard)
			ns := int64(time.Since(start))
			if err != nil {
				return nil, fmt.Errorf("in-process query %d: %w", i, err)
			}
			if counting {
				c1, b1 := mallocs()
				d.allocs += float64(c1-c0) / queries
				d.allocKB += float64(b1-b0) / 1024 / queries
				d.netMessages += float64(st.Net.Messages) / queries
				d.parallelTasks += float64(st.ParallelTasks) / queries
			}
			if timed {
				d.total[k][i], d.plan[k][i], d.explore[k][i], d.join[k][i] = ns, int64(st.PlanTime), int64(st.ExploreTime), int64(st.JoinTime)
				tr.add("core.match", "server.handler", i, k, start, ns)
				tr.add("core.plan", "core.match", i, k, start, int64(st.PlanTime))
				tr.add("core.explore", "core.match", i, k, start.Add(st.PlanTime), int64(st.ExploreTime))
				tr.add("core.join", "core.match", i, k, start.Add(st.PlanTime+st.ExploreTime), int64(st.JoinTime))
			}
		}
	}
	return d, nil
}

// handlerDepth replays the list through the daemon's handler stack inside the
// harness, on a server.Server built the way cmd/stwigd builds its own: first
// by calling ServeHTTP directly into a discarding writer (total), then over a
// real loopback socket with the timed client (loopback). Their difference is
// what HTTP framing and the socket cost a response; loopback against the live
// daemon's floor tells whether the layers timed here explain the real thing.
type handlerDepth struct {
	total, loopback matrix
	allocs          float64 // per query, counted like engineDepth.allocs
}

func traceHandler(w *workloadData, tr *tracer) (*handlerDepth, error) {
	cfg := server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
	if w.spec.rw {
		cfg.DataDir = filepath.Join(w.dir, "inproc-data")
	}
	srv, err := server.NewMulti(cfg)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	if err := srv.AddNamespaceSpec(server.NamespaceSpec{
		Name: server.DefaultNamespace, Source: "file", Path: w.graphFile, Machines: daemonMachines,
	}); err != nil {
		return nil, err
	}
	d := &handlerDepth{total: newMatrix(tracePasses, len(w.ops)), loopback: newMatrix(tracePasses, len(w.ops))}
	queries := float64(w.queryCount())
	for k := -1; k <= tracePasses; k++ {
		timed, counting := k >= 0 && k < tracePasses, k == tracePasses
		for i := range w.ops {
			o := &w.ops[i]
			path, name := "/v1/query", "server.handler"
			if !o.isQuery() {
				path, name = "/v1/update", "server.update_handler"
			}
			req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(o.body))
			if err != nil {
				return nil, err
			}
			req.Header.Set("Content-Type", "application/json")
			var rw discardWriter
			var c0 uint64
			if counting && o.isQuery() {
				c0, _ = mallocs()
			}
			start := time.Now()
			srv.ServeHTTP(&rw, req)
			ns := int64(time.Since(start))
			if rw.status != http.StatusOK {
				return nil, fmt.Errorf("in-process handler op %d: HTTP %d", i, rw.status)
			}
			if counting && o.isQuery() {
				c1, _ := mallocs()
				d.allocs += float64(c1-c0) / queries
			}
			if timed {
				d.total[k][i] = ns
				tr.add(name, "server.loopback", i, k, start, ns)
			}
		}
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv}
	served := make(chan struct{})
	go func() {
		hs.Serve(l)
		close(served)
	}()
	defer func() {
		hs.Close()
		<-served
	}()
	c, err := dial(l.Addr().String())
	if err != nil {
		return nil, err
	}
	defer c.close()
	for k := -1; k < tracePasses; k++ {
		for i := range w.ops {
			var s opSample
			start := time.Now()
			if err := c.do(&w.ops[i], &s); err != nil {
				return nil, fmt.Errorf("in-process server over loopback, op %d: %w", i, err)
			}
			if k >= 0 {
				d.loopback[k][i] = s.totalNs
				tr.add("server.loopback", "net.roundtrip", i, k, start, s.totalNs)
			}
		}
	}
	return d, nil
}

// traceJournal times the write path's durable half on a journal of the
// harness's own, one single-mutation record per update op as the sequential
// client produces them: encode + append, then flush + pad + fsync.
func traceJournal(w *workloadData, path string, tr *tracer) (encodeAppend, sync matrix, err error) {
	encodeAppend, sync = newMatrix(tracePasses, len(w.ops)), newMatrix(tracePasses, len(w.ops))
	jw, err := journal.OpenWriter(path, 0, 1)
	if err != nil {
		return nil, nil, err
	}
	defer jw.Close()
	for k := 0; k < tracePasses; k++ {
		for i := range w.ops {
			o := &w.ops[i]
			if o.isQuery() {
				continue
			}
			start := time.Now()
			body, err := journal.EncodeBatch([]memcloud.Mutation{o.mut})
			if err == nil {
				_, err = jw.Append(body)
			}
			mid := time.Now()
			if err == nil {
				err = jw.Sync()
			}
			end := time.Now()
			if err != nil {
				return nil, nil, err
			}
			encodeAppend[k][i], sync[k][i] = int64(mid.Sub(start)), int64(end.Sub(mid))
			tr.add("journal.encode_append", "server.update_handler", i, k, start, encodeAppend[k][i])
			tr.add("journal.sync", "server.update_handler", i, k, mid, sync[k][i])
		}
	}
	return encodeAppend, sync, nil
}

// timeLoadPath times the set-up layers on the harness's own copy of the load
// path: graph.ReadBinary of the file, then Cluster.LoadGraph.
func timeLoadPath(graphFile string) (readSeconds, loadSeconds float64, err error) {
	start := time.Now()
	f, err := os.Open(graphFile)
	if err != nil {
		return 0, 0, err
	}
	g, err := graph.ReadBinary(f)
	f.Close()
	if err != nil {
		return 0, 0, err
	}
	readSeconds = time.Since(start).Seconds()
	start = time.Now()
	cluster, err := memcloud.NewCluster(memcloud.Config{Machines: daemonMachines})
	if err != nil {
		return 0, 0, err
	}
	if err := cluster.LoadGraph(g); err != nil {
		return 0, 0, err
	}
	return readSeconds, time.Since(start).Seconds(), nil
}

// runTraced is the traced run: every operation is executed at five depths and
// the per-layer metrics are derived from the depths' floors, the daemon's own
// stats trailer and /v1/stats, and /proc. Spans are written to outDir.
func runTraced(ctx context.Context, r *rig, w *workloadData, outDir string) (*report, error) {
	rep := &report{workload: w.spec.name, ops: len(w.ops), passes: tracePasses}
	tr := &tracer{epoch: time.Now()}
	ops, nOps := w.ops, len(w.ops)
	queries, updates := float64(w.queryCount()), float64(nOps-w.queryCount())

	readSeconds, loadSeconds, err := timeLoadPath(w.graphFile)
	if err != nil {
		return nil, err
	}
	t, err := r.boot(ctx, w, 0)
	if err != nil {
		return nil, err
	}
	defer t.stop()
	rn := &runner{w: w, t: t, rep: rep}

	// Depth 1: the fully decoding client over loopback.
	rn.tr = tr
	decoded := newMatrix(tracePasses, nOps)
	for rn.k = 0; rn.k < tracePasses; rn.k++ {
		if decoded[rn.k], err = rn.verify(ctx); err != nil {
			return nil, err
		}
	}

	// Depth 2: the timed client over loopback — tracePasses without spans,
	// then tracePasses recording them; the difference is the tracing
	// overhead.
	if rn.c, err = dial(t.front.addr); err != nil {
		return nil, err
	}
	defer func() { rn.c.close() }()
	livePass := func(record bool) ([][]sample, error) {
		rn.tr = nil
		if record {
			rn.tr = tr
		}
		var passes [][]sample
		for rn.k = 0; rn.k < tracePasses; rn.k++ {
			out := make([]sample, nOps)
			if err := rn.pass(out); err != nil {
				return nil, err
			}
			passes = append(passes, out)
		}
		return passes, nil
	}
	rn.tr = nil
	if err := rn.pass(make([]sample, nOps)); err != nil { // warm-up
		return nil, err
	}
	untraced, err := livePass(false)
	if err != nil {
		return nil, err
	}
	stats0, err := rn.stats(ctx)
	if err != nil {
		return nil, err
	}
	heap0, err := rn.readHeap()
	if err != nil {
		return nil, err
	}
	var written0 int64
	for _, d := range t.all {
		written0 += d.writeBytes()
	}
	cpu0, err := rn.readCPU()
	if err != nil {
		return nil, err
	}
	live, err := livePass(true)
	if err != nil {
		return nil, err
	}
	cpu1, err := rn.readCPU()
	if err != nil {
		return nil, err
	}
	heap1, err := rn.readHeap()
	if err != nil {
		return nil, err
	}
	stats1, err := rn.stats(ctx)
	if err != nil {
		return nil, err
	}
	var written1, rssPeakKB int64
	for _, d := range t.all {
		written1 += d.writeBytes()
		rssPeakKB += d.procStatusKB("VmHWM")
	}
	rn.c.close()
	t.stop() // the in-process depths get the machine to themselves

	// Depths 3 and 4, and the write path's pieces, in process.
	eng, err := traceEngine(w, tr)
	if err != nil {
		return nil, err
	}
	hnd, err := traceHandler(w, tr)
	if err != nil {
		return nil, err
	}
	encodeAppend, syncNs, err := traceJournal(w, filepath.Join(w.dir, "inproc.journal"), tr)
	if err != nil {
		return nil, err
	}
	parse := newMatrix(tracePasses, nOps)
	for k := 0; k < tracePasses; k++ {
		for i := range ops {
			if ops[i].isQuery() {
				start := time.Now()
				if _, err := pattern.Parse(ops[i].pattern); err != nil {
					return nil, err
				}
				parse[k][i] = int64(time.Since(start))
				tr.add("pattern.parse", "server.handler", i, k, start, parse[k][i])
			}
		}
	}

	// Floors per op, per depth.
	queryFloors := func(m matrix) []int64 { return only(floors(m), ops, isQueryOp) }
	updateFloors := func(m matrix) []int64 { return only(floors(m), ops, isUpdateOp) }
	field := func(passes [][]sample, keep func(*op) bool, f func(*sample) int64) []int64 {
		return floors(column(passes, ops, keep, f))
	}
	d1 := queryFloors(decoded)
	d2 := field(live, isQueryOp, func(s *sample) int64 { return s.totalNs })
	d2plain := field(untraced, isQueryOp, func(s *sample) int64 { return s.totalNs })
	elapsed := field(live, isQueryOp, func(s *sample) int64 { return s.stats.ElapsedMicros * nsPerUs })
	d3 := queryFloors(hnd.total)
	d3wire := queryFloors(hnd.loopback)
	d4 := queryFloors(eng.total)
	firstMatch := field(live, isQueryOp, func(s *sample) int64 { return s.headerNs })
	u2 := field(live, isUpdateOp, func(s *sample) int64 { return s.totalNs })
	// The trailer's shards[].elapsed_us is the coordinator's own clock on
	// each leg and equals the merged elapsed_us, so the coordinator's cost
	// is taken as what the cluster path adds over serving the same query
	// directly from the in-process replica.
	var coordSelf []int64
	var coordCPUNs int64
	if w.spec.cluster {
		coordSelf = sub(d2, d3wire)
		front := len(t.all) - 1
		coordCPUNs = cpu1[front] - cpu0[front]
	}

	// One walk over the live samples: totals of the last pass, and the
	// all-sample (not floor) latencies of every pass.
	var matches, legBytes, hits int64
	var raw, rawUpdates []int64
	var updateMeans []float64 // per pass: Σ update latencies ÷ updates
	for k, pass := range live {
		var updateNs int64
		for i := range pass {
			s := &pass[i]
			switch {
			case !s.ok:
			case !ops[i].isQuery():
				rawUpdates = append(rawUpdates, s.totalNs)
				updateNs += s.totalNs
			default:
				raw = append(raw, s.totalNs)
				if s.stats.PlanCacheHit {
					hits++
				}
				if k == len(live)-1 {
					matches += int64(s.stats.Matches)
					for _, leg := range s.stats.Shards {
						legBytes += leg.Bytes
					}
				}
			}
		}
		updateMeans = append(updateMeans, ratio(float64(updateNs), updates))
	}
	var gcCycles, gcPauseNs int64
	for i := range heap1.heap {
		gcCycles += heap1.heap[i].numGC - heap0.heap[i].numGC
		gcPauseNs += heap1.heap[i].pauseSince(heap0.heap[i])
	}
	liveTotal := float64(tracePasses) * queries
	liveUpdates := float64(tracePasses) * updates
	us := func(xs []int64, p float64) float64 { return percentile(valid(xs), p) / nsPerUs }
	fsum := func(xs []int64) float64 { return float64(sum(valid(xs))) }

	rep.add("graph.gen_s", w.genSeconds, "s")
	rep.add("graph.read_binary_s", readSeconds, "s")
	rep.add("memcloud.load_graph_s", loadSeconds, "s")
	rep.add("pattern.parse_us_p50", us(queryFloors(parse), 0.5), "us")
	rep.add("core.plan_us_p50", us(queryFloors(eng.plan), 0.5), "us")
	rep.add("core.plan_cache_hit_ratio", ratio(float64(hits), float64(len(raw))), "ratio")
	rep.add("core.explore_us_p50", us(queryFloors(eng.explore), 0.5), "us")
	rep.add("core.net_messages_per_query", eng.netMessages, "count")
	rep.add("core.join_us_p50", us(queryFloors(eng.join), 0.5), "us")
	rep.add("core.ns_per_match", ratio(fsum(d4), float64(matches)), "ns")
	rep.add("core.match_us_p50", us(d4, 0.5), "us")
	rep.add("core.allocs_per_query", eng.allocs, "count")
	rep.add("core.alloc_kb_per_query", eng.allocKB, "KB")
	rep.add("core.parallel_tasks_per_query", eng.parallelTasks, "count")
	rep.add("server.handler_self_us_p50", us(sub(d3, d4), 0.5), "us")
	rep.add("server.encode_ns_per_match", ratio(fsum(sub(d3, d4)), float64(matches)), "ns")
	rep.add("server.encode_allocs_per_match", ratio((hnd.allocs-eng.allocs)*queries, float64(matches)), "count")
	rep.add("server.elapsed_us_p50", us(elapsed, 0.5), "us")
	rep.add("server.coordinator_self_us_p50", us(coordSelf, 0.5), "us")
	rep.add("server.coordinator_ns_per_match", ratio(fsum(coordSelf), float64(matches)), "ns")
	rep.add("server.coordinator_cpu_ms_per_query", float64(coordCPUNs)/nsPerMs/liveTotal, "ms")
	rep.add("server.leg_bytes_per_match", ratio(float64(legBytes), float64(matches)), "B")
	rep.add("server.update_handler_us_p50", us(updateFloors(hnd.total), 0.5), "us")
	rep.add("server.update_wait_us_p50", us(field(live, isUpdateOp, func(s *sample) int64 { return s.ack.WaitMicros * nsPerUs }), 0.5), "us")
	rep.add("journal.encode_append_us_p50", us(updateFloors(encodeAppend), 0.5), "us")
	rep.add("journal.sync_us_p50", us(updateFloors(syncNs), 0.5), "us")
	var fsyncs, journalBytes, checkpoints float64
	if stats0.Journal != nil && stats1.Journal != nil {
		fsyncs = float64(stats1.Journal.Fsyncs - stats0.Journal.Fsyncs)
		journalBytes = float64(stats1.Journal.Bytes - stats0.Journal.Bytes)
		checkpoints = float64(stats1.Journal.Checkpoints - stats0.Journal.Checkpoints)
	}
	rep.add("journal.fsyncs_per_update", ratio(fsyncs, liveUpdates), "count")
	rep.add("journal.bytes_per_update", ratio(journalBytes, liveUpdates), "B")
	rep.add("journal.file_bytes_per_update", ratio(float64(written1-written0), liveUpdates), "B")
	rep.add("journal.checkpoints", checkpoints, "count")
	rep.add("memcloud.apply_us_p50", us(updateFloors(eng.apply), 0.5), "us")
	rep.add("memcloud.garbage_words", float64(stats1.Updates.GarbageWords), "count")
	rep.add("memcloud.memory_bytes", float64(stats1.Graph.MemoryBytes), "B")
	rep.add("net.wire_self_us_p50", us(sub(d2, elapsed), 0.5), "us")
	rep.add("net.stream_self_us_p50", us(sub(d3wire, d3), 0.5), "us")
	rep.add("client.decode_ns_per_match", ratio(fsum(sub(d1, d2)), float64(matches)), "ns")
	rep.add("client.first_match_p50_ms", percentile(valid(firstMatch), 0.5)/nsPerMs, "ms")
	rep.add("client.raw_p50_ms", percentile(raw, 0.5)/nsPerMs, "ms")
	rep.add("client.raw_p99_ms", percentile(raw, 0.99)/nsPerMs, "ms")
	rep.add("client.raw_max_ms", percentile(raw, 1)/nsPerMs, "ms")
	rep.add("client.update_p50_ms", percentile(valid(u2), 0.5)/nsPerMs, "ms")
	rep.add("client.update_mean_ms", slices.Min(updateMeans)/nsPerMs, "ms")
	rep.add("client.update_raw_p99_ms", percentile(rawUpdates, 0.99)/nsPerMs, "ms")
	rep.add("client.update_raw_max_ms", percentile(rawUpdates, 1)/nsPerMs, "ms")
	rep.add("proc.rss_peak_mb", float64(rssPeakKB)/1024, "MB")
	rep.add("proc.gc_cycles_per_query", float64(gcCycles)/liveTotal, "count")
	rep.add("proc.gc_pause_us_per_query", float64(gcPauseNs)/nsPerUs/liveTotal, "us")
	// The layers of a query, bottom up, each timed inside the harness: the
	// engine, the handler around it, HTTP framing and the socket around
	// that (and, in a cluster, the coordinator path). If they explain the
	// live daemon's floor the ratio is 1.
	layers := fsum(d4) + fsum(sub(d3, d4)) + fsum(sub(d3wire, d3)) + fsum(coordSelf)
	rep.add("trace.layer_sum_ratio", ratio(layers, fsum(d2)), "ratio")
	rep.add("trace.overhead_pct", 100*ratio(percentile(valid(d2), 0.5)-percentile(valid(d2plain), 0.5), percentile(valid(d2plain), 0.5)), "%")

	return rep, tr.write(filepath.Join(outDir, "trace_"+w.spec.name+".json"))
}
