package server

import (
	"fmt"
	"math"
	"net/http"
	"runtime"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"time"

	"stwig/internal/core"
)

// Prometheus text-format exposition (version 0.0.4) at GET /metrics. The
// endpoint is read-only and unauthenticated, like GET /ns and the per-tenant
// stats routes: nothing here is secret, and scrapers are the whole point.
// Every per-tenant series carries an ns label; process-wide series carry
// none. The exposition is built from the same snapshots the JSON stats
// routes use, plus the raw cumulative bucket counts Prometheus histograms
// require (the JSON surface only ships quantile summaries).

const prometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// promWriter accumulates exposition text. A family's HELP/TYPE header is
// emitted once, immediately followed by all its samples, as the format
// requires.
type promWriter struct {
	b strings.Builder
}

func (p *promWriter) family(name, typ, help string) {
	fmt.Fprintf(&p.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// sample emits one sample line; labels is a preformatted {...} clause or "".
func (p *promWriter) sample(name, labels string, v float64) {
	if v == float64(int64(v)) {
		fmt.Fprintf(&p.b, "%s%s %d\n", name, labels, int64(v))
	} else {
		fmt.Fprintf(&p.b, "%s%s %g\n", name, labels, v)
	}
}

// promLabels formats key/value pairs (given alternating) into a {...}
// clause, escaping values per the text format.
func promLabels(kv ...string) string {
	esc := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	pairs := make([]string, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		pairs = append(pairs, fmt.Sprintf(`%s="%s"`, kv[i], esc.Replace(kv[i+1])))
	}
	return "{" + strings.Join(pairs, ",") + "}"
}

// latencyHistogram emits one conventional Prometheus histogram from the
// server's fixed-bucket latency histogram: cumulative _bucket series with
// le upper bounds in seconds, then _sum and _count. baseKV are the non-le
// label pairs shared by every series (may be empty).
func (p *promWriter) latencyHistogram(name string, h *histogram, baseKV ...string) {
	cum, count, sumSeconds := h.bucketCounts()
	for i, c := range cum {
		le := "+Inf"
		if i < len(latencyBucketsMS) {
			le = fmt.Sprintf("%g", latencyBucketsMS[i]/1000)
		}
		p.sample(name+"_bucket", promLabels(append(append([]string(nil), baseKV...), "le", le)...), float64(c))
	}
	base := ""
	if len(baseKV) > 0 {
		base = promLabels(baseKV...)
	}
	p.sample(name+"_sum", base, sumSeconds)
	p.sample(name+"_count", base, float64(count))
}

// goRuntime emits the process-wide Go runtime gauges. They are read here, at
// scrape time, from runtime/metrics — which does not stop the world — and
// nothing on the query path feeds them. The goroutine gauge includes up
// to GOMAXPROCS query-phase workers, parked between phases on an idle
// daemon too (memcloud.ParallelEach); running queries add goroutines only
// where their phases need more workers than are parked.
func (p *promWriter) goRuntime() {
	samples := []rtmetrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	rtmetrics.Read(samples)
	uint64Of := func(s rtmetrics.Sample) float64 {
		if s.Value.Kind() != rtmetrics.KindUint64 {
			return 0 // a runtime that does not export the metric
		}
		return float64(s.Value.Uint64())
	}
	p.family("stwig_go_goroutines", "gauge", "Goroutines that currently exist.")
	p.sample("stwig_go_goroutines", "", float64(runtime.NumGoroutine()))
	p.family("stwig_go_heap_inuse_bytes", "gauge", "Bytes in in-use heap spans (live and dead objects plus unused space in those spans).")
	p.sample("stwig_go_heap_inuse_bytes", "", uint64Of(samples[0])+uint64Of(samples[1]))
	p.family("stwig_go_gc_cycles_total", "counter", "Completed garbage collection cycles.")
	p.sample("stwig_go_gc_cycles_total", "", uint64Of(samples[2]))
	p.family("stwig_go_gc_pause_seconds_total", "counter", "Seconds the collector kept the process stopped, estimated from the runtime's pause histogram (bucket midpoints).")
	pause := 0.0
	if samples[3].Value.Kind() == rtmetrics.KindFloat64Histogram {
		h := samples[3].Value.Float64Histogram()
		for i, n := range h.Counts {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				hi = lo
			}
			pause += float64(n) * (lo + hi) / 2
		}
	}
	p.sample("stwig_go_gc_pause_seconds_total", "", pause)
}

// nsState is what one namespace contributes to every per-namespace family:
// extracted up front so each family's samples stay contiguous without
// re-snapshotting engines once per family.
type nsState struct {
	ns    *namespace
	label string // preformatted {ns="..."}
	snap  core.EngineSnapshot
	adm   AdmissionStats
	upd   UpdateQueueInfo
	jour  *JournalInfo
}

func (s *Server) handleMetrics(rq *request) *apiError {
	list := s.reg.list()
	states := make([]nsState, len(list))
	for i, ns := range list {
		states[i] = nsState{
			ns:    ns,
			label: promLabels("ns", ns.name),
			snap:  ns.eng.Snapshot(),
			adm:   ns.adm.stats(),
			upd:   ns.pipe.stats(),
			jour:  ns.store.journalStats(),
		}
	}

	var p promWriter

	p.family("stwig_uptime_seconds", "gauge", "Seconds since the server started.")
	p.sample("stwig_uptime_seconds", "", time.Since(s.start).Seconds())
	p.family("stwig_draining", "gauge", "1 once graceful shutdown has begun.")
	draining := 0.0
	if s.draining.Load() {
		draining = 1
	}
	p.sample("stwig_draining", "", draining)
	p.family("stwig_namespaces", "gauge", "Live namespaces in the registry.")
	p.sample("stwig_namespaces", "", float64(len(list)))
	p.goRuntime()

	// perNS emits one family with one sample per namespace.
	perNS := func(name, typ, help string, get func(st *nsState) float64) {
		p.family(name, typ, help)
		for i := range states {
			p.sample(name, states[i].label, get(&states[i]))
		}
	}

	// Graph shape.
	perNS("stwig_graph_nodes", "gauge", "Vertices in the namespace's graph.",
		func(st *nsState) float64 { return float64(st.snap.Nodes) })
	perNS("stwig_graph_machines", "gauge", "Simulated machines in the namespace's cluster.",
		func(st *nsState) float64 { return float64(st.snap.Machines) })
	// Gauge, not counter: the epoch regresses on namespace drop/re-create
	// and on a follower snapshot re-bootstrap, which would break
	// rate()/increase() over a counter series.
	perNS("stwig_graph_epoch", "gauge", "Mutation epoch of the namespace's graph.",
		func(st *nsState) float64 { return float64(st.snap.Epoch) })
	perNS("stwig_graph_memory_bytes", "gauge", "Estimated resident bytes across the namespace's machines.",
		func(st *nsState) float64 { return float64(st.snap.MemoryBytes) })

	// Engine.
	perNS("stwig_engine_queries_total", "counter", "Query executions reaching the engine.",
		func(st *nsState) float64 { return float64(st.snap.Queries) })
	perNS("stwig_engine_matches_emitted_total", "counter", "Matches delivered across all queries.",
		func(st *nsState) float64 { return float64(st.snap.MatchesEmitted) })
	perNS("stwig_engine_emit_flushes_total", "counter", "Batched match-block emit flushes.",
		func(st *nsState) float64 { return float64(st.snap.EmitFlushes) })

	// Simulated fabric traffic: the sum of the completed queries' own
	// ExecStats.Net.
	perNS("stwig_net_messages_total", "counter", "Simulated-fabric messages charged by completed queries, each counted by its own run.",
		func(st *nsState) float64 { return float64(st.snap.Net.Messages) })
	perNS("stwig_net_bytes_total", "counter", "Simulated-fabric bytes charged by completed queries, each counted by its own run.",
		func(st *nsState) float64 { return float64(st.snap.Net.Bytes) })

	// Admission control.
	perNS("stwig_admission_max_in_flight", "gauge", "Configured per-tenant concurrency limit.",
		func(st *nsState) float64 { return float64(st.adm.MaxInFlight) })
	perNS("stwig_admission_in_flight", "gauge", "Admitted, unfinished queries right now.",
		func(st *nsState) float64 { return float64(st.adm.InFlight) })
	perNS("stwig_admission_admitted_total", "counter", "Queries admitted since start.",
		func(st *nsState) float64 { return float64(st.adm.Admitted) })
	perNS("stwig_admission_rejected_total", "counter", "Queries refused by admission control.",
		func(st *nsState) float64 { return float64(st.adm.Rejected) })

	// Update pipeline counters.
	perNS("stwig_update_queue_depth", "gauge", "Configured update queue capacity.",
		func(st *nsState) float64 { return float64(st.upd.Depth) })
	perNS("stwig_update_queue_queued", "gauge", "Updates waiting in the queue right now.",
		func(st *nsState) float64 { return float64(st.upd.Queued) })
	perNS("stwig_update_enqueued_total", "counter", "Updates admitted to the queue.",
		func(st *nsState) float64 { return float64(st.upd.Enqueued) })
	perNS("stwig_update_rejected_full_total", "counter", "Updates refused because the queue was full.",
		func(st *nsState) float64 { return float64(st.upd.RejectedFull) })
	perNS("stwig_update_applied_total", "counter", "Mutations applied successfully.",
		func(st *nsState) float64 { return float64(st.upd.Applied) })
	perNS("stwig_update_conflicts_total", "counter", "Mutations that failed validation at apply time.",
		func(st *nsState) float64 { return float64(st.upd.Conflicts) })
	perNS("stwig_update_busy_timeouts_total", "counter", "Batches abandoned waiting for the writer window.",
		func(st *nsState) float64 { return float64(st.upd.BusyTimeouts) })
	perNS("stwig_update_journal_failures_total", "counter", "Batches failed because their journal record could not be made durable.",
		func(st *nsState) float64 { return float64(st.upd.JournalFailures) })
	perNS("stwig_update_batches_total", "counter", "Batches applied (journal records).",
		func(st *nsState) float64 { return float64(st.upd.Batches) })

	// Batch-size histogram. stats() emits BatchSizes cumulatively with the
	// unbounded bucket (Le = -1) last, which maps directly onto le="+Inf"
	// and equals Batches — the _count series below, as the exposition
	// format requires. _sum is the summed batch size the pipeline
	// accumulates, so _sum/_count is the mean applied batch size.
	p.family("stwig_update_batch_size", "histogram", "Distribution of applied batch sizes.")
	for i := range states {
		st := &states[i]
		for _, b := range st.upd.BatchSizes {
			le := "+Inf"
			if b.Le >= 0 {
				le = fmt.Sprintf("%d", b.Le)
			}
			p.sample("stwig_update_batch_size_bucket", promLabels("ns", st.ns.name, "le", le), float64(b.Count))
		}
		p.sample("stwig_update_batch_size_sum", st.label, float64(st.upd.BatchSizeSum))
		p.sample("stwig_update_batch_size_count", st.label, float64(st.upd.Batches))
	}

	// Update latency histograms, from the pipeline's raw buckets.
	p.family("stwig_update_wait_seconds", "histogram", "Time updates sat queued before their batch applied.")
	for i := range states {
		p.latencyHistogram("stwig_update_wait_seconds", &states[i].ns.pipe.waitHist, "ns", states[i].ns.name)
	}
	p.family("stwig_update_apply_seconds", "histogram", "Per-batch apply time.")
	for i := range states {
		p.latencyHistogram("stwig_update_apply_seconds", &states[i].ns.pipe.applyHist, "ns", states[i].ns.name)
	}

	// Durability. Families only materialize when at least one namespace is
	// persisted; gauges for positions/sizes, counters for activity.
	if anyJournal(states) {
		perJournal := func(name, typ, help string, get func(j *JournalInfo) float64) {
			p.family(name, typ, help)
			for i := range states {
				if j := states[i].jour; j != nil {
					p.sample(name, states[i].label, get(j))
				}
			}
		}
		perJournal("stwig_journal_records_total", "counter", "Journal records appended.",
			func(j *JournalInfo) float64 { return float64(j.Records) })
		perJournal("stwig_journal_bytes_total", "counter", "Journal bytes appended, as framed on disk (body plus record overhead).",
			func(j *JournalInfo) float64 { return float64(j.Bytes) })
		perJournal("stwig_journal_fsyncs_total", "counter", "Durability syncs issued for journal appends.",
			func(j *JournalInfo) float64 { return float64(j.Fsyncs) })
		perJournal("stwig_journal_last_seq", "gauge", "Sequence number of the newest journaled batch.",
			func(j *JournalInfo) float64 { return float64(j.LastSeq) })
		perJournal("stwig_journal_size_bytes", "gauge", "Journal file length.",
			func(j *JournalInfo) float64 { return float64(j.SizeBytes) })
		perJournal("stwig_journal_checkpoints_total", "counter", "Completed checkpoints: cluster snapshot written, journal truncated.",
			func(j *JournalInfo) float64 { return float64(j.Checkpoints) })
		perJournal("stwig_journal_checkpoint_errors_total", "counter", "Failed checkpoint attempts.",
			func(j *JournalInfo) float64 { return float64(j.CheckpointErrors) })
	}

	// Replication. Families only materialize on a server started with
	// -follow; every sample reflects that namespace's tail position versus
	// the leader it replicates from (or replicated from, after promotion).
	if s.repl != nil {
		perRepl := func(name, typ, help string, get func(ri *ReplicationInfo) float64) {
			p.family(name, typ, help)
			for i := range states {
				if ri := s.repl.infoFor(states[i].ns.name); ri != nil {
					p.sample(name, states[i].label, get(ri))
				}
			}
		}
		perRepl("stwig_replication_last_seq", "gauge", "Newest leader record applied locally.",
			func(ri *ReplicationInfo) float64 { return float64(ri.LastSeq) })
		perRepl("stwig_replication_leader_seq", "gauge", "Leader's newest journaled sequence at last contact.",
			func(ri *ReplicationInfo) float64 { return float64(ri.LeaderSeq) })
		perRepl("stwig_replication_lag_records", "gauge", "Records the follower is behind the leader.",
			func(ri *ReplicationInfo) float64 { return float64(ri.LagRecords) })
		perRepl("stwig_replication_lag_seconds", "gauge", "Seconds the follower has been behind (0 when caught up).",
			func(ri *ReplicationInfo) float64 { return float64(ri.LagMS) / 1000 })
		perRepl("stwig_replication_connected", "gauge", "1 while the wal tail to the leader is healthy.",
			func(ri *ReplicationInfo) float64 {
				if ri.Connected {
					return 1
				}
				return 0
			})
		perRepl("stwig_replication_records_total", "counter", "Leader records replayed locally.",
			func(ri *ReplicationInfo) float64 { return float64(ri.RecordsReplicated) })
		perRepl("stwig_replication_resyncs_total", "counter", "Snapshot re-bootstraps forced by checkpoint truncation or divergence.",
			func(ri *ReplicationInfo) float64 { return float64(ri.Resyncs) })
		p.family("stwig_replication_promoted", "gauge", "1 once this replica has been promoted to leader.")
		promoted := 0.0
		if s.repl.isPromoted() {
			promoted = 1
		}
		p.sample("stwig_replication_promoted", "", promoted)
	}

	// Cluster. Families only materialize on a coordinator (-shard-map with
	// no -shard-id); every sample is one shard leg's cumulative fan-out
	// traffic, labeled by its position in the shard map.
	if s.coord != nil {
		p.family("stwig_cluster_shards", "gauge", "Shard processes in the static shard map.")
		p.sample("stwig_cluster_shards", "", float64(len(s.coord.legs)))
		perLeg := func(name, typ, help string, get func(l *shardLeg) float64) {
			p.family(name, typ, help)
			for _, l := range s.coord.legs {
				l.mu.Lock()
				v := get(l)
				l.mu.Unlock()
				p.sample(name, promLabels("shard", strconv.Itoa(l.id)), v)
			}
		}
		perLeg("stwig_cluster_leg_requests_total", "counter", "Fan-out calls issued to the shard.",
			func(l *shardLeg) float64 { return float64(l.requests) })
		perLeg("stwig_cluster_leg_errors_total", "counter", "Fan-out calls that failed (transport error or 5xx).",
			func(l *shardLeg) float64 { return float64(l.errors) })
		perLeg("stwig_cluster_leg_bytes_read_total", "counter", "Response bytes read off the shard's legs.",
			func(l *shardLeg) float64 { return float64(l.bytesRead) })
		p.family("stwig_cluster_leg_latency_seconds", "histogram", "Wall time of one fan-out leg, end to end.")
		for _, l := range s.coord.legs {
			p.latencyHistogram("stwig_cluster_leg_latency_seconds", &l.lat, "shard", strconv.Itoa(l.id))
		}
	}

	// HTTP endpoints: per-tenant series labeled {ns, route}; the non-tenant
	// routes (healthz, admin) under ns="".
	p.family("stwig_http_requests_total", "counter", "Requests routed to the endpoint, including refused ones.")
	eachEndpoint(states, s.met, func(nsName, route string, ep *endpointMetrics) {
		ep.mu.Lock()
		n := ep.requests
		ep.mu.Unlock()
		p.sample("stwig_http_requests_total", promLabels("ns", nsName, "route", route), float64(n))
	})
	p.family("stwig_http_request_errors_total", "counter", "Requests that ended in an error status or error record.")
	eachEndpoint(states, s.met, func(nsName, route string, ep *endpointMetrics) {
		ep.mu.Lock()
		n := ep.errors
		ep.mu.Unlock()
		p.sample("stwig_http_request_errors_total", promLabels("ns", nsName, "route", route), float64(n))
	})
	p.family("stwig_http_request_duration_seconds", "histogram", "Handler wall time.")
	eachEndpoint(states, s.met, func(nsName, route string, ep *endpointMetrics) {
		p.latencyHistogram("stwig_http_request_duration_seconds", &ep.lat, "ns", nsName, "route", route)
	})

	rq.w.Header().Set("Content-Type", prometheusContentType)
	rq.w.WriteHeader(http.StatusOK)
	_, _ = rq.w.Write([]byte(p.b.String()))
	return nil
}

func anyJournal(states []nsState) bool {
	for i := range states {
		if states[i].jour != nil {
			return true
		}
	}
	return false
}

// eachEndpoint visits every tenant's endpoint metrics and then the server's
// non-tenant routes (labeled with an empty ns).
func eachEndpoint(states []nsState, serverMet *metrics, fn func(nsName, route string, ep *endpointMetrics)) {
	for i := range states {
		name := states[i].ns.name
		states[i].ns.met.forEach(func(route string, ep *endpointMetrics) {
			fn(name, route, ep)
		})
	}
	serverMet.forEach(func(route string, ep *endpointMetrics) {
		fn("", route, ep)
	})
}
