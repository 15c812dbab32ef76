package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"stwig/internal/core"
	"stwig/internal/graph"
	"stwig/internal/memcloud"
)

// The local side of the backend seam (a namespace's own engine and update
// pipeline), plus the tenant endpoints a coordinator proxies to a shard
// instead of implementing: explain and stats.

func (ns *namespace) limits() *Config { return &ns.cfg }

// gateWait names the reader-gate park in a context error's message.
const gateWait = " while waiting for a graph update"

// enter admits one unit of query work: an admission slot (refused with 429
// when the tenant is saturated), then the tenant's reader gate. A parked
// update dispatcher past its reader grace period holds the gate against new
// readers; the park is bounded by the writer's patience (UpdateLockWait)
// and the request's own deadline. Once enter admits, the caller must call
// leave exactly once — deferred, so a panicking engine call (swallowed by
// net/http's recover) cannot leak the reader and brick this tenant's update
// path.
func (ns *namespace) enter(ctx context.Context, rq *request) *apiError {
	if !ns.adm.tryAcquire() {
		return errRetry(http.StatusTooManyRequests, CodeOverloaded,
			fmt.Sprintf("overloaded: namespace %q has too many in-flight queries", ns.name), ns.cfg.RetryAfter)
	}
	gateStart := time.Now()
	if err := ns.gate.rlock(ctx); err != nil {
		ns.adm.release()
		return errContext(err, gateWait)
	}
	rq.wait = time.Since(gateStart)
	return nil
}

// leave ends the unit of query work enter admitted.
func (ns *namespace) leave() {
	ns.gate.runlock()
	ns.adm.release()
}

// sliced returns q cut down to the slice of the answer the selector names,
// q itself without one. Cluster mode's disjointness contract: the full graph
// is replicated on every shard, and shard i answers with the matches whose
// centre vertex (core.Query.Center: a function of the pattern alone, so every
// replica cuts along the same vertex whatever its planner decided) is bound
// to a data vertex in range i of the Count-way range partition of the id
// space — so the union over all shards is exactly the single-machine answer,
// with no duplicates. The cut is made inside exploration, not on the answer:
// a shard neither explores nor joins what another shard will emit. The
// partition divides the selector's pinned N when set (the coordinator's one
// snapshot for the whole fan-out, so every leg draws the same boundaries even
// mid-broadcast), and the local count for a selector sent here directly; call
// it inside the reader gate.
func (ns *namespace) sliced(q *core.Query, sel *ShardSelector) *core.Query {
	if sel == nil {
		return q
	}
	n := sel.N
	if n <= 0 {
		n = ns.eng.Cluster().QueryNumNodes()
	}
	lo, hi := memcloud.RangePartitioner{K: sel.Count, N: n}.Range(sel.Index)
	return q.Sliced(lo, hi)
}

// streamMatches is the local match source: the tenant's engine — running the
// slice of the query the request's selector names, if it has one — each of
// its machines encoding its own blocks and handing the lines to the sink.
func (ns *namespace) streamMatches(ctx context.Context, rq *request, req QueryRequest, q *core.Query, sink *streamWriter, trailer *StreamStats) *apiError {
	if e := ns.enter(ctx, rq); e != nil {
		return e
	}
	defer ns.leave()
	if req.Shard != nil {
		q = ns.sliced(q, req.Shard)
		// The shard's half of the leg handshake: admitted means the 200
		// goes out now, so a coordinator learns that this leg is live
		// before it forwards a byte of any other's. From here on a failure
		// is an error record, not a status.
		sink.announce()
	}
	start := time.Now()
	stats, err := ns.eng.MatchStreamMachines(ctx, q, (&lineHandoff{sink: sink}).encodeBlock)
	rq.exec = time.Since(start)
	if stats != nil {
		rq.emit, rq.spans = stats.EmitTime, stats.Spans
	}
	if err != nil {
		return errFrom(err, http.StatusInternalServerError, CodeInternal)
	}
	trailer.Truncated = stats.Truncated
	trailer.PlanMicros = stats.PlanTime.Microseconds()
	trailer.ExploreMicros = stats.ExploreTime.Microseconds()
	trailer.JoinMicros = stats.JoinTime.Microseconds()
	trailer.ElapsedMicros = rq.exec.Microseconds()
	trailer.NetMessages = stats.Net.Messages
	trailer.NetBytes = stats.Net.Bytes
	trailer.EmitFlushes = stats.EmitFlushes
	return nil
}

// applyUpdates is the local update sink: the mutations ride the tenant's
// update queue as one dispatcher job, and the job's outcome maps onto the
// acknowledgement (or the refusal) here, once, for both endpoint shapes.
func (ns *namespace) applyUpdates(rq *request, _ []UpdateRequest, muts []memcloud.Mutation, bulk bool) *apiError {
	job, full, err := ns.pipe.enqueueMuts(muts)
	switch {
	case full:
		return errRetry(http.StatusServiceUnavailable, CodeQueueFull,
			fmt.Sprintf("update queue full: namespace %q has %d updates pending; retry", ns.name, ns.cfg.UpdateQueueDepth),
			ns.cfg.RetryAfter)
	case err != nil: // queue closed: the namespace was dropped
		return errStatus(http.StatusServiceUnavailable, "namespace is shutting down")
	}

	var out updateJobResult
	select {
	case out = <-job.done:
	case <-rq.r.Context().Done():
		// The client is gone; the queued mutations may still apply — at
		// this point they are the dispatcher's, not the request's.
		return errContext(rq.r.Context().Err(), "")
	}
	switch {
	case errors.Is(out.err, errUpdateBusy):
		return errRetry(http.StatusServiceUnavailable, CodeBusy,
			"update busy: in-flight queries hold the graph; retry", ns.cfg.RetryAfter)
	case errors.Is(out.err, errUpdateQueueClosed):
		return errStatus(http.StatusServiceUnavailable, "namespace dropped while the update was queued")
	case out.err != nil: // journal failure or recovered batch panic
		return errStatus(http.StatusInternalServerError, out.err.Error())
	case !bulk && out.res[0].Err != nil:
		return errStatus(http.StatusConflict, out.res[0].Err.Error())
	}
	rq.wait = time.Duration(out.waitMicros) * time.Microsecond
	last := out.res[len(out.res)-1]
	if !bulk {
		resp := UpdateResponse{Epoch: last.Epoch, WaitMicros: out.waitMicros}
		if last.NodeID != graph.InvalidNode {
			resp.NodeID = int64(last.NodeID)
		}
		writeJSON(rq.w, http.StatusOK, resp)
		return nil
	}
	resp := BulkUpdateResponse{
		Results:    make([]BulkUpdateItem, len(out.res)),
		Epoch:      last.Epoch,
		WaitMicros: out.waitMicros,
	}
	for i, res := range out.res {
		item := BulkUpdateItem{NodeID: -1}
		if res.NodeID != graph.InvalidNode {
			item.NodeID = int64(res.NodeID)
		}
		if res.Err != nil {
			item.Error = res.Err.Error()
			item.Code = CodeConflict
			resp.Conflicts++
		}
		resp.Results[i] = item
	}
	writeJSON(rq.w, http.StatusOK, resp)
	return nil
}

// handleExplain renders the query's plan without running it, or — with
// analyze set — runs it under the request's trace, discarding matches, and
// returns the span tree alongside. Explain is query work: it pays full
// planning under the read lock, and EXPLAIN ANALYZE runs the whole query, so
// it goes through the same admission and reader gate as /query —
// otherwise an explain loop evades the in-flight limit and starves updates
// unobserved. It is bounded by the server's default deadline. A shard
// selector is honoured as /query honours it: the plan names the slice, and
// ANALYZE runs it — what this shard does of the pattern's work.
func (s *Server) handleExplain(rq *request) *apiError {
	ns := rq.ns
	req, q, e := decodeQuery(rq, ns.cfg.MaxRequestBytes)
	if e != nil {
		return e
	}
	if e := s.validateShard(req.Shard); e != nil {
		return e
	}
	ctx := s.requestContext(rq, core.Limits{Timeout: ns.cfg.DefaultTimeout})
	defer s.endRequest(rq)
	if e := ns.enter(ctx, rq); e != nil {
		return e
	}
	defer ns.leave()
	q = ns.sliced(q, req.Shard)
	if req.Analyze {
		execStart := time.Now()
		ar, err := ns.eng.ExplainAnalyze(core.WithTraceID(ctx, rq.trace), q)
		rq.exec = time.Since(execStart)
		if err != nil {
			return errStatus(http.StatusInternalServerError, err.Error())
		}
		rq.matches = ar.Matches
		rq.spans = ar.Stats.Spans
		writeJSON(rq.w, http.StatusOK, ExplainResponse{
			Plan:    ar.Plan.String(),
			Analyze: ar.String(),
			TraceID: ar.Stats.TraceID,
		})
		return nil
	}
	plan, err := ns.eng.Explain(q)
	if err != nil {
		return errStatus(http.StatusInternalServerError, err.Error())
	}
	writeJSON(rq.w, http.StatusOK, ExplainResponse{Plan: plan.String()})
	return nil
}

func (s *Server) handleStats(rq *request) *apiError {
	ns := rq.ns
	snap := ns.eng.Snapshot()
	endpoints := ns.met.snapshot()
	if ns.name == DefaultNamespace {
		// The default tenant's stats double as the server's own, so fold in
		// the non-tenant routes (healthz, admin).
		for route, st := range s.met.snapshot() {
			if _, taken := endpoints[route]; !taken {
				endpoints[route] = st
			}
		}
	}
	writeJSON(rq.w, http.StatusOK, StatsResponse{
		Namespace:     ns.name,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Draining:      s.draining.Load(),
		Graph: GraphInfo{
			Nodes:       snap.Nodes,
			Machines:    snap.Machines,
			Epoch:       snap.Epoch,
			MemoryBytes: snap.MemoryBytes,
		},
		Engine: EngineInfo{
			Queries:        snap.Queries,
			MatchesEmitted: snap.MatchesEmitted,
			EmitFlushes:    snap.EmitFlushes,
		},
		Net: NetInfo{Messages: snap.Net.Messages, Bytes: snap.Net.Bytes},
		Updates: UpdateInfo{
			NodesAdded:   snap.Updates.NodesAdded,
			EdgesAdded:   snap.Updates.EdgesAdded,
			EdgesRemoved: snap.Updates.EdgesRemoved,
			GarbageWords: snap.Updates.GarbageWords,
		},
		Admission:   ns.adm.stats(),
		UpdateQueue: ns.pipe.stats(),
		Journal:     ns.store.journalStats(),
		Replication: s.replicationInfoFor(ns.name),
		Cluster:     s.clusterInfo(),
		Endpoints:   endpoints,
	})
	return nil
}
