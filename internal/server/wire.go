package server

// Wire types for the stwigd HTTP/JSON protocol. The same structs are used
// by the handlers (internal/server) and the Go client
// (internal/server/client), so the two cannot drift. Internal stats
// structs (memcloud.NetStats, memcloud.UpdateStats, ...) are mirrored into
// tagged wire structs here rather than embedded, so renaming a Go field
// can never silently change the public JSON.

// QueryRequest is the body of POST /query and POST /explain. Exactly one of
// Pattern (the inline DSL of internal/pattern) or Query (the v/e text
// format) must be set.
type QueryRequest struct {
	Pattern string `json:"pattern,omitempty"`
	Query   string `json:"query,omitempty"`
	// MaxMatches caps this request's match count. 0 selects the server's
	// cap; a positive value is additionally clamped to the server's cap.
	MaxMatches int `json:"max_matches,omitempty"`
	// TimeoutMS overrides the server's default per-request deadline,
	// clamped to the server's maximum. 0 selects the default.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Analyze (POST /explain only) selects EXPLAIN ANALYZE: the query is
	// executed for real — matches discarded — and the response carries the
	// rendered span tree and its trace ID alongside the plan.
	Analyze bool `json:"analyze,omitempty"`
	// Shard, when set, restricts the stream to the matches that bind the
	// pattern's centre vertex (least eccentricity, then highest degree, then
	// lowest index: a function of the pattern alone) to a data vertex this
	// shard owns under the range partition of the id space into Count
	// shards — and the query's work to what those matches take. The
	// coordinator sets it on every fan-out leg so the legs' match sets are
	// disjoint and their union is the full answer; clients normally leave
	// it unset. POST /explain honours it too: the plan names the slice and
	// ANALYZE runs it.
	Shard *ShardSelector `json:"shard,omitempty"`
}

// ShardSelector names one shard of a Count-way range partition.
type ShardSelector struct {
	Index int `json:"index"`
	Count int `json:"count"`
	// N, when positive, pins the vertex count the range partition divides.
	// The coordinator snapshots it once per query so every fan-out leg
	// partitions the same id space even while an add_node broadcast is in
	// flight — shards whose local counts momentarily differ would otherwise
	// disagree about who owns a vertex near a range boundary. Ids at or
	// past N belong to the last shard. Unset (0), the shard falls back to
	// its local count.
	N int64 `json:"n,omitempty"`
}

// Record is one NDJSON line of a streamed /query response. A stream is any
// number of "match" records followed by exactly one terminal record: a
// "stats" record on success or an "error" record on failure.
//
// stwigd spells a match record exactly as encoding/json marshals this
// struct — {"type":"match","assignment":[1,2,3]} — and that canonical
// spelling (matchline.go) is part of the leg protocol: a coordinator
// forwards such a line to its client unparsed, and the Go client decodes it
// without a JSON decoder. A match record in any other valid JSON spelling
// (spaces, reordered keys) is still accepted by both: the client takes the
// slower encoding/json path, and a coordinator forwards it as written.
type Record struct {
	Type string `json:"type"` // "match", "stats", or "error"
	// Assignment is set on "match" records: Assignment[v] is the data
	// vertex bound to query vertex v.
	Assignment []int64 `json:"assignment,omitempty"`
	// Error is set on "error" records.
	Error string `json:"error,omitempty"`
	// Code is set on "error" records: the same machine-readable error code
	// ErrorResponse carries, so stream and non-stream failures share one
	// vocabulary.
	Code string `json:"code,omitempty"`
	// TraceID is set on "error" records: the request's trace ID, so a
	// mid-stream failure is greppable in the server log.
	TraceID string `json:"trace_id,omitempty"`
	// Stats is set on "stats" records.
	Stats *StreamStats `json:"stats,omitempty"`
}

// Record type tags.
const (
	RecordMatch = "match"
	RecordStats = "stats"
	RecordError = "error"
)

// StreamStats is the trailing summary of a successful query stream.
type StreamStats struct {
	// TraceID is the request's trace ID — identical to the X-Stwig-Trace
	// response header and the server's request log line.
	TraceID string `json:"trace_id,omitempty"`
	// Matches is how many match records the server emitted.
	Matches int `json:"matches"`
	// Truncated reports the engine stopped enumeration early for any
	// reason (match cap, byte cap, or engine budget).
	Truncated bool `json:"truncated,omitempty"`
	// LimitHit reports the per-request match cap stopped the stream.
	LimitHit bool `json:"limit_hit,omitempty"`
	// ByteCapHit reports the response byte cap stopped the stream.
	ByteCapHit bool `json:"byte_cap_hit,omitempty"`
	// PlanCacheHit is never set: the engine plans every query. The field
	// stays only until the benchmark harness stops reading it (ROADMAP item
	// 1(b)); omitempty keeps it off the wire.
	PlanCacheHit bool `json:"plan_cache_hit,omitempty"`
	// Phase timings, in microseconds.
	PlanMicros    int64 `json:"plan_us"`
	ExploreMicros int64 `json:"explore_us"`
	JoinMicros    int64 `json:"join_us"`
	ElapsedMicros int64 `json:"elapsed_us"`
	// Simulated-fabric traffic this query's run charged, exact however
	// many queries run beside it.
	NetMessages uint64 `json:"net_messages"`
	NetBytes    uint64 `json:"net_bytes"`
	// EmitFlushes counts the engine's batched emit flushes.
	EmitFlushes uint64 `json:"emit_flushes,omitempty"`
	// Shards is set on coordinator-merged streams: one entry per fan-out
	// leg, in shard order, with the leg's contribution to the merged
	// stream and its wire cost.
	Shards []ShardLegStats `json:"shards,omitempty"`
}

// ShardLegStats is one scatter-gather leg's summary inside a coordinator's
// merged stream stats.
type ShardLegStats struct {
	// Shard is the leg's shard id; URL its base URL from the shard map.
	Shard int    `json:"shard"`
	URL   string `json:"url,omitempty"`
	// Matches is how many match records the leg contributed to the merged
	// stream — what reached the client, so under a global cap the legs still
	// sum to the trailer's count; Bytes is the NDJSON bytes read off the
	// leg's response.
	Matches int   `json:"matches"`
	Bytes   int64 `json:"bytes"`
	// ElapsedMicros is the leg's wall time, first byte to leg EOF (or to
	// the coordinator cutting it off at a global cap).
	ElapsedMicros int64 `json:"elapsed_us"`
	// Error is set when the leg failed; the merged stream then terminates
	// with a shard_unavailable error record naming the shard.
	Error string `json:"error,omitempty"`
}

// ExplainResponse is the body of a POST /explain reply.
type ExplainResponse struct {
	// Plan is the rendered execution plan, exactly what cmd/stwigql
	// -explain prints.
	Plan string `json:"plan"`
	// Analyze is the rendered EXPLAIN ANALYZE report (plan + executed span
	// tree); set only when the request asked for it.
	Analyze string `json:"analyze,omitempty"`
	// TraceID is the executed run's trace ID (EXPLAIN ANALYZE only).
	TraceID string `json:"trace_id,omitempty"`
}

// VersionResponse is the body of GET /version: the build identity from the
// -ldflags version stamp plus runtime/debug.ReadBuildInfo.
type VersionResponse struct {
	Version   string `json:"version"`
	GoVersion string `json:"go_version"`
	Revision  string `json:"revision,omitempty"`
	BuildTime string `json:"build_time,omitempty"`
	Dirty     bool   `json:"dirty,omitempty"`
}

// HealthzResponse is the body of GET /healthz.
type HealthzResponse struct {
	// Status is "ok", or "draining" (with a 503) during graceful shutdown.
	Status string `json:"status"`
	// Build identifies the binary, so health probes and bug reports name
	// the exact build.
	Build VersionResponse `json:"build"`
}

// Update operations accepted by POST /update.
const (
	OpAddNode    = "add_node"
	OpAddEdge    = "add_edge"
	OpRemoveEdge = "remove_edge"
)

// UpdateRequest is the body of POST /update.
type UpdateRequest struct {
	Op string `json:"op"` // one of OpAddNode, OpAddEdge, OpRemoveEdge
	// Label is the new vertex's label (add_node).
	Label string `json:"label,omitempty"`
	// U and V are the edge endpoints (add_edge, remove_edge).
	U int64 `json:"u,omitempty"`
	V int64 `json:"v,omitempty"`
}

// UpdateResponse is the body of a successful POST /update reply.
type UpdateResponse struct {
	// NodeID is the new vertex's ID (add_node only).
	NodeID int64 `json:"node_id,omitempty"`
	// Epoch is the cluster's mutation epoch after the update; cached plans
	// from earlier epochs are invalidated.
	Epoch uint64 `json:"epoch"`
	// WaitMicros is how long the update sat in the tenant's queue (plus the
	// dispatcher's wait for the writer window) before it was applied.
	WaitMicros int64 `json:"wait_us,omitempty"`
}

// MaxBulkUpdates caps the Updates array of one bulk request. (The
// request-body byte bound usually binds first; this keeps a single
// journal record and writer window from growing pathological even with a
// raised MaxRequestBytes.)
const MaxBulkUpdates = 65536

// BulkUpdateRequest is the body of POST /v1/update/bulk and
// POST /v1/ns/{name}/update/bulk: a mutation array that rides one queue
// slot, one writer window, and one journal record — so the whole array
// shares a single durability fsync.
// Mutations apply in array order; per-mutation conflicts do not abort the
// rest of the array.
type BulkUpdateRequest struct {
	Updates []UpdateRequest `json:"updates"`
}

// BulkUpdateItem is one mutation's outcome inside a BulkUpdateResponse.
type BulkUpdateItem struct {
	// NodeID is the new vertex's ID (successful add_node only).
	NodeID int64 `json:"node_id,omitempty"`
	// Error and Code are set when this mutation failed (Code "conflict":
	// missing vertex, duplicate edge, ...). Other mutations still applied.
	Error string `json:"error,omitempty"`
	Code  string `json:"code,omitempty"`
}

// BulkUpdateResponse is the body of a bulk update reply. The HTTP status
// is 200 even when some mutations conflicted — queue-level failures
// (queue_full, busy, read_only, draining) use the ErrorResponse envelope
// with their usual statuses and fail the whole array unapplied.
type BulkUpdateResponse struct {
	// Results has one entry per request mutation, in order.
	Results []BulkUpdateItem `json:"results"`
	// Conflicts counts entries carrying an error.
	Conflicts int `json:"conflicts,omitempty"`
	// Epoch is the cluster's mutation epoch after the batch.
	Epoch uint64 `json:"epoch"`
	// WaitMicros is how long the array sat in the tenant's queue (plus the
	// dispatcher's wait for the writer window) before it was applied.
	WaitMicros int64 `json:"wait_us,omitempty"`
}

// ErrorResponse is the uniform error envelope: the body of every non-2xx
// reply, mirrored by the NDJSON "error" record for mid-stream failures.
type ErrorResponse struct {
	// Error is the human-readable message.
	Error string `json:"error"`
	// Code is the machine-readable error class (one of the Code* constants);
	// clients branch on it instead of parsing Error.
	Code string `json:"code,omitempty"`
	// TraceID echoes the request's X-Stwig-Trace, so an error body alone is
	// enough to find the server-side log line.
	TraceID string `json:"trace_id,omitempty"`
	// RetryAfterMS is the retry hint with sub-second resolution. The
	// Retry-After header carries the same hint rounded up to whole seconds
	// (RFC 9110 only allows integral seconds); clients should prefer this
	// field.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// Machine-readable error codes carried by ErrorResponse.Code and the NDJSON
// error record's "code" field. writeError derives a default from the HTTP
// status; call sites with a sharper cause set one explicitly.
const (
	CodeBadRequest       = "bad_request"
	CodeUnauthorized     = "unauthorized"
	CodeForbidden        = "forbidden"
	CodeNotFound         = "not_found"
	CodeConflict         = "conflict"
	CodeOverloaded       = "overloaded" // admission limit; retry hint attached
	CodeQueueFull        = "queue_full" // update queue at capacity; retry hint attached
	CodeBusy             = "busy"       // writer window never opened; retry hint attached
	CodeCapacity         = "capacity"   // namespace registry at capacity
	CodeDraining         = "draining"   // graceful shutdown in progress
	CodeDeadline         = "deadline"
	CodeCanceled         = "canceled"
	CodeUnavailable      = "unavailable"
	CodeInternal         = "internal"
	CodeReadOnly         = "read_only"         // follower refusing a write; promote or write to the leader
	CodeNotPersisted     = "not_persisted"     // replication endpoint on a journal-less namespace
	CodeSnapshotRequired = "snapshot_required" // wal cursor predates the checkpoint; bootstrap from /snapshot
	CodeNotFollower      = "not_a_follower"    // promote on a server that follows nobody
	CodeShardUnavailable = "shard_unavailable" // a scatter-gather leg failed; the message names the shard
	CodeWrongShard       = "wrong_shard"       // request's shard selector does not match this process
)

// StatsResponse is the body of GET /v1/stats and /v1/ns/{name}/stats. All
// graph, engine, net, update, admission, and endpoint counters
// are scoped to the one namespace named by Namespace; only UptimeSeconds
// and Draining are process-wide.
type StatsResponse struct {
	// Namespace is the tenant these counters belong to ("default" on
	// /v1/stats).
	Namespace     string  `json:"namespace"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Draining reports the server has begun graceful shutdown.
	Draining bool `json:"draining,omitempty"`

	Graph       GraphInfo       `json:"graph"`
	Engine      EngineInfo      `json:"engine"`
	Net         NetInfo         `json:"net"`
	Updates     UpdateInfo      `json:"updates"`
	Admission   AdmissionStats  `json:"admission"`
	UpdateQueue UpdateQueueInfo `json:"update_queue"`
	// Journal reports the namespace's write-ahead journal; absent when the
	// server runs without a data dir or the namespace is not persisted.
	Journal *JournalInfo `json:"journal,omitempty"`
	// Replication reports WAL-shipping state; absent unless the server is
	// (or was, before promotion) a follower.
	Replication *ReplicationInfo `json:"replication,omitempty"`
	// Cluster reports shard-map state; absent unless the server runs in
	// cluster mode (coordinator or shard).
	Cluster *ClusterInfo `json:"cluster,omitempty"`
	// Endpoints maps route (e.g. "/query") to its request counters and
	// latency histogram summary.
	Endpoints map[string]EndpointStats `json:"endpoints"`
}

// ClusterInfo snapshots a cluster-mode process for GET /stats.
type ClusterInfo struct {
	// Role is "coordinator" or "shard".
	Role string `json:"role"`
	// ShardID is this process's index into the shard map (shards only).
	ShardID int `json:"shard_id,omitempty"`
	// Shards has one entry per shard-map slot, in shard order. On a
	// coordinator each entry carries that leg's cumulative counters; on a
	// shard only the URLs are populated.
	Shards []ShardInfo `json:"shards"`
}

// ShardInfo is one shard-map slot's state inside ClusterInfo.
type ShardInfo struct {
	Shard int    `json:"shard"`
	URL   string `json:"url"`
	// Coordinator-side cumulative per-leg counters: requests fanned out,
	// leg failures, NDJSON bytes read off the leg, and total leg wall time
	// in microseconds (latency histograms are on /metrics).
	Requests     uint64 `json:"requests,omitempty"`
	Errors       uint64 `json:"errors,omitempty"`
	BytesRead    uint64 `json:"bytes_read,omitempty"`
	ElapsedMicro uint64 `json:"elapsed_us,omitempty"`
}

// JournalInfo snapshots one namespace's durability state: the write-ahead
// journal the dispatcher appends to before every ApplyBatch, and the
// checkpoints that keep replay bounded: one whenever the journal has grown
// as large as the checkpoint.
type JournalInfo struct {
	// Enabled is true whenever the namespace journals its updates.
	Enabled bool `json:"enabled"`
	// Records and Bytes count journal appends (batches) and their framed
	// bytes — encoded batch body plus the 16-byte record overhead (sequence
	// number and frame header), i.e. what each record actually adds to the
	// file — since boot; Fsyncs counts the durability syncs issued for
	// them: one per record (a record is one writer window, however many
	// updates it carries), none with JournalNoSync.
	Records uint64 `json:"records_appended"`
	Bytes   uint64 `json:"bytes_appended"`
	Fsyncs  uint64 `json:"fsyncs"`
	// LastSeq is the sequence number of the newest journaled batch;
	// SizeBytes is the journal file's current length.
	LastSeq   uint64 `json:"last_seq"`
	SizeBytes int64  `json:"size_bytes"`
	// Checkpoints counts completed checkpoints (snapshot written, journal
	// truncated) since boot, CheckpointErrors failed attempts (the journal
	// keeps growing until one succeeds), and CheckpointSeq the sequence the
	// latest checkpoint covers.
	Checkpoints      uint64 `json:"checkpoints"`
	CheckpointErrors uint64 `json:"checkpoint_errors,omitempty"`
	CheckpointSeq    uint64 `json:"checkpoint_seq"`
	// ReplayedRecords / ReplayedMutations report boot-time recovery: how
	// many journal records (batches) and individual mutations were replayed
	// over the checkpoint. TornTailRecovered reports that a torn tail — the
	// partial record a crash mid-append leaves — was found and truncated.
	ReplayedRecords   uint64 `json:"replayed_records"`
	ReplayedMutations uint64 `json:"replayed_mutations"`
	TornTailRecovered bool   `json:"torn_tail_recovered,omitempty"`
}

// ReplicationInfo snapshots one namespace's WAL-shipping state on a
// follower (GET /stats "replication" block).
type ReplicationInfo struct {
	// Role is "follower" while tailing a leader, "leader" after promotion.
	Role string `json:"role"`
	// Leader is the followed leader's base URL.
	Leader string `json:"leader,omitempty"`
	// LastSeq is the newest journal sequence applied locally; LeaderSeq is
	// the leader's newest sequence as of the last successful poll.
	LastSeq   uint64 `json:"last_seq"`
	LeaderSeq uint64 `json:"leader_seq"`
	// LagRecords is max(0, leader_seq - last_seq); LagMS is how long the
	// follower has continuously been behind (0 when caught up).
	LagRecords uint64 `json:"lag_records"`
	LagMS      int64  `json:"lag_ms"`
	// Connected reports the last wal poll against the leader succeeded.
	Connected bool `json:"connected"`
	// RecordsReplicated counts journal records applied since this process
	// started following; Resyncs counts snapshot re-bootstraps (cursor fell
	// behind a leader checkpoint, or a sequence mismatch was detected).
	RecordsReplicated uint64 `json:"records_replicated"`
	Resyncs           uint64 `json:"resyncs,omitempty"`
	// LastError is the most recent replication error, cleared on the next
	// successful poll.
	LastError string `json:"last_error,omitempty"`
}

// ReplicationManifest is the body of GET /v1/replication/manifest: every
// persisted namespace a follower should tail, sorted by name.
type ReplicationManifest struct {
	Namespaces []ReplicaNamespace `json:"namespaces"`
}

// ReplicaNamespace is one manifest entry: enough for a follower to decide
// between journal tailing (local seq ≥ checkpoint_seq) and a snapshot
// bootstrap.
type ReplicaNamespace struct {
	Name string `json:"name"`
	// Spec is the canonical namespace spec from the leader's manifest.
	Spec string `json:"spec"`
	// LastSeq is the newest journaled sequence; CheckpointSeq is the highest
	// sequence compacted into the checkpoint (records at or below it are no
	// longer tailable).
	LastSeq       uint64 `json:"last_seq"`
	CheckpointSeq uint64 `json:"checkpoint_seq"`
	// Epoch is the namespace's mutation epoch at manifest time.
	Epoch uint64 `json:"epoch"`
}

// PromoteResponse is the body of a successful POST /v1/admin/promote.
type PromoteResponse struct {
	Promoted bool `json:"promoted"`
	// Namespaces lists the tenants whose journal tails were sealed and
	// fsynced before writes were enabled, sorted by name.
	Namespaces []string `json:"namespaces"`
}

// GraphInfo describes the served cluster.
type GraphInfo struct {
	Nodes       int64  `json:"nodes"`
	Machines    int    `json:"machines"`
	Epoch       uint64 `json:"epoch"`
	MemoryBytes int64  `json:"memory_bytes"`
}

// EngineInfo is the namespace engine's cumulative workload accounting.
type EngineInfo struct {
	// Queries counts query executions (successful or not) this tenant's
	// engine has run.
	Queries uint64 `json:"queries"`
	// MatchesEmitted counts matches the engine delivered across all of
	// those queries.
	MatchesEmitted uint64 `json:"matches_emitted"`
	// EmitFlushes counts batched match-block flushes.
	EmitFlushes uint64 `json:"emit_flushes"`
}

// NetInfo mirrors memcloud.NetStats: in /v1/stats, the sum over the
// namespace engine's completed queries.
type NetInfo struct {
	Messages uint64 `json:"messages"`
	Bytes    uint64 `json:"bytes"`
}

// UpdateInfo mirrors memcloud.UpdateStats.
type UpdateInfo struct {
	NodesAdded   uint64 `json:"nodes_added"`
	EdgesAdded   uint64 `json:"edges_added"`
	EdgesRemoved uint64 `json:"edges_removed"`
	GarbageWords int64  `json:"garbage_words"`
}

// UpdateQueueInfo snapshots one tenant's update pipeline: the bounded FIFO
// queue in front of the batching dispatcher.
type UpdateQueueInfo struct {
	// Depth is the configured queue capacity; enqueues beyond it are
	// refused with 503 + Retry-After.
	Depth int `json:"depth"`
	// Queued is the number of updates currently waiting (excluding any
	// batch the dispatcher is applying right now).
	Queued int `json:"queued"`
	// Enqueued and RejectedFull count queue admissions and queue-full
	// refusals since start.
	Enqueued     uint64 `json:"enqueued"`
	RejectedFull uint64 `json:"rejected_full"`
	// Applied counts mutations applied successfully; Conflicts counts
	// per-mutation failures (missing vertex, duplicate edge, ...).
	Applied   uint64 `json:"applied"`
	Conflicts uint64 `json:"conflicts"`
	// BusyTimeouts counts batches abandoned because the writer window
	// never opened within the configured patience (every job in such a
	// batch was answered 503).
	BusyTimeouts uint64 `json:"busy_timeouts"`
	// JournalFailures counts batches failed because their journal record
	// could not be made durable (append or fsync error) — every job in
	// such a batch was answered 500 unapplied.
	JournalFailures uint64 `json:"journal_failures"`
	// Batches counts writer windows applied (journal records); MaxBatch
	// is the largest one, in mutations.
	Batches  uint64 `json:"batches"`
	MaxBatch int    `json:"max_batch"`
	// BatchSizeSum is the total number of mutations across all applied
	// batches — the histogram's _sum, so BatchSizeSum/Batches is the mean
	// applied batch size.
	BatchSizeSum uint64 `json:"batch_size_sum"`
	// BatchSizes is the batch-size (mutations per batch) histogram in
	// cumulative form: Count batches had a size of at most Le, buckets
	// non-decreasing in Le order, and the final bucket (Le = -1, unbounded)
	// equals Batches.
	BatchSizes []BucketCount `json:"batch_sizes,omitempty"`
	// Wait summarizes how long updates sat queued before their batch's
	// writer window opened; Apply summarizes per-batch apply time.
	Wait  LatencyStats `json:"wait"`
	Apply LatencyStats `json:"apply"`
}

// BucketCount is one histogram bucket: Count observations were ≤ Le.
// Le = -1 marks the unbounded overflow bucket.
type BucketCount struct {
	Le    int    `json:"le"`
	Count uint64 `json:"count"`
}

// AdmissionStats snapshots the admission controller.
type AdmissionStats struct {
	// MaxInFlight is the configured concurrency limit.
	MaxInFlight int `json:"max_in_flight"`
	// InFlight is the current number of admitted, unfinished queries.
	InFlight int `json:"in_flight"`
	// Admitted and Rejected count tryAcquire outcomes since start.
	Admitted uint64 `json:"admitted"`
	Rejected uint64 `json:"rejected"`
}

// CreateNamespaceRequest is the body of POST /ns. Spec uses the grammar
// documented on NamespaceSpec, e.g. "rmat:scale=12,degree=8,labels=8" or
// "file:/data/g.bin,inflight=4".
type CreateNamespaceRequest struct {
	Name string `json:"name"`
	Spec string `json:"spec"`
}

// NamespaceLimits is the per-tenant slice of the server configuration.
type NamespaceLimits struct {
	MaxInFlight int   `json:"max_in_flight"`
	MaxMatches  int   `json:"max_matches,omitempty"`
	MaxBytes    int64 `json:"max_bytes,omitempty"`
}

// NamespaceInfo is one tenant's summary, returned by GET /ns and POST /ns.
type NamespaceInfo struct {
	Name       string          `json:"name"`
	AgeSeconds float64         `json:"age_seconds"`
	Graph      GraphInfo       `json:"graph"`
	Admission  AdmissionStats  `json:"admission"`
	Limits     NamespaceLimits `json:"limits"`
}

// NamespaceListResponse is the body of GET /ns, sorted by name.
type NamespaceListResponse struct {
	Namespaces []NamespaceInfo `json:"namespaces"`
}

// DropNamespaceResponse is the body of a successful DELETE /ns/{name}.
type DropNamespaceResponse struct {
	Dropped string `json:"dropped"`
}

// EndpointStats is one endpoint's request accounting.
type EndpointStats struct {
	// Requests counts every request routed to the endpoint, including
	// rejected and failed ones.
	Requests uint64 `json:"requests"`
	// Errors counts requests that ended in a non-2xx status or a
	// mid-stream error record.
	Errors uint64 `json:"errors"`
	// Latency summarizes handler wall time.
	Latency LatencyStats `json:"latency"`
}

// LatencyStats is a bucketed-histogram summary. Percentiles are upper
// bounds of the containing bucket, so they are conservative estimates.
type LatencyStats struct {
	Count  uint64  `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	MaxMS  float64 `json:"max_ms"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
}
