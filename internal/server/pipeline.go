package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"stwig/internal/core"
	"stwig/internal/graph"
	"stwig/internal/memcloud"
	"stwig/internal/pattern"
)

// The request pipeline. Every step of a request exists once: one route
// table says what is mounted, one wrapper (serve) owns trace, tenant
// resolution, the drain and read-only refusals, error rendering, metrics,
// and the log line, and one handler per endpoint owns decode → validate →
// limits → response. A single-node server (or shard) and a cluster
// coordinator differ only in where a tenant's graph lives, which is the
// backend interface: in the paper every machine answers the matches rooted
// in its own vertices and the result is their disjoint union, so a
// coordinator's query is the same request with a different match source.

// ndjsonContentType is the /query stream's media type.
const ndjsonContentType = "application/x-ndjson"

// handler serves one endpoint; the wrapper renders a non-nil return, so a
// handler never writes an error body itself.
type handler func(*request) *apiError

// routeClass is what the wrapper refuses before the handler runs.
type routeClass uint8

const (
	// observe: always served — a draining or read-only server must stay
	// inspectable and keep shipping its WAL.
	observe routeClass = iota
	work               // starts new query work: refused while draining
	mutate             // changes state: refused while draining and on an unpromoted follower
)

// route is one row of the route table.
type route struct {
	method   string
	path     string // under /v1
	endpoint string // names the metrics series and the log line's route
	class    routeClass
	// auth, when set, gates the route behind the admin bearer token and
	// names the capability in the refusal. A coordinator leaves the check
	// to the shards it forwards the request (and its token) to.
	auth string
	// tenant routes are mounted twice from their one row: /v1/ns/{ns}<path>
	// for any namespace and /v1<path> for the default one.
	tenant bool
	local  handler
	// coord serves the route on a cluster coordinator; nil marks it
	// local-only (replication runs per shard) and a coordinator 404s it.
	coord handler
}

// routes is the server's whole HTTP surface, /debug/pprof aside. The query
// and update rows name one handler in both columns — the backend seam is
// below it; the coordinator's other rows are thin proxies to the shards
// (c is nil outside coordinator mode, where that column is never mounted).
func (s *Server) routes() []route {
	c := s.coord
	update := func(rq *request) *apiError { return s.handleUpdates(rq, false) }
	bulk := func(rq *request) *apiError { return s.handleUpdates(rq, true) }
	// Namespace mutation shares the listener with untrusted tenant traffic,
	// and a drop is unbounded destruction of a tenant's whole graph. GET /ns
	// stays open: listing reveals nothing a tenant's own stats route does not.
	const nsMutation = "namespace mutation over the admin API"
	return []route{
		{"POST", "/query", "/query", work, "", true, s.handleQuery, s.handleQuery},
		{"POST", "/explain", "/explain", work, "", true, s.handleExplain, c.forward(false)},
		{"POST", "/update", "/update", mutate, "", true, update, update},
		{"POST", "/update/bulk", "/update/bulk", mutate, "", true, bulk, bulk},
		{"GET", "/stats", "/stats", observe, "", true, s.handleStats, c.proxyStats},
		{"GET", "/wal", "/wal", observe, "", true, s.handleWALTail, nil},
		{"GET", "/snapshot", "/snapshot", observe, "", true, s.handleSnapshot, nil},
		{"GET", "/ns", "/ns", observe, "", false, s.handleListNamespaces, c.forward(false)},
		{"POST", "/ns", "/ns", mutate, nsMutation, false, s.handleCreateNamespace, c.forward(true)},
		{"DELETE", "/ns/{ns}", "/ns", mutate, nsMutation, false, s.handleDropNamespace, c.proxyDropNamespace},
		{"GET", "/replication/manifest", "/replication/manifest", observe, "", false, s.handleReplicationManifest, nil},
		{"POST", "/admin/promote", "/admin/promote", observe, "promotion over the admin API", false, s.handlePromote, nil},
		{"GET", "/healthz", "/healthz", observe, "", false, s.handleHealthz, s.handleHealthz},
		{"GET", "/version", "/version", observe, "", false, s.handleVersion, s.handleVersion},
		{"GET", "/metrics", "/metrics", observe, "", false, s.handleMetrics, s.handleMetrics},
	}
}

// mount registers the route table, the uniform error envelope for unknown
// paths (instead of net/http's plain-text 404), and /debug/pprof — which
// stays unversioned: an operator surface with net/http-dictated paths, not
// part of the API.
func (s *Server) mount() *http.ServeMux {
	mux := http.NewServeMux()
	for _, rt := range s.routes() {
		h := rt.local
		if s.coord != nil {
			if h = rt.coord; h == nil {
				continue
			}
		}
		serve := s.serve(rt, h)
		mux.HandleFunc(rt.method+" /v1"+rt.path, serve)
		if rt.tenant {
			mux.HandleFunc(rt.method+" /v1/ns/{ns}"+rt.path, serve)
		}
	}
	mux.HandleFunc("/", s.serve(route{endpoint: "/{unknown}"}, func(rq *request) *apiError {
		return errStatus(http.StatusNotFound, fmt.Sprintf("no route for %s %s", rq.r.Method, rq.r.URL.Path))
	}))
	s.registerDebug(mux)
	return mux
}

// serve wraps a route's handler with everything a request gets exactly
// once: trace ID, tenant lookup, the admin-token, drain and read-only
// refusals, error rendering, metrics, and the summary log line. Tenant
// routes are counted against the tenant's own metrics under the logical
// endpoint name, so /v1/query and /v1/ns/default/query share one series; a
// coordinator hosts no tenants and books everything against the server's.
func (s *Server) serve(rt route, h handler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rq := beginRequest(rt.endpoint, w, r)
		met, series := s.met, rt.endpoint
		var e *apiError
		if rt.tenant {
			if rq.namespace = rq.r.PathValue("ns"); rq.namespace == "" {
				rq.namespace = DefaultNamespace
			}
			if s.coord != nil {
				rq.be = s.coord
			} else if ns, ok := s.reg.get(rq.namespace); ok {
				rq.ns, rq.be, met = ns, ns, ns.met
			} else {
				e = errStatus(http.StatusNotFound, fmt.Sprintf("unknown namespace %q", rq.namespace))
				// A dedicated key: these requests belong to no tenant, so they
				// must not collide with (or hide behind) any namespace's own
				// endpoint series in the default tenant's stats fold.
				series = "/ns/{unknown}"
			}
		}
		if e == nil && rt.auth != "" && s.coord == nil {
			e = s.authorizeBearer(rq.w, rq.r, rt.auth)
		}
		switch {
		case e != nil:
		case rt.class >= work && s.draining.Load():
			e = errCode(http.StatusServiceUnavailable, CodeDraining, "server is draining")
		case rt.class == mutate && s.repl != nil && !s.repl.isPromoted():
			// An unpromoted follower's state may only advance by WAL
			// shipping from the leader. The header names the leader so a
			// client (or proxy) can redirect the write itself.
			rq.w.Header().Set("X-Stwig-Leader", s.repl.leader)
			e = errCode(http.StatusForbidden, CodeReadOnly,
				fmt.Sprintf("read-only follower: send writes to the leader at %s (or promote this replica)", s.repl.leader))
		default:
			e = h(rq)
		}
		if e != nil {
			rq.writeError(e)
		}
		// An error is a handler failure (including a stream that ended in an
		// error record) or any non-2xx reply a handler relayed or chose.
		isErr := e != nil || rq.w.status >= 400
		d := time.Since(start)
		met.record(series, d, isErr)
		s.logRequest(rq, d, isErr)
	}
}

// backend is where a tenant's graph lives, the one seam in the tenant
// handlers: a *namespace (this process's engine and update pipeline) or the
// *coordinator (every shard in the map).
type backend interface {
	// limits is the config whose request caps apply: the tenant's own, or
	// the process-wide one on a coordinator.
	limits() *Config
	// streamMatches is the match source: it hands q's matches to sink in
	// blocks until they run out, the sink declines more, or ctx ends, and
	// fills the trailer's execution fields (the sink owns the count and the
	// caps).
	streamMatches(ctx context.Context, rq *request, req QueryRequest, q *core.Query, sink *streamWriter, trailer *StreamStats) *apiError
	// applyUpdates is the update sink: it applies the validated mutations
	// in order as one batch and writes the acknowledgement — /update's
	// single-result shape unless bulk.
	applyUpdates(rq *request, reqs []UpdateRequest, muts []memcloud.Mutation, bulk bool) *apiError
}

// apiError is the one value every refusal and failure becomes on its way to
// the client, whichever side of the backend seam produced it. It is an
// error so a shard leg's refusal can travel through error-typed plumbing
// and be relayed unchanged.
type apiError struct {
	status     int
	code       string // wire.go's Code* constants
	msg        string
	retryAfter time.Duration // > 0 adds Retry-After and retry_after_ms
}

func (e *apiError) Error() string { return e.msg }

func errCode(status int, code, msg string) *apiError {
	return &apiError{status: status, code: code, msg: msg}
}

// errStatus derives the code from the status, for call sites with no
// sharper cause to name.
func errStatus(status int, msg string) *apiError {
	return errCode(status, defaultErrorCode(status), msg)
}

func errRetry(status int, code, msg string, retryAfter time.Duration) *apiError {
	return &apiError{status: status, code: code, msg: msg, retryAfter: retryAfter}
}

// errContext maps the way a context ended to the client's error: 504 when
// the request's deadline expired, 503 for every other cancellation. during
// names what was interrupted, e.g. " while waiting for a graph update".
func errContext(err error, during string) *apiError {
	if errors.Is(err, context.DeadlineExceeded) {
		return errCode(http.StatusGatewayTimeout, CodeDeadline, "deadline exceeded"+during)
	}
	return errCode(http.StatusServiceUnavailable, CodeCanceled, "canceled"+during)
}

// errFrom maps an error out of a match source: a shard's refusal passes
// through untouched, a context end becomes errContext, and anything else
// takes the given status and code with the error's own text.
func errFrom(err error, status int, code string) *apiError {
	var refusal *apiError
	switch {
	case errors.As(err, &refusal):
		return refusal
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return errContext(err, "")
	}
	return errCode(status, code, err.Error())
}

// statusCodes is the envelope code errStatus gives each HTTP status when
// the call site did not name a sharper one; unlisted statuses are internal.
var statusCodes = map[int]string{
	http.StatusBadRequest:         CodeBadRequest,
	http.StatusUnauthorized:       CodeUnauthorized,
	http.StatusForbidden:          CodeForbidden,
	http.StatusNotFound:           CodeNotFound,
	http.StatusConflict:           CodeConflict,
	http.StatusTooManyRequests:    CodeOverloaded,
	http.StatusServiceUnavailable: CodeUnavailable,
	http.StatusGatewayTimeout:     CodeDeadline,
}

func defaultErrorCode(status int) string {
	if code, ok := statusCodes[status]; ok {
		return code
	}
	return CodeInternal
}

// writeError renders a request's failure as the uniform HTTP envelope. Once
// the response header is out — only /query streams output before it can
// fail — the stream's sink has ended it with an NDJSON error record instead
// (streamWriter.writeError).
func (rq *request) writeError(e *apiError) {
	if rq.w.status == 0 {
		writeEnvelope(rq.w, e)
	}
}

// writeEnvelope sends the error envelope {error, code, trace_id,
// retry_after_ms?}. The trace ID is read back from the response header
// beginRequest set before any handler ran, so every error body is greppable
// in the server log. A retry hint ships in both shapes: the Retry-After
// header (whole seconds, rounded up — RFC 9110 allows nothing finer) and the
// envelope's exact retry_after_ms, which clients prefer.
func writeEnvelope(w http.ResponseWriter, e *apiError) {
	env := ErrorResponse{Error: e.msg, Code: e.code, TraceID: w.Header().Get(TraceHeader)}
	if e.retryAfter > 0 {
		secs := int((e.retryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		// A sub-millisecond hint must not round to "retry never".
		env.RetryAfterMS = max(e.retryAfter.Milliseconds(), 1)
	}
	writeJSON(w, e.status, env)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// decodeBody reads the request's size-capped JSON body into v.
func decodeBody(rq *request, limit int64, v any) *apiError {
	rq.r.Body = http.MaxBytesReader(rq.w, rq.r.Body, limit)
	if err := json.NewDecoder(rq.r.Body).Decode(v); err != nil {
		return errStatus(http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
	}
	return nil
}

// The canonical bare-pattern query body: what encoding/json writes for a
// QueryRequest that sets only Pattern, when the pattern is printable ASCII
// without a quote or a backslash — every query a client sends with no caps,
// selector or timeout.
const (
	patternBodyOpen  = `{"pattern":"`
	patternBodyClose = `"}`
)

// decodeQueryBody is decodeBody for a QueryRequest. A body that is the
// canonical bare-pattern spelling, whole in one small read, is taken without
// a JSON decoder; any other goes to encoding/json as decodeBody would give it,
// the bytes already read first.
func decodeQueryBody(rq *request, limit int64, req *QueryRequest) *apiError {
	rq.r.Body = http.MaxBytesReader(rq.w, rq.r.Body, limit)
	buf := blockPool.Get().(*[]byte)
	defer putBlock(buf)
	head := (*buf)[:512]
	n, err := io.ReadFull(rq.r.Body, head)
	whole := err == io.EOF || err == io.ErrUnexpectedEOF
	if whole {
		body := bytes.TrimRight(head[:n], " \t\r\n")
		if p, ok := bytes.CutPrefix(body, []byte(patternBodyOpen)); ok {
			if p, ok = bytes.CutSuffix(p, []byte(patternBodyClose)); ok && plainASCII(p) {
				req.Pattern = string(p)
				return nil
			}
		}
	}
	var src io.Reader = bytes.NewReader(head[:n])
	if !whole {
		// More may follow, or the read failed and fails again for the
		// decoder.
		src = io.MultiReader(src, rq.r.Body)
	}
	if err := json.NewDecoder(src).Decode(req); err != nil {
		return errStatus(http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
	}
	return nil
}

// plainASCII reports whether b is printable ASCII with no quote or
// backslash: a JSON string body that decodes to itself.
func plainASCII(b []byte) bool {
	for _, c := range b {
		if c < 0x20 || c > 0x7e || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}

// decodeQuery parses the body of /query and /explain and compiles it into
// a validated core.Query.
func decodeQuery(rq *request, limit int64) (req QueryRequest, q *core.Query, e *apiError) {
	if e := decodeQueryBody(rq, limit, &req); e != nil {
		return req, nil, e
	}
	var err error
	switch {
	case (req.Pattern != "") == (req.Query != ""):
		err = errors.New("set exactly one of \"pattern\" and \"query\"")
	case req.Pattern != "":
		// Parse already holds a pattern to the engine's rules.
		q, err = pattern.Parse(req.Pattern)
	default:
		if q, err = core.ParseQuery(strings.NewReader(req.Query)); err == nil {
			err = core.ValidateQuery(q)
		}
	}
	if err != nil {
		return req, nil, errStatus(http.StatusBadRequest, err.Error())
	}
	return req, q, nil
}

// requestContext derives the context a request's work runs under: the
// client's, bounded by the request's deadline, ended by Abort, and marked to
// record spans when the slow-query log may print them. The caller must
// defer endRequest.
func (s *Server) requestContext(rq *request, lim core.Limits) context.Context {
	ctx, cancel := lim.WithContext(rq.r.Context())
	if s.cfg.SlowQuery > 0 {
		ctx = core.WithSpans(ctx)
	}
	rq.cancel = cancel
	s.inflight.mu.Lock()
	if s.inflight.aborted {
		cancel()
	} else {
		s.inflight.reqs[rq] = struct{}{}
	}
	s.inflight.mu.Unlock()
	return ctx
}

// endRequest cancels the context requestContext derived and forgets it.
func (s *Server) endRequest(rq *request) {
	s.inflight.mu.Lock()
	delete(s.inflight.reqs, rq)
	s.inflight.mu.Unlock()
	rq.cancel()
}

// inflight is the set of requests whose contexts Abort ends: each between
// its requestContext and its endRequest.
type inflight struct {
	mu      sync.Mutex
	aborted bool // Abort ran: every later request is born cancelled
	reqs    map[*request]struct{}
}

// validateShard checks a request's shard selector: not client-sent on a
// coordinator (which sets it for its own legs), internally consistent, and
// — on a process that knows its own cluster identity — matching this shard.
// A selector addressed to the wrong shard would silently drop or duplicate
// matches in the coordinator's merge, so it is refused loudly.
func (s *Server) validateShard(sel *ShardSelector) *apiError {
	switch {
	case sel == nil:
		return nil
	case s.coord != nil:
		return errStatus(http.StatusBadRequest, "the shard selector is set by the coordinator; do not send one")
	case sel.Count < 1 || sel.Index < 0 || sel.Index >= sel.Count:
		return errStatus(http.StatusBadRequest, fmt.Sprintf("invalid shard selector: index %d of %d", sel.Index, sel.Count))
	case sel.N < 0:
		return errStatus(http.StatusBadRequest, fmt.Sprintf("invalid shard selector: negative vertex count %d", sel.N))
	}
	if s.cfg.ShardMap != "" && s.cfg.ShardID >= 0 {
		if n := len(parseShardMap(s.cfg.ShardMap)); sel.Count != n || sel.Index != s.cfg.ShardID {
			return errCode(http.StatusBadRequest, CodeWrongShard,
				fmt.Sprintf("shard selector %d of %d does not match this process (shard %d of %d)",
					sel.Index, sel.Count, s.cfg.ShardID, n))
		}
	}
	return nil
}

// handleQuery streams a query's matches as NDJSON, closed by a stats
// trailer or an error record. Everything but the production of matches is
// here: decode, validation, the request's caps and deadline, and the sink
// that owns the deferred 200, the byte and match caps, and the trailer.
func (s *Server) handleQuery(rq *request) *apiError {
	cfg := rq.be.limits()
	req, q, e := decodeQuery(rq, cfg.MaxRequestBytes)
	if e != nil {
		return e
	}
	if e := s.validateShard(req.Shard); e != nil {
		return e
	}
	timeout, maxMatches := cfg.effectiveLimits(req)
	ctx := s.requestContext(rq, core.Limits{Timeout: timeout})
	defer s.endRequest(rq)

	sink := newStreamWriter(rq.w, cfg.MaxBytes, maxMatches)
	defer sink.release()
	trailer := &StreamStats{TraceID: rq.trace}
	if e = rq.be.streamMatches(ctx, rq, req, q, sink, trailer); e == nil {
		sink.writeTrailer(trailer)
	} else {
		sink.writeError(e, rq.trace)
	}
	// Read after the terminal record: the records still pending ride in its
	// write.
	rq.matches = sink.matches
	return e
}

// mutationFromRequest validates one wire-level update and converts it to a
// store mutation. Obviously-invalid IDs are rejected before they share a
// batch with other clients' mutations; the store re-validates against the
// live vertex range under the write lock.
func mutationFromRequest(req UpdateRequest) (memcloud.Mutation, error) {
	switch req.Op {
	case OpAddNode:
		if req.Label == "" {
			return memcloud.Mutation{}, fmt.Errorf("add_node requires a label")
		}
		return memcloud.Mutation{Op: memcloud.MutAddNode, Label: req.Label}, nil
	case OpAddEdge, OpRemoveEdge:
		if req.U < 0 || req.V < 0 {
			return memcloud.Mutation{}, fmt.Errorf("u and v must be non-negative vertex IDs")
		}
		op := memcloud.MutAddEdge
		if req.Op == OpRemoveEdge {
			op = memcloud.MutRemoveEdge
		}
		return memcloud.Mutation{Op: op, U: graph.NodeID(req.U), V: graph.NodeID(req.V)}, nil
	default:
		return memcloud.Mutation{}, fmt.Errorf("unknown op %q (want %s, %s, or %s)",
			req.Op, OpAddNode, OpAddEdge, OpRemoveEdge)
	}
}

// handleUpdates serves /update — a one-element bulk with a single-result
// acknowledgement — and /update/bulk. A bulk array is ONE batch (one
// dispatcher job, one journal record, one durability window), so batching N
// writes pays one fsync instead of N, and per-item conflicts land in the
// response's result slots instead of failing the request. Every mutation
// is validated before any is applied or broadcast.
func (s *Server) handleUpdates(rq *request, bulk bool) *apiError {
	var req BulkUpdateRequest
	body := any(&req)
	if !bulk {
		req.Updates = make([]UpdateRequest, 1)
		body = &req.Updates[0]
	}
	if e := decodeBody(rq, rq.be.limits().MaxRequestBytes, body); e != nil {
		return e
	}
	switch {
	case len(req.Updates) == 0:
		return errStatus(http.StatusBadRequest, "bulk update requires at least one mutation")
	case len(req.Updates) > MaxBulkUpdates:
		return errStatus(http.StatusBadRequest,
			fmt.Sprintf("bulk update carries %d mutations; the limit is %d", len(req.Updates), MaxBulkUpdates))
	}
	muts := make([]memcloud.Mutation, len(req.Updates))
	for i, u := range req.Updates {
		mut, err := mutationFromRequest(u)
		if err != nil {
			msg := err.Error()
			if bulk {
				msg = fmt.Sprintf("updates[%d]: %v", i, err)
			}
			return errStatus(http.StatusBadRequest, msg)
		}
		muts[i] = mut
	}
	return rq.be.applyUpdates(rq, req.Updates, muts, bulk)
}
