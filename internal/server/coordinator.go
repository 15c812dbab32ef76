package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stwig/internal/core"
	"stwig/internal/memcloud"
)

// Coordinator side of cluster mode (Config.ShardMap with a negative
// ShardID). The cluster is N stwigd shard processes plus this stateless
// front: every shard hosts the full replicated graph, and a shard answers a
// query only with the matches that bind the pattern's centre vertex
// (core.Query.Center) to a data vertex it owns under the range partition of
// the vertex id space — the same memcloud.RangePartitioner that assigns
// vertices to simulated machines, lifted one level up to assign them to real
// processes. A shard makes that cut inside exploration (core.Query.Sliced),
// so it does its share of the query's work, not all of it. The centre is a
// function of the pattern alone, so shards whose plans differ — label
// statistics move with every update — still cut along the same vertex. The
// shards' match sets are therefore disjoint and their union complete, so the
// coordinator can merge the N NDJSON streams into one without deduplication
// and the VF2/Ullmann cross-check holds over the wire.
//
// Queries fan out scatter-gather: one HTTP leg per shard, each carrying the
// request's trace ID in X-Stwig-Trace. A shard encodes a match once; from
// there it is bytes. A shard's stream is canonical match lines with one
// terminal record last, so each leg forwards the whole lines of every read
// straight into the client's stream, through one lineHandoff the legs share
// — the way a local engine's machines hand over their encoded blocks — and
// looks only at a read's last line: only a leg's terminal record is ever
// decoded. What that trusts is checked once per leg: the trailer's match
// count must equal the lines the leg forwarded, or the leg fails. The match
// and byte caps are enforced globally on the forwarded bytes, at a
// line boundary (a per-leg cap would let K×cap records through). Nothing
// reaches the client until every leg has answered with response headers —
// a shard sends them the moment the request is admitted — so a shard that is
// down, refusing or 5xx when the query starts always costs the client a
// status-coded envelope, and so does one that fails later while the client's
// first write unit is pending; after that, an error record ends the stream.
// Either way any leg failure degrades loudly, as shard_unavailable naming the
// dead shard, never as a silently partial match set. Updates broadcast to
// every shard — all replicas must converge — and shard 0's acknowledgement,
// the same node ids and epoch as every other's, is the one returned.

// coordMaxLine bounds one NDJSON line read off a shard leg (mirrors the Go
// client's scanner cap); a leg's read buffer grows past blockBufSize only to
// hold one line longer than that.
const coordMaxLine = 16 << 20

// shardLeg is one shard's slot in the coordinator: its address plus the
// cumulative per-leg counters /stats and /metrics expose.
type shardLeg struct {
	id  int
	url string

	mu        sync.Mutex
	requests  uint64
	errors    uint64
	bytesRead uint64
	elapsed   time.Duration
	lat       histogram
}

// record books one finished leg call.
func (l *shardLeg) record(bytesRead int64, elapsed time.Duration, isErr bool) {
	l.mu.Lock()
	l.requests++
	if isErr {
		l.errors++
	}
	if bytesRead > 0 {
		l.bytesRead += uint64(bytesRead)
	}
	l.elapsed += elapsed
	l.mu.Unlock()
	l.lat.observe(elapsed)
}

type coordinator struct {
	s    *Server
	legs []*shardLeg
	hc   *http.Client
	// nsNodes caches each namespace's vertex count (namespace → int64), the
	// N a query fan-out pins; refreshed lazily from a shard's stats and
	// bumped by add_node acknowledgements.
	nsNodes sync.Map
	// nsWrite serializes mutating broadcasts per namespace (namespace →
	// *sync.Mutex). Two overlapping update broadcasts could otherwise reach
	// shard A as U1,U2 and shard B as U2,U1 — and because add_node ids are
	// assigned shard-locally, divergent orders mean permanently divergent
	// replicas. Single-writer-per-namespace makes every shard apply the
	// same sequence.
	nsWrite sync.Map
}

// writeLock returns the namespace's broadcast-serialization mutex.
func (c *coordinator) writeLock(ns string) *sync.Mutex {
	v, _ := c.nsWrite.LoadOrStore(ns, &sync.Mutex{})
	return v.(*sync.Mutex)
}

func newCoordinator(s *Server) *coordinator {
	urls := parseShardMap(s.cfg.ShardMap)
	legs := make([]*shardLeg, len(urls))
	for i, u := range urls {
		legs[i] = &shardLeg{id: i, url: u}
	}
	// Per-request deadlines come from each request's context; the transport
	// keeps per-shard connections pooled across requests. Every query in
	// flight holds one connection to each shard, so the idle pool is sized
	// to the in-flight limit — http.DefaultTransport's two per host would
	// dial and tear down a connection per leg beyond the second.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = s.cfg.MaxInFlight
	tr.MaxIdleConns = s.cfg.MaxInFlight * len(legs)
	return &coordinator{s: s, legs: legs, hc: &http.Client{Transport: tr}}
}

// info snapshots the per-leg counters for /stats.
func (c *coordinator) info() *ClusterInfo {
	ci := &ClusterInfo{Role: "coordinator", ShardID: c.s.cfg.ShardID, Shards: make([]ShardInfo, len(c.legs))}
	for i, l := range c.legs {
		l.mu.Lock()
		ci.Shards[i] = ShardInfo{
			Shard:        l.id,
			URL:          l.url,
			Requests:     l.requests,
			Errors:       l.errors,
			BytesRead:    l.bytesRead,
			ElapsedMicro: uint64(l.elapsed.Microseconds()),
		}
		l.mu.Unlock()
	}
	return ci
}

// tenantPath is one tenant endpoint's path on a shard.
func tenantPath(ns, endpoint string) string {
	return "/v1/ns/" + url.PathEscape(ns) + endpoint
}

// unavailable tags a failed leg so the degraded-mode envelope can name it.
func (l *shardLeg) unavailable(err error) error {
	return fmt.Errorf("shard %d (%s) unavailable: %w", l.id, l.url, err)
}

// ---- scatter-gather query ----

type legQueryResult struct {
	leg     *shardLeg
	matches int   // this leg's records the client's stream took
	bytes   int64 // read off the leg's response body
	elapsed time.Duration
	stats   *StreamStats // the leg's own trailer, nil if it never arrived
	// err is the leg's failure. A deterministic client-level 4xx (unknown
	// namespace, read-only, overloaded, ...) is an *apiError: every shard
	// answers those the same, so it is relayed as-is — status, code,
	// message and retry hint — not dressed up as a shard_unavailable
	// failure.
	err error
}

// fanout is what one query's legs share: the hand-off into the client's
// sink, and the leg that failed, if one did. The hand-off keeps a forwarded
// block whole and lets nothing through once the outcome is decided: the
// first leg to fail while the answer was still open shuts it and becomes
// failed — the response degrades to its error, since a partial merge would
// be a wrong answer — while a sink that declined more (a global cap
// tripped) shuts it with the answer complete, and whatever the other legs
// report after that is not a failure. Either one cancels every leg.
type fanout struct {
	out    lineHandoff
	failed *legQueryResult // set once, by the failure that shut out
	cancel context.CancelFunc
	// handshake releases the legs to forward once each of them has answered
	// with response headers or failed.
	handshake sync.WaitGroup
}

// fail books a leg's failure. Once the legs' context has ended — a sibling
// failed, a cap was satisfied, the client left — whatever a leg trips over
// is reported as that context error, which nobody blames on the shard; a
// refusal to relay stays what it is.
func (f *fanout) fail(ctx context.Context, res *legQueryResult, err error) {
	var refusal *apiError
	if ctx.Err() != nil && !errors.As(err, &refusal) {
		err = ctx.Err()
	}
	res.err = err
	f.out.mu.Lock()
	open := !f.out.shut && !f.out.sink.closed()
	f.out.shut = true
	f.out.mu.Unlock()
	if open {
		f.failed = res
		f.cancel()
	}
}

// forward hands the sink one block of a leg's match lines. Once
// the fan-out is decided — by this block or before it — the leg is told to
// stop the way its cancelled context would.
func (f *fanout) forward(res *legQueryResult, block []byte) error {
	taken, ok := f.out.hand(block)
	res.matches += taken
	if !ok {
		f.cancel() // the outcome is decided; stop the shards' work
		return context.Canceled
	}
	return nil
}

func (c *coordinator) limits() *Config { return &c.s.cfg }

// streamMatches is the remote match source: one leg per shard, each
// forwarding its shard's encoded lines into the client's stream under the
// request's global caps.
func (c *coordinator) streamMatches(ctx context.Context, rq *request, req QueryRequest, _ *core.Query, sink *streamWriter, trailer *StreamStats) *apiError {
	start := time.Now()
	// Snapshot the namespace's vertex count once and pin it into every
	// leg's selector: while an add_node broadcast is in flight the shards'
	// local counts differ, and legs partitioning over different N put a
	// boundary vertex on two shards (duplicates) or on none (drops). One
	// shared N keeps the legs' slices disjoint and complete, so a count
	// that cannot be read fails the query rather than leaving each leg to
	// its local one. (Zero is an empty namespace, or one shard 0 refuses
	// with a 4xx that the legs are about to relay.)
	partN, e := c.nodeCount(ctx, rq.r, rq.namespace)
	if e != nil {
		return e
	}

	legCtx, legCancel := context.WithCancel(ctx)
	defer legCancel()
	f := &fanout{out: lineHandoff{sink: sink}, cancel: legCancel}
	f.handshake.Add(len(c.legs))
	results := make([]*legQueryResult, len(c.legs))
	var wg sync.WaitGroup
	for i, leg := range c.legs {
		legReq := req
		legReq.Shard = &ShardSelector{Index: leg.id, Count: len(c.legs), N: partN}
		res := &legQueryResult{leg: leg}
		results[i] = res
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.queryLeg(legCtx, f, res, rq.r, rq.namespace, legReq)
			// 4xx refusals and context cancellation are not shard failures;
			// only transport errors and 5xx count against the leg.
			var refusal *apiError
			leg.record(res.bytes, res.elapsed,
				res.err != nil && !errors.As(res.err, &refusal) && !errors.Is(res.err, context.Canceled))
		}()
	}
	wg.Wait()
	rq.exec = time.Since(start)

	if failed := f.failed; failed != nil {
		// A refusal is relayed untranslated — IsNotFound and friends keep
		// working, and it is not booked as a shard failure; anything else
		// that is not the request's own context ending names the dead shard.
		return errFrom(failed.leg.unavailable(failed.err), http.StatusBadGateway, CodeShardUnavailable)
	}

	trailer.Shards = make([]ShardLegStats, len(results))
	var elapsedMax time.Duration
	for i, res := range results {
		st := ShardLegStats{Shard: i, URL: res.leg.url, Matches: res.matches, Bytes: res.bytes, ElapsedMicros: res.elapsed.Microseconds()}
		if res.err != nil {
			st.Error = res.err.Error()
		}
		trailer.Shards[i] = st
		if c.s.cfg.SlowQuery > 0 {
			// A coordinator's slow-query breakdown is per leg.
			rq.spans = append(rq.spans, core.Span{Name: fmt.Sprintf("shard %d", i), Duration: res.elapsed, Matches: int64(res.matches)})
		}
		elapsedMax = max(elapsedMax, res.elapsed)
		legStats := res.stats
		if legStats == nil {
			continue
		}
		trailer.Truncated = trailer.Truncated || legStats.Truncated
		trailer.PlanMicros += legStats.PlanMicros
		trailer.ExploreMicros += legStats.ExploreMicros
		trailer.JoinMicros += legStats.JoinMicros
		trailer.NetMessages += legStats.NetMessages
		trailer.NetBytes += legStats.NetBytes
		trailer.EmitFlushes += legStats.EmitFlushes
	}
	trailer.ElapsedMicros = elapsedMax.Microseconds()
	return nil
}

// queryLeg runs one shard's query leg into res: POST the shard-scoped
// request, meet the other legs at the handshake, then forward the response's
// records until its terminal one.
func (c *coordinator) queryLeg(ctx context.Context, f *fanout, res *legQueryResult, r *http.Request, ns string, req QueryRequest) {
	start := time.Now()
	defer func() { res.elapsed = time.Since(start) }()
	resp, err := c.openLeg(ctx, res.leg, r, ns, req)
	if err != nil {
		f.fail(ctx, res, err)
	}
	// The leg handshake: no leg forwards a byte until every leg has answered
	// or failed, so a shard that was never going to answer is reported by
	// status — there is no first block to lose a race against.
	f.handshake.Done()
	if err != nil {
		return
	}
	defer resp.Body.Close()
	f.handshake.Wait()
	if err := forwardLeg(f, res, resp.Body); err != nil {
		f.fail(ctx, res, err)
	}
}

// openLeg sends one leg's request and returns its 200 response. A 4xx comes
// back as the *apiError to relay — a client-level refusal, not a dead shard.
func (c *coordinator) openLeg(ctx context.Context, leg *shardLeg, r *http.Request, ns string, req QueryRequest) (*http.Response, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(ctx, r, http.MethodPost, leg.url+tenantPath(ns, "/query"), body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusOK {
		return resp, nil
	}
	defer resp.Body.Close()
	if resp.StatusCode < 400 || resp.StatusCode >= 500 {
		return nil, fmt.Errorf("leg status %d: %s", resp.StatusCode, readEnvelopeError(resp))
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	refusal := errCode(resp.StatusCode, CodeBadRequest, strings.TrimSpace(string(raw)))
	var env ErrorResponse
	if json.Unmarshal(raw, &env) == nil && env.Error != "" {
		refusal.msg = env.Error
		if env.Code != "" {
			refusal.code = env.Code
		}
		refusal.retryAfter = time.Duration(env.RetryAfterMS) * time.Millisecond
	}
	return nil, refusal
}

// forwardLeg reads one leg's NDJSON body in chunks and moves it into the
// client's stream line by whole line. It returns nil once the leg's stats
// trailer has arrived, counting the lines forwarded, with nothing after it.
func forwardLeg(f *fanout, res *legQueryResult, body io.Reader) error {
	bp := blockPool.Get().(*[]byte)
	defer putBlock(bp)
	buf := (*bp)[:blockBufSize]
	n := 0 // buf[:n] is the start of a line still arriving
	for {
		m, readErr := body.Read(buf[n:])
		res.bytes += int64(m)
		// Whatever precedes the last newline this read brought is whole lines.
		nl := bytes.LastIndexByte(buf[n:n+m], '\n')
		n += m
		if whole := n - m + nl + 1; nl >= 0 {
			if terminal, err := forwardLines(f, res, buf[:whole]); terminal || err != nil {
				rest := n - whole
				if err == nil && rest == 0 && readErr == nil {
					// Reading on to the body's end — all that should be left
					// of it — lets the transport keep this connection for
					// the next query instead of closing it.
					rest, _ = body.Read(buf)
				}
				if err == nil && rest > 0 {
					err = errors.New("bad stream record: bytes after the terminal record")
				}
				return err
			}
			n = copy(buf, buf[whole:n])
		}
		switch {
		case readErr == io.EOF:
			if n > 0 { // a last line that ends without a newline
				rec, err := decodeLegRecord(buf[:n])
				if err != nil {
					return err
				}
				if rec.Type != RecordMatch {
					return endLeg(res, rec)
				}
			}
			return io.ErrUnexpectedEOF // the stream ended without a terminal record
		case readErr != nil:
			return readErr
		case n < len(buf):
		case n >= coordMaxLine:
			return fmt.Errorf("bad stream record: a line longer than %d bytes", coordMaxLine)
		default: // one line fills the whole buffer: grow it to fit
			*bp = make([]byte, min(2*n, coordMaxLine))
			copy(*bp, buf)
			buf = *bp
		}
	}
}

// forwardLines moves one read's whole lines into the client's stream as one
// block. Only the last line is looked at: a match line — canonical, or a
// match in another spelling once decoded — goes with the rest, verbatim;
// anything else is the leg's terminal record, which ends it (terminal).
func forwardLines(f *fanout, res *legQueryResult, lines []byte) (terminal bool, err error) {
	start := bytes.LastIndexByte(lines[:len(lines)-1], '\n') + 1
	if hasPrefix(lines[start:], matchLinePrefix) {
		return false, f.forward(res, lines)
	}
	rec, err := decodeLegRecord(lines[start:])
	if err != nil {
		return false, err
	}
	if rec.Type == RecordMatch {
		return false, f.forward(res, lines)
	}
	if err := f.forward(res, lines[:start]); err != nil {
		return false, err
	}
	return true, endLeg(res, rec)
}

func decodeLegRecord(line []byte) (rec Record, err error) {
	if err := json.Unmarshal(line, &rec); err != nil {
		return rec, fmt.Errorf("bad stream record: %w", err)
	}
	return rec, nil
}

// endLeg takes a leg's terminal record: the stats trailer, whose match count
// must be the lines the leg forwarded, or an error record. Anything else
// fails the leg.
func endLeg(res *legQueryResult, rec Record) error {
	switch rec.Type {
	case RecordStats:
		if rec.Stats == nil || rec.Stats.Matches != res.matches {
			return fmt.Errorf("bad stream record: the leg's trailer does not count the %d lines it sent", res.matches)
		}
		res.stats = rec.Stats
		return nil
	case RecordError:
		return fmt.Errorf("%s (%s)", rec.Error, rec.Code)
	default:
		return fmt.Errorf("unknown stream record type %q", rec.Type)
	}
}

// ---- broadcast updates and proxied admin ----

// legHTTPResult is one shard's reply to a broadcast or proxied call.
type legHTTPResult struct {
	leg    *shardLeg
	status int
	body   []byte
	err    error
}

// do sends one request to a shard, forwarding the client request's trace ID
// (the effective one — beginRequest stamped it) and any Authorization.
func (c *coordinator) do(ctx context.Context, r *http.Request, method, target string, body []byte) (*http.Response, error) {
	hreq, err := http.NewRequestWithContext(ctx, method, target, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(TraceHeader, r.Header.Get(TraceHeader))
	if auth := r.Header.Get("Authorization"); auth != "" {
		hreq.Header.Set("Authorization", auth)
	}
	return c.hc.Do(hreq)
}

// callLeg performs one buffered HTTP call against a shard and books the
// leg's counters.
func (c *coordinator) callLeg(ctx context.Context, leg *shardLeg, r *http.Request, method, target string, body []byte) legHTTPResult {
	// Bound the call by the server's default request deadline on top of
	// whatever the caller's context carries: a shard that accepts the TCP
	// connection but never answers degrades to a shard_unavailable envelope
	// instead of hanging the request (and its goroutine) forever.
	ctx, cancel := context.WithTimeout(ctx, c.s.cfg.DefaultTimeout)
	defer cancel()
	start := time.Now()
	out := legHTTPResult{leg: leg}
	resp, err := c.do(ctx, r, method, target, body)
	if err == nil {
		out.status = resp.StatusCode
		out.body, err = io.ReadAll(io.LimitReader(resp.Body, coordMaxLine))
		resp.Body.Close()
	}
	out.err = err
	leg.record(int64(len(out.body)), time.Since(start), err != nil || out.status >= 500)
	return out
}

// broadcast performs the same call against each of legs concurrently and
// returns the replies in leg order.
func (c *coordinator) broadcast(ctx context.Context, r *http.Request, legs []*shardLeg, method, path string, body []byte) []legHTTPResult {
	results := make([]legHTTPResult, len(legs))
	var wg sync.WaitGroup
	for i, leg := range legs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = c.callLeg(ctx, leg, r, method, leg.url+path, body)
		}()
	}
	wg.Wait()
	return results
}

// firstFailure scans shard replies for a dead shard — a transport error or
// a 5xx — and reports it with the degraded-mode envelope that names the
// shard. Client-level refusals (4xx: conflict, unauthorized, ...) are not
// failures — the shards answer those consistently and one reply is relayed
// as-is.
func firstFailure(results ...legHTTPResult) *apiError {
	for _, res := range results {
		err := res.err
		if err == nil && res.status >= 500 {
			err = fmt.Errorf("status %d: %s", res.status, strings.TrimSpace(string(res.body)))
		}
		if err != nil {
			return errCode(http.StatusBadGateway, CodeShardUnavailable, res.leg.unavailable(err).Error())
		}
	}
	return nil
}

// relay copies one shard's reply to the client verbatim.
func relay(rq *request, res legHTTPResult) *apiError {
	rq.w.Header().Set("Content-Type", "application/json")
	rq.w.WriteHeader(res.status)
	_, _ = rq.w.Write(res.body)
	return nil
}

// forward serves a route the coordinator has nothing to add to: the request
// goes to the shards unparsed, under its own path — any admin token it
// carries is theirs to check — and shard 0's reply is relayed, since every
// replica answers the same (plans, the namespace list, a create). Reads
// (all=false) ask shard 0 alone; a create reaches every shard.
func (c *coordinator) forward(all bool) handler {
	return func(rq *request) *apiError {
		body, err := io.ReadAll(http.MaxBytesReader(rq.w, rq.r.Body, c.s.cfg.MaxRequestBytes))
		if err != nil {
			return errStatus(http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		}
		legs := c.legs
		if !all {
			legs = legs[:1]
		}
		results := c.broadcast(rq.r.Context(), rq.r, legs, rq.r.Method, rq.r.URL.EscapedPath(), body)
		if e := firstFailure(results...); e != nil {
			return e
		}
		return relay(rq, results[0])
	}
}

// nodeCount returns the namespace's cached vertex count, fetching it from
// shard 0's stats on a cache miss. A count that cannot be read — shard 0 is
// unreachable, answers 5xx or answers garbage — is an error naming the
// shard, never a silent zero; a 4xx (unknown namespace, ...) reads as zero,
// since every shard refuses those alike and the caller's own legs or
// broadcast relay the real refusal.
func (c *coordinator) nodeCount(ctx context.Context, r *http.Request, ns string) (int64, *apiError) {
	// A cached zero is treated as a miss and re-fetched: zero means the
	// namespace looked empty, and pinning it would leave every later
	// fan-out to the shards' own counts, which differ while an add_node
	// broadcast is in flight.
	if v, ok := c.nsNodes.Load(ns); ok {
		if n := v.(*atomic.Int64).Load(); n > 0 {
			return n, nil
		}
	}
	st, _, e := c.shardStats(ctx, r, ns)
	if err := ctx.Err(); err != nil {
		return 0, errContext(err, "") // the request ended, not the shard
	}
	if st == nil {
		return 0, e
	}
	return st.Graph.Nodes, nil
}

// shardStats reads shard 0's stats of namespace ns and caches its vertex
// count. A reply other than 200 comes back in res, with st nil.
func (c *coordinator) shardStats(ctx context.Context, r *http.Request, ns string) (st *StatsResponse, res legHTTPResult, e *apiError) {
	leg := c.legs[0]
	res = c.callLeg(ctx, leg, r, http.MethodGet, leg.url+tenantPath(ns, "/stats"), nil)
	if e = firstFailure(res); e != nil || res.status != http.StatusOK {
		return nil, res, e
	}
	st = &StatsResponse{}
	if err := json.Unmarshal(res.body, st); err != nil {
		res.err = fmt.Errorf("bad stats body: %w", err)
		return nil, res, firstFailure(res)
	}
	c.bumpNodeCount(ns, st.Graph.Nodes)
	return st, res, nil
}

// bumpNodeCount raises the cached vertex count (never lowers it; remove_edge
// and add_edge do not shrink the id space). Non-positive counts are never
// cached — nodeCount treats a stored zero as a miss.
func (c *coordinator) bumpNodeCount(ns string, n int64) {
	if n <= 0 {
		return
	}
	v, _ := c.nsNodes.LoadOrStore(ns, &atomic.Int64{})
	ctr := v.(*atomic.Int64)
	for {
		cur := ctr.Load()
		if n <= cur || ctr.CompareAndSwap(cur, n) {
			return
		}
	}
}

// applyUpdates is the remote update sink: the batch is broadcast to every
// shard — all replicas must converge — and shard 0's reply is relayed, since
// every replica acknowledges the same node ids and epoch (only its wait_us
// differs).
func (c *coordinator) applyUpdates(rq *request, reqs []UpdateRequest, _ []memcloud.Mutation, bulk bool) *apiError {
	name, ctx := rq.namespace, rq.r.Context()
	// Single writer per namespace (see nsWrite): every shard must apply the
	// batches in one order.
	lock := c.writeLock(name)
	lock.Lock()
	defer lock.Unlock()
	start := time.Now()
	endpoint, body := "/update", []byte(nil)
	if bulk {
		endpoint = "/update/bulk"
		body, _ = json.Marshal(BulkUpdateRequest{Updates: reqs})
	} else {
		body, _ = json.Marshal(reqs[0])
	}
	results := c.broadcast(ctx, rq.r, c.legs, http.MethodPost, tenantPath(name, endpoint), body)
	rq.exec = time.Since(start)
	if e := firstFailure(results...); e != nil {
		// At least one replica missed the write: converging the survivors
		// while a shard is gone would fork the replicas, so the whole
		// update is reported failed. (Shards that did apply it are ahead;
		// the runbook's answer is restoring the dead shard from a peer's
		// snapshot, exactly like a follower bootstrap.)
		return e
	}
	// Keep the node-count cache — the query fan-out's pinned N — warm off
	// the batch's add_node results.
	if results[0].status == http.StatusOK {
		if bulk {
			var br BulkUpdateResponse
			if json.Unmarshal(results[0].body, &br) == nil {
				for _, item := range br.Results {
					if item.NodeID >= 0 {
						c.bumpNodeCount(name, item.NodeID+1)
					}
				}
			}
		} else if reqs[0].Op == OpAddNode {
			var ur UpdateResponse
			if json.Unmarshal(results[0].body, &ur) == nil {
				c.bumpNodeCount(name, ur.NodeID+1)
			}
		}
	}
	return relay(rq, results[0])
}

// proxyStats serves the cluster view of a namespace: shard 0's stats body
// (graph, engine, queue — identical shape on every replica) with the
// coordinator's own cluster block and endpoint counters spliced in.
func (c *coordinator) proxyStats(rq *request) *apiError {
	st, res, e := c.shardStats(rq.r.Context(), rq.r, rq.namespace)
	if e != nil {
		return e
	}
	if st == nil {
		return relay(rq, res)
	}
	st.UptimeSeconds = time.Since(c.s.start).Seconds()
	st.Draining = c.s.draining.Load()
	st.Cluster = c.info()
	st.Endpoints = c.s.met.snapshot()
	writeJSON(rq.w, http.StatusOK, st)
	return nil
}

func (c *coordinator) proxyDropNamespace(rq *request) *apiError {
	name := rq.r.PathValue("ns")
	// A drop is a mutating broadcast too: serialize it with the namespace's
	// updates so it cannot interleave mid-stream on some shards, and so the
	// node-count cache eviction below cannot race a concurrent add_node's
	// bump.
	lock := c.writeLock(name)
	lock.Lock()
	defer lock.Unlock()
	results := c.broadcast(rq.r.Context(), rq.r, c.legs, http.MethodDelete, tenantPath(name, ""), nil)
	if e := firstFailure(results...); e != nil {
		return e
	}
	c.nsNodes.Delete(name)
	return relay(rq, results[0])
}
