// Package client is the Go client for stwigd's HTTP/JSON protocol. It
// shares the wire structs with internal/server, so client and service
// cannot drift, and it decodes /query NDJSON streams incrementally — the
// caller sees each match as it arrives, exactly like core.Engine.MatchStream.
//
// All calls target the versioned /v1 surface, the only one stwigd serves.
// Tenant data-plane calls live on Client; control-plane calls (namespace
// lifecycle, promotion, profiling) live on Admin, obtained via
// Client.Admin().
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"stwig/internal/core"
	"stwig/internal/server"
)

// ErrStopped is returned by Query when the caller's onMatch callback
// stopped the stream before its terminal record, so no stats exist.
var ErrStopped = errors.New("stwigd: stream stopped by caller")

// Update retry defaults: a busy server (503 behind a pinned stream or a
// full update queue) is transient by contract, so Update retries it a few
// times, honoring the server's retry hint capped at a client-side bound
// with jitter. WithRetry tunes or disables this.
const (
	DefaultUpdateRetries   = 3
	DefaultUpdateRetryWait = 500 * time.Millisecond
)

// Client talks to one stwigd instance, addressing either the default
// namespace (from New) or one tenant (from Namespace).
type Client struct {
	// origin is scheme://host:port with no path; base is origin plus the
	// scope prefix — "/v1" for the default namespace, "/v1/ns/{name}" for a
	// scoped client. Control-plane calls always resolve against origin.
	origin     string
	base       string
	hc         *http.Client
	adminToken string
	logger     *slog.Logger
	// updateRetries is how many times Update retries a 503 before
	// surfacing it; updateRetryWait caps each backoff sleep.
	updateRetries   int
	updateRetryWait time.Duration
}

// Option configures a Client at construction time.
type Option func(*Client)

// WithToken sets the bearer token the control-plane calls send (namespace
// lifecycle, promote, pprof); the server refuses them without it (see
// server.Config.AdminToken). The token is attached only to those calls,
// never to tenant traffic.
func WithToken(token string) Option {
	return func(c *Client) { c.adminToken = token }
}

// WithHTTPClient replaces the underlying HTTP client (tests, custom
// transports). nil keeps the default.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) {
		if hc != nil {
			c.hc = hc
		}
	}
}

// WithLogger installs a structured logger for client-side retry decisions:
// each Update backoff sleep and each abandoned retry budget is logged at
// Debug with the request's trace_id and attempt number, so server request
// logs and client retries line up under one grep. nil keeps the default
// (discard).
func WithLogger(l *slog.Logger) Option {
	return func(c *Client) {
		if l != nil {
			c.logger = l
		}
	}
}

// WithRetry tunes Update's handling of 503 "busy"/"queue full" responses:
// up to retries extra attempts, sleeping between them for the server's
// retry hint capped at maxWait (with jitter, so a thundering herd of
// clients does not re-collide). retries 0 disables retrying and surfaces
// the first 503 verbatim.
func WithRetry(retries int, maxWait time.Duration) Option {
	return func(c *Client) {
		c.updateRetries = retries
		c.updateRetryWait = maxWait
	}
}

// discardLogger swallows client logs until WithLogger installs a real one.
var discardLogger = slog.New(slog.NewTextHandler(io.Discard, nil))

// New builds a client for the given base address. "host:port" is promoted
// to "http://host:port". The default http.Client (no overall timeout —
// streams are long-lived; use contexts) is used unless WithHTTPClient
// replaces it.
func New(base string, opts ...Option) *Client {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	origin := strings.TrimRight(base, "/")
	c := &Client{
		origin:          origin,
		base:            origin + "/v1",
		hc:              &http.Client{},
		logger:          discardLogger,
		updateRetries:   DefaultUpdateRetries,
		updateRetryWait: DefaultUpdateRetryWait,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// authorize attaches the admin bearer token, if one is set.
func (c *Client) authorize(req *http.Request) {
	if c.adminToken != "" {
		req.Header.Set("Authorization", "Bearer "+c.adminToken)
	}
}

// Namespace returns a client scoped to one tenant: Query, Explain, Update,
// Stats, Follow, and ReplicationStatus address /v1/ns/{name}/... instead
// of the default namespace. The scoped client shares the parent's HTTP
// client and credentials; Healthz, Version, and Admin remain origin-wide.
func (c *Client) Namespace(name string) *Client {
	nc := *c
	nc.base = c.origin + "/v1/ns/" + url.PathEscape(name)
	return &nc
}

// traceFor picks the trace ID a request will carry: the context's ID when
// the caller threaded one in (core.WithTraceID), otherwise a freshly minted
// one. Either way every RPC leaves with an X-Stwig-Trace header, so the
// server's request log line, the response header, and any StatusError all
// share the same ID.
func traceFor(ctx context.Context) string {
	if id := core.TraceIDFromContext(ctx); id != "" {
		return id
	}
	return core.NewTraceID()
}

// withTrace stamps the trace ID onto an outgoing request.
func withTrace(trace string) func(*http.Request) {
	return func(req *http.Request) { req.Header.Set(server.TraceHeader, trace) }
}

// StatusError is a non-2xx reply, carrying the decoded server error
// envelope.
type StatusError struct {
	StatusCode int
	Message    string
	// Code is the envelope's machine-readable error code ("overloaded",
	// "read_only", "not_found", ...), empty on responses predating the
	// envelope.
	Code string
	// TraceID is the ID the server logged the failure under, so a failed
	// call can be grepped straight to its request log line.
	TraceID string
	// RetryAfter is the server's backoff hint on 429/503 responses, zero
	// when absent. The envelope's retry_after_ms field is preferred over
	// the whole-second Retry-After header, so sub-second hints survive.
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	code := ""
	if e.Code != "" {
		code = " [" + e.Code + "]"
	}
	if e.TraceID != "" {
		return fmt.Sprintf("stwigd: HTTP %d%s (trace %s): %s", e.StatusCode, code, e.TraceID, e.Message)
	}
	return fmt.Sprintf("stwigd: HTTP %d%s: %s", e.StatusCode, code, e.Message)
}

// IsOverloaded reports whether err is a 429 admission rejection, the signal
// to back off and retry.
func IsOverloaded(err error) bool {
	se, ok := err.(*StatusError)
	return ok && se.StatusCode == http.StatusTooManyRequests
}

// IsBusy reports whether err is a 503 update refusal (writer window busy or
// update queue full) — transient by contract, carrying a retry hint.
func IsBusy(err error) bool {
	se, ok := err.(*StatusError)
	return ok && se.StatusCode == http.StatusServiceUnavailable
}

// IsReadOnly reports whether err is a 403 read-only refusal from an
// unpromoted follower; writes belong on the leader.
func IsReadOnly(err error) bool {
	se, ok := err.(*StatusError)
	return ok && se.Code == server.CodeReadOnly
}

// IsShardUnavailable reports whether err is a coordinator's degraded-mode
// refusal: a shard leg was unreachable (or answered 5xx), so the cluster
// cannot serve a complete answer. The message names the dead shard.
func IsShardUnavailable(err error) bool {
	se, ok := err.(*StatusError)
	return ok && se.Code == server.CodeShardUnavailable
}

// postJSON sends body as a JSON POST; mutators (e.g. authorize) adjust the
// request before it is issued. url must be absolute.
func (c *Client) postJSON(ctx context.Context, url string, body any, mutate ...func(*http.Request)) (*http.Response, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(buf))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	for _, m := range mutate {
		m(req)
	}
	return c.hc.Do(req)
}

// getJSON performs a GET of an absolute URL and decodes the 200 body.
func (c *Client) getJSON(ctx context.Context, url string, out any, mutate ...func(*http.Request)) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	withTrace(traceFor(ctx))(req)
	for _, m := range mutate {
		m(req)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	return decodeJSON(resp, out)
}

// statusError drains a non-2xx response into a StatusError.
func statusError(resp *http.Response) error {
	defer resp.Body.Close()
	var er server.ErrorResponse
	_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&er)
	se := &StatusError{
		StatusCode: resp.StatusCode,
		Message:    er.Error,
		Code:       er.Code,
		TraceID:    resp.Header.Get(server.TraceHeader),
	}
	if er.TraceID != "" {
		se.TraceID = er.TraceID
	}
	if er.RetryAfterMS > 0 {
		se.RetryAfter = time.Duration(er.RetryAfterMS) * time.Millisecond
	} else if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs >= 0 {
		se.RetryAfter = time.Duration(secs) * time.Second
	}
	return se
}

func decodeJSON(resp *http.Response, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return statusError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// Query streams the request's matches, invoking onMatch once per match
// record in arrival order; returning false stops the stream (the rest of
// the response is abandoned and Query returns ErrStopped). On success the
// trailing stats record is returned; a mid-stream error record becomes an
// error.
func (c *Client) Query(ctx context.Context, req server.QueryRequest, onMatch func(assignment []int64) bool) (*server.StreamStats, error) {
	trace := traceFor(ctx)
	resp, err := c.postJSON(ctx, c.base+"/query", req, withTrace(trace))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, statusError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	arity := 0 // every match of one query binds the same number of vertices
	for sc.Scan() {
		// Nearly every line is a match in the server's canonical spelling,
		// which needs no JSON decoder; everything else does.
		if a, ok := server.ParseMatchLine(sc.Bytes(), make([]int64, 0, arity)); ok {
			arity = len(a)
			if onMatch != nil && !onMatch(a) {
				return nil, ErrStopped
			}
			continue
		}
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec server.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("stwigd: bad stream record: %w", err)
		}
		switch rec.Type {
		case server.RecordMatch:
			if onMatch != nil && !onMatch(rec.Assignment) {
				return nil, ErrStopped
			}
		case server.RecordStats:
			return rec.Stats, nil
		case server.RecordError:
			if rec.TraceID != "" {
				return nil, fmt.Errorf("stwigd: query failed (trace %s): %s", rec.TraceID, rec.Error)
			}
			return nil, fmt.Errorf("stwigd: query failed: %s", rec.Error)
		default:
			return nil, fmt.Errorf("stwigd: unknown record type %q", rec.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("stwigd: stream ended without a terminal record")
}

// Explain returns the rendered execution plan for the request's query.
// Setting req.Analyze additionally executes the query server-side and
// returns the per-phase span breakdown in ExplainResponse.Analyze.
func (c *Client) Explain(ctx context.Context, req server.QueryRequest) (*server.ExplainResponse, error) {
	resp, err := c.postJSON(ctx, c.base+"/explain", req, withTrace(traceFor(ctx)))
	if err != nil {
		return nil, err
	}
	var out server.ExplainResponse
	if err := decodeJSON(resp, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Update applies one dynamic graph mutation. A 503 "busy"/"queue full"
// refusal is retried up to the configured retry budget (see WithRetry),
// sleeping between attempts for the server's retry hint capped at the
// configured bound, with jitter. Only 503s carrying a positive hint are
// retried — the server attaches the hint to exactly the transient
// refusals; a 503 without one (namespace dropped, server draining) cannot
// clear and is surfaced verbatim, as is any other failure and a transient
// 503 that outlives the budget.
func (c *Client) Update(ctx context.Context, req server.UpdateRequest) (*server.UpdateResponse, error) {
	var out server.UpdateResponse
	if err := c.postUpdateRetry(ctx, c.base+"/update", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// BulkUpdate applies a batch of mutations in ONE round trip and ONE
// durability window: the server journals the whole array as a single
// record and fsyncs once, so a client with N pending writes pays one disk
// sync instead of N. Per-item conflicts do not fail the call — inspect
// BulkUpdateResponse.Results (one slot per input, in order) and Conflicts.
// Transient 503 refusals are retried exactly like Update.
func (c *Client) BulkUpdate(ctx context.Context, updates []server.UpdateRequest) (*server.BulkUpdateResponse, error) {
	var out server.BulkUpdateResponse
	if err := c.postUpdateRetry(ctx, c.base+"/update/bulk", server.BulkUpdateRequest{Updates: updates}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// postUpdateRetry runs the shared 503-retry loop for the update endpoints
// and decodes the 200 body into out.
func (c *Client) postUpdateRetry(ctx context.Context, url string, body, out any) error {
	// One trace ID covers every attempt: retries of the same logical update
	// show up in the server log as repeated lines under a single trace_id.
	trace := traceFor(ctx)
	for attempt := 0; ; attempt++ {
		resp, err := c.postJSON(ctx, url, body, withTrace(trace))
		if err != nil {
			return err
		}
		if resp.StatusCode == http.StatusServiceUnavailable && attempt < c.updateRetries {
			serr := statusError(resp) // drains and closes the body
			se, ok := serr.(*StatusError)
			if !ok || se.RetryAfter <= 0 {
				return serr
			}
			c.logger.Debug("stwigd update busy, retrying",
				"trace_id", trace,
				"attempt", attempt+1,
				"retries_left", c.updateRetries-attempt,
				"retry_after", se.RetryAfter)
			if err := sleepRetry(ctx, se.RetryAfter, c.updateRetryWait); err != nil {
				return err
			}
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable && c.updateRetries > 0 {
			c.logger.Debug("stwigd update retry budget exhausted",
				"trace_id", trace,
				"attempts", attempt+1)
		}
		return decodeJSON(resp, out)
	}
}

// sleepRetry backs off before an Update retry: the server's retry hint,
// capped at maxWait, jittered to [1/2, 1) of the target so retrying
// clients fan out instead of re-colliding. A zero/absent hint uses maxWait
// as the target; maxWait is an unconditional ceiling (0 means retry
// immediately — the server's hint must never control client sleep time
// beyond what the caller allowed). Returns ctx.Err() if the context ends
// mid-sleep.
func sleepRetry(ctx context.Context, hint, maxWait time.Duration) error {
	d := hint
	if d <= 0 || d > maxWait {
		d = maxWait
	}
	if d > 0 {
		d = d/2 + rand.N(d/2+1)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Stats scrapes the namespace's live counters.
func (c *Client) Stats(ctx context.Context) (*server.StatsResponse, error) {
	var out server.StatsResponse
	if err := c.getJSON(ctx, c.base+"/stats", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Version fetches the server's build identity (/v1/version).
func (c *Client) Version(ctx context.Context) (*server.VersionResponse, error) {
	var out server.VersionResponse
	if err := c.getJSON(ctx, c.origin+"/v1/version", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Healthz returns nil when the server is live and accepting work.
func (c *Client) Healthz(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.origin+"/v1/healthz", nil)
	if err != nil {
		return err
	}
	withTrace(traceFor(ctx))(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return statusError(resp)
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}
