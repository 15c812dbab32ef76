package server

import (
	"context"
	"log/slog"
	"net/http"
	"time"

	"stwig/internal/core"
)

// TraceHeader is the request/response header carrying the query trace ID.
// Clients may set it to tie a retry chain (or a whole batch job) to the
// server-side work it causes; the server mints an ID when it is absent and
// always echoes the effective ID on the response.
const TraceHeader = "X-Stwig-Trace"

// maxTraceIDLen bounds accepted client trace IDs; longer (or malformed)
// values are replaced with a minted ID rather than echoed into logs.
const maxTraceIDLen = 64

// sanitizeTraceID returns id if it is safe to echo into headers and logs —
// non-empty, at most maxTraceIDLen bytes, [0-9a-zA-Z_-] only — and ""
// otherwise, which makes the caller mint a fresh ID.
func sanitizeTraceID(id string) string {
	if id == "" || len(id) > maxTraceIDLen {
		return ""
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
		default:
			return ""
		}
	}
	return id
}

// request is one HTTP request on its way through the pipeline: the
// response writer and *http.Request every handler needs, the tenant the
// wrapper resolved, and the fields of the request's summary log line, which
// the handler fills as it runs — the trace ID, the phases' durations, and
// the stream outcome. One line is emitted per request by logRequest.
type request struct {
	w *statusWriter
	r *http.Request
	// sw is what w points at, allocated with the request.
	sw statusWriter
	// cancel ends the context requestContext derived, nil until it has.
	cancel context.CancelFunc
	// ns is the tenant a tenant route resolved to, nil on a coordinator
	// (which hosts none); be is where that tenant's graph lives either way.
	// Both are nil on non-tenant routes.
	ns *namespace
	be backend

	route     string
	trace     string
	namespace string

	// wait is time spent queued (reader gate, update queue); exec the
	// engine, dispatcher, or shard fan-out work; emit the machines' summed
	// match emission inside exec. Zero when the route has no such phase.
	wait, exec, emit time.Duration
	matches          int
	// spans is the execution's phase tree, kept for the slow-query log:
	// recorded only when Config.SlowQuery is set.
	spans []core.Span
}

// statusWriter captures the status code and body bytes a handler writes,
// for the request summary log.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(p)
	sw.bytes += int64(n)
	return n, err
}

// beginRequest starts per-request observability: it resolves the trace ID
// (client-sent X-Stwig-Trace honored when well-formed, minted otherwise),
// echoes it as a response header before any handler output, and wraps the
// ResponseWriter so status and bytes are captured for the summary log. The
// effective ID is also the request's own header, so a coordinator
// forwarding this request's headers to a shard forwards the ID the client
// will see. A well-formed client ID is echoed with the request's own header
// value, so it costs no allocation.
func beginRequest(route string, w http.ResponseWriter, r *http.Request) *request {
	sent := r.Header[TraceHeader]
	trace := ""
	if len(sent) > 0 {
		trace = sanitizeTraceID(sent[0])
	}
	if trace == "" {
		trace = core.NewTraceID()
	}
	if len(sent) != 1 || sent[0] != trace {
		sent = []string{trace}
		r.Header[TraceHeader] = sent
	}
	w.Header()[TraceHeader] = sent
	rq := &request{r: r, sw: statusWriter{ResponseWriter: w}, route: route, trace: trace}
	rq.w = &rq.sw
	return rq
}

// logRequest emits the one structured summary line every request gets, and
// the slow-query breakdown when the query's execution time crosses
// Config.SlowQuery. Scrape-style routes log at debug so a 10s-interval
// monitor does not drown the query log.
func (s *Server) logRequest(rq *request, d time.Duration, isErr bool) {
	logger := s.cfg.Logger
	level := slog.LevelInfo
	if rq.route == "/healthz" || rq.route == "/metrics" {
		level = slog.LevelDebug
	}
	status := rq.w.status
	if status == 0 {
		// The handler wrote nothing; net/http sends 200 with an empty body.
		status = http.StatusOK
	}
	logger.LogAttrs(context.Background(), level, "request",
		slog.String("trace_id", rq.trace),
		slog.String("route", rq.route),
		slog.String("method", rq.r.Method),
		slog.String("namespace", rq.namespace),
		slog.Int("status", status),
		slog.Bool("error", isErr),
		slog.Duration("duration", d),
		slog.Duration("wait", rq.wait),
		slog.Duration("exec", rq.exec),
		slog.Duration("emit", rq.emit),
		slog.Int("matches", rq.matches),
		slog.Int64("bytes", rq.w.bytes),
	)
	if s.cfg.SlowQuery > 0 && rq.exec >= s.cfg.SlowQuery && len(rq.spans) > 0 {
		logger.LogAttrs(context.Background(), slog.LevelWarn, "slow query",
			slog.String("trace_id", rq.trace),
			slog.String("namespace", rq.namespace),
			slog.Duration("exec", rq.exec),
			slog.String("spans", core.FormatSpans(rq.spans)),
		)
	}
}
