package core

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strings"
	"time"
)

// Per-query tracing. Every run fills ExecStats' fixed timings (plan,
// explore, join, emit, machine time) at no extra allocation. A trace ID —
// carried by the context (WithTraceID) or set in Options.TraceID — is
// stamped into ExecStats.TraceID and nothing more. The span tree in
// ExecStats.Spans is built only for a run that asks for it: a context
// marked WithSpans (EXPLAIN ANALYZE, a daemon logging slow queries) or an
// engine with Options.TraceID (the CLI's -trace). Runs that do not ask skip
// every recording branch.

// traceKey is the context key carrying a query's trace ID; spansKey marks
// a context whose runs record spans.
type (
	traceKey struct{}
	spansKey struct{}
)

// WithSpans returns a context whose runs record their span tree in
// ExecStats.Spans.
func WithSpans(ctx context.Context) context.Context {
	if spansRequested(ctx) {
		return ctx
	}
	return context.WithValue(ctx, spansKey{}, true)
}

// spansRequested reports whether ctx was marked by WithSpans.
func spansRequested(ctx context.Context) bool {
	return ctx.Value(spansKey{}) != nil
}

// NewTraceID mints a 16-hex-character random trace identifier.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// The platform entropy source failing is not worth failing a query
		// over; a fixed sentinel still ties the surfaces together.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// WithTraceID returns a context carrying id; an empty id leaves ctx
// unchanged. Runs under the returned context stamp id into
// ExecStats.TraceID; it does not by itself make them record spans.
func WithTraceID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, id)
}

// TraceIDFromContext returns the trace ID carried by ctx, or "".
func TraceIDFromContext(ctx context.Context) string {
	id, _ := ctx.Value(traceKey{}).(string)
	return id
}

// Span is one timed phase of a query execution that records spans. The
// Executor builds a small tree per run: top-level plan, explore (per-STwig
// children), and join (per-machine children plus emit, their summed emit
// time). Top-level
// spans are sequential, so their durations sum to within the run's wall
// clock; children of join run concurrently across machines and need not.
type Span struct {
	Name string `json:"name"`
	// Duration is the span's wall-clock time.
	Duration time.Duration `json:"duration"`
	// Matches counts matches attributed to the span: factored STwig matches
	// for exploration spans, final matches for join/machine/emit spans.
	Matches int64 `json:"matches,omitempty"`
	// Words is the network traffic (8-byte words) the span moved.
	Words int64 `json:"words,omitempty"`
	// Children are nested spans (per-STwig under explore, per-machine and
	// emit under join).
	Children []Span `json:"children,omitempty"`
}

// SpanByName returns the first span named name in a depth-first walk of the
// tree, or nil.
func SpanByName(spans []Span, name string) *Span {
	for i := range spans {
		if spans[i].Name == name {
			return &spans[i]
		}
		if s := SpanByName(spans[i].Children, name); s != nil {
			return s
		}
	}
	return nil
}

// SpanTotal sums the top-level span durations — the traced portion of the
// run's wall clock.
func SpanTotal(spans []Span) time.Duration {
	var total time.Duration
	for i := range spans {
		total += spans[i].Duration
	}
	return total
}

// FormatSpans renders a span tree, one span per line, children indented
// with box-drawing connectors.
func FormatSpans(spans []Span) string {
	var b strings.Builder
	for i := range spans {
		writeSpan(&b, &spans[i], "", "")
	}
	return b.String()
}

func writeSpan(b *strings.Builder, s *Span, prefix, childPrefix string) {
	b.WriteString(prefix)
	b.WriteString(s.Name)
	fmt.Fprintf(b, "  %v", s.Duration.Round(time.Microsecond))
	if s.Matches > 0 {
		fmt.Fprintf(b, "  matches=%d", s.Matches)
	}
	if s.Words > 0 {
		fmt.Fprintf(b, "  net=%dw", s.Words)
	}
	b.WriteByte('\n')
	for i := range s.Children {
		branch, indent := "├─ ", "│  "
		if i == len(s.Children)-1 {
			branch, indent = "└─ ", "   "
		}
		writeSpan(b, &s.Children[i], childPrefix+branch, childPrefix+indent)
	}
}
