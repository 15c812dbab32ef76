package core

import (
	"context"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestNewTraceID(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		id := NewTraceID()
		if len(id) != 16 {
			t.Fatalf("trace id %q: want 16 chars", id)
		}
		for _, c := range id {
			if !strings.ContainsRune("0123456789abcdef", c) {
				t.Fatalf("trace id %q: non-hex char %q", id, c)
			}
		}
		if seen[id] {
			t.Fatalf("trace id %q repeated", id)
		}
		seen[id] = true
	}
}

func TestTraceIDContext(t *testing.T) {
	ctx := context.Background()
	if got := TraceIDFromContext(ctx); got != "" {
		t.Fatalf("empty context carries trace id %q", got)
	}
	if WithTraceID(ctx, "") != ctx {
		t.Fatal("WithTraceID(\"\") should return ctx unchanged")
	}
	ctx = WithTraceID(ctx, "deadbeef00000000")
	if got := TraceIDFromContext(ctx); got != "deadbeef00000000" {
		t.Fatalf("round trip: got %q", got)
	}
}

func TestUntracedRunRecordsNothing(t *testing.T) {
	c := clusterFor(t, figure1Graph(), 2)
	e := NewEngine(c, Options{})
	res, err := e.Match(figure1Query())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TraceID != "" {
		t.Fatalf("untraced run stamped TraceID %q", res.Stats.TraceID)
	}
	if res.Stats.Spans != nil {
		t.Fatalf("untraced run recorded %d spans", len(res.Stats.Spans))
	}
}

// TestTracedRunSpans pins the span tree's shape and the acceptance
// criterion that top-level phase durations sum to within the measured wall
// clock.
func TestTracedRunSpans(t *testing.T) {
	c := clusterFor(t, figure1Graph(), 2)
	e := NewEngine(c, Options{})
	q := figure1Query()
	ctx := WithTraceID(context.Background(), "feedface00000001")

	start := time.Now()
	var matches int
	stats, err := e.MatchStream(ctx, q, func(Match) bool { matches++; return true })
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TraceID != "feedface00000001" {
		t.Fatalf("TraceID = %q", stats.TraceID)
	}
	if len(stats.Spans) != 3 {
		t.Fatalf("top-level spans = %d (%v), want plan/explore/join", len(stats.Spans), spanNames(stats.Spans))
	}
	for i, want := range []string{"plan", "explore", "join"} {
		if stats.Spans[i].Name != want {
			t.Fatalf("span %d = %q, want %q", i, stats.Spans[i].Name, want)
		}
	}
	if total := SpanTotal(stats.Spans); total > wall {
		t.Fatalf("span durations sum to %v > wall clock %v", total, wall)
	}

	explore := SpanByName(stats.Spans, "explore")
	if len(explore.Children) != len(stats.Decomposition.Twigs) {
		t.Fatalf("explore has %d children, decomposition has %d STwigs",
			len(explore.Children), len(stats.Decomposition.Twigs))
	}
	var twigMatches int64
	for _, n := range stats.STwigMatchCounts {
		twigMatches += int64(n)
	}
	if explore.Matches != twigMatches {
		t.Fatalf("explore matches = %d, STwigMatchCounts sum = %d", explore.Matches, twigMatches)
	}

	join := SpanByName(stats.Spans, "join")
	if len(join.Children) != c.NumMachines()+1 { // machines + emit
		t.Fatalf("join has %d children, want %d machines + emit", len(join.Children), c.NumMachines())
	}
	if join.Matches != int64(matches) {
		t.Fatalf("join matches = %d, emitted %d", join.Matches, matches)
	}
	emit := SpanByName(stats.Spans, "emit")
	if emit == nil || emit.Matches != int64(matches) {
		t.Fatalf("emit span missing or wrong matches: %+v", emit)
	}
	for m := 0; m < c.NumMachines(); m++ {
		mach := SpanByName(stats.Spans, "machine "+string(rune('0'+m)))
		if mach == nil {
			t.Fatalf("machine %d span missing", m)
		}
		// A machine joins its relations as the exchange assembled them:
		// nothing runs between the two phases.
		if got := spanNames(mach.Children); !slices.Equal(got, []string{"exchange", "blockjoin"}) {
			t.Fatalf("machine %d span has children %v, want [exchange blockjoin]", m, got)
		}
	}
}

func TestOptionsTraceID(t *testing.T) {
	c := clusterFor(t, figure1Graph(), 2)
	e := NewEngine(c, Options{TraceID: "0123456789abcdef"})
	res, err := e.Match(figure1Query())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TraceID != "0123456789abcdef" {
		t.Fatalf("TraceID = %q, want Options.TraceID", res.Stats.TraceID)
	}
	if len(res.Stats.Spans) == 0 {
		t.Fatal("Options.TraceID run recorded no spans")
	}
	// A context trace ID wins over the static one.
	ctx := WithTraceID(context.Background(), "aaaaaaaaaaaaaaaa")
	stats, err := e.MatchStream(ctx, figure1Query(), func(Match) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if stats.TraceID != "aaaaaaaaaaaaaaaa" {
		t.Fatalf("TraceID = %q, want context id", stats.TraceID)
	}
}

func TestExplainAnalyze(t *testing.T) {
	c := clusterFor(t, figure1Graph(), 2)
	e := NewEngine(c, Options{})
	ar, err := e.ExplainAnalyze(context.Background(), figure1Query())
	if err != nil {
		t.Fatal(err)
	}
	if ar.Stats.TraceID == "" {
		t.Fatal("ExplainAnalyze minted no trace id")
	}
	if ar.Matches != 2 { // figure 1's two embeddings
		t.Fatalf("matches = %d, want 2", ar.Matches)
	}
	if total := SpanTotal(ar.Stats.Spans); total > ar.Wall {
		t.Fatalf("span durations sum to %v > wall %v", total, ar.Wall)
	}
	out := ar.String()
	for _, want := range []string{"EXPLAIN ANALYZE trace=" + ar.Stats.TraceID, "plan", "explore", "join", "emit", "2 matches"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered analyze missing %q:\n%s", want, out)
		}
	}
}

func TestSpanHelpers(t *testing.T) {
	spans := []Span{
		{Name: "a", Duration: 2 * time.Millisecond},
		{Name: "b", Duration: 3 * time.Millisecond, Children: []Span{
			{Name: "c", Duration: time.Millisecond, Matches: 7},
		}},
	}
	if SpanByName(spans, "c") == nil || SpanByName(spans, "zzz") != nil {
		t.Fatal("SpanByName lookup wrong")
	}
	if got := SpanTotal(spans); got != 5*time.Millisecond {
		t.Fatalf("SpanTotal = %v", got)
	}
	out := FormatSpans(spans)
	if !strings.Contains(out, "└─ c") || !strings.Contains(out, "matches=7") {
		t.Fatalf("FormatSpans rendering:\n%s", out)
	}
}

func spanNames(spans []Span) []string {
	names := make([]string, len(spans))
	for i := range spans {
		names[i] = spans[i].Name
	}
	return names
}
