package core

import (
	"context"
	"time"
)

// Limits caps one query request. It is the request-lifecycle vocabulary the
// front ends share: cmd/stwigql's -timeout/-max-matches flags compile down
// to a Limits value and a StreamLimiter, and internal/server derives each
// request's deadline from one. (The daemon's match cap is enforced by its
// response sink, which counts records as it puts them on the wire, with the
// same rule: the match that reaches the cap is still delivered.)
type Limits struct {
	// Timeout bounds the request's wall-clock time; 0 means no deadline.
	Timeout time.Duration
	// MaxMatches caps how many matches the request may emit; 0 means
	// unlimited. Unlike Options.MatchBudget (an engine-wide enumeration
	// budget baked into every execution), MaxMatches is a per-request cap
	// applied at the emit boundary, so one engine can serve requests with
	// different caps concurrently.
	MaxMatches int
}

// WithContext derives the request context, applying Timeout when set. The
// returned cancel function must always be called.
func (l Limits) WithContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if l.Timeout > 0 {
		return context.WithTimeout(ctx, l.Timeout)
	}
	return context.WithCancel(ctx)
}

// NewStreamLimiter builds the match-cap enforcer for one request.
func (l Limits) NewStreamLimiter() *StreamLimiter {
	return &StreamLimiter{max: l.MaxMatches}
}

// StreamLimiter enforces Limits.MaxMatches over a MatchStream emit callback
// and counts delivered matches. MatchStream serializes emit calls, so the
// limiter needs no locking; read Count/LimitHit only after MatchStream
// returns.
type StreamLimiter struct {
	max int
	n   int
	hit bool
}

// Wrap adapts emit so the stream stops (returning false, which sets
// ExecStats.Truncated) once the cap is reached. The capping match itself is
// still delivered.
func (sl *StreamLimiter) Wrap(emit func(Match) bool) func(Match) bool {
	return func(m Match) bool {
		if sl.max > 0 && sl.n >= sl.max {
			sl.hit = true
			return false
		}
		if !emit(m) {
			return false
		}
		sl.n++
		if sl.max > 0 && sl.n >= sl.max {
			sl.hit = true
			return false
		}
		return true
	}
}

// Count returns how many matches passed through the limiter.
func (sl *StreamLimiter) Count() int { return sl.n }

// LimitHit reports whether the cap stopped the stream.
func (sl *StreamLimiter) LimitHit() bool { return sl.hit }
