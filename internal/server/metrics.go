package server

import (
	"math"
	"sort"
	"sync"
	"time"
)

// latencyBucketsMS are the histogram bucket upper bounds, in milliseconds.
// The final implicit bucket is +Inf. The sub-millisecond bounds are where
// the hot paths live: an update's queue wait is tens of microseconds and a
// selective query a few hundred.
var latencyBucketsMS = [...]float64{0.05, 0.1, 0.25, 0.5, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// histogram is a fixed-bucket latency histogram. One mutex per endpoint is
// plenty: observation cost is dwarfed by the request it measures.
type histogram struct {
	mu      sync.Mutex
	count   uint64
	sum     time.Duration
	max     time.Duration
	buckets [len(latencyBucketsMS) + 1]uint64
}

func (h *histogram) observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	i := 0
	for i < len(latencyBucketsMS) && ms > latencyBucketsMS[i] {
		i++
	}
	h.mu.Lock()
	h.count++
	h.sum += d
	if d > h.max {
		h.max = d
	}
	h.buckets[i]++
	h.mu.Unlock()
}

// quantileLocked returns a conservative (bucket upper bound) estimate of
// the q-quantile, by nearest rank: the bound of the bucket holding the
// ⌈q·count⌉-th smallest observation. The caller holds h.mu.
func (h *histogram) quantileLocked(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	target := min(max(uint64(math.Ceil(q*float64(h.count))), 1), h.count)
	var cum uint64
	for i, n := range h.buckets {
		cum += n
		if cum >= target {
			if i < len(latencyBucketsMS) {
				return latencyBucketsMS[i]
			}
			return float64(h.max) / float64(time.Millisecond)
		}
	}
	return float64(h.max) / float64(time.Millisecond)
}

func (h *histogram) snapshot() LatencyStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := LatencyStats{
		Count: h.count,
		MaxMS: float64(h.max) / float64(time.Millisecond),
		P50MS: h.quantileLocked(0.50),
		P90MS: h.quantileLocked(0.90),
		P99MS: h.quantileLocked(0.99),
	}
	if h.count > 0 {
		s.MeanMS = float64(h.sum) / float64(h.count) / float64(time.Millisecond)
	}
	return s
}

// bucketCounts returns the histogram's cumulative bucket counts in
// latencyBucketsMS order with the implicit +Inf bucket last, plus the
// observation count and sum in seconds — the raw form the Prometheus
// exposition needs (its histogram buckets are cumulative by contract).
func (h *histogram) bucketCounts() (cum []uint64, count uint64, sumSeconds float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum = make([]uint64, len(h.buckets))
	var c uint64
	for i, n := range h.buckets {
		c += n
		cum[i] = c
	}
	return cum, h.count, float64(h.sum) / float64(time.Second)
}

// endpointMetrics accumulates one route's counters.
type endpointMetrics struct {
	mu       sync.Mutex
	requests uint64
	errors   uint64
	lat      histogram
}

// metrics is the server's per-endpoint accounting, keyed by route.
type metrics struct {
	mu  sync.Mutex
	eps map[string]*endpointMetrics
}

func newMetrics() *metrics { return &metrics{eps: make(map[string]*endpointMetrics)} }

func (m *metrics) endpoint(route string) *endpointMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	ep := m.eps[route]
	if ep == nil {
		ep = &endpointMetrics{}
		m.eps[route] = ep
	}
	return ep
}

// record books one finished request. isErr covers both non-2xx replies and
// streams that ended in an error record.
func (m *metrics) record(route string, d time.Duration, isErr bool) {
	ep := m.endpoint(route)
	ep.mu.Lock()
	ep.requests++
	if isErr {
		ep.errors++
	}
	ep.mu.Unlock()
	ep.lat.observe(d)
}

// forEach calls fn for every known route in sorted order. Used by the
// Prometheus exposition, which needs the raw endpoint structs (for bucket
// counts) rather than the summarized EndpointStats.
func (m *metrics) forEach(fn func(route string, ep *endpointMetrics)) {
	m.mu.Lock()
	routes := make([]string, 0, len(m.eps))
	for r := range m.eps {
		routes = append(routes, r)
	}
	m.mu.Unlock()
	sort.Strings(routes)
	for _, r := range routes {
		fn(r, m.endpoint(r))
	}
}

func (m *metrics) snapshot() map[string]EndpointStats {
	m.mu.Lock()
	routes := make([]string, 0, len(m.eps))
	for r := range m.eps {
		routes = append(routes, r)
	}
	m.mu.Unlock()

	out := make(map[string]EndpointStats, len(routes))
	for _, r := range routes {
		ep := m.endpoint(r)
		ep.mu.Lock()
		st := EndpointStats{Requests: ep.requests, Errors: ep.errors}
		ep.mu.Unlock()
		st.Latency = ep.lat.snapshot()
		out[r] = st
	}
	return out
}
