package server

import (
	"sync"
	"testing"
	"time"
)

func TestAdmissionSemaphore(t *testing.T) {
	a := newAdmission(2)
	if !a.tryAcquire() || !a.tryAcquire() {
		t.Fatal("first two acquisitions must succeed")
	}
	if a.tryAcquire() {
		t.Fatal("third acquisition must be rejected at limit 2")
	}
	a.release()
	if !a.tryAcquire() {
		t.Fatal("acquisition after release must succeed")
	}
	st := a.stats()
	if st.MaxInFlight != 2 || st.InFlight != 2 || st.Admitted != 3 || st.Rejected != 1 {
		t.Fatalf("stats = %+v, want max=2 inflight=2 admitted=3 rejected=1", st)
	}
}

func TestAdmissionConcurrentNeverExceedsLimit(t *testing.T) {
	const limit, workers = 4, 64
	a := newAdmission(limit)
	var mu sync.Mutex
	cur, peak := 0, 0
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if !a.tryAcquire() {
					continue
				}
				mu.Lock()
				cur++
				if cur > peak {
					peak = cur
				}
				mu.Unlock()
				time.Sleep(time.Microsecond)
				mu.Lock()
				cur--
				mu.Unlock()
				a.release()
			}
		}()
	}
	wg.Wait()
	if peak > limit {
		t.Fatalf("observed %d concurrent holders, limit %d", peak, limit)
	}
	st := a.stats()
	if st.InFlight != 0 {
		t.Fatalf("in-flight %d after all released", st.InFlight)
	}
	if st.Admitted+st.Rejected != workers*100 {
		t.Fatalf("admitted %d + rejected %d != %d attempts", st.Admitted, st.Rejected, workers*100)
	}
}

func TestHistogramSummary(t *testing.T) {
	var h histogram
	for i := 0; i < 90; i++ {
		h.observe(time.Millisecond) // bucket ≤ 1ms
	}
	for i := 0; i < 10; i++ {
		h.observe(80 * time.Millisecond) // bucket ≤ 100ms
	}
	s := h.snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.P50MS != 1 {
		t.Fatalf("p50 = %v, want 1 (bucket upper bound)", s.P50MS)
	}
	if s.P99MS != 100 {
		t.Fatalf("p99 = %v, want 100 (bucket upper bound)", s.P99MS)
	}
	if s.MaxMS < 79 || s.MaxMS > 81 {
		t.Fatalf("max = %v, want ~80", s.MaxMS)
	}
	if s.MeanMS < 8 || s.MeanMS > 10 {
		t.Fatalf("mean = %v, want ~8.9", s.MeanMS)
	}
}

// TestHistogramQuantilesUseNearestRank: the q-quantile is the bucket bound of
// the ⌈q·count⌉-th smallest observation. Each case is `count` observations,
// the `slow` largest of them 20 s (beyond the last bucket, so reported as
// max) and the rest 1 ms.
func TestHistogramQuantilesUseNearestRank(t *testing.T) {
	const fast, slow = 1.0, 20000.0
	for _, tc := range []struct {
		count, slow   int
		p50, p90, p99 float64
	}{
		{1, 1, slow, slow, slow},
		{1, 0, fast, fast, fast},
		{2, 1, fast, slow, slow},  // ranks 1, 2, 2
		{10, 1, fast, fast, slow}, // ranks 5, 9, 10
		{10, 2, fast, slow, slow},
		{10, 6, slow, slow, slow},
		{100, 1, fast, fast, fast}, // ranks 50, 90, 99
		{100, 2, fast, fast, slow},
		{100, 11, fast, slow, slow},
		{101, 1, fast, fast, fast}, // ranks 51, 91, 100
		{101, 2, fast, fast, slow},
		{101, 11, fast, slow, slow},
		{101, 51, slow, slow, slow},
	} {
		var h histogram
		for i := 0; i < tc.count-tc.slow; i++ {
			h.observe(time.Millisecond)
		}
		for i := 0; i < tc.slow; i++ {
			h.observe(20 * time.Second)
		}
		s := h.snapshot()
		if s.P50MS != tc.p50 || s.P90MS != tc.p90 || s.P99MS != tc.p99 {
			t.Errorf("%d observations, %d slow: p50/p90/p99 = %v/%v/%v ms, want %v/%v/%v",
				tc.count, tc.slow, s.P50MS, s.P90MS, s.P99MS, tc.p50, tc.p90, tc.p99)
		}
	}
	// Inside the bucket range the estimate is the bucket's upper bound.
	var h histogram
	h.observe(time.Millisecond)
	h.observe(3 * time.Second)
	if s := h.snapshot(); s.P50MS != 1 || s.P99MS != 5000 {
		t.Errorf("{1 ms, 3 s}: p50/p99 = %v/%v ms, want 1/5000", s.P50MS, s.P99MS)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h histogram
	s := h.snapshot()
	if s.Count != 0 || s.P50MS != 0 || s.MeanMS != 0 {
		t.Fatalf("empty histogram snapshot = %+v", s)
	}
}

func TestMetricsPerEndpoint(t *testing.T) {
	m := newMetrics()
	m.record("/query", time.Millisecond, false)
	m.record("/query", time.Millisecond, true)
	m.record("/stats", time.Millisecond, false)
	snap := m.snapshot()
	if q := snap["/query"]; q.Requests != 2 || q.Errors != 1 || q.Latency.Count != 2 {
		t.Fatalf("/query stats = %+v", q)
	}
	if s := snap["/stats"]; s.Requests != 1 || s.Errors != 0 {
		t.Fatalf("/stats stats = %+v", s)
	}
}

func TestConfigValidateAndLimits(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config must validate via defaults: %v", err)
	}
	if err := (Config{MaxMatches: -1}).Validate(); err == nil {
		t.Fatal("negative cap must be rejected")
	}
	if err := (Config{DefaultTimeout: time.Minute, MaxTimeout: time.Second}).Validate(); err == nil {
		t.Fatal("MaxTimeout < DefaultTimeout must be rejected")
	}

	cfg := Config{DefaultTimeout: 10 * time.Second, MaxTimeout: 60 * time.Second, MaxMatches: 100}.normalize()
	// Request defaults.
	to, mm := cfg.effectiveLimits(QueryRequest{})
	if to != 10*time.Second || mm != 100 {
		t.Fatalf("defaults: timeout=%v max=%d", to, mm)
	}
	// Request asks within bounds.
	to, mm = cfg.effectiveLimits(QueryRequest{TimeoutMS: 5000, MaxMatches: 7})
	if to != 5*time.Second || mm != 7 {
		t.Fatalf("within bounds: timeout=%v max=%d", to, mm)
	}
	// Request asks beyond bounds are clamped.
	to, mm = cfg.effectiveLimits(QueryRequest{TimeoutMS: 10 * 60 * 1000, MaxMatches: 10_000})
	if to != 60*time.Second || mm != 100 {
		t.Fatalf("clamped: timeout=%v max=%d", to, mm)
	}
	// A timeout_ms huge enough to overflow the Duration multiplication
	// must clamp, not wrap negative and disable the deadline.
	to, _ = cfg.effectiveLimits(QueryRequest{TimeoutMS: int(^uint(0) >> 1)})
	if to != 60*time.Second {
		t.Fatalf("overflowing timeout_ms: timeout=%v, want clamp to 60s", to)
	}
}
