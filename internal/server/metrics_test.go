package server

import (
	"strings"
	"testing"
	"time"
)

// TestHistogramResolvesSubMillisecond pins the histogram's floor: what the
// server measures most — an update's queue wait, a selective query — takes
// well under a millisecond, so a sample of 200 µs observations must report a
// sub-millisecond p50 (it read 1.000 while the first bound was 1 ms), the
// exposed _bucket series must stay cumulative with +Inf equal to _count, and
// observing must not allocate.
func TestHistogramResolvesSubMillisecond(t *testing.T) {
	var h histogram
	for i := 0; i < 100; i++ {
		h.observe(200 * time.Microsecond)
	}
	h.observe(3 * time.Millisecond)
	h.observe(20 * time.Second) // past the last bound: the +Inf bucket
	s := h.snapshot()
	if s.Count != 102 || s.P50MS >= 1 || s.P50MS < 0.2 {
		t.Fatalf("snapshot %+v: want 102 observations with 0.2 ≤ p50 < 1 ms", s)
	}
	if s.P99MS != 5 || s.MaxMS != 20000 {
		t.Fatalf("snapshot %+v: want p99 = 5 ms (the 3 ms sample's bound) and max = 20 s", s)
	}

	cum, count, _ := h.bucketCounts()
	if len(cum) != len(latencyBucketsMS)+1 || cum[len(cum)-1] != count || count != 102 {
		t.Fatalf("bucket counts %v, count %d: +Inf bucket must equal the count", cum, count)
	}
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatalf("bucket counts %v are not cumulative at %d", cum, i)
		}
	}
	var p promWriter
	p.latencyHistogram("x_seconds", &h)
	text := p.b.String()
	for _, want := range []string{
		`x_seconds_bucket{le="0.0001"} 0`, `x_seconds_bucket{le="0.00025"} 100`,
		`x_seconds_bucket{le="0.005"} 101`, `x_seconds_bucket{le="+Inf"} 102`, "x_seconds_count 102",
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("exposition lacks %q:\n%s", want, text)
		}
	}

	if n := testing.AllocsPerRun(100, func() { h.observe(200 * time.Microsecond) }); n != 0 {
		t.Fatalf("observe allocates %v times per call", n)
	}
}
