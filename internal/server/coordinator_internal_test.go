// Unit tests for coordinator internals that the in-process cluster harness
// cannot reach deterministically: the node-count cache's zero discipline and
// the server-side deadline on leg calls.
package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// testCoordinator wires a one-leg coordinator against a fake shard, with
// just enough Server behind it for callLeg's config lookup.
func testCoordinator(shardURL string, timeout time.Duration) *coordinator {
	return &coordinator{
		s:    &Server{cfg: Config{DefaultTimeout: timeout}},
		legs: []*shardLeg{{id: 0, url: shardURL}},
		hc:   &http.Client{},
	}
}

// TestCoordinatorNodeCountRecovers pins that a failed stats fetch is not
// cached as zero: ownership routing recovers as soon as shard 0 answers
// again, instead of pinning every ack to shard 0 for the process lifetime.
func TestCoordinatorNodeCountRecovers(t *testing.T) {
	var healthy atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !healthy.Load() {
			http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
			return
		}
		_ = json.NewEncoder(w).Encode(StatsResponse{Namespace: "ns", Graph: GraphInfo{Nodes: 7}})
	}))
	defer ts.Close()
	c := testCoordinator(ts.URL, time.Second)
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	if n := c.nodeCount(context.Background(), req, "ns"); n != 0 {
		t.Fatalf("count while shard 0 is failing = %d, want 0", n)
	}
	healthy.Store(true)
	if n := c.nodeCount(context.Background(), req, "ns"); n != 7 {
		t.Fatalf("count after shard 0 recovered = %d, want 7 (a zero was cached)", n)
	}
	healthy.Store(false)
	if n := c.nodeCount(context.Background(), req, "ns"); n != 7 {
		t.Fatalf("count from warm cache = %d, want 7", n)
	}
}

// TestCoordinatorBumpNodeCount pins the cache discipline bumpNodeCount and
// nodeCount agree on: non-positive counts are never stored, and a stored
// count only rises.
func TestCoordinatorBumpNodeCount(t *testing.T) {
	c := &coordinator{}
	c.bumpNodeCount("ns", 0)
	if _, ok := c.nsNodes.Load("ns"); ok {
		t.Fatal("bumpNodeCount cached a zero")
	}
	c.bumpNodeCount("ns", 5)
	c.bumpNodeCount("ns", 3)
	v, ok := c.nsNodes.Load("ns")
	if !ok {
		t.Fatal("bumpNodeCount dropped a positive count")
	}
	if got := v.(*atomic.Int64).Load(); got != 5 {
		t.Fatalf("cached count = %d, want 5 (the count must never lower)", got)
	}
}

// TestCoordinatorLegDeadline pins that every leg call carries a server-side
// deadline: a shard that accepts the TCP connection but never answers fails
// the call within DefaultTimeout instead of hanging a broadcast (and its
// goroutine) forever.
func TestCoordinatorLegDeadline(t *testing.T) {
	block := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-block // wedged shard: connection up, no reply ever
	}))
	defer func() { close(block); ts.Close() }()
	c := testCoordinator(ts.URL, 50*time.Millisecond)
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	start := time.Now()
	res := c.callLeg(context.Background(), c.legs[0], req, http.MethodGet, ts.URL+"/v1/stats", nil)
	if res.err == nil {
		t.Fatalf("wedged shard produced no error (status %d)", res.status)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("leg call took %v despite the 50ms deadline", elapsed)
	}
}
