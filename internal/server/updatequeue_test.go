package server

import (
	"context"
	"errors"
	"testing"
	"time"

	"stwig/internal/memcloud"
)

// jobOf wraps a single mutation as a queued job with a buffered rendezvous.
func jobOf(mut memcloud.Mutation) *updateJob {
	return &updateJob{muts: []memcloud.Mutation{mut}, enq: time.Now(), done: make(chan updateJobResult, 1)}
}

// TestApplyContainsPanic pins the dispatcher's last-resort defense: the
// goroutine has no net/http recover above it, so a panic escaping a batch
// application (here forced with a nil engine) must come back as
// errUpdateInternal with the writer gate released — not crash the process
// and take every tenant down.
func TestApplyContainsPanic(t *testing.T) {
	gate := newUpdateGate()
	p := newUpdatePipeline(nil /* engine: Cluster() will nil-deref */, gate, Config{}.normalize(), nil)

	job := jobOf(memcloud.Mutation{Op: memcloud.MutAddNode, Label: "x"})
	p.window(job)

	select {
	case out := <-job.done:
		if !errors.Is(out.err, errUpdateInternal) {
			t.Fatalf("window err = %v, want errUpdateInternal", out.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("job never acked after recovered panic")
	}

	// applyContained is the recover boundary itself: called directly it
	// must convert the panic, not propagate it.
	if !gate.lock(time.Second, p.stop) {
		t.Fatal("writer window not acquired on an idle gate")
	}
	_, err := applyContained(p.eng, []memcloud.Mutation{{Op: memcloud.MutAddNode, Label: "x"}})
	if !errors.Is(err, errUpdateInternal) {
		t.Fatalf("applyContained err = %v, want errUpdateInternal", err)
	}
	p.gate.unlock()

	// window's unlock ran despite the panic: a reader gets in at once.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := gate.rlock(ctx); err != nil {
		t.Fatalf("gate still held after recovered panic: %v", err)
	}
	gate.runlock()
}
