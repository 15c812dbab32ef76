package core

import (
	"sync"
	"testing"
	"time"

	"stwig/internal/memcloud"
	"stwig/internal/rmat"
)

// stalledWriter blocks every Write until release is closed, and closes
// entered at the first one.
type stalledWriter struct {
	entered, release chan struct{}
	once             sync.Once
}

func (w *stalledWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.entered) })
	<-w.release
	return len(p), nil
}

// A checkpoint holds the cluster's update lock for its whole write, and a
// daemon takes it outside the reader gate, beside running queries. A query
// must not wait for it: it reads the vertex count the lock-free way it reads
// every other address-table entry.
func TestQueryDoesNotWaitForCheckpoint(t *testing.T) {
	g := rmat.MustGenerate(rmat.Params{Scale: 8, AvgDegree: 4, NumLabels: 3, Seed: 5})
	c := memcloud.MustNewCluster(memcloud.Config{Machines: 2})
	if err := c.LoadGraph(g); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(c, Options{})
	q := MustNewQuery([]string{rmat.LabelName(0), rmat.LabelName(1)}, [][2]int{{0, 1}})

	w := &stalledWriter{entered: make(chan struct{}), release: make(chan struct{})}
	snap := make(chan error, 1)
	go func() { snap <- c.WriteSnapshot(w) }()
	<-w.entered // the snapshot now holds the lock, stalled on its writer

	done := make(chan error, 1)
	go func() {
		_, err := eng.Match(q)
		done <- err
	}()
	const patience = 2 * time.Second
	select {
	case err := <-done:
		if err != nil {
			t.Error(err)
		}
		done = nil
	case <-time.After(patience):
		t.Errorf("the query still waited for a stalled checkpoint after %v", patience)
	}
	close(w.release)
	if err := <-snap; err != nil {
		t.Fatal(err)
	}
	if done != nil {
		<-done
	}
}
