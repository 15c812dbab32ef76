package experiments

import (
	"sync"
	"sync/atomic"
	"time"

	"stwig/internal/core"
	"stwig/internal/stats"
	"stwig/internal/workload"
)

// RunThroughput measures concurrent query throughput — one of the paper's
// explicitly named future-work questions (§8: "verify the system speedup,
// query throughput and response time bounds"). A pool of client goroutines
// issues queries against one shared engine for a fixed wall-clock window;
// the table reports queries/second and mean latency per concurrency level.
func RunThroughput(cfg Config) (*stats.Table, error) {
	g, err := workload.SynthPatents(workload.PatentsParams{
		Nodes: cfg.scaled(30_000), Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	cluster, _, err := loadCluster(g, cfg.Machines)
	if err != nil {
		return nil, err
	}
	eng := core.NewEngine(cluster, core.Options{MatchBudget: cfg.Budget, Seed: cfg.Seed})
	queries, err := dfsQuerySet(g, 6, cfg)
	if err != nil {
		return nil, err
	}

	const window = 400 * time.Millisecond
	tab := stats.NewTable("clients", "queries_per_sec", "mean_latency")
	for _, clients := range []int{1, 2, 4, 8} {
		var completed atomic.Int64
		var totalLatency atomic.Int64
		deadline := time.Now().Add(window)
		var wg sync.WaitGroup
		var firstErr atomic.Value
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				i := c
				for time.Now().Before(deadline) {
					q := queries[i%len(queries)]
					i++
					start := time.Now()
					if _, err := eng.Match(q); err != nil {
						firstErr.Store(err)
						return
					}
					totalLatency.Add(int64(time.Since(start)))
					completed.Add(1)
				}
			}(c)
		}
		wg.Wait()
		if err, ok := firstErr.Load().(error); ok && err != nil {
			return nil, err
		}
		n := completed.Load()
		if n == 0 {
			n = 1
		}
		qps := float64(n) / window.Seconds()
		tab.AddRow(clients, qps, time.Duration(totalLatency.Load()/n))
	}
	return tab, nil
}
