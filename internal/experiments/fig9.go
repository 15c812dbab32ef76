package experiments

import (
	"time"

	"stwig/internal/core"
	"stwig/internal/graph"
	"stwig/internal/memcloud"
	"stwig/internal/stats"
	"stwig/internal/workload"
)

// runSpeedup measures modeled cluster query time as the machine count grows
// from 1 to cfg.Machines over a fixed graph and query set — Figures
// 9(a)/9(b). Paper shape: time falls with machines but sub-linearly ("more
// network traffic and synchronization cost will be incurred with more
// machines"), and DFS queries (larger result sets, more per-machine work)
// speed up better than random queries.
//
// Measurement method: on hosts without k spare cores the run's wall clock
// cannot exhibit parallel speed-up, so the modelled time is the serving
// path's ExecStats.ParallelTime (each section's wall replaced by its
// longest machine) plus the query's traffic under a GigE-like
// memcloud.DefaultNetworkModel; machine_busy is ExecStats.MachineTime.
// Both hold while workers ≤ cores, as by default (see ExecStats).
func runSpeedup(cfg Config, g *graph.Graph, mkQueries func() ([]*core.Query, error)) (*stats.Table, error) {
	queries, err := mkQueries()
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("machines", "modeled_query_time", "speedup", "machine_busy", "net_time", "net_bytes")
	var base time.Duration
	for k := 1; k <= cfg.Machines; k++ {
		cluster, err := memcloud.NewCluster(memcloud.Config{Machines: k})
		if err != nil {
			return nil, err
		}
		if err := cluster.LoadGraph(g); err != nil {
			return nil, err
		}
		// The match budget is disabled here: at simulator scale a 1024-match
		// cutoff makes queries so cheap that fixed exchange traffic hides
		// the compute speed-up. The paper's full-scale runs are in the
		// compute-dominated regime (its WordNet DFS queries take 4–22 s
		// even with the cutoff); removing the budget puts the simulator in
		// the same regime.
		eng := core.NewEngine(cluster, core.Options{Seed: cfg.Seed})
		var modeled, busy, netTime time.Duration
		var net memcloud.NetStats
		for _, q := range queries {
			res, err := eng.Match(q)
			if err != nil {
				return nil, err
			}
			qNet := memcloud.DefaultNetworkModel().TransferTime(res.Stats.Net, k)
			modeled += res.Stats.ParallelTime + qNet
			busy += res.Stats.MachineTime
			netTime += qNet
			net.Add(res.Stats.Net)
		}
		n := time.Duration(len(queries))
		modeled, busy, netTime = modeled/n, busy/n, netTime/n
		if k == 1 {
			base = modeled
		}
		tab.AddRow(k, modeled, float64(base)/float64(modeled), busy, netTime, net.Bytes)
	}
	return tab, nil
}

// RunFig9a reproduces Figure 9(a): speed-up of DFS queries with machine
// count.
func RunFig9a(cfg Config) (*stats.Table, error) {
	g, err := workload.SynthWordNet(workload.WordNetParams{
		Nodes: cfg.scaled(20_000), Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return runSpeedup(cfg, g, func() ([]*core.Query, error) {
		return dfsQuerySet(g, 8, cfg)
	})
}

// RunFig9b reproduces Figure 9(b): speed-up of random queries with machine
// count. Random queries have smaller result sets and lighter per-machine
// work, so the paper's speed-up here is flatter than Figure 9(a)'s.
func RunFig9b(cfg Config) (*stats.Table, error) {
	g, err := workload.SynthWordNet(workload.WordNetParams{
		Nodes: cfg.scaled(20_000), Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return runSpeedup(cfg, g, func() ([]*core.Query, error) {
		return randomQuerySet(g, 6, 9, cfg)
	})
}
