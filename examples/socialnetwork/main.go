// Social-network motif search: the paper's motivating scale scenario
// (§1: "Facebook has 800 millions of vertices"). This example generates a
// power-law R-MAT graph standing in for a social network where vertices
// are labeled by user type, then mines two classic social motifs:
//
//   - the "brokered introduction": two celebrities with a common regular
//     follower (a wedge), and
//   - the "tight clique seed": a triangle of regulars closed by a bot —
//     the shape abuse-detection teams actually hunt.
//
// It also demonstrates the match budget: motif counting on social graphs
// explodes combinatorially, and the engine's pipelined join returns the
// first K matches without materializing the rest.
//
// When STWIGD_ADDR is set, the same motifs run against a live stwigd
// service instead of an in-process engine — proving the wire format end to
// end. Start a compatible server with:
//
//	go run ./cmd/stwigd -rmat-scale 16 -rmat-degree 12 -relabel degree
//	STWIGD_ADDR=localhost:7029 go run ./examples/socialnetwork
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"stwig/internal/core"
	"stwig/internal/memcloud"
	"stwig/internal/pattern"
	"stwig/internal/rmat"
	"stwig/internal/server"
	"stwig/internal/server/client"
	"stwig/internal/workload"
)

const matchBudget = 1024

var motifs = []struct {
	name  string
	query *core.Query
}{
	{
		"brokered introduction (celebrity-regular-celebrity wedge)",
		core.MustNewQuery(
			[]string{"celebrity", "regular", "celebrity"},
			[][2]int{{0, 1}, {1, 2}},
		),
	},
	{
		"clique seed (regular triangle + attached bot)",
		core.MustNewQuery(
			[]string{"regular", "regular", "regular", "bot"},
			[][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}},
		),
	},
}

func main() {
	var err error
	if addr := os.Getenv("STWIGD_ADDR"); addr != "" {
		err = runRemote(addr)
	} else {
		err = runLocal()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "socialnetwork:", err)
		os.Exit(1)
	}
}

func runLocal() error {
	// A 65k-vertex power-law graph; relabel by degree so "celebrity" means
	// high degree, as in a real social graph.
	base := rmat.MustGenerate(rmat.Params{Scale: 16, AvgDegree: 12, NumLabels: 1, Seed: 2026})
	g := workload.RelabelByDegree(base, 100, 2)

	cluster := memcloud.MustNewCluster(memcloud.Config{Machines: 8})
	start := time.Now()
	if err := cluster.LoadGraph(g); err != nil {
		return err
	}
	fmt.Printf("loaded %v onto 8 machines in %v\n\n", g.ComputeStats(), time.Since(start).Round(time.Millisecond))

	eng := core.NewEngine(cluster, core.Options{MatchBudget: matchBudget})
	for _, m := range motifs {
		start := time.Now()
		res, err := eng.Match(m.query)
		if err != nil {
			return fmt.Errorf("%s: %w", m.name, err)
		}
		elapsed := time.Since(start)
		suffix := ""
		if res.Stats.Truncated {
			suffix = " (budget reached — more exist)"
		}
		fmt.Printf("%s:\n  %d matches in %v%s\n", m.name, len(res.Matches), elapsed.Round(time.Microsecond), suffix)
		fmt.Printf("  decomposition %v, network %v\n\n", res.Stats.Decomposition, res.Stats.Net)
	}
	return nil
}

// runRemote mines the same motifs over the wire: each query streams NDJSON
// match records from a live stwigd (started with -relabel degree so the
// celebrity/regular/bot labels exist) and ends with the server's stats
// record.
func runRemote(addr string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	c := client.New(addr)
	if err := c.Healthz(ctx); err != nil {
		return fmt.Errorf("stwigd at %s is not healthy: %w", addr, err)
	}
	fmt.Printf("querying live stwigd at %s\n\n", addr)

	for _, m := range motifs {
		req := server.QueryRequest{Pattern: pattern.Format(m.query), MaxMatches: matchBudget}
		start := time.Now()
		count := 0
		stats, err := c.Query(ctx, req, func([]int64) bool { count++; return true })
		if err != nil {
			return fmt.Errorf("%s: %w", m.name, err)
		}
		elapsed := time.Since(start)
		suffix := ""
		if stats.Truncated {
			suffix = " (cap reached — more exist)"
		}
		fmt.Printf("%s:\n  %d matches streamed in %v%s\n", m.name, count, elapsed.Round(time.Microsecond), suffix)
		fmt.Printf("  server elapsed %v, network messages=%d bytes=%d\n\n",
			time.Duration(stats.ElapsedMicros)*time.Microsecond,
			stats.NetMessages, stats.NetBytes)
		if stats.Matches != count {
			return fmt.Errorf("%s: server reported %d matches, client streamed %d", m.name, stats.Matches, count)
		}
	}

	st, err := c.Stats(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("server: %d nodes on %d machines, %d/%d queries admitted/rejected\n",
		st.Graph.Nodes, st.Graph.Machines, st.Admission.Admitted, st.Admission.Rejected)
	return nil
}
