// End-to-end integration tests exercising the whole stack the way the
// examples and tools do: generate → load → plan → match → verify → update →
// rematch, across partitioners and engine modes.
package stwig_test

import (
	"context"
	"math/rand"
	"testing"

	"stwig/internal/baseline"
	"stwig/internal/core"
	"stwig/internal/graph"
	"stwig/internal/memcloud"
	"stwig/internal/pattern"
	"stwig/internal/rmat"
	"stwig/internal/workload"
)

func TestEndToEndPipeline(t *testing.T) {
	// Generate a synthetic dataset.
	g := rmat.MustGenerate(rmat.Params{Scale: 11, AvgDegree: 8, NumLabels: 12, Seed: 99})

	// Deploy across partitioner variants.
	partitioners := map[string]memcloud.Partitioner{
		"hash":  nil,
		"range": memcloud.RangePartitioner{K: 4, N: g.NumNodes()},
		"bfs":   memcloud.NewBFSPartitioner(g, 4),
	}
	var counts []int
	for name, part := range partitioners {
		t.Run(name, func(t *testing.T) {
			c := memcloud.MustNewCluster(memcloud.Config{Machines: 4, Partitioner: part})
			if err := c.LoadGraph(g); err != nil {
				t.Fatal(err)
			}
			eng := core.NewEngine(c, core.Options{Seed: 99})

			// Query via the DSL.
			q := pattern.MustParse("(x:L0)-(y:L1), (y)-(z:L2)")

			// Plan first: the plan must be consistent with execution.
			plan, err := eng.Explain(q)
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Match(q)
			if err != nil {
				t.Fatal(err)
			}
			if plan.Decomposition.String() != res.Stats.Decomposition.String() {
				t.Fatal("plan and execution disagree on decomposition")
			}
			// Every match verifies; count is partition-independent.
			for _, m := range res.Matches {
				if err := core.VerifyMatch(c, q, m); err != nil {
					t.Fatalf("invalid match: %v", err)
				}
			}
			counts = append(counts, len(res.Matches))

			// Cross-check against VF2.
			ref := baseline.VF2(g, q, 0)
			if len(ref) != len(res.Matches) {
				t.Fatalf("engine %d matches, VF2 %d", len(res.Matches), len(ref))
			}
		})
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] != counts[0] {
			t.Fatalf("match counts differ across partitioners: %v", counts)
		}
	}
}

func TestEndToEndUpdatesAndStreaming(t *testing.T) {
	g := rmat.MustGenerate(rmat.Params{Scale: 10, AvgDegree: 6, NumLabels: 8, Seed: 5})
	c := memcloud.MustNewCluster(memcloud.Config{Machines: 3})
	if err := c.LoadGraph(g); err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(c, core.Options{})

	// Plant a three-vertex chain of a brand-new label via updates.
	ids := make([]graph.NodeID, 3)
	for i := range ids {
		id, err := c.AddNode("planted")
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	if err := c.AddEdge(ids[0], ids[1]); err != nil {
		t.Fatal(err)
	}
	if err := c.AddEdge(ids[1], ids[2]); err != nil {
		t.Fatal(err)
	}

	q := pattern.MustParse("(a:planted)-(b:planted)-(c:planted)")
	var got []core.Match
	stats, err := eng.MatchStream(context.Background(), q, func(m core.Match) bool {
		got = append(got, m)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 { // the chain matches in both directions
		t.Fatalf("streamed %d matches, want 2: %v", len(got), got)
	}
	if stats.Truncated {
		t.Fatal("unexpected truncation")
	}
	for _, m := range got {
		if err := core.VerifyMatch(c, q, m); err != nil {
			t.Fatal(err)
		}
	}

	// Tear the chain down; matches disappear.
	if err := c.RemoveEdge(ids[0], ids[1]); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Match(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 0 {
		t.Fatalf("matches remain after edge removal: %v", res.Matches)
	}
}

func TestEndToEndWorkloadQueries(t *testing.T) {
	g, err := workload.SynthWordNet(workload.WordNetParams{Nodes: 3000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	c := memcloud.MustNewCluster(memcloud.Config{Machines: 4})
	if err := c.LoadGraph(g); err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(c, core.Options{Seed: 7})

	rngQueries, err := workload.QuerySet(3, func() (*core.Query, error) {
		return workload.DFSQuery(g, 5, newRand(7))
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range rngQueries {
		res, err := eng.Match(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(core.MatchSet(res.Matches)) != len(res.Matches) {
			t.Fatalf("query %d: duplicate matches", i)
		}
		for _, m := range res.Matches {
			if err := core.VerifyMatch(c, q, m); err != nil {
				t.Fatalf("query %d: %v", i, err)
			}
		}
		if res.Stats.ParallelTime <= 0 || res.Stats.MachineTime <= 0 {
			t.Fatalf("query %d: machine times not filled: %+v", i, res.Stats)
		}
	}
}

// newRand gives the workload generators a fresh deterministic source.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
