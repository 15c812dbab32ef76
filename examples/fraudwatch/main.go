// Continuous motif watch: payment-fraud style monitoring built on two of
// the library's distinguishing features — O(1) dynamic updates (Table 1's
// update-cost column) and the streaming match API.
//
// The scenario: a transaction graph of accounts, merchants, and mule
// accounts. As new transaction edges arrive, the watcher re-runs a fraud
// motif — two accounts feeding the same mule that forwards to one merchant
// — and streams any new embeddings, stopping each sweep at a budget. In a
// paper deployment this is the "index update cost" story: no structural
// index exists, so ingesting an edge is two adjacency appends and a posting
// insert, and queries see it immediately.
package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"stwig/internal/core"
	"stwig/internal/graph"
	"stwig/internal/memcloud"
	"stwig/internal/pattern"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fraudwatch:", err)
		os.Exit(1)
	}
}

func run() error {
	// Base graph: accounts transacting with merchants, no fraud rings yet.
	rng := rand.New(rand.NewSource(77))
	b := graph.NewBuilder(graph.Undirected(), graph.Dedupe())
	const accounts = 20_000
	const merchants = 500
	for i := 0; i < accounts; i++ {
		b.AddNode("account")
	}
	for i := 0; i < merchants; i++ {
		b.AddNode("merchant")
	}
	// Seed the 'mule' label so later inserts can use it.
	b.Labels().Intern("mule")
	for i := 0; i < accounts; i++ {
		for t := 0; t < 3; t++ {
			m := graph.NodeID(accounts + rng.Intn(merchants))
			b.MustAddEdge(graph.NodeID(i), m)
		}
	}
	g := b.Build()

	cluster := memcloud.MustNewCluster(memcloud.Config{Machines: 4})
	if err := cluster.LoadGraph(g); err != nil {
		return err
	}
	fmt.Printf("transaction graph: %v\n\n", g.ComputeStats())

	motif := pattern.MustParse(
		"(a1:account)-(m:mule), (a2:account)-(m), (m)-(shop:merchant)")
	eng := core.NewEngine(cluster, core.Options{MatchBudget: 100})

	sweep := func(round int) (int, error) {
		count := 0
		start := time.Now()
		stats, err := eng.MatchStream(context.Background(), motif, func(core.Match) bool {
			count++
			return true
		})
		if err != nil {
			return 0, err
		}
		// Every sweep plans afresh from the label counts of the moment, so
		// the mule label the updates bring in is seen at once.
		fmt.Printf("sweep %d: %d fraud-motif embeddings (%v, planned in %v)\n",
			round, count, time.Since(start).Round(time.Microsecond), stats.PlanTime.Round(time.Microsecond))
		return count, nil
	}

	// Round 0: clean graph, no mules exist.
	if n, err := sweep(0); err != nil {
		return err
	} else if n != 0 {
		return fmt.Errorf("clean graph already has %d motif matches", n)
	}

	// Rounds 1..3: fraud rings trickle in as live updates.
	for round := 1; round <= 3; round++ {
		ingestStart := time.Now()
		for ring := 0; ring < round*2; ring++ {
			mule, err := cluster.AddNode("mule")
			if err != nil {
				return err
			}
			// Two source accounts feed the mule; the mule pays one shop.
			a1 := graph.NodeID(rng.Intn(accounts))
			a2 := graph.NodeID(rng.Intn(accounts))
			shop := graph.NodeID(accounts + rng.Intn(merchants))
			for _, e := range [][2]graph.NodeID{{a1, mule}, {a2, mule}, {mule, shop}} {
				if err := cluster.AddEdge(e[0], e[1]); err != nil {
					return err
				}
			}
		}
		st := cluster.UpdateStats()
		fmt.Printf("ingested %d rings in %v (total: %d nodes, %d edges added, %d words garbage)\n",
			round*2, time.Since(ingestStart).Round(time.Microsecond),
			st.NodesAdded, st.EdgesAdded, st.GarbageWords)
		n, err := sweep(round)
		if err != nil {
			return err
		}
		if n == 0 {
			return fmt.Errorf("planted fraud rings not detected")
		}
	}

	// Housekeeping: reclaim relocation garbage, verify queries unaffected.
	reclaimed := cluster.CompactAll()
	fmt.Printf("\ncompaction reclaimed %d words\n", reclaimed)
	_, err := sweep(4)
	return err
}
