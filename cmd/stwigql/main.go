// Command stwigql loads a graph into a simulated memory cloud and answers
// subgraph queries with the STwig engine.
//
// Usage:
//
//	stwigql -graph data.bin -query q.txt [-machines 8] [-budget 1024]
//	        [-timeout 30s] [-max-matches 100] [-verify] [-show 10] [-stats]
//	stwigql -graph data.bin -pattern '(a:author)-(p:paper), (p)-(v:venue)'
//	stwigql -graph data.bin -pattern '...' -analyze      # plan + phase spans
//	stwigql -graph data.bin -pattern '...' -trace job42  # tag spans with an ID
//
// The query file uses the same line format as text graphs:
//
//	v 0 author
//	v 1 paper
//	e 0 1
//
// Alternatively, -pattern accepts the inline Cypher-like syntax of
// internal/pattern.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"stwig/internal/core"
	"stwig/internal/graph"
	"stwig/internal/memcloud"
	"stwig/internal/pattern"
)

func main() {
	var (
		graphPath  = flag.String("graph", "", "graph file (binary format from mkgraph, or text with -text)")
		textGraph  = flag.Bool("text", false, "graph file is in text format")
		queryPath  = flag.String("query", "", "query file (v/e line format)")
		patternStr = flag.String("pattern", "", "inline pattern, e.g. '(a:x)-(b:y), (b)-(c:z)'")
		machines   = flag.Int("machines", 8, "simulated cluster size: a query runs its machines on min(GOMAXPROCS, machines) goroutines")
		budget     = flag.Int("budget", 1024, "match budget (0 = enumerate all)")
		verify     = flag.Bool("verify", false, "re-verify every returned match against the graph")
		show       = flag.Int("show", 10, "matches to print (0 = none)")
		showStats  = flag.Bool("stats", true, "print execution statistics")
		explain    = flag.Bool("explain", false, "print the query plan instead of executing")
		analyze    = flag.Bool("analyze", false, "EXPLAIN ANALYZE: execute the query and print the plan with a per-phase span breakdown")
		traceID    = flag.String("trace", "", "trace ID for this run (default: minted when -analyze; empty otherwise disables span recording)")
		timeout    = flag.Duration("timeout", 0, "abort the query after this long (0 = no deadline)")
		maxMatches = flag.Int("max-matches", 0, "stop after this many matches (0 = unlimited); same request cap the stwigd server applies")
	)
	flag.Parse()
	if *graphPath == "" || (*queryPath == "" && *patternStr == "") {
		flag.Usage()
		os.Exit(2)
	}
	lim := core.Limits{Timeout: *timeout, MaxMatches: *maxMatches}
	opts := cliOptions{
		machines: *machines, budget: *budget,
		verify: *verify, show: *show, showStats: *showStats,
		explain: *explain, analyze: *analyze, traceID: *traceID,
	}
	if err := run(*graphPath, *textGraph, *queryPath, *patternStr, opts, lim); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// cliOptions bundles the execution-shaping flags run threads through.
type cliOptions struct {
	machines, budget int
	verify           bool
	show             int
	showStats        bool
	explain, analyze bool
	traceID          string
}

func run(graphPath string, textGraph bool, queryPath, patternStr string, cli cliOptions, lim core.Limits) error {
	gf, err := os.Open(graphPath)
	if err != nil {
		return err
	}
	defer gf.Close()
	var g *graph.Graph
	if textGraph {
		g, err = graph.ReadText(gf, graph.Undirected())
	} else {
		g, err = graph.ReadBinary(gf)
	}
	if err != nil {
		return fmt.Errorf("stwigql: reading graph: %w", err)
	}
	fmt.Printf("graph: %v\n", g.ComputeStats())

	var q *core.Query
	if patternStr != "" {
		q, err = pattern.Parse(patternStr)
		if err != nil {
			return fmt.Errorf("stwigql: parsing pattern: %w", err)
		}
	} else {
		qf, err2 := os.Open(queryPath)
		if err2 != nil {
			return err2
		}
		defer qf.Close()
		q, err = core.ParseQuery(qf)
		if err != nil {
			return fmt.Errorf("stwigql: reading query: %w", err)
		}
	}
	fmt.Printf("query: %d vertices, %d edges — %s\n", q.NumVertices(), q.NumEdges(), pattern.Format(q))

	cluster, err := memcloud.NewCluster(memcloud.Config{Machines: cli.machines})
	if err != nil {
		return err
	}
	loadStart := time.Now()
	if err := cluster.LoadGraph(g); err != nil {
		return err
	}
	fmt.Printf("loaded onto %d machines in %v (string index: %d bytes)\n",
		cli.machines, time.Since(loadStart).Round(time.Millisecond), cluster.StringIndexBytes())

	// -trace turns on span recording for the run; -analyze mints an ID when
	// the caller did not pick one, since its whole point is the span tree.
	eng := core.NewEngine(cluster, core.Options{
		MatchBudget: cli.budget,
		TraceID:     cli.traceID,
	})
	if cli.explain {
		plan, err := eng.Explain(q)
		if err != nil {
			return err
		}
		fmt.Print(plan)
		return nil
	}
	// The request lifecycle — deadline plus match cap — goes through the
	// same core.Limits plumbing stwigd applies to network queries, so the
	// CLI and the server enforce identical semantics.
	ctx, cancel := lim.WithContext(context.Background())
	defer cancel()
	if cli.analyze {
		ar, err := eng.ExplainAnalyze(ctx, q)
		if err != nil {
			return err
		}
		fmt.Print(ar)
		return nil
	}
	sl := lim.NewStreamLimiter()
	res := &core.Result{}
	start := time.Now()
	stats, err := eng.MatchStream(ctx, q, sl.Wrap(func(m core.Match) bool {
		res.Matches = append(res.Matches, m)
		return true
	}))
	elapsed := time.Since(start)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			return fmt.Errorf("stwigql: query exceeded -timeout %v (%d matches streamed first)", lim.Timeout, sl.Count())
		}
		return err
	}
	res.Stats = *stats

	fmt.Printf("%d matches in %v", len(res.Matches), elapsed.Round(time.Microsecond))
	switch {
	case sl.LimitHit():
		fmt.Printf(" (stopped at -max-matches %d)", lim.MaxMatches)
	case res.Stats.Truncated:
		fmt.Printf(" (truncated at budget %d)", cli.budget)
	}
	fmt.Println()

	if res.Stats.TraceID != "" {
		fmt.Printf("trace: %s\n", res.Stats.TraceID)
		fmt.Print(core.FormatSpans(res.Stats.Spans))
	}

	if cli.showStats {
		s := res.Stats
		fmt.Printf("decomposition: %v\n", s.Decomposition)
		fmt.Printf("stwig matches: %v\n", s.STwigMatchCounts)
		fmt.Printf("phases: plan=%v explore=%v join=%v\n",
			s.PlanTime.Round(time.Microsecond),
			s.ExploreTime.Round(time.Microsecond), s.JoinTime.Round(time.Microsecond))
		fmt.Printf("network: %v\n", s.Net)
		fmt.Printf("per-machine matches: %v\n", s.PerMachineMatches)
	}

	if cli.verify {
		for _, m := range res.Matches {
			if err := core.VerifyMatch(cluster, q, m); err != nil {
				return fmt.Errorf("stwigql: VERIFICATION FAILED for %v: %w", m, err)
			}
		}
		fmt.Printf("verified all %d matches\n", len(res.Matches))
	}

	core.SortMatches(res.Matches)
	for i, m := range res.Matches {
		if i >= cli.show {
			fmt.Printf("... and %d more\n", len(res.Matches)-cli.show)
			break
		}
		fmt.Println(m)
	}
	return nil
}
