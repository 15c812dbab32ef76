package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"stwig/internal/graph"
	"stwig/internal/memcloud"
)

// Match is one subgraph-isomorphism embedding: Assignment[v] is the data
// vertex matched to query vertex v. All assigned vertices are distinct
// (Definition 2's bijection).
type Match struct {
	Assignment []graph.NodeID
}

// Key returns a canonical string form, used for set comparisons in tests
// and for the duplicate-freedom checks the paper's disjointness guarantee
// makes possible.
func (m Match) Key() string {
	var b strings.Builder
	for i, id := range m.Assignment {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", id)
	}
	return b.String()
}

func (m Match) String() string { return "[" + m.Key() + "]" }

// ExecStats describes one query execution for experiment reports.
type ExecStats struct {
	// PlanTime is how long the Planner took to build the query's Plan.
	PlanTime time.Duration
	// Decomposition is the ordered STwig cover used.
	Decomposition Decomposition
	// STwigMatchCounts[t] is the total (cluster-wide) number of factored
	// matches of STwig t after exploration.
	STwigMatchCounts []int
	// Net is this run's own simulated traffic: every message its machines
	// and its proxy charged, and nothing of any run beside it.
	Net memcloud.NetStats
	// ExploreTime and JoinTime split the execution wall clock.
	ExploreTime, JoinTime time.Duration
	// EmitTime sums the machines' time inside emit, part of JoinTime's
	// machine time: what the caller's match sink cost the join.
	EmitTime time.Duration
	// Truncated reports that the match budget stopped enumeration early.
	Truncated bool
	// PerMachineMatches[k] is how many final matches machine k produced
	// (their disjoint union is the answer).
	PerMachineMatches []int
	// Always 0: the intra-machine worker pool whose dispatches this counted
	// is gone (a simulated machine runs on one worker). The field stays
	// only until stwigbench/trace.go stops reading it.
	ParallelTasks uint64
	// EmitFlushes counts the blocks the machines handed to emit; each
	// flush carries a block of matches.
	EmitFlushes uint64
	// TraceID identifies a traced run (WithTraceID on the context, or
	// Options.TraceID); empty for untraced runs.
	TraceID string
	// Spans is the phase tree of a run that asked for it (WithSpans on the
	// context, or Options.TraceID) — plan, explore (per-STwig children),
	// join (per-machine children plus emit). Nil otherwise; such a run
	// records nothing. Top-level spans are sequential, so SpanTotal(Spans)
	// is within the run's wall clock.
	Spans []Span

	// A machine's time in a parallel section (an exploration step, the
	// join) is its worker's wall clock, so it is busy time only while
	// workers ≤ cores, as by default: ParallelEach caps them at GOMAXPROCS.
	// A join machine's time includes its calls to emit (MatchStreamBlocks'
	// lock waits too).
	// MachineTime sums every machine's time over the sections.
	MachineTime time.Duration
	// ParallelTime is the run's wall time with each section's wall
	// replaced by its longest machine's time; no network time is in it.
	ParallelTime time.Duration
}

// Result is the answer to a subgraph matching query.
type Result struct {
	Matches []Match
	Stats   ExecStats
}

// SortMatches orders matches lexicographically by assignment, giving
// deterministic output for tests and tools.
func SortMatches(ms []Match) {
	sort.Slice(ms, func(a, b int) bool {
		x, y := ms[a].Assignment, ms[b].Assignment
		for i := range x {
			if x[i] != y[i] {
				return x[i] < y[i]
			}
		}
		return false
	})
}

// MatchSet builds a key-set from matches for equality testing.
func MatchSet(ms []Match) map[string]bool {
	set := make(map[string]bool, len(ms))
	for _, m := range ms {
		set[m.Key()] = true
	}
	return set
}

// VerifyMatch checks that m is a genuine embedding of q in the graph
// behind the cluster: labels agree, assigned vertices are pairwise
// distinct, and every query edge maps to a data edge. Used by tests and the
// CLI's --verify flag. It reads cells through Cluster.Cell, so a
// verification charges no simulated traffic.
func VerifyMatch(c *memcloud.Cluster, q *Query, m Match) error {
	if len(m.Assignment) != q.NumVertices() {
		return fmt.Errorf("core: assignment has %d vertices, query has %d", len(m.Assignment), q.NumVertices())
	}
	labels, ok := q.resolveLabels(c.Labels())
	if !ok {
		return fmt.Errorf("core: query labels not present in data graph")
	}
	seen := make(map[graph.NodeID]int, len(m.Assignment))
	for v, id := range m.Assignment {
		if prev, dup := seen[id]; dup {
			return fmt.Errorf("core: query vertices %d and %d both map to data vertex %d", prev, v, id)
		}
		seen[id] = v
		cell, found := c.Cell(id)
		if !found {
			return fmt.Errorf("core: assigned vertex %d does not exist", id)
		}
		if cell.Label != labels[v] {
			return fmt.Errorf("core: vertex %d has wrong label for query vertex %d", id, v)
		}
	}
	for _, e := range q.Edges() {
		a, b := m.Assignment[e[0]], m.Assignment[e[1]]
		cell, _ := c.Cell(a)
		found := false
		for _, nb := range cell.Neighbors {
			if graph.NodeID(nb) == b {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("core: query edge (%d,%d) not preserved: no data edge (%d,%d)", e[0], e[1], a, b)
		}
	}
	return nil
}
