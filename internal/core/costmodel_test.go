package core_test

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"stwig/internal/core"
	"stwig/internal/memcloud"
	"stwig/internal/rmat"
)

// The modelled traffic is part of the reproduction: Stats.Net feeds the
// modelled times of Figures 9 and 10, and STwigMatchCounts is the volume the
// exchange ships. testdata/costmodel.golden holds both for a fixed seeded
// set of (R-MAT graph, pattern) pairs at 1, 3 and 8 machines, recorded from
// the build that preceded the flat directory and the proxy-built binding
// sets; an engine change that moves a message or a byte fails here. The rows
// carry a constant "parallelism=1" column from when the engine had a
// per-machine worker pool: the rows are the recorded ones, byte for byte.
//
// Regenerate (only when the cost model is meant to change) with
//
//	go test ./internal/core -run TestCostModelGolden -update-costmodel
var updateCostModel = flag.Bool("update-costmodel", false, "rewrite testdata/costmodel.golden from this build")

const costModelGolden = "costmodel.golden"

// costModelRows runs the fixed corpus and renders one line per
// (graph, pattern, machines).
func costModelRows(t *testing.T) []byte {
	t.Helper()
	var out bytes.Buffer
	for gi := int64(0); gi < 10; gi++ {
		rng := rand.New(rand.NewSource(gi))
		numLabels := 3 + rng.Intn(4)
		g := rmat.MustGenerate(rmat.Params{
			Scale:     9 + int(gi%4), // 512 … 4096 vertices
			AvgDegree: 4 + rng.Intn(5),
			NumLabels: numLabels,
			Seed:      gi + 500,
		})
		labels := make([]string, numLabels)
		for i := range labels {
			labels[i] = rmat.LabelName(i)
		}
		queries := make([]*core.Query, 3)
		for i := range queries {
			queries[i] = randomPattern(rng, labels)
		}
		for _, machines := range []int{1, 3, 8} {
			cluster := memcloud.MustNewCluster(memcloud.Config{Machines: machines})
			if err := cluster.LoadGraph(g); err != nil {
				t.Fatal(err)
			}
			// The budget only shortens the join's enumeration; every
			// message is charged before the first match is emitted.
			eng := core.NewEngine(cluster, core.Options{Seed: gi, MatchBudget: 1024})
			for qi, q := range queries {
				res, err := eng.Match(q)
				if err != nil {
					t.Fatalf("graph %d query %d machines %d: %v", gi, qi, machines, err)
				}
				fmt.Fprintf(&out, "graph=%d query=%d machines=%d parallelism=1 messages=%d bytes=%d stwig_matches=%v\n",
					gi, qi, machines, res.Stats.Net.Messages, res.Stats.Net.Bytes, res.Stats.STwigMatchCounts)
			}
		}
	}
	return out.Bytes()
}

func TestCostModelGolden(t *testing.T) {
	path := filepath.Join("testdata", costModelGolden)
	got := costModelRows(t)
	if *updateCostModel {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d rows, golden has %d", len(gotLines), len(wantLines))
	}
	for i := range wantLines {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Errorf("row %d:\n got  %s\n want %s", i+1, gotLines[i], wantLines[i])
		}
	}
}
