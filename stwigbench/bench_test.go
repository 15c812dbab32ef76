package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// small shrinks a workload to a 1024-vertex graph and a handful of ops, and
// accepts any non-empty answer, so the whole pipeline runs in a test.
func small(sp spec) spec {
	sp.scale = 10
	sp.bandLo, sp.bandHi, sp.strata = 1, 1<<30, 1
	sp.genOps = 16
	sp.ops = min(sp.ops, 16)
	if sp.cluster {
		sp.ops = 8
	}
	return sp
}

func smallSpec(t *testing.T, name string) spec {
	t.Helper()
	sp, ok := specByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	return small(sp)
}

func testRig(t *testing.T) *rig {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	r, err := newRig(root, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

func mustGenerate(t *testing.T, sp spec, seed int64) *workloadData {
	t.Helper()
	w, err := generate(sp, seed, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestFloorsAndPercentiles(t *testing.T) {
	fl := floors([][]int64{{5, 9, noSample}, {7, 3, noSample}, {6, 4, noSample}})
	if fl[0] != 5 || fl[1] != 3 || fl[2] != noSample {
		t.Fatalf("floors = %v", fl)
	}
	if got := valid(fl); len(got) != 2 {
		t.Fatalf("valid kept %v", got)
	}
	xs := []int64{40, 10, 30, 20, 50}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {0.5, 30}, {0.9, 46}, {1, 50}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 40 {
		t.Error("percentile reordered its input")
	}
	if got := percentile([]float64{}, 0.5); got != 0 {
		t.Errorf("empty percentile = %v", got)
	}
	if got := sub([]int64{10, 5, noSample}, []int64{4, 9, 1}); len(got) != 2 || got[0] != 6 || got[1] != 0 {
		t.Errorf("sub = %v", got)
	}
	if ratio(1, 0) != 0 {
		t.Error("ratio with empty denominator must be 0")
	}
}

func TestPauseSince(t *testing.T) {
	ring := make([]int64, 256)
	ring[2], ring[3] = 100, 200 // third and fourth cycles
	got := memStats{numGC: 4, pauseNs: ring}.pauseSince(memStats{numGC: 2})
	if got != 300 {
		t.Fatalf("pauseSince = %d, want 300", got)
	}
}

// Same seed → byte-identical graph file and op list; another seed → another
// list; stream_cluster replays a prefix of stream_direct's list with the
// oracle's answers unchanged.
func TestGenerateDeterministic(t *testing.T) {
	for _, name := range []string{"explore_direct", "stream_direct", "mixed_rw"} {
		sp := smallSpec(t, name)
		a, b, other := mustGenerate(t, sp, 7), mustGenerate(t, sp, 7), mustGenerate(t, sp, 8)
		ga, _ := os.ReadFile(a.graphFile)
		gb, _ := os.ReadFile(b.graphFile)
		if len(ga) == 0 || !bytes.Equal(ga, gb) {
			t.Fatalf("%s: graph files differ for one seed", name)
		}
		if len(a.ops) != len(b.ops) {
			t.Fatalf("%s: op counts differ", name)
		}
		same := true
		for i := range a.ops {
			x, y := a.ops[i], b.ops[i]
			if !bytes.Equal(x.req, y.req) || x.wantMatches != y.wantMatches || x.wantHash != y.wantHash {
				t.Fatalf("%s: op %d differs for one seed", name, i)
			}
			if x.isQuery() && x.wantMatches < 1 {
				t.Fatalf("%s: op %d expects no match; a DFS query matches its own source", name, i)
			}
			same = same && bytes.Equal(x.req, other.ops[i].req)
		}
		if same {
			t.Fatalf("%s: seeds 7 and 8 drew the same list", name)
		}
	}
	direct := mustGenerate(t, smallSpec(t, "stream_direct"), 7)
	cluster := mustGenerate(t, smallSpec(t, "stream_cluster"), 7)
	for i := range cluster.ops {
		if !bytes.Equal(cluster.ops[i].req, direct.ops[i].req) || cluster.ops[i].wantHash != direct.ops[i].wantHash {
			t.Fatalf("stream_cluster op %d is not stream_direct's", i)
		}
	}
}

// The strata of the full-size specs must divide their lists evenly.
func TestSpecsStratify(t *testing.T) {
	for _, sp := range specs {
		if sp.genOps%sp.strata != 0 || sp.ops > sp.genOps || sp.ops%sp.strata != 0 {
			t.Errorf("%s: %d ops of %d drawn do not deal evenly over %d strata", sp.name, sp.ops, sp.genOps, sp.strata)
		}
		if sp.ops < 100 && !sp.cluster {
			t.Errorf("%s: %d ops leave fewer than ten beyond p90", sp.name, sp.ops)
		}
	}
}

type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func checkNames(t *testing.T, what string, rep *report, want []struct{ Name, Unit string }) {
	t.Helper()
	if rep.failed != 0 {
		t.Errorf("%s: %d failed ops: %v", what, rep.failed, rep.failures)
	}
	got := map[string]string{}
	for _, m := range rep.metrics {
		if _, dup := got[m.name]; dup {
			t.Errorf("%s: metric %s printed twice", what, m.name)
		}
		got[m.name] = m.unit
	}
	for _, m := range want {
		if unit, ok := got[m.Name]; !ok {
			t.Errorf("%s: metric %s of BENCHMARK.json not printed", what, m.Name)
		} else if unit != m.Unit || unit == "" {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, m.Name, unit, m.Unit)
		}
		delete(got, m.Name)
	}
	for name := range got {
		t.Errorf("%s: metric %s printed but not in BENCHMARK.json", what, name)
	}
}

// End-to-end smoke: every workload through real stwigd processes with K = 2,
// untraced and traced, printing exactly BENCHMARK.json's metrics. The
// read-write workload's pass leaves the graph and every answer unchanged
// (runTimed checks /v1/stats and every op against the oracle).
func TestSmokeEveryWorkload(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(bf.Workloads), len(specs))
	}
	r := testRig(t)
	ctx := context.Background()
	for i, full := range specs {
		if bf.Workloads[i].Name != full.name {
			t.Errorf("BENCHMARK.json workload %d is %q, harness has %q", i, bf.Workloads[i].Name, full.name)
		}
		sp := small(full)
		rep, err := runTimed(ctx, r, mustGenerate(t, sp, 3), runConfig{passes: 2, boots: 1})
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if rep.passes != 2 {
			t.Errorf("%s: %d passes, want 2", sp.name, rep.passes)
		}
		checkNames(t, sp.name, rep, bf.EndToEnd)
		for _, m := range rep.metrics {
			if m.value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v; must never be 0", sp.name, m.name, m.value)
			}
		}
		traced, err := runTraced(ctx, r, mustGenerate(t, sp, 3), t.TempDir())
		if err != nil {
			t.Fatalf("%s traced: %v", sp.name, err)
		}
		checkNames(t, sp.name+" traced", traced, bf.PerLayer)
	}
}

// A daemon that dies mid-run fails the workload with its stderr tail.
func TestDeadDaemonFailsLoudly(t *testing.T) {
	r := testRig(t)
	w := mustGenerate(t, smallSpec(t, "explore_direct"), 3)
	top, err := r.boot(context.Background(), w, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := dial(top.front.addr)
	if err != nil {
		t.Fatal(err)
	}
	rn := &runner{w: w, t: top, c: c, rep: &report{}}
	top.front.stop()
	err = rn.pass(make([]sample, len(w.ops)))
	if err == nil || !strings.Contains(err.Error(), "died") || !strings.Contains(err.Error(), "stderr tail") {
		t.Fatalf("pass on a dead daemon: %v", err)
	}
	if rn.rep.failed == 0 {
		t.Error("the failed op was not counted")
	}
}

// Close kills what is still running and removes the scratch directory.
func TestRigCloseCleansUp(t *testing.T) {
	r := testRig(t)
	w := mustGenerate(t, smallSpec(t, "stream_cluster"), 3)
	top, err := r.boot(context.Background(), w, 0)
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	for _, d := range top.all {
		if d.dead() == nil {
			t.Errorf("daemon %d still running after Close", d.pid())
		}
	}
	if _, err := os.Stat(r.dir); !os.IsNotExist(err) {
		t.Errorf("scratch directory survived Close: %v", err)
	}
}
