// Command stwigbench measures stwigd end to end: it generates a workload's
// graph file and request list from a seed, spawns real stwigd processes on
// loopback, replays the fixed list closed-loop from one goroutine over one
// keep-alive connection for whole passes, and reports each operation's
// latency as its floor (minimum) over the passes. See README.md.
//
// Usage (from the checkout root, via stwigbench/run.sh):
//
//	stwigbench -workload NAME|all [-seed N] [-seconds S] [-trace 0|1] [-selfcheck]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"syscall"
	"time"
)

func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload to run: explore_direct, stream_direct, stream_cluster, mixed_rw, or all")
		seed         = flag.Int64("seed", 1, "seed every generated input (graph, queries, updates) derives from")
		seconds      = flag.Int("seconds", 24, "timed budget per workload: whole passes are replayed until it is spent (never fewer than 12)")
		trace        = flag.Int("trace", 0, "1 runs the traced depths and prints the per-layer metrics instead of the end-to-end ones")
		selfcheck    = flag.Bool("selfcheck", false, "run twice and fail if any end-to-end metric disagrees beyond its BENCHMARK.json bound")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "stwigbench: unexpected arguments; -trace takes 0 or 1")
		os.Exit(2)
	}
	os.Exit(run(*workloadName, *seed, *seconds, *trace == 1, *selfcheck))
}

func run(workloadName string, seed int64, seconds int, trace, selfcheck bool) (code int) {
	// Set by the signal handler: its clean-up makes the run fail, and the
	// exit code should say why.
	var interrupted atomic.Bool
	defer func() {
		if interrupted.Load() {
			code = 130
		}
	}()
	var chosen []spec
	if workloadName == "all" {
		chosen = specs
	} else if sp, ok := specByName(workloadName); ok {
		chosen = []spec{sp}
	} else {
		fmt.Fprintf(os.Stderr, "stwigbench: unknown workload %q\n", workloadName)
		return 2
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	base := filepath.Join(root, ".bench_build")
	r, err := newRig(root, base)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stwigbench:", err)
		return 1
	}
	defer r.Close()
	// SIGINT/SIGTERM: kill the daemons and remove the scratch directory
	// before dying, whatever the main goroutine is blocked on.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		interrupted.Store(true)
		r.Close()
		os.Exit(130)
	}()
	ctx := context.Background()

	cfg := runConfig{budget: time.Duration(seconds) * time.Second, passes: minPasses, boots: 5}
	one := func(sp spec) (*report, error) {
		dir, err := os.MkdirTemp(r.dir, sp.name+"-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		w, err := generate(sp, seed, dir)
		if err != nil {
			return nil, err
		}
		if trace {
			return runTraced(ctx, r, w, filepath.Join(base, "out"))
		}
		return runTimed(ctx, r, w, cfg)
	}

	var reports []*report
	for _, sp := range chosen {
		rep, err := one(sp)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stwigbench: %s: %v\n", sp.name, err)
			return 1
		}
		printReport(rep)
		reports = append(reports, rep)
	}
	if selfcheck {
		bounds, err := loadBounds(filepath.Join(root, "BENCHMARK.json"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "stwigbench:", err)
			return 1
		}
		for i, sp := range chosen {
			again, err := one(sp)
			if err != nil {
				fmt.Fprintf(os.Stderr, "stwigbench: %s: %v\n", sp.name, err)
				return 1
			}
			if !compareReports(reports[i], again, bounds) {
				code = 1
			}
			reports[i].attempted += again.attempted
			reports[i].failed += again.failed
		}
	}
	if !printResult(reports, len(chosen) > 1) {
		code = 1
	}
	return code
}

func printReport(rep *report) {
	fmt.Printf("workload %s: %d ops x %d passes, ops_attempted %d, ops_failed %d\n",
		rep.workload, rep.ops, rep.passes, rep.attempted, rep.failed)
	for _, f := range rep.failures {
		fmt.Printf("  FAILED %s\n", f)
	}
	for _, m := range rep.metrics {
		fmt.Printf("  %-36s %16.6f %s\n", m.name, m.value, m.unit)
	}
}

// printResult writes the driver's result line — one JSON object, last on
// standard output — and reports whether every operation was correct. With
// several workloads the metric names are prefixed "<workload>/".
func printResult(reports []*report, prefixed bool) bool {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: map[string]value{}}
	for _, rep := range reports {
		out.Attempted += rep.attempted
		out.Failed += rep.failed
		for _, m := range rep.metrics {
			name := m.name
			if prefixed {
				name = rep.workload + "/" + name
			}
			out.Metrics[name] = value{m.value, m.unit}
		}
	}
	out.Correct = out.Failed == 0
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stwigbench:", err)
		return false
	}
	fmt.Println(string(line))
	return out.Correct
}

// loadBounds reads the end-to-end regression bounds from BENCHMARK.json.
func loadBounds(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]float64, len(file.EndToEnd))
	for _, m := range file.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// compareReports prints both runs' values of every bounded metric with the
// relative difference and reports whether all of them agree within their
// bounds: the A/A check that the benchmark repeats on this machine.
func compareReports(a, b *report, bounds map[string]float64) bool {
	ok := true
	second := make(map[string]float64, len(b.metrics))
	for _, m := range b.metrics {
		second[m.name] = m.value
	}
	fmt.Printf("selfcheck %s\n", a.workload)
	for _, m := range a.metrics {
		share, bounded := bounds[m.name]
		if !bounded {
			continue
		}
		diff := ratio(second[m.name]-m.value, m.value)
		if diff < 0 {
			diff = -diff
		}
		verdict := "ok"
		if diff > share {
			verdict, ok = "DISAGREE", false
		}
		fmt.Printf("  %-28s %14.6f %14.6f %s  diff %6.2f%%  bound %5.1f%%  %s\n",
			m.name, m.value, second[m.name], m.unit, 100*diff, 100*share, verdict)
	}
	return ok
}
