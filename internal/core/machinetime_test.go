package core

import (
	"context"
	"math/rand"
	"testing"
	"time"
)

// TestRunFoldsMachineTimes: every run times each machine of each parallel
// section — the exploration steps and the join — on the worker that runs
// it, and folds the times at the section's barrier: MachineTime sums them,
// and ParallelTime is the run's wall time with each section's wall
// replaced by its longest machine. A traced join's machine span carries
// the very time that was folded for its machine.
func TestRunFoldsMachineTimes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	labels := []string{"a", "b", "c"}
	g := randomDataGraph(rng, 400, 1600, labels)
	queries := make([]*Query, 4)
	for i := range queries {
		queries[i] = randomConnectedQuery(rng, 4, 2, labels)
	}
	for _, machines := range []int{1, 8} {
		c := clusterFor(t, g, machines)
		eng := NewEngine(c, Options{})
		for qi, q := range queries {
			// Untraced, through the engine.
			start := time.Now()
			res, err := eng.Match(q)
			wall := time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			if s := res.Stats; s.ParallelTime <= 0 || s.ParallelTime > wall || s.MachineTime <= 0 {
				t.Errorf("machines=%d query %d: ParallelTime %v, MachineTime %v, wall %v", machines, qi, s.ParallelTime, s.MachineTime, wall)
			}

			// Traced, on an execution whose section totals stay readable.
			plan, err := eng.planner.Plan(q)
			if err != nil {
				t.Fatal(err)
			}
			r := &execution{ex: eng.executor, plan: plan, spans: true,
				cut:  restriction{vertex: plan.Center, ids: plan.Query.slice},
				emit: func(_ int, ms []Match) (int, bool) { return len(ms), true }}
			start = time.Now()
			s, err := r.run(context.Background())
			wall = time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			if s.ParallelTime <= 0 || s.ParallelTime > wall {
				t.Errorf("machines=%d query %d: ParallelTime %v outside (0, wall %v]", machines, qi, s.ParallelTime, wall)
			}
			if serial := wall - r.sectionWalls; s.MachineTime < s.ParallelTime-serial {
				t.Errorf("machines=%d query %d: MachineTime %v below ParallelTime %v less the serial %v",
					machines, qi, s.MachineTime, s.ParallelTime, serial)
			}

			var stepWalls, joinMachines time.Duration
			for _, sp := range s.Spans {
				switch sp.Name {
				case "explore":
					stepWalls = sp.Duration
				case "join":
					for i, m := range sp.Children[:machines] {
						// The join is the run's last section, so each
						// machine's scratch still holds its join time.
						if m.Name != machineSpanNames[i] || m.Duration != r.sc.machines[i].took {
							t.Errorf("machines=%d query %d: span %q lasts %v, its machine was folded at %v",
								machines, qi, m.Name, m.Duration, r.sc.machines[i].took)
						}
						joinMachines += m.Duration
					}
				}
			}
			// What MachineTime holds beyond the join's machines is the
			// exploration's: at most every machine for every step's wall.
			if explore := s.MachineTime - joinMachines; explore < 0 || explore > time.Duration(machines)*stepWalls {
				t.Errorf("machines=%d query %d: MachineTime %v less the join's machine spans %v is %v, outside [0, %d × explore %v]",
					machines, qi, s.MachineTime, joinMachines, explore, machines, stepWalls)
			}
		}
	}
}
