package main

import (
	"fmt"
	"io"
	"runtime"
	"slices"

	"uniaddr"
	"uniaddr/internal/workloads"
)

// scaleFloorSpeedup is the acceptance floor of -exp scalefloor: every
// workload below must run at least this much faster on 8 rt workers
// than on 1. Deliberately conservative (ideal is 8x) so scheduler noise
// on shared CI runners does not flake the gate.
const scaleFloorSpeedup = 4.0

// scaleFloorSpecs are sized so that one worker spends SECONDS on each:
// wall times dwarf startup, steal latency and timer jitter, and the
// spawn tree is deep enough that -grain has structure to coalesce.
func scaleFloorSpecs() []workloads.Spec {
	return []workloads.Spec{
		workloads.Fib(26, 2500),
		workloads.BTC(9, 2, 2500),
		workloads.UTS(19, 10, workloads.DefaultUTSB0, 2500),
		workloads.NQueens(9, 2500),
	}
}

// scaleFloor is the scaling gate: best-of-reps wall time of each spec at
// 1 and at 8 workers through the facade. A speedup measured on fewer
// cores than workers says nothing about scaling, so on such hosts it
// says so and passes; CI runs it where NumCPU >= 8 and it bites.
func scaleFloor(c *ctx) error {
	if runtime.NumCPU() < 8 {
		fmt.Fprintf(c.out, "scalefloor: SKIPPED — NumCPU=%d < 8 workers; a speedup measured on an underprovisioned host says nothing about scaling\n", runtime.NumCPU())
		return nil
	}
	var names []string
	wall := map[string][2]int64{}
	for _, spec := range scaleFloorSpecs() {
		names = append(names, spec.Name)
		var best [2]int64
		for i, workers := range []int{1, 8} {
			for r := 0; r < max(c.reps, 1); r++ {
				opts := slices.Concat(c.tune, []uniaddr.Option{uniaddr.WithBackend(rt), uniaddr.WithWorkers(workers), uniaddr.WithSeed(c.seed + uint64(r))})
				rep, err := uniaddr.Run(spec.Fid, spec.Locals, spec.Init, opts...)
				if err == nil && rep.Root != spec.Expected {
					err = fmt.Errorf("result %d, want %d", rep.Root, spec.Expected)
				}
				if err != nil {
					return fmt.Errorf("scalefloor %s workers=%d: %w", spec.Name, workers, err)
				}
				if best[i] == 0 || rep.WallNS < best[i] {
					best[i] = rep.WallNS
				}
			}
		}
		wall[spec.Name] = best
	}
	return scaleFloorVerdict(c.out, names, wall)
}

// scaleFloorVerdict judges measured wall times, {1 worker, 8 workers}
// per workload: one line each, and an error if a named workload has no
// timings or any falls below the floor.
func scaleFloorVerdict(out io.Writer, names []string, wall map[string][2]int64) error {
	failed := 0
	for _, name := range names {
		w1, w8 := wall[name][0], wall[name][1]
		if w1 <= 0 || w8 <= 0 {
			return fmt.Errorf("scalefloor: missing timings for %s", name)
		}
		speedup, verdict := float64(w1)/float64(w8), "ok"
		if speedup < scaleFloorSpeedup {
			verdict = "FAIL"
			failed++
		}
		fmt.Fprintf(out, "scalefloor %-10s 1w=%8.2fms 8w=%8.2fms speedup=%5.2fx (floor %.1fx) %s\n",
			name, float64(w1)/1e6, float64(w8)/1e6, speedup, scaleFloorSpeedup, verdict)
	}
	if failed > 0 {
		return fmt.Errorf("scalefloor: %d of %d workloads below the %.1fx floor", failed, len(names), scaleFloorSpeedup)
	}
	fmt.Fprintf(out, "scalefloor: all %d workloads at or above %.1fx\n", len(names), scaleFloorSpeedup)
	return nil
}
