// uniaddr-bench regenerates the paper's tables and figures on the
// simulated cluster, and measures the real backends — rt (threads) and
// dist (one OS process per worker over shared memory) — on actual
// cores.
//
// Usage:
//
//	go run ./cmd/uniaddr-bench -exp all
//	go run ./cmd/uniaddr-bench -exp fig11a -scale large -workers 480,960,1920,3840
//	go run ./cmd/uniaddr-bench -exp fig10
//	go run ./cmd/uniaddr-bench -backend rt -scale small
//	go run ./cmd/uniaddr-bench -backend rt -exp diff
//	go run ./cmd/uniaddr-bench -backend dist -exp diff
//	go run ./cmd/uniaddr-bench -backend dist -exp bench
//	go run ./cmd/uniaddr-bench -list
//
// Experiments (sim backend): fig9, table2, fig10, table4, fig11a,
// fig11b, fig11c, fig11d, iso-vs-uni, sec4, ablate-faa,
// ablate-stacksize, ablate-nodes, ablate-multiworker, chaos, all.
//
// Experiments (rt backend): bench (wall-clock scaling, written to
// BENCH_rt.json), diff (the sim-vs-rt differential matrix) and
// scalefloor (the 1-vs-8-worker speedup gate; skips on hosts with
// fewer than 8 CPUs).
//
// Experiments (dist backend): bench (multi-process scaling, written to
// BENCH_dist.json) and diff (the sim-vs-dist differential matrix plus
// the SIGKILL crash probe). The dist backend re-execs this binary for
// worker processes; main routes those through dist.MaybeChild.
//
// The chaos experiment is the robustness gate, on every backend:
//
//   - sim: sweeps fib, NQueens and UTS over fabric fault rates
//     (-chaos-rates) and fails unless every run returns the sequential
//     reference result, passes quiescence and replays bit-identically;
//   - rt: the steal-fault matrix — injected claim/copy failures and
//     delays under real threads, every cell ending in the oracle result
//     within its deadline;
//   - dist: the full matrix — steal faults, control-plane socket faults
//     (drop/truncate/delay), concurrent SIGKILLs and the hung-worker
//     heartbeat cell, each ending in the oracle result or a structured
//     typed error within its deadline, never a hang.
//
// -chaos-json writes the verdicts as a machine-readable artifact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"

	"uniaddr"
	"uniaddr/internal/core"
	"uniaddr/internal/dist"
	"uniaddr/internal/harness"
	"uniaddr/internal/rdma"
	"uniaddr/internal/workloads"
)

// simExperiments is the canonical experiment order for -exp all and
// -list (chaos is opt-in: it is a gate, not a figure).
var simExperiments = []string{
	"fig9", "table2", "fig10", "iso-vs-uni", "table4",
	"fig11a", "fig11b", "fig11c", "fig11d", "trend",
	"sec4", "ablate-faa", "ablate-stacksize", "ablate-nodes", "ablate-victim", "ablate-multiworker", "ablate-helpfirst", "ablate-straggler", "ablate-lifelines",
}

var rtExperiments = []string{"bench", "diff", "chaos", "scalefloor", "service"}

func main() {
	// MUST run before anything else: when this binary was re-exec'd as a
	// dist worker process, MaybeChild takes over and never returns.
	dist.MaybeChild()
	backend := flag.String("backend", "sim", "execution backend: sim (virtual-time simulator) | rt (real goroutines) | dist (one OS process per worker)")
	exp := flag.String("exp", "", "experiment to run (default: all for -backend sim, bench for -backend rt; see -list)")
	scale := flag.String("scale", "small", "problem scale: tiny | small | large | bench (bench: seconds-scale rt/dist workloads)")
	seed := flag.Uint64("seed", 1, "base simulation seed")
	reps := flag.Int("reps", 3, "repetitions per Fig. 11 / rt-bench point")
	workersFlag := flag.String("workers", "", "comma-separated worker counts for fig11/sec4/rt (sim default 60,120,240,480; rt default 1,2,4,8)")
	table4Workers := flag.Int("table4-workers", 60, "worker count for table4")
	csvDir := flag.String("csv", "", "also write data series as CSV files into this directory")
	chaosWorkers := flag.Int("chaos-workers", 8, "worker count for the chaos sweep/matrix")
	chaosRates := flag.String("chaos-rates", "", "comma-separated fault rates for sim chaos (default 0,0.001,0.01,0.05)")
	chaosJSON := flag.String("chaos-json", "", "write the chaos verdicts as JSON to this path (-exp chaos, any backend)")
	short := flag.Bool("short", false, "shrink long experiments (dist chaos: drop the minutes-long kill/hang cells)")
	traceOut := flag.String("trace", "", "write Chrome trace-event JSON to this file (-exp run|bench|chaos, any backend; view in Perfetto). The trace's clockDomain field names the timestamp domain: virtual cycles on sim, wall ns on rt/dist")
	obsOut := flag.Bool("obs", false, "print an observability digest of the run (-exp run|bench|chaos, any backend)")
	checkTrace := flag.String("check-trace", "", "validate a Chrome trace file produced by -trace (parses, has clock-domain metadata and steal events), then exit")
	rtJSON := flag.String("rt-json", "BENCH_rt.json", "output path for the rt bench report (-backend rt -exp bench)")
	qps := flag.Float64("qps", 20, "target Poisson arrival rate, jobs/sec (-backend rt -exp service)")
	svcJobs := flag.Int("jobs", 120, "number of job arrivals to generate (-backend rt -exp service)")
	serviceJSON := flag.String("service-json", "BENCH_service.json", "output path for the service load-gen report (-backend rt -exp service)")
	distJSON := flag.String("dist-json", "BENCH_dist.json", "output path for the dist bench report (-backend dist -exp bench)")
	runWorkload := flag.String("workload", "fib", "workload for -exp run (see -list)")
	jsonOut := flag.Bool("json", false, "emit the unified uniaddr.Report as JSON (-exp run, any backend)")
	compare := flag.String("compare", "", "baseline BENCH_rt.json to diff the rt bench against (-backend rt -exp bench); prints a before/after delta table")
	compareJSON := flag.String("compare-json", "", "also write the -compare delta report as JSON to this path")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (view with go tool pprof)")
	memProfile := flag.String("memprofile", "", "write an allocation profile at exit to this file")
	mutexProfile := flag.String("mutexprofile", "", "write a mutex-contention profile at exit to this file")
	grainFlag := flag.String("grain", "", "sequential cutoff for rt/dist bench runs: a depth, or \"auto\" for demand-adaptive inlining (default: off)")
	stealBatch := flag.Int("batch", 0, "steal-batch override for rt/dist bench runs: 1 forces single-entry steals, n>1 caps the per-round-trip claim (default 0: deque-sized steal-half)")
	tierGroup := flag.Int("tiergroup", 0, "workers per locality block for tiered victim selection on rt/dist (default 0: backend default)")
	list := flag.Bool("list", false, "list available experiments, workloads and backends, then exit")
	flag.Parse()

	tune, err := parseTuning(*grainFlag, *stealBatch, *tierGroup)
	check(err)

	if *list {
		printList(os.Stdout)
		return
	}
	if *checkTrace != "" {
		info, err := harness.CheckTrace(*checkTrace)
		check(err)
		fmt.Printf("trace %s OK: %d events (%d steal-related), clock domain %q\n",
			*checkTrace, info.Events, info.StealEvents, info.Clock)
		return
	}
	stopProfiles := startProfiles(*cpuProfile, *memProfile, *mutexProfile)
	defer stopProfiles()
	// "run" is the one backend-neutral experiment: one workload through
	// the public uniaddr.Run facade, reported as the unified Report.
	if *exp == "run" {
		runFacade(*backend, *runWorkload, parseWorkers(*workersFlag, []int{4})[0], *seed, *jsonOut, *traceOut, *obsOut)
		return
	}
	switch *backend {
	case "sim":
		if *exp == "" {
			*exp = "all"
		}
	case "rt":
		if *exp == "" {
			*exp = "bench"
		}
		if *exp == "chaos" {
			runChaosMatrix(harness.RTChaosBackend(), harness.RTChaosSchedules(), *chaosWorkers, *seed, *scale, *chaosJSON)
			traceRepresentative("rt", *chaosWorkers, *seed, true, *traceOut, *obsOut)
			return
		}
		if *exp == "service" {
			runServiceBench(*workersFlag, *qps, *svcJobs, *seed, *serviceJSON)
			return
		}
		runRT(*exp, *scale, *seed, *reps, *workersFlag, *rtJSON, *compare, *compareJSON, tune)
		if *exp == "bench" {
			ws := parseWorkers(*workersFlag, defaultRTWorkers())
			traceRepresentative("rt", ws[len(ws)-1], *seed, false, *traceOut, *obsOut)
		}
		return
	case "dist":
		if *exp == "" {
			*exp = "bench"
		}
		if *exp == "chaos" {
			schedules := harness.DistChaosSchedules()
			if *short {
				// Drop the Long (kill/hang) schedules: they pay a
				// multi-second injected-failure run each.
				var kept []harness.ChaosSchedule
				for _, s := range schedules {
					if !s.Long {
						kept = append(kept, s)
					}
				}
				schedules = kept
			}
			runChaosMatrix(harness.DistChaosBackend(), schedules, *chaosWorkers, *seed, *scale, *chaosJSON)
			traceRepresentative("dist", min(*chaosWorkers, 4), *seed, true, *traceOut, *obsOut)
			return
		}
		runDist(*exp, *scale, *seed, *reps, *workersFlag, *distJSON, tune)
		if *exp == "bench" {
			ws := parseWorkers(*workersFlag, []int{2, 4})
			traceRepresentative("dist", ws[len(ws)-1], *seed, false, *traceOut, *obsOut)
		}
		return
	default:
		fail(fmt.Errorf("unknown backend %q (sim | rt | dist); -list shows what exists", *backend))
	}

	// Output sinks are validated up front: a bad -csv directory or an
	// unwritable -trace path must fail now, not after a long sweep.
	if *csvDir != "" {
		if err := harness.EnsureWritableDir(*csvDir); err != nil {
			fail(fmt.Errorf("-csv: %w", err))
		}
	}
	if *traceOut != "" && *exp != "chaos" {
		fail(fmt.Errorf("-trace on the sim backend is only supported with -exp run or -exp chaos, not the figure experiments"))
	}
	if *obsOut && *exp != "chaos" {
		fail(fmt.Errorf("-obs on the sim backend is only supported with -exp run or -exp chaos, not the figure experiments"))
	}
	var traceFile *os.File
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fail(fmt.Errorf("-trace: %w", err))
		}
		traceFile = f
	}

	workers := parseWorkers(*workersFlag, harness.DefaultWorkerCounts)

	run := func(name string) {
		out := os.Stdout
		switch name {
		case "fig9":
			pts, err := harness.Fig9(rdma.DefaultParams(), core.SPARCCosts().ClockHz, nil)
			check(err)
			harness.PrintFig9(out, pts)
			check(harness.MaybeCSV(*csvDir, func() error { return harness.WriteFig9CSV(*csvDir, pts) }))
		case "table2":
			rows, err := harness.Table2(5000)
			check(err)
			harness.PrintTable2(out, rows)
			check(harness.MaybeCSV(*csvDir, func() error { return harness.WriteTable2CSV(*csvDir, rows) }))
		case "fig10":
			bd, err := harness.Fig10(core.SchemeUni, 500)
			check(err)
			harness.PrintFig10(out, bd)
			check(harness.MaybeCSV(*csvDir, func() error { return harness.WriteFig10CSV(*csvDir, "fig10", bd) }))
		case "table4":
			rows, err := harness.Table4(*table4Workers, *scale, *seed)
			check(err)
			harness.PrintTable4(out, *table4Workers, rows)
			check(harness.MaybeCSV(*csvDir, func() error { return harness.WriteTable4CSV(*csvDir, rows) }))
		case "fig11a", "fig11b", "fig11c", "fig11d":
			entries := harness.Fig11Benchmarks(*scale)[name]
			var curves []harness.Fig11Curve
			for _, e := range entries {
				pts, err := harness.ScalingSweep(e.Spec, workers, *reps, *seed, nil)
				check(err)
				curves = append(curves, harness.Fig11Curve{Label: e.Label, Points: pts})
			}
			harness.PrintFig11(out, name, curves, core.SPARCCosts().ClockHz)
			check(harness.MaybeCSV(*csvDir, func() error { return harness.WriteFig11CSV(*csvDir, name, curves) }))
		case "iso-vs-uni":
			uni, iso, ratio, err := harness.IsoVsUni(13)
			check(err)
			harness.PrintFig10(out, uni)
			harness.PrintFig10(out, iso)
			harness.PrintIsoVsUni(out, uni, iso, ratio)
		case "sec4":
			pts, err := harness.Sec4Measured([]int{8, 16, 32, 64}, *seed)
			check(err)
			harness.PrintSec4(out, harness.Sec4Paper(), pts)
		case "ablate-faa":
			pts, err := harness.AblateFAA([]int{15, 30, 60, 120}, *seed)
			check(err)
			harness.PrintAblateFAA(out, pts)
		case "ablate-stacksize":
			pts, err := harness.AblateStackSize(nil, 200)
			check(err)
			harness.PrintAblateStackSize(out, pts)
		case "ablate-nodes":
			pts, err := harness.AblateWorkersPerNode(60, []int{1, 5, 15, 30}, *seed)
			check(err)
			harness.PrintAblateWorkersPerNode(out, 60, pts)
		case "ablate-lifelines":
			pts, err := harness.AblateLifelines(30, *seed)
			check(err)
			harness.PrintAblateLifelines(out, 30, pts)
		case "ablate-straggler":
			pts, err := harness.AblateStraggler(30, *seed)
			check(err)
			harness.PrintAblateStraggler(out, 30, pts)
		case "trend":
			pts, err := harness.EfficiencyTrend([]uint64{16, 18, 20, 22}, 15, 8, *seed)
			check(err)
			harness.PrintTrend(out, 15, 8, pts)
		case "ablate-helpfirst":
			pts, err := harness.AblateHelpFirst(30, *seed)
			check(err)
			harness.PrintAblateHelpFirst(out, 30, pts)
		case "ablate-victim":
			pts, err := harness.AblateVictim(30, 0.3, *seed)
			check(err)
			harness.PrintAblateVictim(out, 30, 0.3, pts)
		case "ablate-multiworker":
			pts, err := harness.AblateMultiWorker(24, []int{1, 2, 4}, *seed)
			check(err)
			harness.PrintAblateMultiWorker(out, 24, pts)
		case "chaos":
			rates := harness.DefaultChaosRates
			if *chaosRates != "" {
				rates = nil
				for _, s := range strings.Split(*chaosRates, ",") {
					r, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
					if err != nil || r < 0 || r >= 1 {
						fail(fmt.Errorf("bad -chaos-rates entry %q", s))
					}
					rates = append(rates, r)
				}
			}
			var obsv *harness.ChaosObserve
			if traceFile != nil || *obsOut {
				obsv = &harness.ChaosObserve{}
				if traceFile != nil {
					obsv.Trace = traceFile
				}
				if *obsOut {
					obsv.Summary = out
				}
			}
			pts, err := harness.ChaosSweepObserved(*chaosWorkers, harness.ChaosWorkloads(*scale), rates, *seed, obsv)
			check(err)
			harness.PrintChaos(out, *chaosWorkers, pts)
			if *chaosJSON != "" {
				check(writeJSONFile(*chaosJSON, pts))
				fmt.Fprintf(out, "(chaos points written to %s)\n", *chaosJSON)
			}
			if traceFile != nil {
				check(traceFile.Close())
				traceFile = nil
				fmt.Fprintf(out, "(Chrome trace written to %s — open in https://ui.perfetto.dev)\n", *traceOut)
			}
		default:
			fail(fmt.Errorf("unknown experiment %q for the sim backend; -list shows what exists", name))
		}
		fmt.Fprintln(out)
	}

	defer harness.FprintCSVNote(os.Stdout, *csvDir)
	if *exp == "all" {
		for _, name := range simExperiments {
			fmt.Printf("==== %s ====\n", name)
			run(name)
		}
		return
	}
	run(*exp)
}

// runChaosMatrix executes the backend-generalised chaos matrix (-exp
// chaos on rt/dist): every (schedule × workload × seed) cell must end,
// within its deadline, in the oracle result or a structured typed
// error. Exits non-zero on any failed cell — this is a gate, not a
// figure.
func runChaosMatrix(b harness.ChaosBackend, schedules []harness.ChaosSchedule, workers int, seed uint64, scale, chaosJSON string) {
	seeds := []uint64{seed, seed + 1, seed + 2}
	cells, failed := harness.RunChaosMatrix(b, workers, seeds, schedules, scale)
	harness.PrintChaosMatrix(os.Stdout, cells, failed)
	if chaosJSON != "" {
		check(writeJSONFile(chaosJSON, cells))
		fmt.Printf("(chaos verdicts written to %s)\n", chaosJSON)
	}
	if failed > 0 {
		fail(fmt.Errorf("chaos matrix on %s: %d cells failed", b.Name, failed))
	}
}

// writeJSONFile writes v as indented JSON to path.
func writeJSONFile(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runRT executes the real-parallelism experiments: the wall-clock
// scaling bench (with its BENCH_rt.json artifact, optionally diffed
// against a committed baseline), the sim-vs-rt differential matrix, or
// the scalefloor gate.
func runRT(exp, scale string, seed uint64, reps int, workersFlag, rtJSON, compare, compareJSON string, tune harness.BenchTuning) {
	workers := parseWorkers(workersFlag, defaultRTWorkers())
	out := os.Stdout
	switch exp {
	case "bench":
		// A bad baseline path must fail before the sweep, not after it.
		var baseline harness.RTBenchReport
		if compare != "" {
			var err error
			baseline, err = harness.ReadRTBenchJSON(compare)
			check(err)
		}
		wls, err := harness.RTBenchWorkloads(scale)
		check(err)
		rep, err := harness.RunRTBench(wls, workers, reps, seed, tune)
		check(err)
		harness.PrintRTBench(out, rep)
		f, err := os.Create(rtJSON)
		check(err)
		check(harness.WriteRTBenchJSON(f, rep))
		check(f.Close())
		fmt.Fprintf(out, "(machine-readable report written to %s)\n", rtJSON)
		if compare != "" {
			cmp := harness.CompareRTBench(baseline, rep)
			fmt.Fprintln(out)
			harness.PrintRTBenchCompare(out, cmp)
			if compareJSON != "" {
				cf, err := os.Create(compareJSON)
				check(err)
				check(harness.WriteRTBenchCompareJSON(cf, cmp))
				check(cf.Close())
				fmt.Fprintf(out, "(delta report written to %s)\n", compareJSON)
			}
		}
	case "diff":
		seeds := []uint64{seed, seed + 1, seed + 2}
		rep, err := harness.RunDifferential(harness.DiffWorkloads(), workers, seeds)
		check(err)
		printDiff(out, rep)
	case "scalefloor":
		runScaleFloor(out, seed, reps, tune)
	default:
		fail(fmt.Errorf("unknown experiment %q for the rt backend; -list shows what exists", exp))
	}
}

// runServiceBench is -backend rt -exp service: the open-loop Poisson
// load generator against one persistent worker pool. It writes
// BENCH_service.json and exits non-zero if any per-job report diverged
// from its sequential oracle or a worker exited mid-run — the two
// invariants the persistent-pool design promises.
func runServiceBench(workersFlag string, qps float64, jobs int, seed uint64, serviceJSON string) {
	workers := parseWorkers(workersFlag, []int{4})[0]
	out := os.Stdout
	rep, err := harness.RunServiceBench(harness.ServiceBenchConfig{
		Workers: workers, QPS: qps, Jobs: jobs, Seed: seed,
	})
	check(err)
	harness.PrintServiceBench(out, rep)
	f, err := os.Create(serviceJSON)
	check(err)
	check(harness.WriteServiceBenchJSON(f, rep))
	check(f.Close())
	fmt.Fprintf(out, "(machine-readable report written to %s)\n", serviceJSON)
	if rep.OracleMismatches > 0 {
		fail(fmt.Errorf("%d per-job reports diverged from their sequential oracle", rep.OracleMismatches))
	}
	if rep.WorkersExitedMidRun != 0 {
		fail(fmt.Errorf("%d workers exited while jobs were still being served", rep.WorkersExitedMidRun))
	}
}

// scaleFloorSpeedup is the acceptance floor for -exp scalefloor: every
// seconds-scale bench workload must run at least this much faster on 8
// workers than on 1. The floor is deliberately conservative (ideal is
// 8x) so scheduler noise on shared CI runners does not flake the gate.
const scaleFloorSpeedup = 4.0

// runScaleFloor is the scaling acceptance gate: the seconds-scale
// "bench" workloads at 1 and 8 workers, each workload required to hit
// scaleFloorSpeedup. A speedup claim measured on fewer cores than
// workers is meaningless, so on underprovisioned hosts the gate prints
// what it would have checked and exits 0 — the HONEST outcome, also
// what keeps laptop/dev-container runs green. CI runs it on runners
// with NumCPU >= 8 where it actually bites.
func runScaleFloor(out *os.File, seed uint64, reps int, tune harness.BenchTuning) {
	if runtime.NumCPU() < 8 {
		fmt.Fprintf(out, "scalefloor: SKIPPED — NumCPU=%d < 8 workers; a speedup measured on an underprovisioned host says nothing about scaling\n", runtime.NumCPU())
		return
	}
	wls, err := harness.RTBenchWorkloads("bench")
	check(err)
	rep, err := harness.RunRTBench(wls, []int{1, 8}, reps, seed, tune)
	check(err)
	wall := map[string]map[int]int64{}
	for _, row := range rep.Rows {
		if wall[row.Workload] == nil {
			wall[row.Workload] = map[int]int64{}
		}
		wall[row.Workload][row.Workers] = row.WallNS
	}
	failed := 0
	for _, wl := range wls {
		w1, w8 := wall[wl.Name][1], wall[wl.Name][8]
		if w1 == 0 || w8 == 0 {
			fail(fmt.Errorf("scalefloor: missing timings for %s", wl.Name))
		}
		speedup := float64(w1) / float64(w8)
		verdict := "ok"
		if speedup < scaleFloorSpeedup {
			verdict = "FAIL"
			failed++
		}
		fmt.Fprintf(out, "scalefloor %-10s 1w=%8.2fms 8w=%8.2fms speedup=%5.2fx (floor %.1fx) %s\n",
			wl.Name, float64(w1)/1e6, float64(w8)/1e6, speedup, scaleFloorSpeedup, verdict)
	}
	if failed > 0 {
		fail(fmt.Errorf("scalefloor: %d of %d workloads below the %.1fx floor", failed, len(wls), scaleFloorSpeedup))
	}
	fmt.Fprintf(out, "scalefloor: all %d workloads at or above %.1fx\n", len(wls), scaleFloorSpeedup)
}

// runDist executes the multi-process experiments: the scaling bench
// (BENCH_dist.json) or the sim-vs-dist differential matrix followed by
// the SIGKILL crash probe — together, the acceptance gate for the dist
// backend.
func runDist(exp, scale string, seed uint64, reps int, workersFlag, distJSON string, tune harness.BenchTuning) {
	workers := parseWorkers(workersFlag, []int{2, 4})
	out := os.Stdout
	switch exp {
	case "bench":
		wls, err := harness.RTBenchWorkloads(scale)
		check(err)
		rep, err := harness.RunDistBench(wls, workers, reps, seed, tune)
		check(err)
		harness.PrintRTBench(out, rep)
		f, err := os.Create(distJSON)
		check(err)
		check(harness.WriteRTBenchJSON(f, rep))
		check(f.Close())
		fmt.Fprintf(out, "(machine-readable report written to %s)\n", distJSON)
	case "diff":
		seeds := []uint64{seed, seed + 1, seed + 2}
		rep, err := harness.RunDifferentialBackend(harness.DistDiffBackend(), harness.DiffWorkloads(), workers, seeds)
		check(err)
		printDiff(out, rep)
		fmt.Fprintln(out, "crash probe: SIGKILL a worker process mid-run...")
		check(harness.DistCrashProbe(3, seed))
		fmt.Fprintln(out, "crash probe: structured WorkerCrashError reported, no hang")
	default:
		fail(fmt.Errorf("unknown experiment %q for the dist backend; -list shows what exists", exp))
	}
}

// runFacade executes one catalog workload through the public
// backend-neutral facade (uniaddr.Run) and prints the unified
// uniaddr.Report — as JSON with -json, human-readable otherwise.
// traceOut/obsOut attach the observability recorder and export the run
// through the one unified path every backend shares.
func runFacade(backend, workload string, workers int, seed uint64, jsonOut bool, traceOut string, obsOut bool) {
	var spec workloads.Spec
	found := false
	for _, wl := range runCatalog() {
		if wl.Name == workload {
			spec, found = wl.Spec, true
			break
		}
	}
	if !found {
		fail(fmt.Errorf("unknown workload %q for -exp run; -list shows the catalog", workload))
	}
	if spec.Setup != nil {
		fail(fmt.Errorf("workload %q needs machine staging, which the facade Run does not cover; use the sim experiments", workload))
	}
	opts := []uniaddr.Option{uniaddr.WithBackend(backend), uniaddr.WithWorkers(workers), uniaddr.WithSeed(seed)}
	obsOpts, finishTrace := obsOptions(traceOut, obsOut)
	opts = append(opts, obsOpts...)
	rep, err := uniaddr.Run(spec.Fid, spec.Locals, spec.Init, opts...)
	check(err)
	if spec.Expected != 0 && rep.Root != spec.Expected {
		fail(fmt.Errorf("%s on %s: result %d, want %d", workload, backend, rep.Root, spec.Expected))
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		check(enc.Encode(rep))
		finishTrace()
		return
	}
	fmt.Printf("%s on %s: result=%d workers=%d tasks=%d steals=%d/%d bytes-stolen=%d\n",
		workload, rep.Backend, rep.Root, rep.Workers, rep.Tasks,
		rep.StealsOK, rep.StealAttempts, rep.BytesStolen)
	if rep.Backend == uniaddr.BackendSim {
		fmt.Printf("virtual time: %d cycles (%.6f s)\n", rep.VirtualCycles, rep.VirtualSeconds)
	} else {
		fmt.Printf("wall time: %.3f ms\n", float64(rep.WallNS)/1e6)
	}
	if obsOut {
		printObsDigest(os.Stdout, rep.Obs)
	}
	finishTrace()
}

// runCatalog is the -exp run workload catalog: the differential set
// plus deeper variants that keep every worker busy long enough to
// exercise real stealing — the interesting case under -trace (the
// differential-sized specs can finish on one worker before a peer ever
// probes, especially on dist where children pay process startup).
func runCatalog() []harness.DiffWorkload {
	return append(harness.DiffWorkloads(),
		harness.DiffWorkload{Name: "fib-deep", Spec: workloads.Fib(24, 500)},
		harness.DiffWorkload{Name: "nqueens-deep", Spec: workloads.NQueens(8, 50)},
	)
}

// obsOptions turns -trace/-obs into facade options. The returned
// finish func closes the trace file and prints where it went; call it
// after the run.
func obsOptions(traceOut string, obsOut bool) ([]uniaddr.Option, func()) {
	var opts []uniaddr.Option
	finish := func() {}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		check(err)
		opts = append(opts, uniaddr.WithTrace(f))
		finish = func() {
			check(f.Close())
			fmt.Printf("(Chrome trace written to %s — open in https://ui.perfetto.dev)\n", traceOut)
		}
	}
	if obsOut {
		opts = append(opts, uniaddr.WithObs(true))
	}
	return opts, finish
}

// printObsDigest renders the Report's observability block.
func printObsDigest(out *os.File, o *uniaddr.ObsReport) {
	if o == nil {
		fmt.Fprintln(out, "obs: no data recorded")
		return
	}
	fmt.Fprintf(out, "obs: %d events recorded (%s)", o.Events, o.Clock)
	if o.Dropped > 0 {
		fmt.Fprintf(out, ", %d dropped by full rings", o.Dropped)
	}
	fmt.Fprintln(out)
	if len(o.DroppedPerWorker) > 0 {
		fmt.Fprintf(out, "  dropped per worker:")
		for rank, d := range o.DroppedPerWorker {
			if d > 0 {
				fmt.Fprintf(out, " w%d:%d", rank, d)
			}
		}
		fmt.Fprintln(out)
	}
	for _, h := range o.Hists {
		fmt.Fprintf(out, "  %-18s count=%-8d mean=%-10.1f p50=%-8d p95=%-8d p99=%-8d max=%d\n",
			h.Name, h.Count, h.Mean, h.P50, h.P95, h.P99, h.Max)
	}
}

// traceRepresentative runs ONE representative run through the facade
// with the recorder on and exports it — the trace/summary companion to
// the bench and chaos experiments on the real backends (the sweeps
// themselves stay unobserved so recording never skews their numbers).
// faulted additionally injects the steal-fault knobs so the trace shows
// the resilient-steal retry/backoff/blacklist ladder. No-op when
// neither -trace nor -obs was given.
func traceRepresentative(backend string, workers int, seed uint64, faulted bool, traceOut string, obsOut bool) {
	if traceOut == "" && !obsOut {
		return
	}
	spec := workloads.Fib(24, 500)
	opts := []uniaddr.Option{uniaddr.WithBackend(backend), uniaddr.WithWorkers(workers), uniaddr.WithSeed(seed)}
	if faulted {
		opts = append(opts, uniaddr.WithFault(uniaddr.FaultConfig{
			Seed: seed, StealClaimFailProb: 0.05, StealCopyFailProb: 0.02,
		}))
	}
	obsOpts, finishTrace := obsOptions(traceOut, obsOut)
	opts = append(opts, obsOpts...)
	fmt.Printf("\ntracing one representative %s run (fib, %d workers, faults=%v)...\n", backend, workers, faulted)
	rep, err := uniaddr.Run(spec.Fid, spec.Locals, spec.Init, opts...)
	check(err)
	if rep.Root != spec.Expected {
		fail(fmt.Errorf("representative traced run: result %d, want %d", rep.Root, spec.Expected))
	}
	if obsOut {
		printObsDigest(os.Stdout, rep.Obs)
	}
	finishTrace()
}

// printDiff renders a differential report and exits non-zero on any
// mismatch — shared by the rt and dist diff experiments.
func printDiff(out *os.File, rep harness.DiffReport) {
	for _, row := range rep.Rows {
		switch {
		case row.Skipped:
			fmt.Fprintf(out, "SKIP  %-14s %s\n", row.Workload, row.SkipReason)
		case row.Match:
			fmt.Fprintf(out, "OK    %-14s workers=%-3d seed=%-3d result=%d\n", row.Workload, row.Workers, row.Seed, row.GotResult)
		default:
			fmt.Fprintf(out, "FAIL  %-14s workers=%-3d seed=%-3d sim=%d %s=%d\n", row.Workload, row.Workers, row.Seed, row.SimResult, rep.Backend, row.GotResult)
		}
	}
	fmt.Fprintf(out, "%d compared, %d mismatches, %d skipped\n", rep.Compared, rep.Mismatches, rep.Skipped)
	if rep.Mismatches > 0 {
		fail(fmt.Errorf("differential matrix found %d sim-vs-%s mismatches", rep.Mismatches, rep.Backend))
	}
}

// defaultRTWorkers picks worker counts that make sense on this machine:
// powers of two up to GOMAXPROCS (always at least {1, 2}).
func defaultRTWorkers() []int {
	max := runtime.GOMAXPROCS(0)
	counts := []int{1}
	for n := 2; n <= max && n <= 8; n *= 2 {
		counts = append(counts, n)
	}
	if len(counts) == 1 {
		counts = append(counts, 2)
	}
	return counts
}

// parseTuning assembles the rt/dist scaling knobs from their flags.
// -grain accepts a plain depth or "auto" (demand-adaptive: inline only
// while the local deque is deep enough that no thief is starved).
func parseTuning(grain string, batch, tierGroup int) (harness.BenchTuning, error) {
	tune := harness.BenchTuning{StealBatch: batch, TierGroup: tierGroup}
	switch grain {
	case "":
	case "auto":
		tune.Grain = uniaddr.GrainAuto
	default:
		g, err := strconv.ParseUint(grain, 10, 64)
		if err != nil || g == 0 {
			return tune, fmt.Errorf("bad -grain %q: want a positive depth or \"auto\"", grain)
		}
		tune.Grain = g
	}
	if batch < 0 {
		return tune, fmt.Errorf("bad -batch %d: want 0 (steal-half) or a positive cap", batch)
	}
	if tierGroup < 0 {
		return tune, fmt.Errorf("bad -tiergroup %d: want 0 (default) or a positive block width", tierGroup)
	}
	return tune, nil
}

func parseWorkers(flagValue string, def []int) []int {
	if flagValue == "" {
		return def
	}
	var workers []int
	for _, s := range strings.Split(flagValue, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			fail(fmt.Errorf("bad -workers entry %q", s))
		}
		workers = append(workers, n)
	}
	return workers
}

// printList enumerates everything -exp, -backend and the workload
// catalogs accept, so an unknown name is a browsing problem, not a
// guessing game.
func printList(out *os.File) {
	fmt.Fprintln(out, "backends:")
	fmt.Fprintln(out, "  sim  deterministic virtual-time simulator (the semantic oracle)")
	fmt.Fprintln(out, "  rt   real goroutines on real cores, wall-clock throughput")
	fmt.Fprintln(out, "  dist one OS process per worker over a shared-memory segment")
	fmt.Fprintln(out, "\nexperiments (-backend sim):")
	names := append([]string{}, simExperiments...)
	names = append(names, "chaos", "all")
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %s\n", n)
	}
	fmt.Fprintln(out, "\nexperiments (-backend rt):")
	fmt.Fprintln(out, "  bench      wall-clock scaling sweep; writes BENCH_rt.json")
	fmt.Fprintln(out, "  diff       sim-vs-rt differential matrix (root results must agree)")
	fmt.Fprintln(out, "  chaos      steal-fault matrix: injected claim/copy failures + delays under real threads")
	fmt.Fprintln(out, "  scalefloor seconds-scale bench at 1 vs 8 workers; fails under a 4x speedup floor (skips on <8 CPUs)")
	fmt.Fprintln(out, "  service    open-loop Poisson load-gen (-qps, -jobs) against one persistent worker pool;")
	fmt.Fprintln(out, "             oracle-checks every per-job report, writes BENCH_service.json with latency percentiles")
	fmt.Fprintln(out, "\nexperiments (-backend dist):")
	fmt.Fprintln(out, "  bench  multi-process scaling sweep; writes BENCH_dist.json")
	fmt.Fprintln(out, "  diff   sim-vs-dist differential matrix + SIGKILL crash probe")
	fmt.Fprintln(out, "  chaos  full fault matrix: steal + control-plane faults, SIGKILLs, hung-worker heartbeat cell")
	fmt.Fprintln(out, "\nexperiments (any backend):")
	fmt.Fprintln(out, "  run    one workload via the public uniaddr.Run facade; -json emits the unified Report")
	fmt.Fprintln(out, "\nobservability (-obs digest, -trace Chrome/Perfetto trace; -check-trace validates a trace file):")
	fmt.Fprintln(out, "  sim   virtual-cycles clock; event rings, task lineage, latency histograms  (run, chaos)")
	fmt.Fprintln(out, "  rt    wall-ns clock; lock-free per-worker rings, steal/park/copy histograms (run, bench, chaos)")
	fmt.Fprintln(out, "  dist  wall-ns clock; segment-hosted per-rank rings + heartbeat/control-plane")
	fmt.Fprintln(out, "        events, harvested by the parent even after a worker crash             (run, bench, chaos)")
	fmt.Fprintln(out, "  sim-only knobs (WithCosts, WithNet, fabric fault rates) stay rejected on rt/dist")
	fmt.Fprintln(out, "\nworkloads (differential catalog; *-deep are -exp run extras sized to show stealing under -trace):")
	for _, wl := range runCatalog() {
		if reason := harness.RTSkipReason(wl.Spec); reason != "" {
			fmt.Fprintf(out, "  %-14s sim-only: %s\n", wl.Name, reason)
		} else {
			fmt.Fprintf(out, "  %-14s sim + rt\n", wl.Name)
		}
	}
	fmt.Fprintln(out, "\nscales: tiny | small | large | bench (bench: rt/dist suites sized to run seconds, for real scaling numbers)")
	fmt.Fprintln(out, "\nscaling knobs (rt/dist bench + scalefloor): -grain <depth>|auto, -batch <n>, -tiergroup <n>")
}

// startProfiles arms the requested pprof outputs and returns the
// function that flushes them. CPU profiling starts immediately;
// allocation and mutex profiles are snapshotted at exit (mutex
// profiling is enabled now so the run is actually sampled).
func startProfiles(cpu, mem, mutex string) func() {
	var cpuFile *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		check(err)
		check(pprof.StartCPUProfile(f))
		cpuFile = f
	}
	if mutex != "" {
		runtime.SetMutexProfileFraction(1)
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			check(cpuFile.Close())
		}
		if mem != "" {
			f, err := os.Create(mem)
			check(err)
			runtime.GC() // materialise the final live-heap picture
			check(pprof.Lookup("allocs").WriteTo(f, 0))
			check(f.Close())
		}
		if mutex != "" {
			f, err := os.Create(mutex)
			check(err)
			check(pprof.Lookup("mutex").WriteTo(f, 0))
			check(f.Close())
		}
	}
}

func check(err error) {
	if err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "uniaddr-bench:", err)
	os.Exit(1)
}
