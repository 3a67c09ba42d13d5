// uniaddr-bench regenerates the paper's tables and figures on the
// simulated cluster and runs the gates of the real backends — rt
// (goroutines in one process) and dist (one OS process per worker over
// shared memory): the sim-vs-backend differential matrix, the chaos
// matrix and the scaling floor. Wall-clock measurement of the real
// backends is not done here; `bash benchmark/run.sh` is the benchmark of
// record.
//
// Usage:
//
//	go run ./cmd/uniaddr-bench -list
//	go run ./cmd/uniaddr-bench -exp all
//	go run ./cmd/uniaddr-bench -exp fig11a -scale large -workers 480,960,1920,3840
//	go run ./cmd/uniaddr-bench -backend rt -exp diff
//	go run ./cmd/uniaddr-bench -backend dist -exp diff
//	go run ./cmd/uniaddr-bench -backend rt -exp run -workload fib-deep -trace t.json
//
// Every experiment is one row of the table below (see experiments);
// -list prints it. The dist backend re-execs this binary for its worker
// processes; main routes those through dist.MaybeChild.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"

	"uniaddr"
	"uniaddr/internal/core"
	"uniaddr/internal/dist"
	"uniaddr/internal/harness"
	"uniaddr/internal/rdma"
	"uniaddr/internal/workloads"
)

const sim, rt, distB = uniaddr.BackendSim, uniaddr.BackendRT, uniaddr.BackendDist

// backends are the -backend values, in -list order.
var backends = []struct{ name, help string }{
	{sim, "deterministic virtual-time simulator (the semantic oracle)"},
	{rt, "real goroutines on real cores, wall-clock time"},
	{distB, "one OS process per worker over a shared-memory segment"},
}

// experiment is one row of the dispatch table: the only place an
// experiment's name, its backends and what it runs are written down.
type experiment struct {
	name     string
	backends []string
	help     string
	// inAll marks the paper's figures, tables and ablations: what -exp
	// all runs, in table order. Gates (chaos, diff, …) stay opt-in.
	inAll bool
	run   func(*ctx) error
}

// ctx is what a row's run function sees: the parsed flags, the row
// being run and where to print.
type ctx struct {
	out io.Writer
	exp experiment

	backend, scale, workers, workload       string
	csvDir, chaosRates, chaosJSON, traceOut string
	seed                                    uint64
	reps, table4Workers, chaosWorkers       int
	short, obs, jsonOut                     bool
	// tune carries -grain/-batch/-tiergroup as facade options.
	tune []uniaddr.Option
}

// experiments is the table. Order matters three ways: -exp all runs the
// inAll rows in this order, -list prints rows in this order, and a
// backend's default experiment (no -exp) is its first row. A name may
// repeat only across rows whose backends are disjoint. Filled by init
// because the "all" row walks the table it sits in.
var experiments []experiment

func init() {
	fig := func(name, help string, run func(*ctx) error) experiment {
		return experiment{name, []string{sim}, help, true, run}
	}
	experiments = []experiment{
		{"all", []string{sim}, "every figure, table and ablation below, in this order (not the gates)", false, runAll},
		fig("fig9", "Fig. 9: RDMA READ/WRITE latency vs message size", func(c *ctx) error {
			pts, err := harness.Fig9(rdma.DefaultParams(), core.SPARCCosts().ClockHz, nil)
			return c.show(err, func() { harness.PrintFig9(c.out, pts) }, func() error { return harness.WriteFig9CSV(c.csvDir, pts) })
		}),
		fig("table2", "Table 2: thread creation overhead in cycles, SPARC and Xeon profiles", func(c *ctx) error {
			rows, err := harness.Table2(5000)
			return c.show(err, func() { harness.PrintTable2(c.out, rows) }, func() error { return harness.WriteTable2CSV(c.csvDir, rows) })
		}),
		fig("fig10", "Fig. 10 / Table 3: one steal split into its phases", func(c *ctx) error {
			bd, err := harness.Fig10(core.SchemeUni, 500)
			return c.show(err, func() { harness.PrintFig10(c.out, bd) }, func() error { return harness.WriteFig10CSV(c.csvDir, "fig10", bd) })
		}),
		fig("iso-vs-uni", "the same steal under the iso-address baseline, and the ratio", func(c *ctx) error {
			uni, iso, ratio, err := harness.IsoVsUni(13)
			return c.show(err, func() {
				harness.PrintFig10(c.out, uni)
				harness.PrintFig10(c.out, iso)
				harness.PrintIsoVsUni(c.out, uni, iso, ratio)
			}, nil)
		}),
		fig("table4", "Table 4: benchmark footprints and stack usage (-table4-workers)", func(c *ctx) error {
			rows, err := harness.Table4(c.table4Workers, c.scale, c.seed)
			return c.show(err, func() { harness.PrintTable4(c.out, c.table4Workers, rows) }, func() error { return harness.WriteTable4CSV(c.csvDir, rows) })
		}),
		fig("fig11a", "Fig. 11a: BTC iter=1 throughput and efficiency vs -workers", fig11),
		fig("fig11b", "Fig. 11b: BTC iter=2", fig11),
		fig("fig11c", "Fig. 11c: UTS", fig11),
		fig("fig11d", "Fig. 11d: NQueens", fig11),
		fig("trend", "efficiency vs problem size at a fixed worker ratio", func(c *ctx) error {
			pts, err := harness.EfficiencyTrend([]uint64{16, 18, 20, 22}, 15, 8, c.seed)
			return c.show(err, func() { harness.PrintTrend(c.out, 15, 8, pts) }, nil)
		}),
		fig("sec4", "§4/§5: virtual address space reserved, iso- vs uni-address", func(c *ctx) error {
			pts, err := harness.Sec4Measured([]int{8, 16, 32, 64}, c.seed)
			return c.show(err, func() { harness.PrintSec4(c.out, harness.Sec4Paper(), pts) }, nil)
		}),
		fig("ablate-faa", "ablation: software vs hardware remote fetch-and-add", func(c *ctx) error {
			pts, err := harness.AblateFAA([]int{15, 30, 60, 120}, c.seed)
			return c.show(err, func() { harness.PrintAblateFAA(c.out, pts) }, nil)
		}),
		fig("ablate-stacksize", "ablation: steal cost vs stolen stack size", func(c *ctx) error {
			pts, err := harness.AblateStackSize(nil, 200)
			return c.show(err, func() { harness.PrintAblateStackSize(c.out, pts) }, nil)
		}),
		fig("ablate-nodes", "ablation: workers sharing one comm server", func(c *ctx) error {
			pts, err := harness.AblateWorkersPerNode(60, []int{1, 5, 15, 30}, c.seed)
			return c.show(err, func() { harness.PrintAblateWorkersPerNode(c.out, 60, pts) }, nil)
		}),
		fig("ablate-victim", "ablation: victim selection policy", func(c *ctx) error {
			pts, err := harness.AblateVictim(30, 0.3, c.seed)
			return c.show(err, func() { harness.PrintAblateVictim(c.out, 30, 0.3, pts) }, nil)
		}),
		fig("ablate-multiworker", "ablation (§5.1): workers per address space", func(c *ctx) error {
			pts, err := harness.AblateMultiWorker(24, []int{1, 2, 4}, c.seed)
			return c.show(err, func() { harness.PrintAblateMultiWorker(c.out, 24, pts) }, nil)
		}),
		fig("ablate-helpfirst", "ablation (§2): work-first vs help-first scheduling", func(c *ctx) error {
			pts, err := harness.AblateHelpFirst(30, c.seed)
			return c.show(err, func() { harness.PrintAblateHelpFirst(c.out, 30, pts) }, nil)
		}),
		fig("ablate-straggler", "ablation: absorbing a slow worker", func(c *ctx) error {
			pts, err := harness.AblateStraggler(30, c.seed)
			return c.show(err, func() { harness.PrintAblateStraggler(c.out, 30, pts) }, nil)
		}),
		fig("ablate-lifelines", "ablation: random one-sided stealing vs lifeline push", func(c *ctx) error {
			pts, err := harness.AblateLifelines(30, c.seed)
			return c.show(err, func() { harness.PrintAblateLifelines(c.out, 30, pts) }, nil)
		}),
		{"chaos", []string{sim}, "fabric-fault sweep (-chaos-rates): oracle result, quiescence and bit-identical replay at every point", false, simChaos},

		{"diff", []string{rt}, "sim-vs-rt differential matrix (root results must agree)", false, func(c *ctx) error {
			return diff(c, harness.RTChaosBackend(), []int{1, 2, 4, 8})
		}},
		{"chaos", []string{rt}, "steal-fault matrix: injected claim/copy failures + delays under real threads", false, func(c *ctx) error {
			return chaosMatrix(c, harness.RTChaosBackend(), harness.RTChaosSchedules(), c.chaosWorkers)
		}},
		{"scalefloor", []string{rt}, "seconds-scale workloads at 1 vs 8 workers; fails under a 4x speedup floor (skips on <8 CPUs)", false, scaleFloor},

		{"diff", []string{distB}, "sim-vs-dist differential matrix + SIGKILL crash probe", false, func(c *ctx) error {
			if err := diff(c, harness.DistChaosBackend(), []int{2, 4}); err != nil {
				return err
			}
			fmt.Fprintln(c.out, "crash probe: SIGKILL a worker process mid-run...")
			if err := harness.DistCrashProbe(3, c.seed); err != nil {
				return err
			}
			fmt.Fprintln(c.out, "crash probe: structured WorkerCrashError reported, no hang")
			return nil
		}},
		{"chaos", []string{distB}, "full fault matrix: steal + control-plane faults, SIGKILLs, hung-worker heartbeat cell (-short drops the kill/hang cells)", false, func(c *ctx) error {
			schedules := harness.DistChaosSchedules()
			if c.short {
				// The Long (kill/hang) schedules pay a multi-second
				// injected-failure run each.
				schedules = slices.DeleteFunc(schedules, func(s harness.ChaosSchedule) bool { return s.Long })
			}
			return chaosMatrix(c, harness.DistChaosBackend(), schedules, min(c.chaosWorkers, 4))
		}},

		{"run", []string{sim, rt, distB}, "one -workload via the public uniaddr.Run facade; -json emits the unified Report, -trace/-obs observe it", false, runFacade},
	}
}

// rowsFor returns the table rows of one backend, in table order.
func rowsFor(backend string) []experiment {
	var rows []experiment
	for _, e := range experiments {
		if slices.Contains(e.backends, backend) {
			rows = append(rows, e)
		}
	}
	return rows
}

// lookup resolves -backend/-exp against the table; an empty name picks
// the backend's first row.
func lookup(backend, name string) (experiment, error) {
	rows := rowsFor(backend)
	if len(rows) == 0 {
		return experiment{}, fmt.Errorf("unknown backend %q; -list shows what exists", backend)
	}
	if name == "" {
		return rows[0], nil
	}
	var names []string
	for _, e := range rows {
		if e.name == name {
			return e, nil
		}
		names = append(names, e.name)
	}
	return experiment{}, fmt.Errorf("unknown experiment %q for the %s backend (it has: %s)", name, backend, strings.Join(names, ", "))
}

func main() {
	// MUST run before anything else: when this binary was re-exec'd as a
	// dist worker process, MaybeChild takes over and never returns.
	dist.MaybeChild()
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "uniaddr-bench:", err)
		}
		os.Exit(1)
	}
}

// run is the whole CLI behind main: parse args, resolve the experiment
// from the table, run it with stdout on out.
func run(args []string, out io.Writer) (err error) {
	c := &ctx{out: out}
	fs := flag.NewFlagSet("uniaddr-bench", flag.ContinueOnError)
	fs.StringVar(&c.backend, "backend", sim, "execution backend: sim (virtual-time simulator) | rt (real goroutines) | dist (one OS process per worker)")
	exp := fs.String("exp", "", "experiment to run (default: the backend's first row in -list)")
	fs.StringVar(&c.scale, "scale", "small", "problem scale of the sim experiments and the chaos workloads: tiny | small | large")
	fs.Uint64Var(&c.seed, "seed", 1, "base seed")
	fs.IntVar(&c.reps, "reps", 3, "repetitions per Fig. 11 / scalefloor point")
	fs.StringVar(&c.workers, "workers", "", "comma-separated worker counts for fig11/diff, first entry for run (defaults: fig11 60,120,240,480; rt diff 1,2,4,8; dist diff 2,4; run 4)")
	fs.IntVar(&c.table4Workers, "table4-workers", 60, "worker count for table4")
	fs.StringVar(&c.csvDir, "csv", "", "also write data series as CSV files into this directory")
	fs.IntVar(&c.chaosWorkers, "chaos-workers", 8, "worker count for the chaos sweep/matrix")
	fs.StringVar(&c.chaosRates, "chaos-rates", "", "comma-separated fault rates for sim chaos (default 0,0.001,0.01,0.05)")
	fs.StringVar(&c.chaosJSON, "chaos-json", "", "write the chaos verdicts as JSON to this path (-exp chaos, any backend)")
	fs.BoolVar(&c.short, "short", false, "shrink long experiments (dist chaos: drop the minutes-long kill/hang cells)")
	fs.StringVar(&c.traceOut, "trace", "", "write Chrome trace-event JSON to this file (-exp run|chaos, any backend; view in Perfetto). The trace's clockDomain field names the timestamp domain: virtual cycles on sim, wall ns on rt/dist")
	fs.BoolVar(&c.obs, "obs", false, "print an observability digest of the run (-exp run|chaos, any backend)")
	checkTrace := fs.String("check-trace", "", "validate a Chrome trace file produced by -trace (parses, has clock-domain metadata and steal events), then exit")
	fs.StringVar(&c.workload, "workload", "fib", "workload for -exp run (see -list)")
	fs.BoolVar(&c.jsonOut, "json", false, "emit the unified uniaddr.Report as JSON (-exp run, any backend)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file (view with go tool pprof)")
	memProfile := fs.String("memprofile", "", "write an allocation profile at exit to this file")
	mutexProfile := fs.String("mutexprofile", "", "write a mutex-contention profile at exit to this file")
	grain := fs.String("grain", "", "sequential cutoff (-exp run|scalefloor): a depth, or \"auto\" for demand-adaptive inlining (default: off)")
	stealBatch := fs.Uint("batch", 0, "steal-batch override on rt/dist (-exp run|scalefloor): 1 forces single-entry steals, n>1 caps the per-round-trip claim (default 0: deque-sized steal-half)")
	tierGroup := fs.Uint("tiergroup", 0, "workers per locality block for tiered victim selection on rt/dist (-exp run|scalefloor; default 0: backend default)")
	list := fs.Bool("list", false, "list available experiments, workloads and backends, then exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		printList(out)
		return nil
	}
	if *checkTrace != "" {
		info, err := harness.CheckTrace(*checkTrace)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "trace %s OK: %d events (%d steal-related), clock domain %q\n",
			*checkTrace, info.Events, info.StealEvents, info.Clock)
		return nil
	}
	if c.tune, err = tuning(*grain, *stealBatch, *tierGroup); err != nil {
		return err
	}
	if !slices.Contains([]string{"tiny", "small", "large"}, c.scale) {
		return fmt.Errorf("unknown scale %q (tiny | small | large)", c.scale)
	}
	if c.exp, err = lookup(c.backend, *exp); err != nil {
		return err
	}
	// CPU profiling covers the run; the allocation and mutex profiles are
	// snapshotted once it has returned.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *mutexProfile != "" {
		runtime.SetMutexProfileFraction(1)
		defer func() { err = errors.Join(err, writeProfile("mutex", *mutexProfile)) }()
	}
	if *memProfile != "" {
		defer func() {
			runtime.GC() // materialise the final live-heap picture
			err = errors.Join(err, writeProfile("allocs", *memProfile))
		}()
	}
	if c.exp.inAll {
		return c.figures([]experiment{c.exp}, false)
	}
	return c.exp.run(c)
}

// figures runs paper figures back to back. They are sweeps with no
// single run to observe, so -trace/-obs are refused, and a bad -csv
// directory must fail now, not after a long sweep.
func (c *ctx) figures(rows []experiment, headers bool) error {
	if c.traceOut != "" || c.obs {
		return errors.New("-trace and -obs on the sim backend are only supported with -exp run or -exp chaos, not the figure experiments")
	}
	if c.csvDir != "" {
		if err := harness.EnsureWritableDir(c.csvDir); err != nil {
			return fmt.Errorf("-csv: %w", err)
		}
	}
	for _, e := range rows {
		if headers {
			fmt.Fprintf(c.out, "==== %s ====\n", e.name)
		}
		c.exp = e
		if err := e.run(c); err != nil {
			return err
		}
		fmt.Fprintln(c.out)
	}
	harness.FprintCSVNote(c.out, c.csvDir)
	return nil
}

// runAll is -exp all: every inAll row of the table, in table order.
func runAll(c *ctx) error {
	return c.figures(slices.DeleteFunc(rowsFor(c.backend), func(e experiment) bool { return !e.inAll }), true)
}

// show is the tail of a figure row: give up if computing the series
// failed, print it, and with -csv write its data files (csv is nil for
// a figure that has none; figures made the directory).
func (c *ctx) show(err error, print func(), csv func() error) error {
	if err != nil {
		return err
	}
	print()
	if csv == nil || c.csvDir == "" {
		return nil
	}
	return csv()
}

// fig11 runs the sub-figure named by the row it was dispatched from.
func fig11(c *ctx) error {
	workers, err := parseWorkers(c.workers, harness.DefaultWorkerCounts)
	if err != nil {
		return err
	}
	var curves []harness.Fig11Curve
	for _, e := range harness.Fig11Benchmarks(c.scale)[c.exp.name] {
		pts, err := harness.ScalingSweep(e.Spec, workers, c.reps, c.seed, nil)
		if err != nil {
			return err
		}
		curves = append(curves, harness.Fig11Curve{Label: e.Label, Points: pts})
	}
	return c.show(nil, func() { harness.PrintFig11(c.out, c.exp.name, curves, core.SPARCCosts().ClockHz) },
		func() error { return harness.WriteFig11CSV(c.csvDir, c.exp.name, curves) })
}

// openTrace creates the -trace file; nil without the flag.
func (c *ctx) openTrace() (*os.File, error) {
	if c.traceOut == "" {
		return nil, nil
	}
	f, err := os.Create(c.traceOut)
	if err != nil {
		return nil, fmt.Errorf("-trace: %w", err)
	}
	return f, nil
}

// closeTrace finishes what openTrace returned and says where it went.
func (c *ctx) closeTrace(f *os.File) error {
	if f == nil {
		return nil
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(c.out, "(Chrome trace written to %s — open in https://ui.perfetto.dev)\n", c.traceOut)
	return nil
}

// simChaos is the virtual-time robustness gate: ChaosSweepObserved
// errors out on the first point that misses the oracle result, fails
// quiescence or replays differently.
func simChaos(c *ctx) error {
	var rates []float64
	if c.chaosRates != "" {
		for _, s := range strings.Split(c.chaosRates, ",") {
			r, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil || r < 0 || r >= 1 {
				return fmt.Errorf("bad -chaos-rates entry %q", s)
			}
			rates = append(rates, r)
		}
	}
	traceFile, err := c.openTrace()
	if err != nil {
		return err
	}
	obsv := &harness.ChaosObserve{}
	if traceFile != nil {
		defer traceFile.Close()
		obsv.Trace = traceFile
	}
	if c.obs {
		obsv.Summary = c.out
	}
	pts, err := harness.ChaosSweepObserved(c.chaosWorkers, harness.ChaosWorkloads(c.scale), rates, c.seed, obsv)
	if err != nil {
		return err
	}
	harness.PrintChaos(c.out, c.chaosWorkers, pts)
	if err := c.writeChaosJSON(pts, "points"); err != nil {
		return err
	}
	err = c.closeTrace(traceFile)
	fmt.Fprintln(c.out)
	return err
}

// chaosMatrix executes the backend-generalised chaos matrix (-exp chaos
// on rt/dist): every (schedule × workload × seed) cell must end, within
// its deadline, in the oracle result or a structured typed error. Any
// failed cell is an error — this is a gate, not a figure. With -trace
// or -obs it then observes ONE representative run through the facade on
// traceWorkers workers with the steal-fault knobs set, so the trace
// shows the resilient-steal retry/backoff/blacklist ladder (the matrix
// cells themselves stay unobserved).
func chaosMatrix(c *ctx, b harness.ChaosBackend, schedules []harness.ChaosSchedule, traceWorkers int) error {
	seeds := []uint64{c.seed, c.seed + 1, c.seed + 2}
	cells, failed := harness.RunChaosMatrix(b, c.chaosWorkers, seeds, schedules, c.scale)
	harness.PrintChaosMatrix(c.out, cells, failed)
	if err := c.writeChaosJSON(cells, "verdicts"); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("chaos matrix on %s: %d cells failed", b.Name, failed)
	}
	if c.traceOut == "" && !c.obs {
		return nil
	}
	fmt.Fprintf(c.out, "\ntracing one representative %s run (fib, %d workers, faults=true)...\n", c.backend, traceWorkers)
	faults := uniaddr.WithFault(uniaddr.FaultConfig{Seed: c.seed, StealClaimFailProb: 0.05, StealCopyFailProb: 0.02})
	return c.facadeRun(workloads.Fib(24, 500), traceWorkers, c.digest, faults)
}

// writeChaosJSON writes v (the chaos what) as indented JSON to the
// -chaos-json path, if one was given.
func (c *ctx) writeChaosJSON(v any, what string) error {
	if c.chaosJSON == "" {
		return nil
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err == nil {
		err = os.WriteFile(c.chaosJSON, append(b, '\n'), 0o644)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(c.out, "(chaos %s written to %s)\n", what, c.chaosJSON)
	return nil
}

// diff runs the sim-vs-b differential matrix over three seeds and
// errors on any mismatch.
func diff(c *ctx, b harness.ChaosBackend, defWorkers []int) error {
	workers, err := parseWorkers(c.workers, defWorkers)
	if err != nil {
		return err
	}
	seeds := []uint64{c.seed, c.seed + 1, c.seed + 2}
	rep, err := harness.RunDifferentialBackend(b, harness.DiffWorkloads(), workers, seeds)
	if err != nil {
		return err
	}
	for _, row := range rep.Rows {
		switch {
		case row.Skipped:
			fmt.Fprintf(c.out, "SKIP  %-14s %s\n", row.Workload, row.SkipReason)
		case row.Match:
			fmt.Fprintf(c.out, "OK    %-14s workers=%-3d seed=%-3d result=%d\n", row.Workload, row.Workers, row.Seed, row.GotResult)
		default:
			fmt.Fprintf(c.out, "FAIL  %-14s workers=%-3d seed=%-3d sim=%d %s=%d\n", row.Workload, row.Workers, row.Seed, row.SimResult, rep.Backend, row.GotResult)
		}
	}
	fmt.Fprintf(c.out, "%d compared, %d mismatches, %d skipped\n", rep.Compared, rep.Mismatches, rep.Skipped)
	if rep.Mismatches > 0 {
		return fmt.Errorf("differential matrix found %d sim-vs-%s mismatches", rep.Mismatches, rep.Backend)
	}
	return nil
}

// runFacade executes one catalog workload through the public
// backend-neutral facade (uniaddr.Run) and prints the unified
// uniaddr.Report — as JSON with -json, human-readable otherwise.
func runFacade(c *ctx) error {
	catalog := runCatalog()
	i := slices.IndexFunc(catalog, func(wl harness.DiffWorkload) bool { return wl.Name == c.workload })
	if i < 0 {
		return fmt.Errorf("unknown workload %q for -exp %s; -list shows the catalog", c.workload, c.exp.name)
	}
	spec := catalog[i].Spec
	if spec.Setup != nil {
		return fmt.Errorf("workload %q needs machine staging, which the facade Run does not cover; use the sim experiments", c.workload)
	}
	workers, err := parseWorkers(c.workers, []int{4})
	if err != nil {
		return err
	}
	return c.facadeRun(spec, workers[0], func(rep uniaddr.Report) error {
		if c.jsonOut {
			enc := json.NewEncoder(c.out)
			enc.SetIndent("", "  ")
			return enc.Encode(rep)
		}
		fmt.Fprintf(c.out, "%s on %s: result=%d workers=%d tasks=%d steals=%d/%d bytes-stolen=%d\n",
			c.workload, rep.Backend, rep.Root, rep.Workers, rep.Tasks,
			rep.StealsOK, rep.StealAttempts, rep.BytesStolen)
		if rep.Backend == sim {
			fmt.Fprintf(c.out, "virtual time: %d cycles (%.6f s)\n", rep.VirtualCycles, rep.VirtualSeconds)
		} else {
			fmt.Fprintf(c.out, "wall time: %.3f ms\n", float64(rep.WallNS)/1e6)
		}
		return c.digest(rep)
	})
}

// facadeRun is one uniaddr.Run of spec on the selected backend with the
// tuning flags and -trace/-obs applied — the one observed path every
// backend shares. The result is checked against the spec's oracle and
// handed to report; the trace file is closed and announced after it.
func (c *ctx) facadeRun(spec workloads.Spec, workers int, report func(uniaddr.Report) error, extra ...uniaddr.Option) error {
	opts := []uniaddr.Option{uniaddr.WithBackend(c.backend), uniaddr.WithWorkers(workers), uniaddr.WithSeed(c.seed), uniaddr.WithObs(c.obs)}
	opts = append(append(opts, c.tune...), extra...)
	traceFile, err := c.openTrace()
	if err != nil {
		return err
	}
	if traceFile != nil {
		defer traceFile.Close()
		opts = append(opts, uniaddr.WithTrace(traceFile))
	}
	rep, err := uniaddr.Run(spec.Fid, spec.Locals, spec.Init, opts...)
	if err != nil {
		return err
	}
	if spec.Expected != 0 && rep.Root != spec.Expected {
		return fmt.Errorf("%s on %s: result %d, want %d", spec.Name, c.backend, rep.Root, spec.Expected)
	}
	if err := report(rep); err != nil {
		return err
	}
	return c.closeTrace(traceFile)
}

// digest renders the Report's observability block under -obs.
func (c *ctx) digest(rep uniaddr.Report) error {
	o := rep.Obs
	switch {
	case !c.obs:
		return nil
	case o == nil:
		fmt.Fprintln(c.out, "obs: no data recorded")
		return nil
	}
	fmt.Fprintf(c.out, "obs: %d events recorded (%s)", o.Events, o.Clock)
	if o.Dropped > 0 {
		fmt.Fprintf(c.out, ", %d dropped by full rings", o.Dropped)
	}
	fmt.Fprintln(c.out)
	if len(o.DroppedPerWorker) > 0 {
		fmt.Fprintf(c.out, "  dropped per worker:")
		for rank, d := range o.DroppedPerWorker {
			if d > 0 {
				fmt.Fprintf(c.out, " w%d:%d", rank, d)
			}
		}
		fmt.Fprintln(c.out)
	}
	for _, h := range o.Hists {
		fmt.Fprintf(c.out, "  %-18s count=%-8d mean=%-10.1f p50=%-8d p95=%-8d p99=%-8d max=%d\n",
			h.Name, h.Count, h.Mean, h.P50, h.P95, h.P99, h.Max)
	}
	return nil
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

// tuning turns the scheduler knobs into facade options; an unset flag
// adds none, so backend defaults (steal-half batching, no grain cutoff,
// default tier width) stand. -grain accepts a plain depth or "auto"
// (demand-adaptive: inline only while the local deque is deep enough
// that no thief is starved).
func tuning(grain string, batch, tierGroup uint) ([]uniaddr.Option, error) {
	var opts []uniaddr.Option
	switch grain {
	case "":
	case "auto":
		opts = append(opts, uniaddr.WithGrain(uniaddr.GrainAuto))
	default:
		g, err := strconv.ParseUint(grain, 10, 64)
		if err != nil || g == 0 {
			return nil, fmt.Errorf("bad -grain %q: want a positive depth or \"auto\"", grain)
		}
		opts = append(opts, uniaddr.WithGrain(g))
	}
	if batch > 0 {
		opts = append(opts, uniaddr.WithStealBatch(int(batch)))
	}
	if tierGroup > 0 {
		opts = append(opts, uniaddr.WithTierGroup(int(tierGroup)))
	}
	return opts, nil
}

func parseWorkers(flagValue string, def []int) ([]int, error) {
	if flagValue == "" {
		return def, nil
	}
	var workers []int
	for _, s := range strings.Split(flagValue, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -workers entry %q", s)
		}
		workers = append(workers, n)
	}
	return workers, nil
}

// printList prints the table: every -backend, and per backend every
// -exp it accepts, then the -exp run workload catalog.
func printList(out io.Writer) {
	fmt.Fprintln(out, "backends:")
	for _, b := range backends {
		fmt.Fprintf(out, "  %-5s %s\n", b.name, b.help)
	}
	for _, b := range backends {
		rows := rowsFor(b.name)
		fmt.Fprintf(out, "\nexperiments (-backend %s; default %s):\n", b.name, rows[0].name)
		for _, e := range rows {
			fmt.Fprintf(out, "  %-18s %s\n", e.name, e.help)
		}
	}
	fmt.Fprintln(out, "\nworkloads (-exp run; the differential catalog, *-deep are sized to show stealing under -trace):")
	for _, wl := range runCatalog() {
		if reason := harness.SkipReason("rt", wl.Spec); reason != "" {
			fmt.Fprintf(out, "  %-14s sim-only: %s\n", wl.Name, reason)
		} else {
			fmt.Fprintf(out, "  %-14s sim + rt + dist\n", wl.Name)
		}
	}
	fmt.Fprintln(out, "\nscales: tiny | small | large")
	fmt.Fprintln(out, "scheduler knobs (-exp run|scalefloor): -grain <depth>|auto, -batch <n>, -tiergroup <n>")
	fmt.Fprintln(out, "observability (-exp run|chaos): -obs digest, -trace Chrome/Perfetto trace (virtual cycles on sim, wall ns on rt/dist), -check-trace validates one")
}

// writeProfile snapshots one runtime/pprof profile into path.
func writeProfile(profile, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(pprof.Lookup(profile).WriteTo(f, 0), f.Close())
}
