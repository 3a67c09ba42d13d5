// uniaddr-sim runs a single workload on the simulated uni-address
// cluster with full control over the machine, and prints a complete
// post-mortem: aggregate and per-worker statistics, the steal
// breakdown, memory accounting, and (optionally) an execution-timeline
// Gantt chart.
//
// Examples:
//
//	go run ./cmd/uniaddr-sim -workload btc -depth 16 -workers 60
//	go run ./cmd/uniaddr-sim -workload uts -depth 12 -workers 30 -trace
//	go run ./cmd/uniaddr-sim -workload nqueens -n 10 -scheme iso
//	go run ./cmd/uniaddr-sim -workload fib -n 20 -slots 2 -per-worker
package main

import (
	"flag"
	"fmt"
	"os"

	"uniaddr/internal/core"
	"uniaddr/internal/harness"
	"uniaddr/internal/obs"
	"uniaddr/internal/workloads"
)

func main() {
	workload := flag.String("workload", "btc", "btc | btc2 | uts | uts-binomial | nqueens | fib | pingpong | globalsum | mergesort")
	workers := flag.Int("workers", 30, "worker processes")
	perNode := flag.Int("per-node", 15, "workers per node")
	depth := flag.Uint64("depth", 14, "tree depth (btc, btc2, uts)")
	n := flag.Uint64("n", 10, "problem size (nqueens board, fib argument)")
	work := flag.Uint64("work", 0, "simulated cycles of computation per task/node")
	seed := flag.Uint64("seed", 1, "simulation seed (workload seed for uts)")
	schemeFlag := flag.String("scheme", "uni", "uni | iso")
	victimFlag := flag.String("victim", "random", "random | local-first | last-success")
	slots := flag.Int("slots", 1, "workers per address space (§5.1 ablation)")
	hwFAA := flag.Bool("hw-faa", false, "hardware remote fetch-and-add")
	intraNode := flag.Float64("intra-node", 1.0, "intra-node latency factor (<1 = hierarchical fabric)")
	xeon := flag.Bool("xeon", false, "use the Xeon E5-2660 cost profile")
	helpFirst := flag.Bool("help-first", false, "tied-tasks (help-first) scheduling instead of the paper's work-first")
	lifelines := flag.Bool("lifelines", false, "lifeline-based load balancing instead of pure random stealing")
	slowEvery := flag.Int("slow-every", 0, "make every k-th worker a straggler (0 = off)")
	slowFactor := flag.Float64("slow-factor", 4, "straggler CPU slowdown factor")
	doTrace := flag.Bool("trace", false, "record and print the execution timeline (implies -obs recording)")
	ganttWidth := flag.Int("gantt-width", 100, "timeline width in characters")
	perWorker := flag.Bool("per-worker", false, "print the per-worker table")
	jsonOut := flag.Bool("json", false, "emit a machine-readable JSON report instead of text")
	doObs := flag.Bool("obs", false, "record observability events and print the text summary")
	traceOut := flag.String("trace-out", "", "write Chrome trace-event JSON to this file (implies -obs recording; view in Perfetto)")
	flag.Parse()

	// The export target must be writable before the run, not after.
	var traceFile *os.File
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fail(fmt.Errorf("-trace-out: %w", err))
		}
		traceFile = f
	}

	var spec workloads.Spec
	switch *workload {
	case "btc":
		spec = workloads.BTC(*depth, 1, *work)
	case "btc2":
		spec = workloads.BTC(*depth, 2, *work)
	case "uts":
		spec = workloads.UTS(*seed, *depth, workloads.DefaultUTSB0, *work)
	case "nqueens":
		spec = workloads.NQueens(*n, *work)
	case "fib":
		spec = workloads.Fib(*n, *work)
	case "pingpong":
		spec = workloads.PingPong(200, 120_000, workloads.PingPongStackBytes)
	case "globalsum":
		spec = workloads.GlobalSum(*n*1000, 64, *workers)
	case "mergesort":
		spec = workloads.MergeSort(*n*1000, 64, *workers)
	case "uts-binomial":
		spec = workloads.UTSBinomial(*seed, 256, 4, 0.22, *work)
	default:
		fail(fmt.Errorf("unknown workload %q", *workload))
	}

	cfg := core.DefaultConfig(*workers)
	cfg.WorkersPerNode = *perNode
	cfg.Seed = *seed
	cfg.SlotsPerProcess = *slots
	cfg.Net.HardwareFAA = *hwFAA
	cfg.Net.IntraNodeFactor = *intraNode
	cfg.HelpFirst = *helpFirst
	cfg.Lifelines = *lifelines
	cfg.SlowWorkerEvery = *slowEvery
	cfg.SlowWorkerFactor = *slowFactor
	cfg.Obs = *doTrace || *doObs || traceFile != nil
	if *xeon {
		cfg.Costs = core.XeonCosts()
	}
	switch *schemeFlag {
	case "uni":
	case "iso":
		cfg.Scheme = core.SchemeIso
	default:
		fail(fmt.Errorf("unknown scheme %q", *schemeFlag))
	}
	switch *victimFlag {
	case "random":
	case "local-first":
		cfg.Victim = core.VictimLocalFirst
	case "last-success":
		cfg.Victim = core.VictimLastSuccess
	default:
		fail(fmt.Errorf("unknown victim policy %q", *victimFlag))
	}

	m, res, err := spec.Run(cfg)
	if err != nil {
		fail(err)
	}
	funcName := func(id uint32) string { return core.FuncName(core.FuncID(id)) }
	ex := m.Obs().Export()
	if traceFile != nil {
		opts := &obs.ChromeOpts{FuncName: funcName, Label: spec.Name}
		if err := obs.WriteChromeTrace(traceFile, ex, opts); err != nil {
			fail(fmt.Errorf("-trace-out: %w", err))
		}
		if err := traceFile.Close(); err != nil {
			fail(fmt.Errorf("-trace-out: %w", err))
		}
	}
	status := "validated against sequential reference"
	if res != spec.Expected {
		status = fmt.Sprintf("VALIDATION FAILED (got %d, want %d)", res, spec.Expected)
	}
	if *jsonOut {
		if err := harness.WriteJSONReport(os.Stdout, harness.BuildRunReport(m, ex, spec.Items(res))); err != nil {
			fail(err)
		}
		if res != spec.Expected {
			os.Exit(1)
		}
		return
	}
	fmt.Printf("%s: result %d — %s\n", spec.Name, res, status)
	harness.ReportRun(os.Stdout, m, ex, spec.Items(res))
	if *perWorker {
		fmt.Println()
		harness.ReportWorkers(os.Stdout, m)
	}
	if *doTrace {
		fmt.Println()
		obs.WriteGantt(os.Stdout, ex, *ganttWidth)
	}
	if *doObs {
		fmt.Println()
		obs.WriteSummary(os.Stdout, ex, funcName)
	}
	if *traceOut != "" {
		fmt.Printf("(Chrome trace written to %s — open in https://ui.perfetto.dev)\n", *traceOut)
	}
	if res != spec.Expected {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "uniaddr-sim:", err)
	os.Exit(1)
}
