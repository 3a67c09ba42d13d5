package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"text/tabwriter"

	"uniaddr/internal/rt"
	"uniaddr/internal/workloads"
)

// The rt benchmark: wall-clock throughput of the real-parallelism
// backend across worker counts — the Fig. 11 sweep measured on actual
// cores instead of virtual time. Rows land in BENCH_rt.json so the
// repo's performance trajectory accumulates from real numbers.

// RTBenchRow is one (workload, workers) measurement. WallNS is the
// best of Reps runs (min wall time: the least-disturbed measurement);
// MeanWallNS averages all reps — scheduling noise and idle-worker
// interference show up here long before they move the minimum.
type RTBenchRow struct {
	Workload    string  `json:"workload"`
	Workers     int     `json:"workers"`
	Reps        int     `json:"reps"`
	WallNS      int64   `json:"wall_ns"`
	MeanWallNS  int64   `json:"wall_ns_mean,omitempty"`
	Result      uint64  `json:"result"`
	Tasks       uint64  `json:"tasks_executed"`
	TasksPerSec float64 `json:"tasks_per_second"`
	// Items / ItemsPerSec are present only when the workload defines an
	// items extractor (nodes for UTS, tasks for BTC, …, per Fig. 11).
	Items       uint64  `json:"items,omitempty"`
	ItemsPerSec float64 `json:"items_per_second,omitempty"`
	StealsOK    uint64  `json:"steals_ok"`
	// StealBatches counts successful steal round trips; StealsOK counts
	// the entries they moved (mean batch width = StealsOK/StealBatches).
	StealBatches uint64 `json:"steal_batches,omitempty"`
	BytesStolen  uint64 `json:"bytes_stolen"`
	Suspends     uint64 `json:"suspends"`
	// Steal-churn counters: how many probes the thieves burned, and how
	// they failed. These are the regression targets for the steal-hint
	// work — a hint-guided thief should convert more attempts into
	// StealsOK and fewer into AbortEmpty.
	StealAttempts   uint64 `json:"steal_attempts"`
	StealAbortEmpty uint64 `json:"steal_abort_empty"`
	StealAbortLock  uint64 `json:"steal_abort_lock"`
	// Parks counts idle-parking episodes (0 on runtimes without a
	// parking lot, e.g. the committed pre-optimization baseline).
	Parks uint64 `json:"parks,omitempty"`
	// Underprovisioned flags a row measured with more workers than the
	// host has CPUs: the workers time-slice one another, so the row says
	// NOTHING about scaling — absolute throughput and speedup ratios
	// from such rows must not be compared against provisioned hosts.
	// See EXPERIMENTS.md.
	Underprovisioned bool   `json:"underprovisioned,omitempty"`
	Note             string `json:"note,omitempty"`
}

// BenchTuning carries the ISSUE-9 scheduler knobs a bench run applies
// to every backend config. The zero value keeps backend defaults
// (steal-half batching on, flat grain off, default tier width).
type BenchTuning struct {
	Grain      uint64 `json:"grain,omitempty"`
	StealBatch int    `json:"steal_batch,omitempty"`
	TierGroup  int    `json:"tier_group,omitempty"`
}

// warnUnderprovisioned emits the bench-environment blind-spot warning
// once per (benchmark, workers) and reports whether the host is
// underprovisioned for the requested worker count.
func warnUnderprovisioned(benchmark string, workers int, warned map[int]bool) bool {
	if runtime.NumCPU() >= workers {
		return false
	}
	if !warned[workers] {
		warned[workers] = true
		fmt.Fprintf(os.Stderr,
			"%s: WARNING: %d workers on %d CPUs — rows tagged underprovisioned; speedups are not meaningful on this host\n",
			benchmark, workers, runtime.NumCPU())
	}
	return true
}

// RTBenchSkip records a workload the rt backend could not run, and why
// — skipped rows are part of the report, never silently dropped.
type RTBenchSkip struct {
	Workload string `json:"workload"`
	Reason   string `json:"reason"`
}

// RTBenchReport is the schema of BENCH_rt.json.
type RTBenchReport struct {
	Benchmark  string `json:"benchmark"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	// Host provenance: toolchain and platform the numbers were measured
	// on. Empty on reports predating these fields.
	GoVersion string `json:"go_version,omitempty"`
	GOOS      string `json:"goos,omitempty"`
	GOARCH    string `json:"goarch,omitempty"`
	Seed      uint64 `json:"seed"`
	// Tuning records the scheduler knobs the sweep ran with, so two
	// BENCH files are only comparable when their tunings agree.
	Tuning BenchTuning `json:"tuning"`
	// Note is free-form provenance for committed artifacts (host
	// regime, regeneration caveats); the harness never sets it.
	Note    string        `json:"note,omitempty"`
	Rows    []RTBenchRow  `json:"rows"`
	Skipped []RTBenchSkip `json:"skipped,omitempty"`
}

// RunRTBench measures every runnable workload at every worker count,
// reps times each, keeping the fastest run. Workloads rt cannot execute
// (and workloads with a nil root-task Init producing no work) are
// reported in Skipped with a reason. tune applies the ISSUE-9 scheduler
// knobs to every run; rows measured with more workers than CPUs are
// tagged Underprovisioned (and a warning lands on stderr).
func RunRTBench(wls []DiffWorkload, workerCounts []int, reps int, seed uint64, tune BenchTuning) (RTBenchReport, error) {
	if reps < 1 {
		reps = 1
	}
	rep := RTBenchReport{
		Benchmark:  "rt-scaling",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Seed:       seed,
		Tuning:     tune,
	}
	warned := map[int]bool{}
	for _, wl := range wls {
		if reason := RTSkipReason(wl.Spec); reason != "" {
			rep.Skipped = append(rep.Skipped, RTBenchSkip{Workload: wl.Name, Reason: reason})
			continue
		}
		for _, workers := range workerCounts {
			row := RTBenchRow{Workload: wl.Name, Workers: workers, Reps: reps,
				Underprovisioned: warnUnderprovisioned("rt-scaling", workers, warned)}
			var wallSum int64
			for i := 0; i < reps; i++ {
				cfg := rt.DefaultConfig(workers)
				cfg.Seed = seed + uint64(i)
				cfg.Grain = tune.Grain
				cfg.StealBatch = tune.StealBatch
				cfg.TierGroup = tune.TierGroup
				r := rt.New(cfg)
				res, err := r.Run(wl.Spec.Fid, wl.Spec.Locals, wl.Spec.Init)
				if err != nil {
					return RTBenchReport{}, fmt.Errorf("rt bench %s workers=%d: %w", wl.Name, workers, err)
				}
				if wl.Spec.Expected != 0 && res != wl.Spec.Expected {
					return RTBenchReport{}, fmt.Errorf("rt bench %s workers=%d: result %d, want %d", wl.Name, workers, res, wl.Spec.Expected)
				}
				wall := r.Elapsed().Nanoseconds()
				wallSum += wall
				if row.WallNS == 0 || wall < row.WallNS {
					ts := r.TotalStats()
					row.WallNS = wall
					row.Result = res
					row.Tasks = ts.TasksExecuted
					row.StealsOK = ts.StealsOK
					row.StealBatches = ts.StealBatches
					row.BytesStolen = ts.BytesStolen
					row.Suspends = ts.Suspends
					row.StealAttempts = ts.StealAttempts
					row.StealAbortEmpty = ts.StealAbortEmpty
					row.StealAbortLock = ts.StealAbortLock
					row.Parks = ts.Parks
				}
			}
			row.MeanWallNS = wallSum / int64(reps)
			secs := float64(row.WallNS) / 1e9
			if secs > 0 {
				row.TasksPerSec = float64(row.Tasks) / secs
			}
			if wl.Spec.Items != nil {
				row.Items = wl.Spec.Items(row.Result)
				if secs > 0 {
					row.ItemsPerSec = float64(row.Items) / secs
				}
			} else {
				row.Note = "no items extractor; tasks/s only"
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	return rep, nil
}

// RTBenchWorkloads returns the rt bench suite at a named scale (the
// same tiny/small/large vocabulary as the simulator experiments). All
// suites are gas-free; the gas-dependent workloads appear only in the
// differential catalog, where their skip is reported.
//
// Sizing note: BTC's task count is (2·iter)^depth, so the depths here
// stay modest on purpose — the original small/large suites used BTC
// depths 14/18 with iter 2, which is 2.7e8 / 6.9e10 tasks and does not
// finish inside the wall-clock budget on any machine this repo has met.
// Every suite below completes in seconds on a single core, so the
// committed BENCH_rt_baseline.json can actually be regenerated.
func RTBenchWorkloads(scale string) ([]DiffWorkload, error) {
	switch scale {
	case "tiny":
		return []DiffWorkload{
			{"fib", workloads.Fib(16, 20)},
			{"btc", workloads.BTC(10, 1, 20)},
			{"uts", workloads.UTS(19, 6, workloads.DefaultUTSB0, 20)},
			{"nqueens", workloads.NQueens(7, 20)},
		}, nil
	case "small":
		return []DiffWorkload{
			{"fib", workloads.Fib(22, 50)},
			{"btc", workloads.BTC(8, 2, 30)},
			{"uts", workloads.UTS(19, 8, workloads.DefaultUTSB0, 50)},
			{"nqueens", workloads.NQueens(8, 50)},
			{"pingpong", workloads.PingPong(256, 500, 0)},
		}, nil
	case "large":
		return []DiffWorkload{
			{"fib", workloads.Fib(25, 50)},
			{"btc", workloads.BTC(10, 2, 50)},
			{"uts", workloads.UTS(19, 11, workloads.DefaultUTSB0, 100)},
			{"nqueens", workloads.NQueens(10, 100)},
			{"pingpong", workloads.PingPong(512, 2000, 0)},
		}, nil
	case "bench":
		// The ISSUE-9 scaling suite: per-task work is high enough that a
		// single worker spends SECONDS per workload (so wall times dwarf
		// startup, steal latency and timer jitter) and the spawn tree is
		// deep enough that coalescing (WithGrain) has structure to chew
		// on. This is the suite the CI rt-perf job and the scalefloor
		// experiment run at {1, 8} workers.
		return []DiffWorkload{
			{"fib", workloads.Fib(26, 2500)},
			{"btc", workloads.BTC(9, 2, 2500)},
			{"uts", workloads.UTS(19, 10, workloads.DefaultUTSB0, 2500)},
			{"nqueens", workloads.NQueens(9, 2500)},
		}, nil
	default:
		return nil, fmt.Errorf("unknown scale %q (tiny | small | large | bench)", scale)
	}
}

// PrintRTBench renders the report as a human-readable table; the JSON
// in BENCH_rt.json is the machine-readable twin.
func PrintRTBench(w io.Writer, rep RTBenchReport) {
	fmt.Fprintf(w, "%s (wall clock; GOMAXPROCS=%d, %d CPUs; best of reps)\n",
		rep.Benchmark, rep.GoMaxProcs, rep.NumCPU)
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tworkers\twall ms\ttasks/s\titems/s\tsteals\tbatches\tMB stolen")
	var underprovisioned bool
	for _, row := range rep.Rows {
		items := "-"
		if row.ItemsPerSec > 0 {
			items = fmt.Sprintf("%.3g", row.ItemsPerSec)
		}
		mark := ""
		if row.Underprovisioned {
			mark, underprovisioned = "*", true
		}
		fmt.Fprintf(tw, "%s\t%d%s\t%.2f\t%.3g\t%s\t%d\t%d\t%.2f\n",
			row.Workload, row.Workers, mark, float64(row.WallNS)/1e6,
			row.TasksPerSec, items, row.StealsOK, row.StealBatches,
			float64(row.BytesStolen)/(1<<20))
	}
	tw.Flush()
	if underprovisioned {
		fmt.Fprintf(w, "* underprovisioned: more workers than the host's %d CPUs; not a scaling measurement\n", rep.NumCPU)
	}
	for _, sk := range rep.Skipped {
		fmt.Fprintf(w, "skipped %s: %s\n", sk.Workload, sk.Reason)
	}
}

// WriteRTBenchJSON writes the report, indented, to w.
func WriteRTBenchJSON(w io.Writer, r RTBenchReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
