// Command benchmark is the repository's benchmark of record: four
// workloads over the public uniaddr API (rt and dist backends), each
// checked job by job against the sequential oracle, reporting a small
// set of end-to-end metrics with tracing off and — in a separate traced
// run — a per-layer cost ledger measured from the outside in. See
// README.md in this directory for the metric and workload tables.
//
//	go run ./benchmark -workload steal_uts -seed 1            # end-to-end metrics
//	go run ./benchmark -workload steal_uts -seed 1 -trace 1   # per-layer ledger
//	go run ./benchmark -repeat 5                              # calibrate the bounds
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"uniaddr"
)

// result is the machine-readable last line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// An honest generator sends on schedule. A send over lateLimitUS late
// is a late send; a run with more than lateShareWarn of them is flagged
// in the report (one 100 ms hypervisor stall makes the next hundred
// sends late, and this host has a few per minute, so such a run is still
// a measurement: latency is taken from the due time, stall included),
// and a run with more than lateShareFatal of them did not offer the
// arrival process it claims and is refused with a non-zero exit.
const (
	lateLimitUS    = 1000.0
	lateShareWarn  = 0.01
	lateShareFatal = 0.10
)

// runEndToEnd is -trace 0: cold set-up cycles, a discarded warm-up, then
// the timed window, all with tracing off.
func runEndToEnd(w workload, seed uint64, window time.Duration, sc scale, out io.Writer) (metrics, *recorder, error) {
	in := makeInputs(w, seed, window, sc)
	cycles := sc.setupCycles
	if w.backend == uniaddr.BackendDist {
		cycles = sc.setupCyclesD
	}
	setupRec := &recorder{}
	setup := measureSetup(w, seed, cycles, nil, setupRec)
	rec, md, hs, err := measureWorkload(w, in, seed, window, sc, nil)
	if err != nil {
		return nil, rec, err
	}
	rec.absorb(setupRec)
	if len(rec.taskNS) == 0 || len(setup) == 0 {
		return nil, rec, fmt.Errorf("nothing to report: %d timed jobs, %d set-up cycles succeeded", len(rec.taskNS), len(setup))
	}
	// Timings are reported at reference speed (hostspeed.go); the factors
	// and the raw values are printed beside them.
	fmt.Fprintf(out, "host speed: %.3fx reference at the p10 of the timed window, %.3fx at its median; as measured: task_ns %.2f, job_us_p50 %.1f\n",
		hs.factor(0.1), hs.factor(0.5), p10(rec.taskNS), median(rec.jobUS))
	m := metrics{}
	m.set("task_ns", "ns", p10(rec.taskNS)/hs.factor(0.1))
	m.set("job_us_p50", "us", median(rec.atReferenceSpeed(hs.factor(0.5))))
	m.set("allocs_per_task", "allocs", float64(md.mallocs)/float64(rec.tasks))
	m.set("alloc_bytes_per_task", "B", float64(md.bytes)/float64(rec.tasks))
	m.set("setup_s", "s", p10(setup))
	m.set("rss_mb", "MiB", peakRSSMiB())
	return m, rec, nil
}

// lateShare is the share of sends that left over lateLimitUS late.
func lateShare(lateUS []float64) float64 {
	late := 0
	for _, us := range lateUS {
		if us > lateLimitUS {
			late++
		}
	}
	return ratio(float64(late), float64(len(lateUS)))
}

// checkGenerator reports how well the open-loop generator kept its
// schedule and refuses a run in which it did not.
func checkGenerator(rec *recorder, offered float64, window time.Duration, out io.Writer) error {
	n, late := len(rec.lateUS), lateShare(rec.lateUS)
	fmt.Fprintf(out, "generator: offered %.1f jobs/s, achieved %.1f jobs/s; %.2f %% of %d sends over %.0f us late (late by p50 %.1f, p99 %.1f, max %.1f us)\n",
		offered, float64(n)/window.Seconds(), 100*late, n, lateLimitUS,
		quantile(rec.lateUS, 0.5), quantile(rec.lateUS, 0.99), quantile(rec.lateUS, 1))
	switch {
	case late > lateShareFatal:
		return fmt.Errorf("generator ran late on %.1f %% of sends (limit %.0f %%): the offered load was not the schedule's",
			100*late, 100*lateShareFatal)
	case late > lateShareWarn:
		fmt.Fprintf(out, "generator: LATE on more than %.0f %% of sends; the host stalled, read the upper percentiles with that in mind\n", 100*lateShareWarn)
	}
	return nil
}

// runOne measures one workload and prints the human-readable report and
// the JSON last line to out.
func runOne(w workload, seed uint64, window time.Duration, sc scale, trace bool, traceOut string, out io.Writer) error {
	fmt.Fprintln(out, hostLine())
	loop := "closed loop, one client"
	if w.open {
		loop = fmt.Sprintf("open loop, Poisson %.0f jobs/s", openRate)
	}
	fmt.Fprintf(out, "workload: %s (%s backend, %d workers, %s) seed=%d window=%v trace=%v\n",
		w.name, w.backend, w.workers, loop, seed, window, trace)
	if w.workers > runtime.NumCPU() {
		fmt.Fprintf(out, "underprovisioned: %d workers on %d CPUs; timings measure time-slicing, not the scheduler\n",
			w.workers, runtime.NumCPU())
	}
	var (
		m   metrics
		rec *recorder
		err error
	)
	if trace {
		tr := newTracer()
		m, rec, err = runLedger(w, seed, window, sc, tr)
		if err == nil && traceOut != "" {
			err = writeTraceFile(tr, traceOut)
		}
	} else {
		m, rec, err = runEndToEnd(w, seed, window, sc, out)
	}
	if rec != nil {
		fmt.Fprintf(out, "jobs_attempted %d\njobs_failed %d\njobs_timed %d\n", rec.attempted, rec.failed, len(rec.taskNS))
		for _, e := range rec.errs {
			fmt.Fprintf(out, "failure: %s\n", e)
		}
	}
	if err != nil {
		return err
	}
	if w.open {
		measured := window
		if trace {
			measured = share(window, shareOwn)
		}
		if err := checkGenerator(rec, openRate, measured, out); err != nil && !sc.smoke {
			return err
		}
	}
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := m[name]
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s was not measured", name)
		}
		fmt.Fprintf(out, "%-34s %14.6g %s\n", name, v.Value, v.Unit)
	}
	if trace {
		fmt.Fprintf(out, "core.task_unexplained_ns is %.0f %% of spawn_join/task_ns; rt.queue_us_p50 is %.0f %% of service_open/job_us_p50\n",
			100*m["core.task_unexplained_share"].Value, 100*m["rt.queue_share_of_job_p50"].Value)
	}
	b, err := json.Marshal(result{Correct: rec.wrong == 0, Attempted: rec.attempted, Failed: rec.failed, Metrics: m})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

func writeTraceFile(tr *tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}

func main() {
	// The dist backend re-executes this binary for its worker processes.
	uniaddr.MaybeChild()

	name := flag.String("workload", "", "workload to run: spawn_join, steal_uts, dist_uts or service_open")
	seed := flag.Uint64("seed", 1, "seed of the run's inputs (UTS tree, arrival schedule, scheduler seeds)")
	seconds := flag.Float64("seconds", 0, "length of the timed window (default 27, with -short 0.1)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run, per-layer metrics")
	traceOut := flag.String("trace-out", "", "with -trace 1, write the spans as Chrome trace-event JSON to this file")
	short := flag.Bool("short", false, "smoke mode: tiny inputs and windows; the numbers mean nothing")
	repeat := flag.Int("repeat", 0, "run the whole suite (or -workload) this many times, seeds seed..seed+n-1, and print each end-to-end metric's spread next to its bound")
	flag.Parse()

	sc := fullScale
	if *short {
		sc = shortScale
	}
	if *seconds == 0 {
		*seconds = 27
		if *short {
			*seconds = 0.1
		}
	}
	window := time.Duration(*seconds * float64(time.Second))
	if flag.NArg() != 0 || window <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark -workload <name> -seed <n> [-seconds <s>] [-trace 0|1] [-trace-out <file>] [-short] | -repeat <n>")
		os.Exit(2)
	}
	if *repeat > 0 {
		if err := repeatSuite(*repeat, *name, *seed, *seconds, *short, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have", *name)
		for _, w := range suite {
			fmt.Fprintf(os.Stderr, " %s", w.name)
		}
		fmt.Fprintln(os.Stderr, ")")
		os.Exit(2)
	}
	cpu, err := pinProcess()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: pinning to one CPU:", err)
		os.Exit(1)
	}
	if cpu >= 0 {
		fmt.Printf("pinned: every thread and worker process runs on CPU %d\n", cpu)
	}
	// A hang anywhere below must end as a failed run, not as a run that
	// never ends: no phase outside the window takes more than seconds.
	time.AfterFunc(window+100*time.Second, func() {
		fmt.Fprintln(os.Stderr, "benchmark: watchdog: the run did not finish")
		os.Exit(3)
	})
	if err := runOne(w, *seed, window, sc, *trace == 1, *traceOut, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
