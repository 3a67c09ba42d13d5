// Service load generator: an open-loop benchmark of the persistent rt
// worker pool (rt.Pool / uniaddr.Service). Jobs arrive as a Poisson
// process at a target rate — arrivals do NOT wait for completions, so
// queueing shows up as latency instead of silently throttling the
// offered load — and every completed job's report is checked against
// its workload's sequential oracle. The output (BENCH_service.json)
// carries per-job queue/execution/total latency percentiles plus the
// pool-reuse proof: parks between jobs and zero mid-run worker exits.
package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"uniaddr/internal/obs"
	"uniaddr/internal/rt"
	"uniaddr/internal/workloads"
)

// ServiceBenchConfig parameterises one service load-gen run.
type ServiceBenchConfig struct {
	// Workers is the pool size.
	Workers int
	// QPS is the target Poisson arrival rate (jobs per second).
	QPS float64
	// Jobs is how many arrivals to generate.
	Jobs int
	// Seed drives both the pool's victim selection and the arrival
	// process.
	Seed uint64
	// MaxJobs / QueueDepth bound residency and admission (0 = pool
	// defaults).
	MaxJobs    int
	QueueDepth int
}

// ServiceLatency is one latency distribution's digest, in nanoseconds.
type ServiceLatency struct {
	Count  uint64  `json:"count"`
	MeanNS float64 `json:"mean_ns"`
	P50NS  uint64  `json:"p50_ns"`
	P95NS  uint64  `json:"p95_ns"`
	P99NS  uint64  `json:"p99_ns"`
	MaxNS  uint64  `json:"max_ns"`
}

func latencyDigest(h *obs.Hist) ServiceLatency {
	return ServiceLatency{
		Count: h.Count, MeanNS: h.Mean(),
		P50NS: h.Quantile(0.50), P95NS: h.Quantile(0.95), P99NS: h.Quantile(0.99),
		MaxNS: h.Max,
	}
}

// ServiceBenchReport is the schema of BENCH_service.json.
type ServiceBenchReport struct {
	Benchmark string `json:"benchmark"` // "rt-service"
	// Host provenance: a latency distribution is only meaningful
	// relative to the machine that produced it.
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	// Underprovisioned flags a run with more workers than host CPUs:
	// latencies then measure scheduler time-slicing, not the pool.
	Underprovisioned bool   `json:"underprovisioned,omitempty"`
	Note             string `json:"note,omitempty"`

	Workers   int     `json:"workers"`
	Seed      uint64  `json:"seed"`
	TargetQPS float64 `json:"target_qps"`

	// Offered vs served load: Jobs arrivals, of which Admitted entered
	// the pool and Rejected bounced off the full admission queue
	// (open-loop shedding, not an error).
	Jobs     int `json:"jobs"`
	Admitted int `json:"admitted"`
	Rejected int `json:"rejected,omitempty"`

	DurationNS  int64   `json:"duration_ns"`
	AchievedQPS float64 `json:"achieved_qps"`

	// Per-job latency digests: queue (submit→dispatch), exec
	// (dispatch→completion), total (submit→completion).
	QueueLatency ServiceLatency `json:"queue_latency"`
	ExecLatency  ServiceLatency `json:"exec_latency"`
	TotalLatency ServiceLatency `json:"total_latency"`

	// OracleMismatches counts jobs whose report disagreed with the
	// workload's sequential reference or violated the per-job
	// conservation law. Must be 0.
	OracleMismatches int `json:"oracle_mismatches"`
	// WorkersExitedMidRun must be 0: the proof that the pool reuses
	// its workers across jobs instead of recreating them.
	WorkersExitedMidRun uint64 `json:"workers_exited_mid_run"`
	// Parks/Wakes count idle-ladder park episodes across the run — the
	// workers repeatedly parking BETWEEN jobs and being re-armed.
	Parks uint64 `json:"parks"`
	Wakes uint64 `json:"wakes"`
	// TasksExecuted sums every job's tasks (work actually multiplexed
	// over the one pool).
	TasksExecuted uint64 `json:"tasks_executed"`
}

// serviceMix is the oracle-checked workload rotation the generator
// submits: small trees with distinct shapes (divide-and-conquer,
// wide-and-regular, search), each with an exact sequential reference.
func serviceMix() []workloads.Spec {
	return []workloads.Spec{
		workloads.Fib(15, 20),
		workloads.BTC(7, 1, 10),
		workloads.NQueens(6, 10),
		workloads.Fib(13, 50),
	}
}

// RunServiceBench drives one open-loop load-gen run against a fresh
// persistent pool and returns the report. It fails on oracle
// mismatches only via the report counters, but returns an error for
// structural failures (pool construction, submit errors other than
// saturation, failed Close).
func RunServiceBench(cfg ServiceBenchConfig) (ServiceBenchReport, error) {
	if cfg.Workers < 1 || cfg.Jobs < 1 || cfg.QPS <= 0 {
		return ServiceBenchReport{}, fmt.Errorf("service bench needs workers >= 1, jobs >= 1, qps > 0 (got %d, %d, %g)",
			cfg.Workers, cfg.Jobs, cfg.QPS)
	}
	pcfg := rt.DefaultConfig(cfg.Workers)
	pcfg.Seed = cfg.Seed
	pcfg.MaxJobs = cfg.MaxJobs
	pcfg.QueueDepth = cfg.QueueDepth
	pcfg.MaxWall = 0 // pool lifetime is the run's
	pool, err := rt.NewPool(pcfg)
	if err != nil {
		return ServiceBenchReport{}, err
	}
	rep := ServiceBenchReport{
		Benchmark:  "rt-service",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Workers:    cfg.Workers,
		Seed:       cfg.Seed,
		TargetQPS:  cfg.QPS,
		Jobs:       cfg.Jobs,
	}
	rep.Underprovisioned = cfg.Workers > rep.NumCPU
	mix := serviceMix()
	// The arrival clock is its own RNG stream so changing the mix
	// cannot perturb arrival times.
	arrivals := rand.New(rand.NewSource(int64(cfg.Seed*0x9e3779b97f4a7c15 + 1)))
	type inflight struct {
		tk   *rt.Ticket
		spec workloads.Spec
	}
	var live []inflight
	start := time.Now()
	next := start
	for i := 0; i < cfg.Jobs; i++ {
		// Open loop: the next arrival time is drawn from Exp(QPS)
		// regardless of how far behind the pool is.
		next = next.Add(time.Duration(arrivals.ExpFloat64() / cfg.QPS * float64(time.Second)))
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		spec := mix[i%len(mix)]
		tk, err := pool.Submit(spec.Fid, spec.Locals, spec.Init, rt.JobParams{})
		if err != nil {
			if errors.Is(err, rt.ErrPoolSaturated) {
				rep.Rejected++
				continue
			}
			return rep, fmt.Errorf("submit %s (arrival %d): %w", spec.Name, i, err)
		}
		live = append(live, inflight{tk: tk, spec: spec})
	}
	rep.Admitted = len(live)
	var qh, eh, th obs.Hist
	for _, j := range live {
		res, err := j.tk.Wait()
		if err != nil {
			return rep, fmt.Errorf("%s (job %d): %w", j.spec.Name, j.tk.ID(), err)
		}
		if res.Result != j.spec.Expected || res.Tasks != res.Spawns+1 {
			rep.OracleMismatches++
		}
		rep.TasksExecuted += res.Tasks
		// All three latencies come from the pool's own submit/dispatch/
		// completion timestamps — collection order here cannot skew them.
		q, e := max64(res.QueueNS, 0), max64(res.ExecNS, 0)
		qh.Record(uint64(q))
		eh.Record(uint64(e))
		th.Record(uint64(q + e))
	}
	// Read BEFORE Close: the claim is that no worker exited while jobs
	// were still being served.
	rep.WorkersExitedMidRun = pool.WorkersExited()
	rep.DurationNS = time.Since(start).Nanoseconds()
	if err := pool.Close(); err != nil {
		return rep, fmt.Errorf("pool close: %w", err)
	}
	ts := pool.TotalStats()
	rep.Parks = ts.Parks
	rep.Wakes = ts.Wakes
	rep.QueueLatency = latencyDigest(&qh)
	rep.ExecLatency = latencyDigest(&eh)
	rep.TotalLatency = latencyDigest(&th)
	if rep.DurationNS > 0 {
		rep.AchievedQPS = float64(rep.Admitted) / (float64(rep.DurationNS) / 1e9)
	}
	return rep, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// WriteServiceBenchJSON writes the report, indented, to w.
func WriteServiceBenchJSON(w io.Writer, r ServiceBenchReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// PrintServiceBench renders the report for terminals.
func PrintServiceBench(w io.Writer, rep ServiceBenchReport) {
	fmt.Fprintf(w, "## %s: %d workers, %d jobs at %.1f QPS target (%.1f achieved)\n",
		rep.Benchmark, rep.Workers, rep.Jobs, rep.TargetQPS, rep.AchievedQPS)
	fmt.Fprintf(w, "host: %s %s/%s, GOMAXPROCS=%d, %d CPUs", rep.GoVersion, rep.GOOS, rep.GOARCH, rep.GoMaxProcs, rep.NumCPU)
	if rep.Underprovisioned {
		fmt.Fprintf(w, "  [UNDERPROVISIONED: %d workers > %d CPUs]", rep.Workers, rep.NumCPU)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "admitted %d / rejected %d over %.2fs; %d tasks executed; oracle mismatches %d; workers exited mid-run %d; parks %d\n",
		rep.Admitted, rep.Rejected, float64(rep.DurationNS)/1e9, rep.TasksExecuted, rep.OracleMismatches, rep.WorkersExitedMidRun, rep.Parks)
	row := func(name string, l ServiceLatency) {
		fmt.Fprintf(w, "%-8s p50 %s  p95 %s  p99 %s  max %s  (mean %s, n=%d)\n",
			name,
			time.Duration(l.P50NS), time.Duration(l.P95NS), time.Duration(l.P99NS),
			time.Duration(l.MaxNS), time.Duration(int64(l.MeanNS)), l.Count)
	}
	row("queue", rep.QueueLatency)
	row("exec", rep.ExecLatency)
	row("total", rep.TotalLatency)
}
