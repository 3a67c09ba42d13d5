package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"uniaddr"
	"uniaddr/internal/workloads"
)

// workload is one row of the suite: which backend stands up, with how
// many workers, and whether jobs arrive closed-loop (one client, back to
// back) or open-loop (Poisson arrivals into a persistent Service).
type workload struct {
	name    string
	backend string
	workers int
	open    bool
}

// The suite. Why each is here, and which layer metric is expected to
// move which of them, is README.md's subject; BENCHMARK.json carries
// the one-line version.
var suite = []workload{
	{name: "spawn_join", backend: uniaddr.BackendRT, workers: 1},
	{name: "steal_uts", backend: uniaddr.BackendRT, workers: 2},
	{name: "dist_uts", backend: uniaddr.BackendDist, workers: 2},
	{name: "service_open", backend: uniaddr.BackendRT, workers: 1, open: true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range suite {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scale holds every size the run depends on, so -short (and the smoke
// test) can shrink the inputs without a second code path.
type scale struct {
	// smoke marks -short: the run only has to work, and a generator that
	// ran late (a 100 ms window has a hundred sends; one stall is 10 % of
	// them) is reported, not refused.
	smoke    bool
	fibN     uint64 // spawn_join tree
	utsDepth uint64 // steal_uts / dist_uts tree depth cutoff
	// The UTS tree is the first one, scanning root seeds upward from a
	// hash of -seed, whose node count lies in [utsLo, utsHi]: at depth 13
	// tree size ranges 12k-53k over root seeds, and a job's latency is
	// proportional to it, so without the band two seeds would not be
	// measuring the same workload. utsHi == 0 takes the first tree.
	utsLo, utsHi uint64
	openFibN     uint64 // service_open job
	setupCycles  int    // cold set-up cycles, in-process backends
	setupCyclesD int    // same on dist (a cycle launches a process)
	warmup       time.Duration
	// hostBlocks is the chain length of one host-speed probe (see
	// hostspeed.go): at full scale about 2 ms, 3 % of the job it follows.
	hostBlocks   int
	probeCalls   int // calls per microloop batch
	probeBatches int // batches per microloop
	parkedProbes int // jobs submitted to a parked pool
}

var fullScale = scale{
	fibN: 24, utsDepth: 13, utsLo: 35000, utsHi: 37000,
	openFibN:    10,
	setupCycles: 600, setupCyclesD: 120,
	warmup:     1500 * time.Millisecond,
	hostBlocks: 1 << 14,
	probeCalls: 1 << 16, probeBatches: 50, parkedProbes: 200,
}

var shortScale = scale{
	smoke: true,
	fibN:  12, utsDepth: 6,
	openFibN:    6,
	setupCycles: 12, setupCyclesD: 2,
	warmup:     5 * time.Millisecond,
	hostBlocks: 1 << 8,
	probeCalls: 1 << 8, probeBatches: 3, parkedProbes: 2,
}

const (
	// jobMaxWall turns a hung job into a counted failure: no job of the
	// suite runs longer than 0.1 s on an idle host.
	jobMaxWall = 10 * time.Second
	// latencyLimitUS is service_open's limit on the p90 job latency; a
	// failed or refused job counts as over it.
	latencyLimitUS = 2000.0
	utsB0          = workloads.DefaultUTSB0
	// service_open: arrivals per second, and the Service's admission
	// bounds.
	openRate       = 1000.0
	openMaxJobs    = 8
	openQueueDepth = 4096
)

// inputs are what a run feeds the program, all derived from -seed: the
// job every timed job runs, and for service_open the arrival schedule.
type inputs struct {
	spec     workloads.Spec
	treeSeed uint64          // UTS workloads: the root seed picked
	arrivals []time.Duration // service_open: due time of job i, from the start of the warm-up
	timedAt  int             // service_open: index of the first job due in the timed window
}

// splitmix64 decorrelates -seed from the streams derived from it.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// pickTree returns the UTS root seed the run uses (see scale.utsLo).
func pickTree(seed uint64, sc scale) uint64 {
	// 2^20 candidates per -seed keeps different seeds on disjoint scans.
	first := splitmix64(seed) << 20
	if sc.utsHi == 0 {
		return first
	}
	for k := uint64(0); ; k++ {
		if n := workloads.UTSSequential(first+k, sc.utsDepth, utsB0); n >= sc.utsLo && n <= sc.utsHi {
			return first + k
		}
	}
}

// poissonSchedule returns the due offsets of a Poisson arrival process
// of the given rate covering [0, span): exponential gaps from an RNG
// seeded by seed alone, so equal seeds give the identical schedule.
func poissonSchedule(seed uint64, rate float64, span time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(int64(splitmix64(seed))))
	var out []time.Duration
	var t float64 // seconds
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= span {
			return out
		}
		out = append(out, d)
	}
}

func makeInputs(w workload, seed uint64, window time.Duration, sc scale) inputs {
	switch {
	case w.open:
		in := inputs{spec: workloads.Fib(sc.openFibN, 0)}
		in.arrivals = poissonSchedule(seed, openRate, sc.warmup+window)
		for in.timedAt < len(in.arrivals) && in.arrivals[in.timedAt] < sc.warmup {
			in.timedAt++
		}
		return in
	case w.name == "spawn_join":
		return inputs{spec: workloads.Fib(sc.fibN, 0)}
	default:
		ts := pickTree(seed, sc)
		return inputs{spec: workloads.UTS(ts, sc.utsDepth, utsB0, 0), treeSeed: ts}
	}
}

// recorder accumulates one measurement window: the failure accounting
// and the per-job samples every metric is computed from. A failed job
// contributes to attempted and failed and to nothing else, so it can
// never poison a timing sample.
type recorder struct {
	attempted, failed int
	wrong             int      // failures that were wrong results, not errors
	errs              []string // the first three distinct failure strings
	overLimit         int      // jobs over latencyLimitUS, failures included

	tasks      uint64    // Σ Report.Tasks over sampled jobs
	taskNS     []float64 // Report.WallNS / Report.Tasks
	traced     []bool    // parallel to taskNS: was the job's call spanned
	jobUS      []float64 // due time → result returned
	execUS     []float64 // Report.WallNS
	queueUS    []float64 // Report.QueueNS (Service jobs)
	submitNS   []float64 // time inside Service.Submit
	residualNS []float64 // (result returned − submit start) − QueueNS − WallNS
	lateUS     []float64 // open loop: actual send − due time
}

func (r *recorder) fail(err error) {
	r.attempted++
	r.failed++
	r.overLimit++
	if errors.Is(err, errWrong) {
		r.wrong++
	}
	msg := err.Error()
	for _, e := range r.errs {
		if e == msg {
			return
		}
	}
	if len(r.errs) < 3 {
		r.errs = append(r.errs, msg)
	}
}

// absorb folds another recorder's failure accounting into r.
func (r *recorder) absorb(o *recorder) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.wrong += o.wrong
	for _, e := range o.errs {
		if len(r.errs) < 3 {
			r.errs = append(r.errs, e)
		}
	}
}

// jobTimes are the benchmark-side timestamps of one job.
type jobTimes struct {
	due, submitStart, submitEnd, done time.Time
}

func (r *recorder) sample(rep uniaddr.Report, t jobTimes, traced bool) {
	r.attempted++
	r.tasks += rep.Tasks
	r.taskNS = append(r.taskNS, float64(rep.WallNS)/float64(rep.Tasks))
	r.traced = append(r.traced, traced)
	us := float64(t.done.Sub(t.due).Nanoseconds()) / 1e3
	if us > latencyLimitUS {
		r.overLimit++
	}
	r.jobUS = append(r.jobUS, us)
	r.execUS = append(r.execUS, float64(rep.WallNS)/1e3)
	r.queueUS = append(r.queueUS, float64(rep.QueueNS)/1e3)
	r.submitNS = append(r.submitNS, float64(t.submitEnd.Sub(t.submitStart).Nanoseconds()))
	r.residualNS = append(r.residualNS,
		float64(t.done.Sub(t.submitStart).Nanoseconds()-rep.QueueNS-rep.WallNS))
	r.lateUS = append(r.lateUS, float64(t.submitStart.Sub(t.due).Nanoseconds())/1e3)
}

// errWrong marks a job whose output was checked and found wrong, as
// opposed to one that returned an error: the former makes the run
// incorrect, the latter only failed.
var errWrong = errors.New("wrong result")

// verify checks one job against the sequential oracle and the
// conservation law every complete run obeys (each spawn executes once,
// plus the root); on spawn_join it also asserts the zero-steal
// construction the workload's "must not move" predictions rest on.
func verify(w workload, spec workloads.Spec, rep uniaddr.Report, err error) error {
	if err == nil {
		err = checkCounts(spec, rep.Root, rep.Tasks, rep.Spawns)
	}
	if err == nil && w.workers == 1 && rep.StealBatches+rep.StealsOK != 0 {
		err = fmt.Errorf("%w: %d steals on a one-worker run", errWrong, rep.StealsOK)
	}
	return err
}

// checkCounts is the oracle and conservation check on bare counters, for
// the ledger sections that call a backend below the facade.
func checkCounts(spec workloads.Spec, root, tasks, spawns uint64) error {
	switch {
	case root != spec.Expected:
		return fmt.Errorf("%w: root %d, oracle %d", errWrong, root, spec.Expected)
	case tasks != spawns+1:
		return fmt.Errorf("%w: %d tasks executed, %d spawned", errWrong, tasks, spawns)
	}
	return nil
}

func (w workload) runOptions(schedSeed uint64) []uniaddr.Option {
	return []uniaddr.Option{
		uniaddr.WithBackend(w.backend), uniaddr.WithWorkers(w.workers),
		uniaddr.WithSeed(schedSeed), uniaddr.WithMaxWall(jobMaxWall),
	}
}

func (w workload) serviceOptions(schedSeed uint64) []uniaddr.ServiceOption {
	return []uniaddr.ServiceOption{
		uniaddr.ServiceBackend(w.backend), uniaddr.ServiceWorkers(w.workers),
		uniaddr.ServiceSeed(schedSeed),
		uniaddr.ServiceMaxJobs(openMaxJobs), uniaddr.ServiceQueueDepth(openQueueDepth),
	}
}

// runBatch runs jobs closed-loop — one client, the next job sent when
// the previous returned — for d, job i under scheduler seed seed+i, and
// returns the next job index. With a tracer, even-numbered jobs are
// spanned and odd ones are not, which is what prices the tracing; at
// least two jobs run however short d is, so both kinds exist. Every job
// is followed by one host-speed probe.
func runBatch(w workload, specFor func(i int) workloads.Spec, seed uint64, first int, d time.Duration, tr *tracer, hs *hostSpeed, rec *recorder) int {
	i := first
	for end := time.Now().Add(d); time.Now().Before(end) || i < first+2; i++ {
		spec := specFor(i)
		jt := tr
		if i%2 == 1 {
			jt = nil
		}
		var t jobTimes
		t.due = time.Now()
		t.submitStart = t.due
		sp := jt.begin("uniaddr.Run", laneMain, noSpan, int64(i+1))
		rep, err := uniaddr.Run(spec.Fid, spec.Locals, spec.Init, w.runOptions(seed+uint64(i))...)
		jt.end(sp)
		t.done = time.Now()
		t.submitEnd = t.done
		hs.probe()
		if verr := verify(w, spec, rep, err); verr != nil {
			rec.fail(verr)
			continue
		}
		rec.sample(rep, t, jt != nil)
	}
	return i
}

// setupRunSpan names the facade call of a batch workload's cold cycle,
// apart from the "uniaddr.Run" spans of its timed jobs.
const setupRunSpan = "uniaddr.Run/setup"

// setupCycle is one cold start as a user of the workload's entry point
// pays it: stand the backend up with the workload's options, run one
// verified one-task job, tear everything down.
func setupCycle(w workload, seed uint64, tr *tracer) error {
	spec := workloads.Fib(1, 0)
	cyc := tr.begin("setup.cycle", laneMain, noSpan, 0)
	defer tr.end(cyc)
	if !w.open {
		sp := tr.begin(setupRunSpan, laneMain, cyc, 0)
		rep, err := uniaddr.Run(spec.Fid, spec.Locals, spec.Init, w.runOptions(seed)...)
		tr.end(sp)
		return verify(w, spec, rep, err)
	}
	sp := tr.begin("uniaddr.NewService", laneMain, cyc, 0)
	svc, err := uniaddr.NewService(w.serviceOptions(seed)...)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("uniaddr.Submit", laneMain, cyc, 0)
	job, err := svc.Submit(context.Background(), spec.Fid, spec.Locals, spec.Init, uniaddr.JobMaxWall(jobMaxWall))
	tr.end(sp)
	if err == nil {
		sp = tr.begin("uniaddr.Wait", laneMain, cyc, 0)
		var rep uniaddr.Report
		rep, err = job.Wait()
		tr.end(sp)
		err = verify(w, spec, rep, err)
	}
	sp = tr.begin("uniaddr.Close", laneMain, cyc, 0)
	cerr := svc.Close()
	tr.end(sp)
	if err == nil {
		err = cerr
	}
	return err
}

// measureSetup runs n cold cycles and returns their durations in
// seconds; failed cycles are counted in rec and contribute no sample.
func measureSetup(w workload, seed uint64, n int, tr *tracer, rec *recorder) []float64 {
	var out []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		err := setupCycle(w, seed+uint64(i), tr)
		el := time.Since(t0)
		if err != nil {
			rec.fail(fmt.Errorf("set-up cycle: %w", err))
			continue
		}
		rec.attempted++
		out = append(out, el.Seconds())
	}
	return out
}

// memDelta is what the Go runtime counted over a measurement window,
// read once before and once after it.
type memDelta struct {
	mallocs, bytes uint64
	gcCycles       uint32
	gcPauseNS      uint64
	elapsed        time.Duration
}

type memMark struct {
	ms runtime.MemStats
	at time.Time
}

func markMem() *memMark {
	m := &memMark{}
	runtime.ReadMemStats(&m.ms)
	m.at = time.Now()
	return m
}

func (m *memMark) since() memDelta {
	var now runtime.MemStats
	el := time.Since(m.at)
	runtime.ReadMemStats(&now)
	return memDelta{
		mallocs: now.Mallocs - m.ms.Mallocs, bytes: now.TotalAlloc - m.ms.TotalAlloc,
		gcCycles: now.NumGC - m.ms.NumGC, gcPauseNS: now.PauseTotalNs - m.ms.PauseTotalNs,
		elapsed: el,
	}
}

// measureWorkload is the body shared by the end-to-end run and the
// traced run: warm up (discarded), then measure for window. It returns
// the window's samples, runtime counters and host-speed probes; warm-up
// failures are folded into the failure accounting.
func measureWorkload(w workload, in inputs, seed uint64, window time.Duration, sc scale, tr *tracer) (*recorder, memDelta, *hostSpeed, error) {
	rec := &recorder{}
	hs := newHostSpeed(sc.hostBlocks)
	if w.open {
		// Probes that fit between arrivals 1 ms apart: 64 times shorter.
		hs = newHostSpeed(max(sc.hostBlocks/64, 1))
		md, err := runOpen(w, in, seed, tr, hs, rec)
		return rec, md, hs, err
	}
	specFor := func(int) workloads.Spec { return in.spec }
	warm := &recorder{}
	next := runBatch(w, specFor, seed, 0, sc.warmup, nil, nil, warm)
	mark := markMem()
	runBatch(w, specFor, seed, next, window, tr, hs, rec)
	md := mark.since()
	rec.absorb(warm)
	return rec, md, hs, nil
}

// atReferenceSpeed returns the job latencies with the part of each that
// was spent executing tasks (Report.WallNS) rescaled by the host-speed
// factor f. The rest of a latency is waiting on wake-ups and timers,
// which a slow host stretches by much less than it stretches execution
// (service_open's median moved 19 % in a run whose probes moved 46 %).
func (r *recorder) atReferenceSpeed(f float64) []float64 {
	out := make([]float64, len(r.jobUS))
	for i, us := range r.jobUS {
		out[i] = us - r.execUS[i] + r.execUS[i]/f
	}
	return out
}
