package main

import (
	"fmt"
	"time"

	"uniaddr"
	"uniaddr/internal/dist"
	"uniaddr/internal/rt"
	"uniaddr/internal/workloads"
)

// The traced run: the layer ledger. It measures the named workload
// again with spans recorded around every call into a layer, and prices
// every layer below it — the facade's fixed costs, the rt pool's job
// path, the steal protocol's counters on rt and dist, the leaf
// operations of internal/sched and internal/obs. The ledger is always
// complete (every per-layer metric is measured in every traced run);
// the workload named on the command line decides where most of the time
// goes and supplies the workload-relative lines (job_ms, trace
// overhead, GC rate).

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// ratio is a/b, and 0 for an empty base (a one-worker run attempts no
// steals; its steal ratios are 0, not NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Shares of the measurement window each ledger section may use.
const (
	shareOwn     = 0.40
	shareSpawn   = 0.08
	shareSteal   = 0.12
	shareDist    = 0.10
	shareService = 0.10
)

func share(window time.Duration, f float64) time.Duration {
	return time.Duration(float64(window) * f)
}

// runLedger is -trace 1.
func runLedger(w workload, seed uint64, window time.Duration, sc scale, tr *tracer) (metrics, *recorder, error) {
	out := metrics{}
	fails := &recorder{} // failures in ledger sections other than the workload's own

	// --- the named workload, every other job spanned ---------------------
	in := makeInputs(w, seed, share(window, shareOwn), sc)
	own, md, hs, err := measureWorkload(w, in, seed, share(window, shareOwn), sc, tr)
	if err != nil {
		return nil, nil, err
	}
	if len(own.taskNS) == 0 {
		return nil, own, fmt.Errorf("no timed job on %s", w.name)
	}
	var traced, plain []float64
	for i, v := range own.taskNS {
		if own.traced[i] {
			traced = append(traced, v)
		} else {
			plain = append(plain, v)
		}
	}
	out.set("bench.host_speed_factor", "ratio", hs.factor(0.1))
	out.set("bench.trace_overhead_ratio", "ratio", ratio(p10(traced), p10(plain)))
	out.set("rt.job_ms_p50", "ms", quantile(own.execUS, 0.5)/1e3)
	out.set("rt.job_ms_p90", "ms", quantile(own.execUS, 0.9)/1e3)
	out.set("go.gc_cycles_per_s", "1/s", float64(md.gcCycles)/md.elapsed.Seconds())
	out.set("go.gc_pause_ms_per_s", "ms/s", float64(md.gcPauseNS)/1e6/md.elapsed.Seconds())

	// --- facade fixed costs: spans of the cold cycles ---------------------
	service, _ := findWorkload("service_open")
	spawn, _ := findWorkload("spawn_join")
	measureSetup(service, seed, sc.setupCycles/2, tr, fails)
	out.set("uniaddr.new_service_ns", "ns", p10(tr.durations("uniaddr.NewService")))
	out.set("uniaddr.close_ns", "ns", p10(tr.durations("uniaddr.Close")))
	measureSetup(spawn, seed, sc.setupCycles/2, tr, fails)
	out.set("uniaddr.run_fixed_ns", "ns", p10(tr.durations(setupRunSpan)))

	// --- service path ----------------------------------------------------
	svc := own
	if !w.open {
		svc = &recorder{}
		sin := makeInputs(service, seed, share(window, shareService), sc)
		if _, err := runOpen(service, sin, seed, tr, nil, svc); err != nil {
			return nil, own, err
		}
		fails.absorb(svc)
	}
	serviceLines(out, svc)

	// --- rt pool job path --------------------------------------------------
	if err := poolProbes(seed, sc, tr, out); err != nil {
		fails.fail(err)
	}

	// --- task path: spawn_join with the obs recorder on and off -----------
	spawnTaskNS := spawnSection(spawn, seed, share(window, shareSpawn), sc, tr, out, fails)

	// --- steal path, in-process and cross-process --------------------------
	tree := in
	if w.open || w.name == spawn.name {
		steal, _ := findWorkload("steal_uts")
		tree = makeInputs(steal, seed, 0, sc)
	}
	stealSection(tree.spec, seed, share(window, shareSteal), tr, out, fails)
	distSection(tree.spec, seed, share(window, shareDist), tr, out, fails)

	// --- leaf operations -----------------------------------------------------
	runLayerProbes(workloads.Fib(1, 0).Locals, sc, tr, out)
	var seq []float64
	for i := 0; i < 8; i++ {
		sp := tr.begin("workloads.UTSSequential", laneMain, noSpan, 0)
		t0 := time.Now()
		nodes := workloads.UTSSequential(tree.treeSeed, sc.utsDepth, utsB0)
		seq = append(seq, float64(time.Since(t0).Nanoseconds())/float64(nodes))
		tr.end(sp)
	}
	out.set("workloads.uts_seq_ns_per_node", "ns", p10(seq))

	// --- what the leaf prices leave unexplained ----------------------------
	explained := out["sched.deque_push_pop_ns"].Value + out["sched.arena_alloc_free_ns"].Value +
		out["sched.record_alloc_release_ns"].Value + out["sched.jobcount_bracket_ns"].Value
	out.set("core.task_unexplained_ns", "ns", spawnTaskNS-explained)
	out.set("core.task_unexplained_share", "ratio", ratio(spawnTaskNS-explained, spawnTaskNS))

	own.absorb(fails)
	return out, own, nil
}

// serviceLines prints the service path from a service_open recorder:
// where a job's latency goes between due time and returned result.
func serviceLines(out metrics, r *recorder) {
	out.set("uniaddr.submit_call_ns", "ns", p10(r.submitNS))
	out.set("uniaddr.wait_residual_ns", "ns", median(r.residualNS))
	out.set("rt.queue_us_p50", "us", quantile(r.queueUS, 0.5))
	out.set("rt.queue_us_p90", "us", quantile(r.queueUS, 0.9))
	out.set("rt.exec_us_p50", "us", quantile(r.execUS, 0.5))
	out.set("rt.queue_share_of_job_p50", "ratio", ratio(quantile(r.queueUS, 0.5), quantile(r.jobUS, 0.5)))
	out.set("bench.job_us_p90", "us", quantile(r.jobUS, 0.9))
	out.set("bench.job_us_p99", "us", quantile(r.jobUS, 0.99))
	out.set("bench.gen_late_us_p99", "us", quantile(r.lateUS, 0.99))
	out.set("bench.gen_late_us_max", "us", quantile(r.lateUS, 1))
	out.set("bench.gen_late_share", "ratio", lateShare(r.lateUS))
	out.set("bench.over_limit_ratio", "ratio", ratio(float64(r.overLimit), float64(len(r.jobUS)+r.failed)))
}

// poolProbes prices one job through rt.Pool directly, below the facade:
// Submit → Ticket.Wait of a one-task job, back to back (the worker is
// still spinning when the next job arrives) and after the worker has
// parked (the wake-up is on the path).
func poolProbes(seed uint64, sc scale, tr *tracer, out metrics) error {
	cfg := rt.DefaultConfig(1)
	cfg.Seed = seed
	cfg.MaxWall = 0
	pool, err := rt.NewPool(cfg)
	if err != nil {
		return fmt.Errorf("pool probe: %w", err)
	}
	spec := workloads.Fib(1, 0)
	one := func(name string) (float64, error) {
		sp := tr.begin(name, laneMain, noSpan, 0)
		t0 := time.Now()
		tk, err := pool.Submit(spec.Fid, spec.Locals, spec.Init, rt.JobParams{})
		if err != nil {
			return 0, err
		}
		res, err := tk.Wait()
		el := time.Since(t0)
		tr.end(sp)
		if err == nil && res.Result != spec.Expected {
			err = fmt.Errorf("%w: root %d", errWrong, res.Result)
		}
		return float64(el.Nanoseconds()), err
	}
	var hot, parked []float64
	for i := 0; i < 10*sc.parkedProbes && err == nil; i++ {
		var ns float64
		ns, err = one("rt.pool_job_hot")
		hot = append(hot, ns)
	}
	for i := 0; i < sc.parkedProbes && err == nil; i++ {
		// Parked, not "idle for a while": wait until the pool says so.
		for limit := time.Now().Add(20 * time.Millisecond); pool.ParkedWorkers() < 1 && time.Now().Before(limit); {
			time.Sleep(200 * time.Microsecond)
		}
		var ns float64
		ns, err = one("rt.pool_job_parked")
		parked = append(parked, ns)
	}
	if cerr := pool.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("pool probe: %w", err)
	}
	out.set("rt.pool_job_hot_ns", "ns", p10(hot))
	out.set("rt.pool_job_parked_ns", "ns", median(parked))
	return nil
}

// spawnSection runs spawn_join jobs alternating the program's own obs
// recorder on and off and returns the obs-off task_ns. The ratio of the
// two p10s is what obs costs when it is on; end-to-end runs keep it off.
func spawnSection(w workload, seed uint64, d time.Duration, sc scale, tr *tracer, out metrics, fails *recorder) float64 {
	spec := workloads.Fib(sc.fibN, 0)
	var on, off []float64
	i := 0
	for end := time.Now().Add(d); time.Now().Before(end) || len(on) == 0; i++ {
		obsOn := i%2 == 1
		sp := tr.begin("uniaddr.Run", laneMain, noSpan, 0)
		rep, err := uniaddr.Run(spec.Fid, spec.Locals, spec.Init,
			append(w.runOptions(seed+uint64(i)), uniaddr.WithObs(obsOn))...)
		tr.end(sp)
		if err == nil && rep.StealAttempts+rep.Suspends != 0 {
			err = fmt.Errorf("%w: one worker, yet %d steal attempts and %d suspends", errWrong, rep.StealAttempts, rep.Suspends)
		}
		if verr := verify(w, spec, rep, err); verr != nil {
			fails.fail(verr)
			if fails.failed > 3 {
				break
			}
			continue
		}
		fails.attempted++
		if ns := float64(rep.WallNS) / float64(rep.Tasks); obsOn {
			on = append(on, ns)
		} else {
			off = append(off, ns)
		}
	}
	out.set("obs.on_ratio", "ratio", ratio(p10(on), p10(off)))
	return p10(off)
}

// stealLoop runs job(workers, i) back to back for d — two workers, every
// third job one — counting failures, and returns the ns/task samples of
// the one- and the two-worker jobs. It gives up after a few failures.
func stealLoop(d time.Duration, fails *recorder, job func(workers, i int) (float64, error)) (t1, t2 []float64) {
	i := 0
	for end := time.Now().Add(d); time.Now().Before(end) || len(t1) == 0 || len(t2) == 0; i++ {
		workers := 2
		if i%3 == 2 {
			workers = 1
		}
		ns, err := job(workers, i)
		if err != nil {
			fails.fail(err)
			if fails.failed > 3 {
				break
			}
			continue
		}
		fails.attempted++
		if workers == 1 {
			t1 = append(t1, ns)
		} else {
			t2 = append(t2, ns)
		}
	}
	return t1, t2
}

// stealSection runs the UTS tree on rt.Runtime directly — the facade's
// Report does not carry the abort, hint, join and park counters — with
// every third job on one worker for the parallel efficiency.
func stealSection(spec workloads.Spec, seed uint64, d time.Duration, tr *tracer, out metrics, fails *recorder) {
	var sum rt.Stats
	t1, t2 := stealLoop(d, fails, func(workers, i int) (float64, error) {
		cfg := rt.DefaultConfig(workers)
		cfg.Seed = seed + uint64(i)
		cfg.MaxWall = jobMaxWall
		r := rt.New(cfg)
		sp := tr.begin("rt.Run", laneMain, noSpan, int64(i+1))
		root, err := r.Run(spec.Fid, spec.Locals, spec.Init)
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		st := r.TotalStats()
		if err := checkCounts(spec, root, st.TasksExecuted, st.Spawns); err != nil {
			return 0, err
		}
		if workers == 2 {
			sum.TasksExecuted += st.TasksExecuted
			sum.StealAttempts += st.StealAttempts
			sum.StealBatches += st.StealBatches
			sum.StealBatchEntries += st.StealBatchEntries
			sum.BytesStolen += st.BytesStolen
			sum.StealAbortEmpty += st.StealAbortEmpty
			sum.StealAbortLock += st.StealAbortLock
			sum.StealHintProbes += st.StealHintProbes
			sum.Suspends += st.Suspends
			sum.JoinsFast += st.JoinsFast
			sum.JoinsMiss += st.JoinsMiss
			sum.Parks += st.Parks
		}
		return float64(r.Elapsed().Nanoseconds()) / float64(st.TasksExecuted), nil
	})
	f := func(v uint64) float64 { return float64(v) }
	jobs := float64(len(t2))
	out.set("rt.steal_batches_per_job", "count", ratio(f(sum.StealBatches), jobs))
	out.set("rt.entries_per_batch", "count", ratio(f(sum.StealBatchEntries), f(sum.StealBatches)))
	out.set("rt.bytes_per_batch", "B", ratio(f(sum.BytesStolen), f(sum.StealBatches)))
	out.set("rt.steal_success_ratio", "ratio", ratio(f(sum.StealBatches), f(sum.StealAttempts)))
	out.set("rt.abort_empty_ratio", "ratio", ratio(f(sum.StealAbortEmpty), f(sum.StealAttempts)))
	out.set("rt.abort_lock_ratio", "ratio", ratio(f(sum.StealAbortLock), f(sum.StealAttempts)))
	out.set("rt.hint_probe_share", "ratio", ratio(f(sum.StealHintProbes), f(sum.StealAttempts)))
	out.set("rt.suspends_per_ktask", "count", ratio(1000*f(sum.Suspends), f(sum.TasksExecuted)))
	out.set("rt.join_miss_ratio", "ratio", ratio(f(sum.JoinsMiss), f(sum.JoinsFast+sum.JoinsMiss)))
	out.set("rt.parks_per_job", "count", ratio(f(sum.Parks), jobs))
	out.set("rt.par_efficiency", "ratio", ratio(p10(t1), 2*p10(t2)))
}

// distSection is stealSection across processes, through dist.Run, whose
// Result separates the run proper (Elapsed) from launching and reaping
// the worker processes around it.
func distSection(spec workloads.Spec, seed uint64, d time.Duration, tr *tracer, out metrics, fails *recorder) {
	var sum dist.Stats
	var launch []float64
	t1, t2 := stealLoop(d, fails, func(workers, i int) (float64, error) {
		cfg := dist.DefaultConfig(workers)
		cfg.Seed = seed + uint64(i)
		cfg.MaxWall = jobMaxWall
		sp := tr.begin("dist.Run", laneMain, noSpan, int64(i+1))
		t0 := time.Now()
		res, err := dist.Run(cfg, spec.Fid, spec.Locals, spec.Init)
		call := time.Since(t0)
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		st := res.TotalStats()
		if err := checkCounts(spec, res.Root, st.TasksExecuted, st.Spawns); err != nil {
			return 0, err
		}
		if workers == 2 {
			launch = append(launch, float64((call-res.Elapsed).Nanoseconds())/1e6)
			sum.StealAttempts += st.StealAttempts
			sum.StealBatches += st.StealBatches
			sum.StealBatchEntries += st.StealBatchEntries
			sum.BytesStolen += st.BytesStolen
			sum.IdleSleeps += st.IdleSleeps
		}
		return float64(res.Elapsed.Nanoseconds()) / float64(st.TasksExecuted), nil
	})
	f := func(v uint64) float64 { return float64(v) }
	jobs := float64(len(t2))
	out.set("dist.launch_teardown_ms", "ms", p10(launch))
	out.set("dist.steal_batches_per_job", "count", ratio(f(sum.StealBatches), jobs))
	out.set("dist.entries_per_batch", "count", ratio(f(sum.StealBatchEntries), f(sum.StealBatches)))
	out.set("dist.bytes_per_batch", "B", ratio(f(sum.BytesStolen), f(sum.StealBatches)))
	out.set("dist.steal_success_ratio", "ratio", ratio(f(sum.StealBatches), f(sum.StealAttempts)))
	out.set("dist.idle_sleeps_per_job", "count", ratio(f(sum.IdleSleeps), jobs))
	out.set("dist.par_efficiency", "ratio", ratio(p10(t1), 2*p10(t2)))
}
