package rt_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"uniaddr/internal/core"
	"uniaddr/internal/fault"
	"uniaddr/internal/rt"
	"uniaddr/internal/workloads"
)

// newPool builds a persistent pool for tests, failing on construction
// errors.
func newPool(t *testing.T, cfg rt.Config) *rt.Pool {
	t.Helper()
	p, err := rt.NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// submitSpec submits a workload Spec as one job.
func submitSpec(t *testing.T, p *rt.Pool, spec workloads.Spec, par rt.JobParams) *rt.Ticket {
	t.Helper()
	if spec.Setup != nil {
		t.Fatalf("%s needs machine Setup; sim-only", spec.Name)
	}
	tk, err := p.Submit(spec.Fid, spec.Locals, spec.Init, par)
	if err != nil {
		t.Fatalf("submit %s: %v", spec.Name, err)
	}
	return tk
}

// waitSpec waits for tk and checks the job's report against the spec's
// sequential oracle: the root result, and the exact per-job task/spawn
// conservation law (executed == spawned + 1 root).
func waitSpec(t *testing.T, tk *rt.Ticket, spec workloads.Spec) rt.JobResult {
	t.Helper()
	res, err := tk.Wait()
	if err != nil {
		t.Fatalf("%s (job %d): %v", spec.Name, tk.ID(), err)
	}
	if res.Result != spec.Expected {
		t.Fatalf("%s (job %d): result %d, want %d", spec.Name, tk.ID(), res.Result, spec.Expected)
	}
	if res.Tasks != res.Spawns+1 {
		t.Fatalf("%s (job %d): executed %d != spawned %d + 1", spec.Name, tk.ID(), res.Tasks, res.Spawns)
	}
	if res.QueueNS < 0 || res.ExecNS < 0 {
		t.Fatalf("%s (job %d): negative latency: queue %d, exec %d", spec.Name, tk.ID(), res.QueueNS, res.ExecNS)
	}
	return res
}

func TestPoolSingleJob(t *testing.T) {
	p := newPool(t, rt.DefaultConfig(4))
	spec := workloads.Fib(17, 50)
	res := waitSpec(t, submitSpec(t, p, spec, rt.JobParams{}), spec)
	if res.Tasks < 100 {
		t.Errorf("fib(17) ran %d tasks, expected a real tree", res.Tasks)
	}
	if got := p.WorkersExited(); got != 0 {
		t.Errorf("%d workers exited before Close", got)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if got := p.WorkersExited(); got != 4 {
		t.Errorf("%d workers exited after Close, want 4", got)
	}
}

// TestPoolWorkerReuse is the park-between-jobs proof: many jobs run
// back to back on one pool and no worker goroutine ever exits between
// them — the pool parks and re-arms the same workers.
func TestPoolWorkerReuse(t *testing.T) {
	p := newPool(t, rt.DefaultConfig(4))
	spec := workloads.Fib(15, 20)
	for i := 0; i < 8; i++ {
		waitSpec(t, submitSpec(t, p, spec, rt.JobParams{}), spec)
		if got := p.WorkersExited(); got != 0 {
			t.Fatalf("after job %d: %d workers exited mid-pool", i+1, got)
		}
		// Between jobs every worker of the emptied pool parks; give it a
		// moment and check the lot absorbed at least one.
		deadline := time.Now().Add(2 * time.Second)
		for p.ParkedWorkers() == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if p.ParkedWorkers() == 0 {
			t.Fatalf("after job %d: no worker parked between jobs", i+1)
		}
	}
	if got := p.JobsCompleted(); got != 8 {
		t.Errorf("JobsCompleted = %d, want 8", got)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	ts := p.TotalStats()
	if ts.Parks == 0 {
		t.Error("no parks across 8 sequential jobs; workers did not reuse the idle ladder")
	}
}

// TestPoolConcurrentMixedJobs races N jobs of different workloads over
// one pool from parallel submitters, each verified against its own
// sequential oracle — the per-job isolation test.
func TestPoolConcurrentMixedJobs(t *testing.T) {
	cfg := rt.DefaultConfig(4)
	cfg.MaxJobs = 8
	cfg.QueueDepth = 64
	p := newPool(t, cfg)
	specs := []workloads.Spec{
		workloads.Fib(16, 20),
		workloads.BTC(8, 1, 10),
		workloads.NQueens(6, 10),
		workloads.PingPong(32, 100, 0),
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for round := 0; round < 4; round++ {
		for _, spec := range specs {
			wg.Add(1)
			go func(spec workloads.Spec) {
				defer wg.Done()
				tk, err := p.Submit(spec.Fid, spec.Locals, spec.Init, rt.JobParams{})
				if err != nil {
					errs <- fmt.Errorf("submit %s: %w", spec.Name, err)
					return
				}
				res, err := tk.Wait()
				if err != nil {
					errs <- fmt.Errorf("%s (job %d): %w", spec.Name, tk.ID(), err)
					return
				}
				if res.Result != spec.Expected {
					errs <- fmt.Errorf("%s (job %d): result %d, want %d", spec.Name, tk.ID(), res.Result, spec.Expected)
				}
				if res.Tasks != res.Spawns+1 {
					errs <- fmt.Errorf("%s (job %d): executed %d != spawned %d + 1", spec.Name, tk.ID(), res.Tasks, res.Spawns)
				}
			}(spec)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPoolPerJobTaskCount pins the exactness of per-job counters: a BTC
// job's report must show the analytic task count even while co-resident
// jobs churn the same deques and record tables.
func TestPoolPerJobTaskCount(t *testing.T) {
	cfg := rt.DefaultConfig(4)
	cfg.MaxJobs = 4
	p := newPool(t, cfg)
	noise := workloads.Fib(16, 20)
	ntk := submitSpec(t, p, noise, rt.JobParams{})
	btc := workloads.BTC(8, 1, 10)
	res := waitSpec(t, submitSpec(t, p, btc, rt.JobParams{}), btc)
	if want := workloads.BTCTaskCount(8, 1); res.Tasks != want {
		t.Errorf("BTC job executed %d tasks, analytic count is %d", res.Tasks, want)
	}
	waitSpec(t, ntk, noise)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPoolSaturation drives the bounded admission queue to rejection:
// with one job slot and a depth-1 queue, a running job plus a queued
// job leaves no room — the third submit must bounce with
// ErrPoolSaturated, not block. The running job is gated on a channel: a
// timed one could finish, and let the queued job dispatch, between the
// second submit and the third.
func TestPoolSaturation(t *testing.T) {
	cfg := rt.DefaultConfig(2)
	cfg.MaxJobs = 1
	cfg.QueueDepth = 1
	p := newPool(t, cfg)
	gate := make(chan struct{})
	gateFID := core.Register("rt_test.satgate", func(e *core.Env) core.Status {
		<-gate
		e.ReturnU64(7)
		return core.Done
	})
	tk1, err := p.Submit(gateFID, 8, nil, rt.JobParams{})
	if err != nil {
		t.Fatal(err)
	}
	heavy := workloads.Fib(20, 500)
	// Admission means the queue was empty, i.e. tk1 was claimed and is
	// running (MaxJobs=1 keeps it in the only slot until done).
	var tk2 *rt.Ticket
	for {
		tk2, err = p.Submit(heavy.Fid, heavy.Locals, heavy.Init, rt.JobParams{})
		if err == nil {
			break
		}
		if !errors.Is(err, rt.ErrPoolSaturated) {
			close(gate)
			t.Fatal(err)
		}
		time.Sleep(100 * time.Microsecond)
	}
	_, err = p.Submit(heavy.Fid, heavy.Locals, heavy.Init, rt.JobParams{})
	close(gate)
	if !errors.Is(err, rt.ErrPoolSaturated) {
		t.Fatalf("third submit: got %v, want ErrPoolSaturated", err)
	}
	if res, err := tk1.Wait(); err != nil || res.Result != 7 {
		t.Fatalf("gate job: result %d err %v, want 7", res.Result, err)
	}
	waitSpec(t, tk2, heavy)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestPoolCancelQueued(t *testing.T) {
	cfg := rt.DefaultConfig(2)
	cfg.MaxJobs = 1
	cfg.QueueDepth = 8
	p := newPool(t, cfg)
	heavy := workloads.Fib(20, 500)
	tk1 := submitSpec(t, p, heavy, rt.JobParams{})
	tk2 := submitSpec(t, p, heavy, rt.JobParams{})
	cause := errors.New("deadline blown")
	if !p.Cancel(tk2, cause) {
		t.Fatal("Cancel(queued) returned false")
	}
	if p.Cancel(tk2, cause) {
		t.Error("second Cancel returned true for a finalized ticket")
	}
	_, err := tk2.Wait()
	var jce *rt.JobCanceledError
	if !errors.As(err, &jce) {
		t.Fatalf("canceled queued job: got %v, want JobCanceledError", err)
	}
	if jce.Job != tk2.ID() || !errors.Is(err, cause) {
		t.Errorf("JobCanceledError{Job:%d, Cause:%v}, want job %d cause %v", jce.Job, jce.Cause, tk2.ID(), cause)
	}
	waitSpec(t, tk1, heavy)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPoolCancelRunningIsolation cancels a running job mid-flight while
// a co-resident job keeps working: the canceled ticket must resolve to
// JobCanceledError, the survivor must finish with a correct oracle-
// checked report, and Close must find full quiescence — no record of
// the canceled tree may leak.
func TestPoolCancelRunningIsolation(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := rt.DefaultConfig(4)
		cfg.Seed = seed
		cfg.MaxJobs = 4
		p := newPool(t, cfg)
		victim := workloads.Fib(24, 200)
		vtk := submitSpec(t, p, victim, rt.JobParams{})
		bystander := workloads.Fib(17, 50)
		btk := submitSpec(t, p, bystander, rt.JobParams{})
		time.Sleep(5 * time.Millisecond)
		cause := errors.New("operator abort")
		canceled := p.Cancel(vtk, cause)
		res, err := vtk.Wait()
		if canceled {
			var jce *rt.JobCanceledError
			if !errors.As(err, &jce) || !errors.Is(err, cause) {
				t.Fatalf("seed %d: canceled running job: got %v, want JobCanceledError(cause)", seed, err)
			}
			// Drained frames count as executed, so the conservation law
			// holds for the canceled tree too.
			if res.Tasks != res.Spawns+1 {
				t.Errorf("seed %d: canceled job executed %d != spawned %d + 1", seed, res.Tasks, res.Spawns)
			}
		} else if err != nil || res.Result != victim.Expected {
			// The job won the race and completed before the cancel.
			t.Fatalf("seed %d: uncanceled job: result %d err %v, want %d", seed, res.Result, err, victim.Expected)
		}
		waitSpec(t, btk, bystander)
		if err := p.Close(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestPoolCancelCompleteRaceStorm hammers the cancel-vs-complete
// window: rounds of co-resident jobs where most are canceled at
// staggered points mid-run while a bystander races to completion. No
// owner may sweep-and-recycle a record whose completer is still
// mid-store — the sweep is posted only once the job's last chain token is
// retired, and a completer holds one. Corruption would surface as a
// bystander oracle miss, a conservation-law violation in a canceled
// report, or leaked / double-released records failing the Close
// quiescence check.
func TestPoolCancelCompleteRaceStorm(t *testing.T) {
	cfg := rt.DefaultConfig(4)
	cfg.MaxJobs = 4
	cfg.QueueDepth = 32
	p := newPool(t, cfg)
	victim := workloads.Fib(18, 50)
	bystander := workloads.Fib(15, 20)
	for round := 0; round < 20; round++ {
		v1 := submitSpec(t, p, victim, rt.JobParams{})
		v2 := submitSpec(t, p, victim, rt.JobParams{})
		btk := submitSpec(t, p, bystander, rt.JobParams{})
		// Stagger the two cancels across the jobs' lifetimes so some land
		// while completions are in full flight and some race the root.
		time.Sleep(time.Duration(round*37) * time.Microsecond)
		p.Cancel(v1, errors.New("storm"))
		time.Sleep(time.Duration(round*11) * time.Microsecond)
		p.Cancel(v2, errors.New("storm"))
		for _, tk := range []*rt.Ticket{v1, v2} {
			res, err := tk.Wait()
			if err != nil {
				var jce *rt.JobCanceledError
				if !errors.As(err, &jce) {
					t.Fatalf("round %d: job %d: %v", round, tk.ID(), err)
				}
			} else if res.Result != victim.Expected {
				t.Fatalf("round %d: job %d won the race but returned %d, want %d",
					round, tk.ID(), res.Result, victim.Expected)
			}
			// Tasks == Spawns == 0 means the cancel landed while the job
			// was still queued — nothing dispatched, nothing to conserve.
			// Any dispatched job executes at least its root.
			if res.Tasks != res.Spawns+1 && !(res.Tasks == 0 && res.Spawns == 0) {
				t.Fatalf("round %d: job %d: executed %d != spawned %d + 1",
					round, tk.ID(), res.Tasks, res.Spawns)
			}
		}
		waitSpec(t, btk, bystander)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPoolParksWhenSlotsSaturated pins the park-side slot gate and its
// wake: with the only job slot held by a gated single-task job and
// another job queued behind it, every idle worker must reach the
// parking lot — a work hint that looked at the queue alone would bar
// them from parking and busy-spin until the slot frees — and when the
// slot DOES free, the finalizer must wake a parker to dispatch the
// queued job. The gate job blocks on a channel rather than spinning so
// the idle workers' backoff ladders are not CPU-starved on small boxes.
func TestPoolParksWhenSlotsSaturated(t *testing.T) {
	cfg := rt.DefaultConfig(4)
	cfg.MaxJobs = 1
	cfg.QueueDepth = 8
	p := newPool(t, cfg)
	gate := make(chan struct{})
	gateFID := core.Register("rt_test.parkgate", func(e *core.Env) core.Status {
		<-gate
		e.ReturnU64(7)
		return core.Done
	})
	tk1, err := p.Submit(gateFID, 8, nil, rt.JobParams{})
	if err != nil {
		t.Fatal(err)
	}
	quick := workloads.Fib(1, 0)
	tk2 := submitSpec(t, p, quick, rt.JobParams{})
	// One worker is blocked inside the gate task; the other three are
	// idle with queuedCount > 0 and no free slot, so all three must park.
	deadline := time.After(30 * time.Second)
	for p.ParkedWorkers() < 3 {
		select {
		case <-deadline:
			close(gate)
			t.Fatalf("only %d of 3 idle workers parked while the queue was barred by slot saturation", p.ParkedWorkers())
		default:
		}
		time.Sleep(200 * time.Microsecond)
	}
	// Freeing the slot must wake a parker: with all idle workers on the
	// lot, the queued job completes only if finalizeSlot's wake lands.
	close(gate)
	if res, err := tk1.Wait(); err != nil || res.Result != 7 {
		t.Fatalf("gate job: result %d err %v, want 7", res.Result, err)
	}
	waitSpec(t, tk2, quick)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPoolChaosIsolation is the chaos cell: steal faults injected into
// the pool's transfer path must never corrupt any co-resident job's
// report — every job still matches its sequential oracle and the pool
// still reaches exact quiescence.
func TestPoolChaosIsolation(t *testing.T) {
	cfg := rt.DefaultConfig(4)
	cfg.MaxJobs = 4
	cfg.QueueDepth = 32
	cfg.MaxWall = 60 * time.Second
	cfg.Fault = fault.Config{StealClaimFailProb: 0.2, StealCopyFailProb: 0.1}
	p := newPool(t, cfg)
	specs := []workloads.Spec{
		workloads.Fib(18, 200),
		workloads.BTC(8, 1, 50),
		workloads.Fib(17, 100),
		workloads.NQueens(6, 20),
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for _, spec := range specs {
		wg.Add(1)
		go func(spec workloads.Spec) {
			defer wg.Done()
			tk, err := p.Submit(spec.Fid, spec.Locals, spec.Init, rt.JobParams{})
			if err != nil {
				errs <- fmt.Errorf("submit %s: %w", spec.Name, err)
				return
			}
			res, err := tk.Wait()
			if err != nil {
				errs <- fmt.Errorf("%s under faults: %w", spec.Name, err)
				return
			}
			if res.Result != spec.Expected {
				errs <- fmt.Errorf("%s under faults: result %d, want %d", spec.Name, res.Result, spec.Expected)
			}
		}(spec)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPoolWeightedAdmission checks the weighted-fair dispatcher: with
// one slot busy and two queued jobs, the heavier weight is admitted
// first even though it arrived later.
func TestPoolWeightedAdmission(t *testing.T) {
	cfg := rt.DefaultConfig(2)
	cfg.MaxJobs = 1
	cfg.QueueDepth = 8
	p := newPool(t, cfg)
	heavy := workloads.Fib(20, 500)
	small := workloads.Fib(12, 0)
	tk1 := submitSpec(t, p, heavy, rt.JobParams{})
	// Wait for tk1 to occupy the slot (queue empties on claim).
	var first, second *rt.Ticket
	var firstCalled time.Time
	for {
		firstCalled = time.Now()
		tk, err := p.Submit(small.Fid, small.Locals, small.Init, rt.JobParams{Weight: 1})
		if err == nil {
			first = tk
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	second = submitSpec(t, p, small, rt.JobParams{Weight: 100})
	secondReturned := time.Now()
	waitSpec(t, tk1, heavy)
	r1 := waitSpec(t, first, small)
	r2 := waitSpec(t, second, small)
	if r1.QueueNS <= 0 || r2.QueueNS <= 0 {
		t.Fatalf("queue latencies not recorded: %d, %d", r1.QueueNS, r2.QueueNS)
	}
	// A job's dispatch instant is its submit instant plus QueueNS. The
	// two submit instants lie inside [firstCalled, secondReturned], so
	// second's dispatch minus first's is at most that bracket plus
	// second's QueueNS minus first's. Below zero, the weight-100 job
	// left the queue before the weight-1 job that was queued first.
	bracket := secondReturned.Sub(firstCalled).Nanoseconds()
	if late := bracket + r2.QueueNS - r1.QueueNS; late >= 0 {
		t.Fatalf("weight-100 job was not dispatched before the earlier weight-1 job: "+
			"queue %d ns vs %d ns, submits %d ns apart at most (dispatch gap bound %d ns)",
			r2.QueueNS, r1.QueueNS, bracket, late)
	}
	if got := p.JobsCompleted(); got != 3 {
		t.Errorf("JobsCompleted = %d, want 3", got)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestPoolClosedRejectsSubmit(t *testing.T) {
	p := newPool(t, rt.DefaultConfig(2))
	spec := workloads.Fib(10, 0)
	waitSpec(t, submitSpec(t, p, spec, rt.JobParams{}), spec)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Submit(spec.Fid, spec.Locals, spec.Init, rt.JobParams{}); !errors.Is(err, rt.ErrPoolClosed) {
		t.Fatalf("Submit after Close: got %v, want ErrPoolClosed", err)
	}
	if err := p.Close(); !errors.Is(err, rt.ErrPoolClosed) {
		t.Fatalf("second Close: got %v, want ErrPoolClosed", err)
	}
}

// TestPoolWatchdogFailsTickets: a pool-lifetime budget that expires
// mid-job must resolve every outstanding ticket with the timeout error
// instead of stranding the submitters.
func TestPoolWatchdogFailsTickets(t *testing.T) {
	cfg := rt.DefaultConfig(2)
	cfg.MaxWall = 30 * time.Millisecond
	p := newPool(t, cfg)
	heavy := workloads.Fib(26, 2000)
	tk := submitSpec(t, p, heavy, rt.JobParams{})
	_, err := tk.Wait()
	var te *rt.TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("ticket after watchdog: got %v, want TimeoutError", err)
	}
	if err := p.Close(); !errors.As(err, &te) {
		t.Fatalf("Close after watchdog: got %v, want TimeoutError", err)
	}
}

// grainProbe is a fib-shaped tree whose every entry — first run and each
// resume after a steal or a suspended join — compares Env.Grain() with
// the value its job was submitted with. A frame that lost its job tag in
// flight switches the worker onto the co-resident job's slot and reads
// that job's grain. Result: tasks in the subtree, plus 1<<40 per
// mismatching entry. Slots: 0=n, 1=want, 2=h1, 3=h2, 4=acc.
var grainProbeFID core.FuncID

func init() { grainProbeFID = core.Register("rt_test.grainprobe", grainProbe) }

func grainProbe(e *core.Env) core.Status {
	const locals = 5 * 8
	if e.Grain() != e.U64(1) {
		e.SetU64(4, e.U64(4)+1<<40)
	}
	n, want := e.U64(0), e.U64(1)
	child := func(k uint64) func(*core.Env) {
		return func(c *core.Env) { c.SetU64(0, k); c.SetU64(1, want) }
	}
	switch e.RP() {
	case 0:
		e.Work(100)
		if n < 2 {
			e.ReturnU64(1 + e.U64(4))
			return core.Done
		}
		if !e.Spawn(1, 2, grainProbeFID, locals, child(n-1)) {
			return core.Unwound
		}
		fallthrough
	case 1:
		if !e.Spawn(2, 3, grainProbeFID, locals, child(n-2)) {
			return core.Unwound
		}
		fallthrough
	case 2:
		r, ok := e.Join(2, e.HandleAt(2))
		if !ok {
			return core.Unwound
		}
		e.SetU64(4, e.U64(4)+r)
		fallthrough
	case 3:
		r, ok := e.Join(3, e.HandleAt(3))
		if !ok {
			return core.Unwound
		}
		e.ReturnU64(1 + e.U64(4) + r)
		return core.Done
	}
	panic("grainprobe: bad resume point")
}

// TestFrameKeepsJobTagAcrossMigration: the job tag rides in the frame
// header, so it must survive everything that moves frame bytes — a
// steal, a batch steal (the entries that stay on the thief's deque), a
// suspend to the heap and the resume. Two co-resident jobs with
// different grains on two workers; every task of each reads its own.
func TestFrameKeepsJobTagAcrossMigration(t *testing.T) {
	const n = 18
	want := 2*workloads.FibSequential(n+1) - 1
	var st rt.Stats
	for attempt := 0; attempt < 20; attempt++ {
		cfg := rt.DefaultConfig(2)
		cfg.MaxJobs = 2
		cfg.MaxWall = 30 * time.Second // a frame under the wrong tag retires the wrong job's token
		cfg.Seed = uint64(attempt) + 1
		p := newPool(t, cfg)
		var tks [2]*rt.Ticket
		for round := 0; round < 4; round++ {
			for j, grain := range []uint64{3, 5} {
				tk, err := p.Submit(grainProbeFID, 5*8, func(e *core.Env) { e.SetU64(0, n); e.SetU64(1, grain) }, rt.JobParams{Grain: grain})
				if err != nil {
					t.Fatal(err)
				}
				tks[j] = tk
			}
			for j, tk := range tks {
				res, err := tk.Wait()
				if err != nil {
					t.Fatal(err)
				}
				if res.Result != want {
					t.Fatalf("job %d of round %d: result %#x, want %d tasks and no grain mismatch (%d entries read the other job's grain)",
						j, round, res.Result, want, res.Result>>40)
				}
			}
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		s := p.TotalStats()
		st.StealsOK += s.StealsOK
		st.StealBatches += s.StealBatches
		st.StealBatchEntries += s.StealBatchEntries
		st.Suspends += s.Suspends
		if st.StealsOK > 0 && st.Suspends > 0 && st.StealBatchEntries > st.StealBatches {
			t.Logf("%d steals in %d batches, %d suspends over %d pools", st.StealsOK, st.StealBatches, st.Suspends, attempt+1)
			return
		}
	}
	t.Skipf("every task read its own grain, but this host produced %d steals in %d batches and %d suspends: migration not exercised",
		st.StealsOK, st.StealBatches, st.Suspends)
}

// TestPoolLeakedChildDelaysFinalization: a root that returns without
// joining a child it spawned does not get its slot recycled under the
// running child. The worker inside the child still holds a live chain of
// the job, so the ticket resolves only when the leaked task ends — with
// an exact report — and never before.
func TestPoolLeakedChildDelaysFinalization(t *testing.T) {
	cfg := rt.DefaultConfig(2)
	cfg.MaxJobs = 1
	cfg.MaxWall = 30 * time.Second
	p := newPool(t, cfg)
	gate, rootDone := make(chan struct{}), make(chan struct{})
	childFID := core.Register("rt_test.leakchild", func(e *core.Env) core.Status {
		<-gate
		e.ReturnU64(1)
		return core.Done
	})
	// The child runs first and blocks its worker; the other worker steals
	// the root's continuation, which returns without a join.
	rootFID := core.Register("rt_test.leakroot", func(e *core.Env) core.Status {
		if e.RP() == 0 && !e.Spawn(1, 0, childFID, 8, func(*core.Env) {}) {
			return core.Unwound
		}
		close(rootDone)
		e.ReturnU64(9)
		return core.Done
	})
	tk, err := p.Submit(rootFID, 8, nil, rt.JobParams{})
	if err != nil {
		t.Fatal(err)
	}
	<-rootDone
	select {
	case <-tk.Done():
		close(gate)
		t.Fatal("job finalized while its leaked child was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	res, err := tk.Wait()
	if err != nil || res.Result != 9 || res.Tasks != 2 || res.Spawns != 1 {
		t.Fatalf("after the child ended: result %d tasks %d spawns %d err %v, want 9, 2, 1, nil", res.Result, res.Tasks, res.Spawns, err)
	}
	// The slot is reusable; the child's never-joined record is the leak
	// Close reports.
	waitSpec(t, submitSpec(t, p, workloads.Fib(10, 0), rt.JobParams{}), workloads.Fib(10, 0))
	// The owners' sweep takes only canceled jobs' records: this one's
	// outlives the job.
	if err := p.Close(); err == nil || !strings.Contains(err.Error(), "records live") {
		t.Errorf("Close: %v, want the leaked child's record reported live", err)
	}
}
