package rt

import (
	"go/parser"
	"go/token"
	"runtime"
	"sync"
	"testing"
	"time"

	"uniaddr/internal/core"
	"uniaddr/internal/workloads"
)

// TestIdleStateLadder pins the two-rung ladder: exactly idleSpinRounds
// hot spins, then park on every later round — there is no timed rung in
// between, so the ladder never asks for a sleep — until a reset rewinds
// to hot spinning.
func TestIdleStateLadder(t *testing.T) {
	var s idleState
	for i := 0; i < idleSpinRounds; i++ {
		if !s.spin() {
			t.Fatalf("round %d: ladder says park, want spin", i)
		}
	}
	for i := 0; i < 10; i++ {
		if s.spin() {
			t.Fatalf("post-ladder round %d: ladder says spin, want park", i)
		}
	}
	s.reset()
	if !s.spin() {
		t.Fatal("reset did not rewind the ladder to spinning")
	}
}

// TestIdlePoolParksWithinSpinBudget: a worker of a fresh, empty pool
// parks on its first idle round — nothing can publish work for it to
// spin for, and a Submit reaches it through the lot — and Close then
// reaches every worker through the lot: none of them takes another idle
// round, and none is waited for on a timer (the idle engine does not
// import the package that has them).
func TestIdlePoolParksWithinSpinBudget(t *testing.T) {
	const workers = 4
	p, err := NewPool(DefaultConfig(workers))
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); p.ParkedWorkers() != workers; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d idle workers parked", p.ParkedWorkers(), workers)
		}
	}
	spins := idleSpins(p)
	if spins > workers {
		t.Errorf("%d idle rounds to park %d workers of an empty pool, want one each", spins, workers)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if got := p.WorkersExited(); got != workers {
		t.Errorf("%d of %d workers exited at Close", got, workers)
	}
	if got := idleSpins(p); got != spins {
		t.Errorf("parked workers took %d more idle rounds on their way out", got-spins)
	}
	f, err := parser.ParseFile(token.NewFileSet(), "park.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		if imp.Path.Value == `"time"` {
			t.Error("park.go imports time: the idle engine must have no timed rung")
		}
	}
}

// TestSubmitHandsOffToParkedWorker: on one P, a Submit that wakes the
// pool's parked worker yields to it, so the job is dispatched before
// Submit returns, not after the submitter next blocks. The one-P
// scheduler still runs the submitter first on one pick in 61 (its
// fairness check of the global queue), hence a majority, not all.
func TestSubmitHandsOffToParkedWorker(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p, err := NewPool(DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	spec := workloads.Fib(10, 0)
	const jobs = 10
	dispatched := 0
	for i := 0; i < jobs; i++ {
		for deadline := time.Now().Add(30 * time.Second); p.ParkedWorkers() != 1; time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatal("the pool's worker never parked")
			}
		}
		tk, err := p.Submit(spec.Fid, spec.Locals, spec.Init, JobParams{})
		if err != nil {
			t.Fatal(err)
		}
		p.jobMu.Lock()
		if tk.state != tkQueued {
			dispatched++
		}
		p.jobMu.Unlock()
		if res, err := tk.Wait(); err != nil || res.Result != spec.Expected {
			t.Fatalf("job %d: result %d, err %v", i, res.Result, err)
		}
	}
	if dispatched < jobs-2 {
		t.Errorf("%d of %d Submits returned with the job dispatched", dispatched, jobs)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestIdleWorkersSpinWhileAJobHoldsASlot: while a job occupies a slot a
// peer may publish work any moment, so idle workers walk the whole
// ladder before they park. The job is one task blocked on a gate, so the
// ladders are not CPU-starved on small hosts.
func TestIdleWorkersSpinWhileAJobHoldsASlot(t *testing.T) {
	const workers = 4
	gate := make(chan struct{})
	fid := core.Register("rt_test.spingate", func(e *core.Env) core.Status {
		<-gate
		e.ReturnU64(7)
		return core.Done
	})
	cfg := DefaultConfig(workers)
	cfg.MaxWall = 60 * time.Second
	p, tk := startWithJob(t, cfg, fid, 8, nil)
	for deadline := time.Now().Add(30 * time.Second); p.ParkedWorkers() != workers-1; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			close(gate)
			t.Fatalf("only %d of %d idle workers parked", p.ParkedWorkers(), workers-1)
		}
	}
	spins := idleSpins(p)
	close(gate)
	if _, err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if min := uint64((workers - 1) * (idleSpinRounds + 1)); spins < min {
		t.Errorf("%d idle rounds before %d workers parked beside a running job, the ladder walks %d", spins, workers-1, min)
	}
}

// startWithJob starts a pool, submits one job and wakes every worker,
// so each worker's next idle round finds the job holding a slot.
func startWithJob(t *testing.T, cfg Config, fid core.FuncID, localsLen uint32, init func(*core.Env)) (*Pool, *Ticket) {
	t.Helper()
	p, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := p.Submit(fid, localsLen, init, JobParams{})
	if err != nil {
		t.Fatal(err)
	}
	p.lot.wakeAll()
	return p, tk
}

// idleSpins sums every worker's idle-loop round counter (atomic loads,
// safe mid-run); a fully parked runtime's value stops advancing, which
// is the whole point of parking.
func idleSpins(p *Pool) uint64 {
	var n uint64
	for _, w := range p.workers {
		n += w.idleSpins.Load()
	}
	return n
}

// parkRig builds an unstarted pool, its workers out of the lot they
// are born in, so lot/worker plumbing can be exercised directly.
func parkRig(workers int) *Pool {
	cfg := DefaultConfig(workers)
	cfg.fillDefaults()
	p := newPool(cfg, nil)
	for _, w := range p.workers {
		p.lot.cancel(w)
	}
	return p
}

func TestParkingLotWakeOneLIFO(t *testing.T) {
	r := parkRig(3)
	lot := &r.lot
	for _, w := range r.workers {
		lot.register(w)
	}
	if got := lot.count.Load(); got != 3 {
		t.Fatalf("count = %d after 3 registers", got)
	}
	lot.wakeOne()
	// LIFO: the most recently registered worker (rank 2) gets the token.
	select {
	case <-r.workers[2].wakeCh:
	default:
		t.Fatal("wakeOne did not wake the most recent parker")
	}
	if r.workers[2].parkSlot != -1 {
		t.Fatal("woken worker still registered")
	}
	if got := lot.count.Load(); got != 2 {
		t.Fatalf("count = %d after wakeOne", got)
	}
	// The remaining workers must still be tracked under correct slots.
	for _, w := range []*Worker{r.workers[0], r.workers[1]} {
		if w.parkSlot < 0 || lot.parked[w.parkSlot] != w {
			t.Fatalf("rank %d slot bookkeeping broken after swap-remove", w.Rank)
		}
	}
}

func TestParkingLotWakeWorkerPrecise(t *testing.T) {
	r := parkRig(4)
	lot := &r.lot
	for _, w := range r.workers {
		lot.register(w)
	}
	lot.wakeWorker(r.workers[1])
	select {
	case <-r.workers[1].wakeCh:
	default:
		t.Fatal("wakeWorker did not deliver to the target")
	}
	for _, rank := range []int{0, 2, 3} {
		select {
		case <-r.workers[rank].wakeCh:
			t.Fatalf("rank %d woken spuriously", rank)
		default:
		}
	}
	// Waking a non-parked worker is a no-op, not a stray token.
	lot.wakeWorker(r.workers[1])
	select {
	case <-r.workers[1].wakeCh:
		t.Fatal("wakeWorker sent a token to an unregistered worker")
	default:
	}
}

func TestParkingLotCancelVsWake(t *testing.T) {
	r := parkRig(2)
	lot := &r.lot
	w := r.workers[0]
	lot.register(w)
	if !lot.cancel(w) {
		t.Fatal("cancel failed with no waker in sight")
	}
	if got := lot.count.Load(); got != 0 {
		t.Fatalf("count = %d after cancel", got)
	}
	// Waker claims first: cancel must report false and the token must
	// be in the channel for the parker to consume.
	lot.register(w)
	lot.wakeOne()
	if lot.cancel(w) {
		t.Fatal("cancel succeeded after a waker claimed the worker")
	}
	select {
	case <-w.wakeCh:
	default:
		t.Fatal("claimed worker's token missing")
	}
}

// TestParkingLotStress hammers register/cancel/wakeOne/wakeAll from
// concurrent goroutines (run under -race): the token-pairing invariant
// means no send ever blocks and every parked goroutine is eventually
// released.
func TestParkingLotStress(t *testing.T) {
	r := parkRig(8)
	lot := &r.lot
	var wg sync.WaitGroup
	for _, w := range r.workers {
		wg.Add(1)
		go func(w *Worker) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				lot.register(w)
				if i%3 == 0 {
					if !lot.cancel(w) {
						<-w.wakeCh // claimed: consume the in-flight token
					}
					continue
				}
				<-w.wakeCh
			}
		}(w)
	}
	stop := make(chan struct{})
	var wakers sync.WaitGroup
	for i := 0; i < 4; i++ {
		wakers.Add(1)
		go func() {
			defer wakers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					lot.wakeOne()
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("parkers wedged: lost wakeup or blocked token send")
	}
	close(stop)
	wakers.Wait()
	if got := lot.count.Load(); got != 0 {
		t.Fatalf("count = %d after all parkers exited", got)
	}
}

// TestParkWakeNoLostWakeup runs suspend-heavy and steal-heavy workloads
// across seeds with a tight wall-clock budget: a lost wakeup parks a
// worker holding the only copy of a suspended thread, deadlocks the
// run, and trips the watchdog well inside the budget. Run under -race
// in CI.
func TestParkWakeNoLostWakeup(t *testing.T) {
	specs := []workloads.Spec{
		workloads.PingPong(64, 200, 0),
		workloads.Fib(16, 10),
		workloads.UTS(19, 7, workloads.DefaultUTSB0, 10),
	}
	for _, spec := range specs {
		for seed := uint64(1); seed <= 5; seed++ {
			cfg := DefaultConfig(8)
			cfg.Seed = seed
			cfg.MaxWall = 30 * time.Second
			got, err := New(cfg).Run(spec.Fid, spec.Locals, spec.Init)
			if err != nil {
				t.Fatalf("%s seed %d: %v", spec.Name, seed, err)
			}
			if got != spec.Expected {
				t.Fatalf("%s seed %d: result %d, want %d", spec.Name, seed, got, spec.Expected)
			}
		}
	}
}

// TestQuiescenceParkedWorkersStopSpinning proves parking actually
// stops the idle churn: with one worker grinding a single long task and
// everyone else idle, the other workers must all reach the lot and the
// global idle-round counter must stop advancing — the old 20µs
// sleep-poll engine advanced it forever.
func TestQuiescenceParkedWorkersStopSpinning(t *testing.T) {
	const workers = 8
	// One task, no spawns: the Work() burn keeps whichever worker claimed
	// it busy for a few seconds while the rest have nothing to do. It must
	// run LONG: on a
	// saturated single-CPU box every idle-ladder round costs a whole
	// scheduling quantum, so the seven idle workers take over a second
	// of wall clock to walk their ladders into the lot.
	spec := workloads.Fib(1, 3_000_000_000)
	p, tk := startWithJob(t, DefaultConfig(workers), spec.Fid, spec.Locals, spec.Init)
	deadline := time.Now().Add(90 * time.Second)
	for p.ParkedWorkers() != workers-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d workers parked", p.ParkedWorkers(), workers-1)
		}
		time.Sleep(time.Millisecond)
	}
	// All idle workers are in the lot. Their spin counters must freeze.
	before := idleSpins(p)
	time.Sleep(100 * time.Millisecond)
	if p.ParkedWorkers() == workers-1 {
		if after := idleSpins(p); after != before {
			t.Fatalf("idle spins advanced %d → %d while all idle workers were parked", before, after)
		}
	} // else: the run finished during the sample window; nothing to assert.
	if res, err := tk.Wait(); err != nil || res.Result != spec.Expected {
		t.Fatalf("result %d err %v, want %d", res.Result, err, spec.Expected)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}
