package rt

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"uniaddr/internal/core"
	"uniaddr/internal/fault"
	"uniaddr/internal/obs"
	"uniaddr/internal/sched"
)

// The worker pool: the same Config.Workers goroutines, arenas, deques
// and record tables serve MANY task trees, submitted while the pool
// runs (Runtime.Run submits one job to a resident pool). Workers park between jobs
// on the idle ladder instead of exiting; an idle worker dispatches the
// next admitted job by allocating a tagged root record from its own
// table and invoking the root frame in its own arena. Per-job isolation
// rests on the job tags in every frame header and the tenants in every
// record lifecycle word, per-job quiescence on the slot's live-chain
// count (sched.JobSlot.Live); see DESIGN.md §15.

// ErrPoolSaturated is returned by Submit when the bounded admission
// queue is full — the pool's backpressure signal.
var ErrPoolSaturated = errors.New("rt: pool admission queue full")

// ErrPoolClosed is returned by Submit after Close has been called.
var ErrPoolClosed = errors.New("rt: pool closed")

// JobCanceledError reports a job that was canceled (by the submitter or
// a per-job deadline) before completing; Cause carries the reason.
type JobCanceledError struct {
	Job   uint64
	Cause error
}

func (e *JobCanceledError) Error() string {
	return fmt.Sprintf("rt: job %d canceled: %v", e.Job, e.Cause)
}

func (e *JobCanceledError) Unwrap() error { return e.Cause }

// JobParams are the per-job knobs of one Submit.
type JobParams struct {
	// Grain is the job's sequential cutoff (same semantics as
	// Config.Grain, per job).
	Grain uint64
	// Weight biases admission order: the dispatcher picks the queued
	// job with the lowest submission-sequence/weight key, so equal
	// weights reduce to FIFO and a weight-w job is admitted as if it
	// had arrived w times earlier. <= 0 means 1.
	Weight int
	// Ctx, if it can be canceled, cancels the job (queued or mid-run)
	// with Ctx.Err() as the cause. nil means never.
	Ctx context.Context
	// MaxWall cancels the job once it has run this long, counted from
	// DISPATCH (queue time is free). 0 means unbounded.
	MaxWall time.Duration
}

// JobResult is one job's per-job report.
type JobResult struct {
	// Result is the root task's result (0 for canceled jobs).
	Result uint64
	// Tasks and Spawns are the job's own executed/spawned counts
	// (drained frames of a canceled job count as executed).
	Tasks  uint64
	Spawns uint64
	// QueueNS is submit→dispatch latency; ExecNS dispatch→completion.
	QueueNS int64
	ExecNS  int64
}

// Ticket state, guarded by Pool.jobMu.
const (
	tkQueued = iota
	tkRunning
	tkDone
)

// Ticket is the submitter's handle on one admitted job, resolved by
// the goroutine that finalizes it — normally the completing worker.
type Ticket struct {
	id       uint64
	done     chan struct{}
	once     sync.Once
	res      JobResult
	err      error
	submitNS int64
	// The job's watchers (nil when not needed), stopped by deliver:
	// JobParams.Ctx's hook and the MaxWall timer. Guarded by jobMu.
	stopCtx  func() bool
	deadline *time.Timer
	// dispatchNS is stamped by the dispatching worker; atomic because a
	// pool failure may finalize the ticket from another goroutine.
	dispatchNS atomic.Int64
	// cancelASAP closes the dispatch/cancel race: Cancel sets it before
	// trying the Running→Draining transition, the dispatcher rechecks
	// it after storing Running, so one of the two always lands.
	cancelASAP atomic.Bool

	// Guarded by Pool.jobMu:
	state int
	slot  uint32
}

// ID returns the job's global submission sequence number (1-based).
func (t *Ticket) ID() uint64 { return t.id }

// Done returns a channel closed when the job has been finalized.
func (t *Ticket) Done() <-chan struct{} { return t.done }

// Wait blocks until the job is finalized and returns its result.
func (t *Ticket) Wait() (JobResult, error) {
	<-t.done
	return t.res, t.err
}

// deliver publishes the job's outcome exactly once, stopping its watchers.
func (t *Ticket) deliver(p *Pool, res JobResult, err error) {
	t.once.Do(func() {
		if t.stopCtx != nil {
			t.stopCtx()
		}
		if t.deadline != nil {
			t.deadline.Stop()
		}
		t.res, t.err = res, err
		p.jobsDone.Add(1)
		close(t.done)
		p.jobWG.Done()
	})
}

// pendingJob is one admission-queue entry.
type pendingJob struct {
	t      *Ticket
	fid    core.FuncID
	locals uint32
	init   func(*core.Env)
	par    JobParams
	seq    uint64
}

// Pool executes task trees across Config.Workers real workers: one set
// of goroutines, arenas, deques and record tables that multiplexes every
// admitted job, one job slot each. Workers start at NewPool and outlive
// every job, parking between them.
type Pool struct {
	cfg     Config
	workers []*Worker

	done   atomic.Bool
	failMu sync.Mutex
	err    error
	wg     sync.WaitGroup

	// lot is the idle-parking lot: workers that exhaust their idle
	// spin block here until a push, a record completion, a Submit or
	// shutdown wakes them (park.go).
	lot parkingLot

	// rec is the wall-clock observability recorder (nil when Config.Obs
	// is off — every instrumented site is nil-safe).
	rec *obs.Recorder

	// --- job multiplexing ---

	// jobs is the flat per-slot job state every worker consults on the
	// invoke path (state, root handle, grain).
	jobs *sched.JobTable
	// jobMeta is the Go-side per-slot companion: the ticket to signal
	// and the cancel cause. Written under jobMu at dispatch/finalize;
	// the hot-path id read is ordered by the atomics that publish the
	// job's frames.
	jobMeta []jobMeta
	// jobMu guards the admission queue, the slot free list and ticket
	// state transitions.
	jobMu       sync.Mutex
	jobQueue    []*pendingJob
	freeSlots   []uint32
	submitSeq   uint64
	closed      bool
	activeTk    map[*Ticket]struct{}
	jobWG       sync.WaitGroup
	queuedCount atomic.Int64 // mirror of len(jobQueue), read lock-free by idle workers
	// freeSlotCount mirrors len(freeSlots). A queued job is only
	// dispatchable when a slot is free, so the park-side work hint gates
	// on both counters — otherwise idle workers would busy-spin on a
	// non-empty queue for as long as every slot stays occupied.
	freeSlotCount atomic.Int64
	anyCanceled   atomic.Int64 // jobs currently draining; gates enter's drain-at-entry test
	jobsDone      atomic.Uint64
	exited        atomic.Uint64 // workers whose goroutine has returned

	// watchdog fails the pool with a TimeoutError once budget has run
	// out: armed for the pool's lifetime by NewPool, or for one run by
	// Runtime.Run, which re-arms the same timer on a resident pool.
	watchdog *time.Timer
	budget   atomic.Int64

	// sweeps holds, per worker, the canceled tenants whose abandoned
	// records that worker must reclaim from its own table (postSweep,
	// Worker.sweep); nil until the pool's first cancel.
	sweepMu sync.Mutex
	sweeps  [][]uint64

	total Stats // the workers' counters when they stopped
}

// jobMeta is the Go-side half of a job slot.
type jobMeta struct {
	id        uint64 // global submission sequence; tags obs events
	t         *Ticket
	cancelErr error // set before the Running→Draining CAS that publishes it
}

// NewPool builds the pool and starts its workers immediately; they park
// until jobs arrive. Config.MaxWall bounds the POOL's whole lifetime
// (0 = unbounded); bound individual jobs with JobParams.MaxWall.
func NewPool(cfg Config) (*Pool, error) {
	cfg.fillDefaults()
	fc := cfg.Fault
	fc.Seed = cfg.Seed
	plan, err := fault.NewPlan(fc, cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("rt: %w", err)
	}
	p := newPool(cfg, plan)
	p.arm(cfg.MaxWall)
	for _, w := range p.workers {
		p.wg.Add(1)
		go w.run()
	}
	return p, nil
}

// newPool builds the pool's workers over recycled memory, parked and not
// yet started. plan is the fault schedule (nil: none).
func newPool(cfg Config, plan *fault.Plan) *Pool {
	p := &Pool{cfg: cfg, activeTk: make(map[*Ticket]struct{})}
	p.jobs = sched.NewJobTable(uint64(cfg.MaxJobs))
	p.jobMeta = make([]jobMeta, cfg.MaxJobs)
	p.freeSlots = make([]uint32, 0, cfg.MaxJobs)
	for i := cfg.MaxJobs - 1; i >= 0; i-- {
		p.freeSlots = append(p.freeSlots, uint32(i))
	}
	p.freeSlotCount.Store(int64(cfg.MaxJobs))
	// The interface value must be nil (not a typed nil *Plan) for the
	// resilience fast path to collapse.
	var inj sched.StealInjector
	if plan != nil {
		inj = plan
	}
	if cfg.Obs {
		p.rec = obs.NewWallRecorder(cfg.Workers, cfg.ObsRingCap)
	}
	// One Peers slice for the whole pool: every worker sees every
	// worker's memory, its own included.
	peers := make([]sched.Views, cfg.Workers)
	for i := range peers {
		peers[i] = takeWorkerMem(cfg.memKey()).Views
		w := &Worker{
			pool:     p,
			wakeCh:   make(chan struct{}, 1),
			parkSlot: -1,
		}
		w.Engine = sched.Engine{X: w, Rank: i, Peers: peers, Grain: cfg.Grain, Wlog: p.rec.Worker(i), StopFn: p.stopped, Jobs: p.jobs}
		w.Init(cfg.Seed, cfg.StealBatch, cfg.TierGroup, inj)
		w.tally = make([]jobTally, cfg.MaxJobs)
		w.curJob = ^uint32(0) // force a slot reload on the first invoke
		p.workers = append(p.workers, w)
		// Born parked: a pool starts at rest, as it is between runs, and
		// its first job or its shutdown wakes a worker (Worker.run).
		p.lot.register(w)
		p.lot.commit(w)
	}
	return p
}

// memKey is the layout of the worker memory c asks for.
func (c Config) memKey() memKey {
	return memKey{c.ArenaSize, c.DequeCap, c.RecordCap}
}

// arm (re)starts the watchdog with budget d (<= 0: none). The timer is
// built once per pool and re-armed after.
func (p *Pool) arm(d time.Duration) {
	p.budget.Store(int64(d))
	if d <= 0 {
		return
	}
	if p.watchdog == nil {
		p.watchdog = time.AfterFunc(d, func() {
			p.fail(&TimeoutError{Budget: time.Duration(p.budget.Load())})
		})
	} else {
		p.watchdog.Reset(d)
	}
}

// stop releases every worker's idle loop, including workers blocked in
// the parking lot; they wind down at their next check.
func (p *Pool) stop() {
	p.done.Store(true)
	p.lot.wakeAll()
}

// fail aborts the pool; the first error wins. The workers are winding
// down and will never finalize the outstanding tickets, so they are
// resolved here with the pool's error.
func (p *Pool) fail(err error) {
	p.failMu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.failMu.Unlock()
	p.stop()
	p.failTickets(err)
}

// failure returns the error the pool failed with (nil if none).
func (p *Pool) failure() error {
	p.failMu.Lock()
	defer p.failMu.Unlock()
	return p.err
}

// stopped reports whether workers should wind down (pool closed or
// failed). Used as the abort predicate for lock spins.
func (p *Pool) stopped() bool { return p.done.Load() }

// settle ends a run: it waits until the pool is at rest — every worker
// parked past its last write, no wake token in flight (parkingLot.commit)
// — disarms the run's watchdog, adds the workers' counters to total,
// checks quiescence and zeroes what the next run counts afresh:
// counters, the tallies' baseline and the arena's high-water mark.
// Nothing read or reset here moves until a Submit wakes a worker. A
// failure while waiting — the watchdog, a worker panic — ends the wait
// with the pool's error; so does a watchdog that fired as it ended.
func (p *Pool) settle(total *Stats) error {
	for p.lot.resting.Load() != int64(len(p.workers)) {
		if p.stopped() {
			return p.failure()
		}
		runtime.Gosched()
	}
	if p.budget.Load() > 0 && !p.watchdog.Stop() {
		return &TimeoutError{Budget: time.Duration(p.budget.Load())}
	}
	if err := p.checkPoolQuiescence(); err != nil {
		return err
	}
	for _, w := range p.workers {
		total.Add(w.FinalStats())
		w.Stats = Stats{}
		w.Res.Stats = sched.ResilienceStats{}
		w.tallied = jobTally{}
		w.Arena.Reset()
	}
	return nil
}

// Submit admits one job: fid(localsLen bytes of locals, initialised by
// init), with per-job params. It never waits for the job: a full
// admission queue returns ErrPoolSaturated immediately. When it wakes a
// parked worker it yields its time slice to it, so the job is usually
// dispatched by the time Submit returns.
func (p *Pool) Submit(fid core.FuncID, localsLen uint32, init func(*core.Env), par JobParams) (*Ticket, error) {
	if par.Weight <= 0 {
		par.Weight = 1
	}
	p.jobMu.Lock()
	if p.closed {
		p.jobMu.Unlock()
		return nil, ErrPoolClosed
	}
	if p.done.Load() {
		// The pool failed (watchdog or worker panic); surface that
		// error rather than queueing a job no worker will serve.
		p.jobMu.Unlock()
		err := p.failure()
		if err == nil {
			err = ErrPoolClosed
		}
		return nil, err
	}
	if len(p.jobQueue) >= p.cfg.QueueDepth {
		p.jobMu.Unlock()
		return nil, ErrPoolSaturated
	}
	p.submitSeq++
	t := &Ticket{id: p.submitSeq, done: make(chan struct{}), submitNS: nowNS(), state: tkQueued}
	p.jobQueue = append(p.jobQueue, &pendingJob{t: t, fid: fid, locals: localsLen, init: init, par: par, seq: p.submitSeq})
	p.queuedCount.Store(int64(len(p.jobQueue)))
	p.activeTk[t] = struct{}{}
	p.jobWG.Add(1)
	// Hooked under jobMu once the ticket is queued: the hook (its own
	// goroutine) must find a ticket cancel can act on.
	if ctx := par.Ctx; ctx != nil && ctx.Done() != nil {
		t.stopCtx = context.AfterFunc(ctx, func() { p.Cancel(t, ctx.Err()) })
	}
	p.jobMu.Unlock()
	// Queued (a seq-cst store, above) before the count load: a parker
	// that registered after the load sees the queued job in its recheck,
	// one that registered before it is seen here and claimed by the
	// wake — the square ExecSpawnBegin's bottom store → count load makes.
	// The woken worker sits in this P's run-next slot; yielding runs it
	// there and then. Left there, another thread has to steal it, and
	// the runtime's spinning M backs off (usleep(3), ~55 µs under the
	// kernel's timer slack) before it steals from a running P.
	if p.lot.wakeOne() {
		runtime.Gosched()
	}
	return t, nil
}

// Cancel requests cancellation of t with the given cause. A queued job
// is removed and finalized immediately; a running job switches to
// draining — its remaining frames are completed without running their
// bodies, co-resident jobs are untouched, and the ticket resolves to a
// JobCanceledError once the job's last chain has ended. Returns false if
// the job had already been finalized.
func (p *Pool) Cancel(t *Ticket, cause error) bool {
	if cause == nil {
		cause = errors.New("canceled")
	}
	p.jobMu.Lock()
	switch t.state {
	case tkDone:
		p.jobMu.Unlock()
		return false
	case tkQueued:
		p.unqueue(slices.IndexFunc(p.jobQueue, func(pj *pendingJob) bool { return pj.t == t }))
		t.state = tkDone
		delete(p.activeTk, t)
		p.jobMu.Unlock()
		t.deliver(p, JobResult{QueueNS: nowNS() - t.submitNS},
			&JobCanceledError{Job: t.id, Cause: cause})
		return true
	default: // tkRunning
		slot := t.slot
		meta := &p.jobMeta[slot]
		if meta.t != t {
			p.jobMu.Unlock()
			return false
		}
		// The cause must be readable by whichever worker finalizes the
		// drain: published by the Running→Draining CAS below (or by the
		// dispatcher's cancelASAP recheck).
		meta.cancelErr = &JobCanceledError{Job: t.id, Cause: cause}
		t.cancelASAP.Store(true)
		p.jobMu.Unlock()
		p.cancelRunning(slot, t.id)
		return true
	}
}

// cancelRunning flips running job id to draining. Nothing is finalized
// from here: a job that is still Running has its root frame on some
// stack or wait queue, so a chain of it is live, and the worker that
// ends its last one finds the slot Draining (jobQuiesced).
func (p *Pool) cancelRunning(slot uint32, id uint64) {
	if p.jobs.Get(slot).Advance(id, sched.JobRunning, sched.JobDraining) {
		p.anyCanceled.Add(1)
		// Parked workers must wake to steal-and-drain the job's frames.
		p.lot.wakeAll()
	}
}

// Close stops admission and shuts the pool down (shutdown). Safe to call
// once; later calls return ErrPoolClosed.
func (p *Pool) Close() error {
	p.jobMu.Lock()
	if p.closed {
		p.jobMu.Unlock()
		return ErrPoolClosed
	}
	p.closed = true
	p.jobMu.Unlock()
	return p.shutdown()
}

// shutdown waits for every admitted job to finalize, winds the workers
// down and verifies pool quiescence: no frames, no waiters, zero live
// records (every job's records returned), all slots free. A quiescent
// pool's worker memory goes back to the cache for the next one.
func (p *Pool) shutdown() error {
	p.jobWG.Wait()
	p.stop()
	p.wg.Wait()
	for _, w := range p.workers {
		// A worker that was parked or busy since a cancel's post has not
		// swept its table yet; every worker has stopped, so sweep for it.
		w.sweep()
		p.total.Add(w.FinalStats())
	}
	if p.watchdog != nil {
		p.watchdog.Stop()
	}
	err := p.failure()
	if err == nil {
		err = p.checkPoolQuiescence()
	}
	if err != nil {
		return err
	}
	k := p.cfg.memKey()
	for i, w := range p.workers { // quiescent: all the memory's next tenant needs
		putWorkerMem(workerMem{k, w.Views})
		w.Views, w.Peers[i] = sched.Views{}, sched.Views{}
	}
	return nil
}

// Obs returns the pool's wall-clock recorder (nil when off). Export it
// only after Close — the rings are read at quiescence.
func (p *Pool) Obs() *obs.Recorder { return p.rec }

// TotalStats is the sum of all workers' counters at Close.
func (p *Pool) TotalStats() Stats { return p.total }

// ParkedWorkers returns how many workers are blocked on the parking lot
// right now (safe mid-run — one atomic load).
func (p *Pool) ParkedWorkers() int { return int(p.lot.count.Load()) }

// WorkersExited returns how many worker goroutines have returned. Safe
// mid-run; it must stay 0 until Close — the proof that the pool reuses
// workers across jobs instead of recreating them.
func (p *Pool) WorkersExited() uint64 { return p.exited.Load() }

// JobsCompleted returns how many jobs have been finalized (including
// canceled and failed ones). Safe mid-run.
func (p *Pool) JobsCompleted() uint64 { return p.jobsDone.Load() }

// --- runtime-side job machinery --------------------------------------

func nowNS() int64 { return time.Now().UnixNano() }

// startQueuedJob dispatches the next admitted job onto THIS worker:
// allocate and tag a root record from the worker's own table (Alloc is
// owner-only, which is why dispatch happens on a worker, not in
// Submit), publish it in the job slot, then build and invoke the root
// frame. Called from the idle loop with an empty deque and a cleared
// arena, so the root frame has the whole region.
func (w *Worker) startQueuedJob() bool {
	p := w.pool
	if p.queuedCount.Load() == 0 || p.freeSlotCount.Load() == 0 {
		return false
	}
	pj, slot, ok := p.claimJob()
	if !ok {
		return false
	}
	js := p.jobs.Get(slot)
	js.Grain.Store(pj.par.Grain)
	js.Result.Store(0)
	tag := sched.JobTag(slot)
	rec := w.newRecord(sched.Tenant(pj.t.id))
	js.Root.Store(uint64(rec))
	js.Live.Store(1)
	w.startChain(slot)
	js.State.Store(sched.JobState(pj.t.id, sched.JobRunning))
	// Close the dispatch/cancel race: a Cancel that found the slot not
	// yet Running set cancelASAP before we stored it (see Ticket).
	if pj.t.cancelASAP.Load() {
		p.cancelRunning(slot, pj.t.id)
	}
	e := w.NewFrame(pj.fid, pj.locals, rec, tag)
	if pj.init != nil {
		pj.init(e)
	}
	w.enterShared(e)
	return true
}

// claimJob picks the admission-queue entry with the lowest seq/weight
// key (FIFO at equal weights) and binds it to a free job slot.
func (p *Pool) claimJob() (*pendingJob, uint32, bool) {
	p.jobMu.Lock()
	defer p.jobMu.Unlock()
	if len(p.jobQueue) == 0 || len(p.freeSlots) == 0 {
		return nil, 0, false
	}
	best := 0
	bestKey := float64(p.jobQueue[0].seq) / float64(p.jobQueue[0].par.Weight)
	for i := 1; i < len(p.jobQueue); i++ {
		if k := float64(p.jobQueue[i].seq) / float64(p.jobQueue[i].par.Weight); k < bestKey {
			best, bestKey = i, k
		}
	}
	// The slot is taken before the job leaves the queue, so an idle
	// worker's holdsJob never reads an empty pool in between.
	n := len(p.freeSlots) - 1
	slot := p.freeSlots[n]
	p.freeSlots = p.freeSlots[:n]
	p.freeSlotCount.Store(int64(n))
	pj := p.unqueue(best)
	meta := &p.jobMeta[slot]
	meta.id = pj.t.id
	meta.t = pj.t
	meta.cancelErr = nil
	pj.t.state = tkRunning
	pj.t.slot = slot
	// The budget runs from dispatch, so it is armed here — BEFORE the
	// stamp: the microsecond it costs is queue time, not execution.
	if t, d := pj.t, pj.par.MaxWall; d > 0 {
		t.deadline = time.AfterFunc(d, func() { p.Cancel(t, fmt.Errorf("job exceeded JobMaxWall %v", d)) })
	}
	pj.t.dispatchNS.Store(nowNS())
	return pj, slot, true
}

// unqueue removes and returns admission-queue entry i (jobMu held).
// slices.Delete zeroes the vacated tail slot, so the backing array does
// not keep the last entry's init closure and ticket alive.
func (p *Pool) unqueue(i int) *pendingJob {
	pj := p.jobQueue[i]
	p.jobQueue = slices.Delete(p.jobQueue, i, i+1)
	p.queuedCount.Store(int64(len(p.jobQueue)))
	return pj
}

// jobQuiesced runs on the worker that retired the last live-chain token
// of the job in slot: no frame of it is left on any stack or wait queue,
// and every store its tasks made to the slot and to their records
// precedes, through the RMW chain on Live, the retire that got here. The
// root's completer settled the outcome (Done) unless a cancel beat it
// (Draining); in that case the cancellation is delivered at once, and the
// records the drained frames abandoned — still tagged with the job's
// tenant, in the tables of the workers that spawned them — are posted to
// those workers to sweep (postSweep).
func (p *Pool) jobQuiesced(slot uint32) {
	js := p.jobs.Get(slot)
	meta := &p.jobMeta[slot]
	switch st := js.State.Load(); {
	case st == sched.JobState(meta.id, sched.JobDone):
		p.finalizeSlot(slot, js.Result.Load(), nil)
	case js.Advance(meta.id, sched.JobDraining, sched.JobDone):
		p.anyCanceled.Add(-1)
		tenant := sched.Tenant(meta.id) // before finalizeSlot lets the slot go
		p.finalizeSlot(slot, 0, meta.cancelErr)
		p.postSweep(tenant)
	default:
		// Still Running: the root never completed, so a frame was lost.
		panic(fmt.Sprintf("rt: job %d's last chain ended with its slot in state %#x", meta.id, st))
	}
}

// finalizeSlot releases the job's root record, delivers the ticket and
// recycles the slot. Called exactly once per dispatched job, from
// jobQuiesced.
func (p *Pool) finalizeSlot(slot uint32, result uint64, jobErr error) {
	js := p.jobs.Get(slot)
	meta := &p.jobMeta[slot]
	t := meta.t
	// Release the root record: nobody joins a root, and a sweep of the
	// job's tenant is posted only after this.
	h := core.Handle(js.Root.Load())
	p.workers[h.Rank()].Records.Release(sched.RecordIndex(h))
	// Every chain of the job has ended, so every worker's tally for the
	// slot is final and nobody else reads or writes it (Worker.tally).
	var sum jobTally
	for _, w := range p.workers {
		sum.tasks += w.tally[slot].tasks
		sum.spawns += w.tally[slot].spawns
		w.tally[slot] = jobTally{}
	}
	disp := t.dispatchNS.Load()
	res := JobResult{
		Result:  result,
		Tasks:   sum.tasks,
		Spawns:  sum.spawns,
		QueueNS: disp - t.submitNS,
		ExecNS:  nowNS() - disp,
	}
	p.jobMu.Lock()
	t.state = tkDone
	delete(p.activeTk, t)
	meta.t = nil
	js.Root.Store(0)
	js.State.Store(sched.JobFree)
	p.freeSlots = append(p.freeSlots, slot)
	p.freeSlotCount.Store(int64(len(p.freeSlots)))
	wake := len(p.jobQueue) > 0
	p.jobMu.Unlock()
	// A queued job just became dispatchable (the park-side work hint
	// gates on free slots, so parked workers ignored the queue while
	// every slot was busy). Free-count store before wake: a parker that
	// registered after the store sees it in its recheck, one that
	// registered before is claimed by this wake.
	if wake {
		p.lot.wakeOne()
	}
	t.deliver(p, res, jobErr)
}

// postSweep asks every worker to reclaim, from its own table, the records
// still tagged with a canceled job's tenant. Legal only once the job has
// quiesced and finalizeSlot has released its root: from then on nobody
// holds a handle to those records, and every store any task made to them
// precedes, through Live and sweepMu, the owner's sweep.
// No worker scans a table it does not own, so the owners' own stores to
// their records can stay plain (sched.Record). A parked worker is not
// woken for this: it sweeps when its idle loop next comes round, or
// shutdown sweeps for it.
func (p *Pool) postSweep(tenant uint64) {
	p.sweepMu.Lock()
	if p.sweeps == nil {
		p.sweeps = make([][]uint64, len(p.workers))
	}
	for i, w := range p.workers {
		p.sweeps[i] = append(p.sweeps[i], tenant)
		w.sweepPosted.Store(true)
	}
	p.sweepMu.Unlock()
}

// failTickets resolves every outstanding ticket with the pool error so
// a watchdog or worker panic can't strand submitters. Slots are not
// recycled — the pool is dead.
func (p *Pool) failTickets(err error) {
	p.jobMu.Lock()
	ts := make([]*Ticket, 0, len(p.activeTk))
	for t := range p.activeTk {
		t.state = tkDone
		ts = append(ts, t)
	}
	clear(p.activeTk)
	p.jobQueue = nil
	p.queuedCount.Store(0)
	p.jobMu.Unlock()
	for _, t := range ts {
		t.deliver(p, JobResult{}, err)
	}
}

// checkPoolQuiescence is the analogue of the simulator's
// Machine.CheckQuiescence: after the last job no frame, waiter or record
// may survive anywhere (job roots included — finalizeSlot released
// them), no record may still name a waiter, and every slot must be back
// on the free list.
func (p *Pool) checkPoolQuiescence() error {
	live := 0
	for _, w := range p.workers {
		if n := w.Deque.Size(); n != 0 {
			return fmt.Errorf("rt: worker %d deque holds %d entries after pool close", w.Rank, n)
		}
		if n := w.Suspended(); n != 0 {
			return fmt.Errorf("rt: worker %d wait queue holds %d suspended threads after pool close", w.Rank, n)
		}
		live += w.Records.Live()
		if n := w.Records.Waiters(); n != 0 {
			return fmt.Errorf("rt: %d of worker %d's records name a waiter after pool close", n, w.Rank)
		}
	}
	if live != 0 {
		return fmt.Errorf("rt: %d records live after pool close, want 0", live)
	}
	for i := 0; i < p.cfg.MaxJobs; i++ {
		if st := p.jobs.Get(uint32(i)).State.Load(); st != sched.JobFree {
			return fmt.Errorf("rt: job slot %d in state %#x after pool close, want free", i, st)
		}
	}
	if len(p.freeSlots) != p.cfg.MaxJobs {
		return fmt.Errorf("rt: %d of %d job slots free after pool close", len(p.freeSlots), p.cfg.MaxJobs)
	}
	return nil
}
