package rt

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"uniaddr/internal/core"
	"uniaddr/internal/obs"
	"uniaddr/internal/sched"
)

// The worker pool: the same Config.Workers goroutines, arenas, deques
// and record tables serve MANY task trees, submitted while the pool
// runs (Runtime.Run is this pool serving one). Workers park between jobs
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

// Ticket state, guarded by Runtime.jobMu.
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

	// Guarded by Runtime.jobMu:
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
func (t *Ticket) deliver(r *Runtime, res JobResult, err error) {
	t.once.Do(func() {
		if t.stopCtx != nil {
			t.stopCtx()
		}
		if t.deadline != nil {
			t.deadline.Stop()
		}
		t.res, t.err = res, err
		r.jobsDone.Add(1)
		close(t.done)
		r.jobWG.Done()
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

// Pool is a started runtime that stays open for jobs: workers start at
// NewPool and outlive every job, parking between them.
type Pool struct {
	r *Runtime
}

// NewPool builds the runtime and starts its workers immediately; they
// park until jobs arrive. Config.MaxWall bounds the POOL's whole
// lifetime (0 = unbounded); bound individual jobs with JobParams.MaxWall.
func NewPool(cfg Config) (*Pool, error) {
	r := newRuntime(cfg)
	if r.initErr != nil {
		return nil, r.initErr
	}
	r.start()
	return &Pool{r: r}, nil
}

// Submit admits one job: fid(localsLen bytes of locals, initialised by
// init), with per-job params. It never blocks: a full admission queue
// returns ErrPoolSaturated immediately.
func (p *Pool) Submit(fid core.FuncID, localsLen uint32, init func(*core.Env), par JobParams) (*Ticket, error) {
	r := p.r
	if par.Weight <= 0 {
		par.Weight = 1
	}
	r.jobMu.Lock()
	if r.closed {
		r.jobMu.Unlock()
		return nil, ErrPoolClosed
	}
	if r.done.Load() {
		// The pool failed (watchdog or worker panic); surface that
		// error rather than queueing a job no worker will serve.
		r.jobMu.Unlock()
		r.failMu.Lock()
		err := r.err
		r.failMu.Unlock()
		if err == nil {
			err = ErrPoolClosed
		}
		return nil, err
	}
	if len(r.jobQueue) >= r.cfg.QueueDepth {
		r.jobMu.Unlock()
		return nil, ErrPoolSaturated
	}
	r.submitSeq++
	t := &Ticket{id: r.submitSeq, done: make(chan struct{}), submitNS: nowNS(), state: tkQueued}
	r.jobQueue = append(r.jobQueue, &pendingJob{t: t, fid: fid, locals: localsLen, init: init, par: par, seq: r.submitSeq})
	r.queuedCount.Store(int64(len(r.jobQueue)))
	r.activeTk[t] = struct{}{}
	r.jobWG.Add(1)
	// Hooked under jobMu once the ticket is queued: the hook (its own
	// goroutine) must find a ticket cancel can act on.
	if ctx := par.Ctx; ctx != nil && ctx.Done() != nil {
		t.stopCtx = context.AfterFunc(ctx, func() { r.cancel(t, ctx.Err()) })
	}
	r.jobMu.Unlock()
	// Queued before waking: a parker that registered after our store
	// either sees the count in its recheck or is claimed by this wake.
	r.lot.wakeOne()
	return t, nil
}

// Cancel requests cancellation of t with the given cause. A queued job
// is removed and finalized immediately; a running job switches to
// draining — its remaining frames are completed without running their
// bodies, co-resident jobs are untouched, and the ticket resolves to a
// JobCanceledError once the job's last chain has ended. Returns false if
// the job had already been finalized.
func (p *Pool) Cancel(t *Ticket, cause error) bool { return p.r.cancel(t, cause) }

func (r *Runtime) cancel(t *Ticket, cause error) bool {
	if cause == nil {
		cause = errors.New("canceled")
	}
	r.jobMu.Lock()
	switch t.state {
	case tkDone:
		r.jobMu.Unlock()
		return false
	case tkQueued:
		r.unqueue(slices.IndexFunc(r.jobQueue, func(pj *pendingJob) bool { return pj.t == t }))
		t.state = tkDone
		delete(r.activeTk, t)
		r.jobMu.Unlock()
		t.deliver(r, JobResult{QueueNS: nowNS() - t.submitNS},
			&JobCanceledError{Job: t.id, Cause: cause})
		return true
	default: // tkRunning
		slot := t.slot
		meta := &r.jobMeta[slot]
		if meta.t != t {
			r.jobMu.Unlock()
			return false
		}
		// The cause must be readable by whichever worker finalizes the
		// drain: published by the Running→Draining CAS below (or by the
		// dispatcher's cancelASAP recheck).
		meta.cancelErr = &JobCanceledError{Job: t.id, Cause: cause}
		t.cancelASAP.Store(true)
		r.jobMu.Unlock()
		r.cancelRunning(slot, t.id)
		return true
	}
}

// cancelRunning flips running job id to draining. Nothing is finalized
// from here: a job that is still Running has its root frame on some
// stack or wait queue, so a chain of it is live, and the worker that
// ends its last one finds the slot Draining (jobQuiesced).
func (r *Runtime) cancelRunning(slot uint32, id uint64) {
	if r.jobs.Get(slot).Advance(id, sched.JobRunning, sched.JobDraining) {
		r.anyCanceled.Add(1)
		// Parked workers must wake to steal-and-drain the job's frames.
		r.lot.wakeAll()
	}
}

// Close stops admission and shuts the pool down (shutdown). Safe to call
// once; later calls return ErrPoolClosed.
func (p *Pool) Close() error {
	r := p.r
	r.jobMu.Lock()
	if r.closed {
		r.jobMu.Unlock()
		return ErrPoolClosed
	}
	r.closed = true
	r.jobMu.Unlock()
	return r.shutdown()
}

// shutdown waits for every admitted job to finalize, winds the workers
// down and verifies pool quiescence: no frames, no waiters, zero live
// records (every job's records returned), all slots free. A quiescent
// pool's worker memory goes back to the cache for the next one.
func (r *Runtime) shutdown() error {
	r.jobWG.Wait()
	r.stop()
	r.wg.Wait()
	for _, w := range r.workers {
		// A worker that was parked or busy since a cancel's post has not
		// swept its table yet; every worker has stopped, so sweep for it.
		w.sweep()
		r.total.Add(w.FinalStats())
	}
	if r.watchdog != nil {
		r.watchdog.Stop()
	}
	r.failMu.Lock()
	err := r.err
	r.failMu.Unlock()
	if err == nil {
		err = r.checkPoolQuiescence()
	}
	if err != nil {
		return err
	}
	k := r.cfg.memKey()
	for i, w := range r.workers { // quiescent: all the memory's next tenant needs
		putWorkerMem(workerMem{k, w.Views})
		w.Views, w.Peers[i] = sched.Views{}, sched.Views{}
	}
	return nil
}

// Obs returns the pool's wall-clock recorder (nil when off). Export it
// only after Close — the rings are read at quiescence.
func (p *Pool) Obs() *obs.WallRecorder { return p.r.Obs() }

// TotalStats is the sum of all workers' counters at Close.
func (p *Pool) TotalStats() Stats { return p.r.total }

// ParkedWorkers returns how many workers are blocked on the parking lot
// right now (safe mid-run — one atomic load).
func (p *Pool) ParkedWorkers() int { return p.r.ParkedWorkers() }

// WorkersExited returns how many worker goroutines have returned. Safe
// mid-run; it must stay 0 until Close — the proof that the pool reuses
// workers across jobs instead of recreating them.
func (p *Pool) WorkersExited() uint64 { return p.r.exited.Load() }

// JobsCompleted returns how many jobs have been finalized (including
// canceled and failed ones). Safe mid-run.
func (p *Pool) JobsCompleted() uint64 { return p.r.jobsDone.Load() }

// --- runtime-side job machinery --------------------------------------

func nowNS() int64 { return time.Now().UnixNano() }

// startQueuedJob dispatches the next admitted job onto THIS worker:
// allocate and tag a root record from the worker's own table (Alloc is
// owner-only, which is why dispatch happens on a worker, not in
// Submit), publish it in the job slot, then build and invoke the root
// frame. Called from the idle loop with an empty deque and a cleared
// arena, so the root frame has the whole region.
func (w *Worker) startQueuedJob() bool {
	r := w.rt
	if r.queuedCount.Load() == 0 || r.freeSlotCount.Load() == 0 {
		return false
	}
	pj, slot, ok := r.claimJob()
	if !ok {
		return false
	}
	js := r.jobs.Get(slot)
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
		r.cancelRunning(slot, pj.t.id)
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
func (r *Runtime) claimJob() (*pendingJob, uint32, bool) {
	r.jobMu.Lock()
	defer r.jobMu.Unlock()
	if len(r.jobQueue) == 0 || len(r.freeSlots) == 0 {
		return nil, 0, false
	}
	best := 0
	bestKey := float64(r.jobQueue[0].seq) / float64(r.jobQueue[0].par.Weight)
	for i := 1; i < len(r.jobQueue); i++ {
		if k := float64(r.jobQueue[i].seq) / float64(r.jobQueue[i].par.Weight); k < bestKey {
			best, bestKey = i, k
		}
	}
	pj := r.unqueue(best)
	n := len(r.freeSlots) - 1
	slot := r.freeSlots[n]
	r.freeSlots = r.freeSlots[:n]
	r.freeSlotCount.Store(int64(n))
	meta := &r.jobMeta[slot]
	meta.id = pj.t.id
	meta.t = pj.t
	meta.cancelErr = nil
	pj.t.state = tkRunning
	pj.t.slot = slot
	// The budget runs from dispatch, so it is armed here — BEFORE the
	// stamp: the microsecond it costs is queue time, not execution.
	if t, d := pj.t, pj.par.MaxWall; d > 0 {
		t.deadline = time.AfterFunc(d, func() { r.cancel(t, fmt.Errorf("job exceeded JobMaxWall %v", d)) })
	}
	pj.t.dispatchNS.Store(nowNS())
	return pj, slot, true
}

// unqueue removes and returns admission-queue entry i (jobMu held).
// slices.Delete zeroes the vacated tail slot, so the backing array does
// not keep the last entry's init closure and ticket alive.
func (r *Runtime) unqueue(i int) *pendingJob {
	pj := r.jobQueue[i]
	r.jobQueue = slices.Delete(r.jobQueue, i, i+1)
	r.queuedCount.Store(int64(len(r.jobQueue)))
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
func (r *Runtime) jobQuiesced(slot uint32) {
	js := r.jobs.Get(slot)
	meta := &r.jobMeta[slot]
	switch st := js.State.Load(); {
	case st == sched.JobState(meta.id, sched.JobDone):
		r.finalizeSlot(slot, js.Result.Load(), nil)
	case js.Advance(meta.id, sched.JobDraining, sched.JobDone):
		r.anyCanceled.Add(-1)
		tenant := sched.Tenant(meta.id) // before finalizeSlot lets the slot go
		r.finalizeSlot(slot, 0, meta.cancelErr)
		r.postSweep(tenant)
	default:
		// Still Running: the root never completed, so a frame was lost.
		panic(fmt.Sprintf("rt: job %d's last chain ended with its slot in state %#x", meta.id, st))
	}
}

// finalizeSlot releases the job's root record, delivers the ticket and
// recycles the slot. Called exactly once per dispatched job, from
// jobQuiesced.
func (r *Runtime) finalizeSlot(slot uint32, result uint64, jobErr error) {
	js := r.jobs.Get(slot)
	meta := &r.jobMeta[slot]
	t := meta.t
	// Release the root record: nobody joins a root, and a sweep of the
	// job's tenant is posted only after this.
	h := core.Handle(js.Root.Load())
	r.workers[h.Rank()].Records.Release(sched.RecordIndex(h))
	// Every chain of the job has ended, so every worker's tally for the
	// slot is final and nobody else reads or writes it (Worker.tally).
	var sum jobTally
	for _, w := range r.workers {
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
	r.jobMu.Lock()
	t.state = tkDone
	delete(r.activeTk, t)
	meta.t = nil
	js.Root.Store(0)
	js.State.Store(sched.JobFree)
	r.freeSlots = append(r.freeSlots, slot)
	r.freeSlotCount.Store(int64(len(r.freeSlots)))
	wake := len(r.jobQueue) > 0
	last := r.closed && len(r.activeTk) == 0
	r.jobMu.Unlock()
	// A queued job just became dispatchable (the park-side work hint
	// gates on free slots, so parked workers ignored the queue while
	// every slot was busy). Free-count store before wake: a parker that
	// registered after the store sees it in its recheck, one that
	// registered before is claimed by this wake.
	if wake {
		r.lot.wakeOne()
	}
	t.deliver(r, res, jobErr)
	if last {
		// Admission is closed and this was the last job: stop the workers
		// now rather than after their idle rounds.
		r.stop()
	}
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
func (r *Runtime) postSweep(tenant uint64) {
	r.sweepMu.Lock()
	if r.sweeps == nil {
		r.sweeps = make([][]uint64, len(r.workers))
	}
	for i, w := range r.workers {
		r.sweeps[i] = append(r.sweeps[i], tenant)
		w.sweepPosted.Store(true)
	}
	r.sweepMu.Unlock()
}

// failTickets resolves every outstanding ticket with the pool error so
// a watchdog or worker panic can't strand submitters. Slots are not
// recycled — the pool is dead.
func (r *Runtime) failTickets(err error) {
	r.jobMu.Lock()
	ts := make([]*Ticket, 0, len(r.activeTk))
	for t := range r.activeTk {
		t.state = tkDone
		ts = append(ts, t)
	}
	clear(r.activeTk)
	r.jobQueue = nil
	r.queuedCount.Store(0)
	r.jobMu.Unlock()
	for _, t := range ts {
		t.deliver(r, JobResult{}, err)
	}
}

// checkPoolQuiescence is the analogue of the simulator's
// Machine.CheckQuiescence: after the last job no frame, waiter or record
// may survive anywhere (job roots included — finalizeSlot released
// them), no record may still name a waiter, and every slot must be back
// on the free list.
func (r *Runtime) checkPoolQuiescence() error {
	live := 0
	for _, w := range r.workers {
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
	for i := 0; i < r.cfg.MaxJobs; i++ {
		if st := r.jobs.Get(uint32(i)).State.Load(); st != sched.JobFree {
			return fmt.Errorf("rt: job slot %d in state %#x after pool close, want free", i, st)
		}
	}
	if len(r.freeSlots) != r.cfg.MaxJobs {
		return fmt.Errorf("rt: %d of %d job slots free after pool close", len(r.freeSlots), r.cfg.MaxJobs)
	}
	return nil
}
