package rt

import (
	"fmt"
	"sync/atomic"

	"uniaddr/internal/core"
	"uniaddr/internal/mem"
	"uniaddr/internal/obs"
	"uniaddr/internal/sched"
)

// Stats is one worker's scheduling counters: the shared engine's.
type Stats = sched.WorkerStats

// Worker is one scheduling context: a plain goroutine (not pinned: see
// DESIGN.md §10) running the shared scheduling engine over memory
// recycled across pools (memcache.go). The Engine is the mechanism —
// frames, Envs, join, resume, steal; this file is rt's policy: the park
// ladder, job multiplexing and the functions on the task path that bear
// it. Worker implements core.Exec (half of it promoted from the Engine),
// so task functions written against core.Env run on it unchanged.
type Worker struct {
	sched.Engine
	pool *Pool

	// Idle engine / parking (see park.go).
	idle     idleState
	wakeCh   chan struct{} // 1-buffered wake token; see parkingLot
	parkSlot int32         // index in lot.parked; -1 when not registered
	// sweepPosted says Pool.sweeps holds canceled tenants for this
	// worker to sweep (postSweep), without the lock, for the idle loop.
	// It shares parkSlot's 8-byte word, which keeps Worker in its
	// allocation size class.
	sweepPosted atomic.Bool
	// idleSpins counts idle-loop rounds. Atomic because quiescence tests
	// sample it mid-run to prove parked workers have stopped spinning.
	idleSpins atomic.Uint64

	// tally is this worker's share of each job slot's Report counts,
	// and tallied what Stats read when its last chain ended. Plain words:
	// endChain adds a chain's Stats delta to the slot's tally BEFORE it
	// retires the chain's token, and the finalizer reads (and zeroes)
	// every worker's tally only after it took JobSlot.Live to 0 — the
	// RMW chain on Live is the happens-before edge. Nothing on the task
	// path counts for a job.
	tally   []jobTally
	tallied jobTally
	// curJob / curJobID / curSlot cache the job the last invoked frame
	// belonged to (owner-only; ^uint32(0) = none yet). curJobID guards
	// against a slot being recycled to a new job between two frames.
	// Spawns, completions and nested entries inside a task body all
	// belong to that frame's job, so they take it from here; Engine.Grain
	// is reloaded from the slot with them.
	curJob uint32
	// resting: parked past the recheck, no token in flight (guarded by
	// the lot's mutex; parkingLot.commit). It sits in curJob's padding,
	// which keeps Worker in its allocation size class.
	resting  bool
	curJobID uint64
	curSlot  *sched.JobSlot
}

// jobTally is one worker's executed/spawned counts for one job.
type jobTally struct{ tasks, spawns uint64 }

// run is the worker goroutine body, the idle engine: pop local work,
// else clear dead stacks, resume a READY waiter, dispatch a queued job
// or steal, else back off into the parking lot (Fig. 7's fallback chain
// with the blocking tail described in DESIGN.md §10).
func (w *Worker) run() {
	defer w.pool.wg.Done()
	defer w.pool.exited.Add(1)
	defer func() {
		if r := recover(); r != nil {
			w.pool.fail(fmt.Errorf("rt: worker %d panicked: %v", w.Rank, r))
		}
	}()
	w.await() // born parked (newPool)
	for !w.pool.stopped() {
		if ent, ok := w.Deque.Pop(w.StopFn); ok {
			w.Stats.ResumesLocal++
			w.invoke(ent.FrameBase, ent.FrameSize)
			w.idle.reset()
			continue
		}
		// Deque empty and nothing running: whatever occupies the arena
		// is dead local copies of stolen threads. Reclaim, making the
		// region empty so it can host a steal (§5.2 rule 5).
		if !w.ClearDead() {
			return
		}
		// The Pop above settled "empty" under the deque lock: our stack
		// has run dry, so whatever chain we held ends here. That may
		// finalize its job. Then reclaim our records of any canceled job
		// posted to us since the last round.
		w.endChain()
		w.sweep()
		if w.pool.stopped() {
			return
		}
		// Resume before steal: a ready waiter is guaranteed-productive
		// local work, a steal probe is speculative remote work.
		if base, size, ok := w.ResumeReady(); ok {
			w.invoke(base, size)
			w.idle.reset()
			continue
		}
		// Dispatch before steal: an idle worker serves admission latency
		// first — a queued job's root beats speculative remote probes
		// (stealing then balances the tree).
		if w.startQueuedJob() {
			w.idle.reset()
			continue
		}
		if n := w.TrySteal(); n > 0 {
			// Extra entries just became stealable from us: release a
			// parked worker so the fan-out actually happens.
			if n > 1 {
				w.pool.lot.wakeOne()
			}
			if ent, ok := w.Deque.Pop(w.StopFn); ok {
				w.invoke(ent.FrameBase, ent.FrameSize)
			}
			w.idle.reset()
			continue
		}
		w.idlePark()
	}
}

// startChain records that this worker's stack now belongs to the job in
// slot, whose JobSlot.Live the dispatcher stored 1 into: the root chain's
// token.
func (w *Worker) startChain(slot uint32) {
	w.Chain = uint32(sched.JobTag(slot))
	w.Stats.ChainTokens++
}

// endChain retires the token of the chain this worker held, if any. Its
// caller's Pop answered "empty" under the deque lock — the same lock
// inside which a thief mints before it commits — so every chain split
// off this one already holds a token of its own, and Live can reach 0
// only when no frame of the job is left on any stack or wait queue.
// Whoever takes it there finalizes the job.
func (w *Worker) endChain() {
	if w.Chain == 0 {
		return
	}
	slot := w.Chain - 1
	w.Chain = 0
	t := &w.tally[slot]
	t.tasks += w.Stats.TasksExecuted - w.tallied.tasks
	t.spawns += w.Stats.Spawns - w.tallied.spawns
	w.tallied = jobTally{w.Stats.TasksExecuted, w.Stats.Spawns}
	w.Stats.ChainEnds++
	if w.pool.jobs.Get(slot).Live.Add(-1) == 0 {
		w.pool.jobQuiesced(slot)
	}
}

// sweep reclaims this worker's records of the canceled tenants posted to
// it, if any: the owner's half of a drain (Pool.postSweep). Called
// from the idle loop and by shutdown once the workers have stopped.
func (w *Worker) sweep() {
	if !w.sweepPosted.Load() {
		return
	}
	p := w.pool
	p.sweepMu.Lock()
	w.Records.SweepTenants(p.sweeps[w.Rank])
	p.sweeps[w.Rank] = p.sweeps[w.Rank][:0]
	w.sweepPosted.Store(false)
	p.sweepMu.Unlock()
}

// invoke runs (or resumes) the thread whose stack starts at base. On
// return the stack is no longer occupied here: Done threads are
// retired; Unwound threads were swapped out by a suspend or released
// after a steal, inside ExecJoin/ExecSpawnRun.
func (w *Worker) invoke(base mem.VA, size uint64) core.Status {
	return w.enterShared(w.GetEnv(base, w.Arena.MustSlice(base, size), 0))
}

// enterShared enters a thread that is not an inline child — a root, or a
// frame the scheduler loop popped, stole or resumed — and publishes its
// completion the shared way: its record's handle may be anywhere.
func (w *Worker) enterShared(e *core.Env) core.Status {
	st, rec := w.enter(e)
	if st == core.Done {
		w.publish(rec)
	}
	return st
}

// enter is invoke on a pooled Env already addressing the frame (a spawned
// child runs in the Env its init wrote through); it recycles e. It
// returns the thread's record with its status: a Done thread's result is
// recorded (ExecComplete) but not yet published — that is the caller's.
func (w *Worker) enter(e *core.Env) (core.Status, core.Handle) {
	base, size := e.FrameBase(), e.FrameSize()
	fid, resume, job, rec := core.FrameEntry(e.Header())
	// Switch this worker's cached job context if the frame belongs to
	// another job (steals interleave jobs on one worker). The id recheck
	// catches a slot recycled to a new job between two frames.
	if slot := job - 1; slot != w.curJob || w.pool.jobMeta[slot].id != w.curJobID {
		w.curJob = slot
		w.curJobID = w.pool.jobMeta[slot].id
		w.curSlot = w.pool.jobs.Get(slot)
		w.Grain = w.curSlot.Grain.Load()
		w.Wlog.SetJob(w.curJobID)
	}
	// Canceled job: complete the frame without running its body. Every
	// task of a draining job is reached exactly once — it is popped,
	// stolen or resumed like any other frame — so its chains still run
	// dry one by one, and completing the record here is what unblocks
	// (and in turn drains) any parent suspended on it. Records the frame
	// held handles to are reclaimed by their owners once the job has
	// quiesced (Pool.postSweep).
	if w.pool.anyCanceled.Load() > 0 && sched.JobPhase(w.curSlot.State.Load()) == sched.JobDraining {
		w.ExecComplete(rec, 0)
		w.Stats.TasksExecuted++
		w.Stats.TasksDrained++
		if err := w.Arena.FreeLowest(base, size); err != nil {
			panic(err)
		}
		w.PutEnv(e)
		return core.Done, rec
	}
	e.Rearm(resume)
	ts := w.Wlog.Clock()
	st := core.TaskFn(fid)(e)
	w.Wlog.Emit(obs.KTask, ts, w.Wlog.Clock()-ts, uint64(fid), 0, -1)
	if st == core.Done {
		if !e.Returned() {
			w.ExecComplete(rec, 0)
		}
		w.Stats.TasksExecuted++
		if err := w.Arena.FreeLowest(base, size); err != nil {
			panic(err)
		}
	}
	w.PutEnv(e)
	return st, rec
}

// publish makes a completion visible to a joiner that may be on another
// worker: store done (seq-cst) after the result ExecComplete wrote, so
// any joiner observing done observes the result. If a joiner recorded
// itself as the record's waiter before we stored done, wake that worker
// precisely; the seq-cst done-store→waiter-load order pairs with the
// joiner's waiter-store→done-load recheck so at least one side always
// sees the other (DESIGN.md §10).
//
// The completing frame is the one this worker just ran, so its job is
// w.curJob, and this worker holds one of that job's live-chain tokens
// until its stack runs dry (endChain) — which is what keeps the slot and
// the record from being finalized, swept or recycled under the accesses
// below. No job word is modified here except by the root, which settles
// the outcome: a root that loses the CAS lost it to a cancel, and the job
// reports canceled. Delivery waits for the job's last chain to end
// (DESIGN.md §15).
func (w *Worker) publish(rec core.Handle) {
	r := w.Record(rec)
	js := w.curSlot
	r.Job.Store(sched.RecordDone(sched.Tenant(w.curJobID)))
	w.Stats.SharedPublishes++
	if wr := r.Waiter.Load(); wr != 0 {
		w.pool.lot.wakeWorker(w.pool.workers[wr-1])
	}
	if uint64(rec) == js.Root.Load() {
		// Nobody joins a root: its record is still ours to read.
		js.Result.Store(r.Result)
		js.Advance(w.curJobID, sched.JobRunning, sched.JobDone)
	}
}

// publishLocal publishes the completion of an inline child whose
// parent's Pop won: the parent's frame — the one place the child's
// handle lives — never left this worker, so nobody else can be polling
// the record, waiting on it or comparing it with a root. A plain store;
// the next Push's bottom store publishes it to any thief that later takes
// the parent, with the deque slots (DESIGN.md §9).
func (w *Worker) publishLocal(rec core.Handle) {
	w.Record(rec).StorePlain(sched.RecordDone(sched.Tenant(w.curJobID)))
}

// --- core.Exec, the half that bears rt's policy ------------------------

// ExecComplete records a task's result in its record: a plain word, read
// by a joiner only after it saw the done bit. Publishing it is left to
// enter's caller, which knows whether anyone else can be looking
// (publish, publishLocal).
func (w *Worker) ExecComplete(rec core.Handle, result uint64) {
	w.Record(rec).Result = result
}

// ExecSpawnBegin is the child-first spawn (Fig. 4) on real concurrency
// up to the child's init: save the parent's resume point, publish its
// continuation on the deque, build the child frame. From the Push on a
// thief may take the parent, so init must not write it.
func (w *Worker) ExecSpawnBegin(e *core.Env, resumeRP, handleSlot int, fid core.FuncID, localsLen uint32, _ bool) *core.Env {
	w.Stats.Spawns++
	core.SetFrameResume(e.Header(), uint32(resumeRP))
	// The child's record and frame carry the spawning frame's job (its
	// tenant and its slot's tag), cached by the enter that started this
	// task.
	rec := w.newRecord(sched.Tenant(w.curJobID))
	// The child's handle lands in the parent's frame BEFORE the
	// continuation is published, so a migrated parent finds it.
	e.SetHandle(handleSlot, rec)
	if err := w.Deque.Push(sched.Entry{FrameBase: e.FrameBase(), FrameSize: e.FrameSize()}); err != nil {
		panic(err)
	}
	// Work just became stealable: release one parked worker, if any.
	w.pool.lot.wakeOne()
	return w.NewFrame(fid, localsLen, rec, sched.JobTag(w.curJob))
}

// ExecSpawnRun runs the child inline, then pops the continuation — a
// failed pop means a real concurrent thief took the parent — and only
// then publishes the child's completion: plainly if the Pop won, the
// shared way if the parent, and the child's handle with it, was stolen.
func (w *Worker) ExecSpawnRun(e, child *core.Env) bool {
	st, rec := w.enter(child)
	// Pop the continuation we pushed (Fig. 4 line 14).
	if ent, ok := w.Deque.Pop(w.StopFn); ok {
		if ent.FrameBase != e.FrameBase() || ent.FrameSize != e.FrameSize() {
			panic(fmt.Sprintf("rt: deque corruption: popped %#x/%d, expected %#x/%d",
				ent.FrameBase, ent.FrameSize, e.FrameBase(), e.FrameSize()))
		}
		if st == core.Done {
			w.publishLocal(rec)
		}
		return true
	}
	// The continuation (and, by FIFO order, every ancestor's) was
	// stolen by a genuinely concurrent thief. Release the dead local
	// copy and unwind to the scheduler.
	if st == core.Done {
		w.publish(rec)
	}
	w.Stats.ParentStolen++
	if err := w.Arena.FreeLowest(e.FrameBase(), e.FrameSize()); err != nil {
		panic(err)
	}
	return false
}

// newRecord allocates a record on this worker's pool and opens it
// pending under its job's tenant — a plain store, made before the handle
// can escape to another worker.
func (w *Worker) newRecord(tenant uint64) core.Handle {
	idx, err := w.Records.Alloc()
	if err != nil {
		panic(err)
	}
	w.Records.Get(idx).StorePlain(sched.RecordPending(tenant))
	return sched.RecordHandle(w.Rank, idx)
}
