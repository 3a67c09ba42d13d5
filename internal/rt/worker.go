package rt

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"uniaddr/internal/core"
	"uniaddr/internal/gas"
	"uniaddr/internal/mem"
	"uniaddr/internal/obs"
	"uniaddr/internal/sched"
)

// Stats counts one worker's scheduling events — the wall-clock
// counterparts of core.WorkerStats. Owner-written during the run; read
// by other goroutines only after Runtime.Run returns (WaitGroup edge).
type Stats struct {
	TasksExecuted uint64
	// TasksDrained counts frames completed WITHOUT running their body
	// because their job was canceled (a subset of TasksExecuted — the
	// quiescence arithmetic treats a drained task as executed).
	TasksDrained uint64
	Spawns       uint64
	JoinsFast    uint64
	JoinsMiss    uint64
	Suspends     uint64
	ResumesLocal uint64
	ResumesWait  uint64
	ParentStolen uint64

	StealAttempts   uint64
	StealsOK        uint64
	StealAbortEmpty uint64
	StealAbortLock  uint64
	BytesStolen     uint64

	// Steal-half batching: StealBatches counts successful batched
	// round trips, StealBatchEntries the entries they moved (so the
	// mean batch width is StealBatchEntries/StealBatches; StealsOK
	// counts the same entries for continuity with older reports).
	StealBatches      uint64
	StealBatchEntries uint64

	// Steal-hint counters: probes routed by a victim's deque size or
	// by the last-successful-victim cache, vs blind random probes. Every
	// StealAttempt falls into exactly one bucket.
	StealHintProbes  uint64
	StealCacheProbes uint64
	StealBlindProbes uint64

	// Parks counts idle-parking episodes (worker went to sleep on the
	// parking lot); Wakes counts the wake tokens the worker consumed
	// (including a token claimed between register and cancel).
	Parks uint64
	Wakes uint64

	WorkCycles   uint64
	MaxStackUsed uint64

	// Fault-resilience counters (non-zero only under injection; see
	// sched.ResilienceStats, whose fields these mirror).
	StealFaults      uint64
	StealRetries     uint64
	StealRollbacks   uint64
	StealAbortsFault uint64
	VictimBlacklists uint64
	FaultBackoffNS   uint64
}

// savedCtx is a suspended thread parked on the Go heap — the rt
// analogue of the simulator's swap-out into the pinned RDMA region
// (Fig. 8): the frame bytes leave the uni-address region so stealing
// stays legal, and return to their original VA on resume. rec is the
// record the thread is joining on; the idle loop resumes a saved
// context only once rec completes, so a resume never bounces back into
// a re-suspend.
type savedCtx struct {
	base mem.VA
	size uint64
	buf  []byte
	rec  *sched.Record
}

// ctxPoolCap / envPoolCap bound the per-worker free lists so a burst of
// suspends (PingPong holds hundreds of saved contexts at once) cannot
// pin an unbounded amount of memory after it drains.
const (
	ctxPoolCap = 64
	envPoolCap = 64
)

// Worker is one scheduling context: a plain goroutine (not pinned: see
// DESIGN.md §10), its uni-address arena, its deque and its record pool.
// It implements core.Exec, so task functions written against core.Env
// run on it unchanged.
type Worker struct {
	rt        *Runtime
	rank      int
	workerMem // arena, deque, records: recycled across pools (memcache.go)
	waitq     []savedCtx
	rng       *rand.Rand
	stats     Stats
	spin      uint64 // ExecWork sink; kept per-worker to avoid false sharing

	// stopFn is w.rt.stopped pre-bound once: passing the method value
	// directly to Deque.Pop allocated a closure per pop — once per task
	// on the spawn path.
	stopFn func() bool

	// Idle engine / parking (see park.go).
	idle     idleState
	wakeCh   chan struct{} // 1-buffered wake token; see parkingLot
	parkSlot int32         // index in lot.parked; -1 when not registered
	// idleSpins counts idle-loop rounds. Atomic because quiescence tests
	// sample it mid-run to prove parked workers have stopped spinning.
	idleSpins atomic.Uint64

	// lastVictim caches the rank of the last successful steal victim
	// (-1 none); owner-only (see hints.go).
	lastVictim int32

	// tiers orders potential victims by rank-group distance; the hint
	// sweep walks them near-to-far (see hints.go and sched.BuildTiers).
	tiers [sched.NumTiers][]int

	// stealBuf is the reusable batch buffer for StealBatchFrom, sized
	// to the configured per-steal entry bound (owner-only).
	stealBuf []sched.Entry

	// grain is the CURRENT job's granularity cutoff, surfaced to
	// workloads via ExecGrain; reloaded from the job slot when an
	// invoked frame switches the worker onto another job.
	grain uint64

	// jobCounts is this worker's per-job-slot spawn/executed pairs: the
	// per-task bumps land on lines only this worker writes, and the
	// rare per-job quiescence checks sum across workers (sched.JobCount).
	jobCounts *sched.JobCounters
	// curJob / curJobID / curSlot cache the job the last invoked frame
	// belonged to (owner-only; ^uint32(0) = none yet). curJobID guards
	// against a slot being recycled to a new job between two frames.
	// Spawns, completions and nested entries inside a task body all
	// belong to that frame's job, so they take it from here.
	curJob   uint32
	curJobID uint64
	curSlot  *sched.JobSlot

	// res is the thief-side fault state machine (owner-only); with no
	// injector configured it is dormant and free (see sched.Resilience).
	res *sched.Resilience

	// wlog is this worker's wall-clock event ring (nil when obs is off;
	// every emission is a nil-safe method call).
	wlog *obs.WallLog

	// Per-worker free lists (owner-only): suspended-context buffers and
	// task Envs, recycled instead of heap-allocated per use.
	ctxFree [][]byte
	envFree []*core.Env
}

// Rank returns the worker's index.
func (w *Worker) Rank() int { return w.rank }

// Stats returns the worker's counters; call only after Run returns.
func (w *Worker) Stats() Stats {
	s := w.stats
	s.MaxStackUsed = w.arena.Max()
	rs := w.res.Stats
	s.StealFaults = rs.StealFaults
	s.StealRetries = rs.StealRetries
	s.StealRollbacks = rs.StealRollbacks
	s.StealAbortsFault = rs.StealAbortsFault
	s.VictimBlacklists = rs.VictimBlacklists
	s.FaultBackoffNS = rs.BackoffNS
	return s
}

// run is the worker goroutine body: start the root (rank 0), then the
// idle engine — pop local work, else clear dead stacks, resume a READY
// waiter or steal, else back off into the parking lot (Fig. 7's
// fallback chain with the blocking tail described in DESIGN.md §10).
func (w *Worker) run() {
	defer w.rt.wg.Done()
	defer w.rt.exited.Add(1)
	defer func() {
		if r := recover(); r != nil {
			w.rt.fail(fmt.Errorf("rt: worker %d panicked: %v", w.rank, r))
		}
	}()
	if w.rank == 0 && !w.rt.persistent {
		w.runRoot()
	}
	for !w.rt.stopped() {
		if ent, ok := w.deque.Pop(w.stopFn); ok {
			w.stats.ResumesLocal++
			w.invoke(ent.FrameBase, ent.FrameSize)
			w.idle.reset()
			continue
		}
		// Deque empty and nothing running: whatever occupies the arena
		// is dead local copies of stolen threads. Reclaim, making the
		// region empty so it can host a steal (§5.2 rule 5).
		if !w.clearDead() {
			return
		}
		if w.rt.stopped() {
			return
		}
		// Resume before steal: a ready waiter is guaranteed-productive
		// local work, a steal probe is speculative remote work.
		if w.resumeReady() {
			w.idle.reset()
			continue
		}
		// Dispatch before steal: on a persistent pool an idle worker
		// serves admission latency first — a queued job's root beats
		// speculative remote probes (stealing then balances the tree).
		if w.startQueuedJob() {
			w.idle.reset()
			continue
		}
		if w.trySteal() {
			w.idle.reset()
			continue
		}
		w.idlePark()
	}
}

// clearDead empties the arena of dead stolen-thread copies. Unlike the
// simulator's clearDead this must synchronise: a thief that claimed our
// LAST entry may still be mid-copy of its frame bytes. Winning the
// deque lock once (thieves hold it across the whole copy) guarantees
// every in-flight copy has committed before the arena can be rewritten
// by an install or fresh frame; claims arriving later find bottom <=
// top and retreat without copying. (The empty Pop before us won the
// same lock unless shutdown aborted it; this round does not lean on
// that.) Returns false only when shutdown interrupted the lock spin.
func (w *Worker) clearDead() bool {
	if !w.deque.LockOwner(w.stopFn) {
		return false
	}
	w.deque.Unlock()
	w.arena.Clear()
	return true
}

// runRoot builds the root thread's frame and runs it (the rt analogue
// of the simulator's newThread on rank 0). The root record was
// pre-allocated by Runtime.Run before goroutines started.
func (w *Worker) runRoot() {
	e := w.newFrame(w.rt.rootFid, w.rt.rootLocals, w.rt.rootRec, sched.JobTag(0))
	if w.rt.rootInit != nil {
		w.rt.rootInit(e)
	}
	w.enter(e)
}

// newFrame builds a fresh thread below the current chain and returns
// the Env addressing it. The arena is sliced ONCE: zeroing the locals,
// the header (all of it written) and the Env's view share that slice.
// job is the tag of the job the thread belongs to: part of its state, so
// it rides in the header through every steal and suspend.
func (w *Worker) newFrame(fid core.FuncID, localsLen uint32, rec core.Handle, job uint64) *core.Env {
	size := core.FrameBytes(localsLen)
	base, err := w.arena.AllocBelow(size)
	if err != nil {
		panic(err)
	}
	f := w.arena.MustSlice(base, size)
	clear(f[core.FrameHeaderBytes:])
	core.EncodeFrameHeader(f, fid, localsLen, uint32(job), rec)
	return w.getEnv(base, f, 0)
}

// getEnv returns a (possibly recycled) Env for one task entry; putEnv
// recycles it. Safe because task functions must not retain an Env past
// their return (the core.NewEnv contract).
func (w *Worker) getEnv(base mem.VA, frame []byte, rp uint32) *core.Env {
	if n := len(w.envFree); n > 0 {
		e := w.envFree[n-1]
		w.envFree[n-1] = nil
		w.envFree = w.envFree[:n-1]
		e.Reset(w, base, frame, rp)
		return e
	}
	return core.NewEnv(w, base, frame, rp)
}

func (w *Worker) putEnv(e *core.Env) {
	if len(w.envFree) < envPoolCap {
		w.envFree = append(w.envFree, e)
	}
}

// getCtxBuf returns an n-byte buffer for a suspended context, reusing
// a pooled one when large enough; putCtxBuf recycles it.
func (w *Worker) getCtxBuf(n uint64) []byte {
	for len(w.ctxFree) > 0 {
		buf := w.ctxFree[len(w.ctxFree)-1]
		w.ctxFree[len(w.ctxFree)-1] = nil
		w.ctxFree = w.ctxFree[:len(w.ctxFree)-1]
		if uint64(cap(buf)) >= n {
			return buf[:n]
		}
		// Too small for this frame; drop it and keep looking.
	}
	return make([]byte, n)
}

func (w *Worker) putCtxBuf(buf []byte) {
	if len(w.ctxFree) < ctxPoolCap {
		w.ctxFree = append(w.ctxFree, buf)
	}
}

// invoke runs (or resumes) the thread whose stack starts at base. On
// return the stack is no longer occupied here: Done threads are
// retired; Unwound threads were swapped out by a suspend or released
// after a steal, inside ExecJoin/ExecSpawnRun.
func (w *Worker) invoke(base mem.VA, size uint64) core.Status {
	return w.enter(w.getEnv(base, w.arena.MustSlice(base, size), 0))
}

// enter is invoke on a pooled Env already addressing the frame (a spawned
// child runs in the Env its init wrote through); it recycles e.
func (w *Worker) enter(e *core.Env) core.Status {
	base, size := e.FrameBase(), e.FrameSize()
	h := core.DecodeFrameHeader(e.Header())
	// Switch this worker's cached job context if the frame belongs to
	// another job (steals interleave jobs on one worker). The id recheck
	// catches a slot recycled to a new job between two frames.
	if slot := h.Job - 1; slot != w.curJob || w.rt.jobMeta[slot].id != w.curJobID {
		w.curJob = slot
		w.curJobID = w.rt.jobMeta[slot].id
		w.curSlot = w.rt.jobs.Get(slot)
		w.grain = w.curSlot.Grain.Load()
		w.wlog.SetJob(w.curJobID)
	}
	// Canceled job: complete the frame without running its body. Every
	// task of a draining job is reached exactly once — it is popped,
	// stolen or resumed like any other frame — so the per-job executed
	// count still closes exactly, and completing the record here is what
	// unblocks (and in turn drains) any parent suspended on it. Records
	// the frame held references to are reclaimed by the post-quiescence
	// sweep (Table.SweepJob).
	if w.rt.anyCanceled.Load() > 0 && sched.JobPhase(w.curSlot.State.Load()) == sched.JobDraining {
		w.ExecComplete(h.Record, 0)
		w.stats.TasksExecuted++
		w.stats.TasksDrained++
		if err := w.arena.FreeLowest(base, size); err != nil {
			panic(err)
		}
		w.putEnv(e)
		return core.Done
	}
	e.Rearm(h.Resume)
	ts := w.wlog.Clock()
	st := core.TaskFn(h.Fid)(e)
	w.wlog.Emit(obs.KTask, ts, w.wlog.Clock()-ts, uint64(h.Fid), 0, -1)
	if st == core.Done {
		if !e.Returned() {
			w.ExecComplete(e.Self(), 0)
		}
		w.stats.TasksExecuted++
		if err := w.arena.FreeLowest(base, size); err != nil {
			panic(err)
		}
	}
	w.putEnv(e)
	return st
}

// resumeReady restores the first suspended thread whose join target has
// completed. Suspended threads whose record is still pending stay put:
// resuming them would only bounce through the task body back into
// another suspend (the pre-optimization idle loop did exactly that —
// tens of thousands of resume→miss→re-suspend round trips per run).
// Their completer wakes us precisely via Record.Waiter when the time
// comes.
func (w *Worker) resumeReady() bool {
	for i := range w.waitq {
		if w.waitq[i].rec.IsDone() {
			sc := w.waitq[i]
			// Stop waiting while the joiner still owns the record: a rank
			// left behind outlives the join (see sched.Record.Waiter).
			sc.rec.Waiter.Store(0)
			// Preserve FIFO order among the remaining waiters.
			copy(w.waitq[i:], w.waitq[i+1:])
			w.waitq[len(w.waitq)-1] = savedCtx{}
			w.waitq = w.waitq[:len(w.waitq)-1]
			w.resumeSaved(sc)
			return true
		}
	}
	return false
}

// resumeSaved restores a parked thread to its original VA (Fig. 7's
// resume_saved_context) and re-enters it at its saved resume point.
func (w *Worker) resumeSaved(sc savedCtx) {
	if err := w.arena.Install(sc.base, sc.size); err != nil {
		panic(err)
	}
	copy(w.arena.MustSlice(sc.base, sc.size), sc.buf)
	w.putCtxBuf(sc.buf)
	w.stats.ResumesWait++
	w.invoke(sc.base, sc.size)
}

// --- core.Exec implementation ----------------------------------------

// ExecWork burns roughly `cycles` iterations of an LCG — the wall-clock
// stand-in for the simulator's virtual-time advance, so workload knobs
// like Fib's workCycles translate into real computation.
func (w *Worker) ExecWork(cycles uint64) {
	x := w.spin
	for i := uint64(0); i < cycles; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	w.spin = x
	w.stats.WorkCycles += cycles
}

// ExecComplete publishes a task's result: write result (a plain word),
// then store done (seq-cst), so any joiner observing done observes the
// result.
// If a joiner recorded itself as the record's waiter before we stored
// done, wake that worker precisely; the seq-cst done-store→waiter-load
// order pairs with the joiner's waiter-store→done-load recheck so at
// least one side always sees the other (DESIGN.md §10).
//
// The completing frame is the one this worker is running, so its job is
// w.curJob. The completion is COUNTED LAST (sched.JobCount): until the
// Executed bump lands the job's count cannot close, so neither finalizer
// can sweep this record or recycle the slot under the stores above it.
// After the bump nothing of the job is touched except through a CAS that
// names it: the root's winner waits for closure and finalizes, anyone
// else re-runs the drain check if some job is canceled (DESIGN.md §15).
func (w *Worker) ExecComplete(rec core.Handle, result uint64) {
	r := w.rt.workers[rec.Rank()].records.Get(sched.RecordIndex(rec))
	slot, js, id := w.curJob, w.curSlot, w.curJobID
	r.Result = result
	r.Job.Store(sched.RecordDone(sched.JobTag(slot)))
	if wr := r.Waiter.Load(); wr != 0 {
		w.rt.lot.wakeWorker(w.rt.workers[wr-1])
	}
	// A root that loses the CAS lost it to a cancel: the job reports
	// canceled, and the drain arithmetic closes it.
	won := false
	if uint64(rec) == js.Root.Load() {
		js.Result.Store(result)
		won = js.Advance(id, sched.JobRunning, sched.JobDone)
	}
	w.jobCounts.Get(slot).Executed.Add(1)
	if won {
		w.rt.rootFinalize(slot, result)
	} else if w.rt.anyCanceled.Load() > 0 {
		w.rt.drainCheck(slot, id)
	}
}

// ExecSpawnBegin is the child-first spawn (Fig. 4) on real concurrency
// up to the child's init: save the parent's resume point, publish its
// continuation on the deque, build the child frame. From the Push on a
// thief may take the parent, so init must not write it.
func (w *Worker) ExecSpawnBegin(e *core.Env, resumeRP, handleSlot int, fid core.FuncID, localsLen uint32, _ bool) *core.Env {
	w.stats.Spawns++
	// The spawn is counted (and the child's record and frame tagged)
	// against the spawning frame's job — w.curJob, set by the invoke that
	// entered this task — BEFORE any other worker can see the child.
	w.jobCounts.Get(w.curJob).Spawns.Add(1)
	core.SetFrameResume(e.Header(), uint32(resumeRP))
	tag := sched.JobTag(w.curJob)
	rec := w.newRecord(tag)
	// The child's handle lands in the parent's frame BEFORE the
	// continuation is published, so a migrated parent finds it.
	e.SetHandle(handleSlot, rec)
	if err := w.deque.Push(Entry{FrameBase: e.FrameBase(), FrameSize: e.FrameSize()}); err != nil {
		panic(err)
	}
	// Work just became stealable: release one parked worker, if any.
	// The count load (one uncontended atomic read) keeps the common
	// nobody-parked spawn path free of lock traffic.
	if w.rt.lot.count.Load() > 0 {
		w.rt.lot.wakeOne()
	}
	return w.newFrame(fid, localsLen, rec, tag)
}

// ExecSpawnRun runs the child inline, then pops the continuation — a
// failed pop means a real concurrent thief took the parent.
func (w *Worker) ExecSpawnRun(e, child *core.Env) bool {
	w.enter(child)
	// Pop the continuation we pushed (Fig. 4 line 14).
	if ent, ok := w.deque.Pop(w.stopFn); ok {
		if ent.FrameBase != e.FrameBase() || ent.FrameSize != e.FrameSize() {
			panic(fmt.Sprintf("rt: deque corruption: popped %#x/%d, expected %#x/%d",
				ent.FrameBase, ent.FrameSize, e.FrameBase(), e.FrameSize()))
		}
		return true
	}
	// The continuation (and, by FIFO order, every ancestor's) was
	// stolen by a genuinely concurrent thief. Release the dead local
	// copy and unwind to the scheduler.
	w.stats.ParentStolen++
	if err := w.arena.FreeLowest(e.FrameBase(), e.FrameSize()); err != nil {
		panic(err)
	}
	return false
}

// ExecJoin is Fig. 7's join: poll the record; on a miss, record
// ourselves as the waiter, re-check (the Dekker handshake with
// ExecComplete — see Record.Waiter), then swap the frame out to a
// pooled heap buffer and park it on the wait queue.
func (w *Worker) ExecJoin(e *core.Env, resumeRP int, h core.Handle) (uint64, bool) {
	if !h.Valid() {
		panic("rt: join on invalid handle")
	}
	r := w.rt.workers[h.Rank()].records.Get(sched.RecordIndex(h))
	if r.IsDone() {
		w.stats.JoinsFast++
		v := r.Result
		w.releaseRecord(h)
		return v, true
	}
	// Publish intent to wait BEFORE the final done check: a completer
	// that misses our waiter store must have stored done before our
	// recheck loads it, and vice versa.
	r.Waiter.Store(int64(w.rank) + 1)
	if r.IsDone() {
		r.Waiter.Store(0)
		w.stats.JoinsFast++
		v := r.Result
		w.releaseRecord(h)
		return v, true
	}
	w.stats.JoinsMiss++
	w.stats.Suspends++
	core.SetFrameResume(e.Header(), uint32(resumeRP))
	buf := w.getCtxBuf(e.FrameSize())
	ss := w.wlog.Clock()
	copy(buf, w.arena.MustSlice(e.FrameBase(), e.FrameSize()))
	w.wlog.Suspend(ss, e.FrameSize())
	if err := w.arena.FreeLowest(e.FrameBase(), e.FrameSize()); err != nil {
		panic(err)
	}
	w.waitq = append(w.waitq, savedCtx{base: e.FrameBase(), size: e.FrameSize(), buf: buf, rec: r})
	return 0, false
}

// newRecord allocates a record on this worker's pool and opens it
// pending under its job's tag before the handle can escape to another
// worker.
func (w *Worker) newRecord(jobTag uint64) core.Handle {
	idx, err := w.records.Alloc()
	if err != nil {
		panic(err)
	}
	w.records.Get(idx).Job.Store(sched.RecordPending(jobTag))
	return sched.RecordHandle(w.rank, idx)
}

// releaseRecord frees a joined record: straight onto the owning pool's
// private stack when we ARE the owner (no shared-memory traffic),
// through the CAS release stack otherwise.
func (w *Worker) releaseRecord(h core.Handle) {
	if h.Rank() == w.rank {
		w.records.ReleaseLocal(sched.RecordIndex(h))
		return
	}
	w.rt.workers[h.Rank()].records.Release(sched.RecordIndex(h))
}

// ExecGasHeap: the rt backend has no global heap; workloads that need
// one (MergeSort, GlobalSum) are sim-only and skipped by the harness.
func (w *Worker) ExecGasHeap() *gas.Heap { return nil }

func (w *Worker) execGasPanic() {
	panic("rt: global heap (gas) operations are not supported on the real-parallelism backend; run this workload on the simulator")
}

// ExecGasGet implements core.Exec; unsupported on rt.
func (w *Worker) ExecGasGet(r gas.Ref, buf []byte) { w.execGasPanic() }

// ExecGasPut implements core.Exec; unsupported on rt.
func (w *Worker) ExecGasPut(r gas.Ref, buf []byte) { w.execGasPanic() }

// ExecGasGetU64 implements core.Exec; unsupported on rt.
func (w *Worker) ExecGasGetU64(r gas.Ref) uint64 { w.execGasPanic(); return 0 }

// ExecGasPutU64 implements core.Exec; unsupported on rt.
func (w *Worker) ExecGasPutU64(r gas.Ref, v uint64) { w.execGasPanic() }

// ExecGasAlloc implements core.Exec; unsupported on rt.
func (w *Worker) ExecGasAlloc(n uint64) gas.Ref { w.execGasPanic(); return gas.Ref(0) }

// ExecGrain returns the runtime's configured granularity cutoff.
func (w *Worker) ExecGrain() uint64 { return w.grain }

// ExecCoalesce reports local work surplus: this worker's own deque
// already holds enough unstolen entries that spawning finer tasks only
// adds overhead (the adaptive gate for core.GrainAuto).
func (w *Worker) ExecCoalesce() bool { return w.deque.Size() >= core.CoalesceDequeMin }

// SimWorker returns nil: this backend is not the simulator.
func (w *Worker) SimWorker() *core.Worker { return nil }
