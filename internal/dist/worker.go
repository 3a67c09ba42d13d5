package dist

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"uniaddr/internal/core"
	"uniaddr/internal/fault"
	"uniaddr/internal/mem"
	"uniaddr/internal/obs"
	"uniaddr/internal/sched"
)

// Stats is one worker process's scheduling counters: the shared
// engine's. Serialised into the bye message (children) or read after
// the loop exits (parent).
type Stats = sched.WorkerStats

const (
	// idleSpinRounds of cheap rechecks precede the first sleep;
	// idleSleepMin..idleSleepMax bound the backoff ladder. Sleeping —
	// not parking — because wake signals cannot cross process
	// boundaries through the segment without a futex, and the paper's
	// protocol keeps the data plane free of messages.
	idleSpinRounds = 64
	idleSleepMin   = 20 * time.Microsecond
	idleSleepMax   = time.Millisecond
)

// worker is one process's scheduling context: the shared scheduling
// engine over this process's views of the segment. The Engine is the
// mechanism — frames, Envs, join, resume, steal, every cross-worker
// interaction a one-sided access through the views, never a socket;
// this file is dist's policy: the control page's stop and fail words,
// the sleep ladder, the injected hang and the functions on the task
// path that bear them. worker implements core.Exec (half of it promoted
// from the Engine), so registered task functions run on it unchanged.
type worker struct {
	sched.Engine
	seg *segment

	idleRounds int
	sleep      time.Duration

	// hung, when non-nil and set, wedges the worker at its next task
	// entry (injected hang; see childMain). The heartbeat goroutine
	// writes the same Wlog ring — it is multi-producer-safe.
	hung *atomic.Bool

	// Root plumbing; meaningful on rank 0 only (the init closure cannot
	// cross the process boundary, which is why the parent IS rank 0).
	rootFid    core.FuncID
	rootLocals uint32
	rootInit   func(*core.Env)
}

// newWorker builds rank's worker over seg for one run. Its scheduler
// knobs, which every process must agree on, come from the run's start
// message: rank 0 builds it, the children receive it.
func newWorker(seg *segment, rank int, start startMsg, plan *fault.Plan, hung *atomic.Bool) *worker {
	w := &worker{seg: seg, sleep: idleSleepMin, hung: hung}
	w.Engine = sched.Engine{X: w, Rank: rank, Peers: seg.peers, Grain: start.Grain, Wlog: seg.obsLog(rank), StopFn: seg.stopped}
	// The interface value must be nil (not a typed nil *Plan) for the
	// resilience fast path to collapse.
	var inj sched.StealInjector
	if plan != nil {
		inj = plan
	}
	w.Init(start.Seed, start.StealBatch, start.TierGroup, inj)
	return w
}

// run is the scheduler loop: pop local work, else clear dead stacks,
// resume a READY waiter or steal, else back off. Returns the panic (as
// an error) if the loop or a task body blew up; the caller publishes it
// through the fail word and the control plane, and reads FinalStats.
func (w *worker) run() (err error) {
	defer func() {
		if r := recover(); r != nil {
			if _, aborted := r.(abortRun); !aborted {
				err = fmt.Errorf("dist: worker %d panicked: %v", w.Rank, r)
			}
		}
	}()
	if w.Rank == 0 {
		w.runRoot()
	}
	for !w.seg.stopped() {
		if ent, ok := w.Deque.Pop(w.StopFn); ok {
			w.Stats.ResumesLocal++
			w.invoke(ent.FrameBase, ent.FrameSize)
			w.idleReset()
			continue
		}
		if !w.ClearDead() {
			return nil
		}
		if w.seg.stopped() {
			return nil
		}
		if base, size, ok := w.ResumeReady(); ok {
			w.invoke(base, size)
			w.idleReset()
			continue
		}
		if w.TrySteal() > 0 {
			if ent, ok := w.Deque.Pop(w.StopFn); ok {
				w.invoke(ent.FrameBase, ent.FrameSize)
			}
			w.idleReset()
			continue
		}
		w.idleWait()
	}
	return nil
}

func (w *worker) idleReset() {
	w.idleRounds = 0
	w.sleep = idleSleepMin
}

// idleWait backs off an idle worker: spin cheaply first, then sleep
// with exponential backoff capped at idleSleepMax, so a crashed-quiet
// cluster costs microwatts while a wake-up (new stealable work) is
// noticed within a millisecond.
func (w *worker) idleWait() {
	w.idleRounds++
	if w.idleRounds < idleSpinRounds {
		runtime.Gosched()
		return
	}
	w.Stats.IdleSleeps++
	ns := w.Wlog.Clock()
	time.Sleep(w.sleep)
	w.Wlog.Emit(obs.KNap, ns, w.Wlog.Clock()-ns, 0, 0, -1)
	if w.sleep < idleSleepMax {
		w.sleep *= 2
	}
}

// runRoot builds the root thread's frame and runs it. The root record
// (rootRec: rank 0, index 0) was allocated by the coordinator before
// the start barrier.
func (w *worker) runRoot() {
	e := w.NewFrame(w.rootFid, w.rootLocals, rootRec(), 0)
	if w.rootInit != nil {
		w.rootInit(e)
	}
	w.enterShared(e)
}

// abortRun is the sentinel unwound through task frames when the run
// has FAILED (crashed sibling, watchdog): the task tree's state no
// longer matters, so the fastest correct response is to abandon the
// in-flight subtree wholesale. Never raised for normal completion —
// `done` lets in-flight tasks finish naturally.
type abortRun struct{}

// invoke runs (or resumes) the thread whose stack starts at base.
func (w *worker) invoke(base mem.VA, size uint64) core.Status {
	return w.enterShared(w.GetEnv(base, w.Arena.MustSlice(base, size), 0))
}

// enterShared enters a thread that is not an inline child (the root, or
// a frame the scheduler loop popped, stole or resumed) and publishes its
// completion the shared way (rt's carries the commentary).
func (w *worker) enterShared(e *core.Env) core.Status {
	st, rec := w.enter(e)
	if st == core.Done {
		w.publish(rec)
	}
	return st
}

// enter is invoke on a pooled Env already addressing the frame (a spawned
// child runs in the Env its init wrote through); it recycles e. A Done
// thread's result is recorded, and publishing it left to the caller.
func (w *worker) enter(e *core.Env) (core.Status, core.Handle) {
	base, size := e.FrameBase(), e.FrameSize()
	if w.seg.ctl.fail.Load() != 0 {
		panic(abortRun{})
	}
	if w.hung != nil && w.hung.Load() {
		// Injected hang: wedge, don't exit. A plain sleep loop — NOT
		// select{} — because Go's deadlock detector would turn a fully
		// blocked process into a crash, and the whole point is to look
		// alive while making no progress. Only the coordinator's
		// heartbeat monitor can end this (it kills the process).
		for {
			time.Sleep(time.Hour)
		}
	}
	fid, resume, _, rec := core.FrameEntry(e.Header())
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

// publish stores a completion's done word (seq-cst) into its record — a
// one-sided write into the owning rank's table region, wherever that
// process lives. There is no cross-process wake to deliver: a suspended
// joiner's idle loop polls. Completing the ROOT record additionally
// publishes the result and the done word on the control page, which is
// what terminates every process's scheduler loop.
func (w *worker) publish(rec core.Handle) {
	r := w.Record(rec)
	r.Job.Store(sched.RecordDone(0))
	w.Stats.SharedPublishes++
	if rec == rootRec() {
		w.seg.ctl.result.Store(r.Result)
		w.seg.ctl.done.Store(1)
	}
}

// publishLocal is the plain done store of an inline child whose parent's
// Pop won (rt's carries the commentary).
func (w *worker) publishLocal(rec core.Handle) { w.Record(rec).StorePlain(sched.RecordDone(0)) }

// --- core.Exec, the half that bears dist's policy ----------------------

// ExecComplete records a task's result in its record; enter's caller
// publishes it.
func (w *worker) ExecComplete(rec core.Handle, result uint64) {
	w.Record(rec).Result = result
}

// ExecSpawnBegin/ExecSpawnRun are the child-first spawn (Fig. 4; rt's
// carry the commentary): the thief that takes the published
// continuation may be another PROCESS.
func (w *worker) ExecSpawnBegin(e *core.Env, resumeRP, handleSlot int, fid core.FuncID, localsLen uint32, _ bool) *core.Env {
	w.Stats.Spawns++
	core.SetFrameResume(e.Header(), uint32(resumeRP))
	rec := w.newRecord()
	e.SetHandle(handleSlot, rec)
	if err := w.Deque.Push(sched.Entry{FrameBase: e.FrameBase(), FrameSize: e.FrameSize()}); err != nil {
		panic(err)
	}
	return w.NewFrame(fid, localsLen, rec, 0)
}

func (w *worker) ExecSpawnRun(e, child *core.Env) bool {
	st, rec := w.enter(child)
	if ent, ok := w.Deque.Pop(w.StopFn); ok {
		if ent.FrameBase != e.FrameBase() || ent.FrameSize != e.FrameSize() {
			panic(fmt.Sprintf("dist: deque corruption: popped %#x/%d, expected %#x/%d",
				ent.FrameBase, ent.FrameSize, e.FrameBase(), e.FrameSize()))
		}
		if st == core.Done {
			w.publishLocal(rec)
		}
		return true
	}
	if st == core.Done {
		w.publish(rec)
	}
	w.Stats.ParentStolen++
	if err := w.Arena.FreeLowest(e.FrameBase(), e.FrameSize()); err != nil {
		panic(err)
	}
	return false
}

func (w *worker) newRecord() core.Handle {
	idx, err := w.Records.Alloc()
	if err != nil {
		panic(err)
	}
	return sched.RecordHandle(w.Rank, idx)
}
