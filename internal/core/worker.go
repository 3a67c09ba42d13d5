package core

import (
	"encoding/binary"
	"fmt"

	"uniaddr/internal/gas"
	"uniaddr/internal/mem"
	"uniaddr/internal/obs"
	"uniaddr/internal/rdma"
	"uniaddr/internal/sim"
)

// WorkerStats counts one worker's activity over a run.
type WorkerStats struct {
	TasksExecuted uint64 // task functions run to completion here
	Spawns        uint64
	JoinsFast     uint64 // try_join succeeded immediately
	JoinsMiss     uint64 // join had to suspend
	Suspends      uint64
	ResumesLocal  uint64 // in-place resumes of deque entries
	ResumesWait   uint64 // resumes from the wait queue
	ParentStolen  uint64 // pops that failed because the parent migrated

	StealAttempts   uint64
	StealsOK        uint64
	StealAbortEmpty uint64
	StealAbortLock  uint64
	StealAbortSlot  uint64 // §5.1 multi-worker mode: address mismatch
	// Phases accumulates per-phase cycles of *successful* steals only
	// (the Fig. 10 quantity); aborted attempts go to StealAbortCycles.
	Phases           StealPhases
	StealAbortCycles uint64
	SuspendCycles    uint64
	ResumeCycles     uint64
	BytesStolen      uint64
	PageFaults       uint64 // iso-address demand-paging faults

	LifelinePushes   uint64 // threads pushed to quiescent neighbours
	LifelineReceives uint64 // threads received over a lifeline

	// Failure-handling counters (all zero without fault injection).
	StealFaults      uint64 // steal attempts that hit an injected fault
	StealRetries     uint64 // faulted attempts retried after backoff
	StealAbortsFault uint64 // attempts abandoned after exhausting retries
	StealRollbacks   uint64 // half-completed steals rolled back (THE abort)
	BackoffCycles    uint64 // virtual cycles spent backing off after faults
	VictimBlacklists uint64 // victims temporarily blacklisted
	LifelineFaults   uint64 // lifeline register/push ops that hit a fault

	WorkCycles uint64
	IdleCycles uint64
}

// Worker is one simulated process: a single core running the
// uni-address threads scheduler in its own address space
// (process-per-core, §5.1).
type Worker struct {
	m     *Machine
	rank  int
	node  int
	slot  int // uni-address region slot (§5.1 multi-worker mode)
	proc  *sim.Proc
	space *mem.AddressSpace
	ep    *rdma.Endpoint
	deque *Deque
	heap  *mem.Allocator // pinned RDMA-region heap (saved stacks, records)
	costs *Costs
	sch   scheme

	// uni-address state
	region *mem.Arena
	// iso-address state
	isoAlloc *mem.Allocator
	isoSlabs map[int]*mem.Region

	gas        *gas.Heap
	waitq      []saved
	stats      WorkerStats
	obs        *obs.Log // nil unless Config.Obs (nil-safe)
	lastVictim int      // last successful victim (VictimLastSuccess), -1 none
	slowFactor float64  // >1 = straggler (CPU costs scaled)

	// Graceful-degradation state, populated lazily and only under fault
	// injection: consecutive fabric failures per victim, and the virtual
	// time until which a repeatedly-failing victim is skipped.
	victimFails       map[int]int
	victimBannedUntil map[int]uint64

	// spawnEnv is the child Env lent to init between ExecSpawnBegin and
	// ExecSpawnRun; one suffices because init cannot nest a spawn.
	spawnEnv Env

	// help-first staging buffer (see helpFirstStaging) and the child
	// being spawned, carried from spawnHelpFirstBegin to ...Run
	hfStaging    mem.VA
	hfStagingLen uint64
	hfFid        FuncID
	hfLocalsLen  uint32
	hfRec        Handle
	hfStaged     bool

	// lifeline state (Config.Lifelines)
	llOut          []int // hypercube out-links (-1 = unused axis)
	llRegistered   bool
	llSpawnCounter uint64
	llIdleRounds   uint64
}

// Gas returns the worker's global-heap handle (nil when disabled).
func (w *Worker) Gas() *gas.Heap { return w.gas }

// PeerGas returns another rank's global-heap handle — for bookkeeping
// releases of remotely-owned objects (cf. freeRecord).
func (w *Worker) PeerGas(rank int) *gas.Heap { return w.m.workers[rank].gas }

// Proc returns the worker's simulated process (for libraries layered on
// the runtime that issue their own fabric operations).
func (w *Worker) Proc() *sim.Proc { return w.proc }

// adv advances simulated time by c CPU cycles, scaled by the worker's
// speed factor (straggler modeling; fabric latencies are unaffected).
func (w *Worker) adv(c uint64) {
	if w.slowFactor > 1 {
		c = uint64(float64(c) * w.slowFactor)
	}
	w.proc.Advance(c)
}

// mark records a timeline state change when observability is enabled.
// The transitions are the recorder's state stream, from which the
// export derives the Gantt timeline and utilization.
func (w *Worker) mark(s obs.State) {
	w.m.obs.State(w.rank, s)
}

// Rank returns the worker's process rank.
func (w *Worker) Rank() int { return w.rank }

// Stats returns a snapshot of the worker's counters.
//
// The snapshot is only coherent at quiescence: while the simulation is
// running the counters mutate between events, so a mid-run read (e.g.
// from an Engine.After callback) can observe a half-updated pair such
// as StealAttempts without the matching outcome counter. Read it after
// Machine.Run returns, or use StatsAtQuiescence to have that checked.
func (w *Worker) Stats() WorkerStats { return w.stats }

// StatsAtQuiescence returns the worker's counters, panicking if the
// simulation is still running (when a coherent snapshot cannot be
// guaranteed).
func (w *Worker) StatsAtQuiescence() WorkerStats {
	if w.m.eng.Running() {
		panic("core: StatsAtQuiescence called while the simulation is running")
	}
	return w.stats
}

// Space returns the worker's address space (for memory accounting).
func (w *Worker) Space() *mem.AddressSpace { return w.space }

// Deque returns the worker's task queue.
func (w *Worker) Deque() *Deque { return w.deque }

// NetStats returns the worker's fabric counters.
func (w *Worker) NetStats() rdma.Stats { return w.ep.Stats() }

// run is the worker's simulated-process body.
func (w *Worker) run(p *sim.Proc) {
	w.proc = p
	p.SeedRNG(w.m.cfg.Seed*0x9e3779b97f4a7c15 + uint64(w.rank) + 1)
	if w.rank == 0 {
		base, size := w.newThread(w.m.rootFid, w.m.rootLocals, w.m.rootInit, true)
		w.invoke(base, size)
	}
	if w.m.cfg.HelpFirst {
		w.helpFirstSchedulerLoop()
		return
	}
	w.schedulerLoop()
}

func errMaxCycles(max uint64) error {
	return fmt.Errorf("core: exceeded MaxCycles=%d without completing (deadlock or undersized budget)", max)
}

// newThread creates a fresh thread: record, stack, header, arguments.
func (w *Worker) newThread(fid FuncID, localsLen uint32, init func(*Env), root bool) (mem.VA, uint64) {
	rec := w.newRecord()
	if root {
		w.m.rootRecord = rec
	}
	size := FrameBytes(localsLen)
	base := w.sch.newFrame(w, size)
	f := writeFrameHeader(w.space, base, fid, localsLen, rec)
	if w.obs != nil {
		id := w.m.obs.NewTask(0, w.rank, uint32(fid), uint64(rec))
		setFrameTaskID(w.space, base, uint64(id))
		w.obs.Instant(obs.KSpawn, 0, id, -1)
	}
	if init != nil {
		var e Env
		e.Reset(w, base, f, 0)
		init(&e)
	}
	return base, size
}

// invoke runs (or resumes) the thread whose stack starts at base. On
// return the thread's stack is no longer occupied on this worker: a
// Done thread was retired, an Unwound thread was either swapped out by
// a suspend or released after a steal.
func (w *Worker) invoke(base mem.VA, size uint64) Status {
	w.mark(obs.Work)
	// The Env's view of the frame: one Slice per entry.
	f, err := w.space.Slice(base, size)
	if err != nil {
		panic(err)
	}
	fid := FuncID(binary.LittleEndian.Uint32(f[fhFuncIDOff:]))
	var e Env
	e.Reset(w, base, f, binary.LittleEndian.Uint32(f[fhResumeOff:]))
	var tid obs.TaskID
	var tstart uint64
	if w.obs != nil {
		tid = obs.TaskID(frameTaskID(w.space, base))
		tstart = w.proc.Now()
	}
	st := lookupFn(fid)(&e)
	if w.obs != nil {
		w.obs.Emit(obs.KTask, tstart, w.proc.Now()-tstart, uint64(fid), tid, -1)
	}
	if st == Done {
		if !e.returned {
			w.completeRecord(e.Self(), 0)
		}
		w.stats.TasksExecuted++
		if w.obs != nil {
			w.m.obs.TaskDone(tid, w.rank)
			w.obs.Instant(obs.KTaskDone, 0, tid, -1)
		}
		w.sch.retireFrame(w, base, size)
	}
	return st
}

// Spawn creates a child task and runs it immediately (child-first,
// Fig. 4): the parent's context is saved (resumeRP), its continuation
// is pushed on the deque where any thief can take it, and the child
// executes like a procedure call. On return true the parent was not
// stolen and continues. On false the parent's continuation now runs on
// another process — the caller must immediately `return core.Unwound`.
//
// The child's handle is stored into parent local slot handleSlot
// *before* the continuation is published, so a migrated parent finds it
// in its stack.
//
// init, if non-nil, fills the child's locals. It runs after the
// continuation is published, so it may only write child, and read
// captured values or e's frame. It is only ever called here — never
// stored or handed to the Exec interface — so a literal at the call
// site does not escape: a spawn allocates nothing on the Go heap.
func (e *Env) Spawn(resumeRP, handleSlot int, fid FuncID, localsLen uint32, init func(child *Env)) bool {
	child := e.x.ExecSpawnBegin(e, resumeRP, handleSlot, fid, localsLen, init != nil)
	if init != nil {
		init(child)
	}
	return e.x.ExecSpawnRun(e, child)
}

// ExecSpawnBegin is the first half of the simulator's child-first spawn
// (Fig. 4): publish the continuation, build the child frame.
func (w *Worker) ExecSpawnBegin(e *Env, resumeRP, handleSlot int, fid FuncID, localsLen uint32, hasInit bool) *Env {
	if w.m.cfg.HelpFirst {
		return w.spawnHelpFirstBegin(e, handleSlot, fid, localsLen, hasInit)
	}
	w.stats.Spawns++
	w.adv(w.costs.SaveContext + w.costs.DequePush)
	e.setRP(uint32(resumeRP))
	size := FrameBytes(localsLen)
	rec := w.newRecord()
	e.SetHandle(handleSlot, rec)
	if err := w.deque.Push(Entry{FrameBase: e.base, FrameSize: e.FrameSize()}); err != nil {
		panic(err)
	}
	if w.m.cfg.Lifelines {
		w.llSpawnCounter++
		if w.llSpawnCounter%8 == 0 {
			w.llServe()
		}
	}
	cbase := w.sch.newFrame(w, size)
	f := writeFrameHeader(w.space, cbase, fid, localsLen, rec)
	if w.obs != nil {
		parent := obs.TaskID(frameTaskID(w.space, e.base))
		id := w.m.obs.NewTask(parent, w.rank, uint32(fid), uint64(rec))
		setFrameTaskID(w.space, cbase, uint64(id))
		w.obs.Instant(obs.KSpawn, uint64(parent), id, -1)
	}
	w.spawnEnv.Reset(w, cbase, f, 0)
	return &w.spawnEnv
}

// ExecSpawnRun is the second half: run the child, pop the continuation.
func (w *Worker) ExecSpawnRun(e, child *Env) bool {
	if w.m.cfg.HelpFirst {
		return w.spawnHelpFirstRun()
	}
	w.invoke(child.base, child.FrameSize())
	// Pop the continuation we pushed (Fig. 4 line 14).
	w.adv(w.costs.DequePop + w.costs.RestoreContext)
	if ent, ok := w.deque.Pop(w.proc, w.ep, w.rank); ok {
		if ent.FrameBase != e.base || ent.FrameSize != e.FrameSize() {
			panic(fmt.Sprintf("core: deque corruption: popped %#x/%d, expected %#x/%d",
				ent.FrameBase, ent.FrameSize, e.base, e.FrameSize()))
		}
		return true
	}
	// The pop failed: this thread's continuation (and, by FIFO order,
	// every ancestor's) was stolen. Unwind to the scheduler.
	w.stats.ParentStolen++
	if w.obs != nil {
		w.obs.Instant(obs.KPopFail, 0, obs.TaskID(frameTaskID(w.space, e.base)), -1)
	}
	w.sch.releaseStolen(w, e.base, e.FrameSize())
	return false
}

// Join waits for the task behind h (Fig. 7). If the task has finished,
// Join frees its record and returns (result, true). Otherwise the
// current thread suspends — it is swapped out of the uni-address region
// into pinned memory and parked on the wait queue — and Join returns
// false: the caller must immediately `return core.Unwound`. When the
// thread is later resumed it re-enters the task function at resumeRP,
// which must re-execute this Join.
func (e *Env) Join(resumeRP int, h Handle) (uint64, bool) {
	return e.x.ExecJoin(e, resumeRP, h)
}

// ExecJoin is the simulator's join (Fig. 7).
func (w *Worker) ExecJoin(e *Env, resumeRP int, h Handle) (uint64, bool) {
	if w.m.cfg.HelpFirst {
		return w.helpFirstJoin(h), true
	}
	if done, v := w.tryJoin(h); done {
		w.stats.JoinsFast++
		if w.obs != nil {
			jid := w.m.obs.TaskJoined(uint64(h), w.rank)
			w.obs.Instant(obs.KJoinFast, 0, jid, -1)
		}
		w.freeRecord(h)
		return v, true
	}
	w.stats.JoinsMiss++
	if w.obs != nil {
		w.obs.Instant(obs.KJoinMiss, 0, obs.TaskID(frameTaskID(w.space, e.base)), -1)
	}
	e.setRP(uint32(resumeRP))
	w.mark(obs.Suspend)
	sc := w.sch.suspend(w, e.base, e.FrameSize())
	w.waitq = append(w.waitq, sc)
	return 0, false
}

// schedulerLoop is the idle engine (Fig. 7's fallback chain): resume a
// ready thread from the deque, else steal, else resume a waiter, else
// back off.
func (w *Worker) schedulerLoop() {
	p := w.proc
	for !w.m.done {
		if p.Now() > w.m.cfg.MaxCycles {
			w.m.fail(errMaxCycles(w.m.cfg.MaxCycles))
			return
		}
		if ent, ok := w.deque.Pop(p, w.ep, w.rank); ok {
			w.adv(w.costs.RestoreContext)
			w.stats.ResumesLocal++
			w.invoke(ent.FrameBase, ent.FrameSize)
			continue
		}
		w.sch.clearDead(w)
		if w.m.done {
			return
		}
		if w.m.cfg.Lifelines && w.sch.canSteal(w) {
			// Deliveries must be drained whenever the region can host
			// them: a registration left on one axis keeps producing
			// pushes even after other work arrived, and an unconsumed
			// delivery is a lost (live!) thread.
			if w.llConsume() {
				continue
			}
			if len(w.waitq) == 0 {
				// Lifeline idle protocol: register once, then wait for
				// a push, probing randomly only every 8th round.
				if !w.llRegistered {
					w.llRegister()
				}
				w.llIdleRounds++
				if w.llIdleRounds%8 == 0 && w.trySteal() {
					w.llIdleRounds = 0
					continue
				}
				w.mark(obs.Idle)
				w.stats.IdleCycles += w.costs.IdleBackoff
				w.adv(w.costs.IdleBackoff)
				continue
			}
		}
		if w.sch.canSteal(w) && w.trySteal() {
			continue
		}
		if len(w.waitq) > 0 {
			// FIFO: a waiter that re-suspends goes to the back, so every
			// suspended thread gets rescheduled and chains of dependent
			// waiters always make progress (a LIFO here can spin on the
			// most recent waiter forever and deadlock the run).
			sc := w.waitq[0]
			w.waitq = w.waitq[1:]
			w.mark(obs.Suspend)
			var rstart uint64
			if w.obs != nil {
				rstart = p.Now()
			}
			w.sch.resumeSaved(w, sc)
			w.stats.ResumesWait++
			if w.obs != nil {
				w.obs.Emit(obs.KResumeWait, rstart, p.Now()-rstart, 0,
					obs.TaskID(frameTaskID(w.space, sc.base)), -1)
			}
			w.invoke(sc.base, sc.size)
			continue
		}
		w.mark(obs.Idle)
		w.stats.IdleCycles += w.costs.IdleBackoff
		w.adv(w.costs.IdleBackoff)
	}
}

// victimBanned reports whether v is inside its blacklist window.
// Free (no map lookup, no RNG) unless faults have actually banned
// someone.
func (w *Worker) victimBanned(v int) bool {
	if len(w.victimBannedUntil) == 0 {
		return false
	}
	until, ok := w.victimBannedUntil[v]
	if !ok {
		return false
	}
	if w.proc.Now() >= until {
		delete(w.victimBannedUntil, v)
		return false
	}
	return true
}

// The steal fault budget. A thief retries a steal against the same
// victim at most stealMaxRetries times after an injected fabric fault;
// the n-th retry waits min(stealBackoffBase<<n, stealBackoffCap)
// cycles of virtual time. victimBlacklistAfter consecutive faults
// against one victim blacklist it for victimBlacklistCycles, and
// pickVictim redraws around blacklisted ranks.
const (
	stealMaxRetries       = 3
	stealBackoffBase      = 2000
	stealBackoffCap       = 1 << 17
	victimBlacklistAfter  = 3
	victimBlacklistCycles = 2_000_000
)

// noteStealFault records a fabric failure against victim v; after
// victimBlacklistAfter consecutive failures v is skipped for
// victimBlacklistCycles of virtual time (graceful degradation: stop
// hammering a browned-out endpoint).
func (w *Worker) noteStealFault(v int) {
	w.lastVictim = -1
	if w.victimFails == nil {
		w.victimFails = make(map[int]int)
		w.victimBannedUntil = make(map[int]uint64)
	}
	w.victimFails[v]++
	if w.victimFails[v] >= victimBlacklistAfter {
		delete(w.victimFails, v)
		w.victimBannedUntil[v] = w.proc.Now() + victimBlacklistCycles
		w.stats.VictimBlacklists++
	}
}

// stealBackoff parks the worker for the attempt-th capped exponential
// backoff delay (virtual time, deterministic) after a faulted steal.
func (w *Worker) stealBackoff(attempt int) {
	d := uint64(stealBackoffCap)
	if attempt < 63 {
		if d = stealBackoffBase << uint(attempt); d > stealBackoffCap {
			d = stealBackoffCap
		}
	}
	w.stats.BackoffCycles += d
	w.proc.Advance(d)
}

// pickVictim chooses a victim rank per the configured policy, or -1
// when there is no candidate. Blacklisted victims are re-drawn a few
// times; if the machine is so degraded that every draw is blacklisted,
// the last draw is used anyway so a recovering endpoint is eventually
// probed again.
func (w *Worker) pickVictim(n int) int {
	v := w.pickVictimOnce(n)
	if v < 0 || !w.victimBanned(v) {
		return v
	}
	for i := 0; i < 3; i++ {
		v = w.pickVictimOnce(n)
		if v < 0 || !w.victimBanned(v) {
			return v
		}
	}
	return v
}

func (w *Worker) pickVictimOnce(n int) int {
	rng := w.proc.RNG()
	randomGlobal := func() int {
		v := rng.Intn(n - 1)
		if v >= w.rank {
			v++
		}
		return v
	}
	switch w.m.cfg.Victim {
	case VictimLocalFirst:
		// Alternate: odd attempts go to a random same-node peer (cheap
		// when IntraNodeFactor < 1), even attempts roam globally so
		// remote imbalance is still found.
		if w.stats.StealAttempts%2 == 1 {
			per := w.m.cfg.WorkersPerNode
			lo := w.node * per
			hi := lo + per
			if hi > n {
				hi = n
			}
			if hi-lo > 1 {
				v := lo + rng.Intn(hi-lo-1)
				if v >= w.rank {
					v++
				}
				return v
			}
		}
		return randomGlobal()
	case VictimLastSuccess:
		if w.lastVictim >= 0 && w.lastVictim != w.rank {
			return w.lastVictim
		}
		return randomGlobal()
	default:
		return randomGlobal()
	}
}

// trySteal picks a victim per the configured policy and attempts the
// one-sided steal of Fig. 6. On success the stolen thread is installed
// at its original virtual address and executed.
//
// Fabric faults are retried against the same victim up to
// stealMaxRetries times with capped exponential virtual-time
// backoff (transient faults heal; persistent ones trip the victim
// blacklist via noteStealFault, steering future attempts elsewhere). A
// fault after the entry was claimed rolls the victim's deque back over
// the THE abort path, so the thread is never lost.
func (w *Worker) trySteal() bool {
	n := len(w.m.workers)
	if n < 2 {
		return false
	}
	w.stats.StealAttempts++
	w.mark(obs.Steal)
	stealStart := w.proc.Now()
	w.adv(w.costs.VictimSelect)
	victim := w.pickVictim(n)
	if victim < 0 {
		return false
	}
	if w.obs != nil {
		w.obs.Emit(obs.KStealBegin, stealStart, 0, 0, 0, victim)
	}
	var ph StealPhases
	var accept func(Entry) bool
	if w.m.cfg.SlotsPerProcess > 1 {
		// §5.1 multi-worker mode: a thread's stack address binds it to
		// one region slot; this worker can only host matching threads.
		accept = func(e Entry) bool {
			return w.region.Contains(e.FrameBase)
		}
	}
	var ent Entry
	var outcome StealOutcome
	for attempt := 0; ; attempt++ {
		ent, outcome = w.deque.StealRemote(w.proc, w.ep, victim, &ph, accept)
		if outcome != StealFault {
			break
		}
		w.stats.StealFaults++
		if w.obs != nil {
			w.obs.Instant(obs.KStealFault, uint64(attempt), 0, victim)
		}
		w.noteStealFault(victim)
		if attempt >= stealMaxRetries || w.victimBanned(victim) {
			w.stats.StealAbortsFault++
			w.stats.StealAbortCycles += ph.Total()
			if w.obs != nil {
				w.obs.Emit(obs.KStealAbandon, stealStart, w.proc.Now()-stealStart, 0, 0, victim)
			}
			return false
		}
		bstart := w.proc.Now()
		w.stealBackoff(attempt)
		w.stats.StealRetries++
		if w.obs != nil {
			w.obs.Emit(obs.KStealRetry, bstart, w.proc.Now()-bstart, uint64(attempt+1), 0, victim)
		}
	}
	switch outcome {
	case StealEmpty, StealEmptyLocked:
		w.stats.StealAbortEmpty++
		w.stats.StealAbortCycles += ph.Total()
		w.lastVictim = -1
		if w.obs != nil {
			w.obs.Emit(obs.KStealEmpty, stealStart, w.proc.Now()-stealStart, 0, 0, victim)
		}
		return false
	case StealLockBusy:
		w.stats.StealAbortLock++
		w.stats.StealAbortCycles += ph.Total()
		if w.obs != nil {
			w.obs.Emit(obs.KStealBusy, stealStart, w.proc.Now()-stealStart, 0, 0, victim)
		}
		return false
	case StealReject:
		w.stats.StealAbortSlot++
		w.stats.StealAbortCycles += ph.Total()
		w.lastVictim = -1
		if w.obs != nil {
			w.obs.Emit(obs.KStealReject, stealStart, w.proc.Now()-stealStart, 0, 0, victim)
		}
		return false
	}
	// Transfer the stack while still holding the victim's queue lock,
	// then unlock and resume (resume_remote_context in Fig. 6).
	if err := w.sch.transferStolen(w, victim, ent, &ph); err != nil {
		// Half-completed steal: the entry is claimed and the lock held,
		// but the stack never arrived. Roll the victim's deque back so
		// it keeps the thread, and give up on this victim for now.
		w.stats.StealFaults++
		w.stats.StealRollbacks++
		if w.obs != nil {
			w.obs.Instant(obs.KStealFault, 0, 0, victim)
		}
		w.deque.AbortRemote(w.proc, w.ep, victim, &ph)
		if w.obs != nil {
			w.obs.Instant(obs.KStealRollback, 0, 0, victim)
		}
		w.noteStealFault(victim)
		w.stats.StealAbortsFault++
		w.stats.StealAbortCycles += ph.Total()
		if w.obs != nil {
			w.obs.Emit(obs.KStealAbandon, stealStart, w.proc.Now()-stealStart, 0, 0, victim)
		}
		return false
	}
	w.lastVictim = victim
	if w.victimFails != nil {
		delete(w.victimFails, victim)
	}
	w.deque.Unlock(w.proc, w.ep, victim, &ph)
	w.stats.Phases.Merge(ph)
	start := w.proc.Now()
	w.adv(w.costs.ResumeCPU)
	w.stats.ResumeCycles += w.proc.Now() - start
	w.stats.StealsOK++
	if w.obs != nil {
		tid := obs.TaskID(frameTaskID(w.space, ent.FrameBase))
		w.obs.Span(obs.KStealOK, stealStart, ent.FrameSize, tid, victim, obs.HStealLatency)
		w.m.obs.TaskMoved(tid, victim, w.rank)
	}
	w.invoke(ent.FrameBase, ent.FrameSize)
	return true
}
