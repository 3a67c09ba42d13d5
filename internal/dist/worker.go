package dist

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"uniaddr/internal/core"
	"uniaddr/internal/fault"
	"uniaddr/internal/gas"
	"uniaddr/internal/mem"
	"uniaddr/internal/obs"
	"uniaddr/internal/sched"
)

// Stats counts one worker process's scheduling events — the dist
// counterparts of rt.Stats. Owner-written during the run; serialised
// into the bye message (children) or read after the loop exits
// (parent).
type Stats struct {
	TasksExecuted uint64
	Spawns        uint64
	JoinsFast     uint64
	JoinsMiss     uint64
	Suspends      uint64
	ResumesLocal  uint64
	ResumesWait   uint64
	ParentStolen  uint64

	StealAttempts   uint64
	StealsOK        uint64
	StealAbortEmpty uint64
	StealAbortLock  uint64
	BytesStolen     uint64

	// Steal-half batching, mirroring rt.Stats: batched round trips and
	// the entries they moved.
	StealBatches      uint64
	StealBatchEntries uint64

	// Steal-hint counters, mirroring rt.Stats: probes routed by the
	// victim's segment-hosted deque size or the last-victim cache vs
	// blind random probes.
	StealHintProbes  uint64
	StealCacheProbes uint64
	StealBlindProbes uint64

	// IdleSleeps counts idle-backoff sleep episodes — the dist analogue
	// of rt's Parks (there is no cross-process futex to park on, so an
	// idle worker sleeps in capped exponential backoff instead).
	IdleSleeps uint64

	WorkCycles   uint64
	MaxStackUsed uint64
	// RecordsLive is the owner-table live count sampled after the loop
	// exits; the coordinator sums it across workers for the quiescence
	// check (exactly one record — the root's — survives a clean run).
	RecordsLive int

	// Fault-resilience counters (non-zero only under injection; see
	// sched.ResilienceStats, whose fields these mirror).
	StealFaults      uint64
	StealRetries     uint64
	StealRollbacks   uint64
	StealAbortsFault uint64
	VictimBlacklists uint64
	FaultBackoffNS   uint64
}

// savedCtx is a suspended thread swapped out of the uni-address region
// onto the process-private Go heap, exactly as in rt: the bytes leave
// the arena so stealing stays legal, and return to their original VA on
// resume.
type savedCtx struct {
	base mem.VA
	size uint64
	buf  []byte
	rec  *sched.Record
}

const (
	ctxPoolCap = 64
	envPoolCap = 64
	// idleSpinRounds of cheap rechecks precede the first sleep;
	// idleSleepMin..idleSleepMax bound the backoff ladder. Sleeping —
	// not parking — because wake signals cannot cross process
	// boundaries through the segment without a futex, and the paper's
	// protocol keeps the data plane free of messages.
	idleSpinRounds = 64
	idleSleepMin   = 20 * time.Microsecond
	idleSleepMax   = time.Millisecond
)

// worker is one process's scheduling context. It implements core.Exec,
// so registered task functions run on it unchanged; every cross-worker
// interaction goes through the segment views (one-sided), never through
// a socket.
type worker struct {
	seg  *segment
	rank int

	arena   *sched.Arena // own arena view (owner side)
	deque   *sched.Deque // own deque view (owner side)
	records *sched.Table // own table view (owner side)

	waitq []savedCtx
	rng   *rand.Rand
	stats Stats
	spin  uint64

	stopFn func() bool

	lastVictim int32
	idleRounds int
	sleep      time.Duration

	// tiers orders victim ranks by rank-group distance (the dist
	// stand-in for fabric topology); the hint sweep walks them
	// near-to-far. stealBuf is the reusable batch buffer; grain is the
	// workload granularity cutoff surfaced via ExecGrain.
	tiers    [sched.NumTiers][]int
	stealBuf []sched.Entry
	grain    uint64

	// res is the thief-side fault state machine (owner-only; dormant
	// and free without an injector). hung, when non-nil and set, wedges
	// the worker at its next task entry (injected hang; see childMain).
	res  *sched.Resilience
	hung *atomic.Bool

	// wlog is this rank's segment-hosted wall-clock event ring (nil when
	// observability is off; every method is a nil no-op). The heartbeat
	// goroutine writes the same ring — it is multi-producer-safe.
	wlog *obs.WallLog

	ctxFree [][]byte
	envFree []*core.Env

	// Root plumbing; meaningful on rank 0 only (the init closure cannot
	// cross the process boundary, which is why the parent IS rank 0).
	rootFid    core.FuncID
	rootLocals uint32
	rootInit   func(*core.Env)
}

// tuning bundles the scheduler knobs every process must agree on; the
// parent fills it from Config, children from the childSpec.
type tuning struct {
	grain      uint64
	stealBatch int
	tierGroup  int
}

// stealBatchLimit resolves the StealBatch knob against the deque's
// claim bound: 0 → maxClaim, otherwise clamp to [1, maxClaim].
func stealBatchLimit(batch int, maxClaim uint64) int {
	n := int(maxClaim)
	if batch > 0 && batch < n {
		n = batch
	}
	if n < 1 {
		n = 1
	}
	return n
}

func newWorker(seg *segment, rank int, seed uint64, plan *fault.Plan, hung *atomic.Bool, tune tuning) *worker {
	w := &worker{
		seg:        seg,
		rank:       rank,
		arena:      seg.arenas[rank],
		deque:      seg.deques[rank],
		records:    seg.tables[rank],
		rng:        rand.New(rand.NewSource(int64(seed*0x9e3779b97f4a7c15 + uint64(rank)*0xbf58476d1ce4e5b9 + 1))),
		lastVictim: -1,
		sleep:      idleSleepMin,
		hung:       hung,
		grain:      tune.grain,
		tiers:      sched.BuildTiers(rank, seg.lay.workers, tune.tierGroup),
	}
	w.stealBuf = make([]sched.Entry, stealBatchLimit(tune.stealBatch, w.deque.MaxClaim()))
	// The interface value must be nil (not a typed nil *Plan) for the
	// resilience fast path to collapse.
	var inj sched.StealInjector
	if plan != nil {
		inj = plan
	}
	w.res = sched.NewResilience(rank, sched.DefaultResilienceConfig(), inj)
	w.wlog = seg.obsLog(rank)
	w.res.Log = w.wlog
	w.stopFn = seg.stopped
	return w
}

// run is the scheduler loop: pop local work, else clear dead stacks,
// resume a READY waiter or steal, else back off. Returns the panic (as
// an error) if the loop or a task body blew up; the caller publishes it
// through the fail word and the control plane.
func (w *worker) run() (err error) {
	defer func() {
		if r := recover(); r != nil {
			if _, aborted := r.(abortRun); !aborted {
				err = fmt.Errorf("dist: worker %d panicked: %v", w.rank, r)
			}
		}
		w.stats.MaxStackUsed = w.arena.Max()
		w.stats.RecordsLive = w.records.Live()
		rs := w.res.Stats
		w.stats.StealFaults = rs.StealFaults
		w.stats.StealRetries = rs.StealRetries
		w.stats.StealRollbacks = rs.StealRollbacks
		w.stats.StealAbortsFault = rs.StealAbortsFault
		w.stats.VictimBlacklists = rs.VictimBlacklists
		w.stats.FaultBackoffNS = rs.BackoffNS
	}()
	if w.rank == 0 {
		w.runRoot()
	}
	for !w.seg.stopped() {
		if ent, ok := w.deque.Pop(w.stopFn); ok {
			w.stats.ResumesLocal++
			w.invoke(ent.FrameBase, ent.FrameSize)
			w.idleReset()
			continue
		}
		if !w.clearDead() {
			return nil
		}
		if w.seg.stopped() {
			return nil
		}
		if w.resumeReady() {
			w.idleReset()
			continue
		}
		if w.trySteal() {
			w.idleReset()
			continue
		}
		w.idleWait()
	}
	return nil
}

// clearDead empties the arena of dead stolen-thread copies, winning the
// deque lock once so any thief mid-copy of our last entry has committed
// before the bytes can be rewritten (same argument as rt.clearDead —
// the protocol does not care that the thief is another process).
func (w *worker) clearDead() bool {
	if !w.deque.LockOwner(w.stopFn) {
		return false
	}
	w.deque.Unlock()
	w.arena.Clear()
	return true
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
	w.stats.IdleSleeps++
	ns := w.wlog.Clock()
	time.Sleep(w.sleep)
	w.wlog.Nap(ns)
	if w.sleep < idleSleepMax {
		w.sleep *= 2
	}
}

// runRoot builds the root thread's frame and runs it. The root record
// (rootRec: rank 0, index 0) was allocated by the coordinator before
// the start barrier.
func (w *worker) runRoot() {
	e := w.newFrame(w.rootFid, w.rootLocals, rootRec())
	if w.rootInit != nil {
		w.rootInit(e)
	}
	w.enter(e)
}

// newFrame builds a fresh thread below the current chain and returns
// the Env addressing it, slicing the arena once (see rt's newFrame).
func (w *worker) newFrame(fid core.FuncID, localsLen uint32, rec core.Handle) *core.Env {
	size := core.FrameBytes(localsLen)
	base, err := w.arena.AllocBelow(size)
	if err != nil {
		panic(err)
	}
	f := w.arena.MustSlice(base, size)
	clear(f[core.FrameHeaderBytes:])
	core.EncodeFrameHeader(f, fid, localsLen, 0, rec)
	return w.getEnv(base, f, 0)
}

func (w *worker) getEnv(base mem.VA, frame []byte, rp uint32) *core.Env {
	if n := len(w.envFree); n > 0 {
		e := w.envFree[n-1]
		w.envFree[n-1] = nil
		w.envFree = w.envFree[:n-1]
		e.Reset(w, base, frame, rp)
		return e
	}
	return core.NewEnv(w, base, frame, rp)
}

func (w *worker) putEnv(e *core.Env) {
	if len(w.envFree) < envPoolCap {
		w.envFree = append(w.envFree, e)
	}
}

func (w *worker) getCtxBuf(n uint64) []byte {
	for len(w.ctxFree) > 0 {
		buf := w.ctxFree[len(w.ctxFree)-1]
		w.ctxFree[len(w.ctxFree)-1] = nil
		w.ctxFree = w.ctxFree[:len(w.ctxFree)-1]
		if uint64(cap(buf)) >= n {
			return buf[:n]
		}
	}
	return make([]byte, n)
}

func (w *worker) putCtxBuf(buf []byte) {
	if len(w.ctxFree) < ctxPoolCap {
		w.ctxFree = append(w.ctxFree, buf)
	}
}

// abortRun is the sentinel unwound through task frames when the run
// has FAILED (crashed sibling, watchdog): the task tree's state no
// longer matters, so the fastest correct response is to abandon the
// in-flight subtree wholesale. Never raised for normal completion —
// `done` lets in-flight tasks finish naturally.
type abortRun struct{}

// invoke runs (or resumes) the thread whose stack starts at base.
func (w *worker) invoke(base mem.VA, size uint64) core.Status {
	return w.enter(w.getEnv(base, w.arena.MustSlice(base, size), 0))
}

// enter is invoke on a pooled Env already addressing the frame (a spawned
// child runs in the Env its init wrote through); it recycles e.
func (w *worker) enter(e *core.Env) core.Status {
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
	h := core.DecodeFrameHeader(e.Header())
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
// completed. The completer may be any process; its done store is a
// one-sided write into our rank's table region, observed here by a
// plain polling load.
func (w *worker) resumeReady() bool {
	for i := range w.waitq {
		if w.waitq[i].rec.IsDone() {
			sc := w.waitq[i]
			copy(w.waitq[i:], w.waitq[i+1:])
			w.waitq[len(w.waitq)-1] = savedCtx{}
			w.waitq = w.waitq[:len(w.waitq)-1]
			w.resumeSaved(sc)
			return true
		}
	}
	return false
}

func (w *worker) resumeSaved(sc savedCtx) {
	if err := w.arena.Install(sc.base, sc.size); err != nil {
		panic(err)
	}
	copy(w.arena.MustSlice(sc.base, sc.size), sc.buf)
	w.putCtxBuf(sc.buf)
	w.stats.ResumesWait++
	w.invoke(sc.base, sc.size)
}

// trySteal attempts one steal round, hint-guided as in rt: cached
// victim, then a distance-tiered sweep of the victims' deque sizes
// (near ranks first; see sched.BuildTiers), then one blind probe. Every
// read here is a one-sided load on another process's deque region: the
// hint is Size(), the top and bottom words in the victim's deque header
// INSIDE the shared segment — the two lines the steal itself loads
// next — so a probe decision costs no lock RMW and no line of its own.
func (w *worker) trySteal() bool {
	n := w.seg.lay.workers
	if n < 2 || !w.arena.Empty() {
		return false
	}
	if lv := w.lastVictim; lv >= 0 {
		if d := w.seg.deques[lv]; d.Size() > 0 && !w.res.Banned(int(lv)) {
			w.stats.StealCacheProbes++
			w.wlog.Instant(obs.KProbeCache, 0, 0, int(lv))
			if w.stealFrom(int(lv)) {
				return true
			}
		}
		w.lastVictim = -1
	}
	for tier := range w.tiers {
		cands := w.tiers[tier]
		if len(cands) == 0 {
			continue
		}
		start := w.rng.Intn(len(cands))
		for i := 0; i < len(cands); i++ {
			vi := cands[(start+i)%len(cands)]
			if w.seg.deques[vi].Size() > 0 && !w.res.Banned(vi) {
				w.stats.StealHintProbes++
				w.wlog.Instant(obs.KProbeHint, 0, 0, vi)
				return w.stealFrom(vi)
			}
		}
	}
	// Blind probe, steering around blacklisted victims for a few
	// redraws then proceeding anyway (liveness never depends on the
	// ban set; see rt.blindVictim).
	vi := 0
	for redraw := 0; redraw < 4; redraw++ {
		vi = w.rng.Intn(n - 1)
		if vi >= w.rank {
			vi++
		}
		if !w.res.Banned(vi) {
			break
		}
	}
	w.stats.StealBlindProbes++
	w.wlog.Instant(obs.KProbeBlind, 0, 0, vi)
	return w.stealFrom(vi)
}

// stealFrom is the thief side of the THE protocol against rank vi,
// through the shared resilience layer — batched: one claim/verify
// round trip moves up to ⌈size/2⌉ entries as ONE contiguous memcpy
// between two windows of the shared segment, the cross-process
// one-sided migration the paper performs with RDMA READ, now amortised
// over the batch. The stolen entries are pushed onto our own deque
// oldest-first (preserving deque order and the arena's descending-VA
// chain); the newest is popped and run, the rest stay stealable by
// other ranks.
func (w *worker) stealFrom(vi int) bool {
	w.stats.StealAttempts++
	ts := w.wlog.Clock()
	n, outcome := w.res.StealBatchFrom(vi, w.seg.deques[vi], w.seg.arenas[vi], w.arena, w.stealBuf)
	switch outcome {
	case sched.StealEmpty, sched.StealEmptyLocked:
		w.stats.StealAbortEmpty++
		w.wlog.Emit(obs.KStealEmpty, ts, w.wlog.Clock()-ts, 0, 0, vi)
		return false
	case sched.StealLockBusy:
		w.stats.StealAbortLock++
		w.wlog.Emit(obs.KStealBusy, ts, w.wlog.Clock()-ts, 0, 0, vi)
		return false
	case sched.StealFaulted:
		// The resilience layer already recorded the fault/retry/abandon
		// ladder for this attempt.
		w.lastVictim = -1
		return false
	}
	var total uint64
	for i := 0; i < n; i++ {
		total += w.stealBuf[i].FrameSize
		if err := w.deque.Push(w.stealBuf[i]); err != nil {
			panic(err)
		}
	}
	w.stats.StealsOK += uint64(n)
	w.stats.BytesStolen += total
	w.stats.StealBatches++
	w.stats.StealBatchEntries += uint64(n)
	w.lastVictim = int32(vi)
	w.wlog.StealOK(ts, total, vi)
	// Pop (not invoke directly): entries on our deque are claimable by
	// other ranks, so only a successful pop grants execution rights.
	if ent, ok := w.deque.Pop(w.stopFn); ok {
		w.invoke(ent.FrameBase, ent.FrameSize)
	}
	return true
}

// --- core.Exec implementation ----------------------------------------

// ExecWork burns roughly `cycles` iterations of an LCG, as in rt.
func (w *worker) ExecWork(cycles uint64) {
	x := w.spin
	for i := uint64(0); i < cycles; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	w.spin = x
	w.stats.WorkCycles += cycles
}

// ExecComplete publishes a task's result into its record — a one-sided
// write into the owning rank's table region, wherever that process
// lives. Completing the ROOT record additionally publishes the result
// and the done word on the control page, which is what terminates every
// process's scheduler loop.
func (w *worker) ExecComplete(rec core.Handle, result uint64) {
	r := w.seg.tables[rec.Rank()].Get(sched.RecordIndex(rec))
	r.Result = result
	r.Job.Store(sched.RecordDone(0))
	// Record the waiter handshake for symmetry with rt; there is no
	// cross-process wake to deliver (idle workers poll), so the load is
	// advisory only.
	_ = r.Waiter.Load()
	if rec == rootRec() {
		w.seg.ctl.result.Store(result)
		w.seg.ctl.done.Store(1)
	}
}

// ExecSpawnBegin/ExecSpawnRun are the child-first spawn, identical to
// rt's: the thief that takes the published continuation may now be
// another PROCESS.
func (w *worker) ExecSpawnBegin(e *core.Env, resumeRP, handleSlot int, fid core.FuncID, localsLen uint32, _ bool) *core.Env {
	w.stats.Spawns++
	core.SetFrameResume(e.Header(), uint32(resumeRP))
	rec := w.newRecord()
	e.SetHandle(handleSlot, rec)
	if err := w.deque.Push(sched.Entry{FrameBase: e.FrameBase(), FrameSize: e.FrameSize()}); err != nil {
		panic(err)
	}
	return w.newFrame(fid, localsLen, rec)
}

func (w *worker) ExecSpawnRun(e, child *core.Env) bool {
	w.enter(child)
	if ent, ok := w.deque.Pop(w.stopFn); ok {
		if ent.FrameBase != e.FrameBase() || ent.FrameSize != e.FrameSize() {
			panic(fmt.Sprintf("dist: deque corruption: popped %#x/%d, expected %#x/%d",
				ent.FrameBase, ent.FrameSize, e.FrameBase(), e.FrameSize()))
		}
		return true
	}
	w.stats.ParentStolen++
	if err := w.arena.FreeLowest(e.FrameBase(), e.FrameSize()); err != nil {
		panic(err)
	}
	return false
}

// ExecJoin polls the record (a one-sided load on the owning rank's
// table); on a miss it publishes the waiter mark, re-checks, then swaps
// the frame out to the process-private heap and parks it on the wait
// queue. Unlike rt there is no precise cross-process wake: the idle
// loop re-polls waitq records between steal rounds.
func (w *worker) ExecJoin(e *core.Env, resumeRP int, h core.Handle) (uint64, bool) {
	if !h.Valid() {
		panic("dist: join on invalid handle")
	}
	r := w.seg.tables[h.Rank()].Get(sched.RecordIndex(h))
	if r.IsDone() {
		w.stats.JoinsFast++
		v := r.Result
		w.releaseRecord(h)
		return v, true
	}
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

func (w *worker) newRecord() core.Handle {
	idx, err := w.records.Alloc()
	if err != nil {
		panic(err)
	}
	return sched.RecordHandle(w.rank, idx)
}

// releaseRecord frees a joined record: owner-local fast path, or a CAS
// push onto the owning rank's shared release stack — which may live in
// another process's table region; the Treiber protocol doesn't care.
func (w *worker) releaseRecord(h core.Handle) {
	if h.Rank() == w.rank {
		w.records.ReleaseLocal(sched.RecordIndex(h))
		return
	}
	w.seg.tables[h.Rank()].Release(sched.RecordIndex(h))
}

// ExecGasHeap: no global heap on dist; gas workloads are sim-only.
func (w *worker) ExecGasHeap() *gas.Heap { return nil }

func (w *worker) execGasPanic() {
	panic("dist: global heap (gas) operations are not supported on the multi-process backend; run this workload on the simulator")
}

// ExecGasGet implements core.Exec; unsupported on dist.
func (w *worker) ExecGasGet(r gas.Ref, buf []byte) { w.execGasPanic() }

// ExecGasPut implements core.Exec; unsupported on dist.
func (w *worker) ExecGasPut(r gas.Ref, buf []byte) { w.execGasPanic() }

// ExecGasGetU64 implements core.Exec; unsupported on dist.
func (w *worker) ExecGasGetU64(r gas.Ref) uint64 { w.execGasPanic(); return 0 }

// ExecGasPutU64 implements core.Exec; unsupported on dist.
func (w *worker) ExecGasPutU64(r gas.Ref, v uint64) { w.execGasPanic() }

// ExecGasAlloc implements core.Exec; unsupported on dist.
func (w *worker) ExecGasAlloc(n uint64) gas.Ref { w.execGasPanic(); return gas.Ref(0) }

// ExecGrain returns the run's configured granularity cutoff.
func (w *worker) ExecGrain() uint64 { return w.grain }

// ExecCoalesce reports local work surplus: this rank's own deque
// already holds enough unstolen entries that spawning finer tasks only
// adds overhead (the adaptive gate for core.GrainAuto).
func (w *worker) ExecCoalesce() bool { return w.deque.Size() >= core.CoalesceDequeMin }

// SimWorker returns nil: this backend is not the simulator.
func (w *worker) SimWorker() *core.Worker { return nil }
