package sched

import (
	"math/bits"

	"uniaddr/internal/core"
	"uniaddr/internal/mem"
	"uniaddr/internal/obs"
)

// Engine is the scheduling MECHANISM both real backends run: the frame,
// Env and context-buffer pools, the join protocol with its wait queue,
// the thief side of the steal protocol with hint-guided victim
// selection, and the counters. It is memory-agnostic for the reason
// Arena, Deque and Table are: the frame bytes are the complete thread
// state, so nothing here depends on whether a peer's deque is a Go-heap
// slice (rt) or a window of an mmap'd segment (dist).
//
// A backend embeds an Engine BY VALUE in its worker and keeps the POLICY
// in its own file: the scheduler loop (what "stopped" and "idle" mean),
// runRoot, enter, ExecSpawnBegin, ExecSpawnRun, ExecComplete, the shared
// publish and newRecord. The Engine never calls up — it holds no interface,
// type parameter or func-valued hook for the backend's half, and task
// Envs dispatch straight to the backend worker (X), with the methods
// below promoted into its core.Exec through the embedding. The ~55
// lines the two backends' policy functions still share are duplicated
// on purpose: owning them here puts one non-inlined call per half on
// every task (measured: +8.5 ns/task for five), and a type parameter
// does not help — go1.24 dispatches a method call on a type parameter
// through the dictionary even for a unique struct shape (DESIGN.md §9).
type Engine struct {
	// Views is this worker's own memory (owner-side operations).
	Views
	// Peers is every rank's memory as seen from here, self included.
	Peers []Views
	Rank  int
	// X is the backend worker this Engine is embedded in, as the Exec
	// task Envs dispatch to.
	X     core.Exec
	Stats WorkerStats

	// Res is the thief-side fault state machine (owner-only); with no
	// injector configured it is dormant and free (see Resilience).
	Res *Resilience
	// Wlog is this worker's wall-clock event ring (nil when obs is off;
	// every emission is a nil-safe method call).
	Wlog *obs.Log
	// StopFn is the backend's stop predicate, bound ONCE: a method value
	// built at each Deque.Pop would allocate a closure per task.
	StopFn func() bool
	// Grain is the current job's granularity cutoff (ExecGrain).
	Grain uint64

	// Jobs resolves a frame's job tag to its slot for the live-chain
	// accounting (JobSlot.Live). nil on a backend whose frames all carry
	// tag 0: every step below that touches it is a no-op for that tag.
	Jobs *JobTable
	// Chain is the tag of the job whose live-chain token this worker
	// holds, 0 when its stack is empty. A stack is started only from the
	// idle loop, on an empty deque and a cleared arena — by a dispatch
	// (the backend sets Chain), a steal or a resume (set here from the
	// frame's header) — and every frame that then runs on it belongs to
	// that job. The backend's scheduler loop retires the token when its
	// Pop answers a settled "empty".
	Chain uint32
	// lastVictim caches the rank of the last successful steal victim (-1
	// none); owner-only. Declared beside Chain so the two share one 8-byte
	// word: a word more would move rt's Worker up an allocation size class.
	lastVictim int32

	waitq []savedCtx
	// Per-worker free lists (owner-only): suspended-context buffers and
	// task Envs, recycled instead of heap-allocated per use.
	ctxFree [][]byte
	envFree []*core.Env

	// tiers orders the other ranks by rank-group distance (BuildTiers);
	// stealBuf is the reusable batch buffer, sized to the per-steal entry
	// bound. Both owner-only.
	tiers    [NumTiers][]int
	stealBuf []Entry
	// rng is the victim-choice state: one word, not a heap math/rand
	// source — victim choice needs spread, not quality.
	rng  uint64
	spin uint64 // ExecWork sink; per worker to avoid false sharing
}

// Views is one rank's scheduler memory: attach-to-any-memory views, so
// the same three serve a Go-heap allocation and a shared segment.
type Views struct {
	Arena   *mem.Arena
	Deque   *Deque
	Records *Table
}

// WorkerStats counts one worker's scheduling events — the wall-clock
// counterparts of core.WorkerStats. Owner-written during the run; read
// by anyone else only after the worker has stopped. One field list for
// both backends: a counter only one of them moves stays zero on the
// other.
type WorkerStats struct {
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

	// Parks counts idle-parking episodes (an rt worker went to sleep on
	// the parking lot); Wakes the wake tokens it consumed (including a
	// token claimed between register and cancel). IdleSleeps is dist's
	// analogue: there is no cross-process futex to park on, so an idle
	// process sleeps in capped exponential backoff instead.
	Parks      uint64
	Wakes      uint64
	IdleSleeps uint64

	// ChainTokens counts the live-chain tokens this worker minted on a
	// JobSlot.Live (one per dispatch, successful steal batch and suspend
	// of a job-tagged frame), ChainEnds the ones it retired; the sums are
	// equal at quiescence, and neither moves on the task path.
	ChainTokens uint64
	ChainEnds   uint64
	// SharedPublishes counts completions published the shared way: a
	// seq-cst done store and the root check (on rt also the Waiter
	// handshake). Only a root, a frame entered from the scheduler loop
	// (stolen, resumed, or left on the deque by a steal batch) and an
	// inline child whose parent's Pop lost pay it; every other completion
	// is plain stores.
	SharedPublishes uint64

	WorkCycles   uint64
	MaxStackUsed uint64
	// RecordsLive is the owner-table live count sampled by FinalStats;
	// summed across workers for the quiescence check.
	RecordsLive int

	// Fault-resilience counters (non-zero only under injection; see
	// ResilienceStats, whose fields these mirror).
	StealFaults      uint64
	StealRetries     uint64
	StealRollbacks   uint64
	StealAbortsFault uint64
	VictimBlacklists uint64
	FaultBackoffNS   uint64
}

// Add accumulates s into t: every counter sums, MaxStackUsed is the
// maximum. TestWorkerStatsAddCoversEveryField fails on a field this
// list forgets.
func (t *WorkerStats) Add(s WorkerStats) {
	t.TasksExecuted += s.TasksExecuted
	t.TasksDrained += s.TasksDrained
	t.Spawns += s.Spawns
	t.JoinsFast += s.JoinsFast
	t.JoinsMiss += s.JoinsMiss
	t.Suspends += s.Suspends
	t.ResumesLocal += s.ResumesLocal
	t.ResumesWait += s.ResumesWait
	t.ParentStolen += s.ParentStolen
	t.StealAttempts += s.StealAttempts
	t.StealsOK += s.StealsOK
	t.StealAbortEmpty += s.StealAbortEmpty
	t.StealAbortLock += s.StealAbortLock
	t.BytesStolen += s.BytesStolen
	t.StealBatches += s.StealBatches
	t.StealBatchEntries += s.StealBatchEntries
	t.StealHintProbes += s.StealHintProbes
	t.StealCacheProbes += s.StealCacheProbes
	t.StealBlindProbes += s.StealBlindProbes
	t.Parks += s.Parks
	t.Wakes += s.Wakes
	t.IdleSleeps += s.IdleSleeps
	t.ChainTokens += s.ChainTokens
	t.ChainEnds += s.ChainEnds
	t.SharedPublishes += s.SharedPublishes
	t.WorkCycles += s.WorkCycles
	t.MaxStackUsed = max(t.MaxStackUsed, s.MaxStackUsed)
	t.RecordsLive += s.RecordsLive
	t.StealFaults += s.StealFaults
	t.StealRetries += s.StealRetries
	t.StealRollbacks += s.StealRollbacks
	t.StealAbortsFault += s.StealAbortsFault
	t.VictimBlacklists += s.VictimBlacklists
	t.FaultBackoffNS += s.FaultBackoffNS
}

// savedCtx is a suspended thread parked on the process-private Go heap
// — the real backends' analogue of the simulator's swap-out into the
// pinned RDMA region (Fig. 8): the frame bytes leave the uni-address
// region so stealing stays legal, and return to their original VA on
// resume. rec is the record the thread is joining on; the idle loop
// resumes a saved context only once rec completes, so a resume never
// bounces back into a re-suspend.
type savedCtx struct {
	base mem.VA
	size uint64
	buf  []byte
	rec  *Record
}

// ctxPoolCap / envPoolCap bound the per-worker free lists so a burst of
// suspends (PingPong holds hundreds of saved contexts at once) cannot
// pin an unbounded amount of memory after it drains.
const (
	ctxPoolCap = 64
	envPoolCap = 64
)

// Init completes an Engine whose X, Rank, Peers, Grain, Wlog, StopFn and
// (if its frames carry job tags) Jobs the backend has set. seed drives
// victim selection (each rank derives its own stream); stealBatch bounds
// the entries one steal round trip may move — 0 selects the deque's own
// bound (MaxClaim, the steal-half default), anything else is clamped to
// [1, MaxClaim]; tierGroup is the rank-block width of the victim tiers
// (<= 0: DefaultTierGroup). inj must be a nil INTERFACE, not a typed nil,
// for the resilience fast path to collapse.
func (en *Engine) Init(seed uint64, stealBatch, tierGroup int, inj StealInjector) {
	en.Views = en.Peers[en.Rank]
	en.rng = seed*0x9e3779b97f4a7c15 + uint64(en.Rank)*0xbf58476d1ce4e5b9 + 1
	en.lastVictim = -1
	en.tiers = BuildTiers(en.Rank, len(en.Peers), tierGroup)
	n := int(en.Deque.MaxClaim())
	if stealBatch > 0 && stealBatch < n {
		n = stealBatch
	}
	en.stealBuf = make([]Entry, max(n, 1))
	en.Res = NewResilience(en.Rank, DefaultResilienceConfig(), inj)
	en.Res.Log = en.Wlog
	en.Res.Jobs = en.Jobs
}

// intn draws from [0, n): one splitmix64 step, reduced by
// multiply-shift (no division, no modulo bias worth the name here).
func (en *Engine) intn(n int) int {
	en.rng += 0x9e3779b97f4a7c15
	z := en.rng
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	hi, _ := bits.Mul64(z^z>>31, uint64(n))
	return int(hi)
}

// FinalStats returns the counters completed with what is sampled rather
// than counted: the arena's high-water mark, the table's live records
// and the resilience layer's own counts. Call only after the worker has
// stopped, and on rt before its memory is shelved.
func (en *Engine) FinalStats() WorkerStats {
	s := en.Stats
	s.MaxStackUsed = en.Arena.Max()
	s.RecordsLive = en.Records.Live()
	rs := en.Res.Stats
	s.StealFaults = rs.StealFaults
	s.StealRetries = rs.StealRetries
	s.StealRollbacks = rs.StealRollbacks
	s.StealAbortsFault = rs.StealAbortsFault
	s.VictimBlacklists = rs.VictimBlacklists
	s.FaultBackoffNS = rs.BackoffNS
	return s
}

// --- frames and Envs ---------------------------------------------------

// NewFrame builds a fresh thread below the current chain and returns
// the Env addressing it. The arena is sliced ONCE: zeroing the locals,
// the header (all of it written) and the Env's view share that slice.
// job is the tag of the job the thread belongs to (0 on a backend that
// runs one job at a time): part of its state, so it rides in the header
// through every steal and suspend.
func (en *Engine) NewFrame(fid core.FuncID, localsLen uint32, rec core.Handle, job uint64) *core.Env {
	size := core.FrameBytes(localsLen)
	base, err := en.Arena.AllocBelow(size)
	if err != nil {
		panic(err)
	}
	f := en.Arena.MustSlice(base, size)
	clear(f[core.FrameHeaderBytes:])
	core.EncodeFrameHeader(f, fid, localsLen, uint32(job), rec)
	return en.GetEnv(base, f, 0)
}

// GetEnv returns a (possibly recycled) Env for one task entry; PutEnv
// recycles it. Safe because task functions must not retain an Env past
// their return (the core.NewEnv contract).
func (en *Engine) GetEnv(base mem.VA, frame []byte, rp uint32) *core.Env {
	if n := len(en.envFree); n > 0 {
		e := en.envFree[n-1]
		en.envFree[n-1] = nil
		en.envFree = en.envFree[:n-1]
		e.Reset(en.X, base, frame, rp)
		return e
	}
	return core.NewEnv(en.X, base, frame, rp)
}

func (en *Engine) PutEnv(e *core.Env) {
	if len(en.envFree) < envPoolCap {
		en.envFree = append(en.envFree, e)
	}
}

// getCtxBuf returns an n-byte buffer for a suspended context, reusing
// a pooled one when large enough; putCtxBuf recycles it.
func (en *Engine) getCtxBuf(n uint64) []byte {
	for len(en.ctxFree) > 0 {
		buf := en.ctxFree[len(en.ctxFree)-1]
		en.ctxFree[len(en.ctxFree)-1] = nil
		en.ctxFree = en.ctxFree[:len(en.ctxFree)-1]
		if uint64(cap(buf)) >= n {
			return buf[:n]
		}
		// Too small for this frame; drop it and keep looking.
	}
	return make([]byte, n)
}

func (en *Engine) putCtxBuf(buf []byte) {
	if len(en.ctxFree) < ctxPoolCap {
		en.ctxFree = append(en.ctxFree, buf)
	}
}

// --- records -----------------------------------------------------------

// Record resolves a handle to its record in the owning rank's table —
// on dist a window of another process's segment region.
func (en *Engine) Record(h core.Handle) *Record {
	return en.Peers[h.Rank()].Records.Get(RecordIndex(h))
}

// releaseRecord frees a joined record: straight onto the owning pool's
// private stack when we ARE the owner (no shared-memory traffic),
// through the CAS release stack otherwise — the Treiber protocol does
// not care whose process the stack lives in.
func (en *Engine) releaseRecord(h core.Handle) {
	if h.Rank() == en.Rank {
		en.Records.ReleaseLocal(RecordIndex(h))
		return
	}
	en.Peers[h.Rank()].Records.Release(RecordIndex(h))
}

// --- core.Exec, the half that is the same on every real backend --------

// ExecWork burns roughly `cycles` iterations of an LCG — the wall-clock
// stand-in for the simulator's virtual-time advance, so workload knobs
// like Fib's workCycles translate into real computation.
func (en *Engine) ExecWork(cycles uint64) {
	x := en.spin
	for i := uint64(0); i < cycles; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	en.spin = x
	en.Stats.WorkCycles += cycles
}

// ExecJoin is Fig. 7's join: poll the record (on dist a one-sided load
// on the owning rank's table); on a miss, record ourselves as the
// waiter, re-check (the Dekker handshake with the completer's shared
// publish — see Record.Waiter), then swap the frame out to a pooled heap buffer and
// park it on the wait queue. The parked frame is a second place where
// its job is live, so it takes a token of its own (JobSlot.Live) — minted
// here, while this worker still holds the chain's, and inherited by the
// ResumeReady that restarts it. rt's completer wakes the recorded waiter
// precisely; dist has no cross-process wake, so its idle loop re-polls
// the queue between steal rounds.
func (en *Engine) ExecJoin(e *core.Env, resumeRP int, h core.Handle) (uint64, bool) {
	if !h.Valid() {
		panic("sched: join on invalid handle")
	}
	r := en.Record(h)
	if r.IsDone() {
		en.Stats.JoinsFast++
		v := r.Result
		en.releaseRecord(h)
		return v, true
	}
	// Publish intent to wait BEFORE the final done check: a completer
	// that misses our waiter store must have stored done before our
	// recheck loads it, and vice versa.
	r.Waiter.Store(int64(en.Rank) + 1)
	if r.IsDone() {
		r.Waiter.Store(0)
		en.Stats.JoinsFast++
		v := r.Result
		en.releaseRecord(h)
		return v, true
	}
	en.Stats.JoinsMiss++
	en.Stats.Suspends++
	if en.Chain != 0 {
		en.Jobs.Get(en.Chain - 1).Live.Add(1)
		en.Stats.ChainTokens++
	}
	core.SetFrameResume(e.Header(), uint32(resumeRP))
	buf := en.getCtxBuf(e.FrameSize())
	ss := en.Wlog.Clock()
	copy(buf, en.Arena.MustSlice(e.FrameBase(), e.FrameSize()))
	en.Wlog.Span(obs.KSuspend, ss, e.FrameSize(), 0, -1, obs.HCopyNS)
	en.Wlog.Observe(obs.HCopyBytes, e.FrameSize())
	if err := en.Arena.FreeLowest(e.FrameBase(), e.FrameSize()); err != nil {
		panic(err)
	}
	en.waitq = append(en.waitq, savedCtx{base: e.FrameBase(), size: e.FrameSize(), buf: buf, rec: r})
	return 0, false
}

// ExecGrain returns the current job's granularity cutoff.
func (en *Engine) ExecGrain() uint64 { return en.Grain }

// ExecCoalesce reports local work surplus: this worker's own deque
// already holds enough unstolen entries that spawning finer tasks only
// adds overhead (the adaptive gate for core.GrainAuto).
func (en *Engine) ExecCoalesce() bool { return en.Deque.Size() >= core.CoalesceDequeMin }

// SimWorker returns nil: no real backend is the simulator.
func (en *Engine) SimWorker() *core.Worker { return nil }

// --- the idle side: reclaim, resume, steal -----------------------------

// ClearDead empties the arena of dead stolen-thread copies. Call it
// right after the scheduler loop's Pop answered "empty", with nothing
// running. Unlike the simulator's clearDead this must synchronise: a
// thief that claimed our LAST entry may still be mid-copy of its frame
// bytes. Pop decides "empty" only under the deque lock, and thieves hold
// that lock across the whole copy, so a settled empty answer means every
// in-flight copy has committed before the arena can be rewritten by an
// install or fresh frame; claims arriving later find bottom <= top and
// retreat without copying — whether the thief is a goroutine or another
// process. The one empty answer that settled nothing is a Pop whose lock
// spin StopFn aborted; StopFn never turns false again, so asking it once
// more tells the two apart. Returns false, the arena untouched, on that
// shutdown.
func (en *Engine) ClearDead() bool {
	if en.StopFn() {
		return false
	}
	en.Arena.Clear()
	return true
}

// Suspended returns how many threads sit on the wait queue (quiescence
// checks: zero after a clean run).
func (en *Engine) Suspended() int { return len(en.waitq) }

// HasReadyWaiter reports whether a suspended thread's join target has
// completed — a ResumeReady would succeed.
func (en *Engine) HasReadyWaiter() bool {
	for i := range en.waitq {
		if en.waitq[i].rec.IsDone() {
			return true
		}
	}
	return false
}

// ResumeReady restores the first suspended thread whose join target has
// completed to its original VA (Fig. 7's resume_saved_context); the
// caller re-enters it at (base, size). Suspended threads whose record
// is still pending stay put: resuming them would only bounce through
// the task body back into another suspend (the pre-optimization idle
// loop did exactly that — tens of thousands of resume→miss→re-suspend
// round trips per run). The completer may be any worker or process; its
// done store lands in the owning rank's table and is observed here by a
// plain polling load (rt also wakes us precisely via Record.Waiter).
func (en *Engine) ResumeReady() (base mem.VA, size uint64, ok bool) {
	for i := range en.waitq {
		if !en.waitq[i].rec.IsDone() {
			continue
		}
		sc := en.waitq[i]
		// Stop waiting while the joiner still owns the record: a rank
		// left behind outlives the join (see Record.Waiter).
		sc.rec.Waiter.Store(0)
		// Preserve FIFO order among the remaining waiters.
		copy(en.waitq[i:], en.waitq[i+1:])
		en.waitq[len(en.waitq)-1] = savedCtx{}
		en.waitq = en.waitq[:len(en.waitq)-1]
		if err := en.Arena.Install(sc.base, sc.size); err != nil {
			panic(err)
		}
		copy(en.Arena.MustSlice(sc.base, sc.size), sc.buf)
		// The token the suspend minted is this new chain's.
		en.Chain = core.FrameJob(sc.buf)
		en.putCtxBuf(sc.buf)
		en.Stats.ResumesWait++
		return sc.base, sc.size, true
	}
	return 0, 0, false
}

// Hint-guided, distance-tiered victim selection. The pre-optimization
// trySteal probed one uniformly random victim per idle round; with W
// workers and one busy victim, an idle worker burned W-2 empty probes
// (each a real StealBegin: an atomic RMW on the victim's lock line)
// for every hit. The replacement consults each candidate's racy
// Deque.Size() — two atomic loads, no RMW, and the very top/bottom lines
// StealBeginBatch reads next, so a hit costs no line of its own (on dist
// they are one-sided loads on another process's deque header inside the
// shared segment) — and a last-successful-victim cache before falling
// back to a single blind probe. The owner publishes nothing for thieves'
// benefit: a separate hint word would cost it two serialising stores per
// task to save a thief one load per probe.
//
// The hint sweep walks victims in DISTANCE order (BuildTiers, after
// distbdd-spin17's VERYNEAR/NEAR/FAR/VERYFAR arrays): candidates in the
// thief's own rank block first, then outward tier by tier, with a
// random start inside each tier so thieves don't convoy on the lowest
// rank. On rt the tiers model cache/NUMA affinity between neighbouring
// workers; on dist the same construction tiers process ranks. Tier
// order is a pure preference — liveness never depends on it, nor on the
// hint: Size() is exact but racy, so it can be stale by the time the
// probe lands (one wasted probe) and can read 0 for an instant while
// another thief's doomed claim inflates top, which is why the
// no-hints-anywhere path still probes one random victim blindly
// (DESIGN.md §10).

// TrySteal attempts one steal round: cache first, then the tiered hint
// sweep, then one blind probe — at most two StealBegin probes. It
// returns how many threads landed on our OWN deque (0: none). They are
// claimable by other thieves from that moment, so the caller must Pop —
// not invoke directly — to win execution rights to the newest.
func (en *Engine) TrySteal() int {
	if len(en.Peers) < 2 || !en.Arena.Empty() {
		return 0
	}
	// 1. Last successful victim: work-stealing victims are bursty — a
	// deep deque stays stealable across many rounds.
	if lv := int(en.lastVictim); lv >= 0 {
		if en.Peers[lv].Deque.Size() > 0 && !en.Res.Banned(lv) {
			en.Stats.StealCacheProbes++
			en.Wlog.Instant(obs.KProbeCache, 0, 0, lv)
			if n := en.stealFrom(lv); n > 0 {
				return n
			}
		}
		en.lastVictim = -1
	}
	// 2. Tiered hint sweep: scan each distance tier's deque sizes (cheap
	// loads) near-to-far, probing the first candidate that holds work
	// and is not blacklisted.
	for tier := range en.tiers {
		cands := en.tiers[tier]
		if len(cands) == 0 {
			continue
		}
		start := en.intn(len(cands))
		for i := 0; i < len(cands); i++ {
			vi := cands[(start+i)%len(cands)]
			if en.Peers[vi].Deque.Size() > 0 && !en.Res.Banned(vi) {
				en.Stats.StealHintProbes++
				en.Wlog.Instant(obs.KProbeHint, 0, 0, vi)
				return en.stealFrom(vi)
			}
		}
	}
	// 3. Every deque reads empty (or banned). A racy read can miss work
	// pushed a moment later, so probe one random victim anyway: the
	// blind probe is what makes progress independent of the sweep's
	// timing.
	vi := en.blindVictim()
	en.Stats.StealBlindProbes++
	en.Wlog.Instant(obs.KProbeBlind, 0, 0, vi)
	return en.stealFrom(vi)
}

// blindVictim draws a uniformly random victim != self, redrawing up to
// three times to steer around blacklisted victims, then using the last
// draw anyway: matching the sim's pickVictim, bans only redirect the
// draw, so liveness never depends on bans expiring on time.
func (en *Engine) blindVictim() int {
	vi := 0
	for redraw := 0; redraw < 4; redraw++ {
		vi = en.intn(len(en.Peers) - 1)
		if vi >= en.Rank {
			vi++
		}
		if !en.Res.Banned(vi) {
			break
		}
	}
	return vi
}

// stealFrom runs the thief side of Fig. 6 against rank vi through the
// resilience layer — batched: one claim/verify round trip moves up to
// ⌈size/2⌉ entries (Resilience.StealBatchFrom), landing as ONE
// contiguous install+memcpy in our arena (between two windows of the
// shared segment on dist: the one-sided migration the paper performs
// with RDMA READ, amortised over the batch). Legal only while our
// region is empty (TrySteal checked).
//
// The stolen entries are pushed onto our OWN deque oldest-first, so
// the deque order (and the arena's descending-VA chain) is preserved:
// the caller pops and runs the newest — exactly what the single-steal
// path executed — while the rest are real local work that other thieves
// can re-steal from us, which is how one round trip fans work out. On
// success vi becomes the cached victim for the next round.
func (en *Engine) stealFrom(vi int) int {
	en.Stats.StealAttempts++
	ts := en.Wlog.Clock()
	v := en.Peers[vi]
	n, outcome := en.Res.StealBatchFrom(vi, v.Deque, v.Arena, en.Arena, en.stealBuf)
	switch outcome {
	case StealEmpty, StealEmptyLocked:
		en.Stats.StealAbortEmpty++
		en.Wlog.Emit(obs.KStealEmpty, ts, en.Wlog.Clock()-ts, 0, 0, vi)
		return 0
	case StealLockBusy:
		en.Stats.StealAbortLock++
		en.Wlog.Emit(obs.KStealBusy, ts, en.Wlog.Clock()-ts, 0, 0, vi)
		return 0
	case StealFaulted:
		// Fault budget exhausted against this victim; drop the cache so
		// the next round picks someone else. (The resilience layer
		// already emitted the fault/retry/abandon events.)
		en.lastVictim = -1
		return 0
	}
	// The steal minted this new chain's token before it committed.
	newest := en.stealBuf[n-1]
	if en.Chain = core.FrameJob(en.Arena.MustSlice(newest.FrameBase, newest.FrameSize)); en.Chain != 0 {
		en.Stats.ChainTokens++
	}
	var total uint64
	for i := 0; i < n; i++ {
		total += en.stealBuf[i].FrameSize
		if err := en.Deque.Push(en.stealBuf[i]); err != nil {
			panic(err)
		}
	}
	en.Stats.StealsOK += uint64(n)
	en.Stats.BytesStolen += total
	en.Stats.StealBatches++
	en.Stats.StealBatchEntries += uint64(n)
	en.lastVictim = int32(vi)
	en.Wlog.Span(obs.KStealOK, ts, total, 0, vi, obs.HStealLatency)
	return n
}
