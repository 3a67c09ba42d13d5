package sched

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// An exhaustive interleaving explorer for the job-completion protocol
// (DESIGN.md §15) and the record publication it rides on (§9): every
// merge of four actors' step lists, each step one access to a REAL word —
// JobSlot's State/Root/Result/Live, a Record's lifecycle word and Result,
// the victim Deque's lock/top/bottom — memoised on the whole state.
// Tenant A starts Running with one live chain: the victim is inside the
// root's one child, the root's continuation on its deque.
//
//	victim completes the child (stashes its result), pops its continuation
//	       — won lock-free, won or lost under the lock — and only then
//	       publishes the child's completion: plainly if the Pop won, the
//	       shared way if it lost. After a win it runs the root to its end.
//	       Its chain ends, then its idle loop sweeps what was posted to it
//	thief  probes, locks, claims, (copies,) mints, unlocks; enters the
//	       stolen root — drained at entry if the job is canceled, else
//	       joined on the child: done, or suspended (a second mint), the
//	       chain ended, and resumed once the child is done; then its chain
//	       ends
//	cancel flips A to Draining, from outside any task
//	disp   waits for the slot to be freed, installs tenant B over it (same
//	       slot, same root record), runs B's root on a third worker and
//	       ends that chain
//
// Both records live in the victim's table. Whoever takes Live to 0
// finalizes; for a canceled tenant it then posts a sweep of the tenant
// to the records' owner, the victim, whose idle loop may run it at any
// point after — what is still posted when everyone is done, Pool.Close
// sweeps. The step lists below are rt.Worker.ExecComplete, ExecSpawnRun's
// Pop and its publish (publishLocal / publish), enter's drain test,
// endChain and sweep, rt.Pool.jobQuiesced, finalizeSlot, postSweep,
// cancelRunning and startQueuedJob, sched.Engine.ExecJoin and
// ResumeReady, Resilience.StealBatchFrom and Deque.Pop/StealBeginBatch,
// one word access at a time (a failed lock spin and a not-yet-ready resume
// poll are "blocked": they touch nothing and are retried). A protocol
// mutant is a different step ORDER built by the same function; production
// has no switch.

const (
	ilTagA  = 1 // tenant job ids; the phase-only mutant stores 0 for both
	ilTagB  = 2
	ilRoot  = 0 // record indices
	ilChild = 1
	// Workers, for the plain per-worker tallies.
	ilVictim, ilThief, ilDisp = 0, 1, 2
)

type ilMutant struct {
	mintAfterCommit   bool // the thief mints outside the victim's lock
	retireBeforeStore bool // a chain's token is retired before its last completion's record stores
	mintAfterRetire   bool // a suspend mints after its chain's stack-empty retire
	phaseOnlyCAS      bool // no tenant in the compared State word
	plainAfterLostPop bool // the child's completion is published plainly after its parent's Pop lost
	postBeforeRelease bool // the sweep is posted before finalizeSlot releases the root
	postAtCancel      bool // the sweep is posted by the cancel, before Live reached 0
	slotTags          bool // records carry the slot's tag, not the tenant
}

// id is what a tenant's actors put in State words.
func (m ilMutant) id(tenant uint64) uint64 {
	if m.phaseOnlyCAS {
		return 0
	}
	return tenant
}

// recTag is what a tenant's records carry, and what its sweep looks for.
func (m ilMutant) recTag(tenant uint64) uint64 {
	if m.slotTags {
		return JobTag(0)
	}
	return Tenant(tenant)
}

// ilWorld is the shared memory plus the ghost state the invariants read.
type ilWorld struct {
	slot        JobSlot
	dq          *Deque    // the victim's
	rec         [2]Record // the victim's table
	tally       [3]uint64 // rt.Worker.tally[slot].tasks, by worker: plain words
	anyCanceled atomic.Int64
	posted      uint64 // the victim's sweepTenants (one at most here); 0 = none

	tenant     uint64   // ghost: whose slot it is (A until the dispatcher claims it)
	freeListed bool     // ghost: finalizeSlot returned the slot to the free list
	finalized  [3]int8  // ghost: finalizeSlot entries, by tenant
	executed   [3]uint8 // ghost: completions, by tenant
	freed      [2]int8  // ghost: releases of each record in its current epoch
	escaped    [2]bool  // ghost: the record's handle may be read off its owner's worker
	actors     []*ilActor
	fail       string
	ran        map[string]bool // not state: every "actor@pc" some interleaving executed
}

const ilBlocked = -1

type ilStep func(w *ilWorld, a *ilActor) int // next pc, or ilBlocked having touched nothing

type ilActor struct {
	name   string
	tenant uint64 // the job it acts for
	id     uint64 // the id it puts in State words (0 under phaseOnlyCAS)
	tag    uint64 // the tag its job's records carry
	worker int    // whose tally it writes
	steps  []ilStep
	dead   map[int]bool // steps the protocol makes unreachable (a mutant may still get there)

	pc   int
	t, b uint64 // deque indices it loaded
	n    uint64 // completions since its last chain end (the Stats delta)
}

type ilActorSnap struct {
	pc      int16
	t, b, n uint8
}

// ilSnap is every word and ghost, comparable so it keys the visited set.
type ilSnap struct {
	state, root, result uint64
	live                int64
	lock, top, bottom   uint64
	rec                 [2][2]uint64
	tally               [3]uint64
	anyCanceled         int64
	posted              uint64
	tenant              uint64
	freeListed          bool
	finalized           [3]int8
	executed            [3]uint8
	freed               [2]int8
	escaped             [2]bool
	act                 [4]ilActorSnap
}

func (w *ilWorld) save() ilSnap {
	s := ilSnap{
		state: w.slot.State.Load(), root: w.slot.Root.Load(), result: w.slot.Result.Load(), live: w.slot.Live.Load(),
		lock: w.dq.hdr.lock.Load(), top: w.dq.hdr.top.Load(), bottom: w.dq.hdr.bottom.Load(),
		tally: w.tally, anyCanceled: w.anyCanceled.Load(), posted: w.posted, tenant: w.tenant, freeListed: w.freeListed,
		finalized: w.finalized, executed: w.executed, freed: w.freed, escaped: w.escaped,
	}
	for i := range w.rec {
		s.rec[i] = [2]uint64{w.rec[i].Job.Load(), w.rec[i].Result}
	}
	for i, a := range w.actors {
		s.act[i] = ilActorSnap{int16(a.pc), uint8(a.t), uint8(a.b), uint8(a.n)}
	}
	return s
}

func (w *ilWorld) load(s ilSnap) {
	w.slot.State.Store(s.state)
	w.slot.Root.Store(s.root)
	w.slot.Result.Store(s.result)
	w.slot.Live.Store(s.live)
	w.dq.hdr.lock.Store(s.lock)
	w.dq.hdr.top.Store(s.top)
	w.dq.hdr.bottom.Store(s.bottom)
	w.tally = s.tally
	w.anyCanceled.Store(s.anyCanceled)
	w.posted = s.posted
	w.tenant, w.freeListed, w.finalized, w.executed, w.freed, w.escaped = s.tenant, s.freeListed, s.finalized, s.executed, s.freed, s.escaped
	for i := range w.rec {
		w.rec[i].Job.Store(s.rec[i][0])
		w.rec[i].Result = s.rec[i][1]
	}
	for i, a := range w.actors {
		a.pc, a.t, a.b, a.n = int(s.act[i].pc), uint64(s.act[i].t), uint64(s.act[i].b), uint64(s.act[i].n)
	}
}

func (w *ilWorld) violate(a *ilActor, format string, args ...any) {
	if w.fail == "" {
		w.fail = a.name + ": " + fmt.Sprintf(format, args...)
	}
}

// access is the check every load, store or RMW a task makes on a slot
// word, a record or a tally runs: the slot must still be its tenant's,
// and its tenant must not have been finalized — a finalizer reads the
// tallies, releases the root and frees the slot with no lock, so it must
// be the last one there. For the plain tally words that is the whole
// single-accessor argument: a write whose retire had not landed when the
// finalizer's own retire read 0 is a retire after the finalize, and is
// caught there.
func (w *ilWorld) access(a *ilActor, what string) {
	if w.tenant != a.tenant {
		w.violate(a, "%s landed on tenant %d's slot", what, w.tenant)
	}
	if w.finalized[a.tenant] != 0 {
		w.violate(a, "%s after tenant %d was finalized", what, a.tenant)
	}
}

// recWrite is access for a completer's record stores, which must also
// find the record unreleased.
func (w *ilWorld) recWrite(a *ilActor, rec int) {
	w.access(a, fmt.Sprintf("store to record %d", rec))
	if w.freed[rec] != 0 {
		w.violate(a, "store to record %d after it was released", rec)
	}
}

// plainStore is Record.StorePlain, which is for the record's owner only
// while no other worker can read the word: before its handle escaped.
// (Production's one later plain store, the owner's ReleaseLocal of a
// record whose handle came back to it, has no counterpart here.)
func (w *ilWorld) plainStore(a *ilActor, rec int, word uint64) {
	if w.escaped[rec] {
		w.violate(a, "plain store to record %d's lifecycle word after its handle escaped", rec)
	}
	w.rec[rec].StorePlain(word)
}

// free clears a record's lifecycle word once in its epoch: plainly for
// the owner's ReleaseLocal, seq-cst for a remote Release, the finalizer's
// root release and a sweep.
func (w *ilWorld) free(a *ilActor, rec int, plain bool) {
	if w.freed[rec]++; w.freed[rec] > 1 {
		w.violate(a, "record %d released twice", rec)
	}
	if plain {
		w.plainStore(a, rec, 0)
	} else {
		w.rec[rec].Job.Store(0)
	}
}

// release is a joiner's release of the child record: ReleaseLocal by the
// owner, Release from another worker.
func (w *ilWorld) release(a *ilActor, rec int, plain bool) {
	w.access(a, fmt.Sprintf("release of record %d", rec))
	w.free(a, rec, plain)
}

// sweep is rt.Worker.sweep on the victim's table: Table.SweepTenants for
// whatever was posted.
func (w *ilWorld) sweep(a *ilActor) {
	if w.posted == 0 {
		return
	}
	for rec := range w.rec {
		if word := w.rec[rec].Job.Load(); word != 0 && word>>1 == w.posted {
			w.free(a, rec, false)
		}
	}
	w.posted = 0
}

// ilProg appends steps; a step's default successor is the next one.
// Control only ever moves forward, so a segment that runs twice (the
// thief enters the root once stolen and once resumed) is appended twice.
type ilProg struct{ a *ilActor }

func (p ilProg) add(f ilStep) int {
	p.a.steps = append(p.a.steps, f)
	return len(p.a.steps) - 1
}

func (p ilProg) next() int { return len(p.a.steps) }

// dead marks steps [from, to) as ones no interleaving of the real
// protocol may reach; TestJobProtocolInterleavings holds the model to it.
func (p ilProg) dead(from, to int) {
	if p.a.dead == nil {
		p.a.dead = map[int]bool{}
	}
	for pc := from; pc < to; pc++ {
		p.a.dead[pc] = true
	}
}

// end is the pc past the last step; closures read it when they run,
// after the whole program has been built.
func (a *ilActor) end() int { return len(a.steps) }

// stash appends rt.Worker.ExecComplete for record rec (with enter's
// count of the completion): the result, a plain word, and nothing else.
func (p ilProg) stash(rec int, result uint64) {
	p.add(func(w *ilWorld, a *ilActor) int {
		w.recWrite(a, rec)
		w.rec[rec].Result = result
		a.n++
		w.executed[a.tenant]++
		return a.pc + 1
	})
}

// publishLocal appends rt.Worker.publishLocal: one plain store.
func (p ilProg) publishLocal(rec int) {
	p.add(func(w *ilWorld, a *ilActor) int {
		w.recWrite(a, rec)
		w.plainStore(a, rec, RecordDone(a.tag))
		return a.pc + 1
	})
}

// publish appends rt.Worker.publish: the seq-cst done store (the Waiter
// load after it is the parking lot's, not modelled), the Root load and,
// for the root, its Result store and Running→Done CAS.
func (p ilProg) publish(rec int, root bool) {
	p.add(func(w *ilWorld, a *ilActor) int {
		w.recWrite(a, rec)
		w.rec[rec].Job.Store(RecordDone(a.tag))
		return a.pc + 1
	})
	p.add(func(w *ilWorld, a *ilActor) int {
		w.access(a, "publish's Root load")
		w.slot.Root.Load()
		return a.pc + 1
	})
	if !root { // a child finds another handle there and is done with the slot
		return
	}
	p.add(func(w *ilWorld, a *ilActor) int {
		w.access(a, "the root's Result store")
		w.slot.Result.Store(w.rec[rec].Result)
		return a.pc + 1
	})
	p.add(func(w *ilWorld, a *ilActor) int { // loses only to a cancel
		w.access(a, "the root's Running→Done CAS")
		w.slot.Advance(a.id, JobRunning, JobDone)
		return a.pc + 1
	})
}

// complete appends a completion entered through enterShared: the stash,
// then the shared publish.
func (p ilProg) complete(rec int, root bool, result uint64) {
	p.stash(rec, result)
	p.publish(rec, root)
}

// mint appends one Live.Add(1): a steal's or a suspend's.
func (p ilProg) mint(what string) {
	p.add(func(w *ilWorld, a *ilActor) int {
		w.access(a, what)
		w.slot.Live.Add(1)
		return a.pc + 1
	})
}

// endChain appends rt.Worker.endChain — tally, retire — and, for the
// retire that reads 0, jobQuiesced: finalizeSlot, and for a canceled
// tenant first the Draining→Done CAS and after it postSweep. A chain that
// was not the last goes on to *then, one that finalized to *after (read
// when the steps run). It returns the pc of jobQuiesced's test and the
// canceled branch's [canceled, end); the Done branch lies between.
func (p ilProg) endChain(m ilMutant, then, after *int) (quiesced, canceled, end int) {
	p.add(func(w *ilWorld, a *ilActor) int {
		w.access(a, "endChain's tally write")
		w.tally[a.worker] += a.n
		a.n = 0
		return a.pc + 1
	})
	p.add(func(w *ilWorld, a *ilActor) int {
		w.access(a, "endChain's retire")
		switch live := w.slot.Live.Add(-1); {
		case live < 0:
			w.violate(a, "Live went to %d", live)
		case live == 0:
			return a.pc + 1
		}
		return *then
	})
	quiesced = p.add(func(w *ilWorld, a *ilActor) int {
		if w.slot.State.Load() == JobState(a.id, JobDone) {
			return a.pc + 1
		}
		return canceled
	})
	p.finalizeSlot(m, false, after)
	canceled = p.add(func(w *ilWorld, a *ilActor) int {
		if !w.slot.Advance(a.id, JobDraining, JobDone) {
			w.violate(a, "tenant %d's last chain ended with its slot in state %#x", a.tenant, w.slot.State.Load())
		}
		return a.pc + 1
	})
	p.add(func(w *ilWorld, a *ilActor) int { w.anyCanceled.Add(-1); return a.pc + 1 })
	p.finalizeSlot(m, true, after)
	return quiesced, canceled, p.next()
}

// postSweep appends rt.Pool.postSweep of the actor's tenant.
func (p ilProg) postSweep() {
	p.add(func(w *ilWorld, a *ilActor) int { w.posted = a.tag; return a.pc + 1 })
}

// finalizeSlot appends rt.Pool.finalizeSlot and, for a canceled
// tenant, the postSweep after it; then it goes on to *after.
func (p ilProg) finalizeSlot(m ilMutant, canceled bool, after *int) {
	p.add(func(w *ilWorld, a *ilActor) int {
		if w.tenant != a.tenant {
			w.violate(a, "finalizing tenant %d on tenant %d's slot", a.tenant, w.tenant)
		}
		if w.finalized[a.tenant]++; w.finalized[a.tenant] > 1 {
			w.violate(a, "tenant %d finalized twice", a.tenant)
		}
		return a.pc + 1
	})
	if canceled && m.postBeforeRelease {
		p.postSweep()
	}
	// The root's Release.
	p.add(func(w *ilWorld, a *ilActor) int { w.free(a, ilRoot, false); return a.pc + 1 })
	p.add(func(w *ilWorld, a *ilActor) int { // Report.Tasks: every worker's tally, read and zeroed
		var sum uint64
		for i := range w.tally {
			sum += w.tally[i]
			w.tally[i] = 0
		}
		if sum != uint64(w.executed[a.tenant]) {
			w.violate(a, "tenant %d's tallies sum to %d, its tasks completed %d times", a.tenant, sum, w.executed[a.tenant])
		}
		return a.pc + 1
	})
	p.add(func(w *ilWorld, a *ilActor) int { w.slot.Root.Store(0); return a.pc + 1 })
	post := canceled && !m.postBeforeRelease && !m.postAtCancel
	p.add(func(w *ilWorld, a *ilActor) int {
		w.slot.State.Store(JobFree)
		w.freeListed = true
		if post {
			return a.pc + 1
		}
		return *after
	})
	if post {
		p.postSweep()
		p.add(func(w *ilWorld, a *ilActor) int { return *after })
	}
}

// lockOwner appends Deque.LockOwner.
func (p ilProg) lockOwner() int {
	return p.add(func(w *ilWorld, a *ilActor) int {
		if w.dq.hdr.lock.Load() != 0 {
			return ilBlocked
		}
		w.dq.hdr.lock.Add(1)
		return a.pc + 1
	})
}

// ilVictimActor: ExecComplete(child), ExecSpawnRun's Deque.Pop and
// publish, then either the rest of the root or nothing; the end of the
// chain; the idle loop's sweep. (The scheduler loop's own Pop after a
// failed one repeats the locked half on the same empty deque; it is
// folded into the first.)
func ilVictimActor(m ilMutant) *ilActor {
	a := &ilActor{name: "victim", tenant: ilTagA, id: m.id(ilTagA), tag: m.recTag(ilTagA), worker: ilVictim}
	p := ilProg{a}
	p.stash(ilChild, 41)
	var won, slow, stolen, chainEnd int
	p.add(func(w *ilWorld, a *ilActor) int { a.b = w.dq.hdr.bottom.Load(); return a.pc + 1 })
	p.add(func(w *ilWorld, a *ilActor) int {
		if a.t = w.dq.hdr.top.Load(); a.b > a.t {
			return a.pc + 1
		}
		return slow
	})
	p.add(func(w *ilWorld, a *ilActor) int { a.b--; w.dq.hdr.bottom.Store(a.b); return a.pc + 1 })
	p.add(func(w *ilWorld, a *ilActor) int {
		if a.t = w.dq.hdr.top.Load(); a.t <= a.b {
			return won
		}
		return a.pc + 1
	})
	p.add(func(w *ilWorld, a *ilActor) int { w.dq.hdr.bottom.Store(a.b + 1); return a.pc + 1 })
	slow = p.lockOwner()
	p.add(func(w *ilWorld, a *ilActor) int { a.b = w.dq.hdr.bottom.Load(); return a.pc + 1 })
	var unlockWon int
	p.add(func(w *ilWorld, a *ilActor) int {
		if a.t = w.dq.hdr.top.Load(); a.b > a.t {
			return a.pc + 1
		}
		return a.pc + 3 // empty, decided under the lock
	})
	p.add(func(w *ilWorld, a *ilActor) int { w.dq.hdr.bottom.Store(a.b - 1); return unlockWon })
	unlockWon = p.add(func(w *ilWorld, a *ilActor) int { w.dq.hdr.lock.Store(0); return won })
	p.add(func(w *ilWorld, a *ilActor) int { w.dq.hdr.lock.Store(0); return stolen })
	// The continuation is ours, and the child's handle never left: publish
	// plainly, join the child (done, by us), end the root, and find the
	// stack empty under the lock.
	won = p.next()
	p.publishLocal(ilChild)
	p.add(func(w *ilWorld, a *ilActor) int { w.release(a, ilChild, true); return a.pc + 1 })
	p.complete(ilRoot, true, 40)
	p.lockOwner()
	p.add(func(w *ilWorld, a *ilActor) int { w.dq.hdr.lock.Store(0); return chainEnd })
	// The continuation was stolen, and the child's handle with it.
	stolen = p.next()
	if m.plainAfterLostPop {
		p.publishLocal(ilChild)
	} else {
		p.publish(ilChild, false)
	}
	chainEnd = p.next()
	idle := 0
	p.endChain(m, &idle, &idle)
	idle = p.add(func(w *ilWorld, a *ilActor) int { w.sweep(a); return a.end() })
	return a
}

// ilThiefActor: StealBatchFrom on the victim's deque, then the stolen
// root on the thief's own (private, unmodelled) stack.
func ilThiefActor(m ilMutant) *ilActor {
	a := &ilActor{name: "thief", tenant: ilTagA, id: m.id(ilTagA), tag: m.recTag(ilTagA), worker: ilThief}
	p := ilProg{a}
	p.add(func(w *ilWorld, a *ilActor) int { a.t = w.dq.hdr.top.Load(); return a.pc + 1 })
	p.add(func(w *ilWorld, a *ilActor) int {
		if a.b = w.dq.hdr.bottom.Load(); a.b <= a.t {
			return a.end() // StealEmpty
		}
		return a.pc + 1
	})
	p.add(func(w *ilWorld, a *ilActor) int {
		if w.dq.hdr.lock.Add(1) != 1 {
			return a.end() // StealLockBusy: the holder's release absorbs the increment
		}
		return a.pc + 1
	})
	p.add(func(w *ilWorld, a *ilActor) int { a.t = w.dq.hdr.top.Load(); return a.pc + 1 })
	p.add(func(w *ilWorld, a *ilActor) int { w.dq.hdr.top.Store(a.t + 1); return a.pc + 1 })
	p.add(func(w *ilWorld, a *ilActor) int {
		if a.b = w.dq.hdr.bottom.Load(); a.b <= a.t {
			return a.pc + 1
		}
		// The claim stands and covers the root's frame: the copy reads
		// the child's handle out of it.
		w.escaped[ilChild] = true
		return a.pc + 3
	})
	p.add(func(w *ilWorld, a *ilActor) int { w.dq.hdr.top.Store(a.t); return a.pc + 1 }) // retreat
	p.add(func(w *ilWorld, a *ilActor) int { w.dq.hdr.lock.Store(0); return a.end() })   // StealEmptyLocked
	commit := func() { p.add(func(w *ilWorld, a *ilActor) int { w.dq.hdr.lock.Store(0); return a.pc + 1 }) }
	if m.mintAfterCommit {
		commit()
		p.mint("the steal's mint")
	} else {
		p.mint("the steal's mint")
		commit()
	}
	// enterRoot appends rt.Worker.enter on the root frame, from invoke:
	// drained if its job is canceled, else its body from the join on.
	end := 0
	finish := func(result uint64, drained bool) {
		if m.retireBeforeStore {
			body := 0
			p.endChain(m, &body, &body)
			body = p.next()
			p.complete(ilRoot, true, result)
			p.add(func(w *ilWorld, a *ilActor) int { return a.end() })
			return
		}
		p.complete(ilRoot, true, result)
		quiesced, canceled, _ := p.endChain(m, &end, &end)
		if drained { // only a cancel drains, and only the finalizer takes it to Done
			p.dead(quiesced+1, canceled)
		}
	}
	enterRoot := func(resumed bool) {
		var body, drain int
		p.add(func(w *ilWorld, a *ilActor) int {
			if w.anyCanceled.Load() > 0 {
				return a.pc + 1
			}
			return body
		})
		p.add(func(w *ilWorld, a *ilActor) int {
			w.access(a, "enter's State load")
			if JobPhase(w.slot.State.Load()) == JobDraining {
				return drain
			}
			return body
		})
		drain = p.next()
		finish(0, true) // without running the body: the child's record is left for the sweep
		var joined, idle int
		body = p.add(func(w *ilWorld, a *ilActor) int { // ExecJoin
			if w.rec[ilChild].IsDone() {
				return joined
			}
			return a.pc + 1
		})
		if !resumed { // a resume found the child done, so its join does too
			p.add(func(w *ilWorld, a *ilActor) int { // the recheck after the Waiter store
				if w.rec[ilChild].IsDone() {
					return joined
				}
				return a.pc + 1
			})
			// Suspend: the parked frame's token, then this chain's end —
			// which cannot be the job's last, having just minted.
			if m.mintAfterRetire {
				mint := 0
				p.endChain(m, &mint, &mint)
				mint = p.next()
				p.mint("the suspend's mint")
				p.add(func(w *ilWorld, a *ilActor) int { return idle })
			} else {
				p.mint("the suspend's mint")
				quiesced, _, after := p.endChain(m, &idle, &idle)
				p.dead(quiesced, after)
			}
		}
		joined = p.add(func(w *ilWorld, a *ilActor) int { w.release(a, ilChild, false); return a.pc + 1 })
		finish(40, false)
		if !resumed {
			idle = p.add(func(w *ilWorld, a *ilActor) int { // ResumeReady's poll
				if !w.rec[ilChild].IsDone() {
					return ilBlocked
				}
				return a.pc + 1
			})
		}
	}
	enterRoot(false)
	enterRoot(true)
	end = a.end()
	return a
}

func ilCanceller(m ilMutant) *ilActor {
	a := &ilActor{name: "cancel", tenant: ilTagA, id: m.id(ilTagA), tag: m.recTag(ilTagA)}
	p := ilProg{a}
	p.add(func(w *ilWorld, a *ilActor) int { // cancelRunning: the one access made with no token held
		if !w.slot.Advance(a.id, JobRunning, JobDraining) {
			return a.end()
		}
		if w.tenant != a.tenant {
			w.violate(a, "cancelRunning's Running→Draining CAS landed on tenant %d's slot", w.tenant)
		}
		return a.pc + 1
	})
	p.add(func(w *ilWorld, a *ilActor) int { w.anyCanceled.Add(1); return a.pc + 1 })
	if m.postAtCancel {
		p.postSweep()
	}
	return a
}

func ilDispatcher(m ilMutant) *ilActor {
	a := &ilActor{name: "disp", tenant: ilTagB, id: m.id(ilTagB), tag: m.recTag(ilTagB), worker: ilDisp}
	p := ilProg{a}
	p.add(func(w *ilWorld, a *ilActor) int { // claimJob, under the mutex finalizeSlot freed the slot under
		if !w.freeListed {
			return ilBlocked
		}
		w.freeListed, w.tenant = false, a.tenant
		return a.pc + 1
	})
	p.add(func(w *ilWorld, a *ilActor) int { w.slot.Result.Store(0); return a.pc + 1 })
	p.add(func(w *ilWorld, a *ilActor) int { // B's root reuses A's root record: a new epoch, a plain open
		w.freed[ilRoot], w.escaped[ilRoot] = 0, false
		w.plainStore(a, ilRoot, RecordPending(a.tag))
		return a.pc + 1
	})
	p.add(func(w *ilWorld, a *ilActor) int { w.slot.Root.Store(7); w.escaped[ilRoot] = true; return a.pc + 1 })
	p.add(func(w *ilWorld, a *ilActor) int { w.slot.Live.Store(1); return a.pc + 1 })
	p.add(func(w *ilWorld, a *ilActor) int { w.slot.State.Store(JobState(a.id, JobRunning)); return a.pc + 1 })
	p.complete(ilRoot, true, 50)
	end := 0
	_, canceled, after := p.endChain(m, &end, &end)
	p.dead(canceled, after) // nobody cancels B
	end = a.end()
	return a
}

// ilBuild sets tenant A running: one chain (the victim's), the root's
// continuation on the victim's deque, the root's one child running.
func ilBuild(m ilMutant) *ilWorld {
	w := &ilWorld{tenant: ilTagA, dq: NewDeque(2), ran: map[string]bool{}}
	w.slot.State.Store(JobState(m.id(ilTagA), JobRunning))
	w.slot.Root.Store(7)
	w.slot.Live.Store(1)
	w.dq.hdr.bottom.Store(1)
	w.rec[ilRoot].Job.Store(RecordPending(m.recTag(ilTagA)))
	w.rec[ilChild].Job.Store(RecordPending(m.recTag(ilTagA)))
	w.escaped[ilRoot] = true // dispatched: its handle is in the slot's Root
	w.actors = []*ilActor{ilVictimActor(m), ilThiefActor(m), ilCanceller(m), ilDispatcher(m)}
	return w
}

// ilExplore walks every interleaving depth-first, stopping at the first
// violation, and returns the states visited, the violation and the
// schedule that reached it.
func ilExplore(w *ilWorld) (states int, violation string, schedule []string) {
	seen := map[ilSnap]struct{}{}
	var dfs func()
	dfs = func() {
		here := w.save()
		if _, ok := seen[here]; ok {
			return
		}
		seen[here] = struct{}{}
		ran := 0
		for _, a := range w.actors {
			if a.pc >= len(a.steps) {
				continue
			}
			pc := a.pc
			next := a.steps[pc](w, a)
			if next == ilBlocked {
				continue
			}
			ran++
			a.pc = next
			schedule = append(schedule, fmt.Sprintf("%s@%d", a.name, pc))
			w.ran[schedule[len(schedule)-1]] = true
			if w.fail == "" {
				dfs()
			}
			if w.fail != "" {
				return
			}
			schedule = schedule[:len(schedule)-1]
			w.load(here)
		}
		if ran > 0 {
			return
		}
		// Nobody can move: everyone must have finished, each tenant
		// finalized exactly once, every token retired — and, once Close
		// has swept what is still posted, every record released exactly
		// once in its epoch.
		for _, a := range w.actors {
			if a.pc < len(a.steps) {
				w.violate(a, "stuck at step %d with nobody left to unblock it (tenant A finalized %d times)", a.pc, w.finalized[ilTagA])
			}
		}
		if w.finalized[ilTagA] != 1 || w.finalized[ilTagB] != 1 {
			w.violate(w.actors[0], "at rest tenants A and B were finalized %d and %d times, want once each",
				w.finalized[ilTagA], w.finalized[ilTagB])
		}
		if live, c, lock := w.slot.Live.Load(), w.anyCanceled.Load(), w.dq.hdr.lock.Load(); live != 0 || c != 0 || lock != 0 {
			w.violate(w.actors[0], "at rest Live is %d, anyCanceled %d, the deque lock %d, want all 0", live, c, lock)
		}
		w.sweep(w.actors[ilVictim]) // Pool.Close
		for rec := range w.rec {
			if word := w.rec[rec].Job.Load(); word != 0 || w.freed[rec] != 1 {
				w.violate(w.actors[ilVictim], "after Close's sweep record %d reads %#x, released %d times in its epoch, want free and once",
					rec, word, w.freed[rec])
			}
		}
	}
	dfs()
	return len(seen), w.fail, schedule
}

func TestJobProtocolInterleavings(t *testing.T) {
	w := ilBuild(ilMutant{})
	states, violation, schedule := ilExplore(w)
	if violation != "" {
		t.Errorf("%s\nschedule: %s", violation, strings.Join(schedule, " "))
	}
	// The model is only worth its verdict if every path of it is walked:
	// the lock-free and both locked pops, both publishes, the retreat,
	// drain at entry, join done, suspend and resume, both ways into
	// finalizeSlot, the post and the sweep.
	for _, a := range w.actors {
		for pc := range a.steps {
			if at := fmt.Sprintf("%s@%d", a.name, pc); w.ran[at] == a.dead[pc] {
				t.Errorf("%s: reached %v, dead by the protocol %v", at, w.ran[at], a.dead[pc])
			}
		}
	}
	t.Logf("%d states, no violation", states)
}

// Each placement is load-bearing: move one and some interleaving takes
// Live to 0 under a live frame — the job is finalized, or the slot handed
// on, while a task of it still has a store to make — or stores a record
// word plainly where another worker may read it, or frees a record twice.
func TestJobProtocolMutantsFail(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    ilMutant
	}{
		{"the thief mints after StealCommit", ilMutant{mintAfterCommit: true}},
		{"retire before the completion's record store", ilMutant{retireBeforeStore: true}},
		{"the suspend's mint after the stack-empty retire", ilMutant{mintAfterRetire: true}},
		{"phase-only CAS", ilMutant{phaseOnlyCAS: true}},
		{"plain publish after a lost Pop", ilMutant{plainAfterLostPop: true}},
		{"the sweep posted before the root's release", ilMutant{postBeforeRelease: true}},
		{"the sweep posted at the cancel, before Live reached 0", ilMutant{postAtCancel: true}},
		{"slot tags in record words", ilMutant{slotTags: true}},
	} {
		states, violation, schedule := ilExplore(ilBuild(tc.m))
		if violation == "" {
			t.Errorf("mutant %q: no interleaving violates an invariant (%d states)", tc.name, states)
			continue
		}
		t.Logf("%s: after %d states: %s\nschedule: %s", tc.name, states, violation, strings.Join(schedule, " "))
	}
}

// --- The parking lot (DESIGN.md §10) ---------------------------------
//
// A second model, over the words an idle worker's park and the three
// kinds of producer touch. One worker parks: first it is a joiner that
// missed its child (Engine.ExecJoin: the Waiter store, the done recheck),
// then its stack runs dry and it registers in the lot, rechecks every
// source of work (rt.Worker.hasWorkHint) and waits; once it is running
// again its idle loop resumes the child if it is done (Engine.ResumeReady,
// which resets Waiter). The producers each publish one kind of work and
// wake:
//
//	submit   rt.Pool.Submit: the queuedCount store, the lot-count load,
//	         wakeOne when the load saw a parker
//	spawn    rt.Worker.ExecSpawnBegin: the Push's bottom store, the
//	         lot-count load, wakeOne
//	complete rt.Worker.publish of the parker's child: the done store, the
//	         Waiter load, wakeWorker of the rank it read
//
// The lot mutex makes register, cancel and each wake one step apiece, and
// the wake token is the parker's one-slot wakeCh. The lot count,
// queuedCount and freeSlotCount are rt's words, modelled by atomics of the
// same type; the deque and the record are sched's. Every subset of the
// producers is explored, because a producer whose wake happens to reach
// the parker covers for another's lost one. At rest: no worker is parked
// while work it could take is published (a queued job with a free slot,
// an entry on the peer's deque, its own child done); every wake token was
// consumed; and a joiner that stopped waiting left its record naming no
// waiter, ready for its next life.

type plMutant struct {
	countBeforeQueue bool // Submit loads the lot count before its queuedCount store
	recheckFirst     bool // the parker rechecks before it registers
	waiterBeforeDone bool // the completer loads Waiter before its done store
	keepWaiter       bool // the joiner does not reset Waiter when it stops waiting
}

type plWorld struct {
	count, queued, free atomic.Int64 // rt's lot count, queuedCount, freeSlotCount
	dq                  *Deque       // the spawner's
	rec                 Record       // the parker's child

	parked  bool // the parker is on the lot's list (under the lot mutex)
	token   int  // the parker's wakeCh holds a token
	resumed bool // ghost: the joiner stopped waiting on rec
	actors  []*plActor
	fail    string
	ran     map[string]bool // not state: every "actor@pc" some interleaving executed
}

type plStep func(w *plWorld, a *plActor) int // next pc, or ilBlocked having touched nothing

type plActor struct {
	name  string
	steps []plStep
	pc    int
	q     int64 // a loaded queuedCount
	t     uint64
	seen  bool // what its loads found: work (the parker's recheck) or a parker (a producer's)
}

type plSnap struct {
	count, queued, free int64
	top, bottom, job    uint64
	waiter              int64
	parked, resumed     bool
	token               int8
	pc                  [4]int8
	q                   [4]int8
	t                   [4]uint8
	seen                [4]bool
}

func (w *plWorld) save() plSnap {
	s := plSnap{
		count: w.count.Load(), queued: w.queued.Load(), free: w.free.Load(),
		top: w.dq.hdr.top.Load(), bottom: w.dq.hdr.bottom.Load(), job: w.rec.Job.Load(), waiter: w.rec.Waiter.Load(),
		parked: w.parked, resumed: w.resumed, token: int8(w.token),
	}
	for i, a := range w.actors {
		s.pc[i], s.q[i], s.t[i], s.seen[i] = int8(a.pc), int8(a.q), uint8(a.t), a.seen
	}
	return s
}

func (w *plWorld) load(s plSnap) {
	w.count.Store(s.count)
	w.queued.Store(s.queued)
	w.free.Store(s.free)
	w.dq.hdr.top.Store(s.top)
	w.dq.hdr.bottom.Store(s.bottom)
	w.rec.Job.Store(s.job)
	w.rec.Waiter.Store(s.waiter)
	w.parked, w.resumed, w.token = s.parked, s.resumed, int(s.token)
	for i, a := range w.actors {
		a.pc, a.q, a.t, a.seen = int(s.pc[i]), int64(s.q[i]), uint64(s.t[i]), s.seen[i]
	}
}

func (w *plWorld) violate(a *plActor, format string, args ...any) {
	if w.fail == "" {
		w.fail = a.name + ": " + fmt.Sprintf(format, args...)
	}
}

// workFor reports what the parker could take right now, or "".
func (w *plWorld) workFor() string {
	switch {
	case w.queued.Load() > 0 && w.free.Load() > 0:
		return "a queued job with a free slot"
	case w.dq.Size() > 0:
		return "an entry on the peer's deque"
	case w.rec.IsDone():
		return "its own child done"
	}
	return ""
}

// wake is parkingLot.wakeOne and wakeWorker of the one parker: under the
// lot mutex, remove it if registered and send its token.
func (w *plWorld) wake(a *plActor) {
	if !w.parked {
		return
	}
	w.parked = false
	w.count.Add(-1)
	if w.token++; w.token > 1 {
		w.violate(a, "wake token sent to a full wakeCh")
	}
}

type plProg struct{ a *plActor }

func (p plProg) add(f plStep) int {
	p.a.steps = append(p.a.steps, f)
	return len(p.a.steps) - 1
}

func (p plProg) next() int { return len(p.a.steps) }

func plParker(m plMutant) *plActor {
	a := &plActor{name: "parker"}
	p := plProg{a}
	var resume, wait, after int
	p.add(func(w *plWorld, a *plActor) int { w.rec.Waiter.Store(1); return a.pc + 1 }) // rank 0 + 1
	p.add(func(w *plWorld, a *plActor) int {
		if w.rec.IsDone() {
			return resume
		}
		return a.pc + 1
	})
	register := func() {
		p.add(func(w *plWorld, a *plActor) int { w.parked = true; w.count.Add(1); return a.pc + 1 })
	}
	recheck := func() {
		p.add(func(w *plWorld, a *plActor) int { a.q = w.queued.Load(); return a.pc + 1 })
		p.add(func(w *plWorld, a *plActor) int {
			a.seen = a.seen || a.q > 0 && w.free.Load() > 0
			return a.pc + 1
		})
		p.add(func(w *plWorld, a *plActor) int { a.t = w.dq.hdr.top.Load(); return a.pc + 1 })
		p.add(func(w *plWorld, a *plActor) int {
			a.seen = a.seen || w.dq.hdr.bottom.Load() > a.t
			return a.pc + 1
		})
		p.add(func(w *plWorld, a *plActor) int { a.seen = a.seen || w.rec.IsDone(); return a.pc + 1 })
	}
	if m.recheckFirst {
		recheck()
		register()
	} else {
		register()
		recheck()
	}
	p.add(func(w *plWorld, a *plActor) int { // work found: cancel
		if !a.seen {
			return wait
		}
		if w.parked {
			w.parked = false
			w.count.Add(-1)
			return after
		}
		return a.pc + 1
	})
	// A waker claimed us between register and cancel: consume its token.
	p.add(func(w *plWorld, a *plActor) int { w.token--; return after })
	wait = p.add(func(w *plWorld, a *plActor) int {
		if w.token == 0 {
			return ilBlocked
		}
		w.token--
		return a.pc + 1
	})
	after = p.add(func(w *plWorld, a *plActor) int { // running again: ResumeReady's poll
		if w.rec.IsDone() {
			return a.pc + 1
		}
		return len(a.steps) // its next idle rounds find whatever woke it
	})
	resume = p.add(func(w *plWorld, a *plActor) int {
		if !m.keepWaiter {
			w.rec.Waiter.Store(0)
		}
		w.resumed = true
		return a.pc + 1
	})
	return a
}

// plProducer is a store of work, the load that looks for a parker, and
// the wake when it saw one; reversed, the load comes first.
func plProducer(name string, reversed bool, store, look plStep) *plActor {
	a := &plActor{name: name}
	p := plProg{a}
	if reversed {
		p.add(look)
		p.add(store)
	} else {
		p.add(store)
		p.add(look)
	}
	p.add(func(w *plWorld, a *plActor) int {
		if a.seen {
			w.wake(a)
		}
		return a.pc + 1
	})
	return a
}

func plLookCount(w *plWorld, a *plActor) int { a.seen = w.count.Load() > 0; return a.pc + 1 }

// plBuild is a pool with a free slot, an empty queue, the spawner's deque
// empty and the parker's child pending; producers picks which of submit,
// spawn and complete (bits 0, 1, 2) take part.
func plBuild(m plMutant, producers int) *plWorld {
	w := &plWorld{dq: NewDeque(2), ran: map[string]bool{}}
	w.free.Store(1)
	w.rec.Job.Store(RecordPending(1))
	w.actors = []*plActor{plParker(m)}
	if producers&1 != 0 {
		w.actors = append(w.actors, plProducer("submit", m.countBeforeQueue,
			func(w *plWorld, a *plActor) int { w.queued.Store(1); return a.pc + 1 }, plLookCount))
	}
	if producers&2 != 0 {
		w.actors = append(w.actors, plProducer("spawn", false,
			func(w *plWorld, a *plActor) int { w.dq.hdr.bottom.Store(1); return a.pc + 1 }, plLookCount))
	}
	if producers&4 != 0 {
		w.actors = append(w.actors, plProducer("complete", m.waiterBeforeDone,
			func(w *plWorld, a *plActor) int { w.rec.Job.Store(RecordDone(1)); return a.pc + 1 },
			func(w *plWorld, a *plActor) int { a.seen = w.rec.Waiter.Load() == 1; return a.pc + 1 }))
	}
	return w
}

// plExplore walks every interleaving depth-first, stopping at the first
// violation, and returns the states visited, the violation and the
// schedule that reached it.
func plExplore(w *plWorld) (states int, violation string, schedule []string) {
	seen := map[plSnap]struct{}{}
	parker := w.actors[0]
	var dfs func()
	dfs = func() {
		here := w.save()
		if _, ok := seen[here]; ok {
			return
		}
		seen[here] = struct{}{}
		ran := 0
		for _, a := range w.actors {
			if a.pc >= len(a.steps) {
				continue
			}
			pc := a.pc
			next := a.steps[pc](w, a)
			if next == ilBlocked {
				continue
			}
			ran++
			a.pc = next
			schedule = append(schedule, fmt.Sprintf("%s@%d", a.name, pc))
			w.ran[schedule[len(schedule)-1]] = true
			if w.fail == "" {
				dfs()
			}
			if w.fail != "" {
				return
			}
			schedule = schedule[:len(schedule)-1]
			w.load(here)
		}
		if ran > 0 {
			return
		}
		for _, a := range w.actors[1:] {
			if a.pc < len(a.steps) {
				w.violate(a, "stuck at step %d", a.pc)
			}
		}
		switch {
		case parker.pc < len(parker.steps) && !w.parked:
			w.violate(parker, "waiting on its wakeCh, but no longer in the lot")
		case parker.pc < len(parker.steps) && w.workFor() != "":
			w.violate(parker, "parked for good while %s", w.workFor())
		case parker.pc == len(parker.steps) && (w.parked || w.token != 0):
			w.violate(parker, "running, but still in the lot (%v) or with a token left in its wakeCh (%d)", w.parked, w.token)
		case w.resumed && w.rec.Waiter.Load() != 0:
			w.violate(parker, "stopped waiting on its child, whose record still names waiter %d", w.rec.Waiter.Load())
		}
	}
	dfs()
	return len(seen), w.fail, schedule
}

func TestParkingLotInterleavings(t *testing.T) {
	ran := map[string]bool{}
	steps := map[string]bool{}
	total := 0
	for producers := 0; producers < 8; producers++ {
		w := plBuild(plMutant{}, producers)
		states, violation, schedule := plExplore(w)
		total += states
		if violation != "" {
			t.Errorf("producers %03b: %s\nschedule: %s", producers, violation, strings.Join(schedule, " "))
		}
		for at := range w.ran {
			ran[at] = true
		}
		for _, a := range w.actors {
			for pc := range a.steps {
				steps[fmt.Sprintf("%s@%d", a.name, pc)] = true
			}
		}
	}
	// Every step is walked by some interleaving: the joiner's hit, the
	// recheck's cancel with and without a token in flight, the wait, the
	// resume, and every producer's wake.
	for at := range steps {
		if !ran[at] {
			t.Errorf("%s is never reached", at)
		}
	}
	t.Logf("%d states over 8 producer sets, no violation", total)
}

// Each order is load-bearing: reverse one and some interleaving leaves the
// worker parked beside work nobody will wake it for, or recycles a record
// that still names a waiter.
func TestParkingLotMutantsFail(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    plMutant
	}{
		{"Submit's count load above its queuedCount store", plMutant{countBeforeQueue: true}},
		{"the parker's recheck before its register", plMutant{recheckFirst: true}},
		{"the completer's Waiter load before its done store", plMutant{waiterBeforeDone: true}},
		{"no Waiter reset when the joiner stops waiting", plMutant{keepWaiter: true}},
	} {
		failed := false
		for producers := 0; producers < 8 && !failed; producers++ {
			states, violation, schedule := plExplore(plBuild(tc.m, producers))
			if violation != "" {
				failed = true
				t.Logf("%s: producers %03b, after %d states: %s\nschedule: %s",
					tc.name, producers, states, violation, strings.Join(schedule, " "))
			}
		}
		if !failed {
			t.Errorf("mutant %q: no interleaving violates an invariant", tc.name)
		}
	}
}
