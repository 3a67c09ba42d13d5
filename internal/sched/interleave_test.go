package sched

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// An exhaustive interleaving explorer for the job-completion protocol
// (DESIGN.md §15): every merge of four actors' step lists, each step one
// access to a REAL JobSlot, JobCount or Record word, memoised on the
// whole state. The actors are the ones that meet on a recycled slot:
//
//	child  completes tenant A's one spawned task, then (some job being
//	       canceled) re-runs A's drain check — possibly long after A left
//	root   completes A's root: either after joining the child, or drained
//	       at entry without joining it (its continuation was stolen, the
//	       cancel landed first)
//	cancel cancels A and runs the drain check from outside any task
//	disp   waits for the slot to be freed, resets the counters, installs
//	       tenant B, lets B spawn ONE task that never ends and cancels B —
//	       so B is draining with Spawns == 1, exactly what makes a sum of
//	       A's two executions and B's one spawn look closed
//
// The step lists below are rt.Worker.ExecComplete, rt.Runtime.drainCheck,
// rootFinalize, finalizeSlot, cancelRunning and startQueuedJob, one word
// access at a time. A protocol mutant is a different step ORDER built by
// the same function; production has no switch.

const (
	ilShards = 2 // counter blocks: the child completes on worker 0, the root on worker 1
	ilTagA   = 1 // tenant ids; the phase-only mutant stores 0 for both
	ilTagB   = 2
	ilRoot   = 0 // record indices
	ilChild  = 1
)

type ilMutant struct {
	rootSlotWritesAfterBump bool // rule 1 broken for the slot
	phaseOnlyCAS            bool // rule 2 broken: no tenant in the compared word
	bumpBeforeRecordStore   bool // rule 1 broken for the record (the order the bracket used to protect)
}

// id is what a tenant's actors put in State words.
func (m ilMutant) id(tenant uint64) uint64 {
	if m.phaseOnlyCAS {
		return 0
	}
	return tenant
}

// ilWorld is the shared memory plus the ghost state the invariants read.
type ilWorld struct {
	slot        JobSlot
	cnt         [ilShards]JobCount
	rec         [2]Record
	anyCanceled atomic.Int64 // rt.Runtime.anyCanceled

	tenant     uint64  // ghost: whose slot it is (A until the dispatcher claims it)
	freeListed bool    // ghost: finalizeSlot returned the slot to the free list
	finalized  [3]int8 // ghost: finalizeSlot entries, by tenant
	freed      [2]int8 // ghost: releases of each record in its current epoch
	actors     []*ilActor
	fail       string
}

const ilBlocked = -1

type ilStep func(w *ilWorld, a *ilActor) int // next pc, or ilBlocked having touched nothing

type ilActor struct {
	name      string
	tenant    uint64 // the job it acts for
	id        uint64 // the id it puts in State words (0 under phaseOnlyCAS)
	completer bool
	lastWrite int // pc of its last completion-phase record/slot write
	steps     []ilStep

	pc     int
	ex, sp uint64
	won    bool
}

type ilActorSnap struct {
	pc     int8
	ex, sp uint8
	won    bool
}

// ilSnap is every word and ghost, comparable so it keys the visited set.
type ilSnap struct {
	state, root, result uint64
	cnt                 [ilShards][2]uint64
	rec                 [2][2]uint64
	anyCanceled         int64
	tenant              uint64
	freeListed          bool
	finalized           [3]int8
	freed               [2]int8
	act                 [4]ilActorSnap
}

func (w *ilWorld) save() ilSnap {
	s := ilSnap{
		state: w.slot.State.Load(), root: w.slot.Root.Load(), result: w.slot.Result.Load(),
		anyCanceled: w.anyCanceled.Load(), tenant: w.tenant, freeListed: w.freeListed,
		finalized: w.finalized, freed: w.freed,
	}
	for i := range w.cnt {
		s.cnt[i] = [2]uint64{w.cnt[i].Spawns.Load(), w.cnt[i].Executed.Load()}
	}
	for i := range w.rec {
		s.rec[i] = [2]uint64{w.rec[i].Job.Load(), w.rec[i].Result}
	}
	for i, a := range w.actors {
		s.act[i] = ilActorSnap{int8(a.pc), uint8(a.ex), uint8(a.sp), a.won}
	}
	return s
}

func (w *ilWorld) load(s ilSnap) {
	w.slot.State.Store(s.state)
	w.slot.Root.Store(s.root)
	w.slot.Result.Store(s.result)
	w.anyCanceled.Store(s.anyCanceled)
	w.tenant, w.freeListed, w.finalized, w.freed = s.tenant, s.freeListed, s.finalized, s.freed
	for i := range w.cnt {
		w.cnt[i].Spawns.Store(s.cnt[i][0])
		w.cnt[i].Executed.Store(s.cnt[i][1])
	}
	for i := range w.rec {
		w.rec[i].Job.Store(s.rec[i][0])
		w.rec[i].Result = s.rec[i][1]
	}
	for i, a := range w.actors {
		a.pc, a.ex, a.sp, a.won = int(s.act[i].pc), uint64(s.act[i].ex), uint64(s.act[i].sp), s.act[i].won
	}
}

func (w *ilWorld) violate(a *ilActor, format string, args ...any) {
	if w.fail == "" {
		w.fail = a.name + ": " + fmt.Sprintf(format, args...)
	}
}

// slotWrite is the check every store (or successful CAS) to the slot
// runs: it must land on the writer's own tenant.
func (w *ilWorld) slotWrite(a *ilActor, what string) {
	if w.tenant != a.tenant {
		w.violate(a, "%s landed on tenant %d's slot", what, w.tenant)
	}
}

// recWrite is the same for a completer's record stores.
func (w *ilWorld) recWrite(a *ilActor, rec int) {
	if w.freed[rec] != 0 {
		w.violate(a, "store to record %d after it was released", rec)
	}
}

// claim is Table.ReleaseTagged on one record: CAS the lifecycle word
// from either phase of the tag to free.
func (w *ilWorld) claim(a *ilActor, rec int) {
	word := w.rec[rec].Job.Load()
	if word>>1 == JobTag(0) && w.rec[rec].Job.CompareAndSwap(word, 0) {
		if w.freed[rec]++; w.freed[rec] > 1 {
			w.violate(a, "record %d released twice", rec)
		}
	}
}

// ilProg appends steps; a step's default successor is the next one.
type ilProg struct{ a *ilActor }

func (p ilProg) add(f ilStep) int {
	p.a.steps = append(p.a.steps, f)
	return len(p.a.steps) - 1
}

func (p ilProg) next() int { return len(p.a.steps) }

// end is the pc past the last step; closures read it when they run,
// after the whole program has been built.
func (a *ilActor) end() int { return len(a.steps) }

// sums appends jobSums: every Executed before any Spawns.
func (p ilProg) sums() {
	for i := 0; i < ilShards; i++ {
		p.add(func(w *ilWorld, a *ilActor) int {
			if i == 0 {
				a.ex = 0
			}
			a.ex += w.cnt[i].Executed.Load()
			return a.pc + 1
		})
	}
	for i := 0; i < ilShards; i++ {
		p.add(func(w *ilWorld, a *ilActor) int {
			if i == 0 {
				a.sp = 0
			}
			a.sp += w.cnt[i].Spawns.Load()
			return a.pc + 1
		})
	}
}

// finalize appends finalizeSlot and returns its entry pc.
func (p ilProg) finalize() int {
	entry := p.add(func(w *ilWorld, a *ilActor) int {
		if w.finalized[a.tenant]++; w.finalized[a.tenant] > 1 {
			w.violate(a, "tenant %d finalized twice", a.tenant)
		}
		for _, o := range w.actors {
			if o.completer && o.tenant == a.tenant && o.pc <= o.lastWrite {
				w.violate(a, "finalizing tenant %d while %s still has a record or slot write to come", a.tenant, o.name)
			}
		}
		w.claim(a, ilRoot)
		return a.pc + 1
	})
	p.add(func(w *ilWorld, a *ilActor) int {
		w.slotWrite(a, "finalizeSlot's Root store")
		w.slot.Root.Store(0)
		return a.pc + 1
	})
	p.add(func(w *ilWorld, a *ilActor) int {
		w.slotWrite(a, "finalizeSlot's State store")
		w.slot.State.Store(JobFree)
		w.freeListed = true
		return a.end()
	})
	return entry
}

// drainCheck appends rt.Runtime.drainCheck (and the finalize it may
// reach) and returns its entry pc.
func (p ilProg) drainCheck() int {
	entry := p.add(func(w *ilWorld, a *ilActor) int {
		if w.slot.State.Load() != JobState(a.id, JobDraining) {
			return a.end()
		}
		return a.pc + 1
	})
	p.sums()
	p.add(func(w *ilWorld, a *ilActor) int {
		if a.ex != a.sp+1 || !w.slot.Advance(a.id, JobDraining, JobDone) {
			return a.end()
		}
		w.slotWrite(a, "drainCheck's Draining→Done CAS")
		return a.pc + 1
	})
	p.add(func(w *ilWorld, a *ilActor) int { w.anyCanceled.Add(-1); return a.pc + 1 })
	p.add(func(w *ilWorld, a *ilActor) int { w.claim(a, ilChild); return a.pc + 1 }) // SweepJob
	p.add(func(w *ilWorld, a *ilActor) int { w.claim(a, ilRoot); return a.pc + 1 })
	p.finalize()
	return entry
}

// completer builds ExecComplete for record rec on counter shard s.
// prologue steps (the root's join or drain-at-entry) come first.
func ilCompleter(name string, m ilMutant, rec, shard int, root bool, prologue ...ilStep) *ilActor {
	a := &ilActor{name: name, tenant: ilTagA, id: m.id(ilTagA), completer: true}
	p := ilProg{a}
	for _, s := range prologue {
		p.add(s)
	}
	recordStores := func() {
		p.add(func(w *ilWorld, a *ilActor) int {
			w.recWrite(a, rec)
			w.rec[rec].Result = 40 + uint64(rec)
			return a.pc + 1
		})
		a.lastWrite = max(a.lastWrite, p.add(func(w *ilWorld, a *ilActor) int {
			w.recWrite(a, rec)
			w.rec[rec].Job.Store(RecordDone(JobTag(0)))
			return a.pc + 1
		}))
	}
	slotAccesses := func() {
		if !root { // a child loads Root, finds another handle, and is done with the slot
			p.add(func(w *ilWorld, a *ilActor) int { w.slot.Root.Load(); return a.pc + 1 })
			return
		}
		p.add(func(w *ilWorld, a *ilActor) int { w.slot.Root.Load(); return a.pc + 1 })
		p.add(func(w *ilWorld, a *ilActor) int {
			w.slotWrite(a, "the root's Result store")
			w.slot.Result.Store(40)
			return a.pc + 1
		})
		a.lastWrite = max(a.lastWrite, p.add(func(w *ilWorld, a *ilActor) int {
			if a.won = w.slot.Advance(a.id, JobRunning, JobDone); a.won {
				w.slotWrite(a, "the root's Running→Done CAS")
			}
			return a.pc + 1
		}))
	}
	bump := func() {
		p.add(func(w *ilWorld, a *ilActor) int { w.cnt[shard].Executed.Add(1); return a.pc + 1 })
	}
	switch {
	case m.bumpBeforeRecordStore:
		slotAccesses()
		bump()
		recordStores()
	case m.rootSlotWritesAfterBump:
		recordStores()
		bump()
		slotAccesses()
	default: // count last
		recordStores()
		slotAccesses()
		bump()
	}
	var wait, drain int
	p.add(func(w *ilWorld, a *ilActor) int {
		switch {
		case a.won:
			return wait
		case w.anyCanceled.Load() > 0:
			return drain
		}
		return a.end()
	})
	wait = p.next() // rootFinalize: the winner waits for closure
	p.sums()
	var fin int
	p.add(func(w *ilWorld, a *ilActor) int {
		if a.ex != a.sp+1 {
			return wait
		}
		return fin
	})
	fin = p.finalize()
	drain = p.drainCheck()
	return a
}

func ilCanceller(m ilMutant) *ilActor {
	a := &ilActor{name: "cancel", tenant: ilTagA, id: m.id(ilTagA)}
	p := ilProg{a}
	p.add(func(w *ilWorld, a *ilActor) int {
		if !w.slot.Advance(a.id, JobRunning, JobDraining) {
			return a.end()
		}
		w.slotWrite(a, "cancelRunning's Running→Draining CAS")
		return a.pc + 1
	})
	p.add(func(w *ilWorld, a *ilActor) int { w.anyCanceled.Add(1); return a.pc + 1 })
	p.drainCheck()
	return a
}

func ilDispatcher(m ilMutant) *ilActor {
	a := &ilActor{name: "disp", tenant: ilTagB, id: m.id(ilTagB)}
	p := ilProg{a}
	p.add(func(w *ilWorld, a *ilActor) int { // claimJob, under the mutex finalizeSlot freed the slot under
		if !w.freeListed {
			return ilBlocked
		}
		w.freeListed, w.tenant = false, a.tenant
		return a.pc + 1
	})
	for i := 0; i < ilShards; i++ { // JobCounters.Reset on every worker
		p.add(func(w *ilWorld, a *ilActor) int { w.cnt[i].Spawns.Store(0); return a.pc + 1 })
		p.add(func(w *ilWorld, a *ilActor) int { w.cnt[i].Executed.Store(0); return a.pc + 1 })
	}
	p.add(func(w *ilWorld, a *ilActor) int { w.slot.Result.Store(0); return a.pc + 1 })
	p.add(func(w *ilWorld, a *ilActor) int { // B's root reuses A's root record
		w.freed[ilRoot] = 0
		w.rec[ilRoot].Job.Store(RecordPending(JobTag(0)))
		return a.pc + 1
	})
	p.add(func(w *ilWorld, a *ilActor) int { w.slot.Root.Store(7); return a.pc + 1 })
	p.add(func(w *ilWorld, a *ilActor) int { w.slot.State.Store(JobState(a.id, JobRunning)); return a.pc + 1 })
	p.add(func(w *ilWorld, a *ilActor) int { w.cnt[0].Spawns.Add(1); return a.pc + 1 }) // B's live task
	p.add(func(w *ilWorld, a *ilActor) int { w.slot.Advance(a.id, JobRunning, JobDraining); return a.pc + 1 })
	p.add(func(w *ilWorld, a *ilActor) int { w.anyCanceled.Add(1); return a.pc + 1 })
	return a
}

// ilBuild sets tenant A running with its root having spawned one child.
func ilBuild(m ilMutant, rootDrainedAtEntry bool) *ilWorld {
	w := &ilWorld{tenant: ilTagA}
	w.slot.State.Store(JobState(m.id(ilTagA), JobRunning))
	w.slot.Root.Store(7)
	w.cnt[1].Spawns.Store(1)
	w.rec[ilRoot].Job.Store(RecordPending(JobTag(0)))
	w.rec[ilChild].Job.Store(RecordPending(JobTag(0)))
	var prologue []ilStep
	if rootDrainedAtEntry {
		// enter's drain test: the frame completes without running, so
		// without joining (or releasing) the child.
		prologue = []ilStep{func(w *ilWorld, a *ilActor) int {
			if w.anyCanceled.Load() == 0 || JobPhase(w.slot.State.Load()) != JobDraining {
				return ilBlocked
			}
			return a.pc + 1
		}}
	} else {
		prologue = []ilStep{
			func(w *ilWorld, a *ilActor) int { // ExecJoin's fast path
				if !w.rec[ilChild].IsDone() {
					return ilBlocked
				}
				return a.pc + 1
			},
			func(w *ilWorld, a *ilActor) int { // ReleaseLocal
				if w.freed[ilChild]++; w.freed[ilChild] > 1 {
					w.violate(a, "record %d released twice", ilChild)
				}
				w.rec[ilChild].Job.Store(0)
				return a.pc + 1
			},
		}
	}
	w.actors = []*ilActor{
		ilCompleter("child", m, ilChild, 0, false),
		ilCompleter("root", m, ilRoot, 1, true, prologue...),
		ilCanceller(m),
		ilDispatcher(m),
	}
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
		// Nobody can move: everyone must have finished, A finalized
		// exactly once, B (one task forever live) never.
		for _, a := range w.actors {
			if a.pc < len(a.steps) {
				w.violate(a, "stuck at step %d with nobody left to unblock it (tenant A finalized %d times)", a.pc, w.finalized[ilTagA])
			}
		}
		if w.finalized[ilTagA] != 1 || w.finalized[ilTagB] != 0 {
			w.violate(w.actors[0], "at rest tenant A was finalized %d times and the live tenant B %d times, want 1 and 0",
				w.finalized[ilTagA], w.finalized[ilTagB])
		}
	}
	dfs()
	return len(seen), w.fail, schedule
}

func TestJobProtocolInterleavings(t *testing.T) {
	for _, drained := range []bool{false, true} {
		name := "root joined"
		if drained {
			name = "root drained at entry"
		}
		states, violation, schedule := ilExplore(ilBuild(ilMutant{}, drained))
		if violation != "" {
			t.Errorf("%s: %s\nschedule: %s", name, violation, strings.Join(schedule, " "))
		}
		t.Logf("%s: %d states, no violation", name, states)
	}
}

// Each of the three rules is load-bearing: break one and some
// interleaving finalizes a tenant under a completer's store, or lets a
// slot write land on the next tenant.
func TestJobProtocolMutantsFail(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    ilMutant
	}{
		{"root's slot writes after its bump", ilMutant{rootSlotWritesAfterBump: true}},
		{"phase-only CAS", ilMutant{phaseOnlyCAS: true}},
		{"bump before the record store", ilMutant{bumpBeforeRecordStore: true}},
	} {
		found := ""
		for _, drained := range []bool{false, true} {
			states, violation, schedule := ilExplore(ilBuild(tc.m, drained))
			if violation != "" {
				found = violation
				t.Logf("%s: after %d states: %s\nschedule: %s", tc.name, states, violation, strings.Join(schedule, " "))
				break
			}
		}
		if found == "" {
			t.Errorf("mutant %q: no interleaving violates an invariant", tc.name)
		}
	}
}

// TestCancelDrainCheckStraddlesRecycle plays by hand, on real words, the
// interleaving that the runtime's cancel path had before the State word
// named its tenant (DESIGN.md §15). A canceller's drain check sums the
// slot's counters from outside any task, so nothing holds the slot for
// it: it reads ΣExecuted from tenant A, A is finalized by its own last
// completer, the slot is reset and given to B, B spawns and is canceled
// in turn — and the canceller reads ΣSpawns from B. The mixed sums look
// closed. With a phase-only word the Draining→Done CAS then lands on B,
// which is finalized and swept with a live task; with the tenant in the
// compared word it fails.
func TestCancelDrainCheckStraddlesRecycle(t *testing.T) {
	for _, tc := range []struct {
		name      string
		idA, idB  uint64
		finalizes bool
	}{
		{"phase-only word: B is finalized with a live task", 0, 0, true},
		{"tenant in the word: the stale CAS fails", 1, 2, false},
	} {
		slot := NewJobTable(1).Get(0)
		workers := []*JobCounters{NewJobCounters(1), NewJobCounters(1)}
		sumExecuted := func() (n uint64) {
			for _, c := range workers {
				n += c.Get(0).Executed.Load()
			}
			return n
		}
		sumSpawns := func() (n uint64) {
			for _, c := range workers {
				n += c.Get(0).Spawns.Load()
			}
			return n
		}
		// Tenant A: a root that spawned one child, both about to end.
		slot.State.Store(JobState(tc.idA, JobRunning))
		workers[1].Get(0).Spawns.Add(1)
		// The canceller flips A to draining and starts its drain check...
		if !slot.Advance(tc.idA, JobRunning, JobDraining) {
			t.Fatalf("%s: cancel of running A failed", tc.name)
		}
		// ...while A's two tasks complete. The canceller has read ΣExecuted:
		workers[0].Get(0).Executed.Add(1)
		workers[1].Get(0).Executed.Add(1)
		ex := sumExecuted()
		// A's last completer runs the same check, closes A and frees the slot.
		if sumExecuted() != sumSpawns()+1 || !slot.Advance(tc.idA, JobDraining, JobDone) {
			t.Fatalf("%s: A's own drain check did not close", tc.name)
		}
		slot.State.Store(JobFree)
		// The dispatcher re-tenants it: B runs, spawns one task, is canceled.
		for _, c := range workers {
			c.Reset(0)
		}
		slot.State.Store(JobState(tc.idB, JobRunning))
		workers[0].Get(0).Spawns.Add(1)
		if !slot.Advance(tc.idB, JobRunning, JobDraining) {
			t.Fatalf("%s: cancel of running B failed", tc.name)
		}
		// The canceller of A resumes: Spawns now reads B's.
		if sp := sumSpawns(); ex != sp+1 {
			t.Fatalf("%s: mixed sums %d executed / %d spawned do not look closed; the scenario is mis-built", tc.name, ex, sp)
		}
		if got := slot.Advance(tc.idA, JobDraining, JobDone); got != tc.finalizes {
			t.Errorf("%s: A's stale Draining→Done CAS on B's slot returned %v, want %v", tc.name, got, tc.finalizes)
		}
		if tc.finalizes {
			continue
		}
		if got := slot.State.Load(); got != JobState(tc.idB, JobDraining) {
			t.Errorf("%s: B's slot word is %#x after the stale check, want B still draining", tc.name, got)
		}
		if ex, sp := sumExecuted(), sumSpawns(); ex == sp+1 {
			t.Errorf("%s: B reads closed (%d/%d) with its task still live", tc.name, ex, sp)
		}
	}
}
