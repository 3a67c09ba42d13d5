package core

import (
	"encoding/binary"

	"uniaddr/internal/mem"
	"uniaddr/internal/obs"
)

// Help-first ("tied tasks") scheduling — the strategy of Satin, HotSLAW
// and Grappa that the paper contrasts with its work-first scheme (§2):
// a spawned task is NOT run immediately; a small descriptor (function
// id + arguments) is queued and the parent continues. Only tasks that
// have not started can be stolen, so no stack ever migrates — and once
// a task starts it is tied to its worker. A parent that reaches a join
// before its child ran helps: it pops and runs queued tasks (or steals
// descriptors) until the join target completes, nesting them below
// itself in the uni-address region.
//
// The mode exists to measure the trade the paper describes: steals get
// cheap (descriptor-sized payloads instead of stacks) but blocked
// parents pile up on the region (help-nesting), and a started task can
// never move, which costs utilization. Enable with Config.HelpFirst.
//
// Descriptor layout in the pinned RDMA heap (little-endian):
//
//	+0  funcID    u32
//	+4  localsLen u32 (the child frame's locals size)
//	+8  record    u64 (Handle)
//	+16 argsUsed  u32 (bytes of args actually carried; the rest of the
//	                   frame locals are zero and reconstructed on
//	                   materialization — descriptors are "fn + args",
//	                   not whole frames)
//	+20 pad       u32
//	+24 args      argsUsed bytes
const (
	descHdrSize = 24
	// descEntryFlag marks a deque entry as a descriptor reference:
	// FrameBase is the descriptor VA, FrameSize carries the flag plus
	// the descriptor's total length.
	descEntryFlag uint64 = 1 << 63
)

func descBytes(argsUsed uint32) uint64 { return descHdrSize + uint64(argsUsed) }

// isDescEntry reports whether a deque entry references a descriptor.
func isDescEntry(e Entry) bool { return e.FrameSize&descEntryFlag != 0 }

func descEntry(va mem.VA, total uint64) Entry {
	return Entry{FrameBase: va, FrameSize: descEntryFlag | total}
}

func descLen(e Entry) uint64 { return e.FrameSize &^ descEntryFlag }

// spawnHelpFirstBegin is the help-first side of Env.Spawn up to the
// child's init: the child is queued, not run, so init writes its
// arguments into a staging buffer that spawnHelpFirstRun packs into a
// descriptor. Without an init there is nothing to stage.
func (w *Worker) spawnHelpFirstBegin(e *Env, handleSlot int, fid FuncID, localsLen uint32, hasInit bool) *Env {
	w.stats.Spawns++
	w.adv(w.costs.SaveContext + w.costs.DequePush)
	rec := w.newRecord()
	e.SetHandle(handleSlot, rec)
	w.hfFid, w.hfLocalsLen, w.hfRec, w.hfStaged = fid, localsLen, rec, hasInit
	if hasInit {
		// Locals only: the queued child has no frame yet, so base names
		// a header that does not exist and hdr stays nil.
		locals := w.helpFirstStaging(localsLen) // may move w.hfStaging
		w.spawnEnv = Env{x: w, base: w.hfStaging - frameHdrSize, locals: locals}
	}
	return &w.spawnEnv
}

// spawnHelpFirstRun queues the staged child. It always returns true:
// the parent continues and is never stolen, because its continuation is
// never published.
func (w *Worker) spawnHelpFirstRun() bool {
	// Trim trailing zeros off the staged locals: the descriptor carries
	// only "fn + args", as in real tied-task systems, not the whole
	// (mostly empty) frame.
	var args []byte
	if w.hfStaged {
		var err error
		if args, err = w.space.Slice(w.hfStaging, uint64(w.hfLocalsLen)); err != nil {
			panic(err)
		}
	}
	used := uint32(len(args))
	for used > 0 && args[used-1] == 0 {
		used--
	}
	total := descBytes(used)
	va := w.heap.MustAlloc(total)
	b, err := w.space.Slice(va, total)
	if err != nil {
		panic(err)
	}
	binary.LittleEndian.PutUint32(b[0:], uint32(w.hfFid))
	binary.LittleEndian.PutUint32(b[4:], w.hfLocalsLen)
	binary.LittleEndian.PutUint64(b[8:], uint64(w.hfRec))
	binary.LittleEndian.PutUint32(b[16:], used)
	binary.LittleEndian.PutUint32(b[20:], 0)
	copy(b[descHdrSize:], args[:used])
	if err := w.deque.Push(descEntry(va, total)); err != nil {
		panic(err)
	}
	return true
}

// helpFirstStaging returns a view of a zeroed scratch area in the RDMA
// heap (at w.hfStaging) holding localsLen bytes of staged arguments; one
// per worker, grown on demand.
func (w *Worker) helpFirstStaging(localsLen uint32) []byte {
	need := uint64(localsLen)
	if need == 0 {
		need = 8
	}
	if w.hfStaging == 0 || w.hfStagingLen < need {
		if w.hfStaging != 0 {
			w.heap.Free(w.hfStaging)
		}
		w.hfStaging = w.heap.MustAlloc(need)
		w.hfStagingLen = need
	}
	b, err := w.space.Slice(w.hfStaging, need)
	if err != nil {
		panic(err)
	}
	clear(b)
	return b[:localsLen]
}

// materializeDescriptor turns a local descriptor into a runnable frame
// in the uni-address region (below the current chain) and frees the
// descriptor storage.
func (w *Worker) materializeDescriptor(va mem.VA, total uint64, ownerRank int) (mem.VA, uint64) {
	b, err := w.space.Slice(va, total)
	if err != nil {
		panic(err)
	}
	fid := FuncID(binary.LittleEndian.Uint32(b[0:]))
	localsLen := binary.LittleEndian.Uint32(b[4:])
	rec := Handle(binary.LittleEndian.Uint64(b[8:]))
	used := binary.LittleEndian.Uint32(b[16:])
	args := make([]byte, used)
	copy(args, b[descHdrSize:])
	size := FrameBytes(localsLen)
	base := w.sch.newFrame(w, size)
	writeFrameHeader(w.space, base, fid, localsLen, rec) // zeroes the frame
	if used > 0 {
		fb, err := w.space.Slice(base+frameHdrSize, uint64(used))
		if err != nil {
			panic(err)
		}
		copy(fb, args)
	}
	w.m.workers[ownerRank].heap.Free(va)
	return base, size
}

// runDescriptorEntry materializes and runs a descriptor entry popped
// from the local deque.
func (w *Worker) runDescriptorEntry(ent Entry) {
	base, size := w.materializeDescriptor(ent.FrameBase, descLen(ent), w.rank)
	w.invoke(base, size)
}

// stealDescriptor transfers a stolen descriptor's bytes from the victim
// (one small RDMA READ) into the local heap, then materializes and runs
// it. Unlike a work-first steal, no stack moves — this is the §2 "bag
// of not-yet-started tasks" economy.
func (w *Worker) stealDescriptor(victim int, ent Entry, ph *StealPhases) {
	total := descLen(ent)
	start := w.proc.Now()
	local := w.heap.MustAlloc(total)
	// Local region must be pinned for RDMA (it is: the heap region).
	w.ep.ReadToVA(w.proc, victim, ent.FrameBase, local, total)
	ph.StackTransfer += w.proc.Now() - start
	w.stats.BytesStolen += total
	// The victim-side descriptor storage is released (bookkeeping, as
	// with task records).
	w.m.workers[victim].heap.Free(ent.FrameBase)
	base, size := w.materializeDescriptor(local, total, w.rank)
	w.invoke(base, size)
}

// helpFirstJoin blocks the caller at a join by running other work
// inline until the target completes: pop local tasks, steal
// descriptors, back off. The parent's frame stays in place (tied), so
// helpers nest below it in the region.
func (w *Worker) helpFirstJoin(h Handle) uint64 {
	for {
		if done, v := w.tryJoin(h); done {
			w.stats.JoinsFast++
			w.freeRecord(h)
			return v
		}
		w.stats.JoinsMiss++
		if ent, ok := w.deque.Pop(w.proc, w.ep, w.rank); ok {
			if !isDescEntry(ent) {
				panic("core: continuation entry under help-first")
			}
			w.stats.ResumesLocal++
			w.runDescriptorEntry(ent)
			continue
		}
		if w.tryStealHelpFirst() {
			continue
		}
		w.mark(obs.Idle)
		w.stats.IdleCycles += w.costs.IdleBackoff
		w.adv(w.costs.IdleBackoff)
		w.mark(obs.Work)
	}
}

// tryStealHelpFirst is trySteal for descriptor entries.
func (w *Worker) tryStealHelpFirst() bool {
	n := len(w.m.workers)
	if n < 2 {
		return false
	}
	w.stats.StealAttempts++
	w.mark(obs.Steal)
	w.adv(w.costs.VictimSelect)
	victim := w.pickVictim(n)
	if victim < 0 {
		return false
	}
	var ph StealPhases
	var ent Entry
	var outcome StealOutcome
	for attempt := 0; ; attempt++ {
		ent, outcome = w.deque.StealRemote(w.proc, w.ep, victim, &ph, nil)
		if outcome != StealFault {
			break
		}
		w.stats.StealFaults++
		w.noteStealFault(victim)
		if attempt >= stealMaxRetries || w.victimBanned(victim) {
			w.stats.StealAbortsFault++
			w.stats.StealAbortCycles += ph.Total()
			return false
		}
		w.stealBackoff(attempt)
		w.stats.StealRetries++
	}
	switch outcome {
	case StealEmpty, StealEmptyLocked:
		w.stats.StealAbortEmpty++
		w.stats.StealAbortCycles += ph.Total()
		w.lastVictim = -1
		return false
	case StealLockBusy:
		w.stats.StealAbortLock++
		w.stats.StealAbortCycles += ph.Total()
		return false
	case StealReject:
		w.stats.StealAbortSlot++
		w.stats.StealAbortCycles += ph.Total()
		return false
	}
	w.lastVictim = victim
	if w.victimFails != nil {
		delete(w.victimFails, victim)
	}
	if !isDescEntry(ent) {
		panic("core: continuation entry stolen under help-first")
	}
	w.deque.Unlock(w.proc, w.ep, victim, &ph)
	w.stats.Phases.Merge(ph)
	w.stats.StealsOK++
	w.stealDescriptor(victim, ent, &ph)
	return true
}

// helpFirstSchedulerLoop is the idle loop for help-first mode.
func (w *Worker) helpFirstSchedulerLoop() {
	p := w.proc
	for !w.m.done {
		if p.Now() > w.m.cfg.MaxCycles {
			w.m.fail(errMaxCycles(w.m.cfg.MaxCycles))
			return
		}
		if ent, ok := w.deque.Pop(p, w.ep, w.rank); ok {
			w.stats.ResumesLocal++
			w.runDescriptorEntry(ent)
			continue
		}
		if w.m.done {
			return
		}
		if w.tryStealHelpFirst() {
			continue
		}
		w.mark(obs.Idle)
		w.stats.IdleCycles += w.costs.IdleBackoff
		p.Advance(w.costs.IdleBackoff)
	}
}
