package core

import (
	"encoding/binary"
	"fmt"

	"uniaddr/internal/mem"
	"uniaddr/internal/obs"
)

// Lifeline-based global load balancing, after Saraswat et al.
// (PPoPP'11) — the paper's reference [24] and the system its UTS
// numbers are compared against. Random work stealing wastes probes when
// the machine drains; with lifelines, a worker whose random steals keep
// failing goes quiescent and *registers* on its z hypercube neighbours
// (rank XOR 2^j). A neighbour that later has surplus *pushes* one of
// its queued threads to the registered worker — work distribution
// becomes push-based and probe-free at the tails of the computation.
//
// The push path is deliberately NOT one-sided: the victim's CPU
// serialises its own oldest thread into the requester's delivery
// mailbox. Running it as an ablation against the paper's pure one-sided
// random stealing measures exactly the trade the two designs make.
//
// Per-process pinned layout at LifelineBase (z = LifelineZ axes):
//
//	+0                 reqFlags[z]   u64: requesterRank+1, written by
//	                                 the inbound neighbour of axis j
//	+8z                slots[z]      delivery mailboxes, each:
//	    +0   flag      u64 (1 = delivery present)
//	    +8   frameBase u64 (the thread's uni-address VA)
//	    +16  frameSize u64
//	    +24  bytes     [LifelineMaxPush]byte (the stack image)
const (
	// DefaultLifelineBase is the base VA of the lifeline region.
	DefaultLifelineBase mem.VA = 0x6c00_0000_0000
	llSlotHdr                  = 24
)

func llSlotBytes(maxPush uint64) uint64 { return llSlotHdr + maxPush }

func llRegionBytes(z int, maxPush uint64) uint64 {
	return uint64(z)*8 + uint64(z)*llSlotBytes(maxPush)
}

func llReqVA(base mem.VA, j int) mem.VA { return base + mem.VA(j*8) }

func llSlotVA(base mem.VA, z, j int, maxPush uint64) mem.VA {
	return base + mem.VA(uint64(z)*8+uint64(j)*llSlotBytes(maxPush))
}

// lifelineNeighbors returns the hypercube out-links of rank: rank XOR
// 2^j for j < z, skipping links that leave the machine.
func lifelineNeighbors(rank, workers, z int) []int {
	var out []int
	for j := 0; j < z; j++ {
		n := rank ^ (1 << j)
		if n < workers {
			out = append(out, n)
		} else {
			out = append(out, -1) // axis unused at this machine size
		}
	}
	return out
}

// llRegister writes this worker's rank into the request slot of each
// lifeline neighbour (one small RDMA WRITE per axis). A write that the
// fabric drops landed nothing (fail-before-effect), so the axis simply
// stays unregistered; llRegistered is left false so the idle loop tries
// again on its next pass (re-registering an already-written axis is
// idempotent).
func (w *Worker) llRegister() {
	ok := true
	for j, n := range w.llOut {
		if n < 0 {
			continue
		}
		if err := w.ep.TryWriteU64(w.proc, n, llReqVA(w.m.cfg.LifelineBase, j), uint64(w.rank)+1); err != nil {
			w.stats.LifelineFaults++
			ok = false
		}
	}
	w.llRegistered = ok
}

// llServe is called from the spawn path every few task creations: if a
// lifeline request is pending and the deque holds surplus, push the
// oldest thread to the requester. Returns whether a push happened.
func (w *Worker) llServe() bool {
	cfg := &w.m.cfg
	base := cfg.LifelineBase
	served := false
	for j := range w.llOut {
		req := w.space.MustReadU64(llReqVA(base, j))
		if req == 0 {
			continue
		}
		requester := int(req - 1)
		// Keep at least one entry for ourselves.
		if w.deque.Size() < 2 {
			return served
		}
		ent, take, ok := w.deque.TakeTopBegin(w.proc, w.ep, w.rank)
		if !ok {
			return served
		}
		if ent.FrameSize > cfg.LifelineMaxPush {
			// Too big for the mailbox: treat it like a normal local
			// steal target — run it ourselves later is not possible
			// (it is an ancestor's continuation), so push it back is
			// also impossible. In practice frames are far smaller than
			// the slot; guard anyway by delivering a truncation panic.
			panic(fmt.Sprintf("core: lifeline push of %d bytes exceeds LifelineMaxPush %d",
				ent.FrameSize, cfg.LifelineMaxPush))
		}
		// Clear the request before delivering so the requester can
		// re-register after consuming.
		w.space.MustWriteU64(llReqVA(base, j), 0)
		// Serialise header+stack into the requester's mailbox slot j'
		// where j' is the shared axis (same j by symmetry of XOR).
		slot := llSlotVA(base, len(w.llOut), j, cfg.LifelineMaxPush)
		var hdr [llSlotHdr]byte
		binary.LittleEndian.PutUint64(hdr[0:], 1)
		binary.LittleEndian.PutUint64(hdr[8:], uint64(ent.FrameBase))
		binary.LittleEndian.PutUint64(hdr[16:], ent.FrameSize)
		stack, err := w.space.Slice(ent.FrameBase, ent.FrameSize)
		if err != nil {
			panic(err)
		}
		buf := make([]byte, llSlotHdr+ent.FrameSize)
		copy(buf[llSlotHdr:], stack)
		// Write payload first, flag last? One write delivers both at
		// its completion instant (atomic in the DES), so a single
		// WRITE with the flag included is safe.
		copy(buf[:llSlotHdr], hdr[:])
		if w.m.injector == nil {
			// No faults possible: release the deque lock before the
			// delivery write, like the pre-injection protocol — holding
			// it across a fabric op would perturb fault-free timings.
			take.Commit()
			w.ep.Write(w.proc, requester, slot, buf)
		} else if err := w.ep.TryWrite(w.proc, requester, slot, buf); err != nil {
			// Delivery failed with nothing landed: restore the request
			// flag (the requester is still waiting) and put the thread
			// back — the take held the deque lock throughout, so the
			// abort is race-free.
			w.space.MustWriteU64(llReqVA(base, j), req)
			take.Abort()
			w.stats.LifelineFaults++
			continue
		} else {
			take.Commit()
		}
		w.stats.LifelinePushes++
		served = true
		if w.obs != nil {
			tid := obs.TaskID(frameTaskID(w.space, ent.FrameBase))
			w.obs.Instant(obs.KLifelinePush, ent.FrameSize, tid, requester)
			w.m.obs.TaskMoved(tid, w.rank, requester)
		}
		// The pushed thread's local bytes are dead; like a stolen
		// thread they are reclaimed by clearDead when we go idle.
	}
	return served
}

// llConsume checks this worker's delivery mailboxes; if a thread was
// pushed, it is installed at its own uni-address and run. Returns
// whether anything ran.
func (w *Worker) llConsume() bool {
	cfg := &w.m.cfg
	ran := false
	for j := range w.llOut {
		slot := llSlotVA(cfg.LifelineBase, len(w.llOut), j, cfg.LifelineMaxPush)
		if w.space.MustReadU64(slot) == 0 {
			continue
		}
		frameBase := mem.VA(w.space.MustReadU64(slot + 8))
		frameSize := w.space.MustReadU64(slot + 16)
		w.space.MustWriteU64(slot, 0)
		// Install the pushed stack at its original address (the region
		// is empty: only idle workers consume) and copy the bytes in.
		w.adv(w.costs.ResumeCPU + w.costs.copyCycles(frameSize))
		if err := w.region.Install(frameBase, frameSize); err != nil {
			panic(err)
		}
		src, err := w.space.Slice(slot+llSlotHdr, frameSize)
		if err != nil {
			panic(err)
		}
		dst, err := w.space.Slice(frameBase, frameSize)
		if err != nil {
			panic(err)
		}
		copy(dst, src)
		w.stats.LifelineReceives++
		if w.obs != nil {
			w.obs.Instant(obs.KLifelineRecv, frameSize,
				obs.TaskID(frameTaskID(w.space, frameBase)), w.llOut[j])
		}
		w.llRegistered = false // re-register next time we idle
		w.mark(obs.Work)
		w.invoke(frameBase, frameSize)
		ran = true
	}
	return ran
}
