package core

import (
	"fmt"

	"uniaddr/internal/mem"
	"uniaddr/internal/obs"
)

// SchemeKind selects the thread-management scheme under test.
type SchemeKind int

const (
	// SchemeUni is the paper's contribution (§5).
	SchemeUni SchemeKind = iota
	// SchemeIso is the iso-address baseline (§4): stacks at globally
	// unique addresses reserved in every process, demand-paged, not
	// RDMA-accessible.
	SchemeIso
)

func (k SchemeKind) String() string {
	if k == SchemeIso {
		return "iso-address"
	}
	return "uni-address"
}

// saved is a parked (suspended) thread. For uni-address, buf is the
// pinned RDMA-heap buffer holding the swapped-out stack; for
// iso-address the stack never moves and buf is unused.
type saved struct {
	base mem.VA
	size uint64
	buf  mem.VA
}

// scheme abstracts the operations that differ between uni-address and
// iso-address; everything else (deque protocol, join logic, scheduler)
// is shared, so measured differences isolate the migration scheme.
type scheme interface {
	kind() SchemeKind
	// newFrame allocates a stack of size bytes for a fresh thread.
	newFrame(w *Worker, size uint64) mem.VA
	// retireFrame releases the stack of a thread that completed on w.
	retireFrame(w *Worker, base mem.VA, size uint64)
	// releaseStolen drops the local (dead) copy of a stack whose thread
	// was stolen away.
	releaseStolen(w *Worker, base mem.VA, size uint64)
	// suspend parks the running thread (charging its cost) and returns
	// the wait-queue token.
	suspend(w *Worker, base mem.VA, size uint64) saved
	// resumeSaved makes a parked thread's stack addressable again.
	resumeSaved(w *Worker, sc saved)
	// transferStolen brings a stolen thread's stack to w. A non-nil
	// error means the transfer failed on the fabric and all local state
	// was rolled back; the caller must then abort the steal remotely
	// (Deque.AbortRemote) so the victim keeps the thread.
	transferStolen(w *Worker, victim int, ent Entry, ph *StealPhases) error
	// clearDead reclaims stacks left behind by stolen threads once the
	// worker is idle.
	clearDead(w *Worker)
	// canSteal reports whether w may host a stolen thread right now
	// (uni-address: only with an empty region, §5.2 rule 5).
	canSteal(w *Worker) bool
}

// --- uni-address -----------------------------------------------------

type uniScheme struct{}

func (uniScheme) kind() SchemeKind { return SchemeUni }

func (uniScheme) newFrame(w *Worker, size uint64) mem.VA {
	base, err := w.region.AllocBelow(size)
	if err != nil {
		panic(err)
	}
	return base
}

func (uniScheme) retireFrame(w *Worker, base mem.VA, size uint64) {
	if err := w.region.FreeLowest(base, size); err != nil {
		panic(err)
	}
}

func (uniScheme) releaseStolen(w *Worker, base mem.VA, size uint64) {
	// The thief copied the bytes out one-sidedly; only the local
	// bookkeeping is released.
	if err := w.region.FreeLowest(base, size); err != nil {
		panic(err)
	}
}

func (uniScheme) suspend(w *Worker, base mem.VA, size uint64) saved {
	start := w.proc.Now()
	var tid obs.TaskID
	if w.obs != nil {
		tid = obs.TaskID(frameTaskID(w.space, base))
	}
	w.adv(w.costs.SuspendCPU + w.costs.copyCycles(size))
	buf := w.heap.MustAlloc(size)
	w.copyOut(base, size, buf)
	w.stats.Suspends++
	w.stats.SuspendCycles += w.proc.Now() - start
	w.obs.Span(obs.KSuspend, start, size, tid, -1, obs.HSuspendSwap)
	return saved{base: base, size: size, buf: buf}
}

func (uniScheme) resumeSaved(w *Worker, sc saved) {
	start := w.proc.Now()
	w.adv(w.costs.ResumeCPU + w.costs.copyCycles(sc.size))
	w.copyIn(sc.base, sc.size, sc.buf)
	w.heap.Free(sc.buf)
	w.stats.ResumeCycles += w.proc.Now() - start
}

// copyOut swaps the lowest stack [base, base+size) out to dst, a pinned
// buffer in the RDMA region (Fig. 8), and frees its range.
func (w *Worker) copyOut(base mem.VA, size uint64, dst mem.VA) {
	buf, err := w.space.Slice(dst, size)
	if err != nil {
		panic(err)
	}
	copy(buf, w.region.MustSlice(base, size))
	if err := w.region.FreeLowest(base, size); err != nil {
		panic(err)
	}
}

// copyIn restores a stack saved at src to its original address base in
// the empty region (resume_saved_context, Fig. 7).
func (w *Worker) copyIn(base mem.VA, size uint64, src mem.VA) {
	if err := w.region.Install(base, size); err != nil {
		panic(err)
	}
	buf, err := w.space.Slice(src, size)
	if err != nil {
		panic(err)
	}
	copy(w.region.MustSlice(base, size), buf)
}

func (uniScheme) transferStolen(w *Worker, victim int, ent Entry, ph *StealPhases) error {
	start := w.proc.Now()
	if err := w.region.Install(ent.FrameBase, ent.FrameSize); err != nil {
		panic(err)
	}
	// One-sided stack transfer straight into the uni-address region at
	// the thread's own address (Fig. 6 RDMA_GET). On an injected fault
	// nothing landed: release the just-installed range (the region was
	// empty before — stealing requires it, §5.2 rule 5) and report so
	// the caller rolls the victim's deque back.
	if err := w.ep.TryReadToVA(w.proc, victim, ent.FrameBase, ent.FrameBase, ent.FrameSize); err != nil {
		w.region.Clear()
		ph.StackTransfer += w.proc.Now() - start
		return err
	}
	xfer := w.proc.Now() - start
	ph.StackTransfer += xfer
	w.stats.BytesStolen += ent.FrameSize
	if w.obs != nil {
		w.obs.Span(obs.KXfer, start, ent.FrameSize,
			obs.TaskID(frameTaskID(w.space, ent.FrameBase)), victim, obs.HStackXfer)
		w.obs.Observe(obs.HStackBytes, ent.FrameSize)
	}
	return nil
}

func (uniScheme) clearDead(w *Worker) {
	// Whatever remains in the region once the deque is empty and no
	// thread is running belongs to stolen threads; reclaim it.
	w.region.Clear()
}

func (uniScheme) canSteal(w *Worker) bool { return w.region.Empty() }

// --- iso-address -----------------------------------------------------

type isoScheme struct{}

func (isoScheme) kind() SchemeKind { return SchemeIso }

// isoSlabRegion materialises (reserves backing for) rank's slab in w's
// address space on first use. The full global range was already counted
// against w's reserved virtual memory at start-up — that reservation is
// the iso-address scalability problem (§4 item 1); materialisation just
// converts the phantom range into a touchable one.
func (w *Worker) isoSlabRegion(rank int) *mem.Region {
	if r, ok := w.isoSlabs[rank]; ok {
		return r
	}
	base := w.m.IsoSlabBase(rank)
	w.space.AdjustPhantom(-int64(IsoSlabSize))
	r := w.space.MustReserve(fmt.Sprintf("isoslab-%d", rank), base, IsoSlabSize, false)
	w.isoSlabs[rank] = r
	return r
}

// isoTouch commits [base, base+size) in the slab that owns base and
// charges page-fault costs for first touches.
func (w *Worker) isoTouch(base mem.VA, size uint64) {
	rank := w.m.IsoRankOfVA(base)
	r := w.isoSlabRegion(rank)
	before := r.Faults()
	if _, err := w.space.Slice(base, size); err != nil {
		panic(err)
	}
	if faults := r.Faults() - before; faults > 0 {
		w.stats.PageFaults += faults
		w.proc.Advance(faults * w.costs.PageFaultCycles)
	}
}

func (isoScheme) newFrame(w *Worker, size uint64) mem.VA {
	w.isoSlabRegion(w.rank) // ensure own slab exists
	base, err := w.isoAlloc.Alloc(size)
	if err != nil {
		panic(err)
	}
	w.isoTouch(base, size)
	return base
}

func (isoScheme) retireFrame(w *Worker, base mem.VA, size uint64) {
	// The slot belongs to the slab owner's allocator; the address must
	// stay unique while the thread lives, so it is freed only now, by
	// whichever process completed the thread (cross-process bookkeeping
	// when the thread died away from home).
	owner := w.m.IsoRankOfVA(base)
	w.m.workers[owner].isoAlloc.Free(base)
}

func (isoScheme) releaseStolen(w *Worker, base mem.VA, size uint64) {
	// Nothing: the address remains reserved for the (now remote)
	// thread, and the pages it touched here stay committed — the
	// physical-memory growth of §4 item 2, visible in the accounting.
}

func (isoScheme) suspend(w *Worker, base mem.VA, size uint64) saved {
	// Iso-address never moves a suspended stack; parking is just a
	// context save.
	start := w.proc.Now()
	w.adv(w.costs.SaveContext)
	w.stats.Suspends++
	w.stats.SuspendCycles += w.costs.SaveContext
	if w.obs != nil {
		w.obs.Span(obs.KSuspend, start, size,
			obs.TaskID(frameTaskID(w.space, base)), -1, obs.HSuspendSwap)
	}
	return saved{base: base, size: size}
}

func (isoScheme) resumeSaved(w *Worker, sc saved) {
	w.adv(w.costs.RestoreContext)
	w.stats.ResumeCycles += w.costs.RestoreContext
}

func (isoScheme) transferStolen(w *Worker, victim int, ent Entry, ph *StealPhases) error {
	start := w.proc.Now()
	// The stack area is not pinned (it is far too large to pin, §4
	// item 3), so the transfer cannot be a one-sided RDMA READ: the
	// victim's CPU must assist, and the incoming pages fault on first
	// touch (21K cycles each on SPARC64IXfx).
	rank := w.m.IsoRankOfVA(ent.FrameBase)
	r := w.isoSlabRegion(rank)
	before := r.Faults()
	dst, err := w.space.Slice(ent.FrameBase, ent.FrameSize)
	if err != nil {
		panic(err)
	}
	faults := r.Faults() - before
	src, err := w.m.workers[victim].space.Slice(ent.FrameBase, ent.FrameSize)
	if err != nil {
		panic(err)
	}
	lat := w.m.cfg.Net.ReadLatency(int(ent.FrameSize)) +
		w.costs.IsoVictimAssist +
		faults*w.costs.PageFaultCycles
	w.stats.PageFaults += faults
	w.proc.Advance(lat)
	copy(dst, src)
	xfer := w.proc.Now() - start
	ph.StackTransfer += xfer
	w.stats.BytesStolen += ent.FrameSize
	if w.obs != nil {
		w.obs.Span(obs.KXfer, start, ent.FrameSize,
			obs.TaskID(frameTaskID(w.space, ent.FrameBase)), victim, obs.HStackXfer)
		w.obs.Observe(obs.HStackBytes, ent.FrameSize)
	}
	// The iso transfer is two-sided (victim CPU assists) and not part
	// of the injected one-sided fault model, so it cannot fail.
	return nil
}

func (isoScheme) clearDead(w *Worker) {}

func (isoScheme) canSteal(w *Worker) bool { return true }
