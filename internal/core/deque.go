package core

import (
	"fmt"

	"uniaddr/internal/mem"
	"uniaddr/internal/obs"
	"uniaddr/internal/rdma"
	"uniaddr/internal/sim"
)

// The work-stealing deque, laid out in pinned simulated memory so that
// thieves can operate on it one-sidedly (§5.3). The owner pushes and
// pops at the bottom without locking (THE protocol fast path, as in
// Cilk-5 and MassiveThreads); thieves lock with a remote fetch-and-add
// and steal from the top (FIFO — the oldest, shallowest continuation).
//
// Memory layout at Deque.base (all little-endian uint64):
//
//	+0   lock    0 = free; acquired by FAA(+1) returning 0, released by
//	             writing 0 (which also absorbs increments from failed
//	             attempts, so a failed locker never writes)
//	+8   top     steal index (monotonic)
//	+16  bottom  owner index (monotonic)
//	+24  pad
//	+32  entries[cap], 16 bytes each: frameBase u64, frameSize u64
const (
	dqLockOff    = 0
	dqTopOff     = 8
	dqBottomOff  = 16
	dqEntriesOff = 32
	dqEntrySize  = 16
)

// Entry is one deque element: the continuation of a thread, identified
// by the address and size of its stack in the uni-address region. All
// resume information (function id, resume point) lives inside the stack
// bytes themselves, so this is all a thief needs.
type Entry struct {
	FrameBase mem.VA
	FrameSize uint64
}

// DequeBytes returns the memory footprint of a deque with cap entries.
func DequeBytes(cap uint64) uint64 { return dqEntriesOff + cap*dqEntrySize }

// Deque is the owner-side view of one process's task queue.
type Deque struct {
	space *mem.AddressSpace
	base  mem.VA
	cap   uint64
	// maxDepth tracks the high-water number of simultaneous entries.
	maxDepth uint64
	// log, when attached, receives deque-depth counter samples after
	// local push/pop/take operations (nil-safe).
	log *obs.Log
}

// SetLog attaches the owner's observability log; subsequent local
// push/pop/take operations sample the deque depth into it.
func (d *Deque) SetLog(l *obs.Log) { d.log = l }

// NewDeque reserves and pins the deque region in space at base.
func NewDeque(space *mem.AddressSpace, base mem.VA, cap uint64) (*Deque, error) {
	if _, err := space.Reserve("taskq", base, DequeBytes(cap), true); err != nil {
		return nil, err
	}
	return &Deque{space: space, base: base, cap: cap}, nil
}

// Base returns the deque's base VA (identical across processes).
func (d *Deque) Base() mem.VA { return d.base }

// MaxDepth returns the high-water entry count.
func (d *Deque) MaxDepth() uint64 { return d.maxDepth }

func (d *Deque) lockVA() mem.VA   { return d.base + dqLockOff }
func (d *Deque) topVA() mem.VA    { return d.base + dqTopOff }
func (d *Deque) bottomVA() mem.VA { return d.base + dqBottomOff }
func (d *Deque) entryVA(i uint64) mem.VA {
	return d.base + dqEntriesOff + mem.VA((i%d.cap)*dqEntrySize)
}

func (d *Deque) readEntry(i uint64) Entry {
	va := d.entryVA(i)
	return Entry{
		FrameBase: mem.VA(d.space.MustReadU64(va)),
		FrameSize: d.space.MustReadU64(va + 8),
	}
}

func (d *Deque) writeEntry(i uint64, e Entry) {
	va := d.entryVA(i)
	d.space.MustWriteU64(va, uint64(e.FrameBase))
	d.space.MustWriteU64(va+8, e.FrameSize)
}

// Size returns bottom-top as seen locally (owner view).
func (d *Deque) Size() uint64 {
	t := d.space.MustReadU64(d.topVA())
	b := d.space.MustReadU64(d.bottomVA())
	if b < t {
		return 0
	}
	return b - t
}

// Push appends an entry at the bottom (owner only; lock-free).
// bottom may transiently sit below top while a thief is between its
// claiming top-write and its undo (see StealRemote), so the size checks
// must tolerate b < t.
func (d *Deque) Push(e Entry) error {
	t := d.space.MustReadU64(d.topVA())
	b := d.space.MustReadU64(d.bottomVA())
	if b >= t && b-t >= d.cap {
		return fmt.Errorf("core: deque overflow (cap %d)", d.cap)
	}
	d.writeEntry(b, e)
	d.space.MustWriteU64(d.bottomVA(), b+1)
	if b+1 > t {
		if depth := b + 1 - t; depth > d.maxDepth {
			d.maxDepth = depth
		}
	}
	if d.log != nil {
		var depth uint64
		if b+1 > t {
			depth = b + 1 - t
		}
		d.log.Instant(obs.KDepth, depth, 0, -1)
	}
	return nil
}

// lockLocal spins on the lock word with local atomics until acquired.
// The owner only locks on the THE conflict path, and thieves hold the
// lock for a bounded time, so the spin terminates. p advances by the
// local atomic cost per attempt so simulated time moves while spinning.
func (d *Deque) lockLocal(p *sim.Proc, ep *rdma.Endpoint, self int) {
	for {
		if old := ep.FetchAdd(p, self, d.lockVA(), 1); old == 0 {
			return
		}
		p.Advance(200) // brief local backoff before retrying
	}
}

func (d *Deque) unlockLocal() {
	d.space.MustWriteU64(d.lockVA(), 0)
}

// Pop removes and returns the bottom entry (owner side, THE protocol).
// The fast path is lock-free; when the deque might be empty or a thief
// might be racing for the last entry, the owner re-checks under the
// lock (Cilk-5's T/H/E exception path).
func (d *Deque) Pop(p *sim.Proc, ep *rdma.Endpoint, self int) (Entry, bool) {
	b := d.space.MustReadU64(d.bottomVA())
	if b == 0 {
		return Entry{}, false
	}
	b--
	d.space.MustWriteU64(d.bottomVA(), b)
	t := d.space.MustReadU64(d.topVA())
	if t > b {
		// Possible conflict with a thief on the last entry: restore and
		// retry under the lock.
		d.space.MustWriteU64(d.bottomVA(), b+1)
		d.lockLocal(p, ep, self)
		b = d.space.MustReadU64(d.bottomVA()) - 1
		d.space.MustWriteU64(d.bottomVA(), b)
		t = d.space.MustReadU64(d.topVA())
		if t > b {
			// The thief won: the deque is empty.
			d.space.MustWriteU64(d.bottomVA(), b+1)
			d.unlockLocal()
			return Entry{}, false
		}
		e := d.readEntry(b)
		d.unlockLocal()
		if d.log != nil {
			d.log.Instant(obs.KDepth, b-t, 0, -1)
		}
		return e, true
	}
	if d.log != nil {
		d.log.Instant(obs.KDepth, b-t, 0, -1)
	}
	return d.readEntry(b), true
}

// StealPhases records the per-phase cycle costs of one remote steal
// attempt (Table 3 / Fig. 10 breakdown).
type StealPhases struct {
	EmptyCheck    uint64
	Lock          uint64
	Steal         uint64
	StackTransfer uint64
	Unlock        uint64
}

// Total sums all phases.
func (p StealPhases) Total() uint64 {
	return p.EmptyCheck + p.Lock + p.Steal + p.StackTransfer + p.Unlock
}

// Merge adds q's cycles into p.
func (p *StealPhases) Merge(q StealPhases) {
	p.EmptyCheck += q.EmptyCheck
	p.Lock += q.Lock
	p.Steal += q.Steal
	p.StackTransfer += q.StackTransfer
	p.Unlock += q.Unlock
}

// StealOutcome classifies a remote steal attempt.
type StealOutcome int

const (
	// StealOK means an entry was stolen; the caller must transfer the
	// stack and then Unlock.
	StealOK StealOutcome = iota
	// StealEmpty means the victim's deque was empty (before locking).
	StealEmpty
	// StealLockBusy means the lock FAA found the queue locked.
	StealLockBusy
	// StealEmptyLocked means the queue emptied between the check and
	// the lock; the lock has been released.
	StealEmptyLocked
	// StealReject means the accept callback declined the candidate
	// entry (e.g. a uni-address slot mismatch, §5.1); the entry was
	// left in place and the lock released.
	StealReject
	// StealFault means a fabric operation of the attempt hit an
	// injected fault. Any partial progress (a taken lock, a claimed
	// top) was rolled back before returning: the victim's deque is
	// consistent and the entry is still there. The caller may retry.
	StealFault
)

func (o StealOutcome) String() string {
	switch o {
	case StealOK:
		return "ok"
	case StealEmpty:
		return "empty"
	case StealLockBusy:
		return "lock-busy"
	case StealEmptyLocked:
		return "empty-locked"
	case StealReject:
		return "reject"
	case StealFault:
		return "fault"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// StealRemote runs the thief side of Fig. 6 up to and including the
// entry removal: empty check (RDMA READ), lock (remote FAA), then the
// "steal" op of Table 3 (index READs, the claiming top WRITE, and the
// entry READ; the paper counts two READs and a WRITE — we issue one
// extra 8-byte READ because top must be re-read under the lock before
// it can be claimed). On StealOK the lock is still held — the caller
// transfers the stack with an RDMA READ and then calls Unlock, matching
// the paper's ordering (resume_remote_context unlocks after RDMA_GET).
// accept, when non-nil, is consulted with the candidate entry before it
// is removed; declining leaves the entry for a matching thief.
// Fabric faults surface here as StealFault after an internal rollback.
// The rollback path itself uses the reliable (retry-until-success)
// endpoint operations: a taken lock or a claimed top MUST be restored
// or the victim's deque would be wedged/corrupted forever, and retrying
// is safe because injected failures have no remote effect.
func (d *Deque) StealRemote(p *sim.Proc, ep *rdma.Endpoint, victim int, ph *StealPhases, accept func(Entry) bool) (Entry, StealOutcome) {
	// unlock releases the victim's lock, charging ph.Unlock.
	unlock := func() {
		start := p.Now()
		ep.WriteU64(p, victim, d.lockVA(), 0)
		ph.Unlock += p.Now() - start
	}
	// Phase 1: empty check — one RDMA READ covering top and bottom.
	start := p.Now()
	var idx [16]byte
	err := ep.TryRead(p, victim, d.topVA(), idx[:])
	ph.EmptyCheck += p.Now() - start
	if err != nil {
		return Entry{}, StealFault
	}
	t := leU64(idx[0:8])
	b := leU64(idx[8:16])
	if t >= b {
		return Entry{}, StealEmpty
	}
	// Phase 2: lock — remote fetch-and-add. A failed FAA never acquired
	// the lock (fail-before-effect), so there is nothing to undo.
	start = p.Now()
	old, err := ep.TryFetchAdd(p, victim, d.lockVA(), 1)
	ph.Lock += p.Now() - start
	if err != nil {
		return Entry{}, StealFault
	}
	if old != 0 {
		return Entry{}, StealLockBusy
	}
	// Phase 3: steal — reads and a WRITE under the lock, in Cilk-5's
	// THE order: re-read top, *claim* it by writing top+1, only then
	// read bottom. Claiming before reading bottom is what guarantees
	// that the thief and a concurrent lock-free owner pop can never
	// both take the last entry: whoever's write lands second sees the
	// other's claim and backs off.
	start = p.Now()
	var w8 [8]byte
	if err := ep.TryRead(p, victim, d.topVA(), w8[:]); err != nil {
		ph.Steal += p.Now() - start
		unlock()
		return Entry{}, StealFault
	}
	t = leU64(w8[:])
	// Claim BEFORE reading anything else: once top = t+1 is visible and
	// bottom confirms b >= t+1, slot t is exclusively ours — the owner
	// can neither pop it (its pop sees the claim and backs off) nor
	// overwrite it (pushes go to b' >= b, and the overflow check keeps
	// b'-t < cap). Reading the entry before the claim is a TOCTOU: the
	// owner may pop that entry and push a new one into the recycled
	// slot while our reads are in flight.
	if err := ep.TryWriteU64(p, victim, d.topVA(), t+1); err != nil {
		// The claim never landed: only the lock needs releasing.
		ph.Steal += p.Now() - start
		unlock()
		return Entry{}, StealFault
	}
	if err := ep.TryRead(p, victim, d.bottomVA(), w8[:]); err != nil {
		// Half-completed: the claim is visible. Roll it back (reliable)
		// before releasing the lock — the THE abort path.
		ep.WriteU64(p, victim, d.topVA(), t)
		ph.Steal += p.Now() - start
		unlock()
		return Entry{}, StealFault
	}
	b = leU64(w8[:])
	if b < t+1 {
		// Lost the race to the owner: undo the claim and bail.
		ep.WriteU64(p, victim, d.topVA(), t)
		ph.Steal += p.Now() - start
		unlock()
		return Entry{}, StealEmptyLocked
	}
	var eb [dqEntrySize]byte
	if err := ep.TryRead(p, victim, d.entryVA(t), eb[:]); err != nil {
		ep.WriteU64(p, victim, d.topVA(), t)
		ph.Steal += p.Now() - start
		unlock()
		return Entry{}, StealFault
	}
	e := Entry{FrameBase: mem.VA(leU64(eb[0:8])), FrameSize: leU64(eb[8:16])}
	if accept != nil && !accept(e) {
		// Give the entry back: while we hold the lock, restoring top is
		// safe — any owner pop that saw our claim is spinning on the
		// lock and will re-check afterwards.
		ep.WriteU64(p, victim, d.topVA(), t)
		ph.Steal += p.Now() - start
		unlock()
		return e, StealReject
	}
	ph.Steal += p.Now() - start
	return e, StealOK
}

// AbortRemote rolls back a steal that returned StealOK but whose stack
// transfer failed: with the lock still held, the claimed top is moved
// back over the entry and the lock is released — the entry is again
// stealable and the victim's own pop will find it. Uses reliable
// (retrying) operations: a dangling claim or lock would wedge the
// victim.
func (d *Deque) AbortRemote(p *sim.Proc, ep *rdma.Endpoint, victim int, ph *StealPhases) {
	start := p.Now()
	t := ep.ReadU64(p, victim, d.topVA())
	ep.WriteU64(p, victim, d.topVA(), t-1)
	ph.Steal += p.Now() - start
	start = p.Now()
	ep.WriteU64(p, victim, d.lockVA(), 0)
	ph.Unlock += p.Now() - start
}

// TakeTop removes the oldest entry from the owner's OWN deque — the
// victim side of a lifeline push. Same claim-then-verify protocol as a
// remote steal, but against local memory under the local lock.
func (d *Deque) TakeTop(p *sim.Proc, ep *rdma.Endpoint, self int) (Entry, bool) {
	e, tk, ok := d.TakeTopBegin(p, ep, self)
	if ok {
		tk.Commit()
	}
	return e, ok
}

// TopTake is an open claim of the owner's oldest entry: the local lock
// is still held until Commit or Abort.
type TopTake struct {
	d *Deque
	t uint64
}

// TakeTopBegin claims the oldest entry while KEEPING the local lock
// held, so the caller can push the entry over the fabric and still
// abort the take if delivery fails. On ok the caller must call exactly
// one of tk.Commit (the entry is gone for good) or tk.Abort (top is
// restored; the entry is back in the deque). On !ok the deque was
// empty and the lock has been released.
func (d *Deque) TakeTopBegin(p *sim.Proc, ep *rdma.Endpoint, self int) (Entry, TopTake, bool) {
	d.lockLocal(p, ep, self)
	t := d.space.MustReadU64(d.topVA())
	d.space.MustWriteU64(d.topVA(), t+1) // claim
	b := d.space.MustReadU64(d.bottomVA())
	if b < t+1 {
		d.space.MustWriteU64(d.topVA(), t)
		d.unlockLocal()
		return Entry{}, TopTake{}, false
	}
	return d.readEntry(t), TopTake{d: d, t: t}, true
}

// Commit finalises the take and releases the lock.
func (tk TopTake) Commit() {
	if tk.d.log != nil {
		tk.d.log.Instant(obs.KDepth, tk.d.Size(), 0, -1)
	}
	tk.d.unlockLocal()
}

// Abort restores the claimed top — safe because the lock was held
// throughout, so neither the owner's pop nor any thief has moved the
// indices — and releases the lock.
func (tk TopTake) Abort() {
	tk.d.space.MustWriteU64(tk.d.topVA(), tk.t)
	tk.d.unlockLocal()
}

// Unlock releases a victim's deque lock after a successful steal's
// stack transfer (one RDMA WRITE).
func (d *Deque) Unlock(p *sim.Proc, ep *rdma.Endpoint, victim int, ph *StealPhases) {
	start := p.Now()
	ep.WriteU64(p, victim, d.lockVA(), 0)
	ph.Unlock += p.Now() - start
}

func leU64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
