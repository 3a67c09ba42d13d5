package sched

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"unsafe"

	"uniaddr/internal/mem"
)

// Deque is the THE-protocol work-stealing deque (paper Fig. 6) built
// from real sync/atomic operations — the concurrent twin of the
// simulator's core.Deque, which lays the same protocol out in simulated
// pinned memory and charges RDMA verbs for each step.
//
// Protocol, identical to the simulator's:
//
//   - The owner pushes, and pops an entry, at bottom without the lock
//     (fast path). Only a SUCCESSFUL pop is lock-free.
//   - A thief locks with fetch-add(+1) on the lock word: acquired iff
//     the previous value was 0. Failed lockers do NOT retry and never
//     write; the holder releases by storing 0, which absorbs every
//     failed increment — exactly the semantics of the paper's
//     RDMA-FAA-based mutex, where only one FAA can return 0 per
//     ownership epoch.
//   - A thief claims the top entry by writing top = t+1 BEFORE
//     re-reading bottom (the THE order). If the owner's pop decremented
//     bottom past the claim, the thief retreats (restores top) and
//     reports the deque empty.
//   - The owner's pop slow path (bottom crossed top, or the deque looks
//     empty) restores bottom, takes the lock, and re-checks —
//     serialising against any in-flight claim. top is settled only
//     under the lock, so "empty" is never decided on a value a retreat
//     or an abort may still take back.
//
// Memory ordering: Go's sync/atomic operations are sequentially
// consistent, which subsumes every ordering the protocol needs. The
// load-bearing happens-before edges are:
//
//  1. push(entry slot) → store(bottom)       : the slot words are PLAIN
//     memory; the seq-cst bottom store after them is their only
//     publication, and a thief reads a slot only after a bottom load
//     that covered its index. One fence per push, as in Chase–Lev. Why
//     a plain slot is never written and read concurrently is argued at
//     Push.
//  2. thief's frame-bytes copy → store(lock=0): the steal's cross-arena
//     memcpy completes before the lock release.
//  3. owner's lock acquire → frame reuse     : the owner only reuses a
//     frame's arena range after a pop that either won the entry or went
//     through the lock — so edge 2 makes the thief's copy visible (and
//     finished) before the owner can overwrite the bytes. The lock-free
//     pop fast path keeps entries that no thief can have claimed
//     (bottom-1 >= top was re-checked after the decrement).
//
// These edges hold across processes too: on the dist backend the words
// live in an mmap'd MAP_SHARED segment and the same hardware fences
// order the same physical memory.
//
// ABA on the ring: entry slots are indexed mod cap, so top could in
// principle wrap cap pushes during one claim window. The claim window
// is bounded (a thief holds the lock for one memcpy) while cap pushes
// require cap task spawns on the owner; with the default cap of 8192
// this cannot occur in practice, matching the simulator's stance.
//
// Batched steals (StealBeginBatch) claim up to maxClaim entries under
// ONE lock acquisition and ONE claim/verify exchange — the steal-half
// amortisation. The ring therefore reserves maxClaim slots instead of
// one (see Push); maxClaim is derived from the capacity alone
// (maxClaimFor), so every process view of a shared region computes the
// same bound without coordination.
//
// Layout: the flat region starts with three words, each alone on a
// 64-byte line (lock, top, bottom), followed by cap 16-byte entry
// slots. A Deque value is one process's *view* of such a region;
// any number of views may attach to the same region.
type Deque struct {
	hdr      *dequeHdr
	slots    []dqSlot
	cap      uint64
	maxClaim uint64
}

// dequeHdr is the shared word block at the start of a deque region.
// There is no steal-hint word: a prospective thief asks Size(), the top
// and bottom lines its StealBeginBatch loads next anyway, so the owner's
// push/pop invalidate no line on a thief's behalf.
type dequeHdr struct {
	lock   atomic.Uint64
	_      [56]byte
	top    atomic.Uint64
	_      [56]byte
	bottom atomic.Uint64
	_      [56]byte
}

// dqSlot is one deque entry: two plain words, published by the bottom
// store that follows them in Push (edge 1 of the type comment).
type dqSlot struct {
	base uint64
	size uint64
}

const dequeHdrBytes = uint64(unsafe.Sizeof(dequeHdr{}))

// DequeBytes returns the region footprint of a deque with the given
// entry capacity.
func DequeBytes(capacity uint64) uint64 {
	return dequeHdrBytes + capacity*uint64(unsafe.Sizeof(dqSlot{}))
}

// Entry references a runnable thread: the base VA and byte size of its
// stack in the owner's arena.
type Entry struct {
	FrameBase mem.VA
	FrameSize uint64
}

// StealOutcome mirrors core.StealOutcome for the concurrent deque.
type StealOutcome uint8

const (
	// StealOK: the top entry is claimed and the victim's lock is HELD.
	// The thief must copy the frame bytes and then call StealCommit
	// (or StealAbort to hand the entry back).
	StealOK StealOutcome = iota
	// StealEmpty: nothing to steal (observed before locking).
	StealEmpty
	// StealLockBusy: another thief (or the owner's conflict path) holds
	// the lock; per THE, the thief backs off rather than spinning.
	StealLockBusy
	// StealEmptyLocked: the lock was taken but the re-read found the
	// deque drained; the claim was retreated and the lock released.
	StealEmptyLocked
	// StealFaulted: an injected fault exhausted the resilience budget
	// (retries or blacklist) — see Resilience.StealFrom. Any claimed
	// entry has been handed back; the victim's lock is released.
	StealFaulted
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
	case StealFaulted:
		return "faulted"
	default:
		return fmt.Sprintf("StealOutcome(%d)", uint8(o))
	}
}

// maxClaimFor bounds how many entries one batched claim may take from a
// deque of the given capacity: a quarter of the ring, clamped to
// [1, 64]. A quarter keeps the reservation (see Push) small relative to
// the usable ring; 64 caps the bytes a thief moves while holding the
// victim's lock. Deterministic in capacity alone so independent process
// views of one shared region agree without coordination.
func maxClaimFor(capacity uint64) uint64 {
	m := capacity / 4
	if m < 1 {
		m = 1
	}
	if m > 64 {
		m = 64
	}
	return m
}

// NewDequeAt attaches a deque view to a flat region (zeroed at first
// attach; attaching to a live region yields a coherent second view,
// which is how dist thieves address a victim's deque). The region must
// be 8-byte aligned and hold DequeBytes(capacity). The deque holds up
// to capacity-maxClaimFor(capacity) entries (ring slots are reserved
// for an in-flight batched claim; see Push). capacity must be a power
// of two >= 2.
func NewDequeAt(region []byte, capacity uint64) (*Deque, error) {
	if capacity < 2 || capacity&(capacity-1) != 0 {
		return nil, fmt.Errorf("sched: deque capacity %d not a power of two >= 2", capacity)
	}
	if err := regionCheck(region, DequeBytes(capacity), "deque"); err != nil {
		return nil, err
	}
	d := &Deque{
		hdr:      (*dequeHdr)(unsafe.Pointer(&region[0])),
		slots:    unsafe.Slice((*dqSlot)(unsafe.Pointer(&region[dequeHdrBytes])), capacity),
		cap:      capacity,
		maxClaim: maxClaimFor(capacity),
	}
	return d, nil
}

// NewDeque allocates a private heap-backed deque (the single-process
// backend's constructor). It panics on a bad capacity, preserving the
// contract rt's tests exercise.
func NewDeque(capacity uint64) *Deque {
	if capacity < 2 || capacity&(capacity-1) != 0 {
		panic(fmt.Sprintf("sched: deque capacity %d not a power of two >= 2", capacity))
	}
	d, err := NewDequeAt(heapRegion(DequeBytes(capacity)), capacity)
	if err != nil {
		panic(err)
	}
	return d
}

// Reset returns the deque to its NewDeque state: empty, unlocked,
// indices back at zero. O(1) — the slots keep stale entries, which are
// unreadable until a bottom store publishes them again (edge 1). Only
// for a deque no owner or thief is using any more; a lock word left
// non-zero by a stop-aborted LockOwner is absorbed like any failed
// locker's increment.
func (d *Deque) Reset() {
	d.hdr.top.Store(0)
	d.hdr.bottom.Store(0)
	d.hdr.lock.Store(0)
}

func (d *Deque) entryAt(i uint64) Entry {
	s := &d.slots[i&(d.cap-1)]
	return Entry{FrameBase: mem.VA(s.base), FrameSize: s.size}
}

// Push publishes an entry at bottom (owner only, lock-free): two plain
// slot words, then ONE seq-cst store of bottom. maxClaim slots of the
// ring are reserved: a thief's in-flight claim inflates top by up to
// maxClaim until it commits or aborts, so the owner's size read
// b-t can undercount by that much — pushing into the slack would
// overwrite either slots the thief is still copying or entries an abort
// is about to hand back. At most one claim is ever in flight (the
// lock), so maxClaim reserved slots restore the bound.
//
// The same reservation is why the slot words can be plain. A thief
// reads slot j only while it holds the lock, after claiming from a
// settled top t' <= j (it never stores more than t'+maxClaim) and after
// a bottom load that covered j. The owner writes physical slot j again
// only as index j+cap, which the test below admits only once it has
// loaded a top above j+maxClaim — a value no store of that reader's
// lock epoch, or of any earlier one, can have produced (settled top
// never decreases). So the owner's write follows a later holder's top
// store, which follows the reader's unlock: reader and writer of one
// slot are always ordered through the lock and top, never concurrent.
// The entry's own first read is ordered by the bottom store (edge 1).
//
// The size test is SIGNED. A thief that saw the deque non-empty, lost
// the race to the owner's last Pop, and claims before re-reading bottom
// leaves top > bottom until it retreats; unsigned b-t then wraps and an
// empty deque reports full. Pushing under such a doomed claim is sound:
// the thief's verify either sees the new bottom and takes the fresh
// entry (a legal steal) or sees the old one and retreats — and until it
// has, the owner's Pop finds "apparently empty" and waits for the lock.
func (d *Deque) Push(e Entry) error {
	t := d.hdr.top.Load()
	b := d.hdr.bottom.Load()
	if int64(b-t) >= int64(d.cap-d.maxClaim) {
		return fmt.Errorf("sched: deque overflow (cap %d)", d.cap)
	}
	s := &d.slots[b&(d.cap-1)]
	s.base, s.size = uint64(e.FrameBase), e.FrameSize
	d.hdr.bottom.Store(b + 1)
	return nil
}

// Pop takes the bottom entry (owner only). Only SUCCESS is lock-free:
// top is settled only under the lock — an in-flight claim inflates it
// and may yet retreat or abort — so an apparently empty deque, like a
// claim crossing the decrement, is decided under the lock (THE's slow
// path), and "empty" means every entry was stolen AND every thief's
// copy has committed. stop, if non-nil, aborts the lock spin, so a
// worker wedged behind a crashed lock holder can still observe
// shutdown; a stop-aborted Pop reports empty.
func (d *Deque) Pop(stop func() bool) (Entry, bool) {
	b := d.hdr.bottom.Load()
	if t := d.hdr.top.Load(); b > t {
		b--
		d.hdr.bottom.Store(b)
		if t = d.hdr.top.Load(); t <= b {
			// No conflict: the entry at b is ours, and no thief can claim
			// it any more (a claim writes top = b+1 > b only after reading
			// bottom > b, which is no longer true).
			return d.entryAt(b), true
		}
		d.hdr.bottom.Store(b + 1)
	}
	if !d.LockOwner(stop) {
		return Entry{}, false
	}
	var e Entry
	b = d.hdr.bottom.Load()
	ok := b > d.hdr.top.Load()
	if ok {
		d.hdr.bottom.Store(b - 1)
		e = d.entryAt(b - 1)
	}
	d.Unlock()
	return e, ok
}

// StealBegin claims the victim's top entry (thief side, one-sided in
// the RDMA original: FAA-lock, READ top, WRITE top+1, READ bottom). On
// StealOK the victim's lock is held and the caller owns the claimed
// entry; it must copy the frame bytes out of the victim's arena and
// then StealCommit. The lock being held across the copy is what makes
// the copy safe: the victim cannot recycle the frame's arena bytes
// without first winning this lock (Pop's conflict path).
func (d *Deque) StealBegin() (Entry, StealOutcome) {
	t := d.hdr.top.Load()
	b := d.hdr.bottom.Load()
	if b <= t {
		return Entry{}, StealEmpty
	}
	if d.hdr.lock.Add(1) != 1 {
		// Someone else holds the lock; do not retry, do not unlock
		// (the holder's release absorbs our increment).
		return Entry{}, StealLockBusy
	}
	t = d.hdr.top.Load()
	d.hdr.top.Store(t + 1) // claim BEFORE re-reading bottom (THE order)
	b = d.hdr.bottom.Load()
	if b < t+1 {
		// Drained while we were locking; retreat the claim.
		d.hdr.top.Store(t)
		d.Unlock()
		return Entry{}, StealEmptyLocked
	}
	return d.entryAt(t), StealOK
}

// StealCommit releases the victim's lock after the frame copy. The
// seq-cst store orders the copy before the release (edge 2).
func (d *Deque) StealCommit() { d.Unlock() }

// StealAbort hands a claimed entry back (top = t) and releases the
// lock — the THE abort the simulator's fault-injection tests exercise.
func (d *Deque) StealAbort() {
	d.hdr.top.Store(d.hdr.top.Load() - 1)
	d.Unlock()
}

// MaxClaim returns the upper bound on a batched claim (and the ring
// slack Push reserves for one). Callers size their steal buffers with
// it.
func (d *Deque) MaxClaim() uint64 { return d.maxClaim }

// StealBeginBatch is the steal-half generalisation of StealBegin: one
// FAA lock acquisition, one claim write, one bottom verify — and up to
// ⌈size/2⌉ entries claimed instead of one. On StealOK it fills
// buf[0..k) with the claimed entries in deque order (buf[0] is the
// oldest, at the victim's top) and returns k with the victim's lock
// HELD; the caller copies the frames and then calls StealCommit, or
// StealAbortBatch(k) to hand everything back. k is bounded by len(buf)
// and MaxClaim (the ring reservation that keeps the owner from
// overwriting claimed slots).
//
// Sizing: the target ⌈n/2⌉ is computed from the bottom value read
// BEFORE the claim write, so the batch can never extend into entries
// the owner pushes after the claim; the post-claim re-read of bottom
// (the THE verify) then only ever SHRINKS the batch, when owner pops
// raced the claim. If the re-read shows the deque fully drained the
// claim retreats exactly as in StealBegin.
//
// Why one claim/verify exchange suffices for k entries: the claim
// write top = t+kTry publishes intent for the whole range before
// bottom is re-read, so the owner's pop conflict path (which fires
// when its bottom decrement crosses top) serialises against the WHOLE
// batch through the same lock as a single steal — entries [t, t+k)
// are exclusively the thief's once bottom >= t+k was observed, because
// any owner pop that could touch them must first win the lock the
// thief holds. A transiently over-advanced top (kTry > final k) only
// makes a concurrent owner pop enter its conflict path spuriously;
// it parks on the lock and re-checks after the thief settles top.
//
// Contiguity: entries resident on one deque always form an adjacent
// descending-VA chain (each frame is bump-allocated immediately below
// its pusher's previous one, and steals only peel frames off the top
// of the chain), so the claimed batch is ONE contiguous byte range —
// buf[k-1].FrameBase up to buf[0].FrameBase+buf[0].FrameSize — and the
// caller can move it with a single Install and a single memcpy. The
// scan below verifies the chain defensively and shrinks k to the
// contiguous prefix rather than trusting the invariant blindly.
func (d *Deque) StealBeginBatch(buf []Entry) (int, StealOutcome) {
	t := d.hdr.top.Load()
	b := d.hdr.bottom.Load()
	if b <= t || len(buf) == 0 {
		return 0, StealEmpty
	}
	if d.hdr.lock.Add(1) != 1 {
		return 0, StealLockBusy
	}
	t = d.hdr.top.Load()
	// Target half of the PRE-claim size (rounded up); b may predate the
	// lock, so guard the t reload having passed it.
	var kTry uint64 = 1
	if b > t {
		kTry = (b - t + 1) / 2
	}
	if kTry > uint64(len(buf)) {
		kTry = uint64(len(buf))
	}
	if kTry > d.maxClaim {
		kTry = d.maxClaim
	}
	d.hdr.top.Store(t + kTry) // claim BEFORE re-reading bottom (THE order)
	b = d.hdr.bottom.Load()
	if b <= t {
		// Drained while we were locking; retreat the whole claim.
		d.hdr.top.Store(t)
		d.Unlock()
		return 0, StealEmptyLocked
	}
	k := kTry
	if avail := b - t; k > avail {
		k = avail
	}
	// Fill buf with the contiguous prefix of the claimed range.
	buf[0] = d.entryAt(t)
	n := uint64(1)
	for ; n < k; n++ {
		e := d.entryAt(t + n)
		if prev := buf[n-1]; e.FrameBase+mem.VA(e.FrameSize) != prev.FrameBase {
			break
		}
		buf[n] = e
	}
	d.hdr.top.Store(t + n) // settle: hand back anything over-claimed
	return int(n), StealOK
}

// StealAbortBatch hands back all n entries of a batched claim and
// releases the lock — StealAbort generalised to the batch width.
func (d *Deque) StealAbortBatch(n int) {
	d.hdr.top.Store(d.hdr.top.Load() - uint64(n))
	d.Unlock()
}

// Unlock releases the FAA lock (holder only).
func (d *Deque) Unlock() { d.hdr.lock.Store(0) }

// LockOwner spins on the FAA lock for the owner's pop conflict path.
// Only one FAA can observe 0 per ownership epoch; losers spin (the
// owner MUST eventually win — a thief holds the lock only for one
// bounded memcpy) unless stop fires.
func (d *Deque) LockOwner(stop func() bool) bool {
	for {
		if d.hdr.lock.Add(1) == 1 {
			return true
		}
		if stop != nil && stop() {
			return false
		}
		runtime.Gosched()
	}
}

// Size returns a racy snapshot of the entry count: exact at quiescence,
// and the steal hint otherwise (an unsettled claim can make it read low
// for an instant; hint sweeps fall back to a blind probe).
func (d *Deque) Size() uint64 {
	t := d.hdr.top.Load()
	b := d.hdr.bottom.Load()
	if b <= t {
		return 0
	}
	return b - t
}
