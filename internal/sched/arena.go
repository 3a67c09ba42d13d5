package sched

import (
	"encoding/binary"
	"fmt"

	"uniaddr/internal/mem"
)

// Arena is one worker's uni-address region (paper §5.2, Fig. 3) over a
// caller-provided byte slice. Every worker maps its arena at the same
// virtual base, so a frame's VA is position-independent across workers:
// a steal copies bytes from the victim's backing into the thief's
// backing at the SAME offset and every intra-stack pointer stays valid
// — the uni-address guarantee, realised with memcpy instead of RDMA
// READ. On the rt backend the backing is a private Go-heap slice; on
// the dist backend it is a window of the shared mmap segment, so the
// same memcpy becomes a genuine cross-process one-sided copy.
//
// The stack discipline is the simulator's Region verbatim: the used
// part is one contiguous range [p, top); fresh stacks are pushed below
// p; only the lowest (running) stack is ever freed or swapped out; a
// stolen or saved thread may be installed at its original VA only while
// the region is empty (§5.2 rule 5).
//
// Concurrency: only the bytes are shared; the bookkeeping (p/top/max)
// is owner-only Go state, which is why Arena is not a flat region
// structure like Deque and Table. The owner mutates p/top; a thief
// reads the arena bytes of a claimed frame while holding the owner's
// deque lock, which the protocol proves cannot overlap any owner write
// to those bytes (see deque.go). No atomics are needed on the arena
// itself.
type Arena struct {
	bytes []byte
	base  mem.VA
	end   mem.VA
	p     mem.VA // next free address (stacks grow down); used = [p, top)
	top   mem.VA
	max   uint64 // high-water usage in bytes
}

// NewArenaOver lays an arena with VA range [base, base+len(backing))
// over caller-provided memory. The backing is NOT zeroed (a dist worker
// attaches over a fresh mmap segment, which already is).
func NewArenaOver(base mem.VA, backing []byte) *Arena {
	end := base + mem.VA(uint64(len(backing)))
	return &Arena{
		bytes: backing,
		base:  base,
		end:   end,
		p:     end,
		top:   end,
	}
}

// NewArena allocates a private heap-backed arena of size bytes.
func NewArena(base mem.VA, size uint64) *Arena {
	return NewArenaOver(base, make([]byte, size))
}

// Slice returns the backing bytes for [va, va+n), bounds-checked
// against the arena (not against [p, top): thieves read frames they
// have claimed but not yet installed locally). Slice and its wrappers
// below sit on every frame-slot access, so their fast paths carry no
// fmt machinery: error/panic construction lives in out-of-line
// noinline slow paths. The bounds check is wrap-safe — `n > len-off`
// cannot overflow where the old `off+n > len` form could — and the
// off > len comparison also catches va < a.base, because the
// subtraction wraps to a value far above any real arena length.
func (a *Arena) Slice(va mem.VA, n uint64) ([]byte, error) {
	off := uint64(va) - uint64(a.base)
	if off > uint64(len(a.bytes)) || n > uint64(len(a.bytes))-off {
		return nil, a.sliceErr(va, n)
	}
	return a.bytes[off : off+n : off+n], nil
}

//go:noinline
func (a *Arena) sliceErr(va mem.VA, n uint64) error {
	return fmt.Errorf("sched: access [%#x,+%d) outside arena [%#x,%#x)", va, n, a.base, a.end)
}

// MustSlice is Slice with the out-of-range case promoted to a panic
// (worker-internal accesses whose VAs the scheduler itself produced).
func (a *Arena) MustSlice(va mem.VA, n uint64) []byte {
	off := uint64(va) - uint64(a.base)
	if off > uint64(len(a.bytes)) || n > uint64(len(a.bytes))-off {
		a.sliceFail(va, n)
	}
	return a.bytes[off : off+n : off+n]
}

//go:noinline
func (a *Arena) sliceFail(va mem.VA, n uint64) {
	panic(a.sliceErr(va, n))
}

// ReadU64 loads the little-endian word at va.
func (a *Arena) ReadU64(va mem.VA) uint64 {
	off := uint64(va) - uint64(a.base)
	if b := a.bytes; off < uint64(len(b)) && uint64(len(b))-off >= 8 {
		return binary.LittleEndian.Uint64(b[off:])
	}
	return a.readU64Slow(va)
}

//go:noinline
func (a *Arena) readU64Slow(va mem.VA) uint64 {
	return binary.LittleEndian.Uint64(a.MustSlice(va, 8))
}

// WriteU64 stores v little-endian at va.
func (a *Arena) WriteU64(va mem.VA, v uint64) {
	off := uint64(va) - uint64(a.base)
	if b := a.bytes; off < uint64(len(b)) && uint64(len(b))-off >= 8 {
		binary.LittleEndian.PutUint64(b[off:], v)
		return
	}
	a.writeU64Slow(va, v)
}

//go:noinline
func (a *Arena) writeU64Slow(va mem.VA, v uint64) {
	binary.LittleEndian.PutUint64(a.MustSlice(va, 8), v)
}

// Empty reports whether no stack occupies the region.
func (a *Arena) Empty() bool { return a.p == a.top }

// Used returns the occupied byte count [p, top).
func (a *Arena) Used() uint64 { return uint64(a.top - a.p) }

// Max returns the high-water usage in bytes.
func (a *Arena) Max() uint64 { return a.max }

// Base returns the arena's lowest VA.
func (a *Arena) Base() mem.VA { return a.base }

// AllocBelow pushes a new stack of size bytes immediately below the
// current lowest stack (§5.2 rule 3).
func (a *Arena) AllocBelow(size uint64) (mem.VA, error) {
	if uint64(a.p-a.base) < size {
		return 0, fmt.Errorf("sched: arena exhausted: need %d, have %d free below p (raise Config.ArenaSize)", size, a.p-a.base)
	}
	a.p -= mem.VA(size)
	if u := a.Used(); u > a.max {
		a.max = u
	}
	return a.p, nil
}

// FreeLowest releases the lowest stack, which must start at base and be
// size bytes. When the region becomes empty, p and top snap back to the
// end so the next fresh task starts at the region's top.
func (a *Arena) FreeLowest(base mem.VA, size uint64) error {
	if base != a.p {
		return fmt.Errorf("sched: FreeLowest(%#x) but lowest stack is %#x", base, a.p)
	}
	if uint64(a.top-a.p) < size {
		return fmt.Errorf("sched: FreeLowest size %d exceeds used %d", size, a.Used())
	}
	a.p += mem.VA(size)
	if a.p == a.top {
		a.p, a.top = a.end, a.end
	}
	return nil
}

// Install places a thread occupying [base, base+size) into an empty
// region — the landing step of a steal or of resuming a saved context.
func (a *Arena) Install(base mem.VA, size uint64) error {
	if !a.Empty() {
		return fmt.Errorf("sched: install into non-empty arena (used %d bytes)", a.Used())
	}
	// size is compared against the space remaining above base rather
	// than added to base: `base+size > end` wraps for sizes near 2^64
	// and would admit an install whose top lies past the arena's end.
	if base < a.base || base > a.end || size > uint64(a.end-base) {
		return fmt.Errorf("sched: install [%#x,+%d) outside arena [%#x,%#x)", base, size, a.base, a.end)
	}
	a.p = base
	a.top = base + mem.VA(size)
	if u := a.Used(); u > a.max {
		a.max = u
	}
	return nil
}

// Reset returns the bookkeeping to its NewArena state (empty region,
// zero high-water) so the arena can serve another runtime. O(1): the
// bytes keep their old contents, which no reader can observe — a frame
// is written in full (header encoded, locals cleared, or the whole
// range copied in by a steal or resume) before anything loads from it,
// the same rule that lets consecutive jobs of one pool share an arena.
// Owner-only, like every other bookkeeping method; the caller must know
// that no thief is still copying out of the bytes.
func (a *Arena) Reset() {
	a.Clear()
	a.max = 0
}

// Clear empties the region, reclaiming space held by the dead local
// copies of stolen threads. Called only when no thread is running and
// the deque is empty, at which point everything left belongs to threads
// that now live elsewhere.
func (a *Arena) Clear() {
	a.p, a.top = a.end, a.end
}
