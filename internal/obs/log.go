package obs

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"unsafe"
)

// A Log is one worker's event stream: a flat, pointer-free event ring
// plus the histogram table, laid out so the whole block can live either
// on the heap or inside a shared-memory segment mapped at the same
// address in several processes (the `internal/sched` attach-view idiom):
//
//	[ header: 1 atomic total word, padded to 64 B ]
//	[ ring:   ringCap slots × 6 words (48 B each) ]
//	[ hists:  numHists × Hist, indexed by HistID ]
//
// Writers reserve a slot with one fetch-and-add on the header word
// (slot = index & mask), store the payload words, then store the packed
// fifth word — peer | kind | flags | lap-tag — last, all with atomic
// word stores. Multiple producers may share one ring (a dist child's
// heartbeat goroutine writes beside its worker goroutine); the FAA makes
// reservations disjoint, so writers never contend on a slot.
//
// Readers run at quiescence (after every writer has stopped or died —
// the dist parent harvests after wait()ing on all children; the
// simulator exports after its engine returned), so they see fully
// written slots. The lap tag and a kind-validity check make the decode
// robust to the one case quiescence cannot rule out: a writer SIGKILLed
// between reserving a slot and completing its stores. Such a slot
// either still holds the previous lap's fifth word (lap mismatch →
// skipped) or is all-zero (decodes as KState, which rings never contain
// → skipped). A torn slot is dropped, never misreported.
//
// On overflow the ring keeps the NEWEST events: logical indices
// [total-cap, total) survive, older slots are overwritten in place, and
// the export's Dropped = total - cap derives from the same header word,
// so truncation is always visible.
//
// The clock is the Log's only tie to a clock domain: the simulator's
// virtual cycles or monotonic wall ns (see Recorder).
//
// All methods are nil-safe: a nil *Log accepts every call and does
// nothing, so instrumented hot paths need no conditionals and cost one
// pointer comparison per event when observability is off.

const (
	// eventWords is the flat footprint of one ring slot in words: Time,
	// Dur, Arg, Task, peer|kind|flags|lap packed, then the job ID the
	// producer was serving (0 outside a persistent service). The packed
	// word is stored LAST — it carries the lap tag that commits the slot
	// — so the job word is written before it.
	eventWords = 6
	// hdrWords pads the header's single atomic total word out to a cache
	// line so producer FAAs never false-share with slot 0.
	hdrWords = 8
)

// Per-worker ring capacities when a configuration leaves it zero: 2^18
// events ≈ 12.6 MB for a simulated worker, 2^16 ≈ 3.1 MB for an rt or
// dist worker.
const (
	defaultRingCap     = 1 << 18
	defaultWallRingCap = 1 << 16
)

// RingCap normalises a configured ring capacity: <= 0 selects the
// wall-clock default (2^16 events), anything else is rounded up to a
// power of two (the ring masks instead of dividing). dist's parent and
// children size the segment with it independently, so they must agree.
func RingCap(c int) uint64 {
	if c <= 0 {
		return defaultWallRingCap
	}
	if c < 2 {
		c = 2
	}
	return 1 << uint(bits.Len64(uint64(c-1)))
}

// LogBytes returns the flat byte footprint of one per-worker log with
// the given (power-of-two) ring capacity.
func LogBytes(ringCap uint64) uint64 {
	return hdrWords*8 + ringCap*eventWords*8 + uint64(unsafe.Sizeof([numHists]Hist{}))
}

// Log is one worker's event stream over a flat memory block. All
// methods are nil-safe.
type Log struct {
	now   func() uint64
	total *uint64  // header word: events ever reserved
	slots []uint64 // ringCap × eventWords
	hists *[numHists]Hist
	mask  uint64 // ringCap - 1
	shift uint   // log2(ringCap), for lap tags
	rank  int32

	// job tags every subsequent event with the job the producer is
	// serving (see SetJob). Atomic because a ring can have several
	// producers sharing one view (a dist child's heartbeat goroutine
	// writes beside its worker).
	job atomic.Uint64
}

// NewLogAt builds an attach view of the log stored in block, which must
// be 8-byte aligned and at least LogBytes(ringCap) long. ringCap must
// be a power of two >= 2. The block is NOT zeroed: a fresh
// (zero-filled) block is an empty log, and re-attaching from another
// process sees whatever has been recorded so far. now supplies the
// clock (nil is allowed for harvest-only views; Clock then returns 0).
func NewLogAt(block []byte, rank int, ringCap uint64, now func() uint64) (*Log, error) {
	if ringCap < 2 || ringCap&(ringCap-1) != 0 {
		return nil, fmt.Errorf("obs: ring cap %d not a power of two >= 2", ringCap)
	}
	need := LogBytes(ringCap)
	if uint64(len(block)) < need {
		return nil, fmt.Errorf("obs: log block %d bytes, need %d", len(block), need)
	}
	p := unsafe.Pointer(&block[0])
	if uintptr(p)%8 != 0 {
		return nil, fmt.Errorf("obs: log block not 8-byte aligned")
	}
	words := unsafe.Slice((*uint64)(p), need/8)
	off := hdrWords + ringCap*eventWords
	return &Log{
		now:   now,
		total: &words[0],
		slots: words[hdrWords:off],
		hists: (*[numHists]Hist)(unsafe.Pointer(&words[off])),
		mask:  ringCap - 1,
		shift: uint(bits.TrailingZeros64(ringCap)),
		rank:  int32(rank),
	}, nil
}

// heapLogs builds n logs over fresh heap blocks. A []uint64 backing
// keeps a block 8-aligned; the log's interior pointers keep it alive.
func heapLogs(n int, ringCap uint64, now func() uint64) []*Log {
	logs := make([]*Log, n)
	for i := range logs {
		words := make([]uint64, LogBytes(ringCap)/8)
		block := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), len(words)*8)
		l, err := NewLogAt(block, i, ringCap, now)
		if err != nil {
			panic(err) // sizing is self-consistent; unreachable
		}
		logs[i] = l
	}
	return logs
}

// Clock returns the current timestamp (0 on a nil log or a
// harvest-only view), so call sites can take interval start stamps
// unconditionally.
func (l *Log) Clock() uint64 {
	if l == nil || l.now == nil {
		return 0
	}
	return l.now()
}

// EmitFlags records an interval event [time, time+dur) of kind k with
// explicit flags.
func (l *Log) EmitFlags(k Kind, time, dur, arg uint64, task TaskID, peer int, flags uint8) {
	if l == nil {
		return
	}
	idx := atomic.AddUint64(l.total, 1) - 1
	base := (idx & l.mask) * eventWords
	s := l.slots
	atomic.StoreUint64(&s[base+0], time)
	atomic.StoreUint64(&s[base+1], dur)
	atomic.StoreUint64(&s[base+2], arg)
	atomic.StoreUint64(&s[base+3], uint64(task))
	atomic.StoreUint64(&s[base+5], l.job.Load())
	lap := (idx >> l.shift) & 0xffff
	atomic.StoreUint64(&s[base+4],
		uint64(uint32(peer))|uint64(uint8(k))<<32|uint64(flags)<<40|lap<<48)
}

// SetJob tags every subsequent event from this view with the given job
// ID (a persistent service sets it when a worker switches onto another
// job's frames; 0 = no job). Nil-safe like every emission.
func (l *Log) SetJob(id uint64) {
	if l == nil {
		return
	}
	l.job.Store(id)
}

// Emit records an interval event [time, time+dur) of kind k.
func (l *Log) Emit(k Kind, time, dur, arg uint64, task TaskID, peer int) {
	l.EmitFlags(k, time, dur, arg, task, peer, 0)
}

// Instant records a zero-duration event stamped now.
func (l *Log) Instant(k Kind, arg uint64, task TaskID, peer int) {
	if l == nil {
		return
	}
	l.EmitFlags(k, l.Clock(), 0, arg, task, peer, 0)
}

// Observe adds one sample to histogram h. Histograms are recorded by
// the owning worker only (the ring is multi-producer; the table is
// not) and merged across workers at Export.
func (l *Log) Observe(h HistID, v uint64) {
	if l == nil {
		return
	}
	l.hists[h].Record(v)
}

// Span records an interval of kind k that began at start and ends now,
// and adds its duration to histogram h. Both clock domains record
// through it: a successful steal into HStealLatency, a stack transfer
// into HStackXfer (virtual) or HCopyNS (wall), a suspend into
// HSuspendSwap or HCopyNS, a park into HParkDur.
func (l *Log) Span(k Kind, start, arg uint64, task TaskID, peer int, h HistID) {
	if l == nil {
		return
	}
	d := l.Clock() - start
	l.EmitFlags(k, start, d, arg, task, peer, 0)
	l.Observe(h, d)
}

// export decodes the ring in logical (reservation) order: indices
// [max(0, total-cap), total). Call at quiescence; slots a dead writer
// reserved but never finished are skipped, not misread.
func (l *Log) export() ExportLog {
	total := atomic.LoadUint64(l.total)
	start := uint64(0)
	if total > l.mask+1 {
		start = total - (l.mask + 1)
	}
	out := ExportLog{Rank: l.rank, Total: total, Dropped: start, Events: make([]Event, 0, total-start)}
	for i := start; i < total; i++ {
		base := (i & l.mask) * eventWords
		w4 := atomic.LoadUint64(&l.slots[base+4])
		if (w4>>48)&0xffff != (i>>l.shift)&0xffff {
			continue // reserved but never committed (dead writer) or stale lap
		}
		k := Kind(uint8(w4 >> 32))
		// KState never enters a ring, so an all-zero slot (fresh memory
		// behind a reserved-but-unwritten index) is rejected here.
		if k == KState || k >= numKinds {
			continue
		}
		out.Events = append(out.Events, Event{
			Time:  atomic.LoadUint64(&l.slots[base+0]),
			Dur:   atomic.LoadUint64(&l.slots[base+1]),
			Arg:   atomic.LoadUint64(&l.slots[base+2]),
			Task:  TaskID(atomic.LoadUint64(&l.slots[base+3])),
			Peer:  int32(uint32(w4)),
			Kind:  k,
			Flags: uint8(w4 >> 40),
			Job:   atomic.LoadUint64(&l.slots[base+5]),
		})
	}
	return out
}
