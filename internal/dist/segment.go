package dist

import (
	"fmt"
	"sync/atomic"
	"unsafe"

	"uniaddr/internal/obs"
	"uniaddr/internal/sched"
)

// ctlHdr is the control page at the start of the segment: the words
// every process polls instead of receiving messages. Each sits alone on
// a cache line.
type ctlHdr struct {
	// done becomes 1 when some worker — in whichever process — completes
	// the root record. The one-sided analogue of the simulator's
	// termination broadcast.
	done atomic.Uint64
	_    [56]byte
	// fail holds rank+1 of the first process to report failure (or
	// failCoordinator for a coordinator-side abort: crash detection,
	// watchdog, handshake error). Non-zero fail releases every spin in
	// every process — including deque lock spins wedged behind a crashed
	// lock holder — so a dead worker yields a structured error, not a
	// hang.
	fail atomic.Uint64
	_    [56]byte
	// result is the root task's result; stored before done (both
	// seq-cst), same publish order as a record completion.
	result atomic.Uint64
	_      [56]byte
}

const (
	ctlBytes        = uint64(unsafe.Sizeof(ctlHdr{}))
	failCoordinator = 1 << 16
)

// hbSlot is one rank's liveness stamp: unix nanos of the rank's last
// heartbeat, alone on a cache line so stamping never contends. The
// child stamps it from a dedicated goroutine; the coordinator's monitor
// reads it one-sidedly — the same no-messages discipline as the data
// plane, so a hung worker is detected without the worker cooperating.
type hbSlot struct {
	stamp atomic.Uint64
	_     [56]byte
}

const hbSlotBytes = uint64(unsafe.Sizeof(hbSlot{}))

// segment is one process's view of the mapped shared region: the
// control header plus per-rank deque/table/arena views. The underlying
// bytes live at the same virtual address in every process, so the
// offsets these views encapsulate denote the same physical words
// everywhere.
type segment struct {
	bytes []byte
	lay   layout
	ctl   *ctlHdr
	// peers[r] is THIS process's views of rank r's arena, deque and
	// record table — what every worker's Engine.Peers is. A view is just
	// (pointer into segment, layout); only rank r's process uses the
	// owner-side operations.
	peers []sched.Views
	hb    []hbSlot
	// obs[r] is rank r's wall-clock event ring, hosted in the segment so
	// the coordinator can harvest every rank's trace after the run — even
	// a rank that was SIGKILLed mid-event (the flat ring decodes around
	// torn slots). nil entries when observability is off.
	obs []*obs.Log
}

// attachSegment builds views over mapped segment memory. Safe to call
// in every process, any number of times; it writes nothing.
func attachSegment(b []byte, lay layout) (*segment, error) {
	if uint64(len(b)) < lay.total {
		return nil, fmt.Errorf("dist: segment is %d bytes, layout needs %d", len(b), lay.total)
	}
	s := &segment{
		bytes: b,
		lay:   lay,
		ctl:   (*ctlHdr)(unsafe.Pointer(&b[0])),
		hb:    unsafe.Slice((*hbSlot)(unsafe.Pointer(&b[lay.hbOff])), lay.workers),
		peers: make([]sched.Views, 0, lay.workers),
	}
	for r := 0; r < lay.workers; r++ {
		d, err := sched.NewDequeAt(b[lay.dequeOff[r]:], lay.dequeCap)
		if err != nil {
			return nil, fmt.Errorf("dist: rank %d deque: %w", r, err)
		}
		t, err := sched.NewTableAt(b[lay.tableOff[r]:], lay.recordCap)
		if err != nil {
			return nil, fmt.Errorf("dist: rank %d table: %w", r, err)
		}
		a := sched.NewArenaOver(lay.arenaBase, b[lay.arenaOff[r]:lay.arenaOff[r]+lay.arenaSize])
		s.peers = append(s.peers, sched.Views{Arena: a, Deque: d, Records: t})
	}
	return s, nil
}

// attachObs builds per-rank wall-log views over the segment's obs
// blocks. Like attachSegment it writes nothing — zeroed segment memory
// IS an empty ring — so the coordinator and every child can attach
// independently. now is the process-local clock (nil for a
// harvest-only view).
func (s *segment) attachObs(now func() uint64) error {
	if s.lay.obsCap == 0 {
		return nil
	}
	s.obs = make([]*obs.Log, s.lay.workers)
	for r := 0; r < s.lay.workers; r++ {
		l, err := obs.NewLogAt(s.bytes[s.lay.obsOff[r]:], r, s.lay.obsCap, now)
		if err != nil {
			return fmt.Errorf("dist: rank %d obs ring: %w", r, err)
		}
		s.obs[r] = l
	}
	return nil
}

// obsLog returns rank's wall log (nil when observability is off —
// every Log method is a nil-receiver no-op, so callers just emit).
func (s *segment) obsLog(rank int) *obs.Log {
	if s.obs == nil {
		return nil
	}
	return s.obs[rank]
}

// stopped is the shared stop predicate: run finished or failed.
func (s *segment) stopped() bool {
	return s.ctl.done.Load() != 0 || s.ctl.fail.Load() != 0
}

// failStore publishes a failure (first reporter wins is not needed —
// any non-zero value releases the spins; last-writer-wins is fine).
func (s *segment) failStore(code uint64) { s.ctl.fail.Store(code) }

// hbStamp records rank's liveness as unix nanos.
func (s *segment) hbStamp(rank int, unixNano uint64) { s.hb[rank].stamp.Store(unixNano) }

// hbLast returns rank's last heartbeat stamp (0 = never stamped).
func (s *segment) hbLast(rank int) uint64 { return s.hb[rank].stamp.Load() }
