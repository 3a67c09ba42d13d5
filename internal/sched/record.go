package sched

import (
	"fmt"
	"slices"
	"sync/atomic"
	"unsafe"

	"uniaddr/internal/core"
	"uniaddr/internal/mem"
)

// Task records implement join (§5.4). As in the simulator, a record
// lives with the worker that executed the spawn, and its Handle packs
// (rank, VA) so any worker holding the handle can complete or poll it —
// with atomic loads/stores on shared memory where the paper uses
// one-sided RDMA READ/WRITE.
//
// RecordVABase anchors the handle address space: record i on any worker
// has VA RecordVABase + i*RecordBytes (the rank half of the Handle
// disambiguates workers, exactly like the simulator's per-process RDMA
// heaps all mapping at the same base).
const (
	RecordVABase mem.VA = 0x6000_0000_0000
	RecordBytes         = uint64(unsafe.Sizeof(Record{}))
)

// Record is one completion record. Job is its lifecycle word,
// tenant<<1 | done with 0 = free, and a record's whole life is three
// stores to it: the allocator opens it pending under its job's tenant
// (RecordPending; dist has no tenants, so its pending word is the 0 the
// release left and it stores nothing), the completer marks it done
// (RecordDone), the joiner's release clears it.
//
// Only a holder of the record's handle reads the word, and the handle
// lives in exactly one place: the frame of the task that spawned the
// record's task. So the word is shared only once a thief has taken that
// frame — which the owner learns, as the paper's child-first rule has it,
// from a failed pop. Until then the owner's stores are plain (StorePlain):
// the open, the done of an inline child whose parent's Pop won, and the
// owner's own release; a later thief that takes the parent reads them
// after the bottom store of the owner's next Push, which publishes them
// with the deque slots (DESIGN.md §9). A done store whose Pop lost is
// seq-cst, because the thief may be polling the word, and is the store
// the Waiter handshake orders against. Nobody scans records it holds no
// handle to: a canceled job's leaked records are swept by their owner
// (SweepTenants), tagged by tenant so that a slot already re-let to the
// next job is never taken for the old one.
//
// Result is a plain word written before the done store and read only
// after a load saw the done bit, so a joiner that sees done also
// observes the result — the same publish order the simulator's 16-byte
// RDMA WRITE provides by landing atomically. A recycled record's Result
// is rewritten only after its Alloc, which follows the previous joiner's
// release (program order for ReleaseLocal, the release stack's CAS→Swap
// for Release).
//
// The next field threads the record through the table's shared release
// stack; it is only meaningful while the record sits on that stack.
// Embedding it in the record keeps the Table a single flat region. 32
// bytes: two records per cache line.
type Record struct {
	Job    atomic.Uint64
	Result uint64
	// Waiter publishes which worker suspended at a join on this record:
	// rank+1, 0 = none. The joiner stores Waiter BEFORE re-checking done
	// (ExecJoin); the completer stores done BEFORE loading Waiter (rt's
	// shared publish — a plain publish has no joiner elsewhere to find,
	// see Record). Under seq-cst ordering at least one side observes
	// the other, so a suspended joiner is always either resumed by its
	// own recheck or woken precisely by the completer — never silently
	// left parked (see DESIGN.md §10). The joiner stores 0 again when it
	// stops waiting (Engine.ExecJoin's recheck hit, Engine.ResumeReady)
	// while it still owns the record, so a record re-enters the free
	// lists with Waiter == 0: on rt a stale rank would send every later
	// completion of the recycled record through the parking-lot mutex,
	// and would index out of range in a runtime with fewer workers.
	Waiter atomic.Int64
	// next holds idx+1 of the record below this one on the release
	// stack (0 = end of chain).
	next atomic.Uint64
}

// RecordPending and RecordDone are the lifecycle word's two live values
// for a record of the given tenant (Tenant; 0 = untagged).
func RecordPending(tenant uint64) uint64 { return tenant << 1 }
func RecordDone(tenant uint64) uint64    { return tenant<<1 | 1 }

// Tenant is the tag a job's records carry: its unique job id + 1, so 0
// stays "untagged" and a record of a job that has left its slot never
// matches the slot's next job.
func Tenant(jobID uint64) uint64 { return jobID + 1 }

// IsDone reports whether the record's task has completed.
func (r *Record) IsDone() bool { return r.Job.Load()&1 != 0 }

// StorePlain stores the lifecycle word with a plain store — legal only
// for the record's owner while no other worker can hold its handle (see
// Record). Job stays an atomic.Uint64 for every other access.
func (r *Record) StorePlain(word uint64) { *(*uint64)(unsafe.Pointer(&r.Job)) = word }

// tableHdr is the shared word block at the start of a table region.
type tableHdr struct {
	// releaseHead is idx+1 of the top released record; 0 = empty.
	releaseHead atomic.Uint64
	_           [56]byte
	// freedRem counts cross-worker Release calls. It is shared (not
	// owner-only) because on the dist backend the releasing joiner is
	// another PROCESS: an owner-side Go counter would never see it.
	// Live() subtracts both freed counters from allocs; it is only
	// meaningful post-run (the stop edge publishes the owner-only
	// counters).
	freedRem atomic.Uint64
	_        [56]byte
}

const tableHdrBytes = uint64(unsafe.Sizeof(tableHdr{}))

// TableBytes returns the region footprint of a record table with the
// given capacity.
func TableBytes(capacity uint64) uint64 {
	return tableHdrBytes + capacity*RecordBytes
}

// Table is one worker's record table over a flat region: a fixed
// record array (so Get(i) stays valid forever — handles may be polled
// by any worker or process) plus a free list. Allocation is owner-only
// (records are allocated by the spawning worker), but a record is
// freed by the JOINER, which may be any worker — so the free list is
// split:
//
//   - hdr.releaseHead and the records' next links form a Treiber stack
//     any worker CAS-pushes freed indices onto. Only the owner ever
//     removes nodes, and it takes the WHOLE stack with one Swap — there
//     is no pop-side CAS, so the classic Treiber pop ABA cannot occur
//     (a push-side CAS that succeeds has verified the head it links to
//     is the current head).
//   - localFree is the owner's private stack, refilled by draining the
//     release stack; Alloc touches no shared state on the fast path.
//
// This replaces a mutex pair per task (alloc by the owner + release by
// the joiner) that cost ~16% of a fib run's CPU on one core.
//
// Like Deque, a Table value is one process's view; remote processes
// attach their own view to the same region to Get/Release records they
// hold handles to.
type Table struct {
	hdr  *tableHdr
	recs []Record

	// Owner-only state (no synchronisation needed):
	localFree []uint32
	nextFresh uint32 // first never-used index
	allocs    uint64 // owner-only allocation count
	freedLoc  uint64 // owner-only count of ReleaseLocal calls
}

// NewTableAt attaches a table view to a flat region (zeroed at first
// attach). The region must be 8-byte aligned and hold
// TableBytes(capacity).
func NewTableAt(region []byte, capacity uint64) (*Table, error) {
	if capacity == 0 {
		return nil, fmt.Errorf("sched: zero record table capacity")
	}
	if err := regionCheck(region, TableBytes(capacity), "record table"); err != nil {
		return nil, err
	}
	return &Table{
		hdr:  (*tableHdr)(unsafe.Pointer(&region[0])),
		recs: unsafe.Slice((*Record)(unsafe.Pointer(&region[tableHdrBytes])), capacity),
	}, nil
}

// NewTable allocates a private heap-backed table.
func NewTable(capacity uint64) *Table {
	t, err := NewTableAt(heapRegion(TableBytes(capacity)), capacity)
	if err != nil {
		panic(err)
	}
	return t
}

// Alloc returns the index of a free record (lifecycle word 0: a fresh
// one, or one whose Release cleared it), which the caller opens under
// its job's tenant. Owner-only: called by the spawning worker (and once by
// the runtime for the root, before any worker starts).
func (t *Table) Alloc() (uint32, error) {
	if len(t.localFree) == 0 {
		// Drain everything joiners have released since the last refill.
		// The Swap's seq-cst RMW makes each releaser's next-link store
		// (program-ordered before its publishing CAS) visible here.
		if h := t.hdr.releaseHead.Swap(0); h != 0 {
			idx := uint32(h - 1)
			for {
				t.localFree = append(t.localFree, idx)
				nx := t.recs[idx].next.Load()
				if nx == 0 {
					break
				}
				idx = uint32(nx - 1)
			}
		}
	}
	var idx uint32
	if n := len(t.localFree); n > 0 {
		idx = t.localFree[n-1]
		t.localFree = t.localFree[:n-1]
		// Nothing to reset: Release cleared the lifecycle word, Result is
		// stored by the completer before its done store, and Waiter is
		// already 0 where anyone reads it — an rt joiner that set it
		// cleared it before releasing the record, dist never acts on it.
	} else if uint64(t.nextFresh) < uint64(len(t.recs)) {
		idx = t.nextFresh
		t.nextFresh++
	} else {
		return 0, fmt.Errorf("sched: record table exhausted (%d records; raise Config.RecordCap)", len(t.recs))
	}
	t.allocs++
	return idx, nil
}

// Release returns a record to the pool. Called by the joiner — any
// worker, any process — so it pushes onto the shared release stack.
func (t *Table) Release(idx uint32) {
	t.recs[idx].Job.Store(0)
	for {
		h := t.hdr.releaseHead.Load()
		t.recs[idx].next.Store(h)
		if t.hdr.releaseHead.CompareAndSwap(h, uint64(idx)+1) {
			break
		}
	}
	t.hdr.freedRem.Add(1)
}

// ReleaseLocal returns a record the OWNER itself is freeing (it joined
// its own child — the common case) straight onto the private free
// stack, skipping the CAS of the shared release path. The store is
// plain: the joiner holds the record's only handle and has seen the done
// bit, so every other worker's access to the word is behind it.
func (t *Table) ReleaseLocal(idx uint32) {
	t.recs[idx].StorePlain(0)
	t.localFree = append(t.localFree, idx)
	t.freedLoc++
}

// SweepTenants releases every record of this table that still belongs to
// one of the given tenants, pending or done, and returns how many it
// took. Owner-only, and only for tenants whose jobs have quiesced (their
// last chain ended, which orders every store their tasks made before the
// call): those records are the ones a canceled job's drained frames
// abandoned — suspended joins completed without their parent running the
// release, child handles in frames completed without running their
// bodies. Other tenants' records may be in use by any worker meanwhile,
// so the words are loaded atomically; a swept record's handle has
// usually escaped, so it is cleared with a seq-cst store, as a remote
// Release clears one (a sweep is off every hot path).
func (t *Table) SweepTenants(tenants []uint64) int {
	n := 0
	for i := range t.recs[:t.nextFresh] {
		w := t.recs[i].Job.Load()
		if w == 0 || !slices.Contains(tenants, w>>1) {
			continue
		}
		t.recs[i].Job.Store(0)
		t.localFree = append(t.localFree, uint32(i))
		t.freedLoc++
		n++
	}
	return n
}

// Reset returns the table to its NewTable state — every record zero,
// both free lists empty, counters zero — in time proportional to the
// records ever handed out: nextFresh bounds the indices any Alloc,
// Release or completer can have written. Only for a table whose owner
// and every handle holder have stopped (the words are cleared with
// plain stores); the caller decides whether the contents were worth
// keeping, e.g. that Live() is 0.
func (t *Table) Reset() {
	clear(t.recs[:t.nextFresh])
	t.hdr.releaseHead.Store(0)
	t.hdr.freedRem.Store(0)
	t.localFree = t.localFree[:0]
	t.nextFresh, t.allocs, t.freedLoc = 0, 0, 0
}

// Waiters counts the records that still name a suspended joiner
// (quiescence check: a resumed joiner clears the word, so any survivor
// is a thread that was never resumed — or a resume that forgot to).
// Same calling rule as Live.
func (t *Table) Waiters() int {
	n := 0
	for i := range t.recs[:t.nextFresh] {
		if t.recs[i].Waiter.Load() != 0 {
			n++
		}
	}
	return n
}

// Get returns the record at idx. Valid from any attached view.
func (t *Table) Get(idx uint32) *Record { return &t.recs[idx] }

// Live returns the number of allocated records (quiescence check; call
// only on the owner's view after the run's workers have stopped).
func (t *Table) Live() int {
	return int(t.allocs - t.freedLoc - t.hdr.freedRem.Load())
}

// RecordIndex recovers the table index from a handle minted by
// RecordHandle.
func RecordIndex(h core.Handle) uint32 {
	return uint32((h.VA() - RecordVABase) / mem.VA(RecordBytes))
}

// RecordHandle packs (rank, idx) into the uni-address handle any
// worker can complete or poll.
func RecordHandle(rank int, idx uint32) core.Handle {
	return core.MakeHandle(rank, RecordVABase+mem.VA(uint64(idx)*RecordBytes))
}
