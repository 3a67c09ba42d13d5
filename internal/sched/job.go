package sched

import (
	"fmt"
	"sync/atomic"
	"unsafe"
)

// Jobs give a persistent worker pool many concurrent task trees over
// one set of arenas/deques/record tables. Each admitted job owns a
// *slot* in a flat JobTable; every frame of the job carries slot+1 in
// its header, so any worker holding a frame knows its job, and every
// record its tasks allocate is opened under the same tag (Record.Job),
// so a canceled job's leaked records can be swept by tag. Like Deque and
// Table, the JobTable is a fixed byte layout over a caller-provided
// region so it can later live inside a shared segment and ride the
// network fabric unchanged.
//
// Job lifecycle (the phase half of State):
//
//	JobFree ──dispatch──▶ JobRunning ──root completes──▶ JobDone ──▶ JobFree
//	                          │                            ▲
//	                       cancel                          │
//	                          ▼                            │
//	                      JobDraining ──last task drains───┘
//
// All transitions after dispatch are CASes on the whole word — tenant
// and phase (JobSlot.Advance) — so a root completion racing a cancel
// resolves to exactly one finalizer, and a transition attempted for a
// job that has since left the slot fails whatever phase its successor
// is in.
const (
	JobFree uint64 = iota
	// JobRunning: dispatched; tasks executing.
	JobRunning
	// JobDraining: canceled; remaining frames complete-without-running
	// until the per-job quiescence count closes.
	JobDraining
	// JobDone: finalized (result or cancellation delivered); the slot
	// is recycled by the pool once the ticket has been signaled.
	JobDone
)

// JobSlot is the shared per-job word block. Spawn/executed counts are
// NOT here: they are per-worker (JobCounters) so the spawn hot path
// never touches a cache line another worker writes.
//
// The slot is recycled, and a completer's last look at it (the drain
// check after its Executed bump, see JobCount) can come after its job
// was finalized and the slot handed on. So State names its tenant, and
// the stale look finds its own job gone. Every other slot access by a
// task precedes that task's bump, which the finalizer waits for.
type JobSlot struct {
	// State is id<<2 | phase (JobState): the tenant's unique job id and
	// one of JobFree/Running/Draining/Done. 0 is a free slot.
	State atomic.Uint64
	// Root holds the packed core.Handle of the job's root record (set
	// before State becomes JobRunning); a completer compares its record
	// handle against this to detect per-job quiescence on the normal
	// path.
	Root atomic.Uint64
	// Result is the root task's result, stored by the finalizer before
	// the JobDone transition.
	Result atomic.Uint64
	// Grain is the job's sequential-cutoff knob (see rt.Config.Grain);
	// workers reload it when an invoked frame switches them onto this
	// job.
	Grain atomic.Uint64
	// Pad to a cache line pair so adjacent jobs never share a line.
	_ [128 - 4*8]byte
}

const jobSlotBytes = uint64(unsafe.Sizeof(JobSlot{}))

// JobState packs a tenant id and a phase into a State word.
func JobState(id, phase uint64) uint64 { return id<<2 | phase }

// JobPhase extracts the phase from a State word.
func JobPhase(state uint64) uint64 { return state & 3 }

// Advance moves job id's slot from one phase to the next, failing if the
// slot is in any other phase or holds any other job.
func (s *JobSlot) Advance(id, from, to uint64) bool {
	return s.State.CompareAndSwap(JobState(id, from), JobState(id, to))
}

// JobTableBytes returns the region footprint of a job table with the
// given slot capacity.
func JobTableBytes(capacity uint64) uint64 { return capacity * jobSlotBytes }

// JobTable is a fixed array of job slots over a flat region. The pool
// that owns it hands out slot indices (free-list on the Go side); the
// flat part is only what remote workers/processes must see.
type JobTable struct {
	slots []JobSlot
}

// NewJobTableAt attaches a job table view to a flat region (zeroed at
// first attach: all slots JobFree).
func NewJobTableAt(region []byte, capacity uint64) (*JobTable, error) {
	if capacity == 0 {
		return nil, fmt.Errorf("sched: zero job table capacity")
	}
	if err := regionCheck(region, JobTableBytes(capacity), "job table"); err != nil {
		return nil, err
	}
	return &JobTable{
		slots: unsafe.Slice((*JobSlot)(unsafe.Pointer(&region[0])), capacity),
	}, nil
}

// NewJobTable allocates a private heap-backed job table.
func NewJobTable(capacity uint64) *JobTable {
	t, err := NewJobTableAt(heapRegion(JobTableBytes(capacity)), capacity)
	if err != nil {
		panic(err)
	}
	return t
}

// Get returns the slot at idx. Valid from any attached view.
func (t *JobTable) Get(idx uint32) *JobSlot { return &t.slots[idx] }

// Cap returns the number of slots.
func (t *JobTable) Cap() int { return len(t.slots) }

// JobTag is the tag of the job in slot idx, carried by its frames'
// headers and its records' lifecycle words (0 is reserved for "no job").
func JobTag(idx uint32) uint64 { return uint64(idx) + 1 }

// JobCount is one worker's spawn/executed pair for one job slot, padded
// to a cache line: each worker writes only its own JobCounters, so the
// per-task counter bumps are uncontended; cross-worker sums happen only
// on the rare quiescence/drain checks — concurrently with the bumps,
// which is why both are atomic adds and not plain words.
//
// A job is quiescent when ΣExecuted == ΣSpawns+1, and only then may its
// slot be finalized and its records swept. A completer bumps Executed
// LAST — after its record's Result and done stores, the waiter wake and,
// for the root, the slot's Result store and Running→Done CAS — so the
// count cannot close, and the slot cannot change hands, under any of
// those accesses; closure in turn means every store to the job's
// records has retired.
type JobCount struct {
	Spawns   atomic.Uint64
	Executed atomic.Uint64
	// Pending is touched by nothing in the runtime: it bracketed each
	// completion until counting last made that unnecessary, and stays
	// because the frozen probe sched.jobcount_bracket_ns still adds to it.
	Pending atomic.Int64
	_       [64 - 3*8]byte
}

const jobCountBytes = uint64(unsafe.Sizeof(JobCount{}))

// JobCountersBytes returns the region footprint of one worker's
// counter block for the given job-slot capacity.
func JobCountersBytes(capacity uint64) uint64 { return capacity * jobCountBytes }

// JobCounters is one worker's per-job counter block over a flat region.
type JobCounters struct {
	cnt []JobCount
}

// NewJobCountersAt attaches a counter view to a flat region.
func NewJobCountersAt(region []byte, capacity uint64) (*JobCounters, error) {
	if capacity == 0 {
		return nil, fmt.Errorf("sched: zero job counters capacity")
	}
	if err := regionCheck(region, JobCountersBytes(capacity), "job counters"); err != nil {
		return nil, err
	}
	return &JobCounters{
		cnt: unsafe.Slice((*JobCount)(unsafe.Pointer(&region[0])), capacity),
	}, nil
}

// NewJobCounters allocates a private heap-backed counter block.
func NewJobCounters(capacity uint64) *JobCounters {
	c, err := NewJobCountersAt(heapRegion(JobCountersBytes(capacity)), capacity)
	if err != nil {
		panic(err)
	}
	return c
}

// Get returns the counter pair for slot idx.
func (c *JobCounters) Get(idx uint32) *JobCount { return &c.cnt[idx] }

// Reset zeroes slot idx's spawn/executed pair for reuse by a new job.
// Called by the dispatching worker before the slot's State becomes
// JobRunning (no task of the new job exists yet, and the old job's
// finalizer has already read its final values), so atomic stores
// suffice. A straggling completer of the old job may still SUM the pair
// (its drain check) and read a mix of tenants; the tenant id in the
// State word it then CASes is what makes that harmless.
func (c *JobCounters) Reset(idx uint32) {
	c.cnt[idx].Spawns.Store(0)
	c.cnt[idx].Executed.Store(0)
}
