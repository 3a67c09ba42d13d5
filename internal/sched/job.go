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
// record its tasks allocate is opened under the job's tenant (Record.Job:
// Tenant(id), not the slot's tag), so a canceled job's leaked records can
// be swept by their owners after the slot has gone to the next job. Like
// Deque and Table, the JobTable is a fixed byte layout over a
// caller-provided region so it can later live inside a shared segment
// and ride the network fabric unchanged.
//
// Job lifecycle (the phase half of State):
//
//	JobFree ──dispatch──▶ JobRunning ──root completes──▶ JobDone ──last chain ends──▶ JobFree
//	                          │                            ▲
//	                       cancel                          │
//	                          ▼                            │
//	                      JobDraining ──last chain ends────┘
//
// All transitions after dispatch are CASes on the whole word — tenant
// and phase (JobSlot.Advance) — so a root completion racing a cancel
// resolves to exactly one outcome, and a transition attempted for a
// job that has since left the slot fails whatever phase its successor
// is in.
const (
	JobFree uint64 = iota
	// JobRunning: dispatched; tasks executing.
	JobRunning
	// JobDraining: canceled; remaining frames complete-without-running
	// until the job's last chain ends.
	JobDraining
	// JobDone: the outcome is settled (the root's result, or the
	// cancellation); whoever retires the job's last chain token delivers
	// it and recycles the slot.
	JobDone
)

// JobSlot is the shared per-job word block.
//
// Quiescence is counted in CHAINS, not tasks. A worker's stack — its
// deque entries plus the running frame — always belongs to one job, and
// a task that spawns, runs its child and pops its continuation back
// changes nothing a finalizer needs to know: the parent is still there,
// keeping the job open. Only three events create a second place where
// the job is live, and each mints one token on Live: a dispatch starts
// the root chain, a steal splits a chain, a suspend parks a frame on a
// wait queue (the worker that resumes it inherits that token). A worker
// retires its chain's token when its stack runs empty, and whoever takes
// Live to 0 finalizes the job. Every access a task makes to the slot or
// to its records is made by a worker that holds a token, so the slot
// cannot be finalized — or recycled — under any of them (DESIGN.md §15).
type JobSlot struct {
	// State is id<<2 | phase (JobState): the tenant's unique job id and
	// one of JobFree/Running/Draining/Done. 0 is a free slot. The id is
	// what makes a late Cancel of a job that has left the slot fail
	// instead of draining its successor.
	State atomic.Uint64
	// Root holds the packed core.Handle of the job's root record (set
	// before State becomes JobRunning); a completer compares its record
	// handle against this to recognise the root.
	Root atomic.Uint64
	// Result is the root task's result, stored by the root's completer
	// before the Running→Done transition.
	Result atomic.Uint64
	// Grain is the job's sequential-cutoff knob (see rt.Config.Grain);
	// workers reload it when an invoked frame switches them onto this
	// job.
	Grain atomic.Uint64
	_     [64 - 4*8]byte
	// Live counts the job's live chains. It has the slot's second cache
	// line to itself: Root is loaded by every completion, and a steal's
	// mint must not invalidate that line.
	Live atomic.Int64
	_    [64 - 8]byte
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
// headers (0 is reserved for "no job"). Records carry the job's Tenant.
func JobTag(idx uint32) uint64 { return uint64(idx) + 1 }

// JobCount and JobCounters are allocated by nothing in the runtime: job
// accounting is JobSlot.Live plus plain per-worker tallies. They stay,
// verbatim, only because the frozen probe sched.jobcount_bracket_ns
// still times four adds on one, and go with it (ROADMAP item 6's queued
// benchmark issue).
type JobCount struct {
	Spawns   atomic.Uint64
	Executed atomic.Uint64
	Pending  atomic.Int64
	_        [64 - 3*8]byte
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
