package core

import (
	"encoding/binary"

	"uniaddr/internal/mem"
)

// Exec is the contract between a task's Env and whichever backend is
// executing it. Task functions are written once against Env; the
// backend decides what a spawn, a join or a completion actually does.
// Frame memory is NOT behind this interface: the backend hands the Env a
// byte view of the frame at (re-)entry and slot accesses index it. Two
// kinds of implementation exist:
//
//   - *Worker (this package): the deterministic virtual-time simulator,
//     where memory is a simulated AddressSpace and every operation
//     advances a discrete-event clock.
//   - internal/rt's and internal/dist's workers: the real backends,
//     where frames live in per-worker byte arenas, the deque runs on
//     real sync/atomic operations and time is wall-clock time. Both
//     embed sched.Engine, which supplies the methods they share.
//
// The split keeps the simulator the semantic oracle: both backends run
// the exact same registered task functions, so a differential harness
// can assert the results agree.
type Exec interface {
	// ExecWork charges cycles of task computation (virtual time on the
	// simulator; a calibrated spin on real hardware).
	ExecWork(cycles uint64)
	// ExecComplete records a task's result in its record. The simulator
	// publishes it there and then; the real backends publish it when the
	// task's entry returns, the shared way only if another worker may
	// hold the record's handle (DESIGN.md §9).
	ExecComplete(rec Handle, result uint64)
	// ExecSpawnBegin and ExecSpawnRun are the spawn protocol cut where
	// the child's init runs: Env.Spawn calls init between them, so the
	// closure never crosses this interface. Begin publishes e's
	// continuation and builds the child frame; the returned Env is the
	// child's, valid until Run. hasInit: help-first must stage args.
	ExecSpawnBegin(e *Env, resumeRP, handleSlot int, fid FuncID, localsLen uint32, hasInit bool) *Env
	// ExecSpawnRun runs the child and pops the continuation; false
	// means e was stolen (see Env.Spawn).
	ExecSpawnRun(e, child *Env) bool
	// ExecJoin runs the join protocol for e; see Env.Join.
	ExecJoin(e *Env, resumeRP int, h Handle) (uint64, bool)
	// ExecGrain returns the configured task-granularity cutoff (see
	// Config.Grain / GrainAuto): 0 = no coalescing, GrainAuto = let the
	// workload pick a cutoff and gate it on ExecCoalesce.
	ExecGrain() uint64
	// ExecCoalesce reports whether, right now, spawning more parallelism
	// looks pointless — the adaptive signal behind GrainAuto. Backends
	// answer from local scheduler state (e.g. "my deque already holds
	// plenty of unstolen work"), so it is cheap and advisory.
	ExecCoalesce() bool
	// SimWorker returns the simulated worker executing the task, or nil
	// when the backend is not the simulator. The global heap (§5.1) is
	// reached through it: only the simulator has one.
	SimWorker() *Worker
}

// GrainAuto, as a Config.Grain / Env.Grain value, selects the
// workload's own default sequential cutoff applied adaptively: the
// workload inlines a subtree only when Env.Coalesce reports local
// surplus of stealable work.
const GrainAuto = ^uint64(0)

// CoalesceDequeMin is the local-deque occupancy at which a backend
// answers ExecCoalesce true: enough unstolen entries that thieves are
// demonstrably not keeping up, so finer spawning only adds overhead.
// Shared by all three backends so the adaptive signal is comparable.
const CoalesceDequeMin = 4

// --- *Worker as an Exec (the simulator backend) ----------------------

// ExecWork advances simulated time by cycles of task computation
// (scaled on straggler workers).
func (w *Worker) ExecWork(cycles uint64) {
	w.stats.WorkCycles += cycles
	w.adv(cycles)
}

// ExecComplete publishes a result through the record protocol (local
// write or one-sided RDMA WRITE).
func (w *Worker) ExecComplete(rec Handle, result uint64) { w.completeRecord(rec, result) }

// ExecGrain returns the machine's configured granularity cutoff.
func (w *Worker) ExecGrain() uint64 { return w.m.cfg.Grain }

// ExecCoalesce reports local work surplus: the worker's own deque
// already holds CoalesceDequeMin+ unstolen entries.
func (w *Worker) ExecCoalesce() bool { return w.deque.Size() >= CoalesceDequeMin }

// SimWorker returns w: the simulator is its own Exec.
func (w *Worker) SimWorker() *Worker { return w }

// --- backend support: nothing below is for task functions -------------

// NewEnv constructs the Env for one (re-)entry of a task function on
// backend x: frame is the backend's byte view of the whole frame at
// base, header first. Alternate backends (internal/rt) use it together
// with TaskFn to drive task bodies; the simulator builds its Envs
// internally. The Env must not be retained across the function's
// return.
func NewEnv(x Exec, base mem.VA, frame []byte, rp uint32) *Env {
	e := new(Env)
	e.Reset(x, base, frame, rp)
	return e
}

// Reset reinitialises e for a new task entry, so backends can pool Env
// values instead of heap-allocating one per invocation. The contract
// that task functions must not retain an Env past their return (see
// NewEnv) is what makes reuse safe.
func (e *Env) Reset(x Exec, base mem.VA, frame []byte, rp uint32) {
	// Field by field: *e = Env{...} into a pooled (heap) Env builds the
	// value on the stack and moves it — ~8 ns per task on spawn_join.
	e.x, e.base, e.rp, e.returned = x, base, rp, false
	e.hdr, e.locals = (*[frameHdrSize]byte)(frame), frame[frameHdrSize:]
}

// Rearm readies an Env that already addresses its frame for the task
// body: a spawned child is entered through the Env its init wrote
// through, so only the resume point and the returned mark change.
func (e *Env) Rearm(rp uint32) { e.rp, e.returned = rp, false }

// Header returns the byte view of the frame header, for the backend
// that owns the bytes. Invalidated by any migration, like Bytes.
func (e *Env) Header() []byte {
	if e.hdr == nil {
		panic("core: Header on a locals-only Env (help-first staging)")
	}
	return e.hdr[:]
}

// Returned reports whether the task called ReturnU64/ReturnI64 during
// this entry. Backends use it after a Done return to record the default
// zero result when the task never returned explicitly.
func (e *Env) Returned() bool { return e.returned }

// Grain returns the backend's granularity cutoff for this run: 0 = no
// coalescing, GrainAuto = workload-chosen cutoff gated on Coalesce,
// any other value = a static size metric below which the workload
// should run subtrees sequentially. Workloads that honour it must
// still charge the same ExecWork cycles the spawned subtree would
// have, so results and work accounting stay backend-comparable.
func (e *Env) Grain() uint64 { return e.x.ExecGrain() }

// Coalesce reports whether spawning more parallelism currently looks
// pointless (see Exec.ExecCoalesce) — the adaptive gate for GrainAuto.
func (e *Env) Coalesce() bool { return e.x.ExecCoalesce() }

// TaskFn returns the registered task function for id, panicking on an
// unregistered id (mirrors the simulator's internal lookup).
func TaskFn(id FuncID) Fn { return lookupFn(id) }

// FrameHeaderBytes is the size of the frame header at the base of every
// thread stack; the locals area follows it.
const FrameHeaderBytes = frameHdrSize

// FrameEntry reads what a backend needs to enter a thread from the first
// FrameHeaderBytes of its frame (see frame.go for the byte layout): the
// task function, the resume point, the tag of the job it belongs to
// (sched.JobTag: slot+1; 0 on backends that run one job at a time) and
// its record. Separate results, not a struct: a header value built in
// four 4-byte stack stores and reloaded as one 16-byte load stalls store
// forwarding on every task entry.
func FrameEntry(b []byte) (fid FuncID, resume, job uint32, rec Handle) {
	return FuncID(binary.LittleEndian.Uint32(b[fhFuncIDOff:])),
		binary.LittleEndian.Uint32(b[fhResumeOff:]),
		binary.LittleEndian.Uint32(b[fhJobOff:]),
		Handle(binary.LittleEndian.Uint64(b[fhRecordOff:]))
}

// FrameJob reads only the job tag from a raw frame header: what a steal
// or a resume needs to know about the thread it just moved.
func FrameJob(b []byte) uint32 { return binary.LittleEndian.Uint32(b[fhJobOff:]) }

// SetFrameResume stamps a resume point into a raw frame header — the
// backend-side half of Env.setRP for backends that own the frame bytes
// directly.
func SetFrameResume(b []byte, rp uint32) {
	binary.LittleEndian.PutUint32(b[fhResumeOff:], rp)
}

// EncodeFrameHeader writes a fresh header (resume point 0, task ID 0)
// into b, which must hold at least FrameHeaderBytes. It writes all of
// them, so the caller need only zero the locals that follow.
func EncodeFrameHeader(b []byte, fid FuncID, localsLen, job uint32, rec Handle) {
	binary.LittleEndian.PutUint32(b[fhFuncIDOff:], uint32(fid))
	binary.LittleEndian.PutUint32(b[fhResumeOff:], 0)
	binary.LittleEndian.PutUint32(b[fhLocalsLenOff:], localsLen)
	binary.LittleEndian.PutUint32(b[fhJobOff:], job)
	binary.LittleEndian.PutUint64(b[fhRecordOff:], uint64(rec))
	binary.LittleEndian.PutUint64(b[fhTaskIDOff:], 0)
}
