// Package obs is the structured observability subsystem shared by all
// backends: one recorder over per-worker flat event rings (log.go),
// task-lineage tracking and log-bucket latency histograms, with writers
// for Chrome trace-event JSON (Perfetto-viewable), a compact text
// summary and the simulator's text Gantt (gantt.go).
//
// Every backend records the same Event into the same ring type; only
// the clock differs. The simulator's Recorder stamps virtual cycles
// (sim.Engine.Now): the engine runs one simulated process at a time,
// and recording never perturbs virtual time. The rt and dist recorders
// stamp monotonic wall ns, and dist's rings live inside the shared
// segment. One Export carries the clock-domain label to every writer.
//
// The disabled path is a nil-receiver guard: a nil *Recorder or *Log
// accepts every call and does nothing, so instrumented code needs no
// conditionals and costs one pointer comparison per event when
// observability is off.
package obs

import (
	"fmt"
	"time"
)

// TaskID identifies one task (thread) for lineage tracking. IDs are
// assigned densely from 1 in spawn order — deterministic, because the
// engine serialises all spawns. 0 means "no task".
type TaskID uint64

// Kind classifies an event.
type Kind uint8

const (
	// KState names a worker scheduler-state change. State changes are
	// never ring events — see Recorder.State — so a full ring can never
	// distort the Gantt timeline derived from them, and an all-zero slot
	// (which decodes as KState) is known to be unwritten.
	KState Kind = iota
	// KTask is one execution interval of a task function on this
	// worker: Task = id, Arg = FuncID, Dur = cycles on CPU.
	KTask
	// KSpawn records a spawn: Task = child id, Arg = parent id.
	KSpawn
	// KTaskDone records a task function returning Done (Task = id).
	KTaskDone
	// KPopFail is a failed continuation pop: the parent migrated
	// (Task = parent id).
	KPopFail
	// KJoinFast is a join that completed immediately.
	KJoinFast
	// KJoinMiss is a join that had to suspend (Task = suspending id).
	KJoinMiss
	// KSuspend is a thread swap-out to pinned memory (Task = id,
	// Dur = swap cycles, Arg = frame bytes).
	KSuspend
	// KResumeWait is a thread swap-in from the wait queue (Task = id,
	// Dur = swap cycles).
	KResumeWait
	// KStealBegin marks the start of a steal attempt (Peer = victim).
	KStealBegin
	// KStealOK is a successful steal: Peer = victim, Task = stolen id,
	// Arg = stack bytes, Dur = full attempt latency (begin → thread
	// runnable), Time = attempt begin.
	KStealOK
	// KStealEmpty / KStealBusy / KStealReject are failed attempts
	// (victim empty, lock busy, §5.1 slot mismatch).
	KStealEmpty
	KStealBusy
	KStealReject
	// KStealFault is a steal attempt aborted by an injected fabric
	// fault (Peer = victim).
	KStealFault
	// KStealRetry is a faulted attempt being retried after backoff
	// (Peer = victim, Dur = backoff cycles).
	KStealRetry
	// KStealRollback is a half-completed steal rolled back over the
	// THE abort path (Peer = victim).
	KStealRollback
	// KStealAbandon is an attempt abandoned after exhausting retries
	// (Peer = victim).
	KStealAbandon
	// KXfer is a stolen-stack transfer (Peer = victim, Arg = bytes,
	// Dur = cycles).
	KXfer
	// KRead / KWrite / KFAA are remote fabric operations issued by
	// this worker: Peer = target, Arg = bytes, Dur = op latency,
	// Time = issue instant. FFailed marks injected failures.
	KRead
	KWrite
	KFAA
	// KNetRetry is a reliable-wrapper backoff after a failed fabric op
	// (Dur = backoff cycles).
	KNetRetry
	// KLifelinePush is a thread pushed over a lifeline (Peer =
	// requester, Task = id, Arg = bytes).
	KLifelinePush
	// KLifelineRecv is a pushed thread arriving (Peer = pusher,
	// Task = id, Arg = bytes).
	KLifelineRecv
	// KDepth samples the owner-observed deque depth (Arg = depth)
	// after a local push/pop/take.
	KDepth
	// --- real-backend (wall-clock) kinds -------------------------------
	// KProbeCache / KProbeHint / KProbeBlind classify a steal-victim
	// probe on the rt/dist backends: last-successful-victim cache hit,
	// deque-size hint sweep pick, or blind liveness fallback (Peer =
	// probed victim).
	KProbeCache
	KProbeHint
	KProbeBlind
	// KNap is one bounded idle sleep of dist's sleep ladder (Dur = ns
	// actually slept); rt's idle ladder is spin→park and emits none.
	KNap
	// KPark is one full park on the runtime parking lot, from blocking
	// on the wake channel to the wake token arriving (Dur = ns parked).
	KPark
	// KBlacklist records a victim being blacklisted after consecutive
	// steal faults (Peer = victim, Arg = ban duration ns).
	KBlacklist
	// KHeartbeat is one heartbeat stamp written to the shared segment
	// by a dist worker process.
	KHeartbeat
	// KCtlHello / KCtlBye are a dist worker's control-plane edges of a
	// run: the hello (or, on a resident set, the wait since the run's
	// epoch) up to the run's start, including any redials (Arg = the
	// redials), and the farewell from the scheduler loop's exit to the
	// bye's send.
	KCtlHello
	KCtlBye
	// KCtlRetry is a control-plane redial after a connection fault
	// (Arg = attempt number).
	KCtlRetry
	numKinds
)

var kindNames = [numKinds]string{
	"state", "task", "spawn", "task-done", "pop-fail",
	"join-fast", "join-miss", "suspend", "resume-wait",
	"steal-begin", "steal-ok", "steal-empty", "steal-busy", "steal-reject",
	"steal-fault", "steal-retry", "steal-rollback", "steal-abandon",
	"xfer", "READ", "WRITE", "FAA", "net-retry",
	"lifeline-push", "lifeline-recv", "deque-depth",
	"probe-cache", "probe-hint", "probe-blind",
	"nap", "park", "blacklist", "heartbeat",
	"ctl-hello", "ctl-bye", "ctl-retry",
}

// String returns the kind name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event flags.
const (
	// FFailed marks a fabric op that an injected fault aborted.
	FFailed uint8 = 1 << iota
)

// Event is one typed timeline entry. Time is the event's (or
// interval's) start in the recorder's clock domain; Dur is 0 for
// instants.
type Event struct {
	Time  uint64
	Dur   uint64
	Arg   uint64
	Task  TaskID
	Peer  int32 // victim/target rank; -1 when not applicable
	Kind  Kind
	Flags uint8
	// Job is the service job the producer was serving when it emitted
	// the event (0 outside a persistent service; always 0 in the
	// simulator's virtual-time rings).
	Job uint64
}

// Failed reports whether the event carries the injected-failure flag.
func (e Event) Failed() bool { return e.Flags&FFailed != 0 }

// StateChange is one scheduler-state transition of a worker.
type StateChange struct {
	Time  uint64
	State State
}

// Hop is one migration of a task between workers.
type Hop struct {
	Time     uint64
	From, To int32
}

// Lineage is the life story of one task: where it was spawned, every
// worker it migrated across, where it finished, and who joined it.
type Lineage struct {
	ID     TaskID
	Parent TaskID // 0 for the root
	Func   uint32 // core.FuncID of the task function
	Spawn  struct {
		Time   uint64
		Worker int32
	}
	Hops []Hop
	Done struct {
		Time   uint64
		Worker int32 // -1 until the task finishes
	}
	Joiner int32 // worker that joined the task; -1 if never joined
}

// Recorder collects one run's worker logs in one clock domain, plus two
// streams that are not ring events and that only the simulator writes:
// each worker's scheduler-state transitions and task lineage. All
// methods are nil-safe.
type Recorder struct {
	clock string        // ClockVirtual or ClockWallNS
	now   func() uint64 // nil on a harvest-only recorder
	logs  []*Log

	// states[rank] is the worker's transition-only state stream. It is
	// unbounded and kept outside the ring, so a full ring can never
	// distort the Gantt derived from it.
	states [][]StateChange

	nextTask TaskID
	tasks    []*Lineage        // index = TaskID-1
	byRecord map[uint64]TaskID // live completion-record handle → task
}

func newRecorder(clock string, logs []*Log, now func() uint64) *Recorder {
	return &Recorder{clock: clock, now: now, logs: logs,
		states: make([][]StateChange, len(logs)), byRecord: make(map[uint64]TaskID)}
}

// NewRecorder builds a virtual-time recorder for n simulated workers
// with the given per-worker ring capacity (<= 0 selects 2^18 events;
// others round up to a power of two). now supplies the virtual clock
// (normally sim.Engine.Now). Recording is host-side only, so two
// same-seed runs with and without a Recorder execute the identical
// virtual-time schedule.
func NewRecorder(n, ringCap int, now func() uint64) *Recorder {
	if ringCap <= 0 {
		ringCap = defaultRingCap
	}
	return newRecorder(ClockVirtual, heapLogs(n, RingCap(ringCap), now), now)
}

// NewWallRecorder builds a heap-backed wall-clock recorder for n rt
// workers with the given per-worker ring capacity (normalised by
// RingCap). The clock is monotonic ns since the recorder was created.
func NewWallRecorder(n, ringCap int) *Recorder {
	epoch := time.Now()
	now := func() uint64 { return uint64(time.Since(epoch)) }
	return newRecorder(ClockWallNS, heapLogs(n, RingCap(ringCap), now), now)
}

// NewRecorderOver wraps existing wall-clock logs (dist's segment attach
// views, in rank order) for export only.
func NewRecorderOver(logs []*Log) *Recorder {
	return newRecorder(ClockWallNS, logs, nil)
}

// Worker returns rank's log (nil on a nil recorder, so the result can
// be stored unconditionally).
func (r *Recorder) Worker(rank int) *Log {
	if r == nil {
		return nil
	}
	return r.logs[rank]
}

// State records that worker rank entered scheduler state s at the
// current time. Consecutive duplicates are dropped.
func (r *Recorder) State(rank int, s State) {
	if r == nil {
		return
	}
	st := r.states[rank]
	if n := len(st); n > 0 && st[n-1].State == s {
		return
	}
	r.states[rank] = append(st, StateChange{Time: r.now(), State: s})
}

// NewTask assigns the next task ID, recording the spawn site. record is
// the task's completion-record handle, used to attribute the eventual
// join (see TaskJoined). Returns 0 on a nil recorder.
func (r *Recorder) NewTask(parent TaskID, worker int, fn uint32, record uint64) TaskID {
	if r == nil {
		return 0
	}
	r.nextTask++
	id := r.nextTask
	ln := &Lineage{ID: id, Parent: parent, Func: fn, Joiner: -1}
	ln.Spawn.Time = r.now()
	ln.Spawn.Worker = int32(worker)
	ln.Done.Worker = -1
	r.tasks = append(r.tasks, ln)
	r.byRecord[record] = id
	return id
}

// TaskMoved appends a migration hop to id's lineage.
func (r *Recorder) TaskMoved(id TaskID, from, to int) {
	if r == nil || id == 0 {
		return
	}
	ln := r.tasks[id-1]
	ln.Hops = append(ln.Hops, Hop{Time: r.now(), From: int32(from), To: int32(to)})
}

// TaskDone records where and when id's task function returned Done.
func (r *Recorder) TaskDone(id TaskID, worker int) {
	if r == nil || id == 0 {
		return
	}
	ln := r.tasks[id-1]
	ln.Done.Time = r.now()
	ln.Done.Worker = int32(worker)
}

// TaskJoined records the final joiner of the task whose completion
// record is handle, and retires the handle mapping (record handles are
// reused after the join frees them). It returns the joined task's ID
// (0 if the record is unknown or the recorder nil).
func (r *Recorder) TaskJoined(record uint64, worker int) TaskID {
	if r == nil {
		return 0
	}
	id, ok := r.byRecord[record]
	if !ok {
		return 0
	}
	delete(r.byRecord, record)
	r.tasks[id-1].Joiner = int32(worker)
	return id
}
