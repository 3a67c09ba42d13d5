// Package obs is the structured observability subsystem shared by all
// backends: per-worker event rings, task-lineage tracking and
// log-bucket latency histograms, with exporters to Chrome trace-event
// JSON (Perfetto-viewable) and a compact text summary.
//
// Two recorder families share one event vocabulary and one export
// path (Export → WriteChromeTraceExport / WriteSummaryExport):
//
//   - Recorder/WorkerLog stamp events with the simulation engine's
//     virtual cycle clock. The engine is sequential (exactly one
//     simulated process executes at a time), so they need no locks and
//     must not be shared across real OS threads. Enabling them never
//     perturbs a run: two same-seed runs with and without a Recorder
//     execute the identical virtual-time schedule.
//   - WallRecorder/WallLog (wall.go) stamp events with a monotonic
//     wall clock and write flat, pointer-free rings that can live on
//     the heap or inside a shared-memory segment, for the rt and dist
//     backends.
//
// The disabled path is a nil-receiver guard in both families — a nil
// *Recorder, *WorkerLog, *WallRecorder or *WallLog accepts every call
// and does nothing, so instrumented code needs no conditionals and
// costs one pointer comparison per event when observability is off.
package obs

import "fmt"

// TaskID identifies one task (thread) for lineage tracking. IDs are
// assigned densely from 1 in spawn order — deterministic, because the
// engine serialises all spawns. 0 means "no task".
type TaskID uint64

// Kind classifies an event.
type Kind uint8

const (
	// KState is a worker scheduler-state change (Arg = trace state
	// code). State changes are kept out of the bounded ring — see
	// WorkerLog.StateChanges — so a full ring can never distort the
	// Gantt timeline derived from them.
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
	// KCtlHello / KCtlBye are dist control-plane round trips: the
	// hello/start handshake and the bye/ack farewell (Dur = ns for the
	// full round trip, including any redials).
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
// interval's) start in virtual cycles; Dur is 0 for instants.
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
	State uint8
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

// DefaultRingCap is the per-worker event-ring capacity used when a
// Recorder is built with cap <= 0.
const DefaultRingCap = 1 << 18

// WorkerLog is one worker's event stream: a bounded ring of typed
// events (newest kept on overflow) plus an unbounded, transition-only
// state timeline. All methods are nil-safe.
type WorkerLog struct {
	rec  *Recorder
	rank int32

	states    []StateChange
	lastState uint8
	haveState bool

	ring    []Event
	head    int // next slot to write
	total   uint64
	dropped uint64
}

// Recorder collects WorkerLogs, task lineages and latency histograms
// for one machine run. All methods are nil-safe.
type Recorder struct {
	now  func() uint64
	logs []*WorkerLog

	nextTask TaskID
	tasks    []*Lineage        // index = TaskID-1
	byRecord map[uint64]TaskID // live completion-record handle → task

	// Latency histograms (virtual cycles unless noted).
	StealLatency Hist // successful steal, begin → thread runnable
	StackXfer    Hist // stolen-stack transfer time
	StackBytes   Hist // stolen-stack transfer size (bytes)
	FAARoundTrip Hist // software fetch-and-add round trips
	SuspendSwap  Hist // suspend swap-out time
}

// NewRecorder builds a recorder for n workers with the given per-worker
// ring capacity (<= 0 selects DefaultRingCap). now supplies the virtual
// clock (normally sim.Engine.Now).
func NewRecorder(n, ringCap int, now func() uint64) *Recorder {
	if ringCap <= 0 {
		ringCap = DefaultRingCap
	}
	r := &Recorder{now: now, byRecord: make(map[uint64]TaskID)}
	r.logs = make([]*WorkerLog, n)
	for i := range r.logs {
		r.logs[i] = &WorkerLog{rec: r, rank: int32(i), ring: make([]Event, 0, ringCap)}
	}
	return r
}

// Now returns the recorder's current virtual time (0 on nil).
func (r *Recorder) Now() uint64 {
	if r == nil {
		return 0
	}
	return r.now()
}

// Worker returns rank's log (nil on a nil recorder, so the result can
// be stored unconditionally).
func (r *Recorder) Worker(rank int) *WorkerLog {
	if r == nil {
		return nil
	}
	return r.logs[rank]
}

// Logs returns all worker logs in rank order (nil on nil).
func (r *Recorder) Logs() []*WorkerLog {
	if r == nil {
		return nil
	}
	return r.logs
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

// Task returns id's lineage (nil if unknown or on a nil recorder).
func (r *Recorder) Task(id TaskID) *Lineage {
	if r == nil || id == 0 || int(id) > len(r.tasks) {
		return nil
	}
	return r.tasks[id-1]
}

// Tasks returns all lineages in spawn order (nil on nil).
func (r *Recorder) Tasks() []*Lineage {
	if r == nil {
		return nil
	}
	return r.tasks
}

// --- WorkerLog recording --------------------------------------------

// State records a scheduler-state transition at the current virtual
// time. Consecutive duplicates are dropped, mirroring the Gantt
// recorder the state stream feeds.
func (l *WorkerLog) State(s uint8) {
	if l == nil {
		return
	}
	if l.haveState && l.lastState == s {
		return
	}
	l.haveState = true
	l.lastState = s
	l.states = append(l.states, StateChange{Time: l.rec.now(), State: s})
}

// StateChanges returns the recorded transitions in time order.
func (l *WorkerLog) StateChanges() []StateChange {
	if l == nil {
		return nil
	}
	return l.states
}

// push appends e to the bounded ring, overwriting the oldest event when
// full.
func (l *WorkerLog) push(e Event) {
	l.total++
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, e)
		return
	}
	l.ring[l.head] = e
	l.head = (l.head + 1) % len(l.ring)
	l.dropped++
}

// Emit records an interval event: [time, time+dur) of kind k.
func (l *WorkerLog) Emit(k Kind, time, dur, arg uint64, task TaskID, peer int) {
	if l == nil {
		return
	}
	l.push(Event{Time: time, Dur: dur, Arg: arg, Task: task, Peer: int32(peer), Kind: k})
}

// EmitFlags is Emit with explicit flags (e.g. FFailed).
func (l *WorkerLog) EmitFlags(k Kind, time, dur, arg uint64, task TaskID, peer int, flags uint8) {
	if l == nil {
		return
	}
	l.push(Event{Time: time, Dur: dur, Arg: arg, Task: task, Peer: int32(peer), Kind: k, Flags: flags})
}

// Instant records a zero-duration event at the current virtual time.
func (l *WorkerLog) Instant(k Kind, arg uint64, task TaskID, peer int) {
	if l == nil {
		return
	}
	l.push(Event{Time: l.rec.now(), Arg: arg, Task: task, Peer: int32(peer), Kind: k})
}

// Depth samples the owner-observed deque depth.
func (l *WorkerLog) Depth(n uint64) {
	if l == nil {
		return
	}
	l.push(Event{Time: l.rec.now(), Arg: n, Peer: -1, Kind: KDepth})
}

// Recorder returns the owning recorder (nil on nil).
func (l *WorkerLog) Recorder() *Recorder {
	if l == nil {
		return nil
	}
	return l.rec
}

// Rank returns the worker rank the log belongs to (-1 on nil).
func (l *WorkerLog) Rank() int {
	if l == nil {
		return -1
	}
	return int(l.rank)
}

// Events returns the ring contents in chronological (append) order.
func (l *WorkerLog) Events() []Event {
	if l == nil {
		return nil
	}
	if l.dropped == 0 {
		return l.ring
	}
	out := make([]Event, 0, len(l.ring))
	out = append(out, l.ring[l.head:]...)
	out = append(out, l.ring[:l.head]...)
	return out
}

// Dropped returns how many events the bounded ring discarded.
func (l *WorkerLog) Dropped() uint64 {
	if l == nil {
		return 0
	}
	return l.dropped
}

// Total returns how many events were ever recorded (kept + dropped).
func (l *WorkerLog) Total() uint64 {
	if l == nil {
		return 0
	}
	return l.total
}
