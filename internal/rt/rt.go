// Package rt is the real-parallelism backend: it executes the same
// registered task functions as the virtual-time simulator
// (internal/core, internal/sim) on actual goroutines, one per worker,
// with a THE-protocol deque built from sync/atomic operations and
// steals performed as cross-arena memory copies. Where the simulator is
// the semantic oracle — deterministic, single-threaded, every cost
// modelled — rt is the measurement backend: wall-clock time, true
// concurrency, real cache traffic. Both run identical workload Specs,
// so a differential harness (internal/harness) can assert their root
// results agree.
//
// The scheduler data structures — uni-address Arena, THE-protocol
// Deque, record Table — and the scheduling mechanism over them
// (sched.Engine: frames, join, resume, steal) live in internal/sched,
// shared with the multi-process dist backend; rt keeps the policy: the
// parking lot, job multiplexing and the pool.
package rt

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"uniaddr/internal/core"
	"uniaddr/internal/fault"
	"uniaddr/internal/mem"
	"uniaddr/internal/obs"
	"uniaddr/internal/sched"
)

// TimeoutError reports a run that exceeded its MaxWall budget — the
// structured replacement for an untyped deadline error, so chaos
// harnesses can distinguish "deadlocked or undersized budget" from a
// worker fault.
type TimeoutError struct {
	Budget time.Duration
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("rt: run exceeded %v wall-clock budget (deadlock or undersized MaxWall?)", e.Budget)
}

// Config sizes a Runtime. The zero value of every field selects a
// sensible default (see DefaultConfig).
type Config struct {
	// Workers is the number of concurrent workers, one goroutine each.
	Workers int
	// Seed drives victim selection; each worker derives its own stream.
	Seed uint64
	// ArenaBase / ArenaSize lay out the per-worker uni-address region;
	// identical across workers by construction, which is the whole
	// point.
	ArenaBase mem.VA
	ArenaSize uint64
	// DequeCap is the per-worker deque capacity (power of two).
	DequeCap uint64
	// RecordCap is the per-worker task-record table size.
	RecordCap uint64
	// MaxWall aborts a run that exceeds this wall-clock budget — the
	// analogue of the simulator's MaxCycles deadlock guard.
	MaxWall time.Duration
	// Grain is the task-granularity cutoff workloads read back through
	// core.Env.Grain: 0 (default) disables coalescing, core.GrainAuto
	// selects the workload's own cutoff applied adaptively, any other
	// value is a static size-metric cutoff.
	Grain uint64
	// StealBatch bounds how many entries one steal round trip may move:
	// 0 selects the deque's own bound (MaxClaim — the steal-half
	// default), 1 restores single-entry steals, larger values clamp to
	// MaxClaim.
	StealBatch int
	// TierGroup is the rank-block width for distance-tiered victim
	// selection (<= 0 selects sched.DefaultTierGroup).
	TierGroup int
	// Fault is the deterministic fault schedule (zero value = none).
	// Only the backend-neutral knobs apply here (steal claim/copy
	// failures and delays); sim-only and dist-only knobs are rejected
	// at the facade.
	Fault fault.Config
	// Obs attaches a wall-clock recorder: one lock-free event ring per
	// worker plus steal/park/copy latency histograms (obs.WallRecorder).
	// Off by default — the disabled path costs one pointer compare per
	// instrumentation site and allocates nothing.
	Obs bool
	// ObsRingCap is the per-worker event-ring capacity (<= 0 selects
	// obs.DefaultWallRingCap; rounded up to a power of two).
	ObsRingCap int
	// MaxJobs bounds how many jobs may occupy job slots at once on a
	// persistent Pool (queued jobs beyond it wait in the admission
	// queue). Single-run Runtimes always use exactly one slot.
	MaxJobs int
	// QueueDepth bounds the Pool admission queue; Submit returns
	// ErrPoolSaturated beyond it. Ignored by single-run Runtimes.
	QueueDepth int
}

// DefaultConfig returns the standard layout for n workers.
func DefaultConfig(n int) Config {
	return Config{
		Workers:   n,
		Seed:      1,
		ArenaBase: core.DefaultUniBase,
		ArenaSize: core.DefaultUniSize,
		DequeCap:  core.DefaultDequeCap,
		RecordCap: 1 << 16,
		MaxWall:   2 * time.Minute,
	}
}

func (c *Config) fillDefaults(persistent bool) {
	d := DefaultConfig(c.Workers)
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.ArenaBase == 0 {
		c.ArenaBase = d.ArenaBase
	}
	if c.ArenaSize == 0 {
		c.ArenaSize = d.ArenaSize
	}
	if c.DequeCap == 0 {
		c.DequeCap = d.DequeCap
	}
	if c.RecordCap == 0 {
		c.RecordCap = d.RecordCap
	}
	// A single run inherits the deadlock-guard default; a persistent
	// pool has no natural lifetime, so 0 means "no watchdog" there.
	if c.MaxWall == 0 && !persistent {
		c.MaxWall = d.MaxWall
	}
	if c.MaxJobs <= 0 {
		if persistent {
			c.MaxJobs = 2 * c.Workers
			if c.MaxJobs < 8 {
				c.MaxJobs = 8
			}
		} else {
			c.MaxJobs = 1
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = c.MaxJobs
		if c.QueueDepth < 16 {
			c.QueueDepth = 16
		}
	}
}

// Runtime executes task trees across Config.Workers real workers. A
// single-run Runtime (New + Run) executes one root task and tears the
// world down; a persistent Runtime (NewPool, service.go) keeps the same
// workers parked between jobs and multiplexes many task trees over the
// one set of arenas/deques/record tables, one job slot per admitted
// job.
type Runtime struct {
	cfg     Config
	workers []*Worker

	rootFid    core.FuncID
	rootLocals uint32
	rootInit   func(*core.Env)
	rootRec    core.Handle

	// initErr records a construction failure (bad fault config);
	// returned by Run before any goroutine starts.
	initErr error

	done       atomic.Bool
	finishOnce sync.Once
	rootResult uint64
	failMu     sync.Mutex
	err        error
	wg         sync.WaitGroup

	// lot is the idle-parking lot: workers that exhaust their idle
	// spin block here until a push, a record completion or shutdown
	// wakes them (park.go).
	lot parkingLot

	// rec is the wall-clock observability recorder (nil when Config.Obs
	// is off — every instrumented site is nil-safe).
	rec *obs.WallRecorder

	// --- job multiplexing (see service.go for the Pool lifecycle) ---

	// persistent marks a Pool-owned runtime: workers park between jobs
	// instead of exiting, and idle workers dispatch queued jobs.
	persistent bool
	// jobs is the flat per-slot job state every worker consults on the
	// invoke path (state, root handle, grain).
	jobs *sched.JobTable
	// jobMeta is the Go-side per-slot companion: the ticket to signal
	// and the cancel cause. Written under jobMu at dispatch/finalize;
	// the hot-path id read is ordered by the atomics that publish the
	// job's frames.
	jobMeta []jobMeta
	// jobMu guards the admission queue, the slot free list and ticket
	// state transitions.
	jobMu       sync.Mutex
	jobQueue    []*pendingJob
	freeSlots   []uint32
	submitSeq   uint64
	closed      bool
	activeTk    map[*Ticket]struct{}
	jobWG       sync.WaitGroup
	queuedCount atomic.Int64 // mirror of len(jobQueue), read lock-free by idle workers
	// freeSlotCount mirrors len(freeSlots). A queued job is only
	// dispatchable when a slot is free, so the park-side work hint gates
	// on both counters — otherwise idle workers would busy-spin on a
	// non-empty queue for as long as every slot stays occupied.
	freeSlotCount atomic.Int64
	anyCanceled   atomic.Int64 // jobs currently draining; gates enter's drain-at-entry test
	jobsDone      atomic.Uint64
	exited        atomic.Uint64 // workers whose goroutine has returned
	startT        time.Time
	watchdog      *time.Timer

	// sweeps holds, per worker, the canceled tenants whose abandoned
	// records that worker must reclaim from its own table (postSweep,
	// Worker.sweep); nil until the pool's first cancel.
	sweepMu sync.Mutex
	sweeps  [][]uint64

	ran     bool
	elapsed time.Duration
	total   Stats // Pool.Close's snapshot of TotalStats
}

// jobMeta is the Go-side half of a job slot.
type jobMeta struct {
	id        uint64 // global submission sequence; tags obs events
	t         *Ticket
	cancelErr error // set before the Running→Draining CAS that publishes it
}

// New builds a single-run Runtime per cfg.
func New(cfg Config) *Runtime { return newRuntime(cfg, false) }

func newRuntime(cfg Config, persistent bool) *Runtime {
	cfg.fillDefaults(persistent)
	r := &Runtime{cfg: cfg, persistent: persistent}
	r.jobs = sched.NewJobTable(uint64(cfg.MaxJobs))
	r.jobMeta = make([]jobMeta, cfg.MaxJobs)
	if persistent {
		r.activeTk = make(map[*Ticket]struct{})
		r.freeSlots = make([]uint32, 0, cfg.MaxJobs)
		for i := cfg.MaxJobs - 1; i >= 0; i-- {
			r.freeSlots = append(r.freeSlots, uint32(i))
		}
		r.freeSlotCount.Store(int64(cfg.MaxJobs))
	}
	fc := cfg.Fault
	fc.Seed = cfg.Seed
	plan, err := fault.NewPlan(fc, cfg.Workers)
	if err != nil {
		r.initErr = fmt.Errorf("rt: %w", err)
		plan = nil
	}
	// The interface value must be nil (not a typed nil *Plan) for the
	// resilience fast path to collapse.
	var inj sched.StealInjector
	if plan != nil {
		inj = plan
	}
	if cfg.Obs {
		r.rec = obs.NewWallRecorder(cfg.Workers, cfg.ObsRingCap)
	}
	// One Peers slice for the whole runtime: every worker sees every
	// worker's memory, its own included.
	peers := make([]sched.Views, cfg.Workers)
	for i := range peers {
		peers[i] = takeWorkerMem(cfg.memKey()).Views
		w := &Worker{
			rt:       r,
			wakeCh:   make(chan struct{}, 1),
			parkSlot: -1,
		}
		w.Engine = sched.Engine{X: w, Rank: i, Peers: peers, Grain: cfg.Grain, Wlog: r.rec.Worker(i), StopFn: r.stopped, Jobs: r.jobs}
		w.Init(cfg.Seed, cfg.StealBatch, cfg.TierGroup, inj)
		w.tally = make([]jobTally, cfg.MaxJobs)
		w.curJob = ^uint32(0) // force a slot reload on the first invoke
		r.workers = append(r.workers, w)
	}
	return r
}

// memKey is the layout of the worker memory c asks for.
func (c Config) memKey() memKey {
	return memKey{c.ArenaBase, c.ArenaSize, c.DequeCap, c.RecordCap}
}

// Run executes the root task fid(localsLen bytes of locals, initialised
// by init) to completion and returns its result. It blocks until every
// worker goroutine has exited.
func (r *Runtime) Run(fid core.FuncID, localsLen uint32, init func(*core.Env)) (uint64, error) {
	if r.ran {
		return 0, fmt.Errorf("rt: Runtime.Run called twice; build a fresh Runtime per run")
	}
	if r.persistent {
		return 0, fmt.Errorf("rt: Run on a persistent Pool runtime; use Pool.Submit")
	}
	r.ran = true
	if r.initErr != nil {
		return 0, r.initErr
	}
	r.rootFid, r.rootLocals, r.rootInit = fid, localsLen, init
	// The single run is job slot 0 of the job machinery the persistent
	// Pool shares: the root record is allocated and tagged before any
	// goroutine starts, and its handle published in the slot so every
	// worker's shared publish recognises the root.
	r.rootRec = r.workers[0].newRecord(sched.Tenant(0))
	js := r.jobs.Get(0)
	js.Grain.Store(r.cfg.Grain)
	js.Root.Store(uint64(r.rootRec))
	js.Live.Store(1) // the root chain, started by rank 0's runRoot
	js.State.Store(sched.JobState(0, sched.JobRunning))
	watchdog := time.AfterFunc(r.cfg.MaxWall, func() {
		r.fail(&TimeoutError{Budget: r.cfg.MaxWall})
	})
	start := time.Now()
	for _, w := range r.workers {
		r.wg.Add(1)
		go w.run()
	}
	r.wg.Wait()
	r.elapsed = time.Since(start)
	watchdog.Stop()
	r.failMu.Lock()
	err := r.err
	r.failMu.Unlock()
	if err != nil {
		return 0, err
	}
	if !r.done.Load() {
		return 0, fmt.Errorf("rt: workers exited without completing the root task")
	}
	return r.rootResult, nil
}

// finish publishes the root result and releases every worker's idle
// loop, including workers blocked in the parking lot. Called by
// whichever worker ends the run's last chain.
func (r *Runtime) finish(result uint64) {
	r.finishOnce.Do(func() {
		r.rootResult = result
		r.done.Store(true)
		r.lot.wakeAll()
	})
}

// fail aborts the run; the first error wins. The wakeAll releases any
// parked worker so the run can actually wind down (the watchdog's
// deadline fail would otherwise leave them blocked forever).
func (r *Runtime) fail(err error) {
	r.failMu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.failMu.Unlock()
	r.done.Store(true)
	r.lot.wakeAll()
	// A pool failure must also resolve every outstanding ticket — the
	// workers are winding down and will never finalize them.
	if r.persistent {
		r.failTickets(err)
	}
}

// stopped reports whether workers should wind down (root finished or
// run failed). Used as the abort predicate for lock spins.
func (r *Runtime) stopped() bool { return r.done.Load() }

// Elapsed returns the wall-clock duration of the completed run.
func (r *Runtime) Elapsed() time.Duration { return r.elapsed }

// Obs returns the wall-clock recorder (nil when observability is off).
// Export it only after Run returns — the rings are read at quiescence.
func (r *Runtime) Obs() *obs.WallRecorder { return r.rec }

// Workers returns the worker count.
func (r *Runtime) Workers() int { return len(r.workers) }

// ParkedWorkers returns how many workers are currently blocked in the
// parking lot. Unlike most introspection here it is safe to call
// MID-RUN (one atomic load) — the quiescence tests poll it.
func (r *Runtime) ParkedWorkers() int { return int(r.lot.count.Load()) }

// IdleSpins sums every worker's idle-loop round counter. Safe to call
// mid-run (atomic loads); a fully parked runtime's value stops
// advancing, which is the whole point of parking.
func (r *Runtime) IdleSpins() uint64 {
	var n uint64
	for _, w := range r.workers {
		n += w.idleSpins.Load()
	}
	return n
}

// TotalStats sums all workers' counters; call only after Run returns.
func (r *Runtime) TotalStats() Stats {
	var t Stats
	for _, w := range r.workers {
		t.Add(w.FinalStats())
	}
	return t
}

// CheckQuiescence verifies the post-run invariants the simulator's
// Machine.CheckQuiescence checks: every spawned task executed exactly
// once, all deques and wait queues drained, and exactly one record (the
// root's, never joined) still live. Call after a successful Run.
func (r *Runtime) CheckQuiescence() error {
	var executed, spawned uint64
	live := 0
	for _, w := range r.workers {
		executed += w.Stats.TasksExecuted
		spawned += w.Stats.Spawns
		if n := w.Deque.Size(); n != 0 {
			return fmt.Errorf("rt: worker %d deque holds %d entries after completion", w.Rank, n)
		}
		if n := w.Suspended(); n != 0 {
			return fmt.Errorf("rt: worker %d wait queue holds %d suspended threads after completion", w.Rank, n)
		}
		live += w.Records.Live()
	}
	if executed != spawned+1 {
		return fmt.Errorf("rt: %d tasks executed but %d spawned (+1 root)", executed, spawned)
	}
	if live != 1 {
		return fmt.Errorf("rt: %d records live after completion, want 1 (the root's)", live)
	}
	return nil
}
