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
//
// A Runtime has one lifecycle, the pool's (service.go): workers start,
// jobs are submitted, dispatched onto idle workers and finalized by
// the worker that ends their last chain, and Close stops the workers and
// checks quiescence. NewPool keeps that pool open for many jobs;
// New(...).Run is a pool of one job slot that runs one job and closes.
package rt

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"uniaddr/internal/core"
	"uniaddr/internal/fault"
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
	// ArenaSize sizes the per-worker uni-address region, which every
	// worker maps at core.DefaultUniBase — identical across workers
	// and backends by construction, which is the whole point.
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
	// Only the knobs of FaultClasses apply here; the facade rejects the
	// others.
	Fault fault.Config
	// Obs attaches a wall-clock recorder: one lock-free event ring per
	// worker plus steal/park/copy latency histograms (obs.NewWallRecorder).
	// Off by default — the disabled path costs one pointer compare per
	// instrumentation site and allocates nothing.
	Obs bool
	// ObsRingCap is the per-worker event-ring capacity (<= 0 selects
	// 2^16 events; rounded up to a power of two by obs.RingCap).
	ObsRingCap int
	// MaxJobs bounds how many jobs may occupy job slots at once (queued
	// jobs beyond it wait in the admission queue). New sets it to 1.
	MaxJobs int
	// QueueDepth bounds the admission queue; Submit returns
	// ErrPoolSaturated beyond it. New sets it to 1.
	QueueDepth int
}

// FaultClasses are the fault knob classes rt honours: the
// backend-neutral steal knobs (claim and copy failures, delays).
const FaultClasses = fault.Steal

// DefaultConfig returns the standard layout for n workers.
func DefaultConfig(n int) Config {
	return Config{
		Workers:   n,
		Seed:      1,
		ArenaSize: core.DefaultUniSize,
		DequeCap:  core.DefaultDequeCap,
		RecordCap: 1 << 16,
		MaxWall:   2 * time.Minute,
	}
}

func (c *Config) fillDefaults() {
	d := DefaultConfig(c.Workers)
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
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
	if c.MaxJobs <= 0 {
		c.MaxJobs = 2 * c.Workers
		if c.MaxJobs < 8 {
			c.MaxJobs = 8
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = c.MaxJobs
		if c.QueueDepth < 16 {
			c.QueueDepth = 16
		}
	}
}

// Runtime executes task trees across Config.Workers real workers: one
// set of goroutines, arenas, deques and record tables that multiplexes
// every admitted job, one job slot each (service.go). It is started by
// NewPool, or by Run for a single job.
type Runtime struct {
	cfg     Config
	workers []*Worker

	// initErr records a construction failure (bad fault config),
	// returned by NewPool or Run before any goroutine starts.
	initErr error

	done   atomic.Bool
	failMu sync.Mutex
	err    error
	wg     sync.WaitGroup

	// lot is the idle-parking lot: workers that exhaust their idle
	// spin block here until a push, a record completion, a Submit or
	// shutdown wakes them (park.go).
	lot parkingLot

	// rec is the wall-clock observability recorder (nil when Config.Obs
	// is off — every instrumented site is nil-safe).
	rec *obs.Recorder

	// --- job multiplexing (see service.go for the lifecycle) ---

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
	watchdog      *time.Timer

	// sweeps holds, per worker, the canceled tenants whose abandoned
	// records that worker must reclaim from its own table (postSweep,
	// Worker.sweep); nil until the pool's first cancel.
	sweepMu sync.Mutex
	sweeps  [][]uint64

	elapsed time.Duration // Run's job, dispatch to completion
	total   Stats         // the workers' counters when they stopped
}

// jobMeta is the Go-side half of a job slot.
type jobMeta struct {
	id        uint64 // global submission sequence; tags obs events
	t         *Ticket
	cancelErr error // set before the Running→Draining CAS that publishes it
}

// New builds a Runtime for one Run: a pool with one job slot and an
// admission queue of one, not yet started. A zero MaxWall selects
// DefaultConfig's deadlock guard.
func New(cfg Config) *Runtime {
	if cfg.MaxWall == 0 {
		cfg.MaxWall = DefaultConfig(cfg.Workers).MaxWall
	}
	cfg.MaxJobs, cfg.QueueDepth = 1, 1
	return newRuntime(cfg)
}

func newRuntime(cfg Config) *Runtime {
	cfg.fillDefaults()
	r := &Runtime{cfg: cfg, activeTk: make(map[*Ticket]struct{})}
	r.jobs = sched.NewJobTable(uint64(cfg.MaxJobs))
	r.jobMeta = make([]jobMeta, cfg.MaxJobs)
	r.freeSlots = make([]uint32, 0, cfg.MaxJobs)
	for i := cfg.MaxJobs - 1; i >= 0; i-- {
		r.freeSlots = append(r.freeSlots, uint32(i))
	}
	r.freeSlotCount.Store(int64(cfg.MaxJobs))
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
	return memKey{c.ArenaSize, c.DequeCap, c.RecordCap}
}

// start launches the workers and the watchdog: from here on the runtime
// serves its admission queue until shutdown.
func (r *Runtime) start() {
	if d := r.cfg.MaxWall; d > 0 {
		r.watchdog = time.AfterFunc(d, func() { r.fail(&TimeoutError{Budget: d}) })
	}
	for _, w := range r.workers {
		r.wg.Add(1)
		go w.run()
	}
}

// Run executes the root task fid(localsLen bytes of locals, initialised
// by init) as the runtime's one job and returns its result: it starts
// the workers, submits the job, waits for it and closes the pool, which
// checks quiescence and recycles the worker memory. A Runtime runs once.
func (r *Runtime) Run(fid core.FuncID, localsLen uint32, init func(*core.Env)) (uint64, error) {
	if r.initErr != nil {
		return 0, r.initErr
	}
	tk, err := (&Pool{r}).Submit(fid, localsLen, init, JobParams{Grain: r.cfg.Grain})
	if err != nil {
		return 0, err
	}
	// The job is queued before any worker starts, and admission closes
	// behind it, so its finalizer stops the workers (finalizeSlot): a
	// one-worker run takes no idle round before or after its job.
	r.closed = true
	r.start()
	res, err := tk.Wait()
	if cerr := r.shutdown(); err == nil {
		err = cerr
	}
	r.elapsed = time.Duration(res.ExecNS)
	if err != nil {
		return 0, err
	}
	return res.Result, nil
}

// stop releases every worker's idle loop, including workers blocked in
// the parking lot; they wind down at their next check.
func (r *Runtime) stop() {
	r.done.Store(true)
	r.lot.wakeAll()
}

// fail aborts the pool; the first error wins. The workers are winding
// down and will never finalize the outstanding tickets, so they are
// resolved here with the pool's error.
func (r *Runtime) fail(err error) {
	r.failMu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.failMu.Unlock()
	r.stop()
	r.failTickets(err)
}

// stopped reports whether workers should wind down (pool closed or
// failed). Used as the abort predicate for lock spins.
func (r *Runtime) stopped() bool { return r.done.Load() }

// Elapsed returns Run's job time, from dispatch to completion.
func (r *Runtime) Elapsed() time.Duration { return r.elapsed }

// Obs returns the wall-clock recorder (nil when observability is off).
// Export it only after the workers stopped — the rings are read at
// quiescence.
func (r *Runtime) Obs() *obs.Recorder { return r.rec }

// ParkedWorkers returns how many workers are currently blocked in the
// parking lot. Unlike most introspection here it is safe to call
// MID-RUN (one atomic load) — the quiescence tests poll it.
func (r *Runtime) ParkedWorkers() int { return int(r.lot.count.Load()) }

// TotalStats is the sum of all workers' counters, taken when they
// stopped (Run, Pool.Close): the memory may serve another pool since.
func (r *Runtime) TotalStats() Stats { return r.total }
