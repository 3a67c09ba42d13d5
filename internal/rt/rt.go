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
// Workers have one lifecycle, the pool's (service.go): they start,
// jobs are submitted, dispatched onto idle workers and finalized by
// the worker that ends their last chain, and Close stops the workers and
// checks quiescence. NewPool keeps that pool open for many jobs;
// New(...).Run submits one job to a pool that outlives it, resident on a
// process-wide shelf between Runs.
package rt

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"uniaddr/internal/core"
	"uniaddr/internal/fault"
	"uniaddr/internal/obs"
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
	// jobs beyond it wait in the admission queue). A Run uses 1.
	MaxJobs int
	// QueueDepth bounds the admission queue; Submit returns
	// ErrPoolSaturated beyond it. A Run uses 1.
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

// Runtime is one Run: its configuration, and once it has run, that
// run's job time, counters and recorder. The workers it runs on belong to
// a pool that outlives it: Run takes a parked pool of its layout off a
// process-wide shelf (or starts one), submits its job, waits for it, and
// shelves the pool again, so a Run pays a Submit and a Wait, not a
// world's start and teardown.
type Runtime struct {
	cfg     Config
	ran     bool
	elapsed time.Duration
	total   Stats
	rec     *obs.Recorder
}

// New returns a Runtime for one Run. A zero MaxWall selects
// DefaultConfig's deadlock guard; MaxJobs and QueueDepth do not apply.
// Small enough to inline, so a caller's Runtime can live on its stack.
func New(cfg Config) *Runtime {
	return &Runtime{cfg: cfg}
}

// errRanTwice is Run's answer on a Runtime that has run.
var errRanTwice = errors.New("rt: a Runtime runs once")

// Run executes the root task fid(localsLen bytes of locals, initialised
// by init) as one job and returns its result. A clean run leaves its pool
// parked, quiescent and reset on the shelf for the next Run of the same
// layout. A run with a fault plan or a recorder gets a pool of its own
// and closes it, and a run that fails — watchdog, worker panic,
// quiescence — discards its pool. A Runtime runs once.
func (r *Runtime) Run(fid core.FuncID, localsLen uint32, init func(*core.Env)) (uint64, error) {
	if r.ran {
		return 0, errRanTwice
	}
	r.ran = true
	cfg := r.cfg
	if cfg.MaxWall == 0 {
		cfg.MaxWall = DefaultConfig(cfg.Workers).MaxWall
	}
	cfg.MaxJobs, cfg.QueueDepth = 1, 1
	cfg.fillDefaults()
	// A fault plan is built into a pool's workers and a recorder's rings
	// describe its whole life: either makes the pool the run's own.
	fresh := cfg.Obs || cfg.Fault != (fault.Config{})
	var p *Pool
	if !fresh {
		p = takePool(cfg.poolKey())
	}
	if p != nil {
		// Its workers are parked: the wake that hands them the job
		// orders these writes.
		for _, w := range p.workers {
			w.Reseed(cfg.Seed, cfg.StealBatch)
		}
	} else {
		pc := cfg
		pc.MaxWall = 0 // the budget is the run's, armed below
		var err error
		if p, err = NewPool(pc); err != nil {
			return 0, err
		}
	}
	r.rec = p.rec
	p.arm(cfg.MaxWall)
	var res JobResult
	tk, err := p.Submit(fid, localsLen, init, JobParams{Grain: cfg.Grain})
	if err == nil {
		res, err = tk.Wait()
	}
	if err == nil {
		err = p.settle(&r.total)
	}
	switch {
	case err != nil:
		p.fail(err)
		p.shutdown()
		return 0, err
	case fresh:
		if err := p.Close(); err != nil {
			return 0, err
		}
	default:
		shelvePool(p)
	}
	r.elapsed = time.Duration(res.ExecNS)
	return res.Result, nil
}

// Elapsed returns Run's job time, from dispatch to completion.
func (r *Runtime) Elapsed() time.Duration { return r.elapsed }

// Obs returns the run's wall-clock recorder (nil when observability is
// off). A run with a recorder closes its pool, so the rings are at rest.
func (r *Runtime) Obs() *obs.Recorder { return r.rec }

// TotalStats is the sum of all workers' counters over this run alone,
// taken once every worker had parked (or stopped) after its job.
func (r *Runtime) TotalStats() Stats { return r.total }

// --- the shelf of resident pools ---------------------------------------

// poolKey is the layout a pool was built for and may serve Runs of: its
// worker count and memory, and the victim tiers built over them. Seed and
// steal batch are per run (sched.Engine.Reseed), grain per job.
type poolKey struct {
	memKey
	workers, tierGroup int
}

func (c Config) poolKey() poolKey {
	return poolKey{c.memKey(), c.Workers, c.TierGroup}
}

// shelfCap bounds the shelf, in pools: two keep a caller alternating
// one- and two-worker Runs (the benchmark's ledger does) resident.
const shelfCap = 2

// shelf holds the parked pools between Runs, oldest first.
var shelf struct {
	mu    sync.Mutex
	pools []*Pool
}

// takePool returns the newest shelved pool of layout k, or nil.
func takePool(k poolKey) *Pool {
	shelf.mu.Lock()
	defer shelf.mu.Unlock()
	for i := len(shelf.pools) - 1; i >= 0; i-- {
		if p := shelf.pools[i]; p.cfg.poolKey() == k {
			shelf.pools = slices.Delete(shelf.pools, i, i+1)
			return p
		}
	}
	return nil
}

// shelvePool puts a pool that just settled on the shelf, closing the
// oldest when it is full: its worker memory goes back to memcache.go.
func shelvePool(p *Pool) {
	var evict *Pool
	shelf.mu.Lock()
	if len(shelf.pools) == shelfCap {
		evict = shelf.pools[0]
		shelf.pools = slices.Delete(shelf.pools, 0, 1)
	}
	shelf.pools = append(shelf.pools, p)
	shelf.mu.Unlock()
	if evict != nil {
		evict.Close()
	}
}
