package uniaddr

import (
	"context"
	"fmt"
	"io"
	"time"

	"uniaddr/internal/core"
	"uniaddr/internal/dist"
	"uniaddr/internal/fault"
	"uniaddr/internal/obs"
	"uniaddr/internal/rt"
	"uniaddr/internal/sched"
)

// FaultConfig configures deterministic fault injection (an alias of
// the internal type, so values flow freely). The zero value disables
// injection entirely. The knobs split into three classes, and each
// backend honours the classes it can model:
//
//   - fabric knobs (ReadFailProb, WriteFailProb, FAAFailProb,
//     ServerDropProb, latency spikes, brownouts): sim only;
//   - steal knobs (StealClaimFailProb, StealCopyFailProb, steal
//     delays): rt and dist;
//   - control-plane knobs (CtlDropProb, CtlTruncProb, CtlDelayProb,
//     CtlDelay): dist only.
//
// Setting a knob the selected backend cannot honour returns an
// UnsupportedOptionError naming it.
type FaultConfig = fault.Config

// Backend names accepted by WithBackend.
const (
	// BackendSim is the deterministic virtual-time cluster simulator —
	// the semantic oracle, and the only backend with simulated costs,
	// fabric models, fault injection and observability.
	BackendSim = "sim"
	// BackendRT runs real goroutines on real cores inside one process.
	BackendRT = "rt"
	// BackendDist runs one OS process per worker over a shared-memory
	// segment mapped at the same base VA everywhere; see MaybeChild.
	BackendDist = "dist"
)

// options collects the functional-option state for one Run.
type options struct {
	backend    string
	workers    int
	seed       uint64
	costs      *Costs
	net        *NetParams
	fault      *FaultConfig
	obs        bool
	trace      io.Writer
	maxWall    time.Duration
	grain      uint64
	stealBatch int
	tierGroup  int
}

// Option configures Run.
type Option func(*options)

// WithBackend selects the execution backend: BackendSim (default),
// BackendRT or BackendDist.
func WithBackend(name string) Option { return func(o *options) { o.backend = name } }

// WithWorkers sets the worker count: simulated processes (sim),
// goroutines (rt) or OS processes (dist). Default 4.
func WithWorkers(n int) Option { return func(o *options) { o.workers = n } }

// WithSeed pins the seed driving every random scheduling decision.
// Equal seeds give bit-identical runs on the sim backend. Default 1.
func WithSeed(seed uint64) Option { return func(o *options) { o.seed = seed } }

// WithCosts sets the simulated CPU cost profile (e.g. SPARCCosts,
// XeonCosts). Sim backend only — the real backends' costs are the
// hardware's.
func WithCosts(c Costs) Option { return func(o *options) { o.costs = &c } }

// WithNet sets the simulated RDMA fabric parameters. Sim backend only.
func WithNet(p NetParams) Option { return func(o *options) { o.net = &p } }

// WithFault enables deterministic fault injection. Every backend
// accepts the knob classes it can model (see FaultConfig); a knob the
// backend cannot honour is rejected with an UnsupportedOptionError,
// never silently ignored.
func WithFault(fc FaultConfig) Option { return func(o *options) { o.fault = &fc } }

// WithObs toggles the structured observability recorder on ANY
// backend: virtual-time event rings and task lineage on sim,
// wall-clock per-worker rings on rt, segment-hosted per-rank rings on
// dist (harvested by the parent even after a worker crash). The
// Report's Obs block carries the event counts, per-worker ring
// overflow and latency histograms; combine with WithTrace for a
// Perfetto timeline. When off (the default) the real backends'
// recorders are nil and the instrumented hot paths cost one pointer
// compare per event site.
func WithObs(on bool) Option { return func(o *options) { o.obs = on } }

// WithTrace streams a Chrome/Perfetto trace of the run to w (implies
// WithObs(true)). The trace's top-level clockDomain field names the
// timestamp domain: virtual cycles on sim, wall nanoseconds on
// rt/dist. Works on every backend.
func WithTrace(w io.Writer) Option { return func(o *options) { o.trace = w } }

// WithMaxWall bounds a real backend's wall-clock run time (rt, dist);
// exceeding it aborts the run with an error instead of hanging. Zero
// keeps the backend default.
func WithMaxWall(d time.Duration) Option { return func(o *options) { o.maxWall = d } }

// GrainAuto selects adaptive granularity: each workload applies its
// default sequential cutoff only while the worker's own deque holds
// surplus work, collapsing to full task expansion when steal pressure
// drains it.
const GrainAuto = core.GrainAuto

// WithGrain sets the granularity-control cutoff passed to grain-aware
// workloads (every workload in internal/workloads honours it): 0 (the
// default) disables coalescing, GrainAuto adapts to observed steal
// demand, any other value is a static sequential cutoff. Coalescing
// changes task counts only — results and total Work cycles are
// preserved by construction. Works on every backend.
func WithGrain(g uint64) Option { return func(o *options) { o.grain = g } }

// WithStealBatch bounds how many deque entries one steal round trip may
// move on the real backends: 0 (the default) lets the deque's own
// claim bound apply (steal-half up to cap/4), 1 restores single-entry
// stealing, larger values clamp to the claim bound. Sim models
// single-entry steals only and rejects the option.
func WithStealBatch(n int) Option { return func(o *options) { o.stealBatch = n } }

// WithTierGroup sets the distance-tier width for victim selection on
// the real backends: workers whose rank falls in the same group of n
// are VERYNEAR, adjacent groups NEAR, and so on outward; thieves probe
// near tiers before far ones. 0 keeps the default group width. Sim's
// victim model is flat and rejects the option.
func WithTierGroup(n int) Option { return func(o *options) { o.tierGroup = n } }

// UnsupportedOptionError reports an option that the selected backend
// cannot honour — returned instead of silently ignoring the request,
// so a caller asking for fabric fault injection on rt learns the run
// would not have tested what they meant to test.
type UnsupportedOptionError struct {
	Backend string
	Option  string
}

func (e *UnsupportedOptionError) Error() string {
	return fmt.Sprintf("uniaddr: the %s backend cannot honour %s; drop the option or pick a backend that models it",
		e.Backend, e.Option)
}

// rejectFaultKnobs returns the UnsupportedOptionError for the first
// fault knob in fc that backend cannot honour, or nil. The per-class
// screens: sim rejects the real-backend steal and control-plane knobs,
// rt rejects fabric and control-plane knobs, dist rejects fabric knobs
// only.
func rejectFaultKnobs(backend string, fc *FaultConfig) error {
	if fc == nil {
		return nil
	}
	var bad []string
	switch backend {
	case BackendSim:
		bad = append(fc.PlanKnobs(), fc.CtlKnobs()...)
	case BackendRT:
		bad = append(fc.SimKnobs(), fc.CtlKnobs()...)
	case BackendDist:
		bad = fc.SimKnobs()
	}
	if len(bad) > 0 {
		return &UnsupportedOptionError{Backend: backend, Option: "WithFault." + bad[0]}
	}
	return nil
}

// Report is the unified result of a Run on any backend: the same shape
// whether the workers were simulated processes, goroutines or OS
// processes, so tooling can compare backends field by field.
type Report struct {
	Backend string `json:"backend"`
	Workers int    `json:"workers"`
	// Root is the root task's result.
	Root uint64 `json:"root_result"`

	// Wall-clock time of the run (real backends; 0 on sim, where no
	// wall time is meaningful).
	WallNS int64 `json:"wall_ns,omitempty"`
	// Virtual time of the run (sim; 0 on the real backends).
	VirtualCycles  uint64  `json:"virtual_cycles,omitempty"`
	VirtualSeconds float64 `json:"virtual_seconds,omitempty"`

	// Job and QueueNS are set only on Service per-job reports: the
	// job's service-wide ID and its submit→dispatch queueing latency.
	// Zero (and omitted from JSON) on Run reports.
	Job     uint64 `json:"job,omitempty"`
	QueueNS int64  `json:"queue_ns,omitempty"`

	Tasks         uint64 `json:"tasks_executed"`
	Spawns        uint64 `json:"spawns"`
	Suspends      uint64 `json:"suspends"`
	StealAttempts uint64 `json:"steal_attempts"`
	StealsOK      uint64 `json:"steals_ok"`
	// StealBatches counts successful steal ROUND TRIPS on the real
	// backends; StealsOK counts the entries they moved, so
	// StealsOK/StealBatches is the mean batch width. 0 on sim, whose
	// steal model is single-entry.
	StealBatches uint64 `json:"steal_batches,omitempty"`
	BytesStolen  uint64 `json:"bytes_stolen"`
	MaxStackUsed uint64 `json:"max_stack_used,omitempty"`

	// Failure counters (non-zero only under fault injection; populated
	// by every backend from its own resilience machinery).
	StealFaults      uint64 `json:"steal_faults,omitempty"`
	StealRetries     uint64 `json:"steal_retries,omitempty"`
	StealAbortsFault uint64 `json:"steal_aborts_fault,omitempty"`
	StealRollbacks   uint64 `json:"steal_rollbacks,omitempty"`
	VictimBlacklists uint64 `json:"victim_blacklists,omitempty"`

	// ObsEvents counts events the observability recorder captured
	// (WithObs(true), any backend). Kept for seed-era tooling; Obs has
	// the full breakdown.
	ObsEvents uint64 `json:"obs_events,omitempty"`

	// Obs is the observability digest when WithObs/WithTrace was set:
	// clock domain, event and ring-overflow accounting, and the latency
	// histograms. Nil when observability was off.
	Obs *ObsReport `json:"obs,omitempty"`
}

// ObsReport is the Report's observability digest.
type ObsReport struct {
	// Clock names the timestamp domain ("virtual-cycles" or "wall-ns").
	Clock string `json:"clock"`
	// Events counts events ever recorded (kept + dropped).
	Events uint64 `json:"events"`
	// Dropped counts events discarded by full bounded rings.
	Dropped uint64 `json:"dropped,omitempty"`
	// DroppedPerWorker is the per-rank ring-overflow count (index =
	// rank; omitted when no ring overflowed).
	DroppedPerWorker []uint64 `json:"dropped_per_worker,omitempty"`
	// Hists are the run's latency histograms in the report's clock unit.
	Hists []ObsHist `json:"hists,omitempty"`
}

// ObsHist is one latency histogram's digest.
type ObsHist struct {
	Name  string  `json:"name"`
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   uint64  `json:"p50"`
	P95   uint64  `json:"p95"`
	P99   uint64  `json:"p99"`
	Max   uint64  `json:"max"`
}

// finishObs folds an export into the report (digest + legacy ObsEvents)
// and writes the Chrome trace when requested. Nil ex is a no-op (obs
// was off); a non-nil trace writer with nil ex is an error — the caller
// asked for a trace the backend never recorded.
func finishObs(rep *Report, ex *obs.Export, trace io.Writer) error {
	if ex == nil {
		if trace != nil {
			return fmt.Errorf("uniaddr: WithTrace set but the run produced no observability data")
		}
		return nil
	}
	o := &ObsReport{Clock: ex.Clock, Events: ex.Events(), Dropped: ex.Dropped()}
	if o.Dropped > 0 {
		for _, l := range ex.Logs {
			o.DroppedPerWorker = append(o.DroppedPerWorker, l.Dropped)
		}
	}
	for _, nh := range ex.Hists {
		h := nh.Hist
		o.Hists = append(o.Hists, ObsHist{
			Name: nh.Name, Count: h.Count, Mean: h.Mean(),
			P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
			Max: h.Max,
		})
	}
	rep.Obs = o
	rep.ObsEvents = o.Events
	if trace != nil {
		opts := &obs.ChromeOpts{FuncName: func(id uint32) string { return core.FuncName(core.FuncID(id)) }}
		if err := obs.WriteChromeTraceExport(trace, ex, opts); err != nil {
			return fmt.Errorf("uniaddr: writing trace: %w", err)
		}
	}
	return nil
}

// Run executes a root task of fid with localsLen bytes of frame locals
// initialised by init, on the backend selected by the options (sim by
// default), and returns the unified Report.
//
// Before using WithBackend(BackendDist), the program's main (or
// TestMain) must call MaybeChild first: the dist backend re-execs the
// current binary for its worker processes.
func Run(fid FuncID, localsLen uint32, init func(*Env), opts ...Option) (Report, error) {
	o := options{backend: BackendSim, workers: 4, seed: 1}
	for _, opt := range opts {
		opt(&o)
	}
	if o.workers < 1 {
		return Report{}, fmt.Errorf("uniaddr: WithWorkers(%d): need at least one worker", o.workers)
	}
	if err := rejectFaultKnobs(o.backend, o.fault); err != nil {
		return Report{}, err
	}
	switch o.backend {
	case BackendSim:
		// Sim's steal model is single-entry and its victim order flat;
		// the real-backend steal-transport knobs are rejected, not
		// ignored (WithGrain is honoured — granularity is a workload
		// property, not a transport one).
		for _, bad := range []struct {
			set  bool
			name string
		}{
			{o.stealBatch != 0, "WithStealBatch"},
			{o.tierGroup != 0, "WithTierGroup"},
		} {
			if bad.set {
				return Report{}, &UnsupportedOptionError{Backend: o.backend, Option: bad.name}
			}
		}
		return runSim(o, fid, localsLen, init)
	case BackendRT, BackendDist:
		// Whole sim-only OPTIONS are rejected, not ignored: a run that
		// silently dropped the cost or fault model would report clean
		// results for an experiment that never happened. WithFault is
		// screened per knob above — the steal (rt, dist) and
		// control-plane (dist) knobs are honoured for real.
		for _, bad := range []struct {
			set  bool
			name string
		}{
			{o.costs != nil, "WithCosts"},
			{o.net != nil, "WithNet"},
		} {
			if bad.set {
				return Report{}, &UnsupportedOptionError{Backend: o.backend, Option: bad.name}
			}
		}
		if o.backend == BackendRT {
			return runRT(o, fid, localsLen, init)
		}
		return runDist(o, fid, localsLen, init)
	default:
		return Report{}, fmt.Errorf("uniaddr: unknown backend %q (WithBackend accepts %q, %q, %q)",
			o.backend, BackendSim, BackendRT, BackendDist)
	}
}

// MaybeChild routes a process that was re-exec'd as a dist worker into
// the worker entrypoint (it never returns in that case) and is a no-op
// otherwise. Any binary that may call Run with WithBackend(BackendDist)
// must call this FIRST in main / TestMain.
func MaybeChild() { dist.MaybeChild() }

func runSim(o options, fid FuncID, localsLen uint32, init func(*Env)) (Report, error) {
	cfg := core.DefaultConfig(o.workers)
	cfg.Seed = o.seed
	if o.costs != nil {
		cfg.Costs = *o.costs
	}
	if o.net != nil {
		cfg.Net = *o.net
	}
	if o.fault != nil {
		cfg.Fault = *o.fault
	}
	cfg.Grain = o.grain
	cfg.Obs = o.obs || o.trace != nil
	m, err := core.NewMachine(cfg)
	if err != nil {
		return Report{}, err
	}
	root, err := m.Run(fid, localsLen, init)
	if err != nil {
		return Report{}, err
	}
	if err := m.CheckQuiescence(); err != nil {
		return Report{}, err
	}
	ts := m.TotalStats()
	rep := Report{
		Backend: BackendSim, Workers: o.workers, Root: root,
		VirtualCycles: m.ElapsedCycles(), VirtualSeconds: m.ElapsedSeconds(),
		Tasks: ts.TasksExecuted, Spawns: ts.Spawns, Suspends: ts.Suspends,
		StealAttempts: ts.StealAttempts, StealsOK: ts.StealsOK,
		BytesStolen: ts.BytesStolen, MaxStackUsed: m.MaxStackUsage(),
		StealFaults: ts.StealFaults, StealRetries: ts.StealRetries,
		StealAbortsFault: ts.StealAbortsFault, StealRollbacks: ts.StealRollbacks,
		VictimBlacklists: ts.VictimBlacklists,
	}
	if err := finishObs(&rep, m.Obs().Export(), o.trace); err != nil {
		return Report{}, err
	}
	return rep, nil
}

// runRT executes a Run on the rt backend as sugar over a throwaway
// one-job Service: the persistent-pool machinery (job slot, tagged
// records, per-job quiescence) IS the single-run machinery now, just
// closed after one job. The Report stays byte-compatible — since the
// pool ran exactly this one job, its total counters are the job's.
func runRT(o options, fid FuncID, localsLen uint32, init func(*Env)) (Report, error) {
	maxWall := o.maxWall
	if maxWall == 0 {
		// Run keeps the single-run deadlock-guard default; only an
		// explicit Service is unbounded by default.
		maxWall = rt.DefaultConfig(o.workers).MaxWall
	}
	svcOpts := []ServiceOption{
		ServiceBackend(BackendRT), ServiceWorkers(o.workers), ServiceSeed(o.seed),
		ServiceObs(o.obs || o.trace != nil),
		ServiceStealBatch(o.stealBatch), ServiceTierGroup(o.tierGroup),
		ServiceMaxWall(maxWall), ServiceMaxJobs(1), ServiceQueueDepth(1),
	}
	if o.fault != nil {
		svcOpts = append(svcOpts, ServiceFault(*o.fault))
	}
	s, err := NewService(svcOpts...)
	if err != nil {
		return Report{}, err
	}
	job, err := s.Submit(context.Background(), fid, localsLen, init, JobGrain(o.grain))
	if err != nil {
		_ = s.Close()
		return Report{}, err
	}
	jrep, jerr := job.Wait()
	cerr := s.Close()
	if jerr != nil {
		return Report{}, jerr
	}
	if cerr != nil {
		return Report{}, cerr
	}
	rep := wallReport(BackendRT, o.workers, jrep.Root, jrep.WallNS, s.pool.TotalStats())
	if err := finishObs(&rep, s.pool.Obs().Export(), o.trace); err != nil {
		return Report{}, err
	}
	return rep, nil
}

// wallReport is a real backend's Report: both count with the shared
// engine's sched.WorkerStats.
func wallReport(backend string, workers int, root uint64, wallNS int64, ts sched.WorkerStats) Report {
	return Report{
		Backend: backend, Workers: workers, Root: root,
		WallNS: wallNS,
		Tasks:  ts.TasksExecuted, Spawns: ts.Spawns, Suspends: ts.Suspends,
		StealAttempts: ts.StealAttempts, StealsOK: ts.StealsOK,
		StealBatches: ts.StealBatches,
		BytesStolen:  ts.BytesStolen, MaxStackUsed: ts.MaxStackUsed,
		StealFaults: ts.StealFaults, StealRetries: ts.StealRetries,
		StealAbortsFault: ts.StealAbortsFault, StealRollbacks: ts.StealRollbacks,
		VictimBlacklists: ts.VictimBlacklists,
	}
}

func runDist(o options, fid FuncID, localsLen uint32, init func(*Env)) (Report, error) {
	cfg := dist.DefaultConfig(o.workers)
	cfg.Seed = o.seed
	cfg.Obs = o.obs || o.trace != nil
	cfg.Grain = o.grain
	cfg.StealBatch = o.stealBatch
	cfg.TierGroup = o.tierGroup
	if o.maxWall != 0 {
		cfg.MaxWall = o.maxWall
	}
	if o.fault != nil {
		cfg.Fault = *o.fault
	}
	res, err := dist.Run(cfg, fid, localsLen, init)
	if err != nil {
		// A failed run may still carry the harvested rings (crash
		// forensics); stream the trace if one was requested so the dead
		// rank's last events are not lost with the error.
		if o.trace != nil && res.Obs != nil {
			opts := &obs.ChromeOpts{FuncName: func(id uint32) string { return core.FuncName(core.FuncID(id)) }}
			_ = obs.WriteChromeTraceExport(o.trace, res.Obs, opts)
		}
		return Report{}, err
	}
	rep := wallReport(BackendDist, o.workers, res.Root, res.Elapsed.Nanoseconds(), res.TotalStats())
	if err := finishObs(&rep, res.Obs, o.trace); err != nil {
		return Report{}, err
	}
	return rep, nil
}
