package uniaddr

import (
	"fmt"
	"io"

	"uniaddr/internal/core"
	"uniaddr/internal/dist"
	"uniaddr/internal/fault"
	"uniaddr/internal/obs"
	"uniaddr/internal/rt"
	"uniaddr/internal/sched"
)

// FaultConfig configures deterministic fault injection (an alias of
// the internal type, so values flow freely). The zero value disables
// injection entirely. Each backend honours the knob classes it can
// model, and setting any other knob returns an UnsupportedOptionError
// naming it:
//
//   - fabric knobs (ReadFailProb, WriteFailProb, FAAFailProb,
//     ServerDropProb, latency spikes, brownouts): sim only;
//   - steal knobs (StealClaimFailProb, StealCopyFailProb, steal
//     delays): rt and dist;
//   - control-plane knobs (CtlDropProb, CtlTruncProb, CtlDelayProb,
//     CtlDelay): dist only.
type FaultConfig = fault.Config

// Backend names accepted by WithBackend.
const (
	// BackendSim is the deterministic virtual-time cluster simulator —
	// the semantic oracle, and the only backend with simulated costs and
	// fabric models.
	BackendSim = "sim"
	// BackendRT runs real goroutines on real cores inside one process.
	BackendRT = "rt"
	// BackendDist runs one OS process per worker over a shared-memory
	// segment mapped at the same base VA everywhere; see MaybeChild.
	BackendDist = "dist"
)

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
	o := defaultOptions()
	if err := o.parse(atRun, opts); err != nil {
		return Report{}, err
	}
	return o.run(fid, localsLen, init)
}

// MaybeChild routes a process that was re-exec'd as a dist worker into
// the worker entrypoint (it never returns in that case) and is a no-op
// otherwise. Any binary that may call Run with WithBackend(BackendDist)
// must call this FIRST in main / TestMain.
func MaybeChild() { dist.MaybeChild() }

// run executes one root task through o's backend's one-shot entry point
// — the simulated Machine, rt.New(...).Run or dist.Run — for Run and for
// each job of a sim or dist Service.
func (o *options) run(fid FuncID, localsLen uint32, init func(*Env)) (Report, error) {
	switch o.backend {
	case BackendSim:
		return runSim(o, fid, localsLen, init)
	case BackendRT:
		return runRT(o, fid, localsLen, init)
	}
	return runDist(o, fid, localsLen, init)
}

func runSim(o *options, fid FuncID, localsLen uint32, init func(*Env)) (Report, error) {
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

// runRT runs a one-job rt pool (rt.New(...).Run). Its WallNS is the
// job's time from dispatch to completion; since the pool ran exactly
// this one job, its total counters are the job's.
func runRT(o *options, fid FuncID, localsLen uint32, init func(*Env)) (Report, error) {
	cfg := rt.DefaultConfig(o.workers)
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
	r := rt.New(cfg)
	root, err := r.Run(fid, localsLen, init)
	if err != nil {
		return Report{}, err
	}
	rep := wallReport(BackendRT, o.workers, root, r.Elapsed().Nanoseconds(), r.TotalStats())
	if err := finishObs(&rep, r.Obs().Export(), o.trace); err != nil {
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

func runDist(o *options, fid FuncID, localsLen uint32, init func(*Env)) (Report, error) {
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
