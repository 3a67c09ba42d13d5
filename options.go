package uniaddr

import (
	"fmt"
	"io"
	"time"

	"uniaddr/internal/core"
	"uniaddr/internal/dist"
	"uniaddr/internal/fault"
	"uniaddr/internal/rt"
)

// Option configures Run, NewService or Submit. It is a value — a kind
// and its argument — so reading a list of options allocates nothing.
// Which entry point takes which option on which backend is one table
// (capabilities, mirrored in README's "Service" section); any other use
// is an UnsupportedOptionError naming the option, whatever its value.
type Option struct {
	kind optionKind
	num  uint64 // integer and duration arguments
	ref  any    // backend name, obs toggle, trace writer, *Costs, *NetParams, *FaultConfig
}

// ServiceOption and JobOption are the Options NewService and Submit
// take, under the names their callers spell.
type (
	ServiceOption = Option
	JobOption     = Option
)

// WithBackend selects the execution backend at Run and NewService:
// BackendSim (default), BackendRT or BackendDist.
func WithBackend(name string) Option { return Option{kind: optBackend, ref: name} }

// WithWorkers sets the worker count at Run and NewService: simulated
// processes (sim), goroutines (rt) or OS processes (dist). Default 4.
func WithWorkers(n int) Option { return Option{kind: optWorkers, num: uint64(n)} }

// WithSeed pins the seed driving every random scheduling decision. At
// Run and NewService it is the workers' (the rt pool's for its whole
// lifetime, the default of every sim/dist job); at Submit it is one
// sim or dist job's world. Equal seeds give bit-identical runs on the
// sim backend. Default 1.
func WithSeed(seed uint64) Option { return Option{kind: optSeed, num: seed} }

// WithCosts sets the simulated CPU cost profile (e.g. SPARCCosts,
// XeonCosts). Sim backend only — the real backends' costs are the
// hardware's.
func WithCosts(c Costs) Option { return Option{kind: optCosts, ref: &c} }

// WithNet sets the simulated RDMA fabric parameters. Sim backend only.
func WithNet(p NetParams) Option { return Option{kind: optNet, ref: &p} }

// WithFault enables deterministic fault injection at Run and
// NewService. Every backend accepts the knob classes it can model (see
// FaultConfig); a knob the backend cannot honour is rejected with an
// UnsupportedOptionError, never silently ignored.
func WithFault(fc FaultConfig) Option { return Option{kind: optFault, ref: &fc} }

// WithObs toggles the structured observability recorder on ANY
// backend, at Run and NewService: virtual-time event rings and task
// lineage on sim, wall-clock per-worker rings on rt (one for the whole
// pool, task events tagged with their job), segment-hosted per-rank
// rings on dist (harvested even after a worker crash). The Report's Obs
// block carries event counts, ring overflow and latency histograms;
// combine with WithTrace for a Perfetto timeline. Off by default, when
// the real backends' hot paths cost one pointer compare per event site.
func WithObs(on bool) Option { return Option{kind: optObs, ref: on} }

// WithTrace streams a Chrome/Perfetto trace to w (implies WithObs(true)).
// The trace's top-level clockDomain field names the timestamp domain:
// virtual cycles on sim, wall nanoseconds on rt/dist. At Run it traces
// the run; at NewService it is the rt pool's whole timeline, every job
// tagged, written at Close; at Submit it traces one sim or dist job,
// which runs in a world of its own.
func WithTrace(w io.Writer) Option { return Option{kind: optTrace, ref: w} }

// WithMaxWall bounds wall-clock time; exceeding it ends the work with
// an error instead of hanging. At Run it bounds the run (rt and dist;
// zero keeps the backend default, and sim has no wall clock). At
// NewService it bounds the rt pool's whole lifetime (0, the default, is
// unbounded): past it the pool fails every outstanding job with a
// timeout error. At Submit it bounds one job from DISPATCH — time in the
// admission queue never counts — and cancels it (JobCanceledError)
// without disturbing co-resident jobs; sim jobs ignore it.
func WithMaxWall(d time.Duration) Option { return Option{kind: optMaxWall, num: uint64(d)} }

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
// preserved by construction. A property of the task tree, so Run and
// Submit take it, on every backend; on the rt pool the grain travels
// with the job, and co-resident jobs run at different grains.
func WithGrain(g uint64) Option { return Option{kind: optGrain, num: g} }

// WithStealBatch bounds how many deque entries one steal round trip may
// move on the real backends: 0 (the default) lets the deque's own
// claim bound apply (steal-half up to cap/4), 1 restores single-entry
// stealing, larger values clamp to the claim bound. Sim models
// single-entry steals only and rejects the option.
func WithStealBatch(n int) Option { return Option{kind: optStealBatch, num: uint64(n)} }

// WithTierGroup sets the distance-tier width for victim selection on
// the real backends: workers whose rank falls in the same group of n
// are VERYNEAR, adjacent groups NEAR, and so on outward; thieves probe
// near tiers before far ones. 0 keeps the default group width. Sim's
// victim model is flat and rejects the option.
func WithTierGroup(n int) Option { return Option{kind: optTierGroup, num: uint64(n)} }

// ServiceMaxJobs bounds how many jobs a Service holds resident
// (dispatched, not yet finalized) at once. Default 2×workers, at least
// 8. Dist is pinned to 1 by its one-fixed-base-segment-per-process
// layout, so values above 1 are rejected there.
func ServiceMaxJobs(n int) Option { return Option{kind: optMaxJobs, num: uint64(n)} }

// ServiceQueueDepth bounds a Service's admission queue; Submit returns
// ErrServiceSaturated beyond it. Default max(MaxJobs, 16).
func ServiceQueueDepth(n int) Option { return Option{kind: optQueueDepth, num: uint64(n)} }

// JobWeight biases admission order on the rt pool: among queued jobs
// the dispatcher picks the lowest arrival-sequence/weight key, so equal
// weights are FIFO and a weight-w job is admitted as if it had arrived
// w times earlier. <= 0 means 1. Sim/dist admission is FIFO.
func JobWeight(w int) Option { return Option{kind: optWeight, num: uint64(w)} }

// ServiceBackend is WithBackend.
func ServiceBackend(name string) Option { return WithBackend(name) }

// ServiceWorkers is WithWorkers.
func ServiceWorkers(n int) Option { return WithWorkers(n) }

// ServiceSeed is WithSeed.
func ServiceSeed(seed uint64) Option { return WithSeed(seed) }

// JobMaxWall is WithMaxWall.
func JobMaxWall(d time.Duration) Option { return WithMaxWall(d) }

// optionKind indexes the capability table.
type optionKind uint8

const (
	optBackend optionKind = iota
	optWorkers
	optSeed
	optObs
	optTrace
	optMaxWall
	optGrain
	optStealBatch
	optTierGroup
	optCosts
	optNet
	optFault
	optMaxJobs
	optQueueDepth
	optWeight
)

// entry is an entry point that takes options.
type entry uint8

const (
	atRun entry = iota
	atNewService
	atSubmit
)

var entryNames = [...]string{" at Run", " at NewService", " at Submit"}

// backendSet is a set of backends; bit i is backends[i].
type backendSet uint8

const (
	onSim backendSet = 1 << iota
	onRT
	onDist
	onAll = onSim | onRT | onDist
)

// backends names each backend and the fault knob classes it models.
var backends = [...]struct {
	name   string
	faults fault.Class
}{
	{BackendSim, core.FaultClasses},
	{BackendRT, rt.FaultClasses},
	{BackendDist, dist.FaultClasses},
}

// scope is where an option applies: the backends each entry point
// (Run, NewService, Submit) honours it on.
type scope [3]backendSet

// capabilities is the one table of which backend honours which option
// at which entry point. WithFault is further screened per knob class
// (backends[i].faults), and ServiceMaxJobs is at most 1 on dist.
var capabilities = [...]struct {
	name string
	at   scope
}{
	optBackend:    {"WithBackend", scope{onAll, onAll, 0}},
	optWorkers:    {"WithWorkers", scope{onAll, onAll, 0}},
	optObs:        {"WithObs", scope{onAll, onAll, 0}},
	optSeed:       {"WithSeed", scope{onAll, onAll, onSim | onDist}},
	optTrace:      {"WithTrace", scope{onAll, onRT, onSim | onDist}},
	optMaxWall:    {"WithMaxWall", scope{onAll, onRT, onAll}},
	optGrain:      {"WithGrain", scope{onAll, 0, onAll}},
	optStealBatch: {"WithStealBatch", scope{onRT | onDist, onRT | onDist, 0}},
	optTierGroup:  {"WithTierGroup", scope{onRT | onDist, onRT | onDist, 0}},
	optCosts:      {"WithCosts", scope{onSim, onSim, 0}},
	optNet:        {"WithNet", scope{onSim, onSim, 0}},
	optFault:      {"WithFault", scope{onAll, onAll, 0}},
	optMaxJobs:    {"ServiceMaxJobs", scope{0, onAll, 0}},
	optQueueDepth: {"ServiceQueueDepth", scope{0, onAll, 0}},
	optWeight:     {"JobWeight", scope{0, 0, onAll}},
}

// options is the parsed state of one entry point's options.
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
	maxJobs    int
	queueDepth int
	weight     int
}

// defaultOptions is what Run and NewService start from.
func defaultOptions() options { return options{backend: BackendSim, workers: 4, seed: 1} }

// parse applies opts over o and rejects, by the capability table, any
// option entry point at does not take on o's backend.
func (o *options) parse(at entry, opts []Option) error {
	var given uint32
	for _, op := range opts {
		given |= 1 << op.kind
		switch op.kind {
		case optBackend:
			o.backend, _ = op.ref.(string)
		case optWorkers:
			o.workers = int(op.num)
		case optSeed:
			o.seed = op.num
		case optObs:
			o.obs, _ = op.ref.(bool)
		case optTrace:
			o.trace, _ = op.ref.(io.Writer)
		case optMaxWall:
			o.maxWall = time.Duration(op.num)
		case optGrain:
			o.grain = op.num
		case optStealBatch:
			o.stealBatch = int(op.num)
		case optTierGroup:
			o.tierGroup = int(op.num)
		case optCosts:
			o.costs, _ = op.ref.(*Costs)
		case optNet:
			o.net, _ = op.ref.(*NetParams)
		case optFault:
			o.fault, _ = op.ref.(*FaultConfig)
		case optMaxJobs:
			o.maxJobs = int(op.num)
		case optQueueDepth:
			o.queueDepth = int(op.num)
		case optWeight:
			o.weight = int(op.num)
		}
	}
	if o.workers < 1 {
		return fmt.Errorf("uniaddr: WithWorkers(%d): need at least one worker", o.workers)
	}
	b := 0
	for b < len(backends) && backends[b].name != o.backend {
		b++
	}
	if b == len(backends) {
		return fmt.Errorf("uniaddr: unknown backend %q (WithBackend accepts %q, %q, %q)",
			o.backend, BackendSim, BackendRT, BackendDist)
	}
	for k, c := range capabilities {
		if given&(1<<k) != 0 && c.at[at]&(1<<b) == 0 {
			return &UnsupportedOptionError{Backend: o.backend, Option: c.name, at: entryNames[at]}
		}
	}
	if given&(1<<optFault) != 0 && o.fault != nil {
		if ks := o.fault.KnobsOutside(backends[b].faults); len(ks) > 0 {
			return &UnsupportedOptionError{Backend: o.backend, Option: "WithFault." + ks[0]}
		}
	}
	return nil
}

// UnsupportedOptionError reports an option that the selected backend
// cannot honour where it was given — returned instead of silently
// ignoring the request, so a caller asking for fabric fault injection on
// rt learns the run would not have tested what they meant to test.
type UnsupportedOptionError struct {
	Backend string
	Option  string
	at      string // " at <entry point>" that refused the option; "" for a fault knob
}

func (e *UnsupportedOptionError) Error() string {
	return fmt.Sprintf("uniaddr: the %s backend cannot honour %s%s; drop the option, or see its doc for where it applies",
		e.Backend, e.Option, e.at)
}
