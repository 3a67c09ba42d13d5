// Package fault provides deterministic fault injection for every
// backend. Two mechanisms share one Config:
//
//   - Injector (this file) implements rdma.Injector for the simulated
//     fabric: the sequential simulation engine consults it in a
//     globally deterministic order, so one seeded RNG stream suffices.
//     All injected delays are virtual time.
//   - Plan (plan.go) is the backend-neutral schedule for the REAL
//     backends (rt, dist), where no global consultation order exists:
//     every decision is a pure hash of (seed, op kind, actor, victim,
//     per-edge sequence number), so each edge sees a deterministic
//     fault sequence regardless of thread or process interleaving.
//     Injected delays are wall-clock.
//
// Both share the fail-before-effect model (see internal/rdma/inject.go
// and sched.StealInjector): a failed op had no effect on the target,
// which is what makes the runtime's retry policies sound. The one
// deliberate exception is the Plan's steal-copy fault, which fires
// AFTER the bytes moved — forcing the THE rollback path rather than a
// plain retry.
package fault

import (
	"fmt"
	"time"

	"uniaddr/internal/rdma"
	"uniaddr/internal/sim"
)

// Config are the injector knobs. The zero value disables injection
// entirely (Enabled() == false) and costs nothing.
type Config struct {
	// Seed seeds the injector's private RNG stream. Zero lets the
	// machine derive one from its simulation seed, so fault patterns
	// follow the run seed unless pinned explicitly.
	Seed uint64

	// Per-op failure probabilities in [0, 1): a failed READ/WRITE
	// completes after its model latency with no remote effect; a failed
	// hardware FAA is not applied.
	ReadFailProb  float64
	WriteFailProb float64
	FAAFailProb   float64

	// ServerDropProb drops the request notice of a software
	// fetch-and-add before it reaches the comm server; the initiator
	// times out (rdma.Params.FAATimeout) and must retry.
	ServerDropProb float64

	// Latency-spike distribution: with probability SpikeProb an op's
	// latency grows by a uniform draw from [SpikeMinCycles,
	// SpikeMaxCycles].
	SpikeProb      float64
	SpikeMinCycles uint64
	SpikeMaxCycles uint64

	// Endpoint brown-out windows: every BrownoutPeriod cycles each
	// endpoint goes dark for BrownoutDuration cycles — every remote op
	// *targeting* it fails while the window is open. Windows are
	// staggered per endpoint (a deterministic hash of Seed and rank), so
	// at most a few endpoints are dark at once. BrownoutDuration 0
	// disables; BrownoutPeriod 0 defaults to 8× the duration.
	BrownoutPeriod   uint64
	BrownoutDuration uint64

	// --- Backend-neutral steal knobs (rt + dist; see Plan) ------------

	// Per-phase steal failure probabilities in [0, 1), evaluated by a
	// deterministic per-seed Plan on the real backends. A claim failure
	// is fail-before-effect (the lost op never reached the victim's
	// deque, so a retry is sound); a copy failure fires after the frame
	// bytes transferred, forcing the thief through the THE rollback
	// (sched.Deque.StealAbort) so the victim keeps the thread.
	StealClaimFailProb float64
	StealCopyFailProb  float64

	// Wall-clock latency spikes on real-backend steals: with
	// probability StealDelayProb a steal phase stalls for a uniform
	// draw from [StealDelayMin, StealDelayMax] — the wall-clock
	// analogue of SpikeProb. A copy-phase stall holds the victim's
	// deque lock, which is exactly the ODP-page-fault-style stall the
	// THE protocol must tolerate.
	StealDelayProb float64
	StealDelayMin  time.Duration
	StealDelayMax  time.Duration

	// --- dist control-plane knobs -------------------------------------

	// Applied per control-plane message (hello/start/bye/ack) on the
	// dist backend. CtlDropProb silently discards the message (the peer
	// must time out and retry); CtlTruncProb writes a prefix of the
	// bytes and severs the connection; CtlDelayProb stalls the send by
	// CtlDelay first. Retries re-draw, so any positive success
	// probability converges in bounded attempts.
	CtlDropProb  float64
	CtlTruncProb float64
	CtlDelayProb float64
	CtlDelay     time.Duration
}

// Enabled reports whether any SIM knob is set; a disabled Config must
// not be attached to a fabric (the nil injector fast path is free).
// The real-backend classes have their own predicates (PlanEnabled,
// CtlEnabled).
func (c Config) Enabled() bool {
	return c.ReadFailProb > 0 || c.WriteFailProb > 0 || c.FAAFailProb > 0 ||
		c.ServerDropProb > 0 || c.SpikeProb > 0 || c.BrownoutDuration > 0
}

// PlanEnabled reports whether any backend-neutral steal knob is set —
// the class of faults a Plan injects into the rt and dist steal paths.
func (c Config) PlanEnabled() bool {
	return c.StealClaimFailProb > 0 || c.StealCopyFailProb > 0 || c.StealDelayProb > 0
}

// CtlEnabled reports whether any dist control-plane knob is set.
func (c Config) CtlEnabled() bool {
	return c.CtlDropProb > 0 || c.CtlTruncProb > 0 || c.CtlDelayProb > 0
}

// Class is a set of knob classes: which machinery a knob drives, and so
// which backends can honour it. Each backend names the classes it models
// once (core.FaultClasses, rt.FaultClasses, dist.FaultClasses).
type Class uint8

const (
	// Fabric knobs fail or delay simulated RDMA operations: sim only.
	Fabric Class = 1 << iota
	// Steal knobs drive the Plan on the real backends' steal path.
	Steal
	// Control knobs fail dist control-plane messages.
	Control
)

// KnobsOutside returns, in declaration order, the names of the set knobs
// whose class is not in classes: what a backend modelling only those
// classes cannot honour. The facade and the chaos matrix reject these by
// name instead of refusing a whole Config.
func (c Config) KnobsOutside(classes Class) []string {
	var out []string
	for _, k := range []struct {
		name  string
		class Class
		set   bool
	}{
		{"ReadFailProb", Fabric, c.ReadFailProb != 0},
		{"WriteFailProb", Fabric, c.WriteFailProb != 0},
		{"FAAFailProb", Fabric, c.FAAFailProb != 0},
		{"ServerDropProb", Fabric, c.ServerDropProb != 0},
		{"SpikeProb", Fabric, c.SpikeProb != 0},
		{"SpikeMinCycles", Fabric, c.SpikeMinCycles != 0},
		{"SpikeMaxCycles", Fabric, c.SpikeMaxCycles != 0},
		{"BrownoutPeriod", Fabric, c.BrownoutPeriod != 0},
		{"BrownoutDuration", Fabric, c.BrownoutDuration != 0},
		{"StealClaimFailProb", Steal, c.StealClaimFailProb != 0},
		{"StealCopyFailProb", Steal, c.StealCopyFailProb != 0},
		{"StealDelayProb", Steal, c.StealDelayProb != 0},
		{"StealDelayMin", Steal, c.StealDelayMin != 0},
		{"StealDelayMax", Steal, c.StealDelayMax != 0},
		{"CtlDropProb", Control, c.CtlDropProb != 0},
		{"CtlTruncProb", Control, c.CtlTruncProb != 0},
		{"CtlDelayProb", Control, c.CtlDelayProb != 0},
		{"CtlDelay", Control, c.CtlDelay != 0},
	} {
		if k.set && k.class&classes == 0 {
			out = append(out, k.name)
		}
	}
	return out
}

// Validate rejects out-of-range knobs.
func (c Config) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"ReadFailProb", c.ReadFailProb},
		{"WriteFailProb", c.WriteFailProb},
		{"FAAFailProb", c.FAAFailProb},
		{"ServerDropProb", c.ServerDropProb},
		{"SpikeProb", c.SpikeProb},
		{"StealClaimFailProb", c.StealClaimFailProb},
		{"StealCopyFailProb", c.StealCopyFailProb},
		{"StealDelayProb", c.StealDelayProb},
		{"CtlDropProb", c.CtlDropProb},
		{"CtlTruncProb", c.CtlTruncProb},
		{"CtlDelayProb", c.CtlDelayProb},
	} {
		if p.v < 0 || p.v >= 1 {
			return fmt.Errorf("fault: %s %v outside [0, 1)", p.name, p.v)
		}
	}
	if c.SpikeMaxCycles < c.SpikeMinCycles {
		return fmt.Errorf("fault: SpikeMaxCycles %d < SpikeMinCycles %d", c.SpikeMaxCycles, c.SpikeMinCycles)
	}
	if c.BrownoutDuration > 0 && c.BrownoutPeriod > 0 && c.BrownoutDuration >= c.BrownoutPeriod {
		return fmt.Errorf("fault: BrownoutDuration %d >= BrownoutPeriod %d", c.BrownoutDuration, c.BrownoutPeriod)
	}
	if c.StealDelayMin < 0 || c.StealDelayMax < c.StealDelayMin {
		return fmt.Errorf("fault: steal delay range [%v, %v] invalid", c.StealDelayMin, c.StealDelayMax)
	}
	if c.CtlDelay < 0 {
		return fmt.Errorf("fault: CtlDelay %v negative", c.CtlDelay)
	}
	return nil
}

// Stats counts the injector's decisions.
type Stats struct {
	Decisions   uint64 // remote ops consulted
	Faults      uint64 // ops failed (probability draws)
	Brownouts   uint64 // ops failed because the target was browned out
	NoticeDrops uint64 // software-FAA request notices dropped
	Spikes      uint64 // ops delayed
	SpikeCycles uint64 // total injected delay
}

// Injector is a seeded, sim-clock-driven rdma.Injector.
type Injector struct {
	cfg    Config
	rng    sim.RNG
	period uint64
	stats  Stats
}

// New builds an injector from cfg (which must be Enabled and valid).
func New(cfg Config) (*Injector, error) {
	if !cfg.Enabled() {
		return nil, fmt.Errorf("fault: config has no fault source enabled")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	period := cfg.BrownoutPeriod
	if cfg.BrownoutDuration > 0 && period == 0 {
		period = 8 * cfg.BrownoutDuration
	}
	return &Injector{cfg: cfg, rng: sim.NewRNG(cfg.Seed), period: period}, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config) *Injector {
	in, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return in
}

// Config returns the injector's configuration.
func (in *Injector) Config() Config { return in.cfg }

// Stats returns a snapshot of the decision counters.
func (in *Injector) Stats() Stats { return in.stats }

// splitmix64 is the stateless mixer used to stagger brown-out phases.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// brownedOut reports whether target's endpoint is inside its brown-out
// window at virtual time now. Pure function of (seed, target, now) —
// no RNG stream is consumed, so brown-outs do not shift the per-op
// probability draws.
func (in *Injector) brownedOut(target int, now uint64) bool {
	if in.cfg.BrownoutDuration == 0 {
		return false
	}
	phase := splitmix64(in.cfg.Seed^uint64(target)*0x2545f4914f6cdd1d) % in.period
	return (now+phase)%in.period < in.cfg.BrownoutDuration
}

// Decide implements rdma.Injector.
func (in *Injector) Decide(op rdma.OpKind, from, target, bytes int, now uint64) (uint64, bool) {
	in.stats.Decisions++
	var extra uint64
	if in.cfg.SpikeProb > 0 && in.rng.Float64() < in.cfg.SpikeProb {
		span := in.cfg.SpikeMaxCycles - in.cfg.SpikeMinCycles
		extra = in.cfg.SpikeMinCycles
		if span > 0 {
			extra += in.rng.Uint64() % (span + 1)
		}
		in.stats.Spikes++
		in.stats.SpikeCycles += extra
	}
	if in.brownedOut(target, now) {
		in.stats.Brownouts++
		return extra, true
	}
	var p float64
	switch op {
	case rdma.OpRead:
		p = in.cfg.ReadFailProb
	case rdma.OpWrite:
		p = in.cfg.WriteFailProb
	case rdma.OpFAA:
		p = in.cfg.FAAFailProb
	case rdma.OpNotice:
		p = in.cfg.ServerDropProb
	}
	if p > 0 && in.rng.Float64() < p {
		if op == rdma.OpNotice {
			in.stats.NoticeDrops++
		} else {
			in.stats.Faults++
		}
		return extra, true
	}
	return extra, false
}

var _ rdma.Injector = (*Injector)(nil)
