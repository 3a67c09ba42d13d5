package fault

import (
	"testing"
	"time"
)

func planCfg() Config {
	return Config{
		Seed:               42,
		StealClaimFailProb: 0.1,
		StealCopyFailProb:  0.05,
		StealDelayProb:     0.2,
		StealDelayMin:      10 * time.Microsecond,
		StealDelayMax:      100 * time.Microsecond,
		CtlDropProb:        0.2,
		CtlTruncProb:       0.1,
		CtlDelayProb:       0.1,
		CtlDelay:           time.Millisecond,
	}
}

func TestPlanNilWhenDisabled(t *testing.T) {
	p, err := NewPlan(Config{Seed: 7, ReadFailProb: 0.5}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p != nil {
		t.Fatalf("sim-only knobs built a plan: %+v", p)
	}
	// CtlSend on a nil plan must be the safe no-op fast path.
	if dec := p.CtlSend(1); dec != (CtlDecision{}) {
		t.Fatalf("nil plan CtlSend = %+v, want zero", dec)
	}
}

func TestPlanValidates(t *testing.T) {
	bad := []Config{
		{StealClaimFailProb: 1.5},
		{StealCopyFailProb: -0.1},
		{StealDelayProb: 0.1, StealDelayMin: -time.Second},
		{StealDelayProb: 0.1, StealDelayMin: time.Second, StealDelayMax: time.Millisecond},
		{CtlDropProb: 2},
		{CtlDelayProb: 0.1, CtlDelay: -time.Second},
	}
	for i, cfg := range bad {
		if _, err := NewPlan(cfg, 4); err == nil {
			t.Errorf("case %d: config %+v accepted, want error", i, cfg)
		}
	}
	if _, err := NewPlan(planCfg(), 0); err == nil {
		t.Error("0 workers accepted")
	}
}

// Determinism: the per-edge decision SEQUENCE is a pure function of
// (seed, op, thief, victim) — two plans with the same seed agree on
// every draw regardless of the interleaving of other edges.
func TestPlanDeterministicPerEdge(t *testing.T) {
	a, _ := NewPlan(planCfg(), 4)
	b, _ := NewPlan(planCfg(), 4)
	// Perturb b's other edges first: edge (1→2) draws must not shift.
	for i := 0; i < 100; i++ {
		b.StealClaim(2, 3)
		b.StealCopy(3, 0)
		b.CtlSend(1)
	}
	for i := 0; i < 500; i++ {
		as, af := a.StealClaim(1, 2)
		bs, bf := b.StealClaim(1, 2)
		if as != bs || af != bf {
			t.Fatalf("draw %d: plan a (%v,%v) != plan b (%v,%v)", i, as, af, bs, bf)
		}
	}
}

func TestPlanSeedChangesSchedule(t *testing.T) {
	cfg2 := planCfg()
	cfg2.Seed = 43
	a, _ := NewPlan(planCfg(), 4)
	b, _ := NewPlan(cfg2, 4)
	same := 0
	const n = 1000
	for i := 0; i < n; i++ {
		_, af := a.StealClaim(1, 2)
		_, bf := b.StealClaim(1, 2)
		if af == bf {
			same++
		}
	}
	if same == n {
		t.Fatal("seeds 42 and 43 produced identical fault schedules")
	}
}

func TestPlanRatesRoughlyHonoured(t *testing.T) {
	p, _ := NewPlan(planCfg(), 4)
	const n = 20000
	fails, delays := 0, 0
	for i := 0; i < n; i++ {
		stall, fail := p.StealClaim(0, 1)
		if fail {
			fails++
		}
		if stall > 0 {
			delays++
			if stall < 10*time.Microsecond || stall > 100*time.Microsecond {
				t.Fatalf("draw %d: stall %v outside [10µs, 100µs]", i, stall)
			}
		}
	}
	if got := float64(fails) / n; got < 0.07 || got > 0.13 {
		t.Errorf("claim-fail rate %.3f, want ≈0.1", got)
	}
	if got := float64(delays) / n; got < 0.15 || got > 0.25 {
		t.Errorf("delay rate %.3f, want ≈0.2", got)
	}
	st := p.Stats()
	if st.Decisions != n || st.Faults != uint64(fails) || st.Delays != uint64(delays) {
		t.Errorf("stats %+v disagree with observed fails=%d delays=%d", st, fails, delays)
	}
}

func TestPlanCtlDecisions(t *testing.T) {
	p, _ := NewPlan(planCfg(), 4)
	const n = 20000
	drops, truncs, delays := 0, 0, 0
	for i := 0; i < n; i++ {
		dec := p.CtlSend(1)
		if dec.Drop && dec.Trunc {
			t.Fatal("drop and trunc both set on one decision")
		}
		if dec.Drop {
			drops++
		}
		if dec.Trunc {
			truncs++
		}
		if dec.Delay > 0 {
			delays++
			if dec.Delay != time.Millisecond {
				t.Fatalf("ctl delay %v, want 1ms", dec.Delay)
			}
		}
	}
	if got := float64(truncs) / n; got < 0.07 || got > 0.13 {
		t.Errorf("trunc rate %.3f, want ≈0.1", got)
	}
	// Drop draws are independent of trunc; observed drop rate is
	// (1-trunc)*0.2 ≈ 0.18.
	if got := float64(drops) / n; got < 0.14 || got > 0.22 {
		t.Errorf("drop rate %.3f, want ≈0.18", got)
	}
	_ = delays
}

func TestKnobClassification(t *testing.T) {
	cfg := planCfg()
	cfg.ReadFailProb = 0.01
	cfg.SpikeProb = 0.01
	cfg.SpikeMinCycles = 1
	cfg.SpikeMaxCycles = 2
	sim, plan, ctl := cfg.KnobsOutside(Steal|Control), cfg.KnobsOutside(Fabric|Control), cfg.KnobsOutside(Fabric|Steal)
	want := func(list []string, name string) {
		for _, k := range list {
			if k == name {
				return
			}
		}
		t.Errorf("knob %s missing from %v", name, list)
	}
	want(sim, "ReadFailProb")
	want(sim, "SpikeProb")
	want(plan, "StealClaimFailProb")
	want(plan, "StealDelayProb")
	want(ctl, "CtlDropProb")
	want(ctl, "CtlDelay")
	if len(sim) != 4 || len(plan) != 5 || len(ctl) != 4 {
		t.Errorf("knob counts sim=%d plan=%d ctl=%d: %v %v %v", len(sim), len(plan), len(ctl), sim, plan, ctl)
	}
	var zero Config
	if zero.PlanEnabled() || zero.CtlEnabled() {
		t.Error("zero config reports enabled")
	}
	if !cfg.PlanEnabled() || !cfg.CtlEnabled() {
		t.Error("configured plan/ctl knobs report disabled")
	}
}
