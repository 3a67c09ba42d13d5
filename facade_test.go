package uniaddr_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"testing"

	"uniaddr"
	"uniaddr/internal/workloads"
)

// TestMain routes re-exec'd dist worker processes into the worker
// entrypoint — required because tests below run the dist backend,
// which re-execs this test binary.
func TestMain(m *testing.M) {
	uniaddr.MaybeChild()
	os.Exit(m.Run())
}

// sumTo50 runs the facade's doubling task (uniaddr_test.go) for
// sum(1..50) on the given backend with default workers/seed.
func sumTo50(t *testing.T, opts ...uniaddr.Option) (uniaddr.Report, error) {
	t.Helper()
	return uniaddr.Run(dblFID, 3*8, func(e *uniaddr.Env) { e.SetU64(0, 50) }, opts...)
}

// TestFacadeOptionMatrix sweeps every backend against the obs and
// fault toggles. WithObs is honoured EVERYWHERE (virtual-time rings on
// sim, wall-clock rings on rt/dist); the sim-only knobs — cost models
// and fabric fault injection — must still be REJECTED by the real
// backends with a structured UnsupportedOptionError, never silently
// ignored.
func TestFacadeOptionMatrix(t *testing.T) {
	const want = uint64(50 * 51 / 2)
	fc := uniaddr.FaultConfig{ReadFailProb: 0.01} // fabric knob: sim only
	for _, backend := range []string{uniaddr.BackendSim, uniaddr.BackendRT, uniaddr.BackendDist} {
		for _, tc := range []struct {
			name    string
			simOnly bool
			extra   []uniaddr.Option
		}{
			{"plain", false, nil},
			{"obs", false, []uniaddr.Option{uniaddr.WithObs(true)}},
			{"costs", true, []uniaddr.Option{uniaddr.WithCosts(uniaddr.XeonCosts())}},
			{"net", true, []uniaddr.Option{uniaddr.WithNet(uniaddr.DefaultNetParams())}},
			{"fault", true, []uniaddr.Option{uniaddr.WithFault(fc)}},
			{"obs+fault", true, []uniaddr.Option{uniaddr.WithObs(true), uniaddr.WithFault(fc)}},
		} {
			t.Run(backend+"/"+tc.name, func(t *testing.T) {
				rejects := backend != uniaddr.BackendSim && tc.simOnly
				if backend == uniaddr.BackendDist && !rejects && testing.Short() {
					t.Skip("multi-process run skipped in -short mode")
				}
				opts := append([]uniaddr.Option{uniaddr.WithBackend(backend), uniaddr.WithWorkers(2)}, tc.extra...)
				rep, err := sumTo50(t, opts...)
				if rejects {
					var uo *uniaddr.UnsupportedOptionError
					if !errors.As(err, &uo) {
						t.Fatalf("got %T (%v), want *uniaddr.UnsupportedOptionError", err, err)
					}
					if uo.Backend != backend {
						t.Fatalf("error names backend %q, want %q", uo.Backend, backend)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				if rep.Root != want {
					t.Fatalf("root = %d, want %d", rep.Root, want)
				}
				if rep.Backend != backend {
					t.Fatalf("report backend %q, want %q", rep.Backend, backend)
				}
				if tc.name == "obs" || tc.name == "obs+fault" {
					if rep.Obs == nil {
						t.Fatal("WithObs(true) produced no Obs digest")
					}
					if rep.Obs.Events == 0 {
						t.Fatal("WithObs(true) recorded no events")
					}
					wantClock := "wall-ns"
					if backend == uniaddr.BackendSim {
						wantClock = "virtual-cycles"
					}
					if rep.Obs.Clock != wantClock {
						t.Fatalf("Obs clock %q, want %q", rep.Obs.Clock, wantClock)
					}
				} else if rep.Obs != nil {
					t.Fatal("Obs digest present with observability off")
				}
			})
		}
	}
}

// TestFacadeTrace drives WithTrace on every backend and checks each
// emits a self-describing Chrome trace: valid JSON, the backend's
// clock domain, and at least one steal-category event.
func TestFacadeTrace(t *testing.T) {
	for _, tc := range []struct {
		backend string
		clock   string
	}{
		{uniaddr.BackendSim, "virtual-cycles"},
		{uniaddr.BackendRT, "wall-ns"},
		{uniaddr.BackendDist, "wall-ns"},
	} {
		t.Run(tc.backend, func(t *testing.T) {
			if tc.backend == uniaddr.BackendDist && testing.Short() {
				t.Skip("multi-process run skipped in -short mode")
			}
			var buf bytes.Buffer
			rep, err := sumTo50(t,
				uniaddr.WithBackend(tc.backend), uniaddr.WithWorkers(2),
				uniaddr.WithTrace(&buf))
			if err != nil {
				t.Fatal(err)
			}
			// WithTrace implies WithObs.
			if rep.Obs == nil {
				t.Fatal("traced run produced no Obs digest")
			}
			var trace struct {
				ClockDomain string                   `json:"clockDomain"`
				TraceEvents []map[string]interface{} `json:"traceEvents"`
			}
			if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
				t.Fatalf("trace not valid JSON: %v", err)
			}
			if trace.ClockDomain != tc.clock {
				t.Fatalf("clockDomain %q, want %q", trace.ClockDomain, tc.clock)
			}
			if len(trace.TraceEvents) == 0 {
				t.Fatal("empty trace")
			}
		})
	}
}

// TestFacadeShimEquivalence pins the options entry point to the
// full-surface one: NewMachine(DefaultConfig(n)).Run(...) and Run(...,
// WithBackend(sim), WithWorkers(n), WithSeed(s)) must drive
// byte-identical simulations — same root, same counters, same virtual
// clock.
func TestFacadeShimEquivalence(t *testing.T) {
	const workers, seed = 6, uint64(7)
	cfg := uniaddr.DefaultConfig(workers)
	cfg.Seed = seed
	m, err := uniaddr.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	oldRoot, err := m.Run(dblFID, 3*8, func(e *uniaddr.Env) { e.SetU64(0, 50) })
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sumTo50(t, uniaddr.WithWorkers(workers), uniaddr.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Root != oldRoot {
		t.Fatalf("roots diverge: machine %d, options %d", oldRoot, rep.Root)
	}
	st := m.TotalStats()
	pairs := []struct {
		name     string
		old, new uint64
	}{
		{"tasks", st.TasksExecuted, rep.Tasks},
		{"spawns", st.Spawns, rep.Spawns},
		{"suspends", st.Suspends, rep.Suspends},
		{"steal_attempts", st.StealAttempts, rep.StealAttempts},
		{"steals_ok", st.StealsOK, rep.StealsOK},
		{"bytes_stolen", st.BytesStolen, rep.BytesStolen},
		{"virtual_cycles", m.ElapsedCycles(), rep.VirtualCycles},
	}
	for _, p := range pairs {
		if p.old != p.new {
			t.Errorf("%s diverges: machine %d, options %d", p.name, p.old, p.new)
		}
	}
}

// TestFacadeDistSmoke runs the dist backend through the public facade:
// real worker processes, cross-process steals, unified Report.
func TestFacadeDistSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process smoke test skipped in -short mode")
	}
	rep, err := sumTo50(t,
		uniaddr.WithBackend(uniaddr.BackendDist), uniaddr.WithWorkers(3), uniaddr.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(50 * 51 / 2); rep.Root != want {
		t.Fatalf("root = %d, want %d", rep.Root, want)
	}
	if rep.Backend != uniaddr.BackendDist || rep.Workers != 3 {
		t.Fatalf("report attribution: backend=%q workers=%d", rep.Backend, rep.Workers)
	}
	if rep.WallNS <= 0 {
		t.Fatalf("dist run reported wall time %d ns", rep.WallNS)
	}
	if rep.VirtualCycles != 0 {
		t.Fatal("dist run reported virtual time")
	}
}

// TestFacadeRTBackend runs the rt backend through the facade.
func TestFacadeRTBackend(t *testing.T) {
	rep, err := sumTo50(t, uniaddr.WithBackend(uniaddr.BackendRT), uniaddr.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(50 * 51 / 2); rep.Root != want {
		t.Fatalf("root = %d, want %d", rep.Root, want)
	}
	if rep.WallNS <= 0 {
		t.Fatalf("rt run reported wall time %d ns", rep.WallNS)
	}
}

// TestFacadeBadOptions pins the error surface: unknown backends and
// nonsense worker counts are descriptive errors, not panics.
func TestFacadeBadOptions(t *testing.T) {
	if _, err := sumTo50(t, uniaddr.WithBackend("quantum")); err == nil {
		t.Fatal("unknown backend accepted")
	}
	if _, err := sumTo50(t, uniaddr.WithWorkers(0)); err == nil {
		t.Fatal("0 workers accepted")
	}
}

// TestFacadeReportJSON pins the Report wire shape: canonical field
// names present, backend-irrelevant fields omitted.
func TestFacadeReportJSON(t *testing.T) {
	rep, err := sumTo50(t, uniaddr.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"backend", "workers", "root_result", "tasks_executed", "virtual_cycles"} {
		if _, ok := m[key]; !ok {
			t.Errorf("report JSON missing %q: %s", key, b)
		}
	}
	if _, ok := m["wall_ns"]; ok {
		t.Error("sim report carries wall_ns")
	}
}

// TestFacadeFaultKnobClasses pins the per-knob-class screening: each
// backend honours the fault knob classes it can model and rejects the
// rest with an UnsupportedOptionError NAMING the offending knob.
func TestFacadeFaultKnobClasses(t *testing.T) {
	const want = uint64(50 * 51 / 2)
	stealKnobs := uniaddr.FaultConfig{StealClaimFailProb: 0.05, StealCopyFailProb: 0.02}
	ctlKnobs := uniaddr.FaultConfig{CtlDropProb: 0.1}
	simKnobs := uniaddr.FaultConfig{ReadFailProb: 0.01}

	rejected := func(t *testing.T, backend string, fc uniaddr.FaultConfig, knob string) {
		t.Helper()
		_, err := sumTo50(t, uniaddr.WithBackend(backend), uniaddr.WithWorkers(2), uniaddr.WithFault(fc))
		var uo *uniaddr.UnsupportedOptionError
		if !errors.As(err, &uo) {
			t.Fatalf("%s + %s: got %T (%v), want *uniaddr.UnsupportedOptionError", backend, knob, err, err)
		}
		if uo.Option != "WithFault."+knob {
			t.Fatalf("%s: error names %q, want %q", backend, uo.Option, "WithFault."+knob)
		}
	}
	// Wrong-class knobs are rejected by name.
	rejected(t, uniaddr.BackendSim, stealKnobs, "StealClaimFailProb")
	rejected(t, uniaddr.BackendSim, ctlKnobs, "CtlDropProb")
	rejected(t, uniaddr.BackendRT, ctlKnobs, "CtlDropProb")
	rejected(t, uniaddr.BackendRT, simKnobs, "ReadFailProb")
	rejected(t, uniaddr.BackendDist, simKnobs, "ReadFailProb")

	// Right-class knobs run for real: rt honours steal faults and
	// reports the resilience counters through the unified Report.
	rep, err := sumTo50(t, uniaddr.WithBackend(uniaddr.BackendRT), uniaddr.WithWorkers(4), uniaddr.WithFault(stealKnobs))
	if err != nil {
		t.Fatalf("rt rejected its own steal knobs: %v", err)
	}
	if rep.Root != want {
		t.Fatalf("rt faulted run: root %d, want %d", rep.Root, want)
	}

	if testing.Short() {
		t.Skip("dist knob acceptance skipped in -short mode")
	}
	both := stealKnobs
	both.CtlDropProb = 0.1
	both.CtlTruncProb = 0.05
	rep, err = sumTo50(t, uniaddr.WithBackend(uniaddr.BackendDist), uniaddr.WithWorkers(2), uniaddr.WithFault(both))
	if err != nil {
		t.Fatalf("dist rejected steal+ctl knobs: %v", err)
	}
	if rep.Root != want {
		t.Fatalf("dist faulted run: root %d, want %d", rep.Root, want)
	}
}

// TestFacadeScalingKnobs covers the ISSUE-9 tuning surface: WithGrain
// works on every backend (granularity is a workload property), while
// the steal-transport knobs — WithStealBatch, WithTierGroup — are
// honoured by the real backends and rejected by sim, whose steal model
// is single-entry and whose victim order is flat.
func TestFacadeScalingKnobs(t *testing.T) {
	spec := workloads.Fib(16, 0)
	run := func(opts ...uniaddr.Option) (uniaddr.Report, error) {
		return uniaddr.Run(spec.Fid, spec.Locals, spec.Init, opts...)
	}

	for _, backend := range []string{uniaddr.BackendSim, uniaddr.BackendRT} {
		for _, grain := range []uint64{4, uniaddr.GrainAuto} {
			rep, err := run(uniaddr.WithBackend(backend), uniaddr.WithWorkers(2), uniaddr.WithGrain(grain))
			if err != nil {
				t.Fatalf("%s grain=%d: %v", backend, grain, err)
			}
			if rep.Root != spec.Expected {
				t.Fatalf("%s grain=%d: root %d, want %d", backend, grain, rep.Root, spec.Expected)
			}
		}
	}

	// Real backend honours the transport knobs; single-entry mode must
	// keep every batch at width 1.
	rep, err := run(uniaddr.WithBackend(uniaddr.BackendRT), uniaddr.WithWorkers(4),
		uniaddr.WithStealBatch(1), uniaddr.WithTierGroup(2))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Root != spec.Expected {
		t.Fatalf("rt batch=1: root %d, want %d", rep.Root, spec.Expected)
	}
	if rep.StealBatches != rep.StealsOK {
		t.Fatalf("WithStealBatch(1) moved %d entries in %d round trips — batching not bounded",
			rep.StealsOK, rep.StealBatches)
	}

	// Sim rejects them with the structured error.
	for _, opt := range []uniaddr.Option{uniaddr.WithStealBatch(1), uniaddr.WithTierGroup(2)} {
		var uo *uniaddr.UnsupportedOptionError
		if _, err := run(uniaddr.WithBackend(uniaddr.BackendSim), opt); !errors.As(err, &uo) {
			t.Fatalf("sim accepted a steal-transport knob (err=%v)", err)
		}
	}
}
