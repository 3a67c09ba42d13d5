package harness

import (
	"bytes"
	"strings"
	"testing"

	"uniaddr/internal/core"
	"uniaddr/internal/fault"
	"uniaddr/internal/workloads"
)

// TestChaosSweepTiny runs the full chaos gate at the tiny scale: every
// workload × rate point must return the sequential reference, pass
// quiescence and replay bit-identically (ChaosSweep errors otherwise).
func TestChaosSweepTiny(t *testing.T) {
	pts, err := ChaosSweepObserved(8, ChaosWorkloads("tiny"), DefaultChaosRates, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * len(DefaultChaosRates); len(pts) != want {
		t.Fatalf("%d points, want %d", len(pts), want)
	}
	faulted := false
	for _, p := range pts {
		if !p.Deterministic {
			t.Errorf("%s rate %g: not deterministic", p.Workload, p.Rate)
		}
		if p.Rate == 0 && p.InjectedFaults+p.StealFaults+p.FAATimeouts != 0 {
			t.Errorf("%s rate 0: spurious faults (%d/%d/%d)",
				p.Workload, p.InjectedFaults, p.StealFaults, p.FAATimeouts)
		}
		if p.InjectedFaults > 0 {
			faulted = true
		}
	}
	if !faulted {
		t.Error("no point injected any fault — the sweep tests nothing")
	}
	var buf bytes.Buffer
	PrintChaos(&buf, 8, pts)
	if !strings.Contains(buf.String(), "Chaos sweep") {
		t.Error("render missing header")
	}
}

// TestChaosFibEverySource is the headline robustness criterion at a size
// tier-1 and -short can afford: fib(25) on 8 workers at a 1% fault rate
// is the smallest fib whose (deterministic) run trips EVERY fault source
// the sweep reports — lost steal ops with their retries, a transfer
// rollback, an abandoned steal, a victim ban, fabric faults behind the
// reliable ops' retries, and a software-FAA timeout. It must complete
// with the correct result, pass the quiescence check after recovery, and
// replay to an identical trace. The paper-scale fib(30) run (ten times
// the work, the same sources) is the chaos-smoke CI job's.
func TestChaosFibEverySource(t *testing.T) {
	// A deterministic simulator run — virtual time, its own Machine — so it
	// can share the host with its like.
	t.Parallel()
	pts, err := ChaosSweepObserved(8, []workloads.Spec{workloads.Fib(25, 0)}, []float64{0.01}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := pts[0]
	if !p.Deterministic {
		t.Error("replay diverged")
	}
	for name, n := range map[string]uint64{
		"StealFaults": p.StealFaults, "StealRetries": p.StealRetries, "StealRollbacks": p.StealRollbacks,
		"StealAbortsFault": p.StealAbortsFault, "VictimBlacklists": p.VictimBlacklists,
		"InjectedFaults": p.InjectedFaults, "NetRetries": p.NetRetries, "FAATimeouts": p.FAATimeouts,
	} {
		if n == 0 {
			t.Errorf("rate 0.01 left %s at 0 — the run no longer exercises that recovery path: %+v", name, p)
		}
	}
}

// TestChaosFaultConfigScaling pins the knob derivation.
func TestChaosFaultConfigScaling(t *testing.T) {
	if ChaosFaultConfig(0).Enabled() {
		t.Error("rate 0 produced an enabled config")
	}
	c := ChaosFaultConfig(0.01)
	if !c.Enabled() || c.Validate() != nil {
		t.Fatalf("rate 0.01 config unusable: %+v", c)
	}
	if c.BrownoutDuration != 40_000 {
		t.Errorf("brownout duration %d, want rate-sized 40000", c.BrownoutDuration)
	}
}

// TestChaosMatrixRT is the acceptance matrix on the in-process real
// backend: 4 schedules × 3 tiny workloads × 3 seeds = 36 cells, every
// one ending in the oracle result (or a typed error) within its
// deadline. Runs un-gated — with -race in CI this doubles as the rt
// deque steal-fault stress.
func TestChaosMatrixRT(t *testing.T) {
	seeds := []uint64{1, 2, 3}
	cells, failed := RunChaosMatrix(RTChaosBackend(), 8, seeds, RTChaosSchedules(), "tiny")
	if failed > 0 {
		for _, c := range cells {
			if !c.Pass {
				t.Errorf("%s/%s/%s seed=%d: %s (%s)", c.Backend, c.Schedule, c.Workload, c.Seed, c.Outcome, c.Err)
			}
		}
	}
	ran := 0
	for _, c := range cells {
		if c.Outcome != "skipped" {
			ran++
		}
	}
	if want := len(RTChaosSchedules()) * 3 * len(seeds); ran != want {
		t.Fatalf("%d cells ran, want %d", ran, want)
	}
}

// TestChaosMatrixSim runs the same matrix machinery against the sim —
// the generalisation gate for satellite 4: one runner, three backends.
func TestChaosMatrixSim(t *testing.T) {
	cells, failed := RunChaosMatrix(SimChaosBackend(), 8, []uint64{1, 2}, SimChaosSchedules(), "tiny")
	if failed > 0 {
		for _, c := range cells {
			if !c.Pass {
				t.Errorf("%s/%s/%s seed=%d: %s (%s)", c.Backend, c.Schedule, c.Workload, c.Seed, c.Outcome, c.Err)
			}
		}
	}
}

// TestChaosMatrixDist is the full robustness gate on the multi-process
// backend: steal faults, control-plane socket faults, SIGKILLs (single
// and double) and the hung-worker heartbeat cell. Multi-process and
// minutes-long, so skipped under -short.
func TestChaosMatrixDist(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process chaos matrix skipped in -short mode")
	}
	cells, failed := RunChaosMatrix(DistChaosBackend(), 4, []uint64{1}, DistChaosSchedules(), "tiny")
	if failed > 0 {
		for _, c := range cells {
			if !c.Pass {
				t.Errorf("%s/%s/%s seed=%d: %s (%s)", c.Backend, c.Schedule, c.Workload, c.Seed, c.Outcome, c.Err)
			}
		}
	}
	// The schedule-specific postconditions (crash beats watchdog, hang
	// bounded) live in distChaosCheck; here just require that the
	// injection cells actually ran.
	byName := map[string]int{}
	for _, c := range cells {
		if c.Outcome != "skipped" {
			byName[c.Schedule]++
		}
	}
	for _, name := range []string{"ctl-faults", "kill-rank1", "double-kill", "hang-rank1"} {
		if byName[name] == 0 {
			t.Errorf("schedule %s ran no cells", name)
		}
	}
	var buf bytes.Buffer
	PrintChaosMatrix(&buf, cells, failed)
	if !strings.Contains(buf.String(), "Chaos matrix") {
		t.Error("matrix render missing header")
	}
}

// TestChaosMatrixRejectsMismatchedKnobs pins the Supports gates: sim
// knobs never reach rt/dist, plan/ctl knobs never reach sim.
func TestChaosMatrixRejectsMismatchedKnobs(t *testing.T) {
	simSch := ChaosSchedule{Name: "sim-knobs", Fault: ChaosFaultConfig(0.01)}
	planSch := ChaosSchedule{Name: "plan-knobs", Fault: fault.Config{StealClaimFailProb: 0.1}}
	killSch := ChaosSchedule{Name: "kill", Kill: []int{1}}
	if RTChaosBackend().Supports(simSch) == "" {
		t.Error("rt accepted sim-only knobs")
	}
	if RTChaosBackend().Supports(killSch) == "" {
		t.Error("rt accepted kill injection")
	}
	if SimChaosBackend().Supports(planSch) == "" {
		t.Error("sim accepted real-backend steal knobs")
	}
	if SimChaosBackend().Supports(killSch) == "" {
		t.Error("sim accepted kill injection")
	}
	if DistChaosBackend().Supports(simSch) == "" {
		t.Error("dist accepted sim-only knobs")
	}
	if DistChaosBackend().Supports(planSch) != "" {
		t.Error("dist rejected its own steal knobs")
	}
}

// TestChaosJSONReportCounters checks that a faulted run surfaces its
// failure counters through the JSON report.
func TestChaosJSONReportCounters(t *testing.T) {
	cfg := core.DefaultConfig(8)
	cfg.Seed = 3
	cfg.Fault = ChaosFaultConfig(0.05)
	spec := workloads.Fib(16, 100)
	m, res, err := spec.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res != spec.Expected {
		t.Fatalf("result %d != %d", res, spec.Expected)
	}
	r := BuildRunReport(m, m.Obs().Export(), spec.Items(res))
	if r.InjectedFaults == 0 {
		t.Error("report shows no injected faults at rate 0.05")
	}
	if r.NetRetries == 0 && r.StealFaults == 0 {
		t.Error("report shows neither retries nor steal faults")
	}
}
