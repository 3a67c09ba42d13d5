package rt_test

import (
	"testing"
	"time"

	"uniaddr/internal/fault"
	"uniaddr/internal/rt"
	"uniaddr/internal/workloads"
)

// runFaulted executes spec under an injected fault schedule and checks
// that the result is still correct and the scheduler quiesces (Run
// checks it as it closes) — the whole point of the resilience protocol.
func runFaulted(t *testing.T, spec workloads.Spec, workers int, seed uint64, fc fault.Config) rt.Stats {
	t.Helper()
	cfg := rt.DefaultConfig(workers)
	cfg.Seed = seed
	cfg.MaxWall = 30 * time.Second
	cfg.Fault = fc
	r := rt.New(cfg)
	got, err := r.Run(spec.Fid, spec.Locals, spec.Init)
	if err != nil {
		t.Fatalf("%s on %d workers under faults: %v", spec.Name, workers, err)
	}
	if got != spec.Expected {
		t.Fatalf("%s on %d workers under faults: result %d, want %d", spec.Name, workers, got, spec.Expected)
	}
	return r.TotalStats()
}

// fib20 has enough per-task work (500 simulated cycles) that victim
// deques stay populated and thieves land real steals; lighter specs
// drain locally before any thief arrives and exercise nothing.
func fib20() workloads.Spec { return workloads.Fib(20, 500) }

func TestRTStealClaimFaults(t *testing.T) {
	var sawFault bool
	for seed := uint64(1); seed <= 3; seed++ {
		ts := runFaulted(t, fib20(), 8, seed,
			fault.Config{StealClaimFailProb: 0.2})
		if ts.StealFaults > 0 {
			sawFault = true
			if ts.StealRetries+ts.StealAbortsFault == 0 {
				t.Errorf("seed %d: %d faults but no retries or aborts: %+v", seed, ts.StealFaults, ts)
			}
		}
	}
	if !sawFault {
		t.Error("no steal fault fired across 3 seeds at 20% claim-fail rate")
	}
}

func TestRTStealCopyRollback(t *testing.T) {
	var sawRollback bool
	for seed := uint64(1); seed <= 3; seed++ {
		ts := runFaulted(t, fib20(), 8, seed,
			fault.Config{StealCopyFailProb: 0.25})
		if ts.StealRollbacks > 0 {
			sawRollback = true
			// A rollback abandons the steal: rollbacks ⊆ fault aborts.
			if ts.StealRollbacks > ts.StealAbortsFault {
				t.Errorf("seed %d: %d rollbacks > %d fault aborts", seed, ts.StealRollbacks, ts.StealAbortsFault)
			}
		}
	}
	if !sawRollback {
		t.Error("no rollback fired across 3 seeds at 25% copy-fail rate")
	}
}

func TestRTCombinedFaultsAndDelays(t *testing.T) {
	ts := runFaulted(t, fib20(), 8, 2, fault.Config{
		StealClaimFailProb: 0.1,
		StealCopyFailProb:  0.05,
		StealDelayProb:     0.05,
		StealDelayMin:      20 * time.Microsecond,
		StealDelayMax:      200 * time.Microsecond,
	})
	if ts.StealFaults == 0 {
		t.Log("combined schedule fired no faults (legal but unusual at these rates)")
	}
}

// TestRTZeroFaultPinned pins the zero-fault path: an empty fault.Config
// must not move any resilience counter or change behaviour.
func TestRTZeroFaultPinned(t *testing.T) {
	ts := runFaulted(t, workloads.Fib(17, 50), 4, 1, fault.Config{})
	if ts.StealFaults != 0 || ts.StealRetries != 0 || ts.StealRollbacks != 0 ||
		ts.StealAbortsFault != 0 || ts.VictimBlacklists != 0 || ts.FaultBackoffNS != 0 {
		t.Fatalf("zero-fault run moved resilience counters: %+v", ts)
	}
}

func TestRTBadFaultConfigRejected(t *testing.T) {
	cfg := rt.DefaultConfig(2)
	cfg.Fault = fault.Config{StealClaimFailProb: 1.5}
	r := rt.New(cfg)
	spec := workloads.Fib(10, 0)
	if _, err := r.Run(spec.Fid, spec.Locals, spec.Init); err == nil {
		t.Fatal("invalid fault config accepted by rt.Run")
	}
}

// TestRTDeterministicFaultCounts: the per-edge schedules are
// deterministic, but real-concurrency interleaving varies per run, so
// total counters need not match run-to-run. This test only pins that
// the SAME seed with faults disabled vs. enabled keeps correctness,
// plus that the faulted run's steal accounting balances.
func TestRTFaultAccountingBalances(t *testing.T) {
	ts := runFaulted(t, fib20(), 8, 3,
		fault.Config{StealClaimFailProb: 0.1, StealCopyFailProb: 0.05})
	// Every fault either led to a retry or a fault abort.
	if ts.StealFaults != ts.StealRetries+ts.StealAbortsFault {
		t.Errorf("faults %d != retries %d + fault aborts %d",
			ts.StealFaults, ts.StealRetries, ts.StealAbortsFault)
	}
	if ts.TasksExecuted != ts.Spawns+1 {
		t.Errorf("executed %d != spawned %d + 1 under faults", ts.TasksExecuted, ts.Spawns)
	}
}
