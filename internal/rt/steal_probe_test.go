package rt

import (
	"testing"

	"uniaddr/internal/workloads"
)

// TestStealProbeAccounting checks the probe taxonomy: every steal
// attempt is routed by exactly one of the three selectors (cache, hint
// sweep, blind fallback), so the buckets must sum to StealAttempts.
func TestStealProbeAccounting(t *testing.T) {
	for _, spec := range []workloads.Spec{
		workloads.Fib(17, 50),
		workloads.PingPong(64, 200, 0),
	} {
		for _, workers := range []int{2, 4, 8} {
			cfg := DefaultConfig(workers)
			r := New(cfg)
			got, err := r.Run(spec.Fid, spec.Locals, spec.Init)
			if err != nil {
				t.Fatalf("%s on %d workers: %v", spec.Name, workers, err)
			}
			if got != spec.Expected {
				t.Fatalf("%s on %d workers: result %d, want %d", spec.Name, workers, got, spec.Expected)
			}
			ts := r.TotalStats()
			probes := ts.StealCacheProbes + ts.StealHintProbes + ts.StealBlindProbes
			if probes != ts.StealAttempts {
				t.Errorf("%s on %d workers: probe buckets %d+%d+%d != attempts %d",
					spec.Name, workers,
					ts.StealCacheProbes, ts.StealHintProbes, ts.StealBlindProbes,
					ts.StealAttempts)
			}
			// One attempt = one round trip, which may move a whole
			// batch: conservation is over StealBatches, not entries.
			outcomes := ts.StealBatches + ts.StealAbortEmpty + ts.StealAbortLock
			if outcomes != ts.StealAttempts {
				t.Errorf("%s on %d workers: outcomes %d != attempts %d",
					spec.Name, workers, outcomes, ts.StealAttempts)
			}
		}
	}
}

// TestHintedStealsFindWork sanity-checks the selector on a workload
// with real migration: at 4+ workers a fib tree forces steals, and the
// hint/cache paths — not just blind luck — must be carrying traffic.
// The tree is heavy enough (~57K tasks, tens of ms) that the other
// workers get a CPU while the root's is still busy even when another
// test binary saturates the host; Fib(18, 20) finished first on one
// worker in most full-suite runs on a 2-vCPU box.
func TestHintedStealsFindWork(t *testing.T) {
	spec := workloads.Fib(22, 500)
	cfg := DefaultConfig(4)
	r := New(cfg)
	if _, err := r.Run(spec.Fid, spec.Locals, spec.Init); err != nil {
		t.Fatal(err)
	}
	ts := r.TotalStats()
	if ts.StealsOK == 0 {
		t.Skip("no steals occurred on this box; nothing to assert")
	}
	if ts.StealCacheProbes+ts.StealHintProbes == 0 {
		t.Errorf("%d successful steals but zero hint/cache-guided probes", ts.StealsOK)
	}
}
