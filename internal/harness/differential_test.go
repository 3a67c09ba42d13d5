package harness

import (
	"os"
	"testing"

	"uniaddr/internal/dist"
)

// TestMain routes re-exec'd dist worker processes into the child
// entrypoint before any harness test runs (a no-op for every other
// invocation of this test binary).
func TestMain(m *testing.M) {
	dist.MaybeChild()
	os.Exit(m.Run())
}

// TestDifferentialSimVsRT is the acceptance gate for the rt backend:
// every workload, both backends, 3 seeds × {1,2,4,8} workers, identical
// root results. The sim is the oracle; the rt runs execute under real
// concurrency (and under -race in CI).
func TestDifferentialSimVsRT(t *testing.T) {
	workerCounts := []int{1, 2, 4, 8}
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		workerCounts = []int{1, 4}
		seeds = []uint64{1, 2, 3}
	}
	rep, err := RunDifferentialBackend(RTDiffBackend(), DiffWorkloads(), workerCounts, seeds)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Rows {
		if row.Skipped {
			t.Logf("skipped %s: %s", row.Workload, row.SkipReason)
			continue
		}
		if !row.Match {
			t.Errorf("%s workers=%d seed=%d: sim=%d rt=%d",
				row.Workload, row.Workers, row.Seed, row.SimResult, row.GotResult)
		}
		if row.Expected != 0 && row.SimResult != row.Expected {
			t.Errorf("%s workers=%d seed=%d: sim=%d disagrees with sequential reference %d",
				row.Workload, row.Workers, row.Seed, row.SimResult, row.Expected)
		}
	}
	if rep.Compared == 0 {
		t.Fatal("differential sweep compared nothing")
	}
	if rep.Skipped == 0 {
		t.Error("expected gas-dependent workloads to be reported as skipped")
	}
	// Every skip must carry a reason — satellite requirement: no silent
	// omissions.
	for _, row := range rep.Rows {
		if row.Skipped && row.SkipReason == "" {
			t.Errorf("%s skipped without a reason", row.Workload)
		}
	}
}

// TestDiffWorkloadsCoverCatalog pins the differential catalog to the
// full workload family list, so adding a workload without wiring it
// into the oracle fails loudly.
func TestDiffWorkloadsCoverCatalog(t *testing.T) {
	want := []string{"fib", "btc", "btc-padded", "uts", "uts-binomial", "nqueens", "pingpong", "mergesort", "globalsum"}
	got := DiffWorkloads()
	if len(got) != len(want) {
		t.Fatalf("catalog has %d workloads, want %d", len(got), len(want))
	}
	for i, wl := range got {
		if wl.Name != want[i] {
			t.Errorf("catalog[%d] = %q, want %q", i, wl.Name, want[i])
		}
	}
}

// TestDifferentialSimVsDist is the acceptance gate for the dist
// backend: every workload at 2 and 4 worker PROCESSES, 3 seeds, root
// results identical to the sim oracle, with gas-dependent workloads
// reported (not silently dropped).
func TestDifferentialSimVsDist(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process differential matrix skipped in -short mode")
	}
	rep, err := RunDifferentialBackend(DistDiffBackend(), DiffWorkloads(), []int{2, 4}, []uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Backend != "dist" {
		t.Errorf("report backend %q, want dist", rep.Backend)
	}
	for _, row := range rep.Rows {
		if row.Skipped {
			if row.SkipReason == "" {
				t.Errorf("%s skipped without a reason", row.Workload)
			}
			continue
		}
		if !row.Match {
			t.Errorf("%s workers=%d seed=%d: sim=%d dist=%d",
				row.Workload, row.Workers, row.Seed, row.SimResult, row.GotResult)
		}
	}
	if rep.Compared == 0 {
		t.Fatal("differential sweep compared nothing")
	}
	if rep.Skipped == 0 {
		t.Error("expected gas-dependent workloads to be reported as skipped")
	}
}

// TestDistCrashProbe runs the harness-level resilience probe: a
// SIGKILL'd worker process must surface as a structured error, fast.
func TestDistCrashProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process crash probe skipped in -short mode")
	}
	if err := DistCrashProbe(3, 1); err != nil {
		t.Fatal(err)
	}
}
