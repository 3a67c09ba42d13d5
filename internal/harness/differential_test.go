package harness

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

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
	rep, err := RunDifferential(DiffWorkloads(), workerCounts, seeds)
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

func TestRTBenchReportJSON(t *testing.T) {
	rep, err := RunRTBench(DiffWorkloads(), []int{1, 2}, 1, 1, BenchTuning{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) == 0 {
		t.Fatal("bench produced no rows")
	}
	if len(rep.Skipped) == 0 {
		t.Error("gas-dependent workloads missing from skipped list")
	}
	for _, row := range rep.Rows {
		if row.WallNS <= 0 {
			t.Errorf("%s workers=%d: wall_ns %d", row.Workload, row.Workers, row.WallNS)
		}
		if row.TasksPerSec <= 0 {
			t.Errorf("%s workers=%d: tasks_per_second %f", row.Workload, row.Workers, row.TasksPerSec)
		}
	}
	var buf bytes.Buffer
	if err := WriteRTBenchJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	var round RTBenchReport
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("BENCH_rt.json does not round-trip: %v", err)
	}
	if len(round.Rows) != len(rep.Rows) || len(round.Skipped) != len(rep.Skipped) {
		t.Fatalf("round-trip lost rows: %d/%d vs %d/%d",
			len(round.Rows), len(round.Skipped), len(rep.Rows), len(rep.Skipped))
	}
	if !strings.Contains(buf.String(), "\"reason\"") {
		t.Error("skip reasons missing from JSON")
	}
}
