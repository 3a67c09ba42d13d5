package dist_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"uniaddr/internal/dist"
	"uniaddr/internal/obs"
	"uniaddr/internal/workloads"
)

// TestDistObsHarvest runs a real multi-process workload with the
// segment-hosted event rings on and checks the parent harvests every
// rank's trace: wall-clock domain, steal lifecycle from the worker
// goroutines, and heartbeat/control events written by the CHILD
// processes (proof the rings crossed the process boundary).
func TestDistObsHarvest(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process obs test skipped in -short mode")
	}
	// The checks below need a child to win a steal. A light tree
	// (Fib(20, 100)) finishes on rank 0 before a child process is ever
	// scheduled when all three processes share one CPU; Fib(22, 500)
	// keeps rank 0 busy for tens of milliseconds, across several time
	// slices, so the children run and steal.
	spec := workloads.Fib(22, 500)
	cfg := dist.DefaultConfig(3)
	cfg.Obs = true
	// Room for every event even if one rank runs all ~57K tasks (a busy
	// rank records ~30K), so the steal cross-check below always runs on
	// complete rings.
	cfg.ObsRingCap = 1 << 17
	res, err := dist.Run(cfg, spec.Fid, spec.Locals, spec.Init)
	if err != nil {
		t.Fatalf("dist.Run: %v", err)
	}
	if res.Root != spec.Expected {
		t.Fatalf("root result %d, want %d", res.Root, spec.Expected)
	}
	ex := res.Obs
	if ex == nil {
		t.Fatal("Result.Obs nil with Config.Obs set")
	}
	if ex.Clock != obs.ClockWallNS {
		t.Fatalf("clock %q, want %q", ex.Clock, obs.ClockWallNS)
	}
	if len(ex.Logs) != 3 {
		t.Fatalf("%d rank logs, want 3", len(ex.Logs))
	}
	var kinds [64]uint64
	childEvents := 0
	for _, l := range ex.Logs {
		t.Logf("rank %d: %d events recorded, %d dropped", l.Rank, l.Total, l.Dropped)
		if l.Rank > 0 {
			childEvents += len(l.Events)
		}
		for _, e := range l.Events {
			kinds[e.Kind]++
		}
	}
	if childEvents == 0 {
		t.Fatal("no events harvested from child-process ranks")
	}
	if kinds[obs.KTask] == 0 {
		t.Error("no task events")
	}
	if kinds[obs.KStealOK] == 0 {
		t.Error("no successful-steal events in a 3-process fib(22) run")
	}
	// Child-only kinds: heartbeats come from the children's stamping
	// goroutines, ctl-hello/bye from their control handshakes.
	if kinds[obs.KHeartbeat] == 0 {
		t.Error("no heartbeat events from child processes")
	}
	if kinds[obs.KCtlHello] == 0 || kinds[obs.KCtlBye] == 0 {
		t.Errorf("control-plane events missing: hello %d bye %d",
			kinds[obs.KCtlHello], kinds[obs.KCtlBye])
	}
	// One KStealOK interval per successful batched round trip;
	// StealsOK counts the entries those trips moved.
	if d := ex.Dropped(); d != 0 {
		t.Fatalf("rings dropped %d of %d events; the counts below need them all", d, ex.Events())
	}
	if ts := res.TotalStats(); kinds[obs.KStealOK] != ts.StealBatches {
		t.Errorf("KStealOK events %d, StealBatches counter %d", kinds[obs.KStealOK], ts.StealBatches)
	}

	// The harvested export must drive the unified Chrome exporter.
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, ex, nil); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		ClockDomain string                   `json:"clockDomain"`
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	if trace.ClockDomain != obs.ClockWallNS {
		t.Fatalf("trace clockDomain %q", trace.ClockDomain)
	}
}

// TestDistObsCrashHarvest is the crash-forensics gate: SIGKILL a rank
// mid-run and require that the failed run STILL returns the harvested
// export — with the dead rank's last recorded events in it. The ring
// lives in the shared segment, so the kill cannot take it down.
func TestDistObsCrashHarvest(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process crash test skipped in -short mode")
	}
	cfg := dist.DefaultConfig(3)
	cfg.Obs = true
	cfg.KillRanks = []int{1}
	cfg.KillAfter = 200 * time.Millisecond
	spec := workloads.Fib(30, 2000)
	res, err := dist.Run(cfg, spec.Fid, spec.Locals, spec.Init)
	if err == nil {
		t.Fatal("run with a SIGKILL'd worker reported success")
	}
	var crash *dist.WorkerCrashError
	if !errors.As(err, &crash) {
		t.Fatalf("error is %T (%v), want *dist.WorkerCrashError", err, err)
	}
	ex := res.Obs
	if ex == nil {
		t.Fatal("Result.Obs nil on crash path — dead rank's trace lost")
	}
	var dead *obs.ExportLog
	for i := range ex.Logs {
		if ex.Logs[i].Rank == int32(crash.Rank) {
			dead = &ex.Logs[i]
		}
	}
	if dead == nil {
		t.Fatalf("no log for killed rank %d", crash.Rank)
	}
	if len(dead.Events) == 0 {
		t.Fatalf("killed rank %d ran for %v but its ring harvested empty", crash.Rank, cfg.KillAfter)
	}
	for _, e := range dead.Events {
		if e.Kind.String()[0] == 'k' { // Kind.String falls back to "kind(%d)"
			t.Fatalf("killed rank's ring decoded a corrupt kind %d", e.Kind)
		}
	}
	// And the export still serialises.
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, ex, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDistObsOff pins the default: without Config.Obs the segment grows
// no obs blocks and the result carries no export.
func TestDistObsOff(t *testing.T) {
	cfg := dist.DefaultConfig(1)
	res := runSpec(t, cfg, workloads.Fib(12, 5))
	if res.Obs != nil {
		t.Fatal("Result.Obs non-nil with Config.Obs unset")
	}
}
