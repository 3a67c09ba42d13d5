package rt_test

import (
	"testing"

	"uniaddr/internal/rt"
	"uniaddr/internal/workloads"
)

// runSpec executes a gas-free workload Spec on the rt backend and
// checks the root result against the sequential reference (Run has
// checked quiescence by the time it returns).
func runSpec(t *testing.T, spec workloads.Spec, workers int, seed uint64) {
	t.Helper()
	if spec.Setup != nil {
		t.Fatalf("%s needs machine Setup (global heap); sim-only", spec.Name)
	}
	cfg := rt.DefaultConfig(workers)
	cfg.Seed = seed
	got, err := rt.New(cfg).Run(spec.Fid, spec.Locals, spec.Init)
	if err != nil {
		t.Fatalf("%s on %d workers: %v", spec.Name, workers, err)
	}
	if got != spec.Expected {
		t.Fatalf("%s on %d workers: result %d, want %d", spec.Name, workers, got, spec.Expected)
	}
}

func TestFibSingleWorker(t *testing.T) {
	runSpec(t, workloads.Fib(15, 0), 1, 1)
}

func TestFibParallel(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		for seed := uint64(1); seed <= 3; seed++ {
			runSpec(t, workloads.Fib(17, 50), workers, seed)
		}
	}
}

func TestBTCParallel(t *testing.T) {
	runSpec(t, workloads.BTC(10, 1, 20), 4, 1)
}

// TestPingPongSuspend drives the suspend/park/resume path hard: deep
// sequential joins whose targets complete elsewhere.
func TestPingPongSuspend(t *testing.T) {
	runSpec(t, workloads.PingPong(64, 200, 0), 4, 2)
}

func TestUTSParallel(t *testing.T) {
	runSpec(t, workloads.UTS(19, 8, 4, 10), 4, 1)
}

func TestNQueensParallel(t *testing.T) {
	runSpec(t, workloads.NQueens(7, 10), 4, 3)
}

// TestStatsConservation checks the scheduler's books after a contended
// run: every spawn executed exactly once, steals moved real bytes.
func TestStatsConservation(t *testing.T) {
	spec := workloads.Fib(18, 20)
	cfg := rt.DefaultConfig(8)
	r := rt.New(cfg)
	got, err := r.Run(spec.Fid, spec.Locals, spec.Init)
	if err != nil {
		t.Fatal(err)
	}
	if got != spec.Expected {
		t.Fatalf("result %d, want %d", got, spec.Expected)
	}
	ts := r.TotalStats()
	if ts.TasksExecuted != ts.Spawns+1 {
		t.Errorf("executed %d != spawned %d + 1", ts.TasksExecuted, ts.Spawns)
	}
	if ts.StealsOK > 0 && ts.BytesStolen == 0 {
		t.Errorf("%d steals moved zero bytes", ts.StealsOK)
	}
	// Every entry stolen from its original spawner's deque is later
	// observed as that owner's failed ExecSpawnRun pop (ParentStolen). A
	// batch's surplus lands on the thief's deque, and a RE-steal of
	// such a migrated entry is a StealsOK with no spawn-path pop
	// anywhere — so under steal-half batching ParentStolen is a lower
	// bound, with equality only when no surplus was re-stolen.
	if ts.StealsOK > 0 && ts.ParentStolen == 0 {
		t.Errorf("%d steals but no owner ever observed a stolen continuation", ts.StealsOK)
	}
	if ts.ParentStolen > ts.StealsOK {
		t.Errorf("ParentStolen %d > StealsOK %d", ts.ParentStolen, ts.StealsOK)
	}
	if ts.StealBatchEntries != ts.StealsOK {
		t.Errorf("StealBatchEntries %d != StealsOK %d", ts.StealBatchEntries, ts.StealsOK)
	}
	if ts.StealBatches > ts.StealsOK {
		t.Errorf("StealBatches %d > StealsOK %d (entries per trip >= 1)", ts.StealBatches, ts.StealsOK)
	}
}

func TestRunTwiceRejected(t *testing.T) {
	spec := workloads.Fib(5, 0)
	cfg := rt.DefaultConfig(1)
	r := rt.New(cfg)
	if _, err := r.Run(spec.Fid, spec.Locals, spec.Init); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(spec.Fid, spec.Locals, spec.Init); err == nil {
		t.Fatal("second Run succeeded, want error")
	}
}
