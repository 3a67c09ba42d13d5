package dist_test

import (
	"errors"
	"os"
	"testing"
	"time"

	"uniaddr/internal/dist"
	"uniaddr/internal/workloads"
)

// TestMain routes re-exec'd worker processes into the child entrypoint:
// when the parent (another run of this same test binary) spawns a
// worker, MaybeChild takes over the process before any test runs. A
// re-exec with coordinatorEnv set is a one-run coordinator instead.
func TestMain(m *testing.M) {
	dist.MaybeChild()
	if os.Getenv(coordinatorEnv) != "" {
		os.Exit(coordinateOnce())
	}
	os.Exit(m.Run())
}

func runSpec(t *testing.T, cfg dist.Config, spec workloads.Spec) dist.Result {
	t.Helper()
	res, err := dist.Run(cfg, spec.Fid, spec.Locals, spec.Init)
	if err != nil {
		t.Fatalf("dist.Run: %v", err)
	}
	if res.Root != spec.Expected {
		t.Fatalf("root result %d, want %d", res.Root, spec.Expected)
	}
	return res
}

// TestDistSingleProcess: Workers=1 degenerates to an in-process run
// with no children — the cheapest end-to-end exercise of the segment
// machinery, so it runs even under -short.
func TestDistSingleProcess(t *testing.T) {
	cfg := dist.DefaultConfig(1)
	res := runSpec(t, cfg, workloads.Fib(12, 5))
	if got := res.TotalStats().StealsOK; got != 0 {
		t.Fatalf("%d steals with one worker", got)
	}
}

// TestDistSmoke runs real multi-process work: fib and nqueens at 2 and
// 4 worker processes, checking the root result and that genuine
// cross-process steals happened.
func TestDistSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process smoke test skipped in -short mode")
	}
	for _, workers := range []int{2, 4} {
		for _, wl := range []struct {
			name string
			spec workloads.Spec
		}{
			{"fib", workloads.Fib(18, 20)},
			{"nqueens", workloads.NQueens(7, 20)},
			{"pingpong", workloads.PingPong(16, 50, 0)},
		} {
			cfg := dist.DefaultConfig(workers)
			res := runSpec(t, cfg, wl.spec)
			ts := res.TotalStats()
			if ts.TasksExecuted != ts.Spawns+1 {
				t.Errorf("%s workers=%d: %d tasks executed, %d spawned (+1 root)",
					wl.name, workers, ts.TasksExecuted, ts.Spawns)
			}
			if len(res.PerWorker) != workers {
				t.Errorf("%s workers=%d: %d per-worker stat rows", wl.name, workers, len(res.PerWorker))
			}
		}
	}
}

// TestDistStealsHappen pins the point of the backend: with multiple
// processes and enough parallel slack, at least one frame migrates
// between address spaces.
func TestDistStealsHappen(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process smoke test skipped in -short mode")
	}
	res := runSpec(t, dist.DefaultConfig(4), workloads.Fib(22, 200))
	if ts := res.TotalStats(); ts.StealsOK == 0 {
		t.Fatal("no cross-process steals in a 4-process fib(22) run")
	} else if ts.BytesStolen == 0 {
		t.Fatal("steals reported but zero bytes copied")
	}
}

// TestDistIdleBackoffFromFirstRound: a worker that has not run anything
// yet must back off like any other. A sequential root leaves rank 1 idle
// for the whole run; a backoff ladder that starts at zero turns every
// "sleep" into a poll — tens of thousands of them, and on a shared CPU
// they are taken from the rank doing the work.
func TestDistIdleBackoffFromFirstRound(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test skipped in -short mode")
	}
	res := runSpec(t, dist.DefaultConfig(2), workloads.Fib(1, 30_000_000))
	// 20 us doubling to 1 ms: a handful of sleeps, then one per ms.
	if n := res.TotalStats().IdleSleeps; n > 2000 {
		t.Fatalf("%d idle sleeps while one leaf task ran: the backoff is not sleeping", n)
	}
}

// TestDistWorkerCrashReported is the resilience gate: SIGKILL a worker
// process mid-run and require a structured WorkerCrashError, promptly —
// not a hang, not a zero result.
func TestDistWorkerCrashReported(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process crash test skipped in -short mode")
	}
	cfg := dist.DefaultConfig(3)
	cfg.KillRanks = []int{1}
	cfg.KillAfter = 100 * time.Millisecond
	// Big enough that the run cannot finish before the kill fires.
	spec := workloads.Fib(30, 2000)
	start := time.Now()
	_, err := dist.Run(cfg, spec.Fid, spec.Locals, spec.Init)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("run with a SIGKILL'd worker reported success")
	}
	var crash *dist.WorkerCrashError
	if !errors.As(err, &crash) {
		t.Fatalf("error is %T (%v), want *dist.WorkerCrashError", err, err)
	}
	if crash.Rank != 1 {
		t.Fatalf("crash attributed to rank %d, want 1", crash.Rank)
	}
	// "Detected, not hung": the failure must surface in seconds, far
	// inside the 2-minute watchdog.
	if elapsed > 30*time.Second {
		t.Fatalf("crash detection took %v", elapsed)
	}
}
