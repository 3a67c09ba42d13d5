package uniaddr_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"uniaddr"
	"uniaddr/internal/workloads"
)

// TestServiceRTPersistentPool is the facade end of the tentpole: one rt
// Service takes many concurrent submissions, every per-job Report
// matches its sequential oracle, and no worker goroutine exits between
// jobs — the pool outlives them all.
func TestServiceRTPersistentPool(t *testing.T) {
	svc, err := uniaddr.NewService(
		uniaddr.ServiceBackend(uniaddr.BackendRT),
		uniaddr.ServiceWorkers(4),
		uniaddr.ServiceMaxJobs(8),
		uniaddr.ServiceQueueDepth(64))
	if err != nil {
		t.Fatal(err)
	}
	specs := []workloads.Spec{
		workloads.Fib(16, 20),
		workloads.BTC(8, 1, 10),
		workloads.NQueens(6, 10),
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for round := 0; round < 3; round++ {
		for _, spec := range specs {
			wg.Add(1)
			go func(spec workloads.Spec) {
				defer wg.Done()
				job, err := svc.Submit(context.Background(), spec.Fid, spec.Locals, spec.Init)
				if err != nil {
					errs <- fmt.Errorf("submit %s: %w", spec.Name, err)
					return
				}
				rep, err := job.Wait()
				if err != nil {
					errs <- fmt.Errorf("%s (job %d): %w", spec.Name, job.ID(), err)
					return
				}
				if rep.Root != spec.Expected {
					errs <- fmt.Errorf("%s (job %d): root %d, want %d", spec.Name, job.ID(), rep.Root, spec.Expected)
				}
				if rep.Tasks != rep.Spawns+1 {
					errs <- fmt.Errorf("%s (job %d): executed %d != spawned %d + 1", spec.Name, job.ID(), rep.Tasks, rep.Spawns)
				}
				if rep.Job != job.ID() || rep.Backend != uniaddr.BackendRT {
					errs <- fmt.Errorf("%s: report attribution job=%d backend=%q", spec.Name, rep.Job, rep.Backend)
				}
			}(spec)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := svc.WorkersExited(); got != 0 {
		t.Errorf("%d workers exited while the service was live", got)
	}
	if got := svc.JobsCompleted(); got != 9 {
		t.Errorf("JobsCompleted = %d, want 9", got)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServiceSimEphemeralJobs drives the same facade on the default sim
// backend: each job gets its own deterministic world, so equal WithSeed
// values give bit-identical virtual clocks.
func TestServiceSimEphemeralJobs(t *testing.T) {
	svc, err := uniaddr.NewService(uniaddr.ServiceWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	spec := workloads.Fib(14, 0)
	var reps [3]uniaddr.Report
	for i := range reps {
		job, err := svc.Submit(context.Background(), spec.Fid, spec.Locals, spec.Init,
			uniaddr.WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		if reps[i], err = job.Wait(); err != nil {
			t.Fatal(err)
		}
		if reps[i].Root != spec.Expected {
			t.Fatalf("job %d: root %d, want %d", job.ID(), reps[i].Root, spec.Expected)
		}
		if reps[i].VirtualCycles == 0 {
			t.Fatalf("job %d: sim job reported no virtual time", job.ID())
		}
	}
	if reps[0].VirtualCycles != reps[1].VirtualCycles || reps[1].VirtualCycles != reps[2].VirtualCycles {
		t.Errorf("equal WithSeed diverged: %d, %d, %d cycles",
			reps[0].VirtualCycles, reps[1].VirtualCycles, reps[2].VirtualCycles)
	}
	if reps[0].Job == reps[1].Job {
		t.Error("distinct jobs share an ID")
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServiceJobsCompletedNeverRunsAhead: on a sim service, whose jobs
// each run on a goroutine of their own, JobsCompleted never exceeds the
// jobs submitted nor the Done channels already closed — it once read
// 2^64-1 while the first job held its slot, and counted a job between
// its slot's release and its Done — and ends at exactly the jobs run.
// The jobs run one after another, so every job opens both windows.
func TestServiceJobsCompletedNeverRunsAhead(t *testing.T) {
	const n = 200
	svc, err := uniaddr.NewService(uniaddr.WithWorkers(1), uniaddr.ServiceMaxJobs(1))
	if err != nil {
		t.Fatal(err)
	}
	spec := workloads.Fib(2, 0)
	// mu is held across each Submit and the append of its Job, so once the
	// poller has taken it, every job a count can include is in jobs.
	var mu sync.Mutex
	var jobs []*uniaddr.Job
	stop, polled := make(chan struct{}), make(chan error, 1)
	go func() {
		for {
			// Both bounds only grow, so a count read first is checked
			// against bounds read after it.
			var got uint64
			for k := 0; k < 100; k++ {
				got = max(got, svc.JobsCompleted())
			}
			mu.Lock()
			submitted := jobs
			mu.Unlock()
			closed := 0
			for _, j := range submitted {
				select {
				case <-j.Done():
					closed++
				default:
				}
			}
			if got > uint64(len(submitted)) || got > uint64(closed) {
				polled <- fmt.Errorf("JobsCompleted %d with %d jobs submitted, %d done", got, len(submitted), closed)
				return
			}
			select {
			case <-stop:
				polled <- nil
				return
			default:
			}
		}
	}()
	for i := 0; i < n; i++ {
		mu.Lock()
		j, err := svc.Submit(context.Background(), spec.Fid, spec.Locals, spec.Init)
		if err == nil {
			jobs = append(jobs, j)
		}
		mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		if rep, err := j.Wait(); err != nil || rep.Root != spec.Expected {
			t.Fatalf("job %d: root %d err %v, want %d", j.ID(), rep.Root, err, spec.Expected)
		}
	}
	close(stop)
	if err := <-polled; err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if got := svc.JobsCompleted(); got != n {
		t.Fatalf("JobsCompleted = %d after Close, want %d", got, n)
	}
}

// TestServiceBackpressure pins the typed saturation error on a 1-slot,
// depth-1 rt service. The first job is the gated task, so it holds the
// only slot until all three submissions have been answered.
func TestServiceBackpressure(t *testing.T) {
	svc, err := uniaddr.NewService(
		uniaddr.ServiceBackend(uniaddr.BackendRT),
		uniaddr.ServiceWorkers(2),
		uniaddr.ServiceMaxJobs(1),
		uniaddr.ServiceQueueDepth(1))
	if err != nil {
		t.Fatal(err)
	}
	gate = make(chan struct{})
	j1, err := svc.Submit(context.Background(), gateFID, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The root is running: the first job was claimed and the queue is
	// empty, so the second is admitted and the third must bounce.
	<-gateEntered
	heavy := workloads.Fib(20, 500)
	j2, err := svc.Submit(context.Background(), heavy.Fid, heavy.Locals, heavy.Init)
	if err != nil {
		close(gate)
		t.Fatalf("second submit: %v", err)
	}
	_, err = svc.Submit(context.Background(), heavy.Fid, heavy.Locals, heavy.Init)
	close(gate)
	if !errors.Is(err, uniaddr.ErrServiceSaturated) {
		t.Fatalf("third submit: got %v, want ErrServiceSaturated", err)
	}
	if rep, err := j1.Wait(); err != nil || rep.Root != 7 {
		t.Fatalf("gate job: root %d err %v, want 7", rep.Root, err)
	}
	if rep, err := j2.Wait(); err != nil || rep.Root != heavy.Expected {
		t.Fatalf("job %d: root %d err %v, want %d", j2.ID(), rep.Root, err, heavy.Expected)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServiceContextCancel cancels a running rt job via its submission
// context: the canceled job resolves to a JobCanceledError wrapping
// context.Canceled while a co-resident job finishes untouched.
func TestServiceContextCancel(t *testing.T) {
	svc, err := uniaddr.NewService(
		uniaddr.ServiceBackend(uniaddr.BackendRT),
		uniaddr.ServiceWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	victim := workloads.Fib(24, 200)
	vj, err := svc.Submit(ctx, victim.Fid, victim.Locals, victim.Init)
	if err != nil {
		t.Fatal(err)
	}
	bystander := workloads.Fib(16, 20)
	bj, err := svc.Submit(context.Background(), bystander.Fid, bystander.Locals, bystander.Init)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	cancel()
	_, verr := vj.Wait()
	var jce *uniaddr.JobCanceledError
	if verr != nil {
		if !errors.As(verr, &jce) || !errors.Is(verr, context.Canceled) {
			t.Fatalf("canceled job: got %v, want JobCanceledError wrapping context.Canceled", verr)
		}
	} // else: the job won the race and completed first — legal.
	rep, err := bj.Wait()
	if err != nil || rep.Root != bystander.Expected {
		t.Fatalf("co-resident job disturbed by cancel: root %d err %v, want %d", rep.Root, err, bystander.Expected)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServiceJobMaxWall bounds one job's wall clock on a shared pool.
func TestServiceJobMaxWall(t *testing.T) {
	svc, err := uniaddr.NewService(
		uniaddr.ServiceBackend(uniaddr.BackendRT),
		uniaddr.ServiceWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	heavy := workloads.Fib(26, 2000)
	job, err := svc.Submit(context.Background(), heavy.Fid, heavy.Locals, heavy.Init,
		uniaddr.JobMaxWall(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(); err != nil {
		var jce *uniaddr.JobCanceledError
		if !errors.As(err, &jce) {
			t.Fatalf("deadline-blown job: got %v, want JobCanceledError", err)
		}
	} else {
		t.Log("job finished inside 20ms; deadline never fired (fast host)")
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServiceJobMaxWallExcludesQueueTime pins the deadline anchor: the
// JobMaxWall clock arms at dispatch, so a job that outwaits its whole
// budget in the admission queue behind a long-running tenant must still
// run — and, being near-instant, complete without a cancellation.
func TestServiceJobMaxWallExcludesQueueTime(t *testing.T) {
	svc, err := uniaddr.NewService(
		uniaddr.ServiceBackend(uniaddr.BackendRT),
		uniaddr.ServiceWorkers(2),
		uniaddr.ServiceMaxJobs(1))
	if err != nil {
		t.Fatal(err)
	}
	heavy := workloads.Fib(26, 2000)
	j1, err := svc.Submit(context.Background(), heavy.Fid, heavy.Locals, heavy.Init)
	if err != nil {
		t.Fatal(err)
	}
	quick := workloads.Fib(10, 0)
	budget := 15 * time.Millisecond
	j2, err := svc.Submit(context.Background(), quick.Fid, quick.Locals, quick.Init,
		uniaddr.JobMaxWall(budget))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := j2.Wait()
	if err != nil {
		t.Fatalf("queued job canceled by a deadline its execution never touched: %v", err)
	}
	if rep.Root != quick.Expected {
		t.Fatalf("job %d: root %d, want %d", j2.ID(), rep.Root, quick.Expected)
	}
	// The scenario only bites if the queue wait actually exceeded the
	// budget (the single slot was busy for the whole heavy job).
	if rep.QueueNS <= budget.Nanoseconds() {
		t.Logf("queue wait %v never exceeded the %v budget; scenario degenerate on this host", time.Duration(rep.QueueNS), budget)
	}
	if _, err := j1.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServiceMaxJobsRejectedOnDist pins the never-silently-ignored
// contract: dist serializes jobs through one segment mapping, so a
// ServiceMaxJobs above 1 must be rejected, not pinned down to 1.
func TestServiceMaxJobsRejectedOnDist(t *testing.T) {
	var uo *uniaddr.UnsupportedOptionError
	if _, err := uniaddr.NewService(
		uniaddr.ServiceBackend(uniaddr.BackendDist),
		uniaddr.ServiceMaxJobs(8)); !errors.As(err, &uo) {
		t.Fatalf("dist ServiceMaxJobs(8): got %v, want UnsupportedOptionError", err)
	}
	// 1 (the layout's actual bound) and unset stay accepted.
	for _, opts := range [][]uniaddr.ServiceOption{
		{uniaddr.ServiceBackend(uniaddr.BackendDist), uniaddr.ServiceMaxJobs(1)},
		{uniaddr.ServiceBackend(uniaddr.BackendDist)},
	} {
		svc, err := uniaddr.NewService(opts...)
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestServiceOptionClasses pins the ServiceOption/JobOption split:
// options that need a per-job world are rejected on the persistent rt
// pool and vice versa, always with a structured UnsupportedOptionError.
func TestServiceOptionClasses(t *testing.T) {
	spec := workloads.Fib(10, 0)
	rtSvc, err := uniaddr.NewService(
		uniaddr.ServiceBackend(uniaddr.BackendRT), uniaddr.ServiceWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	var uo *uniaddr.UnsupportedOptionError
	if _, err := rtSvc.Submit(context.Background(), spec.Fid, spec.Locals, spec.Init,
		uniaddr.WithSeed(9)); !errors.As(err, &uo) {
		t.Errorf("rt service accepted WithSeed at Submit (err=%v)", err)
	}
	if _, err := rtSvc.Submit(context.Background(), spec.Fid, spec.Locals, spec.Init,
		uniaddr.WithTrace(&bytes.Buffer{})); !errors.As(err, &uo) {
		t.Errorf("rt service accepted WithTrace at Submit (err=%v)", err)
	}
	if err := rtSvc.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts []uniaddr.ServiceOption
	}{
		{"sim+WithTrace", []uniaddr.ServiceOption{uniaddr.WithTrace(&bytes.Buffer{})}},
		{"sim+WithStealBatch", []uniaddr.ServiceOption{uniaddr.WithStealBatch(1)}},
		{"rt+WithCosts", []uniaddr.ServiceOption{
			uniaddr.ServiceBackend(uniaddr.BackendRT), uniaddr.WithCosts(uniaddr.XeonCosts())}},
	} {
		if _, err := uniaddr.NewService(tc.opts...); !errors.As(err, &uo) {
			t.Errorf("%s: got %v, want UnsupportedOptionError", tc.name, err)
		}
	}
	if _, err := uniaddr.NewService(uniaddr.ServiceBackend("quantum")); err == nil {
		t.Error("unknown service backend accepted")
	}
}

func TestServiceClosed(t *testing.T) {
	svc, err := uniaddr.NewService(uniaddr.ServiceWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	spec := workloads.Fib(10, 0)
	if _, err := svc.Submit(context.Background(), spec.Fid, spec.Locals, spec.Init); !errors.Is(err, uniaddr.ErrServiceClosed) {
		t.Fatalf("Submit after Close: got %v, want ErrServiceClosed", err)
	}
	if err := svc.Close(); !errors.Is(err, uniaddr.ErrServiceClosed) {
		t.Fatalf("second Close: got %v, want ErrServiceClosed", err)
	}
}

// TestServiceTraceJobTagged exports the pool-wide rt timeline and
// checks task events carry job IDs — the obs plumbing that lets one
// Perfetto view separate co-resident jobs.
func TestServiceTraceJobTagged(t *testing.T) {
	var buf bytes.Buffer
	svc, err := uniaddr.NewService(
		uniaddr.ServiceBackend(uniaddr.BackendRT),
		uniaddr.ServiceWorkers(2),
		uniaddr.WithTrace(&buf))
	if err != nil {
		t.Fatal(err)
	}
	spec := workloads.Fib(14, 0)
	ids := map[uint64]bool{}
	for i := 0; i < 2; i++ {
		job, err := svc.Submit(context.Background(), spec.Fid, spec.Locals, spec.Init)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := job.Wait(); err != nil {
			t.Fatal(err)
		}
		ids[job.ID()] = true
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		ClockDomain string `json:"clockDomain"`
		TraceEvents []struct {
			Cat  string `json:"cat"`
			Args *struct {
				Job uint64 `json:"job"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("service trace not valid JSON: %v", err)
	}
	if trace.ClockDomain != "wall-ns" {
		t.Fatalf("clockDomain %q, want wall-ns", trace.ClockDomain)
	}
	seen := map[uint64]bool{}
	for _, ev := range trace.TraceEvents {
		if ev.Cat == "task" && ev.Args != nil && ev.Args.Job != 0 {
			seen[ev.Args.Job] = true
		}
	}
	for id := range ids {
		if !seen[id] {
			t.Errorf("no task event tagged with job %d in the service trace", id)
		}
	}
}

// TestServiceRunSugarEquivalence pins Run-as-sugar: a Run and a
// one-job Service on the same rt inputs agree on the oracle-checked
// result and the conservation law.
func TestServiceRunSugarEquivalence(t *testing.T) {
	spec := workloads.Fib(15, 0)
	rep, err := uniaddr.Run(spec.Fid, spec.Locals, spec.Init,
		uniaddr.WithBackend(uniaddr.BackendRT), uniaddr.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Root != spec.Expected || rep.Tasks != rep.Spawns+1 {
		t.Fatalf("Run: root %d tasks %d spawns %d, want root %d, tasks=spawns+1",
			rep.Root, rep.Tasks, rep.Spawns, spec.Expected)
	}
	if rep.Job != 0 || rep.QueueNS != 0 {
		t.Fatalf("Run report leaked service-only fields: job=%d queue_ns=%d", rep.Job, rep.QueueNS)
	}
	svc, err := uniaddr.NewService(
		uniaddr.ServiceBackend(uniaddr.BackendRT), uniaddr.ServiceWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	job, err := svc.Submit(context.Background(), spec.Fid, spec.Locals, spec.Init)
	if err != nil {
		t.Fatal(err)
	}
	srep, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if srep.Root != rep.Root {
		t.Fatalf("service root %d != Run root %d", srep.Root, rep.Root)
	}
	if srep.Tasks != rep.Tasks || srep.Spawns != rep.Spawns {
		t.Fatalf("per-job counters diverge from Run totals: tasks %d/%d spawns %d/%d",
			srep.Tasks, rep.Tasks, srep.Spawns, rep.Spawns)
	}
	if srep.QueueNS <= 0 {
		t.Fatalf("service job reported queue latency %d", srep.QueueNS)
	}
}
