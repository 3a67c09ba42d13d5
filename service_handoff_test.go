package uniaddr_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"uniaddr"
	"uniaddr/internal/workloads"
)

// The completing worker resolves an rt job: nothing per job needs a
// goroutine of its own, and the pool — not the facade — watches the
// submission context and the JobMaxWall budget. These tests pin the
// hand-off from the outside: goroutine and allocation counts per job,
// and every cancellation edge resolving exactly once.

func newRTService(t *testing.T, opts ...uniaddr.ServiceOption) *uniaddr.Service {
	t.Helper()
	svc, err := uniaddr.NewService(append([]uniaddr.ServiceOption{
		uniaddr.ServiceBackend(uniaddr.BackendRT)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// The gate task announces that its job's root is running, then blocks
// it until the test closes gate, so a test can act while the job is
// known to be mid-run.
var (
	gate        chan struct{}
	gateEntered = make(chan struct{}, 1)
	gateFID     = uniaddr.Register("uniaddr_test.handoff-gate", func(e *uniaddr.Env) uniaddr.Status {
		gateEntered <- struct{}{}
		<-gate
		e.ReturnU64(7)
		return uniaddr.Done
	})
)

// settle waits for the goroutine count to come back down to want (a
// watcher that fired runs on a goroutine of its own for a moment).
func settle(t *testing.T, want int, what string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > want; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, %d before", what, runtime.NumGoroutine(), want)
		}
	}
}

// TestServiceSubmitCreatesNoGoroutine: across Submit…Wait the process
// has exactly the goroutines it had before — with a context that cannot
// be canceled, with one that can, and with a JobMaxWall budget.
func TestServiceSubmitCreatesNoGoroutine(t *testing.T) {
	svc := newRTService(t, uniaddr.ServiceWorkers(2))
	spec := workloads.Fib(12, 0)
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, tc := range []struct {
		name string
		ctx  context.Context
		opts []uniaddr.JobOption
	}{
		{"background", context.Background(), nil},
		{"cancellable", cctx, nil},
		{"max-wall", context.Background(), []uniaddr.JobOption{uniaddr.JobMaxWall(time.Minute)}},
		{"cancellable+max-wall", cctx, []uniaddr.JobOption{uniaddr.JobMaxWall(time.Minute)}},
	} {
		run := func() int {
			job, err := svc.Submit(tc.ctx, spec.Fid, spec.Locals, spec.Init, tc.opts...)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			mid := runtime.NumGoroutine()
			rep, err := job.Wait()
			if err != nil || rep.Root != spec.Expected {
				t.Fatalf("%s: root %d err %v, want %d", tc.name, rep.Root, err, spec.Expected)
			}
			return mid
		}
		run() // warm-up
		before := runtime.NumGoroutine()
		for i := 0; i < 50; i++ {
			if mid := run(); mid > before {
				t.Fatalf("%s: %d goroutines between Submit and Wait, %d before", tc.name, mid, before)
			}
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Fatalf("%s: %d goroutines after 50 jobs, %d before", tc.name, after, before)
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServiceSubmitWaitAllocs: a one-task job on a warm pool costs four
// allocations — the Job, the ticket, its channel and the queue entry —
// and two more, a timer and its closure, when it has a budget. A
// goroutine per job, a closure per watcher that is never armed, or an
// option list that reaches the heap shows up here.
func TestServiceSubmitWaitAllocs(t *testing.T) {
	svc := newRTService(t, uniaddr.ServiceWorkers(1))
	spec := workloads.Fib(1, 0)
	for _, tc := range []struct {
		name     string
		max      float64
		maxBytes uint64
		opts     []uniaddr.JobOption
	}{
		{"plain", 4, 640, nil},
		{"max-wall", 6, 769, []uniaddr.JobOption{uniaddr.JobMaxWall(time.Minute)}},
	} {
		const runs = 200
		job := func() {
			job, err := svc.Submit(context.Background(), spec.Fid, spec.Locals, spec.Init, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if rep, err := job.Wait(); err != nil || rep.Root != spec.Expected {
				t.Fatalf("root %d err %v, want %d", rep.Root, err, spec.Expected)
			}
		}
		got := testing.AllocsPerRun(runs, job)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			job()
		}
		runtime.ReadMemStats(&after)
		bytes := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("%s: %.1f allocs, %d B per Submit+Wait", tc.name, got, bytes)
		if got > tc.max {
			t.Errorf("%s: %.1f allocs per Submit+Wait, want <= %.0f", tc.name, got, tc.max)
		}
		if bytes > tc.maxBytes {
			t.Errorf("%s: %d B per Submit+Wait, want <= %d", tc.name, bytes, tc.maxBytes)
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
}

// wantCanceled checks that j resolved to a JobCanceledError with cause.
func wantCanceled(t *testing.T, what string, j *uniaddr.Job, cause error) {
	t.Helper()
	_, err := j.Wait()
	var jce *uniaddr.JobCanceledError
	if !errors.As(err, &jce) || jce.Job != j.ID() {
		t.Fatalf("%s: got %v, want JobCanceledError for job %d", what, err, j.ID())
	}
	if cause != nil && !errors.Is(err, cause) {
		t.Fatalf("%s: got %v, want cause %v", what, err, cause)
	}
}

// TestServiceCancelEdges walks one job through each edge a watcher can
// hit it on — canceled while queued, canceled mid-run, budget blown
// mid-run, context canceled after completion — on a one-slot service,
// with a gated job so every edge is reached for certain. Each job must
// resolve exactly once, with today's errors, and leave no goroutine.
func TestServiceCancelEdges(t *testing.T) {
	svc := newRTService(t, uniaddr.ServiceWorkers(2), uniaddr.ServiceMaxJobs(1))
	quick := workloads.Fib(10, 0)
	before := runtime.NumGoroutine()

	// Mid-run: the root is inside its body when the context is canceled;
	// it drains when it returns. Queued: a second job behind it in the
	// only slot is canceled before any worker can claim it.
	gate = make(chan struct{})
	rctx, rcancel := context.WithCancel(context.Background())
	running, err := svc.Submit(rctx, gateFID, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-gateEntered
	qctx, qcancel := context.WithCancel(context.Background())
	queued, err := svc.Submit(qctx, quick.Fid, quick.Locals, quick.Init)
	if err != nil {
		t.Fatal(err)
	}
	qcancel()
	wantCanceled(t, "canceled while queued", queued, context.Canceled)
	rcancel()
	select {
	case <-running.Done():
		t.Fatal("a job whose root is still running resolved before it drained")
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	wantCanceled(t, "canceled mid-run", running, context.Canceled)

	// Budget blown mid-run: same shape, the pool's own timer cancels.
	gate = make(chan struct{})
	late, err := svc.Submit(context.Background(), gateFID, 8, nil, uniaddr.JobMaxWall(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	<-gateEntered
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wantCanceled(t, "JobMaxWall blown mid-run", late, nil)

	// Canceled after completion: nothing is left to cancel, the result
	// stands, and the count of finalized jobs does not move.
	actx, acancel := context.WithCancel(context.Background())
	done, err := svc.Submit(actx, quick.Fid, quick.Locals, quick.Init, uniaddr.JobMaxWall(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := done.Wait()
	if err != nil || rep.Root != quick.Expected {
		t.Fatalf("root %d err %v, want %d", rep.Root, err, quick.Expected)
	}
	completed := svc.JobsCompleted()
	acancel()
	time.Sleep(5 * time.Millisecond)
	if rep2, err := done.Wait(); err != nil || rep2 != rep {
		t.Fatalf("a cancel after completion changed the outcome: %+v, %v", rep2, err)
	}
	if got := svc.JobsCompleted(); got != completed || got != 4 {
		t.Fatalf("JobsCompleted = %d, want %d (4 jobs, each finalized once)", got, completed)
	}
	settle(t, before, "after every edge")
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServiceDeadlineRacesCompletion sweeps JobMaxWall across a job's
// own run time, so budgets expire before dispatch finishes, mid-tree,
// inside the final completion bracket and just after it. Whichever side
// wins, the job resolves once — to the right root or to a
// JobCanceledError — and the pool stays quiescent.
func TestServiceDeadlineRacesCompletion(t *testing.T) {
	svc := newRTService(t, uniaddr.ServiceWorkers(2))
	spec := workloads.Fib(10, 0)
	const jobs = 400
	var canceled int
	for i := 0; i < jobs; i++ {
		budget := time.Duration(1+i%100) * time.Microsecond
		job, err := svc.Submit(context.Background(), spec.Fid, spec.Locals, spec.Init, uniaddr.JobMaxWall(budget))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := job.Wait()
		var jce *uniaddr.JobCanceledError
		switch {
		case err == nil && rep.Root == spec.Expected && rep.Tasks == rep.Spawns+1:
		case errors.As(err, &jce):
			canceled++
		default:
			t.Fatalf("job %d (budget %v): root %d tasks %d spawns %d err %v", job.ID(), budget, rep.Root, rep.Tasks, rep.Spawns, err)
		}
	}
	t.Logf("%d of %d jobs lost to their budget", canceled, jobs)
	if got := svc.JobsCompleted(); got != jobs {
		t.Errorf("JobsCompleted = %d, want %d", got, jobs)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRunAllocs pins what a warm one-task rt Run allocates: a one-job
// pool built over recycled worker memory, run and closed. Reading the
// options costs nothing; a Service wrapped around the run, a closure per
// option, or a per-run structure that stops being recycled shows up here.
func TestRunAllocs(t *testing.T) {
	spec := workloads.Fib(1, 0)
	got := testing.AllocsPerRun(100, func() {
		rep, err := uniaddr.Run(spec.Fid, spec.Locals, spec.Init,
			uniaddr.WithBackend(uniaddr.BackendRT), uniaddr.WithWorkers(1))
		if err != nil || rep.Root != spec.Expected {
			t.Fatalf("root %d err %v, want %d", rep.Root, err, spec.Expected)
		}
	})
	t.Logf("%.1f allocs per one-task rt Run", got)
	if got > 25 {
		t.Errorf("%.1f allocs per one-task rt Run, want <= 25", got)
	}
}

// TestColdRunAllocBytes is the host-independent cold-path guard: once
// one Run has been and gone, the next builds its pool from the first
// one's worker memory, so a whole cold Run of a one-task job allocates
// kilobytes where building arena, deque and record table afresh is
// ~3 MB per worker.
func TestColdRunAllocBytes(t *testing.T) {
	spec := workloads.Fib(1, 0)
	run := func() {
		rep, err := uniaddr.Run(spec.Fid, spec.Locals, spec.Init,
			uniaddr.WithBackend(uniaddr.BackendRT), uniaddr.WithWorkers(1))
		if err != nil || rep.Root != spec.Expected {
			t.Fatalf("root %d err %v, want %d", rep.Root, err, spec.Expected)
		}
	}
	run() // warm-up: stocks the free list
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("a cold Run allocated %d bytes, want < 64 KiB", got)
	} else {
		t.Logf("a cold Run allocated %d bytes", got)
	}
}
