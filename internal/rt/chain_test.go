package rt_test

import (
	"errors"
	"testing"
	"time"

	"uniaddr/internal/core"
	"uniaddr/internal/rt"
	"uniaddr/internal/workloads"
)

// Job quiescence is counted in live chains (sched.JobSlot.Live), not in
// tasks: these tests pin the two things that buys and must not cost.

// waitParked polls until exactly n workers are blocked on the parking lot.
func waitParked(t *testing.T, p *rt.Pool, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); p.ParkedWorkers() != n; time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d workers parked, want %d", p.ParkedWorkers(), n)
		}
	}
}

// TestPoolOrphanChainHoldsCanceledJob is the false closure the per-task
// counters guarded against. The root spawns a child that blocks on a
// gate; the other worker steals the root's continuation, misses the join,
// suspends it and runs dry; the job is canceled. Every chain but one has
// ended and nothing of the job will move until the gate opens, yet the
// job is not quiescent: the victim still holds the chain the child runs
// on. The ticket must stay unresolved until then, resolve to the
// cancellation, leave no record behind, and hand the one slot on intact.
func TestPoolOrphanChainHoldsCanceledJob(t *testing.T) {
	cfg := rt.DefaultConfig(2)
	cfg.MaxJobs = 1
	cfg.MaxWall = 30 * time.Second // a token lost or never retired hangs the ticket, not the test
	p := newPool(t, cfg)
	gate, stolen := make(chan struct{}), make(chan struct{})
	childFID := core.Register("rt_test.orphanchild", func(e *core.Env) core.Status {
		<-gate
		e.ReturnU64(1)
		return core.Done
	})
	rootFID := core.Register("rt_test.orphanroot", func(e *core.Env) core.Status {
		switch e.RP() {
		case 0:
			if !e.Spawn(1, 0, childFID, 8, func(*core.Env) {}) {
				return core.Unwound
			}
			fallthrough
		case 1:
			// Only a thief gets here while the child is blocked: the
			// spawning worker is inside it.
			select {
			case <-stolen:
			default:
				close(stolen)
			}
			r, ok := e.Join(1, e.HandleAt(0))
			if !ok {
				return core.Unwound
			}
			e.ReturnU64(8 + r)
			return core.Done
		}
		panic("orphanroot: bad resume point")
	})
	tk, err := p.Submit(rootFID, 8, nil, rt.JobParams{})
	if err != nil {
		t.Fatal(err)
	}
	<-stolen
	waitParked(t, p, 1) // the thief suspended the root, ended its chain and found nothing else
	cause := errors.New("operator abort")
	if !p.Cancel(tk, cause) {
		t.Fatal("Cancel of the running job reported it finalized")
	}
	waitParked(t, p, 1) // woken by the cancel, the thief finds nothing to drain
	select {
	case <-tk.Done():
		close(gate)
		t.Fatal("canceled job finalized while its child was still running on the victim's chain")
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	res, err := tk.Wait()
	var jce *rt.JobCanceledError
	if !errors.As(err, &jce) || !errors.Is(err, cause) {
		t.Fatalf("after the gate opened: result %d err %v, want JobCanceledError(%v)", res.Result, err, cause)
	}
	// The child ran, the root was drained at its resume.
	if res.Tasks != 2 || res.Spawns != 1 {
		t.Errorf("canceled job reports %d tasks, %d spawns, want 2 and 1", res.Tasks, res.Spawns)
	}
	next := workloads.Fib(12, 0)
	waitSpec(t, submitSpec(t, p, next, rt.JobParams{}), next)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// Job 1: dispatch, one steal, one suspend. Job 2: at least its dispatch.
	if st := p.TotalStats(); st.ChainTokens != st.ChainEnds || st.ChainTokens < 4 {
		t.Errorf("ChainTokens %d, ChainEnds %d, want equal and at least 4", st.ChainTokens, st.ChainEnds)
	}
}

// TestJobWordsMoveOnlyAtChainEdges is the "no job word on the task path"
// guard: a job's shared accounting word moves once per chain edge — a
// dispatch, a successful steal batch, a suspend, each matched by one
// chain end — however many tasks run in between.
func TestJobWordsMoveOnlyAtChainEdges(t *testing.T) {
	// One worker: no steal, no suspend. 21891 tasks, two RMWs.
	fib := workloads.Fib(20, 0)
	p := newPool(t, rt.DefaultConfig(1))
	res := waitSpec(t, submitSpec(t, p, fib, rt.JobParams{}), fib)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if st := p.TotalStats(); st.ChainTokens != 1 || st.ChainEnds != 1 {
		t.Errorf("a one-worker job of %d tasks: ChainTokens %d, ChainEnds %d, want 1 and 1", res.Tasks, st.ChainTokens, st.ChainEnds)
	}

	// Two workers on an unbalanced tree: every token is a counted event.
	const jobs = 4
	uts := workloads.UTS(1, 11, workloads.DefaultUTSB0, 100)
	cfg := rt.DefaultConfig(2)
	cfg.MaxJobs = 2
	p = newPool(t, cfg)
	var tks [jobs]*rt.Ticket
	for i := range tks {
		tks[i] = submitSpec(t, p, uts, rt.JobParams{})
	}
	for _, tk := range tks {
		waitSpec(t, tk, uts)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	st := p.TotalStats()
	if want := st.StealBatches + st.Suspends + jobs; st.ChainTokens != want || st.ChainEnds != want {
		t.Errorf("ChainTokens %d, ChainEnds %d, want both = %d steal batches + %d suspends + %d jobs",
			st.ChainTokens, st.ChainEnds, st.StealBatches, st.Suspends, jobs)
	}
	t.Logf("%d tasks, %d steal batches, %d suspends, %d tokens", st.TasksExecuted, st.StealBatches, st.Suspends, st.ChainTokens)
}

// TestSharedPublishesOnlyWhereAHandleCanEscape is the guard on the record
// half of the task path: a completion pays the shared publish (a seq-cst
// done store, the Waiter load, the root check) only where another worker
// can hold its record's handle — a root, a frame the scheduler loop
// entered (stolen, resumed, or left on the deque by a steal batch), an
// inline child whose parent was stolen. Every other completion is plain
// stores, so a task that spawns, runs its child and pops its parent back
// makes no serialising store to its record.
func TestSharedPublishesOnlyWhereAHandleCanEscape(t *testing.T) {
	// One worker: nothing escapes but the root.
	fib := workloads.Fib(20, 0)
	p := newPool(t, rt.DefaultConfig(1))
	res := waitSpec(t, submitSpec(t, p, fib, rt.JobParams{}), fib)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if st := p.TotalStats(); st.SharedPublishes != 1 {
		t.Errorf("a one-worker job of %d tasks: %d shared publishes, want 1 (the root)", res.Tasks, st.SharedPublishes)
	}

	// Two workers on an unbalanced tree: every shared publish is a root or
	// follows a counted event.
	const jobs = 4
	uts := workloads.UTS(1, 11, workloads.DefaultUTSB0, 100)
	cfg := rt.DefaultConfig(2)
	cfg.MaxJobs = 2
	p = newPool(t, cfg)
	var tks [jobs]*rt.Ticket
	for i := range tks {
		tks[i] = submitSpec(t, p, uts, rt.JobParams{})
	}
	for _, tk := range tks {
		waitSpec(t, tk, uts)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	st := p.TotalStats()
	if bound := st.StealsOK + st.ResumesWait + st.ParentStolen + jobs; st.SharedPublishes < jobs || st.SharedPublishes > bound {
		t.Errorf("%d shared publishes, want between %d jobs and %d steals + %d resumes + %d stolen parents + %d jobs",
			st.SharedPublishes, jobs, st.StealsOK, st.ResumesWait, st.ParentStolen, jobs)
	}
	t.Logf("%d tasks, %d shared publishes", st.TasksExecuted, st.SharedPublishes)
}
