package rt

import (
	"runtime"
	"testing"
	"time"

	"uniaddr/internal/core"
	"uniaddr/internal/workloads"
)

// TestSpawnPathAllocFree is the regression guard for the closure-free
// spawn: on a warm pool a whole task tree costs a fixed handful of
// Go-heap allocations (the Submit itself), none per task. A spawn whose
// init literal escapes shows up here as ≈1 malloc/task, a closure
// factory as ≈2.
func TestSpawnPathAllocFree(t *testing.T) {
	cfg := DefaultConfig(1)
	p, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for _, spec := range []workloads.Spec{
		workloads.Fib(20, 0),
		workloads.UTS(19, 8, workloads.DefaultUTSB0, 0),
		workloads.BTC(12, 1, 0),
		workloads.NQueens(8, 0),
	} {
		run := func() JobResult {
			tk, err := p.Submit(spec.Fid, spec.Locals, spec.Init, JobParams{})
			if err != nil {
				t.Fatalf("%s: %v", spec.Name, err)
			}
			res, err := tk.Wait()
			if err != nil || res.Result != spec.Expected {
				t.Fatalf("%s: result %d err %v, want %d", spec.Name, res.Result, err, spec.Expected)
			}
			return res
		}
		run() // warm-up: Env/record pools reach this tree's high-water mark
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := run()
		runtime.ReadMemStats(&after)
		mallocs := after.Mallocs - before.Mallocs
		if per := float64(mallocs) / float64(res.Tasks); per > 0.01 {
			t.Errorf("%s: %d mallocs over %d tasks = %.4f allocs/task, want <= 0.01",
				spec.Name, mallocs, res.Tasks, per)
		}
	}
}

// A parent that spawns one leaf whose init copies an argument out of
// the parent's frame, for TestStealDuringSpawnInit.
const (
	swArg    = 0
	swH      = 1
	swLocals = 16
)

var (
	swLeafFID   = core.Register("rt-test-spawn-window-leaf", swLeafTask)
	swParentFID = core.Register("rt-test-spawn-window-parent", swParentTask)
	// swInInit runs inside the leaf's init, i.e. between ExecSpawnBegin
	// and ExecSpawnRun.
	swInInit func()
)

func swLeafTask(e *core.Env) core.Status {
	e.ReturnU64(2 * e.U64(swArg))
	return core.Done
}

func swParentTask(e *core.Env) core.Status {
	switch e.RP() {
	case 0:
		if !e.Spawn(1, swH, swLeafFID, 8, func(c *core.Env) {
			swInInit()
			c.SetU64(swArg, e.U64(swArg))
		}) {
			return core.Unwound
		}
		fallthrough
	case 1:
		r, ok := e.Join(1, e.HandleAt(swH))
		if !ok {
			return core.Unwound
		}
		e.ReturnU64(1 + r)
		return core.Done
	}
	panic("spawn-window: bad resume point")
}

// TestStealDuringSpawnInit pins the window Env.Spawn opens between its
// two halves: the continuation is already on the deque while init runs,
// so a thief may take the parent before the child has its arguments.
// Here init holds the window open until the thief HAS claimed the
// parent, then reads the (now dead) local copy of the parent's frame.
func TestStealDuringSpawnInit(t *testing.T) {
	cfg := DefaultConfig(2)
	r := New(cfg)
	queued := func() (n uint64) {
		for _, w := range r.workers {
			n += w.Deque.Size()
		}
		return n
	}
	swInInit = func() {
		// The parent's continuation is the only entry this run ever
		// pushes: the deques are empty again once a thief claimed it.
		for deadline := time.Now().Add(10 * time.Second); queued() != 0; time.Sleep(20 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Error("no thief took the published parent while init ran")
				return
			}
		}
	}
	got, err := r.Run(swParentFID, swLocals, func(e *core.Env) { e.SetU64(swArg, 21) })
	if err != nil {
		t.Fatal(err)
	}
	if got != 43 {
		t.Errorf("result %d, want 43", got)
	}
	if ts := r.TotalStats(); ts.StealsOK != 1 || ts.ParentStolen != 1 {
		t.Errorf("StealsOK %d ParentStolen %d, want 1 and 1", ts.StealsOK, ts.ParentStolen)
	}
}
