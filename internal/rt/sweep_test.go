package rt

import (
	"errors"
	"testing"
	"time"

	"uniaddr/internal/core"
	"uniaddr/internal/workloads"
)

// sweepChildFID, given k in its slot 0, closes sweepStarted[k], blocks
// on sweepGates[k] and returns k+1; sweepRootFID spawns it with k = 0
// and 1 and joins both.
var (
	sweepGates, sweepStarted [2]chan struct{}
	sweepChildFID            = core.Register("rt.sweepchild", func(e *core.Env) core.Status {
		k := e.U64(0)
		close(sweepStarted[k])
		<-sweepGates[k]
		e.ReturnU64(k + 1)
		return core.Done
	})
	sweepRootFID = core.Register("rt.sweeproot", func(e *core.Env) core.Status {
		switch e.RP() {
		case 0:
			if !e.Spawn(1, 0, sweepChildFID, 8, func(c *core.Env) { c.SetU64(0, 0) }) {
				return core.Unwound
			}
			fallthrough
		case 1:
			if !e.Spawn(2, 1, sweepChildFID, 8, func(c *core.Env) { c.SetU64(0, 1) }) {
				return core.Unwound
			}
			fallthrough
		case 2:
			r, ok := e.Join(2, e.HandleAt(0))
			if !ok {
				return core.Unwound
			}
			e.SetU64(2, r)
			fallthrough
		case 3:
			r, ok := e.Join(3, e.HandleAt(1))
			if !ok {
				return core.Unwound
			}
			e.ReturnU64(e.U64(2) + r)
			return core.Done
		}
		panic("sweeproot: bad resume point")
	})
)

// TestPoolRetenantsBeforeCanceledJobIsSwept: a canceled job's drained
// frames leak records into two workers' tables; the job's one slot is let
// to the next job, which reaches its oracle result while one owner has
// still not swept its leak; Close sweeps it and finds the pool clean.
//
// The root runs its first child on worker A, blocked on gate 0; worker B
// steals the root and runs its second child, blocked on gate 1; the job
// is canceled. Gate 0 opens: A's Pop of the root fails, so A steals the
// root back from B and drains it — the handles of both children die with
// it — and parks. Gate 1 opens: B's child completes, B ends the job's last
// chain, finalizes and posts the sweep to both workers, sweeps its own
// table and parks after A. The next job wakes B, the most recently parked
// worker, and spawns nothing, so A stays parked with its leak posted.
func TestPoolRetenantsBeforeCanceledJobIsSwept(t *testing.T) {
	for k := range sweepGates {
		sweepGates[k], sweepStarted[k] = make(chan struct{}), make(chan struct{})
	}
	cfg := DefaultConfig(2)
	cfg.MaxJobs = 1
	cfg.MaxWall = 30 * time.Second
	p, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	parked := func(n int) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); p.ParkedWorkers() != n; time.Sleep(50 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d workers parked, want %d", p.ParkedWorkers(), n)
			}
		}
	}
	tk, err := p.Submit(sweepRootFID, 3*8, nil, JobParams{})
	if err != nil {
		t.Fatal(err)
	}
	<-sweepStarted[0]
	<-sweepStarted[1]
	cause := errors.New("operator abort")
	if !p.Cancel(tk, cause) {
		t.Fatal("Cancel of the running job reported it finalized")
	}
	close(sweepGates[0])
	parked(1) // A, after draining the root
	close(sweepGates[1])
	res, err := tk.Wait()
	if !errors.Is(err, cause) || res.Tasks != 3 || res.Spawns != 2 {
		t.Fatalf("canceled job: tasks %d spawns %d err %v, want 3, 2 and the cancel", res.Tasks, res.Spawns, err)
	}
	parked(2)

	next := workloads.Fib(1, 0)
	ntk, err := p.Submit(next.Fid, next.Locals, next.Init, JobParams{})
	if err != nil {
		t.Fatal(err)
	}
	if nres, err := ntk.Wait(); err != nil || nres.Result != next.Expected {
		t.Fatalf("the slot's next job: result %d err %v, want %d", nres.Result, err, next.Expected)
	}
	parked(2)
	// Both workers are parked, so their tables are quiet: one of them
	// still holds the leak it was posted.
	unswept, live := 0, 0
	for _, w := range p.workers {
		if w.sweepPosted.Load() {
			unswept++
		}
		live += w.Records.Live()
	}
	if unswept != 1 || live != 1 {
		t.Fatalf("after the next job: %d workers with a sweep pending and %d records live, want 1 and 1", unswept, live)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if n := p.TotalStats().RecordsLive; n != 0 {
		t.Fatalf("Close left %d records live", n)
	}
}
