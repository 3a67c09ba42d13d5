package rt

import (
	"errors"
	"strings"
	"testing"
	"time"

	"uniaddr/internal/core"
	"uniaddr/internal/workloads"
)

// dropShelf closes every resident pool, handing its memory back to the
// free list, so a test starts with no pool parked between Runs.
func dropShelf() {
	shelf.mu.Lock()
	ps := shelf.pools
	shelf.pools = nil
	shelf.mu.Unlock()
	for _, p := range ps {
		p.Close()
	}
}

// shelved returns the resident pools, oldest first.
func shelved() []*Pool {
	shelf.mu.Lock()
	defer shelf.mu.Unlock()
	return append([]*Pool(nil), shelf.pools...)
}

// onlyShelved returns the one resident pool, failing unless there is
// exactly one.
func onlyShelved(t *testing.T) *Pool {
	t.Helper()
	ps := shelved()
	if len(ps) != 1 {
		t.Fatalf("%d pools resident, want 1", len(ps))
	}
	return ps[0]
}

func sameWorkers(a, b *Pool) bool {
	for i := range a.workers {
		if a.workers[i] != b.workers[i] {
			return false
		}
	}
	return len(a.workers) == len(b.workers)
}

// TestRunReusesResidentPool: 50 Runs of one layout, over three tree
// shapes and varying seed, grain and steal batch, all run on the
// workers of the first, and each reports its own counters — a one-task
// probe after a stolen tree reports one frame of stack and no steals,
// and each run mints exactly one root chain token.
func TestRunReusesResidentPool(t *testing.T) {
	emptyMemCache()
	defer dropShelf()
	specs := []workloads.Spec{
		workloads.Fib(14, 20),
		workloads.Fib(1, 0), // the one-task probe
		workloads.UTS(19, 6, workloads.DefaultUTSB0, 20),
		workloads.BTC(6, 2, 20),
	}
	grains := []uint64{0, core.GrainAuto, 4}
	var first *Pool
	for i := 0; i < 50; i++ {
		spec := specs[i%len(specs)]
		cfg := DefaultConfig(2)
		cfg.Seed = uint64(i) + 1
		cfg.Grain = grains[i%len(grains)]
		cfg.StealBatch = i % 3
		cfg.MaxWall = time.Minute
		r := New(cfg)
		got, err := r.Run(spec.Fid, spec.Locals, spec.Init)
		if err != nil || got != spec.Expected {
			t.Fatalf("run %d (%s): result %d err %v, want %d", i, spec.Name, got, err, spec.Expected)
		}
		ts := r.TotalStats()
		if ts.TasksExecuted != ts.Spawns+1 {
			t.Errorf("run %d (%s): %d tasks, %d spawns: not one job's counts", i, spec.Name, ts.TasksExecuted, ts.Spawns)
		}
		if ts.ChainTokens != ts.StealBatches+ts.Suspends+1 || ts.ChainEnds != ts.ChainTokens {
			t.Errorf("run %d (%s): %d chain tokens, %d ends, %d steal batches, %d suspends: not one job's",
				i, spec.Name, ts.ChainTokens, ts.ChainEnds, ts.StealBatches, ts.Suspends)
		}
		if ts.StealBatchEntries != ts.StealsOK || (ts.StealsOK == 0) != (ts.BytesStolen == 0) {
			t.Errorf("run %d (%s): %d stolen in %d entries, %d bytes", i, spec.Name, ts.StealsOK, ts.StealBatchEntries, ts.BytesStolen)
		}
		if i%len(specs) == 1 {
			if want := core.FrameBytes(spec.Locals); ts.MaxStackUsed != want || ts.StealsOK != 0 || ts.BytesStolen != 0 {
				t.Errorf("run %d (one task): stack %d steals %d bytes %d, want %d, 0, 0",
					i, ts.MaxStackUsed, ts.StealsOK, ts.BytesStolen, want)
			}
		} else if ts.MaxStackUsed == 0 {
			t.Errorf("run %d (%s): no stack used", i, spec.Name)
		}
		p := onlyShelved(t)
		if first == nil {
			first = p
		} else if !sameWorkers(p, first) {
			t.Fatalf("run %d ran on other workers than run 0", i)
		}
	}
}

// TestFailedRunDiscardsItsPool: a Run whose task panics and a Run that
// exceeds its MaxWall each fail with their own error, take the resident
// pool down with them, and the next Run succeeds on a fresh pool.
func TestFailedRunDiscardsItsPool(t *testing.T) {
	emptyMemCache()
	defer dropShelf()
	boom := core.Register("rt_test.resident-panic", func(e *core.Env) core.Status {
		panic("boom")
	})
	ok := workloads.Fib(10, 0)
	clean := func() *Pool {
		t.Helper()
		cfg := DefaultConfig(2)
		if got, err := New(cfg).Run(ok.Fid, ok.Locals, ok.Init); err != nil || got != ok.Expected {
			t.Fatalf("clean run: result %d err %v, want %d", got, err, ok.Expected)
		}
		return onlyShelved(t)
	}
	for _, fail := range []struct {
		name string
		run  func() error
		want func(error) bool
	}{
		{"panic", func() error {
			_, err := New(DefaultConfig(2)).Run(boom, 8, nil)
			return err
		}, func(err error) bool { return err != nil && strings.Contains(err.Error(), "panicked") }},
		{"max-wall", func() error {
			cfg := DefaultConfig(2)
			cfg.MaxWall = 30 * time.Millisecond
			heavy := workloads.Fib(26, 2000)
			_, err := New(cfg).Run(heavy.Fid, heavy.Locals, heavy.Init)
			return err
		}, func(err error) bool { var te *TimeoutError; return errors.As(err, &te) }},
	} {
		before := clean()
		if err := fail.run(); !fail.want(err) {
			t.Fatalf("%s: got %v", fail.name, err)
		}
		if n := len(shelved()); n != 0 {
			t.Fatalf("%s: %d pools resident after a failed run, want 0", fail.name, n)
		}
		if after := clean(); sameWorkers(after, before) {
			t.Fatalf("%s: the next run reused the failed run's workers", fail.name)
		}
		dropShelf()
	}
}

// TestFreshRunsBypassTheShelf: a Run with a fault plan and a Run with a
// recorder each build a pool of their own and close it, leaving the
// resident pool of their layout where it was.
func TestFreshRunsBypassTheShelf(t *testing.T) {
	emptyMemCache()
	defer dropShelf()
	spec := workloads.Fib(12, 0)
	if _, err := New(DefaultConfig(2)).Run(spec.Fid, spec.Locals, spec.Init); err != nil {
		t.Fatal(err)
	}
	resident := onlyShelved(t)
	faulty := DefaultConfig(2)
	faulty.Fault.StealClaimFailProb = 0.1
	observed := DefaultConfig(2)
	observed.Obs = true
	for name, cfg := range map[string]Config{"fault plan": faulty, "obs": observed} {
		r := New(cfg)
		if got, err := r.Run(spec.Fid, spec.Locals, spec.Init); err != nil || got != spec.Expected {
			t.Fatalf("%s: result %d err %v, want %d", name, got, err, spec.Expected)
		}
		if (r.Obs() != nil) != cfg.Obs {
			t.Errorf("%s: recorder %v with Obs %v", name, r.Obs() != nil, cfg.Obs)
		}
		if ts := r.TotalStats(); ts.TasksExecuted != ts.Spawns+1 {
			t.Errorf("%s: %d tasks, %d spawns", name, ts.TasksExecuted, ts.Spawns)
		}
		if p := onlyShelved(t); p != resident {
			t.Fatalf("%s: the shelf changed under a fresh run", name)
		}
	}
}
