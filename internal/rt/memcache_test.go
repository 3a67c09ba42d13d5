package rt

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"uniaddr/internal/mem"
	"uniaddr/internal/workloads"
)

// emptyMemCache drops whatever earlier tests shelved, so a test can
// tell its own pools' memory from theirs.
func emptyMemCache() {
	memCache.mu.Lock()
	memCache.n, memCache.free = 0, [memCacheCap]workerMem{}
	memCache.mu.Unlock()
}

func memCacheLen() int {
	memCache.mu.Lock()
	defer memCache.mu.Unlock()
	return memCache.n
}

// poolArenas is the identity of the memory a runtime's workers run on.
func poolArenas(r *Runtime) map[*mem.Arena]bool {
	m := map[*mem.Arena]bool{}
	for _, w := range r.workers {
		m[w.Arena] = true
	}
	return m
}

func runOnPool(t *testing.T, p *Pool, spec workloads.Spec) JobResult {
	t.Helper()
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

// TestPoolsRecycleWorkerMemory runs a suspend-heavy job on pools of 4,
// then 2, then 4 workers, then on a 4-worker Run, back to back: the
// later ones must run on the first pool's memory, and run right, and a
// Run must hand its memory back as a pool does, with no record live.
// PingPong suspends its main thread every round, so the first pool
// leaves its tables full of records that named a waiter: a rank a
// resume forgot to clear would index the 2-worker pool's workers out of
// range at the record's next completion, and fails the quiescence check
// of the pool that left it.
func TestPoolsRecycleWorkerMemory(t *testing.T) {
	emptyMemCache()
	// A child long enough (~100 µs) that the woken thief has taken the
	// parent and reached its join well before the child completes.
	spec := workloads.PingPong(64, 200_000, 0)
	var first map[*mem.Arena]bool
	for i, in := range []struct {
		workers int
		run     bool // rt.New(cfg).Run rather than a pool of three jobs
	}{{4, false}, {2, false}, {4, false}, {4, true}} {
		var r *Runtime
		if in.run {
			r = New(DefaultConfig(in.workers))
		} else {
			p, err := NewPool(DefaultConfig(in.workers))
			if err != nil {
				t.Fatal(err)
			}
			r = p.r
		}
		arenas := poolArenas(r)
		if i == 0 {
			first = arenas
		} else {
			for a := range arenas {
				if !first[a] {
					t.Errorf("input %d (%d workers) runs on memory the first pool never owned", i, in.workers)
				}
			}
		}
		if in.run {
			if got, err := r.Run(spec.Fid, spec.Locals, spec.Init); err != nil || got != spec.Expected {
				t.Fatalf("Run: result %d err %v, want %d", got, err, spec.Expected)
			}
		} else {
			p := &Pool{r}
			for j := 0; j < 3; j++ {
				runOnPool(t, p, spec)
			}
			if err := p.Close(); err != nil {
				t.Fatalf("pool %d (%d workers): %v", i, in.workers, err)
			}
		}
		ts := r.TotalStats()
		if ts.Suspends == 0 && runtime.GOMAXPROCS(0) > 1 {
			t.Fatalf("input %d: PingPong never suspended; the test exercises nothing", i)
		}
		if ts.RecordsLive != 0 {
			t.Errorf("input %d: %d records live after it closed", i, ts.RecordsLive)
		}
	}
	if got := memCacheLen(); got != 4 {
		t.Errorf("%d bundles shelved after the 4-worker Run, want 4", got)
	}
}

// TestFailedPoolIsNotRecycled: memory leaves a pool only through a
// clean Close. A pool that died contributes nothing, and neither does
// one whose quiescence check fails — here because a record still names
// a waiter, which is also the check's own regression test.
func TestFailedPoolIsNotRecycled(t *testing.T) {
	emptyMemCache()
	cfg := DefaultConfig(2)
	cfg.MaxWall = 30 * time.Millisecond
	p, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	heavy := workloads.Fib(26, 2000)
	tk, err := p.Submit(heavy.Fid, heavy.Locals, heavy.Init, JobParams{})
	if err != nil {
		t.Fatal(err)
	}
	var te *TimeoutError
	if _, err := tk.Wait(); !errors.As(err, &te) {
		t.Fatalf("ticket after watchdog: got %v, want TimeoutError", err)
	}
	if err := p.Close(); !errors.As(err, &te) {
		t.Fatalf("Close after watchdog: got %v, want TimeoutError", err)
	}
	if got := memCacheLen(); got != 0 {
		t.Fatalf("a failed pool shelved %d bundles", got)
	}

	p, err = NewPool(DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	runOnPool(t, p, workloads.Fib(10, 0))
	// The one worker allocated the root from its own table: record 0 is
	// touched, and free. Nothing runs now, so nobody else writes it.
	p.r.workers[0].Records.Get(0).Waiter.Store(1)
	if err := p.Close(); err == nil || !strings.Contains(err.Error(), "name a waiter") {
		t.Fatalf("Close over a leftover waiter: got %v, want the quiescence error", err)
	}
	if got := memCacheLen(); got != 0 {
		t.Fatalf("a pool that failed quiescence shelved %d bundles", got)
	}
}

// TestPoolTotalStatsSurviveReuse: TotalStats is a snapshot taken at
// Close, so a later pool working the same memory harder — a deeper
// stack moves the recycled arena's high-water mark — cannot change it.
func TestPoolTotalStatsSurviveReuse(t *testing.T) {
	emptyMemCache()
	a, err := NewPool(DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	arenas := poolArenas(a.r)
	runOnPool(t, a, workloads.Fib(8, 0))
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	want := a.TotalStats()
	if want.TasksExecuted == 0 || want.MaxStackUsed == 0 {
		t.Fatalf("empty snapshot: %+v", want)
	}
	b, err := NewPool(DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	for ar := range poolArenas(b.r) {
		if !arenas[ar] {
			t.Fatal("the second pool did not reuse the first one's memory; the test exercises nothing")
		}
	}
	runOnPool(t, b, workloads.Fib(20, 0))
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if bs := b.TotalStats(); bs.MaxStackUsed <= want.MaxStackUsed {
		t.Fatalf("second pool's stack %d no deeper than the first's %d", bs.MaxStackUsed, want.MaxStackUsed)
	}
	if got := a.TotalStats(); got != want {
		t.Errorf("first pool's TotalStats changed after its memory was reused:\n got %+v\nwant %+v", got, want)
	}
}

// TestMemCacheBoundedAndKeyed: the shelf holds at most memCacheCap
// bundles, oldest out first, and a layout only ever gets its own.
func TestMemCacheBoundedAndKeyed(t *testing.T) {
	emptyMemCache()
	defer emptyMemCache()
	ka := memKey{arenaSize: 4096, dequeCap: 16, recordCap: 16}
	kb := ka
	kb.arenaSize = 8192
	oldest := takeWorkerMem(ka)
	putWorkerMem(oldest)
	var fresh []workerMem
	for i := 0; i < memCacheCap; i++ {
		fresh = append(fresh, takeWorkerMem(kb)) // a miss each time: the shelf holds only ka
	}
	for _, m := range fresh {
		putWorkerMem(m)
	}
	if got := memCacheLen(); got != memCacheCap {
		t.Fatalf("shelf holds %d bundles, want the cap %d", got, memCacheCap)
	}
	if m := takeWorkerMem(ka); m.Arena == oldest.Arena {
		t.Error("the oldest bundle survived a full shelf's worth of newer ones")
	}
	if got := memCacheLen(); got != memCacheCap {
		t.Errorf("a miss took a bundle of another layout: %d left of %d", got, memCacheCap)
	}
	if m := takeWorkerMem(kb); m.Arena != fresh[memCacheCap-1].Arena {
		t.Error("a hit did not return the most recently shelved bundle of its layout")
	}
}
