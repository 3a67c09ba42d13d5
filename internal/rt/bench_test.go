package rt

import (
	"fmt"
	"runtime"
	"testing"

	"uniaddr/internal/core"
	"uniaddr/internal/mem"
	"uniaddr/internal/sched"
	"uniaddr/internal/workloads"
)

// Microbenchmarks for the rt hot paths. CI runs them with
// -benchtime=1x as a smoke test; locally, `go test -bench . -run '^$'
// ./internal/rt` gives the real numbers, and -cpuprofile/-memprofile
// work as usual. The e2e benchmarks report ns/task and allocs/task;
// both include each iteration's whole Run (the first one builds its
// pool), so they are for reading trends — the regression guard for "the
// steady-state spawn/join path must not allocate" is
// TestSpawnPathAllocFree (spawn_test.go), which measures a warm pool.

func BenchmarkNewFrame(b *testing.B) {
	w := parkRig(1).workers[0]
	const size = 128
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := w.NewFrame(1, size-core.FrameHeaderBytes, 0, 0)
		if err := w.Arena.FreeLowest(e.FrameBase(), size); err != nil {
			b.Fatal(err)
		}
		w.PutEnv(e)
	}
}

func BenchmarkArenaReadU64(b *testing.B) {
	a := mem.NewArena(0x1000, 4096)
	a.WriteU64(0x1100, 7)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += a.ReadU64(0x1100)
	}
	_ = sink
}

func BenchmarkArenaWriteU64(b *testing.B) {
	a := mem.NewArena(0x1000, 4096)
	for i := 0; i < b.N; i++ {
		a.WriteU64(0x1100, uint64(i))
	}
}

func BenchmarkDequePushPop(b *testing.B) {
	d := sched.NewDeque(1 << 10)
	e := sched.Entry{FrameBase: 0x1000, FrameSize: 128}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := d.Push(e); err != nil {
			b.Fatal(err)
		}
		if _, ok := d.Pop(nil); !ok {
			b.Fatal("pop failed")
		}
	}
}

// BenchmarkStealRoundTrip measures the full thief-side sequence —
// claim under the victim's FAA lock, install, cross-arena memcpy,
// commit — for a 128-byte frame.
func BenchmarkStealRoundTrip(b *testing.B) {
	r := parkRig(2)
	victim, thief := r.workers[0], r.workers[1]
	const size = 128
	base := victim.NewFrame(1, size-core.FrameHeaderBytes, 0, 0).FrameBase()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := victim.Deque.Push(sched.Entry{FrameBase: base, FrameSize: size}); err != nil {
			b.Fatal(err)
		}
		ent, outcome := victim.Deque.StealBegin()
		if outcome != sched.StealOK {
			b.Fatalf("steal outcome %v", outcome)
		}
		if err := thief.Arena.Install(ent.FrameBase, ent.FrameSize); err != nil {
			b.Fatal(err)
		}
		src, err := victim.Arena.Slice(ent.FrameBase, ent.FrameSize)
		if err != nil {
			b.Fatal(err)
		}
		copy(thief.Arena.MustSlice(ent.FrameBase, ent.FrameSize), src)
		victim.Deque.StealCommit()
		thief.Arena.Clear()
	}
}

// benchRun executes spec once per iteration and reports ns/task and
// allocs/op across whole Runs.
func benchRun(b *testing.B, spec workloads.Spec, workers int) {
	b.Helper()
	b.ReportAllocs()
	var tasks uint64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig(workers)
		cfg.Seed = uint64(i) + 1
		r := New(cfg)
		got, err := r.Run(spec.Fid, spec.Locals, spec.Init)
		if err != nil {
			b.Fatal(err)
		}
		if got != spec.Expected {
			b.Fatalf("result %d, want %d", got, spec.Expected)
		}
		tasks += r.TotalStats().TasksExecuted
	}
	runtime.ReadMemStats(&after)
	if tasks > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(tasks), "ns/task")
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(tasks), "allocs/task")
	}
}

// BenchmarkSpawnJoin is the pure scheduling cost: a fib tree with zero
// per-task work, so ns/task is spawn+join+frame overhead.
func BenchmarkSpawnJoin(b *testing.B) {
	benchRun(b, workloads.Fib(18, 0), 1)
}

// BenchmarkSuspendResume drives the swap-out/park/precise-wake/resume
// path: PingPong's joins almost always miss.
func BenchmarkSuspendResume(b *testing.B) {
	benchRun(b, workloads.PingPong(128, 200, 0), 2)
}

func BenchmarkFibE2E(b *testing.B) {
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchRun(b, workloads.Fib(20, 50), workers)
		})
	}
}

func BenchmarkNQueensE2E(b *testing.B) {
	b.Run("workers=8", func(b *testing.B) {
		benchRun(b, workloads.NQueens(8, 50), 8)
	})
}
