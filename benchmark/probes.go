package main

import (
	"time"

	"uniaddr/internal/core"
	"uniaddr/internal/obs"
	"uniaddr/internal/sched"
)

// Microloop probes price single operations of the leaf layers
// (internal/sched, internal/obs) through their exported functions,
// single-threaded and uncontended: the floor a task, a steal or an
// event costs before any cross-worker traffic. Each probe times batches
// of calls and reports the p10 batch, per call.

// A probe builds its state once and returns the loop over n calls.
type probe struct {
	name string
	// shrink divides the calls per batch for operations so much more
	// expensive than the rest that a full batch would take seconds.
	shrink int
	build  func() func(n int)
}

// probeFrame is the stolen-frame size the steal probes copy: the
// largest frame the suite's workloads push (a UTS range task).
const probeFrame = 128

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// stealRig is one victim (deque + arena holding n chained frames, the
// oldest at the highest address, as spawns lay them out) and one empty
// thief arena at the same base.
type stealRig struct {
	vd       *sched.Deque
	src, dst *sched.Arena
	frames   []sched.Entry
}

func newStealRig(n int) *stealRig {
	r := &stealRig{
		vd:  sched.NewDeque(core.DefaultDequeCap),
		src: sched.NewArena(core.DefaultUniBase, core.DefaultUniSize),
		dst: sched.NewArena(core.DefaultUniBase, core.DefaultUniSize),
	}
	for i := 0; i < n; i++ {
		va, err := r.src.AllocBelow(probeFrame)
		must(err)
		r.frames = append(r.frames, sched.Entry{FrameBase: va, FrameSize: probeFrame})
	}
	return r
}

func copyProbe(size uint64) func() func(int) {
	return func() func(int) {
		src := sched.NewArena(core.DefaultUniBase, core.DefaultUniSize)
		dst := sched.NewArena(core.DefaultUniBase, core.DefaultUniSize)
		return func(n int) {
			for i := 0; i < n; i++ {
				sb, err := src.Slice(core.DefaultUniBase, size)
				must(err)
				db, err := dst.Slice(core.DefaultUniBase, size)
				must(err)
				copy(db, sb)
			}
		}
	}
}

// stealBatchPushes and stealBatchTake shape the batched-steal probe:
// 16 entries pushed, steal-half takes 8 in one claim and one copy.
const (
	stealBatchPushes = 16
	stealBatchTake   = 8
)

// layerProbes lists the microloops; frameLocals is the locals size of
// the frame the arena probe allocates (the spawn_join task's).
func layerProbes(frameLocals uint32) []probe {
	return []probe{
		{name: "sched.deque_push_pop_ns", build: func() func(int) {
			d := sched.NewDeque(core.DefaultDequeCap)
			e := sched.Entry{FrameBase: core.DefaultUniBase, FrameSize: probeFrame}
			return func(n int) {
				for i := 0; i < n; i++ {
					must(d.Push(e))
					d.Pop(nil)
				}
			}
		}},
		{name: "sched.arena_alloc_free_ns", build: func() func(int) {
			a := sched.NewArena(core.DefaultUniBase, core.DefaultUniSize)
			size := core.FrameBytes(frameLocals)
			return func(n int) {
				for i := 0; i < n; i++ {
					va, err := a.AllocBelow(size)
					must(err)
					clear(a.MustSlice(va, size))
					must(a.FreeLowest(va, size))
				}
			}
		}},
		{name: "sched.arena_rw_u64_ns", build: func() func(int) {
			a := sched.NewArena(core.DefaultUniBase, core.DefaultUniSize)
			var sink uint64
			return func(n int) {
				for i := 0; i < n; i++ {
					a.WriteU64(core.DefaultUniBase, uint64(i))
					sink += a.ReadU64(core.DefaultUniBase)
				}
				a.WriteU64(core.DefaultUniBase+8, sink)
			}
		}},
		{name: "sched.record_alloc_release_ns", build: func() func(int) {
			t := sched.NewTable(1 << 16)
			return func(n int) {
				for i := 0; i < n; i++ {
					idx, err := t.Alloc()
					must(err)
					t.Get(idx).Job.Store(sched.JobTag(0))
					t.ReleaseLocal(idx)
				}
			}
		}},
		{name: "sched.jobcount_bracket_ns", build: func() func(int) {
			c := sched.NewJobCounters(openMaxJobs).Get(0)
			return func(n int) {
				for i := 0; i < n; i++ {
					c.Spawns.Add(1)
					c.Pending.Add(1)
					c.Executed.Add(1)
					c.Pending.Add(-1)
				}
			}
		}},
		{name: "sched.steal_single_ns", build: func() func(int) {
			r := newStealRig(1)
			return func(n int) {
				for i := 0; i < n; i++ {
					must(r.vd.Push(r.frames[0]))
					ent, out := r.vd.StealBegin()
					if out != sched.StealOK {
						panic("steal probe: " + out.String())
					}
					must(r.dst.Install(ent.FrameBase, ent.FrameSize))
					copy(r.dst.MustSlice(ent.FrameBase, ent.FrameSize), r.src.MustSlice(ent.FrameBase, ent.FrameSize))
					r.vd.StealCommit()
					r.dst.Clear()
				}
			}
		}},
		// One iteration re-primes the deque (16 pushes, 8 owner pops);
		// runLayerProbes subtracts that at the push_pop probe's price.
		{name: "sched.steal_batch_ns_per_entry", shrink: stealBatchPushes, build: func() func(int) {
			r := newStealRig(stealBatchPushes)
			buf := make([]sched.Entry, stealBatchTake)
			return func(n int) {
				for i := 0; i < n; i++ {
					for _, e := range r.frames {
						must(r.vd.Push(e))
					}
					k, out := r.vd.StealBeginBatch(buf)
					if out != sched.StealOK || k != stealBatchTake {
						panic("batch steal probe: " + out.String())
					}
					lo := buf[k-1].FrameBase
					size := uint64(buf[0].FrameBase-lo) + buf[0].FrameSize
					must(r.dst.Install(lo, size))
					copy(r.dst.MustSlice(lo, size), r.src.MustSlice(lo, size))
					r.vd.StealCommit()
					r.dst.Clear()
					for j := k; j < stealBatchPushes; j++ {
						r.vd.Pop(nil)
					}
				}
			}
		}},
		{name: "sched.steal_empty_ns", build: func() func(int) {
			r := newStealRig(0)
			return func(n int) {
				for i := 0; i < n; i++ {
					if _, out := r.vd.StealBegin(); out != sched.StealEmpty {
						panic("empty steal probe: " + out.String())
					}
				}
			}
		}},
		{name: "sched.resilient_steal_ns", build: func() func(int) {
			r := newStealRig(1)
			res := sched.NewResilience(1, sched.DefaultResilienceConfig(), nil)
			return func(n int) {
				for i := 0; i < n; i++ {
					must(r.vd.Push(r.frames[0]))
					if _, out := res.StealFrom(0, r.vd, r.src, r.dst); out != sched.StealOK {
						panic("resilient steal probe: " + out.String())
					}
					r.dst.Clear()
				}
			}
		}},
		{name: "sched.copy_ns_128", build: copyProbe(128)},
		{name: "sched.copy_ns_4k", shrink: 32, build: copyProbe(4 << 10)},
		{name: "sched.copy_ns_64k", shrink: 512, build: copyProbe(64 << 10)},
		{name: "obs.wall_emit_ns", build: func() func(int) {
			l := obs.NewWallRecorder(1, 0).Worker(0)
			return func(n int) {
				for i := 0; i < n; i++ {
					l.Emit(obs.KTask, uint64(i), 1, 0, 0, -1)
				}
			}
		}},
		{name: "obs.hist_record_ns", build: func() func(int) {
			var h obs.Hist
			return func(n int) {
				for i := 0; i < n; i++ {
					h.Record(uint64(i))
				}
			}
		}},
	}
}

// runProbe times sc.probeBatches batches (after one discarded) and
// returns the p10 batch in nanoseconds per call.
func runProbe(p probe, sc scale, tr *tracer, parent spanID) float64 {
	calls := sc.probeCalls
	if p.shrink > 1 {
		calls = max(calls/p.shrink, 1)
	}
	body := p.build()
	body(calls)
	samples := make([]float64, sc.probeBatches)
	for b := range samples {
		sp := tr.begin("probe."+p.name, laneMain, parent, 0)
		t0 := time.Now()
		body(calls)
		el := time.Since(t0)
		tr.end(sp)
		samples[b] = float64(el.Nanoseconds()) / float64(calls)
	}
	return p10(samples)
}

// runLayerProbes runs every microloop and stores its metric.
func runLayerProbes(frameLocals uint32, sc scale, tr *tracer, out metrics) {
	parent := tr.begin("probes", laneMain, noSpan, 0)
	defer tr.end(parent)
	for _, p := range layerProbes(frameLocals) {
		out.set(p.name, "ns", runProbe(p, sc, tr, parent))
	}
	// The batched-steal loop re-primes the deque each iteration; take
	// that out at the measured push+pop price and spread the rest over
	// the entries one round trip moved.
	const primePairs = (stealBatchPushes + (stealBatchPushes - stealBatchTake)) / 2.0
	iter := out["sched.steal_batch_ns_per_entry"].Value
	out.set("sched.steal_batch_ns_per_entry", "ns",
		(iter-primePairs*out["sched.deque_push_pop_ns"].Value)/stealBatchTake)
}
