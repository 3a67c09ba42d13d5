package rt

import (
	"testing"

	"uniaddr/internal/core"
	"uniaddr/internal/obs"
	"uniaddr/internal/sched"
	"uniaddr/internal/workloads"
)

// TestRTObsStealLifecycle runs a steal-heavy workload with the wall
// recorder on and checks the exported events agree with the counters:
// every successful steal appears as a KStealOK interval (and a
// steal-latency sample), every probe is classified, tasks/parks show
// up, and nothing in the run's semantics changed.
func TestRTObsStealLifecycle(t *testing.T) {
	spec := workloads.Fib(18, 20)
	cfg := DefaultConfig(4)
	cfg.Obs = true
	r := New(cfg)
	got, err := r.Run(spec.Fid, spec.Locals, spec.Init)
	if err != nil {
		t.Fatal(err)
	}
	if got != spec.Expected {
		t.Fatalf("result %d, want %d", got, spec.Expected)
	}
	rec := r.Obs()
	if rec == nil {
		t.Fatal("Obs() nil with Config.Obs set")
	}
	ex := rec.Export()
	if ex.Clock != obs.ClockWallNS {
		t.Fatalf("clock %q", ex.Clock)
	}
	ts := r.TotalStats()
	var kinds [64]uint64
	for _, l := range ex.Logs {
		for _, e := range l.Events {
			kinds[e.Kind]++
		}
	}
	if ex.Dropped() == 0 {
		// Default ring cap comfortably holds this run; every counter
		// must then match its event kind exactly.
		// One KStealOK interval per successful batched round trip;
		// StealsOK counts the entries those trips moved.
		if kinds[obs.KStealOK] != ts.StealBatches {
			t.Errorf("KStealOK events %d, StealBatches %d", kinds[obs.KStealOK], ts.StealBatches)
		}
		if ts.StealBatchEntries != ts.StealsOK {
			t.Errorf("StealBatchEntries %d, StealsOK %d", ts.StealBatchEntries, ts.StealsOK)
		}
		probes := kinds[obs.KProbeCache] + kinds[obs.KProbeHint] + kinds[obs.KProbeBlind]
		if probes != ts.StealAttempts {
			t.Errorf("probe events %d, StealAttempts %d", probes, ts.StealAttempts)
		}
		if kinds[obs.KPark] != ts.Parks {
			t.Errorf("KPark events %d, Parks %d", kinds[obs.KPark], ts.Parks)
		}
		if kinds[obs.KSuspend] != ts.Suspends {
			t.Errorf("KSuspend events %d, Suspends %d", kinds[obs.KSuspend], ts.Suspends)
		}
	}
	if kinds[obs.KTask] == 0 {
		t.Error("no KTask events recorded")
	}
	var stealHist uint64
	for _, nh := range ex.Hists {
		if nh.Name == "steal latency" {
			stealHist = nh.Hist.Count
		}
	}
	if stealHist != ts.StealBatches {
		t.Errorf("steal latency samples %d, StealBatches %d", stealHist, ts.StealBatches)
	}
}

// TestRTObsConcurrentStress is the -race stress of satellite 3: eight
// pinned-loop workers hammer their rings (a tiny cap forces constant
// wrap-around) while the run proceeds, then the reader decodes at
// quiescence. Corruption would surface as an out-of-range kind, a
// mangled peer, or a race report.
func TestRTObsConcurrentStress(t *testing.T) {
	spec := workloads.Fib(17, 50)
	cfg := DefaultConfig(8)
	cfg.Obs = true
	cfg.ObsRingCap = 256 // force heavy overflow
	r := New(cfg)
	got, err := r.Run(spec.Fid, spec.Locals, spec.Init)
	if err != nil {
		t.Fatal(err)
	}
	if got != spec.Expected {
		t.Fatalf("result %d, want %d", got, spec.Expected)
	}
	ex := r.Obs().Export()
	if len(ex.Logs) != 8 {
		t.Fatalf("%d logs", len(ex.Logs))
	}
	var kept int
	for _, l := range ex.Logs {
		kept += len(l.Events)
		if uint64(len(l.Events)) > 256 {
			t.Fatalf("worker %d kept %d events, ring cap 256", l.Rank, len(l.Events))
		}
		if l.Total > 256 && l.Dropped != l.Total-256 {
			t.Fatalf("worker %d total %d dropped %d", l.Rank, l.Total, l.Dropped)
		}
		for _, e := range l.Events {
			if e.Kind.String()[0] == 'k' { // Kind.String falls back to "kind(%d)"
				t.Fatalf("worker %d: corrupt kind %d", l.Rank, e.Kind)
			}
			if e.Peer < -1 || e.Peer >= 8 {
				t.Fatalf("worker %d: corrupt peer %d", l.Rank, e.Peer)
			}
		}
	}
	if kept == 0 {
		t.Fatal("no events survived")
	}
}

// TestRTObsDisabledPath pins satellite 6: with observability off the
// runtime allocates no recorder, the instrumented steal round trip
// stays zero-alloc (the PR-4 rail), and a single-worker run's counters
// are bit-identical with and without the recorder attached — the
// nil-receiver path does not perturb scheduling.
func TestRTObsDisabledPath(t *testing.T) {
	r := parkRig(2)
	if r.Obs() != nil {
		t.Fatal("recorder allocated with Obs off")
	}
	victim, thief := r.workers[0], r.workers[1]
	if victim.Wlog != nil || victim.Res.Log != nil {
		t.Fatal("worker log wired with Obs off")
	}
	const size = 128
	base := victim.NewFrame(1, size-core.FrameHeaderBytes, 0, 0).FrameBase()
	allocs := testing.AllocsPerRun(200, func() {
		if err := victim.Deque.Push(sched.Entry{FrameBase: base, FrameSize: size}); err != nil {
			t.Fatal(err)
		}
		ent, outcome := thief.Res.StealFrom(0, victim.Deque, victim.Arena, thief.Arena)
		if outcome != sched.StealOK {
			t.Fatalf("steal outcome %v", outcome)
		}
		if err := thief.Arena.FreeLowest(ent.FrameBase, ent.FrameSize); err != nil {
			t.Fatal(err)
		}
		thief.Arena.Clear()
	})
	if allocs != 0 {
		t.Fatalf("instrumented steal round trip allocates %.1f/op with obs off, want 0", allocs)
	}

	// Single-worker schedules are deterministic, so every counter must
	// be identical with and without the recorder.
	spec := workloads.Fib(15, 0)
	run := func(withObs bool) Stats {
		c := DefaultConfig(1)
		c.Obs = withObs
		rt := New(c)
		got, err := rt.Run(spec.Fid, spec.Locals, spec.Init)
		if err != nil {
			t.Fatal(err)
		}
		if got != spec.Expected {
			t.Fatalf("result %d, want %d", got, spec.Expected)
		}
		return rt.TotalStats()
	}
	off, on := run(false), run(true)
	if off != on {
		t.Fatalf("single-worker counters diverge with obs on:\noff %+v\non  %+v", off, on)
	}
}
