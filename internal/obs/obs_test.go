package obs

import (
	"math/rand"
	"reflect"
	"testing"
)

// --- histogram -------------------------------------------------------

func TestHistBucketBoundaries(t *testing.T) {
	// Every value below histSub gets its own exact bucket.
	for v := uint64(0); v < histSub; v++ {
		if got := histBucket(v); got != int(v) {
			t.Fatalf("histBucket(%d) = %d, want %d", v, got, v)
		}
	}
	// histBucketLow is the left inverse: low(bucket(v)) <= v and v maps
	// back into the same bucket as its bucket's low edge.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		v := uint64(rng.Int63()) >> uint(rng.Intn(60))
		b := histBucket(v)
		lo := histBucketLow(b)
		if lo > v {
			t.Fatalf("histBucketLow(%d) = %d > value %d", b, lo, v)
		}
		if histBucket(lo) != b {
			t.Fatalf("bucket(low(%d)) = %d, want %d (v=%d)", b, histBucket(lo), b, v)
		}
	}
	// Bucket low edges are strictly increasing.
	prev := histBucketLow(0)
	for i := 1; i < histBuckets; i++ {
		lo := histBucketLow(i)
		if lo <= prev {
			t.Fatalf("bucket lows not increasing at %d: %d <= %d", i, lo, prev)
		}
		prev = lo
	}
}

func TestHistQuantileExactForSmallValues(t *testing.T) {
	var h Hist
	for v := uint64(0); v < 8; v++ {
		h.Record(v)
	}
	// Values < 8 live in exact buckets, so quantiles are exact.
	cases := []struct {
		q    float64
		want uint64
	}{{0, 0}, {0.125, 0}, {0.5, 3}, {0.75, 5}, {1, 7}}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%g) = %d, want %d", c.q, got, c.want)
		}
	}
	if h.Min != 0 || h.Max != 7 || h.Count != 8 || h.Sum != 28 {
		t.Errorf("stats = min %d max %d count %d sum %d", h.Min, h.Max, h.Count, h.Sum)
	}
}

func TestHistQuantileWithinRelativeError(t *testing.T) {
	var h Hist
	rng := rand.New(rand.NewSource(7))
	vals := make([]uint64, 0, 5000)
	for i := 0; i < 5000; i++ {
		v := uint64(rng.Int63n(1 << 40))
		vals = append(vals, v)
		h.Record(v)
	}
	for _, q := range []float64{0.5, 0.95, 0.99, 1} {
		got := h.Quantile(q)
		if got < h.Min || got > h.Max {
			t.Fatalf("Quantile(%g) = %d outside [%d, %d]", q, got, h.Min, h.Max)
		}
	}
	// The quantile is an upper bound within one bucket (~12.5%) of the
	// exact order statistic.
	exact := append([]uint64(nil), vals...)
	sortU64(exact)
	for _, q := range []float64{0.5, 0.95, 0.99} {
		rank := int(q * float64(len(exact)))
		want := exact[rank]
		got := h.Quantile(q)
		if got < want/2 || got > want+want/4 {
			t.Errorf("Quantile(%g) = %d too far from exact %d", q, got, want)
		}
	}
}

func sortU64(s []uint64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func TestHistMerge(t *testing.T) {
	var a, b, all Hist
	for v := uint64(1); v <= 100; v++ {
		all.Record(v * 17)
		if v%2 == 0 {
			a.Record(v * 17)
		} else {
			b.Record(v * 17)
		}
	}
	a.Merge(&b)
	if a.Count != all.Count || a.Sum != all.Sum || a.Min != all.Min || a.Max != all.Max {
		t.Fatalf("merge mismatch: %+v vs %+v", a, all)
	}
	for _, q := range []float64{0.25, 0.5, 0.9, 1} {
		if a.Quantile(q) != all.Quantile(q) {
			t.Errorf("Quantile(%g): merged %d != direct %d", q, a.Quantile(q), all.Quantile(q))
		}
	}
	var empty Hist
	before := a
	a.Merge(&empty)
	if a != before {
		t.Error("merging an empty histogram changed the target")
	}
}

// --- event ring ------------------------------------------------------

// TestRingDropsOldestKeepsOrder overflows a virtual-time recorder's
// 4-slot log through Instant: the newest four survive, in append order.
func TestRingDropsOldestKeepsOrder(t *testing.T) {
	clock := uint64(0)
	r := NewRecorder(1, 4, func() uint64 { return clock })
	l := r.Worker(0)
	for i := uint64(1); i <= 10; i++ {
		clock = i * 100
		l.Instant(KSpawn, i, TaskID(i), -1)
	}
	ex := r.Export().Logs[0]
	if ex.Total != 10 {
		t.Fatalf("Total = %d, want 10", ex.Total)
	}
	if ex.Dropped != 6 {
		t.Fatalf("Dropped = %d, want 6", ex.Dropped)
	}
	if len(ex.Events) != 4 {
		t.Fatalf("len(Events) = %d, want 4", len(ex.Events))
	}
	for i, e := range ex.Events {
		want := uint64(7 + i)
		if e.Arg != want || e.Time != want*100 {
			t.Fatalf("event %d = arg %d time %d, want arg %d time %d",
				i, e.Arg, e.Time, want, want*100)
		}
	}
}

// --- nil safety ------------------------------------------------------

// TestNilRecorderAndLogAreNoOps calls the recorder's lineage methods and
// the log's event methods on nil receivers: each must be a no-op.
func TestNilRecorderAndLogAreNoOps(t *testing.T) {
	var r *Recorder
	var l *Log

	if r.Worker(3) != nil {
		t.Error("nil Recorder.Worker != nil")
	}
	if r.Export() != nil {
		t.Error("nil Recorder.Export != nil")
	}
	if id := r.NewTask(0, 1, 2, 3); id != 0 {
		t.Errorf("nil NewTask = %d, want 0", id)
	}
	r.TaskMoved(1, 0, 1)
	r.TaskDone(1, 0)
	if id := r.TaskJoined(9, 0); id != 0 {
		t.Errorf("nil TaskJoined = %d, want 0", id)
	}

	l.Emit(KTask, 1, 2, 3, 4, 5)
	l.EmitFlags(KRead, 1, 2, 3, 4, 5, FFailed)
	l.Instant(KSpawn, 1, 2, 3)
	l.Instant(KDepth, 4, 0, -1)
}

// TestNilRecorderSafe drives the scheduler-state stream on a nil
// recorder, as an untraced run does.
func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.State(0, Work)
	r.State(0, Idle)
	if r.Export() != nil {
		t.Fatal("nil Recorder exported state")
	}
}

// --- state stream and lineage -----------------------------------------

func TestStateDedup(t *testing.T) {
	clock := uint64(0)
	r := NewRecorder(1, 16, func() uint64 { return clock })
	for _, s := range []State{1, 1, 2, 2, 2, 1, 0, 0} {
		clock++
		r.State(0, s)
	}
	sc := r.Export().Logs[0].States
	want := []State{1, 2, 1, 0}
	if len(sc) != len(want) {
		t.Fatalf("got %d transitions, want %d", len(sc), len(want))
	}
	for i, s := range want {
		if sc[i].State != s {
			t.Errorf("transition %d = %d, want %d", i, sc[i].State, s)
		}
	}
}

func TestLineageTracking(t *testing.T) {
	clock := uint64(0)
	r := NewRecorder(4, 64, func() uint64 { return clock })

	clock = 10
	root := r.NewTask(0, 0, 7, 100)
	clock = 20
	child := r.NewTask(root, 0, 8, 200)
	if root != 1 || child != 2 {
		t.Fatalf("ids = %d, %d; want 1, 2", root, child)
	}

	clock = 30
	r.TaskMoved(child, 0, 3)
	clock = 40
	r.TaskMoved(child, 3, 1)
	clock = 50
	r.TaskDone(child, 1)
	if id := r.TaskJoined(200, 0); id != child {
		t.Fatalf("TaskJoined(200) = %d, want %d", id, child)
	}
	// The handle retires with the join: a recycled record handle must
	// not resolve to the old task.
	if id := r.TaskJoined(200, 2); id != 0 {
		t.Fatalf("TaskJoined on retired handle = %d, want 0", id)
	}

	tasks := r.Export().Tasks
	if len(tasks) != 2 {
		t.Fatalf("%d lineages, want 2", len(tasks))
	}
	ln := tasks[child-1]
	if ln.ID != child || ln.Parent != root || ln.Func != 8 {
		t.Fatalf("lineage = %+v", ln)
	}
	if ln.Spawn.Time != 20 || ln.Spawn.Worker != 0 {
		t.Errorf("spawn = %+v", ln.Spawn)
	}
	if len(ln.Hops) != 2 || ln.Hops[0] != (Hop{Time: 30, From: 0, To: 3}) ||
		ln.Hops[1] != (Hop{Time: 40, From: 3, To: 1}) {
		t.Errorf("hops = %+v", ln.Hops)
	}
	if ln.Done.Time != 50 || ln.Done.Worker != 1 {
		t.Errorf("done = %+v", ln.Done)
	}
	if ln.Joiner != 0 {
		t.Errorf("joiner = %d, want 0", ln.Joiner)
	}

	rootLn := tasks[root-1]
	if rootLn.Joiner != -1 || rootLn.Done.Worker != -1 {
		t.Errorf("unfinished root lineage = %+v", rootLn)
	}
}

// TestHistNamesPerClockDomain pins the export's histogram list in both
// clock domains: the simulator's five and the wall-clock backends'
// four, each in its own order, from one table.
func TestHistNamesPerClockDomain(t *testing.T) {
	names := func(ex *Export) []string {
		var out []string
		for _, nh := range ex.Hists {
			out = append(out, nh.Name)
		}
		return out
	}
	clock := uint64(0)
	sim := NewRecorder(2, 16, func() uint64 { return clock })
	for _, h := range []HistID{HSuspendSwap, HSoftFAA, HStackBytes, HStackXfer, HStealLatency} {
		sim.Worker(int(h)%2).Observe(h, 1)
	}
	wall := NewWallRecorder(2, 16)
	w0, w1 := wall.Worker(0), wall.Worker(1)
	w1.Span(KSuspend, w1.Clock(), 64, 0, -1, HCopyNS)
	w1.Observe(HCopyBytes, 64)
	w0.Span(KPark, w0.Clock(), 0, 0, -1, HParkDur)
	w1.Span(KStealOK, w1.Clock(), 64, 0, 0, HStealLatency)
	for _, c := range []struct {
		ex   *Export
		want []string
	}{
		{sim.Export(), []string{"steal latency", "stack transfer", "stack bytes", "software FAA", "suspend swap"}},
		{wall.Export(), []string{"steal latency", "park duration", "stack-copy ns", "stack-copy bytes"}},
	} {
		if got := names(c.ex); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s export hists %q, want %q", c.ex.Clock, got, c.want)
		}
	}
}
