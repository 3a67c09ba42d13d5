package sched

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"uniaddr/internal/core"
	"uniaddr/internal/gas"
	"uniaddr/internal/mem"
)

// The Engine needs neither goroutines nor processes to be tested: the
// steps a scheduler loop and a task body would take are played by hand
// on Engines over heap Views.

// stubExec is the smallest backend: an Engine plus the policy-bearing
// Exec methods, of which the tests only ever complete.
type stubExec struct{ Engine }

func (s *stubExec) ExecComplete(rec core.Handle, result uint64) {
	r := s.Record(rec)
	r.Result = result
	r.Job.Store(RecordDone(0))
}

func (s *stubExec) ExecSpawnBegin(*core.Env, int, int, core.FuncID, uint32, bool) *core.Env {
	panic("stubExec: spawns are played by hand")
}

func (s *stubExec) ExecSpawnRun(e, child *core.Env) bool {
	panic("stubExec: spawns are played by hand")
}

const (
	testArenaVA = mem.VA(0x10000)
	testLocals  = 3 * 8
)

func never() bool { return false }

// newEngines builds n stub backends over fresh heap memory whose frames
// carry no job tag: dist's shape.
func newEngines(n int) []*stubExec { return newEnginesOn(n, nil) }

// newEnginesOn is newEngines with a job table for tagged frames (nil:
// none), rt's shape.
func newEnginesOn(n int, jobs *JobTable) []*stubExec {
	peers := make([]Views, n)
	for i := range peers {
		peers[i] = Views{mem.NewArena(testArenaVA, 1<<14), NewDeque(64), NewTable(64)}
	}
	ws := make([]*stubExec, n)
	for i := range ws {
		w := &stubExec{}
		w.Engine = Engine{X: w, Rank: i, Peers: peers, StopFn: never, Jobs: jobs}
		w.Init(1, 0, 0, nil)
		ws[i] = w
	}
	return ws
}

// spawn plays ExecSpawnBegin on w for the thread running in e: publish
// e's continuation, build the child — of e's job — under a fresh record.
func spawn(t *testing.T, w *stubExec, e *core.Env) *core.Env {
	t.Helper()
	idx, err := w.Records.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Deque.Push(Entry{FrameBase: e.FrameBase(), FrameSize: e.FrameSize()}); err != nil {
		t.Fatal(err)
	}
	return w.NewFrame(1, testLocals, RecordHandle(w.Rank, idx), uint64(core.FrameJob(e.Header())))
}

func frameBytes(w *stubExec, ent Entry) []byte {
	return bytes.Clone(w.Arena.MustSlice(ent.FrameBase, ent.FrameSize))
}

// TestEngineStealSuspendResume walks one thread tree through every
// Engine step: four spawns on the owner, a steal-half by the thief, the
// owner's failed pop, two join misses on the thief, and their resumes —
// once on untagged frames, where no live-chain step may do anything, and
// once on frames of a job, where the steal and each suspend mint a token
// and the steal and each resume tell the worker whose chain it holds.
func TestEngineStealSuspendResume(t *testing.T) {
	t.Run("untagged", func(t *testing.T) { engineStealSuspendResume(t, nil) })
	t.Run("tagged", func(t *testing.T) { engineStealSuspendResume(t, NewJobTable(2)) })
}

func engineStealSuspendResume(t *testing.T, jobs *JobTable) {
	ws := newEnginesOn(2, jobs)
	owner, thief := ws[0], ws[1]
	// The tree is the job in slot 1, its one chain the owner's. chain
	// checks the thief's side of the accounting after each step.
	var tag uint32
	live := func() int64 { return 0 }
	if jobs != nil {
		tag = uint32(JobTag(1))
		jobs.Get(1).Live.Store(1)
		owner.Chain = tag
		live = jobs.Get(1).Live.Load
	}
	chain := func(step string, tokens uint64, wantLive int64) {
		t.Helper()
		if jobs == nil {
			tokens, wantLive = 0, 0
		}
		if thief.Chain != tag || thief.Stats.ChainTokens != tokens || thief.Stats.ChainEnds != 0 || live() != wantLive {
			t.Fatalf("%s: thief.Chain %d, ChainTokens %d, ChainEnds %d, Live %d; want %d, %d, 0, %d",
				step, thief.Chain, thief.Stats.ChainTokens, thief.Stats.ChainEnds, live(), tag, tokens, wantLive)
		}
	}

	// f[0] spawns f[1] spawns … f[4]: the deque holds f[0..3], f[4] runs.
	const k = 4
	f := []*core.Env{owner.NewFrame(1, testLocals, 0, uint64(tag))}
	for i := 0; i < k; i++ {
		f[i].SetU64(0, 0xf00+uint64(i)) // something to recognise the bytes by
		f = append(f, spawn(t, owner, f[i]))
	}
	ent := func(i int) Entry { return Entry{FrameBase: f[i].FrameBase(), FrameSize: f[i].FrameSize()} }
	rec := func(i int) core.Handle { return f[i].Self() }

	// Steal-half: ⌈4/2⌉ = 2 threads, the two OLDEST, land on the thief's
	// own deque oldest-first with their bytes at the same VAs.
	if n := thief.TrySteal(); n != (k+1)/2 {
		t.Fatalf("TrySteal = %d, want %d", n, (k+1)/2)
	}
	if st := thief.Stats; st.StealAttempts != 1 || st.StealsOK != 2 || st.StealBatches != 1 ||
		st.StealBatchEntries != 2 || st.BytesStolen != ent(0).FrameSize+ent(1).FrameSize ||
		st.StealHintProbes != 1 || st.StealCacheProbes+st.StealBlindProbes != 0 {
		t.Fatalf("thief stats after one batch: %+v", st)
	}
	chain("after the steal", 1, 2) // one token for the batch of two
	if thief.Deque.Size() != 2 || owner.Deque.Size() != 2 {
		t.Fatalf("deque sizes thief %d owner %d, want 2 and 2", thief.Deque.Size(), owner.Deque.Size())
	}
	for _, i := range []int{0, 1} {
		if !bytes.Equal(frameBytes(thief, ent(i)), frameBytes(owner, ent(i))) {
			t.Fatalf("f[%d]'s bytes differ between thief and owner", i)
		}
	}

	// The thief pops newest-first: f[1] joins f[2], still running on the
	// owner, then f[0] joins the now suspended f[1]. Both miss.
	suspend := func(i int, rp int) []byte {
		t.Helper()
		got, ok := thief.Deque.Pop(thief.StopFn)
		if !ok || got != ent(i) {
			t.Fatalf("thief pop: %+v %v, want f[%d]", got, ok, i)
		}
		e := thief.GetEnv(got.FrameBase, thief.Arena.MustSlice(got.FrameBase, got.FrameSize), 0)
		want := frameBytes(thief, got)
		core.SetFrameResume(want, uint32(rp))
		used := thief.Arena.Used()
		if _, ok := thief.ExecJoin(e, rp, rec(i+1)); ok {
			t.Fatalf("f[%d]'s join on a pending record hit", i)
		}
		thief.PutEnv(e)
		if thief.Arena.Used() != used-got.FrameSize {
			t.Fatalf("f[%d] still occupies the arena after its suspend", i)
		}
		if w := thief.Record(rec(i + 1)).Waiter.Load(); w != int64(thief.Rank)+1 {
			t.Fatalf("record %d names waiter %d, want rank+1 = %d", i+1, w, thief.Rank+1)
		}
		return want
	}
	want1 := suspend(1, 7)
	chain("after the first suspend", 2, 3)
	if thief.HasReadyWaiter() {
		t.Fatal("HasReadyWaiter with every join target pending")
	}
	if _, _, ok := thief.ResumeReady(); ok {
		t.Fatal("ResumeReady resumed a thread whose record is pending")
	}
	want0 := suspend(0, 9)
	chain("after the second suspend", 3, 4)
	thief.Chain = 0 // the thief's stack is empty: its loop would retire the steal's token here
	if st := thief.Stats; st.JoinsMiss != 2 || st.Suspends != 2 || thief.Suspended() != 2 || !thief.Arena.Empty() {
		t.Fatalf("after two suspends: %+v, %d waiting", st, thief.Suspended())
	}

	// Meanwhile the owner unwinds: f[4], f[3] and f[2] finish and pop
	// their own continuations; f[2]'s pop finds f[1] gone.
	for i := k; i >= 2; i-- {
		owner.X.ExecComplete(rec(i), uint64(100+i))
		if err := owner.Arena.FreeLowest(ent(i).FrameBase, ent(i).FrameSize); err != nil {
			t.Fatal(err)
		}
		got, ok := owner.Deque.Pop(owner.StopFn)
		if i > 2 && (!ok || got != ent(i-1)) {
			t.Fatalf("owner pop after f[%d]: %+v %v, want its continuation f[%d]", i, got, ok, i-1)
		}
		if i == 2 && ok {
			t.Fatalf("owner popped %+v: f[1] was stolen", got)
		}
	}
	// A stop-aborted Pop settles nothing, so ClearDead after one must
	// leave the arena alone.
	owner.StopFn = func() bool { return true }
	if owner.ClearDead() || owner.Arena.Empty() {
		t.Fatal("ClearDead cleared the arena after a Pop that shutdown may have aborted")
	}
	owner.StopFn = never
	if !owner.ClearDead() || !owner.Arena.Empty() {
		t.Fatal("ClearDead left the owner's arena occupied")
	}

	// f[2]'s record is done; mark f[1]'s too, so that both waiters are
	// ready: the resumes come back FIFO, each to its own VA with the
	// bytes it left with, and its record stops naming it.
	owner.X.ExecComplete(rec(1), 101)
	if !thief.HasReadyWaiter() {
		t.Fatal("HasReadyWaiter missed two completed targets")
	}
	for _, c := range []struct {
		i    int
		want []byte
	}{{1, want1}, {0, want0}} {
		base, size, ok := thief.ResumeReady()
		if !ok || (Entry{base, size}) != ent(c.i) {
			t.Fatalf("ResumeReady = %#x/%d %v, want f[%d]", base, size, ok, c.i)
		}
		chain("after a resume", 3, 4) // the resumed chain inherits the suspend's token
		thief.Chain = 0
		if !bytes.Equal(thief.Arena.MustSlice(base, size), c.want) {
			t.Fatalf("f[%d] came back with different bytes", c.i)
		}
		if w := thief.Record(rec(c.i + 1)).Waiter.Load(); w != 0 {
			t.Fatalf("record %d still names waiter %d after the resume", c.i+1, w)
		}
		// Re-entered, the join hits and releases the record to its owner.
		e := thief.GetEnv(base, thief.Arena.MustSlice(base, size), 0)
		if v, ok := thief.ExecJoin(e, 0, rec(c.i+1)); !ok || v != uint64(101+c.i) {
			t.Fatalf("f[%d]'s join after resume = %d %v", c.i, v, ok)
		}
		thief.PutEnv(e)
		if err := thief.Arena.FreeLowest(base, size); err != nil {
			t.Fatal(err)
		}
	}
	if st := thief.Stats; st.ResumesWait != 2 || st.JoinsFast != 2 || thief.Suspended() != 0 {
		t.Fatalf("after two resumes: %+v, %d waiting", st, thief.Suspended())
	}

	// The context buffers went back to the pool and serve the next
	// suspend of a frame no larger.
	if len(thief.ctxFree) != 2 {
		t.Fatalf("%d context buffers pooled, want 2", len(thief.ctxFree))
	}
	pooled := &thief.ctxFree[1][0]
	idx, err := thief.Records.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	thief.ExecJoin(thief.NewFrame(1, testLocals, 0, 0), 1, RecordHandle(thief.Rank, idx))
	if got := &thief.waitq[0].buf[0]; got != pooled {
		t.Error("a suspend allocated a context buffer with a fitting one pooled")
	}
	if live := owner.Records.Live(); live != k-2 {
		t.Errorf("%d of the owner's records live, want %d (two were joined)", live, k-2)
	}
}

// TestTryStealRefusals: stealing is legal only into an empty region,
// and pointless alone.
func TestTryStealRefusals(t *testing.T) {
	ws := newEngines(2)
	root := ws[0].NewFrame(1, testLocals, 0, 0)
	spawn(t, ws[0], root)
	ws[1].NewFrame(1, testLocals, 0, 0)
	if n := ws[1].TrySteal(); n != 0 || ws[1].Stats.StealAttempts != 0 {
		t.Errorf("TrySteal into an occupied arena = %d after %d attempts", n, ws[1].Stats.StealAttempts)
	}
	solo := newEngines(1)[0]
	if n := solo.TrySteal(); n != 0 || solo.Stats.StealAttempts != 0 {
		t.Errorf("TrySteal with one worker = %d after %d attempts", n, solo.Stats.StealAttempts)
	}
	// Nothing anywhere: exactly one blind probe, which comes back empty.
	ws = newEngines(3)
	if n := ws[1].TrySteal(); n != 0 {
		t.Errorf("TrySteal over empty deques = %d", n)
	}
	if st := ws[1].Stats; st.StealAttempts != 1 || st.StealBlindProbes != 1 || st.StealAbortEmpty != 1 {
		t.Errorf("an all-empty round: %+v, want one blind probe aborted empty", st)
	}
}

// TestBlindVictim: the draw never lands on the thief itself, reaches
// every other rank, and redraws around a banned one — without ever
// depending on the ban set for an answer.
func TestBlindVictim(t *testing.T) {
	ws := newEngines(5)
	w := ws[2]
	seen := map[int]int{}
	for i := 0; i < 2000; i++ {
		seen[w.blindVictim()]++
	}
	if seen[w.Rank] != 0 || len(seen) != 4 {
		t.Fatalf("draws by victim: %v; want ranks 0,1,3,4 only", seen)
	}
	far := time.Now().Add(time.Hour)
	w.Res.banned = map[int]time.Time{0: far, 1: far, 4: far}
	seen = map[int]int{}
	for i := 0; i < 2000; i++ {
		seen[w.blindVictim()]++
	}
	// Four draws at 1/4 each: the unbanned rank 68 % of the time, and a
	// banned one — never self — when all four miss.
	if seen[w.Rank] != 0 || seen[3] < 1200 || seen[3] == 2000 {
		t.Fatalf("draws with 0, 1 and 4 banned: %v", seen)
	}
}

func TestIntnRange(t *testing.T) {
	w := newEngines(1)[0]
	for n := 1; n <= 64; n++ {
		seen := make([]bool, n)
		for i := 0; i < 64*n; i++ {
			v := w.intn(n)
			if v < 0 || v >= n {
				t.Fatalf("intn(%d) = %d", n, v)
			}
			seen[v] = true
		}
		for v, ok := range seen {
			if !ok {
				t.Errorf("intn(%d) never drew %d in %d draws", n, v, 64*n)
			}
		}
	}
}

// TestWorkerStatsAddCoversEveryField: a counter added to WorkerStats
// and forgotten in Add is the bug a hand-written sum invites.
func TestWorkerStatsAddCoversEveryField(t *testing.T) {
	var a, b WorkerStats
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	set := func(f reflect.Value, n int) {
		if f.CanInt() {
			f.SetInt(int64(n))
		} else {
			f.SetUint(uint64(n))
		}
	}
	for i := 0; i < av.NumField(); i++ {
		set(av.Field(i), 1000*(i+1))
		set(bv.Field(i), i+1)
	}
	sum, rev := a, b
	sum.Add(b)
	rev.Add(a)
	if sum != rev {
		t.Errorf("Add is not symmetric:\n a+b %+v\n b+a %+v", sum, rev)
	}
	sv := reflect.ValueOf(sum)
	for i := 0; i < sv.NumField(); i++ {
		name := sv.Type().Field(i).Name
		want := 1001 * (i + 1)
		if name == "MaxStackUsed" {
			want = 1000 * (i + 1)
		}
		if got := fmt.Sprint(sv.Field(i).Interface()); got != fmt.Sprint(want) {
			t.Errorf("%s = %s after Add, want %d", name, got, want)
		}
	}
}

// TestGasNeedsTheSimulator: every global-heap call on an Env whose
// backend is not the simulator panics with the one message.
func TestGasNeedsTheSimulator(t *testing.T) {
	e := newEngines(1)[0].NewFrame(1, testLocals, 0, 0)
	const want = "core: global heap (gas) operations are supported on the simulator backend only; run this workload there"
	for name, call := range map[string]func(){
		"Gas":       func() { e.Gas() },
		"GasGet":    func() { e.GasGet(gas.Ref(0), nil) },
		"GasPut":    func() { e.GasPut(gas.Ref(0), nil) },
		"GasGetU64": func() { e.GasGetU64(gas.Ref(0)) },
		"GasPutU64": func() { e.GasPutU64(gas.Ref(0), 1) },
		"GasAlloc":  func() { e.GasAlloc(8) },
	} {
		func() {
			defer func() {
				if r := recover(); r != want {
					t.Errorf("%s on an Engine-backed Env panicked with %v", name, r)
				}
			}()
			call()
		}()
	}
}
