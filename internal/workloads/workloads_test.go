package workloads

import (
	"testing"

	"uniaddr/internal/core"
	"uniaddr/internal/obs"
)

func runSpec(t *testing.T, s Spec, workers int, scheme core.SchemeKind, seed uint64) (*core.Machine, uint64) {
	t.Helper()
	cfg := core.DefaultConfig(workers)
	cfg.Scheme = scheme
	cfg.Seed = seed
	m, res, err := s.Run(cfg)
	if err != nil {
		t.Fatalf("%s on %d workers: %v", s.Name, workers, err)
	}
	return m, res
}

func TestBTCTaskCountClosedForm(t *testing.T) {
	// T(d)=1+2·iter·T(d-1); spot checks.
	if got := BTCTaskCount(0, 1); got != 1 {
		t.Fatalf("T(0)=%d", got)
	}
	if got := BTCTaskCount(3, 1); got != 15 {
		t.Fatalf("T(3,1)=%d, want 15", got)
	}
	if got := BTCTaskCount(2, 2); got != 21 {
		t.Fatalf("T(2,2)=%d, want 21", got)
	}
}

func TestBTCParallelMatchesClosedForm(t *testing.T) {
	for _, tc := range []struct{ depth, iter uint64 }{{6, 1}, {8, 1}, {4, 2}, {5, 2}} {
		s := BTC(tc.depth, tc.iter, 0)
		for _, workers := range []int{1, 4, 9} {
			_, res := runSpec(t, s, workers, core.SchemeUni, 3)
			if res != s.Expected {
				t.Fatalf("BTC(%d,%d) on %d workers = %d, want %d",
					tc.depth, tc.iter, workers, res, s.Expected)
			}
		}
	}
}

func TestBTCTasksExecutedMatchesResult(t *testing.T) {
	s := BTC(8, 1, 0)
	m, res := runSpec(t, s, 6, core.SchemeUni, 1)
	if got := m.TotalStats().TasksExecuted; got != res {
		t.Fatalf("TasksExecuted=%d but tree says %d", got, res)
	}
}

func TestUTSSequentialDeterministic(t *testing.T) {
	a := UTSSequential(0, 8, DefaultUTSB0)
	b := UTSSequential(0, 8, DefaultUTSB0)
	if a != b {
		t.Fatalf("UTS sequential not deterministic: %d vs %d", a, b)
	}
	if a < 2 {
		t.Fatalf("UTS tree trivially small: %d nodes", a)
	}
	if c := UTSSequential(1, 8, DefaultUTSB0); c == a {
		t.Log("different seeds gave equal node counts (possible, unusual)")
	}
}

func TestUTSTreeGrowsWithDepth(t *testing.T) {
	prev := uint64(0)
	for _, d := range []uint64{4, 8, 12} {
		n := UTSSequential(0, d, DefaultUTSB0)
		if n < prev {
			t.Fatalf("UTS node count shrank with depth: d=%d n=%d prev=%d", d, n, prev)
		}
		prev = n
	}
}

func TestUTSParallelMatchesSequential(t *testing.T) {
	s := UTS(0, 9, DefaultUTSB0, 0)
	if s.Expected < 10 {
		t.Skipf("tree too small to be interesting: %d", s.Expected)
	}
	for _, workers := range []int{1, 5} {
		_, res := runSpec(t, s, workers, core.SchemeUni, 7)
		if res != s.Expected {
			t.Fatalf("UTS d=9 on %d workers = %d, want %d", workers, res, s.Expected)
		}
	}
}

func TestUTSUnbalanced(t *testing.T) {
	// The tree must actually be unbalanced: leaves at many depths.
	// Cheap proxy: node count is not a simple function of a full tree.
	n := UTSSequential(0, 10, DefaultUTSB0)
	full := (pow(4, 11) - 1) / 3
	if n == full {
		t.Fatalf("UTS tree is a complete 4-ary tree (%d nodes) — no imbalance", n)
	}
}

func pow(b, e uint64) uint64 {
	r := uint64(1)
	for i := uint64(0); i < e; i++ {
		r *= b
	}
	return r
}

func TestNQueensKnownSolutions(t *testing.T) {
	known := map[uint64]uint64{4: 2, 5: 10, 6: 4, 7: 40, 8: 92, 9: 352, 10: 724}
	for n, want := range known {
		sol, nodes := NQueensSequential(n)
		if sol != want {
			t.Fatalf("NQueens(%d) sequential = %d solutions, want %d", n, sol, want)
		}
		if nodes == 0 {
			t.Fatalf("NQueens(%d): zero nodes", n)
		}
	}
}

func TestNQueensParallelMatchesSequential(t *testing.T) {
	for _, n := range []uint64{6, 8} {
		s := NQueens(n, 0)
		for _, workers := range []int{1, 6} {
			_, res := runSpec(t, s, workers, core.SchemeUni, 11)
			if res != s.Expected {
				gs, gn := UnpackNQ(res)
				ws, wn := UnpackNQ(s.Expected)
				t.Fatalf("NQueens(%d) on %d workers = (%d sol, %d nodes), want (%d, %d)",
					n, workers, gs, gn, ws, wn)
			}
		}
	}
}

func TestWorkloadsUnderIsoAddress(t *testing.T) {
	specs := []Spec{BTC(7, 1, 0), UTS(0, 8, DefaultUTSB0, 0), NQueens(7, 0)}
	for _, s := range specs {
		_, res := runSpec(t, s, 5, core.SchemeIso, 13)
		if res != s.Expected {
			t.Fatalf("%s under iso-address = %d, want %d", s.Name, res, s.Expected)
		}
	}
}

func TestWorkloadsDeterministicAcrossRuns(t *testing.T) {
	s := BTC(7, 1, 0)
	m1, _ := runSpec(t, s, 7, core.SchemeUni, 5)
	m2, _ := runSpec(t, s, 7, core.SchemeUni, 5)
	if m1.ElapsedCycles() != m2.ElapsedCycles() {
		t.Fatalf("same seed, different elapsed: %d vs %d", m1.ElapsedCycles(), m2.ElapsedCycles())
	}
	m3, _ := runSpec(t, s, 7, core.SchemeUni, 6)
	_ = m3 // different seed may legitimately differ; just must complete
}

func TestStackUsageOrderingAcrossBenchmarks(t *testing.T) {
	// Table 4's qualitative ordering: BTC(iter=2) uses less of the
	// region than comparable-depth BTC(iter=1)? (same frame size, less
	// nesting per task count). More robust: UTS frames nest deepest of
	// the three at comparable sizes. Here we just require everything
	// fits and is recorded.
	for _, s := range []Spec{BTC(8, 1, 0), UTS(0, 9, DefaultUTSB0, 0), NQueens(8, 0)} {
		m, _ := runSpec(t, s, 4, core.SchemeUni, 2)
		if m.MaxStackUsage() == 0 {
			t.Fatalf("%s recorded no stack usage", s.Name)
		}
		if m.MaxStackUsage() > core.DefaultUniSize {
			t.Fatalf("%s overflowed the uni-address region", s.Name)
		}
	}
}

func TestWorkStealingActuallyBalances(t *testing.T) {
	s := BTC(10, 1, 200)
	m, _ := runSpec(t, s, 8, core.SchemeUni, 9)
	var nonZero int
	for _, w := range m.Workers() {
		if w.Stats().TasksExecuted > 0 {
			nonZero++
		}
	}
	if nonZero < 6 {
		t.Fatalf("only %d/8 workers executed tasks", nonZero)
	}
}

func TestQuiescenceAfterRuns(t *testing.T) {
	specs := []Spec{BTC(9, 1, 0), BTC(5, 2, 0), UTS(0, 9, DefaultUTSB0, 0), NQueens(7, 0)}
	for _, s := range specs {
		for _, scheme := range []core.SchemeKind{core.SchemeUni, core.SchemeIso} {
			for _, workers := range []int{1, 6} {
				m, res := runSpec(t, s, workers, scheme, 21)
				if res != s.Expected {
					t.Fatalf("%s/%v/%d: result", s.Name, scheme, workers)
				}
				if err := m.CheckQuiescence(); err != nil {
					t.Fatalf("%s/%v/%d workers: %v", s.Name, scheme, workers, err)
				}
			}
		}
	}
}

func TestTraceRecordsTimeline(t *testing.T) {
	s := BTC(10, 1, 200)
	cfg := core.DefaultConfig(6)
	cfg.Obs = true
	cfg.Seed = 3
	m, res, err := s.Run(cfg)
	if err != nil || res != s.Expected {
		t.Fatalf("run: res=%d err=%v", res, err)
	}
	ex := m.Obs().Export()
	if ex == nil {
		t.Fatal("recorder missing")
	}
	if ex.End != m.ElapsedCycles() {
		t.Fatalf("export ends at %d, run at %d", ex.End, m.ElapsedCycles())
	}
	if u := ex.Utilization(); u[obs.Work] <= 0 {
		t.Fatalf("no work recorded: %v", u)
	}
	// Every worker lane must cover the full run without gaps.
	lanes := ex.Lanes()
	if len(lanes) != len(m.Workers()) {
		t.Fatalf("%d lanes for %d workers", len(lanes), len(m.Workers()))
	}
	for i, segs := range lanes {
		at := uint64(0)
		for _, g := range segs {
			if g.Start != at {
				t.Fatalf("worker %d lane has a gap at %d", i, at)
			}
			at = g.End
		}
		if at != ex.End {
			t.Fatalf("worker %d lane covers %d of %d cycles", i, at, ex.End)
		}
	}
}

func TestGlobalSumMatchesReference(t *testing.T) {
	for _, workers := range []int{1, 4, 9} {
		s := GlobalSum(4000, 64, workers)
		cfg := core.DefaultConfig(workers)
		cfg.Seed = 17
		m, res, err := s.Run(cfg)
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		if res != s.Expected {
			t.Fatalf("%d workers: sum %d, want %d", workers, res, s.Expected)
		}
		if err := m.CheckQuiescence(); err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
	}
}

func TestGlobalSumRemoteTraffic(t *testing.T) {
	// With several workers, most leaf fetches hit remote segments, so
	// RDMA read bytes must be a large share of the array size.
	s := GlobalSum(8000, 64, 8)
	cfg := core.DefaultConfig(8)
	m, res, err := s.Run(cfg)
	if err != nil || res != s.Expected {
		t.Fatalf("res=%d err=%v", res, err)
	}
	var rdmaBytes uint64
	for _, w := range m.Workers() {
		rdmaBytes += w.NetStats().BytesRead
	}
	if rdmaBytes < 8000*8/4 {
		t.Fatalf("only %d RDMA bytes read for a 64000-byte distributed array", rdmaBytes)
	}
}

func TestGlobalSumWorkerMismatchRejected(t *testing.T) {
	s := GlobalSum(100, 16, 4)
	cfg := core.DefaultConfig(2)
	if _, _, err := s.Run(cfg); err == nil {
		t.Fatal("mismatched worker count accepted")
	}
}

func TestFibWorkload(t *testing.T) {
	s := Fib(18, 0)
	for _, workers := range []int{1, 6} {
		_, res := runSpec(t, s, workers, core.SchemeUni, 3)
		if res != s.Expected {
			t.Fatalf("fib(18) on %d workers = %d, want %d", workers, res, s.Expected)
		}
	}
	if s.Items(s.Expected) != 2*FibSequential(19)-1 {
		t.Fatal("task count formula")
	}
}

func TestPingPongWorkload(t *testing.T) {
	s := PingPong(50, 50_000, PingPongStackBytes)
	cfg := core.DefaultConfig(2)
	cfg.WorkersPerNode = 1
	m, res, err := s.Run(cfg)
	if err != nil || res != 50 {
		t.Fatalf("res=%d err=%v", res, err)
	}
	if m.TotalStats().StealsOK == 0 {
		t.Fatal("ping-pong produced no steals")
	}
	// The migrating thread's stack is the padded size.
	st := m.TotalStats()
	if avg := st.BytesStolen / st.StealsOK; avg < 2500 || avg > 3600 {
		t.Fatalf("avg stolen stack %d, want ≈3055", avg)
	}
}

func TestHelpFirstAcrossWorkloads(t *testing.T) {
	specs := []Spec{BTC(8, 1, 0), UTS(0, 9, DefaultUTSB0, 0), NQueens(7, 0), Fib(14, 0)}
	for _, s := range specs {
		cfg := core.DefaultConfig(6)
		cfg.HelpFirst = true
		cfg.Seed = 9
		m, res, err := s.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if res != s.Expected {
			t.Fatalf("%s help-first = %d, want %d", s.Name, res, s.Expected)
		}
		if err := m.CheckQuiescence(); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
	}
}

func TestHelpFirstDeterministic(t *testing.T) {
	s := BTC(8, 1, 0)
	run := func() uint64 {
		cfg := core.DefaultConfig(5)
		cfg.HelpFirst = true
		cfg.Seed = 4
		m, _, err := s.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m.ElapsedCycles()
	}
	if run() != run() {
		t.Fatal("help-first runs not deterministic")
	}
}

func TestUTSBinomialMatchesSequential(t *testing.T) {
	// b0=64, m=4, q=0.2 → E[size] ≈ 64/(1-0.8) = 320 nodes + root.
	s := UTSBinomial(3, 64, 4, 0.2, 0)
	if s.Expected < 65 {
		t.Fatalf("binomial tree too small: %d", s.Expected)
	}
	for _, workers := range []int{1, 6} {
		_, res := runSpec(t, s, workers, core.SchemeUni, 5)
		if res != s.Expected {
			t.Fatalf("binomial on %d workers = %d, want %d", workers, res, s.Expected)
		}
	}
}

func TestUTSBinomialSupercriticalRejected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("q*m >= 1 accepted")
		}
	}()
	UTSBinomial(1, 10, 4, 0.3, 0)
}

func TestMergeSortSortsDistributedArray(t *testing.T) {
	for _, tc := range []struct {
		elems, chunk uint64
		workers      int
	}{
		{512, 64, 4},
		{1000, 64, 7}, // non-power-of-two span: uneven leaf depths
		{2048, 128, 8},
	} {
		s := MergeSort(tc.elems, tc.chunk, tc.workers)
		cfg := core.DefaultConfig(tc.workers)
		cfg.Seed = 23
		m, res, err := s.Run(cfg)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if res != s.Expected {
			t.Fatalf("%+v: root returned %d", tc, res)
		}
		if err := VerifySorted(m, tc.elems, tc.chunk); err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if err := m.CheckQuiescence(); err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
	}
}

func TestMergeSortUnderStealsManySeeds(t *testing.T) {
	// Sorting correctness must survive arbitrary migration patterns.
	for seed := uint64(1); seed <= 6; seed++ {
		s := MergeSort(768, 64, 6)
		cfg := core.DefaultConfig(6)
		cfg.WorkersPerNode = 2
		cfg.Seed = seed
		m, _, err := s.Run(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := VerifySorted(m, 768, 64); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
