package core_test

import (
	"testing"

	"uniaddr/internal/core"
	"uniaddr/internal/rdma"
)

// fib is the canonical fork-join microbenchmark (Fig. 1 right).
//
// Frame slots: 0=n, 1=handle(fib(n-1)), 2=handle(fib(n-2)), 3=r1.
var fibFID core.FuncID

const fibLocals = 4 * 8

func init() {
	fibFID = core.Register("fib-test", fibTask)
}

func fibTask(e *core.Env) core.Status {
	switch e.RP() {
	case 0:
		n := e.I64(0)
		if n < 2 {
			e.ReturnI64(n)
			return core.Done
		}
		if !e.Spawn(1, 1, fibFID, fibLocals, func(c *core.Env) { c.SetI64(0, n-1) }) {
			return core.Unwound
		}
		fallthrough
	case 1:
		n := e.I64(0)
		if !e.Spawn(2, 2, fibFID, fibLocals, func(c *core.Env) { c.SetI64(0, n-2) }) {
			return core.Unwound
		}
		fallthrough
	case 2:
		r1, ok := e.Join(2, e.HandleAt(1))
		if !ok {
			return core.Unwound
		}
		e.SetU64(3, r1)
		fallthrough
	case 3:
		r2, ok := e.Join(3, e.HandleAt(2))
		if !ok {
			return core.Unwound
		}
		e.ReturnU64(e.U64(3) + r2)
		return core.Done
	}
	panic("fib: bad resume point")
}

func fibSeq(n int64) int64 {
	if n < 2 {
		return n
	}
	return fibSeq(n-1) + fibSeq(n-2)
}

func runFib(t *testing.T, cfg core.Config, n int64) (*core.Machine, uint64) {
	t.Helper()
	m, err := core.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Run(fibFID, fibLocals, func(e *core.Env) { e.SetI64(0, n) })
	if err != nil {
		t.Fatal(err)
	}
	return m, got
}

func TestFibSingleWorker(t *testing.T) {
	cfg := core.DefaultConfig(1)
	m, got := runFib(t, cfg, 12)
	if want := uint64(fibSeq(12)); got != want {
		t.Fatalf("fib(12) = %d, want %d", got, want)
	}
	st := m.TotalStats()
	// fib(12) spawns 2 tasks per internal call; total tasks = spawns+1
	// (the root), all executed exactly once.
	if st.TasksExecuted != st.Spawns+1 {
		t.Fatalf("tasks=%d spawns=%d: lost or duplicated tasks", st.TasksExecuted, st.Spawns)
	}
	if st.StealsOK != 0 {
		t.Fatalf("single worker stole %d threads", st.StealsOK)
	}
	if st.JoinsMiss != 0 {
		t.Fatalf("single worker missed %d joins (children always finish first)", st.JoinsMiss)
	}
}

func TestFibMultiWorkerWithSteals(t *testing.T) {
	cfg := core.DefaultConfig(8)
	cfg.WorkersPerNode = 4
	m, got := runFib(t, cfg, 16)
	if want := uint64(fibSeq(16)); got != want {
		t.Fatalf("fib(16) = %d, want %d", got, want)
	}
	st := m.TotalStats()
	if st.TasksExecuted != st.Spawns+1 {
		t.Fatalf("tasks=%d spawns=%d", st.TasksExecuted, st.Spawns)
	}
	if st.StealsOK == 0 {
		t.Fatal("no successful steals on 8 workers — load balancing dead")
	}
	if st.ParentStolen != st.StealsOK {
		// Every successful steal migrates exactly one continuation,
		// whose home worker observes exactly one failed pop.
		t.Fatalf("steals=%d but parent-stolen pops=%d", st.StealsOK, st.ParentStolen)
	}
	if st.BytesStolen == 0 {
		t.Fatal("steals moved no stack bytes")
	}
}

func TestFibResultAcrossWorkerCounts(t *testing.T) {
	want := uint64(fibSeq(14))
	for _, workers := range []int{1, 2, 3, 7, 16} {
		cfg := core.DefaultConfig(workers)
		cfg.WorkersPerNode = 5
		_, got := runFib(t, cfg, 14)
		if got != want {
			t.Fatalf("fib(14) on %d workers = %d, want %d", workers, got, want)
		}
	}
}

func TestFibDeterministicBySeed(t *testing.T) {
	run := func(seed uint64) (uint64, uint64, core.WorkerStats) {
		cfg := core.DefaultConfig(6)
		cfg.Seed = seed
		m, got := runFib(t, cfg, 14)
		return got, m.ElapsedCycles(), m.TotalStats()
	}
	r1, t1, s1 := run(7)
	r2, t2, s2 := run(7)
	if r1 != r2 || t1 != t2 || s1 != s2 {
		t.Fatalf("same seed diverged: (%d,%d) vs (%d,%d)\n%+v\n%+v", r1, t1, r2, t2, s1, s2)
	}
	_, t3, _ := run(8)
	if t3 == t1 {
		t.Log("different seeds gave identical times (possible but suspicious)")
	}
}

func TestFibParallelismSpeedsUp(t *testing.T) {
	cfg1 := core.DefaultConfig(1)
	m1, _ := runFib(t, cfg1, 17)
	cfg8 := core.DefaultConfig(8)
	cfg8.WorkersPerNode = 8
	m8, _ := runFib(t, cfg8, 17)
	sp := float64(m1.ElapsedCycles()) / float64(m8.ElapsedCycles())
	if sp < 3 {
		t.Fatalf("8 workers only %.2fx faster than 1", sp)
	}
}

func TestFibIsoAddressSameResult(t *testing.T) {
	want := uint64(fibSeq(14))
	cfg := core.DefaultConfig(6)
	cfg.Scheme = core.SchemeIso
	m, got := runFib(t, cfg, 14)
	if got != want {
		t.Fatalf("iso fib(14) = %d, want %d", got, want)
	}
	st := m.TotalStats()
	if st.StealsOK == 0 {
		t.Fatal("iso-address run had no steals")
	}
	if st.PageFaults == 0 {
		t.Fatal("iso-address run charged no page faults")
	}
}

func TestIsoReservesGlobalRange(t *testing.T) {
	cfgU := core.DefaultConfig(8)
	mU, _ := runFib(t, cfgU, 10)
	cfgI := core.DefaultConfig(8)
	cfgI.Scheme = core.SchemeIso
	mI, _ := runFib(t, cfgI, 10)
	// Iso must reserve ~Workers×slab per process; uni only its fixed
	// regions. (Both also carry the RDMA heap + deque reservations.)
	isoExtra := mI.MaxReservedBytes()
	uniExtra := mU.MaxReservedBytes()
	if isoExtra <= uniExtra {
		t.Fatalf("iso reserved %d <= uni %d", isoExtra, uniExtra)
	}
	slab := core.IsoSlabSize
	if isoExtra-uniExtra < 7*slab/2 {
		t.Fatalf("iso reservation %d not scaling with worker count", isoExtra-uniExtra)
	}
}

func TestStackUsageTracked(t *testing.T) {
	cfg := core.DefaultConfig(4)
	m, _ := runFib(t, cfg, 14)
	if m.MaxStackUsage() == 0 {
		t.Fatal("no stack usage recorded")
	}
	// fib(14) nests ≤ 14 frames of (32+32)=64 bytes plus the root.
	if m.MaxStackUsage() > 64*20 {
		t.Fatalf("stack usage %d implausibly high", m.MaxStackUsage())
	}
}

func TestHardwareFAAMode(t *testing.T) {
	cfg := core.DefaultConfig(6)
	cfg.Net.HardwareFAA = true
	m, got := runFib(t, cfg, 14)
	if want := uint64(fibSeq(14)); got != want {
		t.Fatalf("hw-FAA fib(14) = %d, want %d", got, want)
	}
	if m.TotalStats().StealsOK == 0 {
		t.Fatal("no steals under hardware FAA")
	}
}

func TestXeonProfileFaster(t *testing.T) {
	cfgS := core.DefaultConfig(1)
	mS, _ := runFib(t, cfgS, 14)
	cfgX := core.DefaultConfig(1)
	cfgX.Costs = core.XeonCosts()
	mX, _ := runFib(t, cfgX, 14)
	if mX.ElapsedCycles() >= mS.ElapsedCycles() {
		t.Fatalf("Xeon profile (%d cycles) not faster than SPARC (%d)", mX.ElapsedCycles(), mS.ElapsedCycles())
	}
}

func TestSpawnCostMatchesPaperTable2(t *testing.T) {
	if got := core.SPARCCosts().SpawnCost(); got != 413 {
		t.Fatalf("SPARC spawn cost = %d, want 413 (Table 2)", got)
	}
	if got := core.XeonCosts().SpawnCost(); got != 100 {
		t.Fatalf("Xeon spawn cost = %d, want 100 (Table 2)", got)
	}
}

func TestMachineSingleShot(t *testing.T) {
	cfg := core.DefaultConfig(1)
	m, err := core.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(fibFID, fibLocals, func(e *core.Env) { e.SetI64(0, 3) }); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(fibFID, fibLocals, nil); err == nil {
		t.Fatal("second Run succeeded")
	}
}

func TestRdmaTrafficOnlyWithMultipleWorkers(t *testing.T) {
	cfg := core.DefaultConfig(1)
	m, _ := runFib(t, cfg, 10)
	st := m.Workers()[0].NetStats()
	if st.Reads != 0 || st.FAAs != 0 {
		t.Fatalf("single worker produced remote traffic: %+v", st)
	}
}

func TestStealPhaseBreakdownPopulated(t *testing.T) {
	cfg := core.DefaultConfig(8)
	m, _ := runFib(t, cfg, 16)
	ph := m.TotalStats().Phases
	if ph.EmptyCheck == 0 || ph.Lock == 0 || ph.Steal == 0 || ph.StackTransfer == 0 || ph.Unlock == 0 {
		t.Fatalf("steal phases missing: %+v", ph)
	}
}

func TestDequeCapOverflowDetected(t *testing.T) {
	cfg := core.DefaultConfig(1)
	cfg.DequeCap = 2 // fib(6) nests deeper than 2
	m, err := core.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(fibFID, fibLocals, func(e *core.Env) { e.SetI64(0, 8) }); err == nil {
		t.Fatal("deque overflow not reported")
	}
}

func TestSoftwareVsHardwareFAALatencyVisible(t *testing.T) {
	// With everything else equal, hardware FAA should not be slower.
	run := func(hw bool) uint64 {
		cfg := core.DefaultConfig(8)
		cfg.Net.HardwareFAA = hw
		m, _ := runFib(t, cfg, 16)
		return m.ElapsedCycles()
	}
	sw, hw := run(false), run(true)
	if hw > sw+sw/10 {
		t.Fatalf("hardware FAA slower than software: %d vs %d", hw, sw)
	}
}

func init() {
	// Silence unused-import gymnastics for rdma in future edits.
	_ = rdma.DefaultParams
}

func TestVictimPoliciesAllComplete(t *testing.T) {
	want := uint64(fibSeq(15))
	for _, pol := range []core.VictimPolicy{core.VictimRandom, core.VictimLocalFirst, core.VictimLastSuccess} {
		cfg := core.DefaultConfig(9)
		cfg.WorkersPerNode = 3
		cfg.Victim = pol
		m, got := runFib(t, cfg, 15)
		if got != want {
			t.Fatalf("policy %v: fib(15) = %d, want %d", pol, got, want)
		}
		if err := m.CheckQuiescence(); err != nil {
			t.Fatalf("policy %v: %v", pol, err)
		}
		if pol != core.VictimRandom && m.TotalStats().StealsOK == 0 {
			t.Fatalf("policy %v: no steals", pol)
		}
	}
}

func TestLocalFirstPrefersCheapIntraNodeSteals(t *testing.T) {
	run := func(pol core.VictimPolicy) uint64 {
		cfg := core.DefaultConfig(12)
		cfg.WorkersPerNode = 6
		cfg.Net.IntraNodeFactor = 0.2 // shared-memory shortcut
		cfg.Victim = pol
		m, _ := runFib(t, cfg, 17)
		return m.ElapsedCycles()
	}
	rnd, local := run(core.VictimRandom), run(core.VictimLocalFirst)
	// Local-first should not be much worse; usually better with cheap
	// intra-node steals.
	if float64(local) > 1.25*float64(rnd) {
		t.Fatalf("local-first (%d cycles) much slower than random (%d)", local, rnd)
	}
}

func TestMultiWorkerSlotsCorrectness(t *testing.T) {
	want := uint64(fibSeq(15))
	cfg := core.DefaultConfig(8)
	cfg.SlotsPerProcess = 2
	m, got := runFib(t, cfg, 15)
	if got != want {
		t.Fatalf("slots=2 fib(15) = %d, want %d", got, want)
	}
	if err := m.CheckQuiescence(); err != nil {
		t.Fatal(err)
	}
	// Only slot-0 workers can host root-descendant work.
	for _, w := range m.Workers() {
		if w.Rank()%2 == 1 && w.Stats().TasksExecuted > 0 {
			t.Fatalf("slot-1 worker %d executed %d tasks", w.Rank(), w.Stats().TasksExecuted)
		}
	}
}

func TestIsoSlotsRejected(t *testing.T) {
	cfg := core.DefaultConfig(4)
	cfg.Scheme = core.SchemeIso
	cfg.SlotsPerProcess = 2
	if _, err := core.NewMachine(cfg); err == nil {
		t.Fatal("iso + slots accepted")
	}
}

// pointerChainFID builds a linked list of intra-stack pointers, forces
// a migration by spawning a slow child, then walks the chain — the
// paper's core guarantee (§5.1): stack bytes move, addresses stay.
var pointerChainFID core.FuncID

func init() {
	pointerChainFID = core.Register("pointer-chain", func(e *core.Env) core.Status {
		const nodes = 8
		nodeSlot := func(i int) int { return 4 + 2*i }
		switch e.RP() {
		case 0:
			for i := 0; i < nodes; i++ {
				e.SetU64(nodeSlot(i), uint64(i)*3+1)
				if i+1 < nodes {
					e.SetPtr(nodeSlot(i)+1, e.LocalAddr((nodeSlot(i+1))*8))
				}
			}
			e.SetPtr(0, e.LocalAddr(nodeSlot(0)*8))
			e.SetU64(2, uint64(e.Worker().Rank()))
			if !e.Spawn(1, 1, slowChildFID, 8, func(c *core.Env) { c.SetU64(0, 200_000) }) {
				return core.Unwound
			}
			fallthrough
		case 1:
			// Walk the chain through stored addresses (possibly on a
			// different worker now).
			va := e.PtrAt(0)
			base := e.LocalAddr(0)
			var sum, count uint64
			for va != 0 {
				slot := int(va-base) / 8
				sum += e.U64(slot)
				count++
				va = e.PtrAt(slot + 1)
			}
			migrated := uint64(0)
			if uint64(e.Worker().Rank()) != e.U64(2) {
				migrated = 1
			}
			e.SetU64(3, sum<<16|count<<1|migrated)
			fallthrough
		case 2:
			if _, ok := e.Join(2, e.HandleAt(1)); !ok {
				return core.Unwound
			}
			e.ReturnU64(e.U64(3))
			return core.Done
		}
		panic("bad rp")
	})
}

var slowChildFID core.FuncID

func init() {
	slowChildFID = core.Register("slow-child-test", func(e *core.Env) core.Status {
		e.Work(e.U64(0))
		e.ReturnU64(0)
		return core.Done
	})
}

func TestIntraStackPointersSurviveMigration(t *testing.T) {
	const nodes = 8
	wantSum := uint64(0)
	for i := 0; i < nodes; i++ {
		wantSum += uint64(i)*3 + 1
	}
	locals := uint32((4 + 2*nodes) * 8)
	migratedRuns := 0
	for seed := uint64(1); seed <= 8; seed++ {
		cfg := core.DefaultConfig(2)
		cfg.WorkersPerNode = 1
		cfg.Seed = seed
		m, err := core.NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(pointerChainFID, locals, nil)
		if err != nil {
			t.Fatal(err)
		}
		sum := res >> 16
		count := (res >> 1) & 0x7fff
		if sum != wantSum || count != nodes {
			t.Fatalf("seed %d: walked sum=%d count=%d, want %d/%d", seed, sum, count, wantSum, nodes)
		}
		if res&1 == 1 {
			migratedRuns++
		}
	}
	if migratedRuns == 0 {
		t.Fatal("no run migrated the pointer-chain thread; the test exercised nothing")
	}
}

// Property: migrations under many seeds never corrupt results across
// all three migration-relevant paths (steal, suspend, resume).
func TestMigrationStressManySeeds(t *testing.T) {
	want := uint64(fibSeq(13))
	for seed := uint64(1); seed <= 20; seed++ {
		cfg := core.DefaultConfig(5)
		cfg.WorkersPerNode = 1 // everything crosses the fabric
		cfg.Seed = seed
		m, got := runFib(t, cfg, 13)
		if got != want {
			t.Fatalf("seed %d: fib(13) = %d, want %d", seed, got, want)
		}
		if err := m.CheckQuiescence(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestHelpFirstCorrectness(t *testing.T) {
	want := uint64(fibSeq(15))
	for _, workers := range []int{1, 4, 9} {
		cfg := core.DefaultConfig(workers)
		cfg.HelpFirst = true
		m, got := runFib(t, cfg, 15)
		if got != want {
			t.Fatalf("help-first fib(15) on %d workers = %d, want %d", workers, got, want)
		}
		if err := m.CheckQuiescence(); err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
	}
}

func TestHelpFirstStealsDescriptorsNotStacks(t *testing.T) {
	cfg := core.DefaultConfig(8)
	cfg.HelpFirst = true
	m, _ := runFib(t, cfg, 16)
	st := m.TotalStats()
	if st.StealsOK == 0 {
		t.Fatal("no steals")
	}
	// A fib descriptor is 16 B header + 40 B args; a stack would be
	// 80+ bytes per frame and typically several frames.
	avg := st.BytesStolen / st.StealsOK
	if avg > 80 {
		t.Fatalf("help-first moved %d bytes/steal — looks like stacks, not descriptors", avg)
	}
	if st.Suspends != 0 {
		t.Fatalf("help-first suspended %d times; joins should help inline", st.Suspends)
	}
	if st.ParentStolen != 0 {
		t.Fatalf("help-first migrated %d started parents", st.ParentStolen)
	}
}

func TestHelpFirstDeepensRegionUsage(t *testing.T) {
	// The known cost of help-first: a blocked parent helps run other
	// subtrees nested below it, so region occupancy grows past the
	// work-first level.
	run := func(helpFirst bool) uint64 {
		cfg := core.DefaultConfig(8)
		cfg.HelpFirst = helpFirst
		m, _ := runFib(t, cfg, 17)
		return m.MaxStackUsage()
	}
	wf, hf := run(false), run(true)
	if hf < wf {
		t.Logf("help-first usage %d < work-first %d (possible at small scale)", hf, wf)
	}
	if hf == 0 || wf == 0 {
		t.Fatal("stack usage not recorded")
	}
}

func TestUniRegionExhaustionSurfacesAsError(t *testing.T) {
	cfg := core.DefaultConfig(1)
	cfg.UniSize = 64 // smaller than one fib frame
	m, err := core.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(fibFID, fibLocals, func(e *core.Env) { e.SetI64(0, 6) }); err == nil {
		t.Fatal("region exhaustion not reported")
	}
}

func TestMaxCyclesGuard(t *testing.T) {
	// A child that never completes would hang the root's join; the
	// MaxCycles guard must turn that into an error.
	hang := core.Register("hang-forever", func(e *core.Env) core.Status {
		// Never call Return; loop burning simulated time.
		e.Work(1 << 20)
		if _, ok := e.Join(0, core.MakeHandle(0, 0x6000_0000_0000)); !ok {
			return core.Unwound
		}
		return core.Done
	})
	_ = hang
	cfg := core.DefaultConfig(2)
	cfg.MaxCycles = 1 << 22
	m, err := core.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(hang, 8, nil); err == nil {
		t.Fatal("MaxCycles exceeded without error")
	}
	_ = m
}

// TestConfigMatrixStress sweeps scheme × victim policy × scheduling
// mode × seeds and requires exact results and quiescence everywhere —
// the broad-interleaving correctness amplifier.
func TestConfigMatrixStress(t *testing.T) {
	want := uint64(fibSeq(12))
	for _, scheme := range []core.SchemeKind{core.SchemeUni, core.SchemeIso} {
		for _, pol := range []core.VictimPolicy{core.VictimRandom, core.VictimLocalFirst, core.VictimLastSuccess} {
			for _, hf := range []bool{false, true} {
				if hf && scheme == core.SchemeIso {
					continue // help-first is exercised under uni only
				}
				for seed := uint64(1); seed <= 3; seed++ {
					cfg := core.DefaultConfig(6)
					cfg.WorkersPerNode = 2
					cfg.Scheme = scheme
					cfg.Victim = pol
					cfg.HelpFirst = hf
					cfg.Seed = seed
					m, got := runFib(t, cfg, 12)
					if got != want {
						t.Fatalf("%v/%v/hf=%v/seed=%d: fib(12)=%d want %d", scheme, pol, hf, seed, got, want)
					}
					if err := m.CheckQuiescence(); err != nil {
						t.Fatalf("%v/%v/hf=%v/seed=%d: %v", scheme, pol, hf, seed, err)
					}
				}
			}
		}
	}
}

func TestLifelinesCorrectness(t *testing.T) {
	want := uint64(fibSeq(16))
	for _, workers := range []int{2, 8, 13} { // incl. non-power-of-two
		cfg := core.DefaultConfig(workers)
		cfg.Lifelines = true
		cfg.WorkersPerNode = 4
		m, got := runFib(t, cfg, 16)
		if got != want {
			t.Fatalf("lifelines fib(16) on %d workers = %d, want %d", workers, got, want)
		}
		if err := m.CheckQuiescence(); err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		st := m.TotalStats()
		if workers > 2 && st.LifelinePushes == 0 {
			t.Fatalf("%d workers: no lifeline pushes (receives %d)", workers, st.LifelineReceives)
		}
		if st.LifelinePushes != st.LifelineReceives {
			t.Fatalf("pushed %d but received %d", st.LifelinePushes, st.LifelineReceives)
		}
	}
}

func TestLifelinesReduceFailedProbes(t *testing.T) {
	run := func(lifelines bool) (uint64, uint64) {
		cfg := core.DefaultConfig(12)
		cfg.Lifelines = lifelines
		cfg.Seed = 5
		m, _ := runFib(t, cfg, 17)
		st := m.TotalStats()
		return st.StealAbortEmpty + st.StealAbortLock, m.ElapsedCycles()
	}
	randomAborts, _ := run(false)
	lifelineAborts, _ := run(true)
	if lifelineAborts >= randomAborts {
		t.Fatalf("lifelines did not reduce failed probes: %d vs %d", lifelineAborts, randomAborts)
	}
}

func TestLifelinesRejectIncompatibleConfigs(t *testing.T) {
	for _, tweak := range []func(*core.Config){
		func(c *core.Config) { c.Scheme = core.SchemeIso },
		func(c *core.Config) { c.HelpFirst = true },
		func(c *core.Config) { c.SlotsPerProcess = 2 },
	} {
		cfg := core.DefaultConfig(4)
		cfg.Lifelines = true
		tweak(&cfg)
		if _, err := core.NewMachine(cfg); err == nil {
			t.Fatal("incompatible lifeline config accepted")
		}
	}
}

func TestLifelinesDeterministic(t *testing.T) {
	run := func() uint64 {
		cfg := core.DefaultConfig(8)
		cfg.Lifelines = true
		cfg.Seed = 9
		m, _ := runFib(t, cfg, 15)
		return m.ElapsedCycles()
	}
	if run() != run() {
		t.Fatal("lifeline runs not deterministic")
	}
}
