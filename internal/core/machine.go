package core

import (
	"fmt"

	"uniaddr/internal/fault"
	"uniaddr/internal/gas"
	"uniaddr/internal/mem"
	"uniaddr/internal/obs"
	"uniaddr/internal/rdma"
	"uniaddr/internal/sim"
)

// Config describes a simulated machine: how many worker processes, the
// CPU cost profile, the fabric parameters, the thread-management scheme
// and the virtual-memory layout.
type Config struct {
	// Workers is the number of worker processes (one per core, §5.1).
	Workers int
	// WorkersPerNode groups workers into nodes. With software
	// fetch-and-add each node also gets a communication-server core, so
	// the paper's 16-core FX10 nodes run 15 workers (§6).
	WorkersPerNode int
	// Costs is the CPU cost profile.
	Costs Costs
	// Net is the fabric parameter set.
	Net rdma.Params
	// Scheme picks uni-address or the iso-address baseline.
	Scheme SchemeKind
	// Seed drives every random decision (victim selection); equal seeds
	// give bit-identical runs.
	Seed uint64

	UniBase   mem.VA
	UniSize   uint64
	RDMABase  mem.VA
	RDMASize  uint64
	DequeBase mem.VA
	DequeCap  uint64
	// IsoBase/IsoSlabSize lay out the iso-address global stack area:
	// rank r's stacks live in [IsoBase+r*IsoSlabSize, +IsoSlabSize).
	IsoBase     mem.VA
	IsoSlabSize uint64

	// SlotsPerProcess models the paper's §5.1 alternative of hosting
	// several workers (and uni-address regions) in one address space to
	// reduce the process count: worker rank r owns region slot r mod
	// SlotsPerProcess at UniBase + slot·UniSize. A task allocated in
	// slot s can only ever run in slot s of some process, so thieves
	// must abort steals whose stolen address belongs to another slot —
	// the utilization loss the paper predicts. 1 (the default) is the
	// paper's process-per-core scheme.
	SlotsPerProcess int

	// Grain is the task-granularity cutoff workloads read back through
	// Env.Grain: subtrees whose size metric is at or below it run as
	// one sequential task instead of spawning. 0 (the default) disables
	// coalescing; GrainAuto asks the workload to pick a cutoff and
	// apply it adaptively, keyed off Env.Coalesce.
	Grain uint64

	// MaxCycles aborts the run if the virtual clock passes it (guards
	// against deadlocked workloads).
	MaxCycles uint64

	// Obs enables the structured event recorder (internal/obs):
	// per-worker typed event rings, the scheduler-state streams behind
	// the Gantt timeline and utilization, task lineage and latency
	// histograms; export it with Machine.Obs().Export() after Run.
	// Recording is host-side only — it never perturbs virtual time, so a
	// run with Obs on is cycle-identical to the same run with it off.
	Obs bool
	// ObsRingCap bounds each worker's event ring (<= 0 selects 2^18
	// events; oldest events are dropped on overflow).
	ObsRingCap int

	// Victim selects the victim-selection policy for work stealing.
	Victim VictimPolicy

	// SlowWorkerEvery/SlowWorkerFactor model performance variability
	// (stragglers): every SlowWorkerEvery-th worker runs its CPU-side
	// costs SlowWorkerFactor× slower (fabric latency is unaffected).
	// 0 disables. Work stealing's job is to absorb exactly this.
	SlowWorkerEvery  int
	SlowWorkerFactor float64

	// Lifelines enables lifeline-based global load balancing ([24],
	// Saraswat et al. PPoPP'11) as the idle protocol: failed thieves
	// register on hypercube neighbours and receive pushed work instead
	// of probing randomly. Uni-address work-first only.
	Lifelines       bool
	LifelineBase    mem.VA
	LifelineZ       int    // hypercube dimension (0 = ceil(log2 P))
	LifelineMaxPush uint64 // mailbox payload capacity per axis

	// HelpFirst switches the scheduler to the "tied tasks" strategy of
	// §2 (Satin/HotSLAW-style): spawns queue a descriptor and the
	// parent continues; a join helps by running queued tasks inline.
	// Steals move descriptors, never stacks. Default false = the
	// paper's child-first (work-first) scheme.
	HelpFirst bool

	// GasBase/GasSize lay out the per-process global-heap segment
	// (internal/gas) used for cross-thread data (§5.1's global
	// references). GasSize 0 disables the heap.
	GasBase mem.VA
	GasSize uint64

	// Fault configures deterministic fabric fault injection
	// (internal/fault). The zero value disables it entirely: no injector
	// is attached and the fabric's fast path is byte-identical to a
	// fault-free build.
	Fault fault.Config

	// StealMaxRetries bounds how often a thief retries a steal against
	// the same victim after an injected fabric fault before giving up
	// (0 = default 3; negative = no retries).
	StealMaxRetries int
	// StealBackoffBase/StealBackoffCap shape the capped exponential
	// virtual-time backoff between steal retries: the n-th retry waits
	// min(StealBackoffBase<<n, StealBackoffCap) cycles (0 = defaults
	// 2000 and 1<<17).
	StealBackoffBase uint64
	StealBackoffCap  uint64
	// VictimBlacklistAfter consecutive steal faults against one victim
	// blacklist it for VictimBlacklistCycles of virtual time; pickVictim
	// redraws around blacklisted ranks (0 = defaults 3 and 2_000_000;
	// VictimBlacklistAfter < 0 disables blacklisting).
	VictimBlacklistAfter  int
	VictimBlacklistCycles uint64
}

// FaultClasses are the fault knob classes the simulator honours: the
// fabric's. The real backends' steal and control-plane knobs have no
// counterpart in its fabric model.
const FaultClasses = fault.Fabric

// VictimPolicy picks how an idle worker chooses whom to rob.
type VictimPolicy int

const (
	// VictimRandom is the paper's uniform random selection.
	VictimRandom VictimPolicy = iota
	// VictimLocalFirst alternates between a random same-node victim and
	// a random global one (HotSLAW-style hierarchical stealing) —
	// profitable when the fabric's IntraNodeFactor < 1.
	VictimLocalFirst
	// VictimLastSuccess retries the last successful victim before
	// falling back to random selection.
	VictimLastSuccess
)

func (v VictimPolicy) String() string {
	switch v {
	case VictimLocalFirst:
		return "local-first"
	case VictimLastSuccess:
		return "last-success"
	default:
		return "random"
	}
}

// DefaultConfig returns an FX10-flavoured configuration: SPARC costs,
// software fetch-and-add fabric, uni-address scheme, 15 workers per
// node.
func DefaultConfig(workers int) Config {
	return Config{
		Workers:         workers,
		WorkersPerNode:  15,
		Costs:           SPARCCosts(),
		Net:             rdma.DefaultParams(),
		Scheme:          SchemeUni,
		Seed:            1,
		UniBase:         DefaultUniBase,
		UniSize:         DefaultUniSize,
		RDMABase:        DefaultRDMABase,
		RDMASize:        DefaultRDMASize,
		DequeBase:       DefaultDequeBase,
		DequeCap:        DefaultDequeCap,
		IsoBase:         DefaultIsoBase,
		IsoSlabSize:     1 << 20,
		GasBase:         gas.DefaultBase,
		GasSize:         1 << 20,
		LifelineBase:    DefaultLifelineBase,
		LifelineMaxPush: 16 << 10,
		MaxCycles:       1 << 42,

		StealMaxRetries:       3,
		StealBackoffBase:      2000,
		StealBackoffCap:       1 << 17,
		VictimBlacklistAfter:  3,
		VictimBlacklistCycles: 2_000_000,
	}
}

// Machine is a built simulated cluster, ready for one Run.
type Machine struct {
	cfg     Config
	eng     *sim.Engine
	fab     *rdma.Fabric
	workers []*Worker
	servers []*rdma.Server

	rootFid    FuncID
	rootLocals uint32
	rootInit   func(*Env)
	rootRecord Handle
	rootResult uint64
	done       bool
	err        error
	elapsed    uint64
	ran        bool
	obs        *obs.Recorder
	injector   *fault.Injector
}

// NewMachine builds the cluster: one address space, deque, RDMA heap
// and endpoint per worker, plus one communication server per node when
// the fabric uses software fetch-and-add.
func NewMachine(cfg Config) (*Machine, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("core: need at least 1 worker")
	}
	if cfg.WorkersPerNode < 1 {
		cfg.WorkersPerNode = 15
	}
	if cfg.SlotsPerProcess < 1 {
		cfg.SlotsPerProcess = 1
	}
	if cfg.SlotsPerProcess > 1 && cfg.Scheme == SchemeIso {
		return nil, fmt.Errorf("core: SlotsPerProcess applies to the uni-address scheme only")
	}
	if cfg.Lifelines {
		if cfg.Scheme == SchemeIso || cfg.HelpFirst || cfg.SlotsPerProcess > 1 {
			return nil, fmt.Errorf("core: Lifelines requires the uni-address, work-first, single-slot configuration")
		}
		if cfg.LifelineZ <= 0 {
			cfg.LifelineZ = 1
			for 1<<cfg.LifelineZ < cfg.Workers {
				cfg.LifelineZ++
			}
		}
		if cfg.LifelineMaxPush == 0 {
			cfg.LifelineMaxPush = 16 << 10
		}
	}
	if cfg.StealMaxRetries == 0 {
		cfg.StealMaxRetries = 3
	}
	if cfg.StealBackoffBase == 0 {
		cfg.StealBackoffBase = 2000
	}
	if cfg.StealBackoffCap == 0 {
		cfg.StealBackoffCap = 1 << 17
	}
	if cfg.VictimBlacklistAfter == 0 {
		cfg.VictimBlacklistAfter = 3
	}
	if cfg.VictimBlacklistCycles == 0 {
		cfg.VictimBlacklistCycles = 2_000_000
	}
	var inj *fault.Injector
	if cfg.Fault.Enabled() {
		if cfg.Fault.Seed == 0 {
			// Fault patterns follow the run seed unless pinned: equal
			// seeds reproduce the exact same fault schedule.
			cfg.Fault.Seed = cfg.Seed ^ 0x6661756c74 // "fault"
		}
		if cfg.Fault.ServerDropProb > 0 && !cfg.Net.HardwareFAA && cfg.Net.FAATimeout == 0 {
			// Dropped software-FAA notices need a timeout or the
			// initiator wedges forever. Must be set before NewFabric
			// copies the params.
			cfg.Net.FAATimeout = 4 * cfg.Net.SoftwareFAALatency()
		}
		var err error
		if inj, err = fault.New(cfg.Fault); err != nil {
			return nil, err
		}
	}
	m := &Machine{cfg: cfg, eng: sim.NewEngine(), injector: inj}
	m.fab = rdma.NewFabric(m.eng, cfg.Net)
	if inj != nil {
		m.fab.SetInjector(inj)
	}
	if cfg.Obs {
		m.obs = obs.NewRecorder(cfg.Workers, cfg.ObsRingCap, m.eng.Now)
	}
	var sch scheme
	if cfg.Scheme == SchemeIso {
		sch = isoScheme{}
	} else {
		sch = uniScheme{}
	}
	for rank := 0; rank < cfg.Workers; rank++ {
		space := mem.NewAddressSpace(fmt.Sprintf("w%d", rank))
		w := &Worker{
			m:          m,
			rank:       rank,
			node:       rank / cfg.WorkersPerNode,
			space:      space,
			costs:      &m.cfg.Costs,
			sch:        sch,
			lastVictim: -1,
			slowFactor: 1,
		}
		if cfg.SlowWorkerEvery > 0 && rank%cfg.SlowWorkerEvery == cfg.SlowWorkerEvery-1 && cfg.SlowWorkerFactor > 1 {
			w.slowFactor = cfg.SlowWorkerFactor
		}
		w.obs = m.obs.Worker(rank)
		w.ep = m.fab.AddEndpoint(space)
		w.ep.SetNode(w.node)
		w.ep.SetLog(w.obs)
		heapReg, err := space.Reserve("rdmaheap", cfg.RDMABase, cfg.RDMASize, true)
		if err != nil {
			return nil, err
		}
		w.heap = mem.NewAllocator(heapReg)
		if w.deque, err = NewDeque(space, cfg.DequeBase, cfg.DequeCap); err != nil {
			return nil, err
		}
		w.deque.SetLog(w.obs)
		if cfg.GasSize > 0 {
			if w.gas, err = gas.NewHeap(space, w.ep, cfg.GasBase, cfg.GasSize, gas.DefaultCosts()); err != nil {
				return nil, err
			}
		}
		if cfg.Lifelines {
			if _, err := space.Reserve("lifeline", cfg.LifelineBase,
				llRegionBytes(cfg.LifelineZ, cfg.LifelineMaxPush), true); err != nil {
				return nil, err
			}
			w.llOut = lifelineNeighbors(rank, cfg.Workers, cfg.LifelineZ)
		}
		switch cfg.Scheme {
		case SchemeIso:
			// Reserve the whole global stack range (the §4 problem):
			// own slab for real, every other rank's as phantom until
			// first touch.
			w.isoSlabs = make(map[int]*mem.Region)
			own, err := space.Reserve(fmt.Sprintf("isoslab-%d", rank),
				m.IsoSlabBase(rank), cfg.IsoSlabSize, false)
			if err != nil {
				return nil, err
			}
			w.isoSlabs[rank] = own
			w.isoAlloc = mem.NewAllocator(own)
			// Next-fit models isomalloc: live stacks spread over the
			// reserved range instead of recycling the lowest addresses,
			// so migrations keep first-touching pages (§4 item 2).
			w.isoAlloc.SetNextFit(true)
			space.AdjustPhantom(int64(uint64(cfg.Workers-1) * cfg.IsoSlabSize))
		default:
			w.slot = rank % cfg.SlotsPerProcess
			base := cfg.UniBase + mem.VA(uint64(w.slot)*cfg.UniSize)
			if w.region, err = NewRegion(space, base, cfg.UniSize); err != nil {
				return nil, err
			}
		}
		m.workers = append(m.workers, w)
	}
	if !cfg.Net.HardwareFAA {
		nodes := (cfg.Workers + cfg.WorkersPerNode - 1) / cfg.WorkersPerNode
		for n := 0; n < nodes; n++ {
			srv := rdma.NewServer(m.eng, fmt.Sprintf("comm%d", n))
			m.servers = append(m.servers, srv)
			for _, w := range m.workers {
				if w.node == n {
					w.ep.SetServer(srv)
				}
			}
		}
	}
	return m, nil
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Workers returns the worker slice (rank order).
func (m *Machine) Workers() []*Worker { return m.workers }

// IsoSlabBase returns the base VA of rank's iso-address slab.
func (m *Machine) IsoSlabBase(rank int) mem.VA {
	return m.cfg.IsoBase + mem.VA(uint64(rank)*m.cfg.IsoSlabSize)
}

// IsoRankOfVA returns the rank owning the iso-address slab containing
// va.
func (m *Machine) IsoRankOfVA(va mem.VA) int {
	if va < m.cfg.IsoBase {
		panic(fmt.Sprintf("core: %#x below iso area", va))
	}
	r := int(uint64(va-m.cfg.IsoBase) / m.cfg.IsoSlabSize)
	if r >= m.cfg.Workers {
		panic(fmt.Sprintf("core: %#x beyond iso area", va))
	}
	return r
}

func (m *Machine) finish(result uint64) {
	if !m.done {
		m.rootResult = result
		m.done = true
	}
}

func (m *Machine) fail(err error) {
	if m.err == nil {
		m.err = err
	}
	m.done = true
}

// Run executes a root task created from fid with localsLen bytes of
// locals, initialised by init, on worker 0, and simulates until the
// root task completes. It returns the root task's result. A Machine is
// single-shot.
func (m *Machine) Run(fid FuncID, localsLen uint32, init func(*Env)) (uint64, error) {
	if m.ran {
		return 0, fmt.Errorf("core: machine already ran")
	}
	m.ran = true
	m.rootFid, m.rootLocals, m.rootInit = fid, localsLen, init
	for _, w := range m.workers {
		w := w
		m.eng.Spawn(fmt.Sprintf("worker%d", w.rank), w.run)
	}
	end, err := m.eng.Run()
	m.elapsed = end
	if err != nil {
		return 0, err
	}
	if m.err != nil {
		return 0, m.err
	}
	if !m.done {
		return 0, fmt.Errorf("core: run ended without completing the root task")
	}
	return m.rootResult, nil
}

// Obs returns the structured event recorder (nil unless Config.Obs was
// set).
func (m *Machine) Obs() *obs.Recorder { return m.obs }

// ElapsedCycles returns the virtual time the run took.
func (m *Machine) ElapsedCycles() uint64 { return m.elapsed }

// ElapsedSeconds converts ElapsedCycles with the profile clock.
func (m *Machine) ElapsedSeconds() float64 { return m.cfg.Costs.Seconds(m.elapsed) }

// TotalStats sums all workers' counters.
func (m *Machine) TotalStats() WorkerStats {
	var t WorkerStats
	for _, w := range m.workers {
		s := w.stats
		t.TasksExecuted += s.TasksExecuted
		t.Spawns += s.Spawns
		t.JoinsFast += s.JoinsFast
		t.JoinsMiss += s.JoinsMiss
		t.Suspends += s.Suspends
		t.ResumesLocal += s.ResumesLocal
		t.ResumesWait += s.ResumesWait
		t.ParentStolen += s.ParentStolen
		t.StealAttempts += s.StealAttempts
		t.StealsOK += s.StealsOK
		t.StealAbortEmpty += s.StealAbortEmpty
		t.StealAbortLock += s.StealAbortLock
		t.StealAbortSlot += s.StealAbortSlot
		t.Phases.Merge(s.Phases)
		t.StealAbortCycles += s.StealAbortCycles
		t.SuspendCycles += s.SuspendCycles
		t.ResumeCycles += s.ResumeCycles
		t.BytesStolen += s.BytesStolen
		t.PageFaults += s.PageFaults
		t.LifelinePushes += s.LifelinePushes
		t.LifelineReceives += s.LifelineReceives
		t.WorkCycles += s.WorkCycles
		t.IdleCycles += s.IdleCycles
		t.StealFaults += s.StealFaults
		t.StealRetries += s.StealRetries
		t.StealAbortsFault += s.StealAbortsFault
		t.StealRollbacks += s.StealRollbacks
		t.BackoffCycles += s.BackoffCycles
		t.VictimBlacklists += s.VictimBlacklists
		t.LifelineFaults += s.LifelineFaults
	}
	return t
}

// TotalNetStats sums the fabric counters over every endpoint.
func (m *Machine) TotalNetStats() rdma.Stats {
	var t rdma.Stats
	for _, w := range m.workers {
		t.Merge(w.ep.Stats())
	}
	return t
}

// FaultStats returns the injector's decision counters (zero value if
// fault injection is disabled).
func (m *Machine) FaultStats() fault.Stats {
	if m.injector == nil {
		return fault.Stats{}
	}
	return m.injector.Stats()
}

// MaxStackUsage returns the largest uni-address region occupancy seen
// on any worker (Table 4's "stack usage"). Zero under iso-address.
func (m *Machine) MaxStackUsage() uint64 {
	var max uint64
	for _, w := range m.workers {
		if w.region != nil && w.region.MaxUsed() > max {
			max = w.region.MaxUsed()
		}
	}
	return max
}

// MaxReservedBytes returns the largest per-process reserved virtual
// address space (the §4 comparison quantity).
func (m *Machine) MaxReservedBytes() uint64 {
	var max uint64
	for _, w := range m.workers {
		if r := w.space.ReservedBytes(); r > max {
			max = r
		}
	}
	return max
}

// CheckQuiescence verifies the end-state invariants that must hold
// after a run completes successfully: the root can only finish after
// every descendant finished, so every deque must be empty, every wait
// queue drained, exactly one task record (the root's) still allocated,
// and the global task accounting exact (executed = spawned + root).
// Tests call it to catch lost or duplicated continuations.
func (m *Machine) CheckQuiescence() error {
	if !m.done || m.err != nil {
		return fmt.Errorf("core: quiescence check on incomplete run")
	}
	st := m.TotalStats()
	if st.TasksExecuted != st.Spawns+1 {
		return fmt.Errorf("core: executed %d tasks but spawned %d (+1 root): lost or duplicated work",
			st.TasksExecuted, st.Spawns)
	}
	liveRecords, expected := 0, 1 // the root record stays allocated
	for _, w := range m.workers {
		if n := w.deque.Size(); n != 0 {
			return fmt.Errorf("core: worker %d deque holds %d entries after completion", w.rank, n)
		}
		if len(w.waitq) != 0 {
			return fmt.Errorf("core: worker %d wait queue holds %d threads after completion", w.rank, len(w.waitq))
		}
		liveRecords += w.heap.Live()
		if w.hfStaging != 0 {
			expected++ // help-first argument-staging scratch, one per worker
		}
		if w.isoAlloc != nil && w.isoAlloc.Live() != 0 {
			return fmt.Errorf("core: worker %d leaks %d iso stacks", w.rank, w.isoAlloc.Live())
		}
	}
	if liveRecords != expected {
		return fmt.Errorf("core: %d live heap blocks after completion, want %d (root record + staging buffers)", liveRecords, expected)
	}
	return nil
}

// TotalCommittedBytes sums committed (physical) memory across
// processes.
func (m *Machine) TotalCommittedBytes() uint64 {
	var t uint64
	for _, w := range m.workers {
		t += w.space.CommittedBytes()
	}
	return t
}
