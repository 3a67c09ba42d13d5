// Package dist is the multi-process backend: each worker is a separate
// OS process, and the scheduler state — uni-address stack arenas,
// THE-protocol deques, task-record tables — lives in one mmap'd
// shared-memory segment mapped at the SAME base virtual address in
// every process. That is the paper's uni-address region realised across
// real address spaces: a steal is a genuine one-sided cross-process
// copy at identical offsets, driven by the identical FAA/claim-then-
// verify protocol (internal/sched) the in-process rt backend runs, with
// hardware cache coherence standing in for the RDMA NIC.
//
// Split of responsibilities:
//
//   - Data plane: everything inside the segment, accessed only through
//     sched.Deque / sched.Table / mem.Arena views and the control
//     page's atomics. After the start barrier, NO scheduling decision
//     involves a message — steals, joins, completions and termination
//     are all one-sided loads/stores/RMWs on the segment, exactly as in
//     the paper.
//   - Control plane: registration handshake (including the function-
//     table fingerprint check), each run's start and stats collection,
//     and shutdown run over Unix-domain sockets; crash detection rides
//     on process exit (see dist.go).
//
// The parent process is both the coordinator and worker rank 0 — the
// root task's init closure cannot cross a process boundary, so the
// root must run where Run was called. Ranks 1..n-1 are children
// re-exec'd from the same binary (os.Executable) — launched once and
// kept for later runs of the same layout (see Run) — which also guarantees
// every process registered the same task functions; the fingerprint
// handshake turns any residual divergence (e.g. conditional Register
// calls) into a descriptive error instead of a silent wrong answer.
package dist

import (
	"time"

	"uniaddr/internal/core"
	"uniaddr/internal/fault"
	"uniaddr/internal/mem"
	"uniaddr/internal/obs"
	"uniaddr/internal/sched"
)

// Config sizes a dist run. The zero value of every field selects the
// same defaults as the rt backend, so differential runs compare like
// against like.
type Config struct {
	// Workers is the number of OS processes (including the parent,
	// which is worker rank 0).
	Workers int
	// Seed drives victim selection; each worker derives its own stream.
	Seed uint64
	// ArenaSize is the per-worker uni-address region size. The logical
	// base is core.DefaultUniBase in every worker, as in rt.
	ArenaSize uint64
	// DequeCap is the per-worker deque capacity (power of two).
	DequeCap uint64
	// RecordCap is the per-worker task-record table size.
	RecordCap uint64
	// MaxWall aborts a run that exceeds this wall-clock budget.
	MaxWall time.Duration
	// Grain is the task-granularity cutoff workloads read back through
	// core.Env.Grain (0 = off, core.GrainAuto = adaptive workload
	// default); identical semantics to rt.Config.Grain.
	Grain uint64
	// StealBatch bounds how many entries one steal round trip may move:
	// 0 selects the deque's own bound (steal-half default), 1 restores
	// single-entry steals.
	StealBatch int
	// TierGroup is the rank-block width for distance-tiered victim
	// selection (<= 0 selects sched.DefaultTierGroup).
	TierGroup int
	// KillRanks SIGKILLs each listed child rank KillAfter into the run
	// — deterministic crash injection for the resilience tests and the
	// harness's crash probe. Several ranks die concurrently (the
	// double-kill regression: exactly one structured error must win).
	// Rank 0 is the parent and cannot be a target.
	KillRanks []int
	KillAfter time.Duration
	// HangRank, when > 0, wedges that child rank HangAfter into the run
	// — alive but silent, heartbeats stopped — so the coordinator's
	// heartbeat monitor (not the crash monitor) must detect it.
	HangRank  int
	HangAfter time.Duration
	// HeartbeatInterval is how often each child stamps its liveness
	// slot; HeartbeatTimeout is how much silence the coordinator
	// tolerates before declaring the worker hung (0 = defaults, < 0
	// disables heartbeat monitoring).
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	// Fault is the deterministic fault schedule (zero value = none):
	// the knobs of FaultClasses.
	Fault fault.Config
	// Obs hosts one wall-clock event ring per rank INSIDE the shared
	// segment, so each worker process records into its own region and
	// the parent harvests them at quiescence — including after a crash
	// or hang, when the dead rank's last events are still mapped.
	Obs bool
	// ObsRingCap is the per-rank event-ring capacity (<= 0 selects
	// 2^16 events; rounded up to a power of two by obs.RingCap).
	ObsRingCap int
}

// FaultClasses are the fault knob classes dist honours: the
// backend-neutral steal knobs plus its own control-plane knobs
// (dropped/delayed/truncated control messages).
const FaultClasses = fault.Steal | fault.Control

// DefaultConfig returns the standard layout for n worker processes.
func DefaultConfig(n int) Config {
	return Config{
		Workers:   n,
		Seed:      1,
		ArenaSize: core.DefaultUniSize,
		DequeCap:  core.DefaultDequeCap,
		RecordCap: 1 << 16,
		MaxWall:   2 * time.Minute,
	}
}

func (c *Config) fillDefaults() {
	d := DefaultConfig(c.Workers)
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.ArenaSize == 0 {
		c.ArenaSize = d.ArenaSize
	}
	if c.DequeCap == 0 {
		c.DequeCap = d.DequeCap
	}
	if c.RecordCap == 0 {
		c.RecordCap = d.RecordCap
	}
	if c.MaxWall == 0 {
		c.MaxWall = d.MaxWall
	}
	// Heartbeats default ON with generous tolerance: detection must be
	// far slower than any plausible scheduling hiccup on a loaded CI
	// box, yet still bounded. Chaos tests tighten the timeout.
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 25 * time.Millisecond
	}
	if c.HeartbeatTimeout == 0 {
		c.HeartbeatTimeout = 2 * time.Second
	}
}

// segBaseCandidates are the virtual addresses the parent tries for the
// segment mapping, highest-preference first. They sit far from the Go
// heap, the default mmap area and the executable; MAP_FIXED_NOREPLACE
// makes a collision a clean error, and the parent falls through to the
// next candidate. Whichever wins is passed to the children, which must
// map at EXACTLY that address (no fallback — the whole point is that
// every process agrees).
var segBaseCandidates = []uintptr{
	0x5000_0000_0000,
	0x5100_0000_0000,
	0x5200_0000_0000,
	0x5300_0000_0000,
}

const pageSize = 4096

func pageAlign(n uint64) uint64 { return (n + pageSize - 1) &^ (pageSize - 1) }

// layout describes where each worker's structures live inside the
// segment, as OFFSETS from the segment base. Offsets — not pointers —
// are the cross-process currency, though with the same-VA mapping the
// distinction is invisible.
//
// Segment layout (every sub-region page-aligned):
//
//	[0, ctl)                      control page (ctlHdr)
//	[hb, hb+n*64)                 heartbeat page: one stamped cache
//	                              line per rank (hbSlot)
//	per worker w (w = 0..n-1):
//	  deque[w]                    sched.DequeBytes(DequeCap)
//	  table[w]                    sched.TableBytes(RecordCap)
//	  arena[w]                    ArenaSize bytes, logical VAs
//	                              [DefaultUniBase, +ArenaSize) — the
//	                              SAME logical range in every worker,
//	                              which is what makes a stolen frame's
//	                              interior pointers valid on arrival.
//	  obs[w] (when obsCap > 0)    obs.LogBytes(obsCap): rank w's
//	                              wall-clock event ring + histograms
type layout struct {
	workers   int
	hbOff     uint64
	dequeOff  []uint64
	tableOff  []uint64
	arenaOff  []uint64
	obsOff    []uint64
	dequeCap  uint64
	recordCap uint64
	arenaSize uint64
	obsCap    uint64 // wall-ring slots per rank; 0 = obs off
	total     uint64
	arenaBase mem.VA
}

func computeLayout(cfg *Config) layout {
	l := layout{
		workers:   cfg.Workers,
		dequeCap:  cfg.DequeCap,
		recordCap: cfg.RecordCap,
		arenaSize: cfg.ArenaSize,
		arenaBase: core.DefaultUniBase,
	}
	if cfg.Obs {
		// Parent and children rebuild the layout independently from the
		// childSpec; obs.RingCap is the one normaliser they share.
		l.obsCap = obs.RingCap(cfg.ObsRingCap)
	}
	off := pageAlign(ctlBytes)
	l.hbOff = off
	off += pageAlign(uint64(cfg.Workers) * hbSlotBytes)
	for w := 0; w < cfg.Workers; w++ {
		l.dequeOff = append(l.dequeOff, off)
		off += pageAlign(sched.DequeBytes(cfg.DequeCap))
		l.tableOff = append(l.tableOff, off)
		off += pageAlign(sched.TableBytes(cfg.RecordCap))
		l.arenaOff = append(l.arenaOff, off)
		off += pageAlign(cfg.ArenaSize)
		if l.obsCap > 0 {
			l.obsOff = append(l.obsOff, off)
			off += pageAlign(obs.LogBytes(l.obsCap))
		}
	}
	l.total = off
	return l
}

// rootRec is the root task's record handle: record 0 on rank 0,
// pre-allocated by the parent before the start barrier. Every process
// derives it from the layout alone — no communication needed — so any
// worker's ExecComplete can recognise "this completion finishes the
// run" with one comparison.
func rootRec() core.Handle { return sched.RecordHandle(0, 0) }
