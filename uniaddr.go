// Package uniaddr is a Go reproduction of "Uni-Address Threads:
// Scalable Thread Management for RDMA-Based Work Stealing"
// (Akiyama & Taura, HPDC 2015).
//
// The paper's runtime migrates native threads between distributed-
// memory nodes by keeping every thread's stack at a fixed virtual
// address inside a small "uni-address region" mapped at the same VA in
// every process, so a one-sided RDMA READ of the raw stack bytes is a
// complete migration — no pointer fix-up, no victim CPU involvement,
// and none of iso-address's per-core virtual-memory reservations.
//
// This reproduction runs the scheme on three backends behind one API
// (see Run and WithBackend):
//
//   - sim: a deterministic discrete-event cluster simulator — simulated
//     address spaces, a Tofu-calibrated RDMA fabric with software
//     fetch-and-add servers, THE-protocol deques in pinned simulated
//     memory, and the iso-address baseline for the paper's comparisons.
//     The semantic oracle, and the home of costs, fault injection and
//     observability.
//   - rt: real goroutines on real cores inside one process, same
//     frame/deque/arena machinery, wall-clock time.
//   - dist: one OS process per worker; arenas and deques live in a
//     shared-memory segment mapped at the same base virtual address in
//     every process, so a steal is a genuine one-sided cross-process
//     copy — the paper's uni-address region across real address spaces.
//
// The task model is fork-join with explicit resume points: register a
// task function, keep all live state in frame slots, and return Unwound
// whenever Spawn or Join report that the thread migrated or suspended:
//
//	var fib uniaddr.FuncID
//
//	func init() {
//		fib = uniaddr.Register("fib", func(e *uniaddr.Env) uniaddr.Status {
//			switch e.RP() {
//			case 0:
//				n := e.I64(0)
//				if n < 2 {
//					e.ReturnI64(n)
//					return uniaddr.Done
//				}
//				if !e.Spawn(1, 1, fib, 4*8, func(c *uniaddr.Env) { c.SetI64(0, n-1) }) {
//					return uniaddr.Unwound
//				}
//				fallthrough
//			case 1:
//				// ... spawn fib(n-2), then Join both; see examples/.
//			}
//			panic("unreachable")
//		})
//	}
//
// Run the registered function with Run(fid, localsLen, init, opts...),
// picking a backend with WithBackend; the unified Report carries the
// result and counters whichever backend ran it.
//
// See examples/quickstart for the complete program, internal/workloads
// for the paper's three benchmarks, and internal/harness for the code
// that regenerates every table and figure of the evaluation.
package uniaddr

import (
	"uniaddr/internal/core"
	"uniaddr/internal/rdma"
)

// Re-exported task-model types. These are aliases, so values flow
// freely between the facade and the internal packages.
type (
	// Env is a task function's view of its frame and the runtime.
	Env = core.Env
	// Status is a task function's return value.
	Status = core.Status
	// FuncID identifies a registered task function.
	FuncID = core.FuncID
	// Handle identifies a spawned task for Join.
	Handle = core.Handle
	// Config describes a simulated machine.
	Config = core.Config
	// Machine is a built cluster, ready for one Run.
	Machine = core.Machine
	// Worker is one simulated process (one core).
	Worker = core.Worker
	// WorkerStats are per-worker counters.
	WorkerStats = core.WorkerStats
	// Costs is a CPU cost profile.
	Costs = core.Costs
	// NetParams are the RDMA fabric parameters.
	NetParams = rdma.Params
	// SchemeKind selects uni-address or the iso-address baseline.
	SchemeKind = core.SchemeKind
)

// Task-function statuses.
const (
	// Done means the task function completed.
	Done = core.Done
	// Unwound must be returned when Spawn or Join report migration or
	// suspension.
	Unwound = core.Unwound
)

// Schemes.
const (
	// SchemeUni is the paper's uni-address scheme.
	SchemeUni = core.SchemeUni
	// SchemeIso is the iso-address baseline.
	SchemeIso = core.SchemeIso
)

// Register adds a task function to the global table and returns its id.
// Call from init so every simulated process agrees on ids.
func Register(name string, fn func(*Env) Status) FuncID {
	return core.Register(name, fn)
}

// DefaultConfig returns an FX10-flavoured machine: SPARC64IXfx cost
// profile, Tofu-calibrated fabric with software fetch-and-add (one
// communication server per 15 workers), uni-address scheme.
//
// Prefer Run with options (WithWorkers, WithSeed, WithCosts, WithNet,
// ...) for typical use; DefaultConfig + NewMachine remain the
// full-surface simulator entry point for experiment code that needs
// Config fields the options do not cover (schemes, node topology,
// lifelines, ...).
func DefaultConfig(workers int) Config { return core.DefaultConfig(workers) }

// SPARCCosts is the FX10 SPARC64IXfx cost profile (Table 1/2).
func SPARCCosts() Costs { return core.SPARCCosts() }

// XeonCosts is the Xeon E5-2660 cost profile (Table 1/2).
func XeonCosts() Costs { return core.XeonCosts() }

// DefaultNetParams returns the Tofu-calibrated fabric parameters.
func DefaultNetParams() NetParams { return rdma.DefaultParams() }

// NewMachine builds a simulated cluster from cfg.
//
// Prefer Run for typical use; NewMachine remains the escape hatch for
// programs that need direct Machine access (observability recorders,
// traces, per-worker fabric stats, staged global-heap data).
func NewMachine(cfg Config) (*Machine, error) { return core.NewMachine(cfg) }
