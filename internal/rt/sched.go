// Package rt is the real-parallelism backend: it executes the same
// registered task functions as the virtual-time simulator
// (internal/core, internal/sim) on actual goroutines, one per worker,
// with a THE-protocol deque built from sync/atomic operations and
// steals performed as cross-arena memory copies. Where the simulator is
// the semantic oracle — deterministic, single-threaded, every cost
// modelled — rt is the measurement backend: wall-clock time, true
// concurrency, real cache traffic. Both run identical workload Specs,
// so a differential harness (internal/harness) can assert their root
// results agree.
//
// The scheduler data structures — uni-address Arena, THE-protocol
// Deque, record Table — and the scheduling mechanism over them
// (sched.Engine: frames, join, resume, steal) live in internal/sched,
// shared with the multi-process dist backend; rt keeps the policy: the
// parking lot, job multiplexing and the pool.
package rt
