// Package sched holds what every real-concurrency backend shares: the
// scheduler data structures — the THE-protocol work-stealing Deque and
// the task-record Table, beside the uni-address stack arena (mem.Arena,
// which the simulator runs too) — and the Engine, the scheduling
// mechanism that runs over them (engine.go).
//
// The package exists because the same three structures must live in two
// very different kinds of memory:
//
//   - internal/rt (threads in one process) lays them out in ordinary
//     Go-heap allocations;
//   - internal/dist (one process per worker) lays them out inside an
//     mmap'd shared-memory segment mapped at the same base virtual
//     address in every process, so a cross-process steal is a one-sided
//     copy at identical offsets — the paper's uni-address region across
//     real address spaces.
//
// To serve both, Deque and Table are *flat*: all shared state (lock,
// top, bottom, entry slots, records, release stack) is a fixed byte
// layout inside a caller-provided memory region; the protocol words are
// accessed through sync/atomic, the payload words they publish (deque
// slots, Record.Result) are plain. NewDequeAt / NewTableAt attach a view to such a
// region (any number of processes may attach to the same one);
// NewDeque / NewTable allocate a private heap-backed region for the
// single-process case. Owner-only bookkeeping (the Table's private free
// list) stays in ordinary Go memory on the attaching side.
//
// Atomics on shared mappings are sound on every platform Go supports:
// the hardware's cache coherence does not care whether two racing
// addresses belong to one process or two.
package sched

import (
	"fmt"
	"unsafe"
)

// regionCheck validates a flat region's alignment and size once at
// attach time so Deque and Table hot paths can cast without checks.
func regionCheck(mem []byte, need uint64, what string) error {
	if uint64(len(mem)) < need {
		return fmt.Errorf("sched: %s region too small: %d bytes, need %d", what, len(mem), need)
	}
	if uintptr(unsafe.Pointer(&mem[0]))%8 != 0 {
		return fmt.Errorf("sched: %s region not 8-byte aligned", what)
	}
	return nil
}

// heapRegion allocates an 8-byte-aligned zeroed region of n bytes on
// the Go heap (backed by a []uint64 so alignment is guaranteed).
func heapRegion(n uint64) []byte {
	words := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), n)
}
