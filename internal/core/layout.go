// Package core implements the paper's primary contribution: the
// uni-address thread-management scheme (§5) and the RDMA-based
// work-stealing runtime built on it — the uni-address region (a
// mem.Arena over each process's pinned "uniaddr" reservation), the
// THE-protocol deque laid out in pinned memory (deque.go), worker
// processes with child-first task creation (Fig. 4), join/suspend
// (Figs. 7–8), and one-sided stealing (Fig. 6).
package core

import (
	"fmt"

	"uniaddr/internal/mem"
)

// Fixed virtual layout shared by every simulated process. The whole
// point of uni-address is that DefaultUniBase is the SAME virtual
// address in all processes — and on all three backends — so stacks
// move between nodes without pointer fix-up. Deques live at the same VA
// everywhere too, so a thief computes a victim's queue address from the
// rank alone (Fig. 6: get_remote_taskq). Only the region and deque
// sizes are settable (Config.UniSize, Config.DequeCap).
const (
	// DefaultUniBase is the base VA of the uni-address region.
	DefaultUniBase mem.VA = 0x7f00_0000_0000
	// DefaultUniSize accommodates the deepest benchmark in the paper
	// (UTS d=18 used 147,392 bytes; Table 4) with headroom. Every
	// simulated process backs its region eagerly, so the default stays
	// small enough for 3840-worker machines on a laptop.
	DefaultUniSize uint64 = 256 << 10
	// DefaultRDMABase is the base VA of the pinned RDMA region holding
	// suspended stacks, task records and the work-stealing deque.
	DefaultRDMABase mem.VA = 0x6000_0000_0000
	// DefaultRDMASize sizes the RDMA region (task records + swapped-out
	// stacks; a few MiB is ample at simulation scale, and it is backed
	// eagerly per process).
	DefaultRDMASize uint64 = 2 << 20
	// DefaultDequeBase is the base VA of the pinned work-stealing deque.
	DefaultDequeBase mem.VA = 0x6800_0000_0000
	// DefaultDequeCap is the entry capacity of the deque (entries track
	// the running chain's ancestors, so a few thousand is generous).
	DefaultDequeCap uint64 = 1 << 13
	// DefaultIsoBase is the base of the global iso-address stack area;
	// rank r's stacks live in [DefaultIsoBase+r*IsoSlabSize, +IsoSlabSize).
	DefaultIsoBase mem.VA = 0x0200_0000_0000
	// IsoSlabSize is each rank's share of the iso-address area.
	IsoSlabSize uint64 = 1 << 20
	// GasSize sizes the per-process global-heap segment (internal/gas,
	// §5.1's global references), mapped at gas.DefaultBase.
	GasSize uint64 = 1 << 20
)

// Handle identifies a task record: the rank of the process whose RDMA
// region holds the record, plus the record's virtual address. Handles
// are plain integers so they can be stored in task frames and migrate
// with the stack.
type Handle uint64

// MakeHandle packs (rank, va) into a Handle. rank+1 is stored so that
// the zero Handle is invalid and catches uninitialised frame slots.
func MakeHandle(rank int, va mem.VA) Handle {
	if uint64(va) >= 1<<48 {
		panic(fmt.Sprintf("core: record VA %#x exceeds 48 bits", va))
	}
	return Handle(uint64(rank+1)<<48 | uint64(va))
}

// Valid reports whether h was produced by MakeHandle.
func (h Handle) Valid() bool { return h != 0 }

// Rank returns the home rank of the record.
func (h Handle) Rank() int { return int(h>>48) - 1 }

// VA returns the record's virtual address in the home process.
func (h Handle) VA() mem.VA { return mem.VA(h & (1<<48 - 1)) }

func (h Handle) String() string {
	if !h.Valid() {
		return "handle<invalid>"
	}
	return fmt.Sprintf("handle<rank %d va %#x>", h.Rank(), h.VA())
}
