package sched

import "uniaddr/internal/mem"

// Arena, NewArena and NewArenaOver are the uni-address region, which
// lives in internal/mem. These aliases exist only because the frozen
// benchmark/ package names them through sched; every other caller
// spells mem.Arena.
type Arena = mem.Arena

// NewArena is mem.NewArena.
func NewArena(base mem.VA, size uint64) *Arena { return mem.NewArena(base, size) }

// NewArenaOver is mem.NewArenaOver.
func NewArenaOver(base mem.VA, backing []byte) *Arena { return mem.NewArenaOver(base, backing) }
