package sched

import (
	"strings"
	"testing"

	"uniaddr/internal/mem"
)

func TestArenaSliceBounds(t *testing.T) {
	a := mem.NewArena(0x1000, 256)
	if _, err := a.Slice(0x1000, 256); err != nil {
		t.Fatalf("full-arena slice rejected: %v", err)
	}
	if _, err := a.Slice(0x10ff, 1); err != nil {
		t.Fatalf("last-byte slice rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		va   mem.VA
		n    uint64
	}{
		{"below base", 0xfff, 1},
		{"past end", 0x1000, 257},
		{"offset past end", 0x1100, 1},
		// n near 2^64: off+n wraps, which the len-off form must catch.
		{"wrapping length", 0x1080, ^uint64(0) - 16},
		// va far below base: off wraps to a huge value.
		{"wrapping address", 0x10, 8},
	} {
		if _, err := a.Slice(tc.va, tc.n); err == nil {
			t.Errorf("%s: Slice(%#x, %d) accepted", tc.name, tc.va, tc.n)
		}
	}
}

func TestArenaU64FastAndSlowPaths(t *testing.T) {
	a := mem.NewArena(0x1000, 64)
	a.WriteU64(0x1000, 0xdeadbeefcafef00d)
	if got := a.ReadU64(0x1000); got != 0xdeadbeefcafef00d {
		t.Fatalf("ReadU64 = %#x", got)
	}
	a.WriteU64(0x1038, 42) // last legal word
	if got := a.ReadU64(0x1038); got != 42 {
		t.Fatalf("ReadU64 at arena top = %d", got)
	}
	for _, va := range []mem.VA{0xff8, 0x1039, 0x1040, 0} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("ReadU64(%#x) did not panic", va)
					return
				}
				if err, ok := r.(error); !ok || !strings.Contains(err.Error(), "outside arena") {
					t.Errorf("ReadU64(%#x) panic = %v, want arena bounds error", va, r)
				}
			}()
			a.ReadU64(va)
		}()
	}
}

// TestArenaInstallOverflowGuard pins the VA-overflow fix: an install
// whose base+size wraps past 2^64 used to pass the `base+size > end`
// check and admit a region lying far outside the arena.
func TestArenaInstallOverflowGuard(t *testing.T) {
	a := mem.NewArena(0x1000, 256)

	if err := a.Install(0x1040, 64); err != nil {
		t.Fatalf("legal install rejected: %v", err)
	}
	a.Clear()
	if err := a.Install(0x1000, 256); err != nil {
		t.Fatalf("full-arena install rejected: %v", err)
	}
	a.Clear()

	for _, tc := range []struct {
		name string
		base mem.VA
		size uint64
	}{
		{"below base", 0xfff, 8},
		{"size past end", 0x1080, 256},
		{"base past end", 0x1101, 8},
		// The regression case: base+size wraps past zero, so the old
		// check base+size > end saw a tiny sum and accepted it.
		{"VA overflow", 0x1080, ^uint64(0) - 8},
		// size = -base: base+size wraps to exactly 0, far below end.
		{"VA overflow to zero", 0x1080, ^uint64(0x1080) + 1},
	} {
		if err := a.Install(tc.base, tc.size); err == nil {
			t.Errorf("%s: Install(%#x, %d) accepted", tc.name, tc.base, tc.size)
			a.Clear()
		}
	}

	// The guard must not have perturbed arena state: a legal install
	// still lands.
	if err := a.Install(0x1040, 32); err != nil {
		t.Fatalf("legal install after rejections: %v", err)
	}
}

// TestArenaOverSharedBacking: two arenas over the same backing (the
// dist same-VA trick in miniature) observe each other's bytes.
func TestArenaOverSharedBacking(t *testing.T) {
	backing := heapRegion(128)
	a := mem.NewArenaOver(0x2000, backing)
	b := mem.NewArenaOver(0x2000, backing)
	a.WriteU64(0x2040, 0xfeed)
	if got := b.ReadU64(0x2040); got != 0xfeed {
		t.Fatalf("second view read %#x, want 0xfeed", got)
	}
	if a.Base() != 0x2000 || a.Used() != 0 || !a.Empty() {
		t.Fatalf("fresh arena state: base %#x used %d", a.Base(), a.Used())
	}
}
