package mem

import (
	"fmt"
	"testing"
	"testing/quick"
)

// testUniBase is the uni-address base the region tests lay their
// arenas at (the simulator's and both real backends' base).
const testUniBase VA = 0x7f00_0000_0000

func newTestArena(size uint64) *Arena { return NewArena(testUniBase, size) }

// checkInvariant verifies the region's bookkeeping; the tests call it
// after every mutation.
func checkInvariant(a *Arena) error {
	if a.p > a.top {
		return fmt.Errorf("p %#x above top %#x", a.p, a.top)
	}
	if a.p < a.base || a.top > a.end {
		return fmt.Errorf("used range [%#x,%#x) escapes region [%#x,%#x)", a.p, a.top, a.base, a.end)
	}
	if a.p == a.top && a.p != a.end {
		return fmt.Errorf("empty region not reset to end (p=%#x)", a.p)
	}
	return nil
}

func TestRegionAllocGrowsDown(t *testing.T) {
	r := newTestArena(4096)
	a, err := r.AllocBelow(256)
	if err != nil {
		t.Fatal(err)
	}
	if a != r.end-256 {
		t.Fatalf("first stack at %#x, want top of region %#x", a, r.end-256)
	}
	b, _ := r.AllocBelow(128)
	if b != a-128 {
		t.Fatalf("second stack at %#x, want just below first", b)
	}
	if r.Used() != 384 || r.p != b {
		t.Fatalf("used=%d lowest=%#x", r.Used(), r.p)
	}
	if err := checkInvariant(r); err != nil {
		t.Fatal(err)
	}
}

func TestRegionFreeOnlyLowest(t *testing.T) {
	r := newTestArena(4096)
	a, _ := r.AllocBelow(256)
	b, _ := r.AllocBelow(128)
	if err := r.FreeLowest(a, 256); err == nil {
		t.Fatal("freed non-lowest stack")
	}
	if err := r.FreeLowest(b, 128); err != nil {
		t.Fatal(err)
	}
	if err := r.FreeLowest(a, 256); err != nil {
		t.Fatal(err)
	}
	if !r.Empty() {
		t.Fatal("region not empty after freeing all")
	}
	// Empty region resets to the top.
	c, _ := r.AllocBelow(64)
	if c != r.end-64 {
		t.Fatalf("after reset alloc at %#x", c)
	}
}

func TestRegionExhaustion(t *testing.T) {
	r := newTestArena(1024)
	if _, err := r.AllocBelow(1024); err != nil {
		t.Fatal(err)
	}
	if _, err := r.AllocBelow(1); err == nil {
		t.Fatal("overcommitted region")
	}
}

func TestRegionInstallRequiresEmpty(t *testing.T) {
	r := newTestArena(4096)
	r.AllocBelow(64)
	if err := r.Install(r.Base()+100, 200); err == nil {
		t.Fatal("installed into non-empty region")
	}
}

func TestRegionInstallAnywhereWhenEmpty(t *testing.T) {
	r := newTestArena(4096)
	base := r.Base() + 512
	if err := r.Install(base, 256); err != nil {
		t.Fatal(err)
	}
	if r.p != base || r.top != base+256 {
		t.Fatalf("installed range [%#x,%#x)", r.p, r.top)
	}
	// Children allocate below the installed thread.
	c, err := r.AllocBelow(128)
	if err != nil {
		t.Fatal(err)
	}
	if c != base-128 {
		t.Fatalf("child at %#x, want %#x", c, base-128)
	}
	if err := r.Install(r.Base(), 10); err == nil {
		t.Fatal("double install accepted")
	}
	// Out-of-bounds installs rejected.
	r.Clear()
	if err := r.Install(r.end-8, 16); err == nil {
		t.Fatal("install past region end accepted")
	}
}

func TestRegionMaxUsedHighWater(t *testing.T) {
	r := newTestArena(4096)
	a, _ := r.AllocBelow(100)
	b, _ := r.AllocBelow(300)
	r.FreeLowest(b, 300)
	r.FreeLowest(a, 100)
	r.AllocBelow(50)
	if r.Max() != 400 {
		t.Fatalf("high water = %d, want 400", r.Max())
	}
}

// Property: any sequence of stack-discipline alloc/free operations
// keeps the invariant and never produces overlapping live stacks.
func TestRegionInvariantProperty(t *testing.T) {
	f := func(ops []uint16, seed uint64) bool {
		r := newTestArena(1 << 16)
		type stk struct {
			base VA
			size uint64
		}
		var live []stk
		for _, op := range ops {
			if op%3 != 0 && len(live) < 100 {
				size := uint64(op%500) + 16
				base, err := r.AllocBelow(size)
				if err != nil {
					continue
				}
				for _, s := range live {
					if base < s.base+VA(s.size) && s.base < base+VA(size) {
						return false // overlap
					}
				}
				live = append(live, stk{base, size})
			} else if len(live) > 0 {
				s := live[len(live)-1]
				if err := r.FreeLowest(s.base, s.size); err != nil {
					return false
				}
				live = live[:len(live)-1]
			}
			if err := checkInvariant(r); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRegionClearReclaimsDeadBytes(t *testing.T) {
	r := newTestArena(4096)
	r.AllocBelow(1000)
	r.Clear()
	if !r.Empty() {
		t.Fatal("clear did not empty region")
	}
	if err := checkInvariant(r); err != nil {
		t.Fatal(err)
	}
	if _, err := r.AllocBelow(4096); err != nil {
		t.Fatalf("full region not reusable after clear: %v", err)
	}
}

func TestRegionContains(t *testing.T) {
	r := newTestArena(4096)
	if !r.Contains(r.Base()) || !r.Contains(r.end-1) {
		t.Fatal("contains misses own range")
	}
	if r.Contains(r.end) || r.Contains(r.Base()-1) {
		t.Fatal("contains accepts outside addresses")
	}
}

// FuzzRegionStackDiscipline drives alloc/free/install sequences from
// the fuzz input and checks the invariant after every operation.
// `go test -fuzz=FuzzRegionStackDiscipline ./internal/mem` explores
// further.
func FuzzRegionStackDiscipline(f *testing.F) {
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{200, 100, 50, 25})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			t.Skip()
		}
		r := newTestArena(1 << 14)
		type stk struct {
			base VA
			size uint64
		}
		var live []stk
		for _, b := range data {
			switch b % 3 {
			case 0, 1:
				size := uint64(b)*8 + 16
				base, err := r.AllocBelow(size)
				if err != nil {
					continue
				}
				live = append(live, stk{base, size})
			case 2:
				if len(live) > 0 {
					s := live[len(live)-1]
					if err := r.FreeLowest(s.base, s.size); err != nil {
						t.Fatal(err)
					}
					live = live[:len(live)-1]
				} else if r.Empty() {
					// Install anywhere in an empty region.
					at := r.Base() + VA(uint64(b)*16%(1<<13))
					if err := r.Install(at, 64); err != nil {
						t.Fatal(err)
					}
					live = append(live, stk{at, 64})
				}
			}
			if err := checkInvariant(r); err != nil {
				t.Fatalf("%v (input %v)", err, data)
			}
		}
	})
}
