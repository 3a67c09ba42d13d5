package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"uniaddr/internal/mem"
)

// The Reset contract, one property per structure: a structure that was
// used and then Reset answers any operation sequence exactly as a fresh
// one does. Each driver below runs one seeded random sequence and
// returns everything the structure said; the tests compare the
// transcript of a fresh structure with that of a dirtied-and-Reset one.

// sameTranscript fails the test at the first step where the two differ.
func sameTranscript(t *testing.T, seed int64, fresh, reset []string) {
	t.Helper()
	if len(fresh) != len(reset) {
		t.Fatalf("seed %d: fresh transcript has %d steps, reset one %d", seed, len(fresh), len(reset))
	}
	for i := range fresh {
		if fresh[i] != reset[i] {
			t.Fatalf("seed %d step %d: fresh says %q, reset says %q", seed, i, fresh[i], reset[i])
		}
	}
}

const (
	resetArenaVA   mem.VA = 0x4000
	resetArenaSize uint64 = 4096
)

// driveArena runs steps random stack operations, legal and illegal, and
// a write/read-back through every frame it allocates.
func driveArena(a *mem.Arena, seed int64, steps int) []string {
	rng := rand.New(rand.NewSource(seed))
	type frame struct {
		base mem.VA
		size uint64
	}
	var stack []frame // live frames, lowest last
	var out []string
	say := func(format string, args ...any) {
		out = append(out, fmt.Sprintf(format, args...)+
			fmt.Sprintf(" | used %d max %d empty %v", a.Used(), a.Max(), a.Empty()))
	}
	for i := 0; i < steps; i++ {
		switch op := rng.Intn(10); {
		case op < 4:
			size := uint64(8 * (1 + rng.Intn(64)))
			if rng.Intn(20) == 0 {
				size = resetArenaSize + 8 // cannot fit: the exhaustion error
			}
			va, err := a.AllocBelow(size)
			if err == nil {
				stack = append(stack, frame{va, size})
				a.WriteU64(va, uint64(i))
				say("alloc %d = %#x, reads back %d", size, va, a.ReadU64(va))
			} else {
				say("alloc %d: %v", size, err)
			}
		case op < 7 && len(stack) > 0:
			f := stack[len(stack)-1]
			if rng.Intn(10) == 0 {
				say("free wrong base: %v", a.FreeLowest(f.base+8, f.size))
				continue
			}
			stack = stack[:len(stack)-1]
			say("free %#x: %v", f.base, a.FreeLowest(f.base, f.size))
		case op < 9:
			// Install anywhere in (and sometimes past) the region; legal
			// only while it is empty.
			base := resetArenaVA + mem.VA(8*rng.Intn(int(resetArenaSize/8)))
			size := uint64(8 * (1 + rng.Intn(96)))
			err := a.Install(base, size)
			if err == nil {
				stack = append(stack[:0], frame{base, size})
			}
			say("install [%#x,+%d): %v", base, size, err)
		default:
			a.Clear()
			stack = stack[:0]
			say("clear")
		}
	}
	return out
}

func TestArenaResetMatchesFresh(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		fresh := driveArena(mem.NewArena(resetArenaVA, resetArenaSize), seed, 400)

		used := mem.NewArena(resetArenaVA, resetArenaSize)
		// Dirty it with a different sequence, and leave a deep stack and
		// a high-water mark behind.
		driveArena(used, seed+1000, 300)
		used.Clear()
		for used.Used() < resetArenaSize/2 {
			if _, err := used.AllocBelow(64); err != nil {
				t.Fatal(err)
			}
		}
		if used.Max() == 0 || used.Empty() {
			t.Fatal("the dirtying sequence left no trace to reset")
		}
		used.Reset()
		if used.Max() != 0 || !used.Empty() || used.Used() != 0 {
			t.Fatalf("after Reset: max %d used %d empty %v", used.Max(), used.Used(), used.Empty())
		}
		sameTranscript(t, seed, fresh, driveArena(used, seed, 400))
	}
}

const resetDequeCap = 16

// driveDeque runs steps random owner and thief operations. Resident
// entries form the adjacent descending chain real frames do, so batched
// claims see what they see in a runtime.
func driveDeque(d *Deque, seed int64, steps int) []string {
	rng := rand.New(rand.NewSource(seed))
	const frame = 64
	next := mem.VA(1 << 20) // base of the next pushed frame, minus one frame
	var out []string
	say := func(format string, args ...any) {
		out = append(out, fmt.Sprintf(format, args...)+fmt.Sprintf(" | size %d", d.Size()))
	}
	buf := make([]Entry, d.MaxClaim())
	for i := 0; i < steps; i++ {
		switch op := rng.Intn(10); {
		case op < 4:
			e := Entry{FrameBase: next - frame, FrameSize: frame}
			err := d.Push(e)
			if err == nil {
				next -= frame
			}
			say("push %#x: %v", e.FrameBase, err)
		case op < 7:
			e, ok := d.Pop(nil)
			if ok {
				next += frame
			}
			say("pop = %#x/%d %v", e.FrameBase, e.FrameSize, ok)
		case op < 8:
			e, res := d.StealBegin()
			say("steal = %#x/%d %v", e.FrameBase, e.FrameSize, res)
			if res == StealOK {
				if rng.Intn(3) == 0 {
					d.StealAbort()
					say("abort")
				} else {
					d.StealCommit()
				}
			}
		default:
			n, res := d.StealBeginBatch(buf)
			say("batch = %v %v", buf[:n], res)
			if res == StealOK {
				if rng.Intn(3) == 0 {
					d.StealAbortBatch(n)
					say("abort batch")
				} else {
					d.StealCommit()
				}
			}
		}
	}
	return out
}

func TestDequeResetMatchesFresh(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		fresh := driveDeque(NewDeque(resetDequeCap), seed, 600)

		used := NewDeque(resetDequeCap)
		// Indices far from zero: every committed steal advances top for
		// good, so lap the 16-slot ring a few hundred times.
		for i := 0; i < 300*resetDequeCap; i++ {
			if err := used.Push(Entry{FrameBase: mem.VA(0x9000 + 64*i), FrameSize: 64}); err != nil {
				t.Fatal(err)
			}
			if _, res := used.StealBegin(); res != StealOK {
				t.Fatalf("dirtying steal %d: %v", i, res)
			}
			used.StealCommit()
		}
		// Left behind: resident entries, and a lock word that a failed
		// locker (or a stop-aborted owner) incremented and nobody cleared.
		for i := 0; i < 5; i++ {
			if err := used.Push(Entry{FrameBase: 0x8000, FrameSize: 64}); err != nil {
				t.Fatal(err)
			}
		}
		used.hdr.lock.Add(3)
		if used.hdr.top.Load() < 1000 || used.Size() != 5 {
			t.Fatalf("dirtying left top %d size %d", used.hdr.top.Load(), used.Size())
		}
		used.Reset()
		if used.Size() != 0 || used.hdr.top.Load() != 0 || used.hdr.bottom.Load() != 0 || used.hdr.lock.Load() != 0 {
			t.Fatal("Reset left a header word non-zero")
		}
		sameTranscript(t, seed, fresh, driveDeque(used, seed, 600))
	}
}

const resetTableCap = 48

// driveTable runs steps random allocations, completions, local and
// remote releases and job sweeps, reporting what every Alloc hands out
// (index and the state of the record's words) and the table's counts.
func driveTable(tb *Table, seed int64, steps int) []string {
	rng := rand.New(rand.NewSource(seed))
	var live []uint32
	var out []string
	say := func(format string, args ...any) {
		out = append(out, fmt.Sprintf(format, args...)+
			fmt.Sprintf(" | live %d waiters %d", tb.Live(), tb.Waiters()))
	}
	for i := 0; i < steps; i++ {
		switch op := rng.Intn(10); {
		case op < 5:
			idx, err := tb.Alloc()
			if err != nil {
				say("alloc: %v", err)
				continue
			}
			r := tb.Get(idx)
			say("alloc = %d life %#x waiter %d", idx, r.Job.Load(), r.Waiter.Load())
			r.Job.Store(RecordPending(Tenant(uint64(rng.Intn(3)))))
			live = append(live, idx)
		case op < 9 && len(live) > 0:
			k := rng.Intn(len(live))
			idx := live[k]
			live = append(live[:k], live[k+1:]...)
			r := tb.Get(idx)
			// A join: sometimes through a suspend, which sets and clears
			// the waiter word around the completion.
			suspended := rng.Intn(3) == 0
			if suspended {
				r.Waiter.Store(int64(1 + rng.Intn(4)))
			}
			r.Result = uint64(i)
			r.Job.Store(r.Job.Load() | 1)
			if suspended {
				r.Waiter.Store(0)
			}
			if rng.Intn(2) == 0 {
				tb.ReleaseLocal(idx)
				say("release local %d", idx)
			} else {
				tb.Release(idx)
				say("release remote %d", idx)
			}
		default:
			tenant := Tenant(uint64(rng.Intn(3)))
			n := tb.SweepTenants([]uint64{tenant})
			kept := live[:0]
			for _, idx := range live {
				if tb.Get(idx).Job.Load() != 0 {
					kept = append(kept, idx)
				}
			}
			live = kept
			say("sweep tenant %d = %d", tenant, n)
		}
	}
	return out
}

func TestTableResetMatchesFresh(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		fresh := driveTable(NewTable(resetTableCap), seed, 500)

		used := NewTable(resetTableCap)
		driveTable(used, seed+1000, 400)
		// Left behind: live records with every word set, a non-empty
		// release stack and a non-empty private free stack.
		var idxs []uint32
		for len(idxs) < 12 {
			idx, err := used.Alloc()
			if err != nil {
				break // the random prefix left fewer than 12 free: use what there is
			}
			r := used.Get(idx)
			r.Job.Store(RecordDone(Tenant(1)))
			r.Result = 99
			r.Waiter.Store(3)
			idxs = append(idxs, idx)
		}
		if len(idxs) < 6 {
			t.Fatalf("seed %d: only %d records left to dirty", seed, len(idxs))
		}
		used.Release(idxs[0])
		used.Release(idxs[1])
		used.ReleaseLocal(idxs[2])
		if used.hdr.releaseHead.Load() == 0 || len(used.localFree) == 0 || used.Live() == 0 || used.Waiters() == 0 {
			t.Fatal("the dirtying sequence left no trace to reset")
		}
		used.Reset()
		if used.Live() != 0 || used.Waiters() != 0 || used.hdr.releaseHead.Load() != 0 {
			t.Fatalf("after Reset: live %d waiters %d release head %d", used.Live(), used.Waiters(), used.hdr.releaseHead.Load())
		}
		for i := range used.recs {
			if r := &used.recs[i]; r.Result != 0 || r.Waiter.Load() != 0 || r.Job.Load() != 0 || r.next.Load() != 0 {
				t.Fatalf("after Reset: record %d is not zero", i)
			}
		}
		sameTranscript(t, seed, fresh, driveTable(used, seed, 500))
	}
}
