package sched

import (
	"sync"
	"testing"
	"unsafe"
)

func TestJobSlotLayoutIsStable(t *testing.T) {
	// Like Record, JobSlot is a cross-process ABI: two cache lines per
	// slot so adjacent jobs never false-share, the words every completion
	// loads on the first, the live-chain count steals write on the second.
	if got := unsafe.Sizeof(JobSlot{}); got != 128 {
		t.Fatalf("JobSlot is %d bytes, want 128", got)
	}
	if got := unsafe.Offsetof(JobSlot{}.Live); got != 64 {
		t.Fatalf("JobSlot.Live at offset %d, want 64 (its own cache line)", got)
	}
	if got := unsafe.Sizeof(JobCount{}); got != 64 {
		t.Fatalf("JobCount is %d bytes, want 64", got)
	}
}

func TestJobTableAttachAndTags(t *testing.T) {
	region := heapRegion(JobTableBytes(4))
	jt, err := NewJobTableAt(region, 4)
	if err != nil {
		t.Fatal(err)
	}
	if jt.Cap() != 4 {
		t.Fatalf("Cap() = %d, want 4", jt.Cap())
	}
	// Fresh slots are JobFree; a second view over the same region sees
	// state stored through the first.
	jt.Get(2).State.Store(JobState(41, JobRunning))
	jt2, err := NewJobTableAt(region, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := jt2.Get(2).State.Load(); got != JobState(41, JobRunning) || JobPhase(got) != JobRunning {
		t.Fatalf("second view sees state %#x, want job 41 running", got)
	}
	if jt2.Get(0).State.Load() != JobFree {
		t.Fatal("fresh slot not JobFree")
	}
	// A transition names its tenant: the right phase under another id,
	// and the right id in another phase, both refuse.
	js := jt.Get(2)
	if js.Advance(40, JobRunning, JobDone) || js.Advance(41, JobDraining, JobDone) {
		t.Fatal("Advance moved a slot it did not name")
	}
	if !js.Advance(41, JobRunning, JobDraining) || js.State.Load() != JobState(41, JobDraining) {
		t.Fatalf("Advance(41, running→draining) left state %#x", js.State.Load())
	}
	if JobTag(0) == 0 {
		t.Fatal("JobTag(0) must be nonzero (0 means untagged)")
	}
	if JobTag(3) != 4 {
		t.Fatalf("JobTag(3) = %d, want 4", JobTag(3))
	}
	if _, err := NewJobTableAt(region[:10], 4); err == nil {
		t.Fatal("undersized region accepted")
	}
}

// TestSweepTenantsTakesExactlyPostedTenants: the owner's sweep frees the
// posted tenants' records in either phase and nothing else — not a free
// record (one on each free list), not a live tenant's record, even one of
// the job that took a canceled job's slot — and a second sweep of the
// same tenants takes nothing.
func TestSweepTenantsTakesExactlyPostedTenants(t *testing.T) {
	tb := NewTable(16)
	alloc := func(word uint64) uint32 {
		t.Helper()
		idx, err := tb.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		tb.Get(idx).StorePlain(word)
		return idx
	}
	// Jobs 3 and 4 were canceled; job 9 runs in job 3's old slot. Records
	// carry the tenant (job id + 1), never the slot's tag.
	canceled := []uint64{Tenant(3), Tenant(4)}
	var leaked []uint32
	for k := uint64(0); k < 3; k++ {
		leaked = append(leaked, alloc(RecordPending(Tenant(3))|k&1), alloc(RecordPending(Tenant(4))|k&1))
	}
	live := map[uint32]uint64{}
	for k := uint64(0); k < 3; k++ {
		w := RecordPending(Tenant(9)) | k&1
		live[alloc(w)] = w
	}
	// A canceled job's record that was joined before the cancel is free,
	// on the shared release stack or the private one.
	tb.Release(alloc(RecordDone(Tenant(3))))
	tb.ReleaseLocal(alloc(RecordDone(Tenant(4))))

	if n := tb.SweepTenants(canceled); n != len(leaked) {
		t.Fatalf("sweep took %d records, want the %d leaked ones", n, len(leaked))
	}
	for _, idx := range leaked {
		if w := tb.Get(idx).Job.Load(); w != 0 {
			t.Fatalf("leaked record %d still reads %#x after the sweep", idx, w)
		}
	}
	for idx, w := range live {
		if got := tb.Get(idx).Job.Load(); got != w {
			t.Fatalf("sweep disturbed the live tenant's record %d: %#x, want %#x", idx, got, w)
		}
	}
	if n := tb.SweepTenants(canceled); n != 0 {
		t.Fatalf("second sweep took %d records, want 0", n)
	}
	if got := tb.Live(); got != len(live) {
		t.Fatalf("Live() = %d after the sweep, want %d", got, len(live))
	}
	// Every freed record is reusable exactly once: the table's 16 are
	// the 3 live ones plus 13 Allocs, and the 14th fails.
	for i := 0; i < 16-len(live); i++ {
		idx, err := tb.Alloc()
		if err != nil {
			t.Fatalf("alloc %d after the sweep: %v", i, err)
		}
		if _, ok := live[idx]; ok || tb.Get(idx).Job.Load() != 0 {
			t.Fatalf("alloc %d handed out record %d (word %#x), which is not free", i, idx, tb.Get(idx).Job.Load())
		}
	}
	if _, err := tb.Alloc(); err == nil {
		t.Fatal("the sweep freed a record twice: the table handed out more than it holds")
	}
}

// TestSweepTenantsBesideLiveCompleter: the owner sweeps a canceled
// tenant's record while another worker completes and releases a live
// tenant's record in the same table. The sweep loads every word
// atomically — -race holds it to that — and takes exactly the canceled
// record, whichever phase it finds the live one in.
func TestSweepTenantsBesideLiveCompleter(t *testing.T) {
	rounds := 2000
	if testing.Short() {
		rounds = 200
	}
	for round := 0; round < rounds; round++ {
		tb := NewTable(4)
		live, _ := tb.Alloc()
		tb.Get(live).StorePlain(RecordPending(Tenant(7)))
		leaked, _ := tb.Alloc()
		tb.Get(leaked).StorePlain(RecordPending(Tenant(6)) | uint64(round&1))
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // the completer, then the joiner's remote release
			defer wg.Done()
			r := tb.Get(live)
			r.Result = uint64(round)
			r.Job.Store(RecordDone(Tenant(7)))
			tb.Release(live)
		}()
		n := tb.SweepTenants([]uint64{Tenant(6)})
		wg.Wait()
		if n != 1 || tb.Live() != 0 || tb.Get(leaked).Job.Load() != 0 {
			t.Fatalf("round %d: sweep took %d, live %d, leaked word %#x; want 1, 0, 0", round, n, tb.Live(), tb.Get(leaked).Job.Load())
		}
	}
}
