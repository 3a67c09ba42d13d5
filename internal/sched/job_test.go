package sched

import (
	"sync"
	"sync/atomic"
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

// TestSweepJobReclaimsExactlyTaggedRecords: sweep must free records
// carrying the tag in either phase, skip already-released ones, and
// never double-free when two sweepers race.
func TestSweepJobReclaimsExactlyTaggedRecords(t *testing.T) {
	tb := NewTable(8)
	var idxs []uint32
	for i := 0; i < 6; i++ {
		idx, err := tb.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		idxs = append(idxs, idx)
	}
	// Four records of job slot 1 (two still pending, two done), two of
	// job slot 2.
	for k, i := range idxs[:4] {
		tb.Get(i).Job.Store(RecordPending(JobTag(1)) | uint64(k&1))
	}
	for k, i := range idxs[4:] {
		tb.Get(i).Job.Store(RecordPending(JobTag(2)) | uint64(k&1))
	}
	// A normal release clears the word, so the sweep skips it.
	tb.Release(idxs[0])
	if got := tb.Get(idxs[0]).Job.Load(); got != 0 {
		t.Fatalf("Release left lifecycle word %#x", got)
	}
	if n := tb.SweepJob(JobTag(1)); n != 3 {
		t.Fatalf("sweep reclaimed %d records, want 3", n)
	}
	if n := tb.SweepJob(JobTag(1)); n != 0 {
		t.Fatalf("second sweep reclaimed %d records, want 0", n)
	}
	// Job 2's records are untouched.
	for k, i := range idxs[4:] {
		if got := tb.Get(i).Job.Load(); got != RecordPending(JobTag(2))|uint64(k&1) {
			t.Fatalf("sweep disturbed other job's record %d: word %#x", i, got)
		}
	}
	if live := tb.Live(); live != 2 {
		t.Fatalf("Live() = %d after sweep, want 2", live)
	}
}

// TestSweepJobRacesRootRelease: a drain finalizer sweeps its job's tag
// while the slot's root release (ReleaseTagged on the root's index, what
// finalizeSlot does) claims the same record. Whatever phase the record
// was left in, exactly one of the two frees it, and the neighbouring
// job's record with the same index arithmetic is never taken.
func TestSweepJobRacesRootRelease(t *testing.T) {
	rounds := 2000
	if testing.Short() {
		rounds = 200
	}
	for round := 0; round < rounds; round++ {
		tb := NewTable(4)
		root, _ := tb.Alloc()
		other, _ := tb.Alloc()
		tag := JobTag(uint32(round % 5))
		tb.Get(root).Job.Store(RecordPending(tag) | uint64(round&1)) // both phases
		tb.Get(other).Job.Store(RecordDone(tag + 1))
		var swept, released atomic.Int64
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			swept.Store(int64(tb.SweepJob(tag)))
		}()
		go func() {
			defer wg.Done()
			if tb.ReleaseTagged(root, tag) {
				released.Store(1)
			}
		}()
		wg.Wait()
		if swept.Load()+released.Load() != 1 {
			t.Fatalf("round %d: sweep claimed %d and root release %d, want exactly one claim", round, swept.Load(), released.Load())
		}
		if tb.Live() != 1 || tb.Get(root).Job.Load() != 0 || tb.Get(other).Job.Load() != RecordDone(tag+1) {
			t.Fatalf("round %d: live %d, root word %#x, other word %#x", round, tb.Live(), tb.Get(root).Job.Load(), tb.Get(other).Job.Load())
		}
	}
}
