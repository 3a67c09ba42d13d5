package sched

import (
	"testing"
	"unsafe"
)

func TestRecordLayoutIsStable(t *testing.T) {
	// The flat layout is an ABI between processes: Record must stay at
	// its documented 32-byte stride (lifecycle word Job, Result, Waiter,
	// next: two records per cache line) and the header on two cache
	// lines; the deque header is lock, top and bottom, one line each.
	if unsafe.Sizeof(Record{}) != 32 || RecordBytes != 32 {
		t.Fatalf("Record is %d bytes (RecordBytes %d), want 32", unsafe.Sizeof(Record{}), RecordBytes)
	}
	if tableHdrBytes != 128 {
		t.Fatalf("table header is %d bytes, want 128", tableHdrBytes)
	}
	if got := unsafe.Sizeof(dequeHdr{}); got != 192 {
		t.Fatalf("deque header is %d bytes, want 192", got)
	}
}

func TestTableAllocReleaseRecycles(t *testing.T) {
	tb := NewTable(4)
	seen := map[uint32]bool{}
	for i := 0; i < 4; i++ {
		idx, err := tb.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		seen[idx] = true
	}
	if len(seen) != 4 {
		t.Fatalf("allocated %d distinct records, want 4", len(seen))
	}
	if _, err := tb.Alloc(); err == nil {
		t.Fatal("alloc beyond capacity succeeded")
	}
	// Remote-style release via the Treiber stack, then realloc.
	tb.Get(2).Job.Store(RecordDone(JobTag(3)))
	tb.Release(2)
	idx, err := tb.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if idx != 2 {
		t.Fatalf("realloc returned %d, want recycled 2", idx)
	}
	if tb.Get(idx).IsDone() || tb.Get(idx).Job.Load() != 0 {
		t.Fatalf("recycled record's lifecycle word is %#x, want 0 (free)", tb.Get(idx).Job.Load())
	}
	if live := tb.Live(); live != 4 {
		t.Fatalf("Live() = %d, want 4", live)
	}
}

// TestTableSharedRegionTwoViews models the dist split: the owner view
// allocates, a second (remote) view attached to the same region reads
// the record and releases it; the owner's next alloc drains the shared
// release stack.
func TestTableSharedRegionTwoViews(t *testing.T) {
	region := heapRegion(TableBytes(8))
	owner, err := NewTableAt(region, 8)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := NewTableAt(region, 8)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := owner.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	owner.Get(idx).Result = 77
	owner.Get(idx).Job.Store(RecordDone(0))
	if got := remote.Get(idx).Result; got != 77 || !remote.Get(idx).IsDone() {
		t.Fatalf("remote view sees result %d done %v", got, remote.Get(idx).IsDone())
	}
	remote.Release(idx)
	// The owner's Live() must account the remote free (shared counter).
	if live := owner.Live(); live != 0 {
		t.Fatalf("Live() = %d after remote release, want 0", live)
	}
	again, err := owner.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if again != idx {
		t.Fatalf("owner realloc returned %d, want %d drained from release stack", again, idx)
	}
}

func TestRecordHandleRoundTrip(t *testing.T) {
	for _, rank := range []int{0, 1, 7} {
		for _, idx := range []uint32{0, 1, 4095} {
			h := RecordHandle(rank, idx)
			if h.Rank() != rank {
				t.Fatalf("handle rank %d, want %d", h.Rank(), rank)
			}
			if got := RecordIndex(h); got != idx {
				t.Fatalf("RecordIndex = %d, want %d", got, idx)
			}
		}
	}
}

func TestRegionCheckRejectsBadRegions(t *testing.T) {
	if _, err := NewTableAt(make([]byte, 8), 8); err == nil {
		t.Fatal("undersized table region accepted")
	}
	if _, err := NewDequeAt(make([]byte, 8), 8); err == nil {
		t.Fatal("undersized deque region accepted")
	}
	if _, err := NewDequeAt(heapRegion(DequeBytes(8)), 7); err == nil {
		t.Fatal("non-power-of-two capacity accepted")
	}
	region := heapRegion(DequeBytes(8) + 1)
	if _, err := NewDequeAt(region[1:], 8); err == nil {
		t.Fatal("misaligned deque region accepted")
	}
}
