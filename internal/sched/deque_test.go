package sched

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uniaddr/internal/mem"
)

// White-box tests for the atomics THE deque, mirroring the simulator's
// internal/core/deque_test.go cases where they apply (no fault
// injection here: rt has no simulated fabric) plus genuinely concurrent
// stress that the simulator cannot express.

func ent(i uint64) Entry {
	return Entry{FrameBase: mem.VA(0x7f00_0000_0000 + i*64), FrameSize: 64 + i}
}

func TestDequeLocalPushPopLIFO(t *testing.T) {
	d := NewDeque(16)
	for i := uint64(0); i < 10; i++ {
		if err := d.Push(ent(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(9); ; i-- {
		e, ok := d.Pop(nil)
		if !ok {
			t.Fatalf("pop %d failed", i)
		}
		if e != ent(i) {
			t.Fatalf("popped %+v, want %+v", e, ent(i))
		}
		if i == 0 {
			break
		}
	}
	if _, ok := d.Pop(nil); ok {
		t.Fatal("pop on empty deque succeeded")
	}
}

func TestDequeOverflowReported(t *testing.T) {
	d := NewDeque(4) // one slot reserved for an in-flight claim: 3 usable
	for i := uint64(0); i < 3; i++ {
		if err := d.Push(ent(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Push(ent(3)); err == nil {
		t.Fatal("push into full deque succeeded")
	}
}

func TestDequeStealFIFO(t *testing.T) {
	d := NewDeque(16)
	for i := uint64(0); i < 3; i++ {
		if err := d.Push(ent(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Thieves take from the top: oldest (shallowest) first, the Cilk
	// steal order that moves the largest subtrees.
	for i := uint64(0); i < 3; i++ {
		e, outcome := d.StealBegin()
		if outcome != StealOK {
			t.Fatalf("steal %d: %v", i, outcome)
		}
		if e != ent(i) {
			t.Fatalf("stole %+v, want %+v", e, ent(i))
		}
		d.StealCommit()
	}
	if _, outcome := d.StealBegin(); outcome != StealEmpty {
		t.Fatalf("steal on empty: %v, want %v", outcome, StealEmpty)
	}
}

func TestDequeStealLockBusy(t *testing.T) {
	d := NewDeque(16)
	// Two entries: after the first thief claims ent(0), ent(1) still
	// shows bottom > top, so a second thief proceeds to the lock and
	// must find it busy. (With a single entry the claim itself makes
	// the deque look empty and the second thief never locks.)
	if err := d.Push(ent(0)); err != nil {
		t.Fatal(err)
	}
	if err := d.Push(ent(1)); err != nil {
		t.Fatal(err)
	}
	// First thief claims and holds the lock mid-copy.
	e, outcome := d.StealBegin()
	if outcome != StealOK {
		t.Fatalf("first steal: %v", outcome)
	}
	// Second thief must observe the busy lock and back off without
	// retrying — and without corrupting the lock word.
	if _, o2 := d.StealBegin(); o2 != StealLockBusy {
		t.Fatalf("second steal: %v, want %v", o2, StealLockBusy)
	}
	// The holder's release absorbs the failed FAA increment.
	d.StealCommit()
	if got := d.hdr.lock.Load(); got != 0 {
		t.Fatalf("lock word %d after release, want 0", got)
	}
	_ = e
	// With the lock free again the second thief succeeds on ent(1).
	if e2, o3 := d.StealBegin(); o3 != StealOK || e2 != ent(1) {
		t.Fatalf("retry steal: %v %+v", o3, e2)
	}
	d.StealCommit()
}

func TestDequeStealAbortLeavesEntry(t *testing.T) {
	d := NewDeque(16)
	if err := d.Push(ent(7)); err != nil {
		t.Fatal(err)
	}
	e, outcome := d.StealBegin()
	if outcome != StealOK || e != ent(7) {
		t.Fatalf("steal: %v %+v", outcome, e)
	}
	d.StealAbort()
	// The THE abort hands the entry back; the owner recovers it.
	got, ok := d.Pop(nil)
	if !ok || got != ent(7) {
		t.Fatalf("pop after abort: %v %+v", ok, got)
	}
}

type popResult struct {
	e  Entry
	ok bool
}

// popUnderClaim starts an owner Pop while the caller holds the deque
// lock with a claim unsettled, and returns once the owner is spinning on
// the lock (its FAA shows in the lock word). A Pop that answers instead
// decided on a top the claim may still take back.
func popUnderClaim(t *testing.T, d *Deque) <-chan popResult {
	t.Helper()
	ch := make(chan popResult, 1)
	go func() {
		e, ok := d.Pop(nil)
		ch <- popResult{e, ok}
	}()
	for d.hdr.lock.Load() < 2 {
		select {
		case r := <-ch:
			t.Fatalf("owner pop answered (%+v, %v) under an unsettled claim", r.e, r.ok)
		default:
			runtime.Gosched()
		}
	}
	return ch
}

// TestDequeTHELastElementRace scripts the Fig. 6 showdown on the final
// entry: once the thief's claim lands (top = bottom), the owner's pop
// must WAIT for the claim to settle — "empty" tells the caller the
// frame is gone and its bytes copied out — and then lose to a commit or
// recover the entry from an abort. (The interleaving where the owner's
// decrement lands first and both sides settle under the lock is
// inherently timing-dependent; the stress tests below drive it.)
func TestDequeTHELastElementRace(t *testing.T) {
	for _, abort := range []bool{false, true} {
		d := NewDeque(16)
		if err := d.Push(ent(3)); err != nil {
			t.Fatal(err)
		}
		e, outcome := d.StealBegin()
		if outcome != StealOK || e != ent(3) {
			t.Fatalf("steal: %v %+v", outcome, e)
		}
		pop := popUnderClaim(t, d) // claim held, copy in progress
		if abort {
			d.StealAbort()
			if r := <-pop; !r.ok || r.e != ent(3) {
				t.Fatalf("pop after abort: %v %+v, want %+v", r.ok, r.e, ent(3))
			}
		} else {
			d.StealCommit()
			if r := <-pop; r.ok {
				t.Fatalf("owner pop won claimed entry %+v", r.e)
			}
		}
		if got, ok := d.Pop(nil); ok {
			t.Fatalf("owner pop after the showdown returned %+v", got)
		}
		if n := d.Size(); n != 0 {
			t.Fatalf("size %d after showdown, want 0", n)
		}
		if got := d.hdr.lock.Load(); got != 0 {
			t.Fatalf("lock word %d at rest", got)
		}
	}
}

// TestDequeOwnerWinsBelowClaim: with two entries, a thief's claim on
// the top one must not disturb the owner's lock-free pop of the bottom
// one.
func TestDequeOwnerWinsBelowClaim(t *testing.T) {
	d := NewDeque(16)
	if err := d.Push(ent(0)); err != nil {
		t.Fatal(err)
	}
	if err := d.Push(ent(1)); err != nil {
		t.Fatal(err)
	}
	e, outcome := d.StealBegin() // claims ent(0), holds lock
	if outcome != StealOK || e != ent(0) {
		t.Fatalf("steal: %v %+v", outcome, e)
	}
	got, ok := d.Pop(nil) // fast path, no lock needed
	if !ok || got != ent(1) {
		t.Fatalf("pop under claim: %v %+v", ok, got)
	}
	d.StealCommit()
	if n := d.Size(); n != 0 {
		t.Fatalf("size %d, want 0", n)
	}
}

func TestDequeRingWrap(t *testing.T) {
	d := NewDeque(4) // 3 usable slots; rounds of 3 force index wraparound
	for round := 0; round < 10; round++ {
		for i := uint64(0); i < 3; i++ {
			if err := d.Push(ent(i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := uint64(0); i < 1; i++ {
			if e, outcome := d.StealBegin(); outcome != StealOK || e != ent(i) {
				t.Fatalf("round %d steal %d: %v %+v", round, i, outcome, e)
			}
			d.StealCommit()
		}
		for i := uint64(2); i >= 1; i-- {
			if e, ok := d.Pop(nil); !ok || e != ent(i) {
				t.Fatalf("round %d pop %d: %v %+v", round, i, ok, e)
			}
		}
		if n := d.Size(); n != 0 {
			t.Fatalf("round %d size %d", round, n)
		}
	}
}

// TestDequeStressManyThieves is the satellite's headline case: one
// victim pushing and popping for real, many genuinely concurrent
// thieves, run under -race. Every pushed entry must be consumed exactly
// once — by the owner or by exactly one thief — and the lock word must
// come to rest at 0.
func TestDequeStressManyThieves(t *testing.T) {
	const (
		thieves = 8
		total   = 20000
	)
	d := NewDeque(1 << 10)
	var stop atomic.Bool
	stolen := make(chan Entry, total)
	var wg sync.WaitGroup
	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				e, outcome := d.StealBegin()
				if outcome == StealOK {
					// Hold the lock for a beat, like a real stack copy.
					if rng.Intn(4) == 0 {
						time.Sleep(time.Microsecond)
					}
					if rng.Intn(16) == 0 {
						d.StealAbort() // exercise the THE abort under load
					} else {
						d.StealCommit()
						stolen <- e
					}
				}
			}
		}(int64(i) + 1)
	}

	var popped []Entry
	rng := rand.New(rand.NewSource(42))
	for i := uint64(1); i <= total; i++ {
		e := Entry{FrameBase: mem.VA(0x7f00_0000_0000 + i*16), FrameSize: i}
		for d.Push(e) != nil {
			// Full: drain one locally.
			if p, ok := d.Pop(nil); ok {
				popped = append(popped, p)
			}
		}
		if rng.Intn(3) == 0 {
			if p, ok := d.Pop(nil); ok {
				popped = append(popped, p)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	// Drain AFTER the thieves stop: a thief's final StealAbort can hand
	// an entry back to a deque the owner had already seen empty.
	for {
		p, ok := d.Pop(nil)
		if !ok {
			break
		}
		popped = append(popped, p)
	}
	close(stolen)

	seen := make(map[Entry]int, total)
	for _, e := range popped {
		seen[e]++
	}
	for e := range stolen {
		seen[e]++
	}
	if len(seen) != total {
		t.Fatalf("consumed %d distinct entries, want %d", len(seen), total)
	}
	for e, n := range seen {
		if n != 1 {
			t.Fatalf("entry %+v consumed %d times", e, n)
		}
	}
	if got := d.hdr.lock.Load(); got != 0 {
		t.Fatalf("lock word %d at rest, want 0", got)
	}
	if n := d.Size(); n != 0 {
		t.Fatalf("size %d at rest, want 0", n)
	}
}

// TestDequeStressOwnerConflict drives the pop conflict path hard: the
// deque is kept near-empty so owner and thieves constantly collide on
// the last entry.
func TestDequeStressOwnerConflict(t *testing.T) {
	const (
		thieves = 4
		total   = 10000
	)
	d := NewDeque(8)
	var stop atomic.Bool
	var stolenCount atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if _, outcome := d.StealBegin(); outcome == StealOK {
					d.StealCommit()
					stolenCount.Add(1)
				}
			}
		}()
	}
	var poppedCount uint64
	for i := uint64(1); i <= total; i++ {
		for d.Push(ent(i)) != nil {
			if _, ok := d.Pop(nil); ok {
				poppedCount++
			}
		}
		if _, ok := d.Pop(nil); ok {
			poppedCount++
		}
	}
	for {
		if _, ok := d.Pop(nil); !ok {
			break
		}
		poppedCount++
	}
	stop.Store(true)
	wg.Wait()
	if got := poppedCount + stolenCount.Load(); got != total {
		t.Fatalf("consumed %d entries (%d popped, %d stolen), want %d",
			got, poppedCount, stolenCount.Load(), total)
	}
}
