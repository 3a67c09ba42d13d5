package sched

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"uniaddr/internal/mem"
)

// Tests for the words that are plain memory published by a neighbouring
// seq-cst store: deque slots (published by bottom) and Record.Result
// (published by Done). Run them under -race: the detector checks the
// happens-before argument written at Deque.Push and Record, the
// assertions check the values.

// TestDequePushUnderDoomedClaim pins the false overflow. A thief that
// saw the deque non-empty and lost the race to the owner's last Pop
// stores its claim before re-reading bottom, so top == bottom+1 until it
// retreats. The interleaving is built by hand: the thief's steps are
// issued one at a time on the header words, with the owner's Push in
// the window. Push compared b-t unsigned and reported overflow on this
// EMPTY deque; and once Push is admitted, the owner's Pop must not take
// the claim's inflated top for "empty".
func TestDequePushUnderDoomedClaim(t *testing.T) {
	for _, thiefSeesPush := range []bool{false, true} {
		d := NewDeque(8)
		ents := chainEnts(3, 64)
		pushAll(t, d, ents[:2])
		// Move top off zero, then drain: top == bottom == 1.
		if _, out := d.StealBegin(); out != StealOK {
			t.Fatal(out)
		}
		d.StealCommit()
		if e, ok := d.Pop(nil); !ok || e != ents[1] {
			t.Fatalf("pop = %+v %v", e, ok)
		}

		// Thief: lock, claim — the verify load of bottom comes later.
		if d.hdr.lock.Add(1) != 1 {
			t.Fatal("lock not free")
		}
		top := d.hdr.top.Load()
		d.hdr.top.Store(top + 1)
		seenBottom := d.hdr.bottom.Load()

		// Owner: push inside the window.
		if err := d.Push(ents[2]); err != nil {
			t.Fatalf("push under a doomed claim (thiefSeesPush=%v): %v", thiefSeesPush, err)
		}

		if thiefSeesPush {
			// The verify load lands after the push: a legal steal of the
			// freshly published entry.
			if b := d.hdr.bottom.Load(); b < top+1 {
				t.Fatalf("bottom %d does not cover the claim at %d", b, top)
			}
			if e := d.entryAt(top); e != ents[2] {
				t.Fatalf("claimed %+v, want %+v", e, ents[2])
			}
			d.StealCommit()
			if n := d.Size(); n != 0 {
				t.Fatalf("size %d after the steal, want 0", n)
			}
			if _, ok := d.Pop(nil); ok {
				t.Fatal("owner popped a stolen entry")
			}
			continue
		}
		// The verify load landed before the push: drained, the thief will
		// retreat. The owner runs the child and pops FIRST — top still
		// reads bottom, and an "empty" here would have the caller free a
		// frame whose entry the retreat is about to hand back.
		if seenBottom >= top+1 {
			t.Fatalf("bottom %d covered the claim at %d before the push", seenBottom, top)
		}
		pop := popUnderClaim(t, d)
		d.hdr.top.Store(top)
		d.Unlock()
		if r := <-pop; !r.ok || r.e != ents[2] {
			t.Fatalf("pop across the retreat = %+v %v, want %+v", r.e, r.ok, ents[2])
		}
		if n := d.Size(); n != 0 {
			t.Fatalf("size %d after the pop, want 0", n)
		}
	}
}

// TestDequeOverflowUnderClaimStillReported: the signed compare must not
// lose the real bound. With a full-width claim in flight the owner may
// fill the usable ring and no further.
func TestDequeOverflowUnderClaimStillReported(t *testing.T) {
	d := NewDeque(8) // MaxClaim 2, six usable slots
	if d.hdr.lock.Add(1) != 1 {
		t.Fatal("lock not free")
	}
	d.hdr.top.Store(d.MaxClaim()) // doomed claim of full width on an empty deque
	ents := chainEnts(9, 64)
	pushed := 0
	for ; pushed < len(ents); pushed++ {
		if d.Push(ents[pushed]) != nil {
			break
		}
	}
	// b-t < cap-maxClaim admits bottom up to top+cap-maxClaim = cap: the
	// ring is never lapped, whatever the claim does next.
	if pushed != 8 {
		t.Fatalf("pushed %d entries under the claim, want 8", pushed)
	}
	d.hdr.top.Store(0)
	d.Unlock()
	if n := d.Size(); n != 8 {
		t.Fatalf("size %d after the retreat, want 8", n)
	}
	if d.Push(ents[8]) == nil {
		t.Fatal("push into a full ring succeeded")
	}
}

// chainSize gives the entry that will end at VA end its size, so a
// consumer can check size against base+size: a slot torn between two
// entries (adjacent entries differ in size) is a visible mismatch.
func chainSize(end mem.VA) uint64 { return 16 * (1 + uint64(end>>4)%3) }

func entryIntact(e Entry) bool {
	return e.FrameSize == chainSize(e.FrameBase+mem.VA(e.FrameSize))
}

// TestDequePlainSlotsStress: one owner pushing and popping, two batch
// thieves, on an 8-slot ring (MaxClaim 2) that wraps constantly — every
// physical slot is rewritten thousands of times while thieves read its
// neighbours. Every pushed entry must be consumed exactly once, intact.
func TestDequePlainSlotsStress(t *testing.T) {
	total := 40000
	if testing.Short() {
		total = 8000
	}
	d := NewDeque(8)
	var stop atomic.Bool
	stolen := make(chan Entry, total)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			buf := make([]Entry, d.MaxClaim())
			for !stop.Load() {
				n, outcome := d.StealBeginBatch(buf)
				if outcome != StealOK {
					runtime.Gosched()
					continue
				}
				for j := 0; j < n; j++ {
					if !entryIntact(buf[j]) {
						t.Errorf("thief read torn slot %+v", buf[j])
					}
				}
				if rng.Intn(8) == 0 {
					d.StealAbortBatch(n)
					continue
				}
				d.StealCommit()
				for j := 0; j < n; j++ {
					stolen <- buf[j]
				}
			}
		}(int64(i) + 1)
	}

	var popped []Entry
	pop := func() {
		if e, ok := d.Pop(nil); ok {
			if !entryIntact(e) {
				t.Errorf("owner popped torn slot %+v", e)
			}
			popped = append(popped, e)
		}
	}
	rng := rand.New(rand.NewSource(42))
	p := mem.VA(0x7f00_0000_0000)
	for i := 0; i < total; i++ {
		size := chainSize(p)
		p -= mem.VA(size)
		for d.Push(Entry{FrameBase: p, FrameSize: size}) != nil {
			pop()
		}
		for k := rng.Intn(3); k > 0; k-- {
			pop()
		}
		if i%64 == 0 {
			runtime.Gosched() // let thieves in on a one-CPU host
		}
	}
	stop.Store(true)
	wg.Wait()
	// Drain after the thieves stop: a final abort can hand entries back.
	for d.Size() > 0 {
		pop()
	}
	close(stolen)

	seen := make(map[Entry]int, total)
	for _, e := range popped {
		seen[e]++
	}
	nStolen := 0
	for e := range stolen {
		seen[e]++
		nStolen++
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
		t.Fatalf("lock word %d at rest", got)
	}
	t.Logf("%d popped, %d stolen", len(popped), nStolen)
}

// TestRecordPlainResultStress recycles ONE record between a joiner (the
// table's owner: Alloc, join, ReleaseLocal) and a completer on another
// goroutine, with Result a function of the epoch: a joiner that read
// Result before the done edge, or a completer that wrote into a record
// still being read, shows as a wrong value (and as a race under -race).
func TestRecordPlainResultStress(t *testing.T) {
	epochs := uint64(200000)
	if testing.Short() {
		epochs = 20000
	}
	result := func(epoch uint64) uint64 { return epoch*0x9e3779b97f4a7c15 + 1 }
	tb := NewTable(1)
	// posted stands in for the handle travelling through a frame and the
	// deque: the completer learns of epoch n only after the owner's Alloc.
	var posted atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := tb.Get(0)
		for epoch := uint64(1); epoch <= epochs; epoch++ {
			for posted.Load() != epoch {
				runtime.Gosched()
			}
			r.Result = result(epoch)
			r.Job.Store(RecordDone(0))
		}
	}()
	for epoch := uint64(1); epoch <= epochs; epoch++ {
		idx, err := tb.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		r := tb.Get(idx)
		if r.IsDone() {
			t.Fatalf("epoch %d: recycled record still done", epoch)
		}
		posted.Store(epoch)
		for !r.IsDone() {
			runtime.Gosched()
		}
		if got := r.Result; got != result(epoch) {
			t.Fatalf("epoch %d: joined result %#x, want %#x", epoch, got, result(epoch))
		}
		tb.ReleaseLocal(idx)
	}
	wg.Wait()
	if live := tb.Live(); live != 0 {
		t.Fatalf("%d records live at rest", live)
	}
}
