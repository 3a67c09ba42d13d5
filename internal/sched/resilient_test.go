package sched

import (
	"bytes"
	"sync"
	"testing"
	"time"
	"unsafe"

	"uniaddr/internal/core"
	"uniaddr/internal/mem"
)

// scriptInjector replays a fixed per-call script of (stall, fail)
// decisions, split by op.
type scriptInjector struct {
	mu         sync.Mutex
	claimFails int // fail the first N claim consultations
	copyFails  int // fail the first N copy consultations
	claims     int
	copies     int
}

func (s *scriptInjector) StealClaim(thief, victim int) (time.Duration, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.claims++
	return 0, s.claims <= s.claimFails
}

func (s *scriptInjector) StealCopy(thief, victim int) (time.Duration, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.copies++
	return 0, s.copies <= s.copyFails
}

// testRig builds a victim deque+arena with one pushed frame and an
// empty thief arena at the same base. The frames belong to the job in
// slot 0 of jobs, so a steal that commits mints one live-chain token
// there and one that rolls back mints none.
type testRig struct {
	vd       *Deque
	src, dst *Arena
	ent      Entry
	jobs     *JobTable
}

// res is NewResilience wired to the rig's job table.
func (rig *testRig) res(rank int, cfg ResilienceConfig, inj StealInjector) *Resilience {
	r := NewResilience(rank, cfg, inj)
	r.Jobs = rig.jobs
	return r
}

func (rig *testRig) live() int64 { return rig.jobs.Get(0).Live.Load() }

// fillFrame makes b a frame of job slot 0: a header carrying its tag,
// then locals filled by pattern.
func fillFrame(b []byte, pattern func(j int) byte) {
	for j := range b {
		b[j] = pattern(j)
	}
	core.EncodeFrameHeader(b, 1, uint32(len(b))-core.FrameHeaderBytes, uint32(JobTag(0)), 0)
}

func newTestRig(t *testing.T) *testRig {
	t.Helper()
	const base, size = mem.VA(0x1000), uint64(1 << 16)
	src := NewArena(base, size)
	dst := NewArena(base, size)
	fb, err := src.AllocBelow(256)
	if err != nil {
		t.Fatal(err)
	}
	fillFrame(src.MustSlice(fb, 256), func(j int) byte { return byte(j) })
	vd := NewDeque(8)
	ent := Entry{FrameBase: fb, FrameSize: 256}
	if err := vd.Push(ent); err != nil {
		t.Fatal(err)
	}
	return &testRig{vd: vd, src: src, dst: dst, ent: ent, jobs: NewJobTable(1)}
}

func fastCfg() ResilienceConfig {
	return ResilienceConfig{MaxRetries: 3, BackoffBase: time.Microsecond, BackoffCap: 8 * time.Microsecond, BlacklistAfter: 3, BlacklistFor: time.Minute}
}

func TestResilienceNilInjectorIsPlainSteal(t *testing.T) {
	rig := newTestRig(t)
	r := rig.res(1, fastCfg(), nil)
	ent, out := r.StealFrom(0, rig.vd, rig.src, rig.dst)
	if out != StealOK || ent != rig.ent {
		t.Fatalf("got (%+v, %v), want (%+v, ok)", ent, out, rig.ent)
	}
	if !bytes.Equal(rig.dst.MustSlice(ent.FrameBase, ent.FrameSize), rig.src.MustSlice(ent.FrameBase, ent.FrameSize)) {
		t.Fatal("stolen frame's bytes differ from the victim's")
	}
	if r.Stats != (ResilienceStats{}) {
		t.Fatalf("fault counters moved without injector: %+v", r.Stats)
	}
	if rig.live() != 1 {
		t.Fatalf("Live = %d after one committed steal, want 1", rig.live())
	}
}

// TestStealMintsInsideVictimLock pins WHERE the steal's live-chain mint
// sits, which no stress run can see (the window a late mint opens is one
// instruction wide): the victim may find its stack empty, and retire its
// own token, as soon as the thief releases the deque lock, so the mint
// must already have landed. The FAA lock makes the order observable: its
// release stores 0, absorbing every increment made while it was held. So
// the job table is laid over the deque region with slot 0's Live word ON
// the victim's lock word — a mint inside the lock is absorbed by the
// commit, one after it is left standing.
func TestStealMintsInsideVictimLock(t *testing.T) {
	const base, size = mem.VA(0x1000), uint64(1 << 16)
	liveOff := uint64(unsafe.Offsetof(JobSlot{}.Live))
	region := heapRegion(liveOff + DequeBytes(8))
	jobs, err := NewJobTableAt(region, 1)
	if err != nil {
		t.Fatal(err)
	}
	vd, err := NewDequeAt(region[liveOff:], 8)
	if err != nil {
		t.Fatal(err)
	}
	if unsafe.Pointer(&jobs.Get(0).Live) != unsafe.Pointer(&vd.hdr.lock) {
		t.Fatal("slot 0's Live word is not the deque's lock word; the overlay is mis-built")
	}
	src, dst := NewArena(base, size), NewArena(base, size)
	fb, err := src.AllocBelow(256)
	if err != nil {
		t.Fatal(err)
	}
	fillFrame(src.MustSlice(fb, 256), func(j int) byte { return byte(j) })
	if err := vd.Push(Entry{FrameBase: fb, FrameSize: 256}); err != nil {
		t.Fatal(err)
	}
	r := NewResilience(1, fastCfg(), nil)
	r.Jobs = jobs
	if _, out := r.StealFrom(0, vd, src, dst); out != StealOK {
		t.Fatalf("steal: %v", out)
	}
	if word := vd.hdr.lock.Load(); word != 0 {
		t.Fatalf("the shared lock/Live word reads %d after the steal: the mint landed after StealCommit released the victim's lock", word)
	}
}

func TestResilienceClaimRetriesThenSucceeds(t *testing.T) {
	rig := newTestRig(t)
	r := rig.res(1, fastCfg(), &scriptInjector{claimFails: 2})
	var slept time.Duration
	r.sleep = func(d time.Duration) { slept += d }
	ent, out := r.StealFrom(0, rig.vd, rig.src, rig.dst)
	if out != StealOK || ent != rig.ent {
		t.Fatalf("got (%+v, %v), want success after retries", ent, out)
	}
	if r.Stats.StealFaults != 2 || r.Stats.StealRetries != 2 {
		t.Fatalf("stats %+v, want 2 faults / 2 retries", r.Stats)
	}
	// Exponential: 1µs + 2µs.
	if slept != 3*time.Microsecond || r.Stats.BackoffNS != uint64(slept) {
		t.Fatalf("backoff slept %v (counter %d), want 3µs", slept, r.Stats.BackoffNS)
	}
	// Success cleared the consecutive-fault streak: no ban state.
	if r.Banned(0) {
		t.Fatal("victim banned after a successful steal")
	}
}

func TestResilienceClaimExhaustionAbandons(t *testing.T) {
	rig := newTestRig(t)
	r := rig.res(1, fastCfg(), &scriptInjector{claimFails: 100})
	r.sleep = func(time.Duration) {}
	_, out := r.StealFrom(0, rig.vd, rig.src, rig.dst)
	if out != StealFaulted {
		t.Fatalf("outcome %v, want faulted", out)
	}
	// MaxRetries=3 → 4 consultations (attempts 0..3), all failing; the
	// 3rd fault trips the blacklist (BlacklistAfter=3), but the loop
	// only abandons at attempt >= MaxRetries or on a live ban.
	if r.Stats.StealAbortsFault != 1 {
		t.Fatalf("stats %+v, want exactly one fault abort", r.Stats)
	}
	if r.Stats.VictimBlacklists != 1 || !r.Banned(0) {
		t.Fatalf("stats %+v banned=%v, want the victim banned", r.Stats, r.Banned(0))
	}
	// The entry is still on the victim's deque (no claim completed).
	if rig.vd.Size() != 1 {
		t.Fatalf("victim deque size %d after abandoned claim, want 1", rig.vd.Size())
	}
}

func TestResilienceCopyFaultRollsBack(t *testing.T) {
	rig := newTestRig(t)
	r := rig.res(1, fastCfg(), &scriptInjector{copyFails: 1})
	r.sleep = func(time.Duration) {}
	_, out := r.StealFrom(0, rig.vd, rig.src, rig.dst)
	if out != StealFaulted {
		t.Fatalf("outcome %v, want faulted rollback", out)
	}
	if r.Stats.StealRollbacks != 1 || r.Stats.StealFaults != 1 || r.Stats.StealAbortsFault != 1 {
		t.Fatalf("stats %+v, want one rollback", r.Stats)
	}
	// THE rollback: entry handed back, lock released, thief arena empty.
	if rig.vd.Size() != 1 {
		t.Fatalf("victim deque size %d after rollback, want 1 (entry handed back)", rig.vd.Size())
	}
	if !rig.dst.Empty() {
		t.Fatal("thief arena not empty after rollback")
	}
	if rig.live() != 0 {
		t.Fatalf("Live = %d after a rolled-back steal, want 0: the mint must follow the copy-fault check", rig.live())
	}
	// The same entry is still stealable (fresh resilience, no faults).
	r2 := rig.res(2, fastCfg(), nil)
	ent, out := r2.StealFrom(0, rig.vd, rig.src, rig.dst)
	if out != StealOK || ent != rig.ent {
		t.Fatalf("re-steal after rollback: (%+v, %v)", ent, out)
	}
	if rig.live() != 1 {
		t.Fatalf("Live = %d after the re-steal, want 1", rig.live())
	}
}

func TestResilienceBanExpires(t *testing.T) {
	cfg := fastCfg()
	cfg.BlacklistFor = time.Millisecond
	rig := newTestRig(t)
	r := rig.res(1, cfg, &scriptInjector{claimFails: 100})
	r.sleep = func(time.Duration) {}
	now := time.Now()
	r.now = func() time.Time { return now }
	r.StealFrom(0, rig.vd, rig.src, rig.dst)
	if !r.Banned(0) {
		t.Fatal("victim not banned after fault burst")
	}
	now = now.Add(2 * time.Millisecond)
	if r.Banned(0) {
		t.Fatal("ban did not lazily expire")
	}
}

// Concurrent thieves with injected faults against one victim under
// -race: every pushed entry is stolen exactly once, rollbacks hand
// entries back intact, and accounting balances.
func TestResilienceConcurrentThievesRace(t *testing.T) {
	const (
		thieves = 4
		entries = 64
	)
	base, size := mem.VA(0x1000), uint64(1<<20)
	src := NewArena(base, size)
	vd := NewDeque(128)
	for i := 0; i < entries; i++ {
		fb, err := src.AllocBelow(128)
		if err != nil {
			t.Fatal(err)
		}
		fillFrame(src.MustSlice(fb, 128), func(int) byte { return byte(i) })
		if err := vd.Push(Entry{FrameBase: fb, FrameSize: 128}); err != nil {
			t.Fatal(err)
		}
	}
	var (
		mu     sync.Mutex
		stolen = map[mem.VA]int{}
		wg     sync.WaitGroup
		jobs   = NewJobTable(1)
	)
	for th := 0; th < thieves; th++ {
		th := th
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := NewArena(base, size)
			// Every 5th copy consultation fails → rollbacks interleave
			// with commits across racing thieves.
			inj := &everyNthCopy{n: 5}
			r := NewResilience(th+1, fastCfg(), inj)
			r.Jobs = jobs
			for {
				ent, out := r.StealFrom(0, vd, src, dst)
				switch out {
				case StealOK:
					mu.Lock()
					stolen[ent.FrameBase]++
					mu.Unlock()
					// Free the copy so the arena stays empty for the
					// next steal (steal precondition).
					if err := dst.FreeLowest(ent.FrameBase, ent.FrameSize); err != nil {
						panic(err)
					}
				case StealEmpty, StealEmptyLocked:
					if vd.Size() == 0 {
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if len(stolen) != entries {
		t.Fatalf("%d distinct entries stolen, want %d", len(stolen), entries)
	}
	for fb, n := range stolen {
		if n != 1 {
			t.Fatalf("entry %#x stolen %d times", fb, n)
		}
	}
	// One token per committed steal, none for the rollbacks in between.
	if live := jobs.Get(0).Live.Load(); live != entries {
		t.Fatalf("Live = %d after %d committed steals", live, entries)
	}
}

// everyNthCopy fails every n-th copy consultation (thread-safe).
type everyNthCopy struct {
	mu sync.Mutex
	n  int
	c  int
}

func (e *everyNthCopy) StealClaim(thief, victim int) (time.Duration, bool) { return 0, false }

func (e *everyNthCopy) StealCopy(thief, victim int) (time.Duration, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.c++
	return 0, e.c%e.n == 0
}

// batchRig builds a victim with four CONTIGUOUS 256-byte frames (the
// adjacent descending chain real arenas produce) so batched steals can
// move a multi-frame block.
func newBatchRig(t *testing.T) *testRig {
	t.Helper()
	const base, size = mem.VA(0x1000), uint64(1 << 16)
	src := NewArena(base, size)
	dst := NewArena(base, size)
	vd := NewDeque(8) // MaxClaim 2
	for i := 0; i < 4; i++ {
		fb, err := src.AllocBelow(256)
		if err != nil {
			t.Fatal(err)
		}
		fillFrame(src.MustSlice(fb, 256), func(j int) byte { return byte(16*i + j%16) })
		if err := vd.Push(Entry{FrameBase: fb, FrameSize: 256}); err != nil {
			t.Fatal(err)
		}
	}
	return &testRig{vd: vd, src: src, dst: dst, jobs: NewJobTable(1)}
}

// TestResilienceBatchMovesBlock: a fault-free batched steal moves the
// claimed frames as one contiguous block, bytes intact.
func TestResilienceBatchMovesBlock(t *testing.T) {
	rig := newBatchRig(t)
	r := rig.res(1, fastCfg(), nil)
	buf := make([]Entry, rig.vd.MaxClaim())
	n, out := r.StealBatchFrom(0, rig.vd, rig.src, rig.dst, buf)
	if out != StealOK || n != 2 {
		t.Fatalf("batch steal: n=%d %v, want 2 ok", n, out)
	}
	if rig.vd.Size() != 2 {
		t.Fatalf("victim deque size %d, want 2", rig.vd.Size())
	}
	// Both frames' bytes landed at their uni-addresses in the thief's
	// arena.
	for i := 0; i < n; i++ {
		got := rig.dst.MustSlice(buf[i].FrameBase, buf[i].FrameSize)
		want := rig.src.MustSlice(buf[i].FrameBase, buf[i].FrameSize)
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("frame %d byte %d: %d != %d", i, j, got[j], want[j])
			}
		}
	}
	if r.Stats != (ResilienceStats{}) {
		t.Fatalf("fault counters moved without injector: %+v", r.Stats)
	}
	if rig.live() != 1 {
		t.Fatalf("Live = %d after a batch of %d, want 1: one token per batch, not per entry", rig.live(), n)
	}
}

// TestResilienceBatchCopyFaultRollsBack: a copy fault mid-batch hands
// EVERY claimed entry back and frees the thief-side block — the THE
// abort generalised to the batch.
func TestResilienceBatchCopyFaultRollsBack(t *testing.T) {
	rig := newBatchRig(t)
	r := rig.res(1, fastCfg(), &scriptInjector{copyFails: 1})
	r.sleep = func(time.Duration) {}
	buf := make([]Entry, rig.vd.MaxClaim())
	n, out := r.StealBatchFrom(0, rig.vd, rig.src, rig.dst, buf)
	if out != StealFaulted || n != 0 {
		t.Fatalf("batch under copy fault: n=%d %v, want rollback", n, out)
	}
	if r.Stats.StealRollbacks != 1 || r.Stats.StealAbortsFault != 1 {
		t.Fatalf("stats %+v, want one rollback", r.Stats)
	}
	if rig.vd.Size() != 4 {
		t.Fatalf("victim deque size %d after rollback, want 4", rig.vd.Size())
	}
	if !rig.dst.Empty() {
		t.Fatal("thief arena not empty after batch rollback")
	}
	if rig.live() != 0 {
		t.Fatalf("Live = %d after a rolled-back batch, want 0", rig.live())
	}
	// The block is still stealable by a healthy thief.
	r2 := rig.res(2, fastCfg(), nil)
	if n, out := r2.StealBatchFrom(0, rig.vd, rig.src, rig.dst, buf); out != StealOK || n != 2 {
		t.Fatalf("re-steal after rollback: n=%d %v", n, out)
	}
}

// TestResilienceBatchClaimRetries: claim faults burn retries exactly as
// in the single-entry path, then the batch proceeds.
func TestResilienceBatchClaimRetries(t *testing.T) {
	rig := newBatchRig(t)
	r := rig.res(1, fastCfg(), &scriptInjector{claimFails: 2})
	r.sleep = func(time.Duration) {}
	buf := make([]Entry, rig.vd.MaxClaim())
	n, out := r.StealBatchFrom(0, rig.vd, rig.src, rig.dst, buf)
	if out != StealOK || n != 2 {
		t.Fatalf("batch after claim retries: n=%d %v", n, out)
	}
	if r.Stats.StealFaults != 2 || r.Stats.StealRetries != 2 {
		t.Fatalf("stats %+v, want 2 faults / 2 retries", r.Stats)
	}
}
