package rt

import (
	"runtime"
	"sync"
	"sync/atomic"

	"uniaddr/internal/obs"
)

// Idle parking: a two-rung ladder — spin hot, then PARK on a wakeable
// lot — plus precise wakeups: Push wakes one parker only when one
// exists, and a record completion wakes exactly the worker whose
// suspended thread it unblocks. No timed rung in between: a sleeping
// worker is in no lot, so no Submit, push or Close could reach it before
// its (coarse) timer fired. Why no wakeup can be lost: DESIGN.md §10.

// idleSpinRounds: Gosched-only rounds before parking while the pool
// holds a job — hot for the steal about to succeed and the queued job
// about to be claimed.
const idleSpinRounds = 64

// idleState is the per-worker backoff ladder: a pure state machine, so
// the counter semantics are unit testable without a runtime.
type idleState struct {
	spins int
}

// spin advances the ladder one round: true = yield and look again,
// false = the spinning budget is spent, park.
func (s *idleState) spin() bool {
	if s.spins < idleSpinRounds {
		s.spins++
		return true
	}
	return false
}

// reset rewinds the ladder to hot spinning; called whenever the worker
// finds work (pop, steal, or resume succeeds) and after a wakeup.
func (s *idleState) reset() { s.spins = 0 }

// parkingLot tracks which workers are parked. count is read on the
// producer fast path (one atomic load per push when nobody is parked);
// the slice is mutated only under mu. A parked worker owns slot
// parkSlot in parked; every removal — by a waker or by the parker's own
// cancel — is paired with exactly one token send on the worker's
// 1-buffered wakeCh, and the worker consumes exactly one token per
// registration episode, so a send can never block and a wake can never
// be lost.
type parkingLot struct {
	count atomic.Int64
	// resting counts the registered workers that are past their recheck
	// and have no wake token in flight (commit): at the pool's worker
	// count, nothing runs until a wake (Pool.settle). Changed under mu.
	resting atomic.Int64
	mu      sync.Mutex
	parked  []*Worker
}

// register adds w to the lot. The count increment is a seq-cst RMW that
// program-order-precedes the caller's work recheck — the parker's half
// of the Dekker handshake with push/complete (DESIGN.md §10).
func (l *parkingLot) register(w *Worker) {
	l.mu.Lock()
	w.parkSlot = int32(len(l.parked))
	l.parked = append(l.parked, w)
	l.count.Add(1)
	l.mu.Unlock()
}

// commit marks w resting, once it is past its recheck and has made its
// last write before it blocks. A w a waker already claimed is not
// registered any more and stays out of the count: its token is in flight.
func (l *parkingLot) commit(w *Worker) {
	l.mu.Lock()
	if w.parkSlot >= 0 {
		w.resting = true
		l.resting.Add(1)
	}
	l.mu.Unlock()
}

// cancel removes w if it is still registered, reporting whether it was.
// A false return means a waker already claimed w and its token is in
// flight — the caller must consume it.
func (l *parkingLot) cancel(w *Worker) bool {
	l.mu.Lock()
	ok := w.parkSlot >= 0
	if ok {
		l.removeLocked(w)
	}
	l.mu.Unlock()
	return ok
}

// removeLocked unregisters w (swap-remove; mu held).
func (l *parkingLot) removeLocked(w *Worker) {
	i := w.parkSlot
	last := len(l.parked) - 1
	moved := l.parked[last]
	l.parked[last] = nil
	if int(i) != last {
		l.parked[i] = moved
		moved.parkSlot = i
	}
	l.parked = l.parked[:last]
	w.parkSlot = -1
	l.count.Add(-1)
	if w.resting {
		w.resting = false
		l.resting.Add(-1)
	}
}

// wakeOne releases the most recently parked worker, if any (LIFO: its
// caches are the warmest), and reports whether it released one. Called
// by Push-side producers, Submit and finalizeSlot, each after the
// seq-cst store that publishes its work: the count load is the
// producer's half of the Dekker square with register → recheck
// (DESIGN.md §10), and it keeps the common nobody-parked path free of
// lock traffic. Small enough to inline; the locked path is wakeParked.
func (l *parkingLot) wakeOne() bool {
	if l.count.Load() == 0 {
		return false
	}
	return l.wakeParked()
}

// wakeParked is wakeOne past its count check.
func (l *parkingLot) wakeParked() bool {
	l.mu.Lock()
	if n := len(l.parked); n > 0 {
		w := l.parked[n-1]
		l.removeLocked(w)
		l.mu.Unlock()
		w.wakeCh <- struct{}{}
		return true
	}
	l.mu.Unlock()
	return false
}

// wakeWorker releases w specifically, if it is parked — the precise
// wake a record completion sends to the joiner it unblocks.
func (l *parkingLot) wakeWorker(w *Worker) {
	l.mu.Lock()
	if w.parkSlot >= 0 {
		l.removeLocked(w)
		l.mu.Unlock()
		w.wakeCh <- struct{}{}
		return
	}
	l.mu.Unlock()
}

// wakeAll releases every parked worker — the shutdown broadcast from
// finish/fail.
func (l *parkingLot) wakeAll() {
	l.mu.Lock()
	ws := make([]*Worker, len(l.parked))
	copy(ws, l.parked)
	for _, w := range ws {
		l.removeLocked(w)
	}
	l.mu.Unlock()
	for _, w := range ws {
		w.wakeCh <- struct{}{}
	}
}

// hasWorkHint reports whether anything the parked-to-be worker could
// act on exists right now. This is the park-side recheck, so it reads
// EXACT state — other deques' atomic Size and waitq records' done
// flags. The steal sweep asks the same Size(), but there a stale answer
// only wastes or skips a probe; here the read is ordered after the lot
// registration (see park), so work it misses is work whose producer
// sees the registration and sends a wake.
func (w *Worker) hasWorkHint() bool {
	// A queued job is dispatchable work ONLY while a job slot is free:
	// with every slot occupied, startQueuedJob cannot claim the queue
	// head, and a hint that ignored the slots would bar every idle worker
	// from parking — busy-spinning for as long as sustained load keeps
	// the slots full. Exact for the same reason as the deque sizes: Submit
	// enqueues before it wakes, and finalizeSlot publishes the freed
	// slot before it wakes, so a parker that misses either count here is
	// claimed by the corresponding wake.
	if w.pool.queuedCount.Load() > 0 && w.pool.freeSlotCount.Load() > 0 {
		return true
	}
	for _, v := range w.pool.workers {
		if v != w && v.Deque.Size() > 0 {
			return true
		}
	}
	return w.HasReadyWaiter()
}

// park blocks the worker on the lot until a producer, a completer or
// shutdown wakes it. The register→recheck order is what makes the sleep
// safe: work published after the recheck is published by a producer
// that observes count > 0 (or a completer that observes the recorded
// waiter) and sends a wake.
func (w *Worker) park() {
	w.pool.lot.register(w)
	if w.pool.stopped() || w.hasWorkHint() {
		if w.pool.lot.cancel(w) {
			return
		}
		// A waker claimed us between register and cancel; its token is
		// in flight and must be consumed to keep the pairing invariant.
		<-w.wakeCh
		w.Stats.Wakes++
		return
	}
	w.Stats.Parks++
	ps := w.Wlog.Clock()
	w.pool.lot.commit(w)
	w.await()
	w.Wlog.Span(obs.KPark, ps, 0, 0, -1, obs.HParkDur)
}

// await blocks until the worker's wake token arrives.
func (w *Worker) await() {
	<-w.wakeCh
	w.Stats.Wakes++
}

// idlePark is one round of the idle engine: yield or park, as the
// ladder says. idleSpins advances every round and NOT while parked — the
// quiescence tests assert it stops once the lot has absorbed the idle.
//
// The ladder is walked only while the pool holds a job: only then can a
// peer publish work or a queued job be claimed. A worker of an empty
// pool parks on its first idle round, off the Go run queue, where its
// yields kept the job's waiter from running (DESIGN.md §10). The spin
// is a latency budget, never a correctness condition: park registers,
// rechecks and waits whatever the ladder said.
func (w *Worker) idlePark() {
	w.idleSpins.Add(1)
	if w.pool.holdsJob() && w.idle.spin() {
		runtime.Gosched()
		return
	}
	w.park()
	w.idle.reset()
}

// holdsJob reports whether a job occupies a slot or waits in the
// admission queue (two atomic loads, safe from any worker).
func (p *Pool) holdsJob() bool {
	return p.freeSlotCount.Load() < int64(p.cfg.MaxJobs) || p.queuedCount.Load() > 0
}
