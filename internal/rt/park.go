package rt

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Idle parking: a two-rung ladder — spin hot, then PARK on a wakeable
// lot — plus precise wakeups: Push wakes one parker only when one
// exists, and a record completion wakes exactly the worker whose
// suspended thread it unblocks. No timed rung in between: a sleeping
// worker is in no lot, so no Submit, push or Close could reach it before
// its (coarse) timer fired. Why no wakeup can be lost: DESIGN.md §10.

// idleSpinRounds: Gosched-only rounds before parking — hot for the
// steal about to succeed and the Submit microseconds away.
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
	count  atomic.Int64
	mu     sync.Mutex
	parked []*Worker
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
}

// wakeOne releases the most recently parked worker, if any (LIFO: its
// caches are the warmest). Called by Push-side producers.
func (l *parkingLot) wakeOne() {
	l.mu.Lock()
	if n := len(l.parked); n > 0 {
		w := l.parked[n-1]
		l.removeLocked(w)
		l.mu.Unlock()
		w.wakeCh <- struct{}{}
		return
	}
	l.mu.Unlock()
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
	if w.rt.queuedCount.Load() > 0 && w.rt.freeSlotCount.Load() > 0 {
		return true
	}
	for _, v := range w.rt.workers {
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
	w.rt.lot.register(w)
	if w.rt.stopped() || w.hasWorkHint() {
		if w.rt.lot.cancel(w) {
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
	<-w.wakeCh
	w.Wlog.Park(ps)
	w.Stats.Wakes++
}

// idlePark is one round of the idle engine: yield or park, as the
// ladder says. idleSpins advances every round and NOT while parked — the
// quiescence tests assert it stops once the lot has absorbed the idle.
func (w *Worker) idlePark() {
	w.idleSpins.Add(1)
	if w.idle.spin() {
		runtime.Gosched()
		return
	}
	w.park()
	w.idle.reset()
}
