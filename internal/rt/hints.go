package rt

import "uniaddr/internal/obs"

// Hint-guided, distance-tiered victim selection. The pre-optimization
// trySteal probed one uniformly random victim per idle round; with W
// workers and one busy victim, an idle worker burned W-2 empty probes
// (each a real StealBegin: an atomic RMW on the victim's lock line)
// for every hit. The replacement consults each candidate's racy
// Deque.Size() — two atomic loads, no RMW, and the very top/bottom lines
// StealBeginBatch reads next, so a hit costs no line of its own — and a
// last-successful-victim cache before falling back to a single blind
// probe. The owner publishes nothing for thieves' benefit: a separate
// hint word would cost it two serialising stores per task to save a
// thief one load per probe.
//
// The hint sweep walks victims in DISTANCE order (sched.BuildTiers,
// after distbdd-spin17's VERYNEAR/NEAR/FAR/VERYFAR arrays): candidates
// in the thief's own rank block first, then outward tier by tier, with
// a random start inside each tier so thieves don't convoy on the
// lowest rank. On rt the tiers model cache/NUMA affinity between
// neighbouring workers; on dist the same construction tiers process
// ranks. Tier order is a pure preference — liveness never depends on
// it, nor on the hint: Size() is exact but racy, so it can be stale by
// the time the probe lands (one wasted probe) and can read 0 for an
// instant while another thief's doomed claim inflates top, which is why
// the no-hints-anywhere path still probes one random victim blindly
// (DESIGN.md §10).

// trySteal attempts one steal round: cache first, then the tiered hint
// sweep, then one blind probe. Returns true when at least one thread
// was stolen (and the newest stolen thread executed). At most two
// StealBegin probes per round.
func (w *Worker) trySteal() bool {
	n := len(w.rt.workers)
	if n < 2 || !w.arena.Empty() {
		return false
	}
	// 1. Last successful victim: work-stealing victims are bursty — a
	// deep deque stays stealable across many rounds.
	if lv := w.lastVictim; lv >= 0 {
		if v := w.rt.workers[lv]; v.deque.Size() > 0 && !w.res.Banned(int(lv)) {
			w.stats.StealCacheProbes++
			w.wlog.Instant(obs.KProbeCache, 0, 0, int(lv))
			if w.stealFrom(v, int(lv)) {
				return true
			}
		}
		w.lastVictim = -1
	}
	// 2. Tiered hint sweep: scan each distance tier's deque sizes (cheap
	// loads) near-to-far, probing the first candidate that holds work
	// and is not blacklisted.
	for tier := range w.tiers {
		cands := w.tiers[tier]
		if len(cands) == 0 {
			continue
		}
		start := w.rng.Intn(len(cands))
		for i := 0; i < len(cands); i++ {
			vi := cands[(start+i)%len(cands)]
			if v := w.rt.workers[vi]; v.deque.Size() > 0 && !w.res.Banned(vi) {
				w.stats.StealHintProbes++
				w.wlog.Instant(obs.KProbeHint, 0, 0, vi)
				return w.stealFrom(v, vi)
			}
		}
	}
	// 3. Every deque reads empty (or banned). A racy read can miss work
	// pushed a moment later, so probe one random victim anyway: the
	// blind probe is what makes progress independent of the sweep's
	// timing — and, matching the sim's
	// pickVictim, independent of the ban set (bans only redirect the
	// draw; after a few redraws the probe proceeds regardless, so
	// liveness never depends on bans expiring on time).
	vi := w.blindVictim(n)
	w.stats.StealBlindProbes++
	w.wlog.Instant(obs.KProbeBlind, 0, 0, vi)
	return w.stealFrom(w.rt.workers[vi], vi)
}

// blindVictim draws a uniformly random victim != self, redrawing up to
// three times to steer around blacklisted victims, then using the last
// draw anyway.
func (w *Worker) blindVictim(n int) int {
	vi := 0
	for redraw := 0; redraw < 4; redraw++ {
		vi = w.rng.Intn(n - 1)
		if vi >= w.rank {
			vi++
		}
		if !w.res.Banned(vi) {
			break
		}
	}
	return vi
}

// stealFrom runs the thief side of Fig. 6 against victim v through the
// shared resilience layer — batched: one claim/verify round trip moves
// up to ⌈size/2⌉ entries (sched.Resilience.StealBatchFrom), landing as
// ONE contiguous install+memcpy in our arena. Legal only while our
// region is empty (the caller checked).
//
// The stolen entries are pushed onto our OWN deque oldest-first, so
// the deque order (and the arena's descending-VA chain) is preserved:
// the newest entry is popped and run immediately — exactly what the
// single-steal path executed — while the rest are real local work that
// other thieves can re-steal from us, which is how one round trip
// fans work out. On success v becomes the cached victim for the next
// round.
func (w *Worker) stealFrom(v *Worker, vi int) bool {
	w.stats.StealAttempts++
	ts := w.wlog.Clock()
	n, outcome := w.res.StealBatchFrom(vi, v.deque, v.arena, w.arena, w.stealBuf)
	switch outcome {
	case StealEmpty, StealEmptyLocked:
		w.stats.StealAbortEmpty++
		w.wlog.Emit(obs.KStealEmpty, ts, w.wlog.Clock()-ts, 0, 0, vi)
		return false
	case StealLockBusy:
		w.stats.StealAbortLock++
		w.wlog.Emit(obs.KStealBusy, ts, w.wlog.Clock()-ts, 0, 0, vi)
		return false
	case StealFaulted:
		// Fault budget exhausted against this victim; drop the cache so
		// the next round picks someone else. (The resilience layer
		// already emitted the fault/retry/abandon events.)
		w.lastVictim = -1
		return false
	}
	var total uint64
	for i := 0; i < n; i++ {
		total += w.stealBuf[i].FrameSize
		if err := w.deque.Push(w.stealBuf[i]); err != nil {
			panic(err)
		}
	}
	w.stats.StealsOK += uint64(n)
	w.stats.BytesStolen += total
	w.stats.StealBatches++
	w.stats.StealBatchEntries += uint64(n)
	w.lastVictim = int32(vi)
	w.wlog.StealOK(ts, total, vi)
	// Extra entries just became stealable from us: release a parked
	// worker so the fan-out actually happens.
	if n > 1 && w.rt.lot.count.Load() > 0 {
		w.rt.lot.wakeOne()
	}
	// Pop (not invoke directly): an entry on our deque is claimable by
	// other thieves, so only a successful pop grants execution rights.
	if ent, ok := w.deque.Pop(w.stopFn); ok {
		w.invoke(ent.FrameBase, ent.FrameSize)
	}
	return true
}
