package sched

import (
	"time"

	"uniaddr/internal/core"
	"uniaddr/internal/obs"
)

// Resilient steal protocol for the real backends — the wall-clock port
// of the simulator's bounded-retry / backoff / rollback / blacklist
// machinery (core.tryStealHelpFirst and DESIGN.md §6). The sim proved
// the protocol under virtual time; this file is the shared path both
// rt (threads) and dist (processes) run it on, so injected op failures
// exercise the SAME state machine under real concurrency.
//
// Protocol summary:
//
//   - A failed claim op (the injected stand-in for a lost RDMA FAA or
//     CAS) is retried up to MaxRetries times with capped exponential
//     backoff, then abandoned: the thief walks away and picks another
//     victim next round. No claim was completed, so nothing rolls back.
//   - A failed frame transfer (a lost RDMA READ) fires AFTER the bytes
//     moved — the one deliberate exception to fail-before-effect —
//     forcing the full THE rollback: free our local copy, hand the
//     claimed entry back (StealAbort), release the victim's lock. The
//     steal is abandoned, not retried: the transfer consumed real work
//     and the victim may have drained meanwhile.
//   - BlacklistAfter consecutive faults against one victim ban it for
//     BlacklistFor of wall time. Victim selection (backend-specific)
//     consults Banned and steers around live bans, but liveness never
//     depends on the ban set: bans expire, and selection falls back to
//     a banned victim rather than refusing to steal at all.
//
// A Resilience value is OWNER-ONLY state (one per worker, like the rng
// and stats): maps and counters are unsynchronised by design.

// StealInjector decides the fate of individual steal ops. fault.Plan
// implements it; the interface lives here so sched does not import
// fault. A nil injector means no faults (the zero-cost fast path — the
// resilience loop collapses to exactly the pre-fault steal sequence).
type StealInjector interface {
	// StealClaim is consulted before the claim; fail models a lost
	// claim op (nothing happened on the victim).
	StealClaim(thief, victim int) (stall time.Duration, fail bool)
	// StealCopy is consulted after the frame transfer; fail models a
	// failed RDMA READ discovered at completion, forcing rollback.
	StealCopy(thief, victim int) (stall time.Duration, fail bool)
}

// ResilienceConfig shapes the retry/backoff/blacklist budget. The
// defaults are the wall-clock translation of the sim's cycle-based
// ones (1 cycle ≈ 1ns at the sim's 1GHz reference clock).
type ResilienceConfig struct {
	MaxRetries     int           // claim-fault retries per steal before abandoning
	BackoffBase    time.Duration // first retry backoff; doubles per attempt
	BackoffCap     time.Duration // backoff ceiling
	BlacklistAfter int           // consecutive faults that trip a victim ban
	BlacklistFor   time.Duration // ban duration
}

// DefaultResilienceConfig mirrors core.DefaultConfig's steal knobs:
// 3 retries, 2000-cycle base / 1<<17-cycle cap backoff, blacklist
// after 3 for 2M cycles.
func DefaultResilienceConfig() ResilienceConfig {
	return ResilienceConfig{
		MaxRetries:     3,
		BackoffBase:    2 * time.Microsecond,
		BackoffCap:     128 * time.Microsecond,
		BlacklistAfter: 3,
		BlacklistFor:   2 * time.Millisecond,
	}
}

// ResilienceStats counts protocol events, matching the sim's fault
// counters field for field so chaos sweeps can compare backends.
type ResilienceStats struct {
	StealFaults      uint64 // injected op failures observed
	StealRetries     uint64 // claim retries taken
	StealRollbacks   uint64 // transfer faults rolled back (THE abort)
	StealAbortsFault uint64 // steals abandoned because of faults
	VictimBlacklists uint64 // ban events
	BackoffNS        uint64 // wall time spent in fault backoff
}

// Resilience is one worker's thief-side fault state machine.
type Resilience struct {
	cfg   ResilienceConfig
	inj   StealInjector
	rank  int
	sleep func(time.Duration) // injectable for tests
	now   func() time.Time    // injectable for tests

	fails  map[int]int       // victim → consecutive fault count
	banned map[int]time.Time // victim → ban expiry

	Stats ResilienceStats

	// Log is the owning worker's wall-clock event log; nil (the
	// default) disables event emission at the cost of one pointer
	// compare per call. Set by the backend after construction.
	Log *obs.Log
	// Jobs resolves the job tag of a stolen frame to the slot whose
	// live-chain token the steal mints (StealBatchFrom). Left nil where
	// every frame carries tag 0. Set by the backend after construction.
	Jobs *JobTable
}

// NewResilience builds the state machine for one worker. inj may be
// nil (no faults; the machinery stays dormant and free).
func NewResilience(rank int, cfg ResilienceConfig, inj StealInjector) *Resilience {
	return &Resilience{
		cfg:   cfg,
		inj:   inj,
		rank:  rank,
		sleep: time.Sleep,
		now:   time.Now,
	}
}

// Banned reports whether victim is currently blacklisted, lazily
// expiring stale bans.
func (r *Resilience) Banned(victim int) bool {
	if r == nil || len(r.banned) == 0 {
		return false
	}
	until, ok := r.banned[victim]
	if !ok {
		return false
	}
	if r.now().After(until) {
		delete(r.banned, victim)
		return false
	}
	return true
}

// noteFault records one injected fault against victim and trips the
// blacklist when the consecutive count reaches the threshold.
func (r *Resilience) noteFault(victim int) {
	r.Stats.StealFaults++
	if r.cfg.BlacklistAfter <= 0 {
		return
	}
	if r.fails == nil {
		r.fails = make(map[int]int)
	}
	r.fails[victim]++
	if r.fails[victim] >= r.cfg.BlacklistAfter {
		if r.banned == nil {
			r.banned = make(map[int]time.Time)
		}
		r.banned[victim] = r.now().Add(r.cfg.BlacklistFor)
		delete(r.fails, victim)
		r.Stats.VictimBlacklists++
		r.Log.Instant(obs.KBlacklist, uint64(r.cfg.BlacklistFor), 0, victim)
	}
}

// backoff sleeps the capped exponential delay for the given attempt
// and returns it.
func (r *Resilience) backoff(attempt int) time.Duration {
	d := r.cfg.BackoffBase << uint(attempt)
	if r.cfg.BackoffCap > 0 && d > r.cfg.BackoffCap {
		d = r.cfg.BackoffCap
	}
	if d > 0 {
		r.Stats.BackoffNS += uint64(d)
		r.sleep(d)
	}
	return d
}

// StealBatchFrom runs one resilient steal-half round trip against
// victim's deque vd: claim up to len(buf) entries (StealBeginBatch), move
// them from the victim's arena view src into the thief's own arena dst
// (same VA — the uni-address invariant) with a SINGLE memcpy — the batch
// is one contiguous byte range, see the deque's chain-contiguity
// argument — and commit. The fault model amortises with the batch: one
// claim consult gates the whole claim, one copy consult gates the whole
// transfer, and a transfer fault rolls back ALL claimed entries
// (FreeLowest of the combined range, StealAbortBatch) — a lost RDMA READ
// loses the whole message, not one frame of it. StealFaulted means the
// fault budget was exhausted; the caller treats it like a failed probe
// (no retry against this victim this round). Other outcomes are the
// usual THE results.
//
// Before it commits, still inside the victim's lock, the thief mints the
// live-chain token of the job it is taking a piece of (JobSlot.Live; the
// tag rides in the header of every copied frame, and tag 0 — every dist
// frame — has no slot). The victim can only find its stack empty, and
// retire its own token, under that same lock, so the count cannot touch
// zero between the split and the mint.
//
// On StealOK buf[0..n) holds the stolen entries in deque order
// (buf[0] oldest / highest VA, buf[n-1] newest / lowest VA) and the
// frames are installed in dst. With a nil injector this is exactly
// one StealBeginBatch, one copy, one mint, one StealCommit.
func (r *Resilience) StealBatchFrom(victim int, vd *Deque, src, dst *Arena, buf []Entry) (int, StealOutcome) {
	for attempt := 0; ; attempt++ {
		if r.inj != nil {
			stall, fail := r.inj.StealClaim(r.rank, victim)
			if stall > 0 {
				r.sleep(stall)
			}
			if fail {
				// Lost claim op: nothing happened on the victim, so
				// retry or abandon — never roll back.
				r.Log.Instant(obs.KStealFault, 0, 0, victim)
				r.noteFault(victim)
				if attempt >= r.cfg.MaxRetries || r.Banned(victim) {
					r.Stats.StealAbortsFault++
					r.Log.Instant(obs.KStealAbandon, 0, 0, victim)
					return 0, StealFaulted
				}
				r.Stats.StealRetries++
				bs := r.Log.Clock()
				d := r.backoff(attempt)
				r.Log.Emit(obs.KStealRetry, bs, uint64(d), uint64(attempt), 0, victim)
				continue
			}
		}
		n, outcome := vd.StealBeginBatch(buf)
		if outcome != StealOK {
			return 0, outcome
		}
		// Claimed; the victim's lock is held across the whole batch. The
		// n entries tile one contiguous range [low, low+total): buf[0] is
		// the highest frame, buf[n-1] the lowest.
		low := buf[n-1].FrameBase
		total := uint64(buf[0].FrameBase-low) + buf[0].FrameSize
		if err := dst.Install(low, total); err != nil {
			panic(err)
		}
		sb, err := src.Slice(low, total)
		if err != nil {
			panic(err)
		}
		db := dst.MustSlice(low, total)
		cs := r.Log.Clock()
		copy(db, sb)
		r.Log.Span(obs.KXfer, cs, total, 0, victim, obs.HCopyNS)
		r.Log.Observe(obs.HCopyBytes, total)
		if r.inj != nil {
			stall, fail := r.inj.StealCopy(r.rank, victim)
			if stall > 0 {
				// Injected transfer stall (an ODP page-fault style
				// delay). The victim's lock is held across it, exactly
				// as a slow RDMA READ would hold it — THE tolerates
				// this; chaos schedules keep the stall bounded.
				r.sleep(stall)
			}
			if fail {
				// The whole transfer failed after the bytes moved: roll
				// back the full batch through the existing THE abort
				// path — free our combined copy, hand every entry back.
				if err := dst.FreeLowest(low, total); err != nil {
					panic(err)
				}
				vd.StealAbortBatch(n)
				r.Stats.StealRollbacks++
				r.Log.Instant(obs.KStealRollback, 0, 0, victim)
				r.noteFault(victim)
				r.Stats.StealAbortsFault++
				return 0, StealFaulted
			}
		}
		if tag := core.FrameJob(db); tag != 0 {
			r.Jobs.Get(tag - 1).Live.Add(1)
		}
		vd.StealCommit()
		if r.fails != nil {
			// Success clears the victim's consecutive-fault streak.
			delete(r.fails, victim)
		}
		return n, StealOK
	}
}

// StealFrom is StealBatchFrom for a single entry.
func (r *Resilience) StealFrom(victim int, vd *Deque, src, dst *Arena) (Entry, StealOutcome) {
	var buf [1]Entry
	_, outcome := r.StealBatchFrom(victim, vd, src, dst, buf[:])
	return buf[0], outcome
}
