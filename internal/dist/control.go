package dist

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"uniaddr/internal/fault"
	"uniaddr/internal/mem"
)

// Control-plane wire format: JSON values over per-child Unix-domain
// stream sockets. A child says hello once, when it is launched
// (registration + function-table check); after that every run is the
// same three exchanges — start (the run's parameters and the barrier
// release), bye (stats + quiescence report) and ack (bye receipt) —
// with everything between them one-sided shared memory. Between runs
// the child blocks reading its connection; EOF there (the set was
// discarded, or the coordinator died) ends it.
//
// Resilience: every exchange is bounded by a deadline, and a child that
// loses any exchange (dropped, delayed past the deadline, or truncated
// message — all injectable via fault.Config's Ctl knobs) closes the
// connection and REDIALS, replaying hello→start(→bye→ack) with
// jittered exponential backoff. The coordinator's control server is
// therefore a pure state machine over per-rank LATEST state: a re-hello
// supersedes the rank's previous connection, a replayed bye is
// acknowledged again, and the current run's start is re-sent to any
// conn that hellos after it opened. Idempotence, not reliability, is
// what makes the lossy channel safe.

// childEnvVar carries the childSpec to a re-exec'd worker process. Its
// presence is what turns a binary's MaybeChild() call into the child
// entrypoint.
const childEnvVar = "UNIADDR_DIST_CHILD"

// childSpec is everything a child needs to join its set: its identity,
// the segment geometry (which must reproduce the parent's layout
// bit-for-bit), the rendezvous paths, and what a set launched for one
// run only carries (its fault schedule and injected hang). What a run
// may vary on a set that stays launched travels in startMsg instead.
type childSpec struct {
	Rank      int
	Workers   int
	ArenaSize uint64
	DequeCap  uint64
	RecordCap uint64
	ShmPath   string
	SegBase   uint64
	SockPath  string

	// Fault is the run's deterministic fault schedule; every process
	// rebuilds the same Plan from it (pure function of config), so
	// thief-side decisions agree no matter which process draws them.
	Fault fault.Config
	// HangRank/HangAfter wedge this child mid-run (see Config).
	HangRank  int
	HangAfter time.Duration

	// Obs/ObsRingCap select the segment-hosted event rings. They are
	// layout inputs: a child that failed to thread them would compute
	// offsets that silently disagree with the parent's, so layout() is
	// the only place a Config is rebuilt from a spec.
	Obs        bool
	ObsRingCap int
}

func (s childSpec) encode() (string, error) {
	b, err := json.Marshal(s)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func childSpecFromEnv() (childSpec, bool, error) {
	v, ok := os.LookupEnv(childEnvVar)
	if !ok || v == "" {
		return childSpec{}, false, nil
	}
	var s childSpec
	if err := json.Unmarshal([]byte(v), &s); err != nil {
		return childSpec{}, true, fmt.Errorf("dist: malformed %s: %w", childEnvVar, err)
	}
	return s, true, nil
}

// layoutFor rebuilds the segment layout from a spec; parent and child
// call the same function so the offsets cannot drift.
func (s childSpec) layout() layout {
	cfg := Config{
		Workers:    s.Workers,
		ArenaSize:  s.ArenaSize,
		DequeCap:   s.DequeCap,
		RecordCap:  s.RecordCap,
		Obs:        s.Obs,
		ObsRingCap: s.ObsRingCap,
	}
	return computeLayout(&cfg)
}

// helloMsg is the child's registration: identity plus the function-
// table fingerprint (count + order-independent digest of registered
// names; see core.RegistryFingerprint). Err reports a child-side setup
// failure (e.g. the segment address was occupied in its address space)
// so the parent can surface a real error instead of a timeout.
type helloMsg struct {
	Rank   int
	PID    int
	Count  int
	Digest uint64
	Err    string `json:",omitempty"`
}

// startMsg opens one run — or aborts the child when OK is false
// (fingerprint mismatch, a sibling crashed during handshake, ...). The
// rest is the run's parameters. Every process must agree on the
// scheduler knobs: StealBatch in particular sizes the claim bound
// thieves assume against each other's deques.
type startMsg struct {
	OK  bool
	Err string `json:",omitempty"`

	Seed       uint64
	Grain      uint64
	StealBatch int
	TierGroup  int
	// HeartbeatInterval is the stamping period (<= 0 disables).
	HeartbeatInterval time.Duration
	// ObsEpoch is the run's wall epoch (unix nanos): every process
	// stamps events as UnixNano()-ObsEpoch so one merged timeline holds
	// all ranks.
	ObsEpoch int64
}

// byeMsg is the child's final report after its scheduler loop exited.
type byeMsg struct {
	Rank  int
	Stats Stats
	Err   string `json:",omitempty"`
}

// ackMsg confirms the coordinator received a bye. Without it a child
// could not distinguish "bye delivered" from "bye dropped on a lossy
// channel" and a silently lost final report would masquerade as a
// crash.
type ackMsg struct {
	OK bool
}

// handshakeTimeout bounds how long the parent waits for children to
// map the segment and say hello; a child that blows it fails the launch.
const handshakeTimeout = 30 * time.Second

// Per-exchange deadlines and the child's redial budget. One attempt's
// exchanges are individually bounded, so ctlMaxAttempts bounds the
// whole control conversation in wall time; the jittered exponential
// backoff between attempts keeps redialing children from stampeding
// the coordinator's accept loop.
const (
	ctlHelloTimeout = 2 * time.Second
	ctlStartTimeout = 2 * time.Second
	ctlAckTimeout   = 2 * time.Second
	ctlMaxAttempts  = 8
	ctlBackoffBase  = 10 * time.Millisecond
	ctlBackoffCap   = 250 * time.Millisecond
)

// assertLayoutSane double-checks invariants both sides rely on.
func assertLayoutSane(l layout) error {
	if l.workers < 1 {
		return fmt.Errorf("dist: layout has %d workers", l.workers)
	}
	if l.arenaBase == mem.VA(0) {
		return fmt.Errorf("dist: layout has zero arena base")
	}
	return nil
}
