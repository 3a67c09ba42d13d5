package main

import (
	"crypto/sha1"
	"time"
)

// Host-speed correction. This class of host (a shared microVM) runs the
// same single-threaded code 10-25 % slower for minutes at a time
// whenever a neighbour is busy. No estimator over one 30 s run can see
// through a slowdown that outlasts the run, so two sets of runs of the
// same code disagree by more than a useful regression bound. What does
// see through it is a fixed kernel timed next to the jobs: a chain of
// SHA-1 blocks — no memory traffic, no allocation, no scheduler — slows
// down by the same factor the jobs do (README.md, "Reference speed",
// has the measurements).
//
// Every execution time the benchmark gates is therefore reported at
// reference speed: divided by factor(q) = (q-quantile of probe ns per
// block) / refBlockNS, q being the quantile the duration itself is read
// at. Of a job's latency only the executing part is rescaled.
//
// One probe thread is enough because the benchmark pins itself to one
// CPU (pin_linux.go): whatever its threads do, they share the core the
// probe runs on.

// refBlockNS defines reference speed: one probe block takes this long.
// It is about what this host class achieves when idle, so corrected
// numbers read like quiet-host wall-clock. Changing it rescales every
// timing metric; it is part of the benchmark's definition.
const refBlockNS = 120.0

// hostSpeed collects probe samples for one phase of a run.
type hostSpeed struct {
	blocks int       // chain length of one probe
	ns     []float64 // per probe: nanoseconds per block
	sink   byte      // keeps the chain's result alive
}

func newHostSpeed(blocks int) *hostSpeed { return &hostSpeed{blocks: blocks} }

// probe times the kernel once. A nil receiver does nothing.
func (h *hostSpeed) probe() {
	if h == nil {
		return
	}
	var d [sha1.Size]byte
	t0 := time.Now()
	for b := 0; b < h.blocks; b++ {
		d = sha1.Sum(d[:])
	}
	h.ns = append(h.ns, float64(time.Since(t0).Nanoseconds())/float64(h.blocks))
	h.sink ^= d[0]
}

// factor is how much slower than reference speed the host ran during
// the phase, read at quantile q of the probes: a q-quantile of job
// timings is divided by the same quantile of the probe, because the two
// are stretched by the same interference — the lower tails meet the
// host's quiet moments, the medians its typical ones. It is 1 when
// nothing was probed.
func (h *hostSpeed) factor(q float64) float64 {
	if h == nil || len(h.ns) == 0 {
		return 1
	}
	return quantile(h.ns, q) / refBlockNS
}
