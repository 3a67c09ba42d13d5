package main

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"uniaddr"
)

// The open-loop generator. Jobs arrive on the schedule whether or not
// earlier ones have completed — independent users do not wait for each
// other — so a slow pool shows up as queueing latency instead of
// silently receiving less load. Every job is timed from the moment it
// was DUE, never from the moment it was actually sent: a stall that
// delays the generator delays the user behind it just the same, and
// timing from the send would hide exactly those jobs.

// spinMargin is how close to the due time the generator sleeps; the
// remainder is a yield-spin. With precise timers a wake-up on the CPU
// the generator shares with the pool lands 10-30 µs late; a wider margin
// only makes the spin compete with the worker for longer (at 100 µs the
// run-to-run range of the p90 latency was 14 %, at 40 µs 3 %).
const spinMargin = 40 * time.Microsecond

// A host-speed probe (about 30 µs at this scale) fits before a send
// whose due time is at least probeGap away; the sleep then ends
// probeRoom earlier.
const (
	probeGap  = 300 * time.Microsecond
	probeRoom = 50 * time.Microsecond
)

// pace returns as close after due as the host allows: a sleep in the
// kernel to within spinMargin, a yield-spin for the rest. Where the
// schedule leaves room and idle reports that no job is in flight, it
// fits one host-speed probe in just before the spin — never right after
// a send, where it would share the CPU with the job it just submitted.
// The caller has locked its goroutine to its thread.
func pace(due time.Time, hs *hostSpeed, idle func() bool) {
	d := time.Until(due) - spinMargin
	probing := hs != nil && d > probeGap
	if probing {
		d -= probeRoom
	}
	if d > 0 {
		preciseSleep(d)
	}
	if probing && idle() {
		hs.probe()
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

// openJob is one arrival on its way from the generator to the collector.
type openJob struct {
	idx int
	svc *uniaddr.Service
	job *uniaddr.Job // nil when Submit refused
	err error        // Submit's error
	t   jobTimes     // done is filled in by the collector
}

// runOpen drives service_open: it stands up one Service, sends
// in.arrivals[i] at its due time from this goroutine, and has a
// collector goroutine Wait for every job in submission order (the one
// pool worker completes them in that order, so the collector never
// stamps a completion late). Jobs before in.timedAt are the warm-up:
// verified, not sampled. Any failure — a refused Submit, a job error, a
// wrong result — is counted and followed by a fresh Service, so one
// dead pool costs the jobs it held and not the rest of the run.
//
// Host speed is probed by the generator itself, with short probes in
// the gaps of the schedule that are long enough (see pace) — not in
// bursts of full-size probes around the run, which read 8-15 % slow
// while the runtime sweeps and returns the set-up phase's garbage.
func runOpen(w workload, in inputs, seed uint64, tr *tracer, hs *hostSpeed, rec *recorder) (memDelta, error) {
	newService := func() (*uniaddr.Service, error) {
		return uniaddr.NewService(w.serviceOptions(seed)...)
	}
	svc, err := newService()
	if err != nil {
		return memDelta{}, fmt.Errorf("standing up the service: %w", err)
	}
	// Sized so the generator never blocks on the collector: at most
	// queue-depth + max-jobs submissions can be admitted and unfinished,
	// and the collector disposes of a refused one without waiting.
	ch := make(chan openJob, openQueueDepth+openMaxJobs)
	var recreate atomic.Bool
	var inFlight atomic.Int64 // submitted and not yet collected
	idle := func() bool { return inFlight.Load() == 0 }
	collected := make(chan struct{})
	go func(prev *uniaddr.Service) {
		defer close(collected)
		for oj := range ch {
			if oj.svc != prev {
				// Every job of the previous service has been waited for. It
				// was replaced because it failed; what its Close reports
				// has been counted job by job already.
				_ = prev.Close()
				prev = oj.svc
			}
			var rep uniaddr.Report
			err := oj.err
			if err == nil {
				rep, err = oj.job.Wait()
				oj.t.done = time.Now()
				inFlight.Add(-1)
			}
			if verr := verify(w, in.spec, rep, err); verr != nil {
				rec.fail(verr)
				recreate.Store(true)
				continue
			}
			if oj.idx < in.timedAt { // warm-up: verified, not sampled
				rec.attempted++
				continue
			}
			traced := tr != nil && oj.idx%2 == 0
			if traced {
				id := int64(oj.idx + 1)
				js := tr.add("job", laneCollector, noSpan, id, oj.t.due, oj.t.done)
				tr.add("uniaddr.Submit", laneGenerator, js, id, oj.t.submitStart, oj.t.submitEnd)
				tr.add("uniaddr.Wait", laneCollector, js, id, oj.t.submitEnd, oj.t.done)
			}
			rec.sample(rep, oj.t, traced)
		}
		if err := prev.Close(); err != nil {
			rec.fail(fmt.Errorf("closing the service: %w", err))
		}
	}(svc)

	// The generator owns its thread: pace sleeps in the kernel.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	preciseTimers()
	var mark *memMark
	var fatal error
	deadline := uniaddr.JobMaxWall(jobMaxWall)
	start := time.Now()
	for i, off := range in.arrivals {
		if i == in.timedAt {
			mark = markMem()
		}
		oj := openJob{idx: i, svc: svc}
		oj.t.due = start.Add(off)
		pace(oj.t.due, hs, idle)
		if recreate.Swap(false) {
			// The collector closes the old service once it has drained it.
			if svc, err = newService(); err != nil {
				fatal = fmt.Errorf("replacing a failed service: %w", err)
				break
			}
			oj.svc = svc
		}
		oj.t.submitStart = time.Now()
		oj.job, oj.err = svc.Submit(context.Background(), in.spec.Fid, in.spec.Locals, in.spec.Init, deadline)
		oj.t.submitEnd = time.Now()
		if oj.err == nil {
			inFlight.Add(1)
		}
		ch <- oj
	}
	close(ch)
	<-collected
	if mark == nil {
		mark = markMem()
	}
	return mark.since(), fatal
}
