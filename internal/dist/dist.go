package dist

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"

	"uniaddr/internal/core"
	"uniaddr/internal/fault"
	"uniaddr/internal/obs"
)

// Result is a completed dist run's report: the root task's result plus
// per-process scheduler counters (index = rank).
type Result struct {
	Root      uint64
	Elapsed   time.Duration
	PerWorker []Stats
	// Obs is the harvested wall-clock export when Config.Obs was set
	// (nil otherwise). It is populated on FAILED runs too — Run returns
	// it beside WorkerCrashError/WorkerHungError so a dead rank's last
	// recorded events are still exportable.
	Obs *obs.Export
}

// TotalStats sums the per-worker counters.
func (r *Result) TotalStats() Stats {
	var t Stats
	for _, s := range r.PerWorker {
		t.Add(s)
	}
	return t
}

// childProc tracks one spawned worker process through its lifecycle.
type childProc struct {
	rank     int
	cmd      *exec.Cmd
	bye      *byeMsg
	waitErr  error
	waitDone chan struct{}
}

// errCollector arbitrates the run's structured error. First error wins,
// with ONE exception: a concrete worker failure (crash or hang)
// REPLACES a pending MaxWallError — the watchdog firing concurrently
// with a crash is a race where the timeout is the symptom and the dead
// worker the cause, and the caller must see exactly one winner.
type errCollector struct {
	mu  sync.Mutex
	err error
}

func (c *errCollector) record(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = err
		return
	}
	var mw *MaxWallError
	if errors.As(c.err, &mw) {
		switch err.(type) {
		case *WorkerCrashError, *WorkerHungError:
			c.err = err
		}
	}
}

func (c *errCollector) get() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Run executes the root task fid across cfg.Workers OS processes and
// blocks until the run completes, fails, or a worker process dies or
// hangs. Every failure path — crash, hang, control-plane loss, budget
// blowout — ends in a structured typed error within bounded wall time:
// the crash monitor, heartbeat monitor and MaxWall watchdog between
// them cover every way a run can stop making progress, and the error
// collector arbitrates so exactly one wins. The calling process is the
// coordinator AND worker rank 0; the binary must route re-exec'd
// children through MaybeChild (see its doc).
func Run(cfg Config, fid core.FuncID, localsLen uint32, init func(*core.Env)) (Result, error) {
	cfg.fillDefaults()
	lay := computeLayout(&cfg)
	if err := assertLayoutSane(lay); err != nil {
		return Result{}, err
	}
	fc := cfg.Fault
	if fc.Seed == 0 {
		fc.Seed = cfg.Seed
	}
	plan, err := fault.NewPlan(fc, cfg.Workers)
	if err != nil {
		return Result{}, fmt.Errorf("dist: %w", err)
	}

	// --- segment ------------------------------------------------------
	f, err := createSegmentFile(lay.total)
	if err != nil {
		return Result{}, err
	}
	defer f.Close()
	defer os.Remove(f.Name())
	segBytes, segBase, err := mapSegmentPickBase(f, lay.total)
	if err != nil {
		return Result{}, err
	}
	defer unmapSegment(segBytes)
	seg, err := attachSegment(segBytes, lay)
	if err != nil {
		return Result{}, err
	}
	// Wall epoch for the run: every process (parent and children, via
	// the childSpec) stamps events as UnixNano-epoch, so the harvested
	// rings share one timeline.
	var obsEpoch int64
	if cfg.Obs {
		obsEpoch = time.Now().UnixNano()
		if err := seg.attachObs(wallClockSince(obsEpoch)); err != nil {
			return Result{}, err
		}
	}

	// --- control server ----------------------------------------------
	sockDir, err := os.MkdirTemp("", "uniaddr-dist")
	if err != nil {
		return Result{}, fmt.Errorf("dist: socket dir: %w", err)
	}
	defer os.RemoveAll(sockDir)
	sockPath := filepath.Join(sockDir, "ctl.sock")
	ln, err := net.Listen("unix", sockPath)
	if err != nil {
		return Result{}, fmt.Errorf("dist: control socket: %w", err)
	}
	srv := newCtlServer(ln.(*net.UnixListener), cfg.Workers, plan, cfg.MaxWall+handshakeTimeout)
	defer srv.close()
	go srv.serve()

	// --- spawn children ----------------------------------------------
	exe, err := os.Executable()
	if err != nil {
		return Result{}, fmt.Errorf("dist: resolving own executable for re-exec: %w", err)
	}
	children := make([]*childProc, 0, cfg.Workers-1)
	killAll := func() {
		for _, c := range children {
			if c.cmd.Process != nil {
				c.cmd.Process.Kill()
			}
		}
	}
	for r := 1; r < cfg.Workers; r++ {
		spec := childSpec{
			Rank: r, Workers: cfg.Workers, Seed: cfg.Seed,
			ArenaSize: cfg.ArenaSize, DequeCap: cfg.DequeCap, RecordCap: cfg.RecordCap,
			ShmPath: f.Name(), SegBase: uint64(segBase), SockPath: sockPath,
			Grain: cfg.Grain, StealBatch: cfg.StealBatch, TierGroup: cfg.TierGroup,
			Fault: fc, HangRank: cfg.HangRank, HangAfter: cfg.HangAfter,
			HeartbeatInterval: cfg.HeartbeatInterval,
			Obs:               cfg.Obs, ObsRingCap: cfg.ObsRingCap, ObsEpoch: obsEpoch,
		}
		envVal, err := spec.encode()
		if err != nil {
			killAll()
			return Result{}, err
		}
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), childEnvVar+"="+envVal)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			killAll()
			return Result{}, fmt.Errorf("dist: starting worker rank %d: %w", r, err)
		}
		children = append(children, &childProc{
			rank: r, cmd: cmd,
			waitDone: make(chan struct{}),
		})
	}

	// --- registration barrier ----------------------------------------
	// Children connect (and reconnect, under control-plane faults) in
	// arbitrary order; the server tracks latest per-rank state. A child
	// whose hello reported a setup failure or a divergent function
	// table aborts the whole run before it starts.
	abortRun := func(cause error) (Result, error) {
		srv.abort(cause.Error())
		// Give handlers a beat to deliver the abort, then reap.
		time.Sleep(50 * time.Millisecond)
		killAll()
		for _, c := range children {
			c.cmd.Wait()
		}
		return Result{}, cause
	}
	if err := srv.awaitHellos(handshakeTimeout); err != nil {
		return abortRun(err)
	}

	// --- root record + start barrier ---------------------------------
	rootIdx, err := seg.peers[0].Records.Alloc()
	if err != nil {
		return abortRun(err)
	}
	if rootIdx != 0 {
		return abortRun(fmt.Errorf("dist: root record landed at index %d, want 0 (rootRec contract)", rootIdx))
	}
	srv.release()

	// --- run ----------------------------------------------------------
	errs := &errCollector{}
	var reaping atomicFlag
	var wg sync.WaitGroup
	for _, c := range children {
		c := c
		// Exit monitor: a process that dies without a bye is a crash.
		// The shared fail word is stored FIRST so every sibling's spins
		// (including deque lock spins wedged behind the dead process)
		// release before we even finish classifying the exit.
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.waitErr = c.cmd.Wait()
			close(c.waitDone)
			// The bye (if any) was sent before exit; give the server's
			// handler a moment to finish decoding it.
			c.bye = srv.waitBye(c.rank, time.Second)
			if c.bye == nil && !reaping.get() {
				seg.failStore(failCoordinator)
				detail := "exited before reporting"
				if c.waitErr != nil {
					detail = c.waitErr.Error()
				}
				errs.record(&WorkerCrashError{Rank: c.rank, PID: c.cmd.Process.Pid, Phase: "run", Detail: detail})
			} else if c.bye != nil && c.bye.Err != "" {
				errs.record(fmt.Errorf("dist: worker rank %d failed: %s", c.rank, c.bye.Err))
			}
		}()
	}

	// Heartbeat monitor: catches the failure the crash monitor cannot —
	// a process that is alive but silent. A rank whose stamp goes stale
	// past the timeout (while its process still runs) is declared hung:
	// record the structured error, release every sibling through the
	// fail word, then kill the wedged process so shutdown is not gated
	// on it. Detection latency is bounded by timeout + one poll tick.
	hbStop := make(chan struct{})
	var hbDone chan struct{}
	// Join, don't just signal: the monitor may be mid-read of the
	// segment when Run returns, and the deferred unmapSegment would
	// yank the mapping out from under it.
	defer func() {
		close(hbStop)
		if hbDone != nil {
			<-hbDone
		}
	}()
	if cfg.HeartbeatTimeout > 0 && len(children) > 0 {
		hbDone = make(chan struct{})
		go func() {
			defer close(hbDone)
			tick := cfg.HeartbeatTimeout / 4
			if tick > 50*time.Millisecond {
				tick = 50 * time.Millisecond
			}
			// Baseline every slot at the barrier release so a child hung
			// BEFORE its first stamp is still caught.
			now := uint64(time.Now().UnixNano())
			for _, c := range children {
				if seg.hbLast(c.rank) == 0 {
					seg.hbStamp(c.rank, now)
				}
			}
			for {
				select {
				case <-hbStop:
					return
				case <-time.After(tick):
				}
				if seg.stopped() {
					return
				}
				for _, c := range children {
					select {
					case <-c.waitDone:
						// Exited: the crash monitor owns classification.
						continue
					default:
					}
					last := seg.hbLast(c.rank)
					silence := time.Duration(uint64(time.Now().UnixNano()) - last)
					if last != 0 && silence > cfg.HeartbeatTimeout {
						errs.record(&WorkerHungError{Rank: c.rank, PID: c.cmd.Process.Pid, Silence: silence})
						seg.failStore(failCoordinator)
						c.cmd.Process.Kill()
						return
					}
				}
			}
		}()
	}

	// Watchdog: the analogue of the simulator's MaxCycles deadlock
	// guard, and the backstop that turns any unforeseen wedge into an
	// error instead of a hang. A concurrent crash/hang report replaces
	// it in the collector (see errCollector).
	watchdog := time.AfterFunc(cfg.MaxWall, func() {
		errs.record(&MaxWallError{Budget: cfg.MaxWall})
		seg.failStore(failCoordinator)
	})
	defer watchdog.Stop()

	// Fault injection: SIGKILL child ranks mid-run, on request. These
	// are the crashes the resilience gate requires to surface as
	// structured WorkerCrashErrors rather than hangs.
	killVictims := cfg.KillRanks
	if cfg.KillRank > 0 {
		killVictims = append(append([]int{}, killVictims...), cfg.KillRank)
	}
	for _, kr := range killVictims {
		if kr > 0 && kr < cfg.Workers {
			victim := children[kr-1]
			killTimer := time.AfterFunc(cfg.KillAfter, func() {
				victim.cmd.Process.Kill()
			})
			defer killTimer.Stop()
		}
	}

	start := time.Now()
	w0 := newWorker(seg, 0, cfg.Seed, cfg.Grain, cfg.StealBatch, cfg.TierGroup, plan, nil)
	w0.rootFid, w0.rootLocals, w0.rootInit = fid, localsLen, init
	if runErr := w0.run(); runErr != nil {
		seg.failStore(1)
		errs.record(runErr)
	}
	elapsed := time.Since(start)

	// --- shutdown / quiescence barrier -------------------------------
	// The loop exits only with done or fail set, so children are
	// draining toward their byes. Give them a grace period, then reap
	// stragglers; `reaping` keeps those late kills from masquerading as
	// mid-run crashes.
	grace := time.AfterFunc(10*time.Second, func() {
		reaping.set()
		killAll()
	})
	wg.Wait()
	grace.Stop()

	// Harvest the segment-hosted event rings BEFORE the error gates: all
	// child processes have been wait()ed on (quiescence), the segment is
	// still mapped, and a crashed or hung rank's last events are exactly
	// what a failed run's caller wants to see.
	var obsExport *obs.Export
	if seg.obs != nil {
		obsExport = obs.NewRecorderOver(seg.obs).Export()
	}

	if err := errs.get(); err != nil {
		return Result{Obs: obsExport}, err
	}
	if seg.ctl.done.Load() == 0 {
		return Result{Obs: obsExport}, fmt.Errorf("dist: workers exited without completing the root task")
	}

	res := Result{
		Root:      seg.ctl.result.Load(),
		Elapsed:   elapsed,
		PerWorker: make([]Stats, cfg.Workers),
		Obs:       obsExport,
	}
	res.PerWorker[0] = w0.FinalStats()
	for _, c := range children {
		// A reaped child can reach here with no bye and no recorded
		// error; surface it as a structured crash rather than reading
		// through a nil report (the old zero-value-Report bug).
		if c.bye == nil {
			detail := "no final report"
			if c.waitErr != nil {
				detail = c.waitErr.Error()
			}
			return Result{Obs: obsExport}, &WorkerCrashError{Rank: c.rank, PID: c.cmd.Process.Pid, Phase: "report", Detail: detail}
		}
		res.PerWorker[c.rank] = c.bye.Stats
	}
	// Post-run quiescence: every deque drained (readable from the
	// parent's views now that all processes have passed their byes) and
	// exactly one record — the never-joined root's — still live.
	for r := 0; r < cfg.Workers; r++ {
		if n := seg.peers[r].Deque.Size(); n != 0 {
			return Result{Obs: obsExport}, fmt.Errorf("dist: rank %d deque holds %d entries after completion", r, n)
		}
	}
	if live := res.TotalStats().RecordsLive; live != 1 {
		return Result{Obs: obsExport}, fmt.Errorf("dist: %d records live after completion, want 1 (the root's)", live)
	}
	return res, nil
}

// wallClockSince returns the shared dist wall clock: nanoseconds since
// the parent-chosen epoch. Every process uses the same epoch (threaded
// through the childSpec), so event stamps from different ranks land on
// one timeline, skewed only by host clock-sync error between calls.
func wallClockSince(epochNano int64) func() uint64 {
	return func() uint64 { return uint64(time.Now().UnixNano() - epochNano) }
}

// atomicFlag is a tiny set-once boolean safe across goroutines.
type atomicFlag struct {
	mu  sync.Mutex
	val bool
}

func (f *atomicFlag) set() {
	f.mu.Lock()
	f.val = true
	f.mu.Unlock()
}

func (f *atomicFlag) get() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.val
}
