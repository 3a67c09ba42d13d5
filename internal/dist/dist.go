package dist

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"sync"
	"sync/atomic"
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

// childProc is one launched worker process of a set.
type childProc struct {
	rank int
	cmd  *exec.Cmd
	// exited closes once cmd.Wait has returned (the process is reaped);
	// waitErr is valid after.
	exited  chan struct{}
	waitErr error
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
//
// The worker processes outlive the run: a run that ends clean leaves
// its set on a process-wide shelf, and the next Run of the same layout
// takes it instead of launching one (DESIGN.md §11). A run that injects
// faults, kills or hangs gets a set of its own and discards it.
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
	// Wall epoch for the run: every process stamps events as
	// UnixNano-epoch, so the harvested rings share one timeline.
	epoch := time.Now().UnixNano()

	fresh := plan != nil || len(cfg.KillRanks) > 0 || cfg.HangRank > 0
	var set *workerSet
	if !fresh {
		set = takeSet(keyOf(lay))
	}
	if set == nil {
		if set, err = launchSet(&cfg, lay, fc, plan); err != nil {
			return Result{}, err
		}
	}
	res, err := set.run(&cfg, plan, epoch, fid, localsLen, init)
	if err != nil || fresh {
		set.discard()
	} else {
		shelveSet(set)
	}
	return res, err
}

// setKey is the layout a set was launched for and may serve runs of.
type setKey struct {
	workers                        int
	arenaSize, dequeCap, recordCap uint64
	obsCap                         uint64
}

func keyOf(l layout) setKey {
	return setKey{l.workers, l.arenaSize, l.dequeCap, l.recordCap, l.obsCap}
}

// workerSet is one launched set of worker processes: the mapped
// segment, the control server, and ranks 1..n-1 alive and connected to
// it. Runs take turns on it, one at a time.
type workerSet struct {
	key      setKey
	seg      *segment
	srv      *ctlServer
	children []*childProc
}

// residentCap bounds the shelf, in sets: two keep a caller alternating
// one- and two-process runs (the benchmark's ledger does) resident.
// With a set in use it stays below len(segBaseCandidates), so a launch
// always finds a free base.
const residentCap = 2

// resident is the shelf of sets between runs, oldest first.
var resident struct {
	mu   sync.Mutex
	sets []*workerSet
}

// takeSet returns the newest shelved set of layout k, or nil. A set
// with a dead child is never handed out: it is discarded (and its
// processes reaped) instead.
func takeSet(k setKey) *workerSet {
	var found *workerSet
	var dead []*workerSet
	resident.mu.Lock()
	for i := len(resident.sets) - 1; i >= 0 && found == nil; i-- {
		s := resident.sets[i]
		alive := s.alive()
		if alive && s.key != k {
			continue
		}
		resident.sets = append(resident.sets[:i], resident.sets[i+1:]...)
		if alive {
			found = s
		} else {
			dead = append(dead, s)
		}
	}
	resident.mu.Unlock()
	for _, s := range dead {
		s.discard()
	}
	return found
}

// shelveSet puts a set that just ran clean on the shelf, discarding the
// oldest when it is full.
func shelveSet(s *workerSet) {
	var evict *workerSet
	resident.mu.Lock()
	if len(resident.sets) == residentCap {
		evict = resident.sets[0]
		resident.sets = append(resident.sets[:0], resident.sets[1:]...)
	}
	resident.sets = append(resident.sets, s)
	resident.mu.Unlock()
	if evict != nil {
		evict.discard()
	}
}

// alive reports whether every child process of the set is still
// running (none has been reaped).
func (s *workerSet) alive() bool {
	for _, c := range s.children {
		select {
		case <-c.exited:
			return false
		default:
		}
	}
	return true
}

// kill SIGKILLs every child process.
func (s *workerSet) kill() {
	for _, c := range s.children {
		c.cmd.Process.Kill()
	}
}

// discardGrace is how long discard lets children end on their own
// before killing them.
const discardGrace = 2 * time.Second

// discard ends the set: closing the control server hands every child
// EOF on its connection, which ends a child waiting for its next start;
// one still running after discardGrace is killed. It returns once every
// child is reaped and the segment unmapped.
func (s *workerSet) discard() {
	s.srv.close()
	t := time.AfterFunc(discardGrace, s.kill)
	for _, c := range s.children {
		<-c.exited
	}
	t.Stop()
	unmapSegment(s.seg.bytes)
}

// launchSet creates and maps the segment, starts the control server and
// ranks 1..n-1, and waits for every child's hello. The segment file is
// unlinked before it returns: every rank has mapped it by the hellos,
// and no later exit of this process — clean, os.Exit or SIGKILL — can
// leak it.
func launchSet(cfg *Config, lay layout, fc fault.Config, plan *fault.Plan) (*workerSet, error) {
	f, err := createSegmentFile(lay.total)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	defer os.Remove(f.Name())
	segBytes, segBase, err := mapSegmentPickBase(f, lay.total)
	if err != nil {
		return nil, err
	}
	seg, err := attachSegment(segBytes, lay)
	if err != nil {
		unmapSegment(segBytes)
		return nil, err
	}

	// The control socket is abstract (a leading '@'): it has no
	// filesystem entry to leak, and it lives exactly as long as this
	// process holds the listener.
	sockPath := fmt.Sprintf("@uniaddr-dist-%d-%x", os.Getpid(), sockSeq.Add(1))
	ln, err := net.ListenUnix("unix", &net.UnixAddr{Name: sockPath, Net: "unix"})
	if err != nil {
		unmapSegment(segBytes)
		return nil, fmt.Errorf("dist: control socket: %w", err)
	}
	s := &workerSet{key: keyOf(lay), seg: seg, srv: newCtlServer(ln, cfg.Workers, plan)}
	go s.srv.serve()

	exe, err := os.Executable()
	if err != nil {
		s.discard()
		return nil, fmt.Errorf("dist: resolving own executable for re-exec: %w", err)
	}
	for r := 1; r < cfg.Workers; r++ {
		spec := childSpec{
			Rank: r, Workers: cfg.Workers,
			ArenaSize: cfg.ArenaSize, DequeCap: cfg.DequeCap, RecordCap: cfg.RecordCap,
			ShmPath: f.Name(), SegBase: uint64(segBase), SockPath: sockPath,
			Fault: fc, HangRank: cfg.HangRank, HangAfter: cfg.HangAfter,
			Obs: cfg.Obs, ObsRingCap: cfg.ObsRingCap,
		}
		envVal, err := spec.encode()
		if err != nil {
			s.discard()
			return nil, err
		}
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), childEnvVar+"="+envVal)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			s.discard()
			return nil, fmt.Errorf("dist: starting worker rank %d: %w", r, err)
		}
		c := &childProc{rank: r, cmd: cmd, exited: make(chan struct{})}
		go func() {
			c.waitErr = c.cmd.Wait()
			close(c.exited)
		}()
		s.children = append(s.children, c)
	}

	// Registration barrier. Children connect (and reconnect, under
	// control-plane faults) in arbitrary order; the server tracks latest
	// per-rank state. A child whose hello reported a setup failure or a
	// divergent function table aborts the launch.
	if err := s.srv.awaitHellos(handshakeTimeout); err != nil {
		s.srv.abort(err.Error())
		// Give handlers a beat to deliver the abort, then reap.
		time.Sleep(50 * time.Millisecond)
		s.discard()
		return nil, err
	}
	return s, nil
}

// sockSeq numbers this process's control sockets.
var sockSeq atomic.Uint64

// run is the one per-run protocol, on a set fresh from launch or taken
// off the shelf: reset the words of the last run, open the run with a
// start carrying its parameters, run rank 0, then collect every child's
// bye — or its death — and check quiescence.
func (s *workerSet) run(cfg *Config, plan *fault.Plan, epoch int64, fid core.FuncID, localsLen uint32, init func(*core.Env)) (Result, error) {
	seg := s.seg
	seg.resetShared()
	if err := seg.resetOwn(0, epoch); err != nil {
		return Result{}, err
	}

	// --- root record + start -----------------------------------------
	rootIdx, err := seg.peers[0].Records.Alloc()
	if err != nil {
		return Result{}, err
	}
	if rootIdx != 0 {
		return Result{}, fmt.Errorf("dist: root record landed at index %d, want 0 (rootRec contract)", rootIdx)
	}
	start := startMsg{
		OK: true, Seed: cfg.Seed, Grain: cfg.Grain, StealBatch: cfg.StealBatch, TierGroup: cfg.TierGroup,
		HeartbeatInterval: cfg.HeartbeatInterval, ObsEpoch: epoch,
	}
	round := s.srv.startRun(start, cfg.MaxWall+handshakeTimeout)

	// --- run ----------------------------------------------------------
	errs := &errCollector{}
	var reaping atomic.Bool
	var wg sync.WaitGroup
	for _, c := range s.children {
		c := c
		// Crash monitor: a process that dies without a bye is a crash.
		// The shared fail word is stored FIRST so every sibling's spins
		// (including deque lock spins wedged behind the dead process)
		// release before we even finish classifying the exit.
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := round.got[c.rank]
			select {
			case <-got:
			case <-c.exited:
				// A bye sent just before the exit may still be in the
				// server's decoder; give it a moment.
				select {
				case <-got:
				case <-time.After(time.Second):
				}
			}
			bye := round.bye(c.rank)
			if bye == nil && !reaping.Load() {
				seg.failStore(failCoordinator)
				detail := "exited before reporting"
				if c.waitErr != nil {
					detail = c.waitErr.Error()
				}
				errs.record(&WorkerCrashError{Rank: c.rank, PID: c.cmd.Process.Pid, Phase: "run", Detail: detail})
			} else if bye != nil && bye.Err != "" {
				errs.record(fmt.Errorf("dist: worker rank %d failed: %s", c.rank, bye.Err))
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
	// segment when the run returns, and a discard would unmap it.
	defer func() {
		close(hbStop)
		if hbDone != nil {
			<-hbDone
		}
	}()
	if cfg.HeartbeatTimeout > 0 && len(s.children) > 0 {
		hbDone = make(chan struct{})
		go func() {
			defer close(hbDone)
			tick := cfg.HeartbeatTimeout / 4
			if tick > 50*time.Millisecond {
				tick = 50 * time.Millisecond
			}
			// Baseline every slot at the start so a child hung BEFORE its
			// first stamp is still caught.
			now := uint64(time.Now().UnixNano())
			for _, c := range s.children {
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
				for _, c := range s.children {
					select {
					case <-c.exited:
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
	for _, kr := range cfg.KillRanks {
		if kr > 0 && kr < cfg.Workers {
			victim := s.children[kr-1]
			killTimer := time.AfterFunc(cfg.KillAfter, func() {
				victim.cmd.Process.Kill()
			})
			defer killTimer.Stop()
		}
	}

	t0 := time.Now()
	w0 := newWorker(seg, 0, start, plan, nil)
	w0.rootFid, w0.rootLocals, w0.rootInit = fid, localsLen, init
	if runErr := w0.run(); runErr != nil {
		seg.failStore(1)
		errs.record(runErr)
	}
	elapsed := time.Since(t0)

	// --- bye barrier ---------------------------------------------------
	// The loop exits only with done or fail set, so children are
	// draining toward their byes. Give them a grace period, then kill
	// stragglers; `reaping` keeps those late kills from masquerading as
	// mid-run crashes (the set is discarded after a failed run anyway).
	grace := time.AfterFunc(10*time.Second, func() {
		reaping.Store(true)
		s.kill()
	})
	wg.Wait()
	grace.Stop()

	// Harvest the segment-hosted event rings BEFORE the error gates:
	// every child has reported or died, the segment is still mapped, and
	// a crashed or hung rank's last events are exactly what a failed
	// run's caller wants to see.
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
	for _, c := range s.children {
		// A reaped child can reach here with no bye and no recorded
		// error; surface it as a structured crash rather than reading
		// through a nil report (the old zero-value-Report bug).
		bye := round.bye(c.rank)
		if bye == nil {
			detail := "no final report"
			if c.waitErr != nil {
				detail = c.waitErr.Error()
			}
			return Result{Obs: obsExport}, &WorkerCrashError{Rank: c.rank, PID: c.cmd.Process.Pid, Phase: "report", Detail: detail}
		}
		res.PerWorker[c.rank] = bye.Stats
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
// through the start message), so event stamps from different ranks land on
// one timeline, skewed only by host clock-sync error between calls.
func wallClockSince(epochNano int64) func() uint64 {
	return func() uint64 { return uint64(time.Now().UnixNano() - epochNano) }
}
