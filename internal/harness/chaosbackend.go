package harness

import (
	"errors"
	"fmt"
	"io"
	"time"

	"uniaddr/internal/core"
	"uniaddr/internal/dist"
	"uniaddr/internal/fault"
	"uniaddr/internal/rt"
	"uniaddr/internal/workloads"
)

// Backend-generalised chaos: the sim-only sweep in chaos.go proved the
// resilience protocol under virtual time; this file runs the same shape
// of matrix — (schedule × workload × seed) cells, each with a verdict —
// against ANY backend, including the real ones, with real wall-clock
// deadlines. The acceptance contract per cell is the ISSUE's bounded-
// time failure guarantee:
//
//   - the run completes with the oracle's root result, OR
//   - it returns a STRUCTURED, TYPED error, AND
//   - either way it does so within the cell's deadline — never a hang.
//
// Schedules that inject unsurvivable faults (SIGKILL, a wedged worker)
// set WantErr: there a "successful" run is the failure, because it
// means the injection never happened.

// ChaosSchedule is one fault scenario of the matrix. The zero value of
// every injection field means "don't".
type ChaosSchedule struct {
	Name  string
	Fault fault.Config
	// Kill SIGKILLs these child ranks After into the run (dist only).
	Kill []int
	// Hang wedges this child rank After into the run: alive, silent,
	// heartbeats stopped (dist only).
	Hang  int
	After time.Duration
	// Heartbeat overrides the dist heartbeat timeout so hang detection
	// is fast enough to measure.
	Heartbeat time.Duration
	// WantErr: the cell must END IN a structured error; a clean result
	// means the injection did not happen.
	WantErr bool
	// Long selects the long-running workload (one that cannot finish
	// before After) instead of the tiny spec set.
	Long bool
	// Deadline bounds the cell's wall time. Exceeding it is the one
	// unforgivable outcome: a hang.
	Deadline time.Duration
}

// ChaosBackend adapts one backend to the matrix.
type ChaosBackend struct {
	Name string
	// Supports returns "" when the backend can run the schedule, or the
	// reason it cannot (sim-only knobs on rt, kill injection on sim, …).
	Supports func(ChaosSchedule) string
	// SkipSpec is the usual workload gate: "" when the backend can run
	// the spec, else the reason (gas-staged specs are sim-only; see
	// SkipReason).
	SkipSpec func(workloads.Spec) string
	// Typed reports whether err is one of the backend's structured
	// error types — the difference between graceful degradation and an
	// accidental failure.
	Typed func(err error) bool
	// Check, when non-nil, asserts schedule-specific postconditions on
	// the cell's error ("" = satisfied): the right rank blamed, the
	// hang reported within its bound, crash beating the watchdog.
	Check func(sch ChaosSchedule, err error) string
	// Run executes one cell and returns the root result.
	Run func(spec workloads.Spec, workers int, seed uint64, sch ChaosSchedule) (uint64, error)
}

// ChaosCell is one matrix cell's verdict.
type ChaosCell struct {
	Backend  string        `json:"backend"`
	Schedule string        `json:"schedule"`
	Workload string        `json:"workload"`
	Workers  int           `json:"workers"`
	Seed     uint64        `json:"seed"`
	WallNS   int64         `json:"wall_ns"`
	Result   uint64        `json:"result,omitempty"`
	Err      string        `json:"err,omitempty"`
	Outcome  string        `json:"outcome"` // result | typed-error | skipped | <failure kind>
	Pass     bool          `json:"pass"`
	Deadline time.Duration `json:"-"`
}

// ctlOnly reports a schedule that injects nothing but control-plane
// socket faults. Which messages are dropped, truncated or delayed is
// decided by the seed alone and never by what the workers compute, so
// every workload would replay the same fault sequence (each drop a
// multi-second control timeout): the matrix runs such a schedule on one
// workload per seed.
func (sch ChaosSchedule) ctlOnly() bool {
	f := sch.Fault
	return len(f.KnobsOutside(fault.Fabric|fault.Steal)) > 0 && len(f.KnobsOutside(fault.Fabric|fault.Control)) == 0 &&
		len(sch.Kill) == 0 && sch.Hang == 0
}

// chaosLongSpec is the workload for WantErr schedules: heavy enough
// that the run cannot complete before a ~50ms injection fires.
func chaosLongSpec() workloads.Spec { return workloads.Fib(30, 2000) }

// RunChaosMatrix runs every supported (schedule × workload × seed) cell
// on b and returns all verdicts plus the count of failed cells. The
// infrastructure error return is reserved for harness bugs; injected
// failures land in the cells.
func RunChaosMatrix(b ChaosBackend, workers int, seeds []uint64, schedules []ChaosSchedule, scale string) ([]ChaosCell, int) {
	var cells []ChaosCell
	failed := 0
	for _, sch := range schedules {
		if reason := b.Supports(sch); reason != "" {
			cells = append(cells, ChaosCell{
				Backend: b.Name, Schedule: sch.Name,
				Outcome: "skipped", Err: reason, Pass: true,
			})
			continue
		}
		specs := ChaosWorkloads(scale)
		switch {
		case sch.Long:
			specs = []workloads.Spec{chaosLongSpec()}
		case sch.ctlOnly():
			specs = specs[:1]
		}
		for _, spec := range specs {
			if reason := b.SkipSpec(spec); reason != "" {
				cells = append(cells, ChaosCell{
					Backend: b.Name, Schedule: sch.Name, Workload: spec.Name,
					Outcome: "skipped", Err: reason, Pass: true,
				})
				continue
			}
			for _, seed := range seeds {
				cell := runChaosCell(b, spec, workers, seed, sch)
				if !cell.Pass {
					failed++
				}
				cells = append(cells, cell)
			}
		}
	}
	return cells, failed
}

func runChaosCell(b ChaosBackend, spec workloads.Spec, workers int, seed uint64, sch ChaosSchedule) ChaosCell {
	cell := ChaosCell{
		Backend: b.Name, Schedule: sch.Name, Workload: spec.Name,
		Workers: workers, Seed: seed, Deadline: sch.Deadline,
	}
	deadline := sch.Deadline
	if deadline <= 0 {
		deadline = 60 * time.Second
	}
	type out struct {
		res uint64
		err error
	}
	ch := make(chan out, 1)
	start := time.Now()
	go func() {
		res, err := b.Run(spec, workers, seed, sch)
		ch <- out{res, err}
	}()
	var o out
	select {
	case o = <-ch:
	case <-time.After(deadline):
		// THE failure the whole PR exists to prevent: the backend
		// neither finished nor errored inside the bound.
		cell.WallNS = time.Since(start).Nanoseconds()
		cell.Outcome = "hang"
		cell.Err = fmt.Sprintf("no result and no error within %v", deadline)
		return cell
	}
	cell.WallNS = time.Since(start).Nanoseconds()
	if o.err == nil {
		cell.Result = o.res
		switch {
		case sch.WantErr:
			cell.Outcome = "unexpected-success"
			cell.Err = "injection demanded a structured error; run completed cleanly"
		case o.res != spec.Expected:
			cell.Outcome = "mismatch"
			cell.Err = fmt.Sprintf("result %d, oracle %d", o.res, spec.Expected)
		default:
			cell.Outcome = "result"
			cell.Pass = true
		}
		return cell
	}
	cell.Err = o.err.Error()
	if !b.Typed(o.err) {
		cell.Outcome = "untyped-error"
		return cell
	}
	if b.Check != nil {
		if reason := b.Check(sch, o.err); reason != "" {
			cell.Outcome = "check-failed"
			cell.Err = reason + ": " + cell.Err
			return cell
		}
	}
	// A typed error satisfies the contract only when the schedule
	// injected something that can legitimately defeat the run (WantErr,
	// or a fault schedule whose retry budget is exhaustible). A typed
	// error on a zero-fault cell is still a regression.
	if sch.WantErr || sch.Fault.PlanEnabled() || sch.Fault.CtlEnabled() || sch.Fault.Enabled() {
		cell.Outcome = "typed-error"
		cell.Pass = true
		return cell
	}
	cell.Outcome = "error-without-fault"
	return cell
}

// SimChaosSchedules: the virtual-time fabric sweep reshaped as matrix
// schedules (rate-derived sim knobs; see ChaosFaultConfig).
func SimChaosSchedules() []ChaosSchedule {
	mk := func(name string, rate float64) ChaosSchedule {
		return ChaosSchedule{Name: name, Fault: ChaosFaultConfig(rate), Deadline: 60 * time.Second}
	}
	return []ChaosSchedule{
		mk("none", 0),
		mk("fabric-0.001", 0.001),
		mk("fabric-0.01", 0.01),
		mk("fabric-0.05", 0.05),
	}
}

// RTChaosSchedules: steal-path fault schedules for the in-process real
// backend.
func RTChaosSchedules() []ChaosSchedule {
	d := 30 * time.Second
	return []ChaosSchedule{
		{Name: "none", Deadline: d},
		{Name: "claim-faults", Fault: fault.Config{StealClaimFailProb: 0.05}, Deadline: d},
		{Name: "copy-faults", Fault: fault.Config{StealCopyFailProb: 0.03}, Deadline: d},
		{Name: "claim+copy+delay", Fault: fault.Config{
			StealClaimFailProb: 0.05,
			StealCopyFailProb:  0.03,
			StealDelayProb:     0.02,
			StealDelayMin:      20 * time.Microsecond,
			StealDelayMax:      200 * time.Microsecond,
		}, Deadline: d},
	}
}

// DistChaosSchedules: the rt schedules plus the dist-only scenarios —
// control-plane socket faults, concurrent SIGKILLs, and the hung-worker
// heartbeat cell.
func DistChaosSchedules() []ChaosSchedule {
	s := RTChaosSchedules()
	s = append(s,
		ChaosSchedule{
			Name: "ctl-faults",
			Fault: fault.Config{
				CtlDropProb:  0.2,
				CtlTruncProb: 0.1,
				CtlDelayProb: 0.2,
				CtlDelay:     5 * time.Millisecond,
			},
			Deadline: 60 * time.Second,
		},
		killRank1Schedule(),
		ChaosSchedule{
			Name: "double-kill", Kill: []int{1, 2}, After: 50 * time.Millisecond,
			WantErr: true, Long: true, Deadline: 15 * time.Second,
		},
		ChaosSchedule{
			Name: "hang-rank1", Hang: 1, After: 50 * time.Millisecond,
			Heartbeat: 250 * time.Millisecond,
			WantErr:   true, Long: true, Deadline: 15 * time.Second,
		},
	)
	return s
}

// killRank1Schedule SIGKILLs child rank 1 50 ms into a run that cannot
// finish by then: the cell must end in a WorkerCrashError blaming rank 1
// (distChaosCheck), never in the MaxWall watchdog's error.
func killRank1Schedule() ChaosSchedule {
	return ChaosSchedule{
		Name: "kill-rank1", Kill: []int{1}, After: 50 * time.Millisecond,
		WantErr: true, Long: true, Deadline: 15 * time.Second,
	}
}

// DistCrashProbe runs the kill-rank1 cell on its own and returns its
// verdict: nil iff the SIGKILLed worker surfaced as a prompt,
// structured *dist.WorkerCrashError attributing the right rank — not a
// hang, not a silent wrong answer.
func DistCrashProbe(workers int, seed uint64) error {
	cell := runChaosCell(DistChaosBackend(), chaosLongSpec(), workers, seed, killRank1Schedule())
	if !cell.Pass {
		return fmt.Errorf("dist crash probe: %s: %s", cell.Outcome, cell.Err)
	}
	return nil
}

// SimChaosBackend adapts the virtual-time simulator.
func SimChaosBackend() ChaosBackend {
	return ChaosBackend{
		Name: "sim",
		Supports: func(sch ChaosSchedule) string {
			if len(sch.Kill) > 0 || sch.Hang > 0 {
				return "process kill/hang injection needs real processes; sim-only virtual time"
			}
			if ks := sch.Fault.KnobsOutside(core.FaultClasses); len(ks) > 0 {
				return "knob " + ks[0] + " not modelled by the sim fabric"
			}
			return ""
		},
		SkipSpec: func(workloads.Spec) string { return "" },
		Typed:    func(error) bool { return false }, // sim chaos must not error at all
		Run: func(spec workloads.Spec, workers int, seed uint64, sch ChaosSchedule) (uint64, error) {
			cfg := core.DefaultConfig(workers)
			cfg.Seed = seed
			cfg.Fault = sch.Fault
			m, res, err := spec.Run(cfg)
			if err != nil {
				return 0, err
			}
			if err := m.CheckQuiescence(); err != nil {
				return 0, err
			}
			return res, nil
		},
	}
}

// RTChaosBackend adapts the in-process real backend.
func RTChaosBackend() ChaosBackend {
	return ChaosBackend{
		Name: "rt",
		Supports: func(sch ChaosSchedule) string {
			if len(sch.Kill) > 0 || sch.Hang > 0 {
				return "kill/hang injection targets worker processes; rt workers share one process"
			}
			if ks := sch.Fault.KnobsOutside(rt.FaultClasses); len(ks) > 0 {
				return "knob " + ks[0] + " not supported on rt"
			}
			return ""
		},
		SkipSpec: func(s workloads.Spec) string { return SkipReason("rt", s) },
		Typed: func(err error) bool {
			var to *rt.TimeoutError
			return errors.As(err, &to)
		},
		Run: func(spec workloads.Spec, workers int, seed uint64, sch ChaosSchedule) (uint64, error) {
			cfg := rt.DefaultConfig(workers)
			cfg.Seed = seed
			cfg.Fault = sch.Fault
			if sch.Deadline > 0 {
				cfg.MaxWall = sch.Deadline
			}
			// Run checks the pool's quiescence before it shelves the pool.
			return rt.New(cfg).Run(spec.Fid, spec.Locals, spec.Init)
		},
	}
}

// DistChaosBackend adapts the multi-process backend — the only one
// every schedule kind applies to.
func DistChaosBackend() ChaosBackend {
	return ChaosBackend{
		Name: "dist",
		Supports: func(sch ChaosSchedule) string {
			if ks := sch.Fault.KnobsOutside(dist.FaultClasses); len(ks) > 0 {
				return "knob " + ks[0] + " not supported on dist"
			}
			return ""
		},
		SkipSpec: func(s workloads.Spec) string { return SkipReason("dist", s) },
		Typed:    distTypedError,
		Check:    distChaosCheck,
		Run: func(spec workloads.Spec, workers int, seed uint64, sch ChaosSchedule) (uint64, error) {
			cfg := dist.DefaultConfig(workers)
			cfg.Seed = seed
			cfg.Fault = sch.Fault
			cfg.KillRanks = sch.Kill
			cfg.HangRank = sch.Hang
			if sch.After > 0 {
				cfg.KillAfter = sch.After
				cfg.HangAfter = sch.After
			}
			if sch.Heartbeat > 0 {
				cfg.HeartbeatTimeout = sch.Heartbeat
				cfg.HeartbeatInterval = sch.Heartbeat / 10
			}
			if sch.Deadline > 0 {
				cfg.MaxWall = sch.Deadline
			}
			res, err := dist.Run(cfg, spec.Fid, spec.Locals, spec.Init)
			if err != nil {
				return 0, err
			}
			return res.Root, nil
		},
	}
}

// distTypedError recognises every structured dist error type.
func distTypedError(err error) bool {
	var crash *dist.WorkerCrashError
	var hung *dist.WorkerHungError
	var ctl *dist.ControlTimeoutError
	var wall *dist.MaxWallError
	var fp *dist.FingerprintMismatchError
	return errors.As(err, &crash) || errors.As(err, &hung) ||
		errors.As(err, &ctl) || errors.As(err, &wall) || errors.As(err, &fp)
}

// distChaosCheck pins schedule-specific postconditions:
//
//   - kill cells: a WorkerCrashError blaming one of the killed ranks —
//     and NEVER a MaxWallError, which would mean the watchdog beat the
//     crash monitor (the double-kill regression);
//   - hang cells: a WorkerHungError blaming the wedged rank, whose
//     observed silence shows detection within 1s of it becoming
//     possible (silence ≤ heartbeat timeout + 1s).
func distChaosCheck(sch ChaosSchedule, err error) string {
	if len(sch.Kill) > 0 {
		var wall *dist.MaxWallError
		if errors.As(err, &wall) {
			return "MaxWall watchdog won over the crash monitor"
		}
		var crash *dist.WorkerCrashError
		if !errors.As(err, &crash) {
			return fmt.Sprintf("kill cell yielded %T, want *dist.WorkerCrashError", err)
		}
		for _, r := range sch.Kill {
			if crash.Rank == r {
				return ""
			}
		}
		return fmt.Sprintf("crash blamed rank %d, not one of %v", crash.Rank, sch.Kill)
	}
	if sch.Hang > 0 {
		var hung *dist.WorkerHungError
		if !errors.As(err, &hung) {
			return fmt.Sprintf("hang cell yielded %T, want *dist.WorkerHungError", err)
		}
		if hung.Rank != sch.Hang {
			return fmt.Sprintf("hang blamed rank %d, want %d", hung.Rank, sch.Hang)
		}
		if sch.Heartbeat > 0 && hung.Silence > sch.Heartbeat+time.Second {
			return fmt.Sprintf("hang detected after %v of silence; bound is timeout %v + 1s", hung.Silence, sch.Heartbeat)
		}
	}
	return ""
}

// PrintChaosMatrix renders the matrix verdicts, one line per cell.
func PrintChaosMatrix(w io.Writer, cells []ChaosCell, failed int) {
	fmt.Fprintf(w, "Chaos matrix: every cell must end, within its deadline, in the oracle result or a typed error\n")
	for _, c := range cells {
		status := "ok  "
		if !c.Pass {
			status = "FAIL"
		}
		if c.Outcome == "skipped" {
			fmt.Fprintf(w, "  skip %-7s %-18s %s\n", c.Backend, c.Schedule, c.Err)
			continue
		}
		detail := ""
		if c.Err != "" {
			detail = " — " + c.Err
		}
		fmt.Fprintf(w, "  %s %-7s %-18s %-9s seed=%-3d %7.1fms %s%s\n",
			status, c.Backend, c.Schedule, c.Workload, c.Seed,
			float64(c.WallNS)/1e6, c.Outcome, detail)
	}
	fmt.Fprintf(w, "%d cells, %d failed\n", len(cells), failed)
}
