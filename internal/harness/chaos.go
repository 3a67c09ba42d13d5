package harness

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"

	"uniaddr/internal/core"
	"uniaddr/internal/fault"
	"uniaddr/internal/obs"
	"uniaddr/internal/workloads"
)

// Chaos harness: run the paper's workloads under sweeping fault rates
// and assert the three robustness invariants on every point —
//
//  1. determinism: two runs with identical seeds produce identical
//     traces (checked via a fingerprint over every worker's timeline,
//     the final result and the virtual clock);
//  2. correctness: the root result matches the sequential reference no
//     matter how many steals were retried, rolled back or abandoned;
//  3. quiescence: after recovery the machine passes CheckQuiescence —
//     no lost or duplicated continuations, no leaked records.
//
// A violated invariant returns an error (the harness is a test, not a
// report generator), so `-exp chaos` doubles as a regression gate.

// DefaultChaosRates is the default fault-rate sweep. Zero is included
// deliberately: it pins the fault-free baseline (no injector attached)
// against which the faulted runs' results are compared.
var DefaultChaosRates = []float64{0, 0.001, 0.01, 0.05}

// ChaosFaultConfig builds an injector config where every per-op fault
// source fires at rate, latency spikes add 1–20K cycles, and endpoints
// are browned out for a rate-sized fraction of every 4M-cycle window.
func ChaosFaultConfig(rate float64) fault.Config {
	if rate <= 0 {
		return fault.Config{}
	}
	return fault.Config{
		ReadFailProb:     rate,
		WriteFailProb:    rate,
		FAAFailProb:      rate,
		ServerDropProb:   rate,
		SpikeProb:        rate,
		SpikeMinCycles:   1_000,
		SpikeMaxCycles:   20_000,
		BrownoutPeriod:   4_000_000,
		BrownoutDuration: uint64(rate * 4_000_000),
	}
}

// ChaosWorkloads returns the fib / NQueens / UTS specs swept by the
// chaos harness at a problem scale.
func ChaosWorkloads(scale string) []workloads.Spec {
	switch scale {
	case "tiny":
		return []workloads.Spec{
			workloads.Fib(14, 50),
			workloads.NQueens(7, 100),
			workloads.UTS(1, 6, workloads.DefaultUTSB0, 400),
		}
	case "large":
		return []workloads.Spec{
			workloads.Fib(30, 0),
			workloads.NQueens(12, 100),
			workloads.UTS(1, 14, workloads.DefaultUTSB0, 400),
		}
	default: // small
		return []workloads.Spec{
			workloads.Fib(20, 100),
			workloads.NQueens(9, 100),
			workloads.UTS(1, 10, workloads.DefaultUTSB0, 400),
		}
	}
}

// ChaosPoint is one (workload, fault rate) cell of the sweep.
type ChaosPoint struct {
	Workload      string
	Rate          float64
	ElapsedCycles uint64
	Fingerprint   uint64
	Deterministic bool // second same-seed run fingerprinted identically

	StealsOK         uint64
	StealFaults      uint64
	StealRetries     uint64
	StealRollbacks   uint64
	StealAbortsFault uint64
	VictimBlacklists uint64
	LifelineFaults   uint64

	InjectedFaults uint64 // fabric ops failed by the injector
	NetRetries     uint64 // reliable-op transparent retries
	FAATimeouts    uint64 // software FAAs abandoned by the initiator
}

// RunFingerprint hashes everything observable about a completed run:
// the root result, the virtual clock, the task/steal accounting and —
// when observability was on — every worker's full execution timeline. Two
// same-seed runs must collide exactly; any divergence in event order
// shows up as a different segment boundary somewhere.
func RunFingerprint(m *core.Machine, result uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(result)
	put(m.ElapsedCycles())
	st := m.TotalStats()
	put(st.TasksExecuted)
	put(st.Spawns)
	put(st.StealsOK)
	put(st.StealFaults)
	put(st.StealRetries)
	put(st.StealRollbacks)
	put(st.StealAbortsFault)
	put(st.BackoffCycles)
	ns := m.TotalNetStats()
	put(ns.Reads)
	put(ns.Writes)
	put(ns.FAAs)
	put(ns.InjectedFaults)
	put(ns.Retries)
	put(ns.FAATimeouts)
	for _, lane := range m.Obs().Lanes() {
		for _, s := range lane {
			put(s.Start)
			put(s.End)
			put(uint64(s.State))
		}
	}
	return h.Sum64()
}

func chaosRun(spec workloads.Spec, workers int, seed uint64, rate float64) (*core.Machine, uint64, error) {
	cfg := core.DefaultConfig(workers)
	cfg.Seed = seed
	cfg.Obs = true
	cfg.Fault = ChaosFaultConfig(rate)
	return spec.Run(cfg)
}

// ChaosObserve requests observability artifacts from a chaos sweep:
// the Chrome trace-event JSON (Perfetto-loadable) and/or compact text
// summary of one representative faulted run. The sweep prefers a run
// that exhibits the full failure story — at least one injected steal
// fault, a retry, and an eventual successful steal — falling back to
// any faulted run, so the exported timeline shows the fault, its
// retries and the recovery side by side on the victim's and thief's
// tracks.
type ChaosObserve struct {
	Trace   io.Writer // Chrome trace JSON destination (nil = skip)
	Summary io.Writer // text summary destination (nil = skip)
}

// ChaosSweepObserved runs every workload at every fault rate, each point
// twice with the same seed, asserting the three invariants. It errors
// out on the first violation. obsv requests artifact export (see
// ChaosObserve; nil exports nothing).
func ChaosSweepObserved(workers int, specs []workloads.Spec, rates []float64, seed uint64, obsv *ChaosObserve) ([]ChaosPoint, error) {
	if len(rates) == 0 {
		rates = DefaultChaosRates
	}
	var pts []ChaosPoint
	// Representative faulted run for artifact export: highest score
	// wins, earliest sweep order breaks ties (deterministic).
	var obsM *core.Machine
	var obsTag string
	obsScore := 0
	for _, spec := range specs {
		for _, rate := range rates {
			tag := fmt.Sprintf("%s at rate %g on %d workers", spec.Name, rate, workers)
			m, res, err := chaosRun(spec, workers, seed, rate)
			if err != nil {
				return nil, fmt.Errorf("chaos: %s: %w", tag, err)
			}
			if res != spec.Expected {
				return nil, fmt.Errorf("chaos: %s: result %d != sequential reference %d", tag, res, spec.Expected)
			}
			if err := m.CheckQuiescence(); err != nil {
				return nil, fmt.Errorf("chaos: %s: %w", tag, err)
			}
			fp := RunFingerprint(m, res)
			m2, res2, err := chaosRun(spec, workers, seed, rate)
			if err != nil {
				return nil, fmt.Errorf("chaos: %s (replay): %w", tag, err)
			}
			fp2 := RunFingerprint(m2, res2)
			if fp != fp2 {
				return nil, fmt.Errorf("chaos: %s: same-seed replay diverged (fingerprint %#x != %#x)", tag, fp, fp2)
			}
			st := m.TotalStats()
			ns := m.TotalNetStats()
			pts = append(pts, ChaosPoint{
				Workload:      spec.Name,
				Rate:          rate,
				ElapsedCycles: m.ElapsedCycles(),
				Fingerprint:   fp,
				Deterministic: true,

				StealsOK:         st.StealsOK,
				StealFaults:      st.StealFaults,
				StealRetries:     st.StealRetries,
				StealRollbacks:   st.StealRollbacks,
				StealAbortsFault: st.StealAbortsFault,
				VictimBlacklists: st.VictimBlacklists,
				LifelineFaults:   st.LifelineFaults,

				InjectedFaults: ns.InjectedFaults,
				NetRetries:     ns.Retries,
				FAATimeouts:    ns.FAATimeouts,
			})
			if obsv != nil && rate > 0 && ns.InjectedFaults > 0 {
				score := 1
				if st.StealFaults > 0 {
					score = 2
				}
				if st.StealFaults > 0 && st.StealRetries > 0 && st.StealsOK > 0 {
					score = 3
				}
				if score > obsScore {
					obsScore = score
					obsM = m
					obsTag = tag
				}
			}
		}
	}
	if obsv != nil && obsM != nil {
		opts := &obs.ChromeOpts{
			FuncName: func(id uint32) string { return core.FuncName(core.FuncID(id)) },
			Label:    "chaos: " + obsTag,
		}
		ex := obsM.Obs().Export()
		if obsv.Trace != nil {
			if err := obs.WriteChromeTrace(obsv.Trace, ex, opts); err != nil {
				return pts, fmt.Errorf("chaos: trace export: %w", err)
			}
		}
		if obsv.Summary != nil {
			fmt.Fprintf(obsv.Summary, "chaos artifact: %s\n", obsTag)
			obs.WriteSummary(obsv.Summary, ex, opts.FuncName)
		}
	}
	return pts, nil
}

// PrintChaos renders the sweep, one block per workload.
func PrintChaos(w io.Writer, workers int, pts []ChaosPoint) {
	fmt.Fprintf(w, "Chaos sweep (%d workers): deterministic fault injection on the RDMA fabric\n", workers)
	fmt.Fprintf(w, "  every point: result == sequential reference, quiescence clean,\n")
	fmt.Fprintf(w, "  and a same-seed replay reproduced the identical trace fingerprint\n")
	last := ""
	for _, p := range pts {
		if p.Workload != last {
			fmt.Fprintf(w, "  %s\n", p.Workload)
			fmt.Fprintf(w, "    %7s %12s %10s %8s %8s %9s %8s %7s %10s %16s\n",
				"rate", "cycles", "injected", "retries", "faults", "rollback", "aborts", "bans", "faa-tmo", "fingerprint")
			last = p.Workload
		}
		fmt.Fprintf(w, "    %7g %12d %10d %8d %8d %9d %8d %7d %10d %#16x\n",
			p.Rate, p.ElapsedCycles, p.InjectedFaults, p.NetRetries,
			p.StealFaults, p.StealRollbacks, p.StealAbortsFault,
			p.VictimBlacklists, p.FAATimeouts, p.Fingerprint)
	}
	fmt.Fprintf(w, "  (injected = fabric ops failed; retries = transparent reliable-op retries;\n")
	fmt.Fprintf(w, "   faults/rollback/aborts = steal-protocol events; bans = victim blacklistings)\n")
}
