package harness

import (
	"fmt"

	"uniaddr/internal/core"
	"uniaddr/internal/workloads"
)

// Differential testing: the deterministic virtual-time simulator is the
// semantic oracle for the real backends — rt (threads in one process)
// and dist (one process per worker over shared memory). All backends
// execute the exact same registered task functions, so for every
// workload, worker count and seed the root results must be identical —
// any divergence means the backend broke the task semantics (lost a
// steal, resumed a stale frame, torn a record) in a way its own tests
// didn't catch.

// DiffWorkload pairs a stable row name with a workload Spec.
type DiffWorkload struct {
	Name string
	Spec workloads.Spec
}

// DiffWorkloads returns the differential catalog: every workload family
// in internal/workloads at a scale small enough to run the full
// (workload × workers × seed) matrix in a unit test. Gas-dependent
// workloads are included on purpose — the harness must *report* that it
// skips them on rt, not silently omit them.
func DiffWorkloads() []DiffWorkload {
	return []DiffWorkload{
		{"fib", workloads.Fib(14, 10)},
		{"btc", workloads.BTC(8, 2, 10)},
		{"btc-padded", workloads.BTCPadded(7, 1, 10, 2048)},
		{"uts", workloads.UTS(19, 5, workloads.DefaultUTSB0, 10)},
		{"uts-binomial", workloads.UTSBinomial(42, 4, 2, 0.35, 10)},
		{"nqueens", workloads.NQueens(6, 10)},
		{"pingpong", workloads.PingPong(16, 50, 0)},
		{"mergesort", workloads.MergeSort(1<<10, 1<<7, 4)},
		{"globalsum", workloads.GlobalSum(1<<10, 1<<7, 4)},
	}
}

// RTSkipReason explains why a Spec cannot run on the rt backend, or ""
// if it can. Centralised so the differential and chaos matrices report
// identical reasons.
func RTSkipReason(s workloads.Spec) string {
	if s.Setup != nil {
		return "requires machine Setup (global-heap staging); sim-only until rt grows a shared heap"
	}
	return ""
}

// DistSkipReason is RTSkipReason for the dist backend: the same
// constraint, gas-staged workloads need a machine-global heap neither
// real backend has yet.
func DistSkipReason(s workloads.Spec) string {
	if s.Setup != nil {
		return "requires machine Setup (global-heap staging); sim-only until dist grows a shared heap"
	}
	return ""
}

// DiffRow is one (workload, workers, seed) comparison. GotResult is the
// backend-under-test's root result (the report's Backend field says
// which backend that was).
type DiffRow struct {
	Workload   string `json:"workload"`
	Workers    int    `json:"workers"`
	Seed       uint64 `json:"seed"`
	Skipped    bool   `json:"skipped,omitempty"`
	SkipReason string `json:"skip_reason,omitempty"`
	SimResult  uint64 `json:"sim_result,omitempty"`
	GotResult  uint64 `json:"got_result,omitempty"`
	Expected   uint64 `json:"expected,omitempty"`
	Match      bool   `json:"match"`
}

// DiffReport aggregates a differential sweep against one backend.
type DiffReport struct {
	Backend    string    `json:"backend"`
	Rows       []DiffRow `json:"rows"`
	Compared   int       `json:"compared"`
	Mismatches int       `json:"mismatches"`
	Skipped    int       `json:"skipped"`
}

// DiffBackend abstracts the backend under differential test. The sim is
// always the oracle side; this is the other side. Skip explains why a
// workload cannot run on this backend ("" = it can); Run executes the
// workload and returns the root result, erroring only on infrastructure
// failure (a wrong ANSWER is the harness's job to detect, not Run's).
type DiffBackend struct {
	Name string
	Skip func(workloads.Spec) string
	Run  func(spec workloads.Spec, workers int, seed uint64) (uint64, error)
}

// diffBackend makes a chaos backend a differential target: its run
// under the empty schedule.
func diffBackend(b ChaosBackend) DiffBackend {
	return DiffBackend{
		Name: b.Name,
		Skip: b.SkipSpec,
		Run: func(spec workloads.Spec, workers int, seed uint64) (uint64, error) {
			return b.Run(spec, workers, seed, ChaosSchedule{})
		},
	}
}

// RTDiffBackend is the in-process real-parallelism backend as a
// differential target.
func RTDiffBackend() DiffBackend { return diffBackend(RTChaosBackend()) }

// DistDiffBackend is the multi-process backend as a differential
// target: workers = OS processes. Any binary that runs it re-execs
// itself for the worker processes, so its main / TestMain must call
// dist.MaybeChild() before anything else.
func DistDiffBackend() DiffBackend { return diffBackend(DistChaosBackend()) }

// RunDifferentialBackend runs every workload on the sim oracle and on b
// for every (workers, seed) combination and compares root results.
// Workloads b cannot execute produce one skipped row each (with the
// reason) instead of disappearing. The returned error is non-nil only
// for infrastructure failures; result mismatches are reported in the
// rows so the caller can print all of them, not just the first.
func RunDifferentialBackend(b DiffBackend, wls []DiffWorkload, workerCounts []int, seeds []uint64) (DiffReport, error) {
	rep := DiffReport{Backend: b.Name}
	for _, wl := range wls {
		if reason := b.Skip(wl.Spec); reason != "" {
			rep.Rows = append(rep.Rows, DiffRow{Workload: wl.Name, Skipped: true, SkipReason: reason})
			rep.Skipped++
			continue
		}
		for _, workers := range workerCounts {
			for _, seed := range seeds {
				row := DiffRow{Workload: wl.Name, Workers: workers, Seed: seed, Expected: wl.Spec.Expected}

				scfg := core.DefaultConfig(workers)
				scfg.Seed = seed
				_, simRes, err := wl.Spec.Run(scfg)
				if err != nil {
					return rep, fmt.Errorf("sim %s workers=%d seed=%d: %w", wl.Name, workers, seed, err)
				}
				row.SimResult = simRes

				got, err := b.Run(wl.Spec, workers, seed)
				if err != nil {
					return rep, fmt.Errorf("%s %s workers=%d seed=%d: %w", b.Name, wl.Name, workers, seed, err)
				}
				row.GotResult = got

				row.Match = simRes == got
				if !row.Match {
					rep.Mismatches++
				}
				rep.Compared++
				rep.Rows = append(rep.Rows, row)
			}
		}
	}
	return rep, nil
}
