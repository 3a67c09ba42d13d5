package harness

import (
	"fmt"
	"io"

	"uniaddr/internal/core"
	"uniaddr/internal/obs"
	"uniaddr/internal/stats"
)

// ReportRun renders a full post-mortem of one machine run: aggregate
// counters, steal outcome mix, fabric traffic, memory accounting and a
// per-worker table, plus the utilization line when the run was
// observed (ex is m.Obs().Export(), nil when it was not).
func ReportRun(w io.Writer, m *core.Machine, ex *obs.Export, items uint64) {
	st := m.TotalStats()
	cfg := m.Config()
	sec := m.ElapsedSeconds()
	fmt.Fprintf(w, "run: %d workers (%d/node, scheme %s, victim %s, seed %d)\n",
		cfg.Workers, cfg.WorkersPerNode, cfg.Scheme, cfg.Victim, cfg.Seed)
	fmt.Fprintf(w, "simulated time: %.6f s (%d cycles at %.3f GHz)\n",
		sec, m.ElapsedCycles(), cfg.Costs.ClockHz/1e9)
	if items > 0 {
		fmt.Fprintf(w, "throughput: %s items/s\n", stats.HumanCount(float64(items)/sec))
	}
	fmt.Fprintf(w, "tasks: %d executed, %d spawned\n", st.TasksExecuted, st.Spawns)
	fmt.Fprintf(w, "joins: %d fast, %d missed (suspensions %d, wait-queue resumes %d)\n",
		st.JoinsFast, st.JoinsMiss, st.Suspends, st.ResumesWait)
	fmt.Fprintf(w, "steals: %d ok / %d attempts (aborts: %d empty, %d lock, %d slot); %s migrated\n",
		st.StealsOK, st.StealAttempts, st.StealAbortEmpty, st.StealAbortLock, st.StealAbortSlot,
		stats.HumanBytes(st.BytesStolen))
	if st.StealsOK > 0 {
		n := float64(st.StealsOK)
		fmt.Fprintf(w, "steal breakdown (avg cycles): empty %.0f, lock %.0f, steal %.0f, transfer %.0f, unlock %.0f\n",
			float64(st.Phases.EmptyCheck)/n, float64(st.Phases.Lock)/n,
			float64(st.Phases.Steal)/n, float64(st.Phases.StackTransfer)/n,
			float64(st.Phases.Unlock)/n)
	}
	if cfg.Scheme == core.SchemeUni {
		fmt.Fprintf(w, "peak uni-address region usage: %d B of %s reserved\n",
			m.MaxStackUsage(), stats.HumanBytes(cfg.UniSize))
	} else {
		fmt.Fprintf(w, "iso-address page faults: %d (at %d cycles each)\n",
			st.PageFaults, cfg.Costs.PageFaultCycles)
	}
	fmt.Fprintf(w, "memory: max %s VA reserved per process, %s committed total\n",
		stats.HumanBytes(m.MaxReservedBytes()), stats.HumanBytes(m.TotalCommittedBytes()))
	if ex != nil {
		obs.WriteUtilization(w, ex)
	}
}

// ReportWorkers renders the per-worker table (tasks, steals, traffic).
func ReportWorkers(w io.Writer, m *core.Machine) {
	fmt.Fprintf(w, "%6s %10s %8s %8s %9s %9s %10s %11s\n",
		"worker", "tasks", "steals", "stolen←", "suspends", "idle%", "rdma-ops", "rdma-bytes")
	elapsed := float64(m.ElapsedCycles())
	for _, wk := range m.Workers() {
		s := wk.Stats()
		net := wk.NetStats()
		idlePct := 0.0
		if elapsed > 0 {
			idlePct = 100 * float64(s.IdleCycles) / elapsed
		}
		fmt.Fprintf(w, "%6d %10d %8d %8d %9d %8.1f%% %10d %11s\n",
			wk.Rank(), s.TasksExecuted, s.StealsOK, s.ParentStolen, s.Suspends, idlePct,
			net.Reads+net.Writes+net.FAAs, stats.HumanBytes(net.BytesRead+net.BytesWritten))
	}
}
