package harness

import (
	"encoding/json"
	"io"

	"uniaddr/internal/core"
	"uniaddr/internal/obs"
)

// RunReport is the machine-readable post-mortem of one simulated run
// (the -json output of cmd/uniaddr-sim).
type RunReport struct {
	Workers        int     `json:"workers"`
	WorkersPerNode int     `json:"workers_per_node"`
	Scheme         string  `json:"scheme"`
	Victim         string  `json:"victim_policy"`
	HelpFirst      bool    `json:"help_first"`
	Seed           uint64  `json:"seed"`
	ElapsedCycles  uint64  `json:"elapsed_cycles"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	Items          uint64  `json:"items"`
	Throughput     float64 `json:"items_per_second"`

	Tasks        uint64 `json:"tasks_executed"`
	Spawns       uint64 `json:"spawns"`
	JoinsFast    uint64 `json:"joins_fast"`
	JoinsMiss    uint64 `json:"joins_miss"`
	Suspends     uint64 `json:"suspends"`
	ResumesWait  uint64 `json:"resumes_wait"`
	ParentStolen uint64 `json:"parents_stolen"`

	StealAttempts   uint64  `json:"steal_attempts"`
	StealsOK        uint64  `json:"steals_ok"`
	StealAbortEmpty uint64  `json:"steal_abort_empty"`
	StealAbortLock  uint64  `json:"steal_abort_lock"`
	StealAbortSlot  uint64  `json:"steal_abort_slot"`
	BytesStolen     uint64  `json:"bytes_stolen"`
	AvgStealCycles  float64 `json:"avg_steal_cycles"`

	// Steal-latency tail percentiles in virtual cycles (begin → stolen
	// thread runnable), measured by the observability recorder. Present
	// only when Config.Obs was set and steals happened,
	// so reports from runs without observability are byte-identical to
	// pre-observability ones.
	StealLatencyP50 uint64 `json:"steal_latency_p50,omitempty"`
	StealLatencyP95 uint64 `json:"steal_latency_p95,omitempty"`
	StealLatencyP99 uint64 `json:"steal_latency_p99,omitempty"`

	PageFaults     uint64 `json:"page_faults"`
	MaxStackBytes  uint64 `json:"max_stack_bytes"`
	MaxReservedVA  uint64 `json:"max_reserved_bytes"`
	CommittedBytes uint64 `json:"committed_bytes"`

	// Failure counters, all zero unless fault injection was enabled.
	InjectedFaults   uint64 `json:"injected_faults,omitempty"`
	SpikeCycles      uint64 `json:"spike_cycles,omitempty"`
	NetRetries       uint64 `json:"net_retries,omitempty"`
	FAATimeouts      uint64 `json:"faa_timeouts,omitempty"`
	StealFaults      uint64 `json:"steal_faults,omitempty"`
	StealRetries     uint64 `json:"steal_retries,omitempty"`
	StealAbortsFault uint64 `json:"steal_aborts_fault,omitempty"`
	StealRollbacks   uint64 `json:"steal_rollbacks,omitempty"`
	BackoffCycles    uint64 `json:"backoff_cycles,omitempty"`
	VictimBlacklists uint64 `json:"victim_blacklists,omitempty"`
	LifelineFaults   uint64 `json:"lifeline_faults,omitempty"`

	UtilizationWork  float64 `json:"utilization_work,omitempty"`
	UtilizationSteal float64 `json:"utilization_steal,omitempty"`
	UtilizationIdle  float64 `json:"utilization_idle,omitempty"`
}

// BuildRunReport assembles the report from a completed machine run and
// its export (m.Obs().Export(); nil when the run was not observed).
func BuildRunReport(m *core.Machine, ex *obs.Export, items uint64) RunReport {
	st := m.TotalStats()
	cfg := m.Config()
	r := RunReport{
		Workers:        cfg.Workers,
		WorkersPerNode: cfg.WorkersPerNode,
		Scheme:         cfg.Scheme.String(),
		Victim:         cfg.Victim.String(),
		HelpFirst:      cfg.HelpFirst,
		Seed:           cfg.Seed,
		ElapsedCycles:  m.ElapsedCycles(),
		ElapsedSeconds: m.ElapsedSeconds(),
		Items:          items,

		Tasks:        st.TasksExecuted,
		Spawns:       st.Spawns,
		JoinsFast:    st.JoinsFast,
		JoinsMiss:    st.JoinsMiss,
		Suspends:     st.Suspends,
		ResumesWait:  st.ResumesWait,
		ParentStolen: st.ParentStolen,

		StealAttempts:   st.StealAttempts,
		StealsOK:        st.StealsOK,
		StealAbortEmpty: st.StealAbortEmpty,
		StealAbortLock:  st.StealAbortLock,
		StealAbortSlot:  st.StealAbortSlot,
		BytesStolen:     st.BytesStolen,

		PageFaults:     st.PageFaults,
		MaxStackBytes:  m.MaxStackUsage(),
		MaxReservedVA:  m.MaxReservedBytes(),
		CommittedBytes: m.TotalCommittedBytes(),

		StealFaults:      st.StealFaults,
		StealRetries:     st.StealRetries,
		StealAbortsFault: st.StealAbortsFault,
		StealRollbacks:   st.StealRollbacks,
		BackoffCycles:    st.BackoffCycles,
		VictimBlacklists: st.VictimBlacklists,
		LifelineFaults:   st.LifelineFaults,
	}
	ns := m.TotalNetStats()
	r.InjectedFaults = ns.InjectedFaults
	r.SpikeCycles = ns.SpikeCycles
	r.NetRetries = ns.Retries
	r.FAATimeouts = ns.FAATimeouts
	if r.ElapsedSeconds > 0 {
		r.Throughput = float64(items) / r.ElapsedSeconds
	}
	if st.StealsOK > 0 {
		r.AvgStealCycles = float64(st.Phases.Total()) / float64(st.StealsOK)
	}
	if ex != nil {
		for _, nh := range ex.Hists {
			if nh.Name == "steal latency" {
				r.StealLatencyP50 = nh.Hist.Quantile(0.50)
				r.StealLatencyP95 = nh.Hist.Quantile(0.95)
				r.StealLatencyP99 = nh.Hist.Quantile(0.99)
			}
		}
		u := ex.Utilization()
		r.UtilizationWork = u[obs.Work]
		r.UtilizationSteal = u[obs.Steal]
		r.UtilizationIdle = u[obs.Idle]
	}
	return r
}

// WriteJSONReport writes the report, indented, to w.
func WriteJSONReport(w io.Writer, r RunReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
