package obs

// One export path: a Recorder in either clock domain reduces to an
// Export — a clock-domain label, per-worker event streams with
// truncation accounting, the simulator's state streams and task
// lineages, and named histograms — and every writer (Chrome trace, text
// summary, Gantt) consumes only that.

// Clock-domain labels carried by Export and stamped into the Chrome
// trace's top-level "clockDomain" field.
const (
	// ClockVirtual: timestamps are simulation-engine virtual cycles.
	ClockVirtual = "virtual-cycles"
	// ClockWallNS: timestamps are wall-clock nanoseconds since the
	// run's epoch (monotonic within a process; dist aligns processes
	// on a shared epoch).
	ClockWallNS = "wall-ns"
)

// ExportLog is one worker's exported event stream.
type ExportLog struct {
	Rank    int32
	Events  []Event
	States  []StateChange // sim only; empty for wall logs
	Total   uint64        // events ever recorded (kept + dropped)
	Dropped uint64        // events the bounded ring discarded
}

// NamedHist pairs a histogram with its display name.
type NamedHist struct {
	Name string
	Hist *Hist
}

// Export is a clock-domain-neutral snapshot ready for the writers.
type Export struct {
	Clock string      // ClockVirtual or ClockWallNS
	End   uint64      // virtual time the run ended; 0 for wall exports
	Logs  []ExportLog // rank order
	Tasks []*Lineage  // sim lineage; empty for wall recorders
	Hists []NamedHist // only non-empty histograms, in HistID order
}

// Export snapshots the recorder, merging the per-worker histograms
// into run-wide aggregates (nil on nil). Call at quiescence — the rings
// are decoded here.
func (r *Recorder) Export() *Export {
	if r == nil {
		return nil
	}
	ex := &Export{Clock: r.clock, End: r.end(), Tasks: r.tasks}
	hists := new([numHists]Hist)
	for i, l := range r.logs {
		el := l.export()
		el.States = r.states[i]
		ex.Logs = append(ex.Logs, el)
		for h := range hists {
			hists[h].Merge(&l.hists[h])
		}
	}
	for h := range hists {
		if hists[h].Count > 0 {
			ex.Hists = append(ex.Hists, NamedHist{Name: histNames[h], Hist: &hists[h]})
		}
	}
	return ex
}

// end is the run's end time for an export: the virtual clock once the
// engine has stopped, 0 in the wall domain.
func (r *Recorder) end() uint64 {
	if r.clock == ClockVirtual {
		return r.now()
	}
	return 0
}

// Events returns the total number of events ever recorded across all
// workers (kept + dropped). Nil-safe.
func (ex *Export) Events() uint64 {
	if ex == nil {
		return 0
	}
	var n uint64
	for _, l := range ex.Logs {
		n += l.Total
	}
	return n
}

// Dropped returns the total number of ring-discarded events. Nil-safe.
func (ex *Export) Dropped() uint64 {
	if ex == nil {
		return 0
	}
	var n uint64
	for _, l := range ex.Logs {
		n += l.Dropped
	}
	return n
}

// clockUnit returns the human unit for the export's clock domain.
func (ex *Export) clockUnit() string {
	if ex.Clock == ClockWallNS {
		return "wall ns"
	}
	return "virtual cycles"
}
