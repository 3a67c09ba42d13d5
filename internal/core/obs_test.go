package core_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"uniaddr/internal/core"
	"uniaddr/internal/obs"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files under testdata/")

func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: output differs from golden file (%d vs %d bytes); "+
			"rerun with -update-golden after verifying the change is intended",
			name, len(got), len(want))
	}
}

func TestObsDisabledByDefault(t *testing.T) {
	cfg := core.DefaultConfig(2)
	m, _ := runFib(t, cfg, 10)
	if m.Obs() != nil {
		t.Fatal("recorder exists without Config.Obs")
	}
}

// TestObsEndToEnd checks the recorder against the machine's own
// counters: every successful steal shows up as a latency sample and a
// lineage hop, every executed task has a lineage, and the event rings
// hold the matching typed events.
func TestObsEndToEnd(t *testing.T) {
	cfg := core.DefaultConfig(4)
	cfg.Obs = true
	cfg.Seed = 5
	m, _ := runFib(t, cfg, 14)
	ex := m.Obs().Export()
	if ex == nil {
		t.Fatal("Config.Obs did not attach a recorder")
	}
	st := m.TotalStats()
	if st.StealsOK == 0 {
		t.Fatal("test needs steals; got none")
	}
	hists := map[string]*obs.Hist{}
	for _, nh := range ex.Hists {
		hists[nh.Name] = nh.Hist
	}
	for _, name := range []string{"steal latency", "stack transfer"} {
		h, ok := hists[name]
		if !ok {
			t.Errorf("export has no %q histogram", name)
		} else if h.Count != st.StealsOK {
			t.Errorf("%s count = %d, want StealsOK = %d", name, h.Count, st.StealsOK)
		}
	}

	var stealOK, spawns, taskDone uint64
	var hops int
	for _, l := range ex.Logs {
		if l.Dropped != 0 {
			t.Errorf("worker %d ring dropped %d events at default capacity", l.Rank, l.Dropped)
		}
		for _, e := range l.Events {
			switch e.Kind {
			case obs.KStealOK:
				stealOK++
				if e.Task == 0 {
					t.Error("stolen thread without a task ID")
				}
				if e.Peer < 0 || int(e.Peer) >= cfg.Workers {
					t.Errorf("steal from bad victim %d", e.Peer)
				}
			case obs.KSpawn:
				spawns++
			case obs.KTaskDone:
				taskDone++
			}
		}
	}
	if stealOK != st.StealsOK {
		t.Errorf("ring holds %d steal-ok events, stats say %d", stealOK, st.StealsOK)
	}
	// Spawns: one KSpawn per task creation (root included).
	if spawns != st.Spawns+1 {
		t.Errorf("ring holds %d spawn events, stats say %d spawns + root", spawns, st.Spawns)
	}
	if taskDone != st.TasksExecuted {
		t.Errorf("ring holds %d task-done events, stats say %d executed", taskDone, st.TasksExecuted)
	}
	for _, ln := range ex.Tasks {
		hops += len(ln.Hops)
		if ln.Done.Worker < 0 {
			t.Errorf("task %d never finished", ln.ID)
		}
	}
	// Work-first fib migrates threads only via steals (no lifelines in
	// this config), so hops == successful steals.
	if uint64(hops) != st.StealsOK {
		t.Errorf("lineages record %d hops, want %d steals", hops, st.StealsOK)
	}
	if uint64(len(ex.Tasks)) != st.TasksExecuted {
		t.Errorf("%d lineages, %d tasks executed", len(ex.Tasks), st.TasksExecuted)
	}
}

// TestGanttGoldenUnchanged pins the Gantt timeline of a fixed run: the
// chart is a view of the export's state streams, and must stay
// byte-identical to the one the direct-mark era rendered.
func TestGanttGoldenUnchanged(t *testing.T) {
	cfg := core.DefaultConfig(4)
	cfg.Obs = true
	cfg.Seed = 7
	m, _ := runFib(t, cfg, 14)
	var buf bytes.Buffer
	obs.WriteGantt(&buf, m.Obs().Export(), 80)
	compareGolden(t, "gantt_fib14_w4_seed7.golden", buf.Bytes())
}

// TestChromeGoldenTinyRun pins the Chrome trace of a tiny 2-worker run
// byte-for-byte and validates its structure.
func TestChromeGoldenTinyRun(t *testing.T) {
	cfg := core.DefaultConfig(2)
	cfg.Obs = true
	cfg.Seed = 2
	m, _ := runFib(t, cfg, 10)
	var buf bytes.Buffer
	opts := &obs.ChromeOpts{
		FuncName: func(id uint32) string { return core.FuncName(core.FuncID(id)) },
		Label:    "fib(10) x2",
	}
	if err := obs.WriteChromeTrace(&buf, m.Obs().Export(), opts); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "chrome_fib10_w2_seed2.golden.json", buf.Bytes())

	// Validity: parses, every complete event has a duration, flows pair.
	var doc struct {
		TraceEvents []struct {
			Ph  string  `json:"ph"`
			Dur *uint64 `json:"dur"`
			ID  uint64  `json:"id"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	flows := map[uint64]int{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			if e.Dur == nil {
				t.Fatal("complete event without dur")
			}
		case "s":
			flows[e.ID]++
		case "f":
			flows[e.ID] += 100
		}
	}
	for id, v := range flows {
		if v != 101 {
			t.Errorf("flow %d not an s/f pair (code %d)", id, v)
		}
	}
}

// quiesceProbe runs StatsAtQuiescence from inside the simulation and
// reports (via frame slot 0 → return value) whether it panicked.
var quiesceProbeFID core.FuncID

func init() {
	quiesceProbeFID = core.Register("quiesce-probe", func(e *core.Env) core.Status {
		panicked := uint64(0)
		func() {
			defer func() {
				if recover() != nil {
					panicked = 1
				}
			}()
			e.Worker().StatsAtQuiescence()
		}()
		e.ReturnU64(panicked)
		return core.Done
	})
}

// TestStatsAtQuiescenceGuards pins the quiescence contract from both
// sides: mid-run access panics, post-run access succeeds and matches
// the unchecked snapshot.
func TestStatsAtQuiescenceGuards(t *testing.T) {
	cfg := core.DefaultConfig(2)
	m, err := core.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Run(quiesceProbeFID, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatal("StatsAtQuiescence did not panic while the simulation was running")
	}
	for _, w := range m.Workers() {
		if w.StatsAtQuiescence() != w.Stats() {
			t.Fatal("post-run StatsAtQuiescence differs from Stats")
		}
	}
}
