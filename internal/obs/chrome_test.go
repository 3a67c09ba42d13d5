package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// traceDoc mirrors the exporter's output shape for validation.
type traceDoc struct {
	TraceEvents []struct {
		Name string          `json:"name"`
		Cat  string          `json:"cat"`
		Ph   string          `json:"ph"`
		Ts   uint64          `json:"ts"`
		Dur  *uint64         `json:"dur"`
		Pid  int             `json:"pid"`
		Tid  int32           `json:"tid"`
		ID   uint64          `json:"id"`
		Args json.RawMessage `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]uint64 `json:"otherData"`
}

func buildSyntheticRecorder() *Recorder {
	clock := uint64(0)
	r := NewRecorder(2, 256, func() uint64 { return clock })
	w0, w1 := r.Worker(0), r.Worker(1)

	clock = 5
	root := r.NewTask(0, 0, 1, 100)
	w0.Instant(KSpawn, 0, root, -1)
	clock = 10
	child := r.NewTask(root, 0, 2, 200)
	w0.Instant(KSpawn, uint64(root), child, -1)
	w0.Emit(KTask, 10, 40, 1, root, -1)

	// Worker 1 steals the child: fault, retry, then success.
	w1.Emit(KStealBegin, 20, 0, 0, 0, 0)
	clock = 25
	w1.EmitFlags(KRead, 20, 5, 64, 0, 0, FFailed)
	w1.Instant(KStealFault, 1, 0, 0)
	w1.Emit(KStealRetry, 25, 10, 2, 0, 0)
	w1.Emit(KRead, 35, 8, 256, 0, 0)
	w1.Emit(KXfer, 35, 8, 256, child, 0)
	w1.Emit(KStealOK, 20, 23, 256, child, 0)
	clock = 43
	r.TaskMoved(child, 0, 1)
	w1.Observe(HStealLatency, 23)

	w1.Emit(KTask, 43, 12, 2, child, -1)
	clock = 55
	r.TaskDone(child, 1)
	w1.Instant(KTaskDone, 0, child, -1)
	clock = 60
	r.TaskJoined(200, 0)
	w0.Instant(KJoinFast, 0, child, -1)
	w0.Instant(KDepth, 3, 0, -1)
	return r
}

func TestChromeTraceValidity(t *testing.T) {
	r := buildSyntheticRecorder()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, r.Export(), &ChromeOpts{Label: "test"}); err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exporter emitted invalid JSON: %v", err)
	}
	if doc.DisplayTimeUnit == "" {
		t.Error("missing displayTimeUnit")
	}

	flowS := map[uint64]int32{}
	flowF := map[uint64]int32{}
	names := map[string]bool{}
	var slices, instants int
	for _, e := range doc.TraceEvents {
		names[e.Name] = true
		switch e.Ph {
		case "X":
			slices++
			// Every complete event must carry an explicit duration.
			if e.Dur == nil {
				t.Errorf("slice %q at ts=%d has no dur field", e.Name, e.Ts)
			}
		case "i":
			instants++
		case "s":
			if _, dup := flowS[e.ID]; dup {
				t.Errorf("duplicate flow start id %d", e.ID)
			}
			flowS[e.ID] = e.Tid
		case "f":
			if _, dup := flowF[e.ID]; dup {
				t.Errorf("duplicate flow finish id %d", e.ID)
			}
			flowF[e.ID] = e.Tid
		case "M", "C":
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
		if e.Tid < 0 || e.Tid > 1 {
			t.Errorf("event %q on unknown tid %d", e.Name, e.Tid)
		}
	}
	if slices == 0 || instants == 0 {
		t.Fatalf("want both slices and instants, got %d / %d", slices, instants)
	}
	// Flow arrows pair up: every start has a finish on a different
	// track and vice versa.
	if len(flowS) == 0 {
		t.Fatal("no flow arrows for a trace with a migration")
	}
	if len(flowS) != len(flowF) {
		t.Fatalf("unpaired flows: %d starts, %d finishes", len(flowS), len(flowF))
	}
	for id, from := range flowS {
		to, ok := flowF[id]
		if !ok {
			t.Errorf("flow %d has no finish", id)
		} else if from == to {
			t.Errorf("flow %d starts and finishes on the same track %d", id, from)
		}
	}
	for _, want := range []string{"steal", "steal-fault", "steal-retry", "xfer", "migrate", "fault"} {
		if !names[want] {
			t.Errorf("expected an event named %q in the trace", want)
		}
	}
	if doc.OtherData["steal_latency_p50"] == 0 {
		t.Error("steal latency percentiles missing from otherData")
	}
}

func TestChromeTraceDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteChromeTrace(&a, buildSyntheticRecorder().Export(), nil); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&b, buildSyntheticRecorder().Export(), nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two exports of identical recorders differ")
	}
}

func TestChromeTraceNilRecorder(t *testing.T) {
	var buf bytes.Buffer
	var r *Recorder
	if err := WriteChromeTrace(&buf, r.Export(), nil); err == nil {
		t.Fatal("want error exporting a nil recorder")
	}
}

func TestSummaryMentionsKeySections(t *testing.T) {
	r := buildSyntheticRecorder()
	var buf bytes.Buffer
	WriteSummary(&buf, r.Export(), nil)
	out := buf.String()
	for _, want := range []string{"steal", "task"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}
