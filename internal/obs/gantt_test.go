package obs

import (
	"bytes"
	"strings"
	"testing"
)

// stateExport builds an export of one lane per stream, closed at end.
func stateExport(end uint64, lanes ...[]StateChange) *Export {
	ex := &Export{Clock: ClockVirtual, End: end}
	for i, st := range lanes {
		ex.Logs = append(ex.Logs, ExportLog{Rank: int32(i), States: st})
	}
	return ex
}

func TestLaneSegments(t *testing.T) {
	ex := stateExport(100, []StateChange{{10, Work}, {50, Steal}, {50, Steal}, {80, Idle}})
	segs := ex.Lanes()[0]
	want := []Segment{
		{0, 10, Idle},
		{10, 50, Work},
		{50, 80, Steal},
		{80, 100, Idle},
	}
	if len(segs) != len(want) {
		t.Fatalf("segments: %+v", segs)
	}
	for i := range want {
		if segs[i] != want[i] {
			t.Fatalf("segment %d = %+v, want %+v", i, segs[i], want[i])
		}
	}
}

func TestZeroLengthSwitchesDropped(t *testing.T) {
	// Work replaces the initial idle opening at t=0, and Steal replaces
	// Work at the same instant.
	segs := stateExport(10, []StateChange{{0, Work}, {0, Steal}}).Lanes()[0]
	if len(segs) != 1 || segs[0] != (Segment{0, 10, Steal}) {
		t.Fatalf("segments: %+v", segs)
	}
}

func TestUtilizationFractions(t *testing.T) {
	ex := stateExport(100, []StateChange{{0, Work}}, []StateChange{{50, Work}})
	u := ex.Utilization()
	if u[Work] != 0.75 {
		t.Fatalf("work fraction %v", u[Work])
	}
	if u[Idle] != 0.25 {
		t.Fatalf("idle fraction %v", u[Idle])
	}
	if u[Steal] != 0 || u[Suspend] != 0 {
		t.Fatalf("fractions %v", u)
	}
}

func TestGanttRendering(t *testing.T) {
	ex := stateExport(1000, []StateChange{{0, Work}}, []StateChange{{0, Steal}, {500, Idle}})
	var buf bytes.Buffer
	WriteGantt(&buf, ex, 10)
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("gantt lines: %q", out)
	}
	if lines[1] != "w0    ##########" {
		t.Fatalf("worker 0 row should be all work: %q", lines[1])
	}
	if lines[2] != "w1    sssss....." {
		t.Fatalf("worker 1 row should be half steal, half idle: %q", lines[2])
	}
}

func TestGanttEmpty(t *testing.T) {
	for _, ex := range []*Export{nil, stateExport(0, nil), NewWallRecorder(1, 16).Export()} {
		var buf bytes.Buffer
		WriteGantt(&buf, ex, 10)
		if !strings.Contains(buf.String(), "empty") {
			t.Fatalf("empty trace rendering: %q", buf.String())
		}
	}
}

func TestRenderUtilization(t *testing.T) {
	var buf bytes.Buffer
	WriteUtilization(&buf, stateExport(10, []StateChange{{0, Work}}))
	if !strings.Contains(buf.String(), "work 100.0%") {
		t.Fatalf("utilization render: %q", buf.String())
	}
}
