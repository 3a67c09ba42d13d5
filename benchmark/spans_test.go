package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		0: {name: "parent", start: 0, end: 100, parent: noSpan},
		1: {name: "a", start: 10, end: 40, parent: 0},
		2: {name: "b overlaps a", start: 30, end: 60, parent: 0},
		3: {name: "grandchild in a", start: 15, end: 25, parent: 1},
		4: {name: "c sticks out of parent", start: 90, end: 120, parent: 0},
		5: {name: "unclosed", start: 50, end: -1, parent: 0},
		6: {name: "root without children", start: 200, end: 230, parent: noSpan},
	}
	got := selfTimes(spans)
	want := []int64{
		0: 100 - (60 - 10) - (100 - 90), // union of a and b, c clipped to the parent; the grandchild is a's
		1: 30 - 10,
		2: 30,
		3: 10,
		4: 30,
		5: 0,
		6: 30,
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %q = %d, want %d", spans[i].name, got[i], want[i])
		}
	}
}

func TestTracerNilAndChrome(t *testing.T) {
	var off *tracer
	id := off.begin("x", laneMain, noSpan, 0)
	off.end(id)
	if id != noSpan || off.durations("x") != nil {
		t.Fatal("a nil tracer must record nothing")
	}

	tr := newTracer()
	p := tr.begin("job", laneMain, noSpan, 7)
	c := tr.begin("uniaddr.Run", laneMain, p, 7)
	tr.end(c)
	tr.end(p)
	tr.begin("left open", laneMain, noSpan, 0)
	if n := len(tr.durations("uniaddr.Run")); n != 1 {
		t.Fatalf("durations found %d spans, want 1", n)
	}
	var buf bytes.Buffer
	if err := tr.writeChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Ts   float64
			Dur  float64
			Args struct {
				ID, Parent int
				Job        int64
			}
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not loadable JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("%d events, want 2 (the open span is not written)", len(doc.TraceEvents))
	}
	child := doc.TraceEvents[1]
	if child.Name != "uniaddr.Run" || child.Ph != "X" || child.Args.Parent != 0 || child.Args.Job != 7 {
		t.Errorf("child event lost its name, parent or job: %+v", child)
	}
}
