package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// A span is one timed call from the benchmark into a layer of the
// program: its name ("uniaddr.Submit", "dist.Run", "probe.sched.deque_
// push_pop"), when it started and ended (nanoseconds since the tracer's
// epoch), the span that caused it (-1 for a root) and the job it
// belongs to (0 for none). Spans are recorded by the benchmark's own
// code only — nothing inside internal/* is instrumented by this
// package — kept in memory, and written out when the run ends.
type span struct {
	name       string
	lane       int
	start, end int64
	parent     spanID
	job        int64
}

type spanID int32

const noSpan spanID = -1

// Lanes group spans into Chrome-trace threads by who recorded them.
const (
	laneMain = iota + 1
	laneGenerator
	laneCollector
)

// tracer collects spans. A nil *tracer is valid and records nothing,
// which is how untraced runs (and the untraced half of a traced run's
// jobs) pay nothing for the instrumentation sites. One goroutine records
// at a time: the caller's, or — while the caller is busy generating the
// open-loop arrivals — the collector's.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

// begin opens a span and returns its id for end and for use as a parent.
func (t *tracer) begin(name string, lane int, parent spanID, job int64) spanID {
	if t == nil {
		return noSpan
	}
	id := spanID(len(t.spans))
	t.spans = append(t.spans, span{name: name, lane: lane, start: t.now(), end: -1, parent: parent, job: job})
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id spanID) {
	if t == nil || id == noSpan {
		return
	}
	t.spans[id].end = t.now()
}

// add records a span whose start and end are already known — the
// open-loop collector stamps a job's spans once the job is done.
func (t *tracer) add(name string, lane int, parent spanID, job int64, start, end time.Time) spanID {
	if t == nil {
		return noSpan
	}
	id := spanID(len(t.spans))
	t.spans = append(t.spans, span{
		name: name, lane: lane, parent: parent, job: job,
		start: start.Sub(t.epoch).Nanoseconds(), end: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// durations returns the duration in nanoseconds of every closed span
// with the given name, in recording order.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	var out []float64
	for i := range t.spans {
		if s := &t.spans[i]; s.name == name && s.end >= 0 {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover. Children may nest (a grandchild
// is charged to the child, not twice to the parent) and may overlap one
// another (the union of their intervals is subtracted, not the sum);
// a child reaching outside its parent is clipped to the parent.
// Unclosed spans get self time 0.
func selfTimes(spans []span) []int64 {
	type iv struct{ lo, hi int64 }
	kids := make(map[spanID][]iv)
	for i := range spans {
		s := &spans[i]
		if s.parent == noSpan || s.end < 0 || int(s.parent) >= len(spans) {
			continue
		}
		p := &spans[s.parent]
		lo, hi := s.start, s.end
		if lo < p.start {
			lo = p.start
		}
		if hi > p.end {
			hi = p.end
		}
		if hi > lo {
			kids[s.parent] = append(kids[s.parent], iv{lo, hi})
		}
	}
	self := make([]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		if s.end < 0 {
			continue
		}
		ivs := kids[spanID(i)]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, edge int64
		edge = s.start
		for _, v := range ivs {
			if v.hi <= edge {
				continue
			}
			if v.lo > edge {
				edge = v.lo
			}
			covered += v.hi - edge
			edge = v.hi
		}
		self[i] = (s.end - s.start) - covered
	}
	return self
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format; chrome://tracing and ui.perfetto.dev load the enclosing
// {"traceEvents": [...]} object directly. Times are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes every closed span as Chrome trace-event JSON. Each
// event's args carry the span's id, parent id, job and self time, so
// the causal tree survives the export.
func (t *tracer) writeChrome(w io.Writer) error {
	spans := t.spans
	self := selfTimes(spans)
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprint(bw, `{"displayTimeUnit":"ns","traceEvents":[`); err != nil {
		return err
	}
	first := true
	for i := range spans {
		s := &spans[i]
		if s.end < 0 {
			continue
		}
		ev := chromeEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.lane,
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Args: map[string]any{"id": i, "parent": int(s.parent), "self_us": float64(self[i]) / 1e3},
		}
		if s.job != 0 {
			ev.Args["job"] = s.job
		}
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if !first {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		first = false
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(bw, "]}"); err != nil {
		return err
	}
	return bw.Flush()
}
