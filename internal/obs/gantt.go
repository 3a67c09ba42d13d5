package obs

import (
	"fmt"
	"io"
)

// The simulator's execution timeline: which of working / stealing /
// suspended / idle each worker was in at every virtual instant, replayed
// from the export's state streams and its end time. Utilization and the
// text Gantt are the tools behind Fig. 11's load-balance diagnosis.

// State classifies what a simulated worker is doing (Recorder.State).
type State uint8

const (
	Idle    State = iota // no local work, steal attempts failing
	Work                 // executing task code (including task management)
	Steal                // running the steal protocol or transferring a stack
	Suspend              // swapping threads out/in on join misses
	numStates
)

var stateGlyphs = [numStates]byte{'.', '#', 's', 'u'}

// Segment is a maximal run of one state on one worker: [Start, End).
type Segment struct {
	Start, End uint64
	State      State
}

// Lanes replays every worker's state stream into segments closed at
// ex.End, one lane per log. A lane opens Idle at 0, and zero-length
// states leave no segment.
func (ex *Export) Lanes() [][]Segment {
	states := make([][]StateChange, len(ex.Logs))
	for i, l := range ex.Logs {
		states[i] = l.States
	}
	return lanes(states, ex.End)
}

// Lanes is Export().Lanes() without decoding the rings, which the state
// streams live outside of. Nil on a nil recorder.
func (r *Recorder) Lanes() [][]Segment {
	if r == nil {
		return nil
	}
	return lanes(r.states, r.end())
}

func lanes(states [][]StateChange, end uint64) [][]Segment {
	out := make([][]Segment, len(states))
	for i, st := range states {
		open, at := Idle, uint64(0)
		var segs []Segment
		for _, sc := range st {
			if sc.State == open {
				continue
			}
			if sc.Time > at {
				segs = append(segs, Segment{Start: at, End: sc.Time, State: open})
			}
			open, at = sc.State, sc.Time
		}
		if end > at {
			segs = append(segs, Segment{Start: at, End: end, State: open})
		}
		out[i] = segs
	}
	return out
}

// Utilization returns each state's share of all worker-time.
func (ex *Export) Utilization() [numStates]float64 {
	var cyc [numStates]uint64
	var total uint64
	for _, segs := range ex.Lanes() {
		for _, g := range segs {
			cyc[g.State] += g.End - g.Start
			total += g.End - g.Start
		}
	}
	var u [numStates]float64
	if total > 0 {
		for s := range u {
			u[s] = float64(cyc[s]) / float64(total)
		}
	}
	return u
}

// WriteUtilization writes the one-line aggregate breakdown.
func WriteUtilization(w io.Writer, ex *Export) {
	u := ex.Utilization()
	fmt.Fprintf(w, "utilization: work %.1f%%  steal %.1f%%  suspend %.1f%%  idle %.1f%%\n",
		100*u[Work], 100*u[Steal], 100*u[Suspend], 100*u[Idle])
}

// WriteGantt writes a text timeline: one row per worker, width columns
// across the run, each showing the state that held most of its window
// ('#'=work, 's'=steal, 'u'=suspend, '.'=idle).
func WriteGantt(w io.Writer, ex *Export, width int) {
	if width < 1 {
		width = 80
	}
	if ex == nil || ex.End == 0 {
		fmt.Fprintln(w, "trace: empty recording")
		return
	}
	fmt.Fprintf(w, "timeline: %d cycles across %d columns ('#'=work 's'=steal 'u'=suspend '.'=idle)\n",
		ex.End, width)
	for i, segs := range ex.Lanes() {
		row := make([]byte, width)
		for c := range row {
			a := ex.End * uint64(c) / uint64(width)
			b := ex.End * uint64(c+1) / uint64(width)
			if b == a {
				b = a + 1
			}
			var cyc [numStates]uint64
			for _, g := range segs {
				if lo, hi := max(g.Start, a), min(g.End, b); lo < hi {
					cyc[g.State] += hi - lo
				}
			}
			best := Idle
			for s := range cyc {
				if cyc[s] > cyc[best] {
					best = State(s)
				}
			}
			row[c] = stateGlyphs[best]
		}
		fmt.Fprintf(w, "w%-4d %s\n", i, row)
	}
}
