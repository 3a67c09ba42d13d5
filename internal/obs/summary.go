package obs

import (
	"fmt"
	"io"
	"sort"
)

// WriteSummary renders an export — virtual-time or wall-clock — as a
// compact text post-mortem: per-kind event counts, per-worker
// ring-overflow accounting, the latency histograms with tail
// percentiles, and (when lineage was tracked) the task lineage digest.
// fname resolves task FuncIDs to names (nil allowed).
func WriteSummary(w io.Writer, ex *Export, fname func(uint32) string) {
	if ex == nil {
		fmt.Fprintln(w, "obs: disabled")
		return
	}
	var counts [numKinds]uint64
	for _, l := range ex.Logs {
		for _, e := range l.Events {
			counts[e.Kind]++
		}
	}
	total, dropped := ex.Events(), ex.Dropped()
	fmt.Fprintf(w, "obs: %d events recorded on %d workers (%s)", total, len(ex.Logs), ex.clockUnit())
	if dropped > 0 {
		fmt.Fprintf(w, " (%d dropped by full rings — oldest first)", dropped)
	}
	fmt.Fprintln(w)
	if dropped > 0 {
		// Per-worker truncation: a full ring silently biases a trace
		// toward the run's tail, so name the workers it happened on.
		fmt.Fprintf(w, "  dropped per worker:")
		for _, l := range ex.Logs {
			if l.Dropped > 0 {
				fmt.Fprintf(w, " w%d:%d", l.Rank, l.Dropped)
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  events by kind:")
	n := 0
	for k := Kind(0); k < numKinds; k++ {
		if counts[k] == 0 {
			continue
		}
		if n%4 == 0 {
			fmt.Fprintf(w, "\n   ")
		}
		n++
		fmt.Fprintf(w, " %-14s %10d", k.String(), counts[k])
	}
	fmt.Fprintln(w)

	if len(ex.Hists) > 0 {
		fmt.Fprintf(w, "  latency histograms (%s):\n", ex.clockUnit())
		fmt.Fprintf(w, "    %-18s %9s %12s %10s %10s %10s %10s\n",
			"quantity", "count", "mean", "p50", "p95", "p99", "max")
		for _, nh := range ex.Hists {
			h := nh.Hist
			fmt.Fprintf(w, "    %-18s %9d %12.1f %10d %10d %10d %10d\n",
				nh.Name, h.Count, h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Max)
		}
	}

	if ex.Clock != ClockVirtual {
		return // lineage tracking is sim-only
	}
	tasks := ex.Tasks
	migrated, hops, maxHops := 0, 0, 0
	var farthest *Lineage
	for _, ln := range tasks {
		if len(ln.Hops) == 0 {
			continue
		}
		migrated++
		hops += len(ln.Hops)
		if len(ln.Hops) > maxHops {
			maxHops = len(ln.Hops)
			farthest = ln
		}
	}
	fmt.Fprintf(w, "  tasks: %d spawned, %d migrated (%d hops total, max %d per task)\n",
		len(tasks), migrated, hops, maxHops)
	if farthest != nil {
		name := "task"
		if fname != nil {
			name = fname(farthest.Func)
		}
		fmt.Fprintf(w, "    most-travelled: task %d (%s) spawned on w%d:",
			farthest.ID, name, farthest.Spawn.Worker)
		for _, h := range farthest.Hops {
			fmt.Fprintf(w, " →w%d@%d", h.To, h.Time)
		}
		if farthest.Done.Worker >= 0 {
			fmt.Fprintf(w, ", finished on w%d", farthest.Done.Worker)
		}
		if farthest.Joiner >= 0 {
			fmt.Fprintf(w, ", joined by w%d", farthest.Joiner)
		}
		fmt.Fprintln(w)
	}
	// Per-worker migration balance: where stolen work landed.
	recv := map[int32]int{}
	for _, ln := range tasks {
		for _, h := range ln.Hops {
			recv[h.To]++
		}
	}
	if len(recv) > 0 {
		ranks := make([]int, 0, len(recv))
		for r := range recv {
			ranks = append(ranks, int(r))
		}
		sort.Ints(ranks)
		fmt.Fprintf(w, "    migrations received:")
		for _, rk := range ranks {
			fmt.Fprintf(w, " w%d:%d", rk, recv[int32(rk)])
		}
		fmt.Fprintln(w)
	}
}
