package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchmarkFile is the part of BENCHMARK.json the calibration reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// repeatSuite is -repeat n: it runs every workload (or just only) n
// times with seeds seed..seed+n-1, each run a fresh process exactly as
// the acceptance check runs them, and prints per workload and
// end-to-end metric the min, median and max, the run-to-run range
// (max−min)/median, the quartile spread the acceptance check computes,
// and the bound BENCHMARK.json (read from the current directory) gives
// the metric. A bound under twice the range is flagged: widen it, or —
// above 10 % range — demote the metric to a diagnostic.
func repeatSuite(n int, only string, seed uint64, seconds float64, short bool, out io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	bounds := map[string]float64{}
	if b, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var bf benchmarkFile
		if err := json.Unmarshal(b, &bf); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
		for _, m := range bf.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	} else {
		fmt.Fprintln(out, "no BENCHMARK.json in the current directory: bounds not shown")
	}
	values := map[string]map[string][]float64{} // workload → metric → one value per run
	for r := 0; r < n; r++ {
		for _, w := range suite {
			if only != "" && w.name != only {
				continue
			}
			args := []string{"-workload", w.name, "-seed", strconv.FormatUint(seed+uint64(r), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64)}
			if short {
				args = append(args, "-short")
			}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s, run %d: %w", w.name, r+1, err)
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s, run %d: last line is not the result object: %w", w.name, r+1, err)
			}
			fmt.Fprintf(out, "run %d/%d %-13s seed=%d attempted=%d failed=%d correct=%v\n",
				r+1, n, w.name, seed+uint64(r), res.Attempted, res.Failed, res.Correct)
			for _, l := range lines {
				if bytes.HasPrefix(l, []byte("host speed:")) {
					fmt.Fprintf(out, "    %s\n", l)
				}
			}
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			names := make([]string, 0, len(res.Metrics))
			for name, m := range res.Metrics {
				values[w.name][name] = append(values[w.name][name], m.Value)
				names = append(names, name)
			}
			sort.Strings(names)
			fmt.Fprint(out, "   ")
			for _, name := range names {
				fmt.Fprintf(out, " %s=%.6g", name, res.Metrics[name].Value)
			}
			fmt.Fprintln(out)
		}
	}
	fmt.Fprintf(out, "\n%-13s %-21s %12s %12s %12s %8s %8s %7s\n",
		"workload", "metric", "min", "median", "max", "range", "iqr", "bound")
	for _, w := range suite {
		byMetric := values[w.name]
		names := make([]string, 0, len(byMetric))
		for name := range byMetric {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			v := byMetric[name]
			rng := rangeSpread(v)
			bound, known := bounds[name]
			verdict := ""
			switch {
			case !known:
				bound = math.NaN()
			case bound < 2*rng:
				verdict = "  bound under 2x range: WIDEN"
			}
			fmt.Fprintf(out, "%-13s %-21s %12.4f %12.4f %12.4f %7.2f%% %7.2f%% %6.0f%%%s\n",
				w.name, name, quantile(v, 0), median(v), quantile(v, 1), 100*rng, 100*quartileSpread(v), 100*bound, verdict)
		}
	}
	return nil
}
