package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// TestTableWellFormed: every row can be listed and dispatched, and a
// (backend, name) pair picks at most one row.
func TestTableWellFormed(t *testing.T) {
	known := map[string]bool{}
	for _, b := range backends {
		known[b.name] = true
	}
	seen := map[string]bool{}
	for _, e := range experiments {
		if e.name == "" || e.help == "" || e.run == nil || len(e.backends) == 0 {
			t.Errorf("row %q: needs a name, a help line, a run func and at least one backend", e.name)
		}
		for _, b := range e.backends {
			if !known[b] {
				t.Errorf("row %q names unknown backend %q", e.name, b)
			}
			if seen[b+"/"+e.name] {
				t.Errorf("experiment %q appears twice for backend %s", e.name, b)
			}
			seen[b+"/"+e.name] = true
		}
	}
}

// TestListIsTheTable: per backend, the names -list prints are the
// table's rows for that backend, in order, and nothing else.
func TestListIsTheTable(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	listed := map[string][]string{}
	section := ""
	for _, line := range strings.Split(buf.String(), "\n") {
		switch {
		case strings.HasPrefix(line, "experiments (-backend "):
			section = strings.TrimRight(strings.Fields(line)[2], ";")
		case line == "":
			section = ""
		case section != "":
			listed[section] = append(listed[section], strings.Fields(line)[0])
		}
	}
	for _, b := range backends {
		var want []string
		for _, e := range rowsFor(b.name) {
			want = append(want, e.name)
		}
		if !slices.Equal(listed[b.name], want) {
			t.Errorf("-list for %s:\n got %v\nwant %v", b.name, listed[b.name], want)
		}
	}
	if len(listed) != len(backends) {
		t.Errorf("-list has experiment sections %v, want one per backend", listed)
	}
}

// stubRuns replaces every row's run (except the all row's, which is the
// dispatch under test) with a recorder of the row names run.
func stubRuns(t *testing.T) *[]string {
	saved := experiments
	t.Cleanup(func() { experiments = saved })
	var ran []string
	experiments = slices.Clone(saved)
	for i := range experiments {
		if experiments[i].name != "all" {
			experiments[i].run = func(c *ctx) error {
				ran = append(ran, c.backend+"/"+c.exp.name)
				return nil
			}
		}
	}
	return &ran
}

// TestAllRunsTheFigures: -exp all (and no -exp at all on sim) is the
// inAll rows in table order — the figure order this CLI has always had.
func TestAllRunsTheFigures(t *testing.T) {
	figures := []string{
		"fig9", "table2", "fig10", "iso-vs-uni", "table4",
		"fig11a", "fig11b", "fig11c", "fig11d", "trend",
		"sec4", "ablate-faa", "ablate-stacksize", "ablate-nodes", "ablate-victim",
		"ablate-multiworker", "ablate-helpfirst", "ablate-straggler", "ablate-lifelines",
	}
	var inAll []string
	for _, e := range experiments {
		if e.inAll {
			inAll = append(inAll, e.name)
		}
	}
	if !slices.Equal(inAll, figures) {
		t.Fatalf("inAll rows:\n got %v\nwant %v", inAll, figures)
	}
	for _, args := range [][]string{{"-exp", "all"}, nil} {
		ran := stubRuns(t)
		var buf bytes.Buffer
		if err := run(args, &buf); err != nil {
			t.Fatal(err)
		}
		var want []string
		for _, name := range figures {
			want = append(want, "sim/"+name)
			if !strings.Contains(buf.String(), "==== "+name+" ====\n") {
				t.Errorf("%v: no header for %s", args, name)
			}
		}
		if !slices.Equal(*ran, want) {
			t.Errorf("%v ran\n got %v\nwant %v", args, *ran, want)
		}
	}
}

// TestDispatch: a name resolves within its backend only, the default is
// the backend's first row, and an unknown name is answered with that
// backend's candidates.
func TestDispatch(t *testing.T) {
	ran := stubRuns(t)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "chaos"}, "sim/chaos"},
		{[]string{"-backend", "rt"}, "rt/" + rowsFor(rt)[0].name},
		{[]string{"-backend", "rt", "-exp", "chaos"}, "rt/chaos"},
		{[]string{"-backend", "dist"}, "dist/" + rowsFor(distB)[0].name},
		{[]string{"-backend", "dist", "-exp", "run"}, "dist/run"},
	} {
		*ran = nil
		if err := run(tc.args, &bytes.Buffer{}); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if !slices.Equal(*ran, []string{tc.want}) {
			t.Errorf("%v ran %v, want %s", tc.args, *ran, tc.want)
		}
	}

	*ran = nil
	err := run([]string{"-backend", "rt", "-exp", "bogus"}, &bytes.Buffer{})
	if err == nil || len(*ran) != 0 {
		t.Fatalf("unknown name on rt: err %v, ran %v", err, *ran)
	}
	var rtNames []string
	for _, e := range rowsFor(rt) {
		rtNames = append(rtNames, e.name)
	}
	for _, e := range experiments {
		if named, want := strings.Contains(err.Error(), e.name), slices.Contains(rtNames, e.name); named != want {
			t.Errorf("error %q: names %s = %v, want %v", err, e.name, named, want)
		}
	}
	if err := run([]string{"-backend", "rt", "-exp", "fig9"}, &bytes.Buffer{}); err == nil {
		t.Error("a sim-only name ran on rt")
	}
	if err := run([]string{"-backend", "gpu"}, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "gpu") {
		t.Errorf("unknown backend: %v", err)
	}
	if err := run([]string{"-scale", "bench"}, &bytes.Buffer{}); err == nil {
		t.Error("-scale bench accepted")
	}
	if err := run([]string{"-exp", "fig9", "-trace", t.TempDir() + "/t.json"}, &bytes.Buffer{}); err == nil {
		t.Error("-trace accepted on a figure")
	}
}

// TestScaleFloorVerdict feeds the gate fabricated timings: it runs
// nowhere with fewer than 8 CPUs, so this is its only exercise here.
func TestScaleFloorVerdict(t *testing.T) {
	const ms = int64(1e6)
	names := []string{"Fib", "UTS"}
	for _, tc := range []struct {
		name    string
		wall    map[string][2]int64
		wantErr string
		wantOut []string
	}{
		{"pass", map[string][2]int64{"Fib": {8000 * ms, 1000 * ms}, "UTS": {4000 * ms, 1000 * ms}}, "",
			[]string{"speedup= 8.00x", "speedup= 4.00x", "all 2 workloads at or above 4.0x"}},
		{"fail", map[string][2]int64{"Fib": {8000 * ms, 1000 * ms}, "UTS": {3900 * ms, 1000 * ms}}, "1 of 2 workloads below",
			[]string{"speedup= 3.90x", "FAIL"}},
		{"missing row", map[string][2]int64{"Fib": {8000 * ms, 1000 * ms}}, "missing timings for UTS", nil},
		{"missing 8-worker time", map[string][2]int64{"Fib": {8000 * ms, 0}, "UTS": {4000 * ms, 1000 * ms}}, "missing timings for Fib", nil},
	} {
		var buf bytes.Buffer
		err := scaleFloorVerdict(&buf, names, tc.wall)
		if (tc.wantErr == "") != (err == nil) || (err != nil && !strings.Contains(err.Error(), tc.wantErr)) {
			t.Errorf("%s: err %v, want %q", tc.name, err, tc.wantErr)
		}
		for _, want := range tc.wantOut {
			if !strings.Contains(buf.String(), want) {
				t.Errorf("%s: output lacks %q:\n%s", tc.name, want, buf.String())
			}
		}
	}
}
