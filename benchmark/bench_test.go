package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"uniaddr"
	"uniaddr/internal/core"
	"uniaddr/internal/workloads"
)

func TestMain(m *testing.M) {
	uniaddr.MaybeChild() // dist_uts re-executes the test binary for its workers
	os.Exit(m.Run())
}

// flakyCalls counts invocations of the flaky task; the flakyAt-th panics.
var (
	flakyCalls atomic.Int64
	flakyAt    atomic.Int64
)

var panicFID, flakyFID core.FuncID

func init() {
	panicFID = core.Register("benchmark-test-panic", func(*core.Env) core.Status { panic("boom") })
	flakyFID = core.Register("benchmark-test-flaky", func(e *core.Env) core.Status {
		if flakyCalls.Add(1) == flakyAt.Load() {
			panic("boom once")
		}
		e.ReturnU64(7)
		return core.Done
	})
}

func TestPoissonSchedule(t *testing.T) {
	const rate, span = 1000.0, 2 * time.Second
	a := poissonSchedule(42, rate, span)
	b := poissonSchedule(42, rate, span)
	c := poissonSchedule(43, rate, span)
	if len(a) != len(b) {
		t.Fatalf("equal seeds gave %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("equal seeds diverge at arrival %d: %v vs %v", i, a[i], b[i])
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
	}
	if a[len(a)-1] >= span {
		t.Errorf("last arrival %v is outside the span %v", a[len(a)-1], span)
	}
	same := len(a) == len(c)
	for i := 0; same && i < len(a); i++ {
		same = a[i] == c[i]
	}
	if same {
		t.Error("different seeds gave the identical schedule")
	}
	if want := rate * span.Seconds(); math.Abs(float64(len(a))-want) > 5*math.Sqrt(want) {
		t.Errorf("%d arrivals in %v at %v/s, want about %v", len(a), span, rate, want)
	}
}

func TestFailingJobIsCountedAndKeptOutOfSamples(t *testing.T) {
	w, _ := findWorkload("spawn_join")
	good := workloads.Fib(shortScale.fibN, 0)
	bad := workloads.Spec{Name: "panics", Fid: panicFID, Locals: 8}
	rec := &recorder{}
	next := runBatch(w, func(i int) workloads.Spec {
		if i == 1 {
			return bad
		}
		return good
	}, 1, 0, 30*time.Millisecond, nil, nil, rec)
	if next < 3 {
		t.Fatalf("only %d jobs ran; the window is too short to show recovery", next)
	}
	if rec.failed != 1 || rec.attempted != next || rec.wrong != 0 {
		t.Fatalf("attempted %d failed %d wrong %d after %d jobs with one panicking, want exactly one failure and no wrong result",
			rec.attempted, rec.failed, rec.wrong, next)
	}
	if len(rec.errs) != 1 || !strings.Contains(rec.errs[0], "boom") {
		t.Errorf("failure strings %q, want the panic", rec.errs)
	}
	if len(rec.taskNS) != next-1 || len(rec.jobUS) != next-1 {
		t.Fatalf("%d timing samples from %d good jobs", len(rec.taskNS), next-1)
	}
	for i, ns := range rec.taskNS {
		if !(ns > 0) || math.IsInf(ns, 0) {
			t.Errorf("sample %d is %v: the failed job leaked into the samples", i, ns)
		}
	}
}

func TestOpenLoopSurvivesADeadPool(t *testing.T) {
	w, _ := findWorkload("service_open")
	flakyCalls.Store(0)
	flakyAt.Store(5)
	in := inputs{
		spec:     workloads.Spec{Name: "flaky", Fid: flakyFID, Locals: 8, Expected: 7},
		arrivals: poissonSchedule(1, 2000, 50*time.Millisecond),
	}
	rec := &recorder{}
	if _, err := runOpen(w, in, 1, nil, nil, rec); err != nil {
		t.Fatal(err)
	}
	if rec.attempted != len(in.arrivals) {
		t.Errorf("attempted %d of %d arrivals", rec.attempted, len(in.arrivals))
	}
	// The panic kills the pool: the job that hit it fails, jobs queued
	// behind it fail with it, and every later one runs on a fresh Service.
	if rec.failed < 1 || rec.failed > len(in.arrivals)/2 {
		t.Fatalf("failed %d of %d: want the panicking job (and at most a few queued behind it)", rec.failed, len(in.arrivals))
	}
	if got := len(rec.jobUS); got != rec.attempted-rec.failed || got == 0 {
		t.Errorf("%d samples from %d successful jobs", got, rec.attempted-rec.failed)
	}
	if rec.wrong != 0 {
		t.Errorf("%d wrong results; a dead pool is an error, not a wrong answer", rec.wrong)
	}
}

func TestSpawnJoinAssertsZeroSteals(t *testing.T) {
	w, _ := findWorkload("spawn_join")
	spec := workloads.Fib(shortScale.fibN, 0)
	rep, err := uniaddr.Run(spec.Fid, spec.Locals, spec.Init, w.runOptions(1)...)
	if verr := verify(w, spec, rep, err); verr != nil {
		t.Fatalf("a real one-worker run does not verify: %v", verr)
	}
	if rep.StealAttempts+rep.StealsOK+rep.StealBatches+rep.Suspends != 0 {
		t.Fatalf("one worker, yet %d steal attempts, %d steals, %d suspends", rep.StealAttempts, rep.StealsOK, rep.Suspends)
	}
	rep.StealsOK, rep.StealBatches = 1, 1
	if verr := verify(w, spec, rep, nil); !errors.Is(verr, errWrong) {
		t.Errorf("a steal on spawn_join verified as %v, want a wrong-result failure", verr)
	}
	steal, _ := findWorkload("steal_uts")
	if verr := verify(steal, spec, rep, nil); verr != nil {
		t.Errorf("a steal on a two-worker workload is not a failure: %v", verr)
	}
}

// benchmarkJSON is BENCHMARK.json as the smoke test needs it.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload, and the traced run of every workload,
// at -short scale, and holds what they print against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(suite) {
		t.Fatalf("BENCHMARK.json names %d workloads, the suite has %d", len(bj.Workloads), len(suite))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	const window = 100 * time.Millisecond
	for i, w := range suite {
		if bj.Workloads[i].Name != w.name {
			t.Errorf("BENCHMARK.json workload %d is %q, the suite's is %q", i, bj.Workloads[i].Name, w.name)
		}
		for _, trace := range []bool{false, true} {
			w, trace := w, trace
			name, want := w.name, bj.EndToEnd
			if trace {
				name, want = w.name+"/traced", bj.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				if testing.Short() && (trace || w.backend == uniaddr.BackendDist) {
					t.Skip("launches dist worker processes")
				}
				traceOut := ""
				if trace {
					traceOut = filepath.Join(t.TempDir(), "trace.json")
				}
				var out bytes.Buffer
				start := time.Now()
				if err := runOne(w, 1, window, shortScale, trace, traceOut, &out); err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				t.Logf("took %v", time.Since(start))
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s of BENCHMARK.json is not printed", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s printed in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s is %v", m.Name, got.Value)
					case !nameRE.MatchString(m.Name):
						t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", m.Name)
					case !strings.Contains(out.String(), "\n"+m.Name+" "):
						t.Errorf("metric %s is missing from the human-readable report", m.Name)
					}
				}
				if trace {
					b, err := os.ReadFile(traceOut)
					if err != nil {
						t.Fatal(err)
					}
					var doc struct{ TraceEvents []json.RawMessage }
					if err := json.Unmarshal(b, &doc); err != nil || len(doc.TraceEvents) == 0 {
						t.Errorf("trace file does not load or is empty: %v", err)
					}
				}
			})
		}
	}
}
