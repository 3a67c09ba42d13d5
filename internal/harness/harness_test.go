package harness

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"uniaddr/internal/core"
	"uniaddr/internal/rdma"
	"uniaddr/internal/workloads"
)

func TestFig9CurveShape(t *testing.T) {
	pts, err := Fig9(rdma.DefaultParams(), core.SPARCCosts().ClockHz, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(Fig9Sizes) {
		t.Fatalf("points: %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].ReadCycles < pts[i-1].ReadCycles || pts[i].WriteCycles < pts[i-1].WriteCycles {
			t.Fatalf("latency not monotonic at %d bytes", pts[i].Bytes)
		}
	}
	// Small messages are latency-bound (read ≈ base), large ones
	// bandwidth-bound (~0.37 cycles/byte).
	small := pts[0]
	if small.ReadCycles < 3000 || small.ReadCycles > 8000 {
		t.Fatalf("8B read latency %d cycles implausible for Tofu", small.ReadCycles)
	}
	big := pts[len(pts)-1]
	perByte := float64(big.ReadCycles-small.ReadCycles) / float64(big.Bytes-small.Bytes)
	if math.Abs(perByte-0.37) > 0.05 {
		t.Fatalf("bandwidth term %.3f cycles/B, want ≈0.37", perByte)
	}
	var buf bytes.Buffer
	PrintFig9(&buf, pts)
	if buf.Len() == 0 {
		t.Fatal("empty rendering")
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	rows, err := Table2(1500)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Table2Row{}
	for _, r := range rows {
		byName[r.System] = r
	}
	uni := byName["Uni-address threads"]
	if !uni.Measured {
		t.Fatal("uni-address row must be measured, not modelled")
	}
	// Paper: 413 cycles (SPARC), 100 cycles (Xeon); allow 3%.
	if math.Abs(uni.SPARCCycles-413) > 413*0.03 {
		t.Fatalf("SPARC spawn cost %.1f, want ≈413", uni.SPARCCycles)
	}
	if math.Abs(uni.XeonCycles-100) > 100*0.05 {
		t.Fatalf("Xeon spawn cost %.1f, want ≈100", uni.XeonCycles)
	}
	mt, cilk := byName["MassiveThreads"], byName["Cilk"]
	// Shape: Cilk ≪ uni ≈ MT, uni slightly cheaper than MT.
	if !(cilk.SPARCCycles < uni.SPARCCycles && uni.SPARCCycles < mt.SPARCCycles) {
		t.Fatalf("SPARC ordering broken: cilk=%.0f uni=%.0f mt=%.0f",
			cilk.SPARCCycles, uni.SPARCCycles, mt.SPARCCycles)
	}
	if !(cilk.XeonCycles < uni.XeonCycles && uni.XeonCycles <= mt.XeonCycles) {
		t.Fatalf("Xeon ordering broken")
	}
}

func TestFig10BreakdownMatchesPaperShape(t *testing.T) {
	bd, err := Fig10(core.SchemeUni, 300)
	if err != nil {
		t.Fatal(err)
	}
	total := bd.Total()
	// Paper: total ≈ 42K cycles; allow 20%.
	if total < 42000*0.8 || total > 42000*1.2 {
		t.Fatalf("steal total %.0f cycles, want ≈42K", total)
	}
	// Suspend+resume ≈ 7.7% of the steal (paper: 3.5K of 42K).
	frac := (bd.Suspend + bd.Resume) / total
	if frac < 0.04 || frac > 0.14 {
		t.Fatalf("suspend+resume fraction %.3f, want ≈0.077", frac)
	}
	// Lock is the single most expensive fabric op (software FAA 9.8K).
	if bd.Lock < 9000 || bd.Lock > 11000 {
		t.Fatalf("lock %.0f cycles, want ≈9.8K", bd.Lock)
	}
	// The stolen stack is the padded 3055-byte thread (ping-pong main).
	if bd.AvgBytes < 2500 || bd.AvgBytes > 3600 {
		t.Fatalf("avg stolen stack %.0f B, want ≈3055", bd.AvgBytes)
	}
	var buf bytes.Buffer
	PrintFig10(&buf, bd)
	if buf.Len() == 0 {
		t.Fatal("empty rendering")
	}
}

func TestIsoVsUniRatio(t *testing.T) {
	uni, iso, ratio, err := IsoVsUni(12)
	if err != nil {
		t.Fatal(err)
	}
	// Paper §6.3 estimates uni ≈ 71% of iso; require the right ballpark
	// and direction.
	if !(ratio > 0.5 && ratio < 0.9) {
		t.Fatalf("uni/iso ratio %.2f (uni=%.0f iso=%.0f), want ≈0.7", ratio, uni.Total(), iso.Total())
	}
	if iso.Transfer <= uni.Transfer {
		t.Fatalf("iso transfer %.0f should exceed uni %.0f (page faults + assist)", iso.Transfer, uni.Transfer)
	}
}

func TestTable4SmallScale(t *testing.T) {
	// A deterministic simulator run — virtual time, its own Machine — so it
	// can share the host with its like.
	t.Parallel()
	rows, err := Table4(30, "tiny", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows: %d", len(rows))
	}
	for _, r := range rows {
		if r.Items == 0 || r.Seconds <= 0 || r.StackBytes == 0 {
			t.Fatalf("degenerate row: %+v", r)
		}
		if r.StackBytes > core.DefaultUniSize {
			t.Fatalf("%s %s stack %d overflows region", r.Benchmark, r.Param, r.StackBytes)
		}
	}
	// BTC iter=1 nests twice as deep as iter=2 at these sizes.
	if !(rows[0].StackBytes > rows[2].StackBytes) {
		t.Fatalf("BTC1 stack %d not above BTC2 %d", rows[0].StackBytes, rows[2].StackBytes)
	}
	var buf bytes.Buffer
	PrintTable4(&buf, 30, rows)
	if buf.Len() == 0 {
		t.Fatal("empty rendering")
	}
}

func TestScalingSweepEfficiency(t *testing.T) {
	// A deterministic simulator run — virtual time, its own Machine — so it
	// can share the host with its like.
	t.Parallel()
	spec := workloads.BTC(18, 1, 0) // 524287 tasks
	pts, err := ScalingSweep(spec, []int{15, 30, 60}, 1, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Efficiency != 1 {
		t.Fatalf("base efficiency %.2f != 1", pts[0].Efficiency)
	}
	for _, p := range pts {
		if p.Throughput.Mean() <= 0 {
			t.Fatalf("no throughput at %d workers", p.Workers)
		}
	}
	// Shape: 4× the workers at ~9K tasks/worker must stay efficient
	// (the paper's headline ≥95% needs its billions-of-tasks runs; the
	// efficiency-vs-size trend is recorded in EXPERIMENTS.md).
	if eff := pts[len(pts)-1].Efficiency; eff < 0.72 {
		t.Fatalf("efficiency at 60 workers %.2f — load balancing broken", eff)
	}
	// Throughput must actually grow with workers.
	if pts[2].Throughput.Mean() <= pts[0].Throughput.Mean() {
		t.Fatal("no speedup from 15 to 60 workers")
	}
}

func TestSec4AnalyticPaperNumbers(t *testing.T) {
	an := Sec4Paper()
	if an.IsoBytes != 1<<49 {
		t.Fatalf("iso reservation %d, want 2^49", an.IsoBytes)
	}
	if !an.ExceedsX86 {
		t.Fatal("2^49 should exceed the x86-64 VA limit")
	}
	if an.UniBytes != 1<<27 {
		t.Fatalf("uni reservation %d, want 2^27", an.UniBytes)
	}
}

func TestSec4MeasuredScaling(t *testing.T) {
	pts, err := Sec4Measured([]int{8, 24}, 2)
	if err != nil {
		t.Fatal(err)
	}
	small, big := pts[0], pts[1]
	// Iso reservations grow with machine size; uni stays flat.
	if big.IsoReserved <= small.IsoReserved {
		t.Fatalf("iso reservation did not grow: %d -> %d", small.IsoReserved, big.IsoReserved)
	}
	if big.UniReserved != small.UniReserved {
		t.Fatalf("uni reservation changed with machine size: %d -> %d", small.UniReserved, big.UniReserved)
	}
	if big.IsoReserved <= big.UniReserved {
		t.Fatal("iso should reserve more than uni")
	}
	if big.IsoPageFaults == 0 {
		t.Fatal("iso runs should take page faults")
	}
	var buf bytes.Buffer
	PrintSec4(&buf, Sec4Paper(), pts)
	if buf.Len() == 0 {
		t.Fatal("empty rendering")
	}
}

func TestAblateFAA(t *testing.T) {
	pts, err := AblateFAA([]int{16}, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := pts[0]
	if p.HardwareTput < p.SoftwareTput*0.8 {
		t.Fatalf("hardware FAA much slower than software: %.0f vs %.0f", p.HardwareTput, p.SoftwareTput)
	}
}

func TestAblateStackSizeMonotoneTransfer(t *testing.T) {
	pts, err := AblateStackSize([]uint64{256, 3055, 32768}, 120)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Transfer <= pts[i-1].Transfer {
			t.Fatalf("transfer cost not increasing with stack size: %+v", pts)
		}
	}
}

func TestAblateWorkersPerNode(t *testing.T) {
	pts, err := AblateWorkersPerNode(30, []int{5, 15}, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.Tput <= 0 {
			t.Fatalf("no throughput for grouping %d", p.WorkersPerNode)
		}
	}
}

func TestAblateMultiWorkerUtilizationLoss(t *testing.T) {
	pts, err := AblateMultiWorker(16, []int{1, 2}, 7)
	if err != nil {
		t.Fatal(err)
	}
	k1, k2 := pts[0], pts[1]
	if k2.SlotAborts == 0 {
		t.Fatal("no slot-mismatch aborts with 2 slots per process")
	}
	// Single-root fork-join: only slot-0 workers can ever host work.
	if k2.BusyWorkers > 16/2 {
		t.Fatalf("slots=2 busy workers = %d, want <= 8", k2.BusyWorkers)
	}
	if k2.Tput >= k1.Tput {
		t.Fatalf("slots=2 should lower throughput: %.0f vs %.0f", k2.Tput, k1.Tput)
	}
}

func TestCSVExport(t *testing.T) {
	dir := t.TempDir()
	pts, err := Fig9(rdma.DefaultParams(), core.SPARCCosts().ClockHz, []int{8, 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFig9CSV(dir, pts); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(dir + "/fig9.csv")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 3 {
		t.Fatalf("fig9.csv lines: %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "bytes,read_cycles") {
		t.Fatalf("header: %q", lines[0])
	}
	// Table 4 + Fig 11 writers on tiny data.
	rows, err := Table4(8, "tiny", 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteTable4CSV(dir, rows); err != nil {
		t.Fatal(err)
	}
	spec := workloads.BTC(8, 1, 0)
	sp, err := ScalingSweep(spec, []int{4, 8}, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFig11CSV(dir, "fig11a", []Fig11Curve{{Label: "x", Points: sp}}); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"table4.csv", "fig11a.csv"} {
		if _, err := os.Stat(dir + "/" + f); err != nil {
			t.Fatalf("%s missing: %v", f, err)
		}
	}
}

func TestAblateHelpFirst(t *testing.T) {
	pts, err := AblateHelpFirst(12, 5)
	if err != nil {
		t.Fatal(err)
	}
	wf, hf := pts[0], pts[1]
	if wf.Steals == 0 || hf.Steals == 0 {
		t.Fatalf("steals: %+v", pts)
	}
	// Help-first steals move descriptors, far smaller than the padded
	// 2 KiB stacks work-first migrates.
	if hf.BytesPerSteal*4 > wf.BytesPerSteal {
		t.Fatalf("help-first payload %d not ≪ work-first %d", hf.BytesPerSteal, wf.BytesPerSteal)
	}
}

func TestEfficiencyTrendRises(t *testing.T) {
	// A deterministic simulator run — virtual time, its own Machine — so it
	// can share the host with its like.
	t.Parallel()
	pts, err := EfficiencyTrend([]uint64{13, 17}, 10, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if pts[1].Efficiency <= pts[0].Efficiency {
		t.Fatalf("efficiency did not rise with problem size: %.2f -> %.2f",
			pts[0].Efficiency, pts[1].Efficiency)
	}
	if pts[1].TasksPerWorker <= pts[0].TasksPerWorker {
		t.Fatal("tasks/worker not increasing")
	}
}

func TestReportRendering(t *testing.T) {
	spec := workloads.BTC(9, 1, 0)
	cfg := core.DefaultConfig(6)
	cfg.Obs = true
	m, res, err := spec.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	ReportRun(&buf, m, m.Obs().Export(), spec.Items(res))
	out := buf.String()
	for _, want := range []string{"run: 6 workers", "throughput:", "steals:", "peak uni-address", "utilization:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	ReportWorkers(&buf, m)
	if lines := strings.Count(buf.String(), "\n"); lines != 7 { // header + 6 workers
		t.Fatalf("worker table lines = %d:\n%s", lines, buf.String())
	}
}

func TestReportRunIsoVariant(t *testing.T) {
	spec := workloads.BTC(8, 1, 0)
	cfg := core.DefaultConfig(4)
	cfg.Scheme = core.SchemeIso
	m, res, err := spec.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	ReportRun(&buf, m, m.Obs().Export(), spec.Items(res))
	if !strings.Contains(buf.String(), "page faults") {
		t.Fatalf("iso report missing fault line:\n%s", buf.String())
	}
}

func TestAblateStragglerAbsorbed(t *testing.T) {
	pts, err := AblateStraggler(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts[1:] {
		// Work stealing must land clearly above the static-partition
		// bound and within reach of the capacity bound.
		if p.RelToUniform <= p.StaticRel {
			t.Fatalf("%s: rel %.2f not above static bound %.2f", p.Label, p.RelToUniform, p.StaticRel)
		}
		if p.RelToUniform < 0.7*p.CapacityRel {
			t.Fatalf("%s: rel %.2f far below capacity %.2f", p.Label, p.RelToUniform, p.CapacityRel)
		}
	}
}

func TestJSONReportRoundTrip(t *testing.T) {
	spec := workloads.BTC(8, 1, 0)
	cfg := core.DefaultConfig(4)
	cfg.Obs = true
	m, res, err := spec.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := BuildRunReport(m, m.Obs().Export(), spec.Items(res))
	if r.Tasks != spec.Expected || r.Throughput <= 0 {
		t.Fatalf("report: %+v", r)
	}
	if r.UtilizationWork <= 0 {
		t.Fatal("trace utilization missing from report")
	}
	var buf bytes.Buffer
	if err := WriteJSONReport(&buf, r); err != nil {
		t.Fatal(err)
	}
	var back RunReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Tasks != r.Tasks || back.Scheme != "uni-address" {
		t.Fatalf("round trip: %+v", back)
	}
}

func TestAblateLifelines(t *testing.T) {
	pts, err := AblateLifelines(12, 4)
	if err != nil {
		t.Fatal(err)
	}
	random, ll := pts[0], pts[1]
	if ll.Pushes == 0 {
		t.Fatal("lifeline mode pushed nothing")
	}
	if ll.FailedProbes >= random.FailedProbes {
		t.Fatalf("lifelines did not cut failed probes: %d vs %d", ll.FailedProbes, random.FailedProbes)
	}
}
