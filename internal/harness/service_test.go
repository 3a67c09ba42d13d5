package harness

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestServiceBenchSmoke runs a small open-loop load-gen against a real
// pool and checks the report's internal consistency: every admitted
// job oracle-verified, zero mid-run worker exits, latency digests
// covering exactly the admitted jobs, and a round-trippable JSON form.
func TestServiceBenchSmoke(t *testing.T) {
	rep, err := RunServiceBench(ServiceBenchConfig{
		Workers: 2, QPS: 500, Jobs: 30, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OracleMismatches != 0 {
		t.Errorf("%d per-job reports diverged from the sequential oracle", rep.OracleMismatches)
	}
	if rep.WorkersExitedMidRun != 0 {
		t.Errorf("%d workers exited while jobs were in flight", rep.WorkersExitedMidRun)
	}
	if rep.Admitted+rep.Rejected != rep.Jobs {
		t.Errorf("admitted %d + rejected %d != %d arrivals", rep.Admitted, rep.Rejected, rep.Jobs)
	}
	if rep.Admitted == 0 {
		t.Fatal("no job was admitted")
	}
	for _, l := range []ServiceLatency{rep.QueueLatency, rep.ExecLatency, rep.TotalLatency} {
		if l.Count != uint64(rep.Admitted) {
			t.Errorf("latency digest covers %d jobs, want %d", l.Count, rep.Admitted)
		}
		if l.P50NS > l.P95NS || l.P95NS > l.P99NS || l.P99NS > l.MaxNS {
			t.Errorf("percentiles not monotone: p50 %d p95 %d p99 %d max %d", l.P50NS, l.P95NS, l.P99NS, l.MaxNS)
		}
	}
	if rep.DurationNS <= 0 || rep.AchievedQPS <= 0 {
		t.Errorf("duration %dns, achieved %.1f qps", rep.DurationNS, rep.AchievedQPS)
	}
	if rep.TasksExecuted == 0 {
		t.Error("no tasks executed")
	}
	if rep.GoVersion == "" || rep.GOOS == "" || rep.GOARCH == "" {
		t.Errorf("host provenance incomplete: %q %q/%q", rep.GoVersion, rep.GOOS, rep.GOARCH)
	}
	var buf bytes.Buffer
	if err := WriteServiceBenchJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	var back ServiceBenchReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Benchmark != "rt-service" || back.TotalLatency.Count != rep.TotalLatency.Count {
		t.Errorf("JSON round trip diverged: %+v", back)
	}
}

func TestServiceBenchRejectsBadConfig(t *testing.T) {
	for _, cfg := range []ServiceBenchConfig{
		{Workers: 0, QPS: 10, Jobs: 10},
		{Workers: 2, QPS: 0, Jobs: 10},
		{Workers: 2, QPS: 10, Jobs: 0},
	} {
		if _, err := RunServiceBench(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}
