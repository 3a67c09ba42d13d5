package uniaddr_test

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"uniaddr"
	"uniaddr/internal/workloads"
)

// BenchmarkServiceBurst measures the rt Service where its idle policy
// decides latency: a submitter that pauses long enough for every worker
// to park, then issues a burst of Submits before it waits for any. One
// iteration is one burst of fib(10) jobs (177 tasks each, service_open's
// job). Reported per sub-benchmark, over every burst of the run:
//
//	submit_ns   mean wall time of one Submit call
//	job_us_p50  median Submit-to-Wait-return latency of a job
//	burst_us_p50 median first-Submit-to-last-Wait-return of a burst
//
// Run with -benchtime=1000x; compare two checkouts pair by pair.
func BenchmarkServiceBurst(b *testing.B) {
	spec := workloads.Fib(10, 0)
	for _, procs := range []int{1, 2} {
		for _, workers := range []int{1, 4} {
			for _, burst := range []int{1, 8} {
				name := fmt.Sprintf("procs=%d/workers=%d/burst=%d", procs, workers, burst)
				b.Run(name, func(b *testing.B) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					svc, err := uniaddr.NewService(uniaddr.ServiceBackend(uniaddr.BackendRT),
						uniaddr.ServiceWorkers(workers), uniaddr.ServiceMaxJobs(burst))
					if err != nil {
						b.Fatal(err)
					}
					defer svc.Close()
					jobs := make([]*uniaddr.Job, burst)
					starts := make([]time.Time, burst)
					lat := make([]float64, 0, b.N*burst)
					bursts := make([]float64, 0, b.N)
					var submit time.Duration
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						// Long enough for every worker to walk its spin
						// ladder and park.
						time.Sleep(200 * time.Microsecond)
						for k := range jobs {
							starts[k] = time.Now()
							jobs[k], err = svc.Submit(context.Background(), spec.Fid, spec.Locals, spec.Init)
							if err != nil {
								b.Fatal(err)
							}
							submit += time.Since(starts[k])
						}
						for k, j := range jobs {
							if rep, err := j.Wait(); err != nil || rep.Root != spec.Expected {
								b.Fatalf("root %d err %v, want %d", rep.Root, err, spec.Expected)
							}
							lat = append(lat, float64(time.Since(starts[k]).Nanoseconds())/1e3)
						}
						bursts = append(bursts, float64(time.Since(starts[0]).Nanoseconds())/1e3)
					}
					b.StopTimer()
					slices.Sort(lat)
					slices.Sort(bursts)
					b.ReportMetric(float64(submit.Nanoseconds())/float64(b.N*burst), "submit_ns")
					b.ReportMetric(lat[len(lat)/2], "job_us_p50")
					b.ReportMetric(bursts[len(bursts)/2], "burst_us_p50")
				})
			}
		}
	}
}
