package uniaddr_test

import (
	"context"
	"errors"
	"io"
	"slices"
	"strings"
	"testing"
	"time"

	"uniaddr"
)

// TestOptionCapabilityMatrix gives every exported option constructor to
// every entry point on every backend. Where the option applies, the
// cell must produce the oracle result; elsewhere, an
// UnsupportedOptionError naming the backend and the option. The
// expectations are written out here, not read from the production
// table.
func TestOptionCapabilityMatrix(t *testing.T) {
	const want = uint64(50 * 51 / 2)
	const all, none = "sim rt dist", ""
	for _, tc := range []struct {
		name  string
		opt   func(backend string) uniaddr.Option
		named string // the Option an UnsupportedOptionError names
		// The backends that take the option at Run, NewService and Submit.
		run, service, submit string
	}{
		{"WithBackend", uniaddr.WithBackend, "WithBackend", all, all, none},
		{"WithWorkers", func(string) uniaddr.Option { return uniaddr.WithWorkers(2) }, "WithWorkers", all, all, none},
		{"WithSeed", func(string) uniaddr.Option { return uniaddr.WithSeed(3) }, "WithSeed", all, all, "sim dist"},
		{"WithCosts", func(string) uniaddr.Option { return uniaddr.WithCosts(uniaddr.XeonCosts()) }, "WithCosts", "sim", "sim", none},
		{"WithNet", func(string) uniaddr.Option { return uniaddr.WithNet(uniaddr.DefaultNetParams()) }, "WithNet", "sim", "sim", none},
		{"WithFault", func(string) uniaddr.Option { return uniaddr.WithFault(uniaddr.FaultConfig{}) }, "WithFault", all, all, none},
		{"WithObs", func(string) uniaddr.Option { return uniaddr.WithObs(true) }, "WithObs", all, all, none},
		{"WithTrace", func(string) uniaddr.Option { return uniaddr.WithTrace(io.Discard) }, "WithTrace", all, "rt", "sim dist"},
		{"WithMaxWall", func(string) uniaddr.Option { return uniaddr.WithMaxWall(time.Minute) }, "WithMaxWall", all, "rt", all},
		{"WithGrain", func(string) uniaddr.Option { return uniaddr.WithGrain(4) }, "WithGrain", all, none, all},
		{"WithStealBatch", func(string) uniaddr.Option { return uniaddr.WithStealBatch(1) }, "WithStealBatch", "rt dist", "rt dist", none},
		{"WithTierGroup", func(string) uniaddr.Option { return uniaddr.WithTierGroup(2) }, "WithTierGroup", "rt dist", "rt dist", none},
		{"ServiceBackend", uniaddr.ServiceBackend, "WithBackend", all, all, none},
		{"ServiceWorkers", func(string) uniaddr.Option { return uniaddr.ServiceWorkers(2) }, "WithWorkers", all, all, none},
		{"ServiceSeed", func(string) uniaddr.Option { return uniaddr.ServiceSeed(3) }, "WithSeed", all, all, "sim dist"},
		{"ServiceMaxJobs", func(string) uniaddr.Option { return uniaddr.ServiceMaxJobs(1) }, "ServiceMaxJobs", none, all, none},
		{"ServiceQueueDepth", func(string) uniaddr.Option { return uniaddr.ServiceQueueDepth(4) }, "ServiceQueueDepth", none, all, none},
		{"JobMaxWall", func(string) uniaddr.Option { return uniaddr.JobMaxWall(time.Minute) }, "WithMaxWall", all, "rt", all},
		{"JobWeight", func(string) uniaddr.Option { return uniaddr.JobWeight(2) }, "JobWeight", none, none, all},
	} {
		for _, backend := range []string{uniaddr.BackendSim, uniaddr.BackendRT, uniaddr.BackendDist} {
			for _, at := range []struct {
				name  string
				takes string
			}{{"Run", tc.run}, {"NewService", tc.service}, {"Submit", tc.submit}} {
				t.Run(tc.name+"/"+backend+"/"+at.name, func(t *testing.T) {
					takes := slices.Contains(strings.Fields(at.takes), backend)
					if takes && backend == uniaddr.BackendDist && testing.Short() {
						t.Skip("multi-process run skipped in -short mode")
					}
					rep, err := optionCell(at.name, backend, tc.opt(backend))
					if !takes {
						var uo *uniaddr.UnsupportedOptionError
						if !errors.As(err, &uo) {
							t.Fatalf("got %v, want *uniaddr.UnsupportedOptionError", err)
						}
						if uo.Backend != backend || uo.Option != tc.named {
							t.Fatalf("error names %s on %s, want %s on %s", uo.Option, uo.Backend, tc.named, backend)
						}
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					if rep.Root != want || rep.Backend != backend {
						t.Fatalf("root %d on %s, want %d on %s", rep.Root, rep.Backend, want, backend)
					}
				})
			}
		}
	}
}

// optionCell runs sum(1..50) on two workers of backend with opt given to
// entry point at: Run, NewService (then one plain job) or Submit (on a
// plain service).
func optionCell(at, backend string, opt uniaddr.Option) (uniaddr.Report, error) {
	base := []uniaddr.Option{uniaddr.WithBackend(backend), uniaddr.WithWorkers(2)}
	init := func(e *uniaddr.Env) { e.SetU64(0, 50) }
	if at == "Run" {
		return uniaddr.Run(dblFID, 3*8, init, append(base, opt)...)
	}
	var jobOpts []uniaddr.Option
	if at == "NewService" {
		base = append(base, opt)
	} else {
		jobOpts = []uniaddr.Option{opt}
	}
	svc, err := uniaddr.NewService(base...)
	if err != nil {
		return uniaddr.Report{}, err
	}
	var rep uniaddr.Report
	job, err := svc.Submit(context.Background(), dblFID, 3*8, init, jobOpts...)
	if err == nil {
		rep, err = job.Wait()
	}
	if cerr := svc.Close(); err == nil {
		err = cerr
	}
	return rep, err
}
