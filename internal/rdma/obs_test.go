package rdma

import (
	"testing"

	"uniaddr/internal/obs"
	"uniaddr/internal/sim"
)

// TestEndpointStatsAtQuiescence pins the Stats quiescence contract:
// reading through the checked accessor mid-run panics, post-run it
// returns the same snapshot as the unchecked one.
func TestEndpointStatsAtQuiescence(t *testing.T) {
	eng, fab, _ := twoNodes(t, DefaultParams())
	var midRunPanicked bool
	eng.Spawn("probe", func(p *sim.Proc) {
		buf := make([]byte, 8)
		fab.Endpoint(0).Read(p, 1, 0x100040, buf)
		func() {
			defer func() {
				if recover() != nil {
					midRunPanicked = true
				}
			}()
			fab.Endpoint(0).StatsAtQuiescence()
		}()
	})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !midRunPanicked {
		t.Fatal("StatsAtQuiescence did not panic mid-run")
	}
	if fab.Endpoint(0).StatsAtQuiescence() != fab.Endpoint(0).Stats() {
		t.Fatal("post-run StatsAtQuiescence differs from Stats")
	}
	if fab.Endpoint(0).Stats().Reads != 1 {
		t.Fatalf("Reads = %d, want 1", fab.Endpoint(0).Stats().Reads)
	}
}

// TestEndpointOpLogging checks that fabric ops land in an attached
// worker log with issue time, latency and target.
func TestEndpointOpLogging(t *testing.T) {
	eng, fab, spaces := twoNodes(t, DefaultParams())
	rec := obs.NewRecorder(2, 64, eng.Now)
	fab.Endpoint(0).SetLog(rec.Worker(0))
	if _, err := spaces[1].Write(0x100040, []byte("12345678")); err != nil {
		t.Fatal(err)
	}
	eng.Spawn("init", func(p *sim.Proc) {
		buf := make([]byte, 8)
		fab.Endpoint(0).Read(p, 1, 0x100040, buf)
		fab.Endpoint(0).Write(p, 1, 0x100080, buf)
	})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	evs := rec.Export().Logs[0].Events
	if len(evs) != 2 {
		t.Fatalf("logged %d events, want 2", len(evs))
	}
	if evs[0].Kind != obs.KRead || evs[1].Kind != obs.KWrite {
		t.Fatalf("kinds = %v, %v", evs[0].Kind, evs[1].Kind)
	}
	for _, e := range evs {
		if e.Peer != 1 {
			t.Errorf("%v targeted peer %d, want 1", e.Kind, e.Peer)
		}
		if e.Arg != 8 {
			t.Errorf("%v moved %d bytes, want 8", e.Kind, e.Arg)
		}
		if e.Dur == 0 {
			t.Errorf("%v has zero latency", e.Kind)
		}
		if e.Failed() {
			t.Errorf("%v marked failed on a clean fabric", e.Kind)
		}
	}
	if evs[1].Time < evs[0].Time+evs[0].Dur {
		t.Error("write issued before the read completed")
	}
}
