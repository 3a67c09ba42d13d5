package core

import (
	"testing"

	"uniaddr/internal/fault"
	"uniaddr/internal/mem"
	"uniaddr/internal/rdma"
	"uniaddr/internal/sim"
)

// Fuzz targets: byte-string-driven interleavings of the THE deque and
// fault-injection configurations of a chaos run (the region's stack
// discipline is fuzzed in internal/mem). `go test` runs the seed corpus
// as unit tests; `go test -fuzz=FuzzDequeInterleavings ./internal/core`
// explores further. Every finding reduces to a deterministic byte string.

// FuzzDequeInterleavings drives an owner and a thief with delays and
// operation choices taken from the fuzz input, and checks exactly-once
// delivery of every entry.
func FuzzDequeInterleavings(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0, 0, 0, 0, 255, 255, 255, 255})
	f.Add([]byte{10, 200, 30, 40, 7, 7, 7, 7, 90, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 256 {
			t.Skip()
		}
		eng := sim.NewEngine()
		params := rdma.DefaultParams()
		params.HardwareFAA = true // no comm server needed
		fab := rdma.NewFabric(eng, params)
		space0 := mem.NewAddressSpace("owner")
		fab.AddEndpoint(space0)
		space1 := mem.NewAddressSpace("thief")
		fab.AddEndpoint(space1)
		d, err := NewDeque(space0, DefaultDequeBase, 64)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewDeque(space1, DefaultDequeBase, 64); err != nil {
			t.Fatal(err)
		}
		taken := map[uint64]int{}
		const total = 12
		eng.Spawn("owner", func(p *sim.Proc) {
			next := uint64(1)
			live := 0
			k := 0
			for next <= total || live > 0 {
				b := data[k%len(data)]
				k++
				if next <= total && (live == 0 || b%2 == 0) {
					if err := d.Push(Entry{FrameBase: mem.VA(next), FrameSize: next}); err == nil {
						next++
						live++
					}
				} else if e, ok := d.Pop(p, fab.Endpoint(0), 0); ok {
					taken[e.FrameSize]++
					live--
				} else {
					live = 0
				}
				p.Advance(uint64(b) * 37)
			}
			p.Advance(100_000)
		})
		eng.Spawn("thief", func(p *sim.Proc) {
			k := 0
			for i := 0; i < 200; i++ {
				b := data[(k+i)%len(data)]
				var ph StealPhases
				e, out := d.StealRemote(p, fab.Endpoint(1), 0, &ph, nil)
				if out == StealOK {
					taken[e.FrameSize]++
					d.Unlock(p, fab.Endpoint(1), 0, &ph)
				}
				p.Advance(uint64(b)*53 + 1)
			}
		})
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		for i := uint64(1); i <= total; i++ {
			if taken[i] != 1 {
				t.Fatalf("entry %d taken %d times (input %v)", i, taken[i], data)
			}
		}
	})
}

// --- chaos fuzzing ---------------------------------------------------

// fuzzFib is the in-package fib task used by FuzzChaosFib (core_test's
// fib lives in the external test package and is not visible here).
// Frame slots: 0=n, 1=handle(fib(n-1)), 2=handle(fib(n-2)), 3=r1.
var fuzzFibFID FuncID

const fuzzFibLocals = 4 * 8

func init() { fuzzFibFID = Register("fuzz-chaos-fib", fuzzFibTask) }

func fuzzFibTask(e *Env) Status {
	switch e.RP() {
	case 0:
		n := e.I64(0)
		if n < 2 {
			e.ReturnI64(n)
			return Done
		}
		if !e.Spawn(1, 1, fuzzFibFID, fuzzFibLocals, func(c *Env) { c.SetI64(0, n-1) }) {
			return Unwound
		}
		fallthrough
	case 1:
		n := e.I64(0)
		if !e.Spawn(2, 2, fuzzFibFID, fuzzFibLocals, func(c *Env) { c.SetI64(0, n-2) }) {
			return Unwound
		}
		fallthrough
	case 2:
		r1, ok := e.Join(2, e.HandleAt(1))
		if !ok {
			return Unwound
		}
		e.SetU64(3, r1)
		fallthrough
	case 3:
		r2, ok := e.Join(3, e.HandleAt(2))
		if !ok {
			return Unwound
		}
		e.ReturnU64(e.U64(3) + r2)
		return Done
	}
	panic("fuzz-fib: bad resume point")
}

// FuzzChaosFib feeds arbitrary fault-injection configurations into a
// small fib run on 4 workers and checks the robustness contract: the
// run either completes with the correct result and a clean quiescence
// check, or fails with a reported error (the MaxCycles guard) — never
// a hang, never a silently wrong answer. Completed runs are replayed
// with the same seed and must reproduce result and virtual time
// exactly.
func FuzzChaosFib(f *testing.F) {
	f.Add(uint64(1), uint16(0), uint16(0), uint16(0), uint16(0), uint16(0), uint8(0), false)
	f.Add(uint64(7), uint16(33), uint16(33), uint16(33), uint16(33), uint16(50), uint8(2), false)
	f.Add(uint64(9), uint16(999), uint16(999), uint16(999), uint16(999), uint16(999), uint8(7), true)
	f.Add(uint64(42), uint16(0), uint16(0), uint16(0), uint16(500), uint16(0), uint8(0), false)
	f.Fuzz(func(t *testing.T, seed uint64, readP, writeP, faaP, dropP, spikeP uint16, brown uint8, hwFAA bool) {
		// Probabilities capped below 0.3: the contract is recovery from
		// lossy fabrics, not livelock-freedom at adversarial rates.
		prob := func(x uint16) float64 { return float64(x%1000) / 3334 }
		run := func() (uint64, uint64, error) {
			cfg := DefaultConfig(4)
			cfg.Seed = seed | 1
			cfg.MaxCycles = 1 << 31
			cfg.Net.HardwareFAA = hwFAA
			cfg.Fault = fault.Config{
				Seed:             seed*2 + 1,
				ReadFailProb:     prob(readP),
				WriteFailProb:    prob(writeP),
				FAAFailProb:      prob(faaP),
				ServerDropProb:   prob(dropP),
				SpikeProb:        prob(spikeP),
				SpikeMinCycles:   500,
				SpikeMaxCycles:   5_000,
				BrownoutDuration: uint64(brown%8) * 1_000,
			}
			m, err := NewMachine(cfg)
			if err != nil {
				t.Fatalf("config rejected: %v", err)
			}
			got, err := m.Run(fuzzFibFID, fuzzFibLocals, func(e *Env) { e.SetI64(0, 10) })
			if err != nil {
				return 0, 0, err
			}
			if err := m.CheckQuiescence(); err != nil {
				t.Fatalf("quiescence after recovery: %v", err)
			}
			return got, m.ElapsedCycles(), nil
		}
		got, elapsed, err := run()
		if err != nil {
			// A reported failure is within contract; log it so corpus
			// entries that trip the guard are visible.
			t.Logf("run failed cleanly: %v", err)
			return
		}
		const want = 55 // fib(10)
		if got != want {
			t.Fatalf("fib(10) = %d, want %d", got, want)
		}
		got2, elapsed2, err := run()
		if err != nil || got2 != got || elapsed2 != elapsed {
			t.Fatalf("same-seed replay diverged: result %d/%d cycles %d/%d err %v",
				got, got2, elapsed, elapsed2, err)
		}
	})
}
