package workloads

import (
	"encoding/binary"
	"fmt"

	"uniaddr/internal/core"
	"uniaddr/internal/gas"
	"uniaddr/internal/mem"
)

// GlobalSum is a PGAS mini-application exercising the global address
// space library the paper's memory model depends on (§5.1): a uint64
// array is block-distributed over every process's global-heap segment,
// and a divide-and-conquer task tree sums it. Leaf tasks dereference
// global references — cheap local copies when the block lives on the
// executing worker, one-sided RDMA READs otherwise — so data traffic
// interacts with task migration exactly as in a real PGAS program: a
// leaf that would have read locally reads remotely after being stolen.
//
// Frame slots: 0=lo, 1=hi (element indices), 2=elemsPerRank, 3=chunk,
// 4=h1, 5=h2, 6=acc; a chunk·8-byte staging buffer sits at offset 64.
const (
	gsLo     = 0
	gsHi     = 1
	gsPer    = 2
	gsChunk  = 3
	gsH1     = 4
	gsH2     = 5
	gsAcc    = 6
	gsBufOff = 64
)

func gsLocals(chunk uint64) uint32 { return uint32(gsBufOff + chunk*8) }

var gsFID core.FuncID

func init() { gsFID = core.Register("global-sum", gsTask) }

// gsRef returns the global reference of the element with global index
// i under a block distribution of per elements per rank.
func gsRef(i, per uint64) gas.Ref {
	return gas.MakeRef(int(i/per), gas.DefaultBase+mem.VA(8*(i%per)))
}

func gsTask(e *core.Env) core.Status {
	rp := e.RP()
	for {
		switch rp {
		case 0:
			lo, hi := e.U64(gsLo), e.U64(gsHi)
			chunk := e.U64(gsChunk)
			if hi-lo <= chunk {
				// Leaf: fetch elements through global references, one
				// Get per same-rank run, and sum.
				per := e.U64(gsPer)
				var sum uint64
				for i := lo; i < hi; {
					runEnd := (i/per + 1) * per
					if runEnd > hi {
						runEnd = hi
					}
					n := runEnd - i
					buf := e.Bytes(gsBufOff, int(n*8))
					e.GasGet(gsRef(i, per), buf)
					for j := uint64(0); j < n; j++ {
						sum += binary.LittleEndian.Uint64(buf[j*8:])
					}
					i = runEnd
				}
				e.ReturnU64(sum)
				return core.Done
			}
			a := gsArgsOf(e)
			if !e.Spawn(1, gsH1, gsFID, uint32(e.FrameSize())-32, func(c *core.Env) { a.write(c, lo, (lo+hi)/2) }) {
				return core.Unwound
			}
			rp = 1
		case 1:
			lo, hi := e.U64(gsLo), e.U64(gsHi)
			a := gsArgsOf(e)
			if !e.Spawn(2, gsH2, gsFID, uint32(e.FrameSize())-32, func(c *core.Env) { a.write(c, (lo+hi)/2, hi) }) {
				return core.Unwound
			}
			rp = 2
		case 2:
			r, ok := e.Join(2, e.HandleAt(gsH1))
			if !ok {
				return core.Unwound
			}
			e.SetU64(gsAcc, e.U64(gsAcc)+r)
			rp = 3
		case 3:
			r, ok := e.Join(3, e.HandleAt(gsH2))
			if !ok {
				return core.Unwound
			}
			e.ReturnU64(e.U64(gsAcc) + r)
			return core.Done
		default:
			panic("global-sum: bad resume point")
		}
	}
}

// gsArgs is what a half inherits, read out of the parent before the
// spawn publishes it (by value, for the reason given at utsRangeArgs).
type gsArgs struct{ per, chunk uint64 }

func gsArgsOf(parent *core.Env) gsArgs {
	return gsArgs{parent.U64(gsPer), parent.U64(gsChunk)}
}

// write initialises the child summing [lo, hi).
func (a gsArgs) write(c *core.Env, lo, hi uint64) {
	c.SetU64(gsLo, lo)
	c.SetU64(gsHi, hi)
	c.SetU64(gsPer, a.per)
	c.SetU64(gsChunk, a.chunk)
}

// gsValue is the deterministic element generator (splitmix-style).
func gsValue(i uint64) uint64 {
	x := i + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return x % 1_000_003
}

// GlobalSumExpected computes the reference sum.
func GlobalSumExpected(elems uint64) uint64 {
	var s uint64
	for i := uint64(0); i < elems; i++ {
		s += gsValue(i)
	}
	return s
}

// GlobalSum builds the spec for a machine with the given worker count:
// elems uint64 values block-distributed over the workers' global-heap
// segments, summed in leaf chunks of chunk elements.
func GlobalSum(elems, chunk uint64, workers int) Spec {
	if chunk == 0 {
		chunk = 64
	}
	per := (elems + uint64(workers) - 1) / uint64(workers)
	return Spec{
		Name:   "GlobalSum",
		Fid:    gsFID,
		Locals: gsLocals(chunk),
		Setup: func(m *core.Machine) error {
			if m.Config().Workers != workers {
				return fmt.Errorf("globalsum: spec built for %d workers, machine has %d", workers, m.Config().Workers)
			}
			if per*8 > m.Config().GasSize {
				return fmt.Errorf("globalsum: %d elems/rank exceed the %s-byte gas segment", per, "configured")
			}
			buf := make([]byte, 8)
			for i := uint64(0); i < elems; i++ {
				binary.LittleEndian.PutUint64(buf, gsValue(i))
				h := m.Workers()[int(i/per)].Gas()
				if h == nil {
					return fmt.Errorf("globalsum: global heap disabled")
				}
				if err := h.StageLocal(gas.DefaultBase+mem.VA(8*(i%per)), buf); err != nil {
					return err
				}
			}
			return nil
		},
		Init: func(e *core.Env) {
			e.SetU64(gsLo, 0)
			e.SetU64(gsHi, elems)
			e.SetU64(gsPer, per)
			e.SetU64(gsChunk, chunk)
		},
		Expected: GlobalSumExpected(elems),
		Items:    func(r uint64) uint64 { return elems },
	}
}
