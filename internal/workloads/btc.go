package workloads

import "uniaddr/internal/core"

// Binary Task Creation (§6.1): a task of depth d repeats iter times
// spawning two children of depth d-1 and joining both. With iter ≥ 2
// parallelism grows and shrinks rapidly, stressing load balancing.
//
// Frame slots:
//
//	0 depth   1 iter   2 i (loop counter)   3 h1   4 h2
//	5 acc (task count of the subtree so far)   6 work (cycles/task)
const (
	btcDepth = iota
	btcIter
	btcI
	btcH1
	btcH2
	btcAcc
	btcWork
	btcSlots
)

const btcLocals = btcSlots * 8

var btcFID core.FuncID

func init() { btcFID = core.Register("btc", btcTask) }

func btcTask(e *core.Env) core.Status {
	rp := e.RP()
	for {
		switch rp {
		case 0:
			if w := e.U64(btcWork); w > 0 {
				e.Work(w)
			}
			if e.U64(btcDepth) == 0 {
				e.ReturnU64(1)
				return core.Done
			}
			if d := e.U64(btcDepth); grainCutoff(e, btcGrainAuto) >= d {
				// Coalesce: the whole depth-d subtree inline. It holds
				// BTCTaskCount(d, iter) tasks; one task's work was
				// charged above, so charge the rest.
				count := BTCTaskCount(d, e.U64(btcIter))
				if w := e.U64(btcWork); w > 0 && count > 1 {
					e.Work(w * (count - 1))
				}
				e.ReturnU64(count)
				return core.Done
			}
			e.SetU64(btcAcc, 1)
			e.SetU64(btcI, 0)
			rp = 1
		case 1:
			if e.U64(btcI) >= e.U64(btcIter) {
				e.ReturnU64(e.U64(btcAcc))
				return core.Done
			}
			// Children inherit the parent's frame size, so padded
			// variants (see BTCPadded) pad the whole tree.
			locals := uint32(e.FrameSize()) - 32
			a := btcArgsOf(e)
			if !e.Spawn(2, btcH1, btcFID, locals, func(c *core.Env) { a.write(c) }) {
				return core.Unwound
			}
			rp = 2
		case 2:
			locals := uint32(e.FrameSize()) - 32
			a := btcArgsOf(e)
			if !e.Spawn(3, btcH2, btcFID, locals, func(c *core.Env) { a.write(c) }) {
				return core.Unwound
			}
			rp = 3
		case 3:
			r, ok := e.Join(3, e.HandleAt(btcH1))
			if !ok {
				return core.Unwound
			}
			e.SetU64(btcAcc, e.U64(btcAcc)+r)
			rp = 4
		case 4:
			r, ok := e.Join(4, e.HandleAt(btcH2))
			if !ok {
				return core.Unwound
			}
			e.SetU64(btcAcc, e.U64(btcAcc)+r)
			e.SetU64(btcI, e.U64(btcI)+1)
			rp = 1
		default:
			panic("btc: bad resume point")
		}
	}
}

// btcArgs is what a child inherits, read out of the parent before the
// spawn publishes it (by value, for the reason given at utsRangeArgs).
type btcArgs struct{ depth, iter, work uint64 }

func btcArgsOf(parent *core.Env) btcArgs {
	return btcArgs{parent.U64(btcDepth), parent.U64(btcIter), parent.U64(btcWork)}
}

// write stores the inherited parameters with depth-1.
func (a btcArgs) write(c *core.Env) {
	c.SetU64(btcDepth, a.depth-1)
	c.SetU64(btcIter, a.iter)
	c.SetU64(btcWork, a.work)
}

// BTCTaskCount returns the exact number of tasks in a BTC(depth, iter)
// run: T(0)=1, T(d)=1+2·iter·T(d-1).
func BTCTaskCount(depth, iter uint64) uint64 {
	var t uint64 = 1
	for d := uint64(0); d < depth; d++ {
		t = 1 + 2*iter*t
	}
	return t
}

// BTC builds a Binary Task Creation spec. work is the simulated
// compute cost per task in cycles (0 for the pure tasking benchmark).
func BTC(depth, iter, work uint64) Spec {
	return BTCPadded(depth, iter, work, 0)
}

// BTCPadded is BTC with every task frame padded so each stack occupies
// about stackBytes bytes — used by the migration-cost experiments, which
// follow the paper in moving ≈3055-byte stacks.
func BTCPadded(depth, iter, work, stackBytes uint64) Spec {
	locals := uint32(btcLocals)
	if stackBytes > 32+uint64(locals) {
		locals = uint32(stackBytes - 32)
	}
	return Spec{
		Name:   "BTC",
		Fid:    btcFID,
		Locals: locals,
		Init: func(e *core.Env) {
			e.SetU64(btcDepth, depth)
			e.SetU64(btcIter, iter)
			e.SetU64(btcWork, work)
		},
		Expected: BTCTaskCount(depth, iter),
		Items:    func(r uint64) uint64 { return r },
	}
}
