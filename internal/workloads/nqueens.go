package workloads

import "uniaddr/internal/core"

// NQueens (§6.1, after BOTS): count the placements of N queens on an
// N×N board, searching row by row. The per-row column loop is
// binarised into range tasks (zero or two subtasks each), the paper's
// divide-and-conquer loop optimisation.
//
// The partial board travels inside the task frame — it is exactly the
// kind of stack-resident state whose bytes must survive migration
// unchanged, which is why NQueens has the third-largest uni-address
// footprint in Table 4.
//
// A task's result packs both reported quantities:
// solutions<<40 | nodes, where a "node" is one attempted placement.

// Range-task frame: slots 0=N, 1=row, 2=lo, 3=hi, 4=work, 5=h1, 6=h2,
// 7=acc; board bytes (one column index per placed row) at offset 64.
const (
	nqN        = 0
	nqRow      = 1
	nqLo       = 2
	nqHi       = 3
	nqWork     = 4
	nqH1       = 5
	nqH2       = 6
	nqAcc      = 7
	nqBoardOff = 64
)

func nqLocals(n uint64) uint32 { return uint32(nqBoardOff + n) }

// PackNQ packs (solutions, nodes) into one result word.
func PackNQ(solutions, nodes uint64) uint64 { return solutions<<40 | nodes }

// UnpackNQ splits a packed NQueens result.
func UnpackNQ(r uint64) (solutions, nodes uint64) { return r >> 40, r & (1<<40 - 1) }

var nqFID core.FuncID

func init() { nqFID = core.Register("nqueens-range", nqTask) }

// nqSafe reports whether placing a queen at (row, col) conflicts with
// the rows already on the board.
func nqSafe(board []byte, row, col uint64) bool {
	for r := uint64(0); r < row; r++ {
		c := uint64(board[r])
		if c == col {
			return false
		}
		d := row - r
		if c+d == col || c == col+d {
			return false
		}
	}
	return true
}

func nqTask(e *core.Env) core.Status {
	rp := e.RP()
	for {
		switch rp {
		case 0:
			n := e.U64(nqN)
			lo, hi := e.U64(nqLo), e.U64(nqHi)
			if row := e.U64(nqRow); grainCutoff(e, nqGrainAuto) >= n-row {
				// Coalesce: ≤cutoff rows left — search the remaining
				// board inline. Every attempted placement charges one
				// task's work, exactly as the spawned tree would.
				sol, nodes := nqRangeWalk(e.Bytes(nqBoardOff, int(n)), n, row, lo, hi)
				if w := e.U64(nqWork); w > 0 && nodes > 0 {
					e.Work(w * nodes)
				}
				e.ReturnU64(PackNQ(sol, nodes))
				return core.Done
			}
			if hi-lo > 1 {
				row, mid := e.U64(nqRow), (lo+hi)/2
				if !e.Spawn(1, nqH1, nqFID, nqLocals(n), func(c *core.Env) { nqChild(c, e, row, lo, mid) }) {
					return core.Unwound
				}
				rp = 1
				continue
			}
			// Single column: try the placement.
			if w := e.U64(nqWork); w > 0 {
				e.Work(w)
			}
			row, col := e.U64(nqRow), lo
			board := e.Bytes(nqBoardOff, int(n))
			if !nqSafe(board, row, col) {
				e.ReturnU64(PackNQ(0, 1))
				return core.Done
			}
			if row == n-1 {
				e.ReturnU64(PackNQ(1, 1))
				return core.Done
			}
			board[row] = byte(col)
			if !e.Spawn(4, nqH1, nqFID, nqLocals(n), func(c *core.Env) { nqChild(c, e, row+1, 0, n) }) {
				return core.Unwound
			}
			rp = 4
		case 1:
			n := e.U64(nqN)
			row, lo, hi := e.U64(nqRow), e.U64(nqLo), e.U64(nqHi)
			if !e.Spawn(2, nqH2, nqFID, nqLocals(n), func(c *core.Env) { nqChild(c, e, row, (lo+hi)/2, hi) }) {
				return core.Unwound
			}
			rp = 2
		case 2:
			r, ok := e.Join(2, e.HandleAt(nqH1))
			if !ok {
				return core.Unwound
			}
			e.SetU64(nqAcc, e.U64(nqAcc)+r)
			rp = 3
		case 3:
			r, ok := e.Join(3, e.HandleAt(nqH2))
			if !ok {
				return core.Unwound
			}
			e.ReturnU64(e.U64(nqAcc) + r)
			return core.Done
		case 4:
			// Placement accepted: add the subtree below this row.
			r, ok := e.Join(4, e.HandleAt(nqH1))
			if !ok {
				return core.Unwound
			}
			e.ReturnU64(PackNQ(0, 1) + r)
			return core.Done
		default:
			panic("nqueens: bad resume point")
		}
	}
}

// nqChild initialises child c of parent p to search columns [lo,hi) of
// row on p's board — a column sub-range of p's row, or the full range
// of the next one. It runs as Spawn's init, after p's continuation is
// published, and copies straight from p's frame: a thief only ever
// READS the local copy, which stays in place until Spawn's failed pop.
func nqChild(c, p *core.Env, row, lo, hi uint64) {
	n := p.U64(nqN)
	c.SetU64(nqN, n)
	c.SetU64(nqRow, row)
	c.SetU64(nqLo, lo)
	c.SetU64(nqHi, hi)
	c.SetU64(nqWork, p.U64(nqWork))
	copy(c.Bytes(nqBoardOff, int(n)), p.Bytes(nqBoardOff, int(n)))
}

// nqRangeWalk searches columns [lo,hi) of row and everything below
// sequentially, against a private copy of the partial board — the
// inline-path analogue of one range task's whole subtree. Counting
// conventions match the task program exactly: every attempted
// placement is one node.
func nqRangeWalk(board []byte, n, row, lo, hi uint64) (solutions, nodes uint64) {
	b := make([]byte, n)
	copy(b, board)
	var rec func(row, lo, hi uint64)
	rec = func(row, lo, hi uint64) {
		for col := lo; col < hi; col++ {
			nodes++
			if !nqSafe(b, row, col) {
				continue
			}
			if row == n-1 {
				solutions++
				continue
			}
			b[row] = byte(col)
			rec(row+1, 0, n)
		}
	}
	rec(row, lo, hi)
	return solutions, nodes
}

// NQueensSequential returns the exact (solutions, nodes) for N with the
// same node-counting convention as the task program.
func NQueensSequential(n uint64) (solutions, nodes uint64) {
	board := make([]byte, n)
	var rec func(row uint64)
	rec = func(row uint64) {
		for col := uint64(0); col < n; col++ {
			nodes++
			if !nqSafe(board, row, col) {
				continue
			}
			if row == n-1 {
				solutions++
				continue
			}
			board[row] = byte(col)
			rec(row + 1)
		}
	}
	rec(0)
	return solutions, nodes
}

// NQueens builds an NQueens spec. work is the simulated cost per
// placement attempt in cycles.
func NQueens(n, work uint64) Spec {
	sol, nodes := NQueensSequential(n)
	return Spec{
		Name:   "NQueens",
		Fid:    nqFID,
		Locals: nqLocals(n),
		Init: func(e *core.Env) {
			e.SetU64(nqN, n)
			e.SetU64(nqRow, 0)
			e.SetU64(nqLo, 0)
			e.SetU64(nqHi, n)
			e.SetU64(nqWork, work)
		},
		Expected: PackNQ(sol, nodes),
		Items:    func(r uint64) uint64 { _, nd := UnpackNQ(r); return nd },
	}
}
