package workloads

import (
	"crypto/sha1"
	"encoding/binary"

	"uniaddr/internal/core"
)

// Unbalanced Tree Search (§6.1, [23]): traverse an unpredictable tree
// whose shape is derived from a splittable cryptographic hash, so any
// process can expand any subtree deterministically. Mirroring the
// paper's configuration (-t 1 -r <seed> -b 4 -a 3), every node has 0–4
// children drawn from a truncated geometric distribution
// (P(K ≥ j) = q^j, j ≤ 4) and the tree is cut off at a fixed depth.
//
// As in the paper, the child loop is binarised into divide-and-conquer
// range tasks so each task generates zero or two subtasks.

// descLen is the UTS node descriptor size (SHA-1 digest).
const descLen = sha1.Size

// utsChildDesc derives child i's descriptor.
func utsChildDesc(parent []byte, i uint32) [descLen]byte {
	var buf [descLen + 4]byte
	copy(buf[:descLen], parent)
	binary.LittleEndian.PutUint32(buf[descLen:], i)
	return sha1.Sum(buf[:])
}

// utsRootDesc derives the root descriptor from a seed (-r).
func utsRootDesc(seed uint64) [descLen]byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], seed)
	return sha1.Sum(b[:])
}

// GeomQForMean solves q in P(K ≥ j) = q^j (j = 1..4, truncated at 4)
// so that E[K] = q+q²+q³+q⁴ equals mean (clamped to [0,4]). Bisection
// over float64 is bit-deterministic, so every process derives the same
// tree.
func GeomQForMean(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	if mean >= 4 {
		return 1
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 50; i++ {
		q := (lo + hi) / 2
		e := q + q*q + q*q*q + q*q*q*q
		if e < mean {
			lo = q
		} else {
			hi = q
		}
	}
	return (lo + hi) / 2
}

// utsChildCount maps a node's descriptor to its child count following
// the UTS geometric tree with linear shape (-t 1 -a 3): the expected
// branching factor decreases linearly from b0 at the root to 0 at the
// cutoff depth, and counts are capped at 4 ("nodes have 0-4 child
// nodes", §6.1).
func utsChildCount(desc []byte, depth, cutoff uint64, b0 uint64) uint64 {
	if depth >= cutoff {
		return 0
	}
	mean := float64(b0) * (1 - float64(depth)/float64(cutoff))
	q := GeomQForMean(mean)
	qfix := uint64(q * (1 << 32))
	if qfix >= 1<<32 {
		qfix = 1<<32 - 1
	}
	r := uint64(binary.LittleEndian.Uint32(desc[:4]))
	thr := qfix
	var k uint64
	for k < 4 && r < thr {
		k++
		thr = thr * qfix >> 32
	}
	return k
}

// DefaultUTSB0 is the paper's root branching factor (-b 4).
const DefaultUTSB0 = 4

// Node-task frame: bytes 0–23 descriptor (20 used), then slots
// 3=depth, 4=cutoff, 5=b0, 6=work, 7=range handle.
const (
	utsDepth      = 3
	utsCut        = 4
	utsB0         = 5
	utsWork       = 6
	utsH          = 7
	utsNodeLocals = 8 * 8
)

// Range-task frame: bytes 0–23 parent descriptor, slots 3..6 as above,
// 7=lo, 8=hi, 9=h1, 10=h2, 11=acc.
const (
	utsLo          = 7
	utsHi          = 8
	utsRH1         = 9
	utsRH2         = 10
	utsAcc         = 11
	utsRangeLocals = 12 * 8
)

var (
	utsNodeFID  core.FuncID
	utsRangeFID core.FuncID
)

func init() {
	utsNodeFID = core.Register("uts-node", utsNodeTask)
	utsRangeFID = core.Register("uts-range", utsRangeTask)
}

func utsNodeTask(e *core.Env) core.Status {
	switch e.RP() {
	case 0:
		if w := e.U64(utsWork); w > 0 {
			e.Work(w)
		}
		desc := e.Bytes(0, descLen)
		if d, cut := e.U64(utsDepth), e.U64(utsCut); d <= cut {
			if g := grainCutoff(e, utsGrainAuto); g > 0 && cut-d <= g {
				// Coalesce: ≤g remaining levels — walk the subtree
				// inline. Only node tasks charge work (range tasks are
				// free), and this node's share was charged above.
				nodes := utsSubtreeNodes(desc, d, cut, e.U64(utsB0))
				if w := e.U64(utsWork); w > 0 && nodes > 1 {
					e.Work(w * (nodes - 1))
				}
				e.ReturnU64(nodes)
				return core.Done
			}
		}
		k := utsChildCount(desc, e.U64(utsDepth), e.U64(utsCut), e.U64(utsB0))
		if k == 0 {
			e.ReturnU64(1)
			return core.Done
		}
		a := utsRangeArgsOf(e)
		if !e.Spawn(1, utsH, utsRangeFID, utsRangeLocals, func(c *core.Env) { a.write(c, 0, k) }) {
			return core.Unwound
		}
		fallthrough
	case 1:
		r, ok := e.Join(1, e.HandleAt(utsH))
		if !ok {
			return core.Unwound
		}
		e.ReturnU64(1 + r)
		return core.Done
	}
	panic("uts-node: bad resume point")
}

func utsRangeTask(e *core.Env) core.Status {
	rp := e.RP()
	for {
		switch rp {
		case 0:
			lo, hi := e.U64(utsLo), e.U64(utsHi)
			if hi-lo == 1 {
				// Leaf range: expand one child node.
				cd := utsChildDesc(e.Bytes(0, descLen), uint32(lo))
				depth, cut, b0, work := e.U64(utsDepth), e.U64(utsCut), e.U64(utsB0), e.U64(utsWork)
				if !e.Spawn(3, utsRH1, utsNodeFID, utsNodeLocals, func(c *core.Env) {
					copy(c.Bytes(0, descLen), cd[:])
					c.SetU64(utsDepth, depth+1)
					c.SetU64(utsCut, cut)
					c.SetU64(utsB0, b0)
					c.SetU64(utsWork, work)
				}) {
					return core.Unwound
				}
				rp = 3
				continue
			}
			a := utsRangeArgsOf(e)
			if !e.Spawn(1, utsRH1, utsRangeFID, utsRangeLocals, func(c *core.Env) { a.write(c, lo, (lo+hi)/2) }) {
				return core.Unwound
			}
			rp = 1
		case 1:
			lo, hi := e.U64(utsLo), e.U64(utsHi)
			a := utsRangeArgsOf(e)
			if !e.Spawn(2, utsRH2, utsRangeFID, utsRangeLocals, func(c *core.Env) { a.write(c, (lo+hi)/2, hi) }) {
				return core.Unwound
			}
			rp = 2
		case 2:
			r, ok := e.Join(2, e.HandleAt(utsRH1))
			if !ok {
				return core.Unwound
			}
			e.SetU64(utsAcc, e.U64(utsAcc)+r)
			rp = 4
		case 3:
			// Leaf join: a single child node's subtree.
			r, ok := e.Join(3, e.HandleAt(utsRH1))
			if !ok {
				return core.Unwound
			}
			e.ReturnU64(r)
			return core.Done
		case 4:
			r, ok := e.Join(4, e.HandleAt(utsRH2))
			if !ok {
				return core.Unwound
			}
			e.ReturnU64(e.U64(utsAcc) + r)
			return core.Done
		default:
			panic("uts-range: bad resume point")
		}
	}
}

// utsRangeArgs is what a range task inherits from the node or range
// spawning it, read out of the parent before the spawn publishes it.
// Spawn sites pass a literal that calls write: a function that RETURNED
// the init closure would heap-allocate it (and its captures) per spawn.
type utsRangeArgs struct {
	desc                 [descLen]byte
	depth, cut, b0, work uint64
}

func utsRangeArgsOf(parent *core.Env) (a utsRangeArgs) {
	copy(a.desc[:], parent.Bytes(0, descLen))
	a.depth, a.cut, a.b0, a.work = parent.U64(utsDepth), parent.U64(utsCut), parent.U64(utsB0), parent.U64(utsWork)
	return a
}

// write initialises a range task over children [lo, hi).
func (a *utsRangeArgs) write(c *core.Env, lo, hi uint64) {
	copy(c.Bytes(0, descLen), a.desc[:])
	c.SetU64(utsDepth, a.depth)
	c.SetU64(utsCut, a.cut)
	c.SetU64(utsB0, a.b0)
	c.SetU64(utsWork, a.work)
	c.SetU64(utsLo, lo)
	c.SetU64(utsHi, hi)
}

// utsSubtreeNodes counts the geometric-tree subtree rooted at an
// arbitrary node (inclusive) — the inline-path analogue of
// UTSSequential, which always starts at the root.
func utsSubtreeNodes(desc []byte, depth, cutoff, b0 uint64) uint64 {
	type item struct {
		desc  [descLen]byte
		depth uint64
	}
	var root item
	copy(root.desc[:], desc)
	root.depth = depth
	stack := []item{root}
	var nodes uint64
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nodes++
		k := utsChildCount(it.desc[:], it.depth, cutoff, b0)
		for i := uint64(0); i < k; i++ {
			stack = append(stack, item{utsChildDesc(it.desc[:], uint32(i)), it.depth + 1})
		}
	}
	return nodes
}

// UTSSequential walks the tree iteratively and returns the exact node
// count.
func UTSSequential(seed, cutoff, b0 uint64) uint64 {
	type item struct {
		desc  [descLen]byte
		depth uint64
	}
	stack := []item{{utsRootDesc(seed), 0}}
	var nodes uint64
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nodes++
		k := utsChildCount(it.desc[:], it.depth, cutoff, b0)
		for i := uint64(0); i < k; i++ {
			stack = append(stack, item{utsChildDesc(it.desc[:], uint32(i)), it.depth + 1})
		}
	}
	return nodes
}

// UTS builds an Unbalanced Tree Search spec with the given seed, depth
// cutoff, root branching factor and per-node work cost. Expected is
// computed by the sequential reference.
func UTS(seed, cutoff, b0, work uint64) Spec {
	root := utsRootDesc(seed)
	return Spec{
		Name:   "UTS",
		Fid:    utsNodeFID,
		Locals: utsNodeLocals,
		Init: func(e *core.Env) {
			copy(e.Bytes(0, descLen), root[:])
			e.SetU64(utsDepth, 0)
			e.SetU64(utsCut, cutoff)
			e.SetU64(utsB0, b0)
			e.SetU64(utsWork, work)
		},
		Expected: UTSSequential(seed, cutoff, b0),
		Items:    func(r uint64) uint64 { return r },
	}
}

// utsBinomialChildCount implements the UTS *binomial* tree variant
// (-t 0): the root has b0 children; every other node has m children
// with probability q and none with probability 1-q (q·m < 1 keeps the
// tree finite; E[size] = b0/(1-q·m) + 1). Unlike the geometric tree it
// has no depth cutoff — imbalance comes purely from chance, which makes
// it the classic stress test for dynamic load balancing.
func utsBinomialChildCount(desc []byte, depth, b0, m uint64, qfix uint64) uint64 {
	if depth == 0 {
		return b0
	}
	r := uint64(binary.LittleEndian.Uint32(desc[4:8]))
	if r < qfix {
		return m
	}
	return 0
}

// Binomial-tree node frame reuses the geometric layout; slot utsB0
// packs b0 (high 16), m (high 8 of low 48)… kept simpler: slots 3=depth,
// 4=qfix, 5=b0<<8|m, 6=work, 7=handle.

var utsBinNodeFID core.FuncID

func init() { utsBinNodeFID = core.Register("uts-binomial-node", utsBinNodeTask) }

func utsBinNodeTask(e *core.Env) core.Status {
	switch e.RP() {
	case 0:
		if w := e.U64(utsWork); w > 0 {
			e.Work(w)
		}
		desc := e.Bytes(0, descLen)
		packed := e.U64(utsB0)
		b0, m := packed>>8, packed&0xff
		k := utsBinomialChildCount(desc, e.U64(utsDepth), b0, m, e.U64(utsCut))
		if k == 0 {
			e.ReturnU64(1)
			return core.Done
		}
		a := utsRangeArgsOf(e)
		if !e.Spawn(1, utsH, utsBinRangeFID, utsRangeLocals, func(c *core.Env) { a.write(c, 0, k) }) {
			return core.Unwound
		}
		fallthrough
	case 1:
		r, ok := e.Join(1, e.HandleAt(utsH))
		if !ok {
			return core.Unwound
		}
		e.ReturnU64(1 + r)
		return core.Done
	}
	panic("uts-binomial-node: bad resume point")
}

var utsBinRangeFID core.FuncID

func init() { utsBinRangeFID = core.Register("uts-binomial-range", utsBinRangeTask) }

func utsBinRangeTask(e *core.Env) core.Status {
	rp := e.RP()
	for {
		switch rp {
		case 0:
			lo, hi := e.U64(utsLo), e.U64(utsHi)
			if hi-lo == 1 {
				cd := utsChildDesc(e.Bytes(0, descLen), uint32(lo))
				depth, qfix, packed, work := e.U64(utsDepth), e.U64(utsCut), e.U64(utsB0), e.U64(utsWork)
				if !e.Spawn(3, utsRH1, utsBinNodeFID, utsNodeLocals, func(c *core.Env) {
					copy(c.Bytes(0, descLen), cd[:])
					c.SetU64(utsDepth, depth+1)
					c.SetU64(utsCut, qfix)
					c.SetU64(utsB0, packed)
					c.SetU64(utsWork, work)
				}) {
					return core.Unwound
				}
				rp = 3
				continue
			}
			a := utsRangeArgsOf(e)
			if !e.Spawn(1, utsRH1, utsBinRangeFID, utsRangeLocals, func(c *core.Env) { a.write(c, lo, (lo+hi)/2) }) {
				return core.Unwound
			}
			rp = 1
		case 1:
			lo, hi := e.U64(utsLo), e.U64(utsHi)
			a := utsRangeArgsOf(e)
			if !e.Spawn(2, utsRH2, utsBinRangeFID, utsRangeLocals, func(c *core.Env) { a.write(c, (lo+hi)/2, hi) }) {
				return core.Unwound
			}
			rp = 2
		case 2:
			r, ok := e.Join(2, e.HandleAt(utsRH1))
			if !ok {
				return core.Unwound
			}
			e.SetU64(utsAcc, e.U64(utsAcc)+r)
			rp = 4
		case 3:
			r, ok := e.Join(3, e.HandleAt(utsRH1))
			if !ok {
				return core.Unwound
			}
			e.ReturnU64(r)
			return core.Done
		case 4:
			r, ok := e.Join(4, e.HandleAt(utsRH2))
			if !ok {
				return core.Unwound
			}
			e.ReturnU64(e.U64(utsAcc) + r)
			return core.Done
		default:
			panic("uts-binomial-range: bad resume point")
		}
	}
}

// UTSBinomialSequential walks the binomial tree exactly.
func UTSBinomialSequential(seed, b0, m uint64, q float64) uint64 {
	qfix := uint64(q * (1 << 32))
	type item struct {
		desc  [descLen]byte
		depth uint64
	}
	stack := []item{{utsRootDesc(seed), 0}}
	var nodes uint64
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nodes++
		k := utsBinomialChildCount(it.desc[:], it.depth, b0, m, qfix)
		for i := uint64(0); i < k; i++ {
			stack = append(stack, item{utsChildDesc(it.desc[:], uint32(i)), it.depth + 1})
		}
	}
	return nodes
}

// UTSBinomial builds the binomial-tree spec (q·m must be < 1).
func UTSBinomial(seed, b0, m uint64, q float64, work uint64) Spec {
	if q*float64(m) >= 1 {
		panic("workloads: supercritical binomial tree (q*m >= 1) would be infinite")
	}
	root := utsRootDesc(seed)
	qfix := uint64(q * (1 << 32))
	packed := b0<<8 | m
	return Spec{
		Name:   "UTS-binomial",
		Fid:    utsBinNodeFID,
		Locals: utsNodeLocals,
		Init: func(e *core.Env) {
			copy(e.Bytes(0, descLen), root[:])
			e.SetU64(utsDepth, 0)
			e.SetU64(utsCut, qfix)
			e.SetU64(utsB0, packed)
			e.SetU64(utsWork, work)
		},
		Expected: UTSBinomialSequential(seed, b0, m, q),
		Items:    func(r uint64) uint64 { return r },
	}
}
