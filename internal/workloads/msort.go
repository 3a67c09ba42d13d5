package workloads

import (
	"encoding/binary"
	"fmt"
	"sort"

	"uniaddr/internal/core"
	"uniaddr/internal/gas"
	"uniaddr/internal/mem"
)

// MergeSort is the second PGAS application: a block-distributed uint64
// array is sorted in place by a fork-join mergesort whose leaves sort
// their range locally and whose interior tasks merge two sorted runs —
// all element traffic moves through global references (Get/Put), so a
// task stolen away from its data pays one-sided RDMA for every access,
// exactly the locality/balance tension PGAS runtimes live with.
//
// The array is double-buffered in the global heap (src and dst areas at
// fixed offsets in every rank's segment); level parity decides the
// direction, so no task ever merges into the run it is reading.
//
// Frame slots: 0=lo, 1=hi, 2=per (elements/rank), 3=chunk, 4=h1, 5=h2,
// 6=depth (recursion level, for buffer parity), 7=spare; staging buffer
// for up to 2·chunk elements at offset 64.
const (
	msLo     = 0
	msHi     = 1
	msPer    = 2
	msChunk  = 3
	msH1     = 4
	msH2     = 5
	msDepth  = 6
	msBufOff = 64
)

// Array A lives at segment offset 0; array B at offset msAltOff.
func msAltOff(per uint64) uint64 { return per * 8 }

func msLocals(chunk uint64) uint32 { return uint32(msBufOff + 2*chunk*8) }

var msFID core.FuncID

func init() { msFID = core.Register("merge-sort", msTask) }

// msRef returns the global ref of element i in array "side" (0 = A,
// 1 = B) under a block distribution of per elements per rank.
func msRef(i, per, side uint64) gas.Ref {
	return gas.MakeRef(int(i/per), gas.DefaultBase+mem.VA(side*msAltOff(per)+8*(i%per)))
}

// msRead fetches elements [lo, hi) of the given side into buf (one Get
// per same-rank run).
func msRead(e *core.Env, lo, hi, per, side uint64, buf []byte) {
	for i := lo; i < hi; {
		runEnd := (i/per + 1) * per
		if runEnd > hi {
			runEnd = hi
		}
		e.GasGet(msRef(i, per, side), buf[(i-lo)*8:(runEnd-lo)*8])
		i = runEnd
	}
}

// msWrite stores elements [lo, hi) of the given side from buf.
func msWrite(e *core.Env, lo, hi, per, side uint64, buf []byte) {
	for i := lo; i < hi; {
		runEnd := (i/per + 1) * per
		if runEnd > hi {
			runEnd = hi
		}
		e.GasPut(msRef(i, per, side), buf[(i-lo)*8:(runEnd-lo)*8])
		i = runEnd
	}
}

// levelSide returns which array holds the sorted data produced at a
// node with the given recursion depth (leaves write A; each merge level
// flips).
func levelSide(depth, leafDepth uint64) uint64 { return (leafDepth - depth) % 2 }

// msLeafDepth computes the recursion depth at which ranges reach chunk
// size (same formula the task uses, so parity agrees everywhere).
func msLeafDepth(n, chunk uint64) uint64 {
	var d uint64
	for n > chunk {
		n = (n + 1) / 2
		d++
	}
	return d
}

func msTask(e *core.Env) core.Status {
	rp := e.RP()
	for {
		switch rp {
		case 0:
			lo, hi := e.U64(msLo), e.U64(msHi)
			per, chunk := e.U64(msPer), e.U64(msChunk)
			if hi-lo <= chunk {
				// Leaf: fetch the raw input (array A), sort locally,
				// and write to the side this depth's parity dictates —
				// leaves can sit at different depths when spans split
				// unevenly, and side-of-depth keeps every parent's
				// child-side uniform.
				n := hi - lo
				outSide := levelSide(e.U64(msDepth), msLeafDepthOf(e))
				buf := e.Bytes(msBufOff, int(n*8))
				msRead(e, lo, hi, per, 0, buf)
				vals := make([]uint64, n)
				for i := range vals {
					vals[i] = binary.LittleEndian.Uint64(buf[i*8:])
				}
				sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
				for i, v := range vals {
					binary.LittleEndian.PutUint64(buf[i*8:], v)
				}
				e.Work(40 * n) // n log n-ish local sort cost
				msWrite(e, lo, hi, per, outSide, buf)
				e.ReturnU64(n)
				return core.Done
			}
			a := msArgsOf(e)
			if !e.Spawn(1, msH1, msFID, uint32(e.FrameSize())-32, func(c *core.Env) { a.write(c, lo, (lo+hi)/2) }) {
				return core.Unwound
			}
			rp = 1
		case 1:
			lo, hi := e.U64(msLo), e.U64(msHi)
			a := msArgsOf(e)
			if !e.Spawn(2, msH2, msFID, uint32(e.FrameSize())-32, func(c *core.Env) { a.write(c, (lo+hi)/2, hi) }) {
				return core.Unwound
			}
			rp = 2
		case 2:
			if _, ok := e.Join(2, e.HandleAt(msH1)); !ok {
				return core.Unwound
			}
			rp = 3
		case 3:
			if _, ok := e.Join(3, e.HandleAt(msH2)); !ok {
				return core.Unwound
			}
			// Merge the halves. Children produced their output in the
			// side given by their depth's parity; we write the opposite.
			msMerge(e)
			e.ReturnU64(e.U64(msHi) - e.U64(msLo))
			return core.Done
		default:
			panic("merge-sort: bad resume point")
		}
	}
}

// msMerge merges [lo,mid) and [mid,hi) from the children's side into
// this level's side, streaming through the frame staging buffer in
// chunk-sized pieces.
func msMerge(e *core.Env) {
	lo, hi := e.U64(msLo), e.U64(msHi)
	per := e.U64(msPer)
	depth := e.U64(msDepth)
	total := hi - lo
	mid := (lo + hi) / 2
	childSide := levelSide(depth+1, msLeafDepthOf(e))
	outSide := levelSide(depth, msLeafDepthOf(e))
	// Stream-merge with full fetch (ranges at our scales fit the frame
	// for leaves; for interior nodes stream in chunk pieces).
	a := fetchAll(e, lo, mid, per, childSide)
	b := fetchAll(e, mid, hi, per, childSide)
	out := make([]uint64, 0, total)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	e.Work(8 * total) // merge cost
	storeAll(e, lo, hi, per, outSide, out)
}

// msLeafDepthOf recovers the nominal leaf depth for buffer parity from
// the root span stashed in the spare slot by Init and inherited.
func msLeafDepthOf(e *core.Env) uint64 { return msLeafDepth(e.U64(7), e.U64(msChunk)) }

// fetchAll loads [lo,hi) of side via chunked Gets using the frame
// staging buffer.
func fetchAll(e *core.Env, lo, hi, per, side uint64) []uint64 {
	chunk := e.U64(msChunk)
	vals := make([]uint64, 0, hi-lo)
	for s := lo; s < hi; s += 2 * chunk {
		t := s + 2*chunk
		if t > hi {
			t = hi
		}
		buf := e.Bytes(msBufOff, int((t-s)*8))
		msRead(e, s, t, per, side, buf)
		for i := uint64(0); i < t-s; i++ {
			vals = append(vals, binary.LittleEndian.Uint64(buf[i*8:]))
		}
	}
	return vals
}

// storeAll writes vals to [lo,hi) of side via chunked Puts.
func storeAll(e *core.Env, lo, hi, per, side uint64, vals []uint64) {
	chunk := e.U64(msChunk)
	for s := lo; s < hi; s += 2 * chunk {
		t := s + 2*chunk
		if t > hi {
			t = hi
		}
		buf := e.Bytes(msBufOff, int((t-s)*8))
		for i := uint64(0); i < t-s; i++ {
			binary.LittleEndian.PutUint64(buf[i*8:], vals[s-lo+i])
		}
		msWrite(e, s, t, per, side, buf)
	}
}

// msArgs is what a half inherits, read out of the parent before the
// spawn publishes it (by value, for the reason given at utsRangeArgs).
type msArgs struct{ per, chunk, depth, span uint64 }

func msArgsOf(parent *core.Env) msArgs {
	return msArgs{parent.U64(msPer), parent.U64(msChunk), parent.U64(msDepth), parent.U64(7)}
}

// write initialises the child sorting [lo, hi) one level down.
func (a msArgs) write(c *core.Env, lo, hi uint64) {
	c.SetU64(msLo, lo)
	c.SetU64(msHi, hi)
	c.SetU64(msPer, a.per)
	c.SetU64(msChunk, a.chunk)
	c.SetU64(msDepth, a.depth+1)
	c.SetU64(7, a.span)
}

// msValue generates the unsorted input deterministically.
func msValue(i uint64) uint64 {
	x := i*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	x ^= x >> 29
	x *= 0xff51afd7ed558ccd
	x ^= x >> 32
	return x
}

// mergeSortReference computes the input's order-independent sum plus
// the sorted array's first and last elements for validation.
func mergeSortReference(elems uint64) (sum, first, last uint64) {
	vals := make([]uint64, elems)
	for i := range vals {
		vals[i] = msValue(uint64(i))
		sum += vals[i]
	}
	sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
	return sum, vals[0], vals[elems-1]
}

// MergeSort builds the spec. After the run, Validate(m) checks the
// final array is the sorted permutation of the input.
func MergeSort(elems, chunk uint64, workers int) Spec {
	if chunk == 0 {
		chunk = 64
	}
	per := (elems + uint64(workers) - 1) / uint64(workers)
	return Spec{
		Name:   "MergeSort",
		Fid:    msFID,
		Locals: msLocals(chunk),
		Setup: func(m *core.Machine) error {
			if m.Config().Workers != workers {
				return fmt.Errorf("mergesort: spec built for %d workers", workers)
			}
			if 2*per*8 > m.Config().GasSize {
				return fmt.Errorf("mergesort: need %d B/rank gas segment", 2*per*8)
			}
			buf := make([]byte, 8)
			for i := uint64(0); i < elems; i++ {
				binary.LittleEndian.PutUint64(buf, msValue(i))
				h := m.Workers()[int(i/per)].Gas()
				if err := h.StageLocal(gas.DefaultBase+mem.VA(8*(i%per)), buf); err != nil {
					return err
				}
			}
			return nil
		},
		Init: func(e *core.Env) {
			e.SetU64(msLo, 0)
			e.SetU64(msHi, elems)
			e.SetU64(msPer, per)
			e.SetU64(msChunk, chunk)
			e.SetU64(msDepth, 0)
			e.SetU64(7, elems)
		},
		Expected: elems, // root returns the element count; ordering checked by VerifySorted
		Items:    func(r uint64) uint64 { return elems },
	}
}

// VerifySorted checks (host-side, zero simulated cost) that the final
// array — in the side the root level wrote — is globally sorted and is
// a permutation of the input (by sum).
func VerifySorted(m *core.Machine, elems, chunk uint64) error {
	workers := m.Config().Workers
	per := (elems + uint64(workers) - 1) / uint64(workers)
	side := levelSide(0, msLeafDepth(elems, chunk))
	var prev uint64
	var sum uint64
	buf := make([]byte, 8)
	for i := uint64(0); i < elems; i++ {
		w := m.Workers()[int(i/per)]
		va := gas.DefaultBase + mem.VA(side*msAltOff(per)+8*(i%per))
		if _, err := w.Space().Read(va, buf); err != nil {
			return err
		}
		v := binary.LittleEndian.Uint64(buf)
		if i > 0 && v < prev {
			return fmt.Errorf("mergesort: out of order at %d: %d < %d", i, v, prev)
		}
		prev = v
		sum += v
	}
	wantSum, _, _ := mergeSortReference(elems)
	if sum != wantSum {
		return fmt.Errorf("mergesort: not a permutation of the input (sum %d != %d)", sum, wantSum)
	}
	return nil
}
