package core

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"uniaddr/internal/gas"
	"uniaddr/internal/mem"
)

// Task functions and frames.
//
// The paper runs ordinary C functions on migratable native stacks and
// switches contexts with a few lines of assembly (Appendix A). Go's
// runtime owns goroutine stacks — they move during growth and cannot be
// pinned at chosen virtual addresses — so the migratable stack here is
// explicit: a frame of raw bytes inside the (simulated) uni-address
// region. A task body is a registered Go function; every value that
// must survive a migration lives in frame slots, and the saved
// "register context" is a resume point stored in the frame header.
// Because the frame bytes are the complete thread state, a steal is the
// paper's steal: a byte-for-byte RDMA READ of the stack into the same
// virtual address on another process, after which stored intra-stack
// addresses are still valid.

// FuncID identifies a registered task function. IDs are a 32-bit
// content hash of the registered name (FNV-1a), NOT a registration
// counter: two processes that register the same set of names agree on
// every id regardless of registration order. That is what lets the
// multi-process dist backend ship frame headers (which embed the fid)
// between address spaces and lets its handshake verify — by comparing
// RegistryFingerprint values — that every worker binary carries the
// same function table. The zero FuncID is never assigned and marks an
// uninitialised header.
type FuncID uint32

// Status is returned by task functions and by the runtime internals.
type Status uint8

const (
	// Done means the task function completed; its result is in its task
	// record.
	Done Status = iota
	// Unwound means this thread cannot continue on this worker: it
	// suspended at a join, or its continuation was stolen. The function
	// must return Unwound immediately when Spawn or Join report it.
	Unwound
)

func (s Status) String() string {
	switch s {
	case Done:
		return "Done"
	case Unwound:
		return "Unwound"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// Fn is a task function. It runs with an Env giving access to its frame
// and to spawn/join primitives. It must return Done after calling a
// Return method (or with the default zero result), or propagate Unwound
// when a primitive reports it.
type Fn func(e *Env) Status

// The registry is copy-on-write: Register (init-time / test setup,
// rare) builds a fresh snapshot under regMu and publishes it with one
// atomic store; lookupFn (once per task invocation, the hottest lookup
// in the rt backend) is a single atomic load plus an open-addressing
// probe — one or two slice indexes in practice, no map, no mutex (a
// mutex-guarded lookup cost ~8% of a fib run's CPU on the
// real-parallelism backend).
//
// Slots with ids[i] == 0 are empty; content hashes that come out 0 are
// remapped at registration so 0 stays the "no function" sentinel.
type fnRegistry struct {
	mask  uint32
	ids   []FuncID // open-addressing keys; 0 = empty slot
	fns   []Fn
	names []string
	count int
	// fingerprint folds every registered name with XOR, so it is
	// independent of registration order — the property the dist
	// handshake relies on.
	fingerprint uint64
}

var (
	regMu  sync.Mutex                 // serialises writers only
	regTab atomic.Pointer[fnRegistry] // readers load the latest snapshot
)

func loadRegistry() *fnRegistry {
	if t := regTab.Load(); t != nil {
		return t
	}
	return &fnRegistry{}
}

// HashFuncName returns the content-hashed FuncID for a task-function
// name (FNV-1a 32, with 0 remapped so the zero FuncID stays invalid).
// Register(name, fn) always returns HashFuncName(name), so a process
// can predict another process's ids from names alone.
func HashFuncName(name string) FuncID {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= prime32
	}
	if h == 0 {
		h = offset32
	}
	return FuncID(h)
}

func hashFuncName64(name string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return h
}

// probe returns the table slot holding id, or the empty slot where it
// would be inserted. Tables are kept at most half full, so the scan
// terminates.
func (t *fnRegistry) probe(id FuncID) int {
	i := uint32(id) & t.mask
	for {
		if t.ids[i] == id || t.ids[i] == 0 {
			return int(i)
		}
		i = (i + 1) & t.mask
	}
}

// Register adds fn to the global function table under a content-hashed
// id and returns that id. Call it from package init or test setup; ids
// depend only on the name, so they are stable across processes and
// registration orders. Registering the same name again replaces the
// function and returns the same id (so test setup can re-run);
// registering two DIFFERENT names whose hashes collide panics with
// both names — rename one.
func Register(name string, fn Fn) FuncID {
	regMu.Lock()
	defer regMu.Unlock()
	id := HashFuncName(name)
	old := loadRegistry()
	if len(old.ids) > 0 {
		if i := old.probe(id); old.ids[i] == id {
			if old.names[i] != name {
				panic(fmt.Sprintf(
					"core: FuncID hash collision: %q and %q both hash to %#x; rename one of them",
					old.names[i], name, uint32(id)))
			}
			// Same name re-registered: replace in a fresh snapshot.
			tab := old.clone(len(old.ids))
			tab.fns[i] = fn
			regTab.Store(tab)
			return id
		}
	}
	// Grow so the table stays at most half full (min size 16).
	size := len(old.ids)
	if size == 0 {
		size = 16
	}
	for 2*(old.count+1) > size {
		size *= 2
	}
	tab := old.clone(size)
	i := tab.probe(id)
	tab.ids[i], tab.fns[i], tab.names[i] = id, fn, name
	tab.count++
	tab.fingerprint ^= hashFuncName64(name)
	regTab.Store(tab)
	return id
}

// clone copies t into a table of size slots (a power of two >= the live
// count*2), rehashing every entry.
func (t *fnRegistry) clone(size int) *fnRegistry {
	n := &fnRegistry{
		mask:        uint32(size - 1),
		ids:         make([]FuncID, size),
		fns:         make([]Fn, size),
		names:       make([]string, size),
		count:       t.count,
		fingerprint: t.fingerprint,
	}
	for i, id := range t.ids {
		if id == 0 {
			continue
		}
		j := n.probe(id)
		n.ids[j], n.fns[j], n.names[j] = id, t.fns[i], t.names[i]
	}
	return n
}

func lookupFn(id FuncID) Fn {
	tab := loadRegistry()
	if id != 0 && len(tab.ids) > 0 {
		if i := tab.probe(id); tab.ids[i] == id {
			return tab.fns[i]
		}
	}
	panic(fmt.Sprintf("core: unregistered FuncID %#x", uint32(id)))
}

// FuncName returns the registered name of id (for traces).
func FuncName(id FuncID) string {
	tab := loadRegistry()
	if id != 0 && len(tab.ids) > 0 {
		if i := tab.probe(id); tab.ids[i] == id {
			return tab.names[i]
		}
	}
	return fmt.Sprintf("fn#%d", id)
}

// RegistryFingerprint summarises the registered function table: the
// number of distinct names and an order-independent 64-bit digest of
// them. Two processes whose fingerprints agree have registered exactly
// the same name set — and therefore, by content hashing, the same
// FuncID for every function. The dist backend's handshake compares
// fingerprints and refuses to run on divergence.
func RegistryFingerprint() (count int, digest uint64) {
	tab := loadRegistry()
	return tab.count, tab.fingerprint
}

// RegistryNames returns every registered function name, sorted — the
// diagnostic payload for a fingerprint mismatch.
func RegistryNames() []string {
	tab := loadRegistry()
	names := make([]string, 0, tab.count)
	for i, id := range tab.ids {
		if id != 0 {
			names = append(names, tab.names[i])
		}
	}
	sort.Strings(names)
	return names
}

// Frame header layout (little-endian), stored at the base (lowest
// address) of each thread's stack in the uni-address region:
//
//	+0   funcID     u32
//	+4   resumePt   u32  (the "saved instruction pointer")
//	+8   localsLen  u32  (bytes of locals following the header)
//	+12  job        u32  (sched.JobTag of the owning job: slot+1 on a
//	                      pool that multiplexes jobs, 0 on sim and dist)
//	+16  record     u64  (Handle of this task's completion record)
//	+24  taskID     u64  (obs.TaskID for lineage tracking; 0 when
//	                      observability is disabled)
//
// The task ID lives in the frame header on purpose: the frame bytes
// are the complete migratable thread state, so the ID travels with
// every steal, suspend swap and lifeline push for free, and any worker
// holding the stack can attribute events to the task.
const (
	frameHdrSize   = 32
	fhFuncIDOff    = 0
	fhResumeOff    = 4
	fhLocalsLenOff = 8
	fhJobOff       = 12
	fhRecordOff    = 16
	fhTaskIDOff    = 24
)

// frameTaskID reads the lineage ID stored in the frame header at base
// (0 when observability was off at spawn time).
func frameTaskID(space *mem.AddressSpace, base mem.VA) uint64 {
	return space.MustReadU64(base + fhTaskIDOff)
}

// setFrameTaskID stamps the lineage ID into the frame header.
func setFrameTaskID(space *mem.AddressSpace, base mem.VA, id uint64) {
	space.MustWriteU64(base+fhTaskIDOff, id)
}

// FrameBytes returns the stack footprint of a task with localsLen bytes
// of locals (header + locals, 16-byte aligned).
func FrameBytes(localsLen uint32) uint64 {
	return (frameHdrSize + uint64(localsLen) + 15) &^ 15
}

// writeFrameHeader initialises a fresh frame: the whole footprint is
// zeroed (stack addresses are reused constantly, and a task must never
// observe a predecessor's bytes) and the header written. It returns the
// frame's byte view, which the caller's Env adopts.
func writeFrameHeader(space *mem.AddressSpace, base mem.VA, fid FuncID, localsLen uint32, rec Handle) []byte {
	b, err := space.Slice(base, FrameBytes(localsLen))
	if err != nil {
		panic(err)
	}
	clear(b)
	EncodeFrameHeader(b, fid, localsLen, 0, rec)
	return b
}

// Env is a task function's view of its own frame plus the runtime
// primitives. The frame bytes are the complete thread state, so the Env
// IS a view of them: the backend slices the frame once per (re-)entry
// and every slot accessor indexes that slice directly. Envs are created
// by the backend for each (re-)entry into a task function and must not
// be retained across returns; the view dies with any migration.
//
// The struct is kept at 64 bytes: rt/dist allocate one Env per level of
// spawn depth per job, which is most of dist_uts' ~0.5 heap bytes per
// task.
type Env struct {
	x    Exec
	base mem.VA
	rp   uint32

	returned bool

	// hdr and locals are the two halves of the frame [base, base+size):
	// the fixed header and everything after it. hdr is nil on help-first's
	// staging Env, whose locals view a scratch buffer — a queued child
	// has no header to address yet.
	hdr    *[frameHdrSize]byte
	locals []byte
}

// Worker returns the simulated worker currently executing the task, or
// nil when the task runs on a non-simulator backend (internal/rt).
func (e *Env) Worker() *Worker { return e.x.SimWorker() }

// FrameBase returns the base VA of this thread's stack.
func (e *Env) FrameBase() mem.VA { return e.base }

// FrameSize returns the stack footprint in bytes.
func (e *Env) FrameSize() uint64 { return frameHdrSize + uint64(len(e.locals)) }

// RP returns the resume point: 0 on first entry, otherwise the value
// passed to the Spawn or Join the thread last suspended or migrated at.
func (e *Env) RP() int { return int(e.rp) }

// Self returns the Handle of this task's completion record.
func (e *Env) Self() Handle {
	return Handle(binary.LittleEndian.Uint64(e.hdr[fhRecordOff:]))
}

func (e *Env) setRP(rp uint32) { SetFrameResume(e.hdr[:], rp) }

// slotError is the panic value of an out-of-range slot access: a value,
// formatted only if printed, so U64 and SetU64 stay inlinable.
type slotError struct {
	slot int
	size uint64
}

func (s slotError) Error() string {
	return fmt.Sprintf("core: slot %d outside frame of %d bytes", s.slot, s.size)
}

// U64 loads local slot i.
func (e *Env) U64(i int) uint64 {
	if uint(i) >= uint(len(e.locals))/8 {
		panic(slotError{i, e.FrameSize()})
	}
	return binary.LittleEndian.Uint64(e.locals[i*8:])
}

// SetU64 stores local slot i.
func (e *Env) SetU64(i int, v uint64) {
	if uint(i) >= uint(len(e.locals))/8 {
		panic(slotError{i, e.FrameSize()})
	}
	binary.LittleEndian.PutUint64(e.locals[i*8:], v)
}

// I64 loads local slot i as a signed integer.
func (e *Env) I64(i int) int64 { return int64(e.U64(i)) }

// SetI64 stores a signed integer in local slot i.
func (e *Env) SetI64(i int, v int64) { e.SetU64(i, uint64(v)) }

// HandleAt loads a Handle from local slot i.
func (e *Env) HandleAt(i int) Handle { return Handle(e.U64(i)) }

// SetHandle stores a Handle in local slot i.
func (e *Env) SetHandle(i int, h Handle) { e.SetU64(i, uint64(h)) }

// PtrAt loads a simulated address from slot i. Tasks may store
// addresses of their own frame bytes (intra-stack pointers); the
// uni-address guarantee is that they remain valid after migration.
func (e *Env) PtrAt(i int) mem.VA { return mem.VA(e.U64(i)) }

// SetPtr stores a simulated address in slot i.
func (e *Env) SetPtr(i int, va mem.VA) { e.SetU64(i, uint64(va)) }

// LocalAddr returns the simulated address of byte off of the locals
// area — for building intra-stack pointers.
func (e *Env) LocalAddr(off int) mem.VA { return e.base + frameHdrSize + mem.VA(off) }

// Bytes returns a direct view of locals [off, off+n) for bulk data
// (e.g. an NQueens board). The view is invalidated by any migration, so
// it must not be retained across Spawn or Join.
func (e *Env) Bytes(off, n int) []byte {
	if off < 0 || n < 0 || uint64(off)+uint64(n) > uint64(len(e.locals)) {
		panic(fmt.Sprintf("core: Bytes(%d,%d) outside frame of %d bytes", off, n, e.FrameSize()))
	}
	return e.locals[off : off+n : off+n]
}

// gasWorker returns the simulated worker whose global heap serves e.
func (e *Env) gasWorker() *Worker {
	w := e.x.SimWorker()
	if w == nil {
		panic("core: global heap (gas) operations are supported on the simulator backend only; run this workload there")
	}
	return w
}

// Gas returns the global heap for cross-thread data. Refs obtained
// from it are plain integers: store them in frame slots with SetU64
// and they migrate with the thread.
func (e *Env) Gas() *gas.Heap { return e.gasWorker().gas }

// GasGet dereferences a global reference into buf, charging local-copy
// or RDMA cost as appropriate.
func (e *Env) GasGet(r gas.Ref, buf []byte) { w := e.gasWorker(); w.gas.Get(w.proc, r, buf) }

// GasPut stores buf through a global reference.
func (e *Env) GasPut(r gas.Ref, buf []byte) { w := e.gasWorker(); w.gas.Put(w.proc, r, buf) }

// GasGetU64 loads one word through a global reference.
func (e *Env) GasGetU64(r gas.Ref) uint64 { w := e.gasWorker(); return w.gas.GetU64(w.proc, r) }

// GasPutU64 stores one word through a global reference.
func (e *Env) GasPutU64(r gas.Ref, v uint64) { w := e.gasWorker(); w.gas.PutU64(w.proc, r, v) }

// GasAlloc allocates on this worker's segment of the global heap.
func (e *Env) GasAlloc(n uint64) gas.Ref { w := e.gasWorker(); return w.gas.MustAlloc(w.proc, n) }

// Work charges cycles of task computation: simulated time on the
// simulator (scaled on straggler workers), a calibrated spin on the
// real-parallelism backend.
func (e *Env) Work(cycles uint64) { e.x.ExecWork(cycles) }

// ReturnU64 records the task's result and marks its record done. Call
// it (at most once) before returning Done; returning Done without a
// Return records a zero result.
func (e *Env) ReturnU64(v uint64) {
	if e.returned {
		panic("core: duplicate ReturnU64")
	}
	e.returned = true
	e.x.ExecComplete(e.Self(), v)
}

// ReturnI64 is ReturnU64 for signed results.
func (e *Env) ReturnI64(v int64) { e.ReturnU64(uint64(v)) }
