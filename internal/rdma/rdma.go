// Package rdma simulates a one-sided communication fabric in the style
// of Fujitsu Tofu (the FX10 interconnect used in the paper).
//
// The fabric connects the simulated processes' address spaces
// (internal/mem). Remote READ and WRITE complete after a latency of
// base + size·perByte cycles and never involve the target CPU, exactly
// like hardware RDMA: the target's worker process keeps computing while
// its memory is read. Remote fetch-and-add is provided in two flavours:
//
//   - hardware: a single fabric round trip (ablation mode), and
//   - software: the paper's scheme (§6) — FX10 lacks remote atomics, so
//     one core per node runs a communication server; the request travels
//     as an "RDMA WRITE with remote notice", the server applies the
//     add and replies. The paper measures 9.8K cycles on average, which
//     the default latency parameters reproduce.
//
// Every remote access verifies that the target range lies in a pinned
// region, mirroring the hardware requirement that RDMA-accessible pages
// be registered and locked to physical memory (§4 item 3 is the reason
// iso-address cannot use RDMA: its stack area is too large to pin).
package rdma

import (
	"fmt"

	"uniaddr/internal/mem"
	"uniaddr/internal/obs"
	"uniaddr/internal/sim"
)

// Params are the fabric latency/cost parameters, in cycles. Defaults
// (see DefaultParams) are calibrated against the paper's FX10 numbers.
type Params struct {
	// ReadBase/WriteBase are the zero-byte latencies of READ and WRITE.
	ReadBase  uint64
	WriteBase uint64
	// CyclesPerByte converts payload size to transfer cycles
	// (~bandwidth). Applied to both READ and WRITE.
	CyclesPerByte float64
	// NoticeExtra is the additional cost of "RDMA WRITE with remote
	// notice" over a plain WRITE (the completion notification).
	NoticeExtra uint64
	// HardwareFAA selects the single-round-trip atomic (ablation). When
	// false, fetch-and-add goes through the node's software server.
	HardwareFAA bool
	// HardwareFAALatency is the hardware atomic latency.
	HardwareFAALatency uint64
	// ServerHandling is the comm server's per-request processing cost.
	ServerHandling uint64
	// LocalAtomic is the cost of a CPU atomic on node-local memory.
	LocalAtomic uint64
	// IntraNodeFactor scales READ/WRITE/FAA latencies when initiator
	// and target share a node (shared-memory shortcut). 1.0 — the
	// default, matching the paper's flat treatment — disables the
	// effect; values < 1 enable hierarchical-stealing experiments.
	IntraNodeFactor float64
	// FAATimeout bounds how long a software fetch-and-add waits for its
	// reply, in cycles. 0 (the default) waits forever — correct on a
	// lossless fabric. Under fault injection a dropped request notice
	// would otherwise wedge the initiator, so machines with a non-zero
	// comm-server drop rate must set this (core.NewMachine does).
	FAATimeout uint64
	// RetryBackoff / RetryBackoffCap shape the capped exponential
	// virtual-time backoff of the reliable (auto-retrying) endpoint
	// operations after an injected fault. Zero selects the defaults
	// (1000 / 131072 cycles). Irrelevant without an injector.
	RetryBackoff    uint64
	RetryBackoffCap uint64
}

// DefaultParams returns parameters calibrated to the paper's FX10
// measurements: small READ/WRITE ≈ 2.5–2.8K cycles (≈1.4–1.5 µs at
// 1.848 GHz), payload at ≈5 GB/s, and a software fetch-and-add of
// ≈9.8K cycles end to end (notice write + server handling + reply).
func DefaultParams() Params {
	return Params{
		ReadBase:           4200,
		WriteBase:          3700,
		CyclesPerByte:      0.37, // ≈5 GB/s at 1.848 GHz
		NoticeExtra:        400,
		HardwareFAA:        false,
		HardwareFAALatency: 4500,
		ServerHandling:     2000,
		LocalAtomic:        50,
		IntraNodeFactor:    1.0,
	}
}

// ReadLatency returns the model latency of an n-byte READ.
func (p Params) ReadLatency(n int) uint64 {
	return p.ReadBase + uint64(float64(n)*p.CyclesPerByte)
}

// WriteLatency returns the model latency of an n-byte WRITE.
func (p Params) WriteLatency(n int) uint64 {
	return p.WriteBase + uint64(float64(n)*p.CyclesPerByte)
}

// NoticeLatency returns the latency of an n-byte WRITE with remote
// notice.
func (p Params) NoticeLatency(n int) uint64 {
	return p.WriteLatency(n) + p.NoticeExtra
}

// SoftwareFAALatency returns the end-to-end model latency of a software
// fetch-and-add (request notice + handling + reply write), matching the
// paper's measured 9.8K-cycle average with the default parameters.
func (p Params) SoftwareFAALatency() uint64 {
	return p.NoticeLatency(16) + p.ServerHandling + p.WriteLatency(8)
}

// Stats counts fabric traffic. One Stats struct is kept per endpoint
// (attributed to the initiator).
type Stats struct {
	Reads, Writes, FAAs uint64
	BytesRead           uint64
	BytesWritten        uint64
	CyclesBlocked       uint64

	// Failure counters (all zero without an injector).
	InjectedFaults uint64 // remote ops aborted by the fault injector
	SpikeCycles    uint64 // extra latency injected into ops (spikes)
	Retries        uint64 // reliable-wrapper retries after faults
	FAATimeouts    uint64 // software FAAs that timed out awaiting a reply
}

// Merge adds q's counters into s.
func (s *Stats) Merge(q Stats) {
	s.Reads += q.Reads
	s.Writes += q.Writes
	s.FAAs += q.FAAs
	s.BytesRead += q.BytesRead
	s.BytesWritten += q.BytesWritten
	s.CyclesBlocked += q.CyclesBlocked
	s.InjectedFaults += q.InjectedFaults
	s.SpikeCycles += q.SpikeCycles
	s.Retries += q.Retries
	s.FAATimeouts += q.FAATimeouts
}

// Fabric is the interconnect: a set of endpoints, one per simulated
// process, plus one communication server per node when software
// fetch-and-add is in use.
type Fabric struct {
	eng      *sim.Engine
	params   Params
	eps      []*Endpoint
	injector Injector
}

// NewFabric creates a fabric on the given engine.
func NewFabric(eng *sim.Engine, params Params) *Fabric {
	return &Fabric{eng: eng, params: params}
}

// Params returns the fabric parameters.
func (f *Fabric) Params() Params { return f.params }

// AddEndpoint registers a process address space with the fabric and
// returns its endpoint. Endpoint ranks are dense in registration order
// and must match the scheduler's process ranks.
func (f *Fabric) AddEndpoint(space *mem.AddressSpace) *Endpoint {
	ep := &Endpoint{fab: f, rank: len(f.eps), space: space}
	f.eps = append(f.eps, ep)
	return ep
}

// Endpoint returns the endpoint with the given rank.
func (f *Fabric) Endpoint(rank int) *Endpoint { return f.eps[rank] }

// NumEndpoints returns the number of registered endpoints.
func (f *Fabric) NumEndpoints() int { return len(f.eps) }

// Endpoint is one process's attachment to the fabric.
type Endpoint struct {
	fab    *Fabric
	rank   int
	node   int
	space  *mem.AddressSpace
	server *Server // the node-local comm server handling software FAA
	stats  Stats
	log    *obs.Log // nil unless observability is on (nil-safe)
}

// SetNode assigns the endpoint to a node for intra-node latency
// scaling.
func (ep *Endpoint) SetNode(n int) { ep.node = n }

// Node returns the endpoint's node id.
func (ep *Endpoint) Node() int { return ep.node }

// scaleTo returns the latency multiplier for traffic to target.
func (ep *Endpoint) scaleTo(target int) float64 {
	f := ep.fab.params.IntraNodeFactor
	if f <= 0 || f >= 1 {
		return 1
	}
	if ep.fab.eps[target].node == ep.node {
		return f
	}
	return 1
}

func scaleLat(lat uint64, f float64) uint64 {
	if f == 1 {
		return lat
	}
	return uint64(float64(lat) * f)
}

// Rank returns the endpoint's dense id.
func (ep *Endpoint) Rank() int { return ep.rank }

// Space returns the address space behind the endpoint.
func (ep *Endpoint) Space() *mem.AddressSpace { return ep.space }

// Stats returns a snapshot of the endpoint's traffic counters.
//
// The snapshot is only coherent at quiescence: while the simulation is
// running, counters are bumped before the op's latency elapses, so a
// mid-run read (from an Engine.After callback, say) can see an op
// counted whose bytes never land. Read it after the engine's Run
// returns, or use StatsAtQuiescence to have that checked.
func (ep *Endpoint) Stats() Stats { return ep.stats }

// StatsAtQuiescence returns the traffic counters, panicking if the
// simulation is still running (when a coherent snapshot cannot be
// guaranteed).
func (ep *Endpoint) StatsAtQuiescence() Stats {
	if ep.fab.eng.Running() {
		panic("rdma: StatsAtQuiescence called while the simulation is running")
	}
	return ep.stats
}

// SetLog attaches an observability log; every subsequent remote op the
// endpoint initiates is recorded into it (issue time, latency, bytes,
// target, injected-failure flag). A nil log disables recording.
func (ep *Endpoint) SetLog(l *obs.Log) { ep.log = l }

// logOp records one fabric op into the attached log, marking injected
// failures.
func (ep *Endpoint) logOp(k obs.Kind, start, lat uint64, bytes, target int, failed bool) {
	if ep.log == nil {
		return
	}
	var fl uint8
	if failed {
		fl = obs.FFailed
	}
	ep.log.EmitFlags(k, start, lat, uint64(bytes), 0, target, fl)
}

// SetServer attaches the node-local communication server that handles
// software fetch-and-add requests targeting this endpoint's memory.
func (ep *Endpoint) SetServer(s *Server) { ep.server = s }

// pinnedSlice resolves [va, va+n) in the endpoint's space and checks the
// region is pinned (RDMA-registered).
func (ep *Endpoint) pinnedSlice(va mem.VA, n uint64) []byte {
	r, err := ep.space.Lookup(va, n)
	if err != nil {
		panic(fmt.Sprintf("rdma: rank %d: %v", ep.rank, err))
	}
	if !r.Pinned {
		panic(fmt.Sprintf("rdma: rank %d: remote access to unpinned region %q at %#x", ep.rank, r.Name, va))
	}
	b, err := ep.space.Slice(va, n)
	if err != nil {
		panic(err)
	}
	return b
}

// inject consults the fabric's injector for a remote op, returning the
// extra (spike) latency and whether the op must fail. Local loopback
// (target == own rank) is never injected: the NIC is not involved.
func (ep *Endpoint) inject(op OpKind, target, bytes int) (uint64, bool) {
	inj := ep.fab.injector
	if inj == nil || target == ep.rank {
		return 0, false
	}
	extra, fail := inj.Decide(op, ep.rank, target, bytes, ep.fab.eng.Now())
	if extra > 0 {
		ep.stats.SpikeCycles += extra
	}
	if fail {
		ep.stats.InjectedFaults++
	}
	return extra, fail
}

// retryBackoff parks p for the attempt-th capped exponential backoff
// delay of a reliable wrapper (virtual time, deterministic).
func (ep *Endpoint) retryBackoff(p *sim.Proc, attempt int) {
	base, limit := ep.fab.params.RetryBackoff, ep.fab.params.RetryBackoffCap
	if base == 0 {
		base = 1000
	}
	if limit == 0 {
		limit = 1 << 17
	}
	d := limit
	if attempt < 63 {
		if d = base << uint(attempt); d > limit {
			d = limit
		}
	}
	ep.stats.Retries++
	ep.stats.CyclesBlocked += d
	start := p.Now()
	p.Advance(d)
	if ep.log != nil {
		ep.log.Emit(obs.KNetRetry, start, d, uint64(attempt+1), 0, -1)
	}
}

// TryRead performs a one-sided READ of len(buf) bytes from (target,
// raddr) into buf. p blocks for the model latency; the remote bytes are
// sampled at completion time. The target region must be pinned. Under
// fault injection the READ may fail (buf is then untouched) or complete
// late.
func (ep *Endpoint) TryRead(p *sim.Proc, target int, raddr mem.VA, buf []byte) error {
	lat := scaleLat(ep.fab.params.ReadLatency(len(buf)), ep.scaleTo(target))
	extra, fail := ep.inject(OpRead, target, len(buf))
	lat += extra
	ep.stats.Reads++
	ep.stats.BytesRead += uint64(len(buf))
	ep.stats.CyclesBlocked += lat
	start := p.Now()
	p.Advance(lat)
	ep.logOp(obs.KRead, start, lat, len(buf), target, fail)
	if fail {
		return fmt.Errorf("%w: READ rank %d → rank %d", ErrInjected, ep.rank, target)
	}
	src := ep.fab.eps[target].pinnedSlice(raddr, uint64(len(buf)))
	copy(buf, src)
	return nil
}

// Read is the reliable form of TryRead: it retries with capped
// exponential virtual-time backoff until the READ completes. Safe
// because reads are idempotent and injected failures have no remote
// effect. Identical to TryRead when no injector is attached.
func (ep *Endpoint) Read(p *sim.Proc, target int, raddr mem.VA, buf []byte) {
	for attempt := 0; ; attempt++ {
		if err := ep.TryRead(p, target, raddr, buf); err == nil {
			return
		}
		ep.retryBackoff(p, attempt)
	}
}

// TryWrite performs a one-sided WRITE of buf to (target, raddr). The
// bytes land at completion time; a failed WRITE lands nothing.
func (ep *Endpoint) TryWrite(p *sim.Proc, target int, raddr mem.VA, buf []byte) error {
	lat := scaleLat(ep.fab.params.WriteLatency(len(buf)), ep.scaleTo(target))
	extra, fail := ep.inject(OpWrite, target, len(buf))
	lat += extra
	ep.stats.Writes++
	ep.stats.BytesWritten += uint64(len(buf))
	ep.stats.CyclesBlocked += lat
	start := p.Now()
	p.Advance(lat)
	ep.logOp(obs.KWrite, start, lat, len(buf), target, fail)
	if fail {
		return fmt.Errorf("%w: WRITE rank %d → rank %d", ErrInjected, ep.rank, target)
	}
	dst := ep.fab.eps[target].pinnedSlice(raddr, uint64(len(buf)))
	copy(dst, buf)
	return nil
}

// Write is the reliable form of TryWrite (retry until success).
func (ep *Endpoint) Write(p *sim.Proc, target int, raddr mem.VA, buf []byte) {
	for attempt := 0; ; attempt++ {
		if err := ep.TryWrite(p, target, raddr, buf); err == nil {
			return
		}
		ep.retryBackoff(p, attempt)
	}
}

// TryReadToVA is TryRead with a pinned local destination region (the
// form used for stack transfer into the uni-address region, §5.3). A
// failed READ leaves the destination untouched.
func (ep *Endpoint) TryReadToVA(p *sim.Proc, target int, raddr mem.VA, laddr mem.VA, n uint64) error {
	lat := scaleLat(ep.fab.params.ReadLatency(int(n)), ep.scaleTo(target))
	extra, fail := ep.inject(OpRead, target, int(n))
	lat += extra
	ep.stats.Reads++
	ep.stats.BytesRead += n
	ep.stats.CyclesBlocked += lat
	start := p.Now()
	p.Advance(lat)
	ep.logOp(obs.KRead, start, lat, int(n), target, fail)
	if fail {
		return fmt.Errorf("%w: READ rank %d → rank %d (%d bytes)", ErrInjected, ep.rank, target, n)
	}
	src := ep.fab.eps[target].pinnedSlice(raddr, n)
	dst := ep.pinnedSlice(laddr, n)
	copy(dst, src)
	return nil
}

// ReadToVA is the reliable form of TryReadToVA (retry until success).
func (ep *Endpoint) ReadToVA(p *sim.Proc, target int, raddr mem.VA, laddr mem.VA, n uint64) {
	for attempt := 0; ; attempt++ {
		if err := ep.TryReadToVA(p, target, raddr, laddr, n); err == nil {
			return
		}
		ep.retryBackoff(p, attempt)
	}
}

// TryReadU64 reads a little-endian uint64 at (target, raddr).
func (ep *Endpoint) TryReadU64(p *sim.Proc, target int, raddr mem.VA) (uint64, error) {
	var b [8]byte
	if err := ep.TryRead(p, target, raddr, b[:]); err != nil {
		return 0, err
	}
	return leU64(b[:]), nil
}

// ReadU64 reads a little-endian uint64 at (target, raddr), reliably.
func (ep *Endpoint) ReadU64(p *sim.Proc, target int, raddr mem.VA) uint64 {
	var b [8]byte
	ep.Read(p, target, raddr, b[:])
	return leU64(b[:])
}

// TryWriteU64 writes a little-endian uint64 to (target, raddr).
func (ep *Endpoint) TryWriteU64(p *sim.Proc, target int, raddr mem.VA, v uint64) error {
	var b [8]byte
	putLeU64(b[:], v)
	return ep.TryWrite(p, target, raddr, b[:])
}

// WriteU64 writes a little-endian uint64 to (target, raddr), reliably.
func (ep *Endpoint) WriteU64(p *sim.Proc, target int, raddr mem.VA, v uint64) {
	var b [8]byte
	putLeU64(b[:], v)
	ep.Write(p, target, raddr, b[:])
}

// TryFetchAdd atomically adds delta to the uint64 at (target, raddr)
// and returns the previous value. With HardwareFAA it is a single
// fabric atomic; otherwise the request is serviced by the target node's
// communication server (the paper's software scheme). If target is the
// caller's own rank the operation is a local CPU atomic and never
// fails. A returned error guarantees the add was NOT applied
// (fail-before-effect), so retrying is safe.
func (ep *Endpoint) TryFetchAdd(p *sim.Proc, target int, raddr mem.VA, delta uint64) (uint64, error) {
	if target == ep.rank {
		p.Advance(ep.fab.params.LocalAtomic)
		return ep.fab.applyFAA(target, raddr, delta), nil
	}
	ep.stats.FAAs++
	if ep.fab.params.HardwareFAA {
		lat := scaleLat(ep.fab.params.HardwareFAALatency, ep.scaleTo(target))
		extra, fail := ep.inject(OpFAA, target, 8)
		lat += extra
		ep.stats.CyclesBlocked += lat
		start := p.Now()
		p.Advance(lat)
		ep.logOp(obs.KFAA, start, lat, 8, target, fail)
		if fail {
			return 0, fmt.Errorf("%w: FAA rank %d → rank %d", ErrInjected, ep.rank, target)
		}
		return ep.fab.applyFAA(target, raddr, delta), nil
	}
	srv := ep.fab.eps[target].server
	if srv == nil {
		panic(fmt.Sprintf("rdma: rank %d has no comm server for software FAA", target))
	}
	start := p.Now()
	old, err := srv.request(p, ep.fab, ep.scaleTo(target), ep.rank, target, raddr, delta)
	rtt := p.Now() - start
	ep.stats.CyclesBlocked += rtt
	if err != nil {
		ep.stats.FAATimeouts++
	}
	ep.logOp(obs.KFAA, start, rtt, 8, target, err != nil)
	if err == nil {
		// The software round trip (notice + server handling + reply) is
		// the paper's measured 9.8K-cycle quantity — histogram it.
		ep.log.Observe(obs.HSoftFAA, rtt)
	}
	return old, err
}

// FetchAdd is the reliable form of TryFetchAdd (retry until success —
// safe because failed FAAs were never applied).
func (ep *Endpoint) FetchAdd(p *sim.Proc, target int, raddr mem.VA, delta uint64) uint64 {
	for attempt := 0; ; attempt++ {
		old, err := ep.TryFetchAdd(p, target, raddr, delta)
		if err == nil {
			return old
		}
		ep.retryBackoff(p, attempt)
	}
}

// applyFAA performs the read-modify-write on the target memory. It must
// run in engine context (atomically at the current instant).
func (f *Fabric) applyFAA(target int, raddr mem.VA, delta uint64) uint64 {
	b := f.eps[target].pinnedSlice(raddr, 8)
	old := leU64(b)
	putLeU64(b, old+delta)
	return old
}

func leU64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putLeU64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}
