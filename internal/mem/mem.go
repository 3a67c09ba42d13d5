// Package mem models per-process virtual address spaces for the
// simulated cluster.
//
// Each simulated process owns an AddressSpace holding a set of reserved
// Regions. A Region tracks demand paging at page granularity: the first
// access to a page "commits" it (allocates a physical page) and counts a
// page fault, mirroring the first-touch behaviour that makes iso-address
// migration expensive (paper §4, item 2). Pinned regions — required for
// RDMA access — commit all of their pages eagerly, exactly as pinning
// does on real hardware.
//
// Addresses are plain uint64 virtual addresses (type VA). The package
// also keeps per-space accounting of reserved and committed bytes so the
// iso-address vs uni-address address-space comparison (paper §4/§5) can
// be measured rather than asserted.
//
// Arena (arena.go) is the uni-address region's stack discipline (§5.2)
// over any byte slice; the simulator and both real backends run on it.
package mem

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// VA is a simulated virtual address.
type VA uint64

// DefaultPageSize matches the 4 KiB base page size assumed in the paper's
// §4 analysis.
const DefaultPageSize = 4096

// Region is a reserved range of virtual addresses with byte-addressable
// backing store and per-page commit state.
type Region struct {
	Name   string
	Base   VA
	Size   uint64
	Pinned bool

	space     *AddressSpace
	data      []byte
	committed []bool
	faults    uint64
}

// End returns one past the last address of the region.
func (r *Region) End() VA { return r.Base + VA(r.Size) }

// Contains reports whether [va, va+n) lies fully inside the region.
func (r *Region) Contains(va VA, n uint64) bool {
	return va >= r.Base && va+VA(n) <= r.End() && va+VA(n) >= va
}

// Faults returns the number of first-touch page faults taken in this
// region so far.
func (r *Region) Faults() uint64 { return r.faults }

// CommittedBytes returns the number of bytes backed by committed pages.
func (r *Region) CommittedBytes() uint64 {
	var n uint64
	for _, c := range r.committed {
		if c {
			n += r.space.pageSize
		}
	}
	if n > r.Size {
		n = r.Size
	}
	return n
}

// touch commits every page overlapping [va, va+n) and returns how many
// new page faults that caused. Pinned regions never fault (their pages
// were committed when pinned).
func (r *Region) touch(va VA, n uint64) uint64 {
	if r.Pinned || n == 0 {
		return 0
	}
	ps := r.space.pageSize
	first := (uint64(va) - uint64(r.Base)) / ps
	last := (uint64(va) - uint64(r.Base) + n - 1) / ps
	var faults uint64
	for p := first; p <= last; p++ {
		if !r.committed[p] {
			r.committed[p] = true
			faults++
		}
	}
	r.faults += faults
	r.space.faults += faults
	return faults
}

// AddressSpace is one simulated process's virtual memory map.
type AddressSpace struct {
	Owner    string
	pageSize uint64
	regions  []*Region // sorted by Base
	reserved uint64
	phantom  int64
	faults   uint64
}

// AdjustPhantom adds delta bytes of "phantom" reservation: virtual
// address space that is reserved (and counted by ReservedBytes) but has
// no touchable backing yet. The iso-address scheme reserves the whole
// global stack range this way and converts slabs to real regions on
// first use.
func (s *AddressSpace) AdjustPhantom(delta int64) {
	s.phantom += delta
	if s.phantom < 0 {
		panic("mem: negative phantom reservation")
	}
}

// NewAddressSpace returns an empty address space using the default page
// size.
func NewAddressSpace(owner string) *AddressSpace {
	return &AddressSpace{Owner: owner, pageSize: DefaultPageSize}
}

// SetPageSize overrides the page size; it must be called before any
// region is reserved.
func (s *AddressSpace) SetPageSize(ps uint64) {
	if len(s.regions) > 0 {
		panic("mem: SetPageSize after Reserve")
	}
	if ps == 0 {
		panic("mem: zero page size")
	}
	s.pageSize = ps
}

// PageSize returns the page size in bytes.
func (s *AddressSpace) PageSize() uint64 { return s.pageSize }

// ReservedBytes returns the total virtual address space reserved,
// including phantom reservations.
func (s *AddressSpace) ReservedBytes() uint64 {
	return s.reserved + uint64(s.phantom)
}

// Faults returns the total first-touch page faults across all regions.
func (s *AddressSpace) Faults() uint64 { return s.faults }

// CommittedBytes returns the total bytes of committed (physical) memory.
func (s *AddressSpace) CommittedBytes() uint64 {
	var n uint64
	for _, r := range s.regions {
		if r.Pinned {
			n += r.Size
		} else {
			n += r.CommittedBytes()
		}
	}
	return n
}

// Reserve maps a new region [base, base+size). Reserving overlapping
// regions is an error. Pinned regions are committed eagerly.
func (s *AddressSpace) Reserve(name string, base VA, size uint64, pinned bool) (*Region, error) {
	if size == 0 {
		return nil, fmt.Errorf("mem: %s: zero-size region %q", s.Owner, name)
	}
	if uint64(base)+size < uint64(base) {
		return nil, fmt.Errorf("mem: %s: region %q wraps address space", s.Owner, name)
	}
	idx := sort.Search(len(s.regions), func(i int) bool { return s.regions[i].Base > base })
	if idx > 0 {
		prev := s.regions[idx-1]
		if prev.End() > base {
			return nil, fmt.Errorf("mem: %s: region %q [%#x,%#x) overlaps %q", s.Owner, name, base, base+VA(size), prev.Name)
		}
	}
	if idx < len(s.regions) {
		next := s.regions[idx]
		if base+VA(size) > next.Base {
			return nil, fmt.Errorf("mem: %s: region %q [%#x,%#x) overlaps %q", s.Owner, name, base, base+VA(size), next.Name)
		}
	}
	npages := (size + s.pageSize - 1) / s.pageSize
	r := &Region{
		Name:      name,
		Base:      base,
		Size:      size,
		Pinned:    pinned,
		space:     s,
		data:      make([]byte, size),
		committed: make([]bool, npages),
	}
	if pinned {
		for i := range r.committed {
			r.committed[i] = true
		}
	}
	s.regions = append(s.regions, nil)
	copy(s.regions[idx+1:], s.regions[idx:])
	s.regions[idx] = r
	s.reserved += size
	return r, nil
}

// MustReserve is Reserve that panics on error (for fixed start-up maps).
func (s *AddressSpace) MustReserve(name string, base VA, size uint64, pinned bool) *Region {
	r, err := s.Reserve(name, base, size, pinned)
	if err != nil {
		panic(err)
	}
	return r
}

// Unreserve removes a region, releasing its address range.
func (s *AddressSpace) Unreserve(r *Region) {
	for i, reg := range s.regions {
		if reg == r {
			s.regions = append(s.regions[:i], s.regions[i+1:]...)
			s.reserved -= r.Size
			r.space = nil
			return
		}
	}
	panic("mem: Unreserve of unknown region")
}

// Lookup returns the region containing [va, va+n), or an error.
func (s *AddressSpace) Lookup(va VA, n uint64) (*Region, error) {
	idx := sort.Search(len(s.regions), func(i int) bool { return s.regions[i].Base > va })
	if idx == 0 {
		return nil, fmt.Errorf("mem: %s: unmapped address %#x", s.Owner, va)
	}
	r := s.regions[idx-1]
	if !r.Contains(va, n) {
		return nil, fmt.Errorf("mem: %s: access [%#x,+%d) escapes region %q [%#x,%#x)", s.Owner, va, n, r.Name, r.Base, r.End())
	}
	return r, nil
}

// Read copies n = len(buf) bytes at va into buf. It returns the number
// of page faults the access caused.
func (s *AddressSpace) Read(va VA, buf []byte) (faults uint64, err error) {
	r, err := s.Lookup(va, uint64(len(buf)))
	if err != nil {
		return 0, err
	}
	faults = r.touch(va, uint64(len(buf)))
	copy(buf, r.data[va-r.Base:])
	return faults, nil
}

// Write copies buf to va. It returns the number of page faults caused.
func (s *AddressSpace) Write(va VA, buf []byte) (faults uint64, err error) {
	r, err := s.Lookup(va, uint64(len(buf)))
	if err != nil {
		return 0, err
	}
	faults = r.touch(va, uint64(len(buf)))
	copy(r.data[va-r.Base:], buf)
	return faults, nil
}

// Slice returns a direct view of the bytes [va, va+n). The access is
// counted as a touch (pages commit, faults accrue). The returned slice
// aliases the region's backing store; callers must stay within n bytes.
func (s *AddressSpace) Slice(va VA, n uint64) ([]byte, error) {
	r, err := s.Lookup(va, n)
	if err != nil {
		return nil, err
	}
	r.touch(va, n)
	return r.data[va-r.Base : uint64(va-r.Base)+n : uint64(va-r.Base)+n], nil
}

// ReadU64 loads a little-endian uint64 at va.
func (s *AddressSpace) ReadU64(va VA) (uint64, error) {
	var b [8]byte
	if _, err := s.Read(va, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// WriteU64 stores a little-endian uint64 at va.
func (s *AddressSpace) WriteU64(va VA, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	_, err := s.Write(va, b[:])
	return err
}

// MustReadU64 is ReadU64 that panics on error.
func (s *AddressSpace) MustReadU64(va VA) uint64 {
	v, err := s.ReadU64(va)
	if err != nil {
		panic(err)
	}
	return v
}

// MustWriteU64 is WriteU64 that panics on error.
func (s *AddressSpace) MustWriteU64(va VA, v uint64) {
	if err := s.WriteU64(va, v); err != nil {
		panic(err)
	}
}

// Regions returns the regions in address order (a copy of the slice).
func (s *AddressSpace) Regions() []*Region {
	out := make([]*Region, len(s.regions))
	copy(out, s.regions)
	return out
}
