// Package vm models the kernel virtual-memory machinery SDAM modifies
// (paper §6.1): per-process address spaces made of VMAs that carry an
// address-mapping ID, page tables filled on demand by a page-fault
// handler that allocates frames from the mapping's chunk group.
//
// VA→PA translation is deliberately left untouched by SDAM (correctness
// argument in §4); the only change is *which* frame backs a page, never
// how translation works.
package vm

import (
	"fmt"
	"sort"

	"repro/internal/amu"
	"repro/internal/chunk"
	"repro/internal/cmt"
	"repro/internal/geom"
	"repro/internal/rowguard"
)

// VA is a virtual byte address.
type VA uint64

// VPN returns the virtual page number.
func (v VA) VPN() uint64 { return uint64(v) >> geom.PageShift }

// PageOffset returns the offset within the page.
func (v VA) PageOffset() uint64 { return uint64(v) & (geom.PageBytes - 1) }

// Kernel owns the machine-wide memory-management state: the physical
// chunk allocator and the hardware CMT it programs.
type Kernel struct {
	Table  *cmt.Table
	Phys   *chunk.Allocator
	nextID int
	spaces []*AddressSpace
}

// NewKernel boots a kernel over nChunks of physical memory. The CMT is
// created alongside, with the default mapping pre-installed.
func NewKernel(nChunks int) *Kernel {
	table := cmt.New(nChunks)
	return &Kernel{
		Table: table,
		Phys:  chunk.NewAllocator(nChunks, table),
	}
}

// AddAddrMap installs a new address mapping into the hardware and
// returns its ID — the kernel half of glibc's add_addr_map() (§6.1).
func (k *Kernel) AddAddrMap(cfg amu.Config) (int, error) {
	return k.Table.AllocMappingIndex(cfg)
}

// AddSecureAddrMap installs an address mapping whose chunk group is
// row-hammer isolated: the allocator keeps the group's chunk-boundary
// rows empty (guard rows, paper §4), so data under this mapping cannot
// be disturbed from — nor disturb — other chunks. The extra capacity
// cost is the guarded-page fraction of each chunk.
func (k *Kernel) AddSecureAddrMap(cfg amu.Config, g geom.Geometry) (int, error) {
	id, err := k.Table.AllocMappingIndex(cfg)
	if err != nil {
		return 0, err
	}
	guarded := rowguard.GuardedPages(cfg, g)
	if err := k.Phys.SetGuard(id, func(p int) bool { return guarded[p] }); err != nil {
		return 0, err
	}
	return id, nil
}

// NewAddressSpace creates a process address space. The user portion
// starts at 4 GB to keep VA 0 unmapped (null deref trap, as usual).
func (k *Kernel) NewAddressSpace() *AddressSpace {
	k.nextID++
	as := &AddressSpace{
		kernel: k,
		pid:    k.nextID,
		cursor: VA(4) << 30,
	}
	k.spaces = append(k.spaces, as)
	return as
}

// Stats summarizes kernel memory state.
func (k *Kernel) Stats() KernelStats {
	var s KernelStats
	s.FreeChunks = k.Phys.FreeChunks()
	s.TotalChunks = k.Phys.Chunks()
	s.LiveMappings = k.Table.LiveMappings()
	for _, as := range k.spaces {
		s.MappedPages += as.mapped
		s.Faults += as.faults
	}
	return s
}

// KernelStats is the report form of kernel state.
type KernelStats struct {
	TotalChunks, FreeChunks int
	LiveMappings            int
	MappedPages             int
	Faults                  uint64
}

// VMA is one virtual memory area: a contiguous VA range bound to an
// address-mapping ID — the vm_area_struct extension of §6.1.
type VMA struct {
	Start, End VA // [Start, End)
	MapID      int
	Label      string // allocation-site label, used by the profiler
}

// Len returns the VMA length in bytes.
func (v VMA) Len() uint64 { return uint64(v.End - v.Start) }

// AddressSpace is one process's virtual memory.
//
// The page table is a dense VPN-indexed slice rather than a map: frames[i]
// holds frame+1 for VPN ptBase+i (0 = not populated). Mmap grows the table
// to cover every VMA up front, so the translation hot path is a single
// bounds-checked load with no hashing and no allocation. The unsigned
// subtraction in the fast path routes VPNs below ptBase out of range
// (they wrap to huge indexes) and into the slow path.
type AddressSpace struct {
	kernel *Kernel
	pid    int
	cursor VA
	vmas   []VMA    // sorted by Start
	ptBase uint64   // VPN of frames[0]
	frames []uint64 // frame+1 per VPN; 0 means unmapped
	mapped int      // populated entries in frames
	faults uint64
}

// PID returns the process ID.
func (as *AddressSpace) PID() int { return as.pid }

// Mmap reserves length bytes of virtual space bound to mapID, rounding
// up to whole pages. Pages are populated on first touch (demand paging),
// exactly as the modified mmap() in the paper. The label names the
// allocation site for the profiler.
func (as *AddressSpace) Mmap(length uint64, mapID int, label string) (VA, error) {
	if length == 0 {
		return 0, fmt.Errorf("vm: zero-length mmap")
	}
	if mapID < 0 || mapID >= cmt.MaxMappings {
		return 0, fmt.Errorf("vm: mapping ID %d out of range", mapID)
	}
	pages := (length + geom.PageBytes - 1) / geom.PageBytes
	start := as.cursor
	end := start + VA(pages*geom.PageBytes)
	as.cursor = end + geom.PageBytes // guard page between areas
	as.vmas = append(as.vmas, VMA{Start: start, End: end, MapID: mapID, Label: label})
	as.growTable(start.VPN(), end.VPN())
	return start, nil
}

// growTable extends the dense frame table to cover VPNs [lo, hi). Guard
// pages between VMAs leave permanently-zero entries, a small space cost
// for keeping every lookup a single index.
func (as *AddressSpace) growTable(lo, hi uint64) {
	if len(as.frames) == 0 {
		as.ptBase = lo
		as.frames = make([]uint64, hi-lo)
		return
	}
	if lo < as.ptBase {
		// The mmap cursor is monotonic so this does not happen today,
		// but keep the table correct if VMA placement ever changes.
		grown := make([]uint64, uint64(len(as.frames))+(as.ptBase-lo))
		copy(grown[as.ptBase-lo:], as.frames)
		as.frames = grown
		as.ptBase = lo
	}
	if n := hi - as.ptBase; n > uint64(len(as.frames)) {
		as.frames = append(as.frames, make([]uint64, n-uint64(len(as.frames)))...)
	}
}

// frameFor returns the frame backing vpn, if populated.
func (as *AddressSpace) frameFor(vpn uint64) (chunk.Frame, bool) {
	if idx := vpn - as.ptBase; idx < uint64(len(as.frames)) && as.frames[idx] != 0 {
		return chunk.Frame(as.frames[idx] - 1), true
	}
	return 0, false
}

// Munmap releases a VMA created by Mmap, freeing any populated frames.
func (as *AddressSpace) Munmap(start VA) error {
	for i, v := range as.vmas {
		if v.Start != start {
			continue
		}
		for vpn := v.Start.VPN(); vpn < v.End.VPN(); vpn++ {
			if f, ok := as.frameFor(vpn); ok {
				if err := as.kernel.Phys.FreeFrame(f); err != nil {
					return err
				}
				as.frames[vpn-as.ptBase] = 0
				as.mapped--
			}
		}
		as.vmas = append(as.vmas[:i], as.vmas[i+1:]...)
		return nil
	}
	return fmt.Errorf("vm: no VMA starts at %#x", start)
}

// FindVMA returns the VMA containing va, or nil.
func (as *AddressSpace) FindVMA(va VA) *VMA {
	i := sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].End > va })
	if i < len(as.vmas) && as.vmas[i].Start <= va && va < as.vmas[i].End {
		return &as.vmas[i]
	}
	return nil
}

// Translate resolves a VA to a physical byte address, faulting the page
// in on first access. The hit path is a single dense-table load, small
// enough to inline into callers; misses fall through to translateSlow,
// the page-fault-handler path of §6.1.
//
//sdam:noalloc
func (as *AddressSpace) Translate(va VA) (uint64, error) {
	if idx := va.VPN() - as.ptBase; idx < uint64(len(as.frames)) {
		if e := as.frames[idx]; e != 0 {
			return (e-1)<<geom.PageShift | va.PageOffset(), nil
		}
	}
	return as.translateSlow(va)
}

// translateSlow handles the first touch of a page: the frame comes from
// the chunk group of the enclosing VMA's mapping ID.
func (as *AddressSpace) translateSlow(va VA) (uint64, error) {
	v := as.FindVMA(va)
	if v == nil {
		return 0, fmt.Errorf("vm: segmentation fault at %#x (pid %d)", uint64(va), as.pid)
	}
	f, err := as.kernel.Phys.AllocFrame(v.MapID)
	if err != nil {
		return 0, fmt.Errorf("vm: page fault at %#x: %w", uint64(va), err)
	}
	as.frames[va.VPN()-as.ptBase] = uint64(f) + 1
	as.mapped++
	as.faults++
	return f.PA() | va.PageOffset(), nil
}

// TranslateLine resolves a VA to the cache-line physical address the
// memory controller consumes. The hit path shifts the cached frame
// directly — no second table probe, no byte-address round trip.
//
//sdam:noalloc
func (as *AddressSpace) TranslateLine(va VA) (geom.LineAddr, error) {
	if idx := va.VPN() - as.ptBase; idx < uint64(len(as.frames)) {
		if e := as.frames[idx]; e != 0 {
			return geom.LineAddr(((e-1)<<geom.PageShift | va.PageOffset()) >> geom.LineShift), nil
		}
	}
	pa, err := as.translateSlow(va)
	if err != nil {
		return 0, err
	}
	return geom.PA(pa), nil
}

// Remap moves the VMA starting at start to a different address mapping:
// every populated page migrates to a frame in the new mapping's chunk
// group and the VMA's mapping ID changes, so future faults follow suit.
// This is §6.1's "way to move memory between mappings" — the data copy
// a real kernel would do is implicit in the frame change. Returns the
// number of pages migrated.
func (as *AddressSpace) Remap(start VA, newMapID int) (int, error) {
	if newMapID < 0 || newMapID >= cmt.MaxMappings {
		return 0, fmt.Errorf("vm: mapping ID %d out of range", newMapID)
	}
	var v *VMA
	for i := range as.vmas {
		if as.vmas[i].Start == start {
			v = &as.vmas[i]
			break
		}
	}
	if v == nil {
		return 0, fmt.Errorf("vm: no VMA starts at %#x", uint64(start))
	}
	if v.MapID == newMapID {
		return 0, nil
	}
	migrated := 0
	for vpn := v.Start.VPN(); vpn < v.End.VPN(); vpn++ {
		old, ok := as.frameFor(vpn)
		if !ok {
			continue
		}
		fresh, err := as.kernel.Phys.AllocFrame(newMapID)
		if err != nil {
			return migrated, fmt.Errorf("vm: remapping page %#x: %w", vpn, err)
		}
		if err := as.kernel.Phys.FreeFrame(old); err != nil {
			return migrated, err
		}
		as.frames[vpn-as.ptBase] = uint64(fresh) + 1
		migrated++
	}
	v.MapID = newMapID
	return migrated, nil
}

// Populate eagerly faults in every page of the VMA starting at start,
// for workloads that want allocation cost up front.
func (as *AddressSpace) Populate(start VA) error {
	v := as.FindVMA(start)
	if v == nil {
		return fmt.Errorf("vm: no VMA at %#x", uint64(start))
	}
	for va := v.Start; va < v.End; va += geom.PageBytes {
		if _, err := as.Translate(va); err != nil {
			return err
		}
	}
	return nil
}

// VMAs returns a copy of the address space's areas, sorted by start.
func (as *AddressSpace) VMAs() []VMA {
	out := append([]VMA(nil), as.vmas...)
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Faults returns the number of demand-paging faults taken.
func (as *AddressSpace) Faults() uint64 { return as.faults }

// CheckInvariants verifies per-space consistency: every populated page
// lies in a VMA, its frame's chunk carries the VMA's mapping, and no
// frame backs two pages (DESIGN.md invariants 4-5).
func (as *AddressSpace) CheckInvariants() error {
	// The dense table is naturally in VPN order, so the first invariant
	// violation reported is always the same one, run to run.
	seen := make(map[chunk.Frame]uint64, as.mapped)
	for idx, e := range as.frames {
		if e == 0 {
			continue
		}
		vpn := as.ptBase + uint64(idx)
		f := chunk.Frame(e - 1)
		va := VA(vpn << geom.PageShift)
		v := as.FindVMA(va)
		if v == nil {
			return fmt.Errorf("vm: page %#x populated outside any VMA", vpn)
		}
		if prev, dup := seen[f]; dup {
			return fmt.Errorf("vm: frame %d backs pages %#x and %#x", f, prev, vpn)
		}
		seen[f] = vpn
		m, err := as.kernel.Phys.MappingOf(f)
		if err != nil {
			return err
		}
		if m != v.MapID {
			return fmt.Errorf("vm: page %#x frame mapping %d != VMA mapping %d", vpn, m, v.MapID)
		}
	}
	return nil
}
