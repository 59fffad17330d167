// Package trace implements the profiling substrate of §6.2: it observes
// every external memory access of a simulated program, attributes it to
// the program *variable* (allocation site) that owns the address —
// the call-stack-matching step of the paper — and accumulates the
// per-variable statistics the mapping-selection machinery consumes.
//
// Attribution is by allocation slot, not by address. The reference tape
// (internal/tape) already knows which allocation each reference fell in
// and replays it as cpu.Ref.Alloc; the collector is told the run's
// allocations in order (NoteAlloc) and maps slot → variable with one
// table index per access.
//
// Variables follow the paper's definition (after Ji et al.): a variable
// is the reference symbol for a piece of allocated memory, identified by
// its allocation call stack. All blocks allocated from one site belong
// to one variable.
//
// Bit-flip statistics are folded in online, so arbitrarily long runs
// profile in O(1) memory per variable; a bounded delta sequence is kept
// for the DL-based selector's training input.
package trace

import (
	"math/bits"
	"unsafe"

	"repro/internal/geom"
	"repro/internal/mapping"
)

// Variable aggregates everything known about one allocation site.
type Variable struct {
	VID  int
	Site string
	// Bytes sums the site's allocations; Refs counts external accesses
	// attributed to the variable.
	Bytes uint64
	Refs  uint64

	// Online BFRV state: flip counts between consecutive accesses to
	// this variable plus the previous offset observed.
	flips   [geom.OffsetBits]uint64
	prevOff uint32
	started bool

	// Sample retains the first SampleCap chunk offsets the variable
	// touched, letting mapping selection *measure* a candidate's channel
	// balance instead of trusting first-order flip statistics alone.
	Sample []uint32
}

// SampleCap bounds the per-variable offset sample.
const SampleCap = 2048

// BFRV returns the variable's bit-flip-rate vector (paper Eq. 1).
func (v *Variable) BFRV() mapping.BFRV {
	var out mapping.BFRV
	if v.Refs < 2 {
		return out
	}
	n := float64(v.Refs - 1)
	for i, f := range v.flips {
		out[i] = float64(f) / n
	}
	return out
}

// DeltaSample is one element of the DL training sequence: the XOR of two
// consecutive physical line addresses and the variable of the latter
// access (paper Fig 9's (Δ, VID) input pairs).
type DeltaSample struct {
	Delta uint32 // XOR of consecutive chunk offsets
	VID   int
}

// Collector observes allocations and accesses for one process.
type Collector struct {
	siteVID map[string]int
	vars    []*Variable
	// slotVar[s] is the variable of allocation slot s, in the order
	// NoteAlloc saw them — what Record's alloc argument indexes.
	slotVar []*Variable

	// Global delta sequence (bounded) for DL training.
	deltas    []DeltaSample
	maxDeltas int
	prevPA    geom.LineAddr
	prevSet   bool

	// Unattributed counts accesses that fell outside every allocation
	// (stack/globals in a real system).
	Unattributed uint64

	// Global flip statistics over the whole external access stream,
	// regardless of attribution — what the hardware-only BS+BSM baseline
	// profiles (§7.3: bit flip rate of the combined workload mix).
	globalFlips [geom.OffsetBits]uint64
	globalCount uint64
}

// NewCollector creates a collector retaining at most maxDeltas delta
// samples (0 means a 1M default).
func NewCollector(maxDeltas int) *Collector {
	if maxDeltas <= 0 {
		maxDeltas = 1 << 20
	}
	return &Collector{
		siteVID:   make(map[string]int),
		maxDeltas: maxDeltas,
	}
}

// VIDOf returns the variable ID for an allocation site, creating it on
// first sight — the PC→variable table gcc emits in the paper's flow.
func (c *Collector) VIDOf(site string) int {
	if vid, ok := c.siteVID[site]; ok {
		return vid
	}
	vid := len(c.vars)
	c.siteVID[site] = vid
	c.vars = append(c.vars, &Variable{VID: vid, Site: site})
	return vid
}

// NoteAlloc assigns the run's next allocation slot to site's variable.
// Call it once per allocation in the run's allocation order, so the
// s-th call describes slot s.
func (c *Collector) NoteAlloc(site string, bytes uint64) {
	v := c.vars[c.VIDOf(site)]
	v.Bytes += bytes
	c.slotVar = append(c.slotVar, v)
}

// Record folds one external access into the statistics: alloc is the
// reference's cpu.Ref.Alloc (1 + its allocation slot, 0 for none) and
// pa the physical line it reached.
func (c *Collector) Record(alloc int32, pa geom.LineAddr) {
	if c.prevSet {
		diff := c.prevPA.Offset() ^ pa.Offset()
		for diff != 0 {
			b := bits.TrailingZeros32(diff)
			c.globalFlips[b]++
			diff &= diff - 1
		}
	}
	c.globalCount++

	if alloc == 0 {
		c.Unattributed++
		c.prevPA = pa
		c.prevSet = true
		return
	}
	v := c.slotVar[alloc-1]
	off := pa.Offset()
	if v.started {
		diff := v.prevOff ^ off
		for diff != 0 {
			b := bits.TrailingZeros32(diff)
			v.flips[b]++
			diff &= diff - 1
		}
	}
	v.prevOff = off
	v.started = true
	v.Refs++
	if len(v.Sample) < SampleCap {
		v.Sample = append(v.Sample, off)
	}

	if c.prevSet && len(c.deltas) < c.maxDeltas {
		c.deltas = append(c.deltas, DeltaSample{
			Delta: uint32(c.prevPA^pa) & (1<<geom.OffsetBits - 1),
			VID:   v.VID,
		})
	}
	c.prevPA = pa
	c.prevSet = true
}

// Variables returns the collected variables ordered by VID.
func (c *Collector) Variables() []*Variable { return c.vars }

// Deltas returns the retained delta sequence.
func (c *Collector) Deltas() []DeltaSample { return c.deltas }

// Bytes estimates the heap the collector retains: the delta sequence
// plus each variable's record and offset sample. The slot and site
// tables are small next to those and are left out.
func (c *Collector) Bytes() int64 {
	n := int64(cap(c.deltas)) * int64(unsafe.Sizeof(DeltaSample{}))
	for _, v := range c.vars {
		n += int64(unsafe.Sizeof(*v)) + 4*int64(cap(v.Sample))
	}
	return n
}

// GlobalBFRV returns the flip-rate vector of the entire external access
// stream, the input to the BS+BSM baseline's one-global-mapping choice.
func (c *Collector) GlobalBFRV() mapping.BFRV {
	var out mapping.BFRV
	if c.globalCount < 2 {
		return out
	}
	n := float64(c.globalCount - 1)
	for i, f := range c.globalFlips {
		out[i] = float64(f) / n
	}
	return out
}

// TotalRefs sums attributed references over all variables.
func (c *Collector) TotalRefs() uint64 {
	var n uint64
	for _, v := range c.vars {
		n += v.Refs
	}
	return n
}
