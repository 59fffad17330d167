// Package tape materializes a workload's reference streams once per
// {workload parameters, seed} into immutable flat columns — a
// "reference tape" — that every sweep cell replays instead of re-running
// the stream generator. The legality argument is the same invariant the
// engine's Stream contract already relies on: a stream's reference
// *sequence* is a pure function of the workload's parameters, its seed,
// and its allocation base addresses; only issue *times* vary with the
// memory configuration. Sweeps that compare many configurations over one
// workload therefore regenerate identical sequences per cell — graph
// construction, algorithm execution, pattern-state evolution — and all
// of that work is config-invariant.
//
// Because the paper's kernel and proxy workloads address memory as
// (allocation, offset) — apps index arrays, mix streams draw offsets
// inside variables — a recorded tape is *rebasable*: each reference is
// stored with the allocation slot it landed in, and replaying under a
// different VM layout (a different configuration's chunk groups place
// the heap differently) just adds that cell's base delta. Replay hands
// the slot on as cpu.Ref.Alloc, so the profiling collector attributes
// each reference to its variable without searching the layout again.
// Physical addresses are deliberately NOT recorded: every cell boots a
// fresh, demand-paged address space whose frames are assigned in
// first-touch order, and that order depends on the mapping under test,
// so a translation taken in one cell is never valid at the start of
// another.
package tape

import (
	"fmt"
	"sort"

	"repro/internal/cpu"
	"repro/internal/vm"
)

// Alloc is one allocation event observed during Workload.Setup.
type Alloc struct {
	Site  string
	Base  vm.VA
	Bytes uint64
}

// Layout is the ordered allocation record of one cell's Setup — capture
// it by passing Note as the workload.Env.OnAlloc hook. Two cells of the
// same workload produce layouts with identical (site, size) sequences
// (allocation order is program order, independent of mapping policy);
// only the bases differ, and that difference is exactly what replay
// rebases across.
type Layout struct {
	Allocs []Alloc
}

// Note records one allocation; it has the workload.Env.OnAlloc shape.
func (l *Layout) Note(site string, va vm.VA, bytes uint64) {
	l.Allocs = append(l.Allocs, Alloc{Site: site, Base: va, Bytes: bytes})
}

// shapeError reports how o's allocation sequence departs from the
// recorded one l — naming the first slot whose site or size differs —
// or nil when the two have the same shape, so per-slot base deltas are
// meaningful.
func (l *Layout) shapeError(o *Layout) error {
	for i := range min(len(l.Allocs), len(o.Allocs)) {
		got, want := o.Allocs[i], l.Allocs[i]
		if got.Site != want.Site || got.Bytes != want.Bytes {
			return fmt.Errorf("tape: allocation %d is %q (%d bytes), the recording's is %q (%d bytes)",
				i, got.Site, got.Bytes, want.Site, want.Bytes)
		}
	}
	if len(o.Allocs) != len(l.Allocs) {
		return fmt.Errorf("tape: layout has %d allocations, the recording %d", len(o.Allocs), len(l.Allocs))
	}
	return nil
}

// sameBases reports whether o places every allocation at the recorded
// address, making zero-copy replay valid.
func (l *Layout) sameBases(o *Layout) bool {
	if l.shapeError(o) != nil {
		return false
	}
	for i := range l.Allocs {
		if l.Allocs[i].Base != o.Allocs[i].Base {
			return false
		}
	}
	return true
}

// Tape is one immutable recording: per-reference columns in stream
// emission order, with stream boundaries in starts. All fields are
// written once by Record and only read afterwards, so one tape is safe
// to share across concurrently running cells.
type Tape struct {
	layout Layout // the recording cell's allocation layout

	va    []uint64 // virtual address per reference (recording layout)
	pc    []uint64
	write []uint64 // bitset, 1 = store
	alloc []int32  // 1 + allocation index the VA fell in; 0 = outside all
	// starts[i] is the first reference index of stream i;
	// starts[len] == total references.
	starts []int

	// rebasable is true when every reference landed inside a recorded
	// allocation, so replay under a same-shape layout is exact. A tape
	// with stray references can still be replayed zero-copy by cells
	// whose layout matches the recording bit-for-bit.
	rebasable bool
}

// Refs returns the total number of recorded references.
func (t *Tape) Refs() int { return t.starts[len(t.starts)-1] }

// NumStreams returns how many per-thread streams the tape holds.
func (t *Tape) NumStreams() int { return len(t.starts) - 1 }

// Rebasable reports whether the tape can replay under layouts that
// differ from the recording in allocation bases.
func (t *Tape) Rebasable() bool { return t.rebasable }

// Bytes approximates the tape's retained memory, for cache accounting.
func (t *Tape) Bytes() int {
	return 8*len(t.va) + 8*len(t.pc) + 8*len(t.write) + 4*len(t.alloc) + 8*len(t.starts)
}

func (t *Tape) isWrite(i int) bool { return t.write[i>>6]>>(uint(i)&63)&1 != 0 }

// span is one allocation of the recording layout as an address range.
type span struct {
	base, end uint64
	alloc     int32 // 1 + the allocation's slot
}

// slotIndex is the recording layout's allocations sorted by base: the
// one VA → allocation search, made once per reference while recording.
type slotIndex []span

func newSlotIndex(l *Layout) slotIndex {
	x := make(slotIndex, len(l.Allocs))
	for i, a := range l.Allocs {
		x[i] = span{base: uint64(a.Base), end: uint64(a.Base) + a.Bytes, alloc: int32(i) + 1}
	}
	sort.Slice(x, func(i, j int) bool { return x[i].base < x[j].base })
	return x
}

// find returns 1 + the slot of the allocation containing va, or 0.
func (x slotIndex) find(va uint64) int32 {
	i := sort.Search(len(x), func(i int) bool { return x[i].base > va })
	if i > 0 && va < x[i-1].end {
		return x[i-1].alloc
	}
	return 0
}

// Record drains the given streams — the value of Workload.Streams(seed)
// for the cell whose allocation layout is lay — into an immutable tape.
// The streams are consumed; replay views stand in for them afterwards.
func Record(streams []cpu.Stream, lay Layout) *Tape {
	t := &Tape{layout: Layout{Allocs: append([]Alloc(nil), lay.Allocs...)}, rebasable: true}
	t.starts = make([]int, 1, len(streams)+1)
	idx := newSlotIndex(&t.layout)
	var buf [256]cpu.Ref
	for _, s := range streams {
		for n := s.NextBatch(buf[:]); n > 0; n = s.NextBatch(buf[:]) {
			t.append(buf[:n], idx)
		}
		t.starts = append(t.starts, len(t.va))
	}
	return t
}

func (t *Tape) append(refs []cpu.Ref, idx slotIndex) {
	for _, r := range refs {
		i := len(t.va)
		t.va = append(t.va, uint64(r.VA))
		t.pc = append(t.pc, r.PC)
		if i>>6 >= len(t.write) {
			t.write = append(t.write, 0)
		}
		if r.Write {
			t.write[i>>6] |= 1 << (uint(i) & 63)
		}
		a := idx.find(uint64(r.VA))
		t.alloc = append(t.alloc, a)
		if a == 0 {
			t.rebasable = false
		}
	}
}

// Streams returns replay streams equivalent to the recorded run for a
// cell whose allocation layout is lay: zero-copy views when the bases
// match the recording, per-slot-rebased views when only the bases
// differ, and an error when the layouts are incompatible or the tape is
// not rebasable.
func (t *Tape) Streams(lay *Layout) ([]cpu.Stream, error) {
	var delta []uint64
	if !t.layout.sameBases(lay) {
		if !t.rebasable {
			return nil, fmt.Errorf("tape: recording has references outside its allocations; replay requires an identical layout")
		}
		if err := t.layout.shapeError(lay); err != nil {
			return nil, err
		}
		// delta is indexed by the alloc column: delta[0] stays 0 for
		// references outside every allocation (none, in a rebasable
		// tape).
		delta = make([]uint64, 1+len(lay.Allocs))
		for i, a := range lay.Allocs {
			// Two's-complement wraparound makes the delta valid for
			// bases that moved down as well as up.
			delta[1+i] = uint64(a.Base) - uint64(t.layout.Allocs[i].Base)
		}
	}
	out := make([]cpu.Stream, t.NumStreams())
	for i := range out {
		out[i] = &replayStream{t: t, delta: delta, pos: t.starts[i], end: t.starts[i+1]}
	}
	return out, nil
}

// replayStream is one thread's read-only view of a tape. delta == nil
// replays the recorded VAs verbatim; otherwise each VA is rebased by
// its allocation slot's base delta.
type replayStream struct {
	t     *Tape
	delta []uint64
	pos   int
	end   int
}

// NextBatch implements cpu.Stream.
//
//sdam:noalloc
func (r *replayStream) NextBatch(buf []cpu.Ref) int {
	n := min(r.end-r.pos, len(buf))
	if n <= 0 {
		return 0
	}
	t, pos, delta := r.t, r.pos, r.delta
	buf = buf[:n]
	va, pc, alloc := t.va[pos:pos+n], t.pc[pos:pos+n], t.alloc[pos:pos+n]
	for k := range buf {
		v := va[k]
		if delta != nil {
			v += delta[alloc[k]]
		}
		buf[k] = cpu.Ref{VA: vm.VA(v), PC: pc[k], Write: t.isWrite(pos + k), Alloc: alloc[k]}
	}
	r.pos += n
	return n
}
