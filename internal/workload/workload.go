// Package workload defines the benchmark programs that drive the
// evaluation: the synthetic strided data copy (§7.2's synthetic
// benchmark and Figs 3/4/11), and the 19 SPEC2006/PARSEC proxy
// applications whose variable-level structure is parameterized by the
// paper's published Table 1 statistics.
//
// A Workload allocates its variables through the SDAM-aware allocator —
// asking the environment's policy which mapping ID each variable gets —
// and then produces per-thread virtual-address reference streams that
// the cpu.Engine executes. Because allocation and access go through the
// same machinery a real program would (malloc → mmap → page fault →
// chunk group), the full SDAM stack is exercised end to end.
package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/cpu"
	"repro/internal/geom"
	"repro/internal/heap"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Env is everything a workload needs to set itself up.
type Env struct {
	AS   *vm.AddressSpace
	Heap *heap.Allocator
	// MapIDFor is the mapping policy: given a variable's allocation
	// site, return the mapping ID to malloc with. The baseline systems
	// return 0 everywhere; the SDAM configurations consult a Selection.
	MapIDFor func(site string) int
	// Collector, when non-nil, is told about allocations so accesses can
	// be attributed to variables.
	Collector *trace.Collector
	// OnAlloc, when non-nil, observes every allocation in program order —
	// the hook the reference-tape layer uses to capture a run's VM layout
	// (allocation site, base address, and size) so recorded reference
	// streams can be rebased onto another run's layout.
	OnAlloc func(site string, va vm.VA, bytes uint64)
}

// mapIDFor applies the policy with a nil-safe default.
func (e *Env) mapIDFor(site string) int {
	if e.MapIDFor == nil {
		return 0
	}
	return e.MapIDFor(site)
}

// Alloc allocates one variable through the policy and registers it with
// the collector.
func (e *Env) Alloc(site string, bytes uint64) (vm.VA, error) {
	va, err := e.Heap.Malloc(bytes, e.mapIDFor(site), site)
	if err != nil {
		return 0, fmt.Errorf("workload: allocating %q: %w", site, err)
	}
	if e.Collector != nil {
		e.Collector.NoteAlloc(site, va, bytes)
	}
	if e.OnAlloc != nil {
		e.OnAlloc(site, va, bytes)
	}
	return va, nil
}

// Workload is one benchmark program.
type Workload interface {
	// Name identifies the benchmark (Table 1 / Fig 12 row name).
	Name() string
	// Setup allocates the benchmark's variables under env's policy.
	Setup(env *Env) error
	// Streams returns the per-thread reference streams for one run.
	// Different seeds model different program inputs (the paper's
	// train-vs-test cross-validation, §7.3).
	Streams(seed int64) []cpu.Stream
	// TapeKey identifies the workload's content: two workloads with
	// equal keys emit identical streams for equal seeds, modulo
	// allocation base addresses. The reference-tape cache
	// (internal/tape) and the profiling memo share one recording and
	// one profiling pass per key, so the key must change whenever
	// anything the streams depend on changes — construction
	// parameters, or a trace's recorded contents.
	TapeKey() string
	// Clone returns a fresh, independent instance with the same
	// parameters (and so the same TapeKey). Setup mutates a workload
	// (it records the run's allocations), so concurrent runs of the
	// same benchmark — the parallel sweep cells of system.Compare and
	// the experiment harness — each run their own clone.
	Clone() Workload
}

// Clone returns an independent instance of w.
func Clone(w Workload) Workload { return w.Clone() }

// TapeKeyer is an alias of Workload, kept because the separate
// benchmark module (perfbench) asserts it, as it does cpu.BatchStream.
type TapeKeyer = Workload

// Pattern generates a variable's access-offset sequence.
type Pattern interface {
	// NewState creates a stateful offset generator over a variable of
	// the given size. The seed varies with program input.
	NewState(bytes uint64, seed int64) PatternState
	// String names the pattern for reports.
	String() string
}

// PatternState produces successive byte offsets within a variable.
type PatternState interface {
	Next() uint64
}

// Stride accesses the variable at a fixed cache-line stride, wrapping at
// the end — the dominant pattern class in array codes.
type Stride struct {
	Lines int // stride in cache lines
}

// NewState implements Pattern.
func (s Stride) NewState(bytes uint64, seed int64) PatternState {
	lines := bytes / geom.LineBytes
	if lines == 0 {
		lines = 1
	}
	stride := uint64(s.Lines)
	if stride == 0 {
		stride = 1
	}
	// The input seed varies where in the array the sweep begins, but a
	// strided loop always stays on the stride lattice (element 0, s,
	// 2s, …), so the start is aligned down to a stride multiple.
	start := uint64(0)
	if seed != 0 && lines > stride {
		start = uint64(seed*2654435761) % (lines / stride) * stride
	}
	return &strideState{lines: lines, stride: stride, pos: start}
}

// String implements Pattern.
func (s Stride) String() string { return fmt.Sprintf("stride%d", s.Lines) }

type strideState struct {
	lines, stride, pos uint64
}

func (s *strideState) Next() uint64 {
	off := s.pos * geom.LineBytes
	s.pos += s.stride
	if s.pos >= s.lines {
		// Pure modulo wrap: a stride-s sweep revisits exactly the lines
		// ≡ start (mod s), the pattern that collapses channel
		// interleaving in the paper's motivating experiment (Fig 3).
		s.pos %= s.lines
	}
	return off
}

// Random accesses uniformly distributed cache lines — hash tables,
// pointer-heavy structures.
type Random struct{}

// NewState implements Pattern.
func (Random) NewState(bytes uint64, seed int64) PatternState {
	lines := bytes / geom.LineBytes
	if lines == 0 {
		lines = 1
	}
	return &randomState{lines: lines, rng: rand.New(rand.NewSource(seed ^ 0x9e3779b9))}
}

// String implements Pattern.
func (Random) String() string { return "random" }

type randomState struct {
	lines uint64
	rng   *rand.Rand
}

func (s *randomState) Next() uint64 {
	return (s.rng.Uint64() % s.lines) * geom.LineBytes
}

// Chase models pointer chasing: a pseudo-random permutation walk whose
// next address depends on the current one, giving serial random misses.
type Chase struct{}

// NewState implements Pattern.
func (Chase) NewState(bytes uint64, seed int64) PatternState {
	lines := bytes / geom.LineBytes
	if lines == 0 {
		lines = 1
	}
	return &chaseState{lines: lines, cur: uint64(seed) % lines}
}

// String implements Pattern.
func (Chase) String() string { return "chase" }

type chaseState struct {
	lines, cur uint64
}

func (s *chaseState) Next() uint64 {
	off := s.cur * geom.LineBytes
	// Weyl-style walk: full-period for odd increments; the multiplier
	// scrambles locality like a linked structure does.
	s.cur = (s.cur*2862933555777941757 + 3037000493) % s.lines
	return off
}

// varRef is one allocated variable ready to generate references.
type varRef struct {
	site    string
	base    vm.VA
	bytes   uint64
	pattern Pattern
	weight  float64 // share of references
	pc      uint64
}

// mixStream interleaves several variables' reference generators
// according to a deterministic weighted schedule. It generates
// references incrementally in batches (cpu.Stream), so a
// multi-million-entry stream is never materialized.
type mixStream struct {
	vars      []varRef
	states    []PatternState
	schedule  []int
	pos       int
	remaining int
}

// newMixStream builds a stream of n references over the variables,
// scheduled by weight.
func newMixStream(vars []varRef, n int, seed int64) *mixStream {
	ms := &mixStream{vars: vars, remaining: n}
	ms.states = make([]PatternState, len(vars))
	for i, v := range vars {
		ms.states[i] = v.pattern.NewState(v.bytes, seed+int64(i))
	}
	// Build a schedule with slot counts exactly proportional to weights
	// (largest-remainder apportionment — lightly-weighted variables may
	// get zero slots, as rarely-touched variables should), then shuffle
	// deterministically so patterns interleave.
	const slots = 4096
	var total float64
	for _, v := range vars {
		total += v.weight
	}
	type share struct {
		idx  int
		k    int
		frac float64
	}
	shares := make([]share, len(vars))
	assigned := 0
	for i, v := range vars {
		exact := v.weight / total * slots
		shares[i] = share{idx: i, k: int(exact), frac: exact - float64(int(exact))}
		assigned += shares[i].k
	}
	sort.SliceStable(shares, func(a, b int) bool { return shares[a].frac > shares[b].frac })
	for i := 0; assigned < slots; i, assigned = (i+1)%len(shares), assigned+1 {
		shares[i].k++
	}
	for _, sh := range shares {
		for j := 0; j < sh.k; j++ {
			ms.schedule = append(ms.schedule, sh.idx)
		}
	}
	r := rand.New(rand.NewSource(seed ^ 0x5bf03635))
	r.Shuffle(len(ms.schedule), func(i, j int) {
		ms.schedule[i], ms.schedule[j] = ms.schedule[j], ms.schedule[i]
	})
	return ms
}

// Next emits one reference; ok=false ends the stream. It is the scalar
// reference implementation NextBatch is tested against, not part of
// the cpu.Stream contract.
func (ms *mixStream) Next() (cpu.Ref, bool) {
	if ms.remaining <= 0 || len(ms.schedule) == 0 {
		return cpu.Ref{}, false
	}
	ms.remaining--
	i := ms.schedule[ms.pos%len(ms.schedule)]
	ms.pos++
	v := &ms.vars[i]
	off := ms.states[i].Next()
	if off >= v.bytes {
		off = 0
	}
	return cpu.Ref{VA: v.base + vm.VA(off), PC: v.pc}, true
}

// NextBatch implements cpu.Stream: the same emission as repeated Next
// calls, produced with the schedule wrap hoisted out of the
// per-reference work.
//
//sdam:noalloc
func (ms *mixStream) NextBatch(buf []cpu.Ref) int {
	n := len(buf)
	if n > ms.remaining {
		n = ms.remaining
	}
	if n <= 0 || len(ms.schedule) == 0 {
		return 0
	}
	pos := ms.pos % len(ms.schedule)
	for k := 0; k < n; k++ {
		i := ms.schedule[pos]
		pos++
		if pos == len(ms.schedule) {
			pos = 0
		}
		v := &ms.vars[i]
		off := ms.states[i].Next()
		if off >= v.bytes {
			off = 0
		}
		buf[k] = cpu.Ref{VA: v.base + vm.VA(off), PC: v.pc}
	}
	ms.pos += n
	ms.remaining -= n
	return n
}
