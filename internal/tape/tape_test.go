package tape

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/cpu"
	"repro/internal/geom"
	"repro/internal/heap"
	"repro/internal/vm"
	"repro/internal/workload"
)

// setup runs w.Setup in a fresh address space, capturing the layout.
// padBytes pre-allocates a throwaway block first (bypassing the layout
// hook) so a second setup of the same workload lands at shifted bases.
func setup(t *testing.T, w workload.Workload, padBytes uint64) (Layout, *vm.AddressSpace) {
	t.Helper()
	k := vm.NewKernel(geom.Default().Chunks())
	as := k.NewAddressSpace()
	h := heap.New(as)
	if padBytes > 0 {
		if _, err := h.Malloc(padBytes, 0, "tape_test.pad"); err != nil {
			t.Fatal(err)
		}
	}
	var lay Layout
	env := &workload.Env{AS: as, Heap: h, OnAlloc: lay.Note}
	if err := w.Setup(env); err != nil {
		t.Fatal(err)
	}
	return lay, as
}

// drain consumes streams into flat per-stream reference slices.
func drain(ss []cpu.Stream) [][]cpu.Ref {
	out := make([][]cpu.Ref, len(ss))
	var buf [64]cpu.Ref
	for i, s := range ss {
		for n := s.NextBatch(buf[:]); n > 0; n = s.NextBatch(buf[:]) {
			out[i] = append(out[i], buf[:n]...)
		}
	}
	return out
}

func sameRefs(t *testing.T, got, want [][]cpu.Ref) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d streams, want %d", len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("stream %d: %d refs, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("stream %d ref %d: %+v, want %+v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

func testWorkload() workload.Workload {
	return workload.NewStrideCopy([]int{1, 7, 32}, 500, 1<<20)
}

func TestReplayMatchesLiveSameLayout(t *testing.T) {
	w := testWorkload()
	lay, _ := setup(t, w, 0)
	tp := Record(w.Streams(42), lay)
	if !tp.Rebasable() {
		t.Fatal("stride-copy tape not rebasable")
	}

	// A fresh clone at the identical layout must see the identical
	// sequence, and replay must take the zero-copy path.
	fresh := w.Clone()
	flay, _ := setup(t, fresh, 0)
	ss, err := tp.Streams(&flay)
	if err != nil {
		t.Fatal(err)
	}
	if rs := ss[0].(*replayStream); rs.delta != nil {
		t.Fatal("identical layout did not take the zero-copy path")
	}
	sameRefs(t, drain(ss), drain(fresh.Streams(42)))
}

func TestReplayRebasesAcrossLayouts(t *testing.T) {
	w := testWorkload()
	lay, _ := setup(t, w, 0)
	tp := Record(w.Streams(7), lay)

	// Shift the second cell's heap with a pad allocation: every base
	// moves, so replay must rebase per slot — and still match a live
	// clone set up in that shifted space.
	fresh := w.Clone()
	flay, _ := setup(t, fresh, 3*geom.PageBytes)
	if lay.sameBases(&flay) {
		t.Fatal("pad allocation did not move the bases; test is vacuous")
	}
	ss, err := tp.Streams(&flay)
	if err != nil {
		t.Fatal(err)
	}
	sameRefs(t, drain(ss), drain(fresh.Streams(7)))
}

// TestReplayRejectsIncompatibleLayout: replay refuses a layout with a
// missing allocation, and one with equal counts but a resized
// allocation — naming that slot, with its site and bytes on both sides.
func TestReplayRejectsIncompatibleLayout(t *testing.T) {
	w := testWorkload()
	lay, _ := setup(t, w, 0)
	tp := Record(w.Streams(1), lay)
	short := Layout{Allocs: lay.Allocs[:len(lay.Allocs)-1]}
	if _, err := tp.Streams(&short); err == nil {
		t.Fatal("replay accepted a layout with a missing allocation")
	}

	resized := Layout{Allocs: append([]Alloc(nil), lay.Allocs...)}
	resized.Allocs[1].Bytes /= 2
	_, err := tp.Streams(&resized)
	if err == nil {
		t.Fatal("replay accepted a layout with a resized allocation")
	}
	site := lay.Allocs[1].Site
	want := fmt.Sprintf("allocation 1 is %q (%d bytes), the recording's is %q (%d bytes)",
		site, lay.Allocs[1].Bytes/2, site, lay.Allocs[1].Bytes)
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not contain %q", err, want)
	}
}

func TestCacheSingleflight(t *testing.T) {
	ResetCache()
	defer ResetCache()

	w := testWorkload()
	lay, _ := setup(t, w, 0)
	first := drain(mustStreamsFor(t, w, 5, &lay))

	fresh := w.Clone()
	flay, _ := setup(t, fresh, geom.PageBytes)
	second := drain(mustStreamsFor(t, fresh, 5, &flay))

	s := CacheStats()
	if s.Builds != 1 || s.Hits != 1 {
		t.Fatalf("stats after two cells = %+v, want 1 build, 1 hit", s)
	}
	if s.Bytes == 0 || s.BuildNs < 0 {
		t.Fatalf("implausible accounting: %+v", s)
	}

	// The shared recording must not leak the first cell's bases into
	// the second cell's (shifted) replay: compare against a live clone
	// set up at the same shifted layout.
	ref := w.Clone()
	rlay, _ := setup(t, ref, geom.PageBytes)
	if !flay.sameBases(&rlay) {
		t.Fatal("reference clone landed at different bases; test is vacuous")
	}
	sameRefs(t, second, drain(ref.Streams(5)))
	if len(first[0]) != len(second[0]) {
		t.Fatal("cells disagree on stream length")
	}
}

// sharedKey gives a workload a fixed TapeKey, so workloads of different
// shapes collide on one cache entry.
type sharedKey struct{ workload.Workload }

func (sharedKey) TapeKey() string { return "tape_test/shared" }

// TestStreamsForRejectsIncompatibleLayout: a cell whose layout the
// cached recording cannot be replayed under gets an error naming the
// first differing allocation, not silently regenerated streams.
func TestStreamsForRejectsIncompatibleLayout(t *testing.T) {
	ResetCache()
	defer ResetCache()
	w := sharedKey{workload.NewStrideCopy([]int{1, 7, 32}, 500, 1<<20)}
	lay, _ := setup(t, w, 0)
	mustStreamsFor(t, w, 3, &lay)

	other := sharedKey{workload.NewStrideCopy([]int{1, 7, 16}, 500, 1<<20)}
	olay, _ := setup(t, other, 0)
	ss, err := StreamsFor(other, 3, &olay)
	if err == nil {
		t.Fatalf("incompatible layout served %d streams", len(ss))
	}
	if !strings.Contains(err.Error(), "allocation 2") || !strings.Contains(err.Error(), lay.Allocs[2].Site) ||
		!strings.Contains(err.Error(), olay.Allocs[2].Site) {
		t.Fatalf("error does not name the differing allocation: %v", err)
	}
	if s := CacheStats(); s.Builds != 1 || s.Hits != 1 {
		t.Fatalf("stats = %+v, want the one recording built once and hit once", s)
	}
}

// TestConcurrentCellsShareOneTape drives many goroutines through the
// cache for one {key, seed} at once — the shape of a -jobs 8 sweep —
// and checks every cell sees the identical sequence. Run under -race
// (CI does), this is the proof that replay sharing is read-only.
func TestConcurrentCellsShareOneTape(t *testing.T) {
	ResetCache()
	defer ResetCache()

	w := testWorkload()
	lay, _ := setup(t, w, 0)
	want := drain(Record(w.Streams(11), lay).mustStreams(t, &lay))

	const cells = 8
	got := make([][][]cpu.Ref, cells)
	errs := make([]error, cells)
	var wg sync.WaitGroup
	for c := 0; c < cells; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cw := w.Clone()
			as := vm.NewKernel(geom.Default().Chunks()).NewAddressSpace()
			var clay Layout
			env := &workload.Env{AS: as, Heap: heap.New(as), OnAlloc: clay.Note}
			if errs[c] = cw.Setup(env); errs[c] != nil {
				return
			}
			var ss []cpu.Stream
			if ss, errs[c] = StreamsFor(cw, 11, &clay); errs[c] != nil {
				return
			}
			got[c] = drain(ss)
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("cell %d: %v", c, err)
		}
	}
	for c := 0; c < cells; c++ {
		sameRefs(t, got[c], want)
	}
	s := CacheStats()
	if s.Builds != 1 {
		t.Fatalf("%d builds for one key, want 1", s.Builds)
	}
	if s.Hits != cells-1 {
		t.Fatalf("%d hits for %d cells, want %d", s.Hits, cells, cells-1)
	}
}

// mustStreams is a test helper: Streams or fatal.
func (t *Tape) mustStreams(tt *testing.T, lay *Layout) []cpu.Stream {
	tt.Helper()
	ss, err := t.Streams(lay)
	if err != nil {
		tt.Fatal(err)
	}
	return ss
}

// mustStreamsFor is a test helper: StreamsFor or fatal.
func mustStreamsFor(t *testing.T, w workload.Workload, seed int64, lay *Layout) []cpu.Stream {
	t.Helper()
	ss, err := StreamsFor(w, seed, lay)
	if err != nil {
		t.Fatal(err)
	}
	return ss
}
