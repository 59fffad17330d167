package cpu

import (
	"testing"
	"unsafe"

	"repro/internal/amu"
	"repro/internal/geom"
	"repro/internal/hbm"
	"repro/internal/mapping"
	"repro/internal/memctrl"
	"repro/internal/trace"
	"repro/internal/vm"
)

// rig builds a kernel, an address space with one big buffer, and a
// global-mapping controller.
func rig(t *testing.T, m mapping.Mapping) (*memctrl.Controller, *vm.AddressSpace, vm.VA) {
	t.Helper()
	k := vm.NewKernel(geom.Default().Chunks())
	as := k.NewAddressSpace()
	va, err := as.Mmap(64<<20, 0, "buf")
	if err != nil {
		t.Fatal(err)
	}
	dev := hbm.New(geom.Default(), hbm.DefaultTiming())
	return memctrl.NewGlobal(dev, m), as, va
}

// strideRefs materializes n references at the given line stride.
func strideRefs(base vm.VA, n, strideLines int) *SliceStream {
	s := &SliceStream{}
	for i := 0; i < n; i++ {
		s.Refs = append(s.Refs, Ref{VA: base + vm.VA(i*strideLines*geom.LineBytes), PC: 0x400000})
	}
	return s
}

func TestRunEmpty(t *testing.T) {
	ctrl, as, _ := rig(t, nil)
	e := New(CPUConfig(1), ctrl, as)
	res, err := e.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.References != 0 || res.TimeNs != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestCacheFiltersRepeats(t *testing.T) {
	ctrl, as, va := rig(t, nil)
	e := New(CPUConfig(1), ctrl, as)
	// Touch 64 lines twice: second pass hits in LLC, so external
	// accesses ≈ 64.
	s := &SliceStream{}
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 64; i++ {
			s.Refs = append(s.Refs, Ref{VA: va + vm.VA(i*geom.LineBytes)})
		}
	}
	res, err := e.Run([]Stream{s})
	if err != nil {
		t.Fatal(err)
	}
	if res.References != 128 {
		t.Fatalf("references = %d", res.References)
	}
	if res.External != 64 || res.CacheHits != 64 {
		t.Fatalf("external = %d hits = %d", res.External, res.CacheHits)
	}
}

func TestAcceleratorHasNoCache(t *testing.T) {
	ctrl, as, va := rig(t, nil)
	e := New(AcceleratorConfig(1), ctrl, as)
	s := &SliceStream{}
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 64; i++ {
			s.Refs = append(s.Refs, Ref{VA: va + vm.VA(i*geom.LineBytes)})
		}
	}
	res, err := e.Run([]Stream{s})
	if err != nil {
		t.Fatal(err)
	}
	if res.External != 128 || res.CacheHits != 0 {
		t.Fatalf("accelerator filtered accesses: %+v", res)
	}
}

func TestMappingMattersForStridedStreams(t *testing.T) {
	// End-to-end: the same stride-32 workload runs much faster with a
	// stride-matched mapping than with the default.
	run := func(m mapping.Mapping) Result {
		ctrl, as, va := rig(t, m)
		e := New(CPUConfig(4), ctrl, as)
		streams := make([]Stream, 4)
		for i := range streams {
			streams[i] = strideRefs(va+vm.VA(i*16<<20), 4096, 32)
		}
		res, err := e.Run(streams)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	dm := run(mapping.Identity{})
	bsm := run(mapping.ForStride(32, geom.Default()))
	speedup := bsm.SpeedupOver(dm)
	// With the realistic >130 ns memory latency the 4-core CPU is partly
	// latency-bound, so the channel-contention win is ~2-3x here (the
	// raw device-level gap is >10x, see the memctrl tests).
	if speedup < 2 {
		t.Fatalf("stride-matched mapping speedup %.2fx, want >2x", speedup)
	}
}

func TestMSHRDepthIncreasesOverlap(t *testing.T) {
	// More outstanding misses → more overlap → faster, for a
	// random-ish pattern that misses the cache.
	run := func(mshrs int) Result {
		ctrl, as, va := rig(t, nil)
		cfg := CPUConfig(1)
		cfg.MSHRs = mshrs
		cfg.CacheBytes = 0 // isolate the memory system
		e := New(cfg, ctrl, as)
		res, err := e.Run([]Stream{strideRefs(va, 8192, 1)})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	shallow := run(1)
	deep := run(16)
	if deep.TimeNs >= shallow.TimeNs {
		t.Fatalf("deep window (%.0f ns) not faster than blocking (%.0f ns)", deep.TimeNs, shallow.TimeNs)
	}
}

func TestMultipleCoresShareBandwidth(t *testing.T) {
	run := func(cores int) Result {
		ctrl, as, va := rig(t, nil)
		cfg := CPUConfig(cores)
		cfg.CacheBytes = 0
		e := New(cfg, ctrl, as)
		streams := make([]Stream, cores)
		for i := range streams {
			streams[i] = strideRefs(va+vm.VA(i*8<<20), 4096, 1)
		}
		res, err := e.Run(streams)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one := run(1)
	four := run(4)
	// 4 cores do 4x the work; with abundant CLP it should take well
	// under 4x the time of one core's workload.
	if four.TimeNs > 3*one.TimeNs {
		t.Fatalf("4 cores: %.0f ns vs 1 core %.0f ns — no parallelism", four.TimeNs, one.TimeNs)
	}
}

func TestCollectorReceivesExternalAccessesOnly(t *testing.T) {
	ctrl, as, va := rig(t, nil)
	e := New(CPUConfig(1), ctrl, as)
	col := trace.NewCollector(0)
	col.NoteAlloc("buf", 64<<20)
	e.Collector = col
	s := &SliceStream{}
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 32; i++ {
			s.Refs = append(s.Refs, Ref{VA: va + vm.VA(i*geom.LineBytes), Alloc: 1})
		}
	}
	if _, err := e.Run([]Stream{s}); err != nil {
		t.Fatal(err)
	}
	if got := col.TotalRefs(); got != 32 {
		t.Fatalf("collector saw %d refs, want 32 external only", got)
	}
}

// TestRefStays24Bytes: Alloc fits in Write's padding, so carrying the
// allocation slot costs the batch buffers nothing.
func TestRefStays24Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Ref{}); n != 24 {
		t.Fatalf("Ref is %d bytes, want 24", n)
	}
}

func TestSegfaultPropagates(t *testing.T) {
	ctrl, as, _ := rig(t, nil)
	e := New(CPUConfig(1), ctrl, as)
	s := &SliceStream{Refs: []Ref{{VA: 0x10}}}
	if _, err := e.Run([]Stream{s}); err == nil {
		t.Fatal("unmapped reference did not error")
	}
}

func TestFaultAccounting(t *testing.T) {
	ctrl, as, va := rig(t, nil)
	e := New(CPUConfig(1), ctrl, as)
	// Touch 4 distinct pages.
	s := &SliceStream{}
	for i := 0; i < 4; i++ {
		s.Refs = append(s.Refs, Ref{VA: va + vm.VA(i*geom.PageBytes)})
	}
	res, err := e.Run([]Stream{s})
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults != 4 {
		t.Fatalf("faults = %d", res.Faults)
	}
}

// cappedStream returns at most k references per NextBatch call, the
// short counts the Stream contract allows at any time.
type cappedStream struct {
	Stream
	k int
}

func (s cappedStream) NextBatch(buf []Ref) int {
	return s.Stream.NextBatch(buf[:min(len(buf), s.k)])
}

// TestShortBatchesMatchFullBatches pins the engine's only refill path
// against short batches: capping every NextBatch at k references must
// not change any result, on either engine, with several streams per
// core so refills straddle stream boundaries (one stream is empty).
func TestShortBatchesMatchFullBatches(t *testing.T) {
	streams := func(va vm.VA) []*SliceStream {
		out := make([]*SliceStream, 10)
		for i := range out {
			s := &SliceStream{}
			n := 37 * i // stream 0 is empty; the others end mid-batch
			for j := 0; j < n; j++ {
				line := (j * (2*i + 1)) % 64 // revisits lines, so the L1 hits
				s.Refs = append(s.Refs, Ref{
					VA:    va + vm.VA(i<<20+line*geom.LineBytes),
					PC:    uint64(i),
					Write: j%5 == 0,
				})
			}
			out[i] = s
		}
		return out
	}
	run := func(cfg Config, k int) Result {
		ctrl, as, va := rig(t, nil)
		var ss []Stream
		for _, s := range streams(va) {
			if k > 0 {
				ss = append(ss, cappedStream{s, k})
			} else {
				ss = append(ss, s)
			}
		}
		res, err := New(cfg, ctrl, as).Run(ss)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, cfg := range []Config{CPUConfig(4), AcceleratorConfig(4)} {
		want := run(cfg, 0)
		if want.References != 37*45 || want.External == 0 {
			t.Fatalf("%s: implausible uncapped run %+v", cfg.Name, want)
		}
		if cfg.L1Bytes > 0 && want.CacheHits == 0 {
			t.Fatalf("%s: no cache hits; the hit path is untested", cfg.Name)
		}
		for _, k := range []int{1, 3, 63} {
			if got := run(cfg, k); got != want {
				t.Errorf("%s k=%d: %+v, uncapped %+v", cfg.Name, k, got, want)
			}
		}
	}
}

func TestConfigNames(t *testing.T) {
	if CPUConfig(0).Cores != 4 {
		t.Fatal("default cores wrong")
	}
	if AcceleratorConfig(0).Cores != 4 {
		t.Fatal("default units wrong")
	}
	if CPUConfig(2).Name == "" || AcceleratorConfig(2).Name == "" {
		t.Fatal("empty config names")
	}
}

func TestPostedWritesDoNotStall(t *testing.T) {
	// A store-only stream never blocks on MSHRs: with MSHRs=1, a load
	// stream serializes on memory latency while a store stream issues at
	// the compute cadence.
	run := func(write bool) Result {
		ctrl, as, va := rig(t, nil)
		cfg := CPUConfig(1)
		cfg.MSHRs = 1
		cfg.CacheBytes = 0
		e := New(cfg, ctrl, as)
		s := &SliceStream{}
		for i := 0; i < 2048; i++ {
			s.Refs = append(s.Refs, Ref{VA: va + vm.VA(i*geom.LineBytes), Write: write})
		}
		res, err := e.Run([]Stream{s})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	loads := run(false)
	stores := run(true)
	if stores.Writes != 2048 || loads.Writes != 0 {
		t.Fatalf("write accounting: %d / %d", stores.Writes, loads.Writes)
	}
	if stores.TimeNs >= loads.TimeNs {
		t.Fatalf("posted stores (%.0f ns) not faster than blocking loads (%.0f ns)",
			stores.TimeNs, loads.TimeNs)
	}
}

func TestWritesStillUseBandwidth(t *testing.T) {
	// Stores are posted but not free: they occupy the channel bus, so a
	// store stream to one channel is bus-limited.
	ctrl, as, va := rig(t, nil)
	cfg := AcceleratorConfig(1)
	e := New(cfg, ctrl, as)
	s := &SliceStream{}
	for i := 0; i < 2048; i++ {
		s.Refs = append(s.Refs, Ref{VA: va + vm.VA(i*32*geom.LineBytes), Write: true})
	}
	if _, err := e.Run([]Stream{s}); err != nil {
		t.Fatal(err)
	}
	st := ctrl.Device().Stats()
	if st.Requests != 2048 {
		t.Fatalf("device saw %d requests", st.Requests)
	}
	if st.ChannelsUsed() != 1 {
		t.Fatalf("stride-32 stores used %d channels", st.ChannelsUsed())
	}
}

func TestRunProcsCoRunsTwoAddressSpaces(t *testing.T) {
	k := vm.NewKernel(geom.Default().Chunks())
	as1 := k.NewAddressSpace()
	as2 := k.NewAddressSpace()
	va1, _ := as1.Mmap(1<<20, 0, "p1")
	va2, _ := as2.Mmap(1<<20, 0, "p2")
	dev := hbm.New(geom.Default(), hbm.DefaultTiming())
	e := New(CPUConfig(2), memctrl.NewGlobal(dev, nil), nil)
	mk := func(base vm.VA) *SliceStream {
		s := &SliceStream{}
		for i := 0; i < 256; i++ {
			s.Refs = append(s.Refs, Ref{VA: base + vm.VA(i*geom.LineBytes)})
		}
		return s
	}
	res, err := e.RunProcs([]Proc{
		{AS: as1, Streams: []Stream{mk(va1)}},
		{AS: as2, Streams: []Stream{mk(va2)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.References != 512 {
		t.Fatalf("references = %d", res.References)
	}
	if res.Faults == 0 {
		t.Fatal("no faults recorded across processes")
	}
	if err := as1.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := as2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPrivateL1sDoNotShareLines(t *testing.T) {
	// Two cores touching the same lines each miss independently in their
	// private L1s (no shared cache configured), so the external count is
	// the sum, not the union.
	ctrl, as, va := rig(t, nil)
	cfg := CPUConfig(2)
	e := New(cfg, ctrl, as)
	mk := func() *SliceStream {
		s := &SliceStream{}
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < 32; i++ {
				s.Refs = append(s.Refs, Ref{VA: va + vm.VA(i*geom.LineBytes)})
			}
		}
		return s
	}
	res, err := e.Run([]Stream{mk(), mk()})
	if err != nil {
		t.Fatal(err)
	}
	// Each core: 32 misses (first pass) + 32 hits (second) → 64 external.
	if res.External != 64 || res.CacheHits != 64 {
		t.Fatalf("external=%d hits=%d, want 64/64", res.External, res.CacheHits)
	}
}

func TestSharedLLCCatchesCrossCoreReuse(t *testing.T) {
	// With a shared LLC behind tiny L1s, the second core's pass hits in
	// the LLC even though its own L1 is cold.
	ctrl, as, va := rig(t, nil)
	cfg := CPUConfig(2)
	cfg.L1Bytes = 4 * geom.LineBytes // too small to matter
	cfg.L1Ways = 2
	cfg.CacheBytes = 1 << 20
	cfg.CacheWays = 8
	e := New(cfg, ctrl, as)
	// Core 0 walks the buffer; core 1 then walks the same buffer. The
	// engine interleaves by time, but with the same cadence both cores
	// proceed together; the LLC is shared so at most 64 distinct lines
	// miss overall.
	mk := func() *SliceStream {
		s := &SliceStream{}
		for i := 0; i < 64; i++ {
			s.Refs = append(s.Refs, Ref{VA: va + vm.VA(i*geom.LineBytes)})
		}
		return s
	}
	res, err := e.Run([]Stream{mk(), mk()})
	if err != nil {
		t.Fatal(err)
	}
	if res.External > 70 { // 64 distinct + a little interleave slop
		t.Fatalf("external=%d, want ≈64 with shared LLC", res.External)
	}
}

func TestWriteBackEvictionsReachMemory(t *testing.T) {
	ctrl, as, va := rig(t, nil)
	cfg := CPUConfig(1)
	cfg.L1Bytes = 4 * geom.LineBytes // 2 sets × 2 ways
	cfg.L1Ways = 2
	cfg.WriteBack = true
	e := New(cfg, ctrl, as)
	// Write lines 0,2,4,...: all map to set 0; evictions of dirty lines
	// must add write-back traffic beyond the demand misses.
	s := &SliceStream{}
	for i := 0; i < 32; i++ {
		s.Refs = append(s.Refs, Ref{VA: va + vm.VA(i*2*geom.LineBytes), Write: true})
	}
	res, err := e.Run([]Stream{s})
	if err != nil {
		t.Fatal(err)
	}
	if res.External <= 32 {
		t.Fatalf("external = %d, want demand misses plus write-backs", res.External)
	}
	if res.Writes <= 32 {
		t.Fatalf("writes = %d, want stores plus write-backs", res.Writes)
	}
}

func TestWriteBackOffByDefault(t *testing.T) {
	ctrl, as, va := rig(t, nil)
	cfg := CPUConfig(1)
	cfg.L1Bytes = 4 * geom.LineBytes
	cfg.L1Ways = 2
	e := New(cfg, ctrl, as)
	s := &SliceStream{}
	for i := 0; i < 32; i++ {
		s.Refs = append(s.Refs, Ref{VA: va + vm.VA(i*2*geom.LineBytes), Write: true})
	}
	res, err := e.Run([]Stream{s})
	if err != nil {
		t.Fatal(err)
	}
	if res.External != 32 {
		t.Fatalf("external = %d with write-back disabled, want 32", res.External)
	}
}

func TestNextLinePrefetcher(t *testing.T) {
	run := func(depth int) Result {
		ctrl, as, va := rig(t, nil)
		cfg := CPUConfig(1)
		cfg.MSHRs = 1 // make latency visible so prefetch hits matter
		cfg.PrefetchNext = depth
		e := New(cfg, ctrl, as)
		s := &SliceStream{}
		for i := 0; i < 1024; i++ {
			s.Refs = append(s.Refs, Ref{VA: va + vm.VA(i*geom.LineBytes)})
		}
		res, err := e.Run([]Stream{s})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	off := run(0)
	on := run(2)
	if on.Prefetches == 0 {
		t.Fatal("no prefetches issued")
	}
	if on.CacheHits <= off.CacheHits {
		t.Fatalf("prefetching did not raise hits: %d vs %d", on.CacheHits, off.CacheHits)
	}
	if on.TimeNs >= off.TimeNs {
		t.Fatalf("sequential stream not faster with prefetch: %.0f vs %.0f ns", on.TimeNs, off.TimeNs)
	}
}

// TestPrefetchPastMemoryTopLeavesCachesUntouched prefetches past the
// last line of an SDAM machine's physical memory: the controller
// refuses the access, so the line must not reach the L1, where it
// could evict a valid line.
func TestPrefetchPastMemoryTopLeavesCachesUntouched(t *testing.T) {
	k := vm.NewKernel(1) // one chunk of physical memory
	as := k.NewAddressSpace()
	va, err := as.Mmap(geom.ChunkBytes, 0, "buf")
	if err != nil {
		t.Fatal(err)
	}
	if err := as.Populate(va); err != nil {
		t.Fatal(err)
	}
	// The page holding the top frame ends at the last line of memory.
	var top vm.VA
	var topPA uint64
	for p := va; p < va+geom.ChunkBytes; p += geom.PageBytes {
		pa, err := as.Translate(p)
		if err != nil {
			t.Fatal(err)
		}
		if pa >= topPA {
			top, topPA = p, pa
		}
	}
	if topPA != geom.ChunkBytes-geom.PageBytes {
		t.Fatalf("top frame at %#x, want %#x", topPA, geom.ChunkBytes-geom.PageBytes)
	}
	last := top + geom.PageBytes - geom.LineBytes
	line, err := as.TranslateLine(last)
	if err != nil {
		t.Fatal(err)
	}

	dev := hbm.New(geom.Default(), hbm.DefaultTiming())
	cfg := CPUConfig(1)
	cfg.PrefetchNext = 2
	e := New(cfg, memctrl.NewSDAM(dev, k.Table, amu.New(8)), as)
	res, err := e.Run([]Stream{&SliceStream{Refs: []Ref{{VA: last}}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.External != 1 || res.Prefetches != 0 {
		t.Fatalf("external=%d prefetches=%d, want 1 and 0", res.External, res.Prefetches)
	}
	l1 := e.l1[0]
	if n := l1.Hits() + l1.Misses(); n != 1 {
		t.Fatalf("L1 saw %d accesses, want only the demand miss", n)
	}
	if l1.Access(line + 1) {
		t.Fatal("the refused prefetch left its line in the L1")
	}
}
