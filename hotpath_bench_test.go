// Hot-path microbenchmarks: the per-reference simulation loop measured
// in isolation, reported as ns/ref (and allocs/ref via -benchmem).
// These are the recorded perf trajectory's primary series — run with
//
//	go test -bench=HotPath -benchmem .
//
// and compare against BENCH_hotpath.json (see README "Performance").
package repro

import (
	"testing"

	"repro/internal/amu"
	"repro/internal/cpu"
	"repro/internal/geom"
	"repro/internal/hbm"
	"repro/internal/heap"
	"repro/internal/memctrl"
	"repro/internal/tape"
	"repro/internal/vm"
	"repro/internal/workload"
)

// hotPathRig is a booted SDAM machine with one prepared workload, the
// common fixture for the engine-loop benchmarks.
type hotPathRig struct {
	engine *cpu.Engine
	work   workload.Workload
	layout tape.Layout
}

// newHotPathRig boots an SDAM-controller machine (CMT + AMU datapath,
// the configuration whose per-reference cost the paper's evaluation
// sweeps pay) and sets up a four-thread mixed-stride copy.
func newHotPathRig(tb testing.TB, eng cpu.Config) *hotPathRig {
	tb.Helper()
	g := geom.Default()
	dev := hbm.New(g, hbm.DefaultTiming())
	k := vm.NewKernel(g.Chunks())
	as := k.NewAddressSpace()
	w := workload.NewStrideCopy([]int{1, 4, 64, 1024}, 20_000, 8<<20)
	rig := &hotPathRig{work: w}
	if err := w.Setup(&workload.Env{AS: as, Heap: heap.New(as), OnAlloc: rig.layout.Note}); err != nil {
		tb.Fatal(err)
	}
	ctrl := memctrl.NewSDAM(dev, k.Table, amu.New(8))
	rig.engine = cpu.New(eng, ctrl, as)
	return rig
}

// runHotPath drives the engine over freshly seeded streams each
// iteration and reports ns per simulated reference.
func runHotPath(b *testing.B, rig *hotPathRig) {
	var refs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := rig.engine.Run(rig.work.Streams(7))
		if err != nil {
			b.Fatal(err)
		}
		refs += res.References
	}
	b.StopTimer()
	if refs > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(refs), "ns/ref")
	}
}

// BenchmarkHotPathEngineAccel measures the flattened per-reference loop
// on the accelerator configuration (64 MSHRs, no cache): every load is
// an external access, so MSHR bookkeeping and translation dominate —
// the configuration the ≥2x acceptance target is measured on.
func BenchmarkHotPathEngineAccel(b *testing.B) {
	runHotPath(b, newHotPathRig(b, cpu.AcceleratorConfig(4)))
}

// BenchmarkHotPathEngineCPU measures the loop on the 4-core CPU
// configuration, where the L1 filter absorbs most references and the
// cache-hit fast path dominates.
func BenchmarkHotPathEngineCPU(b *testing.B) {
	runHotPath(b, newHotPathRig(b, cpu.CPUConfig(4)))
}

// runTapeReplay replays a prerecorded tape each iteration instead of
// regenerating streams — the per-cell cost every sweep cell after the
// first pays under the tape cache.
func runTapeReplay(b *testing.B, rig *hotPathRig, streams func() []cpu.Stream) {
	var refs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := rig.engine.Run(streams())
		if err != nil {
			b.Fatal(err)
		}
		refs += res.References
	}
	b.StopTimer()
	if refs > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(refs), "ns/ref")
	}
}

// BenchmarkHotPathTapeReplayAccel measures replaying a recorded tape:
// stream generation (pattern state, rand draws) is gone; translation
// and issue remain.
func BenchmarkHotPathTapeReplayAccel(b *testing.B) {
	rig := newHotPathRig(b, cpu.AcceleratorConfig(4))
	t := tape.Record(rig.work.Streams(7), rig.layout)
	runTapeReplay(b, rig, func() []cpu.Stream {
		ss, err := t.Streams(&rig.layout)
		if err != nil {
			b.Fatal(err)
		}
		return ss
	})
}
