package apps

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/geom"
	"repro/internal/heap"
	"repro/internal/tape"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

func newEnv(t *testing.T) *workload.Env {
	t.Helper()
	k := vm.NewKernel(geom.Default().Chunks())
	as := k.NewAddressSpace()
	return &workload.Env{AS: as, Heap: heap.New(as)}
}

// refsOf drains s in engine-sized batches.
func refsOf(s cpu.Stream) []cpu.Ref {
	var out []cpu.Ref
	var buf [64]cpu.Ref
	for n := s.NextBatch(buf[:]); n > 0; n = s.NextBatch(buf[:]) {
		out = append(out, buf[:n]...)
	}
	return out
}

// all returns every kernel at small scale.
func all(opts Options) []workload.Workload {
	return []workload.Workload{
		NewBFS(opts), NewPageRank(opts), NewSSSP(opts),
		NewHashJoin(opts), NewMergeJoin(opts),
		NewKMeansApp(opts), NewHNSW(opts), NewIVFPQ(opts),
	}
}

func drain(t *testing.T, env *workload.Env, w workload.Workload, seed int64) int {
	t.Helper()
	n := 0
	for _, s := range w.Streams(seed) {
		for _, ref := range refsOf(s) {
			if env.AS.FindVMA(ref.VA) == nil {
				t.Fatalf("%s: reference %#x outside allocations", w.Name(), uint64(ref.VA))
			}
			n++
		}
	}
	return n
}

func TestAllKernelsRunWithinBudget(t *testing.T) {
	opts := Options{MaxRefs: 20_000, Threads: 4}
	for _, w := range all(opts) {
		env := newEnv(t)
		if err := w.Setup(env); err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		n := drain(t, env, w, 1)
		if n == 0 {
			t.Fatalf("%s produced no references", w.Name())
		}
		if n > 20_000 {
			t.Fatalf("%s exceeded budget: %d refs", w.Name(), n)
		}
	}
}

func TestKernelsAreDeterministic(t *testing.T) {
	opts := Options{MaxRefs: 5_000, Threads: 2}
	for _, mk := range []func(Options) workload.Workload{
		func(o Options) workload.Workload { return NewBFS(o) },
		func(o Options) workload.Workload { return NewHashJoin(o) },
		func(o Options) workload.Workload { return NewIVFPQ(o) },
	} {
		collect := func() []vm.VA {
			env := newEnv(t)
			w := mk(opts)
			if err := w.Setup(env); err != nil {
				t.Fatal(err)
			}
			var vas []vm.VA
			for _, s := range w.Streams(42) {
				for _, ref := range refsOf(s) {
					vas = append(vas, ref.VA)
				}
			}
			return vas
		}
		a, b := collect(), collect()
		if len(a) != len(b) {
			t.Fatal("nondeterministic length")
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("ref %d differs", i)
			}
		}
	}
}

func TestSeedChangesTrace(t *testing.T) {
	env := newEnv(t)
	w := NewBFS(Options{MaxRefs: 5_000})
	if err := w.Setup(env); err != nil {
		t.Fatal(err)
	}
	n1 := drain(t, env, w, 1)
	n2 := drain(t, env, w, 99)
	// Different roots/graphs will rarely produce identical counts, but
	// the strong check is on the addresses; count equality alone is not
	// a failure. Just ensure both produced work.
	if n1 == 0 || n2 == 0 {
		t.Fatal("seeded runs empty")
	}
}

func TestGenGraphWellFormed(t *testing.T) {
	g := GenGraph(1024, 8, 3)
	if g.N != 1024 || len(g.Offsets) != 1025 {
		t.Fatalf("bad shape: n=%d offsets=%d", g.N, len(g.Offsets))
	}
	if int(g.Offsets[g.N]) != len(g.Edges) {
		t.Fatalf("CSR end %d != edges %d", g.Offsets[g.N], len(g.Edges))
	}
	for u := 0; u < g.N; u++ {
		if g.Offsets[u] > g.Offsets[u+1] {
			t.Fatalf("offsets not monotone at %d", u)
		}
	}
	for _, v := range g.Edges {
		if int(v) >= g.N {
			t.Fatalf("edge target %d out of range", v)
		}
	}
}

func TestGraphDegreeSkew(t *testing.T) {
	// The hot prefix must receive disproportionately many in-edges —
	// the RMAT-ish skew that makes gathers cache-unfriendly.
	g := GenGraph(4096, 16, 7)
	in := make([]int, g.N)
	for _, v := range g.Edges {
		in[v]++
	}
	hot := 0
	for v := 0; v < g.N/16; v++ {
		hot += in[v]
	}
	if frac := float64(hot) / float64(len(g.Edges)); frac < 0.3 {
		t.Fatalf("hot prefix in-degree share %.2f, want skewed (>0.3)", frac)
	}
}

func TestVariablesAreRegistered(t *testing.T) {
	env := newEnv(t)
	w := NewPageRank(Options{MaxRefs: 1_000})
	if err := w.Setup(env); err != nil {
		t.Fatal(err)
	}
	if got := len(env.Heap.Live()); got != 4 {
		t.Fatalf("pagerank allocated %d variables, want 4", got)
	}
	if len(w.Sites()) != 4 {
		t.Fatalf("sites = %v", w.Sites())
	}
}

func TestArrayClampsIndexes(t *testing.T) {
	a := &array{base: 0x1000, elem: 8, n: 4}
	if a.va(7) != 0x1000+3*8 {
		t.Fatalf("clamp failed: %#x", uint64(a.va(7)))
	}
	empty := &array{base: 0x2000}
	if empty.va(5) != 0x2000 {
		t.Fatal("empty array clamp failed")
	}
}

func TestLineElems(t *testing.T) {
	if lineElems(4) != 16 || lineElems(64) != 1 || lineElems(128) != 1 {
		t.Fatal("lineElems wrong")
	}
}

func TestMixedPatternsAcrossVariables(t *testing.T) {
	// The premise of per-variable mappings: within one kernel, different
	// variables show different BFRVs. Use the collector to verify for
	// hash join (streaming s_tuples vs random buckets), attributing each
	// reference by the allocation slot its recorded tape replays.
	env := newEnv(t)
	var lay tape.Layout
	env.OnAlloc = lay.Note
	w := NewHashJoin(Options{MaxRefs: 40_000, Threads: 1})
	if err := w.Setup(env); err != nil {
		t.Fatal(err)
	}
	streams, err := tape.Record(w.Streams(5), lay).Streams(&lay)
	if err != nil {
		t.Fatal(err)
	}
	col := trace.NewCollector(0)
	for _, a := range lay.Allocs {
		col.NoteAlloc(a.Site, a.Bytes)
	}
	for _, s := range streams {
		for _, ref := range refsOf(s) {
			line, err := env.AS.TranslateLine(ref.VA)
			if err != nil {
				t.Fatal(err)
			}
			col.Record(ref.Alloc, line)
		}
	}
	if col.Unattributed != 0 {
		t.Fatalf("%d references unattributed", col.Unattributed)
	}
	var stream, random *trace.Variable
	for _, v := range col.Variables() {
		switch v.Site {
		case "hashjoin/s_tuples":
			stream = v
		case "hashjoin/buckets":
			random = v
		}
	}
	if stream == nil || random == nil {
		t.Fatal("variables missing from collector")
	}
	sb, rb := stream.BFRV(), random.BFRV()
	// The streaming scan concentrates flips in the low bits and almost
	// never flips high bits; the random probe flips every bit at ≈0.5.
	// Bit 10 lies well inside both variables' spans: streaming flips it
	// rarely, random probing flips it about half the time.
	if sb[10] > 0.05 {
		t.Fatalf("stream bit-10 flip rate %.3f, want ≈0", sb[10])
	}
	if rb[10] < 0.3 {
		t.Fatalf("random bit-10 flip rate %.3f, want ≈0.5", rb[10])
	}
	if sb[0] <= sb[10] {
		t.Fatalf("stream flips not concentrated low: bit0 %.3f vs bit10 %.3f", sb[0], sb[10])
	}
}

func TestExtensionKernels(t *testing.T) {
	opts := Options{MaxRefs: 20_000, Threads: 4}
	for _, w := range []workload.Workload{NewTranspose(opts), NewStencil(opts)} {
		env := newEnv(t)
		if err := w.Setup(env); err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		n := drain(t, env, w, 1)
		if n == 0 || n > 20_000 {
			t.Fatalf("%s refs = %d", w.Name(), n)
		}
	}
}

func TestTransposeReadsAreColumnStrided(t *testing.T) {
	env := newEnv(t)
	w := NewTranspose(Options{MaxRefs: 4_000, Threads: 1})
	if err := w.Setup(env); err != nil {
		t.Fatal(err)
	}
	s := w.Streams(1)[0]
	var reads, writes int
	var prevRead vm.VA
	strideHits := 0
	for _, ref := range refsOf(s) {
		if ref.Write {
			writes++
			continue
		}
		if reads > 0 {
			if d := int64(ref.VA) - int64(prevRead); d == 1024*4 {
				strideHits++
			}
		}
		prevRead = ref.VA
		reads++
	}
	if writes == 0 {
		t.Fatal("transpose recorded no stores")
	}
	// Within a line group the reads advance by one full row (n·4 bytes).
	if float64(strideHits)/float64(reads) < 0.8 {
		t.Fatalf("only %d/%d reads at row stride", strideHits, reads)
	}
}
