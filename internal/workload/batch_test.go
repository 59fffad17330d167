package workload

import (
	"testing"

	"repro/internal/cpu"
)

// batchedStride returns a set-up single-thread stride stream for the
// generator-stream contract tests.
func batchedStride(t *testing.T, seed int64) *mixStream {
	t.Helper()
	w := NewStrideCopy([]int{4}, 5000, 1<<20)
	if err := w.Setup(newEnv(t)); err != nil {
		t.Fatal(err)
	}
	return w.Streams(seed)[0].(*mixStream)
}

// TestMixStreamNextBatchMatchesNext pins NextBatch against the scalar
// Next referee: NextBatch must emit exactly the sequence repeated Next
// calls would,
// for any interleaving of the two and any batch size.
func TestMixStreamNextBatchMatchesNext(t *testing.T) {
	ref := batchedStride(t, 7)
	var want []cpu.Ref
	for {
		r, ok := ref.Next()
		if !ok {
			break
		}
		want = append(want, r)
	}

	for _, bufLen := range []int{1, 3, 64, 4096} {
		got := make([]cpu.Ref, 0, len(want))
		ms := batchedStride(t, 7)
		buf := make([]cpu.Ref, bufLen)
		for odd := true; ; odd = !odd {
			if odd {
				n := ms.NextBatch(buf)
				if n == 0 {
					break
				}
				got = append(got, buf[:n]...)
				continue
			}
			r, ok := ms.Next()
			if !ok {
				break
			}
			got = append(got, r)
		}
		if len(got) != len(want) {
			t.Fatalf("bufLen %d: %d refs via batches, %d via Next", bufLen, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("bufLen %d: ref %d = %+v via batch, %+v via Next", bufLen, i, got[i], want[i])
			}
		}
	}
}

// TestMixStreamNextBatchZeroAllocs pins batch generation at zero heap
// allocations per batch — the property that keeps incremental streams
// strictly cheaper than materialized ones.
func TestMixStreamNextBatchZeroAllocs(t *testing.T) {
	w := NewStrideCopy([]int{4}, 1<<30, 1<<20) // effectively endless
	if err := w.Setup(newEnv(t)); err != nil {
		t.Fatal(err)
	}
	ms := w.Streams(3)[0].(*mixStream)
	buf := make([]cpu.Ref, 64)
	if n := testing.AllocsPerRun(500, func() {
		if ms.NextBatch(buf) == 0 {
			t.Fatal("stream ended")
		}
	}); n != 0 {
		t.Errorf("NextBatch allocates %.1f objects per batch, want 0", n)
	}
}
