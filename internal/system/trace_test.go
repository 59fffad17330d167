package system

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/tape"
	"repro/internal/tracefile"
	"repro/internal/workload"
)

// TestCompareTraceSharesOnePath: a loaded trace takes the same route as
// every built-in workload. A six-kind Compare records exactly two tapes
// (the profiling and evaluation seeds) and runs one profiling pass, and
// its results equal per-kind runs that each start from empty caches.
func TestCompareTraceSharesOnePath(t *testing.T) {
	resetObsState(t)
	rec, err := tracefile.Record(workload.NewStrideCopy([]int{1, 32, 32}, 2_000, 4<<20), 7)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.Save(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := tracefile.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w := f.Workload()
	opts := Options{Clusters: 2, DL: cluster.DLOptions{SeqLen: 8, Steps: 24, MaxWindows: 16}}

	want := make([]Result, len(AllKinds))
	for i, k := range AllKinds {
		obsFreshProcess()
		o := opts
		o.Kind = k
		if want[i], err = Run(w.Clone(), o); err != nil {
			t.Fatalf("uncached %s: %v", k, err)
		}
	}

	obsFreshProcess()
	got, err := Compare(w, opts, AllKinds)
	if err != nil {
		t.Fatal(err)
	}
	if builds := tape.CacheStats().Builds; builds != 2 {
		t.Errorf("%d tapes recorded, want 2 (profiling and evaluation seeds)", builds)
	}
	if passes := statProfPass.Value(); passes != 1 {
		t.Errorf("%d profiling passes, want 1", passes)
	}
	normalizeWallClock(want)
	normalizeWallClock(got)
	for i, k := range AllKinds {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: Compare diverges from an uncached run\ngot:  %+v\nwant: %+v", k, summarize(got[i]), summarize(want[i]))
		}
	}
}
