package system

import (
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/nn"
	"repro/internal/profile"
	"repro/internal/workload"
)

// TestSelectionCacheSkipsRetraining pins the tentpole cache contract: a
// second Compare pass over the same workload and options re-derives
// byte-identical selection inputs, so every selection — including the
// DL selector's whole training run — must come from the cache. The DL
// trainer's step counter is the observable: zero additional training
// steps on the second pass.
func TestSelectionCacheSkipsRetraining(t *testing.T) {
	resetSelectionCache()
	mk := func() workload.Workload { return apps.NewKMeansApp(apps.Options{MaxRefs: 6_000}) }
	opts := Options{
		Clusters: 3,
		DL:       cluster.DLOptions{SeqLen: 8, Steps: 24, MaxWindows: 16},
	}
	kinds := []Kind{SDMBSM, SDMBSMML, SDMBSMDL}

	before := nn.TrainSteps()
	first, err := Compare(mk(), opts, kinds)
	if err != nil {
		t.Fatalf("first Compare: %v", err)
	}
	trained := nn.TrainSteps() - before
	if trained == 0 {
		t.Fatal("first pass performed no training steps; the DL selector did not run")
	}

	second, err := Compare(mk(), opts, kinds)
	if err != nil {
		t.Fatalf("second Compare: %v", err)
	}
	if extra := nn.TrainSteps() - before - trained; extra != 0 {
		t.Fatalf("second pass performed %d training steps, want 0 (cache miss)", extra)
	}
	normalizeWallClock(first)
	normalizeWallClock(second)
	for i := range first {
		if !reflect.DeepEqual(first[i], second[i]) {
			t.Errorf("%s: cached pass diverges from fresh pass", kinds[i])
		}
	}
}

// TestSelectionCacheKeyDiscriminates verifies a changed selection input
// misses the cache: a different cluster budget must retrain rather than
// reuse the previous selection.
func TestSelectionCacheKeyDiscriminates(t *testing.T) {
	resetSelectionCache()
	mk := func() workload.Workload { return apps.NewKMeansApp(apps.Options{MaxRefs: 6_000}) }
	dl := cluster.DLOptions{SeqLen: 8, Steps: 24, MaxWindows: 16}

	if _, err := Run(mk(), Options{Kind: SDMBSMDL, Clusters: 2, DL: dl}); err != nil {
		t.Fatal(err)
	}
	before := nn.TrainSteps()
	if _, err := Run(mk(), Options{Kind: SDMBSMDL, Clusters: 3, DL: dl}); err != nil {
		t.Fatal(err)
	}
	if nn.TrainSteps() == before {
		t.Fatal("changed Clusters reused the cached selection; key does not discriminate")
	}
}

// TestSelectionCacheForgetsFailures pins that a failed selection is not
// memoized: the errored entry leaves the cache, and an identical repeat
// call computes again instead of being served the stale error.
func TestSelectionCacheForgetsFailures(t *testing.T) {
	resetObsState(t)
	o := Options{Kind: BSDM}
	for call := 1; call <= 2; call++ {
		if _, err := cachedSelection(o, profile.Profile{}, nil); err == nil {
			t.Fatalf("call %d: BSDM selection succeeded, want an error", call)
		}
		entries := 0
		selCache.Range(func(_, _ any) bool { entries++; return true })
		if entries != 0 {
			t.Fatalf("call %d: %d cache entries after a failed selection, want 0", call, entries)
		}
	}
	if miss, hits := statSelMiss.Value(), statSelHits.Value(); miss != 2 || hits != 0 {
		t.Fatalf("misses=%d hits=%d after two failing calls, want 2 and 0", miss, hits)
	}
}
