package system

import (
	"sync"

	"repro/internal/cpu"
	"repro/internal/geom"
	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/workload"
)

// A Compare over the six configurations runs the *identical* profiling
// pass up to four times: BS+BSM, SDM+BSM, SDM+BSM+ML, and SDM+BSM+DL
// all profile the workload on the same baseline machine with the same
// seed, and the pass is a pure function of the workload's parameters,
// the profiling seed, the engine, the geometry, and the HBM timing
// scale. Like the selection cache (selcache.go), this cache memoizes
// the pass process-wide under exactly that content key; a hit returns
// the same bytes a fresh pass would. The shared *trace.Collector is
// read-only after the pass (its lazy interval sort is already settled
// by the pass's own attribution), so concurrent cells may consult
// Deltas()/GlobalBFRV() without synchronization.

// profKey identifies one profiling pass by content. Workloads without a
// TapeKey have no content identity and always profile fresh.
type profKey struct {
	tapeKey  string
	seed     int64
	engine   cpu.Config
	geom     geom.Geometry
	hbmScale float64
}

// profEntry is one singleflight slot, mirroring selEntry.
type profEntry struct {
	once sync.Once
	prof profile.Profile
	col  *trace.Collector
	err  error
}

var profCache sync.Map // profKey → *profEntry

// resetProfileCache drops every memoized profiling pass (tests).
func resetProfileCache() {
	profCache.Range(func(k, _ any) bool {
		profCache.Delete(k)
		return true
	})
}

// cachedProfile returns the profiling pass for (w, o), running it at
// most once per process per content key. o must already have defaults
// applied.
func cachedProfile(w workload.Workload, o Options) (profile.Profile, *trace.Collector, error) {
	k, ok := w.(workload.TapeKeyer)
	if !ok {
		return profileFresh(w, o)
	}
	key := profKey{
		tapeKey:  k.TapeKey(),
		seed:     o.ProfileSeed,
		engine:   o.Engine,
		geom:     o.Geometry,
		hbmScale: o.HBMScale,
	}
	e, _ := profCache.LoadOrStore(key, &profEntry{})
	entry := e.(*profEntry)
	computed := false
	entry.once.Do(func() {
		computed = true
		entry.prof, entry.col, entry.err = profileFresh(w, o)
	})
	if computed {
		statProfMiss.Add(1)
		if entry.err != nil {
			// Failures are never memoized (see cachedSelection).
			profCache.CompareAndDelete(key, entry)
		}
	} else {
		statProfHits.Add(1)
	}
	return entry.prof, entry.col, entry.err
}
