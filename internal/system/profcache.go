package system

import (
	"unsafe"

	"repro/internal/cpu"
	"repro/internal/geom"
	"repro/internal/memo"
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
// read-only after the pass and keeps no lazy state, so concurrent cells
// may consult Deltas()/GlobalBFRV() without synchronization.

// profKey identifies one profiling pass by content.
type profKey struct {
	tapeKey  string
	seed     int64
	engine   cpu.Config
	geom     geom.Geometry
	hbmScale float64
}

// profiled is one memoized pass: the profile and the collector behind it.
type profiled struct {
	prof profile.Profile
	col  *trace.Collector
}

// maxProfileBytes bounds the retained profiles. A collector holds up to
// 1M delta samples (16 MiB) plus its variables' offset samples; every
// built-in sweep retains well under the bound.
const maxProfileBytes = 256 << 20

var profiles = memo.New[profKey](maxProfileBytes, func(p profiled) int64 {
	return p.col.Bytes() + int64(len(p.prof.Vars))*int64(unsafe.Sizeof(profile.VarProfile{}))
})

// cachedProfile returns the profiling pass for (w, o), running it at
// most once per process per content key. o must already have defaults
// applied.
func cachedProfile(w workload.Workload, o Options) (profile.Profile, *trace.Collector, error) {
	key := profKey{
		tapeKey:  w.TapeKey(),
		seed:     o.ProfileSeed,
		engine:   o.Engine,
		geom:     o.Geometry,
		hbmScale: o.HBMScale,
	}
	p, hit, err := profiles.Get(key, func() (profiled, error) {
		prof, col, err := profileFresh(w, o)
		return profiled{prof, col}, err
	})
	if hit {
		statProfHits.Add(1)
	} else {
		statProfMiss.Add(1)
	}
	return p.prof, p.col, err
}
