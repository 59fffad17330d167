package tape

import (
	"sync/atomic"

	"repro/internal/cpu"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/wallclock"
	"repro/internal/workload"
)

// The process-wide tape cache, a memo.Memo keyed by {workload.TapeKey,
// seed}: the first cell of a key generates the streams live and records
// them, concurrent cells of the key wait for the recording, and every
// later cell replays it read-only. Results are bit-identical either way
// — replay emits the recorded sequence, and the recording cell's engine
// consumed exactly that sequence — so bit-identity at any -jobs count is
// preserved by construction.
//
// The cache is bounded: a tape whose columns would push the retained
// total past maxCacheBytes is replayed by the cells that waited for it
// and then dropped (a safety valve for unbounded sweeps over distinct
// workloads; every built-in sweep fits comfortably).

// maxCacheBytes bounds the total retained column bytes.
const maxCacheBytes = 256 << 20

// cacheKey identifies one recording by content.
type cacheKey struct {
	key  string
	seed int64
}

var (
	tapes = memo.New[cacheKey](maxCacheBytes, func(t *Tape) int64 { return int64(t.Bytes()) })

	statLive    atomic.Int64
	statBuildNs atomic.Int64
)

// The obs mirrors of the cache counters. All increments below are
// per-cell or per-build (cold), so mirroring them inline costs one
// no-op call while metrics are off.
var (
	obsBuilds  = obs.NewCounter("tape.builds", "tapes", "reference tapes recorded")
	obsHits    = obs.NewCounter("tape.hits", "cells", "cells served a shared tape they did not build")
	obsLive    = obs.NewCounter("tape.live", "cells", "cells that generated streams live, bypassing the cache")
	obsBuildNs = obs.NewCounter("tape.build_ns", "ns", "host time spent recording tapes")
	obsBytes   = obs.NewGauge("tape.bytes", "bytes", "high-water retained tape column footprint")
)

// Stats is a snapshot of the cache counters.
type Stats struct {
	// Builds counts tapes recorded; Hits counts cells served a shared
	// tape they did not build; Live counts cells that bypassed the cache
	// (no TapeKey, or a layout the tape cannot be replayed under).
	Builds, Hits, Live int64
	// BuildNs is the cumulative host time spent recording tapes — the
	// "tape build" half of the sdambench schema-3 split.
	BuildNs int64
	// Bytes is the retained column footprint.
	Bytes int64
}

// CacheStats returns a snapshot of the process-wide cache counters.
func CacheStats() Stats {
	m := tapes.Stats()
	return Stats{
		Builds:  m.Misses,
		Hits:    m.Hits,
		Live:    statLive.Load(),
		BuildNs: statBuildNs.Load(),
		Bytes:   m.Bytes,
	}
}

// ResetCache drops every cached tape and zeroes the counters (tests and
// memory-sensitive callers).
func ResetCache() {
	tapes.Reset()
	statLive.Store(0)
	statBuildNs.Store(0)
}

// StreamsFor returns the reference streams for one cell's run of w at
// seed, under the cell's allocation layout lay (as captured by
// Layout.Note during Setup). Cells of tape-keyed workloads share one
// recording per {key, seed}; anything else — or any layout the tape
// cannot be replayed under — falls back to live generation, emitting
// the identical sequence either way.
func StreamsFor(w workload.Workload, seed int64, lay *Layout) []cpu.Stream {
	if k, ok := w.(workload.TapeKeyer); ok {
		key := cacheKey{key: k.TapeKey(), seed: seed}
		t, hit, err := tapes.Get(key, func() (*Tape, error) { return record(key.key, w, seed, lay), nil })
		if err == nil {
			if hit {
				obsHits.Add(1)
			} else {
				obsBytes.SetMax(tapes.Stats().Bytes)
			}
			if ss, err := t.Streams(lay); err == nil {
				return ss
			}
		}
	}
	statLive.Add(1)
	obsLive.Add(1)
	return w.Streams(seed)
}

// record generates w's streams at seed live and records them under lay;
// name labels the span.
func record(name string, w workload.Workload, seed int64, lay *Layout) *Tape {
	sp := obs.Span2("tape", name)
	start := wallclock.Now()
	t := Record(w.Streams(seed), *lay)
	sp.End()
	buildNs := wallclock.Since(start).Nanoseconds()
	statBuildNs.Add(buildNs)
	obsBuildNs.Add(buildNs)
	obsBuilds.Add(1)
	return t
}
