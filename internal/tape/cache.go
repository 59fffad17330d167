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
// seed}: the first cell of a key generates the streams and records
// them, concurrent cells of the key wait for the recording, and every
// cell — the recording one included — replays it read-only. Replay
// emits the recorded sequence, so bit-identity at any -jobs count is
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

	statBuildNs atomic.Int64
)

// The obs mirrors of the cache counters. All increments below are
// per-cell or per-build (cold), so mirroring them inline costs one
// no-op call while metrics are off.
var (
	obsBuilds  = obs.NewCounter("tape.builds", "tapes", "reference tapes recorded")
	obsHits    = obs.NewCounter("tape.hits", "cells", "cells served a shared tape they did not build")
	obsBuildNs = obs.NewCounter("tape.build_ns", "ns", "host time spent recording tapes")
	obsBytes   = obs.NewGauge("tape.bytes", "bytes", "high-water retained tape column footprint")
)

// Stats is a snapshot of the cache counters.
type Stats struct {
	// Builds counts tapes recorded; Hits counts cells served a shared
	// tape they did not build. Live is always 0: every cell replays a
	// tape. It stays because the separate benchmark module (perfbench)
	// reads it.
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
		BuildNs: statBuildNs.Load(),
		Bytes:   m.Bytes,
	}
}

// ResetCache drops every cached tape and zeroes the counters (tests and
// memory-sensitive callers).
func ResetCache() {
	tapes.Reset()
	statBuildNs.Store(0)
}

// StreamsFor returns the reference streams for one cell's run of w at
// seed, under the cell's allocation layout lay (as captured by
// Layout.Note during Setup). Cells share one recording per
// {w.TapeKey(), seed}; a layout the recording cannot be replayed under
// is an error.
func StreamsFor(w workload.Workload, seed int64, lay *Layout) ([]cpu.Stream, error) {
	key := cacheKey{key: w.TapeKey(), seed: seed}
	t, hit, err := tapes.Get(key, func() (*Tape, error) { return record(key.key, w, seed, lay), nil })
	if err != nil {
		return nil, err
	}
	if hit {
		obsHits.Add(1)
	} else {
		obsBytes.SetMax(tapes.Stats().Bytes)
	}
	return t.Streams(lay)
}

// record generates w's streams at seed and records them under lay;
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
