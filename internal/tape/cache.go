package tape

import (
	"sync"
	"sync/atomic"

	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/wallclock"
	"repro/internal/workload"
)

// The process-wide tape cache. A sweep's cells arrive keyed by
// {workload.TapeKey, seed}; the first arrival generates the streams
// live and records them, everyone else blocks until the tape is stored
// in the map and then replays it read-only. Results are bit-identical
// either way — replay emits the recorded sequence, and the recording
// cell's engine consumed exactly that sequence — so bit-identity at any
// -jobs count is preserved by construction.
//
// The cache is bounded: once maxCacheBytes of columns are retained, new
// keys build and run live without caching (a safety valve for unbounded
// sweeps over distinct workloads; every built-in sweep fits comfortably).

// maxCacheBytes bounds the total retained column bytes.
const maxCacheBytes = 256 << 20

// cacheKey identifies one recording by content.
type cacheKey struct {
	key  string
	seed int64
}

// cacheEntry is one singleflight slot: done closes when tape (or err)
// is set; waiters block on it.
type cacheEntry struct {
	done chan struct{}
	tape *Tape
	err  error
}

var (
	cache      sync.Map // cacheKey → *cacheEntry
	cacheBytes atomic.Int64

	statBuilds  atomic.Int64
	statHits    atomic.Int64
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
	// (no TapeKey, incompatible layout, or byte budget exhausted).
	Builds, Hits, Live int64
	// BuildNs is the cumulative host time spent recording tapes — the
	// "tape build" half of the sdambench schema-3 split.
	BuildNs int64
	// Bytes is the retained column footprint.
	Bytes int64
}

// CacheStats returns a snapshot of the process-wide cache counters.
func CacheStats() Stats {
	return Stats{
		Builds:  statBuilds.Load(),
		Hits:    statHits.Load(),
		Live:    statLive.Load(),
		BuildNs: statBuildNs.Load(),
		Bytes:   cacheBytes.Load(),
	}
}

// ResetCache drops every cached tape and zeroes the counters (tests and
// memory-sensitive callers).
func ResetCache() {
	cache.Range(func(k, _ any) bool {
		cache.Delete(k)
		return true
	})
	cacheBytes.Store(0)
	statBuilds.Store(0)
	statHits.Store(0)
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
	k, ok := w.(workload.TapeKeyer)
	if !ok {
		statLive.Add(1)
		obsLive.Add(1)
		return w.Streams(seed)
	}
	t := tapeFor(cacheKey{key: k.TapeKey(), seed: seed}, w, seed, lay)
	if t != nil {
		if ss, err := t.Streams(lay); err == nil {
			return ss
		}
	}
	statLive.Add(1)
	obsLive.Add(1)
	return w.Streams(seed)
}

// tapeFor returns the shared tape for key, recording it on first
// arrival, or nil when the cache declined (budget) or the build failed.
func tapeFor(key cacheKey, w workload.Workload, seed int64, lay *Layout) *Tape {
	for {
		if e, ok := cache.Load(key); ok {
			entry := e.(*cacheEntry)
			<-entry.done
			if entry.err != nil {
				// The builder failed; its entry is already deleted, so a
				// retry below may rebuild. This cell just runs live.
				return nil
			}
			statHits.Add(1)
			obsHits.Add(1)
			return entry.tape
		}
		if cacheBytes.Load() >= maxCacheBytes {
			return nil
		}
		entry := &cacheEntry{done: make(chan struct{})}
		if _, raced := cache.LoadOrStore(key, entry); raced {
			continue // someone else claimed the slot; wait on theirs
		}
		func() {
			defer func() {
				if entry.tape == nil && entry.err == nil {
					entry.err = errBuildPanic
				}
				if entry.err != nil {
					cache.Delete(key)
				}
				close(entry.done)
			}()
			sp := obs.Span2("tape", key.key)
			start := wallclock.Now()
			t := Record(w.Streams(seed), *lay)
			sp.End()
			buildNs := wallclock.Since(start).Nanoseconds()
			statBuildNs.Add(buildNs)
			statBuilds.Add(1)
			obsBuildNs.Add(buildNs)
			obsBuilds.Add(1)
			obsBytes.SetMax(cacheBytes.Add(int64(t.Bytes())))
			entry.tape = t
		}()
		return entry.tape
	}
}

// errBuildPanic marks an entry whose builder unwound without a result.
var errBuildPanic = panicError{}

type panicError struct{}

func (panicError) Error() string { return "tape: recording did not complete" }
