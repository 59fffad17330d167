package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/geom"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/profile"
	"repro/internal/system"
	"repro/internal/tape"
	"repro/internal/wallclock"
	"repro/internal/workload"
)

// outcome is one cell's result.
type outcome struct {
	res system.Result
	err error
}

// counters are the program's always-on process-wide counters, read
// before and after a pass.
type counters struct {
	tape       tape.Stats
	trainSteps uint64
}

func readCounters() counters {
	return counters{tape: tape.CacheStats(), trainSteps: nn.TrainSteps()}
}

// passResult is one timed pass over all cells.
type passResult struct {
	out    []outcome
	wall   time.Duration
	cpu    time.Duration
	before counters
	after  counters
}

// runPass runs every cell with at most jobs cells in flight, timing the
// whole pass in wall and CPU time. jobs == 1 runs the cells one after
// another on the calling goroutine.
func runPass(s *suite, jobs int) passResult {
	var p passResult
	p.before = readCounters()
	cpu0 := cpuTime()
	start := wallclock.Now()
	p.out, _ = parallel.MapN(jobs, s.cells, func(_ int, c cell) (outcome, error) {
		r, err := system.Run(workload.Clone(c.w), c.opts)
		return outcome{r, err}, nil
	})
	p.wall = wallclock.Since(start)
	p.cpu = cpuTime() - cpu0
	p.after = readCounters()
	return p
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// retainedMB is the live heap after a forced collection: what the
// process-wide caches hold once the pass's own garbage is gone.
func retainedMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// checkCells validates every cell's simulated output and returns one
// message per failed cell (empty for cells that passed).
//
// Beyond system.Run's own integrity checks (device conservation, VM,
// physical-memory and heap invariants), each cell must account for
// every reference exactly once: references = cache hits + external
// accesses (no write-back or prefetch is configured), every external
// access reaches the device as one 64-byte line that either hits or
// misses its row, and every configuration of a workload executes the
// same evaluation stream.
func checkCells(s *suite, out []outcome) []string {
	msgs := make([]string, len(out))
	refs := map[string]uint64{}
	for i, o := range out {
		c := s.cells[i]
		msgs[i] = checkCell(o)
		if msgs[i] != "" {
			continue
		}
		if want, ok := refs[c.bench]; ok && o.res.Run.References != want {
			msgs[i] = fmt.Sprintf("executed %d references, other configurations %d", o.res.Run.References, want)
		}
		refs[c.bench] = o.res.Run.References
	}
	for i, m := range msgs {
		if m != "" {
			msgs[i] = fmt.Sprintf("%s/%s: %s", s.cells[i].bench, s.cells[i].label, m)
		}
	}
	return msgs
}

func checkCell(o outcome) string {
	if o.err != nil {
		return o.err.Error()
	}
	r, h := o.res.Run, o.res.HBM
	switch {
	case r.References == 0:
		return "no references executed"
	case !(r.TimeNs > 0) || math.IsInf(r.TimeNs, 0):
		return fmt.Sprintf("simulated time %v", r.TimeNs)
	case r.Writes > r.External || r.Prefetches != 0:
		return fmt.Sprintf("%d writes, %d prefetches for %d external accesses", r.Writes, r.Prefetches, r.External)
	case r.CacheHits+r.External != r.References:
		return fmt.Sprintf("%d hits + %d external != %d references", r.CacheHits, r.External, r.References)
	case h.Requests != r.External:
		return fmt.Sprintf("device saw %d requests for %d external accesses", h.Requests, r.External)
	case h.Bytes != h.Requests*geom.LineBytes:
		return fmt.Sprintf("device moved %d bytes for %d line requests", h.Bytes, h.Requests)
	case h.RowHits+h.RowMisses != h.Requests:
		return fmt.Sprintf("%d row hits + %d misses != %d requests", h.RowHits, h.RowMisses, h.Requests)
	case h.LastFinish > r.TimeNs:
		return fmt.Sprintf("device finished at %v after the run ended at %v", h.LastFinish, r.TimeNs)
	}
	return ""
}

// cellDigest hashes every simulated statistic of one cell: any change
// to the model shows; host-side effects (timing, caching) must not.
func cellDigest(c cell, r system.Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	h.Write([]byte(c.bench + "\x00" + c.label + "\x00"))
	run, d := r.Run, r.HBM
	for _, v := range []uint64{
		math.Float64bits(run.TimeNs), run.References, run.External, run.Writes,
		run.Prefetches, run.CacheHits, run.Faults,
		d.Requests, d.Bytes, d.RowHits, d.RowMisses, d.Refreshes,
		math.Float64bits(d.LastFinish), uint64(r.MappingsInstalled),
	} {
		word(v)
	}
	for _, v := range d.ChannelBytes {
		word(v)
	}
	for _, v := range d.ChannelBusy {
		word(math.Float64bits(v))
	}
	return h.Sum64()
}

// simDigest folds the per-cell digests of a pass in cell order.
func simDigest(s *suite, out []outcome) string {
	h := fnv.New64a()
	var buf [8]byte
	for i, o := range out {
		binary.LittleEndian.PutUint64(buf[:], cellDigest(s.cells[i], o.res))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// coldGuard verifies from the program's counters that a pass started
// with empty process-wide caches: it recorded one tape per distinct
// {workload, seed} pair and generated nothing live, and every DL cell
// trained its own model. Profiling and selection run only on recorded
// tapes, so a fully cold tape cache also rules out an earlier profiling
// pass or selection in this process.
func coldGuard(s *suite, p passResult) error {
	builds := p.after.tape.Builds - p.before.tape.Builds
	live := p.after.tape.Live - p.before.tape.Live
	steps := p.after.trainSteps - p.before.trainSteps
	if builds != int64(s.pairs) || live != 0 {
		return fmt.Errorf("cold-pass guard: %d tapes recorded and %d cells generated live; a cold pass records %d and generates none",
			builds, live, s.pairs)
	}
	if want := uint64(s.dlCells * s.dlSteps); steps != want {
		return fmt.Errorf("cold-pass guard: %d DL training steps; %d DL cells training %d steps each make %d",
			steps, s.dlCells, s.dlSteps, want)
	}
	return nil
}

// cellID is what a warm pass is checked against: a cell's simulated
// statistics and the cache entries it was served.
type cellID struct {
	digest  uint64
	profile *profile.VarProfile
	sel     *cluster.Selection
}

func identify(s *suite, out []outcome) []cellID {
	ids := make([]cellID, len(out))
	for i, o := range out {
		ids[i] = cellID{cellDigest(s.cells[i], o.res), profileData(o.res), o.res.Selection}
	}
	return ids
}

// warmCheck compares a warm pass against the cold pass that filled the
// caches and returns one message per failed cell (empty for cells that
// passed) plus a pass-level error. Each warm cell must reproduce its
// cold cell's simulated statistics bit for bit and take its profile and
// selection from the cold cell's cache entries. The pass as a whole
// must record no tape and train no model, and request exactly one tape
// per cell: a profiling pass would request another.
func warmCheck(s *suite, cold []cellID, warm passResult) ([]string, error) {
	msgs := make([]string, len(warm.out))
	for i, id := range identify(s, warm.out) {
		if warm.out[i].err != nil {
			continue // reported by checkCells
		}
		switch {
		case id.digest != cold[i].digest:
			msgs[i] = "simulated statistics differ from the cold pass"
		case id.profile != cold[i].profile:
			msgs[i] = "profile was not served from the profiling cache"
		case id.sel != cold[i].sel:
			msgs[i] = "selection was not served from the selection cache"
		}
		if msgs[i] != "" {
			msgs[i] = fmt.Sprintf("%s/%s: %s", s.cells[i].bench, s.cells[i].label, msgs[i])
		}
	}
	builds := warm.after.tape.Builds - warm.before.tape.Builds
	live := warm.after.tape.Live - warm.before.tape.Live
	hits := warm.after.tape.Hits - warm.before.tape.Hits
	steps := warm.after.trainSteps - warm.before.trainSteps
	if builds != 0 || live != 0 || steps != 0 {
		return msgs, fmt.Errorf("warm pass: %d tapes recorded, %d cells live, %d DL training steps; want none", builds, live, steps)
	}
	if hits != int64(len(warm.out)) {
		return msgs, fmt.Errorf("warm pass: %d tape requests for %d cells; a profiling pass ran", hits, len(warm.out))
	}
	return msgs, nil
}

// profileData identifies the profile a cell ran on: cells served from
// the profiling cache share the cached variable table.
func profileData(r system.Result) *profile.VarProfile {
	if r.Profile == nil || len(r.Profile.Vars) == 0 {
		return nil
	}
	return &r.Profile.Vars[0]
}
