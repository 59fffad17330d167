package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/amu"
	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/cpu"
	"repro/internal/geom"
	"repro/internal/hbm"
	"repro/internal/heap"
	"repro/internal/mapping"
	"repro/internal/memctrl"
	"repro/internal/obs"
	"repro/internal/system"
	"repro/internal/tape"
	"repro/internal/vm"
	"repro/internal/wallclock"
	"repro/internal/workload"
)

// ledgerMode produces the per-layer figures. The cells run one at a
// time with the program's metrics and span tracing on, so the spans of
// one cell never overlap another's and the layer times add up to the
// pass's wall time (the DL selector still fans out internally). A warm
// workload fills the caches first and ledgers its second pass. Then
// every layer is replayed on each cell's own reference stream.
func ledgerMode(rep *report, s *suite, jobs int) {
	obs.EnableMetrics()
	obs.EnableTracing()
	var cold []cellID
	if s.warm {
		fill := runPass(s, jobs)
		rep.record(s, fill.out, checkCells(s, fill.out), coldGuard(s, fill))
		cold = identify(s, fill.out)
		obs.Reset()
	}
	p := runPass(s, 1)
	snap := obs.Default.Snapshot()
	events := obs.Default.Events()
	obs.DisableMetrics()
	obs.DisableTracing()

	msgs := checkCells(s, p.out)
	var passErr error
	if s.warm {
		var warmMsgs []string
		warmMsgs, passErr = warmCheck(s, cold, p)
		for i, m := range warmMsgs {
			if msgs[i] == "" {
				msgs[i] = m
			}
		}
	} else {
		passErr = coldGuard(s, p)
		if n := counterValue(snap, "system.profile_passes"); passErr == nil && n != int64(len(s.benches())) {
			passErr = fmt.Errorf("cold-pass guard: %d profiling passes for %d workloads", n, len(s.benches()))
		}
	}

	m := map[string]float64{}
	spanLedger(m, s, p, snap, events)
	layerMsgs := replayLedger(m, s, p)
	for i, lm := range layerMsgs {
		if msgs[i] == "" {
			msgs[i] = lm
		}
	}
	rep.record(s, p.out, msgs, passErr)
	rep.SimDigest = simDigest(s, p.out)
	rep.Metrics = m
}

// interval is one finished span on the trace clock.
type interval struct {
	name       string
	start, end int64
}

// within reports whether iv lies inside outer.
func (iv interval) within(outer interval) bool {
	return iv.start >= outer.start && iv.end <= outer.end
}

func (iv interval) dur() int64 { return iv.end - iv.start }

// spanLedger derives the phase metrics from the serial pass's spans and
// counters. Profiling and evaluation spans include the tape recordings
// made inside them (the first cell of each {workload, seed} records);
// those are subtracted, so tape.build_s, system.profile_s and
// system.sim_s partition the simulation-side time.
func spanLedger(m map[string]float64, s *suite, p passResult, snap obs.Snapshot, events []obs.SpanEvent) {
	var tapes, profiles, sims []interval
	spanNs := map[string]int64{}
	for _, e := range events {
		iv := interval{e.Name, e.StartNs, e.StartNs + e.DurNs}
		kind, _, _ := strings.Cut(e.Name, ":")
		switch kind {
		case "tape":
			tapes = append(tapes, iv)
		case "profile":
			profiles = append(profiles, iv)
		case "sim":
			sims = append(sims, iv)
		}
		spanNs[e.Name] += e.DurNs
	}
	// own returns iv's duration minus the tape recordings inside it.
	own := func(iv interval) int64 {
		d := iv.dur()
		for _, t := range tapes {
			if t.within(iv) {
				d -= t.dur()
			}
		}
		return d
	}
	var profileNs, simNs int64
	for _, iv := range profiles {
		profileNs += own(iv)
	}
	for _, iv := range sims {
		simNs += own(iv)
	}
	c := func(name string) float64 { return float64(counterValue(snap, name)) }
	refs := c("engine.refs")
	m["system.profile_s"] = float64(profileNs) / 1e9
	m["system.profile_passes"] = c("system.profile_passes")
	m["system.sim_s"] = float64(simNs) / 1e9
	m["system.sim_ns_per_ref"] = ratio(float64(simNs), refs)
	m["system.select_dl_s"] = float64(spanNs["select:SDM+BSM+DL"]) / 1e9
	m["system.select_ml_s"] = float64(spanNs["select:SDM+BSM+ML"]) / 1e9
	m["profile.cache_hit_ratio"] = ratio(c("profile.cache_hits"), c("profile.cache_hits")+c("profile.cache_misses"))
	m["select.cache_hit_ratio"] = ratio(c("select.cache_hits"), c("select.cache_hits")+c("select.cache_misses"))

	var dlStages int64
	for _, stage := range []string{"window", "train", "embed", "kmeans"} {
		ns := spanNs["dl:"+stage]
		dlStages += ns
		m["cluster.dl_"+stage+"_s"] = float64(ns) / 1e9
	}
	m["cluster.dl_guard_s"] = float64(spanNs["select:SDM+BSM+DL"]-dlStages) / 1e9
	m["nn.train_steps"] = c("nn.train_steps")
	m["nn.us_per_step"] = ratio(float64(spanNs["dl:train"])/1e3, c("nn.train_steps"))

	builds, hits, live := c("tape.builds"), c("tape.hits"), c("tape.live")
	m["tape.build_s"] = c("tape.build_ns") / 1e9
	m["tape.builds"] = builds
	m["tape.live"] = live
	m["tape.hit_ratio"] = ratio(hits, builds+hits+live)
	m["tape.bytes"] = float64(tape.CacheStats().Bytes)

	// The profiling pass is the BS+DM evaluation pass plus the trace
	// collector (on the profiling input): their difference per
	// reference is the collector's cost.
	var traceNs int64
	var traceRefs uint64
	for _, pr := range profiles {
		bench := strings.TrimPrefix(pr.name, "profile:")
		for i, cl := range s.cells {
			if cl.bench != bench || cl.opts.Kind != system.BSDM {
				continue
			}
			for _, sim := range sims {
				if sim.name == "sim:"+bench+"/BS+DM" {
					traceNs += own(pr) - own(sim)
					traceRefs += p.out[i].res.Run.References
				}
			}
		}
	}
	m["trace.ns_per_ref"] = ratio(float64(traceNs), float64(traceRefs))

	for _, name := range []string{"engine.refs", "engine.external", "engine.faults", "cmt.reads",
		"memctrl.compiles", "cmt.live_mappings", "hbm.requests", "hbm.pool_news"} {
		m[name] = c(name)
	}
	m["cache.hit_ratio"] = ratio(c("engine.cache_hits"), refs)
	m["hbm.row_hit_ratio"] = ratio(c("hbm.row_hits"), c("hbm.row_hits")+c("hbm.row_misses"))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerCost accumulates one layer's replay time and operation count.
type layerCost struct {
	ns  int64
	ops int
}

func (l *layerCost) add(d time.Duration, ops int) {
	l.ns += d.Nanoseconds()
	l.ops += ops
}

// perOp is the layer's mean host ns per operation.
func (l layerCost) perOp() float64 { return ratio(float64(l.ns), float64(l.ops)) }

// replayLedger replays every layer of the reference pipeline on each
// cell's own evaluation stream and fills the per-layer costs plus the
// reconciliation against the measured simulation time. It returns one
// message per cell whose replay could not reproduce the cell (empty for
// cells that passed).
func replayLedger(m map[string]float64, s *suite, p passResult) []string {
	var r replayer
	r.tapes = map[string]*tape.Tape{}
	msgs := make([]string, len(s.cells))
	for i, c := range s.cells {
		if p.out[i].err != nil {
			continue
		}
		if err := r.cell(s, c, p.out[i].res); err != nil {
			msgs[i] = fmt.Sprintf("%s/%s: layer replay: %v", c.bench, c.label, err)
		}
	}
	simNs := m["system.sim_s"] * 1e9
	m["tape.replay_ns_per_ref"] = r.replay.perOp()
	m["apps.setup_ms_per_cell"] = r.setup.perOp() / 1e6
	m["vm.ns_per_translate"] = r.vm.perOp()
	m["cache.ns_per_access"] = r.cache.perOp()
	m["memctrl.ns_per_access"] = r.ctrl.perOp()
	m["cmt.ns_per_lookup"] = r.cmt.perOp()
	m["amu.ns_per_translate"] = r.amu.perOp()
	m["hbm.ns_per_access"] = r.hbm.perOp()
	m["kmeans.select_ms"] = r.kmeans.perOp() / 1e6
	m["sim.unattributed_share"] = 1 - ratio(r.attributed, simNs)
	m["cpu.engine_self_ns_per_ref"] = ratio(simNs-r.attributed, m["engine.refs"])
	return msgs
}

// replayer holds the layer replays' running totals.
type replayer struct {
	tapes                                         map[string]*tape.Tape // evaluation tape per workload
	setup, replay, vm, cache, ctrl, cmt, amu, hbm layerCost
	kmeans                                        layerCost
	// attributed is Σ over cells and layers of the layer's replay cost
	// per operation times the cell's measured operation count.
	attributed float64
}

// rig is one machine booted the way system.Run boots a cell.
type rig struct {
	kernel *vm.Kernel
	as     *vm.AddressSpace
	dev    *hbm.Device
	ctrl   *memctrl.Controller
	global mapping.Mapping // nil under SDAM
	policy func(site string) int
	lay    tape.Layout
}

// boot builds the cell's machine — its global mapping, or the SDAM
// datapath with the cell's selection installed — and sets the workload
// up on it, returning the set-up time.
func boot(c cell, res system.Result) (*rig, workload.Workload, time.Duration, error) {
	g := geom.Default()
	k := vm.NewKernel(g.Chunks())
	as := k.NewAddressSpace()
	dev := hbm.New(g, hbm.DefaultTiming().Scale(1))
	r := &rig{kernel: k, as: as, dev: dev}
	switch c.opts.Kind {
	case system.BSDM:
		r.global = mapping.Identity{}
	case system.BSBSM:
		_, col, err := system.Profile(workload.Clone(c.w), c.opts)
		if err != nil {
			return nil, nil, 0, err
		}
		r.global = mapping.FromBFRV(col.GlobalBFRV(), g, "BSM-global")
	case system.BSHM:
		r.global = mapping.DefaultXORHash()
	}
	if r.global != nil {
		r.ctrl = memctrl.NewGlobal(dev, r.global)
	} else {
		r.ctrl = memctrl.NewSDAM(dev, k.Table, amu.New(8))
		siteID, err := install(k, res)
		if err != nil {
			return nil, nil, 0, err
		}
		r.policy = func(site string) int { return siteID[site] }
	}
	w := workload.Clone(c.w)
	env := &workload.Env{AS: as, Heap: heap.New(as), MapIDFor: r.policy, OnAlloc: r.lay.Note}
	start := wallclock.Now()
	err := w.Setup(env)
	return r, w, wallclock.Since(start), err
}

// install writes the cell's selected mappings into the CMT through the
// OS interface and routes each major variable's site to its cluster's
// mapping, as system.Run does.
func install(k *vm.Kernel, res system.Result) (map[string]int, error) {
	siteID := map[string]int{}
	if res.Selection == nil || res.Profile == nil {
		return siteID, nil
	}
	idOf := map[*mapping.Shuffle]int{}
	for _, sh := range res.Selection.ClusterMappings {
		cfg := amu.ConfigFromShuffle(sh)
		if cfg == amu.Identity() {
			idOf[sh] = 0
			continue
		}
		id, err := k.AddAddrMap(cfg)
		if err != nil {
			return nil, err
		}
		idOf[sh] = id
	}
	for _, v := range res.Profile.Vars {
		if sh, ok := res.Selection.VarMapping[v.VID]; ok && sh != nil {
			siteID[v.Site] = idOf[sh]
		}
	}
	return siteID, nil
}

// cell verifies that the cell re-runs bit-identically on a machine the
// benchmark booted itself, then replays each layer on a second fresh
// machine, in pipeline order: tape replay, translation, the private
// caches (CPU only), the memory controller (which includes the CMT,
// AMU and device work below it), and the CMT, AMU and device alone.
func (r *replayer) cell(s *suite, c cell, res system.Result) error {
	tp, err := r.verify(s, c, res)
	if err != nil {
		return err
	}
	rg, _, setupDur, err := boot(c, res)
	if err != nil {
		return err
	}
	r.setup.add(setupDur, 1)
	vas, coreOf, replayDur, err := drain(tp, &rg.lay, s.engine.Cores)
	if err != nil {
		return err
	}
	r.replay.add(replayDur, len(vas))
	lines, vmDur, err := translate(rg.as, vas)
	if err != nil {
		return err
	}
	r.vm.add(vmDur, len(vas))
	ext, cacheDur := filter(s.engine, lines, coreOf)
	if cacheDur > 0 {
		r.cache.add(cacheDur, len(lines))
	}
	// The controller sees the misses at the cell's mean arrival rate.
	gap := ratio(res.Run.TimeNs, float64(res.Run.External))
	start := wallclock.Now()
	for j, l := range ext {
		if _, err := rg.ctrl.Access(float64(j)*gap, l); err != nil {
			return err
		}
	}
	ctrlDur := wallclock.Since(start)
	r.ctrl.add(ctrlDur, len(ext))
	if err := r.below(rg, ext, gap); err != nil {
		return err
	}
	if c.opts.Kind == system.SDMBSMML {
		start = wallclock.Now()
		sel, err := cluster.SelectKMeans(*res.Profile, c.opts.Clusters, geom.Default())
		r.kmeans.add(wallclock.Since(start), 1)
		if err != nil {
			return err
		}
		if !sameSelection(sel, *res.Selection) {
			return fmt.Errorf("cluster.SelectKMeans disagrees with the cell's selection")
		}
	}

	// Reconcile against the cell's measured operation counts.
	perRef := ratio(float64(replayDur+vmDur+cacheDur), float64(len(vas)))
	perExt := ratio(float64(ctrlDur), float64(len(ext)))
	r.attributed += float64(setupDur) + perRef*float64(res.Run.References) + perExt*float64(res.Run.External)
	return nil
}

// verify re-runs the cell with cpu.Engine.Run on a machine the
// benchmark booted, from the evaluation tape of the cell's workload
// (recorded on first use), and requires system.Run's exact statistics.
func (r *replayer) verify(s *suite, c cell, res system.Result) (*tape.Tape, error) {
	v, w, _, err := boot(c, res)
	if err != nil {
		return nil, err
	}
	tp := r.tapes[c.bench]
	if tp == nil {
		tp = tape.Record(w.Streams(c.opts.EvalSeed), v.lay)
		r.tapes[c.bench] = tp
	}
	streams, err := tp.Streams(&v.lay)
	if err != nil {
		return nil, err
	}
	run, err := cpu.New(s.engine, v.ctrl, v.as).Run(streams)
	if err != nil {
		return nil, err
	}
	again := system.Result{Run: run, HBM: v.dev.Stats(), MappingsInstalled: v.kernel.Table.LiveMappings()}
	if cellDigest(c, again) != cellDigest(c, res) {
		return nil, fmt.Errorf("re-run on a benchmark-booted machine differs from system.Run")
	}
	return tp, nil
}

// drain replays the tape for layout lay, timing the drain of every
// stream in engine-sized batches. Streams run round-robin on the cores,
// as the engine assigns them, and the cores' references are returned
// interleaved in engine-sized batches with the core of each.
func drain(tp *tape.Tape, lay *tape.Layout, cores int) ([]vm.VA, []int, time.Duration, error) {
	streams, err := tp.Streams(lay)
	if err != nil {
		return nil, nil, 0, err
	}
	refs := make([]cpu.Ref, tp.Refs())
	bounds := make([]int, len(streams)+1)
	start := wallclock.Now()
	pos := 0
	for i, st := range streams {
		b := st.(cpu.BatchStream)
		for pos < len(refs) {
			n := b.NextBatch(refs[pos:min(pos+64, len(refs))])
			if n == 0 {
				break
			}
			pos += n
		}
		bounds[i+1] = pos
	}
	dur := wallclock.Since(start)

	perCore := make([][]cpu.Ref, cores)
	for i := range streams {
		perCore[i%cores] = append(perCore[i%cores], refs[bounds[i]:bounds[i+1]]...)
	}
	vas := make([]vm.VA, 0, pos)
	coreOf := make([]int, 0, pos)
	for off := 0; len(vas) < pos; off += 64 {
		for ci, cr := range perCore {
			if off < len(cr) {
				for _, ref := range cr[off:min(off+64, len(cr))] {
					vas = append(vas, ref.VA)
					coreOf = append(coreOf, ci)
				}
			}
		}
	}
	return vas, coreOf, dur, nil
}

// translate times vm translation of every reference, demand faults
// included.
func translate(as *vm.AddressSpace, vas []vm.VA) ([]geom.LineAddr, time.Duration, error) {
	lines := make([]geom.LineAddr, len(vas))
	start := wallclock.Now()
	for j, va := range vas {
		l, err := as.TranslateLine(va)
		if err != nil {
			return nil, 0, err
		}
		lines[j] = l
	}
	return lines, wallclock.Since(start), nil
}

// filter times the engine's private caches on the translated lines and
// returns the misses; without caches every line is external and the
// duration is zero.
func filter(cfg cpu.Config, lines []geom.LineAddr, coreOf []int) ([]geom.LineAddr, time.Duration) {
	if cfg.L1Bytes == 0 {
		return lines, 0
	}
	l1 := make([]*cache.Cache, cfg.Cores)
	for i := range l1 {
		l1[i] = cache.MustNew(cfg.L1Bytes, cfg.L1Ways)
	}
	ext := make([]geom.LineAddr, 0, len(lines))
	start := wallclock.Now()
	for j, l := range lines {
		if hit, _, _ := l1[coreOf[j]].AccessDirty(l, false); !hit {
			ext = append(ext, l)
		}
	}
	return ext, wallclock.Since(start)
}

// sink keeps the CMT replay's results live so the loop is not
// optimized away.
var sink uint64

// below replays the layers under the controller on its external
// accesses: under SDAM the CMT lookups and compiled AMU translations,
// then the device alone on the resulting hardware addresses, which must
// reproduce the row hits the controller replay saw.
func (r *replayer) below(rg *rig, ext []geom.LineAddr, gap float64) error {
	has := make([]geom.LineAddr, len(ext))
	if rg.global != nil {
		for j, l := range ext {
			has[j] = mapping.Map(rg.global, l)
		}
	} else {
		table := rg.kernel.Table
		var x uint64
		start := wallclock.Now()
		for _, l := range ext {
			cfg, err := table.Lookup(l.Chunk())
			if err != nil {
				return err
			}
			x += uint64(cfg[0])
		}
		r.cmt.add(wallclock.Since(start), len(ext))
		sink += x
		compiled := make([]*amu.Compiled, table.Chunks())
		for _, l := range ext {
			if compiled[l.Chunk()] == nil {
				cfg, _ := table.Lookup(l.Chunk())
				compiled[l.Chunk()] = cfg.Compile()
			}
		}
		start = wallclock.Now()
		for j, l := range ext {
			has[j] = compiled[l.Chunk()].Translate(l)
		}
		r.amu.add(wallclock.Since(start), len(ext))
	}
	dev := hbm.New(geom.Default(), hbm.DefaultTiming().Scale(1))
	start := wallclock.Now()
	for j, ha := range has {
		dev.AccessLine(float64(j)*gap, ha)
	}
	r.hbm.add(wallclock.Since(start), len(has))
	if a, b := dev.Stats(), rg.dev.Stats(); a.RowHits != b.RowHits || a.Requests != b.Requests {
		return fmt.Errorf("device replay diverged from the controller replay (%d/%d vs %d/%d row hits/requests)",
			a.RowHits, a.Requests, b.RowHits, b.Requests)
	}
	return nil
}

// sameSelection reports whether two selections cluster the variables
// identically and pick the same mappings.
func sameSelection(a, b cluster.Selection) bool {
	if a.K != b.K || len(a.VarCluster) != len(b.VarCluster) || len(a.ClusterMappings) != len(b.ClusterMappings) {
		return false
	}
	vids := make([]int, 0, len(a.VarCluster))
	for vid := range a.VarCluster {
		vids = append(vids, vid)
	}
	sort.Ints(vids)
	for _, vid := range vids {
		if b.VarCluster[vid] != a.VarCluster[vid] {
			return false
		}
	}
	for i, sh := range a.ClusterMappings {
		if amu.ConfigFromShuffle(sh) != amu.ConfigFromShuffle(b.ClusterMappings[i]) {
			return false
		}
	}
	return true
}
