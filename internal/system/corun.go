package system

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/cpu"
	"repro/internal/heap"
	"repro/internal/mapping"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/tape"
	"repro/internal/wallclock"
	"repro/internal/workload"
)

// CoRun executes several workloads concurrently on one machine — each in
// its own address space, all sharing the memory system and, in the SDAM
// configurations, the single hardware CMT. This is the paper's co-run
// scenario: the 256-mapping budget and the chunk pool are machine-global
// resources the applications divide among themselves (§3 experiment 2,
// §6.2's cluster-budget discussion).
//
// Per-application profiling and selection run exactly as in Run; the
// Clusters option is the per-application budget.
func CoRun(ws []workload.Workload, opts Options) (Result, error) {
	o := opts.withDefaults()
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.Name()
	}
	res := Result{Config: o.Kind.String(), Workload: "corun(" + strings.Join(names, "+") + ")"}
	if len(ws) == 0 {
		return res, fmt.Errorf("system: co-run of zero workloads")
	}

	// Per-application offline profiling and selection.
	type appSel struct {
		prof profile.Profile
		sel  *cluster.Selection
	}
	sels := make([]appSel, len(ws))
	var globalMapping mapping.Mapping = mapping.Identity{}
	if o.Kind.NeedsProfiling() {
		start := wallclock.Now()
		var combined mapping.BFRV
		for i, w := range ws {
			prof, col, err := Profile(w, o)
			if err != nil {
				return res, err
			}
			sels[i].prof = prof
			if o.Kind == BSBSM {
				// One mapping for the whole mix: average the apps'
				// global flip rates (the workload-mix profiling of §7.3).
				combined.Add(col.GlobalBFRV())
			} else {
				sels[i].sel, err = cachedSelection(o, prof, col.Deltas())
				if err != nil {
					return res, err
				}
			}
		}
		if o.Kind == BSBSM {
			combined.Scale(1 / float64(len(ws)))
			globalMapping = mapping.FromBFRV(combined, o.Geometry, "BSM-mix")
		}
		res.ProfilingTime = wallclock.Since(start)
	}

	// Boot the shared machine.
	var m *machine
	switch o.Kind {
	case BSDM:
		m = bootGlobal(o, mapping.Identity{})
	case BSBSM:
		m = bootGlobal(o, globalMapping)
	case BSHM:
		m = bootGlobal(o, mapping.DefaultXORHash())
	default:
		m = bootSDAM(o)
	}

	// Set each workload up in its own process, installing selections
	// into the shared CMT (exhausting the 256 slots is a real error the
	// caller must handle by shrinking Clusters).
	procs := make([]cpu.Proc, 0, len(ws))
	for i, w := range ws {
		as := m.kernel.NewAddressSpace()
		var policy func(site string) int
		if sels[i].sel != nil {
			siteID, err := installSelection(m.kernel, sels[i].prof, sels[i].sel)
			if err != nil {
				return res, fmt.Errorf("system: co-run app %s: %w", w.Name(), err)
			}
			policy = func(site string) int { return siteID[site] }
		}
		var lay tape.Layout
		env := &workload.Env{AS: as, Heap: heap.New(as), MapIDFor: policy, OnAlloc: lay.Note}
		if err := w.Setup(env); err != nil {
			return res, fmt.Errorf("system: co-run app %s: %w", w.Name(), err)
		}
		streams, err := tape.StreamsFor(w, o.EvalSeed+int64(i), &lay)
		if err != nil {
			return res, fmt.Errorf("system: co-run app %s: %w", w.Name(), err)
		}
		procs = append(procs, cpu.Proc{AS: as, Streams: streams})
	}

	eng := cpu.New(o.Engine, m.ctrl, nil)
	sim := obs.Span3("corun", res.Workload, o.Kind.String())
	run, err := eng.RunProcs(procs)
	sim.End()
	if err != nil {
		return res, fmt.Errorf("system: co-run evaluation: %w", err)
	}
	res.Run = run
	res.HBM = m.dev.Stats()
	res.MappingsInstalled = m.kernel.Table.LiveMappings()
	statCoRuns.Add(1)
	flushRunMetrics(&res, m)
	if err := m.dev.CheckConservation(); err != nil {
		return res, err
	}
	if err := m.kernel.Phys.CheckInvariants(); err != nil {
		return res, err
	}
	return res, nil
}
