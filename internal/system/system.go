// Package system composes the full prototype — kernel, allocators, CMT,
// AMU, memory controller, HBM device, and a CPU or accelerator engine —
// and runs workloads under the six system configurations the paper
// evaluates (§7.3):
//
//	BS+DM       fixed default mapping, global
//	BS+BSM      one profile-derived bit-shuffle mapping, global
//	BS+HM       one XOR-hash mapping, global
//	SDM+BSM     SDAM with one mapping per application
//	SDM+BSM+ML  SDAM with per-variable mappings via K-Means
//	SDM+BSM+DL  SDAM with per-variable mappings via DL-assisted K-Means
//
// Configurations that need profiling run the workload once on the
// baseline system with the collector attached (the paper's offline
// profiling pass, with its own input seed), select mappings, and then
// run the evaluation pass on a fresh machine — so profiling and
// evaluation use different inputs exactly as in §7.3's cross-validation.
package system

import (
	"fmt"
	"time"

	"repro/internal/amu"
	"repro/internal/cluster"
	"repro/internal/cpu"
	"repro/internal/geom"
	"repro/internal/hbm"
	"repro/internal/heap"
	"repro/internal/mapping"
	"repro/internal/memctrl"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/profile"
	"repro/internal/tape"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/wallclock"
	"repro/internal/workload"
)

// Kind names a system configuration.
type Kind int

// The six evaluated configurations.
const (
	BSDM Kind = iota
	BSBSM
	BSHM
	SDMBSM
	SDMBSMML
	SDMBSMDL
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case BSDM:
		return "BS+DM"
	case BSBSM:
		return "BS+BSM"
	case BSHM:
		return "BS+HM"
	case SDMBSM:
		return "SDM+BSM"
	case SDMBSMML:
		return "SDM+BSM+ML"
	case SDMBSMDL:
		return "SDM+BSM+DL"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// AllKinds lists the configurations in the paper's reporting order.
var AllKinds = []Kind{BSDM, BSBSM, BSHM, SDMBSM, SDMBSMML, SDMBSMDL}

// NeedsProfiling reports whether the configuration requires an offline
// profiling pass.
func (k Kind) NeedsProfiling() bool { return k != BSDM && k != BSHM }

// Options configures a run.
type Options struct {
	Kind     Kind
	Clusters int // K for the ML/DL selectors; default 32
	// Engine selects the processing-element model; zero value means the
	// 4-core CPU.
	Engine cpu.Config
	// HBMScale divides the memory frequency (Fig 14); default 1.
	HBMScale float64
	// ProfileSeed and EvalSeed are the program inputs for the two passes
	// (different by default, per §7.3).
	ProfileSeed, EvalSeed int64
	// Geometry overrides the device geometry (Fig 1 sweeps); zero value
	// means the 8 GB / 32-channel prototype.
	Geometry geom.Geometry
	// DL tunes the DL selector's training budget.
	DL cluster.DLOptions
}

func (o Options) withDefaults() Options {
	if o.Clusters <= 0 {
		o.Clusters = 32
	}
	if o.Engine.Cores == 0 {
		o.Engine = cpu.CPUConfig(4)
	}
	if o.HBMScale <= 0 {
		o.HBMScale = 1
	}
	if o.ProfileSeed == 0 {
		o.ProfileSeed = 1
	}
	if o.EvalSeed == 0 {
		o.EvalSeed = 2
	}
	if o.Geometry.Channels == 0 {
		o.Geometry = geom.Default()
	}
	return o
}

// Result reports one configured run.
type Result struct {
	Config    string
	Workload  string
	Run       cpu.Result
	HBM       hbm.Stats
	Profile   *profile.Profile
	Selection *cluster.Selection
	// ProfilingTime is the offline selection cost (Fig 13); zero for
	// configurations without profiling.
	ProfilingTime time.Duration
	// MappingsInstalled counts live CMT mappings after setup.
	MappingsInstalled int
}

// SpeedupOver returns the wall-clock speedup of r versus a baseline run
// of the same workload.
func (r Result) SpeedupOver(base Result) float64 { return r.Run.SpeedupOver(base.Run) }

// machine bundles one bootable instance.
type machine struct {
	kernel *vm.Kernel
	as     *vm.AddressSpace
	heap   *heap.Allocator
	dev    *hbm.Device
	ctrl   *memctrl.Controller
}

// bootGlobal builds a machine with a fixed global mapping.
func bootGlobal(o Options, m mapping.Mapping) *machine {
	dev := hbm.New(o.Geometry, hbm.DefaultTiming().Scale(o.HBMScale))
	k := vm.NewKernel(o.Geometry.Chunks())
	as := k.NewAddressSpace()
	return &machine{kernel: k, as: as, heap: heap.New(as), dev: dev, ctrl: memctrl.NewGlobal(dev, m)}
}

// bootSDAM builds a machine with the CMT+AMU datapath.
func bootSDAM(o Options) *machine {
	dev := hbm.New(o.Geometry, hbm.DefaultTiming().Scale(o.HBMScale))
	k := vm.NewKernel(o.Geometry.Chunks())
	as := k.NewAddressSpace()
	return &machine{kernel: k, as: as, heap: heap.New(as), dev: dev, ctrl: memctrl.NewSDAM(dev, k.Table, amu.New(8))}
}

// runOn executes the workload on a machine with the given mapping
// policy, returning the engine result and optionally collecting a trace.
// The reference streams come from the process-wide tape cache: the
// cell's allocation layout is captured during Setup, and the first cell
// of a {workload, seed} records the stream emission once for every
// later cell to replay (rebased onto its own layout).
func runOn(m *machine, w workload.Workload, o Options, seed int64, policy func(site string) int, col *trace.Collector) (cpu.Result, error) {
	var lay tape.Layout
	env := &workload.Env{AS: m.as, Heap: m.heap, MapIDFor: policy, Collector: col, OnAlloc: lay.Note}
	if err := w.Setup(env); err != nil {
		return cpu.Result{}, err
	}
	streams, err := tape.StreamsFor(w, seed, &lay)
	if err != nil {
		return cpu.Result{}, err
	}
	eng := cpu.New(o.Engine, m.ctrl, m.as)
	eng.Collector = col
	return eng.Run(streams)
}

// Profile runs the workload once on the BS+DM baseline with the profiler
// attached — the paper's offline profiling pass — and returns the
// per-variable profile plus the raw collector (whose delta trace feeds
// the DL selector). The pass is memoized process-wide (see profcache.go):
// configurations that share profiling inputs share one pass and its
// collector, read-only.
func Profile(w workload.Workload, opts Options) (profile.Profile, *trace.Collector, error) {
	return cachedProfile(w, opts.withDefaults())
}

// profileFresh is the uncached profiling pass.
func profileFresh(w workload.Workload, o Options) (profile.Profile, *trace.Collector, error) {
	defer obs.Span2("profile", w.Name()).End()
	statProfPass.Add(1)
	m := bootGlobal(o, mapping.Identity{})
	col := trace.NewCollector(0)
	if _, err := runOn(m, w, o, o.ProfileSeed, nil, col); err != nil {
		return profile.Profile{}, nil, fmt.Errorf("system: profiling pass: %w", err)
	}
	return profile.FromCollector(w.Name(), col), col, nil
}

// Run executes one workload under one configuration.
func Run(w workload.Workload, opts Options) (Result, error) {
	o := opts.withDefaults()
	res := Result{Config: o.Kind.String(), Workload: w.Name()}

	// Offline profiling + mapping selection where the config needs it.
	var sel *cluster.Selection
	var prof profile.Profile
	var globalMapping mapping.Mapping
	if o.Kind.NeedsProfiling() {
		var col *trace.Collector
		var err error
		prof, col, err = Profile(w, o)
		if err != nil {
			return res, err
		}
		res.Profile = &prof
		start := wallclock.Now()
		if o.Kind == BSBSM {
			globalMapping = mapping.FromBFRV(col.GlobalBFRV(), o.Geometry, "BSM-global")
		} else {
			sel, err = cachedSelection(o, prof, col.Deltas())
			if err != nil {
				return res, err
			}
		}
		res.ProfilingTime = wallclock.Since(start)
		res.Selection = sel
	}

	// Evaluation pass on a fresh machine.
	var m *machine
	var policy func(site string) int
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
	if o.Kind != BSDM && o.Kind != BSBSM && o.Kind != BSHM {
		// Install each cluster's mapping once and route sites to IDs.
		siteID, err := installSelection(m.kernel, prof, sel)
		if err != nil {
			return res, err
		}
		policy = func(site string) int { return siteID[site] }
	}

	sim := obs.Span3("sim", w.Name(), o.Kind.String())
	run, err := runOn(m, w, o, o.EvalSeed, policy, nil)
	sim.End()
	if err != nil {
		return res, fmt.Errorf("system: evaluation pass: %w", err)
	}
	res.Run = run
	res.HBM = m.dev.Stats()
	res.MappingsInstalled = m.kernel.Table.LiveMappings()
	statRuns.Add(1)
	flushRunMetrics(&res, m)

	// Integrity checks: the run must leave every layer consistent.
	if err := m.dev.CheckConservation(); err != nil {
		return res, err
	}
	if err := m.as.CheckInvariants(); err != nil {
		return res, err
	}
	if err := m.kernel.Phys.CheckInvariants(); err != nil {
		return res, err
	}
	if err := m.heap.CheckInvariants(); err != nil {
		return res, err
	}
	return res, nil
}

// installSelection writes the selection's mappings into the kernel's CMT
// (via add_addr_map) and returns the site→mapping-ID routing table.
func installSelection(k *vm.Kernel, prof profile.Profile, sel *cluster.Selection) (map[string]int, error) {
	siteID := make(map[string]int)
	if sel == nil {
		return siteID, nil
	}
	ident := amu.Identity()
	idOf := make(map[*mapping.Shuffle]int)
	for _, m := range sel.ClusterMappings {
		cfg := amu.ConfigFromShuffle(m)
		if cfg == ident {
			// An identity-permutation cluster is the boot-time default;
			// routing it to mapping ID 0 keeps its variables in the
			// default chunk group instead of fragmenting allocation.
			idOf[m] = 0
			continue
		}
		id, err := k.AddAddrMap(cfg)
		if err != nil {
			return nil, fmt.Errorf("system: installing mapping %s: %w", m.Name(), err)
		}
		idOf[m] = id
	}
	// Route each major variable's site to its cluster's mapping ID.
	for _, v := range prof.Vars {
		if m, ok := sel.VarMapping[v.VID]; ok && m != nil {
			siteID[v.Site] = idOf[m]
		}
	}
	return siteID, nil
}

// Compare runs the workload under every configuration in kinds and
// returns results in order, all sharing the same seeds and engine.
//
// The configurations are independent — each builds its own machine and
// seeded RNGs, and runs its own clone of w — so they fan out over the
// parallel worker pool; the simulated results are bit-identical at any
// worker count. On failure the error names every configuration that
// failed, and the returned slice still has len(kinds) entries with the
// surviving configurations' results at their stable positions (failed
// slots hold the partially filled Result of that run).
func Compare(w workload.Workload, base Options, kinds []Kind) ([]Result, error) {
	name := w.Name() // hoisted: the thunks must not touch the shared workload
	return parallel.Map(kinds, func(_ int, k Kind) (Result, error) {
		defer obs.Span3("cell", name, k.String()).End()
		o := base
		o.Kind = k
		r, err := Run(w.Clone(), o)
		if err != nil {
			return r, fmt.Errorf("system: %s on %s: %w", k, name, err)
		}
		return r, nil
	})
}
