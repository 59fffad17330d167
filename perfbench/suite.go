package main

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/cpu"
	"repro/internal/system"
	"repro/internal/workload"
)

// A cell is one system.Run of one workload under one configuration.
type cell struct {
	bench string // workload name
	label string // configuration column, e.g. "SDM+BSM+DL(32)"
	w     workload.Workload
	opts  system.Options
}

// suite is one benchmark workload: the cells a pass runs, plus what a
// cold pass must observe for the cold-pass guard.
type suite struct {
	name   string
	engine cpu.Config
	cells  []cell
	// warm runs the cells twice per process: the first pass fills the
	// tape, profile and selection caches (the set-up), the second is
	// timed and must be served entirely from them.
	warm bool
	// pairs is the number of distinct {tape key, seed} recordings a
	// cold pass makes; dlCells the number of cells that train the DL
	// selector and dlSteps the per-sequence training evaluations each
	// such training performs.
	pairs, dlCells, dlSteps int
}

// column is one evaluated configuration of Fig 12/15.
type column struct {
	label    string
	kind     system.Kind
	clusters int
}

// accelColumns is BS+DM plus Fig 15's seven columns.
var accelColumns = []column{
	{"BS+DM", system.BSDM, 0},
	{"BS+BSM", system.BSBSM, 0},
	{"BS+HM", system.BSHM, 0},
	{"SDM+BSM", system.SDMBSM, 0},
	{"SDM+BSM+ML(4)", system.SDMBSMML, 4},
	{"SDM+BSM+ML(32)", system.SDMBSMML, 32},
	{"SDM+BSM+DL(4)", system.SDMBSMDL, 4},
	{"SDM+BSM+DL(32)", system.SDMBSMDL, 32},
}

// proxyColumns are the CPU-proxy configurations: no DL selector.
var proxyColumns = []column{
	{"BS+DM", system.BSDM, 0},
	{"BS+BSM", system.BSBSM, 0},
	{"BS+HM", system.BSHM, 0},
	{"SDM+BSM", system.SDMBSM, 0},
	{"SDM+BSM+ML(32)", system.SDMBSMML, 32},
}

// dlBudget is the full-figure DL training budget of Fig 12/15.
var dlBudget = cluster.DLOptions{Steps: 400, MaxWindows: 512}

// proxyNames are the 19 Table 1 proxies in Fig 12a's order.
var proxyNames = []string{
	"perlbench", "bzip2", "gcc", "mcf", "gobmk", "hmmer", "sjeng",
	"libquantum", "h264ref", "omnetpp", "astar", "xalancbmk",
	"bodytrack", "cenneal", "dedup", "ferret", "freqmine",
	"streamcluster", "vips",
}

// workloadNames lists the benchmark's workloads.
var workloadNames = []string{"accel-kernels", "cpu-proxies", "accel-kernels-warm"}

// seeds derives the profiling and evaluation inputs from the workload
// seed. They always differ, as in the paper's §7.3 cross-validation.
func seeds(seed int64) (profileSeed, evalSeed int64) {
	return 2*seed + 1, 2*seed + 2
}

// newSuite builds the named workload's cells for one workload seed.
func newSuite(name string, seed int64) (*suite, error) {
	if seed < 0 {
		return nil, fmt.Errorf("seed %d: must be non-negative", seed)
	}
	s := &suite{name: name}
	var ws []workload.Workload
	var cols []column
	switch name {
	case "accel-kernels", "accel-kernels-warm":
		s.engine = cpu.AcceleratorConfig(4)
		s.warm = name == "accel-kernels-warm"
		opts := apps.Options{MaxRefs: 80_000}
		ws = []workload.Workload{
			apps.NewBFS(opts), apps.NewPageRank(opts), apps.NewSSSP(opts),
			apps.NewHashJoin(opts), apps.NewMergeJoin(opts),
			apps.NewKMeansApp(opts), apps.NewHNSW(opts), apps.NewIVFPQ(opts),
		}
		cols = accelColumns
	case "cpu-proxies":
		s.engine = cpu.CPUConfig(4)
		opts := workload.ProxyOptions{Refs: 100_000, MaxMinorVars: 64}
		for _, n := range proxyNames {
			p, err := workload.NewProxyByName(n, opts)
			if err != nil {
				return nil, err
			}
			ws = append(ws, p)
		}
		cols = proxyColumns
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	profileSeed, evalSeed := seeds(seed)
	tapes := map[string]bool{}
	for _, w := range ws {
		key := w.(workload.TapeKeyer).TapeKey()
		for _, c := range cols {
			o := system.Options{
				Kind:        c.kind,
				Clusters:    c.clusters,
				Engine:      s.engine,
				ProfileSeed: profileSeed,
				EvalSeed:    evalSeed,
			}
			if c.kind == system.SDMBSMDL {
				o.DL = dlBudget
				s.dlCells++
			}
			s.cells = append(s.cells, cell{bench: w.Name(), label: c.label, w: w, opts: o})
			tapes[fmt.Sprintf("%s@%d", key, evalSeed)] = true
			if c.kind.NeedsProfiling() {
				tapes[fmt.Sprintf("%s@%d", key, profileSeed)] = true
			}
		}
	}
	s.pairs = len(tapes)
	// Each DL training presents Steps sequences, one gradient
	// evaluation apiece (rounded up to whole mini-batches of 4).
	s.dlSteps = (dlBudget.Steps + 3) / 4 * 4
	return s, nil
}

// benches returns the suite's workload names in cell order.
func (s *suite) benches() []string {
	var out []string
	seen := map[string]bool{}
	for _, c := range s.cells {
		if !seen[c.bench] {
			seen[c.bench] = true
			out = append(out, c.bench)
		}
	}
	return out
}
