// Command perfbench measures one benchmark workload of the SDAM
// simulator for perfbench/run.py, which builds it, starts one process
// per pass (a cold pass needs empty process-wide caches, and only a
// fresh process has them) and aggregates the results.
//
// Usage:
//
//	perfbench -workload <name> -seed <n> [-mode pass|ledger] [-obs] [-spawn-ns t]
//
// -mode pass (the default) runs the workload's cells once at -jobs =
// NumCPU with the program's observability off — or, with -obs, with its
// metrics and span tracing on — and prints the end-to-end figures. A
// warm workload first runs a filling pass, then warmPasses timed
// passes. -mode ledger runs the cells one at a time with observability
// on, replays every layer on the cells' own reference streams, and
// prints the per-layer ledger. -spawn-ns is the wall-clock time (Unix
// ns) at which the parent started this process, so set-up time covers
// process start. The last line of output is one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/f64"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/wallclock"
)

// host stamps every result with what the figures depend on.
type host struct {
	NumCPU      int    `json:"num_cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Jobs        int    `json:"jobs"`
	GoVersion   string `json:"go_version"`
	F64Accel    bool   `json:"f64_accelerated"`
	Seed        int64  `json:"seed"`
	ProfileSeed int64  `json:"profile_seed"`
	EvalSeed    int64  `json:"eval_seed"`
}

// timedPass is one measured pass.
type timedPass struct {
	SweepS     float64 `json:"sweep_s"`
	CPUS       float64 `json:"cpu_s"`
	RetainedMB float64 `json:"retained_mb"`
	// BusyNs and Width are the worker pool's busy time and width, read
	// from the program's metrics in -obs runs.
	BusyNs int64 `json:"busy_ns,omitempty"`
	Width  int64 `json:"width,omitempty"`
}

// report is the one JSON object a process prints.
type report struct {
	Mode        string             `json:"mode"`
	Workload    string             `json:"workload"`
	Host        host               `json:"host"`
	SetupS      float64            `json:"setup_s,omitempty"`
	Passes      []timedPass        `json:"passes,omitempty"`
	Cells       int                `json:"cells"`
	CellsFailed int                `json:"cells_failed"`
	Failures    []string           `json:"failures,omitempty"`
	SimDigest   string             `json:"sim_digest,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	start := wallclock.Now()
	name := flag.String("workload", "", "workload: accel-kernels, cpu-proxies or accel-kernels-warm")
	seed := flag.Int64("seed", 0, "workload seed (non-negative)")
	mode := flag.String("mode", "pass", "pass (end-to-end figures) or ledger (per-layer figures)")
	obsOn := flag.Bool("obs", false, "pass mode: turn the program's metrics and span tracing on")
	spawnNs := flag.Int64("spawn-ns", 0, "wall-clock Unix ns at which this process was started (0: now)")
	flag.Parse()
	if *spawnNs > 0 {
		start = time.Unix(0, *spawnNs)
	}

	s, err := newSuite(*name, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	jobs := runtime.NumCPU()
	parallel.SetJobs(jobs)
	profileSeed, evalSeed := seeds(*seed)
	rep := report{
		Mode:     *mode,
		Workload: s.name,
		Host: host{
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Jobs: jobs,
			GoVersion: runtime.Version(), F64Accel: f64.Accelerated(),
			Seed: *seed, ProfileSeed: profileSeed, EvalSeed: evalSeed,
		},
	}
	switch *mode {
	case "pass":
		passMode(&rep, s, jobs, *obsOn, start)
	case "ledger":
		ledgerMode(&rep, s, jobs)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown mode %q\n", *mode)
		os.Exit(2)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// warmPasses is how many passes a warm workload times per process.
// The filling pass costs about eight warm passes, so timing several
// per process keeps most of a run's time measuring.
const warmPasses = 4

// passMode measures the end-to-end figures. A cold workload runs one
// pass (its caches are cold only once per process); a warm workload
// fills the caches with one pass — its set-up — and then times
// warmPasses passes served from them.
func passMode(rep *report, s *suite, jobs int, obsOn bool, start time.Time) {
	enableObs := func() {
		if obsOn {
			obs.Reset()
			obs.EnableMetrics()
			obs.EnableTracing()
		}
	}
	if !s.warm {
		enableObs()
		rep.SetupS = wallclock.Since(start).Seconds()
		p := runPass(s, jobs)
		rep.record(s, p.out, checkCells(s, p.out), coldGuard(s, p))
		rep.SimDigest = simDigest(s, p.out)
		p.out = nil
		rep.Passes = append(rep.Passes, timed(p, obsOn))
		return
	}
	fill := runPass(s, jobs)
	rep.record(s, fill.out, checkCells(s, fill.out), coldGuard(s, fill))
	rep.SimDigest = simDigest(s, fill.out)
	cold := identify(s, fill.out)
	fill.out = nil
	rep.SetupS = wallclock.Since(start).Seconds()
	for i := 0; i < warmPasses; i++ {
		enableObs()
		p := runPass(s, jobs)
		msgs := checkCells(s, p.out)
		warmMsgs, err := warmCheck(s, cold, p)
		for j, m := range warmMsgs {
			if msgs[j] == "" {
				msgs[j] = m
			}
		}
		rep.record(s, p.out, msgs, err)
		if d := simDigest(s, p.out); d != rep.SimDigest {
			rep.Failures = append(rep.Failures, fmt.Sprintf("warm pass digest %s differs from the filling pass's %s", d, rep.SimDigest))
		}
		p.out = nil
		rep.Passes = append(rep.Passes, timed(p, obsOn))
	}
}

// record counts a pass's cells and failures. A pass-level error (a
// failed cache guard) fails every cell of the pass.
func (rep *report) record(s *suite, out []outcome, msgs []string, passErr error) {
	rep.Cells += len(out)
	if passErr != nil {
		rep.CellsFailed += len(out)
		rep.Failures = append(rep.Failures, passErr.Error())
		return
	}
	for _, m := range msgs {
		if m != "" {
			rep.CellsFailed++
			rep.Failures = append(rep.Failures, m)
		}
	}
}

// timed turns a pass whose outcomes the caller has dropped into its
// reported figures, so the retained heap is what the program keeps.
func timed(p passResult, obsOn bool) timedPass {
	t := timedPass{SweepS: p.wall.Seconds(), CPUS: p.cpu.Seconds()}
	if obsOn {
		snap := obs.Default.Snapshot()
		t.BusyNs = counterValue(snap, "parallel.busy_ns")
		t.Width = counterValue(snap, "parallel.width")
	}
	t.RetainedMB = retainedMB()
	return t
}

// counterValue reads a counter or gauge from a snapshot (0 if absent).
func counterValue(snap obs.Snapshot, name string) int64 {
	for _, m := range snap.Counters {
		if m.Name == name {
			return m.Value
		}
	}
	for _, m := range snap.Gauges {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}
