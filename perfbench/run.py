#!/usr/bin/env python3
"""Benchmark of the SDAM simulator's host cost.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

It builds the Go program in perfbench/ (a module of its own that
compiles the simulator from the checkout's source) into .bench_build/,
then starts one process per pass until --seconds have been measured: a
cold pass needs empty process-wide caches, and only a fresh process
has them. Every process checks the simulated outputs (see pass.go);
the last line printed is one JSON object with the end-to-end figures
(--trace 0) or the per-layer ledger (--trace 1). Metric names, units
and directions are read from BENCHMARK.json; ledger.json records why
each workload exists and which end-to-end figure each per-layer one
should move.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("accel-kernels", "cpu-proxies", "accel-kernels-warm")
# Longest a single process may run; a run must end within 180 s.
CHILD_TIMEOUT_S = 150
# Keep starting passes only while one more fits in this budget.
RUN_BUDGET_S = 165


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_env(out):
    """Confine the Go toolchain's caches and temporary files to out."""
    env = dict(os.environ)
    for var in ("GOFLAGS", "GOENV"):
        env.pop(var, None)
    env.update(
        GOCACHE=str(out / "gocache"),
        GOTMPDIR=str(out / "tmp"),
        GOPATH=str(out / "gopath"),
        GOMODCACHE=str(out / "gopath" / "pkg" / "mod"),
        XDG_CONFIG_HOME=str(out / "config"),
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    (out / "tmp").mkdir(parents=True, exist_ok=True)
    return env


def build():
    """Build the benchmark program; return its path or None."""
    out = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not out.is_absolute():
        out = ROOT / out
    go = shutil.which("go")
    if go is None:
        log("no go toolchain on PATH")
        return None
    exe = out / "perfbench"
    try:
        proc = subprocess.run([go, "build", "-o", str(exe), "."], cwd=HERE,
                              env=build_env(out), stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, timeout=850)
    except subprocess.TimeoutExpired:
        log("build timed out")
        return None
    if proc.returncode != 0:
        log("build failed:\n" + proc.stdout)
        return None
    return exe


def spawn(exe, args):
    """Run one measuring process; return its report, or None on failure."""
    cmd = [str(exe)] + args + ["-spawn-ns", str(time.time_ns())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{' '.join(args)}: timed out")
        return None
    if proc.returncode != 0:
        log(f"{' '.join(args)}: exit {proc.returncode}\n{proc.stderr}")
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        log(f"{' '.join(args)}: unreadable output")
        return None


class Tally:
    """Cells attempted and failed across every process of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digests = set()
        self.host = None
        self.cells = 1  # a failed process counts as this many cells

    def add(self, rep):
        if rep is None:
            self.attempted += self.cells
            self.failed += self.cells
            self.failures.append("a measuring process failed")
            return False
        self.cells = max(1, rep["cells"])
        self.attempted += rep["cells"]
        self.failed += rep["cells_failed"]
        self.failures += rep.get("failures", [])
        self.digests.add(rep.get("sim_digest"))
        self.host = rep["host"]
        return True

    def correct(self):
        return self.failed == 0 and not self.failures and len(self.digests) == 1


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def pass_args(workload, seed, *extra):
    return ["-workload", workload, "-seed", str(seed)] + list(extra)


def measure(exe, workload, seed, seconds, tally):
    """End-to-end figures: medians over the run's passes."""
    args = pass_args(workload, seed)
    sweeps, cpus, retained, setups = [], [], [], []
    start = time.monotonic()
    longest = 0.0
    while True:
        t0 = time.monotonic()
        rep = spawn(exe, args)
        longest = max(longest, time.monotonic() - t0)
        if not tally.add(rep):
            break
        setups.append(rep["setup_s"])
        for p in rep["passes"]:
            sweeps.append(p["sweep_s"])
            cpus.append(p["cpu_s"])
            retained.append(p["retained_mb"])
        elapsed = time.monotonic() - start
        if elapsed >= seconds or elapsed + longest > RUN_BUDGET_S:
            break
    if not sweeps:
        return {}, {}
    metrics = {
        "sweep_s": statistics.median(sweeps),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setups),
        "retained_mb": statistics.median(retained),
    }
    samples = {"sweep_s": sweeps, "cpu_s": cpus, "setup_s": setups, "retained_mb": retained}
    return metrics, samples


def median_sweep(rep):
    return statistics.median(p["sweep_s"] for p in rep["passes"])


def ledger(exe, workload, seed, seconds, tally):
    """Per-layer figures: medians over rounds of an untraced pass, a
    traced pass (both at full width) and a serial traced ledger pass."""
    rounds = []
    start = time.monotonic()
    longest = 0.0
    while True:
        t0 = time.monotonic()
        plain = spawn(exe, pass_args(workload, seed))
        traced = spawn(exe, pass_args(workload, seed, "-obs"))
        led = spawn(exe, pass_args(workload, seed, "-mode", "ledger"))
        longest = max(longest, time.monotonic() - t0)
        ok = all([tally.add(plain), tally.add(traced), tally.add(led)])
        if not ok:
            break
        m = dict(led["metrics"])
        eff = [p["busy_ns"] / (p["sweep_s"] * 1e9 * p["width"]) for p in traced["passes"] if p.get("width")]
        m["parallel.efficiency"] = statistics.median(eff) if eff else 0.0
        m["trace.overhead_ratio"] = median_sweep(traced) / median_sweep(plain)
        rounds.append(m)
        elapsed = time.monotonic() - start
        if elapsed >= seconds or elapsed + longest > RUN_BUDGET_S:
            break
    if not rounds:
        return {}, {}
    names = sorted(rounds[0])
    return {n: statistics.median(r[n] for r in rounds) for n in names}, {"rounds": len(rounds)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0:
        ap.error("--seed must be non-negative")

    try:
        with open(ROOT / "BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        log(f"BENCHMARK.json: {e}")
        return 1
    wanted = spec["per_layer"] if a.trace else spec["end_to_end"]

    exe = build()
    if exe is None:
        return 1
    tally = Tally()
    run = ledger if a.trace else measure
    values, samples = run(exe, a.workload, a.seed, a.seconds, tally)

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            tally.failures.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    host = dict(tally.host or {}, cpu_model=cpu_model())
    print(json.dumps({
        "workload": a.workload, "trace": a.trace, "host": host,
        "sim_digest": sorted(d for d in tally.digests if d),
        "failures": tally.failures[:20], "samples": samples,
    }))
    print(json.dumps({
        "correct": tally.correct() and len(metrics) == len(wanted),
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
