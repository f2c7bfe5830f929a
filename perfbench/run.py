#!/usr/bin/env python3
"""nondini benchmark: the real CLI subcommands on the default config.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the benchmark imports src/nondini).
Load is a closed loop with one client: every child process runs alone, one
thread, with the BLAS/OpenMP pools pinned to 1.  From the seed the benchmark
derives the only inputs the program sees: the CLI `--seed` and the control
center of the `density` runs.

--trace 0 (end-to-end metrics):
  * three set-up probes, each a fresh process that imports nondini.cli and
    builds the default evaluator (with its K Htilde table in c1 mode);
    setup_s is the median time from process start to that point;
  * workload passes, each a fresh process calling nondini.cli.main(argv) for
    the workload's argument lists; at least one pass, and another only while
    it is expected to end within --seconds.  run_s and peak_rss_mb are the
    medians over passes.
--trace 1 (per-layer metrics): one untraced pass, then one pass with every
  public function of the nondini modules wrapped in spans (see spans.py).
  The traced pass must write byte-identical artifacts.

Every pass is checked from the CLI's own verdicts (exit status, `passed`
rows of report.json) and from the artifacts (see `verdicts`); a failed check
is never retried.  The last stdout line is the result JSON; a record of the
machine and of each pass (load average, CPU share, steal time, contention
flag) goes to stderr and to .perfbench-out/<run>/record.json.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

WORKLOADS = ("c1-density", "c1-verify", "lipschitz-wos")
SETUP_PROBES = 3
DEADLINE_S = 170.0
THREAD_PIN = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
# default density radii 2^-6 .. 2^-14 at three centers
DENSITY_ROWS = 27
VERIFY_CHECKS = 19
MC_ARCS = 4
CONTROL_TOL = 1e-3
MAX_LOST_FRAC = 1e-3
# one busy benchmark process explains a load of 1; allow some slack
LOAD_EXPLAINED = 1.25


def workload(name: str, seed: int):
    """(evaluator mode, CLI argument lists) for one workload and seed."""
    ctrl = "%.6f" % random.Random(seed).uniform(0.6, 0.9)
    centers = "0.5,0.25," + ctrl
    if name == "c1-density":
        return "c1", [["density", "--centers", centers]]
    if name == "c1-verify":
        return "c1", [["--seed", str(seed), "verify", "--suite", "all"]]
    return "lipschitz", [
        ["--mode", "lipschitz", "--seed", str(seed), "mc-oracle"],
        ["--mode", "lipschitz", "density", "--centers", centers]]


# -- machine and contention record ----------------------------------------------


def _cpu_ticks():
    """(total, steal) jiffies summed over all CPUs."""
    with open("/proc/stat") as fh:
        fields = [int(v) for v in fh.readline().split()[1:]]
    return sum(fields[:8]), fields[7] if len(fields) > 7 else 0


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "thread_pin": THREAD_PIN}


class Probe:
    """Load, steal time and CPU share around one child process."""

    def __init__(self):
        self.load_before = os.getloadavg()[0]
        self.ticks_before = _cpu_ticks()
        self.t0 = time.monotonic()

    def finish(self, cpu_s: float) -> dict:
        wall = time.monotonic() - self.t0
        load_after = os.getloadavg()[0]
        total, steal = (a - b for a, b in zip(_cpu_ticks(), self.ticks_before))
        steal_frac = steal / total if total else 0.0
        cpu_share = cpu_s / wall if wall > 0 else 0.0
        return {"wall_s": wall, "cpu_share": cpu_share,
                "load1_before": self.load_before, "load1_after": load_after,
                "steal_frac": steal_frac,
                "contended": (max(self.load_before, load_after) > LOAD_EXPLAINED
                              or (wall > 5.0 and cpu_share < 0.9)
                              or steal_frac > 0.05)}


# -- children -------------------------------------------------------------------


def run_child(spec: dict, workdir: Path, tag: str, deadline: float, cwd=None):
    """Run child.py on `spec` in `cwd` (default `workdir`).

    Returns (result or None, record, spawn time).
    """
    spec = dict(spec, result=str(workdir / f"{tag}.result.json"))
    spec_path = workdir / f"{tag}.spec.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0", **THREAD_PIN)
    probe = Probe()
    t_spawn = time.monotonic()
    with open(workdir / f"{tag}.log", "w") as log:
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(spec_path)],
                                cwd=cwd or workdir, env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            rc = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    result = None
    if rc == 0:
        result = json.loads(Path(spec["result"]).read_text())
        if not Path(result["nondini_file"]).resolve().is_relative_to(SRC):
            raise SystemExit(f"nondini imported from {result['nondini_file']}, not {SRC}")
    record = probe.finish(result["cpu_s"] if result else 0.0)
    record.update(tag=tag, child_rc=rc)
    return result, record, t_spawn


# -- correctness ----------------------------------------------------------------


def _passed_rows(node, where=""):
    """(name, passed) for every dict with a `passed` key inside a list."""
    if isinstance(node, dict):
        for key, val in node.items():
            yield from _passed_rows(val, f"{where}/{key}")
    elif isinstance(node, list):
        for i, row in enumerate(node):
            if isinstance(row, dict) and "passed" in row:
                label = row.get("check") or row.get("arc") or i
                yield f"{where}[{label}]", row["passed"] is True
            yield from _passed_rows(row, f"{where}[{i}]")


def _density_checks(out: Path, report: dict):
    with open(out / "density.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    yield "density/row-count", len(rows) == DENSITY_ROWS
    curves: dict[float, list[float]] = {}
    for i, row in enumerate(rows):
        vals = [float(row[k]) for k in ("center_x", "r", "omega", "length", "ratio")]
        yield f"density/row-{i}-finite-positive", all(
            math.isfinite(v) and v > 0.0 for v in vals)
        curves.setdefault(vals[0], []).append(vals[4])
    for c in report["centers"]:
        if c["density_singular"]:
            tail = curves.get(c["x"], [])[-5:]
            yield f"density/decreasing-at-{c['x']}", len(tail) == 5 and all(
                b < a for a, b in zip(tail, tail[1:]))
        else:
            yield f"density/control-at-{c['x']}", abs(
                c["final_ratio"] - c["density"]) <= CONTROL_TOL


def verdicts(argv, rc, out: Path):
    """(check, passed) pairs for one CLI call, from its exit status and artifacts."""
    yield "exit-status", rc == 0
    try:
        report = json.loads((out / "report.json").read_text())
        yield from _passed_rows(report)
        if "verify" in argv:
            yield "verify/check-count", len(report["checks"]) == VERIFY_CHECKS
        elif "mc-oracle" in argv:
            yield "mc/arc-count", len(report["arcs"]) == MC_ARCS
            yield "mc/lost-walkers", report["n_lost"] <= MAX_LOST_FRAC * report["n_walkers"]
        elif "density" in argv:
            yield from _density_checks(out, report)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        yield f"artifacts-readable ({type(exc).__name__}: {exc})", False


def run_pass(argvs, workdir: Path, tag: str, deadline: float, trace: bool,
             checks: list):
    """One workload pass in a fresh process; appends its verdicts to `checks`.

    The process runs in its own directory with relative --out paths, so the
    config echoed into report.json is the same for every pass.
    """
    cwd = workdir / tag
    cwd.mkdir()
    steps = [f"step{i}" for i in range(len(argvs))]
    outs = [cwd / s for s in steps]
    spec = {"kind": "pass", "trace": trace, "run_id": f"{workdir.name}/{tag}",
            "spans": str(workdir / f"{tag}.spans.npz"),
            "argvs": [["--out", s] + a for s, a in zip(steps, argvs)]}
    result, record, _ = run_child(spec, workdir, tag, deadline, cwd)
    if result is None:
        checks.append((f"{tag}/child-finished", False))
        return None, record, outs
    for call, out in zip(result["calls"], outs):
        checks.extend((f"{tag}/{out.name}/{name}", ok)
                      for name, ok in verdicts(call["argv"], call["rc"], out))
    record["run_s"] = sum(c["s"] for c in result["calls"])
    return result, record, outs


def _same_artifacts(a: Path, b: Path) -> bool:
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    return files_a == files_b and all(
        (a / f).read_bytes() == (b / f).read_bytes() for f in files_a)


def _bytes_written(outs) -> int:
    return sum(p.stat().st_size for o in outs for p in o.rglob("*") if p.is_file())


# -- runs -----------------------------------------------------------------------


def end_to_end(mode, argvs, workdir, seconds, deadline, checks, records):
    setup = []
    for i in range(SETUP_PROBES):
        result, record, t_spawn = run_child({"kind": "setup", "mode": mode},
                                            workdir, f"setup{i}", deadline)
        records.append(record)
        checks.append((f"setup{i}/finished", result is not None))
        if result is not None:
            setup.append(result["t_done"] - t_spawn)
    runs, rss = [], []
    while True:
        result, record, _ = run_pass(argvs, workdir, f"pass{len(runs)}",
                                     deadline, False, checks)
        records.append(record)
        if result is None:
            break
        runs.append(record["run_s"])
        rss.append(result["maxrss_kb"] / 1024.0)
        next_s = statistics.median(runs)
        if (sum(runs) + next_s > seconds
                or time.monotonic() + 1.5 * next_s > deadline):
            break
    if not setup or not runs:
        return {}
    return {"setup_s": statistics.median(setup), "run_s": statistics.median(runs),
            "peak_rss_mb": statistics.median(rss)}


def per_layer(argvs, workdir, deadline, checks, records):
    plain, rec_plain, outs_plain = run_pass(argvs, workdir, "untraced", deadline,
                                            False, checks)
    records.append(rec_plain)
    traced, rec_traced, outs_traced = run_pass(argvs, workdir, "traced", deadline,
                                               True, checks)
    records.append(rec_traced)
    if plain is None or traced is None:
        return {}
    for a, b in zip(outs_plain, outs_traced):
        checks.append((f"traced/{b.name}/artifacts-identical", _same_artifacts(a, b)))
    rec_traced["tail_pct"] = traced["tail_pct"]
    layers = traced["layers"]
    layers["cli.bytes_written"] = _bytes_written(outs_traced)
    layers["trace_overhead_frac"] = rec_traced["run_s"] / rec_plain["run_s"] - 1.0
    return layers


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "nondini" / "cli.py").is_file():
        print(f"error: no nondini sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        wanted = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    # a terminated run still stops and reaps its child (see run_child)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    deadline = time.monotonic() + DEADLINE_S
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    mode, argvs = workload(args.workload, args.seed)
    checks: list = []
    records: list = []
    if args.trace:
        metrics = per_layer(argvs, workdir, deadline, checks, records)
    else:
        metrics = end_to_end(mode, argvs, workdir, args.seconds, deadline,
                             checks, records)

    failed = [name for name, ok in checks if not ok]
    record = {"workload": args.workload, "seed": args.seed, "argvs": argvs,
              "machine": machine(), "runs": records,
              "contended": any(r["contended"] for r in records),
              "failed_checks": failed}
    (workdir / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record), file=sys.stderr)
    print(json.dumps({
        "correct": not failed and bool(metrics),
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted} if metrics else {},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
