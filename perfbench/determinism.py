#!/usr/bin/env python3
"""Determinism check of the benchmark on the current tree.

    python3 perfbench/determinism.py

Per workload: two traced runs with seed 1 must both be correct (which
includes byte-identical artifacts between the traced and untraced pass) and
must repeat every count metric exactly; one untraced run with seed 2 must
report no failed check.  layers.json must describe exactly the metrics of
BENCHMARK.json.  Prints one JSON summary line, with the per-layer metrics of
the first traced run, and exits nonzero on any failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402

COUNT_UNITS = ("count",)
SEED_A, SEED_B = 1, 2


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=HERE.parent, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    described = json.loads((HERE / "layers.json").read_text())
    names_match = all(
        {m["name"] for m in declared[sec]} == set(described[sec])
        for sec in ("end_to_end", "per_layer"))
    summary, ok = {}, names_match
    for w in WORKLOADS:
        first, second = bench(w, SEED_A, 1), bench(w, SEED_A, 1)
        other = bench(w, SEED_B, 0)
        counts = {k: v["value"] for k, v in first["metrics"].items()
                  if v["unit"] in COUNT_UNITS}
        differ = sorted(k for k, v in counts.items()
                        if second["metrics"][k]["value"] != v)
        row = {"traced_correct": [first["correct"], second["correct"]],
               "counts_compared": len(counts), "counts_differ": differ,
               f"seed{SEED_B}_failed": other["failed"],
               f"seed{SEED_B}_attempted": other["attempted"]}
        row["layers"] = {k: v["value"] for k, v in first["metrics"].items()}
        row["ok"] = (first["correct"] and second["correct"] and not differ
                     and other["correct"] and other["failed"] == 0)
        ok = ok and row["ok"]
        summary[w] = row
        print(w, json.dumps(row), file=sys.stderr)
    print(json.dumps({"ok": ok, "layers_json_names_match": names_match,
                      "workloads": summary}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
