"""One fresh process of the benchmark: a set-up probe or a workload pass.

    python3 child.py SPEC.json

SPEC holds "kind" ("setup" or "pass"), "result" (path of the JSON written on
exit) and, per kind:
  setup: "mode" -- import nondini.cli, build the default evaluator in that
         mode and, in c1 mode, its K Htilde table;
  pass:  "argvs" (nondini.cli.main argument lists, run in order), "trace"
         (wrap the modules in spans first), "spans" and "run_id".
nondini is imported from PYTHONPATH, which the parent points at the
checkout's src/.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import sys
import time


def _setup(spec: dict, cli) -> dict:
    cfg = dataclasses.replace(cli.DEFAULT_CONFIG, mode=spec["mode"])
    ev = cli.build_evaluator(cfg)
    if cfg.mode == "c1":
        ev.table()
    # CLOCK_MONOTONIC is system-wide: the parent subtracts its spawn time
    return {"t_done": time.monotonic()}


def _pass(spec: dict, cli) -> dict:
    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer(spec["run_id"])
        spans.install(tracer)
    calls = []
    for argv in spec["argvs"]:
        t0 = time.perf_counter()
        rc = cli.main(argv)
        calls.append({"argv": argv, "rc": rc, "s": time.perf_counter() - t0})
    out = {"calls": calls}
    if tracer is not None:
        out["layers"], out["tail_pct"] = spans.layer_metrics(tracer)
        tracer.write(spec["spans"])
    return out


def main() -> None:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    import nondini
    import nondini.cli as cli

    out = _setup(spec, cli) if spec["kind"] == "setup" else _pass(spec, cli)
    ru = resource.getrusage(resource.RUSAGE_SELF)
    out.update({
        "nondini_file": nondini.__file__,
        "maxrss_kb": ru.ru_maxrss,
        "cpu_s": ru.ru_utime + ru.ru_stime,
    })
    with open(spec["result"], "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
