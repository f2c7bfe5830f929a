"""Span tracing for the traced benchmark pass.

`install` wraps the public functions and methods of the nondini modules (plus
the boundary-quadrature entry point `conformal._integrate_split`).  A function
imported by name into another module is replaced in every module namespace
that binds it, so `from .quadrature import gauss_cells` call sites are traced
too.  Each call records one span: name, start, end and parent, kept in flat
arrays and written out once at the end together with the run id.

A few per-call counters are taken from arguments and results (points handed to
`kf_vec`, table fallbacks, distinct `k_htilde` arguments, Gauss nodes, walker
outcomes).  Everything else is derived from the span tree in `layer_metrics`.
Wrappers never change arguments or results, except that the integrand handed
to `quad_complex` is wrapped in a call counter.
"""

from __future__ import annotations

import enum
import functools
import inspect
import math
import sys
import time
from array import array

import numpy as np

MODULES = ("modulus", "profile", "hilbert", "halfplane", "conformal",
           "quadrature", "measure", "cli")
# private functions traced in addition to the public ones
EXTRA = {"conformal": ("_integrate_split",)}


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = {
            "profile.f_vec.points": 0,
            "hilbert.kf_vec.points": 0,
            "hilbert.table_fallbacks": 0,
            "quadrature.gauss_cells.nodes": 0,
            "quadrature.quad_complex.integrand_evals": 0,
            "conformal.trace.samples": 0,
            "measure.wos.walkers": 0,
            "measure.wos.absorbed": 0,
            "measure.wos.far": 0,
            "measure.wos.lost": 0,
        }
        self._k_htilde_args: set = set()
        self._hooks = {
            "profile.TangentProfile.f_vec": self._points("profile.f_vec.points"),
            "hilbert.HilbertEvaluator.kf_vec": self._points("hilbert.kf_vec.points"),
            "hilbert.HilbertEvaluator.k_htilde": self._k_htilde,
            "hilbert.KHtildeTable.eval_vec": self._eval_vec,
            "quadrature.gauss_cells": self._gauss_cells,
            "conformal.trace_boundary": self._trace_boundary,
            "measure.wos_harmonic_measure": self._wos,
        }

    # -- per-call counters, from arguments and results ------------------------

    def _points(self, key):
        def hook(args, kwargs, result):
            self.counts[key] += np.asarray(_arg(args, kwargs, 1, "xs")).size
        return hook

    def _k_htilde(self, args, kwargs, result):
        # the evaluator memoizes per instance, so distinct (instance, x) pairs
        # are exactly the direct region-formula evaluations
        self._k_htilde_args.add((id(args[0]), float(_arg(args, kwargs, 1, "x"))))

    def _eval_vec(self, args, kwargs, result):
        # mirrors KHtildeTable.eval_vec: nonzero inputs outside
        # [2^v_lo, 2^v_hi] go to the direct formulas one by one
        table = args[0]
        u = np.asarray(_arg(args, kwargs, 1, "u"), dtype=float).ravel()
        au = np.abs(u)
        inside = (au >= 2.0 ** table.v_lo) & (au <= 2.0 ** table.v_hi)
        self.counts["hilbert.table_fallbacks"] += int(
            np.count_nonzero((u != 0.0) & ~inside))

    def _gauss_cells(self, args, kwargs, result):
        edges = np.asarray(_arg(args, kwargs, 1, "edges"))
        if edges.size >= 2:
            self.counts["quadrature.gauss_cells.nodes"] += (
                (edges.size - 1) * int(_arg(args, kwargs, 2, "n", 15)))

    def _trace_boundary(self, args, kwargs, result):
        self.counts["conformal.trace.samples"] += len(result.x)

    def _wos(self, args, kwargs, result):
        self.counts["measure.wos.walkers"] += result.n_walkers
        self.counts["measure.wos.absorbed"] += result.n_absorbed
        self.counts["measure.wos.far"] += result.n_far
        self.counts["measure.wos.lost"] += result.n_lost

    def _count_integrand(self, args, kwargs):
        fn = _arg(args, kwargs, 0, "fn")
        counts = self.counts

        def counted(s):
            counts["quadrature.quad_complex.integrand_evals"] += 1
            return fn(s)

        if args:
            return (counted,) + tuple(args[1:]), kwargs
        return args, dict(kwargs, fn=counted)

    # -- wrapping -------------------------------------------------------------

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        hook = self._hooks.get(name)
        pre = self._count_integrand if name == "quadrature.quad_complex" else None
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                args, kwargs = pre(args, kwargs)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def write(self, path) -> None:
        """One row per span; `run` indexes `run_ids` (one run per file)."""
        np.savez(path, names=np.array(self.names), run_ids=np.array([self.run_id]),
                 name_id=np.frombuffer(self.name_id, dtype=np.intc),
                 parent=np.frombuffer(self.parent, dtype=np.intc),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 run=np.zeros(len(self.start), dtype=np.intc))


def _targets(short: str, mod):
    """(span name, owner, attribute, function, wrapper kind) for one module."""
    extra = EXTRA.get(short, ())
    for attr, obj in list(vars(mod).items()):
        if attr.startswith("_") and attr not in extra:
            continue
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
            yield f"{short}.{attr}", mod, attr, obj, None
        elif inspect.isclass(obj) and not issubclass(obj, enum.Enum):
            for mname, member in list(vars(obj).items()):
                if mname.startswith("_"):
                    continue
                kind = type(member) if isinstance(member, (classmethod, staticmethod)) else None
                func = member.__func__ if kind else member
                if inspect.isfunction(func) and not inspect.isgeneratorfunction(func):
                    yield f"{short}.{attr}.{mname}", obj, mname, func, kind


def install(tracer: Tracer) -> None:
    """Wrap every target where it is bound."""
    import nondini.cli  # noqa: F401  (imports every module below)

    namespaces = [m for n, m in sys.modules.items()
                  if n == "nondini" or n.startswith("nondini.")]
    for short in MODULES:
        mod = sys.modules[f"nondini.{short}"]
        for name, owner, attr, func, kind in list(_targets(short, mod)):
            wrapped = tracer.wrap(name, func)
            if inspect.isclass(owner):
                setattr(owner, attr, kind(wrapped) if kind else wrapped)
            else:
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is func:
                            setattr(ns, key, wrapped)


# -- per-layer metrics ---------------------------------------------------------


def _timing(prefix: str, durations_s: np.ndarray, m: dict, tail_pct: dict) -> None:
    """Median, and the highest whole percentile (at least the 50th) with >= 10
    samples beyond it; that percentile goes to `tail_pct`."""
    n = durations_s.size
    if n == 0:
        m[f"{prefix}.ms_p50"] = m[f"{prefix}.ms_tail"] = 0.0
        return
    pct = float(max(50, math.floor(100.0 * (n - 10) / n)))
    ms = durations_s * 1e3
    m[f"{prefix}.ms_p50"] = float(np.percentile(ms, 50))
    m[f"{prefix}.ms_tail"] = float(np.percentile(ms, pct))
    tail_pct[f"{prefix}.ms_tail"] = pct


def layer_metrics(tracer: Tracer):
    """(per-layer metrics, percentile of each `.ms_tail` metric)."""
    names = tracer.names
    nid = np.frombuffer(tracer.name_id, dtype=np.intc)
    parent = np.frombuffer(tracer.parent, dtype=np.intc)
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    has_parent = parent >= 0
    child_s = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=dur.size)
    self_s = dur - child_s
    span_module = np.array([n.split(".")[0] for n in names])[nid]
    ids = {n: i for i, n in enumerate(names)}
    parent_list = parent.tolist()
    nid_list = nid.tolist()

    def spans(name):
        return np.flatnonzero(nid == ids[name]) if name in ids else np.array([], int)

    def has_ancestor(i, target_ids):
        j = parent_list[i]
        while j >= 0:
            if nid_list[j] in target_ids:
                return True
            j = parent_list[j]
        return False

    def inclusive_s(name):
        """Time inside `name`, counting nested calls of `name` once."""
        own = {ids.get(name)}
        return float(sum(dur[i] for i in spans(name) if not has_ancestor(i, own)))

    def calls(name):
        return int(spans(name).size)

    m, tail_pct = {}, {}
    for short in MODULES:
        m[f"{short}.self_s"] = float(self_s[span_module == short].sum())
    m["modulus.calls"] = int(np.count_nonzero(span_module == "modulus"))

    c = tracer.counts
    m["profile.f_vec.points"] = c["profile.f_vec.points"]

    m["hilbert.table_build_s"] = inclusive_s("hilbert.KHtildeTable.build")
    m["hilbert.k_htilde.calls"] = calls("hilbert.HilbertEvaluator.k_htilde")
    m["hilbert.k_htilde.distinct"] = len(tracer._k_htilde_args)
    m["hilbert.table_fallbacks"] = c["hilbert.table_fallbacks"]
    # the first kf_vec call builds the table lazily; that build is not lookup
    in_kf = {ids.get("hilbert.HilbertEvaluator.kf_vec")}
    kf_s = inclusive_s("hilbert.HilbertEvaluator.kf_vec") - sum(
        dur[i] for i in spans("hilbert.KHtildeTable.build").tolist()
        if has_ancestor(i, in_kf))
    m["hilbert.kf_vec.points"] = c["hilbert.kf_vec.points"]
    m["hilbert.kf_vec.us_per_point"] = (
        kf_s / c["hilbert.kf_vec.points"] * 1e6 if c["hilbert.kf_vec.points"] else 0.0)
    m["hilbert.pv_oracle_s"] = inclusive_s("hilbert.pv_quadrature_oracle")

    herglotz = spans("halfplane.HarmonicEvaluator.herglotz")
    transform = spans("halfplane.herglotz_transform")
    computed = set(parent[transform].tolist())
    m["halfplane.herglotz.calls"] = int(herglotz.size)
    m["halfplane.herglotz.cache_hit_ratio"] = (
        sum(1 for i in herglotz.tolist() if i not in computed) / herglotz.size
        if herglotz.size else 0.0)
    m["halfplane.herglotz_transform.calls"] = int(transform.size)
    _timing("halfplane.herglotz_transform", dur[transform], m, tail_pct)
    m["halfplane.herglotz_transform_s"] = inclusive_s("halfplane.herglotz_transform")
    m["halfplane.G.calls"] = calls("halfplane.HarmonicEvaluator.G")

    m["conformal.trace_boundary_s"] = inclusive_s("conformal.trace_boundary")
    m["conformal.trace.samples"] = c["conformal.trace.samples"]
    m["conformal.integrate_phi.calls"] = calls("conformal.integrate_phi")
    m["conformal.integrate_phi_s"] = inclusive_s("conformal.integrate_phi")

    m["quadrature.gauss_cells.calls"] = calls("quadrature.gauss_cells")
    m["quadrature.gauss_cells.nodes"] = c["quadrature.gauss_cells.nodes"]
    m["quadrature.integrate_power_endpoint.calls"] = calls(
        "quadrature.integrate_power_endpoint")
    m["quadrature.quad_complex.calls"] = calls("quadrature.quad_complex")
    m["quadrature.quad_complex.integrand_evals"] = c[
        "quadrature.quad_complex.integrand_evals"]

    ratio = spans("measure.measure_ratio")
    in_ratio = {ids.get("measure.measure_ratio")}
    quads = sum(1 for i in spans("conformal._integrate_split").tolist()
                if has_ancestor(i, in_ratio))
    m["measure.measure_ratio.calls"] = int(ratio.size)
    _timing("measure.measure_ratio", dur[ratio], m, tail_pct)
    m["measure.measure_ratio.boundary_quads_per_call"] = (
        quads / ratio.size if ratio.size else 0.0)

    wos_s = inclusive_s("measure.wos_harmonic_measure")
    walkers = c["measure.wos.walkers"]
    m["measure.wos_s"] = wos_s
    m["measure.wos.us_per_walker"] = wos_s / walkers * 1e6 if walkers else 0.0
    m["measure.wos.absorbed_frac"] = c["measure.wos.absorbed"] / walkers if walkers else 0.0
    m["measure.wos.far_frac"] = c["measure.wos.far"] / walkers if walkers else 0.0
    m["measure.wos.lost"] = c["measure.wos.lost"]
    return m, tail_pct
