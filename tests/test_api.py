"""The public surface: every exported name resolves, and the removed
aliases, duplicate rules and unused settings stay removed."""

import dataclasses
import importlib
import inspect
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import nondini
import oracles

MODULES = ("modulus", "profile", "hilbert", "halfplane", "conformal",
           "quadrature", "measure", "cli")

REMOVED = (
    # one-line aliases of methods
    "K_Htilde", "K_profile", "eval_theta", "smooth_modulus",
    "smoothed_derivative", "eval_profile", "eval_Htilde", "eval_G",
    "extend_V", "extend_W",
    # duplicates of the quadrature layer and of BoundaryTrace.flat
    "gauss_graded_edges", "_cells_batch", "_product_plan", "_halve_cells",
    "_merge_edges", "_flat_trace",
    # second forms of -inf, of interior points and of the evaluator argument
    "NEG_INF", "is_neg_inf", "_NegInfinity", "UpperHalfPoint", "_as_harm_opt",
    # test-only oracles, now in tests/oracles.py
    "poisson_of_kf_oracle", "_ORACLE_HALF_WIDTH", "pv_log_integral",
    "value_by_quadrature", "derivative_by_quadrature",
    # hand-written copies of the run config, now read off its dataclasses
    "_SCHEMA", "_check_keys", "config_to_doc",
    # the per-point A(z) and its (x, t) cache: g_exponent_vec is the only
    # interior evaluator, and the per-point rule is a test oracle
    "herglotz_transform", "herglotz",
    # scipy's quadrature, whose last library caller was the tabulated theta_tilde
    "quad_scalar",
    # the per-point K Htilde region formulas: the batched direct path is the
    # only one, and the per-point form is a test oracle
    "_pi_k_htilde", "_int_rise", "_int_rise_pv", "_int_bridge", "_int_bridge_pv",
    # one-point aliases of the batch calls k_htilde_direct and g_exponent_vec
    "k_htilde", "g_exponent",
    # the second boundary G and the trace's own singular planner: boundary G
    # is conformal._boundary_g
    "boundary_G", "_singular_exponent",
    # the second adaptive rule: interior segments run through gauss_graded
    "quad_complex",
    # the planner, the per-piece rule and their per-caller plumbing:
    # quadrature.split_integrals plans, flattens and batches inside, and the
    # per-piece forms are test oracles
    "split_plan", "integrate_power_endpoint", "gauss_cells", "_integrate_split",
    "_split_singular", "_regular_ends",
    # a second mode check in front of the table's lookup, and a search alias
    # that only tests called: kf_vec sums table().eval_vec, and the tests
    # call _nearest_in_blocks with _block_circles
    "k_htilde_vec", "_nearest_on_segments",
    # the trace-based surface balls: a ball is solved from its centre, and
    # the crossings of a scan advance in one batch
    "_phi_on_boundary", "_phi_from", "_ball_preimage", "_newton_crossing",
)


def test_all_names_resolve():
    for name in nondini.__all__:
        assert getattr(nondini, name) is not None, name


@pytest.mark.parametrize("module", ("__init__",) + MODULES)
def test_removed_names_stay_removed(module):
    mod = nondini if module == "__init__" else importlib.import_module(
        "nondini." + module)
    # module attributes, and the attributes of the module's own classes
    owners = [mod] + [obj for obj in vars(mod).values() if inspect.isclass(obj)
                      and obj.__module__ == mod.__name__]
    present = [name for name in REMOVED for owner in owners if hasattr(owner, name)]
    assert not present
    assert not set(REMOVED) & set(getattr(mod, "__all__", ()))


def test_removed_settings_stay_removed():
    from nondini.cli import RunConfig
    from nondini.conformal import (
        BoundaryTrace,
        PathSpec,
        _segment_integral,
        growth_check,
        integrate_phi,
        trace_boundary,
    )
    from nondini.halfplane import HarmonicEvaluator
    from nondini.hilbert import HilbertEvaluator, KHtildeTable, pv_quadrature_oracle
    from nondini.measure import _nearest_in_blocks, measure_ratio, singular_set_scan
    from nondini.modulus import SmoothedModulus, classify_dini
    from nondini.profile import TangentProfile, build_profile
    from nondini.quadrature import gauss_graded, split_integrals

    def fields(cls):
        return {f.name for f in dataclasses.fields(cls)}

    def params(fn):
        return set(inspect.signature(fn).parameters)

    assert "tail_tol" not in fields(RunConfig) | fields(TangentProfile)
    # the theta and trace keys live in their sections, not flat in RunConfig
    assert not {"theta_kind", "theta_c", "theta_gamma",
                "x_lo", "x_hi", "base_n"} & fields(RunConfig)
    assert "tail_tol" not in params(build_profile)
    assert "level" not in fields(BoundaryTrace)
    # a path reaches a jump along the boundary, not by a per-segment rule
    assert "rules" not in fields(PathSpec)
    assert not hasattr(PathSpec, "segments")
    assert "rule" not in params(_segment_integral)
    # interior paths of Phi have one tolerance, conformal.PHI_TOL, and no knob
    assert "quad_tol" not in fields(RunConfig)
    assert not any("tol" in params(fn) for fn in (
        integrate_phi, trace_boundary, growth_check, _segment_integral))
    assert "use_cache" not in fields(HarmonicEvaluator)
    assert "use_table" not in params(HilbertEvaluator.kf_vec)
    assert "points" not in params(oracles.quad_scalar)
    assert not {"tol", "n"} & params(split_integrals)
    # the evaluators' tolerances are the constants hilbert.REGION_TOL and
    # halfplane.HERGLOTZ_TOL
    assert "quad_tol" not in fields(HilbertEvaluator) | fields(HarmonicEvaluator)
    # settings no caller changed are constants now
    assert params(KHtildeTable.build) == {"ev"}
    # the table is one stacked lookup that never calls back into the evaluator
    assert not hasattr(KHtildeTable, "_eval_branch")
    assert not hasattr(KHtildeTable([], np.zeros((0, KHtildeTable.DEG + 1)), 0.0), "ev")
    assert "limit" not in params(oracles.quad_scalar)
    assert "n" not in params(gauss_graded)
    assert params(classify_dini) == {"spec"}
    # the tabulated theta_tilde is a closed form, with no tolerance to set
    assert "quad_tol" not in fields(SmoothedModulus)
    assert "n" not in params(SmoothedModulus.derivative_sup)
    assert "half_width" not in params(oracles.poisson_of_kf_oracle)
    assert not hasattr(SmoothedModulus, "value_by_quadrature")
    assert not hasattr(SmoothedModulus, "derivative_by_quadrature")
    assert list(inspect.signature(_nearest_in_blocks).parameters) == [
        "z", "seg_s", "seg_e", "centres", "radii"]
    assert not hasattr(HarmonicEvaluator, "boundary_arg")
    assert not hasattr(HarmonicEvaluator, "herglotz")
    assert "_cache" not in fields(HarmonicEvaluator)
    # the PV oracle folds its window: no excision radii, no extrapolation
    assert params(pv_quadrature_oracle) == {"p", "x"}
    # a surface ball needs its centre, not a trace or a precomputed image
    assert list(inspect.signature(measure_ratio).parameters) == ["ev", "x_center", "r"]
    assert list(inspect.signature(singular_set_scan).parameters) == [
        "ev", "centers", "r_list", "threshold", "control_tol"]


def test_import_loads_no_scipy():
    # nothing in the library imports scipy; the tests' oracles do
    src = str(pathlib.Path(nondini.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import nondini, nondini.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


def test_run_time_needs_no_scipy():
    # with every scipy import refused, the CLI imports and the tabulated kind,
    # the one kind that used to need scipy, still evaluates
    src = str(pathlib.Path(nondini.__file__).parents[1])
    code = f"""
import sys
sys.path.insert(0, {src!r})


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError("scipy refused: " + name)


sys.meta_path.insert(0, RefuseScipy())
import numpy as np
import nondini, nondini.cli
from nondini.modulus import ModulusSpec, SmoothedModulus, classify_dini
rs = np.geomspace(1e-9, 0.9, 100)
spec = ModulusSpec("tabulated", grid=tuple(zip(rs, np.log(2.0) / -np.log(rs))))
sm = SmoothedModulus(spec)
r = np.geomspace(1e-6, 0.1, 20)
assert np.all(np.isfinite(sm.value_vec(r))) and np.all(sm.derivative_vec(r) > 0.0)
print(sm.selected(0.5).x0, classify_dini(spec).value)
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["0.015625", "inconclusive"]


def test_pyproject_needs_only_numpy():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    root = pathlib.Path(__file__).parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == ["numpy>=1.24"]
    assert any(d.startswith("scipy") for d in project["optional-dependencies"]["test"])
