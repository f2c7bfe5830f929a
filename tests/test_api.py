"""The public surface: every exported name resolves, and the removed
aliases, duplicate rules and unused settings stay removed."""

import dataclasses
import importlib
import inspect

import pytest

import nondini

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
)


def test_all_names_resolve():
    for name in nondini.__all__:
        assert getattr(nondini, name) is not None, name


@pytest.mark.parametrize("module", ("__init__",) + MODULES)
def test_removed_names_stay_removed(module):
    mod = nondini if module == "__init__" else importlib.import_module(
        "nondini." + module)
    present = [name for name in REMOVED if hasattr(mod, name)]
    assert not present
    assert not set(REMOVED) & set(getattr(mod, "__all__", ()))


def test_removed_settings_stay_removed():
    from nondini.cli import RunConfig
    from nondini.conformal import BoundaryTrace, PathSpec, _segment_integral
    from nondini.halfplane import HarmonicEvaluator, poisson_of_kf_oracle
    from nondini.hilbert import HilbertEvaluator, KHtildeTable
    from nondini.measure import _nearest_on_segments
    from nondini.modulus import SmoothedModulus, classify_dini
    from nondini.profile import TangentProfile, build_profile
    from nondini.quadrature import (
        gauss_graded,
        integrate_power_endpoint,
        quad_complex,
        quad_scalar,
    )

    def fields(cls):
        return {f.name for f in dataclasses.fields(cls)}

    def params(fn):
        return set(inspect.signature(fn).parameters)

    assert "tail_tol" not in fields(RunConfig) | fields(TangentProfile)
    assert "tail_tol" not in params(build_profile)
    assert "level" not in fields(BoundaryTrace)
    # a path reaches a jump along the boundary, not by a per-segment rule
    assert "rules" not in fields(PathSpec)
    assert not hasattr(PathSpec, "segments")
    assert "rule" not in params(_segment_integral)
    assert "use_cache" not in fields(HarmonicEvaluator)
    assert "use_table" not in (params(HilbertEvaluator.kf_vec)
                               | params(HilbertEvaluator.k_htilde_vec))
    assert "points" not in params(quad_scalar)
    assert not {"tol", "n"} & params(integrate_power_endpoint)
    # settings no caller changed are constants now
    assert params(KHtildeTable.build) == {"ev"}
    assert "limit" not in params(quad_complex) | params(quad_scalar)
    assert "n" not in params(gauss_graded)
    assert params(classify_dini) == {"spec"}
    assert "n" not in params(SmoothedModulus.derivative_sup)
    assert "half_width" not in params(poisson_of_kf_oracle)
    assert "chunk" not in params(_nearest_on_segments)
    assert not hasattr(HarmonicEvaluator, "boundary_arg")
