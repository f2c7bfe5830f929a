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
    from nondini.conformal import BoundaryTrace
    from nondini.halfplane import HarmonicEvaluator
    from nondini.hilbert import HilbertEvaluator
    from nondini.profile import TangentProfile, build_profile
    from nondini.quadrature import integrate_power_endpoint, quad_scalar

    def fields(cls):
        return {f.name for f in dataclasses.fields(cls)}

    def params(fn):
        return set(inspect.signature(fn).parameters)

    assert "tail_tol" not in fields(RunConfig) | fields(TangentProfile)
    assert "tail_tol" not in params(build_profile)
    assert "level" not in fields(BoundaryTrace)
    assert "use_cache" not in fields(HarmonicEvaluator)
    assert "use_table" not in (params(HilbertEvaluator.kf_vec)
                               | params(HilbertEvaluator.k_htilde_vec))
    assert "points" not in params(quad_scalar)
    assert not {"tol", "n"} & params(integrate_power_endpoint)
