"""The shared quadrature layer: Gauss-cell rule, certified graded rule,
flattened endpoint rule, and the singular-split planner."""

import re

import numpy as np
import pytest

from nondini.quadrature import (
    QuadratureError,
    gauss_cell_values,
    gauss_cells,
    gauss_graded,
    graded_edges,
    integrate_power_endpoint,
    merge_edges,
    split_plan,
)


# -- Gauss-cell rule ---------------------------------------------------------


@pytest.mark.parametrize("n", [7, 15, 23])
def test_gauss_cells_is_sum_of_cell_values(n):
    rng = np.random.default_rng(n)
    edges = np.sort(rng.uniform(-3.0, 2.0, 12))
    fn = lambda y: np.exp(np.sin(3.0 * y)) / (1.0 + y * y)
    per_cell = gauss_cell_values(fn, edges[:-1], edges[1:], n)
    assert per_cell.shape == (11,)
    assert gauss_cells(fn, edges, n) == per_cell.sum()


def test_gauss_cells_degenerate_edges():
    assert gauss_cells(np.exp, [0.5]) == 0.0


def test_merge_edges_sorted_union():
    out = merge_edges([0.0, 1.0], np.array([0.5, 1.0]), [])
    assert out.tolist() == [0.0, 0.5, 1.0]


# -- certified graded rule ---------------------------------------------------


def test_gauss_graded_polynomial_exact():
    # degree 9 is integrated exactly by 15 and 23 points on every cell
    fn = lambda y: 3.0 * y ** 9 - y ** 4 + 2.0
    edges = graded_edges(-1.0, 2.0, 0.3, 1e-3)
    exact = 3.0 * (2.0 ** 10 - 1.0) / 10.0 - (2.0 ** 5 + 1.0) / 5.0 + 6.0
    assert gauss_graded(fn, edges, tol=1e-12) == pytest.approx(exact, rel=1e-14)


def test_gauss_graded_raises_with_measured_error():
    # a step strictly inside a cell stays inside some cell after every halving,
    # so orders 15 and 23 never agree to 1e-12
    fn = lambda y: np.where(y < 1.0 / 3.0, 0.0, 1.0)
    with pytest.raises(QuadratureError, match="stalled at") as info:
        gauss_graded(fn, [0.0, 1.0], tol=1e-12)
    measured = float(re.search(r"stalled at (\S+)", str(info.value)).group(1))
    assert measured > 1e-12


# -- flattened endpoint rule -------------------------------------------------


@pytest.mark.parametrize("p", [0.0, 0.25, 0.45])
def test_integrate_power_endpoint_exact(p):
    # the substitution makes the integrand constant: exact to rounding
    val = integrate_power_endpoint(lambda y: y ** -p, 0.0, 1.0, p, side="a")
    assert val == pytest.approx(1.0 / (1.0 - p), rel=1e-14)


@pytest.mark.parametrize("p", [0.0, 0.25, 0.45])
def test_integrate_power_endpoint_right_end(p):
    # nodes with 1 - sigma^q rounding to 1 are zeroed; for p = 0.45 they
    # cover sigma < 1e-16^(1-p), about 1e-9 of the range
    val = integrate_power_endpoint(lambda y: (1.0 - y) ** -p, 0.0, 1.0, p,
                                   side="b")
    assert val == pytest.approx(1.0 / (1.0 - p), rel=1e-8)


def test_integrate_power_endpoint_validation():
    with pytest.raises(ValueError, match="exponent"):
        integrate_power_endpoint(np.exp, 0.0, 1.0, 1.0, side="a")
    with pytest.raises(ValueError, match="side"):
        integrate_power_endpoint(np.exp, 0.0, 1.0, 0.2, side="c")


# -- singular-split planner --------------------------------------------------


def test_split_plan_no_singularity():
    assert split_plan(0.0, 1.0, [2.0], [0.1]) == [(0.0, 1.0, None, "")]


def test_split_plan_cuts_at_interior_locations():
    plan = split_plan(-1.0, 1.0, [0.5, -0.5, 3.0], [0.2, 0.1, 0.3])
    assert plan == [(-1.0, -0.5, 0.1, "b"),
                    (-0.5, 0.0, 0.1, "a"), (0.0, 0.5, 0.2, "b"),
                    (0.5, 1.0, 0.2, "a")]


def test_split_plan_both_ends_singular_splits_at_midpoint():
    plan = split_plan(0.0, 1.0, [0.0, 1.0], [0.1, 0.2])
    assert plan == [(0.0, 0.5, 0.1, "a"), (0.5, 1.0, 0.2, "b")]


def test_split_plan_adds_coincident_exponents():
    plan = split_plan(0.0, 2.0, [1.0, 1.0, 0.0], [0.125, 0.25, 0.0625])
    assert plan == [(0.0, 0.5, 0.0625, "a"), (0.5, 1.0, 0.375, "b"),
                    (1.0, 2.0, 0.375, "a")]
