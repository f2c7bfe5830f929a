"""The shared quadrature layer: Gauss-cell rule, certified graded rule, and
split_integrals, the one real-line rule across power singularities, against
the per-piece rule and planner it batched (in tests/oracles.py)."""

import cmath
import re

import numpy as np
import pytest

from nondini.quadrature import (
    QuadratureError,
    gauss_cell_values,
    gauss_graded,
    gauss_nodes,
    gauss_rule,
    graded_edges,
    merge_edges,
    split_integrals,
)
from nondini.quadrature import _CHUNK

from oracles import gauss_cells, integrate_power_endpoint, integrate_split_total, split_plan


# -- Gauss-cell rule ---------------------------------------------------------


@pytest.mark.parametrize("n", [7, 15, 23])
def test_gauss_cells_is_sum_of_cell_values(n):
    rng = np.random.default_rng(n)
    edges = np.sort(rng.uniform(-3.0, 2.0, 12))
    fn = lambda y: np.exp(np.sin(3.0 * y)) / (1.0 + y * y)
    per_cell = gauss_cell_values(fn, edges[:-1], edges[1:], n)
    assert per_cell.shape == (11,)
    assert gauss_cells(fn, edges, n) == per_cell.sum()


@pytest.mark.parametrize("n", [15, 23])
def test_gauss_cell_values_chunks_are_bitwise_one_call(n):
    # the integrand is called on at most _CHUNK nodes at a time; the values
    # are those of one call on every node, for every cell count up to 200 and
    # across the first two chunk boundaries
    rows = _CHUNK // n
    calls = []

    def fn(y):
        calls.append(y.size)
        return np.exp(np.sin(3.0 * y)) / (1.0 + y * y)

    rng = np.random.default_rng(n)
    counts = [*range(1, 201), *range(rows - 2, rows + 3), *range(2 * rows - 1, 2 * rows + 2)]
    for cells in counts:
        edges = np.sort(rng.uniform(-3.0, 2.0, cells + 1))
        a, b = edges[:-1], edges[1:]
        nodes = gauss_nodes(a, b, n)
        whole = (fn(nodes.ravel()).reshape(nodes.shape) @ gauss_rule(n)[1]) * (0.5 * (b - a))
        calls.clear()
        assert np.array_equal(gauss_cell_values(fn, a, b, n), whole)
        assert max(calls) <= _CHUNK and len(calls) == -(-cells // rows)


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


def _graded_edges_loop(a, b, focus, min_scale):
    """graded_edges as a loop over the doublings, collected in a set."""
    out = {a, b}
    if a < focus < b:
        out.add(focus)
    d = min_scale
    while d < max(abs(a - focus), abs(b - focus)):
        out.update(s for s in (focus - d, focus + d) if a < s < b)
        d *= 2.0
    return np.array(sorted(out))


def test_graded_edges_arrays_are_the_scalar_calls():
    rng = np.random.default_rng(4)
    a = rng.uniform(-2.0, 1.0, 400)
    b = a + 2.0 ** rng.uniform(-40.0, 5.0, 400)
    focus = np.where(rng.random(400) < 0.5, rng.uniform(a, b), rng.choice([-3.0, 0.0, 4.0], 400))
    focus[:20] = a[:20]
    focus[20:40] = b[20:40]
    scale = 2.0 ** rng.uniform(-1074.0, 2.0, 400)
    scale[40:50] = 5e-324
    many = graded_edges(a, b, focus, scale)
    assert len(many) == 400
    for e, args in zip(many, zip(a, b, focus, scale)):
        args = tuple(map(float, args))
        assert np.array_equal(e, graded_edges(*args))
        assert np.array_equal(e, _graded_edges_loop(*args))
    # scalars broadcast against arrays
    assert all(np.array_equal(e, graded_edges(0.0, float(hi), 0.0, 1e-9))
               for e, hi in zip(graded_edges(0.0, b - a, 0.0, 1e-9), b - a))
    with pytest.raises(ValueError):
        graded_edges(np.array([0.0, 1.0]), np.array([1.0, 1.0]), 0.5, 1e-3)


def test_gauss_graded_batch_is_each_integral_alone():
    # one batch, integrals of very different sizes (one over _CHUNK nodes on
    # its own), each value bit for bit its own gauss_graded call
    rng = np.random.default_rng(7)
    freq = rng.uniform(0.5, 40.0, 30)
    edges = [graded_edges(0.0, 1.0, float(f) / 40.0, 1e-6) for f in freq]
    edges[5] = np.linspace(0.0, 1.0, 2 * _CHUNK // 15)

    def fn(y, owner):
        return np.cos(freq[owner] * y) / (1.0 + y)

    batch = gauss_graded(fn, edges, tol=1e-13)
    for k, e in enumerate(edges):
        alone = gauss_graded(lambda y: np.cos(freq[k] * y) / (1.0 + y), e, tol=1e-13)
        assert batch[k] == alone


def test_gauss_graded_batch_halves_only_the_failed_integrals():
    # eight cells and a kink at 1/3 inside [1/4, 3/8]: integral 0 certifies in
    # the first round, and integral 1 halves only the cell that holds the
    # kink, keeping the values of the others; after round 1 every node lies
    # in the kink's cell, two new cells a round
    edges = np.linspace(0.0, 1.0, 9)
    seen = []

    def fn(y, owner):
        seen.append((y.copy(), owner.copy()))
        return np.where(owner == 0, y * y, np.abs(y - 1.0 / 3.0))

    batch = gauss_graded(fn, [edges, edges], tol=1e-12, max_rounds=40)
    assert batch[0] == pytest.approx(1.0 / 3.0, rel=1e-15)
    # at a kink the 15/23 difference bounds the error only to within a factor
    assert batch[1] == pytest.approx(5.0 / 18.0, rel=1e-10)
    assert [y.size for y, _ in seen[:2]] == [2 * 8 * 15, 2 * 8 * 23]
    later = seen[2:]
    assert later and all(np.all(owner == 1) for _, owner in later)
    assert all(y.size == 2 * n for (y, _), n in zip(later, [15, 23] * len(later)))
    assert all(np.all((y > 0.25) & (y < 0.375)) for y, _ in later)
    # each value is that of its integral alone
    assert batch[0] == gauss_graded(lambda y: y * y, edges, tol=1e-12)
    assert batch[1] == gauss_graded(lambda y: np.abs(y - 1.0 / 3.0), edges, tol=1e-12,
                                    max_rounds=40)


def test_gauss_graded_stalled_batch_reports_the_first_failed_integral():
    # integral 0 certifies in the first round, integral 1 (a step inside a
    # cell) never does: the batch raises the error integral 1 raises alone
    def fn(y, owner):
        return np.where(owner == 0, y * y, np.where(y < 1.0 / 3.0, 0.0, 1.0))

    with pytest.raises(QuadratureError, match="stalled at") as info:
        gauss_graded(fn, [np.array([0.0, 1.0]), np.array([0.0, 1.0])], tol=1e-12)
    with pytest.raises(QuadratureError) as alone:
        gauss_graded(lambda y: np.where(y < 1.0 / 3.0, 0.0, 1.0), [0.0, 1.0], tol=1e-12)
    assert str(info.value) == str(alone.value)


def test_gauss_graded_complex_integrand():
    # int_0^1 ds / (s - w) = log(1 - w) - log(-w) with w 1e-4 above the
    # interval: a near pole, as on an interior path that ends close to the
    # real line; Im(s - w) < 0 throughout, so the principal logs apply
    w = 1.0 / 3.0 + 1e-4j
    exact = cmath.log(1.0 - w) - cmath.log(-w)
    calls = []

    def fn(s):
        calls.append(s.size)
        return 1.0 / (s - w)

    got = gauss_graded(fn, [0.0, 1.0], tol=1e-12, max_rounds=40)
    assert isinstance(got, complex)
    assert abs(got - exact) <= 1e-12 * abs(exact)
    # after [0, 1] each round halves the one cell next to the pole
    assert len(calls) > 2 and calls[2:] == [2 * 15, 2 * 23] * (len(calls) // 2 - 1)


# -- split_integrals against the per-piece rule ------------------------------


@pytest.mark.parametrize("p", [0.0, 0.25, 0.45])
def test_integrate_power_endpoint_exact(p):
    # the substitution makes the integrand constant: exact to rounding, and
    # split_integrals flattens the piece with the per-piece rule's bits
    fn = lambda y: y ** -p
    val = integrate_power_endpoint(fn, 0.0, 1.0, p, side="a")
    assert val == pytest.approx(1.0 / (1.0 - p), rel=1e-14)
    assert split_integrals(fn, [0.0], [1.0], [0.0], [p])[0] == val


@pytest.mark.parametrize("p", [0.0, 0.25, 0.45])
def test_integrate_power_endpoint_right_end(p):
    # nodes with 1 - sigma^q rounding to 1 are zeroed; for p = 0.45 they
    # cover sigma < 1e-16^(1-p), about 1e-9 of the range
    fn = lambda y: (1.0 - y) ** -p
    val = integrate_power_endpoint(fn, 0.0, 1.0, p, side="b")
    assert val == pytest.approx(1.0 / (1.0 - p), rel=1e-8)
    assert split_integrals(fn, [0.0], [1.0], [1.0], [p])[0] == val


def test_integrate_power_endpoint_validation():
    with pytest.raises(ValueError, match="exponent"):
        integrate_power_endpoint(np.exp, 0.0, 1.0, 1.0, side="a")
    with pytest.raises(ValueError, match="side"):
        integrate_power_endpoint(np.exp, 0.0, 1.0, 0.2, side="c")


def test_split_integrals_validation():
    with pytest.raises(ValueError, match="exponent"):
        split_integrals(np.exp, [0.0], [1.0], [0.5], [1.0])
    with pytest.raises(ValueError, match="exponent"):
        split_integrals(np.exp, [0.0], [1.0], [0.5], [-0.1])
    # exponents at one location add
    with pytest.raises(ValueError, match="exponent"):
        split_integrals(np.exp, [0.0], [1.0], [0.5, 0.5], [0.5, 0.5])
    with pytest.raises(ValueError, match="lo < hi"):
        split_integrals(np.exp, [0.0, 1.0], [1.0, 1.0], [0.5], [0.2])
    with pytest.raises(ValueError, match="lo < hi"):
        split_integrals(np.exp, [1.0], [0.0], [0.5], [0.2])
    with pytest.raises(ValueError, match="one hi per lo"):
        split_integrals(np.exp, [0.0, 1.0], [2.0], [0.5], [0.2])


def _product(locs, exps):
    def fn(y):
        val = np.exp(1j * y)
        for s, p in zip(locs, exps):
            val = val * np.abs(y - s) ** -p
        return val
    return fn


def _assert_planned(a, b, locs, exps, plan):
    """The oracle plans [a, b] as `plan`, and split_integrals has the bits of
    the per-piece rule over it."""
    assert split_plan(a, b, locs, exps) == plan
    fn = _product(locs, exps)
    assert split_integrals(fn, [a], [b], locs, exps)[0] == integrate_split_total(fn, plan, locs=locs)


def test_split_plan_no_singularity():
    _assert_planned(0.0, 1.0, [2.0], [0.1], [(0.0, 1.0, None, "")])


def test_split_plan_cuts_at_interior_locations():
    _assert_planned(-1.0, 1.0, [0.5, -0.5, 3.0], [0.2, 0.1, 0.3],
                    [(-1.0, -0.5, 0.1, "b"),
                     (-0.5, 0.0, 0.1, "a"), (0.0, 0.5, 0.2, "b"),
                     (0.5, 1.0, 0.2, "a")])


def test_split_plan_both_ends_singular_splits_at_midpoint():
    _assert_planned(0.0, 1.0, [0.0, 1.0], [0.1, 0.2],
                    [(0.0, 0.5, 0.1, "a"), (0.5, 1.0, 0.2, "b")])


def test_split_plan_adds_coincident_exponents():
    _assert_planned(0.0, 2.0, [1.0, 1.0, 0.0], [0.125, 0.25, 0.0625],
                    [(0.0, 0.5, 0.0625, "a"), (0.5, 1.0, 0.375, "b"),
                     (1.0, 2.0, 0.375, "a")])


def test_split_integrals_batch_of_flattened_pieces_is_each_alone():
    # every interval starts at a location, so every piece is flattened; the
    # pieces of all 40 share integrand calls of at most _CHUNK nodes, and
    # each interval keeps the bits of its own call and of the per-piece rule
    locs, exps = [0.0, 0.3, 0.7, 1.0], [0.2, 0.45, 0.1, 0.3]
    fn = _product(locs, exps)
    rng = np.random.default_rng(11)
    lo = np.sort(rng.choice(locs, 40))
    hi = lo + rng.uniform(0.05, 1.5, 40)
    sizes = []

    def counted(y):
        sizes.append(y.size)
        return fn(y)

    batch = split_integrals(counted, lo, hi, locs, exps)
    assert max(sizes) <= _CHUNK and len(sizes) < 40
    for a, b, v in zip(lo.tolist(), hi.tolist(), batch):
        plan = split_plan(a, b, locs, exps)
        assert all(pexp is not None for _, _, pexp, _ in plan)
        assert v == split_integrals(fn, [a], [b], locs, exps)[0]
        assert v == integrate_split_total(fn, plan, locs=locs)
