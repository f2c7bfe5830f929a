"""Acceptance gate: ten end-to-end criteria, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -rA` to see the summary lines.
Each test measures its criterion at the stated tolerance and asserts it as
specified; nothing is loosened to force green. Two criteria fail honestly
for the default configuration and the assertion messages carry the measured
values and the rate analysis:

* criterion 7: the surface-ball ratios at the eight coarsest jump images
  decrease strictly (that clause holds) but at r = 2^-20 they sit at
  0.52..0.77, far above the 1e-2 threshold. The density at x_k vanishes
  like a power of 1/log(1/r), so the ratio reaches 1e-2 only at
  astronomically small radii, not at any floating-point-representable r.
* criterion 8: the forward-secant angle at x_1 converges to the tangent
  angle only at rate O(1/log(1/eps)) because the smoothed profile climbs
  from f(x_1) with a non-Dini modulus of continuity. At eps = 2^-24 the
  gap is 0.016, still above the 1e-2 bound; the x = 0 clause and the
  unbounded-secant-modulus clause both hold.
"""

import math
import time

import numpy as np
import pytest

from nondini.conformal import (
    BoundaryTrace,
    check_injectivity,
    growth_check,
    secant_tangent,
    trace_boundary,
)
from nondini.halfplane import HarmonicEvaluator
from nondini.hilbert import (
    REGION_TOL,
    HilbertEvaluator,
    pv_quadrature_oracle,
    region_bracket,
)
from nondini.measure import (
    MCConfig,
    appendix_product_integral,
    resolution_term,
    singular_set_scan,
    wos_harmonic_measure,
)
from nondini.modulus import ModulusSpec, SmoothedModulus
from nondini.profile import MODE_C1, MODE_LIPSCHITZ, build_bridge, build_profile

PI = math.pi


def _line(num: int, name: str, ok: bool, detail: str) -> None:
    print("criterion %2d %-24s %s  %s"
          % (num, name, "PASS" if ok else "FAIL", detail))


@pytest.fixture(scope="module")
def ev_c1():
    sm = SmoothedModulus(ModulusSpec(kind="log_inverse", c=0.1)).selected(beta=0.5)
    return HilbertEvaluator(build_profile(MODE_C1, sm=sm, bridge=build_bridge(sm)))


@pytest.fixture(scope="module")
def ev_lip():
    return HilbertEvaluator(build_profile(MODE_LIPSCHITZ))


@pytest.fixture(scope="module")
def ev_qwedge():
    return HilbertEvaluator(build_profile(MODE_LIPSCHITZ, jumps=[0.0], amps=[1.0],
                                          c_prime_target=PI / 4.0))


def test_criterion_01_modulus_sandwich():
    t0 = time.monotonic()
    worst = 0.0
    for base in (ModulusSpec(kind="log_inverse"),
                 ModulusSpec(kind="power", gamma=1.0),
                 ModulusSpec(kind="constant", c=0.1)):
        sm = SmoothedModulus(base)
        rs = np.exp(np.linspace(math.log(1e-6),
                                math.log(sm.domain_hi * (1.0 - 1e-9)), 200))
        tt = sm.value_vec(rs)
        worst = max(worst,
                    float(np.max(base.theta_vec(rs) - tt)),
                    float(np.max(tt - base.theta_vec(4.0 * rs))))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-8 and elapsed < 5.0
    _line(1, "modulus-sandwich", ok,
          "worst violation %.3g <= 1e-08 over 3 kinds x 200 radii, %.2f s"
          % (worst, elapsed))
    assert worst <= 1e-8
    assert elapsed < 5.0


def test_criterion_02_hilbert_oracle(ev_c1, ev_lip):
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    worst = 0.0
    for ev in (ev_lip, ev_c1):
        p = ev.profile
        tested = 0
        while tested < 50:
            x = float(rng.uniform(-2.0, 3.0))
            if abs(x) < 1e-2 or min(abs(x - xk) for xk in p.x) < 1e-2:
                continue
            worst = max(worst,
                        abs(ev.k_profile(x)[0] - pv_quadrature_oracle(p, x)))
            tested += 1
    side = 0.0
    for knot in (ev_c1.bridge.x0, ev_c1.bridge.x_star):
        d = 1e-7 * knot
        left, right = ev_c1.k_htilde_direct(np.array([knot - d, knot + d]))
        side = max(side, abs(left - right))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-6 and side <= 1e-4 and elapsed < 60.0
    _line(2, "hilbert-oracle", ok,
          "worst gap %.3g <= 1e-06 at 50 pts/mode, side limits %.3g <= 1e-04, %.1f s"
          % (worst, side, elapsed))
    assert worst <= 1e-6
    assert side <= 1e-4
    assert elapsed < 60.0


def test_criterion_03_region_bounds(ev_c1):
    rng = np.random.default_rng(3)
    x0 = ev_c1.bridge.x0
    xs = np.concatenate([rng.uniform(-2.0, 3.0, 300),
                         np.geomspace(1e-9, x0 * 0.999, 100),
                         -np.geomspace(1e-9, 1.9, 100)])
    slack = 10.0 * REGION_TOL
    worst = -math.inf
    violations = 0
    for x, k in zip(xs.tolist(), ev_c1.k_htilde_direct(xs).tolist()):
        pik = PI * k
        lo, hi = region_bracket(ev_c1, x)
        over = max(lo - pik, pik - hi)
        worst = max(worst, over)
        if over > slack:
            violations += 1
    ok = violations == 0
    _line(3, "region-bounds", ok,
          "%d of %d samples beyond %.1g (worst excess %.3g)"
          % (violations, len(xs), slack, worst))
    assert violations == 0


def test_criterion_04_wedge_closed_form(ev_qwedge):
    c = ev_qwedge.profile.c
    assert c == pytest.approx(PI / 4.0, rel=1e-15)
    xs = np.geomspace(2.0 ** -10, 1.0, 200)
    rel = np.abs(np.exp(-ev_qwedge.kf_vec(xs)) * xs ** 0.25 - 1.0)
    worst = float(rel.max())

    tr = trace_boundary(ev_qwedge, -1.0, 1.0, base_n=100)
    ang = tr.secant_angles()
    mids = 0.5 * (tr.x[:-1] + tr.x[1:])
    turn = float(ang[mids > 0.0][0] - ang[mids < 0.0][-1])
    ok = worst <= 1e-6 and abs(turn - c) <= 1e-3
    _line(4, "wedge-closed-form", ok,
          "|Phi'| vs |x|^-1/4 rel %.3g <= 1e-06, ray turn err %.3g <= 1e-03 rad"
          % (worst, abs(turn - c)))
    assert worst <= 1e-6
    assert abs(turn - c) <= 1e-3


def test_criterion_05_arg_bound_and_injectivity(ev_c1):
    p = ev_c1.profile
    rng = np.random.default_rng(1)
    pts = rng.uniform([-2.0, 0.05], [3.0, 2.0], size=(1000, 2))
    harm = HarmonicEvaluator(ev_c1)
    worst_arg = max(abs(harm.V(complex(x, t))) for x, t in pts)

    inj = check_injectivity(ev_c1, n_segments=100, seed=0, cells=4)
    tr = trace_boundary(ev_c1, -1.0, 1.2, base_n=200)
    simple = tr.is_simple()
    ok = worst_arg <= p.c_prime + 1e-12 and inj.min_margin > 0.0 and simple
    _line(5, "arg-bound-injectivity", ok,
          "max|arg G| %.6f <= c' %.6f, min margin %.4f > 0 on %d segments, "
          "simple=%s" % (worst_arg, p.c_prime, inj.min_margin,
                         len(inj.margins), simple))
    assert worst_arg <= p.c_prime + 1e-12
    assert inj.min_margin > 0.0
    assert simple


def test_criterion_06_growth(ev_c1):
    rep = growth_check(ev_c1, [2.0 ** k for k in range(4, 11)], n_angles=3)
    ok = rep.fitted_exponent >= rep.target_exponent - 0.05
    _line(6, "growth-exponent", ok,
          "fitted %.4f >= target %.4f - 0.05 over R = 2^4..2^10"
          % (rep.fitted_exponent, rep.target_exponent))
    assert rep.fitted_exponent >= rep.target_exponent - 0.05


def test_criterion_07_singular_set(ev_c1):
    t0 = time.monotonic()
    jumps = [2.0 ** -k for k in range(1, 9)]
    controls = [-1.0, 3.0]
    rs = [2.0 ** -k for k in range(8, 21)]
    rep = singular_set_scan(ev_c1, jumps + controls, rs,
                            threshold=1e-2, control_tol=1e-3)
    elapsed = time.monotonic() - t0

    by_x = {c.x: c for c in rep.centers}
    finals = [by_x[x].ratios[-1] for x in jumps]
    monotone = all(
        all(b < a for a, b in zip(by_x[x].ratios, by_x[x].ratios[1:]))
        for x in jumps)
    ctrl_err = max(abs(by_x[x].ratios[-1] - by_x[x].density) for x in controls)
    below = max(finals) < 1e-2
    ok = monotone and below and ctrl_err <= 1e-3 and elapsed < 600.0
    _line(7, "singular-set-ratios", ok,
          "monotone=%s, finals %.3f..%.3f (need < 1e-02), control err %.2g "
          "<= 1e-03, %.0f s" % (monotone, min(finals), max(finals),
                                ctrl_err, elapsed))
    assert elapsed < 600.0
    assert monotone, "ratio curves must decrease at every jump image"
    assert ctrl_err <= 1e-3
    p = ev_c1.profile
    alpha_1 = p.c * p.a[0] * math.log(2.0) / PI
    assert below, (
        "ball ratios at the jump images end at %s for r = 2^-20, above the "
        "1e-2 threshold. The density at x_k decays like (ln 1/r)^(-alpha_k) "
        "with alpha_k = c a_k ln 2 / pi, %.4f at x_1, so from %.3f at "
        "ln(1/r) = %.2f the ratio at x_1 extrapolates to 1e-2 only at "
        "ln(1/r) ~ %.0e. Every positive double has ln(1/r) <= 745, so no "
        "floating-point radius reaches that ball and the vanishing-density "
        "clause cannot be met, while the monotone-decrease and control "
        "clauses above hold."
        % (["%.3f" % f for f in finals], alpha_1, finals[0], math.log(2.0 ** 20),
           math.log(2.0 ** 20) * (finals[0] / 1e-2) ** (1.0 / alpha_1)))


def test_criterion_08_secant_tangents(ev_c1):
    p = ev_c1.profile
    eps_list = [2.0 ** -m for m in range(10, 25, 2)]

    def secants(x):
        pairs = secant_tangent(ev_c1, x, eps_list)
        target = p.f(x)
        errs = [abs(ang - target) for _, ang in pairs]
        mods = [mod for mod, _ in pairs]
        return errs, mods

    errs_x1, mods_x1 = secants(0.5)
    errs_0, _ = secants(0.0)
    increasing = all(b > a for a, b in zip(mods_x1, mods_x1[1:]))
    converging = all(b < a for a, b in zip(errs_x1, errs_x1[1:]))
    ok = max(errs_x1) <= 1e-2 and max(errs_0) <= 1e-2 and increasing
    _line(8, "secant-tangents", ok,
          "x1 angle err %.4f..%.4f (need <= 1e-02), x=0 err %.2g, "
          "secant modulus %.3f -> %.3f increasing=%s"
          % (errs_x1[0], errs_x1[-1], max(errs_0), mods_x1[0], mods_x1[-1],
             increasing))
    assert max(errs_0) <= 1e-2
    assert increasing, "secant modulus at x1 must grow as eps shrinks"
    assert converging, "secant angle at x1 must approach the tangent angle"
    assert max(errs_x1) <= 1e-2, (
        "secant angle errors at x1 over eps = 2^-10..2^-24 are %s: the "
        "profile climbs from f(x1) with modulus ~1/log(1/u), so the error "
        "decays like 1/log(1/eps) and first drops below 1e-2 near "
        "eps ~ 2^-39, outside the required range. The convergence, "
        "monotone-modulus, and x = 0 clauses above all hold."
        % (["%.4f" % e for e in errs_x1],))


def test_criterion_09_monte_carlo_oracle(ev_lip):
    t0 = time.monotonic()
    mc = MCConfig(n_walkers=100_000, seed=42, wos_epsilon=1e-4)
    rep = wos_harmonic_measure(BoundaryTrace.flat(-8.0, 8.0, 33), 1j, [(-1.0, 1.0)], mc)
    half_dev = abs(rep.frequencies[0] - 0.5) / rep.sigmas[0]

    wedge = HilbertEvaluator(build_profile(MODE_LIPSCHITZ, jumps=[0.0],
                                           amps=[1.0], c_prime_target=0.9))
    wtrace = trace_boundary(wedge, -2.0, 2.0, base_n=200)
    arcs = [(-2.0, -1.0), (-1.0, 0.0), (0.0, 1.0), (1.0, 2.0)]
    wmc = MCConfig(n_walkers=20_000, seed=7, wos_epsilon=1e-4)
    wrep = wos_harmonic_measure(wtrace, 0j, arcs, wmc)
    res = resolution_term(wtrace, arcs, wmc)
    wedge_ok = all(
        abs(f - (math.atan(b) - math.atan(a)) / PI) <= 3.0 * s + res
        for (a, b), f, s in zip(wrep.arcs, wrep.frequencies, wrep.sigmas))
    elapsed = time.monotonic() - t0
    ok = half_dev <= 3.0 and wedge_ok and elapsed < 120.0
    _line(9, "monte-carlo-oracle", ok,
          "half-plane [-1,1] dev %.2f sigma <= 3 at N=1e5, wedge pullback "
          "within 3 sigma + %.4f: %s, %.1f s" % (half_dev, res, wedge_ok,
                                                 elapsed))
    assert half_dev <= 3.0
    assert wedge_ok
    assert elapsed < 120.0


def test_criterion_10_product_integrability():
    eps = [2.0 ** -k for k in range(4, 15)]
    cases = ([0.25], [0.125, 0.125], [2.0 ** -k / 16.0 for k in range(1, 7)])
    details = []
    ok = True
    for b in cases:
        rep = appendix_product_integral(b, eps, jumps=[0.0] * len(b))
        target = 1.0 - rep.sum_b
        slope_ok = abs(rep.fitted_slope - target) <= 0.05
        ok = ok and slope_ok and rep.left_bound_ok
        details.append("slope %.4f vs %.4f left_bound=%s"
                       % (rep.fitted_slope, target, rep.left_bound_ok))
        assert slope_ok
        assert rep.left_bound_ok
    _line(10, "product-integrability", ok, "; ".join(details))
    assert ok
