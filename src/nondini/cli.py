"""Command-line front end: configuration, construction runs, verification.

Subcommands:
  construct       build the profile and boundary trace; write profile.json
                  and boundary.csv
  verify          run a named check suite; write report.json; exit nonzero
                  on any failed check
  density         surface-ball ratio curves at given centers; write
                  density.csv and a JSON summary with the flagged set
  mc-oracle       walk-on-spheres hitting frequencies from the base-point
                  image against the exact half-plane pullback
  appendix-check  product-integrability scaling report

Configuration is one JSON document (see DEFAULT_CONFIG); unknown keys are
rejected so misspelled settings fail loudly instead of silently defaulting.
All CSV output uses 17 significant digits and every run is deterministic
given the config and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .conformal import (
    BASE_POINT,
    BoundaryTrace,
    PathSpec,
    check_injectivity,
    growth_check,
    integrate_phi,
    trace_boundary,
)
from .halfplane import HarmonicEvaluator
from .hilbert import HilbertEvaluator, pv_quadrature_oracle, region_bracket
from .measure import (
    MCConfig,
    appendix_product_integral,
    density_at,
    measure_ratio,
    resolution_term,
    singular_set_scan,
    wos_harmonic_measure,
)
from .modulus import ModulusSpec, SmoothedModulus
from .profile import (
    MODE_C1,
    MODE_LIPSCHITZ,
    build_bridge,
    build_profile,
    jump_amplitudes,
)

PI = math.pi

SUITES = ("modulus", "hilbert", "halfplane", "conformal", "measure",
          "appendix", "all")


# -- configuration ---------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    theta_kind: str = "log_inverse"
    theta_c: float = 0.1
    theta_gamma: float = 1.0
    mode: str = MODE_C1
    c_prime_target: float = PI / 4.0
    amplitude_rule: str = "geometric"
    K: int = 20
    beta: float = 0.5
    quad_tol: float = 1e-9
    x_lo: float = -1.0
    x_hi: float = 1.2
    base_n: int = 200
    mc: MCConfig = MCConfig()
    out_dir: str = "out"

    def __post_init__(self):
        if self.mode not in (MODE_LIPSCHITZ, MODE_C1):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 0.0 < self.c_prime_target < PI / 2.0:
            raise ValueError("c_prime_target must lie in (0, pi/2)")
        if not self.quad_tol > 0.0:
            raise ValueError("tolerances must be positive")
        if self.K < 1:
            raise ValueError("need at least one jump")
        jump_amplitudes(self.amplitude_rule, self.K)
        self.modulus_spec  # a bad theta section raises here
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if not self.x_lo < 0.0 < self.x_hi:
            raise ValueError("trace window must straddle 0")
        if self.base_n < 2:
            raise ValueError("base_n must be at least 2")

    @property
    def modulus_spec(self) -> ModulusSpec:
        return ModulusSpec(kind=self.theta_kind, c=self.theta_c,
                           gamma=self.theta_gamma)


_SCHEMA = {
    "theta": {"kind": str, "c": float, "gamma": float},
    "mode": str,
    "c_prime_target": float,
    "amplitude_rule": str,
    "K": int,
    "beta": float,
    "quad_tol": float,
    "trace": {"x_lo": float, "x_hi": float, "base_n": int},
    "mc": {"n_walkers": int, "seed": int, "wos_epsilon": float,
           "max_steps": int, "far_radius": float},
    "out_dir": str,
}


def _coerce(value, want, path):
    if want is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"config key {path}: expected a number")
        return float(value)
    if want is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"config key {path}: expected an integer")
        return value
    if not isinstance(value, str):
        raise ValueError(f"config key {path}: expected a string")
    return value


def _check_keys(doc, schema, prefix):
    unknown = set(doc) - set(schema)
    if unknown:
        raise ValueError("unknown config key%s: %s" % (
            "s" if len(unknown) > 1 else "",
            ", ".join(sorted(prefix + k for k in unknown))))


def parse_config(doc: dict) -> RunConfig:
    """Build a RunConfig from a parsed JSON document, rejecting unknown keys."""
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")
    _check_keys(doc, _SCHEMA, "")
    flat = {}
    for key, sub in (("theta", "theta_"), ("trace", ""), ("mc", None)):
        if key not in doc:
            continue
        section = doc[key]
        if not isinstance(section, dict):
            raise ValueError(f"config key {key}: expected an object")
        _check_keys(section, _SCHEMA[key], key + ".")
        if sub is None:
            flat["mc"] = MCConfig(**{
                k: _coerce(v, _SCHEMA["mc"][k], f"mc.{k}")
                for k, v in section.items()})
        else:
            for k, v in section.items():
                flat[sub + k] = _coerce(v, _SCHEMA[key][k], f"{key}.{k}")
    for key in ("mode", "c_prime_target", "amplitude_rule", "K", "beta",
                "quad_tol", "out_dir"):
        if key in doc:
            flat[key] = _coerce(doc[key], _SCHEMA[key], key)
    return RunConfig(**flat)


def config_to_doc(cfg: RunConfig) -> dict:
    return {
        "theta": {"kind": cfg.theta_kind, "c": cfg.theta_c,
                  "gamma": cfg.theta_gamma},
        "mode": cfg.mode,
        "c_prime_target": cfg.c_prime_target,
        "amplitude_rule": cfg.amplitude_rule,
        "K": cfg.K,
        "beta": cfg.beta,
        "quad_tol": cfg.quad_tol,
        "trace": {"x_lo": cfg.x_lo, "x_hi": cfg.x_hi, "base_n": cfg.base_n},
        "mc": {"n_walkers": cfg.mc.n_walkers, "seed": cfg.mc.seed,
               "wos_epsilon": cfg.mc.wos_epsilon,
               "max_steps": cfg.mc.max_steps,
               "far_radius": cfg.mc.far_radius},
        "out_dir": cfg.out_dir,
    }


def load_config(path: str) -> RunConfig:
    with open(path) as fh:
        return parse_config(json.load(fh))


DEFAULT_CONFIG = RunConfig()


# -- component assembly ----------------------------------------------------------


def build_evaluator(cfg: RunConfig) -> HilbertEvaluator:
    spec = cfg.modulus_spec
    if cfg.mode == MODE_C1:
        sm = SmoothedModulus(spec).selected(beta=cfg.beta)
        profile = build_profile(MODE_C1, sm=sm, bridge=build_bridge(sm),
                                K=cfg.K, c_prime_target=cfg.c_prime_target,
                                amplitude_rule=cfg.amplitude_rule)
    else:
        profile = build_profile(MODE_LIPSCHITZ, K=cfg.K,
                                c_prime_target=cfg.c_prime_target,
                                amplitude_rule=cfg.amplitude_rule)
    return HilbertEvaluator(profile)


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _ensure_out(cfg: RunConfig):
    import os

    os.makedirs(cfg.out_dir, exist_ok=True)
    return cfg.out_dir


# -- construct -------------------------------------------------------------------


def cmd_construct(cfg: RunConfig) -> int:
    ev = build_evaluator(cfg)
    p = ev.profile
    trace = trace_boundary(ev, cfg.x_lo, cfg.x_hi, base_n=cfg.base_n,
                           tol=cfg.quad_tol)
    out = _ensure_out(cfg)
    _write_json(f"{out}/profile.json", {
        "mode": p.mode,
        "c": p.c,
        "c_prime": p.c_prime,
        "jumps": list(p.x),
        "amplitudes": list(p.a),
        "theta": config_to_doc(cfg)["theta"] if p.mode == MODE_C1 else None,
        "beta": cfg.beta if p.mode == MODE_C1 else None,
        "config": config_to_doc(cfg),
    })
    trace.to_csv(f"{out}/boundary.csv")
    print("wrote %s/profile.json and %s/boundary.csv (%d samples, "
          "quadrature error %.3g)" % (out, out, len(trace.x), trace.quad_error))
    return 0


# -- verify ----------------------------------------------------------------------


def _checks_modulus(cfg: RunConfig):
    spec = cfg.modulus_spec
    sm = SmoothedModulus(spec)
    hi = sm.domain_hi * (1.0 - 1e-9)
    rs = np.exp(np.linspace(math.log(1e-6), math.log(hi), 50))
    tt = sm.value_vec(rs)
    lo_violation = float(np.max(spec.theta_vec(rs) - tt))
    hi_violation = float(np.max(tt - spec.theta_vec(4.0 * rs)))
    yield ("modulus/sandwich-containment",
           max(lo_violation, hi_violation, 0.0), 1e-8)
    diffs = np.diff(tt)
    yield ("modulus/smoothed-monotone", max(float(-diffs.min()), 0.0), 1e-12)


def _checks_hilbert(cfg: RunConfig, ev: HilbertEvaluator):
    p = ev.profile
    rng = np.random.Generator(np.random.Philox(cfg.mc.seed))
    worst = 0.0
    tested = 0
    while tested < 6:
        x = float(rng.uniform(-2.0, 3.0))
        if min(abs(x - xk) for xk in p.x) < 1e-2 or abs(x) < 1e-2:
            continue
        worst = max(worst, abs(ev.k_profile(x)[0] - pv_quadrature_oracle(p, x)))
        tested += 1
    yield ("hilbert/pv-oracle-agreement", worst, 1e-6)

    if p.mode == MODE_C1:
        viol = 0.0
        for x in np.linspace(1e-3, 0.9 * p.sm.x_star, 20):
            v = ev.k_htilde(float(x))
            lo, hi = region_bracket(ev, float(x))
            viol = max(viol, lo - PI * v)
            if math.isfinite(hi):
                viol = max(viol, PI * v - hi)
        yield ("hilbert/region-bracket", max(viol, 0.0), 10.0 * ev.quad_tol)


def _checks_halfplane(cfg: RunConfig, ev: HilbertEvaluator):
    p = ev.profile
    harm = HarmonicEvaluator(ev)
    t = 1e-4
    worst_v = 0.0
    worst_w = 0.0
    for x in (-0.7, 0.3, 1.3):
        worst_v = max(worst_v, abs(harm.V(x + 1j * t)
                                   - float(p.f_vec(np.array([x]))[0])))
        worst_w = max(worst_w, abs(harm.W(x + 1j * t)
                                   - float(ev.kf_vec(np.array([x]))[0])))
    yield ("halfplane/boundary-limit-tangent-angle", worst_v, 1e-2)
    yield ("halfplane/boundary-limit-conjugate", worst_w, 1e-2)


def _checks_conformal(cfg: RunConfig, ev: HilbertEvaluator):
    z = 0.6 + 0.8j
    direct = integrate_phi(ev, z, tol=cfg.quad_tol)
    dogleg = integrate_phi(ev, z, path=PathSpec((BASE_POINT, 2j, z)),
                           tol=cfg.quad_tol)
    yield ("conformal/path-independence", abs(direct - dogleg), 1e-8)
    yield ("conformal/base-point-normalization",
           abs(integrate_phi(ev, BASE_POINT)), 1e-15)

    p = ev.profile
    harm = HarmonicEvaluator(ev)
    rng = np.random.Generator(np.random.Philox(cfg.mc.seed + 1))
    pts = rng.uniform([-2.0, 0.05], [3.0, 2.0], size=(100, 2))
    worst = max(abs(harm.V(complex(x, t))) for x, t in pts)
    yield ("conformal/arg-bound-excess", max(worst - p.c_prime, 0.0), 1e-9)

    rep = check_injectivity(ev, n_segments=8, seed=cfg.mc.seed)
    yield ("conformal/injectivity-margin", rep.min_margin, None, rep.min_margin > 0.0)

    grep = growth_check(ev, [16.0, 64.0, 256.0, 1024.0], n_angles=3)
    yield ("conformal/growth-exponent-shortfall",
           max(grep.target_exponent - grep.fitted_exponent, 0.0), 0.05)

    # identity boundary (f == 0): the machinery must reproduce the half plane
    flat = BoundaryTrace.flat(-8.0, 8.0, 33)
    ball = measure_ratio(flat, None, 0.3, 0.5)
    yield ("conformal/identity-ball-ratio", abs(ball.ratio - 1.0), 1e-12)
    yield ("conformal/identity-ball-width",
           abs((ball.x_hi - ball.x_lo) - 1.0), 1e-12)
    yield ("conformal/identity-density",
           abs(density_at(None, 0.3).value - 1.0), 0.0)


def _checks_measure(cfg: RunConfig, ev: HilbertEvaluator):
    worst = 0.0
    for x in (-1.0, -0.3, 0.7, 1.7, 3.0):
        d = density_at(ev, x)
        kf = float(ev.kf_vec(np.array([x]))[0])
        worst = max(worst, abs(d.value * math.exp(-kf) - 1.0))
    yield ("measure/density-reciprocal-identity", worst, 1e-10)

    wedge = HilbertEvaluator(build_profile(
        MODE_LIPSCHITZ, jumps=[0.0], amps=[1.0], c_prime_target=0.9))
    wtrace = trace_boundary(wedge, -1.0, 1.0, base_n=120)
    q = 1.0 - 0.9 / PI
    r = 2.0 ** -8
    ball = measure_ratio(wtrace, wedge, 0.0, r)
    closed = q ** (1.0 / q) * r ** ((1.0 - q) / q)
    yield ("measure/corner-ball-ratio", abs(ball.ratio / closed - 1.0), 1e-6)


def _checks_appendix(cfg: RunConfig):
    eps = [2.0 ** -k for k in range(4, 11)]
    rep = appendix_product_integral([0.125, 0.125], eps, jumps=[0.0, 0.0])
    yield ("appendix/slope-vs-scaling-law",
           abs(rep.fitted_slope - (1.0 - rep.sum_b)), 0.05)
    yield ("appendix/global-bound", 0.0 if rep.bound_ok else 1.0, 0.5)
    rep_dy = appendix_product_integral([0.125, 0.125], eps)
    yield ("appendix/left-half-bound", 0.0 if rep_dy.left_bound_ok else 1.0, 0.5)


def cmd_verify(cfg: RunConfig, suite: str) -> int:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    gens = []
    needs_ev = {"hilbert", "halfplane", "conformal", "measure"}
    ev = build_evaluator(cfg) if (suite in needs_ev or suite == "all") else None
    if suite in ("modulus", "all"):
        gens.append(_checks_modulus(cfg))
    if suite in ("hilbert", "all"):
        gens.append(_checks_hilbert(cfg, ev))
    if suite in ("halfplane", "all"):
        gens.append(_checks_halfplane(cfg, ev))
    if suite in ("conformal", "all"):
        gens.append(_checks_conformal(cfg, ev))
    if suite in ("measure", "all"):
        gens.append(_checks_measure(cfg, ev))
    if suite in ("appendix", "all"):
        gens.append(_checks_appendix(cfg))

    checks = []
    for gen in gens:
        for row in gen:
            if len(row) == 3:
                name, measured, tol = row
                passed = measured <= tol
            else:
                name, measured, tol, passed = row
            checks.append({"check": name, "measured": measured,
                           "tolerance": tol, "passed": bool(passed)})
    ok = all(c["passed"] for c in checks)
    out = _ensure_out(cfg)
    _write_json(f"{out}/report.json", {
        "suite": suite, "passed": ok, "checks": checks,
        "config": config_to_doc(cfg)})
    for c in checks:
        print("%-45s %s  measured=%.6g tol=%s"
              % (c["check"], "PASS" if c["passed"] else "FAIL",
                 c["measured"], c["tolerance"]))
    print("suite %s: %s (%d checks) -> %s/report.json"
          % (suite, "PASS" if ok else "FAIL", len(checks), out))
    return 0 if ok else 1


# -- density ---------------------------------------------------------------------


def _dyadic_ladder(top: float, bottom: float, what: str) -> list[float]:
    """top, top/2, top/4, ... down to bottom (1e-12 relative slack), at least two."""
    # halving never ends below a bound <= 0 or from an infinite top
    if not (bottom > 0.0 and math.isfinite(top)):
        raise ValueError(f"the {what} need finite, positive bounds")
    out = []
    v = top
    while v >= bottom * (1.0 - 1e-12):
        out.append(v)
        v /= 2.0
    if len(out) < 2:
        raise ValueError(f"need at least two {what}")
    return out


def cmd_density(cfg: RunConfig, centers, r_min: float, r_max: float) -> int:
    if not centers:
        raise ValueError("density needs at least one center")
    if not 0.0 < r_min < r_max:
        raise ValueError("need 0 < r_min < r_max")
    rs = _dyadic_ladder(r_max, r_min, "dyadic radii between r_min and r_max")
    ev = build_evaluator(cfg)
    trace = trace_boundary(ev, cfg.x_lo, cfg.x_hi, base_n=cfg.base_n,
                           tol=cfg.quad_tol)
    report = singular_set_scan(trace, ev, centers, rs)
    out = _ensure_out(cfg)
    report.to_csv(f"{out}/density.csv")
    _write_json(f"{out}/report.json", report.to_json_summary())
    print("wrote %s/density.csv and %s/report.json; flagged: %s"
          % (out, out, list(report.flagged_set())))
    return 0


# -- mc oracle -------------------------------------------------------------------


def cmd_mc_oracle(cfg: RunConfig) -> int:
    ev = build_evaluator(cfg)
    trace = trace_boundary(ev, cfg.x_lo, cfg.x_hi, base_n=cfg.base_n,
                           tol=cfg.quad_tol)
    width = cfg.x_hi - cfg.x_lo
    a, b = cfg.x_lo + 0.05 * width, cfg.x_hi - 0.05 * width
    edges = np.linspace(a, b, 5)
    arcs = list(zip(edges[:-1], edges[1:]))
    rep = wos_harmonic_measure(trace, 0j, arcs, cfg.mc)
    res = resolution_term(trace, arcs, cfg.mc)
    rows = []
    ok = True
    for (u, v), f, s in zip(rep.arcs, rep.frequencies, rep.sigmas):
        exact = (math.atan(v) - math.atan(u)) / PI
        passed = abs(f - exact) <= 3.0 * s + res
        ok = ok and passed
        rows.append({"arc": [u, v], "frequency": f, "pullback_exact": exact,
                     "sigma": s, "passed": passed})
    out = _ensure_out(cfg)
    _write_json(f"{out}/report.json", {
        "pole": [0.0, 0.0], "n_walkers": rep.n_walkers, "seed": rep.seed,
        "n_absorbed": rep.n_absorbed, "n_far": rep.n_far,
        "n_lost": rep.n_lost, "resolution_term": res,
        "arcs": rows, "passed": ok})
    for row in rows:
        print("arc [%.4g, %.4g]: freq %.5f vs exact %.5f (sigma %.5f) %s"
              % (row["arc"][0], row["arc"][1], row["frequency"],
                 row["pullback_exact"], row["sigma"],
                 "PASS" if row["passed"] else "FAIL"))
    print("mc-oracle: %s -> %s/report.json" % ("PASS" if ok else "FAIL", out))
    return 0 if ok else 1


# -- appendix check --------------------------------------------------------------


def cmd_appendix_check(cfg: RunConfig, b_lists, eps_min: float,
                       eps_max: float, placement: str) -> int:
    if placement not in ("origin", "dyadic"):
        raise ValueError("placement must be 'origin' or 'dyadic'")
    if not b_lists:
        b_lists = [[0.25], [0.125, 0.125],
                   [2.0 ** -k / 16.0 for k in range(1, 7)]]
    eps = _dyadic_ladder(eps_max, eps_min, "window sizes")
    rows = []
    ok = True
    for b in b_lists:
        jumps = [0.0] * len(b) if placement == "origin" else None
        rep = appendix_product_integral(b, eps, jumps=jumps)
        target = 1.0 - rep.sum_b
        passed = (abs(rep.fitted_slope - target) <= 0.05
                  if placement == "origin"
                  else target - 0.05 <= rep.fitted_slope <= 1.0 + 5e-3)
        passed = passed and rep.bound_ok and rep.left_bound_ok
        ok = ok and passed
        rows.append({"b": list(b), "sum_b": rep.sum_b,
                     "fitted_slope": rep.fitted_slope,
                     "target_slope": target,
                     "bound_ok": rep.bound_ok,
                     "left_bound_ok": rep.left_bound_ok,
                     "integrals": list(rep.integrals),
                     "passed": passed})
    out = _ensure_out(cfg)
    _write_json(f"{out}/report.json", {
        "placement": placement, "eps": eps, "cases": rows, "passed": ok})
    for row in rows:
        print("b=%s: slope %.4f (target %.4f) bounds %s/%s %s"
              % (row["b"], row["fitted_slope"], row["target_slope"],
                 row["bound_ok"], row["left_bound_ok"],
                 "PASS" if row["passed"] else "FAIL"))
    print("appendix-check: %s -> %s/report.json" % ("PASS" if ok else "FAIL", out))
    return 0 if ok else 1


# -- argument parsing ------------------------------------------------------------


def _parse_floats(flag: str, text: str):
    """Comma-separated numbers given to `flag`; blanks between commas are skipped."""
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"could not parse {flag} {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nondini",
        description="Construct and verify boundary geometry with prescribed "
                    "tangent-angle jumps and its harmonic-measure density.")
    ap.add_argument("--config", help="path to a JSON config file")
    ap.add_argument("--out", help="output directory override")
    ap.add_argument("--seed", type=int, help="MC seed override")
    ap.add_argument("--mode", choices=[MODE_LIPSCHITZ, MODE_C1],
                    help="profile mode override")
    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser("construct", help="write profile.json and boundary.csv")
    p_verify = sub.add_parser("verify", help="run a check suite")
    p_verify.add_argument("--suite", default="all", choices=SUITES)
    p_density = sub.add_parser("density", help="surface-ball ratio curves")
    p_density.add_argument("--centers", required=True,
                           help="comma-separated boundary parameters")
    p_density.add_argument("--r-min", type=float, default=2.0 ** -14)
    p_density.add_argument("--r-max", type=float, default=2.0 ** -6)
    sub.add_parser("mc-oracle", help="walk-on-spheres vs exact pullback")
    p_app = sub.add_parser("appendix-check", help="product-integral scaling")
    p_app.add_argument("--b", action="append", default=[],
                       help="comma-separated exponents (repeatable)")
    p_app.add_argument("--eps-min", type=float, default=2.0 ** -14)
    p_app.add_argument("--eps-max", type=float, default=2.0 ** -4)
    p_app.add_argument("--placement", default="origin",
                       choices=["origin", "dyadic"])
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else DEFAULT_CONFIG
        if args.out is not None:
            cfg = dataclasses.replace(cfg, out_dir=args.out)
        if args.seed is not None:
            cfg = dataclasses.replace(
                cfg, mc=dataclasses.replace(cfg.mc, seed=args.seed))
        if args.mode is not None:
            cfg = dataclasses.replace(cfg, mode=args.mode)
        if args.command == "construct":
            return cmd_construct(cfg)
        if args.command == "verify":
            return cmd_verify(cfg, args.suite)
        if args.command == "density":
            return cmd_density(cfg, _parse_floats("--centers", args.centers),
                               args.r_min, args.r_max)
        if args.command == "mc-oracle":
            return cmd_mc_oracle(cfg)
        if args.command == "appendix-check":
            b_lists = [_parse_floats("--b", t) for t in args.b]
            return cmd_appendix_check(cfg, b_lists, args.eps_min,
                                      args.eps_max, args.placement)
        raise ValueError(f"unknown command {args.command!r}")
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
