"""Tests for the command-line front end: config handling, commands, artifacts."""

import csv
import io
import json
import math
import pathlib

import pytest

from nondini import cli, conformal
from nondini.cli import (
    DEFAULT_CONFIG,
    RunConfig,
    ThetaConfig,
    TraceConfig,
    config_echo,
    main,
    parse_config,
)
from nondini.hilbert import KHtildeTable
from nondini.measure import MCConfig
from nondini.modulus import ModulusSpec


def run_cli(*args) -> int:
    return main(list(args))


# -- configuration ---------------------------------------------------------------


def _leaves(doc, prefix=""):
    """{dotted key: value} of a config document."""
    out = {}
    for k, v in doc.items():
        out.update(_leaves(v, f"{prefix}{k}.") if isinstance(v, dict)
                   else {prefix + k: v})
    return out


def test_config_round_trip_default():
    doc = config_echo(DEFAULT_CONFIG)
    assert parse_config(json.loads(json.dumps(doc))) == DEFAULT_CONFIG


def test_config_round_trip_modified():
    cfg = RunConfig(theta=ThetaConfig(kind="power", gamma=0.5),
                    mode="lipschitz", c_prime_target=0.8,
                    amplitude_rule="uniform", K=5, beta=0.25,
                    trace=TraceConfig(x_lo=-2.0, x_hi=3.0, base_n=77),
                    mc=MCConfig(n_walkers=1234, seed=9, wos_epsilon=1e-5,
                                max_steps=500, far_radius=100.0),
                    out_dir="elsewhere")
    doc = config_echo(cfg)
    default = _leaves(config_echo(DEFAULT_CONFIG))
    assert len(default) == 15
    # every key differs from the default, theta.gamma by being echoed at all
    leaves = _leaves(doc)
    assert set(leaves) == set(default) | {"theta.gamma"}
    assert all(v != default.get(k) for k, v in leaves.items())
    assert parse_config(json.loads(json.dumps(doc))) == cfg


@pytest.mark.parametrize("kind, key", [("constant", "c"), ("power", "gamma")])
def test_theta_keys_only_for_their_kind(kind, key):
    # each kind reads at most one of c and gamma; the other is rejected, as
    # are both for log_inverse, and the echo holds only the key read
    other = "gamma" if key == "c" else "c"
    with pytest.raises(ValueError, match=f"theta.{other} is read only by"):
        parse_config({"theta": {"kind": kind, other: 0.5}})
    for k in ("c", "gamma"):
        with pytest.raises(ValueError, match=f"theta.{k} is read only by kind"):
            parse_config({"theta": {"kind": "log_inverse", k: 0.5}})
    cfg = parse_config({"theta": {"kind": kind, key: 0.5}})
    assert config_echo(cfg)["theta"] == {"kind": kind, key: 0.5}
    assert parse_config(json.loads(json.dumps(config_echo(cfg)))) == cfg
    # an unset key takes the modulus default and is not echoed
    unset = parse_config({"theta": {"kind": kind}})
    assert config_echo(unset)["theta"] == {"kind": kind}
    assert getattr(unset.theta.spec, key) == getattr(ModulusSpec(kind), key)


def test_readme_config_is_the_default():
    # the README's full document is the echo of DEFAULT_CONFIG, key for key
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("```json\n")[1].split("```")[0]  # its one JSON block
    assert json.loads(block) == config_echo(DEFAULT_CONFIG)
    assert parse_config(json.loads(block)) == DEFAULT_CONFIG


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config key: modee"):
        parse_config({"modee": "c1"})
    with pytest.raises(ValueError, match="mc.walkers"):
        parse_config({"mc": {"walkers": 10}})
    with pytest.raises(ValueError, match="theta.foo"):
        parse_config({"theta": {"foo": 1.0}})
    # every key must take effect: the unused tail tolerance is gone, and so
    # is quad_tol, which set only the interior paths of Phi
    with pytest.raises(ValueError, match="unknown config key: tail_tol"):
        parse_config({"tail_tol": 1e-8})
    with pytest.raises(ValueError, match="unknown config key: quad_tol"):
        parse_config({"quad_tol": 1e-9})


def test_config_rejects_wrong_types():
    with pytest.raises(ValueError, match="expected an integer"):
        parse_config({"K": 2.5})
    with pytest.raises(ValueError, match="expected an integer"):
        parse_config({"K": True})
    with pytest.raises(ValueError, match="expected a string"):
        parse_config({"mode": 5})
    with pytest.raises(ValueError, match="expected a number"):
        parse_config({"beta": "half"})
    # json.load reads NaN and Infinity; no config number may be non-finite
    for text, key in (('{"trace": {"x_hi": Infinity}}', "trace.x_hi"),
                      ('{"mc": {"wos_epsilon": Infinity}}', "mc.wos_epsilon"),
                      ('{"theta": {"kind": "constant", "c": NaN}}', "theta.c"),
                      ('{"beta": -Infinity}', "beta"),
                      ('{"c_prime_target": 1%s}' % ("0" * 400), "c_prime_target")):
        with pytest.raises(ValueError,
                           match=f"config key {key}: expected a finite number"):
            parse_config(json.loads(text))


def test_config_validation():
    with pytest.raises(ValueError, match=r"\(0, pi/2\)"):
        RunConfig(c_prime_target=2.0)
    with pytest.raises(ValueError, match="at least one jump"):
        RunConfig(K=0)
    with pytest.raises(ValueError, match="beta"):
        RunConfig(beta=1.5)
    with pytest.raises(ValueError, match="straddle 0"):
        RunConfig(trace=TraceConfig(x_lo=0.5))
    with pytest.raises(ValueError, match="base_n"):
        RunConfig(trace=TraceConfig(base_n=1))
    with pytest.raises(ValueError, match="unknown mode"):
        RunConfig(mode="linear")


def test_config_rejects_values_no_command_reads(tmp_path, capsys):
    # theta is checked by ModulusSpec and the rule name by the amplitude rules
    # when the config is parsed, even for commands that never read them
    with pytest.raises(ValueError, match="unknown amplitude rule 'bogus'"):
        parse_config({"amplitude_rule": "bogus"})
    with pytest.raises(ValueError, match="unknown modulus kind 'nope'"):
        parse_config({"theta": {"kind": "nope"}})
    with pytest.raises(ValueError, match="gamma > 0"):
        parse_config({"theta": {"kind": "power", "gamma": -1.0}})
    assert parse_config({"amplitude_rule": "uniform"}).amplitude_rule == "uniform"
    # sections are built before the keys beside them are checked, so with
    # both faults the theta section's is reported; each alone is reported too
    path = tmp_path / "bad.json"
    for doc, err in (({"amplitude_rule": "bogus", "theta": {"kind": "nope"}},
                      "modulus kind"),
                     ({"amplitude_rule": "bogus"}, "amplitude rule")):
        path.write_text(json.dumps(doc))
        assert run_cli("--config", str(path), "--out", str(tmp_path / "o"),
                       "appendix-check") == 1
        assert err in capsys.readouterr().err


def test_config_rejects_tabulated_theta(tmp_path, capsys):
    # a tabulated theta needs a grid, which only the library takes
    path = tmp_path / "tab.json"
    path.write_text(json.dumps({"theta": {"kind": "tabulated"}}))
    assert run_cli("--config", str(path), "--out", str(tmp_path / "o"),
                   "construct") == 1
    err = capsys.readouterr().err
    assert "library-only" in err and "ModulusSpec('tabulated', grid=...)" in err
    assert not (tmp_path / "o").exists()


def test_partial_config_uses_defaults():
    cfg = parse_config({"mode": "lipschitz", "K": 3})
    assert cfg.mode == "lipschitz"
    assert cfg.K == 3
    assert cfg.theta == DEFAULT_CONFIG.theta
    assert cfg.trace == DEFAULT_CONFIG.trace
    assert cfg.mc == DEFAULT_CONFIG.mc


# -- construct -------------------------------------------------------------------


def test_construct_writes_artifacts(tmp_path):
    out = tmp_path / "o"
    assert run_cli("--mode", "lipschitz", "--out", str(out), "construct") == 0
    lines = (out / "boundary.csv").read_text().splitlines()
    assert lines[0] == "x,re_phi,im_phi,abs_dphi,is_singular"
    assert len(lines) > 500
    prof = json.loads((out / "profile.json").read_text())
    assert prof["mode"] == "lipschitz"
    assert prof["c_prime"] == pytest.approx(math.pi / 4.0)
    assert len(prof["jumps"]) == 20
    assert prof["config"]["mode"] == "lipschitz"


def test_construct_deterministic(tmp_path):
    out = tmp_path / "o"
    assert run_cli("--mode", "lipschitz", "--out", str(out), "construct") == 0
    csv_1 = (out / "boundary.csv").read_bytes()
    json_1 = (out / "profile.json").read_bytes()
    assert run_cli("--mode", "lipschitz", "--out", str(out), "construct") == 0
    assert (out / "boundary.csv").read_bytes() == csv_1
    assert (out / "profile.json").read_bytes() == json_1


def test_construct_rejects_bad_config(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"c_prime_target": 2.0}))
    assert run_cli("--config", str(cfg), "construct") == 1
    assert "error:" in capsys.readouterr().err


# -- verify ----------------------------------------------------------------------


def test_verify_all_suite_passes(tmp_path, capsys):
    out = tmp_path / "v"
    assert run_cli("--mode", "lipschitz", "--out", str(out),
                   "verify", "--suite", "all") == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["passed"] is True
    names = {c["check"] for c in rep["checks"]}
    assert "hilbert/pv-oracle-agreement" in names
    assert "conformal/identity-ball-ratio" in names
    assert "measure/density-reciprocal-identity" in names
    for c in rep["checks"]:
        assert isinstance(c["measured"], float)
        assert c["passed"] is True
    text = capsys.readouterr().out
    assert "suite all: PASS" in text


def test_verify_c1_never_builds_the_table(tmp_path, monkeypatch):
    # the verify rows read pointwise Kf from the direct formulas; only the
    # boundary integrals, which evaluate Kf at thousands of nodes, need the
    # K Htilde table
    def refuse(cls, ev):
        raise AssertionError("verify built the K Htilde table")

    monkeypatch.setattr(KHtildeTable, "build", classmethod(refuse))
    out = tmp_path / "v"
    assert run_cli("--out", str(out), "verify", "--suite", "all") == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["config"]["mode"] == "c1"
    assert [c["passed"] for c in rep["checks"]] == [True] * 19


def test_verify_single_suite(tmp_path):
    out = tmp_path / "v"
    assert run_cli("--mode", "lipschitz", "--out", str(out),
                   "verify", "--suite", "appendix") == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["suite"] == "appendix"
    assert all(c["check"].startswith("appendix/") for c in rep["checks"])


def test_verify_hilbert_at_a_bridge_knot_point(tmp_path):
    # seed 2277 draws x = 0.720645..., 7.3e-5 from the bridge knot
    # x_1 + x_star, where the oracle's Richardson form stalled
    out = tmp_path / "v"
    assert run_cli("--out", str(out), "--seed", "2277", "verify", "--suite", "hilbert") == 0
    rep = json.loads((out / "report.json").read_text())
    row = next(c for c in rep["checks"] if c["check"] == "hilbert/pv-oracle-agreement")
    assert row["measured"] < 1e-12


def test_verify_rejects_unknown_suite():
    with pytest.raises(SystemExit):
        run_cli("--mode", "lipschitz", "verify", "--suite", "everything")


# -- density ---------------------------------------------------------------------


def test_density_command(tmp_path):
    out = tmp_path / "d"
    assert run_cli("--mode", "lipschitz", "--out", str(out), "density",
                   "--centers", "0.5,-0.5",
                   "--r-min", "0.00006", "--r-max", "0.004") == 0
    lines = (out / "density.csv").read_text().splitlines()
    assert lines[0] == "center_x,r,omega,length,ratio,flagged"
    assert len(lines) == 1 + 2 * 7  # 2 centers, 7 halvings from r_max to r_min
    rep = json.loads((out / "report.json").read_text())
    assert rep["flagged"] == []
    slopes = {c["x"]: c["fitted_slope"] for c in rep["centers"]}
    assert slopes[0.5] == pytest.approx(1.0 / 7.0, abs=1e-3)
    assert slopes[-0.5] == pytest.approx(0.0, abs=1e-3)


def test_density_r_beyond_coverage(tmp_path):
    # a ball is solved from its centre along the whole line, so radii whose
    # preimages reach far past the trace window [-1, 1.2] need no trace
    out = tmp_path / "d"
    assert run_cli("--mode", "lipschitz", "--out", str(out), "density",
                   "--centers", "0.5", "--r-min", "2.0", "--r-max", "16.0") == 0
    rows = list(csv.DictReader(io.StringIO((out / "density.csv").read_text())))
    assert [float(row["r"]) for row in rows] == [16.0, 8.0, 4.0, 2.0]
    assert float(rows[0]["omega"]) > 2.2


@pytest.mark.parametrize("mode", ["c1", "lipschitz"])
@pytest.mark.parametrize("argv", [
    ("density", "--centers", "0.5,0.25,0.7"),
    ("verify", "--suite", "measure"),
    ("verify", "--suite", "conformal"),
])
def test_balls_build_no_trace(tmp_path, monkeypatch, mode, argv):
    # density and verify's ball checks solve every ball from its centre
    def refuse(*args, **kw):
        raise AssertionError("a boundary trace was built")

    monkeypatch.setattr(conformal, "trace_boundary", refuse)
    monkeypatch.setattr(cli, "trace_boundary", refuse)
    monkeypatch.setattr(conformal.BoundaryTrace, "__post_init__", refuse)
    assert run_cli("--mode", mode, "--out", str(tmp_path / "o"), *argv) == 0


def test_density_needs_centers(tmp_path, capsys):
    out = tmp_path / "d"
    assert run_cli("--mode", "lipschitz", "--out", str(out), "density",
                   "--centers", "") == 1
    assert "at least one center" in capsys.readouterr().err


# -- mc-oracle and appendix-check --------------------------------------------------


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(json.dumps({
        "mode": "lipschitz",
        "trace": {"x_lo": -1.0, "x_hi": 1.2, "base_n": 60},
        "mc": {"n_walkers": 4000, "seed": 5, "wos_epsilon": 1e-4,
               "max_steps": 10000, "far_radius": 4096.0},
    }))
    return path


def test_mc_oracle_command(tmp_path, small_config):
    out = tmp_path / "m"
    assert run_cli("--config", str(small_config), "--out", str(out),
                   "mc-oracle") == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["passed"] is True
    assert rep["n_lost"] == 0
    assert rep["seed"] == 5
    assert len(rep["arcs"]) == 4
    for row in rep["arcs"]:
        assert abs(row["frequency"] - row["pullback_exact"]) \
            <= 3.0 * row["sigma"] + rep["resolution_term"]


def test_mc_oracle_seed_override(tmp_path, small_config):
    out = tmp_path / "m"
    assert run_cli("--config", str(small_config), "--out", str(out),
                   "--seed", "77", "mc-oracle") == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["seed"] == 77


def test_appendix_check_command(tmp_path):
    out = tmp_path / "a"
    assert run_cli("--out", str(out), "appendix-check",
                   "--eps-min", "0.0001") == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["passed"] is True
    assert len(rep["cases"]) == 3
    cases = {tuple(c["b"]): c for c in rep["cases"]}
    assert cases[(0.25,)]["fitted_slope"] == pytest.approx(0.75, abs=1e-3)
    assert cases[(0.125, 0.125)]["target_slope"] == 0.75


def test_appendix_check_dyadic_placement(tmp_path):
    out = tmp_path / "a"
    assert run_cli("--out", str(out), "appendix-check", "--b", "0.125,0.125",
                   "--eps-min", "0.0001", "--placement", "dyadic") == 0
    rep = json.loads((out / "report.json").read_text())
    case = rep["cases"][0]
    assert case["bound_ok"] and case["left_bound_ok"]
    assert case["fitted_slope"] == pytest.approx(1.0, abs=5e-3)


def test_list_parse_errors_name_their_flag(tmp_path, capsys):
    assert run_cli("--out", str(tmp_path / "a"), "appendix-check",
                   "--b", "0.1,x") == 1
    assert "could not parse --b '0.1,x'" in capsys.readouterr().err
    assert run_cli("--out", str(tmp_path / "d"), "density",
                   "--centers", "0.5,y") == 1
    assert "could not parse --centers '0.5,y'" in capsys.readouterr().err


def test_dyadic_ladders_need_two_rungs(tmp_path, capsys):
    assert run_cli("--out", str(tmp_path / "a"), "appendix-check",
                   "--eps-min", "0.05", "--eps-max", "0.0625") == 1
    assert "need at least two window sizes" in capsys.readouterr().err
    assert run_cli("--out", str(tmp_path / "d"), "density", "--centers", "0.5",
                   "--r-min", "0.01", "--r-max", "0.015") == 1
    assert ("need at least two dyadic radii between r_min and r_max"
            in capsys.readouterr().err)
    # bounds from which halving never ends are rejected, not looped on
    assert run_cli("--out", str(tmp_path / "a"), "appendix-check",
                   "--eps-min", "0") == 1
    assert "window sizes need finite, positive bounds" in capsys.readouterr().err
    assert run_cli("--out", str(tmp_path / "d"), "density", "--centers", "0.5",
                   "--r-max", "inf") == 1
    assert "need finite, positive bounds" in capsys.readouterr().err
