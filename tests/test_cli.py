"""Command-line contract: exit codes, file formats, determinism.

Everything runs in-process through selab.cli.main so coverage tools see
it and failures carry Python tracebacks instead of subprocess noise.
"""

import filecmp
import json
import re

import numpy as np
import pytest

from selab.cli import main
from selab.model import bundled_config_text
from selab.solver import default_schedule

T1 = "theorem1.cfg"
T2 = "theorem2.cfg"
T3 = "theorem3.cfg"


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ------------------------------------------------------------ exit codes


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "solve" in capsys.readouterr().out


def test_usage_errors_exit_three(capsys):
    assert main(["frobnicate"]) == 3
    assert main([]) == 3
    assert main(["solve"]) == 3  # --config is required
    assert main(["sweep", "--config", T3, "--points", "many"]) == 3
    err = capsys.readouterr().err
    assert "error" in err


def test_missing_config_exits_one(tmp_path, capsys):
    code = main(["eigen", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path)])
    assert code == 1
    assert "not found" in capsys.readouterr().err


# ------------------------------------------------------------ solve


def test_solve_writes_field_and_report(tmp_path):
    out = tmp_path / "run"
    assert main(["solve", "--config", T1, "--out", str(out)]) == 0
    assert (out / "u.csv").exists()
    rep = read_json(out / "report.json")
    assert set(rep) == {"converged", "iterations", "residual_inf",
                        "eps_path", "min_interior", "diagnostics"}
    assert rep["converged"] is True
    assert rep["residual_inf"] < 1e-8
    assert rep["min_interior"] > 0
    assert rep["diagnostics"]["verdict"] == "converged"
    assert rep["diagnostics"]["solution"] == "stage"


def test_solve_says_when_the_first_stage_fails(tmp_path):
    # theorem1 on n = 4095 at lambda = 10 collapses in its first stage
    # (a grid-dependent floor, see ROADMAP); the report says the field in
    # u.csv is the start, which is still written
    config = tmp_path / "fine.cfg"
    config.write_text(bundled_config_text(T1).replace("domain.n = 127",
                                                      "domain.n = 4095"))
    out = tmp_path / "run"
    assert main(["solve", "--config", str(config), "--lambda", "10",
                 "--out", str(out)]) == 2
    rep = read_json(out / "report.json")
    assert rep["eps_path"] == []
    assert rep["diagnostics"]["solution"] == "start"
    assert (out / "u.csv").exists()


def test_solve_nonexistence_exits_two(tmp_path):
    out = tmp_path / "run"
    assert main(["solve", "--config", T2, "--out", str(out)]) == 2
    rep = read_json(out / "report.json")
    assert rep["converged"] is False
    assert rep["diagnostics"]["verdict"] == "nonexistence-indicated"


def test_solve_custom_paths_and_overrides(tmp_path):
    report = tmp_path / "custom" / "r.json"
    code = main(["solve", "--config", T1, "--lambda", "0.5",
                 "--out", str(report)])
    assert code == 0
    # a JSON --out names the report; the field goes next to it
    assert (tmp_path / "custom" / "u.csv").exists()
    rep = read_json(report)
    assert rep["eps_path"] == default_schedule()


def test_solve_has_no_eps_schedule(tmp_path, capsys):
    # a one-stage ladder skipped both tail tests, so theorem2, which has
    # no solution at any lambda, read "converged" at lambda = 80
    code = main(["solve", "--config", T2, "--lambda", "80",
                 "--eps-schedule", "0.1", "--out", str(tmp_path)])
    assert code == 3
    assert "--eps-schedule" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()
    assert main(["solve", "--config", T2, "--lambda", "80",
                 "--out", str(tmp_path)]) == 2
    rep = read_json(tmp_path / "report.json")
    assert rep["diagnostics"]["verdict"] == "nonexistence-indicated"
    assert rep["diagnostics"]["mode"] == "mass-divergence"


def test_failed_solve_writes_strict_json(tmp_path):
    # theorem2's first stage fails at lambda = 1, so the residual is
    # infinite; JSON has no Infinity, and the report writes null
    assert main(["solve", "--config", T2, "--lambda", "1",
                 "--out", str(tmp_path)]) == 2

    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    text = (tmp_path / "report.json").read_text()
    rep = json.loads(text, parse_constant=refuse)
    assert rep["residual_inf"] is None
    assert rep["diagnostics"]["solution"] == "start"


@pytest.mark.parametrize("key, value", [("K.value", "1.0"), ("g.alpha", "0.5")])
def test_solve_refuses_a_config_value_that_is_not_finite(tmp_path, capsys,
                                                         key, value):
    # an infinite K or alpha read "nonexistence-indicated (stagnation)",
    # a verdict about a problem the model does not define
    config = tmp_path / "inf.cfg"
    config.write_text(bundled_config_text(T3).replace(f"{key} = {value}",
                                                      f"{key} = inf"))
    code = main(["solve", "--config", str(config), "--lambda", "20",
                 "--out", str(tmp_path)])
    assert code == 1
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("lam", ["inf", "nan"])
def test_solve_refuses_a_lambda_that_is_not_finite(tmp_path, capsys, lam):
    code = main(["solve", "--config", T3, "--lambda", lam,
                 "--out", str(tmp_path)])
    assert code == 1
    assert "lambda" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


# ------------------------------------------------------------ sweep


def test_sweep_csv_contract(tmp_path):
    out = tmp_path / "s"
    code = main(["sweep", "--config", T3, "--lambdas", "2,20,60",
                 "--out", str(out)])
    assert code == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "lambda,verdict,max_u,min_u,mass_integral"
    assert len(lines) == 4
    for line in lines[1:]:
        lam, verdict, max_u, min_u, mass = line.split(",")
        assert verdict in {"converged", "nonexistence-indicated"}
        assert float(max_u) >= float(min_u) >= 0.0
        assert float(mass) > 0.0
    assert float(lines[1].split(",")[0]) == 2.0


# ------------------------------------------------------------ lambda-star


def test_lambda_star_json_contract(tmp_path):
    out = tmp_path / "ls"
    code = main(["lambda-star", "--config", T3, "--iters", "4",
                 "--out", str(out)])
    assert code == 0
    est = read_json(out / "lambda_star.json")
    assert set(est) == {"lo", "hi", "iters", "lambda0", "grid_n", "sentinel",
                        "history", "refined_consistent", "lambda0_below_hi",
                        "fold"}
    assert est["lambda0"] == 1.0
    assert est["grid_n"] == 64
    assert 0.1 < est["lo"] < est["hi"] < 100.0
    assert est["sentinel"] is None
    assert [est["lo"], "nonexistence-indicated"] in est["history"]
    assert [est["hi"], "converged"] in est["history"]
    assert est["refined_consistent"] is True
    assert est["lambda0_below_hi"] is True
    assert est["lo"] < est["fold"] <= est["hi"]


def test_lambda_star_refuses_negative_iters(tmp_path, capsys):
    code = main(["lambda-star", "--config", T3, "--iters", "-3",
                 "--out", str(tmp_path)])
    assert code == 1
    assert "iters" in capsys.readouterr().err
    assert not (tmp_path / "lambda_star.json").exists()


def test_sweep_refuses_zero_points(tmp_path, capsys):
    code = main(["sweep", "--config", T3, "--points", "0",
                 "--out", str(tmp_path)])
    assert code == 1
    assert "at least one" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("bad", [["--points", "0"], ["--points", "-1"],
                                 ["--lambda-min", "0"],
                                 ["--lambda-min", "-1", "--lambda-max", "-0.5"]])
def test_sweep_refuses_every_bad_range_with_one_exit_code(tmp_path, capsys, bad):
    # --points -1 and --lambda-min 0 once failed in np.geomspace (exit 3),
    # the other two in lambda_sweep (exit 1)
    code = main(["sweep", "--config", T3, *bad, "--out", str(tmp_path)])
    assert code == 1
    assert "lambda range" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


# ------------------------------------------------------------ eigen / hode


def test_eigen_prints_closed_form(tmp_path, capsys):
    assert main(["eigen", "--config", T1, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    printed = float(re.search(r"lambda1=([^ ]+)", out).group(1))
    h = 1.0 / 128.0
    assert printed == pytest.approx(2.0 / h**2 * (1 - np.cos(np.pi * h)),
                                    rel=1e-12)
    assert (tmp_path / "phi1.csv").exists()


def test_hode_tabulates_profile(tmp_path):
    code = main(["hode", "--config", T3, "--alpha", "0.5",
                 "--T", "1.0", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "hprofile.csv").read_text().strip().splitlines()
    assert lines[0] == "t,h,dh"
    h_vals = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(h_vals) > 10
    assert all(b >= a for a, b in zip(h_vals, h_vals[1:]))


@pytest.mark.parametrize("T", ["nan", "inf", "0"])
def test_hode_refuses_a_cap_that_is_not_positive_and_finite(tmp_path, capsys, T):
    code = main(["hode", "--config", T3, "--alpha", "0.5", "--T", T,
                 "--out", str(tmp_path)])
    assert code == 1
    assert "T must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "hprofile.csv").exists()


def test_hode_refuses_a_profile_that_overflows(tmp_path, capsys):
    # T = 1e308 is finite, but h = c t^(4/3) at alpha = 1/2 is not
    code = main(["hode", "--config", T3, "--alpha", "0.5", "--T", "1e308",
                 "--out", str(tmp_path)])
    assert code == 1
    assert "T = 1e+308" in capsys.readouterr().err
    assert not (tmp_path / "hprofile.csv").exists()


def test_hode_nonintegrable_exits_one(tmp_path, capsys):
    code = main(["hode", "--config", T3, "--alpha", "1.5",
                 "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err


# ------------------------------------------------------------ construct


def test_construct_json_keys(tmp_path):
    out = tmp_path / "c"
    code = main(["construct", "--config", T3, "--kind", "sub-eigen",
                 "--lambda", "150", "--out", str(out)])
    assert code == 0
    meta = read_json(out / "sub_eigen.json")
    assert set(meta) == {"kind", "M", "delta", "lambda_threshold",
                         "c1", "c2", "residual_max", "certificate_violations"}
    assert meta["M"] is not None and meta["delta"] is not None
    assert meta["lambda_threshold"] is not None
    assert meta["certificate_violations"] == 0
    assert (out / "sub_eigen.csv").exists()

    code = main(["construct", "--config", T3, "--kind", "super",
                 "--out", str(out)])
    assert code == 0
    sup = read_json(out / "super.json")
    assert set(sup) == set(meta)
    assert sup["c1"] is not None and sup["c2"] is not None
    assert sup["lambda_threshold"] is None


def test_construct_super_with_negative_k_needs_epsilon(tmp_path, capsys):
    # theorem1 has K < 0 and epsilon = 0: the lift K^- g(epsilon) is infinite
    argv = ["construct", "--kind", "super", "--out", str(tmp_path), "--config"]
    assert main(argv + [T1]) == 1
    assert "epsilon" in capsys.readouterr().err
    config = tmp_path / "eps.cfg"
    config.write_text(bundled_config_text(T1) + "epsilon = 1e-3\n")
    assert main(argv + [str(config)]) == 0


def test_construct_below_threshold_exits_one(tmp_path, capsys):
    code = main(["construct", "--config", T3, "--kind", "sub-eigen",
                 "--lambda", "5", "--out", str(tmp_path)])
    assert code == 1
    assert "lambda" in capsys.readouterr().err


# ------------------------------------------------------------ compare


def test_compare_certified_pair(tmp_path):
    out = tmp_path / "cmp"
    # pull the certificate threshold off a construct run, then pair the
    # eigen sub-solution with the envelope at twice that lambda
    assert main(["construct", "--config", T3, "--kind", "sub-eigen",
                 "--lambda", "150", "--out", str(out)]) == 0
    thr = read_json(out / "sub_eigen.json")["lambda_threshold"]
    lam = repr(2.0 * thr)
    assert main(["construct", "--config", T3, "--kind", "sub-eigen",
                 "--lambda", lam, "--out", str(out)]) == 0
    assert main(["construct", "--config", T3, "--kind", "super",
                 "--lambda", lam, "--out", str(out)]) == 0
    code = main(["compare", "--config", T3, "--lambda", lam,
                 str(out / "sub_eigen.csv"), str(out / "super.csv"),
                 "--out", str(out)])
    assert code == 0
    rep = read_json(out / "compare.json")
    assert rep["verdict"] == "ordered"
    assert rep["max_violation"] <= 1e-8
    assert rep["sub_share"] == 1.0 and rep["super_share"] == 1.0


def test_compare_wrong_grid_exits_one(tmp_path, capsys):
    out = tmp_path / "w"
    assert main(["construct", "--config", T3, "--kind", "super",
                 "--out", str(out)]) == 0
    # theorem2's grid has 127 nodes, the saved field 64: must refuse
    code = main(["compare", "--config", T2,
                 str(out / "super.csv"), str(out / "super.csv"),
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_compare_refuses_a_field_that_is_not_finite(tmp_path, capsys, bad):
    # one nan read "hypotheses-not-met" with a NaN max_violation, one inf
    # a finite max_violation; both exited 0
    out = tmp_path / "f"
    assert main(["construct", "--config", T3, "--kind", "super",
                 "--out", str(out)]) == 0
    lines = (out / "super.csv").read_text().splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + "," + bad
    (out / "bad.csv").write_text("\n".join(lines) + "\n")
    code = main(["compare", "--config", T3, str(out / "super.csv"),
                 str(out / "bad.csv"), "--out", str(out)])
    assert code == 1
    assert "finite" in capsys.readouterr().err
    assert not (out / "compare.json").exists()


def test_compare_refuses_a_field_off_the_grid_nodes(tmp_path, capsys):
    # every row at x = 7.5, outside the unit interval, with the values
    # reversed: the coordinates were never read, and this exited 0 with
    # "hypotheses-not-met"
    out = tmp_path / "m"
    assert main(["construct", "--config", T3, "--kind", "super",
                 "--out", str(out)]) == 0
    header, *rows = (out / "super.csv").read_text().splitlines()
    values = [row.split(",")[1] for row in rows][::-1]
    (out / "moved.csv").write_text(
        "\n".join([header] + [f"7.5,{v}" for v in values]) + "\n")
    code = main(["compare", "--config", T3, str(out / "super.csv"),
                 str(out / "moved.csv"), "--out", str(out)])
    assert code == 1
    assert "grid node" in capsys.readouterr().err
    assert not (out / "compare.json").exists()


# ------------------------------------------------------------ determinism


def test_identical_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["solve", "--config", T1, "--lambda", "0.5",
                     "--out", str(out)]) == 0
    assert filecmp.cmp(a / "u.csv", b / "u.csv", shallow=False)
    assert filecmp.cmp(a / "report.json", b / "report.json", shallow=False)


def test_disk_config_wins_over_bundled(tmp_path, capsys):
    # a local file with the same basename must shadow the bundled config
    text = bundled_config_text(T3).replace("domain.n = 64", "domain.n = 16")
    local = tmp_path / T3
    local.write_text(text)
    assert main(["eigen", "--config", str(local), "--out", str(tmp_path)]) == 0
    printed = float(re.search(r"lambda1=([^ ]+)",
                              capsys.readouterr().out).group(1))
    h = 1.0 / 17.0
    assert printed == pytest.approx(2.0 / h**2 * (1 - np.cos(np.pi * h)),
                                    rel=1e-12)


# ------------------------------------------------------------ verify


def test_verify_filter(capsys):
    assert main(["verify", "--only", "eigenpair"]) == 0
    out = capsys.readouterr().out
    assert "eigenpair" in out and "PASS" in out


def test_verify_empty_filter_exits_three(capsys):
    assert main(["verify", "--only", "zzz-no-such-check"]) == 3
    assert "no check matches" in capsys.readouterr().err
