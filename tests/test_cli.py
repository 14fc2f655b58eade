import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ybverify
from ybverify import cli, integrate, relations
from ybverify.cli import console_main, main

from test_repo import _load_spans


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_pass_exit_zero(capsys):
    code, out, err = run_cli(["check", "ybe", "--d", "2"], capsys)
    assert code == 0
    payload = json.loads(out.strip())
    assert payload["status"] == "pass"
    assert payload["check"] == "ybe"
    assert "ok" in err


def test_check_fail_exit_one(capsys):
    code, out, _ = run_cli(["check", "ybe", "--d", "4", "--perturb-k", "2"], capsys)
    assert code == 1
    payload = json.loads(out.strip())
    assert payload["status"] == "fail"
    assert "at entry" in payload["detail"]


def test_unknown_check_exit_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["check", "nonsense"])
    assert err.value.code == 2


def test_pole_is_config_error(capsys):
    code, _, err = run_cli(["check", "ybe", "--d", "4", "--u", "-2",
                            "--norm", "unit"], capsys)
    assert code == 2
    assert "error" in err


def test_bad_fraction_exit_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["check", "ybe", "--u", "0.5x"])
    assert err.value.code == 2


def test_run_default_suite_small(capsys):
    code, out, err = run_cli(["run", "--all", "--d-list", "2"], capsys)
    assert code == 0, err
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert all(item["status"] in ("pass", "skipped") for item in lines)
    assert any(item["check"] == "ybe" for item in lines)
    assert any(item["check"] == "d6_reduction" for item in lines)


def test_run_byte_identical(capsys):
    code1, out1, _ = run_cli(["run", "--all", "--d-list", "2"], capsys)
    code2, out2, _ = run_cli(["run", "--all", "--d-list", "2"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_run_timings_flag(capsys):
    _, out, _ = run_cli(["check", "exchange_identities", "--d", "4", "--timings"],
                        capsys)
    payload = json.loads(out.strip())
    assert payload["elapsed_ms"] >= 0
    _, out, _ = run_cli(["check", "exchange_identities", "--d", "4"], capsys)
    assert json.loads(out.strip())["elapsed_ms"] == 0


def test_run_suite_file(tmp_path, capsys):
    suite = [
        {"check": "ybe", "params": {"d": 2, "u": "1/2", "v": "1/3"}},
        {"check": "unitarity", "params": {"d": 2, "u": "1/3", "norm": "product"}},
        {"check": "asym", "params": {"d": 4, "quantum": "spinor"}},
    ]
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite))
    code, out, _ = run_cli(["run", "--suite", str(path)], capsys)
    assert code == 1  # the spinor asym verdict is a recorded FAIL
    lines = [json.loads(line) for line in out.strip().splitlines()]
    # aggregation is sorted by check id, then params
    assert [(item["check"], item["status"]) for item in lines] \
        == [("asym", "fail"), ("unitarity", "pass"), ("ybe", "pass")]


def test_run_suite_unknown_check(tmp_path, capsys):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps([{"check": "bogus"}]))
    code, _, err = run_cli(["run", "--suite", str(path)], capsys)
    assert code == 2


def test_run_suite_corrupted_coefficient_fixture(tmp_path, capsys):
    # negative-control fixture: one intentionally corrupted coefficient
    suite = [{"check": "ybe",
              "params": {"d": 4, "u": "1/2", "v": "1/3", "perturb_k": 3}}]
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite))
    code, out, _ = run_cli(["run", "--suite", str(path)], capsys)
    assert code == 1
    payload = json.loads(out.strip())
    assert payload["status"] == "fail"
    assert "at entry (" in payload["detail"]


def test_budget_flag_skips(capsys):
    code, out, _ = run_cli(["check", "ybe", "--d", "4", "--budget-dim", "50"], capsys)
    assert code == 0
    assert json.loads(out.strip())["status"] == "skipped"


@pytest.mark.parametrize("env,flag", [("abc", []), ("-3", []),
                                      (None, ["--budget-dim", "0"]),
                                      (None, ["--budget-dim", "-1"])])
def test_bad_budget_is_config_error(capsys, monkeypatch, env, flag):
    # a cap of 0 used to skip 15 of the 24 d=2 checks and exit 0, and a
    # non-integer env value used to turn every bounded job into a FAIL
    if env is None:
        monkeypatch.delenv("YBV_BUDGET_DIM", raising=False)
    else:
        monkeypatch.setenv("YBV_BUDGET_DIM", env)
    code, out, err = run_cli(["run", "--all", "--d-list", "2", *flag], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("ybv: error: ") and "positive integer" in err


def test_bad_budget_in_suite_file_is_config_error(tmp_path, capsys):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps([{"check": "ybe", "params": {"d": 2, "budget_dim": 0}}]))
    code, out, err = run_cli(["run", "--suite", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("ybv: error: ") and "positive integer" in err


def test_d_list_above_max_d_is_config_error(capsys):
    code, out, err = run_cli(["run", "--all", "--d-list", "12"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("ybv: error: ") and "2 <= d <= 10" in err


@pytest.mark.parametrize("check", ["local_ybe", "integrand_symmetry"])
@pytest.mark.parametrize("points", ["0", "-1"])
def test_nonpositive_points_is_config_error(capsys, check, points):
    code, out, err = run_cli(["check", check, "--d", "2", "--points", points], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("ybv: error: ") and "positive integer" in err


def _run_suite(tmp_path, capsys, suite):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite))
    return run_cli(["run", "--suite", str(path)], capsys)


def test_nonpositive_points_in_suite_file_is_config_error(tmp_path, capsys):
    code, out, err = _run_suite(tmp_path, capsys,
                                [{"check": "local_ybe", "params": {"d": 2, "points": 0}}])
    assert code == 2
    assert out == ""
    assert err.startswith("ybv: error: ") and "positive integer" in err


@pytest.mark.parametrize("check", [c for c, entry in cli.CHECKS.items() if not entry.exact])
@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_tol_that_is_not_finite_and_positive_is_config_error(tmp_path, capsys, check, tol):
    with pytest.raises(SystemExit) as err:
        main(["check", check, f"--tol={tol}"])
    assert err.value.code == 2
    assert "finite and positive" in capsys.readouterr().err
    code, out, err = _run_suite(tmp_path, capsys, [{"check": check, "params": {"tol": tol}}])
    assert code == 2
    assert out == ""
    assert err.startswith("ybv: error: ") and "finite and positive" in err


def test_suite_file_rejects_params_no_check_option_has(tmp_path, capsys):
    # generating_product reads its point from u and v; an x would be ignored
    suite = [{"check": "generating_product", "params": {"d": 2, "x": "1/5", "y": "1/7"}}]
    code, out, err = _run_suite(tmp_path, capsys, suite)
    assert code == 2
    assert out == ""
    assert err.startswith("ybv: error: ") and "unknown params x" in err
    suite[0]["params"] = {"d": 2, "u": "1/5", "v": "1/7"}
    code, out, _ = _run_suite(tmp_path, capsys, suite)
    assert code == 0
    assert json.loads(out)["params"] == {"d": 2, "x": "1/5", "y": "1/7"}


def test_suite_file_y_parses_as_float(tmp_path, capsys):
    suite = [{"check": "rfun", "params": {"d": 2, "u": "1", "y": "-1"}}]
    code, out, _ = _run_suite(tmp_path, capsys, suite)
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"
    assert payload["params"]["y"] == -1.0 and payload["params"]["u"] == 1.0


def test_pole_in_suite_job_is_a_fail(tmp_path, capsys):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps([{"check": "ybe",
                                 "params": {"d": 4, "u": "-2", "norm": "unit"}}]))
    code, out, _ = run_cli(["run", "--suite", str(path)], capsys)
    assert code == 1
    payload = json.loads(out.strip())
    assert payload["status"] == "fail" and payload["exact"] is True
    assert payload["detail"] == \
        "error: recurrence pole at k=0: u + d - 2 - k = 0 for u=-2, d=4"
    # the job's own params, not every run option
    assert payload["params"] == {"d": "4", "norm": "unit", "u": "-2"}


def test_weight_poles_in_suite_jobs(tmp_path, capsys):
    # a pole of A(u) or B(u) is a FAIL line; d6paper at u = -4 resolves its
    # 0/0 weight and passes
    jobs = [{"check": "unitarity", "params": {"d": 4, "u": u, "norm": norm}}
            for u, norm in (("0", "unit"), ("-1", "beta"))]
    jobs.append({"check": "unitarity", "params": {"d": 6, "u": "-4", "norm": "d6paper"}})
    code, out, err = _run_suite(tmp_path, capsys, jobs)
    assert code == 1
    assert err.splitlines() == [
        "FAIL  unitarity                d=4 norm=beta u=-1 "
        "[error: B(u) weight singular at u = -1]",
        "FAIL  unitarity                d=4 norm=unit u=0 "
        "[error: A(u) weight singular at u = 0]",
        "ok   unitarity                d=6 norm=d6paper u=-4"]
    assert [(p["status"], p["params"]["u"], p["detail"])
            for p in map(json.loads, out.splitlines())] == [
        ("fail", "-1", "error: B(u) weight singular at u = -1"),
        ("fail", "0", "error: A(u) weight singular at u = 0"),
        ("pass", "-4", "h+ = -15, h- = 0 (naive matrix convention)")]
    code, out, err = run_cli(["check", "unitarity", "--d", "4", "--u", "0",
                              "--norm", "unit"], capsys)
    assert (code, out) == (2, "")
    assert err == "ybv: error: A(u) weight singular at u = 0\n"


@pytest.mark.parametrize("k", [5, -1])
def test_perturb_k_outside_the_table_is_config_error(tmp_path, capsys, k):
    # 5 used to die with an IndexError (exit 3), -1 to perturb R_4
    code, out, err = run_cli(["check", "ybe", "--d", "4", "--perturb-k", str(k)], capsys)
    assert (code, out, err) == (2, "", f"ybv: error: perturb_k={k} is outside 0..4\n")
    job = {"check": "ybe", "params": {"d": 4, "perturb_k": k}}
    assert _run_suite(tmp_path, capsys, [job]) == (code, out, err)
    # the last entry is still a located FAIL
    code, out, _ = run_cli(["check", "ybe", "--d", "4", "--perturb-k", "4"], capsys)
    assert code == 1
    assert json.loads(out)["detail"] == "YBE: first residual -5/36 at entry (1,1)"


@pytest.mark.parametrize("d", [4, 10])
def test_perturb_k_range_is_checked_before_the_budget(tmp_path, capsys, d):
    # at d=10 the default budget skips ybe; a bad k used to print a skip
    # line and exit 0 there
    code, out, err = run_cli(["check", "ybe", "--d", str(d), "--perturb-k", "50"], capsys)
    assert (code, out, err) == (2, "", f"ybv: error: perturb_k=50 is outside 0..{d}\n")
    job = {"check": "ybe", "params": {"d": d, "perturb_k": 50}}
    assert _run_suite(tmp_path, capsys, [job]) == (code, out, err)
    code, out, _ = run_cli(["check", "ybe", "--d", "10", "--perturb-k", "10"], capsys)
    assert code == 0 and json.loads(out)["status"] == "skipped"


def test_perturb_k_that_cannot_fail_is_config_error(tmp_path, capsys):
    # the d=2 Yang-Baxter relation holds for any R_1, so this control used
    # to PASS and exit 0
    want = (2, "", "ybv: error: perturb_k=1 cannot fail at d=2: the d=2 Yang-Baxter "
                   "relation holds for any R_1\n")
    for argv in (["--d", "2", "--perturb-k", "1"],
                 ["--d", "2", "--perturb-k", "1", "--budget-dim", "1"]):
        assert run_cli(["check", "ybe", *argv], capsys) == want
    job = {"check": "ybe", "params": {"d": 2, "perturb_k": 1}}
    assert _run_suite(tmp_path, capsys, [job]) == want
    code, out, _ = run_cli(["check", "ybe", "--d", "2", "--perturb-k", "2"], capsys)
    assert code == 1
    assert json.loads(out)["detail"] == "YBE: first residual -1/2 at entry (2,1)"


@pytest.mark.parametrize("norm", ["unit", "beta"])
def test_perturb_k_under_a_constant_table_is_config_error(tmp_path, capsys, norm):
    # no d=2 unit or beta coefficient depends on u, so these controls used
    # to PASS and exit 0, for every k and rep
    for k in (0, 2):
        want = (2, "", f"ybv: error: perturb_k={k} cannot fail at d=2 under the {norm} "
                       "normalization: no coefficient depends on u\n")
        for rep in ("naive", "primed", "doubleprimed"):
            argv = ["--d", "2", "--norm", norm, "--rep", rep, "--perturb-k", str(k)]
            assert run_cli(["check", "ybe", *argv], capsys) == want
            assert run_cli(["check", "ybe", *argv, "--budget-dim", "1"], capsys) == want
        job = {"check": "ybe", "params": {"d": 2, "norm": norm, "perturb_k": k}}
        assert _run_suite(tmp_path, capsys, [job]) == want


@pytest.mark.parametrize("check_id", ["rll_quantum", "three_term", "unitarity", "local_ybe"])
def test_perturb_k_on_a_check_that_ignores_it_is_config_error(tmp_path, capsys, check_id):
    # only ybe perturbs R_k; elsewhere the negative control used to pass
    # unperturbed
    code, out, err = run_cli(["check", check_id, "--d", "4", "--perturb-k", "2"], capsys)
    assert (code, out) == (2, "")
    assert err == f"ybv: error: the {check_id} check does not read perturb_k\n"
    job = {"check": check_id, "params": {"d": 4, "perturb_k": 2}}
    assert _run_suite(tmp_path, capsys, [job]) == (code, out, err)


def test_non_finite_value_is_the_same_fail_in_check_and_suite(tmp_path, capsys, monkeypatch):
    # an ArithmeticError inside a check is a verdict under `check` too, not a
    # program bug; the error line of a float check says exact: false
    monkeypatch.setattr(integrate, "quad", lambda *args, **kwargs: (math.nan, math.nan))
    code, out, err = run_cli(["check", "beta_integral", "--d", "2"], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "fail" and payload["exact"] is False
    assert payload["params"] == {"d": "2"}
    assert payload["detail"].startswith("error: ") and "non-finite" in payload["detail"]
    suite_code, suite_out, suite_err = _run_suite(
        tmp_path, capsys, [{"check": "beta_integral", "params": {"d": 2}}])
    assert (suite_code, suite_out, suite_err) == (code, out, err)


@pytest.mark.parametrize("check,params", [
    ("ybe", {"d": 3}),
    ("rll_quantum", {"d": 2, "quantum": "bogus"}),
    ("three_term", {"d": 2, "signs": "++"}),
    ("beta_integral", {"d": 2, "parity": "weird"}),
    ("local_ybe", {"d": 2, "seed": "abc"}),
    ("generating_product", {"d": 2, "u": "2", "v": "1/2"}),  # xy = 1
])
def test_suite_file_bad_option_is_config_error(tmp_path, capsys, check, params):
    code, out, err = _run_suite(tmp_path, capsys, [{"check": check, "params": params}])
    assert code == 2
    assert out == ""
    assert err.startswith("ybv: error: ")


@pytest.mark.parametrize("suite", [{"check": "ybe"}, [1], [{"check": "ybe", "params": []}]])
def test_suite_file_that_is_no_list_of_jobs_is_config_error(tmp_path, capsys, suite):
    code, out, err = _run_suite(tmp_path, capsys, suite)
    assert code == 2
    assert out == ""
    assert err.startswith("ybv: error: ") and "a suite file is a list of" in err


@pytest.mark.parametrize("key", ["format", "timings"])
def test_suite_file_output_options_are_unknown_params(tmp_path, capsys, key):
    suite = [{"check": "ybe", "params": {"d": 2, key: "json"}}]
    code, out, err = _run_suite(tmp_path, capsys, suite)
    assert code == 2
    assert out == ""
    assert f"unknown params {key}" in err


# one job per check id (triple_integral is slow) with options away from their
# defaults; the string values parse as the command line parses them
SAME_AS_CHECK = [
    ("ybe", {"d": "4", "u": "2/3", "v": "1/5", "perturb_k": "1"}),
    ("ybe", {"d": 2, "norm": "unit", "rep": "naive"}),
    ("three_term", {"d": 4, "signs": "+-+", "rep": "doubleprimed"}),
    ("fundamental_ybe", {"d": 4, "u": "1/3", "v": "2"}),
    ("rll_fundamental", {"d": 2, "norm": "unit", "rep": "naive"}),
    ("rll_quantum", {"d": 4, "quantum": "spinor"}),
    ("asym", {"d": 4, "quantum": "spinor"}),
    ("unitarity", {"d": 2, "u": "1/3", "norm": "beta"}),
    ("symmetries", {"d": 2, "u": "3", "rep": "naive"}),
    ("epsilon_projector_limit", {"d": 4}),
    ("d6_reduction", {"u": "2"}),
    ("exchange_identities", {"d": 2}),
    ("generating_product", {"d": 2, "u": "1/5", "v": "1/7"}),
    ("local_ybe", {"d": 2, "points": 1, "seed": 7, "tol": 1e-6}),
    ("integrand_symmetry", {"d": 2, "points": 1, "seed": 7}),
    ("beta_integral", {"d": 4, "u": "1", "k": "1", "parity": "odd", "tol": "1e-3"}),
    ("rfun", {"d": 2, "u": "1", "y": -0.5}),
    ("unitarity_integral", {"d": 2, "k": 1}),
]


def _argv(check, params):
    return ["check", check, *(arg for key, value in params.items()
                              for arg in (f"--{key.replace('_', '-')}", str(value)))]


@pytest.mark.parametrize("check,params", SAME_AS_CHECK)
def test_suite_job_prints_what_check_prints(tmp_path, capsys, check, params):
    code, out, _ = run_cli(_argv(check, params), capsys)
    assert out
    # the suite sorts the lines of a job that reports several
    want = code, sorted(out.splitlines())
    code, out, _ = _run_suite(tmp_path, capsys, [{"check": check, "params": params}])
    assert (code, sorted(out.splitlines())) == want


# the job options each check reads, written out by hand rather than read back
# from the registry in cli.py
READS = {
    "ybe": "d u v norm rep budget_dim perturb_k",
    "three_term": "d u v signs norm rep budget_dim",
    "fundamental_ybe": "d u v budget_dim",
    "rll_fundamental": "d u v norm rep budget_dim",
    "rll_quantum": "d u v quantum norm rep budget_dim",
    "asym": "d quantum",
    "unitarity": "d u norm",
    "symmetries": "d u norm rep",
    "epsilon_projector_limit": "d",
    "d6_reduction": "u",
    "exchange_identities": "d budget_dim",
    "generating_product": "d u v",
    "local_ybe": "d seed points tol budget_dim",
    "integrand_symmetry": "d u v seed points tol",
    "beta_integral": "d u k parity tol",
    "rfun": "d u y tol",
    "unitarity_integral": "d u k tol",
    "triple_integral": "d u v tol",
}
# one value for each job option, valid for every check that reads it; d stays
# at 4, where the two recorded FAILs below fail (at d=2 both pass)
OPTION_VALUES = {"d": "4", "u": "2/3", "v": "1/5", "norm": "unit", "rep": "naive",
                 "tol": "1e-3", "seed": "7", "budget_dim": "100000", "signs": "+-+",
                 "quantum": "spinor", "k": "1", "parity": "odd", "points": "1",
                 "y": "-0.5", "perturb_k": "1"}
UNREAD = [(check, option) for check, reads in READS.items()
          for option in OPTION_VALUES if option not in reads.split()]
# triple_integral is slow
READ = [(check, option) for check, reads in READS.items() if check != "triple_integral"
        for option in reads.split()]
# the recorded FAILs: the spinor asym verdict and the perturbed ybe control
FAILS = {("asym", "quantum"), ("ybe", "perturb_k")}


def test_every_check_and_job_option_has_a_row():
    assert set(READS) == set(cli.CHECKS)
    assert set(OPTION_VALUES) == set(cli.JOB_DEFAULTS)


@pytest.mark.parametrize("check,option", UNREAD)
def test_option_a_check_does_not_read_is_config_error(tmp_path, capsys, check, option):
    # a value nothing reads used to be dropped, and the check passed without it
    params = {option: OPTION_VALUES[option]}
    got = run_cli(_argv(check, params), capsys)
    assert got == (2, "", f"ybv: error: the {check} check does not read {option}\n")
    assert _run_suite(tmp_path, capsys, [{"check": check, "params": params}]) == got


@pytest.mark.parametrize("check,option", READ)
def test_option_a_check_reads_is_accepted(tmp_path, capsys, check, option):
    params = {key: OPTION_VALUES[key] for key in ("d", "points", option)
              if key in READS[check].split()}
    code, out, _ = run_cli(_argv(check, params), capsys)
    assert code == (1 if (check, option) in FAILS else 0)
    assert out
    suite_code, suite_out, _ = _run_suite(tmp_path, capsys, [{"check": check, "params": params}])
    assert (suite_code, sorted(suite_out.splitlines())) == (code, sorted(out.splitlines()))


@pytest.mark.parametrize("check,params", [
    ("epsilon_projector_limit", {"d": 4, "norm": "unit"}),
    ("d6_reduction", {"d": 4}),
    ("unitarity", {"d": 4, "v": "7", "k": 3, "seed": 3}),
    ("asym", {"d": 4, "u": "3"}),
    ("ybe", {"d": 4, "signs": "+--", "quantum": "spinor", "tol": 1e-30}),
])
def test_options_that_used_to_be_dropped_are_config_errors(tmp_path, capsys, check, params):
    code, out, err = run_cli(_argv(check, params), capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"ybv: error: the {check} check does not read ")
    assert _run_suite(tmp_path, capsys, [{"check": check, "params": params}]) == (code, out, err)


def test_run_options_are_inherited_by_the_checks_that_read_them(capsys):
    # run's options are defaults for its jobs, not options set on each check
    code, out, _ = run_cli(["run", "--all", "--d-list", "2", "--norm", "unit",
                            "--tol", "1e-6", "--seed", "3", "--budget-dim", "5000"], capsys)
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert {line["status"] for line in lines} == {"pass"}
    assert {"epsilon_projector_limit", "local_ybe", "unitarity"} <= {p["check"] for p in lines}


SPANS = _load_spans()
# the float checks whose function perfbench does not wrap
UNTRACED_FLOAT_CHECKS = {"integrand_symmetry": "localyb.integrand_symmetry_check",
                         "triple_integral": "quadrature.check_triple_integral"}


def test_registry_splits_exact_and_float_as_the_tracer_does():
    exact = {check for check, entry in cli.CHECKS.items() if entry.exact}
    assert exact == set(SPANS.CHECK_IDS)
    assert set(cli.CHECKS) - exact == set(SPANS.FLOAT_CHECKS) | set(UNTRACED_FLOAT_CHECKS)


@pytest.mark.parametrize("check,function", [
    *((check, f"relations.check_{check}") for check in SPANS.CHECK_IDS),
    *SPANS.FLOAT_CHECKS.items(), *UNTRACED_FLOAT_CHECKS.items()])
def test_every_check_looks_up_its_function_when_it_runs(monkeypatch, check, function):
    # the tracer swaps module attributes; a function stored at import time
    # would escape it, and a traced suite would record no span for the check
    def broken(*args, **kwargs):
        raise TypeError("planted bug")

    module, name = function.split(".")
    monkeypatch.setattr(importlib.import_module(f"ybverify.{module}"), name, broken)
    with pytest.raises(TypeError, match="planted bug"):
        main(["check", check])


@pytest.mark.parametrize("check", ["ybe", "rll_fundamental"])
def test_d_above_max_d_is_config_error_not_a_skip(capsys, monkeypatch, check):
    monkeypatch.delenv("YBV_BUDGET_DIM", raising=False)
    code, out, err = run_cli(["check", check, "--d", "12"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("ybv: error: ") and "2 <= d <= 10" in err


def test_d_above_max_d_runs_where_no_basis_is_built(capsys, monkeypatch):
    monkeypatch.delenv("YBV_BUDGET_DIM", raising=False)
    code, out, _ = run_cli(["check", "fundamental_ybe", "--d", "12"], capsys)
    assert code == 0
    assert json.loads(out)["status"] == "pass"
    code, out, _ = run_cli(["check", "ybe", "--d", "8"], capsys)
    assert code == 0
    assert json.loads(out)["status"] == "skipped"


def test_ybe_at_the_maximum_d_passes_and_a_planted_defect_fails(capsys):
    code, out, _ = run_cli(["check", "ybe", "--d", "10", "--budget-dim", "100000"], capsys)
    assert code == 0
    assert json.loads(out)["status"] == "pass"
    code, out, _ = run_cli(["check", "ybe", "--d", "10", "--budget-dim", "100000",
                            "--perturb-k", "3"], capsys)
    assert code == 1
    assert json.loads(out)["detail"] == "YBE: first residual 25796225/8748 at entry (1,529)"


def test_local_ybe_respects_budget(capsys, monkeypatch):
    monkeypatch.delenv("YBV_BUDGET_DIM", raising=False)
    code, out, _ = run_cli(["check", "local_ybe", "--d", "8"], capsys)
    assert code == 0
    (payload,) = [json.loads(line) for line in out.splitlines()]
    assert payload["status"] == "skipped"
    assert payload["check"] == "local_ybe"


def test_program_bug_is_not_a_verdict(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("planted bug")

    monkeypatch.setattr(relations, "check_unitarity", broken)
    with pytest.raises(TypeError, match="planted bug"):
        main(["run", "--all", "--d-list", "2"])


def test_console_entry_exits_three_on_a_program_bug(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise TypeError("planted bug")

    monkeypatch.setattr(relations, "check_unitarity", broken)
    assert console_main(["check", "unitarity", "--d", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" in captured.err and "TypeError: planted bug" in captured.err
    # verdicts and configuration errors keep their codes
    assert console_main(["check", "ybe", "--d", "2"]) == 0
    assert console_main(["check", "ybe", "--d", "4", "--perturb-k", "2"]) == 1
    assert console_main(["check", "ybe", "--d", "3"]) == 2


def test_module_entry_exits_three_on_a_program_bug():
    script = ("import runpy, sys\n"
              "from ybverify import relations\n"
              "def broken(*args, **kwargs):\n"
              "    raise TypeError('planted bug')\n"
              "relations.check_unitarity = broken\n"
              "sys.argv = ['ybv', 'check', 'unitarity', '--d', '2']\n"
              "runpy.run_module('ybverify.cli', run_name='__main__')\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "TypeError: planted bug" in proc.stderr


def test_key_error_bug_is_not_a_config_error(monkeypatch):
    # a KeyError raised inside a check is a program bug, not exit 2
    def broken(*args, **kwargs):
        raise KeyError("planted")

    monkeypatch.setattr(relations, "check_unitarity", broken)
    with pytest.raises(KeyError, match="planted"):
        main(["check", "unitarity", "--d", "2"])


def test_suite_item_without_check_names_its_index(tmp_path, capsys):
    suite = [{"check": "ybe", "params": {"d": 2}}, {"params": {"d": 2}}]
    code, out, err = _run_suite(tmp_path, capsys, suite)
    assert code == 2
    assert out == ""
    assert err.startswith("ybv: error: ") and 'item 1 has no "check" key' in err


def test_exact_commands_load_neither_numpy_nor_scipy(tmp_path):
    # nor a process pool: the suite runs its jobs in one process
    heavy = "{'numpy', 'scipy', 'concurrent.futures.process'}"
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps([{"check": "ybe", "params": {"d": 2}},
                                 {"check": "asym", "params": {"d": 4}},
                                 {"check": "d6_reduction", "params": {"u": "1"}}]))
    script = ("import sys\n"
              "import ybverify.cli\n"
              f"after_import = sorted({heavy} & set(sys.modules))\n"
              "code = ybverify.cli.main(['check', 'ybe', '--d', '4'])\n"
              f"after_check = sorted({heavy} & set(sys.modules))\n"
              f"code += ybverify.cli.main(['run', '--suite', {str(suite)!r}])\n"
              f"after_suite = sorted({heavy} & set(sys.modules))\n"
              "print(after_import, after_check, after_suite, code, file=sys.stderr)\n")
    src = str(Path(ybverify.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "[] [] [] 0"


RECORDED_SUITE = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "suite_d246.jsonl"


@pytest.mark.skipif(not RECORDED_SUITE.exists(), reason="no recorded suite stream")
def test_suite_stream_matches_recording(capsys):
    code, out, _ = run_cli(["run", "--all", "--d-list", "2,4,6"], capsys)
    assert code == 0
    got = out.splitlines()
    want = RECORDED_SUITE.read_text().splitlines()
    assert len(got) == len(want)
    for got_line, want_line in zip(got, want):
        rec, ref = json.loads(got_line), json.loads(want_line)
        if ref["exact"]:
            assert got_line == want_line
            continue
        for key in ("check", "params", "status", "detail", "exact"):
            assert rec[key] == ref[key], (key, got_line)
        # unitarity_integral's report carries no tolerance; 1e-3 is the one it
        # states for a nonzero expected value, as in the recorded job
        tol = rec["params"].get("tol", rec["params"].get("rel_tol", 1e-3))
        assert rec["max_residual"] < tol, got_line


def test_dump_gamma(capsys):
    code, out, _ = run_cli(["dump", "gamma", "--d", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["gammas"]) == 2
    assert payload["gamma5"]["entries"] == [[0, 0, "1"], [1, 1, "-1"]]
    assert payload["alpha"] == "-1*i"


def test_dump_coeffs(capsys):
    code, out, _ = run_cli(["dump", "coeffs", "--d", "6", "--norm", "d6paper",
                            "--u", "1"], capsys)
    assert code == 0
    assert json.loads(out)["values"] == ["5/8", "0", "-1/8", "0", "1/8", "0", "-5/8"]
    _, out, _ = run_cli(["dump", "coeffs", "--d", "4", "--norm", "unit",
                         "--u", "1"], capsys)
    assert json.loads(out)["values"] == ["1", "1", "-1/3", "-1", "1"]
    # tables exist for even d >= 2 only; any other d is a configuration error
    for d in ("0", "3"):
        assert console_main(["dump", "coeffs", "--d", d, "--norm", "product"]) == 2


def test_dump_rmatrix_and_schema(capsys):
    code, out, _ = run_cli(["dump", "rmatrix", "--d", "2", "--u", "1",
                            "--norm", "product"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["matrix"]["dim"] == 4
    code, out, _ = run_cli(["dump", "report-schema"], capsys)
    assert code == 0
    assert json.loads(out)["schema"] == 1


@pytest.mark.parametrize("option", ["--norm", "--rep"])
def test_dump_unknown_choice_is_usage_error(capsys, option):
    with pytest.raises(SystemExit) as exc:
        main(["dump", "rmatrix", option, "bogus"])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_dump_deterministic(capsys):
    _, out1, _ = run_cli(["dump", "gamma", "--d", "4"], capsys)
    _, out2, _ = run_cli(["dump", "gamma", "--d", "4"], capsys)
    assert out1 == out2


def test_table_format(capsys):
    code, out, err = run_cli(["check", "ybe", "--d", "2", "--format", "table"],
                             capsys)
    assert code == 0
    assert out.startswith("ok")
    assert not err


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "ybverify.cli", "dump", "coeffs", "--d", "6",
         "--norm", "d6paper", "--u", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["values"][0] == "5/8"
