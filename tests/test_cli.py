import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ybverify
from ybverify import relations
from ybverify.cli import main


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
    code, out, err = run_cli(["run", "--all", "--d-list", "10"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("ybv: error: ") and "2 <= d <= 8" in err


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
    assert payload["status"] == "fail"
    assert payload["detail"].startswith("error: ")
    # the job's own params, not every run option
    assert payload["params"] == {"d": "4", "norm": "unit", "u": "-2"}


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


@pytest.mark.parametrize("check,params", SAME_AS_CHECK)
def test_suite_job_prints_what_check_prints(tmp_path, capsys, check, params):
    argv = ["check", check]
    for key, value in params.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    code, out, _ = run_cli(argv, capsys)
    assert out
    # the suite sorts the lines of a job that reports several
    want = code, sorted(out.splitlines())
    code, out, _ = _run_suite(tmp_path, capsys, [{"check": check, "params": params}])
    assert (code, sorted(out.splitlines())) == want


@pytest.mark.parametrize("check", ["ybe", "rll_fundamental"])
def test_d_above_max_d_is_config_error_not_a_skip(capsys, monkeypatch, check):
    monkeypatch.delenv("YBV_BUDGET_DIM", raising=False)
    code, out, err = run_cli(["check", check, "--d", "10"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("ybv: error: ") and "2 <= d <= 8" in err


def test_d_above_max_d_runs_where_no_basis_is_built(capsys, monkeypatch):
    monkeypatch.delenv("YBV_BUDGET_DIM", raising=False)
    code, out, _ = run_cli(["check", "fundamental_ybe", "--d", "10"], capsys)
    assert code == 0
    assert json.loads(out)["status"] == "pass"
    code, out, _ = run_cli(["check", "ybe", "--d", "8"], capsys)
    assert code == 0
    assert json.loads(out)["status"] == "skipped"


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
