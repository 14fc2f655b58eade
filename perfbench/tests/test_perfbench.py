"""The benchmark's own tests.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import gen
import oracle
import run
import spans
import worker
from conftest import BENCH, ROOT
from ybverify import relations
from ybverify.clifford import build_gamma
from ybverify.rmatrix import Normalization, PoleError, coefficients

RECORDED = (BENCH / "data" / "suite_d246.jsonl").read_text()


def _env():
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


# ---------------------------------------------------------------------------
# input generator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", gen.HEIGHTS)
def test_generator_is_deterministic_per_seed(workload):
    first = gen.points(workload, 3, 25)
    assert gen.points(workload, 3, 25) == first
    assert gen.digest(gen.points(workload, 3, 25)) == gen.digest(first)
    assert gen.points(workload, 4, 25) != first


@pytest.mark.parametrize("workload", gen.HEIGHTS)
def test_generator_is_pole_free_and_in_height(workload):
    hi = gen.HEIGHTS[workload][1]
    for p in gen.points(workload, 5, 25):
        u, v = Fraction(p["u"]), Fraction(p["v"])
        for x in (u, v):
            assert abs(x.numerator) <= hi and x.denominator <= hi
        for x in (u, v, u + v, u - v):
            assert x != 0
            for d in gen.POLE_DIMS:
                coefficients(d, x, Normalization.PRODUCT_FORM)
        assert p["signs"] in gen.SIGN_TRIPLES and 0 <= p["perturb_k"] <= gen.PERTURB_D


def test_generator_redraws_poles(monkeypatch):
    banned = Fraction(gen.points("exact_sweep", 6, 1)[0]["u"])

    def fake(d, x, norm):
        if x == banned:
            raise PoleError(f"planted pole at {x}")
        return coefficients(d, x, norm)

    monkeypatch.setattr(gen, "coefficients", fake)
    for p in gen.points("exact_sweep", 6, 10):
        u, v = Fraction(p["u"]), Fraction(p["v"])
        assert banned not in (u, v, u + v, u - v, -u)


# ---------------------------------------------------------------------------
# verdict oracle
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def bases():
    return {d: build_gamma(d) for d in worker.BASIS_DIMS}


POINT = {"u": "-7/3", "v": "5/8", "signs": "-+-", "perturb_k": 3}


def test_oracle_accepts_the_program_at_a_point(bases):
    loop = worker.Loop(bases)
    loop.point(POINT)
    assert loop.attempted == len(worker.point_ops(POINT))
    assert loop.failed == 0, loop.problems


def test_planted_wrong_verdict_raises_failed_share(bases, monkeypatch):
    honest = relations.check_ybe

    def forced_pass(d, u, v, norm, rep, budget=None, perturb_k=None):
        report = honest(d, u, v, norm, rep, budget)
        if perturb_k is not None:
            report.params["perturb_k"] = perturb_k
        return report

    monkeypatch.setattr(relations, "check_ybe", forced_pass)
    loop = worker.Loop(bases)
    loop.point(POINT)
    assert loop.failed / loop.attempted > 0
    assert loop.problems[0]["op"]["perturb_k"] == 3


def test_controls_fail_at_located_entries(bases):
    for op in worker.point_ops(POINT) + [worker.ASYM_OP]:
        want = json.loads(oracle.expected_line(op, bases))
        negative = "perturb_k" in op or op.get("quantum") == "spinor"
        assert (want["status"] == "fail") == negative
        if negative:
            assert " at " in want["detail"]


def test_gauss_str_matches_the_stream_format():
    f = Fraction
    assert oracle.gauss_str(f(-3, 4), f(0)) == "-3/4"
    assert oracle.gauss_str(f(0), f(1, 2)) == "1/2*i"
    assert oracle.gauss_str(f(1), f(-2)) == "1-2*i"
    assert oracle.gauss_str(f(1, 3), f(2)) == "1/3+2*i"


def test_suite_comparator():
    assert oracle.compare_suite(RECORDED, RECORDED) == []
    lines = RECORDED.splitlines()
    exact = next(i for i, ln in enumerate(lines) if '"exact": true' in ln)
    flipped = lines[:exact] + [lines[exact].replace('"pass"', '"fail"')] + lines[exact + 1:]
    assert oracle.compare_suite("\n".join(flipped), RECORDED)
    recs = [json.loads(ln) for ln in lines]
    floating = next(i for i, r in enumerate(recs) if r["check"] == "local_ybe")
    moved = dict(recs[floating], params={**recs[floating]["params"], "x": "1.5"})
    ok = lines[:floating] + [json.dumps(moved)] + lines[floating + 1:]
    assert oracle.compare_suite("\n".join(ok), RECORDED) == []
    loose = dict(recs[floating], max_residual=1.0)
    bad = lines[:floating] + [json.dumps(loose)] + lines[floating + 1:]
    assert oracle.compare_suite("\n".join(bad), RECORDED)
    assert oracle.compare_suite("\n".join(lines[:-1]), RECORDED)


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def test_self_time_subtracts_children():
    raw = [["a", 0, 100, -1], ["b", 10, 40, 0], ["kernel.mul", 15, 25, 1],
           ["clifford.as_exp_components", 50, 90, 0], ["kernel.mul", 60, 70, 3]]
    counters = {"mul_flops": 7, "mul_out_nnz": 3, "num_bits_max": 5, "den_bits_max": 2,
                "int64_fit": 1, "int64_fit_flops": 7, "peak_nnz": 3, "quad_evals": 0}
    out = spans.aggregate(counters, raw)
    assert out["kernel.mul.calls"] == 2
    assert out["kernel.mul.self_ms"] == pytest.approx(20 / 1e6)
    assert out["clifford.as_exp_components.self_ms"] == pytest.approx(30 / 1e6)
    assert out["clifford.as_exp_components.mul_calls"] == 1
    assert out["kernel.int64_fit_share"] == 0.5
    assert out["kernel.int64_fit_flops_share"] == 1.0


def test_import_times_parse():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       100 |        100 |     numpy.core\n"
            "import time:        50 |        150 |   numpy\n"
            "import time:       300 |        300 |   scipy.integrate\n"
            "import time:        20 |        900 | ybverify.cli\n")
    assert spans.import_times(text) == {"cli.import_ms": 0.9, "cli.import_scipy_ms": 0.3,
                                        "cli.import_numpy_ms": 0.15}


def test_install_refuses_a_missing_layer(monkeypatch):
    spans.import_layers()
    monkeypatch.setattr(spans, "FUNCTIONS",
                        {"kernel.gone": ("ybverify.kernel", "no_such_function"),
                         **spans.FUNCTIONS})
    with pytest.raises(spans.InstallError, match="no_such_function"):
        spans.Tracer().install()
    monkeypatch.setattr(spans, "LAYER_MODULES", spans.LAYER_MODULES + ("ybverify.lazy",))
    with pytest.raises(spans.InstallError, match="ybverify.lazy"):
        spans.Tracer().install()


def test_a_layer_without_spans_is_an_error():
    trace = [["kernel.mul", 0, 10, -1]]
    counters = {"mul_flops": 1, "mul_out_nnz": 1, "num_bits_max": 1, "den_bits_max": 1,
                "int64_fit": 1, "int64_fit_flops": 1, "peak_nnz": 1, "quad_evals": 0}
    assert run._layers(counters, trace, "exact_sweep", {"kernel.mul"})["kernel.mul.calls"] == 1
    with pytest.raises(run.BenchError, match="relations.ybe"):
        run._layers(counters, trace, "exact_sweep", {"kernel.mul", "relations.ybe"})
    with pytest.raises(run.BenchError, match="quad.evals"):
        run._layers(counters, trace, "suite_cold", {"kernel.mul"})


def test_p90_stays_within_the_samples():
    walls = [3.1, 3.2, 3.3, 3.4, 3.5, 3.6, 3.7, 4.9]
    assert 3.7 <= run._p90(walls) <= max(walls)


def _traced_exact(tmp_path, tag):
    inputs = tmp_path / "in.json"
    inputs.write_text(json.dumps({"points": [POINT]}))
    out = tmp_path / f"spans-{tag}.jsonl"
    subprocess.run([sys.executable, str(BENCH / "worker.py"), "--inputs", str(inputs),
                    "--all-points", "--trace-out", str(out)],
                   check=True, capture_output=True, env=_env(), cwd=ROOT, timeout=120)
    return spans.aggregate(*spans.read(out))


def _traced_suite(tmp_path, tag):
    out = tmp_path / f"suite-{tag}.jsonl"
    subprocess.run([sys.executable, str(BENCH / "traced_cli.py"), str(out),
                    "run", "--all", "--d-list", "2"],
                   check=True, capture_output=True, env=_env(), cwd=ROOT, timeout=120)
    return spans.aggregate(*spans.read(out))


def test_trace_counts_repeat_exactly(tmp_path):
    a, b = _traced_exact(tmp_path, "a"), _traced_exact(tmp_path, "b")
    for key in ("kernel.mul.calls", "kernel.mul.flops", "kernel.mul.out_nnz",
                "rmatrix.coefficients.calls"):
        assert a[key] == b[key] > 0, key
    s, t = _traced_suite(tmp_path, "a"), _traced_suite(tmp_path, "b")
    for key in ("quadrature.quad.evals", "quadrature.quad.calls", "kernel.mul.flops",
                "clifford.as_exp_components.mul_calls"):
        assert s[key] == t[key] > 0, key


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exact_sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_bench_kernel_script_still_runs():
    proc = subprocess.run([sys.executable, "benchmarks/bench_kernel.py", "--d", "6",
                           "--repeat", "1"],
                          capture_output=True, text=True, env=_env(), cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "python :" in proc.stdout
