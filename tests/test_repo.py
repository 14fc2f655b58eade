import ast
import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args],
                          capture_output=True, text=True)


def test_no_tracked_file_is_ignored():
    # build output and generated files listed in .gitignore must not be committed
    if shutil.which("git") is None or _git("rev-parse", "--git-dir").returncode != 0:
        pytest.skip("not a git checkout")
    proc = _git("ls-files", "-ci", "--exclude-standard")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""


def _src_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    env.pop("YBV_BUDGET_DIM", None)
    return env


def test_bench_kernel_runs():
    # the kernel benchmark compares the streamed residual with the kron chain
    # and exits non-zero when they differ
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_kernel.py"),
         "--d", "2", "--repeat", "1"],
        cwd=ROOT, env=_src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "streamed" in proc.stdout and "kron chain" in proc.stdout


def _load_spans():
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_suite_records_every_span(tmp_path):
    # the benchmark wraps program functions by name; a rename in src/ would
    # break its traced run, so run the smallest traced suite here
    spans = _load_spans()
    out = tmp_path / "spans.jsonl"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced_cli.py"), str(out),
         "run", "--all", "--d-list", "2"],
        cwd=ROOT, env=_src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    counters, trace = spans.read(out)
    assert spans.span_names() - spans.spans_seen(trace) == set()
    assert counters["quad_evals"] > 0


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


# quadrature runs on the in-house Gauss-Kronrod rule, and local_ybe on the
# row kernel of the exact checks
ARRAY_LIBRARIES = {"scipy", "numpy"}


def test_no_source_module_imports_scipy():
    sources = sorted((ROOT / "src" / "ybverify").glob("*.py"))
    assert sources
    offenders = {path.name: name for path in sources for name in _imported_modules(path)
                 if name.split(".")[0] in ARRAY_LIBRARIES}
    assert offenders == {}
    assert [path.name for path in sources if "numpy" in path.read_text()] == []


def test_full_suite_runs_without_scipy():
    script = ("import sys\n"
              "import ybverify.cli\n"
              "code = ybverify.cli.main(['run', '--all', '--d-list', '2'])\n"
              f"print(sorted(m for m in sys.modules if m.split('.')[0] in {ARRAY_LIBRARIES}),\n"
              "      code, file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert '"check": "beta_integral"' in proc.stdout
    assert proc.stderr.splitlines()[-1] == "[] 0"


def _mentioned_names(path):
    # identifiers, attribute and imported names, and string constants, since
    # perfbench wraps program functions by their names as strings
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _defined_functions(path):
    # (qualified name, name) of top-level functions and non-dunder methods
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.name


# the report's public verdict: the tests read it, the program reads ``status``
TEST_ONLY_API = {"CheckReport.passed"}


def test_every_source_function_has_a_caller_outside_tests():
    # a function only tests call belongs in tests/helpers.py
    sources = sorted((ROOT / "src" / "ybverify").glob("*.py"))
    assert sources
    mentioned = {name for path in sources + sorted((ROOT / "perfbench").glob("*.py"))
                 for name in _mentioned_names(path)}
    uncalled = {qualname for path in sources for qualname, name in _defined_functions(path)
                if name not in mentioned}
    assert uncalled == TEST_ONLY_API
