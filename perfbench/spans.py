"""Spans and work counters for the traced run, installed from outside the
program.

``Tracer.install`` replaces each public function of the ybverify layers by a
wrapper at every place the name is looked up: module attributes that hold
the function (``from .kernel import kron`` binds ``kron`` inside
``relations``, ``clifford`` and ``rmatrix``), ``SparseOperator`` and
``GammaBasis`` methods on their classes, and ``quad`` on the ``integrate``
module that ``quadrature`` calls through.  ``import_layers`` loads every
layer module first, and a name that is missing makes ``install`` raise, so a
layer is never silently left unwrapped.  A span is (name, start, end,
parent) in nanoseconds; spans stay in memory until ``write``.  Work counters
for products are computed after the span closes, on a clock that excludes
their own cost, so they do not inflate any span.  ``aggregate`` turns the
written spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter_ns

INT64_GUARD = 2 ** 62

LAYER_MODULES = ("ybverify.kernel", "ybverify.clifford", "ybverify.rmatrix",
                 "ybverify.relations", "ybverify.localyb", "ybverify.quadrature",
                 "ybverify.cli")
INSTALL_FAILED = 3   # exit code of a traced process whose layers cannot be wrapped

# span name -> (module, attribute); the attribute is wrapped wherever bound
FUNCTIONS = {
    "kernel.kron": ("ybverify.kernel", "kron"),
    "kernel.embed_pair": ("ybverify.kernel", "embed_pair"),
    "clifford.build_gamma": ("ybverify.clifford", "build_gamma"),
    "clifford.graded_rep": ("ybverify.clifford", "graded_rep"),
    "clifford.as_exp_components": ("ybverify.clifford", "as_exp_components"),
    "clifford.as_exponential": ("ybverify.clifford", "as_exponential"),
    "rmatrix.coefficients": ("ybverify.rmatrix", "coefficients"),
    "rmatrix.assemble_spinor_R": ("ybverify.rmatrix", "assemble_spinor_R"),
    "rmatrix.quantum_L": ("ybverify.rmatrix", "quantum_L"),
    "rmatrix.fundamental_L0": ("ybverify.rmatrix", "fundamental_L0"),
    "rmatrix.fundamental_R0": ("ybverify.rmatrix", "fundamental_R0"),
    "rmatrix.projectors": ("ybverify.rmatrix", "projectors"),
    "localyb.check_local_ybe": ("ybverify.localyb", "check_local_ybe"),
    "localyb.as_exponential_float": ("ybverify.localyb", "as_exponential_float"),
    "localyb.solve_primed": ("ybverify.localyb", "solve_primed"),
    "quadrature.check_beta_integral": ("ybverify.quadrature", "check_beta_integral"),
    "quadrature.check_rfun": ("ybverify.quadrature", "check_rfun"),
    "quadrature.check_unitarity_integral": ("ybverify.quadrature",
                                            "check_unitarity_integral"),
    "cli.main": ("ybverify.cli", "main"),
}

# span name -> (class path, method names)
METHODS = {
    "kernel.mul": ("ybverify.kernel.SparseOperator", ("__matmul__",)),
    "kernel.add": ("ybverify.kernel.SparseOperator", ("__add__", "__sub__")),
    "kernel.scale": ("ybverify.kernel.SparseOperator", ("scale", "__neg__")),
    "kernel.normalize": ("ybverify.kernel.SparseOperator", ("_normalize",)),
    "kernel.zero_test": ("ybverify.kernel.SparseOperator", ("is_zero", "first_nonzero")),
    "clifford.pair_contraction": ("ybverify.clifford.GammaBasis", ("pair_contraction",)),
}

# check id -> span whose inclusive time is relations.<check_id>.ms
CHECK_IDS = (
    "ybe", "three_term", "fundamental_ybe", "rll_fundamental", "rll_quantum",
    "asym", "unitarity", "symmetries", "epsilon_projector_limit", "d6_reduction",
    "exchange_identities", "generating_product",
)
FLOAT_CHECKS = {
    "local_ybe": "localyb.check_local_ybe",
    "beta_integral": "quadrature.check_beta_integral",
    "rfun": "quadrature.check_rfun",
    "unitarity_integral": "quadrature.check_unitarity_integral",
}
CHECK_SPANS = {**{c: f"relations.{c}" for c in CHECK_IDS}, **FLOAT_CHECKS}

# results whose nnz feeds kernel.peak_nnz
NNZ_SPANS = ("kernel.mul", "kernel.add", "kernel.scale", "kernel.kron", "kernel.embed_pair")


def _grid(op):
    """(rows, den) of an operator: {row: {col: (re, im)}} integer numerators."""
    return op._rows, op._den


def _max_component(rows):
    best = 0
    for row in rows.values():
        for re, im in row.values():
            best = max(best, abs(re), abs(im))
    return best


class InstallError(Exception):
    """A layer name the tracer wraps is not where ``FUNCTIONS``, ``METHODS``
    or ``CHECK_IDS`` say it is."""


def _require(module, attr, span):
    value = getattr(module, attr, None)
    if value is None:
        raise InstallError(f"{span}: {module.__name__}.{attr} not found")
    return value


def import_layers():
    """Import every layer module, so that ``Tracer.install`` finds modules a
    program would otherwise load lazily, after the wrappers are in place."""
    for module in LAYER_MODULES:
        importlib.import_module(module)


def span_names() -> set:
    """Every span name the tracer can record."""
    return ({*FUNCTIONS, *METHODS, "quadrature.quad"}
            | {f"relations.{c}" for c in CHECK_IDS})


def spans_seen(spans) -> set:
    """Names of the spans that ran at least once."""
    return {span[0] for span in spans}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._hidden_ns = 0
        self.enabled = True
        self.counters = {"mul_flops": 0, "mul_out_nnz": 0, "num_bits_max": 0,
                         "den_bits_max": 0, "int64_fit": 0, "int64_fit_flops": 0,
                         "peak_nnz": 0, "quad_evals": 0}

    def _now(self):
        return perf_counter_ns() - self._hidden_ns

    def wrap(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = self._now()
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx] = (name, start, self._now(), parent)
            if after is not None:
                t0 = perf_counter_ns()
                after(args, result)
                self._hidden_ns += perf_counter_ns() - t0
            return result

        return wrapper

    # -- counters, computed off the span clock ------------------------------

    def _nnz(self, args, result):
        nnz = getattr(result, "nnz", None)
        if isinstance(nnz, int) and nnz > self.counters["peak_nnz"]:
            self.counters["peak_nnz"] = nnz

    def _mul(self, args, result):
        c = self.counters
        arows, aden = _grid(args[0])
        brows, bden = _grid(args[1])
        crows, cden = _grid(result)
        flops = 0
        widest = 0
        for arow in arows.values():
            widest = max(widest, len(arow))
            for j in arow:
                brow = brows.get(j)
                if brow:
                    flops += len(brow)
        out_nnz = sum(len(row) for row in crows.values())
        c["mul_flops"] += flops
        c["mul_out_nnz"] += out_nnz
        c["peak_nnz"] = max(c["peak_nnz"], out_nnz)
        # numerators as the product computes them, before the gcd step
        raw = _max_component(crows) * (aden * bden // cden)
        c["num_bits_max"] = max(c["num_bits_max"], raw.bit_length())
        c["den_bits_max"] = max(c["den_bits_max"], (aden * bden).bit_length())
        if _max_component(arows) * _max_component(brows) * widest < INT64_GUARD:
            c["int64_fit"] += 1
            c["int64_fit_flops"] += flops

    # -- installation ------------------------------------------------------

    def _replace_everywhere(self, original, wrapper):
        for name, mod in list(sys.modules.items()):
            if not name.startswith("ybverify") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    def install(self):
        """Wrap every layer function, method and check.  The layer modules
        must be imported first (see ``LAYER_MODULES``); a name that cannot
        be found raises ``InstallError`` rather than leaving its layer
        unwrapped and reporting 0."""
        missing = [m for m in LAYER_MODULES if m not in sys.modules]
        if missing:
            raise InstallError(f"layer modules not imported: {', '.join(missing)}")
        for name, (module, attr) in FUNCTIONS.items():
            fn = _require(sys.modules[module], attr, name)
            after = self._nnz if name in NNZ_SPANS else None
            self._replace_everywhere(fn, self.wrap(name, fn, after))
        relations = sys.modules["ybverify.relations"]
        for check in CHECK_IDS:
            fn = _require(relations, f"check_{check}", f"relations.{check}")
            self._replace_everywhere(fn, self.wrap(f"relations.{check}", fn))
        for name, (cls_path, methods) in METHODS.items():
            module, _, cls_name = cls_path.rpartition(".")
            cls = _require(sys.modules[module], cls_name, name)
            for meth in methods:
                fn = cls.__dict__.get(meth)
                if fn is None:
                    raise InstallError(f"{name}: {cls_path}.{meth} not found")
                after = self._mul if name == "kernel.mul" else (
                    self._nnz if name in NNZ_SPANS else None)
                setattr(cls, meth, self.wrap(name, fn, after))
        integrate = _require(sys.modules["ybverify.quadrature"], "integrate", "quadrature.quad")
        self._wrap_quad(integrate)

    def _wrap_quad(self, integrate):
        quad = integrate.quad
        counters = self.counters

        def counted_quad(func, *args, **kwargs):
            def integrand(*x):
                counters["quad_evals"] += 1
                return func(*x)
            return quad(integrand, *args, **kwargs)

        integrate.quad = self.wrap("quadrature.quad", counted_quad)

    def write(self, path):
        with open(path, "w") as fh:
            fh.write(json.dumps({"counters": self.counters}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# spans -> per-layer metrics
# ---------------------------------------------------------------------------

def read(path):
    with open(path) as fh:
        counters = json.loads(fh.readline())["counters"]
        spans = [json.loads(ln) for ln in fh if ln.strip()]
    return counters, spans


def aggregate(counters, spans) -> dict:
    """Per-layer metrics (values only) from one traced process."""
    n = len(spans)
    child_ns = [0] * n
    in_as_exp = [False] * n
    for i, (name, start, end, parent) in enumerate(spans):
        if parent >= 0:
            child_ns[parent] += end - start
            in_as_exp[i] = in_as_exp[parent]
        if name == "clifford.as_exp_components":
            in_as_exp[i] = True
    calls, self_ns, incl_ns = {}, {}, {}
    as_exp_muls = 0
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + (end - start) - child_ns[i]
        incl_ns[name] = incl_ns.get(name, 0) + (end - start)
        if name == "kernel.mul" and in_as_exp[i]:
            as_exp_muls += 1

    def ms(table, name):
        return table.get(name, 0) / 1e6

    muls = calls.get("kernel.mul", 0)
    out = {
        "kernel.mul.calls": muls,
        "kernel.mul.self_ms": ms(self_ns, "kernel.mul"),
        "kernel.mul.flops": counters["mul_flops"],
        "kernel.mul.out_nnz": counters["mul_out_nnz"],
    }
    for op in ("add", "scale", "kron", "embed_pair", "normalize", "zero_test"):
        out[f"kernel.{op}.self_ms"] = ms(self_ns, f"kernel.{op}")
    out["kernel.peak_nnz"] = counters["peak_nnz"]
    out["kernel.num_bits_max"] = counters["num_bits_max"]
    out["kernel.den_bits_max"] = counters["den_bits_max"]
    out["kernel.int64_fit_share"] = counters["int64_fit"] / muls if muls else 0.0
    flops = counters["mul_flops"]
    out["kernel.int64_fit_flops_share"] = counters["int64_fit_flops"] / flops if flops else 0.0
    for fn in ("build_gamma", "pair_contraction", "graded_rep", "as_exp_components",
               "as_exponential"):
        out[f"clifford.{fn}.self_ms"] = ms(self_ns, f"clifford.{fn}")
    out["clifford.as_exp_components.mul_calls"] = as_exp_muls
    for fn in ("coefficients", "assemble_spinor_R", "quantum_L", "fundamental_L0",
               "fundamental_R0", "projectors"):
        out[f"rmatrix.{fn}.calls"] = calls.get(f"rmatrix.{fn}", 0)
        out[f"rmatrix.{fn}.self_ms"] = ms(self_ns, f"rmatrix.{fn}")
    for check, span in CHECK_SPANS.items():
        out[f"relations.{check}.ms"] = ms(incl_ns, span)
    out["relations.self_ms"] = sum(ms(self_ns, f"relations.{c}") for c in CHECK_IDS)
    for fn in ("check_local_ybe", "as_exponential_float", "solve_primed"):
        out[f"localyb.{fn}.self_ms"] = ms(self_ns, f"localyb.{fn}")
    out["quadrature.quad.calls"] = calls.get("quadrature.quad", 0)
    out["quadrature.quad.evals"] = counters["quad_evals"]
    out["quadrature.quad.self_ms"] = ms(self_ns, "quadrature.quad")
    out["cli.main.self_ms"] = ms(self_ns, "cli.main")
    return out


def import_times(stderr: str) -> dict:
    """cli.import_* from the ``python -X importtime`` report of
    ``import ybverify.cli``: the cumulative time of ybverify.cli, and the
    summed self time of every scipy and every numpy module."""
    cli_us = scipy_us = numpy_us = 0
    for ln in stderr.splitlines():
        if not ln.startswith("import time:") or "|" not in ln:
            continue
        parts = ln[len("import time:"):].split("|")
        try:
            self_us, cum_us = int(parts[0]), int(parts[1])
        except ValueError:
            continue
        name = parts[2].strip()
        top = name.split(".")[0]
        if name == "ybverify.cli":
            cli_us = cum_us
        elif top == "scipy":
            scipy_us += self_us
        elif top == "numpy":
            numpy_us += self_us
    return {"cli.import_ms": cli_us / 1e3, "cli.import_scipy_ms": scipy_us / 1e3,
            "cli.import_numpy_ms": numpy_us / 1e3}
