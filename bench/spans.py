"""Span recorder for the traced benchmark run.

The benchmark wraps the public functions of each weilkit module from the
outside; weilkit itself is not modified.  Every call of a wrapped function
becomes one span ``[name, start, end, parent, op, attrs]`` kept in memory:
``parent`` is the index of the enclosing span (-1 for none) and ``op`` the
benchmark operation that caused it.  Spans are written out when the run
ends, and the per-layer metrics are computed from them.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# (module, attribute path) of every wrapped function.  The span name is the
# module's short name plus the attribute path, e.g. "linalg.rref".
TARGETS = (
    ("weilkit.cli", "main"),
    ("weilkit.jsonio", "algebra_from_spec"),
    ("weilkit.jsonio", "near_point_from_json"),
    ("weilkit.algebra", "from_structure_constants"),
    ("weilkit.algebra", "AlgebraElement.__mul__"),
    ("weilkit.linalg", "rref"),
    ("weilkit.linalg", "rank_with_tolerance"),
    ("weilkit.derivations", "derivation_basis"),
    ("weilkit.derivations", "lie_structure"),
    ("weilkit.derivations", "bracket"),
    ("weilkit.derivations", "leibniz_residual"),
    ("weilkit.derivations", "exp_flow"),
    ("weilkit.foliation", "flow"),
    ("weilkit.foliation", "leaf_sample"),
    ("weilkit.foliation", "distribution_at"),
    ("weilkit.foliation", "field_apply"),
    ("weilkit.foliation", "involutivity_check"),
    ("weilkit.nearpoints", "NearPoint.eval"),
    ("weilkit.nearpoints", "NearPoint.eval_taylor"),
    ("weilkit.poly", "parse_polynomial"),
    ("weilkit.poly", "Polynomial.evaluate"),
)

# Wrapped only so that a Leibniz re-check can be attributed to the
# operation that built a derivation from other derivations.
PARENT_ONLY = (
    ("weilkit.derivations", "module_scale"),
    ("weilkit.derivations", "Derivation.__add__"),
    ("weilkit.derivations", "Derivation.__rmul__"),
)

REDUNDANT_PARENTS = frozenset(
    ("derivations.bracket", "derivations.module_scale",
     "derivations.Derivation.__add__", "derivations.Derivation.__rmul__")
)


def span_name(module: str, path: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{path}"


LAYER_NAMES = tuple(span_name(m, p) for m, p in TARGETS)


class Recorder:
    """In-memory span list with a stack of open spans."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = None
        self.active = True

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.op, None])
        self._stack.append(index)
        return index

    def close(self, index: int, attrs=None) -> None:
        span = self.spans[index]
        span[2] = perf_counter()
        self._stack.pop()
        if attrs is not None:
            span[5] = attrs


def _attrs_before(name, args):
    if name == "linalg.rref":
        rows = args[0]
        return {"cells": len(rows) * (len(rows[0]) if rows else 0)}
    if name == "derivations.derivation_basis":
        return {"unknowns": args[0].dim ** 2}
    return None


def _attrs_after(name, result, attrs):
    if name == "algebra.from_structure_constants":
        table = result.table
        nnz = sum(1 for row in table for entry in row for x in entry if x)
        return {"nnz": nnz, "entries": len(table) ** 3}
    return attrs


def _wrap(recorder: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.active:
            return fn(*args, **kwargs)
        attrs = _attrs_before(name, args)
        index = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            failure = {"error": type(exc).__name__}
            if hasattr(exc, "axiom"):
                failure["axiom"] = exc.axiom
            recorder.close(index, {**(attrs or {}), **failure})
            raise
        recorder.close(index)
        recorder.spans[index][5] = _attrs_after(name, result, attrs)
        return result

    return wrapper


def install(recorder: Recorder):
    """Wrap every target and return a function that undoes it.

    Modules that bound a target with ``from .x import y`` (cli, foliation,
    the package namespace) hold their own reference, so every weilkit
    module attribute that is the original object is replaced too.
    """
    undo = []
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "weilkit" or name.startswith("weilkit."))]
    for module_name, path in TARGETS + PARENT_ONLY:
        module = importlib.import_module(module_name)
        name = span_name(module_name, path)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, _wrap(recorder, name, original))
            undo.append((cls, attr, original))
            continue
        original = getattr(module, path)
        wrapped = _wrap(recorder, name, original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                    undo.append((mod, attr, original))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


# ------------------------------------------------------------------ metrics


def layer_metrics(spans, ops: int) -> dict:
    """Per-layer metrics per traced operation.

    ``.calls`` counts calls, ``.s`` is inclusive time (outermost call of a
    name only, so recursion is not counted twice) and ``.self_s`` is time
    minus the time of direct child spans.  All are divided by ``ops``.
    """
    calls = {name: 0 for name in LAYER_NAMES}
    inclusive = {name: 0.0 for name in LAYER_NAMES}
    self_time = {name: 0.0 for name in LAYER_NAMES}
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    cells = unknowns = rejected = leibniz = redundant = 0
    nnz_ratios = []
    for index, (name, start, end, parent, _op, attrs) in enumerate(spans):
        if name not in calls:
            continue
        calls[name] += 1
        duration = end - start
        self_time[name] += duration - child_time[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            inclusive[name] += duration
        attrs = attrs or {}
        cells += attrs.get("cells", 0)
        unknowns += attrs.get("unknowns", 0)
        if name == "algebra.from_structure_constants":
            if "axiom" in attrs:
                rejected += 1
            elif "nnz" in attrs:
                nnz_ratios.append(attrs["nnz"] / attrs["entries"])
        if name == "derivations.leibniz_residual":
            leibniz += 1
            if parent >= 0 and spans[parent][0] in REDUNDANT_PARENTS:
                redundant += 1
    per = 1.0 / max(ops, 1)
    out = {}
    for name in LAYER_NAMES:
        out[f"{name}.calls"] = calls[name] * per
        out[f"{name}.s"] = inclusive[name] * per
        out[f"{name}.self_s"] = self_time[name] * per
    out["algebra.rejected.count"] = rejected * per
    out["algebra.table.nnz_ratio"] = sum(nnz_ratios) / len(nnz_ratios) if nnz_ratios else 0.0
    out["linalg.rref.cells"] = cells * per
    out["derivations.derivation_basis.unknowns"] = unknowns * per
    out["derivations.leibniz_residual.redundant_ratio"] = redundant / leibniz if leibniz else 0.0
    return out


LAYER_UNITS = {
    "algebra.rejected.count": "count",
    "algebra.table.nnz_ratio": "ratio",
    "linalg.rref.cells": "count",
    "derivations.derivation_basis.unknowns": "count",
    "derivations.leibniz_residual.redundant_ratio": "ratio",
    "trace.ops_per_s": "1/s",
    "trace.untraced_ops_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
}


# Layers that chart-sweep runs once in set-up; reported per set-up with a
# "setup." prefix so they are not diluted by the operation count.
SETUP_METRICS = (
    "derivations.derivation_basis.s",
    "derivations.derivation_basis.self_s",
    "derivations.derivation_basis.unknowns",
    "derivations.lie_structure.s",
    "derivations.lie_structure.self_s",
    "derivations.bracket.calls",
    "derivations.leibniz_residual.calls",
    "derivations.leibniz_residual.s",
)


def unit_of(metric: str) -> str:
    metric = metric.removeprefix("setup.")
    if metric in LAYER_UNITS:
        return LAYER_UNITS[metric]
    return "count" if metric.endswith(".calls") else "s"


def per_layer_names() -> list[str]:
    names = ["cli.startup_s"]
    for layer in LAYER_NAMES:
        names += [f"{layer}.calls", f"{layer}.s", f"{layer}.self_s"]
    names += [f"setup.{name}" for name in SETUP_METRICS]
    names += [
        "algebra.rejected.count",
        "algebra.table.nnz_ratio",
        "linalg.rref.cells",
        "derivations.derivation_basis.unknowns",
        "derivations.leibniz_residual.redundant_ratio",
        "trace.ops_per_s",
        "trace.untraced_ops_per_s",
        "trace.overhead_ratio",
    ]
    return names
