"""Span recorder for the traced run.

The harness wraps the public functions of each library layer, including
every other module's binding of them (``axioms`` calls ``table_apply``
through its own ``from .core import`` name), and records one span per call:
layer name, start, end, parent span and operation id.  Spans stay in memory
until the pass ends.  A layer's self time is its span time minus the time
its direct child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
from time import perf_counter

import workloads

#: layer -> the public callables it covers, as "module.name" or
#: "module.Class.name" under the splitalg package.
LAYERS = {
    "core.table_apply": ("core.table_apply",),
    "core.slot_product": ("core.slot_product",),
    "core.linmap": ("core.LinearMap.__matmul__", "core.LinearMap.apply",
                    "core.family_contract", "core.dual_rep"),
    "core.elimination": ("core.LinearMap.rank", "core.LinearMap.try_inverse",
                         "core.LinearMap.inverse", "core.LinearMap.is_invertible"),
    "axioms.check_class": ("axioms.check_class",),
    "axioms.cocycle": ("axioms.check_prelie_cocycle", "axioms.check_ldend_cocycle"),
    "representations.check_module": ("representations.check_prelie_module",
                                     "representations.check_ldend_module"),
    "representations.build": ("representations.regular_prelie_module",
                              "representations.regular_ldend_module",
                              "representations.dual_prelie_module",
                              "representations.dual_ldend_module",
                              "representations.semidirect_prelie",
                              "representations.semidirect_ldend"),
    "functors": ("functors.sub_adjacent_lie", "functors.horizontal_prelie",
                 "functors.vertical_prelie", "functors.transpose",
                 "functors.dendriform_to_ldend", "functors.quadri_derive"),
    "operators.check": ("operators.check_rota_baxter_prelie", "operators.check_o_prelie",
                        "operators.check_o_lie", "operators.check_o_ldend"),
    "operators.search_rb": ("operators.search_rb",),
    "ybe.residual": ("ybe.s_residual", "ybe.ld_residual"),
    "ybe.equivalence": ("ybe.s_equivalence_check", "ybe.ld_equivalence_check",
                        "ybe.form_criterion_check"),
    "fileio.read": tuple(f"fileio.read_{k}" for k in ("algebra", "map", "tensor", "form", "module")),
    "fileio.write": tuple(f"fileio.write_{k}" for k in ("algebra", "map", "tensor", "form", "module")),
    "cli.main": ("cli.main",),
}

#: root span of every operation; its self time is harness code inside the op
OP = "bench.op"

_CHECK_LAYERS = ("axioms.check_class", "axioms.cocycle", "representations.check_module",
                 "operators.check")
#: layers whose calls are kept (arguments and result) for the counters
COUNTED = _CHECK_LAYERS + ("operators.search_rb", "ybe.residual", "fileio.read", "fileio.write")

#: arities of the identities each class check evaluates on all basis tuples
_CLASS_ARITIES = {"pre_lie": (3,), "associative": (3,), "lie": (2, 3),
                  "dendriform": (3, 3, 3), "l_dendriform": (3, 3), "quadri": (3,) * 9}


class Recorder:
    """Spans of one traced pass: (layer, start, end, parent index, op id)."""

    def __init__(self):
        self.spans: list = []
        self.stack = [-1]
        self.op = -1
        self.calls: list = []       # (layer, function, bound arguments, result, cwd)

    def begin(self, layer):
        index = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1]
        self.stack.append(index)
        return index, parent, perf_counter()

    def end(self, layer, index, parent, start):
        end = perf_counter()
        self.stack.pop()
        self.spans[index] = (layer, start, end, parent, self.op)

    @contextlib.contextmanager
    def operation(self):
        """Root span of one operation."""
        self.op += 1
        token = self.begin(OP)
        try:
            yield
        finally:
            self.end(OP, *token)


def _wrap(rec: Recorder, layer: str, fn):
    counted = layer in COUNTED

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = rec.begin(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(layer, *token)
        if counted:
            rec.calls.append((layer, fn, args, kwargs, result, os.getcwd()))
        return result

    return wrapper


@contextlib.contextmanager
def traced(rec: Recorder):
    """Route every binding of every covered callable through ``rec``."""
    modules = [m for name, m in sys.modules.items()
               if name == "splitalg" or name.startswith("splitalg.")]
    undo = []
    for layer, targets in LAYERS.items():
        for target in targets:
            module_name, *path = target.split(".")
            owner = importlib.import_module(f"splitalg.{module_name}")
            if len(path) == 2:
                cls = getattr(owner, path[0])
                raw = cls.__dict__[path[1]]
                new = (property(_wrap(rec, layer, raw.fget)) if isinstance(raw, property)
                       else _wrap(rec, layer, raw))
                setattr(cls, path[1], new)
                undo.append(functools.partial(setattr, cls, path[1], raw))
                continue
            orig = getattr(owner, path[0])
            new = _wrap(rec, layer, orig)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, new)
                        undo.append(functools.partial(setattr, m, attr, orig))
                    elif isinstance(value, dict):       # dispatch tables, e.g. cli verbs
                        for key in [k for k, v in value.items() if v is orig]:
                            value[key] = new
                            undo.append(functools.partial(value.__setitem__, key, orig))
    try:
        yield rec
    finally:
        for restore in reversed(undo):
            restore()


# ---------------------------------------------------------------------------
# aggregation

def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def check_tree(spans, selfs) -> list[str]:
    """Problems with the span tree: a child outside its parent's interval,
    or an op whose layer self times do not sum to its wall time."""
    problems = []
    for layer, start, end, parent, op in spans:
        if parent < 0:
            continue
        p = spans[parent]
        if not (p[1] <= start <= end <= p[2]) or p[4] != op:
            problems.append(f"span {layer} of op {op} lies outside its parent {p[0]}")
    total: dict[int, float] = {}
    for span, s in zip(spans, selfs):
        total[span[4]] = total.get(span[4], 0.0) + s
    for span in spans:
        if span[3] < 0:
            wall = span[2] - span[1]
            if abs(total[span[4]] - wall) > 1e-9 + 1e-9 * wall:
                problems.append(f"op {span[4]}: self times sum to {total[span[4]]}, wall {wall}")
    return problems


def _tuples(name, bound) -> int:
    a = bound.arguments
    if name == "check_class":
        return sum(a["alg"].dim ** k for k in _CLASS_ARITIES[a["class_name"]])
    if name == "check_prelie_cocycle":
        return a["alg"].dim ** 3
    if name == "check_ldend_cocycle":
        return a["alg"].dim ** 2 + a["alg"].dim ** 3
    if name in ("check_prelie_module", "check_ldend_module"):
        return (2 if name == "check_prelie_module" else 5) * a["m"].base.dim ** 2
    if name == "check_rota_baxter_prelie":
        return a["alg"].dim ** 2
    if name == "check_o_lie":
        return a["rho"][0].rows ** 2
    return (2 if name == "check_o_ldend" else 1) * a["m"].vdim ** 2


def counters(calls) -> dict[str, float]:
    """Work counts from the kept calls of one pass."""
    c = dict.fromkeys(("axioms.tuples", "axioms.failures", "operators.search_rb.candidates",
                       "operators.search_rb.hits", "ybe.residual.nonzero",
                       "fileio.read.bytes", "fileio.write.bytes"), 0)
    for layer, fn, args, kwargs, result, cwd in calls:
        bound = inspect.signature(fn).bind(*args, **kwargs)
        if layer in _CHECK_LAYERS:
            c["axioms.tuples"] += _tuples(fn.__name__, bound)
            c["axioms.failures"] += len(result.failures)
        elif layer == "operators.search_rb":
            c["operators.search_rb.candidates"] += workloads.candidates(
                bound.arguments["alg"], bound.arguments["entry_set"])
            c["operators.search_rb.hits"] += len(result)
        elif layer == "ybe.residual":
            c["ybe.residual.nonzero"] += result.nonzero_count()
        else:
            path = os.path.join(cwd, str(bound.arguments["path"]))
            c[f"{layer}.bytes"] += os.path.getsize(path)
    return c


def layer_totals(spans, selfs) -> dict[str, float]:
    """calls and self_s of every layer (and of the op roots) over a pass."""
    out = {}
    for name in (*LAYERS, OP):
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
    for span, s in zip(spans, selfs):
        out[f"{span[0]}.calls"] += 1
        out[f"{span[0]}.self_s"] += s
    return out


def write_spans(spans, path):
    """One span per line: layer, start, end, parent index, op id."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("layer\tstart\tend\tparent\top\n")
        for layer, start, end, parent, op in spans:
            fh.write(f"{layer}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")
