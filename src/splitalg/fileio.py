"""Canonical JSON file formats.

One UTF-8 JSON document per file.  All indices are 1-based, scalars are
reduced rational strings, omitted entries are zero, and writers emit entries
in lexicographic index order so output is byte-identical across runs.

Formats
-------
algebra   {"dim": n, "ops": {"circ": [[i, j, k, "p/q"], ...], ...}}
map       {"rows": n, "cols": m, "entries": [[i, j, "p/q"], ...]}
tensor    {"dim": n, "rank": 2 | 3, "entries": [[i, j, "p/q"] | [i, j, k, "p/q"], ...]}
form      {"gram": {"rows": n, "cols": n, "entries": [[i, j, "p/q"], ...]}}
module    {"base": <algebra>, "vdim": m, "l": [<map>, ...], "r": [...]}        (pre-Lie)
          {"base": <algebra>, "vdim": m, "l_r": [...], "r_r": [...],
           "l_l": [...], "r_l": [...]}                                         (L-dendriform)
          {"base": <algebra>, "vdim": m, "rho": [<map>, ...]}                  (Lie representation)
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .core import (
    Algebra,
    BilinearForm,
    LinearMap,
    OP_NAMES,
    Tensor2,
    Tensor3,
    algebra,
    is_int,
    mark_new,
    rat,
    tensor2,
    tensor3,
)
from .representations import LDendModule, PreLieModule

__all__ = [
    "FileFormatError",
    "algebra_to_doc", "algebra_from_doc", "read_algebra", "write_algebra",
    "map_to_doc", "map_from_doc", "read_map", "write_map",
    "tensor_to_doc", "tensor_from_doc", "read_tensor", "write_tensor",
    "form_to_doc", "form_from_doc", "read_form", "write_form",
    "module_to_doc", "module_from_doc", "read_module", "write_module",
    "dump_doc",
]


class FileFormatError(ValueError):
    """A file does not follow the canonical format; the message says where."""


#: largest dim, rows, cols or vdim a file may declare; checked before any
#: grid is allocated, so a hostile header cannot exhaust memory
MAX_DIM = 64


def _size(doc: dict, key: str, where: str) -> int:
    value = doc.get(key)
    _expect(
        is_int(value) and 1 <= value <= MAX_DIM,
        f"{where}: bad {key!r} (expected an integer 1..{MAX_DIM}, got {json.dumps(value)})",
    )
    return value


def _scalar(value, where: str) -> Fraction:
    if isinstance(value, bool):
        raise FileFormatError(f"{where}: bad rational {json.dumps(value)} (not a number)")
    try:
        return rat(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise FileFormatError(f"{where}: bad rational {value!r} ({exc})") from None


def _expect(cond: bool, message: str):
    if not cond:
        raise FileFormatError(message)


def _is_scalar(value) -> bool:
    return value is None or isinstance(value, (str, int, bool))


def _dump(value, indent: int) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = [f"{inner}{json.dumps(k)}: {_dump(v, indent + 1)}" for k, v in value.items()]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(value, list):
        if not value:
            return "[]"
        if all(_is_scalar(x) for x in value):
            return json.dumps(value)
        if all(isinstance(x, list) and all(_is_scalar(y) for y in x) for x in value):
            parts = [f"{inner}{json.dumps(x)}" for x in value]
            return "[\n" + ",\n".join(parts) + f"\n{pad}]"
        parts = [f"{inner}{_dump(x, indent + 1)}" for x in value]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    return json.dumps(value)


def dump_doc(doc: dict) -> str:
    """Canonical serialization: insertion key order, one sparse entry per
    line, trailing newline; byte-identical for identical inputs."""
    return _dump(doc, 0) + "\n"


# ---------------------------------------------------------------------------
# algebras

def algebra_to_doc(alg: Algebra) -> dict:
    ops = {}
    for name in sorted(alg.ops):
        table = alg.ops[name]
        rows = []
        for i in range(alg.dim):
            for j in range(alg.dim):
                for k in range(alg.dim):
                    value = table[i][j][k]
                    if value:
                        rows.append([i + 1, j + 1, k + 1, str(value)])
        ops[name] = rows
    doc = {"dim": alg.dim, "ops": ops}
    if alg.class_tag:
        doc["class_tag"] = alg.class_tag
    return doc


def algebra_from_doc(doc, where: str = "algebra") -> Algebra:
    _expect(isinstance(doc, dict), f"{where}: expected an object")
    dim = _size(doc, "dim", where)
    _expect(isinstance(doc.get("ops"), dict), f"{where}: missing 'ops' object")
    sparse = {}
    for name, rows in doc["ops"].items():
        _expect(name in OP_NAMES, f"{where}: unknown operation name {name!r}")
        _expect(isinstance(rows, list), f"{where}.ops.{name}: expected a list")
        triples = []
        for idx, row in enumerate(rows):
            _expect(
                isinstance(row, list) and len(row) == 4,
                f"{where}.ops.{name}[{idx}]: expected [i, j, k, scalar]",
            )
            i, j, k, value = row
            _expect(
                all(is_int(t) and 1 <= t <= dim for t in (i, j, k)),
                f"{where}.ops.{name}[{idx}]: index outside 1..{dim}",
            )
            triples.append((i, j, k, _scalar(value, f"{where}.ops.{name}[{idx}]")))
        sparse[name] = triples
    tag = doc.get("class_tag")
    _expect(tag is None or isinstance(tag, str), f"{where}: bad 'class_tag'")
    try:
        return algebra(dim, sparse, tag)
    except ValueError as exc:
        raise FileFormatError(f"{where}: {exc}") from None


# ---------------------------------------------------------------------------
# linear maps

def map_to_doc(T: LinearMap) -> dict:
    entries = []
    for i in range(T.rows):
        for j in range(T.cols):
            if T.entries[i][j]:
                entries.append([i + 1, j + 1, str(T.entries[i][j])])
    return {"rows": T.rows, "cols": T.cols, "entries": entries}


def map_from_doc(doc, where: str = "map") -> LinearMap:
    _expect(isinstance(doc, dict), f"{where}: expected an object")
    rows, cols = _size(doc, "rows", where), _size(doc, "cols", where)
    grid = [[Fraction(0)] * cols for _ in range(rows)]
    seen = set()
    for idx, row in enumerate(doc.get("entries", [])):
        _expect(
            isinstance(row, list) and len(row) == 3,
            f"{where}.entries[{idx}]: expected [i, j, scalar]",
        )
        i, j, value = row
        _expect(
            is_int(i) and 1 <= i <= rows and is_int(j) and 1 <= j <= cols,
            f"{where}.entries[{idx}]: index outside the grid",
        )
        try:
            mark_new(seen, (i, j), "entry")
        except ValueError as exc:
            raise FileFormatError(f"{where}.entries[{idx}]: {exc}") from None
        grid[i - 1][j - 1] = _scalar(value, f"{where}.entries[{idx}]")
    return LinearMap(rows, cols, tuple(tuple(r) for r in grid))


# ---------------------------------------------------------------------------
# tensors

def tensor_to_doc(t: Tensor2 | Tensor3) -> dict:
    entries = []
    if isinstance(t, Tensor2):
        rank = 2
        for i in range(t.dim):
            for j in range(t.dim):
                if t.entries[i][j]:
                    entries.append([i + 1, j + 1, str(t.entries[i][j])])
    else:
        rank = 3
        for index, value in t.nonzero_entries():
            entries.append([*index, str(value)])
    return {"dim": t.dim, "rank": rank, "entries": entries}


def tensor_from_doc(doc, where: str = "tensor") -> Tensor2 | Tensor3:
    _expect(isinstance(doc, dict), f"{where}: expected an object")
    dim, rank = _size(doc, "dim", where), doc.get("rank")
    _expect(is_int(rank) and rank in (2, 3), f"{where}: 'rank' must be 2 or 3")
    width = rank + 1
    sparse = []
    for idx, row in enumerate(doc.get("entries", [])):
        _expect(
            isinstance(row, list) and len(row) == width,
            f"{where}.entries[{idx}]: expected {width} fields",
        )
        *index, value = row
        _expect(
            all(is_int(t) and 1 <= t <= dim for t in index),
            f"{where}.entries[{idx}]: index outside 1..{dim}",
        )
        sparse.append((*index, _scalar(value, f"{where}.entries[{idx}]")))
    try:
        return tensor2(dim, sparse) if rank == 2 else tensor3(dim, sparse)
    except ValueError as exc:
        raise FileFormatError(f"{where}: {exc}") from None


# ---------------------------------------------------------------------------
# bilinear forms

def form_to_doc(B: BilinearForm) -> dict:
    return {"gram": map_to_doc(LinearMap(B.dim, B.dim, B.gram))}


def form_from_doc(doc, where: str = "form") -> BilinearForm:
    _expect(isinstance(doc, dict) and "gram" in doc, f"{where}: missing 'gram'")
    gram = map_from_doc(doc["gram"], f"{where}.gram")
    _expect(gram.rows == gram.cols, f"{where}.gram: must be square")
    return BilinearForm(gram.rows, gram.entries)


# ---------------------------------------------------------------------------
# modules

_PRELIE_KEYS = ("l", "r")
_LDEND_KEYS = ("l_r", "r_r", "l_l", "r_l")


def _family_to_doc(family) -> list:
    return [map_to_doc(m) for m in family]


def _family_from_doc(rows, vdim: int, base_dim: int, where: str):
    _expect(isinstance(rows, list) and len(rows) == base_dim,
            f"{where}: expected one matrix per base basis element")
    family = []
    for idx, sub in enumerate(rows):
        m = map_from_doc(sub, f"{where}[{idx}]")
        _expect(m.rows == vdim and m.cols == vdim, f"{where}[{idx}]: must be {vdim}x{vdim}")
        family.append(m)
    return tuple(family)


def module_to_doc(m: PreLieModule | LDendModule) -> dict:
    doc = {"base": algebra_to_doc(m.base), "vdim": m.vdim}
    if isinstance(m, PreLieModule):
        doc["l"] = _family_to_doc(m.l)
        doc["r"] = _family_to_doc(m.r)
    else:
        for key in _LDEND_KEYS:
            doc[key] = _family_to_doc(getattr(m, key))
    return doc


def module_from_doc(doc, where: str = "module"):
    """Returns a PreLieModule, an LDendModule, or an (algebra, rho family)
    pair for a Lie representation file, depending on the keys present."""
    _expect(isinstance(doc, dict), f"{where}: expected an object")
    _expect("base" in doc, f"{where}: missing 'base'")
    base = algebra_from_doc(doc["base"], f"{where}.base")
    vdim = _size(doc, "vdim", where)
    if all(k in doc for k in _LDEND_KEYS):
        fams = {k: _family_from_doc(doc[k], vdim, base.dim, f"{where}.{k}") for k in _LDEND_KEYS}
        return LDendModule(base, vdim, **fams)
    if all(k in doc for k in _PRELIE_KEYS):
        fams = {k: _family_from_doc(doc[k], vdim, base.dim, f"{where}.{k}") for k in _PRELIE_KEYS}
        return PreLieModule(base, vdim, **fams)
    if "rho" in doc:
        return base, _family_from_doc(doc["rho"], vdim, base.dim, f"{where}.rho")
    raise FileFormatError(
        f"{where}: need keys l/r (pre-Lie), l_r/r_r/l_l/r_l (L-dendriform) or rho (Lie)"
    )


# ---------------------------------------------------------------------------
# file wrappers

def _read_doc(path) -> dict:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FileFormatError(f"{path}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})") from None
    except RecursionError:
        raise FileFormatError(f"{path}: invalid JSON (nested too deeply)") from None
    except ValueError as exc:                   # an integer literal beyond the digit limit
        raise FileFormatError(f"{path}: invalid JSON ({exc})") from None


def _write_doc(doc: dict, path):
    Path(path).write_text(dump_doc(doc), encoding="utf-8")


def read_algebra(path) -> Algebra:
    return algebra_from_doc(_read_doc(path), str(path))


def write_algebra(alg: Algebra, path):
    _write_doc(algebra_to_doc(alg), path)


def read_map(path) -> LinearMap:
    return map_from_doc(_read_doc(path), str(path))


def write_map(T: LinearMap, path):
    _write_doc(map_to_doc(T), path)


def read_tensor(path) -> Tensor2 | Tensor3:
    return tensor_from_doc(_read_doc(path), str(path))


def write_tensor(t: Tensor2 | Tensor3, path):
    _write_doc(tensor_to_doc(t), path)


def read_form(path) -> BilinearForm:
    return form_from_doc(_read_doc(path), str(path))


def write_form(B: BilinearForm, path):
    _write_doc(form_to_doc(B), path)


def read_module(path):
    return module_from_doc(_read_doc(path), str(path))


def write_module(m: PreLieModule | LDendModule, path):
    _write_doc(module_to_doc(m), path)
