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

import io
import json
import math
import os
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
    grid_nonzero,
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

#: most bits a document's least common denominator, or any numerator, may
#: need.  Every check scales its inputs by that denominator and works on ints
#: of that size, so its cost grows with the scalars' length, not only the dim.
MAX_SCALAR_BITS = 256

#: longest scalar string a reader parses: Python's default limit on int
#: digits, since ``Fraction("0.<k digits>")`` computes 10**k before that
#: limit refuses the string
MAX_SCALAR_CHARS = 4300

#: largest file a reader decodes (``json.loads`` peaks at about six times the
#: text); a dense dim-64 table of one-digit scalars is 6.4 MB
MAX_FILE_BYTES = 1 << 24

#: bytes read at a time from a file whose size is unknown, such as a pipe
_CHUNK_BYTES = 1 << 16

#: most characters of a file value that a message quotes (a scalar at the
#: bit cap has 78 digits)
_QUOTE_CHARS = 80


def _quote(text: str, limit: int = _QUOTE_CHARS) -> str:
    """A file value's rendering as a message quotes it: cut after ``limit``
    characters, so an error never echoes a whole file."""
    return text if len(text) <= limit else f"{text[:limit]}... ({len(text)} characters)"


def _size(doc: dict, key: str, where: str) -> int:
    value = doc.get(key)
    _expect(
        is_int(value) and 1 <= value <= MAX_DIM,
        f"{where}: bad {key!r} (expected an integer 1..{MAX_DIM}, "
        f"got {_quote(json.dumps(value))})",
    )
    return value


class _Scalars:
    """Converts the scalars of one document, refusing the first whose
    numerator, or the least common denominator of the scalars so far, needs
    more than MAX_SCALAR_BITS bits."""

    def __init__(self):
        self.lcd = 1

    def __call__(self, value, where: str) -> Fraction:
        if isinstance(value, bool):
            raise FileFormatError(f"{where}: bad rational {json.dumps(value)} (not a number)")
        if isinstance(value, str) and len(value) > MAX_SCALAR_CHARS:
            raise FileFormatError(
                f"{where}: scalar of {len(value)} characters (at most {MAX_SCALAR_CHARS})")
        try:
            x = rat(value)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            reason = _quote(str(exc), 2 * _QUOTE_CHARS)     # it may quote the value too
            raise FileFormatError(
                f"{where}: bad rational {_quote(repr(value))} ({reason})") from None
        self.lcd = math.lcm(self.lcd, x.denominator)
        for what, n in (("numerator", x.numerator), ("common denominator", self.lcd)):
            if n.bit_length() > MAX_SCALAR_BITS:
                raise FileFormatError(
                    f"{where}: {what} needs {n.bit_length()} bits (at most {MAX_SCALAR_BITS})")
        return x


def _expect(cond: bool, message: str):
    if not cond:
        raise FileFormatError(message)


def _rows_from_doc(rows, dim: int, rank: int, where: str, expected: str,
                   scalar: _Scalars) -> list:
    """The sparse ``(*index, Fraction)`` rows of a dim^rank grid's row list
    ``where``, converted by ``scalar``.  A list longer than the grid is
    refused before any row is converted."""
    _expect(isinstance(rows, list), f"{where}: expected a list")
    size = dim ** rank
    _expect(len(rows) <= size,
            f"{where}: more rows ({len(rows)}) than the grid has entries ({size})")
    sparse = []
    for idx, row in enumerate(rows):
        _expect(isinstance(row, list) and len(row) == rank + 1,
                f"{where}[{idx}]: expected {expected}")
        *index, value = row
        _expect(
            all(is_int(t) and 1 <= t <= dim for t in index),
            f"{where}[{idx}]: index outside 1..{dim}",
        )
        sparse.append((*index, scalar(value, f"{where}[{idx}]")))
    return sparse


def _sparse(nonzero) -> list:
    """File rows [*index, "p/q"] of (1-based index, value) pairs."""
    return [[*index, str(value)] for index, value in nonzero]


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
    shape = (alg.dim,) * 3
    ops = {name: _sparse(grid_nonzero(alg.ops[name], shape)) for name in sorted(alg.ops)}
    doc = {"dim": alg.dim, "ops": ops}
    if alg.class_tag:
        doc["class_tag"] = alg.class_tag
    return doc


def algebra_from_doc(doc, where: str = "algebra") -> Algebra:
    return _algebra_from_doc(doc, where, _Scalars())


def _algebra_from_doc(doc, where: str, scalar: _Scalars) -> Algebra:
    _expect(isinstance(doc, dict), f"{where}: expected an object")
    dim = _size(doc, "dim", where)
    _expect(isinstance(doc.get("ops"), dict), f"{where}: missing 'ops' object")
    sparse = {}
    for name, rows in doc["ops"].items():
        _expect(name in OP_NAMES, f"{where}: unknown operation name {_quote(repr(name))}")
        sparse[name] = _rows_from_doc(rows, dim, 3, f"{where}.ops.{name}", "[i, j, k, scalar]",
                                      scalar)
    tag = doc.get("class_tag")
    _expect(tag is None or isinstance(tag, str), f"{where}: bad 'class_tag'")
    try:
        return algebra(dim, sparse, tag)
    except ValueError as exc:
        raise FileFormatError(f"{where}: {exc}") from None


# ---------------------------------------------------------------------------
# linear maps

def map_to_doc(T: LinearMap) -> dict:
    entries = _sparse(grid_nonzero(T.entries, (T.rows, T.cols)))
    return {"rows": T.rows, "cols": T.cols, "entries": entries}


def map_from_doc(doc, where: str = "map") -> LinearMap:
    return _map_from_doc(doc, where, _Scalars())


def _map_from_doc(doc, where: str, scalar: _Scalars) -> LinearMap:
    _expect(isinstance(doc, dict), f"{where}: expected an object")
    rows, cols = _size(doc, "rows", where), _size(doc, "cols", where)
    grid = [[Fraction(0)] * cols for _ in range(rows)]
    entries = doc.get("entries", [])
    _expect(isinstance(entries, list), f"{where}.entries: expected a list")
    seen = set()
    for idx, row in enumerate(entries):
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
        grid[i - 1][j - 1] = scalar(value, f"{where}.entries[{idx}]")
    return LinearMap(rows, cols, grid)


# ---------------------------------------------------------------------------
# tensors

def tensor_to_doc(t: Tensor2 | Tensor3) -> dict:
    return {"dim": t.dim, "rank": t.rank, "entries": _sparse(t.nonzero_entries())}


def tensor_from_doc(doc, where: str = "tensor") -> Tensor2 | Tensor3:
    _expect(isinstance(doc, dict), f"{where}: expected an object")
    dim, rank = _size(doc, "dim", where), doc.get("rank")
    _expect(is_int(rank) and rank in (2, 3), f"{where}: 'rank' must be 2 or 3")
    sparse = _rows_from_doc(doc.get("entries", []), dim, rank, f"{where}.entries",
                            f"{rank + 1} fields", _Scalars())
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

def _family_to_doc(family) -> list:
    return [map_to_doc(m) for m in family]


def _family_from_doc(rows, vdim: int, base_dim: int, where: str, scalar: _Scalars):
    _expect(isinstance(rows, list) and len(rows) == base_dim,
            f"{where}: expected one matrix per base basis element")
    family = []
    for idx, sub in enumerate(rows):
        m = _map_from_doc(sub, f"{where}[{idx}]", scalar)
        _expect(m.rows == vdim and m.cols == vdim, f"{where}[{idx}]: must be {vdim}x{vdim}")
        family.append(m)
    return tuple(family)


def module_to_doc(m: PreLieModule | LDendModule) -> dict:
    doc = {"base": algebra_to_doc(m.base), "vdim": m.vdim}
    for key in m._families():
        doc[key] = _family_to_doc(getattr(m, key))
    return doc


def module_from_doc(doc, where: str = "module"):
    """Returns a PreLieModule, an LDendModule, or an (algebra, rho family)
    pair for a Lie representation file, depending on the keys present."""
    _expect(isinstance(doc, dict), f"{where}: expected an object")
    _expect("base" in doc, f"{where}: missing 'base'")
    scalar = _Scalars()                         # one bound for the base and every family
    base = _algebra_from_doc(doc["base"], f"{where}.base", scalar)
    vdim = _size(doc, "vdim", where)

    def family(key):
        return _family_from_doc(doc[key], vdim, base.dim, f"{where}.{key}", scalar)

    for cls, kind in ((LDendModule, "an L-dendriform module"), (PreLieModule, "a pre-Lie module")):
        if all(k in doc for k in cls._families()):
            for op, *_ in cls._blocks:         # the module classes would raise UnknownOperation
                _expect(base.has_op(op), f"{where}.base.ops: missing {op!r}, which {kind} needs")
            return cls(base, vdim, *map(family, cls._families()))
    if "rho" in doc:
        return base, family("rho")
    raise FileFormatError(
        f"{where}: need keys l/r (pre-Lie), l_r/r_r/l_l/r_l (L-dendriform) or rho (Lie)"
    )


# ---------------------------------------------------------------------------
# file wrappers

def _read_doc(path) -> dict:
    path = Path(path)
    too_big = f"{path}: larger than {MAX_FILE_BYTES} bytes"
    try:
        with path.open("rb") as f:
            size = os.fstat(f.fileno()).st_size
            _expect(size <= MAX_FILE_BYTES, too_big)
            # a pipe reports size 0: read it in chunks up to one byte past the cap
            chunks, total, step = [], 0, size + 1 if size else _CHUNK_BYTES
            while total <= MAX_FILE_BYTES:
                want = min(step, MAX_FILE_BYTES + 1 - total)
                chunks.append(f.read(want))
                total += len(chunks[-1])
                if len(chunks[-1]) < want:          # a short read ends the file
                    break
        _expect(total <= MAX_FILE_BYTES, too_big)
        # decoded as Path.read_text decodes: UTF-8 with universal newlines
        text = io.TextIOWrapper(io.BytesIO(b"".join(chunks)), encoding="utf-8").read()
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
