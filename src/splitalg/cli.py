"""Command-line front end composing checks, functors and builders into
pipelines over the canonical JSON file formats.

Exit codes: 0 all checks passed / construction succeeded; 1 a mathematical
check failed (a counterexample is reported); 2 usage or I/O error.  Output
is deterministic for identical inputs: no timestamps, fixed ordering.
Reports are JSON-lines with --json, human-readable tables otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import catalog as catalog_mod
from .axioms import (
    CLASS_NAMES,
    CheckReport,
    check_class,
    check_ldend_cocycle,
    check_prelie_cocycle,
)
from .core import (
    PreconditionFailed,
    SingularMap,
    Tensor2,
    UnknownOperation,
    rat,
)
from .fileio import (
    algebra_to_doc,
    dump_doc,
    map_to_doc,
    read_algebra,
    read_form,
    read_map,
    read_module,
    read_tensor,
    write_algebra,
    write_map,
    write_tensor,
)
from .functors import (
    QUADRI_DERIVED,
    dendriform_to_ldend,
    horizontal_prelie,
    quadri_derive,
    sub_adjacent_lie,
    transpose,
    vertical_prelie,
)
from .operators import (
    adjoint_family,
    check_o_ldend,
    check_o_lie,
    check_o_prelie,
    check_rota_baxter_prelie,
    compatible_ldend_from_invertible_o,
    ldend_from_2cocycle,
    ldend_from_commuting_pair,
    ldend_from_o_prelie,
    ldend_from_rb,
    prelie_from_o_lie,
    search_rb,
)
from .representations import LDendModule, PreLieModule
from .ybe import LD_VARIANTS, build_ld_solution, build_s_solution, ld_residual, s_residual

_FUNCTORS = {
    "sub_adjacent_lie": sub_adjacent_lie,
    "horizontal_prelie": horizontal_prelie,
    "vertical_prelie": vertical_prelie,
    "transpose": transpose,
    "dendriform_to_ldend": dendriform_to_ldend,
    **{f"quadri_{name}": (lambda a, _n=name: quadri_derive(a, _n)) for name in QUADRI_DERIVED},
}

_EQUATIONS = ("eq-2.9",) + tuple(sorted(LD_VARIANTS))

_COCYCLE_CLASSES = ("prelie_cocycle", "ldend_cocycle")


def _print_report(report: CheckReport, json_mode: bool, header: str, context: dict) -> int:
    if json_mode:
        for failure in report.failures:
            print(json.dumps({"type": "failure", **failure.to_json_dict()}))
        summary = {"type": "summary", **context, "passed": report.passed,
                   "failures": len(report.failures)}
        print(json.dumps(summary))
    else:
        verdict = "PASS" if report.passed else f"FAIL ({len(report.failures)} failures)"
        print(f"{header}: {verdict}")
        for failure in report.failures:
            indices = ",".join(str(i) for i in failure.indices)
            residual = " ".join(str(x) for x in failure.residual)
            print(f"  {failure.identity}  ({indices})  residual [{residual}]")
    return 0 if report.passed else 1


def _emit_algebra(alg, out: str | None):
    if out:
        write_algebra(alg, out)
        print(f"wrote {out}")
    else:
        sys.stdout.write(dump_doc(algebra_to_doc(alg)))


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_check(args) -> int:
    if args.form and args.class_name not in _COCYCLE_CLASSES:
        raise ValueError(f"--form applies to cocycle checks only, not to --class {args.class_name}")
    alg = read_algebra(args.algebra)
    if args.class_name in _COCYCLE_CLASSES:
        if not args.form:
            raise ValueError("cocycle checks need --form")
        form = read_form(args.form)
        checker = check_prelie_cocycle if args.class_name == "prelie_cocycle" else check_ldend_cocycle
        report = checker(alg, form)
    else:
        report = check_class(alg, args.class_name)
    context = {"command": "check", "class": args.class_name, "input": args.algebra}
    return _print_report(report, args.json, f"check {args.algebra} [{args.class_name}]", context)


def _cmd_derive(args) -> int:
    alg = read_algebra(args.algebra)
    derived = _FUNCTORS[args.functor](alg)
    _emit_algebra(derived, args.out)
    return 0


def _cmd_oop_check(args) -> int:
    if args.module and args.algebra:
        raise ValueError("oop-check takes --module or a Lie algebra file, not both")
    T = read_map(args.map)
    if args.module:
        module = read_module(args.module)
        if isinstance(module, LDendModule):
            report, kind = check_o_ldend(T, module), "l_dendriform"
        elif isinstance(module, PreLieModule):
            report, kind = check_o_prelie(T, module), "pre_lie"
        else:
            base, rho = module
            report, kind = check_o_lie(T, base, rho), "lie"
        source = args.module
    elif args.algebra:
        lie = read_algebra(args.algebra)
        report, kind = check_o_lie(T, lie, adjoint_family(lie)), "lie[adjoint]"
        source = args.algebra
    else:
        raise ValueError("oop-check needs --module or a Lie algebra file")
    context = {"command": "oop-check", "kind": kind, "map": args.map, "input": source}
    return _print_report(report, args.json, f"oop-check {args.map} over {source} [{kind}]", context)


def _cmd_rb_check(args) -> int:
    alg = read_algebra(args.algebra)
    R = read_map(args.map)
    report = check_rota_baxter_prelie(R, alg)
    context = {"command": "rb-check", "map": args.map, "input": args.algebra}
    return _print_report(report, args.json, f"rb-check {args.map} on {args.algebra}", context)


def _cmd_lift(args) -> int:
    alg = read_algebra(args.algebra)
    form = read_form(args.form)
    lifted = ldend_from_2cocycle(alg, form, force=args.force)
    _emit_algebra(lifted, args.out)
    return 0


def _cmd_induce(args) -> int:
    if args.module and args.algebra:
        raise ValueError("induce takes --module or an algebra file, not both")
    if args.compatible and not args.module:
        raise ValueError("induce --compatible needs --module")
    maps = [read_map(path) for path in args.map]
    if args.module:
        module = read_module(args.module)
        if not isinstance(module, PreLieModule):
            raise ValueError("induce --module expects a pre-Lie module file")
        if len(maps) != 1:
            raise ValueError("induce --module takes exactly one --map")
        if args.compatible:
            out = compatible_ldend_from_invertible_o(maps[0], module, force=args.force)
        else:
            out, _image = ldend_from_o_prelie(maps[0], module, force=args.force)
    elif args.algebra:
        alg = read_algebra(args.algebra)
        if alg.has_op("bracket"):
            if len(maps) == 1:
                out = prelie_from_o_lie(maps[0], alg, force=args.force)
            elif len(maps) == 2:
                out = ldend_from_commuting_pair(maps[0], maps[1], alg, force=args.force)
            else:
                raise ValueError("induce on a Lie algebra takes one or two --map")
        elif alg.has_op("circ"):
            if len(maps) != 1:
                raise ValueError("induce on a pre-Lie algebra takes one --map")
            out = ldend_from_rb(maps[0], alg, force=args.force)
        else:
            raise ValueError("induce needs an algebra carrying circ or bracket")
    else:
        raise ValueError("induce needs --module or an algebra file")
    _emit_algebra(out, args.out)
    return 0


def _cmd_search_rb(args) -> int:
    alg = read_algebra(args.algebra)
    entry_set = []
    for piece in filter(None, map(str.strip, args.entry_set.split(","))):
        try:
            entry_set.append(rat(piece))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"--entry-set value {piece!r} is not a rational") from None
    if not entry_set:
        raise ValueError("--entry-set is empty")
    found = search_rb(alg, entry_set, cap=args.cap)
    if args.json:
        for T in found:
            print(json.dumps({"type": "map", **map_to_doc(T)}))
        print(json.dumps({"type": "summary", "command": "search-rb",
                          "input": args.algebra, "found": len(found)}))
    else:
        print(f"search-rb {args.algebra}: {len(found)} operator(s)")
        for index, T in enumerate(found):
            rows = "; ".join(" ".join(str(x) for x in row) for row in T.entries)
            print(f"  [{index}] {rows}")
    return 0


def _cmd_verify_eq(args) -> int:
    alg = read_algebra(args.algebra)
    tensor = read_tensor(args.tensor)
    if not isinstance(tensor, Tensor2):
        raise ValueError("verify-eq expects a rank-2 tensor file")
    if args.equation == "eq-2.9":
        residual = s_residual(alg, tensor)
    else:
        residual = ld_residual(alg, tensor, args.equation)
    count = residual.nonzero_count()
    first = next(residual.nonzero_entries(), None)
    if args.json:
        doc = {"type": "summary", "command": "verify-eq", "equation": args.equation,
               "input": args.algebra, "tensor": args.tensor, "nonzero": count}
        if first:
            doc["first_index"] = list(first[0])
            doc["first_value"] = str(first[1])
        print(json.dumps(doc))
    else:
        if first:
            index = ",".join(str(i) for i in first[0])
            print(f"{args.equation}: nonzero={count} first=({index})={first[1]}")
        else:
            print(f"{args.equation}: nonzero=0 (solution)")
    return 0 if count == 0 else 1


def _cmd_build_solution(args) -> int:
    module = read_module(args.module)
    T = read_map(args.map)
    if isinstance(module, PreLieModule):
        hat, r = build_s_solution(module, T)
        equation = "eq-2.9"
        residual = s_residual(hat, r)
    elif isinstance(module, LDendModule):
        hat, r = build_ld_solution(module, T)
        equation = "eq-4.8"
        residual = ld_residual(hat, r, equation)
    else:
        raise ValueError("build-solution expects a pre-Lie or L-dendriform module")
    alg_path = f"{args.out}.alg.json"
    tensor_path = f"{args.out}.tensor.json"
    write_algebra(hat, alg_path)
    write_tensor(r, tensor_path)
    count = residual.nonzero_count()
    print(f"wrote {alg_path}")
    print(f"wrote {tensor_path}")
    print(f"{equation}: nonzero={count}" + (" (solution)" if count == 0 else ""))
    return 0


def _cmd_catalog(args) -> int:
    try:
        files = catalog_mod.catalog_files(args.name)
    except KeyError as exc:
        raise ValueError(exc.args[0]) from None
    out_dir = Path(args.dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for filename, obj in files:
        path = out_dir / filename
        if isinstance(obj, Tensor2):
            write_tensor(obj, path)
        elif hasattr(obj, "ops"):
            write_algebra(obj, path)
        else:
            write_map(obj, path)
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitalg",
        description="Exact-rational workbench for algebras with split multiplications",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("check", help="verify class axioms or cocycle identities")
    p.add_argument("--class", dest="class_name", required=True,
                   choices=CLASS_NAMES + _COCYCLE_CLASSES)
    p.add_argument("--form", help="bilinear form file (cocycle checks)")
    p.add_argument("--json", action="store_true")
    p.add_argument("algebra")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("derive", help="apply a functor to an algebra file")
    p.add_argument("--functor", required=True, choices=sorted(_FUNCTORS))
    p.add_argument("--out", "-o")
    p.add_argument("algebra")
    p.set_defaults(handler=_cmd_derive)

    p = sub.add_parser("oop-check", help="verify an O-operator identity")
    p.add_argument("--map", required=True)
    p.add_argument("--module", help="module file (pre-Lie, L-dendriform or rho)")
    p.add_argument("--json", action="store_true")
    p.add_argument("algebra", nargs="?",
                   help="Lie algebra file; uses the adjoint representation")
    p.set_defaults(handler=_cmd_oop_check)

    p = sub.add_parser("rb-check", help="verify a weight-zero Rota-Baxter identity")
    p.add_argument("--map", required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("algebra")
    p.set_defaults(handler=_cmd_rb_check)

    p = sub.add_parser("lift", help="L-dendriform structure from a symmetric 2-cocycle")
    p.add_argument("--form", required=True)
    p.add_argument("--force", action="store_true",
                   help="emit tables even when the precondition fails")
    p.add_argument("--out", "-o")
    p.add_argument("algebra")
    p.set_defaults(handler=_cmd_lift)

    p = sub.add_parser("induce", help="structures induced by (O-)operators")
    p.add_argument("--map", action="append", default=[], required=True)
    p.add_argument("--module")
    p.add_argument("--compatible", action="store_true",
                   help="with --module: carry the structure to the base of an invertible operator")
    p.add_argument("--force", action="store_true")
    p.add_argument("--out", "-o")
    p.add_argument("algebra", nargs="?")
    p.set_defaults(handler=_cmd_induce)

    p = sub.add_parser("search-rb", help="exhaustive Rota-Baxter operator search")
    p.add_argument("--entry-set", required=True, help="comma-separated rationals")
    p.add_argument("--cap", type=int, default=10**6)
    p.add_argument("--json", action="store_true")
    p.add_argument("algebra")
    p.set_defaults(handler=_cmd_search_rb)

    p = sub.add_parser("verify-eq", help="tensor-equation residual of a rank-2 tensor")
    p.add_argument("--equation", required=True, choices=_EQUATIONS)
    p.add_argument("--json", action="store_true")
    p.add_argument("algebra")
    p.add_argument("tensor")
    p.set_defaults(handler=_cmd_verify_eq)

    p = sub.add_parser("build-solution", help="semidirect algebra plus tensor from a module and a map")
    p.add_argument("--module", required=True)
    p.add_argument("--map", required=True)
    p.add_argument("--out", default="solution", help="output file prefix")
    p.set_defaults(handler=_cmd_build_solution)

    p = sub.add_parser("catalog", help="write a shipped fixture to files")
    p.add_argument("name", help=f"one of {', '.join(catalog_mod.CATALOG_NAMES)}")
    p.add_argument("--dir", default=".")
    p.set_defaults(handler=_cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except PreconditionFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, UnknownOperation, SingularMap, OSError) as exc:
        # str() of a KeyError such as UnknownOperation quotes its message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2

if __name__ == "__main__":
    sys.exit(main())
