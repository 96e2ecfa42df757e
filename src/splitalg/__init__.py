"""splitalg: exact-rational workbench for algebras with split multiplications.

Verifies pre-Lie, Lie, associative, dendriform, L-dendriform and quadri
axioms on multiplication tables; applies every construction between those
classes; checks and builds Rota-Baxter operators, O-operators, 2-cocycles
and solutions of the S- and LD-tensor equations.  All arithmetic is exact
over the rationals.

Importing the package loads none of its modules.  Each name of ``__all__``,
and each submodule named in ``_EXPORTS``, loads its module on first use
(PEP 562 ``__getattr__``), so a process pays only for the modules it runs.
"""

import importlib

#: submodule -> the names the package re-exports from it
_EXPORTS = {
    "axioms": (
        "CLASS_NAMES", "CheckReport", "Failure", "check_class", "check_ldend_cocycle",
        "check_prelie_cocycle",
    ),
    "core": (
        "OP_NAMES", "Algebra", "BilinearForm", "DimensionMismatch", "LinearMap",
        "PreconditionFailed", "SingularMap", "Tensor2", "Tensor3", "UnknownOperation",
        "algebra", "basis_vector", "bilinear_form", "dual_rep", "exchange", "family_contract",
        "form_from_invertible_map", "linmap", "map_from_form", "map_to_tensor", "merge_ops",
        "multiply", "rat", "rename_ops", "slot_product", "tensor2", "tensor2_from_entries",
        "tensor3", "tensor3_from_entries", "tensor_to_map", "zero_algebra",
    ),
    "functors": (
        "dendriform_to_ldend", "horizontal_prelie", "quadri_derive", "sub_adjacent_lie",
        "transpose", "vertical_prelie",
    ),
    "operators": (
        "SearchSpaceTooLarge", "adjoint_family", "check_o_ldend", "check_o_lie",
        "check_o_prelie", "check_rota_baxter_prelie", "compatible_ldend_from_invertible_o",
        "ldend_from_2cocycle", "ldend_from_commuting_pair", "ldend_from_o_prelie",
        "ldend_from_rb", "prelie_from_o_lie", "search_rb",
    ),
    "representations": (
        "LDendModule", "PreLieModule", "check_ldend_module", "check_prelie_module",
        "dual_ldend_module", "dual_prelie_module", "left_family", "regular_ldend_module",
        "regular_prelie_module", "right_family", "semidirect_ldend", "semidirect_prelie",
    ),
    "ybe": (
        "LD_VARIANTS", "build_ld_solution", "build_s_solution", "canonical_double_solution",
        "embed_operator", "form_criterion_check", "ld_equivalence_check", "ld_residual",
        "s_equivalence_check", "s_residual",
    ),
}

__all__ = [
    "CLASS_NAMES", "CheckReport", "Failure", "check_class", "check_ldend_cocycle",
    "check_prelie_cocycle",
    "OP_NAMES", "Algebra", "BilinearForm", "DimensionMismatch", "LinearMap",
    "PreconditionFailed", "SingularMap", "Tensor2", "Tensor3", "UnknownOperation",
    "algebra", "basis_vector", "bilinear_form", "dual_rep", "exchange", "family_contract",
    "form_from_invertible_map", "linmap", "map_from_form", "map_to_tensor", "merge_ops",
    "multiply", "rat", "rename_ops", "slot_product", "tensor2", "tensor2_from_entries",
    "tensor3", "tensor3_from_entries", "tensor_to_map", "zero_algebra",
    "dendriform_to_ldend", "horizontal_prelie", "quadri_derive", "sub_adjacent_lie",
    "transpose", "vertical_prelie",
    "SearchSpaceTooLarge", "adjoint_family", "check_o_ldend", "check_o_lie",
    "check_o_prelie", "check_rota_baxter_prelie", "compatible_ldend_from_invertible_o",
    "ldend_from_2cocycle", "ldend_from_commuting_pair", "ldend_from_o_prelie",
    "ldend_from_rb", "prelie_from_o_lie", "search_rb",
    "LDendModule", "PreLieModule", "check_ldend_module", "check_prelie_module",
    "dual_ldend_module", "dual_prelie_module", "left_family", "regular_ldend_module",
    "regular_prelie_module", "right_family", "semidirect_ldend", "semidirect_prelie",
    "LD_VARIANTS", "build_ld_solution", "build_s_solution", "canonical_double_solution",
    "embed_operator", "form_criterion_check", "ld_equivalence_check", "ld_residual",
    "s_equivalence_check", "s_residual",
]

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"


def __getattr__(name: str):
    """Load the submodule ``name``, or the one that owns the exported
    ``name``, keep the value in the package globals and return it."""
    if name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _OWNER:
        value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
