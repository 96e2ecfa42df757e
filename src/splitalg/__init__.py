"""splitalg: exact-rational workbench for algebras with split multiplications.

Verifies pre-Lie, Lie, associative, dendriform, L-dendriform and quadri
axioms on multiplication tables; applies every construction between those
classes; checks and builds Rota-Baxter operators, O-operators, 2-cocycles
and solutions of the S- and LD-tensor equations.  All arithmetic is exact
over the rationals.
"""

from .axioms import (
    CLASS_NAMES,
    CheckReport,
    Failure,
    check_class,
    check_ldend_cocycle,
    check_prelie_cocycle,
)
from .core import (
    OP_NAMES,
    Algebra,
    BilinearForm,
    DimensionMismatch,
    LinearMap,
    PreconditionFailed,
    SingularMap,
    Tensor2,
    Tensor3,
    UnknownOperation,
    algebra,
    basis_vector,
    bilinear_form,
    dual_rep,
    exchange,
    family_contract,
    form_from_invertible_map,
    linmap,
    map_from_form,
    map_to_tensor,
    merge_ops,
    multiply,
    rat,
    rename_ops,
    slot_product,
    tensor2,
    tensor2_from_entries,
    tensor3,
    tensor3_from_entries,
    tensor_to_map,
    zero_algebra,
)
from .functors import (
    dendriform_to_ldend,
    horizontal_prelie,
    quadri_derive,
    sub_adjacent_lie,
    transpose,
    vertical_prelie,
)
from .operators import (
    SearchSpaceTooLarge,
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
from .representations import (
    LDendModule,
    PreLieModule,
    check_ldend_module,
    check_prelie_module,
    dual_ldend_module,
    dual_prelie_module,
    left_family,
    regular_ldend_module,
    regular_prelie_module,
    right_family,
    semidirect_ldend,
    semidirect_prelie,
)
from .ybe import (
    LD_VARIANTS,
    build_ld_solution,
    build_s_solution,
    canonical_double_solution,
    embed_operator,
    form_criterion_check,
    ld_equivalence_check,
    ld_residual,
    s_equivalence_check,
    s_residual,
)

__version__ = "0.1.0"
