"""Lie point symmetry analysis for autonomous systems of two second-order ODEs.

The layers, bottom up: :mod:`liesym.expr` (expression trees with exact
differentiation and sampled zero-testing), :mod:`liesym.odesys` (the system
container, 2x2 matrices, linear changes of dependent variables),
:mod:`liesym.symmetry` (generators, second prolongation, determining
residuals, admissibility verdicts), :mod:`liesym.jordan` (real 2x2 Jordan
shapes), :mod:`liesym.liealg` (the eight-dimensional symmetry algebra:
brackets, automorphisms, optimal-system normalizers), :mod:`liesym.catalog`
(the executable classification entries), and :mod:`liesym.cli` (the
``liesym`` command).
"""

from .catalog import (
    CatalogEntry,
    EntryReport,
    GeneratorCheck,
    draw_params,
    entry_ids,
    general_solution_system,
    get_entry,
    instantiate,
    list_entries,
    verify_entry,
    xi_family,
)
from .expr import (
    Expr,
    SamplingDomain,
    differentiate,
    evaluate,
    fold_constants,
    free_symbols,
    parse,
    sample,
    substitute,
    sym,
    to_string,
    zero_report_at,
)
from .jordan import Jordan2Result, classify2x2
from .liealg import (
    AlgebraElement,
    OptimalRep,
    adjoint_exp,
    apply_word,
    automorphism,
    bracket,
    canonical_vector,
    involution,
    kind_to_L4_rep,
    normalize_L4,
    normalize_L6,
    normalize_L8,
    rep_violations,
)
from .odesys import Mat2, OdeSystem, ReducibilityHint, linear_change, reducibility_hint
from .symmetry import (
    Generator,
    LinearGenerator,
    Verdict,
    admits,
    autonomous_residual,
    basis_generator,
    commutator_vf,
    default_domain,
    determining_generator,
    determining_matrix,
    determining_residual,
    prolong2_residual,
    residual_expressions,
    transform_generator,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement",
    "CatalogEntry",
    "EntryReport",
    "Expr",
    "Generator",
    "GeneratorCheck",
    "Jordan2Result",
    "LinearGenerator",
    "Mat2",
    "OdeSystem",
    "OptimalRep",
    "ReducibilityHint",
    "SamplingDomain",
    "Verdict",
    "admits",
    "adjoint_exp",
    "apply_word",
    "automorphism",
    "autonomous_residual",
    "basis_generator",
    "bracket",
    "canonical_vector",
    "classify2x2",
    "commutator_vf",
    "default_domain",
    "determining_generator",
    "determining_matrix",
    "determining_residual",
    "differentiate",
    "draw_params",
    "entry_ids",
    "evaluate",
    "fold_constants",
    "free_symbols",
    "general_solution_system",
    "get_entry",
    "instantiate",
    "involution",
    "kind_to_L4_rep",
    "linear_change",
    "list_entries",
    "normalize_L4",
    "normalize_L6",
    "normalize_L8",
    "parse",
    "prolong2_residual",
    "reducibility_hint",
    "rep_violations",
    "residual_expressions",
    "sample",
    "substitute",
    "sym",
    "to_string",
    "transform_generator",
    "verify_entry",
    "xi_family",
    "zero_report_at",
    "__version__",
]
