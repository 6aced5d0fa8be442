"""Exact quantum Schubert calculus and Plucker-coordinate mirror
superpotentials for type-A partial flag varieties, with numerical
verification that critical values match the first-Chern-class spectrum."""

from .combinat import (
    FlagShape,
    Permutation,
    SkewShape,
    all_shapes,
    build_xi_and_wJ,
    code,
    minimal_reps,
    skew_shape_321,
)
from .crit import CritConfig, CritPoint, find_critical_points, toeplitz_residual
from .exactalg import (
    MPoly,
    VarTable,
    det,
    eigenvalues,
    lu_unipotent,
)
from .mirror import (
    SuperpotentialTerm,
    divisor_equations,
    f_minus_eval,
    pluecker,
    superpotential,
    uv_from_z,
    young_view,
)
from .qhpartial import PartialRing, c1_spectrum, partial_ring
from .schubring import (
    MonkOperators,
    QHClass,
    class_product,
    monk_operators,
    normal_form,
    quantum_E,
    quantum_H,
    quantum_schubert,
)
from .verify import (
    check_det_formula,
    check_key_identity,
    check_mirror_spectrum,
    check_tau_symmetry,
)

__all__ = [
    "FlagShape", "Permutation", "SkewShape", "all_shapes",
    "build_xi_and_wJ", "code", "minimal_reps", "skew_shape_321", "CritConfig",
    "CritPoint", "find_critical_points", "toeplitz_residual", "MPoly",
    "VarTable", "det", "eigenvalues", "lu_unipotent", "SuperpotentialTerm",
    "divisor_equations", "f_minus_eval", "pluecker", "superpotential",
    "uv_from_z", "young_view", "PartialRing", "c1_spectrum", "partial_ring",
    "MonkOperators", "QHClass", "class_product", "monk_operators",
    "normal_form", "quantum_E", "quantum_H", "quantum_schubert",
    "check_det_formula", "check_key_identity", "check_mirror_spectrum",
    "check_tau_symmetry",
]

__version__ = "0.1.0"
