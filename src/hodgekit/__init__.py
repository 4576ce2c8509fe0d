"""Finite-dimensional operator algebra toolkit.

Numerically realizes, at finite matrix dimension, the package of
identities connecting curvature operators of oriented Riemannian
4-manifolds, the Hodge star and its one-parameter unitary flow, an
abstract vacuum Einstein condition over a refined tracial algebra,
Clifford algebra towers, surface-supported states on the 4-torus, and
GNS representation theory over multi-matrix algebras.
"""

from .linalg import (
    DEFAULT_TOL,
    adjoint,
    as_operator,
    expm_normal,
    frobenius,
    kron,
    load_matrix,
    load_vector,
    matrix_from_dict,
    matrix_to_dict,
    normality_residual,
    normalized_trace,
    operator_norm,
    random_matrix,
    save_matrix,
    save_vector,
    within,
)
from .clifford import (
    CliffordTower,
    QuadraticSignature,
    build_generators,
    embed_up,
    relation_residual,
    span_dimension,
    verify_periodicity,
)
from .curvature import (
    BASIS_CHANGE,
    CurvatureOperator,
    ManifoldModel,
    SPLIT_STAR,
    STANDARD_STAR,
    assemble_curvature,
    bianchi_residual,
    decompose_curvature,
    exemplar,
    ric0_norm,
    star_commutator_norm,
    tau_operator,
)
from .einstein import (
    Refinement,
    VacuumReport,
    check_einstein_vacuum,
    make_refinement,
    solve_einstein_vacuum,
)
from .dynamics import (
    FixedPointReport,
    FormalTemperature,
    HodgeGenerator,
    PerturbedGenerator,
    energy,
    evolve,
    formal_temperature,
    hodge_generator,
    is_fixed_point,
    perturbed_evolve,
    perturbed_power,
    perturbed_star,
    star_power,
)
from .states import (
    TorusSurfaceClass,
    homology_pairing,
    is_anti_self_dual,
    is_self_dual,
    pairing_is_degenerate,
    perturbed_stationarity,
    poincare_dual,
    state_functional,
    stationarity_derivative,
    surface_integral,
)
from .gns import (
    AlgebraState,
    FiniteAlgebra,
    GnsRepresentation,
    gns_null_ideal,
    gns_representation,
    left_ideal_residual,
    make_state,
)

__version__ = "0.1.0"
