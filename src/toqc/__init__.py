"""Time-optimal unitary control on SU(N).

Classification of admissible-Hamiltonian sets, maximum-principle shooting
for regular protocols, closed-form navigation solutions, and generalized
Legendre-Clebsch audits of singular arcs.
"""

from .arc_analysis import (
    ArcModel,
    BoundaryCase,
    arc_model,
    boundary_closure_study,
    derive_singular_structure,
)
from .brachistochrone import (
    AuditReport,
    ShootingOptions,
    ShootingProblem,
    SolveResult,
    drift_free_geodesic,
    interaction_picture_reduce,
    qb_consistency_audit,
    solve_shooting,
    zermelo_solve,
)
from .constraint_model import (
    BallInCoords,
    Box,
    ClassificationReport,
    ConstraintSet,
    MaximizerResult,
    Typical,
    classify,
    maximizer,
)
from .dynamics import (
    BoundaryResidual,
    ConservationReport,
    Protocol,
    Trajectory,
    boundary_residual,
    conservation_report,
    evolve_costate,
    evolve_unitary,
    protocol_from_function,
)
from .scenarios import (
    Scenario,
    get_scenario,
    landau_zener,
    one_qubit_xy,
    singular_replacement,
    symmetric_two_qubit,
    triplet_operators,
)
from .singular_glc import (
    ControlChart,
    GLCReport,
    boundary_reduce,
    glc_matrices,
    glc_test,
    normalized_singular_costate,
    reparametrization_check,
    singular_chain,
)
from .sun_algebra import (
    commutator,
    exp_op,
    expand,
    gellmann_basis,
    generalized_gellmann,
    hs_norm,
    inner,
    log_op,
    pauli_basis,
    reconstruct,
)
from .tolerances import DEFAULT_TOL, Tolerances

__version__ = "0.1.0"
