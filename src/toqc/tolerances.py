"""Central numeric tolerance record.

Every module reads its thresholds from the one :class:`Tolerances` value
:data:`DEFAULT_TOL`; no function takes a tolerance parameter.  The values
reflect what exact eigendecomposition-based propagation can hold at desk
scale (N <= 16).  The shooting and navigation residual bar is not a
threshold of this table: it is ``ShootingOptions.residual_tol``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Numeric thresholds shared across the toolkit.

    Attributes
    ----------
    hermitian : entrywise deviation allowed between A and A^dagger
    trace : allowed |tr A| for traceless representatives
    unitary : max-entry deviation of U^dagger U from the identity
    subspace_gram : Gram tolerance for projection subspaces
    branch_cut : how close a unitary eigenvalue may sit to -1 before the
        principal logarithm is refused
    span_membership : residual below which an operator counts as lying in a
        span (classification, bracket tests)
    singular : threshold on |tr[c_j F]|-type pairings below which the
        maximizer reports a singular point; looser than the matrix
        tolerances because it sits inside root-finding loops
    glc_symmetry : allowed violation max |Q^(m) - (-1)^m Q^(m)^T| of the
        symmetry law of the Legendre-Clebsch matrices (odd orders
        antisymmetric, even orders symmetric)
    semidefinite : eigenvalue slack in semidefiniteness verdicts
    congruence : allowed mismatch in reparametrization congruence checks
    admissible : how far a ``Protocol``'s controls may leave the bound
    drift_frame : relative residual of -i[H_d, c_j] off the control subspace
    identity_target : max-entry distance at which a target is the identity
    duplicate_start : coarse-solution gap (unit costate direction, T relative
        to max(1, T)) below which two shooting starts found one extremal
    parareal : largest entry change of a block-start unitary below which
        the parareal dense rebuild of a shooting extremal stops, or below
        which it predicts the next sweep's correction; the sweeps correct
        the starts by the coarse cell's Jacobian, and the serial march is
        their fixed point, so its controls come out to rounding
    """

    hermitian: float = 1e-12
    trace: float = 1e-12
    unitary: float = 1e-8
    subspace_gram: float = 1e-10
    branch_cut: float = 1e-10
    span_membership: float = 1e-10
    singular: float = 1e-9
    glc_symmetry: float = 1e-9
    semidefinite: float = 1e-9
    congruence: float = 1e-8
    admissible: float = 1e-10
    drift_frame: float = 1e-9
    identity_target: float = 1e-10
    duplicate_start: float = 1e-6
    parareal: float = 1e-13


DEFAULT_TOL = Tolerances()
