"""Central numeric tolerance record.

Every module reads its thresholds from a single :class:`Tolerances` value so
property tests have one knob to turn.  The defaults reflect what exact
eigendecomposition-based propagation can hold at desk scale (N <= 16).
"""

from __future__ import annotations

from dataclasses import dataclass, replace


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
    glc_symmetry : allowed violation of the (anti)symmetry law of the
        Legendre-Clebsch matrices
    semidefinite : eigenvalue slack in semidefiniteness verdicts
    congruence : allowed mismatch in reparametrization congruence checks
    residual : default shooting convergence tolerance (fidelity residual)
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
    residual: float = 1e-7

    def with_(self, **kwargs) -> "Tolerances":
        """Return a copy with selected thresholds replaced."""
        return replace(self, **kwargs)


DEFAULT_TOL = Tolerances()
