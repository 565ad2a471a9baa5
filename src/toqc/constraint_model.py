"""Admissible-Hamiltonian sets: drift + control subspace + bound.

A constraint set holds the drift Hamiltonian, an ordered frame spanning the
control subspace, and one of three bound kinds:

* ``Typical`` -- a single Hilbert-Schmidt ball (1/2) tr[H_c^2] <= Omega^2 on
  an orthonormal control frame;
* ``Box`` -- independent per-coordinate bounds lo_j <= u_j <= hi_j;
* ``BallInCoords`` -- a quadratic bound u^T G u <= r^2 on the control
  coefficients with a declared SPD metric G (the frame need not be
  normalized, e.g. coefficient balls mixing exchange and field axes).

The three kinds have two geometries, a box and a ball: on the frame the
Hilbert-Schmidt ball is the coefficient ball whose metric is the frame's
Gram matrix (1/2) tr[c_i c_j], so ``Typical(omega)`` is the ball of radius
omega in that metric.  Controls are frame coefficients for every kind.

The module classifies constraint sets (lollipop vs lotus-leaf, planar,
typical, drift-in-bracket), evaluates the pointwise maximizer of the
Pontryagin function -1 + tr[H F], and detects singular points where the
costate is orthogonal to the whole control subspace.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .sun_algebra import (
    commutator,
    hs_norm,
    inner,
    project,
    require_traceless_hermitian,
)
from .tolerances import DEFAULT_TOL

__all__ = [
    "Typical",
    "Box",
    "BallInCoords",
    "ConstraintSet",
    "ClassificationReport",
    "MaximizerResult",
    "classify",
    "maximizer",
    "is_singular",
    "pontryagin_h",
]


@dataclass(frozen=True)
class Typical:
    """Hilbert-Schmidt ball (1/2) tr[H_c^2] <= omega^2."""
    omega: float


@dataclass(frozen=True, eq=False)
class Box:
    """Per-coordinate bounds lo_j <= u_j <= hi_j."""
    lo: np.ndarray
    hi: np.ndarray


@dataclass(frozen=True, eq=False)
class BallInCoords:
    """Coefficient ball u^T metric u <= radius^2."""
    radius: float
    metric: np.ndarray


Kind = Union[Typical, Box, BallInCoords]


def _orthonormalize(frame: np.ndarray) -> np.ndarray:
    """Gram-Schmidt under the (1/2) tr[AB] inner product; drops vectors
    whose remainder is below 1e-12 of max(1, their norm)."""
    out: list[np.ndarray] = []
    for a in frame:
        v = a.astype(complex)
        for b in out:
            v = v - inner(v, b) * b
        nrm = hs_norm(v)
        if nrm > 1e-12 * max(1.0, hs_norm(a)):
            out.append(v / nrm)
    return np.stack(out)


@dataclass(frozen=True, eq=False)
class ConstraintSet:
    """The set of available Hamiltonians H_d + sum_j u_j c_j with u bounded.

    ``control_basis`` is the ordered control frame (c_1..c_l); for the
    ``Typical`` kind it must be orthonormal under (1/2) tr[AB].
    ``control_names`` optionally names the coordinates for reports.
    Every bound (omega, lo, hi, radius, metric) must be finite; a NaN or
    infinite one raises ValidationError.
    """

    dim: int
    drift: np.ndarray
    control_basis: tuple[np.ndarray, ...]
    kind: Kind
    control_names: Optional[tuple[str, ...]] = None
    _frame: np.ndarray = field(init=False, repr=False)
    _span: np.ndarray = field(init=False, repr=False)
    # the resolved bound: (lo, hi) of a box, or (metric, radius) of a ball
    _box: Optional[tuple[np.ndarray, np.ndarray]] = field(init=False, repr=False)
    _ball: Optional[tuple[np.ndarray, float]] = field(init=False, repr=False)
    _frame_real: np.ndarray = field(init=False, repr=False)
    _pairing: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        require_traceless_hermitian(self.drift, "drift")
        if self.drift.shape != (self.dim, self.dim):
            raise DimensionMismatchError(
                f"drift shape {self.drift.shape} does not match dim {self.dim}")
        if not self.control_basis:
            raise ValidationError("control_basis must contain at least one element")
        for k, c in enumerate(self.control_basis):
            require_traceless_hermitian(c, f"control_basis[{k}]")
            if c.shape != (self.dim, self.dim):
                raise DimensionMismatchError(
                    f"control_basis[{k}] has shape {c.shape}, expected {(self.dim,)*2}")
        l = len(self.control_basis)
        stack = np.stack(self.control_basis)
        gram = 0.5 * np.einsum("iab,jba->ij", stack, stack).real
        box = ball = None
        if isinstance(self.kind, Typical):
            if not 0 < self.kind.omega < np.inf:   # NaN fails too
                raise ValidationError("typical bound omega must be positive and finite")
            if np.max(np.abs(gram - np.eye(l))) >= DEFAULT_TOL.subspace_gram:
                raise ValidationError(
                    "typical kind needs an orthonormal control frame "
                    "(Gram matrix 2*I under the full trace)")
            ball = gram, self.kind.omega
        elif isinstance(self.kind, Box):
            lo, hi = np.asarray(self.kind.lo, float), np.asarray(self.kind.hi, float)
            if lo.shape != (l,) or hi.shape != (l,):
                raise ValidationError("box bounds must match the number of controls")
            if not np.all(np.isfinite([lo, hi])):
                raise ValidationError("box bounds must be finite")
            if np.any(lo > hi):
                raise ValidationError("box bounds need lo_j <= hi_j")
            box = lo, hi
        elif isinstance(self.kind, BallInCoords):
            g = np.asarray(self.kind.metric, float)
            if g.shape != (l, l):
                raise ValidationError("ball metric must be l x l")
            if not np.all(np.isfinite(g)):
                raise ValidationError("ball metric must be finite")
            if np.max(np.abs(g - g.T)) > 1e-12:
                raise ValidationError("ball metric must be symmetric")
            if np.min(np.linalg.eigvalsh(g)) <= 0:
                raise ValidationError("ball metric must be positive definite")
            if not 0 < self.kind.radius < np.inf:
                raise ValidationError("ball radius must be positive and finite")
            ball = g, self.kind.radius
        else:
            raise ValidationError(f"unknown constraint kind {self.kind!r}")
        if self.control_names is not None and len(self.control_names) != l:
            raise ValidationError("control_names must match the number of controls")
        # float view (l, 2 N^2) of the frame: for Hermitian c_j, tr[F c_j] is
        # the dot product of the float views of F and c_j.  The pairing
        # columns give g, Gram^{-1} g and, for a ball whose metric is not
        # the Gram matrix, metric^{-1} g.  The pseudo-inverse keeps a
        # linearly dependent frame: g lies in the range of its singular Gram
        # matrix, so g . Gram^+ g = ||P F||^2.
        frame_real = np.ascontiguousarray(stack, dtype=complex).reshape(l, -1).view(float)
        duals = [gram] if ball is None or np.array_equal(ball[0], gram) \
            else [gram, ball[0]]
        half = 0.5 * frame_real.T
        pairing = np.concatenate(
            [half] + [half @ np.linalg.pinv(d, hermitian=True) for d in duals], axis=1)
        for name, value in (("_frame", stack), ("_span", _orthonormalize(stack)),
                            ("_box", box), ("_ball", ball),
                            ("_frame_real", frame_real), ("_pairing", pairing)):
            object.__setattr__(self, name, value)

    @property
    def n_controls(self) -> int:
        return len(self.control_basis)

    @property
    def control_labels(self) -> tuple[str, ...]:
        """``control_names``, or u1, u2, ... when they are unset."""
        return self.control_names or tuple(f"u{j+1}" for j in range(self.n_controls))

    @property
    def control_span(self) -> np.ndarray:
        """Orthonormalized spanning set of the control subspace."""
        return self._span

    def project_control(self, a: np.ndarray) -> np.ndarray:
        """Orthogonal projection onto the control subspace."""
        return project(a, self._span, check=False)

    def hamiltonian(self, u: np.ndarray) -> np.ndarray:
        """H_d + sum_j u_j c_j; a stack (..., l) of u gives (..., N, N).

        The sum is one matrix product of u with the frame flattened to
        (l, N*N).
        """
        u = np.asarray(u, dtype=float)
        frame = self._frame.reshape(self.n_controls, -1)
        h = (u @ frame).reshape(u.shape[:-1] + self.drift.shape)
        h += self.drift
        return h

    def bound_violation(self, u: np.ndarray) -> float | np.ndarray:
        """How far the coefficients u stick out of the admissible region.

        ``u`` is one coefficient vector (l,) or a stack (K, l); a stack gives
        one value per row.  The Hilbert-Schmidt ball is the coefficient ball
        whose metric is the frame's Gram matrix.
        """
        u = np.asarray(u, dtype=float)
        if self._ball is None:
            lo, hi = self._box
            return np.maximum(np.max(lo - u, axis=-1, initial=0.0),
                              np.max(u - hi, axis=-1, initial=0.0))
        metric, radius = self._ball
        quad = np.einsum("...i,ij,...j->...", u, metric, u)
        return np.maximum(0.0, np.sqrt(np.maximum(quad, 0.0)) - radius)


@dataclass(frozen=True)
class ClassificationReport:
    """Structural classification of a constraint set."""
    drift_in_subspace: bool
    type_label: str  # "lollipop" | "lotus_leaf"
    planar: bool
    typical: bool
    drift_in_bracket: bool

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class MaximizerResult:
    """Pointwise maximizer of -1 + tr[H F] over the constraint set.

    ``singular`` means the costate is orthogonal to the control subspace and
    the maximum condition carries no information.  For regular box results,
    ``partially_singular`` lists coordinates whose pairing with F is below
    threshold (their bang value is undetermined; they are set to the
    admissible value closest to zero and flagged for singular-arc analysis).
    """
    singular: bool
    hamiltonian: Optional[np.ndarray] = None
    controls: Optional[np.ndarray] = None
    partially_singular: tuple[int, ...] = ()


def classify(c: ConstraintSet) -> ClassificationReport:
    """Classify a constraint set.

    The drift is in the subspace iff its projection residual vanishes; it is
    in the bracket iff it lies in the span of all pairwise -i[c_i, c_j].
    All three bound kinds describe full-dimensional closed regions of the
    control hyperplane, so ``planar`` is always true; ``typical`` is reserved
    for the Hilbert-Schmidt ball kind.  Both span tests use the residual
    threshold ``DEFAULT_TOL.span_membership``, relative to max(1, ||H_d||).
    """
    tol = DEFAULT_TOL.span_membership
    drift_norm = max(1.0, hs_norm(c.drift))
    res = hs_norm(c.drift - c.project_control(c.drift))
    drift_in_subspace = res < tol * drift_norm

    brackets = [
        commutator(c.control_basis[i], c.control_basis[j])
        for i in range(c.n_controls)
        for j in range(i + 1, c.n_controls)
    ]
    nonzero = [b for b in brackets if hs_norm(b) > 1e-14]
    if nonzero:
        span = _orthonormalize(np.stack(nonzero))
        bres = hs_norm(c.drift - project(c.drift, span, check=False))
        drift_in_bracket = bres < tol * drift_norm
    else:
        drift_in_bracket = hs_norm(c.drift) < tol

    return ClassificationReport(
        drift_in_subspace=drift_in_subspace,
        type_label="lollipop" if drift_in_subspace else "lotus_leaf",
        planar=True,
        typical=isinstance(c.kind, Typical),
        drift_in_bracket=drift_in_bracket,
    )


def _span_maximizer(f: np.ndarray, c: ConstraintSet):
    """Maximizer of tr[H F] over the constraint set for a stack F (B, N, N).

    Returns (H, u, singular, flagged): the maximizing Hamiltonians (B, N, N),
    their frame coefficients (B, l), the rows whose projection onto the
    control subspace has norm below ``DEFAULT_TOL.singular``, and for the
    box kind the coordinates whose pairing is within that threshold of zero
    (all False for the balls).  At a singular row every admissible control
    maximizes; the row takes the one nearest zero, clip(0, lo, hi) for a
    box and 0 for a ball.  The pairings
    g_j = (1/2) tr[F c_j], Gram^{-1} g and, for a ball whose metric is not
    the Gram matrix, metric^{-1} g are one product with the constraint's
    pairing matrix; ||P F||^2 = g . Gram^{-1} g.  Every product is taken row
    by row, so a row of the result does not depend on the other rows of the
    stack.  :func:`maximizer` is the one-costate view.
    """
    l = c.n_controls
    f_real = np.ascontiguousarray(f, dtype=complex).reshape(len(f), -1).view(float)
    pairs = _row_products(f_real, c._pairing)
    g, gram_g = pairs[:, :l], pairs[:, l:2 * l]
    nrm = np.sqrt(np.maximum(np.einsum("bi,bi->b", g, gram_g), 0.0))
    tol = DEFAULT_TOL.singular
    singular = nrm < tol
    if c._ball is None:
        lo, hi = c._box
        nearest = np.clip(0.0, lo, hi)
        u = np.where(g > tol, hi, np.where(g < -tol, lo, nearest))
        flagged = np.abs(g) <= tol
    else:
        nearest = 0.0
        # maximize g . u subject to u^T M u <= r^2; for M = Gram the
        # denominator is ||P F||
        metric_g, denom = gram_g, nrm
        if pairs.shape[1] > 2 * l:
            metric_g = pairs[:, 2 * l:]
            denom = np.sqrt(np.einsum("bi,bi->b", g, metric_g))
        u = metric_g * (c._ball[1] / np.where(singular, 1.0, denom))[:, None]
        flagged = np.zeros(u.shape, dtype=bool)
    u[singular] = nearest   # every admissible u maximizes there
    h = _row_products(u, c._frame_real).view(complex).reshape(f.shape)
    h += c.drift
    return h, u, singular, flagged


def _row_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a stack of rows a (B, k), one row at a time.

    Each row is its own product, so its value does not depend on the other
    rows: BLAS takes a single row by another kernel than a block of rows,
    with another rounding.
    """
    return np.matmul(a[:, None, :], b)[:, 0]


def is_singular(f: np.ndarray, c: ConstraintSet) -> bool:
    """True iff F is orthogonal to the control subspace: the projection of F
    onto it has induced norm below ``DEFAULT_TOL.singular``.

    The same test marks a :func:`maximizer` result singular.
    """
    return maximizer(f, c).singular


def maximizer(f: np.ndarray, c: ConstraintSet) -> MaximizerResult:
    """Maximize tr[H F] over the constraint set at fixed costate F.

    With g_j = (1/2) tr[F c_j] and the frame's Gram matrix G_ij =
    (1/2) tr[c_i c_j], the projection of F onto the control subspace has
    ||P F||^2 = g^T G^{-1} g; below ``DEFAULT_TOL.singular`` in the induced
    norm the result is singular.  Otherwise the controls u are frame
    coefficients:

    * box: per-coordinate bang values by the sign of g_j;
    * ball (metric M, radius r): u = r * M^{-1} g / sqrt(g^T M^{-1} g), the
      metric-gradient direction saturating the quadratic bound.  Typical is
      the ball with M = G and r = omega, so H_c = omega * P(F) / ||P(F)||
      (the Cauchy-Schwarz direction).

    This is the B = 1 case of the stacked ``_span_maximizer``.
    """
    if f.shape != (c.dim, c.dim):
        raise DimensionMismatchError(
            f"costate shape {f.shape} does not match constraint dim {c.dim}")
    h, u, singular, flagged = _span_maximizer(f[None], c)
    if singular[0]:
        return MaximizerResult(singular=True)
    return MaximizerResult(False, h[0], u[0], tuple(np.flatnonzero(flagged[0]).tolist()))


def pontryagin_h(h: np.ndarray, f: np.ndarray) -> float:
    """The Pontryagin function -1 + tr[H F] (full trace)."""
    if h.shape != f.shape:
        raise DimensionMismatchError(f"shape mismatch {h.shape} vs {f.shape}")
    return float(np.trace(h @ f).real) - 1.0
