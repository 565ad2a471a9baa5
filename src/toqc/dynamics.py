"""Propagation of the unitary and costate flows.

Controls are piecewise constant on grid cells, so each step is one exact
matrix exponential and the trajectory stays in SU(N) to rounding.  Long
products are polar-projected every ``PROJECTION_PERIOD`` cells
(:func:`reunitarize`, a Newton-Schulz step near the group), and
:func:`evolve_unitary` chains its blocks in log depth.  The costate flow
i dF/dt = [H, F] is solved exactly by conjugation with the propagator,
F(t) = U(t) F(0) U(t)^dagger, which keeps the spectrum of F (and hence
tr[F^2]) frozen by construction.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Callable, Optional

import numpy as np

from .constraint_model import ConstraintSet
from .errors import DimensionMismatchError, MissingCostateError, ValidationError
from .sun_algebra import (
    dagger,
    exp_op,
    require_traceless_hermitian,
    stack_product,
    unitarity_defect,
)
from .tolerances import DEFAULT_TOL

# cells between the polar projections of a long product of steps; the
# shooting march projects on the same period, and its parareal rebuild
# reproduces the serial march only with blocks of this length: a block's
# march then ends with the projection, as its one-cell coarse step and that
# step's forward-difference Jacobian do
PROJECTION_PERIOD = 64

__all__ = [
    "Protocol",
    "Trajectory",
    "ConservationReport",
    "BoundaryResidual",
    "protocol_from_function",
    "evolve_unitary",
    "evolve_costate",
    "conserved_traces",
    "conservation_report",
    "fidelity_residual",
    "boundary_residual",
]


@dataclass(frozen=True, eq=False)
class Protocol:
    """A sampled control trajectory on a strictly increasing time grid.

    ``controls[k]`` holds the coefficients u_j on the cell
    [grid[k], grid[k+1]); the induced Hamiltonian on that cell is
    H_d + sum_j u_j c_j.
    """

    constraint: ConstraintSet
    grid: np.ndarray            # (K+1,)
    controls: np.ndarray        # (K, l)

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        controls = np.atleast_2d(np.asarray(self.controls, dtype=float))
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "controls", controls)
        if grid.ndim != 1 or len(grid) < 2:
            raise ValidationError("grid needs at least two samples")
        # NaN compares false, so it would pass every check below
        if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(controls))):
            raise ValidationError("grid and controls must be finite")
        if np.any(np.diff(grid) <= 0):
            raise ValidationError("grid must be strictly increasing")
        if grid[-1] <= grid[0]:
            raise ValidationError("total time must be positive")
        if controls.shape != (len(grid) - 1, self.constraint.n_controls):
            raise ValidationError(
                f"controls shape {controls.shape} does not match grid/continuum "
                f"({len(grid)-1} cells x {self.constraint.n_controls} controls)")
        worst = float(np.max(self.constraint.bound_violation(controls)))
        if worst > DEFAULT_TOL.admissible:
            raise ValidationError(f"controls leave the admissible set by "
                                  f"{worst:.3e} (> {DEFAULT_TOL.admissible:g})")

    @property
    def total_time(self) -> float:
        return float(self.grid[-1] - self.grid[0])

    @property
    def n_cells(self) -> int:
        return len(self.grid) - 1

    def hamiltonians(self) -> np.ndarray:
        """Stacked cell Hamiltonians, shape (K, N, N)."""
        return self.constraint.hamiltonian(self.controls)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Propagated unitaries (and optionally costates) on a protocol grid."""

    protocol: Protocol
    unitaries: np.ndarray                 # (K+1, N, N)
    costates: Optional[np.ndarray] = None  # (K+1, N, N)

    @property
    def final_unitary(self) -> np.ndarray:
        return self.unitaries[-1]


@dataclass(frozen=True)
class ConservationReport:
    """Maximum drifts of the conserved quantities along a trajectory."""
    hf_drift: float
    f2_drift: float
    unitarity_drift: float

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class BoundaryResidual:
    """Boundary mismatch between U(T) and a target.

    ``fidelity`` = 1 - |tr[target^dagger U(T)]| / N, insensitive to center
    phases; ``exact`` is the Frobenius norm ||U(T) - target||.
    """
    fidelity: float
    exact: float


def protocol_from_function(constraint: ConstraintSet, grid: np.ndarray,
                           control_fn: Callable[[float], np.ndarray],
                           sampling: str = "left") -> Protocol:
    """Sample a continuous control law onto a piecewise-constant protocol.

    ``sampling`` is "left" (cell start, first-order) or "midpoint"
    (second-order; use for convergence studies and dense reproductions of
    smooth optimal controls).
    """
    grid = np.asarray(grid, dtype=float)
    if sampling == "left":
        ts = grid[:-1]
    elif sampling == "midpoint":
        ts = 0.5 * (grid[:-1] + grid[1:])
    else:
        raise ValidationError(f"unknown sampling {sampling!r}")
    controls = np.stack([np.asarray(control_fn(float(t)), dtype=float) for t in ts])
    return Protocol(constraint, grid, controls)


# the largest defect max|U^dagger U - I| that reunitarize meets with a
# Newton-Schulz step, which leaves about (3/4) defect^2 (<= 1e-14 here); the
# step diverges for ||U||_2 >= sqrt(3), so members further off the group,
# such as the parareal starts of a bang-bang rebuild, take the SVD
_NEWTON_SCHULZ_DEFECT = 1e-7


def reunitarize(u: np.ndarray) -> np.ndarray:
    """Project near-unitary matrices (one, or a stack) back onto the unitary
    group: their polar factors.

    A member within ``_NEWTON_SCHULZ_DEFECT`` of the group takes one
    Newton-Schulz step U (3I - U^dagger U) / 2 (Higham, *Functions of
    Matrices*, SIAM 2008, section 8.3), written U (I - E/2) with E = U^dagger U
    - I: two :func:`~toqc.sun_algebra.stack_product` calls over the stack,
    the first of which also measures the defect.  The others are then
    overwritten with the SVD's W V^dagger.  The choice is made per member,
    so a member's result does not depend on the stack it sits in.
    """
    n = u.shape[-1]
    stack = u.reshape(-1, n, n)
    eye = np.eye(n)
    err = stack_product(dagger(stack), stack)
    err -= eye
    near = np.max(np.abs(err), axis=(-2, -1)) <= _NEWTON_SCHULZ_DEFECT
    err *= -0.5
    err += eye   # I - E/2, in place
    out = stack_product(stack, err)
    if not near.all():
        w, _, vt = np.linalg.svd(stack[~near])
        out[~near] = w @ vt
    return out.reshape(u.shape)


def evolve_unitary(protocol: Protocol) -> Trajectory:
    """Integrate i dU/dt = H(t) U with U(0) = 1 by exact exponential steps.

    Every ``PROJECTION_PERIOD`` (64) steps the accumulated product is
    polar-projected back onto the unitary group (:func:`reunitarize`), so
    rounding does not build up over long grids (keeps tr[F^2] frozen to
    ~1e-14 even at 10^5 cells).

    The running product is blocked along those 64-cell projection blocks:
    the prefix products inside every block are formed for all blocks at
    once (63 calls of :func:`~toqc.sun_algebra.stack_product`, each on one
    member per block, written back into the step stack).  The projected
    block totals are chained by a Hillis-Steele scan: in round d = 1, 2, 4,
    ... every block from d on takes the product with the block d before it,
    projected, so ceil(log2(K / 64)) stacked rounds give every block end in
    place of K / 64 serial products and projections.  Every
    node is then one :func:`~toqc.sun_algebra.stack_product` of an in-block
    prefix with its block's start, taken in chunks of 2048 nodes.  The last
    K mod 64 cells are stepped one by one.
    """
    n = protocol.constraint.dim
    k_cells = protocol.n_cells
    block = PROJECTION_PERIOD
    steps = exp_op(protocol.hamiltonians(), np.diff(protocol.grid))
    out = np.empty((k_cells + 1, n, n), dtype=complex)
    out[0] = np.eye(n)
    n_blocks = k_cells // block
    full = n_blocks * block
    prefix = steps[:full].reshape(n_blocks, block, n, n)
    for j in range(1, block):
        prefix[:, j] = stack_product(prefix[:, j], prefix[:, j - 1])
    starts = np.empty((n_blocks + 1, n, n), dtype=complex)
    starts[0] = out[0]
    ends = starts[1:]
    ends[:] = reunitarize(prefix[:, -1])
    d = 1
    while d < n_blocks:
        ends[d:] = reunitarize(stack_product(ends[d:], ends[:-d]))
        d *= 2
    stack_product(prefix, starts[:-1, None], out=out[1:full + 1].reshape(prefix.shape))
    out[block:full + 1:block] = ends   # block ends carry the projection
    acc = starts[-1]
    for k in range(full, k_cells):
        acc = steps[k] @ acc
        out[k + 1] = acc
    return Trajectory(protocol, out)


def evolve_costate(f0: np.ndarray, traj: Trajectory) -> Trajectory:
    """Attach the costate flow F(t) = U(t) F(0) U(t)^dagger to a trajectory.

    This is the exact solution of i dF/dt = [H, F] for the piecewise-constant
    Hamiltonian that generated ``traj``; the flow is isospectral, so the
    spectrum of every F(t_k) equals that of F(0).  The two products are
    :func:`~toqc.sun_algebra.stack_product` calls, the second taken as
    conj(conj(U F0) U^T): U^T is a view, so no stack-sized U^dagger is made
    and the peak is the two stacks U F0 and F.
    """
    require_traceless_hermitian(f0, "costate")
    if f0.shape != traj.unitaries[0].shape:
        raise DimensionMismatchError(
            f"costate shape {f0.shape} vs unitary shape {traj.unitaries[0].shape}")
    us = traj.unitaries
    # conj(conj(U F0) U^T) is U F0 U^dagger bit for bit
    w = stack_product(us, f0)
    costates = stack_product(np.conjugate(w, out=w), np.swapaxes(us, -1, -2))
    return replace(traj, costates=np.conjugate(costates, out=costates))


def conserved_traces(traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """tr[H F] at each cell start, shape (K,), and tr[F^2] at every grid
    point, shape (K+1,).

    tr[H F] pairs the costate at t_k with the Hamiltonian of the cell that
    starts there; within a cell it is exactly constant.
    """
    if traj.costates is None:
        raise MissingCostateError("trajectory has no costates attached")
    fs = traj.costates
    hf = np.einsum("kab,kba->k", traj.protocol.hamiltonians(), fs[:-1]).real
    f2 = np.einsum("kab,kba->k", fs, fs).real
    return hf, f2


def conservation_report(traj: Trajectory) -> ConservationReport:
    """Maximum drift of tr[H F], tr[F^2] and unitarity along the grid.

    tr[H F] is sampled per cell with the cell Hamiltonian and the costate at
    the cell start (within a cell it is exactly constant, so cell starts see
    all of the drift).
    """
    # U^dagger U is built before the traces exist (peak memory)
    unitarity = float(np.max(unitarity_defect(traj.unitaries)))
    hf, f2 = conserved_traces(traj)
    return ConservationReport(
        hf_drift=float(np.max(np.abs(hf - hf[0]))),
        f2_drift=float(np.max(np.abs(f2 - f2[0]))),
        unitarity_drift=unitarity,
    )


def fidelity_residual(u: np.ndarray, target: np.ndarray) -> float:
    """1 - |tr[target^dagger U]| / N, insensitive to center phases."""
    return float(1.0 - abs(np.trace(dagger(target) @ u)) / u.shape[0])


def boundary_residual(traj: Trajectory, target: np.ndarray) -> BoundaryResidual:
    """Terminal mismatch of the trajectory against a target unitary."""
    u_t = traj.final_unitary
    if u_t.shape != target.shape:
        raise DimensionMismatchError(
            f"target shape {target.shape} vs unitary shape {u_t.shape}")
    fid = fidelity_residual(u_t, target)
    exact = float(np.linalg.norm(u_t - target))
    return BoundaryResidual(fidelity=max(fid, 0.0), exact=exact)
