"""Regular time-optimal protocols: closed forms and shooting.

Closed forms
------------
With no drift and a full control subspace, extremals are geodesics: the
Hamiltonian is the (scaled) principal logarithm of the target and T is the
log norm over the speed bound.  With a drift and a norm-bounded free
control (quantum Zermelo navigation), transfer to the interaction picture
reduces the problem to the drift-free one, giving

    H(t) = H_d + e^{-i H_d t} H_c(0) e^{i H_d t},
    U(t) = e^{-i H_d t} e^{-i H_c(0) t},

with H_c(0) found from a scalar root: the smallest T > 0 such that the
principal log of e^{i H_d T} U_f has norm exactly omega * T.

Shooting
--------
For general constraints the two-point boundary problem is solved by single
shooting over the initial costate coefficients and the final time, with the
control eliminated pointwise through the maximizer of -1 + tr[H F].  The
boundary mismatch is charted smoothly through the anti-Hermitian part of
U(T) U_f^dagger plus a trace-deficit entry (no logarithm branch cuts inside
the iteration).  The free final time needs no residual of its own: the
seed is rescaled to tr[H(0) F(0)] = 1, and the flow conserves tr[H F], so
the N^2 boundary entries meet N^2 unknowns and the discrete march can hit
the target exactly.  The costate scale is a gauge of those entries; each
least-squares stage pins it with one more entry, (||c||^2 - r0^2) / (2 r0)
on the costate coefficients c, with r0 their norm where the stage starts.
The N^2 + 1 entries are consistent and their Jacobian has full rank.  A
trust-region least-squares iteration with a finite-difference Jacobian,
whose columns are marched in lockstep with each residual evaluation,
closes the system.
Results are extremals of the necessary conditions, not certified global
optima; among converged starts the minimal-time one is reported and all
converged times are listed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .constraint_model import (
    ConstraintSet,
    Typical,
    _span_maximizer,
    _support,
    maximizer,
)
from .dynamics import (
    PROJECTION_PERIOD,
    ConservationReport,
    Protocol,
    Trajectory,
    boundary_residual,
    conservation_report,
    evolve_costate,
    evolve_unitary,
    fidelity_residual,
    reunitarize,
)
from .errors import DegenerateProblemError, ValidationError
from .io_formats import protocol_to_json
from .sun_algebra import (
    BranchAmbiguityError,
    commutator,
    dagger,
    exp_op,
    expand,
    generalized_gellmann,
    hs_norm,
    is_unitary,
    log_norms,
    log_op,
    reconstruct,
    require_same_dim,
    stack_product,
)
from .tolerances import DEFAULT_TOL

__all__ = [
    "ShootingOptions",
    "ShootingProblem",
    "SolveResult",
    "AuditReport",
    "drift_free_geodesic",
    "zermelo_solution",
    "zermelo_solve",
    "interaction_picture_reduce",
    "solve_shooting",
    "qb_consistency_audit",
]


@dataclass(frozen=True)
class ShootingOptions:
    """Settings of the shooting and navigation solvers.

    ``grid_points`` (at least 16) is the cell count of the solve grid (each
    start's coarse stage marches max(16, grid_points // 6) cells, never more
    than its polish); the returned trajectory is rebuilt on
    ``refine_points`` cells.  ``multistarts`` seeds are tried
    (deterministically derived from ``seed``); the scan stops early once
    ``stop_after_converged`` starts have converged (a start that reuses an
    earlier start's polish counts, see :func:`solve_shooting`).
    ``residual_tol`` is the one fidelity-residual bar: a result is
    ``converged`` below it, for shooting and for navigation alike, and a
    shooting start is accepted below max(1e-6, residual_tol).  The time
    horizon (from the target's log norm and the speed bound) and the 200
    residual evaluations per least-squares stage are fixed by the solvers.
    Counts must be integers >= 1, the seed an integer >= 0, grid_points >=
    16, and residual_tol finite and > 0 (else ValidationError).
    """

    grid_points: int = 128
    multistarts: int = 32
    seed: int = 0
    residual_tol: float = 1e-7
    stop_after_converged: int = 6
    refine_points: int = 16384

    def __post_init__(self):
        for name, least in (("grid_points", 16), ("refine_points", 1),
                            ("multistarts", 1), ("stop_after_converged", 1),
                            ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < least:
                raise ValidationError(
                    f"{name} must be an integer >= {least}, got {value!r}")
        if not (np.isfinite(self.residual_tol) and self.residual_tol > 0):
            raise ValidationError(
                f"residual_tol must be finite and positive, got {self.residual_tol!r}")


@dataclass(frozen=True, eq=False)
class ShootingProblem:
    constraint: ConstraintSet
    target: np.ndarray
    options: ShootingOptions = ShootingOptions()


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Outcome of a solve: protocol, trajectory and diagnostics.

    ``residual`` is the phase-insensitive fidelity residual of the final
    refined trajectory against the target; ``exact_residual`` the Frobenius
    mismatch.  ``extremal_times`` lists every converged final time across
    the multistart (the reported protocol is the minimal one).
    """

    converged: bool
    T: float
    residual: float
    exact_residual: float
    protocol: Optional[Protocol]
    trajectory: Optional[Trajectory]
    costate0: Optional[np.ndarray]
    conservation: Optional[ConservationReport]
    singular_intervals: tuple[tuple[float, float], ...]
    seed: int
    n_starts: int
    extremal_times: tuple[float, ...] = ()
    message: str = ""

    def as_dict(self) -> dict:
        out = {
            "converged": self.converged,
            "T": self.T,
            "residual": self.residual,
            "exact_residual": self.exact_residual,
            "seed": self.seed,
            "n_starts": self.n_starts,
            "extremal_times": list(self.extremal_times),
            "singular_intervals": [list(i) for i in self.singular_intervals],
            "message": self.message,
        }
        if self.protocol is not None:
            # the evolve input artifact, so the block is directly re-usable
            out["protocol"] = protocol_to_json(self.protocol, self.costate0)
        if self.conservation is not None:
            out["conservation"] = self.conservation.as_dict()
        if self.costate0 is not None:
            out["costate0_coefficients"] = expand(
                self.costate0, generalized_gellmann(self.costate0.shape[0])
            ).tolist()
        return out


def _expm_step(h: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """exp(-i dt_b H_b) for a stack of Hermitian H (B, N, N): the march's
    exponential, :func:`exp_op` (the SU(2) closed form for N = 2)."""
    return exp_op(h, dt)


def _failure(seed: int, n_starts: int, message: str, T: float = float("nan"),
             residual: float = 1.0, exact: float = float("nan")) -> SolveResult:
    """An unconverged result that carries no protocol."""
    return SolveResult(False, T, residual, exact, None, None, None, None, (),
                       seed, n_starts, (), message)


def _solve_result(constraint: ConstraintSet, grid: np.ndarray,
                  controls: np.ndarray, f0: np.ndarray, target: np.ndarray,
                  options: ShootingOptions, T: float,
                  singular_intervals: tuple[tuple[float, float], ...],
                  n_starts: int, extremal_times: tuple[float, ...],
                  message: str) -> SolveResult:
    """Evolve U and F (from ``f0``) under the dense controls and report them;
    ``converged`` when the fidelity residual is below options.residual_tol."""
    protocol = Protocol(constraint, grid, controls)
    traj = evolve_costate(f0, evolve_unitary(protocol))
    report = conservation_report(traj)
    br = boundary_residual(traj, target)
    return SolveResult(bool(br.fidelity < options.residual_tol), T, br.fidelity,
                       br.exact, protocol, traj, f0, report, singular_intervals,
                       options.seed, n_starts, extremal_times, message)


def _check_target(target: np.ndarray, drift: np.ndarray,
                  seed: int) -> Optional[SolveResult]:
    """Refuse a target that is not a unitary of the drift's shape.

    Returns the T = 0 result when the target is the identity, to
    ``DEFAULT_TOL.identity_target`` in every entry, and None otherwise.
    """
    require_same_dim(target, drift)
    if not is_unitary(target):
        raise ValidationError(f"target is not unitary to {DEFAULT_TOL.unitary:g}")
    if np.max(np.abs(target - np.eye(len(drift)))) >= DEFAULT_TOL.identity_target:
        return None
    return SolveResult(True, 0.0, 0.0, 0.0, None, None, None, None, (),
                       seed, 0, (0.0,), "target is the identity")


def drift_free_geodesic(target: np.ndarray, omega: float) -> dict:
    """Constant-Hamiltonian geodesic reaching the target at full speed.

    Returns the Hamiltonian (norm omega under the induced norm) and the
    minimal time T = ||log target|| / omega along the principal branch.
    The identity target returns T = 0 with H = 0; omega must be positive
    and finite (else ValidationError).
    """
    if not 0 < omega < np.inf:   # NaN fails too
        raise ValidationError(f"omega must be positive and finite, got {omega!r}")
    n = target.shape[0]
    l = log_op(target)
    nrm = hs_norm(l)
    if nrm < 1e-14:
        return {"H": np.zeros((n, n), dtype=complex), "T": 0.0}
    h = omega * l / nrm
    return {"H": h, "T": nrm / omega}


def zermelo_solution(drift: np.ndarray, hc0: np.ndarray, t: float) -> dict:
    """Closed-form navigation flow at time t for a given initial control.

    H(t) = H_d + e^{-i H_d t} H_c(0) e^{i H_d t};
    U(t) = e^{-i H_d t} e^{-i H_c(0) t}.  The control norm is constant.
    """
    frame = exp_op(drift, t)          # e^{-i H_d t}
    h_t = drift + frame @ hc0 @ dagger(frame)
    u_t = frame @ exp_op(hc0, t)
    return {"H_t": h_t, "U_t": u_t}


def _navigation_controls(drift: np.ndarray, hc0: np.ndarray,
                         basis: tuple[np.ndarray, ...],
                         ts: np.ndarray) -> np.ndarray:
    """Frame coefficients u_j(t) = (1/2) tr[H_c(t) c_j] of the navigation
    control H_c(t) = e^{-i H_d t} H_c(0) e^{i H_d t}, shape (len(ts), l).

    In the drift eigenbasis H_d = V diag(w) V^dagger, with G = V^dagger
    H_c(0) V and C_j = V^dagger c_j V,
    u_j(t) = (1/2) sum_ab G_ab (C_j)_ba e^{-i (w_a - w_b) t}: one phase
    array over the N^2 eigenvalue gaps and one matrix product.
    """
    w, v = np.linalg.eigh(drift)
    g = dagger(v) @ hc0 @ v
    c = dagger(v) @ np.stack(basis) @ v
    kernel = 0.5 * (g * np.swapaxes(c, -1, -2)).reshape(len(c), -1)
    phases = np.exp(-1j * np.multiply.outer(ts, (w[:, None] - w).ravel()))
    # a real copy: a .real view would keep the complex product alive
    return np.ascontiguousarray((phases @ kernel.T).real)


def _target_log_norm(target: np.ndarray) -> float:
    """||log U_f||, or pi sqrt(N) when the principal logarithm is refused."""
    try:
        return hs_norm(log_op(target))
    except BranchAmbiguityError:
        return np.pi * np.sqrt(len(target))


def _merge_intervals(grid: np.ndarray, cells: list[int]) -> tuple[tuple[float, float], ...]:
    """The time spans of the runs of consecutive cells in ``cells``."""
    cells = np.asarray(cells, dtype=int)
    gaps = np.flatnonzero(np.diff(cells) > 1)
    starts = np.append(cells[:1], cells[gaps + 1])
    ends = np.append(cells[gaps], cells[-1:]) + 1
    return tuple((float(grid[a]), float(grid[b])) for a, b in zip(starts, ends))


def zermelo_solve(drift: np.ndarray, omega: float, target: np.ndarray,
                  options: ShootingOptions = ShootingOptions()) -> SolveResult:
    """Solve the navigation problem (full control subspace, norm <= omega).

    Scans T on 4096 points for the smallest positive root of
    g(T) = ||log(e^{i H_d T} U_f)|| - omega T, in chunks of 512 points in
    order, and stops at the first chunk that holds a sign change (the
    sample before a chunk carries across its edge).  It polishes that first
    sign change with Brent's method, recovers H_c(0) from the principal log
    at the root, and reproduces the motion on a dense midpoint-sampled grid
    with the exact costate F = lambda_0 H_c, scaled to tr[H(0) F(0)] = 1 by
    the normalization shooting uses (:func:`_normalize_seed`).  Each scan
    chunk and each stage after the root is one stacked operation over its
    sample times.  The dense controls are rebuilt in the eigenbasis of H_d,
    from one phase array over its eigenvalue gaps and one matrix product
    (:func:`_navigation_controls`).  Scan samples on the logarithm branch
    cut are skipped; a cut met inside the bracket or at the
    root returns an unconverged result that says so.  The closed-form
    endpoint e^{-i H_d T} e^{-i H_c(0) T} is U_f by construction of H_c(0),
    so it is not checked again: the result is ``converged`` when the rebuilt
    endpoint's fidelity residual is below ``options.residual_tol``, and
    otherwise unconverged with its protocol and residual.  An omega that is
    not positive and finite (refused by ``Typical``), or a target off the
    unitary group, raises ValidationError; a target of the wrong shape
    DimensionMismatchError.
    """
    n = len(drift)
    constraint = ConstraintSet(n, drift, tuple(generalized_gellmann(n)), Typical(omega))
    identity = _check_target(target, drift, options.seed)
    if identity is not None:
        return identity

    def g(ts: np.ndarray) -> np.ndarray:
        # e^{i H_d t} U_f for every t; NaN where the logarithm is refused
        return log_norms(exp_op(drift, -ts) @ target) - omega * ts

    def g_scalar(t_val: float) -> float:
        val = float(g(np.array([t_val]))[0])
        if np.isnan(val):
            raise BranchAmbiguityError(
                f"log(e^{{i H_d T}} U_f) refused at T = {t_val:.17g}: on the "
                f"branch cut, or off the unitary group")
        return val

    l0 = _target_log_norm(target)
    speed_slack = max(omega - hs_norm(drift), omega / 8.0)
    t_max = (l0 + 2.0 * np.pi) / speed_slack

    n_scan, chunk = 4096, 512
    ts = np.linspace(t_max / n_scan, t_max, n_scan)
    last = l0                                # g(0+) = ||log U_f|| > 0
    for start in range(0, n_scan, chunk):
        gs = g(ts[start:start + chunk])
        prev = np.concatenate([[last], gs[:-1]])
        # NaN samples compare false on both sides, so no bracket touches them
        hits = np.flatnonzero((prev > 0.0) & (gs <= 0.0))
        if hits.size:
            break
        last = gs[-1]
    else:
        return _failure(options.seed, 0,
                        f"no root of the log-norm equation below T = {t_max:.4g}")
    i = start + int(hits[0])
    lo, hi = (float(ts[i - 1]) if i else 0.0), float(ts[i])
    from scipy.optimize import brentq   # deferred: scipy only where it is used
    try:
        t_star = float(brentq(g_scalar, lo, hi, xtol=1e-15))
        hc0 = log_op(exp_op(drift, -t_star) @ target) / t_star
    except BranchAmbiguityError as exc:
        return _failure(options.seed, 0,
                        f"logarithm branch cut met in the root bracket "
                        f"[{lo:.6g}, {hi:.6g}]: {exc}")

    grid = np.linspace(0.0, t_star, options.refine_points + 1)
    controls = _navigation_controls(drift, hc0, constraint.control_basis,
                                    0.5 * (grid[:-1] + grid[1:]))
    f0 = _normalize_seed(constraint, hc0)
    return _solve_result(
        constraint, grid, controls, hc0 if f0 is None else f0, target, options,
        T=t_star, singular_intervals=(), n_starts=1, extremal_times=(t_star,),
        message="" if f0 is not None else
        "normalization weight non-positive; costate left unscaled")


def interaction_picture_reduce(c: ConstraintSet) -> dict:
    """Check whether the constraint survives transfer to the drift frame.

    The bound must be conjugation invariant (only the Hilbert-Schmidt ball
    kind is) and the control subspace must be mapped into itself by
    e^{i H_d s} for every s.  That holds exactly when -i[H_d, c_j] lies in
    the subspace for every frame element c_j, checked as a projection
    residual below ``DEFAULT_TOL.drift_frame`` relative to ||H_d||.  When
    reducible, the same constraint with zero drift governs the problem in
    the interaction picture.
    """
    if not isinstance(c.kind, Typical):
        return {"reducible": False, "reduced": None,
                "reason": "bound is not conjugation invariant"}
    drift_scale = hs_norm(c.drift)
    reason = "drift-free"
    if drift_scale >= 1e-14:
        reason = "subspace invariant under the drift frame"
        for j, b in enumerate(c.control_basis):
            comm = commutator(c.drift, b)
            res = hs_norm(comm - c.project_control(comm))
            if res > DEFAULT_TOL.drift_frame * drift_scale:
                return {"reducible": False, "reduced": None,
                        "reason": f"-i[H_d, c_{j}] leaves the subspace "
                                  f"(residual {res:.2e})"}
    reduced = ConstraintSet(c.dim, np.zeros_like(c.drift), c.control_basis,
                            c.kind, c.control_names)
    return {"reducible": True, "reduced": reduced, "reason": reason}


def _flow_cell(constraint: ConstraintSet, f0: np.ndarray, u_mat: np.ndarray,
               dt: np.ndarray):
    """One cell of :func:`_coupled_flow` from the unitaries ``u_mat``
    (B, N, N), with one step in ``dt`` per member: (U after the cell, not
    projected; the mask of singular start costates; the controls (B, l)).
    """
    f = stack_product(stack_product(u_mat, f0), dagger(u_mat))
    h, _, singular, _ = _span_maximizer(f, constraint)
    half = _expm_step(h, 0.5 * dt)
    h, controls, _, _ = _span_maximizer(
        stack_product(stack_product(half, f), dagger(half)), constraint)
    return stack_product(_expm_step(h, dt), u_mat), singular, controls


def _coupled_flow(constraint: ConstraintSet, f0: np.ndarray,
                  t_final: float | np.ndarray, n_cells: int,
                  record: bool = False, u0: Optional[np.ndarray] = None,
                  nodes: Optional[np.ndarray] = None):
    """March the maximizer-consistent flow of B costates in lockstep.

    A member's only state is its unitary U.  Each cell takes the costate
    F = U F0 U^dagger, takes H from F pointwise and again at the half-step
    costate (the exponential midpoint rule) and steps U by exp(-i dt H);
    every ``PROJECTION_PERIOD`` cells U is polar-projected.  At a singular
    costate H is the maximizer's own choice, the admissible control nearest
    zero.  ``f0`` is a stack (B, N, N); ``t_final`` is a scalar or one time
    per member, so each member has its own dt.  ``u0`` (B, N, N) starts the
    members at given unitaries instead of the identity.  ``nodes``
    (B, n_cells + 1, N, N), when given, receives U at every node: the start,
    then U after each cell (projected where the cell ends a period).  Each
    stage of a cell is one :func:`_span_maximizer` call and one
    :func:`_expm_step` call on the whole stack, so B members cost about as
    much as one.

    Returns (U, nodes, singular, controls), each stacked over the members:
    U at the end of the march, ``nodes`` as given (filled, or None),
    singular a (B, n_cells) mask of the cells whose start costate is
    singular, controls (B, n_cells, l) with ``record`` (None without).  The
    end costate U F0 U^dagger is left to the callers that need it.
    """
    n, b = constraint.dim, len(f0)
    dt = np.broadcast_to(np.asarray(t_final, dtype=float) / n_cells, (b,))
    u_mat = np.broadcast_to(np.eye(n, dtype=complex), (b, n, n)) if u0 is None else u0
    singular = np.zeros((b, n_cells), dtype=bool)
    controls = np.zeros((b, n_cells, constraint.n_controls)) if record else None
    if nodes is not None:
        nodes[:, 0] = u_mat
    for k in range(n_cells):
        u_mat, singular[:, k], uk = _flow_cell(constraint, f0, u_mat, dt)
        if (k + 1) % PROJECTION_PERIOD == 0:
            u_mat = reunitarize(u_mat)
        if record:
            controls[:, k] = uk
        if nodes is not None:
            nodes[:, k + 1] = u_mat
    return u_mat, nodes, singular, controls


def _dense_rebuild(constraint: ConstraintSet, f0: np.ndarray, t_final: float,
                   n_cells: int, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Controls (K, l) and singular-cell indices of the march of ``f0`` on
    K = ``n_cells`` cells, by parareal over its projection blocks
    (``PROJECTION_PERIOD`` cells each), started from ``nodes``.

    ``nodes`` (M + 1, N, N) holds U at the nodes j t_final / M of a march of
    ``f0`` on any M cells, such as the polish's march on the solve grid.
    The unknowns are the block-start unitaries U_s; the march is stateless,
    so a block depends on its start alone.  Block s starts at
    t_s = s t_final 64 / K; its initial U_s is one march cell of length
    t_s - t_j from the node t_j at or before t_s, then the polar projection,
    one lockstep call for all blocks.  The coarse propagator G is one march
    cell across a block, the fine one F the block's own march; both end
    with the polar projection (without it the iteration diverges).  Each
    sweep sets U_{s+1} = F(U_s^old) + DG_s (U_s^new - U_s^old): the
    parareal correction G(U_s^new) - G(U_s^old) linearized at the old
    start, which is multiple shooting with an approximate Jacobian.  A sweep
    is two lockstep marches and one recurrence: one cell from every old
    start and from its 2 N^2 forward-difference points (the real directions
    of the N x N start, :func:`_fd_jacobian`) gives DG_s, the fine march
    runs the blocks, and a small linear recurrence over the blocks sets the
    new starts.  The correction is zero where a start did not move, so the
    blocks before the first start that moved in a sweep start where they
    did and keep their fine ends, DG_s and starts bitwise; the next sweep
    marches only the blocks from that start on.  So every sweep makes at
    least one more start exact, at most K/64 - 1 sweeps run, and the fixed
    point U_{s+1} = F(U_s) is the serial march's whatever the initial starts
    and DG are (a forward difference across a bang-bang switch is not a
    derivative; it costs sweeps, not accuracy).  With ``moved`` the largest
    entry change of a start in a sweep, the loop stops when moved <= tol
    (``DEFAULT_TOL.parareal``) or when the next sweep's correction, which
    superlinear convergence predicts as moved^2 / moved of the sweep
    before, is below tol too.  One recording pass over all blocks then
    gives the controls; a last partial block is marched a full block and
    cut to K.
    """
    n, block = constraint.dim, PROJECTION_PERIOD
    n_blocks = -(-n_cells // block)
    width = min(block, n_cells)
    t_width = t_final if n_cells <= block else t_final * block / n_cells
    starts = np.empty((n_blocks, n, n), dtype=complex)
    starts[0] = np.eye(n)
    if n_blocks > 1:
        # t_s - t_j = t_final (64 s M - j K) / (K M), the numerator an integer
        m, s = len(nodes) - 1, np.arange(1, n_blocks)
        j = s * block * m // n_cells
        tau = t_final * (s * block * m - j * n_cells) / (n_cells * m)
        starts[1:] = reunitarize(_flow_cell(constraint, f0, nodes[j], tau)[0])
    # the starts' real coordinates: a view, so writing x writes starts
    x = starts.reshape(n_blocks, -1).view(float)

    def g_real(xs: np.ndarray) -> np.ndarray:
        # G on real coordinates (..., 2 N^2): one projected cell per start
        u = xs.reshape(-1, 2 * n * n).view(complex).reshape(-1, n, n)
        u_end = _flow_cell(constraint, f0, u, np.full(len(u), t_width))[0]
        return reunitarize(u_end).reshape(xs.shape[:-1] + (-1,)).view(float)

    f_stack = np.broadcast_to(f0, starts.shape)
    fine = np.empty_like(x[1:])
    jac = np.empty((n_blocks - 1, x.shape[1], x.shape[1]))
    tol, moved_before, first = DEFAULT_TOL.parareal, 0.0, 0
    while first < n_blocks - 1:
        # blocks before ``first`` start where they did: their F and DG stand
        jac[first:] = _fd_jacobian(g_real, x[first:-1], -np.inf, np.inf)
        fine[first:] = _coupled_flow(
            constraint, f_stack[first:-1], t_width, block,
            u0=starts[first:-1])[0].reshape(n_blocks - 1 - first, -1).view(float)
        old = starts.copy()
        old_x = old.reshape(n_blocks, -1).view(float)
        for s in range(first, n_blocks - 1):
            x[s + 1] = fine[s] + jac[s] @ (x[s] - old_x[s])
        moved = np.max(np.abs(starts - old))
        # moved^2 / moved_before predicts the next sweep's correction
        if moved <= tol or moved * moved <= tol * moved_before:
            break
        moved_before = moved
        first = int(np.flatnonzero(np.any(starts != old, axis=(1, 2)))[0])
    _, _, singular, controls = _coupled_flow(
        constraint, f_stack, t_width, width, record=True, u0=starts)
    return (controls.reshape(-1, constraint.n_controls)[:n_cells],
            np.flatnonzero(singular.ravel()[:n_cells]))


def _normalize_seed(constraint: ConstraintSet, f0: np.ndarray) -> Optional[np.ndarray]:
    """``f0`` rescaled to tr[H(0) F(0)] = 1, or None when tr[H(0) F(0)] is
    at most 1e-9 or F(0) is singular; :func:`_normalize_seeds` is the
    stacked form."""
    mr = maximizer(f0, constraint)
    c0 = 0.0 if mr.singular else float(np.trace(mr.hamiltonian @ f0).real)
    return None if c0 <= 1e-9 else f0 / c0


def _normalize_seeds(constraint: ConstraintSet,
                     fs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_normalize_seed` of every member of a stack (B, N, N), from one
    stacked maximizer call and one stacked trace: (the rescaled seeds, with
    the zero costate where a seed cannot be rescaled; the mask of the seeds
    that can).  Each row is bitwise the one-costate result."""
    h, _, singular, _ = _span_maximizer(fs, constraint)
    c0 = np.where(singular, 0.0, np.trace(h @ fs, axis1=1, axis2=2).real)
    regular = c0 > 1e-9
    seeds = fs / np.where(regular, c0, 1.0)[:, None, None]
    seeds[~regular] = 0.0
    return seeds, regular


def _shooting_residuals(constraint: ConstraintSet, target: np.ndarray,
                        basis: list[np.ndarray], xs: np.ndarray, n_cells: int):
    """Boundary residuals of a stack of shooting points, one lockstep march.

    Each row of ``xs`` (B, N^2) holds the N^2 - 1 costate coefficients on
    ``basis`` and T; its seed is rescaled to tr[H(0) F(0)] = 1
    (:func:`_normalize_seeds`).  A residual row is the chart of
    M = U(T) U_f^dagger: the coefficients of its anti-Hermitian part and the
    trace deficit N - Re tr M, N^2 entries.  There is no final-time entry
    tr[H(T) F(T)] - 1: the rescaling sets tr[H F] = 1 at t = 0 and the flow
    conserves it, so such an entry would measure only the march's drift
    (order dt^3) and keep the least-squares residual from reaching zero.  A
    seed that cannot be rescaled gives 10 + ||x|| in every entry, a march
    singular on more than half of its cells gives 10.  Returns (rows,
    march): march is the first row's own march, its rescaled seed (None
    when it cannot be rescaled), U at the n_cells + 1 nodes and its
    singular-cell count.
    """
    n, b = constraint.dim, len(xs)
    seeds, regular = _normalize_seeds(constraint, reconstruct(xs[:, :-1], basis))
    # a seed that cannot be rescaled is marched as the zero costate
    u_nodes = np.empty((b, n_cells + 1, n, n), dtype=complex)
    u_t, _, sing, _ = _coupled_flow(constraint, seeds, xs[:, -1], n_cells,
                                    nodes=u_nodes)
    m = u_t @ dagger(target)
    out = np.column_stack([expand((m - dagger(m)) / 2j, basis),
                           n - np.trace(m, axis1=1, axis2=2).real])
    out[np.count_nonzero(sing, axis=1) > n_cells // 2] = 10.0
    out[~regular] = 10.0 + np.linalg.norm(xs[~regular], axis=1)[:, None]
    return out, (seeds[0] if regular[0] else None, u_nodes[0].copy(),
                 int(np.count_nonzero(sing[0])))


def least_squares(fun, x0, **kwargs):
    """scipy's ``least_squares``, imported on its first call.

    Deferred so that commands which never shoot (``glc``, ``classify``,
    ``evolve``, ``scenario``) do not pay for importing scipy.  It stays a
    module-level name because the benchmark tracer wraps
    ``brachistochrone.least_squares`` to count the least-squares layer; once
    the tracer wraps scipy's own function (ROADMAP item 1) it can go.
    """
    from scipy.optimize import least_squares as solve
    return solve(fun, x0, **kwargs)


def _fd_jacobian(residuals, x: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray) -> np.ndarray:
    """Forward-difference Jacobian of a stacked residual map at x.

    Uses scipy's 2-point step, sqrt(eps) sign(x) max(1, |x|), turned around
    where x + h leaves the bounds.  The base point and the perturbed points
    are one stacked ``residuals`` call.  ``x`` (..., n) may carry leading
    axes: ``residuals`` then takes the points (..., n + 1, n) and returns
    rows (..., n + 1, m), and the result is one (m, n) Jacobian per point.
    """
    h = np.sqrt(np.finfo(float).eps) * np.where(x >= 0, 1.0, -1.0) \
        * np.maximum(1.0, np.abs(x))
    h = np.where((x + h < lo) | (x + h > hi), -h, h)
    steps = np.where(np.eye(x.shape[-1], dtype=bool), h[..., :, None], 0.0)
    rows = residuals(np.concatenate(
        [x[..., None, :], x[..., None, :] + steps], axis=-2))
    return np.swapaxes(rows[..., 1:, :] - rows[..., :1, :], -1, -2) \
        / ((x + h) - x)[..., None, :]


def _time_scale_estimate(problem: ShootingProblem) -> float:
    """||log U_f|| over ||H_d|| plus the control speed the constraint set
    resolved (``ConstraintSet._speed``): omega for ``Typical``,
    r sqrt(lambda_max(M^+ Gram)) (the largest ||H_c|| with u^T M u <= r^2)
    for ``BallInCoords``, and the largest |lo_j|, |hi_j| for a box."""
    c = problem.constraint
    speed = max(c._speed + hs_norm(c.drift), 1e-9)
    return max(_target_log_norm(problem.target) / speed, 1e-3)


def _single_start(problem: ShootingProblem, start_index: int,
                  t_init: float, t_hi: float,
                  rng: np.random.Generator, earlier: list[dict]):
    """One start of :func:`solve_shooting`: a seed drawn from ``rng``, a
    coarse least-squares stage, then (unless an ``earlier`` converged start
    has the same coarse solution) a polish on the solve grid.  Each stage's
    residual is the boundary chart of :func:`_shooting_residuals` plus the
    gauge entry (||c||^2 - r0^2) / (2 r0), c the point's costate
    coefficients and r0 their norm at the stage's start: the boundary rows
    do not see the costate scale, and this entry fixes it, so the Jacobian
    has full rank.  The entry is computed next to the march and costs none.
    Every evaluation keeps, next to its Jacobian, its point's own march
    (row 0 of the lockstep batch): the rescaled seed, U at the solve grid's
    K + 1 nodes and the singular-cell count.  trf returns a point it has
    evaluated, so the polished point's march is the start's check with no
    march of its own: the record's ``f0``, ``fidelity``, ``exact`` and
    ``singular_cells`` come from it, and its ``nodes`` start the dense
    rebuild.  Returns the start's record, or None when no regular seed is
    drawn or the polish ends on a seed that cannot be rescaled.
    """
    c = problem.constraint
    n = c.dim
    basis = generalized_gellmann(n)
    opts = problem.options
    k_cells = opts.grid_points

    for _ in range(64):
        f0 = _normalize_seed(c, reconstruct(rng.standard_normal(n * n - 1), basis))
        if f0 is not None:
            break
    else:
        return None

    x0 = np.concatenate([expand(f0, basis), [t_init]])
    lo = np.append(np.full(n * n - 1, -np.inf), 1e-6 * t_init)
    hi = np.append(np.full(n * n - 1, np.inf), t_hi)

    def stage(x, cells: int, tol: float):
        # each residual is one lockstep march of x and its forward-difference
        # points; the march gives trf's residual, the Jacobian it asks for at
        # that same x and x's own march (row 0), kept by point.  The last
        # entry is the gauge entry, on the sphere of the stage's start
        r0 = np.linalg.norm(x[:-1])
        marched = {}   # point bytes -> (residual, Jacobian, the point's march)

        def evaluate(x):
            key = x.tobytes()
            if key not in marched:
                kept = []   # x's residual and march

                def batch(xs):
                    out, march = _shooting_residuals(c, problem.target, basis, xs,
                                                     cells)
                    gauge = (np.sum(xs[:, :-1] ** 2, axis=1) - r0 ** 2) / (2.0 * r0)
                    rows = np.column_stack([out, gauge])
                    kept[:] = rows[0], march
                    return rows
                jac = _fd_jacobian(batch, x, lo, hi)
                marched[key] = kept[0], jac, kept[1]
            return marched[key]

        sol = least_squares(lambda x: evaluate(x)[0], x,
                            jac=lambda x: evaluate(x)[1], bounds=(lo, hi),
                            method="trf", xtol=tol, ftol=tol, gtol=tol, max_nfev=200)
        # trf returns a point it has evaluated
        return sol, evaluate(sol.x)[2]

    # locate the extremal on fewer cells of the same march, then polish
    sol, _ = stage(x0, max(16, k_cells // 6), 1e-11)
    # a coarse solution on a converged earlier start's extremal reuses its
    # polish; the scale is a gauge (_normalize_seed), so compare directions
    direction, t_coarse = sol.x[:-1] / np.linalg.norm(sol.x[:-1]), sol.x[-1]
    for known in earlier:
        gap = max(np.max(np.abs(direction - known["direction"])),
                  abs(t_coarse - known["t_coarse"]) / max(1.0, t_coarse))
        if known["converged"] and gap < DEFAULT_TOL.duplicate_start:
            return {**known, "start": start_index}
    # the polished point's own march is the check: its seed, U(T), its
    # singular cells and its nodes, which start the dense rebuild
    sol, (f_star, nodes, singular_cells) = stage(sol.x, k_cells, 1e-14)
    if f_star is None:
        return None
    fid = fidelity_residual(nodes[-1], problem.target)
    return {
        "start": start_index, "f0": f_star, "T": float(sol.x[-1]), "fidelity": fid,
        "exact": float(np.linalg.norm(nodes[-1] - problem.target)),
        "converged": bool(fid < max(1e-6, opts.residual_tol)),
        "singular_cells": singular_cells, "nodes": nodes, "direction": direction,
        "t_coarse": t_coarse,
    }


def solve_shooting(problem: ShootingProblem) -> SolveResult:
    """Multistart single shooting for the boundary-value problem.

    Each start draws costate coefficients from a unit normal, rescales so
    tr[H(0) F(0)] = 1, and solves for (F(0), T) by trust-region least
    squares on the smooth boundary chart of U(T) U_f^dagger: a coarse
    stage, the same midpoint march on max(16, grid_points // 6) cells,
    then a polish on the solve grid.  The free-time condition
    tr[H F] = 1 needs no residual: it holds at t = 0 by the rescaling and
    is conserved along the flow, so the system is consistent and each
    stage converges to a zero residual.  The costate scale, to which the
    chart is blind, is pinned in each stage by one more entry that holds
    the costate coefficients on the sphere of the stage's start point
    (:func:`_single_start`), so the Jacobian has full rank and the
    iteration does not creep along that direction.  A start whose coarse
    solution matches a converged earlier start's (unit costate direction
    and T, to ``DEFAULT_TOL.duplicate_start``) reuses that polished
    extremal under its own index instead of polishing again.
    Each residual evaluation is one lockstep march of the coupled flow
    (:func:`_coupled_flow`) of its point and the point's N^2
    forward-difference points (scipy's 2-point step rule); the Jacobian
    that the trust-region iteration then asks for at that point is the one
    this march gave, so it costs no march of its own.  Among converged
    starts the minimal-T extremal is refined on a dense grid and returned;
    all converged times are reported.  A start's check (its fidelity,
    singular cells and U at the solve grid's nodes) is the march that its
    polish made at the point it returns, so the extremal is marched
    serially once, on the solve grid.  The dense march is rebuilt
    by parareal over its 64-cell projection blocks (:func:`_dense_rebuild`):
    each block start is one lockstep midpoint cell from the solve-grid node
    at or before it, then sweeps whose correction is the coarse cell's
    forward-difference Jacobian, so that a sweep is two lockstep marches
    (the one-cell Jacobian march of the block starts and the fine march of
    the blocks, both from the first start that moved in the sweep before)
    and one small linear recurrence over the blocks, and one recording pass
    once the block starts stop moving or the next sweep's correction,
    predicted from the last two, is below the tolerance.  The fixed point
    is the serial march's, so its controls match the serial march to
    rounding.

    Raises
    ------
    DegenerateProblemError
        when the best attempt spent most of the horizon on singular cells;
        such problems need the singular-arc analysis, not shooting.
    ValidationError
        when the target is not unitary (DimensionMismatchError when its
        shape is not the constraint's).
    """
    opts = problem.options
    c = problem.constraint
    identity = _check_target(problem.target, c.drift, opts.seed)
    if identity is not None:
        return identity

    t0 = _time_scale_estimate(problem)
    t_hi = max(6.0 * t0, t0 + 4.0 * np.pi / max(hs_norm(c.drift) + 1e-9, 1.0))

    seeds = np.random.SeedSequence(opts.seed).spawn(opts.multistarts)

    attempts = []
    n_run = 0
    for i in range(opts.multistarts):
        rng = np.random.default_rng(seeds[i])
        jitter = 1.0 if i == 0 else float(rng.uniform(0.7, 1.8))
        out = _single_start(problem, i, min(jitter * t0, 0.9 * t_hi), t_hi, rng,
                            attempts)
        n_run += 1
        if out is not None:
            attempts.append(out)
            if out["converged"] and sum(
                    a["converged"] for a in attempts) >= opts.stop_after_converged:
                break

    if not attempts:
        return _failure(opts.seed, n_run, "all starts failed to draw a regular seed")

    converged = [a for a in attempts if a["converged"]]
    if not converged:
        best = min(attempts, key=lambda a: a["fidelity"])
        if best["singular_cells"] > opts.grid_points // 2:
            raise DegenerateProblemError(
                "maximizer singular on most cells of the best attempt; run "
                "the singular-arc analysis instead of shooting")
        return _failure(opts.seed, n_run, "no start converged; best residual reported",
                        best["T"], best["fidelity"], best["exact"])

    best = min(converged, key=lambda a: (round(a["T"], 9), a["fidelity"]))
    times = tuple(sorted({round(a["T"], 6) for a in converged}))

    # dense rebuild of the winning extremal
    k_fine = opts.refine_points
    controls, singular_cells = _dense_rebuild(c, best["f0"], best["T"], k_fine,
                                              best["nodes"])
    grid = np.linspace(0.0, best["T"], k_fine + 1)
    return _solve_result(
        c, grid, controls, best["f0"], problem.target, opts, T=best["T"],
        singular_intervals=_merge_intervals(grid, singular_cells),
        n_starts=n_run, extremal_times=times,
        message="extremal of the necessary conditions (not a global certificate)")


@dataclass(frozen=True)
class AuditReport:
    """Worst-case violations of the necessary conditions over every cell of
    a trajectory: the maximum condition, tr[H F] = 1 and the costate flow."""
    max_condition_violation: float
    normalization_drift: float
    costate_flow_violation: float

    def as_dict(self) -> dict:
        return asdict(self)


def qb_consistency_audit(result: SolveResult) -> AuditReport:
    """Audit a result against the necessary conditions on every cell k, at
    its midpoint costate F_mid = e^{-i H_k dt_k/2} F_k e^{i H_k dt_k/2},
    where the solvers take their controls: (a) the maximum condition, by how
    much the support function of the bound (:func:`_support`, with
    g_j = tr[F_mid c_j]) exceeds the protocol's tr[(H_k - H_d) F_mid] =
    u_k . g, or 0; (b) |tr[H_k F_mid] - 1|; (c) the costate flow, two half
    steps against F_{k+1}.  One stacked half-step exponential serves all
    three; nothing is sampled.
    """
    if result.trajectory is None or result.trajectory.costates is None:
        raise ValidationError("audit needs a trajectory with costates")
    protocol, fs = result.trajectory.protocol, result.trajectory.costates
    c = protocol.constraint
    half = exp_op(protocol.hamiltonians(), 0.5 * np.diff(protocol.grid))
    f_mid = stack_product(stack_product(half, fs[:-1]), dagger(half))
    flow = fs[1:] - stack_product(stack_product(half, f_mid), dagger(half))
    g = np.einsum("kab,jba->kj", f_mid, np.stack(c.control_basis)).real
    paired = np.einsum("kj,kj->k", protocol.controls, g)
    hf = paired + np.einsum("ab,kba->k", c.drift, f_mid).real
    return AuditReport(
        max_condition_violation=float(max(np.max(_support(c, g) - paired), 0.0)),
        normalization_drift=float(np.max(np.abs(hf - 1.0))),
        costate_flow_violation=float(np.max(np.abs(flow))))
