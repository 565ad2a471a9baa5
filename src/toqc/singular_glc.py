"""Singular arcs and the generalized Legendre-Clebsch (GLC) test.

On a singular arc the costate F is orthogonal to the control subspace and
the pointwise maximum condition says nothing, so optimality must be probed
through higher-order machinery: the chain of time derivatives of the
singularity conditions, and the GLC matrices Q^(m).

Conventions
-----------
With control partials h_j = dH/du_j, the matrices are built from the
recurrence

    R^(0)_j = h_j,
    R^(m)_j = d R^(m-1)_j / dt - i [R^(m-1)_j, H],
    Q^(m)_{ij} = -i tr[[h_j, F] R^(m-1)_i],

where d/dt expands the chart's explicit time dependence (du/dt enters
through dH/dt).  One recurrence, ``_r_jets``, runs on floats here and on
exact sympy matrices in the symbolic engine of :mod:`toqc.arc_analysis`
(which passes the unit sympy.I; this module never imports sympy).  The
index order in the final trace is fixed so that for a
planar chart

    Q^(1)_{ij} = -i tr[[h_i, h_j] F],

matching the sign convention the worked one-qubit and two-qubit analyses
use (the first nonzero order is antisymmetric, so the choice only flips the
sign of odd orders and never changes a zero/semidefiniteness verdict).

Along a singular arc the matrices obey the symmetry law
Q^(m) = (-1)^m Q^(m)^T: Q^(1) is antisymmetric and an even order is
symmetric.  ``glc_test`` notes max |Q^(m) - (-1)^m Q^(m)^T| over the orders
it scanned when that exceeds ``DEFAULT_TOL.glc_symmetry``: a point where
Q^(1)(F) vanishes but not along an arc gives an even order that is not
symmetric.

The first nonzero order M must be even, and (-1)^(M/2) Q^(M) must be
negative semidefinite; otherwise the singular arc cannot be time optimal.
Q^(m) is a linear functional of F throughout, which the test exploits to
distinguish "identically zero order" from "zero at this costate" and to
extract the odd-order equality conditions as linear relations among the
costate coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional, Sequence

import numpy as np

from .constraint_model import ConstraintSet
from .errors import DimensionMismatchError, ImplicitFunctionError, ValidationError
from .sun_algebra import _complement, expand, generalized_gellmann, reconstruct
from .tolerances import DEFAULT_TOL

__all__ = [
    "ControlChart",
    "GLCReport",
    "singular_chain",
    "glc_matrices",
    "glc_test",
    "boundary_reduce",
    "reparametrization_check",
    "normalized_singular_costate",
]


@dataclass(frozen=True, eq=False)
class ControlChart:
    """A local parametrization u -> H(u) of the admissible Hamiltonians.

    ``partials`` are the operators h_j = dH/du_j evaluated at the point under
    study.  ``u`` optionally records the control values there (needed for
    boundary reductions).  ``du_dt`` carries the arc's control velocity;
    when omitted the arc is constant-control (dH/dt = 0).  The partials and
    dH/dt are constant along the arc (as for planar charts).  ``u`` and
    ``du_dt`` are stored as float arrays; anything but a finite vector of
    length l raises ValidationError.
    """

    partials: tuple[np.ndarray, ...]
    u: Optional[np.ndarray] = None
    du_dt: Optional[np.ndarray] = None

    def __post_init__(self):
        if not self.partials:
            raise ValidationError("chart needs at least one control partial")
        shape = self.partials[0].shape
        for k, h in enumerate(self.partials):
            if h.shape != shape:
                raise DimensionMismatchError(f"partials[{k}] has shape {h.shape}")
            if np.max(np.abs(h - h.conj().T)) > 1e-10:
                raise ValidationError(f"partials[{k}] is not Hermitian")
        for label in ("u", "du_dt"):
            arr = getattr(self, label)
            if arr is None:
                continue
            try:
                arr = np.asarray(arr, dtype=float)
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"{label} must be a numeric array") from exc
            if arr.shape != (len(self.partials),):
                raise ValidationError(
                    f"{label} must be a 1-D array of length {len(self.partials)}, "
                    f"got shape {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"{label} must be finite")
            object.__setattr__(self, label, arr)

    @property
    def n_controls(self) -> int:
        return len(self.partials)

    @property
    def dim(self) -> int:
        return self.partials[0].shape[0]

    def hamiltonian_rate(self) -> np.ndarray:
        """dH/dt along the arc: zero when ``du_dt`` is None."""
        if self.du_dt is None:
            return np.zeros_like(self.partials[0])
        return np.einsum("j,jab->ab", self.du_dt, np.stack(self.partials))


@dataclass(frozen=True, eq=False)
class GLCReport:
    """Outcome of the GLC test on one singular point.

    ``order`` is the first m with a nonzero Q^(m) at the given costate (None
    if every order up to m_max vanished).  ``verdict`` is one of
    "consistent", "excluded", "inconclusive".  ``derived_conditions`` lists
    the equality relations imposed at odd orders (and, for symbolic scenario
    studies, the closing inequalities).
    """

    matrices: tuple[np.ndarray, ...]
    order: Optional[int]
    parity_ok: bool
    sign_ok: bool
    verdict: str
    derived_conditions: tuple[str, ...] = ()
    eigenvalues_at_order: tuple[float, ...] = ()
    notes: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {
            "M": self.order,
            "parity_ok": self.parity_ok,
            "sign_ok": self.sign_ok,
            "verdict": self.verdict,
            "Q": [m.tolist() for m in self.matrices],
            "derived_conditions": list(self.derived_conditions),
            "eigenvalues_at_M": list(self.eigenvalues_at_order),
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# derivative jets
#
# A jet is a list [X, X', X'', ...] of successive time derivatives at the
# evaluation instant.  Commutators obey the Leibniz rule order by order,
# which is all the recurrence needs.  The jet code uses only @, +, - and
# integer multiples (zeros are built as X - X), so it runs unchanged on
# numpy arrays and on exact sympy matrices; the caller passes the imaginary
# unit of its number type.

def _jet_commutator(a: list, b: list, order: int) -> list:
    out = []
    for n in range(order + 1):
        acc = a[0] - a[0]
        for k in range(n + 1):
            acc = acc + comb(n, k) * (a[k] @ b[n - k] - b[n - k] @ a[k])
        out.append(acc)
    return out


def _r_jets(partials: Sequence, h_jet: Sequence, m_max: int,
            unit=1j) -> list[list[list]]:
    """R^(m)_j for m < m_max as jets: result[m][j] has derivative order
    m_max - 1 - m.

    The partials h_j are constant along the arc.  ``h_jet`` lists H and its
    leading derivatives; the derivatives it leaves out are zero (a rate held
    constant over the arc, or a constant control).
    """
    top = m_max - 1
    h_jet = list(h_jet) + [h_jet[0] - h_jet[0]] * (top - len(h_jet))
    levels = [[[hj] + [hj - hj] * top for hj in partials]]
    for m in range(1, m_max):
        order = top - m
        nxt = []
        for jet in levels[-1]:
            comm = _jet_commutator(jet, h_jet, order)
            nxt.append([jet[k + 1] - unit * comm[k] for k in range(order + 1)])
        levels.append(nxt)
    return levels


def _q_kernels(chart: ControlChart, h: np.ndarray,
               m_max: int) -> list[np.ndarray]:
    """K^(m)_{ij} = [R^(m-1)_i, h_j] for m = 1..m_max, each (l, l, N, N).

    Since Q^(m)_{ij}(F) = -i tr[[h_j, F] R^(m-1)_i] = Im tr[F K^(m)_{ij}],
    contracting K with F gives Q at that costate, and contracting it with a
    basis stack gives Q as a linear functional of F.
    """
    hs = np.stack(chart.partials)
    out = []
    for level in _r_jets(chart.partials, [h, chart.hamiltonian_rate()], m_max):
        r = np.stack([jet[0] for jet in level])
        out.append(np.einsum("iab,jbc->ijac", r, hs)
                   - np.einsum("jab,ibc->ijac", hs, r))
    return out


def glc_matrices(chart: ControlChart, h: np.ndarray, f: np.ndarray,
                 m_max: int) -> list[np.ndarray]:
    """The GLC matrices Q^(1)..Q^(m_max) at one singular point.

    Valid under the usual stacking assumption that all lower orders vanish
    when order m is read off.  For planar charts with constant partials and
    constant control, m = 1, 2, 3 reduce to the closed forms

        Q^(1)_{ij} = -i tr[[h_i, h_j] F]
        Q^(2)_{ij} =    tr[[[H, h_i], h_j] F]
        Q^(3)_{ij} =  i tr[[[H, [H, h_i]], h_j] F] + tr[[[dH/dt, h_i], h_j] F]
    """
    if m_max < 1:
        raise ValidationError("m_max must be >= 1")
    if h.shape != f.shape or h.shape != chart.partials[0].shape:
        raise DimensionMismatchError("chart, H and F dimensions disagree")
    return [np.einsum("ab,ijba->ij", f, k).imag
            for k in _q_kernels(chart, h, m_max)]


def _rref_rows(rows: np.ndarray) -> np.ndarray:
    """Reduced row echelon form; entries below 1e-9 count as zero."""
    tol = 1e-9
    a = np.array(rows, dtype=float)
    m, n = a.shape
    pivot_row = 0
    for col in range(n):
        if pivot_row >= m:
            break
        idx = pivot_row + int(np.argmax(np.abs(a[pivot_row:, col])))
        if abs(a[idx, col]) < tol:
            continue
        a[[pivot_row, idx]] = a[[idx, pivot_row]]
        a[pivot_row] /= a[pivot_row, col]
        for r in range(m):
            if r != pivot_row and abs(a[r, col]) > tol:
                a[r] -= a[r, col] * a[pivot_row]
        pivot_row += 1
    out = a[:pivot_row]
    out[np.abs(out) < tol] = 0.0
    return out


def _format_linear_condition(row: np.ndarray, names: Sequence[str]) -> str:
    terms = []
    for coef, name in zip(row, names):
        if abs(coef) < 1e-9:
            continue
        if abs(coef - 1.0) < 1e-9:
            terms.append(f"+ {name}")
        elif abs(coef + 1.0) < 1e-9:
            terms.append(f"- {name}")
        else:
            terms.append(f"{coef:+.6g}*{name}")
    expr = " ".join(terms).lstrip("+ ").replace("+ -", "- ")
    return f"{expr} = 0"


def singular_chain(f: np.ndarray, c: ConstraintSet, h: np.ndarray, depth: int,
                   du_dt: Optional[np.ndarray] = None) -> dict:
    """Residuals of the singular-arc chain conditions.

    Returns, for n = 0..depth, the vector over control directions j of
    d^n/dt^n tr[c_j F] (evaluated by nested commutators with H along the
    arc), plus the normalization residual tr[H_d F] - 1 that every normal
    singular arc must satisfy.
    """
    if depth < 0:
        raise ValidationError("depth must be >= 0")
    chart = ControlChart(tuple(c.control_basis), du_dt=du_dt)
    levels = _r_jets(chart.partials, [h, chart.hamiltonian_rate()], depth + 1)
    residuals = [np.array([float(np.trace(jet[0] @ f).real) for jet in level])
                 for level in levels]
    normalization = float(np.trace(c.drift @ f).real) - 1.0
    return {"residuals": residuals, "normalization": normalization}


def glc_test(chart: ControlChart, h: np.ndarray, f: np.ndarray,
             m_max: int = 4) -> GLCReport:
    """Run the stepwise GLC test at a singular point (H, F).

    Orders are scanned from m = 1.  An order whose matrix vanishes as a
    functional of F is skipped; an order that vanishes at this F but not
    identically records, when odd, the linear relations Q^(m)(F) = 0 among
    the costate coefficients as derived conditions and continues; the
    coefficients are named f1, f2, ... in the order of the generalized
    Gell-Mann basis.
    An order vanishes at F below ``DEFAULT_TOL.singular`` relative to
    max(1, max |f_a|).  At the first order M with a nonzero value the
    parity and semidefiniteness verdicts are issued: M must be even and
    (-1)^(M/2) Q^(M) negative semidefinite (eigenvalues <=
    ``DEFAULT_TOL.semidefinite``, relatively).  m_max < 1 raises
    ValidationError.
    """
    if m_max < 1:
        raise ValidationError("m_max must be >= 1")
    n = chart.dim
    basis = generalized_gellmann(n)
    names = [f"f{a+1}" for a in range(len(basis))]
    stack = np.stack(basis)
    tensors = [np.einsum("xab,ijba->ijx", stack, k).imag
               for k in _q_kernels(chart, h, m_max)]
    coeffs = expand(f, basis)
    scale = max(1.0, float(np.max(np.abs(coeffs))))

    matrices: list[np.ndarray] = []
    derived: list[str] = []
    notes: list[str] = []
    symmetry_viol = 0.0

    for m in range(1, m_max + 1):
        t = tensors[m - 1]
        # Q^(m) is linear in F, so Q(F) = sum_a f_a Q(tau_a).
        q = np.einsum("ija,a->ij", t, coeffs)
        matrices.append(q)
        sym = q - ((-1) ** m) * q.T   # the symmetry law, see the module notes
        symmetry_viol = max(symmetry_viol, float(np.max(np.abs(sym))))
        if np.max(np.abs(t)) < 1e-12:
            continue  # identically zero order
        if np.max(np.abs(q)) < DEFAULT_TOL.singular * scale:
            if m % 2 == 1:
                rows = t.reshape(-1, len(basis))
                rows = rows[np.max(np.abs(rows), axis=1) > 1e-12]
                for row in _rref_rows(rows):
                    derived.append(_format_linear_condition(row, names))
            continue
        # first nonzero order
        parity_ok = (m % 2 == 0)
        if not parity_ok:
            return GLCReport(tuple(matrices), m, False, False, "excluded",
                             tuple(derived), (), tuple(notes))
        k = m // 2
        signed = ((-1) ** k) * q
        eigs = np.linalg.eigvalsh(0.5 * (signed + signed.T))
        sign_ok = bool(np.max(eigs) <= DEFAULT_TOL.semidefinite * scale)
        verdict = "consistent" if sign_ok else "excluded"
        if symmetry_viol > DEFAULT_TOL.glc_symmetry:
            notes.append(f"symmetry law violated by {symmetry_viol:.3e}")
        return GLCReport(tuple(matrices), m, True, sign_ok, verdict,
                         tuple(derived), tuple(float(e) for e in eigs),
                         tuple(notes))

    notes.append("all orders up to m_max vanished")
    if derived:
        notes.append("open odd-order conditions: " + "; ".join(derived))
    return GLCReport(tuple(matrices), None, True, True, "inconclusive",
                     tuple(derived), (), tuple(notes))


def boundary_reduce(chart: ControlChart, metric: np.ndarray,
                    eliminate: int) -> ControlChart:
    """Eliminate one coordinate of a chart pinned to a quadratic boundary.

    On the boundary u^T G u = r^2, G the ``metric`` of the ball the
    constraint set resolved (``ConstraintSet._ball``), solving for u_e via
    the implicit function theorem gives the reduced partials

        h_i' = h_i - ((G u)_i / (G u)_e) h_e,

    which for the unit metric is h_i - (u_i / u_e) h_e.  The eliminated
    coordinate's constraint gradient must not vanish at the point.
    """
    if chart.u is None:
        raise ValidationError("boundary reduction needs the control values u")
    l = chart.n_controls
    if not 0 <= eliminate < l:
        raise ValidationError(f"eliminate index {eliminate} out of range")
    g = np.asarray(metric, float) @ chart.u
    if abs(g[eliminate]) < 1e-10:
        raise ImplicitFunctionError(
            "eliminated coordinate's constraint gradient is within 1e-10 of "
            "zero; the implicit function theorem does not apply here")
    he = chart.partials[eliminate]
    keep = [i for i in range(l) if i != eliminate]
    partials = tuple(chart.partials[i] - (g[i] / g[eliminate]) * he for i in keep)
    u = chart.u[keep]
    du = None if chart.du_dt is None else chart.du_dt[keep]
    return ControlChart(partials, u=u, du_dt=du)


def _sign_flags(q: np.ndarray) -> tuple[bool, bool, bool]:
    """(zero, positive semidefinite, negative semidefinite) verdicts of Q,
    to ``DEFAULT_TOL.semidefinite`` relative to max(1, max |Q|)."""
    tol = DEFAULT_TOL.semidefinite
    scale = max(1.0, float(np.max(np.abs(q))))
    is_zero = np.max(np.abs(q)) < tol * scale
    eigs = np.linalg.eigvalsh(0.5 * (q + q.T))
    return (is_zero, bool(np.min(eigs) >= -tol * scale),
            bool(np.max(eigs) <= tol * scale))


def reparametrization_check(chart_a: ControlChart, chart_b: ControlChart,
                            jacobian: np.ndarray, h: np.ndarray,
                            f: np.ndarray) -> bool:
    """Verify GLC congruence between two charts of the same Hamiltonian.

    With jacobian J[k, i] = dv_k/du_i relating chart_a coordinates u to
    chart_b coordinates v, both charts must have the same first nonzero
    order M <= 4 by the rule of :func:`glc_test`, Q^(M)(u) = J^T Q^(M)(v) J
    must hold to ``DEFAULT_TOL.congruence``, and the three sign verdicts
    (zero, positive semidefinite, negative semidefinite) must agree.
    """
    jac = np.asarray(jacobian, float)
    if abs(np.linalg.det(jac)) < 1e-10:
        raise ValidationError("jacobian is not invertible")
    rep_a = glc_test(chart_a, h, f, 4)
    rep_b = glc_test(chart_b, h, f, 4)
    if rep_a.order != rep_b.order:
        return False
    if rep_a.order is None:
        return True
    qa_m, qb_m = rep_a.matrices[rep_a.order - 1], rep_b.matrices[rep_a.order - 1]
    congruent = np.max(np.abs(qa_m - jac.T @ qb_m @ jac)) <= \
        DEFAULT_TOL.congruence * max(1.0, float(np.max(np.abs(qa_m))))
    return bool(congruent and _sign_flags(qa_m) == _sign_flags(qb_m))


def _normalizable_costate(null: np.ndarray,
                          phi: np.ndarray) -> Optional[np.ndarray]:
    """Minimal-norm Gell-Mann coefficients f in the span of the orthonormal
    rows ``null`` (a ``_complement``) with 2 phi . f = tr[H_d F] = 1, or None
    when no f there pairs with the drift: |null . phi| <= 1e-9 ||phi||."""
    pairing = null @ phi
    if np.linalg.norm(pairing) <= 1e-9 * np.linalg.norm(phi):
        return None
    vec = pairing @ null  # phi projected on the null space
    return vec / float(vec @ phi * 2.0)


def normalized_singular_costate(c: ConstraintSet) -> Optional[np.ndarray]:
    """The minimal-norm costate with tr[c_j F] = 0 for all j and
    tr[H_d F] = 1, if any.

    Returns None when the linear system is infeasible -- which is always the
    case for lollipop constraints, where the drift lies inside the control
    subspace and the normalization contradicts the singularity conditions.
    """
    basis = generalized_gellmann(c.dim)
    null = _complement(expand(c._frame, basis))
    coeffs = _normalizable_costate(null, expand(c.drift, basis))
    return None if coeffs is None else reconstruct(coeffs, basis)
