"""Structural analysis of singular arcs.

Two complementary engines:

* :func:`derive_singular_structure` works symbolically (sympy) on a planar
  chart, the :class:`ArcModel` that :func:`arc_model` derives from a
  constraint set.  It stacks the singularity conditions, the odd-order GLC
  equalities, and the flow-invariance derivatives of everything already
  established, solving the linear layers at the coefficient level; the
  closing even order is then reduced to sign conditions on the remaining
  free coefficients and control values.  The flow derivatives and the
  GLC matrices come from the numeric engine's own recurrence
  (``singular_glc._r_jets``) run on exact sympy matrices with the unit
  ``sympy.I``.  This is the engine behind the "interior arc" reports of
  the built-in scenarios.

* :func:`boundary_closure_study` works numerically at sampled points of a
  quadratic boundary piece.  Condition operators (control directions plus
  first-order GLC brackets of the reduced chart) are closed under the
  costate flow C -> -i[C, H] until the rank saturates; the arc family is
  infeasible when no costate in the surviving null space can carry the
  normalization tr[H_d F] = 1 (``singular_glc._normalizable_costate``, the
  solve behind :func:`~toqc.singular_glc.normalized_singular_costate`).
  Feasible families are handed to the numeric GLC test.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .constraint_model import BallInCoords, ConstraintSet
from .errors import ValidationError
from .singular_glc import (
    ControlChart,
    GLCReport,
    _normalizable_costate,
    _r_jets,
    boundary_reduce,
    glc_test,
)
from .sun_algebra import commutator, expand, generalized_gellmann, reconstruct

__all__ = [
    "ArcModel",
    "BoundaryCase",
    "arc_model",
    "derive_singular_structure",
    "boundary_closure_study",
]


@dataclass(frozen=True, eq=False)
class ArcModel:
    """Symbolic description of a singular-arc family on a planar chart.

    All matrices are sympy Matrices with exact entries: the drift, the chart
    partials dH/du_j (which also span the singularity conditions
    tr[(dH/du_j) F] = 0) and the costate basis tau_a, with F = sum f_a tau_a.
    Parameters such as level splittings appear as symbols listed in
    ``positive_params`` (known strictly positive).  :func:`arc_model`
    builds the model of a :class:`ConstraintSet`.
    """

    drift: object                      # sympy Matrix
    partials: tuple                    # chart partials dH/du_j (sympy)
    control_syms: tuple                # sympy symbols for the u_j
    costate_basis: tuple               # sympy basis matrices tau_a
    costate_syms: tuple                # sympy symbols f_a
    positive_params: tuple = ()


def arc_model(c: ConstraintSet, omega0: float) -> ArcModel:
    """The symbolic interior-arc model of ``c``, with the drift scale as a symbol.

    The drift becomes omega0 * exact(H_d / omega0) with ``omega0`` a
    positive symbol, the partials exact(c_j) and the costate basis
    exact(generalized_gellmann(N)).  Control symbols are named after
    ``c.control_labels`` and costate symbols f1, f2, ....  exact()
    recognises rationals and multiples of sqrt 2 and sqrt 3 in the real and
    imaginary parts (``sympy.nsimplify`` with no rational fallback; parts
    below 1e-14 are 0); an entry it cannot recognise, or a matrix more than
    1e-12 from its float, raises ValidationError.
    """
    import sympy
    if not omega0 > 0:
        raise ValidationError("arc_model needs a drift scale omega0 > 0")
    constants = [sympy.sqrt(2), sympy.sqrt(3)]

    def part(x: float):
        return sympy.nsimplify(x if abs(x) >= 1e-14 else 0.0, constants, rational=False)

    def exact(m: np.ndarray, what: str):
        out = sympy.Matrix(*m.shape, lambda i, j: part(float(m[i, j].real))
                           + sympy.I * part(float(m[i, j].imag)))
        if out.has(sympy.Float) or np.max(np.abs(
                np.array(out.evalf(), dtype=complex) - m)) > 1e-12:
            raise ValidationError(
                f"{what} has no exact form over sqrt 2 and sqrt 3")
        return out

    w0, names = sympy.Symbol("omega0", positive=True), c.control_labels
    return ArcModel(
        drift=w0 * exact(c.drift / omega0, "drift / omega0"),
        partials=tuple(exact(h, f"control {name}")
                       for h, name in zip(c.control_basis, names)),
        control_syms=tuple(sympy.symbols(names, real=True)),
        costate_basis=tuple(exact(t, "costate basis")
                            for t in generalized_gellmann(c.dim)),
        costate_syms=tuple(sympy.symbols(f"f1:{c.dim ** 2}", real=True)),
        positive_params=(w0,),
    )


def _sym_q_matrix(partials, level, f):
    """Q_ij = -i tr[[h_j, F] R_i] from one :func:`_r_jets` level, symbolic."""
    import sympy
    brackets = [hj * f - f * hj for hj in partials]
    return sympy.Matrix(len(partials), len(partials), lambda i, j: sympy.expand(
        -sympy.I * (brackets[j] * level[i][0]).trace()))


def _fmt_equality(row, names) -> str:
    import sympy
    terms = []
    for c, name in zip(row, names):
        c = sympy.nsimplify(c)
        if c == 0:
            continue
        if c == 1:
            terms.append(f"+ {name}")
        elif c == -1:
            terms.append(f"- {name}")
        else:
            terms.append(f"+ {sympy.nsimplify(c)}*{name}" if not str(c).startswith("-")
                         else f"- {sympy.nsimplify(-c)}*{name}")
    expr = " ".join(terms)
    if expr.startswith("+ "):
        expr = expr[2:]
    return f"{expr} = 0"


class _SignFacts:
    """Tracks sign knowledge about symbols during inequality reduction."""

    def __init__(self, positive_params):
        self.positive = set(positive_params)
        self.nonneg = set()
        self.nonzero = set()

    def sign_of(self, expr):
        """Return '+', '-', '0' or None for a factor."""
        import sympy
        expr = sympy.expand(expr)
        if expr.is_number:
            if expr == 0:
                return "0"
            return "+" if expr > 0 else "-"
        if expr in self.positive:
            return "+"
        if expr in self.nonneg and expr in self.nonzero:
            return "+"
        return None


def _reduce_inequalities(entries, free_syms, facts: _SignFacts,
                         conditions: list[str]) -> str:
    """Impose entry >= 0 for each entry; returns 'ok' or 'contradiction'.

    Entries are factored; factors of known sign are stripped (flipping the
    required sign for negative ones).  A surviving bare symbol yields a
    "s >= 0" condition; a surviving expression affine in one symbol yields a
    one-sided bound on it.  Iterates until stable so that facts established
    by simple entries (e.g. positivity of a normalization coefficient)
    unlock the composite ones.
    """
    import sympy
    pending = [sympy.factor(sympy.expand(e)) for e in entries]
    pending = [e for e in pending if e != 0]
    for _ in range(len(pending) + 2):
        progress = False
        still = []
        for e in pending:
            sign = 1
            residue = []
            for fac, mult in sympy.factor(e).as_powers_dict().items():
                s = facts.sign_of(fac)
                if s == "0":
                    residue = []
                    break
                if s == "+":
                    continue
                if s == "-":
                    if mult % 2 == 1:
                        sign = -sign
                    continue
                if mult % 2 == 0:
                    continue  # even power: nonnegative
                residue.append(fac)
            if not residue:
                if sign < 0:
                    # product of known-sign factors strictly negative
                    return "contradiction"
                progress = True
                continue
            if len(residue) == 1:
                g = sympy.expand(sign * residue[0])
                gsyms = [s for s in g.free_symbols if s in free_syms]
                if len(gsyms) == 1 and sympy.degree(g, gsyms[0]) == 1:
                    s = gsyms[0]
                    a = g.coeff(s, 1)
                    b = g.coeff(s, 0)
                    sa = facts.sign_of(a)
                    if sa == "+":
                        bound = sympy.nsimplify(sympy.simplify(-b / a))
                        cond = f"{s} >= {bound}" if bound != 0 else f"{s} >= 0"
                        if cond not in conditions:
                            conditions.append(cond)
                        if bound == 0:
                            facts.nonneg.add(s)
                            if s in facts.nonzero:
                                facts.positive.add(s)
                        progress = True
                        continue
                    if sa == "-":
                        bound = sympy.nsimplify(sympy.simplify(-b / a))
                        cond = f"{s} <= {bound}"
                        if cond not in conditions:
                            conditions.append(cond)
                        # contradiction if s is known positive and bound <= 0
                        if facts.sign_of(sympy.expand(bound)) == "-" and \
                                s in facts.positive:
                            return "contradiction"
                        if bound == 0 and s in facts.positive:
                            return "contradiction"
                        progress = True
                        continue
            still.append(e)
        pending = still
        if not pending:
            return "ok"
        if not progress:
            break
    for e in pending:
        conditions.append(f"{sympy.nsimplify(e)} >= 0")
    return "ok"


def derive_singular_structure(model: ArcModel, m_max: int = 4) -> GLCReport:
    """Derive the algebraic structure of a singular-arc family.

    Runs the stepwise test at the coefficient level: singularity conditions
    and odd-order equalities are solved as linear systems in the costate
    coefficients; the closure under the costate flow turns their invariance
    into linear conditions on the control values; the first surviving even
    order is reduced to sign conditions.  The verdict is "excluded" when the
    conditions force tr[H_d F] = 0 (no normal singular arc exists) or when
    the closing order fails parity/semidefiniteness, and "consistent"
    otherwise, with the full derived condition set attached.  m_max < 1
    raises ValidationError.
    """
    if m_max < 1:
        raise ValidationError("m_max must be >= 1")
    import sympy
    f_syms = list(model.costate_syms)
    u_syms = list(model.control_syms)
    basis = list(model.costate_basis)
    names_f = [str(s) for s in f_syms]

    facts = _SignFacts(model.positive_params)

    F = sympy.zeros(*basis[0].shape)
    for s, tau in zip(f_syms, basis):
        F = F + s * tau
    u_subs = {}
    H_full = model.drift
    for s, h in zip(u_syms, model.partials):
        H_full = H_full + s * h

    # --- layer 1: linear conditions on the costate coefficients -------------
    f_rows = []           # rows over f_syms (sympy row lists)

    def add_f_conditions(exprs) -> bool:
        added = False
        for e in exprs:
            e = sympy.expand(e)
            if e == 0:
                continue
            row = [e.coeff(s) for s in f_syms]
            f_rows.append(row)
            added = True
        return added

    add_f_conditions([(hj * F).trace() for hj in model.partials])

    derived_eqs: list[str] = []
    u_conditions: list[str] = []
    notes: list[str] = []

    def solve_f_layer():
        a = sympy.Matrix(f_rows)
        rref, pivots = a.rref()
        subs = {}
        rows_out = []
        for r in range(len(pivots)):
            row = rref.row(r)
            piv = pivots[r]
            expr = -sum(row[c] * f_syms[c] for c in range(len(f_syms)) if c != piv)
            subs[f_syms[piv]] = sympy.expand(expr)
            rows_out.append([row[c] for c in range(len(f_syms))])
        frees = [s for i, s in enumerate(f_syms) if i not in pivots]
        return subs, frees, rows_out

    f_subs, frees, rref_rows = solve_f_layer()

    # odd-order GLC at m = 1 (entries are u-independent on planar charts)
    partials = list(model.partials)
    q1 = _sym_q_matrix(partials, _r_jets(partials, [H_full], 1, sympy.I)[0], F)
    q1_entries = [sympy.expand(q1[i, j].subs(f_subs))
                  for i in range(q1.rows) for j in range(q1.cols)]
    if any(e != 0 for e in q1_entries):
        # does imposing them contradict the normalization?
        add_f_conditions([q1[i, j] for i in range(q1.rows) for j in range(q1.cols)])
        f_subs, frees, rref_rows = solve_f_layer()

    norm_expr = sympy.expand((model.drift * F).trace().subs(f_subs))
    if norm_expr == 0:
        for row in rref_rows:
            derived_eqs.append(_fmt_equality(row, names_f))
        return GLCReport(
            matrices=(), order=1, parity_ok=False, sign_ok=False,
            verdict="excluded", derived_conditions=tuple(derived_eqs),
            notes=("singularity and first-order conditions force "
                   "tr[H_d F] = 0, contradicting the normalization of "
                   "normal protocols",))

    # normalization carrier: a single free coefficient with positive weight
    carrier = [s for s in frees if norm_expr.coeff(s) != 0]
    if len(carrier) == 1:
        facts.nonzero.add(carrier[0])
        if facts.sign_of(norm_expr.coeff(carrier[0])) == "+":
            facts.nonneg.add(carrier[0])  # sign fixed by tr[H_d F] = 1 > 0
            facts.positive.add(carrier[0])

    # --- layer 2: flow-invariance closure -> conditions on the controls -----
    def condition_operators():
        ops = [sympy.Matrix(h) for h in model.partials]
        for row in rref_rows:
            op = sympy.zeros(*basis[0].shape)
            for c, tau in zip(row, basis):
                if c != 0:
                    op = op + c * tau
            ops.append(op)
        return ops

    for _round in range(4):
        new_f = []
        u_rows = []
        H_cur = sympy.expand(H_full.subs(u_subs))
        F_cur = sympy.expand(F.subs(f_subs))
        for d_op in _r_jets(condition_operators(), [H_cur], 2, sympy.I)[1]:
            expr = sympy.expand((d_op[0] * F_cur).trace())
            for phi in frees:
                coef = sympy.expand(expr.coeff(phi))
                if coef == 0:
                    continue
                if not (set(coef.free_symbols) & set(u_syms)):
                    new_f.append(phi)  # coefficient is parameter-only: free dies
                else:
                    u_rows.append(coef)
        if new_f:
            add_f_conditions([sympy.Integer(1) * phi for phi in set(new_f)])
            f_subs, frees, rref_rows = solve_f_layer()
            continue
        if u_rows:
            active_u = [s for s in u_syms if s not in u_subs]
            a, b = sympy.linear_eq_to_matrix(u_rows, active_u)
            aug = a.row_join(b)
            rref, pivots = aug.rref()
            changed = False
            for r, piv in enumerate(pivots):
                if piv >= len(active_u):
                    continue
                rhs = rref[r, -1] - sum(
                    rref[r, c] * active_u[c]
                    for c in range(len(active_u)) if c != piv)
                if active_u[piv] not in u_subs:
                    u_subs[active_u[piv]] = sympy.expand(rhs)
                    changed = True
            if changed:
                continue
        break

    for row in rref_rows:
        derived_eqs.append(_fmt_equality(row, names_f))
    for s in model.control_syms:
        if s in u_subs:
            u_conditions.append(f"{s} = {sympy.nsimplify(u_subs[s])}")

    # --- layer 3: closing even order ----------------------------------------
    H_cur = sympy.expand(H_full.subs(u_subs))
    F_cur = sympy.expand(F.subs(f_subs))
    verdict = "inconclusive"
    order = None
    parity_ok = True
    sign_ok = True
    inequalities: list[str] = []
    levels = _r_jets(partials, [H_cur], m_max, sympy.I)
    for m in range(2, m_max + 1):
        q = _sym_q_matrix(partials, levels[m - 1], F_cur)
        if all(e == 0 for e in q):
            continue
        order = m
        parity_ok = (m % 2 == 0)
        if not parity_ok:
            verdict = "excluded"
            break
        k = m // 2
        signed = ((-1) ** (k + 1)) * q  # require signed >= 0
        offdiag = [signed[i, j] for i in range(q.rows) for j in range(q.cols)
                   if i != j]
        if all(sympy.expand(e) == 0 for e in offdiag):
            entries = [signed[i, i] for i in range(q.rows)]
            outcome = _reduce_inequalities(
                entries, set(frees) | set(u_syms), facts, inequalities)
            sign_ok = outcome != "contradiction"
        else:
            notes.append("closing even order is not diagonal; "
                         "use the numeric GLC test at a concrete point")
            sign_ok = True
        verdict = "consistent" if sign_ok else "excluded"
        break

    conditions = tuple(derived_eqs + u_conditions + inequalities)
    return GLCReport(
        matrices=(), order=order, parity_ok=parity_ok,
        sign_ok=sign_ok, verdict=verdict, derived_conditions=conditions,
        eigenvalues_at_order=(), notes=tuple(notes))


@dataclass(frozen=True)
class BoundaryCase:
    """One piece of a quadratic boundary: coordinates pinned to zero, one
    coordinate eliminated through the constraint, the rest sampled."""
    name: str
    zero: tuple[int, ...]
    eliminate: int


def _flow_closure_rows(c: ConstraintSet, u: np.ndarray,
                       chart: ControlChart) -> np.ndarray:
    """Condition-operator coefficient rows, closed under C -> -i[C, H]."""
    basis = generalized_gellmann(c.dim)
    h = c.hamiltonian(u)
    ops = list(c.control_basis)
    for i in range(chart.n_controls):
        for j in range(i + 1, chart.n_controls):
            ops.append(commutator(chart.partials[i], chart.partials[j]))
    rows = [expand(op, basis) for op in ops]
    frontier = list(ops)
    rank = np.linalg.matrix_rank(np.stack(rows), tol=1e-9)
    for _ in range(len(basis)):
        new_ops = [commutator(op, h) for op in frontier]
        candidate = rows + [expand(op, basis) for op in new_ops]
        new_rank = np.linalg.matrix_rank(np.stack(candidate), tol=1e-9)
        if new_rank == rank:
            break
        rows = candidate
        frontier = new_ops
        rank = new_rank
    return np.stack(rows)


def boundary_closure_study(c: ConstraintSet, case: BoundaryCase, seed: int = 0,
                           m_max: int = 4) -> GLCReport:
    """Audit singular arcs pinned to a quadratic boundary piece.

    Samples 8 points of the piece (zero-pattern respected, eliminated
    coordinate set from the constraint), reduces the chart there, closes the
    condition operators under the costate flow, and checks whether any
    costate in the surviving null space can carry tr[H_d F] = 1.  When no
    sampled point admits one the family is excluded outright; otherwise the
    numeric GLC test is run on the canonical surviving costate.  A seed
    that is not an integer >= 0, m_max < 1, or a case whose coordinates
    repeat or leave 0..l-1 raises ValidationError.
    """
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValidationError(f"seed must be an integer >= 0, got {seed!r}")
    if m_max < 1:
        raise ValidationError("m_max must be >= 1")
    if not isinstance(c.kind, BallInCoords):
        raise ValidationError("boundary study needs a coefficient-ball constraint")
    l = c.n_controls
    picked = (*case.zero, case.eliminate)
    if len(set(picked)) < len(picked) or not all(
            isinstance(j, (int, np.integer)) and 0 <= j < l for j in picked):
        raise ValidationError(
            f"boundary case '{case.name}' needs distinct coordinates in 0..{l - 1}")
    rng = np.random.default_rng(seed)
    metric = np.asarray(c.kind.metric, float)
    r = c.kind.radius
    basis = generalized_gellmann(c.dim)
    phi = expand(c.drift, basis)

    free_idx = [j for j in range(l) if j not in case.zero and j != case.eliminate]
    worst_report: Optional[GLCReport] = None
    for _ in range(8):
        u = np.zeros(l)
        if free_idx:
            v = rng.standard_normal(len(free_idx))
            v *= (0.6 * r) * rng.uniform(0.2, 1.0) / np.linalg.norm(v)
            u[free_idx] = v
        # eliminated coordinate from u^T G u = r^2 (positive root)
        quad = float(u @ metric @ u)
        gee = metric[case.eliminate, case.eliminate]
        u[case.eliminate] = np.sqrt(max(r * r - quad, 0.0) / gee)
        full_chart = ControlChart(tuple(c.control_basis), u=u, names=c.control_labels)
        red = boundary_reduce(full_chart, c.kind, case.eliminate)
        coeffs = _normalizable_costate(_flow_closure_rows(c, u, red), phi)
        if coeffs is None:
            continue  # no normalizable singular costate at this point
        # feasible: normalized costate and numeric GLC verdict
        rep = glc_test(red, c.hamiltonian(u), reconstruct(coeffs, basis),
                       m_max=m_max)
        if rep.verdict != "excluded":
            return replace(rep, notes=rep.notes + (
                f"boundary piece '{case.name}' admits a "
                "normalizable singular costate",))
        worst_report = rep
    if worst_report is not None:
        return replace(
            worst_report, verdict="excluded", notes=worst_report.notes + (
                f"boundary piece '{case.name}': surviving costates fail the "
                "even-order semidefiniteness test",))
    return GLCReport(
        matrices=(), order=None, parity_ok=True, sign_ok=True,
        verdict="excluded", derived_conditions=(),
        notes=(f"boundary piece '{case.name}': flow closure of the "
               "singularity and first-order conditions leaves no costate "
               "compatible with tr[H_d F] = 1",))
