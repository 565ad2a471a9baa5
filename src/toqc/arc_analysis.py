"""Structural analysis of singular arcs.

Two complementary engines:

* :func:`derive_singular_structure` works symbolically (sympy) on a planar
  chart, the :class:`ArcModel` that :func:`arc_model` derives from a
  constraint set.  One reduced row echelon form over the costate
  coefficients holds the singularity conditions and the first-order GLC
  equalities; one closure loop differentiates every condition operator
  along H and adds each rate as rows over the coefficients or solves it
  for the controls; the closing even order is then reduced to sign
  conditions on the remaining free coefficients and control values.  The
  flow derivatives and the GLC matrices come from the numeric engine's own
  recurrence (``singular_glc._r_jets``) run on exact sympy matrices with
  the unit ``sympy.I``.  This is the engine behind the "interior arc"
  reports of the built-in scenarios.

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


def _sign(expr, positive) -> int:
    """+1 or -1 for a nonzero number or a symbol in ``positive``, else 0."""
    import sympy
    expr = sympy.expand(expr)
    if expr.is_number:
        return 0 if expr == 0 else (1 if expr > 0 else -1)
    return 1 if expr in positive else 0


def _reduce_inequalities(entries, free_syms, positive, nonzero,
                         conditions: list[str]) -> bool:
    """Impose entry >= 0 for each entry; False on a contradiction.

    Entries are factored; factors of known sign are stripped (flipping the
    required sign for negative ones).  A surviving bare symbol yields a
    "s >= 0" condition; a surviving expression affine in one symbol yields a
    one-sided bound on it.  Iterates until stable so that facts established
    by simple entries (a normalization carrier in ``nonzero`` bounded below
    by 0 joins ``positive``) unlock the composite ones.
    """
    import sympy
    pending = [e for e in (sympy.factor(sympy.expand(e)) for e in entries) if e != 0]
    progress = True
    while pending and progress:
        still = []
        for e in pending:
            sign, residue = 1, []
            for fac, mult in sympy.factor(e).as_powers_dict().items():
                s = _sign(fac, positive)
                if mult % 2 and s < 0:
                    sign = -sign
                elif mult % 2 and s == 0:
                    residue.append(fac)
            if not residue:
                if sign < 0:
                    return False  # product of known-sign factors strictly negative
                continue
            g = sympy.expand(sign * residue[0])
            gsyms = [s for s in g.free_symbols if s in free_syms]
            if len(residue) == 1 and len(gsyms) == 1 and sympy.degree(g, gsyms[0]) == 1:
                s = gsyms[0]
                a = g.coeff(s, 1)
                sa = _sign(a, positive)
                if sa:
                    # a s + b >= 0: s >= -b/a for a > 0, s <= -b/a for a < 0
                    bound = sympy.nsimplify(sympy.simplify(-g.coeff(s, 0) / a))
                    cond = f"{s} {'>=' if sa > 0 else '<='} {bound}"
                    if cond not in conditions:
                        conditions.append(cond)
                    if sa > 0 and bound == 0 and s in nonzero:
                        positive.add(s)
                    if sa < 0 and s in positive and (
                            bound == 0 or _sign(bound, positive) < 0):
                        return False
                    continue
            still.append(e)
        progress = len(still) < len(pending)
        pending = still
    conditions.extend(f"{sympy.nsimplify(e)} >= 0" for e in pending)
    return True


def _linear_rows(exprs, syms) -> list:
    """Coefficient rows over (``syms``, 1) of the nonzero linear forms
    among ``exprs``: a form's constant term is its last column."""
    import sympy
    forms = [e for e in map(sympy.expand, exprs) if e != 0]
    if not forms:
        return []
    a, b = sympy.linear_eq_to_matrix(forms, syms)
    return a.row_join(-b).tolist()


def _rref_solve(rows, syms):
    """Solve rows . (syms, 1) = 0 in reduced row echelon form: (the
    substitutions of the pivot symbols, the free symbols, the nonzero rref
    rows).  A pivot in the constant column (no solution) is dropped."""
    import sympy
    rref, pivots = sympy.Matrix(rows).rref()
    terms = [*syms, sympy.Integer(1)]
    subs = {syms[p]: sympy.expand(-sum(rref[r, c] * terms[c]
                                       for c in range(len(terms)) if c != p))
            for r, p in enumerate(pivots) if p < len(syms)}
    return (subs, [s for i, s in enumerate(syms) if i not in pivots],
            [list(rref.row(r)) for r in range(len(pivots))])


def derive_singular_structure(model: ArcModel, m_max: int = 4) -> GLCReport:
    """Derive the algebraic structure of a singular-arc family.

    The stepwise GLC test at the coefficient level.  The singularity
    conditions tr[h_j F] = 0 and the first-order equalities Q^(1)(F) = 0
    are solved together, in one reduced row echelon form over the costate
    coefficients f.  If that forces tr[H_d F] = 0 the family is "excluded"
    at order 1: no normal singular arc exists.  Otherwise every condition
    operator C (the partials h_j and the solved rows as operators) is
    differentiated along H with :func:`_r_jets`, and its rate
    tr[-i[C, H] F] must vanish too.  A rate with no control in it is one
    more row over f, as in the numeric closure (:func:`_flow_closure_rows`).
    In a rate with a control, a free coefficient whose weight holds no
    control is set to 0, and the other weights are linear conditions on
    the controls, solved for them.  New rows are solved first; the loop
    stops when a round adds nothing, and after 4 rounds.  The first
    nonzero Q^(m), m = 2..m_max,
    closes the test: an odd m is "excluded", an even one not diagonal is
    "consistent" with a note, and a diagonal one is reduced to sign
    conditions on the free coefficients and controls, "excluded" on a
    contradiction and "consistent" otherwise.  No nonzero order up to
    m_max is "inconclusive".  The derived conditions list the equalities
    over f, the control values and the sign conditions.  m_max < 1 raises
    ValidationError.
    """
    if m_max < 1:
        raise ValidationError("m_max must be >= 1")
    import sympy
    f_syms, u_syms = list(model.costate_syms), list(model.control_syms)
    partials, basis = list(model.partials), list(model.costate_basis)
    zero = sympy.zeros(*basis[0].shape)
    F = sum((s * tau for s, tau in zip(f_syms, basis)), zero)
    H = model.drift + sum((s * h for s, h in zip(u_syms, partials)), zero)

    q1 = _sym_q_matrix(partials, _r_jets(partials, [H], 1, sympy.I)[0], F)
    f_subs, frees, rows = _rref_solve(
        _linear_rows([(h * F).trace() for h in partials] + list(q1), f_syms), f_syms)
    names = [str(s) for s in f_syms]
    norm = sympy.expand((model.drift * F).trace().subs(f_subs))
    if norm == 0:
        return GLCReport(
            matrices=(), order=1, parity_ok=False, sign_ok=False,
            verdict="excluded",
            derived_conditions=tuple(_fmt_equality(row, names) for row in rows),
            notes=("singularity and first-order conditions force "
                   "tr[H_d F] = 0, contradicting the normalization of "
                   "normal protocols",))

    # a single free coefficient carrying tr[H_d F] = 1 is nonzero, and
    # positive when its weight is
    positive, nonzero = set(model.positive_params), set()
    carrier = [s for s in frees if norm.coeff(s) != 0]
    if len(carrier) == 1:
        nonzero.add(carrier[0])
        if _sign(norm.coeff(carrier[0]), positive) > 0:
            positive.add(carrier[0])

    u_subs = {}
    for _round in range(4):
        h_cur, f_cur = sympy.expand(H.subs(u_subs)), sympy.expand(F.subs(f_subs))
        ops = partials + [sum((c * tau for c, tau in zip(row, basis)), zero)
                          for row in rows]
        f_forms, u_forms = [], []
        for jet in _r_jets(ops, [h_cur], 2, sympy.I)[1]:
            rate = sympy.expand((jet[0] * f_cur).trace())
            if not rate.free_symbols & set(u_syms):
                f_forms.append(rate)  # one condition, as in the numeric closure
                continue
            for phi in frees:
                weight = sympy.expand(rate.coeff(phi))
                if weight.free_symbols & set(u_syms):
                    u_forms.append(weight)
                elif weight != 0:
                    f_forms.append(phi)
        new_rows = _linear_rows(f_forms, f_syms)
        if new_rows:
            f_subs, frees, rows = _rref_solve(rows + new_rows, f_syms)
            continue
        active = [s for s in u_syms if s not in u_subs]
        solved = u_forms and _rref_solve(_linear_rows(u_forms, active), active)[0]
        if not solved:
            break
        u_subs.update(solved)

    conditions = tuple(_fmt_equality(row, names) for row in rows) + tuple(
        f"{s} = {sympy.nsimplify(u_subs[s])}" for s in u_syms if s in u_subs)
    h_cur, f_cur = sympy.expand(H.subs(u_subs)), sympy.expand(F.subs(f_subs))
    levels = _r_jets(partials, [h_cur], m_max, sympy.I)
    for m in range(2, m_max + 1):
        q = _sym_q_matrix(partials, levels[m - 1], f_cur)
        if all(e == 0 for e in q):
            continue
        if m % 2:
            return GLCReport((), m, False, True, "excluded", conditions)
        signed = (-1) ** (m // 2 + 1) * q  # require signed >= 0
        if any(sympy.expand(signed[i, j]) != 0
               for i in range(q.rows) for j in range(q.cols) if i != j):
            return GLCReport(
                (), m, True, True, "consistent", conditions,
                notes=("closing even order is not diagonal; "
                       "use the numeric GLC test at a concrete point",))
        signs: list[str] = []
        ok = _reduce_inequalities([signed[i, i] for i in range(q.rows)],
                                  set(frees) | set(u_syms), positive, nonzero, signs)
        return GLCReport((), m, True, ok, "consistent" if ok else "excluded",
                         conditions + tuple(signs))
    return GLCReport((), None, True, True, "inconclusive", conditions)


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

    Samples 8 points of the piece u^T M u = r^2, with M and r the ball
    ``ConstraintSet`` resolved: the zeroed coordinates 0, the free ones
    inside the ball in their own block of M, and the eliminated one the
    positive root that puts the point on the ball.  It reduces the chart
    there, closes the condition operators under the costate flow, and
    checks whether any costate in the surviving null space can carry
    tr[H_d F] = 1.  When no
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
    metric, r = c._ball
    basis = generalized_gellmann(c.dim)
    phi = expand(c.drift, basis)

    free_idx = [j for j in range(l) if j not in case.zero and j != case.eliminate]
    worst_report: Optional[GLCReport] = None
    for _ in range(8):
        u = np.zeros(l)
        if free_idx:
            # the free part inside the ball, in the metric: v^T M v <= (0.6 r)^2
            v = rng.standard_normal(len(free_idx))
            v_norm = np.sqrt(v @ metric[np.ix_(free_idx, free_idx)] @ v)
            u[free_idx] = v * ((0.6 * r) * rng.uniform(0.2, 1.0) / v_norm)
        # eliminated coordinate: the positive root of
        # M_ee u_e^2 + 2 b u_e + q - r^2 = 0, b = sum_j M_ej u_j, q = u^T M u
        quad = float(u @ metric @ u)
        b = float(metric[case.eliminate] @ u)
        gee = metric[case.eliminate, case.eliminate]
        u[case.eliminate] = (np.sqrt(b * b + gee * (r * r - quad)) - b) / gee
        full_chart = ControlChart(tuple(c.control_basis), u=u)
        red = boundary_reduce(full_chart, metric, case.eliminate)
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
