import numpy as np
import pytest
import sympy

from toqc.arc_analysis import (
    _sym_q_matrix,
    arc_model,
    boundary_closure_study,
    derive_singular_structure,
)
from toqc.constraint_model import Box, ConstraintSet
from toqc.errors import ValidationError
from toqc.scenarios import get_scenario
from toqc.singular_glc import (
    ControlChart,
    _r_jets,
    glc_matrices,
    glc_test,
    singular_chain,
)
from toqc.sun_algebra import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    expand,
    generalized_gellmann,
    reconstruct,
)


def test_landau_zener_interior_structure():
    sc = get_scenario("landau_zener")
    rep = derive_singular_structure(sc.arc_model())
    assert rep.verdict == "consistent"
    assert rep.order == 2
    conds = set(rep.derived_conditions)
    assert {"f1 = 0", "f2 = 0", "u = 0"} <= conds


def test_one_qubit_xy_interior_excluded():
    sc = get_scenario("one_qubit_xy")
    rep = derive_singular_structure(sc.arc_model())
    assert rep.verdict == "excluded"
    assert rep.order == 1
    assert any("tr[H_d F] = 0" in note for note in rep.notes)


def test_symmetric_two_qubit_interior_conditions_exact():
    sc = get_scenario("symmetric_two_qubit")
    rep = derive_singular_structure(sc.arc_model())
    assert rep.verdict == "consistent"
    assert set(rep.derived_conditions) == set(
        sc.reference_facts["interior_conditions"])


def test_symmetric_two_qubit_boundary_cases_excluded():
    sc = get_scenario("symmetric_two_qubit")
    verdicts = {}
    for case in sc.boundary_cases:
        rep = boundary_closure_study(sc.constraint, case, seed=5)
        verdicts[case.name] = rep.verdict
    assert verdicts == sc.reference_facts["boundary_verdicts"]


def test_boundary_exchange_case_fails_semidefiniteness():
    # the exchange-saturated piece survives the chain conditions but the
    # second-order matrix picks up the negative (omega0 - Omega) entry
    sc = get_scenario("symmetric_two_qubit", omega0=1.0, Omega=2.0)
    case = next(c for c in sc.boundary_cases if c.name == "J")
    rep = boundary_closure_study(sc.constraint, case, seed=5)
    assert rep.verdict == "excluded"
    assert rep.order == 2
    assert not rep.sign_ok
    assert max(rep.eigenvalues_at_order) > 0.5  # (Omega - omega0) * f4 scale


def test_boundary_field_cases_fail_at_chain_level():
    sc = get_scenario("symmetric_two_qubit")
    for name in ("b3", "b1", "b2"):
        case = next(c for c in sc.boundary_cases if c.name == name)
        rep = boundary_closure_study(sc.constraint, case, seed=5)
        assert rep.order is None
        assert any("no costate" in note for note in rep.notes)


def test_boundary_study_needs_ball_kind():
    sc = get_scenario("one_qubit_xy")
    from toqc.arc_analysis import BoundaryCase
    with pytest.raises(ValidationError):
        boundary_closure_study(sc.constraint, BoundaryCase("x", (), 0))


@pytest.mark.parametrize("m_max", [0, -1])
def test_glc_engines_refuse_m_max_below_one(m_max):
    # with no order to examine, each engine used to return a verdict:
    # "inconclusive", or on boundary-b3 "excluded" without running the test
    sc = get_scenario("symmetric_two_qubit")
    with pytest.raises(ValidationError, match="m_max"):
        derive_singular_structure(sc.arc_model(), m_max=m_max)
    for case in sc.boundary_cases:
        with pytest.raises(ValidationError, match="m_max"):
            boundary_closure_study(sc.constraint, case, m_max=m_max)
    chart = ControlChart((SIGMA_Z,))
    with pytest.raises(ValidationError, match="m_max"):
        glc_test(chart, SIGMA_Z, SIGMA_Z, m_max=m_max)


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_boundary_study_refuses_a_bad_seed(seed):
    sc = get_scenario("symmetric_two_qubit")
    with pytest.raises(ValidationError, match="seed"):
        boundary_closure_study(sc.constraint, sc.boundary_cases[0], seed=seed)


def test_boundary_study_refuses_a_bad_case():
    # eliminate=7 used to raise IndexError; the others returned "excluded"
    # for a piece that does not exist
    from toqc.arc_analysis import BoundaryCase
    sc = get_scenario("symmetric_two_qubit")
    for zero, eliminate in (((), 7), ((9,), 0), ((), -1), ((3,), 3),
                            ((1, 1), 0)):
        with pytest.raises(ValidationError, match="boundary case"):
            boundary_closure_study(sc.constraint, BoundaryCase("x", zero, eliminate))


def test_interior_closure_numeric_cross_check():
    # numeric counterpart of the symbolic interior study: at an interior
    # point with any field component on, the flow closure leaves no
    # normalizable singular costate; on the exchange axis it leaves exactly
    # the surviving one
    import toqc.arc_analysis as aa
    from toqc.singular_glc import ControlChart
    from toqc.sun_algebra import expand, generalized_gellmann

    sc = get_scenario("symmetric_two_qubit")
    c = sc.constraint
    basis = generalized_gellmann(3)
    phi = expand(c.drift, basis)

    def feasible(u):
        chart = ControlChart(tuple(c.control_basis), u=u)
        null = aa._flow_closure_complement(c, u, chart)
        return null.shape[0] > 0 and np.max(np.abs(null @ phi)) > 1e-9

    assert feasible(np.array([0.0, 0.0, 0.0, 0.5]))
    assert not feasible(np.array([0.3, 0.0, 0.0, 0.5]))
    assert not feasible(np.array([0.0, 0.2, 0.1, 0.5]))


def _box_model(drift, controls):
    """The exact interior model of ``drift`` and ``controls`` under a unit
    box, with omega0 = 1."""
    n = drift.shape[0]
    l = len(controls)
    c = ConstraintSet(n, drift, tuple(controls), Box([-1.0] * l, [1.0] * l))
    return c, arc_model(c, 1.0)


LAMBDA = generalized_gellmann(3)


def _lam(k):
    return LAMBDA[k - 1]


CLOSURE_EXCLUDED_NOTE = ("the flow closure of the singularity and first-order "
                         "conditions forces tr[H_d F] = 0, contradicting the "
                         "normalization of normal protocols")
EXCLUDED_NOTE = ("singularity and first-order conditions force tr[H_d F] = 0, "
                 "contradicting the normalization of normal protocols")
NOT_DIAGONAL_NOTE = ("closing even order is not diagonal; use the numeric GLC "
                     "test at a concrete point")


@pytest.mark.parametrize("drift, controls, order, verdict, conditions, notes", [
    # su(2), two controls: Q^(1) = tr[-i[h_1, h_2] F] kills the last
    # coefficient that could carry tr[H_d F] = 1
    (SIGMA_Z, (SIGMA_X, SIGMA_Y), 1, "excluded",
     ("f1 = 0", "f2 = 0", "f3 = 0"), (EXCLUDED_NOTE,)),
    (SIGMA_Y, (SIGMA_X,), 2, "consistent",
     ("f1 = 0", "f3 = 0", "u1 = 0", "f2 >= 0"), ()),
    # a control value that is not 0
    (_lam(5) + _lam(8), (_lam(3),), 2, "consistent",
     ("f3 = 0", "f4 = 0", "f8 = 0", "u1 = -sqrt(3)*omega0", "f5 >= 0"), ()),
    # an equality with two terms and an upper bound
    (_lam(3), (_lam(1), _lam(5), _lam(4)), 2, "consistent",
     ("f1 = 0", "f2 = 0", "f3 + sqrt(3)*f8 = 0", "f4 = 0", "f5 = 0", "f6 = 0",
      "f7 = 0", "u1 = 0", "f8 <= 0"), ()),
    # glc_test excludes sampled family members: the verdict is open
    (_lam(8), (_lam(6) + _lam(2), _lam(2), _lam(3)), 2, "inconclusive",
     ("f1 = 0", "f2 = 0", "f3 = 0", "f4 = 0", "f6 = 0", "f7 = 0", "u1 = 0",
      "u2 = 0", "u3 = -sqrt(3)*omega0"), (NOT_DIAGONAL_NOTE,)),
    # two sign conditions that stay unreduced
    (_lam(3), (_lam(7), _lam(5)), 2, "consistent",
     ("f1 = 0", "f2 = 0", "f4 = 0", "f5 = 0", "f6 = 0", "f7 = 0", "u1 = 0",
      "u2 = 0", "2*omega0*(f3 - sqrt(3)*f8) >= 0",
      "2*omega0*(f3 + sqrt(3)*f8) >= 0"), ()),
], ids=["su2-xy-z", "su2-x-y", "l3-l5l8", "l1l5l4-l3", "l6l2l2l3-l8", "l7l5-l3"])
def test_interior_reports_of_exact_models(drift, controls, order, verdict,
                                          conditions, notes):
    # models that no scenario covers: the verdict, the closing order, every
    # derived condition string in order, and the notes
    _, model = _box_model(drift, controls)
    rep = derive_singular_structure(model)
    assert (rep.order, rep.verdict) == (order, verdict)
    assert rep.derived_conditions == conditions
    assert rep.notes == notes


def test_interior_study_typical_qutrit_variant():
    # the Hilbert-Schmidt (typical-qutrit) bound variant has the same
    # interior singular structure
    sc = get_scenario("symmetric_two_qubit", typical_qutrit=True)
    rep = derive_singular_structure(sc.arc_model())
    assert rep.verdict == "consistent"
    assert "b1 = 0" in rep.derived_conditions


# --- symbolic verdicts against the numeric engine ----------------------------------

def _parsed_conditions(model, rep, omega0):
    """(lhs, relation, rhs) of each derived condition, omega0 substituted."""
    names = {str(s): s for s in (*model.control_syms, *model.costate_syms,
                                 *model.positive_params)}
    sub = {model.positive_params[0]: omega0}
    out = []
    for cond in rep.derived_conditions:
        rel = next(r for r in (">=", "<=", "=") if f" {r} " in cond)
        lhs, rhs = cond.split(f" {rel} ")
        out.append((sympy.parse_expr(lhs, local_dict=names).subs(sub), rel,
                    sympy.parse_expr(rhs, local_dict=names).subs(sub)))
    return out


def _violated(conditions, values):
    """The conditions that the symbol values break (by more than 1e-12)."""
    out = []
    for lhs, rel, rhs in conditions:
        gap = float((lhs - rhs).subs(values))
        if (rel == "=" and abs(gap) > 1e-12) or (rel == ">=" and gap < -1e-12) \
                or (rel == "<=" and gap > 1e-12):
            out.append((lhs, rel, rhs))
    return out


def _family_costate(model, conditions, c, rng):
    """A random costate on the conditions' linear f-equalities with
    tr[H_d F] = 1: the minimal-norm one plus a random null-space part that
    leaves the normalization alone."""
    f_syms = model.costate_syms
    rows = [[float((lhs - rhs).coeff(s)) for s in f_syms]
            for lhs, rel, rhs in conditions
            if rel == "=" and (lhs - rhs).free_symbols <= set(f_syms)]
    basis = generalized_gellmann(c.dim)
    phi = expand(c.drift, basis)
    if rows:
        _, s, vt = np.linalg.svd(np.array(rows))
        null = vt[int(np.sum(s > 1e-9)):]
    else:
        null = np.eye(len(basis))
    p_phi = null.T @ (null @ phi)
    if np.linalg.norm(p_phi) < 1e-9:
        return None
    v = null.T @ rng.standard_normal(null.shape[0])
    v -= (v @ p_phi) / (p_phi @ p_phi) * p_phi
    coeffs = p_phi / (2.0 * p_phi @ phi) + 0.5 * v
    return reconstruct(coeffs, basis), dict(zip(f_syms, coeffs))


INTERIOR_CASES = [("landau_zener", {}), ("one_qubit_xy", {}),
                  ("symmetric_two_qubit", {}),
                  ("symmetric_two_qubit", {"typical_qutrit": True})]


def _check_against_the_numeric_engine(c, omega0, model, rep):
    """Sample the arc family that the symbolic report ``rep`` of ``model``
    describes and run the numeric engine there: the chain residuals vanish
    and glc_test returns the symbolic order and verdict; a point that
    breaks one control condition is caught by the chain or by the sign
    test."""
    conditions = _parsed_conditions(model, rep, omega0)
    rng = np.random.default_rng(31)

    def numeric(f, u):
        h = c.hamiltonian(u)
        chain = singular_chain(f, c, h, depth=3)
        report = glc_test(ControlChart(tuple(c.control_basis), u=u), h, f, 4)
        return [float(np.max(np.abs(r))) for r in chain["residuals"]], report

    family = _family_costate(model, conditions, c, rng)
    if family is None:
        # no normalizable member (one_qubit_xy): a costate that meets the
        # singularity conditions but not the first-order ones
        assert (rep.order, rep.verdict) == (1, "excluded")
        f = SIGMA_Z / np.trace(c.drift @ SIGMA_Z).real
        chain, report = numeric(f, rng.uniform(-0.5, 0.5, c.n_controls))
        assert chain[0] < 1e-12
        assert (report.order, report.verdict) == (1, "excluded")
        return

    u_syms = model.control_syms
    fixed = {lhs: rhs for lhs, rel, rhs in conditions
             if rel == "=" and lhs in u_syms}
    samples = 0
    while samples < 6:
        f, f_values = _family_costate(model, conditions, c, rng)
        values = dict(f_values)
        values.update({s: rng.uniform(-2.0, 2.0) * omega0 for s in u_syms})
        values.update({s: float(rhs.subs(values)) for s, rhs in fixed.items()})
        if _violated(conditions, values):
            continue
        samples += 1
        u = np.array([values[s] for s in u_syms])
        chain, report = numeric(f, u)
        assert max(chain) < 1e-10
        assert abs(np.trace(c.drift @ f).real - 1.0) < 1e-12
        assert (report.order, report.verdict) == (rep.order, rep.verdict)

    # break one control condition at a time, by 0.3 (or 0.5 omega0 past
    # an upper bound) from a family point
    f, f_values = _family_costate(model, conditions, c, rng)
    base = {s: 0.0 for s in u_syms}
    base.update({lhs: float(rhs) for lhs, rel, rhs in conditions
                 if rel == ">=" and lhs in u_syms})
    base.update({lhs: 0.5 * float(rhs) for lhs, rel, rhs in conditions
                 if rel == "<=" and lhs in u_syms})
    assert not _violated(conditions, {**f_values, **base})
    broken = 0
    for lhs, rel, rhs in conditions:
        if lhs not in u_syms:
            continue
        step = {"=": 0.3, ">=": -0.3, "<=": 0.5 * omega0}[rel]
        values = {**f_values, **base, lhs: float(rhs.subs(base)) + step}
        assert _violated(conditions, values) == [(lhs, rel, rhs)]
        chain, report = numeric(f, np.array([values[s] for s in u_syms]))
        if rel == "=":
            assert max(chain[:3]) > 0.1, (lhs, chain)
        else:
            assert report.verdict == "excluded", (lhs, report.verdict)
        broken += 1
    assert broken == sum(1 for lhs, _, _ in conditions if lhs in u_syms) > 0


@pytest.mark.parametrize("name,kw", INTERIOR_CASES)
def test_symbolic_interior_verdicts_match_the_numeric_engine(name, kw):
    sc = get_scenario(name, **kw)
    model = sc.arc_model()
    _check_against_the_numeric_engine(sc.constraint, sc.parameters["omega0"],
                                      model, derive_singular_structure(model))


def test_a_rate_without_a_control_is_one_condition():
    # landau_zener turned by pi/4 about x.  The rate of the control,
    # tr[-i[sx, H] F] = 4 omega0 (f3 - f2), holds no control; setting each
    # of its coefficients to 0 left the family F = 0, which cannot carry
    # tr[H_d F] = 1 ("inconclusive"), while the numeric closure takes the
    # rate as one row and glc_test finds F = (sy + sz) / 4, u = 0 consistent
    c, model = _box_model(SIGMA_Y + SIGMA_Z, (SIGMA_X,))
    rep = derive_singular_structure(model)
    assert (rep.order, rep.verdict) == (2, "consistent")
    assert rep.derived_conditions == ("f1 = 0", "f2 - f3 = 0", "u1 = 0", "f3 >= 0")
    _check_against_the_numeric_engine(c, 1.0, model, rep)
    f = (SIGMA_Y + SIGMA_Z) / 4.0
    report = glc_test(ControlChart((SIGMA_X,), u=np.zeros(1)), c.hamiltonian(np.zeros(1)),
                      f, 4)
    assert (report.order, report.verdict) == (2, "consistent")


def test_a_closure_that_leaves_no_normalizable_costate_is_excluded():
    # the first-order conditions leave a family that can carry
    # tr[H_d F] = 1, but control-free rates of the flow closure set every
    # coefficient to 0: the derivation excludes the family, and the
    # numeric closure leaves no normalizable costate at u = 0 or at random
    # controls in the box
    import toqc.arc_analysis as aa
    from toqc.singular_glc import _normalizable_costate
    c, model = _box_model(_lam(4) + _lam(1), (_lam(8), _lam(5), _lam(7), _lam(2)))
    rep = derive_singular_structure(model)
    assert (rep.verdict, rep.order, rep.parity_ok, rep.sign_ok) == (
        "excluded", None, True, True)
    assert rep.derived_conditions == tuple(f"f{a} = 0" for a in range(1, 9))
    assert rep.notes == (CLOSURE_EXCLUDED_NOTE,)
    phi = expand(c.drift, LAMBDA)
    rng = np.random.default_rng(5)
    for u in [np.zeros(4), *rng.uniform(-1.0, 1.0, (10, 4))]:
        null = aa._flow_closure_complement(
            c, u, ControlChart(tuple(c.control_basis), u=u))
        assert _normalizable_costate(null, phi) is None


def test_a_family_narrowed_by_a_split_rate_is_not_excluded():
    # the closure splits a rate that holds a control, which is sufficient
    # for it to vanish but not necessary, and is left with F = 0; yet on
    # the line u1 + u2 = 0 the numeric closure leaves normal singular
    # costates (at u = 0, F = (-sqrt(3) lambda3 + lambda8) / 2) that pass
    # the GLC test, so the family must not be excluded
    import toqc.arc_analysis as aa
    from toqc.singular_glc import _normalizable_costate
    c, model = _box_model(_lam(5) + _lam(8), (_lam(6) + _lam(1), _lam(1)))
    rep = derive_singular_structure(model)
    assert (rep.verdict, rep.order, rep.notes) == ("inconclusive", None, ())
    assert rep.derived_conditions == tuple(f"f{a} = 0" for a in range(1, 9))
    phi = expand(c.drift, LAMBDA)
    for u in (np.zeros(2), np.array([0.4, -0.4]), np.array([-1.0, 1.0])):
        null = aa._flow_closure_complement(
            c, u, ControlChart(tuple(c.control_basis), u=u))
        f = reconstruct(_normalizable_costate(null, phi), LAMBDA)
        if not u.any():
            np.testing.assert_allclose(f, 0.5 * (-np.sqrt(3.0) * _lam(3) + _lam(8)),
                                       rtol=0, atol=1e-12)
        h = c.hamiltonian(u)
        chain = singular_chain(f, c, h, depth=3)
        assert max(np.max(np.abs(r)) for r in chain["residuals"]) < 1e-12
        assert abs(chain["normalization"]) < 1e-12
        report = glc_test(ControlChart(tuple(c.control_basis), u=u), h, f, 4)
        assert report.verdict == "consistent"


def test_a_closing_order_that_is_not_diagonal_is_inconclusive():
    # Q^(2) of this family is not diagonal, so the sign reduction does not
    # apply; glc_test excludes the sampled family members, so the
    # derivation must not call the family consistent
    c, model = _box_model(_lam(8), (_lam(6) + _lam(2), _lam(2), _lam(3)))
    rep = derive_singular_structure(model)
    assert (rep.verdict, rep.order, rep.notes) == ("inconclusive", 2,
                                                   (NOT_DIAGONAL_NOTE,))
    conditions = _parsed_conditions(model, rep, 1.0)
    u = np.array([float(rhs) for lhs, rel, rhs in conditions
                  if lhs in model.control_syms])
    np.testing.assert_allclose(u, [0.0, 0.0, -np.sqrt(3.0)], rtol=0, atol=1e-15)
    rng = np.random.default_rng(3)
    for _ in range(5):
        f, _ = _family_costate(model, conditions, c, rng)
        report = glc_test(ControlChart(tuple(c.control_basis), u=u),
                          c.hamiltonian(u), f, 4)
        assert (report.order, report.verdict) == (2, "excluded")


def test_symbolic_glc_matrices_equal_the_numeric_ones():
    # the symbolic Q^(1..4) of the two-qubit model, evaluated at random
    # (u, F, omega0), equal glc_matrices on the numeric chart
    model = get_scenario("symmetric_two_qubit").arc_model()
    partials = list(model.partials)
    h_sym = model.drift + sum((s * p for s, p in zip(model.control_syms, partials)),
                              sympy.zeros(3, 3))
    f_sym = sum((s * t for s, t in zip(model.costate_syms, model.costate_basis)),
                sympy.zeros(3, 3))
    levels = _r_jets(partials, [h_sym], 4, sympy.I)
    q_sym = [_sym_q_matrix(partials, level, f_sym) for level in levels]
    syms = (*model.control_syms, *model.costate_syms, *model.positive_params)
    q_fun = sympy.lambdify(syms, q_sym, "numpy")
    rng = np.random.default_rng(47)
    for _ in range(5):
        u = rng.uniform(-1.0, 1.0, 4)
        coeffs = rng.standard_normal(8)
        omega0 = rng.uniform(0.2, 2.0)
        c = get_scenario("symmetric_two_qubit", omega0=omega0).constraint
        want = glc_matrices(ControlChart(tuple(c.control_basis)), c.hamiltonian(u),
                            reconstruct(coeffs, generalized_gellmann(3)), 4)
        got = [np.array(q, dtype=complex) for q in q_fun(*u, *coeffs, omega0)]
        for g, w in zip(got, want):
            assert np.max(np.abs(g.imag)) < 1e-12
            np.testing.assert_allclose(g.real, w, rtol=0, atol=1e-12)


CROSS_METRIC = np.eye(4)
CROSS_METRIC[0, 3] = CROSS_METRIC[3, 0] = 0.5


@pytest.mark.parametrize("metric, case", [
    # the cross term 2 u_3 M_30 u_0 of the eliminated coordinate
    (CROSS_METRIC, ((1, 2), 3)),
    # a free part scaled in the Euclidean norm leaves the ball
    (10.0 * np.eye(4), ((), 2)),
])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_boundary_study_samples_points_on_the_ball(monkeypatch, metric, case, seed):
    # the sampled points used to drop the cross term and clip at u_e = 0:
    # u^T M u ranged from 2.1 to 5.9 against r^2 = 4 on the first metric; on
    # the second the free part left the ball, u_e was clipped to 0 and
    # ImplicitFunctionError followed
    from toqc import arc_analysis
    from toqc.arc_analysis import BoundaryCase
    from toqc.constraint_model import BallInCoords, ConstraintSet
    from toqc.scenarios import triplet_operators
    ops = triplet_operators()
    c = ConstraintSet(3, ops["Sigma_x_tilde"],
                      (ops["S1"], ops["S2"], ops["S3"], ops["Sigma_z_tilde"]),
                      BallInCoords(2.0, metric))
    points = []
    reduce = arc_analysis.boundary_reduce

    def spy(chart, metric, eliminate):
        points.append(chart.u)
        return reduce(chart, metric, eliminate)

    monkeypatch.setattr(arc_analysis, "boundary_reduce", spy)
    boundary_closure_study(c, BoundaryCase("x", *case), seed=seed)
    assert points
    for u in points:
        assert u @ metric @ u == pytest.approx(4.0, rel=1e-12)
        assert u[case[1]] > 0 and np.all(u[list(case[0])] == 0)


# --- units -------------------------------------------------------------------

def _scale_free(rep):
    """The fields of a boundary report that must not change with the unit."""
    return (rep.verdict, rep.order, rep.parity_ok, rep.sign_ok,
            rep.derived_conditions, rep.notes)


@pytest.mark.parametrize("seed", [0, 3])
def test_scenario_boundary_studies_do_not_depend_on_the_unit(seed):
    # H -> lam H (omega0 and Omega scaled together) changes no boundary
    # report: the closure takes the rates of H / ||H|| and the drift test is
    # relative.  Absolute rank and pairing cuts used to flip b1, b2 and b3
    # between "no costate" and "fails semidefiniteness" at 1e-8, 1e-5, 1e6
    # and 1e8
    unit = get_scenario("symmetric_two_qubit")
    want = {case.name: _scale_free(boundary_closure_study(unit.constraint, case,
                                                          seed=seed))
            for case in unit.boundary_cases}
    for lam in (1e-8, 1e-5, 1e-3, 1e3, 1e6, 1e8):
        sc = get_scenario("symmetric_two_qubit", omega0=lam, Omega=2.0 * lam)
        for case in sc.boundary_cases:
            rep = boundary_closure_study(sc.constraint, case, seed=seed)
            assert _scale_free(rep) == want[case.name], (lam, case.name)


def _random_ball_piece(rng):
    """A coefficient-ball constraint on a random su(2) or su(3) frame, with
    a random or a Gell-Mann drift, and a boundary case on it."""
    from toqc.arc_analysis import BoundaryCase
    from toqc.sun_algebra import random_traceless_hermitian
    n = int(rng.choice([2, 3]))
    d = n * n - 1
    l = int(rng.integers(2, min(d, 4) + 1))
    basis = generalized_gellmann(n)
    if rng.random() < 0.5:
        frame = tuple(basis[i] for i in rng.choice(d, l, replace=False))
    else:
        frame = tuple(random_traceless_hermitian(rng, n) for _ in range(l))
    a = rng.standard_normal((l, l))
    metric = a @ a.T + 0.5 * np.eye(l) if rng.random() < 0.5 else np.eye(l)
    radius = float(rng.uniform(1.0, 3.0))
    drift = (random_traceless_hermitian(rng, n) if rng.random() < 0.5
             else basis[int(rng.integers(d))]) * float(rng.uniform(0.2, 1.0))
    eliminate = int(rng.integers(l))
    rest = [j for j in range(l) if j != eliminate]
    zero = rng.choice(rest, int(rng.integers(0, len(rest) + 1)), replace=False)
    case = BoundaryCase("p", tuple(int(j) for j in zero), eliminate)
    return n, drift, frame, metric, radius, case, int(rng.integers(1000))


def test_generated_boundary_studies_do_not_depend_on_the_unit():
    from toqc.constraint_model import BallInCoords
    rng = np.random.default_rng(7)
    verdicts = set()
    for _ in range(40):
        n, drift, frame, metric, radius, case, seed = _random_ball_piece(rng)
        reports = [
            _scale_free(boundary_closure_study(
                ConstraintSet(n, lam * drift, frame, BallInCoords(lam * radius, metric)),
                case, seed=seed))
            for lam in (1.0, 1e-4, 1e4)]
        assert reports[1] == reports[0] and reports[2] == reports[0], (n, case)
        verdicts.add(reports[0][0])
    assert verdicts == {"excluded", "consistent"}
