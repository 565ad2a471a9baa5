import numpy as np
import pytest
import sympy

from toqc.arc_analysis import (
    _sym_q_matrix,
    boundary_closure_study,
    derive_singular_structure,
)
from toqc.errors import ValidationError
from toqc.scenarios import get_scenario
from toqc.singular_glc import (
    ControlChart,
    _r_jets,
    glc_matrices,
    glc_test,
    singular_chain,
)
from toqc.sun_algebra import SIGMA_Z, expand, generalized_gellmann, reconstruct


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
        chart = ControlChart(tuple(c.control_basis), u=u,
                             names=c.control_names)
        rows = aa._flow_closure_rows(c, u, chart)
        _, s, vt = np.linalg.svd(rows)
        rank = int(np.sum(s > 1e-9 * s[0]))
        null = vt[rank:]
        return null.shape[0] > 0 and np.max(np.abs(null @ phi)) > 1e-9

    assert feasible(np.array([0.0, 0.0, 0.0, 0.5]))
    assert not feasible(np.array([0.3, 0.0, 0.0, 0.5]))
    assert not feasible(np.array([0.0, 0.2, 0.1, 0.5]))


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


@pytest.mark.parametrize("name,kw", INTERIOR_CASES)
def test_symbolic_interior_verdicts_match_the_numeric_engine(name, kw):
    # sample the arc family that the symbolic derivation describes and run
    # the numeric engine there: the chain residuals vanish and glc_test
    # returns the symbolic order and verdict; a point that breaks one
    # control condition is caught by the chain or by the sign test
    sc = get_scenario(name, **kw)
    c, omega0 = sc.constraint, sc.parameters["omega0"]
    model = sc.arc_model()
    rep = derive_singular_structure(model)
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
