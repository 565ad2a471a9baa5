from math import comb

import numpy as np
import pytest

from toqc import constraint_model as cm
from toqc import singular_glc as sg
from toqc.constraint_model import BallInCoords
from toqc.errors import (
    ImplicitFunctionError,
    MissingDerivativeError,
    ValidationError,
)
from toqc.scenarios import triplet_operators
from toqc.sun_algebra import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    commutator,
    expand,
    gellmann_basis,
    generalized_gellmann,
    random_traceless_hermitian,
    reconstruct,
)

RNG = np.random.default_rng(99)


def closed_form_q(partials, h, h_dot, f):
    """First three orders from the planar closed forms (test oracle).

    Index convention chosen so the first order reads
    Q1_ij = -i tr[[h_i, h_j] F], matching the worked examples.
    """
    l = len(partials)
    q1 = np.empty((l, l))
    q2 = np.empty((l, l))
    q3 = np.empty((l, l))
    for i in range(l):
        for j in range(l):
            hi, hj = partials[i], partials[j]
            q1[i, j] = (-1j * np.trace((hi @ hj - hj @ hi) @ f)).real
            a = h @ hi - hi @ h
            q2[i, j] = np.trace((a @ hj - hj @ a) @ f).real
            b = h @ a - a @ h
            q3[i, j] = (1j * np.trace((b @ hj - hj @ b) @ f)).real
            cdot = h_dot @ hi - hi @ h_dot
            q3[i, j] += np.trace((cdot @ hj - hj @ cdot) @ f).real
    return q1, q2, q3


def ex3_frame():
    ops = triplet_operators()
    return (ops["S1"], ops["S2"], ops["S3"], ops["Sigma_z_tilde"]), ops


def singular_costate_ex3(f1, f2, f4):
    gm = gellmann_basis()
    return f1 * (gm[0] - gm[5]) + f2 * (gm[1] - gm[6]) + f4 * gm[3]


# --- chain conditions ----------------------------------------------------------

def test_chain_landau_zener_vanishes_on_off_arc():
    omega0 = 0.8
    c = cm.ConstraintSet(2, omega0 * SIGMA_Z, (SIGMA_X,),
                         cm.Box(np.array([-2.0]), np.array([2.0])))
    f = SIGMA_Z / (2 * omega0)  # omega0 tr[sz F] = 1
    h = omega0 * SIGMA_Z        # u = 0
    out = sg.singular_chain(f, c, h, depth=2)
    for res in out["residuals"]:
        assert np.max(np.abs(res)) < 1e-12
    assert abs(out["normalization"]) < 1e-12


def test_chain_first_derivative_sign():
    # d/dt tr[sx F] = -2 omega0 tr[sy F] on the off arc
    omega0 = 0.8
    c = cm.ConstraintSet(2, omega0 * SIGMA_Z, (SIGMA_X,),
                         cm.Box(np.array([-2.0]), np.array([2.0])))
    f = 0.37 * SIGMA_Y
    out = sg.singular_chain(f, c, omega0 * SIGMA_Z, depth=1)
    assert out["residuals"][1][0] == pytest.approx(
        -2 * omega0 * np.trace(SIGMA_Y @ f).real, abs=1e-12)


def test_chain_nonsingular_costate_detected():
    c = cm.ConstraintSet(2, 0.8 * SIGMA_Z, (SIGMA_X,),
                         cm.Box(np.array([-2.0]), np.array([2.0])))
    out = sg.singular_chain(SIGMA_X, c, 0.8 * SIGMA_Z, depth=0)
    assert abs(out["residuals"][0][0]) > 1.0


def test_chain_ex3_second_derivative_relation():
    # on the restricted singular family (only the f4 coefficient alive) the
    # depth-2 residual along the S3 direction is 4*sqrt(2) times the
    # relation b1 f1 + b2 f2 + sqrt(2) b3 f4, which reduces to
    # sqrt(2) b3 f4 there
    frame, ops = ex3_frame()
    omega0 = 1.0
    c = cm.ConstraintSet(3, omega0 * ops["Sigma_x_tilde"], frame,
                         BallInCoords(2.0, np.eye(4)),
                         control_names=("b1", "b2", "b3", "J"))
    rng = np.random.default_rng(4)
    for _ in range(10):
        f4 = rng.uniform(0.1, 1.0)
        b = rng.uniform(-0.5, 0.5, 3)
        j_val = rng.uniform(-0.5, 0.5)
        f = singular_costate_ex3(0.0, 0.0, f4)
        h = c.hamiltonian(np.array([*b, j_val]))
        out = sg.singular_chain(f, c, h, depth=2)
        lin = np.sqrt(2) * b[2] * f4
        assert out["residuals"][2][2] == pytest.approx(4 * np.sqrt(2) * lin,
                                                       abs=1e-10)
    # zero set: b3 = 0 kills the relation and the residual with it
    f = singular_costate_ex3(0.0, 0.0, 0.7)
    h = c.hamiltonian(np.array([0.2, -0.3, 0.0, 0.4]))
    out = sg.singular_chain(f, c, h, depth=2)
    assert abs(out["residuals"][2][2]) < 1e-12


def reference_chain_residuals(f, c, h, depth, du_dt):
    """The chain residuals by their own jet loop (test oracle).

    Each control direction starts as the jet [c_j, 0, ...]; one step applies
    d/dt - i[., H] order by order with the Leibniz rule, H's jet being
    [H, dH/dt, 0, ...] for constant du/dt.
    """
    rate = np.einsum("j,jab->ab", du_dt, np.stack(c.control_basis))
    h_jet = [h, rate] + [np.zeros_like(h)] * max(0, depth - 1)
    jets = [[cj] + [np.zeros_like(cj)] * depth for cj in c.control_basis]
    residuals = []
    for n in range(depth + 1):
        residuals.append(np.array(
            [float(np.trace(j[0] @ f).real) for j in jets]))
        if n == depth:
            break
        order = depth - n - 1
        advanced = []
        for jet in jets:
            comm = []
            for m in range(order + 1):
                acc = np.zeros_like(jet[0])
                for k in range(m + 1):
                    acc = acc + comb(m, k) * (jet[k] @ h_jet[m - k]
                                              - h_jet[m - k] @ jet[k])
                comm.append(acc)
            advanced.append([jet[k + 1] - 1j * comm[k] for k in range(order + 1)])
        jets = advanced
    return residuals


@pytest.mark.parametrize("n", [2, 3])
def test_chain_matches_reference_loop_bitwise(n):
    rng = np.random.default_rng(70 + n)
    for _ in range(10):
        l = int(rng.integers(1, 4))
        frame = tuple(random_traceless_hermitian(rng, n) for _ in range(l))
        c = cm.ConstraintSet(n, random_traceless_hermitian(rng, n), frame,
                             cm.Box(-np.ones(l), np.ones(l)))
        f = random_traceless_hermitian(rng, n)
        h = c.hamiltonian(rng.standard_normal(l))
        du = rng.standard_normal(l)
        for depth in range(4):
            got = sg.singular_chain(f, c, h, depth, du_dt=du)["residuals"]
            want = reference_chain_residuals(f, c, h, depth, du)
            assert len(got) == depth + 1
            for g, w in zip(got, want):
                assert np.array_equal(g, w)


def test_chain_time_varying_needs_du_dt():
    c = cm.ConstraintSet(2, 0.8 * SIGMA_Z, (SIGMA_X,),
                         cm.Box(np.array([-2.0]), np.array([2.0])))
    with pytest.raises(MissingDerivativeError):
        sg.singular_chain(SIGMA_Z, c, 0.8 * SIGMA_Z, depth=2,
                          time_varying=True)
    with pytest.raises(MissingDerivativeError):
        sg.singular_chain(SIGMA_Z, c, 0.8 * SIGMA_Z, depth=1,
                          time_varying=True)
    # tr[c_j F] and Q^(1) need no rate, so they are returned
    f, h = 0.3 * SIGMA_X + SIGMA_Z, 0.8 * SIGMA_Z + 0.5 * SIGMA_X
    got = sg.singular_chain(f, c, h, depth=0, time_varying=True)
    assert np.array_equal(got["residuals"][0], [0.6])
    chart = sg.ControlChart((SIGMA_X, SIGMA_Y), time_varying=True)
    q1 = sg.glc_matrices(chart, h, f, 1)
    np.testing.assert_array_equal(
        q1[0], sg.glc_matrices(sg.ControlChart((SIGMA_X, SIGMA_Y)), h, f, 1)[0])
    assert q1[0][0, 1] != 0.0
    with pytest.raises(MissingDerivativeError):
        sg.glc_matrices(chart, h, f, 2)


@pytest.mark.parametrize("field,value", [
    ("u", [np.nan, 0.0]), ("u", 0.3), ("u", [0.1, 0.2, 0.3]), ("u", "abc"),
    ("du_dt", [0.0, np.inf]), ("du_dt", [[0.0, 1.0]]),
])
def test_chart_rejects_malformed_control_values(field, value):
    with pytest.raises(ValidationError):
        sg.ControlChart((SIGMA_X, SIGMA_Y), **{field: value})


# --- recurrence vs closed forms -------------------------------------------------

@pytest.mark.parametrize("n", [2, 3])
def test_recurrence_matches_closed_forms(n):
    rng = np.random.default_rng(50 + n)
    for _ in range(50):
        partials = tuple(random_traceless_hermitian(rng, n) for _ in range(3))
        f = random_traceless_hermitian(rng, n)
        drift = random_traceless_hermitian(rng, n)
        u = rng.standard_normal(3)
        du = rng.standard_normal(3)
        h = drift + sum(ui * hi for ui, hi in zip(u, partials))
        h_dot = sum(di * hi for di, hi in zip(du, partials))
        chart = sg.ControlChart(partials, u=u, du_dt=du)
        want = closed_form_q(partials, h, h_dot, f)
        # glc_test stops at the first nonzero order, so its matrices are a
        # prefix of the three closed forms
        for qs in (sg.glc_matrices(chart, h, f, 3),
                   sg.glc_test(chart, h, f, m_max=3).matrices):
            assert len(qs) >= 1
            for got, w in zip(qs, want):
                np.testing.assert_allclose(got, w, atol=1e-9)


def test_q3_drops_rate_term_on_constant_arcs():
    rng = np.random.default_rng(8)
    partials = tuple(random_traceless_hermitian(rng, 2) for _ in range(2))
    f = random_traceless_hermitian(rng, 2)
    h = random_traceless_hermitian(rng, 2)
    chart = sg.ControlChart(partials)  # constant control
    q3 = sg.glc_matrices(chart, h, f, 3)[2]
    _, _, want = closed_form_q(partials, h, np.zeros_like(h), f)
    np.testing.assert_allclose(q3, want, atol=1e-9)


def test_symmetry_law_on_singular_arcs():
    # the (anti)symmetry of Q^(m) is a property of arcs on which the lower
    # orders vanish over an interval, so check it on arc-consistent data:
    # odd orders are antisymmetric structurally, and the first nonzero even
    # order must come out symmetric
    rng = np.random.default_rng(31)
    frame, ops = ex3_frame()
    chart = sg.ControlChart(frame)
    for _ in range(25):
        # unrestricted singular costate: order 1 is antisymmetric for any F
        f = singular_costate_ex3(*rng.uniform(-1, 1, 3))
        h = ops["Sigma_x_tilde"] + rng.uniform(-0.5, 0.5) * ops["Sigma_z_tilde"]
        q1 = sg.glc_matrices(chart, h, f, 1)[0]
        assert np.max(np.abs(q1 - (-q1.T))) < 1e-9
        # restricted arc (order 1 vanishes): order 2 is symmetric
        f = singular_costate_ex3(0.0, 0.0, rng.uniform(0.1, 1.0))
        q1, q2 = sg.glc_matrices(chart, h, f, 2)
        assert np.max(np.abs(q1)) < 1e-12
        assert np.max(np.abs(q2 - q2.T)) < 1e-9 * max(1.0, np.max(np.abs(q2)))
    # one-qubit off arc: orders 1 and 2 (1x1) plus transverse-plane chart
    chart2 = sg.ControlChart((SIGMA_X, SIGMA_Y))
    for _ in range(25):
        f3 = rng.uniform(0.2, 1.0)
        q1 = sg.glc_matrices(chart2, rng.uniform(0.2, 1.5) * SIGMA_Z,
                             f3 * SIGMA_Z, 1)[0]
        assert np.max(np.abs(q1 + q1.T)) < 1e-9


def test_commuting_chart_all_orders_vanish():
    # frame elements commuting with both F and H give identically zero Q
    chart = sg.ControlChart((SIGMA_Z,))
    qs = sg.glc_matrices(chart, 0.7 * SIGMA_Z, 0.3 * SIGMA_Z, 4)
    for q in qs:
        assert np.max(np.abs(q)) < 1e-14


# --- worked one-qubit values -----------------------------------------------------

def test_one_qubit_xy_q1_entry_and_exclusion():
    chart = sg.ControlChart((SIGMA_X, SIGMA_Y))
    omega0 = 0.6
    h = omega0 * SIGMA_Z
    f = SIGMA_Z / 2  # tr[sz F] = 1
    qs = sg.glc_matrices(chart, h, f, 1)
    assert qs[0][0, 1] == pytest.approx(2 * np.trace(SIGMA_Z @ f).real, abs=1e-10)
    assert qs[0][0, 1] == pytest.approx(2.0, abs=1e-10)
    rep = sg.glc_test(chart, h, f)
    assert rep.verdict == "excluded"
    assert rep.order == 1 and not rep.parity_ok


def test_landau_zener_off_arc_consistent():
    omega0 = 0.6
    chart = sg.ControlChart((SIGMA_X,))
    f3 = 1.0 / (2 * omega0)
    rep = sg.glc_test(chart, omega0 * SIGMA_Z, f3 * SIGMA_Z)
    assert rep.verdict == "consistent"
    assert rep.order == 2
    assert rep.matrices[1][0, 0] == pytest.approx(8 * omega0 * f3, abs=1e-12)


def test_ex3_q1_entries():
    frame, ops = ex3_frame()
    chart = sg.ControlChart(frame)
    f1, f2, f4 = 0.21, -0.34, 0.5
    f = singular_costate_ex3(f1, f2, f4)
    h = ops["Sigma_x_tilde"] + 0.1 * ops["S1"] + 0.4 * ops["Sigma_z_tilde"]
    q1 = sg.glc_matrices(chart, h, f, 1)[0]
    root8 = 4 * np.sqrt(2)
    assert q1[3, 0] == pytest.approx(root8 * f2, abs=1e-10)
    assert q1[0, 3] == pytest.approx(-root8 * f2, abs=1e-10)
    assert q1[3, 1] == pytest.approx(-root8 * f1, abs=1e-10)
    assert q1[1, 3] == pytest.approx(root8 * f1, abs=1e-10)
    mask = np.ones((4, 4), bool)
    mask[3, 0] = mask[0, 3] = mask[3, 1] = mask[1, 3] = False
    assert np.max(np.abs(q1[mask])) < 1e-10


def test_ex3_q2_diagonal_on_restricted_arc():
    frame, ops = ex3_frame()
    chart = sg.ControlChart(frame)
    omega0, j_val, f4 = 1.3, 0.4, 0.37
    f = singular_costate_ex3(0.0, 0.0, f4)
    h = omega0 * ops["Sigma_x_tilde"] + j_val * ops["Sigma_z_tilde"]
    q1, q2 = sg.glc_matrices(chart, h, f, 2)
    assert np.max(np.abs(q1)) < 1e-12
    expected = 4 * np.diag([j_val * f4, (omega0 - j_val) * f4,
                            2 * f4 * omega0, 0.0])
    np.testing.assert_allclose(q2, expected, atol=1e-9)
    rep = sg.glc_test(chart, h, f)
    assert rep.verdict == "consistent" and rep.order == 2


def test_ex3_exceeding_drift_rate_excluded():
    frame, ops = ex3_frame()
    chart = sg.ControlChart(frame)
    omega0, j_val, f4 = 1.0, 1.7, 0.5   # J > omega0
    f = singular_costate_ex3(0.0, 0.0, f4)
    h = omega0 * ops["Sigma_x_tilde"] + j_val * ops["Sigma_z_tilde"]
    rep = sg.glc_test(chart, h, f)
    assert rep.verdict == "excluded" and not rep.sign_ok


# --- boundary reduction -----------------------------------------------------------

def test_boundary_reduce_partial_formulas():
    frame, ops = ex3_frame()
    omega_bound = 2.0
    b1, b2, j_val = 0.5, -0.3, 0.7
    b3 = np.sqrt(omega_bound ** 2 - b1 ** 2 - b2 ** 2 - j_val ** 2)
    u = np.array([b1, b2, b3, j_val])
    chart = sg.ControlChart(frame, u=u)
    red = sg.boundary_reduce(chart, np.eye(4), 2)
    np.testing.assert_allclose(red.partials[0],
                               ops["S1"] - (b1 / b3) * ops["S3"], atol=1e-12)
    np.testing.assert_allclose(red.partials[1],
                               ops["S2"] - (b2 / b3) * ops["S3"], atol=1e-12)
    np.testing.assert_allclose(red.partials[2],
                               ops["Sigma_z_tilde"] - (j_val / b3) * ops["S3"],
                               atol=1e-12)


def test_boundary_reduce_q1_first_chart():
    frame, ops = ex3_frame()
    omega_bound, omega0 = 2.0, 1.0
    b1, b2, j_val = 0.5, -0.3, 0.7
    b3 = np.sqrt(omega_bound ** 2 - b1 ** 2 - b2 ** 2 - j_val ** 2)
    u = np.array([b1, b2, b3, j_val])
    chart = sg.ControlChart(frame, u=u)
    red = sg.boundary_reduce(chart, np.eye(4), 2)
    f1, f2, f4 = 0.11, 0.23, 0.41
    f = singular_costate_ex3(f1, f2, f4)
    h = omega0 * ops["Sigma_x_tilde"] + b1 * ops["S1"] + b2 * ops["S2"] \
        + b3 * ops["S3"] + j_val * ops["Sigma_z_tilde"]
    q1 = sg.glc_matrices(red, h, f, 1)[0]
    root8 = 4 * np.sqrt(2)
    assert q1[0, 2] == pytest.approx(-root8 * f2, abs=1e-10)
    assert q1[1, 2] == pytest.approx(root8 * f1, abs=1e-10)


def test_boundary_reduce_q1_second_chart():
    frame, ops = ex3_frame()
    omega_bound, omega0 = 2.0, 1.0
    b2, j_val = 0.4, 0.6
    b1 = np.sqrt(omega_bound ** 2 - b2 ** 2 - j_val ** 2)
    u = np.array([b1, b2, 0.0, j_val])
    chart = sg.ControlChart(frame, u=u)
    red = sg.boundary_reduce(chart, np.eye(4), 0)
    f1, f2, f4 = 0.11, 0.23, 0.41
    f = singular_costate_ex3(f1, f2, f4)
    h = omega0 * ops["Sigma_x_tilde"] + b1 * ops["S1"] + b2 * ops["S2"] \
        + j_val * ops["Sigma_z_tilde"]
    q1 = sg.glc_matrices(red, h, f, 1)[0]
    assert q1[0, 2] == pytest.approx(4 * np.sqrt(2) * (b2 * f2 / b1 + f1),
                                     abs=1e-10)


def test_boundary_reduce_trivial_when_point_on_axis():
    frame, ops = ex3_frame()
    u = np.array([0.0, 0.0, 0.0, 2.0])
    chart = sg.ControlChart(frame, u=u)
    red = sg.boundary_reduce(chart, np.eye(4), 3)
    for got, want in zip(red.partials, frame[:3]):
        np.testing.assert_allclose(got, want, atol=1e-14)


def test_boundary_reduce_rejects_vanishing_coordinate():
    frame, _ = ex3_frame()
    chart = sg.ControlChart(frame, u=np.array([2.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ImplicitFunctionError):
        sg.boundary_reduce(chart, np.eye(4), 2)


# --- reparametrization invariance --------------------------------------------------

def test_reparametrization_identity_jacobian():
    frame, ops = ex3_frame()
    chart = sg.ControlChart(frame)
    f = singular_costate_ex3(0.1, 0.2, 0.5)
    h = ops["Sigma_x_tilde"] + 0.3 * ops["Sigma_z_tilde"]
    assert sg.reparametrization_check(chart, chart, np.eye(4), h, f)


def test_reparametrization_random_congruence():
    frame, ops = ex3_frame()
    rng = np.random.default_rng(77)
    f = singular_costate_ex3(0.13, -0.4, 0.6)
    h = ops["Sigma_x_tilde"] + 0.25 * ops["Sigma_z_tilde"] + 0.1 * ops["S2"]
    for _ in range(50):
        jac = rng.standard_normal((4, 4))
        while abs(np.linalg.det(jac)) < 0.1:
            jac = rng.standard_normal((4, 4))
        # chart_a partials: h_i(u) = sum_k J[k, i] h_k(v)
        partials_a = tuple(
            sum(jac[k, i] * frame[k] for k in range(4)) for i in range(4))
        chart_a = sg.ControlChart(partials_a)
        chart_b = sg.ControlChart(frame)
        assert sg.reparametrization_check(chart_a, chart_b, jac, h, f)


def test_reparametrization_permutation():
    frame, ops = ex3_frame()
    perm = np.eye(4)[[2, 0, 3, 1]]
    partials_a = tuple(
        sum(perm[k, i] * frame[k] for k in range(4)) for i in range(4))
    f = singular_costate_ex3(0.3, 0.1, 0.5)
    h = ops["Sigma_x_tilde"] + 0.2 * ops["Sigma_z_tilde"]
    assert sg.reparametrization_check(
        sg.ControlChart(partials_a), sg.ControlChart(frame), perm, h, f)


def test_reparametrization_rejects_singular_jacobian():
    chart = sg.ControlChart((SIGMA_X, SIGMA_Y))
    with pytest.raises(ValidationError):
        sg.reparametrization_check(chart, chart, np.zeros((2, 2)),
                                   0.3 * SIGMA_Z, SIGMA_Z / 2)


# --- structural claims ---------------------------------------------------------------

def test_bracket_obstruction_cases():
    xy = cm.ConstraintSet(2, 0.3 * SIGMA_Z, (SIGMA_X, SIGMA_Y), cm.Typical(1.0))
    assert sg.bracket_obstruction(xy) is True
    lz = cm.ConstraintSet(2, 0.3 * SIGMA_Z, (SIGMA_X,),
                          cm.Box(np.array([-1.0]), np.array([1.0])))
    assert sg.bracket_obstruction(lz) is False
    frame, ops = ex3_frame()
    ex3 = cm.ConstraintSet(3, ops["Sigma_x_tilde"], frame,
                           BallInCoords(2.0, np.eye(4)))
    assert sg.bracket_obstruction(ex3) is False


@pytest.mark.parametrize("n, l", [(2, 2), (3, 2), (3, 3)])
def test_bracket_predicates_on_random_frames(n, l):
    # independent oracle: an orthonormal basis of the bracket span from a QR
    # of the Gell-Mann coefficient rows of all -i[c_i, c_j]
    rng = np.random.default_rng(60 + 10 * n + l)
    basis = generalized_gellmann(n)
    for _ in range(20):
        frame = tuple(random_traceless_hermitian(rng, n) for _ in range(l))
        brackets = [-1j * (a @ b - b @ a)
                    for i, a in enumerate(frame) for b in frame[i + 1:]]
        q, _ = np.linalg.qr(np.stack([expand(b, basis) for b in brackets]).T)
        inside = sum(rng.standard_normal() * b for b in brackets)
        x = rng.standard_normal(len(basis))
        x -= q @ (q.T @ x)
        outside = inside + sum(
            xa * tau for xa, tau in zip(x / np.linalg.norm(x), basis))
        for drift, want in ((inside, True), (outside, False)):
            c = cm.ConstraintSet(n, drift, frame, cm.Box(-np.ones(l), np.ones(l)))
            assert cm.classify(c).drift_in_bracket is want
            assert sg.bracket_obstruction(c) is want


def test_lollipop_singular_normalization_infeasible():
    rng = np.random.default_rng(101)
    from toqc.constraint_model import _orthonormalize
    for _ in range(10):
        n = rng.choice([2, 3])
        l = rng.integers(1, n * n - 1)
        frame = _orthonormalize(np.stack(
            [random_traceless_hermitian(rng, n) for _ in range(l)]))
        weights = rng.standard_normal(len(frame))
        drift = np.einsum("j,jab->ab", weights, frame)  # drift inside the span
        c = cm.ConstraintSet(int(n), drift, tuple(frame), cm.Typical(1.0))
        assert cm.classify(c).type_label == "lollipop"
        assert sg.normalized_singular_costate(c) is None


def test_lotus_leaf_admits_normalized_singular_costate():
    lz = cm.ConstraintSet(2, 0.8 * SIGMA_Z, (SIGMA_X,),
                          cm.Box(np.array([-1.0]), np.array([1.0])))
    f = sg.normalized_singular_costate(lz)
    assert f is not None
    assert abs(np.trace(lz.drift @ f).real - 1.0) < 1e-10
    assert cm.is_singular(f, lz)


def lstsq_singular_costate(c):
    """The minimal-norm normalized singular costate by least squares, with a
    1e-8 residual bar for feasibility (test oracle)."""
    basis = generalized_gellmann(c.dim)
    a = np.stack([2.0 * expand(m, basis) for m in (*c.control_basis, c.drift)])
    b = np.zeros(len(a))
    b[-1] = 1.0
    coeffs, *_ = np.linalg.lstsq(a, b, rcond=None)
    if np.linalg.norm(a @ coeffs - b) > 1e-8:
        return None
    return sum(x * tau for x, tau in zip(coeffs, basis))


def test_normalized_singular_costate_is_the_minimal_norm_solution():
    rng = np.random.default_rng(211)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        l = int(rng.integers(1, n * n - 1))
        frame = tuple(random_traceless_hermitian(rng, n) for _ in range(l))
        c = cm.ConstraintSet(n, random_traceless_hermitian(rng, n), frame,
                             cm.Box(-np.ones(l), np.ones(l)))
        assert cm.classify(c).type_label == "lotus_leaf"
        f = sg.normalized_singular_costate(c)
        for cj in c.control_basis:
            assert abs(np.trace(cj @ f)) < 1e-12
        assert abs(np.trace(c.drift @ f) - 1.0) < 1e-12
        assert cm.is_singular(f, c)
        np.testing.assert_allclose(f, lstsq_singular_costate(c), rtol=0, atol=1e-12)
        # lollipop: the drift inside the span admits no normalized costate
        lolli = cm.ConstraintSet(n, sum(rng.standard_normal() * x for x in frame),
                                 frame, cm.Box(-np.ones(l), np.ones(l)))
        assert sg.normalized_singular_costate(lolli) is None
        assert lstsq_singular_costate(lolli) is None


def test_symmetry_note_measures_the_law():
    # the law is Q^(m) = (-1)^m Q^(m)^T; the note used to add up
    # max |Q + (-1)^m Q^T|, which flags every symmetric even order.  At a
    # point of an su(3) chart where Q^(1)(F) = 0 but not along an arc, Q^(2)
    # is not symmetric, and the note gives max |Q^(2) - Q^(2)^T|
    lam = gellmann_basis()
    basis = generalized_gellmann(3)
    chart = sg.ControlChart((lam[0], lam[3]))
    rng = np.random.default_rng(0)
    h = random_traceless_hermitian(rng, 3)
    coeffs = expand(random_traceless_hermitian(rng, 3), basis)
    bracket = expand(commutator(lam[0], lam[3]), basis)
    coeffs -= (coeffs @ bracket) / (bracket @ bracket) * bracket
    rep = sg.glc_test(chart, h, reconstruct(coeffs, basis))
    assert np.max(np.abs(rep.matrices[0])) < 1e-12
    assert rep.order == 2
    q2 = rep.matrices[1]
    antisym = float(np.max(np.abs(q2 - q2.T)))
    assert antisym > 1.0
    assert rep.notes == (f"symmetry law violated by {antisym:.3e}",)


def test_symmetric_even_order_carries_no_symmetry_note():
    # the exchange-saturated boundary piece closes at a diagonal Q^(2)
    from toqc.arc_analysis import boundary_closure_study
    from toqc.scenarios import get_scenario
    sc = get_scenario("symmetric_two_qubit")
    case = next(c for c in sc.boundary_cases if c.name == "J")
    rep = boundary_closure_study(sc.constraint, case)
    q2 = rep.matrices[rep.order - 1]
    assert rep.order == 2 and np.array_equal(q2, np.diag(np.diag(q2)))
    assert not any("symmetry" in note for note in rep.notes)
