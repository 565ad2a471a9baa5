import numpy as np
import pytest

from toqc import constraint_model as cm
from toqc import dynamics as dyn
from toqc import scenarios as sc
from toqc.errors import ValidationError
from toqc.sun_algebra import SIGMA_Z, exp_op, gellmann_basis


# --- operator tables -----------------------------------------------------------

def test_triplet_operator_matrices_entrywise():
    ops = sc.triplet_operators()
    np.testing.assert_allclose(
        ops["Sigma_x"], [[0, 0, 1], [0, 1, 0], [1, 0, 0]], atol=1e-15)
    np.testing.assert_allclose(ops["Sigma_z"], np.diag([1, -1, 1]), atol=1e-15)
    np.testing.assert_allclose(
        ops["S1"], np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / np.sqrt(2),
        atol=1e-15)
    np.testing.assert_allclose(
        ops["S2"],
        np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]]) / np.sqrt(2),
        atol=1e-15)
    np.testing.assert_allclose(ops["S3"], np.diag([1, 0, -1]), atol=1e-15)


def test_triplet_gellmann_expansions_entrywise():
    ops = sc.triplet_operators()
    gm = gellmann_basis()
    np.testing.assert_allclose(
        ops["Sigma_x_tilde"], gm[3] - gm[2] / 2 + gm[7] / (2 * np.sqrt(3)),
        atol=1e-14)
    np.testing.assert_allclose(
        ops["Sigma_z_tilde"], gm[2] - gm[7] / np.sqrt(3), atol=1e-14)
    np.testing.assert_allclose(ops["S1"], (gm[0] + gm[5]) / np.sqrt(2), atol=1e-14)
    np.testing.assert_allclose(ops["S2"], (gm[1] + gm[6]) / np.sqrt(2), atol=1e-14)
    np.testing.assert_allclose(ops["S3"], (gm[2] + np.sqrt(3) * gm[7]) / 2,
                               atol=1e-14)


def test_triplet_commutation_facts():
    ops = sc.triplet_operators()
    com = (ops["Sigma_z_tilde"] @ ops["Sigma_x_tilde"]
           - ops["Sigma_x_tilde"] @ ops["Sigma_z_tilde"])
    assert np.max(np.abs(com)) < 1e-12
    com2 = ops["S3"] @ ops["Sigma_x_tilde"] - ops["Sigma_x_tilde"] @ ops["S3"]
    assert np.max(np.abs(com2)) > 0.1  # nondegeneracy guard


def test_control_subspace_span_form():
    # span{S1, S2, S3, Sigma~z} = span{l1+l6, l2+l7, l3, l8}
    gm = gellmann_basis()
    ops = sc.triplet_operators()
    from conftest import orthonormalize
    a = orthonormalize([ops["S1"], ops["S2"], ops["S3"], ops["Sigma_z_tilde"]])
    b = orthonormalize([gm[0] + gm[5], gm[1] + gm[6], gm[2], gm[7]])
    from toqc.sun_algebra import hs_norm, inner
    for x in b:
        assert hs_norm(x - sum(inner(x, y) * y for y in a)) < 1e-12
    for x in a:
        assert hs_norm(x - sum(inner(x, y) * y for y in b)) < 1e-12


# --- scenario construction -------------------------------------------------------

def test_landau_zener_reference_facts():
    s = sc.landau_zener(1.0, 2.0)
    rep = cm.classify(s.constraint)
    assert rep.type_label == s.reference_facts["type_label"]
    assert rep.planar == s.reference_facts["planar"]
    assert rep.typical == s.reference_facts["typical"]
    assert rep.drift_in_bracket == s.reference_facts["drift_in_bracket"]
    assert rep.drift_in_bracket == s.reference_facts["bracket_obstruction"]


def test_landau_zener_drift_axis_target_runs_on_off_arc():
    # the drift-axis target is reached by the singular off protocol
    omega0 = 1.0
    s = sc.landau_zener(omega0, 2.0)
    alpha = np.pi / 4
    target = exp_op(SIGMA_Z, alpha)
    t_final = alpha / omega0
    grid = np.linspace(0, t_final, 65)
    p = dyn.Protocol(s.constraint, grid, np.zeros((64, 1)))
    traj = dyn.evolve_unitary(p)
    assert dyn.boundary_residual(traj, target).exact < 1e-12


def test_one_qubit_xy_reference_facts():
    s = sc.one_qubit_xy(0.3, 1.0)
    rep = cm.classify(s.constraint)
    assert rep.type_label == "lotus_leaf" and rep.typical
    assert rep.drift_in_bracket is True


def test_symmetric_two_qubit_requires_parameter_order():
    with pytest.raises(ValidationError):
        sc.symmetric_two_qubit(2.0, 1.0)
    with pytest.raises(ValidationError):
        sc.landau_zener(-1.0, 1.0)



@pytest.mark.parametrize("name", ["landau_zener", "one_qubit_xy"])
@pytest.mark.parametrize("param", ["omega0", "Omega"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_scenario_parameters_must_be_finite(name, param, value):
    # NaN passed the old "<= 0" checks and gave a NaN drift or bound
    with pytest.raises(ValidationError, match="finite"):
        sc.get_scenario(name, **{param: value})

def test_symmetric_two_qubit_canonical_target_cost():
    s = sc.symmetric_two_qubit(1.0, 2.0)
    ops = sc.triplet_operators()
    alpha = 0.9
    target = exp_op(ops["Sigma_x_tilde"], alpha)
    # the drift-only protocol reaches it in alpha / omega0
    t_final = alpha / 1.0
    grid = np.linspace(0, t_final, 129)
    p = dyn.Protocol(s.constraint, grid, np.zeros((128, 4)))
    traj = dyn.evolve_unitary(p)
    assert dyn.boundary_residual(traj, target).exact < 1e-11


def test_typical_qutrit_variant_metric():
    s = sc.symmetric_two_qubit(1.0, 2.0, typical_qutrit=True)
    np.testing.assert_allclose(np.diag(s.constraint.kind.metric),
                               [1.0, 1.0, 1.0, 8.0 / 3.0])


def test_get_scenario_unknown_name():
    with pytest.raises(ValidationError):
        sc.get_scenario("nope")


# --- singular replacement ---------------------------------------------------------

def test_replacement_constant_arc():
    grid = np.linspace(0.0, 1.0, 201)
    out = sc.singular_replacement(grid, np.full(201, 1.0), Omega=2.0)
    assert out["t3"] == pytest.approx(0.5, abs=1e-12)


def test_replacement_zero_arc():
    grid = np.linspace(0.0, 1.0, 101)
    out = sc.singular_replacement(grid, np.zeros(101), Omega=2.0)
    assert out["t3"] == pytest.approx(0.0, abs=1e-14)


def test_replacement_oscillating_arc_quadrature_and_unitary():
    omega0, omega_bound = 1.0, 2.0
    s = sc.symmetric_two_qubit(omega0, omega_bound)
    ops = sc.triplet_operators()
    grid = np.linspace(0.0, 1.0, 4097)
    j_arc = omega0 * np.sin(np.pi * grid) ** 2
    out = sc.singular_replacement(grid, j_arc, Omega=omega_bound)
    assert out["t3"] == pytest.approx(omega0 / (2 * omega_bound), abs=1e-10)

    # endpoint unitary of the original arc (via propagation) vs the
    # two-piece replacement (exact product of two exponentials)
    def controls_at(t):
        return np.array([0.0, 0.0, 0.0, omega0 * np.sin(np.pi * t) ** 2])

    p = dyn.protocol_from_function(s.constraint, grid, controls_at,
                                   sampling="midpoint")
    u_arc = dyn.evolve_unitary(p).final_unitary
    t3 = out["t3"]
    u_rep = exp_op(omega0 * ops["Sigma_x_tilde"], 1.0 - t3) @ (
        exp_op(omega0 * ops["Sigma_x_tilde"] + omega_bound * ops["Sigma_z_tilde"], t3))
    assert np.max(np.abs(u_rep - u_arc)) < 1e-8


def test_replacement_rejects_infeasible_arcs():
    grid = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ValidationError):
        sc.singular_replacement(grid, np.full(11, 2.5), Omega=2.0)
    with pytest.raises(ValidationError):
        sc.singular_replacement(grid, -np.ones(11), Omega=2.0)


def test_replacement_rejects_non_finite_input():
    # NaN samples or a NaN bound used to give t3 = NaN, and Omega = inf a
    # zero-length bang piece with J = inf
    grid = np.linspace(0.0, 1.0, 11)
    j = np.full(11, 0.5)
    bad_j, bad_grid = j.copy(), grid.copy()
    bad_j[3] = bad_grid[3] = np.nan
    for args in ((grid, j, np.nan), (grid, j, np.inf), (grid, bad_j, 1.0),
                 (bad_grid, j, 1.0)):
        with pytest.raises(ValidationError, match="finite"):
            sc.singular_replacement(*args)
