import numpy as np
import pytest

from toqc import brachistochrone as br
from toqc import dynamics as dyn
from toqc.constraint_model import ConstraintSet, Typical, maximizer
from toqc.errors import DimensionMismatchError, ValidationError
from toqc.scenarios import one_qubit_xy
from toqc.sun_algebra import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    dagger,
    exp_op,
    generalized_gellmann,
    hs_norm,
    inner,
    log_op,
    random_special_unitary,
    random_traceless_hermitian,
)

RNG = np.random.default_rng(61)


def full_su2(omega0=0.0, bound=1.0):
    drift = omega0 * SIGMA_Z
    return ConstraintSet(2, drift, tuple(generalized_gellmann(2)), Typical(bound))


FAST = br.ShootingOptions(grid_points=64, multistarts=16, seed=0,
                          stop_after_converged=3, refine_points=2048)


# --- geodesics -----------------------------------------------------------------

def test_geodesic_pauli_example():
    out = br.drift_free_geodesic(exp_op(SIGMA_X, np.pi / 4), omega=1.0)
    np.testing.assert_allclose(out["H"], SIGMA_X, atol=1e-12)
    assert out["T"] == pytest.approx(np.pi / 4)


def test_geodesic_identity_target():
    out = br.drift_free_geodesic(np.eye(2, dtype=complex), omega=1.0)
    assert out["T"] == 0.0
    assert np.max(np.abs(out["H"])) == 0.0


def test_geodesic_roundtrip_su3():
    rng = np.random.default_rng(5)
    for _ in range(10):
        target = random_special_unitary(rng, 3)
        out = br.drift_free_geodesic(target, omega=2.0)
        np.testing.assert_allclose(exp_op(out["H"], out["T"]), target, atol=1e-10)
        hc = out["H"]
        assert abs(0.5 * np.trace(hc @ hc).real - 4.0) < 1e-10


def test_geodesic_time_invariant_under_conjugation():
    rng = np.random.default_rng(6)
    for _ in range(10):
        target = random_special_unitary(rng, 2)
        v = random_special_unitary(rng, 2)
        t_a = br.drift_free_geodesic(target, 1.0)["T"]
        t_b = br.drift_free_geodesic(v @ target @ dagger(v), 1.0)["T"]
        assert t_a == pytest.approx(t_b, abs=1e-10)


# --- navigation closed form ------------------------------------------------------

def test_zermelo_solution_t0_and_commuting():
    drift = 0.4 * SIGMA_Z
    hc0 = 0.8 * SIGMA_X
    out = br.zermelo_solution(drift, hc0, 0.0)
    np.testing.assert_allclose(out["H_t"], drift + hc0, atol=1e-14)
    np.testing.assert_allclose(out["U_t"], np.eye(2), atol=1e-14)
    # commuting drift and control: H constant, U = exp of the sum
    out = br.zermelo_solution(drift, 0.8 * SIGMA_Z, 1.3)
    np.testing.assert_allclose(out["H_t"], drift + 0.8 * SIGMA_Z, atol=1e-12)
    np.testing.assert_allclose(out["U_t"], exp_op(drift + 0.8 * SIGMA_Z, 1.3),
                               atol=1e-12)


def test_zermelo_solution_control_norm_constant():
    drift = 0.4 * SIGMA_Z
    hc0 = 0.8 * SIGMA_X + 0.1 * SIGMA_Y
    norms = [hs_norm(br.zermelo_solution(drift, hc0, t)["H_t"] - drift)
             for t in np.linspace(0, 5, 11)]
    np.testing.assert_allclose(norms, norms[0], atol=1e-12)


def test_zermelo_solution_matches_dense_propagation():
    omega0, bound = 0.3, 1.0
    drift = omega0 * SIGMA_Z
    hc0 = bound * SIGMA_X
    t_final = 2.0
    c = full_su2(omega0, bound)

    def controls_at(t):
        hc = br.zermelo_solution(drift, hc0, t)["H_t"] - drift
        return np.array([0.5 * np.trace(hc @ b).real for b in c.control_basis])

    grid = np.linspace(0, t_final, 2049)
    p = dyn.protocol_from_function(c, grid, controls_at, sampling="midpoint")
    u_num = dyn.evolve_unitary(p).final_unitary
    u_exact = br.zermelo_solution(drift, hc0, t_final)["U_t"]
    traj = dyn.evolve_unitary(p)
    assert dyn.boundary_residual(traj, u_exact).fidelity < 1e-8


def test_zermelo_solve_drift_free_reduces_to_geodesic():
    target = exp_op(SIGMA_Y, np.pi / 3)
    res = br.zermelo_solve(np.zeros((2, 2), complex), 1.0, target)
    geo = br.drift_free_geodesic(target, 1.0)
    assert res.converged
    assert res.T == pytest.approx(geo["T"], rel=1e-9)


def test_zermelo_solve_manufactured_instance():
    omega0, bound, t_true = 0.3, 1.0, 1.3
    drift = omega0 * SIGMA_Z
    target = exp_op(drift, t_true) @ exp_op(bound * SIGMA_X, t_true)
    res = br.zermelo_solve(drift, bound, target)
    assert res.converged
    assert res.T == pytest.approx(t_true, abs=1e-8)
    # recovered initial control
    hc0 = res.costate0 / (0.5 * np.trace(res.costate0 @ res.costate0).real) \
        if False else None
    u0 = res.protocol.controls[0]
    hc_rec = sum(u * b for u, b in
                 zip(u0, res.protocol.constraint.control_basis))
    # midpoint sampling: compare at the first midpoint
    t_mid = 0.5 * (res.protocol.grid[0] + res.protocol.grid[1])
    hc_expected = br.zermelo_solution(drift, bound * SIGMA_X, t_mid)["H_t"] - drift
    np.testing.assert_allclose(hc_rec, hc_expected, atol=1e-6)


def test_zermelo_rebuild_matches_callback_path():
    # a random drift, a degenerate one (eigenvectors not unique) and none
    rng = np.random.default_rng(62)
    random_drift = random_traceless_hermitian(rng, 3)
    random_drift *= 0.3 / hs_norm(random_drift)
    target = random_special_unitary(rng, 3)
    for drift in (random_drift, 0.1 * np.diag([1.0, 1.0, -2.0]).astype(complex),
                  np.zeros((3, 3), complex)):
        res = br.zermelo_solve(drift, 1.0, target,
                               br.ShootingOptions(refine_points=4096))
        assert res.converged
        hc0 = log_op(exp_op(drift, -res.T) @ target) / res.T
        basis = res.protocol.constraint.control_basis

        def controls_at(t):
            frame = exp_op(drift, t)
            hc = frame @ hc0 @ dagger(frame)
            return np.array([inner(hc, b) for b in basis])

        ref = dyn.protocol_from_function(res.protocol.constraint,
                                         res.protocol.grid, controls_at,
                                         sampling="midpoint")
        np.testing.assert_allclose(res.protocol.controls, ref.controls,
                                   rtol=0, atol=1e-12)


def test_zermelo_solve_identity_target():
    for target in (np.eye(2, dtype=complex), exp_op(SIGMA_Z, 1e-11)):
        res = br.zermelo_solve(0.3 * SIGMA_Z, 1.0, target)
        assert res.converged and res.T == 0.0


def test_solvers_validate_the_target():
    scaled = 1.5 * random_special_unitary(np.random.default_rng(0), 2)
    for target, error in ((scaled, ValidationError),
                          (np.eye(3, dtype=complex), DimensionMismatchError)):
        with pytest.raises(error):
            br.zermelo_solve(0.3 * SIGMA_Z, 1.0, target)
        with pytest.raises(error):
            br.solve_shooting(br.ShootingProblem(full_su2(0.3), target, FAST))


def test_zermelo_monotonic_in_bound():
    omega0 = 0.3
    drift = omega0 * SIGMA_Z
    rng = np.random.default_rng(12)
    target = random_special_unitary(rng, 2)
    times = [br.zermelo_solve(drift, om, target).T for om in (0.8, 1.0, 1.3)]
    assert times[0] >= times[1] >= times[2]


def test_zermelo_audit_passes():
    omega0, bound = 0.3, 1.0
    drift = omega0 * SIGMA_Z
    rng = np.random.default_rng(13)
    res = br.zermelo_solve(drift, bound, random_special_unitary(rng, 2))
    audit = br.qb_consistency_audit(res, samples=32, seed=1)
    assert audit.max_condition_violation < 1e-8
    assert audit.normalization_drift < 1e-8
    assert audit.costate_flow_violation < 1e-12


def test_audit_flags_perturbed_control():
    # deliberately corrupt the control on a cell: the maximum condition
    # must report a violation there
    omega0, bound = 0.3, 1.0
    drift = omega0 * SIGMA_Z
    res = br.zermelo_solve(drift, bound, exp_op(SIGMA_X, 1.0))
    p = res.protocol
    controls = p.controls.copy()
    controls[len(controls) // 2] *= -1.0   # flip the control direction
    bad = dyn.Protocol(p.constraint, p.grid, controls)
    traj = dyn.evolve_costate(res.costate0, dyn.evolve_unitary(bad))
    from dataclasses import replace
    bad_res = replace(res, protocol=bad, trajectory=traj)
    audit = br.qb_consistency_audit(bad_res, samples=64, seed=2)
    assert audit.max_condition_violation > 0.1


# --- interaction picture -----------------------------------------------------------

def test_reduce_full_subspace():
    out = br.interaction_picture_reduce(full_su2(omega0=0.7, bound=1.0))
    assert out["reducible"]
    assert np.max(np.abs(out["reduced"].drift)) == 0.0


def test_reduce_rejects_partial_subspace():
    c = one_qubit_xy(0.3, 1.0).constraint
    # conjugation by the z drift rotates within span{sx, sy}: invariant
    out = br.interaction_picture_reduce(c)
    assert out["reducible"]
    # an x-only subspace rotates out of itself
    c2 = ConstraintSet(2, 0.3 * SIGMA_Z, (SIGMA_X,), Typical(1.0))
    out2 = br.interaction_picture_reduce(c2)
    assert not out2["reducible"]


def test_reduce_ad_invariant_subspace():
    # control span closed under commutation with the drift
    c = ConstraintSet(2, 0.5 * SIGMA_Z, (SIGMA_Z,), Typical(1.0))
    assert br.interaction_picture_reduce(c)["reducible"]


def test_reduce_box_kind_not_reducible():
    from toqc.constraint_model import Box
    c = ConstraintSet(2, 0.5 * SIGMA_Z, (SIGMA_X,),
                      Box(np.array([-1.0]), np.array([1.0])))
    assert not br.interaction_picture_reduce(c)["reducible"]


# --- shooting ------------------------------------------------------------------

def test_shooting_drift_free_constant_control():
    target = exp_op(SIGMA_Y, np.pi / 3)
    res = br.solve_shooting(br.ShootingProblem(full_su2(), target, FAST))
    assert res.converged
    assert res.residual < 1e-6
    assert res.T == pytest.approx(np.pi / 3, rel=1e-3)
    assert np.max(np.ptp(res.protocol.controls, axis=0)) < 1e-4


def test_shooting_identity_target():
    for target in (np.eye(2, dtype=complex), exp_op(SIGMA_Z, 1e-11)):
        res = br.solve_shooting(br.ShootingProblem(full_su2(), target, FAST))
        assert res.converged and res.T == 0.0


def test_shooting_matches_zermelo_oracle():
    omega0, bound = 0.3, 1.0
    c = full_su2(omega0, bound)
    rng = np.random.default_rng(21)
    target = random_special_unitary(rng, 2)
    z = br.zermelo_solve(omega0 * SIGMA_Z, bound, target)
    s = br.solve_shooting(br.ShootingProblem(c, target, FAST))
    assert s.converged
    assert s.residual < 1e-6
    assert abs(s.T - z.T) / z.T < 1e-3


def test_shooting_manufactured_partial_subspace():
    # forward-simulate a maximizer-consistent extremal on the transverse
    # constraint, then recover it by shooting
    sc = one_qubit_xy(0.5, 1.0)
    c = sc.constraint
    basis = generalized_gellmann(2)
    rng = np.random.default_rng(3)
    from toqc.brachistochrone import _coupled_flow, _normalize_seed
    from toqc.sun_algebra import reconstruct
    f0 = _normalize_seed(c, reconstruct(rng.standard_normal(3), basis))
    t_true = 1.1
    u_end, *_ = _coupled_flow(c, f0, t_true, 4096)
    prob = br.ShootingProblem(c, u_end, br.ShootingOptions(
        grid_points=96, multistarts=24, seed=5, stop_after_converged=4,
        refine_points=4096))
    res = br.solve_shooting(prob)
    assert res.converged
    assert res.residual < 1e-6
    assert res.T == pytest.approx(t_true, abs=2e-3)


def test_shooting_conservation_on_converged_results():
    res = br.solve_shooting(br.ShootingProblem(
        full_su2(0.3, 1.0), exp_op(SIGMA_X + 0.4 * SIGMA_Z, 0.9), FAST))
    assert res.converged
    assert res.conservation.hf_drift < 1e-8
    assert res.conservation.f2_drift < 1e-12
    assert res.conservation.unitarity_drift < 1e-10


def test_shooting_control_saturation_typical():
    res = br.solve_shooting(br.ShootingProblem(
        full_su2(0.3, 1.0), exp_op(SIGMA_X + SIGMA_Y, 0.8), FAST))
    assert res.converged
    c = res.protocol.constraint
    stack = np.stack(c.control_basis)
    for u in res.protocol.controls[:: 97]:
        hc = np.einsum("j,jab->ab", u, stack)
        assert abs(0.5 * np.trace(hc @ hc).real - 1.0) < 1e-8


def test_shooting_singular_hold_mechanism():
    # a costate orthogonal to the control subspace keeps the maximizer
    # singular along the whole flow; the hold rule then runs pure drift
    from toqc.brachistochrone import _coupled_flow
    from toqc.constraint_model import Box
    c = ConstraintSet(2, 0.8 * SIGMA_Z, (SIGMA_X,),
                      Box(np.array([-1.0]), np.array([1.0])))
    f0 = SIGMA_Z / (2 * 0.8)
    u_end, _, _, controls, singular_cells = _coupled_flow(
        c, f0, 1.0, 64, record=True)
    assert len(singular_cells) == 64
    np.testing.assert_allclose(controls, 0.0, atol=1e-14)
    np.testing.assert_allclose(u_end, exp_op(0.8 * SIGMA_Z, 1.0), atol=1e-10)


def test_solve_result_json_roundtrippable():
    import json
    res = br.solve_shooting(br.ShootingProblem(full_su2(), exp_op(SIGMA_X, 0.7),
                                               FAST))
    text = json.dumps(res.as_dict(), sort_keys=True)
    data = json.loads(text)
    assert data["converged"] is True
    assert len(data["protocol"]["grid"]) == len(data["protocol"]["controls"]) + 1


def test_shooting_never_reports_singular_arcs_on_lollipop():
    # lollipop constraints admit no normalized singular costate, so a
    # converged solve must contain no singular cells
    c = ConstraintSet(2, 0.4 * SIGMA_X, (SIGMA_X, SIGMA_Y), Typical(1.0))
    from toqc.constraint_model import classify
    assert classify(c).type_label == "lollipop"
    res = br.solve_shooting(br.ShootingProblem(
        c, exp_op(0.5 * SIGMA_X + 0.3 * SIGMA_Y, 1.0), FAST))
    assert res.converged
    assert res.singular_intervals == ()


def test_audit_geodesic_with_proportional_costate():
    # a geodesic run audits clean with F = H / tr[H^2]
    target = exp_op(0.6 * SIGMA_X + 0.8 * SIGMA_Z, 1.0)
    geo = br.drift_free_geodesic(target, omega=1.0)
    c = full_su2(0.0, 1.0)
    grid = np.linspace(0.0, geo["T"], 513)
    u = np.array([0.5 * np.trace(geo["H"] @ b).real for b in c.control_basis])
    p = dyn.Protocol(c, grid, np.tile(u, (512, 1)))
    f0 = geo["H"] / np.trace(geo["H"] @ geo["H"]).real
    traj = dyn.evolve_costate(f0, dyn.evolve_unitary(p))
    res = br.SolveResult(
        converged=True, T=geo["T"], residual=0.0, exact_residual=0.0,
        protocol=p, trajectory=traj, costate0=f0,
        conservation=dyn.conservation_report(traj), singular_intervals=(),
        seed=0, n_starts=1)
    audit = br.qb_consistency_audit(res, samples=64, seed=3)
    assert audit.max_condition_violation < 1e-8
    assert audit.normalization_drift < 1e-10
    assert audit.costate_flow_violation < 1e-12


# --- multistart: each extremal is polished once ------------------------------

def _test_04_target(draw: int) -> np.ndarray:
    """The ``draw``-th SU(2) target of the navigation-oracle acceptance test."""
    rng = np.random.default_rng(4)
    for _ in range(draw):
        random_special_unitary(rng, 2)
    return random_special_unitary(rng, 2)


def test_shooting_polishes_a_repeated_extremal_once(monkeypatch):
    # all three converged starts of this target land on one extremal: each
    # runs its coarse sweep, and only the first runs the fine polish
    calls = []
    original = br.least_squares

    def counting(*args, **kwargs):
        calls.append(kwargs["xtol"])
        return original(*args, **kwargs)

    monkeypatch.setattr(br, "least_squares", counting)
    opts = br.ShootingOptions(grid_points=96, multistarts=32, seed=40,
                              stop_after_converged=3, refine_points=512)
    res = br.solve_shooting(br.ShootingProblem(
        full_su2(0.3, 1.0), _test_04_target(0), opts))
    assert res.converged and res.n_starts == 3
    assert len(res.extremal_times) == 1
    coarse = max(calls)
    assert len(calls) == 4
    assert calls.count(coarse) == 3


def test_shooting_keeps_distinct_extremals():
    # two of the three converged starts find the shorter extremal, one the
    # longer; the repeated one reuses the polish, the other is polished
    opts = br.ShootingOptions(grid_points=96, multistarts=32, seed=862785227,
                              stop_after_converged=3, residual_tol=1e-6,
                              refine_points=512)
    res = br.solve_shooting(br.ShootingProblem(
        full_su2(0.3, 1.0), _test_04_target(9), opts))
    assert res.converged
    assert res.extremal_times == (1.953157, 3.98413)
    assert res.n_starts == 3
