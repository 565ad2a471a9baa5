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
    expand,
    generalized_gellmann,
    hs_norm,
    inner,
    log_op,
    random_special_unitary,
    random_traceless_hermitian,
    reconstruct,
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


@pytest.mark.parametrize("omega", [0.0, -1.0, np.nan, np.inf, -np.inf])
def test_geodesic_and_navigation_refuse_a_bad_omega(omega):
    # NaN used to give a NaN Hamiltonian and T = nan, inf a NaN H and T = 0
    target = exp_op(SIGMA_X, 0.7)
    with pytest.raises(ValidationError, match="omega"):
        br.drift_free_geodesic(target, omega)
    with pytest.raises(ValidationError, match="omega"):
        br.zermelo_solve(0.3 * SIGMA_Z, omega, target)


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


def _scan_samples(drift, omega, target):
    l0 = br._target_log_norm(target)
    t_max = (l0 + 2.0 * np.pi) / max(omega - hs_norm(drift), omega / 8.0)
    return np.linspace(t_max / 4096, t_max, 4096)


def _full_scan_root(drift, omega, target):
    # reference: the root scan as one 4096-sample stack, then Brent's method
    # on its first sign change; None when no sample pair brackets a root
    from scipy.optimize import brentq

    def g(ts):
        return br.log_norms(exp_op(drift, -ts) @ target) - omega * ts

    ts = _scan_samples(drift, omega, target)
    gs = g(ts)
    prev = np.concatenate([[br._target_log_norm(target)], gs[:-1]])
    hits = np.flatnonzero((prev > 0.0) & (gs <= 0.0))
    if hits.size == 0:
        return None
    i = int(hits[0])
    lo = float(ts[i - 1]) if i else 0.0
    return float(brentq(lambda t: float(g(np.array([t]))[0]), lo, float(ts[i]),
                        xtol=1e-15))


def _cut_at_sample_511():
    # an eigenvalue of e^{i H_d T} U_f is -1 at scan sample 511, the last of
    # the first chunk, which the second chunk carries as its previous sample
    phi = np.array([-2.9, 1.45, 1.45])
    target = np.diag(np.exp(-1j * phi))
    lift = np.pi + phi[0]
    c = lift / ((br._target_log_norm(target) + 2.0 * np.pi) / 8.0 + lift)
    return c * np.diag([1.0, -1.0, 0.0]).astype(complex), target


def test_zermelo_scan_stops_at_its_first_bracket_with_the_full_scan_root():
    rng = np.random.default_rng(64)
    cases = []
    for _ in range(6):
        drift = random_traceless_hermitian(rng, 3)
        cases.append((drift * 0.3 / hs_norm(drift), random_special_unitary(rng, 3)))
    # drift-free, g(T) = ||log U_f|| - T: the first sample with g <= 0 is
    # index 1024, the first of the third chunk
    h = random_traceless_hermitian(rng, 3)
    l0 = 0.2501 * 2.0 * np.pi / (1.0 - 0.2501)
    cases.append((np.zeros((3, 3), complex), exp_op(h * (l0 / hs_norm(h)), 1.0)))
    cases.append(_cut_at_sample_511())
    times = []
    for drift, target in cases:
        res = br.zermelo_solve(drift, 1.0, target, br.ShootingOptions(refine_points=64))
        assert res.converged and res.T == _full_scan_root(drift, 1.0, target)
        times.append(res.T)
    drift, target = cases[-2]
    ts = _scan_samples(drift, 1.0, target)
    assert ts[1023] < times[-2] <= ts[1024]
    drift, target = cases[-1]
    ts = _scan_samples(drift, 1.0, target)
    assert np.isnan(br.log_norms(exp_op(drift, -ts[511:512]) @ target)[0])
    assert times[-1] > ts[1024]


@pytest.mark.parametrize("case", ["all_positive", "sign_change_across_the_cut"])
def test_zermelo_scan_without_a_bracket_keeps_its_message(monkeypatch, case):
    if case == "all_positive":
        # the scan runs through all its chunks
        rng = np.random.default_rng(65)
        drift = random_traceless_hermitian(rng, 3)
        drift *= 0.3 / hs_norm(drift)
        target = random_special_unitary(rng, 3)
        shift = -1e3
    else:
        # g > 0 up to sample 510, NaN at 511 and g <= 0 from 512 on: a NaN
        # sample carried across a chunk edge forms no bracket
        drift, target = _cut_at_sample_511()
        t = _scan_samples(drift, 1.0, target)[512:513]
        shift = br.log_norms(exp_op(drift, -t) @ target)[0] - t[0] + 1e-3
    norms = br.log_norms
    monkeypatch.setattr(br, "log_norms", lambda u: norms(u) - shift)
    assert _full_scan_root(drift, 1.0, target) is None
    res = br.zermelo_solve(drift, 1.0, target)
    t_max = _scan_samples(drift, 1.0, target)[-1]
    assert not res.converged
    assert res.message == f"no root of the log-norm equation below T = {t_max:.4g}"


def test_navigation_solve_makes_no_batched_eigh(monkeypatch):
    # the 16384 steps of an SU(3) navigation rebuild lie below the Pade
    # radius, so evolve_unitary takes no stacked eigendecomposition; the
    # scan, the root and the control rebuild take single-matrix ones
    rng = np.random.default_rng(66)
    drift = random_traceless_hermitian(rng, 3)
    drift *= 0.3 / hs_norm(drift)
    target = random_special_unitary(rng, 3)
    eigh, stacks = np.linalg.eigh, []

    def counting(a, *args, **kwargs):
        stacks.append(a.shape[:-2])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    res = br.zermelo_solve(drift, 1.0, target)
    assert res.converged and res.protocol.n_cells == 16384
    assert stacks and set(stacks) == {()}
    del stacks[:]
    dyn.evolve_unitary(res.protocol)
    assert stacks == []


def test_zermelo_solve_below_its_bar_keeps_the_protocol():
    # the closed-form endpoint e^{-i H_d T} e^{-i H_c(0) T} misses this
    # target by a fidelity of 1.2e-15, rounding only, which a 1e-19 bar
    # must not turn into a failure without a protocol: the rebuilt
    # trajectory's residual is the one bar
    rng = np.random.default_rng(0)
    drift = random_traceless_hermitian(rng, 3)
    drift *= 0.3 / hs_norm(drift)
    target = random_special_unitary(rng, 3)
    res = br.zermelo_solve(drift, 1.0, target,
                           br.ShootingOptions(refine_points=256, residual_tol=1e-19))
    assert not res.converged
    assert res.protocol is not None and res.protocol.n_cells == 256
    assert 1e-19 <= res.residual < 1e-9
    assert res.message == ""


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


@pytest.mark.parametrize("field, value", [
    ("grid_points", 0), ("grid_points", -5), ("grid_points", 64.0),
    ("grid_points", 8), ("grid_points", 15),
    ("refine_points", 0), ("multistarts", 0), ("stop_after_converged", 0),
    ("residual_tol", float("nan")), ("residual_tol", float("inf")),
    ("residual_tol", 0.0), ("residual_tol", -1.0),
    ("seed", -1), ("seed", 1.5),
])
def test_shooting_options_refuse_bad_values(field, value):
    # each of these used to fail deep inside a solve (IndexError, numpy
    # errors, "no start converged") or, for an infinite tolerance, to
    # report any residual as converged
    with pytest.raises(ValidationError, match=field):
        br.ShootingOptions(**{field: value})


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
    audit = br.qb_consistency_audit(res)
    assert audit.max_condition_violation < 1e-13
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
    audit = br.qb_consistency_audit(bad_res)
    assert audit.max_condition_violation > 0.1


def _audit_of(c, grid, controls, f0):
    """The audit of the protocol's exact trajectory from costate f0."""
    p = dyn.Protocol(c, grid, controls)
    traj = dyn.evolve_costate(f0, dyn.evolve_unitary(p))
    return br.qb_consistency_audit(br.SolveResult(
        converged=True, T=p.total_time, residual=0.0, exact_residual=0.0,
        protocol=p, trajectory=traj, costate0=f0, conservation=None,
        singular_intervals=(), seed=0, n_starts=1))


@pytest.mark.parametrize("theta", [0.3, 0.1, 0.03, 0.01])
def test_audit_reports_the_exact_maximum_condition_gap(theta):
    # under constant sigma_x the costate's sigma_x part is conserved and its
    # sigma_z part turns in the y-z plane, so the best admissible control
    # pairs at 1 / cos(theta) on every cell, against 1 for the protocol's
    f0 = (np.cos(theta) * SIGMA_X + np.sin(theta) * SIGMA_Z) / (2 * np.cos(theta))
    audit = _audit_of(full_su2(0.0, 1.0), np.linspace(0.0, 1.0, 4097),
                      np.tile([1.0, 0.0, 0.0], (4096, 1)), f0)
    assert audit.max_condition_violation == pytest.approx(
        1.0 / np.cos(theta) - 1.0, rel=0, abs=1e-12)
    assert audit.normalization_drift < 1e-13
    assert audit.costate_flow_violation < 1e-13


def test_audit_box_gap_under_a_constant_control():
    # H = (sigma_z + sigma_x) / 2 turns the costate about (1, 0, 1) / sqrt 2
    # at rate sqrt 2, so g = tr[F sigma_x] = (1 + cos(sqrt 2 t)) / 2 in [0, 1];
    # the box support is |g| against the protocol's g / 2, a gap of g / 2,
    # largest at the first midpoint
    from toqc.constraint_model import Box
    c = ConstraintSet(2, 0.5 * SIGMA_Z, (SIGMA_X,),
                      Box(np.array([-1.0]), np.array([1.0])))
    grid = np.linspace(0.0, 1.0, 1025)
    audit = _audit_of(c, grid, np.full((1024, 1), 0.5), SIGMA_X / 2)
    g_first = 0.5 * (1.0 + np.cos(np.sqrt(2.0) * grid[1] / 2))
    assert audit.max_condition_violation == pytest.approx(0.5 * g_first, abs=1e-12)
    assert audit.normalization_drift == pytest.approx(0.5, abs=1e-12)


def test_support_function_is_the_maximum_over_the_bound():
    # a box's support is its best vertex; a ball's is attained by the
    # maximizer's control (computed from the pairing matrix, not from the
    # declared bound) and bounds every admissible control
    from itertools import product
    from toqc.constraint_model import BallInCoords, Box, _span_maximizer
    from toqc.scenarios import symmetric_two_qubit
    rng = np.random.default_rng(21)
    lo, hi = np.array([-1.0, 0.5, -2.0]), np.array([1.0, 2.0, -0.5])
    box = ConstraintSet(2, 0.3 * SIGMA_Z, (SIGMA_X, SIGMA_Y, SIGMA_Z), Box(lo, hi))
    g = rng.standard_normal((64, 3))
    vertices = np.array(list(product(*zip(lo, hi))))
    np.testing.assert_allclose(br._support(box, g), np.max(g @ vertices.T, axis=1),
                               rtol=0, atol=1e-14)
    metric = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, -0.2], [0.0, -0.2, 0.5]])
    balls = [full_su2(0.3, 1.3),
             ConstraintSet(2, 0.3 * SIGMA_Z, (SIGMA_X, SIGMA_Y, SIGMA_Z),
                           BallInCoords(0.7, metric)),
             symmetric_two_qubit(0.5, 1.0).constraint]
    for c in balls:
        fs = np.stack([random_traceless_hermitian(rng, c.dim) for _ in range(16)])
        g = np.einsum("kab,jba->kj", fs, np.stack(c.control_basis)).real
        support = br._support(c, g)
        _, u, _, _ = _span_maximizer(fs, c)
        np.testing.assert_allclose(support, np.sum(u * g, axis=1), rtol=1e-13, atol=0)
        w = rng.standard_normal((256, c.n_controls))
        scale = np.sqrt(np.einsum("si,ij,sj->s", w, c._ball[0], w)) / c._ball[1]
        assert np.all(g @ (w / scale[:, None]).T <= support[:, None] * (1 + 1e-13))


def test_audit_reads_zero_on_converged_shooting_results():
    # skewing the maximizer's u_x by 0.2% (renormalized to the ball) still
    # converges, with T moved by under 1e-6, but reads about 6e-7 here;
    # rounding in the dense rebuild reads about 1e-14
    from toqc.constraint_model import BallInCoords
    rng = np.random.default_rng(4)
    target = exp_op(random_traceless_hermitian(rng, 2), 1.0)
    ball = ConstraintSet(2, 0.3 * SIGMA_Z, tuple(generalized_gellmann(2)),
                         BallInCoords(1.0, np.diag([1.0, 2.0, 1.5])))
    for c in (full_su2(0.3, 1.0), ball):
        res = br.solve_shooting(br.ShootingProblem(c, target, FAST))
        assert res.converged
        audit = br.qb_consistency_audit(res)
        assert audit.max_condition_violation < 1e-13
        assert audit.normalization_drift < 1e-7
        assert audit.costate_flow_violation < 1e-13
        assert br.qb_consistency_audit(res) == audit


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
    u_end = _coupled_flow(c, f0[None], t_true, 4096)[0][0]
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
    # singular along the whole flow; its nearest-zero control, u = 0 in this
    # box, then runs pure drift
    from toqc.brachistochrone import _coupled_flow
    from toqc.constraint_model import Box
    c = ConstraintSet(2, 0.8 * SIGMA_Z, (SIGMA_X,),
                      Box(np.array([-1.0]), np.array([1.0])))
    f0 = SIGMA_Z / (2 * 0.8)
    u_end, _, singular, controls = _coupled_flow(
        c, f0[None], 1.0, 64, record=True)
    assert singular[0].all()
    np.testing.assert_allclose(controls[0], 0.0, atol=1e-14)
    np.testing.assert_allclose(u_end[0], exp_op(0.8 * SIGMA_Z, 1.0), atol=1e-10)


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
    u = np.array([0.5 * np.trace(geo["H"] @ b).real for b in c.control_basis])
    f0 = geo["H"] / np.trace(geo["H"] @ geo["H"]).real
    audit = _audit_of(c, np.linspace(0.0, geo["T"], 513), np.tile(u, (512, 1)), f0)
    assert audit.max_condition_violation < 1e-13
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


# --- lockstep march ------------------------------------------------------------

def _reference_maximizer(f, c):
    """The per-costate maximizer of the scalar march: (H, u), or None."""
    from toqc.constraint_model import Box
    from toqc.tolerances import DEFAULT_TOL
    span = c.control_span
    coeffs = 0.5 * np.einsum("ab,iba->i", f, span).real
    nrm = float(np.linalg.norm(coeffs))
    if nrm < DEFAULT_TOL.singular:
        return None
    if isinstance(c.kind, Typical):
        scaled = (c.kind.omega / nrm) * coeffs
        return c.drift + np.einsum("i,iab->ab", scaled, span), scaled
    g = np.array([inner(f, cj) for cj in c.control_basis])
    if isinstance(c.kind, Box):
        tol = DEFAULT_TOL.singular
        lo, hi = np.asarray(c.kind.lo, float), np.asarray(c.kind.hi, float)
        u = np.where(g > tol, hi, np.where(g < -tol, lo, np.clip(0.0, lo, hi)))
        return c.hamiltonian(u), u
    ginv_g = np.linalg.solve(np.asarray(c.kind.metric, float), g)
    u = c.kind.radius * ginv_g / float(np.sqrt(g @ ginv_g))
    return c.hamiltonian(u), u


def _reference_step(h, dt):
    """exp(-i dt H) for one Hermitian H, closed form for 2x2."""
    if h.shape[0] != 2:
        return exp_op(h, dt)
    a = 0.5 * (h[0, 0] + h[1, 1]).real
    bx, by, bz = h[0, 1].real, -h[0, 1].imag, 0.5 * (h[0, 0] - h[1, 1]).real
    r = np.sqrt(bx * bx + by * by + bz * bz)
    phase = np.exp(-1j * dt * a)
    if r < 1e-300:
        return phase * np.eye(2)
    cos, sin = np.cos(dt * r), np.sin(dt * r) / r
    return phase * np.array([[cos - 1j * sin * bz, -1j * sin * (bx - 1j * by)],
                             [-1j * sin * (bx + 1j * by), cos + 1j * sin * bz]])


def _serial_march(c, f0, t_final, n_cells):
    """The one-costate, one-cell-at-a-time march: controls and singular cells.

    A singular costate takes the admissible control nearest zero, at the
    cell start and at the half step alike.
    """
    from toqc.constraint_model import Box
    u_mat, f, dt = np.eye(c.dim, dtype=complex), f0, t_final / n_cells
    controls, singular = np.zeros((n_cells, c.n_controls)), []
    nearest = (np.clip(0.0, c.kind.lo, c.kind.hi) if isinstance(c.kind, Box)
               else np.zeros(c.n_controls))
    idle = c.hamiltonian(nearest), nearest
    for k in range(n_cells):
        out = _reference_maximizer(f, c)
        if out is None:
            singular.append(k)
        h, _ = out or idle
        half = _reference_step(h, 0.5 * dt)
        h, uk = _reference_maximizer(half @ f @ half.conj().T, c) or idle
        step = _reference_step(h, dt)
        u_mat = step @ u_mat
        if (k + 1) % 64 == 0:
            u_mat = dyn.reunitarize(u_mat)
            f = u_mat @ f0 @ u_mat.conj().T
        else:
            f = step @ f @ step.conj().T
        controls[k] = uk
    return controls, singular


def _seed(c, rng):
    basis = generalized_gellmann(c.dim)
    while True:
        f0 = br._normalize_seed(c, reconstruct(rng.standard_normal(c.dim ** 2 - 1), basis))
        if f0 is not None:
            return f0


def _rebuild_cases():
    from toqc.constraint_model import Box
    from toqc.scenarios import landau_zener, symmetric_two_qubit
    rng = np.random.default_rng(17)
    su3 = ConstraintSet(3, 0.3 * random_traceless_hermitian(rng, 3) / 1.5,
                        tuple(generalized_gellmann(3)), Typical(1.0))
    lz = landau_zener(1.0, 1.5).constraint
    ball = symmetric_two_qubit(0.5, 1.0).constraint
    hold = ConstraintSet(2, 0.8 * SIGMA_Z, (SIGMA_X,),
                         Box(np.array([-1.0]), np.array([1.0])))
    off_zero = ConstraintSet(2, 0.8 * SIGMA_Z, (SIGMA_X,),
                             Box(np.array([0.5]), np.array([1.0])))
    return {
        "su2": (full_su2(0.3, 1.0), _seed(full_su2(0.3, 1.0), rng), 1.7, 4096),
        "su3": (su3, _seed(su3, rng), 1.9, 2048),
        "box": (lz, _seed(lz, rng), 2.5, 2048),
        "ball": (ball, _seed(ball, rng), 2.2, 2048),
        "hold": (hold, SIGMA_Z / (2 * 0.8), 1.0, 256),
        "off_zero": (off_zero, SIGMA_Z / (2 * 0.8), 1.0, 256),
        "ragged": (full_su2(0.3, 1.0), _seed(full_su2(0.3, 1.0), rng), 1.3, 1000),
    }


@pytest.mark.parametrize("case", ["su2", "su3", "box", "ball", "hold",
                                  "off_zero", "ragged"])
def test_dense_rebuild_matches_the_serial_march(case):
    # the parareal rebuild reproduces the serial march: same controls to
    # 1e-12 and the same singular cells, also across a singular stretch, at
    # a singular start whose nearest-zero control is not 0 (a box that
    # excludes 0), and on a grid that is not a multiple of the 64-cell block
    c, f0, t_final, n_cells = _rebuild_cases()[case]
    ref_controls, ref_singular = _serial_march(c, f0, t_final, n_cells)
    controls, singular = br._dense_rebuild(c, f0, t_final, n_cells)
    assert controls.shape == ref_controls.shape
    np.testing.assert_allclose(controls, ref_controls, rtol=0, atol=1e-12)
    assert list(singular) == ref_singular
    if case == "hold":
        assert len(singular) == n_cells
    # every control is admissible, so the controls make a Protocol
    dyn.Protocol(c, np.linspace(0.0, t_final, n_cells + 1), controls)


def _counted_rebuild(monkeypatch, c, f0, t_final, n_cells):
    """The dense rebuild with its ``_coupled_flow`` calls counted.

    Returns (controls, singular, sweeps, calls): a sweep's fine march is
    the one unrecorded march of every block (PROJECTION_PERIOD cells), and
    calls counts every march the rebuild made.
    """
    calls = []
    flow = br._coupled_flow

    def counting_flow(*args, **kwargs):
        calls.append((args[3], kwargs.get("record", False)))
        return flow(*args, **kwargs)

    monkeypatch.setattr(br, "_coupled_flow", counting_flow)
    controls, singular = br._dense_rebuild(c, f0, t_final, n_cells)
    return controls, singular, calls.count((dyn.PROJECTION_PERIOD, False)), len(calls)


def test_dense_rebuild_stops_on_the_predicted_correction(monkeypatch):
    # parareal converges superlinearly, so the rebuild stops once the next
    # sweep's correction, predicted from the last two, is below the
    # tolerance; a sweep is one fine march plus the coarse Jacobian cell,
    # and the recording pass is one more march
    c, f0, t_final, n_cells = _rebuild_cases()["su2"]
    controls, _, sweeps, calls = _counted_rebuild(monkeypatch, c, f0, t_final, n_cells)
    assert 1 <= sweeps <= 3
    assert calls <= 2 * sweeps + 2
    ref_controls, _ = _serial_march(c, f0, t_final, n_cells)
    np.testing.assert_allclose(controls, ref_controls, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n_cells", [1, 63, 64, 65, 129])
def test_dense_rebuild_edge_sizes_match_the_serial_march(n_cells):
    # one block and no sweep (1, 63, 64 cells), two blocks with a one-cell
    # tail (65) and three blocks with a one-cell tail (129)
    c = full_su2(0.3, 1.0)
    f0 = _seed(c, np.random.default_rng(23))
    ref_controls, ref_singular = _serial_march(c, f0, 1.4, n_cells)
    controls, singular = br._dense_rebuild(c, f0, 1.4, n_cells)
    assert controls.shape == ref_controls.shape == (n_cells, 3)
    np.testing.assert_allclose(controls, ref_controls, rtol=0, atol=1e-12)
    assert list(singular) == ref_singular


def test_dense_rebuild_through_bang_bang_switches(monkeypatch):
    # across a switch of a box bound the one-cell coarse step jumps, so its
    # forward-difference Jacobian is not a derivative: the rebuild takes more
    # sweeps, but every sweep makes one more block start exact, and the
    # controls are still the serial march's within the K/64 - 1 sweep cap
    from toqc.constraint_model import Box
    c = ConstraintSet(2, 0.5 * SIGMA_Z, (SIGMA_X, SIGMA_Y),
                      Box(np.array([-1.0, -0.5]), np.array([1.0, 2.0])))
    f0 = _seed(c, np.random.default_rng(0))
    ref_controls, ref_singular = _serial_march(c, f0, 6.0, 4096)
    assert np.count_nonzero(np.any(np.diff(ref_controls, axis=0) != 0, axis=1)) == 9
    controls, singular, sweeps, _ = _counted_rebuild(monkeypatch, c, f0, 6.0, 4096)
    np.testing.assert_allclose(controls, ref_controls, rtol=0, atol=1e-12)
    assert list(singular) == ref_singular
    assert sweeps <= 4096 // 64 - 1


def _shooting_setup(n, rng):
    drift = 0.3 * SIGMA_Z if n == 2 else 0.2 * random_traceless_hermitian(rng, 3)
    c = ConstraintSet(n, drift, tuple(generalized_gellmann(n)), Typical(1.0))
    basis = generalized_gellmann(n)
    target = random_special_unitary(rng, n)
    x = np.append(expand(_seed(c, rng), basis), 1.4)
    return c, basis, target, x


@pytest.mark.parametrize("n", [2, 3])
def test_residual_batch_rows_equal_single_evaluations(n):
    rng = np.random.default_rng(30 + n)
    c, basis, target, x = _shooting_setup(n, rng)
    xs = x + 1e-3 * rng.standard_normal((n * n + 1, n * n))
    for cells in (16, 96):
        batch = br._shooting_residuals(c, target, basis, xs, cells)
        assert batch.shape == (n * n + 1, n * n)
        for row, xi in zip(batch, xs):
            single = br._shooting_residuals(c, target, basis, xi[None], cells)
            np.testing.assert_allclose(row, single[0], rtol=0, atol=1e-13)


@pytest.mark.parametrize("n", [2, 3])
def test_final_time_normalization_is_no_boundary_condition(n):
    # tr[H F] = 1 holds at t = 0 by the seed rescaling and is conserved by
    # the flow, so an endpoint entry tr[H(T) F(T)] - 1 would measure only
    # the march's drift, which falls as dt^3; and the costate scale is a
    # gauge of the residual
    rng = np.random.default_rng(60 + n)
    c, basis, target, x = _shooting_setup(n, rng)
    f0 = br._normalize_seed(c, reconstruct(x[:-1], basis))
    cells = np.array([24, 48, 96, 192])
    drift = []
    for k in cells:
        f_t = br._coupled_flow(c, f0[None], x[-1], k)[1][0]
        drift.append(abs(np.trace(maximizer(f_t, c).hamiltonian @ f_t).real - 1.0))
    order = -np.polyfit(np.log(cells), np.log(drift), 1)[0]
    assert 2.8 <= order <= 3.2, drift
    rows = br._shooting_residuals(
        c, target, basis, np.stack([x, np.append(2.5 * x[:-1], x[-1])]), 96)
    np.testing.assert_allclose(rows[0], rows[1], rtol=0, atol=1e-13)


@pytest.mark.parametrize("n", [2, 3])
def test_lockstep_jacobian_matches_a_column_loop(n):
    # the columns of the one-march Jacobian against a column-by-column loop
    # with scipy's 2-point step, with T inside the bounds and at the upper
    # bound (there the T step turns around)
    rng = np.random.default_rng(40 + n)
    c, basis, target, x = _shooting_setup(n, rng)
    lo = np.append(np.full(n * n - 1, -np.inf), 1e-6)
    eps = np.sqrt(np.finfo(float).eps)

    def fun(xi):
        return br._shooting_residuals(c, target, basis, xi[None], 64)[0]

    def batch(xs):
        return br._shooting_residuals(c, target, basis, xs, 64)

    for t_hi in (5.0, x[-1]):
        hi = np.append(np.full(n * n - 1, np.inf), t_hi)
        jac = br._fd_jacobian(batch, x, lo, hi)
        f0 = fun(x)
        cols = []
        for i in range(n * n):
            h = eps * (1.0 if x[i] >= 0 else -1.0) * max(1.0, abs(x[i]))
            if not lo[i] <= x[i] + h <= hi[i]:
                h = -h
            xi = x.copy()
            xi[i] = x[i] + h
            cols.append((fun(xi) - f0) / (xi[i] - x[i]))
        loop = np.column_stack(cols)
        scale = np.linalg.norm(loop, axis=0)
        assert np.max(np.abs(jac - loop) / scale) < 1e-6
        if t_hi == x[-1]:
            # the backward T column differs from the forward one
            forward = br._fd_jacobian(batch, x, lo, np.append(hi[:-1], 5.0))[:, -1]
            assert np.max(np.abs(forward - jac[:, -1])) > 0.0


def test_stacked_maximizer_equals_the_per_costate_maximizer():
    from toqc.constraint_model import Box, _span_maximizer
    from toqc.scenarios import landau_zener, symmetric_two_qubit
    rng = np.random.default_rng(8)
    box2 = ConstraintSet(2, 0.5 * SIGMA_Z, (SIGMA_X, SIGMA_Y),
                         Box(np.array([-1.0, -0.5]), np.array([1.0, 2.0])))
    cases = [(full_su2(0.3, 1.0), 2), (one_qubit_xy(0.5, 1.0).constraint, 2),
             (landau_zener(1.0, 1.5).constraint, 2), (box2, 2),
             (symmetric_two_qubit(0.5, 1.0).constraint, 3)]
    for c, n in cases:
        fs = np.stack([random_traceless_hermitian(rng, n) for _ in range(6)])
        # a costate orthogonal to the control subspace, and for the
        # two-control box one with no sigma-y part (partially singular)
        fs[0] -= c.project_control(fs[0])
        fs[1] = 0.5 * SIGMA_X if n == 2 else fs[1]
        h, u, singular, flagged = _span_maximizer(fs, c)
        assert singular[0] and not singular[1:].any()
        for k, f in enumerate(fs):
            one = maximizer(f, c)
            assert one.singular == singular[k]
            if one.singular:
                continue
            np.testing.assert_allclose(h[k], one.hamiltonian, rtol=0, atol=1e-14)
            np.testing.assert_allclose(u[k], one.controls, rtol=0, atol=1e-14)
            assert one.partially_singular == tuple(np.flatnonzero(flagged[k]))
    assert maximizer(0.5 * SIGMA_X, box2).partially_singular == (1,)


def test_singular_rows_take_the_admissible_control_nearest_zero():
    # at a singular costate every admissible control maximizes tr[H F]; the
    # stacked maximizer's rows take the one nearest zero, so a march that
    # steps with them stays admissible, also in a box that excludes 0
    from toqc.constraint_model import BallInCoords, Box, _span_maximizer
    from toqc.scenarios import symmetric_two_qubit
    rng = np.random.default_rng(9)
    boxes = [(np.array([-1.0, -0.5]), np.array([1.0, 2.0])),
             (np.array([0.5, -2.0]), np.array([1.0, -1.0]))]
    cases = [ConstraintSet(2, 0.5 * SIGMA_Z, (SIGMA_X, SIGMA_Y), Box(lo, hi))
             for lo, hi in boxes]
    cases += [full_su2(0.3, 1.0), one_qubit_xy(0.5, 1.0).constraint,
              symmetric_two_qubit(0.5, 1.0).constraint]
    for c in cases:
        fs = np.stack([random_traceless_hermitian(rng, c.dim) for _ in range(4)])
        fs[::2] -= np.stack([c.project_control(f) for f in fs[::2]])
        h, u, singular, _ = _span_maximizer(fs, c)
        assert list(singular) == [True, False, True, False]
        if isinstance(c.kind, Box):
            nearest = np.clip(0.0, c.kind.lo, c.kind.hi)
        else:
            assert isinstance(c.kind, (Typical, BallInCoords))
            nearest = np.zeros(c.n_controls)
        assert np.array_equal(u[singular], np.stack([nearest, nearest]))
        np.testing.assert_allclose(h[singular], c.hamiltonian(u[singular]),
                                   rtol=0, atol=1e-15)
        assert np.all(c.bound_violation(u[singular]) == 0.0)


def test_expm_step_edge_cases():
    import scipy.linalg
    rng = np.random.default_rng(12)
    for n in (2, 3):
        zero = np.zeros((4, n, n), dtype=complex)
        out = br._expm_step(zero, rng.uniform(0.1, 2.0, 4))
        assert np.array_equal(out, np.broadcast_to(np.eye(n), out.shape))
        hs = np.stack([random_traceless_hermitian(rng, n) for _ in range(16)])
        dts = rng.uniform(0.01, 1.5, 16)
        ref = np.stack([scipy.linalg.expm(-1j * dt * h) for h, dt in zip(hs, dts)])
        np.testing.assert_allclose(br._expm_step(hs, dts), ref, rtol=0, atol=1e-14)


def _dop853_endpoint(c, f0, t_final, tol):
    """U(T) of the extremal flow U' = -i H(U F0 U^dagger) U by DOP853, with
    H the maximizer Hamiltonian: no grid, no march, no exponential."""
    from scipy.integrate import solve_ivp
    n = c.dim

    def rhs(_, y):
        u = y.view(complex).reshape(n, n)
        h = maximizer(u @ f0 @ u.conj().T, c).hamiltonian
        return (-1j * h @ u).ravel().view(float)

    y0 = np.eye(n, dtype=complex).ravel().view(float)
    sol = solve_ivp(rhs, (0.0, t_final), y0, method="DOP853", rtol=tol, atol=tol)
    return sol.y[:, -1].copy().view(complex).reshape(n, n)


@pytest.mark.parametrize("n", [2, 3])
def test_march_is_second_order(n):
    # the march's endpoint against DOP853 on U' = -i H(U F0 U^dagger) U,
    # with H the maximizer Hamiltonian; the exponential midpoint rule makes
    # the error fall as dt^2 (a one-stage march would be first order)
    rng = np.random.default_rng(50 + n)
    if n == 2:
        c = full_su2(0.3, 1.0)
    else:
        c = ConstraintSet(3, 0.3 * random_traceless_hermitian(rng, 3),
                          tuple(generalized_gellmann(3))[:5], Typical(1.0))
    f0 = _seed(c, rng)
    t_final = 2.0
    exact = _dop853_endpoint(c, f0, t_final, 1e-13)
    cells = np.array([24, 48, 96, 192])
    errors = [np.max(np.abs(br._coupled_flow(c, f0[None], t_final, k)[0][0] - exact))
              for k in cells]
    order = -np.polyfit(np.log(cells), np.log(errors), 1)[0]
    assert 1.9 <= order <= 2.1, errors


@pytest.mark.parametrize("case", [0, 1, 2, "su3"])
def test_returned_extremal_matches_an_independent_integrator(case):
    # the endpoint of a returned extremal, rebuilt on 16384 cells, against
    # DOP853 on the extremal flow from its costate0 over its T: about 1e-9
    # (3e-9 for SU(3)); a first-order march would leave about 1e-4
    from dataclasses import replace
    if case == "su3":
        problem = _su3_shooting_problem()
        problem = replace(problem, options=replace(problem.options,
                                                   refine_points=16384))
    else:
        opts = br.ShootingOptions(grid_points=96, multistarts=32, seed=40,
                                  stop_after_converged=3, refine_points=16384)
        problem = br.ShootingProblem(full_su2(0.3, 1.0), _test_04_target(case), opts)
    res = br.solve_shooting(problem)
    assert res.converged
    exact = _dop853_endpoint(problem.constraint, res.costate0, res.T, 1e-12)
    assert np.max(np.abs(res.trajectory.final_unitary - exact)) < 1e-7


def test_each_jacobian_costs_one_march(monkeypatch):
    # every residual evaluation of the least-squares stages is one march,
    # which also gives the Jacobian at its point, so a Jacobian costs no
    # march of its own; the rest are the check march after each polish and
    # the dense rebuild's calls, of which only the last returns controls
    marches, rebuild_marches, stages = [], [], []
    in_rebuild = []
    flow, rebuild, lsq = br._coupled_flow, br._dense_rebuild, br.least_squares

    def counting_flow(*args, **kwargs):
        out = flow(*args, **kwargs)
        (rebuild_marches if in_rebuild else marches).append(out[3] is not None)
        return out

    def counting_rebuild(*args, **kwargs):
        in_rebuild.append(True)
        try:
            return rebuild(*args, **kwargs)
        finally:
            in_rebuild.pop()

    def counting_lsq(*args, **kwargs):
        sol = lsq(*args, **kwargs)
        stages.append((kwargs["xtol"], sol.nfev, sol.njev))
        return sol

    monkeypatch.setattr(br, "_coupled_flow", counting_flow)
    monkeypatch.setattr(br, "_dense_rebuild", counting_rebuild)
    monkeypatch.setattr(br, "least_squares", counting_lsq)
    opts = br.ShootingOptions(grid_points=96, multistarts=32, seed=40,
                              stop_after_converged=3, refine_points=512)
    res = br.solve_shooting(br.ShootingProblem(
        full_su2(0.3, 1.0), _test_04_target(0), opts))
    assert res.converged
    polishes = sum(1 for xtol, _, _ in stages if xtol == min(s[0] for s in stages))
    assert all(njev > 0 for _, _, njev in stages)
    assert len(marches) == sum(nfev for _, nfev, _ in stages) + polishes
    assert not any(marches)
    assert rebuild_marches.count(True) == 1 and rebuild_marches[-1]


@pytest.mark.parametrize("n", [2, 3])
def test_one_march_residuals_take_the_same_iterations(monkeypatch, n):
    # oracle: each stage of a start run again with a separate residual
    # (one march of x alone) and Jacobian (one lockstep march of x and its
    # forward-difference points); the rows of a march do not depend on the
    # other members, so trf takes bitwise the same iterations
    lsq, residuals = br.least_squares, br._shooting_residuals
    problem = (br.ShootingProblem(full_su2(0.3, 1.0), _test_04_target(0), FAST)
               if n == 2 else _su3_shooting_problem())
    basis = generalized_gellmann(n)
    cells, stages = [], []

    def recording_residuals(c, target, basis, xs, n_cells):
        cells.append(n_cells)
        return residuals(c, target, basis, xs, n_cells)

    def both_ways(fun, x0, jac, bounds, **kwargs):
        new = lsq(fun, x0, jac=jac, bounds=bounds, **kwargs)

        def batch(xs):
            return residuals(problem.constraint, problem.target, basis, xs, cells[-1])
        old = lsq(lambda x: batch(x[None])[0], x0,
                  jac=lambda x: br._fd_jacobian(batch, x, *bounds),
                  bounds=bounds, **kwargs)
        stages.append((new, old))
        return new

    monkeypatch.setattr(br, "_shooting_residuals", recording_residuals)
    monkeypatch.setattr(br, "least_squares", both_ways)
    t0 = br._time_scale_estimate(problem)
    out = br._single_start(problem, 0, t0, 6.0 * t0, np.random.default_rng(9), [])
    assert out is not None and len(stages) == 2   # a coarse stage and a polish
    for new, old in stages:
        assert np.array_equal(new.x, old.x)
        assert (new.nfev, new.njev, new.status) == (old.nfev, old.njev, old.status)


def _su3_shooting_problem():
    rng = np.random.default_rng(1)
    c = ConstraintSet(3, 0.2 * random_traceless_hermitian(rng, 3),
                      tuple(generalized_gellmann(3)), Typical(1.0))
    opts = br.ShootingOptions(grid_points=48, multistarts=8, seed=1,
                              stop_after_converged=1, refine_points=512)
    return br.ShootingProblem(c, random_special_unitary(rng, 3), opts)


@pytest.mark.parametrize("n", [2, 3])
def test_each_polish_reaches_a_zero_residual(monkeypatch, n):
    # the boundary system is consistent (no endpoint normalization entry),
    # so the discrete march hits the target and each polish converges
    # quadratically to rounding instead of stalling at a residual floor
    polishes, fidelities = [], []
    lsq, single_start = br.least_squares, br._single_start

    def recording_lsq(*args, **kwargs):
        sol = lsq(*args, **kwargs)
        if kwargs["xtol"] < 1e-12:
            polishes.append((float(np.linalg.norm(sol.fun)), sol.nfev))
        return sol

    def recording_start(*args, **kwargs):
        out = single_start(*args, **kwargs)
        if out is not None:
            fidelities.append(out["fidelity"])
        return out

    monkeypatch.setattr(br, "least_squares", recording_lsq)
    monkeypatch.setattr(br, "_single_start", recording_start)
    if n == 2:
        opts = br.ShootingOptions(grid_points=96, multistarts=32, seed=40,
                                  stop_after_converged=3, refine_points=512)
        problem = br.ShootingProblem(full_su2(0.3, 1.0), _test_04_target(0), opts)
    else:
        problem = _su3_shooting_problem()
    assert br.solve_shooting(problem).converged
    assert polishes
    for norm, nfev in polishes:
        assert norm < 1e-12 and nfev <= 10, polishes
    assert max(fidelities) < 1e-14, fidelities
