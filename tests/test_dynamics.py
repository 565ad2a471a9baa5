import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from toqc import constraint_model as cm
from toqc import dynamics as dyn
from toqc.errors import MissingCostateError, ValidationError
from toqc.sun_algebra import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    dagger,
    exp_op,
    gellmann_basis,
    generalized_gellmann,
    hs_norm,
    random_special_unitary,
    random_traceless_hermitian,
    unitarity_defect,
)

RNG = np.random.default_rng(17)


def z_drive(omega0=0.0, bound=2.0):
    return cm.ConstraintSet(2, omega0 * SIGMA_Z, (SIGMA_X,),
                            cm.Box(np.array([-bound]), np.array([bound])))


def const_protocol(c, value, t_final, cells):
    grid = np.linspace(0.0, t_final, cells + 1)
    return dyn.Protocol(c, grid, np.full((cells, c.n_controls), value))


# --- protocol validation -----------------------------------------------------

def test_protocol_rejects_bad_grid():
    c = z_drive()
    with pytest.raises(ValidationError):
        dyn.Protocol(c, np.array([0.0, 1.0, 0.5]), np.zeros((2, 1)))
    with pytest.raises(ValidationError):
        dyn.Protocol(c, np.array([0.0]), np.zeros((0, 1)))


def test_protocol_rejects_inadmissible_controls():
    c = z_drive(bound=1.0)
    grid = np.linspace(0, 1, 5)
    with pytest.raises(ValidationError):
        dyn.Protocol(c, grid, np.full((4, 1), 1.5))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_protocol_rejects_non_finite_grid_and_controls(bad):
    c = z_drive(bound=1.0)
    grid = np.linspace(0, 1, 5)
    controls = np.zeros((4, 1))
    bad_grid = grid.copy()
    bad_grid[2] = bad
    bad_controls = controls.copy()
    bad_controls[1, 0] = bad
    for g, u in ((bad_grid, controls), (grid, bad_controls)):
        with pytest.raises(ValidationError, match="finite"):
            dyn.Protocol(c, g, u)


@pytest.mark.parametrize("kind", [cm.Typical(1.0),
                                  cm.Box(-np.ones(2), np.ones(2)),
                                  cm.BallInCoords(1.0, np.diag([1.0, 2.0]))])
def test_protocol_rejects_one_bad_cell_of_many(kind):
    c = cm.ConstraintSet(2, 0.3 * SIGMA_Z, (SIGMA_X, SIGMA_Y), kind)
    grid = np.linspace(0.0, 1.0, 16385)
    controls = np.full((16384, 2), 0.5)
    dyn.Protocol(c, grid, controls)
    controls[9000, 1] = 1.1
    with pytest.raises(ValidationError):
        dyn.Protocol(c, grid, controls)


# --- unitary flow -------------------------------------------------------------

def test_constant_z_rotation():
    c = cm.ConstraintSet(2, np.zeros((2, 2), complex), (SIGMA_Z,),
                         cm.Box(np.array([-2.0]), np.array([2.0])))
    p = const_protocol(c, 1.0, np.pi / 2, 64)
    traj = dyn.evolve_unitary(p)
    np.testing.assert_allclose(
        traj.final_unitary,
        np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)]), atol=1e-12)


def test_zero_hamiltonian_is_identity():
    c = z_drive(omega0=0.0)
    p = const_protocol(c, 0.0, 1.0, 16)
    traj = dyn.evolve_unitary(p)
    for u in traj.unitaries:
        np.testing.assert_allclose(u, np.eye(2), atol=1e-14)


def test_group_property_split_evolution():
    c = z_drive(omega0=0.7)
    grid = np.linspace(0.0, 2.0, 129)
    controls = 0.4 * np.sin(np.linspace(0, 3, 128))[:, None]
    p = dyn.Protocol(c, grid, controls)
    full = dyn.evolve_unitary(p).final_unitary
    k = 57
    u_a = dyn.evolve_unitary(dyn.Protocol(c, grid[:k + 1], controls[:k])).final_unitary
    u_b = dyn.evolve_unitary(dyn.Protocol(c, grid[k:], controls[k:])).final_unitary
    np.testing.assert_allclose(u_b @ u_a, full, atol=1e-10)


def test_evolve_unitary_matches_expm_product():
    # random SU(3) protocol, long enough to pass several re-projections
    c = cm.ConstraintSet(3, 0.4 * gellmann_basis()[2], tuple(gellmann_basis()),
                         cm.Typical(1.0))
    rng = np.random.default_rng(8)
    grid = np.cumsum(np.concatenate([[0.0], rng.uniform(0.005, 0.02, 200)]))
    w = rng.standard_normal((200, 8))
    controls = w / np.linalg.norm(w, axis=1, keepdims=True)
    p = dyn.Protocol(c, grid, controls)
    traj = dyn.evolve_unitary(p)
    acc = np.eye(3)
    for k, h in enumerate(p.hamiltonians()):
        acc = scipy.linalg.expm(-1j * (grid[k + 1] - grid[k]) * h) @ acc
        np.testing.assert_allclose(traj.unitaries[k + 1], acc, rtol=0, atol=1e-13)


def _random_protocol(n, cells, seed):
    """A random full-subspace SU(n) protocol with steps dt in [0.005, 0.02]."""
    basis = tuple(generalized_gellmann(n))
    rng = np.random.default_rng(seed)
    c = cm.ConstraintSet(n, random_traceless_hermitian(rng, n, 0.3), basis,
                         cm.Typical(1.0))
    grid = np.cumsum(np.concatenate([[0.0], rng.uniform(0.005, 0.02, cells)]))
    w = rng.standard_normal((cells, len(basis)))
    return dyn.Protocol(c, grid, w / np.linalg.norm(w, axis=1, keepdims=True))


def _per_cell_product(p):
    """The running product one cell at a time, re-projected every 64 cells:
    the oracle for the blocked product in evolve_unitary."""
    n = p.constraint.dim
    steps = exp_op(p.hamiltonians(), np.diff(p.grid))
    out = np.empty((p.n_cells + 1, n, n), dtype=complex)
    out[0] = np.eye(n)
    acc = out[0]
    for k in range(p.n_cells):
        acc = steps[k] @ acc
        if (k + 1) % 64 == 0:
            w, _, vt = np.linalg.svd(acc)
            acc = w @ vt
        out[k + 1] = acc
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("cells", [1, 63, 64, 65, 130, 4113])
def test_blocked_product_matches_per_cell_loop(n, cells):
    p = _random_protocol(n, cells, 100 * n + cells)
    us = dyn.evolve_unitary(p).unitaries
    np.testing.assert_allclose(us, _per_cell_product(p), rtol=0, atol=1e-13)
    assert np.max(unitarity_defect(us)) < 1e-13


def _long_double_chain(p):
    """The running product of the protocol's steps in long double, one cell
    after another and never projected: each step is the degree-16 Taylor
    polynomial of -i dt H (for ||dt H|| <= 0.1 its remainder is below 1e-30),
    from the same double H and dt as evolve_unitary."""
    h = p.hamiltonians().astype(np.clongdouble)
    x = (-1j * np.diff(p.grid).astype(np.longdouble))[:, None, None] * h
    assert np.max(np.abs(x)) <= 0.1 / p.constraint.dim
    eye = np.eye(p.constraint.dim, dtype=np.clongdouble)
    steps = eye + x / 16
    for k in range(15, 0, -1):
        steps = eye + (x @ steps) / k
    out = np.empty((p.n_cells + 1,) + eye.shape, dtype=np.clongdouble)
    out[0] = eye
    for k, step in enumerate(steps):
        out[k + 1] = step @ out[k]
    return out


@pytest.mark.parametrize("cells", [63, 64, 65, 192, 16384])
def test_block_chain_against_a_long_double_serial_chain(cells):
    # the block ends are chained in ceil(log2(K / 64)) stacked rounds; every
    # node stays near the exact product of the same steps (8.9e-15 at 16384
    # cells; Pade steps with serial SVD projections were 6.7e-14 off)
    p = _random_protocol(3, cells, 300 + cells)
    us = dyn.evolve_unitary(p).unitaries
    assert np.max(np.abs(us - _long_double_chain(p))) <= 2e-14


def test_navigation_nodes_against_a_long_double_chain():
    # the 16384 nodes of a seed-4 SU(3) navigation rebuild (the benchmark's
    # first navigate-su3 instance): Taylor steps, Newton-Schulz projections
    # and the log-depth chain keep them 1.9e-15 from the exact product of
    # the same steps (Pade steps with serial SVD projections: 2.1e-13)
    from toqc import brachistochrone as br
    rng = np.random.default_rng(4)
    drift = random_traceless_hermitian(rng, 3)
    drift *= 0.3 / hs_norm(drift)
    target = random_special_unitary(rng, 3)
    p = br.zermelo_solve(drift, 1.0, target).protocol
    assert p.n_cells == 16384
    us = dyn.evolve_unitary(p).unitaries
    assert np.max(np.abs(us - _long_double_chain(p))) <= 5e-14


def _off_the_group(rng, n, defect):
    """(U, its polar factor): U = V (I + S) with V in SU(n) and S Hermitian,
    scaled so that max|U^dagger U - I| is about ``defect``."""
    v = random_special_unitary(rng, n)
    s = random_traceless_hermitian(rng, n) + rng.normal() * np.eye(n)
    s *= 0.5 * defect / np.max(np.abs(s))
    return v @ (np.eye(n) + s), v


def _svd_polar(u):
    w, _, vt = np.linalg.svd(u)
    return w @ vt


@pytest.mark.parametrize("n", [2, 3, 4])
def test_reunitarize_takes_newton_schulz_near_the_group_and_svd_off_it(n):
    rng = np.random.default_rng(40 + n)
    near = [_off_the_group(rng, n, d) for d in (0.0, 1e-12, 1e-10, 3e-8)
            for _ in range(4)]
    # 2 V is normal, but its norm 2 > sqrt(3) makes Newton-Schulz diverge
    far = [_off_the_group(rng, n, d)[0] for d in (1e-3, 0.5)] \
        + [2.0 * random_special_unitary(rng, n)]
    members = np.stack([u for u, _ in near] + far)
    got = dyn.reunitarize(members)
    # near the group: the polar factor V itself to rounding (the SVD's own
    # W V^dagger is up to 4e-15 from V)
    for (u, v), w in zip(near, got):
        assert np.max(np.abs(w - v)) <= 3e-15
    assert np.max(unitarity_defect(got)) <= 1e-14
    # off it: the SVD's polar factor, bit for bit
    for u, w in zip(far, got[len(near):]):
        assert np.array_equal(w, _svd_polar(u))
    # the form is chosen per member: a member's bits do not depend on its
    # stack, and one matrix is a stack of one
    for k in range(len(members)):
        assert np.array_equal(dyn.reunitarize(members[k]), got[k])
        assert np.array_equal(dyn.reunitarize(members[k:k + 1])[0], got[k])


def test_unitarity_preserved_on_long_grids():
    c = z_drive(omega0=1.1)
    p = const_protocol(c, 0.9, 30.0, 20000)
    traj = dyn.evolve_unitary(p)
    worst = max(np.max(np.abs(dagger(u) @ u - np.eye(2))) for u in traj.unitaries)
    assert worst < 1e-12


# --- costate flow -------------------------------------------------------------

def test_costate_commuting_case_is_constant():
    c = z_drive(omega0=0.9)
    p = const_protocol(c, 0.0, 2.0, 64)
    traj = dyn.evolve_costate(SIGMA_Z, dyn.evolve_unitary(p))
    for f in traj.costates:
        np.testing.assert_allclose(f, SIGMA_Z, atol=1e-12)


def _rk4_costate(h_of_t, f0, t_final, steps):
    """Independent quadrature oracle for i dF/dt = [H, F]."""
    f = f0.astype(complex)
    dt = t_final / steps
    def rate(t, f):
        h = h_of_t(t)
        return -1j * (h @ f - f @ h)
    t = 0.0
    for _ in range(steps):
        k1 = rate(t, f)
        k2 = rate(t + dt / 2, f + dt / 2 * k1)
        k3 = rate(t + dt / 2, f + dt / 2 * k2)
        k4 = rate(t + dt, f + dt * k3)
        f = f + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
    return f


def test_costate_rotation_closed_form_and_quadrature():
    omega0 = 0.7
    c = z_drive(omega0=omega0)
    t_final = 1.3
    p = const_protocol(c, 0.0, t_final, 1024)
    traj = dyn.evolve_costate(SIGMA_X, dyn.evolve_unitary(p))
    expected = (np.cos(2 * omega0 * t_final) * SIGMA_X
                + np.sin(2 * omega0 * t_final) * SIGMA_Y)
    np.testing.assert_allclose(traj.costates[-1], expected, atol=1e-10)
    oracle = _rk4_costate(lambda t: omega0 * SIGMA_Z, SIGMA_X, t_final, 1300)
    np.testing.assert_allclose(traj.costates[-1], oracle, atol=1e-8)


def test_costate_quadrature_cross_check_random_protocols():
    # quadrature oracle aligned with the protocol cells: 4 RK4 substeps per
    # cell with that cell's constant Hamiltonian
    rng = np.random.default_rng(23)
    c = z_drive(omega0=0.5, bound=2.0)
    t_final = 1.0
    cells = 1000
    grid = np.linspace(0, t_final, cells + 1)
    for _ in range(3):
        a, b = rng.uniform(-1, 1, size=2)
        fn = lambda t: np.array([a * np.cos(3 * t) + b])
        p = dyn.protocol_from_function(c, grid, fn, sampling="left")
        f0 = np.array([[0.3, 0.1 - 0.2j], [0.1 + 0.2j, -0.3]])
        traj = dyn.evolve_costate(f0, dyn.evolve_unitary(p))
        f = f0.astype(complex)
        for k in range(cells):
            h_k = c.drift + p.controls[k, 0] * SIGMA_X
            f = _rk4_costate(lambda t: h_k, f, grid[k + 1] - grid[k], 4)
        assert np.max(np.abs(traj.costates[-1] - f)) < 1e-6


def test_costate_isospectral():
    c = z_drive(omega0=1.0)
    p = const_protocol(c, 0.8, 3.0, 512)
    f0 = 0.4 * SIGMA_X - 0.2 * SIGMA_Y + 0.1 * SIGMA_Z
    traj = dyn.evolve_costate(f0, dyn.evolve_unitary(p))
    w0 = np.linalg.eigvalsh(f0)
    for f in traj.costates[:: 64]:
        np.testing.assert_allclose(np.linalg.eigvalsh(f), w0, atol=1e-10)


# --- conservation and boundary ------------------------------------------------

def test_conservation_report_requires_costates():
    c = z_drive()
    p = const_protocol(c, 0.0, 1.0, 8)
    with pytest.raises(MissingCostateError):
        dyn.conservation_report(dyn.evolve_unitary(p))


def test_conservation_exact_for_constant_h():
    c = z_drive(omega0=0.9)
    p = const_protocol(c, 1.2, 2.0, 256)
    f0 = 0.3 * SIGMA_X + 0.25 * SIGMA_Z
    traj = dyn.evolve_costate(f0, dyn.evolve_unitary(p))
    rep = dyn.conservation_report(traj)
    assert rep.hf_drift < 1e-12
    assert rep.f2_drift < 1e-12
    assert rep.unitarity_drift < 1e-10


def _traced_peak(fn):
    """fn's result and the peak of traced allocations above the start."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_long_grid_flows_hold_few_stacks():
    # a 16384-cell SU(3) protocol; one stack of its K + 1 matrices is about
    # 2.4 MB.  The stacked products go through in chunks of 2048 members,
    # so no pass holds more than a few stack-sized arrays
    rng = np.random.default_rng(23)
    basis = tuple(generalized_gellmann(3))
    c = cm.ConstraintSet(3, random_traceless_hermitian(rng, 3, 0.3), basis,
                         cm.Typical(1.0))
    cells = 16384
    w = rng.standard_normal((cells, len(basis)))
    p = dyn.Protocol(c, np.linspace(0.0, 3.0, cells + 1),
                     w / np.linalg.norm(w, axis=1, keepdims=True))
    f0 = random_traceless_hermitian(rng, 3)
    stack, mb = (cells + 1) * 9 * 16, 1e6
    traj, peak = _traced_peak(lambda: dyn.evolve_unitary(p))
    assert peak <= 3 * stack + mb, peak
    traj, peak = _traced_peak(lambda: dyn.evolve_costate(f0, traj))
    assert peak <= 2 * stack + mb, peak
    _, peak = _traced_peak(lambda: dyn.conservation_report(traj))
    assert peak <= 2 * stack + mb, peak


def test_boundary_residual_examples():
    c = z_drive(omega0=0.4)
    p = const_protocol(c, 0.3, 1.0, 32)
    traj = dyn.evolve_unitary(p)
    u = traj.final_unitary
    br = dyn.boundary_residual(traj, u)
    assert br.fidelity < 1e-12 and br.exact < 1e-12
    br = dyn.boundary_residual(traj, -u)
    assert br.fidelity < 1e-12
    assert br.exact == pytest.approx(2 * np.sqrt(2), abs=1e-10)


def test_boundary_residual_random_pairs_in_range():
    from toqc.sun_algebra import random_special_unitary
    c = z_drive(omega0=0.4)
    p = const_protocol(c, 0.3, 1.0, 8)
    traj = dyn.evolve_unitary(p)
    rng = np.random.default_rng(9)
    for _ in range(50):
        tgt = random_special_unitary(rng, 2)
        br = dyn.boundary_residual(traj, tgt)
        assert 0.0 <= br.fidelity <= 1.0


# --- sampling modes ------------------------------------------------------------

def test_midpoint_sampling_is_higher_order():
    # a smoothly rotating control: midpoint sampling should beat left
    # sampling by roughly an order of dt
    omega0, bound = 0.5, 1.0
    c = cm.ConstraintSet(2, omega0 * SIGMA_Z, (SIGMA_X, SIGMA_Y),
                         cm.Typical(bound))
    t_final = 2.0
    hc0 = bound * SIGMA_X

    def controls_at(t):
        frame = exp_op(c.drift, t)
        hc = frame @ hc0 @ dagger(frame)
        return np.array([0.5 * np.trace(hc @ SIGMA_X).real,
                         0.5 * np.trace(hc @ SIGMA_Y).real])

    exact = exp_op(c.drift, t_final) @ exp_op(hc0, t_final)
    errs = {}
    for sampling in ("left", "midpoint"):
        grid = np.linspace(0, t_final, 513)
        p = dyn.protocol_from_function(c, grid, controls_at, sampling=sampling)
        u = dyn.evolve_unitary(p).final_unitary
        errs[sampling] = np.max(np.abs(u - exact))
    assert errs["midpoint"] < errs["left"] / 20
