"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints one PASS/FAIL line (visible with `pytest -s` or in captured output).
The solves of criteria 3 and 4 come from session fixtures, so the
conservation sweep of criterion 5 reuses them and still runs on its own.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from toqc import brachistochrone as br
from toqc import dynamics as dyn
from toqc import io_formats as iof
from toqc.arc_analysis import boundary_closure_study, derive_singular_structure
from toqc.constraint_model import BallInCoords, ConstraintSet, Typical
from toqc.scenarios import get_scenario, singular_replacement, triplet_operators
from toqc.singular_glc import (
    ControlChart,
    boundary_reduce,
    glc_matrices,
    glc_test,
    normalized_singular_costate,
    reparametrization_check,
)
from toqc.sun_algebra import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    dagger,
    exp_op,
    expand,
    gellmann_basis,
    generalized_gellmann,
    hs_norm,
    random_special_unitary,
    random_traceless_hermitian,
    reconstruct,
)


def _report(num: int, label: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    tail = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:2d}: {status} - {label}{tail}")
    assert passed, f"criterion {num} failed: {label} {tail}"


def test_01_su3_operator_tables():
    ok = True
    gm = gellmann_basis()
    printed = [
        np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], complex),
        np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], complex),
        np.diag([1.0, -1.0, 0.0]).astype(complex),
        np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], complex),
        np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]], complex),
        np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], complex),
        np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]], complex),
        np.diag([1.0, 1.0, -2.0]).astype(complex) / np.sqrt(3),
    ]
    for a, b in zip(gm, printed):
        ok &= np.max(np.abs(a - b)) < 1e-12
    ops = triplet_operators()
    s2, s3 = np.sqrt(2), np.sqrt(3)
    expansions = {
        "Sigma_x_tilde": gm[3] - gm[2] / 2 + gm[7] / (2 * s3),
        "Sigma_z_tilde": gm[2] - gm[7] / s3,
        "S1": (gm[0] + gm[5]) / s2,
        "S2": (gm[1] + gm[6]) / s2,
        "S3": (gm[2] + s3 * gm[7]) / 2,
    }
    tables = {
        "S1": np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], complex) / s2,
        "S2": np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], complex) / s2,
        "S3": np.diag([1.0, 0.0, -1.0]).astype(complex),
        "Sigma_x_tilde": np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]],
                                  complex) - np.eye(3) / 3,
        "Sigma_z_tilde": np.diag([1.0, -1.0, 1.0]).astype(complex) - np.eye(3) / 3,
    }
    for name in tables:
        ok &= np.max(np.abs(ops[name] - tables[name])) < 1e-12
        ok &= np.max(np.abs(ops[name] - expansions[name])) < 1e-12
    gram = np.array([[np.trace(a @ b).real for b in gm] for a in gm])
    ok &= np.max(np.abs(gram - 2 * np.eye(8))) < 1e-12
    _report(1, "su(3) operator tables and expansions to 1e-12", bool(ok))


def test_02_navigation_closed_form_reproduction():
    rng = np.random.default_rng(2)
    worst = 0.0
    t_final = 2.0
    for n in (2, 3):
        for _ in range(10):
            drift = random_traceless_hermitian(rng, n, scale=0.5)
            hc0 = random_traceless_hermitian(rng, n, scale=0.8)
            omega = hs_norm(hc0)
            c = ConstraintSet(n, drift, tuple(generalized_gellmann(n)),
                              Typical(omega + 1e-9))

            def controls_at(t):
                frame = exp_op(drift, t)
                hc = frame @ hc0 @ dagger(frame)
                return expand(hc, list(c.control_basis))

            grid = np.linspace(0.0, t_final, 2049)
            p = dyn.protocol_from_function(c, grid, controls_at,
                                           sampling="midpoint")
            traj = dyn.evolve_unitary(p)
            exact = exp_op(drift, t_final) @ exp_op(hc0, t_final)
            worst = max(worst, dyn.boundary_residual(traj, exact).fidelity)
    _report(2, "closed-form navigation flow vs dense propagation < 1e-8",
            worst < 1e-8, f"worst fidelity residual {worst:.2e}")


@pytest.fixture(scope="session")
def geodesic_runs():
    """(target, shooting result) for 10 drift-free SU(2) targets."""
    rng = np.random.default_rng(3)
    c = ConstraintSet(2, np.zeros((2, 2), complex),
                      tuple(generalized_gellmann(2)), Typical(1.0))
    opts = br.ShootingOptions(grid_points=64, multistarts=16, seed=30,
                              stop_after_converged=3, refine_points=4096)
    runs = []
    for _ in range(10):
        target = random_special_unitary(rng, 2)
        runs.append((target, br.solve_shooting(br.ShootingProblem(c, target, opts))))
    return runs


@pytest.fixture(scope="session")
def oracle_runs():
    """(navigation, shooting) result pairs for 20 SU(2) targets under drift."""
    rng = np.random.default_rng(4)
    omega0, bound = 0.3, 1.0
    drift = omega0 * SIGMA_Z
    c = ConstraintSet(2, drift, tuple(generalized_gellmann(2)), Typical(bound))
    opts = br.ShootingOptions(grid_points=96, multistarts=32, seed=40,
                              stop_after_converged=3, refine_points=16384)
    runs = []
    for _ in range(20):
        target = random_special_unitary(rng, 2)
        runs.append((br.zermelo_solve(drift, bound, target),
                     br.solve_shooting(br.ShootingProblem(c, target, opts))))
    return runs


def test_03_drift_free_geodesic_by_shooting(geodesic_runs):
    worst_var, worst_rel = 0.0, 0.0
    ok = True
    for target, res in geodesic_runs:
        geo = br.drift_free_geodesic(target, 1.0)
        ok &= res.converged
        var = float(np.max(np.ptp(res.protocol.controls, axis=0)))
        rel = abs(res.T - geo["T"]) / geo["T"]
        worst_var = max(worst_var, var)
        worst_rel = max(worst_rel, rel)
    ok &= worst_var < 1e-4 and worst_rel < 1e-3
    _report(3, "drift-free shooting: constant control, T matches geodesic",
            bool(ok), f"control variation {worst_var:.2e}, dT/T {worst_rel:.2e}")


def test_04_shooting_vs_navigation_oracle(oracle_runs):
    worst_res, worst_rel = 0.0, 0.0
    ok = True
    for z, s in oracle_runs:
        ok &= z.converged and s.converged
        worst_res = max(worst_res, s.residual, z.residual)
        worst_rel = max(worst_rel, abs(z.T - s.T) / z.T)
    ok &= worst_res < 1e-6 and worst_rel < 1e-3
    _report(4, "shooting vs navigation oracle on 20 SU(2) instances",
            bool(ok), f"worst residual {worst_res:.2e}, worst dT/T {worst_rel:.2e}")


def test_05_conservation_suite(geodesic_runs, oracle_runs):
    results = [res for _, res in geodesic_runs]
    results += [res for pair in oracle_runs for res in pair]
    worst_hf = worst_f2 = worst_u = 0.0
    for res in results:
        rep = res.conservation
        worst_hf = max(worst_hf, rep.hf_drift)
        worst_f2 = max(worst_f2, rep.f2_drift)
        worst_u = max(worst_u, rep.unitarity_drift)
    ok = worst_hf < 1e-8 and worst_f2 < 1e-12 and worst_u < 1e-10
    _report(5, "conserved traces on every converged result", bool(ok),
            f"tr[HF] {worst_hf:.2e}, tr[F^2] {worst_f2:.2e}, unitarity {worst_u:.2e}")


def test_06_one_qubit_transverse_exclusion():
    omega0 = 0.6
    chart = ControlChart((SIGMA_X, SIGMA_Y))
    f = SIGMA_Z / 2  # tr[sz F] = 1
    h = omega0 * SIGMA_Z
    q1 = glc_matrices(chart, h, f, 1)[0]
    entry_ok = abs(q1[0, 1] - 2 * np.trace(SIGMA_Z @ f).real) < 1e-10
    rep = glc_test(chart, h, f)
    ok = entry_ok and rep.verdict == "excluded" and rep.order == 1
    _report(6, "transverse-control singular arc excluded, Q1_12 = 2 tr[sz F]",
            bool(ok), f"Q1_12 = {q1[0, 1]:.12f}")


def test_07_two_qubit_interior_first_and_second_order():
    gm = gellmann_basis()
    ops = triplet_operators()
    frame = (ops["S1"], ops["S2"], ops["S3"], ops["Sigma_z_tilde"])
    chart = ControlChart(frame)
    omega0, j_val = 1.0, 0.4
    root8 = 4 * np.sqrt(2)

    # first order on the unrestricted singular family
    f1, f2, f4 = 0.21, -0.34, 0.5
    f = f1 * (gm[0] - gm[5]) + f2 * (gm[1] - gm[6]) + f4 * gm[3]
    h = omega0 * ops["Sigma_x_tilde"] + 0.1 * ops["S1"] \
        + 0.4 * ops["Sigma_z_tilde"]
    q1 = glc_matrices(chart, h, f, 1)[0]
    ok = abs(q1[3, 0] - root8 * f2) < 1e-9
    ok &= abs(q1[0, 3] + root8 * f2) < 1e-9
    ok &= abs(q1[3, 1] + root8 * f1) < 1e-9
    ok &= abs(q1[1, 3] - root8 * f1) < 1e-9

    # second order on the restricted arc
    f = f4 * gm[3]
    h = omega0 * ops["Sigma_x_tilde"] + j_val * ops["Sigma_z_tilde"]
    q2 = glc_matrices(chart, h, f, 2)[1]
    expected = 4 * np.diag([j_val * f4, (omega0 - j_val) * f4,
                            2 * f4 * omega0, 0.0])
    ok &= np.max(np.abs(q2 - expected)) < 1e-9

    # derived conditions of the interior study
    sc = get_scenario("symmetric_two_qubit")
    rep = derive_singular_structure(sc.arc_model())
    expected_conditions = {
        "f1 = 0", "f2 = 0", "f3 = 0", "f5 = 0", "f6 = 0", "f7 = 0", "f8 = 0",
        "b1 = 0", "b2 = 0", "b3 = 0", "f4 >= 0", "J >= 0", "J <= omega0"}
    ok &= set(rep.derived_conditions) == expected_conditions
    ok &= rep.verdict == "consistent"
    _report(7, "two-qubit interior arc: Q1/Q2 values and derived conditions",
            bool(ok), f"conditions = {sorted(rep.derived_conditions)}")


def test_08_two_qubit_boundary_exclusions():
    sc = get_scenario("symmetric_two_qubit", omega0=1.0, Omega=2.0)
    verdicts = {}
    exchange_report = None
    for case in sc.boundary_cases:
        rep = boundary_closure_study(sc.constraint, case, seed=8)
        verdicts[case.name] = rep.verdict
        if case.name == "J":
            exchange_report = rep
    ok = all(v == "excluded" for v in verdicts.values())
    # the exchange-saturated chart must fail the even-order sign test
    # (Omega > omega0 makes one eigenvalue of Q2 negative)
    ok &= exchange_report.order == 2 and not exchange_report.sign_ok
    ok &= max(exchange_report.eigenvalues_at_order) > 0
    _report(8, "all quadratic-boundary singular arcs excluded",
            bool(ok), f"verdicts {verdicts}, exchange chart eigs "
                      f"{tuple(round(e, 3) for e in exchange_report.eigenvalues_at_order)}")


def test_09_reparametrization_invariance():
    rng = np.random.default_rng(9)
    gm = gellmann_basis()
    ops = triplet_operators()
    frame = (ops["S1"], ops["S2"], ops["S3"], ops["Sigma_z_tilde"])
    f = 0.13 * (gm[0] - gm[5]) - 0.4 * (gm[1] - gm[6]) + 0.6 * gm[3]
    h = ops["Sigma_x_tilde"] + 0.25 * ops["Sigma_z_tilde"] + 0.1 * ops["S2"]
    ok = True
    for _ in range(50):
        jac = rng.standard_normal((4, 4))
        while abs(np.linalg.det(jac)) < 0.1:
            jac = rng.standard_normal((4, 4))
        partials_a = tuple(
            sum(jac[k, i] * frame[k] for k in range(4)) for i in range(4))
        ok &= reparametrization_check(ControlChart(partials_a),
                                      ControlChart(frame), jac, h, f)
    _report(9, "GLC congruence under 50 random chart reparametrizations",
            bool(ok))


def test_10_recurrence_vs_closed_forms():
    rng = np.random.default_rng(10)
    worst = 0.0
    for trial in range(100):
        n = 2 if trial % 2 == 0 else 3
        partials = tuple(random_traceless_hermitian(rng, n) for _ in range(3))
        f = random_traceless_hermitian(rng, n)
        u = rng.standard_normal(3)
        du = rng.standard_normal(3)
        h = random_traceless_hermitian(rng, n) + sum(
            ui * hi for ui, hi in zip(u, partials))
        h_dot = sum(di * hi for di, hi in zip(du, partials))
        chart = ControlChart(partials, u=u, du_dt=du)
        qs = glc_matrices(chart, h, f, 3)
        l = len(partials)
        for i in range(l):
            for j in range(l):
                hi, hj = partials[i], partials[j]
                c1 = (-1j * np.trace((hi @ hj - hj @ hi) @ f)).real
                a = h @ hi - hi @ h
                c2 = np.trace((a @ hj - hj @ a) @ f).real
                b = h @ a - a @ h
                c3 = (1j * np.trace((b @ hj - hj @ b) @ f)).real
                cdot = h_dot @ hi - hi @ h_dot
                c3 += np.trace((cdot @ hj - hj @ cdot) @ f).real
                worst = max(worst, abs(qs[0][i, j] - c1),
                            abs(qs[1][i, j] - c2), abs(qs[2][i, j] - c3))
    _report(10, "recurrence vs closed forms on 100 planar draws",
            worst < 1e-9, f"worst entry deviation {worst:.2e}")


def test_11_lollipop_infeasibility():
    rng = np.random.default_rng(11)
    from toqc.constraint_model import _orthonormalize
    ok = True
    for _ in range(10):
        n = int(rng.choice([2, 3]))
        l = int(rng.integers(1, n * n - 1))
        frame = _orthonormalize(np.stack(
            [random_traceless_hermitian(rng, n) for _ in range(l)]))
        weights = rng.standard_normal(len(frame))
        weights /= max(np.linalg.norm(weights), 1e-3)
        drift = np.einsum("j,jab->ab", weights, frame)
        c = ConstraintSet(n, drift, tuple(frame), Typical(1.0))
        ok &= normalized_singular_costate(c) is None
    _report(11, "lollipop constraints admit no normalized singular costate",
            bool(ok))


def test_12_singular_replacement():
    omega0, bound = 1.0, 2.0
    sc = get_scenario("symmetric_two_qubit", omega0=omega0, Omega=bound)
    ops = triplet_operators()
    sx, sz = ops["Sigma_x_tilde"], ops["Sigma_z_tilde"]
    grid = np.linspace(0.0, 1.0, 4097)
    arcs = {
        "constant": (np.full_like(grid, 0.8), 0.8),
        "ramp": (0.9 * grid, 0.45),
        "sin2": (omega0 * np.sin(np.pi * grid) ** 2, omega0 / 2),
        "decay": (1.5 * np.exp(-2.0 * grid), 1.5 * (1 - np.exp(-2.0)) / 2.0),
        "beats": (0.7 + 0.5 * np.sin(4 * np.pi * grid) * np.sin(np.pi * grid),
                  None),
    }
    worst = 0.0
    ok = True
    for name, (j_arc, integral_exact) in arcs.items():
        out = singular_replacement(grid, j_arc, Omega=bound)
        if integral_exact is not None:
            ok &= abs(out["integral"] - integral_exact) < 1e-8
        # reference endpoint: commuting closed form with the arc integral
        u_ref = exp_op(omega0 * sx, 1.0) @ exp_op(sz, out["integral"])
        t3 = out["t3"]
        u_rep = exp_op(omega0 * sx, 1.0 - t3) @ exp_op(
            omega0 * sx + bound * sz, t3)
        worst = max(worst, float(np.max(np.abs(u_rep - u_ref))))
        # execution-level check through the propagator
        cells = 512
        g2 = np.linspace(0.0, 1.0, cells + 1)
        controls = np.zeros((cells, 4))
        controls[:, 3] = np.where(0.5 * (g2[:-1] + g2[1:]) < t3, bound, 0.0)
        # snap the switch to a grid point for an exact two-piece protocol
        k3 = int(round(t3 * cells))
        controls[:, 3] = 0.0
        controls[:k3, 3] = bound
        g2 = np.concatenate([np.linspace(0, t3, k3 + 1)[:-1],
                             np.linspace(t3, 1.0, cells - k3 + 1)])
        p = dyn.Protocol(sc.constraint, g2, controls)
        traj = dyn.evolve_unitary(p)
        worst = max(worst, float(np.max(np.abs(traj.final_unitary - u_ref))))
    ok &= worst < 1e-8
    _report(12, "two-piece replacement reproduces singular-arc endpoints",
            bool(ok), f"worst endpoint deviation {worst:.2e}")


def test_13_determinism(tmp_path):
    c = ConstraintSet(2, 0.3 * SIGMA_Z, tuple(generalized_gellmann(2)),
                      Typical(1.0))
    cpath = tmp_path / "c.json"
    cpath.write_text(iof.dump_json(iof.constraint_to_json(c)))
    tpath = tmp_path / "t.json"
    tpath.write_text(iof.dump_json(iof.matrix_to_json(
        exp_op(0.7 * SIGMA_X - 0.2 * SIGMA_Y, 1.1))))
    outputs = []
    for run in (1, 2):
        opath = tmp_path / f"r{run}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "toqc", "solve", "--constraint",
             str(cpath), "--target", str(tpath), "--seed", "7", "--grid",
             "64", "--multistarts", "8", "--out", str(opath)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append(opath.read_bytes())
    ok = outputs[0] == outputs[1]
    detail = f"{len(outputs[0])} bytes each"
    _report(13, "identical config + seed give byte-identical solve JSON",
            bool(ok), detail)
