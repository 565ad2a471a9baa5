import json
import subprocess
import sys

import numpy as np
import pytest

from toqc import cli
from toqc import dynamics as dyn
from toqc import io_formats as iof
from toqc.constraint_model import ConstraintSet, Typical
from toqc.errors import ValidationError
from toqc.scenarios import get_scenario
from toqc.sun_algebra import (
    SIGMA_X,
    SIGMA_Z,
    exp_op,
    expand,
    generalized_gellmann,
    random_special_unitary,
    random_traceless_hermitian,
)


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "toqc", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


# --- codecs ---------------------------------------------------------------------

def test_matrix_roundtrip():
    rng = np.random.default_rng(1)
    a = random_traceless_hermitian(rng, 3)
    np.testing.assert_allclose(iof.matrix_from_json(iof.matrix_to_json(a)), a,
                               atol=1e-16)


def test_matrix_from_json_rejects_garbage():
    with pytest.raises(ValidationError):
        iof.matrix_from_json([[1, 2], [3, 4]])
    with pytest.raises(ValidationError):
        iof.matrix_from_json("nope")
    for bad in (np.nan, np.inf):
        data = iof.matrix_to_json(SIGMA_X)
        data[0][1][1] = bad
        with pytest.raises(ValidationError, match="finite"):
            iof.matrix_from_json(data)


def test_constraint_roundtrip_all_kinds():
    for name in ("landau_zener", "one_qubit_xy", "symmetric_two_qubit"):
        c = get_scenario(name).constraint
        c2 = iof.constraint_from_json(iof.constraint_to_json(c))
        assert c2.dim == c.dim
        np.testing.assert_allclose(c2.drift, c.drift, atol=1e-16)
        assert type(c2.kind) is type(c.kind)
        assert c2.control_names == c.control_names


def test_protocol_roundtrip_with_costate():
    c = get_scenario("landau_zener").constraint
    grid = np.linspace(0, 1, 9)
    p = dyn.Protocol(c, grid, 0.5 * np.ones((8, 1)))
    f0 = SIGMA_Z / 2
    data = iof.protocol_to_json(p, costate0=f0)
    p2, f2 = iof.protocol_from_json(data)
    np.testing.assert_allclose(p2.controls, p.controls)
    np.testing.assert_allclose(f2, f0)


def test_export_plotdata_columns_and_determinism(tmp_path):
    c = ConstraintSet(2, 0.3 * SIGMA_Z, tuple(generalized_gellmann(2)),
                      Typical(1.0))
    grid = np.linspace(0, 1, 33)
    w = np.random.default_rng(4).standard_normal((32, 3))
    p = dyn.Protocol(c, grid, 0.9 * w / np.linalg.norm(w, axis=1, keepdims=True))
    traj = dyn.evolve_costate(0.4 * SIGMA_X, dyn.evolve_unitary(p))
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    iof.export_plotdata(traj, str(path_a))
    iof.export_plotdata(traj, str(path_b))
    assert path_a.read_bytes() == path_b.read_bytes()
    header = path_a.read_text().splitlines()[0].split(",")
    assert header == ["t", "u1", "u2", "u3", "f1", "f2", "f3", "tr_HF", "tr_F2"]
    # every row against a per-row reference; the final point uses the last cell
    table = np.loadtxt(path_a, delimiter=",", skiprows=1)
    hs = p.hamiltonians()
    basis = generalized_gellmann(2)
    for k, f in enumerate(traj.costates):
        cell = min(k, p.n_cells - 1)
        ref = np.concatenate([[grid[k]], p.controls[cell], expand(f, basis),
                              [np.trace(hs[cell] @ f).real, np.trace(f @ f).real]])
        np.testing.assert_allclose(table[k], ref, rtol=0, atol=1e-14)


def test_export_plotdata_omits_costate_columns(tmp_path):
    c = get_scenario("landau_zener").constraint
    p = dyn.Protocol(c, np.linspace(0, 1, 5), np.zeros((4, 1)))
    traj = dyn.evolve_unitary(p)
    path = tmp_path / "t.csv"
    iof.export_plotdata(traj, str(path))
    header = path.read_text().splitlines()[0].split(",")
    assert header == ["t", "u"]


def test_zermelo_trajectory_hf_column_constant(tmp_path):
    from toqc import brachistochrone as br
    res = br.zermelo_solve(0.3 * SIGMA_Z, 1.0, exp_op(SIGMA_X, 1.0),
                           br.ShootingOptions(refine_points=8192))
    path = tmp_path / "z.csv"
    iof.export_plotdata(res.trajectory, str(path))
    lines = path.read_text().splitlines()
    col = lines[0].split(",").index("tr_HF")
    values = np.array([float(l.split(",")[col]) for l in lines[1:]])
    assert np.max(np.abs(values - values[0])) < 1e-8


# --- CLI ------------------------------------------------------------------------

def test_cli_classify_scenario_and_file(tmp_path):
    rc, out, _ = run_cli("classify", "--scenario", "landau_zener")
    assert rc == 0
    assert json.loads(out)["type_label"] == "lotus_leaf"
    cpath = tmp_path / "c.json"
    cpath.write_text(iof.dump_json(
        iof.constraint_to_json(get_scenario("one_qubit_xy").constraint)))
    rc, out, _ = run_cli("classify", "--constraint", str(cpath))
    assert rc == 0
    assert json.loads(out)["typical"] is True


def test_cli_scenario_list_and_show():
    rc, out, _ = run_cli("scenario", "list")
    assert rc == 0
    assert set(json.loads(out)["scenarios"]) == {
        "landau_zener", "one_qubit_xy", "symmetric_two_qubit"}
    rc, out, _ = run_cli("scenario", "show", "symmetric_two_qubit",
                         "--alpha", "0.9")
    data = json.loads(out)
    assert rc == 0
    assert data["singular_time_cost"] == pytest.approx(0.9)
    assert data["classification"]["type_label"] == "lotus_leaf"


def test_cli_glc_interior_and_boundary():
    rc, out, _ = run_cli("glc", "--scenario", "symmetric_two_qubit",
                         "--arc", "interior")
    data = json.loads(out)
    assert rc == 0 and data["verdict"] == "consistent"
    assert "J <= omega0" in data["derived_conditions"]
    rc, out, _ = run_cli("glc", "--scenario", "symmetric_two_qubit",
                         "--arc", "boundary-b1")
    assert rc == 0 and json.loads(out)["verdict"] == "excluded"


def test_cli_glc_from_file(tmp_path):
    c = get_scenario("one_qubit_xy").constraint
    payload = {
        "constraint": iof.constraint_to_json(c),
        "costate": iof.matrix_to_json(SIGMA_Z / 2),
        "controls": [0.0, 0.0],
    }
    path = tmp_path / "glc.json"
    path.write_text(iof.dump_json(payload))
    rc, out, _ = run_cli("glc", "--constraint", str(path))
    data = json.loads(out)
    assert rc == 0
    assert data["verdict"] == "excluded" and data["M"] == 1


def test_cli_glc_refuses_malformed_inputs(tmp_path):
    c = get_scenario("one_qubit_xy").constraint
    good = {
        "constraint": iof.constraint_to_json(c),
        "costate": iof.matrix_to_json(SIGMA_Z / 2),
        "controls": [0.0, 0.0],
    }
    nan_costate = iof.matrix_to_json(SIGMA_Z / 2)
    nan_costate[0][0][0] = float("nan")
    path = tmp_path / "glc.json"
    for change in ({"controls": [float("nan"), 0.0]}, {"controls": 0.3},
                   {"costate": nan_costate}):
        path.write_text(iof.dump_json({**good, **change}))
        rc, out, err = run_cli("glc", "--constraint", str(path))
        assert rc == 2 and out == "" and "Traceback" not in err, (change, rc, err)


@pytest.mark.parametrize("cmd, key, value", [
    ("classify", "kind", {"typical": {}}),
    ("classify", "kind", "box"),
    ("classify", "kind", {"box": {"hi": [1.0]}}),
    ("classify", "dim", "two"),
    ("classify", "control_basis", 3),
    ("classify", "kind", {"typical": {"omega": "x"}}),
    ("classify", "control_names", 5),
    ("evolve", "grid", "abc"),
    ("evolve", "controls", [[0.0], [0.0, 0.1], [0.0], [0.0]]),
    ("glc", "costate", iof.matrix_to_json(np.array([[1.0, 2.0], [0.0, -1.0]]))),
    ("glc", "costate", iof.matrix_to_json(np.diag([3.0, -1.0]))),
], ids=["typical-empty", "kind-string", "box-without-lo", "dim-string",
        "basis-number", "omega-string", "names-number", "grid-string",
        "ragged-controls", "costate-not-hermitian", "costate-with-trace"])
def test_cli_refuses_a_malformed_field(tmp_path, capsys, cmd, key, value):
    # each used to raise a raw KeyError, TypeError or ValueError (exit 1
    # with a traceback), or, for the costates, to be audited as their
    # traceless Hermitian part (exit 0)
    c = get_scenario("landau_zener").constraint
    data = {
        "classify": iof.constraint_to_json(c),
        "evolve": iof.protocol_to_json(
            dyn.Protocol(c, np.linspace(0, 1, 5), np.zeros((4, 1)))),
        "glc": {"constraint": iof.constraint_to_json(c),
                "costate": iof.matrix_to_json(SIGMA_X / 2)},
    }[cmd]
    data[key] = value
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    rc = cli.main([cmd, "--protocol" if cmd == "evolve" else "--constraint",
                   str(path)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


def test_cli_evolve_refuses_non_finite_protocol(tmp_path):
    c = get_scenario("landau_zener").constraint
    p = dyn.Protocol(c, np.linspace(0, 1, 17), np.zeros((16, 1)))
    nan_control = iof.protocol_to_json(p)
    nan_control["controls"][5][0] = float("nan")
    nan_grid = iof.protocol_to_json(p)
    nan_grid["grid"][7] = float("nan")
    path = tmp_path / "p.json"
    for bad in (nan_control, nan_grid):
        path.write_text(iof.dump_json(bad))
        rc, out, err = run_cli("evolve", "--protocol", str(path))
        assert rc == 2 and "finite" in err, (rc, out, err)


def test_cli_evolve_writes_csv_and_report(tmp_path):
    c = get_scenario("landau_zener").constraint
    grid = np.linspace(0, 1, 17)
    p = dyn.Protocol(c, grid, np.zeros((16, 1)))
    ppath = tmp_path / "p.json"
    ppath.write_text(iof.dump_json(iof.protocol_to_json(p, costate0=SIGMA_Z / 2)))
    out_csv = tmp_path / "traj.csv"
    rc, out, _ = run_cli("evolve", "--protocol", str(ppath),
                         "--out", str(out_csv), "--format", "csv")
    assert rc == 0
    report = json.loads(out)
    assert report["conservation"]["f2_drift"] < 1e-12
    assert out_csv.exists()
    # without a costate only the unitarity drift is reported, as in the full report
    c = ConstraintSet(2, 0.3 * SIGMA_Z, tuple(generalized_gellmann(2)), Typical(1.0))
    w = np.random.default_rng(5).standard_normal((300, 3))
    p = dyn.Protocol(c, np.linspace(0, 7, 301), w / np.linalg.norm(w, axis=1)[:, None])
    ppath.write_text(iof.dump_json(iof.protocol_to_json(p)))
    rc, out, _ = run_cli("evolve", "--protocol", str(ppath))
    assert rc == 0
    full = dyn.conservation_report(
        dyn.evolve_costate(SIGMA_Z, dyn.evolve_unitary(p)))
    assert json.loads(out)["conservation"] == {"unitarity_drift": full.unitarity_drift}


def test_cli_evolve_csv_without_out_is_refused(tmp_path):
    # the CSV goes to a file only, so --format csv without --out is an input
    # error, not the JSON report on stdout
    c = get_scenario("landau_zener").constraint
    p = dyn.Protocol(c, np.linspace(0, 1, 17), np.zeros((16, 1)))
    ppath = tmp_path / "p.json"
    ppath.write_text(iof.dump_json(iof.protocol_to_json(p)))
    rc, out, err = run_cli("evolve", "--protocol", str(ppath), "--format", "csv")
    assert rc == 2 and out == "" and "--out" in err, (rc, out, err)
    assert list(tmp_path.iterdir()) == [ppath]


def test_cli_solve_and_zermelo_agree(tmp_path):
    omega0, bound = 0.3, 1.0
    c = ConstraintSet(2, omega0 * SIGMA_Z, tuple(generalized_gellmann(2)),
                      Typical(bound))
    cpath = tmp_path / "full.json"
    cpath.write_text(iof.dump_json(iof.constraint_to_json(c)))
    tpath = tmp_path / "t.json"
    tpath.write_text(iof.dump_json(iof.matrix_to_json(exp_op(SIGMA_X, 0.9))))
    rc, zout, _ = run_cli("zermelo", "--constraint", str(cpath),
                          "--target", str(tpath))
    assert rc == 0
    rc, sout, _ = run_cli("solve", "--constraint", str(cpath),
                          "--target", str(tpath), "--seed", "7",
                          "--grid", "64", "--multistarts", "12")
    assert rc == 0
    z, s = json.loads(zout), json.loads(sout)
    assert s["converged"] and z["converged"]
    assert abs(z["T"] - s["T"]) / z["T"] < 1e-3
    assert s["residual"] < 1e-6


def test_cli_solve_scenario_end_to_end(tmp_path):
    tpath = tmp_path / "t.json"
    tpath.write_text(iof.dump_json(iof.matrix_to_json(
        exp_op(0.6 * SIGMA_X + 0.2 * SIGMA_Z, 1.0))))
    rc, out, _ = run_cli("solve", "--scenario", "one_qubit_xy",
                         "--omega0", "0.3", "--Omega", "1", "--target",
                         str(tpath), "--seed", "7", "--grid", "64",
                         "--multistarts", "12")
    assert rc == 0
    data = json.loads(out)
    assert data["converged"] and data["residual"] < 1e-6


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _, err = run_cli("classify", "--constraint", str(bad))
    assert rc == 2 and "malformed JSON" in err
    rc, _, err = run_cli("classify", "--constraint", str(tmp_path / "none.json"))
    assert rc == 2
    rc, _, err = run_cli("glc", "--scenario", "one_qubit_xy",
                         "--arc", "boundary-q")
    assert rc == 2
    # validation of config values
    rc, _, err = run_cli("solve", "--scenario", "one_qubit_xy",
                         "--alpha", "0.3", "--grid", "4")
    assert rc == 2
    # a target off the unitary group is an input error, not a failed solve
    c = ConstraintSet(2, 0.3 * SIGMA_Z, tuple(generalized_gellmann(2)),
                      Typical(1.0))
    cpath = tmp_path / "full.json"
    cpath.write_text(iof.dump_json(iof.constraint_to_json(c)))
    tpath = tmp_path / "scaled.json"
    tpath.write_text(iof.dump_json(iof.matrix_to_json(1.5 * exp_op(SIGMA_X, 0.9))))
    for command in ("zermelo", "solve"):
        rc, _, err = run_cli(command, "--constraint", str(cpath),
                             "--target", str(tpath))
        assert rc == 2 and "not unitary" in err, (command, rc, err)
    # a residual bar that is not finite and positive is an input error; at
    # inf every residual would pass as converged
    upath = tmp_path / "unitary.json"
    upath.write_text(iof.dump_json(iof.matrix_to_json(exp_op(SIGMA_X, 0.9))))
    for command in ("zermelo", "solve"):
        for tol in ("nan", "inf", "0", "-1"):
            rc, _, err = run_cli(command, "--constraint", str(cpath),
                                 "--target", str(upath), "--tol", tol)
            assert rc == 2 and "residual_tol" in err, (command, tol, rc, err)
    # a negative seed used to reach numpy's generator and die with exit 1
    for args in (("solve", "--scenario", "one_qubit_xy", "--alpha", "0.5"),
                 ("zermelo", "--constraint", str(cpath), "--target", str(upath)),
                 ("glc", "--scenario", "symmetric_two_qubit",
                  "--arc", "boundary-b3")):
        rc, _, err = run_cli(*args, "--seed", "-1")
        assert rc == 2 and "seed" in err, (args, rc, err)


@pytest.mark.parametrize("m_max", ["0", "-1"])
def test_cli_glc_refuses_m_max_below_one(m_max):
    # these used to exit 0 with a verdict although no order was examined
    for arc in ("interior", "boundary-J", "boundary-b3"):
        rc, out, err = run_cli("glc", "--scenario", "symmetric_two_qubit",
                               "--arc", arc, "--m-max", m_max)
        assert rc == 2 and "m_max" in err and out == "", (arc, rc, out, err)


def test_cli_refuses_flags_its_command_does_not_read():
    # zermelo reads no scenario, builds no --alpha target and draws no
    # random numbers
    for flag, value in (("--alpha", "0.5"), ("--scenario", "landau_zener"),
                        ("--seed", "3")):
        rc, _, err = run_cli("zermelo", "--constraint", "c.json",
                             "--target", "t.json", flag, value)
        assert rc == 2 and flag in err, (flag, rc, err)
    rc, _, err = run_cli("classify", "--scenario", "landau_zener",
                         "--grid", "4")
    assert rc == 2 and "--grid" in err


def test_cli_zermelo_branch_cut_at_root_exits_numeric(tmp_path):
    # U_f = -e^{-i H_d pi}: the first root T = pi has e^{i H_d T} U_f = -I,
    # on the branch cut of the logarithm
    drift = 0.3 * SIGMA_Z
    c = ConstraintSet(2, drift, tuple(generalized_gellmann(2)), Typical(1.0))
    cpath = tmp_path / "full.json"
    cpath.write_text(iof.dump_json(iof.constraint_to_json(c)))
    tpath = tmp_path / "t.json"
    tpath.write_text(iof.dump_json(iof.matrix_to_json(-exp_op(drift, np.pi))))
    rc, out, err = run_cli("zermelo", "--constraint", str(cpath),
                           "--target", str(tpath))
    assert rc == 3, err
    data = json.loads(out)
    assert not data["converged"]
    assert "branch cut" in data["message"]


def test_cli_zermelo_tol_sets_the_residual_bar(tmp_path, monkeypatch, capsys):
    # --tol reaches zermelo_solve as residual_tol, and the exit code follows
    # the result's converged flag on both sides of the bar; the navigation
    # residual itself is at rounding level (0 or a few ulps), so the test
    # sets the flag rather than picking a tolerance around that residual
    from dataclasses import replace
    c = ConstraintSet(2, 0.3 * SIGMA_Z, tuple(generalized_gellmann(2)),
                      Typical(1.0))
    cpath = tmp_path / "full.json"
    cpath.write_text(iof.dump_json(iof.constraint_to_json(c)))
    tpath = tmp_path / "t.json"
    tpath.write_text(iof.dump_json(iof.matrix_to_json(exp_op(SIGMA_X, 1.1))))
    args = ["zermelo", "--constraint", str(cpath), "--target", str(tpath)]
    solve, seen = cli.brach.zermelo_solve, []

    def solve_as(converged):
        def wrapped(drift, omega, target, options):
            seen.append(options.residual_tol)
            result = solve(drift, omega, target, options)
            return result if converged is None else replace(result, converged=converged)
        return wrapped

    for tol, converged in (("1e-3", None), ("1e-3", False), ("1e-12", True)):
        monkeypatch.setattr(cli.brach, "zermelo_solve", solve_as(converged))
        rc = cli.main([*args, "--tol", tol])
        out = json.loads(capsys.readouterr().out)
        assert seen[-1] == float(tol)
        if converged is None:    # a real solve sits far below a 1e-3 bar
            assert out["converged"] and out["residual"] < 1e-3
        assert rc == (cli.EXIT_OK if out["converged"] else cli.EXIT_NUMERIC)
        assert converged is None or out["converged"] is converged


def test_cli_classify_refuses_non_finite_bound(tmp_path):
    c = ConstraintSet(2, 0.3 * SIGMA_Z, tuple(generalized_gellmann(2)),
                      Typical(1.0))
    data = iof.constraint_to_json(c)
    data["kind"]["typical"]["omega"] = float("nan")
    cpath = tmp_path / "nan.json"
    cpath.write_text(iof.dump_json(data))
    assert "NaN" in cpath.read_text()
    rc, _, err = run_cli("classify", "--constraint", str(cpath))
    assert rc == 2 and "finite" in err, (rc, err)



def test_cli_refuses_non_finite_scenario_parameters_and_drift(tmp_path):
    # these used to exit 0, classifying a NaN drift or printing Infinity
    for args in (("classify", "--scenario", "landau_zener", "--omega0", "nan"),
                 ("scenario", "show", "landau_zener", "--omega0", "inf"),
                 ("scenario", "show", "one_qubit_xy", "--Omega", "nan")):
        rc, out, err = run_cli(*args)
        assert rc == 2 and "finite" in err and out == "", (args, rc, out, err)
    c = ConstraintSet(2, 0.3 * SIGMA_Z, tuple(generalized_gellmann(2)),
                      Typical(1.0))
    data = iof.constraint_to_json(c)
    data["drift"][0][0][0] = float("nan")
    cpath = tmp_path / "nan_drift.json"
    cpath.write_text(iof.dump_json(data))
    rc, out, err = run_cli("classify", "--constraint", str(cpath))
    assert rc == 2 and "finite" in err and out == "", (rc, out, err)


# each of these used to run, leaving the named input unread; the small
# solve options bound the run that used to happen
SOLVE = ("--grid", "16", "--multistarts", "1")
UNREAD = {
    "classify-scenario-and-file": (
        ("classify", "--scenario", "landau_zener", "--constraint", "{c}"),
        "--constraint"),
    "solve-scenario-and-file": (
        ("solve", "--scenario", "landau_zener", "--alpha", "0.5",
         "--constraint", "{c}", *SOLVE), "--constraint"),
    "glc-scenario-and-file": (
        ("glc", "--scenario", "symmetric_two_qubit", "--arc", "boundary-b3",
         "--constraint", "{glc}"), "--constraint"),
    "classify-file-omega0": (
        ("classify", "--constraint", "{c}", "--omega0", "nan"), "--omega0"),
    "solve-file-Omega": (
        ("solve", "--constraint", "{c}", "--target", "{t}", "--Omega", "2",
         *SOLVE), "--Omega"),
    "glc-file-omega0": (
        ("glc", "--constraint", "{glc}", "--omega0", "0.5"), "--omega0"),
    "scenario-list-omega0": (("scenario", "list", "--omega0", "0.5"), "--omega0"),
    "scenario-list-Omega": (("scenario", "list", "--Omega", "2"), "--Omega"),
    "solve-target-and-alpha": (
        ("solve", "--scenario", "one_qubit_xy", "--target", "{t}",
         "--alpha", "0.5", *SOLVE), "--alpha"),
    "solve-problem-target-and-target": (
        ("solve", "--constraint", "{problem}", "--target", "{t}", *SOLVE),
        "--target"),
    "solve-problem-target-and-alpha": (
        ("solve", "--constraint", "{problem}", "--alpha", "0.5", *SOLVE),
        "--alpha"),
    "scenario-list-alpha": (("scenario", "list", "--alpha", "0.5"), "--alpha"),
    "scenario-list-name": (("scenario", "list", "landau_zener"), "NAME"),
    "glc-file-boundary-arc": (
        ("glc", "--constraint", "{glc}", "--arc", "boundary-b3"), "--arc"),
}


@pytest.fixture
def cli_inputs(tmp_path):
    """Paths of a one_qubit_xy constraint, a glc input, an SU(2) target and
    a shooting problem that holds a target."""
    c = iof.constraint_to_json(get_scenario("one_qubit_xy").constraint)
    files = {
        "c": c,
        "glc": {"constraint": c, "costate": iof.matrix_to_json(SIGMA_Z / 2),
                "controls": [0.0, 0.0]},
        "t": iof.matrix_to_json(exp_op(SIGMA_X, 0.9)),
        "problem": {"constraint": c,
                    "target": iof.matrix_to_json(exp_op(SIGMA_X, 0.6))},
    }
    for key, payload in files.items():
        (tmp_path / f"{key}.json").write_text(iof.dump_json(payload))
    return {key: str(tmp_path / f"{key}.json") for key in files}


@pytest.mark.parametrize("case", sorted(UNREAD))
def test_cli_refuses_an_input_the_run_would_not_read(case, cli_inputs):
    args, flag = UNREAD[case]
    rc, out, err = run_cli(*(a.format(**cli_inputs) for a in args))
    assert rc == 2 and out == "" and f"error: {flag} " in err, (rc, out, err)


def test_cli_classify_reads_a_shooting_problem_file(cli_inputs):
    # the {constraint, target} file that solve --constraint takes classifies
    # as its constraint does
    rc, bare, err = run_cli("classify", "--constraint", cli_inputs["c"])
    assert rc == 0, err
    rc, problem, err = run_cli("classify", "--constraint", cli_inputs["problem"])
    assert rc == 0 and problem == bare, err


@pytest.mark.parametrize("source", [("--scenario", "landau_zener"),
                                    ("--constraint", "{glc}")])
def test_cli_glc_accepts_a_seed_it_does_not_read(source, cli_inputs):
    # the seed drives only the boundary study; the interior and file audits
    # accept it, so that one argv serves every arc
    args = ("glc", *(a.format(**cli_inputs) for a in source))
    rc, plain, _ = run_cli(*args)
    rc_seeded, seeded, err = run_cli(*args, "--seed", "5")
    assert rc == rc_seeded == 0 and plain == seeded, err


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
def test_cli_refuses_a_non_finite_alpha(alpha):
    # show used to exit 0 printing NaN or -Infinity (not JSON); solve said
    # only that the target is not unitary
    for command in (("scenario", "show", "landau_zener"),
                    ("solve", "--scenario", "landau_zener")):
        rc, out, err = run_cli(*command, f"--alpha={alpha}")
        assert rc == 2 and "--alpha" in err and "finite" in err and out == "", \
            (command, rc, out, err)


def test_cli_dump_json_deterministic(tmp_path):
    payload = {"b": 1.0 / 3.0, "a": [1, 2, {"z": 0.1}]}
    t1 = iof.dump_json(payload)
    t2 = iof.dump_json(json.loads(t1))
    assert t1 == t2


def test_cli_unknown_command_exits_2():
    rc, out, err = run_cli("fly")
    assert rc == 2 and out == "" and "invalid choice: 'fly'" in err, (rc, err)


def test_cli_solve_without_a_converged_start_exits_numeric(tmp_path, capsys):
    # the best unconverged start is reported on stdout, with exit 3
    target = random_special_unitary(np.random.default_rng(0), 2)
    tpath = tmp_path / "T0.json"
    tpath.write_text(iof.dump_json(iof.matrix_to_json(target)))
    rc = cli.main(["solve", "--scenario", "landau_zener", "--omega0", "0.5",
                   "--Omega", "1", "--target", str(tpath), "--grid", "16",
                   "--multistarts", "2"])
    out = capsys.readouterr().out
    expected = cli.brach.solve_shooting(cli.brach.ShootingProblem(
        get_scenario("landau_zener", 0.5, 1.0).constraint, target,
        cli.brach.ShootingOptions(grid_points=16, multistarts=2)))
    assert rc == cli.EXIT_NUMERIC
    assert out == iof.dump_json(expected.as_dict())
    assert json.loads(out)["message"] == "no start converged; best residual reported"


def test_cli_solve_on_a_degenerate_problem_exits_numeric(singular_starts, capsys):
    rc = cli.main(["solve", "--scenario", "landau_zener", "--alpha", "0.5",
                   "--grid", "16", "--multistarts", "2"])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_NUMERIC and captured.out == ""
    assert "singular-arc analysis" in captured.err


def test_cli_solve_output_protocol_feeds_evolve(tmp_path):
    # round-trip: the protocol block of a solve result is a valid evolve input
    c = ConstraintSet(2, np.zeros((2, 2), complex),
                      tuple(generalized_gellmann(2)), Typical(1.0))
    cpath = tmp_path / "c.json"
    cpath.write_text(iof.dump_json(iof.constraint_to_json(c)))
    tpath = tmp_path / "t.json"
    tpath.write_text(iof.dump_json(iof.matrix_to_json(exp_op(SIGMA_X, 0.8))))
    rpath = tmp_path / "result.json"
    rc, _, err = run_cli("solve", "--constraint", str(cpath), "--target",
                         str(tpath), "--seed", "3", "--grid", "64",
                         "--multistarts", "8", "--out", str(rpath))
    assert rc == 0, err
    result = json.loads(rpath.read_text())
    ppath = tmp_path / "protocol.json"
    ppath.write_text(iof.dump_json(result["protocol"]))
    rc, out, err = run_cli("evolve", "--protocol", str(ppath))
    assert rc == 0, err
    report = json.loads(out)
    assert report["conservation"]["hf_drift"] < 1e-8


def test_cli_solve_accepts_problem_artifact(tmp_path):
    c = ConstraintSet(2, np.zeros((2, 2), complex),
                      tuple(generalized_gellmann(2)), Typical(1.0))
    problem = {
        "constraint": iof.constraint_to_json(c),
        "target": iof.matrix_to_json(exp_op(SIGMA_X, 0.6)),
    }
    path = tmp_path / "problem.json"
    path.write_text(iof.dump_json(problem))
    rc, out, err = run_cli("solve", "--constraint", str(path), "--seed", "1",
                           "--grid", "64", "--multistarts", "8")
    assert rc == 0, err
    assert json.loads(out)["converged"]
