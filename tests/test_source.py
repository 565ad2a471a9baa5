"""Static checks on the package source."""

import ast
import pathlib
import subprocess
import sys

import numpy as np

import toqc
from toqc import brachistochrone as br
from toqc.constraint_model import ConstraintSet, Typical
from toqc.sun_algebra import SIGMA_Z, generalized_gellmann, random_special_unitary

SRC = pathlib.Path(toqc.__file__).parent
BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def unused_imports(path: pathlib.Path) -> list[str]:
    """Names a module imports but never reads and does not list in __all__."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    exported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in sorted(imported.items())
            if name not in read and name not in exported]


def test_no_unused_imports():
    # the package __init__ is the public facade: its imports are re-exports
    modules = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    assert len(modules) > 5
    unused = [entry for p in modules for entry in unused_imports(p)]
    assert not unused, "unused imports: " + ", ".join(unused)


def test_no_function_local_package_imports():
    # package modules import each other at the module head, so the import
    # graph is visible there; third-party imports may still be deferred
    local = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                          if isinstance(node, ast.ImportFrom) and node.level > 0]
    assert not local, "function-local package imports: " + ", ".join(local)


def test_every_tolerance_is_read():
    tree = ast.parse((SRC / "tolerances.py").read_text(encoding="utf-8"))
    cls = next(n for n in tree.body
               if isinstance(n, ast.ClassDef) and n.name == "Tolerances")
    fields = {n.target.id for n in cls.body if isinstance(n, ast.AnnAssign)}
    read = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in {"tol", "DEFAULT_TOL"}):
                read.add(node.attr)
    assert len(fields) > 5
    assert fields <= read, "Tolerances fields never read: " + ", ".join(
        sorted(fields - read))


def unread_parameters(path: pathlib.Path) -> list[str]:
    """Parameters of a module's functions that their bodies never read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unread = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = fn.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
        read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [f"{path.name}:{fn.lineno} {fn.name}.{p}"
                   for p in params if p not in read]
    return unread


def test_every_parameter_is_read():
    # a parameter no body reads is a knob that changes nothing
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    unread = [entry for p in modules for entry in unread_parameters(p)]
    assert not unread, "parameters never read: " + ", ".join(unread)


BOUND_FIELDS = {"omega", "lo", "hi", "radius", "metric"}
BOUND_KINDS = {"Typical", "Box", "BallInCoords", "Kind"}


def names_a_kind(annotation: ast.expr | None) -> bool:
    return annotation is not None and any(
        (isinstance(n, ast.Name) and n.id in BOUND_KINDS)
        or (isinstance(n, ast.Attribute) and n.attr in BOUND_KINDS)
        for n in ast.walk(annotation))


def bound_field_reads(path: pathlib.Path) -> list[str]:
    """Reads of a bound kind's declared fields: x.kind.<field>, or
    k.<field> for a name k assigned from some x.kind or a parameter k
    annotated with a bound kind."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases = {t.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
               and isinstance(node.value, ast.Attribute) and node.value.attr == "kind"
               for t in node.targets if isinstance(t, ast.Name)}
    aliases |= {a.arg for node in ast.walk(tree) if isinstance(node, ast.arguments)
                for a in node.posonlyargs + node.args + node.kwonlyargs
                if names_a_kind(a.annotation)}

    def is_kind(v: ast.expr) -> bool:
        return (isinstance(v, ast.Attribute) and v.attr == "kind") or (
            isinstance(v, ast.Name) and v.id in aliases)

    return [f"{path.name}:{n.lineno} .{n.attr}" for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and n.attr in BOUND_FIELDS
            and is_kind(n.value)]


def test_only_the_constraint_model_reads_the_bound(tmp_path):
    # ConstraintSet resolves every kind to a box or a ball (and its speed);
    # the solvers, the audit and the boundary study read that, so a second
    # copy of the geometry cannot drift from the first.  Serialization
    # writes the declared fields, and the zermelo command passes omega on
    owners = {"constraint_model.py", "io_formats.py", "cli.py"}
    modules = [p for p in sorted(SRC.glob("*.py")) if p.name not in owners]
    assert len(modules) > 5
    reads = [entry for p in modules for entry in bound_field_reads(p)]
    assert not reads, "bound fields read outside the constraint model: " + \
        ", ".join(reads)
    assert bound_field_reads(SRC / "io_formats.py")   # the scan sees reads
    probe = tmp_path / "probe.py"
    probe.write_text("def f(active: Optional[BallInCoords]):\n"
                     "    return active.metric\n")
    assert bound_field_reads(probe) == ["probe.py:2 .metric"]


def test_cli_import_leaves_sympy_unloaded():
    # every toqc process pays for the import; sympy is loaded only by the
    # symbolic arc analysis that needs it
    code = "import sys, toqc.cli; print('sympy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_numeric_glc_run_leaves_sympy_unloaded():
    # a boundary-arc audit runs only the numeric GLC engine, which shares
    # its recurrence with the symbolic one but must not import sympy
    code = ("import contextlib, io, sys, toqc.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rc = toqc.cli.main(['glc', '--scenario', 'symmetric_two_qubit',"
            " '--arc', 'boundary-b3'])\n"
            "print(rc, 'sympy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "0 False"


def test_imports_leave_scipy_unloaded():
    # scipy is imported only inside the solvers that call it (shooting,
    # navigation, log_op, singular_replacement); every toqc process pays for
    # the package import, and most commands never reach those solvers
    code = ("import sys, toqc, toqc.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_glc_runs_leave_scipy_unloaded():
    # the singular-arc audits, symbolic (interior) and numeric (boundary),
    # call no scipy function
    code = ("import contextlib, io, sys, toqc.cli\n"
            "for arc in ('boundary-b3', 'interior'):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        rc = toqc.cli.main(['glc', '--scenario', 'symmetric_two_qubit',"
            " '--arc', arc])\n"
            "    print(rc, sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines() == ["0 []", "0 []"]


def test_bench_tracer_reaches_every_shooting_layer(monkeypatch):
    # the benchmark's per-layer numbers bind the shooting helpers by name and
    # read their results; a refactor that renames a helper or reshapes what
    # it returns would leave those numbers absent or broken
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer
    c = ConstraintSet(2, 0.3 * SIGMA_Z, tuple(generalized_gellmann(2)), Typical(1.0))
    target = random_special_unitary(np.random.default_rng(4), 2)
    opts = br.ShootingOptions(grid_points=32, multistarts=8, seed=40,
                              stop_after_converged=2, refine_points=512)
    with tracer.Tracer() as t:
        res = br.solve_shooting(br.ShootingProblem(c, target, opts))
    assert res.converged
    layers = {tg.layer for tg in t.targets if tg.layer.startswith("brachistochrone.")}
    shooting = layers - {"brachistochrone.zermelo_solve"}
    assert not layers & (t.absent | t.broken)
    assert all(t.stats[layer]["calls"] > 0 for layer in shooting)
    assert t.stats["brachistochrone._coupled_flow.dense"]["calls"] == 1
