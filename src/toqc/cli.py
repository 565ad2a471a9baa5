"""Command-line interface.

Subcommands: classify, evolve, solve, glc, zermelo, scenario.  Each
subparser takes only the flags its command reads (``_COMMANDS``), so any
other flag exits 2, and carries its command, which runs from the parsed
``argparse.Namespace``.  A flag that is not given leaves the default of
what reads it in force: ``ShootingOptions`` for the shooting flags,
``boundary_closure_study`` for the glc seed, ``_FLAGS`` for the rest.  An
input the run would not read also exits 2: --scenario with --constraint,
--omega0 or --Omega without --scenario, --target with --alpha, either of
them with a problem file that holds a target, a boundary --arc with a glc
input file, and anything but --out on ``scenario list``.  A new flag goes
in ``_FLAGS``, in the flag list of its commands in ``_COMMANDS``, and in
the commands that read it.
Structured results are printed as JSON (or written with --out); time series
go to CSV.
Exit codes: 0 success, 2 validation error, 3 numeric non-convergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

import numpy as np

from . import brachistochrone as brach
from .arc_analysis import boundary_closure_study, derive_singular_structure
from .constraint_model import Typical, classify
from .dynamics import conservation_report, evolve_costate, evolve_unitary
from .errors import DegenerateProblemError, ToqcError, ValidationError
from .io_formats import (
    constraint_from_json,
    dump_json,
    export_plotdata,
    matrix_from_json,
    matrix_to_json,
    protocol_from_json,
)
from .scenarios import get_scenario, SCENARIOS
from .singular_glc import ControlChart, glc_test
from .sun_algebra import exp_op, require_traceless_hermitian, unitarity_defect

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3


def _load_json(path: str, what: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ValidationError(f"{what}: file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{what}: malformed JSON in {path}: {exc}") from exc


def _emit(payload: dict, args: argparse.Namespace) -> None:
    text = dump_json(payload, args.out)
    if args.out is None:
        sys.stdout.write(text)


def _given(args: argparse.Namespace, names: tuple[str, ...]) -> dict:
    """The given flags among ``names``, keyed by dest, so that the callee's
    own default holds for the others."""
    return {k: getattr(args, k) for k in names if getattr(args, k, None) is not None}


def _refuse(inputs: dict, why: str) -> None:
    """Exit 2 naming the first given input of ``inputs`` (flag -> value),
    which the run would not read."""
    for flag, value in inputs.items():
        if value is not None:
            raise ValidationError(f"{flag} is not read {why}")


def _options(args: argparse.Namespace) -> brach.ShootingOptions:
    # ShootingOptions alone checks the grid floor, counts, seed and tol
    return brach.ShootingOptions(**_given(
        args, ("grid_points", "multistarts", "seed", "residual_tol")))


def _source(args: argparse.Namespace, what: str):
    """Where classify, solve and glc take their system from: (the scenario
    of --scenario with its --omega0/--Omega overrides, None), or else (None,
    the JSON of --constraint)."""
    if args.scenario is not None:
        _refuse({"--constraint": args.constraint},
                "with --scenario: give one of them")
        return get_scenario(args.scenario, omega0=args.omega0,
                            Omega=args.Omega), None
    _refuse({"--omega0": args.omega0, "--Omega": args.Omega},
            "without --scenario: it overrides a scenario parameter")
    if args.constraint is None:
        raise ValidationError(f"{args.command} needs --scenario or --constraint")
    data = _load_json(args.constraint, what)
    if not isinstance(data, dict):
        raise ValidationError(f"{what}: expected a JSON object in {args.constraint}")
    return None, data


def _constraint_file(data: dict):
    """The constraint of a --constraint file and the target it holds (None
    when it holds none): a bare constraint, or the shooting-problem artifact
    {constraint, target (optional)}.  classify and solve read it here."""
    if "constraint" not in data:
        return constraint_from_json(data), None
    target = data.get("target")
    return (constraint_from_json(data["constraint"], "problem.constraint"),
            None if target is None else matrix_from_json(target, "problem.target"))


def _drift_axis_target(drift: np.ndarray, omega0: Optional[float],
                       alpha: float) -> np.ndarray:
    """The ``--alpha`` target exp(-i alpha H_d / omega0)."""
    if not np.isfinite(alpha):
        raise ValidationError(f"--alpha must be finite, got {alpha!r}")
    if omega0 is None or omega0 == 0:
        raise ValidationError("--alpha needs a scenario with a drift scale")
    return exp_op(drift / omega0, alpha)


def _target_file(path: str) -> np.ndarray:
    data = _load_json(path, "target")
    if isinstance(data, dict) and "target" in data:
        data = data["target"]
    return matrix_from_json(data, "target")


def _cmd_classify(args: argparse.Namespace) -> int:
    sc, data = _source(args, "constraint")
    constraint = sc.constraint if sc is not None else _constraint_file(data)[0]
    _emit(classify(constraint).as_dict(), args)
    return EXIT_OK


def _cmd_evolve(args: argparse.Namespace) -> int:
    if args.format == "csv" and args.out is None:
        raise ValidationError("--format csv writes the trajectory to a "
                              "file: give it with --out FILE")
    if args.protocol is None:
        raise ValidationError("evolve needs --protocol FILE")
    protocol, f0 = protocol_from_json(_load_json(args.protocol, "protocol"))
    traj = evolve_unitary(protocol)
    if f0 is not None:
        traj = evolve_costate(f0, traj)
        report = conservation_report(traj).as_dict()
    else:
        report = {"unitarity_drift": float(np.max(unitarity_defect(traj.unitaries)))}
    payload = {
        "conservation": report,
        "final_unitary": matrix_to_json(traj.final_unitary),
    }
    if args.format == "csv":
        export_plotdata(traj, args.out)
        sys.stdout.write(dump_json(payload))
    else:
        _emit(payload, args)
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    options = _options(args)
    sc, data = _source(args, "constraint")
    omega0 = target = None
    if sc is not None:
        constraint, omega0 = sc.constraint, sc.parameters.get("omega0")
    else:
        constraint, target = _constraint_file(data)
        if target is not None:
            _refuse({"--target": args.target, "--alpha": args.alpha},
                    "when the problem file holds a target")
    if target is None:
        if args.target is not None:
            _refuse({"--alpha": args.alpha}, "with --target: give one of them")
            target = _target_file(args.target)
        elif args.alpha is not None:
            target = _drift_axis_target(constraint.drift, omega0, args.alpha)
        else:
            raise ValidationError("provide --target FILE or --alpha")
    result = brach.solve_shooting(brach.ShootingProblem(constraint, target, options))
    _emit(result.as_dict(), args)
    return EXIT_OK if result.converged else EXIT_NUMERIC


def _cmd_zermelo(args: argparse.Namespace) -> int:
    options = _options(args)
    if args.constraint is None or args.target is None:
        raise ValidationError("zermelo needs --constraint FILE and --target FILE")
    constraint = constraint_from_json(_load_json(args.constraint, "constraint"))
    if not isinstance(constraint.kind, Typical):
        raise ValidationError("zermelo needs a typical (Hilbert-Schmidt ball) bound")
    if constraint.n_controls != constraint.dim ** 2 - 1:
        raise ValidationError("zermelo needs the full control subspace")
    result = brach.zermelo_solve(constraint.drift, constraint.kind.omega,
                                 _target_file(args.target), options)
    _emit(result.as_dict(), args)
    return EXIT_OK if result.converged else EXIT_NUMERIC


def _cmd_glc(args: argparse.Namespace) -> int:
    sc, data = _source(args, "glc input")
    if sc is None:
        if args.arc != "interior":
            raise ValidationError(f"--arc {args.arc} is not read with --constraint: "
                                  "a glc input file is audited at its own point")
        if "constraint" not in data or "costate" not in data:
            raise ValidationError(
                "glc input file needs keys 'constraint' and 'costate' "
                "(optionally 'controls')")
        constraint = constraint_from_json(data["constraint"], "glc.constraint")
        f = matrix_from_json(data["costate"], "glc.costate")
        require_traceless_hermitian(f, "glc.costate")
        chart = ControlChart(tuple(constraint.control_basis),
                             u=data.get("controls", np.zeros(constraint.n_controls)))
        h = constraint.hamiltonian(chart.u)
        report = glc_test(chart, h, f, m_max=args.m_max)
    elif args.arc == "interior":
        report = derive_singular_structure(sc.arc_model(), m_max=args.m_max)
    else:
        wanted = args.arc.removeprefix("boundary-")
        cases = {c.name: c for c in sc.boundary_cases}
        if wanted not in cases:
            raise ValidationError(
                f"scenario {sc.name} has no boundary case {wanted!r}; "
                f"available: interior, "
                + ", ".join(f"boundary-{n}" for n in cases))
        report = boundary_closure_study(sc.constraint, cases[wanted],
                                        m_max=args.m_max, **_given(args, ("seed",)))
    _emit(report.as_dict(), args)
    return EXIT_OK


def _cmd_scenario(args: argparse.Namespace) -> int:
    if args.action == "list":
        _refuse({"NAME": args.name, "--omega0": args.omega0,
                 "--Omega": args.Omega, "--alpha": args.alpha},
                "by scenario list")
        _emit({"scenarios": sorted(SCENARIOS)}, args)
        return EXIT_OK
    if args.name is None:
        raise ValidationError("scenario show needs a name")
    sc = get_scenario(args.name, omega0=args.omega0, Omega=args.Omega)
    payload = sc.as_dict()
    payload["classification"] = classify(sc.constraint).as_dict()
    if args.alpha is not None:
        omega0 = sc.parameters["omega0"]
        payload["canonical_target"] = matrix_to_json(
            _drift_axis_target(sc.constraint.drift, omega0, args.alpha))
        payload["singular_time_cost"] = args.alpha / omega0
    _emit(payload, args)
    return EXIT_OK


# every flag, keyed by its spelling; a flag without a default here is None
# when not given, and what reads it then applies its own default
_FLAGS = {
    "--scenario": dict(help="built-in scenario name"),
    "--constraint": dict(help="constraint, shooting-problem or glc input "
                              "JSON file"),
    "--target": dict(help="target unitary JSON file"),
    "--protocol": dict(help="protocol JSON file"),
    "--omega0": dict(type=float, help="drift scale override"),
    "--Omega": dict(type=float, help="control bound override"),
    "--alpha": dict(type=float,
                    help="build the drift-axis target exp(-i alpha D)"),
    "--grid": dict(dest="grid_points", type=int, help="solver grid cells (>= 16)"),
    "--multistarts": dict(type=int),
    "--seed": dict(type=int),
    "--tol": dict(dest="residual_tol", type=float,
                  help="fidelity-residual bar of a converged solve or "
                       "zermelo result (ShootingOptions.residual_tol)"),
    "--out": dict(help="output file (default: stdout)"),
    "--format": dict(choices=("json", "csv"), default="json"),
    "--arc": dict(default="interior", help="glc arc: interior | boundary-<name>"),
    "--m-max": dict(type=int, default=4),
}

# where classify, solve and glc take their system from
_SOURCE = ("--scenario", "--constraint", "--omega0", "--Omega")

# each subcommand: its help line, the flags it reads and its command
_COMMANDS = {
    "classify": ("classify a constraint set", _SOURCE + ("--out",), _cmd_classify),
    "evolve": ("propagate a protocol and report conserved quantities",
               ("--protocol", "--out", "--format"), _cmd_evolve),
    "solve": ("multistart shooting for a target unitary",
              _SOURCE + ("--target", "--alpha", "--grid", "--multistarts",
                         "--seed", "--tol", "--out"), _cmd_solve),
    "glc": ("Legendre-Clebsch audit of a singular arc",
            _SOURCE + ("--arc", "--m-max", "--seed", "--out"), _cmd_glc),
    "zermelo": ("navigation solve (full control subspace)",
                ("--constraint", "--target", "--tol", "--out"), _cmd_zermelo),
    "scenario": ("list or show built-in scenarios",
                 ("--omega0", "--Omega", "--alpha", "--out"), _cmd_scenario),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toqc",
        description="Time-optimal unitary control: classification, "
                    "propagation, shooting, navigation and singular-arc audits.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (blurb, flags, command) in _COMMANDS.items():
        p = sub.add_parser(name, help=blurb)
        p.set_defaults(command_fn=command)
        if name == "scenario":
            p.add_argument("action", choices=("list", "show"))
            p.add_argument("name", nargs="?")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.command_fn(args)
    except ToqcError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERIC if isinstance(exc, DegenerateProblemError) else EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
