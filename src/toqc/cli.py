"""Command-line interface.

Subcommands: classify, evolve, solve, glc, zermelo, scenario; each takes
only the flags its command reads (``_COMMANDS``), so any other flag exits 2.
Structured results are printed as JSON (or written with --out); time series
go to CSV.
Exit codes: 0 success, 2 validation error, 3 numeric non-convergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import brachistochrone as brach
from .arc_analysis import boundary_closure_study, derive_singular_structure
from .constraint_model import ConstraintSet, Typical, classify
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
from .sun_algebra import exp_op, unitarity_defect

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3


@dataclass
class RunConfig:
    """Validated invocation: one command plus its inputs and options."""

    command: str
    scenario: Optional[str] = None
    constraint_path: Optional[str] = None
    target_path: Optional[str] = None
    protocol_path: Optional[str] = None
    omega0: Optional[float] = None
    Omega: Optional[float] = None
    alpha: Optional[float] = None
    grid: int = brach.ShootingOptions.grid_points
    multistarts: int = brach.ShootingOptions.multistarts
    seed: int = brach.ShootingOptions.seed
    tol: Optional[float] = None
    out: Optional[str] = None
    fmt: str = "json"
    arc: str = "interior"
    m_max: int = 4
    action: Optional[str] = None
    name: Optional[str] = None
    options: Optional[brach.ShootingOptions] = field(default=None, init=False)

    def __post_init__(self):
        if self.command not in {"classify", "evolve", "solve", "glc",
                                "zermelo", "scenario"}:
            raise ValidationError(f"unknown command {self.command!r}")
        if self.fmt not in {"json", "csv"}:
            raise ValidationError("--format must be json or csv")
        if self.fmt == "csv" and self.out is None:
            raise ValidationError("--format csv writes the trajectory to a "
                                  "file: give it with --out FILE")
        if self.command in {"solve", "zermelo"}:
            # ShootingOptions alone checks the grid floor, counts, seed and tol
            self.options = _solve_options(self)


def _load_json(path: str, what: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ValidationError(f"{what}: file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{what}: malformed JSON in {path}: {exc}") from exc


def _emit(payload: dict, config: RunConfig) -> None:
    text = dump_json(payload, config.out)
    if config.out is None:
        sys.stdout.write(text)


def _scenario_from_config(config: RunConfig):
    return get_scenario(config.scenario, omega0=config.omega0,
                        Omega=config.Omega)


def _drift_axis_target(drift: np.ndarray, omega0: Optional[float],
                       alpha: float) -> np.ndarray:
    """The ``--alpha`` target exp(-i alpha H_d / omega0)."""
    if omega0 is None or omega0 == 0:
        raise ValidationError("--alpha needs a scenario with a drift scale")
    return exp_op(drift / omega0, alpha)


def _target_from_config(config: RunConfig, constraint: ConstraintSet,
                        omega0: Optional[float]) -> np.ndarray:
    if config.target_path is not None:
        data = _load_json(config.target_path, "target")
        if isinstance(data, dict) and "target" in data:
            data = data["target"]
        return matrix_from_json(data, "target")
    if config.alpha is not None:
        return _drift_axis_target(constraint.drift, omega0, config.alpha)
    raise ValidationError("provide --target FILE or --alpha")


def _cmd_classify(config: RunConfig) -> int:
    if config.scenario is not None:
        constraint = _scenario_from_config(config).constraint
    elif config.constraint_path is not None:
        constraint = constraint_from_json(
            _load_json(config.constraint_path, "constraint"))
    else:
        raise ValidationError("classify needs --constraint or --scenario")
    _emit(classify(constraint).as_dict(), config)
    return EXIT_OK


def _cmd_evolve(config: RunConfig) -> int:
    if config.protocol_path is None:
        raise ValidationError("evolve needs --protocol FILE")
    protocol, f0 = protocol_from_json(
        _load_json(config.protocol_path, "protocol"))
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
    if config.fmt == "csv":
        export_plotdata(traj, config.out)
        sys.stdout.write(dump_json(payload))
    else:
        _emit(payload, config)
    return EXIT_OK


def _solve_options(config: RunConfig) -> brach.ShootingOptions:
    kwargs = {"grid_points": config.grid, "multistarts": config.multistarts,
              "seed": config.seed}
    if config.tol is not None:
        kwargs["residual_tol"] = config.tol
    return brach.ShootingOptions(**kwargs)


def _cmd_solve(config: RunConfig) -> int:
    omega0 = None
    target = None
    if config.scenario is not None:
        sc = _scenario_from_config(config)
        constraint = sc.constraint
        omega0 = sc.parameters.get("omega0")
    elif config.constraint_path is not None:
        data = _load_json(config.constraint_path, "constraint")
        if "constraint" in data:
            # a full shooting-problem artifact: constraint + target (+ options)
            constraint = constraint_from_json(data["constraint"],
                                              "problem.constraint")
            if "target" in data:
                target = matrix_from_json(data["target"], "problem.target")
        else:
            constraint = constraint_from_json(data)
    else:
        raise ValidationError("solve needs --scenario or --constraint")
    if target is None:
        target = _target_from_config(config, constraint, omega0)
    result = brach.solve_shooting(
        brach.ShootingProblem(constraint, target, config.options))
    _emit(result.as_dict(), config)
    return EXIT_OK if result.converged else EXIT_NUMERIC


def _cmd_zermelo(config: RunConfig) -> int:
    if config.constraint_path is None or config.target_path is None:
        raise ValidationError("zermelo needs --constraint FILE and --target FILE")
    constraint = constraint_from_json(
        _load_json(config.constraint_path, "constraint"))
    if not isinstance(constraint.kind, Typical):
        raise ValidationError("zermelo needs a typical (Hilbert-Schmidt ball) bound")
    if constraint.n_controls != constraint.dim ** 2 - 1:
        raise ValidationError("zermelo needs the full control subspace")
    target = _target_from_config(config, constraint, None)
    result = brach.zermelo_solve(constraint.drift, constraint.kind.omega,
                                 target, config.options)
    _emit(result.as_dict(), config)
    return EXIT_OK if result.converged else EXIT_NUMERIC


def _cmd_glc(config: RunConfig) -> int:
    if config.scenario is not None:
        sc = _scenario_from_config(config)
        if config.arc == "interior":
            report = derive_singular_structure(sc.arc_model(), m_max=config.m_max)
        else:
            wanted = config.arc.removeprefix("boundary-")
            cases = {c.name: c for c in sc.boundary_cases}
            if wanted not in cases:
                raise ValidationError(
                    f"scenario {sc.name} has no boundary case {wanted!r}; "
                    f"available: interior, "
                    + ", ".join(f"boundary-{n}" for n in cases))
            report = boundary_closure_study(sc.constraint, cases[wanted],
                                            seed=config.seed, m_max=config.m_max)
    elif config.constraint_path is not None:
        data = _load_json(config.constraint_path, "glc input")
        if "constraint" not in data or "costate" not in data:
            raise ValidationError(
                "glc input file needs keys 'constraint' and 'costate' "
                "(optionally 'controls')")
        constraint = constraint_from_json(data["constraint"], "glc.constraint")
        f = matrix_from_json(data["costate"], "glc.costate")
        chart = ControlChart(tuple(constraint.control_basis),
                             u=data.get("controls", np.zeros(constraint.n_controls)),
                             names=constraint.control_names)
        h = constraint.hamiltonian(chart.u)
        report = glc_test(chart, h, f, m_max=config.m_max)
    else:
        raise ValidationError("glc needs --scenario or --constraint")
    _emit(report.as_dict(), config)
    return EXIT_OK


def _cmd_scenario(config: RunConfig) -> int:
    if config.action == "list":
        _emit({"scenarios": sorted(SCENARIOS)}, config)
        return EXIT_OK
    if config.action == "show":
        if config.name is None:
            raise ValidationError("scenario show needs a name")
        sc = get_scenario(config.name, omega0=config.omega0, Omega=config.Omega)
        payload = sc.as_dict()
        payload["classification"] = classify(sc.constraint).as_dict()
        if config.alpha is not None:
            omega0 = sc.parameters["omega0"]
            payload["canonical_target"] = matrix_to_json(
                _drift_axis_target(sc.constraint.drift, omega0, config.alpha))
            payload["singular_time_cost"] = config.alpha / omega0
        _emit(payload, config)
        return EXIT_OK
    raise ValidationError("scenario needs an action: list | show NAME")


_DISPATCH = {
    "classify": _cmd_classify,
    "evolve": _cmd_evolve,
    "solve": _cmd_solve,
    "glc": _cmd_glc,
    "zermelo": _cmd_zermelo,
    "scenario": _cmd_scenario,
}


def run(config: RunConfig) -> int:
    """Dispatch a validated configuration; returns the process exit code."""
    try:
        return _DISPATCH[config.command](config)
    except DegenerateProblemError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERIC
    except ToqcError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION


# every flag, keyed by its spelling; each dest is a RunConfig field, whose
# default applies when the flag is not given
_FLAGS = {
    "--scenario": dict(help="built-in scenario name"),
    "--constraint": dict(dest="constraint_path",
                         help="constraint (or glc input) JSON file"),
    "--target": dict(dest="target_path", help="target unitary JSON file"),
    "--protocol": dict(dest="protocol_path", help="protocol JSON file"),
    "--omega0": dict(type=float, help="drift scale override"),
    "--Omega": dict(type=float, help="control bound override"),
    "--alpha": dict(type=float,
                    help="build the drift-axis target exp(-i alpha D)"),
    "--grid": dict(type=int, help="solver grid cells (>= 16)"),
    "--multistarts": dict(type=int),
    "--seed": dict(type=int),
    "--tol": dict(type=float,
                  help="fidelity-residual bar of a converged solve or "
                       "zermelo result (ShootingOptions.residual_tol)"),
    "--out": dict(help="output file (default: stdout)"),
    "--format": dict(dest="fmt", choices=("json", "csv")),
    "--arc": dict(help="glc arc: interior | boundary-<name>"),
    "--m-max": dict(dest="m_max", type=int),
}

# where classify, solve and glc take their system from
_SOURCE = ("--scenario", "--constraint", "--omega0", "--Omega")

# each subcommand: its help line and the flags its command reads
_COMMANDS = {
    "classify": ("classify a constraint set", _SOURCE + ("--out",)),
    "evolve": ("propagate a protocol and report conserved quantities",
               ("--protocol", "--out", "--format")),
    "solve": ("multistart shooting for a target unitary",
              _SOURCE + ("--target", "--alpha", "--grid", "--multistarts",
                         "--seed", "--tol", "--out")),
    "glc": ("Legendre-Clebsch audit of a singular arc",
            _SOURCE + ("--arc", "--m-max", "--seed", "--out")),
    "zermelo": ("navigation solve (full control subspace)",
                ("--constraint", "--target", "--seed", "--tol", "--out")),
    "scenario": ("list or show built-in scenarios",
                 ("--omega0", "--Omega", "--alpha", "--out")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toqc",
        description="Time-optimal unitary control: classification, "
                    "propagation, shooting, navigation and singular-arc audits.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (blurb, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=blurb, argument_default=argparse.SUPPRESS)
        if name == "scenario":
            p.add_argument("action", choices=("list", "show"))
            p.add_argument("name", nargs="?")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig(**vars(args))
    except ToqcError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
