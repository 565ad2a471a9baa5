"""JSON and CSV interchange.

Matrices travel as row-major JSON arrays of [re, im] pairs.  Structured
artifacts (constraint sets, protocols, solve results, GLC reports) have
fixed schemas; every artifact the CLI writes can be read back as input.
Serialization is deterministic: keys sorted, floats via repr, CSV numbers
at 17 significant digits.
"""

from __future__ import annotations

import json
from typing import Optional

import numpy as np

from .constraint_model import BallInCoords, Box, ConstraintSet, Typical
from .dynamics import Protocol, Trajectory, conserved_traces
from .errors import ValidationError
from .sun_algebra import generalized_gellmann

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "constraint_to_json",
    "constraint_from_json",
    "protocol_to_json",
    "protocol_from_json",
    "dump_json",
    "export_plotdata",
]


def matrix_to_json(a: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(a, complex)]


def matrix_from_json(data, where: str = "matrix") -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{where}: not a numeric array of [re, im] pairs") from exc
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(
            f"{where}: expected an N x N array of [re, im] pairs, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{where}: entries must be finite")
    return arr[..., 0] + 1j * arr[..., 1]


def constraint_to_json(c: ConstraintSet) -> dict:
    if isinstance(c.kind, Typical):
        kind = {"typical": {"omega": c.kind.omega}}
    elif isinstance(c.kind, Box):
        kind = {"box": {"lo": np.asarray(c.kind.lo, float).tolist(),
                        "hi": np.asarray(c.kind.hi, float).tolist()}}
    else:
        kind = {"ball": {"radius": c.kind.radius,
                         "metric": np.asarray(c.kind.metric, float).tolist()}}
    out = {
        "dim": c.dim,
        "drift": matrix_to_json(c.drift),
        "control_basis": [matrix_to_json(b) for b in c.control_basis],
        "kind": kind,
    }
    if c.control_names is not None:
        out["control_names"] = list(c.control_names)
    return out


def constraint_from_json(data: dict, where: str = "constraint") -> ConstraintSet:
    for key in ("dim", "drift", "control_basis", "kind"):
        if key not in data:
            raise ValidationError(f"{where}: missing key {key!r}")
    kind_spec = data["kind"]
    if "typical" in kind_spec:
        kind = Typical(float(kind_spec["typical"]["omega"]))
    elif "box" in kind_spec:
        kind = Box(np.asarray(kind_spec["box"]["lo"], float),
                   np.asarray(kind_spec["box"]["hi"], float))
    elif "ball" in kind_spec:
        kind = BallInCoords(float(kind_spec["ball"]["radius"]),
                            np.asarray(kind_spec["ball"]["metric"], float))
    else:
        raise ValidationError(f"{where}.kind: expected typical|box|ball")
    names = data.get("control_names")
    return ConstraintSet(
        int(data["dim"]),
        matrix_from_json(data["drift"], f"{where}.drift"),
        tuple(matrix_from_json(b, f"{where}.control_basis[{i}]")
              for i, b in enumerate(data["control_basis"])),
        kind,
        None if names is None else tuple(names),
    )


def protocol_to_json(p: Protocol, costate0: Optional[np.ndarray] = None) -> dict:
    out = {
        "constraint": constraint_to_json(p.constraint),
        "grid": p.grid.tolist(),
        "controls": p.controls.tolist(),
    }
    if costate0 is not None:
        out["costate0"] = matrix_to_json(costate0)
    return out


def protocol_from_json(data: dict) -> tuple[Protocol, Optional[np.ndarray]]:
    for key in ("constraint", "grid", "controls"):
        if key not in data:
            raise ValidationError(f"protocol: missing key {key!r}")
    c = constraint_from_json(data["constraint"], "protocol.constraint")
    p = Protocol(c, np.asarray(data["grid"], float),
                 np.asarray(data["controls"], float))
    f0 = None
    if "costate0" in data and data["costate0"] is not None:
        f0 = matrix_from_json(data["costate0"], "protocol.costate0")
    return p, f0


def dump_json(obj, path: Optional[str] = None) -> str:
    """Deterministic JSON text (sorted keys); optionally written to a file."""
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def export_plotdata(traj: Trajectory, path: str) -> None:
    """Write a trajectory CSV: t, controls, costate coefficients, tr[HF],
    tr[F^2].  Costate columns (and the trace columns that need them) are
    omitted when the trajectory carries no costates.  Formatting is fixed at
    17 significant digits so identical runs produce identical bytes.
    """
    p = traj.protocol
    if p.n_cells < 1:
        raise ValidationError("trajectory is empty")
    header = ["t"] + list(p.constraint.control_labels)
    # the final grid point repeats the last cell's controls and tr[H F]
    columns = [p.grid[:, None], np.vstack([p.controls, p.controls[-1:]])]
    if traj.costates is not None:
        basis = np.stack(generalized_gellmann(p.constraint.dim))
        header += [f"f{a+1}" for a in range(len(basis))]
        header += ["tr_HF", "tr_F2"]
        hf, f2 = conserved_traces(traj)
        columns += [0.5 * np.einsum("kab,jba->kj", traj.costates, basis).real,
                    np.append(hf, hf[-1])[:, None], f2[:, None]]
    np.savetxt(path, np.hstack(columns), fmt="%.17g", delimiter=",",
               header=",".join(header), comments="")
