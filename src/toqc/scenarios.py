"""Built-in scenario library.

Three concrete systems where singular arcs matter, each packaged as a
constructible :class:`Scenario` carrying its constraint set, parameters,
machine-checkable reference facts, and the boundary pieces used by the
singular-arc studies.  The symbolic interior-arc model is derived from the
constraint set, so each system is described once:

* ``landau_zener`` -- fixed sigma_z splitting, one bounded sigma_x control;
  the u = 0 arc is singular and survives the GLC test (bang-off-bang).
* ``one_qubit_xy`` -- fixed sigma_z splitting, transverse-plane control with
  a Hilbert-Schmidt bound; singular arcs are excluded at first order.
* ``symmetric_two_qubit`` -- the spin-exchange-symmetric two-qubit system
  reduced to its triplet (qutrit) sector, with exchange coupling J and a
  collective field b bounded by a coefficient ball J^2 + |b|^2 <= Omega^2.
  Interior singular arcs must have b = 0, 0 <= J <= omega0; boundary arcs
  are excluded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import simpson

from .arc_analysis import ArcModel, BoundaryCase, arc_model
from .constraint_model import BallInCoords, Box, ConstraintSet, Typical
from .errors import InfeasibleReplacementError, ValidationError
from .sun_algebra import SIGMA_X, SIGMA_Y, SIGMA_Z

__all__ = [
    "Scenario",
    "landau_zener",
    "one_qubit_xy",
    "symmetric_two_qubit",
    "singular_replacement",
    "triplet_operators",
    "SCENARIOS",
    "get_scenario",
]


@dataclass(frozen=True, eq=False)
class Scenario:
    """A named constraint set with parameters and reference facts.

    ``reference_facts`` holds expected outcomes (classification labels, GLC
    verdicts, singular-arc structure) as plain values the test suite asserts
    against.  ``arc_model()`` derives the symbolic interior-arc model from
    ``constraint`` and ``parameters["omega0"]`` on demand
    (:func:`toqc.arc_analysis.arc_model`); ``boundary_cases`` lists the
    quadratic-boundary pieces studied separately.
    """

    name: str
    constraint: ConstraintSet
    parameters: dict
    reference_facts: dict
    boundary_cases: tuple[BoundaryCase, ...] = ()

    def arc_model(self) -> ArcModel:
        """The symbolic interior-arc model, derived from ``constraint``."""
        return arc_model(self.constraint, self.parameters["omega0"])

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "parameters": self.parameters,
            "reference_facts": self.reference_facts,
            "boundary_cases": [c.name for c in self.boundary_cases],
        }


def triplet_operators() -> dict[str, np.ndarray]:
    """Operators of the symmetric two-qubit system on its triplet sector.

    In the basis {|uu>, (|ud>+|du>)/sqrt(2), |dd>}, the exchange and
    collective-spin operators restrict to 3x3 matrices; Sigma^x and Sigma^z
    get their traceless parts (marked with a tilde), the S^i are traceless
    as they stand.  Gell-Mann expansions:

        Sigma~x = l4 - l3/2 + l8/(2 sqrt 3)
        Sigma~z = l3 - l8/sqrt(3)
        S1 = (l1 + l6)/sqrt(2),  S2 = (l2 + l7)/sqrt(2),
        S3 = (l3 + sqrt(3) l8)/2
    """
    s1 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / np.sqrt(2)
    s2 = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / np.sqrt(2)
    s3 = np.diag([1.0, 0.0, -1.0]).astype(complex)
    sigma_x = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex)
    sigma_z = np.diag([1.0, -1.0, 1.0]).astype(complex)
    eye = np.eye(3)
    return {
        "S1": s1, "S2": s2, "S3": s3,
        "Sigma_x": sigma_x, "Sigma_z": sigma_z,
        "Sigma_x_tilde": sigma_x - eye / 3.0,
        "Sigma_z_tilde": sigma_z - eye / 3.0,
    }


def landau_zener(omega0: float, Omega: float) -> Scenario:
    """Fixed z splitting, one bounded x control: |u| <= Omega."""
    if omega0 <= 0 or Omega <= 0:
        raise ValidationError("landau_zener needs omega0 > 0 and Omega > 0")
    constraint = ConstraintSet(
        2, omega0 * SIGMA_Z, (SIGMA_X,),
        Box(np.array([-Omega]), np.array([Omega])),
        control_names=("u",))

    return Scenario(
        name="landau_zener",
        constraint=constraint,
        parameters={"omega0": omega0, "Omega": Omega},
        reference_facts={
            "type_label": "lotus_leaf",
            "planar": True,
            "typical": False,
            # single-control box: the bound coincides with the
            # Hilbert-Schmidt ball, so the one-control system is typical in
            # the one-dimensional sense even though the kind is a box
            "typical_as_one_control": True,
            "drift_in_bracket": False,
            "bracket_obstruction": False,
            "interior_verdict": "consistent",
            "singular_control": [0.0],
            "structure": "bang-off-bang",
        },
    )


def one_qubit_xy(omega0: float, Omega: float) -> Scenario:
    """Fixed z splitting, transverse control with (1/2) tr[H_c^2] <= Omega^2."""
    if omega0 <= 0 or Omega <= 0:
        raise ValidationError("one_qubit_xy needs omega0 > 0 and Omega > 0")
    constraint = ConstraintSet(
        2, omega0 * SIGMA_Z, (SIGMA_X, SIGMA_Y), Typical(Omega),
        control_names=("ux", "uy"))

    return Scenario(
        name="one_qubit_xy",
        constraint=constraint,
        parameters={"omega0": omega0, "Omega": Omega},
        reference_facts={
            "type_label": "lotus_leaf",
            "planar": True,
            "typical": True,
            "drift_in_bracket": True,
            "bracket_obstruction": True,
            "interior_verdict": "excluded",
            # printed forms of the singular normalization differ by the
            # overall positive scale of F (tr[sz F] = 1 vs omega0 tr[sz F]
            # = 1); the exclusion verdict is insensitive to that scale
            "normalization_scale_note": True,
        },
    )


def symmetric_two_qubit(omega0: float, Omega: float,
                        typical_qutrit: bool = False) -> Scenario:
    """Exchange-symmetric two-qubit control on the triplet sector.

    Drift omega0 * Sigma~x; controls (b1, b2, b3, J) multiply
    (S1, S2, S3, Sigma~z) under the coefficient ball
    J^2 + b1^2 + b2^2 + b3^2 <= Omega^2.  Requires omega0 < Omega.
    With ``typical_qutrit`` the bound is replaced by the Hilbert-Schmidt
    variant 8 J^2 / 3 + |b|^2 <= Omega^2.
    """
    if not 0 < omega0 < Omega:
        raise ValidationError("symmetric_two_qubit needs 0 < omega0 < Omega")
    ops = triplet_operators()
    metric = np.diag([1.0, 1.0, 1.0, 8.0 / 3.0]) if typical_qutrit else np.eye(4)
    constraint = ConstraintSet(
        3, omega0 * ops["Sigma_x_tilde"],
        (ops["S1"], ops["S2"], ops["S3"], ops["Sigma_z_tilde"]),
        BallInCoords(Omega, metric),
        control_names=("b1", "b2", "b3", "J"))

    return Scenario(
        name="symmetric_two_qubit",
        constraint=constraint,
        parameters={"omega0": omega0, "Omega": Omega,
                    "typical_qutrit": typical_qutrit},
        reference_facts={
            "type_label": "lotus_leaf",
            "planar": True,
            "typical": False,
            "bracket_obstruction": False,
            "interior_verdict": "consistent",
            "interior_conditions": [
                "f1 = 0", "f2 = 0", "f3 = 0", "f5 = 0", "f6 = 0",
                "f7 = 0", "f8 = 0", "b1 = 0", "b2 = 0", "b3 = 0",
                "f4 >= 0", "J >= 0", "J <= omega0",
            ],
            "boundary_verdicts": {"b3": "excluded", "b1": "excluded",
                                  "b2": "excluded", "J": "excluded"},
            "canonical_singular_target_cost": "alpha / omega0",
        },
        boundary_cases=(
            BoundaryCase("b3", zero=(), eliminate=2),
            BoundaryCase("b1", zero=(2,), eliminate=0),
            BoundaryCase("b2", zero=(0, 2), eliminate=1),
            BoundaryCase("J", zero=(0, 1, 2), eliminate=3),
        ),
    )


def singular_replacement(t_grid: np.ndarray, j_values: np.ndarray,
                         Omega: float) -> dict:
    """Replace a singular exchange arc J(t) in [0, Omega) by two pieces.

    The exchange and drift generators commute along the arc, so the arc's
    endpoint unitary depends on J only through its integral; the same
    endpoint is reached by running J = Omega until t3 and J = 0 afterwards,
    with t3 = t1 + (integral of J) / Omega.  The first piece saturates the
    bound and is therefore regular.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    j_values = np.asarray(j_values, dtype=float)
    if t_grid.ndim != 1 or t_grid.shape != j_values.shape or len(t_grid) < 2:
        raise ValidationError("need matching 1-d time and J samples")
    if np.any(np.diff(t_grid) <= 0):
        raise ValidationError("time samples must be strictly increasing")
    if np.any(j_values < 0) or np.any(j_values >= Omega):
        raise ValidationError("replacement needs 0 <= J < Omega on the arc")
    t1, t2 = float(t_grid[0]), float(t_grid[-1])
    integral = float(simpson(j_values, x=t_grid))
    if integral >= (t2 - t1) * Omega:
        raise InfeasibleReplacementError(
            "integral of J meets or exceeds the bang budget (t2 - t1) * Omega")
    t3 = t1 + integral / Omega
    return {
        "t1": t1, "t2": t2, "t3": t3, "integral": integral,
        "pieces": [
            {"start": t1, "stop": t3, "J": Omega},
            {"start": t3, "stop": t2, "J": 0.0},
        ],
    }


SCENARIOS: dict[str, Callable[..., Scenario]] = {
    "landau_zener": landau_zener,
    "one_qubit_xy": one_qubit_xy,
    "symmetric_two_qubit": symmetric_two_qubit,
}


def get_scenario(name: str, omega0: float | None = None,
                 Omega: float | None = None, **kwargs) -> Scenario:
    """Instantiate a built-in scenario with optional parameter overrides."""
    if name not in SCENARIOS:
        raise ValidationError(
            f"unknown scenario {name!r}; available: {sorted(SCENARIOS)}")
    defaults = {"landau_zener": (1.0, 2.0), "one_qubit_xy": (0.3, 1.0),
                "symmetric_two_qubit": (1.0, 2.0)}[name]
    w0 = defaults[0] if omega0 is None else omega0
    om = defaults[1] if Omega is None else Omega
    return SCENARIOS[name](w0, om, **kwargs)
