"""The symbolic arc model of each scenario is its constraint set, exactly."""

import numpy as np
import pytest
import sympy

from toqc.arc_analysis import arc_model
from toqc.constraint_model import ConstraintSet, Typical
from toqc.errors import ValidationError
from toqc.scenarios import get_scenario
from toqc.sun_algebra import SIGMA_X, SIGMA_Y, SIGMA_Z, generalized_gellmann

CASES = [
    ("landau_zener", {}),
    ("landau_zener", {"omega0": 0.7}),
    ("one_qubit_xy", {}),
    ("one_qubit_xy", {"omega0": 2.3}),
    ("symmetric_two_qubit", {}),
    ("symmetric_two_qubit", {"omega0": 0.37, "Omega": 1.5}),
    ("symmetric_two_qubit", {"typical_qutrit": True}),
]


@pytest.mark.parametrize("name, overrides", CASES)
def test_arc_model_evaluates_to_the_constraint(name, overrides):
    sc = get_scenario(name, **overrides)
    c = sc.constraint
    model = sc.arc_model()
    w0 = sympy.Symbol("omega0", positive=True)
    assert model.positive_params == (w0,)

    def value(m):
        return np.array(m.subs(w0, sc.parameters["omega0"]).evalf(),
                        dtype=complex)

    np.testing.assert_allclose(value(model.drift), c.drift, rtol=0, atol=1e-14)
    assert len(model.partials) == c.n_controls
    for exact, h in zip(model.partials, c.control_basis):
        np.testing.assert_allclose(value(exact), h, rtol=0, atol=1e-14)
    basis = generalized_gellmann(c.dim)
    assert len(model.costate_basis) == len(basis)
    for exact, tau in zip(model.costate_basis, basis):
        np.testing.assert_allclose(value(exact), tau, rtol=0, atol=1e-14)
    assert [str(s) for s in model.control_syms] == list(c.control_names)
    assert [str(s) for s in model.costate_syms] == [
        f"f{a}" for a in range(1, c.dim ** 2)]


def test_arc_model_refuses_an_inexact_entry():
    # pi has no exact form over sqrt 2 and sqrt 3; it must not come back as
    # the 15-digit rational of its float
    c = ConstraintSet(2, np.pi * SIGMA_Z + 0.1 * SIGMA_X, (SIGMA_X, SIGMA_Y),
                      Typical(1.0))
    with pytest.raises(ValidationError, match="drift"):
        arc_model(c, 1.0)


def test_arc_model_keeps_rational_entries_exact():
    c = ConstraintSet(2, 0.5 * SIGMA_Z + 0.1 * SIGMA_X, (SIGMA_X, SIGMA_Y),
                      Typical(1.0))
    w0 = sympy.Symbol("omega0", positive=True)
    expected = w0 * sympy.Matrix([[sympy.Rational(1, 2), sympy.Rational(1, 10)],
                                  [sympy.Rational(1, 10), -sympy.Rational(1, 2)]])
    assert arc_model(c, 1.0).drift == expected
