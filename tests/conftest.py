import os

import numpy as np
import pytest

import toqc
from toqc import brachistochrone as br


@pytest.fixture(autouse=True, scope="session")
def child_pythonpath():
    """Let ``python -m toqc`` child processes import the package under test,
    also when ``src`` is on the path only through pytest's ``pythonpath``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(toqc.__file__)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", src, prepend=os.pathsep)
        yield


@pytest.fixture
def singular_starts(monkeypatch):
    """Every shooting start ends unconverged on singular cells throughout."""
    def singular(problem, start_index, t_init, t_hi, rng, earlier):
        return {"start": start_index, "f0": None, "T": t_init,
                "fidelity": 0.5, "exact": 1.0, "converged": False,
                "singular_cells": problem.options.grid_points,
                "direction": np.ones(problem.constraint.dim ** 2 - 1),
                "t_coarse": t_init}

    monkeypatch.setattr(br, "_single_start", singular)
