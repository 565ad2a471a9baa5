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


def orthonormalize(frame):
    """Gram-Schmidt under (1/2) tr[AB], dropping an element whose remainder
    is below 1e-12 of max(1, its norm): an orthonormal spanning set of the
    frame, built independently of the library's span test."""
    out = []
    for a in frame:
        v = np.asarray(a, dtype=complex)
        for b in out:
            v = v - 0.5 * np.trace(v @ b).real * b
        nrm = np.sqrt(max(0.5 * np.trace(v @ v).real, 0.0))
        if nrm > 1e-12 * max(1.0, np.sqrt(0.5 * np.trace(a @ a).real)):
            out.append(v / nrm)
    return np.stack(out)


@pytest.fixture
def singular_starts(monkeypatch):
    """Every shooting start ends unconverged on singular cells throughout."""
    def singular(problem, t_init, t_hi, rng, earlier):
        return {"f0": None, "T": t_init, "fidelity": 0.5, "exact": 1.0,
                "converged": False, "singular_cells": problem.options.grid_points,
                "direction": np.ones(problem.constraint.dim ** 2 - 1),
                "t_coarse": t_init}

    monkeypatch.setattr(br, "_single_start", singular)
