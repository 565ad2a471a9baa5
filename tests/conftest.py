import os

import pytest

import toqc


@pytest.fixture(autouse=True, scope="session")
def child_pythonpath():
    """Let ``python -m toqc`` child processes import the package under test,
    also when ``src`` is on the path only through pytest's ``pythonpath``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(toqc.__file__)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", src, prepend=os.pathsep)
        yield
