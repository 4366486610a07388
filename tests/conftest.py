import os
from pathlib import Path

import numpy as np
import pytest

import clifract


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture
def cli_env() -> dict[str, str]:
    """Environment for a ``python -m clifract`` child process.

    A copy of ``os.environ`` with the directory that holds the imported
    ``clifract`` package prepended to ``PYTHONPATH``, so the child imports
    the same package as this process whatever its working directory is.
    Entries already on ``PYTHONPATH`` are kept after it.  ``error::RuntimeWarning``
    is appended to any inherited ``PYTHONWARNINGS``, where it takes precedence,
    so that a RuntimeWarning is an error in the child as in this process.
    """
    env = os.environ.copy()
    src = str(Path(clifract.__file__).resolve().parent.parent)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + os.pathsep + inherited if inherited else src
    inherited = env.get("PYTHONWARNINGS")
    env["PYTHONWARNINGS"] = f"{inherited},error::RuntimeWarning" if inherited else "error::RuntimeWarning"
    return env
