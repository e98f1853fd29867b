import math
import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).resolve().parent))

from kgstab import ModelParams, run

# every property test draws the same examples on every run, with no time
# limit per example and no example database
settings.register_profile("kgstab", deadline=None, derandomize=True,
                          database=None)
settings.load_profile("kgstab")


@pytest.fixture(scope="session")
def p111():
    return ModelParams(1.0, 1.0, 1.0)


@pytest.fixture(scope="session")
def p112():
    return ModelParams(1.0, 1.0, 2.0)


@pytest.fixture(scope="session")
def p212():
    return ModelParams(2.0, 1.0, 2.0)


@pytest.fixture(scope="session")
def p_tau11():
    # tau = 1.1: the window splits into stable/unstable/stable
    return ModelParams(1.0, 1.0, math.sqrt(0.55))


@pytest.fixture(scope="session")
def p_tau098():
    # tau = 0.98 <= 1: no window shrinkage, k2 = tau has no solution
    return ModelParams(1.0, 1.0, 0.7)


@pytest.fixture(scope="session")
def stable_run50(p111):
    """Perturbed stable-regime evolution to t = 50, shared by slow tests."""
    return run(p111, 0.9, "scale:0.01", 50.0)
