import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import sktspec
from sktspec.model import preset

# derandomize: every run draws the same examples, so a failure found once
# is found on every machine, not only where .hypothesis/ replays it.
settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def case1():
    return preset("case1")


@pytest.fixture(scope="session")
def case2():
    return preset("case2")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def subprocess_env():
    """Environment for a subprocess that must import this copy of sktspec."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sktspec.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
