import numpy as np
import pytest

from selab.model import bundled_problem


@pytest.fixture(scope="session")
def theorem1_spec():
    return bundled_problem("theorem1.cfg")


@pytest.fixture(scope="session")
def theorem2_spec():
    return bundled_problem("theorem2.cfg")


@pytest.fixture(scope="session")
def theorem3_spec():
    return bundled_problem("theorem3.cfg")


@pytest.fixture
def rng():
    return np.random.default_rng(4221)
