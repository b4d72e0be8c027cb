import pytest
from hypothesis import settings

from cavitree.model import SignalModel, TieBreak, TieBreakRule, UpdateRule

# Every run draws the same examples and writes no example database into the
# checkout; the example count stays hypothesis's default.
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")


@pytest.fixture(scope="session")
def model15():
    return SignalModel.binary_symmetric(0.15)


@pytest.fixture(scope="session")
def model30():
    return SignalModel.binary_symmetric(0.3)


@pytest.fixture(scope="session")
def bayes():
    return UpdateRule(variant="bayesian")


@pytest.fixture(scope="session")
def majority():
    return UpdateRule(variant="majority")


@pytest.fixture
def uniform_ties():
    return TieBreakRule(variant=TieBreak.UNIFORM_RANDOM)


def rel_close(value, target, rtol=0.10):
    return abs(value - target) <= rtol * abs(target)


@pytest.fixture(scope="session")
def assert_rel():
    def check(value, target, rtol=0.10, label=""):
        assert rel_close(value, target, rtol), (
            f"{label or 'value'} {value:.6e} not within {rtol:.0%} of {target:.6e}")
    return check
