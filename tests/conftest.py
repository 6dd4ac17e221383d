import pytest
from hypothesis import HealthCheck, settings

import oblot.simulate
from oblot.graphs import Graph

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def _empty_solution_memo():
    # a test that patches build or the canonizer never reads a Solution
    # that another test built
    oblot.simulate._solution.cache_clear()


@pytest.fixture(scope="session")
def k23() -> Graph:
    return Graph(n=5, edges=((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)), name="K23")


@pytest.fixture(scope="session")
def c4_cycle() -> Graph:
    return Graph(n=4, edges=((0, 1), (1, 2), (2, 3), (0, 3)), name="C4")


@pytest.fixture(scope="session")
def p3() -> Graph:
    return Graph(n=3, edges=((0, 1), (1, 2)), name="P3")


@pytest.fixture(scope="session")
def p4() -> Graph:
    return Graph(n=4, edges=((0, 1), (1, 2), (2, 3)), name="P4")


@pytest.fixture(scope="session")
def k2() -> Graph:
    return Graph(n=2, edges=((0, 1),), name="K2")
