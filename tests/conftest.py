import pytest
from hypothesis import settings

from hypermat import Hypergraph

# pytest rewrites the asserts of test modules only; the shared checks in
# helpers.py (verify_optimal and the rest) would vanish under `python -O`
pytest.register_assert_rewrite("helpers")

# CI selects this profile with --hypothesis-profile=ci: the same examples
# on every run, and a failure prints the blob that replays it
settings.register_profile("ci", derandomize=True, print_blob=True)
# five times the examples of every test that sizes its run by
# helpers.examples(); CI runs the min-cut, gadget, gathering, packing,
# matroid and reinforcement tests under it
settings.register_profile("deep", derandomize=True, print_blob=True, max_examples=500)


@pytest.fixture
def h0() -> Hypergraph:
    # two parallel triples on three vertices
    return Hypergraph(3, [[0, 1, 2], [0, 1, 2]])


@pytest.fixture
def h1() -> Hypergraph:
    return Hypergraph(4, [[0, 1, 2], [1, 2, 3], [0, 3]])


@pytest.fixture
def k3() -> Hypergraph:
    return Hypergraph(3, [[0, 1], [1, 2], [0, 2]])


@pytest.fixture
def k4() -> Hypergraph:
    return Hypergraph(4, [[a, b] for a in range(4) for b in range(a + 1, 4)])
