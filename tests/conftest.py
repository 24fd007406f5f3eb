import pytest

from oracles import random_policy
from tropic_pic.multigraph import (
    complete_graph,
    cycle_graph,
    path_graph,
    theta_graph,
)
from tropic_pic.product_complex import build_product


@pytest.fixture(scope="session")
def k2k2():
    return build_product(path_graph(1), path_graph(1))


@pytest.fixture(scope="session")
def p2p2():
    return build_product(path_graph(2), path_graph(2))


@pytest.fixture(scope="session")
def c3k2():
    return build_product(cycle_graph(3), path_graph(1))


@pytest.fixture(scope="session")
def c3p2():
    return build_product(cycle_graph(3), path_graph(2))


@pytest.fixture(scope="session")
def c3c3():
    return build_product(cycle_graph(3), cycle_graph(3))


@pytest.fixture(scope="session")
def p3p2():
    return build_product(path_graph(3), path_graph(2))


@pytest.fixture(scope="session")
def small_products(k2k2, p2p2, c3k2, c3p2, p3p2):
    return [k2k2, p2p2, c3k2, c3p2, p3p2]


@pytest.fixture(scope="session")
def mixed_products(small_products, c3c3):
    theta = build_product(theta_graph(3), path_graph(2))
    k4p1 = build_product(complete_graph(4), path_graph(1))
    c4, c3 = cycle_graph(4), cycle_graph(3)
    rand = build_product(c4, c3, random_policy(c4, c3, 7))
    return small_products + [c3c3, theta, k4p1, rand]
