"""Tests for multigraphs, Laplacians, graph divisors and Picard groups."""

import random
from itertools import product

import pytest
from sympy import Matrix as SymMatrix
from sympy.matrices.normalforms import smith_normal_decomp

from tropic_pic.exact_lattice import AbGroup
from tropic_pic.multigraph import (
    GraphError,
    GraphParseError,
    Multigraph,
    complete_graph,
    critical_group,
    cycle_graph,
    genus,
    graph_div,
    graph_to_text,
    is_graph_principal,
    laplacian,
    parse_graph_text,
    path_graph,
    pic_group,
    random_tree,
    spanning_tree_count,
    theta_graph,
)


def brute_force_principal(g, d, bound=3):
    lap = laplacian(g)
    n = g.n_vertices
    for phi in product(range(-bound, bound + 1), repeat=n):
        if lap.mul_vec(phi) == tuple(d):
            return True
    return False


def sympy_principal(g, d):
    """Independent membership check via sympy's Smith decomposition."""
    lap = SymMatrix(laplacian(g).row_list())
    dm, s, t = smith_normal_decomp(lap)
    y = s * SymMatrix(len(d), 1, list(d))
    for i in range(lap.rows):
        di = dm[i, i] if i < min(dm.rows, dm.cols) else 0
        if di == 0:
            if y[i] != 0:
                return False
        elif y[i] % di != 0:
            return False
    return True


# -- construction --------------------------------------------------------------


def test_rejects_loops():
    with pytest.raises(GraphError):
        Multigraph([0, 1], [("e0", 0, 0), ("e1", 0, 1)])


def test_rejects_disconnected():
    with pytest.raises(GraphError):
        Multigraph([0, 1, 2, 3], [("e0", 0, 1), ("e1", 2, 3)])


def test_rejects_duplicate_ids():
    with pytest.raises(GraphError):
        Multigraph([0, 0, 1], [("e0", 0, 1)])
    with pytest.raises(GraphError):
        Multigraph([0, 1], [("e0", 0, 1), ("e0", 1, 0)])


def test_rejects_ids_of_mixed_types():
    with pytest.raises(GraphError, match="vertex ids"):
        Multigraph([0, "a"], [("e", 0, "a")])
    with pytest.raises(GraphError, match="edge ids"):
        Multigraph([0, 1, 2], [("e", 0, 1), (1, 1, 2)])


def test_rejects_ids_with_equal_str_forms():
    # Product edge ids become JSON keys through str, so 1 and "1" would
    # give two product edges one key.
    with pytest.raises(GraphError, match="vertex ids 1 and '1'"):
        Multigraph([1, "1", 2], [("e", 1, "1"), ("f", "1", 2)], sort_ids=False)
    with pytest.raises(GraphError, match="edge ids 1 and '1'"):
        Multigraph([0, 1, 2], [(1, 0, 1), ("1", 1, 2)], sort_ids=False)


def test_orderings_sorted_by_default():
    g = Multigraph([2, 0, 1], [("b", 1, 2), ("a", 0, 1)])
    assert g.vertices == (0, 1, 2)
    assert [e[0] for e in g.edges] == ["a", "b"]
    g2 = Multigraph([2, 0, 1], [("b", 1, 2), ("a", 0, 1)], sort_ids=False)
    assert g2.vertices == (2, 0, 1)


def test_parallel_edges_are_distinct():
    g = theta_graph(3)
    assert g.n_edges == 3
    assert g.adjacency_count(0, 1) == 3
    assert not g.is_simple()


# -- laplacian -------------------------------------------------------------------


def test_laplacian_p2_matches_worked_example():
    g = path_graph(2)
    assert laplacian(g).row_list() == [[-1, 1, 0], [1, -2, 1], [0, 1, -1]]


def test_laplacian_k2():
    assert laplacian(path_graph(1)).row_list() == [[-1, 1], [1, -1]]


def test_laplacian_double_edge():
    assert laplacian(theta_graph(2)).row_list() == [[-2, 2], [2, -2]]


def test_laplacian_columns_sum_to_zero():
    for g in [path_graph(3), cycle_graph(4), complete_graph(4), theta_graph(3)]:
        lap = laplacian(g)
        for j in range(lap.cols):
            assert sum(lap.col(j)) == 0


# -- graph_div -------------------------------------------------------------------


def test_graph_div_is_laplacian_column():
    g = path_graph(2)
    assert graph_div(g, (1, 0, 0)) == (-1, 1, 0)
    assert graph_div(g, (0, 1, 0)) == (1, -2, 1)


def test_graph_div_constant_is_zero():
    for g in [path_graph(2), cycle_graph(5), theta_graph(4)]:
        assert graph_div(g, [7] * g.n_vertices) == tuple([0] * g.n_vertices)


# -- principality -----------------------------------------------------------------


def test_principal_laplacian_column():
    g = path_graph(2)
    assert is_graph_principal(g, (-1, 1, 0))


def test_nonzero_degree_is_not_principal():
    g = path_graph(2)
    assert not is_graph_principal(g, (1, 0, 0))


def test_cycle_torsion_class_not_principal():
    g = cycle_graph(3)
    d = (1, -1, 0)
    assert not is_graph_principal(g, d)
    assert not brute_force_principal(g, d)
    assert not sympy_principal(g, d)


def test_principal_agrees_with_oracles():
    rng = random.Random(5)
    graphs = [path_graph(2), cycle_graph(3), cycle_graph(4), theta_graph(3),
              complete_graph(4)]
    for g in graphs:
        n = g.n_vertices
        for _ in range(10):
            if rng.random() < 0.5:
                phi = [rng.randint(-3, 3) for _ in range(n)]
                d = graph_div(g, phi)
            else:
                d = tuple(rng.randint(-2, 2) for _ in range(n))
            assert is_graph_principal(g, d) == sympy_principal(g, d)


def test_div_always_principal():
    rng = random.Random(9)
    for g in [path_graph(3), cycle_graph(5), complete_graph(4), theta_graph(2)]:
        for _ in range(5):
            phi = [rng.randint(-10, 10) for _ in range(g.n_vertices)]
            assert is_graph_principal(g, graph_div(g, phi))


# -- pic / critical group ----------------------------------------------------------


def test_pic_p2_is_z():
    assert pic_group(path_graph(2)) == AbGroup(1, ())


def test_pic_c3():
    assert pic_group(cycle_graph(3)) == AbGroup(1, (3,))


def test_pic_k4():
    assert pic_group(complete_graph(4)) == AbGroup(1, (4, 4))


def test_pic_free_rank_one_and_kirchhoff_oracle():
    graphs = [path_graph(1), path_graph(4), cycle_graph(3), cycle_graph(6),
              complete_graph(3), complete_graph(4), complete_graph(5),
              theta_graph(2), theta_graph(5), random_tree(6, 42)]
    for g in graphs:
        pic = pic_group(g)
        assert pic.free_rank == 1
        assert pic.torsion_order() == spanning_tree_count(g)
        assert critical_group(g).torsion == pic.torsion


def test_spanning_tree_counts_known():
    assert spanning_tree_count(cycle_graph(3)) == 3
    assert spanning_tree_count(complete_graph(4)) == 16
    assert spanning_tree_count(complete_graph(5)) == 125
    assert spanning_tree_count(theta_graph(4)) == 4
    assert spanning_tree_count(random_tree(8, 1)) == 1


# -- genus -------------------------------------------------------------------------


def test_genus():
    assert genus(cycle_graph(3)) == 1
    assert genus(theta_graph(3)) == 2
    for seed in range(8):
        n = 2 + seed
        assert genus(random_tree(n, seed)) == 0
    assert genus(random_tree(10, 99)) == 0


# -- families ----------------------------------------------------------------------


def test_families_shapes():
    assert path_graph(2).n_vertices == 3
    assert cycle_graph(5).n_edges == 5
    assert complete_graph(4).n_edges == 6
    assert theta_graph(3).n_vertices == 2
    t = random_tree(7, 3)
    assert t.n_edges == 6 and t.is_tree()
    assert random_tree(7, 3) == random_tree(7, 3)


# -- text format -------------------------------------------------------------------


def test_parse_round_trip():
    g = Multigraph(["a", "b", "c"], [("e1", "a", "b"), ("e2", "b", "c"),
                                     ("e3", "b", "c")])
    g2 = parse_graph_text(graph_to_text(g))
    assert g == g2


def test_parse_comments_and_errors():
    text = "# a comment\nv a\nv b\ne e1 a b\n"
    g = parse_graph_text(text)
    assert g.n_vertices == 2 and g.n_edges == 1

    with pytest.raises(GraphParseError, match="line 2"):
        parse_graph_text("v a\nq nonsense\n")
    with pytest.raises(GraphParseError, match="line 3"):
        parse_graph_text("v a\nv b\ne only_two_fields a\n")


def test_parse_duplicate_endpoint_pairs_allowed():
    text = "v a\nv b\ne e1 a b\ne e2 a b\n"
    g = parse_graph_text(text)
    assert g.adjacency_count("a", "b") == 2
