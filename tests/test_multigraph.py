"""Tests for multigraphs, Laplacians, spanning-tree counts and Picard groups."""

import random
import re
from collections import Counter
from decimal import Decimal
from math import prod

import networkx
import pytest

from oracles import random_tree, spanning_tree_count
from tropic_pic.exact_lattice import AbGroup
from tropic_pic.multigraph import (
    GraphError,
    GraphParseError,
    Multigraph,
    complete_graph,
    critical_group,
    cycle_graph,
    genus,
    graph_to_text,
    laplacian,
    parse_graph_text,
    path_graph,
    pic_group,
    theta_graph,
)
from tropic_pic.product_complex import ComplexError, edge_id_str


# -- construction --------------------------------------------------------------


def test_rejects_loops():
    with pytest.raises(GraphError):
        Multigraph([0, 1], [("e0", 0, 0), ("e1", 0, 1)])


def test_rejects_disconnected():
    with pytest.raises(GraphError):
        Multigraph([0, 1, 2, 3], [("e0", 0, 1), ("e1", 2, 3)])
    with pytest.raises(GraphError, match="^empty vertex set$"):
        Multigraph([], [])


def test_rejects_duplicate_ids():
    with pytest.raises(GraphError, match="^duplicate vertex id 0$"):
        Multigraph([0, 0, 1], [("e0", 0, 1)])
    with pytest.raises(GraphError, match="^duplicate edge id 'e0'$"):
        Multigraph([0, 1], [("e0", 0, 1), ("e0", 1, 0)])
    with pytest.raises(GraphError, match="^duplicate vertex id 1.0$"):
        Multigraph([1, 1.0, 2], [("e0", 1, 2)])


def test_rejects_ids_of_mixed_types():
    with pytest.raises(GraphError, match="vertex ids") as info:
        Multigraph([0, "a"], [("e", 0, "a")])
    assert str(info.value).startswith("vertex ids must be mutually comparable: TypeError(")
    assert "not supported between instances of" in str(info.value)
    assert str(info.value).endswith(" between 0 and 'a'")
    with pytest.raises(GraphError, match="edge ids") as info:
        Multigraph([0, 1, 2], [("e", 0, 1), (1, 1, 2)])
    assert "comparable: TypeError(\"'<' not supported" in str(info.value)
    assert str(info.value).endswith(" between 'e' and 1")
    with pytest.raises(GraphError, match="vertex ids") as info:
        Multigraph([Decimal("NaN"), Decimal(1)], [("e", Decimal("NaN"), Decimal(1))])
    assert "comparable: InvalidOperation(" in str(info.value)
    assert str(info.value).endswith(" between Decimal('NaN') and Decimal('1')")
    # The pair is the first in input order that fails; 1 and 2 compare.
    with pytest.raises(GraphError, match="mutually comparable") as info:
        Multigraph([Decimal(1), Decimal(2), Decimal("NaN")],
                   [("e", Decimal(1), Decimal(2)), ("f", Decimal(2), Decimal("NaN"))])
    assert str(info.value).endswith(" between Decimal('1') and Decimal('NaN')")


def test_rejects_malformed_edges_and_unhashable_ids():
    with pytest.raises(GraphError, match=r"edge \('e', 0\) is not"):
        Multigraph([0, 1], [("e", 0)])
    with pytest.raises(GraphError, match="edge 5 is not"):
        Multigraph([0, 1], [5])
    with pytest.raises(GraphError, match=r"vertex id \[0\] is not hashable"):
        Multigraph([[0], [1]], [("e", [0], [1])])
    with pytest.raises(GraphError, match=r"edge id \['e'\] is not hashable"):
        Multigraph([0, 1], [(["e"], 0, 1)])
    with pytest.raises(GraphError, match="'e' has unknown endpoint"):
        Multigraph([0, 1], [("e", 0, [1])])


def test_rejects_ids_with_equal_str_forms():
    # Product edge ids become JSON keys through str; two NaNs are
    # distinct ids with one str form.
    a, b = float("nan"), float("nan")
    with pytest.raises(GraphError, match="vertex ids nan and nan"):
        Multigraph([a, b], [("e", a, b)])
    with pytest.raises(GraphError, match="edge ids nan and nan"):
        Multigraph([0, 1, 2], [(a, 0, 1), (b, 1, 2)])


def test_a_built_graph_refuses_to_set_or_delete_an_attribute():
    # Unguarded, g.edges = g.edges[:2] left a path on C3's vertices that
    # is_simple accepted and whose critical group read Z/4.
    g = cycle_graph(3)
    edges = g.edges
    with pytest.raises(GraphError, match="^a Multigraph is immutable: cannot set 'edges'$"):
        g.edges = g.edges[:2]
    with pytest.raises(GraphError, match="^a Multigraph is immutable: cannot delete 'edges'$"):
        del g.edges
    with pytest.raises(GraphError, match="^a Multigraph is immutable: cannot set 'new'$"):
        g.new = 1
    assert g.edges is edges and g.is_simple()
    assert critical_group(g) == AbGroup(0, (3,))


@pytest.mark.parametrize("call, arg, error, expected", [
    (laplacian, None, GraphError, "a Multigraph"),
    (pic_group, 5, GraphError, "a Multigraph"),
    (critical_group, "C3", GraphError, "a Multigraph"),
    (genus, [], GraphError, "a Multigraph"),
    (graph_to_text, ((0, 1),), GraphError, "a Multigraph"),
    (edge_id_str, 5, ComplexError, "an edge id tuple"),
])
def test_the_wrong_argument_type_raises_a_typed_error(call, arg, error, expected):
    # Each raised a bare AttributeError or TypeError.
    with pytest.raises(error, match=f"^expected {expected}, got {type(arg).__name__}$"):
        call(arg)


def test_orderings_sorted_by_default():
    g = Multigraph([2, 0, 1], [("b", 1, 2), ("a", 0, 1)])
    assert g.vertices == (0, 1, 2)
    assert [e[0] for e in g.edges] == ["a", "b"]


def test_parallel_edges_are_distinct():
    g = theta_graph(3)
    assert g.n_edges == 3
    assert laplacian(g)[0, 1] == 3
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
        assert prod(pic.torsion) == spanning_tree_count(g)
        assert critical_group(g).torsion == pic.torsion


def test_spanning_tree_counts_known():
    assert spanning_tree_count(cycle_graph(3)) == 3
    assert spanning_tree_count(complete_graph(4)) == 16
    assert spanning_tree_count(complete_graph(5)) == 125
    assert spanning_tree_count(theta_graph(4)) == 4
    assert spanning_tree_count(random_tree(8, 1)) == 1


def test_spanning_tree_count_matches_networkx():
    theta3_pendant = Multigraph([0, 1, 2], [("a", 0, 1), ("b", 0, 1), ("c", 0, 1),
                                            ("p", 1, 2)])
    graphs = [path_graph(1), path_graph(4), cycle_graph(3), cycle_graph(7),
              complete_graph(2), complete_graph(5), theta_graph(1), theta_graph(4),
              theta3_pendant, Multigraph([0, 1, 2], [("a", 0, 1), ("b", 0, 1),
                                                     ("c", 1, 2), ("d", 1, 2), ("e", 0, 2)])]
    graphs += [random_tree(n, seed) for n, seed in [(1, 0), (2, 0), (6, 1), (9, 2)]]
    for g in graphs:
        nxg = networkx.MultiGraph()
        nxg.add_nodes_from(g.vertices)
        nxg.add_edges_from((u, w) for _, u, w in g.edges)
        assert spanning_tree_count(g) == round(networkx.number_of_spanning_trees(nxg))


# -- genus -------------------------------------------------------------------------


def test_genus():
    assert genus(cycle_graph(3)) == 1
    assert genus(theta_graph(3)) == 2
    for seed in range(8):
        n = 2 + seed
        assert genus(random_tree(n, seed)) == 0
    assert genus(random_tree(10, 99)) == 0


@pytest.mark.parametrize("build, message", [
    (lambda: Multigraph(5, []), "^vertices must be an iterable, got 5$"),
    (lambda: Multigraph([0], 7), "^edges must be an iterable, got 7$"),
])
def test_rejects_arguments_that_are_not_iterable(build, message):
    with pytest.raises(GraphError, match=message):
        build()


@pytest.mark.parametrize("query", ["degree", "incident_edges", "vertex_index"])
@pytest.mark.parametrize("vertex", [99, [0]])
def test_vertex_queries_name_an_unknown_vertex(query, vertex):
    with pytest.raises(GraphError, match=f"^unknown vertex {re.escape(repr(vertex))}$"):
        getattr(cycle_graph(3), query)(vertex)


@pytest.mark.parametrize("query", ["edge_index", "endpoints"])
@pytest.mark.parametrize("eid", ["e9", [0]])
def test_edge_queries_name_an_unknown_edge(query, eid):
    with pytest.raises(GraphError, match=f"^unknown edge {re.escape(repr(eid))}$"):
        getattr(cycle_graph(3), query)(eid)


def test_incident_edges_equal_a_scan_of_all_edges():
    rng = random.Random(67)
    parallel = 0
    for _ in range(40):
        n = rng.randint(2, 5)
        pairs = [(rng.randrange(v), v) for v in range(1, n)]
        pairs += [rng.choice(pairs) if rng.random() < 0.5 else tuple(rng.sample(range(n), 2))
                  for _ in range(rng.randint(1, 4))]
        ids = rng.sample(range(100), len(pairs))
        g = Multigraph(range(n), [(f"e{k}", u, w) for k, (u, w) in zip(ids, pairs)])
        parallel += not g.is_simple()
        for v in g.vertices:
            assert g.incident_edges(v) == tuple(eid for eid, u, w in g.edges if v in (u, w))
    assert parallel > 10


def test_simple_vertices_and_is_simple_equal_a_scan_of_endpoint_pairs():
    # A vertex is simple unless it is an end of two edges with the same
    # pair of ends; the graph is simple iff every vertex is.
    rng = random.Random(71)
    parallel = 0
    for _ in range(40):
        n = rng.randint(2, 5)
        pairs = [(rng.randrange(v), v) for v in range(1, n)]
        pairs += [rng.choice(pairs)[::rng.choice((1, -1))] if rng.random() < 0.5
                  else tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 4))]
        g = Multigraph(range(n), [(f"e{k}", u, w) for k, (u, w) in enumerate(pairs)])
        ends = Counter(frozenset((u, w)) for _, u, w in g.edges)
        doubled = {v for pair, k in ends.items() if k > 1 for v in pair}
        assert g._simple_vertices() == set(g.vertices) - doubled
        assert g.is_simple() == (not doubled)
        parallel += bool(doubled)
    assert parallel > 10


# -- families ----------------------------------------------------------------------


def test_families_shapes():
    assert path_graph(2).n_vertices == 3
    assert cycle_graph(5).n_edges == 5
    assert complete_graph(4).n_edges == 6
    assert theta_graph(3).n_vertices == 2
    t = random_tree(7, 3)
    assert t.n_edges == t.n_vertices - 1 == 6
    assert random_tree(7, 3) == random_tree(7, 3)


@pytest.mark.parametrize("family, size", [
    (theta_graph, True),
    (cycle_graph, 3.5),
    (path_graph, "3"),
    (complete_graph, 4.0),
    (cycle_graph, False),
])
def test_family_sizes_must_be_ints(family, size):
    with pytest.raises(GraphError, match=rf"count must be an int, got {size!r}$"):
        family(size)


@pytest.mark.parametrize("family, size", [
    (path_graph, 0), (cycle_graph, 2), (complete_graph, 1), (theta_graph, 0)])
def test_family_sizes_below_the_least(family, size):
    with pytest.raises(GraphError, match=f"must be at least {size + 1}, got {size}$"):
        family(size)


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
    with pytest.raises(GraphParseError, match="^line 1: expected 'v <id>'$"):
        parse_graph_text("v a b\n")
    # Faults found once the whole text is read carry Multigraph's message,
    # which names no line.
    with pytest.raises(GraphParseError, match="^empty vertex set$"):
        parse_graph_text("")
    with pytest.raises(GraphParseError, match="^loop edge 'x' at vertex 'a'$"):
        parse_graph_text("v a\nv b\ne x a a\n")


@pytest.mark.parametrize("text", [None, b"v a\n", 5, ["v a"]])
def test_parse_takes_only_a_str(text):
    message = f"^graph text must be a str, got {type(text).__name__}$"
    with pytest.raises(GraphParseError, match=message):
        parse_graph_text(text)


def test_parse_duplicate_endpoint_pairs_allowed():
    text = "v a\nv b\ne e1 a b\ne e2 a b\n"
    g = parse_graph_text(text)
    assert laplacian(g)[0, 1] == 2
