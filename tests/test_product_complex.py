"""Tests for the triangulated product and its weights, the rows of P."""

import copy
import pickle
import random
import re
from collections import Counter

import pytest

from oracles import diagonals_at, ends, graph_star, rows_from_weights, weights_by_triangle_scan
from tropic_pic.multigraph import (
    Multigraph,
    complete_graph,
    cycle_graph,
    path_graph,
    theta_graph,
)
from tropic_pic.product_complex import (
    ComplexError,
    DiagonalPolicy,
    TriangulatedProduct,
    build_product,
    edge_id_str,
    parse_policy_text,
)


# -- counts ------------------------------------------------------------------


def test_p2p2_counts(p2p2):
    assert p2p2.n_vertices == 9
    assert p2p2.n_edges == 16
    assert p2p2.n_horizontal == 6
    assert p2p2.n_vertical == 6
    assert p2p2.n_diagonal == 4
    assert len(p2p2.triangles) == 8


def test_k2k2_counts(k2k2):
    assert k2k2.n_vertices == 4
    assert k2k2.n_edges == 5
    assert len(k2k2.triangles) == 2


def test_c3k2_counts(c3k2):
    assert c3k2.n_vertices == 6
    assert c3k2.n_edges == 12
    assert (c3k2.n_horizontal, c3k2.n_vertical, c3k2.n_diagonal) == (6, 3, 3)
    assert len(c3k2.triangles) == 6


def test_edge_count_formula(mixed_products):
    for tp in mixed_products:
        g, h = tp.g, tp.h
        expected = (g.n_edges * h.n_vertices + g.n_vertices * h.n_edges
                    + g.n_edges * h.n_edges)
        assert tp.n_edges == expected
        assert len(tp.triangles) == 2 * g.n_edges * h.n_edges
        assert len(tp.squares) == g.n_edges * h.n_edges


def test_rejects_edgeless_factor():
    single = Multigraph([0], [])
    with pytest.raises(ComplexError):
        build_product(single, path_graph(1))


@pytest.mark.parametrize("args, message", [
    ((None, cycle_graph(3)), "factor G must be a Multigraph, got NoneType"),
    ((cycle_graph(3), "C3"), "factor H must be a Multigraph, got str"),
    ((cycle_graph(3), cycle_graph(3), "x"), "policy must be a DiagonalPolicy, got str"),
    ((cycle_graph(3), cycle_graph(3), {}), "policy must be a DiagonalPolicy, got dict"),
    ((cycle_graph(3), cycle_graph(3), False), "policy must be a DiagonalPolicy, got bool"),
])
def test_rejects_factors_and_policies_of_the_wrong_type(args, message):
    with pytest.raises(ComplexError, match=f"^{message}$"):
        build_product(*args)


def test_diagonal_block_is_contiguous_tail(mixed_products):
    for tp in mixed_products:
        kinds = [e.kind for e in tp.edges]
        nd = tp.n_diagonal
        assert all(k == "diagonal" for k in kinds[-nd:])
        assert all(k != "diagonal" for k in kinds[:-nd])


# -- alpha -------------------------------------------------------------------


def alpha(tp, eid, v):
    """alpha(edge, vertex) read off P's row: minus its entry at an
    endpoint v of the edge, and 0 at any other vertex."""
    i, j = tp.edge_index(eid), tp.vertex_index(v)
    return -dict(tp.principal_rows[i])[j] if v in ends(tp, eid) else 0


def _edge_degrees(tp):
    """Number of triangles on each edge, counted from the triangle list."""
    return Counter(eid for tri in tp.triangles for eid in tri.edge_ids)


def test_weight_axiom_exhaustive(mixed_products):
    for tp in mixed_products:
        degrees = _edge_degrees(tp)
        for e in tp.edges:
            total = alpha(tp, e.eid, e.u) + alpha(tp, e.eid, e.w)
            assert total == degrees[e.eid]


def test_weights_equal_the_triangle_scan(mixed_products):
    theta2 = theta_graph(2)
    for tp in list(mixed_products) + [build_product(theta2, theta2)]:
        scan_alpha, link_count = weights_by_triangle_scan(tp)
        assert tp.principal_rows == rows_from_weights(tp, scan_alpha, link_count)
        assert all(alpha(tp, eid, v) == a for (eid, v), a in scan_alpha.items())


def test_alpha_diagonal_endpoints_are_one(mixed_products):
    for tp in mixed_products:
        for e in tp.edges:
            if e.kind == "diagonal":
                assert alpha(tp, e.eid, e.u) == 1
                assert alpha(tp, e.eid, e.w) == 1


def test_alpha_zero_off_edge(p2p2):
    e = p2p2.edges[0]
    for v in p2p2.vertices:
        if v not in (e.u, e.w):
            assert alpha(p2p2, e.eid, v) == 0


def test_alpha_k2k2_worked_values(k2k2):
    # standard diagonal (0,0)-(1,1); horizontal edge (0,0)-(1,0)
    h1 = ("h", "e0", 0)
    assert alpha(k2k2, h1, (1, 0)) == 1
    assert alpha(k2k2, h1, (0, 0)) == 0


def test_alpha_unknown_ids_rejected(k2k2):
    with pytest.raises(ComplexError):
        alpha(k2k2, ("h", "nope", 0), (0, 0))
    with pytest.raises(ComplexError):
        alpha(k2k2, ("h", "e0", 0), (9, 9))


@pytest.mark.parametrize("query, what", [("vertex_index", "vertex"), ("edge_index", "edge")])
def test_unhashable_ids_are_unknown(k2k2, query, what):
    with pytest.raises(ComplexError, match=rf"^unknown {what} \[0\]$"):
        getattr(k2k2, query)([0])
    with pytest.raises(ComplexError, match=r"^unknown vertex \[0\]$"):
        graph_star(k2k2, [0])


@pytest.mark.parametrize("name", ["vertex_index", "edge_index", "n_vertices", "n_edges"])
def test_graphs_and_products_share_one_copy_of_each_lookup(name):
    # Both are CellComplex, whose lookups raise each subclass's own error.
    assert getattr(Multigraph, name) is getattr(TriangulatedProduct, name)


def test_alpha_horizontal_formula_simple_graphs():
    # For simple factors: alpha((e,b), (a,b)) = deg_H(b) - #diagonals at
    # (a,b) lying over e.
    for g, h in [(path_graph(2), path_graph(2)),
                 (cycle_graph(3), path_graph(2)),
                 (complete_graph(4), cycle_graph(3))]:
        tp = build_product(g, h)
        for e in tp.edges:
            if e.kind != "horizontal":
                continue
            _, ge, b = e.eid
            for v in (e.u, e.w):
                a = v[0]
                over_e = sum(1 for did in diagonals_at(tp, v) if did[1] == ge)
                assert alpha(tp, e.eid, v) == h.degree(b) - over_e


# -- stars ---------------------------------------------------------------------


def test_p2p2_corner_stars(p2p2):
    # standard policy: diagonals (0,0)-(1,1) and (1,1)-(2,2) hit two corners
    assert len(graph_star(p2p2, (0, 0))) == 3
    assert len(graph_star(p2p2, (2, 2))) == 3
    assert len(graph_star(p2p2, (0, 2))) == 2
    assert len(graph_star(p2p2, (2, 0))) == 2


def test_p2p2_center_star(p2p2):
    center = (1, 1)
    expected = 4 + len(diagonals_at(p2p2, center))
    assert len(graph_star(p2p2, center)) == expected
    assert len(diagonals_at(p2p2, center)) == 2


def test_star_in_global_edge_order(mixed_products):
    for tp in mixed_products:
        order = {e.eid: i for i, e in enumerate(tp.edges)}
        for v in tp.vertices:
            idx = [order[eid] for eid in graph_star(tp, v)]
            assert idx == sorted(idx)
            assert diagonals_at(tp, v) == tuple(e.eid for e in tp.edges
                                                if e.kind == "diagonal" and v in (e.u, e.w))


# -- policies -------------------------------------------------------------------


def test_explicit_policy_roundtrip():
    g, h = path_graph(2), path_graph(1)
    std = build_product(g, h)
    text = "".join(f"d {ge} {he} {1 if f else 0}\n" for ge, he, f in std.squares)
    tp = build_product(g, h, parse_policy_text(text))
    assert tp.squares == std.squares
    direct = DiagonalPolicy(parse_policy_text(text).choices)
    assert build_product(g, h, direct).squares == std.squares


def test_explicit_policy_validation():
    g, h = path_graph(2), path_graph(1)
    with pytest.raises(ComplexError):
        build_product(g, h, DiagonalPolicy.explicit({("e0", "e0"): False}))
    with pytest.raises(ComplexError):
        build_product(g, h, DiagonalPolicy.explicit(
            {("e0", "e0"): False, ("e1", "e0"): True, ("zz", "e0"): True}))
    for flag in ("no", 2, 1.0, None):
        with pytest.raises(ComplexError, match=f"is not a bool, 0 or 1: {flag!r}"):
            DiagonalPolicy.explicit({("e0", "e0"): flag})
    with pytest.raises(ComplexError, match="needs a mapping, got list"):
        DiagonalPolicy.explicit([1, 2])
    with pytest.raises(ComplexError):
        parse_policy_text("d e0 e0 2\n")
    with pytest.raises(ComplexError):
        parse_policy_text("d e0 e0 0\nd e0 e0 1\n")
    # A text of blank and comment lines names no square: it is refused
    # where it is parsed, not by build_product, which names no line.
    message = "^" + re.escape("policy text has no 'd <g-edge> <h-edge> <0|1>' line") + "$"
    with pytest.raises(ComplexError, match=message):
        parse_policy_text("\n# no squares\n   \n")


@pytest.mark.parametrize("choices, message", [
    (5, "policy choices must be a frozenset, got int"),
    ({(("e0", "e0"), True)}, "policy choices must be a frozenset, got set"),
    (frozenset({(("e0", "e0"), "yes")}), "policy choice (('e0', 'e0'), 'yes') is not a"),
    (frozenset({(("e0", "e0"), 1)}), "policy choice (('e0', 'e0'), 1) is not a"),
    (frozenset({"ab"}), "policy choice 'ab' is not a (square key, bool) pair"),
    (frozenset({(("e0", "e0"), True), (("e0", "e0"), False)}), "policy choices give a square both"),
])
def test_a_policy_built_directly_checks_its_choices(choices, message):
    # Unchecked, these reach build_product as a bare TypeError, a "yes"
    # flag in tp.squares, or a flag picked by the set's iteration order.
    with pytest.raises(ComplexError, match="^" + re.escape(message)):
        DiagonalPolicy(choices)


def _flipped_e0_e0():
    return DiagonalPolicy.explicit({("e0", "e0"): 1, ("e1", "e0"): 0})


@pytest.mark.parametrize("make", [DiagonalPolicy.standard, _flipped_e0_e0])
@pytest.mark.parametrize("name", ["choices", "new"])
def test_a_policy_refuses_to_set_or_delete_an_attribute(make, name):
    policy = make()
    message = "^a DiagonalPolicy is immutable: cannot {} " + re.escape(repr(name)) + "$"
    with pytest.raises(ComplexError, match=message.format("set")):
        setattr(policy, name, frozenset())
    with pytest.raises(ComplexError, match=message.format("delete")):
        delattr(policy, name)
    assert policy == make() and vars(policy).keys() == {"choices"}


def test_a_policy_prints_compares_and_hashes_by_its_choices():
    standard, flipped = DiagonalPolicy.standard(), _flipped_e0_e0()
    assert repr(standard) == "DiagonalPolicy(choices=None)"
    assert repr(DiagonalPolicy.explicit({("e0", "e1"): 1})) \
        == "DiagonalPolicy(choices=frozenset({(('e0', 'e1'), True)}))"
    assert standard == DiagonalPolicy() and hash(standard) == hash((None,))
    assert flipped == DiagonalPolicy(flipped.choices) and hash(flipped) == hash((flipped.choices,))
    assert standard != flipped and flipped != flipped.choices and standard != (None,)


@pytest.mark.parametrize("make", [DiagonalPolicy.standard, _flipped_e0_e0])
def test_a_policy_survives_pickle_and_deepcopy(make):
    g, h = path_graph(2), path_graph(1)
    policy = make()
    for twin in (pickle.loads(pickle.dumps(policy)), copy.deepcopy(policy)):
        assert type(twin) is DiagonalPolicy and twin == policy and hash(twin) == hash(policy)
        assert build_product(g, h, twin).squares == build_product(g, h, policy).squares
        with pytest.raises(ComplexError, match="^a DiagonalPolicy is immutable"):
            twin.choices = None


@pytest.mark.parametrize("text", [None, b"d e0 e0 1\n", 5, ["d e0 e0 1"]])
def test_parse_policy_takes_only_a_str(text):
    message = f"^policy text must be a str, got {type(text).__name__}$"
    with pytest.raises(ComplexError, match=message):
        parse_policy_text(text)


@pytest.mark.parametrize("name", ["principal_rows", "_memo", "policy", "n_edges", "new"])
def test_a_built_product_refuses_to_set_or_delete_an_attribute(c3c3, name):
    # A planted attribute would be read by every per-product cache: with
    # principal_rows = (), div returned () on C3 x C3.
    rows = c3c3.principal_rows
    message = "^a TriangulatedProduct is immutable: cannot {} " + re.escape(repr(name)) + "$"
    with pytest.raises(ComplexError, match=message.format("set")):
        setattr(c3c3, name, ())
    with pytest.raises(ComplexError, match=message.format("delete")):
        delattr(c3c3, name)
    assert c3c3.principal_rows is rows
    assert c3c3.principal_rows == rows_from_weights(c3c3, *weights_by_triangle_scan(c3c3))


def test_a_product_equals_and_hashes_as_only_itself(c3c3):
    # Each product holds its own caches, so two built from the same factors
    # stay distinct; the other value classes compare by their fields.
    twin = build_product(cycle_graph(3), cycle_graph(3))
    assert c3c3 == c3c3 and c3c3 != twin and twin.principal_rows == c3c3.principal_rows
    assert hash(c3c3) == object.__hash__(c3c3) and len({c3c3, twin}) == 2
    assert repr(c3c3) == "TriangulatedProduct(9 vertices, 27 edges, 18 triangles)"


def test_parallel_edges_make_distinct_squares():
    tp = build_product(theta_graph(2), path_graph(1))
    assert len(tp.squares) == 2
    assert tp.n_diagonal == 2
    diags = [e for e in tp.edges if e.kind == "diagonal"]
    assert diags[0].eid != diags[1].eid
    # same corner set, distinct cells
    assert {diags[0].u, diags[0].w} == {diags[1].u, diags[1].w}


# -- relabeling ------------------------------------------------------------------


def _invariants(tp):
    degs = sorted(len(graph_star(tp, v)) for v in tp.vertices)
    alphas = sorted(alpha(tp, e.eid, v) for e in tp.edges for v in (e.u, e.w))
    degrees = _edge_degrees(tp)
    edegs = sorted(degrees[e.eid] for e in tp.edges)
    return degs, alphas, edegs


def test_relabeling_with_corresponding_choices_gives_isomorphic_complex():
    rng = random.Random(3)
    for g, h in [(path_graph(2), path_graph(2)),
                 (cycle_graph(4), path_graph(2)),
                 (complete_graph(4), cycle_graph(3))]:
        tp = build_product(g, h)

        gperm = list(g.vertices)
        rng.shuffle(gperm)
        gmap = dict(zip(g.vertices, gperm))
        hperm = list(h.vertices)
        rng.shuffle(hperm)
        hmap = dict(zip(h.vertices, hperm))
        g2 = Multigraph(gperm, [(e, gmap[u], gmap[w]) for e, u, w in g.edges])
        h2 = Multigraph(hperm, [(e, hmap[u], hmap[w]) for e, u, w in h.edges])

        # push the standard choices through the relabeling
        def reverses(graph, graph2, vmap, eid):
            u, w = graph.endpoints(eid)
            if graph.vertex_index(u) > graph.vertex_index(w):
                u, w = w, u
            u2, w2 = vmap[u], vmap[w]
            return graph2.vertex_index(u2) > graph2.vertex_index(w2)

        choices = {}
        for ge, he, flipped in tp.squares:
            flip2 = flipped ^ reverses(g, g2, gmap, ge) ^ reverses(h, h2, hmap, he)
            choices[(ge, he)] = flip2
        tp2 = build_product(g2, h2, DiagonalPolicy.explicit(choices))
        assert _invariants(tp) == _invariants(tp2)


# -- misc -------------------------------------------------------------------------


def test_edge_id_str():
    assert edge_id_str(("h", "e0", 1)) == "h:e0:1"
