"""Tests for divisors, balancing conditions, Cartier predicates, Pic and Cl."""

import copy
import functools
import gc
import pickle
import random
import re
import sys
import weakref

import pytest
from sympy import Matrix as SymMatrix

from oracles import (
    balancing_conditions_by_factor_edges,
    cut_by_restriction,
    cuts_out_each_local_lattice,
    dense_condition_kernel,
    dense_principal_matrix,
    diagonals_at,
    divisor_json_dumps,
    ends,
    factor_pullbacks,
    from_generators,
    full_lattice,
    graph_star,
    local_key_matrix,
    local_rank,
    local_rank_expected,
    locally_saturated_per_star,
    matmul,
    ordered_kernel_basis,
    pulled_back_laplacian_columns,
    random_policy,
    random_tree,
    rank,
    saturated_multigraph_product,
    sparse_columns,
    sparse_rows,
    submatrix,
    submatrix_local_matrix,
    zeros,
)
from tropic_pic import divisor_theory, exact_lattice
from tropic_pic.exact_lattice import (
    AbGroup,
    IntMatrix,
    Lattice,
    LatticeError,
    cokernel,
    condition_kernel,
    invariant_factors,
    lattice_contains,
    lattice_intersect,
    lattice_member,
    quotient,
    satisfies,
    span_conditions,
    transpose,
)
from tropic_pic.divisor_theory import (
    _balancing_conditions,
    balancing_matrix,
    cart_lattice,
    cl,
    div,
    divisor_from_json,
    divisor_to_json,
    is_cartier,
    is_principal,
    is_q_cartier,
    pic,
    prin_lattice,
    principal_matrix,
    qcart_lattice,
)
from tropic_pic.multigraph import (
    Multigraph,
    complete_graph,
    critical_group,
    cycle_graph,
    genus,
    path_graph,
    theta_graph,
)
from tropic_pic.product_complex import (
    ComplexError,
    DiagonalPolicy,
    build_product,
    edge_id_str,
)


def intersection_chain_cart(tp):
    """Cart as the intersection over vertices of the preimages of the
    local lattices under restriction; each preimage is generated by the
    lifted local basis and the unit divisors off the vertex's star."""
    ne = tp.n_edges
    result = full_lattice(ne)
    for v in tp.vertices:
        star_idx = [tp.edge_index(eid) for eid in graph_star(tp, v)]
        local = Lattice.from_matrix(submatrix_local_matrix(tp, v))
        gens = []
        for j in range(local.rank):
            lifted = [0] * ne
            for pos, val in zip(star_idx, local.basis.col(j)):
                lifted[pos] = val
            gens.append(lifted)
        for i in set(range(ne)) - set(star_idx):
            gens.append([int(k == i) for k in range(ne)])
        result = lattice_intersect(result, from_generators(ne, gens))
    return result


def locally_principal(tp, d):
    """Per-vertex membership of the restriction of d in the local lattice."""
    for v in tp.vertices:
        local = Lattice.from_matrix(submatrix_local_matrix(tp, v))
        restricted = [d[tp.edge_index(eid)] for eid in graph_star(tp, v)]
        if not lattice_member(local, restricted)[0]:
            return False
    return True


def random_multigraph(rng):
    """Connected multigraph on 2 or 3 vertices: a random tree plus up to
    two extra edges, which may be parallel to tree edges."""
    n = rng.randint(2, 3)
    edges = [(f"e{v - 1}", rng.randrange(v), v) for v in range(1, n)]
    for _ in range(rng.randint(0, 2)):
        u, w = rng.sample(range(n), 2)
        edges.append((f"e{len(edges)}", u, w))
    return Multigraph(list(range(n)), edges)


def theta2_theta2():
    return build_product(theta_graph(2), theta_graph(2))


# -- principal matrix -----------------------------------------------------------


def test_k2k2_principal_matrix_hand_values(k2k2):
    # edges in order [h(e0,0), h(e0,1), v(0,e0), v(1,e0), d(e0,e0)];
    # vertices [(0,0), (0,1), (1,0), (1,1)]; standard diagonal (0,0)-(1,1).
    p = principal_matrix(k2k2)
    assert p.row_list() == [
        [0, 0, -1, 1],
        [1, -1, 0, 0],
        [0, -1, 0, 1],
        [1, 0, -1, 0],
        [-1, 1, 1, -1],
    ]


def test_div_equals_matrix_product(k2k2):
    phi = (5, -2, 3, 7)
    assert div(k2k2, phi) == principal_matrix(k2k2).mul_vec(phi)


def test_div_of_constants_is_zero(mixed_products):
    for tp in mixed_products:
        assert div(tp, [4] * tp.n_vertices) == tuple([0] * tp.n_edges)


def test_columns_sum_to_zero_vector(mixed_products):
    for tp in mixed_products:
        p = principal_matrix(tp)
        for i in range(p.rows):
            assert sum(p.row(i)) == 0


def test_indicator_divisor_pattern(p2p2):
    # div of the indicator of v: -1 on each incident diagonal, and on an
    # edge off v the number of triangles on it with opposite vertex v.
    v = (1, 1)
    j = p2p2.vertex_index(v)
    p = principal_matrix(p2p2)
    for i, e in enumerate(p2p2.edges):
        if v in (e.u, e.w):
            if e.kind == "diagonal":
                assert p[i, j] == -1
        else:
            assert p[i, j] == sum(e.eid in tri.edge_ids and v in tri.verts
                                  for tri in p2p2.triangles)


def test_p2p2_principal_matrix_rank_and_kernel(p2p2):
    p = principal_matrix(p2p2)
    assert (p.rows, p.cols) == (16, 9)
    assert rank(p) == 8
    assert SymMatrix(p.row_list()).rank() == 8
    # kernel is exactly the constants
    from tropic_pic.exact_lattice import kernel

    k = kernel(p)
    assert k.rank == 1
    assert lattice_member(k, [1] * 9)[0]


def test_kernel_contains_all_ones(mixed_products):
    for tp in mixed_products:
        assert div(tp, [1] * tp.n_vertices) == tuple([0] * tp.n_edges)


# -- local matrices ----------------------------------------------------------------


def test_local_keys_keep_the_closed_star_columns(p2p2, mixed_products):
    # Closed-star columns only: every dropped column of the full |V|-column
    # restriction is zero, so the local lattice does not change.
    assert local_key_matrix(p2p2, (1, 1)).cols == 7  # (2, 0) and (0, 2) are off both diagonals
    assert local_key_matrix(p2p2, (2, 0)).cols == 3
    for tp in mixed_products:
        p = principal_matrix(tp)
        for v in tp.vertices:
            star = graph_star(tp, v)
            rows = [tp.edge_index(eid) for eid in star]
            closed = sorted({tp.vertex_index(u) for eid in star for u in ends(tp, eid)})
            m = local_key_matrix(tp, v)
            assert (m.rows, m.cols) == (len(star), len(closed))
            full = submatrix(p, rows, range(tp.n_vertices))
            for j in set(range(tp.n_vertices)) - set(closed):
                assert not any(full.col(j))
            assert Lattice.from_matrix(m) == Lattice.from_matrix(full)


def test_principal_matrix_and_local_keys_equal_the_dense_construction(mixed_products):
    rng = random.Random(31)
    products = list(mixed_products) + [theta2_theta2()]
    for k in range(10):
        g, h = random_multigraph(rng), random_multigraph(rng)
        products.append(build_product(g, h, random_policy(g, h, k)))
    for tp in products:
        assert principal_matrix(tp) == dense_principal_matrix(tp)
        for v in tp.vertices:
            # the same matrix up to column order
            key_cols = sorted(local_key_matrix(tp, v).col_list())
            assert key_cols == sorted(submatrix_local_matrix(tp, v).col_list())


def test_principal_matrix_and_local_congruences_are_built_unchecked(monkeypatch):
    checked = []
    real = IntMatrix.__init__
    monkeypatch.setattr(IntMatrix, "__init__",
                        lambda self, *args: checked.append(args) or real(self, *args))
    tp = build_product(cycle_graph(4), theta_graph(2))
    p = principal_matrix(tp)
    conditions = divisor_theory._cartier_conditions(tp)
    assert checked == []
    monkeypatch.undo()
    assert p == dense_principal_matrix(tp)
    assert cuts_out_each_local_lattice(tp, conditions)


def test_local_rank_law(mixed_products):
    # rank M_v = distinct far endpoints of the diagonals at v, plus 2:
    # diagonals over parallel edges reaching the same vertex have equal
    # rows.  On simple factors that is the number of diagonals, plus 2.
    saw_shared_far_endpoint = False
    for tp in mixed_products:
        simple = tp.g.is_simple() and tp.h.is_simple()
        for v in tp.vertices:
            a, b = v
            r = local_rank(tp, v)
            diagonals = diagonals_at(tp, v)
            n_diag = len(diagonals)
            n_far = len({w for d in diagonals for w in ends(tp, d)} - {v})
            star = len(graph_star(tp, v))
            if simple:
                assert n_far == n_diag
            saw_shared_far_endpoint |= n_far < n_diag
            assert r == local_rank_expected(tp, v) == n_far + 2
            assert r + tp.g.degree(a) + tp.h.degree(b) - 2 + (n_diag - n_far) == star
    # theta(3) x P2 keeps the parallel-edge case covered
    assert saw_shared_far_endpoint


def test_local_torsion_is_covered(mixed_products):
    # theta(3) x P2 has a local lattice of index 3 in its saturation;
    # its congruences must then include one modulo 3.
    torsion = []
    for tp in mixed_products:
        for v in tp.vertices:
            m = submatrix_local_matrix(tp, v)
            factors = invariant_factors(sparse_rows(m))
            if any(f > 1 for f in factors):
                moduli = [q for _, q in span_conditions(sparse_rows(m))]
                torsion.append((factors, 3 in moduli))
    assert ([1, 1, 3], True) in torsion


def test_cartier_conditions_equal_the_per_vertex_oracle(mixed_products):
    # Vertex by vertex, the congruences at v cut out L_v, as many as the
    # dense oracle's minimal set.
    for tp in mixed_products:
        assert cuts_out_each_local_lattice(tp, divisor_theory._cartier_conditions(tp))


def test_c6c6_solves_nine_local_lattices(monkeypatch):
    solved = []
    real = divisor_theory.span_conditions
    monkeypatch.setattr(divisor_theory, "span_conditions",
                        lambda rows: solved.append(rows) or real(rows))
    tp = build_product(cycle_graph(6), cycle_graph(6))
    conditions = divisor_theory._cartier_conditions(tp)
    assert tp.n_vertices == 36 and len(solved) == 9
    assert cuts_out_each_local_lattice(tp, conditions)
    # Every local lattice is saturated: two equations per vertex, and no
    # congruence.
    assert len(conditions) == 72 and all(m == 0 for _, m in conditions)


def test_local_rank_two_without_diagonals(p2p2):
    v = (2, 0)  # corner off every standard diagonal
    assert len(diagonals_at(p2p2, v)) == 0
    assert local_rank(p2p2, v) == 2


# -- balancing ----------------------------------------------------------------------


def test_p2p2_balancing_shape_and_kernel(p2p2):
    c = balancing_matrix(p2p2)
    assert (c.rows, c.cols) == (6, 16)
    assert rank(c) == 6
    assert qcart_lattice(p2p2).rank == 10


def test_k2k2_balancing_is_empty(k2k2):
    c = balancing_matrix(k2k2)
    assert c.rows == 0
    rng = random.Random(1)
    for _ in range(5):
        d = [rng.randint(-4, 4) for _ in range(k2k2.n_edges)]
        assert is_q_cartier(k2k2, d)


def test_balancing_conditions_equal_the_factor_edge_grouping(mixed_products):
    # Read off each vertex's star, the equations are the ones grouped
    # through the factor graphs: the same tuple, in the same order.
    products = list(mixed_products) + [theta2_theta2(),
                                       build_product(theta_graph(3), cycle_graph(6))]
    for tp in products:
        assert _balancing_conditions(tp) == balancing_conditions_by_factor_edges(tp)


def test_balancing_row_count_formula(mixed_products):
    for tp in mixed_products:
        expected = sum(tp.g.degree(a) + tp.h.degree(b) - 2
                       for (a, b) in tp.vertices)
        assert balancing_matrix(tp).rows == expected


def test_balancing_kills_principal_columns(mixed_products):
    # Principal divisors are balanced: the fact Cart in QCart rests on.
    for tp in list(mixed_products) + [theta2_theta2()]:
        c, p = balancing_matrix(tp), principal_matrix(tp)
        assert matmul(c, p) == zeros(c.rows, p.cols)


def test_unit_diagonal_divisor_fails_balancing(p2p2):
    d = [0] * p2p2.n_edges
    d[p2p2.edge_index(("d", "e0", "e0"))] = 1
    assert not is_q_cartier(p2p2, d)
    assert not is_principal(p2p2, d)


# -- predicates ----------------------------------------------------------------------


def test_principal_divisors_detected(mixed_products):
    rng = random.Random(2)
    for tp in mixed_products:
        for _ in range(3):
            phi = [rng.randint(-3, 3) for _ in range(tp.n_vertices)]
            d = div(tp, phi)
            assert is_principal(tp, d)
            assert is_cartier(tp, d)
            assert is_q_cartier(tp, d)
        assert is_principal(tp, [0] * tp.n_edges)


def test_chain_principal_cartier_qcartier(small_products):
    rng = random.Random(4)
    for tp in small_products:
        basis = cart_lattice(tp).basis
        for j in range(basis.cols):
            d = basis.col(j)
            assert is_cartier(tp, d)
            assert is_q_cartier(tp, d)
        for _ in range(3):
            coeffs = [rng.randint(-2, 2) for _ in range(basis.cols)]
            d = basis.mul_vec(coeffs)
            assert is_cartier(tp, d)
            assert is_q_cartier(tp, d)


def test_cart_sandwich(mixed_products):
    assert len(mixed_products) == 9
    for tp in mixed_products:
        prin = prin_lattice(tp)
        cart = cart_lattice(tp)
        qcart = qcart_lattice(tp)
        assert lattice_contains(cart, prin)
        assert lattice_contains(qcart, cart)
        assert cart.rank == qcart.rank


def test_cart_matches_intersection_chain(mixed_products):
    products = list(mixed_products) + [theta2_theta2()]
    for tp in list(products):
        for seed in (3, 11):
            products.append(build_product(tp.g, tp.h, random_policy(tp.g, tp.h, seed)))
    for tp in products:
        assert cart_lattice(tp) == intersection_chain_cart(tp)


def test_cart_matches_intersection_chain_on_random_multigraphs():
    rng = random.Random(43)
    n_parallel = 0
    for k in range(40):
        g, h = random_multigraph(rng), random_multigraph(rng)
        n_parallel += not (g.is_simple() and h.is_simple())
        policy = random_policy(g, h, k) if k % 2 else DiagonalPolicy.standard()
        tp = build_product(g, h, policy)
        assert cart_lattice(tp) == intersection_chain_cart(tp)
    assert n_parallel >= 10


def test_cart_is_qcart_cut_by_the_congruences(mixed_products):
    # Locally saturated products return QCart itself, the others the
    # kernel of the congruences; both equal QCart cut by every congruence.
    saturated = []
    for tp in list(mixed_products) + [theta2_theta2()]:
        cart, qcart = cart_lattice(tp), qcart_lattice(tp)
        assert cart == cut_by_restriction(qcart, divisor_theory._cartier_conditions(tp))
        saturated.append(divisor_theory._locally_saturated(tp))
        if saturated[-1]:
            assert cart is qcart
    assert any(saturated) and not all(saturated)


def test_kernels_in_their_own_column_order_span_qcart_and_cart(mixed_products):
    # ``condition_kernel`` eliminates the balancing equations and the
    # congruences with the edges renumbered vertex by vertex, from the
    # last vertex back.  Its K, lifted in that order and moved back to
    # the edges, spans the dense kernel of the conditions.
    for tp in list(mixed_products) + [theta2_theta2()]:
        n = tp.n_edges
        for conditions in (_balancing_conditions(tp), divisor_theory._cartier_conditions(tp)):
            cut = condition_kernel(n, conditions)
            assert cut._cut[1][:n] != list(range(n))
            assert Lattice.from_matrix(ordered_kernel_basis(cut)) \
                == dense_condition_kernel(n, conditions)


def test_local_test_equals_the_per_star_oracle(mixed_products):
    # Counting each off-lemma star's congruences decides what one
    # invariant factor test per distinct star decides; theta3 x P2 (in
    # mixed_products) and theta2 x theta2 fail it.
    products = list(mixed_products) + [theta2_theta2(), saturated_multigraph_product()]
    answers = [divisor_theory._locally_saturated(tp) for tp in products]
    assert answers == [locally_saturated_per_star(tp) for tp in products]
    assert answers.count(False) == 2


def test_a_product_with_parallel_edges_can_be_locally_saturated(monkeypatch):
    # G's vertices 0 and 1 have two edges between them, so the lemma
    # covers only the vertices over 2, and the local test reads the four
    # stars over 0 and 1.  Each has its Q_v's equations and no modulus,
    # so Cart is QCart, as the kernel of every congruence confirms.
    tp = saturated_multigraph_product()
    assert (tp.n_vertices, tp.n_edges) == (6, 15) and not tp.g.is_simple()
    assert verdict_stars(monkeypatch, tp) == ([(0, 0), (0, 1), (1, 0), (1, 1)], True)
    assert divisor_theory._locally_saturated(tp) and locally_saturated_per_star(tp)
    assert cart_lattice(tp) is qcart_lattice(tp)
    assert condition_kernel(tp.n_edges, divisor_theory._cartier_conditions(tp)) == qcart_lattice(tp)
    assert pic(tp) == cl(tp) == AbGroup(2, (5,))


def test_theta3_pullbacks_on_theta3_x_c4_are_q_cartier_but_not_cartier():
    # On simple factors every pullback is Cartier (a property test).  On
    # theta3 x C4 the pullbacks of C4's vertices still are, but those of
    # theta3's two vertices are only Q-Cartier; the pullbacks of both
    # factors' Laplacian columns are principal all the same.
    tp = build_product(theta_graph(3), cycle_graph(4))
    pull_g, pull_h = factor_pullbacks(tp)
    assert len(pull_g) == 2 and len(pull_h) == 4
    assert [(is_q_cartier(tp, d), is_cartier(tp, d)) for d in pull_g] == [(True, False)] * 2
    assert all(is_cartier(tp, d) for d in pull_h)
    for graph, pullbacks in ((tp.g, pull_g), (tp.h, pull_h)):
        assert all(is_principal(tp, d) for d in pulled_back_laplacian_columns(graph, pullbacks))


def test_is_cartier_matches_local_membership(mixed_products):
    rng = random.Random(47)
    # Q-Cartier divisors that are not Cartier but satisfy every local
    # equation: only a congruence rejects them (theta(3) x P2).
    congruence_only = 0
    for tp in list(mixed_products) + [theta2_theta2()]:
        qcart = qcart_lattice(tp)
        saturation = qcart.rank == cart_lattice(tp).rank
        for j in range(qcart.rank):
            d = qcart.basis.col(j)
            assert is_cartier(tp, d) == locally_principal(tp, d)
            congruence_only += saturation and not is_cartier(tp, d)
        basis = cart_lattice(tp).basis
        for _ in range(4):
            d = list(basis.mul_vec([rng.randint(-2, 2) for _ in range(basis.cols)]))
            assert is_cartier(tp, d) and locally_principal(tp, d)
            d[rng.randrange(tp.n_edges)] += rng.choice([-1, 1, 2, 3])
            assert is_cartier(tp, d) == locally_principal(tp, d)
            d = [rng.randint(-2, 2) for _ in range(tp.n_edges)]
            assert is_cartier(tp, d) == locally_principal(tp, d)
    assert congruence_only > 0


def test_is_cartier_equals_the_congruences(mixed_products):
    # is_cartier reads the balancing equations on locally saturated
    # products; its answer must be the congruences' on every product.
    rng = random.Random(53)
    paths = set()
    for tp in list(mixed_products) + [theta2_theta2()]:
        fresh = build_product(tp.g, tp.h, tp.policy)
        qcart = qcart_lattice(fresh).basis
        divisors = [qcart.col(j) for j in range(qcart.cols)]
        for _ in range(6):
            d = list(qcart.mul_vec([rng.randint(-2, 2) for _ in range(qcart.cols)]))
            d[rng.randrange(fresh.n_edges)] += rng.choice([0, 1, 2])
            divisors += [d, [rng.randint(-2, 2) for _ in range(fresh.n_edges)]]
        answers = [is_cartier(fresh, d) for d in divisors]
        conditions = divisor_theory._cartier_conditions(fresh)
        assert answers == [satisfies(conditions, d) for d in divisors]
        paths.add(divisor_theory._locally_saturated(fresh))
    assert paths == {True, False}


def test_is_cartier_builds_the_congruences_only_where_needed(monkeypatch):
    builds = []
    real = divisor_theory._cartier_conditions.__wrapped__

    @functools.wraps(real)
    def counted(tp):
        builds.append(tp)
        return real(tp)

    monkeypatch.setattr(divisor_theory, "_cartier_conditions", divisor_theory._per_product(counted))
    rng = random.Random(59)
    k4, c4 = complete_graph(4), cycle_graph(4)
    for tp, n_builds in ((build_product(cycle_graph(6), cycle_graph(6)), 0),
                         (build_product(k4, c4, random_policy(k4, c4, 1)), 0),
                         (theta2_theta2(), 1)):
        builds.clear()
        for _ in range(10):
            assert not is_cartier(tp, [rng.randint(-2, 2) for _ in range(tp.n_edges)])
        assert is_cartier(tp, principal_matrix(tp).col(0))
        assert builds == [tp] * n_builds


@pytest.mark.parametrize("g, h, expected", [
    (cycle_graph(12), cycle_graph(12), (AbGroup(3, (12, 12)),) * 2),  # locally saturated
    (theta_graph(2), cycle_graph(8), (AbGroup(2, (8,)), AbGroup(3, (2, 8)))),  # Cart by congruences
])
def test_pic_and_cl_lift_no_canonical_basis(monkeypatch, g, h, expected):
    """Pic and Cl write P's columns in the kernel K on the free
    coordinates of QCart and of Cart: neither lattice lifts K to its
    canonical basis over the edges until that basis is read."""
    lifts = []
    real = exact_lattice._lift
    monkeypatch.setattr(exact_lattice, "_lift", lambda *args: lifts.append(args) or real(*args))
    tp = build_product(g, h)
    assert (pic(tp), cl(tp)) == expected
    if g.is_simple():
        assert pic(tp) == AbGroup.direct_sum(AbGroup.free(2 + genus(g) * genus(h)),
                                             critical_group(g), critical_group(h))
    assert lifts == []
    lattices = {id(lat): lat for lat in (cart_lattice(tp), qcart_lattice(tp))}.values()
    assert all(lat.rank for lat in lattices) and lifts == []  # rank reads K
    for lat in lattices:
        assert lat.columns and lat.basis.cols == lat.rank
    assert len(lifts) == len(lattices)


def pic_and_cl_calls(monkeypatch, tp):
    """A fresh copy of tp, the number of calls of each of
    ``divisor_theory``'s ``quotient``, ``_cartier_conditions``,
    ``condition_kernel`` and ``span_conditions``, and of
    ``exact_lattice.invariant_factors`` (each quotient's cokernel calls
    it once), that pic and cl make on it together, and the rows passed
    to each ``span_conditions`` call, in order."""
    calls, solved = {}, []
    fresh = build_product(tp.g, tp.h, tp.policy)
    with monkeypatch.context() as patch:
        for module, name in ((divisor_theory, "quotient"), (divisor_theory, "_cartier_conditions"),
                             (divisor_theory, "condition_kernel"),
                             (divisor_theory, "span_conditions"),
                             (exact_lattice, "invariant_factors")):
            calls[name] = 0
            real = getattr(module, name)

            def counted(*args, name=name, real=real):
                calls[name] += 1
                if name == "span_conditions":
                    solved.append(args[0])
                return real(*args)

            patch.setattr(module, name, counted)
        pic(fresh)
        cl(fresh)
        pic(fresh)
    return fresh, calls, solved


def verdict_stars(monkeypatch, tp):
    """The vertices whose stars ``_locally_saturated`` reads on a fresh
    copy of tp, in order, and its verdict."""
    read = []
    fresh = build_product(tp.g, tp.h, tp.policy)
    real = divisor_theory._star_conditions
    with monkeypatch.context() as patch:
        patch.setattr(divisor_theory, "_star_conditions",
                      lambda tp, v: read.append(v) or real(tp, v))
        return read, divisor_theory._locally_saturated(fresh)


def test_simple_factors_share_one_lattice_and_one_quotient(mixed_products, monkeypatch):
    # No congruence is built and one kernel is taken, QCart's: every
    # vertex is locally saturated, so Cart is QCart without them.  The
    # lemma in ``_locally_saturated`` covers every vertex of a product of
    # simple factors, so no local key is read and no star is solved; the
    # one invariant factor call is the quotient's.  The per-star oracle
    # confirms the answer.
    k4, c4 = complete_graph(4), cycle_graph(4)
    products = [build_product(cycle_graph(n), cycle_graph(n)) for n in range(3, 7)]
    products += [build_product(k4, c4, random_policy(k4, c4, seed)) for seed in (1, 2, 3)]
    products += [tp for tp in mixed_products if tp.g.is_simple() and tp.h.is_simple()]
    assert len(products) == 15
    keys = []
    real_key = divisor_theory._local_key
    monkeypatch.setattr(divisor_theory, "_local_key",
                        lambda tp, v: keys.append(v) or real_key(tp, v))
    stars = []
    for tp in products:
        fresh, calls, solved = pic_and_cl_calls(monkeypatch, tp)
        assert cart_lattice(fresh) is qcart_lattice(fresh)
        assert calls == {"quotient": 1, "_cartier_conditions": 0, "condition_kernel": 1,
                         "span_conditions": 0, "invariant_factors": 1}
        assert keys == [] and solved == []
        assert verdict_stars(monkeypatch, tp) == ([], True)
        assert locally_saturated_per_star(fresh)
        stars.append(len({submatrix_local_matrix(fresh, v) for v in fresh.vertices}))
        assert pic(fresh) == cl(fresh)
    assert (products[3].n_vertices, stars[3]) == (36, 9)  # C6 x C6


def test_multigraph_factors_run_two_quotients(monkeypatch):
    for g, h in ((theta_graph(3), path_graph(2)), (theta_graph(2), theta_graph(2))):
        fresh, calls, solved = pic_and_cl_calls(monkeypatch, build_product(g, h))
        assert cart_lattice(fresh) != qcart_lattice(fresh)
        # Every vertex of a theta factor is off the lemma, so the local
        # test solves every distinct star, once each, and the congruences
        # reuse those solves: one ``span_conditions`` call per distinct
        # star, the local test's, and no invariant factor call beyond the
        # two quotients'.  Two kernels are taken: Cart's of the
        # congruences, and QCart's for Cl.
        distinct = {submatrix_local_matrix(fresh, v) for v in fresh.vertices}
        assert len(distinct) == fresh.n_vertices
        assert calls == {"quotient": 2, "_cartier_conditions": 1, "condition_kernel": 2,
                         "span_conditions": len(distinct), "invariant_factors": 2}
        assert solved == [divisor_theory._local_key(fresh, v) for v in fresh.vertices]
        assert verdict_stars(monkeypatch, fresh) == (list(fresh.vertices), False)


def test_mixed_factors_test_only_the_stars_off_the_lemma(monkeypatch):
    # The path 0 - 1 = 2 has two edges between 1 and 2, so the lemma in
    # ``_locally_saturated`` covers only the vertices over 0.  The local
    # test reads the stars off the lemma, those alone, and its first
    # ``span_conditions`` calls are their distinct keys; it fails, so the
    # congruences are built at every vertex, as on theta factors, and
    # solve only the stars the test left.
    g = Multigraph([0, 1, 2], [("e0", 0, 1), ("e1", 1, 2), ("e2", 1, 2)])
    for h in (cycle_graph(3), g):
        fresh, calls, solved = pic_and_cl_calls(monkeypatch, build_product(g, h))
        simple_h = {0} if h is g else set(h.vertices)
        off_lemma = [(a, b) for a, b in fresh.vertices if a != 0 or b not in simple_h]
        assert len(off_lemma) == (8 if h is g else 6)
        assert verdict_stars(monkeypatch, fresh) == (off_lemma, False)
        distinct = {submatrix_local_matrix(fresh, v) for v in off_lemma}
        every_star = {submatrix_local_matrix(fresh, v) for v in fresh.vertices}
        assert len(every_star) > len(distinct)
        assert calls == {"quotient": 2, "_cartier_conditions": 1, "condition_kernel": 2,
                         "span_conditions": len(every_star), "invariant_factors": 2}
        keys = list(dict.fromkeys(divisor_theory._local_key(fresh, v) for v in fresh.vertices))
        off_keys = list(dict.fromkeys(divisor_theory._local_key(fresh, v) for v in off_lemma))
        assert len(off_keys) == len(distinct)
        assert solved[:len(off_keys)] == off_keys
        assert sorted(solved) == sorted(keys)
        assert not locally_saturated_per_star(fresh)


def test_each_vertex_builds_its_local_key_once(monkeypatch):
    # theta3 x C12 is off the lemma at every vertex: the local test reads
    # each star, and Cart's congruences read each one again, by vertex.
    keys = []
    real = divisor_theory._local_key
    monkeypatch.setattr(divisor_theory, "_local_key", lambda tp, v: keys.append(v) or real(tp, v))
    tp = build_product(theta_graph(3), cycle_graph(12))
    assert pic(tp) == AbGroup(2, (12,))
    cl(tp)  # its group carries ROADMAP item 1's defect, so it is not pinned here
    assert sorted(keys) == sorted(tp.vertices)


def test_pic_and_cl_solve_each_principal_column_in_the_touched_block(monkeypatch):
    # C8 x C8 is locally saturated, so Pic and Cl share one quotient of
    # QCart by P's |V| columns.  Each column's entries on QCart's free
    # columns are its coordinates there, and only the rest is solved for,
    # in kt: one membership solve per column with an entry there, 40 of
    # the 64, each in fewer coordinates than there are edges.  A column
    # with none has witness 0 and is not solved.  No canonical basis is
    # lifted.
    dims, solved = [], []
    real = exact_lattice.lattice_member
    monkeypatch.setattr(exact_lattice, "lattice_member",
                        lambda lat, v: dims.append(lat.ambient_dim) or solved.append(v)
                        or real(lat, v))
    tp = build_product(cycle_graph(8), cycle_graph(8))
    assert pic(tp) == cl(tp) == AbGroup(3, (8, 8))
    assert len(dims) == 40 and max(dims) < tp.n_edges
    assert all(any(v) for v in solved)
    assert "columns" not in vars(qcart_lattice(tp))


def test_cart_and_pic_build_no_qcart_off_the_saturated_branch():
    # theta3 x P2 and theta2 x theta2 are not locally saturated: Cart is the
    # kernel of the congruences, and Pic quotients it, with no balancing
    # equation written and no QCart built.
    for g, h in ((theta_graph(3), path_graph(2)), (theta_graph(2), theta_graph(2))):
        for run in ((cart_lattice,), (pic,), (cart_lattice, pic)):
            fresh = build_product(g, h)
            for fn in run:
                fn(fresh)
            assert not divisor_theory._locally_saturated(fresh)
            assert {"qcart_lattice", "_balancing_conditions"}.isdisjoint(fresh._memo)
            assert {fn.__name__ for fn in run} <= set(fresh._memo)


def test_quotient_by_principal_columns_equals_by_prin_basis(mixed_products):
    for tp in list(mixed_products) + [theta2_theta2()]:
        for lat in (cart_lattice(tp), qcart_lattice(tp)):
            assert quotient(lat, sparse_columns(principal_matrix(tp))) \
                == quotient(lat, prin_lattice(tp).columns)


def test_pic_and_cl_build_no_prin_lattice(mixed_products):
    for tp in list(mixed_products) + [theta2_theta2()]:
        fresh = build_product(tp.g, tp.h, tp.policy)
        pic(fresh)
        cl(fresh)
        assert "prin_lattice" not in fresh._memo


def test_is_principal_builds_no_prin_lattice(mixed_products):
    for tp in list(mixed_products) + [theta2_theta2()]:
        fresh = build_product(tp.g, tp.h, tp.policy)
        assert is_principal(fresh, div(fresh, list(range(fresh.n_vertices))))
        assert "prin_lattice" not in fresh._memo
        assert "_principal_conditions" in fresh._memo
        assert "principal_matrix" not in fresh._memo  # div reads P's sparse rows


def test_prin_lattice_leaves_no_principal_matrix_in_the_memo():
    # prin_lattice keeps its own result, so P need not stay beside it.
    tp = build_product(cycle_graph(4), cycle_graph(3))
    prin_lattice(tp)
    assert "prin_lattice" in tp._memo and "principal_matrix" not in tp._memo
    assert principal_matrix(tp) == dense_principal_matrix(tp)
    assert "principal_matrix" not in tp._memo


def test_principal_conditions_are_the_cokernel_of_p(mixed_products):
    # The conditions are written off P's rows at S, the edges that no
    # unit row of QCart's kernel owns, and read only S.  One congruence
    # per torsion factor of Z^E / Prin, which is the torsion of Cl, in
    # divisibility order, then |S| - rank P equations, whose values on
    # QCart have rank rank QCart - rank P, Cl's free rank.  K4 x C4 has
    # torsion Jac(K4) + Jac(C4) = Z/4 + Z/4 + Z/4.
    k4c4 = build_product(complete_graph(4), cycle_graph(4))
    for tp in list(mixed_products) + [theta2_theta2(), k4c4]:
        conditions = divisor_theory._principal_conditions(tp)
        coker, qcart, group = cokernel(tp.principal_rows), qcart_lattice(tp), cl(tp)
        rank_p = tp.n_edges - coker.free_rank
        _, perm, units, *_ = qcart._cut
        s = {i for i, p in enumerate(perm) if p not in units}
        moduli = [m for _, m in conditions]
        assert moduli == list(coker.torsion) + [0] * (len(s) - rank_p)
        assert group.torsion == coker.torsion and group.free_rank == qcart.rank - rank_p
        assert {i for terms, _ in conditions for i, _ in terms} <= s
        values = [[(j, sum(c * column.get(i, 0) for i, c in terms))
                   for j, column in enumerate(map(dict, qcart.columns))]
                  for terms, m in conditions if not m]
        assert len(invariant_factors(values)) == group.free_rank
    assert [m for _, m in divisor_theory._principal_conditions(k4c4) if m] == [4, 4, 4]


def test_first_is_principal_on_c16_c16_reads_few_terms_and_builds_no_prin_lattice():
    # Written off all of P's rows, Prin's congruences would hold 18,629
    # terms here; written off P's rows at QCart's coordinates, 293.
    tp = build_product(cycle_graph(16), cycle_graph(16))
    d = list(div(tp, list(range(tp.n_vertices))))
    assert is_principal(tp, d)
    conditions = tp._memo["_principal_conditions"]
    assert sum(len(terms) for terms, _ in conditions) <= 1000
    d[0] += 1
    assert not is_principal(tp, d)
    assert "prin_lattice" not in tp._memo


def test_queries_after_the_first_run_no_condition_check(monkeypatch):
    """The memo holds Prin's congruences, the balancing equations and,
    off the lemma, the local congruences in the checked form, so every
    query after the first on a product reads them with no check: with
    the checker and the sparse-line check ``_checked_lines`` made to
    raise, the answers stay as they were."""
    k4, c4 = complete_graph(4), cycle_graph(4)
    products = [build_product(k4, c4, random_policy(k4, c4, 1)), theta2_theta2(),
                build_product(theta_graph(3), path_graph(2))]
    rng = random.Random(35)
    for tp in products:
        n = tp.n_edges
        divisors = [div(tp, [rng.randint(-3, 3) for _ in range(tp.n_vertices)]), (0,) * n,
                    tuple(rng.randint(-2, 2) for _ in range(n))]
        divisors += [qcart_lattice(tp).basis.col(j) for j in range(3)]
        first = [(is_principal(tp, d), is_cartier(tp, d), is_q_cartier(tp, d)) for d in divisors]
        assert first[0] == first[1] == (True, True, True)
        built = {"_principal_conditions", "_balancing_conditions"}
        if not divisor_theory._locally_saturated(tp):
            built.add("_cartier_conditions")
        assert {key for key, value in tp._memo.items()
                if type(value) is exact_lattice._Conditions} == built

        def refuse(*args):
            raise AssertionError(f"a check ran again: {args!r:.60}")

        with monkeypatch.context() as patch:
            for module in (exact_lattice, divisor_theory):
                patch.setattr(module, "checked_conditions", refuse)
            patch.setattr(exact_lattice, "_checked_lines", refuse)
            again = [(is_principal(tp, d), is_cartier(tp, d), is_q_cartier(tp, d))
                     for d in divisors]
        assert again == first


def test_products_with_compiled_sets_survive_pickle_and_deepcopy():
    """Once every condition set in the memo has been read in full
    ``_COMPILE_AFTER`` times, and so compiled, a pickle or a deep copy
    of the product holds the same sets with no read count and no
    compiled test, and answers every query as the original does."""
    k4, c4 = complete_graph(4), cycle_graph(4)
    products = [build_product(k4, c4, random_policy(k4, c4, 1)), theta2_theta2(),
                build_product(theta_graph(3), path_graph(2))]
    rng = random.Random(39)
    for tp in products:
        n = tp.n_edges
        principal = div(tp, [rng.randint(-3, 3) for _ in range(tp.n_vertices)])
        divisors = [principal, tuple(rng.randint(-2, 2) for _ in range(n))]
        divisors += [qcart_lattice(tp).basis.col(j) for j in range(3)]
        for _ in range(exact_lattice._COMPILE_AFTER):
            assert is_principal(tp, principal) and is_cartier(tp, principal)
        sets = {key: value for key, value in tp._memo.items()
                if type(value) is exact_lattice._Conditions}
        assert sets and all(value.test is not None for value in sets.values())
        answers = [(is_principal(tp, d), is_cartier(tp, d), is_q_cartier(tp, d)) for d in divisors]
        for twin in (pickle.loads(pickle.dumps(tp)), copy.deepcopy(tp)):
            for key, value in sets.items():
                again = twin._memo[key]
                assert type(again) is exact_lattice._Conditions and again == value
                assert (again.bound, again.reads, again.test) == (value.bound, 0, None)
            assert [(is_principal(twin, d), is_cartier(twin, d), is_q_cartier(twin, d))
                    for d in divisors] == answers


def test_torus_pic_and_cl_check_the_balancing_equations_once(monkeypatch):
    """The balancing equations are checked once, when the memo builds
    them; QCart's kernel reads them in the checked form.  No pass of
    ``_checked_lines`` reads P's columns, which ``quotient`` takes as
    ``transpose`` checked them, or the coefficient rows that ``quotient``
    writes and ``invariant_factors`` divides by their content: each
    reaches it as ``_Lines`` within its bound and comes back as the same
    object."""
    for n in (3, 4, 6):
        tp = build_product(cycle_graph(n), cycle_graph(n))
        checks, reads = [], []
        real_check, real_lines = exact_lattice.checked_conditions, exact_lattice._checked_lines

        def check(width, conditions):
            if type(conditions) is not exact_lattice._Conditions:
                checks.append(conditions)
            return real_check(width, conditions)

        def lines_check(lines, what, bound=float("inf")):
            out = real_lines(lines, what, bound)
            reads.append((what, type(lines) is exact_lattice._Lines and out is lines))
            return out

        with monkeypatch.context() as patch:
            for module in (exact_lattice, divisor_theory):
                patch.setattr(module, "checked_conditions", check)
            patch.setattr(exact_lattice, "_checked_lines", lines_check)
            pic(tp)
            cl(tp)
        assert len(checks) == 1 and tuple(checks[0]) == _balancing_conditions(tp)
        # The balancing equations' terms, checked once through
        # checked_conditions; then P's columns, the coefficient rows and
        # those divided, each returned as it came.
        assert reads == [("condition", False), ("generator", True)] + [("row", True)] * 2, n


def test_transposed_lines_past_the_ambient_dimension_are_checked():
    lines = transpose([[], [], [(0, 1)]], 1)  # one line, which names line 2
    assert type(lines) is exact_lattice._Lines and lines.bound == 3
    with pytest.raises(LatticeError, match=r"^generator 0: index 2 is outside \[0, 1\)$"):
        quotient(Lattice._trusted(1, (((0, 1),),)), lines)
    assert quotient(Lattice._trusted(1, (((0, 1),),)), transpose([[(0, 2)]], 1)) \
        == AbGroup(0, (2,))


def test_product_is_freed_after_pic_and_cl():
    tp = build_product(cycle_graph(3), theta_graph(2))
    assert cart_lattice(tp) is cart_lattice(tp)
    pic(tp)
    cl(tp)
    ref = weakref.ref(tp)
    del tp
    gc.collect()
    assert ref() is None


def test_k2k2_cart_is_everything(k2k2):
    assert cart_lattice(k2k2) == full_lattice(5)


def test_c3c3_balanced_basis_scan(c3c3):
    # Look for a balanced divisor that fails a local membership; if the
    # scan finds none, Cartier and Q-Cartier must coincide as lattices.
    qc = qcart_lattice(c3c3)
    found = None
    for j in range(qc.rank):
        d = qc.basis.col(j)
        if not is_cartier(c3c3, d):
            found = d
            break
    if found is not None:
        assert is_q_cartier(c3c3, found)
        assert not is_cartier(c3c3, found)
    else:
        assert cart_lattice(c3c3) == qc


# -- pic and cl -----------------------------------------------------------------------


def test_p2p2_worked_example_groups(p2p2):
    assert cl(p2p2) == AbGroup(2, ())
    assert pic(p2p2) == AbGroup(2, ())


def test_k2k2_pic(k2k2):
    assert pic(k2k2) == AbGroup(2, ())


def test_tree_by_tree_pic_is_z2():
    for seed in (0, 5):
        g = random_tree(4, seed)
        h = random_tree(3, seed + 10)
        tp = build_product(g, h)
        assert pic(tp) == AbGroup(2, ())


def test_c8c8_pic_and_cl():
    tp = build_product(cycle_graph(8), cycle_graph(8))
    torus = AbGroup(3, (8, 8))
    assert pic(tp) == torus
    assert cl(tp) == torus


def test_pic_equals_cl_when_lattices_agree(small_products):
    for tp in small_products:
        if cart_lattice(tp) == qcart_lattice(tp):
            assert pic(tp) == cl(tp)


# -- serialization ---------------------------------------------------------------------


def test_divisor_json_roundtrip(p2p2):
    rng = random.Random(8)
    d = tuple(rng.randint(-3, 3) for _ in range(p2p2.n_edges))
    text = divisor_to_json(p2p2, d)
    assert divisor_from_json(p2p2, text) == d
    assert '"h:e0:0"' in divisor_to_json(
        p2p2, [1] + [0] * (p2p2.n_edges - 1))
    # zeros omitted
    assert divisor_to_json(p2p2, [0] * p2p2.n_edges) == "{}"


def test_divisor_json_is_the_sorted_json_dumps(mixed_products):
    # Ids that JSON escapes (" and \), that the key escapes (\ and :),
    # and non-ASCII ones, which json.dumps writes as \u escapes.
    g = Multigraph(["a", "b", "c"], [('q"', "a", "b"), ("\u00e9:", "b", "c"), ("x\\", "c", "a")])
    h = Multigraph(["\\", "\u00fc:", '"'], [("e", "\\", "\u00fc:"), ("\u2603", "\u00fc:", '"')])
    escaped = build_product(g, h)
    rng = random.Random(67)
    for tp in list(mixed_products) + [theta2_theta2(), escaped]:
        n = tp.n_edges
        divisors = [[0] * n, [1] * n, [-(2**64)] + [0] * (n - 1)]
        for _ in range(8):
            divisors.append([rng.choice((0, 0, 0, 1, -1, rng.randint(-9, 9),
                                         rng.randint(2**64, 2**80), -rng.randint(2**64, 2**80)))
                             for _ in range(n)])
        for d in divisors:
            text = divisor_to_json(tp, d)
            assert text == divisor_json_dumps(tp, d)
            assert divisor_from_json(tp, text) == tuple(d)
        assert divisor_to_json(tp, [0] * n) == "{}"
    text = divisor_to_json(escaped, [1] * escaped.n_edges)
    assert all(part in text for part in ('\\"', "\\\\", "\\u00e9", "\\u2603"))


def test_divisor_json_rejects_unknown_edges(p2p2):
    with pytest.raises(ComplexError, match=r"^unknown edge id 'h:zz:9'$"):
        divisor_from_json(p2p2, '{"h:zz:9": 1}')


@pytest.mark.parametrize("value", ["1.7", "true", "false", "null", '"1"', "[1]"])
def test_divisor_json_rejects_non_integer_coefficients(p2p2, value):
    with pytest.raises(ComplexError, match="h:e0:0"):
        divisor_from_json(p2p2, '{"h:e0:0": %s}' % value)


def _int_digit_limit():
    """CPython's int <-> str digit limit, or a skip where there is none."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python converts ints of any length")
    return limit


def test_divisor_json_names_the_edge_of_a_coefficient_past_the_digit_limit(p2p2):
    limit = _int_digit_limit()
    d = [0] * p2p2.n_edges
    d[1], d[4] = 10**limit, -(10**(limit + 5))
    key = edge_id_str(p2p2.edges[4].eid)
    with pytest.raises(ComplexError, match=f"^coefficient of edge '{key}' has too many digits$"):
        divisor_to_json(p2p2, d)
    d[1], d[4] = 10**limit - 1, -(10**limit - 1)  # limit digits each: still written
    assert divisor_from_json(p2p2, divisor_to_json(p2p2, d)) == tuple(d)


@pytest.mark.parametrize("digits", ["9", "-9"])
def test_divisor_json_names_the_edge_of_a_literal_past_the_digit_limit(p2p2, digits):
    limit = _int_digit_limit()
    long_literal = digits + "9" * limit
    text = '{"h:e0:0": 3, "h:e1:0": %s}' % long_literal
    with pytest.raises(ComplexError, match="^coefficient of edge 'h:e1:0' has too many digits$"):
        divisor_from_json(p2p2, text)
    with pytest.raises(ComplexError, match=r"^coefficient of edge 'h:e1:0' is not an integer: \["):
        divisor_from_json(p2p2, '{"h:e0:0": 3, "h:e1:0": [%s]}' % long_literal)
    with pytest.raises(ComplexError, match="^unknown edge id 'h:zz:9'$"):
        divisor_from_json(p2p2, '{"h:zz:9": %s}' % long_literal)
    with pytest.raises(ComplexError, match="^divisor JSON must be an object$"):
        divisor_from_json(p2p2, "[%s]" % long_literal)


def test_divisor_json_rejects_a_repeated_key():
    # json.loads alone keeps the last of two equal keys: this loaded with
    # coefficient 2.
    tp = build_product(cycle_graph(3), cycle_graph(3))
    key = edge_id_str(tp.edges[5].eid)
    other = edge_id_str(tp.edges[0].eid)
    with pytest.raises(ComplexError, match=f"^key '{key}' appears twice in the divisor JSON$"):
        divisor_from_json(tp, '{"%s": 1, "%s": 4, "%s": 2}' % (key, other, key))
    assert divisor_from_json(tp, '{"%s": 1, "%s": 4}' % (key, other))[5] == 1


def test_divisor_json_rejects_a_repeated_key_beside_a_literal_past_the_digit_limit():
    # The literal sends the text through the second parse, which keeps
    # long literals as text; it checks the keys as well.
    limit = _int_digit_limit()
    tp = build_product(cycle_graph(3), cycle_graph(3))
    key, long_literal = edge_id_str(tp.edges[5].eid), "9" * (limit + 1)
    with pytest.raises(ComplexError, match=f"^key '{key}' appears twice in the divisor JSON$"):
        divisor_from_json(tp, '{"%s": %s, "%s": 2}' % (key, long_literal, key))
    with pytest.raises(ComplexError, match=f"^coefficient of edge '{key}' has too many digits$"):
        divisor_from_json(tp, '{"%s": %s}' % (key, long_literal))


def test_divisor_json_rejects_non_objects(p2p2):
    with pytest.raises(ComplexError):
        divisor_from_json(p2p2, "[1, 2]")


@pytest.mark.parametrize("text", [None, b"{}", bytearray(b"{}"), 5, {}])
def test_divisor_json_takes_only_a_str(p2p2, text):
    with pytest.raises(ComplexError, match=f"^divisor JSON must be a str, got {type(text).__name__}$"):
        divisor_from_json(p2p2, text)


@pytest.mark.parametrize("text, where", [
    ("nope", "line 1 column 1"),
    ('{"h:e0:0": 1,}', "line 1 column 14"),
    ("{\n  1: 2}", "line 2 column 3"),
])
def test_divisor_json_rejects_invalid_json_with_its_position(p2p2, text, where):
    with pytest.raises(ComplexError, match=f"not valid at {where}: "):
        divisor_from_json(p2p2, text)


def test_divisor_json_keys_are_injective():
    # Unescaped, edge "a" at vertex "b:c" and edge "a:b" at vertex "c"
    # would both give the key h:a:b:c.
    g = Multigraph([0, 1, 2], [("a", 0, 1), ("a:b", 1, 2), ("x\\", 2, 0)])
    h = Multigraph(["b:c", "c", "\\"], [("e", "b:c", "c"), ("f:", "c", "\\")])
    tp = build_product(g, h)
    keys = [edge_id_str(e.eid) for e in tp.edges]
    assert len(set(keys)) == len(keys)
    assert edge_id_str(("h", "a", "b:c")) != edge_id_str(("h", "a:b", "c"))
    d = tuple(range(1, tp.n_edges + 1))
    assert divisor_from_json(tp, divisor_to_json(tp, d)) == d


@pytest.mark.parametrize("g, h", [(cycle_graph(3), cycle_graph(3)),
                                  (theta_graph(3), path_graph(2))])
def test_the_pipeline_builds_no_edge_or_triangle_table(g, h):
    """Pic, Cl, the membership tests, the divisor JSON and the repr read
    the edge order and the rows of P, never ``edges`` or ``triangles``,
    which a product builds on first read."""
    tp = build_product(g, h, random_policy(g, h, 3))
    d = div(tp, range(tp.n_vertices))
    pic(tp), cl(tp)
    assert is_principal(tp, d) and is_cartier(tp, d) and is_q_cartier(tp, d)
    assert divisor_from_json(tp, divisor_to_json(tp, d)) == d
    repr(tp)
    assert "edges" not in vars(tp) and "triangles" not in vars(tp)


@pytest.mark.parametrize("bad", [0.5, 1.0, True, "1", None])
def test_divisor_and_pl_inputs_must_be_ints(c3c3, bad):
    d = [0] * c3c3.n_edges
    d[5] = bad
    for check in (is_principal, is_cartier, is_q_cartier, divisor_to_json):
        with pytest.raises(ComplexError, match="index 5"):
            check(c3c3, d)
    phi = [0] * c3c3.n_vertices
    phi[2] = bad
    with pytest.raises(ComplexError, match="index 2"):
        div(c3c3, phi)


@pytest.mark.parametrize("bad", [None, 5])
def test_divisor_and_pl_inputs_must_be_sequences(c3c3, bad):
    what = f"must be a sequence, got {type(bad).__name__}$"
    for check in (is_principal, is_cartier, is_q_cartier, divisor_to_json):
        with pytest.raises(ComplexError, match=f"^divisor {what}"):
            check(c3c3, bad)
    with pytest.raises(ComplexError, match=f"^PL function {what}"):
        div(c3c3, bad)


def test_divisor_and_pl_inputs_of_the_wrong_length_are_refused(c3c3):
    for check in (is_principal, is_cartier, is_q_cartier, divisor_to_json):
        with pytest.raises(ComplexError, match="^divisor must have one coefficient per edge$"):
            check(c3c3, [0] * (c3c3.n_edges - 1))
    with pytest.raises(ComplexError, match="^PL function must have one value per vertex$"):
        div(c3c3, [0] * (c3c3.n_vertices + 1))


_ODD_CONTAINERS = {  # the message's type name: n ints -> a container that is no sequence
    "set": set, "frozenset": frozenset, "dict": lambda xs: dict.fromkeys(xs, 0),
    "generator": lambda xs: (x for x in xs), "NoneType": lambda xs: None,
}

_DENSE_VECTOR_CALLS = {  # name: (error, what the message calls the vector, call(tp, make))
    "is_principal": (ComplexError, "divisor", lambda tp, make: is_principal(tp, make(tp.n_edges))),
    "is_cartier": (ComplexError, "divisor", lambda tp, make: is_cartier(tp, make(tp.n_edges))),
    "is_q_cartier": (ComplexError, "divisor", lambda tp, make: is_q_cartier(tp, make(tp.n_edges))),
    "divisor_to_json": (ComplexError, "divisor",
                        lambda tp, make: divisor_to_json(tp, make(tp.n_edges))),
    "div": (ComplexError, "PL function", lambda tp, make: div(tp, make(tp.n_vertices))),
    "lattice_member": (LatticeError, "vector",
                       lambda tp, make: lattice_member(full_lattice(3), make(3))),
    "IntMatrix.mul_vec": (LatticeError, "vector",
                          lambda tp, make: IntMatrix(1, 3, [1, 2, 3]).mul_vec(make(3))),
    "IntMatrix": (LatticeError, "1 x 3 matrix", lambda tp, make: IntMatrix(1, 3, make(3))),
}


@pytest.mark.parametrize("call", sorted(_DENSE_VECTOR_CALLS))
@pytest.mark.parametrize("kind", sorted(_ODD_CONTAINERS))
def test_a_dense_vector_must_be_a_sequence(c3c3, call, kind):
    """Each container holds as many ints as the vector needs, but is no
    sequence: a set or a dict would be read in hash or key order, and a
    generator would be used up by the check."""
    error, what, run = _DENSE_VECTOR_CALLS[call]
    message = f"{what} must be a sequence, got {kind}"
    with pytest.raises(error, match="^" + re.escape(message) + "$"):
        run(c3c3, lambda n: _ODD_CONTAINERS[kind](range(n)))


_PUBLIC_CALLS = {
    "principal_matrix": principal_matrix, "prin_lattice": prin_lattice,
    "cart_lattice": cart_lattice, "qcart_lattice": qcart_lattice,
    "balancing_matrix": balancing_matrix, "pic": pic, "cl": cl,
    "div": lambda tp: div(tp, []),
    "is_principal": lambda tp: is_principal(tp, []),
    "is_cartier": lambda tp: is_cartier(tp, []),
    "is_q_cartier": lambda tp: is_q_cartier(tp, []),
    "divisor_to_json": lambda tp: divisor_to_json(tp, []),
    "divisor_from_json": lambda tp: divisor_from_json(tp, "{}"),
}


@pytest.mark.parametrize("call", sorted(_PUBLIC_CALLS))
@pytest.mark.parametrize("tp", [None, cycle_graph(3), "C3 x C3"])
def test_a_public_function_given_no_product_raises_complex_error(call, tp):
    message = f"^expected a TriangulatedProduct, got {type(tp).__name__}$"
    with pytest.raises(ComplexError, match=message):
        _PUBLIC_CALLS[call](tp)


def test_half_integer_divisor_is_rejected(c3c3):
    # Half a principal divisor is balanced: only the integer check rejects it.
    half = [x / 2 for x in principal_matrix(c3c3).col(0)]
    with pytest.raises(ComplexError):
        is_q_cartier(c3c3, half)
    with pytest.raises(ComplexError):
        divisor_to_json(c3c3, half)
