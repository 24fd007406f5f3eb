"""Property tests over random products under seeded policies.

Multigraph factors have 2 or 3 vertices: a random tree plus up to two
extra edges, which may be parallel to other edges.  rank Cart = rank
QCart is not asserted: it fails on some multigraph products
(theta2 x theta2), the open Cl defect, because ``qcart_lattice`` is the
kernel of the balancing equations rather than the saturation of Cart.

Simple factors have 2 to 4 vertices, and their Pic is checked against
the closed form Z^(2 + g(G) g(H)) + Jac(G) + Jac(H), used only as an
oracle here.  On them the pullbacks of the factors' vertices are
Cartier, and those of the columns of each factor's Laplacian are
principal.  The local saturation test, which counts the congruences of
each distinct star that its lemma does not cover, agrees with one
invariant factor test per distinct star, also on a pinned locally
saturated product with parallel edges.  At each vertex the lemma
covers, where no two edges at either factor vertex share their far
end, the local lattice is checked against the dense kernel of the
vertex's own balancing equations.

Random integer matrices up to 5 x 5, rich in 0 and +-1, check that
``invariant_factors``, which strips unit pivots from sparse rows before
its SNF, gives the nonzero diagonal of the dense ``snf``, whether the
rows list only the nonzero entries, write out the zeros, or split
entries into pairs on one column that add up, and that c times such a
matrix has c times its factors.  Cl is checked against
Z^(rank QCart - rank P) + tors coker P, with coker P from the dense
``snf`` of the principal matrix, so the sparse quotient meets an
independent oracle on every product, and tors Cl against Jac(G) +
Jac(H) from the factors' critical groups.  Sparse matrices up to 6 x 8,
with zero rows and columns, pivots -1 and 1 and pivots that are not units,
and condition systems with moduli and repeated term indices check that
``kernel`` gives, byte for byte, the kernel of a dense row echelon, and
``condition_kernel`` that kernel with its slack coordinates cut off.
Such a kernel, kept in its free coordinates until its basis is read,
gives the rank, quotient, equality, hash and repr of its basis, and
refuses a generator that breaks a condition before and after the lift.
On systems of up to 12 columns, the quotient that solves only on the
columns that non-unit rows touch, reading the free ones off, equals the
quotient on the lifted basis, and so does the rank.
Cart is checked against QCart cut by the congruences restricted to its
basis, the route that Cart took before it was the congruences' kernel.
At every vertex, the congruences that the unit strip writes off the
star's rows cut out L_v, as many as the dense Smith form of the local
matrix writes, which cut out L_v too.
``is_principal``, which reads the congruences of P's rows at QCart's
coordinates and then the balancing equations, is checked against
membership in Prin's HNF basis, on P phi, on P phi plus a multiple of
one unit vector, plus a combination of QCart's basis, which the
congruences must reject, and plus a multiple of a unit vector on an
edge outside those coordinates, which the balancing equations must
reject.
Random condition sets, with repeated indices, zero coefficients,
empty terms and moduli 0 to 6, are read alike by ``satisfies`` in the
checked form, compiled, and as they come, and by dense rows; on vectors
that mix ints with bools, floats, None, str and an int subclass, the
compiled form gives the loop's answer or message; and each malformed
set of the ``satisfies`` tests is refused with one message, checked
alone or by ``condition_kernel``.  Random condition sets with tuple and
list terms and pairs are checked as adding up their terms in dicts
would, clean tuple terms kept as the same objects; with malformed
conditions put in, they are refused with the message of the first
fault, and a bool put anywhere in their terms is refused with the
message that names its condition.
``quotient`` adds up the repeated indices of transposed lines.  The
coefficient rows, the rows divided by their content and the rows at S
that the package hands on unchecked pass the check they skip, on random
simple and multigraph products.
The balancing equations, read off each vertex's star, are checked
against the ones grouped through the factor graphs, tuple for tuple,
and the weight axiom, which ``build_product`` does not check, on
random multigraph products.  On random simple and multigraph pairs
under random policies, ``edges`` and ``triangles``, built on first
read, and ``squares`` and ``principal_rows`` equal an eager build that
writes every table in one pass over the squares.
"""

import random
import re
from collections import Counter
from itertools import islice
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    balancing_conditions_by_factor_edges,
    condition_fault,
    conditions_by_dicts,
    full_lattice,
    line_fault,
    lines_by_dicts,
    congruence_kernel_cart,
    cut_by_restriction,
    cuts_out_each_local_lattice,
    dense_condition_kernel,
    dense_intersection,
    dense_kernel,
    dense_satisfies,
    eager_product_tables,
    factor_pullbacks,
    from_generators,
    locally_saturated_per_star,
    matmul,
    ordered_kernel_basis,
    pulled_back_laplacian_columns,
    random_policy,
    rows_from_weights,
    saturated_multigraph_product,
    sparse_rows,
    submatrix_local_matrix,
    weights_by_triangle_scan,
    zeros,
)
from tropic_pic import exact_lattice
from tropic_pic.divisor_theory import (
    _balancing_conditions,
    _cartier_conditions,
    _locally_saturated,
    _principal_conditions,
    balancing_matrix,
    cart_lattice,
    cl,
    div,
    is_cartier,
    is_principal,
    is_q_cartier,
    pic,
    prin_lattice,
    principal_matrix,
    qcart_lattice,
)
from tropic_pic.exact_lattice import (
    AbGroup,
    IntMatrix,
    Lattice,
    LatticeError,
    checked_conditions,
    condition_kernel,
    condition_matrix,
    invariant_factors,
    kernel,
    lattice_contains,
    lattice_intersect,
    lattice_member,
    quotient,
    satisfies,
    snf,
    span_conditions,
    transpose,
)
from tropic_pic.multigraph import Multigraph, critical_group, cycle_graph, genus, path_graph
from tropic_pic.product_complex import DiagonalPolicy, ProductEdge, Triangle, build_product

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def multigraphs(draw):
    n = draw(st.integers(2, 3))
    edges = [(f"e{v - 1}", draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    for u, w in draw(st.lists(pairs, max_size=2)):
        edges.append((f"e{len(edges)}", u, w))
    return Multigraph(list(range(n)), edges)


@st.composite
def simple_graphs(draw):
    """Connected simple graph on 2 to 4 vertices: a random tree plus a
    random set of the other vertex pairs."""
    n = draw(st.integers(2, 4))
    pairs = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    others = sorted({(u, w) for w in range(n) for u in range(w)} - pairs)
    if others:
        pairs |= draw(st.sets(st.sampled_from(others)))
    return Multigraph(list(range(n)), [(f"e{k}", u, w) for k, (u, w) in enumerate(sorted(pairs))])


@st.composite
def products(draw, factors=multigraphs):
    g, h = draw(factors()), draw(factors())
    seed = draw(st.none() | st.integers(0, 2**16))
    return build_product(g, h, DiagonalPolicy.standard() if seed is None
                         else random_policy(g, h, seed))


@st.composite
def products_and_divisors(draw):
    """A product and a divisor on it: a combination of the Cart or QCart
    basis, or a random vector, perhaps with one coefficient moved."""
    tp = draw(products())
    coeff = st.integers(-3, 3)
    source = draw(st.sampled_from((cart_lattice, qcart_lattice, None)))
    if source is None:
        d = draw(st.lists(coeff, min_size=tp.n_edges, max_size=tp.n_edges))
    else:
        basis = source(tp).basis
        d = list(basis.mul_vec(draw(st.lists(coeff, min_size=basis.cols, max_size=basis.cols))))
    if draw(st.booleans()):
        d[draw(st.integers(0, tp.n_edges - 1))] += draw(st.sampled_from((-1, 1, 2, 3)))
    return tp, tuple(d)


@SETTINGS
@given(products_and_divisors())
def test_is_cartier_is_cart_membership(case):
    # is_cartier runs first, so on locally saturated products it reads
    # the balancing equations before any congruence is built.
    tp, d = case
    cartier = is_cartier(tp, d)
    assert cartier == satisfies(_cartier_conditions(tp), d)
    assert cartier == lattice_member(cart_lattice(tp), d)[0]


@SETTINGS
@given(st.data(), products(simple_graphs) | products())
def test_is_principal_is_prin_membership(data, tp):
    """is_principal reads the congruences of P's rows at QCart's
    coordinates S, then the balancing equations; membership in Prin's
    HNF basis is the oracle.  On each product d is P phi, then P phi
    plus a multiple of one unit vector, plus a combination of QCart's
    basis, which the congruences must reject unless it is principal, and
    plus a multiple of a unit vector on an edge outside S, where there
    is one, which the congruences pass and the balancing equations must
    reject."""
    phi = data.draw(st.lists(st.integers(-3, 3), min_size=tp.n_vertices,
                             max_size=tp.n_vertices))
    p_phi = div(tp, phi)
    qcart, conditions = qcart_lattice(tp), _principal_conditions(tp)
    _, perm, units, *_ = qcart._cut
    off_s = [i for i, p in enumerate(perm) if p in units]
    basis, multiple = qcart.basis, st.sampled_from((-1, 1, 2, 3, 4, 6))

    def plus(i, c):
        return [x + c * (j == i) for j, x in enumerate(p_phi)]

    combination = basis.mul_vec(data.draw(st.lists(st.integers(-2, 2), min_size=basis.cols,
                                                   max_size=basis.cols)))
    divisors = [p_phi, plus(data.draw(st.integers(0, tp.n_edges - 1)), data.draw(multiple)),
                [x + y for x, y in zip(p_phi, combination)]]
    assert is_principal(tp, divisors[2]) == satisfies(conditions, divisors[2])
    if off_s:
        divisors.append(plus(data.draw(st.sampled_from(off_s)), data.draw(multiple)))
        assert satisfies(conditions, divisors[3]) and not is_principal(tp, divisors[3])
    for d in divisors:
        assert is_principal(tp, d) == lattice_member(prin_lattice(tp), d)[0]


@SETTINGS
@given(products_and_divisors())
def test_is_q_cartier_is_balancing_kernel_membership(case):
    tp, d = case
    balanced = not any(balancing_matrix(tp).mul_vec(d))
    assert is_q_cartier(tp, d) == balanced == lattice_member(qcart_lattice(tp), d)[0]


@SETTINGS
@given(products())
def test_prin_in_cart_in_qcart(tp):
    assert lattice_contains(cart_lattice(tp), prin_lattice(tp))
    assert lattice_contains(qcart_lattice(tp), cart_lattice(tp))


@SETTINGS
@given(products())
def test_cart_is_the_congruence_kernel(tp):
    assert cart_lattice(tp) == congruence_kernel_cart(tp)


@SETTINGS
@given(products(simple_graphs) | products())
def test_principal_divisors_are_balanced(tp):
    c, p = balancing_matrix(tp), principal_matrix(tp)
    assert matmul(c, p) == zeros(c.rows, p.cols)


@SETTINGS
@given(products())
def test_cart_is_qcart_cut_by_the_congruences(tp):
    assert cart_lattice(tp) == cut_by_restriction(qcart_lattice(tp), _cartier_conditions(tp))


@SETTINGS
@given(products())
@example(saturated_multigraph_product())
def test_local_test_equals_the_per_star_oracle(tp):
    assert _locally_saturated(tp) == locally_saturated_per_star(tp)


@SETTINGS
@given(products(simple_graphs))
def test_simple_factors_are_locally_saturated(tp):
    assert _locally_saturated(tp) and locally_saturated_per_star(tp)
    qcart = qcart_lattice(tp)
    assert cart_lattice(tp) is qcart == cut_by_restriction(qcart, _cartier_conditions(tp))


DOUBLED_PATH = Multigraph([0, 1, 2], [("e0", 0, 1), ("e1", 1, 2), ("e2", 1, 2)])


@SETTINGS
@given(products())
@example(build_product(DOUBLED_PATH, DOUBLED_PATH))
@example(build_product(DOUBLED_PATH, path_graph(1), random_policy(DOUBLED_PATH, path_graph(1), 3)))
def test_local_lattice_is_the_balancing_kernel_where_the_lemma_holds(tp):
    """At each v = (a, b) where no two edges at a share their far end,
    nor two at b, L_v is the kernel of v's own balancing equations on
    its star, by a dense route: the canonical basis of the dense local
    matrix against the dense kernel of the deg_G(a) + deg_H(b) - 2 rows
    that ``_balancing_conditions`` writes for v.  The doubled path has
    such a vertex, 0, next to two that are not."""
    def covered(graph):
        far = {a: [w for eid in graph.incident_edges(a) for w in graph.endpoints(eid) if w != a]
               for a in graph.vertices}
        return {a for a, ends in far.items() if len(set(ends)) == len(ends)}

    g_ok, h_ok = covered(tp.g), covered(tp.h)
    assert (g_ok, h_ok) == (tp.g._simple_vertices(), tp.h._simple_vertices())
    rows = iter(_balancing_conditions(tp))
    for a, b in tp.vertices:
        own = list(islice(rows, tp.g.degree(a) + tp.h.degree(b) - 2))
        if a in g_ok and b in h_ok:
            position = {tp.edge_index(eid): t for t, eid in enumerate(tp._star[a, b])}
            local = [(tuple((position[i], c) for i, c in terms), m) for terms, m in own]
            assert Lattice.from_matrix(submatrix_local_matrix(tp, (a, b))) \
                == dense_condition_kernel(len(position), local)
    assert next(rows, None) is None


@SETTINGS
@given(products(simple_graphs))
def test_pic_of_simple_factors_is_the_closed_form(tp):
    g, h = tp.g, tp.h
    assert g.is_simple() and h.is_simple()
    closed = AbGroup.direct_sum(AbGroup.free(2 + genus(g) * genus(h)),
                                critical_group(g), critical_group(h))
    assert pic(tp) == closed


@SETTINGS
@given(products(simple_graphs))
def test_factor_pullbacks_are_cartier_and_pull_laplacians_back_to_principal(tp):
    """pi_G^*(a) and pi_H^*(b) are Cartier, and for each factor the
    pullbacks of its Laplacian's columns, sum_a L[a, j] pi^*(a), are
    principal: the factors' principal divisors pull back to principal
    ones."""
    for graph, pullbacks in zip((tp.g, tp.h), factor_pullbacks(tp)):
        assert all(is_cartier(tp, d) for d in pullbacks)
        assert all(is_principal(tp, d) for d in pulled_back_laplacian_columns(graph, pullbacks))


@SETTINGS
@given(products())
def test_cartier_conditions_equal_the_per_vertex_oracle(tp):
    assert cuts_out_each_local_lattice(tp, _cartier_conditions(tp))


@SETTINGS
@given(products(simple_graphs) | products())
def test_balancing_conditions_equal_the_factor_edge_grouping(tp):
    assert _balancing_conditions(tp) == balancing_conditions_by_factor_edges(tp)


@st.composite
def condition_sets(draw):
    """(width, conditions, v): up to six conditions over width <= 5
    indices, with repeated indices, zero coefficients, empty terms and
    moduli 0 to 6, and an int vector v of that length."""
    width = draw(st.integers(0, 5))
    term = st.tuples(st.integers(0, max(width - 1, 0)), st.integers(-3, 3))
    condition = st.tuples(st.lists(term, max_size=6 if width else 0).map(tuple),
                          st.integers(0, 6))
    conditions = draw(st.lists(condition, max_size=6))
    return width, conditions, tuple(draw(st.lists(st.integers(-3, 3), min_size=width,
                                                  max_size=width)))


class _Odd(int):
    """An int whose products and sums with an int on the left stay
    _Odd, so that a sum over it is no int, though each entry is one."""

    def __rmul__(self, other):
        return _Odd(int(self) * other)

    def __radd__(self, other):
        return _Odd(int(self) + other)


ENTRIES = st.one_of(st.integers(-3, 3), st.booleans(), st.floats(-4, 4), st.none(),
                    st.text("ab", max_size=2), st.integers(-3, 3).map(_Odd))


def _answer(conditions, v):
    try:
        return satisfies(conditions, v)
    except LatticeError as error:
        return str(error)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(condition_sets(), st.data())
def test_checked_and_raw_conditions_read_alike(case, data):
    """``satisfies`` reads the checked form with no check, and checks the
    raw conditions first; both agree with the dense rows, and the
    checked form writes the same matrix and is checked only once.  With
    ``_COMPILE_AFTER`` at 1 the checked form is compiled on its first
    full read, and then, on int vectors and on vectors that mix ints
    with bools, floats, None, str and an int subclass whose sums are no
    int, it gives the loop's answer, or its LatticeError message."""
    width, conditions, v = case
    with patch.object(exact_lattice, "_COMPILE_AFTER", 1):
        checked = checked_conditions(width, conditions)
        assert checked_conditions(width, checked) is checked
        assert condition_matrix(width, checked) == condition_matrix(width, conditions)
        assert satisfies(checked, (0,) * width) and checked.test is not None
        for w in (v, list(v), (0,) * width):
            assert satisfies(checked, w) == satisfies(conditions, w) == dense_satisfies(conditions, w)
        for _ in range(3):
            mixed = data.draw(st.lists(ENTRIES, min_size=width, max_size=width))
            assert _answer(checked, mixed) == _answer(conditions, mixed)


# The malformed condition sets of the satisfies tests in test_exact_lattice.py.
MALFORMED = [
    [((0, 1), 0)], [(((0, 1),), 0), (((0, 1, 2),), 0)], [(((0, 1),), 0), 5],
    [(((0, 1),), 0, 1)], [(None, 0)], [(((0,),), 0)], [5], None,
    [(((0.0, 1),), 0)], [(((None, 1),), 0)], [(((3, 1),), 0)], [(((-1, 1),), 0)],
    [(((0, 1),), -2)], [(((0, 1),), 2.0)], [(((0, 1),), "2")], [(((0, 1.5),), 0)],
    [(((0, 1.5),), 2)], [(((0, 1),), 0.0)], [(((0, 1),), 0), (((0, 1),), 0.0)],
    [(((0, 1),), True)],
]


@pytest.mark.parametrize("conditions", MALFORMED)
def test_a_malformed_set_is_refused_alike_checked_and_by_the_kernel(conditions):
    with pytest.raises(LatticeError) as checked:
        checked_conditions(2, conditions)
    with pytest.raises(LatticeError, match="^" + re.escape(str(checked.value)) + "$"):
        condition_kernel(2, conditions)


@st.composite
def raw_condition_sets(draw):
    """(width, conditions): up to six conditions over width 1 to 5, each
    term a tuple or a list pair and each terms a tuple or a list, with
    repeated indices, zero coefficients and moduli 0 to 6."""
    width = draw(st.integers(1, 5))
    pair = st.tuples(st.integers(0, width - 1), st.integers(-3, 3))
    terms = st.lists(pair | pair.map(list), max_size=6)
    return width, draw(st.lists(st.tuples(terms.map(tuple) | terms, st.integers(0, 6)),
                                max_size=6))


@st.composite
def malformed_condition_sets(draw):
    """(width, conditions) of ``raw_condition_sets`` with one to three
    conditions put in that may be malformed: list, dict, generator, str
    or None terms; bool, float or out-of-range indices, bool or float
    coefficients, and items of one or three; a bad modulus; or one or
    three items to a condition."""
    width, conditions = draw(raw_condition_sets())
    index = st.sampled_from([*range(-2, width + 2), True, False, 0.0])
    value = st.sampled_from([*range(-3, 4), True, False, 1.5])
    pair = st.tuples(index, value)
    items = st.lists(pair | pair.map(list), max_size=4)
    odd = st.lists(pair | st.tuples(index) | st.tuples(index, value, value), min_size=1, max_size=3)
    terms = st.one_of(items.map(tuple), items, odd.map(tuple),
                      st.dictionaries(index, value, max_size=2),
                      items.map(lambda ts: (t for t in ts)), st.text("01a", max_size=2), st.none())
    modulus = st.sampled_from([*range(7)] * 3 + [-1, 2.0, True, False, "2", None])
    for _ in range(draw(st.integers(1, 3))):  # mostly pairs, so that their terms are read
        condition = (draw(terms), draw(modulus))
        condition = draw(st.sampled_from([condition] * 8 + [condition[:1], condition + (0,)]))
        conditions.insert(draw(st.integers(0, len(conditions))), condition)
    return width, conditions


# The other entries that read sparse lines: what each calls a line, whether
# the width bounds their indices, and its answer on the lines, a transpose's
# lines added up as the strip and quotient read them.
LINE_ENTRIES = {
    "invariant_factors": ("row", False, lambda width, lines: invariant_factors(lines)),
    "span_conditions": ("row", False, lambda width, lines: span_conditions(lines)),
    "quotient": ("generator", True, lambda width, lines: quotient(full_lattice(width), lines)),
    "transpose": ("line", True, lambda width, lines: lines_by_dicts(transpose(lines, width))),
}


@pytest.mark.parametrize("entry", ["checked_conditions", *LINE_ENTRIES])
@settings(max_examples=400, deadline=None, derandomize=True)
@given(raw_condition_sets() | malformed_condition_sets())
def test_checked_conditions_equal_the_dict_summed_route(entry, case):
    """One pass over the terms gives what adding them up in dicts gives,
    or refuses the set with the message that ``condition_fault`` names.
    Terms that are a tuple of tuples with distinct indices come back as
    the same object; other terms are rebuilt as a tuple of tuples.  Each
    entry of ``LINE_ENTRIES`` takes the terms as its lines: it refuses
    them with the message that ``line_fault`` names, or else gives what
    it gives on the dict-summed lines."""
    width, conditions = case
    if entry in LINE_ENTRIES:
        what, bounded, read = LINE_ENTRIES[entry]
        lines = [condition[0] for condition in conditions]
        fault = line_fault(width if bounded else float("inf"), lines, what)
        if fault is not None:
            with pytest.raises(LatticeError, match="^" + re.escape(fault) + "$"):
                read(width, lines)
        else:
            assert read(width, lines) == read(width, lines_by_dicts(lines))
        return
    fault = condition_fault(width, conditions)
    if fault is not None:
        with pytest.raises(LatticeError, match="^" + re.escape(fault) + "$"):
            checked_conditions(width, conditions)
        return
    checked = checked_conditions(width, conditions)
    assert checked == conditions_by_dicts(conditions)
    for (terms, _), (kept, _) in zip(conditions, checked):
        clean = type(terms) is tuple and {type(t) for t in terms} <= {tuple} \
            and len({i for i, _ in terms}) == len(terms)
        assert (kept is terms) == clean
        assert type(kept) is tuple and {type(t) for t in kept} <= {tuple}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(raw_condition_sets().filter(lambda case: any(terms for terms, _ in case[1])), st.data())
def test_a_bool_anywhere_in_the_terms_is_refused(case, data):
    """A bool as the index or the coefficient of any one term is refused
    with the message that names its condition, also where an equal int
    on a repeated index would hide it in a sum."""
    width, conditions = case
    r, k = data.draw(st.sampled_from([(r, k) for r, (terms, _) in enumerate(conditions)
                                      for k in range(len(terms))]))
    terms, modulus = conditions[r]
    term = list(terms[k])
    term[data.draw(st.integers(0, 1))] = data.draw(st.booleans())
    bad = type(terms)([*terms[:k], type(terms[k])(term), *terms[k + 1:]])
    conditions = conditions[:r] + [(bad, modulus)] + conditions[r + 1:]
    message = f"condition {r} is no sequence of (int index, int value) pairs: {bad!r}"
    with pytest.raises(LatticeError, match="^" + re.escape(message) + "$"):
        checked_conditions(width, conditions)


@SETTINGS
@given(products(simple_graphs) | products(), st.integers(0, 2**16))
def test_quotient_on_split_principal_columns_adds_them_up(tp, seed):
    """P's rows, each entry c split into c - k and k on its column, go
    through ``transpose`` to P's columns with every index repeated.
    ``quotient`` reads them as pairs, which add up, and equals
    ``quotient`` on the summed columns as plain lists, which go through
    ``_checked_lines``, on QCart's small form and on its basis."""
    rng = random.Random(seed)
    split = [[(j, x) for j, c in row for k in [rng.randint(-2, 2)] for x in (c - k, k)]
             for row in tp.principal_rows]
    lines = transpose(split, tp.n_vertices)
    summed = [list(line) for line in transpose(tp.principal_rows, tp.n_vertices)]
    qcart = qcart_lattice(tp)
    for big in (qcart, Lattice.from_matrix(qcart.basis)):
        assert quotient(big, lines) == quotient(big, summed) == cl(tp)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(products(simple_graphs) | products())
@example(build_product(cycle_graph(3), cycle_graph(3)))  # rows with a content to divide out
def test_the_rows_the_package_writes_pass_the_check_they_skip(tp):
    """The coefficient rows that ``quotient`` hands to ``cokernel``, the
    rows that ``invariant_factors`` divides by their content and the
    rows at S that ``span_conditions_in`` checked reach the strip as
    ``_Lines``, which ``_checked_lines`` returns as they are.  Given as
    plain lists, each set passes that check, with its bound, and comes
    back as its lines added up index by index, which is how the strip
    reads the ``_Lines``."""
    tp = build_product(tp.g, tp.h, tp.policy)  # a fresh memo
    handed, stripped = [], []
    real_cokernel, real_strip = exact_lattice.cokernel, exact_lattice._strip_units

    def cokernel(rows):
        handed.append(rows)
        return real_cokernel(rows)

    def strip(rows, carry_s=False):
        if type(rows) is exact_lattice._Lines:
            stripped.append(rows)
        return real_strip(rows, carry_s)

    with patch.object(exact_lattice, "cokernel", cokernel), \
            patch.object(exact_lattice, "_strip_units", strip):
        pic(tp)
        cl(tp)
        _principal_conditions(tp)
    assert handed and all(any(rows is seen for seen in stripped) for rows in handed)
    for rows in stripped:
        assert exact_lattice._checked_lines(rows, "row") is rows
        assert exact_lattice._checked_lines(list(rows), "row", rows.bound) == lines_by_dicts(rows)


@SETTINGS
@given(multigraphs(), multigraphs(), st.integers(0, 2**16))
def test_weights_equal_the_triangle_scan(g, h, seed):
    tp = build_product(g, h, random_policy(g, h, seed))
    assert tp.principal_rows == rows_from_weights(tp, *weights_by_triangle_scan(tp))
    # The weight axiom, which build_product does not check: alpha(r, u) +
    # alpha(r, w), the negated sum of P's row r at u and w, is the number
    # of triangles on r.
    on_edge = Counter(eid for tri in tp.triangles for eid in tri.edge_ids)
    for e, row in zip(tp.edges, tp.principal_rows):
        ends = {tp.vertex_index(e.u), tp.vertex_index(e.w)}
        assert -sum(c for j, c in row if j in ends) == on_edge[e.eid]


@SETTINGS
@given(simple_graphs() | multigraphs(), simple_graphs() | multigraphs(),
       st.none() | st.integers(0, 2**16))
def test_the_tables_built_on_first_read_equal_the_eager_build(g, h, seed):
    policy = DiagonalPolicy.standard() if seed is None else random_policy(g, h, seed)
    tp = build_product(g, h, policy)
    edges, triangles, squares, rows = eager_product_tables(g, h, policy)
    assert (tp.squares, tp.principal_rows) == (squares, rows)
    assert "edges" not in vars(tp) and "triangles" not in vars(tp)
    assert (tp.edges, tp.triangles) == (edges, triangles)
    assert {type(e) for e in tp.edges} == {ProductEdge}
    assert {type(t) for t in tp.triangles} == {Triangle}
    assert tp._eindex == {e.eid: i for i, e in enumerate(edges)} and tp.n_edges == len(edges)
    assert repr(tp).endswith(f"{len(edges)} edges, {len(triangles)} triangles)")


@st.composite
def small_matrices(draw):
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entries = st.integers(-4, 4) | st.sampled_from((0, 0, 1, -1))
    return IntMatrix(rows, cols, draw(st.lists(entries, min_size=rows * cols,
                                                max_size=rows * cols)))


@SETTINGS
@given(small_matrices(), st.integers(2, 6))
def test_invariant_factors_are_the_snf_diagonal(m, scale):
    """The same matrix as sparse rows three ways: its nonzero entries,
    every entry with the zeros written out, and every entry x split into
    x - 1 and 1 on its column, which add up.  scale times the matrix,
    whose content the strip divides out, has scale times its factors."""
    d, _ = snf(m)
    diagonal = [x for x in (d[i, i] for i in range(min(m.rows, m.cols))) if x]
    rows = [m.row(i) for i in range(m.rows)]
    assert invariant_factors(sparse_rows(m)) == diagonal
    assert invariant_factors([tuple(enumerate(row)) for row in rows]) == diagonal
    assert invariant_factors([tuple((j, c) for j, x in enumerate(row) for c in (x - 1, 1))
                              for row in rows]) == diagonal
    scaled = [[(j, scale * x) for j, x in row] for row in sparse_rows(m)]
    assert invariant_factors(scaled) == [scale * x for x in diagonal]


@st.composite
def kernel_matrices(draw):
    """Sparse matrices up to 6 x 8 whose entries are mostly 0 and +-1,
    with up to two rows and two columns set to zero."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 8))
    entries = st.sampled_from((0, 0, 0, 1, -1)) | st.integers(-6, 6)
    m = [draw(st.lists(entries, min_size=cols, max_size=cols)) for _ in range(rows)]
    for i in draw(st.sets(st.integers(0, rows - 1), max_size=2)) if rows else ():
        m[i] = [0] * cols
    for j in draw(st.sets(st.integers(0, cols - 1), max_size=2)) if cols else ():
        for row in m:
            row[j] = 0
    return IntMatrix(rows, cols, [x for row in m for x in row])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(kernel_matrices())
def test_kernel_is_the_dense_kernel_byte_for_byte(m):
    sparse, dense = kernel(m), dense_kernel(m)
    assert (sparse.ambient_dim, sparse.columns) == (dense.ambient_dim, dense.columns)


@st.composite
def condition_systems(draw, max_width=4, max_conditions=5):
    """(width, conditions): terms over few indices, so that they repeat,
    and moduli 0, 1 and larger."""
    width = draw(st.integers(0, max_width))
    terms = st.lists(st.tuples(st.integers(0, width - 1), st.integers(-4, 4)), max_size=4) \
        if width else st.just([])
    modulus = st.sampled_from((0, 0, 1, 2, 3, 6))
    return width, draw(st.lists(st.tuples(terms.map(tuple), modulus), max_size=max_conditions))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(condition_systems())
def test_condition_kernel_is_the_kernel_of_the_condition_matrix(system):
    width, conditions = system
    m = condition_matrix(width, conditions)
    assert kernel(m) == dense_kernel(m)
    cut = condition_kernel(width, conditions)
    assert cut.ambient_dim == width and cut == dense_condition_kernel(width, conditions)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(condition_systems(12, 10))
def test_condition_kernel_in_its_own_column_order_spans_the_kernel(system):
    """``condition_kernel`` eliminates with the columns renumbered by
    the conditions, and ``rank`` and ``quotient`` read that K.  Lifted
    in that order and moved back to the callers' columns, K spans what
    the dense kernel cuts out."""
    width, conditions = system
    cut = condition_kernel(width, conditions)
    assert Lattice.from_matrix(ordered_kernel_basis(cut)) \
        == dense_condition_kernel(width, conditions)
    assert "columns" not in vars(cut)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(condition_systems(7, 6), st.data())
def test_an_unlifted_condition_kernel_acts_as_its_canonical_basis(system, data):
    """L = ``condition_kernel`` keeps its small form until its basis is
    read: ``rank`` and ``quotient`` on it agree with the lattice of its
    basis, a generator that breaks an equation or a congruence raises
    before and after the lift, and the lift gives L the equality, hash
    and repr of its twin."""
    width, conditions = system
    cut = condition_kernel(width, conditions)
    twin = Lattice.from_matrix(condition_kernel(width, conditions).basis)
    combination = st.lists(st.integers(-3, 3), min_size=twin.rank, max_size=twin.rank)
    gens = [twin.basis.mul_vec(c) for c in data.draw(st.lists(combination, max_size=4))]
    base = gens[0] if gens else (0,) * width
    broken = [tuple(x + (i == t) for i, x in enumerate(base)) for t in range(width)]
    broken = [b for b in broken if not satisfies(conditions, b)]
    columns = [[(i, x) for i, x in enumerate(g) if x] for g in gens]

    def refuses_broken(lat):
        for b in broken:
            with pytest.raises(LatticeError, match="^quotient: generator 0 is not in"):
                quotient(lat, [[(i, x) for i, x in enumerate(b) if x]] + columns)

    assert cut.rank == twin.rank
    assert quotient(cut, columns) == quotient(twin, columns)
    refuses_broken(cut)
    refuses_broken(twin)
    assert "columns" not in vars(cut)  # nothing above read the basis
    assert (cut == twin, hash(cut), repr(cut)) == (True, hash(twin), repr(twin))
    refuses_broken(cut)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(condition_systems(12, 10), st.lists(st.lists(st.integers(-3, 3), max_size=12), max_size=4),
       st.none() | st.tuples(st.integers(0, 11), st.sampled_from((-1, 1, 2))))
# Touched and free columns both: 2 x0 + 3 x1 = 0 touches two, x3 is free.
@example((4, [(((0, 2), (1, 3)), 0), (((2, 1),), 2)]), [[1, 2, 1], [0, 1]], None)
# Congruence slacks: modulus 1 makes x2's slack a unit row, modulus 2 makes
# x0 + x1's slack a pivot 2 that its row keeps, so touched.  Neither is free,
# and no slack can be: no other row reaches a slack column.  x2 is free, and
# the bump on it keeps generator 0 in the lattice.
@example((3, [(((0, 1), (1, 1)), 2), (((2, 1),), 1)]), [[1, 1], [2, 0, 1]], (2, 1))
# x0 = x1 makes x0 a unit row and leaves x1 free, with kt in Z^0: the bump
# on x1 breaks only that equation, which kt cannot see.
@example((2, [(((0, 1), (1, -1)), 0)]), [[1]], (1, 1))
def test_quotient_on_the_small_form_equals_quotient_on_its_lifted_twin(system, combos, bump):
    """``quotient`` on a ``condition_kernel`` in its small form reads a
    generator's entries on the free columns as its coordinates there
    and solves for the rest in kt.  It agrees with ``quotient`` on the
    lattice of the lifted basis, which has no small form, and so does
    ``rank``, kt's plus one per free column.  A generator bumped off
    the lattice raises on both."""
    width, conditions = system
    cut = condition_kernel(width, conditions)
    twin = Lattice.from_matrix(condition_kernel(width, conditions).basis)
    gens = [twin.basis.mul_vec((c + [0] * twin.rank)[:twin.rank]) for c in combos]
    if gens and bump and bump[0] < width:
        gens[0] = tuple(x + bump[1] * (i == bump[0]) for i, x in enumerate(gens[0]))
    columns = [[(i, x) for i, x in enumerate(g) if x] for g in gens]
    _, perm, _, touched, kt, free = cut._cut
    assert kt.ambient_dim == len(touched) and not set(free) & set(range(width, len(perm)))
    assert cut.rank == twin.rank == kt.rank + len(free)
    if gens and not satisfies(conditions, gens[0]):
        for lat in (cut, twin):
            with pytest.raises(LatticeError, match="^quotient: generator 0 is not in"):
                quotient(lat, columns)
    else:
        assert quotient(cut, columns) == quotient(twin, columns)
    assert "columns" not in vars(cut)


@st.composite
def lattices_in(draw, width):
    """A lattice in Z^width: the span of up to width + 1 random columns,
    or a ``condition_kernel`` kept in its free coordinates."""
    entry = st.integers(-3, 3)
    if draw(st.booleans()):
        column = st.lists(entry, min_size=width, max_size=width)
        return from_generators(width, draw(st.lists(column, max_size=width + 1)))
    terms = st.lists(st.tuples(st.integers(0, width - 1), entry), max_size=3).map(tuple) \
        if width else st.just(())
    modulus = st.sampled_from((0, 0, 2, 3, 4))
    return condition_kernel(width, draw(st.lists(st.tuples(terms, modulus), max_size=width)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 4).flatmap(lambda n: st.tuples(lattices_in(n), lattices_in(n))))
def test_intersect_is_the_dense_kernel_of_both_bases(pair):
    """lattice_intersect writes each lattice's congruences off the rows of
    its basis, lifting a small form first, and takes their kernel.  It is
    checked against A y over the dense kernel of [A | -B], which shares no
    congruence with it."""
    a, b = pair
    got = lattice_intersect(a, b)
    assert got == dense_intersection(a, b) == dense_intersection(b, a)
    assert lattice_contains(a, got) and lattice_contains(b, got)


@SETTINGS
@given(products(simple_graphs) | products())
def test_cl_is_free_of_the_rank_difference_plus_the_torsion_of_coker_p(tp):
    """Cl = Z^(rank QCart - rank P) + tors coker P.  QCart, the kernel of
    the balancing equations, is saturated and contains im P, so im P's
    saturation lies in it.  rank P and coker P come from the dense
    ``snf`` of P, which shares no code with the sparse quotient."""
    d, _ = snf(principal_matrix(tp))
    diagonal = [x for x in (d[i, i] for i in range(min(d.rows, d.cols))) if x]
    torsion = tuple(x for x in diagonal if x > 1)
    assert cl(tp) == AbGroup(qcart_lattice(tp).rank - len(diagonal), torsion)


@SETTINGS
@given(products(simple_graphs) | products())
def test_torsion_of_cl_is_the_sum_of_the_factor_jacobians(tp):
    """tors Cl = Jac(G) + Jac(H), with Jac the critical group of
    Baker and Norine (Adv. Math. 2007), on multigraph and simple factors
    under any policy.  QCart is saturated and contains Prin, so tors Cl
    is tors coker P, read from P's rows; the law is an observation about
    Cartwright's complexes (arXiv 1308.3813) used only as an oracle."""
    jacobians = AbGroup.direct_sum(critical_group(tp.g), critical_group(tp.h))
    assert cl(tp).torsion == jacobians.torsion


@SETTINGS
@given(products(simple_graphs) | products())
def test_qcart_is_the_dense_balancing_kernel(tp):
    assert qcart_lattice(tp) == dense_kernel(balancing_matrix(tp))
