"""Divisors on a triangulated product: principal, Cartier, Q-Cartier,
and the groups Pic and Cl.

A divisor is an integer vector indexed by the global edge order of the
complex (edges are the ridges in dimension 2).  A PL function is an
integer vector indexed by vertices; its divisor on edge r is

    div(phi)(r) = sum over triangles f on r of phi(opposite vertex)
                  - sum over endpoints v of r of alpha(r, v) * phi(v).

The principal matrix P has div(phi_v) as column v, so div(phi) = P phi
and the principal divisors are the integer column span of P.  P's
sparse rows, one per edge, are the product's ``principal_rows``, which
``build_product`` writes in its pass over the squares.  ``div``, Pic
and Cl read only these, their transpose and their rows at each star;
the dense P is written out from them for the API.

Cartier and Q-Cartier divisors are cut out by per-vertex conditions in
``exact_lattice``'s ``(terms, modulus)`` format.  Cartier (locally
principal): at every vertex v the restriction of d to the edges at v
lies in L_v, the integer span of the local matrix M_v (P's rows there),
cut out by minimal congruences that ``span_conditions`` reads off M_v's
sparse rows.  Each distinct star is solved once per product, and that
one solve serves both the local test below and Cart.  Q-Cartier
(locally balanced): d meets the balancing equations
(``_balancing_conditions``), which cut out Q_v at v and are read off
v's star alone, as each edge id names the factor edges under it; QCart
is their kernel, taken on their sparse rows by ``condition_kernel``.
Principal divisors are balanced, so L_v lies in Q_v.

Cart = QCart as soon as L_v = Q_v at every vertex.  A lemma proved in
``_locally_saturated`` gives L_v = Q_v wherever neither factor vertex
has parallel edges; at the other vertices the star's own congruences
decide it: L_v = Q_v iff they are Q_v's equations in number, none of
them with a modulus.  Then (on every product of simple factors, with
no star solved) ``cart_lattice`` is QCart itself, ``is_cartier`` reads
the balancing equations, Pic and Cl are one quotient, and no
congruence is built.
Otherwise Cart is the kernel of the congruences, which ``is_cartier``
reads, and no QCart is built for Cart or Pic.  Pic and Cl quotient by
P's columns, each written in the kernel of Cart's or QCart's
conditions: its entries on the columns where the kernel is unit
vectors are read off, and the rest is solved for on the few columns
that the conditions without a unit pivot touch.  So neither lattice
lifts its canonical basis over the edges.

``is_principal`` decides Prin in QCart's coordinates, so only
``prin_lattice`` itself builds Prin's HNF basis.  Principal divisors
are balanced, so Prin lies in QCart, and restriction to S, the edges
that no unit row of QCart's kernel owns, is injective on QCart.  So d
is principal iff it is balanced and its entries on S lie in the span
of P's rows at S.  ``span_conditions_in`` cuts that span out with
|S| - rank P equations and one congruence per torsion factor of Cl,
written off those rows as ``span_conditions`` writes each star's.  For
d in QCart, their values, each taken mod its modulus, are d's
coordinates in Cl = QCart / Prin, not in Z^E / Prin: two balanced
divisors have equal values iff they differ by a principal divisor.
That is the class that a ``class_of`` query will read.  The
product's memo keeps Prin's congruences, the balancing equations and
the local congruences in ``exact_lattice``'s checked form, each set
checked once, when it is built, so a query checks d and no condition.
Once queries have read a set in full ``exact_lattice._COMPILE_AFTER``
times (500), ``satisfies`` compiles it into one straight-line function,
which reads it in about half the time of its loop; the first queries
on a product read its sets with the loop and compile none.
``divisor_to_json`` joins its text from a per-product table of the
escaped, sorted keys.
"""

from __future__ import annotations

import functools
import json
import sys
from collections.abc import Sequence

from .exact_lattice import (
    AbGroup,
    IntMatrix,
    Lattice,
    checked_conditions,
    condition_kernel,
    condition_matrix,
    lattice_member,  # noqa: F401  unused; the benchmark's tracer binds it in this module
    quotient,
    satisfies,
    span_conditions,
    span_conditions_in,
    transpose,
)
from .product_complex import (
    ComplexError,
    TriangulatedProduct,
    edge_id_str,
)


def _check_divisor(tp: TriangulatedProduct, d: Sequence[int]) -> None:
    if type(tp) is not TriangulatedProduct:  # the common case first, on the query path
        TriangulatedProduct._check(tp)
    TriangulatedProduct._check_vector(d, tp.n_edges, "divisor", "coefficient", "edge")


def _per_product(fn):
    """Cache fn(tp) in the product's own memo, so it is freed with tp."""
    key = fn.__name__

    @functools.wraps(fn)
    def cached(tp):
        if type(tp) is not TriangulatedProduct:
            TriangulatedProduct._check(tp)
        memo = tp._memo
        if key not in memo:
            memo[key] = fn(tp)
        return memo[key]

    return cached


# ---------------------------------------------------------------------------
# Principal divisors
# ---------------------------------------------------------------------------

def principal_matrix(tp: TriangulatedProduct) -> IntMatrix:
    """|E| x |V| matrix whose column v is div of the indicator of v, the
    product's ``principal_rows`` written out.  Every column sums to zero
    and the all-ones PL function lies in the kernel.  It is built on each
    call and not kept: ``prin_lattice``, its one reader here, keeps its
    own result."""
    TriangulatedProduct._check(tp)
    return condition_matrix(tp.n_vertices, [(row, 0) for row in tp.principal_rows])


def div(tp: TriangulatedProduct, phi: Sequence[int]) -> tuple:
    """Divisor of the PL function with vertex values phi: P phi, summed
    over P's sparse rows, ``principal_rows``, so no dense P is built."""
    TriangulatedProduct._check(tp)
    TriangulatedProduct._check_vector(phi, tp.n_vertices, "PL function", "value", "vertex")
    return tuple([sum([c * phi[j] for j, c in row]) for row in tp.principal_rows])


@_per_product
def prin_lattice(tp: TriangulatedProduct) -> Lattice:
    return Lattice.from_matrix(principal_matrix(tp))


@_per_product
def _principal_conditions(tp: TriangulatedProduct) -> tuple:
    """The congruences that cut Prin out of QCart, written off P's rows
    at QCart's coordinates S by ``span_conditions_in``: one per torsion
    factor of Cl, which is the torsion of Z^E / Prin, then |S| - rank P
    equations.  On QCart their values span a lattice of rank rank QCart
    - rank P, Cl's free rank."""
    return span_conditions_in(qcart_lattice(tp), tp.principal_rows)


def is_principal(tp: TriangulatedProduct, d: Sequence[int]) -> bool:
    """Whether d = div(phi) for some phi: d meets the congruences that
    cut Prin out of QCart, then the balancing equations that cut out
    QCart.  Prin's HNF basis is not built.

    Principal divisors are balanced, so Prin lies in QCart, and
    restriction to QCart's coordinates, the edges that no unit row of
    its kernel owns, is injective on QCart.  So d is principal iff it is
    balanced and its entries there lie in the span of P's rows there,
    which is what ``span_conditions_in`` writes.  The first check rejects
    most divisors that are not principal, on few terms; the balancing
    equations then reject the rest, which are not balanced.  Both sets
    must cut out the same QCart: were ``qcart_lattice`` another kernel
    than that of ``_balancing_conditions``, this would have to test that
    kernel's conditions, whose coordinates the first set reads."""
    _check_divisor(tp, d)
    return satisfies(_principal_conditions(tp), d) and satisfies(_balancing_conditions(tp), d)


# ---------------------------------------------------------------------------
# Cartier and Q-Cartier: (terms, modulus) conditions over the edge order
# ---------------------------------------------------------------------------

def _local_key(tp: TriangulatedProduct, v) -> tuple:
    """The rows of ``principal_rows`` at the edges at v, their columns
    renumbered by first appearance: the local matrix up to column order,
    which changes neither its lattice nor its invariant factors.  Stars
    with equal keys have equal congruences, as ``span_conditions`` gives
    equal rows equal conditions."""
    rows, edge, column = tp.principal_rows, tp._eindex, {}
    return tuple([tuple([(column.setdefault(j, len(column)), c) for j, c in rows[edge[e]]])
                  for e in tp._star[v]])


def _star_conditions(tp: TriangulatedProduct, v) -> tuple:
    """The congruences that cut out L_v, ``span_conditions`` of v's
    ``_local_key``: their term indices are positions in v's star.  The
    product's memo holds them by key, so each distinct star is solved
    once (9 for the 36 vertices of C6 x C6), for the local test and for
    Cart alike, and by vertex, so each vertex builds its key once."""
    at, solved = tp._memo.setdefault("_star_conditions", ({}, {}))  # by vertex, by key
    if v not in at:
        if (key := _local_key(tp, v)) not in solved:
            solved[key] = span_conditions(key)
        at[v] = solved[key]
    return at[v]


@_per_product
def _cartier_conditions(tp: TriangulatedProduct) -> tuple:
    """Every vertex's ``_star_conditions``, lifted to the global edge
    order, in the checked form, checked once per product.

    One ``(terms, modulus)`` per factor of M_v above 1 or missing rank,
    ``terms`` the nonzero ``(edge index, coefficient)`` pairs of its row.
    """
    out = []
    for v in tp.vertices:
        star_idx = [tp._eindex[eid] for eid in tp._star[v]]
        out.extend((tuple((star_idx[i], c) for i, c in terms), modulus)
                   for terms, modulus in _star_conditions(tp, v))
    return checked_conditions(tp.n_edges, out)


def is_cartier(tp: TriangulatedProduct, d: Sequence[int]) -> bool:
    """Locally principal: d meets every vertex's local congruences, or,
    when every vertex is locally saturated and so Cart = QCart (see
    ``cart_lattice``), the balancing equations, and none is built."""
    _check_divisor(tp, d)
    conditions = _balancing_conditions if _locally_saturated(tp) else _cartier_conditions
    return satisfies(conditions(tp), d)


@_per_product
def _locally_saturated(tp: TriangulatedProduct) -> bool:
    """Whether every local lattice L_v equals Q_v, the kernel of the
    balancing equations at v on the edges at v.

    Lemma: if no two edges at a share their far end, and none at b do,
    then L_v = Q_v at v = (a, b), under every diagonal policy.  Proof:
    let h_i be the horizontal edge at v over the G-edge to a_i, v_j the
    vertical one over the H-edge to b_j, and d_ij the diagonal at v over
    both, where the policy puts one.  Q_v has the Z-basis
    u_ij = e_{d_ij} - e_{h_i} - e_{v_j}, s = sum e_{h_i}, t = sum e_{v_j}.
    The far ends are distinct, so M_v's columns at (a_i, b_j), (a_i, b)
    and (a, b_j) are -u_ij, sum_j u_ij + t and sum_i u_ij + s, and
    L_v contains Q_v, which contains L_v.

    At each other vertex the star's own congruences decide.  L_v lies
    in Q_v, which is saturated and cut out by v's deg_G(a) - 1 +
    deg_H(b) - 1 balancing equations (independent: each has an edge,
    horizontal or vertical, of its own).  So rank M_v <= rank Q_v, and
    of L_v's congruences |star(v)| - rank M_v are equations, at least
    as many: L_v = Q_v iff there are exactly that many congruences,
    which leaves room for no further equation and none with a modulus.
    Every such star is solved, once per distinct key: if one fails,
    Cart reads them all.
    """
    simple_g, simple_h = tp.g._simple_vertices(), tp.h._simple_vertices()
    return all([len(_star_conditions(tp, (a, b))) == tp.g.degree(a) + tp.h.degree(b) - 2
                for a, b in tp.vertices if a not in simple_g or b not in simple_h])


@_per_product
def cart_lattice(tp: TriangulatedProduct) -> Lattice:
    """Cartier divisors: QCart itself when every vertex is locally
    saturated, and otherwise the kernel of every local congruence.

    Both are exact.  QCart and Cart are the d whose restriction to each
    star lies in Q_v and in L_v, so L_v = Q_v at every vertex gives
    Cart = QCart.  In general the congruences at v cut out the d whose
    restriction lies in L_v, so together they cut out Cart, and no
    QCart is built.  Simple factors take the first branch, by the lemma
    in ``_locally_saturated``; multigraph factors may need the second.
    """
    if _locally_saturated(tp):
        return qcart_lattice(tp)
    return condition_kernel(tp.n_edges, _cartier_conditions(tp))


@_per_product
def _balancing_conditions(tp: TriangulatedProduct) -> tuple:
    """The balancing equations as ``(terms, 0)`` conditions, read off
    each vertex's star in one pass, in the checked form, checked once
    per product.

    At v = (a, b) the edges at v projecting to a G-edge at a are one
    horizontal edge and the diagonals at v over that G-edge, and the
    sums of d over these sets must agree for all G-edges at a; likewise
    on the H side.  An edge id names the factor edges it lies over:
    ``("h", ge, b)`` lies over ge, ``("v", a, he)`` over he and
    ``("d", ge, he)`` over both.  The star is in the global edge order,
    so each set starts at its horizontal or vertical edge, those in
    their factor's edge order.  Per vertex: the G block, then the H
    block, each the sum at the first factor edge minus the sum at each
    later one, so deg_G(a) + deg_H(b) - 2 conditions per vertex.
    """
    edge, out = tp._eindex, []
    for v in tp.vertices:
        over_g, over_h = {}, {}
        for eid in tp._star[v]:
            kind, x, y = eid
            if kind == "h":
                over_g[x] = [edge[eid]]
            elif kind == "v":
                over_h[y] = [edge[eid]]
            else:
                over_g[x].append(edge[eid])
                over_h[y].append(edge[eid])
        for anchor, *others in (over_g.values(), over_h.values()):
            for other in others:
                out.append((tuple([(i, 1) for i in anchor] + [(i, -1) for i in other]), 0))
    return checked_conditions(tp.n_edges, out)


@_per_product
def balancing_matrix(tp: TriangulatedProduct) -> IntMatrix:
    """The balancing conditions as rows; D is Q-Cartier iff it kills D."""
    return condition_matrix(tp.n_edges, _balancing_conditions(tp))


def is_q_cartier(tp: TriangulatedProduct, d: Sequence[int]) -> bool:
    """Balanced: d satisfies every balancing condition."""
    _check_divisor(tp, d)
    return satisfies(_balancing_conditions(tp), d)


@_per_product
def qcart_lattice(tp: TriangulatedProduct) -> Lattice:
    return condition_kernel(tp.n_edges, _balancing_conditions(tp))


# ---------------------------------------------------------------------------
# Picard and class groups
# ---------------------------------------------------------------------------

@_per_product
def pic(tp: TriangulatedProduct) -> AbGroup:
    """Cartier divisors modulo principal divisors; cl itself when every
    vertex is locally saturated, so that Cart is QCart."""
    cart = cart_lattice(tp)
    if _locally_saturated(tp):
        return cl(tp)
    return quotient(cart, transpose(tp.principal_rows, tp.n_vertices))


@_per_product
def cl(tp: TriangulatedProduct) -> AbGroup:
    """Q-Cartier divisors modulo principal ones.
    Prin is given by P's sparse columns, which need no elimination."""
    return quotient(qcart_lattice(tp), transpose(tp.principal_rows, tp.n_vertices))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

@_per_product
def _edge_keys(tp: TriangulatedProduct) -> dict:
    """``edge_id_str`` key -> edge index, inserted in the edge order."""
    return {edge_id_str(eid): i for i, eid in enumerate(tp._eindex)}


@_per_product
def _json_keys(tp: TriangulatedProduct) -> tuple:
    """(``json.dumps`` of the key, edge index), sorted by key."""
    return tuple((json.dumps(key), i) for key, i in sorted(_edge_keys(tp).items()))


def divisor_to_json(tp: TriangulatedProduct, d: Sequence[int]) -> str:
    """``json.dumps`` of {edge-id key: coefficient} over the nonzero ones, keys sorted."""
    _check_divisor(tp, d)
    try:
        return "{" + ", ".join([f"{key}: {d[i]}" for key, i in _json_keys(tp) if d[i]]) + "}"
    except ValueError:  # a coefficient past CPython's int -> str digit limit; the largest is
        key = edge_id_str(list(tp._eindex)[max(range(tp.n_edges), key=lambda i: abs(d[i]))])
        raise ComplexError(f"coefficient of edge {key!r} has too many digits") from None


def _json_object(pairs: list) -> dict:
    """A JSON object's pairs as a dict, or ComplexError naming the first
    key that comes twice, of which ``json.loads`` would keep the last."""
    if len(obj := dict(pairs)) < len(pairs):  # popping each key in turn, a repeat finds it gone
        key = next(key for key, _ in pairs if obj.pop(key, obj) is obj)
        raise ComplexError(f"key {key!r} appears twice in the divisor JSON")
    return obj


_decoder = json.JSONDecoder(object_pairs_hook=_json_object)  # json.loads would build one per call


def divisor_from_json(tp: TriangulatedProduct, text: str) -> tuple:
    """Inverse of ``divisor_to_json``; every coefficient must be a JSON
    integer, and no key may come twice."""
    if not isinstance(text, str):
        raise ComplexError(f"divisor JSON must be a str, got {type(text).__name__}")
    try:
        obj = _decoder.decode(text)
    except json.JSONDecodeError as exc:
        raise ComplexError(f"divisor JSON is not valid at line {exc.lineno} "
                           f"column {exc.colno}: {exc.msg}") from None
    except ValueError:  # an integer past CPython's str -> int digit limit, kept as text
        limit = sys.get_int_max_str_digits()  # here, or a repeated key, raised again here
        obj = json.loads(text, object_pairs_hook=_json_object,
                         parse_int=lambda s: int(s) if len(s.lstrip("-")) <= limit else (s,))
    if not isinstance(obj, dict):
        raise ComplexError("divisor JSON must be an object")
    by_str = _edge_keys(tp)
    d = [0] * tp.n_edges
    for key, val in obj.items():
        if (i := by_str.get(key)) is None:
            raise ComplexError(f"unknown edge id {key!r}")
        if type(val) is not int:
            what = "has too many digits" if type(val) is tuple else f"is not an integer: {val!r}"
            raise ComplexError(f"coefficient of edge {key!r} {what}")
        d[i] = val
    return tuple(d)
