"""Divisors on a triangulated product: principal, Cartier, Q-Cartier,
and the groups Pic and Cl.

A divisor is an integer vector indexed by the global edge order of the
complex (edges are the ridges in dimension 2).  A PL function is an
integer vector indexed by vertices; its divisor on edge r is

    div(phi)(r) = sum over triangles f on r of phi(opposite vertex)
                  - sum over endpoints v of r of alpha(r, v) * phi(v).

The principal matrix P has div(phi_v) as column v, so div(phi) = P phi
and the principal divisors are the integer column span of P.

Cartier and Q-Cartier divisors are both cut out by per-vertex linear
conditions over the edge order, in ``exact_lattice``'s one format
``(terms, modulus)``: ``satisfies`` tests a divisor against them,
``condition_matrix`` writes them as rows, and ``lattice_cut`` cuts a
lattice by them.

Cartier: at every vertex v the restriction of d to the edges at v lies
in the integer span of the same restriction of P's columns (the local
matrix M_v), which ``exact_lattice.lattice_conditions`` turns into
congruences, computed once per distinct local matrix.  Q-Cartier: d
meets the balancing equations at every vertex (see
``_balancing_conditions``), of modulus 0, and QCart is their kernel.
Cart is cut from QCart by the restricted congruences; on simple factors
none is left, Cart is QCart, and Pic and Cl are one quotient.  Pic and
Cl quotient by P's columns, not by Prin's HNF basis, which only
``is_principal`` builds.
"""

from __future__ import annotations

import functools
import json
from typing import Sequence

from .exact_lattice import (
    AbGroup,
    IntMatrix,
    Lattice,
    condition_matrix,
    kernel,
    lattice_conditions,
    lattice_cut,
    lattice_member,
    quotient,
    satisfies,
)
from .product_complex import (
    ComplexError,
    TriangulatedProduct,
    edge_id_str,
    graph_star,
)


def _check_ints(values: Sequence[int], what: str) -> None:
    """Raise ComplexError at the first entry that is not an int (bools included)."""
    if not set(map(type, values)) <= {int}:
        i = next(i for i, x in enumerate(values) if type(x) is not int)
        raise ComplexError(f"{what} at index {i} is not an integer: {values[i]!r}")


def _check_divisor(tp: TriangulatedProduct, d: Sequence[int]) -> None:
    if len(d) != tp.n_edges:
        raise ComplexError("divisor must have one coefficient per edge")
    _check_ints(d, "divisor coefficient")


def _check_pl(tp: TriangulatedProduct, phi: Sequence[int]) -> None:
    if len(phi) != tp.n_vertices:
        raise ComplexError("PL function must have one value per vertex")
    _check_ints(phi, "PL function value")


def _per_product(fn):
    """Cache fn(tp) in the product's own memo, so it is freed with tp."""
    key = fn.__name__

    @functools.wraps(fn)
    def cached(tp):
        memo = tp._memo
        if key not in memo:
            memo[key] = fn(tp)
        return memo[key]

    return cached


# ---------------------------------------------------------------------------
# Principal divisors
# ---------------------------------------------------------------------------

@_per_product
def principal_matrix(tp: TriangulatedProduct) -> IntMatrix:
    """|E| x |V| matrix whose column v is div of the indicator of v.

    Entry (r, v) is -alpha(r, v) when v is an endpoint of r, and the
    number of triangles on r with opposite vertex v otherwise.  Every
    column sums to zero and the all-ones PL function lies in the kernel.
    """
    ne, nv = tp.n_edges, tp.n_vertices
    flat = [0] * (ne * nv)
    for i, e in enumerate(tp.edges):
        base = i * nv
        flat[base + tp.vertex_index(e.u)] = -tp._alpha[(e.eid, e.u)]
        flat[base + tp.vertex_index(e.w)] = -tp._alpha[(e.eid, e.w)]
    for (eid, v), mult in tp._link_count.items():
        flat[tp.edge_index(eid) * nv + tp.vertex_index(v)] = mult
    return IntMatrix(ne, nv, flat)


def div(tp: TriangulatedProduct, phi: Sequence[int]) -> tuple:
    """Divisor of the PL function with vertex values phi."""
    _check_pl(tp, phi)
    return principal_matrix(tp).mul_vec(phi)


@_per_product
def prin_lattice(tp: TriangulatedProduct) -> Lattice:
    return Lattice.from_matrix(principal_matrix(tp))


def is_principal(tp: TriangulatedProduct, d: Sequence[int]) -> bool:
    _check_divisor(tp, d)
    return lattice_member(prin_lattice(tp), d)[0]


# ---------------------------------------------------------------------------
# Cartier and Q-Cartier: (terms, modulus) conditions over the edge order
# ---------------------------------------------------------------------------

def local_matrix(tp: TriangulatedProduct, v) -> IntMatrix:
    """Rows of the principal matrix restricted to the edges at v.

    Only the columns of the closed star of v are kept: v and the far
    endpoints of its edges, in vertex order.  Every other column is zero
    on these rows (a triangle on an edge at v has its third vertex next
    to v), so the local lattice is the same as with all |V| columns.
    """
    star = graph_star(tp, v)
    rows = [tp.edge_index(eid) for eid in star]
    closed_star = {u for eid in star for u in tp.endpoints(eid)}
    return principal_matrix(tp).submatrix(rows, sorted(map(tp.vertex_index, closed_star)))


@_per_product
def _cartier_conditions(tp: TriangulatedProduct) -> tuple:
    """Every vertex's local congruences, lifted to the global edge order.

    One ``(terms, modulus)`` per congruence, with ``terms`` the nonzero
    ``(edge index, coefficient)`` pairs of its row.  Equal local matrices
    give equal congruences in local coordinates, so each distinct one is
    solved once (9 for the 36 vertices of C6 x C6).
    """
    by_matrix = {}
    out = []
    for v in tp.vertices:
        star_idx = [tp.edge_index(eid) for eid in graph_star(tp, v)]
        m = local_matrix(tp, v)
        if m not in by_matrix:
            by_matrix[m] = lattice_conditions(Lattice.from_matrix(m))
        out.extend((tuple((star_idx[i], c) for i, c in terms), modulus)
                   for terms, modulus in by_matrix[m])
    return tuple(out)


def is_cartier(tp: TriangulatedProduct, d: Sequence[int]) -> bool:
    """Locally principal: at every vertex the restriction of d to the
    star lies in the integer span of the local matrix columns, that is,
    d satisfies every vertex's local congruences."""
    _check_divisor(tp, d)
    return satisfies(_cartier_conditions(tp), d)


@_per_product
def cart_lattice(tp: TriangulatedProduct) -> Lattice:
    """Cartier divisors: QCart cut by every local congruence.  Exact, as
    Cart lies in QCart: each Cartier condition and balancing equation at
    v reads only the edges at v, and principal divisors are balanced.  On
    simple factors each congruence holds on all of QCart, and Cart is
    QCart itself."""
    return lattice_cut(qcart_lattice(tp), _cartier_conditions(tp))


@_per_product
def _balancing_conditions(tp: TriangulatedProduct) -> tuple:
    """The balancing equations as ``(terms, 0)`` conditions.

    At v = (a, b) the edges at v projecting to a G-edge at a are one
    horizontal edge and the diagonals at v over that G-edge, and the
    sums of d over these sets must agree for all G-edges at a; likewise
    on the H side.  Per vertex: the G block, then the H block, each the
    sum at the first incident factor edge minus the sum at each later
    one, so deg_G(a) + deg_H(b) - 2 conditions per vertex.
    """
    out = []
    for v in tp.vertices:
        a, b = v
        over_g, over_h = {}, {}
        for did in tp.diagonals_at(v):
            _, ge, he = did
            i = tp.edge_index(did)
            over_g.setdefault(ge, []).append(i)
            over_h.setdefault(he, []).append(i)
        blocks = (
            [[tp.edge_index(("h", ge, b)), *over_g.get(ge, ())] for ge in tp.g.incident_edges(a)],
            [[tp.edge_index(("v", a, he)), *over_h.get(he, ())] for he in tp.h.incident_edges(b)],
        )
        for anchor, *others in blocks:
            for other in others:
                out.append((tuple([(i, 1) for i in anchor] + [(i, -1) for i in other]), 0))
    return tuple(out)


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
    return kernel(balancing_matrix(tp))


# ---------------------------------------------------------------------------
# Picard and class groups
# ---------------------------------------------------------------------------

@_per_product
def pic(tp: TriangulatedProduct) -> AbGroup:
    """Cartier divisors modulo principal divisors; cl itself when Cart is QCart."""
    cart = cart_lattice(tp)
    if cart is qcart_lattice(tp):
        return cl(tp)
    return quotient(cart, principal_matrix(tp))


@_per_product
def cl(tp: TriangulatedProduct) -> AbGroup:
    """Q-Cartier (= Weil, in dimension 2) divisors modulo principal ones.
    Prin is given by P's sparse columns, which need no elimination."""
    return quotient(qcart_lattice(tp), principal_matrix(tp))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

@_per_product
def _edge_keys(tp: TriangulatedProduct) -> dict:
    """``edge_id_str`` key -> edge index, inserted in the edge order."""
    return {edge_id_str(e.eid): i for i, e in enumerate(tp.edges)}


def divisor_to_json(tp: TriangulatedProduct, d: Sequence[int]) -> str:
    """JSON object mapping edge-id strings to coefficients, zeros omitted."""
    _check_divisor(tp, d)
    obj = {key: c for key, c in zip(_edge_keys(tp), d) if c}
    return json.dumps(obj, sort_keys=True)


def divisor_from_json(tp: TriangulatedProduct, text: str) -> tuple:
    """Inverse of ``divisor_to_json``; every coefficient must be a JSON integer."""
    if not isinstance(text, str):
        raise ComplexError(f"divisor JSON must be a str, got {type(text).__name__}")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ComplexError(f"divisor JSON is not valid at line {exc.lineno} "
                           f"column {exc.colno}: {exc.msg}") from None
    if not isinstance(obj, dict):
        raise ComplexError("divisor JSON must be an object")
    by_str = _edge_keys(tp)
    d = [0] * tp.n_edges
    for key, val in obj.items():
        if key not in by_str:
            raise ComplexError(f"unknown edge id {key!r}")
        if isinstance(val, bool) or not isinstance(val, int):
            raise ComplexError(f"coefficient of edge {key!r} is not an integer: {val!r}")
        d[by_str[key]] = val
    return tuple(d)
