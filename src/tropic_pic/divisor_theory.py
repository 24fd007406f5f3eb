"""Divisors on a triangulated product: principal, Cartier, Q-Cartier,
and the groups Pic and Cl.

A divisor is an integer vector indexed by the global edge order of the
complex (edges are the ridges in dimension 2).  A PL function is an
integer vector indexed by vertices; its divisor on edge r is

    div(phi)(r) = sum over triangles f on r of phi(opposite vertex)
                  - sum over endpoints v of r of alpha(r, v) * phi(v).

The principal matrix P has div(phi_v) as column v, so div(phi) = P phi
and the principal divisors are the integer column span of P.

A divisor is Cartier when, at every vertex v, its restriction to the
edges at v lies in the integer span of the same restriction of P's
columns (the local matrix M_v).  Each such local lattice is cut out by
a few congruences row . d = 0 (mod m), or row . d = 0 when m = 0
(``exact_lattice.lattice_conditions``), so Cart is the set of divisors
that satisfy every vertex's congruences at once: one kernel, computed
once per product.  A divisor is Q-Cartier exactly when it
satisfies the balancing conditions: at each vertex (a, b), the sum of
coefficients over the edges projecting to a fixed G-edge at a is
independent of that edge, and likewise on the H side.  The balancing
matrix stacks the pairwise differences of those sums, anchored at the
first incident edge in the fixed order, giving

    deg_G(a) + deg_H(b) - 2

rows per vertex; its kernel is the Q-Cartier lattice.
"""

from __future__ import annotations

import functools
import json
from typing import Sequence

from .exact_lattice import (
    AbGroup,
    IntMatrix,
    Lattice,
    kernel,
    lattice_conditions,
    lattice_member,
    quotient,
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
# Local (Cartier) conditions
# ---------------------------------------------------------------------------

def local_matrix(tp: TriangulatedProduct, v) -> IntMatrix:
    """Rows of the principal matrix restricted to the edges at v."""
    tp.vertex_index(v)
    p = principal_matrix(tp)
    rows = [tp.edge_index(eid) for eid in graph_star(tp, v)]
    return p.submatrix(rows, range(tp.n_vertices))


@_per_product
def _cartier_conditions(tp: TriangulatedProduct) -> tuple:
    """Every vertex's local congruences, lifted to the global edge order.

    One ``(terms, modulus)`` per congruence, with ``terms`` the nonzero
    ``(edge index, coefficient)`` pairs of its row.
    """
    out = []
    for v in tp.vertices:
        star_idx = [tp.edge_index(eid) for eid in graph_star(tp, v)]
        local = Lattice.from_matrix(local_matrix(tp, v))
        for row, modulus in lattice_conditions(local):
            terms = tuple((i, c) for i, c in zip(star_idx, row) if c)
            out.append((terms, modulus))
    return tuple(out)


def is_cartier(tp: TriangulatedProduct, d: Sequence[int]) -> bool:
    """Locally principal: at every vertex the restriction of d to the
    star lies in the integer span of the local matrix columns, that is,
    d satisfies every vertex's local congruences."""
    _check_divisor(tp, d)
    for terms, modulus in _cartier_conditions(tp):
        s = sum(c * d[i] for i, c in terms)
        if (s % modulus if modulus else s):
            return False
    return True


@_per_product
def cart_lattice(tp: TriangulatedProduct) -> Lattice:
    """Lattice of Cartier divisors.

    The divisors d that satisfy all local congruences row . d = 0
    (mod m): the first |E| coordinates of the kernel of [A | diag(m)],
    where A stacks the rows and each congruence with m > 0 gets its own
    slack column holding m.
    """
    ne = tp.n_edges
    conditions = _cartier_conditions(tp)
    n_slack = sum(1 for _, modulus in conditions if modulus)
    width = ne + n_slack
    flat = [0] * (len(conditions) * width)
    slack = ne
    for r, (terms, modulus) in enumerate(conditions):
        base = r * width
        for i, c in terms:
            flat[base + i] = c
        if modulus:
            flat[base + slack] = modulus
            slack += 1
    ker = kernel(IntMatrix(len(conditions), width, flat))
    return Lattice.from_generators(ne, [ker.basis.col(j)[:ne] for j in range(ker.rank)])


# ---------------------------------------------------------------------------
# Balancing conditions (Q-Cartier)
# ---------------------------------------------------------------------------

def _projection_indicators(tp: TriangulatedProduct, v) -> tuple:
    """Per-factor-edge indicator rows of edges at v projecting to it.

    For vertex v = (a, b): for each G-edge at a, the edges of the
    complex at v projecting to it are one horizontal edge plus the
    diagonals at v over that G-edge; symmetrically on the H side.
    Returns (g_rows, h_rows) as lists of coefficient vectors.
    """
    a, b = v
    ne = tp.n_edges
    diag_by_g = {}
    diag_by_h = {}
    for did in tp.diagonals_at(v):
        _, ge, he = did
        diag_by_g.setdefault(ge, []).append(did)
        diag_by_h.setdefault(he, []).append(did)
    g_rows = []
    for ge in tp.g.incident_edges(a):
        row = [0] * ne
        row[tp.edge_index(("h", ge, b))] = 1
        for did in diag_by_g.get(ge, ()):
            row[tp.edge_index(did)] = 1
        g_rows.append(row)
    h_rows = []
    for he in tp.h.incident_edges(b):
        row = [0] * ne
        row[tp.edge_index(("v", a, he))] = 1
        for did in diag_by_h.get(he, ()):
            row[tp.edge_index(did)] = 1
        h_rows.append(row)
    return g_rows, h_rows


@_per_product
def balancing_matrix(tp: TriangulatedProduct) -> IntMatrix:
    """One row per balancing condition; D is Q-Cartier iff it kills D.

    Rows per vertex (a, b): the G-side sums anchored at the first
    incident G-edge minus each later one, then the H side, so the row
    count is the sum over vertices of deg_G(a) + deg_H(b) - 2.
    """
    ne = tp.n_edges
    rows = []
    for v in tp.vertices:
        g_rows, h_rows = _projection_indicators(tp, v)
        for block in (g_rows, h_rows):
            anchor = block[0]
            for other in block[1:]:
                rows.append([x - y for x, y in zip(anchor, other)])
    if not rows:
        return IntMatrix.zeros(0, ne)
    return IntMatrix.from_rows(rows)


def is_q_cartier(tp: TriangulatedProduct, d: Sequence[int]) -> bool:
    """Balanced: the balancing matrix annihilates d."""
    _check_divisor(tp, d)
    return all(x == 0 for x in balancing_matrix(tp).mul_vec(d))


@_per_product
def qcart_lattice(tp: TriangulatedProduct) -> Lattice:
    return kernel(balancing_matrix(tp))


# ---------------------------------------------------------------------------
# Picard and class groups
# ---------------------------------------------------------------------------

def pic(tp: TriangulatedProduct) -> AbGroup:
    """Cartier divisors modulo principal divisors."""
    return quotient(cart_lattice(tp), prin_lattice(tp))


def cl(tp: TriangulatedProduct) -> AbGroup:
    """Q-Cartier (= Weil, in dimension 2) divisors modulo principal ones."""
    return quotient(qcart_lattice(tp), prin_lattice(tp))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def divisor_to_json(tp: TriangulatedProduct, d: Sequence[int]) -> str:
    """JSON object mapping edge-id strings to coefficients, zeros omitted."""
    _check_divisor(tp, d)
    obj = {edge_id_str(e.eid): c for e, c in zip(tp.edges, d) if c}
    return json.dumps(obj, sort_keys=True)


@_per_product
def _edge_index_by_key(tp: TriangulatedProduct) -> dict:
    return {edge_id_str(e.eid): i for i, e in enumerate(tp.edges)}


def divisor_from_json(tp: TriangulatedProduct, text: str) -> tuple:
    """Inverse of ``divisor_to_json``; every coefficient must be a JSON integer."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ComplexError("divisor JSON must be an object")
    by_str = _edge_index_by_key(tp)
    d = [0] * tp.n_edges
    for key, val in obj.items():
        if key not in by_str:
            raise ComplexError(f"unknown edge id {key!r}")
        if isinstance(val, bool) or not isinstance(val, int):
            raise ComplexError(f"coefficient of edge {key!r} is not an integer: {val!r}")
        d[by_str[key]] = val
    return tuple(d)
