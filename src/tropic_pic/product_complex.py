"""Triangulated products of two multigraphs as weak tropical complexes.

The product of graphs G and H is a square complex: one vertex per
vertex pair, horizontal edges (G-edge x H-vertex), vertical edges
(G-vertex x H-edge), and one square per edge pair.  Each square is cut
into two triangles by a chosen diagonal; the choice per square is the
DiagonalPolicy.  Squares coming from parallel edges are distinct cells
with distinct diagonals.

The integer weights alpha on (edge, vertex) pairs make this a weak
tropical complex: for every edge r,

    sum over endpoints v of alpha(r, v)  ==  number of triangles on r.

alpha is 1 on (diagonal, endpoint) pairs, and on a non-diagonal edge r
with endpoint v it counts the triangles on r whose diagonal avoids v.
They and the triangle links are kept as the rows of the principal
matrix P, ``principal_rows``: row r is -alpha(r, v) at each endpoint v,
and elsewhere the number of triangles on r with opposite vertex v.

Every triangle lies in one square, so the construction is one pass over
the squares after the horizontal and vertical edges, which start the
stars and rows with 0 at both ends.  A square over G-edge umin-umax and
H-edge bmin-bmax has corners ll = (umin, bmin), lr = (umax, bmin),
ul = (umin, bmax) and ur = (umax, bmax).  Its diagonal p-q is ll-ur, or
lr-ul when flipped; its row starts at -1 at p and q, and it ends their
stars.  Each of its two triangles has sides s1 = p-c and s2 = c-q at
the corner c off the diagonal: the rows of s1 and s2 lose 1 at c, the
row of s1 gains 1 at q, that of s2 at p and the diagonal's at c.

So the weight axiom holds by construction and is not checked at run
time: each triangle adds 1 to the alpha of its sides at c, and a
diagonal, in exactly two triangles, has alpha 1 at both ends.  The four
corners of a square are distinct, as the factors have no loops, so no
+1 lands on an endpoint of its row.

The pass writes only what the divisor theory reads: the edge order, as
the id -> position map, the stars, the rows and the squares with their
flips.  The tables of ``ProductEdge``s and ``Triangle``s are built from
those and the factors on first read, through the same square geometry
(``_square``), so Pic and Cl never build them.

Orderings are deterministic: vertices lexicographic in (G-order,
H-order); edges in blocks horizontal / vertical / diagonal, each block
lexicographic, so the diagonal block is contiguous at the end.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping, Sequence
from functools import cached_property

from .exact_lattice import ImmutableValue
from .multigraph import CellComplex, Multigraph


class ComplexError(ValueError):
    """Invalid product construction or query."""


# ---------------------------------------------------------------------------
# Diagonal policies
# ---------------------------------------------------------------------------

class DiagonalPolicy(ImmutableValue):
    """Per-square diagonal choice: standard, or an explicit map.

    ``standard`` (no choices) joins the (min, min) corner to the
    (max, max) corner under the fixed vertex orders.  ``explicit``
    carries a full map (g_edge_id, h_edge_id) -> flipped flag; built
    directly or not, its keys must be distinct and its flags bools.
    A policy is immutable: setting or deleting an attribute raises
    ComplexError.  Policies are equal when their choices are.
    """

    _fields = ("choices",)
    _error = ComplexError

    def __init__(self, choices: frozenset | None = None):  # frozenset of ((ge, he), flipped)
        pairs = frozenset() if choices is None else choices
        if not isinstance(pairs, frozenset):
            raise ComplexError(f"policy choices must be a frozenset, got {type(pairs).__name__}")
        for pair in pairs:
            if not (type(pair) is tuple and len(pair) == 2 and type(pair[1]) is bool):
                raise ComplexError(f"policy choice {pair!r} is not a (square key, bool) pair")
        if len(dict(pairs)) < len(pairs):
            raise ComplexError("policy choices give a square both flags")
        self.__dict__["choices"] = choices

    @classmethod
    def standard(cls) -> "DiagonalPolicy":
        return cls()

    @classmethod
    def explicit(cls, choices: Mapping) -> "DiagonalPolicy":
        """Policy from a mapping of square keys to flags: bools, 0 or 1."""
        if not isinstance(choices, Mapping):
            raise ComplexError(f"explicit policy needs a mapping, got {type(choices).__name__}")
        for key, flag in choices.items():
            if type(flag) not in (bool, int) or flag not in (0, 1):
                raise ComplexError(f"flag of square {key!r} is not a bool, 0 or 1: {flag!r}")
        return cls(frozenset((k, bool(v)) for k, v in choices.items()))

    def _resolve(self, square_keys: Sequence[tuple]) -> dict:
        """Flip flag per square key, validating explicit choices."""
        table = dict.fromkeys(square_keys, False) if self.choices is None else dict(self.choices)
        if missing := [k for k in square_keys if k not in table]:
            raise ComplexError(f"explicit policy misses squares: {missing[:3]}...")
        if extra := list(table.keys() - set(square_keys)):
            raise ComplexError(f"explicit policy names unknown squares: {extra[:3]}...")
        return {k: table[k] for k in square_keys}


def parse_policy_text(text: str) -> DiagonalPolicy:
    """Parse explicit-policy lines ``d <g-edge-id> <h-edge-id> <0|1>``;
    a text with none, only blank and comment lines, is refused."""
    if not isinstance(text, str):
        raise ComplexError(f"policy text must be a str, got {type(text).__name__}")
    choices = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4 or parts[0] != "d" or parts[3] not in ("0", "1"):
            raise ComplexError(f"line {lineno}: expected 'd <g-edge> <h-edge> <0|1>'")
        key = (parts[1], parts[2])
        if key in choices:
            raise ComplexError(f"line {lineno}: duplicate square {key}")
        choices[key] = parts[3] == "1"
    if not choices:
        raise ComplexError("policy text has no 'd <g-edge> <h-edge> <0|1>' line")
    return DiagonalPolicy.explicit(choices)


# ---------------------------------------------------------------------------
# The triangulated product
# ---------------------------------------------------------------------------

# eid: ("h", g_edge, h_vertex) / ("v", g_vertex, h_edge) / ("d", g_edge, h_edge)
# u: endpoint (a, b), earlier in vertex order, except lr on a flipped diagonal
# w: the other endpoint (ul on a flipped diagonal)
# kind: "horizontal" | "vertical" | "diagonal"
ProductEdge = namedtuple("ProductEdge", "eid u w kind")

# verts: (ll, lr, ur), (ll, ul, ur); flipped: (ll, lr, ul), (lr, ur, ul)
# edge_ids: the sides s1, s2, then the diagonal
# diag: the diagonal edge id
Triangle = namedtuple("Triangle", "verts edge_ids diag")


def _ordered_ends(graph: Multigraph) -> dict:
    """Edge id -> its endpoints (earlier, later) in the graph's vertex order."""
    return {eid: (u, w) if graph.vertex_index(u) < graph.vertex_index(w) else (w, u)
            for eid, u, w in graph.edges}


def _axis_edges(g: Multigraph, h: Multigraph, g_ends: dict, h_ends: dict) -> list:
    """``(eid, u, w, kind)`` of the horizontal edges, then the vertical
    ones, in the edge order."""
    return ([(("h", ge, b), (u, b), (w, b), "horizontal")
             for ge, (u, w) in g_ends.items() for b in h.vertices]
            + [(("v", a, he), (a, u), (a, w), "vertical")
               for a in g.vertices for he, (u, w) in h_ends.items()])


def _square(ge, he, g_ends: dict, h_ends: dict, flipped: bool) -> tuple:
    """``(p, q, halves)`` of the square over ge and he: its diagonal's
    ends, and per triangle ``(verts, s1, s2, c)``, its sides and the
    corner off the diagonal."""
    (umin, umax), (bmin, bmax) = g_ends[ge], h_ends[he]
    ll, lr, ul, ur = (umin, bmin), (umax, bmin), (umin, bmax), (umax, bmax)
    bottom, top = ("h", ge, bmin), ("h", ge, bmax)
    left, right = ("v", umin, he), ("v", umax, he)
    if flipped:
        return lr, ul, (((ll, lr, ul), bottom, left, ll), ((lr, ur, ul), right, top, ur))
    return ll, ur, (((ll, lr, ur), bottom, right, lr), ((ll, ul, ur), left, top, ul))


def _product_edges(tp: TriangulatedProduct) -> tuple:
    """The product's ``ProductEdge``s in the edge order."""
    g_ends, h_ends = _ordered_ends(tp.g), _ordered_ends(tp.h)
    edges = [ProductEdge(*e) for e in _axis_edges(tp.g, tp.h, g_ends, h_ends)]
    for ge, he, flipped in tp.squares:
        p, q, _ = _square(ge, he, g_ends, h_ends, flipped)
        edges.append(ProductEdge(("d", ge, he), p, q, "diagonal"))
    return tuple(edges)


def _product_triangles(tp: TriangulatedProduct) -> tuple:
    """The product's ``Triangle``s, two per square in the square order."""
    g_ends, h_ends = _ordered_ends(tp.g), _ordered_ends(tp.h)
    triangles = []
    for ge, he, flipped in tp.squares:
        did = ("d", ge, he)
        triangles += [Triangle(verts, (s1, s2, did), did)
                      for verts, s1, s2, _ in _square(ge, he, g_ends, h_ends, flipped)[2]]
    return tuple(triangles)


class TriangulatedProduct(CellComplex):
    """Immutable 2-dimensional Delta-complex over G x H with alpha weights.

    The construction writes what the divisor theory reads: the vertices
    and the id -> position maps, each vertex's star (the ids of the
    edges at it, in the edge order), ``squares`` as ``(g_edge, h_edge,
    flipped)`` in the diagonal order, the counts, and
    ``principal_rows``, read-only, which has per edge P's row as
    ``(vertex index, value)`` pairs sorted by index, endpoints kept at
    alpha 0: alpha lives there alone, alpha(r, v) being minus row r's
    entry at an endpoint v, and holds the weight axiom by construction.
    ``edges`` (``ProductEdge``s) and ``triangles`` (``Triangle``s) are
    built on first read, from the edge order, ``squares`` and the
    factors' ordered ends; no step of Pic or Cl reads them.
    ``_memo`` holds values derived from the complex (the divisor lattices
    of ``divisor_theory``), so they live exactly as long as the product.
    The lookups come from the base ``CellComplex``; setting or deleting
    an attribute raises ComplexError.  A product equals only itself.
    """

    _error = ComplexError
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, g: Multigraph, h: Multigraph, policy: DiagonalPolicy):
        for what, value, cls in (("factor G", g, Multigraph), ("factor H", h, Multigraph),
                                 ("policy", policy, DiagonalPolicy)):
            if not isinstance(value, cls):
                raise ComplexError(f"{what} must be a {cls.__name__}, got {type(value).__name__}")
        if g.n_edges < 1 or h.n_edges < 1:
            raise ComplexError("both factors need at least one edge")
        vertices = tuple((a, b) for a in g.vertices for b in h.vertices)
        vi = {v: i for i, v in enumerate(vertices)}
        g_ends, h_ends = _ordered_ends(g), _ordered_ends(h)

        star = {v: [] for v in vertices}
        rows = {}  # edge id -> P's row as a dict, in the edge order
        for eid, u, w, _ in _axis_edges(g, h, g_ends, h_ends):
            star[u].append(eid)
            star[w].append(eid)
            rows[eid] = {vi[u]: 0, vi[w]: 0}

        flips = policy._resolve([(ge, he) for ge in g_ends for he in h_ends])
        squares = []
        for (ge, he), flipped in flips.items():
            p, q, halves = _square(ge, he, g_ends, h_ends, flipped)
            did = ("d", ge, he)
            squares.append((ge, he, flipped))
            star[p].append(did)
            star[q].append(did)
            pi, qi = vi[p], vi[q]
            rows[did] = diagonal = {pi: -1, qi: -1}
            for _, s1, s2, c in halves:
                r1, r2, ci = rows[s1], rows[s2], vi[c]
                r1[ci] -= 1
                r2[ci] -= 1
                r1[qi] = r1.get(qi, 0) + 1
                r2[pi] = r2.get(pi, 0) + 1
                diagonal[ci] = 1

        self.__dict__.update(
            g=g, h=h, policy=policy, vertices=vertices, squares=tuple(squares),
            principal_rows=tuple([tuple(sorted(row.items())) for row in rows.values()]),
            _vindex=vi, _eindex={eid: i for i, eid in enumerate(rows)},
            _star={v: tuple(s) for v, s in star.items()},
            n_horizontal=g.n_edges * h.n_vertices, n_vertical=g.n_vertices * h.n_edges,
            n_diagonal=g.n_edges * h.n_edges, _memo={})

    edges = cached_property(_product_edges)
    triangles = cached_property(_product_triangles)

    def __repr__(self) -> str:
        return (f"TriangulatedProduct({self.n_vertices} vertices, "
                f"{self.n_edges} edges, {2 * self.n_diagonal} triangles)")


def build_product(g: Multigraph, h: Multigraph,
                  policy: DiagonalPolicy | None = None) -> TriangulatedProduct:
    """Triangulate G x H under the given diagonal policy (default standard)."""
    return TriangulatedProduct(g, h, DiagonalPolicy.standard() if policy is None else policy)


def edge_id_str(eid: tuple) -> str:
    """Canonical string form of a product edge id, for JSON keys.

    The parts are joined by ``:`` after escaping ``\\`` and ``:`` in the
    ``str`` of each, so two ids share a key only when their parts have
    pairwise equal ``str`` forms.  ``Multigraph`` refuses two vertex ids,
    or two edge ids, with equal ``str`` forms (such as 1 and "1"), so
    distinct edges of a product get distinct keys.  An eid that is not a
    tuple raises ComplexError.
    """
    if not isinstance(eid, tuple):
        raise ComplexError(f"expected an edge id tuple, got {type(eid).__name__}")
    return ":".join(str(part).replace("\\", "\\\\").replace(":", "\\:") for part in eid)
