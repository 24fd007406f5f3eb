"""Triangulated products of two multigraphs as weak tropical complexes.

The product of graphs G and H is a square complex: one vertex per
vertex pair, horizontal edges (G-edge x H-vertex), vertical edges
(G-vertex x H-edge), and one square per edge pair.  Each square is cut
into two triangles by a chosen diagonal; the choice per square is the
DiagonalPolicy.  Squares coming from parallel edges are distinct cells
with distinct diagonals.

The integer weight table alpha on (edge, vertex) pairs makes this a
weak tropical complex: for every edge r,

    sum over endpoints v of alpha(r, v)  ==  number of triangles on r.

alpha is 1 on (diagonal, endpoint) pairs, and on a non-diagonal edge r
with endpoint v it counts the triangles on r whose diagonal avoids v.

Orderings are deterministic: vertices lexicographic in (G-order,
H-order); edges in blocks horizontal / vertical / diagonal, each block
lexicographic, so the diagonal block is contiguous at the end.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .multigraph import Multigraph


class ComplexError(ValueError):
    """Invalid product construction or query."""


# ---------------------------------------------------------------------------
# Diagonal policies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiagonalPolicy:
    """Per-square diagonal choice: standard, or an explicit map.

    ``standard`` (no choices) joins the (min, min) corner to the
    (max, max) corner under the fixed vertex orders.  ``explicit``
    carries a full map (g_edge_id, h_edge_id) -> flipped flag.
    """

    choices: Optional[frozenset] = None  # frozenset of ((ge, he), flipped)

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

    def resolve(self, square_keys: Sequence[tuple]) -> dict:
        """Flip flag per square key, validating explicit choices."""
        if self.choices is None:
            return {k: False for k in square_keys}
        table = dict(self.choices)
        missing = [k for k in square_keys if k not in table]
        known = set(square_keys)
        extra = [k for k in table if k not in known]
        if missing:
            raise ComplexError(f"explicit policy misses squares: {missing[:3]}...")
        if extra:
            raise ComplexError(f"explicit policy names unknown squares: {extra[:3]}...")
        return {k: table[k] for k in square_keys}


def parse_policy_text(text: str) -> DiagonalPolicy:
    """Parse explicit-policy lines ``d <g-edge-id> <h-edge-id> <0|1>``."""
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
    return DiagonalPolicy.explicit(choices)


# ---------------------------------------------------------------------------
# The triangulated product
# ---------------------------------------------------------------------------

class ProductEdge(NamedTuple):
    eid: tuple          # ("h", g_edge, h_vertex) / ("v", g_vertex, h_edge) / ("d", g_edge, h_edge)
    u: tuple            # endpoint (a, b), earlier in vertex order
    w: tuple            # endpoint (a, b), later in vertex order
    kind: str           # "horizontal" | "vertical" | "diagonal"


class Triangle(NamedTuple):
    verts: tuple        # 3 vertices, in vertex order
    edge_ids: tuple     # the 3 edge ids, matching opposite_of
    diag: tuple         # the diagonal edge id


class TriangulatedProduct:
    """Immutable 2-dimensional Delta-complex over G x H with alpha weights.

    ``_memo`` holds values derived from the complex (the divisor lattices
    of ``divisor_theory``), so they live exactly as long as the product.
    """

    __slots__ = ("g", "h", "policy", "vertices", "edges", "squares", "triangles",
                 "_vindex", "_eindex", "_alpha", "_star",
                 "_link_count", "_diag_at", "n_horizontal", "n_vertical", "n_diagonal",
                 "_memo", "__weakref__")

    def __init__(self, g: Multigraph, h: Multigraph, policy: DiagonalPolicy):
        if g.n_edges < 1 or h.n_edges < 1:
            raise ComplexError("both factors need at least one edge")
        self.g = g
        self.h = h
        self.policy = policy
        self._memo = {}

        self.vertices = tuple((a, b) for a in g.vertices for b in h.vertices)
        self._vindex = {v: i for i, v in enumerate(self.vertices)}

        def ordered(graph, eid):
            u, w = graph.endpoints(eid)
            if graph.vertex_index(u) > graph.vertex_index(w):
                u, w = w, u
            return u, w

        edges = []
        for ge, *_ in g.edges:
            umin, umax = ordered(g, ge)
            for b in h.vertices:
                edges.append(ProductEdge(("h", ge, b), (umin, b), (umax, b), "horizontal"))
        for a in g.vertices:
            for he, *_ in h.edges:
                bmin, bmax = ordered(h, he)
                edges.append(ProductEdge(("v", a, he), (a, bmin), (a, bmax), "vertical"))

        square_keys = [(ge, he) for ge, *_ in g.edges for he, *_ in h.edges]
        flips = policy.resolve(square_keys)

        squares = []
        triangles = []
        diag_edges = []
        for ge, he in square_keys:
            umin, umax = ordered(g, ge)
            bmin, bmax = ordered(h, he)
            ll, lr = (umin, bmin), (umax, bmin)
            ul, ur = (umin, bmax), (umax, bmax)
            did = ("d", ge, he)
            flipped = flips[(ge, he)]
            squares.append((ge, he, flipped))
            if not flipped:
                diag_edges.append(ProductEdge(did, ll, ur, "diagonal"))
                triangles.append(Triangle((ll, lr, ur),
                                          (("h", ge, bmin), ("v", umax, he), did), did))
                triangles.append(Triangle((ll, ul, ur),
                                          (("v", umin, he), ("h", ge, bmax), did), did))
            else:
                diag_edges.append(ProductEdge(did, lr, ul, "diagonal"))
                triangles.append(Triangle((ll, lr, ul),
                                          (("h", ge, bmin), ("v", umin, he), did), did))
                triangles.append(Triangle((lr, ur, ul),
                                          (("v", umax, he), ("h", ge, bmax), did), did))
        edges.extend(diag_edges)

        self.edges = tuple(edges)
        self.squares = tuple(squares)
        self.triangles = tuple(triangles)
        self._eindex = {e.eid: i for i, e in enumerate(self.edges)}
        self.n_horizontal = g.n_edges * h.n_vertices
        self.n_vertical = g.n_vertices * h.n_edges
        self.n_diagonal = g.n_edges * h.n_edges

        star = {v: [] for v in self.vertices}
        diag_at = {v: [] for v in self.vertices}
        for e in self.edges:
            star[e.u].append(e.eid)
            star[e.w].append(e.eid)
            if e.kind == "diagonal":
                diag_at[e.u].append(e.eid)
                diag_at[e.w].append(e.eid)
        self._star = {v: tuple(s) for v, s in star.items()}
        self._diag_at = {v: tuple(s) for v, s in diag_at.items()}

        # alpha and link multiplicities from the triangle list
        alpha = {}
        link_count = {}
        for e in self.edges:
            if e.kind == "diagonal":
                alpha[(e.eid, e.u)] = 1
                alpha[(e.eid, e.w)] = 1
            else:
                alpha[(e.eid, e.u)] = 0
                alpha[(e.eid, e.w)] = 0
        for tri in self.triangles:
            dends = set(self._endpoints(tri.diag))
            for eid in tri.edge_ids:
                eu, ew = self._endpoints(eid)
                opposite = next(v for v in tri.verts if v != eu and v != ew)
                key = (eid, opposite)
                link_count[key] = link_count.get(key, 0) + 1
                if eid != tri.diag:
                    for v in (eu, ew):
                        if v not in dends:
                            alpha[(eid, v)] += 1
        self._alpha = alpha
        self._link_count = link_count

        self._validate_weights()

    def _endpoints(self, eid) -> tuple:
        e = self.edges[self._eindex[eid]]
        return e.u, e.w

    def _validate_weights(self):
        n_triangles = Counter(eid for tri in self.triangles for eid in tri.edge_ids)
        for e in self.edges:
            total = self._alpha[(e.eid, e.u)] + self._alpha[(e.eid, e.w)]
            if total != n_triangles[e.eid]:
                raise ComplexError(
                    f"weight axiom fails on {e.eid}: {total} != deg")

    # -- queries -----------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def vertex_index(self, v) -> int:
        try:
            return self._vindex[v]
        except KeyError:
            raise ComplexError(f"unknown vertex {v!r}") from None

    def edge_index(self, eid) -> int:
        try:
            return self._eindex[eid]
        except KeyError:
            raise ComplexError(f"unknown edge {eid!r}") from None

    def endpoints(self, eid) -> tuple:
        e = self.edges[self.edge_index(eid)]
        return e.u, e.w

    def diagonals_at(self, v) -> tuple:
        self.vertex_index(v)
        return self._diag_at[v]

    def __repr__(self) -> str:
        return (f"TriangulatedProduct({self.n_vertices} vertices, "
                f"{self.n_edges} edges, {len(self.triangles)} triangles)")


def build_product(g: Multigraph, h: Multigraph,
                  policy: Optional[DiagonalPolicy] = None) -> TriangulatedProduct:
    """Triangulate G x H under the given diagonal policy (default standard)."""
    return TriangulatedProduct(g, h, policy or DiagonalPolicy.standard())


def alpha(tp: TriangulatedProduct, eid, v) -> int:
    """Weight alpha(edge, vertex); 0 when v is not an endpoint."""
    tp.edge_index(eid)
    tp.vertex_index(v)
    return tp._alpha.get((eid, v), 0)


def graph_star(tp: TriangulatedProduct, v) -> tuple:
    """All edges containing v, in the global edge order."""
    tp.vertex_index(v)
    return tp._star[v]


def edge_id_str(eid: tuple) -> str:
    """Canonical string form of a product edge id, for JSON keys.

    The parts are joined by ``:`` after escaping ``\\`` and ``:`` in the
    ``str`` of each, so two ids share a key only when their parts have
    pairwise equal ``str`` forms.  ``Multigraph`` refuses two vertex ids,
    or two edge ids, with equal ``str`` forms (such as 1 and "1"), so
    distinct edges of a product get distinct keys.
    """
    return ":".join(str(part).replace("\\", "\\\\").replace(":", "\\:") for part in eid)
