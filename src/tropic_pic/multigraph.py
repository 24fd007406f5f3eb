"""Loopless connected multigraphs and their divisor theory.

A divisor on a graph is an integer vector indexed by the vertex order.
The Laplacian here follows the convention with *negative* diagonal
(-deg on the diagonal, adjacency counts off it), so that column j is
exactly the divisor of the piecewise-linear function that is 1 on
vertex j and 0 elsewhere.

Graph text format (one item per line, ``#`` starts a comment)::

    v <vertex-id>
    e <edge-id> <endpoint> <endpoint>

Parallel edges are allowed (distinct edge ids, same endpoints); loops
and disconnected graphs are rejected at construction.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .exact_lattice import AbGroup, ImmutableValue, IntMatrix, cokernel


class GraphError(ValueError):
    """Invalid graph construction or query."""


class GraphParseError(GraphError):
    """Text-format parse failure.  A malformed line is named by number; a
    fault found once the text is read (a loop, a duplicate id, an unknown
    endpoint, a disconnected or empty graph) keeps ``Multigraph``'s message."""


def _sorted_ids(kind: str, items: list, key=None) -> list:
    """items sorted by id; a failure names the first two ids, in input order, that do."""
    try:
        return sorted(items, key=key)
    except (TypeError, ArithmeticError) as exc:
        reason = f"{kind} ids must be mutually comparable: {exc!r}"
    ids = list(map(key, items)) if key else items
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            try:
                (a < b, b < a)
            except (TypeError, ArithmeticError):
                raise GraphError(f"{reason} between {a!r} and {b!r}") from None
    raise GraphError(reason)


class CellComplex(ImmutableValue):
    """Ordered vertices and edges: each subclass's ``__init__`` sets
    ``vertices`` and the id -> position maps ``_vindex`` and ``_eindex``,
    which give the counts, and each subclass has its ``edges``.  An
    unknown id raises the subclass's ``_error``."""

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self._eindex)

    def vertex_index(self, v) -> int:
        try:
            return self._vindex[v]
        except (KeyError, TypeError):  # an unhashable id is no vertex
            raise self._error(f"unknown vertex {v!r}") from None

    def edge_index(self, eid) -> int:
        try:
            return self._eindex[eid]
        except (KeyError, TypeError):  # an unhashable id is no edge
            raise self._error(f"unknown edge {eid!r}") from None


class Multigraph(CellComplex):
    """Immutable loopless connected multigraph with ordered IDs.

    ``vertices`` is the fixed vertex order, ``edges`` the fixed edge
    order as (edge_id, u, w) triples; both are sorted by id at
    construction.  Ids must be hashable and mutually comparable, and no
    two vertex ids, or two edge ids, may have equal ``str`` forms.
    Graphs are equal when their vertices and edges are.  The lookups come
    from the base ``CellComplex``; setting or deleting an attribute
    raises GraphError.
    """

    _fields = ("vertices", "edges")
    _error = GraphError

    def __init__(self, vertices: Sequence, edges: Sequence):
        for name, arg in (("vertices", vertices), ("edges", edges)):
            if not isinstance(arg, Iterable):
                raise GraphError(f"{name} must be an iterable, got {arg!r}")
        es = []
        for e in edges:
            try:
                eid, u, w = e
            except (TypeError, ValueError):
                raise GraphError(f"edge {e!r} is not an (id, endpoint, endpoint) triple") from None
            es.append((eid, u, w))
        vs = _sorted_ids("vertex", list(vertices))
        es = _sorted_ids("edge", es, key=lambda t: t[0])
        for kind, ids in (("vertex", vs), ("edge", [e[0] for e in es])):
            seen, by_str = set(), {}
            for x in ids:
                try:
                    repeated = x in seen
                except TypeError:
                    raise GraphError(f"{kind} id {x!r} is not hashable") from None
                if repeated:
                    raise GraphError(f"duplicate {kind} id {x!r}")
                seen.add(x)
                # Product edge ids become JSON keys through the str of each id.
                y = by_str.setdefault(str(x), x)
                if y is not x:
                    raise GraphError(f"{kind} ids {y!r} and {x!r} have the same str form")
        vset = set(vs)
        for eid, u, w in es:
            if u == w:
                raise GraphError(f"loop edge {eid!r} at vertex {u!r}")
            try:
                unknown = u not in vset or w not in vset
            except TypeError:  # an unhashable endpoint is no vertex id
                unknown = True
            if unknown:
                raise GraphError(f"edge {eid!r} has unknown endpoint")
        adj = {v: [] for v in vs}
        for eid, u, w in es:
            adj[u].append((eid, w))
            adj[w].append((eid, u))
        self.__dict__.update(vertices=tuple(vs), edges=tuple(es),
                             _vindex={v: i for i, v in enumerate(vs)},
                             _eindex={e[0]: i for i, e in enumerate(es)},
                             _adj={v: tuple(n) for v, n in adj.items()})
        self._check_connected()

    def _check_connected(self):
        if not self.vertices:
            raise GraphError("empty vertex set")
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            v = stack.pop()
            for _, w in self._adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(self.vertices):
            raise GraphError("graph is not connected")

    # -- queries -----------------------------------------------------------

    def endpoints(self, eid) -> tuple:
        _, u, w = self.edges[self.edge_index(eid)]
        return u, w

    def _neighbours(self, v) -> tuple:
        """``(edge id, far endpoint)`` of each edge at v, in the global edge order."""
        try:
            return self._adj[v]
        except (KeyError, TypeError):
            raise GraphError(f"unknown vertex {v!r}") from None

    def degree(self, v) -> int:
        return len(self._neighbours(v))

    def incident_edges(self, v) -> tuple:
        """Edge ids at v, in the global edge order."""
        return tuple(eid for eid, _ in self._neighbours(v))

    def _simple_vertices(self) -> set:
        """The vertices at which no two edges share their far end."""
        return {v for v, adj in self._adj.items() if len({w for _, w in adj}) == len(adj)}

    def is_simple(self) -> bool:
        return len(self._simple_vertices()) == len(self.vertices)

    def __repr__(self) -> str:
        return f"Multigraph({self.n_vertices} vertices, {self.n_edges} edges)"


# ---------------------------------------------------------------------------
# Divisor-theoretic operations
# ---------------------------------------------------------------------------

def laplacian(g: Multigraph) -> IntMatrix:
    """Laplacian with -deg(v) on the diagonal, adjacency counts off it.

    Column j equals the divisor of the PL function that is 1 on vertex j
    and 0 elsewhere; every column sums to 0.
    """
    Multigraph._check(g)
    n = g.n_vertices
    flat = [0] * (n * n)
    for i, v in enumerate(g.vertices):
        flat[i * n + i] = -g.degree(v)
    for _, u, w in g.edges:
        i, j = g._vindex[u], g._vindex[w]
        flat[i * n + j] += 1
        flat[j * n + i] += 1
    return IntMatrix(n, n, flat)


def pic_group(g: Multigraph) -> AbGroup:
    """Pic(g) = Z^V / column span of the Laplacian.

    For connected g the free rank is 1 and the torsion part is the
    critical group, whose order is the spanning-tree count.
    """
    return cokernel([tuple(enumerate(row)) for row in laplacian(g).row_list()])


def critical_group(g: Multigraph) -> AbGroup:
    pic = pic_group(g)  # checks g
    return AbGroup(0, pic.torsion)


def genus(g: Multigraph) -> int:
    """|E| - |V| + 1: edges outside a spanning tree."""
    Multigraph._check(g)
    return g.n_edges - g.n_vertices + 1


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

def _check_size(n, what: str, least: int) -> None:
    """Raise GraphError unless n is an int (not a bool) of at least ``least``."""
    if type(n) is not int:
        raise GraphError(f"{what} must be an int, got {n!r}")
    if n < least:
        raise GraphError(f"{what} must be at least {least}, got {n}")


def path_graph(n_edges: int) -> Multigraph:
    """Path with n_edges edges (n_edges + 1 vertices)."""
    _check_size(n_edges, "path edge count", 1)
    verts = list(range(n_edges + 1))
    edges = [(f"e{i}", i, i + 1) for i in range(n_edges)]
    return Multigraph(verts, edges)


def cycle_graph(n: int) -> Multigraph:
    _check_size(n, "cycle vertex count", 3)
    verts = list(range(n))
    edges = [(f"e{i}", i, (i + 1) % n) for i in range(n)]
    return Multigraph(verts, edges)


def complete_graph(n: int) -> Multigraph:
    _check_size(n, "complete graph vertex count", 2)
    verts = list(range(n))
    edges = []
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            edges.append((f"e{k}", i, j))
            k += 1
    return Multigraph(verts, edges)


def theta_graph(n_edges: int) -> Multigraph:
    """Two vertices joined by n_edges parallel edges."""
    _check_size(n_edges, "theta graph edge count", 1)
    return Multigraph([0, 1], [(f"e{i}", 0, 1) for i in range(n_edges)])


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def parse_graph_text(text: str) -> Multigraph:
    """Parse the ``v``/``e`` line format; a malformed line's error names its
    number, and a graph that ``Multigraph`` refuses keeps its message."""
    if not isinstance(text, str):
        raise GraphParseError(f"graph text must be a str, got {type(text).__name__}")
    vertices = []
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "v":
            if len(parts) != 2:
                raise GraphParseError(f"line {lineno}: expected 'v <id>'")
            vertices.append(parts[1])
        elif parts[0] == "e":
            if len(parts) != 4:
                raise GraphParseError(f"line {lineno}: expected 'e <id> <u> <w>'")
            edges.append((parts[1], parts[2], parts[3]))
        else:
            raise GraphParseError(f"line {lineno}: unknown record {parts[0]!r}")
    try:
        return Multigraph(vertices, edges)
    except GraphError as exc:
        raise GraphParseError(str(exc)) from exc


def graph_to_text(g: Multigraph) -> str:
    Multigraph._check(g)
    lines = [f"v {v}" for v in g.vertices]
    lines.extend(f"e {eid} {u} {w}" for eid, u, w in g.edges)
    return "\n".join(lines) + "\n"
