"""Reference code that only the tests use: matrices from rows or columns,
a lattice from generators, the sparse rows and columns of a matrix, the
zero and identity matrices, the zero and full lattices, submatrices,
matrix product, Bareiss determinant and rank, the pivot rows of a dense
echelon matrix, Kirchhoff spanning-tree counts, random trees and
diagonal policies, a locally saturated product with parallel edges, the
pullbacks of the factors' vertices and of their Laplacians' columns, a
product's star at a vertex, a product edge's endpoints, the diagonals
at a vertex, a product's tables built eagerly in one pass over its
squares, a product's weights by a scan of its triangles, P's sparse
rows and the dense principal matrix written from that scan, the local
matrices cut from it and the local keys written out, the closed-form
local rank of a triangulated product, the congruences of a lattice off
the dense Smith form of a generating matrix, a check that per-vertex
congruences cut out each local lattice as the dense ones do, the local
saturation test with one invariant factor test per distinct star, the
balancing equations grouped through the factor graphs, the lattice that
conditions cut out as a dense kernel with its slack columns cut off
(Cart is the one of every congruence), ``satisfies`` by dense rows,
conditions with their terms added up in dicts, the
message that refuses a malformed condition set, the
basis a kernel's small form gives in its own column order, a lattice
cut by conditions restricted to its basis, a divisor's JSON by
``json.dumps``, the intersection of two lattices from the kernel of
their bases side by side, and the kernel by a dense row echelon of the
whole matrix."""

import heapq
import json
import random
from itertools import islice

from tropic_pic.divisor_theory import _cartier_conditions, _local_key
from tropic_pic.exact_lattice import (
    IntMatrix,
    Lattice,
    LatticeError,
    _echelon,
    _flat_from_cols,
    _lift,
    _nonzeros,
    _sub_nonzeros,
    condition_matrix,
    hnf,
    invariant_factors,
    snf,
)
from tropic_pic.multigraph import GraphError, Multigraph, laplacian
from tropic_pic.product_complex import (
    DiagonalPolicy,
    ProductEdge,
    Triangle,
    TriangulatedProduct,
    build_product,
    edge_id_str,
)


def from_rows(rows) -> IntMatrix:
    """The matrix with the given rows, which must have equal lengths."""
    nc = len(rows[0]) if rows else 0
    if any(len(r) != nc for r in rows):
        raise LatticeError("ragged rows")
    return IntMatrix(len(rows), nc, [x for r in rows for x in r])


def from_cols(cols, nrows=None) -> IntMatrix:
    """The matrix with the given columns, each of length nrows (by
    default the length of the first)."""
    if nrows is None:
        nrows = len(cols[0]) if cols else 0
    for c in cols:
        if len(c) != nrows:
            raise LatticeError(f"column of length {len(c)}, expected {nrows}")
    return IntMatrix(nrows, len(cols), _flat_from_cols(cols))


def from_generators(ambient_dim: int, gens) -> Lattice:
    """The lattice in Z^ambient_dim spanned by the generators."""
    return Lattice.from_matrix(from_cols(list(gens), nrows=ambient_dim))


def sparse_rows(m: IntMatrix) -> list:
    """Per row of m, the ``(column, value)`` pairs of its nonzero entries."""
    return [_nonzeros(m.row(i)) for i in range(m.rows)]


def sparse_columns(m: IntMatrix) -> list:
    """Per column of m, the ``(row, value)`` pairs of its nonzero entries."""
    return [_nonzeros(m.col(j)) for j in range(m.cols)]


def zeros(rows: int, cols: int) -> IntMatrix:
    """The rows x cols zero matrix."""
    return IntMatrix(rows, cols, [0] * (rows * cols))


def identity(n: int) -> IntMatrix:
    """The n x n identity matrix."""
    return IntMatrix(n, n, [int(i == j) for i in range(n) for j in range(n)])


def full_lattice(n: int) -> Lattice:
    """Z^n, with the identity as its basis."""
    return Lattice(n, identity(n))


def zero_lattice(n: int) -> Lattice:
    """The zero lattice in Z^n, spanned by no column."""
    return Lattice.from_matrix(zeros(n, 0))


def submatrix(m: IntMatrix, rows, cols) -> IntMatrix:
    """The entries of m at the given rows and columns, each index
    checked by ``IntMatrix.__getitem__``."""
    return IntMatrix(len(rows), len(cols), [m[i, j] for i in rows for j in cols])


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The matrix product a b."""
    if a.cols != b.rows:
        raise LatticeError("shape mismatch in product")
    cols = [b.col(j) for j in range(b.cols)]
    return IntMatrix(a.rows, b.cols, [sum(x * y for x, y in zip(a.row(i), c))
                                      for i in range(a.rows) for c in cols])


def det(m: IntMatrix) -> int:
    """Exact determinant by the Bareiss fraction-free algorithm."""
    if m.rows != m.cols:
        raise LatticeError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = m.row_list()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def rank(m: IntMatrix) -> int:
    """Rank over Q (equals rank over Z) via fraction-free elimination."""
    a = m.row_list()
    nr, nc = m.rows, m.cols
    r = 0
    prev = 1
    for c in range(nc):
        piv = None
        for i in range(r, nr):
            if a[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, nr):
            for j in range(c + 1, nc):
                a[i][j] = (a[i][j] * a[r][c] - a[i][c] * a[r][j]) // prev
            a[i][c] = 0
        prev = a[r][c]
        r += 1
        if r == nr:
            break
    return r


def echelon_pivots(h: IntMatrix) -> list:
    """Pivot rows of a column-echelon matrix, one per nonzero column, by a
    scan of its dense columns."""
    piv = []
    for j in range(h.cols):
        i = next((i for i, x in enumerate(h.col(j)) if x != 0), None)
        if i is None:
            break
        piv.append(i)
    return piv


def spanning_tree_count(g: Multigraph) -> int:
    """Kirchhoff count: any cofactor determinant of the Laplacian."""
    n = g.n_vertices
    if n == 1:
        return 1
    lap = laplacian(g)
    idx = list(range(1, n))
    return abs(det(submatrix(lap, idx, idx)))


def random_tree(n_vertices: int, seed: int) -> Multigraph:
    """Uniform random labeled tree on n_vertices vertices (Pruefer code)."""
    if n_vertices < 1:
        raise GraphError("tree needs at least one vertex")
    if n_vertices == 1:
        return Multigraph([0], [])
    if n_vertices == 2:
        return Multigraph([0, 1], [("e0", 0, 1)])
    rng = random.Random(seed)
    n = n_vertices
    prufer = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in prufer:
        degree[x] += 1
    edges = []
    k = 0
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    for x in prufer:
        leaf = heapq.heappop(leaves)
        edges.append((f"e{k}", leaf, x))
        k += 1
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((f"e{k}", u, w))
    return Multigraph(list(range(n)), edges)


def eager_product_tables(g: Multigraph, h: Multigraph, policy: DiagonalPolicy) -> tuple:
    """``(edges, triangles, squares, principal_rows)`` of G x H, each built
    in one eager pass over the squares, every table written as it goes:
    the reference for the product, which writes only what Pic and Cl
    read and builds ``edges`` and ``triangles`` on first read."""
    def ordered(graph):
        return {eid: (u, w) if graph.vertex_index(u) < graph.vertex_index(w) else (w, u)
                for eid, u, w in graph.edges}

    vi = {v: i for i, v in enumerate((a, b) for a in g.vertices for b in h.vertices)}
    g_ends, h_ends = ordered(g), ordered(h)
    edges = [ProductEdge(("h", ge, b), (u, b), (w, b), "horizontal")
             for ge, (u, w) in g_ends.items() for b in h.vertices]
    edges += [ProductEdge(("v", a, he), (a, u), (a, w), "vertical")
              for a in g.vertices for he, (u, w) in h_ends.items()]
    rows = {e.eid: {vi[e.u]: 0, vi[e.w]: 0} for e in edges}
    flips = dict(policy.choices or ())
    squares, triangles = [], []
    for ge, (umin, umax) in g_ends.items():
        for he, (bmin, bmax) in h_ends.items():
            flipped = flips.get((ge, he), False)
            ll, lr, ul, ur = (umin, bmin), (umax, bmin), (umin, bmax), (umax, bmax)
            bottom, top = ("h", ge, bmin), ("h", ge, bmax)
            left, right = ("v", umin, he), ("v", umax, he)
            if flipped:
                p, q = lr, ul
                halves = (((ll, lr, ul), bottom, left, ll), ((lr, ur, ul), right, top, ur))
            else:
                p, q = ll, ur
                halves = (((ll, lr, ur), bottom, right, lr), ((ll, ul, ur), left, top, ul))
            did = ("d", ge, he)
            squares.append((ge, he, flipped))
            edges.append(ProductEdge(did, p, q, "diagonal"))
            pi, qi = vi[p], vi[q]
            rows[did] = diagonal = {pi: -1, qi: -1}
            for verts, s1, s2, c in halves:
                triangles.append(Triangle(verts, (s1, s2, did), did))
                r1, r2, ci = rows[s1], rows[s2], vi[c]
                r1[ci] -= 1
                r2[ci] -= 1
                r1[qi] = r1.get(qi, 0) + 1
                r2[pi] = r2.get(pi, 0) + 1
                diagonal[ci] = 1
    return (tuple(edges), tuple(triangles), tuple(squares),
            tuple(tuple(sorted(rows[e.eid].items())) for e in edges))


def weights_by_triangle_scan(tp: TriangulatedProduct) -> tuple:
    """``(alpha, link counts)`` of tp from ``tp.edges`` and ``tp.triangles`` alone,
    as dicts keyed by ``(edge id, vertex)``.

    alpha is 1 at both ends of a diagonal and 0 at both ends of any other
    edge, plus 1 at an endpoint for each triangle on that edge whose
    diagonal avoids it; the link count of (edge, vertex) is the number of
    triangles on the edge with that opposite vertex.
    """
    ends = {e.eid: (e.u, e.w) for e in tp.edges}
    alpha = {}
    for e in tp.edges:
        alpha[(e.eid, e.u)] = alpha[(e.eid, e.w)] = int(e.kind == "diagonal")
    link_count = {}
    for tri in tp.triangles:
        diagonal_ends = set(ends[tri.diag])
        for eid in tri.edge_ids:
            eu, ew = ends[eid]
            opposite = next(v for v in tri.verts if v != eu and v != ew)
            link_count[(eid, opposite)] = link_count.get((eid, opposite), 0) + 1
            if eid != tri.diag:
                for v in (eu, ew):
                    if v not in diagonal_ends:
                        alpha[(eid, v)] += 1
    return alpha, link_count


def rows_from_weights(tp: TriangulatedProduct, alpha: dict, link_count: dict) -> tuple:
    """P's sparse rows in the format of ``principal_rows``, from alpha and
    link-count dicts keyed by ``(edge id, vertex)``."""
    rows = [{} for _ in tp.edges]
    for (eid, v), a in alpha.items():
        rows[tp.edge_index(eid)][tp.vertex_index(v)] = -a
    for (eid, v), mult in link_count.items():
        rows[tp.edge_index(eid)][tp.vertex_index(v)] = mult
    return tuple(tuple(sorted(row.items())) for row in rows)


def dense_principal_matrix(tp: TriangulatedProduct) -> IntMatrix:
    """The principal matrix, entry by entry into a dense |E| x |V| list
    from ``weights_by_triangle_scan``: -alpha(r, v) at the endpoints v of
    each edge r, then each link count at (edge, opposite vertex)."""
    ne, nv = tp.n_edges, tp.n_vertices
    flat = [0] * (ne * nv)
    alpha, link_count = weights_by_triangle_scan(tp)
    for (eid, v), a in alpha.items():
        flat[tp.edge_index(eid) * nv + tp.vertex_index(v)] = -a
    for (eid, v), mult in link_count.items():
        flat[tp.edge_index(eid) * nv + tp.vertex_index(v)] = mult
    return IntMatrix(ne, nv, flat)


def graph_star(tp: TriangulatedProduct, v) -> tuple:
    """All edges containing v, in the global edge order; ComplexError
    for a v that is no vertex of tp."""
    tp.vertex_index(v)
    return tp._star[v]


def ends(tp: TriangulatedProduct, eid) -> tuple:
    """The endpoints (u, w) of the product edge eid."""
    e = tp.edges[tp.edge_index(eid)]
    return e.u, e.w


def diagonals_at(tp: TriangulatedProduct, v) -> tuple:
    """The diagonal ids at v, in the global edge order."""
    return tuple(eid for eid in graph_star(tp, v) if eid[0] == "d")


def submatrix_local_matrix(tp: TriangulatedProduct, v) -> IntMatrix:
    """The local matrix at v cut from ``dense_principal_matrix``: the rows
    of the edges at v, the columns of the endpoints of those edges."""
    star = graph_star(tp, v)
    rows = [tp.edge_index(eid) for eid in star]
    closed_star = {u for eid in star for u in ends(tp, eid)}
    return submatrix(dense_principal_matrix(tp), rows, sorted(map(tp.vertex_index, closed_star)))


def local_key_matrix(tp: TriangulatedProduct, v) -> IntMatrix:
    """``_local_key`` at v written out: one row per edge at v, one column
    per vertex of its closed star, in the key's order."""
    key = _local_key(tp, v)
    width = len({j for row in key for j, _ in row})
    return from_rows([[dict(row).get(j, 0) for j in range(width)] for row in key])


def local_rank_expected(tp: TriangulatedProduct, v) -> int:
    """Rank of the local matrix: distinct far endpoints of diagonals at v, plus 2.

    The row of a diagonal depends only on the four corners of its
    square, so diagonals at v = (a, b) of squares over parallel edges
    that reach the same far vertex (a', b') have equal rows.  On simple
    factors every diagonal at v has its own far endpoint and the rank is
    the number of diagonals at v, plus 2.

    Over Q the left kernel of the local matrix is spanned by the
    balancing conditions at v (deg_G(a) + deg_H(b) - 2 rows) together
    with the differences e_d - e_d' of diagonals d, d' at v sharing a
    far endpoint.
    """
    far = {u for did in diagonals_at(tp, v) for u in ends(tp, did)} - {v}
    return len(far) + 2


def local_rank(tp: TriangulatedProduct, v) -> int:
    return rank(submatrix_local_matrix(tp, v))


def random_policy(g: Multigraph, h: Multigraph, seed: int) -> DiagonalPolicy:
    """Explicit policy with one seeded random flip per square, in square order."""
    rng = random.Random(seed)
    return DiagonalPolicy.explicit({(ge, he): bool(rng.getrandbits(1))
                                    for ge, *_ in g.edges for he, *_ in h.edges})


def saturated_multigraph_product() -> TriangulatedProduct:
    """A locally saturated product whose factor G has parallel edges:
    the triangle 0 - 2 - 1 = 0 with 0 - 1 doubled, times one edge, with
    only the square ("e2", "e0") flipped.  It has 6 vertices and 15
    edges, and Pic = Cl = Z^2 + Z/5."""
    g = Multigraph([0, 1, 2], [("e0", 0, 2), ("e1", 2, 1), ("e2", 0, 1), ("e3", 1, 0)])
    h = Multigraph([0, 1], [("e0", 1, 0)])
    return build_product(g, h, DiagonalPolicy.explicit(
        {(ge, "e0"): ge == "e2" for ge, *_ in g.edges}))


def factor_pullbacks(tp: TriangulatedProduct) -> tuple:
    """The pullbacks of the factors' vertices, as divisors: per vertex a
    of G, in G's order, pi_G^*(a), the sum of the vertical edges
    ("v", a, he); then per vertex b of H, pi_H^*(b), the sum of the
    horizontal edges ("h", ge, b)."""
    pull_g = {a: [0] * tp.n_edges for a in tp.g.vertices}
    pull_h = {b: [0] * tp.n_edges for b in tp.h.vertices}
    for i, e in enumerate(tp.edges):
        kind, x, y = e.eid
        if kind == "v":
            pull_g[x][i] = 1
        elif kind == "h":
            pull_h[y][i] = 1
    return [tuple(d) for d in pull_g.values()], [tuple(d) for d in pull_h.values()]


def pulled_back_laplacian_columns(graph: Multigraph, pullbacks) -> list:
    """Per column j of graph's Laplacian L, sum_a L[a, j] pullbacks[a]:
    the pullback of the principal divisor of a's indicator function."""
    lap = laplacian(graph)
    return [tuple(sum(lap[a, j] * d[k] for a, d in enumerate(pullbacks))
                  for k in range(len(pullbacks[0]))) for j in range(lap.cols)]


def dense_condition_kernel(width: int, conditions) -> Lattice:
    """The lattice in Z^width that the conditions cut out: the dense
    kernel of [A | diag(m > 0)], one slack column per congruence, its
    basis columns cut to the first width entries and passed to the
    checked ``Lattice`` constructor, which refuses a basis that is not
    canonical."""
    ker = dense_kernel(condition_matrix(width, conditions))
    return Lattice(width, from_cols([ker.basis.col(j)[:width] for j in range(ker.rank)], width))


def dense_satisfies(conditions, v):
    """``satisfies`` by dense rows: each condition's terms written out as a
    row over v's indices, then the dot product with v."""
    for terms, m in conditions:
        row = [0] * len(v)
        for i, c in terms:
            row[i] += c
        dot = sum(r * x for r, x in zip(row, v))
        if (dot % m if m else dot) != 0:
            return False
    return True


def lines_by_dicts(lines) -> tuple:
    """Each line's terms added up in a dict, index by index in the order
    they first appear, zeros kept, and written back as a tuple of
    ``(index, value)`` tuples: the lines that ``_checked_lines`` returns."""
    out = []
    for line in lines:
        summed = {}
        for i, c in line:
            summed[i] = summed.get(i, 0) + c
        out.append(tuple(summed.items()))
    return tuple(out)


def conditions_by_dicts(conditions) -> tuple:
    """The conditions with their terms added up by ``lines_by_dicts``,
    which is what ``checked_conditions`` returns."""
    return tuple(zip(lines_by_dicts([terms for terms, _ in conditions]),
                     [modulus for _, modulus in conditions]))


def line_fault(bound: float, lines: list, what: str):
    """The message with which a sparse-line entry refuses a list of
    lines, each called what, with indices bounded by bound, or None if
    it takes them: the first line with no length, or whose items, read
    in order, hold one that is no pair of ints (a bool is none) before
    one whose index is outside [0, bound).  A dict or a str is read as
    iterating it reads it, at its keys or characters."""
    for r, line in enumerate(lines):
        for term in line if hasattr(line, "__len__") else [None]:
            if type(term) not in (tuple, list) or len(term) != 2 \
                    or {type(term[0]), type(term[1])} != {int}:
                return f"{what} {r} is no sequence of (int index, int value) pairs: {line!r}"
            if not 0 <= term[0] < bound:
                return f"{what} {r}: index {term[0]} is outside [0, {bound})"
    return None


def condition_fault(width: int, conditions: list):
    """The message with which ``checked_conditions(width, conditions)``
    refuses a list of tuples, or None if it takes them.  The first tuple
    that is no pair with an int modulus >= 0 is named first; then the
    terms, as ``line_fault`` names them, each called condition."""
    for r, condition in enumerate(conditions):
        if len(condition) != 2 or type(condition[1]) is not int or condition[1] < 0:
            return f"condition {r} is not a (terms, modulus) pair: {condition!r}"
    return line_fault(width, [terms for terms, _ in conditions], "condition")


def ordered_kernel_basis(lat: Lattice) -> IntMatrix:
    """The basis that the small form of a ``condition_kernel`` lattice
    gives in its own column order: K lifted through the unit rows as it
    is (an identity perm makes ``_lift`` take them as they are), then
    each entry moved back to the callers' column.  It spans the lattice
    but need not be canonical."""
    reads, perm, units, touched, kt, free = lat._cut
    n = lat.ambient_dim
    back = {p: i for i, p in enumerate(perm[:n])}
    cols = [dict((back[d], c) for d, c in col)
            for col in _lift(n, reads, list(range(len(perm))), units, touched, kt, free)]
    return from_cols([[col.get(i, 0) for i in range(n)] for col in cols], n)


def congruence_kernel_cart(tp: TriangulatedProduct) -> Lattice:
    """Cart as one dense kernel over every vertex's local congruences."""
    return dense_condition_kernel(tp.n_edges, _cartier_conditions(tp))


def cut_by_restriction(lat: Lattice, conditions) -> Lattice:
    """The vectors of ``lat`` that meet every ``(terms, modulus)`` condition.

    With K the basis of lat, these are K y over the y that meet each
    condition restricted to K: its row times K, reduced mod its modulus.
    A restricted row that is zero holds on all of lat and is dropped;
    when none is left, lat itself is returned.  Otherwise the y are the
    dense kernel of [R | diag(m > 0)] cut to K's coordinates.
    """
    k = lat.rank
    rows = [[] for _ in range(lat.ambient_dim)]
    for j, col in enumerate(lat.columns):
        for i, c in col:
            rows[i].append((j, c))
    restricted = []
    for terms, modulus in conditions:
        acc = [0] * k
        for i, c in terms:
            _sub_nonzeros(acc, rows[i], -c)
        acc = [a % modulus for a in acc] if modulus else acc
        if any(acc):
            restricted.append((_nonzeros(acc), modulus))
    if not restricted:
        return lat
    ker = dense_kernel(condition_matrix(k, restricted))
    gens = [[0] * lat.ambient_dim for _ in range(ker.rank)]
    for x, y in zip(gens, ker.columns):
        for j, c in y:
            if j < k:
                _sub_nonzeros(x, lat.columns[j], -c)
    return from_generators(lat.ambient_dim, gens)


def dense_lattice_conditions(m: IntMatrix) -> list:
    """Congruences that cut out the integer column span of m, any
    generating matrix, in ``span_conditions``' format, off the dense
    Smith form of all of m, with no unit strip.

    With d = s @ m @ t the Smith form of m, v lies in the span iff
    (s v)_i is 0 mod d_i, and 0 where d_i is 0 or missing: one
    congruence per d_i > 1, its row reduced mod d_i, and one equation
    per zero or missing d_i.  ``snf``'s first column pass is canonical,
    so every generating matrix of a lattice gives the same conditions.
    """
    d, s = snf(m)
    out = []
    for i in range(m.rows):
        modulus = d[i, i] if i < m.cols else 0
        if modulus != 1:
            terms = ((j, x % modulus if modulus else x) for j, x in enumerate(s.row(i)))
            out.append((tuple((j, x) for j, x in terms if x), modulus))
    return out


def cuts_out_each_local_lattice(tp: TriangulatedProduct, conditions) -> bool:
    """Whether ``conditions``, written vertex by vertex in ``tp.vertices``
    order as ``_cartier_conditions`` writes them, cut out L_v at each v.

    The conditions at v are the next ones, as many as the dense oracle
    writes for L_v: ``dense_lattice_conditions`` of the canonical basis
    of ``submatrix_local_matrix``, a minimal set.  They must lie on v's
    star and, taken at their positions in it, cut out the same lattice
    as the oracle's, which must be L_v.  No condition may be left over.
    """
    rest = iter(conditions)
    for v in tp.vertices:
        star = graph_star(tp, v)
        position = {tp.edge_index(eid): t for t, eid in enumerate(star)}
        local = Lattice.from_matrix(submatrix_local_matrix(tp, v))
        dense = dense_lattice_conditions(local.basis)
        at_v = list(islice(rest, len(dense)))
        if len(at_v) < len(dense) or any(i not in position for terms, _ in at_v for i, _ in terms):
            return False
        ours = [(tuple((position[i], c) for i, c in terms), m) for terms, m in at_v]
        if not (dense_condition_kernel(len(star), ours) == dense_condition_kernel(len(star), dense)
                == local):
            return False
    return next(rest, None) is None


def locally_saturated_per_star(tp: TriangulatedProduct) -> bool:
    """Whether L_v = Q_v at every vertex, by one invariant factor test per
    distinct (local key, rank of Q_v), stopping at the first star that
    fails: rank_q invariant factors, all 1, on the key's sparse rows."""
    passed = set()
    for a, b in tp.vertices:
        rows = _local_key(tp, (a, b))
        rank_q = len(rows) - (tp.g.degree(a) - 1) - (tp.h.degree(b) - 1)
        if (key := (rows, rank_q)) not in passed:
            if invariant_factors(rows) != [1] * rank_q:
                return False
            passed.add(key)
    return True


def balancing_conditions_by_factor_edges(tp: TriangulatedProduct) -> tuple:
    """The balancing equations in the format and order of
    ``_balancing_conditions``, grouped through the factor graphs: at
    v = (a, b), per G-edge ge at a (in ``incident_edges`` order) the
    horizontal edge ("h", ge, b) and the diagonals at v over ge, then
    likewise per H-edge at b; the first group's sum in each block minus
    each later group's sum must vanish."""
    out = []
    for v in tp.vertices:
        a, b = v
        over_g, over_h = {}, {}
        for did in diagonals_at(tp, v):
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


def divisor_json_dumps(tp: TriangulatedProduct, d) -> str:
    """``json.dumps`` of the nonzero coefficients of d by edge-id key,
    keys sorted: the text ``divisor_to_json`` must write."""
    return json.dumps({edge_id_str(e.eid): c for e, c in zip(tp.edges, d) if c}, sort_keys=True)


def dense_intersection(a: Lattice, b: Lattice) -> Lattice:
    """a intersected with b, with A and B their bases: A y over the
    (y, z) in the dense kernel of [A | -B], as A y = B z."""
    n, ka, kb = a.ambient_dim, a.basis, b.basis
    stacked = from_cols(ka.col_list() + [[-x for x in col] for col in kb.col_list()], n)
    ker = dense_kernel(stacked)
    return from_generators(n, [ka.mul_vec(ker.basis.col(j)[:ka.cols]) for j in range(ker.rank)])


def dense_kernel(m: IntMatrix) -> Lattice:
    """The saturated lattice {x in Z^cols : m @ x = 0}, by a dense row
    echelon of all of m.

    m's rows go to canonical row echelon form, last column first.  A row
    with pivot 1 at column d gives x_d by earlier columns; after the
    canonical reduction its other entries, and all other rows, lie in S,
    the columns no unit row owns.  So x is y on S, y in the ``hnf``
    kernel of the other rows cut to S, and x_d = -row_d . y, lifted one
    basis column at a time.
    """
    n = m.cols
    rows = [list(m.row(i)[::-1]) for i in range(m.rows)]  # column n - 1 first
    pivots = _echelon(rows, n)
    units = {n - 1 - p: row for row, p in zip(rows, pivots) if row[p] == 1}
    rest = [row for row, p in zip(rows, pivots) if row[p] != 1]
    s = [j for j in range(n) if j not in units]
    _, u = hnf(IntMatrix(len(rest), len(s), [row[n - 1 - j] for row in rest for j in s]))
    small = from_generators(len(s), [u.col(j) for j in range(len(rest), len(s))])
    reads = [[] for _ in range(n)]  # per column j in S: (d, row_d[j]) of the unit rows
    for d, row in units.items():
        for p, c in _nonzeros(row, n - d):
            reads[n - 1 - p].append((d, c))
    columns = []
    for y in small.columns:
        x = {}
        for t, c in y:
            x[s[t]] = c
            for d, a in reads[s[t]]:
                x[d] = x.get(d, 0) - a * c
        columns.append(tuple(sorted((i, c) for i, c in x.items() if c)))
    return Lattice._trusted(n, tuple(columns))
