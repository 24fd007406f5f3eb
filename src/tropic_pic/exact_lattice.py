"""Exact integer matrix algebra: Hermite/Smith normal forms, kernels,
lattices, membership, congruence descriptions, intersections and
quotient group structure.

Everything here works over plain Python ints, which are arbitrary
precision, so no overflow is possible at any magnitude.  Every class of
the package but its errors and the namedtuples of ``product_complex``
is an immutable value class on ``ImmutableValue``: ``IntMatrix``,
``Lattice`` and ``AbGroup`` here, ``DiagonalPolicy`` in ``product_complex``,
and ``CellComplex`` in ``multigraph``, the base of ``Multigraph`` and
``TriangulatedProduct``, which holds their counts and index lookups.
Setting or deleting an attribute raises the module's error
(LatticeError here).  Equality and the hash read the fields, as a
frozen dataclass would, without the import of ``dataclasses`` that
each use of the package would pay; a ``TriangulatedProduct`` equals
only itself.  All functions are pure; a basis built lazily is cached,
so it never changes.  ``invariant_factors``, ``span_conditions``,
``cokernel`` and ``quotient`` take sparse rows or columns, sequences of
``(index, value)`` pairs (the terms of the condition format below),
whose repeated indices add up; ``hnf``, ``snf`` and ``kernel`` take a
dense ``IntMatrix``.  Indices and entries must be ints (``bool`` is
refused), and each input format has one check, run where it enters
from outside.  Sparse lines go through ``_checked_lines``, one pass
that tests them term by term, names the first line at fault where it
meets it and adds up repeated indices; ``transpose`` moves its lines in
a pass of its own and leaves it to ``_checked_lines`` to name a fault.
A condition set goes through ``checked_conditions`` and nothing else:
it tests each pair and modulus, hands the terms to ``_checked_lines``
and returns the set in its checked form, and ``satisfies``,
``condition_kernel`` and ``condition_matrix`` call it on any set not in
that form.  Lines and terms are read as iterating them reads them, so a
dict is read at its keys.  A dense vector, an ``IntMatrix``'s entries or
the v of ``mul_vec`` and ``lattice_member`` (and the divisors and PL
functions of ``divisor_theory``), goes through
``ImmutableValue._check_vector``, which takes a ``Sequence`` of n ints
and nothing else.  What this module built or checked is not checked
again: its matrices and lattices, sparse lines kept as ``_Lines``
(``transpose``'s, and the rows that ``quotient`` and
``invariant_factors`` write), and condition sets in the checked form,
which ``span_conditions`` writes, the products' memos keep and
``satisfies`` reads with one type test per sum.  On the query path
``satisfies`` tests v's container only, and a set it has read in full
often enough is compiled into one generated function, whose
straight-line sums skip the loop's tuple unpacking.

A ``Lattice`` is kept as its canonical basis columns, each the
``(row, value)`` pairs of its nonzero entries, or, when conditions cut
it out, in a small form until those columns are read.  Its dense basis
is built only when asked for, and the lattices this module builds skip
the check that a basis is canonical.

The inputs met in practice are very sparse with tiny coefficients, so
the cost is interpreter overhead, not arithmetic.  One echelon routine
is behind ``hnf``, ``snf`` and ``Lattice.from_matrix``.  It works on
column lists in place, runs each column operation over the nonzero
entries of its source column only, and carries a unimodular transform
only for ``hnf`` and ``snf``, which return one.  ``condition_kernel``,
behind ``kernel`` and ``lattice_intersect``, row-echelons dict rows
last column first, and only the rows whose pivot is not a unit go to
``hnf``, on the columns they touch.  Columns go in the reverse of the
order in which the conditions, read from the last one back, first name
them, so fill-in stays among nearby vertices.  Their kernel K is kt on
the columns they touch, numbered locally, and a unit vector per free
column, which no row touches.  A basis is read in the callers' order:
the rows are eliminated again in it on first read, and K is lifted
through the unit rows, with no dense matrix.  Membership solves run
over a lattice's sparse columns.  ``quotient`` solves in kt, writes
its witnesses and a generator's free entries straight into sparse
rows, and ``invariant_factors`` strips unit pivots from them,
one factor 1 each, under a cost cap that doubles (Dumas, Saunders and
Villard, J. Symbolic Comput. 32, 2001).  While what is left has a
content c > 1, it divides it by c and strips again, as SNF(c m) is
c SNF(m), and it runs ``snf`` once, on what is left at the end.  That
strip keeps no S; ``span_conditions`` runs the same strip carrying S,
each row's combination of the input rows, and composes it with the S
of ``snf`` on what is left, with no content step.  Within the package,
``snf`` runs on nothing else.

Linear conditions have one format, ``(terms, modulus)``: the sum of
c * v[i] over the ``(i, c)`` terms is 0, or 0 mod a modulus m > 0.
``span_conditions`` is its one writer, off the S above, for a matrix
given by sparse rows; ``lattice_intersect`` hands it the rows of each
lattice's basis columns, and ``span_conditions_in`` the rows at the
coordinates that fix a lattice cut out by equations, on which it cuts
out a sublattice.  ``satisfies`` and ``condition_matrix`` read
it, and ``condition_kernel`` returns the lattice in Z^width it cuts
out, which is how ``kernel`` and ``lattice_intersect`` build theirs.

Conventions
-----------
* HNF is column-style: ``hnf(m)`` returns ``(h, u)`` with ``h = m @ u``,
  ``u`` unimodular.  ``h`` is in canonical column echelon form: pivot
  rows strictly increase left to right, pivots are positive, the other
  entries in each pivot row are reduced into ``[0, pivot)``, and zero
  columns are pushed to the right.  Equal column spans give equal ``h``,
  so lattices compare by their canonical basis.
* SNF ``snf(m)`` returns ``(d, s)``, with ``d = s @ m @ t`` diagonal,
  nonnegative and ``d1 | d2 | ...`` for unimodular s and t; t is not
  built.  Passes over the columns and over the rows alternate until m
  is diagonal; a diagonal entry that does not divide the next gets the
  next row added to its row, and the passes resume.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence
from functools import cached_property
from itertools import chain, compress
from math import gcd


class LatticeError(ValueError):
    """Raised on precondition violations (dimension mismatch, non-sublattice)."""


def _with_article(name: str) -> str:
    """name after its indefinite article: "an IntMatrix", "a Lattice"."""
    return f"{'an' if name[0] in 'AEIOU' else 'a'} {name}"


class ImmutableValue:
    """Base of the immutable value classes: ``IntMatrix``, ``Lattice``,
    ``AbGroup``, ``DiagonalPolicy`` and ``CellComplex``, the base of
    ``Multigraph`` and ``TriangulatedProduct``.  ``_fields`` names what
    equality, the hash and the repr read, in order; an instance equals
    only one of its own class.  Setting or deleting an attribute raises
    ``_error``, which ``_check`` and ``_check_vector`` raise too.  It keeps an instance dict
    and declares no slots: constructors, ``cached_property``, pickle and
    ``copy`` write that dict directly, where they would set slots
    through ``__setattr__``."""

    _error = LatticeError

    @classmethod
    def _check(cls, *values) -> None:
        """Raise ``_error`` unless every value is a cls."""
        for value in values:
            if not isinstance(value, cls):
                raise cls._error(f"expected {_with_article(cls.__name__)}, "
                                 f"got {type(value).__name__}")

    @classmethod
    def _check_vector(cls, v, n: int, what: str, entry: str, per: str) -> None:
        """Raise ``_error`` unless v, called what, is a ``Sequence`` of n
        ints (a bool is not): one ``entry`` per ``per``."""
        if not (type(v) in (list, tuple) or isinstance(v, Sequence)):
            raise cls._error(f"{what} must be a sequence, got {type(v).__name__}")
        if len(v) != n:
            raise cls._error(f"{what} must have one {entry} per {per}")
        if not set(map(type, v)) <= {int}:
            i = next(i for i, x in enumerate(v) if type(x) is not int)
            raise cls._error(f"{what} {entry} at index {i} is not an integer: {v[i]!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __delattr__(self, name, verb="delete"):
        raise self._error(f"{_with_article(type(self).__name__)} is immutable: "
                          f"cannot {verb} {name!r}")

    def __setattr__(self, name, value):
        self.__delattr__(name, "set")

    def __eq__(self, other) -> bool:
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self._fields, self._key()))
        return f"{type(self).__qualname__}({fields})"


# ---------------------------------------------------------------------------
# IntMatrix
# ---------------------------------------------------------------------------

def _flat_from_cols(cols: Sequence[Sequence[int]]) -> tuple:
    """Row-major entries of the matrix with the given (equal-length) columns."""
    return tuple(chain.from_iterable(zip(*cols)))


def _check_index(i, n: int, what: str) -> None:
    """LatticeError unless i is an int (a bool is not), IndexError unless 0 <= i < n."""
    if type(i) is not int:
        raise LatticeError(f"a {what} index must be an int, got {i!r}")
    if not 0 <= i < n:
        raise IndexError(f"{what} {i} of a matrix with {n} {what}s")


class IntMatrix(ImmutableValue):
    """Immutable dense matrix of Python ints, given as the sequence of its
    rows * cols entries, row-major."""

    _fields = ("rows", "cols", "_e")

    def __init__(self, rows: int, cols: int, entries: Sequence[int]):
        if {type(rows), type(cols)} != {int} or rows < 0 or cols < 0:
            raise LatticeError(f"a matrix shape must be two ints >= 0, got {rows!r} x {cols!r}")
        self._check_vector(entries, rows * cols, f"{rows} x {cols} matrix", "entry", "cell")
        self.__dict__.update(rows=rows, cols=cols, _e=tuple(entries))

    # -- constructors ------------------------------------------------------

    @classmethod
    def _trusted(cls, rows: int, cols: int, e: tuple) -> "IntMatrix":
        """Wrap a row-major tuple of rows * cols ints built in this module,
        skipping the entry checks of ``__init__``."""
        m = object.__new__(cls)
        m.__dict__.update(rows=rows, cols=cols, _e=e)
        return m

    # -- access ------------------------------------------------------------

    def __getitem__(self, ij) -> int:
        if type(ij) is not tuple or len(ij) != 2:
            raise LatticeError(f"a matrix entry is read at an (int, int) key, got {ij!r}")
        i, j = ij
        _check_index(i, self.rows, "row")
        _check_index(j, self.cols, "column")
        return self._e[i * self.cols + j]

    def row(self, i: int) -> tuple:
        _check_index(i, self.rows, "row")
        return self._e[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        _check_index(j, self.cols, "column")
        return self._e[j::self.cols]

    def row_list(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def col_list(self) -> list:
        e, nc = self._e, self.cols
        return [list(e[j::nc]) for j in range(nc)]

    # -- algebra -----------------------------------------------------------

    def mul_vec(self, v: Sequence[int]) -> tuple:
        self._check_vector(v, self.cols, "vector", "entry", "column")
        out = []
        for i in range(self.rows):
            row = self._e[i * self.cols:(i + 1) * self.cols]
            out.append(sum(r * x for r, x in zip(row, v) if r))
        return tuple(out)

    def __repr__(self) -> str:
        return f"IntMatrix({self.row_list()!r})"


# ---------------------------------------------------------------------------
# Hermite normal form (column style)
# ---------------------------------------------------------------------------

def _nonzeros(col: list, start: int = 0) -> list:
    """``(index, value)`` pairs of the nonzero entries of col from start on."""
    return [(t, col[t]) for t in range(start, len(col)) if col[t]]


def _sub_nonzeros(dst: list, src: list, q: int) -> None:
    """dst -= q * src, with src given by its ``_nonzeros`` pairs."""
    for i, x in src:
        dst[i] -= q * x


def _echelon(cols: list, nr: int) -> list:
    """Bring the first nr rows of ``cols`` (columns as lists) to canonical
    column echelon form in place and return the pivot rows.

    Column operations act on whole columns, so entries below row nr ride
    along: ``hnf`` and ``snf`` track their transforms as the identity
    stacked under m.  Each operation starts at its source column's pivot
    row, because rows above it are zero in every column still being
    reduced, and an echelon column is zero above its own pivot.
    """
    nc = len(cols)
    r = 0
    pivots = []
    for i in range(nr):
        if r == nc:
            break
        # Reduce row i across columns r.. to a single nonzero entry.
        while True:
            nz = [j for j in range(r, nc) if cols[j][i]]
            if len(nz) <= 1:
                break
            # Smallest entry; among equals the sparsest column, for less fill-in.
            j0 = min(nz, key=lambda j: (abs(cols[j][i]), len(cols[j]) - cols[j].count(0)))
            p = cols[j0][i]
            src = _nonzeros(cols[j0], i)
            for j in nz:
                if j != j0:
                    q = cols[j][i] // p
                    if q:
                        _sub_nonzeros(cols[j], src, q)
        if nz:
            j = nz[0]
            if j != r:
                cols[j], cols[r] = cols[r], cols[j]
            if cols[r][i] < 0:
                cols[r] = [-x for x in cols[r]]
            pivots.append(i)
            r += 1
    # Canonical reduction: entries of earlier columns in each pivot row
    # go into [0, pivot).
    for k, p in enumerate(pivots):
        piv = cols[k][p]
        src = _nonzeros(cols[k], p)
        for j in range(k):
            q = cols[j][p] // piv
            if q:
                _sub_nonzeros(cols[j], src, q)
    return pivots


def _with_identity(lines: list) -> list:
    """Extend the n lists in place by the rows of the n x n identity, so
    that ``_echelon``'s operations on them also build the transform."""
    n = len(lines)
    for j, line in enumerate(lines):
        line += [0] * n
        line[len(line) - n + j] = 1
    return lines


def hnf(m: IntMatrix) -> tuple:
    """Column-style HNF: returns (h, u) with h = m @ u, u unimodular.

    The canonical form is deterministic, so two matrices have equal
    integer column spans iff their h parts agree (after dropping zero
    columns).
    """
    IntMatrix._check(m)
    nr, nc = m.rows, m.cols
    cols = _with_identity(m.col_list())
    _echelon(cols, nr)
    return (IntMatrix._trusted(nr, nc, _flat_from_cols([c[:nr] for c in cols])),
            IntMatrix._trusted(nc, nc, _flat_from_cols([c[nr:] for c in cols])))


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def snf(m: IntMatrix) -> tuple:
    """Smith normal form: (d, s) with d = s @ m @ t for some unimodular t.

    d is diagonal with nonnegative entries and d1 | d2 | ...; s is
    unimodular.  Column and row echelon passes alternate until m is
    diagonal (Kannan and Bachem, SIAM J. Comput. 8(4), 1979), S riding
    beside the rows.  Where a diagonal entry does not divide the next,
    the next row is added to its row and the passes resume, which
    replaces the pair by its gcd and lcm.  Within the package it runs
    only on what ``_strip_units`` leaves, for ``invariant_factors`` and
    ``span_conditions``.
    """
    IntMatrix._check(m)
    nr, nc = m.rows, m.cols
    cols = m.col_list()
    rows = _with_identity(m.row_list())  # m beside S
    while True:
        _echelon(cols, nr)
        rows = [[c[i] for c in cols] + r[nc:] for i, r in enumerate(rows)]
        # The column pass left m lower triangular with its zero columns
        # last, so m is diagonal when nothing is left below the diagonal.
        if any(any(r[:min(i, nc)]) for i, r in enumerate(rows)):
            _echelon(rows, nc)
        else:
            # Ascending order, zeros last, leaves few pairs to repair.
            k = min(nr, nc)
            order = sorted(range(k), key=lambda i: (not rows[i][i], rows[i][i]))
            perm = order + list(range(k, nc))
            rows = [[r[j] for j in perm] + r[nc:] for r in [rows[i] for i in order] + rows[k:]]
            i = next((i for i in range(1, k)
                      if rows[i - 1][i - 1] and rows[i][i] % rows[i - 1][i - 1]), None)
            if i is None:
                break
            rows[i - 1] = [a + b for a, b in zip(rows[i - 1], rows[i])]
        cols = [[r[j] for r in rows] for j in range(nc)]
    return (IntMatrix._trusted(nr, nc, tuple(chain.from_iterable(r[:nc] for r in rows))),
            IntMatrix._trusted(nr, nr, tuple(chain.from_iterable(r[nc:] for r in rows))))


def _strip_units(sparse_rows: Sequence, carry_s: bool = False) -> tuple:
    """(u, rest, s): u unit pivots eliminated from the sparse rows, the
    nonzero rows and columns left, dense, whose factors follow u ones,
    and, with carry_s, the S rows of rest's rows, then those of the rows
    the strip emptied, else None.

    Rows are dicts on a stack.  A row's pivot, its +-1 in the lowest
    column with the fewest rows, clears that column by row operations,
    which restack the rows they change, if its Markowitz cost (other
    nonzeros in its row times in its column) is at most a cap; the cap
    doubles when only dearer rows are left, so dear pivots come last.
    With carry_s, S rides along as one dict per row: row k -= f * row i
    also does s[k] -= f * s[i], so s[k] is row k's combination of the
    input rows.  A pivot row's column is clear, so column operations
    empty the rest of it without touching another row: it is one factor
    1, and its S row is no condition.
    """
    rows, at = [], defaultdict(set)  # at: column -> rows nonzero there
    for i, line in enumerate(_checked_lines(sparse_rows, "row")):
        d = {}
        for j, x in line:  # a line of _Lines may repeat an index
            d[j] = d.get(j, 0) + x
        rows.append({j: x for j, x in d.items() if x} if 0 in d.values() else d)
        for j in rows[i]:
            at[j].add(i)
    s = [{k: 1} for k in range(len(rows))] if carry_s else None

    stack, queued, deferred, limit = list(range(len(rows))), [True] * len(rows), [], 8
    units = 0
    while stack or deferred:
        if not stack:
            stack, deferred, limit = deferred, [], 2 * limit + 1
        pivot = rows[i := stack.pop()]
        best = min([(len(at[c]), c) for c, x in pivot.items() if x == 1 or x == -1], default=None)
        if best is None:
            queued[i] = False
            continue
        n, j = best
        if (len(pivot) - 1) * (n - 1) > limit:
            deferred.append(i)
            continue
        for k in at[j] - {i}:
            row = rows[k]
            f = row[j] * pivot[j]
            for c, x in pivot.items():
                if y := row.get(c, 0) - f * x:
                    row[c] = y
                    at[c].add(k)
                else:
                    del row[c]
                    at[c].discard(k)
            if s:
                _add_scaled(s[k], s[i], -f)
            if not queued[k]:
                queued[k] = True
                stack.append(k)
        for c in pivot:
            at[c].discard(i)
        rows[i] = None
        units += 1
    rest = [row for row in rows if row]
    keep = sorted(set().union(*rest))
    if carry_s:  # rest's rows, then the emptied ones; pivot rows are None
        s = ([s[k] for k, row in enumerate(rows) if row]
             + [s[k] for k, row in enumerate(rows) if row == {}])
    return units, IntMatrix._trusted(len(rest), len(keep),
                                     tuple(row.get(j, 0) for row in rest for j in keep)), s


def _add_scaled(dst: dict, src: dict, f: int) -> None:
    """dst += f * src on sparse dict rows, dropping the zeros."""
    for c, x in src.items():
        if y := dst.get(c, 0) + f * x:
            dst[c] = y
        else:
            dst.pop(c, None)


def invariant_factors(rows: Sequence) -> list:
    """Nonzero SNF diagonal of the matrix with these sparse rows, in
    divisibility order: one 1 per unit pivot stripped, then the rest's.

    SNF(c m) = c SNF(m), so while what the strip leaves has a content
    c > 1, it is divided by c and stripped again, as ``_Lines`` with no
    check, each pivot then a factor of the running scale, the product of
    the contents.  ``snf`` runs once, on what is left at the end: on
    Cn x Cn the strip leaves n times a block that strips to nothing."""
    units, rest, _ = _strip_units(rows)
    factors, scale = [1] * units, 1
    while rest._e and (c := gcd(*rest._e)) > 1:
        scale *= c
        units, rest, _ = _strip_units(_Lines._trusted(rest.cols, [
            [(j, x // c) for j, x in enumerate(rest.row(i)) if x] for i in range(rest.rows)]))
        factors += [scale] * units
    d, _ = snf(rest)
    return factors + [scale * x for x in (d[i, i] for i in range(min(d.rows, d.cols))) if x]


def span_conditions(rows: Sequence) -> tuple:
    """Congruences that cut out the integer column span of the matrix
    with these sparse rows, as ``(terms, modulus)`` pairs in the checked
    form (see ``checked_conditions``), which their readers take with no
    check: ``terms`` are the nonzero ``(index, c)`` entries of a row of
    S, and modulus 0 asks for an equation.

    S is the strip's, each row's combination of the input rows, composed
    with the S of ``snf`` on what is left, so that S m T is m's Smith
    form d, and v lies in the span iff (S v)_i is 0 mod d_i, and 0 where
    d_i is 0 or missing.  A pivot row is a factor 1 and gives no
    condition, and a row the strip empties gives the equation
    s_k . v = 0: a minimal set, one congruence per d_i > 1, its row
    reduced mod d_i, in divisibility order, then one equation per zero
    factor and emptied row.  S is unimodular, so its rows are primitive
    and no reduced row is zero or has a content to divide out.  The
    output depends on the rows as given, not only on their span, and
    equal rows give equal conditions.  The strip checked the rows, so
    each index lies in [0, len(rows)).
    """
    _, rest, s = _strip_units(rows, carry_s=True)
    d, s2 = snf(rest)
    out = []
    for i, row in enumerate(s):
        if (modulus := d[i, i] if i < min(d.rows, d.cols) else 0) == 1:
            continue
        if i < d.rows:  # a row of rest: S of snf composed with the strip's
            row = {}
            for f, s_row in zip(s2.row(i), s):
                _add_scaled(row, s_row, f)
        terms = [(j, x % modulus if modulus else x) for j, x in sorted(row.items())]
        out.append((tuple((j, x) for j, x in terms if x), modulus))
    return _Conditions._trusted(len(rows), out)


# ---------------------------------------------------------------------------
# Lattices
# ---------------------------------------------------------------------------

class Lattice(ImmutableValue):
    """Sublattice of Z^ambient_dim with a canonical HNF basis, kept as
    ``columns``: per basis column its nonzero ``(row, value)`` pairs in
    row order, the pivot first.  No column is zero, so their number is
    the rank, and two lattices are equal iff their columns are.  The
    constructor raises LatticeError on a dense basis not in canonical
    column echelon form, which membership and equality read.

    A lattice that ``condition_kernel`` cuts out keeps its small form
    ``_cut``: its conditions by column, the permutation that renumbers
    the columns, the unit rows, and the kernel K on the rest as the
    touched columns, kt on them in local indices, and the free columns,
    whose unit vectors K adds.  ``rank`` and ``quotient`` read kt; on
    first read, ``columns`` eliminates in the callers' order and lifts.
    """

    _fields = ("ambient_dim", "columns")
    columns = cached_property(lambda self: _lift(self.ambient_dim, *self._cut))

    def __init__(self, ambient_dim: int, basis: IntMatrix):
        if type(ambient_dim) is not int:
            raise LatticeError(f"ambient_dim must be an int, got {ambient_dim!r}")
        # The canonical basis of a lattice is unique, so a basis is
        # canonical iff echelonning it again leaves it as it is.
        if (lat := Lattice.from_matrix(basis)).basis != basis or basis.rows != ambient_dim:
            raise LatticeError(f"not a canonical basis with {ambient_dim} rows: {basis!r}")
        self.__dict__.update(lat.__dict__)

    @classmethod
    def _trusted(cls, ambient_dim: int, columns: tuple, cut: tuple = None) -> "Lattice":
        """A lattice on canonical columns built here, or on the small
        form ``cut`` of ``condition_kernel``: no check."""
        lat = object.__new__(cls)
        lat.__dict__.update(ambient_dim=ambient_dim, _cut=cut)
        if cut is None:
            lat.__dict__["columns"] = columns
        return lat

    @classmethod
    def from_matrix(cls, m: IntMatrix) -> "Lattice":
        IntMatrix._check(m)
        cols = m.col_list()
        pivots = _echelon(cols, m.rows)
        return cls._trusted(m.rows, tuple(tuple(_nonzeros(c, p)) for c, p in zip(cols, pivots)))

    @property
    def rank(self) -> int:
        return len(self._cut[4].columns) + len(self._cut[5]) if self._cut else len(self.columns)

    @cached_property
    def basis(self) -> IntMatrix:
        """The canonical basis as a dense matrix, one column per generator,
        built on first use."""
        n, r = self.ambient_dim, len(self.columns)
        flat = [0] * (n * r)
        for j, col in enumerate(self.columns):
            for i, c in col:
                flat[i * r + j] = c
        return IntMatrix._trusted(n, r, tuple(flat))


def condition_kernel(width: int, conditions: Sequence) -> Lattice:
    """The lattice in Z^width that the conditions cut out: the kernel of
    ``condition_matrix(width, conditions)``, on sparse rows, with the
    slack coordinates dropped.  A congruence's slack is fixed by x, so
    every nonzero kernel vector has its pivot in the first width rows,
    and the projection of the canonical basis is canonical.

    ``_eliminate`` runs with the x columns numbered in the reverse of the
    order in which the conditions, read from the last one back, first
    name them, slack columns last: as callers write the conditions one
    vertex at a time, a reverse Cuthill-McKee order (George and Liu,
    1981) from the last vertex.  Eliminating last column first then
    clears one vertex's columns after another, and a row combination
    fills in only nearby columns; the callers' edge order splits a
    vertex's edges into blocks, and at C48 x C48 leaves ``hnf`` 48 x 2306
    against 47 x 280.  Read from the first condition on, the order does
    the same at scale but more row work on small products.  ``_cut``
    keeps the permutation, and a basis is read in the callers' order.
    Most of K is unit vectors on free columns (2073 of 2306 at C48 x
    C48), so ``_cut`` keeps only the rest of K as a lattice, kt.
    """
    conditions = checked_conditions(width, conditions)
    n = width + sum(1 for _, modulus in conditions if modulus)
    perm = list(range(n))
    named = [i for terms, _ in reversed(conditions) for i, _ in terms]
    for t, i in enumerate(dict.fromkeys(chain(named, range(width)))):
        perm[i] = width - 1 - t
    rows, slack = {}, iter(range(width, n))
    reads = [[] for _ in range(n)]  # per renumbered column: its (condition, coefficient) pairs
    for r, (terms, modulus) in enumerate(conditions):
        row = rows[r] = {perm[i]: c for i, c in terms if c}
        if modulus:
            row[next(slack)] = modulus
        for j, c in row.items():
            reads[j].append((r, c))
    return Lattice._trusted(width, None, (reads, perm) + _eliminate(n, rows))


def _eliminate(n: int, rows: dict) -> tuple:
    """(units, touched, kt, free) of the dict rows over n columns, keyed
    by row number, which it changes in place.

    Dict rows go to row echelon form last column first, a column -> rows
    index naming the rows not yet placed; an empty column is skipped.  A
    row with pivot +-1 at d becomes units[d] itself, less its pivot and
    negated once if that is -1: x_d = -units[d] . x reads only columns
    before d.  The other rows, cleared of those unit columns, lie on S,
    the columns no unit row owns.  K, their kernel on S, is kt, the last
    columns of ``hnf``'s U on the sorted columns they touch, echelonned
    in local indices, and a unit vector per free column of S, which they
    do not touch.  ``_lift`` merges the two and lifts K one basis row at
    a time in ascending d.  The lift of K's canonical basis is canonical
    in this numbering: its pivots and reduced entries lie in S, and x_d
    is zero above K's first nonzero, as row_d reads only columns before
    d.
    """
    rows_at = [set() for _ in range(n)]
    for r, row in rows.items():
        for j in row:
            rows_at[j].add(r)
    units, rest = {}, []
    for j in range(n - 1, -1, -1):
        if not (at := rows_at[j]):
            continue
        while len(at) > 1:  # Euclid on column j, smallest entry (then sparsest row) first
            k = min(at, key=lambda r: (abs(rows[r][j]), len(rows[r]), r))
            p, pivot = rows[k][j], rows[k].items()  # r != k leaves rows[k] as it is
            for r in at - {k}:
                row = rows[r]
                q = row[j] // p  # not 0: p is the smallest
                for c, x in pivot:
                    if (y := row.get(c)) is None:
                        row[c] = -q * x
                        rows_at[c].add(r)
                    elif y := y - q * x:
                        row[c] = y
                    else:
                        del row[c]
                        rows_at[c].discard(r)
        row = rows[k := at.pop()]
        for c in row:
            rows_at[c].discard(k)
        if (p := row[j]) == 1 or p == -1:  # the row itself, less its pivot, negated if -1
            del row[j]
            if p == -1:
                for c in row:
                    row[c] = -row[c]
            units[j] = row
        else:
            rest.append(row)
    # Clear the unit columns off the rest rows, last first, as units[d]
    # adds only earlier ones; holders names the rows holding each.
    holders = defaultdict(list)
    for row in rest:
        for d in units.keys() & row:
            holders[d].append(row)
    for d in sorted(units, reverse=True):
        for row in holders.pop(d, ()):
            for c, x in units[d].items() if (f := row.pop(d)) else ():
                if c in units and c not in row:
                    holders[c].append(row)
                row[c] = row.get(c, 0) - f * x
    touched = sorted({c for row in rest for c, x in row.items() if x})
    _, u = hnf(IntMatrix._trusted(len(rest), len(touched),
                                 tuple(row.get(j, 0) for row in rest for j in touched)))
    ker = [list(u.col(j)) for j in range(len(rest), len(touched))]  # independent: u is unimodular
    kt = tuple(tuple(_nonzeros(y, p)) for y, p in zip(ker, _echelon(ker, len(touched))))
    return (units, touched, Lattice._trusted(len(touched), kt),
            sorted(set(range(n)).difference(units, touched)))


def _lift(width: int, reads: list, perm: list, units: dict, touched: list, kt: Lattice,
          free: list) -> tuple:
    """K's canonical columns lifted to Z^width by x_d = -units[d] . x at
    each unit column d (see ``condition_kernel``), column b from K's b;
    K (kt on touched, and free's unit vectors) and units taken again in
    the callers' order unless perm keeps it."""
    if perm != list(range(len(perm))):  # eliminate again, in the callers' order
        back, rows = sorted(range(len(perm)), key=perm.__getitem__), defaultdict(dict)
        for j, column in enumerate(reads):
            for r, c in column:
                rows[r][back[j]] = c
        units, touched, kt, free = _eliminate(len(perm), rows)
    # A unit vector's row is zero in every other column of K.
    k = sorted([tuple((touched[t], c) for t, c in y) for y in kt.columns]
               + [((j, 1),) for j in free])
    lifted = [{} for _ in range(width)]  # per coordinate: basis column -> entry
    for b, y in enumerate(k):
        for t, c in y:
            if t < width:  # slack coordinates are fixed by x
                lifted[t][b] = c
    columns = [[] for _ in k]
    for d, x in enumerate(lifted):
        for c, a in units.get(d, {}).items():
            for b, v in lifted[c].items():
                x[b] = x.get(b, 0) - a * v
        for b, c in x.items():
            if c:
                columns[b].append((d, c))
    return tuple(map(tuple, columns))


def kernel(m: IntMatrix) -> Lattice:
    """The saturated lattice {x in Z^cols : m @ x = 0}, from m's rows."""
    IntMatrix._check(m)
    return condition_kernel(m.cols, [(_nonzeros(m.row(i)), 0) for i in range(m.rows)])


def lattice_member(lat: Lattice, v: Sequence[int]) -> tuple:
    """(True, witness) when v = basis @ witness over Z, else (False, None)."""
    Lattice._check(lat)
    Lattice._check_vector(v, lat.ambient_dim, "vector", "entry", "coordinate")
    w, y = list(v), []
    for col in lat.columns:
        p, piv = col[0]
        q, r = divmod(w[p], piv) if w[p] else (0, 0)
        if r:
            return False, None
        if q:
            _sub_nonzeros(w, col, q)
        y.append(q)
    if any(w):
        return False, None
    return True, y


def lattice_contains(big: Lattice, small: Lattice) -> bool:
    Lattice._check(big, small)
    if big.ambient_dim != small.ambient_dim:
        raise LatticeError("ambient dimension mismatch")
    return all(lattice_member(big, [col.get(i, 0) for i in range(big.ambient_dim)])[0]
               for col in map(dict, small.columns))


def lattice_intersect(a: Lattice, b: Lattice) -> Lattice:
    """Intersection: the kernel of the congruences that cut out a and b,
    written off the rows of their basis columns."""
    Lattice._check(a, b)
    if a.ambient_dim != b.ambient_dim:
        raise LatticeError("ambient dimension mismatch")
    return condition_kernel(a.ambient_dim, span_conditions(transpose(a.columns, a.ambient_dim))
                            + span_conditions(transpose(b.columns, a.ambient_dim)))


def quotient(big: Lattice, gens: Sequence) -> "AbGroup":
    """Structure of big/L as a finitely generated abelian group, where L
    is spanned by the sparse columns ``gens``, shaped like
    ``Lattice.columns`` (repeated rows add up), which need not be a basis.

    Each column is written in coordinates of ``big``'s basis (a
    LatticeError if that fails, i.e. L is not a sublattice), and the
    quotient is the cokernel of the sparse coefficient rows.  Where big
    has a small form, a column meets the conditions that touch it, which
    fix its slack, and is written in K by its entries on S, its indices
    mapped through the form's permutation: the lift takes K's basis to
    a basis of big, which need not be the canonical one.  Its entries on
    the free columns are coordinates already, and kt solves for the rest;
    a generator with no entry on kt's columns, the touched block, has
    witness 0 there and is not solved.  Lines that ``transpose`` returned
    within big's dimension are read as pairs with no test, and the
    coefficient rows go to ``cokernel`` as ``_Lines``.
    """
    Lattice._check(big)
    n = big.ambient_dim
    # A basis has no condition, and every coordinate is touched.
    reads, perm, _, touched, kt, free = big._cut or ([()] * n, range(n), {}, range(n), big, ())
    local = dict(zip(touched, range(len(touched))))  # column -> kt-local index
    row_of = {p: len(kt.columns) + t for t, p in enumerate(free)}  # -> coefficient row, after kt's
    congruences = {r: (m, j) for j in range(n, len(perm)) for r, m in reads[j]}
    gens = _checked_lines(gens, "generator", n)
    coeff_rows = [[] for _ in range(big.rank)]
    for j, col in enumerate(gens):
        totals, v = {}, [0] * len(touched)
        for i, x in col:  # a repeated index adds up, here and in coeff_rows
            if not x:
                continue
            for r, c in reads[p := perm[i]]:
                totals[r] = totals.get(r, 0) + c * x
            if p in local:
                v[local[p]] += x
            elif p in row_of:
                coeff_rows[row_of[p]].append((j, x))
        if not congruences:  # every condition an equation
            ok = not any(totals.values())
        else:
            ok = True
            for r, total in totals.items():  # x's slack is -total / m; an equation's total is 0
                modulus, slack = congruences.get(r, (0, None))
                ok = ok and not (total % modulus if modulus else total)
                if slack in local:  # else a unit (modulus 1): only its own row reaches a slack
                    v[local[slack]] = -total // modulus
        ok, w = lattice_member(kt, v) if ok and any(v) else (ok, ())  # no entry on kt: w is 0
        if not ok:
            raise LatticeError(f"quotient: generator {j} is not in the first lattice")
        for t in compress(range(len(w)), w):
            coeff_rows[t].append((j, w[t]))
    return cokernel(_Lines._trusted(len(gens), coeff_rows))


def span_conditions_in(big: Lattice, rows: Sequence) -> tuple:
    """Congruences that, with the equations that cut out big, cut out L,
    the integer column span of the matrix with these sparse rows, one
    row per coordinate of big: the d in big whose entries on S lie in
    L's.  That is L when L lies in big, which is not tested.

    big must be kept in ``condition_kernel``'s small form, cut out by
    equations only.  S is the set of big's coordinates whose columns no
    unit row of that form owns, so that big's entries on S fix the
    rest: restriction to S is injective on big.  So d in big lies in L
    iff its entries on S lie in L's, which the ``span_conditions`` of
    L's rows at S cut out: one congruence per torsion factor of big / L,
    as Z^S / (big on S) is free, then |S| - rank L equations.  Their
    values at d in big, each taken mod its modulus, name d's class in
    big / L: they agree at d1 and d2 iff d1 - d2 lies in L.  The terms
    index big's coordinates, in the checked form.  The rows go through
    ``_checked_lines`` once, and LatticeError is raised unless there is
    one per coordinate and big is so kept."""
    Lattice._check(big)
    _, perm, units, *_ = big._cut or ((),) * 3
    if not len(rows := _checked_lines(rows, "row")) == len(perm) == big.ambient_dim:
        raise LatticeError("span_conditions_in needs a lattice cut out by equations only "
                           "and one row per coordinate")
    at = [i for i, p in enumerate(perm) if p not in units]  # S, ascending, so terms stay sorted
    return _Conditions._trusted(len(perm), [
        (tuple([(at[j], c) for j, c in terms]), modulus)
        for terms, modulus in span_conditions(_Lines._trusted(rows.bound, [rows[i] for i in at]))])


class _Checked(tuple):
    """A tuple of lines or conditions that this module checked or
    wrote, each index in it in [0, ``bound``), so that its readers here
    take it with no check: ``_Lines`` or ``_Conditions``.  It equals the
    plain tuple of its items."""

    @classmethod
    def _trusted(cls, bound: int, items) -> "_Checked":
        out = cls(items)
        out.bound = bound
        return out

    def __reduce__(self):  # a pickle or a copy keeps no read count and no compiled test
        return self._trusted, (self.bound, tuple(self))


class _Lines(_Checked):
    """Sparse lines of ``(index, int)`` pairs, which ``_checked_lines``
    returns as they are: its own, ``transpose``'s tuples, and the rows
    that ``quotient`` writes and ``invariant_factors`` divides.  A line
    of ``transpose``'s or ``quotient``'s may repeat an index, and the
    readers add them up."""


class _Conditions(_Checked):
    """Conditions in the checked form: ``(terms, modulus)`` pairs, the
    terms a tuple of ``(index, int)`` pairs with distinct indices and
    the modulus an int >= 0.  ``checked_conditions`` makes it and
    ``span_conditions`` writes it.  ``satisfies`` counts its full reads
    in ``reads`` and, on the ``_COMPILE_AFTER``-th, keeps ``_compiled``'s
    test of it in ``test``, which later reads call."""

    reads, test = 0, None


def transpose(lines: Sequence, n: int) -> tuple:
    """The n sparse lines across these, as tuples: ``(j, c)`` in i for
    ``(i, c)`` in j.  An n that is not an int >= 0 raises LatticeError,
    as do lines, or a line, with no length, and an index i outside
    [0, n), a term that is not a pair, or an index or value that is not
    an int (a bool is not), which ``_checked_lines`` names.  The types
    are tested term by term in the one pass that moves the terms, and
    the lines it returns are not tested again where the package reads
    them: ``quotient`` takes them as generators with only their bound,
    the number of lines given, held against its ambient dimension."""
    if type(n) is not int or n < 0:
        raise LatticeError(f"n must be an int >= 0, got {n!r}")
    out = [[] for _ in range(n)]
    try:
        size = len(lines)  # an iterator has none, nor has a line of one
        for j, line in enumerate(lines):
            len(line)
            for i, c in line:
                if type(i) is not int or type(c) is not int or i < 0:  # True would be row 1
                    raise TypeError
                out[i].append((j, c))
        return _Lines._trusted(size, map(tuple, out))
    except (IndexError, TypeError, ValueError):  # an i past the end of out; a term of three
        _checked_lines(lines, "line", n)  # names the fault
        raise


def _checked_lines(lines: Sequence, what: str, bound: float = float("inf")) -> tuple:
    """The lines as ``_Lines`` within bound: the one check of sparse
    lines.  LatticeError, which calls each line what, unless lines are
    an iterable with a length, each line has a length and each term is
    a pair of ints (no bool) with its index in [0, bound); one pass
    tests the terms one by one and names the first fault where it meets
    it.  Repeated indices add up in the order they first appear; a line
    that is a tuple of ``(int, int)`` tuples with distinct indices is
    kept as it is, and other lines are rebuilt as one.  A line is read
    as iterating it reads it, so a dict is read at its keys.  ``_Lines``
    within the bound are returned as they are, and their lines may
    repeat an index."""
    if type(lines) is _Lines and lines.bound <= bound:
        return lines
    if not (hasattr(lines, "__len__") and hasattr(lines, "__iter__")):
        raise LatticeError(f"{what}s must be a sequence, got {type(lines).__name__}")
    out = []
    try:
        for j, line in enumerate(lines):
            seen, kept, size = {}, type(line) is tuple, len(line)  # refuses an iterator
            for term in line:
                i, c = term
                if type(i) is not int or type(c) is not int or not 0 <= i < bound:
                    raise IndexError if type(i) is type(c) is int else TypeError
                seen[i] = seen.get(i, 0) + c
                if type(term) is not tuple:
                    kept = False
            out.append(line if kept and len(seen) == size else tuple(seen.items()))
    except IndexError:  # not ValueError, which a LatticeError is
        raise LatticeError(f"{what} {j}: index {i!r} is outside [0, {bound})") from None
    except (TypeError, ValueError):
        raise LatticeError(f"{what} {j} is no sequence of (int index, int value) pairs: "
                           f"{line!r}") from None
    return _Lines._trusted(bound, out)


def checked_conditions(width: int, conditions: Sequence) -> tuple:
    """The conditions in the checked form, which ``satisfies``,
    ``condition_kernel`` and ``condition_matrix`` read with no check: a
    tuple of ``(terms, modulus)`` pairs, each index in [0, width).  It is
    the one check of a condition set.  After each pair shape and
    modulus, the terms go through ``_checked_lines`` as lines called
    condition, which adds up repeated indices and keeps terms that are a
    tuple of ``(int, int)`` tuples with distinct indices as they are.
    Conditions in the checked form within width, as ``span_conditions``
    writes them, are returned as they are.  LatticeError unless width is
    an int >= 0, the conditions an iterable, and each condition a
    ``(terms, modulus)`` pair with an int modulus >= 0 and terms with a
    length of ``(int index, int value)`` pairs (no bool), each index in
    [0, width)."""
    if type(width) is not int or width < 0:
        raise LatticeError(f"condition width must be an int >= 0, got {width!r}")
    if type(conditions) is _Conditions and conditions.bound <= width:
        return conditions
    if not hasattr(conditions, "__iter__"):
        raise LatticeError(f"conditions must be an iterable, got {type(conditions).__name__}")
    conditions = list(conditions)
    try:
        for r, condition in enumerate(conditions):
            _, modulus = condition
            if type(modulus) is not int or modulus < 0:
                raise TypeError
    except (TypeError, ValueError):  # no pair with a modulus >= 0
        raise LatticeError(f"condition {r} is not a (terms, modulus) pair: {condition!r}") from None
    lines = _checked_lines([terms for terms, _ in conditions], "condition", width)
    return _Conditions._trusted(width, zip(lines, [modulus for _, modulus in conditions]))


def satisfies(conditions: Sequence, v: Sequence[int]) -> bool:
    """Whether v meets every ``(terms, modulus)`` condition: the sum of
    ``c * v[i]`` over terms is 0, or 0 mod the modulus when it is > 0.
    A v that is no ``Sequence``, tested as ``_check_vector`` tests it,
    raises LatticeError: a dict would be read at its keys, and a set
    not at all.

    Conditions in the checked form within len(v) (see
    ``checked_conditions``), as ``span_conditions`` and the products'
    memos hold them, are read with no check; any others go through
    ``checked_conditions(len(v), conditions)`` first, whose LatticeError
    refuses the whole set before v is read.  The conditions are then
    read in order up to the first that v fails, and v only at the
    indices their terms name, with one type test of each sum: a sum that
    is no int raises LatticeError, naming v's first entry that is no int
    among those the condition reads, or the terms if each is an int.

    A checked set that this loop has read in full ``_COMPILE_AFTER``
    times is hot, and from then on ``_compiled``'s straight-line test of
    it does the reading: the same sums in the same order, so the same
    answers.  Where that test meets a sum that is no int, the loop reads
    the set again from the start and names the fault.  A raw set is
    checked into a new object on each call, so it is never compiled.

    No entry of v is type-tested on its own, so a bool in v counts as
    its int.  This is the query path: its callers in ``divisor_theory``
    have checked v with ``_check_vector`` already, and a test of every
    entry would cost a pass over v per query, where the conditions up to
    the first one v fails may read few entries."""
    if not (type(v) in (list, tuple) or isinstance(v, Sequence)):
        raise LatticeError(f"v must be a sequence, got {type(v).__name__}")
    if type(conditions) is not _Conditions or conditions.bound > len(v):
        conditions = checked_conditions(len(v), conditions)
    if conditions.test is not None:
        try:
            return conditions.test(v)
        except TypeError:  # a sum that is no int: the loop names the fault
            pass
    try:
        for terms, modulus in conditions:
            s = 0
            for i, c in terms:
                s += c * v[i]
            if type(s) is not int:
                raise TypeError
            if s % modulus if modulus else s:
                return False
    except TypeError:  # an entry of v that is no int, or that makes no int
        i = next((i for i, _ in terms if not isinstance(v[i], int)), None)
        raise LatticeError(f"the terms {terms!r} sum to no int on v" if i is None else
                           f"v entry at index {i} is not an integer: {v[i]!r}") from None
    conditions.reads += 1
    if conditions.reads == _COMPILE_AFTER:
        conditions.test = _compiled(conditions)
    return True


# A checked set is compiled on its _COMPILE_AFTER-th full read.  One compile
# costs as much as 120-210 full loop reads of the same set (the balancing
# equations and Prin's congruences of K4 x C4 and Cn x Cn, n = 16, 32, 64;
# CPython 3.11), so by then the loop has spent more than the compile costs,
# and a set read a few times, as at the first query on a large product, is
# never compiled.
_COMPILE_AFTER = 500


def _compiled(conditions: _Conditions):
    """``satisfies``' loop over these conditions as one straight-line
    function of v: per condition, its sum written out, a TypeError
    unless the sum is an int, and False unless it is 0 (mod m).  Only
    the ints of the checked form go into the source.  None where a
    coefficient or modulus has too many digits to be written as a
    literal, or a sum too many terms to compile; that set stays on the
    loop."""
    lines, namespace = ["def test(v):"], {}
    try:
        for terms, modulus in conditions:
            lines += [" s = 0" + "".join([f" + ({c}) * v[{i}]" for i, c in terms]),
                      " if type(s) is not int: raise TypeError",
                      f" if s % {modulus}: return False" if modulus else " if s: return False"]
        exec("\n".join(lines + [" return True"]), namespace)
    except (ValueError, SyntaxError, RecursionError):  # int->str digit limit; a deep sum
        return None
    return namespace["test"]


def condition_matrix(width: int, conditions: Sequence) -> IntMatrix:
    """[A | diag(m > 0)]: the conditions as rows over ``width`` columns,
    plus one slack column holding m for each congruence with modulus m > 0.
    The terms of a row that share an index add up."""
    conditions = checked_conditions(width, conditions)
    total = width + sum(1 for _, modulus in conditions if modulus)
    flat, slack = [0] * (len(conditions) * total), width
    for r, (terms, modulus) in enumerate(conditions):
        base = r * total
        for i, c in terms:
            flat[base + i] = c
        if modulus:
            flat[base + slack] = modulus
            slack += 1
    return IntMatrix._trusted(len(conditions), total, tuple(flat))


# ---------------------------------------------------------------------------
# Finitely generated abelian groups
# ---------------------------------------------------------------------------

class AbGroup(ImmutableValue):
    """Z^free_rank + Z/d1 + ... with d1 | d2 | ..., each di >= 2."""

    _fields = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: tuple = ()):
        if type(free_rank) is not int:
            raise LatticeError(f"free rank must be an int, got {free_rank!r}")
        if not (isinstance(torsion, tuple) and set(map(type, torsion)) <= {int}):
            raise LatticeError(f"invariant factors must be a tuple of ints, got {torsion!r}")
        if free_rank < 0:
            raise LatticeError("negative free rank")
        prev = None
        for d in torsion:
            if d < 2:
                raise LatticeError("invariant factors must be >= 2")
            if prev is not None and d % prev != 0:
                raise LatticeError("invariant factors must form a divisibility chain")
            prev = d
        self.__dict__.update(free_rank=free_rank, torsion=torsion)

    @classmethod
    def free(cls, n: int) -> "AbGroup":
        return cls(n, ())

    @classmethod
    def direct_sum(cls, *groups: "AbGroup") -> "AbGroup":
        """Canonical form of a direct sum: the free ranks summed, and the
        torsion of ``cokernel`` of the summands' factors as a diagonal."""
        AbGroup._check(*groups)
        factors = [d for g in groups for d in g.torsion]
        return cls(sum(g.free_rank for g in groups),
                   cokernel([((i, d),) for i, d in enumerate(factors)]).torsion)

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def cokernel(rows: Sequence) -> AbGroup:
    """Structure of Z^len(rows) / the column span of these sparse rows."""
    factors = invariant_factors(rows)
    free_rank = len(rows) - len(factors)
    torsion = tuple(f for f in factors if f > 1)
    return AbGroup(free_rank, torsion)

