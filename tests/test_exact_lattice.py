"""Unit tests for the exact integer linear algebra core.

Independent oracles used here: brute-force small-coefficient membership
search, minor-gcd characterization of SNF diagonals, and sympy's normal
forms as a cross-implementation check.
"""

import copy
import pickle
import random
import re
import sys
from itertools import combinations, permutations, product
from math import gcd

import pytest
from sympy import Matrix as SymMatrix
from sympy.matrices.normalforms import smith_normal_form

from oracles import (
    cut_by_restriction,
    dense_condition_kernel,
    dense_kernel,
    dense_lattice_conditions,
    dense_satisfies,
    det,
    echelon_pivots,
    from_cols,
    from_generators,
    from_rows,
    full_lattice,
    identity,
    matmul,
    random_policy,
    rank,
    sparse_rows,
    submatrix,
    submatrix_local_matrix,
    zero_lattice,
    zeros,
)
from tropic_pic.exact_lattice import (
    AbGroup,
    IntMatrix,
    Lattice,
    LatticeError,
    checked_conditions,
    cokernel,
    hnf,
    invariant_factors,
    kernel,
    condition_kernel,
    condition_matrix,
    lattice_contains,
    lattice_intersect,
    lattice_member,
    quotient,
    satisfies,
    snf,
    span_conditions,
    span_conditions_in,
    transpose,
)
from tropic_pic import divisor_theory, exact_lattice
from tropic_pic.divisor_theory import (
    balancing_matrix,
    cart_lattice,
    cl,
    pic,
    prin_lattice,
    principal_matrix,
    qcart_lattice,
)
from tropic_pic.multigraph import GraphError, Multigraph, complete_graph, cycle_graph
from tropic_pic.product_complex import build_product


def random_matrix(rng, rows, cols, lo=-5, hi=5):
    return IntMatrix(rows, cols, [rng.randint(lo, hi) for _ in range(rows * cols)])


def gcd_of_maximal_minors(m, r):
    """gcd of all r x r minors; brute force, for small instances only."""
    g = 0
    for ri in combinations(range(m.rows), r):
        for ci in combinations(range(m.cols), r):
            g = gcd(g, det(submatrix(m, ri, ci)))
    return g


def brute_force_member(basis_cols, v, bound=4):
    """Search integer combinations with coefficients in [-bound, bound]."""
    k = len(basis_cols)
    n = len(v)
    for coeffs in product(range(-bound, bound + 1), repeat=k):
        vec = [sum(c * col[i] for c, col in zip(coeffs, basis_cols)) for i in range(n)]
        if vec == list(v):
            return True
    return False


# -- hnf ---------------------------------------------------------------------


def test_hnf_identity():
    m = identity(3)
    h, u = hnf(m)
    assert h == m
    assert u == m


def test_hnf_zero_matrix():
    m = zeros(2, 3)
    h, u = hnf(m)
    assert h == m
    assert abs(det(u)) == 1


def test_hnf_factorization_and_span():
    rng = random.Random(7)
    for _ in range(60):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        h, u = hnf(m)
        assert matmul(m, u) == h
        assert abs(det(u)) == 1
        # span equality by mutual membership
        lm = Lattice.from_matrix(m)
        lh = Lattice.from_matrix(h)
        assert lm == lh
        for j in range(m.cols):
            assert lattice_member(lh, m.col(j))[0]
            assert lattice_member(lm, h.col(j))[0]


def test_hnf_canonical_under_unimodular_change():
    # Same column span written with different generators gives the same h.
    m = from_rows([[2, 1], [0, 1]])
    shuffled = from_rows([[1, 2 + 3 * 1], [1, 3 * 1]])  # cols: c2, c1+3*c2
    assert Lattice.from_matrix(m) == Lattice.from_matrix(shuffled)


def test_hnf_example_from_contract():
    m = from_rows([[2, 1], [0, 1]])
    h, u = hnf(m)
    assert matmul(m, u) == h
    lat = Lattice.from_matrix(m)
    assert lattice_member(lat, (1, 1))[0]
    assert lattice_member(lat, (2, 0))[0]
    assert brute_force_member(m.col_list(), [2, 0])


def _shapes_and_matrices(rng):
    """Random matrices of every small shape, 0 rows and 0 columns included,
    many of them rank-deficient (sparse, or with repeated columns)."""
    for rows in range(6):
        for cols in range(6):
            for _ in range(6):
                m = random_matrix(rng, rows, cols)
                if rng.random() < 0.5:
                    keep = rng.random()
                    m = IntMatrix(rows, cols, [x if rng.random() < keep else 0 for x in m._e])
                if cols >= 2 and rng.random() < 0.3:
                    c = m.col_list()
                    c[-1] = [2 * x - y for x, y in zip(c[0], c[1])]
                    m = from_cols(c, nrows=rows)
                yield m


def test_from_matrix_equals_nonzero_hnf_columns():
    rng = random.Random(11)
    deficient = 0
    for m in _shapes_and_matrices(rng):
        h, _ = hnf(m)
        nonzero = [c for c in h.col_list() if any(c)]
        expected = Lattice(m.rows, from_cols(nonzero, nrows=m.rows))
        lat = Lattice.from_matrix(m)
        assert lat == expected
        assert (lat.basis.rows, lat.basis.cols) == (m.rows, len(nonzero))
        deficient += lat.rank < min(m.rows, m.cols)
    assert deficient >= 20


def check_sparse_form(lat):
    """lat's columns, pivots and rank agree with its dense basis, read by
    the dense pivot scan, and the checked constructor on that basis gives
    an equal lattice with the same hash."""
    b = lat.basis
    assert (b.rows, b.cols) == (lat.ambient_dim, lat.rank)
    assert [col[0][0] for col in lat.columns] == echelon_pivots(b)
    assert lat.columns == tuple(tuple((i, x) for i, x in enumerate(b.col(j)) if x)
                                for j in range(b.cols))
    direct = Lattice(lat.ambient_dim, b)
    assert direct == lat and hash(direct) == hash(lat) and direct.basis == b


def test_lattice_pivots_match_echelon_pivots():
    """The sparse form of lattices from every constructor agrees with the
    dense basis: pivots by the dense scan, rank, columns, and equality and
    hash with equality of the bases."""
    rng = random.Random(12)
    lattices = [Lattice.from_matrix(m) for m in _shapes_and_matrices(rng)]
    lattices += [kernel(m) for m in _kernel_inputs(random.Random(44))]
    cut = [condition_kernel(lat.ambient_dim, _random_conditions(rng, lat.ambient_dim))
           for lat in lattices[:150]]
    lattices += cut + [lattice_intersect(a, b) for a, b in zip(lattices[:150], cut)]
    lattices += [zero_lattice(n) for n in range(4)] + [full_lattice(n) for n in range(4)]
    for lat in lattices:
        check_sparse_form(lat)
    assert [col[0][0] for col in full_lattice(3).columns] == [0, 1, 2]
    assert [col[0][0] for col in zero_lattice(3).columns] == []
    # Equality and hash agree with equality of the dense bases.
    by_basis = {}
    for lat in lattices:
        by_basis.setdefault((lat.ambient_dim, lat.basis), []).append(lat)
    assert len(set(lattices)) == len(by_basis) < len(lattices)
    for same in by_basis.values():
        assert all(lat == same[0] and hash(lat) == hash(same[0]) for lat in same)
    firsts = [same[0] for same in by_basis.values()]
    assert all(a != b for i, a in enumerate(firsts) for b in firsts[i + 1:])


@pytest.mark.parametrize("build", [
    lambda: IntMatrix(1, 2, [1.7, True]),
    lambda: IntMatrix(1, 1, [True]),
    lambda: IntMatrix(1, 1, [2.0]),
    lambda: IntMatrix(1, 1, ["1"]),
    lambda: from_rows([[1, 2], [3, 4.5]]),
    lambda: from_cols([[1, False]]),
    lambda: IntMatrix(-1, -1, [1]),
    lambda: zeros(-1, 2),
    lambda: identity(-1),
    lambda: from_rows([[1], [2, 3], []]),  # 3 entries, as many as 3 x 1
    lambda: IntMatrix(1, 1, None),
    lambda: IntMatrix(1, 1, 5),
    lambda: IntMatrix(1.0, 1, [1]),
    lambda: IntMatrix(1, True, [1]),
    lambda: IntMatrix(1, 1, [1]).mul_vec([1.5]),
    lambda: IntMatrix(1, 1, [1]).mul_vec([True]),
    lambda: IntMatrix(1, 1, [1]).mul_vec([1, 2]),
])
def test_intmatrix_rejects_bad_entries_and_shapes(build):
    with pytest.raises(LatticeError):
        build()


def test_col_is_bounds_checked():
    m = from_rows([[1, 2], [3, 4], [5, 6]])
    assert m.col(1) == (2, 4, 6)
    for j in (-1, 2):
        with pytest.raises(IndexError):
            m.col(j)
    m = from_rows([[1, 2, 3], [4, 5, 6]])
    assert (m.row(1), m[1, 2]) == ((4, 5, 6), 6)
    for i in (-1, 2, 5):
        with pytest.raises(IndexError):
            m.row(i)
    for ij in ((0, 3), (0, -1), (2, 0), (-1, 0)):
        with pytest.raises(IndexError):
            m[ij]
    assert submatrix(m, [1, 0], [2, 0]) == from_rows([[6, 4], [3, 1]])
    for rows, cols in (([0], [3]), ([0], [-1]), ([2], [0]), ([-1], [0]), ([0, 5], [0, 1])):
        with pytest.raises(IndexError):
            submatrix(m, rows, cols)


@pytest.mark.parametrize("read, shown", [
    (lambda m: m[0], "0"),
    (lambda m: m["a"], "'a'"),
    (lambda m: m[0, 1, 2], "(0, 1, 2)"),
    (lambda m: m[1.5, 0], "1.5"),
    (lambda m: m[True, 0], "True"),        # it read row 1
    (lambda m: m[0, "1"], "'1'"),
    (lambda m: m.row(1.5), "1.5"),
    (lambda m: m.row(True), "True"),       # it read row 1
    (lambda m: m.col("x"), "'x'"),
    (lambda m: m.col(None), "None"),
])
def test_a_matrix_index_that_is_no_int_raises_lattice_error(read, shown):
    """Each raised a bare TypeError or ValueError, or read the wrong row;
    an int out of range keeps IndexError (above)."""
    with pytest.raises(LatticeError, match=re.escape(shown) + "$"):
        read(from_rows([[1, 2], [3, 4]]))


@pytest.mark.parametrize("ambient", [True, 2.0, "2", None])
def test_an_ambient_dim_that_is_no_int_raises_lattice_error(ambient):
    """``Lattice(True, m)`` and ``Lattice(2.0, m)`` were accepted."""
    message = f"^ambient_dim must be an int, got {re.escape(repr(ambient))}$"
    with pytest.raises(LatticeError, match=message):
        Lattice(ambient, identity(2))


# -- snf ---------------------------------------------------------------------


def test_snf_diag_2_3():
    d, s = snf(from_rows([[2, 0], [0, 3]]))
    assert [d[0, 0], d[1, 1]] == [1, 6]
    assert d[0, 1] == d[1, 0] == 0


def test_snf_zero():
    d, s = snf(zeros(2, 2))
    assert d == zeros(2, 2)


@pytest.fixture(scope="module")
def c6c6_pic_matrix():
    """Coordinates of Prin's basis in Cart's basis on C6 x C6.  Its first
    diagonal form has 2, 3 and 6 among unit entries; its SNF ends 6, 6."""
    tp = build_product(cycle_graph(6), cycle_graph(6))
    cart, prin = cart_lattice(tp), prin_lattice(tp)
    return from_cols([lattice_member(cart, prin.basis.col(j))[1]
                      for j in range(prin.rank)], nrows=cart.rank)


def _snf_inputs(rng, n_dense, c6c6_pic_matrix):
    """Dense random matrices up to 5 x 5, sparse ones up to 8 x 8 (some
    with 0 rows or 0 columns), diagonals out of divisibility order, and
    the C6 x C6 Pic quotient matrix."""
    for _ in range(n_dense):
        yield random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
    for _ in range(40):
        rows, cols = rng.randint(0, 8), rng.randint(0, 8)
        yield IntMatrix(rows, cols, [rng.randint(-9, 9) if rng.random() < 0.25 else 0
                                     for _ in range(rows * cols)])
    yield zeros(0, 3)
    yield zeros(4, 0)
    for diag in ((6, 4, 10), (3, 1), (0, 2), (0, 4, 0, 6)):
        n = len(diag)
        yield IntMatrix(n, n, [diag[i] if i == j else 0 for i in range(n) for j in range(n)])
    yield c6c6_pic_matrix


def test_snf_factorization_divisibility_unimodular(c6c6_pic_matrix, monkeypatch):
    rng = random.Random(11)
    for m in _snf_inputs(rng, 60, c6c6_pic_matrix):
        d, s = snf(m)
        # d = s m t for a unimodular t iff s m and d span one column lattice.
        assert Lattice.from_matrix(matmul(s, m)) == Lattice.from_matrix(d)
        assert abs(det(s)) == 1
        diag = [d[i, i] for i in range(min(d.rows, d.cols))]
        for i in range(d.rows):
            for j in range(d.cols):
                if i != j:
                    assert d[i, j] == 0
        for i, x in enumerate(diag):
            assert x >= 0
            if i and diag[i - 1]:
                assert x % diag[i - 1] == 0
            if i and diag[i - 1] == 0:
                assert x == 0
    # Sorting the diagonal before the divisibility repair: unsorted, the 6
    # of C6 x C6 moves past the unit entries one repair (three passes) at
    # a time, 18 echelon passes in all.
    passes = []
    echelon = exact_lattice._echelon
    monkeypatch.setattr(exact_lattice, "_echelon",
                        lambda cols, nr: passes.append(nr) or echelon(cols, nr))
    snf(c6c6_pic_matrix)
    assert len(passes) <= 6


def test_snf_minor_gcd_oracle():
    rng = random.Random(13)
    for _ in range(25):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), -4, 4)
        facs = invariant_factors(sparse_rows(m))
        r = len(facs)
        assert r == rank(m)
        if r:
            prod = 1
            for f in facs:
                prod *= f
            assert prod == gcd_of_maximal_minors(m, r)


def sympy_factors(m):
    sym = smith_normal_form(SymMatrix(m.row_list()))
    sym_diag = [int(sym[i, i]) for i in range(min(sym.rows, sym.cols))]
    return [abs(x) for x in sym_diag if x != 0]


def test_snf_matches_sympy(c6c6_pic_matrix):
    rng = random.Random(17)
    for m in _snf_inputs(rng, 20, c6c6_pic_matrix):
        assert invariant_factors(sparse_rows(m)) == sympy_factors(m)


def test_unit_stripping_matches_sympy():
    """Sparse matrices rich in +-1 entries, others with none, zero rows,
    and 0 rows or 0 columns."""
    rng = random.Random(29)
    cases = [zeros(0, 4), zeros(3, 0), zeros(0, 0),
             from_rows([[0, 0, 0], [1, -1, 2], [0, 0, 0]]), from_rows([[2, 4], [6, 3]])]
    for entries in ((1, -1, 1, -1, 2, -2, 3, 6), (2, -2, 3, 4, -6)):
        for _ in range(40):
            rows, cols = rng.randint(1, 9), rng.randint(1, 9)
            cases.append(IntMatrix(rows, cols, [rng.choice(entries) if rng.random() < 0.3 else 0
                                                for _ in range(rows * cols)]))
    stripped = left = 0
    for m in cases:
        units, rest, _ = exact_lattice._strip_units(sparse_rows(m))
        assert not {1, -1} & set(rest._e)
        assert all(any(rest.row(i)) for i in range(rest.rows))
        assert all(any(rest.col(j)) for j in range(rest.cols))
        stripped += units
        left += rest.rows > 0
        assert invariant_factors(sparse_rows(m)) == sympy_factors(m)
    assert stripped > 60 and left > 40


def _written_out(rng, m):
    """m's rows as sparse rows that add up to them: each nonzero entry
    split into two pairs on its column, one of them perhaps 0, some zero
    entries written as an explicit (column, 0) pair, in shuffled order."""
    rows = []
    for i in range(m.rows):
        terms = []
        for j, x in enumerate(m.row(i)):
            if x:
                part = rng.choice((0, 1, -1, x, 2 * x))
                terms += [(j, x - part), (j, part)]
            elif rng.random() < 0.5:
                terms.append((j, 0))
        rng.shuffle(terms)
        rows.append(tuple(terms))
    return rows


def test_sparse_rows_with_zero_pairs_repeated_columns_and_empty_rows():
    """Explicit zero pairs (P's rows keep one where alpha is 0), repeated
    columns, which add up as in ``condition_matrix``, empty rows and no
    rows at all: the invariant factors are those of the matrix the rows
    add up to, by sympy and by the dense ``snf``."""
    rng = random.Random(67)
    cases = [([], zeros(0, 0)), ([()], zeros(1, 0)), ([(), (), ()], zeros(3, 0)),
             ([((0, 0),)], zeros(1, 1)), ([((1, 0), (0, 2)), ()], from_rows([[2, 0], [0, 0]])),
             ([((0, 1), (0, 1))], from_rows([[2]])),
             ([((0, 3), (1, 1), (0, -3))], from_rows([[0, 1]])),
             ([((2, 0), (0, 1)), ((0, -1), (1, 0), (1, 0))], from_rows([[1, 0, 0], [-1, 0, 0]]))]
    for _ in range(80):
        m = IntMatrix(rows := rng.randint(0, 6), cols := rng.randint(0, 6),
                      [rng.choice((0, 0, 0, 1, -1, 2, 3, -4)) for _ in range(rows * cols)])
        cases.append((_written_out(rng, m), m))
    for sparse, m in cases:
        d, _ = snf(m)
        diagonal = [x for x in (d[i, i] for i in range(min(m.rows, m.cols))) if x]
        assert invariant_factors(sparse) == diagonal == sympy_factors(m)
        assert cokernel(sparse) == cokernel(sparse_rows(m))
        units, rest, _ = exact_lattice._strip_units(sparse)
        assert all(any(rest.row(i)) for i in range(rest.rows))
        assert all(any(rest.col(j)) for j in range(rest.cols))


def test_span_conditions_cut_out_the_column_span():
    """``span_conditions`` reads S off the strip and the rest's Smith
    form: on written-out sparse rows (zero pairs, repeated columns, empty
    rows), its conditions cut out the column span of the matrix they add
    up to, as the dense oracle's do, with the cokernel's torsion as
    moduli, in order, then one equation per free generator.  Only the
    strip run by ``span_conditions`` carries S."""
    rng = random.Random(73)
    cases = [([], zeros(0, 0)), ([(), ()], zeros(2, 0)),
             ([((0, 2),), ((0, 4),)], from_rows([[2], [4]]))]
    for _ in range(80):
        m = IntMatrix(rows := rng.randint(0, 7), cols := rng.randint(0, 5),
                      [rng.choice((0, 0, 0, 1, -1, 2, 3, -4)) for _ in range(rows * cols)])
        cases.append((_written_out(rng, m), m))
    moduli_seen = set()
    for sparse, m in cases:
        conditions = span_conditions(sparse)
        span = Lattice.from_matrix(m)
        assert condition_kernel(m.rows, conditions) == span \
            == condition_kernel(m.rows, dense_lattice_conditions(m))
        coker = cokernel(sparse)
        assert [q for _, q in conditions] == list(coker.torsion) + [0] * coker.free_rank
        assert all(terms for terms, _ in conditions)
        # The checked form: its bound is the number of rows, which the
        # stripped unit rows do not lower.
        assert conditions == checked_conditions(m.rows, conditions) == tuple(conditions)
        assert conditions.bound == m.rows
        moduli_seen.update(q for _, q in conditions)
    assert {0, 2, 3, 4} <= moduli_seen
    assert exact_lattice._strip_units(cases[-1][0])[2] is None


def test_span_conditions_in_cut_a_sublattice_out_of_an_equation_kernel():
    """``span_conditions_in`` reads L's rows at S, the coordinates that
    no unit row of big's small form owns.  With big's equations its
    conditions cut out L, a sublattice of big; they read S only; their
    moduli are the torsion of big / L, then |S| - rank L equations; and
    their values agree at two members of big iff these differ by an
    element of L."""
    rng = random.Random(36)
    for _ in range(80):
        width = rng.randint(1, 7)
        equations = [(row, 0) for row in sparse_rows(random_matrix(rng, rng.randint(0, 4),
                                                                   width, -2, 2))]
        big = condition_kernel(width, equations)
        mult = random_matrix(rng, big.rank, rng.randint(0, big.rank + 1), -3, 3)
        gens = from_cols([big.basis.mul_vec(mult.col(j)) for j in range(mult.cols)], width)
        small = Lattice.from_matrix(gens)
        conditions = span_conditions_in(big, sparse_rows(gens))
        assert checked_conditions(width, conditions) is conditions
        assert condition_kernel(width, equations + list(conditions)) == small
        _, perm, units, *_ = big._cut
        s = {i for i, p in enumerate(perm) if p not in units}
        assert {i for terms, _ in conditions for i, _ in terms} <= s
        assert [m for _, m in conditions] == (list(quotient(big, small.columns).torsion)
                                             + [0] * (len(s) - small.rank))

        def values(d):
            return [sum(c * d[i] for i, c in terms) % m if m else sum(c * d[i] for i, c in terms)
                    for terms, m in conditions]

        def member(lat):
            return lat.basis.mul_vec([rng.randint(-3, 3) for _ in range(lat.rank)])

        for _ in range(4):
            x, y = member(big), member(big) if rng.random() < 0.5 else member(small)
            d = [a + b for a, b in zip(x, y)]
            assert (values(d) == values(x)) == lattice_member(small, y)[0]


def test_span_conditions_in_refuses_what_it_cannot_read():
    big = condition_kernel(2, [(((0, 1), (1, -1)), 0)])
    with pytest.raises(LatticeError, match="^expected a Lattice, got tuple$"):
        span_conditions_in((), [(), ()])
    with pytest.raises(LatticeError, match="^rows must be a sequence, got int$"):
        span_conditions_in(big, 5)
    with pytest.raises(LatticeError, match=r"^row 1 is no sequence of \(int index, int value\) "):
        span_conditions_in(big, [((0, 1),), ((0, True),)])
    for lat, rows in ((big, [()]), (full_lattice(2), [(), ()]),
                      (condition_kernel(2, [(((0, 1),), 2)]), [(), ()])):
        with pytest.raises(LatticeError, match="needs a lattice cut out by equations only "
                                               "and one row per coordinate$"):
            span_conditions_in(lat, rows)


def test_conditions_past_their_width_are_checked_again():
    """A checked set within width is read as it is; past it, it is
    checked again, and refused where an index is out of range."""
    conditions = span_conditions([((0, 1),), ((0, 1),), ((0, 2),)])  # a unit row, stripped
    assert conditions.bound == 3 and max(i for terms, _ in conditions for i, _ in terms) == 2
    assert checked_conditions(4, conditions) is conditions
    with pytest.raises(LatticeError, match=r"^condition 1: index 2 is outside \[0, 2\)$"):
        condition_kernel(2, conditions)
    assert condition_kernel(3, conditions) == condition_kernel(3, list(conditions))


def test_unit_stripping_defers_dear_pivots_and_restacks_changed_rows():
    """Dense +-1 blocks, where every unit's Markowitz cost (at least 9)
    is over the starting cap of 8, so the cap has to double; rows whose
    only +-1 appears after one or two eliminations, in every row order;
    and P's rows of C8 x C8 and of K4 x C4 under a random policy (tall,
    with zero pairs).  Nothing of +-1 is left, and the factors are
    sympy's and the dense ``snf``'s."""
    rng = random.Random(71)
    cases = []
    for k in (4, 5, 6, 7):
        m = IntMatrix(k, k, [rng.choice((1, -1)) for _ in range(k * k)])
        cases.append((sparse_rows(m), m))
    # Row 1's only +-1 shows after row 0's pivot, row 2's after row 1's.
    hidden = [[1, 2, 0, 0], [2, 3, 2, 0], [0, 2, -3, 2]]
    for order in permutations(hidden):
        m = from_rows(list(order))
        cases.append((sparse_rows(m), m))
    k4, c4 = complete_graph(4), cycle_graph(4)
    for tp in (build_product(cycle_graph(8), cycle_graph(8)),
               build_product(k4, c4, random_policy(k4, c4, 3))):
        rows = tp.principal_rows
        assert any(c == 0 for row in rows for _, c in row)
        cases.append((rows, principal_matrix(tp)))
    for sparse, m in cases:
        units, rest, _ = exact_lattice._strip_units(sparse)
        assert units > 0 and not {1, -1} & set(rest._e)
        assert all(any(rest.row(i)) for i in range(rest.rows))
        assert all(any(rest.col(j)) for j in range(rest.cols))
        d, _ = snf(m)
        diagonal = [x for x in (d[i, i] for i in range(min(m.rows, m.cols))) if x]
        assert invariant_factors(sparse) == diagonal == sympy_factors(m)


def test_principal_rows_and_local_keys_keep_zero_pairs(mixed_products):
    """The sparse rows that Pic and the local test read, zero pairs and
    all, give the factors of the dense matrices cut from P."""
    zero_pairs = 0
    for tp in mixed_products:
        rows = tp.principal_rows
        zero_pairs += sum(c == 0 for row in rows for _, c in row)
        assert invariant_factors(rows) == invariant_factors(sparse_rows(principal_matrix(tp)))
        for v in tp.vertices:
            key = divisor_theory._local_key(tp, v)
            assert invariant_factors(key) == sympy_factors(submatrix_local_matrix(tp, v))
    assert zero_pairs > 0


@pytest.mark.parametrize("call", [
    lambda: invariant_factors([[1]]),  # a row of ints, not of pairs
    lambda: invariant_factors(None),
    lambda: invariant_factors(identity(2)),  # dense
    lambda: invariant_factors(iter([((0, 1),)])),  # not a sequence
    lambda: invariant_factors([iter([(0, 1)])]),  # a row that is no sequence
    lambda: invariant_factors([((0, 1, 2),)]),
    lambda: invariant_factors([((0, 1.0),)]),
    lambda: invariant_factors([((0, True),)]),
    lambda: invariant_factors([((0, 2), (0, True))]),  # a bool among repeated columns
    lambda: invariant_factors([((1, 2), (True, 3))]),  # a bool column that equals column 1
    lambda: invariant_factors([((False, 1),)]),
    lambda: invariant_factors([((0.0, 1),)]),
    lambda: invariant_factors([((-1, 1),)]),
    lambda: invariant_factors([((-1, 0),)]),  # a negative column, though its value is 0
    lambda: cokernel(None),
    lambda: cokernel([((0, "2"),)]),
    lambda: quotient(full_lattice(2), None),
    lambda: quotient(full_lattice(2), identity(2)),
    lambda: quotient(full_lattice(2), [((2, 1),)]),  # a row past the ambient dimension
    lambda: quotient(full_lattice(2), [((0, 1), (-1, 1))]),
    lambda: quotient(full_lattice(2), [((0, 1.5),)]),
    lambda: quotient(full_lattice(2), [((0, False),)]),
    lambda: lattice_member(full_lattice(2), None),
    lambda: lattice_member(full_lattice(2), 5),
    lambda: lattice_member(full_lattice(2), {0: 1, 1: 1}),
])
def test_sparse_entry_points_refuse_what_is_not_sparse_int_rows(call):
    with pytest.raises(LatticeError):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: invariant_factors([[(0, 1)], [(True, 1)]]), "row 1 is no sequence of"),
    (lambda: invariant_factors([((0, 2), (0, True))]), "row 0 is no sequence of"),
    (lambda: invariant_factors([((1, 2), (True, 3))]), "row 0 is no sequence of"),
    (lambda: invariant_factors([((0, 1),), ((-1, 0),)]), "row 1: index -1 is outside [0, inf)"),
    (lambda: invariant_factors([[1]]),
     "row 0 is no sequence of (int index, int value) pairs: [1]"),
    (lambda: invariant_factors([((0, 1),), iter([(0, 1)])]), "row 1 is no sequence of"),
    # A bool index in one line and the equal int in another: a set of
    # the lines' indices would keep only one of the two.
    (lambda: invariant_factors([[(0, 1)], [(False, 1)]]),
     "row 1 is no sequence of (int index, int value) pairs: [(False, 1)]"),
    (lambda: invariant_factors([[(1, 1)], [(True, 1)]]),
     "row 1 is no sequence of (int index, int value) pairs: [(True, 1)]"),
    (lambda: cokernel([[(0, 2)], [(False, 3)]]),
     "row 1 is no sequence of (int index, int value) pairs: [(False, 3)]"),
    (lambda: quotient(full_lattice(2), [[(0, 1)], [(False, 1)]]),
     "generator 1 is no sequence of (int index, int value) pairs: [(False, 1)]"),
    (lambda: invariant_factors(None), "rows must be a sequence, got NoneType"),
    (lambda: invariant_factors(iter([((0, 1),)])), "rows must be a sequence, got list_iterator"),
    (lambda: cokernel([((0, "2"),)]), "row 0 is no sequence of"),
    (lambda: quotient(full_lattice(2), None), "generators must be a sequence, got NoneType"),
    (lambda: quotient(full_lattice(2), [((0, 1),), ((2, 1),)]),
     "generator 1: index 2 is outside [0, 2)"),
    (lambda: quotient(full_lattice(2), [((0, 1.5),)]),
     "generator 0 is no sequence of (int index, int value) pairs: ((0, 1.5),)"),
    (lambda: transpose(None, 2), "lines must be a sequence, got NoneType"),
    (lambda: transpose(5, 2), "lines must be a sequence, got int"),
    (lambda: transpose(iter([[(0, 1)]]), 1), "lines must be a sequence, got list_iterator"),
    (lambda: transpose([iter([(0, 1)])], 1),
     "line 0 is no sequence of (int index, int value) pairs: <list_iterator"),
    # A length but no iteration: no sequence either.
    (lambda: invariant_factors(type("Sized", (), {"__len__": lambda self: 1})()),
     "rows must be a sequence, got Sized"),
    (lambda: transpose(type("Sized", (), {"__len__": lambda self: 1})(), 1),
     "lines must be a sequence, got Sized"),
])
def test_sparse_entry_points_name_the_line_and_term_at_fault(call, message):
    with pytest.raises(LatticeError, match="^" + re.escape(message)):
        call()


_EQUAL = condition_kernel(2, [(((0, 1), (1, -1)), 0)])  # x0 = x1, kept in its small form


@pytest.mark.parametrize("call, what", [
    (lambda lines: invariant_factors(lines), "row"),
    (lambda lines: span_conditions(lines), "row"),
    (lambda lines: cokernel(lines), "row"),
    (lambda lines: quotient(full_lattice(2), lines), "generator"),
    (lambda lines: span_conditions_in(_EQUAL, lines), "row"),
])
@pytest.mark.parametrize("before", [[], [[(0, 1), (0, 1)]]])  # alone, or beside a repeated index
def test_a_dict_line_is_refused_alone_and_beside_repeated_indices(call, what, before):
    """A dict is read at its keys, as ``transpose`` reads it, so {0: 1}
    is no line of pairs, whether or not another line in the same call
    repeats an index."""
    lines = before + [{0: 1}]
    with pytest.raises(LatticeError, match=f"^{what} {len(before)}" + re.escape(
            " is no sequence of (int index, int value) pairs: {0: 1}") + "$"):
        call(lines)


def test_invariant_factors_calls_snf_once(c6c6_pic_matrix, monkeypatch):
    calls = []
    real = exact_lattice.snf
    monkeypatch.setattr(exact_lattice, "snf", lambda m: calls.append(m) or real(m))
    for run in (lambda: invariant_factors(sparse_rows(c6c6_pic_matrix)),
                lambda: invariant_factors(sparse_rows(identity(4))), lambda: invariant_factors([]),
                lambda: cokernel([((0, 2),), ((1, 3),)]),
                lambda: AbGroup.direct_sum(AbGroup(0, (2,)), AbGroup(1, (3,)))):
        calls.clear()
        run()
        assert len(calls) == 1
    calls.clear()
    assert invariant_factors(sparse_rows(c6c6_pic_matrix))[-3:] == [1, 6, 6]
    # 33 unit pivots leave a 4 x 2 block with content 6, which strips to
    # nothing once divided by it: the 6 and 6 are the scale, and snf sees 0 x 0.
    assert (calls[0].rows, calls[0].cols) == (0, 0)


# -- kernel ------------------------------------------------------------------


def test_kernel_identity_is_zero():
    assert kernel(identity(3)).rank == 0


def test_kernel_row_of_ones():
    k = kernel(from_rows([[1, 1]]))
    assert k.rank == 1
    ok, _ = lattice_member(k, (1, -1))
    assert ok


def test_kernel_exactness_and_saturation():
    rng = random.Random(19)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        k = kernel(m)
        assert k.rank == m.cols - rank(m)
        for j in range(k.rank):
            assert all(x == 0 for x in m.mul_vec(k.basis.col(j)))
        # saturation: divide a combination by its content and stay inside
        if k.rank:
            coeffs = [rng.randint(-3, 3) for _ in range(k.rank)]
            x = k.basis.mul_vec(coeffs)
            scaled = [3 * v for v in x]
            assert lattice_member(k, scaled)[0]
            content = 0
            for v in x:
                content = gcd(content, v)
            if content > 1:
                assert lattice_member(k, [v // content for v in x])[0]


def check_kernel(m, k):
    """k is ker m, checked without ``kernel``: exact, of rank cols - rank m,
    saturated (every invariant factor of the basis is 1), and canonical."""
    assert (k.ambient_dim, k.basis.rows) == (m.cols, m.cols)
    assert matmul(m, k.basis) == zeros(m.rows, k.rank)
    assert k.rank == m.cols - rank(m)
    assert invariant_factors(sparse_rows(k.basis)) == [1] * k.rank
    assert Lattice.from_matrix(k.basis) == k == Lattice(m.cols, k.basis)
    assert [col[0][0] for col in k.columns] == echelon_pivots(k.basis)


def _kernel_inputs(rng):
    """Sparse random matrices rich in +-1 or with none, so that pivots are
    unit and not, some with a zero row or column, and 0 x n and n x 0."""
    yield from (zeros(0, 4), zeros(3, 0), zeros(0, 0),
                zeros(2, 3), from_rows([[2, 0, 1, 4]]), from_rows([[0, 3], [0, 6]]))
    for entries in ((1, -1, 1, -1, 2, -3, 4), (2, -2, 3, 4, -6)):
        for _ in range(60):
            rows, cols = rng.randint(1, 7), rng.randint(1, 9)
            m = [[rng.choice(entries) if rng.random() < 0.4 else 0 for _ in range(cols)]
                 for _ in range(rows)]
            if rng.random() < 0.3:
                m[rng.randrange(rows)] = [0] * cols
            if rng.random() < 0.3:
                j = rng.randrange(cols)
                for row in m:
                    row[j] = 0
            yield from_rows(m)


def test_kernel_is_exact_saturated_and_canonical(monkeypatch):
    """Through both parts of ``kernel``: the rows with a unit pivot, and
    the ``hnf`` kernel of the rows whose pivot is not a unit.  The shapes
    are those of the kernels' own ``hnf`` calls, made while they are
    built; reading a basis may eliminate again, in the callers' order."""
    shapes = []
    real = exact_lattice.hnf
    monkeypatch.setattr(exact_lattice, "hnf", lambda m: shapes.append((m.rows, m.cols)) or real(m))
    kernels = [(m, kernel(m)) for m in _kernel_inputs(random.Random(43))]
    assert len(shapes) == 126
    assert sum(rows > 0 for rows, _ in shapes) > 40
    assert sum(rows == 0 for rows, _ in shapes) > 40
    for m, k in kernels:
        check_kernel(m, k)
        assert k.columns == dense_kernel(m).columns


def test_kernel_of_product_matrices(mixed_products):
    products = [build_product(cycle_graph(n), cycle_graph(n)) for n in range(3, 9)]
    for tp in products + list(mixed_products):
        check_kernel(balancing_matrix(tp), kernel(balancing_matrix(tp)))
        b = balancing_matrix(tp)
        assert qcart_lattice(tp) == kernel(b) == dense_kernel(b)
    for tp in mixed_products:
        check_kernel(principal_matrix(tp), kernel(principal_matrix(tp)))


def test_c6c6_kernel_runs_one_small_hnf(monkeypatch):
    """Pic and Cl of a fresh C6 x C6 run one ``hnf``: the QCart kernel's,
    on the 6 balancing rows whose pivot is not a unit."""
    shapes = []
    real = exact_lattice.hnf
    monkeypatch.setattr(exact_lattice, "hnf", lambda m: shapes.append((m.rows, m.cols)) or real(m))
    tp = build_product(cycle_graph(6), cycle_graph(6))
    pic(tp)
    cl(tp)
    assert len(shapes) == 1 and shapes[0][0] <= 6


def test_c6c6_pic_and_cl_build_no_dense_balancing_matrix(monkeypatch):
    """QCart is taken on the balancing conditions' sparse rows, the local
    test on P's sparse rows at each star, and the quotient on P's sparse
    columns: no ``balancing_matrix``, ``condition_matrix`` or
    ``principal_matrix`` runs."""
    tp = build_product(cycle_graph(6), cycle_graph(6))
    dense = [(exact_lattice, "condition_matrix"), (divisor_theory, "condition_matrix"),
             (divisor_theory, "balancing_matrix"), (divisor_theory, "principal_matrix")]
    for module, name in dense:
        monkeypatch.setattr(module, name, lambda *args, name=name: pytest.fail(f"dense {name}"))
    assert pic(tp) == cl(tp) == AbGroup(3, (6, 6))


# -- membership ---------------------------------------------------------------


def test_member_trivial_examples():
    lat = from_generators(2, [(1, 1), (1, -1)])
    ok, w = lattice_member(lat, (2, 0))
    assert ok
    assert lat.basis.mul_vec(w) == (2, 0)

    lat2 = from_generators(2, [(2, 0)])
    assert lattice_member(lat2, (1, 0)) == (False, None)

    lat3 = from_generators(2, [(2, 0), (0, 2)])
    assert lattice_member(lat3, (2, 2))[0]


@pytest.mark.parametrize("v", [("a", 0), (2.0, 3.0), (True, 0), (1, None)])
def test_member_rejects_entries_that_are_not_ints(v):
    i = 1 if type(v[0]) is int else 0  # the first entry that is no int
    message = f"vector entry at index {i} is not an integer: {v[i]!r}"
    with pytest.raises(LatticeError, match="^" + re.escape(message) + "$"):
        lattice_member(from_generators(2, [(2, 0), (0, 3)]), v)


def test_member_against_brute_force():
    rng = random.Random(23)
    for _ in range(30):
        ncols = rng.randint(1, 3)
        gens = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(ncols)]
        lat = from_generators(4, gens)
        for _ in range(6):
            if rng.random() < 0.5:
                coeffs = [rng.randint(-4, 4) for _ in range(ncols)]
                v = [sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(4)]
            else:
                v = [rng.randint(-4, 4) for _ in range(4)]
            ok, w = lattice_member(lat, v)
            if ok:
                assert list(lat.basis.mul_vec(w)) == list(v)
            brute = brute_force_member(gens, v)
            if brute:
                assert ok
            if not ok:
                assert not brute


def test_member_witness_on_built_and_direct_lattices():
    """A lattice built by the checked constructor and one built by
    ``from_generators`` have the same columns, and both give witnesses
    with basis @ w == v."""
    rng = random.Random(41)
    non_members = 0
    for _ in range(40):
        n = rng.randint(1, 3)
        gens = [[rng.choice((0, 0, 1, -1, 2, 3)) for _ in range(n)] for _ in range(rng.randint(0, 3))]
        built = from_generators(n, gens)
        direct = Lattice(n, built.basis)
        for lat in (built, direct):
            for _ in range(6):
                coeffs = [rng.randint(-3, 3) for _ in gens]
                v = [sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(n)]
                ok, w = lattice_member(lat, v)
                assert ok and list(lat.basis.mul_vec(w)) == v
                x = [rng.randint(-3, 3) for _ in range(n)]
                ok, w = lattice_member(lat, x)
                if ok:
                    assert list(lat.basis.mul_vec(w)) == x
                else:
                    assert w is None and not brute_force_member(gens, x)
                    non_members += 1
        assert direct.columns == built.columns
    assert non_members > 20
    assert lattice_member(Lattice(2, from_rows([[2, 0], [1, 3]])), (1, 0)) == (False, None)
    assert lattice_member(Lattice(2, from_rows([[2, 0], [1, 3]])), (2, 4)) == (True, [1, 1])


def _random_conditions(rng, n):
    """Up to three conditions over n indices: sparse terms with small
    coefficients, some empty, and moduli 0 (an equation) or 2 to 4."""
    return [(tuple((i, rng.choice((-3, -2, -1, 1, 2, 3)))
                   for i in range(n) if rng.random() < 0.5),
             rng.choice((0, 0, 2, 3, 4)))
            for _ in range(rng.randint(0, 3))]


def test_conditions_worked_examples():
    # The dense oracle on the basis, and ``span_conditions`` on its rows.
    for write in (lambda lat: dense_lattice_conditions(lat.basis),
                  lambda lat: list(span_conditions(transpose(lat.columns, lat.ambient_dim)))):
        # The Smith form is diag(1, 6): one congruence, 3 v0 + 4 v1 = 0
        # mod 6, which is v0 even and v1 a multiple of 3.
        assert write(from_generators(2, [(2, 0), (0, 3)])) == [(((0, 3), (1, 4)), 6)]
        # (2, 1) is saturated though its HNF pivot is 2: the equation
        # v0 = 2 v1 alone, and no congruence mod 2.
        assert write(from_generators(2, [(2, 1)])) == [(((0, 1), (1, -2)), 0)]
        assert write(full_lattice(3)) == []
        assert write(zero_lattice(2)) == [(((0, 1),), 0), (((1, 1),), 0)]


def test_conditions_match_membership():
    """The conditions, from the dense oracle and from ``span_conditions``
    on the sparse rows, cut out the column span of any generating matrix,
    its canonical basis or the raw generators with their dependent and
    zero columns, and they are minimal: one congruence per invariant
    factor above 1, one equation per missing rank, and no congruence on
    a saturated lattice whose HNF has a pivot above 1."""
    rng = random.Random(53)
    saw_big_pivot = saw_deficient = saw_torsion = saw_dependent = False
    for _ in range(60):
        n = rng.randint(1, 3)
        gens = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(0, n + 1))]
        lat = from_generators(n, gens)
        saw_deficient |= lat.rank < n
        saw_dependent |= lat.rank < len(gens)
        # the first nonzero entry of an echelon column is its pivot
        saw_big_pivot |= any(col[0][1] > 1 for col in lat.columns)
        for conditions in (writer(m) for m in (lat.basis, from_cols(gens, n))
                           for writer in (dense_lattice_conditions,
                                          lambda m: span_conditions(sparse_rows(m)))):
            for terms, modulus in conditions:
                indices = [i for i, _ in terms]
                assert indices == sorted(set(indices)) and set(indices) <= set(range(n))
                assert terms and all(c for _, c in terms) and modulus != 1
            moduli = sorted(modulus for _, modulus in conditions if modulus)
            assert moduli == [f for f in sympy_factors(lat.basis) if f > 1]
            assert sum(1 for _, modulus in conditions if not modulus) == n - lat.rank
            saw_torsion |= bool(moduli)
            for v in product(range(-4, 5), repeat=n):
                assert satisfies(conditions, v) == dense_satisfies(conditions, v)
                assert satisfies(conditions, v) == lattice_member(lat, v)[0]
    assert saw_big_pivot and saw_deficient and saw_torsion and saw_dependent


def test_condition_matrix_kernel_is_what_the_conditions_cut_out():
    rng = random.Random(59)
    for _ in range(40):
        n = rng.randint(1, 3)
        conditions = _random_conditions(rng, n)
        m = condition_matrix(n, conditions)
        assert (m.rows, m.cols) == (len(conditions), n + sum(1 for _, q in conditions if q))
        assert kernel(m) == dense_kernel(m)
        cut = condition_kernel(n, conditions)
        assert cut.ambient_dim == n and cut == dense_condition_kernel(n, conditions)
        for v in product(range(-4, 5), repeat=n):
            assert lattice_member(cut, v)[0] == dense_satisfies(conditions, v)


def test_lattice_cut_by_conditions_against_membership():
    """v lies in lat intersected with the kernel of the conditions iff v
    lies in lat and meets them, and that lattice is lat cut by the
    conditions restricted to its basis."""
    rng = random.Random(61)
    uncut = smaller = 0
    for _ in range(80):
        n = rng.randint(1, 3)
        gens = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n + 1))]
        lat = from_generators(n, gens)
        conditions = _random_conditions(rng, n)
        cut = lattice_intersect(lat, condition_kernel(n, conditions))
        assert cut == cut_by_restriction(lat, conditions)
        uncut += cut == lat
        smaller += cut != lat
        for v in product(range(-4, 5), repeat=n):
            assert lattice_member(cut, v)[0] == (lattice_member(lat, v)[0]
                                                 and dense_satisfies(conditions, v))
    assert uncut > 10 and smaller > 10
    assert condition_kernel(2, [(((0, 2), (1, 4)), 2)]) == full_lattice(2)
    assert condition_kernel(2, [(((0, 1), (1, 1)), 2)]) == from_generators(2, [(1, 1), (0, 2)])


@pytest.mark.parametrize("terms", [((-1, 1),), ((2, 1),), ((0, 1), (5, 1))])
def test_condition_indices_outside_the_width_are_refused(terms):
    conditions = [(terms, 0), (((0, 1),), 0)]
    bad = next(i for i, _ in terms if not 0 <= i < 2)
    message = f"^condition 0: index {bad} is outside \\[0, 2\\)$"
    with pytest.raises(LatticeError, match=message):
        condition_matrix(2, conditions)
    with pytest.raises(LatticeError, match=message):
        condition_kernel(2, conditions)
    with pytest.raises(LatticeError, match=message):
        satisfies(conditions, (0, 5))


@pytest.mark.parametrize("width, conditions", [
    (-1, []),
    (2.0, []),
    (2, [(((0, 1),), -2)]),
    (2, [(((0, 1),), 2.0)]),
    (2, [(((0, 1.5),), 0)]),
    (2, [(((0, True),), 0)]),
    (2, [(((True, 1),), 0)]),
])
def test_condition_matrix_refuses_bad_widths_coefficients_and_moduli(width, conditions):
    with pytest.raises(LatticeError):
        condition_matrix(width, conditions)


_NO_TERMS = " is no sequence of (int index, int value) pairs: "


@pytest.mark.parametrize("conditions, bad", [
    ([((0, 1), 0)], "condition 0" + _NO_TERMS + "(0, 1)"),  # terms not a tuple of pairs
    ([(((0, 1),), 0), (((0, 1, 2),), 0)], "condition 1" + _NO_TERMS + "((0, 1, 2),)"),
    ([(((0, 1),), 0), 5], "condition 1 is not a (terms, modulus) pair: 5"),  # no pair
    ([(((0, 1),), 0, 1)], "condition 0 is not a (terms, modulus) pair: (((0, 1),), 0, 1)"),
    ([(None, 0)], "condition 0" + _NO_TERMS + "None"),
    ([(((0, 1),), 0), (((1, 2), (True, 1)), 0)], "condition 1" + _NO_TERMS + "((1, 2), (True, 1))"),
    ([(((0, False),), 2)], "condition 0" + _NO_TERMS + "((0, False),)"),
    ([([[1, 1], (1, True)], 0)], "condition 0" + _NO_TERMS + "[[1, 1], (1, True)]"),
])
def test_condition_that_is_not_pairs_of_pairs_is_refused(conditions, bad):
    anchored = "^" + re.escape(bad) + "$"
    with pytest.raises(LatticeError, match=anchored):
        condition_matrix(2, conditions)
    with pytest.raises(LatticeError, match=anchored):
        condition_kernel(2, conditions)


def test_checked_conditions_keep_clean_terms_and_rebuild_the_rest():
    """Terms that are a tuple of (int, int) tuples with distinct indices
    come back as the same object.  Other terms are rebuilt as tuples,
    repeated indices added up in the order they first appear and zeros
    kept."""
    clean, empty = ((2, -1), (0, 1)), ()
    conditions = [(clean, 0), (((0, 1), (1, 0), (0, 2)), 3), ([(1, 0), [2, 5]], 0), (empty, 2)]
    checked = checked_conditions(3, conditions)
    assert checked == ((clean, 0), (((0, 3), (1, 0)), 3), (((1, 0), (2, 5)), 0), ((), 2))
    assert checked[0][0] is clean and checked[3][0] is empty


def test_conditions_that_are_not_a_sequence_are_refused():
    for call in (lambda: condition_matrix(2, None), lambda: checked_conditions(2, None),
                 lambda: satisfies(None, [1])):
        with pytest.raises(LatticeError, match="^conditions must be an iterable, got NoneType$"):
            call()


def test_conditions_from_an_iterator_are_read_once():
    # Were the check to use the iterator up, the kernel would read no
    # condition and return all of Z^2.
    conditions = [(((0, 1), (1, 1)), 2), (((1, 3),), 0)]
    assert condition_kernel(2, iter(conditions)) == condition_kernel(2, conditions) \
        == from_generators(2, [(2, 0)])
    assert condition_matrix(2, iter(conditions)) == condition_matrix(2, conditions)


@pytest.mark.parametrize("conditions, v", [
    ([(((0.0, 1),), 0)], (1,)),
    ([(((None, 1),), 0)], (1,)),
    ([(((0, 1),), 0)], ("a",)),
    ([(((0, 1),), -2)], (2,)),
    ([(((0, 1),), 2.0)], (2,)),
    ([(((0, 1),), "2")], (2,)),
])
def test_satisfies_refuses_bad_indices_and_moduli(conditions, v):
    with pytest.raises(LatticeError):
        satisfies(conditions, v)


@pytest.mark.parametrize("conditions, bad", [
    ([(((0, 1, 2),), 0)], "condition 0" + _NO_TERMS + "((0, 1, 2),)"),  # a term of three
    ([(((0, 1),), 0, 1)], "condition 0 is not a (terms, modulus) pair: (((0, 1),), 0, 1)"),
    ([(((0,),), 0)], "condition 0" + _NO_TERMS + "((0,),)"),  # a term of one
    ([((0, 1), 0)], "condition 0" + _NO_TERMS + "(0, 1)"),  # terms not pairs
    ([5], "condition 0 is not a (terms, modulus) pair: 5"),
])
def test_satisfies_refuses_conditions_that_are_not_pairs_of_pairs(conditions, bad):
    """Raw conditions go through ``checked_conditions``, whose message
    ``satisfies`` raises as it is."""
    with pytest.raises(LatticeError, match="^" + re.escape(bad) + "$"):
        satisfies(conditions, (1,))


@pytest.mark.parametrize("v", [{0: 0, 1: 7}, {0}, frozenset({0})])
def test_satisfies_refuses_a_v_that_is_no_sequence(v):
    """A dict would be read at its keys, which made the equation x0 = 0
    hold on {0: 0, 1: 7}, and a set raised an error that blamed the
    conditions."""
    with pytest.raises(LatticeError, match=f"^v must be a sequence, got {type(v).__name__}$"):
        satisfies([(((0, 1),), 0)], v)


@pytest.mark.parametrize("v", [None, 5])
def test_vectors_without_a_length_are_refused(v):
    with pytest.raises(LatticeError, match=f"^v must be a sequence, got {type(v).__name__}$"):
        satisfies([(((0, 1),), 0)], v)
    with pytest.raises(LatticeError, match=f"^vector must be a sequence, got {type(v).__name__}$"):
        identity(2).mul_vec(v)


@pytest.mark.parametrize("conditions, v, index", [
    ([(((0, 1),), 0)], "a", 0),  # blamed the conditions: "+=: 'int' and 'str'"
    ([(((0, 2),), 0)], (0.5,), 0),  # blamed the conditions: a sum of 1.0
    ([(((0, 2),), 3)], [3, 1.5], None),  # the condition reads no 1.5
    ([(((0, 1), (1, 1)), 2)], (1, 1.5), 1),
    ([(((0, 1),), 0), (((1, 1), (0, 1)), 0)], (0, None), 1),  # read after one that holds
    ([(((1, 1), (0, 1)), 0)], [[0], "b"], 1),  # the first that the terms read
])
def test_satisfies_names_the_entry_of_v_at_fault(conditions, v, index):
    """Raw and checked alike, a v entry that is no int, among those the
    failing condition reads, is named in ``_check_vector``'s wording."""
    for form in (conditions, checked_conditions(len(v), conditions)):
        if index is None:
            assert satisfies(form, v)
            continue
        message = f"^v entry at index {index} is not an integer: {re.escape(repr(v[index]))}$"
        with pytest.raises(LatticeError, match=message):
            satisfies(form, v)


def test_a_bool_in_v_counts_as_its_int():
    for form in ([(((0, 1),), 2)], checked_conditions(1, [(((0, 1),), 2)])):
        assert satisfies(form, (False,)) and not satisfies(form, (True,))


def test_satisfies_passes_its_own_errors_on_as_they_are():
    """The error of ``checked_conditions(len(v), conditions)`` reaches
    the caller as it is, not wrapped in another message."""
    with pytest.raises(LatticeError, match=r"^condition 0: index 3 is outside \[0, 1\)$"):
        satisfies([(((3, 1),), 0)], (1,))


def test_a_set_that_cannot_be_compiled_stays_on_the_loop(monkeypatch):
    """A coefficient past CPython's int->str digit limit cannot be
    written as a literal, and a sum of thousands of terms may nest too
    deep to compile.  Read in full ``_COMPILE_AFTER`` + 1 times, either
    set answers as the loop does and raises nothing; the first stays on
    the loop wherever the limit holds."""
    monkeypatch.setattr(exact_lattice, "_COMPILE_AFTER", 3)
    big = 10**5000
    huge = checked_conditions(2, [(((0, big), (1, 1)), 0)])
    long = checked_conditions(5000, [(tuple((i, 1) for i in range(5000)), 0)])
    for conditions, zero, holds, fails in ((huge, (0, 0), (1, -big), (1, 0)),
                                           (long, (0,) * 5000, (1, -1) * 2500, (1,) * 5000)):
        for _ in range(exact_lattice._COMPILE_AFTER + 1):
            assert satisfies(conditions, zero)
        assert satisfies(conditions, holds) and not satisfies(conditions, fails)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    assert (huge.test is None) is (0 < limit < 5001)


_ITERATOR = iter(())  # terms with no length and nothing to use up, so no test changes it


@pytest.mark.parametrize("conditions, bad", [
    # malformed after a condition that v fails, which was read first
    ([(((0, 1),), 0), (((0, 1, 2),), 0)], "condition 1" + _NO_TERMS + "((0, 1, 2),)"),
    ([(((0, 1),), 0), 5], "condition 1 is not a (terms, modulus) pair: 5"),
    ([(((0, 1),), 0), (((7, 1),), 0)], "condition 1: index 7 is outside [0, 2)"),
    # a bool index or coefficient, which would count as its int
    ([(((True, 1),), 0)], "condition 0" + _NO_TERMS + "((True, 1),)"),
    ([(((0, True),), 0)], "condition 0" + _NO_TERMS + "((0, True),)"),
    # dict terms, read at their keys
    ([({0: 1}, 0)], "condition 0" + _NO_TERMS + "{0: 1}"),
    ([(((0, 1), (0, 1)), 0), ({0: 1}, 0)], "condition 1" + _NO_TERMS + "{0: 1}"),
    # terms with no length, which satisfies used to read as they came
    ([(_ITERATOR, 0)], "condition 0" + _NO_TERMS + repr(_ITERATOR)),
])
def test_raw_conditions_are_refused_as_a_whole_before_v_is_read(conditions, bad):
    """``satisfies`` checks a raw set whole, so a fault after the first
    condition that v fails raises (it used to return False), and a bool
    or an iterator in the terms is refused, as ``condition_kernel``
    refuses them."""
    for call in (lambda: satisfies(conditions, (1, 0)), lambda: condition_kernel(2, conditions)):
        with pytest.raises(LatticeError, match="^" + re.escape(bad) + "$"):
            call()


def test_a_sum_that_is_no_int_over_int_entries_is_refused():
    """An int subclass whose product is no int: no entry is at fault,
    and the condition's terms are named instead."""
    class Half(int):
        def __rmul__(self, other):
            return 0.5

    with pytest.raises(LatticeError, match=r"^the terms \(\(0, 1\),\) sum to no int on v$"):
        satisfies([(((0, 1),), 0)], [Half(1)])


def test_repeated_condition_indices_add_up():
    """(((0, 1), (0, 1)), 2) reads 2 x = 0 mod 2, which every x meets."""
    conditions = [(((0, 1), (0, 1)), 2)]
    assert condition_matrix(1, conditions) == IntMatrix(1, 2, [2, 2])
    assert kernel(condition_matrix(1, conditions)) == from_generators(2, [(1, -1)])
    assert condition_kernel(1, conditions) == dense_condition_kernel(1, conditions) \
        == full_lattice(1)
    assert satisfies(conditions, (1,)) and dense_satisfies(conditions, (1,))


def test_condition_matrix_builds_its_matrix_unchecked(monkeypatch):
    checked = []
    real = IntMatrix.__init__
    monkeypatch.setattr(IntMatrix, "__init__",
                        lambda self, *args: checked.append(args) or real(self, *args))
    m = condition_matrix(3, [(((0, 1), (2, -1)), 0), (((1, 1),), 2)])
    assert checked == []
    monkeypatch.undo()
    assert m == from_rows([[1, 0, -1, 0], [0, 1, 0, 2]])


# -- intersection --------------------------------------------------------------


def test_intersect_scaled_lattices():
    a = from_generators(2, [(2, 0), (0, 2)])
    b = from_generators(2, [(3, 0), (0, 3)])
    c = lattice_intersect(a, b)
    assert c == from_generators(2, [(6, 0), (0, 6)])


def test_intersect_with_full_lattice_is_identity():
    rng = random.Random(31)
    full = full_lattice(3)
    for _ in range(20):
        b = Lattice.from_matrix(random_matrix(rng, 3, rng.randint(0, 3)))
        assert lattice_intersect(full, b) == b
        assert lattice_intersect(b, full) == b


def test_intersect_orthogonal_lines_is_zero():
    a = from_generators(2, [(1, 0)])
    b = from_generators(2, [(0, 1)])
    assert lattice_intersect(a, b).rank == 0


def test_intersect_is_greatest_lower_bound():
    rng = random.Random(37)
    for _ in range(20):
        a = Lattice.from_matrix(random_matrix(rng, 4, rng.randint(1, 4)))
        b = Lattice.from_matrix(random_matrix(rng, 4, rng.randint(1, 4)))
        c = lattice_intersect(a, b)
        assert lattice_contains(a, c)
        assert lattice_contains(b, c)
        # c's basis lies in both; that every member of both lies in c is
        # test_intersect_is_the_dense_kernel_of_both_bases in test_properties
        for j in range(c.rank):
            v = c.basis.col(j)
            assert lattice_member(a, v)[0] and lattice_member(b, v)[0]


def test_lattice_contains_refuses_other_ambient_dimensions():
    plane = Lattice.from_matrix(identity(2))
    for small, big in ((zero_lattice(3), plane), (plane, zero_lattice(3)),
                       (from_generators(3, [(1, 0, 0)]), plane)):
        for call in (lattice_contains, lattice_intersect):
            with pytest.raises(LatticeError, match="^ambient dimension mismatch$"):
                call(big, small)
    assert lattice_contains(plane, zero_lattice(2))
    assert not lattice_contains(zero_lattice(2), plane)
    line = from_generators(2, [(2, 4)])
    assert lattice_contains(line, from_generators(2, [(4, 8)]))
    assert not lattice_contains(line, from_generators(2, [(1, 2)]))


def test_lattice_contains_reads_no_dense_basis():
    rng = random.Random(41)
    for _ in range(10):
        a = Lattice.from_matrix(random_matrix(rng, 4, rng.randint(0, 4)))
        b = Lattice.from_matrix(random_matrix(rng, 4, rng.randint(0, 4)))
        expected = all(lattice_member(a, b.basis.col(j))[0] for j in range(b.rank))
        fresh = from_generators(4, [b.basis.col(j) for j in range(b.rank)])
        assert lattice_contains(a, fresh) == expected
        assert "basis" not in fresh.__dict__


# -- quotient -------------------------------------------------------------------


def test_quotient_z2_mod_2z2():
    big = full_lattice(2)
    small = from_generators(2, [(2, 0), (0, 2)])
    q = quotient(big, small.columns)
    assert q == AbGroup(0, (2, 2))


def test_quotient_self_is_trivial():
    lat = from_generators(3, [(1, 2, 3), (0, 1, 1)])
    assert quotient(lat, lat.columns) == AbGroup(0, ())


def test_quotient_adds_up_a_repeated_index_of_transposed_lines():
    """``transpose`` files two terms of one line on one index as two
    pairs of the generator; ``quotient`` adds them up, on a basis and
    on a small form, as it does the summed generator."""
    lines = transpose([[(0, 1), (0, 1)], [(0, 2)]], 1)  # generator 0: (2, 2)
    assert lines == (((0, 1), (0, 1), (1, 2)),)
    diagonal = condition_kernel(2, [(((0, 1), (1, -1)), 0)])  # x0 = x1
    for big in (diagonal, Lattice.from_matrix(diagonal.basis)):
        assert quotient(big, lines) == quotient(big, [[(0, 2), (1, 2)]]) == AbGroup(0, (2,))
    cancelled = transpose([[(0, 3), (0, -3)], [(0, 2)]], 1)  # generator 0: (0, 2)
    assert quotient(full_lattice(2), cancelled) == quotient(full_lattice(2), [[(1, 2)]]) \
        == AbGroup(1, (2,))


def test_quotient_rejects_non_sublattice():
    big = from_generators(2, [(2, 0)])
    small = from_generators(2, [(1, 0)])
    with pytest.raises(LatticeError):
        quotient(big, small.columns)


def test_quotient_rank_additivity():
    rng = random.Random(41)
    for _ in range(25):
        big = Lattice.from_matrix(random_matrix(rng, 4, rng.randint(1, 4)))
        if big.rank == 0:
            continue
        mult = random_matrix(rng, big.rank, rng.randint(0, big.rank), -3, 3)
        small_gens = [big.basis.mul_vec(mult.col(j)) for j in range(mult.cols)]
        small = from_generators(4, small_gens)
        q = quotient(big, small.columns)
        assert q.free_rank + small.rank == big.rank


# -- groups ---------------------------------------------------------------------


def test_abgroup_validation_and_str():
    assert str(AbGroup(0, ())) == "0"
    assert str(AbGroup(1, ())) == "Z"
    assert str(AbGroup(2, (3,))) == "Z^2 + Z/3"
    with pytest.raises(LatticeError):
        AbGroup(0, (1,))
    with pytest.raises(LatticeError):
        AbGroup(0, (4, 6))
    with pytest.raises(LatticeError, match="^negative free rank$"):
        AbGroup(-1)


@pytest.mark.parametrize("free_rank, torsion", [
    (1.5, ()), (True, ()), ("1", ()), (1, ("a",)), (1, (2.0,)), (1, (True,)), (1, [2]), (1, 2)])
def test_abgroup_rejects_values_that_are_not_ints(free_rank, torsion):
    with pytest.raises(LatticeError, match="must be"):
        AbGroup(free_rank, torsion)


def test_abgroup_direct_sum_canonicalizes():
    a = AbGroup(1, (3,))
    b = AbGroup(1, (4,))
    s = AbGroup.direct_sum(a, b, AbGroup.free(1))
    assert s == AbGroup(3, (12,))
    s2 = AbGroup.direct_sum(AbGroup(0, (2,)), AbGroup(0, (2,)))
    assert s2 == AbGroup(0, (2, 2))


# -- value classes --------------------------------------------------------------


def small_lattice():
    """x0 + x1 even and x2 = 0, in ``condition_kernel``'s small form."""
    return condition_kernel(3, [(((0, 1), (1, 1)), 2), (((2, 1),), 0)])


@pytest.mark.parametrize("make, what, name", [
    (lambda: AbGroup(3, (3, 3)), "an AbGroup", "torsion"),
    (lambda: AbGroup(0), "an AbGroup", "new"),
    (lambda: Lattice.from_matrix(IntMatrix(2, 2, [2, 1, 0, 3])), "a Lattice", "columns"),
    (small_lattice, "a Lattice", "columns"),
    (small_lattice, "a Lattice", "_cut"),
    (small_lattice, "a Lattice", "ambient_dim"),
    (lambda: IntMatrix(2, 2, [1, 2, 3, 4]), "an IntMatrix", "cols"),
    (lambda: IntMatrix(2, 2, [1, 2, 3, 4]), "an IntMatrix", "_e"),
])
def test_a_value_refuses_to_set_or_delete_an_attribute(make, what, name):
    # Each raised dataclasses.FrozenInstanceError, which is no LatticeError;
    # an IntMatrix took m.cols = 1 and then printed as IntMatrix([[1], [2]]).
    value = make()
    state = dict(vars(value))
    message = f"^{what} is immutable: cannot {{}} " + re.escape(repr(name)) + "$"
    with pytest.raises(LatticeError, match=message.format("set")):
        setattr(value, name, ())
    with pytest.raises(LatticeError, match=message.format("delete")):
        delattr(value, name)
    assert vars(value) == state and value == make() and repr(value) == repr(make())


def test_value_reprs_name_their_fields():
    assert repr(AbGroup(3, (3, 3))) == "AbGroup(free_rank=3, torsion=(3, 3))"
    assert repr(AbGroup(0)) == "AbGroup(free_rank=0, torsion=())"
    assert repr(Lattice.from_matrix(IntMatrix(2, 2, [2, 1, 0, 3]))) \
        == "Lattice(ambient_dim=2, columns=(((0, 1), (1, 3)), ((1, 6),)))"
    assert repr(small_lattice()) == "Lattice(ambient_dim=3, columns=(((0, 1), (1, 1)), ((1, 2),)))"


def test_values_equal_and_hash_by_their_fields_and_class():
    assert AbGroup(3) == AbGroup(3, ()) and hash(AbGroup(3)) == hash(AbGroup(3, ()))
    assert hash(AbGroup(3, (3, 3))) == hash((3, (3, 3)))
    assert AbGroup(1, ()) != (1, ()) and (1, ()) != AbGroup(1, ())
    assert AbGroup(1, ()).__eq__((1, ())) is NotImplemented
    lat = small_lattice()
    assert hash(lat) == hash((3, lat.columns)) and lat != (3, lat.columns)
    assert lat == Lattice(3, lat.basis) and lat != AbGroup(3)
    m = IntMatrix(2, 2, [2, 1, 0, 3])
    assert m == IntMatrix(2, 2, (2, 1, 0, 3)) and hash(m) == hash((2, 2, (2, 1, 0, 3)))
    assert m != IntMatrix(1, 4, [2, 1, 0, 3]) and m != (2, 2, (2, 1, 0, 3))
    assert repr(m) == "IntMatrix([[2, 1], [0, 3]])"
    g = cycle_graph(3)
    assert g == cycle_graph(3) and hash(g) == hash((g.vertices, g.edges)) and g != complete_graph(3)


@pytest.mark.parametrize("read_columns", [False, True])
def test_values_survive_pickle_and_deepcopy(read_columns):
    """A small-form lattice keeps its small form, or the columns already
    read; either twin equals the original and stays immutable."""
    lat = small_lattice()
    if read_columns:
        lat.columns
    values = [lat, AbGroup(3, (3, 3)), Lattice.from_matrix(IntMatrix(2, 2, [2, 1, 0, 3])),
              IntMatrix(2, 2, [2, 1, 0, 3]), Multigraph([0, 1], [("e0", 0, 1), ("e1", 1, 0)])]
    for value in values:
        error = GraphError if type(value) is Multigraph else LatticeError
        for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            if value is lat:
                assert ("columns" in vars(twin)) is read_columns and twin.rank == 2
            assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)
            assert repr(twin) == repr(value)
            with pytest.raises(error, match="is immutable: cannot set 'new'$"):
                twin.new = 1
    assert lat == small_lattice()


def test_cokernel_free_part():
    m = from_rows([[2, 0], [0, 0]])
    assert cokernel(sparse_rows(m)) == AbGroup(1, (2,))


def test_empty_edge_cases():
    empty = zeros(0, 0)
    h, u = hnf(empty)
    assert h.rows == 0 and h.cols == 0
    d, s = snf(empty)
    assert d.rows == 0 and s == identity(0)
    for rows, cols in ((0, 3), (3, 0)):  # S is the identity
        assert snf(zeros(rows, cols)) == (zeros(rows, cols), identity(rows))
    assert kernel(zeros(0, 3)).rank == 3
    assert kernel(zeros(3, 0)).rank == 0
    assert zero_lattice(4).rank == 0
    assert quotient(full_lattice(2), zero_lattice(2).columns) == AbGroup(2, ())


@pytest.mark.parametrize("index", [-1, -2, 2, 5])
def test_transpose_refuses_an_index_outside_the_range(index):
    assert transpose([[(1, 7)], [(0, 1), (1, 2)]], 2) == (((1, 1),), ((0, 7), (1, 2)))
    with pytest.raises(LatticeError, match=rf"^line 1: index {index} is outside \[0, 2\)$"):
        transpose([[(1, 7)], [(index, 1)]], 2)


@pytest.mark.parametrize("lines", [[], [[(0, 1)]]])
@pytest.mark.parametrize("n", [-1, "a", 2.0, True, None])
def test_transpose_needs_a_count_that_is_an_int_at_least_0(lines, n):
    with pytest.raises(LatticeError, match=f"^n must be an int >= 0, got {n!r}$"):
        transpose(lines, n)


@pytest.mark.parametrize("lines, line", [
    ([[(1.5, 1)]], 0),
    ([[(0, 1)], [("a", 1)]], 1),
    ([[(0, 1)], [(1, 2, 3)]], 1),  # a term of three
    ([[(0, 1)], None], 1),
])
def test_transpose_refuses_an_index_that_is_not_an_int(lines, line):
    with pytest.raises(LatticeError, match=rf"^line {line} is no sequence of \(int index, int value\)"):
        transpose(lines, 2)


@pytest.mark.parametrize("lines, n, line", [
    ([[(0, "x")]], 1, 0),  # a value that is not an int
    ([[(True, 2)]], 2, 0),  # a bool index, which would land in line 1
    ([[(0, 1)], [(False, 1)]], 2, 1),
    ([[(0, 1)], [(1, True)]], 2, 1),  # a bool value
    ([[(0, 1)], [(1, 2.0)]], 2, 1),
    ([[(0, 1)], [(1, None)]], 2, 1),
])
def test_transpose_refuses_bools_and_values_that_are_not_ints(lines, n, line):
    message = rf"^line {line} is no sequence of \(int index, int value\) pairs: "
    with pytest.raises(LatticeError, match=message + re.escape(repr(lines[line])) + "$"):
        transpose(lines, n)


@pytest.mark.parametrize("conditions, v, bad", [
    ([(((0, 1.5),), 0)], (2,), "condition 0" + _NO_TERMS + "((0, 1.5),)"),  # a sum of 3.0
    ([(((0, 1.5),), 2)], (2,), "condition 0" + _NO_TERMS + "((0, 1.5),)"),
    # a zero modulus that is not the int 0
    ([(((0, 1),), 0.0)], (0,), "condition 0 is not a (terms, modulus) pair: (((0, 1),), 0.0)"),
    # read after a condition that holds
    ([(((0, 1),), 0), (((0, 1),), 0.0)], (0,),
     "condition 1 is not a (terms, modulus) pair: (((0, 1),), 0.0)"),
    # a bool, which adds up as an int
    ([(((0, 1),), True)], (2,), "condition 0 is not a (terms, modulus) pair: (((0, 1),), True)"),
])
def test_satisfies_refuses_a_coefficient_or_modulus_that_is_not_an_int(conditions, v, bad):
    with pytest.raises(LatticeError, match="^" + re.escape(bad) + "$"):
        satisfies(conditions, v)


_TYPED_CALLS = {
    "lattice_member": lambda x: lattice_member(x, (0,)),
    "lattice_contains big": lambda x: lattice_contains(x, full_lattice(1)),
    "lattice_contains small": lambda x: lattice_contains(full_lattice(1), x),
    "lattice_intersect a": lambda x: lattice_intersect(x, full_lattice(1)),
    "lattice_intersect b": lambda x: lattice_intersect(full_lattice(1), x),
    "quotient": lambda x: quotient(x, []),
    "hnf": hnf,
    "snf": snf,
    "kernel": kernel,
    "Lattice.from_matrix": Lattice.from_matrix,
    "AbGroup.direct_sum": AbGroup.direct_sum,
}


@pytest.mark.parametrize("call", sorted(_TYPED_CALLS))
@pytest.mark.parametrize("value", [None, [[1, 0], [0, 1]]])
def test_an_argument_of_the_wrong_type_raises_lattice_error(call, value):
    """A non-Lattice where a Lattice is due, a non-IntMatrix where an
    IntMatrix is due and a non-AbGroup where an AbGroup is due each raise
    LatticeError naming the expected type."""
    expected = ("an IntMatrix" if call in ("hnf", "snf", "kernel", "Lattice.from_matrix")
                else "an AbGroup" if call == "AbGroup.direct_sum" else "a Lattice")
    with pytest.raises(LatticeError, match=f"^expected {expected}, got {type(value).__name__}$"):
        _TYPED_CALLS[call](value)


# -- the Lattice constructor ------------------------------------------------------


@pytest.mark.parametrize("ambient, basis", [
    (2, from_rows([[1, 1], [1, 0]])),    # two pivots in row 0
    (2, from_rows([[0, 1], [1, 0]])),    # pivot rows decrease
    (2, from_rows([[-2], [1]])),         # negative pivot
    (2, from_rows([[2, 0], [3, 3]])),    # 3 not reduced mod the pivot 3
    (2, from_rows([[2, 0], [-1, 3]])),   # -1 not reduced mod the pivot 3
    (2, from_rows([[1, 0], [0, 0]])),    # zero column
    (3, identity(2)),                    # wrong row count
    (2, [[1, 0], [0, 1]]),               # not an IntMatrix
])
def test_lattice_rejects_a_non_canonical_basis(ambient, basis):
    with pytest.raises(LatticeError):
        Lattice(ambient, basis)


def test_built_lattices_skip_the_basis_check(monkeypatch):
    checked = []
    real = Lattice.__init__
    monkeypatch.setattr(Lattice, "__init__",
                        lambda self, *args: checked.append(args) or real(self, *args))
    built = [Lattice.from_matrix(from_rows([[2, 1], [0, 3]])), from_generators(2, [(1, 1)]),
             zero_lattice(3), kernel(from_rows([[1, 1, 2], [0, 2, 4]])),
             condition_kernel(2, [(((0, 1),), 2)]),
             lattice_intersect(zero_lattice(2), Lattice.from_matrix(identity(2))),
             lattice_intersect(Lattice.from_matrix(identity(2)),
                               condition_kernel(2, [(((0, 1), (1, 1)), 2)]))]
    assert checked == []
    assert Lattice(2, identity(2)) == full_lattice(2)
    assert len(checked) == 2
    monkeypatch.undo()
    for lat in built:
        assert Lattice(lat.ambient_dim, lat.basis) == lat
