import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from cdgalab import exactlin
from cdgalab.cdga import _tail
from cdgalab.errors import InputError
from cdgalab.exactlin import (
    KernelBasis,
    KeyedBasis,
    QMatrix,
    RowSpace,
    kernel_basis,
    rank,
    rref,
    solve,
    solve_many,
    unit_vector,
)

from fixtures import wedge_of_2_spheres
from helpers import (
    IncrementalRowSpace,
    dense_kernel,
    dense_kernel_basis,
    fraction_echelon,
    fraction_matmul,
    fraction_matvec,
    minor_rank,
    naive_rank,
    random_qmatrix,
)


# -- rational literals ------------------------------------------------------

@pytest.mark.parametrize(
    "literal, value",
    [
        (Fraction(3, 4), Fraction(3, 4)),
        (7, Fraction(7)),
        (-2, Fraction(-2)),
        ("5", Fraction(5)),
        ("-3/6", Fraction(-1, 2)),
        ("+4/2", Fraction(2)),
        ("0/9", Fraction(0)),
    ],
)
def test_rat_accepts_integers_and_fraction_strings(literal, value):
    assert exactlin.rat(literal) == value
    assert type(exactlin.rat(literal)) is Fraction


@pytest.mark.parametrize(
    "literal",
    [True, False, 1.5, 2.0, "1.5", "1e3", "1/0", "-0/0", "1/-2", " 1/2", "1_000", "", "/2", "p/q", None, [1]],
)
def test_rat_rejects_everything_else(literal):
    with pytest.raises(InputError, match="rational"):
        exactlin.rat(literal)


def test_bool_coefficients_rejected_by_constructors():
    from cdgalab.polyforms import PolyForm

    with pytest.raises(InputError, match="rational"):
        PolyForm(1, {((1,), ()): True})
    with pytest.raises(InputError, match="rational"):
        QMatrix(1, 1, {(0, 0): True})


def test_rref_identity():
    m = QMatrix.identity(2)
    r, pivots, red = rref(m)
    assert r == 2
    assert pivots == (0, 1)
    assert red == m


def test_rref_proportional_rows():
    m = QMatrix.from_rows([[1, 2], [2, 4]])
    r, pivots, _ = rref(m)
    assert r == 1
    assert pivots == (0,)


def test_rref_random_rank_matches_minor_expansion_oracle():
    rng = random.Random(7)
    for _ in range(8):
        m = random_qmatrix(rng, 5, 7, density=0.5)
        assert rank(m) == minor_rank(m)


def test_rref_idempotent():
    rng = random.Random(11)
    for _ in range(10):
        m = random_qmatrix(rng, 4, 6)
        _, _, red = rref(m)
        _, _, red2 = rref(red)
        assert red == red2


def test_kernel_identity_empty():
    assert kernel_basis(QMatrix.identity(3)) == []


def test_kernel_zero_matrix_full():
    basis = kernel_basis(QMatrix.zero(3, 3))
    assert len(basis) == 3
    assert basis == [unit_vector(3, i) for i in range(3)]


@pytest.mark.parametrize("rows, cols", [(0, 4), (3, 0), (0, 0), (3, 4)])
def test_matrices_without_entries_read_as_the_general_path_does(rows, cols):
    m = QMatrix.zero(rows, cols)
    pivot_rows, pivots, rest = exactlin._int_echelon(m)
    assert (pivot_rows, pivots, rest) == exactlin._reduce_rows([{} for _ in range(rows)], cols)
    assert len({id(row) for row in rest}) == rows
    assert fraction_echelon(m) == ([{}] * rows, [])
    # every column is free: its kernel vector is the unit vector there, read with scale 1
    assert exactlin._kernel_columns(m) == [(f, 1, {f: 1}) for f in range(cols)]
    assert kernel_basis(m) == dense_kernel_basis(m) == [unit_vector(cols, f) for f in range(cols)]
    assert rank(m) == 0 and rref(m) == (0, (), m)
    # a nonzero right-hand side has no solution; with no rows there is none
    solution = (Fraction(0),) * cols
    assert solve_many(m, [(Fraction(0),) * rows, (Fraction(1),) * rows]) == [solution, None if rows else solution]


def test_kernel_single_row():
    basis = kernel_basis(QMatrix.from_rows([[1, 1]]))
    assert len(basis) == 1
    (v,) = basis
    assert v[0] * 1 + v[1] * 1 == 0
    assert v == (Fraction(1), Fraction(-1))


def test_rank_nullity_randomized():
    rng = random.Random(3)
    for _ in range(30):
        rows = rng.randint(0, 6)
        cols = rng.randint(1, 8)
        m = random_qmatrix(rng, rows, cols)
        assert rank(m) + len(kernel_basis(m)) == cols
        for v in kernel_basis(m):
            assert not any(m.matvec(v))


def test_solve_identity():
    m = QMatrix.identity(3)
    b = (Fraction(1), Fraction(2), Fraction(3))
    assert solve(m, b) == b


def test_solve_inconsistent():
    m = QMatrix.from_rows([[1, 2], [2, 4]])
    assert solve(m, (Fraction(1), Fraction(3))) is None


def test_solve_scalar():
    m = QMatrix.from_rows([[2]])
    assert solve(m, (Fraction(1),)) == (Fraction(1, 2),)


def test_solve_roundtrip_randomized():
    rng = random.Random(5)
    for _ in range(25):
        m = random_qmatrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        x = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m.cols))
        b = m.matvec(x)
        x2 = solve(m, b)
        assert x2 is not None
        assert m.matvec(x2) == b


def test_solve_many_mixed():
    m = QMatrix.from_rows([[1, 0], [0, 0]])
    sols = solve_many(m, [(Fraction(2), Fraction(0)), (Fraction(0), Fraction(1))])
    assert sols[0] == (Fraction(2), Fraction(0))
    assert sols[1] is None


def test_solve_dimension_mismatch():
    with pytest.raises(InputError):
        solve(QMatrix.identity(2), (Fraction(1),))


@pytest.mark.parametrize("length", [3, 1], ids=["too-long", "too-short"])
def test_solve_many_names_a_wrong_rhs_length(length):
    m = QMatrix.from_rows([[1, 0, 2], [0, 1, 3]])
    rhs = [(Fraction(1), Fraction(2)), tuple(Fraction(1) for _ in range(length))]
    with pytest.raises(InputError, match=f"solve_many: rhs 1 of length {length} against 2 rows"):
        solve_many(m, rhs)


def test_rowspace_membership_and_growth():
    rs = RowSpace(QMatrix.from_rows([[0, 1, 2, 0], [0, 0, 0, 1], [0, 1, 2, 0]]))
    assert rs.columns == [1, 3] and rs.pivots == (0, 1)
    assert rs.contains((Fraction(-1), Fraction(0), Fraction(-1)))
    assert not rs.contains((Fraction(0), Fraction(1), Fraction(1)))
    assert rs.rank == 2
    assert rs.coords((Fraction(2), Fraction(3), Fraction(2))) == (Fraction(2), Fraction(3))


def test_sparse_and_dense_paths_agree():
    # a small dense matrix embedded in 70 columns, 60 of them zero
    rng = random.Random(17)
    small = random_qmatrix(rng, 6, 10)
    big_entries = dict(small.entries)
    big = QMatrix(6, 70, big_entries)
    assert rank(big) == rank(small)
    kb_small = kernel_basis(small)
    kb_big = kernel_basis(big)
    assert len(kb_big) == len(kb_small) + 60


# -- coordinates: the cached fast paths against a fresh solve ---------------------

def _combo(rng, vectors, n):
    acc = [Fraction(0)] * n
    for v in vectors:
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        acc = [a + c * x for a, x in zip(acc, v)]
    return tuple(acc)


def _random_vector(rng, n, density=0.5):
    return tuple(
        Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < density else Fraction(0)
        for _ in range(n)
    )


def _big(rng, bits=70):
    return Fraction(rng.getrandbits(bits) - (1 << (bits - 1)), rng.getrandbits(bits) + 1)


def _probes(rng, span, n):
    """Members of span (incl. zero) and arbitrary vectors, most of them outside."""
    out = [tuple(Fraction(0) for _ in range(n))]
    out += [_combo(rng, span, n) for _ in range(4)]
    out += [_random_vector(rng, n) for _ in range(4)]
    return out


def _rowspace_cases(rng):
    """(dim, added vectors): rank-deficient, zero, empty and sparse-path spaces."""
    cases = [(0, []), (3, []), (4, [(Fraction(0),) * 4])]
    for _ in range(25):
        n = rng.randint(1, 8)
        base = [_random_vector(rng, n) for _ in range(rng.randint(0, n + 2))]
        # duplicates and combinations make the added list rank-deficient
        extra = [_combo(rng, base, n) for _ in range(rng.randint(0, 2))]
        cases.append((n, base + extra))
    n = 70  # wide and sparse
    base = [_random_vector(rng, n, density=0.05) for _ in range(8)]
    cases.append((n, base + [_combo(rng, base[:3], n)]))
    for n, count in [(5, 3), (6, 8)]:  # 70-bit numerators and denominators
        base = [tuple(_big(rng) if rng.random() < 0.6 else Fraction(0) for _ in range(n)) for _ in range(count)]
        cases.append((n, base + [_combo(rng, base[:2], n)]))
    return cases


def test_rowspace_coords_match_solve_and_oracle():
    rng = random.Random(2024)
    for n, added in _rowspace_cases(rng):
        rs = RowSpace(QMatrix.from_cols(added, n))
        oracle = IncrementalRowSpace(n)
        assert rs.columns == [c for c, v in enumerate(added) if oracle.add(v)]
        assert rs.pivots == oracle.pivots
        assert rs.rank == len(rs.columns) == naive_rank([list(v) for v in added])
        m = QMatrix.from_cols([added[c] for c in rs.columns], n)
        probes = _probes(rng, added, n)
        for x in probes:
            expected = solve(m, x)
            assert expected == _fraction_solve(m, x)
            assert rs.coords(x) == oracle.coords(x) == expected
            member = naive_rank([list(added[c]) for c in rs.columns] + [list(x)]) == rs.rank
            assert rs.contains(x) == member == (expected is not None)
        _check_coords_matrix(rng, rs, oracle, added, probes)


def test_rowspace_express_raises_with_message():
    rs = RowSpace(QMatrix.from_rows([[1], [1]]))
    assert rs.express([(Fraction(2), Fraction(2))], "outside") == [(Fraction(2),)]
    with pytest.raises(InputError, match="outside"):
        rs.express([(Fraction(2), Fraction(2)), (Fraction(1), Fraction(0))], "outside")


def _check_coords_matrix(rng, space, oracle, span, probes):
    """``space.coords_matrix(left, right)`` against ``oracle.coords_many`` on the columns of
    ``fraction_matmul(left, right)``: members of ``span``, with rational entries and scaled by
    a fraction, probes (most of them outside), zero columns and no columns."""
    n = space.dim
    members = QMatrix.from_cols([_combo(rng, span, n) for _ in range(3)], n)
    lefts = [members, members.scale(Fraction(2, 7)), QMatrix.from_cols(probes, n), QMatrix.zero(n, 2)]
    for left in lefts + [QMatrix.zero(n, 0)]:
        for right in [QMatrix.identity(left.cols), random_qmatrix(rng, left.cols, 3), QMatrix.zero(left.cols, 2)]:
            cols = oracle.coords_many(fraction_matmul(left, right).to_cols())
            got = space.coords_matrix(left, right)
            assert got == (None if None in cols else QMatrix.from_cols(cols, space.rank))


def _class(space, v, n):
    """The class of ``v`` modulo the columns kept before the last ``n``, or None when ``v`` lies
    outside the space: the one-column read behind ``class_of`` and ``class_in_entry``."""
    coords = space.coords_matrix(QMatrix.from_cols([v], space.dim), QMatrix.identity(1))
    return None if coords is None else _tail(coords, n).column(0)


def test_rowspace_coords_of_reps_modulo_dependent_denominators():
    # the page-entry layout: a dependent spanning set of denominators, then reps
    rng = random.Random(99)
    for _ in range(30):
        n = rng.randint(1, 8)
        denom = [_random_vector(rng, n) for _ in range(rng.randint(0, 3))]
        denom += [_combo(rng, denom, n) for _ in range(rng.randint(0, 2))]
        z = [_random_vector(rng, n) for _ in range(rng.randint(0, 4))]
        rs = RowSpace(QMatrix.from_cols(denom + z, n))
        reps = [z[c - len(denom)] for c in rs.columns if c >= len(denom)]
        assert [z[c] for c in rs.columns_from(len(denom))] == reps
        cols = reps + denom
        for x in _probes(rng, cols, n):
            slow = solve(QMatrix.from_cols(cols, n), x)
            fast = rs.coords(x)
            assert (fast is None) == (slow is None)
            if fast is not None:
                assert fast[rs.rank - len(reps):] == slow[: len(reps)]
            assert _class(rs, x, len(reps)) == (None if slow is None else slow[: len(reps)])


def test_rowspace_quotient_reads_on_a_rank_zero_space():
    empty = RowSpace(QMatrix.zero(3, 2))
    assert empty.rank == 0 and empty.columns_from(0) == empty.columns_from(1) == []
    assert _class(empty, (Fraction(0),) * 3, 0) == ()
    assert _class(empty, (Fraction(0), Fraction(1), Fraction(0)), 0) is None


def test_rowspace_quotient_reads_when_a_candidate_repeats_a_denominator():
    def col(*xs):
        return tuple(Fraction(x) for x in xs)

    denom = [col(1, 0, 0, 0), col(0, 1, 1, 0)]
    # the first candidate repeats a denominator and the third is a combination of the others
    z = [col(1, 0, 0, 0), col(0, 0, 1, 0), col(1, 1, 2, 0), col(0, 0, 0, 0), col(0, 0, 0, 2)]
    rs = RowSpace(QMatrix.from_cols(denom + z, 4))
    assert rs.columns == [0, 1, 3, 6]
    assert rs.columns_from(len(denom)) == [1, 4]
    assert rs.columns_from(len(denom) + 2) == [2]
    kept = QMatrix.from_cols([(denom + z)[c] for c in rs.columns], 4)
    members = [col(2, 3, 5, 0), col(1, 0, 0, 0), col(0, 1, 1, 6), col(0, 0, 0, 0)]
    for v, x in zip(members, solve_many(kept, members)):
        assert _class(rs, v, 2) == x[2:]
    # a rank-4 space holds every vector; drop the last candidate to leave one outside
    small = RowSpace(QMatrix.from_cols(denom + z[:4], 4))
    assert small.columns_from(len(denom)) == [1]
    assert _class(small, col(0, 0, 0, 1), 1) is None


def _kernel_cases(rng):
    """Matrices with rank-deficient, zero-column, zero-row and empty kernels."""
    cases = [QMatrix.zero(3, 0), QMatrix.zero(0, 4), QMatrix.zero(2, 3), QMatrix.identity(4)]
    for _ in range(25):
        rows, cols = rng.randint(1, 6), rng.randint(1, 8)
        m = random_qmatrix(rng, rows, cols, density=rng.choice([0.2, 0.5]))
        if rows > 1 and rng.random() < 0.5:
            # repeat a row so the matrix is rank-deficient
            m = m.vstack(QMatrix(1, cols, {(0, c): v for (r, c), v in m.entries.items() if r == 0}))
        cases.append(m)
    cases.append(random_qmatrix(rng, 5, 70, density=0.05))
    return cases


def test_kernel_free_column_coords_match_solve_and_oracle():
    rng = random.Random(31)
    for m in _kernel_cases(rng):
        basis = kernel_basis(m)
        ker = KernelBasis(m)
        assert ker.vectors == basis
        assert ker.rank == m.cols - rank(m)
        assert ker.inclusion == QMatrix.from_cols(basis, m.cols)
        probes = _probes(rng, basis, m.cols)
        for x in probes:
            expected = solve(ker.inclusion, x)
            assert ker.coords(x) == expected
            member = naive_rank([list(v) for v in basis] + [list(x)]) == len(basis)
            assert member == (expected is not None)
        assert ker.coords_many(probes) == [ker.coords(x) for x in probes]


def test_kernel_membership_matches_dense_matvec():
    rng = random.Random(73)
    cases = _kernel_cases(rng)  # zero matrices and an empty kernel among them
    for rows, cols in [(3, 7), (4, 4), (6, 3)]:  # 70-bit entries
        cases.append(
            QMatrix(rows, cols, {(i, j): _big(rng) for i in range(rows) for j in range(cols) if rng.random() < 0.6})
        )
    seen = set()
    for m in cases:
        ker = KernelBasis(m)
        probes = _probes(rng, ker.vectors, m.cols)
        # members moved by one coordinate, which leaves the kernel unless that column is zero
        cols = rng.sample(range(m.cols), min(m.cols, 4))
        probes += [x[:c] + (x[c] + 1,) + x[c + 1 :] for x in probes[:3] for c in cols]
        for x, got in zip(probes, ker.coords_many(probes)):
            member = not any(m.matvec(x))
            assert (got is not None) == member
            seen.add(member)
            if member:
                assert ker.inclusion.matvec(got) == x
        with pytest.raises(InputError, match="kernel basis") as info:
            ker.coords_many([(Fraction(0),) * (m.cols + 1)])
        assert "matvec" not in str(info.value)
    assert seen == {True, False}


def test_kernel_basis_matches_the_dense_construction():
    rng = random.Random(43)
    cases = _kernel_cases(rng)
    # entries of one size tie many vectors at their first nonzero coordinate
    cases += [random_qmatrix(rng, rng.randint(1, 6), rng.randint(2, 9), density=0.4, span=1) for _ in range(40)]
    for m in cases:
        ker, dense = KernelBasis(m), dense_kernel(m)
        assert ker.vectors == dense.vectors == dense_kernel_basis(m)
        assert ker.inclusion == dense.inclusion
        probes = _probes(rng, dense.vectors, m.cols)
        assert ker.coords_many(probes) == dense.coords_many(probes)


def test_span_basis_of_any_spanning_set_is_the_canonical_kernel_basis():
    rng = random.Random(59)
    cases = _kernel_cases(rng)
    cases += [random_qmatrix(rng, rng.randint(1, 6), rng.randint(2, 9), density=0.4, span=1) for _ in range(40)]
    for m in cases:
        basis = kernel_basis(m)
        # a dependent spanning set, shuffled: combinations, multiples of each vector, and a zero
        spanning = [_combo(rng, basis, m.cols) for _ in range(len(basis) + 2)]
        spanning += [_combo(rng, [v], m.cols) for v in basis] + basis + [(Fraction(0),) * m.cols]
        rng.shuffle(spanning)
        sparse = [{c: x for c, x in enumerate(v) if x} for v in spanning]
        got = [tuple(v.get(c, Fraction(0)) for c in range(m.cols)) for v in exactlin._span_basis(sparse, m.cols)]
        assert got == basis


def test_kernel_coords_matrix_matches_coords_of_each_column():
    rng = random.Random(59)
    seen = set()
    for m in _kernel_cases(rng):
        ker = KernelBasis(m)
        probes = QMatrix.from_cols(_probes(rng, ker.vectors, m.cols), m.cols)  # mostly outside
        factors = [
            (ker.inclusion, random_qmatrix(rng, ker.rank, 3)),  # members
            (probes, QMatrix.identity(probes.cols)),
            (probes, random_qmatrix(rng, probes.cols, 2, density=0.3)),
            (probes.scale(0), random_qmatrix(rng, probes.cols, 2)),
        ]
        for left, right in factors:
            mat = left.matmul(right)
            cols = ker.coords_many(mat.to_cols())
            got = ker.coords_matrix(left, right)
            if None in cols:
                assert got is None
            else:
                assert got == QMatrix.from_cols(cols, ker.rank)
                assert ker.inclusion.matmul(got) == mat
            seen.add(got is None)
        # the same read against the dense kernel oracle and Fraction products
        _check_coords_matrix(rng, ker, dense_kernel(m), ker.vectors, _probes(rng, ker.vectors, m.cols))
    assert seen == {True, False}


def test_kernel_coords_matrix_refuses_factors_that_do_not_compose():
    ker = KernelBasis(QMatrix.from_rows([[1, 1, 0]]))
    with pytest.raises(InputError, match="inner dimensions"):
        ker.coords_matrix(QMatrix.identity(3), QMatrix.identity(2))


def test_sparse_columns_are_the_nonzero_column_entries_rows_ascending():
    rng = random.Random(61)
    for m in _kernel_cases(rng):
        got = m.sparse_columns()
        assert sorted(got) == sorted({c for _, c in m.entries})
        for c in range(m.cols):
            assert got.get(c, []) == [(r, x) for r, x in enumerate(m.column(c)) if x]
    # a fresh dict each call: callers may keep it
    m = QMatrix.identity(2)
    assert m.sparse_columns() is not m.sparse_columns()


# -- keyed bases -------------------------------------------------------------

def test_keyed_basis_positions_vectors_and_matrices():
    basis = KeyedBasis(["x", ("y", 1), 7])
    assert basis.keys == ("x", ("y", 1), 7)
    assert basis.index == {"x": 0, ("y", 1): 1, 7: 2}
    assert len(basis) == 3
    assert basis.vector({7: Fraction(2), "x": Fraction(-1, 3)}) == (Fraction(-1, 3), 0, 2)
    assert basis.vector({}) == (0, 0, 0)
    m = basis.matrix([{("y", 1): 5}, {}, {"x": 1, 7: -1}])
    assert (m.rows, m.cols) == (3, 3)
    assert m == QMatrix.from_cols([(0, 5, 0), (0, 0, 0), (1, 0, -1)], 3)


def test_keyed_basis_rejects_keys_outside_the_basis():
    basis = KeyedBasis(["a", "b"])
    with pytest.raises(InputError, match="'c' is not an element of the basis"):
        basis.vector({"a": 1, "c": 2})
    with pytest.raises(InputError, match="'c' is not an element of the basis"):
        basis.matrix([{"a": 1}, {"c": 1}])
    with pytest.raises(InputError, match="distinct"):
        KeyedBasis(["a", "b", "a"])


# -- the integer elimination engine against the Fraction reference -----------

def _dense(rows, ncols):
    return [[row.get(c, Fraction(0)) for c in range(ncols)] for row in rows]


def _read_echelon(m, pivot_cols, out=None):
    """The rows of ``_int_echelon(m, pivot_cols)`` (or of its result ``out``) over the
    rationals, as ``(rows, pivots)``: each pivot row divided by its entry at the pivot,
    the other rows as they are."""
    prows, pivots, rest = out or exactlin._int_echelon(m, pivot_cols)
    rows = [{c: Fraction(v, row[p]) for c, v in row.items()} for row, p in zip(prows, pivots)]
    return rows + [{c: Fraction(v) for c, v in row.items()} for row in rest], pivots


def _assert_same_echelon(m, pivot_cols, got):
    """``got`` from :func:`_read_echelon` agrees with the Fraction reference.

    Past the pivot rows each engine leaves some spanning set of the
    residuals: they must have the same support (the inconsistent trailing
    columns) and the same span.  The pivots are those of the unique reduced
    echelon form of the first ``pivot_cols`` columns, and the pivot rows are
    unique up to residuals, so they must agree outside the residual support.
    """
    rows, pivots = got
    ref_rows, ref_pivots = fraction_echelon(m, pivot_cols)
    r = len(ref_pivots)
    assert len(rows) == m.rows
    assert pivots == ref_pivots
    support = set().union(*rows[r:])
    assert support == set().union(*ref_rows[r:])
    for row, ref in zip(rows[:r], ref_rows[:r]):
        assert {c: v for c, v in row.items() if c not in support} == {
            c: v for c, v in ref.items() if c not in support
        }
    res, ref_res = _dense(rows[r:], m.cols), _dense(ref_rows[r:], m.cols)
    assert naive_rank(res) == naive_rank(ref_res) == naive_rank(res + ref_res)


def _hilbert(n):
    return QMatrix.from_rows([[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)])


def _engine_cases(rng):
    """Tall, wide, zero-row, zero-column, rank-deficient and 70-bit matrices."""
    cases = [QMatrix.zero(0, 4), QMatrix.zero(3, 0), QMatrix.zero(0, 0), QMatrix.zero(4, 5), _hilbert(8)]
    for rows, cols in [(12, 5), (5, 12), (9, 9), (1, 7), (7, 1), (6, 80)]:
        for density in (0.15, 0.6):
            m = random_qmatrix(rng, rows, cols, density=density)
            cases.append(m)
            # a row that is a combination of two others makes it rank-deficient
            if rows > 2:
                extra = [a - 3 * b for a, b in zip(*m.to_rows()[:2])]
                cases.append(m.vstack(QMatrix.from_rows([extra], cols)))
    for rows, cols in [(6, 4), (4, 6), (5, 5)]:
        cases.append(
            QMatrix(rows, cols, {(i, j): _big(rng) for i in range(rows) for j in range(cols) if rng.random() < 0.7})
        )
    return cases


def _lead_index(v):
    return next((i for i, x in enumerate(v) if x), len(v)), v


def test_engine_matches_fraction_reference():
    rng = random.Random(4242)
    for m in _engine_cases(rng):
        for pivot_cols in sorted({m.cols, m.cols // 2, 0}):
            _assert_same_echelon(m, pivot_cols, _read_echelon(m, pivot_cols))
        ref_rows, ref_pivots = fraction_echelon(m)
        r, pivots, red = rref(m)
        assert (r, pivots) == (len(ref_pivots), tuple(ref_pivots))
        assert red == QMatrix(m.rows, m.cols, {(i, c): v for i, row in enumerate(ref_rows) for c, v in row.items()})
        # the kernel, rebuilt from the reference echelon form
        kernel = []
        for f in (c for c in range(m.cols) if c not in ref_pivots):
            v = [Fraction(0)] * m.cols
            v[f] = Fraction(1)
            for i, p in enumerate(ref_pivots):
                v[p] = -ref_rows[i].get(f, Fraction(0))
            lead = next(x for x in v if x)
            kernel.append(tuple(x / lead for x in v))
        assert kernel_basis(m) == sorted(kernel, key=_lead_index)


def test_column_space_matches_fraction_reference():
    rng = random.Random(4242)
    for m in _engine_cases(rng):
        t_rows, t_pivots = fraction_echelon(QMatrix(m.cols, m.rows, {(c, r): v for (r, c), v in m.entries.items()}))
        space = RowSpace(m)
        assert space.pivots == tuple(t_pivots)
        assert space.rank == len(t_pivots)
        for row in t_rows[: len(t_pivots)]:
            assert space.contains(tuple(row.get(c, Fraction(0)) for c in range(m.rows)))
        # a column is kept exactly when it enlarges the span of the columns before it
        ranks = [naive_rank([list(m.column(c)) for c in range(j)]) for j in range(m.cols + 1)]
        assert space.columns == [j for j in range(m.cols) if ranks[j + 1] > ranks[j]]


def _fraction_solve(m, b):
    """Solution of ``m x = b`` with free variables zero, from the Fraction reference, or None."""
    rows, pivots = fraction_echelon(m.hstack(QMatrix.from_cols([b], m.rows)), m.cols)
    if any(row.get(m.cols) for row in rows[len(pivots):]):
        return None
    x = [Fraction(0)] * m.cols
    for row, p in zip(rows, pivots):
        x[p] = row.get(m.cols, Fraction(0))
    return tuple(x)


def _check_solutions(m, rhs):
    """``solve_many`` against the Fraction reference and exact substitution."""
    solutions = solve_many(m, rhs)
    assert solutions == [_fraction_solve(m, b) for b in rhs]
    for b, x in zip(rhs, solutions):
        if x is not None:
            assert m.matvec(x) == tuple(b)
    aug = m.hstack(QMatrix.from_cols(rhs, m.rows))
    _assert_same_echelon(aug, m.cols, _read_echelon(aug, m.cols))


def test_solve_many_matches_substitution_and_reference():
    rng = random.Random(77)
    for m in _engine_cases(rng):
        consistent = [m.matvec(tuple(_big(rng, 8) for _ in range(m.cols))) for _ in range(2)]
        arbitrary = [tuple(_big(rng, 8) if rng.random() < 0.5 else Fraction(0) for _ in range(m.rows))]
        _check_solutions(m, consistent + arbitrary)


def test_hilbert_augmented_solve():
    h = _hilbert(8)
    x = tuple(Fraction((-1) ** i * (i + 1)) for i in range(8))
    b = h.matvec(x)
    assert solve_many(h, [b, h.column(3)]) == [x, unit_vector(8, 3)]
    # a ninth row, the sum of the first two, makes right-hand sides inconsistent
    h9 = h.vstack(QMatrix.from_rows([[a + c for a, c in zip(h.to_rows()[0], h.to_rows()[1])]]))
    good = h9.matvec(x)
    bad = good[:8] + (good[8] + 1,)
    assert solve_many(h9, [good, bad]) == [x, None]
    _check_solutions(h9, [good, bad])


def _sparse_int_cases(rng):
    """Sparse integer matrices with two zero columns, a duplicate row and a row that combines
    two others, rows shuffled."""
    cases = []
    for rows, cols in [(5, 4), (8, 6), (6, 10), (12, 12), (7, 20)]:
        for _ in range(3):
            zero = set(rng.sample(range(cols), 2))
            base = [
                {c: rng.choice([-3, -2, -1, 1, 2, 5]) for c in range(cols) if c not in zero and rng.random() < 0.35}
                for _ in range(rows - 2)
            ]
            combo = {c: base[1].get(c, 0) - 2 * base[2].get(c, 0) for c in set(base[1]) | set(base[2])}
            full = base + [dict(base[0]), combo]
            rng.shuffle(full)
            cases.append(QMatrix(rows, cols, {(r, c): v for r, row in enumerate(full) for c, v in row.items() if v}))
    return cases


def _reference_span_basis(vectors, dim):
    """The canonical basis of a span from the Fraction reference: the reduced echelon form with
    the columns taken last to first, each vector scaled to lead with 1, sorted as dense tuples."""
    flipped = QMatrix(len(vectors), dim, {(i, dim - 1 - c): x for i, v in enumerate(vectors) for c, x in v.items()})
    rows, pivots = fraction_echelon(flipped)
    basis = []
    for row in rows[: len(pivots)]:
        v = [Fraction(0)] * dim
        for c, x in row.items():
            v[dim - 1 - c] = x
        lead = next(x for x in v if x)
        basis.append(tuple(x / lead for x in v))
    return sorted(basis, key=_lead_index)


def test_back_substituted_engine_matches_fraction_reference():
    """The forward pass and one back substitution give the reference's pivots, and each pivot
    row is a primitive integer row, its reference row times its entry at the pivot, outside the
    trailing columns where residuals live; rref, solve_many and _span_basis read the same
    answers off them."""
    rng = random.Random(2030)
    cases = _sparse_int_cases(rng)
    for m in cases:
        for pivot_cols in (m.cols, m.cols - 3):
            prows, pivots, rest = exactlin._int_echelon(m, pivot_cols)
            ref_rows, ref_pivots = fraction_echelon(m, pivot_cols)
            assert pivots == ref_pivots
            support = set().union(*rest)
            assert all(c >= pivot_cols for c in support)
            for row, ref, p in zip(prows, ref_rows, pivots):
                assert math.gcd(*row.values()) == 1
                assert {c: Fraction(v, row[p]) for c, v in row.items() if c not in support} == {
                    c: v for c, v in ref.items() if c not in support
                }
        r, pivots, red = rref(m)
        ref_rows, ref_pivots = fraction_echelon(m)
        assert (r, pivots) == (len(ref_pivots), tuple(ref_pivots))
        assert red == QMatrix(m.rows, m.cols, {(i, c): v for i, row in enumerate(ref_rows) for c, v in row.items()})
        consistent = [m.matvec(tuple(Fraction(rng.randint(-3, 3)) for _ in range(m.cols))) for _ in range(2)]
        arbitrary = [tuple(Fraction(rng.randint(-2, 2)) for _ in range(m.rows))]
        _check_solutions(m, consistent + arbitrary)
        rows = [{c: m.entry(i, c) for c in range(m.cols) if m.entry(i, c)} for i in range(m.rows)]
        got = [tuple(v.get(c, Fraction(0)) for c in range(m.cols)) for v in exactlin._span_basis(rows, m.cols)]
        assert got == _reference_span_basis(rows, m.cols)
    # the cases are rank-deficient, and some leave residuals past the pivots
    assert all(rank(m) < m.rows for m in cases)
    assert any(exactlin._int_echelon(m, m.cols - 3)[2][0] for m in cases if m.rows > rank(m))


# sha256 of the cohomology representatives, cup table (every product in it is
# dropped at these cutoffs) and class coordinates of every kernel-basis cocycle
# of the global sections of a suspension system over the boundary of the
# 3-simplex, and of the complement chosen by the suspension of the forms on the
# 2-simplex; recorded before column spaces moved to RowSpace
PINNED_SPAN_CHOICES = "f501e5de11c487b721f7786a1d9adfd4e407aa5e0586f02260724b4302bab06e"


def test_cohomology_and_complement_choices_are_pinned():
    from cdgalab.cdga import cohomology
    from cdgalab.errors import CutoffTooSmallError
    from cdgalab.gluing import suspension_model
    from cdgalab.localsys import global_sections
    from cdgalab.polyforms import forms_dga
    from test_specseq import _small_suspension_system

    def strs(v):
        return [str(x) for x in v]

    def cup_or_dropped(h, p, i, q, j):
        try:
            return strs(h.cup(p, i, q, j))
        except CutoffTooSmallError:
            return "dropped"

    g = global_sections(_small_suspension_system(), 4)
    h = cohomology(g, 3)
    comp = suspension_model(forms_dga(2, 3), 3).complement_choice
    assert (len(comp), len(comp[0])) == (3, 12)
    payload = {
        "reps": [[strs(v) for v in h.reps[k]] for k in range(4)],
        "cups": [
            [p, i, q, j, cup_or_dropped(h, p, i, q, j)]
            for p in range(4) for q in range(4 - p) for i in range(h.dims[p]) for j in range(h.dims[q])
        ],
        "classes": [[strs(h.class_of(k, z)) for z in kernel_basis(g.d_matrix(k))] for k in range(4)],
        "complement": [strs(v) for v in comp],
    }
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    assert digest == PINNED_SPAN_CHOICES


def test_engine_matches_fraction_reference_on_recorded_traffic(monkeypatch):
    """Every elimination of a small spectral sequence and a minimal model, replayed."""
    from cdgalab.specseq import einfty_vs_target
    from cdgalab.sullivan import minimal_model
    from test_specseq import _small_suspension_system

    engine = exactlin._int_echelon
    calls = []

    def recording(m, pivot_cols=None):
        out = engine(m, pivot_cols)
        calls.append((m, pivot_cols, out))
        return out

    monkeypatch.setattr(exactlin, "_int_echelon", recording)
    assert einfty_vs_target(_small_suspension_system(), 3).ok()
    spectral = len(calls)
    minimal_model(wedge_of_2_spheres(2, 7), 6)
    assert 0 < spectral < len(calls)
    for m, pivot_cols, out in calls:
        # each pivot row is its reduced row times its entry at the pivot
        _assert_same_echelon(m, pivot_cols, _read_echelon(m, pivot_cols, out))


# -- integer matvec, matmul and kernels against the Fraction loops -----------

def _mixed(rng, rows, cols, density=0.5):
    """70-bit numerators over mixed denominators."""
    return QMatrix(
        rows,
        cols,
        {(i, j): _big(rng) / rng.choice([1, 1, 2, 3, 10**20 + 7]) for i in range(rows) for j in range(cols) if rng.random() < density},
    )


def _assert_same_products(m, vectors, others):
    for v in vectors:
        got = m.matvec(v)
        assert got == fraction_matvec(m, v)
        assert all(type(x) is Fraction for x in got)
    for b in others:
        got = m.matmul(b)
        assert got == fraction_matmul(m, b)
        assert all(type(x) is Fraction for x in got.entries.values())


def test_plumbing_and_kernels_match_fraction_loops():
    rng = random.Random(2718)
    cases = _engine_cases(rng) + [_mixed(rng, r, c) for r, c in [(5, 7), (8, 3), (1, 9), (6, 6)]]
    cases += [QMatrix.zero(0, 5), QMatrix.zero(5, 0), QMatrix.identity(3).scale(Fraction(2, 3))]
    for m in cases:
        assert kernel_basis(m) == dense_kernel_basis(m)
        assert rank(m) == rref(m)[0]
        vectors = [
            (Fraction(0),) * m.cols,
            tuple(_big(rng) / rng.randint(1, 9) if rng.random() < 0.5 else Fraction(0) for _ in range(m.cols)),
            tuple(Fraction(rng.randint(-3, 3)) for _ in range(m.cols)),
        ]
        others = [
            _mixed(rng, m.cols, rng.randint(0, 4)),
            QMatrix.identity(m.cols),
            QMatrix.zero(m.cols, 2),
            random_qmatrix(rng, m.cols, 3, density=0.3),
        ]
        _assert_same_products(m, vectors, others)
        # a second pass reads the cached column index
        _assert_same_products(m, vectors, others)


def test_plumbing_and_kernels_match_fraction_loops_on_recorded_traffic(monkeypatch):
    """Every matvec, matmul, kernel coordinate read and full elimination of a
    small spectral sequence and a minimal model, replayed against the loops."""
    from cdgalab.specseq import einfty_vs_target
    from cdgalab.sullivan import minimal_model
    from test_specseq import _small_suspension_system

    calls = {"matvec": [], "matmul": [], "read": [], "coords_matrix": [], "kernel": []}
    engine, matvec, matmul, read = exactlin._int_echelon, QMatrix.matvec, QMatrix.matmul, KernelBasis._read
    coords_matrix = KernelBasis.coords_matrix

    def recording(name, fn):
        def wrapper(*args):
            out = fn(*args)
            calls[name].append((args, out))
            return out

        return wrapper

    def full_elimination(m, pivot_cols=None):
        if pivot_cols is None:
            calls["kernel"].append(m)
        return engine(m, pivot_cols)

    monkeypatch.setattr(exactlin, "_int_echelon", full_elimination)
    monkeypatch.setattr(QMatrix, "matvec", recording("matvec", matvec))
    monkeypatch.setattr(QMatrix, "matmul", recording("matmul", matmul))
    monkeypatch.setattr(KernelBasis, "_read", recording("read", read))
    monkeypatch.setattr(KernelBasis, "coords_matrix", recording("coords_matrix", coords_matrix))
    assert einfty_vs_target(_small_suspension_system(), 3).ok()
    minimal_model(wedge_of_2_spheres(2, 7), 6)
    monkeypatch.undo()
    assert all(calls.values())
    for (m, v), out in calls["matvec"]:
        assert out == fraction_matvec(m, v)
    for (a, b), out in calls["matmul"]:
        assert out == fraction_matmul(a, b)
    # the shared core: one integer column over a denominator, read in the kernel or refused
    for (ker, col, den), out in calls["read"]:
        x = tuple(Fraction(col.get(c, 0), den) for c in range(ker.matrix.cols))
        assert (out is not None) == (not any(fraction_matvec(ker.matrix, x)))
        if out is not None:
            assert fraction_matvec(ker.inclusion, [out.get(j, Fraction(0)) for j in range(ker.rank)]) == x
    for (ker, left, right), out in calls["coords_matrix"]:
        images = fraction_matmul(left, right)
        assert (out is not None) == fraction_matmul(ker.matrix, images).is_zero()
        if out is not None:
            assert fraction_matmul(ker.inclusion, out) == images
    for m in calls["kernel"]:
        assert kernel_basis(m) == dense_kernel_basis(m)
