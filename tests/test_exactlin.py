import random
from fractions import Fraction

import pytest

from cdgalab.errors import InputError
from cdgalab.exactlin import (
    KernelBasis,
    KeyedBasis,
    QMatrix,
    RowSpace,
    column_space_basis,
    complement_basis,
    kernel_basis,
    rank,
    rref,
    solve,
    solve_many,
    unit_vector,
    vec_is_zero,
)

from helpers import minor_rank, naive_rank, random_qmatrix


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
            assert vec_is_zero(m.matvec(v))


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


def test_complement_full_basis_is_empty():
    sub = [unit_vector(3, i) for i in range(3)]
    assert complement_basis(sub, 3) == []


def test_complement_of_nothing_is_everything():
    assert len(complement_basis([], 2)) == 2


def test_complement_makes_full_rank():
    sub = [(Fraction(1), Fraction(1), Fraction(0))]
    comp = complement_basis(sub, 3)
    assert len(comp) == 2
    m = QMatrix.from_rows([list(v) for v in sub + comp])
    assert rank(m) == 3


def test_complement_randomized_full_rank():
    rng = random.Random(13)
    for _ in range(20):
        dim = rng.randint(1, 7)
        k = rng.randint(0, dim)
        sub = [
            tuple(Fraction(rng.randint(-3, 3)) for _ in range(dim)) for _ in range(k)
        ]
        m = QMatrix.from_rows([list(v) for v in sub], dim) if sub else QMatrix.zero(0, dim)
        r = rank(m) if sub else 0
        comp = complement_basis(sub, dim)
        assert len(comp) == dim - r
        full = QMatrix.from_rows([list(v) for v in sub + comp], dim)
        assert rank(full) == dim


def test_column_space_basis():
    m = QMatrix.from_rows([[1, 2], [2, 4], [0, 0]])
    basis = column_space_basis(m)
    assert len(basis) == 1
    assert basis[0] == (Fraction(1), Fraction(2), Fraction(0))


def test_rowspace_membership_and_growth():
    rs = RowSpace(3)
    assert rs.add((Fraction(1), Fraction(0), Fraction(1)))
    assert not rs.add((Fraction(2), Fraction(0), Fraction(2)))
    assert rs.contains((Fraction(-1), Fraction(0), Fraction(-1)))
    assert not rs.contains((Fraction(0), Fraction(1), Fraction(0)))
    assert rs.rank == 1


def test_sparse_and_dense_paths_agree():
    # 70 columns forces the sparse path; embed a small dense-path matrix
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
    n = 70  # past the dense-elimination width
    base = [_random_vector(rng, n, density=0.05) for _ in range(8)]
    cases.append((n, base + [_combo(rng, base[:3], n)]))
    return cases


def test_rowspace_coords_match_solve_and_oracle():
    rng = random.Random(2024)
    for n, added in _rowspace_cases(rng):
        rs = RowSpace(n, added)
        assert rs.rank == len(rs.generators) == naive_rank([list(v) for v in added])
        m = QMatrix.from_cols(rs.generators, n)
        for x in _probes(rng, added, n):
            expected = solve(m, x)
            assert rs.coords(x) == expected
            member = naive_rank([list(v) for v in rs.generators] + [list(x)]) == rs.rank
            assert rs.contains(x) == member == (expected is not None)
        # the cached transform is dropped when the span grows
        if n:
            fresh = _random_vector(rng, n)
            if rs.add(fresh):
                assert rs.coords(fresh) == solve(QMatrix.from_cols(rs.generators, n), fresh)


def test_rowspace_express_raises_with_message():
    rs = RowSpace(2, [(Fraction(1), Fraction(1))])
    assert rs.express([(Fraction(2), Fraction(2))], "outside") == [(Fraction(2),)]
    with pytest.raises(InputError, match="outside"):
        rs.express([(Fraction(2), Fraction(2)), (Fraction(1), Fraction(0))], "outside")


def test_rowspace_coords_of_reps_modulo_dependent_denominators():
    # the page-entry layout: a dependent spanning set of denominators, then reps
    rng = random.Random(99)
    for _ in range(30):
        n = rng.randint(1, 8)
        denom = [_random_vector(rng, n) for _ in range(rng.randint(0, 3))]
        denom += [_combo(rng, denom, n) for _ in range(rng.randint(0, 2))]
        z = [_random_vector(rng, n) for _ in range(rng.randint(0, 4))]
        rs = RowSpace(n, denom)
        reps = [v for v in z if rs.add(v)]
        cols = reps + denom
        for x in _probes(rng, cols, n):
            slow = solve(QMatrix.from_cols(cols, n), x)
            fast = rs.coords(x)
            assert (fast is None) == (slow is None)
            if fast is not None:
                assert fast[rs.rank - len(reps):] == slow[: len(reps)]


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
        ker = KernelBasis(m, basis)
        assert ker.rank == m.cols - rank(m)
        assert ker.inclusion == QMatrix.from_cols(basis, m.cols)
        probes = _probes(rng, basis, m.cols)
        for x in probes:
            expected = solve(ker.inclusion, x)
            assert ker.coords(x) == expected
            member = naive_rank([list(v) for v in basis] + [list(x)]) == len(basis)
            assert member == (expected is not None)
        assert ker.coords_many(probes) == [ker.coords(x) for x in probes]


def test_kernel_basis_needs_a_private_column_per_vector():
    m = QMatrix.zero(1, 2)
    one, two = Fraction(1), Fraction(2)
    with pytest.raises(InputError):
        KernelBasis(m, [(one, one), (one, two)])


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
