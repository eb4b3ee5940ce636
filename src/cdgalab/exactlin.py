"""Exact rational linear algebra kernel.

Every cohomology, rank and solving operation in the library funnels through
this module, and it is the only one that writes a vector in a basis
(:class:`KeyedBasis`, :class:`RowSpace`, :class:`KernelBasis`).  Scalars are
:class:`fractions.Fraction` (arbitrary precision, always in lowest terms,
positive denominator), so results are exact and reproducible.  Matrices are
stored sparsely.  Elimination clears each row to integers, reduces over the
integers through a column -> rows index and builds Fractions only for the
result; kernels are sparse columns read off the integer echelon rows, held by
:class:`KernelBasis` and densified by :func:`kernel_basis`.  ``matvec`` and ``matmul``
accumulate integers over a common denominator; ``matvec`` walks a column index
kept on the immutable matrix.

Determinism rules used throughout:

* the reduced row echelon form is unique, so the pivot rule (smallest column
  first, then the smallest entry, then the shortest row, then the first row)
  affects speed only;
* every returned basis is normalised (leading coefficient 1) and sorted by
  the index of its first nonzero coordinate, then lexicographically.
"""

from __future__ import annotations

import re
from collections import defaultdict
from fractions import Fraction
from math import gcd, lcm
from typing import Hashable, Iterable, Mapping, Optional, Sequence

from .errors import InputError

ZERO = Fraction(0)
ONE = Fraction(1)

Vector = tuple[Fraction, ...]


_RATIONAL_LITERAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def rat(x) -> Fraction:
    """Coerce a Fraction, an int or a ``"p"`` / ``"p/q"`` string to Fraction.

    Bools, floats, decimal or exponent strings and a zero denominator raise
    :class:`InputError`.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        m = _RATIONAL_LITERAL.fullmatch(x)
        if m is not None:
            den = int(m[2]) if m[2] is not None else 1
            if den:
                return Fraction(int(m[1]), den)
    raise InputError(f"cannot interpret {x!r} as a rational number: write an integer or 'p/q'")


def format_rat(x: Fraction) -> str:
    """Render a rational as ``p`` or ``p/q`` (never decimal)."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------

def zero_vector(n: int) -> Vector:
    return (ZERO,) * n


def unit_vector(n: int, i: int) -> Vector:
    return tuple(ONE if j == i else ZERO for j in range(n))


def vec_is_zero(a: Vector) -> bool:
    return not any(a)


def concat(*vs: Vector) -> Vector:
    out: list[Fraction] = []
    for v in vs:
        out.extend(v)
    return tuple(out)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class QMatrix:
    """Immutable sparse matrix over the rationals.

    ``entries`` maps ``(row, col)`` to a nonzero Fraction; zeros are never
    stored.
    """

    __slots__ = ("rows", "cols", "entries", "_by_col")

    def __init__(self, rows: int, cols: int, entries: Optional[dict] = None):
        if rows < 0 or cols < 0:
            raise InputError("matrix dimensions must be non-negative")
        self.rows = rows
        self.cols = cols
        self._by_col: Optional[tuple[int, dict[int, list[tuple[int, int]]]]] = None
        clean: dict[tuple[int, int], Fraction] = {}
        if entries:
            for (r, c), v in entries.items():
                if not (0 <= r < rows and 0 <= c < cols):
                    raise InputError(f"entry index ({r},{c}) outside {rows}x{cols}")
                fv = rat(v)
                if fv:
                    clean[(r, c)] = fv
        self.entries = clean

    # -- construction -------------------------------------------------
    @classmethod
    def _of(cls, rows: int, cols: int, entries: dict[tuple[int, int], Fraction]) -> "QMatrix":
        """A matrix on nonzero Fractions at in-range indices, unchecked."""
        out = cls.__new__(cls)
        out.rows, out.cols, out.entries, out._by_col = rows, cols, entries, None
        return out

    @classmethod
    def from_rows(cls, data: Sequence[Sequence], cols: Optional[int] = None) -> "QMatrix":
        nrows = len(data)
        if cols is None:
            cols = len(data[0]) if nrows else 0
        entries = {}
        for i, row in enumerate(data):
            if len(row) != cols:
                raise InputError("ragged rows in matrix literal")
            for j, v in enumerate(row):
                fv = rat(v)
                if fv:
                    entries[(i, j)] = fv
        return cls(nrows, cols, entries)

    @classmethod
    def from_cols(cls, cols_data: Sequence[Vector], rows: int) -> "QMatrix":
        entries = {}
        for j, col in enumerate(cols_data):
            if len(col) != rows:
                raise InputError("column length mismatch")
            for i, v in enumerate(col):
                if v:
                    entries[(i, j)] = rat(v)
        return cls._of(rows, len(cols_data), entries)

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls(n, n, {(i, i): ONE for i in range(n)})

    @classmethod
    def zero(cls, rows: int, cols: int) -> "QMatrix":
        return cls(rows, cols, {})

    # -- access -------------------------------------------------------
    def entry(self, r: int, c: int) -> Fraction:
        return self.entries.get((r, c), ZERO)

    def column(self, c: int) -> Vector:
        return tuple(self.entries.get((r, c), ZERO) for r in range(self.rows))

    def sparse_columns(self) -> dict[int, list[tuple[int, Fraction]]]:
        """The nonempty columns as ``(row, entry)`` lists, rows ascending; not cached."""
        by_col: dict[int, list[tuple[int, Fraction]]] = {}
        for (r, c), v in sorted(self.entries.items()):
            by_col.setdefault(c, []).append((r, v))
        return by_col

    def to_rows(self) -> list[list[Fraction]]:
        out = [[ZERO] * self.cols for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            out[r][c] = v
        return out

    def to_cols(self) -> list[Vector]:
        """The columns as dense vectors."""
        out = [[ZERO] * self.rows for _ in range(self.cols)]
        for (r, c), v in self.entries.items():
            out[c][r] = v
        return list(map(tuple, out))

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(sorted(self.entries.items()))))

    def __repr__(self) -> str:
        return f"QMatrix({self.rows}x{self.cols}, {len(self.entries)} nz)"

    # -- arithmetic ---------------------------------------------------
    def _int_columns(self, keep: bool = False) -> tuple[int, dict[int, list[tuple[int, int]]]]:
        """``(den, columns)``: the nonempty columns as ``(row, integer)`` lists, times ``den``,
        the lcm of all denominators.  ``keep`` caches them; the matrix is immutable.
        """
        if self._by_col is not None:
            return self._by_col
        ratios = [(rc, a.as_integer_ratio()) for rc, a in self.entries.items()]
        den = lcm(*(d for _, (_, d) in ratios))
        by_col: dict[int, list[tuple[int, int]]] = {}
        for (r, c), (n, d) in ratios:
            by_col.setdefault(c, []).append((r, n * (den // d)))
        if keep:
            self._by_col = (den, by_col)
        return den, by_col

    def _int_matvec(self, v: Sequence[Fraction]) -> tuple[list[int], int]:
        """``(acc, den)`` with ``m v = acc / den``, reading ``v`` only at the nonempty columns."""
        mden, by_col = self._by_col or self._int_columns(keep=True)
        acc = [0] * self.rows
        vden = 1
        for c, terms in by_col.items():
            x = v[c]
            # testing identity with ZERO first skips most Fraction.__bool__ calls on dense vectors
            if x is not ZERO and x:
                n, d = x.as_integer_ratio()
                if vden % d:
                    scale = d // gcd(vden, d)
                    acc, vden = [a * scale for a in acc], vden * scale
                n *= vden // d
                for r, a in terms:
                    acc[r] += a * n
        return acc, mden * vden

    def matvec(self, v: Sequence[Fraction]) -> Vector:
        if len(v) != self.cols:
            raise InputError(f"matvec: vector of length {len(v)} against {self.cols} columns")
        if not self.entries:
            return (ZERO,) * self.rows
        acc, den = self._int_matvec(v)
        return tuple(Fraction(a, den) if a else ZERO for a in acc)

    def matmul(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise InputError("matmul: inner dimensions differ")
        if not (self.entries and other.entries):
            return QMatrix._of(self.rows, other.cols, {})
        # a one-off product keeps no index alive
        aden, a_cols = self._int_columns()
        bden, b_cols = other._int_columns()
        den = aden * bden
        entries: dict[tuple[int, int], Fraction] = {}
        for c, terms in b_cols.items():
            for r, v in _combine(a_cols, terms).items():
                if v:
                    entries[(r, c)] = Fraction(v, den)
        return QMatrix._of(self.rows, other.cols, entries)

    def scale(self, c) -> "QMatrix":
        c = rat(c)
        return QMatrix._of(self.rows, self.cols, {k: c * v for k, v in self.entries.items()} if c else {})

    def hstack(self, other: "QMatrix") -> "QMatrix":
        if self.rows != other.rows:
            raise InputError("hstack: row count mismatch")
        entries = dict(self.entries)
        for (r, c), v in other.entries.items():
            entries[(r, c + self.cols)] = v
        return QMatrix._of(self.rows, self.cols + other.cols, entries)

    def vstack(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.cols:
            raise InputError("vstack: column count mismatch")
        entries = dict(self.entries)
        for (r, c), v in other.entries.items():
            entries[(r + self.rows, c)] = v
        return QMatrix._of(self.rows + other.rows, self.cols, entries)


def _combine(columns: Mapping[int, Iterable[tuple]], terms: Iterable[tuple]) -> dict:
    """``sum b * columns[k]`` over the ``(k, b)`` in ``terms``, each column a list of ``(row, entry)``
    pairs, as a sparse column that keeps cancelled zeros; integer input gives integers."""
    acc: dict = {}
    for k, b in terms:
        for r, a in columns.get(k, ()):
            acc[r] = acc.get(r, 0) + a * b
    return acc


# ---------------------------------------------------------------------------
# elimination engine
# ---------------------------------------------------------------------------

def _int_row(row: Mapping[int, Fraction]) -> dict[int, int]:
    """``row`` times the lcm of its denominators, divided by its content."""
    den = lcm(*(v.denominator for v in row.values()))
    return _primitive({c: v.numerator * (den // v.denominator) for c, v in row.items()})


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """Divide an integer row in place by the gcd of its entries."""
    content = gcd(*row.values())
    if content > 1:
        for c in row:
            row[c] //= content
    return row


def _eliminate(row: dict[int, int], prow: dict[int, int], col: int) -> None:
    """Clear ``row`` at ``col`` with ``prow`` in place, over the integers.

    ``row`` becomes ``(a/g) row - (f/g) prow`` for ``a = prow[col]``,
    ``f = row[col]`` and ``g = gcd(a, f)``, divided by its content.  Keeping
    every row primitive bounds its entries by minors of the input, as in
    fraction-free (Bareiss) elimination.
    """
    a = prow[col]
    f = row[col]
    g = gcd(a, f)
    a //= g
    f //= g
    if a != 1:
        for c in row:
            row[c] *= a
    for c, v in prow.items():
        nv = row.get(c, 0) - f * v
        if nv:
            row[c] = nv
        else:
            del row[c]
    _primitive(row)


def _int_echelon(m: QMatrix, pivot_cols: Optional[int] = None):
    """Return (pivot rows, pivots, other rows) of the RREF of ``m``, each row times an integer.

    Rows are cleared to integers and reduced by :func:`_eliminate`, so a pivot row is its
    reduced row times its entry at the pivot.  Pivots are chosen among the first ``pivot_cols``
    columns only; trailing columns ride along (augmented solves), and a row past the pivots is
    a nonzero multiple of a residual, nonzero exactly where those columns are inconsistent."""
    if not m.entries:
        return [], [], [{} for _ in range(m.rows)]
    frows: list[dict[int, Fraction]] = [{} for _ in range(m.rows)]
    for (r, c), v in m.entries.items():
        frows[r][c] = v
    return _reduce_rows([_int_row(row) for row in frows], m.cols if pivot_cols is None else pivot_cols)


def _reduce_rows(rows: list[dict[int, int]], pivot_cols: int):
    """:func:`_int_echelon` on primitive integer rows, which it reduces in place."""
    # column -> a superset of the rows nonzero there, read for the pivot
    # candidates and the rows to clear: a cleared row is added at the pivot
    # row's columns, and skipped where it cancelled when read
    holders: defaultdict[int, set[int]] = defaultdict(set)
    for r, row in enumerate(rows):
        for c in row:
            holders[c].add(r)
    free = set(range(len(rows)))  # rows not chosen as pivot rows yet
    order: list[int] = []
    pivots: list[int] = []
    for col in range(pivot_cols):
        if not free:
            break
        held = [i for i in holders.get(col, ()) if col in rows[i]]
        best, best_key = -1, None
        for i in held:
            if i in free:
                key = (abs(rows[i][col]), len(rows[i]), i)
                if best < 0 or key < best_key:
                    best, best_key = i, key
        if best < 0:
            continue
        prow = rows[best]
        for i in held:
            if i != best:
                _eliminate(rows[i], prow, col)
                for c in prow:
                    holders[c].add(i)
        free.discard(best)
        order.append(best)
        pivots.append(col)
    return [rows[i] for i in order], pivots, [rows[i] for i in sorted(free)]


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def rref(m: QMatrix) -> tuple[int, tuple[int, ...], QMatrix]:
    """Reduced row echelon form: ``(rank, pivot columns, reduced matrix)``."""
    rows, pivots, _ = _int_echelon(m)
    entries = {(r, c): Fraction(v, row[p]) for r, (row, p) in enumerate(zip(rows, pivots)) for c, v in row.items()}
    return len(pivots), tuple(pivots), QMatrix._of(m.rows, m.cols, entries)


def rank(m: QMatrix) -> int:
    return len(_int_echelon(m)[1])


def _kernel_columns(m: QMatrix) -> list[tuple[int, Fraction, dict[int, Fraction]]]:
    """The canonical kernel basis of ``m`` as (free column f, 1 / the entry at f, sparse vector):
    1 at f and minus the pivot rows' entries at f elsewhere, scaled to lead with 1, sorted by
    the index of the first nonzero coordinate, then as dense tuples."""
    if not m.entries:
        return [(f, ONE, {f: ONE}) for f in range(m.cols)]
    rows, pivots, _ = _int_echelon(m)
    at: dict[int, list[tuple[int, int, int]]] = {f: [] for f in set(range(m.cols)).difference(pivots)}
    for row, p in zip(rows, pivots):
        for c, v in row.items():
            if c != p:
                at[c].append((p, v, row[p]))
    # vectors by their first nonzero, at the first pivot row holding f; a reduced
    # row holds x = v / a, and the vector is x / x0 at the pivots and -1 / x0 at f
    by_lead: dict[int, list[tuple[int, Fraction, dict[int, Fraction]]]] = {}
    for f, terms in at.items():
        lead, v0, a0 = terms[0] if terms else (f, -1, 1)
        col = {p: Fraction(v * a0, a * v0) for p, v, a in terms}
        col[f] = Fraction(-a0, v0)
        by_lead.setdefault(lead, []).append((f, Fraction(-v0, a0), col))
    columns = []
    for lead in sorted(by_lead):
        ties = by_lead[lead]
        if len(ties) > 1:
            ties.sort(key=lambda t: _dense_order(t[2]))
        columns += ties
    return columns


def _span_basis(vectors: Iterable[Mapping[int, Fraction]], dim: int) -> list[dict[int, Fraction]]:
    """The canonical basis of the span of sparse ``vectors`` in ``dim`` coordinates: the vectors
    :func:`_kernel_columns` gives for any matrix whose kernel is that span.

    Those are the reduced echelon form of the span with the columns taken last to first: each
    vector ends at a column where all the others vanish, as a kernel vector ends at its free
    column.  They are scaled to lead with 1 and sorted the same way.
    """
    flipped = [{dim - 1 - c: x for c, x in v.items() if x} for v in vectors]
    rows, _, _ = _reduce_rows([_int_row(v) for v in flipped if v], dim)
    basis = []
    for row in rows:
        lead = row[max(row)]
        basis.append({dim - 1 - c: Fraction(x, lead) for c, x in row.items()})
    basis.sort(key=lambda v: (min(v), _dense_order(v)))
    return basis


def kernel_basis(m: QMatrix) -> list[Vector]:
    """Canonical basis of the right kernel ``{v : m v = 0}``: :attr:`KernelBasis.vectors`."""
    return KernelBasis(m).vectors


def solve(m: QMatrix, b: Sequence[Fraction]) -> Optional[Vector]:
    """A particular solution of ``m x = b`` (free variables zero), or None."""
    if len(b) != m.rows:
        raise InputError(f"solve: rhs of length {len(b)} against {m.rows} rows")
    return solve_many(m, [tuple(b)])[0]


def solve_many(m: QMatrix, rhs: Sequence[Vector]) -> list[Optional[Vector]]:
    """Solve ``m x = b`` for several right-hand sides with one elimination."""
    k = len(rhs)
    if k == 0:
        return []
    for j, b in enumerate(rhs):
        if len(b) != m.rows:
            raise InputError(f"solve_many: rhs {j} of length {len(b)} against {m.rows} rows")
    aug = QMatrix(
        m.rows,
        m.cols + k,
        dict(m.entries)
        | {
            (r, m.cols + j): v
            for j, b in enumerate(rhs)
            for r, v in enumerate(b)
            if v
        },
    )
    rows, pivots, rest = _int_echelon(aug, pivot_cols=m.cols)
    out: list[Optional[Vector]] = []
    for col in range(m.cols, m.cols + k):
        if any(col in row for row in rest):
            out.append(None)
            continue
        x = [ZERO] * m.cols
        for row, p in zip(rows, pivots):
            if col in row:
                x[p] = Fraction(row[col], row[p])
        out.append(tuple(x))
    return out


class _Coordinates:
    """Writing vectors in a basis; subclasses provide ``coords_many``."""

    def coords(self, v: Sequence[Fraction]) -> Optional[Vector]:
        """Coordinates of ``v`` in the basis, or None when ``v`` lies outside."""
        return self.coords_many([v])[0]

    def express(self, vectors: Sequence[Sequence[Fraction]], message: str) -> list[Vector]:
        """Coordinates of every vector; raises InputError(message) if one lies outside."""
        out = self.coords_many(vectors)
        if any(c is None for c in out):
            raise InputError(message)
        return out  # type: ignore[return-value]


class RowSpace(_Coordinates):
    """The span of the columns of a matrix, with exact membership and coordinates.

    ``columns`` are the indices of the columns that enlarge the span, in order;
    :meth:`coords` writes a member of the span in those columns.  The columns
    are reduced as primitive integer columns.  The transform that coordinates
    read from comes from one elimination of the kept columns, made on the
    first query, so spaces that only test membership never pay for it.
    """

    def __init__(self, m: QMatrix):
        self.dim = m.rows
        self.matrix = m
        # reduced echelon rows keyed by pivot column, as primitive integer rows
        self._rows: dict[int, dict[int, int]] = {}
        self.columns: list[int] = []
        self._transform: Optional[dict[int, dict[int, Fraction]]] = None
        _, by_col = m._int_columns()
        for c in sorted(by_col):
            residual = self._residual(_primitive(dict(by_col[c])))
            if residual:
                p = min(residual)
                for row in self._rows.values():
                    if p in row:
                        _eliminate(row, residual, p)
                self._rows[p] = residual
                self.columns.append(c)

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> tuple[int, ...]:
        """The pivot columns of the reduced row echelon form of the span, ascending."""
        return tuple(sorted(self._rows))

    def reduce(self, v: Sequence[Fraction]) -> dict[int, int]:
        """A nonzero integer multiple of the residual of ``v``; empty in the span."""
        if len(v) != self.dim:
            raise InputError("RowSpace: vector of wrong length")
        return self._residual(_int_row({i: rat(x) for i, x in enumerate(v) if x}))

    def _residual(self, work: dict[int, int]) -> dict[int, int]:
        """Reduce the primitive integer row ``work`` in place by the echelon rows."""
        for p, row in self._rows.items():
            if p in work:
                _eliminate(work, row, p)
        return work

    def contains(self, v: Sequence[Fraction]) -> bool:
        return not self.reduce(v)

    def _transforms(self) -> dict[int, dict[int, Fraction]]:
        """Per pivot column, the echelon row as a combination of the kept columns.

        The reduced echelon form of ``[kept columns transposed | identity]``
        has all its pivots left of the bar, because the kept columns are
        independent; right of the bar it records the combinations.
        """
        if self._transform is None:
            r, n = self.rank, self.dim
            at = {c: i for i, c in enumerate(self.columns)}
            entries = {(i, n + i): ONE for i in range(r)}
            for (row, c), x in self.matrix.entries.items():
                if c in at:
                    entries[(at[c], row)] = x
            rows, pivots, _ = _int_echelon(QMatrix._of(r, n + r, entries), pivot_cols=n)
            self._transform = {
                p: {c - n: Fraction(x, row[p]) for c, x in row.items() if c >= n} for row, p in zip(rows, pivots)
            }
        return self._transform

    def coords_many(self, vectors: Sequence[Sequence[Fraction]]) -> list[Optional[Vector]]:
        """Coordinates in the kept ``columns``, or None for vectors outside the span.

        A member of the span is the sum of the echelon rows weighted by its
        own entries at the pivot columns, because the echelon form is reduced.
        """
        out: list[Optional[Vector]] = []
        for v in vectors:
            if self.reduce(v):
                out.append(None)
                continue
            acc = [ZERO] * self.rank
            for p, row in self._transforms().items():
                f = v[p]
                if f:
                    for j, t in row.items():
                        acc[j] += f * t
            out.append(tuple(acc))
        return out

    # -- a quotient: the span of [denominators | candidates] ----------------
    def columns_from(self, j: int) -> list[int]:
        """The kept columns at or after column ``j``, counted from ``j``: the candidates,
        from column ``j`` on, that enlarge the span of the denominators before them."""
        return [c - j for c in self.columns if c >= j]

    def tail_coords(self, v: Sequence[Fraction], n: int, message: str) -> Vector:
        """Coordinates of the member ``v`` in the last ``n`` kept columns, its class modulo
        the columns kept before them; raises InputError(message) when ``v`` lies outside."""
        (coords,) = self.express([v], message)
        return coords[self.rank - n :]


class KernelBasis(_Coordinates):
    """The canonical basis of ``ker m`` (:func:`_kernel_columns`), held as the sparse columns
    of ``inclusion``.  Each vector alone is nonzero at its free column, so once ``m x = 0``
    certifies that ``x`` lies in the span its coordinates are read off there, never solved for.
    """

    def __init__(self, m: QMatrix):
        self.matrix = m
        columns = _kernel_columns(m)
        entries = {(r, j): x for j, (_, _, col) in enumerate(columns) for r, x in col.items()}
        self.inclusion = QMatrix._of(m.cols, len(columns), entries)
        # free column -> (its basis vector, 1 / the vector's entry there), in basis order
        self._reads = {f: (j, inv) for j, (f, inv, _) in enumerate(columns)}
        self._vectors: Optional[list[Vector]] = None

    @property
    def rank(self) -> int:
        return self.inclusion.cols

    @property
    def vectors(self) -> list[Vector]:
        """The basis as dense vectors, built on first read."""
        if self._vectors is None:
            self._vectors = self.inclusion.to_cols()
        return self._vectors

    def coords_many(self, vectors: Sequence[Sequence[Fraction]]) -> list[Optional[Vector]]:
        m = self.matrix
        out: list[Optional[Vector]] = []
        for x in vectors:
            if len(x) != m.cols:
                raise InputError(f"kernel basis: vector of length {len(x)} against {m.cols} columns")
            if any(m._int_matvec(x)[0]):
                out.append(None)
            else:
                out.append(tuple(x[c] * s if x[c] else ZERO for c, (_, s) in self._reads.items()))
        return out

    def coords_matrix(self, left: QMatrix, right: QMatrix) -> Optional[QMatrix]:
        """The columns of ``left right`` in kernel coordinates, or None when one lies outside.
        Each product column is taken over the integers and certified in the kernel by the
        integer columns of ``m``; a Fraction is built only for each coordinate read."""
        if left.cols != right.rows:
            raise InputError("coords_matrix: inner dimensions differ")
        (lden, l_cols), (rden, r_cols) = left._int_columns(), right._int_columns()
        m_cols, reads = self.matrix._int_columns(keep=True)[1], self._reads
        entries: dict[tuple[int, int], Fraction] = {}
        for c, terms in r_cols.items():
            image = _combine(l_cols, terms)
            if any(_combine(m_cols, image.items()).values()):
                return None
            for r, v in image.items():
                if v and r in reads:
                    j, inv = reads[r]
                    entries[(j, c)] = Fraction(v * inv.numerator, lden * rden * inv.denominator)
        return QMatrix._of(self.rank, right.cols, entries)


def _dense_order(col: Mapping[int, Fraction]) -> tuple:
    """A key ordering sparse vectors as their dense tuples.  Entry (i, x) is (0, i, x) below zero,
    (2, -i, x) above, and (1,) ends the key: at a first difference, the smaller coordinate wins."""
    return tuple((0, i, x) if x.numerator < 0 else (2, -i, x) for i, x in sorted(col.items())) + ((1,),)


class KeyedBasis:
    """A basis whose elements are named by hashable keys, in a fixed order.

    ``keys[t]`` names the t-th basis vector and ``index`` maps each key back
    to its position.  A combination of basis elements is given as a mapping
    from keys to coefficients; a key outside the basis raises InputError.
    """

    __slots__ = ("keys", "index")

    def __init__(self, keys: Iterable[Hashable]):
        self.keys = tuple(keys)
        self.index = {key: t for t, key in enumerate(self.keys)}
        if len(self.index) != len(self.keys):
            raise InputError("basis keys must be distinct")

    def __len__(self) -> int:
        return len(self.keys)

    def vector(self, terms: Mapping[Hashable, Fraction]) -> Vector:
        """Coordinates of the combination ``sum terms[key] * key``."""
        acc = [ZERO] * len(self.keys)
        index = self.index
        try:
            for key, c in terms.items():
                acc[index[key]] += c
        except KeyError as exc:
            raise _outside(exc) from None
        return tuple(acc)

    def matrix(self, images: Sequence[Mapping[Hashable, Fraction]]) -> QMatrix:
        """The matrix whose column j is the vector of ``images[j]`` (nonzero Fractions, unchecked)."""
        entries: dict[tuple[int, int], Fraction] = {}
        index = self.index
        try:
            for col, terms in enumerate(images):
                for key, c in terms.items():
                    entries[(index[key], col)] = c
        except KeyError as exc:
            raise _outside(exc) from None
        return QMatrix._of(len(self.keys), len(images), entries)


def _outside(exc: KeyError) -> InputError:
    return InputError(f"{exc.args[0]!r} is not an element of the basis")
