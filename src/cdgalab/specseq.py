"""Spectral sequences of finite decreasingly filtered cochain complexes.

The pages are those of the classical cocycle/boundary towers

    Z_r^{p,q} = { x in F^p C^{p+q} : dx in F^{p+r} },
    E_r^{p,q} = Z_r / (Z_{r-1}^{p+1,q-1} + d Z_{r-1}^{p-r+1,q+r-2}),

read off one reduction per degree.  Each degree is written in a basis adapted to the
filtration, from one integer echelon, and d is reduced in those bases column by column
from the highest level down, as in the persistence algorithm (Edelsbrunner, Letscher and
Zomorodian 2002; Basu and Parida 2017): every pivot pair (column level, pivot level)
gives every E_r dimension at once.  Representatives are built only where they are read.
The skeletal filtration of the global sections of a local system filters a section by the
base form level of its components (level >= p vanishes on all simplices of dimension
below p); it is multiplicative and supported in the first quadrant, and its second page
is compared against twisted simplicial cohomology with the fiberwise cohomology
coefficients.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import NamedTuple, Optional

from .cdga import TruncatedDGA, _block_diagonal, cohomology_dims
from .errors import CutoffTooSmallError, InputError, InternalError, PreconditionError
from .exactlin import ONE, ZERO, QMatrix, RowSpace, Vector, _combine, _eliminate, _primitive, _reduce_rows, _span_basis, rank
from .gluing import _push
from .localsys import (
    FiniteLocalSystem,
    SystemMorphism,
    _within_fibers,
    cohomology_local_system,
    global_sections,
    h_local_coefficients,
)

_Sparse = dict[int, Fraction]

# products sampled by einfty_vs_target
_PRODUCT_SAMPLES = 12


def _in_leaves(alg: TruncatedDGA, k: int) -> tuple[list[TruncatedDGA], int, list[dict[int, int]], list]:
    """The degree-k basis of ``alg`` in the coordinates of the innermost algebras, whose basis
    elements carry levels: ``(leaves, den, columns, reads)``.  ``leaves`` are those algebras in
    block order; ``columns[j] / den`` is basis element j as a sparse integer column; and
    ``reads[j]`` is the coordinate and factor that read the coordinate of basis element j off
    any combination of the columns.

    An algebra without an ambient sum is its own leaf; a kernel carrier composes its inclusion
    with its parts' columns.  A carrier keeps its view, because a fiber is shared by every
    system, section algebra and spectral sequence built on it; a leaf's view is the identity,
    and keeping it would make the leaf refer to itself.
    """
    if alg.ambient is None:
        n = alg.dim(k)
        return [alg], 1, [{a: 1} for a in range(n)], [(a, ONE) for a in range(n)]
    if k not in alg._leaf_cache:
        parts = [_in_leaves(part, k) for part in alg.ambient.parts]
        common = lcm(*(den for _, den, _, _ in parts))
        leaves, blocks, part_reads, offset = [], [], [], 0
        for p_leaves, den, columns, p_reads in parts:
            leaves += p_leaves
            blocks += [[(offset + c, x * (common // den)) for c, x in col.items()] for col in columns]
            part_reads += [(offset + c, x) for c, x in p_reads]
            offset += sum(leaf.dim(k) for leaf in p_leaves)
        kernel = alg.kernels[k]
        kden, kcols = kernel.inclusion._int_columns()
        by_f = dict(enumerate(blocks))
        columns = [{c: v for c, v in _combine(by_f, kcols.get(j, ())).items() if v} for j in range(kernel.rank)]
        reads: list = [None] * kernel.rank
        for f, (j, inv) in kernel._reads.items():
            c, x = part_reads[f]
            reads[j] = (c, x * inv)
        alg._leaf_cache[k] = leaves, kden * common, columns, reads
    return alg._leaf_cache[k]


class _AdaptedBasis:
    """One degree of a filtered complex in a basis adapted to its filtration.

    ``rows`` is the reduced row echelon form of the degree's basis written in the innermost
    coordinates (:func:`_in_leaves`), with the coordinates taken in order of level; each row
    is a primitive integer multiple, and ``pivots`` holds the coordinate of its pivot.
    ``levels``, nondecreasing, are the levels of the pivots: F^p is spanned by the rows of
    level >= p, because a combination vanishing below level p uses no row whose pivot lies
    there.
    """

    def __init__(self, alg: TruncatedDGA, k: int, p_bound: int):
        self.dim = alg.dim(k)
        self.leaves, _, self.columns, reads = _in_leaves(alg, k)
        self.coord_levels = [
            min(max(leaf.basis_level(k, a), 0), p_bound) for leaf in self.leaves for a in range(leaf.dim(k))
        ]
        order = sorted(range(len(self.coord_levels)), key=self.coord_levels.__getitem__)
        position = {c: i for i, c in enumerate(order)}
        rows, pivots, _ = _reduce_rows(
            [_primitive({position[c]: x for c, x in col.items()}) for col in self.columns], len(order)
        )
        self.rows = [{order[i]: x for i, x in row.items()} for row in rows]
        self.pivots = [order[i] for i in pivots]
        self.levels = [self.coord_levels[c] for c in self.pivots]
        self._reads = {c: (a, x) for a, (c, x) in enumerate(reads)}
        self._basis: Optional[dict[int, list[tuple[int, Fraction]]]] = None

    def span(self, combos: list[dict[int, int]]) -> list[_Sparse]:
        """Combinations of the rows, written in the algebra's basis."""
        if self._basis is None:
            # a row is a multiple of the image of a vector, whose coordinates the reads give
            self._basis = {
                i: [(self._reads[c][0], self._reads[c][1] * v) for c, v in row.items() if c in self._reads]
                for i, row in enumerate(self.rows)
            }
        return [{a: x for a, x in _combine(self._basis, combo.items()).items() if x} for combo in combos]


def _columns(vectors: list[_Sparse], dim: int) -> QMatrix:
    """The matrix whose columns are the sparse ``vectors`` of length ``dim``."""
    return QMatrix._of(dim, len(vectors), {(a, j): x for j, v in enumerate(vectors) for a, x in v.items()})


def _dense(v: _Sparse, dim: int) -> Vector:
    out = [ZERO] * dim
    for a, x in v.items():
        out[a] = x
    return tuple(out)


@dataclass
class FilteredComplex:
    """A truncated DG algebra with a decreasing multiplicative filtration.

    F^p in degree k holds the elements whose coordinates in the innermost algebras vanish
    below level p, with levels clamped to [0, p_bound]: F^0 is the whole complex, and F^p = 0
    beyond p_bound.  Each degree is written in an adapted basis (:class:`_AdaptedBasis`) once,
    when first read, and every F^p is read off it.
    """

    algebra: TruncatedDGA
    p_bound: int
    _bases: dict = field(default_factory=dict, init=False, repr=False)
    _levels: dict = field(default_factory=dict, init=False, repr=False)

    def _adapted(self, k: int) -> _AdaptedBasis:
        if k not in self._bases:
            self._bases[k] = _AdaptedBasis(self.algebra, k, self.p_bound)
        return self._bases[k]

    def _level(self, p: int, k: int) -> list[_Sparse]:
        """The canonical basis of F^p in degree k, for a degree k of the algebra."""
        p = min(max(p, 0), self.p_bound + 1)
        if (p, k) not in self._levels:
            ad = self._adapted(k)
            span = ad.span([{i: 1} for i, level in enumerate(ad.levels) if level >= p])
            self._levels[(p, k)] = _span_basis(span, self.algebra.dim(k))
        return self._levels[(p, k)]

    def subspace(self, p: int, k: int) -> list[Vector]:
        """Basis of F^p in degree k: the canonical basis of :func:`kernel_basis`."""
        if k < 0 or k > self.algebra.cutoff:
            return []
        return [_dense(v, self.algebra.dim(k)) for v in self._level(p, k)]

    def contains(self, p: int, k: int, v: Vector) -> bool:
        """Whether the degree-k vector ``v`` lies in F^p."""
        ad = self._adapted(k)
        if len(v) != ad.dim:
            raise InputError(f"vector of length {len(v)} in degree {k} of dimension {ad.dim}")
        image: _Sparse = {}
        for x, col in zip(v, ad.columns):
            if x:
                for c, y in col.items():
                    image[c] = image.get(c, 0) + x * y
        return not any(x for c, x in image.items() if ad.coord_levels[c] < p)

    def validate(self) -> list[str]:
        """Check that the filtration is stable under d and multiplicative.

        d(F^p) must lie in F^p, and for every pair of adapted basis elements (:class:`_AdaptedBasis`)
        x of level p and y of level q, x·y must lie in F^{p+q}; the product is bilinear, so these
        pairs prove F^p·F^q ⊂ F^{p+q}.  F^p ⊂ F^{p-1} holds by construction: an adapted row of level
        p has its entries only at coordinates of level >= p.  Products the cutoff dropped are
        skipped.  Returns failure descriptions (empty = ok).
        """
        problems = []
        alg = self.algebra
        for p in range(1, self.p_bound + 1):
            for k in range(alg.cutoff):
                if not all(self.contains(p, k + 1, alg.apply_d(k, v)) for v in self.subspace(p, k)):
                    problems.append(f"d leaves F^{p} at degree {k}")
        # products are blockwise down to the leaves, so the adapted rows are multiplied leaf by leaf
        adapted = [self._adapted(k) for k in range(alg.cutoff + 1)]
        leaves = adapted[0].leaves
        starts = [list(accumulate((leaf.dim(k) for leaf in leaves), initial=0)) for k in range(alg.cutoff + 1)]
        elements = [
            [(level, [[(c - lo, x) for c, x in row.items() if lo <= c < hi] for lo, hi in zip(st, st[1:])])
             for level, row in zip(ad.levels, ad.rows)]
            for ad, st in zip(adapted, starts)
        ]
        # the product table is graded commutative, so each unordered pair is checked once
        for i in range(alg.cutoff + 1):
            for j in range(i, alg.cutoff + 1 - i):
                levels = adapted[i + j].coord_levels
                for a, (p, x) in enumerate(elements[i]):
                    start = a if i == j else 0
                    for b, (q, y) in enumerate(elements[j][start:], start):
                        try:
                            prods = [
                                (lo, leaf._product(i, xs, j, ys))
                                for leaf, lo, xs, ys in zip(leaves, starts[i + j], x, y) if xs and ys
                            ]
                        except CutoffTooSmallError:
                            continue
                        if any(w and levels[lo + t] < p + q for lo, prod in prods for t, w in enumerate(prod)):
                            problems.append(
                                f"product of F^{p} and F^{q} leaves F^{p + q} "
                                f"on adapted basis pair ({i},{a}),({j},{b})"
                            )
        return problems


@dataclass
class Page:
    """One page of the tower on a finite (p, q) window."""

    r: int
    entries: dict = field(default_factory=dict)  # (p, q) -> dim
    reps: dict = field(default_factory=dict)  # (p, q) -> list of total vectors
    denoms: dict = field(default_factory=dict)  # (p, q) -> list of total vectors
    diffs: dict = field(default_factory=dict)  # (p, q) -> QMatrix to (p+r, q-r+1)

    def dim(self, p: int, q: int) -> int:
        return self.entries.get((p, q), 0)


class _Reduction(NamedTuple):
    """d out of one degree, reduced in the adapted bases of that degree and the next.

    ``low`` maps each column whose reduced image is nonzero to the row where that image ends;
    ``vectors[j]`` is the reduced column j as a combination of the rows of its degree, and
    ``images[j]`` its image, as a combination of the rows of the next degree.
    """

    low: dict[int, int]
    vectors: list[dict[int, int]]
    images: dict[int, dict[int, int]]


class PageTower:
    """Every page of a filtered complex, read off one reduction of d per degree.

    The reduction of d out of degree n (:meth:`_reduction`) pairs basis elements of degrees n
    and n + 1.  An element of level p in a pair of length r (level of the row minus level of
    the column) lives in E_0 .. E_r at filtration p, and an element in no pair in every page.
    Representatives, denominators, classes and d_r follow the classical tower: the
    representatives of E_r^{p,q} are the canonical cycles ``z_basis(p, p + r, n)`` that
    enlarge the span of the denominators, in order.  They are built only when read.
    """

    def __init__(self, fc: FilteredComplex):
        self.fc = fc
        self._reductions: dict[int, _Reduction] = {}
        # (r, p, q) -> (entry, space spanned by the denominators, then the reps)
        self._entry_cache: dict[tuple[int, int, int], tuple[tuple, RowSpace]] = {}

    # -- the reduction -----------------------------------------------------
    def _reduction(self, n: int) -> _Reduction:
        """The reduction of d out of degree n, for n below the cutoff.

        Columns are taken from the last row of the echelon back, so from the highest level
        down, and each is cleared at its lowest row (the nonzero row of least index, so of
        least level) against the reduced columns taken before it, which lie in the same F^p.
        A column that is the lowest row of a reduced image one degree down is set to that
        image, a cocycle, without reduction: it would reduce to zero (the clearing of Chen
        and Kerber, "Persistent homology computation with a twist", 2011).
        """
        if n in self._reductions:
            return self._reductions[n]
        below = self._reduction(n - 1) if n else None
        src, dst = self.fc._adapted(n), self.fc._adapted(n + 1)
        _, d_cols = _block_diagonal([leaf.d_matrix(n) for leaf in src.leaves])._int_columns()
        # d of a row is a combination of the next rows, read off at their pivots
        at = {c: (i, row[c]) for i, (row, c) in enumerate(zip(dst.rows, dst.pivots))}
        cleared = {low: j for j, low in below.low.items()} if below else {}
        shift = len(dst.rows)  # a column holds its image below shift and its vector above
        reduced: dict[int, dict[int, int]] = {}  # lowest row -> the reduced column ending there
        low: dict[int, int] = {}
        vectors: list[dict[int, int]] = [{} for _ in src.rows]
        images: dict[int, dict[int, int]] = {}
        for j in range(len(src.rows) - 1, -1, -1):
            if j in cleared:
                vectors[j] = below.images[cleared[j]]
                continue
            acc: dict[int, int] = {}
            for c, v in src.rows[j].items():
                for r, x in d_cols.get(c, ()):
                    if r in at:
                        acc[r] = acc.get(r, 0) + v * x
            terms = [(at[r], x) for r, x in acc.items() if x]
            scale = lcm(*(a for (_, a), _ in terms))
            col = {i: x * (scale // a) for (i, a), x in terms}
            col[shift + j] = scale
            _primitive(col)
            end = min(col)
            while end in reduced:
                _eliminate(col, reduced[end], end)
                end = min(col)
            if end < shift:
                if dst.levels[end] < src.levels[j]:
                    raise InputError(f"the differential out of degree {n} leaves F^{src.levels[j]}")
                reduced[end] = col
                low[j] = end
                images[j] = {i: x for i, x in col.items() if i < shift}
            vectors[j] = {i - shift: x for i, x in col.items() if i >= shift}
        self._reductions[n] = _Reduction(low, vectors, images)
        return self._reductions[n]

    def _needs_d(self, p: int, n: int) -> None:
        """Refuse a page entry past E_0 that needs the differential out of the cutoff degree."""
        cutoff = self.fc.algebra.cutoff
        if n == cutoff and any(level >= p for level in self.fc._adapted(n).levels):
            raise InputError(
                f"page entries past E_0 need p + q below the cutoff {cutoff} where F^p is nonzero "
                f"(asked for p = {p}, p + q = {n})"
            )

    def dim(self, r: int, p: int, q: int) -> int:
        """The dimension of E_r^{p,q}."""
        n = p + q
        if p < 0 or n < 0 or n > self.fc.algebra.cutoff:
            return 0
        levels = self.fc._adapted(n).levels
        if r == 0:
            return levels.count(p)
        self._needs_d(p, n)
        if n == self.fc.algebra.cutoff:
            return 0
        # an element in a pair shorter than r is gone from E_r: a column, or the row it ends at
        after = self.fc._adapted(n + 1).levels
        gone = {j for j, end in self._reduction(n).low.items() if after[end] - levels[j] < r}
        if n:
            before = self.fc._adapted(n - 1).levels
            gone.update(end for j, end in self._reduction(n - 1).low.items() if levels[end] - before[j] < r)
        return sum(1 for i, level in enumerate(levels) if level == p and i not in gone)

    # -- spans off the reduction ------------------------------------------
    def _z_span(self, p: int, target_p: int, n: int) -> list[dict[int, int]]:
        """{ x in F^p C^n : dx in F^{target_p} } in the adapted basis, for n below the cutoff."""
        red, levels = self._reduction(n), self.fc._adapted(n).levels
        after = self.fc._adapted(n + 1).levels
        return [
            red.vectors[j]
            for j, level in enumerate(levels)
            if level >= p and (j not in red.low or after[red.low[j]] >= target_p)
        ]

    def _d_span(self, p: int, target_p: int, n: int) -> list[dict[int, int]]:
        """d of { x in F^p C^{n-1} : dx in F^{target_p} } in the adapted basis of degree n."""
        if n < 1:
            return []
        red, levels = self._reduction(n - 1), self.fc._adapted(n - 1).levels
        after = self.fc._adapted(n).levels
        return [red.images[j] for j, end in red.low.items() if levels[j] >= p and after[end] >= target_p]

    def z_basis(self, p: int, target_p: int, n: int) -> list[Vector]:
        """Basis of { x in F^p C^n : dx in F^{target_p} }.

        It is the canonical basis of F^p times the canonical kernel basis of the condition in
        the coordinates of that basis.  Both are rebuilt from spans read off the reduction,
        since a canonical kernel basis depends only on the kernel (:func:`_span_basis`).
        """
        alg = self.fc.algebra
        fp = self.fc._level(p, n) if 0 <= n <= alg.cutoff else []
        if not fp:
            return []
        self._needs_d(p, n)
        # a canonical basis vector ends where the others vanish; coordinates are read there
        ends = [(max(v), v[max(v)]) for v in fp]
        coords = [
            {t: x[end] / lead for t, (end, lead) in enumerate(ends) if end in x}
            for x in self.fc._adapted(n).span(self._z_span(p, target_p, n))
        ]
        out = []
        for c in _span_basis(coords, len(fp)):
            acc: _Sparse = {}
            for t, w in c.items():
                for a, x in fp[t].items():
                    acc[a] = acc.get(a, 0) + w * x
            out.append(_dense(acc, alg.dim(n)))
        return out

    def _cocycle_space(self, p: int, n: int) -> RowSpace:
        """The cocycles of F^p in degree n < cutoff plus every coboundary."""
        spans = self._d_span(0, 0, n) + self._z_span(p, self.fc.p_bound + 1, n)
        return RowSpace(_columns(self.fc._adapted(n).span(spans), self.fc.algebra.dim(n)))

    # -- entries -----------------------------------------------------------
    def entry(self, r: int, p: int, q: int):
        """(dims, representatives, denominator basis) of E_r^{p,q}."""
        return self._entry(r, p, q)[0]

    def _entry(self, r: int, p: int, q: int) -> tuple[tuple, RowSpace]:
        key = (r, p, q)
        if key in self._entry_cache:
            return self._entry_cache[key]
        alg = self.fc.algebra
        n = p + q
        if p < 0 or n < 0 or n > alg.cutoff:
            self._entry_cache[key] = ((0, [], []), RowSpace(_columns([], alg.dim(n))))
            return self._entry_cache[key]
        if r == 0:
            z = self.fc.subspace(p, n)
            denom = self.fc._level(p + 1, n)
        else:
            z = self.z_basis(p, p + r, n)
            spans = self._d_span(p - r + 1, p, n)
            if n < alg.cutoff:  # at the cutoff F^p = 0, and so is the cycle part
                spans = self._z_span(p + 1, p + r, n) + spans
            denom = self.fc._adapted(n).span(spans)
        dim = alg.dim(n)
        rs = RowSpace(_columns(denom, dim).hstack(QMatrix.from_cols(z, dim)))
        reps = [z[c] for c in rs.columns_from(len(denom))]
        self._entry_cache[key] = ((len(reps), reps, [_dense(v, dim) for v in denom]), rs)
        return self._entry_cache[key]

    def class_in_entry(self, r: int, p: int, q: int, v: Vector) -> Vector:
        """Coordinates of the class of ``v`` in the representatives of E_r^{p,q}."""
        (dim_e, _, _), space = self._entry(r, p, q)
        if not space.rank:
            if any(v):
                raise InputError("vector has no expression in an empty page entry")
            return ()
        return space.tail_coords(v, dim_e, "vector does not lie in the page entry")

    def diff(self, r: int, p: int, q: int) -> QMatrix:
        """Matrix of d_r : E_r^{p,q} -> E_r^{p+r, q-r+1}."""
        alg = self.fc.algebra
        _, reps, _ = self.entry(r, p, q)
        dim_tgt, _, _ = self.entry(r, p + r, q - r + 1)
        cols = [
            self.class_in_entry(r, p + r, q - r + 1, alg.apply_d(p + q, v)) if dim_tgt else ()
            for v in reps
        ]
        return QMatrix.from_cols(cols, dim_tgt)

    def page(self, r: int, p_max: int, q_max: int) -> Page:
        page = Page(r=r)
        cutoff = self.fc.algebra.cutoff
        for p in range(0, p_max + 1):
            for q in range(0, q_max + 1):
                dim_e, reps, denom = self.entry(r, p, q)
                page.entries[(p, q)] = dim_e
                page.reps[(p, q)] = reps
                page.denoms[(p, q)] = denom
                if p + q + 1 < cutoff:
                    page.diffs[(p, q)] = self.diff(r, p, q)
        return page

    def infinity_page_index(self) -> int:
        return self.fc.p_bound + 2


def pages(fc: FilteredComplex, r_max: int, p_max: Optional[int] = None, q_max: Optional[int] = None) -> list[Page]:
    """Pages E_0 .. E_{r_max} on a finite window.

    The default window is every p up to ``p_bound`` and every q with p + q below the cutoff
    for all of them, the entries past E_0 that can be computed.
    """
    problems = fc.validate()
    if problems:
        raise InputError("invalid filtered complex: " + problems[0])
    if p_max is None:
        p_max = min(fc.p_bound, fc.algebra.cutoff - 1)
    if q_max is None:
        q_max = max(0, fc.algebra.cutoff - 1 - p_max)
    tower = PageTower(fc)
    return [tower.page(r, p_max, q_max) for r in range(r_max + 1)]


def page_consistency(tower_pages: list[Page]) -> list[str]:
    """Check E_{r+1} = H(E_r, d_r) dimensionwise and d_r o d_r = 0."""
    problems = []
    for r in range(len(tower_pages) - 1):
        cur, nxt = tower_pages[r], tower_pages[r + 1]
        for (p, q), m_out in cur.diffs.items():
            src = (p - r, q + r - 1)
            if src in cur.diffs:
                comp = m_out.matmul(cur.diffs[src])
                if not comp.is_zero():
                    problems.append(f"d_{r} squared nonzero into ({p},{q})")
        for (p, q), dim_next in nxt.entries.items():
            m_out = cur.diffs.get((p, q))
            m_in = cur.diffs.get((p - r, q + r - 1))
            if m_out is None:
                continue
            ker = m_out.cols - rank(m_out)
            im = rank(m_in) if m_in is not None and m_in.rows == cur.entries[(p, q)] else 0
            if dim_next != ker - im:
                problems.append(
                    f"E_{r + 1}^({p},{q}) = {dim_next} but H(E_{r}) gives {ker - im}"
                )
    return problems


# ---------------------------------------------------------------------------
# skeletal filtration of global sections
# ---------------------------------------------------------------------------

def skeletal_filtration(e: FiniteLocalSystem, upto: int) -> FilteredComplex:
    """Filter global sections by the base form level of their components.

    A section of level >= p has components vanishing on every simplex of
    dimension below p; the filtration is multiplicative because base levels
    add under products.
    """
    return FilteredComplex(algebra=global_sections(e, upto), p_bound=e.base.dim())


@dataclass
class E2Report:
    dims_pages: dict
    dims_local: dict
    mismatches: list

    def ok(self) -> bool:
        return not self.mismatches


@dataclass
class EInftyReport:
    totals_pages: dict
    totals_target: dict
    mismatches: list
    product_checks: int = 0
    product_failures: list = field(default_factory=list)
    products_skipped: int = 0  # sampled pairs whose product the cutoff dropped

    def ok(self) -> bool:
        return not self.mismatches and not self.product_failures


class SpectralSequence:
    """The skeletal spectral sequence of a local system, built once.

    The global sections up to degree ``upto``, their skeletal filtration and
    the page tower are built here; every page, entry and report of the
    system is read from them.  ``system`` is a copy of ``e`` without the
    sequence kept on it, so a sequence kept there does not keep ``e`` alive.
    """

    def __init__(self, e: FiniteLocalSystem, upto: int):
        self.system = replace(e)
        self.filtered = skeletal_filtration(e, upto)
        self.tower = PageTower(self.filtered)

    def e2_check(self, p_max: int, q_max: int) -> E2Report:
        """Second page against twisted simplicial cohomology of the base.

        Both sides are computed independently: the left from the filtration
        tower, the right from vertex cohomologies and edge transports.
        """
        e = self.system
        try:
            lc = cohomology_local_system(e, q_max)
        except PreconditionError as exc:
            raise InputError("e2_check needs a locally constant system") from exc
        h_twisted = h_local_coefficients(e.base, lc, p_max, q_max)
        dims_pages = {}
        mismatches = []
        for p in range(p_max + 1):
            for q in range(q_max + 1):
                dim_e = self.tower.dim(2, p, q)
                dims_pages[(p, q)] = dim_e
                if dim_e != h_twisted[(p, q)]:
                    mismatches.append(((p, q), dim_e, h_twisted[(p, q)]))
        return E2Report(dims_pages, h_twisted, mismatches)

    def einfty_vs_target(self, upto: int) -> EInftyReport:
        """Totals of the limit page against the cohomology of global sections.

        The target dimensions are read from the ranks of the differential of
        the sections (:func:`cohomology_dims`), independently of the tower.
        Also verifies that chosen permanent cycles multiply compatibly with
        the filtration: the product of classes of filtration p and p' is a
        class of filtration at least p + p'.
        """
        fc, tower = self.filtered, self.tower
        r_inf = tower.infinity_page_index()
        gamma = fc.algebra
        h_dims = cohomology_dims(gamma, upto)
        totals_pages = {}
        totals_target = {}
        mismatches = []
        dims = {}
        for k in range(upto + 1):
            total = 0
            for p in range(0, min(k, fc.p_bound) + 1):
                dims[(p, k - p)] = tower.dim(r_inf, p, k - p)
                total += dims[(p, k - p)]
            totals_pages[k] = total
            totals_target[k] = h_dims[k]
            if total != h_dims[k]:
                mismatches.append((k, total, h_dims[k]))
        report = EInftyReport(totals_pages, totals_target, mismatches)
        # product filtration compatibility on permanent-cycle representatives
        rng = random.Random(0)
        keys = [kq for kq, dim_e in dims.items() if dim_e]
        spaces: dict[tuple[int, int], RowSpace] = {}
        for _ in range(_PRODUCT_SAMPLES):
            if not keys:
                break
            (p1, q1) = keys[rng.randrange(len(keys))]
            (p2, q2) = keys[rng.randrange(len(keys))]
            if p1 + q1 + p2 + q2 > upto:
                continue
            x = tower.entry(r_inf, p1, q1)[1][rng.randrange(dims[(p1, q1)])]
            y = tower.entry(r_inf, p2, q2)[1][rng.randrange(dims[(p2, q2)])]
            try:
                prod = gamma.multiply(p1 + q1, x, p2 + q2, y)
            except CutoffTooSmallError:
                report.products_skipped += 1
                continue
            n = p1 + q1 + p2 + q2
            pf = p1 + p2
            # class of the product must be representable by an F^{p1+p2}
            # cocycle modulo coboundaries
            if (pf, n) not in spaces:
                spaces[(pf, n)] = tower._cocycle_space(pf, n)
            report.product_checks += 1
            if not spaces[(pf, n)].contains(prod):
                report.product_failures.append(((p1, q1), (p2, q2)))
        return report


def _sequence(e: FiniteLocalSystem, upto: int, what: str) -> SpectralSequence:
    """The sequence kept on ``e`` when its sections reach degree ``upto``; otherwise a new one,
    kept on ``e`` in place of the smaller one.  ``what`` names ``upto`` in the caller's terms
    for the error raised when the fibers stop below it.

    A larger sequence gives the same answers: the sections of a degree do not depend on the
    bound, and every basis, page entry and representative of degree n is canonical and reads
    only degrees n - 1 to n + 1.
    """
    ss = e._sequence_cache
    if ss is None or ss.filtered.algebra.cutoff < upto:
        ss = e._sequence_cache = SpectralSequence(e, _within_fibers(e, upto, what))
    return ss


def e2_check(e: FiniteLocalSystem, p_max: int, q_max: int) -> E2Report:
    """:meth:`SpectralSequence.e2_check` on the sequence kept on ``e`` for every check
    (:func:`_sequence`), with sections up to p_max + q_max + 1; do not mutate ``e`` after."""
    return _sequence(e, p_max + q_max + 1, "p_max + q_max + 1").e2_check(p_max, q_max)


def einfty_vs_target(e: FiniteLocalSystem, upto: int) -> EInftyReport:
    """:meth:`SpectralSequence.einfty_vs_target` on the sequence kept on ``e`` for every check
    (:func:`_sequence`), with sections up to upto + 1; do not mutate ``e`` after."""
    return _sequence(e, upto + 1, "upto + 1").einfty_vs_target(upto)


# ---------------------------------------------------------------------------
# naturality
# ---------------------------------------------------------------------------

@dataclass
class PagesMorphism:
    source_tower: PageTower
    target_tower: PageTower
    gamma_mats: list[QMatrix]
    psi: dict  # (r, p, q) -> QMatrix
    failures: list

    def ok(self) -> bool:
        return not self.failures


def triple_morphism_pages(
    m: SystemMorphism, upto: int, r_max: int, p_max: Optional[int] = None, q_max: Optional[int] = None
) -> PagesMorphism:
    """Filtered map of towers induced by a morphism of local systems.

    Builds the global-section map, checks it respects the level filtration,
    and produces the page maps Psi_r together with d_r-commutation checks.
    """
    problems = m.validate()
    if problems:
        raise InputError("invalid system morphism: " + problems[0])
    src_ss = _sequence(m.source, upto, "upto")
    dst_ss = _sequence(m.target, upto, "upto")
    src_fc, dst_fc = src_ss.filtered, dst_ss.filtered
    src_tower, dst_tower = src_ss.tower, dst_ss.tower
    if p_max is None:
        p_max = max(src_fc.p_bound, dst_fc.p_bound)
    if q_max is None:
        q_max = max(0, upto - 1)
    src, dst = src_fc.algebra, dst_fc.algebra
    # validate() saw one base, so both section layouts are its simplices in order
    maps = [m.maps[s] for s in m.source.base.all_simplices()]
    gamma_mats = _push(maps, src, dst, "section image is not a compatible family", InternalError)

    failures = []
    # filtered map check
    for p in range(1, src_fc.p_bound + 1):
        for k in range(upto + 1):
            if not all(dst_fc.contains(p, k, gamma_mats[k].matvec(v)) for v in src_fc.subspace(p, k)):
                failures.append(f"map does not preserve F^{p} at degree {k}")

    psi = {}
    for r in range(r_max + 1):
        for p in range(p_max + 1):
            for q in range(q_max + 1):
                if p + q >= upto:
                    continue
                _, reps_s, _ = src_tower.entry(r, p, q)
                dim_t, _, _ = dst_tower.entry(r, p, q)
                cols = [
                    dst_tower.class_in_entry(r, p, q, gamma_mats[p + q].matvec(v)) if dim_t else ()
                    for v in reps_s
                ]
                psi[(r, p, q)] = QMatrix.from_cols(cols, dim_t)
    # d_r commutation
    for (r, p, q), mat in sorted(psi.items()):
        tgt = (r, p + r, q - r + 1)
        if tgt not in psi:
            continue
        d_src = src_tower.diff(r, p, q)
        d_dst = dst_tower.diff(r, p, q)
        lhs = d_dst.matmul(mat)
        rhs = psi[tgt].matmul(d_src)
        if lhs != rhs:
            failures.append(f"Psi_{r} does not commute with d_{r} at ({p},{q})")
    return PagesMorphism(src_tower, dst_tower, gamma_mats, psi, failures)
