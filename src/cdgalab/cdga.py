"""Differentials, cohomology and morphisms for free and truncated DG algebras.

Two presentations are used throughout the library:

* :class:`FreeCDGA` -- a free graded-commutative algebra with a differential
  given on generators and extended by the Leibniz rule;
* :class:`TruncatedDGA` -- an explicit basis per degree up to a cutoff, with
  multiplication tables and differential matrices.  This is the home of
  fiber products, quotients and global sections.

Truncation semantics: a product that would land above the cutoff (or that a
constructor could not represent) is recorded as *dropped*; using it raises
:class:`CutoffTooSmallError` instead of silently returning garbage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, chain
from typing import Callable, Mapping, Optional, Sequence, Union

from .errors import CutoffTooSmallError, InputError
from .exactlin import (
    ONE,
    KernelBasis,
    KeyedBasis,
    QMatrix,
    RowSpace,
    Vector,
    ZERO,
    _primitive,
    _reduce_rows,
    rank,
    rat,
)
from .graded import Element, FreeGCA, Monomial, apply_odd_derivation, derive_monomial


class FreeCDGA:
    """Free CDGA: a free algebra plus a degree +1 differential on generators, validated when ``check``."""

    def __init__(self, gca: FreeGCA, diff: Mapping[str, Element], check: bool = True):
        self.gca = gca
        images: dict[str, Element] = {}
        for g in gca.generators:
            img = diff.get(g.name)
            if img is None:
                img = gca.zero()
            elif check and img.algebra is not gca:
                raise InputError(f"differential image of {g.name!r} lives in a different algebra")
            elif check and not img.is_zero() and img.degree() != g.degree + 1:
                raise InputError(
                    f"differential of {g.name!r} must be homogeneous of degree {g.degree + 1}"
                )
            images[g.name] = img
        for name in diff:
            if name not in gca.index:
                raise InputError(f"differential given for unknown generator {name!r}")
        self.diff = images
        self._mono_d: dict[Monomial, dict[Monomial, Fraction]] = {}
        if check:
            ok, offender = check_d_squared(self)
            if not ok:
                name, residue = offender
                raise InputError(f"d squared is nonzero on generator {name!r}: {residue!r}")

    def _d_monomial(self, mono: Monomial) -> dict[Monomial, Fraction]:
        """Terms of d(mono), computed once per monomial."""
        terms = self._mono_d.get(mono)
        if terms is None:
            terms = self._mono_d[mono] = derive_monomial(self.diff, self.gca, mono)
        return terms

    def _extend(self, gens: Sequence[tuple[str, int]], diff: Mapping[str, Element]) -> "FreeCDGA":
        """This algebra with ``gens`` appended, unchecked.

        ``diff`` gives differentials of the new generators as elements of this
        algebra; a new generator missing from it is closed.

        Appending generators changes no key and no differential of an existing
        monomial, so the images, the monomial differentials computed so far and
        the bases (through the grown algebra) carry over as they are.
        """
        gca = FreeGCA(gens, parent=self.gca)
        images = {n: Element(gca, img.terms) for n, img in {**self.diff, **diff}.items()}
        out = FreeCDGA(gca, images, check=False)
        out._mono_d = dict(self._mono_d)
        return out

    def __repr__(self):
        return f"FreeCDGA({self.gca!r})"


def check_d_squared(f: FreeCDGA):
    """Verify d(d(g)) = 0 for every generator; return (ok, counterexample)."""
    for g in f.gca.generators:
        residue = apply_odd_derivation(f.diff, f.diff[g.name])
        if not residue.is_zero():
            return False, (g.name, residue)
    return True, None


# ---------------------------------------------------------------------------
# Truncated DG algebras
# ---------------------------------------------------------------------------

MultFn = Callable[[int, int, int, int], Optional[Sequence[tuple[int, Fraction]]]]

_UNREAD = object()  # a product table's answer for a product not read yet


class TruncatedDGA:
    """DG algebra presented by explicit bases up to ``cutoff``.

    ``mult_fn(i, a, j, b)`` returns the structure constants of the product of
    basis elements ``a`` (degree ``i``) and ``b`` (degree ``j``) for ``i <= j``
    as ``(index, value)`` pairs of its nonzero coordinates in degree ``i + j``,
    or None when the product was dropped.  It is called at most once per pair,
    on first read: the results, dropped products included, make the one sparse
    product table that every product and construction reads.  ``labels`` gives
    a string per basis element and degree, or is a callable that returns them,
    called on first read.  ``levels`` optionally attaches a
    filtration level to every basis element (used by the spectral sequence
    machinery).  ``bases`` optionally names the basis elements of every
    degree by keys: a monomial, a form term or a tensor factor pair.  An
    algebra carried by a subspace of an ambient sum (fiber products, global
    sections) keeps that :class:`BlockSum` as ``ambient`` and the per-degree
    ``kernels`` whose vectors are its basis in ambient coordinates; its
    levels are those of the ambient sum.
    """

    __slots__ = (
        "cutoff", "dims", "unit", "diff_mats", "_mult_fn", "_products",
        "_labels", "levels", "bases", "ambient", "kernels", "name", "_leaf_cache", "_own_levels", "__weakref__",
    )

    def __init__(
        self,
        cutoff: int,
        dims: Sequence[int],
        unit: Vector,
        diff_mats: Sequence[Optional[QMatrix]],
        mult_fn: MultFn,
        labels: Union[Sequence[Sequence[str]], Callable[[], Sequence[Sequence[str]]], None] = None,
        levels: Optional[Sequence[Sequence[int]]] = None,
        bases: Optional[Sequence[KeyedBasis]] = None,
        ambient: Optional[BlockSum] = None,
        kernels: Optional[Sequence[KernelBasis]] = None,
        check: bool = True,
        name: str = "",
    ):
        if cutoff < 0:
            raise InputError("cutoff must be non-negative")
        if len(dims) != cutoff + 1:
            raise InputError("dims must list every degree from 0 to the cutoff")
        if dims[0] < 1:
            raise InputError("degree 0 must contain the unit")
        self.cutoff = cutoff
        self.dims = list(dims)
        if len(unit) != dims[0]:
            raise InputError("unit vector has the wrong length")
        self.unit = tuple(rat(u) for u in unit)
        if not any(self.unit):
            raise InputError("unit must be nonzero")
        mats = list(diff_mats)
        if len(mats) != cutoff:
            raise InputError("diff_mats must cover degrees 0..cutoff-1")
        for k, m in enumerate(mats):
            if m is None:
                mats[k] = QMatrix.zero(dims[k + 1], dims[k])
            elif (m.rows, m.cols) != (dims[k + 1], dims[k]):
                raise InputError(f"differential matrix at degree {k} has the wrong shape")
        self.diff_mats: list[QMatrix] = mats  # type: ignore[assignment]
        self._mult_fn = mult_fn
        # (i, a, j, b) -> the product's nonzero (index, value) pairs, or None when dropped
        self._products: dict[tuple[int, int, int, int], Optional[Sequence[tuple[int, Fraction]]]] = {}
        if labels is None:
            labels = lambda dims=self.dims: [[f"e{k}_{a}" for a in range(n)] for k, n in enumerate(dims)]
        if not callable(labels):
            labels = [list(l) for l in labels]
            if [len(l) for l in labels] != self.dims or any(not isinstance(x, str) for l in labels for x in l):
                raise InputError("labels must give one string per basis element in every degree")
        self._labels = labels
        self.levels = [list(l) for l in levels] if levels is not None else None
        self.bases = list(bases) if bases is not None else None
        self.ambient = ambient
        self.kernels = list(kernels) if kernels is not None else None
        self.name = name
        self._leaf_cache: dict[int, tuple] = {}  # the spectral sequences' view, per degree
        # their levels in the algebra's own basis, or None where a basis element mixes levels
        self._own_levels: Union[list[list[int]], None, object] = _UNREAD
        if check:
            self._check_d_squared()

    # -- basics ---------------------------------------------------------
    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"TruncatedDGA{tag}(cutoff={self.cutoff}, dims={self.dims})"

    @property
    def labels(self) -> list[list[str]]:
        """A name per basis element and degree, built on first read."""
        if callable(self._labels):
            self._labels = [list(l) for l in self._labels()]
        return self._labels

    def dim(self, k: int) -> int:
        return self.dims[k] if 0 <= k <= self.cutoff else 0

    def d_matrix(self, k: int) -> QMatrix:
        if not 0 <= k < self.cutoff:
            raise CutoffTooSmallError(
                f"differential out of degree {k} is not stored (cutoff {self.cutoff})"
            )
        return self.diff_mats[k]

    def apply_d(self, k: int, v: Vector) -> Vector:
        return self.d_matrix(k).matvec(v)

    def _check_d_squared(self):
        for k in range(self.cutoff - 1):
            prod = self.diff_mats[k + 1].matmul(self.diff_mats[k])
            if not prod.is_zero():
                raise InputError(f"d squared is nonzero from degree {k}")

    # -- products ---------------------------------------------------------
    def _lookup(self, i: int, a: int, j: int, b: int) -> Optional[Sequence[tuple[int, Fraction]]]:
        """The nonzero structure constants ``(index, value)`` of e_a^{(i)} * e_b^{(j)}, or None when the
        product was dropped: the one read of the product table, which does not raise for a dropped
        product (``i + j`` within the cutoff, indices in range).  Each product is read once, dropped or
        not: ``(i, a) <= (j, b)`` from ``mult_fn``, the mirrored pair from it by graded commutativity."""
        key = (i, a, j, b)
        terms = self._products.get(key, _UNREAD)
        if terms is _UNREAD:
            if (i, a) > (j, b):
                base = self._lookup(j, b, i, a)
                terms = base if base is None or (i * j) % 2 == 0 else tuple((t, -x) for t, x in base)
            else:
                terms = self._mult_fn(i, a, j, b)
                if terms is not None and not all(0 <= t < self.dims[i + j] for t, _ in terms):
                    raise InputError("mult_fn returned an index outside the product degree")
            self._products[key] = terms
        return terms

    def _dropped(self, i: int, a: int, j: int, b: int) -> CutoffTooSmallError:
        return CutoffTooSmallError(
            f"product of basis elements ({i},{a}) and ({j},{b}) was dropped; rebuild with a larger cutoff"
        )

    def _terms(self, i: int, a: int, j: int, b: int) -> Sequence[tuple[int, Fraction]]:
        """:meth:`_lookup` for any degrees and indices; a dropped product raises."""
        if i + j > self.cutoff:
            raise CutoffTooSmallError(f"product of degrees {i} and {j} exceeds cutoff {self.cutoff}")
        if not (0 <= a < self.dim(i) and 0 <= b < self.dim(j)):
            raise InputError("basis index out of range")
        terms = self._lookup(i, a, j, b)
        if terms is None:
            raise self._dropped(i, a, j, b)
        return terms

    def product_basis(self, i: int, a: int, j: int, b: int) -> Vector:
        """Structure constants of e_a^{(i)} * e_b^{(j)} as a degree i+j vector: the dense
        view of the product table, for callers outside it."""
        out = [ZERO] * self.dim(i + j)
        for t, x in self._terms(i, a, j, b):
            out[t] = x
        return tuple(out)

    def multiply(self, i: int, va: Vector, j: int, vb: Vector) -> Vector:
        """Bilinear product of a degree-i vector and a degree-j vector."""
        if i + j > self.cutoff:
            raise CutoffTooSmallError(f"product of degrees {i} and {j} exceeds cutoff {self.cutoff}")
        if (len(va), len(vb)) != (self.dim(i), self.dim(j)):
            raise InputError(
                f"multiply: vectors of lengths {len(va)} and {len(vb)} against dimensions "
                f"{self.dim(i)} and {self.dim(j)} in degrees {i} and {j}"
            )
        left = [(a, ca) for a, ca in enumerate(va) if ca]
        right = [(b, cb) for b, cb in enumerate(vb) if cb]
        prod = self._product(i, left, j, right)
        if prod is None:
            # the first dropped product it needs, in the order it reads them
            raise next(self._dropped(i, a, j, b) for a, _ in left for b, _ in right if self._lookup(i, a, j, b) is None)
        return tuple(prod)

    def _product(self, i: int, xs: Sequence, j: int, ys: Sequence) -> Optional[list]:
        """The product of a degree-i and a degree-j vector given by their nonzero ``(index, value)``
        pairs, as a dense list, or None when it needs a dropped product."""
        acc = [ZERO] * self.dim(i + j)
        table = self._products
        for a, ca in xs:
            for b, cb in ys:
                terms = table.get((i, a, j, b), _UNREAD)
                if terms is _UNREAD:
                    terms = self._lookup(i, a, j, b)
                if terms is None:
                    return None
                c = ca * cb
                for t, x in terms:
                    acc[t] += c * x
        return acc

    # -- filtration levels -------------------------------------------------
    def basis_level(self, k: int, a: int) -> int:
        return self.levels[k][a] if self.levels is not None else 0

    # -- validation ---------------------------------------------------------
    def validate(self) -> list[str]:
        """Check the unit laws, the Leibniz rule and associativity on every basis case.

        Every basis element, every basis pair (a, b) with |a| <= |b| and |a| + |b| < cutoff,
        and every basis triple within the cutoff is checked; nothing is sampled.  Both sides are
        read off the product table (:meth:`_lookup`) and the sparse columns of the differentials.
        Returns a list of human-readable failure descriptions (empty = ok).  Cases that need a
        dropped product are skipped, not reported.
        """
        problems: list[str] = []
        read = self._lookup
        d = [m.sparse_columns() for m in self.diff_mats]

        def total(terms) -> Optional[dict]:
            """``sum c * product`` over the lazy ``(c, product)`` pairs, or None at a dropped product."""
            acc: dict = {}
            for c, prod in terms:
                if prod is None:
                    return None
                for t, x in prod:
                    acc[t] = acc.get(t, 0) + c * x
            return {t: x for t, x in acc.items() if x}

        # unit laws
        unit = [(u, cu) for u, cu in enumerate(self.unit) if cu]
        for k in range(self.cutoff + 1):
            for a in range(self.dim(k)):
                lhs = total((cu, read(0, u, k, a)) for u, cu in unit)
                if lhs is not None and lhs != {a: ONE}:
                    problems.append(f"unit law fails on basis ({k},{a})")
        # Leibniz: d(ab) = (da) b + (-1)^i a (db)
        for i in range(self.cutoff + 1):
            for j in range(i, self.cutoff - i):
                sign = -1 if i % 2 else 1
                for a in range(self.dim(i)):
                    for b in range(self.dim(j)):
                        ab = read(i, a, j, b)
                        if ab is None:
                            continue
                        da_b = ((x, read(i + 1, r, j, b)) for r, x in d[i].get(a, ()))
                        a_db = ((sign * x, read(i, a, j + 1, s)) for s, x in d[j].get(b, ()))
                        rhs = total(chain(da_b, a_db))
                        if rhs is not None and total((x, d[i + j].get(t, ())) for t, x in ab) != rhs:
                            problems.append(f"Leibniz fails on basis pair ({i},{a}),({j},{b})")
        # associativity: (ab)c = a(bc)
        for i in range(self.cutoff + 1):
            for j in range(self.cutoff + 1 - i):
                for k in range(self.cutoff + 1 - i - j):
                    for a in range(self.dim(i)):
                        for b in range(self.dim(j)):
                            ab = read(i, a, j, b) if self.dim(k) else None
                            if ab is None:
                                continue
                            for c in range(self.dim(k)):
                                left = total((x, read(i + j, t, k, c)) for t, x in ab)
                                bc = read(j, b, k, c) if left is not None else None
                                if bc is None:
                                    continue
                                right = total((x, read(i, a, j + k, t)) for t, x in bc)
                                if right is not None and left != right:
                                    problems.append(f"associativity fails on ({i},{a}),({j},{b}),({k},{c})")
        return problems


def from_tables(
    cutoff: int,
    dims: Sequence[int],
    unit: Vector,
    diff_mats: Sequence[Optional[QMatrix]],
    mult: Mapping[tuple[int, int, int, int], Vector],
    **kw,
) -> TruncatedDGA:
    """TruncatedDGA from an explicit (possibly partial) table of dense product vectors;
    each is read into the sparse product table on first read."""

    def mult_fn(i, a, j, b):
        vec = mult.get((i, a, j, b))
        if vec is not None and len(vec) != dims[i + j]:
            raise InputError("mult_fn returned a vector of the wrong length")
        return None if vec is None else [(t, x) for t, x in enumerate(vec) if x]

    return TruncatedDGA(cutoff, dims, unit, diff_mats, mult_fn, **kw)


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def truncate(f: FreeCDGA, cutoff: int) -> TruncatedDGA:
    """Faithful truncation of a free CDGA to degrees 0..cutoff; each basis key is a monomial."""
    if cutoff < 0:
        raise InputError("cutoff must be non-negative")
    gca = f.gca
    bases = [KeyedBasis(gca.basis_in_degree(k)) for k in range(cutoff + 1)]
    diff_mats = [
        bases[k + 1].matrix([f._d_monomial(mono) for mono in bases[k].keys])
        for k in range(cutoff)
    ]

    def mult_fn(i, a, j, b):
        prod = gca.mono_mul(bases[i].keys[a], bases[j].keys[b])
        if prod is None:
            return ()
        sign, mono = prod
        return ((bases[i + j].index[mono], ONE if sign > 0 else -ONE),)

    return TruncatedDGA(
        cutoff,
        [len(b) for b in bases],
        bases[0].vector({gca.unit_monomial(): ONE}),
        diff_mats,
        mult_fn,
        labels=lambda: [[gca.mono_str(m) for m in basis.keys] for basis in bases],
        bases=bases,
        check=False,
    )


def point_dga(cutoff: int) -> TruncatedDGA:
    """The base field as a DG algebra."""
    dims = [1] + [0] * cutoff
    return TruncatedDGA(
        cutoff,
        dims,
        (ONE,),
        [QMatrix.zero(dims[k + 1], dims[k]) for k in range(cutoff)],
        lambda i, a, j, b: ((0, ONE),),
        labels=[["1"]] + [[] for _ in range(cutoff)],
        check=False,
        name="Q",
    )


def power_quotient_dga(degree: int, power: int, cutoff: int) -> TruncatedDGA:
    """Q[x]/(x^power) with |x| = degree (even) and zero differential."""
    if degree % 2 != 0 or degree < 2:
        raise InputError("power quotients need one even positive generator degree")
    if power < 1:
        raise InputError("power must be at least 1")
    dims = [0] * (cutoff + 1)
    exps = {}
    for e in range(power):
        if e * degree <= cutoff:
            dims[e * degree] = 1
            exps[e * degree] = e

    def mult_fn(i, a, j, b):
        # x^e x^f = x^(e+f), within the cutoff as i + j is
        return ((0, ONE),) if exps[i] + exps[j] < power else ()

    labels = [
        (["1"] if k == 0 else ([f"x^{exps[k]}"] if dims[k] else []))
        for k in range(cutoff + 1)
    ]
    return TruncatedDGA(
        cutoff,
        dims,
        (ONE,),
        [QMatrix.zero(dims[k + 1], dims[k]) for k in range(cutoff)],
        mult_fn,
        labels=labels,
        check=False,
        name=f"Q[x]/(x^{power})",
    )


class BlockSum:
    """Vectors of A_0 (+) ... (+) A_m up to ``cutoff``, written block after block.

    The operations are blockwise: each part differentiates and multiplies
    only its own block.  This is not a :class:`TruncatedDGA` over the whole
    sum, whose ``multiply`` would look up a product for every pair of entries,
    blocks apart or not.  Fiber products and global sections are carried by
    kernels inside such a sum.
    """

    __slots__ = ("parts", "cutoff", "unit", "_starts")

    def __init__(self, parts: Sequence[TruncatedDGA], cutoff: int):
        self.parts = tuple(parts)
        self.cutoff = cutoff
        self.unit = tuple(x for part in self.parts for x in part.unit)
        self._starts = [
            list(accumulate((part.dim(k) for part in self.parts), initial=0))
            for k in range(cutoff + 1)
        ]

    def dim(self, k: int) -> int:
        return self._starts[k][-1] if 0 <= k <= self.cutoff else 0

    def offsets(self, k: int) -> list[int]:
        """Where each block starts in degree k, followed by the total dimension."""
        return self._starts[k]

    def split(self, k: int, v: Vector) -> list[Vector]:
        """The blocks of a degree-k vector."""
        starts = self._starts[k]
        if len(v) != starts[-1]:
            raise InputError(f"vector of length {len(v)} in a sum of dimension {starts[-1]}")
        return [v[lo:hi] for lo, hi in zip(starts, starts[1:])]

    def inject(self, t: int, k: int, v: Vector) -> Vector:
        """The degree-k vector that is ``v`` in block t and zero elsewhere."""
        starts = self._starts[k]
        return (ZERO,) * starts[t] + tuple(v) + (ZERO,) * (starts[-1] - starts[t + 1])

    def block_rows(self, t: int, k: int, m: QMatrix) -> QMatrix:
        """The rows of ``m``, a matrix on degree-k vectors, that block t holds."""
        lo, hi = self._starts[k][t : t + 2]
        return QMatrix._of(hi - lo, m.cols, {(r - lo, c): x for (r, c), x in m.entries.items() if lo <= r < hi})

    def d_matrix(self, k: int) -> QMatrix:
        """The block-diagonal differential out of degree k."""
        if not 0 <= k < self.cutoff:
            raise CutoffTooSmallError(f"no differential out of degree {k} (cutoff {self.cutoff})")
        return _block_diagonal([part.d_matrix(k) for part in self.parts])

    def multiply(self, i: int, va: Vector, j: int, vb: Vector) -> Vector:
        """Blockwise product of a degree-i vector and a degree-j vector."""
        pairs = zip(self.parts, self.split(i, va), self.split(j, vb))
        return tuple(z for part, x, y in pairs for z in part.multiply(i, x, j, y))


def _block_diagonal(blocks: Sequence[QMatrix]) -> QMatrix:
    """The matrix with ``blocks`` down its diagonal, in order."""
    entries = {}
    r0 = c0 = 0
    for block in blocks:
        for (r, c), x in block.entries.items():
            entries[(r0 + r, c0 + c)] = x
        r0 += block.rows
        c0 += block.cols
    return QMatrix._of(r0, c0, entries)


def _require_basis_levels(alg: TruncatedDGA, cutoff: int) -> None:
    """Refuse a kernel carrier whose filtration per-basis levels cannot hold: one with a nonzero
    element of level >= 1 in the coordinates of its leaves (:func:`specseq._in_leaves`), that is
    a combination of its basis columns that vanishes below level 1."""
    if alg.ambient is None:
        return
    from .specseq import _in_leaves  # specseq imports cdga
    for k in range(min(cutoff, alg.cutoff) + 1):
        leaves, _, columns, _ = _in_leaves(alg, k)
        levels = [leaf.basis_level(k, a) for leaf in leaves for a in range(leaf.dim(k))]
        low = [_primitive({c: x for c, x in col.items() if levels[c] < 1}) for col in columns]
        # such a combination exists when the cut columns are dependent, an empty one included
        if len(_reduce_rows(low, len(levels))[1]) < len(low):
            raise InputError(
                f"{alg.name or 'a kernel carrier'} has a filtration in its ambient sum, "
                "which per-basis levels cannot express"
            )


def direct_sum(a: TruncatedDGA, b: TruncatedDGA, cutoff: Optional[int] = None) -> TruncatedDGA:
    """Product DG algebra A x B (componentwise operations, unit (1,1)).

    A summand carried in an ambient sum must have a trivial filtration.
    """
    if cutoff is None:
        cutoff = min(a.cutoff, b.cutoff)
    if cutoff > min(a.cutoff, b.cutoff):
        raise InputError("cutoff exceeds a summand cutoff")
    _require_basis_levels(a, cutoff)
    _require_basis_levels(b, cutoff)
    blocks = BlockSum((a, b), cutoff)
    dims = [blocks.dim(k) for k in range(cutoff + 1)]
    diff_mats = [blocks.d_matrix(k) for k in range(cutoff)]

    def mult_fn(i, ia, j, jb):
        if ia < a.dim(i) and jb < a.dim(j):
            return a._lookup(i, ia, j, jb)
        if ia >= a.dim(i) and jb >= a.dim(j):
            terms = b._lookup(i, ia - a.dim(i), j, jb - a.dim(j))
            shift = a.dim(i + j)
            return None if terms is None else [(shift + t, x) for t, x in terms]
        return ()

    def labels():
        return [
            [f"({l},0)" for l in a.labels[k]] + [f"(0,{l})" for l in b.labels[k]]
            for k in range(cutoff + 1)
        ]
    levels = None
    if a.levels is not None or b.levels is not None:
        levels = [
            [a.basis_level(k, t) for t in range(a.dim(k))]
            + [b.basis_level(k, t) for t in range(b.dim(k))]
            for k in range(cutoff + 1)
        ]
    return TruncatedDGA(
        cutoff,
        dims,
        blocks.unit,
        diff_mats,
        mult_fn,
        labels=labels,
        levels=levels,
        check=False,
        name=f"({a.name})x({b.name})" if a.name or b.name else "",
    )


def tensor_product(a: TruncatedDGA, b: TruncatedDGA, cutoff: Optional[int] = None) -> TruncatedDGA:
    """Graded tensor product with Koszul signs.

    The degree-k basis is keyed by factor pairs ``(i, ia, j, jb)`` with
    ``i + j = k``: basis element ``ia`` of ``a`` in degree ``i`` tensored with
    basis element ``jb`` of ``b`` in degree ``j``.  Filtration levels come
    from the first factor only; callers put the base direction first.  A
    first factor carried in an ambient sum must have a trivial filtration.
    """
    if cutoff is None:
        cutoff = a.cutoff + b.cutoff
    _require_basis_levels(a, cutoff)
    bases = [
        KeyedBasis(
            (i, ia, k - i, jb)
            for i in range(max(0, k - b.cutoff), min(k, a.cutoff) + 1)
            for ia in range(a.dim(i))
            for jb in range(b.dim(k - i))
        )
        for k in range(cutoff + 1)
    ]
    if not bases[0].keys:
        raise InputError("tensor product lost the unit; lower the cutoff")

    diff_mats = []
    da = [m.sparse_columns() for m in a.diff_mats[:cutoff]]
    db = [m.sparse_columns() for m in b.diff_mats[:cutoff]]
    for k in range(cutoff):
        images = []
        for i, ia, j, jb in bases[k].keys:
            # d(a (x) b) = da (x) b + (-1)^i a (x) db; both factor
            # differentials must be stored (give factors a spare zero degree)
            if i == a.cutoff or j == b.cutoff:
                raise CutoffTooSmallError(
                    "tensor factor differential missing at its cutoff; lower the "
                    "tensor cutoff or rebuild the factor with a larger cutoff"
                )
            image = {(i + 1, r, j, jb): v for r, v in da[i].get(ia, ())}
            image.update({(i, ia, j + 1, r): -v if i % 2 else v for r, v in db[j].get(jb, ())})
            images.append(image)
        diff_mats.append(bases[k + 1].matrix(images))

    def mult_fn(i, x, j, y):
        i1, a1, j1, b1 = bases[i].keys[x]
        i2, a2, j2, b2 = bases[j].keys[y]
        if i1 + i2 > a.cutoff or j1 + j2 > b.cutoff:
            return None
        pa = a._lookup(i1, a1, i2, a2)
        pb = None if pa is None else b._lookup(j1, b1, j2, b2)
        if pb is None:
            return None
        sign = -1 if (j1 * i2) % 2 else 1
        index = bases[i + j].index
        return [
            (index[(i1 + i2, r, j1 + j2, s)], sign * va * vb) for r, va in pa for s, vb in pb
        ]

    return TruncatedDGA(
        cutoff,
        [len(basis) for basis in bases],
        tuple(a.unit[ia] * b.unit[jb] for _, ia, _, jb in bases[0].keys),
        diff_mats,
        mult_fn,
        labels=lambda: [
            [f"{a.labels[i][ia]}(x){b.labels[j][jb]}" for i, ia, j, jb in basis.keys]
            for basis in bases
        ],
        levels=(
            [[a.basis_level(i, ia) for i, ia, _, _ in basis.keys] for basis in bases]
            if a.levels is not None
            else None
        ),
        bases=bases,
        check=False,
        name=f"({a.name})(x)({b.name})" if a.name or b.name else "",
    )


# ---------------------------------------------------------------------------
# cohomology
# ---------------------------------------------------------------------------

@dataclass
class GradedCohomology:
    """Chosen cocycle representatives and class arithmetic up to a degree.

    ``cocycles[k]`` holds the representatives of H^k as sparse columns, ``reps[k]`` as dense
    vectors.  ``spaces[k]`` spans the cocycles of degree k: its kept columns are boundaries first
    and then the representatives.  Classes are read a matrix (:meth:`classes`) or a vector at a time.
    """

    algebra: TruncatedDGA
    upto: int
    dims: list[int]
    reps: list[list[Vector]]
    cocycles: list[QMatrix] = field(repr=False)
    spaces: list[RowSpace] = field(repr=False)

    def classes(self, k: int, left: QMatrix, right: QMatrix) -> QMatrix:
        """The classes of the columns of ``left right`` in H^k (:meth:`class_of` of each column),
        as the columns of a matrix."""
        self._check_degree(k)
        coords = self.spaces[k].coords_matrix(left, right)
        if coords is None:
            self._refuse(k, left.matmul(right).to_cols())
        return _tail(coords, self.dims[k])

    def class_of(self, k: int, v: Vector) -> Vector:
        """Coordinates of [v] in the chosen representatives of H^k."""
        self._check_degree(k)
        (coords,) = self.spaces[k].coords_many([v])
        if coords is None:
            self._refuse(k, [v])
        return coords[len(coords) - self.dims[k] :]

    def _check_degree(self, k: int) -> None:
        if not 0 <= k <= self.upto:
            raise InputError(f"degree {k} outside the computed range")

    def _refuse(self, k: int, vectors: Sequence[Vector]) -> None:
        """Raise for vectors outside the cocycle space, which holds every cocycle: the first failing check."""
        if k < self.algebra.cutoff and any(any(self.algebra.apply_d(k, v)) for v in vectors):
            raise InputError("class_of called on a non-cocycle")
        if not self.spaces[k].rank:
            raise InputError("nonzero vector in a degree with no cocycles")
        raise InputError("vector is not a cocycle modulo boundaries")

    def cup(self, p: int, i: int, q: int, j: int) -> Vector:
        """Class coordinates of [rep_i^p * rep_j^q] in H^{p+q}."""
        if p + q > self.upto:
            raise InputError("product degree exceeds the computed range")
        return self.class_of(p + q, self.algebra.multiply(p, self.reps[p][i], q, self.reps[q][j]))


def cohomology(a: TruncatedDGA, upto: int) -> GradedCohomology:
    """H^k = ker d_k / im d_{k-1} for k <= upto, with canonical representatives.

    ``upto`` must be strictly below the cutoff: H at the cutoff would need the
    differential leaving the top stored degree.
    """
    _below_cutoff(a, upto)
    degrees = [_cohomology_degree(a, k) for k in range(upto + 1)]
    cocycles, spaces = [m for m, _ in degrees], [rs for _, rs in degrees]
    return GradedCohomology(a, upto, [m.cols for m in cocycles], [m.to_cols() for m in cocycles], cocycles, spaces)


def _cohomology_degree(a: TruncatedDGA, k: int, cocycles: Optional[QMatrix] = None) -> tuple[QMatrix, RowSpace]:
    """Representatives of H^k, the columns of a matrix, and the cocycle space they complete.

    The space is the column span of ``[d_{k-1} | cocycles]``, so the boundaries come
    first; the representatives are the kept cocycle columns.  ``cocycles`` is the
    inclusion of ker d_k (:attr:`KernelBasis.inclusion`) when the caller already has it.
    """
    if cocycles is None:
        cocycles = KernelBasis(a.d_matrix(k)).inclusion
    boundaries = a.d_matrix(k - 1) if k else QMatrix._of(a.dim(k), 0, {})
    rs = RowSpace(boundaries.hstack(cocycles))
    at = {c: i for i, c in enumerate(rs.columns_from(boundaries.cols))}
    reps = QMatrix._of(cocycles.rows, len(at), {(r, at[c]): x for (r, c), x in cocycles.entries.items() if c in at})
    return reps, rs


def _tail(coords: QMatrix, n: int) -> QMatrix:
    """The last ``n`` rows of coordinates in a quotient's kept columns: classes modulo the columns before."""
    skip = coords.rows - n
    if not skip:
        return coords
    return QMatrix._of(n, coords.cols, {(r - skip, c): x for (r, c), x in coords.entries.items() if r >= skip})


def _below_cutoff(a: TruncatedDGA, upto: int) -> None:
    if upto >= a.cutoff:
        raise InputError(
            f"cohomology up to degree {upto} needs cutoff > {upto} (have {a.cutoff})"
        )


def cohomology_dims(a: TruncatedDGA, upto: int) -> list[int]:
    """dim H^k = dim C^k - rank d_k - rank d_{k-1} for k <= upto, the dimensions of
    :func:`cohomology` from ranks alone, with no representatives."""
    _below_cutoff(a, upto)
    ranks = [rank(a.d_matrix(k)) for k in range(upto + 1)]
    return [a.dim(k) - ranks[k] - (ranks[k - 1] if k else 0) for k in range(upto + 1)]


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------

class DGMorphism:
    """Degreewise linear map between truncated DG algebras.

    With ``check="full"``, the default, construction checks that the unit goes to the unit,
    that the map commutes with the differentials, and that it is multiplicative on every
    basis pair within the common cutoff, skipping dropped products; ``check="none"`` checks
    nothing, for maps the library built itself.  A pair whose product degree has dimension
    zero in the target is not enumerated: both of its sides lie in the zero space, so it
    holds whatever the matrices are.  ``check_mode`` records the check run ("full" or
    "none") and ``pairs_checked`` how many basis pairs had both sides compared: every pair
    with a nonzero target degree whose product was kept.
    """

    def __init__(
        self,
        source: TruncatedDGA,
        target: TruncatedDGA,
        mats: Sequence[QMatrix],
        check: str = "full",
        name: str = "",
    ):
        if check not in ("full", "none"):
            raise InputError(f"morphism check must be 'full' or 'none', not {check!r}")
        self.source = source
        self.target = target
        self.cap = min(source.cutoff, target.cutoff)
        if len(mats) != self.cap + 1:
            raise InputError(
                f"morphism needs matrices for degrees 0..{self.cap}, got {len(mats)}"
            )
        for k, m in enumerate(mats):
            if (m.rows, m.cols) != (target.dim(k), source.dim(k)):
                raise InputError(f"morphism matrix at degree {k} has the wrong shape")
        self.mats = list(mats)
        self.name = name
        self.check_mode = check
        self.pairs_checked = self._verify() if check == "full" else 0

    @classmethod
    def identity(cls, a: TruncatedDGA) -> "DGMorphism":
        return cls(a, a, [QMatrix.identity(a.dim(k)) for k in range(a.cutoff + 1)], check="none")

    def compose(self, other: "DGMorphism") -> "DGMorphism":
        """self after other (source of self must be target of other)."""
        if other.target is not self.source:
            raise InputError("composition mismatch")
        cap = min(self.cap, other.cap)
        return DGMorphism(
            other.source,
            self.target,
            [self.mats[k].matmul(other.mats[k]) for k in range(cap + 1)],
            check="none",
        )

    def _verify(self) -> int:
        """Run the checks; return the number of basis pairs compared."""
        src, tgt = self.source, self.target
        if self.mats[0].matvec(src.unit) != tgt.unit:
            raise InputError("morphism does not send the unit to the unit")
        for k in range(self.cap):
            lhs = tgt.d_matrix(k).matmul(self.mats[k])
            rhs = self.mats[k + 1].matmul(src.d_matrix(k))
            if lhs != rhs:
                raise InputError(f"morphism is not a cochain map at degree {k}")
        # both sides of a product in a zero target degree are the empty vector
        pairs = (
            (i, a, j, b)
            for i in range(self.cap + 1)
            for j in range(i, self.cap + 1 - i)
            if tgt.dim(i + j)
            for a in range(src.dim(i))
            for b in range(src.dim(j))
        )
        # the columns of every matrix, the images of the source basis
        images = [m.sparse_columns() for m in self.mats]
        checked = 0
        for i, a, j, b in pairs:
            terms = src._lookup(i, a, j, b)
            if terms is None:
                continue
            # phi(e_a e_b): the product's terms times the images of their basis elements
            lhs = [ZERO] * tgt.dim(i + j)
            for t, x in terms:
                for r, y in images[i + j].get(t, ()):
                    lhs[r] += x * y
            rhs = tgt._product(i, images[i].get(a, ()), j, images[j].get(b, ()))
            if rhs is None:
                continue
            if lhs != rhs:
                raise InputError(
                    f"morphism is not multiplicative on basis pair ({i},{a}),({j},{b})"
                )
            checked += 1
        return checked


def tensor_morphism(
    src: TruncatedDGA,
    tgt: TruncatedDGA,
    f: Optional[DGMorphism],
    g: Optional[DGMorphism],
) -> DGMorphism:
    """``f (x) g`` between two tensor products, unchecked.

    ``src`` and ``tgt`` must come from :func:`tensor_product`; ``f`` maps the
    first factor of ``src`` to that of ``tgt`` and ``g`` the second, and None
    stands for an identity.  The maps keep degrees, so no Koszul sign enters.
    """

    cap = min(src.cutoff, tgt.cutoff)
    f_cols, g_cols = ([m.sparse_columns() for m in h.mats[: cap + 1]] if h else None for h in (f, g))
    mats = []
    for k in range(cap + 1):
        images = []
        for i, ia, j, jb in src.bases[k].keys:
            # an identity leg contributes (x, ONE), which multiplies nothing
            left = f_cols[i].get(ia, ()) if f_cols else ((ia, ONE),)
            right = g_cols[j].get(jb, ()) if g_cols else ((jb, ONE),)
            images.append(
                {(i, r, j, s): v if u is ONE else u if v is ONE else u * v for r, u in left for s, v in right}
            )
        mats.append(tgt.bases[k].matrix(images))
    return DGMorphism(src, tgt, mats, check="none")


def induced_map(
    h: DGMorphism,
    upto: int,
    source_h: Optional[GradedCohomology] = None,
    target_h: Optional[GradedCohomology] = None,
) -> list[QMatrix]:
    """Per-degree matrices of H(h) in the canonical representative bases."""
    if upto >= min(h.source.cutoff, h.target.cutoff):
        raise InputError("induced_map needs upto below both cutoffs")
    hs = source_h if source_h is not None else cohomology(h.source, upto)
    ht = target_h if target_h is not None else cohomology(h.target, upto)
    return [ht.classes(k, h.mats[k], hs.cocycles[k]) for k in range(upto + 1)]


def is_quasi_iso(
    h: DGMorphism,
    upto: int,
    source_h: Optional[GradedCohomology] = None,
    target_h: Optional[GradedCohomology] = None,
) -> tuple[bool, Optional[int]]:
    """True iff H(h) is bijective in all degrees <= upto; else first failure.  The source's
    dimensions come from ranks, and its representatives, their classes and the rank of
    H^k(h) are built only in degrees where both sides are nonzero."""
    if upto >= min(h.source.cutoff, h.target.cutoff):
        raise InputError("is_quasi_iso needs upto below both cutoffs")
    dims = source_h.dims if source_h is not None else cohomology_dims(h.source, upto)
    ht = target_h if target_h is not None else cohomology(h.target, upto)
    for k in range(upto + 1):
        if dims[k] != ht.dims[k]:
            return False, k
        if dims[k]:
            reps = source_h.cocycles[k] if source_h is not None else _cohomology_degree(h.source, k)[0]
            if rank(ht.classes(k, h.mats[k], reps)) != dims[k]:
                return False, k
    return True, None
