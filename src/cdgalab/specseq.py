"""Spectral sequences of finite decreasingly filtered cochain complexes.

Pages are computed from the classical cocycle/boundary towers

    Z_r^{p,q} = { x in F^p C^{p+q} : dx in F^{p+r} },
    E_r^{p,q} = Z_r / (Z_{r-1}^{p+1,q-1} + d Z_{r-1}^{p-r+1,q+r-2}),

by exact linear algebra, lazily per bidegree with caching.  The skeletal
filtration of the global sections of a local system filters a section by the
base form level of its components (level >= p vanishes on all simplices of
dimension below p); it is multiplicative and supported in the first quadrant,
and its second page is compared against twisted simplicial cohomology with
the fiberwise cohomology coefficients.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from .cdga import TruncatedDGA, _boundaries, cohomology
from .errors import CutoffTooSmallError, InputError, InternalError, PreconditionError
from .exactlin import KernelBasis, QMatrix, RowSpace, Vector, rank
from .gluing import _push
from .localsys import (
    FiniteLocalSystem,
    SystemMorphism,
    cohomology_local_system,
    global_sections,
    h_local_coefficients,
)


@dataclass
class FilteredComplex:
    """A truncated DG algebra with a decreasing multiplicative filtration.

    F^p in degree k is the kernel of ``algebra.level_rows(k, p)`` for
    p <= p_bound, so F^0 is the whole complex, and F^p = 0 beyond p_bound.
    Each level is computed once, when first read, as a :class:`KernelBasis`.
    """

    algebra: TruncatedDGA
    p_bound: int
    _rows: dict = field(default_factory=dict, init=False, repr=False)
    _spaces: dict = field(default_factory=dict, init=False, repr=False)

    def level_rows(self, p: int, k: int) -> QMatrix:
        """Rows whose kernel is F^p in degree k."""
        key = (p, k)
        if key not in self._rows:
            if p > self.p_bound:
                self._rows[key] = QMatrix.identity(self.algebra.dim(k))
            else:
                self._rows[key] = self.algebra.level_rows(k, p)
        return self._rows[key]

    def level(self, p: int, k: int) -> KernelBasis:
        """F^p in degree k, for a degree k of the algebra."""
        if (p, k) not in self._spaces:
            self._spaces[(p, k)] = KernelBasis(self.level_rows(p, k))
        return self._spaces[(p, k)]

    def subspace(self, p: int, k: int) -> list[Vector]:
        """Basis of F^p in degree k."""
        if k < 0 or k > self.algebra.cutoff:
            return []
        return self.level(p, k).vectors

    def contains(self, p: int, k: int, v: Vector) -> bool:
        """Whether the degree-k vector ``v`` lies in F^p."""
        return not any(self.level_rows(p, k).matvec(v))

    def validate(self, rng=None, product_samples: int = 60) -> list[str]:
        problems = []
        alg = self.algebra
        for p in range(1, self.p_bound + 1):
            for k in range(alg.cutoff + 1):
                if not all(self.contains(p - 1, k, v) for v in self.subspace(p, k)):
                    problems.append(f"F^{p} not inside F^{p - 1} at degree {k}")
            for k in range(alg.cutoff):
                if not all(self.contains(p, k + 1, alg.apply_d(k, v)) for v in self.subspace(p, k)):
                    problems.append(f"d leaves F^{p} at degree {k}")
        if rng is not None:
            for _ in range(product_samples):
                p = rng.randint(0, self.p_bound)
                q = rng.randint(0, self.p_bound - p)
                i = rng.randint(0, self.algebra.cutoff)
                j = rng.randint(0, self.algebra.cutoff - i)
                fp = self.subspace(p, i)
                fq = self.subspace(q, j)
                if not fp or not fq:
                    continue
                x = fp[rng.randrange(len(fp))]
                y = fq[rng.randrange(len(fq))]
                try:
                    prod = self.algebra.multiply(i, x, j, y)
                except CutoffTooSmallError:
                    continue
                if not self.contains(p + q, i + j, prod):
                    problems.append(
                        f"product of F^{p} and F^{q} leaves F^{p + q} at degrees ({i},{j})"
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


class PageTower:
    """Lazy page computations over a filtered complex."""

    def __init__(self, fc: FilteredComplex):
        self.fc = fc
        self._z_cache: dict[tuple[int, int, int], list[Vector]] = {}
        # (r, p, q) -> (entry, space spanned by the denominators, then the reps)
        self._entry_cache: dict[tuple[int, int, int], tuple[tuple, RowSpace]] = {}

    # -- subspaces ------------------------------------------------------
    def z_basis(self, p: int, target_p: int, n: int) -> list[Vector]:
        """Basis of { x in F^p C^n : dx in F^{target_p} }."""
        alg = self.fc.algebra
        key = (max(p, 0), min(max(target_p, 0), self.fc.p_bound + 1), n)
        if key in self._z_cache:
            return self._z_cache[key]
        p_eff, tgt_eff, _ = key
        if not 0 <= n <= alg.cutoff or not self.fc.level(p_eff, n).rank:
            self._z_cache[key] = []
            return []
        if n >= alg.cutoff:
            # no differential out of the top stored degree
            raise InputError("page computation needs degrees below the cutoff")
        fp_m = self.fc.level(p_eff, n).inclusion
        rows = self.fc.level_rows(tgt_eff, n + 1).matmul(alg.d_matrix(n).matmul(fp_m))
        out = fp_m.matmul(KernelBasis(rows).inclusion).to_cols()
        self._z_cache[key] = out
        return out

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
        if p < 0 or n < 0:
            self._entry_cache[key] = ((0, [], []), RowSpace(0))
            return self._entry_cache[key]
        if r == 0:
            z = self.fc.subspace(p, n)
            denom = self.fc.subspace(p + 1, n)
        else:
            z = self.z_basis(p, p + r, n)
            denom = list(self.z_basis(p + 1, p + r, n))
            lower = self.z_basis(p - r + 1, p, n - 1) if n >= 1 else []
            for v in lower:
                denom.append(alg.apply_d(n - 1, v))
        rs = RowSpace(alg.dim(n), denom)
        reps = [v for v in z if rs.add(v)]
        self._entry_cache[key] = ((len(reps), reps, denom), rs)
        return self._entry_cache[key]

    def class_in_entry(self, r: int, p: int, q: int, v: Vector) -> Vector:
        """Coordinates of the class of ``v`` in the representatives of E_r^{p,q}."""
        (dim_e, _, _), space = self._entry(r, p, q)
        if not space.rank:
            if any(v):
                raise InputError("vector has no expression in an empty page entry")
            return ()
        (coords,) = space.express([v], "vector does not lie in the page entry")
        return coords[space.rank - dim_e :]

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

    def page(self, r: int, p_max: int, q_max: int, with_diffs: bool = True) -> Page:
        page = Page(r=r)
        cutoff = self.fc.algebra.cutoff
        for p in range(0, p_max + 1):
            for q in range(0, q_max + 1):
                dim_e, reps, denom = self.entry(r, p, q)
                page.entries[(p, q)] = dim_e
                page.reps[(p, q)] = reps
                page.denoms[(p, q)] = denom
                if with_diffs and p + q + 1 < cutoff:
                    page.diffs[(p, q)] = self.diff(r, p, q)
        return page

    def infinity_page_index(self) -> int:
        return self.fc.p_bound + 2


def pages(fc: FilteredComplex, r_max: int, p_max: Optional[int] = None, q_max: Optional[int] = None) -> list[Page]:
    """Pages E_0 .. E_{r_max} on a finite window (defaults fill the cutoff)."""
    problems = fc.validate()
    if problems:
        raise InputError("invalid filtered complex: " + problems[0])
    if p_max is None:
        p_max = fc.p_bound
    if q_max is None:
        q_max = max(0, fc.algebra.cutoff - 2)
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
    system is read from them.
    """

    def __init__(self, e: FiniteLocalSystem, upto: int):
        self.system = e
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
                dim_e, _, _ = self.tower.entry(2, p, q)
                dims_pages[(p, q)] = dim_e
                if dim_e != h_twisted[(p, q)]:
                    mismatches.append(((p, q), dim_e, h_twisted[(p, q)]))
        return E2Report(dims_pages, h_twisted, mismatches)

    def einfty_vs_target(self, upto: int, product_samples: int = 12) -> EInftyReport:
        """Totals of the limit page against the cohomology of global sections.

        Also verifies that chosen permanent cycles multiply compatibly with
        the filtration: the product of classes of filtration p and p' is a
        class of filtration at least p + p'.
        """
        fc, tower = self.filtered, self.tower
        r_inf = tower.infinity_page_index()
        gamma = fc.algebra
        h = cohomology(gamma, upto)
        totals_pages = {}
        totals_target = {}
        mismatches = []
        entries = {}
        for k in range(upto + 1):
            total = 0
            for p in range(0, min(k, fc.p_bound) + 1):
                dim_e, reps, _ = tower.entry(r_inf, p, k - p)
                entries[(p, k - p)] = reps
                total += dim_e
            totals_pages[k] = total
            totals_target[k] = h.dims[k]
            if total != h.dims[k]:
                mismatches.append((k, total, h.dims[k]))
        report = EInftyReport(totals_pages, totals_target, mismatches)
        # product filtration compatibility on permanent-cycle representatives
        rng = random.Random(0)
        keys = [kq for kq, reps in entries.items() if reps]
        for _ in range(product_samples):
            if not keys:
                break
            (p1, q1) = keys[rng.randrange(len(keys))]
            (p2, q2) = keys[rng.randrange(len(keys))]
            if p1 + q1 + p2 + q2 > upto:
                continue
            x = entries[(p1, q1)][rng.randrange(len(entries[(p1, q1)]))]
            y = entries[(p2, q2)][rng.randrange(len(entries[(p2, q2)]))]
            try:
                prod = gamma.multiply(p1 + q1, x, p2 + q2, y)
            except CutoffTooSmallError:
                report.products_skipped += 1
                continue
            n = p1 + q1 + p2 + q2
            pf = p1 + p2
            # class of the product must be representable by an F^{p1+p2}
            # cocycle modulo coboundaries
            space = _boundaries(gamma, n)
            for z in tower.z_basis(pf, fc.p_bound + 1, n) if n < gamma.cutoff else []:
                space.add(z)
            report.product_checks += 1
            if not space.contains(prod):
                report.product_failures.append(((p1, q1), (p2, q2)))
        return report


def e2_check(e: FiniteLocalSystem, p_max: int, q_max: int) -> E2Report:
    """:meth:`SpectralSequence.e2_check` on a sequence built for these bounds."""
    return SpectralSequence(e, p_max + q_max + 1).e2_check(p_max, q_max)


def einfty_vs_target(e: FiniteLocalSystem, upto: int, product_samples: int = 12) -> EInftyReport:
    """:meth:`SpectralSequence.einfty_vs_target` on a sequence built for ``upto``."""
    return SpectralSequence(e, upto + 1).einfty_vs_target(upto, product_samples)


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
    src_ss = SpectralSequence(m.source, upto)
    dst_ss = SpectralSequence(m.target, upto)
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
