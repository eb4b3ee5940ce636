"""Finite local systems of DG algebras over ordered simplicial complexes.

A system assigns a truncated DG algebra to every simplex and a DG morphism to
every facet inclusion; deeper restrictions are composites (functoriality is a
validation check, so composites are path-independent).  The module provides
the standard predicates (locally constant, extendable), global sections as a
DG algebra, pullback along simplicial vertex maps, objectwise fiber products,
the vertexwise cohomology local coefficients with their edge transports, and
twisted simplicial cohomology with those coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from .cdga import (
    BlockSum,
    DGMorphism,
    GradedCohomology,
    TruncatedDGA,
    cohomology,
    induced_map,
    tensor_morphism,
    tensor_product,
)
from .errors import CdgaError, CutoffTooSmallError, InputError, InternalError, PreconditionError
from .exactlin import (
    ONE,
    KernelBasis,
    QMatrix,
    ZERO,
    _inverse,
    kernel_basis,  # noqa: F401  the benchmark's tracer self-test wraps this binding
    rank,
)
from .gluing import FiberProductDGA, _evaluation, _kernel_carrier, _push, fiber_product, interval_forms
from .polyforms import (
    SimplicialComplexK,
    Simplex,
    face_restriction_matrices,
    forms_dga,
)


@dataclass
class FiniteLocalSystem:
    """Contravariant assignment of DG algebras to the simplices of a complex.

    The first spectral-sequence check of a system keeps its skeletal spectral sequence (global
    sections, filtration and page tower) on the system, and later checks read it; so a system
    is not to be mutated after a check.  Nothing in the library mutates a system after
    construction.
    """

    base: SimplicialComplexK
    fibers: dict[Simplex, TruncatedDGA]
    facet_restrictions: dict[tuple[Simplex, int], DGMorphism]
    _sequence_cache: object = field(default=None, init=False, repr=False, compare=False)

    def restriction(self, s: Simplex, t: Simplex) -> DGMorphism:
        """Composite restriction along t included in s (any codimension)."""
        s, t = tuple(s), tuple(t)
        if not set(t) <= set(s):
            raise InputError(f"{t} is not a face of {s}")
        if s == t:
            return DGMorphism.identity(self.fibers[s])
        extras = [p for p, v in enumerate(s) if v not in t]
        p = extras[-1]
        facet = s[:p] + s[p + 1 :]
        first = self.facet_restrictions[(s, p)]
        if facet == t:
            return first
        return self.restriction(facet, t).compose(first)

    def min_cutoff(self) -> int:
        if not self.fibers:
            raise InputError("the base complex has no simplices")
        return min(f.cutoff for f in self.fibers.values())


def _within_fibers(e: FiniteLocalSystem, n: int, what: str) -> int:
    """``n``, once the global sections of ``e`` can be built up to degree n; ``what`` names n."""
    cap = e.min_cutoff()
    if n > cap:
        raise InputError(f"{what} = {n} exceeds the smallest fiber cutoff {cap}")
    return n


def validate(e: FiniteLocalSystem) -> list[str]:
    """Functoriality and morphism checks; returns violation descriptions."""
    problems: list[str] = []
    for s in e.base.all_simplices():
        if s not in e.fibers:
            problems.append(f"no fiber assigned to {s}")
        for i, _facet in e.base.facets(s):
            if (s, i) not in e.facet_restrictions:
                problems.append(f"no restriction from {s} to its facet {i}")
    if problems:
        return problems
    for (s, i), r in e.facet_restrictions.items():
        if not e.base.contains(s):
            problems.append(f"restriction on unknown simplex {s}")
            continue
        facet = s[:i] + s[i + 1 :]
        if r.source is not e.fibers[s] or r.target is not e.fibers[facet]:
            problems.append(f"restriction endpoints wrong at ({s}, {i})")
        try:
            r._verify()
        except CdgaError as exc:
            problems.append(f"restriction at ({s}, {i}) is not a DG morphism: {exc}")
    if problems:
        return problems  # functoriality composes restrictions, so needs their ends right
    for s in e.base.all_simplices():
        n = len(s) - 1
        if n < 2:
            continue
        for j in range(n + 1):
            for i in range(j):
                left_mid = s[:j] + s[j + 1 :]
                right_mid = s[:i] + s[i + 1 :]
                left = e.facet_restrictions[(left_mid, i)].compose(
                    e.facet_restrictions[(s, j)]
                )
                right = e.facet_restrictions[(right_mid, j - 1)].compose(
                    e.facet_restrictions[(s, i)]
                )
                if left.mats != right.mats:
                    problems.append(f"functoriality fails on {s} with faces {i}<{j}")
    return problems


@dataclass
class SystemMorphism:
    """Fiberwise DG morphisms commuting with the restrictions."""

    source: FiniteLocalSystem
    target: FiniteLocalSystem
    maps: dict[Simplex, DGMorphism]

    def validate(self) -> list[str]:
        problems = []
        if self.source.base != self.target.base:
            problems.append("source and target live over different bases")
            return problems
        for s in self.source.base.all_simplices():
            if s not in self.maps:
                problems.append(f"no component at {s}")
        for (s, i), r_src in self.source.facet_restrictions.items():
            facet = s[:i] + s[i + 1 :]
            r_tgt = self.target.facet_restrictions[(s, i)]
            left = r_tgt.compose(self.maps[s])
            right = self.maps[facet].compose(r_src)
            if left.mats != right.mats:
                problems.append(f"naturality fails at ({s}, {i})")
        return problems


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def constant_system(base: SimplicialComplexK, fiber: TruncatedDGA) -> FiniteLocalSystem:
    """All fibers equal, all restrictions the identity."""
    fibers = {s: fiber for s in base.all_simplices()}
    restr = {}
    for s in base.all_simplices():
        for i, _facet in base.facets(s):
            restr[(s, i)] = DGMorphism.identity(fiber)
    return FiniteLocalSystem(base, fibers, restr)


def forms_system(
    base: SimplicialComplexK, total_degree: int, cutoff: Optional[int] = None
) -> FiniteLocalSystem:
    """Polynomial forms on each simplex with face restrictions.

    This is the ambient admissible algebra regarded as a local system; its
    global sections are the compatible polynomial forms on the complex.  The
    restriction to face i of an n-simplex depends only on (n, i), so each is
    built once and shared.
    """
    dim = base.dim()
    if cutoff is None:
        cutoff = dim + 1
    per_dim = {n: forms_dga(n, total_degree, cutoff=cutoff) for n in range(dim + 1)}
    fibers = {s: per_dim[len(s) - 1] for s in base.all_simplices()}
    per_face: dict[tuple[int, int], DGMorphism] = {}
    restr = {}
    for s in base.all_simplices():
        n = len(s) - 1
        for i, _facet in base.facets(s):
            if (n, i) not in per_face:
                mats = face_restriction_matrices(per_dim[n], per_dim[n - 1], i)
                per_face[(n, i)] = DGMorphism(per_dim[n], per_dim[n - 1], mats, check="none")
            restr[(s, i)] = per_face[(n, i)]
    return FiniteLocalSystem(base, fibers, restr)


def tensor_system(
    e: FiniteLocalSystem, factor: TruncatedDGA, cutoff: int
) -> FiniteLocalSystem:
    """Objectwise tensor with a fixed algebra, restrictions r (x) id."""
    tensored: dict[int, TruncatedDGA] = {}
    fibers = {}
    for s in e.base.all_simplices():
        key = id(e.fibers[s])
        if key not in tensored:
            tensored[key] = tensor_product(e.fibers[s], factor, cutoff=cutoff)
        fibers[s] = tensored[key]
    per_map: dict[int, DGMorphism] = {}
    restr = {}
    for (s, i), r in e.facet_restrictions.items():
        if id(r) not in per_map:
            per_map[id(r)] = tensor_morphism(fibers[s], fibers[s[:i] + s[i + 1 :]], r, None)
        restr[(s, i)] = per_map[id(r)]
    return FiniteLocalSystem(e.base, fibers, restr)


def tensor_system_morphism(
    src: FiniteLocalSystem, dst: FiniteLocalSystem, leg: DGMorphism
) -> SystemMorphism:
    """id (x) leg between two tensor systems over the same forms factor.

    ``src`` and ``dst`` must be tensor systems whose simplexwise first factor
    agrees; ``leg`` maps the second factor of src to the second factor of dst.
    Simplices with the same pair of fibers share one map.
    """
    simplices = src.base.all_simplices()
    pairs = {(id(src.fibers[s]), id(dst.fibers[s])): (src.fibers[s], dst.fibers[s]) for s in simplices}
    per_pair = {key: tensor_morphism(a, b, None, leg) for key, (a, b) in pairs.items()}
    maps = {s: per_pair[(id(src.fibers[s]), id(dst.fibers[s]))] for s in simplices}
    return SystemMorphism(src, dst, maps)


def twist_restriction(
    e: FiniteLocalSystem, s: Simplex, i: int, automorphism: DGMorphism
) -> FiniteLocalSystem:
    """Replace one facet restriction by automorphism o restriction."""
    s = tuple(s)
    restr = dict(e.facet_restrictions)
    old = restr[(s, i)]
    if automorphism.source is not old.target or automorphism.target is not old.target:
        raise InputError("twist must be an automorphism of the facet fiber")
    restr[(s, i)] = automorphism.compose(old)
    return FiniteLocalSystem(e.base, dict(e.fibers), restr)


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

def _fiber_cohomologies(e: FiniteLocalSystem, upto: int) -> dict[int, GradedCohomology]:
    out: dict[int, GradedCohomology] = {}
    for f in e.fibers.values():
        if id(f) not in out:
            out[id(f)] = cohomology(f, upto)
    return out


def is_locally_constant(
    e: FiniteLocalSystem,
    upto: int,
    fiber_h: Optional[dict[int, GradedCohomology]] = None,
    induced: Optional[dict[int, list[QMatrix]]] = None,
) -> bool:
    """Every restriction a quasi-isomorphism in degrees <= upto.

    ``fiber_h`` may pass in the fiber cohomologies, keyed by ``id`` of the
    fiber, when the caller needs them too; ``induced``, when given, receives
    the map in cohomology (:func:`cdga.induced_map`) of every restriction the
    check passed, keyed by ``id``.  Facets may share one restriction object,
    which is checked once.
    """
    hs = fiber_h if fiber_h is not None else _fiber_cohomologies(e, upto)
    for r in {id(r): r for r in e.facet_restrictions.values()}.values():
        source_h, target_h = hs[id(r.source)], hs[id(r.target)]
        if source_h.dims[: upto + 1] != target_h.dims[: upto + 1]:
            return False
        mats = induced_map(r, upto, source_h, target_h)
        # the dimensions agree, so each matrix is square, and bijective when it has full rank
        if any(rank(m) != m.cols for m in mats):
            return False
        if induced is not None:
            induced[id(r)] = mats
    return True


def is_extendable(e: FiniteLocalSystem, upto: Optional[int] = None):
    """Sections over each simplex surject onto sections over its boundary.

    Over the full complex of a simplex the sections are the top fiber, so the
    check is: the boundary-restriction map from the fiber is degreewise onto
    the global sections of the boundary system.  Returns (bool, witnesses).
    """
    if upto is None:
        upto = e.min_cutoff()
    witnesses = []
    ok = True
    for s in e.base.all_simplices():
        n = len(s) - 1
        if n < 1:
            continue
        boundary = SimplicialComplexK.from_maximal(
            [s[:i] + s[i + 1 :] for i in range(n + 1)]
        )
        sub = FiniteLocalSystem(
            boundary,
            {t: e.fibers[t] for t in boundary.all_simplices()},
            {
                (t, i): e.facet_restrictions[(t, i)]
                for t in boundary.all_simplices()
                for i, _f in boundary.facets(t)
            },
        )
        kernels, ambient = _sections_basis(sub, upto)
        fib = e.fibers[s]
        restrictions = [e.restriction(s, tau) for tau in boundary.all_simplices()]
        cap = min(h.cap for h in restrictions)
        for k in range(min(upto, fib.cutoff) + 1):
            if k > cap:
                raise CutoffTooSmallError(f"morphism not stored above degree {cap}")
            # the fiber's basis restricted to every boundary simplex, stacked as in the boundary's sum
            blocks = zip(restrictions, ambient.offsets(k))
            entries = {(lo + r, c): x for h, lo in blocks for (r, c), x in h.mats[k].entries.items()}
            targets = QMatrix._of(ambient.dim(k), fib.dim(k), entries)
            cols = kernels[k].coords_matrix(targets, QMatrix.identity(fib.dim(k)))
            if cols is None:
                raise InternalError("boundary image is not a compatible family")
            r = rank(cols)
            if r != kernels[k].rank:
                ok = False
                witnesses.append((s, k, kernels[k].rank, r))
    return ok, witnesses


# ---------------------------------------------------------------------------
# global sections
# ---------------------------------------------------------------------------

def _sections_basis(e: FiniteLocalSystem, upto: int) -> tuple[list[KernelBasis], BlockSum]:
    """Kernels of the facet-compatibility map, per degree.

    Returns (kernels, ambient); the ambient sum has the fibers over all
    simplices as blocks, in simplex order.  The map sends a family to the
    differences ``r(x_s) - x_t`` over all facets t of all simplices s, one
    block of rows each.
    """
    layout = e.base.all_simplices()
    pairs = [(s, i, s[:i] + s[i + 1 :]) for s in layout for i, _t in e.base.facets(s)]
    ambient = BlockSum([e.fibers[s] for s in layout], upto)
    differences = BlockSum([e.fibers[t] for _, _, t in pairs], upto)
    kernels = []
    for k in range(upto + 1):
        col = dict(zip(layout, ambient.offsets(k)))
        entries = {}
        for (s, i, t), row in zip(pairs, differences.offsets(k)):
            for (rr, cc), v in e.facet_restrictions[(s, i)].mats[k].entries.items():
                entries[(row + rr, col[s] + cc)] = v
            for rr in range(e.fibers[t].dim(k)):
                key = (row + rr, col[t] + rr)
                entries[key] = entries.get(key, ZERO) - ONE
        kernels.append(KernelBasis(QMatrix(differences.dim(k), ambient.dim(k), entries)))
    return kernels, ambient


def global_sections(e: FiniteLocalSystem, upto: int) -> TruncatedDGA:
    """Compatible families as a DG algebra (the limit over the face poset)."""
    kernels, ambient = _sections_basis(e, _within_fibers(e, upto, "upto"))
    return _kernel_carrier(kernels, ambient, name="global_sections")


# ---------------------------------------------------------------------------
# pullback and fiber products
# ---------------------------------------------------------------------------

def pullback(
    e: FiniteLocalSystem, u: Mapping[int, int], new_base: SimplicialComplexK
) -> FiniteLocalSystem:
    """Pullback along the simplicial vertex map u: new_base -> base of e."""
    for s in new_base.all_simplices():
        imgs = [u.get(v) for v in s]
        if any(w is None for w in imgs):
            raise InputError(f"vertex map undefined on {s}")
        if any(x > y for x, y in zip(imgs, imgs[1:])):
            raise InputError(f"vertex map is not order-preserving on {s}")
        img = tuple(sorted(set(imgs)))
        if not e.base.contains(img):
            raise InputError(f"image of {s} is not a simplex of the base")

    def image(s: Simplex) -> Simplex:
        return tuple(sorted({u[v] for v in s}))

    fibers = {s: e.fibers[image(s)] for s in new_base.all_simplices()}
    restr = {}
    for s in new_base.all_simplices():
        for i, t in new_base.facets(s):
            restr[(s, i)] = e.restriction(image(s), image(t))
    return FiniteLocalSystem(new_base, fibers, restr)


def fiber_product_system(
    f: SystemMorphism, g: SystemMorphism, upto: int
) -> tuple[FiniteLocalSystem, dict[Simplex, FiberProductDGA]]:
    """Objectwise fiber product of E1 -> E0 <- E2 with induced restrictions.

    The first leg must be objectwise surjective in degrees <= upto (checked);
    this is what makes the result behave like the algebra of a gluing.
    Simplices with the same pair of legs share one fiber product, and facets
    with the same restrictions between the same fibers share one restriction.
    """
    same_target = f.target is g.target or (
        f.target.base == g.target.base
        and all(
            f.target.fibers[s] is g.target.fibers[s]
            for s in f.target.base.all_simplices()
        )
    )
    if not same_target:
        raise InputError("legs need a common target system")
    base = f.source.base
    per_legs: dict[tuple[int, int], FiberProductDGA] = {}
    carriers: dict[Simplex, FiberProductDGA] = {}
    for s in base.all_simplices():
        key = (id(f.maps[s]), id(g.maps[s]))
        if key not in per_legs:
            for k in range(upto + 1):
                if rank(f.maps[s].mats[k]) != f.target.fibers[s].dim(k):
                    raise PreconditionError(f"first leg not surjective at simplex {s}, degree {k}")
            per_legs[key] = fiber_product(f.maps[s], g.maps[s], upto)
        carriers[s] = per_legs[key]
    fibers = {s: carriers[s].carrier for s in base.all_simplices()}
    per_facet: dict[tuple[int, ...], DGMorphism] = {}
    restr = {}
    for s in base.all_simplices():
        for i, t in base.facets(s):
            legs = (f.source.facet_restrictions[(s, i)], g.source.facet_restrictions[(s, i)])
            key = (*map(id, legs), id(fibers[s]), id(fibers[t]))
            if key not in per_facet:
                mats = _push(legs, fibers[s], fibers[t], "restriction leaves the fiber product")
                per_facet[key] = DGMorphism(fibers[s], fibers[t], mats, check="none")
            restr[(s, i)] = per_facet[key]
    return FiniteLocalSystem(base, fibers, restr), carriers


# ---------------------------------------------------------------------------
# local coefficients
# ---------------------------------------------------------------------------

@dataclass
class LocalCoefficients:
    """Graded vector spaces at vertices with edge transport isomorphisms.

    ``edges[(u, v)][q]`` transports the fiber at v to the fiber at u (toward
    the smaller vertex, matching the twisted coboundary below).
    """

    base: SimplicialComplexK
    vertex_dims: dict[int, dict[int, int]]
    edges: dict[tuple[int, int], dict[int, QMatrix]]

    def validate_cocycle(self) -> list[str]:
        problems = []
        for s in self.base.simplices_of_dim(2):
            u, v, w = s
            for q in self.vertex_dims[u]:
                lhs = self.edges[(u, v)][q].matmul(self.edges[(v, w)][q])
                rhs = self.edges[(u, w)][q]
                if lhs != rhs:
                    problems.append(f"cocycle fails on {s} in fiber degree {q}")
        return problems


def cohomology_local_system(e: FiniteLocalSystem, upto: int) -> LocalCoefficients:
    """Vertexwise cohomology with zig-zag edge transports.

    Requires a locally constant system; the transport along an edge (u, v) is
    H(restrict to u) composed with the inverse of H(restrict to v).
    """
    hs = _fiber_cohomologies(e, upto)
    # H of every restriction, read off the local-constancy check, once per restriction object
    induced: dict[int, list[QMatrix]] = {}
    if not is_locally_constant(e, upto, hs, induced):
        raise PreconditionError("system is not locally constant in the range")
    vertex_dims = {}
    for (v,) in e.base.simplices_of_dim(0):
        vertex_dims[v] = {q: hs[id(e.fibers[(v,)])].dims[q] for q in range(upto + 1)}
    edges = {}
    for s in e.base.simplices_of_dim(1):
        u, v = s
        to_u, to_v = (induced[id(e.facet_restrictions[(s, i)])] for i in (1, 0))
        per_q = {}
        for q in range(upto + 1):
            inv = _inverse(to_v[q])
            if inv is None:
                raise PreconditionError(f"transport not invertible on edge {s}")
            per_q[q] = to_u[q].matmul(inv)
        edges[(u, v)] = per_q
    return LocalCoefficients(e.base, vertex_dims, edges)


def h_local_coefficients(
    base: SimplicialComplexK, c: LocalCoefficients, p_max: int, q_max: int
) -> dict[tuple[int, int], int]:
    """Twisted simplicial cohomology dimensions H^p(base; H^q).

    The coboundary twists the face omitting the least vertex:
    (delta x)(v0...vp) = rho_{v0 v1} x(v1...vp) + sum_{i>=1} (-1)^i x(... v_i hat ...).
    """
    problems = c.validate_cocycle()
    if problems:
        raise InputError("local coefficients fail the cocycle condition: " + problems[0])
    out = {}
    for q in range(q_max + 1):
        spaces = []
        offsets = []
        for p in range(p_max + 2):
            simp = base.simplices_of_dim(p)
            offs = {}
            pos = 0
            for s in simp:
                offs[s] = pos
                pos += c.vertex_dims[s[0]].get(q, 0)
            spaces.append((simp, offs, pos))
        deltas = []
        for p in range(p_max + 1):
            simp_p, offs_p, dim_p = spaces[p]
            simp_p1, offs_p1, dim_p1 = spaces[p + 1]
            entries = {}
            for s in simp_p1:
                row0 = offs_p1[s]
                # face omitting the least vertex, twisted by the first edge
                tau0 = s[1:]
                rho = c.edges[(s[0], s[1])][q]
                for (rr, cc), v in rho.entries.items():
                    entries[(row0 + rr, offs_p[tau0] + cc)] = v
                for i in range(1, p + 2):
                    tau = s[:i] + s[i + 1 :]
                    sign = -1 if i % 2 else 1
                    n = c.vertex_dims[s[0]].get(q, 0)
                    for rr in range(n):
                        key = (row0 + rr, offs_p[tau] + rr)
                        entries[key] = entries.get(key, ZERO) + sign
            deltas.append(QMatrix(dim_p1, dim_p, {k: v for k, v in entries.items() if v}))
        for p in range(p_max + 1):
            dim_p = spaces[p][2]
            ker = dim_p - rank(deltas[p])
            im_prev = rank(deltas[p - 1]) if p >= 1 else 0
            out[(p, q)] = ker - im_prev
    return out


# ---------------------------------------------------------------------------
# cylinder
# ---------------------------------------------------------------------------

def cylinder(e: FiniteLocalSystem, interval_total: int = 2):
    """The system E (x) I with I the constant truncated interval algebra.

    Returns (cylinder system, evaluation at 0, evaluation at 1) where the
    evaluations are system morphisms back to e.
    """
    i_forms = interval_forms(interval_total)
    cutoff = e.min_cutoff()
    cyl = tensor_system(e, i_forms, cutoff=cutoff)
    evals = []
    for endpoint in (0, 1):
        maps = {}
        for s in e.base.all_simplices():
            src = cyl.fibers[s]
            tgt = e.fibers[s]
            mats = [
                QMatrix(tgt.dim(k), src.dim(k), _evaluation(src, k, endpoint))
                for k in range(min(src.cutoff, tgt.cutoff) + 1)
            ]
            maps[s] = DGMorphism(src, tgt, mats, check="none")
        evals.append(SystemMorphism(cyl, e, maps))
    return cyl, evals[0], evals[1]
