"""Fiber products of CDGA maps, Mayer-Vietoris, and suspension models.

The fiber product of f: A -> C and g: B -> C is carried by the kernel of
(f, -g) on A (+) B with componentwise product and differential re-expressed
in the kernel basis.  It models the algebra of an adjunction space; the long
exact sequence of

    0 -> A x_C B -> A (+) B -> C -> 0

(valid when one leg is surjective) is produced with exactness verified at
every node.  The suspension algebra of a connected algebra m is the
subalgebra spanned by the unit and shifted elements w*dt with every positive
product zero; its cohomology is the reduced cohomology of m shifted up once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .cdga import (
    BlockSum,
    DGMorphism,
    TruncatedDGA,
    _block_diagonal,
    cohomology,
    direct_sum,
    is_quasi_iso,
    point_dga,
    tensor_product,
)
from .errors import InputError, InternalError, PreconditionError
from .exactlin import (
    ONE,
    KernelBasis,
    QMatrix,
    RowSpace,
    Vector,
    rank,
    solve_many,
    unit_vector,
)
from .polyforms import forms_dga


@dataclass
class FiberProductDGA:
    """Kernel model of A x_C B together with its structure maps."""

    f: DGMorphism
    g: DGMorphism
    carrier: TruncatedDGA  # its kernels hold its basis inside A (+) B
    proj_a: DGMorphism
    proj_b: DGMorphism

    @property
    def kernels(self) -> list[KernelBasis]:
        return self.carrier.kernels  # type: ignore[return-value]

    @property
    def inclusions(self) -> list[QMatrix]:
        """Carrier basis written in A (+) B coordinates, per degree."""
        return [ker.inclusion for ker in self.kernels]

    @property
    def a(self) -> TruncatedDGA:
        return self.f.source

    @property
    def b(self) -> TruncatedDGA:
        return self.g.source

    @property
    def ambient(self) -> BlockSum:
        """The sum A (+) B that the kernels live in."""
        return self.carrier.ambient  # type: ignore[return-value]


def _kernel_carrier(kernels: list[KernelBasis], ambient: BlockSum, name: str) -> TruncatedDGA:
    """Shared construction: a sub-DG-algebra of ``ambient`` presented by kernel bases.

    Returns the TruncatedDGA whose degree-k basis is the columns of ``kernels[k].inclusion``, with
    the differential, unit and levels of the ambient sum, and the sum's product of the sparse columns
    (:meth:`BlockSum._product`) read back in the kernels; no kernel is written as dense vectors.
    """
    cutoff = ambient.cutoff
    dims = [kernels[k].rank for k in range(cutoff + 1)]
    diff_mats = []
    for k in range(cutoff):
        mat = kernels[k + 1].coords_matrix(ambient.d_matrix(k), kernels[k].inclusion)
        if mat is None:
            raise InternalError("differential does not preserve the kernel subspace")
        diff_mats.append(mat)
    columns: dict[int, dict[int, list]] = {}  # per degree, read on its first product

    # a leg's products may only have been sampled, so one outside the kernel
    # can come from the input; its unit and d were checked in full
    def mult_fn(i, a, j, b):
        for k in (i, j):
            if k not in columns:
                columns[k] = kernels[k].inclusion.sparse_columns()
        prod = ambient._product(i, columns[i].get(a, ()), j, columns[j].get(b, ()))
        if prod is None:
            return None
        coords = kernels[i + j]._read_sparse(prod)
        if coords is None:
            raise InputError("product does not preserve the kernel subspace")
        return sorted(coords.items())

    (unit,) = kernels[0].coords_many([ambient.unit])
    if unit is None:
        raise InternalError("the unit is not a compatible family")
    return TruncatedDGA(
        cutoff,
        dims,
        unit,
        diff_mats,
        mult_fn,
        ambient=ambient,
        kernels=kernels,
        check=False,
        name=name,
    )


def fiber_product(f: DGMorphism, g: DGMorphism, upto: int) -> FiberProductDGA:
    """The pullback of f: A -> C, g: B -> C in DG algebras, up to degree upto."""
    if f.target is not g.target:
        raise InputError("fiber_product needs a common target")
    a, b, c = f.source, g.source, f.target
    cutoff = min(upto, a.cutoff, b.cutoff, f.cap, g.cap)
    if cutoff < upto:
        raise InputError(
            f"fiber_product up to degree {upto} needs leg cutoffs at least {upto}"
        )

    kernels = [KernelBasis(f.mats[k].hstack(g.mats[k].scale(-1))) for k in range(cutoff + 1)]
    ambient = BlockSum((a, b), cutoff)
    carrier = _kernel_carrier(kernels, ambient, name="fiber_product")
    proj_a, proj_b = (
        DGMorphism(
            carrier,
            part,
            [ambient.block_rows(t, k, kernels[k].inclusion) for k in range(cutoff + 1)],
            check="none",
        )
        for t, part in enumerate((a, b))
    )
    return FiberProductDGA(f, g, carrier, proj_a, proj_b)


# ---------------------------------------------------------------------------
# Mayer-Vietoris
# ---------------------------------------------------------------------------

@dataclass
class MayerVietorisReport:
    upto: int
    restriction: list[QMatrix] = field(default_factory=list)  # H(fp) -> H(A)+H(B)
    difference: list[QMatrix] = field(default_factory=list)  # H(A)+H(B) -> H(C)
    connecting: list[QMatrix] = field(default_factory=list)  # H^k(C) -> H^{k+1}(fp)
    exact_at: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    def ok(self) -> bool:
        return not self.failures

    def connecting_rank(self, k: int) -> int:
        return rank(self.connecting[k])


def mayer_vietoris(fp: FiberProductDGA, upto: int) -> MayerVietorisReport:
    """Long exact sequence of the fiber product, exactness verified nodewise.

    Requires one leg surjective in all degrees <= upto (otherwise the short
    sequence is not exact on the right).
    """
    a, b, c = fp.a, fp.b, fp.f.target
    for k in range(upto + 1):
        if rank(fp.f.mats[k]) != c.dim(k) and rank(fp.g.mats[k]) != c.dim(k):
            raise PreconditionError(f"no surjective leg in degree {k}")
    if upto >= fp.carrier.cutoff:
        raise InputError("mayer_vietoris needs upto below the carrier cutoff")

    h_fp = cohomology(fp.carrier, upto)
    h_a = cohomology(a, upto)
    h_b = cohomology(b, upto)
    h_c = cohomology(c, upto)

    ambient = fp.ambient
    rep = MayerVietorisReport(upto=upto)
    for k in range(upto + 1):
        # restriction: classes of the (x_a, x_b) components, stacked
        blocks = [ambient.block_rows(t, k, fp.kernels[k].inclusion) for t in (0, 1)]
        in_a, in_b = (h.classes(k, block, h_fp.cocycles[k]) for h, block in zip((h_a, h_b), blocks))
        rep.restriction.append(in_a.vstack(in_b))
        # difference map f* - g*
        from_a = h_c.classes(k, fp.f.mats[k], h_a.cocycles[k])
        rep.difference.append(from_a.hstack(h_c.classes(k, fp.g.mats[k], h_b.cocycles[k]).scale(-1)))
    # connecting map
    for k in range(upto):
        pres = solve_many(fp.kernels[k].matrix, h_c.reps[k])
        if any(pre is None for pre in pres):
            raise PreconditionError(f"no preimage for a class in degree {k}")
        sols = fp.kernels[k + 1].coords_matrix(ambient.d_matrix(k), QMatrix.from_cols(pres, ambient.dim(k)))
        if sols is None:
            raise InputError("connecting image is not in the fiber product")
        rep.connecting.append(h_fp.classes(k + 1, sols, QMatrix.identity(sols.cols)))

    # exactness at every node
    def check(node, incoming: QMatrix, outgoing: QMatrix):
        comp = outgoing.matmul(incoming)
        if not comp.is_zero():
            rep.failures.append(f"composition nonzero at {node}")
            rep.exact_at[node] = False
            return
        r_in = rank(incoming)
        dim_ker = outgoing.cols - rank(outgoing)
        rep.exact_at[node] = r_in == dim_ker
        if r_in != dim_ker:
            rep.failures.append(
                f"exactness fails at {node}: image rank {r_in}, kernel dim {dim_ker}"
            )

    for k in range(upto + 1):
        incoming = (
            rep.connecting[k - 1] if k > 0 else QMatrix.zero(h_fp.dims[0], 0)
        )
        check(("fp", k), incoming, rep.restriction[k])
        check(("sum", k), rep.restriction[k], rep.difference[k])
        if k < upto:
            check(("c", k), rep.difference[k], rep.connecting[k])
    return rep


# ---------------------------------------------------------------------------
# suspension model
# ---------------------------------------------------------------------------

@dataclass
class SuspensionModel:
    carrier: TruncatedDGA
    source: TruncatedDGA
    complement_choice: list[Vector]  # unit vectors off the pivot columns of im d^0 (degree 1)
    shifted_basis: list[list[Vector]]  # per carrier degree >= 2: vectors in source coords


def suspension_model(m: TruncatedDGA, upto: int) -> SuspensionModel:
    """The algebra Q (+) (positive part of m, shifted up, all products zero).

    The degree-1 piece of m is replaced by a chosen complement of im d^0, so
    the shifted complex computes the reduced cohomology of m one degree up.
    """
    if upto < 1:
        raise InputError(f"suspension_model needs upto >= 1, got {upto}")
    if upto > m.cutoff + 1:
        raise InputError("suspension cutoff exceeds what the source stores")
    h0 = cohomology(m, 0)
    if h0.dims[0] != 1:
        raise PreconditionError("suspension_model needs a connected source algebra")

    pivots = set(RowSpace(m.d_matrix(0)).pivots)
    off_pivots = [j for j in range(m.dim(1)) if j not in pivots]
    # carrier degree k >= 2 keeps these basis indices of m in degree k - 1
    kept = {k: off_pivots if k == 2 else range(m.dim(k - 1)) for k in range(2, upto + 1)}
    dims = [1, 0] + [len(kept[k]) for k in range(2, upto + 1)]
    diff_mats = [QMatrix.zero(dims[k + 1], dims[k]) for k in range(min(upto, 2))]
    for k in range(2, upto):
        # d of a kept element is its column of d in m, which lies in carrier degree k + 1 >= 3,
        # where every index is kept
        cols = m.d_matrix(k - 1).sparse_columns()
        entries = {(r, t): x for t, j in enumerate(kept[k]) for r, x in cols.get(j, ())}
        diff_mats.append(QMatrix._of(dims[k + 1], dims[k], entries))

    def mult_fn(i, a, j, b):
        # the unit times anything (i <= j), and zero between positive degrees
        return ((b, ONE),) if i == 0 else ()

    def labels():
        return [["1"], []] + [[f"({m.labels[k - 1][j]})*dt" for j in kept[k]] for k in range(2, upto + 1)]
    carrier = TruncatedDGA(
        upto,
        dims,
        (ONE,),
        diff_mats,
        mult_fn,
        labels=labels,
        check=False,
        name="suspension",
    )
    comp = [unit_vector(m.dim(1), j) for j in off_pivots]
    shifted = [[], []] + [[unit_vector(m.dim(k - 1), j) for j in kept[k]] for k in range(2, upto + 1)]
    return SuspensionModel(carrier=carrier, source=m, complement_choice=comp, shifted_basis=shifted)


def induced_fp_map(
    src: FiberProductDGA,
    dst: FiberProductDGA,
    on_a: DGMorphism,
    on_b: DGMorphism,
    check: str = "full",
) -> DGMorphism:
    """Map of fiber products induced by componentwise maps of the corners.

    ``on_a`` and ``on_b`` must commute with the legs; the image of a kernel
    vector is re-expressed in the target kernel basis.
    """
    mats = _push(
        (on_a, on_b), src.carrier, dst.carrier, "image does not satisfy the target leg equation"
    )
    return DGMorphism(src.carrier, dst.carrier, mats, check=check)


def _push(
    maps: Sequence[DGMorphism], src: TruncatedDGA, dst: TruncatedDGA, message: str, error=InputError
) -> list[QMatrix]:
    """Matrices of the map of kernel carriers that ``maps`` induce blockwise.

    ``src`` and ``dst`` are carried by kernels in sums whose blocks are the
    sources and the targets of ``maps``.  The block-diagonal of the maps times
    the inclusion of ``src`` is written in the kernels of ``dst``; an image
    outside them raises ``error(message)``: InternalError where the caller
    has already checked that the maps commute with the legs.
    """
    mats = []
    for k in range(min(src.cutoff, dst.cutoff) + 1):
        blocks = _block_diagonal([h.mats[k] for h in maps])
        mat = dst.kernels[k].coords_matrix(blocks, src.kernels[k].inclusion)  # type: ignore[index]
        if mat is None:
            raise error(message)
        mats.append(mat)
    return mats


def theta_equivalence_check(
    fp: FiberProductDGA, glued: TruncatedDGA, theta: DGMorphism, upto: int
) -> tuple[bool, Optional[int]]:
    """Is the comparison map glued -> fiber product a quasi-isomorphism?"""
    if theta.source is not glued or theta.target is not fp.carrier:
        raise InputError("theta must map the glued model into the fiber product carrier")
    return is_quasi_iso(theta, upto)


# ---------------------------------------------------------------------------
# suspension triple helpers
# ---------------------------------------------------------------------------

def interval_forms(total_degree: int, cutoff: int = 2) -> TruncatedDGA:
    """Polynomial forms on the interval.

    As the second factor of a tensor product (a cylinder) its dt points along
    the fiber; :func:`tensor_product` takes levels from the first factor
    only, so it adds nothing to the skeletal filtration.
    """
    return forms_dga(1, total_degree, cutoff=cutoff)


def _evaluation(cyl: TruncatedDGA, k: int, endpoint: int, shift: int = 0) -> dict:
    """The entries of evaluation at t = ``endpoint`` on degree k of ``cyl`` = A (x) interval forms,
    onto A with its rows moved down by ``shift``.  The degree-0 interval basis is 1, t, t^2, ...,
    so t^b is 1 at t = 1 and [b = 0] at t = 0; dt-terms vanish at both ends."""
    return {
        (ia + shift, col): ONE
        for col, (_, ia, j, jb) in enumerate(cyl.bases[k].keys)
        if j == 0 and (endpoint == 1 or jb == 0)
    }


def endpoint_evaluations(cyl: TruncatedDGA, m: TruncatedDGA, mm: TruncatedDGA) -> DGMorphism:
    """Evaluation (t=0, t=1) from m (x) interval-forms onto m x m."""
    # m x m holds t = 0 in its first block and t = 1 in its second
    mats = [
        QMatrix(mm.dim(k), cyl.dim(k), {**_evaluation(cyl, k, 0), **_evaluation(cyl, k, 1, m.dim(k))})
        for k in range(min(cyl.cutoff, mm.cutoff) + 1)
    ]
    return DGMorphism(cyl, mm, mats, name="endpoint evaluation")


def two_point_unit_leg(mm: TruncatedDGA, m: TruncatedDGA, cutoff: int) -> tuple[TruncatedDGA, DGMorphism]:
    """The algebra Q x Q with its unit-pair inclusion into m x m."""
    qq = direct_sum(point_dga(cutoff), point_dga(cutoff))
    mats = [QMatrix.zero(mm.dim(k), qq.dim(k)) for k in range(min(qq.cutoff, mm.cutoff) + 1)]
    unit = [(r, x) for r, x in enumerate(m.unit) if x]  # in each block of m x m
    mats[0] = QMatrix._of(mm.dim(0), 2, {(lo + r, t): x for t, lo in enumerate((0, m.dim(0))) for r, x in unit})
    return qq, DGMorphism(qq, mm, mats, name="unit pair")


def suspension_triple(m: TruncatedDGA, upto: int, interval_total: int = 2) -> tuple[DGMorphism, DGMorphism]:
    """Legs (evaluation, unit pair) whose fiber product models the suspension.

    A = m (x) interval forms, C = m x m, B = Q x Q.
    """
    cutoff = min(m.cutoff, upto + 1)
    i_forms = interval_forms(interval_total)
    cyl = tensor_product(m, i_forms, cutoff=cutoff)
    mm = direct_sum(m, m, cutoff=cutoff)
    f = endpoint_evaluations(cyl, m, mm)
    _, g = two_point_unit_leg(mm, m, cutoff)
    return f, g


def suspension_inclusion(susp: SuspensionModel, fp: FiberProductDGA) -> DGMorphism:
    """The map 1 -> (1,1), w*dt -> (w (x) dt, 0) into the fiber product."""
    cap = min(susp.carrier.cutoff, fp.carrier.cutoff)
    ambient = fp.ambient
    mats = []
    for k in range(cap + 1):
        if k == 0:
            entries = {(r, 0): x for r, x in enumerate(ambient.unit) if x}
        else:
            # w (x) dt in the cylinder, block 0 of the ambient sum: interval pairs are (i, ia, 1, jb)
            # with jb indexing t^l dt, and dt itself is jb = 0
            images = [{(k - 1, r, 1, 0): x for r, x in enumerate(w) if x} for w in susp.shifted_basis[k]]
            entries = fp.a.bases[k].matrix(images).entries
        n = susp.carrier.dim(k)
        mat = fp.kernels[k].coords_matrix(QMatrix._of(ambient.dim(k), n, entries), QMatrix.identity(n))
        if mat is None:
            raise InputError("suspension element is not in the fiber product")
        mats.append(mat)
    return DGMorphism(susp.carrier, fp.carrier, mats, name="suspension inclusion")
