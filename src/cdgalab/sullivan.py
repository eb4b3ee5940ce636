"""Minimal Sullivan models of 1-connected truncated DG algebras.

``minimal_model`` builds a free model degree by degree: at stage n it adds
closed generators hitting a basis of the cokernel of H^n(comparison) and, in
the same degree, generators whose differentials kill the kernel of
H^{n+1}(comparison).  With a 1-connected target this yields a minimal model
(differentials land in words of length at least two) and a comparison map
that is a quasi-isomorphism through built_upto - 1.

``loop_model`` doubles the generators of a minimal 1-connected model with a
degree shift of -1.  Writing s for the degree -1 derivation determined by
s(v) = (-1)^{|v|} vbar, the new differential is d(vbar) = -(-1)^{|v|} s(dv);
this choice keeps d^2 = 0 and (sd + ds) = 0 on generators while matching the
classical published form of the loop model of complex projective spaces.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cdga import (
    DGMorphism,
    FreeCDGA,
    TruncatedDGA,
    _cohomology_degree,
    cohomology,
    is_quasi_iso,
    truncate,
)
from .errors import InputError, InternalError, PreconditionError
from .exactlin import KernelBasis, QMatrix, RowSpace, kernel_basis, solve_many
from .graded import Element, FreeGCA, Monomial, _trim, apply_odd_derivation


@dataclass
class MinimalModelResult:
    model: FreeCDGA
    comparison: DGMorphism
    built_upto: int
    target: TruncatedDGA


def minimality_check(f: FreeCDGA):
    """True iff every generator differential has word length >= 2."""
    for g in f.gca.generators:
        img = f.diff[g.name]
        for mono in img.terms:
            if sum(mono) < 2:
                return False, g.name
    return True, None


def _comparison_matrices(model: FreeCDGA, trunc: TruncatedDGA, target: TruncatedDGA, phi: dict[str, tuple[int, tuple]], degrees: range) -> dict[int, QMatrix]:
    """Matrices of the generator assignment phi on the monomial bases of ``degrees``.

    phi(m) is the left fold of target products over the generators of m in
    order, so phi(m) = phi(m') phi(g) for the last generator g of m and m'
    the monomial with one factor of g fewer; each phi(m') is computed once.
    In a degree where the target is zero the image is the empty vector, with
    no product taken.
    """
    gca = model.gca
    images = [phi[g.name] for g in gca.generators]
    memo = {gca.unit_monomial(): target.unit}

    def image(mono: Monomial, k: int) -> tuple:
        if not target.dim(k):
            return ()
        vec = memo.get(mono)
        if vec is None:
            last = len(mono) - 1
            gdeg, gvec = images[last]
            rest = mono[:last] + (mono[last] - 1,) if mono[last] > 1 else _trim(mono[:last])
            vec = memo[mono] = target.multiply(k - gdeg, image(rest, k - gdeg), gdeg, gvec)
        return vec

    mats = {
        k: QMatrix.from_cols([image(mono, k) for mono in trunc.bases[k].keys], target.dim(k))
        for k in degrees
    }
    del image  # it holds itself through its closure cell; unbinding it breaks the cycle
    return mats


def minimal_model(target: TruncatedDGA, upto: int) -> MinimalModelResult:
    """1-connected minimal Sullivan model of ``target`` through degree upto.

    Requires H^0(target) = Q and H^1(target) = 0; generators are named
    ``v{degree}_{index}``.  Raises PreconditionError otherwise and
    CutoffTooSmallError via the underlying algebra when the cutoff is too
    small for the requested range.

    Stage n reads only H^n and H^{n+1} of the model, which depend on its
    differentials out of degrees n - 1 to n + 1, so it truncates the model
    through n + 2 and computes H and the comparison matrices in degree n + 1,
    and in degree n only if H^n(target), which the cokernel there needs, is
    nonzero.  Generators are only appended, so each monomial's differential
    is computed once and carried to every later stage.  So is the cocycle
    basis of degree n + 1: the degree-n generators of stage n make no
    monomial of degree n + 1 (every generator has degree >= 2), and no older
    differential involves them, so stage n + 1 recomputes only the boundaries
    there.  The last stage's truncation is also the final one when it
    reaches the target's cutoff and the stage adds no generator.
    """
    if upto < 0:
        raise InputError(f"minimal_model needs a non-negative upto, got {upto}")
    if upto >= target.cutoff:
        raise InputError("minimal_model needs upto below the target cutoff")
    ht = cohomology(target, min(upto + 1, target.cutoff - 1))
    if ht.dims[0] != 1:
        raise PreconditionError("target is not connected: H^0 is not one-dimensional")
    if len(ht.dims) > 1 and ht.dims[1] != 0:
        raise PreconditionError("target is not 1-connected: H^1 is nonzero")
    unit_class = ht.class_of(0, target.unit)
    if not any(unit_class):
        raise PreconditionError("the unit is a coboundary in the target")

    model = FreeCDGA(FreeGCA([]), {}, check=False)
    phi: dict[str, tuple[int, tuple]] = {}
    cocycles: dict[int, QMatrix] = {}
    trunc, truncated = None, None  # the latest stage's truncation and the model it truncates
    for n in range(2, upto + 1):
        top = min(n + 1, target.cutoff - 1)
        trunc = truncate(model, top + 1)
        truncated = model
        degrees = [k for k in range(n, top + 1) if k > n or ht.dims[n]]
        cocycles = {k: cocycles[k] if k in cocycles else KernelBasis(trunc.d_matrix(k)).inclusion for k in degrees}
        hs = {k: _cohomology_degree(trunc, k, cocycles[k]) for k in degrees}
        mats = _comparison_matrices(model, trunc, target, phi, degrees)
        # cokernel of H^n(phi): the target classes, unit vectors in class coordinates, that enlarge the image
        images = ht.classes(n, mats[n], hs[n][0]) if n in hs else QMatrix._of(ht.dims[n], 0, {})
        gens: list[tuple[str, int]] = []
        diff: dict[str, Element] = {}
        for c in RowSpace(images.hstack(QMatrix.identity(ht.dims[n]))).columns_from(images.cols):
            name = f"v{n}_{len(gens)}"
            gens.append((name, n))
            phi[name] = (n, tuple(ht.reps[n][c]))
        # kernel of H^{n+1}(phi), computable while n+1 is below the cutoff
        if n + 1 <= target.cutoff - 1:
            reps = hs[n + 1][0]
            keys = trunc.bases[n + 1].keys
            # each kernel vector combines model classes whose image class vanishes
            z_mat = reps.matmul(KernelBasis(ht.classes(n + 1, mats[n + 1], reps)).inclusion)
            primitives = solve_many(target.d_matrix(n), mats[n + 1].matmul(z_mat).to_cols())
            z_cols = z_mat.sparse_columns()
            for j, b in enumerate(primitives):
                if b is None:
                    raise InternalError("vanishing class has no primitive")
                name = f"v{n}_{len(gens)}"
                gens.append((name, n))
                diff[name] = Element(model.gca, {keys[t]: c for t, c in z_cols[j]})
                phi[name] = (n, tuple(b))
        if gens:
            model = model._extend(gens, diff)

    if truncated is not model or trunc.cutoff != target.cutoff:
        trunc = truncate(model, target.cutoff)
    mats = _comparison_matrices(model, trunc, target, phi, range(target.cutoff + 1))
    comparison = DGMorphism(trunc, target, list(mats.values()))
    ok, offender = minimality_check(model)
    if not ok:
        raise InternalError(f"constructed model is not minimal at {offender}")
    ok, fail = is_quasi_iso(comparison, max(0, upto - 1), target_h=ht)
    if not ok:
        raise InternalError(f"comparison fails to be a quasi-iso at {fail}")
    return MinimalModelResult(model=model, comparison=comparison, built_upto=upto, target=target)


def loop_model(base) -> FreeCDGA:
    """Free-loop model: generators doubled with a degree shift of -1."""
    if isinstance(base, MinimalModelResult):
        base = base.model
    if not isinstance(base, FreeCDGA):
        raise InputError("loop_model expects a FreeCDGA or MinimalModelResult")
    ok, offender = minimality_check(base)
    if not ok:
        raise PreconditionError(f"loop_model needs a minimal base model; {offender} fails")
    for g in base.gca.generators:
        if g.degree < 2:
            raise PreconditionError("loop_model needs a 1-connected base model")
    # the base's keys are keys of the grown algebra
    big = FreeGCA([(g.name + "_bar", g.degree - 1) for g in base.gca.generators], parent=base.gca)

    s_images = {}
    for g in base.gca.generators:
        sign = 1 if g.degree % 2 == 0 else -1
        s_images[g.name] = sign * big.gen(g.name + "_bar")
        s_images[g.name + "_bar"] = big.zero()

    diff: dict[str, Element] = {}
    for g in base.gca.generators:
        diff[g.name] = Element(big, base.diff[g.name].terms)
    for g in base.gca.generators:
        sign = -1 if g.degree % 2 == 0 else 1
        diff[g.name + "_bar"] = sign * apply_odd_derivation(s_images, diff[g.name])

    out = FreeCDGA(big, diff, check=True)
    # sd + ds vanishes on generators by construction; verify anyway
    for g in out.gca.generators:
        lhs = apply_odd_derivation(s_images, out.diff[g.name]) + apply_odd_derivation(
            out.diff, s_images[g.name]
        )
        if not lhs.is_zero():
            raise InternalError(f"sd + ds nonzero on {g.name}")
    return out
