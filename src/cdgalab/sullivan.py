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
    cohomology,
    is_quasi_iso,
    truncate,
)
from .errors import InputError, PreconditionError
from .exactlin import QMatrix, RowSpace, ZERO, kernel_basis, solve, vec_is_zero
from .graded import Element, FreeGCA, apply_odd_derivation


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
            if f.gca.word_length(mono) < 2:
                return False, g.name
    return True, None


def _comparison_matrices(model: FreeCDGA, trunc: TruncatedDGA, target: TruncatedDGA, phi: dict[str, tuple[int, tuple]], upto: int) -> list[QMatrix]:
    """Matrices of the generator assignment phi on the monomial bases."""
    gca = model.gca
    mats = []
    for k in range(upto + 1):
        cols = []
        for mono in trunc.bases[k].keys:
            vec = target.unit
            deg = 0
            for i, e in enumerate(mono):
                name = gca.generators[i].name
                gdeg, gvec = phi[name]
                for _ in range(e):
                    vec = target.multiply(deg, vec, gdeg, gvec)
                    deg += gdeg
            cols.append(vec)
        mats.append(QMatrix.from_cols(cols, target.dim(k)))
    return mats


def minimal_model(target: TruncatedDGA, upto: int) -> MinimalModelResult:
    """1-connected minimal Sullivan model of ``target`` through degree upto.

    Requires H^0(target) = Q and H^1(target) = 0; generators are named
    ``v{degree}_{index}``.  Raises PreconditionError otherwise and
    CutoffTooSmallError via the underlying algebra when the cutoff is too
    small for the requested range.
    """
    if upto >= target.cutoff:
        raise InputError("minimal_model needs upto below the target cutoff")
    ht = cohomology(target, min(upto + 1, target.cutoff - 1))
    if ht.dims[0] != 1:
        raise PreconditionError("target is not connected: H^0 is not one-dimensional")
    if len(ht.dims) > 1 and ht.dims[1] != 0:
        raise PreconditionError("target is not 1-connected: H^1 is nonzero")
    unit_class = ht.class_of(0, target.unit)
    if vec_is_zero(unit_class):
        raise PreconditionError("the unit is a coboundary in the target")

    gens: list[tuple[str, int]] = []
    diff: dict[str, Element] = {}
    phi: dict[str, tuple[int, tuple]] = {}

    def build(cut: int):
        gca = FreeGCA(gens)
        rebuilt = {}
        for name, img in diff.items():
            rebuilt[name] = gca.element(dict(img.terms)) if img is not None else gca.zero()
        model = FreeCDGA(gca, rebuilt, check=False)
        trunc = truncate(model, cut)
        return model, trunc

    top = upto
    for n in range(2, top + 1):
        model, trunc = build(target.cutoff)
        hs = cohomology(trunc, min(upto + 1, target.cutoff - 1))
        mats = _comparison_matrices(model, trunc, target, phi, min(upto + 1, target.cutoff - 1))
        # cokernel of H^n(phi)
        image = RowSpace(ht.dims[n])
        for rep in hs.reps[n]:
            image.add(ht.class_of(n, mats[n].matvec(rep)))
        new_index = 0
        stage: list[tuple[str, int, Element | None, tuple]] = []
        for t_rep in ht.reps[n]:
            if image.add(ht.class_of(n, t_rep)):
                name = f"v{n}_{new_index}"
                new_index += 1
                stage.append((name, n, None, t_rep))
        # kernel of H^{n+1}(phi), computable while n+1 is below the cutoff
        if n + 1 <= target.cutoff - 1:
            hmat_cols = [ht.class_of(n + 1, mats[n + 1].matvec(rep)) for rep in hs.reps[n + 1]]
            hmat = QMatrix.from_cols(hmat_cols, ht.dims[n + 1])
            for kv in kernel_basis(hmat):
                # kv combines model classes whose image class vanishes
                z_vec = tuple(
                    sum((c * rep[t] for c, rep in zip(kv, hs.reps[n + 1])), ZERO)
                    for t in range(trunc.dim(n + 1))
                )
                z_terms = {m: c for m, c in zip(trunc.bases[n + 1].keys, z_vec) if c}
                z_elt = model.gca.element(z_terms)
                target_img = mats[n + 1].matvec(z_vec)
                b = solve(target.d_matrix(n), target_img)
                if b is None:
                    raise InputError("internal error: vanishing class has no primitive")
                name = f"v{n}_{new_index}"
                new_index += 1
                stage.append((name, n, z_elt, b))
        for name, degree, dv, img in stage:
            gens.append((name, degree))
            diff[name] = dv
            phi[name] = (degree, tuple(img))
        if stage:
            # re-express stored differentials in the enlarged algebra
            gca = FreeGCA(gens)
            for name in list(diff):
                img = diff[name]
                if img is not None and img.algebra is not gca:
                    diff[name] = gca.element(
                        {m + (0,) * (gca.ngens - len(m)): c for m, c in img.terms.items()}
                    )

    model, trunc = build(target.cutoff)
    mats = _comparison_matrices(model, trunc, target, phi, target.cutoff)
    comparison = DGMorphism(trunc, target, mats, check="auto")
    ok, offender = minimality_check(model)
    if not ok:
        raise InputError(f"internal error: constructed model is not minimal at {offender}")
    quasi_upto = max(0, upto - 1)
    ok, fail = is_quasi_iso(comparison, quasi_upto)
    if not ok:
        raise InputError(f"internal error: comparison fails to be a quasi-iso at {fail}")
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
    names = [g.name for g in base.gca.generators]
    gens = [(g.name, g.degree) for g in base.gca.generators] + [
        (g.name + "_bar", g.degree - 1) for g in base.gca.generators
    ]
    big = FreeGCA(gens)

    def embed(x: Element) -> Element:
        return big.element({m + (0,) * len(names): c for m, c in x.terms.items()})

    s_images = {}
    for g in base.gca.generators:
        sign = 1 if g.degree % 2 == 0 else -1
        s_images[g.name] = sign * big.gen(g.name + "_bar")
        s_images[g.name + "_bar"] = big.zero()

    diff: dict[str, Element] = {}
    for g in base.gca.generators:
        diff[g.name] = embed(base.diff[g.name])
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
            raise InputError(f"internal error: sd + ds nonzero on {g.name}")
    return out
