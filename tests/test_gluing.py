import random
from fractions import Fraction

import pytest

from cdgalab.cdga import (
    BlockSum,
    DGMorphism,
    cohomology,
    cohomology_dims,
    direct_sum,
    point_dga,
    tensor_product,
    truncate,
)
from cdgalab.errors import InputError, InternalError, PreconditionError
from cdgalab.exactlin import KernelBasis, QMatrix, rank, unit_vector
from cdgalab.polyforms import forms_dga
from cdgalab.gluing import (
    _kernel_carrier,
    endpoint_evaluations,
    fiber_product,
    induced_fp_map,
    interval_forms,
    mayer_vietoris,
    suspension_inclusion,
    suspension_model,
    suspension_triple,
    theta_equivalence_check,
    two_point_unit_leg,
)

from fixtures import cp2_formal, sphere_even_model, torus_model


def circle_legs(total=3, cutoff=7):
    """Interval forms with both endpoints identified to a single point."""
    a = interval_forms(total, cutoff=cutoff)
    # target: Q x Q, evaluations of functions at the two endpoints
    qq = direct_sum(point_dga(cutoff), point_dga(cutoff))
    mats = [QMatrix.zero(qq.dim(k), a.dim(k)) for k in range(min(a.cutoff, qq.cutoff) + 1)]
    entries = {}
    for col in range(a.dim(0)):
        # basis 1, t, t^2, ...: value at 0 and value at 1
        if col == 0:
            entries[(0, col)] = Fraction(1)
        entries[(1, col)] = Fraction(1)
    mats[0] = QMatrix(2, a.dim(0), entries)
    f = DGMorphism(a, qq, mats)
    b = point_dga(cutoff)
    gmats = [QMatrix.zero(qq.dim(k), b.dim(k)) for k in range(min(b.cutoff, qq.cutoff) + 1)]
    gmats[0] = QMatrix.from_rows([[1], [1]])
    g = DGMorphism(b, qq, gmats)
    return f, g


# -- fiber products -----------------------------------------------------------

def test_fiber_product_identity_legs_gives_diagonal():
    t = torus_model(3)
    ident = DGMorphism.identity(t)
    fp = fiber_product(ident, ident, 3)
    assert fp.carrier.dims == t.dims
    assert cohomology_dims(fp.carrier, 2) == cohomology_dims(t, 2)


def test_fiber_product_circle_model():
    f, g = circle_legs()
    fp = fiber_product(f, g, 5)
    dims = cohomology_dims(fp.carrier, 4)
    assert dims == [1, 1, 0, 0, 0]


def test_fiber_product_mismatched_targets_rejected():
    f, _ = circle_legs()
    _, g = circle_legs()
    with pytest.raises(InputError):
        fiber_product(f, g, 3)


def test_fiber_product_universal_property_randomized():
    rng = random.Random(9)
    f, g = circle_legs()
    fp = fiber_product(f, g, 4)
    a, b = fp.a, fp.b
    for _ in range(40):
        k = rng.randint(0, 3)
        if fp.carrier.dim(k) == 0:
            continue
        # random element of the carrier maps to a pair with f(x) = g(y)
        v = tuple(Fraction(rng.randint(-3, 3)) for _ in range(fp.carrier.dim(k)))
        amb = fp.inclusions[k].matvec(v)
        xa, xb = amb[: a.dim(k)], amb[a.dim(k) :]
        assert f.apply(k, xa) == g.apply(k, xb)


def test_fiber_product_projections_are_morphisms():
    f, g = circle_legs()
    fp = fiber_product(f, g, 4)
    # projections commute with d (checked by building real DGMorphisms)
    DGMorphism(fp.carrier, fp.a, fp.proj_a.mats)
    DGMorphism(fp.carrier, fp.b, fp.proj_b.mats)


def test_fiber_product_projections_are_the_inclusion_rows_of_each_block():
    from cdgalab.exactlin import ONE
    from cdgalab.polyforms import boundary_complex
    from test_acceptance import _suspension_fp_system

    _, carriers = _suspension_fp_system(
        boundary_complex(3), sphere_even_model(6), upto=4, forms_total=2, forms_cutoff=3, sys_cutoff=4
    )
    fps = list({id(fp): fp for fp in carriers.values()}.values())
    assert len(fps) == 3  # one per simplex dimension of the boundary of the 3-simplex
    for fp in fps:
        ambient = fp.ambient
        for t, proj in enumerate((fp.proj_a, fp.proj_b)):
            for k, mat in enumerate(proj.mats):
                # the matrix that reads block t off a degree-k vector, times the inclusion
                lo, n = ambient.offsets(k)[t], ambient.parts[t].dim(k)
                reader = QMatrix(n, ambient.dim(k), {(r, lo + r): ONE for r in range(n)})
                assert mat == reader.matmul(fp.kernels[k].inclusion)


# -- Mayer-Vietoris -------------------------------------------------------------

def test_mayer_vietoris_identity_legs_degenerate():
    t = torus_model(3)
    ident = DGMorphism.identity(t)
    fp = fiber_product(ident, ident, 3)
    rep = mayer_vietoris(fp, 2)
    assert rep.ok(), rep.failures
    for k in range(2):
        assert rep.connecting_rank(k) == 0


def test_mayer_vietoris_circle_connecting_rank():
    f, g = circle_legs()
    fp = fiber_product(f, g, 5)
    rep = mayer_vietoris(fp, 4)
    assert rep.ok(), rep.failures
    assert rep.connecting_rank(0) == 1


def test_mayer_vietoris_requires_surjective_leg():
    # two disjoint points mapping into Q x Q by the diagonal only
    cutoff = 4
    qq = direct_sum(point_dga(cutoff), point_dga(cutoff))
    b = point_dga(cutoff)
    gmats = [QMatrix.zero(qq.dim(k), b.dim(k)) for k in range(cutoff + 1)]
    gmats[0] = QMatrix.from_rows([[1], [1]])
    g = DGMorphism(b, qq, gmats)
    fp = fiber_product(g, g, 3)
    with pytest.raises(PreconditionError):
        mayer_vietoris(fp, 2)


# -- suspension ------------------------------------------------------------------

def test_suspension_of_point_is_point():
    p = point_dga(6)
    s = suspension_model(p, 5)
    assert cohomology_dims(s.carrier, 4) == [1, 0, 0, 0, 0]


def test_suspension_s2_dims_and_products():
    m = sphere_even_model(7)
    s = suspension_model(m, 6)
    dims = cohomology_dims(s.carrier, 5)
    assert dims == [1, 0, 0, 1, 0, 0]
    h = cohomology(s.carrier, 5)
    cls = h.cup(3, 0, 3, 0) if 6 <= 5 else None
    assert cls is None
    # positive products vanish at the algebra level
    for k in range(2, 4):
        for t in range(s.carrier.dim(k)):
            for u in range(s.carrier.dim(k)):
                if 2 * k <= s.carrier.cutoff:
                    prod = s.carrier.product_basis(k, t, k, u)
                    assert all(x == 0 for x in prod)


def test_suspension_torus_dims():
    m = torus_model(4)
    s = suspension_model(m, 4)
    assert cohomology_dims(s.carrier, 3) == [1, 0, 2, 1]


def test_suspension_cp2_dims():
    m = cp2_formal(7)
    s = suspension_model(m, 6)
    assert cohomology_dims(s.carrier, 5) == [1, 0, 0, 1, 0, 1]


def test_suspension_dimension_formula_randomized():
    m = cp2_formal(7)
    s = suspension_model(m, 6)
    hm = cohomology_dims(m, 5)
    hs = cohomology_dims(s.carrier, 5)
    for k in range(1, 5):
        assert hs[k + 1] == hm[k]


@pytest.mark.parametrize("make", [lambda: forms_dga(2, 3), lambda: interval_forms(2)], ids=["simplex", "interval"])
def test_suspension_of_an_acyclic_algebra_whose_d0_is_nonzero(make):
    """Carrier degree 2 is a complement of im d^0 in m^1, so the carrier stays acyclic."""
    m = make()
    assert rank(m.d_matrix(0)) > 0
    s = suspension_model(m, m.cutoff + 1)
    assert s.carrier.dim(2) == m.dim(1) - rank(m.d_matrix(0)) == len(s.complement_choice)
    assert cohomology_dims(s.carrier, m.cutoff) == [1] + [0] * m.cutoff
    f, g = suspension_triple(m, m.cutoff)
    fp = fiber_product(f, g, m.cutoff)
    s = suspension_model(m, m.cutoff)
    ok, fail = theta_equivalence_check(fp, s.carrier, suspension_inclusion(s, fp), m.cutoff - 1)
    assert ok, f"failed at degree {fail}"


def test_suspension_requires_connected():
    qq = direct_sum(point_dga(4), point_dga(4))
    with pytest.raises(PreconditionError):
        suspension_model(qq, 3)


# -- suspension via fiber product ------------------------------------------------

def test_suspension_triple_matches_suspension_model():
    m = sphere_even_model(7)
    f, g = suspension_triple(m, 6)
    fp = fiber_product(f, g, 6)
    dims = cohomology_dims(fp.carrier, 5)
    assert dims == [1, 0, 0, 1, 0, 0]


def test_theta_inclusion_is_quasi_iso():
    m = sphere_even_model(8)
    f, g = suspension_triple(m, 7)
    fp = fiber_product(f, g, 7)
    s = suspension_model(m, 7)
    theta = suspension_inclusion(s, fp)
    ok, fail = theta_equivalence_check(fp, s.carrier, theta, 6)
    assert ok, f"failed at degree {fail}"


def test_theta_zero_map_fails():
    m = sphere_even_model(7)
    f, g = suspension_triple(m, 5)
    fp = fiber_product(f, g, 5)
    s = suspension_model(m, 5)
    zero_mats = [QMatrix.zero(fp.carrier.dim(k), s.carrier.dim(k)) for k in range(6)]
    entries = {}
    sol_unit = None
    # send the unit correctly but kill positive degrees: still a cochain map
    from cdgalab.exactlin import solve, concat

    amb_unit = concat(fp.a.unit, fp.b.unit)
    sol_unit = solve(fp.inclusions[0], amb_unit)
    for r, v in enumerate(sol_unit):
        if v:
            entries[(r, 0)] = v
    zero_mats[0] = QMatrix(fp.carrier.dim(0), 1, entries)
    theta = DGMorphism(s.carrier, fp.carrier, zero_mats, check="none")
    ok, fail = theta_equivalence_check(fp, s.carrier, theta, 4)
    assert not ok and fail == 3


def test_mayer_vietoris_suspension_connecting_is_shift_iso():
    m = sphere_even_model(7)
    f, g = suspension_triple(m, 6)
    fp = fiber_product(f, g, 6)
    rep = mayer_vietoris(fp, 5)
    assert rep.ok(), rep.failures
    hm = cohomology_dims(m, 4)
    for k in range(1, 5):
        # H^k(C) = H^k(m) + H^k(m); the sum map hits the diagonal, so the
        # connecting map has rank dim H~^k(m)
        expected = hm[k] if k >= 1 else 0
        assert rep.connecting_rank(k) == expected


def test_endpoint_evaluation_surjective():
    m = sphere_even_model(6)
    f, g = suspension_triple(m, 5)
    for k in range(5):
        assert rank(f.mats[k]) == f.target.dim(k)


def test_fiber_product_invariant_under_quasi_iso_leg_replacement():
    # replace the interval-forms leg by a larger quasi-isomorphic model of
    # the same evaluation; cohomology dimensions must not change
    f2, g2 = circle_legs(total=2, cutoff=6)
    f4, g4 = circle_legs(total=4, cutoff=6)
    h2 = cohomology_dims(fiber_product(f2, g2, 5).carrier, 4)
    h4 = cohomology_dims(fiber_product(f4, g4, 5).carrier, 4)
    assert h2 == h4 == [1, 1, 0, 0, 0]


def test_tensor_levels_come_from_the_first_factor():
    forms = forms_dga(1, 2, cutoff=3)
    s2 = sphere_even_model(3)
    assert s2.levels is None
    assert tensor_product(s2, forms, cutoff=3).levels is None
    tp = tensor_product(forms, forms, cutoff=3)
    assert tp.levels == [[len(forms.bases[i].keys[ia][1]) for i, ia, _, _ in b.keys] for b in tp.bases]
    # the interval keeps its form-degree levels; as a second factor they drop out
    assert interval_forms(1, cutoff=2).levels == forms_dga(1, 1, cutoff=2).levels


# -- broken invariants against bad input --------------------------------------

def test_kernel_carrier_reports_a_differential_leaving_the_kernel_as_internal():
    a = interval_forms(2, cutoff=1)  # d t = dt leaves the zero subspace of degree 1
    kernels = [KernelBasis(QMatrix.zero(0, a.dim(0))), KernelBasis(QMatrix.identity(a.dim(1)))]
    with pytest.raises(InternalError, match="differential does not preserve the kernel subspace"):
        _kernel_carrier(kernels, BlockSum([a], 1), name="broken")


def test_kernel_carrier_reports_a_unit_outside_the_kernel_as_internal():
    a = interval_forms(2, cutoff=0)
    with pytest.raises(InternalError, match="the unit is not a compatible family"):
        _kernel_carrier([KernelBasis(QMatrix.identity(a.dim(0)))], BlockSum([a], 0), name="broken")


def test_non_multiplicative_leg_is_an_input_error():
    # unchecked, as a sampled check may pass it: t goes to 0 but t^2 to (0, 1),
    # so t lies in the fiber product and t * t does not
    a = interval_forms(2, cutoff=2)
    qq = direct_sum(point_dga(2), point_dga(2))
    f_mats = [QMatrix.from_rows([[1, 0, 0], [1, 0, 1]])] + [QMatrix.zero(0, a.dim(k)) for k in (1, 2)]
    f = DGMorphism(a, qq, f_mats, check="none")
    g = DGMorphism(point_dga(2), qq, [QMatrix.from_rows([[1], [1]]), QMatrix.zero(0, 0), QMatrix.zero(0, 0)])
    fp = fiber_product(f, g, 2)
    t = fp.carrier.kernels[0].coords(unit_vector(4, 1))
    with pytest.raises(InputError, match="product does not preserve the kernel subspace"):
        fp.carrier.multiply(0, t, 0, t)


def test_induced_map_of_maps_off_the_legs_is_an_input_error():
    f, g = circle_legs()
    fp = fiber_product(f, g, 3)
    twice = DGMorphism(f.source, f.source, [QMatrix.identity(f.source.dim(k)).scale(2) for k in range(8)], check="none")
    with pytest.raises(InputError, match="image does not satisfy the target leg equation"):
        induced_fp_map(fp, fp, twice, DGMorphism.identity(g.source))
