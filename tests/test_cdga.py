import random
from fractions import Fraction

import pytest

from cdgalab.cdga import (
    BlockSum,
    DGMorphism,
    FreeCDGA,
    check_d_squared,
    cohomology,
    cohomology_dims,
    direct_sum,
    induced_map,
    is_quasi_iso,
    point_dga,
    power_quotient_dga,
    tensor_product,
    truncate,
)
from cdgalab.errors import CutoffTooSmallError, InputError
from cdgalab.exactlin import QMatrix, rank, vec_is_zero
from cdgalab.graded import FreeGCA
from cdgalab.polyforms import FormsDGA, forms_dga

from fixtures import cp2_formal, cp_model, sphere_even_model, torus_free, torus_model, wedge_of_2_spheres
from helpers import dense_multiply


# -- free CDGAs and d^2 --------------------------------------------------

def test_check_d_squared_zero_differential():
    ok, offender = check_d_squared(torus_free())
    assert ok and offender is None


def test_check_d_squared_cp1():
    ok, _ = check_d_squared(cp_model(1))
    assert ok


def test_check_d_squared_counterexample():
    gca = FreeGCA([("x", 1), ("y", 2)])
    bad = FreeCDGA(gca, {"y": gca.gen("x") * gca.gen("x")}, check=False)
    # dx = y makes d(dy) nonzero only if dy depends on x; use dy = x*x = 0
    # for odd x, so build the genuinely failing pair instead
    gca2 = FreeGCA([("x", 1), ("y", 2)])
    f = FreeCDGA(gca2, {"x": gca2.gen("y"), "y": gca2.gen("x") * gca2.gen("y")}, check=False)
    ok, offender = check_d_squared(f)
    assert not ok
    name, residue = offender
    assert name == "x"
    assert not residue.is_zero()
    del bad


def test_constructor_rejects_bad_degree():
    gca = FreeGCA([("x", 2), ("y", 3)])
    with pytest.raises(InputError):
        FreeCDGA(gca, {"y": gca.gen("y")})


# -- truncation ----------------------------------------------------------

def test_truncate_torus_bases():
    t = torus_model(2)
    assert t.dims == [1, 2, 1]
    assert t.labels[1] == ["t1", "t2"]
    assert t.labels[2] == ["t1*t2"]


def test_truncate_degree_zero_only():
    t = truncate(torus_free(), 0)
    assert t.dims == [1]


def test_truncate_cp1_dims():
    f = cp_model(1)
    t = truncate(f, 6)
    assert t.dims == [1, 0, 1, 1, 1, 1, 1]


def test_truncated_product_above_cutoff_raises():
    t = torus_model(1)
    with pytest.raises(CutoffTooSmallError):
        t.product_basis(1, 0, 1, 1)


def test_truncated_validate_clean():
    t = torus_model(3)
    assert t.validate() == []
    c = truncate(cp_model(1), 7)
    assert c.validate() == []


# -- cohomology ----------------------------------------------------------

def test_torus_cohomology_dims_and_products():
    t = torus_model(3)
    h = cohomology(t, 2)
    assert h.dims == [1, 2, 1]
    cls = h.cup(1, 0, 1, 1)
    assert cls != (Fraction(0),)


def test_cp1_cohomology():
    t = truncate(cp_model(1), 7)
    h = cohomology(t, 6)
    assert h.dims == [1, 0, 1, 0, 0, 0, 0]


def test_cohomology_requires_upto_below_cutoff():
    t = torus_model(2)
    with pytest.raises(InputError):
        cohomology(t, 2)


def _wedge_model_truncation():
    from cdgalab.sullivan import minimal_model

    return truncate(minimal_model(wedge_of_2_spheres(2, 8), 7).model, 8)


def _fiber_product_carrier():
    from cdgalab.gluing import fiber_product
    from test_gluing import circle_legs

    return fiber_product(*circle_legs(total=3, cutoff=7), 6).carrier


def _criterion_09c_sections():
    from cdgalab.localsys import global_sections
    from test_acceptance import criterion_09_system_c

    return global_sections(criterion_09_system_c(), 6)


@pytest.mark.parametrize(
    "make",
    [
        lambda: cp2_formal(7),
        _fiber_product_carrier,
        _criterion_09c_sections,
        _wedge_model_truncation,
        lambda: truncate(FreeCDGA(FreeGCA([("x", 2), ("y", 3)]), {}), 7),  # zero differential
    ],
    ids=["cp2-formal", "fiber-product-carrier", "criterion-9c-sections", "wedge-model", "zero-d"],
)
def test_cohomology_dims_from_ranks_match_the_cohomology(make):
    a = make()
    for upto in range(a.cutoff):
        assert cohomology_dims(a, upto) == cohomology(a, upto).dims
    with pytest.raises(InputError) as exc_dims:
        cohomology_dims(a, a.cutoff)
    with pytest.raises(InputError) as exc_full:
        cohomology(a, a.cutoff)
    assert str(exc_dims.value) == str(exc_full.value)


def test_power_quotient_cohomology():
    a = power_quotient_dga(2, 3, 7)
    assert cohomology_dims(a, 6) == [1, 0, 1, 0, 1, 0, 0]


def test_euler_characteristic_consistency():
    # on a range closed under d at both ends, chi(C) = chi(H); the torus has
    # d = 0 everywhere and the power quotient is a bounded complex
    tt = torus_model(3)
    hh = cohomology(tt, 2)
    assert sum((-1) ** k * tt.dims[k] for k in range(3)) == sum(
        (-1) ** k * hh.dims[k] for k in range(3)
    )
    a = power_quotient_dga(2, 3, 7)
    ha = cohomology(a, 6)
    assert sum((-1) ** k * a.dims[k] for k in range(7)) == sum(
        (-1) ** k * ha.dims[k] for k in range(7)
    )


def test_direct_sum_cohomology_is_product():
    rng = random.Random(31)
    for _ in range(5):
        a = power_quotient_dga(2, rng.randint(1, 3), 6)
        b = truncate(torus_free(), 6)
        s = direct_sum(a, b)
        ha = cohomology_dims(a, 5)
        hb = cohomology_dims(b, 5)
        hs = cohomology_dims(s, 5)
        assert hs == [x + y for x, y in zip(ha, hb)]


def test_block_sum_agrees_with_the_direct_sum_tables():
    # BlockSum multiplies block by block; direct_sum looks every basis pair
    # up in its own product table, so the two are computed independently
    rng = random.Random(7)
    a, b = truncate(cp_model(1), 6), torus_model(6)
    blocks, s = BlockSum((a, b), 6), direct_sum(a, b)
    assert blocks.unit == s.unit
    for k in range(6):
        assert blocks.d_matrix(k) == s.d_matrix(k)
    for i in range(4):
        for j in range(6 - i + 1):
            x = tuple(Fraction(rng.randint(-2, 2)) for _ in range(s.dim(i)))
            y = tuple(Fraction(rng.randint(-2, 2)) for _ in range(s.dim(j)))
            assert blocks.multiply(i, x, j, y) == s.multiply(i, x, j, y)
            xa, xb = blocks.split(i, x)
            assert [blocks.projection(t, i).matvec(x) for t in (0, 1)] == [xa, xb]
            joined = zip(blocks.inject(0, i, xa), blocks.inject(1, i, xb))
            assert tuple(u + v for u, v in joined) == x


# -- morphisms -----------------------------------------------------------

def test_identity_morphism_induces_identity():
    t = torus_model(3)
    h = DGMorphism.identity(t)
    mats = induced_map(h, 2)
    hh = cohomology(t, 2)
    for k in range(3):
        assert mats[k] == QMatrix.identity(hh.dims[k])
    ok, fail = is_quasi_iso(h, 2)
    assert ok and fail is None


def test_unit_inclusion_into_acyclic():
    # the contractible pair (u, v; dv = u) has H = Q in degree 0 only, so the
    # unit inclusion is a quasi-isomorphism
    gca = FreeGCA([("u", 3), ("v", 2)])
    g = FreeCDGA(gca, {"v": gca.gen("u")})
    t = truncate(g, 4)
    p = point_dga(4)
    inc = DGMorphism(
        p,
        t,
        [QMatrix.from_rows([[1]])] + [QMatrix.zero(t.dims[k], 0) for k in range(1, 5)],
    )
    ok, _ = is_quasi_iso(inc, 3)
    assert ok


def test_quotient_map_kills_class():
    # collapse x in the torus: map to the exterior algebra on t2 only
    src = torus_model(3)
    gca = FreeGCA([("t2", 1)])
    tgt = truncate(FreeCDGA(gca, {}), 3)
    # degree 1: t1 -> 0, t2 -> t2 ; degree 2: t1t2 -> 0
    mats = [
        QMatrix.identity(1),
        QMatrix.from_rows([[0, 1]]),
        QMatrix.zero(0, 1),
        QMatrix.zero(0, 0),
    ]
    h = DGMorphism(src, tgt, mats)
    ok, fail = is_quasi_iso(h, 2)
    assert not ok
    m = induced_map(h, 1)
    assert rank(m[1]) == 1


def test_zero_target_map_fails_where_h1_nonzero():
    src = torus_model(3)
    tgt = point_dga(3)
    mats = [QMatrix.from_rows([[1]])] + [QMatrix.zero(0, src.dims[k]) for k in range(1, 4)]
    h = DGMorphism(src, tgt, mats)
    ok, fail = is_quasi_iso(h, 2)
    assert not ok and fail == 1


def test_induced_map_functorial():
    t = torus_model(3)
    ident = DGMorphism.identity(t)
    comp = ident.compose(ident)
    m1 = induced_map(ident, 2)
    m2 = induced_map(comp, 2)
    assert m1 == m2


def test_non_cochain_map_rejected():
    src = truncate(cp_model(1), 4)
    tgt = truncate(cp_model(1), 4)
    mats = [QMatrix.identity(src.dims[k]) for k in range(5)]
    mats[3] = QMatrix.zero(tgt.dims[3], src.dims[3])
    with pytest.raises(InputError):
        DGMorphism(src, tgt, mats)


# -- tensor and sum constructions ----------------------------------------

def test_tensor_with_point_is_identity_on_dims():
    t = torus_model(3)
    p = point_dga(3)
    tp = tensor_product(t, p, cutoff=3)
    assert tp.dims == t.dims


def test_tensor_koszul_sign():
    # (1 (x) s) * (t (x) 1) = - (t (x) s) for odd s, t
    a = torus_model(3)
    b = torus_model(3)
    tp = tensor_product(a, b, cutoff=3)
    v_1s = tp.bases[1].vector({(0, 0, 1, 0): 1})
    v_t1 = tp.bases[1].vector({(1, 0, 0, 0): 1})
    prod = tp.multiply(1, v_1s, 1, v_t1)
    assert prod == tp.bases[2].vector({(1, 0, 1, 0): -1})


def test_tensor_cohomology_kunneth_instance():
    s2 = sphere_even_model(5)
    t = tensor_product(s2, s2, cutoff=5)
    dims = cohomology_dims(t, 4)
    assert dims == [1, 0, 2, 0, 1]


def test_tensor_leibniz():
    c = truncate(cp_model(1), 5)
    s = sphere_even_model(5)
    tp = tensor_product(c, s, cutoff=5)
    assert tp.validate(full=False, rng=random.Random(0)) == []


def test_element_vector_roundtrip():
    f = cp_model(1)
    t = truncate(f, 6)
    x = f.gca.gen("x")
    vec = t.bases[4].vector((x * x).terms)
    assert not vec_is_zero(vec)
    assert f.gca.element(zip(t.bases[4].keys, vec)) == x * x


def test_induced_map_composition_functorial():
    # torus -> exterior(t2) -> point: H(g o f) = H(g) H(f)
    src = torus_model(3)
    gca = FreeGCA([("t2", 1)])
    mid = truncate(FreeCDGA(gca, {}), 3)
    f_mats = [
        QMatrix.identity(1),
        QMatrix.from_rows([[0, 1]]),
        QMatrix.zero(0, 1),
        QMatrix.zero(0, 0),
    ]
    f = DGMorphism(src, mid, f_mats)
    tgt = point_dga(3)
    g_mats = [QMatrix.identity(1)] + [QMatrix.zero(0, mid.dims[k]) for k in range(1, 4)]
    g = DGMorphism(mid, tgt, g_mats)
    comp = g.compose(f)
    lhs = induced_map(comp, 2)
    hf = induced_map(f, 2)
    hg = induced_map(g, 2)
    for k in range(3):
        assert lhs[k] == hg[k].matmul(hf[k])


def test_truncated_algebras_take_no_patched_attributes():
    t = torus_model(3)
    with pytest.raises(AttributeError):
        t.tensor_pairs = []
    forms = forms_dga(2, 3)
    with pytest.raises(AttributeError):
        forms.form_bases = []
    assert isinstance(forms, FormsDGA) and forms.simplex_dim == 2
    assert forms.bases[1].keys == tuple(sorted(forms.bases[1].keys))
    assert [len(b) for b in forms.bases] == forms.dims


def _product_or_dropped(multiply, alg, i, va, j, vb):
    try:
        return multiply(alg, i, va, j, vb)
    except CutoffTooSmallError:
        return "dropped"


def test_multiply_matches_the_dense_product_loop():
    from cdgalab.gluing import fiber_product
    from cdgalab.localsys import global_sections
    from cdgalab.sullivan import minimal_model
    from test_gluing import circle_legs
    from test_specseq import _small_suspension_system

    rng = random.Random(11)
    wedge = truncate(minimal_model(wedge_of_2_spheres(2, 7), 6).model, 6)
    circle = fiber_product(*circle_legs(), 5).carrier
    sections = global_sections(_small_suspension_system(), 4)
    assert circle.kernels is not None and sections.kernels is not None
    seen = set()
    for alg in (cp2_formal(7), wedge, circle, sections):
        for i in range(alg.cutoff + 1):
            for j in range(alg.cutoff + 1 - i):
                for _ in range(3):
                    va, vb = (
                        tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) * (rng.random() < 0.6) for _ in range(alg.dim(k)))
                        for k in (i, j)
                    )
                    # twice: the second call reads the cached products
                    for _ in range(2):
                        got = _product_or_dropped(type(alg).multiply, alg, i, va, j, vb)
                        assert got == _product_or_dropped(dense_multiply, alg, i, va, j, vb)
                        seen.add("dropped" if got == "dropped" else any(got))
    assert seen == {True, False, "dropped"}
