import random
from fractions import Fraction

import pytest

from cdgalab.cdga import (
    BlockSum,
    DGMorphism,
    FreeCDGA,
    TruncatedDGA,
    check_d_squared,
    cohomology,
    cohomology_dims,
    direct_sum,
    from_tables,
    induced_map,
    is_quasi_iso,
    point_dga,
    power_quotient_dga,
    tensor_product,
    truncate,
)
from cdgalab.errors import CutoffTooSmallError, InputError
from cdgalab.exactlin import QMatrix, kernel_basis, rank, unit_vector, vec_is_zero
from cdgalab.graded import FreeGCA
from cdgalab.polyforms import FormsDGA, forms_dga

from fixtures import cp2_formal, cp_model, sphere_even_model, torus_free, torus_model, wedge_of_2_spheres
import helpers
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


@pytest.mark.parametrize(
    "va, vb, lengths",
    [((1,), (1,), "1 and 1"), ((1,), (1, 0, 0), "1 and 3"), ((1, 0), (1, 0), "2 and 2")],
    ids=["short", "long", "long-left"],
)
def test_multiply_checks_both_vector_lengths(va, vb, lengths):
    # torus_model(3) has dimensions 1, 2, 1 in degrees 0, 1, 2
    t = torus_model(3)
    with pytest.raises(InputError, match=f"lengths {lengths} against dimensions 1 and 2 in degrees 0 and 1"):
        t.multiply(0, tuple(map(Fraction, va)), 1, tuple(map(Fraction, vb)))


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


@pytest.mark.parametrize(
    "make",
    [_wedge_model_truncation, lambda: forms_dga(2, 3), _fiber_product_carrier],
    ids=["wedge-model", "forms", "fiber-product-carrier"],
)
def test_cohomology_picks_the_representatives_of_the_incremental_span(make):
    # the span grown one dense vector at a time: boundaries first, then kernel-basis cocycles
    a = make()
    h = cohomology(a, a.cutoff - 1)
    for k in range(a.cutoff):
        oracle = helpers.IncrementalRowSpace(a.dim(k), a.d_matrix(k - 1).to_cols() if k else ())
        cocycles = kernel_basis(a.d_matrix(k))
        assert h.reps[k] == [v for v in cocycles if oracle.add(v)], k
        coords = oracle.coords_many(cocycles)
        assert h.spaces[k].coords_many(cocycles) == coords, k
        assert [h.class_of(k, v) for v in cocycles] == [c[oracle.rank - h.dims[k]:] for c in coords], k


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
            assert [blocks.block_rows(t, i, QMatrix.identity(s.dim(i))).matvec(x) for t in (0, 1)] == [xa, xb]
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
    assert tp.validate() == []


def _interval(total, cutoff):
    from cdgalab.gluing import interval_forms

    return interval_forms(total, cutoff=cutoff)


@pytest.mark.parametrize(
    "make, signed",
    [
        (lambda: (torus_model(3), _interval(1, 2), 2), True),  # t1 (x) t: d = -t1 (x) dt
        (lambda: (truncate(cp_model(1), 5), _interval(2, 5), 5), True),  # y (x) t
        (lambda: (_interval(2, 5), truncate(cp_model(1), 5), 5), True),  # dt (x) y
        (lambda: (torus_model(3), torus_model(3), 2), False),
    ],
    ids=["torus-interval", "cp1-interval", "interval-cp1", "torus-torus"],
)
def test_tensor_differentials_match_the_dense_column_reads(make, signed):
    a, b, cutoff = make()
    tp = tensor_product(a, b, cutoff=cutoff)
    assert tp.diff_mats == helpers.dense_tensor_differentials(a, b, tp)
    # whether an odd first factor meets a nonzero second differential, where the Koszul sign enters
    keys = [key for basis in tp.bases[:cutoff] for key in basis.keys]
    assert any(i % 2 and b.d_matrix(j).sparse_columns().get(jb) for i, _, j, jb in keys) == signed


def _torus_shear():
    """t1 -> t1/2 + t2, t2 -> 3 t2 on the torus model, so t1 t2 -> 3/2 t1 t2."""
    t = torus_model(3)
    shear = QMatrix.from_rows([["1/2", 0], [1, 3]])
    return t, DGMorphism(t, t, [QMatrix.identity(1), shear, QMatrix.from_rows([["3/2"]]), QMatrix.zero(0, 0)])


def _interval_flip():
    """t -> 1 - t and dt -> -dt on the interval forms of total degree 1, where t * t is dropped."""
    i = _interval(1, 2)
    return i, DGMorphism(i, i, [QMatrix.from_rows([[1, 1], [0, -1]]), QMatrix.from_rows([[-1]]), QMatrix.zero(0, 0)])


def _full_and_dense(src, tgt, mats):
    """The pairs the full check compares, and the dense reference's (pairs, first failing pair)."""
    dense = helpers.dense_multiplicativity(DGMorphism(src, tgt, mats, check="none"))
    return DGMorphism(src, tgt, mats).pairs_checked, dense


@pytest.mark.parametrize("legs", ["f", "g", "both", "neither"])
def test_tensor_morphisms_match_the_dense_column_reads(legs):
    from cdgalab.cdga import tensor_morphism

    (t, f), (i, g) = _torus_shear(), _interval_flip()
    f, g = (f if legs in ("f", "both") else None), (g if legs in ("g", "both") else None)
    tp = tensor_product(t, i, cutoff=2)
    mats = tensor_morphism(tp, tp, f, g).mats
    assert mats == helpers.dense_tensor_morphism_mats(tp, tp, f, g)
    # f (x) g is a map of DG algebras, which both checks confirm on the same pairs
    checked, (dense, failing) = _full_and_dense(tp, tp, mats)
    assert (checked, failing) == (dense, None)


def test_the_multiplicativity_check_matches_the_dense_reference_where_products_drop():
    tp = tensor_product(torus_model(3), _interval(1, 2), cutoff=2)
    ident = [QMatrix.identity(tp.dim(k)) for k in range(tp.cutoff + 1)]
    assert _dropped(tp, 0, 1, 0, 1)  # (1 (x) t) * (1 (x) t)
    # the nonzero kept products that mult_fn is asked for, in the order the checks read them
    kept = [
        (i, a, j, b)
        for i in range(tp.cutoff + 1)
        for j in range(i, tp.cutoff + 1 - i)
        for a in range(tp.dim(i))
        for b in range(tp.dim(j))
        if tp.dim(i + j) and (i < j or a <= b) and not _dropped(tp, i, a, j, b) and any(tp.product_basis(i, a, j, b))
    ]

    def altered(drop, flip):
        """``tp`` with the product ``drop`` dropped as well and the sign of ``flip`` changed."""
        def mult_fn(i, a, j, b):
            if (i, a, j, b) == drop or _dropped(tp, i, a, j, b):
                return None
            terms = tp._terms(i, a, j, b)
            return [(s, -x) for s, x in terms] if (i, a, j, b) == flip else terms

        return TruncatedDGA(tp.cutoff, tp.dims, tp.unit, tp.diff_mats, mult_fn, check=False)

    checked, (dense, failing) = _full_and_dense(tp, tp, ident)
    assert (checked, failing) == (dense, None)
    # a product dropped in the target only skips its pair
    assert _full_and_dense(tp, altered(kept[0], None), ident) == (checked - 1, (checked - 1, None))
    # a sign flipped after it is the first failing pair of both checks
    target = altered(kept[0], kept[-1])
    _, failing = helpers.dense_multiplicativity(DGMorphism(tp, target, ident, check="none"))
    assert failing == kept[-1]
    with pytest.raises(InputError, match=r"not multiplicative on basis pair \(%d,%d\),\(%d,%d\)$" % failing):
        DGMorphism(tp, target, ident)


def test_validation_compares_every_leibniz_pair(monkeypatch):
    from cdgalab.sullivan import minimal_model

    src = minimal_model(wedge_of_2_spheres(2, 9), 8).comparison.source
    c = src.cutoff
    pairs = [
        (i, a, j, b)
        for i in range(c + 1)
        for j in range(i, c + 1 - i)
        if i + j + 1 <= c
        for a in range(src.dim(i))
        for b in range(src.dim(j))
    ]
    assert len(pairs) == 258
    seen = []
    product_basis = type(src).product_basis

    def recording(self, i, a, j, b):
        seen.append((i, a, j, b))
        return product_basis(self, i, a, j, b)

    monkeypatch.setattr(type(src), "product_basis", recording)
    assert src.validate() == []
    # each Leibniz pair takes one product, and they all come before the associativity triples
    assert seen[: len(pairs)] == pairs


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


# -- the sparse product table ------------------------------------------------

def _table_cases():
    from cdgalab.gluing import fiber_product, interval_forms, suspension_model
    from cdgalab.localsys import forms_system, global_sections
    from cdgalab.polyforms import cycle_complex
    from test_gluing import circle_legs

    cp1, torus = cp_model(1), torus_free()
    exterior = FreeCDGA(FreeGCA([("t1", 1), ("t2", 1), ("t3", 1)]), {})
    t_cp1, t_torus, t_exterior = truncate(cp1, 5), truncate(torus, 2), truncate(exterior, 3)
    forms1, forms2 = forms_dga(1, 2), forms_dga(2, 3)
    s1 = direct_sum(forms1, t_torus)
    s2 = direct_sum(cp2_formal(4), forms2, cutoff=3)
    tp1 = tensor_product(t_torus, t_torus, cutoff=2)
    tp2 = tensor_product(forms1, interval_forms(2, cutoff=3), cutoff=2)
    circle = fiber_product(*circle_legs(total=2, cutoff=3), 2).carrier
    sections = global_sections(forms_system(cycle_complex(3), 2, cutoff=3), 2)
    susp = suspension_model(t_exterior, 4).carrier
    return {
        "truncate-cp1": (t_cp1, helpers.truncation_rule(cp1, t_cp1)),
        "truncate-exterior": (t_exterior, helpers.truncation_rule(exterior, t_exterior)),
        "forms-interval": (forms1, helpers.forms_rule(forms1, 2)),
        "forms-triangle": (forms2, helpers.forms_rule(forms2, 3)),
        "direct-sum-forms-torus": (s1, helpers.direct_sum_rule(forms1, t_torus, s1)),
        "direct-sum-cp2-forms": (s2, helpers.direct_sum_rule(cp2_formal(4), forms2, s2)),
        "tensor-torus-torus": (tp1, helpers.tensor_rule(t_torus, t_torus, tp1)),
        "tensor-forms-forms": (tp2, helpers.tensor_rule(forms1, interval_forms(2, cutoff=3), tp2)),
        "fiber-product-circle": (circle, helpers.carrier_rule(circle)),
        "global-sections": (sections, helpers.carrier_rule(sections)),
        "suspension": (susp, helpers.suspension_rule(susp)),
    }


TABLE_CASES = [
    "truncate-cp1", "truncate-exterior", "forms-interval", "forms-triangle", "direct-sum-forms-torus",
    "direct-sum-cp2-forms", "tensor-torus-torus", "tensor-forms-forms", "fiber-product-circle",
    "global-sections", "suspension",
]


@pytest.mark.parametrize("case", TABLE_CASES)
def test_product_table_matches_the_dense_rule_of_its_construction(case):
    alg, rule = _table_cases()[case]
    assert helpers.product_table_mismatches(alg, rule) == []


def test_product_tables_cover_dropped_signed_and_zero_products():
    seen = set()
    for alg, _ in _table_cases().values():
        for i in range(alg.cutoff + 1):
            for j in range(alg.cutoff + 1 - i):
                for a in range(alg.dim(i)):
                    for b in range(alg.dim(j)):
                        try:
                            v = alg.product_basis(i, a, j, b)
                        except CutoffTooSmallError:
                            seen.add("dropped")
                            continue
                        seen.add("zero" if not any(v) else "negative" if min(v) < 0 else "positive")
    assert seen == {"dropped", "zero", "negative", "positive"}


def _dropped(alg, i, a, j, b) -> bool:
    try:
        alg.product_basis(i, a, j, b)
    except CutoffTooSmallError:
        return True
    return False


def test_the_sparse_multiplicativity_check_reads_every_kept_pair_with_its_sign():
    for alg, _ in _table_cases().values():
        # a product in a degree of dimension zero lands in the zero space on both sides
        pairs = [
            (i, a, j, b)
            for i in range(alg.cutoff + 1)
            for j in range(i, alg.cutoff + 1 - i)
            if alg.dim(i + j)
            for a in range(alg.dim(i))
            for b in range(alg.dim(j))
        ]
        kept = sum(1 for pair in pairs if not _dropped(alg, *pair))
        ident = DGMorphism(alg, alg, [QMatrix.identity(alg.dim(k)) for k in range(alg.cutoff + 1)])
        assert (ident.check_mode, ident.pairs_checked) == ("full", kept)
    # t1 -> t1, t2 -> t2 and t1 t2 -> 2 t1 t2 is a cochain map but not multiplicative
    t = torus_model(2)
    doubled = [QMatrix.identity(1), QMatrix.identity(2), QMatrix(1, 1, {(0, 0): 2})]
    with pytest.raises(InputError, match=r"not multiplicative on basis pair \(1,0\),\(1,1\)"):
        DGMorphism(t, t, doubled)


@pytest.mark.parametrize("check", ["auto", "sample", "sampled", "", True, None])
def test_a_morphism_check_is_full_or_none(check):
    t = torus_model(2)
    with pytest.raises(InputError, match="morphism check must be 'full' or 'none'"):
        DGMorphism(t, t, [QMatrix.identity(t.dim(k)) for k in range(t.cutoff + 1)], check=check)


def test_mult_fn_runs_once_per_pair_dropped_pairs_included():
    base = forms_dga(1, 2, cutoff=2)
    calls = []

    def counting(i, a, j, b):
        calls.append((i, a, j, b))
        return base._mult_fn(i, a, j, b)

    alg = TruncatedDGA(
        base.cutoff, base.dims, base.unit, base.diff_mats, counting, levels=base.levels, bases=base.bases
    )
    dropped = set()
    for _ in range(2):
        for i in range(alg.cutoff + 1):
            for j in range(alg.cutoff + 1 - i):
                for a in range(alg.dim(i)):
                    for b in range(alg.dim(j)):
                        try:
                            alg.product_basis(i, a, j, b)
                            alg.multiply(i, unit_vector(alg.dim(i), a), j, unit_vector(alg.dim(j), b))
                        except CutoffTooSmallError:
                            dropped.add((i, a, j, b))
    assert dropped and len(calls) == len(set(calls))
    # the table asks only for one order of each pair; graded commutativity gives the other
    assert all(i < j or (i == j and a <= b) for i, a, j, b in calls)
    assert alg.validate() == base.validate() == []


def test_from_tables_reads_dense_vectors_into_the_sparse_table():
    zero, one = Fraction(0), Fraction(1)
    table = {(0, 0, 0, 0): (one,), (0, 0, 1, 0): (one,), (0, 0, 2, 0): (one,), (0, 0, 1, 1): (zero,)}
    alg = from_tables(2, [1, 1, 1], (one,), [None, None], table)
    assert alg.product_basis(2, 0, 0, 0) == (one,)
    assert alg._products[(0, 0, 2, 0)] == [(0, one)]
    with pytest.raises(CutoffTooSmallError, match="was dropped"):
        alg.multiply(1, (one,), 1, (one,))
    bad = from_tables(1, [1, 1], (one,), [None], {(0, 0, 1, 0): (one, one)})
    with pytest.raises(InputError, match="wrong length"):
        bad.product_basis(0, 0, 1, 0)


def test_truncation_labels_are_built_on_first_read():
    t = truncate(torus_free(), 2)
    assert callable(t._labels)
    assert t.labels == [["1"], ["t1", "t2"], ["t1*t2"]]
    assert t._labels is t.labels
    assert point_dga(1).labels == [["1"], []]
    assert TruncatedDGA(1, [1, 1], (1,), [None], lambda i, a, j, b: ((0, Fraction(1)),)).labels == [["e0_0"], ["e1_0"]]


def test_sum_and_tensor_labels_name_their_factors():
    a, b = point_dga(2), power_quotient_dga(2, 2, 2)
    assert direct_sum(a, b).labels == [["(1,0)", "(0,1)"], [], ["(0,x^1)"]]
    assert tensor_product(b, b, cutoff=2).labels == [["1(x)1"], [], ["1(x)x^1", "x^1(x)1"]]


@pytest.mark.parametrize(
    "labels",
    [[["1"]], [["1"], []], [["1"], ["x", "y"]], [["1"], [["x"]]], [["1"], [7]]],
    ids=["a degree missing", "too few", "too many", "a list", "an integer"],
)
def test_sequence_labels_need_one_string_per_basis_element(labels):
    with pytest.raises(InputError, match="one string per basis element"):
        TruncatedDGA(1, [1, 1], (1,), [None], lambda i, a, j, b: ((0, Fraction(1)),), labels=labels)
