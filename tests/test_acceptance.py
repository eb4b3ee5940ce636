"""Acceptance criteria, one test per criterion, each printing a verdict line.

Every assertion is exact (rational arithmetic); the stated runtime budget of
each criterion is enforced on the measured wall time.
"""

import random
import time
from fractions import Fraction

import pytest

from cdgalab.cdga import (
    DGMorphism,
    FreeCDGA,
    check_d_squared,
    cohomology,
    cohomology_dims,
    direct_sum,
    point_dga,
    power_quotient_dga,
    tensor_product,
    truncate,
)
from cdgalab.exactlin import ONE, ZERO, kernel_basis, rank, rref, unit_vector
from cdgalab.gluing import (
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
from cdgalab.graded import FreeGCA
from cdgalab.localsys import (
    FiniteLocalSystem,
    SystemMorphism,
    constant_system,
    fiber_product_system,
    forms_system,
    global_sections,
    pullback,
    tensor_system,
    tensor_system_morphism,
    validate,
)
from cdgalab.polyforms import (
    PolyForm,
    boundary_complex,
    check_admissible_axioms,
    cycle_complex,
    d as pf_d,
    face_restrict,
    form_basis,
    forms_dga,
    integrate,
    random_polyform,
    standard_complex,
)
from cdgalab.specseq import SpectralSequence, e2_check, einfty_vs_target, triple_morphism_pages
from cdgalab.sullivan import loop_model, minimal_model

from fixtures import cp_model, cp2_formal, sphere_even_model, torus_model
from helpers import dense_validate, naive_rank


def verdict(number: int, label: str, start: float, budget: float):
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE {number:2d} [{label}]: PASS ({elapsed:.2f}s < {budget:.0f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_01_torus_cohomology():
    t0 = time.monotonic()
    t = torus_model(3)
    h = cohomology(t, 2)
    assert h.dims == [1, 2, 1]
    assert any(v != 0 for v in h.cup(1, 0, 1, 1))
    verdict(1, "torus cohomology", t0, 1.0)


def test_criterion_02_cp_minimal_models():
    t0 = time.monotonic()
    for n in (1, 2, 3):
        cutoff = 2 * n + 3
        target = power_quotient_dga(2, n + 1, cutoff)
        res = minimal_model(target, cutoff - 1)
        gens = sorted(res.model.gca.generators, key=lambda g: g.degree)
        assert len(gens) == 2
        assert [g.degree for g in gens] == [2, 2 * n + 1]
        dy = res.model.diff[gens[1].name]
        ((mono, coeff),) = dy.terms.items()
        x_i = res.model.gca.index[gens[0].name]
        assert coeff == 1 and mono[x_i] == n + 1 and sum(mono) == n + 1
    verdict(2, "projective-space minimal models", t0, 5.0)


def test_criterion_03_loop_models():
    t0 = time.monotonic()
    for n in (1, 2):
        lm = loop_model(cp_model(n))
        degs = sorted(g.degree for g in lm.gca.generators)
        assert degs == sorted([2, 2 * n + 1, 1, 2 * n])
        assert lm.diff["x_bar"].is_zero()
        dybar = lm.diff["y_bar"]
        ((mono, coeff),) = dybar.terms.items()
        assert coeff == n + 1
        assert mono[lm.gca.index["x"]] == n and mono[lm.gca.index["x_bar"]] == 1
        ok, _ = check_d_squared(lm)
        assert ok
    lm1 = loop_model(cp_model(1))
    t = truncate(lm1, 6)
    dims = cohomology_dims(t, 4)
    assert dims == [1, 1, 1, 1, 1]
    # independent brute-force kernel/image computation on the same complex
    oracle = []
    for k in range(5):
        rk = naive_rank(t.d_matrix(k).to_rows())
        rk_prev = naive_rank(t.d_matrix(k - 1).to_rows()) if k else 0
        oracle.append(t.dims[k] - rk - rk_prev)
    assert oracle == dims
    verdict(3, "free-loop models", t0, 10.0)


def test_criterion_04_suspension_theorem():
    t0 = time.monotonic()
    cases = [
        (sphere_even_model(7), 6),
        (torus_model(4), 4),
        (cp2_formal(7), 6),
    ]
    for m, upto in cases:
        s = suspension_model(m, upto)
        hm = cohomology_dims(m, upto - 2)
        hs = cohomology(s.carrier, upto - 1)
        for k in range(1, upto - 1):
            assert hs.dims[k + 1] == hm[k]
        for p in range(1, upto):
            for q in range(p, upto - p):
                for i in range(hs.dims[p]):
                    for j in range(hs.dims[q]):
                        assert all(v == 0 for v in hs.cup(p, i, q, j))
    verdict(4, "suspension dimensions and vanishing products", t0, 5.0)


def test_criterion_05_suspension_via_fiber_product():
    t0 = time.monotonic()
    m = sphere_even_model(8)
    f, g = suspension_triple(m, 7)
    fp = fiber_product(f, g, 7)
    s = suspension_model(m, 7)
    theta = suspension_inclusion(s, fp)
    ok, fail = theta_equivalence_check(fp, s.carrier, theta, 6)
    assert ok, f"theta fails at degree {fail}"
    verdict(5, "theta comparison for the suspension", t0, 5.0)


def test_criterion_06_mayer_vietoris():
    t0 = time.monotonic()
    from test_gluing import circle_legs

    f, g = circle_legs(total=3, cutoff=6)
    fp_circle = fiber_product(f, g, 5)
    rep = mayer_vietoris(fp_circle, 4)
    assert rep.ok(), rep.failures
    assert rep.connecting_rank(0) == 1

    m = sphere_even_model(7)
    f2, g2 = suspension_triple(m, 6)
    fp_susp = fiber_product(f2, g2, 6)
    rep2 = mayer_vietoris(fp_susp, 5)
    assert rep2.ok(), rep2.failures
    verdict(6, "Mayer-Vietoris exactness", t0, 2.0)


def test_criterion_07_admissibility_and_stokes():
    t0 = time.monotonic()
    rep = check_admissible_axioms(3, sample_budget=20, seed=7)
    assert rep.ok(), rep.failures
    assert rep.samples["zero_divisor"] >= 20
    rng = random.Random(11)
    checked = 0
    while checked < 100:
        n = rng.randint(1, 3)
        w = random_polyform(rng, n, n - 1, 4)
        lhs = integrate(pf_d(w))
        rhs = sum(
            (-1) ** i * integrate(face_restrict(w, i)) for i in range(n + 1)
        )
        assert lhs == rhs
        checked += 1
    verdict(7, "admissibility axioms and Stokes", t0, 30.0)


def test_criterion_08_gamma_forms_isomorphism():
    t0 = time.monotonic()
    F = sphere_even_model(5)
    base_sys = forms_system(standard_complex(2), 3, cutoff=4)
    e = tensor_system(base_sys, F, cutoff=4)
    g = global_sections(e, 3)
    direct = tensor_product(forms_dga(2, 3, cutoff=4), F, cutoff=4)
    for k in range(4):
        assert g.dim(k) == direct.dim(k)
    verdict(8, "global sections against simplex forms", t0, 10.0)


def _suspension_fp_system(base, m, upto, forms_total, forms_cutoff, sys_cutoff):
    """Thickened suspension triple over a base complex, objectwise glued."""
    return fiber_product_system(*_suspension_legs(base, m, forms_total, forms_cutoff, sys_cutoff), upto)


def _suspension_legs(base, m, forms_total, forms_cutoff, sys_cutoff):
    """The system morphisms (evaluation, unit pair) that the suspension system glues."""
    i_forms = interval_forms(1, cutoff=2)
    cyl = tensor_product(m, i_forms, cutoff=m.cutoff - 2)
    mm = direct_sum(m, m, cutoff=m.cutoff - 2)
    f_leg = endpoint_evaluations(cyl, m, mm)
    qq, g_leg = two_point_unit_leg(mm, m, mm.cutoff)
    forms = forms_system(base, forms_total, cutoff=forms_cutoff)
    sys_e1 = tensor_system(forms, cyl, cutoff=sys_cutoff)
    sys_e0 = tensor_system(forms, mm, cutoff=sys_cutoff)
    sys_qq = tensor_system(forms, qq, cutoff=sys_cutoff)
    return tensor_system_morphism(sys_e1, sys_e0, f_leg), tensor_system_morphism(sys_qq, sys_e0, g_leg)


def criterion_09_system_a():
    """(a) constant fiber with cohomology in degrees 0, 2, 4 over the circle."""
    return tensor_system(forms_system(cycle_complex(3), 2, cutoff=8), cp2_formal(8), cutoff=8)


def criterion_09_system_b():
    """(b) sign-twisted odd class over the circle: twisted rows vanish."""
    from test_localsys import odd_generator_fiber
    from test_specseq import tensor_sign_twist
    from cdgalab.localsys import twist_restriction

    e_b = tensor_system(forms_system(cycle_complex(3), 2, cutoff=8), odd_generator_fiber(3, 8), cutoff=8)
    return twist_restriction(e_b, (0, 2), 0, tensor_sign_twist(e_b.fibers[(0,)], 3))


def criterion_09_system_c():
    """(c) suspension-triple fiber product over the boundary of the 3-simplex."""
    e_c, _ = _suspension_fp_system(
        boundary_complex(3), sphere_even_model(10), upto=7, forms_total=3, forms_cutoff=4, sys_cutoff=7
    )
    return e_c


def test_criterion_09_e2_theorem():
    t0 = time.monotonic()
    e_a = criterion_09_system_a()
    rep_a = e2_check(e_a, 2, 4)
    assert rep_a.ok(), rep_a.mismatches
    expected_a = {(p, q): 0 for p in range(3) for q in range(5)}
    for q in (0, 2, 4):
        expected_a[(0, q)] = 1
        expected_a[(1, q)] = 1
    assert rep_a.dims_pages == expected_a
    tot_a = einfty_vs_target(e_a, 4)
    assert tot_a.ok(), (tot_a.mismatches, tot_a.product_failures)
    assert (tot_a.product_checks, tot_a.products_skipped) == (4, 0)

    e_b = criterion_09_system_b()
    rep_b = e2_check(e_b, 2, 4)
    assert rep_b.ok(), rep_b.mismatches
    assert rep_b.dims_pages[(0, 0)] == 1 and rep_b.dims_pages[(1, 0)] == 1
    for p in range(3):
        assert rep_b.dims_pages[(p, 3)] == 0
    tot_b = einfty_vs_target(e_b, 4)
    assert tot_b.ok(), (tot_b.mismatches, tot_b.product_failures)
    assert tot_b.products_skipped == 0

    e_c = criterion_09_system_c()
    rep_c = e2_check(e_c, 2, 4)
    assert rep_c.ok(), rep_c.mismatches
    expected_c = {(p, q): 0 for p in range(3) for q in range(5)}
    expected_c[(0, 0)] = 1
    expected_c[(2, 0)] = 1
    expected_c[(0, 3)] = 1
    expected_c[(2, 3)] = 1
    assert rep_c.dims_pages == expected_c
    tot_c = einfty_vs_target(e_c, 5)
    assert tot_c.ok(), (tot_c.mismatches, tot_c.product_failures)
    # the interval forms keep t but not t^2, so every sampled product is dropped, and counted
    assert tot_c.product_checks == 0 and tot_c.products_skipped > 0
    # the glued object is the product of the suspension with the base sphere
    assert tot_c.totals_pages == {0: 1, 1: 0, 2: 1, 3: 1, 4: 0, 5: 1}
    verdict(9, "second-page theorem and limit totals", t0, 60.0)


def test_criterion_09_suspension_rung_over_the_boundary_of_the_4_simplex():
    """The glued object is S^3 x S^3: E2 = H(S^3) (x) H(S^3), and the limit totals agree."""
    t0 = time.monotonic()
    e, _ = _suspension_fp_system(
        boundary_complex(4), sphere_even_model(10), upto=7, forms_total=4, forms_cutoff=5, sys_cutoff=7
    )
    ss = SpectralSequence(e, 7)
    rep = ss.e2_check(3, 3)
    assert rep.ok(), rep.mismatches
    expected = {(p, q): 0 for p in range(4) for q in range(4)}
    for key in ((0, 0), (3, 0), (0, 3), (3, 3)):
        expected[key] = 1
    assert rep.dims_pages == expected
    tot = ss.einfty_vs_target(6)
    assert tot.ok(), (tot.mismatches, tot.product_failures)
    assert [tot.totals_pages[k] for k in range(7)] == [1, 0, 0, 2, 0, 0, 1]
    verdict(9, "suspension rung over the boundary of the 4-simplex", t0, 20.0)


def test_criterion_10_naturality_and_detection():
    t0 = time.monotonic()
    base = cycle_complex(3)
    m = sphere_even_model(9)
    i_forms = interval_forms(1, cutoff=2)
    cyl = tensor_product(m, i_forms, cutoff=7)
    mm = direct_sum(m, m, cutoff=7)
    f_leg = endpoint_evaluations(cyl, m, mm)
    qq = direct_sum(point_dga(7), point_dga(7))
    s3 = truncate(FreeCDGA(FreeGCA([("v", 3)]), {}), 7)
    ss = direct_sum(s3, s3, cutoff=7)

    forms_thick = forms_system(base, 3, cutoff=3)   # carries the e1/e0 systems
    forms_thin = forms_system(base, 2, cutoff=3)    # carries the qq/ss systems
    sys_e1 = tensor_system(forms_thick, cyl, cutoff=6)
    sys_e0 = tensor_system(forms_thick, mm, cutoff=6)
    sys_qq = tensor_system(forms_thin, qq, cutoff=6)
    sys_ss = tensor_system(forms_thin, ss, cutoff=6)
    f_sys = tensor_system_morphism(sys_e1, sys_e0, f_leg)

    def leg_into_e0(src_sys, with_winding):
        """Units to unit pairs; degree-3 classes to (key ^ z) (x) x if winding."""
        maps = {}
        for s in base.all_simplices():
            n = len(s) - 1
            src = src_sys.fibers[s]
            tgt = sys_e0.fibers[s]
            thin = forms_thin.fibers[s].bases
            thick = forms_thick.fibers[s].bases
            z = PolyForm.dcoordinate(1, 1) if n == 1 else PolyForm.zero(n)
            mats = []
            for k in range(min(src.cutoff, tgt.cutoff) + 1):
                images = []
                for i, ia, j, jb in src.bases[k].keys:
                    key = thin[i].keys[ia]
                    image = {}
                    if j == 0:
                        image[(i, thick[i].index[key], 0, jb)] = ONE
                    elif j == 3 and with_winding:
                        img = PolyForm(n, {key: ONE}) * z
                        for tkey, v in img.terms.items():
                            image[(i + 1, thick[i + 1].index[tkey], 2, jb)] = v
                    images.append(image)
                mats.append(tgt.bases[k].matrix(images))
            maps[s] = DGMorphism(src, tgt, mats)
        return SystemMorphism(src_sys, sys_e0, maps)

    gq_sys = leg_into_e0(sys_qq, with_winding=False)
    gs_sys = leg_into_e0(sys_ss, with_winding=True)
    assert gq_sys.validate() == []
    assert gs_sys.validate() == []
    p_primed, carriers_primed = fiber_product_system(f_sys, gq_sys, 6)
    p_twisted, carriers_twisted = fiber_product_system(f_sys, gs_sys, 6)

    # component inclusion Q x Q -> ss over the thin forms factor
    incl_maps = {}
    for s in base.all_simplices():
        src_fib = sys_qq.fibers[s]
        dst_fib = sys_ss.fibers[s]
        mats = []
        for k in range(min(src_fib.cutoff, dst_fib.cutoff) + 1):
            mats.append(dst_fib.bases[k].matrix([{key: ONE} for key in src_fib.bases[k].keys]))
        incl_maps[s] = DGMorphism(src_fib, dst_fib, mats, check="none")
    fp_maps = {}
    for s in base.all_simplices():
        fp_maps[s] = induced_fp_map(
            carriers_primed[s],
            carriers_twisted[s],
            DGMorphism.identity(sys_e1.fibers[s]),
            incl_maps[s],
            check="none",
        )
    morph = SystemMorphism(p_primed, p_twisted, fp_maps)
    assert morph.validate() == []

    pm = triple_morphism_pages(morph, 5, 2)
    assert pm.ok(), pm.failures
    # the degree-3 suspension class survives into the twisted tower
    psi_03 = pm.psi[(2, 0, 3)]
    assert psi_03.cols == 1  # source E2^{0,3} is one-dimensional
    assert not psi_03.is_zero()
    verdict(10, "naturality and class detection", t0, 30.0)


def test_criterion_11_property_suites():
    t0 = time.monotonic()
    rng = random.Random(2024)

    # exact linear algebra: rank-nullity and idempotence, 100 cases
    from helpers import random_qmatrix

    for _ in range(100):
        m = random_qmatrix(rng, rng.randint(1, 6), rng.randint(1, 7))
        r, _, red = rref(m)
        assert r + len(kernel_basis(m)) == m.cols
        assert rref(red)[2] == red

    # graded commutativity and associativity, 100 cases
    alg = FreeGCA([("a", 1), ("b", 2), ("c", 3), ("e", 4)])

    def random_hom(degree):
        basis = alg.basis_in_degree(degree)
        if not basis:
            return alg.zero()
        return alg.element({mm: Fraction(rng.randint(-3, 3)) for mm in basis})

    for _ in range(100):
        p = rng.randint(1, 5)
        q = rng.randint(1, 5)
        x, y = random_hom(p), random_hom(q)
        assert x * y == (-1) ** (p * q) * (y * x)
        z = random_hom(rng.randint(1, 4))
        assert (x * y) * z == x * (y * z)

    # d squared, Leibniz and Euler characteristic on random free models
    for _ in range(100):
        degs = [rng.randint(2, 4) for _ in range(3)]
        gca = FreeGCA([(f"g{i}", dg) for i, dg in enumerate(degs)])
        # differential: each generator maps into products of closed ones
        closed = [g.name for g in gca.generators[:2]]
        diff = {}
        last = gca.generators[2]
        candidates = [
            mono
            for mono in gca.basis_in_degree(last.degree + 1)
            if len(mono) < 3 and sum(mono) >= 2
        ]
        if candidates:
            diff[last.name] = gca.element({candidates[0]: Fraction(rng.randint(1, 3))})
        f = FreeCDGA(gca, diff)
        assert check_d_squared(f)[0]
        t = truncate(f, 6)
        assert t.validate() == dense_validate(truncate(f, 6)) == []
        h = cohomology_dims(t, 5)
        # Euler characteristic over a window closed under d at both ends
        for window in range(5, 0, -1):
            if t.d_matrix(window - 1).is_zero():
                chi_c = sum((-1) ** k * t.dims[k] for k in range(window))
                chi_h = sum((-1) ** k * h[k] for k in range(window))
                assert chi_c == chi_h
                break

    # pullback / fiber-product compatibility on random sign twists
    from test_localsys import odd_generator_fiber, sign_automorphism

    L = None
    for _ in range(100):
        deg = rng.randint(2, 4)
        fiber = odd_generator_fiber(deg, 5)
        e = constant_system(cycle_complex(3), fiber)
        edge = rng.choice(e.base.simplices_of_dim(1))
        face = rng.randint(0, 1)
        from cdgalab.localsys import twist_restriction

        tw = twist_restriction(e, edge, face, sign_automorphism(fiber, deg))
        assert validate(tw) == []
        u = {0: 0, 1: 1}
        LL = standard_complex(1)
        p = pullback(tw, u, LL)
        assert validate(p) == []
        ident = SystemMorphism(
            tw, tw, {s: DGMorphism.identity(tw.fibers[s]) for s in tw.base.all_simplices()}
        )
        fp_sys, carriers = fiber_product_system(ident, ident, 4)
        s0 = tw.base.all_simplices()[0]
        assert cohomology_dims(fp_sys.fibers[s0], 3) == cohomology_dims(fiber, 3)
        # pullback of the fiber product equals the fiber product of pullbacks
        pb_first = pullback(fp_sys, u, LL)
        ident_p = SystemMorphism(
            p, p, {s: DGMorphism.identity(p.fibers[s]) for s in p.base.all_simplices()}
        )
        fp_second, _ = fiber_product_system(ident_p, ident_p, 4)
        for s in LL.all_simplices():
            assert pb_first.fibers[s].dims == fp_second.fibers[s].dims
    del L
    verdict(11, "randomized property suites", t0, 60.0)
