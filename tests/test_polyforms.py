import gc
import random
from fractions import Fraction

import pytest

from cdgalab.errors import CutoffTooSmallError, InputError
from cdgalab.exactlin import ONE
from cdgalab.polyforms import (
    PolyForm,
    SimplicialComplexK,
    SimplicialForm,
    _df_in_f_times_forms,
    _exponents_upto,
    boundary_complex,
    check_admissible_axioms,
    contraction,
    cycle_complex,
    d,
    evaluate_at_vertex,
    extend,
    extend_to_simplex,
    face_restrict,
    face_restriction_matrices,
    form_basis,
    forms_dga,
    integrate,
    integration_cochain,
    random_polyform,
    random_simplicial_form,
    simplicial_coboundary,
    standard_complex,
)
from cdgalab.cdga import cohomology_dims

from helpers import full_zero_divisor_solve, pairwise_product, symbolic_face_restrict


# -- independent integration oracle ---------------------------------------

def _poly_mul(p, q, n):
    out = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {k: v for k, v in out.items() if v}


def _poly_integrate_last(p, n):
    """Integrate the last variable from 0 to 1 - t_1 - ... - t_{n-1}.

    Polynomials are exponent-dict maps on n variables; the result lives on
    n - 1 variables.  Upper-limit powers expand through the multinomial
    theorem computed by repeated polynomial multiplication.
    """
    # (1 - sum t_i) as a polynomial in the first n-1 variables
    upper = {tuple([0] * (n - 1)): Fraction(1)}
    for i in range(n - 1):
        e = tuple(1 if j == i else 0 for j in range(n - 1))
        upper[e] = Fraction(-1)
    out = {}
    upper_pows = {0: {tuple([0] * (n - 1)): Fraction(1)}}

    def upper_pow(k):
        if k not in upper_pows:
            upper_pows[k] = _poly_mul(upper_pow(k - 1), upper, n - 1)
        return upper_pows[k]

    for expo, c in p.items():
        a = expo[-1]
        rest = expo[:-1]
        for e2, c2 in upper_pow(a + 1).items():
            key = tuple(x + y for x, y in zip(rest, e2))
            out[key] = out.get(key, Fraction(0)) + c * c2 / (a + 1)
    return {k: v for k, v in out.items() if v}


def oracle_integral(expo, n):
    """Iterated 1-d integration of t^expo over the standard simplex."""
    p = {tuple(expo): Fraction(1)}
    for m in range(n, 0, -1):
        p = _poly_integrate_last(p, m)
    return p.get((), Fraction(0))


# -- construction and products ---------------------------------------------

def test_non_integer_exponents_and_dt_indices_are_rejected():
    with pytest.raises(InputError, match="integers"):
        PolyForm(1, {((1.5,), ()): 1})
    with pytest.raises(InputError, match="integers"):
        PolyForm(1, {((1.0,), ()): 1})
    with pytest.raises(InputError, match="integers"):
        PolyForm(2, {((1, 0), (True,)): 1})
    with pytest.raises(InputError, match="integers"):
        PolyForm(2, {((True, 0), ()): 1})


def _random_mixed_form(rng, n, total):
    """A seeded form with terms of several form degrees."""
    w = PolyForm.zero(n)
    for k in range(n + 1):
        if rng.random() < 0.7:
            w = w + random_polyform(rng, n, k, total)
    return w


def test_product_matches_pairwise_loop():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(0, 3)
        a, b = _random_mixed_form(rng, n, 3), _random_mixed_form(rng, n, 3)
        assert (a * b).terms == pairwise_product(a, b)


# -- d ----------------------------------------------------------------------

def test_d_of_coordinate():
    t1 = PolyForm.coordinate(1, 1)
    assert d(t1) == PolyForm.dcoordinate(1, 1)


def test_d_leibniz_product():
    t1 = PolyForm.coordinate(2, 1)
    t2 = PolyForm.coordinate(2, 2)
    lhs = d(t1 * t2)
    rhs = t2 * d(t1) + t1 * d(t2)
    assert lhs == rhs


def test_d_term_expansion():
    # d(t1^2 dt2) = 2 t1 dt1 dt2
    w = PolyForm(2, {((2, 0), (2,)): ONE})
    expect = PolyForm(2, {((1, 0), (1, 2)): Fraction(2)})
    assert d(w) == expect


def test_d_squared_zero_randomized():
    rng = random.Random(1)
    for _ in range(40):
        n = rng.randint(1, 3)
        w = random_polyform(rng, n, rng.randint(0, n), 4)
        assert d(d(w)).is_zero()


# -- face restriction ---------------------------------------------------------

def test_restrict_dt_to_vertex():
    w = PolyForm.dcoordinate(1, 1)
    assert face_restrict(w, 0).is_zero()
    assert face_restrict(w, 1).is_zero()


def test_restrict_t1_to_vertices():
    t1 = PolyForm.coordinate(1, 1)
    # facet 0 of the interval is the vertex 1 (t1 = 1)
    assert face_restrict(t1, 0) == PolyForm.constant(0, 1)
    assert face_restrict(t1, 1) == PolyForm.constant(0, 0)


def test_face_restrict_matches_symbolic_pullback_on_every_basis_key():
    cases = 0
    for n in range(1, 5):
        for k in range(n + 1):
            for key in form_basis(n, 6, k):
                unit = PolyForm(n, {key: ONE})
                for i in range(n + 1):
                    assert face_restrict(unit, i) == symbolic_face_restrict(unit, i), (key, i)
                    cases += 1
    assert cases == 8234
    # sums of terms, where restrictions can cancel
    rng = random.Random(8)
    for _ in range(30):
        n = rng.randint(1, 4)
        w = _random_mixed_form(rng, n, 4)
        for i in range(n + 1):
            assert face_restrict(w, i) == symbolic_face_restrict(w, i)


def test_simplicial_identities_randomized():
    rng = random.Random(2)
    for _ in range(25):
        w = random_polyform(rng, 3, rng.randint(0, 2), 3)
        for j in range(1, 4):
            for i in range(j):
                lhs = face_restrict(face_restrict(w, j), i)
                rhs = face_restrict(face_restrict(w, i), j - 1)
                assert lhs == rhs


def test_vertex_evaluation():
    t1 = PolyForm.coordinate(2, 1)
    assert evaluate_at_vertex(t1, 1) == 1
    assert evaluate_at_vertex(t1, 0) == 0
    assert evaluate_at_vertex(t1, 2) == 0


# -- integration ---------------------------------------------------------------

def test_integrate_volume_interval():
    assert integrate(PolyForm.dcoordinate(1, 1)) == 1


def test_integrate_t_dt():
    w = PolyForm.coordinate(1, 1) * PolyForm.dcoordinate(1, 1)
    assert integrate(w) == Fraction(1, 2)


def test_integrate_t1t2_on_triangle():
    w = PolyForm(2, {((1, 1), (1, 2)): ONE})
    assert integrate(w) == Fraction(1, 24)


def test_integrate_against_iterated_oracle():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 3)
        expo = tuple(rng.randint(0, 3) for _ in range(n))
        w = PolyForm(n, {(expo, tuple(range(1, n + 1))): ONE})
        assert integrate(w) == oracle_integral(expo, n)


def test_integrate_wrong_degree_rejected():
    with pytest.raises(InputError):
        integrate(PolyForm.coordinate(1, 1))


# -- contraction -----------------------------------------------------------

def test_contraction_dt1():
    h = contraction(PolyForm.dcoordinate(1, 1))
    assert h == PolyForm.coordinate(1, 1)
    w = PolyForm.dcoordinate(1, 1)
    assert d(contraction(w)) + contraction(d(w)) == w


def test_contraction_unit_is_zero():
    assert contraction(PolyForm.constant(2, 1)).is_zero()


def test_contraction_identity_randomized():
    rng = random.Random(4)
    for _ in range(60):
        n = rng.randint(1, 3)
        k = rng.randint(0, n)
        w = random_polyform(rng, n, k, 4)
        lhs = d(contraction(w)) + contraction(d(w))
        eps = PolyForm.constant(n, evaluate_at_vertex(w, 0)) if k == 0 else PolyForm.zero(n)
        assert lhs == w - eps


def test_closed_forms_are_exact_via_contraction():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 3)
        k = rng.randint(0, n - 1)
        w = d(random_polyform(rng, n, k, 4))
        if w.is_zero():
            continue
        assert d(contraction(w)) == w


# -- Stokes ------------------------------------------------------------------

def test_stokes_randomized():
    rng = random.Random(6)
    count = 0
    while count < 100:
        n = rng.randint(1, 3)
        w = random_polyform(rng, n, n - 1, 4)
        lhs = integrate(d(w))
        rhs = Fraction(0)
        for i in range(n + 1):
            rhs += (-1) ** i * integrate(face_restrict(w, i))
        assert lhs == rhs
        count += 1


def test_integration_cochain_intertwines_d_and_delta():
    K = standard_complex(2)
    rng = random.Random(7)
    fam = random_simplicial_form(rng, K, 0, 3)
    # delta of the 0-cochain of values equals the integral of d(fam) on edges
    vals = integration_cochain(fam, 0)
    dfam = fam.d()
    lhs = integration_cochain(dfam, 1)
    rhs = simplicial_coboundary(K, vals, 0)
    assert lhs == rhs


def test_integration_cochain_constant_function():
    K = cycle_complex(3)
    fam = SimplicialForm(
        K, {s: PolyForm.constant(len(s) - 1, 1) for s in K.all_simplices()}
    )
    vals = integration_cochain(fam, 0)
    assert all(v == 1 for v in vals.values())


# -- extension ---------------------------------------------------------------

def test_extend_constant():
    K = standard_complex(2)
    L = boundary_complex(2)
    fam = SimplicialForm(L, {s: PolyForm.constant(len(s) - 1, 1) for s in L.all_simplices()})
    full = extend(fam, K)
    assert full.restrict_to(L).forms == fam.forms
    assert full.forms[(0, 1, 2)].homogeneous_part(0) == PolyForm.constant(2, 1)


def test_extend_endpoint_values_on_interval():
    got = extend_to_simplex(
        1, {0: PolyForm.constant(0, 1), 1: PolyForm.constant(0, 0)}, 0
    )
    # facet 0 is the vertex with t1 = 1, facet 1 the vertex with t1 = 0
    assert face_restrict(got, 0) == PolyForm.constant(0, 1)
    assert face_restrict(got, 1) == PolyForm.constant(0, 0)


def test_extend_one_forms_on_triangle_boundary():
    rng = random.Random(8)
    L = boundary_complex(2)
    K = standard_complex(2)
    fam = random_simplicial_form(rng, L, 1, 3)
    full = extend(fam, K)
    assert full.restrict_to(L).forms == fam.forms
    assert full.check_compatible() == []


def test_extend_rejects_incompatible_family():
    L = boundary_complex(1)  # two vertices, no edge
    K = standard_complex(1)
    fam = SimplicialForm(
        L, {(0,): PolyForm.constant(0, 1), (1,): PolyForm.constant(0, 2)}
    )
    # both vertices prescribed: fine (no shared faces); now make a clash on
    # a triangle boundary where two edges disagree on the shared vertex
    full = extend(fam, K)
    assert evaluate_at_vertex(full.forms[(0, 1)], 0) == 1
    L2 = SimplicialComplexK.from_maximal([(0, 1), (1, 2)])
    e01 = extend_to_simplex(1, {0: PolyForm.constant(0, 1), 1: PolyForm.constant(0, 0)}, 0)
    e12 = extend_to_simplex(1, {0: PolyForm.constant(0, 5), 1: PolyForm.constant(0, 7)}, 0)
    bad = SimplicialForm(
        L2,
        {
            (0,): PolyForm.constant(0, 0),
            (1,): PolyForm.constant(0, 1),
            (2,): PolyForm.constant(0, 5),
            (0, 1): e01,
            (1, 2): e12,
        },
    )
    clashes = bad.check_compatible()
    assert clashes != []
    with pytest.raises(InputError):
        extend(bad, SimplicialComplexK.from_maximal([(0, 1), (1, 2), (0, 2)]))


# -- truncated forms DGA -----------------------------------------------------

def test_forms_dga_interval_dims():
    a = forms_dga(1, 2)
    # total degree <= 2: functions 1, t, t^2 and one-forms dt, t dt
    assert a.dims[0] == 3
    assert a.dims[1] == 2
    assert cohomology_dims(a, 1) == [1, 0]


def test_forms_dga_triangle_acyclic():
    a = forms_dga(2, 3)
    assert cohomology_dims(a, 2) == [1, 0, 0]


def test_forms_dga_levels_are_form_degrees():
    a = forms_dga(1, 2)
    assert set(a.levels[0]) == {0}
    assert set(a.levels[1]) == {1}


def test_forms_dga_tables_match_symbolic_construction():
    for n in range(4):
        for t in range(n, n + 3):
            alg = forms_dga(n, t)
            for i in range(alg.cutoff + 1):
                keys = alg.bases[i].keys
                units = [PolyForm(n, {key: ONE}) for key in keys]
                assert alg.labels[i] == [repr(u) for u in units]
                if i < alg.cutoff:
                    images = [d(u).terms for u in units]
                    assert alg.d_matrix(i) == alg.bases[i + 1].matrix(images)
                for j in range(alg.cutoff + 1 - i):
                    for a, ua in enumerate(units):
                        for b, kb in enumerate(alg.bases[j].keys):
                            ub = PolyForm(n, {kb: ONE})
                            expected = None
                            if ua.total_degree() + ub.total_degree() <= t:
                                expected = alg.bases[i + j].vector(pairwise_product(ua, ub))
                            try:
                                got = alg.product_basis(i, a, j, b)
                            except CutoffTooSmallError:
                                got = None
                            assert got == expected
            if n:
                face = forms_dga(n - 1, t)
                for f in range(n + 1):
                    for k, m in enumerate(face_restriction_matrices(alg, face, f)):
                        images = [symbolic_face_restrict(PolyForm(n, {key: ONE}), f).terms
                                  for key in alg.bases[k].keys]
                        assert m == face.bases[k].matrix(images)


def test_forms_dga_leibniz():
    a = forms_dga(2, 3)
    assert a.validate() == []


# -- admissibility -------------------------------------------------------------

def test_admissible_axioms_small():
    rep = check_admissible_axioms(2, sample_budget=8, seed=0)
    assert rep.ok(), rep.failures


def test_zero_divisor_instance_t1():
    # df = f*w with f = t1 on the interval has no polynomial solution w
    from cdgalab.exactlin import KeyedBasis, solve
    from cdgalab.polyforms import form_basis

    f = PolyForm.coordinate(1, 1)
    df = d(f)
    for wtotal in (2, 3, 4):
        target = KeyedBasis(form_basis(1, 1 + wtotal, 1))
        products = [(f * PolyForm(1, {key: ONE})).terms for key in form_basis(1, wtotal, 1)]
        assert solve(target.matrix(products), target.vector(df.terms)) is None


@pytest.mark.parametrize("n", [1, 2, 3])
def test_zero_divisor_solve_per_direction_matches_full_solve(n):
    # the sampled f of check_admissible_axioms, and a constant, where w = 0 solves df = f w
    rng = random.Random(n)
    fs = [PolyForm.constant(n, 3)]
    while len(fs) < 7:
        f = random_polyform(rng, n, 0, 3)
        f = f - PolyForm.constant(n, evaluate_at_vertex(f, 0))
        if not f.is_zero():
            fs.append(f)
    for f in fs:
        for wtotal in (f.total_degree(), f.total_degree() + 1):
            verdict = _df_in_f_times_forms(f, wtotal)
            assert verdict == full_zero_divisor_solve(f, wtotal) == (f.total_degree() == 0)


def test_exponent_listing_leaves_no_reference_cycles():
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert len(_exponents_upto(3, 4)) == 35
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
