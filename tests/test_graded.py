import gc
import random
import weakref
from fractions import Fraction
from itertools import product

import pytest

from cdgalab.errors import InputError
from cdgalab.graded import FreeGCA, apply_odd_derivation, derive_monomial

from helpers import loop_derive_monomial, loop_mono_mul, poly_series_coefficient, symbolic_odd_derivation, trimmed


def exterior_two():
    return FreeGCA([("t1", 1), ("t2", 1)])


def cp_like():
    return FreeGCA([("x", 2), ("y", 3)])


def random_element(rng, alg, max_degree=6, nterms=3):
    terms = {}
    degrees = [n for n in range(0, max_degree + 1) if alg.basis_in_degree(n)]
    for _ in range(nterms):
        n = rng.choice(degrees)
        mono = rng.choice(alg.basis_in_degree(n))
        terms[mono] = terms.get(mono, 0) + Fraction(rng.randint(-3, 3))
    return alg.element(terms)


def random_homogeneous(rng, alg, degree):
    basis = alg.basis_in_degree(degree)
    if not basis:
        return alg.zero()
    return alg.element({m: Fraction(rng.randint(-3, 3)) for m in basis})


def test_odd_square_is_zero():
    alg = cp_like()
    y = alg.gen("y")
    assert (y * y).is_zero()


def test_koszul_sign_degree_one():
    alg = exterior_two()
    t1, t2 = alg.gen("t1"), alg.gen("t2")
    assert t2 * t1 == -(t1 * t2)


def test_associativity_instance():
    alg = FreeGCA([("xbar", 1), ("x", 2), ("y", 3)])
    xbar, x, y = alg.gen("xbar"), alg.gen("x"), alg.gen("y")
    assert (xbar * x) * y == xbar * (x * y)


def test_mismatched_algebras_rejected():
    a, b = exterior_two(), exterior_two()
    with pytest.raises(InputError):
        a.gen("t1") * b.gen("t2")  # noqa: B018


def test_basis_single_even_generator():
    alg = FreeGCA([("x", 2)])
    assert alg.basis_in_degree(4) == [(2,)]
    assert alg.basis_in_degree(3) == []


def test_basis_exterior_degree_two():
    alg = exterior_two()
    assert alg.basis_in_degree(2) == [(1, 1)]


def test_basis_cp_degrees():
    alg = cp_like()
    assert alg.basis_in_degree(5) == [(1, 1)]
    assert alg.basis_in_degree(6) == [(3,)]


def test_basis_degree_zero_is_unit():
    alg = cp_like()
    assert alg.basis_in_degree(0) == [()]


def test_degree_zero_generators_banned():
    with pytest.raises(InputError):
        FreeGCA([("t", 0)])


def test_graded_commutativity_randomized():
    rng = random.Random(23)
    alg = FreeGCA([("a", 1), ("b", 2), ("c", 3), ("d", 2)])
    for _ in range(100):
        p = rng.randint(1, 5)
        q = rng.randint(1, 5)
        x = random_homogeneous(rng, alg, p)
        y = random_homogeneous(rng, alg, q)
        sign = (-1) ** (p * q)
        assert x * y == sign * (y * x)


def test_associativity_and_distributivity_randomized():
    rng = random.Random(29)
    alg = FreeGCA([("a", 1), ("b", 1), ("x", 2), ("z", 3)])
    for _ in range(100):
        u = random_element(rng, alg)
        v = random_element(rng, alg)
        w = random_element(rng, alg)
        assert (u * v) * w == u * (v * w)
        assert u * (v + w) == u * v + u * w


def test_dimensions_match_generating_function():
    alg = FreeGCA([("a", 1), ("x", 2), ("z", 3), ("w", 4), ("c", 5)])
    evens = [2, 4]
    odds = [1, 3, 5]
    for n in range(0, 13):
        expected = poly_series_coefficient(evens, odds, n)
        assert len(alg.basis_in_degree(n)) == expected


def test_odd_derivation_rule():
    # s with s(x)=xbar, s(y)=ybar on a degree-2/degree-3 pair
    alg = FreeGCA([("x", 2), ("y", 3), ("xbar", 1), ("ybar", 2)])
    x, y = alg.gen("x"), alg.gen("y")
    xbar, ybar = alg.gen("xbar"), alg.gen("ybar")
    images = {"x": xbar, "y": ybar, "xbar": alg.zero(), "ybar": alg.zero()}
    # s(x^2) = 2 x xbar (even prefix, no sign)
    assert apply_odd_derivation(images, x * x) == 2 * (x * xbar)
    # s(y x) = ybar x - y ... y has odd degree so the x-term gets a minus
    assert apply_odd_derivation(images, y * x) == ybar * x - y * xbar


# -- key-level arithmetic against the loop and symbolic references ------------

MIXED_ORDERS = [(3, 2, 1, 4, 3), (1, 1, 2, 3), (4, 2, 2, 5, 1), (2, 3), (3, 2, 5, 1, 4, 3)]


def mixed_algebra(degrees):
    return FreeGCA([(f"g{i}", d) for i, d in enumerate(degrees)])


def brute_force_basis(alg, n):
    ranges = [range(2) if d % 2 else range(n // d + 1) for d in alg.degrees]
    found = [trimmed(m) for m in product(*ranges) if alg.mono_degree(m) == n]
    return sorted(found, reverse=True)


@pytest.mark.parametrize("degrees", MIXED_ORDERS)
def test_basis_matches_brute_force(degrees):
    alg = mixed_algebra(degrees)
    for n in range(0, 13):
        assert alg.basis_in_degree(n) == brute_force_basis(alg, n)


def test_a_dropped_algebra_is_freed_by_reference_counting():
    enabled = gc.isenabled()
    gc.disable()
    try:
        alg = FreeGCA([("a", 2), ("b", 3), ("c", 4)])
        assert alg.basis_in_degree(8)
        ref = weakref.ref(alg)
        del alg
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("degrees", MIXED_ORDERS)
def test_mono_mul_matches_loop(degrees):
    alg = mixed_algebra(degrees)
    monos = [m for n in range(0, 9) for m in alg.basis_in_degree(n)]
    for a in monos:
        for b in monos:
            assert alg.mono_mul(a, b) == loop_mono_mul(alg, a, b)


def random_images(rng, alg, shift):
    """Random homogeneous images of degree |g| + shift for every generator."""
    return {
        g.name: random_homogeneous(rng, alg, g.degree + shift) if g.degree + shift >= 0 else alg.zero()
        for g in alg.generators
    }


@pytest.mark.parametrize("degrees", MIXED_ORDERS)
@pytest.mark.parametrize("shift", [1, -1])
def test_derivation_matches_symbolic_oracle(degrees, shift):
    rng = random.Random(sum(degrees) * 10 + shift)
    alg = mixed_algebra(degrees)
    for _ in range(40):
        images = random_images(rng, alg, shift)
        x = random_element(rng, alg, max_degree=9, nterms=4)
        assert apply_odd_derivation(images, x) == symbolic_odd_derivation(images, x)


def test_loop_space_derivation_matches_symbolic_oracle():
    # s(v) = +-vbar and s(vbar) = 0, the degree -1 derivation of loop_model
    alg = FreeGCA([("x", 2), ("y", 3), ("z", 4), ("x_bar", 1), ("y_bar", 2), ("z_bar", 3)])
    images = {}
    for name in ("x", "y", "z"):
        sign = 1 if alg.degrees[alg.index[name]] % 2 == 0 else -1
        images[name] = sign * alg.gen(name + "_bar")
        images[name + "_bar"] = alg.zero()
    rng = random.Random(41)
    for _ in range(60):
        x = random_element(rng, alg, max_degree=10, nterms=5)
        assert apply_odd_derivation(images, x) == symbolic_odd_derivation(images, x)


@pytest.mark.parametrize("degrees", MIXED_ORDERS)
def test_derive_monomial_matches_the_padded_loop(degrees):
    # basis keys have every length up to the number of generators
    rng = random.Random(sum(degrees) * 7)
    alg = mixed_algebra(degrees)
    monos = [m for n in range(0, 10) for m in alg.basis_in_degree(n)]
    assert len({len(m) for m in monos}) == alg.ngens + 1
    for _ in range(4):
        images = random_images(rng, alg, 1)
        for mono in monos:
            assert derive_monomial(images, alg, mono) == loop_derive_monomial(images, alg, mono)


def test_element_trims_padded_keys_and_rejects_longer_ones():
    alg = cp_like()
    assert alg.element({(1, 0): 2, (0, 0): 1}).terms == {(1,): 2, (): 1}
    assert alg.gen("x").terms == {(1,): 1} and alg.one().terms == {(): 1}
    assert alg.element({(1, 0): 1}) == alg.element({(1,): 1})
    for bad in [(1, 0, 0), (0, 2), (-1,)]:
        with pytest.raises(InputError, match="invalid monomial"):
            alg.element({bad: 1})


def test_derive_monomial_checks_images():
    alg = cp_like()
    other = cp_like()
    mono = alg.generator_monomial("y")
    with pytest.raises(InputError, match="no derivation image"):
        derive_monomial({"x": alg.zero()}, alg, mono)
    with pytest.raises(InputError, match="algebra of x"):
        derive_monomial({"x": alg.zero(), "y": other.gen("x")}, alg, mono)
    # a generator absent from the monomial needs no image
    assert derive_monomial({"y": alg.gen("x") * alg.gen("x")}, alg, mono) == {(2,): 1}
