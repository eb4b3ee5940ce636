import random
from fractions import Fraction

import pytest

from cdgalab.errors import InputError
from cdgalab.graded import FreeGCA, apply_odd_derivation

from helpers import poly_series_coefficient


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
    assert alg.basis_in_degree(6) == [(3, 0)]


def test_basis_degree_zero_is_unit():
    alg = cp_like()
    assert alg.basis_in_degree(0) == [(0, 0)]


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
