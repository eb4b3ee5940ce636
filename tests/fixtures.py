"""Model builders shared by the test suite and the acceptance criteria."""

from fractions import Fraction

from cdgalab.cdga import FreeCDGA, TruncatedDGA, from_tables, point_dga, power_quotient_dga, truncate
from cdgalab.exactlin import QMatrix
from cdgalab.graded import FreeGCA


def torus_free() -> FreeCDGA:
    """Exterior algebra on two degree-1 generators, zero differential."""
    gca = FreeGCA([("t1", 1), ("t2", 1)])
    return FreeCDGA(gca, {})


def torus_model(cutoff: int = 3) -> TruncatedDGA:
    return truncate(torus_free(), cutoff)


def cp_model(n: int, cutoff: int | None = None) -> FreeCDGA:
    """Minimal model of complex projective n-space: (x, y), dy = x^{n+1}."""
    gca = FreeGCA([("x", 2), ("y", 2 * (n + 1) - 1)])
    x = gca.gen("x")
    dy = x
    for _ in range(n):
        dy = dy * x
    return FreeCDGA(gca, {"y": dy})


def sphere_even_model(cutoff: int = 7) -> TruncatedDGA:
    """Formal model of the 2-sphere: Q[x]/(x^2), |x| = 2."""
    return power_quotient_dga(2, 2, cutoff)


def cp2_formal(cutoff: int = 7) -> TruncatedDGA:
    """Formal model of CP^2: Q[x]/(x^3), |x| = 2."""
    return power_quotient_dga(2, 3, cutoff)


def sphere_odd_free(n: int) -> FreeCDGA:
    """Model of an odd sphere: one exterior generator, zero differential."""
    gca = FreeGCA([("z", n)])
    return FreeCDGA(gca, {})


def rational_point(cutoff: int = 7) -> TruncatedDGA:
    return point_dga(cutoff)


def wedge_of_2_spheres(spheres: int, cutoff: int) -> TruncatedDGA:
    """Cohomology of a wedge of 2-spheres: one class per sphere, all products zero."""
    dims = [1] + [0] * cutoff
    dims[2] = spheres
    zero, one = Fraction(0), Fraction(1)
    table = {}
    for i in range(cutoff + 1):
        for j in range(i, cutoff + 1 - i):
            for a in range(dims[i]):
                for b in range(dims[j]):
                    table[(i, a, j, b)] = tuple(
                        one if i == 0 and t == b else zero for t in range(dims[i + j])
                    )
    return from_tables(
        cutoff, dims, (one,), [QMatrix.zero(dims[k + 1], dims[k]) for k in range(cutoff)], table
    )
