"""Polynomial differential forms on standard simplices.

Coordinates on the n-simplex are t_1, ..., t_n with t_0 = 1 - sum t_i
eliminated.  A form is a rational combination of terms t^a dt_S where a is an
exponent vector and S an ascending tuple of coordinate indices; the degree of
a term is |S| and its *total degree* is |a| + |S|.  Total degree is the
truncation parameter used when a finite basis is required: the exterior
derivative, the cone contraction and face restrictions all preserve or lower
it, so truncated models keep their cohomology honest.

Face restrictions and products act on term keys by closed-form rules: facet 0
expands (1 - sum u_k)^a by multinomial coefficients, other facets relabel, and
a product adds exponents and signs the shuffle of its dt indices.

The module also provides finite ordered simplicial complexes, compatible
families of forms over them, exact simplex integration, the contraction
witnessing acyclicity, extension of compatible boundary data and the
admissibility report used by the test suites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, prod
from operator import add
from typing import Iterable, Mapping, Optional, Sequence

from .cdga import TruncatedDGA
from .errors import CutoffTooSmallError, InputError
from .exactlin import (
    ONE,
    KeyedBasis,
    QMatrix,
    Vector,
    ZERO,
    kernel_basis,
    rat,
    solve,
    solve_many,
)

Expo = tuple[int, ...]
Dts = tuple[int, ...]  # ascending coordinate indices, each in 1..n
TermKey = tuple[Expo, Dts]


class PolyForm:
    """Polynomial differential form on the standard n-simplex."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Optional[Mapping[TermKey, Fraction]] = None):
        if n < 0:
            raise InputError("simplex dimension must be non-negative")
        self.n = n
        data: dict[TermKey, Fraction] = {}
        if terms:
            for (expo, dts), c in terms.items():
                expo, dts = tuple(expo), tuple(dts)
                if any(isinstance(x, bool) or not isinstance(x, int) for x in expo + dts):
                    raise InputError(f"term key {(expo, dts)} must hold integers")
                if len(expo) != n or any(e < 0 for e in expo):
                    raise InputError(f"bad exponent vector {expo} on a {n}-simplex")
                if list(dts) != sorted(set(dts)) or any(not 1 <= s <= n for s in dts):
                    raise InputError(f"bad dt index tuple {dts} on a {n}-simplex")
                fc = rat(c)
                if fc != 0:
                    key = (expo, dts)
                    data[key] = data.get(key, ZERO) + fc
        self.terms = {k: v for k, v in data.items() if v != 0}

    # -- constructors ------------------------------------------------------
    @classmethod
    def _of(cls, n: int, data: dict[TermKey, Fraction]) -> "PolyForm":
        """A form on coefficients known to be nonzero and on valid keys, unchecked."""
        out = cls.__new__(cls)
        out.n = n
        out.terms = data
        return out

    @classmethod
    def zero(cls, n: int) -> "PolyForm":
        return cls(n, {})

    @classmethod
    def constant(cls, n: int, c) -> "PolyForm":
        return cls(n, {((0,) * n, ()): rat(c)})

    @classmethod
    def coordinate(cls, n: int, i: int) -> "PolyForm":
        """The barycentric coordinate t_i, 1 <= i <= n (t_0 is eliminated)."""
        if not 1 <= i <= n:
            raise InputError(f"coordinate index {i} out of range 1..{n}")
        expo = tuple(1 if j == i - 1 else 0 for j in range(n))
        return cls(n, {(expo, ()): ONE})

    @classmethod
    def dcoordinate(cls, n: int, i: int) -> "PolyForm":
        if not 1 <= i <= n:
            raise InputError(f"coordinate index {i} out of range 1..{n}")
        return cls(n, {((0,) * n, (i,)): ONE})

    # -- structure ----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def form_degrees(self) -> set[int]:
        return {len(dts) for _, dts in self.terms}

    def degree(self) -> Optional[int]:
        degs = self.form_degrees()
        if not degs:
            return None
        if len(degs) > 1:
            raise InputError(f"form is not homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    def homogeneous_part(self, k: int) -> "PolyForm":
        return PolyForm(self.n, {key: c for key, c in self.terms.items() if len(key[1]) == k})

    def total_degree(self) -> int:
        return max((sum(e) + len(s) for (e, s) in self.terms), default=0)

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyForm) and self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.terms.items()))))

    def __add__(self, other: "PolyForm") -> "PolyForm":
        if self.n != other.n:
            raise InputError("forms on different simplices")
        data = dict(self.terms)
        for k, c in other.terms.items():
            v = data.get(k, ZERO) + c
            if v:
                data[k] = v
            elif k in data:
                del data[k]
        return PolyForm._of(self.n, data)

    def __neg__(self) -> "PolyForm":
        return PolyForm._of(self.n, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "PolyForm") -> "PolyForm":
        return self + (-other)

    def scale(self, c) -> "PolyForm":
        c = rat(c)
        return PolyForm._of(self.n, {k: c * v for k, v in self.terms.items()} if c else {})

    def __rmul__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if self.n != other.n:
            raise InputError("forms on different simplices")
        data: dict[TermKey, Fraction] = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                pair = _key_product(ka, kb)
                if pair is None:
                    continue
                key, sign = pair
                v = data.get(key, ZERO) + sign * ca * cb
                if v:
                    data[key] = v
                elif key in data:
                    del data[key]
        return PolyForm._of(self.n, data)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for (expo, dts) in sorted(self.terms):
            c = self.terms[(expo, dts)]
            bits = []
            for i, e in enumerate(expo):
                if e == 1:
                    bits.append(f"t{i + 1}")
                elif e > 1:
                    bits.append(f"t{i + 1}^{e}")
            bits.extend(f"dt{s}" for s in dts)
            body = "*".join(bits) if bits else "1"
            parts.append(f"({c})*{body}" if c != 1 or not bits else body)
        return " + ".join(parts)


def _key_product(ka: TermKey, kb: TermKey) -> Optional[tuple[TermKey, int]]:
    """The product of two unit terms as ``(key, sign)``; None when the dt sets meet."""
    (ea, sa), (eb, sb) = ka, kb
    if not set(sa).isdisjoint(sb):
        return None
    # sign of sorting the concatenation sa + sb ascending
    inversions = sum(1 for x in sa for y in sb if x > y)
    key = (tuple(x + y for x, y in zip(ea, eb)), tuple(sorted(sa + sb)))
    return key, -1 if inversions % 2 else 1


# ---------------------------------------------------------------------------
# calculus
# ---------------------------------------------------------------------------

def d(omega: PolyForm) -> PolyForm:
    """Exterior derivative; satisfies d(d(w)) = 0 and the Leibniz rule."""
    n = omega.n
    data: dict[TermKey, Fraction] = {}
    for (expo, dts), c in omega.terms.items():
        used = set(dts)
        for i in range(n):
            e = expo[i]
            if e == 0 or (i + 1) in used:
                continue
            new_expo = tuple(x - 1 if j == i else x for j, x in enumerate(expo))
            pos = sum(1 for s in dts if s < i + 1)
            sign = -1 if pos % 2 else 1
            key = (new_expo, tuple(sorted(dts + (i + 1,))))
            v = data.get(key, ZERO) + sign * e * c
            if v:
                data[key] = v
            elif key in data:
                del data[key]
    return PolyForm._of(n, data)


def _restrict_key(n: int, key: TermKey, i: int) -> dict[TermKey, Fraction]:
    """Integral coefficients, by key, of the unit term ``key`` restricted to facet i.

    Facet i >= 1 sets t_i = 0 and relabels; facet 0 sets t_1 = 1 - sum u_k,
    expanded by multinomial coefficients, and dt_1 = -sum du_k, each du_k
    carrying the sign of its shuffle into the shifted dt indices.
    """
    expo, dts = key
    if i:
        if expo[i - 1] or i in dts:
            return {}
        return {(expo[: i - 1] + expo[i:], tuple(s - 1 if s > i else s for s in dts)): ONE}
    m = n - 1
    if dts and dts[0] == 1:
        rest = tuple(s - 1 for s in dts[1:])
        wedges = [
            (tuple(sorted(rest + (k,))), 1 if sum(s < k for s in rest) % 2 else -1)
            for k in range(1, m + 1)
            if k not in rest
        ]
    else:
        wedges = [(tuple(s - 1 for s in dts), 1)]
    a, tail = expo[0], expo[1:]
    out: dict[TermKey, Fraction] = {}
    for b in _exponents_upto(m, a):
        c = (-1) ** sum(b) * factorial(a) // (factorial(a - sum(b)) * prod(map(factorial, b)))
        new_expo = tuple(x + y for x, y in zip(b, tail))
        for new_dts, sign in wedges:
            out[(new_expo, new_dts)] = Fraction(sign * c)
    return out


def face_restrict(omega: PolyForm, i: int) -> PolyForm:
    """Restrict a form on the n-simplex to its i-th facet (0 <= i <= n)."""
    n = omega.n
    if not 0 <= i <= n:
        raise InputError(f"face index {i} out of range 0..{n}")
    if n == 0:
        raise InputError("a point has no facets")
    data: dict[TermKey, Fraction] = {}
    for key, c in omega.terms.items():
        for k, r in _restrict_key(n, key, i).items():
            v = data.get(k, ZERO) + r * c
            if v:
                data[k] = v
            elif k in data:
                del data[k]
    return PolyForm._of(n - 1, data)


def evaluate_at_vertex(omega: PolyForm, v: int) -> Fraction:
    """Value of the 0-form part at vertex v of the simplex."""
    n = omega.n
    if not 0 <= v <= n:
        raise InputError("vertex index out of range")
    total = ZERO
    for (expo, dts), c in omega.terms.items():
        # vertex v > 0 has t_v = 1 and the other coordinates 0; vertex 0 has all of them 0
        if not dts and all(e == 0 or j == v - 1 for j, e in enumerate(expo)):
            total += c
    return total


def integrate(omega: PolyForm) -> Fraction:
    """Exact integral of a top-degree form over the standard simplex.

    Uses the Dirichlet formula
    int t_1^{a_1} ... t_n^{a_n} dt_1...dt_n = a_1! ... a_n! / (|a| + n)!.
    """
    n = omega.n
    degs = omega.form_degrees()
    if degs and degs != {n}:
        raise InputError(f"integrate expects a pure {n}-form on the {n}-simplex")
    top = tuple(range(1, n + 1))
    total = ZERO
    for (expo, dts), c in omega.terms.items():
        if dts != top:
            continue
        total += c * Fraction(prod(map(factorial, expo)), factorial(sum(expo) + n))
    return total


def contraction(omega: PolyForm) -> PolyForm:
    """Cone contraction toward vertex 0.

    Satisfies d(h(w)) + h(d(w)) = w - eps(w), where eps evaluates the
    0-form part at vertex 0 and kills positive degrees.  On a closed form of
    positive degree, d(h(w)) = w, which exhibits acyclicity.
    """
    n = omega.n
    data: dict[TermKey, Fraction] = {}
    for (expo, dts), c in omega.terms.items():
        k = len(dts)
        if k == 0:
            continue
        weight = Fraction(1, sum(expo) + k)
        for pos, s in enumerate(dts):
            sign = -1 if pos % 2 else 1
            new_expo = tuple(e + 1 if j == s - 1 else e for j, e in enumerate(expo))
            key = (new_expo, tuple(x for x in dts if x != s))
            v = data.get(key, ZERO) + sign * weight * c
            if v:
                data[key] = v
            elif key in data:
                del data[key]
    return PolyForm._of(n, data)


# ---------------------------------------------------------------------------
# bases of truncated form spaces
# ---------------------------------------------------------------------------

def _exponents_upto(n: int, bound: int) -> list[Expo]:
    out: list[Expo] = []
    expo = [0] * n

    def rec(i: int, left: int):
        if i == n:
            out.append(tuple(expo))
            return
        for e in range(left + 1):
            expo[i] = e
            rec(i + 1, left - e)
        expo[i] = 0

    rec(0, bound)
    del rec  # it holds itself through its closure cell; unbinding it breaks the cycle
    out.sort()
    return out


def _subsets(n: int, k: int) -> list[Dts]:
    return [tuple(c) for c in combinations(range(1, n + 1), k)]


def form_basis(n: int, total_degree: int, k: int) -> list[TermKey]:
    """Basis of k-forms of total degree <= total_degree on the n-simplex."""
    if k < 0 or k > n or total_degree < k:
        return []
    keys = []
    for dts in _subsets(n, k):
        for expo in _exponents_upto(n, total_degree - k):
            keys.append((expo, dts))
    keys.sort()
    return keys


def vector_to_form(n: int, basis: Sequence[TermKey], v: Vector) -> PolyForm:
    return PolyForm(n, {key: c for key, c in zip(basis, v) if c != 0})


class FormsDGA(TruncatedDGA):
    """Polynomial forms on the ``simplex_dim``-simplex; ``bases`` hold term keys."""

    __slots__ = ("simplex_dim",)

    def __init__(self, simplex_dim: int, *args, **kw):
        super().__init__(*args, **kw)
        self.simplex_dim = simplex_dim


def forms_dga(n: int, total_degree: int, cutoff: Optional[int] = None) -> FormsDGA:
    """Polynomial forms on the n-simplex, truncated by total degree.

    Every homogeneous piece kept is complete, so the truncated complex is
    still acyclic in positive degrees; products whose total degree would
    exceed the truncation are dropped and flagged.  The filtration level of a
    basis form is its form degree.
    """
    if total_degree < n:
        raise InputError("the total degree must be at least the simplex dimension")
    if cutoff is None:
        cutoff = n + 1
    if cutoff < 0:
        raise InputError("cutoff must be non-negative")
    bases = [KeyedBasis(form_basis(n, total_degree, k)) for k in range(cutoff + 1)]
    diff_mats = [
        bases[k + 1].matrix([d(PolyForm._of(n, {key: ONE})).terms for key in bases[k].keys])
        for k in range(cutoff)
    ]

    def mult_fn(i, a, j, b):
        ka, kb = bases[i].keys[a], bases[j].keys[b]
        if sum(ka[0]) + sum(kb[0]) + i + j > total_degree:
            return None
        pair = _key_product(ka, kb)
        if pair is None:
            return ()
        key, sign = pair
        return ((bases[i + j].index[key], ONE if sign > 0 else -ONE),)

    return FormsDGA(
        n,
        cutoff,
        [len(basis) for basis in bases],
        bases[0].vector({((0,) * n, ()): ONE}),
        diff_mats,
        mult_fn,
        labels=lambda: [[repr(PolyForm._of(n, {key: ONE})) for key in basis.keys] for basis in bases],
        levels=[[len(key[1]) for key in basis.keys] for basis in bases],
        bases=bases,
        check=False,
        name=f"A({n};{total_degree})",
    )


def _restrictions(
    n: int, keys: Sequence[TermKey], target: KeyedBasis, faces: Sequence[int]
) -> QMatrix:
    """Restrictions of the forms ``keys`` to each listed facet, stacked by facet."""
    rows = len(target)
    entries: dict[tuple[int, int], Fraction] = {}
    for f, i in enumerate(faces):
        block = target.matrix([_restrict_key(n, key, i) for key in keys])
        entries.update(((f * rows + r, c), x) for (r, c), x in block.entries.items())
    return QMatrix._of(len(faces) * rows, len(keys), entries)


def face_restriction_matrices(src: TruncatedDGA, tgt: TruncatedDGA, i: int) -> list[QMatrix]:
    """Matrices of the i-th face restriction between forms_dga instances."""
    if not (isinstance(src, FormsDGA) and isinstance(tgt, FormsDGA)):
        raise InputError("face restrictions run between simplex forms algebras")
    n = src.simplex_dim
    if tgt.simplex_dim != n - 1:
        raise InputError("face restriction must drop the simplex dimension by one")
    return [
        _restrictions(n, src.bases[k].keys, tgt.bases[k], [i])
        for k in range(min(src.cutoff, tgt.cutoff) + 1)
    ]


# ---------------------------------------------------------------------------
# finite ordered simplicial complexes
# ---------------------------------------------------------------------------

Simplex = tuple[int, ...]


@dataclass(frozen=True)
class SimplicialComplexK:
    """Downward-closed family of ordered vertex tuples."""

    vertices: tuple[int, ...]
    simplices: frozenset[Simplex]

    @classmethod
    def from_maximal(cls, maximal: Iterable[Sequence[int]]) -> "SimplicialComplexK":
        simplices: set[Simplex] = set()
        verts: set[int] = set()
        for s in maximal:
            s = tuple(sorted(set(s)))
            if not s:
                raise InputError("empty simplex")
            verts.update(s)
            for k in range(1, len(s) + 1):
                for face in combinations(s, k):
                    simplices.add(tuple(face))
        return cls(tuple(sorted(verts)), frozenset(simplices))

    def __post_init__(self):
        for s in self.simplices:
            if list(s) != sorted(set(s)):
                raise InputError(f"simplex {s} is not an ordered vertex tuple")
            for v in s:
                if v not in self.vertices:
                    raise InputError(f"simplex {s} uses unknown vertex {v}")
            if len(s) > 1:
                for face in combinations(s, len(s) - 1):
                    if tuple(face) not in self.simplices:
                        raise InputError(f"face {face} of {s} is missing")

    def dim(self) -> int:
        return max((len(s) - 1 for s in self.simplices), default=-1)

    def simplices_of_dim(self, k: int) -> list[Simplex]:
        return sorted(s for s in self.simplices if len(s) == k + 1)

    def all_simplices(self) -> list[Simplex]:
        return sorted(self.simplices, key=lambda s: (len(s), s))

    def facets(self, s: Simplex) -> list[tuple[int, Simplex]]:
        """(face index i, facet with vertex i removed) pairs."""
        if len(s) == 1:
            return []
        return [(i, s[:i] + s[i + 1 :]) for i in range(len(s))]

    def contains(self, s: Sequence[int]) -> bool:
        return tuple(s) in self.simplices

    def is_subcomplex_of(self, other: "SimplicialComplexK") -> bool:
        return self.simplices <= other.simplices


def standard_complex(n: int) -> SimplicialComplexK:
    return SimplicialComplexK.from_maximal([tuple(range(n + 1))])


def boundary_complex(n: int) -> SimplicialComplexK:
    full = tuple(range(n + 1))
    return SimplicialComplexK.from_maximal(
        [full[:i] + full[i + 1 :] for i in range(n + 1)]
    )


def cycle_complex(k: int) -> SimplicialComplexK:
    """A k-vertex combinatorial circle (k >= 3)."""
    if k < 3:
        raise InputError("a combinatorial circle needs at least 3 vertices")
    edges = [(i, i + 1) for i in range(k - 1)] + [(0, k - 1)]
    return SimplicialComplexK.from_maximal(edges)


@dataclass
class SimplicialForm:
    """Compatible family of polynomial forms over a simplicial complex."""

    base: SimplicialComplexK
    forms: dict[Simplex, PolyForm]

    def __post_init__(self):
        for s, w in self.forms.items():
            if not self.base.contains(s):
                raise InputError(f"form assigned to a simplex {s} outside the complex")
            if w.n != len(s) - 1:
                raise InputError(f"form on {s} lives on the wrong simplex dimension")

    def check_compatible(self) -> list[str]:
        bad = []
        for s, w in self.forms.items():
            for i, face in self.base.facets(s):
                if face in self.forms and face_restrict(w, i) != self.forms[face]:
                    bad.append(f"restriction of {s} to facet {i} disagrees with {face}")
        return bad

    def degree(self) -> Optional[int]:
        degs = set()
        for w in self.forms.values():
            degs |= w.form_degrees()
        if not degs:
            return None
        if len(degs) > 1:
            raise InputError("family is not homogeneous")
        return degs.pop()

    def d(self) -> "SimplicialForm":
        return SimplicialForm(self.base, {s: d(w) for s, w in self.forms.items()})

    def restrict_to(self, sub: SimplicialComplexK) -> "SimplicialForm":
        if not sub.is_subcomplex_of(self.base):
            raise InputError("not a subcomplex")
        return SimplicialForm(sub, {s: self.forms[s] for s in sub.all_simplices()})


def integration_cochain(omega: SimplicialForm, k: int) -> dict[Simplex, Fraction]:
    """Integrate a degree-k family over every k-simplex of the base."""
    if omega.degree() not in (None, k):
        raise InputError(f"family has degree {omega.degree()}, expected {k}")
    out = {}
    for s in omega.base.simplices_of_dim(k):
        out[s] = integrate(omega.forms[s])
    return out


def simplicial_coboundary(base: SimplicialComplexK, cochain: Mapping[Simplex, Fraction], k: int) -> dict[Simplex, Fraction]:
    """delta c (sigma) = sum_i (-1)^i c(d_i sigma) on (k+1)-simplices."""
    out = {}
    for s in base.simplices_of_dim(k + 1):
        total = ZERO
        for i, face in base.facets(s):
            total += (-1) ** i * cochain.get(face, ZERO)
        out[s] = total
    return out


# ---------------------------------------------------------------------------
# extension of compatible boundary data
# ---------------------------------------------------------------------------

# how far above the faces' total degree extend_to_simplex searches
_EXTRA_DEGREE_TRIES = 6


def extend_to_simplex(n: int, faces: Mapping[int, PolyForm], degree: int) -> PolyForm:
    """A degree-``degree`` form on the n-simplex with prescribed facets.

    ``faces`` maps facet indices to forms on the (n-1)-simplex; the family
    must be compatible (pairwise agreeing on shared faces).  The solution is
    found by exact linear solve over bases of increasing total degree; the
    returned form is the deterministic particular solution.
    """
    if not faces:
        return PolyForm.zero(n)
    for i, w in faces.items():
        if not 0 <= i <= n:
            raise InputError(f"facet index {i} out of range")
        if w.n != n - 1:
            raise InputError("facet form lives on the wrong simplex")
        if not w.is_zero() and w.degree() != degree:
            raise InputError("facet forms must be homogeneous of the requested degree")
    if n >= 2:
        for i in sorted(faces):
            for j in sorted(faces):
                if i < j:
                    left = face_restrict(faces[j], i)
                    right = face_restrict(faces[i], j - 1)
                    if left != right:
                        raise InputError(
                            f"incompatible facet family: faces {i} and {j} disagree"
                        )
    base_degree = max(max((w.total_degree() for w in faces.values()), default=0), degree)
    target = KeyedBasis(form_basis(n - 1, base_degree + _EXTRA_DEGREE_TRIES, degree))
    # one block of restriction equations per constrained facet
    rhs = tuple(x for i in sorted(faces) for x in target.vector(faces[i].terms))
    for bump in range(_EXTRA_DEGREE_TRIES + 1):
        basis = form_basis(n, base_degree + bump, degree)
        sol = solve(_restrictions(n, basis, target, sorted(faces)), rhs)
        if sol is not None:
            return vector_to_form(n, basis, sol)
    raise CutoffTooSmallError(
        f"no polynomial extension found of total degree at most {base_degree + _EXTRA_DEGREE_TRIES}"
    )


def extension_kernel(n: int, degree: int, total: int, constrained: Sequence[int]) -> list[PolyForm]:
    """Forms of the given degree vanishing on the constrained facets."""
    basis = form_basis(n, total, degree)
    target = KeyedBasis(form_basis(n - 1, total, degree))
    m = _restrictions(n, basis, target, sorted(constrained))
    return [vector_to_form(n, basis, v) for v in kernel_basis(m)]


def extend(omega: SimplicialForm, target: SimplicialComplexK) -> SimplicialForm:
    """Extend a compatible family from a subcomplex to the whole complex.

    Simplices are processed in increasing dimension; each new simplex gets a
    form solving the facet constraints already assigned.  The restriction of
    the output to the source subcomplex is exactly the input.
    """
    if not omega.base.is_subcomplex_of(target):
        raise InputError("the family must live on a subcomplex of the target")
    clashes = omega.check_compatible()
    if clashes:
        raise InputError("incompatible input family: " + "; ".join(clashes))
    degree = omega.degree()
    forms: dict[Simplex, PolyForm] = dict(omega.forms)
    for s in target.all_simplices():
        if s in forms:
            continue
        n = len(s) - 1
        if degree is None:
            forms[s] = PolyForm.zero(n)
            continue
        faces = {}
        for i, face in target.facets(s):
            if face in forms:
                faces[i] = forms[face]
        forms[s] = extend_to_simplex(n, faces, degree)
    return SimplicialForm(target, forms)


# ---------------------------------------------------------------------------
# admissibility report
# ---------------------------------------------------------------------------

@dataclass
class AdmissibilityReport:
    axiom_unit_dimension_zero: bool = True
    axiom_polynomial_exterior_split: bool = True
    axiom_acyclicity: bool = True
    axiom_extendability: bool = True
    axiom_no_zero_divisor_equation: bool = True
    samples: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    def ok(self) -> bool:
        return not self.failures


def random_polyform(rng, n: int, degree: int, total: int) -> PolyForm:
    basis = form_basis(n, total, degree)
    if not basis:
        return PolyForm.zero(n)
    terms = {}
    for key in basis:
        if rng.random() < 0.5:
            c = rng.randint(-4, 4)
            if c:
                terms[key] = Fraction(c)
    return PolyForm(n, terms)


def random_simplicial_form(rng, base: SimplicialComplexK, degree: int, total: int) -> SimplicialForm:
    """Random compatible family, built facet-first in increasing dimension."""
    forms: dict[Simplex, PolyForm] = {}
    for s in base.all_simplices():
        n = len(s) - 1
        faces = {i: forms[f] for i, f in base.facets(s) if f in forms}
        particular = extend_to_simplex(n, faces, degree)
        noise = extension_kernel(n, degree, total, sorted(faces)) if n >= 1 else []
        w = particular
        for k in noise:
            c = rng.randint(-2, 2)
            if c:
                w = w + c * k
        if n == 0 and degree == 0 and not faces:
            w = w + PolyForm.constant(0, rng.randint(-3, 3))
        forms[s] = w
    return SimplicialForm(base, forms)


def _df_in_f_times_forms(f: PolyForm, wtotal: int) -> bool:
    """Whether df = f w for a 1-form w of total degree <= wtotal, f a function: the coefficient
    g_i of w at dt_i solves f g_i = df/dt_i, so one solve on the shared block of multiplication
    by f, on polynomials of degree < wtotal, takes every direction."""
    rows = KeyedBasis(_exponents_upto(f.n, f.total_degree() + wtotal - 1))
    shifted = [{tuple(map(add, a, b)): c for (a, _), c in f.terms.items()} for b in _exponents_upto(f.n, wtotal - 1)]
    df = d(f).terms
    partials = [rows.vector({a: c for (a, dts), c in df.items() if dts == (i,)}) for i in range(1, f.n + 1)]
    return None not in solve_many(rows.matrix(shifted), partials)


def check_admissible_axioms(n_max: int, sample_budget: int = 20, seed: int = 0) -> AdmissibilityReport:
    """Verify the five conditions of an admissible simplicial algebra.

    (i) and (ii) are structural; acyclicity is witnessed by the cone
    contraction; extendability by the exact extension solver on sampled
    compatible families; the zero-divisor condition df = f w is reported
    unsolvable on sampled nonconstant f vanishing somewhere.
    """
    import random as _random

    if n_max < 1:
        raise InputError("the admissibility checks need n_max of at least 1")
    rng = _random.Random(seed)
    rep = AdmissibilityReport()

    # (i) dimension zero is the ground field
    if form_basis(0, 4, 0) != [((), ())] or form_basis(0, 4, 1):
        rep.axiom_unit_dimension_zero = False
        rep.failures.append("dimension-0 forms are not just constants")

    # (ii) A_n = polynomials (x) exterior(dt): count the split
    for n in range(0, n_max + 1):
        for k in range(0, n + 1):
            npoly = len(_exponents_upto(n, 4 - k))
            if len(form_basis(n, 4, k)) != comb(n, k) * npoly:
                rep.axiom_polynomial_exterior_split = False
                rep.failures.append(f"split count fails at n={n}, k={k}")

    # (iii) acyclicity via the contraction
    homotopy_checks = 0
    for n in range(1, n_max + 1):
        for _ in range(max(2, sample_budget // max(1, n_max))):
            k = rng.randint(0, n)
            w = random_polyform(rng, n, k, 4)
            lhs = d(contraction(w)) + contraction(d(w))
            eps = PolyForm.constant(n, evaluate_at_vertex(w, 0)) if k == 0 else PolyForm.zero(n)
            if lhs != w - eps:
                rep.axiom_acyclicity = False
                rep.failures.append(f"contraction identity fails on a {k}-form, n={n}")
            homotopy_checks += 1
            closed = d(random_polyform(rng, n, k, 4)) if k < n else d(random_polyform(rng, n, n - 1, 4))
            if not closed.is_zero() and d(contraction(closed)) != closed:
                rep.axiom_acyclicity = False
                rep.failures.append(f"closed form not exact via contraction, n={n}")
        # H^0: only constants are closed
        d0 = [d(PolyForm._of(n, {key: ONE})).terms for key in form_basis(n, 3, 0)]
        kb = kernel_basis(KeyedBasis(form_basis(n, 3, 1)).matrix(d0))
        if len(kb) != 1:
            rep.axiom_acyclicity = False
            rep.failures.append(f"closed functions beyond constants at n={n}")
    rep.samples["contraction"] = homotopy_checks

    # (iv) extendability on sampled subcomplex inclusions and facet subsets
    ext_checks = 0
    for n in range(1, n_max + 1):
        K = standard_complex(n)
        subs = [boundary_complex(n)]
        if n >= 2:
            horn = SimplicialComplexK.from_maximal(
                [tuple(range(n + 1))[:i] + tuple(range(n + 1))[i + 1 :] for i in range(1, n + 1)]
            )
            subs.append(horn)
        for sub in subs:
            for _ in range(2):
                degree = rng.randint(0, n - 1) if n > 1 else 0
                fam = random_simplicial_form(rng, sub, degree, 3)
                full = extend(fam, K)
                if full.restrict_to(sub).forms != fam.forms:
                    rep.axiom_extendability = False
                    rep.failures.append(f"extension does not restrict to the input, n={n}")
                if full.check_compatible():
                    rep.axiom_extendability = False
                    rep.failures.append(f"extension is not a compatible family, n={n}")
                ext_checks += 1
        # arbitrary facet subsets of a single simplex
        for _ in range(2):
            size = rng.randint(1, n + 1)
            subset = sorted(rng.sample(range(n + 1), size))
            degree = rng.randint(0, n - 1) if n > 1 else 0
            w = random_polyform(rng, n, degree, 3)
            faces = {i: face_restrict(w, i) for i in subset}
            got = extend_to_simplex(n, faces, degree)
            for i in subset:
                if face_restrict(got, i) != faces[i]:
                    rep.axiom_extendability = False
                    rep.failures.append(f"facet-subset extension fails, n={n}, I={subset}")
            ext_checks += 1
    rep.samples["extension"] = ext_checks

    # (v) df = f w has no solution for nonconstant f with a zero
    zero_div_checks = 0
    attempts = 0
    while zero_div_checks < sample_budget and attempts < 20 * sample_budget:
        attempts += 1
        n = rng.randint(1, n_max)
        f = random_polyform(rng, n, 0, 3)
        f = f - PolyForm.constant(n, evaluate_at_vertex(f, 0))
        if f.is_zero() or f.total_degree() == 0:
            continue
        for wtotal in (f.total_degree(), f.total_degree() + 1):
            if _df_in_f_times_forms(f, wtotal):
                rep.axiom_no_zero_divisor_equation = False
                rep.failures.append("df = f*w solvable for a nonconstant vanishing f")
        zero_div_checks += 1
    rep.samples["zero_divisor"] = zero_div_checks

    return rep
