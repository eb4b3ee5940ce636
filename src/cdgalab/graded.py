"""Free graded-commutative algebras on finitely many generators.

Monomials are exponent tuples aligned with the declared generator order and
stored without trailing zeros: the unit is ``()`` and generator i is
``(0,) * i + (1,)``.  A key thus does not depend on how many generators come
after it, so an algebra grown by appending generators keeps its parent's keys,
and lexicographic order on keys is that of the zero-padded tuples.
Odd-degree generators square to zero, and reordering products into the
canonical order accumulates the Koszul sign.  Because every generator has
positive degree, each graded piece is finite dimensional.

Odd derivations act on monomial keys: the i-th generator of a monomial
contributes e_i (-1)^{|prefix|} left D(g_i) right, each term of D(g_i) taken in
one pass over exponent tuples, so no element is built per term.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import add
from typing import Iterable, Mapping, Optional

from .errors import InputError
from .exactlin import ONE, ZERO, KeyedBasis, rat, format_rat

Monomial = tuple[int, ...]


@dataclass(frozen=True)
class GeneratorSpec:
    name: str
    degree: int

    def __post_init__(self):
        if self.degree < 1:
            raise InputError(f"generator {self.name!r} must have positive degree")


class FreeGCA:
    """Free graded-commutative algebra over the rationals.

    With a ``parent``, the algebra is grown from it: its generators are the
    parent's followed by ``generators``, and its bases extend the parent's.
    """

    def __init__(self, generators: Iterable, parent: Optional["FreeGCA"] = None):
        self._parent = parent
        specs = list(parent.generators) if parent is not None else []
        for g in generators:
            if isinstance(g, GeneratorSpec):
                specs.append(g)
            else:
                name, degree = g
                specs.append(GeneratorSpec(str(name), int(degree)))
        names = [g.name for g in specs]
        if len(set(names)) != len(names):
            raise InputError("generator names must be unique")
        self.generators: tuple[GeneratorSpec, ...] = tuple(specs)
        self.index = KeyedBasis(names).index
        self.degrees = tuple(g.degree for g in self.generators)
        self.odd_positions: tuple[int, ...] = tuple(
            i for i, d in enumerate(self.degrees) if d % 2
        )
        # the number of odd positions below each key length
        self._odd_below = list(accumulate((d % 2 for d in self.degrees), initial=0))
        self._basis_cache: dict[int, list[Monomial]] = {}

    @property
    def ngens(self) -> int:
        return len(self.generators)

    def __repr__(self):
        gens = ", ".join(f"{g.name}:{g.degree}" for g in self.generators)
        return f"FreeGCA({gens})"

    # -- monomials ------------------------------------------------------
    def unit_monomial(self) -> Monomial:
        return ()

    def generator_monomial(self, name: str) -> Monomial:
        return (0,) * self.index[name] + (1,)

    def mono_degree(self, m: Monomial) -> int:
        return sum(e * d for e, d in zip(m, self.degrees))

    def mono_mul(self, a: Monomial, b: Monomial) -> Optional[tuple[int, Monomial]]:
        """Product of monomials: ``(koszul_sign, monomial)`` or None for zero.

        Only odd generators move a sign: each odd generator of a passes the
        odd generators of b that sit at earlier positions.  Beyond the shorter
        key only the longer one has generators; a's, there, pass all of b's.
        """
        la, lb = len(a), len(b)
        odd = self.odd_positions
        k = self._odd_below[la if la < lb else lb]
        sign = 0
        odd_b_before = 0
        for j in odd[:k]:
            if a[j]:
                if b[j]:
                    return None
                sign += odd_b_before
            elif b[j]:
                odd_b_before += 1
        if la > lb:
            if odd_b_before & 1:
                sign += sum(map(a.__getitem__, odd[k : self._odd_below[la]]))
            return (-1 if sign & 1 else 1), tuple(map(add, a, b)) + a[lb:]
        return (-1 if sign & 1 else 1), tuple(map(add, a, b)) + b[la:]

    def mono_str(self, m: Monomial) -> str:
        parts = []
        for g, e in zip(self.generators, m):
            if e == 1:
                parts.append(g.name)
            elif e > 1:
                parts.append(f"{g.name}^{e}")
        return "*".join(parts) if parts else "1"

    # -- per-degree bases ------------------------------------------------
    def basis_in_degree(self, n: int) -> list[Monomial]:
        """All monomials of total degree ``n``, lexicographic on exponents.

        Descending order, so powers of earlier generators come first and the
        listing follows the declaration order of the generators.  A grown
        algebra extends its parent's lists by the monomials that contain one of
        its own generators.
        """
        if n < 0:
            raise InputError("degree must be non-negative")
        cached = self._basis_cache.get(n)
        if cached is not None:
            return cached
        parent = self._parent
        if parent is None:
            out = sorted(self._monomials(n, 0), reverse=True)
        else:
            out = parent.basis_in_degree(n)
            # each new monomial: q, of degree k > 0 in the new generators, times p, one of the parent's
            news = ((k, q) for k in range(1, n + 1) for q in self._monomials(k, parent.ngens))
            grown = [p + q[len(p) :] for k, q in news for p in parent.basis_in_degree(n - k)]
            if grown:
                out = sorted(out + grown, reverse=True)
        self._basis_cache[n] = out
        return out

    def _monomials(self, n: int, start: int) -> list[Monomial]:
        """The keys of the monomials of degree ``n`` in the generators from position ``start`` on."""
        out: list[Monomial] = []
        expo = [0] * self.ngens
        # least degree among the generators from position i on
        least = list(accumulate(reversed(self.degrees), min))[::-1] + [n + 1]

        def rec(i: int, remaining: int):
            if remaining == 0:
                # position i - 1 took the last factor, unless the monomial is the unit
                out.append(tuple(expo[:i]))
                return
            if remaining < least[i]:
                return
            d = self.degrees[i]
            max_e = remaining // d
            if d % 2 == 1:
                max_e = min(max_e, 1)
            for e in range(max_e + 1):
                expo[i] = e
                rec(i + 1, remaining - e * d)
            expo[i] = 0

        rec(start, n)
        del rec  # it holds itself, and self, through its closure; unbinding it breaks the cycle
        return out

    # -- elements ----------------------------------------------------------
    def element(self, terms: Mapping[Monomial, Fraction] | Iterable) -> "Element":
        """The combination of ``terms``; an exponent tuple may end in zeros, which are trimmed."""
        if isinstance(terms, Mapping):
            items = terms.items()
        else:
            items = terms
        data: dict[Monomial, Fraction] = {}
        for m, c in items:
            m = tuple(m)
            if len(m) > self.ngens or any(e < 0 or (e > 1 and d % 2) for e, d in zip(m, self.degrees)):
                raise InputError(f"invalid monomial {m} for {self}")
            m = _trim(m)
            fc = rat(c)
            if fc != 0:
                data[m] = data.get(m, ZERO) + fc
        return Element(self, {m: c for m, c in data.items() if c != 0})

    def zero(self) -> "Element":
        return Element(self, {})

    def one(self) -> "Element":
        return Element(self, {self.unit_monomial(): ONE})

    def gen(self, name: str) -> "Element":
        return Element(self, {self.generator_monomial(name): ONE})


class Element:
    """Finite rational combination of monomials of a fixed free algebra."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: FreeGCA, terms: dict[Monomial, Fraction]):
        self.algebra = algebra
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> set[int]:
        return {self.algebra.mono_degree(m) for m in self.terms}

    def degree(self) -> Optional[int]:
        """Degree of a homogeneous element (None for 0)."""
        degs = self.degrees()
        if not degs:
            return None
        if len(degs) > 1:
            raise InputError(f"element is not homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    def homogeneous_part(self, n: int) -> "Element":
        alg = self.algebra
        return Element(alg, {m: c for m, c in self.terms.items() if alg.mono_degree(m) == n})

    def _require_same(self, other: "Element"):
        if self.algebra is not other.algebra:
            raise InputError("elements of different algebras")

    def __add__(self, other: "Element") -> "Element":
        self._require_same(other)
        data = dict(self.terms)
        for m, c in other.terms.items():
            v = data.get(m, ZERO) + c
            if v:
                data[m] = v
            elif m in data:
                del data[m]
        return Element(self.algebra, data)

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __neg__(self) -> "Element":
        return Element(self.algebra, {m: -c for m, c in self.terms.items()})

    def scale(self, c) -> "Element":
        c = rat(c)
        if c == 0:
            return Element(self.algebra, {})
        return Element(self.algebra, {m: c * v for m, v in self.terms.items()})

    def __rmul__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._require_same(other)
        alg = self.algebra
        data: dict[Monomial, Fraction] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                sm = alg.mono_mul(ma, mb)
                if sm is None:
                    continue
                sign, m = sm
                v = data.get(m, ZERO) + sign * ca * cb
                if v:
                    data[m] = v
                elif m in data:
                    del data[m]
        return Element(alg, data)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and self.algebra is other.algebra
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((id(self.algebra), tuple(sorted(self.terms.items()))))

    def __repr__(self):
        if not self.terms:
            return "0"
        alg = self.algebra
        parts = []
        for m in sorted(self.terms):
            c = self.terms[m]
            mono = alg.mono_str(m)
            if mono == "1":
                parts.append(format_rat(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{format_rat(c)}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")


def apply_odd_derivation(images: Mapping[str, Element], x: Element) -> Element:
    """Extend ``gen -> images[gen]`` to an odd derivation and apply it to x.

    The sign rule is D(a b) = D(a) b + (-1)^{|a|} a D(b); each monomial of x
    is differentiated by :func:`derive_monomial`.  The images must live in
    the same algebra as ``x``.
    """
    alg = x.algebra
    data: dict[Monomial, Fraction] = {}
    for mono, coeff in x.terms.items():
        for m, c in derive_monomial(images, alg, mono).items():
            v = data.get(m, ZERO) + coeff * c
            if v:
                data[m] = v
            else:
                data.pop(m, None)
    return Element(alg, data)


def derive_monomial(images: Mapping[str, Element], alg: FreeGCA, mono: Monomial) -> dict[Monomial, Fraction]:
    """Terms of D(mono) for the odd derivation D with ``gen -> images[gen]``.

    The i-th generator contributes e_i (-1)^{|prefix|} left D(g_i) right, with g_i^{e_i - 1}
    (even unless e_i = 1, so it costs no sign) between left and right: a term of D(g_i) adds
    its exponents to mono with e_i decremented, and each of its odd generators moves past
    the odd generators of mono strictly between it and position i.
    """
    out: dict[Monomial, Fraction] = {}
    # odd generators of mono before each position, up to the last generator of alg
    before = list(accumulate((d & 1 if e else 0 for e, d in zip(mono, alg.degrees)), initial=0))
    before += before[-1:] * (alg.ngens - len(mono))
    for i, e in enumerate(mono):
        if not e:
            continue
        gname = alg.generators[i].name
        img = images.get(gname)
        if img is None:
            raise InputError(f"no derivation image for generator {gname!r}")
        if img.algebra is not alg:
            raise InputError("derivation images must live in the algebra of x")
        # an odd g_i leaves position i: one odd generator fewer lies between i and any l > i
        lo, hi = before[i], before[i] + (alg.degrees[i] & 1)
        base = mono[:i] + (e - 1,) + mono[i + 1 :]
        if not base[-1]:
            base = _trim(base)
        for m, c in img.terms.items():
            sign = lo
            for l in alg.odd_positions[: alg._odd_below[len(m)]]:
                if m[l]:
                    if l < len(base) and base[l]:
                        break
                    sign += before[l] + (hi if l > i else lo)
            else:
                key = tuple(map(add, base, m)) + (base[len(m) :] or m[len(base) :])
                v = out.get(key, ZERO) + (-e * c if sign & 1 else e * c)
                if v:
                    out[key] = v
                else:
                    out.pop(key, None)
    return out


def _trim(m: Monomial) -> Monomial:
    """The exponent tuple ``m`` without trailing zeros: its key."""
    n = len(m)
    while n and not m[n - 1]:
        n -= 1
    return m[:n]
