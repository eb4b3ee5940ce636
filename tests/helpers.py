"""Shared test utilities: independent oracles and random generators.

The oracles here deliberately avoid the library code paths they are used to
check (minor expansion for ranks, naive elimination for dimensions, direct
polynomial arithmetic for generating functions).
"""

from fractions import Fraction
from itertools import combinations
from math import comb
import random

from cdgalab.cdga import _block_diagonal, cohomology, induced_map
from cdgalab.errors import CutoffTooSmallError, InputError, InternalError
from cdgalab.exactlin import (
    ONE, ZERO, KernelBasis, KeyedBasis, QMatrix, RowSpace, _Coordinates, _eliminate, _int_row, kernel_basis, rank, rat,
    rref, solve, unit_vector,
)
from cdgalab.polyforms import PolyForm, SimplicialComplexK, d, form_basis
from cdgalab.specseq import FilteredComplex, _AdaptedBasis


def concat(*vectors) -> tuple:
    """The vectors joined end to end."""
    return tuple(x for v in vectors for x in v)


def split_blocks(amb, k: int, v) -> list:
    """The blocks of a degree-k vector of the sum ``amb``, sliced at its block offsets."""
    starts = amb.offsets(k)
    assert len(v) == starts[-1]
    return [tuple(v[lo:hi]) for lo, hi in zip(starts, starts[1:])]


def in_block(amb, t: int, k: int, v) -> tuple:
    """The degree-k vector of the sum ``amb`` that is ``v`` in block t and zero elsewhere."""
    starts = amb.offsets(k)
    return (ZERO,) * starts[t] + tuple(v) + (ZERO,) * (starts[-1] - starts[t + 1])


def minor_rank(m: QMatrix) -> int:
    """Rank via minor expansion: largest k with a nonzero k x k minor."""
    rows = m.to_rows()
    n, c = m.rows, m.cols

    def det(rs, cs):
        if len(rs) == 1:
            return rows[rs[0]][cs[0]]
        total = Fraction(0)
        r0 = rs[0]
        rest = rs[1:]
        for j, col in enumerate(cs):
            a = rows[r0][col]
            if a:
                sub = det(rest, cs[:j] + cs[j + 1 :])
                total += (-1) ** j * a * sub
        return total

    for k in range(min(n, c), 0, -1):
        for rs in combinations(range(n), k):
            for cs in combinations(range(c), k):
                if det(list(rs), list(cs)) != 0:
                    return k
    return 0


def naive_rank(rows) -> int:
    """Plain Gaussian elimination on a list of Fraction lists."""
    rows = [list(map(Fraction, r)) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def fraction_echelon(m: QMatrix, pivot_cols=None):
    """Reduced row echelon form by plain ``Fraction`` Gauss-Jordan elimination.

    The slow exact reference for ``exactlin._int_echelon``, whose rows it gives
    over the rationals: same arguments, and it returns ``(rows as {column: value}
    dicts, pivot columns)``.  Each
    pivot is the candidate entry of smallest ``numerator * denominator`` bit
    length, and every pivot row is scaled to 1 before it clears its column.
    """
    if pivot_cols is None:
        pivot_cols = m.cols
    rows = [dict() for _ in range(m.rows)]
    for (r, c), v in m.entries.items():
        rows[r][c] = v
    pivots = []
    top = 0
    nrows = len(rows)
    for col in range(pivot_cols):
        if top == nrows:
            break
        best, best_w = -1, None
        for i in range(top, nrows):
            v = rows[i].get(col)
            if v:
                w = (abs(v.numerator) * v.denominator).bit_length()
                if best_w is None or w < best_w:
                    best, best_w = i, w
        if best < 0:
            continue
        rows[top], rows[best] = rows[best], rows[top]
        prow = rows[top]
        inv = 1 / prow[col]
        for c in prow:
            prow[c] *= inv
        for i in range(nrows):
            f = rows[i].get(col)
            if i != top and f:
                ri = rows[i]
                for c, v in prow.items():
                    nv = ri.get(c, Fraction(0)) - f * v
                    if nv:
                        ri[c] = nv
                    else:
                        del ri[c]
        pivots.append(col)
        top += 1
    return rows, pivots


def fraction_matvec(m: QMatrix, v) -> tuple:
    """``m v`` by a walk over every entry of ``m``, in ``Fraction`` arithmetic."""
    acc = [ZERO] * m.rows
    for (r, c), a in m.entries.items():
        x = v[c]
        if x:
            acc[r] += a * x
    return tuple(acc)


def fraction_matmul(a: QMatrix, b: QMatrix) -> QMatrix:
    """``a b`` row by row, in ``Fraction`` arithmetic."""
    by_row = {}
    for (r, k), x in a.entries.items():
        by_row.setdefault(r, {})[k] = x
    b_rows = {}
    for (k, c), y in b.entries.items():
        b_rows.setdefault(k, []).append((c, y))
    entries = {}
    for r, terms in by_row.items():
        acc = {}
        for k, x in terms.items():
            for c, y in b_rows.get(k, ()):
                acc[c] = acc.get(c, ZERO) + x * y
        entries.update({(r, c): v for c, v in acc.items() if v})
    return QMatrix(a.rows, b.cols, entries)


def dense_kernel_basis(m: QMatrix) -> list:
    """The canonical kernel basis read entry by entry off the ``rref`` matrix.

    Each free column gives 1 there and minus the reduced rows' entries at it
    on the pivots; every vector is scaled to lead with 1, then all are sorted
    by the index of their first nonzero coordinate and lexicographically.
    """
    _, pivots, red = rref(m)
    basis = []
    for f in (c for c in range(m.cols) if c not in pivots):
        v = [ZERO] * m.cols
        v[f] = ONE
        for r, p in enumerate(pivots):
            coeff = red.entry(r, f)
            if coeff:
                v[p] = -coeff
        lead = next(x for x in v if x)
        basis.append(tuple(x / lead if x else x for x in v))
    return sorted(basis, key=lambda v: (next(i for i, x in enumerate(v) if x), v))


class DenseKernelBasis:
    """A kernel basis built from its dense vectors, the slow reference for ``KernelBasis``.

    The inclusion is assembled column by column, and each vector's coordinate
    is read at the first column where it alone of the vectors is nonzero,
    found by a search over every entry.
    """

    def __init__(self, m: QMatrix, vectors):
        self.matrix = m
        self.vectors = list(vectors)
        self.inclusion = QMatrix.from_cols(self.vectors, m.cols)
        counts = [0] * m.cols
        for v in self.vectors:
            for c, x in enumerate(v):
                if x:
                    counts[c] += 1
        self.reads = []
        for v in self.vectors:
            col = next((c for c, x in enumerate(v) if x and counts[c] == 1), None)
            if col is None:
                raise InputError("kernel vector has no column where the others vanish")
            self.reads.append((col, ONE / v[col]))

    def coords_many(self, vectors) -> list:
        out = []
        for x in vectors:
            if any(fraction_matvec(self.matrix, x)):
                out.append(None)
            else:
                out.append(tuple(x[c] * s for c, s in self.reads))
        return out


def dense_kernel(m: QMatrix) -> DenseKernelBasis:
    return DenseKernelBasis(m, dense_kernel_basis(m))


def _dense_columns(kernel: DenseKernelBasis, images) -> QMatrix:
    cols = kernel.coords_many(images)
    if None in cols:
        raise InputError("an image lies outside the kernel")
    return QMatrix.from_cols(cols, len(kernel.vectors))


def dense_carrier_differentials(carrier) -> list:
    """A kernel carrier's differentials, one kernel vector through ``d`` at a time.

    The kernels are rebuilt densely from the carrier's defining matrices.
    """
    kernels = [dense_kernel(ker.matrix) for ker in carrier.kernels]
    return [
        _dense_columns(kernels[k + 1], [carrier.ambient.d_matrix(k).matvec(v) for v in kernels[k].vectors])
        for k in range(carrier.cutoff)
    ]


def dense_push(maps, src, dst) -> list:
    """The matrices of the map of kernel carriers that ``maps`` induce blockwise,
    each kernel vector of ``src`` split into blocks and mapped block by block."""
    mats = []
    for k in range(min(src.cutoff, dst.cutoff) + 1):
        images = [
            concat(*(h.mats[k].matvec(x) for h, x in zip(maps, split_blocks(src.ambient, k, v))))
            for v in dense_kernel_basis(src.kernels[k].matrix)
        ]
        mats.append(_dense_columns(dense_kernel(dst.kernels[k].matrix), images))
    return mats


def per_simplex_fiber_product_system(f, g, upto: int):
    """``(fiber products, restriction matrices)`` of ``fiber_product_system``,
    one fiber product per simplex and one dense push per facet."""
    from cdgalab.gluing import fiber_product

    base = f.source.base
    carriers = {s: fiber_product(f.maps[s], g.maps[s], upto) for s in base.all_simplices()}
    restr = {}
    for s in base.all_simplices():
        for i, t in base.facets(s):
            legs = (f.source.facet_restrictions[(s, i)], g.source.facet_restrictions[(s, i)])
            restr[(s, i)] = dense_push(legs, carriers[s].carrier, carriers[t].carrier)
    return carriers, restr


def dense_multiply(alg, i: int, va, j: int, vb) -> tuple:
    """``alg.multiply`` by a scan of every entry of each dense basis product."""
    acc = [ZERO] * alg.dim(i + j)
    for a, ca in enumerate(va):
        for b, cb in enumerate(vb):
            if ca and cb:
                for t, x in enumerate(alg.product_basis(i, a, j, b)):
                    if x:
                        acc[t] += ca * cb * x
    return tuple(acc)


def same_span(u, v) -> bool:
    """Whether two lists of independent vectors span the same space."""
    rows = [list(x) for x in u]
    return len(u) == len(v) == naive_rank(rows) == naive_rank(rows + [list(x) for x in v])


class IncrementalRowSpace(_Coordinates):
    """A span grown one dense vector at a time, with exact membership and coordinates.

    ``generators`` are the added vectors that enlarged the span, in order; :meth:`coords`
    writes a member of the span in them.  The echelon rows are primitive integer rows,
    and the coordinates come from one reduction of ``[generators | identity]``.
    """

    def __init__(self, dim: int, vectors=()):
        self.dim = dim
        self._rows: dict = {}  # pivot column -> reduced echelon row
        self.generators: list = []
        for v in vectors:
            self.add(v)

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> tuple:
        return tuple(sorted(self._rows))

    def reduce(self, v) -> dict:
        """A nonzero integer multiple of the residual of ``v``; empty in the span."""
        if len(v) != self.dim:
            raise InputError("RowSpace: vector of wrong length")
        work = _int_row({i: rat(x) for i, x in enumerate(v) if x})
        for p, row in self._rows.items():
            if p in work:
                _eliminate(work, row, p)
        return work

    def contains(self, v) -> bool:
        return not self.reduce(v)

    def add(self, v) -> bool:
        """Insert ``v``; True if it enlarged the span."""
        residual = self.reduce(v)
        if not residual:
            return False
        p = min(residual)
        for row in self._rows.values():
            if p in row:
                _eliminate(row, residual, p)
        self._rows[p] = residual
        self.generators.append(tuple(v))
        return True

    def coords_many(self, vectors) -> list:
        r, n = self.rank, self.dim
        entries = {(i, n + i): ONE for i in range(r)}
        for i, g in enumerate(self.generators):
            for c, x in enumerate(g):
                if x:
                    entries[(i, c)] = x
        _, pivots, red = rref(QMatrix(r, n + r, entries))
        transform = {p: {} for p in pivots}
        for (i, c), x in red.entries.items():
            if c >= n:
                transform[pivots[i]][c - n] = x
        out = []
        for v in vectors:
            if self.reduce(v):
                out.append(None)
                continue
            acc = [ZERO] * r
            for p, row in transform.items():
                for j, t in row.items():
                    acc[j] += v[p] * t
            out.append(tuple(acc))
        return out


def stacked_preimage(a: QMatrix, sub) -> list:
    """Basis of ``{x : a x in span(sub)}`` through the kernel of ``[a | -sub]``.

    The heads of the stacked kernel vectors span it; each head independent
    of the heads kept before it is kept.
    """
    if not sub:
        return kernel_basis(a)
    stacked = a.hstack(QMatrix.from_cols(sub, a.rows).scale(-1))
    heads = [v[: a.cols] for v in kernel_basis(stacked)]
    return [heads[c] for c in RowSpace(QMatrix.from_cols(heads, a.cols)).columns]


def level_rows(alg, k: int, p: int) -> QMatrix:
    """Rows whose kernel is the subspace of degree-k elements of level >= p.

    They select the coordinates of level below p; without ``levels`` every basis element has
    level 0.  A kernel carrier reads the block-diagonal rows of its ambient parts through its
    inclusion.
    """
    if alg.ambient is None:
        below = [a for a in range(alg.dim(k)) if alg.basis_level(k, a) < p]
        return QMatrix(len(below), alg.dim(k), {(r, a): ONE for r, a in enumerate(below)})
    rows = _block_diagonal([level_rows(part, k, p) for part in alg.ambient.parts])
    return rows.matmul(alg.kernels[k].inclusion)


def stacked_level_subspace(alg, k: int, p: int) -> list:
    """Level ``>= p`` subspace of ``alg`` in degree k, by stacked preimages.

    An algebra without an ambient sum reads its ``levels``; a kernel carrier
    pulls the level subspaces of its ambient parts back through its inclusion.
    """
    if alg.ambient is None:
        return [unit_vector(alg.dim(k), a) for a in range(alg.dim(k)) if alg.basis_level(k, a) >= p]
    sub = [
        in_block(alg.ambient, t, k, v)
        for t, part in enumerate(alg.ambient.parts)
        for v in stacked_level_subspace(part, k, p)
    ]
    return stacked_preimage(alg.kernels[k].inclusion, sub)


def stacked_z_basis(alg, fp, ft, n: int) -> list:
    """``{x in span(fp) : dx in span(ft)}`` for degree-n ``fp`` and degree-(n+1) ``ft``."""
    if not fp:
        return []
    fp_m = QMatrix.from_cols(fp, alg.dim(n))
    return [fp_m.matvec(x) for x in stacked_preimage(alg.d_matrix(n).matmul(fp_m), ft)]


def pairwise_product(a: PolyForm, b: PolyForm) -> dict:
    """Terms of ``a * b`` by a pairwise loop over the terms of both forms.

    The reference for the closed-form key product behind ``PolyForm.__mul__``.
    """
    data = {}
    for (ea, sa), ca in a.terms.items():
        for (eb, sb), cb in b.terms.items():
            if set(sa) & set(sb):
                continue
            # sign of sorting the concatenation sa + sb ascending
            inversions = sum(1 for x in sa for y in sb if x > y)
            sign = -1 if inversions % 2 else 1
            key = (tuple(x + y for x, y in zip(ea, eb)), tuple(sorted(sa + sb)))
            data[key] = data.get(key, Fraction(0)) + sign * ca * cb
    return {k: v for k, v in data.items() if v}


def symbolic_pullback(omega: PolyForm, images, m: int) -> PolyForm:
    """Substitute coordinate i -> images[i-1] (0-forms on an m-simplex).

    Every power and product is a validated ``PolyForm`` built by
    :func:`pairwise_product`, and dt_i goes to d(images[i-1]).
    """
    out = PolyForm.zero(m)
    dimages = [d(img) for img in images]
    power_cache = {}

    def times(a, b):
        return PolyForm(m, pairwise_product(a, b))

    def power(i, e):
        if (i, e) not in power_cache:
            acc = PolyForm.constant(m, 1)
            for _ in range(e):
                acc = times(acc, images[i])
            power_cache[(i, e)] = acc
        return power_cache[(i, e)]

    for (expo, dts), c in omega.terms.items():
        acc = PolyForm.constant(m, c)
        for i, e in enumerate(expo):
            if e:
                acc = times(acc, power(i, e))
        for s in dts:
            acc = times(acc, dimages[s - 1])
        out = out + acc
    return out


def symbolic_face_restrict(omega: PolyForm, i: int) -> PolyForm:
    """Restriction to facet i by substituting the facet's coordinate images.

    Facet 0 sends t_1 to 1 - sum u_k and t_j to u_{j-1}; facet i >= 1 sends
    t_i to 0 and the other coordinates to their relabelled images.
    """
    n = omega.n
    m = n - 1
    if i == 0:
        first = PolyForm.constant(m, 1)
        for k in range(1, m + 1):
            first = first - PolyForm.coordinate(m, k)
        images = [first] + [PolyForm.coordinate(m, j - 1) for j in range(2, n + 1)]
    else:
        images = [
            PolyForm.coordinate(m, j) if j < i
            else PolyForm.zero(m) if j == i
            else PolyForm.coordinate(m, j - 1)
            for j in range(1, n + 1)
        ]
    return symbolic_pullback(omega, images, m)


def random_qmatrix(rng: random.Random, rows: int, cols: int, density=0.6, span=6) -> QMatrix:
    entries = {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                num = rng.randint(-span, span)
                den = rng.randint(1, 4)
                if num:
                    entries[(i, j)] = Fraction(num, den)
    return QMatrix(rows, cols, entries)


def poly_series_coefficient(degrees_even, degrees_odd, n: int) -> int:
    """Coefficient of q^n in prod 1/(1-q^d) * prod (1+q^d).

    Computed by plain truncated integer polynomial arithmetic.
    """
    series = [0] * (n + 1)
    series[0] = 1
    for d in degrees_even:
        # multiply by 1/(1-q^d): cumulative sums with stride d
        for i in range(d, n + 1):
            series[i] += series[i - d]
    for d in degrees_odd:
        new = series[:]
        for i in range(d, n + 1):
            new[i] += series[i - d]
        series = new
    return series[n]


def wedge_generator_counts(spheres: int, top: int) -> dict[int, int]:
    """Minimal-model generators in each degree 2..top of a wedge of 2-spheres.

    The homotopy Lie algebra L has the tensor algebra on ``spheres`` classes
    of degree 1 as enveloping algebra, with Poincare series 1/(1 - spheres*t).
    By Poincare-Birkhoff-Witt that series is
    prod_{n odd} (1 + t^n)^{l_n} * prod_{n even} (1 - t^n)^{-l_n}, and l_n, the
    number of generators in degree n + 1, is solved for degree by degree.
    Each factor is expanded as a binomial series.
    """
    m = top - 1
    fixed = [1] + [0] * m  # product of the factors of degree below n
    counts = {}
    for n in range(1, m + 1):
        l_n = spheres**n - fixed[n]
        counts[n + 1] = l_n
        if l_n == 0:
            continue
        factor = [0] * (m + 1)
        for j in range(m // n + 1):
            factor[j * n] = comb(l_n, j) if n % 2 else comb(l_n + j - 1, j)
        fixed = [sum(fixed[i] * factor[k - i] for i in range(k + 1)) for k in range(m + 1)]
    return counts


def folded_comparison_matrices(model, trunc, target, phi, degrees) -> dict:
    """The reference for ``sullivan._comparison_matrices``, with no shortcut.

    The image of a monomial is the unit of ``target`` times the image of each of
    its generators in turn, in generator order and with multiplicity, taken by
    :func:`dense_multiply` in every degree, those where the target is zero
    included.  ``phi`` maps a generator name to its degree and image vector.
    """
    gens = model.gca.generators
    out = {}
    for k in degrees:
        cols = []
        for mono in trunc.bases[k].keys:
            deg, vec = 0, target.unit
            for g, e in zip(gens, mono):
                gdeg, gvec = phi[g.name]
                for _ in range(e):
                    vec = dense_multiply(target, deg, vec, gdeg, gvec)
                    deg += gdeg
            cols.append(vec)
        out[k] = QMatrix.from_cols(cols, target.dim(k))
    return out


def representative_quasi_iso(h, upto):
    """``(ok, first failing degree)`` of H(h) through ``upto`` from full cohomology on both sides.

    The reference for ``cdga.is_quasi_iso``: representatives, their classes and
    the induced matrix in every degree, and the rank by plain elimination.
    """
    hs = cohomology(h.source, upto)
    ht = cohomology(h.target, upto)
    for k, m in enumerate(induced_map(h, upto, hs, ht)):
        if hs.dims[k] != ht.dims[k] or naive_rank(m.to_rows()) != hs.dims[k]:
            return False, k
    return True, None


def transports_edge_by_edge(e, upto) -> dict:
    """The edge transports of ``localsys.cohomology_local_system``, built apart from the
    local-constancy check: H of each edge restriction induced on its own, and the inverse of
    H(to v) solved for one unit vector at a time.  The reference for the transports read off
    the check."""
    from cdgalab.exactlin import solve_many
    from cdgalab.localsys import _fiber_cohomologies

    hs = _fiber_cohomologies(e, upto)
    edges = {}
    for s in e.base.simplices_of_dim(1):
        u, v = s
        to_u, to_v = (
            induced_map(e.facet_restrictions[(s, i)], upto, hs[id(e.fibers[s])], hs[id(e.fibers[(w,)])])
            for i, w in ((1, u), (0, v))
        )
        per_q = {}
        for q in range(upto + 1):
            m = to_v[q]
            inv = solve_many(m, [unit_vector(m.rows, r) for r in range(m.rows)])
            assert m.rows == m.cols and None not in inv, f"transport not invertible on edge {s}"
            per_q[q] = to_u[q].matmul(QMatrix.from_cols(inv, m.cols))
        edges[(u, v)] = per_q
    return edges


def full_zero_divisor_solve(f: PolyForm, wtotal: int) -> bool:
    """Whether df = f w for a 1-form w of total degree <= wtotal, by one solve of the
    full product matrix on every 1-form basis key: the reference for
    ``polyforms._df_in_f_times_forms``."""
    n = f.n
    target = KeyedBasis(form_basis(n, f.total_degree() + wtotal, 1))
    products = [(f * PolyForm(n, {key: ONE})).terms for key in form_basis(n, wtotal, 1)]
    return solve(target.matrix(products), target.vector(d(f).terms)) is not None


def trimmed(m) -> tuple:
    """The exponent tuple ``m`` without its trailing zeros."""
    return tuple(m[: max((j + 1 for j, e in enumerate(m) if e), default=0)])


def loop_mono_mul(alg, a, b):
    """Product of two monomials of ``alg`` by a loop over every generator.

    The reference for ``FreeGCA.mono_mul``: each odd generator of b moves
    left past the odd generators of a at later positions, and the product is
    zero when an odd exponent of the sum exceeds one.  The keys are padded
    with zeros to every generator on entry, and the product is trimmed.
    """
    a, b = (m + (0,) * (alg.ngens - len(m)) for m in (a, b))
    sign = 0
    odd_a_after = 0
    for j in range(alg.ngens - 1, -1, -1):
        if alg.degrees[j] % 2 == 1:
            sign += odd_a_after * b[j]
            odd_a_after += a[j]
    prod = tuple(x + y for x, y in zip(a, b))
    if any(d % 2 == 1 and e > 1 for e, d in zip(prod, alg.degrees)):
        return None
    return (-1) ** sign, trimmed(prod)


def loop_derive_monomial(images, alg, mono) -> dict:
    """Terms of D(mono) from padded keys and :func:`loop_mono_mul`, trimmed at the end.

    The reference for ``graded.derive_monomial``: the i-th generator contributes
    e_i (-1)^{|prefix|} left * D(g_i) * right, each product a dense loop.
    """
    n = alg.ngens
    mono = tuple(mono) + (0,) * (n - len(mono))
    out = {}
    for i, e in enumerate(mono):
        if not e:
            continue
        left = mono[:i] + (e - 1,) + (0,) * (n - i - 1)
        right = (0,) * (i + 1) + mono[i + 1 :]
        sign = (-1) ** sum(x * d for x, d in zip(mono[:i], alg.degrees))
        for m, c in images[alg.generators[i].name].terms.items():
            first = loop_mono_mul(alg, left, m)
            second = first and loop_mono_mul(alg, first[1], right)
            if second:
                key = trimmed(second[1])
                out[key] = out.get(key, 0) + sign * e * c * first[0] * second[0]
    return {key: c for key, c in out.items() if c}


def symbolic_odd_derivation(images, x):
    """Odd derivation ``gen -> images[gen]`` applied to x through ``Element`` products.

    The reference for ``graded.derive_monomial``: the i-th generator of each
    monomial contributes (-1)^{|prefix|} e_i left * D(g_i) * right, every
    factor a validated element and every product a full ``Element.__mul__``.
    """
    alg = x.algebra
    out = alg.zero()
    for mono, coeff in x.terms.items():
        for i, e in enumerate(mono):
            if e == 0:
                continue
            gname = alg.generators[i].name
            img = images.get(gname)
            if img is None:
                raise InputError(f"no derivation image for generator {gname!r}")
            if img.algebra is not alg:
                raise InputError("derivation images must live in the algebra of x")
            prefix_deg = sum(mono[j] * alg.degrees[j] for j in range(i))
            sign = -1 if prefix_deg % 2 else 1
            left = alg.element(
                {tuple(mono[j] if j < i else (e - 1 if j == i else 0) for j in range(len(mono))): ONE}
            )
            right = alg.element({tuple(0 if j <= i else mono[j] for j in range(len(mono))): ONE})
            term = (sign * e) * (left * img * right)
            out = out + coeff * term
    return out


class LeafFilteredComplex(FilteredComplex):
    """A filtered complex adapted in the innermost coordinates in every degree, as if some
    basis element mixed levels: the leaf path of ``specseq._AdaptedBasis``, the reference for
    the filtration read in the algebra's own basis."""

    def _adapted(self, k: int) -> _AdaptedBasis:
        if k not in self._bases:
            self._bases[k] = _AdaptedBasis(self.algebra, k, self.p_bound, None)
        return self._bases[k]


class PerEntryTower:
    """The classical page tower, one kernel per cycle space and one span per entry.

    The slow reference for ``specseq.PageTower``, with the same ``entry``,
    ``z_basis``, ``class_in_entry`` and ``diff``.  F^p is the kernel of the
    algebra's :func:`level_rows` (all of degree k beyond ``p_bound``), never the
    adapted basis; each entry runs its own kernels and fills its own span.
    """

    def __init__(self, fc):
        self.fc = fc
        self._levels = {}
        self._z_cache = {}
        self._entry_cache = {}

    def level_rows(self, p: int, k: int) -> QMatrix:
        alg = self.fc.algebra
        return QMatrix.identity(alg.dim(k)) if p > self.fc.p_bound else level_rows(alg, k, p)

    def level(self, p: int, k: int) -> KernelBasis:
        if (p, k) not in self._levels:
            self._levels[(p, k)] = KernelBasis(self.level_rows(p, k))
        return self._levels[(p, k)]

    def subspace(self, p: int, k: int) -> list:
        if k < 0 or k > self.fc.algebra.cutoff:
            return []
        return self.level(p, k).vectors

    def z_basis(self, p: int, target_p: int, n: int) -> list:
        """Basis of { x in F^p C^n : dx in F^{target_p} }."""
        alg = self.fc.algebra
        key = (max(p, 0), min(max(target_p, 0), self.fc.p_bound + 1), n)
        if key in self._z_cache:
            return self._z_cache[key]
        p_eff, tgt_eff, _ = key
        if not 0 <= n <= alg.cutoff or not self.level(p_eff, n).rank:
            self._z_cache[key] = []
            return []
        if n >= alg.cutoff:
            raise InputError("page computation needs degrees below the cutoff")
        fp_m = self.level(p_eff, n).inclusion
        rows = self.level_rows(tgt_eff, n + 1).matmul(alg.d_matrix(n).matmul(fp_m))
        out = fp_m.matmul(KernelBasis(rows).inclusion).to_cols()
        self._z_cache[key] = out
        return out

    def entry(self, r: int, p: int, q: int):
        """(dims, representatives, denominator basis) of E_r^{p,q}."""
        return self._entry(r, p, q)[0]

    def _entry(self, r: int, p: int, q: int):
        key = (r, p, q)
        if key in self._entry_cache:
            return self._entry_cache[key]
        alg = self.fc.algebra
        n = p + q
        if p < 0 or n < 0:
            self._entry_cache[key] = ((0, [], []), RowSpace(QMatrix.zero(0, 0)))
            return self._entry_cache[key]
        if r == 0:
            z = self.subspace(p, n)
            denom = self.subspace(p + 1, n)
        else:
            z = self.z_basis(p, p + r, n)
            denom = list(self.z_basis(p + 1, p + r, n))
            lower = self.z_basis(p - r + 1, p, n - 1) if n >= 1 else []
            for v in lower:
                denom.append(alg.apply_d(n - 1, v))
        rs = RowSpace(QMatrix.from_cols(denom + list(z), alg.dim(n)))
        reps = [z[c - len(denom)] for c in rs.columns if c >= len(denom)]
        self._entry_cache[key] = ((len(reps), reps, denom), rs)
        return self._entry_cache[key]

    def class_in_entry(self, r: int, p: int, q: int, v) -> tuple:
        """Coordinates of the class of ``v`` in the representatives of E_r^{p,q}."""
        (dim_e, _, _), space = self._entry(r, p, q)
        if not space.rank:
            if any(v):
                raise InputError("vector has no expression in an empty page entry")
            return ()
        (coords,) = space.coords_many([v])
        if coords is None:
            raise InputError("vector does not lie in the page entry")
        return coords[space.rank - dim_e :]

    def diff(self, r: int, p: int, q: int) -> QMatrix:
        """Matrix of d_r : E_r^{p,q} -> E_r^{p+r, q-r+1}."""
        alg = self.fc.algebra
        _, reps, _ = self.entry(r, p, q)
        dim_tgt, _, _ = self.entry(r, p + r, q - r + 1)
        cols = [
            self.class_in_entry(r, p + r, q - r + 1, alg.apply_d(p + q, v)) if dim_tgt else ()
            for v in reps
        ]
        return QMatrix.from_cols(cols, dim_tgt)


def random_filtered_complex(rng: random.Random, dims, p_bound: int, lengths=(0, 1, 2, 3)):
    """A cochain complex with per-basis levels and a known spectral sequence.

    Returns ``(algebra, pairs)``.  The differential starts in normal form:
    each pair ``(n, x, y)`` sends basis element x of degree n to basis
    element y of degree n + 1, whose level exceeds x's by a length drawn from
    ``lengths``, and sends everything else to zero.  It is then conjugated by
    a random automorphism of each degree that keeps every level subspace, so
    no coordinate shows the pairs.  Levels are shuffled across positions and
    repeat.  A pair of length r lives in E_0 .. E_r and dies in E_{r+1}.
    The product keeps only the unit: these complexes are for page
    computations, which never multiply.
    """
    from cdgalab.cdga import from_tables
    from cdgalab.exactlin import solve_many

    cutoff = len(dims) - 1
    levels = [[None] * dims[n] for n in range(cutoff + 1)]
    targets = [set() for _ in range(cutoff + 1)]
    pairs = []
    for n in range(cutoff):
        sources = [x for x in range(dims[n]) if x not in targets[n] and levels[n][x] is None]
        rng.shuffle(sources)
        free = [y for y in range(dims[n + 1]) if levels[n + 1][y] is None]
        rng.shuffle(free)
        for x, y in zip(sources[: rng.randint(1, 3)], free):
            length = rng.choice([r for r in lengths if r <= p_bound])
            levels[n][x] = rng.randint(0, p_bound - length)
            levels[n + 1][y] = levels[n][x] + length
            targets[n + 1].add(y)
            pairs.append((n, x, y))
    for n in range(cutoff + 1):
        levels[n] = [rng.randint(0, p_bound) if lv is None else lv for lv in levels[n]]

    def automorphism(n):
        """Unitriangular in the order (level, index), so each level subspace is kept."""
        key = [(levels[n][i], i) for i in range(dims[n])]
        return QMatrix(dims[n], dims[n], {
            (i, j): (ONE if i == j else Fraction(rng.randint(-2, 2)))
            for i in range(dims[n]) for j in range(dims[n])
            if i == j or (key[i] > key[j] and rng.random() < 0.5)
        })

    autos = [automorphism(n) for n in range(cutoff + 1)]
    diff_mats = []
    for n in range(cutoff):
        normal = QMatrix(dims[n + 1], dims[n], {(y, x): ONE for m, x, y in pairs if m == n})
        inverse = QMatrix.from_cols(solve_many(autos[n], [unit_vector(dims[n], i) for i in range(dims[n])]), dims[n])
        diff_mats.append(autos[n + 1].matmul(normal).matmul(inverse))
    alg = from_tables(
        cutoff, dims, unit_vector(dims[0], 0), diff_mats,
        {}, levels=levels, check=True, name="random filtered",
    )
    return alg, pairs


def spans_agree(u, v) -> bool:
    """Whether two lists of vectors, dependent or not, span the same space."""
    if not u or not v:
        return not any(map(any, u)) and not any(map(any, v))
    dim = len(u[0])
    ranks = [rank(QMatrix.from_cols(vectors, dim)) for vectors in (u, v, list(u) + list(v))]
    return ranks[0] == ranks[1] == ranks[2]


# -- dense product rules, one per construction ---------------------------------
#
# Each rule returns the product of basis elements (i, a) and (j, b) of the
# constructed algebra as a dense vector, or None when it is dropped, for every
# pair in either order: the dense tables the constructions built before their
# products were kept sparse.


def product_table_mismatches(alg, rule) -> list:
    """The pairs where ``alg.product_basis`` (None when dropped) differs from ``rule``."""
    out = []
    for i in range(alg.cutoff + 1):
        for j in range(alg.cutoff + 1 - i):
            for a in range(alg.dim(i)):
                for b in range(alg.dim(j)):
                    try:
                        got = alg.product_basis(i, a, j, b)
                    except CutoffTooSmallError:
                        got = None
                    if got != rule(i, a, j, b):
                        out.append((i, a, j, b))
    return out


def truncation_rule(f, trunc):
    """Products of monomials as elements of the free algebra."""
    gca = f.gca

    def rule(i, a, j, b):
        prod = gca.element({trunc.bases[i].keys[a]: ONE}) * gca.element({trunc.bases[j].keys[b]: ONE})
        return trunc.bases[i + j].vector(prod.terms)

    return rule


def direct_sum_rule(a, b, s):
    """Each summand multiplies its own block; products across the blocks vanish."""

    def rule(i, x, j, y):
        out = [ZERO] * s.dim(i + j)
        try:
            if x < a.dim(i) and y < a.dim(j):
                part, shift = a.product_basis(i, x, j, y), 0
            elif x >= a.dim(i) and y >= a.dim(j):
                part, shift = b.product_basis(i, x - a.dim(i), j, y - a.dim(j)), a.dim(i + j)
            else:
                part, shift = (), 0
        except CutoffTooSmallError:
            return None
        for t, v in enumerate(part):
            out[shift + t] = v
        return tuple(out)

    return rule


def tensor_rule(a, b, tp):
    """(x1 (x) y1)(x2 (x) y2) = (-1)^{|y1||x2|} x1 x2 (x) y1 y2."""

    def rule(i, x, j, y):
        i1, a1, j1, b1 = tp.bases[i].keys[x]
        i2, a2, j2, b2 = tp.bases[j].keys[y]
        if i1 + i2 > a.cutoff or j1 + j2 > b.cutoff:
            return None
        try:
            pa, pb = a.product_basis(i1, a1, i2, a2), b.product_basis(j1, b1, j2, b2)
        except CutoffTooSmallError:
            return None
        sign = -1 if (j1 * i2) % 2 else 1
        return tp.bases[i + j].vector({
            (i1 + i2, r, j1 + j2, s): sign * u * v
            for r, u in enumerate(pa) if u for s, v in enumerate(pb) if v
        })

    return rule


def forms_rule(alg, total: int):
    """Products of unit forms by the pairwise term loop, dropped above the total degree."""

    def rule(i, a, j, b):
        ua = PolyForm(alg.simplex_dim, {alg.bases[i].keys[a]: ONE})
        ub = PolyForm(alg.simplex_dim, {alg.bases[j].keys[b]: ONE})
        if ua.total_degree() + ub.total_degree() > total:
            return None
        return alg.bases[i + j].vector(pairwise_product(ua, ub))

    return rule


def carrier_rule(carrier):
    """The ambient product of two kernel vectors, block by block, solved for in the kernel."""
    amb = carrier.ambient

    def rule(i, a, j, b):
        va, vb = carrier.kernels[i].vectors[a], carrier.kernels[j].vectors[b]
        blocks = zip(amb.parts, split_blocks(amb, i, va), split_blocks(amb, j, vb))
        try:
            prod = concat(*(dense_multiply(part, i, x, j, y) for part, x, y in blocks))
        except CutoffTooSmallError:
            return None
        return solve(carrier.kernels[i + j].inclusion, prod)

    return rule


def suspension_rule(carrier):
    """The unit times anything; products of positive degrees vanish."""

    def rule(i, a, j, b):
        n = carrier.dim(i + j)
        if i == 0 or j == 0:
            return unit_vector(n, b if i == 0 else a)
        return (ZERO,) * n

    return rule


def dense_tensor_differentials(a, b, tp) -> list:
    """The differentials of ``tp = tensor_product(a, b)``, d(x (x) y) = dx (x) y + (-1)^|x| x (x) dy,
    each factor differential read as a dense column."""
    mats = []
    for k in range(tp.cutoff):
        images = []
        for i, ia, j, jb in tp.bases[k].keys:
            sign = -1 if i % 2 else 1
            image = {(i + 1, r, j, jb): v for r, v in enumerate(a.d_matrix(i).column(ia)) if v}
            image.update({(i, ia, j + 1, r): sign * v for r, v in enumerate(b.d_matrix(j).column(jb)) if v})
            images.append(image)
        mats.append(tp.bases[k + 1].matrix(images))
    return mats


def dense_tensor_morphism_mats(src, tgt, f, g) -> list:
    """The matrices of ``tensor_morphism(src, tgt, f, g)``, each leg's image read as a dense
    column; a None leg maps x to 1 * x."""

    def image(h, d, x):
        return [(x, ONE)] if h is None else [(r, v) for r, v in enumerate(h.mats[d].column(x)) if v]

    mats = []
    for k in range(min(src.cutoff, tgt.cutoff) + 1):
        images = [
            {(i, r, j, s): u * v for r, u in image(f, i, ia) for s, v in image(g, j, jb)}
            for i, ia, j, jb in src.bases[k].keys
        ]
        mats.append(tgt.bases[k].matrix(images))
    return mats


def dense_multiplicativity(h) -> tuple:
    """``(pairs compared, first failing pair or None)`` of the multiplicativity check of the
    morphism ``h``: both sides of every basis pair with a nonzero target degree, the target
    side by ``multiply`` on the dense columns of the matrices; a dropped product skips a pair."""
    src, tgt = h.source, h.target
    checked = 0
    for i in range(h.cap + 1):
        for j in range(i, h.cap + 1 - i):
            if not tgt.dim(i + j):
                continue
            for a in range(src.dim(i)):
                for b in range(src.dim(j)):
                    try:
                        lhs = h.mats[i + j].matvec(src.product_basis(i, a, j, b))
                        rhs = tgt.multiply(i, h.mats[i].column(a), j, h.mats[j].column(b))
                    except CutoffTooSmallError:
                        continue
                    if lhs != rhs:
                        return checked, (i, a, j, b)
                    checked += 1
    return checked, None


def dense_filtration_problems(fc) -> list:
    """``FilteredComplex.validate`` with every adapted basis element written densely in the
    algebra's basis and multiplied there by ``multiply``, then tested with ``contains``; it
    also tests F^p ⊂ F^{p-1}, which the library takes to hold by construction."""
    problems = []
    alg = fc.algebra
    for p in range(1, fc.p_bound + 1):
        for k in range(alg.cutoff + 1):
            if not all(fc.contains(p - 1, k, v) for v in fc.subspace(p, k)):
                problems.append(f"F^{p} not inside F^{p - 1} at degree {k}")
        for k in range(alg.cutoff):
            if not all(fc.contains(p, k + 1, alg.apply_d(k, v)) for v in fc.subspace(p, k)):
                problems.append(f"d leaves F^{p} at degree {k}")
    elements = []
    for k in range(alg.cutoff + 1):
        ad = fc._adapted(k)
        vectors = ad.span([{r: 1} for r in range(len(ad.levels))])
        dense = [tuple(v.get(a, ZERO) for a in range(ad.dim)) for v in vectors]
        elements.append(list(zip(ad.levels, dense)))
    for i in range(alg.cutoff + 1):
        for j in range(i, alg.cutoff + 1 - i):
            for a, (p, x) in enumerate(elements[i]):
                start = a if i == j else 0
                for b, (q, y) in enumerate(elements[j][start:], start):
                    try:
                        prod = alg.multiply(i, x, j, y)
                    except CutoffTooSmallError:
                        continue
                    if not fc.contains(p + q, i + j, prod):
                        problems.append(
                            f"product of F^{p} and F^{q} leaves F^{p + q} "
                            f"on adapted basis pair ({i},{a}),({j},{b})"
                        )
    return problems


def dense_validate(alg) -> list:
    """``TruncatedDGA.validate`` through dense vectors: every basis case of the unit laws, the
    Leibniz rule and associativity, with both sides built by ``multiply``, ``product_basis`` and
    ``apply_d`` on unit vectors; a case that needs a dropped product is skipped."""
    problems: list[str] = []
    # unit laws
    for k in range(alg.cutoff + 1):
        for a in range(alg.dim(k)):
            try:
                lhs = alg.multiply(0, alg.unit, k, unit_vector(alg.dim(k), a))
            except CutoffTooSmallError:
                continue
            if lhs != unit_vector(alg.dim(k), a):
                problems.append(f"unit law fails on basis ({k},{a})")
    # Leibniz
    pairs = (
        (i, a, j, b)
        for i in range(alg.cutoff + 1)
        for j in range(i, alg.cutoff + 1 - i)
        if i + j + 1 <= alg.cutoff
        for a in range(alg.dim(i))
        for b in range(alg.dim(j))
    )
    for i, a, j, b in pairs:
        try:
            lhs = alg.apply_d(i + j, alg.product_basis(i, a, j, b))
            da = alg.apply_d(i, unit_vector(alg.dim(i), a))
            db = alg.apply_d(j, unit_vector(alg.dim(j), b))
            term1 = alg.multiply(i + 1, da, j, unit_vector(alg.dim(j), b))
            term2 = alg.multiply(i, unit_vector(alg.dim(i), a), j + 1, db)
        except CutoffTooSmallError:
            continue
        sign = -1 if i % 2 else 1
        rhs = tuple(x + sign * y for x, y in zip(term1, term2))
        if lhs != rhs:
            problems.append(f"Leibniz fails on basis pair ({i},{a}),({j},{b})")
    # associativity
    triples = (
        (i, a, j, b, k, c)
        for i in range(alg.cutoff + 1)
        for j in range(alg.cutoff + 1 - i)
        for k in range(alg.cutoff + 1 - i - j)
        for a in range(alg.dim(i))
        for b in range(alg.dim(j))
        for c in range(alg.dim(k))
    )
    for i, a, j, b, k, c in triples:
        try:
            ab = alg.product_basis(i, a, j, b)
            left = alg.multiply(i + j, ab, k, unit_vector(alg.dim(k), c))
            bc = alg.product_basis(j, b, k, c)
            right = alg.multiply(i, unit_vector(alg.dim(i), a), j + k, bc)
        except CutoffTooSmallError:
            continue
        if left != right:
            problems.append(f"associativity fails on ({i},{a}),({j},{b}),({k},{c})")
    return problems


def dense_is_extendable(e, upto=None):
    """``localsys.is_extendable`` one fiber basis vector at a time: each is restricted to every
    boundary simplex through a freshly composed restriction, the images are joined densely and
    written in the boundary sections by ``coords_many``."""
    from cdgalab.localsys import FiniteLocalSystem, _sections_basis

    if upto is None:
        upto = e.min_cutoff()
    witnesses = []
    ok = True
    for s in e.base.all_simplices():
        n = len(s) - 1
        if n < 1:
            continue
        boundary = SimplicialComplexK.from_maximal(
            [s[:i] + s[i + 1 :] for i in range(n + 1)]
        )
        sub = FiniteLocalSystem(
            boundary,
            {t: e.fibers[t] for t in boundary.all_simplices()},
            {
                (t, i): e.facet_restrictions[(t, i)]
                for t in boundary.all_simplices()
                for i, _f in boundary.facets(t)
            },
        )
        kernels, _ = _sections_basis(sub, upto)
        fib = e.fibers[s]
        layout = boundary.all_simplices()
        for k in range(min(upto, fib.cutoff) + 1):
            targets = [
                concat(*[e.restriction(s, tau).mats[k].matvec(unit_vector(fib.dim(k), t)) for tau in layout])
                for t in range(fib.dim(k))
            ]
            cols = kernels[k].coords_many(targets)
            if None in cols:
                raise InternalError("boundary image is not a compatible family")
            r = rank(QMatrix.from_cols(cols, kernels[k].rank))
            if r != kernels[k].rank:
                ok = False
                witnesses.append((s, k, kernels[k].rank, r))
    return ok, witnesses
