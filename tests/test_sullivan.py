import gc
import hashlib
import json
import random
from fractions import Fraction

import pytest

from cdgalab import sullivan
from cdgalab.cdga import (
    DGMorphism,
    FreeCDGA,
    check_d_squared,
    cohomology,
    cohomology_dims,
    is_quasi_iso,
    tensor_product,
    truncate,
)
from cdgalab.errors import InputError, InternalError, PreconditionError
from cdgalab.exactlin import QMatrix
from cdgalab.graded import FreeGCA
from cdgalab.sullivan import loop_model, minimal_model, minimality_check

from fixtures import (
    cp2_formal,
    cp_model,
    power_quotient_dga,
    sphere_even_model,
    sphere_odd_free,
    wedge_of_2_spheres,
)
from helpers import folded_comparison_matrices, naive_rank, representative_quasi_iso, wedge_generator_counts


# -- minimality check ------------------------------------------------------

def test_minimality_cp1():
    assert minimality_check(cp_model(1)) == (True, None)


def test_minimality_linear_differential_fails():
    gca = FreeGCA([("w", 3), ("z", 2), ("c", 2)])
    f = FreeCDGA(gca, {"c": gca.gen("w")}, check=False)
    ok, offender = minimality_check(f)
    assert not ok and offender == "c"


def test_minimality_contractible_pair_fails():
    gca = FreeGCA([("u", 2), ("v", 3)])
    f = FreeCDGA(gca, {"u": gca.gen("v")}, check=False)
    ok, offender = minimality_check(f)
    assert not ok and offender == "u"


# -- minimal models ---------------------------------------------------------

def test_minimal_model_odd_sphere_is_itself():
    target = truncate(sphere_odd_free(3), 8)
    res = minimal_model(target, 7)
    degrees = sorted(g.degree for g in res.model.gca.generators)
    assert degrees == [3]
    (g,) = res.model.gca.generators
    assert res.model.diff[g.name].is_zero()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_minimal_model_cp_n(n):
    cutoff = 2 * n + 3
    target = power_quotient_dga(2, n + 1, cutoff)
    res = minimal_model(target, cutoff - 1)
    gens = sorted(res.model.gca.generators, key=lambda g: g.degree)
    assert len(gens) == 2
    assert gens[0].degree == 2
    assert gens[1].degree == 2 * n + 1
    dy = res.model.diff[gens[1].name]
    # dy = x^{n+1} exactly (up to the canonical representative scaling)
    x_index = res.model.gca.index[gens[0].name]
    assert len(dy.terms) == 1
    ((mono, coeff),) = dy.terms.items()
    assert mono[x_index] == n + 1
    assert sum(mono) == n + 1
    assert coeff == 1


def test_minimal_model_not_1_connected_rejected():
    from fixtures import torus_model

    with pytest.raises(PreconditionError):
        minimal_model(torus_model(3), 2)


def test_minimal_model_idempotent_on_generator_counts():
    target = power_quotient_dga(2, 2, 7)
    res = minimal_model(target, 6)
    again = minimal_model(truncate(res.model, 7), 5)
    assert len(again.model.gca.generators) <= len(res.model.gca.generators)
    degs1 = sorted(g.degree for g in res.model.gca.generators if g.degree <= 5)
    degs2 = sorted(g.degree for g in again.model.gca.generators)
    assert degs2 == degs1


def test_minimal_model_output_is_minimal_and_quasi_iso():
    target = power_quotient_dga(2, 3, 9)
    res = minimal_model(target, 8)
    assert minimality_check(res.model)[0]
    # the comparison was verified inside; spot-check H dims agree
    t = truncate(res.model, 9)
    assert cohomology_dims(t, 7) == cohomology_dims(target, 7)


def test_minimal_model_rejects_a_negative_upto():
    with pytest.raises(InputError, match="upto"):
        minimal_model(cp2_formal(7), -1)


def test_failed_final_check_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(sullivan, "is_quasi_iso", lambda *args, **kwargs: (False, 3))
    with pytest.raises(InternalError, match="quasi-iso at 3"):
        minimal_model(cp2_formal(7), 6)


STAGED_TARGETS = {
    "cp2": (lambda: cp2_formal(9), None),
    "wedge2": (lambda: wedge_of_2_spheres(2, 9), 2),
    "wedge3": (lambda: wedge_of_2_spheres(3, 7), 3),
    "s3xs2": (
        lambda: tensor_product(truncate(sphere_odd_free(3), 8), sphere_even_model(8), cutoff=8),
        None,
    ),
}


@pytest.mark.parametrize("name", sorted(STAGED_TARGETS))
def test_staged_build_matches_a_fresh_truncation(name):
    make, spheres = STAGED_TARGETS[name]
    target = make()
    res = minimal_model(target, target.cutoff - 1)
    # a new FreeCDGA computes every monomial differential afresh
    fresh = truncate(FreeCDGA(res.model.gca, res.model.diff), target.cutoff)
    source = res.comparison.source
    assert [b.keys for b in source.bases] == [b.keys for b in fresh.bases]
    assert source.diff_mats == fresh.diff_mats
    if spheres is not None:
        top = target.cutoff - 2  # the last stage adds no generators that kill classes
        degrees = [g.degree for g in res.model.gca.generators]
        expected = wedge_generator_counts(spheres, top)
        assert {n: degrees.count(n) for n in range(2, top + 1)} == expected


# -- grown algebras ------------------------------------------------------------

def _extends_of_minimal_model(monkeypatch, target):
    """Every algebra ``FreeCDGA._extend`` returns while the model of ``target`` is built."""
    grown = []
    extend = FreeCDGA._extend

    def recording(self, gens, diff):
        grown.append(extend(self, gens, diff))
        return grown[-1]

    monkeypatch.setattr(FreeCDGA, "_extend", recording)
    minimal_model(target, target.cutoff - 1)
    monkeypatch.undo()
    return grown


def _hand_grown_chain():
    """Even generators, then an odd one, then an even and an odd one of different degrees in one call."""
    f = FreeCDGA(FreeGCA([("x", 2), ("z", 2)]), {})
    x, z = f.gca.gen("x"), f.gca.gen("z")
    f = f._extend([("y", 3)], {"y": x * z})
    x = f.gca.gen("x")
    g = f._extend([("w", 4), ("u", 5)], {"u": x * x * x})
    x, z, w = (g.gca.gen(n) for n in ("x", "z", "w"))
    h = g._extend([("t", 5)], {"t": x * w - z * z * z})
    assert check_d_squared(h)[0]
    return [f, g, h]


@pytest.mark.parametrize("case", ["wedge2-11", "cp2-7", "hand"])
def test_a_grown_algebra_truncates_like_one_built_in_one_go(monkeypatch, case):
    if case == "hand":
        grown, cutoff = _hand_grown_chain(), 12
    else:
        target = wedge_of_2_spheres(2, 11) if case == "wedge2-11" else cp2_formal(7)
        grown, cutoff = _extends_of_minimal_model(monkeypatch, target), target.cutoff
    assert grown
    for f in grown:
        gca = FreeGCA(f.gca.generators)
        whole = truncate(FreeCDGA(gca, {n: gca.element(img.terms) for n, img in f.diff.items()}), cutoff)
        part = truncate(f, cutoff)
        assert [b.keys for b in part.bases] == [b.keys for b in whole.bases]
        assert part.diff_mats == whole.diff_mats
        for i in range(cutoff + 1):
            for j in range(cutoff + 1 - i):
                for a in range(part.dim(i)):
                    for b in range(part.dim(j)):
                        assert part.product_basis(i, a, j, b) == whole.product_basis(i, a, j, b)
        # every key is trimmed: bases, differential images and the cached monomial differentials
        keys = [m for basis in part.bases for m in basis.keys]
        keys += [m for img in f.diff.values() for m in img.terms]
        keys += [m for mono, terms in f._mono_d.items() for m in (mono, *terms)]
        assert all(m[-1] for m in keys if m)


# -- loop models ---------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2])
def test_loop_model_cp_n_matches_published_form(n):
    base = cp_model(n)
    lm = loop_model(base)
    degs = sorted(g.degree for g in lm.gca.generators)
    assert degs == sorted([2, 2 * n + 1, 1, 2 * n])
    # d(xbar) = 0 and d(ybar) = (n+1) xbar x^n
    assert lm.diff["x_bar"].is_zero()
    dybar = lm.diff["y_bar"]
    assert len(dybar.terms) == 1
    ((mono, coeff),) = dybar.terms.items()
    assert coeff == n + 1
    x_i = lm.gca.index["x"]
    xbar_i = lm.gca.index["x_bar"]
    assert mono[x_i] == n and mono[xbar_i] == 1


def test_loop_model_zero_differential_sphere():
    lm = loop_model(sphere_odd_free(3))
    degs = sorted(g.degree for g in lm.gca.generators)
    assert degs == [2, 3]
    assert all(img.is_zero() for img in lm.diff.values())


def test_loop_model_cp1_cohomology_dims_with_oracle():
    lm = loop_model(cp_model(1))
    t = truncate(lm, 6)
    dims = cohomology_dims(t, 4)
    assert dims == [1, 1, 1, 1, 1]
    # independent brute-force kernel/image computation on the same bases
    oracle_dims = []
    for k in range(5):
        dk = t.d_matrix(k).to_rows()
        rank_k = naive_rank(dk)
        if k == 0:
            rank_prev = 0
        else:
            rank_prev = naive_rank(t.d_matrix(k - 1).to_rows())
        oracle_dims.append(t.dims[k] - rank_k - rank_prev)
    assert oracle_dims == dims


def test_loop_model_requires_minimal():
    gca = FreeGCA([("u", 2), ("v", 3)])
    f = FreeCDGA(gca, {"u": gca.gen("v")})
    with pytest.raises(PreconditionError):
        loop_model(f)


def test_loop_model_d_squared_and_homotopy_identity():
    # richer base: two even generators and an odd one with nonzero d
    gca = FreeGCA([("a", 2), ("b", 2), ("y", 3)])
    base = FreeCDGA(gca, {"y": gca.gen("a") * gca.gen("b")})
    lm = loop_model(base)
    from cdgalab.cdga import check_d_squared

    ok, _ = check_d_squared(lm)
    assert ok


def test_minimal_model_product_of_spheres():
    from cdgalab.cdga import tensor_product
    from fixtures import sphere_even_model

    target = tensor_product(sphere_even_model(8), sphere_even_model(8), cutoff=8)
    res = minimal_model(target, 7)
    degs = sorted(g.degree for g in res.model.gca.generators)
    assert degs == [2, 2, 3, 3]
    # the degree-3 differentials span the kernel of multiplication: the
    # squares of the two degree-2 generators
    cubes = [res.model.diff[g.name] for g in res.model.gca.generators if g.degree == 3]
    assert all(not c.is_zero() for c in cubes)
    for c in cubes:
        for mono in c.terms:
            assert sum(mono) == 2


# -- pinned models and the depth of the comparison check ----------------------

# sha256 of the S^2 v S^2 model at cutoff 9 and the S^2 v S^2 v S^2 model at
# cutoff 6, recorded before the minimal-model code moved to monomial keys
PINNED_WEDGE_MODELS = "e35530382fd6cca2374a89f99beec308e91c43be1958da14ed8c6d905762e352"


def model_payload(res):
    gens = res.model.gca.generators
    return {
        "generators": [[g.name, g.degree] for g in gens],
        "differentials": [repr(res.model.diff[g.name]) for g in gens],
        "comparison": [
            sorted([r, c, str(v)] for (r, c), v in m.entries.items()) for m in res.comparison.mats
        ],
        "labels": res.comparison.source.labels,
    }


def test_wedge_models_are_pinned():
    payload = [
        model_payload(minimal_model(wedge_of_2_spheres(spheres, cutoff), cutoff - 1))
        for spheres, cutoff in ((2, 9), (3, 6))
    ]
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    assert digest == PINNED_WEDGE_MODELS


@pytest.mark.parametrize(
    "make, upto", [(lambda: wedge_of_2_spheres(2, 9), 8), (lambda: cp2_formal(8), 7)], ids=["wedge2", "cp2"]
)
def test_each_stage_carries_the_cocycle_basis_it_would_recompute(monkeypatch, make, upto):
    from cdgalab.exactlin import kernel_basis

    reads = []
    degree = sullivan._cohomology_degree

    def recording(a, k, cocycles=None):
        assert cocycles.to_cols() == kernel_basis(a.d_matrix(k)), k
        reads.append((k, cocycles))
        return degree(a, k, cocycles)

    monkeypatch.setattr(sullivan, "_cohomology_degree", recording)
    target = make()
    minimal_model(target, upto)
    # stage n reads degree n + 1 below the cutoff, and degree n only where H^n(target) is nonzero
    h_dims = cohomology_dims(target, upto)
    stages = [[k for k in (n, n + 1) if k < target.cutoff and (k > n or h_dims[n])] for n in range(2, upto + 1)]
    assert [k for k, _ in reads] == [k for ks in stages for k in ks]
    # a stage n > 2 that reads degree n reads the basis the stage before carried
    first = {}
    assert all(first.setdefault(k, c) is c for k, c in reads)
    assert len(reads) - len(first) == sum(1 for n in range(3, upto + 1) if h_dims[n])


def _with_entry(h, k, at, value):
    """``h`` with the entry ``at`` of its degree-k matrix set to ``value``, unchecked."""
    m = h.mats[k]
    entries = {key: v for key, v in m.entries.items() if key != at} | ({at: Fraction(value)} if value else {})
    mats = list(h.mats)
    mats[k] = QMatrix(m.rows, m.cols, entries)
    return DGMorphism(h.source, h.target, mats, check="none")


def _wedge_comparison(upto=8):
    return minimal_model(wedge_of_2_spheres(2, 9), upto).comparison


@pytest.mark.parametrize(
    "make, upto, expected",
    [
        (_wedge_comparison, 7, (True, None)),
        (lambda: minimal_model(cp2_formal(7), 6).comparison, 5, (True, None)),
        # v2_1 -> a + b keeps H^2 bijective
        (lambda: _with_entry(_wedge_comparison(), 2, (0, 1), 1), 7, (True, None)),
        # v2_1 -> 0: H^2 has the right dimension on both sides but rank 1
        (lambda: _with_entry(_wedge_comparison(), 2, (1, 1), 0), 7, (False, 2)),
        # x^2 -> 0 in CP^2: degree 2 holds, degree 4 fails by rank
        (lambda: _with_entry(minimal_model(cp2_formal(7), 6).comparison, 4, (0, 0), 0), 5, (False, 4)),
        # generators through degree 2 only: H^4 of the model is 3-dimensional, of the target 0
        (lambda: _wedge_comparison(2), 7, (False, 4)),
    ],
    ids=["wedge2", "cp2", "wedge2-mutated", "wedge2-rank", "cp2-rank", "dims"],
)
def test_quasi_iso_matches_the_representative_check(make, upto, expected):
    h = make()
    assert representative_quasi_iso(h, upto) == expected
    assert is_quasi_iso(h, upto) == expected
    assert is_quasi_iso(h, upto, source_h=cohomology(h.source, upto)) == expected


def _compared_pairs(comparison) -> int:
    """The basis pairs of the source whose product degree is nonzero in the target."""
    src, tgt, cap = comparison.source, comparison.target, comparison.cap
    return sum(
        src.dim(i) * src.dim(j)
        for i in range(cap + 1)
        for j in range(i, cap + 1 - i)
        if tgt.dim(i + j)
    )


def test_small_comparison_is_checked_in_full():
    res = minimal_model(cp2_formal(7), 6)
    assert res.comparison.check_mode == "full"
    # CP^2 is Q in degrees 0, 2 and 4: 1 (0,0) pair, 1 (0,2), 1 (0,4) and 1 (2,2)
    assert res.comparison.pairs_checked == _compared_pairs(res.comparison) == 4


@pytest.fixture(scope="module")
def wedge12_source():
    res = minimal_model(wedge_of_2_spheres(2, 12), 11)
    # the target is zero above degree 2, so the comparison compares only 3 pairs
    assert (res.comparison.check_mode, res.comparison.pairs_checked) == ("full", _compared_pairs(res.comparison))
    return res.comparison.source


def test_large_comparison_is_checked_in_full(wedge12_source):
    src = wedge12_source
    ident = DGMorphism(src, src, [QMatrix.identity(src.dim(k)) for k in range(src.cutoff + 1)])
    assert (ident.check_mode, ident.pairs_checked) == ("full", _compared_pairs(ident)) == ("full", 4354)


def test_a_doubled_basis_element_outside_the_image_of_d_is_not_multiplicative(wedge12_source):
    src = wedge12_source
    mats = [QMatrix.identity(src.dim(k)) for k in range(src.cutoff + 1)]
    # row 156 of d_11 is zero, so doubling basis element 156 of degree 12 still commutes with d
    assert not any(r == 156 for r, _ in src.d_matrix(11).entries)
    mats[12] = QMatrix(mats[12].rows, mats[12].cols, {**mats[12].entries, (156, 156): 2})
    with pytest.raises(InputError, match=r"not multiplicative on basis pair \(2,0\),\(10,156\)"):
        DGMorphism(src, src, mats)


@pytest.mark.parametrize(
    "make, upto", [(lambda: wedge_of_2_spheres(2, 9), 8), (lambda: cp2_formal(7), 6)], ids=["wedge2", "cp2"]
)
def test_comparison_matrices_match_the_plain_fold_in_every_degree(monkeypatch, make, upto):
    from cdgalab.cdga import TruncatedDGA

    target = make()
    # no product of the construction or its checks lands in a degree where the target is zero
    degrees = []
    multiply = TruncatedDGA.multiply

    def recording(self, i, va, j, vb):
        if self is target:
            degrees.append(i + j)
        return multiply(self, i, va, j, vb)

    monkeypatch.setattr(TruncatedDGA, "multiply", recording)
    res = minimal_model(target, upto)
    assert degrees and all(target.dim(k) for k in degrees)
    monkeypatch.undo()
    trunc, mats = res.comparison.source, res.comparison.mats
    gens = res.model.gca.generators
    phi = {}
    for n, g in enumerate(gens):
        key = (0,) * n + (1,)
        phi[g.name] = (g.degree, mats[g.degree].column(trunc.bases[g.degree].index[key]))
    every = range(target.cutoff + 1)
    folded = sullivan._comparison_matrices(res.model, trunc, target, phi, every)
    assert folded == folded_comparison_matrices(res.model, trunc, target, phi, every)
    assert list(folded.values()) == mats


def test_a_minimal_model_leaves_no_reference_cycles():
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        minimal_model(wedge_of_2_spheres(2, 9), 8)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_unchecked_morphism_records_no_pairs():
    from cdgalab.cdga import DGMorphism

    ident = DGMorphism.identity(cp2_formal(5))
    assert (ident.check_mode, ident.pairs_checked) == ("none", 0)


@pytest.mark.parametrize("spheres, cutoff", [(2, 9), (3, 6), (2, 11)])
def test_wedge_comparison_checks_every_pair(spheres, cutoff):
    comparison = minimal_model(wedge_of_2_spheres(spheres, cutoff), cutoff - 1).comparison
    # the wedge is Q in degree 0 and Q^spheres in degree 2: the (0,0) pair and the spheres (0,2) pairs
    pairs = _compared_pairs(comparison)
    assert pairs == 1 + spheres
    assert (comparison.check_mode, comparison.pairs_checked) == ("full", pairs)


def test_a_comparison_with_one_mutated_entry_is_not_multiplicative():
    from cdgalab.cdga import DGMorphism

    res = minimal_model(cp2_formal(7), 6)
    comparison = res.comparison
    assert comparison.check_mode == "full" and comparison.pairs_checked > 0
    # x^2 -> 2 x^2 in degree 4 still commutes with both differentials (zero there)
    square = comparison.source.bases[4].index[(2,)]
    mats = list(comparison.mats)
    (row,) = [r for (r, c) in mats[4].entries if c == square]
    mats[4] = QMatrix(mats[4].rows, mats[4].cols, {**mats[4].entries, (row, square): 2 * mats[4].entries[(row, square)]})
    DGMorphism(comparison.source, comparison.target, comparison.mats)
    with pytest.raises(InputError, match="not multiplicative on basis pair \\(2,0\\),\\(2,0\\)"):
        DGMorphism(comparison.source, comparison.target, mats)
