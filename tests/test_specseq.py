import random
from fractions import Fraction

import pytest

from cdgalab.cdga import (
    BlockSum,
    DGMorphism,
    TruncatedDGA,
    _require_basis_levels,
    cohomology,
    cohomology_dims,
    direct_sum,
    from_tables,
    point_dga,
    power_quotient_dga,
    tensor_product,
    truncate,
)
from cdgalab.cdga import FreeCDGA
from cdgalab.errors import InputError, InternalError
from cdgalab.exactlin import ONE, KernelBasis, KeyedBasis, QMatrix, ZERO, kernel_basis, rank, unit_vector
from cdgalab.gluing import _kernel_carrier, fiber_product, mayer_vietoris, suspension_triple
from cdgalab.graded import FreeGCA
from cdgalab.localsys import (
    FiniteLocalSystem,
    SystemMorphism,
    constant_system,
    forms_system,
    global_sections,
    tensor_system,
    twist_restriction,
)
from cdgalab.polyforms import (
    PolyForm,
    boundary_complex,
    cycle_complex,
    forms_dga,
    form_basis,
    standard_complex,
)
from cdgalab.specseq import (
    FilteredComplex,
    Page,
    PageTower,
    SpectralSequence,
    _own_levels,
    e2_check,
    einfty_vs_target,
    page_consistency,
    pages,
    skeletal_filtration,
    triple_morphism_pages,
)

from fixtures import cp2_formal, sphere_even_model
import helpers
from helpers import (
    PerEntryTower,
    level_rows,
    random_filtered_complex,
    same_span,
    spans_agree,
    stacked_level_subspace,
    stacked_z_basis,
)
from test_localsys import odd_generator_fiber, sign_automorphism


def one_step_filtered(alg: TruncatedDGA) -> FilteredComplex:
    return FilteredComplex(algebra=alg, p_bound=0)


def tensor_sign_twist(fiber: TruncatedDGA, z_degree: int) -> DGMorphism:
    """Automorphism of forms (x) wedge(z) negating the z component."""
    mats = []
    for k in range(fiber.cutoff + 1):
        entries = {}
        for t, (i, ia, j, jb) in enumerate(fiber.bases[k].keys):
            entries[(t, t)] = Fraction(-1) if j == z_degree else ONE
        mats.append(QMatrix(fiber.dim(k), fiber.dim(k), entries))
    return DGMorphism(fiber, fiber, mats)


# -- core tower mechanics ----------------------------------------------------

def test_trivial_filtration_collapses_to_cohomology():
    alg = sphere_even_model(5)
    fc = one_step_filtered(alg)
    pgs = pages(fc, 2, p_max=0, q_max=3)
    h = cohomology_dims(alg, 3)
    for q in range(4):
        assert pgs[1].dim(0, q) == h[q]
        assert pgs[2].dim(0, q) == h[q]
    assert page_consistency(pgs) == []


def mapping_cone_filtered(f, g, upto: int) -> FilteredComplex:
    """Cone of (f - g): A (+) B -> C with the two-step filtration F^1 = C-part.

    The C-part has level 1 and the A (+) B part level 0.

    The cone is only a cochain complex; a placeholder unit and empty product
    keep the container happy, and no page computation touches products.
    """
    a, b, c = f.source, g.source, f.target
    dims = [
        a.dim(n) + b.dim(n) + (c.dim(n - 1) if n >= 1 else 0) for n in range(upto + 1)
    ]
    diff_mats = []
    for n in range(upto):
        entries = {}
        ab_n = a.dim(n) + b.dim(n)
        ab_n1 = a.dim(n + 1) + b.dim(n + 1)
        for (r, cc), v in a.d_matrix(n).entries.items():
            entries[(r, cc)] = v
        for (r, cc), v in b.d_matrix(n).entries.items():
            entries[(a.dim(n + 1) + r, a.dim(n) + cc)] = v
        for (r, cc), v in f.mats[n].entries.items():
            entries[(ab_n1 + r, cc)] = v
        for (r, cc), v in g.mats[n].entries.items():
            entries[(ab_n1 + r, a.dim(n) + cc)] = entries.get(
                (ab_n1 + r, a.dim(n) + cc), ZERO
            ) - v
        if n >= 1:
            for (r, cc), v in c.d_matrix(n - 1).entries.items():
                entries[(ab_n1 + r, ab_n + cc)] = -v
        diff_mats.append(QMatrix(dims[n + 1], dims[n], entries))
    cone = from_tables(
        upto,
        dims,
        unit_vector(dims[0], 0),
        diff_mats,
        {},
        levels=[
            [0] * (a.dim(n) + b.dim(n)) + [1] * (dims[n] - a.dim(n) - b.dim(n))
            for n in range(upto + 1)
        ],
        check=True,
        name="cone",
    )
    return FilteredComplex(algebra=cone, p_bound=1)


def test_two_step_cone_filtration_encodes_les_of_circle():
    from test_gluing import circle_legs

    f, g = circle_legs(total=3, cutoff=5)
    fp = fiber_product(f, g, 4)
    fc = mapping_cone_filtered(f, g, 4)
    assert fc.validate() == []
    pgs = pages(fc, 3, p_max=1, q_max=2)
    assert page_consistency(pgs) == []
    # E_2 totals reassemble H(fiber product) = H(S^1)
    h_fp = cohomology_dims(fp.carrier, 2)
    for k in range(3):
        total = sum(pgs[2].dim(p, k - p) for p in range(0, 2))
        assert total == h_fp[k]
    # the E_2 column p = 1 is the image of the connecting map
    mv = mayer_vietoris(fp, 3)
    assert pgs[2].dim(1, 0) == mv.connecting_rank(0) == 1


def test_page_consistency_names_the_entry_that_disagrees():
    cur = Page(r=0, entries={(0, 0): 2}, diffs={(0, 0): QMatrix.zero(0, 2)})
    nxt = Page(r=1, entries={(0, 0): 1})
    assert page_consistency([cur, nxt]) == ["E_1^(0,0) = 1 but H(E_0) gives 2"]


def _circle_tensor_system():
    return tensor_system(forms_system(cycle_complex(3), 2, cutoff=5), sphere_even_model(4), cutoff=5)


def _small_suspension_system():
    from test_acceptance import _suspension_fp_system

    e, _ = _suspension_fp_system(
        boundary_complex(3), sphere_even_model(6), upto=4, forms_total=2, forms_cutoff=3, sys_cutoff=4
    )
    return e


def test_sum_and_tensor_refuse_a_carrier_filtration_levels_cannot_hold():
    e = _small_suspension_system()
    top = e.fibers[max(e.base.all_simplices(), key=len)]
    assert top.ambient is not None
    assert [len(kernel_basis(level_rows(top, k, 1))) for k in range(4)] == [0, 12, 8, 1]
    point = point_dga(3)
    for build in (
        lambda: direct_sum(top, top),
        lambda: direct_sum(point, top),
        lambda: tensor_product(top, point, cutoff=3),
    ):
        with pytest.raises(InputError, match="per-basis levels"):
            build()
    # levels come from the first tensor factor only
    assert tensor_product(point, top, cutoff=3).dims == top.dims[:4]
    # a carrier with a trivial filtration keeps working
    plain = fiber_product(*suspension_triple(sphere_even_model(5), 3), 3).carrier
    assert plain.ambient is not None
    assert not any(kernel_basis(level_rows(plain, k, 1)) for k in range(plain.cutoff + 1))
    assert direct_sum(plain, plain).dims == [2 * d for d in plain.dims]
    assert tensor_product(plain, point, cutoff=3).dims == plain.dims[:4]


def test_the_carrier_guard_agrees_with_the_row_oracle():
    """The guard refuses a carrier exactly where the row oracle finds an element of level >= 1,
    on carriers of leaves and on carriers of carriers."""
    e = _small_suspension_system()
    plain = fiber_product(*suspension_triple(sphere_even_model(5), 3), 3).carrier
    carriers = list({id(f): f for f in e.fibers.values()}.values())
    carriers += [plain, global_sections(e, 3), global_sections(constant_system(boundary_complex(2), plain), 3)]
    # a degree-1 carrier spanned by e0 + e1 and e0 + e2 over a leaf with levels 0, 1, 1: its
    # columns cut below level 1 are nonzero but dependent, and e1 - e2 has level 1
    leaf = from_tables(
        1, [1, 3], (ONE,), [None],
        {(0, 0, 0, 0): (ONE,), **{(0, 0, 1, b): unit_vector(3, b) for b in range(3)}},
        levels=[[0], [0, 1, 1]],
    )
    kernels = [KernelBasis(QMatrix.zero(0, 1)), KernelBasis(QMatrix.from_rows([[1, -1, -1]]))]
    carriers.append(_kernel_carrier(kernels, BlockSum((leaf,), 1), "mixed"))
    verdicts = []
    for alg in carriers:
        oracle = any(kernel_basis(level_rows(alg, k, 1)) for k in range(alg.cutoff + 1))
        try:
            _require_basis_levels(alg, alg.cutoff)
        except InputError:
            verdicts.append((True, oracle))
        else:
            verdicts.append((False, oracle))
    assert all(refused == oracle for refused, oracle in verdicts)
    assert {refused for refused, _ in verdicts} == {True, False}


@pytest.mark.parametrize("make, upto", [(_circle_tensor_system, 4), (_small_suspension_system, 3)])
def test_levels_and_cycles_span_the_stacked_preimages(make, upto):
    fc = skeletal_filtration(make(), upto)
    alg, p_bound = fc.algebra, fc.p_bound
    oracle = {(p, k): [] for p in range(p_bound + 2) for k in range(upto + 1)}
    for p in range(p_bound + 1):
        for k in range(upto + 1):
            oracle[(p, k)] = stacked_level_subspace(alg, k, p)
            assert same_span(kernel_basis(level_rows(alg, k, p)), oracle[(p, k)])
            assert same_span(fc.subspace(p, k), oracle[(p, k)])
    assert any(oracle[(p_bound, k)] for k in range(upto + 1))
    tower = PageTower(fc)
    for p in range(p_bound + 1):
        for t in range(p + 1, p_bound + 2):
            for n in range(upto):
                z = stacked_z_basis(alg, oracle[(p, n)], oracle[(t, n + 1)], n)
                assert same_span(tower.z_basis(p, t, n), z)


def test_default_page_window_holds_only_computable_entries():
    fc = skeletal_filtration(_small_suspension_system(), 3)
    assert (fc.p_bound, fc.algebra.cutoff) == (2, 3)
    pgs = pages(fc, 3)
    assert sorted(pgs[0].entries) == [(0, 0), (1, 0), (2, 0)]
    assert page_consistency(pgs) == []
    # E_1^{1,2} sits at the cutoff, where d is not stored and F^1 is nonzero
    with pytest.raises(InputError, match="below the cutoff 3"):
        pages(fc, 2, p_max=2, q_max=2)
    # E_0 = F^p / F^{p+1} needs no differential, so it reaches the cutoff
    e0 = pages(fc, 0, p_max=2, q_max=2)[0]
    assert e0.dim(2, 1) == len(fc.subspace(2, 3)) > 0


def _leaky_cube_algebra():
    """Q[x]/(x^3) with x and x^2 both at level 1: d = 0 keeps every F^p, but x * x = x^2
    must lie in F^2 = 0."""
    base = power_quotient_dga(2, 3, 5)
    return TruncatedDGA(
        base.cutoff, base.dims, base.unit, base.diff_mats, base._terms, levels=[[0], [], [1], [], [1], []]
    )


def test_a_filtration_whose_products_leave_it_is_rejected():
    fc = FilteredComplex(algebra=_leaky_cube_algebra(), p_bound=2)
    assert fc.validate() == ["product of F^1 and F^1 leaves F^2 on adapted basis pair (2,0),(2,0)"]
    with pytest.raises(InputError, match=r"leaves F\^2"):
        pages(fc, 1)


def _leaky_fiber_product():
    """The pullback of Q[y]/(y^3), y and y^2 at level 2, and the leaky cube over their
    augmentations: two leaves whose levels differ at the same local coordinates."""
    base = cp2_formal(5)
    a = TruncatedDGA(
        base.cutoff, base.dims, base.unit, base.diff_mats, base._terms, levels=[[0], [], [2], [], [2], []]
    )
    b, point = _leaky_cube_algebra(), point_dga(5)
    f, g = (
        DGMorphism(x, point, [QMatrix.identity(1)] + [QMatrix.zero(0, x.dim(k)) for k in range(1, 6)])
        for x in (a, b)
    )
    return FilteredComplex(fiber_product(f, g, 5).carrier, 2)


@pytest.mark.parametrize(
    "build, problems",
    [
        (_leaky_fiber_product, 2),
        (lambda: skeletal_filtration(hopf_like_system(), 4), 0),
        (lambda: skeletal_filtration(_small_suspension_system(), 4), 0),
        (lambda: FilteredComplex(algebra=_leaky_cube_algebra(), p_bound=2), 1),
        # the leaky fiber under sections: the failing products are read off the leaves
        (lambda: FilteredComplex(global_sections(constant_system(cycle_complex(3), _leaky_cube_algebra()), 4), 2), 1),
    ],
    ids=["leaky-fiber-product", "hopf-like", "suspension", "leaky-cube", "leaky-cube-sections"],
)
def test_validate_multiplies_leaf_by_leaf_as_the_dense_products_do(build, problems):
    fc = build()
    got = fc.validate()
    assert got == helpers.dense_filtration_problems(fc)
    assert len(got) == problems


def test_first_quadrant_support_and_collapse_bound():
    e = forms_system(cycle_complex(3), 2, cutoff=4)
    fc = skeletal_filtration(e, 3)
    assert fc.validate() == []
    tower = PageTower(fc)
    for p in range(0, 3):
        for q in range(-1, 3):
            if q < 0:
                assert tower.entry(2, p, q)[0] == 0
    # d_r vanishes for r > dim(base) + 1 = 2
    for r in (3, 4):
        for p in range(0, 2):
            for q in range(0, 2):
                assert tower.diff(r, p, q).is_zero()


def test_skeletal_filtration_single_vertex():
    e = forms_system(standard_complex(0), 2, cutoff=2)
    fc = skeletal_filtration(e, 2)
    assert fc.p_bound == 0
    g = global_sections(e, 2)
    assert fc.algebra.dims == g.dims


# -- E2 comparisons -------------------------------------------------------------

def test_e2_constant_coefficients_circle():
    e = forms_system(cycle_complex(3), 2, cutoff=4)
    rep = e2_check(e, 1, 1)
    assert rep.ok(), rep.mismatches
    assert rep.dims_pages[(0, 0)] == 1
    assert rep.dims_pages[(1, 0)] == 1
    assert rep.dims_pages[(0, 1)] == 0


def test_e2_circle_with_fiber_classes():
    F = odd_generator_fiber(2, 4)  # wedge(z), |z| = 2... use cp-like instead
    F = sphere_even_model(4)
    e = tensor_system(forms_system(cycle_complex(3), 2, cutoff=5), F, cutoff=5)
    rep = e2_check(e, 1, 2)
    assert rep.ok(), rep.mismatches
    assert rep.dims_pages[(0, 2)] == 1
    assert rep.dims_pages[(1, 2)] == 1


def test_einfty_builds_each_product_check_space_once(monkeypatch):
    from test_acceptance import criterion_09_system_b

    built = []
    space = PageTower._cocycle_space
    monkeypatch.setattr(PageTower, "_cocycle_space", lambda self, p, n: built.append((p, n)) or space(self, p, n))
    rep = einfty_vs_target(criterion_09_system_b(), 4)
    assert (rep.product_checks, rep.products_skipped, rep.product_failures) == (12, 0, [])
    assert sorted(built) == [(0, 0), (1, 1), (2, 2)]


def test_e2_sign_twisted_rows_vanish():
    base = cycle_complex(3)
    F = odd_generator_fiber(3, 5)
    e = tensor_system(forms_system(base, 2, cutoff=6), F, cutoff=6)
    fiber = e.fibers[base.simplices_of_dim(0)[0]]
    # twist the restriction of edge (0,2) onto vertex 0
    twisted = twist_restriction(e, (0, 2), 0, tensor_sign_twist(e.fibers[(0,)], 3))
    rep = e2_check(twisted, 1, 3)
    assert rep.ok(), rep.mismatches
    assert rep.dims_pages[(0, 0)] == 1 and rep.dims_pages[(1, 0)] == 1
    assert rep.dims_pages[(0, 3)] == 0 and rep.dims_pages[(1, 3)] == 0
    del fiber


def test_einfty_totals_constant_system_over_contractible_base():
    F = sphere_even_model(5)
    e = tensor_system(forms_system(standard_complex(1), 2, cutoff=5), F, cutoff=5)
    rep = einfty_vs_target(e, 3)
    assert rep.ok(), (rep.mismatches, rep.product_failures)
    tower_totals = rep.totals_pages
    assert tower_totals[0] == 1 and tower_totals[2] == 1


def test_einfty_totals_circle_base():
    F = sphere_even_model(5)
    e = tensor_system(forms_system(cycle_complex(3), 2, cutoff=5), F, cutoff=5)
    rep = einfty_vs_target(e, 3)
    assert rep.ok(), (rep.mismatches, rep.product_failures)
    assert rep.totals_pages == rep.totals_target
    assert rep.totals_pages[3] == 1  # [S^1] x [S^2]


# -- an engineered nonzero d2 -----------------------------------------------------

def line_bundle_system(base, D: int, cutoff: int, euler: dict) -> FiniteLocalSystem:
    """Fibers forms (x) (1, t), |t| = 1, with d t = euler 2-form component.

    The 1-part keeps forms of total degree <= D, the t-part forms of total
    degree <= D - 2 so the twisted differential d(a (x) t) = da (x) t +
    (-1)^{|a|} a ^ w closes on the truncation.  ``euler`` maps simplices to
    the closed 2-form components of a compatible family w.
    """
    from cdgalab.polyforms import d as pf_d, face_restrict

    def keyform(n, key):
        return PolyForm(n, {key: ONE})

    def terms(one_part: PolyForm, t_part: PolyForm) -> dict:
        """Keys (0, key) for key (x) 1 and (1, key) for key (x) t."""
        out = {(0, key): c for key, c in one_part.terms.items()}
        out.update({(1, key): c for key, c in t_part.terms.items()})
        return out

    fibers = {}
    for s in base.all_simplices():
        n = len(s) - 1
        w = euler.get(s, PolyForm.zero(n))
        zero = PolyForm.zero(n)
        bases = [
            KeyedBasis(
                [(0, key) for key in form_basis(n, D, k)]
                + [(1, key) for key in (form_basis(n, D - 2, k - 1) if k else [])]
            )
            for k in range(cutoff + 1)
        ]

        diff_mats = []
        for k in range(cutoff):
            images = []
            for part, key in bases[k].keys:
                a_form = keyform(n, key)
                if part == 0:
                    images.append(terms(pf_d(a_form), zero))
                else:
                    sign = -1 if (k - 1) % 2 else 1
                    images.append(terms(sign * (a_form * w), pf_d(a_form)))
            diff_mats.append(bases[k + 1].matrix(images))

        def mult_fn(i, x, j, y, n=n, bases=bases, zero=zero):
            (x_t, x_key), (y_t, y_key) = bases[i].keys[x], bases[j].keys[y]
            if x_t and y_t:
                return ()
            prod = keyform(n, x_key) * keyform(n, y_key)
            if not x_t and not y_t:
                if prod.total_degree() > D:
                    return None
                product = terms(prod, zero)
            else:
                if x_t and j % 2:
                    prod = -1 * prod
                if prod.total_degree() > D - 2:
                    return None
                product = terms(zero, prod)
            return [(bases[i + j].index[key], c) for key, c in product.items()]

        fibers[s] = TruncatedDGA(
            cutoff,
            [len(basis) for basis in bases],
            unit_vector(len(bases[0]), 0),
            diff_mats,
            mult_fn,
            levels=[[len(key[1]) for _, key in basis.keys] for basis in bases],
            bases=bases,
            check=True,
            name=f"line({s})",
        )

    restr = {}
    for s in base.all_simplices():
        n = len(s) - 1
        for i, face in base.facets(s):
            src, tgt = fibers[s], fibers[face]
            mats = []
            for k in range(cutoff + 1):
                images = [
                    {(part, tkey): v for tkey, v in face_restrict(keyform(n, key), i).terms.items()}
                    for part, key in src.bases[k].keys
                ]
                mats.append(tgt.bases[k].matrix(images))
            restr[(s, i)] = DGMorphism(src, tgt, mats, check="none")
    return FiniteLocalSystem(base, fibers, restr)


def hopf_like_system(total_cutoff=4, cutoff=4):
    base = boundary_complex(3)
    top = (0, 1, 2)
    w = PolyForm(2, {((0, 0), (1, 2)): Fraction(1)})
    euler = {top: w}
    return line_bundle_system(base, total_cutoff, cutoff, euler)


def test_line_bundle_has_nonzero_d2_and_matching_totals():
    e = hopf_like_system()
    from cdgalab.localsys import is_locally_constant, validate

    assert validate(e) == []
    assert is_locally_constant(e, 2)
    fc = skeletal_filtration(e, 4)
    tower = PageTower(fc)
    d2 = tower.diff(2, 0, 1)
    assert rank(d2) == 1  # the Euler pairing kills [t] against the base class
    rep = einfty_vs_target(e, 3)
    assert rep.ok(), (rep.mismatches, rep.product_failures)
    assert rep.totals_pages == {0: 1, 1: 0, 2: 0, 3: 1}
    rep2 = e2_check(e, 2, 1)
    assert rep2.ok(), rep2.mismatches
    assert rep2.dims_pages[(0, 1)] == 1 and rep2.dims_pages[(2, 0)] == 1


# -- naturality ----------------------------------------------------------------

def test_triple_morphism_identity():
    e = forms_system(cycle_complex(3), 2, cutoff=4)
    ident = SystemMorphism(e, e, {s: DGMorphism.identity(e.fibers[s]) for s in e.base.all_simplices()})
    pm = triple_morphism_pages(ident, 3, 2)
    assert pm.ok(), pm.failures
    for (r, p, q), mat in pm.psi.items():
        assert mat == QMatrix.identity(mat.rows)


def test_section_image_outside_the_target_sections_is_internal(monkeypatch):
    # validate() passes a morphism that doubles one vertex fiber only; the
    # image of the unit section is then not a compatible family
    e = forms_system(cycle_complex(3), 2, cutoff=4)
    maps = {s: DGMorphism.identity(e.fibers[s]) for s in e.base.all_simplices()}
    v = e.base.all_simplices()[0]
    maps[v] = DGMorphism(e.fibers[v], e.fibers[v], [m.scale(2) for m in maps[v].mats], check="none")
    morph = SystemMorphism(e, e, maps)
    assert morph.validate()
    monkeypatch.setattr(SystemMorphism, "validate", lambda self: [])
    with pytest.raises(InternalError, match="section image is not a compatible family"):
        triple_morphism_pages(morph, 3, 2)


def test_triple_morphism_projection_surjective_on_pages():
    base = cycle_complex(3)
    F = sphere_even_model(5)
    forms = forms_system(base, 2, cutoff=4)
    prod = tensor_system(forms, F, cutoff=4)
    # projection: forms (x) F -> forms by the augmentation F -> Q
    maps = {}
    for s in base.all_simplices():
        src = prod.fibers[s]
        tgt = forms.fibers[s]
        mats = []
        for k in range(min(src.cutoff, tgt.cutoff) + 1):
            entries = {}
            for col, (i, ia, j, jb) in enumerate(src.bases[k].keys):
                if j == 0 and jb == 0:
                    entries[(ia, col)] = ONE
            mats.append(QMatrix(tgt.dim(k), src.dim(k), entries))
        maps[s] = DGMorphism(src, tgt, mats)
    proj = SystemMorphism(prod, forms, maps)
    pm = triple_morphism_pages(proj, 3, 2)
    assert pm.ok(), pm.failures
    # on the q = 0 row the induced map is onto
    for p in range(0, 2):
        mat = pm.psi[(2, p, 0)]
        assert rank(mat) == mat.rows


def test_psi_next_induced_by_psi_previous():
    e = forms_system(cycle_complex(3), 2, cutoff=4)
    ident = SystemMorphism(e, e, {s: DGMorphism.identity(e.fibers[s]) for s in e.base.all_simplices()})
    pm = triple_morphism_pages(ident, 3, 3)
    # with identity everywhere this reduces to checking the towers agree
    for (r, p, q), mat in pm.psi.items():
        assert mat.rows == mat.cols


def test_psi_next_is_induced_from_psi_previous_projection():
    # explicit matrix identity: expressing an E_{r+1} representative in the
    # E_r basis, mapping by Psi_r and reading the class at page r+1 agrees
    # with the directly computed Psi_{r+1}
    base = cycle_complex(3)
    F = sphere_even_model(5)
    forms = forms_system(base, 2, cutoff=4)
    prod = tensor_system(forms, F, cutoff=4)
    maps = {}
    for s in base.all_simplices():
        src = prod.fibers[s]
        tgt = forms.fibers[s]
        mats = []
        for k in range(min(src.cutoff, tgt.cutoff) + 1):
            entries = {}
            for col, (i, ia, j, jb) in enumerate(src.bases[k].keys):
                if j == 0 and jb == 0:
                    entries[(ia, col)] = ONE
            mats.append(QMatrix(tgt.dim(k), src.dim(k), entries))
        maps[s] = DGMorphism(src, tgt, mats)
    proj = SystemMorphism(prod, forms, maps)
    pm = triple_morphism_pages(proj, 3, 2)
    assert pm.ok()
    for (r, p, q), mat in sorted(pm.psi.items()):
        if r == 0 or (r + 1, p, q) not in pm.psi:
            continue
        nxt = pm.psi[(r + 1, p, q)]
        dim_next, reps_next, _ = pm.source_tower.entry(r + 1, p, q)
        for c, v in enumerate(reps_next):
            # map through gamma and read the class on page r+1 directly
            img = pm.gamma_mats[p + q].matvec(v)
            direct = pm.target_tower.class_in_entry(r + 1, p, q, img)
            # and through Psi_r: express v at page r, map, lift, read class
            cls_r = pm.source_tower.class_in_entry(r, p, q, v)
            mapped = mat.matvec(cls_r)
            _, reps_r_t, _ = pm.target_tower.entry(r, p, q)
            lift = [ZERO] * pm.target_tower.fc.algebra.dim(p + q)
            for t, coef in enumerate(mapped):
                if coef:
                    for rr, x in enumerate(reps_r_t[t]):
                        lift[rr] += coef * x
            via_r = pm.target_tower.class_in_entry(r + 1, p, q, tuple(lift))
            assert via_r == direct == tuple(nxt.column(c))


def test_e2_serre_instance_over_sphere_base():
    # trivial triple over the 2-sphere base: a Serre-type instance with an
    # even fiber carrying classes in degrees 2 and 4
    from fixtures import cp2_formal

    F = cp2_formal(8)
    e = tensor_system(forms_system(boundary_complex(3), 3, cutoff=8), F, cutoff=8)
    rep = e2_check(e, 2, 4)
    assert rep.ok(), rep.mismatches
    for q in (0, 2, 4):
        assert rep.dims_pages[(0, q)] == 1
        assert rep.dims_pages[(1, q)] == 0
        assert rep.dims_pages[(2, q)] == 1
    tot = einfty_vs_target(e, 4)
    assert tot.ok(), (tot.mismatches, tot.product_failures)
    assert tot.totals_pages == {0: 1, 1: 0, 2: 2, 3: 0, 4: 2}


def test_e2_odd_fiber_torus_instance():
    # circle fiber over the circle base: both pages of the torus
    gca = FreeGCA([("z", 1)])
    Fz = truncate(FreeCDGA(gca, {}), 6)
    e = tensor_system(forms_system(cycle_complex(3), 2, cutoff=6), Fz, cutoff=6)
    rep = e2_check(e, 1, 1)
    assert rep.ok(), rep.mismatches
    assert rep.dims_pages == {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
    tot = einfty_vs_target(e, 2)
    assert tot.ok()
    assert tot.totals_pages == {0: 1, 1: 2, 2: 1}


def test_page_consistency_on_nonzero_d2_tower():
    e = hopf_like_system()
    fc = skeletal_filtration(e, 4)
    pgs = pages(fc, 4, p_max=2, q_max=2)
    assert page_consistency(pgs) == []


def test_class_in_entry_matches_a_fresh_solve_on_a_real_tower():
    # denominators of page entries are dependent spanning sets; only the
    # coordinates on the representatives are determined, and must agree
    from cdgalab.exactlin import solve

    F = sphere_even_model(4)
    e = tensor_system(forms_system(cycle_complex(3), 2, cutoff=5), F, cutoff=5)
    tower = PageTower(skeletal_filtration(e, 4))
    alg = tower.fc.algebra
    rng = random.Random(5)
    checked = 0
    refused = set()
    for r in range(4):
        for p in range(2):
            for q in range(3):
                dim_e, reps, denom = tower.entry(r, p, q)
                cols = list(reps) + list(denom)
                n = alg.dim(p + q)
                # a vector outside the entry's span is refused, with the empty entry's own message
                span = QMatrix.from_cols(cols, n)
                outside = [unit_vector(n, a) for a in range(n) if not cols or solve(span, unit_vector(n, a)) is None]
                if outside:
                    message = "does not lie in the page entry" if cols else "no expression in an empty page entry"
                    with pytest.raises(InputError, match=message):
                        tower.class_in_entry(r, p, q, outside[0])
                    refused.add(message)
                if not cols:
                    assert tower.class_in_entry(r, p, q, (ZERO,) * n) == ()
                    continue
                for _ in range(3):
                    x = [ZERO] * n
                    for v in cols:
                        c = Fraction(rng.randint(-2, 2))
                        x = [a + c * b for a, b in zip(x, v)]
                    assert tower.class_in_entry(r, p, q, tuple(x)) == solve(span, tuple(x))[:dim_e]
                    checked += 1
    assert checked and len(refused) == 2


def test_e2_check_tests_local_constancy_and_fiber_cohomology_once(monkeypatch):
    from cdgalab import localsys

    calls = {"locally_constant": 0, "fiber_cohomologies": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        localsys, "is_locally_constant", counting("locally_constant", localsys.is_locally_constant)
    )
    monkeypatch.setattr(
        localsys,
        "_fiber_cohomologies",
        counting("fiber_cohomologies", localsys._fiber_cohomologies),
    )
    assert e2_check(forms_system(cycle_complex(3), 2, cutoff=4), 1, 1).ok()
    assert calls == {"locally_constant": 1, "fiber_cohomologies": 1}


def test_e2_check_rejects_a_system_that_is_not_locally_constant():
    fiber = truncate(FreeCDGA(FreeGCA([("z", 1)]), {}), 4)
    e = constant_system(cycle_complex(3), fiber)
    mats = [QMatrix.identity(1)] + [QMatrix.zero(fiber.dim(k), fiber.dim(k)) for k in range(1, 5)]
    restr = dict(e.facet_restrictions)
    restr[((0, 1), 0)] = DGMorphism(fiber, fiber, mats, check="none")
    with pytest.raises(InputError, match="locally constant"):
        e2_check(FiniteLocalSystem(e.base, dict(e.fibers), restr), 1, 1)


# -- the reduction against the per-entry tower -------------------------------------

def _combination(rng, vectors, dim):
    acc = [Fraction(0)] * dim
    for v in vectors:
        c = rng.randint(-2, 2)
        if c:
            acc = [a + c * x for a, x in zip(acc, v)]
    return tuple(acc)


def assert_tower_matches_oracle(fc, rng) -> dict:
    """Every entry of the computable window against :class:`PerEntryTower`.

    Dimensions for r = 0 .. r_inf, the same representatives in the same order,
    denominators with the same span, and equal classes and d_r.  Returns the
    rank of each d_r summed over the window.
    """
    tower, oracle = PageTower(fc), PerEntryTower(fc)
    alg = fc.algebra
    ranks = {}
    for r in range(tower.infinity_page_index() + 1):
        ranks[r] = 0
        for n in range(alg.cutoff + (r == 0)):
            for p in range(fc.p_bound + 2):
                q = n - p
                expected = oracle.entry(r, p, q)
                assert tower.dim(r, p, q) == expected[0], (r, p, q)
                dim_e, reps, denom = tower.entry(r, p, q)
                assert (dim_e, reps) == expected[:2], (r, p, q)
                assert all(type(x) is Fraction for v in reps + denom for x in v)
                assert spans_agree(denom, expected[2]), (r, p, q)
                for _ in range(2):
                    v = _combination(rng, reps + denom, alg.dim(n))
                    assert tower.class_in_entry(r, p, q, v) == oracle.class_in_entry(r, p, q, v)
                if n + 1 < alg.cutoff:
                    d_r = tower.diff(r, p, q)
                    assert d_r == oracle.diff(r, p, q), (r, p, q)
                    ranks[r] += rank(d_r)
    return ranks


def _cone_complex():
    from test_gluing import circle_legs

    return mapping_cone_filtered(*circle_legs(total=3, cutoff=5), 4)


def _criterion_09(family):
    import test_acceptance

    return lambda: skeletal_filtration(getattr(test_acceptance, f"criterion_09_system_{family}")(), 7)


@pytest.mark.parametrize(
    "make, d_ranks",
    [
        (_criterion_09("a"), {}),
        (_criterion_09("b"), {}),
        (_criterion_09("c"), {}),
        (lambda: skeletal_filtration(_circle_tensor_system(), 5), {}),
        (lambda: skeletal_filtration(_small_suspension_system(), 4), {}),
        (lambda: skeletal_filtration(hopf_like_system(), 4), {2: 1}),  # the Euler class's d2
        (lambda: skeletal_filtration(forms_system(cycle_complex(3), 2, cutoff=4), 4), {}),
        (_cone_complex, {}),
    ],
    ids=["criterion-9a", "criterion-9b", "criterion-9c", "circle-tensor", "small-suspension",
         "line-bundle", "circle-forms", "cone"],
)
def test_page_tower_matches_the_per_entry_oracle(make, d_ranks):
    ranks = assert_tower_matches_oracle(make(), random.Random(11))
    assert sum(ranks.values())
    assert {r: ranks[r] for r in d_ranks} == d_ranks


def _counting_eliminations(monkeypatch) -> list:
    """The column of every row elimination from now on."""
    from cdgalab import exactlin

    calls = []
    eliminate = exactlin._eliminate

    def counting(*args):
        calls.append(args[2])
        return eliminate(*args)

    monkeypatch.setattr(exactlin, "_eliminate", counting)
    return calls


def test_graded_carriers_need_no_elimination(monkeypatch):
    """Every basis column of the sections lies in one level and has a private read coordinate,
    so each column is its own adapted row, pivoted there, with nothing eliminated."""
    fc = skeletal_filtration(_small_suspension_system(), 4)
    calls = _counting_eliminations(monkeypatch)
    adapted = [fc._adapted(k) for k in range(fc.algebra.cutoff + 1)]
    assert calls == []
    assert {level for ad in adapted for level in ad.levels} == {0, 1, 2}
    for k, ad in enumerate(adapted):
        assert len(ad.rows) == fc.algebra.dim(k)
        assert {len({ad.coord_levels[c] for c in row}) for row in ad.rows} <= {1}


def assert_towers_agree(fc, leaf_fc, rng) -> None:
    """Two towers of one filtered algebra agree on every computable entry: F^p, membership, every
    E_r dimension, z_basis, the representatives, classes and d_r."""
    alg = fc.algebra
    for k in range(alg.cutoff + 1):
        for p in range(fc.p_bound + 2):
            level = fc._level(p, k)
            assert level == leaf_fc._level(p, k), (p, k)
            for _ in range(2):
                v = _combination(rng, fc.subspace(p, k) + fc.subspace(0, k)[:1], alg.dim(k))
                assert fc.contains(p, k, v) == leaf_fc.contains(p, k, v), (p, k)
    tower, oracle = PageTower(fc), PageTower(leaf_fc)
    for r in range(tower.infinity_page_index() + 1):
        for n in range(alg.cutoff + (r == 0)):
            for p in range(fc.p_bound + 2):
                q = n - p
                assert tower.dim(r, p, q) == oracle.dim(r, p, q), (r, p, q)
                dim_e, reps, denom = tower.entry(r, p, q)
                assert (dim_e, reps) == oracle.entry(r, p, q)[:2], (r, p, q)
                if n < alg.cutoff:
                    assert tower.z_basis(p, p + r, n) == oracle.z_basis(p, p + r, n), (r, p, n)
                v = _combination(rng, reps + denom, alg.dim(n))
                assert tower.class_in_entry(r, p, q, v) == oracle.class_in_entry(r, p, q, v), (r, p, q)
                if n + 1 < alg.cutoff:
                    assert tower.diff(r, p, q) == oracle.diff(r, p, q), (r, p, q)


@pytest.mark.parametrize(
    "make",
    [
        lambda: skeletal_filtration(_small_suspension_system(), 4),
        _criterion_09("a"),
        _criterion_09("b"),
        _criterion_09("c"),
        lambda: skeletal_filtration(hopf_like_system(), 4),  # the line bundle whose d2 is nonzero
        lambda: skeletal_filtration(_circle_tensor_system(), 5),
    ],
    ids=["small-suspension", "criterion-9a", "criterion-9b", "criterion-9c", "line-bundle", "circle-tensor"],
)
def test_the_filtration_in_the_own_basis_reads_as_the_leaf_path(make):
    """Where every basis element of the sections lies in one level, the adapted bases are the
    sections' own basis, and every canonical answer is the leaf path's."""
    fc = make()
    leaf_fc = helpers.LeafFilteredComplex(fc.algebra, fc.p_bound)
    for k in range(fc.algebra.cutoff + 1):
        ad, leaf_ad = fc._adapted(k), leaf_fc._adapted(k)
        assert ad.leaves is None and leaf_ad.leaves is not None
        assert ad.rows == [{a: 1} for a in ad.pivots] and sorted(ad.pivots) == list(range(fc.algebra.dim(k)))
        assert ad.levels == leaf_ad.levels
    assert_towers_agree(fc, leaf_fc, random.Random(13))


def test_every_e2_dimension_of_the_sections_reads_their_own_basis_and_differential(monkeypatch):
    """On the small suspension system no degree of the sections is written in its leaves, and
    no leaf differential is multiplied: d comes from the sections' own matrices."""
    import cdgalab.specseq as specseq

    e = _small_suspension_system()
    ss = SpectralSequence(e, 4)
    views, blocks = [], []
    in_leaves, block_diagonal = specseq._in_leaves, specseq._block_diagonal
    monkeypatch.setattr(specseq, "_in_leaves", lambda alg, k: views.append((alg, k)) or in_leaves(alg, k))
    monkeypatch.setattr(specseq, "_block_diagonal", lambda ms: blocks.append(len(ms)) or block_diagonal(ms))
    dims = {(p, n - p): ss.tower.dim(2, p, n - p) for n in range(4) for p in range(min(n, 2) + 1)}
    # the base is S^2 and the fiber's suspension class has degree 3
    assert {key: dim for key, dim in dims.items() if dim} == {(0, 0): 1, (2, 0): 1, (0, 3): 1}
    assert ss.e2_check(2, 1).ok()
    assert (views, blocks) == ([], [])
    assert sorted(ss.tower._reductions) == [0, 1, 2, 3]


def _mixed_level_carrier():
    """The pullback of the identity and a chain automorphism phi = 1 + hd + dh of a leveled
    complex into the same complex without levels: its basis columns (phi(e_b), e_b) mix the
    levels of the coordinates phi(e_b) reaches, and share those coordinates.  h vanishes on
    degrees 0 and 1, so phi fixes degree 0 and keeps the unit-only product."""
    rng = random.Random(0)
    leveled, _ = random_filtered_complex(rng, [1, 3, 4, 4, 3, 2], p_bound=3)
    plain = from_tables(leveled.cutoff, leveled.dims, leveled.unit, leveled.diff_mats, {})
    dims, d = leveled.dims, leveled.d_matrix
    h = {
        k: QMatrix.from_rows([[rng.randint(-1, 1) for _ in range(dims[k])] for _ in range(dims[k - 1])], dims[k])
        for k in range(2, leveled.cutoff + 1)
    }
    phi = []
    for k in range(leveled.cutoff + 1):
        terms = [QMatrix.identity(dims[k])]
        if k + 1 in h:
            terms.append(h[k + 1].matmul(d(k)))
        if k in h:
            terms.append(d(k - 1).matmul(h[k]))
        entries = {}
        for m in terms:
            for key, x in m.entries.items():
                entries[key] = entries.get(key, 0) + x
        phi.append(QMatrix(dims[k], dims[k], entries))
    ident = DGMorphism(leveled, plain, [QMatrix.identity(n) for n in dims])
    return fiber_product(ident, DGMorphism(leveled, plain, phi), leveled.cutoff).carrier


def test_a_carrier_whose_columns_mix_levels_reduces_to_the_row_oracle(monkeypatch):
    alg = _mixed_level_carrier()
    fc = FilteredComplex(alg, 3)
    calls = _counting_eliminations(monkeypatch)
    adapted = [fc._adapted(k) for k in range(alg.cutoff + 1)]
    assert calls
    # a column mixes levels, so the carrier has no levels of its own and takes the leaf path
    assert _own_levels(alg) is None and all(ad.leaves is not None for ad in adapted)
    assert any(len({ad.coord_levels[c] for c in col}) > 1 for ad in adapted for col in ad.columns)
    for k, ad in enumerate(adapted):
        # each pivot is private to its row, and no row reaches below its pivot's level
        for row, c, level in zip(ad.rows, ad.pivots, ad.levels):
            assert all(ad.coord_levels[x] >= level for x in row)
            assert [c in other for other in ad.rows].count(True) == 1
        for p in range(fc.p_bound + 2):
            assert sum(1 for level in ad.levels if level >= p) == len(kernel_basis(level_rows(alg, k, p)))
    ranks = assert_tower_matches_oracle(fc, random.Random(7))
    assert ranks[2] and ranks[3], ranks


@pytest.mark.parametrize("seed", [3, 5, 8, 9])  # seeds whose d2 and d3 are nonzero in the window
def test_page_tower_matches_the_oracle_on_random_filtered_complexes(seed):
    rng = random.Random(seed)
    alg, pairs = random_filtered_complex(rng, [rng.randint(2, 6) for _ in range(6)], p_bound=3)
    fc = FilteredComplex(algebra=alg, p_bound=3)
    assert fc.validate() == []
    ranks = assert_tower_matches_oracle(fc, rng)
    # the normal form names every pair, so each page is known in closed form
    lengths = {(n, x): alg.levels[n + 1][y] - alg.levels[n][x] for n, x, y in pairs}
    lengths.update({(n + 1, y): alg.levels[n + 1][y] - alg.levels[n][x] for n, x, y in pairs})
    tower = PageTower(fc)
    for r in range(tower.infinity_page_index() + 1):
        for n in range(alg.cutoff):
            for p in range(4):
                alive = [a for a in range(alg.dims[n]) if alg.levels[n][a] == p and lengths.get((n, a), r) >= r]
                assert tower.dim(r, p, n - p) == len(alive), (r, p, n)
    assert ranks[2] and ranks[3], ranks


# -- one sequence per system ----------------------------------------------------

@pytest.mark.parametrize("family, upto", [("a", 4), ("b", 4), ("c", 5)])
@pytest.mark.parametrize("e2_first", [True, False], ids=["e2-first", "einfty-first"])
def test_checks_read_one_kept_sequence_and_answer_as_a_fresh_one(family, upto, e2_first):
    import test_acceptance

    e = getattr(test_acceptance, f"criterion_09_system_{family}")()
    if e2_first:
        e2, totals = e2_check(e, 2, 4), einfty_vs_target(e, upto)
    else:
        totals, e2 = einfty_vs_target(e, upto), e2_check(e, 2, 4)
    assert e._sequence_cache.filtered.algebra.cutoff == 7
    assert e2 == SpectralSequence(e, 7).e2_check(2, 4)
    fresh = SpectralSequence(e, upto + 1).einfty_vs_target(upto)
    assert totals == fresh  # every field, the product checks, skips and failures included


def test_the_kept_sequence_goes_with_its_system():
    import gc
    import weakref

    e = forms_system(cycle_complex(3), 2, cutoff=4)
    assert e2_check(e, 1, 1).ok()
    kept = weakref.ref(e._sequence_cache)
    del e
    gc.collect()
    assert kept() is None


def test_reference_counting_frees_a_checked_system_and_its_fibers():
    import gc
    import weakref

    e = forms_system(cycle_complex(3), 2, cutoff=4)
    gc.collect()
    gc.disable()
    try:
        assert e2_check(e, 1, 1).ok()
        refs = [weakref.ref(e), weakref.ref(e._sequence_cache)] + [weakref.ref(f) for f in e.fibers.values()]
        del e
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


def _counting_section_builds(monkeypatch) -> list[int]:
    from cdgalab import localsys

    builds = []
    sections_basis = localsys._sections_basis
    monkeypatch.setattr(localsys, "_sections_basis", lambda e, upto: builds.append(upto) or sections_basis(e, upto))
    return builds


def test_both_checks_on_one_system_build_its_sections_once(monkeypatch):
    builds = _counting_section_builds(monkeypatch)
    e = forms_system(cycle_complex(3), 2, cutoff=4)
    assert e2_check(e, 1, 1).ok() and einfty_vs_target(e, 2).ok()
    assert builds == [3]


def test_a_larger_bound_builds_the_sections_once_more(monkeypatch):
    builds = _counting_section_builds(monkeypatch)
    e = forms_system(cycle_complex(3), 2, cutoff=4)
    assert einfty_vs_target(e, 1).ok()
    assert e2_check(e, 1, 1).ok()
    assert einfty_vs_target(e, 2).ok() and einfty_vs_target(e, 1).ok()
    assert builds == [2, 3]


def test_e2_check_reads_the_sequence_a_morphism_built_on_its_source(monkeypatch):
    builds = _counting_section_builds(monkeypatch)
    src = forms_system(cycle_complex(3), 2, cutoff=4)
    dst = FiniteLocalSystem(src.base, dict(src.fibers), dict(src.facet_restrictions))  # a second system
    ident = SystemMorphism(src, dst, {s: DGMorphism.identity(src.fibers[s]) for s in src.base.all_simplices()})
    assert triple_morphism_pages(ident, 3, 2).ok()
    assert builds == [3, 3]
    assert e2_check(src, 1, 1).ok()
    assert builds == [3, 3]


@pytest.mark.parametrize(
    "check, message",
    [
        (lambda e: e2_check(e, 2, 2), "p_max + q_max + 1 = 5 exceeds the smallest fiber cutoff 4"),
        (lambda e: einfty_vs_target(e, 4), "upto + 1 = 5 exceeds the smallest fiber cutoff 4"),
        (
            lambda e: triple_morphism_pages(
                SystemMorphism(e, e, {s: DGMorphism.identity(e.fibers[s]) for s in e.base.all_simplices()}), 5, 2
            ),
            "upto = 5 exceeds the smallest fiber cutoff 4",
        ),
    ],
    ids=["e2_check", "einfty_vs_target", "triple_morphism_pages"],
)
def test_a_bound_past_the_fibers_is_named_as_the_caller_passed_it(check, message):
    with pytest.raises(InputError) as exc:
        check(forms_system(cycle_complex(3), 2, cutoff=4))
    assert str(exc.value) == message
