import random
from dataclasses import replace
from fractions import Fraction

import pytest

from cdgalab.cdga import (
    DGMorphism,
    TruncatedDGA,
    cohomology_dims,
    point_dga,
    power_quotient_dga,
    tensor_product,
    truncate,
)
from cdgalab.errors import CutoffTooSmallError, InputError, InternalError, PreconditionError
from cdgalab.exactlin import KernelBasis, QMatrix
from cdgalab.graded import FreeGCA
from cdgalab.cdga import FreeCDGA
from cdgalab.gluing import fiber_product, suspension_triple, interval_forms
from cdgalab.localsys import (
    FiniteLocalSystem,
    LocalCoefficients,
    _sections_basis,
    SystemMorphism,
    cohomology_local_system,
    constant_system,
    cylinder,
    fiber_product_system,
    forms_system,
    global_sections,
    h_local_coefficients,
    is_extendable,
    is_locally_constant,
    pullback,
    tensor_system,
    twist_restriction,
    validate,
)
from cdgalab.polyforms import (
    SimplicialComplexK,
    boundary_complex,
    cycle_complex,
    forms_dga,
    standard_complex,
)
from cdgalab.specseq import SpectralSequence

from fixtures import cp2_formal, sphere_even_model, torus_model
from helpers import (
    dense_carrier_differentials,
    dense_is_extendable,
    dense_kernel_basis,
    per_simplex_fiber_product_system,
    transports_edge_by_edge,
)


def odd_generator_fiber(degree=3, cutoff=5) -> TruncatedDGA:
    """Fiber Q (+) Q z with z in odd degree; has the sign automorphism z -> -z."""
    gca = FreeGCA([("z", degree)])
    return truncate(FreeCDGA(gca, {}), cutoff)


def sign_automorphism(fiber: TruncatedDGA, degree: int) -> DGMorphism:
    mats = []
    for k in range(fiber.cutoff + 1):
        if k == degree:
            mats.append(QMatrix.identity(fiber.dim(k)).scale(-1))
        else:
            mats.append(QMatrix.identity(fiber.dim(k)))
    return DGMorphism(fiber, fiber, mats)


def twisted_circle_system(degree=3, cutoff=5):
    base = cycle_complex(3)
    fiber = odd_generator_fiber(degree, cutoff)
    e = constant_system(base, fiber)
    return twist_restriction(e, (0, 2), 0, sign_automorphism(fiber, degree)), fiber


def _tier1_system(module: str, name: str):
    def make():
        import importlib

        return getattr(importlib.import_module(module), name)()
    return make


# -- validation ---------------------------------------------------------------

def test_constant_system_validates():
    e = constant_system(cycle_complex(3), sphere_even_model(5))
    assert validate(e) == []


def test_forms_system_validates_and_functorial():
    e = forms_system(standard_complex(2), 3)
    assert validate(e) == []


def test_twisted_circle_validates():
    e, _ = twisted_circle_system()
    assert validate(e) == []


def test_non_multiplicative_restriction_detected():
    from fixtures import cp2_formal

    base = cycle_complex(3)
    fiber = cp2_formal(5)
    e = constant_system(base, fiber)
    bad_mats = [QMatrix.identity(fiber.dim(k)) for k in range(fiber.cutoff + 1)]
    # x -> 2x but x^2 -> x^2 is not multiplicative in Q[x]/(x^3)
    bad_mats[2] = bad_mats[2].scale(2)
    bad = DGMorphism(fiber, fiber, bad_mats, check="none")
    restr = dict(e.facet_restrictions)
    restr[((0, 1), 0)] = bad
    e2 = FiniteLocalSystem(base, dict(e.fibers), restr)
    problems = validate(e2)
    assert any("not a DG morphism" in p for p in problems)


def test_validate_lets_a_program_fault_through(monkeypatch):
    # only library errors describe a bad restriction; anything else is a bug
    # in the program and must not be reported as "not a DG morphism"
    def broken(self):
        raise RuntimeError("broken check")

    e = constant_system(cycle_complex(3), sphere_even_model(5))
    monkeypatch.setattr(DGMorphism, "_verify", broken)
    with pytest.raises(RuntimeError, match="broken check"):
        validate(e)


# -- predicates ------------------------------------------------------------------

def test_constant_system_locally_constant():
    e = constant_system(cycle_complex(3), sphere_even_model(5))
    assert is_locally_constant(e, 4)


def _killing_system():
    """The constant odd-generator system over a circle with the class z killed on one vertex."""
    base = cycle_complex(3)
    fiber = odd_generator_fiber(3, 5)
    e = constant_system(base, fiber)
    mats = [QMatrix.zero(fiber.dim(k), fiber.dim(k)) for k in range(fiber.cutoff + 1)]
    mats[0] = QMatrix.identity(1)
    restr = dict(e.facet_restrictions)
    restr[((0, 1), 0)] = DGMorphism(fiber, fiber, mats, check="none")
    return FiniteLocalSystem(base, dict(e.fibers), restr)


def test_killing_restriction_not_locally_constant():
    assert not is_locally_constant(_killing_system(), 4)


def _counting_quasi_iso_checks(monkeypatch) -> list:
    """The ``id`` of every restriction that ``is_locally_constant`` checks, in order."""
    import cdgalab.localsys as localsys

    checked = []
    induced_map = localsys.induced_map

    def counting(r, *args, **kwargs):
        checked.append(id(r))
        return induced_map(r, *args, **kwargs)

    monkeypatch.setattr(localsys, "induced_map", counting)
    return checked


@pytest.mark.parametrize("base", [cycle_complex(3), boundary_complex(3)], ids=["circle", "boundary3"])
def test_local_constancy_checks_each_distinct_restriction_once(monkeypatch, base):
    # forms systems share one restriction object among the facets it serves
    e = forms_system(base, 2, cutoff=4)
    distinct = {id(r) for r in e.facet_restrictions.values()}
    assert len(distinct) < len(e.facet_restrictions)
    checked = _counting_quasi_iso_checks(monkeypatch)
    assert is_locally_constant(e, 3)
    assert sorted(checked) == sorted(distinct)


def test_a_killing_restriction_shared_by_two_facets_is_still_caught(monkeypatch):
    e = _killing_system()
    restr = dict(e.facet_restrictions)
    restr[((1, 2), 1)] = restr[((0, 1), 0)]
    twisted = FiniteLocalSystem(e.base, dict(e.fibers), restr)
    checked = _counting_quasi_iso_checks(monkeypatch)
    assert not is_locally_constant(twisted, 4)
    assert len(checked) == len(set(checked)) and id(restr[((0, 1), 0)]) in checked


def _point_vertex_system():
    """The same circle with the point algebra on vertex 1, so H^3 there is 0 against 1 on its edges."""
    base = cycle_complex(3)
    fiber, point = odd_generator_fiber(3, 5), point_dga(5)
    e = constant_system(base, fiber)
    fibers = dict(e.fibers)
    fibers[(1,)] = point
    mats = [QMatrix.identity(1)] + [QMatrix.zero(0, fiber.dim(k)) for k in range(1, fiber.cutoff + 1)]
    restr = dict(e.facet_restrictions)
    for edge, i in (((0, 1), 0), ((1, 2), 1)):
        restr[(edge, i)] = DGMorphism(fiber, point, mats, check="none")
    return FiniteLocalSystem(base, fibers, restr)


@pytest.mark.parametrize("make", [_killing_system, _point_vertex_system], ids=["singular", "non-square"])
def test_a_transport_that_is_not_invertible_is_a_precondition_error(monkeypatch, make):
    # past the local-constancy check, which hands on the map in cohomology of every restriction,
    # the transport on edge (0, 1) has no inverse
    import cdgalab.localsys as localsys
    from cdgalab.cdga import induced_map

    def passing(e, upto, fiber_h, induced):
        for r in e.facet_restrictions.values():
            induced[id(r)] = induced_map(r, upto, fiber_h[id(r.source)], fiber_h[id(r.target)])
        return True

    monkeypatch.setattr(localsys, "is_locally_constant", passing)
    with pytest.raises(PreconditionError, match=r"transport not invertible on edge \(0, 1\)"):
        cohomology_local_system(make(), 4)


def test_twisted_system_locally_constant():
    e, _ = twisted_circle_system()
    assert is_locally_constant(e, 4)


def test_forms_circle_system_extendable():
    # the ambient forms system is the "fiber Q" case and is extendable
    e = forms_system(cycle_complex(3), 2)
    ok, w = is_extendable(e, 2)
    assert ok, w


def test_forms_tensor_single_simplex_extendable():
    # forms (x) F over a single simplex: boundary sections are hit
    F = sphere_even_model(6)
    e = tensor_system(forms_system(standard_complex(1), 2), F, cutoff=3)
    ok, w = is_extendable(e, 3)
    assert ok, w


def test_rigid_system_not_extendable():
    # a literal constant system with a finite-dimensional fiber is rigid:
    # boundary sections over an edge are two independent copies of the fiber
    # while the interior only provides the diagonal
    e = constant_system(standard_complex(1), sphere_even_model(4))
    ok, witnesses = is_extendable(e, 3)
    assert not ok
    assert witnesses
    (s, k, needed, got) = witnesses[0]
    assert s == (0, 1) and needed > got


def test_boundary_image_outside_the_sections_is_internal(monkeypatch):
    # the restrictions of a system compose, so a failure here is the program's
    e = forms_system(standard_complex(1), 2)
    monkeypatch.setattr(KernelBasis, "coords_matrix", lambda self, left, right: None)
    with pytest.raises(InternalError, match="boundary image is not a compatible family"):
        is_extendable(e, 2)


def test_forms_system_extendable():
    e = forms_system(standard_complex(2), 3)
    ok, w = is_extendable(e, 2)
    assert ok, w


@pytest.mark.parametrize(
    "make, upto",
    [
        (lambda: forms_system(cycle_complex(3), 2), 2),
        (lambda: tensor_system(forms_system(standard_complex(1), 2), sphere_even_model(6), cutoff=3), 3),
        (lambda: constant_system(standard_complex(1), sphere_even_model(4)), 3),
        (lambda: forms_system(standard_complex(1), 2), 2),
        (lambda: forms_system(standard_complex(2), 3), 2),
        (lambda: constant_system(standard_complex(2), sphere_even_model(4)), None),
    ],
    ids=["forms-circle", "forms-tensor-edge", "rigid-edge", "forms-edge", "forms-triangle", "rigid-triangle"],
)
def test_extendability_matches_the_dense_reference(make, upto):
    # the verdict and every witness, in order, against one restriction per basis vector
    assert is_extendable(make(), upto) == dense_is_extendable(make(), upto)


# -- global sections ---------------------------------------------------------------

def test_global_sections_constant_over_cone():
    fiber = sphere_even_model(4)
    e = constant_system(standard_complex(2), fiber)
    g = global_sections(e, 3)
    assert g.dims == [fiber.dim(k) for k in range(4)]
    assert cohomology_dims(g, 2) == cohomology_dims(fiber, 2)


def test_global_sections_twisted_invariants():
    e, fiber = twisted_circle_system(3, 5)
    g = global_sections(e, 4)
    # degree 3 sections: constant families fixed by the sign twist: none
    assert g.dims[3] == 0
    assert g.dims[0] == 1


def test_global_sections_forms_circle():
    e = forms_system(cycle_complex(3), 2)
    g = global_sections(e, 2)
    assert cohomology_dims(g, 1) == [1, 1]


def test_global_sections_beyond_the_fibers_is_an_input_error_in_the_shared_wording():
    e = forms_system(cycle_complex(3), 2, cutoff=4)
    with pytest.raises(InputError, match="^upto = 5 exceeds the smallest fiber cutoff 4$"):
        global_sections(e, 5)
    assert global_sections(e, 4).cutoff == 4


def test_global_sections_forms_match_simplex_forms():
    # over the full 2-simplex the compatible families are the forms on it
    from cdgalab.polyforms import forms_dga

    e = forms_system(standard_complex(2), 3)
    g = global_sections(e, 3)
    direct = forms_dga(2, 3, cutoff=3)
    assert g.dims == direct.dims


def test_gamma_product_system_matches_tensor():
    # fiberwise forms (x) F over the full 2-simplex against forms (x) F
    from cdgalab.polyforms import forms_dga

    F = sphere_even_model(6)
    base_sys = forms_system(standard_complex(2), 3)
    e = tensor_system(base_sys, F, cutoff=3)
    g = global_sections(e, 3)
    direct = tensor_product(forms_dga(2, 3, cutoff=3), F, cutoff=3)
    assert g.dims == direct.dims


# -- tensor systems: sections read off the factor's sections ------------------------

def _cli_system(task: str, base: dict, total_degree: int, cutoff: int):
    """A ``tensor_with`` system as the CLI builds it: forms tensored with a free model of S^2."""
    from cdgalab.cli import Problem

    doc = {
        "version": "1",
        "task": task,
        "algebras": {"S": {"type": "free", "generators": [["x", 2], ["y", 3]],
                           "differential": {"y": [["3/2", {"x": 2}]]}, "cutoff": cutoff}},
        "complexes": {"K": base},
        "systems": {"E": {"type": "forms", "base": "K", "total_degree": total_degree, "cutoff": cutoff,
                          "tensor_with": "S"}},
        "task_args": {"system": "E", "upto": 3},
    }
    return Problem(doc).system("E")


CIRCLE = {"vertices": [0, 1, 2], "maximal": [[0, 1], [1, 2], [0, 2]]}
SPHERE = {"vertices": [0, 1, 2, 3], "maximal": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]}


def _suspension_tensor_systems():
    """The three tensor systems the small suspension system glues."""
    from test_acceptance import _suspension_legs

    sizes = dict(forms_total=2, forms_cutoff=3, sys_cutoff=4)
    f, g = _suspension_legs(boundary_complex(3), sphere_even_model(6), **sizes)
    return [f.source, f.target, g.source]


def _forms_tensor(base, total_degree, fiber, cutoff, forms_cutoff=None):
    """Forms on ``base`` tensored with ``fiber``; the forms are cut off at ``forms_cutoff``,
    or at their default when it is None."""
    return tensor_system(forms_system(base, total_degree, cutoff=forms_cutoff), fiber, cutoff=cutoff)


TENSOR_SYSTEMS = {
    # every tensor system the tests build, and a tensor of a tensor; each with the degree its sections reach
    "cp2-circle": (_tier1_system("test_acceptance", "criterion_09_system_a"), 6),
    "cp2-sphere": (lambda: _forms_tensor(boundary_complex(3), 3, cp2_formal(8), 8, 8), 6),
    "circle-tensor": (_tier1_system("test_specseq", "_circle_tensor_system"), 5),
    "odd-torus": (lambda: _forms_tensor(cycle_complex(3), 2, odd_generator_fiber(1, 6), 6, 6), 6),
    "forms-tensor-edge": (lambda: _forms_tensor(standard_complex(1), 2, sphere_even_model(6), 3), 3),
    "criterion-8": (lambda: _forms_tensor(standard_complex(2), 3, sphere_even_model(5), 4, 4), 4),
    "cylinder": (lambda: cylinder(constant_system(cycle_complex(3), sphere_even_model(4)))[0], 4),
    "cylinder-twisted": (lambda: cylinder(twisted_circle_system()[0])[0], 5),
    "suspension-e1": (lambda: _suspension_tensor_systems()[0], 4),
    "suspension-e0": (lambda: _suspension_tensor_systems()[1], 4),
    "suspension-qq": (lambda: _suspension_tensor_systems()[2], 4),
    "cli-gamma-circle": (lambda: _cli_system("gamma", CIRCLE, 2, 4), 4),
    "cli-gamma-sphere": (lambda: _cli_system("gamma", SPHERE, 3, 5), 5),
    "cli-ss-circle": (lambda: _cli_system("ss", CIRCLE, 2, 5), 5),
    "tensor-of-tensor": (
        lambda: tensor_system(
            _forms_tensor(cycle_complex(3), 2, odd_generator_fiber(1, 6), 6, 6), sphere_even_model(6), cutoff=6
        ),
        6,
    ),
}


def _counting_placed(monkeypatch) -> list:
    """The kernels read off placed parts, one entry per call of ``KernelBasis._placed``."""
    calls = []
    placed = KernelBasis._placed.__func__
    counting = classmethod(lambda cls, m, parts: calls.append(m) or placed(cls, m, parts))
    monkeypatch.setattr(KernelBasis, "_placed", counting)
    return calls


@pytest.mark.parametrize("name", sorted(TENSOR_SYSTEMS))
def test_tensor_sections_equal_the_general_elimination(monkeypatch, name):
    make, upto = TENSOR_SYSTEMS[name]
    e = make()
    general = replace(e, _tensor_of=None)
    placed = _counting_placed(monkeypatch)
    fast, ambient = _sections_basis(e, upto)
    # every degree of E (x) M is read off E's sections, and so is E's when E is a tensor system too
    assert len(placed) >= upto + 1 and placed[-(upto + 1):] == [k.matrix for k in fast]
    placed.clear()
    slow, general_ambient = _sections_basis(general, upto)
    assert placed == []
    assert ambient.offsets(upto) == general_ambient.offsets(upto)
    for k, (a, b) in enumerate(zip(fast, slow)):
        assert a.matrix == b.matrix, k
        assert a.inclusion == b.inclusion, k
        assert a._reads == b._reads, k


@pytest.mark.parametrize("name", sorted(TENSOR_SYSTEMS))
def test_tensor_extendability_matches_the_dense_reference(monkeypatch, name):
    # each boundary subsystem is the tensor system of the factor's, so its sections are read off
    make, upto = TENSOR_SYSTEMS[name]
    placed = _counting_placed(monkeypatch)
    verdict = is_extendable(make(), upto)
    assert placed
    assert verdict == dense_is_extendable(make(), upto)


def test_tensor_system_refuses_a_restriction_short_of_the_tensor_cutoff():
    # x^2 lives in degree 4 of the edge fiber; the restrictions to the vertices stop at degree 3,
    # which the system's own check accepts, but r (x) id needs r in degree 4
    edge, vertex = power_quotient_dga(2, 3, 6), power_quotient_dga(2, 3, 3)
    r = DGMorphism(edge, vertex, [QMatrix.identity(vertex.dim(k)) for k in range(4)])
    fibers = {(0,): vertex, (1,): vertex, (0, 1): edge}
    e = FiniteLocalSystem(SimplicialComplexK.from_maximal([(0, 1)]), fibers, {((0, 1), 0): r, ((0, 1), 1): r})
    assert validate(e) == []
    with pytest.raises(CutoffTooSmallError, match=r"simplex \(0, 1\) to facet \(1,\) does not store degree 4"):
        tensor_system(e, point_dga(4), 4)
    # within the restrictions' degrees the tensor is built
    assert tensor_system(e, point_dga(3), 3).fibers[(0, 1)].dims == [1, 0, 1, 0]


@pytest.mark.parametrize(
    "make",
    [
        # a sign twist of one restriction of a tensor system, and a tensor system pulled back
        _tier1_system("test_acceptance", "criterion_09_system_b"),
        lambda: pullback(
            tensor_system(forms_system(cycle_complex(3), 2, cutoff=5), sphere_even_model(5), cutoff=5),
            {0: 0, 1: 1, 2: 0, 3: 1, 4: 2, 5: 2},
            SimplicialComplexK.from_maximal([(0, 1), (1, 4), (2, 4), (2, 3), (3, 5), (0, 5)]),
        ),
    ],
    ids=["twisted-tensor", "pulled-back-tensor"],
)
def test_twisted_and_pulled_back_tensor_systems_take_the_general_path(monkeypatch, make):
    e = make()
    assert e._tensor_of is None
    placed = _counting_placed(monkeypatch)
    _sections_basis(e, 4)
    assert placed == []


def test_a_factor_whose_fibers_stop_at_different_degrees_is_read_off_only_below_both(monkeypatch):
    # CP^2 truncated at 6 over the vertices and at 3 over the edge: Gamma(E) stops at degree 3,
    # while E (x) Q has a degree-4 basis element over each vertex
    low, high = cp2_formal(3), cp2_formal(6)
    up = DGMorphism(low, high, [QMatrix.identity(low.dim(k)) for k in range(4)])
    edge = standard_complex(1)
    e = tensor_system(
        FiniteLocalSystem(edge, {(0,): high, (1,): high, (0, 1): low}, {((0, 1), 0): up, ((0, 1), 1): up}),
        point_dga(4),
        cutoff=4,
    )
    placed = _counting_placed(monkeypatch)
    for upto, calls in ((3, 4), (4, 0)):
        placed.clear()
        kernels, _ = _sections_basis(e, upto)
        assert len(placed) == calls
        assert [k.inclusion for k in kernels] == [KernelBasis(k.matrix).inclusion for k in kernels]
    assert [k.rank for k in kernels] == [1, 0, 1, 0, 0]


def test_a_copy_of_a_tensor_system_keeps_its_factors():
    e = _tier1_system("test_specseq", "_circle_tensor_system")()
    assert e._tensor_of is not None
    assert replace(e)._tensor_of is e._tensor_of
    assert SpectralSequence(e, 3).system._tensor_of is e._tensor_of


# -- pullback -------------------------------------------------------------------

def test_pullback_identity():
    e = constant_system(cycle_complex(3), sphere_even_model(4))
    u = {v: v for v in e.base.vertices}
    p = pullback(e, u, e.base)
    assert validate(p) == []
    assert p.fibers == e.fibers


def test_pullback_constant_map():
    e, fiber = twisted_circle_system()
    K = e.base
    L = standard_complex(1)
    u = {0: 1, 1: 1}
    p = pullback(e, u, L)
    assert validate(p) == []
    # all fibers are the vertex fiber and restrictions are identities
    for (s, i), r in p.facet_restrictions.items():
        assert r.mats == DGMorphism.identity(fiber).mats


def test_pullback_double_cover_squares_monodromy():
    e, fiber = twisted_circle_system(3, 5)
    # order-preserving double cover of the 3-cycle
    L = SimplicialComplexK.from_maximal([(0, 1), (1, 4), (2, 4), (2, 3), (3, 5), (0, 5)])
    u = {0: 0, 1: 1, 2: 0, 3: 1, 4: 2, 5: 2}
    p = pullback(e, u, L)
    assert validate(p) == []
    assert is_locally_constant(p, 4)

    def holonomy(system, cycle_edges, q):
        c = cohomology_local_system(system, 4)
        m = QMatrix.identity(c.vertex_dims[cycle_edges[0][0]][q])
        for (a, b, forward) in cycle_edges:
            step = c.edges[(a, b)][q]
            if not forward:
                # invert the 1x1 step
                step = QMatrix.from_rows([[1 / step.entry(0, 0)]])
            m = step.matmul(m)
        return m.entry(0, 0)

    base_hol = holonomy(e, [(0, 1, True), (1, 2, False), (0, 2, True)], 3)
    cover_hol = holonomy(
        p,
        [(0, 1, True), (1, 4, False), (2, 4, True), (2, 3, True), (3, 5, False), (0, 5, True)],
        3,
    )
    assert base_hol == -1
    assert cover_hol == base_hol ** 2 == 1


# -- fiber product systems ----------------------------------------------------------

def test_fiber_product_system_identity_legs():
    fiber = sphere_even_model(5)
    e = constant_system(cycle_complex(3), fiber)
    ident = SystemMorphism(e, e, {s: DGMorphism.identity(fiber) for s in e.base.all_simplices()})
    p, carriers = fiber_product_system(ident, ident, 4)
    assert validate(p) == []
    for s in p.base.all_simplices():
        assert cohomology_dims(p.fibers[s], 3) == cohomology_dims(fiber, 3)


def suspension_system_legs(base, m, upto, interval_total=2):
    """Constant systems of the suspension triple over a base complex."""
    f_leg, g_leg = suspension_triple(m, upto, interval_total)
    cyl, mm, qq = f_leg.source, f_leg.target, g_leg.source
    e1 = constant_system(base, cyl)
    e0 = constant_system(base, mm)
    e2 = constant_system(base, qq)
    f = SystemMorphism(e1, e0, {s: f_leg for s in base.all_simplices()})
    g = SystemMorphism(e2, e0, {s: g_leg for s in base.all_simplices()})
    return f, g


def test_fiber_product_system_suspension_fibers():
    base = cycle_complex(3)
    m = sphere_even_model(6)
    f, g = suspension_system_legs(base, m, 5)
    p, _ = fiber_product_system(f, g, 5)
    assert validate(p) == []
    for s in p.base.all_simplices():
        assert cohomology_dims(p.fibers[s], 4) == [1, 0, 0, 1, 0]
    assert is_locally_constant(p, 4)


def test_fiber_product_system_needs_surjective_first_leg():
    base = cycle_complex(3)
    m = sphere_even_model(6)
    f, g = suspension_system_legs(base, m, 5)
    with pytest.raises(PreconditionError):
        fiber_product_system(g, f, 4)


def test_fiber_product_system_commutes_with_pullback():
    base = cycle_complex(3)
    m = sphere_even_model(6)
    f, g = suspension_system_legs(base, m, 4)
    p, _ = fiber_product_system(f, g, 4)
    L = standard_complex(1)
    u = {0: 0, 1: 1}
    p_then_pull = pullback(p, u, L)
    f_pulled = SystemMorphism(
        pullback(f.source, u, L), pullback(f.target, u, L), {s: f.maps[(0, 1)] for s in L.all_simplices()}
    )
    g_pulled = SystemMorphism(
        pullback(g.source, u, L), pullback(g.target, u, L), {s: g.maps[(0, 1)] for s in L.all_simplices()}
    )
    pull_then_p, _ = fiber_product_system(f_pulled, g_pulled, 4)
    for s in L.all_simplices():
        assert p_then_pull.fibers[s].dims == pull_then_p.fibers[s].dims
    for key in p_then_pull.facet_restrictions:
        assert (
            p_then_pull.facet_restrictions[key].mats
            == pull_then_p.facet_restrictions[key].mats
        )


# -- local coefficients -----------------------------------------------------------

def test_cohomology_local_system_constant_identity_edges():
    e = constant_system(cycle_complex(3), sphere_even_model(5))
    c = cohomology_local_system(e, 4)
    for per_q in c.edges.values():
        for q, m in per_q.items():
            assert m == QMatrix.identity(m.rows)


def test_cohomology_local_system_sign_twist():
    e, _ = twisted_circle_system(3, 5)
    c = cohomology_local_system(e, 4)
    twisted = c.edges[(0, 2)][3]
    assert twisted.entry(0, 0) == -1


@pytest.mark.parametrize(
    "make", [lambda: forms_system(cycle_complex(3), 2, cutoff=5), lambda: twisted_circle_system()[0]],
    ids=["forms", "twisted"],
)
def test_cohomology_local_system_induces_each_edge_restriction_once(monkeypatch, make):
    """Edges that share a restriction object share its map in cohomology; every transport is
    still H(to u) H(to v)^-1, from maps induced edge by edge."""
    import cdgalab.localsys as localsys
    from cdgalab.cdga import induced_map

    e = make()
    edges = e.base.simplices_of_dim(1)
    distinct = {id(e.facet_restrictions[(s, i)]) for s in edges for i in (0, 1)}
    induced = []

    def counting(r, *args, **kwargs):
        induced.append(id(r))
        return induced_map(r, *args, **kwargs)

    monkeypatch.setattr(localsys, "induced_map", counting)
    c = cohomology_local_system(e, 4)
    assert sorted(induced) == sorted(distinct)
    for u, v in edges:
        to_u, to_v = (induced_map(e.restriction((u, v), (w,)), 4) for w in (u, v))
        for q in range(5):
            assert c.edges[(u, v)][q].matmul(to_v[q]) == to_u[q]


def _double_cover_system():
    """The twisted circle pulled back along the order-preserving double cover of the 3-cycle."""
    e, _ = twisted_circle_system(3, 5)
    cover = SimplicialComplexK.from_maximal([(0, 1), (1, 4), (2, 4), (2, 3), (3, 5), (0, 5)])
    return pullback(e, {0: 0, 1: 1, 2: 0, 3: 1, 4: 2, 5: 2}, cover)


@pytest.mark.parametrize(
    "make, upto",
    [
        (lambda: forms_system(cycle_complex(3), 2, cutoff=5), 4),
        (lambda: forms_system(boundary_complex(3), 2, cutoff=4), 3),
        (lambda: constant_system(cycle_complex(3), sphere_even_model(5)), 4),
        (lambda: twisted_circle_system()[0], 4),
        (_double_cover_system, 4),
        (lambda: fiber_product_system(*suspension_system_legs(cycle_complex(3), sphere_even_model(6), 5), 5)[0], 4),
        (lambda: tensor_system(forms_system(cycle_complex(3), 2, cutoff=6), odd_generator_fiber(1, 6), cutoff=6), 4),
        (_tier1_system("test_specseq", "_circle_tensor_system"), 4),
        (_tier1_system("test_specseq", "_small_suspension_system"), 3),
        (_tier1_system("test_specseq", "hopf_like_system"), 3),
        (_tier1_system("test_acceptance", "criterion_09_system_a"), 4),
        (_tier1_system("test_acceptance", "criterion_09_system_b"), 4),
        (_tier1_system("test_acceptance", "criterion_09_system_c"), 4),
    ],
    ids=["forms-circle", "forms-boundary3", "constant", "twisted-circle", "double-cover", "suspension-circle",
         "odd-torus", "circle-tensor", "small-suspension", "hopf-like", "criterion-9a", "criterion-9b",
         "criterion-9c"],
)
def test_transports_read_off_the_local_constancy_check_are_the_edge_by_edge_ones(make, upto):
    e = make()
    assert cohomology_local_system(e, upto).edges == transports_edge_by_edge(e, upto)


def test_h_local_coefficients_trivial_circle():
    base = cycle_complex(3)
    dims = {v: {0: 1} for v in base.vertices}
    edges = {tuple(s): {0: QMatrix.identity(1)} for s in base.simplices_of_dim(1)}
    c = LocalCoefficients(base, dims, edges)
    h = h_local_coefficients(base, c, 1, 0)
    assert h[(0, 0)] == 1 and h[(1, 0)] == 1


def test_h_local_coefficients_sign_twisted_circle():
    base = cycle_complex(3)
    dims = {v: {0: 1} for v in base.vertices}
    edges = {tuple(s): {0: QMatrix.identity(1)} for s in base.simplices_of_dim(1)}
    edges[(0, 2)] = {0: QMatrix.from_rows([[-1]])}
    c = LocalCoefficients(base, dims, edges)
    h = h_local_coefficients(base, c, 1, 0)
    assert h[(0, 0)] == 0 and h[(1, 0)] == 0


def test_h_local_coefficients_sphere():
    base = boundary_complex(3)
    dims = {v: {0: 1} for v in base.vertices}
    edges = {tuple(s): {0: QMatrix.identity(1)} for s in base.simplices_of_dim(1)}
    c = LocalCoefficients(base, dims, edges)
    h = h_local_coefficients(base, c, 2, 0)
    assert (h[(0, 0)], h[(1, 0)], h[(2, 0)]) == (1, 0, 1)


def test_h_local_coefficients_cocycle_failure_rejected():
    base = standard_complex(2)
    dims = {v: {0: 1} for v in base.vertices}
    edges = {tuple(s): {0: QMatrix.identity(1)} for s in base.simplices_of_dim(1)}
    edges[(0, 1)] = {0: QMatrix.from_rows([[-1]])}
    c = LocalCoefficients(base, dims, edges)
    with pytest.raises(InputError):
        h_local_coefficients(base, c, 1, 0)


def test_h_local_coefficients_subdivision_oracle():
    # the 6-cycle is a subdivision of the 3-cycle: twisted dims must agree
    for twist in (1, -1):
        base3 = cycle_complex(3)
        dims3 = {v: {0: 1} for v in base3.vertices}
        edges3 = {tuple(s): {0: QMatrix.identity(1)} for s in base3.simplices_of_dim(1)}
        edges3[(0, 2)] = {0: QMatrix.from_rows([[twist]])}
        h3 = h_local_coefficients(base3, LocalCoefficients(base3, dims3, edges3), 1, 0)
        base6 = cycle_complex(6)
        dims6 = {v: {0: 1} for v in base6.vertices}
        edges6 = {tuple(s): {0: QMatrix.identity(1)} for s in base6.simplices_of_dim(1)}
        edges6[(0, 5)] = {0: QMatrix.from_rows([[twist]])}
        h6 = h_local_coefficients(base6, LocalCoefficients(base6, dims6, edges6), 1, 0)
        assert h3 == h6


# -- cylinder ----------------------------------------------------------------------

def test_cylinder_retractions_are_quasi_isos():
    fiber = sphere_even_model(4)
    e = constant_system(cycle_complex(3), fiber)
    cyl, e0, e1 = cylinder(e)
    assert validate(cyl) == []
    assert e0.validate() == []
    assert e1.validate() == []
    for s in e.base.all_simplices():
        from cdgalab.cdga import is_quasi_iso

        ok, _ = is_quasi_iso(e0.maps[s], 3)
        assert ok
        ok, _ = is_quasi_iso(e1.maps[s], 3)
        assert ok


def test_cohomology_local_system_suspension_edges_identity():
    # over the circle, the suspension fiber-product system transports the
    # shifted classes identically along edges
    base = cycle_complex(3)
    m = sphere_even_model(6)
    f, g = suspension_system_legs(base, m, 5)
    p, _ = fiber_product_system(f, g, 5)
    c = cohomology_local_system(p, 4)
    for per_q in c.edges.values():
        for q, mat in per_q.items():
            assert mat == QMatrix.identity(mat.rows)


def test_validate_reports_a_facet_without_restriction():
    e = constant_system(standard_complex(1), sphere_even_model(3))
    restr = dict(e.facet_restrictions)
    del restr[((0, 1), 0)]
    problems = validate(FiniteLocalSystem(e.base, dict(e.fibers), restr))
    assert problems == ["no restriction from (0, 1) to its facet 0"]


def test_forms_system_builds_one_restriction_per_dimension_and_face():
    e = forms_system(boundary_complex(3), 3, cutoff=4)
    assert len(e.facet_restrictions) == 24
    assert len({id(r) for r in e.facet_restrictions.values()}) == 5
    assert validate(e) == []


def test_forms_with_a_negative_cutoff_are_rejected():
    with pytest.raises(InputError, match="non-negative"):
        forms_dga(1, 2, cutoff=-1)
    with pytest.raises(InputError, match="non-negative"):
        forms_system(cycle_complex(3), 2, cutoff=-1)


def test_validate_reports_wrong_restriction_ends_on_a_triangle():
    fiber = sphere_even_model(3)
    e = constant_system(standard_complex(2), fiber)
    restr = dict(e.facet_restrictions)
    restr[((0, 1, 2), 0)] = DGMorphism.identity(sphere_even_model(3))
    problems = validate(FiniteLocalSystem(e.base, dict(e.fibers), restr))
    assert problems == ["restriction endpoints wrong at ((0, 1, 2), 0)"]


# -- sharing and the dense reference build -------------------------------------

SUSPENSION_CASES = {
    # (sphere model cutoff, upto, sizes): the small suspension system of the
    # spectral-sequence tests, and family (c) of acceptance criterion 9
    "small": (6, 4, dict(forms_total=2, forms_cutoff=3, sys_cutoff=4)),
    "criterion_9c": (10, 7, dict(forms_total=3, forms_cutoff=4, sys_cutoff=7)),
}


@pytest.mark.parametrize("case", sorted(SUSPENSION_CASES))
def test_fiber_product_system_matches_the_per_simplex_dense_build(case):
    from test_acceptance import _suspension_legs

    cutoff, upto, sizes = SUSPENSION_CASES[case]
    f, g = _suspension_legs(boundary_complex(3), sphere_even_model(cutoff), **sizes)
    e, carriers = fiber_product_system(f, g, upto)
    dense_carriers, dense_restr = per_simplex_fiber_product_system(f, g, upto)
    for s, fp in carriers.items():
        carrier, dense = fp.carrier, dense_carriers[s].carrier
        assert carrier.dims == dense.dims
        for k in range(upto + 1):
            vectors = dense_kernel_basis(dense.kernels[k].matrix)
            assert carrier.kernels[k].vectors == vectors
            assert carrier.kernels[k].inclusion == QMatrix.from_cols(vectors, dense.ambient.dim(k))
        assert [carrier.d_matrix(k) for k in range(upto)] == dense_carrier_differentials(dense)
    assert {key: r.mats for key, r in e.facet_restrictions.items()} == dense_restr
    gamma = global_sections(e, upto)
    assert [gamma.d_matrix(k) for k in range(upto)] == dense_carrier_differentials(gamma)


def test_suspension_system_builds_each_distinct_fiber_product_and_push_once(monkeypatch):
    from cdgalab import localsys
    from test_acceptance import _suspension_legs

    calls = {"fiber_product": 0, "_push": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(localsys, name, counting(name, getattr(localsys, name)))
    cutoff, upto, sizes = SUSPENSION_CASES["small"]
    f, g = _suspension_legs(boundary_complex(3), sphere_even_model(cutoff), **sizes)
    # one tensor map and one fiber product per simplex dimension 0, 1, 2, and one
    # restriction per (dimension, face): two faces of an edge, three of a triangle
    assert [len({id(h) for h in leg.maps.values()}) for leg in (f, g)] == [3, 3]
    e, carriers = fiber_product_system(f, g, upto)
    assert calls == {"fiber_product": 3, "_push": 5}
    assert len({id(fp) for fp in carriers.values()}) == 3
    assert validate(e) == []
