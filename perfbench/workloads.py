"""The three benchmark workloads: seeded inputs, jobs and answer checks.

Each workload turns a seed into a fixed list of jobs.  A seed changes the
coefficients of every problem (basis scalings, differential and morphism
coefficients) but never its dimensions, its expected answers or the number of
jobs, so runs with different seeds do the same amount of exact work.

A job is run through the library module objects held by ``lib`` (see
``run.load_library``), so that the traced run sees calls through the wrappers
installed on those modules.  ``Job.run`` returns an ``Outcome``; ``Job.check``
returns a list of problems with it, empty when the answer is right.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

# Small nonzero rationals for the coefficients of the CLI problems.  Each
# batch draws hundreds of them, so every seed costs about the same.
SCALES = tuple(
    Fraction(x) for x in ("2", "3", "1/2", "1/3", "2/3", "3/2", "-1", "-2", "-1/2", "5/4")
)
# Basis scalings of the few large e2_towers and wedge_ladder inputs.  Signs
# change every coefficient they touch without changing the size of any
# rational, so every seed does the same exact arithmetic.
SIGNS = (Fraction(1), Fraction(-1))


@dataclass
class Outcome:
    """What a job produced: its verdict, canonical report and oracle facts."""

    code: int
    report: str
    facts: dict = field(default_factory=dict)


@dataclass
class Job:
    name: str
    run: Callable[[], Outcome]
    expect_code: int
    expect_facts: dict
    known_defect: str = ""

    def check(self, out: Outcome, digest: Optional[str]) -> list[str]:
        problems = []
        if out.code != self.expect_code:
            problems.append(f"exit code {out.code}, expected {self.expect_code}")
        for key, want in self.expect_facts.items():
            got = out.facts.get(key)
            if got != want:
                problems.append(f"{key} = {got!r}, expected {want!r}")
        if digest is not None and report_digest(out.report) != digest:
            problems.append("report digest differs from the recorded one")
        return problems


def report_digest(report: str) -> str:
    return hashlib.sha256(report.encode("utf-8")).hexdigest()[:16]


def _canon(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def random_signs(alg, rng: random.Random) -> list[list[Fraction]]:
    return [[rng.choice(SIGNS) for _ in range(alg.dim(k))] for k in range(alg.cutoff + 1)]


def rescaled(lib, alg, s: list[list[Fraction]]):
    """``alg`` with basis vector ``a`` of degree ``k`` multiplied by ``s[k][a]``.

    The result is isomorphic to ``alg`` (same dimensions, levels and labels),
    but its structure constants, differential entries and unit change.
    """
    cutoff, dims = alg.cutoff, list(alg.dims)
    table = {}
    for i in range(cutoff + 1):
        for j in range(i, cutoff + 1 - i):
            for a in range(dims[i]):
                for b in range(dims[j]):
                    if i == j and b < a:
                        continue
                    try:
                        v = alg.product_basis(i, a, j, b)
                    except lib.errors.CutoffTooSmallError:
                        continue
                    c = s[i][a] * s[j][b]
                    table[(i, a, j, b)] = tuple(c * x / s[i + j][t] for t, x in enumerate(v))
    diff_mats = []
    for k in range(cutoff):
        entries = {
            (r, c): s[k][c] * v / s[k + 1][r] for (r, c), v in alg.d_matrix(k).entries.items()
        }
        diff_mats.append(lib.exactlin.QMatrix(dims[k + 1], dims[k], entries))
    unit = tuple(u / s[0][t] for t, u in enumerate(alg.unit))
    return lib.cdga.from_tables(
        cutoff, dims, unit, diff_mats, table,
        labels=alg.labels, levels=alg.levels, check=False, name=alg.name,
    )


def _rng(seed: int, tag: str) -> random.Random:
    return random.Random(f"{seed}:{tag}")


# ---------------------------------------------------------------------------
# e2_towers: second pages and limit totals (acceptance criterion 9 families)
# ---------------------------------------------------------------------------

def _zero_pages(p_max: int, q_max: int) -> dict:
    return {f"{p},{q}": 0 for p in range(p_max + 1) for q in range(q_max + 1)}


def _gauge(lib, e, factor, weight: int, rng):
    """Gauge-transform a tensor system ``forms (x) factor`` at every vertex.

    At each vertex a seeded sign eps acts on ``factor`` by eps^(degree/weight),
    an automorphism when ``factor`` has zero differential and is generated in
    degree ``weight``.  Composing every restriction into the vertex with
    id (x) that automorphism gives an isomorphic system, same answers, whose
    restriction matrices change sign.
    """
    QMatrix = lib.exactlin.QMatrix
    for (v,) in e.base.simplices_of_dim(0):
        eps = rng.choice(SIGNS)
        psi = lib.cdga.DGMorphism(factor, factor, [
            QMatrix.identity(factor.dim(k)).scale(eps ** (k // weight))
            for k in range(factor.cutoff + 1)
        ])
        at_v = lib.localsys.tensor_system_morphism(e, e, psi).maps[(v,)]
        for s, i in list(e.facet_restrictions):
            if s[:i] + s[i + 1:] == (v,):
                e = lib.localsys.twist_restriction(e, s, i, at_v)
    return e


def _e2_family_cp2(lib, rng):
    """Constant CP^2-type fiber Q[x]/(x^3) over a triangulated circle."""
    fiber = lib.cdga.power_quotient_dga(2, 3, 8)
    fiber = rescaled(lib, fiber, random_signs(fiber, rng))
    forms = lib.localsys.forms_system(lib.polyforms.cycle_complex(3), 2, cutoff=8)
    return _gauge(lib, lib.localsys.tensor_system(forms, fiber, cutoff=8), fiber, 2, rng)


def _e2_family_twisted(lib, rng):
    """Odd class z of degree 3 over the circle, negated around the loop."""
    free = lib.cdga.FreeCDGA(lib.graded.FreeGCA([("z", 3)]), {})
    fz = lib.cdga.truncate(free, 8)
    fz = rescaled(lib, fz, random_signs(fz, rng))
    forms = lib.localsys.forms_system(lib.polyforms.cycle_complex(3), 2, cutoff=8)
    e = lib.localsys.tensor_system(forms, fz, cutoff=8)
    QMatrix = lib.exactlin.QMatrix
    sign = lib.cdga.DGMorphism(
        fz, fz,
        [QMatrix.identity(fz.dim(k)).scale(-1 if k == 3 else 1) for k in range(fz.cutoff + 1)],
    )
    # id (x) sign on the shared vertex fiber, applied on one edge end
    twist = lib.localsys.tensor_system_morphism(e, e, sign).maps[(0,)]
    return _gauge(lib, lib.localsys.twist_restriction(e, (0, 2), 0, twist), fz, 3, rng)


def _e2_family_suspension(lib, rng):
    """Suspension-triple fiber-product system over the boundary of the 3-simplex."""
    cdga, gluing, localsys = lib.cdga, lib.gluing, lib.localsys
    m = cdga.power_quotient_dga(2, 2, 10)
    m = rescaled(lib, m, random_signs(m, rng))
    cyl = cdga.tensor_product(m, gluing.interval_forms(1, cutoff=2), cutoff=m.cutoff - 2)
    mm = cdga.direct_sum(m, m, cutoff=m.cutoff - 2)
    f_leg = gluing.endpoint_evaluations(cyl, m, mm)
    qq, g_leg = gluing.two_point_unit_leg(mm, m, mm.cutoff)
    forms = localsys.forms_system(lib.polyforms.boundary_complex(3), 3, cutoff=4)
    sys_e1 = localsys.tensor_system(forms, cyl, cutoff=7)
    sys_e0 = localsys.tensor_system(forms, mm, cutoff=7)
    sys_qq = localsys.tensor_system(forms, qq, cutoff=7)
    f_sys = localsys.tensor_system_morphism(sys_e1, sys_e0, f_leg)
    g_sys = localsys.tensor_system_morphism(sys_qq, sys_e0, g_leg)
    e, _ = localsys.fiber_product_system(f_sys, g_sys, 7)
    return _rescale_vertices(lib, e, rng)


def _rescale_vertices(lib, e, rng):
    """Replace each vertex fiber by a sign-rescaled copy, restrictions to match.

    The fiber-product carriers have canonical bases, so signs chosen in the
    legs do not survive into the system; this puts seeded signs into its
    restriction matrices and vertex multiplication tables.  A vertex fiber
    has nothing above filtration level 0, so the copy needs no levels.
    """
    QMatrix, DGMorphism = lib.exactlin.QMatrix, lib.cdga.DGMorphism
    fibers, restr = dict(e.fibers), dict(e.facet_restrictions)
    for vertex in e.base.simplices_of_dim(0):
        s = random_signs(fibers[vertex], rng)
        fibers[vertex] = rescaled(lib, fibers[vertex], s)
        for (simplex, i), r in e.facet_restrictions.items():
            if simplex[:i] + simplex[i + 1:] == vertex:
                mats = [QMatrix(m.rows, m.cols, {(row, col): v / s[k][row]
                                                 for (row, col), v in m.entries.items()})
                        for k, m in enumerate(r.mats)]
                restr[(simplex, i)] = DGMorphism(r.source, fibers[vertex], mats, check="none")
    return lib.localsys.FiniteLocalSystem(e.base, fibers, restr)


def _e2_expected() -> dict:
    """Closed-form answers: E2 = H^p(base; H^q(fiber)) and limit totals."""
    a = _zero_pages(2, 4)
    for q in (0, 2, 4):  # S^1 with untwisted H(CP^2) coefficients
        a[f"0,{q}"] = a[f"1,{q}"] = 1
    b = _zero_pages(2, 4)
    b["0,0"] = b["1,0"] = 1  # the degree-3 coefficients are sign-twisted: H = 0
    c = _zero_pages(2, 4)
    for key in ("0,0", "2,0", "0,3", "2,3"):  # S^2 base, suspension of S^2 fiber
        c[key] = 1
    return {
        "cp2": (a, 4, [1, 1, 1, 1, 1]),  # S^1 x CP^2
        "twisted": (b, 4, [1, 1, 0, 0, 0]),  # the odd class dies
        "suspension": (c, 5, [1, 0, 1, 1, 0, 1]),  # S^2 x S^3
    }


E2_FAMILIES = {
    "cp2": _e2_family_cp2,
    "twisted": _e2_family_twisted,
    "suspension": _e2_family_suspension,
}


def e2_towers(lib, seed: int, workdir: Path) -> list[Job]:
    jobs = []
    for fam, (pages, upto, totals) in _e2_expected().items():
        build = E2_FAMILIES[fam]
        rng_seed = _rng(seed, "e2:" + fam).getrandbits(64)
        state: dict = {}

        def run_e2(build=build, rng_seed=rng_seed, state=state) -> Outcome:
            # the system is rebuilt in every pass so no fiber cache carries over
            e = build(lib, random.Random(rng_seed))
            state["e"] = e
            rep = lib.specseq.e2_check(e, 2, 4)
            dims = {f"{p},{q}": d for (p, q), d in rep.dims_pages.items()}
            report = _canon({
                "dims_pages": dims,
                "dims_local": {f"{p},{q}": d for (p, q), d in rep.dims_local.items()},
                "mismatches": rep.mismatches,
            })
            return Outcome(0 if rep.ok() else 1, report, {"E2": dims})

        def run_einf(upto=upto, state=state) -> Outcome:
            rep = lib.specseq.einfty_vs_target(state.pop("e"), upto)
            totals = [rep.totals_pages[k] for k in range(upto + 1)]
            report = _canon({
                "totals_pages": totals,
                "totals_target": [rep.totals_target[k] for k in range(upto + 1)],
                "mismatches": rep.mismatches,
                "product_checks": rep.product_checks,
                "product_failures": rep.product_failures,
            })
            return Outcome(0 if rep.ok() else 1, report, {"totals": totals})

        jobs.append(Job(f"e2_check:{fam}", run_e2, 0, {"E2": pages}))
        jobs.append(Job(f"einfty_vs_target:{fam}", run_einf, 0, {"totals": totals}))
    return jobs


# ---------------------------------------------------------------------------
# wedge_ladder: minimal models of wedges of 2-spheres by cutoff
# ---------------------------------------------------------------------------

def wedge_generator_counts(spheres: int, top: int) -> list[int]:
    """Sullivan generators per degree 2..top of a wedge of 2-spheres.

    The loop-space homology is the tensor algebra on ``spheres`` classes of
    degree 1, with Poincare series 1/(1 - spheres*t).  It is the enveloping
    algebra of the rational homotopy Lie algebra L, so
    prod_{n odd} (1 + t^n)^{l_n} / prod_{n even} (1 - t^n)^{l_n}
    equals that series; l_n, solved for degree by degree, is the number of
    generators in degree n + 1.
    """
    n_max = top - 1
    series = [1] + [0] * n_max  # product of the factors fixed so far
    counts = []
    for n in range(1, n_max + 1):
        l_n = spheres**n - series[n]
        counts.append(l_n)
        for _ in range(l_n):  # multiply by (1 + t^n) or by 1/(1 - t^n)
            if n % 2:
                for k in range(n_max, n - 1, -1):
                    series[k] += series[k - n]
            else:
                for k in range(n, n_max + 1):
                    series[k] += series[k - n]
    return counts


def wedge_of_spheres(lib, spheres: int, cutoff: int, rng: random.Random):
    """Cohomology of a wedge of 2-spheres, with a seeded sign on the unit."""
    dims = [1] + [0] * cutoff
    dims[2] = spheres
    a = rng.choice(SIGNS)  # the degree-0 basis vector is a * 1
    zero = Fraction(0)
    table = {}
    for j in range(cutoff + 1):
        for b in range(dims[j]):
            table[(0, 0, j, b)] = tuple(a if t == b else zero for t in range(dims[j]))
    for i in range(1, cutoff + 1):
        for j in range(i, cutoff + 1 - i):
            for x in range(dims[i]):
                for y in range(dims[j]):
                    table[(i, x, j, y)] = (zero,) * dims[i + j]
    QMatrix = lib.exactlin.QMatrix
    return lib.cdga.from_tables(
        cutoff, dims, (1 / a,),
        [QMatrix.zero(dims[k + 1], dims[k]) for k in range(cutoff)],
        table, check=False, name=f"wedge{spheres}",
    )


# (spheres, cutoff) rungs; the two-sphere ladder grows about 3x per degree
WEDGE_RUNGS = [(2, c) for c in range(5, 12)] + [(3, c) for c in range(5, 8)]


def wedge_ladder(lib, seed: int, workdir: Path) -> list[Job]:
    jobs = []
    for spheres, cutoff in WEDGE_RUNGS:
        tag = f"wedge{spheres}:cutoff{cutoff}"
        rng_seed = _rng(seed, tag).getrandbits(64)
        top = cutoff - 2  # degrees below this are complete at upto = cutoff - 1
        expected = wedge_generator_counts(spheres, top)

        def run(spheres=spheres, cutoff=cutoff, rng_seed=rng_seed, top=top) -> Outcome:
            target = wedge_of_spheres(lib, spheres, cutoff, random.Random(rng_seed))
            res = lib.sullivan.minimal_model(target, cutoff - 1)
            gens = res.model.gca.generators
            counts = [sum(1 for g in gens if g.degree == n) for n in range(2, top + 1)]
            report = _canon({
                "generators": [[g.name, g.degree] for g in gens],
                "differentials": {g.name: repr(res.model.diff[g.name]) for g in gens},
                "built_upto": res.built_upto,
            })
            return Outcome(0, report, {"generators_by_degree": counts})

        jobs.append(Job(f"minimal_model:{tag}", run, 0, {"generators_by_degree": expected}))
    return jobs


# ---------------------------------------------------------------------------
# cli_batch: small JSON problems through cli.main --format machine
# ---------------------------------------------------------------------------

def _r(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _circle() -> dict:
    return {"vertices": [0, 1, 2], "maximal": [[0, 1], [1, 2], [0, 2]]}


def _cp_free(c: Fraction, n: int, cutoff: int) -> dict:
    """Free model of CP^n with dy = c x^(n+1)."""
    return {
        "type": "free",
        "generators": [["x", 2], ["y", 2 * n + 1]],
        "differential": {"y": [[_r(c), {"x": n + 1}]]},
        "cutoff": cutoff,
    }


def _scaled_points(a: Fraction, b: Fraction, cutoff: int) -> dict:
    """Q x Q with basis (a, 0), (0, b), as an explicit table."""
    zeros = [0] * cutoff
    return {
        "type": "truncated",
        "dims": [2] + zeros,
        "unit": [_r(1 / a), _r(1 / b)],
        "labels": [["p", "q"]] + [[] for _ in zeros],
        "diff": {},
        "mult": [[0, 0, 0, 0, [_r(a), "0"]], [0, 0, 0, 1, ["0", "0"]], [0, 1, 0, 1, ["0", _r(b)]]],
    }


def _scaled_point(a: Fraction, cutoff: int) -> dict:
    zeros = [0] * cutoff
    return {
        "type": "truncated",
        "dims": [1] + zeros,
        "unit": [_r(1 / a)],
        "labels": [["p"]] + [[] for _ in zeros],
        "diff": {},
        "mult": [[0, 0, 0, 0, [_r(a)]]],
    }


def _doc(task: str, task_args: dict, **sections) -> dict:
    return {"version": "1", "task": task, "task_args": task_args, **sections}


# Each template returns (problem document, extra CLI flags, expected exit
# code, expected facts).  A fact is a dotted path into the machine report.

def _t_heisenberg(rng):
    c = rng.choice(SCALES)
    alg = {
        "type": "free",
        "generators": [["t1", 1], ["t2", 1], ["u", 1]],
        "differential": {"u": [[_r(c), {"t1": 1, "t2": 1}]]},
        "cutoff": 4,
    }
    return _doc("cohomology", {"algebra": "H", "upto": 3}, algebras={"H": alg}), [], 0, {
        "result.dims": [1, 2, 2, 1]}


def _t_torus_sphere(rng):
    """T^2 x S^2 (S^2 as x, y with dy = c x^2): many nonzero cup products."""
    c = rng.choice(SCALES)
    alg = {
        "type": "free",
        "generators": [["t1", 1], ["t2", 1], ["x", 2], ["y", 3]],
        "differential": {"y": [[_r(c), {"x": 2}]]},
        "cutoff": 5,
    }
    return _doc("cohomology", {"algebra": "A", "upto": 4}, algebras={"A": alg}), [], 0, {
        "result.dims": [1, 2, 2, 2, 1]}


def _t_cp2_cohomology(rng):
    alg = _cp_free(rng.choice(SCALES), 2, 7)
    return _doc("cohomology", {"algebra": "C", "upto": 6}, algebras={"C": alg}), [], 0, {
        "result.dims": [1, 0, 1, 0, 1, 0, 0]}


def _t_minimal_cp2(rng):
    alg = _cp_free(rng.choice(SCALES), 2, 7)
    return _doc("minimal-model", {"target": "C", "upto": 6}, algebras={"C": alg}), [], 0, {
        "result.generator_degrees": [2, 5]}


def _t_minimal_s2(rng):
    alg = _cp_free(rng.choice(SCALES), 1, 7)
    return _doc("minimal-model", {"target": "S", "upto": 6}, algebras={"S": alg}), [], 0, {
        "result.generator_degrees": [2, 3]}


def _t_loop_cp1(rng):
    alg = _cp_free(rng.choice(SCALES), 1, 6)
    return _doc("loop-model", {"model": "S", "upto": 4}, algebras={"S": alg}), [], 0, {
        "result.cohomology_dims": [1, 1, 1, 1, 1], "result.generator_degrees": [1, 2, 2, 3]}


def _t_suspend_s2(rng):
    alg = _cp_free(rng.choice(SCALES), 1, 6)
    return _doc("suspend", {"model": "S", "upto": 5}, algebras={"S": alg}), [], 0, {
        "result.cohomology_dims": [1, 0, 0, 1, 0], "result.positive_products_vanish": True}


def _t_glue_circle(rng):
    a, b = rng.choice(SCALES), rng.choice(SCALES)
    ia, ib = _r(1 / a), _r(1 / b)
    algebras = {
        "I": {"type": "simplex-forms", "dim": 1, "total_degree": 2, "cutoff": 5},
        "P": {"type": "point", "cutoff": 5},
        "QQ": _scaled_points(a, b, 5),
    }
    morphisms = {
        "ev": {"source": "I", "target": "QQ", "matrices": {"0": [[ia, "0", "0"], [ib, ib, ib]]}},
        "diag": {"source": "P", "target": "QQ", "matrices": {"0": [[ia], [ib]]}},
    }
    doc = _doc("glue", {"f": "ev", "g": "diag", "upto": 4}, algebras=algebras, morphisms=morphisms)
    return doc, ["--verify"], 0, {"result.cohomology_dims": [1, 1, 0, 0], "verify.exact": True}


def _t_glue_wedge(rng):
    """Two 2-spheres glued at a point (augmentations into a rescaled point)."""
    a = rng.choice(SCALES)
    algebras = {
        "S": _cp_free(rng.choice(SCALES), 1, 5),
        "T": {"type": "power-quotient", "degree": 2, "power": 2, "cutoff": 5},
        "P": _scaled_point(a, 5),
    }
    # the free model of S^2 has basis 1 in degree 0; both send 1 to the unit
    morphisms = {
        "eS": {"source": "S", "target": "P", "matrices": {"0": [[_r(1 / a)]]}},
        "eT": {"source": "T", "target": "P", "matrices": {"0": [[_r(1 / a)]]}},
    }
    doc = _doc("glue", {"f": "eS", "g": "eT", "upto": 4}, algebras=algebras, morphisms=morphisms)
    return doc, ["--verify"], 0, {"result.cohomology_dims": [1, 0, 2, 0], "verify.exact": True}


def _t_gamma_circle_s2(rng):
    alg = _cp_free(rng.choice(SCALES), 1, 4)
    doc = _doc(
        "gamma", {"system": "E", "upto": 3},
        algebras={"S": alg},
        complexes={"K": _circle()},
        systems={"E": {"type": "forms", "base": "K", "total_degree": 2, "cutoff": 4,
                       "tensor_with": "S"}},
    )
    return doc, [], 0, {"result.cohomology_dims": [1, 1, 1]}


def _t_gamma_sphere_s2(rng):
    """Forms on the boundary of the 3-simplex tensored with a model of S^2."""
    alg = _cp_free(rng.choice(SCALES), 1, 5)
    sphere = {"vertices": [0, 1, 2, 3], "maximal": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]}
    doc = _doc(
        "gamma", {"system": "E", "upto": 3},
        algebras={"S": alg},
        complexes={"K": sphere},
        systems={"E": {"type": "forms", "base": "K", "total_degree": 3, "cutoff": 5,
                       "tensor_with": "S"}},
    )
    return doc, [], 0, {"result.cohomology_dims": [1, 0, 2]}


def _t_gamma_edge_points(rng):
    """Explicit system over an edge: rescaled points with unital restrictions."""
    a, b, c = (rng.choice(SCALES) for _ in range(3))
    algebras = {"P0": _scaled_point(a, 3), "P1": _scaled_point(b, 3), "E": _scaled_point(c, 3)}

    def restr(src_scale, tgt_name, tgt_scale):
        # the unit (1/src) maps to the unit (1/tgt)
        return {"source": "E", "target": tgt_name, "matrices": {"0": [[_r(src_scale / tgt_scale)]]}}

    doc = _doc(
        "gamma", {"system": "X", "upto": 2},
        algebras=algebras,
        complexes={"K": {"vertices": [0, 1], "maximal": [[0, 1]]}},
        systems={"X": {"type": "explicit", "base": "K",
                       "fibers": {"0": "P0", "1": "P1", "0,1": "E"},
                       "restrictions": {"0,1|0": restr(c, "P1", b), "0,1|1": restr(c, "P0", a)}}},
    )
    return doc, [], 0, {"result.dims": [1, 0, 0], "result.cohomology_dims": [1, 0]}


def _t_ss_circle(rng):
    alg = _cp_free(rng.choice(SCALES), 1, 5)
    doc = _doc(
        "ss", {"system": "E", "p_max": 1, "q_max": 2},
        algebras={"S": alg},
        complexes={"K": _circle()},
        systems={"E": {"type": "forms", "base": "K", "total_degree": 2, "cutoff": 5,
                       "tensor_with": "S"}},
    )
    e2 = {"0,0": 1, "0,1": 0, "0,2": 1, "1,0": 1, "1,1": 0, "1,2": 1}
    return doc, ["--verify"], 0, {
        "result.E2": e2, "verify.e2_matches_local_coefficients": True,
        "verify.einfty_matches_target": True}


def _t_ss_constant_points(rng):
    """A literal constant system is not thickened: the E2 check must fail (exit 1)."""
    a = rng.choice(SCALES)
    edges = [(0, 1), (1, 2), (0, 2)]
    doc = _doc(
        "ss", {"system": "E", "p_max": 1, "q_max": 1},
        algebras={"P": _scaled_point(a, 4)},
        complexes={"K": _circle()},
        systems={"E": {
            "type": "explicit", "base": "K",
            "fibers": {k: "P" for k in ("0", "1", "2", "0,1", "1,2", "0,2")},
            "restrictions": {
                f"{u},{v}|{i}": {"source": "P", "target": "P", "matrices": {"0": [["1"]]}}
                for (u, v) in edges for i in (0, 1)
            },
        }},
    )
    return doc, ["--verify"], 1, {"verify.e2_matches_local_coefficients": False}


def _t_admissible(rng):
    doc = _doc("check-admissible", {"n_max": 2, "samples": 10, "seed": rng.randrange(10**6)})
    return doc, [], 0, {"result.acyclicity": True, "result.extendability": True,
                        "result.failures": []}


# -- malformed problems: every one must exit 2 ---------------------------------

def _m_missing_algebra(rng):
    doc, _, _, _ = _t_glue_circle(rng)
    doc["morphisms"]["diag"]["source"] = "NOPE"
    return doc, [], 2, {}


def _m_fractional_degree(rng):
    doc, _, _, _ = _t_heisenberg(rng)
    doc["algebras"]["H"]["generators"][2][1] = "1.5"
    return doc, [], 2, {}


def _m_decimal_literal(rng):
    doc, _, _, _ = _t_heisenberg(rng)
    doc["algebras"]["H"]["differential"]["u"][0][0] = 0.5
    return doc, [], 2, {}


def _m_unknown_reference(rng):
    doc, _, _, _ = _t_cp2_cohomology(rng)
    doc["task_args"]["algebra"] = "missing"
    return doc, [], 2, {}


def _m_unknown_task(rng):
    doc, _, _, _ = _t_heisenberg(rng)
    doc["task"] = "homotopy-groups"
    return doc, [], 2, {}


# (template, copies per batch, known defect or "")
CLI_TEMPLATES = [
    (_t_heisenberg, 30, ""),
    (_t_torus_sphere, 20, ""),
    (_t_cp2_cohomology, 20, ""),
    (_t_minimal_cp2, 12, ""),
    (_t_minimal_s2, 12, ""),
    (_t_loop_cp1, 16, ""),
    (_t_suspend_s2, 10, ""),
    (_t_glue_circle, 10, ""),
    (_t_glue_wedge, 10, ""),
    (_t_gamma_circle_s2, 8, ""),
    (_t_gamma_sphere_s2, 8, ""),
    (_t_gamma_edge_points, 16, ""),
    (_t_ss_circle, 8, ""),
    (_t_ss_constant_points, 8, ""),
    (_t_admissible, 8, ""),
    (_m_missing_algebra, 1, "morphism with a missing algebra raises KeyError, not exit 2"),
    (_m_fractional_degree, 1, "non-integer generator degree raises ValueError, not exit 2"),
    (_m_decimal_literal, 2, ""),
    (_m_unknown_reference, 2, ""),
    (_m_unknown_task, 2, ""),
]


def _lookup(report: dict, dotted: str):
    value = report
    for part in dotted.split("."):
        if not isinstance(value, dict) or part not in value:
            return None
        value = value[part]
    return value


def _cli_facts(report_text: str, keys) -> dict:
    if not report_text:
        return {}
    report = json.loads(report_text)
    result = report.get("result") or {}
    if "generators" in result:
        result["generator_degrees"] = sorted(d for _, d in result["generators"])
    return {k: _lookup(report, k) for k in keys}


def cli_problems(seed: int) -> list[tuple[str, dict, list, int, dict, str]]:
    """The batch as (name, document, flags, exit code, facts, known defect)."""
    out = []
    for template, copies, defect in CLI_TEMPLATES:
        for i in range(copies):
            name = f"{template.__name__.lstrip('_')}:{i}"
            doc, flags, code, facts = template(_rng(seed, name))
            out.append((name, doc, flags, code, facts, defect))
    return out


def cli_batch(lib, seed: int, workdir: Path) -> list[Job]:
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = []
    for n, (name, doc, flags, code, facts, defect) in enumerate(cli_problems(seed)):
        path = workdir / f"p{n:04d}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = [str(path), "--format", "machine", *flags]

        def run(argv=argv, keys=tuple(facts)) -> Outcome:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = lib.cli.main(argv)
            text = out.getvalue()
            return Outcome(code, text, _cli_facts(text, keys))

        jobs.append(Job(f"cli:{name}", run, code, facts, defect))
    return jobs


WORKLOADS = {
    "e2_towers": e2_towers,
    "wedge_ladder": wedge_ladder,
    "cli_batch": cli_batch,
}


def warm_up(lib, workload: str, jobs: list[Job]) -> None:
    """Exercise the code paths of a workload once on a small input."""
    if workload == "e2_towers":
        e = lib.localsys.forms_system(lib.polyforms.cycle_complex(3), 2, cutoff=4)
        lib.specseq.e2_check(e, 1, 1)
        lib.specseq.einfty_vs_target(e, 2)
    else:
        jobs[0].run()  # the smallest rung, or one small CLI problem
