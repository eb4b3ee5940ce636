"""Batch front end: JSON problem files in, reports out.

A problem file is a single JSON document::

    {
      "version": "1",
      "task": "cohomology" | "minimal-model" | "loop-model" | "suspend"
             | "glue" | "gamma" | "ss" | "check-admissible",
      "algebras":  { name: algebra-spec, ... },
      "morphisms": { name: morphism-spec, ... },
      "complexes": { name: {"vertices": [...], "maximal": [[...], ...]} },
      "systems":   { name: system-spec, ... },
      "task_args": { ... task specific names ... },
      "parameters": {"upto": n, "cutoff": n}
    }

Algebra specs: ``{"type": "free", "generators": [["x", 2], ...],
"differential": {gen: [[coeff, {gen: exp, ...}], ...]}, "cutoff": n}``,
``{"type": "power-quotient", "degree": d, "power": p, "cutoff": n}``,
``{"type": "point", "cutoff": n}``, ``{"type": "product", "factors": [a, b]}``,
``{"type": "tensor", "factors": [a, b], "cutoff": n}``,
``{"type": "simplex-forms", "dim": n, "total_degree": D, "cutoff": n}`` and
``{"type": "truncated", ...}`` (the explicit table form the CLI itself emits;
one string per basis element and degree in its ``labels``).  Product and
tensor specs nest at most 100 deep.

Morphism specs give explicit matrices (rows of rational literals, degree
keyed) or ``{"type": "face-restriction", "source": a, "target": b, "face": i}``.
System specs are ``{"type": "explicit", "base": K, "fibers": {simplex: alg},
"restrictions": {"simplex|face": morphism-spec-or-name}}`` or
``{"type": "forms", "base": K, "total_degree": D, "cutoff": n,
"tensor_with": alg}``; the skeletal filtration of a ``tensor_with`` system
counts the form degree of the base forms only, never levels of ``alg``.

A complex is the set of faces of its ``maximal`` simplices; its optional
``vertices``, when given, must list their vertex set, each vertex once.

Rational literals are ``"p/q"`` strings or integers; decimal notation is
rejected everywhere.  Integer fields (degrees, cutoffs, dimensions, faces,
exponents, indices) are JSON integers or integral strings such as ``"3"``;
the degree bounds ``upto``, ``p_max`` and ``q_max`` must be non-negative.
Exit codes: 0 success, 1 mathematical check failure (or a failed internal
invariant, reported with an ``internal error:`` prefix), 2 input error.  The
machine-readable report section is canonical JSON and is byte-identical
across runs on the same input; timing goes to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction
from typing import Any, Optional

from . import cdga, gluing, localsys, polyforms, specseq, sullivan
from .cdga import DGMorphism, FreeCDGA, TruncatedDGA
from .errors import CdgaError, CutoffTooSmallError, InputError, InternalError, PreconditionError
from .exactlin import QMatrix, format_rat, rat
from .graded import FreeGCA

TASKS = (
    "cohomology",
    "minimal-model",
    "loop-model",
    "suspend",
    "glue",
    "gamma",
    "ss",
    "check-admissible",
)

SCHEMA_VERSION = "1"

_MAX_NESTING = 100  # product and tensor specs nest at most this deep; products recurse per level


def _int(x, what: str) -> int:
    """An integer from a JSON integer or an integral string such as ``"3"``."""
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        try:
            return int(x)
        except ValueError:
            pass
    raise InputError(f"{what} must be an integer, got {x!r}")


def _bound(x, what: str) -> int:
    """A degree bound: a non-negative integer."""
    n = _int(x, what)
    if n < 0:
        raise InputError(f"{what} must be non-negative, got {n}")
    return n


def _req(spec, key: str):
    """A required field of a JSON object."""
    if not isinstance(spec, dict) or key not in spec:
        raise InputError(f"missing field {key!r}")
    return spec[key]


def _obj(x, what: str) -> dict:
    if not isinstance(x, dict):
        raise InputError(f"{what} must be a JSON object, got {x!r}")
    return x


def _list(x, what: str) -> list:
    if not isinstance(x, list):
        raise InputError(f"{what} must be a JSON list, got {x!r}")
    return x


def _items(x, n: int, what: str) -> list:
    if not (isinstance(x, list) and len(x) == n):
        raise InputError(f"{what} must be a list of {n} items, got {x!r}")
    return x


def _matrix(rows: list, nrows: int, ncols: int) -> QMatrix:
    if len(_list(rows, "matrix")) != nrows:
        raise InputError(f"matrix has {len(rows)} rows, expected {nrows}")
    data = []
    for row in rows:
        if len(_list(row, "matrix row")) != ncols:
            raise InputError(f"matrix row has {len(row)} entries, expected {ncols}")
        data.append([rat(v) for v in row])
    return QMatrix.from_rows(data, ncols) if nrows else QMatrix.zero(0, ncols)


def _simplex_key(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in str(text).split(","))
    except ValueError as exc:
        raise InputError(f"bad simplex key {text!r}") from exc


def _check_vertices(name: str, listed, vertices: tuple[int, ...]) -> None:
    """A complex's ``vertices`` must be distinct integers, the vertex set of its maximal simplices."""
    seen: set[int] = set()
    for v in (_int(x, "vertex") for x in _list(listed, "vertices")):
        if v in seen:
            raise InputError(f"complex {name!r} lists vertex {v} twice")
        if v not in vertices:
            raise InputError(f"complex {name!r} lists vertex {v}, which no maximal simplex contains")
        seen.add(v)
    for v in vertices:
        if v not in seen:
            raise InputError(f"complex {name!r} has vertex {v} in a maximal simplex but not in its vertices")


class Problem:
    """Parsed and resolved problem file.

    ``default_cutoff`` (the --cutoff flag) fills in missing algebra cutoffs.
    """

    def __init__(self, doc: dict, default_cutoff: Optional[int] = None):
        if not isinstance(doc, dict):
            raise InputError("problem file must be a JSON object")
        if doc.get("version") != SCHEMA_VERSION:
            raise InputError(f"unsupported schema version {doc.get('version')!r}")
        self.default_cutoff = default_cutoff
        self.task = doc.get("task")
        if self.task not in TASKS:
            raise InputError(f"unknown task {self.task!r}; choose one of {', '.join(TASKS)}")
        self.parameters = dict(_obj(doc.get("parameters", {}), "parameters"))
        self.task_args = dict(_obj(doc.get("task_args", {}), "task_args"))
        self.free_algebras: dict[str, FreeCDGA] = {}
        self.algebras: dict[str, TruncatedDGA] = {}
        self._algebra_specs = dict(_obj(doc.get("algebras", {}), "algebras"))
        self._nesting: dict[str, int] = {}  # product and tensor levels below each algebra
        self.complexes: dict[str, polyforms.SimplicialComplexK] = {}
        for name, spec in _obj(doc.get("complexes", {}), "complexes").items():
            self.complexes[name] = polyforms.SimplicialComplexK.from_maximal(
                [
                    tuple(_int(v, "vertex") for v in _list(s, "simplex"))
                    for s in _list(_req(spec, "maximal"), "maximal")
                ]
            )
            if "vertices" in spec:
                _check_vertices(name, spec["vertices"], self.complexes[name].vertices)
        for name in self._algebra_specs:
            self._resolve_algebra(name, [])
        self.morphisms: dict[str, DGMorphism] = {}
        for name, spec in _obj(doc.get("morphisms", {}), "morphisms").items():
            self.morphisms[name] = self._build_morphism(spec)
        self.systems: dict[str, localsys.FiniteLocalSystem] = {}
        for name, spec in _obj(doc.get("systems", {}), "systems").items():
            self.systems[name] = self._build_system(spec)

    def algebra(self, name) -> TruncatedDGA:
        if not isinstance(name, str) or name not in self.algebras:
            raise InputError(f"unknown algebra {name!r}")
        return self.algebras[name]

    def complex(self, name) -> polyforms.SimplicialComplexK:
        if not isinstance(name, str) or name not in self.complexes:
            raise InputError(f"unknown complex {name!r}")
        return self.complexes[name]

    def morphism(self, name) -> DGMorphism:
        if not isinstance(name, str) or name not in self.morphisms:
            raise InputError(f"unknown morphism {name!r}")
        return self.morphisms[name]

    def system(self, name) -> "localsys.FiniteLocalSystem":
        if not isinstance(name, str) or name not in self.systems:
            raise InputError(f"unknown system {name!r}")
        return self.systems[name]

    # -- algebras --------------------------------------------------------
    def _resolve_algebra(self, name, stack: list) -> TruncatedDGA:
        if not isinstance(name, str):
            raise InputError(f"algebra names must be strings, got {name!r}")
        if name in self.algebras:
            return self.algebras[name]
        if name in stack:
            raise InputError(f"algebra {name!r} is defined in terms of itself")
        if len(stack) > _MAX_NESTING:
            raise InputError(f"algebra {stack[0]!r} nests product and tensor specs over {_MAX_NESTING} deep")
        spec = self._algebra_specs.get(name)
        if spec is None:
            raise InputError(f"unknown algebra {name!r}")
        kind = _obj(spec, f"algebra {name!r}").get("type")
        cutoff = spec.get("cutoff", self.default_cutoff)
        if kind == "free":
            gens = []
            for g in _list(spec.get("generators", []), "generators"):
                gen_name, degree = _items(g, 2, "a generator [name, degree]")
                gens.append((gen_name, _int(degree, "generator degree")))
            gca = FreeGCA(gens)
            diff = {}
            for gname, terms in _obj(spec.get("differential", {}), "differential").items():
                diff[gname] = _element(gca, terms)
            free = FreeCDGA(gca, diff)
            self.free_algebras[name] = free
            if cutoff is None:
                raise InputError(f"free algebra {name!r} needs a cutoff")
            alg = cdga.truncate(free, _int(cutoff, "cutoff"))
        elif kind == "power-quotient":
            alg = cdga.power_quotient_dga(
                _int(_req(spec, "degree"), "degree"),
                _int(_req(spec, "power"), "power"),
                _int(cutoff, "cutoff"),
            )
        elif kind == "point":
            alg = cdga.point_dga(_int(cutoff, "cutoff"))
        elif kind in ("product", "tensor"):
            factors = _items(_req(spec, "factors"), 2, f"the factors of {kind} {name!r}")
            a, b = (self._resolve_algebra(n, stack + [name]) for n in factors)
            self._nesting[name] = 1 + max(self._nesting.get(n, 0) for n in factors)
            if self._nesting[name] > _MAX_NESTING:
                raise InputError(f"algebra {name!r} nests product and tensor specs over {_MAX_NESTING} deep")
            build = cdga.direct_sum if kind == "product" else cdga.tensor_product
            alg = build(a, b, cutoff=_int(cutoff, "cutoff") if cutoff is not None else None)
        elif kind == "simplex-forms":
            alg = polyforms.forms_dga(
                _int(_req(spec, "dim"), "dim"),
                _int(_req(spec, "total_degree"), "total_degree"),
                cutoff=_int(cutoff, "cutoff") if cutoff is not None else None,
            )
        elif kind == "truncated":
            alg = _parse_truncated(spec)
        else:
            raise InputError(f"unknown algebra type {kind!r}")
        alg.name = alg.name or name
        self.algebras[name] = alg
        return alg

    # -- morphisms ---------------------------------------------------------
    def _build_morphism(self, spec) -> DGMorphism:
        if isinstance(spec, str):
            if spec not in self.morphisms:
                raise InputError(f"unknown morphism {spec!r}")
            return self.morphisms[spec]
        kind = _obj(spec, "morphism").get("type", "matrices")
        src = self.algebra(_req(spec, "source"))
        tgt = self.algebra(_req(spec, "target"))
        if kind == "face-restriction":
            mats = polyforms.face_restriction_matrices(src, tgt, _int(_req(spec, "face"), "face"))
            return DGMorphism(src, tgt, mats, check="none")
        if kind == "matrices":
            cap = min(src.cutoff, tgt.cutoff)
            mats = []
            given = _obj(spec.get("matrices", {}), "matrices")
            for k in range(cap + 1):
                rows = given.get(str(k))
                if rows is None:
                    mats.append(QMatrix.zero(tgt.dim(k), src.dim(k)))
                else:
                    mats.append(_matrix(rows, tgt.dim(k), src.dim(k)))
            return DGMorphism(src, tgt, mats)
        raise InputError(f"unknown morphism type {kind!r}")

    # -- systems --------------------------------------------------------------
    def _build_system(self, spec) -> localsys.FiniteLocalSystem:
        kind = _obj(spec, "system").get("type", "explicit")
        base = self.complex(_req(spec, "base"))
        if kind == "forms":
            sys_ = localsys.forms_system(
                base,
                _int(_req(spec, "total_degree"), "total_degree"),
                cutoff=_int(spec["cutoff"], "cutoff") if spec.get("cutoff") is not None else None,
            )
            factor = spec.get("tensor_with")
            if factor:
                sys_ = localsys.tensor_system(
                    sys_, self.algebra(factor), cutoff=_int(_req(spec, "cutoff"), "cutoff")
                )
            return sys_
        if kind == "explicit":
            fibers = {}
            for key, alg_name in _obj(_req(spec, "fibers"), "fibers").items():
                fibers[_simplex_key(key)] = self.algebra(alg_name)
            restr = {}
            for key, morph in _obj(spec.get("restrictions", {}), "restrictions").items():
                if "|" not in key:
                    raise InputError(f"restriction key {key!r} is not of the form 'simplex|face'")
                skey, face = key.rsplit("|", 1)
                restr[(_simplex_key(skey), _int(face, "face"))] = self._build_morphism(morph)
            e = localsys.FiniteLocalSystem(base, fibers, restr)
            problems = localsys.validate(e)
            if problems:
                raise InputError("invalid local system: " + problems[0])
            return e
        raise InputError(f"unknown system type {kind!r}")


def _element(gca: FreeGCA, terms) -> Any:
    out = gca.zero()
    for term in _list(terms, "differential"):
        coeff, expo = _items(term, 2, "a differential term [coefficient, monomial]")
        mono = [0] * gca.ngens
        for gname, e in _obj(expo, "monomial").items():
            if gname not in gca.index:
                raise InputError(f"unknown generator {gname!r} in a differential")
            mono[gca.index[gname]] = _int(e, "exponent")
        out = out + rat(coeff) * gca.element({tuple(mono): Fraction(1)})
    return out


def _parse_truncated(spec) -> TruncatedDGA:
    dims = [_int(x, "dimension") for x in _list(_req(spec, "dims"), "dims")]
    cutoff = len(dims) - 1
    unit = tuple(rat(x) for x in _list(_req(spec, "unit"), "unit"))
    diff_mats = []
    dd = _obj(spec.get("diff", {}), "diff")
    for k in range(cutoff):
        entries = {}
        for entry in _list(dd.get(str(k), []), "diff"):
            r, c, v = _items(entry, 3, "a diff entry [row, column, value]")
            entries[(_int(r, "row"), _int(c, "column"))] = rat(v)
        diff_mats.append(QMatrix(dims[k + 1], dims[k], entries))
    table = {}
    for entry in _list(spec.get("mult", []), "mult"):
        i, a, j, b, vec = _items(entry, 5, "a mult entry [i, a, j, b, vector]")
        key = (_int(i, "degree"), _int(a, "index"), _int(j, "degree"), _int(b, "index"))
        table[key] = tuple(rat(x) for x in _list(vec, "product vector"))
    labels = spec.get("labels")
    return cdga.from_tables(
        cutoff,
        dims,
        unit,
        diff_mats,
        table,
        labels=[_list(l, "labels") for l in _list(labels, "labels")] if labels is not None else None,
        check=True,
        name=spec.get("name", ""),
    )


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def emit_free(f: FreeCDGA, cutoff: int) -> dict:
    gens = [[g.name, g.degree] for g in f.gca.generators]
    diff = {}
    for g in f.gca.generators:
        img = f.diff[g.name]
        if img.is_zero():
            continue
        diff[g.name] = [
            [format_rat(c), {f.gca.generators[i].name: e for i, e in enumerate(m) if e}]
            for m, c in sorted(img.terms.items())
        ]
    return {"type": "free", "generators": gens, "differential": diff, "cutoff": cutoff}


def emit_truncated(a: TruncatedDGA) -> dict:
    diff = {}
    for k in range(a.cutoff):
        rows = sorted(a.d_matrix(k).entries.items())
        if rows:
            diff[str(k)] = [[r, c, format_rat(v)] for (r, c), v in rows]
    mult = []
    for i in range(a.cutoff + 1):
        for j in range(i, a.cutoff + 1 - i):
            for x in range(a.dim(i)):
                for y in range(a.dim(j)):
                    if i == j and y < x:
                        continue
                    try:
                        vec = a.product_basis(i, x, j, y)
                    except CutoffTooSmallError:
                        continue
                    mult.append([i, x, j, y, [format_rat(v) for v in vec]])
    return {
        "type": "truncated",
        "name": a.name,
        "dims": list(a.dims),
        "unit": [format_rat(v) for v in a.unit],
        "labels": [list(l) for l in a.labels],
        "diff": diff,
        "mult": mult,
    }


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------

def _need(problem: Problem, key: str, flags) -> Any:
    if key == "upto" and flags.upto is not None:
        return flags.upto
    if key in problem.task_args:
        return problem.task_args[key]
    if key in problem.parameters:
        return problem.parameters[key]
    raise InputError(f"missing parameter {key!r}")


def task_cohomology(problem: Problem, flags) -> tuple[int, dict, Optional[dict]]:
    alg = problem.algebra(_need(problem, "algebra", flags))
    upto = _bound(_need(problem, "upto", flags), "upto")
    h = cdga.cohomology(alg, upto)
    products = []
    for p in range(upto + 1):
        for q in range(p, upto + 1 - p):
            for i in range(h.dims[p]):
                for j in range(h.dims[q]):
                    if p == q and j < i:
                        continue
                    cls = h.cup(p, i, q, j)
                    if any(v != 0 for v in cls):
                        products.append(
                            [[p, i], [q, j], [format_rat(v) for v in cls]]
                        )
    result = {
        "dims": h.dims,
        "representatives": {
            str(k): [[format_rat(v) for v in rep] for rep in h.reps[k]]
            for k in range(upto + 1)
        },
        "nonzero_products": products,
    }
    return 0, result, None


def task_minimal_model(problem: Problem, flags) -> tuple[int, dict, Optional[dict]]:
    target = problem.algebra(_need(problem, "target", flags))
    upto = _bound(_need(problem, "upto", flags), "upto")
    res = sullivan.minimal_model(target, upto)
    gens = [[g.name, g.degree] for g in res.model.gca.generators]
    result = {
        "generators": gens,
        "differentials": {g.name: repr(res.model.diff[g.name]) for g in res.model.gca.generators},
        "built_upto": res.built_upto,
        "model": emit_free(res.model, target.cutoff),
    }
    return 0, result, None


def task_loop_model(problem: Problem, flags) -> tuple[int, dict, Optional[dict]]:
    name = _need(problem, "model", flags)
    if not isinstance(name, str) or name not in problem.free_algebras:
        raise InputError("loop-model needs a free algebra input")
    base = problem.free_algebras[name]
    lm = sullivan.loop_model(base)
    upto = problem.task_args.get("upto", problem.parameters.get("upto"))
    upto = flags.upto if flags.upto is not None else upto  # optional, with _need's precedence
    if upto is not None:
        upto = _bound(upto, "upto")
    result = {
        "generators": [[g.name, g.degree] for g in lm.gca.generators],
        "differentials": {g.name: repr(lm.diff[g.name]) for g in lm.gca.generators},
        "model": emit_free(lm, upto + 2 if upto is not None else 6),
    }
    if upto is not None:
        t = cdga.truncate(lm, upto + 1)
        result["cohomology_dims"] = cdga.cohomology_dims(t, upto)
    return 0, result, None


def task_suspend(problem: Problem, flags) -> tuple[int, dict, Optional[dict]]:
    m = problem.algebra(_need(problem, "model", flags))
    upto = _bound(_need(problem, "upto", flags), "upto")
    s = gluing.suspension_model(m, upto)
    h = cdga.cohomology(s.carrier, upto - 1)
    vanishing = True
    for p in range(1, upto):
        for q in range(p, upto - p):
            for i in range(h.dims[p]):
                for j in range(h.dims[q]):
                    if any(v != 0 for v in h.cup(p, i, q, j)):
                        vanishing = False
    result = {
        "carrier_dims": list(s.carrier.dims),
        "cohomology_dims": h.dims,
        "positive_products_vanish": vanishing,
        "algebra": emit_truncated(s.carrier),
    }
    return 0, result, None


def task_glue(problem: Problem, flags) -> tuple[int, dict, Optional[dict]]:
    f = problem.morphism(_need(problem, "f", flags))
    g = problem.morphism(_need(problem, "g", flags))
    upto = _bound(_need(problem, "upto", flags), "upto")
    fp = gluing.fiber_product(f, g, upto)
    h = cdga.cohomology_dims(fp.carrier, upto - 1)
    result = {"carrier_dims": list(fp.carrier.dims), "cohomology_dims": h}
    verify = None
    code = 0
    if flags.verify:
        rep = gluing.mayer_vietoris(fp, upto - 1)
        verify = {
            "exact": rep.ok(),
            "connecting_ranks": [rep.connecting_rank(k) for k in range(upto - 1)],
            "failures": rep.failures,
        }
        if not rep.ok():
            code = 1
    return code, result, verify


def task_gamma(problem: Problem, flags) -> tuple[int, dict, Optional[dict]]:
    e = problem.system(_need(problem, "system", flags))
    upto = _bound(_need(problem, "upto", flags), "upto")
    g = localsys.global_sections(e, upto)
    result = {
        "dims": list(g.dims),
        "cohomology_dims": cdga.cohomology_dims(g, upto - 1) if upto >= 1 else [],
    }
    return 0, result, None


def task_ss(problem: Problem, flags) -> tuple[int, dict, Optional[dict]]:
    e = problem.system(_need(problem, "system", flags))
    p_max = _bound(_need(problem, "p_max", flags), "p_max")
    q_max = _bound(_need(problem, "q_max", flags), "q_max")
    ss = specseq._sequence(e, p_max + q_max + 1, "p_max + q_max + 1")
    tower = ss.tower
    e2 = {}
    for p in range(p_max + 1):
        for q in range(q_max + 1):
            e2[f"{p},{q}"] = tower.dim(2, p, q)
    r_inf = tower.infinity_page_index()
    einf = {}
    for p in range(p_max + 1):
        for q in range(q_max + 1):
            einf[f"{p},{q}"] = tower.dim(r_inf, p, q)
    result = {"E2": e2, "Einfty": einf, "p_bound": ss.filtered.p_bound}
    verify = None
    code = 0
    if flags.verify:
        rep = ss.e2_check(p_max, q_max)
        totals = ss.einfty_vs_target(p_max + q_max)
        verify = {
            "e2_matches_local_coefficients": rep.ok(),
            "e2_mismatches": [[list(k), a, b] for (k, a, b) in rep.mismatches],
            "einfty_matches_target": totals.ok(),
            "einfty_mismatches": totals.mismatches,
        }
        if not rep.ok() or not totals.ok():
            code = 1
    return code, result, verify


def task_check_admissible(problem: Problem, flags) -> tuple[int, dict, Optional[dict]]:
    n_max = _int(_need(problem, "n_max", flags), "n_max")
    budget = _int(problem.task_args.get("samples", 20), "samples")
    seed = _int(problem.task_args.get("seed", 0), "seed")
    rep = polyforms.check_admissible_axioms(n_max, sample_budget=budget, seed=seed)
    result = {
        "unit_dimension_zero": rep.axiom_unit_dimension_zero,
        "polynomial_exterior_split": rep.axiom_polynomial_exterior_split,
        "acyclicity": rep.axiom_acyclicity,
        "extendability": rep.axiom_extendability,
        "no_zero_divisor_equation": rep.axiom_no_zero_divisor_equation,
        "samples": rep.samples,
        "failures": rep.failures,
    }
    return (0 if rep.ok() else 1), result, None


# each runner returns (exit code, result, verify), verify None where the task has no verification
TASK_RUNNERS = {
    "cohomology": task_cohomology,
    "minimal-model": task_minimal_model,
    "loop-model": task_loop_model,
    "suspend": task_suspend,
    "glue": task_glue,
    "gamma": task_gamma,
    "ss": task_ss,
    "check-admissible": task_check_admissible,
}


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def run(path: str, flags) -> tuple[int, dict, float]:
    """Execute one problem file; returns (exit code, report, seconds)."""
    t0 = time.monotonic()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    problem = Problem(doc, default_cutoff=flags.cutoff)
    task = flags.task or problem.task
    if task not in TASKS:
        raise InputError(f"unknown task {task!r}")
    if flags.task and flags.task != problem.task:
        problem.task = flags.task
    code, result, verify = TASK_RUNNERS[task](problem, flags)
    report = {
        "version": SCHEMA_VERSION,
        "task": task,
        "echo": {"task_args": problem.task_args, "parameters": problem.parameters},
        "result": result,
        "verify": verify,
    }
    return code, report, time.monotonic() - t0


def machine_section(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def human_section(report: dict) -> str:
    lines = [f"task: {report['task']}"]
    result = report["result"]

    def walk(prefix, value):
        if isinstance(value, dict):
            for k in value:
                walk(f"{prefix}{k}.", value[k])
        elif isinstance(value, list) and len(value) > 8:
            lines.append(f"{prefix[:-1]}: [{len(value)} entries]")
        else:
            lines.append(f"{prefix[:-1]}: {value}")

    walk("", result)
    if report.get("verify") is not None:
        walk("verify.", report["verify"])
    return "\n".join(lines)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="cdgalab",
        description="exact-arithmetic computations with DG algebras, local systems and spectral sequences",
    )
    parser.add_argument("file", help="JSON problem file")
    parser.add_argument("--upto", type=int, default=None)
    parser.add_argument("--cutoff", type=int, default=None)
    parser.add_argument("--format", choices=("human", "machine"), default="human")
    parser.add_argument("--verify", action="store_true")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    task = None
    if argv and argv[0] in TASKS:
        task = argv.pop(0)
    flags = _parser().parse_args(argv)
    flags.task = task
    try:
        code, report, seconds = run(flags.file, flags)
    except (InputError, PreconditionError, CutoffTooSmallError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except CdgaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if flags.format == "machine":
        print(machine_section(report))
    else:
        print(human_section(report))
    print(f"elapsed: {seconds:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
