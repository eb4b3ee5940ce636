import hashlib
import json
import random

import pytest

from cdgalab.cli import _MAX_NESTING, main


def write(tmp_path, doc, name="problem.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def torus_problem(upto=2):
    return {
        "version": "1",
        "task": "cohomology",
        "algebras": {
            "T": {
                "type": "free",
                "generators": [["t1", 1], ["t2", 1]],
                "differential": {},
                "cutoff": 3,
            }
        },
        "task_args": {"algebra": "T", "upto": upto},
    }


def run_cli(capsys, args):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_torus_cohomology_task(tmp_path, capsys):
    path = write(tmp_path, torus_problem())
    code, out, _ = run_cli(capsys, [path, "--format", "machine"])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["dims"] == [1, 2, 1]
    prods = report["result"]["nonzero_products"]
    assert any(a == [1, 0] and b == [1, 1] for a, b, _ in prods)


def test_minimal_model_task_cp2(tmp_path, capsys):
    doc = {
        "version": "1",
        "task": "minimal-model",
        "algebras": {"A": {"type": "power-quotient", "degree": 2, "power": 3, "cutoff": 7}},
        "task_args": {"target": "A", "upto": 6},
    }
    code, out, _ = run_cli(capsys, [write(tmp_path, doc), "--format", "machine"])
    assert code == 0
    report = json.loads(out)
    gens = report["result"]["generators"]
    assert sorted(d for _, d in gens) == [2, 5]
    dy = report["result"]["differentials"][gens[1][0] if gens[1][1] == 5 else gens[0][0]]
    assert "^3" in dy
    assert report["result"]["model"]["type"] == "free"


def test_malformed_file_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code, _, err = run_cli(capsys, [str(p)])
    assert code == 2
    assert "input error" in err


def test_missing_reference_exit_2(tmp_path, capsys):
    doc = torus_problem()
    doc["task_args"]["algebra"] = "nope"
    code, _, err = run_cli(capsys, [write(tmp_path, doc)])
    assert code == 2


def test_decimal_literals_rejected(tmp_path, capsys):
    doc = {
        "version": "1",
        "task": "cohomology",
        "algebras": {
            "T": {
                "type": "free",
                "generators": [["x", 2], ["y", 3]],
                "differential": {"y": [[1.5, {"x": 2}]]},
                "cutoff": 4,
            }
        },
        "task_args": {"algebra": "T", "upto": 3},
    }
    code, _, err = run_cli(capsys, [write(tmp_path, doc)])
    assert code == 2
    assert "rational" in err


@pytest.mark.parametrize("coeff", ["1.5", "1e3", True, "1/0"])
def test_non_rational_coefficients_rejected(tmp_path, capsys, coeff):
    doc = torus_problem()
    doc["algebras"]["T"]["generators"] = [["x", 2], ["y", 3]]
    doc["algebras"]["T"]["differential"] = {"y": [[coeff, {"x": 2}]]}
    code, out, err = run_cli(capsys, [write(tmp_path, doc)])
    assert code == 2
    assert out == ""
    assert "rational" in err


def edge_system_problem():
    return {
        "version": "1",
        "task": "gamma",
        "algebras": {"P": {"type": "point", "cutoff": 3}},
        "complexes": {"K": {"vertices": [0, 1], "maximal": [[0, 1]]}},
        "systems": {
            "E": {
                "type": "explicit",
                "base": "K",
                "fibers": {"0": "P", "1": "P", "0,1": "P"},
                "restrictions": {
                    "0,1|0": {"source": "P", "target": "P", "matrices": {"0": [["1"]]}},
                    "0,1|1": {"source": "P", "target": "P", "matrices": {"0": [["1"]]}},
                },
            }
        },
        "task_args": {"system": "E", "upto": 2},
    }


def _set(path, value):
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return doc

    return mutate


def _drop(path):
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
        return doc

    return mutate


RESTRICTION = ("systems", "E", "restrictions", "0,1|0")


def admissible_problem():
    return {"version": "1", "task": "check-admissible", "task_args": {"n_max": 1, "samples": 2}}


def truncated_problem():
    """An exterior algebra on x in degree 1, given as explicit tables."""
    return {
        "version": "1",
        "task": "cohomology",
        "algebras": {
            "A": {
                "type": "truncated",
                "dims": [1, 1, 0],
                "unit": ["1"],
                "diff": {},
                "mult": [[0, 0, 0, 0, ["1"]], [0, 0, 1, 0, ["1"]], [1, 0, 1, 0, []]],
                "labels": [["1"], ["x"], []],
            }
        },
        "task_args": {"algebra": "A", "upto": 1},
    }


def minimal_model_problem():
    return {
        "version": "1",
        "task": "minimal-model",
        "algebras": {"A": {"type": "power-quotient", "degree": 2, "power": 3, "cutoff": 7}},
        "task_args": {"target": "A", "upto": 6},
    }


def loop_model_problem():
    return {
        "version": "1",
        "task": "loop-model",
        "algebras": {
            "CP1": {
                "type": "free",
                "generators": [["x", 2], ["y", 3]],
                "differential": {"y": [["1", {"x": 2}]]},
                "cutoff": 6,
            }
        },
        "task_args": {"model": "CP1", "upto": 4},
    }


def suspend_problem():
    return {
        "version": "1",
        "task": "suspend",
        "algebras": {"S2": {"type": "power-quotient", "degree": 2, "power": 2, "cutoff": 6}},
        "task_args": {"model": "S2", "upto": 5},
    }


def ss_problem():
    return {
        "version": "1",
        "task": "ss",
        "complexes": {"K": {"vertices": [0, 1, 2], "maximal": [[0, 1], [1, 2], [0, 2]]}},
        "systems": {"E": {"type": "forms", "base": "K", "total_degree": 2, "cutoff": 4}},
        "task_args": {"system": "E", "p_max": 1, "q_max": 1},
    }


@pytest.mark.parametrize(
    "make, mutate",
    [
        (edge_system_problem, _set(RESTRICTION + ("source",), "NOPE")),
        (edge_system_problem, _drop(RESTRICTION + ("target",))),
        (edge_system_problem, _set(("systems", "E", "base"), "L")),
        (edge_system_problem, _set(("systems", "E", "fibers", "1"), "NOPE")),
        (edge_system_problem, _drop(("systems", "E", "fibers"))),
        (edge_system_problem, _set(("algebras", "P", "cutoff"), "1.5")),
        (edge_system_problem, _set(("algebras", "P", "cutoff"), 3.0)),
        (edge_system_problem, _set(("task_args", "upto"), 1.5)),
        (torus_problem, _set(("algebras", "T", "generators", 1, 1), "1.5")),
        (torus_problem, _set(("algebras", "T", "generators", 1, 1), 1.5)),
        (torus_problem, _set(("algebras", "T", "cutoff"), "three")),
        (torus_problem, _set(("task_args", "upto"), True)),
        (edge_system_problem, _set(("algebras", "P"), 3)),
        (torus_problem, _set(("algebras", "T", "generators", 1), 5)),
        (torus_problem, _set(("algebras", "T", "differential"), {"t2": [["1", {"zz": 1}]]})),
        (torus_problem, _set(("task_args",), ["algebra", "T"])),
        (edge_system_problem, _set(("complexes", "K", "maximal"), [[0, "a"]])),
        (admissible_problem, _set(("task_args", "n_max"), 0)),
        (
            edge_system_problem,
            _set(RESTRICTION, {"type": "face-restriction", "source": "P", "target": "P", "face": 0}),
        ),
        (truncated_problem, _set(("algebras", "A", "dims"), 3)),
        (truncated_problem, _set(("algebras", "A", "diff"), {"0": [[0, 0]]})),
        (truncated_problem, _set(("algebras", "A", "mult", 0), [0, 0, 0])),
        (truncated_problem, _set(("algebras", "A", "labels"), 5)),
        (torus_problem, _set(("task_args", "upto"), -1)),
        (minimal_model_problem, _set(("task_args", "upto"), -1)),
        (ss_problem, _set(("task_args", "p_max"), -1)),
        (ss_problem, _set(("task_args", "q_max"), -1)),
        (ss_problem, _set(("complexes", "K", "maximal"), [])),
        (edge_system_problem, _set(("algebras", "PP"), {"type": "product", "factors": ["P", []]})),
        (edge_system_problem, _set(("algebras", "PP"), {"type": "tensor", "factors": 5})),
        (edge_system_problem, _set(("algebras", "PP"), {"type": "product", "factors": "PP"})),
        (loop_model_problem, _set(("task_args", "model"), ["S2"])),
        (loop_model_problem, _set(("task_args", "model"), {"a": 1})),
        (edge_system_problem, _set(("complexes", "K", "vertices"), [0, 1, 2])),
        (edge_system_problem, _set(("complexes", "K", "maximal"), [[0, 5]])),
    ],
)
def test_malformed_references_and_integers_exit_2(tmp_path, capsys, make, mutate):
    code, out, err = run_cli(capsys, [write(tmp_path, mutate(make())), "--format", "machine"])
    assert code == 2
    assert out == ""
    assert "input error" in err


@pytest.mark.parametrize(
    "make, mutate, flags, bound",
    [
        (torus_problem, lambda doc: doc, ["--upto", "-3"], "upto"),
        (ss_problem, _set(("task_args", "p_max"), -1), ["--verify"], "p_max"),
        (suspend_problem, _set(("task_args", "upto"), 0), [], "upto"),
        (suspend_problem, _set(("task_args", "upto"), -2), [], "upto"),
        (
            ss_problem,
            _set(("task_args", "q_max"), 3),
            ["--verify"],
            "p_max + q_max + 1 = 5 exceeds the smallest fiber cutoff 4",
        ),
        (edge_system_problem, lambda doc: doc, ["--upto", "4"], "upto = 4 exceeds the smallest fiber cutoff 3"),
    ],
)
def test_degree_bounds_below_range_exit_2_naming_the_bound(
    tmp_path, capsys, make, mutate, flags, bound
):
    doc = write(tmp_path, mutate(make()))
    code, out, err = run_cli(capsys, [doc, "--format", "machine", *flags])
    assert code == 2 and out == ""
    assert "input error" in err and bound in err


def test_ss_verify_builds_the_global_sections_once(tmp_path, capsys, monkeypatch):
    from cdgalab import localsys

    builds = []
    sections_basis = localsys._sections_basis

    def counting(e, upto):
        builds.append(upto)
        return sections_basis(e, upto)

    monkeypatch.setattr(localsys, "_sections_basis", counting)
    code, _, _ = run_cli(capsys, [write(tmp_path, ss_problem()), "--format", "machine", "--verify"])
    assert code == 0
    assert builds == [3]


def test_internal_error_exits_1_with_its_own_prefix(tmp_path, capsys, monkeypatch):
    from cdgalab import sullivan

    monkeypatch.setattr(sullivan, "is_quasi_iso", lambda *args, **kwargs: (False, 2))
    path = write(tmp_path, minimal_model_problem())
    code, out, err = run_cli(capsys, [path, "--format", "machine"])
    assert code == 1 and out == ""
    assert err.startswith("internal error:")


def test_integral_strings_are_integers(tmp_path, capsys):
    doc = torus_problem()
    doc["algebras"]["T"]["generators"][1][1] = "1"
    code, out, _ = run_cli(capsys, [write(tmp_path, doc), "--format", "machine"])
    assert code == 0
    assert json.loads(out)["result"]["dims"] == [1, 2, 1]


def test_loop_model_task(tmp_path, capsys):
    code, out, _ = run_cli(capsys, [write(tmp_path, loop_model_problem()), "--format", "machine"])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["cohomology_dims"] == [1, 1, 1, 1, 1]
    degs = sorted(d for _, d in report["result"]["generators"])
    assert degs == [1, 2, 2, 3]


def test_loop_model_upto_flag(tmp_path, capsys):
    doc = loop_model_problem()
    del doc["task_args"]["upto"]
    path = write(tmp_path, doc)
    code, out, _ = run_cli(capsys, [path, "--format", "machine"])
    assert code == 0
    assert "cohomology_dims" not in json.loads(out)["result"]
    code, out, _ = run_cli(capsys, [path, "--format", "machine", "--upto", "4"])
    assert code == 0
    assert json.loads(out)["result"]["cohomology_dims"] == [1, 1, 1, 1, 1]
    # the flag overrides the task argument, as for the other tasks
    path = write(tmp_path, loop_model_problem())
    code, out, _ = run_cli(capsys, [path, "--format", "machine", "--upto", "2"])
    assert json.loads(out)["result"]["cohomology_dims"] == [1, 1, 1]


def product_problem(kind, cutoff):
    """Cohomology up to degree 0 of a product or tensor of two points."""
    doc = torus_problem(upto=0)
    doc["algebras"] = {
        "P": {"type": "point", "cutoff": 3},
        "S": {"type": kind, "factors": ["P", "P"]},
    }
    if cutoff is not None:
        doc["algebras"]["S"]["cutoff"] = cutoff
    doc["task_args"]["algebra"] = "S"
    return doc


@pytest.mark.parametrize("kind", ["product", "tensor"])
def test_zero_cutoff_of_product_and_tensor_is_honoured(tmp_path, capsys, kind):
    code, out, _ = run_cli(capsys, [write(tmp_path, product_problem(kind, None)), "--format", "machine"])
    assert code == 0
    assert json.loads(out)["result"]["dims"] == [2 if kind == "product" else 1]
    # cohomology up to degree 0 needs a cutoff above 0, whichever way 0 is given
    for cutoff, flags in ((0, []), ("0", []), (None, ["--cutoff", "0"])):
        code, _, err = run_cli(capsys, [write(tmp_path, product_problem(kind, cutoff))] + flags)
        assert code == 2, (cutoff, flags)
        assert "cutoff > 0" in err


def glue_problem():
    """The interval glued to itself at its endpoints: a circle."""
    return {
        "version": "1",
        "task": "glue",
        "algebras": {
            "I": {"type": "simplex-forms", "dim": 1, "total_degree": 2, "cutoff": 5},
            "P": {"type": "point", "cutoff": 5},
            "QQ": {"type": "product", "factors": ["P", "P"], "cutoff": 5},
        },
        "morphisms": {
            "ev": {
                "source": "I",
                "target": "QQ",
                "matrices": {"0": [["1", "0", "0"], ["1", "1", "1"]]},
            },
            "diag": {"source": "P", "target": "QQ", "matrices": {"0": [["1"], ["1"]]}},
        },
        "task_args": {"f": "ev", "g": "diag", "upto": 4},
    }


def test_glue_task_circle_with_verify(tmp_path, capsys):
    path = write(tmp_path, glue_problem())
    code, out, _ = run_cli(capsys, [path, "--format", "machine", "--verify"])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["cohomology_dims"] == [1, 1, 0, 0]
    assert report["verify"]["exact"] is True
    assert report["verify"]["connecting_ranks"][0] == 1


@pytest.mark.parametrize(
    "flags, message",
    [
        ([], "differential does not preserve the kernel subspace"),
        (["--upto", "0"], "the unit is not a compatible family"),
    ],
)
def test_broken_kernel_invariants_exit_as_internal_errors(tmp_path, capsys, monkeypatch, flags, message):
    from cdgalab.exactlin import KernelBasis

    # no vector lies in any kernel: the carrier's first check fails
    monkeypatch.setattr(KernelBasis, "coords_many", lambda self, vectors: [None] * len(vectors))
    monkeypatch.setattr(KernelBasis, "coords_matrix", lambda self, left, right: None)
    code, out, err = run_cli(capsys, [write(tmp_path, glue_problem()), "--format", "machine"] + flags)
    assert (code, out) == (1, "")
    assert err == f"internal error: {message}\n"


def test_suspend_task_and_roundtrip(tmp_path, capsys):
    doc = {
        "version": "1",
        "task": "suspend",
        "algebras": {"S2": {"type": "power-quotient", "degree": 2, "power": 2, "cutoff": 6}},
        "task_args": {"model": "S2", "upto": 5},
    }
    code, out, _ = run_cli(capsys, [write(tmp_path, doc), "--format", "machine"])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["cohomology_dims"] == [1, 0, 0, 1, 0]
    assert report["result"]["positive_products_vanish"] is True
    # round-trip: the emitted algebra must re-ingest and recompute
    emitted = report["result"]["algebra"]
    doc2 = {
        "version": "1",
        "task": "cohomology",
        "algebras": {"X": emitted},
        "task_args": {"algebra": "X", "upto": 4},
    }
    code2, out2, _ = run_cli(capsys, [write(tmp_path, doc2, "again.json"), "--format", "machine"])
    assert code2 == 0
    report2 = json.loads(out2)
    assert report2["result"]["dims"] == [1, 0, 0, 1, 0]


def test_gamma_task_forms_system(tmp_path, capsys):
    doc = {
        "version": "1",
        "task": "gamma",
        "complexes": {"K": {"vertices": [0, 1, 2], "maximal": [[0, 1], [1, 2], [0, 2]]}},
        "systems": {"E": {"type": "forms", "base": "K", "total_degree": 2, "cutoff": 3}},
        "task_args": {"system": "E", "upto": 2},
    }
    code, out, _ = run_cli(capsys, [write(tmp_path, doc), "--format", "machine"])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["cohomology_dims"] == [1, 1]


def test_ss_task_with_verify(tmp_path, capsys):
    doc = {
        "version": "1",
        "task": "ss",
        "complexes": {"K": {"vertices": [0, 1, 2], "maximal": [[0, 1], [1, 2], [0, 2]]}},
        "systems": {"E": {"type": "forms", "base": "K", "total_degree": 2, "cutoff": 4}},
        "task_args": {"system": "E", "p_max": 1, "q_max": 1},
    }
    code, out, _ = run_cli(capsys, [write(tmp_path, doc), "--format", "machine", "--verify"])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["E2"]["0,0"] == 1
    assert report["result"]["E2"]["1,0"] == 1
    assert report["verify"]["e2_matches_local_coefficients"] is True
    assert report["verify"]["einfty_matches_target"] is True


def test_explicit_system_ingestion(tmp_path, capsys):
    # constant Q-fiber system over an edge via explicit tables
    doc = {
        "version": "1",
        "task": "gamma",
        "algebras": {"P": {"type": "point", "cutoff": 3}},
        "complexes": {"K": {"vertices": [0, 1], "maximal": [[0, 1]]}},
        "systems": {
            "E": {
                "type": "explicit",
                "base": "K",
                "fibers": {"0": "P", "1": "P", "0,1": "P"},
                "restrictions": {
                    "0,1|0": {"source": "P", "target": "P", "matrices": {"0": [["1"]]}},
                    "0,1|1": {"source": "P", "target": "P", "matrices": {"0": [["1"]]}},
                },
            }
        },
        "task_args": {"system": "E", "upto": 2},
    }
    code, out, _ = run_cli(capsys, [write(tmp_path, doc), "--format", "machine"])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["dims"][0] == 1


def test_check_admissible_task(tmp_path, capsys):
    doc = {
        "version": "1",
        "task": "check-admissible",
        "task_args": {"n_max": 2, "samples": 5, "seed": 1},
    }
    code, out, _ = run_cli(capsys, [write(tmp_path, doc), "--format", "machine"])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["acyclicity"] is True
    assert report["result"]["failures"] == []


def test_subcommand_overrides_task_field(tmp_path, capsys):
    doc = torus_problem()
    doc["task"] = "gamma"  # wrong on purpose; subcommand wins
    path = write(tmp_path, doc)
    code, out, _ = run_cli(capsys, ["cohomology", path, "--format", "machine"])
    assert code == 0
    assert json.loads(out)["task"] == "cohomology"


def test_machine_output_deterministic(tmp_path, capsys):
    path = write(tmp_path, torus_problem())
    _, out1, _ = run_cli(capsys, [path, "--format", "machine"])
    _, out2, _ = run_cli(capsys, [path, "--format", "machine"])
    assert out1 == out2


def test_upto_flag_overrides(tmp_path, capsys):
    path = write(tmp_path, torus_problem(upto=2))
    code, out, _ = run_cli(capsys, [path, "--format", "machine", "--upto", "1"])
    assert code == 0
    assert json.loads(out)["result"]["dims"] == [1, 2]


def test_one_parser_serves_every_call_and_keeps_no_flags(tmp_path, capsys):
    from cdgalab import cli

    path = write(tmp_path, torus_problem(upto=2))
    code, out, _ = run_cli(capsys, [path, "--format", "machine", "--upto", "1"])
    assert code == 0 and json.loads(out)["result"]["dims"] == [1, 2]
    parser = cli._parser()
    # the next call parses with the same parser and falls back to the defaults
    code, out, _ = run_cli(capsys, [path])
    assert code == 0 and out.startswith("task: cohomology")
    assert cli._parser() is parser
    for bad in ([path, "--format", "xml"], [path, "--upto", "one"], []):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: cdgalab")
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "JSON problem file" in capsys.readouterr().out
    assert cli._parser() is parser


def test_cutoff_flag_fills_missing_cutoff(tmp_path, capsys):
    doc = torus_problem()
    del doc["algebras"]["T"]["cutoff"]
    path = write(tmp_path, doc)
    code, _, err = run_cli(capsys, [path])
    assert code == 2  # no cutoff anywhere
    code, out, _ = run_cli(capsys, [path, "--cutoff", "3", "--format", "machine"])
    assert code == 0
    assert json.loads(out)["result"]["dims"] == [1, 2, 1]


def test_ss_verify_mismatch_exits_1(tmp_path, capsys):
    # a literal constant system is not thickened by base forms, so the
    # second-page comparison genuinely fails: exit code 1
    doc = {
        "version": "1",
        "task": "ss",
        "algebras": {"P": {"type": "point", "cutoff": 4}},
        "complexes": {"K": {"vertices": [0, 1, 2], "maximal": [[0, 1], [1, 2], [0, 2]]}},
        "systems": {
            "E": {
                "type": "explicit",
                "base": "K",
                "fibers": {
                    "0": "P", "1": "P", "2": "P",
                    "0,1": "P", "1,2": "P", "0,2": "P",
                },
                "restrictions": {
                    f"{a},{b}|{i}": {"source": "P", "target": "P", "matrices": {"0": [["1"]]}}
                    for (a, b) in [(0, 1), (1, 2), (0, 2)]
                    for i in (0, 1)
                },
            }
        },
        "task_args": {"system": "E", "p_max": 1, "q_max": 1},
    }
    code, out, _ = run_cli(capsys, [write(tmp_path, doc), "--format", "machine", "--verify"])
    assert code == 1
    report = json.loads(out)
    assert report["verify"]["e2_matches_local_coefficients"] is False


def test_ss_verify_on_a_system_that_is_not_locally_constant_exits_2(tmp_path, capsys):
    doc = edge_system_problem()
    doc["task"] = "ss"
    doc["algebras"]["Z"] = {"type": "free", "generators": [["z", 1]], "cutoff": 3}
    doc["systems"]["E"]["fibers"] = {"0": "Z", "1": "Z", "0,1": "Z"}
    identity = {"source": "Z", "target": "Z", "matrices": {"0": [["1"]], "1": [["1"]]}}
    killing = {"source": "Z", "target": "Z", "matrices": {"0": [["1"]], "1": [["0"]]}}
    doc["systems"]["E"]["restrictions"] = {"0,1|0": killing, "0,1|1": identity}
    doc["task_args"] = {"system": "E", "p_max": 1, "q_max": 1}
    code, out, _ = run_cli(capsys, [write(tmp_path, doc), "--format", "machine"])
    assert code == 0
    code, out, err = run_cli(capsys, [write(tmp_path, doc), "--format", "machine", "--verify"])
    assert code == 2 and out == ""
    assert "locally constant" in err


def test_truncated_problem_fixture_is_well_formed(tmp_path, capsys):
    code, out, _ = run_cli(capsys, [write(tmp_path, truncated_problem()), "--format", "machine"])
    assert code == 0
    assert json.loads(out)["result"]["dims"] == [1, 1]


# sha256 of the --format machine stdout of each fixture; a refactor that is
# meant to keep every report byte-identical must keep these
REPORT_DIGESTS = [
    (torus_problem, [], "9e863dff78df8a9690d7cc19531efe391174fd9e3c27ca90b9ee1153f4668fe2"),
    (truncated_problem, [], "91c0c998731c32e86a845bfbccd3fdc8fd3af6b54e4fab61fe6619d9dc738549"),
    (minimal_model_problem, [], "ecd974477e101dd91804725e78b8727d39ff50640d9e0885499af939b10a9777"),
    (loop_model_problem, [], "535c6176ab7ad35f50900cc5452f09b5942b446a55a611f6a8ca31e0baf00a80"),
    (glue_problem, ["--verify"], "b83ca130d4b412529429efddb1346623fbbc4efe4ed19ef8df0f34a32002c640"),
    (suspend_problem, [], "20e5a15f831e2002dab804e88247cf1bb5659996d33d824e0a4d8bc89a5e7a2d"),
    (edge_system_problem, [], "6a509920383b14003f0ab8d9710ce09e66dfe405372a4ae5e8e080c46d40f82e"),
    (ss_problem, ["--verify"], "4b5ef8412cb47155499010a0de18ee7d81bff4f3b18c4e354ced58b03ad3e38c"),
    (admissible_problem, [], "ac0fca6187442ebb130598a9614920e2e981e743dc1762b7851c06e77b9e74f7"),
]


@pytest.mark.parametrize(
    "make, flags, digest", REPORT_DIGESTS, ids=[make.__name__ for make, _, _ in REPORT_DIGESTS]
)
def test_machine_reports_are_byte_identical(tmp_path, capsys, make, flags, digest):
    code, out, _ = run_cli(capsys, [write(tmp_path, make()), "--format", "machine", *flags])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# -- deterministic fuzzing ------------------------------------------------------

FUZZ_VALUES = [None, True, False, 1.5, "1.5", -1, 0, 3, [], {}, [1, 2]]


def _paths(node, prefix=()):
    """Every key path below ``node``, through dicts and lists."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def test_mutated_fixtures_exit_0_1_or_2_without_a_traceback(tmp_path, capsys):
    """Each fixture with one key or list item dropped, or one value swapped for
    a value of another type or a small integer: no input ends in an exception."""
    rng = random.Random(20261018)
    fixtures = [make for make, _, _ in REPORT_DIGESTS]
    for trial in range(300):
        doc = rng.choice(fixtures)()
        path = rng.choice(list(_paths(doc)))
        if rng.random() < 0.25:
            _drop(path)(doc)
        else:
            _set(path, rng.choice(FUZZ_VALUES))(doc)
        flags = rng.choice([[], ["--verify"]])
        code, _, err = run_cli(capsys, [write(tmp_path, doc), "--format", "machine", *flags])
        assert code in (0, 1, 2), (trial, path, doc)
        if code == 2:
            assert "input error:" in err, (trial, path, err)


# -- inputs the fixtures above leave out ------------------------------------------

def suspend_truncated_problem():
    """The suspension of a 2-sphere given as explicit tables with labels."""
    return {
        "version": "1",
        "task": "suspend",
        "algebras": {
            "S": {
                "type": "truncated",
                "dims": [1, 0, 1, 0],
                "unit": ["1"],
                "mult": [[0, 0, 0, 0, ["1"]], [0, 0, 2, 0, ["1"]]],
                "labels": [["1"], [], ["x"], []],
            }
        },
        "task_args": {"model": "S", "upto": 3},
    }


def test_suspend_reads_the_labels_of_a_truncated_algebra(tmp_path, capsys):
    code, out, _ = run_cli(capsys, [write(tmp_path, suspend_truncated_problem()), "--format", "machine"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["cohomology_dims"] == [1, 0, 0]
    assert result["algebra"]["labels"] == [["1"], [], [], ["(x)*dt"]]


@pytest.mark.parametrize(
    "labels",
    [[["1"], [], []], [["1"], [], ["x", "y"], []], [["1"], [], [["x"]], []]],
    ids=["a degree missing", "longer than the dimension", "not a string"],
)
def test_malformed_truncated_labels_exit_2(tmp_path, capsys, labels):
    doc = _set(("algebras", "S", "labels"), labels)(suspend_truncated_problem())
    code, out, err = run_cli(capsys, [write(tmp_path, doc), "--format", "machine"])
    assert (code, out) == (2, "")
    assert "input error: labels must give one string per basis element in every degree" in err


def test_mutated_labels_exit_0_or_2_without_a_traceback(tmp_path, capsys):
    """The labels and every key path below them, each dropped or set to every fuzz value."""
    labels = ("algebras", "S", "labels")
    paths = [labels] + [labels + path for path in _paths(suspend_truncated_problem()["algebras"]["S"]["labels"])]
    for path in paths:
        for mutate in [_drop(path)] + [_set(path, value) for value in FUZZ_VALUES]:
            doc = mutate(suspend_truncated_problem())
            code, _, err = run_cli(capsys, [write(tmp_path, doc), "--format", "machine"])
            assert code in (0, 2), (path, doc)
            if code == 2:
                assert "input error:" in err, (path, err)


def nested_problem(kind, n, reverse=False):
    """A chain of n specs of ``kind``, each of the next one and a point, listed from the top
    down or, with ``reverse``, from the bottom up."""
    algebras = {f"A{i}": {"type": kind, "factors": [f"A{i + 1}", "P"], "cutoff": 2} for i in range(n)}
    algebras[f"A{n}"] = algebras["P"] = {"type": "point", "cutoff": 2}
    items = list(algebras.items())
    return {
        "version": "1",
        "task": "cohomology",
        "algebras": dict(items[::-1] if reverse else items),
        "task_args": {"algebra": "A0", "upto": 1},
    }


def test_nesting_up_to_the_bound_is_computed(tmp_path, capsys):
    for reverse in (False, True):
        doc = nested_problem("tensor", _MAX_NESTING, reverse)
        code, out, _ = run_cli(capsys, [write(tmp_path, doc), "--format", "machine"])
        assert code == 0
        assert json.loads(out)["result"]["dims"] == [1, 0]


@pytest.mark.parametrize("kind", ["product", "tensor"])
@pytest.mark.parametrize("n, reverse", [(_MAX_NESTING + 1, False), (1500, False), (1500, True)])
def test_nesting_beyond_the_bound_exits_2(tmp_path, capsys, kind, n, reverse):
    code, out, err = run_cli(capsys, [write(tmp_path, nested_problem(kind, n, reverse)), "--format", "machine"])
    assert (code, out) == (2, "")
    assert f"nests product and tensor specs over {_MAX_NESTING} deep" in err


def test_restrictions_by_face_and_by_morphism_name_match_the_forms_system(tmp_path, capsys):
    doc = {
        "version": "1",
        "task": "gamma",
        "algebras": {
            "F1": {"type": "simplex-forms", "dim": 1, "total_degree": 2, "cutoff": 3},
            "F0": {"type": "simplex-forms", "dim": 0, "total_degree": 2, "cutoff": 3},
        },
        "morphisms": {"r1": {"type": "face-restriction", "source": "F1", "target": "F0", "face": 1}},
        "complexes": {"K": {"vertices": [0, 1], "maximal": [[0, 1]]}},
        "systems": {
            "E": {
                "type": "explicit",
                "base": "K",
                "fibers": {"0": "F0", "1": "F0", "0,1": "F1"},
                "restrictions": {
                    "0,1|0": {"type": "face-restriction", "source": "F1", "target": "F0", "face": 0},
                    "0,1|1": "r1",
                },
            },
            "G": {"type": "forms", "base": "K", "total_degree": 2, "cutoff": 3},
        },
        "task_args": {"system": "E", "upto": 3},
    }
    code, out, _ = run_cli(capsys, [write(tmp_path, doc), "--format", "machine"])
    assert code == 0
    explicit = json.loads(out)["result"]
    assert explicit["cohomology_dims"] == [1, 0, 0]
    doc["task_args"]["system"] = "G"
    code, out, _ = run_cli(capsys, [write(tmp_path, doc), "--format", "machine"])
    assert code == 0
    assert json.loads(out)["result"] == explicit


def _forms_gamma_problem(complex_spec):
    return {
        "version": "1",
        "task": "gamma",
        "complexes": {"K": complex_spec},
        "systems": {"E": {"type": "forms", "base": "K", "total_degree": 2, "cutoff": 3}},
        "task_args": {"system": "E", "upto": 2},
    }


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"vertices": [0, 1, 2], "maximal": [[0, 1]]}, "complex 'K' lists vertex 2, which no maximal simplex contains"),
        ({"vertices": [0, 1], "maximal": [[0, 5]]}, "complex 'K' lists vertex 1, which no maximal simplex contains"),
        ({"vertices": [0], "maximal": [[0, 5]]}, "complex 'K' has vertex 5 in a maximal simplex but not in its vertices"),
        ({"vertices": [0, 1, 0], "maximal": [[0, 1]]}, "complex 'K' lists vertex 0 twice"),
        ({"vertices": [0, "a"], "maximal": [[0, 1]]}, "vertex must be an integer"),
        ({"vertices": 3, "maximal": [[0, 1]]}, "vertices must be a JSON list"),
    ],
    ids=["isolated-vertex", "unlisted-vertex", "missing-vertex", "repeated-vertex", "not-an-integer", "not-a-list"],
)
def test_vertices_that_disagree_with_the_maximal_simplices_exit_2(tmp_path, capsys, spec, message):
    """A listed vertex is never dropped in silence: an isolated point is a maximal simplex."""
    code, out, err = run_cli(capsys, [write(tmp_path, _forms_gamma_problem(spec)), "--format", "machine"])
    assert (code, out) == (2, "")
    assert f"input error: {message}" in err


def test_vertices_in_any_order_agree_with_the_maximal_simplices(tmp_path, capsys):
    dims = []
    for spec in ({"vertices": [2, "0", 1], "maximal": [[0, 1], [2]]}, {"maximal": [[0, 1], [2]]}):
        code, out, _ = run_cli(capsys, [write(tmp_path, _forms_gamma_problem(spec)), "--format", "machine"])
        assert code == 0
        dims.append(json.loads(out)["result"]["cohomology_dims"])
    assert dims == [[2, 0], [2, 0]]


def test_truncated_diff_entries_are_read(tmp_path, capsys):
    """x in degree 1 with dx = y: nothing survives above degree 0."""
    doc = truncated_problem()
    doc["algebras"]["A"].update(
        dims=[1, 1, 1],
        diff={"1": [[0, 0, "1"]]},
        mult=[[0, 0, 0, 0, ["1"]], [0, 0, 1, 0, ["1"]], [0, 0, 2, 0, ["1"]], [1, 0, 1, 0, ["0"]]],
        labels=[["1"], ["x"], ["y"]],
    )
    code, out, _ = run_cli(capsys, [write(tmp_path, doc), "--format", "machine"])
    assert code == 0
    assert json.loads(out)["result"]["dims"] == [1, 0]


def test_human_format_counts_long_lists_and_prints_the_verify_section(tmp_path, capsys):
    doc = _set(("algebras", "S2", "cutoff"), 9)(_set(("task_args", "upto"), 9)(suspend_problem()))
    code, out, _ = run_cli(capsys, [write(tmp_path, doc), "--format", "human"])
    assert code == 0
    lines = out.splitlines()
    assert lines[:4] == [
        "task: suspend",
        "carrier_dims: [10 entries]",
        "cohomology_dims: [9 entries]",
        "positive_products_vanish: True",
    ]
    assert "algebra.unit: ['1']" in lines
    code, out, _ = run_cli(capsys, [write(tmp_path, glue_problem()), "--format", "human", "--verify"])
    assert code == 0
    assert {"verify.exact: True", "verify.connecting_ranks: [1, 0, 0]", "verify.failures: []"} <= set(out.splitlines())


def test_parameters_give_what_task_args_leave_out(tmp_path, capsys):
    code, out, _ = run_cli(capsys, [write(tmp_path, torus_problem()), "--format", "machine"])
    expected = json.loads(out)["result"]
    doc = torus_problem()
    doc["parameters"] = {"upto": doc["task_args"].pop("upto")}
    code, out, _ = run_cli(capsys, [write(tmp_path, doc), "--format", "machine"])
    assert code == 0
    assert json.loads(out)["result"] == expected
