"""Self-tests of the benchmark: repeatable counts, seeded inputs, clean unwrapping.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q`` from the
repository root.  The tests use small slices of each workload's job list.
"""

import json
import random
import signal
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

COUNT_SUFFIXES = ("_calls", "_rhs", ".generators", ".report_bytes")


@pytest.fixture(scope="module")
def lib():
    return run.load_library()


def small_jobs(lib, workload, seed, tmp_path):
    jobs = workloads.WORKLOADS[workload](lib, seed, tmp_path)
    if workload == "e2_towers":
        return [j for j in jobs if not j.name.endswith(":suspension")]
    if workload == "wedge_ladder":
        return [j for j in jobs if int(j.name.rsplit("cutoff", 1)[1]) <= 8]
    slow = ("gamma_sphere", "admissible", "ss_circle")
    return [j for j in jobs if not any(s in j.name for s in slow)]


def traced_counts(lib, jobs) -> dict:
    tracer = spans.Tracer()
    tracer.install(lib)
    try:
        stats = tracer.new_pass()
        one = run.Pass(jobs, {})
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(stats, one.wall_s)
    return {k: v for k, v in metrics.items()
            if k.endswith(COUNT_SUFFIXES) or k.startswith("exactlin.elim_")}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat(lib, workload, tmp_path):
    jobs = small_jobs(lib, workload, 3, tmp_path)
    first = traced_counts(lib, jobs)
    second = traced_counts(lib, jobs)
    assert first == second
    assert first["exactlin.elim_calls"] > 0


def test_tracer_wraps_every_binding_and_unwraps(lib, tmp_path):
    before_runner = dict(lib.cli.TASK_RUNNERS)
    original = lib.exactlin.kernel_basis
    tracer = spans.Tracer()
    tracer.install(lib)
    try:
        # bound by `from .exactlin import kernel_basis` in other modules
        assert hasattr(lib.localsys.kernel_basis, spans.SPAN_MARK)
        assert hasattr(lib.sullivan.kernel_basis, spans.SPAN_MARK)
        assert hasattr(lib.cli.TASK_RUNNERS["gamma"], spans.SPAN_MARK)
        assert hasattr(vars(lib.exactlin.QMatrix)["from_cols"].__func__, spans.SPAN_MARK)
        assert spans.wrapped_attributes(lib)
        run.Pass(small_jobs(lib, "cli_batch", 0, tmp_path)[:5], {})
    finally:
        tracer.uninstall()
    assert spans.wrapped_attributes(lib) == []
    assert lib.exactlin.kernel_basis is original
    assert lib.localsys.kernel_basis is original
    assert lib.cli.TASK_RUNNERS == before_runner


def test_times_are_scaled_by_each_pass_slowdown():
    passes = [types.SimpleNamespace(job_s=[0.1 * s, 0.2 * s, 0.4 * s], job_slowdown=[s, s, s],
                                    scaled_wall_s=0.8)
              for s in (1.0, 1.5, 2.0)]
    metrics = run.end_to_end(passes, [0.05])
    assert metrics["wall_s"][0] == pytest.approx(0.8)
    assert metrics["job_s_p50"][0] == pytest.approx(0.2)
    assert run.slowdown([run.REF_NOMINAL_S * 2] * 3) == pytest.approx(2.0)


def test_gauge_samples_inside_jobs_and_leaves_them_out(lib, tmp_path):
    jobs = small_jobs(lib, "wedge_ladder", 1, tmp_path)[:6]
    gauge = run.Gauge()
    with gauge:
        t0 = time.perf_counter()
        one = run.Pass(jobs, {}, gauge)
        t1 = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert gauge.at
    assert gauge.at == sorted(gauge.at)
    assert sum(one.job_s) <= one.wall_s <= t1 - t0 - gauge.spent(t0, t1)
    assert len(one.job_slowdown) == len(one.job_s) == 6
    assert all(f > 0 for f in one.job_slowdown)
    assert one.scaled_wall_s == pytest.approx(one.wall_s / one.slowdown)


def _shape(obj):
    """The document with every rational literal and sampling seed blanked out."""
    if isinstance(obj, dict):
        return {k: "#" if k == "seed" else _shape(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_shape(v) for v in obj]
    if isinstance(obj, str) and "/" in obj:
        return "#"
    return obj


def test_seed_keeps_cli_shapes_and_changes_coefficients():
    a, b = workloads.cli_problems(1), workloads.cli_problems(2)
    assert [p[0] for p in a] == [p[0] for p in b]
    changed_templates = set()
    for (name, doc_a, *rest_a), (_, doc_b, *rest_b) in zip(a, b):
        assert _shape(doc_a) == _shape(doc_b), name
        assert rest_a == rest_b, name
        if doc_a != doc_b:
            changed_templates.add(name.rsplit(":", 1)[0])
    # every template with a coefficient changed in at least one copy
    assert changed_templates >= {
        "t_heisenberg", "t_torus_sphere", "t_cp2_cohomology", "t_minimal_cp2", "t_minimal_s2",
        "t_loop_cp1", "t_suspend_s2", "t_glue_circle", "t_glue_wedge", "t_gamma_circle_s2",
        "t_gamma_sphere_s2", "t_gamma_edge_points", "t_ss_circle", "t_ss_constant_points",
        "t_admissible",
    }


def _system_data(e):
    """Fiber dimensions, restriction shapes, and every coefficient of the system."""
    dims = {s: list(f.dims) for s, f in e.fibers.items()}
    shapes = {k: [(m.rows, m.cols) for m in r.mats] for k, r in e.facet_restrictions.items()}
    values = {k: [sorted(m.entries.items()) for m in r.mats] for k, r in e.facet_restrictions.items()}
    tables = {s: (f.unit, [sorted(f.d_matrix(k).entries.items()) for k in range(f.cutoff)])
              for s, f in e.fibers.items()}
    return dims, shapes, (values, tables)


@pytest.mark.parametrize("family", ["cp2", "twisted", "suspension"])
def test_seed_keeps_e2_dimensions_and_changes_coefficients(lib, family):
    build = workloads.E2_FAMILIES[family]
    data = [_system_data(build(lib, random.Random(seed))) for seed in range(1, 5)]
    assert all(d[:2] == data[0][:2] for d in data)
    assert len({repr(d[2]) for d in data}) > 1


def test_seed_keeps_wedge_dimensions_and_changes_coefficients(lib, tmp_path):
    assert len(workloads.wedge_ladder(lib, 1, tmp_path)) == len(workloads.wedge_ladder(lib, 2, tmp_path))
    units = set()
    for seed in range(4):
        w = workloads.wedge_of_spheres(lib, 2, 8, random.Random(seed))
        assert w.dims == [1, 0, 2, 0, 0, 0, 0, 0, 0]
        units.add(w.unit)
    assert len(units) > 1


def test_wedge_oracle_matches_loop_space_series():
    counts = workloads.wedge_generator_counts(2, 9)
    cumulative = [sum(counts[: i + 1]) for i in range(len(counts))]
    assert cumulative == [2, 5, 7, 10, 16, 27, 45, 75]


def test_rescaled_algebra_is_isomorphic(lib):
    alg = lib.cdga.power_quotient_dga(2, 3, 8)
    scaled = workloads.rescaled(lib, alg, workloads.random_signs(alg, random.Random(5)))
    assert scaled.dims == alg.dims
    assert scaled.validate() == []
    assert lib.cdga.cohomology_dims(scaled, 7) == lib.cdga.cohomology_dims(alg, 7)
    assert scaled.unit != alg.unit or scaled.product_basis(2, 0, 2, 0) != alg.product_basis(2, 0, 2, 0)


def test_digests_cover_default_seeds():
    table = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))
    assert set(table) == set(workloads.WORKLOADS)
    for seeds in table.values():
        assert set(seeds) >= {str(s) for s in range(10)}
        for digests in seeds.values():
            assert all(len(d) == 16 and int(d, 16) >= 0 for d in digests.values())
