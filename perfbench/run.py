"""cdgalab benchmark: time to a checked exact answer, end to end and by layer.

    python3 perfbench/run.py --workload e2_towers --seed 1 --seconds 36 --trace 0

Run from the root of a checkout: the library is imported from ``src/``.  One
process, one thread.  The run repeats the workload's job list for about
``--seconds`` seconds, checks every answer, and prints as its last stdout line
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
run first times untraced passes, then traced passes, and reports the
per-layer metrics.  Every end-to-end time is stated at a reference machine
speed: it is divided by how much slower than nominal a reference kernel ran
during the same job (see ``Gauge`` and ``reference.py``).  A readable table
with sample counts and the raw times goes to stderr.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import resource
import signal
import statistics
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUPS = 9  # set-up is repeated and its median reported
MODULES = ("errors", "exactlin", "graded", "cdga", "polyforms", "sullivan",
           "gluing", "localsys", "specseq", "cli")
UNTRACED_SHARE = 0.35  # of --seconds, in a traced run, spent on untraced passes
REF_INTERVAL_S = 0.04  # how often the reference kernel runs while jobs are timed
REF_WINDOW = 8  # reference samples, at least, that gauge the slowdown of one job
REF_NOMINAL_S = 0.0015  # the reference kernel's time at nominal speed

# stdlib modules cdgalab imports, loaded once so that every set-up imports
# the same thing: the library itself
for _name in ("argparse", "dataclasses", "fractions", "json", "math", "random", "typing"):
    importlib.import_module(_name)


def forget_library() -> None:
    """Drop cdgalab from the import cache, so the next import is a real one."""
    for name in [n for n in sys.modules if n == "cdgalab" or n.startswith("cdgalab.")]:
        del sys.modules[name]


def load_library() -> types.SimpleNamespace:
    """Import cdgalab and return its modules."""
    lib = types.SimpleNamespace()
    for name in MODULES:
        setattr(lib, name, importlib.import_module(f"cdgalab.{name}"))
    lib.modules = [m for n, m in sys.modules.items() if n == "cdgalab" or n.startswith("cdgalab.")]
    return lib


def load_digests(workload: str, seed: int) -> dict:
    path = HERE / "digests.json"
    table = json.loads(path.read_text(encoding="utf-8"))
    return table.get(workload, {}).get(str(seed), {})


def slowdown(ref_s) -> float:
    """How much slower than nominal the machine ran, from reference samples."""
    return statistics.median(ref_s) / REF_NOMINAL_S


class Gauge:
    """Samples the machine's speed with the reference kernel on a timer.

    While the gauge is on, a SIGALRM every ``REF_INTERVAL_S`` runs
    ``reference.kernel`` in the main thread, inside whatever job is running,
    and records when it ran and how long it took.  ``spent`` is the kernel's
    time within an interval, which the interval's timing must leave out;
    ``slowdown`` gauges the machine over an interval from the samples in it,
    widened to the nearest ``REF_WINDOW`` samples.
    """

    def __init__(self):
        self.at = []
        self.took = []
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a late tick while the kernel still runs
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()  # the job's garbage is collected in the job, not here
        t0 = time.perf_counter()
        reference.kernel()
        t1 = time.perf_counter()
        if collecting:
            gc.enable()
        self.at.append(t0)
        self.took.append(t1 - t0)
        self._busy = False

    def __enter__(self) -> "Gauge":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _range(self, t0: float, t1: float) -> tuple[int, int]:
        return bisect.bisect_left(self.at, t0), bisect.bisect_left(self.at, t1)

    def spent(self, t0: float, t1: float) -> float:
        lo, hi = self._range(t0, t1)
        return sum(self.took[lo:hi])

    def slowdown(self, t0: float, t1: float) -> float:
        lo, hi = self._range(t0, t1)
        while hi - lo < REF_WINDOW and (lo > 0 or hi < len(self.at)):
            lo, hi = max(0, lo - 1), min(len(self.at), hi + 1)
        return slowdown(self.took[lo:hi])


class Pass:
    """One run of the job list: per-job seconds, failures and slowdowns.

    With a gauge, the reference kernel's time is left out of every job's
    time and each job has the slowdown the gauge read over it; without one,
    every slowdown is 1.  ``wall_s`` sums the jobs and their answer checks;
    ``scaled_wall_s`` sums the same, each job divided by its slowdown;
    ``slowdown`` is the ratio of the two.
    """

    def __init__(self, jobs, digests, gauge=None):
        gc.collect()
        self.job_s = []
        self.failures = []  # (job, problems)
        spent_s = []  # each job with its answer check
        intervals = []  # (start, end) of each job with its answer check
        for job in jobs:
            tj = time.perf_counter()
            try:
                out = job.run()
            except Exception as exc:  # an escaping exception fails the job
                out, problems = None, [f"raised {type(exc).__name__}: {exc}"]
            t1 = time.perf_counter()
            self.job_s.append(t1 - tj - (gauge.spent(tj, t1) if gauge else 0.0))
            if out is not None:
                problems = job.check(out, digests.get(job.name))
            t2 = time.perf_counter()
            spent_s.append(t2 - tj - (gauge.spent(tj, t2) if gauge else 0.0))
            intervals.append((tj, t2))
            if problems:
                self.failures.append((job, problems))
        self.job_slowdown = [gauge.slowdown(a, b) if gauge else 1.0 for a, b in intervals]
        self.wall_s = sum(spent_s)
        self.scaled_wall_s = sum(s / f for s, f in zip(spent_s, self.job_slowdown))
        self.slowdown = self.wall_s / self.scaled_wall_s


def run_passes(jobs, digests, budget_s: float, gauge=None, on_pass=None) -> list[Pass]:
    """Passes until ``budget_s`` would be exceeded by one more; at least one."""
    passes = []
    t0 = time.perf_counter()
    while True:
        if on_pass:
            on_pass()
        passes.append(Pass(jobs, digests, gauge))
        elapsed = time.perf_counter() - t0
        if elapsed * (len(passes) + 1) / len(passes) > budget_s:
            return passes


def end_to_end(passes, setup_s) -> dict:
    """End-to-end metrics of untraced passes.

    Each job's time is divided by its slowdown, and the median over passes
    is taken: per job for ``job_s_*``, of the whole pass for ``wall_s``.
    """
    per_job = [statistics.median(p.job_s[i] / p.job_slowdown[i] for p in passes)
               for i in range(len(passes[0].job_s))]
    deciles = statistics.quantiles(per_job, n=10, method="inclusive")
    return {
        "wall_s": (statistics.median(p.scaled_wall_s for p in passes), "s"),
        "job_s_p50": (statistics.median(per_job), "s"),
        "job_s_p90": (deciles[8], "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, traced, untraced) -> dict:
    """Per-layer metrics of traced passes, which run without the gauge.

    The reference kernel would run inside the spans, so these times are raw
    seconds.  The overhead ratio compares raw wall times.
    """
    rows = [tracer.layer_metrics(st, p.wall_s) for p, st in traced]
    out = {}
    for key in rows[0]:
        unit = "s" if key.endswith("_s") else "ratio" if key.endswith(".share") else "count"
        if key == "cli.report_bytes":
            unit = "bytes"
        out[key] = (statistics.median(r[key] for r in rows), unit)
    ratio = (statistics.median(p.wall_s for p, _ in traced)
             / statistics.median(p.wall_s for p in untraced))
    out["trace.overhead_ratio"] = (ratio, "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cdgalab" / "__init__.py").is_file():
        print(f"perfbench: no cdgalab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    digests = load_digests(args.workload, args.seed)
    workdir = HERE / "work" / f"{args.workload}-{args.seed}"
    make_jobs = workloads.WORKLOADS[args.workload]

    gauge = Gauge()
    with gauge:
        setups = []
        for _ in range(SETUPS):
            forget_library()
            t0 = time.perf_counter()
            lib = load_library()
            jobs = make_jobs(lib, args.seed, workdir)
            workloads.warm_up(lib, args.workload, jobs)
            setups.append((t0, time.perf_counter()))
        t_start = time.perf_counter()
        share = UNTRACED_SHARE if args.trace else 1.0
        untraced = run_passes(jobs, digests, args.seconds * share, gauge)
    setup_s = [(t1 - t0 - gauge.spent(t0, t1)) / gauge.slowdown(t0, t1) for t0, t1 in setups]

    if not args.trace:
        metrics = end_to_end(untraced, setup_s)
        all_passes = untraced
    else:
        tracer = spans.Tracer()
        tracer.install(lib)
        try:
            left = args.seconds - (time.perf_counter() - t_start)
            stats = []
            traced_passes = run_passes(
                jobs, digests, left, on_pass=lambda: stats.append(tracer.new_pass()))
            traced = list(zip(traced_passes, stats))
        finally:
            tracer.uninstall()
        metrics = per_layer(tracer, traced, untraced)
        tracer.write_spans(traced[-1][1], HERE / "out" / f"spans-{args.workload}-{args.seed}.tsv")
        all_passes = untraced + [p for p, _ in traced]

    attempted = sum(len(p.job_s) for p in all_passes)
    failures = [f for p in all_passes for f in p.failures]
    unexpected = sorted({job.name for job, _ in failures if not job.known_defect})
    report_table(args, metrics, all_passes, untraced, failures, attempted)
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def report_table(args, metrics, passes, gauged, failures, attempted) -> None:
    err = sys.stderr
    jobs = len(passes[0].job_s)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(passes)} passes x {jobs} jobs", file=err)
    for key, (value, unit) in metrics.items():
        print(f"  {key:34s} {value:14.6g} {unit}", file=err)
    if args.trace:
        print("  samples: each layer value is the median over the traced passes, in raw "
              "seconds; the overhead ratio compares median raw wall times", file=err)
    else:
        print(f"  samples: wall_s median of {len(passes)} passes; job_s_* over {jobs} jobs "
              f"(each its median pass); setup_s median of {SETUPS} set-ups", file=err)
    slow = [p.slowdown for p in gauged]
    print(f"  untraced passes: slowdown median {statistics.median(slow):.3f}, range "
          f"{min(slow):.3f}-{max(slow):.3f}; raw wall_s median "
          f"{statistics.median(p.wall_s for p in gauged):.6g} s", file=err)
    print(f"  fail_ratio {len(failures)}/{attempted} = {len(failures) / attempted:.4f}", file=err)
    seen = set()
    for job, problems in failures:
        if job.name not in seen:
            seen.add(job.name)
            tag = f" [known defect: {job.known_defect}]" if job.known_defect else ""
            print(f"  FAILED {job.name}{tag}: {'; '.join(problems)}", file=err)


if __name__ == "__main__":
    sys.exit(main())
