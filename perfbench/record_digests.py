"""Record the report digests that the benchmark checks on its default seeds.

    python3 perfbench/record_digests.py

Runs every job of every workload once for each seed in ``DEFAULT_SEEDS``,
requires every answer to pass its closed-form checks (jobs with a known
defect excepted), and writes the SHA-256 prefix of each canonical report to
``perfbench/digests.json``.  Re-record only when a report is meant to change.
"""

from __future__ import annotations

import json
import sys

from run import HERE, ROOT, load_library
import workloads

DEFAULT_SEEDS = range(10)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    lib = load_library()
    table: dict = {}
    for name, make_jobs in workloads.WORKLOADS.items():
        for seed in DEFAULT_SEEDS:
            digests = table.setdefault(name, {}).setdefault(str(seed), {})
            for job in make_jobs(lib, seed, HERE / "work" / f"record-{name}-{seed}"):
                try:
                    out = job.run()
                except Exception as exc:
                    if job.known_defect:
                        continue
                    raise SystemExit(f"{name} seed {seed} {job.name} raised {exc!r}")
                problems = job.check(out, None)
                if problems and not job.known_defect:
                    raise SystemExit(f"{name} seed {seed} {job.name}: {problems}")
                digests[job.name] = workloads.report_digest(out.report)
            print(f"{name} seed {seed}: {len(digests)} digests", file=sys.stderr)
    path = HERE / "digests.json"
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
