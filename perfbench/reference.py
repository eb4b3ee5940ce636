"""A fixed pure-Python reference kernel that gauges how fast the machine runs.

On a shared host other tenants slow a process down by up to about 2x, for
seconds to minutes at a time, and the fastest or median pass of a run cannot
escape a slow period that lasts the whole run.  So the benchmark runs this
kernel on a timer while it times the library's jobs, and states every time in
units of the kernel's time during the same job (see ``run.Gauge``): a slow
period slows both and cancels out.  The kernel mixes what cdgalab spends its
time on, exact ``Fraction`` elimination and tuple-keyed dict updates, and it
never calls the library, so a change to cdgalab cannot change it.
"""

from __future__ import annotations

from fractions import Fraction

N = 8
MATRIX = tuple(
    tuple(Fraction((3 * i + 5 * j) % 7 - 3, 1 + (i * j) % 3) for j in range(N))
    for i in range(N)
)


def kernel() -> int:
    """Row-reduce ``MATRIX`` exactly, tally some monomial keys; return the rank."""
    rows = [list(r) for r in MATRIX]
    top = 0
    for col in range(N):
        p = next((i for i in range(top, N) if rows[i][col]), None)
        if p is None:
            continue
        rows[top], rows[p] = rows[p], rows[top]
        inv = 1 / rows[top][col]
        pivot = [x * inv for x in rows[top]]
        rows[top] = pivot
        for i in range(N):
            f = rows[i][col]
            if i != top and f:
                rows[i] = [a - f * b for a, b in zip(rows[i], pivot)]
        top += 1
    tally: dict = {}
    for i in range(600):
        key = (i % 13, i % 7, i % 3)
        tally[key] = tally.get(key, 0) + 1
    return top
