"""Local systems over a circle and their spectral sequences.

Run with:  python3 demos/05_local_systems_and_spectral_sequences.py
"""

from cdgalab.cdga import DGMorphism, cohomology_dims, power_quotient_dga
from cdgalab.exactlin import QMatrix
from cdgalab.localsys import (
    cohomology_local_system,
    forms_system,
    global_sections,
    h_local_coefficients,
    tensor_system,
    twist_restriction,
)
from cdgalab.polyforms import cycle_complex
from cdgalab.specseq import e2_check, einfty_vs_target

base = cycle_complex(3)
print("== the ambient forms system over a 3-vertex circle ==")
e = forms_system(base, 2, cutoff=5)
gamma = global_sections(e, 3)
print("global section dimensions:", gamma.dims)
print("their cohomology:", cohomology_dims(gamma, 2), " (the circle again)")

print()
print("== thicken with a sphere fiber and read off the second page ==")
F = power_quotient_dga(2, 2, 5)
ef = tensor_system(e, F, cutoff=5)
rep = e2_check(ef, 1, 2)
print("E2 dimensions:", {k: v for k, v in sorted(rep.dims_pages.items()) if v})
print("match twisted simplicial cohomology:", rep.ok())
tot = einfty_vs_target(ef, 3)
print("limit totals equal H(global sections):", tot.ok(), tot.totals_pages)

print()
print("== a sign twist kills the twisted rows ==")
from cdgalab.cdga import FreeCDGA, truncate
from cdgalab.graded import FreeGCA

z_alg = truncate(FreeCDGA(FreeGCA([("z", 2)]), {}), 5)
et = tensor_system(e, z_alg, cutoff=5)
fiber0 = et.fibers[(0,)]
mats = []
for k in range(fiber0.cutoff + 1):
    entries = {}
    for t, (i, ia, j, jb) in enumerate(fiber0.bases[k].keys):
        entries[(t, t)] = -1 if j == 2 else 1
    mats.append(QMatrix(fiber0.dim(k), fiber0.dim(k), entries))
sign = DGMorphism(fiber0, fiber0, mats)
et = twist_restriction(et, (0, 2), 0, sign)
rep_t = e2_check(et, 1, 2)
print("twisted E2:", {k: v for k, v in sorted(rep_t.dims_pages.items()) if v})
print("(only the untwisted row q = 0 survives)")
