"""Monte-Carlo diagnostics: how singular values control a map's geometry.

Three sampled bounds: critical points of a normalized polynomial stay
within a universal multiple of rho^(1/d) once its critical values sit in
the rho-disk; coefficients of a map with singular values in the rho-disk
stay under a constant times rho^((d-k)/d); and polynomial preimages of the
rho-disk stay inside it.  Containment is proven where Cauchy's root radius
is below rho, one sign test per map, and elsewhere proven, refuted or left
open by Rouche's theorem on the circle; the sampled constants are
reported, never asserted as proven values.
"""

import numpy as np

from rayforge import polyexp
from rayforge.polyexp import PolyExpMap

print("=== sampled bound constants across scales ===")
for d in (2, 3):
    for rho in (1e2, 1e3):
        rep = polyexp.appendix_report(d, rho, samples=400, seed=11)
        print(f"d={d} rho={rho:g}: "
              f"max |crit pt| / rho^(1/d) = {rep.max_critical_point_ratio:.4f}, "
              f"max |b_k| / rho^((d-k)/d) = {rep.max_coefficient_ratio:.4f}, "
              f"containment failures {rep.containment_failures}/{rep.containment_maps} "
              f"(proven {rep.containment_proven})")
print("(the ratio statistic is scale-equivariant, so the same seed gives "
      "the same value at every rho: the bound constant is rho-independent)")

print("\n=== the d = 2 critical-point constant is exactly 1 ===")
rng = np.random.default_rng(3)
worst = 0.0
for _ in range(2000):
    b = complex(*rng.uniform(-8, 8, 2))
    rho = abs(b * b / 4) + 1e-12
    cps = polyexp.critical_points(PolyExpMap(2, [0.0, b]))
    worst = max(worst, max(abs(c) for c in cps) / rho ** (1 / 2))
print(f"2000 extremal quadratics: max ratio {worst:.9f} (algebra says <= 1)")

print("\n=== containment detail for one sampled map ===")
# A map with singular values in the 100-disk, as appendix_report draws them.
m = PolyExpMap(2, [-8.224321441320894 - 37.99682436844082j,
                   16.268517451296468 - 4.921059027414673j])
sd = m.singular_data()
print(f"coefficients: {[f'{c:.4g}' for c in m.coeffs]}")
print(f"singular values: {[f'{v:.4g}' for v in sd.all]} "
      f"(max modulus {sd.max_modulus():.4f})")
if polyexp.cauchy_proves(m.coeffs, 100.0):
    inside, how = True, "proven: Cauchy's root radius is below 100"
else:
    inside = polyexp.check_disk_containment(m.coeffs, 100.0)
    how = "decided by Rouche's theorem on the circle"
print(f"preimages of the 100-disk stay inside: {inside} ({how})")
