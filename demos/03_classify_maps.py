"""Solving for the map whose singular values escape as prescribed.

Given a degree, and for each singular orbit a target speed and address,
the pullback iteration moves a truncated grid of marked orbit points one
level back through the inverse branches and refits the map so its
singular values sit on the new first column.  The iteration contracts to
a fixed point; ``classify`` mixes the last pullbacks (Anderson mixing) to
get there in fewer steps.  An independent forward-orbit verifier
certifies that the solved map's singular values really escape with the
requested data.
"""

import numpy as np

from rayforge import presets, thurston
from rayforge.potentials import ExternalAddress

for label, spec in (("degree 1, one orbit", presets.SPEC_D1),
                    ("degree 2, two orbits", presets.SPEC_D2)):
    print(f"=== {label} ===")
    for i, (t, addr) in enumerate(spec.orbits):
        print(f"  orbit {i}: speed {t}, address {addr}")
    result = thurston.classify(spec, log_iterates=True)
    print(f"converged in {len(result.deltas)} iterations")
    print("coefficients (b_0 first):")
    for c in result.map.coeffs:
        print(f"  {c:.12g}")
    print("grid displacement per iteration:")
    for k, d in enumerate(result.deltas):
        bar = "#" * max(1, int(40 + 2 * np.log10(d))) if d > 0 else ""
        print(f"  {k + 1:3d}  {d:11.3e}  {bar}")
    # the plain step maps (map, grid) to (map, grid) and reports its delta
    map_, z = thurston.init_state(spec)
    plain = []
    for _ in range(3):
        map_, z, delta = thurston.pullback_step(spec, map_, z)
        plain.append(delta)
    print(f"the plain pullback step alone contracts by "
          f"{plain[-1] / plain[-2]:.3f} per step")
    cert = result.certificate
    print(f"certificate passed: {cert.passed}")
    for c in cert.orbits:
        print(f"  orbit {c.orbit}: singular value {c.singular_value:.8g}, "
              f"extracted speed {c.potential:.10f} "
              f"(error {c.potential_error:.2e}), address prefix matched "
              f"{c.prefix_match_length}/{c.prefix_length}")
    # complex conjugation is an exact symmetry of the family: it takes the
    # ray with address s to the conjugate ray with address -s, so the spec
    # with every address negated is solved by the conjugate map
    mirror = thurston.TargetSpec(spec.d, tuple(
        (t, ExternalAddress([-s for s in a.preperiod], [-s for s in a.period]))
        for t, a in spec.orbits))
    alt = thurston.classify(mirror)
    gap = max(abs(a - b.conjugate()) for a, b in zip(result.map.coeffs, alt.map.coeffs))
    print(f"the spec with negated addresses gives the conjugate coefficients "
          f"to {gap:.2e}")

    report = thurston.invariant_set_diagnostics(result.z, spec)
    print(f"invariant-region margins at rho = {report.rho:.4g} "
          f"(positive where the condition holds): "
          f"disk {report.inside_disk_margin:.4g}, "
          f"pullback Re {report.pullback_real_part_margin:.4g}, "
          f"derivative domain {report.derivative_domain_margin:.4g}")
    print()
