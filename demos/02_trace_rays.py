"""Dynamic-ray tracing by backward iteration.

A ray point at potential t is found by seeding far out at the straight
asymptotic position step^n(t) + 2*pi*i*s_n/d and pulling back through the
inverse branches the address dictates.  The seed error decays like
exp(-step^n(t)/2), so a handful of levels already lands at double
precision.  This script traces rays, verifies the one-step functional
equation, and writes a CSV a plotting tool can consume.
"""

import io
import math

from rayforge import potentials as pot
from rayforge import presets, rays, tracts
from rayforge.errors import OverflowSignal

m = presets.EXP_MAP
cfg = tracts.make_tract_config(m)
print(f"map: exp(z); certified half-plane Re > {cfg.r}, "
      f"strips of height {2 * math.pi / cfg.d:.4f}")

print("\n=== a single ray point ===")
addr = presets.MIXED  # address (2 -1 2 -1 ...)
pt = rays.trace_ray(m, cfg, addr, 2.0)
print(f"address {addr}, potential 2.0 -> z = {pt.z:.12g}")
print(f"  depth used {pt.depth_used}, error estimate {pt.error_estimate:.3g}")
print(f"  straight position would be {2.0 + 2j * math.pi * addr.entry(0):.6g}")

print("\n=== functional equation: f(R(t)) = R(F(t)) on the shifted address ===")
for t in (1.0, 2.5, 4.0):
    lhs = m(rays.trace_ray(m, cfg, addr, t).z)
    rhs = rays.trace_ray(m, cfg, addr.shift(), pot.step(1, t)).z
    print(f"  t = {t}: residual {abs(lhs - rhs):.3e}")

print("\n=== a segment, geometrically sampled ===")
seg = rays.trace_segment(m, cfg, presets.ZERO, 1.0, 5.0, 8)
buf = io.StringIO()
buf.write("t,re,im\n")
for p in seg:
    buf.write(f"{p.t:.6f},{p.z.real:.12g},{p.z.imag:.12g}\n")
print(buf.getvalue())

# Re f^n along the samples, for n = 0..6 or until f overflows.
zs = [p.z for p in seg]
onset = horizon = 0
for n in range(7):
    if any(b.real <= a.real for a, b in zip(zs, zs[1:])):
        onset = n + 1
    horizon = n
    try:
        zs = [m(z) for z in zs]
    except OverflowSignal:
        break
print(f"real parts of iterated samples strictly increase from iterate "
      f"N = {onset} (horizon {horizon})")

print("\n=== round trip: read the coordinates back off the point ===")
ext = rays.extract_potential_address(m, cfg, pt.z)
print(f"extracted potential {ext.t:.12f} (sent 2.0)")
print(f"extracted address prefix {ext.prefix} "
      f"(sent {tuple(addr.entry(k) for k in range(len(ext.prefix)))})")

print("\n=== asymptotic straightness ===")
for t in (20.0, 25.0, 30.0):
    z = rays.trace_ray(m, cfg, presets.ONE, t).z
    dev = abs(z - (t + 2j * math.pi))
    print(f"  t = {t}: |R(t) - t - 2*pi*i| = {dev:.3e} "
          f"(decays ~ exp(-t); the guaranteed envelope is exp(-t/2))")
