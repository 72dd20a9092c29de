"""Escape speeds and addresses: the coordinates of escaping orbits.

An orbit escaping to the right is described by two coordinates: how fast
it escapes (its potential t, shadowing the tower step(d, t) = exp(d*t) - 1)
and which horizontal strip each iterate visits (its integer address).
This script walks through the tower arithmetic, the overflow discipline,
the potential ladder of a family of orbits, and cluster detection.
"""

from rayforge import potentials as pot
from rayforge.potentials import ExternalAddress

print("=== speed steps ===")
for t in (0.5, 1.0, 2.0):
    print(f"step(1, {t}) = {pot.step(1, t):.6f}")

print("\nIterating from t = 1 (d = 1): the tower explodes fast.")
tower = pot.chain(1, 1.0)
for n, value in enumerate(tower):
    print(f"  step^{n}(1) = {value:.6g}")
horizon = len(tower)
print(f"  step^{horizon}(1) overflows the 1e300 float-range limit at level {horizon}")

print("\nBeyond the limit, work in log scale: log step(d, t) = d*t + log1p(-exp(-d*t)),")
print("which is d*t in double precision once d*t > 37:")
print(f"  log step(1, 594.29) = 1*594.29 = {1 * 594.29:.4f}")
print(f"  log step(1, 1.26e258) = 1*1.26e258 = {1 * 1.26e258:.6g}")

print("\n=== addresses ===")
addr = ExternalAddress((7, -3), (2,))
print(f"address {addr}: entries", [addr.entry(n) for n in range(6)])
print(f"shifted once: {addr.shift()}")
bound = max(abs(x) for x in addr.preperiod + addr.period)
print(f"bounded by {bound}; admissible for every speed t > 0")

print("\n=== potential ladder ===")
orbits = [
    (2.0, ExternalAddress((), (0,))),
    (2.5, ExternalAddress((), (1,))),
]
ladder = pot.build_ladder(orbits, 2, 2)
print("rungs:", [f"{t:.6g}" for t in ladder.potentials])
print("midpoints:", [f"{r:.6g}" for r in ladder.midpoints])
print(f"threshold t' = {ladder.t_prime:.6g}: above it consecutive rungs "
      "are > 2 apart and the midpoints separate the marked points")

print("\n=== clusters ===")
equal_speed = [
    (1.0, ExternalAddress((), (0,))),
    (1.0, ExternalAddress((), (1, 0))),
    (1.0, ExternalAddress((), (0, 1))),
]
infinite = pot.detect_clusters(equal_speed, 3, 2)
print(f"three equal-speed interleaving orbits: infinite clusters = {infinite}")
print("(the constant orbit keeps meeting one of the alternating pair at "
      "every level, so no finite truncation ever thins the clusters out)")

distinct = [(1.0, equal_speed[0][1]), (1.15, equal_speed[1][1]), (1.3, equal_speed[2][1])]
print(f"same addresses, distinct speeds: infinite clusters = "
      f"{pot.detect_clusters(distinct, 3, 2)}")
