"""Shipped addresses, maps, targets and segments used by tests and demos."""

from __future__ import annotations

from .polyexp import PolyExpMap
from .potentials import ExternalAddress
from .thurston import TargetSpec

ZERO = ExternalAddress((), (0,))
ONE = ExternalAddress((), (1,))
MINUS_ONE = ExternalAddress((), (-1,))
ALTERNATE = ExternalAddress((), (1, 0))
ALTERNATE_FLIP = ExternalAddress((), (0, 1))
MIXED = ExternalAddress((), (2, -1))
WITH_PREPERIOD = ExternalAddress((7, -3), (2,))
TRIPLE = ExternalAddress((), (0, 0, 1))

# Eight bounded addresses for the ray-equation sweeps.
ADDRESSES = (
    ZERO,
    ONE,
    MINUS_ONE,
    ALTERNATE,
    ALTERNATE_FLIP,
    MIXED,
    WITH_PREPERIOD,
    TRIPLE,
)

# Pure exponential and small-coefficient relatives per degree.
EXP_MAP = PolyExpMap(1, [0.0])
D2_MAP = PolyExpMap(2, [0.0, 0.4])
D2_RAY_MAP = PolyExpMap(2, [0.0, 0.1])
D3_MAP = PolyExpMap(3, [0.1, -0.1, 0.2])


# Classification targets, with J = J*, the depth their JSON echo names.
SPEC_D1 = TargetSpec(1, ((2.0, ZERO),), 3)
SPEC_D2 = TargetSpec(2, ((2.0, ZERO), (2.5, ONE)), 2)

# The three-orbit equal-speed configuration whose clusters never thin out,
# plus its distinct-speed variant.
CLUSTER_REJECT = TargetSpec(3, ((1.0, ZERO), (1.0, ALTERNATE), (1.0, ALTERNATE_FLIP)))
CLUSTER_ACCEPT_ORBITS = (
    (1.0, ZERO),
    (1.15, ALTERNATE),
    (1.3, ALTERNATE_FLIP),
)

# Shipped segments for the monotonicity checks: (map, address, t_lo, t_hi, n).
SEGMENTS = (
    (EXP_MAP, ZERO, 1.0, 5.0, 16),
    (D2_RAY_MAP, ExternalAddress((), (1, -1)), 1.0, 3.0, 12),
)
