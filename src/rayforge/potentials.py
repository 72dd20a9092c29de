"""Escape speeds, external addresses, potential ladders and clusters.

The one-step speed map is ``step(d, t) = exp(d*t) - 1``.  An escaping orbit
with potential ``t`` and address ``(s_0 s_1 ...)`` shadows the points
``step^n(t) + 2*pi*i*s_n/d``; everything in this module is bookkeeping for
those two coordinates.  All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from . import config
from .errors import DomainError, OverflowSignal


def integers(entries: Sequence[int], what: str) -> tuple[int, ...]:
    """Entries as ints; a non-integral entry or a bool is rejected, never
    truncated.  Integral floats such as 2.0 and numpy integers pass.
    ``what`` names the entries in the error."""
    entries = tuple(entries)
    try:
        if all(not isinstance(x, bool) and int(x) == x for x in entries):
            return tuple(int(x) for x in entries)
    except (TypeError, ValueError, OverflowError):
        pass
    raise DomainError(f"{what} must be integers, got {list(entries)!r}")


@dataclass(frozen=True, init=False)
class ExternalAddress:
    """Integer sequence with an eventually periodic representation.

    ``entry(n)`` walks the preperiod first, then cycles the period.  Only
    bounded sequences are representable, which is exactly the class every
    operation in this package supports; address families with unbounded
    entries are rejected at construction of the consumers that would need
    them.  A dataclass, not a NamedTuple, because its own ``__init__``
    validates the entries.
    """

    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def __init__(self, preperiod: Sequence[int] = (), period: Sequence[int] = (0,)):
        object.__setattr__(self, "preperiod", integers(preperiod, "address entries"))
        object.__setattr__(self, "period", integers(period, "address entries"))
        if not self.period:
            raise DomainError("address period must be nonempty")
        for x in self.preperiod + self.period:
            if not -(2**63) <= x < 2**63:
                # the pull chains hold entries in numpy int64 arrays
                raise DomainError(f"address entry {x} is outside the signed 64-bit range")

    def entry(self, n: int) -> int:
        if n < 0:
            raise DomainError("address entries are indexed from 0")
        k = len(self.preperiod)
        if n < k:
            return self.preperiod[n]
        return self.period[(n - k) % len(self.period)]

    def entries(self, n: int) -> tuple[int, ...]:
        """entry(k) for k = 0..n-1, n >= 0: the preperiod, then the period
        repeated by one tuple product, not read entry by entry."""
        turns = max(n - len(self.preperiod), 0) // len(self.period) + 1
        return (self.preperiod + self.period * turns)[:n]

    def shift(self) -> "ExternalAddress":
        """Drop the first entry (rotate the period when no preperiod is left)."""
        return self.shifted(1)

    def shifted(self, n: int) -> "ExternalAddress":
        """Drop the first n entries: the preperiod first, then whole turns
        and a rotation of the period."""
        if n < 0:
            raise DomainError("address shifts are counted from 0")
        k = len(self.preperiod)
        if n <= k:
            return ExternalAddress(self.preperiod[n:], self.period)
        r = (n - k) % len(self.period)
        return ExternalAddress((), self.period[r:] + self.period[:r])

    def overlaps(self, other: "ExternalAddress") -> bool:
        """True when some shifts of the two sequences coincide.  Their tails
        repeat periods p and q, and two such tails that agree on n = |p| +
        |q| - gcd(|p|, |q|) entries agree forever (Fine and Wilf), so they
        overlap when q to n entries lies entry-aligned in p to n + |p| - 1."""
        p, q = self.period, other.period
        n = len(p) + len(q) - math.gcd(len(p), len(q))
        return _text(q, n) in _text(p, n + len(p) - 1)

    def __str__(self) -> str:
        pre = " ".join(str(x) for x in self.preperiod)
        per = " ".join(str(x) for x in self.period)
        return f"({pre} | {per})" if pre else f"({per})"


def step(d: int, t: float) -> float:
    """One escape-speed step: exp(d*t) - 1.  OverflowSignal where that
    leaves the float range."""
    if d < 1:
        raise DomainError(f"degree must be >= 1, got {d}")
    try:
        return math.expm1(d * t)
    except OverflowError:
        raise OverflowSignal(f"step({d}, {t}) exceeds the float range") from None


def inverse_step(d: int, y: float) -> float:
    """Inverse of the speed step: log(y + 1)/d, defined for y > -1."""
    if d < 1:
        raise DomainError(f"degree must be >= 1, got {d}")
    if y <= -1:
        raise DomainError(f"inverse step needs y > -1, got {y}")
    return math.log1p(y) / d


def same_potential(a: float, b: float) -> bool:
    """Equality of potentials at relative tolerance POTENTIAL_EQ_RTOL, the
    one rule of ladders and cluster detection."""
    return abs(a - b) <= config.POTENTIAL_EQ_RTOL * max(1.0, abs(a), abs(b))


def chain(d: int, t: float, max_len: int = 512) -> list[float]:
    """[t, step(t), step^2(t), ...] truncated before the first value above
    the float-range limit ``config.CAP``."""
    values = [float(t)]
    while len(values) < max_len:
        v = values[-1]
        if d * v > config.EXP_ARG_LIMIT:
            break
        nxt = step(d, v)
        if nxt > config.CAP:
            break
        values.append(nxt)
    return values


class PotentialLadder(NamedTuple):
    """Sorted potentials of a marked-orbit family plus half-way midpoints.

    Above the threshold ``t_prime`` consecutive rungs are more than 2 apart
    and the sampled separation checks hold, so the midpoints there are safe
    cut radii between rungs.
    """

    potentials: tuple[float, ...]
    midpoints: tuple[float, ...]
    t_prime: float

    def midpoints_above_threshold(self) -> tuple[float, ...]:
        return tuple(r for r in self.midpoints if r > self.t_prime)


def straight_point(d: int, t: float, s: int) -> complex:
    """The asymptotic position t + 2*pi*i*s/d of an orbit point with speed t
    in strip s; t and s may also be numpy arrays.  For t > 0 the sum equals
    complex(t, 2*pi*s/d) bit for bit."""
    return t + 1j * (2 * math.pi * s / d)


def _distinct(values) -> list[float]:
    """The sorted values, runs of ``same_potential`` neighbours cut to their first."""
    kept: list[float] = []
    for t in sorted(values):
        if not kept or not same_potential(kept[-1], t):
            kept.append(t)
    return kept


def build_ladder(
    orbits: Sequence[tuple[float, ExternalAddress]], d: int, depth: int
) -> PotentialLadder:
    """Merge the iterated potentials of all orbits into a sorted ladder.

    Duplicates collapse under ``same_potential``.  The threshold t_prime
    is the smallest rung (or 0) above which, on data sampled
    LADDER_EXTRA_DEPTH levels deeper than the ladder itself,
    consecutive gaps exceed 2, moduli of marked points gain more than 2 per
    rung, and every midpoint separates the positions below it from the
    positions above it by at least 1.

    A failed check has a key, the lower potential of its gap or pair or its
    midpoint, and rules out exactly the thresholds below it; so t_prime is
    the first of 0 and the rungs at or above the largest key, inf if none.
    """
    if depth < 0:
        raise DomainError("ladder depth must be >= 0")
    if not orbits:
        raise DomainError("ladder needs at least one orbit")
    for t0, _ in orbits:
        if not t0 > 0:
            raise DomainError(f"orbit potential must be > 0, got {t0}")

    # The checks probe marked points LADDER_EXTRA_DEPTH levels below the ladder.
    chains = [chain(d, t0, max_len=depth + config.LADDER_EXTRA_DEPTH + 1) for t0, _ in orbits]
    potentials = _distinct(t for values in chains for t in values[: depth + 1])
    midpoints = tuple((a + b) / 2 for a, b in zip(potentials, potentials[1:]))
    marked = [
        (t, straight_point(d, t, addr.entry(j)))
        for values, (_, addr) in zip(chains, orbits)
        for j, t in enumerate(values)
    ]
    # math.hypot, not abs(): the two can differ in the last bit.
    points = sorted((t, math.hypot(p.real, p.imag)) for t, p in marked)

    # Each check scans its keys from the top, and stops at its first failure
    # or at the largest key already found: no lower key can move t_prime.
    sample_pots = _distinct(t for t, _ in points)
    largest = -math.inf
    for a, b in zip(reversed(sample_pots[:-1]), reversed(sample_pots[1:])):
        if b - a <= 2:
            largest = a
            break
    for i in range(len(points) - 1, -1, -1):
        ta, pa = points[i]
        if ta <= largest:
            break
        if any(not same_potential(ta, tb) and not pb > pa + 2 for tb, pb in points[i + 1 :]):
            largest = ta
            break
    for rho in reversed(midpoints):
        if rho <= largest:
            break
        if any((t < rho and not pos < rho - 1) or (t > rho and not pos > rho + 1) for t, pos in points):
            largest = rho
            break
    t_prime = next((c for c in [0.0, *potentials] if c >= largest), math.inf)
    return PotentialLadder(tuple(potentials), midpoints, t_prime)


def _text(period: tuple[int, ...], n: int) -> str:
    """The period repeated to n entries as ",e0,e1,...,": matches align on commas."""
    return "," + ",".join(map(str, itertools.islice(itertools.cycle(period), n))) + ","


def _tails_agree_infinitely_often(a: ExternalAddress, b: ExternalAddress) -> bool:
    """Do entry(n) of a and b coincide for infinitely many n?

    Past both preperiods a reads its period p and b its period q from the
    same level on, and p[i] meets q[j] on some level (then on infinitely
    many) exactly when i = j mod g, g = gcd(|p|, |q|).  So one residue r
    whose entries p[r::g] and q[r::g] share a value decides."""
    start = max(len(a.preperiod), len(b.preperiod))
    p, q = a.shifted(start).period, b.shifted(start).period
    g = math.gcd(len(p), len(q))
    return any(not set(p[r::g]).isdisjoint(q[r::g]) for r in range(g))


def detect_clusters(
    orbits: Sequence[tuple[float, ExternalAddress]], d: int, depth: int
) -> bool:
    """Does the configuration admit infinitely many nontrivial clusters?

    A cluster is a set of grid points with equal potential (to relative
    tolerance) and equal tract index.  Clusters never thin out when two
    orbits align in potential at some offset within ``depth`` levels and
    their shifted addresses agree at infinitely many positions.
    """
    chains = [chain(d, t0, max_len=depth + 1) for t0, _ in orbits]
    for a, b in itertools.combinations(range(len(orbits)), 2):
        # Potential alignment: step^da(ta) == step^db(tb) persists once true.
        align = next(
            (
                (da, db)
                for da, va in enumerate(chains[a])
                for db, vb in enumerate(chains[b])
                if same_potential(va, vb)
            ),
            None,
        )
        if align is not None and _tails_agree_infinitely_often(
            orbits[a][1].shifted(align[0]), orbits[b][1].shifted(align[1])
        ):
            return True
    return False
