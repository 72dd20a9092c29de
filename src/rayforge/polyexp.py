"""The map family under study: f(z) = p(exp(z)) with p monic of degree d.

Holds evaluation, derivatives and singular data, a simultaneous-iteration
polynomial root solver, the disk-containment checker and the Monte-Carlo
report ``diag appendix-a`` prints, which samples how singular-value
magnitudes control a map's geometry.  One Horner loop evaluates p, for
scalars, arrays and rows of polynomials alike, and ``poly_derivative``
evaluates p'.  Disk containment is proven first, from Fujiwara's root bound
over the whole disk, and sampled with a root solve only when the proof
fails.  ``appendix_report`` draws all its samples, then measures them as
arrays at the critical points the samplers drew, with no root solve of p'.
Its ratios differ from such a solve's in the last bits (by up to 11 ulp at
d <= 3 and 311 at d = 4) and are the closer to a 50-digit reference.
Random draws take explicit seeds; nothing here keeps mutable state.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import config
from .errors import DomainError, OverflowSignal, RootSolveError


def _horner(coeffs, w):
    """Monic p(w) with b_0..b_{d-1} in ``coeffs``: scalars, or (n, 1) columns
    of n polynomials that broadcast against an (n, m) array w."""
    value = complex(1.0)
    for b in reversed(coeffs):
        value = value * w + b
    return value


@dataclass(frozen=True)
class PolyExpMap:
    """f = p o exp with p(w) = w^d + b_{d-1} w^{d-1} + ... + b_0.

    ``coeffs`` lists b_0 first; the monic leading term is implicit.
    """

    d: int
    coeffs: tuple[complex, ...]

    def __init__(self, d: int, coeffs: Sequence[complex]):
        if d < 1:
            raise DomainError(f"degree must be >= 1, got {d}")
        cs = tuple(complex(c) for c in coeffs)
        if len(cs) != d:
            raise DomainError(f"need {d} coefficients b_0..b_{d-1}, got {len(cs)}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "coeffs", cs)

    def poly(self, w: complex) -> complex:
        return _horner(self.coeffs, w)

    def poly_derivative(self, w: complex) -> complex:
        value = complex(self.d)
        for k in range(self.d - 1, 0, -1):
            value = value * w + k * self.coeffs[k]
        return value

    def __call__(self, z: complex) -> complex:
        """Evaluate f(z); overflow of exp or of the polynomial raises."""
        z = complex(z)
        if self.d * z.real > config.EXP_ARG_LIMIT:
            raise OverflowSignal(f"exp overflow evaluating map at {z}")
        value = self.poly(cmath.exp(z))
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise OverflowSignal(f"polynomial overflow evaluating map at {z}")
        return value

    def derivative(self, z: complex) -> complex:
        """f'(z) = p'(exp z) * exp z."""
        z = complex(z)
        if self.d * z.real > config.EXP_ARG_LIMIT:
            raise OverflowSignal(f"exp overflow in derivative at {z}")
        w = cmath.exp(z)
        value = self.poly_derivative(w) * w
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise OverflowSignal(f"derivative overflow at {z}")
        return value

    def log_abs_derivative(self, z: complex) -> float:
        """log |f'(z)|, valid also where the value itself would overflow."""
        z = complex(z)
        if self.d * z.real <= config.EXP_ARG_LIMIT:
            v = self.derivative(z)
            if v == 0:
                return -math.inf
            return math.log(abs(v))
        # Deep right: p'(w) = d w^{d-1} (1 + lower order), corrections underflow.
        return math.log(self.d) + self.d * z.real

    def singular_data(self) -> "SingularData":
        """Critical points of p, their critical values and the asymptotic
        value p(0), from one root solve of p'.  Raises OverflowSignal when
        two singular values lie farther apart than the largest double."""
        cps = critical_points(self)
        cvs = tuple(self.poly(c) for c in cps)
        distinct: list[complex] = []
        try:
            for v in sorted(cvs + (self.coeffs[0],), key=lambda c: (c.real, c.imag)):
                if not any(abs(v - u) <= 1e-9 * max(1.0, abs(u)) for u in distinct):
                    distinct.append(v)
        except OverflowError as exc:
            raise OverflowSignal("singular values too far apart for double precision") from exc
        return SingularData(cps, cvs, self.coeffs[0], tuple(distinct))


@dataclass(frozen=True)
class SingularData:
    """Critical points of p with their critical values (with multiplicity)
    plus the asymptotic value p(0).

    ``all`` collapses the singular values to distinct members at a mild
    tolerance.
    """

    critical_points: tuple[complex, ...]
    critical_values: tuple[complex, ...]
    asymptotic_value: complex
    all: tuple[complex, ...]

    def max_modulus(self) -> float:
        return max(abs(v) for v in self.all)

    def max_real(self) -> float:
        return max(v.real for v in self.all)


def critical_points(map_: PolyExpMap) -> tuple[complex, ...]:
    """Roots of p', sorted by (re, im).  Empty for d = 1."""
    d = map_.d
    if d == 1:
        return ()
    # p'(w) = d w^{d-1} + (d-1) b_{d-1} w^{d-2} + ... + b_1
    high_to_low = [d] + [k * map_.coeffs[k] for k in range(d - 1, 0, -1)]
    roots = np.roots(np.asarray(high_to_low, dtype=complex))
    return tuple(sorted((complex(r) for r in roots), key=lambda c: (c.real, c.imag)))


def poly_roots_batch(map_: PolyExpMap, ws: np.ndarray) -> np.ndarray:
    """Solve p(z) = w simultaneously for a batch of right-hand sides.

    Ehrlich-Aberth iteration started on the d-th-root fan of each w (a fixed
    0.7-radian twist breaks the real-axis symmetry trap).  Each row leaves
    the sweep as soon as its own residual or its own correction passes, so
    every row is bitwise equal to its one-row solve and the output never
    depends on what else is in the batch.  Returns an array of shape
    (len(ws), d); raises RootSolveError when some residual stays above the
    post tolerance after ROOT_MAX_ITER sweeps, or is not a number.
    """
    d, cs = map_.d, map_.coeffs
    ws = np.asarray(ws, dtype=complex).ravel()
    scale = np.maximum(1.0, np.abs(ws))
    if d == 1:
        return (ws - cs[0]).reshape(-1, 1)

    radius = np.maximum(np.abs(ws), 1.0 + max(abs(c) for c in cs)) ** (1.0 / d)
    angles = (np.angle(ws)[:, None] + 2 * np.pi * np.arange(d)[None, :] + 0.7) / d
    x = radius[:, None] * np.exp(1j * angles)

    # The sweep runs on the live rows only: (row index, roots, w, tolerance).
    live = np.arange(len(ws))
    xl, wl, tl = x, ws[:, None], (config.ROOT_ITER_RTOL * scale)[:, None]

    def retire(passed) -> np.ndarray | None:
        """Write back and drop the rows whose every entry passed; returns
        the mask of the rows kept when some row left."""
        nonlocal live, xl, wl, tl
        if not np.count_nonzero(passed):  # the common case, and cheap
            return None
        done = passed.all(axis=1)
        if not done.any():
            return None
        keep = ~done
        x[live[done]] = xl[done]
        live, xl, wl, tl = live[keep], xl[keep], wl[keep], tl[keep]
        return keep

    for _ in range(config.ROOT_MAX_ITER):
        pv = map_.poly(xl) - wl
        keep = retire(np.abs(pv) <= tl)
        if not live.size:
            break
        if keep is not None:
            pv = pv[keep]
        dpv = map_.poly_derivative(xl)
        dpv[dpv == 0] = 1e-30
        newton = pv / dpv
        diff = xl[:, :, None] - xl[:, None, :]
        diff.reshape(len(xl), d * d)[:, :: d + 1] = 1.0  # the diagonal
        repulsion = (1.0 / diff).sum(axis=2) - 1.0
        denom = 1.0 - newton * repulsion
        denom[denom == 0] = 1e-30
        corr = newton / denom
        xl = xl - corr
        retire(np.abs(corr) <= 4e-16 * (1.0 + np.abs(xl)))
        if not live.size:
            break
    x[live] = xl

    wcol = ws[:, None]
    residual = np.abs(map_.poly(x) - wcol)
    worst = float((residual / scale[:, None]).max())
    if not worst <= config.ROOT_POST_RTOL:  # a NaN residual fails too
        raise RootSolveError(
            f"root iteration stalled, worst relative residual {worst:.3e}",
            worst_residual=worst,
        )
    return x


@dataclass(frozen=True)
class ContainmentReport:
    holds: bool
    part1: bool
    part2: bool
    inconclusive: bool
    samples: int
    proven: bool


@np.errstate(all="ignore")
def fujiwara_bound(coeffs: Sequence[complex] | np.ndarray, r: float) -> float | np.ndarray:
    """Fujiwara's (1916) bound on |z| over the roots of p(z) = w, |w| <= r.

    The roots of z^d + a_{d-1} z^{d-1} + ... + a_0 satisfy |z| <= 2 max(
    |a_{d-1}|, |a_{d-2}|^(1/2), ..., |a_1|^(1/(d-1)), |a_0/2|^(1/d)); here
    a_0 = b_0 - w, and |b_0| + r bounds |a_0| over the closed disk.
    ``coeffs`` is one map's b_0..b_{d-1}, or an (n, d) array with one map
    per row and then one bound per row.  The bound is inf where a
    coefficient or r is not finite.
    """
    mags = np.abs(np.asarray(coeffs, dtype=complex))
    lower = np.concatenate([mags[..., :0:-1], (mags[..., :1] + r) / 2], axis=-1)
    terms = lower ** (1.0 / np.arange(1, mags.shape[-1] + 1))
    return np.where(np.isfinite(terms).all(axis=-1), 2 * terms.max(axis=-1), np.inf)[()]


# The 360 sample points of the unit circle used by check_disk_containment.
_CIRCLE = np.exp(1j * (2 * np.pi * np.arange(360) / 360))


def check_disk_containment(map_: PolyExpMap, rho: float, r: float) -> ContainmentReport:
    """Containment of polynomial preimages of disks.

    Part 1: the roots of p(z) = w stay inside |z| < r for |w| <= r
    (meaningful for r >= rho).  It is proven for the whole disk when
    Fujiwara's bound B satisfies B (1 + 1e-12) < r; the margin covers the
    rounding of B, whose d-th roots are off by about |ln x| 2^-53 < 1e-13
    relative.  Otherwise (always for d = 1, where B = |b_0| + r) it is
    sampled by a root solve on 360 points of the circle |w| = r, and a
    failed solve makes the report inconclusive rather than failed.
    Part 2: |p(z)| < rho^(2d+1) on 360 points of |z| = rho^2, so the
    rho^2-disk maps into the rho^(2d+1)-disk.  It is checked as |q(u)| < rho
    on the unit circle for q(u) = rho^(-2d) p(rho^2 u), whose coefficients
    b_k rho^(2(k-d)) stay in the float range where rho^(2d+1) may not.
    The checker reports; it never asserts its preconditions.
    """
    samples = len(_CIRCLE)
    part1 = proven = bool(fujiwara_bound(map_.coeffs, r) * (1 + 1e-12) < r)
    if not proven:
        try:
            roots = poly_roots_batch(map_, r * _CIRCLE)
        except RootSolveError:
            return ContainmentReport(False, False, False, True, samples, False)
        part1 = bool(np.all(np.abs(roots) < r))

    # A monic q has max |q| >= 1 on the unit circle, so part 2 fails for
    # rho <= 1; for rho > 1 the powers of rho in q's coefficients can only
    # underflow.
    part2 = False
    if rho > 1:
        d = map_.d
        q = PolyExpMap(d, [b * rho ** (2 * (k - d)) for k, b in enumerate(map_.coeffs)])
        part2 = bool(np.all(np.abs(q.poly(_CIRCLE)) < rho))
    return ContainmentReport(part1 and part2, part1, part2, False, samples, proven)


@dataclass(frozen=True)
class AppendixReport:
    """Monte-Carlo summary of the critical-point and coefficient ratios and
    of preimage containment."""

    max_critical_point_ratio: float
    max_coefficient_ratio: float
    containment_maps: int
    containment_failures: int
    containment_inconclusive: int
    containment_proven: int
    worst_case: dict


@np.errstate(all="ignore")
def appendix_report(
    d: int,
    rho: float,
    samples: int = 1000,
    seed: int = 0,
    containment_maps: int | None = None,
) -> AppendixReport:
    """Sampled bounds: critical points of polynomials with p(0) = 0 and
    critical values in the rho-disk, coefficient ratios of maps with
    singular values in the rho-disk, and preimage containment for r = rho.

    Sample ``idx`` draws from its own RNG stream, seeded by (seed, idx), so
    each sample's values depend only on the seed and its index.  The
    samples are drawn first and measured as arrays, at the critical points
    they drew.  Fujiwara's bound proves containment for all checked maps at
    once; each map it leaves unproven goes through ``check_disk_containment``.
    Containment failures and inconclusive checks are counted from those
    sampled checks only: a proven containment is neither, and a
    sampled check whose root solve failed counts as inconclusive, never as
    a failure.  Raises OverflowSignal naming the first sample whose
    arithmetic leaves the float range (rho near the largest double).
    """
    if containment_maps is None:
        containment_maps = min(samples, 200)

    rngs = [np.random.default_rng((seed, idx)) for idx in range(samples)]
    _, cps, a = _sample_polys(d, rho, rngs)
    coeffs = _sample_maps(d, rho, rngs)
    ratios = np.abs(cps).max(axis=1) / a / rho ** (1.0 / d)
    coeff_ratios = (np.abs(coeffs) / [rho ** ((d - k) / d) for k in range(d)]).max(axis=1)
    _finite_rows(rho, np.stack([ratios, coeff_ratios], axis=1))

    checked = coeffs[:containment_maps]
    proven = fujiwara_bound(checked, rho) * (1 + 1e-12) < rho
    sampled = [check_disk_containment(PolyExpMap(d, row), rho, rho) for row in checked[~proven]]
    worst_idx = int(ratios.argmax())
    return AppendixReport(
        max_critical_point_ratio=float(ratios[worst_idx]),
        max_coefficient_ratio=float(coeff_ratios.max()),
        containment_maps=containment_maps,
        containment_failures=sum(not (rep.part1 or rep.inconclusive) for rep in sampled),
        containment_inconclusive=sum(rep.inconclusive for rep in sampled),
        containment_proven=int(proven.sum()),
        worst_case={"sample_index": worst_idx, "ratio": float(ratios[worst_idx])},
    )


def _rescaled(coeffs: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Row by row q(z) = a^-d p(a z): scales singular values by a^-d and
    critical points by 1/a, and keeps q monic."""
    d = coeffs.shape[1]
    # A zero coefficient stays zero even where a^(k-d) overflows.
    return np.where(coeffs != 0, coeffs * a[:, None] ** np.arange(-d, 0), coeffs)


def _finite_rows(rho: float, rows: np.ndarray) -> np.ndarray:
    """``rows``; raises OverflowSignal naming the first row that is not finite."""
    bad = ~np.isfinite(rows).all(axis=1)
    if bad.any():
        raise OverflowSignal(f"sample {bad.argmax()} at rho={rho!r} left the float range")
    return rows


@np.errstate(all="ignore")
def _sample_polys(d: int, rho: float, rngs: list) -> tuple:
    """Random monic p with p(0) = 0 and critical values scaled into the
    rho-disk (max modulus placed uniformly in [0.3, 1]*rho), row i drawn
    from rngs[i] alone: the coefficients (n, d), the drawn critical points c
    (n, d-1) and the factors a (n,) that put row i's critical points at
    c[i] / a[i].  A row with no nonzero critical value draws no target and
    is the zero map (a = inf)."""
    if d < 2:
        raise DomainError("needs d >= 2")
    n = len(rngs)
    normals = np.array([rng.standard_normal((2, d - 1)) for rng in rngs]).reshape(n, 2, d - 1)
    cps = normals[:, 0] + 1j * normals[:, 1]
    # p' = d prod (z - c), expanded highest power first as np.poly does;
    # integrate with zero constant term.  The leading coefficient d/d is
    # exactly 1.0, so p is monic.
    prod = np.zeros((n, d), dtype=complex)
    prod[:, 0] = 1.0
    for k in range(d - 1):
        prod[:, 1 : k + 2] -= cps[:, k, None] * prod[:, : k + 1]
    descending = d * prod / np.arange(d, 0, -1)
    coeffs = np.concatenate([np.zeros((n, 1)), descending[:, :0:-1]], axis=1)
    peak = np.abs(_horner(coeffs.T[:, :, None], cps)).max(axis=1)
    live = np.flatnonzero(peak != 0.0)
    target = rho * np.array([rngs[i].uniform(0.3, 1.0) for i in live])
    a = np.full(n, np.inf)
    a[live] = (peak[live] / target) ** (1.0 / d)
    return _rescaled(coeffs, a), cps, a


@np.errstate(all="ignore")
def _sample_maps(d: int, rho: float, rngs: list) -> np.ndarray:
    """Random maps whose singular values (critical values of p and p(0))
    are scaled into the rho-disk, row i drawn from rngs[i] alone: the
    coefficients (n, d), NaN where a row's critical values leave the float
    range."""
    n = len(rngs)
    if d == 1:
        shifted, scale = np.zeros((n, 1), dtype=complex), rho
    else:
        shifted, cps, a = _sample_polys(d, rho, rngs)
        scale = rho / 2
    u = np.array([(rng.uniform(0, 1), rng.uniform(0, 2 * np.pi)) for rng in rngs]).reshape(n, 2)
    shifted[:, 0] += scale * u[:, 0] * np.exp(1j * u[:, 1])
    if d == 1:
        return shifted
    # Shifting p moves its critical values, not its critical points.
    values = _horner(shifted.T[:, :, None], cps / a[:, None])
    peak = np.maximum(np.abs(values).max(axis=1), np.abs(shifted[:, 0]))
    shrink = np.where(peak > rho, (peak / (0.95 * rho)) ** (1.0 / d), 1.0)
    return np.where(np.isfinite(peak)[:, None], _rescaled(shifted, shrink), np.nan)

