"""The map family under study: f(z) = p(exp(z)) with p monic of degree d.

Holds evaluation, derivatives and singular data, a simultaneous-iteration
polynomial root solver and the Monte-Carlo report ``diag appendix-a``
prints, which samples how singular-value magnitudes control a map's
geometry.  One Horner loop evaluates p, for scalars, arrays and rows of
polynomials alike, and ``poly_derivative`` evaluates p'.  The report
proves disk containment for all its maps at once from Fujiwara's root
bound, and ``check_disk_containment`` samples each map the proof leaves
open with one root solve.  ``appendix_report`` measures the samples it
draws as arrays, at the critical points it drew, with no root solve of
p'; its ratios are the closer of the two to a 50-digit reference.  Random
draws take explicit seeds; nothing here keeps mutable state.
"""

from __future__ import annotations

import cmath
import functools
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
        """The critical values of p (at ``critical_points``) and the
        asymptotic value p(0).  Raises OverflowSignal when two singular
        values lie farther apart than the largest double."""
        cvs = tuple(self.poly(c) for c in critical_points(self))
        distinct: list[complex] = []
        try:
            for v in sorted(cvs + (self.coeffs[0],), key=lambda c: (c.real, c.imag)):
                if not any(abs(v - u) <= 1e-9 * max(1.0, abs(u)) for u in distinct):
                    distinct.append(v)
        except OverflowError as exc:
            raise OverflowSignal("singular values too far apart for double precision") from exc
        return SingularData(cvs, self.coeffs[0], tuple(distinct))


@dataclass(frozen=True)
class SingularData:
    """The critical values of p (with multiplicity, in the order of
    ``critical_points``) plus the asymptotic value p(0).

    ``all`` collapses the singular values to distinct members at a mild
    tolerance.  The maxima range over every singular value, since a
    collapsed one may lie right of the member kept for it.
    """

    critical_values: tuple[complex, ...]
    asymptotic_value: complex
    all: tuple[complex, ...]

    def max_modulus(self) -> float:
        return max(abs(v) for v in (self.asymptotic_value, *self.critical_values))

    def max_real(self) -> float:
        return max(v.real for v in (self.asymptotic_value, *self.critical_values))


def critical_points(map_: PolyExpMap) -> tuple[complex, ...]:
    """Roots of p', sorted by (re, im).  Empty for d = 1.

    Closed forms below degree 4: -b_1/2 at d = 2, and at d = 3 the
    quadratic formula for 3w^2 + 2 b_2 w + b_1 in its cancellation-free
    form (the root of larger modulus, q/3, takes the square root that adds
    to 2 b_2; the other is b_1/q).  Higher degrees take the eigenvalues of
    the companion matrix (``np.roots``).
    """
    d, b = map_.d, map_.coeffs
    if d == 1:
        return ()
    if d == 2:
        roots = [-b[1] / 2]
    elif d == 3:
        two_b2 = 2 * b[2]
        root = cmath.sqrt(two_b2 * two_b2 - 12 * b[1])
        if (two_b2.conjugate() * root).real < 0:
            root = -root
        q = -(two_b2 + root) / 2
        roots = [q / 3, b[1] / q] if q else [0j, 0j]
    else:
        # p'(w) = d w^{d-1} + (d-1) b_{d-1} w^{d-2} + ... + b_1
        high_to_low = [d] + [k * b[k] for k in range(d - 1, 0, -1)]
        roots = np.roots(np.asarray(high_to_low, dtype=complex))
    return tuple(sorted((complex(r) for r in roots), key=lambda c: (c.real, c.imag)))


def poly_roots_batch(map_: PolyExpMap, ws: np.ndarray) -> tuple[np.ndarray, dict]:
    """Solve p(z) = w simultaneously for a batch of right-hand sides.

    Ehrlich-Aberth iteration started on the d-th-root fan of each w (a fixed
    0.7-radian twist breaks the real-axis symmetry trap).  Each row leaves
    the sweep as soon as its own residual or its own correction passes, so
    every row is bitwise equal to its one-row solve and the output never
    depends on what else is in the batch.  Returns the (len(ws), d) roots
    and the RootSolveError of each stalled row by row index: a row stalls,
    and its roots are NaN, when its worst relative residual stays above the
    post tolerance after ROOT_MAX_ITER sweeps, or is not a number.
    """
    d, cs = map_.d, map_.coeffs
    ws = np.asarray(ws, dtype=complex).ravel()
    scale = np.maximum(1.0, np.abs(ws))
    if d == 1:
        return (ws - cs[0]).reshape(-1, 1), {}

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

    worst = (np.abs(map_.poly(x) - ws[:, None]) / scale[:, None]).max(axis=1)
    stalled = {}
    for k in (~(worst <= config.ROOT_POST_RTOL)).nonzero()[0].tolist():  # NaN fails too
        message = f"root iteration stalled, worst relative residual {worst[k]:.3e}"
        stalled[k] = RootSolveError(message, worst_residual=float(worst[k]))
        x[k] = complex(math.nan, math.nan)
    return x, stalled


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


def check_disk_containment(map_: PolyExpMap, r: float) -> bool | None:
    """Whether every root of p(z) = w lies in |z| < r, sampled on 360
    points of the circle |w| = r; None (inconclusive) when the root solve
    stalls.  It reports, and never asserts its preconditions."""
    roots, stalled = poly_roots_batch(map_, r * np.exp(1j * (2 * np.pi * np.arange(360) / 360)))
    if stalled:
        return None
    return bool(np.all(np.abs(roots) < r))


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
) -> AppendixReport:
    """Sampled bounds: critical points of polynomials with p(0) = 0 and
    critical values in the rho-disk, coefficient ratios of maps with
    singular values in the rho-disk, and preimage containment for r = rho.

    ``default_rng(seed)`` draws one (samples, 4d) block of uniforms; row k
    is sample k, its first 2d-1 entries the polynomial, the other 2d+1 the
    map.  Row k depends only on (seed, k): a shorter run is a prefix of a
    longer one, and ``PCG64(seed).advance(4dk)`` draws row k alone.
    Containment is checked on the first min(samples, 200) maps.
    Fujiwara's bound B proves it for all of them at once where
    B (1 + 1e-12) < rho; the margin covers the rounding of B, whose d-th
    roots are off by about |ln x| 2^-53 < 1e-13 relative.  Each map left
    unproven goes through ``check_disk_containment``, whose failed root
    solves count as inconclusive, never as failures.  Raises
    OverflowSignal naming the first sample whose arithmetic leaves the
    float range (rho near the largest or below the smallest normal
    double).
    """
    containment_maps = min(samples, 200)
    block = np.random.default_rng(seed).random((samples, 4 * d))
    _, cps, a = _sample_polys(d, rho, block[:, : 2 * d - 1])
    coeffs = _sample_maps(d, rho, block[:, 2 * d - 1 :])
    ratios = np.abs(cps).max(axis=1) / a / rho ** (1.0 / d)
    coeff_ratios = (np.abs(coeffs) / [rho ** ((d - k) / d) for k in range(d)]).max(axis=1)
    bad = ~np.isfinite([ratios, coeff_ratios]).all(axis=0)
    if bad.any():
        raise OverflowSignal(f"sample {bad.argmax()} at rho={rho!r} left the float range")

    checked = coeffs[:containment_maps]
    proven = fujiwara_bound(checked, rho) * (1 + 1e-12) < rho
    sampled = [check_disk_containment(PolyExpMap(d, row), rho) for row in checked[~proven]]
    worst_idx = int(ratios.argmax())
    return AppendixReport(
        max_critical_point_ratio=float(ratios[worst_idx]),
        max_coefficient_ratio=float(coeff_ratios.max()),
        containment_maps=containment_maps,
        containment_failures=sampled.count(False),
        containment_inconclusive=sampled.count(None),
        containment_proven=int(proven.sum()),
        worst_case={"sample_index": worst_idx, "ratio": float(ratios[worst_idx])},
    )


def _rescaled(coeffs: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Row by row q(z) = a^-d p(a z): scales singular values by a^-d and
    critical points by 1/a, and keeps q monic."""
    d = coeffs.shape[1]
    # A zero coefficient stays zero even where a^(k-d) overflows.
    return np.where(coeffs != 0, coeffs * a[:, None] ** np.arange(-d, 0), coeffs)


@functools.cache
def _gauss_legendre(m: int) -> tuple:
    """m-point Gauss-Legendre (node, weight) pairs on [0, 1] (Newton on P_m)."""
    x = np.cos(np.pi * (np.arange(m) + 0.75) / (m + 0.5))
    for _ in range(8):
        p0, p1 = np.ones(m), x
        for k in range(2, m + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = m * (x * p1 - p0) / (x * x - 1)
        x = x - p1 / dp
    return tuple(zip(((1 + x) / 2).tolist(), (1 / ((1 - x * x) * dp * dp)).tolist()))


@np.errstate(all="ignore")
def _sample_polys(d: int, rho: float, u: np.ndarray) -> tuple:
    """Random monic p with p(0) = 0, one per row of the (n, 2d-1) uniforms
    ``u``: d-1 radii and d-1 angles of the critical points c (Box-Muller, so
    Re c and Im c are i.i.d. N(0, 1)), then the largest critical value's
    modulus rho (0.3 + 0.7 u).  Returns the coefficients (n, d), c (n, d-1)
    and the factors a (n,) that put row i's critical points at c[i] / a[i]:
    inf for the zero map (no nonzero critical value), NaN where the target
    is below the smallest normal double or a overflows."""
    if d < 2:
        raise DomainError("needs d >= 2")
    n = len(u)
    cps = np.sqrt(-2 * np.log1p(-u[:, : d - 1])) * np.exp(2j * np.pi * u[:, d - 1 : 2 * d - 2])
    # p' = d prod (z - c), expanded highest power first as np.poly does;
    # integrate with zero constant term.  The leading coefficient d/d is
    # exactly 1.0, so p is monic.
    prod = np.zeros((n, d), dtype=complex)
    prod[:, 0] = 1.0
    for k in range(d - 1):
        prod[:, 1 : k + 2] -= cps[:, k, None] * prod[:, : k + 1]
    descending = d * prod / np.arange(d, 0, -1)
    coeffs = np.concatenate([np.zeros((n, 1)), descending[:, :0:-1]], axis=1)
    # p(c_k) = d c_k * (mean of prod (w - c) over [0, c_k]), exact by Gauss-Legendre:
    # within 8 * 2^-53 of 50 digits at d <= 5, where Horner's rule on coeffs cancels.
    mean = 0
    for t, w in _gauss_legendre((d + 1) // 2):
        mean = mean + w * np.prod(t * cps[:, :, None] - cps[:, None, :], axis=-1)
    peak = np.abs(d * cps * mean).max(axis=1)
    target = rho * (0.3 + 0.7 * u[:, -1])
    a = (peak / target) ** (1.0 / d)
    a[~np.isfinite(a) | (target < np.finfo(float).tiny)] = np.nan
    a[peak == 0.0] = np.inf
    return _rescaled(coeffs, a), cps, a


@np.errstate(all="ignore")
def _sample_maps(d: int, rho: float, u: np.ndarray) -> np.ndarray:
    """Random maps whose singular values (critical values of p and p(0))
    are scaled into the rho-disk, one per row of the (n, 2d+1) uniforms
    ``u``: p from the first 2d-1 as in ``_sample_polys``, then the radius
    and angle of the shift of b_0.  Returns the coefficients (n, d), NaN
    where a row's critical values leave the float range."""
    shift = u[:, -2] * np.exp(2j * np.pi * u[:, -1])
    if d == 1:
        return rho * shift[:, None]
    shifted, cps, a = _sample_polys(d, rho, u[:, : 2 * d - 1])
    shifted[:, 0] += rho / 2 * shift
    # Shifting p moves its critical values, not its critical points.
    values = _horner(shifted.T[:, :, None], cps / a[:, None])
    peak = np.maximum(np.abs(values).max(axis=1), np.abs(shifted[:, 0]))
    shrink = np.where(peak > rho, (peak / (0.95 * rho)) ** (1.0 / d), 1.0)
    return np.where(np.isfinite(peak)[:, None], _rescaled(shifted, shrink), np.nan)
