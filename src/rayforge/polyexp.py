"""The map family under study: f(z) = p(exp(z)) with p monic of degree d.

Holds evaluation, derivatives and singular data, a batched root solver
for p(z) = w (the quadratic formula at degree 2, simultaneous iteration
above) and the Monte-Carlo report ``diag appendix-a`` prints, which
samples how singular-value magnitudes control a map's geometry.  All
Horner evaluation, of p, p' (coefficients formed once per map), the
tract certificate's sums and the containment proof, goes through
``horner``.  The report proves disk containment by Cauchy's root radius,
and ``check_disk_containment`` samples each map left open with one root
solve.  ``appendix_report`` draws all its samples in one array pass and
measures them at the critical points it drew, with no root solve of p';
its ratios are the closer of the two to a 50-digit reference.
Random draws take explicit seeds; nothing here keeps mutable state.
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

_TINY = np.finfo(float).tiny


def horner(cs, x):
    """sum_k cs[k] x^k by Horner's rule, cs[0] first (not monic), for scalars
    or arrays; it overflows to inf or NaN and never raises."""
    value = cs[-1]
    for c in reversed(cs[:-1]):
        value = value * x + c
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

    @functools.cached_property
    def derivative_coeffs(self) -> tuple[complex, ...]:
        """p' as b_1, 2 b_2, ..., (d-1) b_{d-1}, d: lowest power first."""
        return tuple(k * self.coeffs[k] for k in range(1, self.d)) + (complex(self.d),)

    def poly(self, w: complex) -> complex:
        return horner(self.coeffs + (1 + 0j,), w)

    def poly_derivative(self, w: complex) -> complex:
        return horner(self.derivative_coeffs, w)

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
        roots = np.roots(np.asarray(map_.derivative_coeffs[::-1], dtype=complex))
    return tuple(sorted((complex(r) for r in roots), key=lambda c: (c.real, c.imag)))


def poly_roots_batch(map_: PolyExpMap, ws: np.ndarray) -> tuple[np.ndarray, dict]:
    """Solve p(z) = w for a batch of right-hand sides: in closed form at
    d = 2, by Ehrlich-Aberth iteration above.  Every row is bitwise equal to
    its one-row solve, so the output never depends on the rest of the batch.
    Returns the (len(ws), d) roots and the RootSolveError of each stalled
    row by row index: a row stalls, and its roots are NaN, when its worst
    relative residual is above the post tolerance, or is not a number."""
    d, cs = map_.d, map_.coeffs
    ws = np.asarray(ws, dtype=complex).ravel()
    scale = np.maximum(1.0, np.abs(ws))
    if d == 1:
        return (ws - cs[0]).reshape(-1, 1), {}
    x = _quadratic_roots(cs[1], cs[0] - ws) if d == 2 else _aberth_roots(map_, ws, scale)

    worst = (np.abs(map_.poly(x) - ws[:, None]) / scale[:, None]).max(axis=1)
    stalled = {}
    for k in (~(worst <= config.ROOT_POST_RTOL)).nonzero()[0].tolist():  # NaN fails too
        message = f"relative-residual post-check failed, worst relative residual {worst[k]:.3e}"
        stalled[k] = RootSolveError(message, worst_residual=float(worst[k]))
        x[k] = complex(math.nan, math.nan)
    return x, stalled


@np.errstate(all="ignore")
def _quadratic_roots(b1: complex, c: np.ndarray) -> np.ndarray:
    """The roots q and c/q of z^2 + b1 z + c[k] in rows, as in
    ``critical_points``: q = -(b1 + s)/2 with the square root s of
    b1^2 - 4c that has Re(conj(b1) s) >= 0, and both roots 0 when q = 0."""
    s = np.sqrt(b1 * b1 - 4 * c)
    s[(b1.conjugate() * s).real < 0] *= -1
    q = -(b1 + s) / 2
    return np.stack([q, np.where(q == 0, 0j, c / q)], axis=1)


def _aberth_roots(map_: PolyExpMap, ws: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """At most ROOT_MAX_ITER Ehrlich-Aberth sweeps from the d-th-root fan of
    each w, twisted by 0.7 radians to break the real-axis symmetry trap."""
    d, cs = map_.d, map_.coeffs
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
    return x


@np.errstate(all="ignore")
def cauchy_proves(coeffs: Sequence[complex] | np.ndarray, r: float) -> bool | np.ndarray:
    """Whether Cauchy's root radius, the one positive root of u^d - sum_k
    a_k u^k with a_k = |b_k| and a_0 = |b_0| + r, is below r, which puts every
    root of p(z) = w, |w| <= r, in |z| < r.  That polynomial has one sign
    change, so one sign decides it: S = sum_k |b_k| x^(d-k) + x^(d-1) < 1 at
    x = 1/r, one Horner pass grown by ``config.ROUNDING``, with no term that
    overflows where S < 1.  Takes one map's b_0..b_{d-1}, or an (n, d) array
    for one verdict per row; False at d = 1 and where an input is not finite."""
    mags = np.abs(np.asarray(coeffs, dtype=complex))
    x = np.float64(1.0) / r
    s = x * horner(mags[..., ::-1].T, x) + x ** (mags.shape[-1] - 1)
    return ((s * config.ROUNDING < 1) & (x > 0))[()]


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
    map.  ``_sample`` draws all of them in one row-by-row pass, so row k
    depends only on (seed, k): a shorter run is a prefix of a longer one,
    and ``PCG64(seed).advance(4dk)`` draws row k alone.
    Containment is checked on the first min(samples, 200) maps.
    ``cauchy_proves`` proves it for all of them at once, and each map it
    leaves open goes through ``check_disk_containment``, whose failed root
    solves count as inconclusive, never as failures.  Raises
    OverflowSignal naming the first sample whose arithmetic leaves the
    float range: rho near the largest double, or so small that a target
    critical value rho (0.3 + 0.7u) is subnormal.
    """
    if not 2 <= d <= config.MAX_DEGREE:
        raise DomainError(f"needs 2 <= d <= {config.MAX_DEGREE}")
    containment_maps = min(samples, 200)
    cps, a, _, coeffs = _sample(d, rho, np.random.default_rng(seed).random((samples, 4 * d)))
    ratios = np.maximum.reduce(np.abs(cps[:samples]), axis=1) / a[:samples] / rho ** (1.0 / d)
    scale = [rho ** ((d - k) / d) for k in range(d)]
    coeff_ratios = np.maximum.reduce(np.abs(coeffs) / scale, axis=1)
    bad = ~np.isfinite([ratios, coeff_ratios]).all(axis=0)
    if bad.any():
        raise OverflowSignal(f"sample {bad.argmax()} at rho={rho!r} left the float range")

    checked = coeffs[:containment_maps]
    proven = cauchy_proves(checked, rho)
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
def _sample(d: int, rho: float, block: np.ndarray) -> tuple:
    """The polynomials and maps of an (n, 4d) uniform block in one pass over
    2n rows: row k is sample k's polynomial (its first 2d-1 uniforms), row
    n + k the one under its map (the next 2d-1).  A row gives d-1 radii and
    d-1 angles of the critical points c of a monic p with p(0) = 0
    (Box-Muller, so Re c and Im c are i.i.d. N(0, 1)), then the largest
    critical value's modulus rho (0.3 + 0.7 u).  Each step works row by row.
    Returns c (2n, d-1); the factors a (2n,) that put the critical points at
    c / a (a quotient of d-th roots where the quotient would overflow): inf
    for the zero map, NaN where the target is subnormal or a overflows; the
    maps' rescaled critical values (n, d-1); and the maps (n, d): b_0 shifted
    by rho/2 times the point of the last two uniforms, shrunk toward 0.95 rho
    where a singular value leaves the disk, NaN where one leaves the float
    range."""
    n = len(block)
    shift = block[:, -2] * np.exp(2j * np.pi * block[:, -1])
    u = np.concatenate([block[:, : 2 * d - 1], block[:, 2 * d - 1 : -2]])
    cps = np.sqrt(-2 * np.log1p(-u[:, : d - 1])) * np.exp(2j * np.pi * u[:, d - 1 : -1])
    # p(c_k) = d c_k * (mean of prod (w - c) over [0, c_k]), exact by Gauss-Legendre:
    # within 8 * 2^-53 of 50 digits at d <= 5, where Horner's rule on coeffs cancels.
    mean = 0
    for t, w in _gauss_legendre((d + 1) // 2):
        mean = mean + w * np.multiply.reduce(t * cps[:, :, None] - cps[:, None, :], axis=-1)
    values = d * cps * mean
    peak = np.maximum.reduce(np.abs(values), axis=1)
    target = rho * (0.3 + 0.7 * u[:, -1])
    a = (peak / target) ** (1.0 / d)
    if (over := np.isinf(a)).any():
        a[over] = peak[over] ** (1.0 / d) / target[over] ** (1.0 / d)
    a[~np.isfinite(a) | (target < _TINY)] = np.nan
    a[peak == 0.0] = np.inf
    # The maps: p' = d prod (z - c), expanded highest power first as np.poly
    # does, integrated with zero constant term; d/d = 1.0 keeps p monic.
    am = a[n:]
    prod = np.zeros((n, d), dtype=complex)
    prod[:, 0] = 1.0
    for k in range(d - 1):
        prod[:, 1 : k + 2] -= cps[n:, k, None] * prod[:, : k + 1]
    descending = d * prod / np.arange(d, 0, -1)
    shifted = _rescaled(np.concatenate([np.zeros((n, 1)), descending[:, :0:-1]], axis=1), am)
    # Scale by a^-d = m^-d 2^(-d e), which cannot overflow where the result does not.
    m, e = np.frexp(am[:, None])
    values = values[n:] * m**-d
    values = np.ldexp(values.real, -d * e) + 1j * np.ldexp(values.imag, -d * e)
    shifted[:, 0] += rho / 2 * shift
    # Shifting p by b_0 shifts its critical values by b_0.
    b0 = shifted[:, :1]
    peak = np.maximum(np.maximum.reduce(np.abs(values + b0), axis=1), np.abs(b0[:, 0]))
    shrink = np.where(peak > rho, (peak / (0.95 * rho)) ** (1.0 / d), 1.0)
    return cps, a, values, np.where(np.isfinite(peak)[:, None], _rescaled(shifted, shrink), np.nan)
