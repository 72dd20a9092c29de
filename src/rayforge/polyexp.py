"""The map family under study: f(z) = p(exp(z)) with p monic of degree d.

Holds evaluation, p' and singular data, a batched root solver for p(z) = w
(the quadratic formula at degree 2, companion-matrix eigenvalues above) and
the Monte-Carlo report ``diag appendix-a`` prints, which samples how
singular-value magnitudes control a map's geometry.  All Horner evaluation,
of p, p' (coefficients formed once per map), the residual scale, the tract
certificate's sums and the containment proofs, goes through ``horner``.  The
report proves disk containment by Cauchy's root radius, or by Rouche's
theorem on the maps left open, and solves no root of p - w or of p': it
draws all its samples in one array pass and measures them at the critical
points it drew; its ratios are the closer of the two to a 50-digit
reference.  Random draws take explicit seeds; nothing here keeps mutable state.
"""

from __future__ import annotations

import cmath
import contextlib
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import config
from .errors import DomainError, OverflowSignal, RootSolveError

_TINY = np.finfo(float).tiny
_HUGE = np.finfo(float).max
_PRODUCT_ENTRIES = 2**16  # complex entries of one block of _sample or of Rouche's test: 1 MB
_ROUCHE_DOUBLINGS = 6  # 360 to 23,040 points: each doubling halves the slack, doubles the pass


def horner(cs, x):
    """sum_k cs[k] x^k by Horner's rule, cs[0] first (not monic), for scalars
    or arrays; it overflows to inf or NaN and never raises."""
    value = cs[-1]
    for c in reversed(cs[:-1]):
        value = value * x + c
    return value


@dataclass(frozen=True, init=False)
class PolyExpMap:
    """f = p o exp with p(w) = w^d + b_{d-1} w^{d-1} + ... + b_0.

    ``coeffs`` lists b_0 first; the monic leading term is implicit.  A
    dataclass, not a NamedTuple, because its own ``__init__`` validates
    and it caches derived coefficients on the instance.
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
    def moduli(self) -> tuple[float, ...]:
        """|b_0|, ..., |b_{d-1}|, 1: the moduli of p's coefficients, lowest first."""
        return tuple(np.abs(self.coeffs).tolist()) + (1.0,)

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

    def singular_data(self) -> "SingularData":
        """The critical values of p at ``critical_points``, and p(0)."""
        return SingularData(tuple(self.poly(c) for c in critical_points(self)), self.coeffs[0])


class SingularData(NamedTuple):
    """The critical values of p (with multiplicity, in the order of
    ``critical_points``) plus the asymptotic value p(0).

    ``all`` collapses the singular values to distinct members at a mild
    tolerance, computed when it is read.  The maxima range over every
    singular value, since a collapsed one may lie right of the member kept
    for it.
    """

    critical_values: tuple[complex, ...]
    asymptotic_value: complex

    @property
    def all(self) -> tuple[complex, ...]:
        """The distinct singular values, sorted by (re, im); OverflowSignal
        when two of them lie farther apart than the largest double."""
        distinct: list[complex] = []
        values = self.critical_values + (self.asymptotic_value,)
        try:
            for v in sorted(values, key=lambda c: (c.real, c.imag)):
                if not any(abs(v - u) <= 1e-9 * max(1.0, abs(u)) for u in distinct):
                    distinct.append(v)
        except OverflowError as exc:
            raise OverflowSignal("singular values too far apart for double precision") from exc
        return tuple(distinct)

    def max_modulus(self) -> float:
        """The largest |v|; OverflowSignal where that leaves the float range."""
        try:
            return max(abs(v) for v in (self.asymptotic_value, *self.critical_values))
        except OverflowError as exc:
            raise OverflowSignal("a singular value's modulus leaves the float range") from exc

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


@np.errstate(all="ignore")
def poly_roots_batch(map_: PolyExpMap, ws: np.ndarray) -> tuple[np.ndarray, dict]:
    """Solve p(z) = w for a batch of right-hand sides: in closed form at
    d = 2, as companion-matrix eigenvalues above.  Every row is bitwise equal to
    its one-row solve, so the output never depends on the rest of the batch.
    Returns the (len(ws), d) roots and the RootSolveError of each stalled
    row by row index: a row stalls, and its roots are NaN, when its worst
    relative residual, |p(z) - w| over ``residual_scale`` per root, is above
    ``config.RESIDUAL_RTOL``, or is not a number."""
    d, cs = map_.d, map_.coeffs
    ws = np.asarray(ws, dtype=complex).ravel()
    if d == 1:
        return (ws - cs[0]).reshape(-1, 1), {}
    x = _quadratic_roots(cs[1], cs[0] - ws) if d == 2 else _companion_roots(map_, ws)

    worst = (np.abs(map_.poly(x) - ws[:, None]) / residual_scale(map_, x, ws[:, None])).max(1)
    stalled = {}
    for k in (~(worst <= config.RESIDUAL_RTOL)).nonzero()[0].tolist():  # NaN fails too
        message = f"relative-residual post-check failed, worst relative residual {worst[k]:.3e}"
        stalled[k] = RootSolveError(message, worst_residual=float(worst[k]))
        x[k] = complex(math.nan, math.nan)
    return x, stalled


def residual_scale(map_: PolyExpMap, zeta, ws):
    """max(1, |w|, sum_k |b_k| |zeta|^k + |zeta|^d) elementwise, the scale at
    which p(zeta) rounds; capped at the largest double, so that an
    overflowed residual |p(zeta) - w| never passes.  Callers run it under
    np.errstate, since the sum overflows to inf."""
    terms = horner(map_.moduli, np.abs(zeta))
    return np.minimum(np.maximum(np.maximum(1.0, np.abs(ws)), terms), _HUGE)


def _quadratic_roots(b1: complex, c: np.ndarray) -> np.ndarray:
    """The roots q and c/q of z^2 + b1 z + c[k] in rows, as in
    ``critical_points``: q = -(b1 + s)/2 with the square root s of
    b1^2 - 4c that has Re(conj(b1) s) >= 0, and both roots 0 when q = 0."""
    s = np.sqrt(b1 * b1 - 4 * c)
    s[(b1.conjugate() * s).real < 0] *= -1
    x = np.empty((len(c), 2), dtype=complex)
    x[:, 0] = q = -(b1 + s) / 2
    x[:, 1] = c / q
    x[q == 0, 1] = 0
    return x


def _companion_roots(map_: PolyExpMap, ws: np.ndarray) -> np.ndarray:
    """The eigenvalues of each row's companion matrix of p - w, as ``np.roots``
    builds it, from one stacked ``np.linalg.eigvals`` call.  That call refuses
    the whole stack when one matrix is not finite or does not converge, so such
    rows are masked, or solved one at a time; a failing row keeps NaN roots."""
    companion = np.tile(np.eye(map_.d, k=-1, dtype=complex), (len(ws), 1, 1))
    companion[:, 0] = -np.array(map_.coeffs[::-1])
    companion[:, 0, -1] += ws
    x = np.full((len(ws), map_.d), complex(math.nan, math.nan))
    rows = np.isfinite(companion[:, 0]).all(axis=1).nonzero()[0]
    try:
        x[rows] = np.linalg.eigvals(companion[rows])
    except np.linalg.LinAlgError:
        for k in rows.tolist():
            with contextlib.suppress(np.linalg.LinAlgError):
                x[k] = np.linalg.eigvals(companion[k])
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


@np.errstate(all="ignore")
def check_disk_containment(coeffs: Sequence[complex] | np.ndarray, r: float):
    """Rouche's theorem on |z| = r: True where every root of p(z) = w, |w| <= r,
    provably lies in |z| < r, False where one provably does not, else None;
    for one map's b_0..b_{d-1}, or one verdict per row of an (n, d) array.

    p_j is p by Horner's rule at N points r e^(2 pi i j/N) (N = 360, doubled
    for rows left open), each within r 2^-48 of its circle point z_j, so in
    |z| <= R = r (1 + 2^-40), where |p| <= S = sum_k |b_k| R^k and |p'| <= L =
    sum_k k |b_k| R^(k-1), b_d = 1.  Products round within sqrt(5) u and sums
    within u = 2^-53, so p_j is within e0 = (4d + 4) u S + L r 2^-40 of p at
    z_j and at the circle point nearest its computed point (the margins over
    ((sqrt(5) + 1) d + 1) u S and L r 2^-48 cover |.|, comparisons and e's
    rounding; the smallest normal, underflow), and within e = e0 + L pi r/N
    of p on z_j's arc.  False where some |p_j| + e0 <= r: that circle point maps into the
    disk.  Where min |p_j| - e > max(r, e), |p| > r on the circle, so p - w
    has as many roots in |z| < r as p, and p turns under pi/3 on each arc, so
    sum_j arg(p_(j+1)/p_j) rounds to its winding number: True where that is
    d, False below.  Every comparison fails on NaN and inf.
    """
    b = np.asarray(coeffs, dtype=complex)
    monic = np.column_stack([b.reshape(-1, b.shape[-1]), np.ones(b.size // b.shape[-1])]).T
    d, mags, big = len(monic) - 1, np.abs(monic), r * (1 + 2.0**-40)
    slope = horner(mags[1:] * np.arange(1, d + 1)[:, None], big)
    e0 = (4 * d + 4) * 2.0**-53 * horner(mags, big) + slope * r * 2.0**-40 + _TINY
    verdict = np.zeros(monic.shape[1], dtype=int)  # indices into (None, False, True)
    live, n = np.isfinite(e0).nonzero()[0], 360
    while live.size and n <= 360 << _ROUCHE_DOUBLINGS:
        e = e0 + slope * r * np.pi / n
        circle, step = r * np.exp(2j * np.pi * np.arange(n) / n), max(1, _PRODUCT_ENTRIES // n)
        for k in (live[lo : lo + step] for lo in range(0, len(live), step)):
            size = np.abs(p := horner(monic[:, k, None], circle))
            winding = np.rint(np.angle(np.roll(p, -1, axis=1) / p).sum(axis=1) / (2 * np.pi))
            proven = size.min(axis=1) - e[k] > np.maximum(r, e[k])
            refuted = (size + e0[k, None] <= r).any(axis=1)
            verdict[k] = np.where(refuted, 1, np.where(proven, 1 + (winding == d), 0))
        live, n = live[verdict[live] == 0], 2 * n
    return np.array([None, False, True])[verdict].reshape(b.shape[:-1])[()]


class AppendixReport(NamedTuple):
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
    Containment is checked on the first min(samples, 200) maps: by
    ``cauchy_proves`` at once, then by one ``check_disk_containment`` call on
    the maps it leaves open, if any; ``containment_proven`` counts both.  Raises
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

    proven = cauchy_proves(checked := coeffs[:containment_maps], rho)
    verdicts = [] if proven.all() else check_disk_containment(checked[~proven], rho).tolist()
    worst_idx = int(ratios.argmax())
    return AppendixReport(
        max_critical_point_ratio=float(ratios[worst_idx]),
        max_coefficient_ratio=float(coeff_ratios.max()),
        containment_maps=containment_maps,
        containment_failures=verdicts.count(False),
        containment_inconclusive=verdicts.count(None),
        containment_proven=int(proven.sum()) + verdicts.count(True),
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
    # Its (rows, d-1, d-1) factors are formed _PRODUCT_ENTRIES at a time, same bits.
    mean = np.zeros_like(cps)
    step = max(1, _PRODUCT_ENTRIES // (d - 1) ** 2)
    for lo in range(0, len(cps), step):
        c = cps[lo : lo + step]
        for t, w in _gauss_legendre((d + 1) // 2):
            mean[lo : lo + step] += w * np.multiply.reduce(t * c[:, :, None] - c[:, None], axis=-1)
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
