"""Strip geometry of f = p o exp and the inverse branches into each strip.

Far to the right, the preimage of a right half-plane H_r under f splits
into countably many components, one per integer n, squeezed between two
horizontal strips around the center line Im z = 2*pi*n/d:

    outer:  [t_up, oo) x [center - pi/2d - eps, center + pi/2d + eps]
    inner:  [t_lo, oo) x [center - pi/2d + eps, center + pi/2d - eps]

``make_tract_config`` proves the bounds on the strip edges (Re f is
harmonic, so edge extrema control the interiors) and |f'| >= 2 on H_r in
closed form: each check is a polynomial inequality in u = e^x on a whole
half-line, settled by Descartes' rule of signs, and a failed check retries
with a larger r.  The proven guarantees hold on H_r; between the
singular-value floor ``r_min`` and ``r`` the inverse branches are still
well-defined single-valued continuations and are served best-effort, which
is what ray tracing at small potentials needs.

The inverse branches read only the strip geometry (``d``, ``eps``,
``r_min``); the proven fields gate whether a map is served at all.  A
certificate costs tens of microseconds, so every map certifies alone.

``inverse_branches`` serves a whole batch of (strip, seed) rows with one
root solve and one numpy pass over the rows.  Batched solves and branches
are row-independent: every row is bitwise equal to its one-row call, so
batch size never changes output bytes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import config, polyexp
from .errors import (
    AmbiguousTractError,
    BranchSelectionError,
    DomainError,
    OverflowSignal,
    RayforgeError,
    TractConfigError,
)


@dataclass(frozen=True)
class TractConfig:
    """Certified strip bounds for one map.

    ``r``: right half-plane on which the branch guarantees (the strip
    inclusions and |f'| >= 2) were proven; ``r_min``: hard domain floor
    just right of the singular values; ``t_up``/``t_lo``: left edges of
    the outer and inner strips; ``eps``: fuzz half-width.
    """

    d: int
    r: float
    r_min: float
    t_up: float
    t_lo: float
    eps: float

    def strip_center(self, n: int) -> float:
        return 2 * math.pi * n / self.d

    def strip_half_width(self) -> float:
        return math.pi / (2 * self.d)


def make_tract_config(map_: polyexp.PolyExpMap, eps: float | None = None) -> TractConfig:
    """Choose (r, t_up, t_lo) and prove the strip inclusions.

    r starts at 2*max|SV| + 2 and is pushed right (r ->
    2r + 1) until every check holds, up to ``config.TRACT_RETRY_BUDGET``
    tries, with t_up = log(r + 1)/d - 1 and t_lo = log((r + 1)/s)/d + 1.
    At offset y from the center of any strip, f(x + iy) is e^{dx} e^{idy}
    plus terms bounded by B(u) = sum_k |b_k| u^k, u = e^x, so with
    s = sin(d*eps) each claim is a closed form, proven on a whole
    half-line:

    - outer left edge: Re f is largest at y = 0, so the check is
      e^{d t_up} + B(e^{t_up}) <= r.
    - outer horizontal edges, y = +-(pi/2d + eps): g(u) = B(u) - s u^d
      <= r for u >= e^{t_up}.  The left-edge check covers u = e^{t_up};
      beyond, the only maximum is at the one positive root u_g of g'
      (one sign change: Descartes), where g = sum_k (d-k)/d |b_k| u_g^k.
    - |f'| >= 2 wherever Re f > r: there |f'| = |w p'(w)| exceeds
      d r - sum_k (d-k)|b_k| u^k, which falls with u, and is at least
      d u^d - sum_k k|b_k| u^k, which stays >= 2 from the u* where it
      reaches 2.  So the first bound is checked at u*.
    - inner edges, y = +-(pi/2d - eps) for x >= t_lo and x = t_lo: the
      outer checks imply them, so they cost nothing.  Re f exceeds
      s u^d - B(u) on both, and s u^d - B(u) - r has one sign change, so
      the claim is s l^d - B(l) > r at l = e^{t_lo} = e v, where
      s v^d = r + 1.  B(e v) <= e^{d-1} B(v) and, v being right of
      e^{t_up}, B(v) <= r + s v^d = 2r + 1; so s l^d - B(l) >=
      e^{d-1} ((e - 2) r + e - 1) > r for d >= 2, and for d = 1,
      B = |b_0| < r/2.

    ``_positive_root`` gives u_g and u* to rounding, or bounds them from
    above, the safe side; ``config.ROUNDING`` covers the rounding of the sums.
    Every comparison fails on NaN or inf.  OverflowSignal is raised when
    the strips lie past the float range: a singular value is not finite,
    or the inner strip would start where f overflows, d*t_lo >
    EXP_ARG_LIMIT.
    """
    d = map_.d
    if eps is None:
        eps = config.strip_epsilon(d)
    if not 0 < eps < math.pi / (2 * d):
        raise DomainError(f"eps must lie in (0, pi/2d), got {eps}")
    sv = map_.singular_data()
    if not all(cmath.isfinite(v) for v in sv.all):
        raise OverflowSignal("singular values leave the float range")
    moduli = [abs(b) for b in map_.coeffs]
    falling = [(d - k) * b for k, b in enumerate(moduli)]
    rising = [k * b for k, b in enumerate(moduli)][1:]
    s = math.sin(d * eps)
    u_g = _positive_root(d * s, rising)
    u_star = _positive_root(d, [2.0] + rising)
    r = 2 * sv.max_modulus() + 2
    for _ in range(config.TRACT_RETRY_BUDGET):
        t_up = math.log(r + 1) / d - 1
        t_lo = math.log((r + 1) / s) / d + 1
        if not d * t_lo <= config.EXP_ARG_LIMIT:
            raise OverflowSignal(
                f"the inner strip starts at Re z = {t_lo:.6g}, where f leaves the float range"
            )
        up = math.exp(t_up)
        if (
            (math.exp(d * t_up) + polyexp.horner(moduli, up)) * config.ROUNDING <= r
            and (u_g <= up or polyexp.horner(falling, u_g) * config.ROUNDING <= d * r)
            and polyexp.horner(falling, u_star) * config.ROUNDING <= d * r - 2
        ):
            return TractConfig(d=d, r=r, r_min=sv.max_real() + 1e-6, t_up=t_up, t_lo=t_lo, eps=eps)
        r = 2 * r + 1

    raise TractConfigError(
        f"could not certify strip bounds within budget (last r={r})"
    )


def _positive_root(a: float, cs: Sequence[float]) -> float:
    """The one positive root of a u^n = sum_k cs[k] u^k (n = len(cs), a > 0,
    cs[k] >= 0), to rounding; 0 when every cs[k] is 0.

    n <= 2 is closed-form, without cancellation or a squared term that
    could overflow or underflow.  Above, the root lies in [M, 2M] with
    M = max_k (cs[k]/a)^(1/(n-k)), and right of it a u^n - sum_k cs[k] u^k
    is increasing and convex, so Newton's method from 2M decreases onto
    the root without passing it.  Where a step overflows, the last iterate
    is returned: an upper bound on the root, the safe side for
    ``make_tract_config``.  NaN or inf pass through.
    """
    n = len(cs)
    if not any(cs):
        return 0.0
    if n == 1:
        return cs[0] / a
    if n == 2:
        half = cs[1] / (2 * a)
        return half + math.hypot(half, math.sqrt(cs[0]) / math.sqrt(a))
    poly = [-c for c in cs] + [a]
    slope = [k * c for k, c in enumerate(poly)][1:]
    u = 2 * max(c ** (1 / (n - k)) / a ** (1 / (n - k)) for k, c in enumerate(cs))
    while True:
        gain = polyexp.horner(slope, u)
        if not gain > 0:
            return u
        nxt = u - polyexp.horner(poly, u) / gain
        if not 0 < nxt < u:
            return u
        u = nxt


def tract_index(z: complex, cfg: TractConfig) -> int:
    """Index of the strip containing z.

    Certified for Re z >= t_lo; points with Re z >= t_up are read
    best-effort.  Angular distance up to pi/2d from a center resolves to
    that strip; within the eps-fuzz beyond it the call raises
    AmbiguousTractError carrying both flanking candidates.
    """
    z = complex(z)
    if z.real < cfg.t_up:
        raise DomainError(
            f"point {z} lies left of the strip region (Re < {cfg.t_up:.3g})"
        )
    # A point midway between two centers lies pi/d > pi/2d + eps from both,
    # so the rounding of a tie never changes the outcome.
    n = round(z.imag * cfg.d / (2 * math.pi))
    center = cfg.strip_center(n)
    dist = abs(z.imag - center)
    half = cfg.strip_half_width()
    if dist <= half:
        return n
    if dist <= half + cfg.eps:
        side = 1 if z.imag > center else -1
        raise AmbiguousTractError(z, (n, n + side))
    raise DomainError(f"point {z} lies between strips (offset {dist:.3g})")


def inverse_branches(
    map_: polyexp.PolyExpMap,
    cfg: TractConfig,
    ns: Sequence[int],
    ws: Sequence[complex] | np.ndarray,
) -> tuple[np.ndarray, dict[int, RayforgeError]]:
    """The preimages of the complex seeds ws[k] under f lying in strips
    ns[k], from one root solve and one array pass over all rows.

    Returns the preimages as a complex array, NaN on failed rows,
    and the errors of the failed rows by row index: row k's is the error
    that the one-row call ``inverse_branch(map_, cfg, ns[k], ws[k])``
    raises (DomainError, RootSolveError, BranchSelectionError,
    OverflowSignal), returned rather than raised so that callers report
    the first failure in their own order.  A non-finite complex seed is a
    DomainError row and is never solved; a stalled root solve's row keeps
    the error ``polyexp.poly_roots_batch`` returns for it.  Rows are solved
    independently, so no row's value or error depends on the batch.
    """
    seeds = np.asarray(ws, dtype=complex)
    ns = np.asarray(ns)
    z = np.full(len(seeds), complex(math.nan, math.nan))
    errors: dict[int, RayforgeError] = {}
    non_finite = ~np.isfinite(seeds)
    for k in non_finite.nonzero()[0].tolist():
        errors[k] = DomainError(f"seed {complex(seeds[k])} is not finite")
    left = seeds.real <= cfg.r_min
    for k in left.nonzero()[0].tolist():
        errors[k] = DomainError(
            f"seed {complex(seeds[k])} is not right of the singular values "
            f"(Re <= {cfg.r_min:.3g})"
        )
    rows = (~(left | non_finite)).nonzero()[0]
    if rows.size:
        roots, stalled = polyexp.poly_roots_batch(map_, seeds[rows])
        z[rows], failed = _select_branches(map_, cfg, ns[rows], seeds[rows], roots)
        failed.update(stalled)
        errors.update((int(rows[k]), exc) for k, exc in failed.items())
    return z, errors


@np.errstate(all="ignore")
def _select_branches(
    map_: polyexp.PolyExpMap,
    cfg: TractConfig,
    ns: np.ndarray,
    ws: np.ndarray,
    roots: np.ndarray,
) -> tuple[np.ndarray, dict[int, RayforgeError]]:
    """Per row, lift log(zeta) of the root closest to strip ns[k] by the
    multiple of 2*pi*i that lands there, and check the residual of f at the
    result; the preimages (NaN on failed rows) and the errors by row.

    Ties go to the first root in (re, im) order, and a zero root is never a
    candidate.  The log is numpy's, whose real part can differ from
    ``cmath.log`` in the last bit; its imaginary part, and so the strip a
    root lifts to, is the same.
    """
    d = map_.d
    rows = np.arange(len(ws))
    roots = np.sort(roots, axis=1)  # by (re, im)
    center = (2 * math.pi * ns / d)[:, None]
    base = np.log(roots)
    lifted = base + 2j * math.pi * np.rint((center - base.imag) / (2 * math.pi))
    dist = np.abs(lifted.imag - center)
    dist[roots == 0] = np.inf
    best = dist.argmin(axis=1)
    z = lifted[rows, best]
    far = dist[rows, best] > cfg.strip_half_width() + cfg.eps
    # f(z) as PolyExpMap.__call__ evaluates it, for all rows at once; an
    # overflow of exp or of p leaves the residual non-finite.
    big = d * z.real > config.EXP_ARG_LIMIT
    fz = map_.poly(np.exp(z))
    diff = fz - ws
    gap = np.hypot(diff.real, diff.imag)
    tight = gap <= config.INVERSE_RESIDUAL_RTOL * np.maximum(1.0, np.hypot(ws.real, ws.imag))
    errors: dict[int, RayforgeError] = {}
    for k in (far | big | ~tight).nonzero()[0].tolist():
        w, at = complex(ws[k]), complex(z[k])
        candidates = [complex(c) for c, r in zip(lifted[k], roots[k]) if r != 0]
        if far[k]:
            errors[k] = BranchSelectionError(
                f"no root of p = w lands in strip {ns[k]} for w={w}", candidates
            )
        elif big[k] or not cmath.isfinite(fz[k]):
            part = "exp" if big[k] else "polynomial"
            errors[k] = OverflowSignal(f"{part} overflow evaluating map at {at}")
        else:
            errors[k] = BranchSelectionError(
                f"branch residual {gap[k]:.3e} too large for w={w}", candidates
            )
        z[k] = complex(math.nan, math.nan)
    return z, errors


def inverse_branch(
    map_: polyexp.PolyExpMap,
    cfg: TractConfig,
    n: int,
    w: complex,
) -> complex:
    """The preimage of the complex seed w under f lying in strip n.

    Solves p(zeta) = w, then lifts log(zeta) by the unique multiple of
    2*pi*i that lands in strip n.
    """
    z, errors = inverse_branches(map_, cfg, (n,), (w,))
    if errors:
        raise errors[0]
    return complex(z[0])

