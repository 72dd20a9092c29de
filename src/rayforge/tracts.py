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
with a larger r.  The certificate depends on the map alone (eps = pi/4d),
and its loop needs no budget: r at least doubles on each try, so within
about a thousand tries the inner strip passes the float range, which
raises OverflowSignal.  The proven guarantees hold on H_r; between the
singular-value floor ``r_min`` and ``r`` the inverse branches are still
well-defined single-valued continuations and are served best-effort, which
is what ray tracing at small potentials needs.

The inverse branches read the strip geometry (``d``, ``eps``, ``r_min``)
and, at d >= 3, ``r``: r picks a row's path below, and so its last bits,
never its preimage, unique right of r.  The proven fields gate whether a
map is served.  A certificate costs tens of microseconds, so every map
certifies alone.
``tract_index`` is the one reader of the strips, for the inverse branches
and for the forward read (``rays.extract_potential_address``) alike.

``inverse_branches`` serves a whole batch of (strip, seed) rows in numpy
passes over the rows, and a row takes one of three paths:

- certified, d >= 3 and Re w > r: the certificate puts exactly one
  preimage in strip n, so Newton's method finds it there, from the
  leading-term guess (Log w + 2 pi i n)/d, with no root solve;
- at d = 1: the one root of p = w is w - b_0, right of 0, and its log
  lifts into strip n by 2 pi i n, with no choice among roots;
- every other row, and a certified row whose Newton root fails a check:
  all d roots of p = w (``polyexp.poly_roots_batch``), the log of each
  lifted toward strip n, and the lift nearest the strip's center.

Every path ends in the same strip, overflow and residual checks.  Batched
solves and branches are row-independent: every row is bitwise equal to its
one-row call, so batch size never changes output bytes.  The passes run
under one np.errstate, and a batch in which no row fails builds no error
object: errors are made only for the rows that fail.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple, Sequence

import numpy as np

from . import config, polyexp
from .errors import (
    BranchSelectionError,
    DomainError,
    OverflowSignal,
    RayforgeError,
)


class TractConfig(NamedTuple):
    """Certified strip bounds for one map.

    ``r``: right half-plane on which the branch guarantees (the strip
    inclusions and |f'| >= 2) were proven; ``r_min``: hard domain floor
    just right of the singular values; ``t_up``/``t_lo``: left edges of
    the outer and inner strips; ``eps``: fuzz half-width, pi/4d.
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


def make_tract_config(map_: polyexp.PolyExpMap) -> TractConfig:
    """Choose (r, t_up, t_lo) and prove the strip inclusions, with the fuzz
    eps = pi/4d.

    r starts at 2*max|SV| + 2 and is pushed right (r -> 2r + 1) until every
    check holds, with t_up = log(r + 1)/d - 1 and t_lo = log((r + 1)/s)/d + 1.
    The loop needs no budget: r at least doubles on each try, so after at
    most about 1,010 tries d*t_lo, which exceeds log r, passes
    EXP_ARG_LIMIT, and OverflowSignal says that no radius within the float
    range proves the strips.
    At offset y from the center of any strip, f(x + iy) is e^{dx} e^{idy}
    plus terms bounded by B(u) = sum_k |b_k| u^k, u = e^x, so with
    s = sin(d*eps) = sin(pi/4) each claim is a closed form, proven on a
    whole half-line:

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
    Every comparison fails on NaN or inf.  The factor covers d <=
    ``config.MAX_DEGREE``; above, DomainError.  OverflowSignal is raised when
    the strips lie past the float range: a singular value is not finite, a
    coefficient's modulus or the first radius overflows, or the inner strip
    would start where f overflows, d*t_lo > EXP_ARG_LIMIT.
    """
    d = map_.d
    if d > config.MAX_DEGREE:
        raise DomainError(
            f"tract certificate needs d <= config.MAX_DEGREE = {config.MAX_DEGREE}, got d = {d}"
        )
    eps = math.pi / 4 / d
    sv = map_.singular_data()
    values = (sv.asymptotic_value, *sv.critical_values)
    if not all(cmath.isfinite(v) for v in values):
        raise OverflowSignal("singular values leave the float range")
    try:
        moduli = [abs(b) for b in map_.coeffs]
    except OverflowError as exc:
        raise OverflowSignal("a coefficient's modulus leaves the float range") from exc
    falling = [(d - k) * b for k, b in enumerate(moduli)]
    rising = [k * b for k, b in enumerate(moduli)][1:]
    s = math.sin(d * eps)
    u_g = _positive_root(d * s, rising)
    u_star = _positive_root(d, [2.0] + rising)
    r = 2 * (largest := sv.max_modulus()) + 2
    if r == math.inf:
        raise OverflowSignal(
            "no radius within the float range proves the strips: the largest singular-value "
            f"modulus is {largest:.6g}, so the first radius 2*max|v| + 2 overflows"
        )
    while True:
        t_up = math.log(r + 1) / d - 1
        t_lo = math.log((r + 1) / s) / d + 1
        if not d * t_lo <= config.EXP_ARG_LIMIT:
            raise OverflowSignal(
                f"no radius within the float range proves the strips: at r = {r:.6g} the "
                f"inner strip starts at Re z = {t_lo:.6g}, where f leaves the float range"
            )
        up = math.exp(t_up)
        if (
            (math.exp(d * t_up) + polyexp.horner(moduli, up)) * config.ROUNDING <= r
            and (u_g <= up or polyexp.horner(falling, u_g) * config.ROUNDING <= d * r)
            and polyexp.horner(falling, u_star) * config.ROUNDING <= d * r - 2
        ):
            r_min = max(v.real for v in values) + 1e-6
            return TractConfig(d=d, r=r, r_min=r_min, t_up=t_up, t_lo=t_lo, eps=eps)
        r = 2 * r + 1


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


def tract_index(z, cfg: TractConfig):
    """The nearest strip n = rint(Im z d/2pi) of a complex scalar or array
    z, and the signed offset Im z - 2 pi n/d; it raises nothing.

    The callers judge: |offset| <= pi/2d is strip n (certified for Re z >=
    t_lo, best-effort for Re z >= t_up), the next eps is the fuzz between n
    and n +- 1, and beyond lies between strips.  A tie, midway between two
    centers, is pi/d > pi/2d + eps from both, so its rounding never matters.
    """
    y = np.imag(z)
    n = np.rint(y * cfg.d / (2 * math.pi))
    return n, y - cfg.strip_center(n)


@np.errstate(all="ignore")
def inverse_branches(
    map_: polyexp.PolyExpMap,
    cfg: TractConfig,
    ns: Sequence[int],
    ws: Sequence[complex] | np.ndarray,
) -> tuple[np.ndarray, dict[int, RayforgeError]]:
    """The preimages of the complex seeds ws[k] under f lying in strips
    ns[k], from array passes over all rows: Newton's method for the
    certified rows at d >= 3 (``_newton_roots``), then one root solve
    and one choice for the rest (``_select_branches``).

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
    left = seeds.real <= cfg.r_min  # -inf too; a NaN real part compares False
    bad = left | ~np.isfinite(seeds)
    rows = (~bad).nonzero()[0]
    errors: dict[int, RayforgeError] = {}
    if rows.size < len(seeds):
        not_right = f"is not right of the singular values (Re <= {cfg.r_min:.3g})"
        errors = {
            k: DomainError(f"seed {complex(seeds[k])} {not_right if left[k] else 'is not finite'}")
            for k in bad.nonzero()[0].tolist()
        }
    if map_.d >= 3:
        certified = rows[seeds[rows].real > cfg.r]
        n_c, w_c = ns[certified], seeds[certified]
        z_c = _newton_roots(map_, n_c, w_c)
        near = _strip_distance(z_c, n_c, cfg) <= cfg.strip_half_width() + cfg.eps
        big, _, _, tight = _residuals(map_, w_c, z_c)
        z[certified] = np.where(near & ~big & tight, z_c, complex(math.nan, math.nan))
        rows = rows[np.isnan(z[rows])]
    if rows.size:
        if rows.size < len(seeds):
            ns, seeds = ns[rows], seeds[rows]
        roots, stalled = polyexp.poly_roots_batch(map_, seeds)
        z[rows], failed = _select_branches(map_, cfg, ns, seeds, roots)
        if failed or stalled:
            failed.update(stalled)
            errors.update((int(rows[k]), exc) for k, exc in failed.items())
    return z, errors


def _newton_roots(map_: polyexp.PolyExpMap, ns: np.ndarray, ws: np.ndarray) -> np.ndarray:
    """Per row, Newton's method in z for p(e^z) = w from (Log w + 2 pi i n)/d,
    in logarithmic form: the step log(p/w) / (zeta p'/p) is near z - root
    wherever p(e^z) ~ e^{dz}, so it converges in fewer steps, and from
    farther, than the step (p - w) / (zeta p').  NaN on the rows that do
    not converge.

    A row stops on its own: after a step under 4e-16 (1 + |z|), about two
    ulp, and before a step that is not finite, or that does not
    shrink once it is under ROOT_ITER_RTOL (1 + |z|), where rounding has set
    in (farther out, Newton's steps may grow before they converge).  A row
    still moving after ROOT_MAX_ITER steps has not converged.
    """
    z = (np.log(ws) + 2j * math.pi * ns) / map_.d
    last = np.full(len(z), np.inf)
    live = np.ones(len(z), dtype=bool)
    for _ in range(config.ROOT_MAX_ITER):
        zeta = np.exp(z)
        fz = map_.poly(zeta)
        step = np.log(fz / ws) * fz / (map_.poly_derivative(zeta) * zeta)
        size, scale = np.abs(step), 1.0 + np.abs(z)
        moved = live & (size < np.where(size > config.ROOT_ITER_RTOL * scale, np.inf, last))
        z = np.where(moved, z - step, z)
        live = moved & (size > 4e-16 * scale)
        if not live.any():
            break
        last = size
    return np.where(live, complex(math.nan, math.nan), z)


def _strip_distance(z, ns, cfg: TractConfig):
    """|Im z - 2 pi n/d| where ``tract_index`` reads z in strip n = ns[k],
    and inf where it reads another strip."""
    strip, offset = tract_index(z, cfg)
    dist = np.abs(offset)
    dist[strip != ns] = np.inf  # NaN rows too
    return dist


def _residuals(map_: polyexp.PolyExpMap, ws: np.ndarray, z: np.ndarray) -> tuple:
    """Whether f overflows exp at each z; f(z) as PolyExpMap.__call__
    evaluates it, for all rows at once; |f(z) - w|; and whether that passes
    ``config.RESIDUAL_RTOL`` at ``polyexp.residual_scale``.  An overflow of
    exp or of p leaves the residual non-finite, so it never passes."""
    big = map_.d * z.real > config.EXP_ARG_LIMIT
    fz = map_.poly(zeta := np.exp(z))
    diff = fz - ws
    gap = np.hypot(diff.real, diff.imag)
    return big, fz, gap, gap <= config.RESIDUAL_RTOL * polyexp.residual_scale(map_, zeta, ws)


def _select_branches(
    map_: polyexp.PolyExpMap,
    cfg: TractConfig,
    ns: np.ndarray,
    ws: np.ndarray,
    roots: np.ndarray,
) -> tuple[np.ndarray, dict[int, RayforgeError]]:
    """Per row, lift log(zeta) of each root toward strip ns[k], keep the lift
    that ``tract_index`` reads in strip ns[k] nearest its center, and check
    f there; the preimages (NaN on failed rows) and the errors by row.

    Ties go to the first root in (re, im) order, and a zero root is never a
    candidate.  The log is numpy's, whose real part can differ from
    ``cmath.log`` in the last bit; its imaginary part, and so the strip a
    root lifts to, is the same.  At d = 1 the one root w - b_0 has Re > 0
    (Re w > r_min = Re b_0 + 1e-6), so its log lies in |Im| < pi/2 and the
    lift into strip n adds 2 pi i n: no sort, lift or choice.
    """
    rows = np.arange(len(ws))
    if map_.d == 1:
        z = np.log(roots[:, 0]) + 2j * math.pi * ns
        lifted = z[:, None]
        dist = _strip_distance(z, ns, cfg)
    else:
        roots = np.sort(roots, axis=1)  # by (re, im)
        center = cfg.strip_center(ns)[:, None]
        base = np.log(roots)
        lifted = base + 2j * math.pi * np.rint((center - base.imag) / (2 * math.pi))
        dists = _strip_distance(lifted, ns[:, None], cfg)
        dists[roots == 0] = np.inf
        best = dists.argmin(axis=1)
        z, dist = lifted[rows, best], dists[rows, best]
    far = dist > cfg.strip_half_width() + cfg.eps
    big, fz, gap, tight = _residuals(map_, ws, z)
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
    """The preimage of the complex seed w under f lying in strip n: the
    one-row call of ``inverse_branches``, raising its error."""
    z, errors = inverse_branches(map_, cfg, (n,), (w,))
    if errors:
        raise errors[0]
    return complex(z[0])

