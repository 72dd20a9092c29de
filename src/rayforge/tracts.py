"""Strip geometry of f = p o exp and the inverse branches into each strip.

Far to the right, the preimage of a right half-plane H_r under f splits
into countably many components, one per integer n, squeezed between two
horizontal strips around the center line Im z = 2*pi*n/d:

    outer:  [t_up, oo) x [center - pi/2d - eps, center + pi/2d + eps]
    inner:  [t_lo, oo) x [center - pi/2d + eps, center + pi/2d - eps]

``make_tract_config`` certifies the bounds by boundary sampling (Re f is
harmonic, so edge minima control the interiors) plus analytic tails, and
retries with a larger r on failure.  The certified guarantees hold on
H_r; between the singular-value floor ``r_min`` and ``r`` the inverse
branches are still well-defined single-valued continuations and are served
best-effort, which is what ray tracing at small potentials needs.

``inverse_branches`` serves a whole batch of (strip, seed) rows with one
root solve and one numpy pass over the rows.  Batched solves and branches
are row-independent: every row is bitwise equal to its one-row call, so
batch size never changes output bytes.
"""

from __future__ import annotations

import cmath
import math
import sys
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
    RootSolveError,
    TractConfigError,
)


_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_LOG_CAP = math.log(config.CAP)


@dataclass(frozen=True)
class LogPolar:
    """A complex value exp(log_abs + i*arg), for magnitudes beyond floats.

    The inverse branches serve it to first order only, which is exact in
    double precision far out, and reject it with a DomainError at or below
    log(config.CAP); pass representable seeds as complex.
    """

    log_abs: float
    arg: float = 0.0


@dataclass(frozen=True)
class TractConfig:
    """Certified strip bounds for one map.

    ``r``: right half-plane on which the branch guarantees (residuals,
    1/2-contraction) were sampled; ``r_min``: hard domain floor just right
    of the singular values; ``t_up``/``t_lo``: left edges of the outer and
    inner strips; ``eps``: fuzz half-width.
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


def make_tract_config(
    map_: polyexp.PolyExpMap,
    eps: float | None = None,
) -> TractConfig:
    """Choose and certify (r, t_up, t_lo) for the strip inclusions.

    r starts at max(R_FLOOR, 2*max|SV| + 2).  The strip checks use the
    coefficient moduli, so one pass certifies every strip index at once;
    |f'| >= 2 is additionally sampled on the inner strips.  On a sampled
    violation the half-plane is pushed right and everything is retried,
    up to ``config.TRACT_RETRY_BUDGET`` tries.
    """
    d = map_.d
    if eps is None:
        eps = config.strip_epsilon(d)
    if not 0 < eps < math.pi / (2 * d):
        raise DomainError(f"eps must lie in (0, pi/2d), got {eps}")
    sv = map_.singular_data()
    abs_coeffs = [abs(c) for c in map_.coeffs]
    r = max(config.R_FLOOR, 2 * sv.max_modulus() + 2)
    # Hard domain floor: the half-plane right of every singular value is
    # free of branch points, so inverse branches are single-valued there.
    r_min = sv.max_real() + 1e-6
    sin_eps = math.sin(d * eps)
    half = math.pi / (2 * d)

    def edge(
        t_from: float, t_to: float, samples: int = config.STRIP_EDGE_SAMPLES
    ) -> np.ndarray:
        return t_from + (t_to - t_from) * np.arange(samples) / (samples - 1)

    def re_bound(x, rel_y, sign: int) -> np.ndarray:
        """Re f at height rel_y off a strip center, worst case over strip
        indices: the leading term plus (sign=1) or minus (sign=-1) the
        coefficient-moduli slack."""
        lead = np.exp(d * x) * np.cos(d * rel_y)
        return lead + sign * sum(b * np.exp(k * x) for k, b in enumerate(abs_coeffs))

    def expanding(r: float, t_up: float, x_tail: float) -> bool:
        """|f'| >= 2 sampled where the preimage of H_r lives: inner-strip
        edges and a fringe of outer-strip points with Re f > r, on strips
        -2..2 by 64 abscissae by five heights.  Where f overflows, or f'
        does with Re f > r, the remaining heights at that abscissa are
        skipped, as the point-by-point scan stopped there."""
        heights = (-half - eps, -half + eps, 0.0, half - eps, half + eps)
        ys = 2 * math.pi * np.arange(-2, 3)[:, None] / d + np.array(heights)
        z = edge(t_up, x_tail, 64)[None, :, None] + 1j * ys[:, None, :]
        w = np.exp(z)
        value = map_.poly(w)
        slope = map_.poly_derivative(w) * w
        big = d * z.real > config.EXP_ARG_LIMIT
        hot = ~big & np.isfinite(value) & (value.real > r)
        broken = big | ~np.isfinite(value) | (hot & ~np.isfinite(slope))
        skipped = np.logical_or.accumulate(broken, axis=2)
        return not np.any(hot & ~skipped & (np.abs(slope) < 2))

    for _ in range(config.TRACT_RETRY_BUDGET):
        t_up = math.log(r + 1) / d - 1
        t_lo = math.log((r + 1) / sin_eps) / d + 1

        # Beyond x_tail the leading term dominates every coefficient sum.
        x_tail = max(t_lo, t_up) + 1
        while x_tail * d < config.EXP_ARG_LIMIT:
            lead = math.exp(d * x_tail) * sin_eps
            low = sum(b * math.exp(k * x_tail) for k, b in enumerate(abs_coeffs))
            if lead > 2 * (low + r + 1):
                break
            x_tail += 1.0
        if d * x_tail > _LOG_FLOAT_MAX:
            raise OverflowSignal(
                f"strip samples up to Re z = {x_tail:.6g} leave the float range"
            )

        with np.errstate(all="ignore"):
            ok = (
                # Outer-strip boundary: Re f <= r there (the horizontal
                # edges have cos < 0).
                not np.any(re_bound(edge(t_up, x_tail), half + eps, 1) > r)
                and not np.any(re_bound(t_up, edge(-(half + eps), half + eps), 1) > r)
                # Inner strip: Re f > r on its boundary, hence inside
                # (harmonicity).
                and not np.any(re_bound(edge(t_lo, x_tail), half - eps, -1) <= r)
                and not np.any(re_bound(t_lo, edge(-(half - eps), half - eps), -1) <= r)
                and expanding(r, t_up, x_tail)
            )
        if ok:
            return TractConfig(d=d, r=r, r_min=r_min, t_up=t_up, t_lo=t_lo, eps=eps)
        r = 2 * r + 1

    raise TractConfigError(
        f"could not certify strip bounds within budget (last r={r})"
    )


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
    ws: Sequence[complex | LogPolar] | np.ndarray,
) -> tuple[np.ndarray, dict[int, RayforgeError]]:
    """The preimages of ws[k] under f lying in strips ns[k], from one root
    solve and one array pass over all rows.

    ``ws`` is a complex array, or a sequence that may also hold LogPolar
    seeds.  Returns the preimages as a complex array, NaN on failed rows,
    and the errors of the failed rows by row index: row k's is the error
    that the one-row call ``inverse_branch(map_, cfg, ns[k], ws[k])``
    raises (DomainError, RootSolveError, BranchSelectionError,
    OverflowSignal), returned rather than raised so that callers report
    the first failure in their own order.  A non-finite complex seed is a
    DomainError row and is never solved.  Rows are solved independently,
    so no row's value or error depends on the batch.
    """
    polar = {}
    if not isinstance(ws, np.ndarray):
        polar = {k: w for k, w in enumerate(ws) if isinstance(w, LogPolar)}
        ws = [math.nan if k in polar else w for k, w in enumerate(ws)]
    seeds = np.asarray(ws, dtype=complex)
    ns = np.asarray(ns)
    z = np.full(len(seeds), complex(math.nan, math.nan))
    errors: dict[int, RayforgeError] = {}
    for k, w in polar.items():
        if w.log_abs <= _LOG_CAP:
            errors[k] = DomainError(
                f"log-polar seed with log magnitude {w.log_abs} is within "
                "the float range; pass it as a complex number"
            )
        else:
            z[k] = _asymptotic_branch(map_, int(ns[k]), w)
    # LogPolar rows hold NaN here; every other non-finite seed is refused.
    non_finite = ~np.isfinite(seeds)
    for k in non_finite.nonzero()[0].tolist():
        if k not in polar:
            errors[k] = DomainError(f"seed {complex(seeds[k])} is not finite")
    left = seeds.real <= cfg.r_min
    for k in left.nonzero()[0].tolist():
        errors[k] = DomainError(
            f"seed {complex(seeds[k])} is not right of the singular values "
            f"(Re <= {cfg.r_min:.3g})"
        )
    rows = (~(left | non_finite)).nonzero()[0]
    if rows.size:
        roots, stalled = _solve_rows(map_, seeds[rows])
        z[rows], failed = _select_branches(map_, cfg, ns[rows], seeds[rows], roots)
        failed.update(stalled)
        errors.update((int(rows[k]), exc) for k, exc in failed.items())
    return z, errors


def _solve_rows(map_: polyexp.PolyExpMap, ws: np.ndarray) -> tuple[np.ndarray, dict]:
    """Roots of p = w per row, and the RootSolveError of each row whose
    solve stalled (its roots are NaN)."""
    try:
        return polyexp.poly_roots_batch(map_, ws), {}
    except RootSolveError as exc:
        if len(ws) == 1:
            return np.full((1, map_.d), complex(math.nan, math.nan)), {0: exc}
    # Rows are solved independently: one-row solves pin the failure on the
    # rows that stalled, with the message each one raises alone.
    solved = [_solve_rows(map_, ws[k : k + 1]) for k in range(len(ws))]
    roots = np.concatenate([r for r, _ in solved])
    return roots, {k: e[0] for k, (_, e) in enumerate(solved) if e}


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
    w: complex | LogPolar,
) -> complex:
    """The preimage of w under f lying in strip n.

    Solves p(zeta) = w, then lifts log(zeta) by the unique multiple of
    2*pi*i that lands in strip n.  For seeds given in LogPolar form, which
    must lie beyond log(config.CAP), the root is expanded to first order in
    the coefficients (the corrections underflow exactly when they should).
    """
    z, errors = inverse_branches(map_, cfg, (n,), (w,))
    if errors:
        raise errors[0]
    return complex(z[0])


def _asymptotic_branch(
    map_: polyexp.PolyExpMap, n: int, w: LogPolar
) -> complex:
    """First-order branch for seeds beyond the float range.

    zeta = w^(1/d) * (1 - b_{d-1}/(d*zeta) + ...); only the leading
    correction survives double precision, and it underflows to zero for
    truly enormous seeds.
    """
    d = map_.d
    z0 = complex(w.log_abs / d, w.arg / d + 2 * math.pi * n / d)
    if w.log_abs / d > config.EXP_ARG_LIMIT:
        corr = 0.0
    else:
        eta = cmath.exp(complex(z0.real, w.arg / d))
        corr = -map_.coeffs[d - 1] / (d * eta)
    return z0 + corr
