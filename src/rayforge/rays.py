"""Dynamic-ray tracing by backward iteration.

A ray point at potential t with address (s_0 s_1 ...) is the limit of

    L_{s_0} o L_{s_1} o ... o L_{s_{n-1}} ( step^n(t) + 2*pi*i*s_n/d )

as the depth n grows, where L_k is the inverse branch into strip k.  The
seed error decays like exp(-step^n(t)/2), so the deepest representable
seed is already far below double resolution for any moderate potential;
the tracer certifies convergence by comparing two consecutive depths.
It returns plain ray points, each carrying the error estimate that was
tested against the fixed bound config.TRACER_TOL max(1, |z|).
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from . import config, potentials, tracts
from .errors import (
    BranchSelectionError,
    DomainError,
    NotConvergedError,
    NotEscapingError,
    OverflowSignal,
)
from .polyexp import PolyExpMap
from .potentials import ExternalAddress


class RayPoint(NamedTuple):
    z: complex
    t: float
    depth_used: int
    error_estimate: float


def _pull_chains(
    map_: PolyExpMap,
    cfg: tracts.TractConfig,
    address: ExternalAddress,
    seed_ts: np.ndarray,
    depths: np.ndarray,
) -> tuple[np.ndarray, dict]:
    """Apply the inverse branches s_{depth-1}, ..., s_0 to the straight seed
    at potential seed_ts[c] of every chain c, of depth depths[c].

    All chains pull through the same level in one batched call, the deepest
    level first; a chain joins at its own depth and leaves at its first
    failure; once every chain has failed, no level is pulled.  Returns the
    chains' points, and the error that stopped each failed chain by chain
    index.
    """
    strips = np.array(address.entries(int(depths.max(initial=0)) + 1))
    z = potentials.straight_point(map_.d, seed_ts, strips[depths])
    errors: dict = {}
    live = np.ones(len(z), dtype=bool)
    for level in range(len(strips) - 2, -1, -1):
        if not live.any():
            break
        rows = np.flatnonzero(live & (depths > level))
        z[rows], failed = tracts.inverse_branches(
            map_, cfg, np.full(len(rows), strips[level]), z[rows]
        )
        for k, exc in failed.items():
            errors[int(rows[k])] = exc
            live[rows[k]] = False
    return z, errors


def trace_ray(
    map_: PolyExpMap,
    cfg: tracts.TractConfig,
    address: ExternalAddress,
    t: float,
) -> RayPoint:
    """Locate the ray point with the given address and potential t > 0:
    the one-sample segment at t."""
    return trace_segment(map_, cfg, address, t, t, 1)[0]


def trace_segment(
    map_: PolyExpMap,
    cfg: tracts.TractConfig,
    address: ExternalAddress,
    t_lo: float,
    t_hi: float,
    n_samples: int,
) -> tuple[RayPoint, ...]:
    """Trace the ray at geometrically spaced potentials in [t_lo, t_hi],
    and return its points in order of strictly increasing potential.

    A sample at potential t uses depth n, the largest with step^n(t) at
    most the float-range limit config.CAP (``potentials.chain``).  t_lo
    has the deepest chain, so it alone is measured against the work bound
    first: n_samples x (depth + 1) pull levels above
    config.MAX_TRACE_LEVELS, or a chain that stalls inside the float range
    (as step(1, t) = t does at t = 1e-300), raise DomainError before any
    other chain is built.  The consecutive-depth increment measures the
    depth-(n-1) error; scaled by the tail-decay ratio it bounds the
    returned point's error.  That bound, raised to the floor |z| 1e-16, is
    the sample's error estimate: the number tested against
    config.TRACER_TOL max(1, |z|) and the number returned.  Depth 0 happens
    only where step(t) leaves the float range: the straight point is then
    exact in double precision, and its error is the floor like any other
    sample's.  The depth-n and depth-(n-1) chains of all samples are pulled
    together; the first failing sample, depth n before depth n-1, raises
    its error, or NotConvergedError where neither chain failed.  A chain
    point left of the singular values, where no single-valued branch
    exists, raises BranchSelectionError.
    """
    if not 0 < t_lo <= t_hi < math.inf:
        raise DomainError("need finite 0 < t_lo <= t_hi")
    if n_samples < 1:
        raise DomainError("need at least one sample")
    deepest = potentials.chain(map_.d, t_lo, max_len=config.MAX_TRACE_LEVELS // n_samples + 1)
    if n_samples * len(deepest) > config.MAX_TRACE_LEVELS:
        raise DomainError(
            f"{n_samples} samples x at least {len(deepest)} pull levels at t_lo={t_lo!r} "
            f"pass the trace work bound config.MAX_TRACE_LEVELS = {config.MAX_TRACE_LEVELS}"
        )
    if n_samples == 1:
        ts = [t_lo]
    else:
        ratio = (t_hi / t_lo) ** (1.0 / (n_samples - 1))
        ts = [t_lo * ratio**k for k in range(n_samples)]
        ts[-1] = t_hi
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise DomainError("segment potentials must strictly increase")
    speeds = [deepest] + [potentials.chain(map_.d, t, max_len=len(deepest)) for t in ts[1:]]
    depths = [len(values) - 1 for values in speeds]
    depths += [max(n - 1, 0) for n in depths]
    # Chain s pulls sample s from speed step^n(t) through n levels, chain
    # S + s from step^(n-1)(t) through n - 1; a depth-0 sample pulls its
    # straight point twice through no level, so its increment is 0.
    S = len(ts)
    seed_ts = np.array([speeds[c % S][n] for c, n in enumerate(depths)])
    z, errors = _pull_chains(map_, cfg, address, seed_ts, np.array(depths))
    z, z_prev = z[:S], z[S:]
    with np.errstate(all="ignore"):
        gap = z - z_prev
        increment = np.hypot(gap.real, gap.imag)
        size = np.hypot(z.real, z.imag)
        # The increment measures the depth-(n-1) error; the depth-n error is
        # the increment shrunk by the seed-tail ratio
        # exp(-(step^n - step^(n-1))/2), evaluated in log space because the
        # deepest seed dwarfs the float range.
        log_err = np.log(increment) + (seed_ts[S:] - seed_ts[:S]) / 2
        err = np.maximum(np.where(log_err > -700, np.exp(log_err), 0.0), size * 1e-16)
    failed = err > config.TRACER_TOL * np.maximum(1.0, size)
    failed[[c % S for c in errors]] = True
    if failed.any():
        s = int(failed.argmax())
        for c in (s, S + s):
            if isinstance(errors.get(c), DomainError):
                raise BranchSelectionError(
                    f"no single-valued branch for the ray at potential {ts[s]!r}: "
                    f"its pull-chain {errors[c]}"
                ) from errors[c]
            if c in errors:
                raise errors[c]
        raise NotConvergedError(
            f"the float range allows only depth {depths[s]} at potential {ts[s]!r} "
            f"(the next speed passes config.CAP): increment {increment[s]:.3e}, "
            f"error estimate {err[s]:.3e} > config.TRACER_TOL max(1, |z|) = "
            f"{config.TRACER_TOL * max(1.0, size[s]):.3e}",
            details=(complex(z_prev[s]), complex(z[s])),
        )
    samples = zip(z.tolist(), ts, depths[:S], err.tolist())
    return tuple(RayPoint(*sample) for sample in samples)


class Extraction(NamedTuple):
    t: float
    prefix: tuple[int, ...]
    residual: float
    start: int  # orbit index of prefix[0] (0 unless the point itself
    #            sits left of the strip region)


def extract_potential_address(
    map_: PolyExpMap,
    cfg: tracts.TractConfig,
    z: complex,
) -> Extraction:
    """Recover (potential, address prefix) from a point's forward orbit.

    The orbit is iterated forward, at most 64 steps, until the next
    evaluation would overflow (which certifies right escape); the potential
    is pulled back from the deepest iterate, whose *real* part stays
    well-conditioned.  Strip indices, by contrast, are only readable while
    the accumulated angle error (amplified by |f'| = |p'(e^z) e^z| per
    step) stays below the fuzz eps, so the prefix stops at that precision
    horizon.  ``tracts.tract_index`` reads each iterate and the read is
    judged here.  Leading iterates left of t_up or between strips are
    skipped (``start``).  A bounded orbit, a later iterate off the strips,
    or an iterate in the fuzz (ambiguous strip) raises NotEscapingError
    with the orbit attached.
    """
    orbit = [complex(z)]
    overflowed = False
    for _ in range(64):
        try:
            orbit.append(map_(orbit[-1]))
        except OverflowSignal:
            overflowed = True
            break
    if not overflowed:
        raise NotEscapingError(
            "orbit did not certify escape within 64 steps", orbit
        )
    horizon = math.log(cfg.eps)
    log_err = math.log(max(abs(orbit[0]), 1.0) * 1e-16)
    half = cfg.strip_half_width()
    prefix: list[int] = []
    start = 0
    for k, zk in enumerate(orbit):
        if k > 0:
            w = cmath.exp(orbit[k - 1])
            slope = map_.poly_derivative(w) * w
            if not cmath.isfinite(slope):
                raise OverflowSignal(f"derivative overflow at {orbit[k - 1]}")
            log_err += math.log(abs(slope)) if slope else -math.inf
        if log_err > horizon:
            break
        n, offset = tracts.tract_index(zk, cfg)
        n, dist, right = int(n), abs(offset), zk.real >= cfg.t_up
        if right and dist <= half:
            prefix.append(n)
        elif right and dist <= half + cfg.eps:
            pair = (n, n + 1 if offset > 0 else n - 1)
            note = f"has no readable strip: tract index of {zk} is ambiguous between {pair}"
            raise NotEscapingError(f"iterate {k} {note}", orbit)
        elif prefix:
            where = (
                f"between strips (offset {dist:.3g})" if right
                else f"left of the strip region (Re < {cfg.t_up:.3g})"
            )
            raise NotEscapingError(f"iterate {k} left the strip region: point {zk} lies {where}", orbit)
        else:
            start = k + 1  # leading iterates left of the strips or between them
    if not prefix:
        raise NotEscapingError(
            "no orbit iterate was readable inside the strips", orbit
        )
    # Potential from the deepest iterate: invert the speed step down the chain.
    deepest = len(orbit) - 1
    u = orbit[deepest].real
    for _ in range(deepest):
        u = potentials.inverse_step(map_.d, u)
    k = start + len(prefix) - 1
    level = potentials.chain(map_.d, u, max_len=k + 1)[k]
    straight = potentials.straight_point(map_.d, level, prefix[-1])
    residual = abs(orbit[k] - straight)
    return Extraction(u, tuple(prefix), residual, start)

