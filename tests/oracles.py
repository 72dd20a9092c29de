"""Independent oracles used by the tests.

The winding-number counter here deliberately uses a different crossing
direction (leftward horizontal rays) than the production word encoder
(upward vertical rays), so agreement between the two is a real check,
not a restatement.  Winding is clockwise-positive to match the encoder's
left-to-right = +1 sign rule.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import itertools
import math

import mpmath
import numpy as np

from rayforge import cli, config, polyexp, potentials, thurston, tracts
from rayforge.errors import (
    BranchSelectionError,
    DomainError,
    InvariantViolationError,
    NotConvergedError,
    OverflowSignal,
    SpecRejectionError,
    UnsupportedHomotopyError,
)
from rayforge.homotopy import MarkedSet, PolylineCurve
from rayforge.polyexp import PolyExpMap
from rayforge.potentials import ExternalAddress
from rayforge.tracts import TractConfig


class OracleDegenerate(Exception):
    pass


def _closed_polyline(marked: MarkedSet, curve: PolylineCurve) -> list[complex]:
    """Curve plus exit edge plus a return path that crosses no upward rays."""
    pts = list(curve.vertices)
    all_re = [w.real for w in marked.points] + [v.real for v in pts]
    all_im = [w.imag for w in marked.points] + [v.imag for v in pts]
    x_big = max(all_re) + 2.0
    y_low = min(all_im) - 2.0
    exit_y = pts[-1].imag
    start = pts[0]
    return pts + [
        complex(x_big, exit_y),
        complex(x_big, y_low),
        complex(start.real, y_low),
        start,
    ]


def winding_numbers(marked: MarkedSet, curve: PolylineCurve) -> list[int | None]:
    """Clockwise winding of the closed-up curve around each marked point,
    via signed crossings of leftward rays (up = +1).  The curve's base
    point lies on the closed curve, so its entry is None."""
    closed = _closed_polyline(marked, curve)
    base = curve.vertices[0]
    out: list[int | None] = []
    for w in marked.points:
        if w == base:
            out.append(None)
            continue
        total = 0
        for a, b in zip(closed, closed[1:]):
            ya = a.imag - w.imag
            yb = b.imag - w.imag
            if ya == 0.0 or yb == 0.0:
                raise OracleDegenerate("vertex on the leftward ray line")
            if (ya < 0) == (yb < 0):
                continue
            t = ya / (ya - yb)
            xstar = a.real + t * (b.real - a.real)
            if xstar == w.real:
                raise OracleDegenerate("crossing through the marked point")
            if xstar < w.real:
                total += 1 if yb > ya else -1
        out.append(total)
    return out


def abelianization(word: tuple[tuple[int, int], ...], size: int) -> tuple[int, ...]:
    """Net signed count of each generator in the word: its image in Z^size,
    which the winding numbers of a curve must match."""
    counts = [0] * size
    for idx, sign in word:
        counts[idx] += sign
    return tuple(counts)


def _point_segment_distance(p: complex, a: complex, b: complex) -> float:
    if a == b:
        return abs(p - a)
    t = ((p - a).real * (b - a).real + (p - a).imag * (b - a).imag) / abs(b - a) ** 2
    t = min(1.0, max(0.0, t))
    return abs(p - (a + t * (b - a)))


def _point_cutray_distance(p: complex, w: complex) -> float:
    """Distance from p to the upward vertical ray cast from w."""
    if p.imag >= w.imag:
        return abs(p.real - w.real)
    return abs(p - w)


def curve_clearance(marked: MarkedSet, curve: PolylineCurve) -> float:
    """Smallest distance whose perturbation could change the crossing word:
    segments to marked points (except the anchored start contact) and
    vertices to cut rays (except the start on its own ray)."""
    vs = list(curve.vertices)
    all_re = [w.real for w in marked.points] + [v.real for v in vs]
    x_big = max(all_re) + 2.0
    segs = list(zip(vs, vs[1:])) + [(vs[-1], complex(x_big, vs[-1].imag))]
    base = vs[0]
    best = math.inf
    for si, (a, b) in enumerate(segs):
        for w in marked.points:
            if si == 0 and w == base:
                continue
            best = min(best, _point_segment_distance(w, a, b))
    for vi, v in enumerate(vs):
        for w in marked.points:
            if vi == 0 and w == base:
                continue
            best = min(best, _point_cutray_distance(v, w))
    return best


def random_word_fixture(rng: np.random.Generator, max_points: int = 6,
                        max_vertices: int = 20):
    """Marked set + curve with distinct-x marked points and a safe start."""
    k = int(rng.integers(2, max_points + 1))
    pts = [
        complex(i + rng.uniform(0.1, 0.7), rng.uniform(-3.0, 3.0))
        for i in range(k)
    ]
    marked = MarkedSet(pts)
    base_idx = int(rng.integers(0, k))
    base = pts[base_idx]
    n_verts = int(rng.integers(2, max_vertices + 1))
    verts = [base]
    for _ in range(n_verts - 1):
        x = rng.uniform(-1.5, k + 1.5)
        y = rng.uniform(-4.5, 4.5)
        # keep off the marked x-coordinates so crossings stay transversal
        for w in pts:
            if abs(x - w.real) < 1e-3:
                x += 2e-3
        verts.append(complex(x, y))
    return marked, base_idx, PolylineCurve(verts)


# Reference strip certificate: the scalar sampling loops that the
# closed-form ``tracts.make_tract_config`` replaced, kept to check that it
# returns the same TractConfig (or raises OverflowSignal alike) on maps
# whose sampled and proven r agree.  It samples each strip edge at
# STRIP_EDGE_SAMPLES points.
STRIP_EDGE_SAMPLES = 720


def _edge_xs(t_from: float, t_to: float, samples: int) -> list[float]:
    span = t_to - t_from
    return [t_from + span * k / (samples - 1) for k in range(samples)]


def scalar_make_tract_config(
    map_: PolyExpMap, edge_samples: int = STRIP_EDGE_SAMPLES
) -> TractConfig:
    """Choose and certify (r, t_up, t_lo) for the strip inclusions, with the
    fuzz eps = pi/4d.

    r starts at 2*max|SV| + 2.  The strip checks use the coefficient
    moduli, so one pass certifies every strip index at once; |f'| >= 2
    is additionally sampled on the inner strips.  On a sampled
    violation the half-plane is pushed right and everything is retried,
    until the inner strip would start where f overflows: then
    OverflowSignal.
    """
    d = map_.d
    eps = math.pi / 4 / d
    sv = map_.singular_data()
    abs_coeffs = [abs(c) for c in map_.coeffs]
    r = 2 * sv.max_modulus() + 2
    # Hard domain floor: the half-plane right of every singular value is
    # free of branch points, so inverse branches are single-valued there.
    r_min = sv.max_real() + 1e-6
    sin_eps = math.sin(d * eps)

    while True:
        t_up = math.log(r + 1) / d - 1
        t_lo = math.log((r + 1) / sin_eps) / d + 1
        if not d * t_lo <= config.EXP_ARG_LIMIT:
            raise OverflowSignal("no radius within the float range proves the strips")

        # Beyond x_tail the leading term dominates every coefficient sum.
        x_tail = max(t_lo, t_up) + 1
        while x_tail * d < config.EXP_ARG_LIMIT:
            lead = math.exp(d * x_tail) * sin_eps
            low = sum(b * math.exp(k * x_tail) for k, b in enumerate(abs_coeffs))
            if lead > 2 * (low + r + 1):
                break
            x_tail += 1.0

        ok = True
        half = math.pi / (2 * d)

        # Outer-strip boundary: Re f <= r must hold there (worst case over
        # all strip indices via coefficient moduli).
        def upper_re(x: float, rel_y: float) -> float:
            lead = math.exp(d * x) * math.cos(d * rel_y)
            slack = sum(b * math.exp(k * x) for k, b in enumerate(abs_coeffs))
            return lead + slack

        for x in _edge_xs(t_up, x_tail, edge_samples):
            if upper_re(x, half + eps) > r:  # horizontal edges, cos < 0 there
                ok = False
                break
        if ok:
            ys = _edge_xs(-(half + eps), half + eps, edge_samples)
            if any(upper_re(t_up, y) > r for y in ys):
                ok = False

        # Inner strip: Re f > r on its boundary (hence inside, harmonicity),
        # worst case over strip indices.
        def lower_re(x: float, rel_y: float) -> float:
            lead = math.exp(d * x) * math.cos(d * rel_y)
            slack = sum(b * math.exp(k * x) for k, b in enumerate(abs_coeffs))
            return lead - slack

        if ok:
            for x in _edge_xs(t_lo, x_tail, edge_samples):
                if lower_re(x, half - eps) <= r:
                    ok = False
                    break
        if ok:
            ys = _edge_xs(-(half - eps), half - eps, edge_samples)
            if any(lower_re(t_lo, y) <= r for y in ys):
                ok = False

        # |f'| >= 2 sampled where the preimage of H_r lives: inner-strip
        # edges and a fringe of outer-strip points with Re f > r.
        if ok:
            for n in range(-2, 3):
                c = 2 * math.pi * n / d
                for x in _edge_xs(t_up, x_tail, 64):
                    for rel in (-half - eps, -half + eps, 0.0, half - eps, half + eps):
                        z = complex(x, c + rel)
                        try:
                            if map_(z).real > r and abs(map_.poly_derivative(cmath.exp(z)) * cmath.exp(z)) < 2:
                                ok = False
                                break
                        except OverflowSignal:
                            break
                    if not ok:
                        break
                if not ok:
                    break

        if ok:
            return TractConfig(d=d, r=r, r_min=r_min, t_up=t_up, t_lo=t_lo, eps=eps)
        r = 2 * r + 1


# Interval oracle for the strip certificate: every claim of a TractConfig,
# proven with outward-rounded interval arithmetic (mpmath.iv, 80 bits) on
# adaptive bisections of each edge, up to X = t_lo + 1, and beyond X by the
# leading term, which dominates from there on.


def _interval_proven(lo: float, hi: float, holds, depth: int = 40, budget: int = 4000) -> bool:
    """Whether holds(X) proves the claim on every piece of a bisection of
    [lo, hi] (pieces halved at most ``depth`` times, at most ``budget``
    evaluations).  lo and hi are floats or interval endpoints, exact at
    the working precision."""
    pieces = [(mpmath.mpf(lo), mpmath.mpf(hi), depth)]
    while pieces:
        a, b, k = pieces.pop()
        budget -= 1
        if budget < 0:
            return False
        if holds(mpmath.iv.mpf([a, b])):
            continue
        if k == 0:
            return False
        m = (a + b) / 2
        pieces += [(a, m, k - 1), (m, b, k - 1)]
    return True


def _exp_sum(cs, x):
    """Enclosure (low, high) of sum_k cs[k] e^{kx} over the interval x: the
    direct interval sum, narrowed by the mean-value form about its midpoint
    (whose excess shrinks with the square of the width)."""
    iv = mpmath.iv
    mid = iv.mpf(x.mid)
    direct = sum(c * iv.exp(k * x) for k, c in enumerate(cs))
    centered = sum(c * iv.exp(k * mid) for k, c in enumerate(cs)) + sum(
        k * c * iv.exp(k * x) for k, c in enumerate(cs)
    ) * (x - mid)
    return max(direct.a, centered.a), min(direct.b, centered.b)


def interval_tract_violations(map_: PolyExpMap, cfg: TractConfig) -> list[str]:
    """The claims of ``cfg`` that interval arithmetic cannot prove; empty
    when it proves them all.

    With B(x) = sum_k |b_k| e^{kx}, which bounds the lower terms of f on
    every strip and for every map with these coefficient moduli, and
    s = sin(d*eps), h = pi/2d:
    - outer left: e^{d t_up} cos(dy) + B(t_up) <= r for |y| <= h + eps;
    - outer horizontal: B(x) - s e^{dx} <= r for x >= t_up.  Beyond X,
      B(x) e^{-dx} falls, so s e^{dX} >= B(X) keeps the left side <= 0;
    - inner left: e^{d t_lo} cos(dy) - B(t_lo) > r for |y| <= h - eps;
    - inner horizontal: s e^{dx} - B(x) > r for x >= t_lo.  Beyond X it is
      e^{dx} (s - B(x) e^{-dx}) - r, whose factors grow once positive;
    - expanding: |f'| >= 2 wherever Re f > r, for x >= t_up (left of t_up
      Re f <= r, by the outer left claim at y = 0).  |f'| = |w p'(w)| is
      at least d e^{dx} - sum_k k|b_k| e^{kx}, which grows once positive
      (the tail), and where Re f > r it exceeds d r - sum_k (d-k)|b_k| e^{kx};
      the larger of the two must be >= 2.
    """
    iv = mpmath.iv
    precs = iv.prec, mpmath.mp.prec
    iv.prec = mpmath.mp.prec = 80
    try:
        d, r = cfg.d, iv.mpf(cfg.r)
        moduli = [iv.sqrt(iv.mpf(b.real) ** 2 + iv.mpf(b.imag) ** 2) for b in map_.coeffs]
        s = iv.sin(d * iv.mpf(cfg.eps))
        x_max = cfg.t_lo + 1
        x_top = iv.mpf(x_max)

        def low(x):
            return sum(b * iv.exp(k * x) for k, b in enumerate(moduli))

        def lead(x):
            return iv.exp(d * x)

        outer_edge = moduli + [-s]  # B(x) - s e^{dx}
        inner_edge = [-b for b in moduli] + [s]  # s e^{dx} - B(x)
        rising = [-k * b for k, b in enumerate(moduli)] + [iv.mpf(d)]
        falling = [d * r - d * moduli[0]] + [-(d - k) * b for k, b in enumerate(moduli)][1:]

        # On the left edges, at offset y from the strip center, write
        # |y| = pi/2d - v: then cos(dy) = sin(dv), with no cancellation
        # near the fuzz edge |y| = pi/2d - eps, which is v = eps.
        def outer_left(v):
            return (lead(cfg.t_up) * iv.sin(d * v) + low(cfg.t_up)).b <= r.a

        def inner_left(v):
            return (lead(cfg.t_lo) * iv.sin(d * v) - low(cfg.t_lo)).a > r.b

        def expanding(x):
            return max(_exp_sum(falling, x)[0], _exp_sum(rising, x)[0]) >= 2

        center = (iv.pi / (2 * d)).b  # v at y = 0, rounded up
        claims = {
            "outer left": _interval_proven(-cfg.eps, center, outer_left),
            "outer horizontal": _interval_proven(
                cfg.t_up, x_max, lambda x: _exp_sum(outer_edge, x)[1] <= r.a
            )
            and (s * lead(x_top) - low(x_top)).a >= 0,
            "inner left": _interval_proven(cfg.eps, center, inner_left),
            "inner horizontal": _interval_proven(
                cfg.t_lo, x_max, lambda x: _exp_sum(inner_edge, x)[0] > r.b
            )
            and (s - low(x_top) / lead(x_top)).a > 0,
            "expanding": _interval_proven(cfg.t_up, x_max, expanding)
            and _exp_sum(rising, x_top)[0] >= 2,
        }
    finally:
        iv.prec, mpmath.mp.prec = precs
    return [name for name, proven in claims.items() if not proven]


def plain_pullback(
    spec: thurston.TargetSpec,
    max_iter: int = config.CLASSIFY_MAX_ITER,
    tol: float = config.CLASSIFY_TOL,
) -> thurston.ClassifyResult:
    """Reference classifier: the plain fixed-point iteration z <- P(z), one
    ``thurston.pullback_step`` after another from the straight spider, with
    the stopping rule of ``thurston.classify`` and no mixing.  Its deltas
    are the contraction of the pullback operator itself."""
    map_, z = thurston.init_state(spec)
    deltas = []
    for _ in range(max_iter):
        map_, z, delta = thurston.pullback_step(spec, map_, z)
        deltas.append(delta)
        if delta < tol:
            certificate = thurston.verify(map_, spec)
            return thurston.ClassifyResult(map_, z, certificate, deltas, [])
    raise NotConvergedError(
        f"plain pullback did not converge in {max_iter} iterations", details=deltas
    )


def to_json(obj):
    """The reference JSON value of ``obj``, built as a tree for ``json.dumps``:
    a record (NamedTuple or dataclass) becomes its fields by name, a dict
    stays a dict, any other list, tuple or ndarray becomes a list, a complex
    number becomes {"re", "im"} and a non-finite float null; other values
    pass through.  ``serialize.dumps`` writes the same text in one walk,
    except that it writes a complex number's non-finite parts as null too.
    Tests use this to write map and address inputs, which are dataclasses."""
    if isinstance(obj, tuple) and hasattr(obj, "_fields"):  # a NamedTuple, before tuples
        return {name: to_json(value) for name, value in zip(obj._fields, obj)}
    if dataclasses.is_dataclass(obj):
        return {f.name: to_json(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {k: to_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [to_json(v) for v in obj]
    if isinstance(obj, complex):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def seeded_specs(n: int, seed: int, t_lo: float = 0.8) -> list:
    """n specs of degree 1 and 2 in turn, without J: potentials in [t_lo, 3],
    periodic addresses of period 1 or 2 over {-1, 0, 1}; addresses are
    redrawn until validate_spec accepts."""
    rng = np.random.default_rng(seed)
    specs = []
    for k in range(n):
        d = 1 + k % 2
        ts = [float(t) for t in rng.uniform(t_lo, 3.0, d)]
        while True:
            orbits = tuple(
                (t, ExternalAddress((), tuple(rng.integers(-1, 2, rng.integers(1, 3)).tolist())))
                for t in ts
            )
            spec = thurston.TargetSpec(d, orbits)
            try:
                thurston.validate_spec(spec)
                break
            except SpecRejectionError:
                pass
        specs.append(spec)
    return specs


def jittered_classify(
    spec: thurston.TargetSpec, radius: float, seed: int, **kwargs
) -> thurston.ClassifyResult:
    """``thurston.classify`` restarted off the straight spider: every grid
    entry moved by ``radius`` at the phases
    ``default_rng(seed).uniform(0, 2*pi)``, the map fitted to the moved
    first column.  If the fixed point is unique, the restart reaches the
    same map.  ``thurston.init_state`` is patched for this one call."""
    straight = thurston.init_state

    def jittered(spec: thurston.TargetSpec) -> tuple[PolyExpMap, np.ndarray]:
        _, z = straight(spec)
        phases = np.random.default_rng(seed).uniform(0, 2 * math.pi, z.shape)
        z = z + radius * np.exp(1j * phases)
        return thurston.fit_map(spec.d, [complex(v) for v in z[:, 0]]), z

    thurston.init_state = jittered
    try:
        return thurston.classify(spec, **kwargs)
    finally:
        thurston.init_state = straight


# The family's two exact symmetries (README, "Exact symmetries").  With
# omega = e^(2 pi i/d), tau(z) = z + 2 pi i/d conjugates f = p o exp to
# g(z) = p(omega e^z) - 2 pi i/d and moves strip n to strip n - 1, so the ray
# of g with address s - 1 is the ray of f with address s moved by -2 pi i/d.
# Complex conjugation takes the ray of address s to the conjugate ray of -s.


def shifted_map(map_: PolyExpMap) -> PolyExpMap:
    """tau^-1 o f o tau: coefficients b_0 - 2 pi i/d and b_k omega^k, k >= 1."""
    d = map_.d
    b0, *rest = map_.coeffs
    rotated = [b * cmath.rect(1.0, 2 * math.pi * k / d) for k, b in enumerate(rest, 1)]
    return PolyExpMap(d, [b0 - complex(0, 2 * math.pi / d)] + rotated)


def conjugate_map(map_: PolyExpMap) -> PolyExpMap:
    return PolyExpMap(map_.d, [b.conjugate() for b in map_.coeffs])


def shifted_address(address: ExternalAddress) -> ExternalAddress:
    """s - 1: every entry less 1."""
    return ExternalAddress([s - 1 for s in address.preperiod], [s - 1 for s in address.period])


def conjugate_address(address: ExternalAddress) -> ExternalAddress:
    """-s: every entry negated."""
    return ExternalAddress([-s for s in address.preperiod], [-s for s in address.period])


def spec_image(spec: thurston.TargetSpec, address_map) -> thurston.TargetSpec:
    """The spec with ``address_map`` applied to every orbit's address."""
    return thurston.TargetSpec(spec.d, tuple((t, address_map(a)) for t, a in spec.orbits), spec.J)


def scalar_pullback_grid(spec: thurston.TargetSpec, map_: PolyExpMap, z: np.ndarray) -> np.ndarray:
    """Reference pullback: the point-by-point loop that the batched
    ``thurston.pullback_step`` replaced, returning the pulled grid (no
    refit) or raising the first failure in grid order.

    The frozen level J*+1 is derived here from ``spec.towers`` and the
    addresses, not read from ``spec.tail``: where orbit i's tower reaches
    it, the seed is w = complex(step^(J*+1)(T_i), 2*pi*s_(J*+1)/d).  Beyond
    the float range w is pulled back to first order, z0 - b_{d-1}/(d*e^z0),
    from z0 = (log|w| + i*(arg w + 2*pi*s_J*))/d with log|w| = d*t +
    log1p(-e^(-d*t)) for t = step^J*(T_i), and arg w = 2*pi*s_(J*+1)/d
    times e^(-log|w|) below EXP_ARG_LIMIT, 0 above; to z0 alone where e^z0
    overflows."""
    d = spec.d
    cfg = tracts.make_tract_config(map_)
    depth = z.shape[1] - 1
    new = np.zeros_like(z)
    for i in range(spec.m):
        addr, tower = spec.address(i), spec.towers[i]
        for j in range(depth + 1):
            if j < depth:
                seed = complex(z[i, j + 1])
            elif len(tower) > depth + 1:
                seed = complex(tower[depth + 1], 2 * math.pi * addr.entry(depth + 1) / d)
            else:
                x = d * tower[depth]
                log_w = x + math.log1p(-math.exp(-x))
                v = 2 * math.pi * addr.entry(depth + 1) / d
                arg = v * math.exp(-log_w) if log_w < config.EXP_ARG_LIMIT else 0.0
                z0 = complex(log_w / d, arg / d + 2 * math.pi * addr.entry(depth) / d)
                if z0.real <= config.EXP_ARG_LIMIT:
                    z0 -= map_.coeffs[d - 1] / (d * cmath.exp(z0))
                new[i, j] = z0
                continue
            if seed.real <= cfg.r_min:
                raise InvariantViolationError(
                    f"grid point ({i},{j + 1}) fell left of the singular "
                    f"values (Re {seed.real:.3g} <= {cfg.r_min:.3g}); "
                    "marked points escaped the admissible region"
                )
            try:
                new[i, j] = tracts.inverse_branch(map_, cfg, addr.entry(j), seed)
            except BranchSelectionError as exc:
                raise UnsupportedHomotopyError(
                    f"pullback of grid point ({i},{j}) found no branch in its "
                    "strip; the configuration would need nontrivial leg words, "
                    "which the strip-indexed shadow does not support"
                ) from exc
    return new


# The three Horner loops that ``polyexp.horner`` replaced, kept verbatim as
# bit-for-bit references: the monic p of ``PolyExpMap.poly``, its derivative
# p', and the modulus sums of ``tracts.make_tract_config``.


def horner_monic(coeffs, w):
    """Monic p(w) with b_0..b_{d-1} in ``coeffs``: scalars, or (n, 1) columns
    of n polynomials that broadcast against an (n, m) array w."""
    value = complex(1.0)
    for b in reversed(coeffs):
        value = value * w + b
    return value


def horner_derivative(map_: PolyExpMap, w):
    """p'(w) of the monic p of ``map_``."""
    value = complex(map_.d)
    for k in range(map_.d - 1, 0, -1):
        value = value * w + k * map_.coeffs[k]
    return value


def horner_moduli(cs, u):
    """sum_k cs[k] u^k by Horner's rule; it overflows to inf, never raises."""
    value = cs[-1]
    for c in reversed(cs[:-1]):
        value = value * u + c
    return value


def sampled_disk_containment(map_: PolyExpMap, r: float) -> bool | None:
    """Reference sampled containment check: a root solve of p(z) = w on
    360 points of |w| = r.  True when every root lies inside |z| < r, None
    when the solve stalls on any point."""
    samples = 360
    angles = 2 * np.pi * np.arange(samples) / samples
    circle = np.exp(1j * angles)
    roots, stalled = polyexp.poly_roots_batch(map_, r * circle)
    if stalled:
        return None
    return bool(np.all(np.abs(roots) < r))


def _row(d: int, rng) -> np.ndarray:
    """One sample's 4d uniforms, drawn from ``rng`` as ``appendix_report``
    draws each row of its block: 2d-1 for the polynomial of the
    critical-point ratio, 2d-1 for the map's polynomial, 2 for its b_0."""
    return rng.random((1, 4 * d))


def sample_poly_with_critical_values_in(d: int, rho: float, rng) -> PolyExpMap:
    """The polynomial of one row drawn from ``rng``: the monic p with
    p(0) = 0 whose critical points are the sampler's c / a, so that its
    critical values lie in the rho-disk; p' = d prod (w - c / a) is expanded
    by ``np.poly`` and integrated by ``np.polyint``."""
    cps, a, _, _ = polyexp._sample(d, rho, _row(d, rng))
    descending = np.polyint(d * np.poly(cps[0] / a[0]))
    return PolyExpMap(d, descending[:0:-1])


def exp_maps(rho: float, block: np.ndarray) -> np.ndarray:
    """The d = 1 maps exp(z) + rho u e^(2 pi i v) of an (n, 4) uniform block,
    (u, v) the last two uniforms of a row, as an (n, 1) coefficient array."""
    return rho * (block[:, -2] * np.exp(2j * np.pi * block[:, -1]))[:, None]


def sample_map_with_singular_values_in(d: int, rho: float, rng) -> PolyExpMap:
    """The map of one row drawn from ``rng``: a random map whose singular
    values are scaled into the rho-disk (``exp_maps`` at d = 1, where the
    asymptotic value is the only one)."""
    row = _row(d, rng)
    return PolyExpMap(d, exp_maps(rho, row)[0] if d == 1 else polyexp._sample(d, rho, row)[3][0])


def sample_stream(d: int, seed: int, k: int) -> np.random.Generator:
    """A generator whose next row is row k of the block that
    ``appendix_report`` draws for ``seed``: each uniform takes one 64-bit
    step of the seed's PCG64 stream."""
    return np.random.Generator(np.random.PCG64(seed).advance(4 * d * k))


def critical_point_ratio(map_: PolyExpMap, rho: float) -> float:
    """max |critical point| / rho^(1/d), the critical points from
    ``polyexp.critical_points`` (closed forms at d = 2 and 3, ``np.roots``
    above); 0 for d = 1."""
    cps = polyexp.critical_points(map_)
    return max(map(abs, cps), default=0.0) / rho ** (1.0 / map_.d)


def coefficient_ratio(map_: PolyExpMap, rho: float) -> float:
    """max over k of |b_k| / rho^((d-k)/d)."""
    return max(abs(b) / rho ** ((map_.d - k) / map_.d) for k, b in enumerate(map_.coeffs))


@functools.cache
def _critical_point_ratio_of_sample(d: int, seed: int, k: int) -> float:
    return critical_point_ratio_50_digits(d, sample_stream(d, seed, k))


def appendix_report_per_sample(
    d: int, rho: float, samples: int, seed: int, containment_maps: int
) -> polyexp.AppendixReport:
    """Reference ``polyexp.appendix_report`` built one sample at a time:
    sample k draws its polynomial and its map from its own row, which a
    generator advanced to it gives, and is measured on its own; the
    critical-point ratio is the 50-digit one of the same row, cached per
    (d, seed, k) since it does not depend on rho.  Containment is proven
    map by map where Cauchy's radius is below rho, by the same inequality
    as ``polyexp.cauchy_proves`` summed term by term in Python floats, and
    decided by a one-map ``polyexp.check_disk_containment`` call where it
    fails."""
    ratios, coeffs, contains = [], [], []
    proven = 0
    for idx in range(samples):
        ratios.append(_critical_point_ratio_of_sample(d, seed, idx))
        map_ = sample_map_with_singular_values_in(d, rho, sample_stream(d, seed, idx))
        coeffs.append(coefficient_ratio(map_, rho))
        if idx >= containment_maps:
            continue
        x = 1.0 / rho
        terms = [abs(b) * x ** (d - k) for k, b in enumerate(map_.coeffs)]
        if (sum(terms) + x ** (d - 1)) * config.ROUNDING < 1:
            proven += 1
        else:
            contains.append(polyexp.check_disk_containment(map_.coeffs, rho))
    worst_idx = int(np.argmax(ratios))
    return polyexp.AppendixReport(
        max_critical_point_ratio=float(max(ratios)),
        max_coefficient_ratio=float(max(coeffs)),
        containment_maps=containment_maps,
        containment_failures=contains.count(False),
        containment_inconclusive=contains.count(None),
        containment_proven=proven + contains.count(True),
        worst_case={"sample_index": worst_idx, "ratio": float(ratios[worst_idx])},
    )


def check_monotone(segment, map_: PolyExpMap, n_iterates: int) -> tuple[int, int, dict]:
    """(onset, horizon, violations) of a ray segment: the smallest N with
    Re f^n strictly increasing along the samples for all testable n >= N,
    the last iterate tested (an overflow cuts the range short), and the
    count of non-increasing steps per iterate that has any."""
    zs = [p.z for p in segment]
    violations: dict[int, int] = {}
    horizon = 0
    for n in range(n_iterates + 1):
        res = [z.real for z in zs]
        bad = sum(1 for a, b in zip(res, res[1:]) if b <= a)
        if bad:
            violations[n] = bad
        horizon = n
        try:
            zs = [map_(z) for z in zs]
        except OverflowSignal:
            break
    return max(violations, default=-1) + 1, horizon, violations


def critical_point_ratio_50_digits(d: int, rng: np.random.Generator) -> float:
    """max |critical point| / rho^(1/d) of the polynomial that
    ``sample_poly_with_critical_values_in`` draws from ``rng``, recomputed
    at 50 digits from the double critical points and target uniform of the
    same row.

    The sampler rescales p, whose critical points c_k the row gives, by a =
    (peak / (rho t))^(1/d), peak = max |p(c_k)|, t = 0.3 + 0.7 u; the ratio
    max |c_k| / a / rho^(1/d) = max |c_k| (t / peak)^(1/d) does not depend
    on rho."""
    row = _row(d, rng)
    doubles = polyexp._sample(d, 1.0, row)[0][0]
    with mpmath.workdps(50):
        peak = max(abs(v) for v in critical_values_50_digits(d, doubles))
        if peak == 0:
            return 0.0
        t = mpmath.mpf(0.3 + 0.7 * row[0, 2 * d - 2])
        top = max(abs(mpmath.mpc(complex(c))) for c in doubles)
        return float(top * (t / peak) ** (mpmath.mpf(1) / d))


def critical_values_50_digits(d: int, cps) -> list:
    """p(c_k) at 50 digits for the monic p with p(0) = 0 whose critical
    points are the doubles ``cps``: p is the integral of d prod (w - c_k)."""
    with mpmath.workdps(50):
        cs = [mpmath.mpc(complex(c)) for c in cps]
        e = [mpmath.mpc(1)]  # prod (w - c_k), highest power first
        for c in cs:
            e = [a - c * b for a, b in zip(e + [0], [0] + e)]
        # p(w) = sum_m d e_m w^(d-m) / (d-m)
        return [sum(d * e[m] * c ** (d - m) / (d - m) for m in range(d)) for c in cs]


def scalar_inverse_branch(map_: PolyExpMap, cfg: TractConfig, n: int, w: complex) -> complex:
    """Reference inverse branch: the row-by-row rule of the array pass of
    ``tracts.inverse_branches``, for a complex seed.  At d >= 3 a seed with
    Re w > r first takes ``scalar_newton_branch``.  Otherwise, or where that
    gives no root, the roots of p = w are sorted by (re, im); each nonzero
    root's ``cmath.log`` is lifted by the multiple of 2*pi*i nearest strip
    n; the first nearest lift wins, and f (``PolyExpMap.__call__``) is
    checked there."""
    w = complex(w)
    if w.real <= cfg.r_min:
        raise DomainError(
            f"seed {w} is not right of the singular values (Re <= {cfg.r_min:.3g})"
        )
    if map_.d >= 3 and w.real > cfg.r:
        z = scalar_newton_branch(map_, cfg, n, w)
        if z is not None:
            return z
    (roots,), stalled = polyexp.poly_roots_batch(map_, np.array([w]))
    if stalled:
        raise stalled[0]
    center = cfg.strip_center(n)
    best, candidates = None, []
    for zeta in sorted((complex(r) for r in roots), key=lambda c: (c.real, c.imag)):
        if zeta == 0:
            continue
        base = cmath.log(zeta)
        k = round((center - base.imag) / (2 * math.pi))
        z = complex(base.real, base.imag + 2 * math.pi * k)
        candidates.append(z)
        if best is None or abs(z.imag - center) < best[0]:
            best = (abs(z.imag - center), z)
    if best is None or best[0] > cfg.strip_half_width() + cfg.eps:
        raise BranchSelectionError(f"no root of p = w lands in strip {n} for w={w}", candidates)
    z = best[1]
    residual = abs(map_(z) - w)
    # p(zeta) rounds at the scale of its terms, so they bound the residual too.
    u = abs(cmath.exp(z))
    terms = sum(abs(b) * u**k for k, b in enumerate(map_.coeffs)) + u**map_.d
    if residual > config.RESIDUAL_RTOL * max(1.0, abs(w), terms):
        raise BranchSelectionError(
            f"branch residual {residual:.3e} too large for w={w}", candidates
        )
    return z


def scalar_newton_branch(map_: PolyExpMap, cfg: TractConfig, n: int, w: complex) -> complex | None:
    """Newton's method in z for p(e^z) = w from (Log w + 2*pi*i*n)/d, one
    row, one step at a time, with the logarithmic step log(p/w) / (zeta p'/p).
    It stops after a step of at most 4e-16 (1 + |z|), and before a step that
    is not finite, or that does not shrink once it is under ROOT_ITER_RTOL
    (1 + |z|).  The root, when it stopped within ROOT_MAX_ITER steps, lies
    in strip n (``tract_index``, pi/2d + eps) and passes the residual check;
    else None.  Each step is taken on a one-entry numpy array, whose complex
    kernels round as the array pass's do (Python's complex arithmetic
    differs in the last bit: it divides where numpy multiplies by a
    reciprocal)."""
    z = (np.log(np.array([w])) + 2j * math.pi * n) / map_.d
    last = math.inf
    for _ in range(config.ROOT_MAX_ITER):
        with np.errstate(all="ignore"):
            zeta = np.exp(z)
            pv = horner_monic(map_.coeffs, zeta)
            step = np.log(pv / w) * pv / (horner_derivative(map_, zeta) * zeta)
        size, scale = abs(complex(step[0])), 1.0 + abs(complex(z[0]))
        if not math.isfinite(size) or (size >= last and size <= config.ROOT_ITER_RTOL * scale):
            break
        z = z - step
        if size <= 4e-16 * scale:
            break
        last = size
    else:
        return None
    z = complex(z[0])
    strip, offset = tracts.tract_index(z, cfg)
    if strip != n or abs(offset) > cfg.strip_half_width() + cfg.eps:
        return None
    try:
        residual = abs(map_(z) - w)
    except OverflowSignal:
        return None
    u = abs(cmath.exp(z))
    terms = sum(abs(b) * u**k for k, b in enumerate(map_.coeffs)) + u**map_.d
    return z if residual <= config.RESIDUAL_RTOL * max(1.0, abs(w), terms) else None


def branch_digits(map_: PolyExpMap, n: int, w) -> mpmath.mpc:
    """The preimage of w under f in strip n at mpmath's working precision:
    the roots of p = w by ``mpmath.polyroots``, each root's log lifted by
    the multiple of 2*pi*i nearest strip n, and the lift nearest the
    strip's center."""
    d, w = map_.d, mpmath.mpc(w)
    two_pi = 2 * mpmath.pi
    center = two_pi * n / d
    high_to_low = [1] + [mpmath.mpc(c) for c in reversed(map_.coeffs)]
    high_to_low[-1] -= w
    # Solve for zeta / scale, whose roots are of order one.
    scale = max(1, abs(w)) ** (mpmath.mpf(1) / d)
    scaled = [a / scale**j for j, a in enumerate(high_to_low)]
    lifts = []
    for u in mpmath.polyroots(scaled, maxsteps=200, extraprec=100):
        base = mpmath.log(u * scale)
        lifts.append(base + 1j * two_pi * mpmath.nint((center - base.imag) / two_pi))
    return min(lifts, key=lambda c: abs(c.imag - center))


def ray_point_50_digits(map_: PolyExpMap, address, t: float, depth: int) -> mpmath.mpc:
    """The ray point of ``address`` at potential t, at 50 digits: the
    straight seed step^depth(t) + 2*pi*i*s_depth/d pulled back through the
    branches s_{depth-1}, ..., s_0 (``branch_digits``), as the tracer does.
    The seed's own error, about exp(-step^depth(t)/2), is below 1e-40 for
    the depths ``rays.trace_segment`` uses."""
    d = map_.d
    with mpmath.workdps(50):
        speed = mpmath.mpf(t)
        for _ in range(depth):
            speed = mpmath.expm1(d * speed)
        z = mpmath.mpc(speed, 2 * mpmath.pi * address.entry(depth) / d)
        for level in range(depth - 1, -1, -1):
            z = branch_digits(map_, address.entry(level), z)
        return z


def ladder_threshold_by_search(
    orbits, d: int, depth: int, checks=("gaps", "pairs", "midpoints")
) -> potentials.PotentialLadder:
    """Reference ``potentials.build_ladder``: the same rungs and midpoints,
    and t_prime found by re-running the sampled separation checks for each
    candidate threshold 0, then every rung upward, until one passes (inf
    when none does).  ``checks`` names the checks run, all three by
    default; leaving one out shows whether it decides t_prime."""
    same = potentials.same_potential
    merged: list[float] = []
    for t0, _ in orbits:
        merged.extend(potentials.chain(d, t0, max_len=depth + 1))
    merged.sort()
    rungs: list[float] = []
    for t in merged:
        if not rungs or not same(rungs[-1], t):
            rungs.append(t)
    midpoints = tuple((rungs[i] + rungs[i + 1]) / 2 for i in range(len(rungs) - 1))

    # (potential, |position|, tract index, orbit, level) per marked point.
    sample_pts = []
    for i, (t0, addr) in enumerate(orbits):
        values = potentials.chain(d, t0, max_len=depth + config.LADDER_EXTRA_DEPTH + 1)
        for j, tj in enumerate(values):
            s = addr.entry(j)
            p = potentials.straight_point(d, tj, s)
            sample_pts.append((tj, math.hypot(p.real, p.imag), s, i, j))
    sample_pots: list[float] = []
    for t in sorted(p[0] for p in sample_pts):
        if not sample_pots or not same(sample_pots[-1], t):
            sample_pots.append(t)

    def conditions_hold(threshold: float) -> bool:
        above = [t for t in sample_pots if t > threshold]
        for a, b in zip(above, above[1:]):
            if "gaps" in checks and b - a <= 2:
                return False
        pts_above = sorted(p for p in sample_pts if p[0] > threshold)
        for (ta, pa, *_), (tb, pb, *_) in itertools.combinations(pts_above, 2):
            if "pairs" in checks and not same(ta, tb) and not pb > pa + 2:
                return False
        for rho in midpoints:
            if "midpoints" not in checks or rho <= threshold:
                continue
            for t, pos, *_ in sample_pts:
                if t < rho and not pos < rho - 1:
                    return False
                if t > rho and not pos > rho + 1:
                    return False
        return True

    t_prime = math.inf
    for candidate in [0.0] + rungs:
        if conditions_hold(candidate):
            t_prime = candidate
            break
    return potentials.PotentialLadder(tuple(rungs), midpoints, t_prime)


def main_through_full_tree(argv: list[str]) -> int:
    """``cli.main`` with argv parsed by the full parser tree (root, group and
    leaf levels), as argparse parses it without the leaf lookup."""
    leaf_first = cli._parse
    cli._parse = lambda args: cli.build_parser()[0].parse_args(args)
    try:
        return cli.main(argv)
    finally:
        cli._parse = leaf_first
