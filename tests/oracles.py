"""Independent oracles used by the tests.

The winding-number counter here deliberately uses a different crossing
direction (leftward horizontal rays) than the production word encoder
(upward vertical rays), so agreement between the two is a real check,
not a restatement.  Winding is clockwise-positive to match the encoder's
left-to-right = +1 sign rule.
"""

from __future__ import annotations

import cmath
import math

import mpmath
import numpy as np

from rayforge import config, polyexp, thurston, tracts
from rayforge.errors import (
    BranchSelectionError,
    DomainError,
    InvariantViolationError,
    NotConvergedError,
    OverflowSignal,
    RootSolveError,
    TractConfigError,
    UnsupportedHomotopyError,
)
from rayforge.homotopy import MarkedSet, PolylineCurve
from rayforge.polyexp import ContainmentReport, PolyExpMap
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


# Reference strip certificate: the scalar sampling loops that the numpy
# ``tracts.make_tract_config`` replaced, kept to check that it returns the
# same TractConfig (or raises the same TractConfigError) on every map.


def _edge_xs(t_from: float, t_to: float, samples: int) -> list[float]:
    span = t_to - t_from
    return [t_from + span * k / (samples - 1) for k in range(samples)]


def scalar_make_tract_config(
    map_: PolyExpMap,
    eps: float | None = None,
    r_floor: float = config.R_FLOOR,
    edge_samples: int = config.STRIP_EDGE_SAMPLES,
    budget: int = config.TRACT_RETRY_BUDGET,
) -> TractConfig:
    """Choose and certify (r, t_up, t_lo) for the strip inclusions.

    r starts at max(r_floor, 2*max|SV| + 2).  The strip checks use the
    coefficient moduli, so one pass certifies every strip index at once;
    |f'| >= 2 is additionally sampled on the inner strips.  On a sampled
    violation the half-plane is pushed right and everything is retried,
    up to the budget.
    """
    d = map_.d
    if eps is None:
        eps = config.strip_epsilon(d)
    if not 0 < eps < math.pi / (2 * d):
        raise DomainError(f"eps must lie in (0, pi/2d), got {eps}")
    sv = map_.singular_data()
    abs_coeffs = [abs(c) for c in map_.coeffs]
    r = max(r_floor, 2 * sv.max_modulus() + 2)
    # Hard domain floor: the half-plane right of every singular value is
    # free of branch points, so inverse branches are single-valued there.
    r_min = sv.max_real() + 1e-6
    sin_eps = math.sin(d * eps)

    for _ in range(budget):
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
                            if map_(z).real > r and abs(map_.derivative(z)) < 2:
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

    raise TractConfigError(
        f"could not certify strip bounds within budget (last r={r})"
    )


def plain_pullback(
    spec: thurston.TargetSpec,
    max_iter: int = config.CLASSIFY_MAX_ITER,
    tol: float = config.CLASSIFY_TOL,
) -> thurston.ClassifyResult:
    """Reference classifier: the plain fixed-point iteration z <- P(z), one
    ``thurston.pullback_step`` after another from the straight spider, with
    the stopping rule of ``thurston.classify`` and no mixing.  Its deltas
    are the contraction of the pullback operator itself."""
    state = thurston.init_state(spec)
    for _ in range(max_iter):
        state = thurston.pullback_step(state)
        if state.deltas[-1] < tol:
            certificate = thurston.verify(state.map, spec)
            return thurston.ClassifyResult(state.map, state.z, certificate, state.deltas)
    raise NotConvergedError(
        f"plain pullback did not converge in {max_iter} iterations", details=state.deltas
    )


def scalar_pullback_grid(state) -> np.ndarray:
    """Reference pullback: the point-by-point loop that the batched
    ``thurston.pullback_step`` replaced, returning the pulled grid (no
    refit) or raising the first failure in grid order."""
    spec = state.spec
    map_ = state.map
    cfg = tracts.make_tract_config(map_)
    old = state.z
    new = np.zeros_like(old)
    for i in range(spec.m):
        addr = spec.address(i)
        for j in range(spec.depth + 1):
            seed = spec.tail[i] if j == spec.depth else old[i, j + 1]
            if isinstance(seed, complex) or isinstance(seed, np.complexfloating):
                seed_c = complex(seed)
                if seed_c.real <= cfg.r_min:
                    raise InvariantViolationError(
                        f"grid point ({i},{j + 1}) fell left of the singular "
                        f"values (Re {seed_c.real:.3g} <= {cfg.r_min:.3g}); "
                        "marked points escaped the admissible region"
                    )
                seed = seed_c
            try:
                new[i, j] = tracts.inverse_branch(map_, cfg, addr.entry(j), seed)
            except BranchSelectionError as exc:
                raise UnsupportedHomotopyError(
                    f"pullback of grid point ({i},{j}) found no branch in its "
                    "strip; the configuration would need nontrivial leg words, "
                    "which the strip-indexed shadow does not support"
                ) from exc
    return new


def sampled_disk_containment(map_: PolyExpMap, rho: float, r: float) -> ContainmentReport:
    """Reference containment check: the sampled check that
    ``polyexp.check_disk_containment`` ran for every map before it tried
    Fujiwara's bound, a root solve of p(z) = w on 360 points of |w| = r.
    Its reports are never proven."""
    samples = 360
    angles = 2 * np.pi * np.arange(samples) / samples
    circle = np.exp(1j * angles)
    try:
        roots = polyexp.poly_roots_batch(map_, r * circle)
    except RootSolveError:
        return ContainmentReport(False, False, False, True, samples, False)
    part1 = bool(np.all(np.abs(roots) < r))

    target = rho ** (2 * map_.d + 1)
    values = map_.poly(rho**2 * circle)
    part2 = bool(np.all(np.abs(values) < target))
    return ContainmentReport(part1 and part2, part1, part2, False, samples, False)


def sample_poly_with_critical_values_in(d: int, rho: float, rng) -> PolyExpMap:
    """One row of ``polyexp._sample_polys``: a random monic p with p(0) = 0
    and critical values scaled into the rho-disk."""
    return PolyExpMap(d, polyexp._sample_polys(d, rho, [rng])[0][0])


def sample_map_with_singular_values_in(d: int, rho: float, rng) -> PolyExpMap:
    """One row of ``polyexp._sample_maps``: a random map whose singular
    values are scaled into the rho-disk."""
    return PolyExpMap(d, polyexp._sample_maps(d, rho, [rng])[0])


def critical_point_ratio(map_: PolyExpMap, rho: float) -> float:
    """max |critical point| / rho^(1/d), the critical points from the
    ``np.roots`` solve of p' in ``singular_data``; 0 for d = 1."""
    cps = map_.singular_data().critical_points
    return max(map(abs, cps), default=0.0) / rho ** (1.0 / map_.d)


def coefficient_ratio(map_: PolyExpMap, rho: float) -> float:
    """max over k of |b_k| / rho^((d-k)/d)."""
    return max(abs(b) / rho ** ((map_.d - k) / map_.d) for k, b in enumerate(map_.coeffs))


def appendix_report_per_sample(
    d: int, rho: float, samples: int, seed: int, containment_maps: int
) -> polyexp.AppendixReport:
    """Reference ``polyexp.appendix_report`` built one sample at a time: each
    sample draws a polynomial and a map from its own stream and is measured
    on its own, and the critical-point ratio comes from a root solve of p'."""
    ratios, coeffs, contains = [], [], []
    for idx in range(samples):
        rng = np.random.default_rng((seed, idx))
        ratios.append(critical_point_ratio(sample_poly_with_critical_values_in(d, rho, rng), rho))
        map_ = sample_map_with_singular_values_in(d, rho, rng)
        coeffs.append(coefficient_ratio(map_, rho))
        if idx < containment_maps:
            contains.append(polyexp.check_disk_containment(map_, rho, rho))
    worst_idx = int(np.argmax(ratios))
    return polyexp.AppendixReport(
        max_critical_point_ratio=float(max(ratios)),
        max_coefficient_ratio=float(max(coeffs)),
        containment_maps=containment_maps,
        containment_failures=sum(1 for r in contains if not r.inconclusive and not r.part1),
        containment_inconclusive=sum(1 for r in contains if r.inconclusive),
        containment_proven=sum(1 for r in contains if r.proven),
        worst_case={"sample_index": worst_idx, "ratio": float(ratios[worst_idx])},
    )


def check_monotone(segment, map_: PolyExpMap, n_iterates: int) -> tuple[int, int, dict]:
    """(onset, horizon, violations) of a ray segment: the smallest N with
    Re f^n strictly increasing along the samples for all testable n >= N,
    the last iterate tested (an overflow cuts the range short), and the
    count of non-increasing steps per iterate that has any."""
    zs = [p.z for p in segment.samples]
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
    ``sample_poly_with_critical_values_in`` draws from ``rng``,
    recomputed at 50 digits from the same normals and uniform.

    The sampler rescales p, whose critical points c_k are drawn, by a =
    (peak / (rho u))^(1/d), peak = max |p(c_k)|; the ratio max |c_k| / a /
    rho^(1/d) = max |c_k| (u / peak)^(1/d) does not depend on rho."""
    re, im = rng.standard_normal(d - 1), rng.standard_normal(d - 1)
    with mpmath.workdps(50):
        cps = [mpmath.mpc(x, y) for x, y in zip(re, im)]
        e = [mpmath.mpc(1)]  # prod (w - c_k), highest power first
        for c in cps:
            e = [a - c * b for a, b in zip(e + [0], [0] + e)]
        # p(w) = sum_m d e_m w^(d-m) / (d-m), the integral of d prod (w - c_k)
        peak = max(
            abs(sum(d * e[m] * c ** (d - m) / (d - m) for m in range(d))) for c in cps
        )
        if peak == 0:
            return 0.0
        u = mpmath.mpf(rng.uniform(0.3, 1.0))
        return float(max(abs(c) for c in cps) * (u / peak) ** (mpmath.mpf(1) / d))


def scalar_inverse_branch(map_: PolyExpMap, cfg: TractConfig, n: int, w: complex) -> complex:
    """Reference inverse branch: the row-by-row rule that the array pass of
    ``tracts.inverse_branches`` replaced, for a complex seed.  The roots of
    p = w are sorted by (re, im); each nonzero root's ``cmath.log`` is
    lifted by the multiple of 2*pi*i nearest strip n; the first nearest
    lift wins, and f (``PolyExpMap.__call__``) is checked there."""
    w = complex(w)
    if w.real <= cfg.r_min:
        raise DomainError(
            f"seed {w} is not right of the singular values (Re <= {cfg.r_min:.3g})"
        )
    (roots,) = polyexp.poly_roots_batch(map_, np.array([w]))
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
    if residual > config.INVERSE_RESIDUAL_RTOL * max(1.0, abs(w)):
        raise BranchSelectionError(
            f"branch residual {residual:.3e} too large for w={w}", candidates
        )
    return z


def ray_point_50_digits(map_: PolyExpMap, address, t: float, depth: int) -> mpmath.mpc:
    """The ray point of ``address`` at potential t, at 50 digits: the
    straight seed step^depth(t) + 2*pi*i*s_depth/d pulled back through the
    branches s_{depth-1}, ..., s_0.  Each branch solves p = w with
    ``mpmath.polyroots`` and lifts the log of the root nearest its strip,
    as the tracer does.  The seed's own error, about exp(-step^depth(t)/2),
    is below 1e-40 for the depths ``rays.trace_segment`` uses."""
    d = map_.d
    with mpmath.workdps(50):
        speed = mpmath.mpf(t)
        for _ in range(depth):
            speed = mpmath.expm1(d * speed)
        two_pi = 2 * mpmath.pi
        z = mpmath.mpc(speed, two_pi * address.entry(depth) / d)
        for level in range(depth - 1, -1, -1):
            center = two_pi * address.entry(level) / d
            high_to_low = [1] + [mpmath.mpc(c) for c in reversed(map_.coeffs)]
            high_to_low[-1] -= z
            # Solve for zeta / scale, whose roots are of order one.
            scale = max(1, abs(z)) ** (mpmath.mpf(1) / d)
            scaled = [a / scale**j for j, a in enumerate(high_to_low)]
            lifts = []
            for u in mpmath.polyroots(scaled, maxsteps=200, extraprec=100):
                base = mpmath.log(u * scale)
                lifts.append(base + 1j * two_pi * mpmath.nint((center - base.imag) / two_pi))
            z = min(lifts, key=lambda c: abs(c.imag - center))
        return z
