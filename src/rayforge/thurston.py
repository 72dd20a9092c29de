"""Finite-truncation pullback iteration on marked singular orbits.

A target prescribes, for each singular orbit, an escape speed T_i and an
address s_i.  The state is a truncated grid z[i][j] of orbit points
(j = 0..J) plus a map from the family; one step pulls every grid point
back one level through the inverse branch its address dictates (the level
past J is frozen at its straight asymptotic position) and refits the map so
its singular values match the new first column.  At a fixed point the grid
is a genuine orbit segment of the map and the singular values escape with
the prescribed speeds and addresses, which an independent forward-orbit
verifier certifies.

``classify`` mixes each next grid from the last pullbacks (Anderson mixing,
Walker & Ni 2011), which reaches the same fixed point in fewer steps.  It
stops as the plain iteration does, on the first real pullback step that
moves the grid by less than ``tol``, and takes the plain step whenever a
mixed grid fails or does worse.

Branches are selected purely by strip index: configurations that would
need nontrivial leg words to pull back are unsupported and surface as
UnsupportedHomotopyError.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from . import config, potentials, rays, tracts
from .errors import (
    BranchSelectionError,
    DomainError,
    FitError,
    InvariantViolationError,
    NotConvergedError,
    NotEscapingError,
    RayforgeError,
    SpecRejectionError,
    UnsupportedHomotopyError,
)
from .polyexp import PolyExpMap
from .potentials import ExternalAddress


@dataclass(frozen=True)
class TargetSpec:
    """Degree, orbit depth, and per-orbit (potential, address) targets.

    Orbit 0 is assigned to the asymptotic value; the remaining orbits to
    critical values.  Addresses must be pairwise non-overlapping under
    shifts and the configuration must admit only finitely many nontrivial
    clusters.
    """

    d: int
    orbits: tuple[tuple[float, ExternalAddress], ...]
    depth: int

    @property
    def m(self) -> int:
        return len(self.orbits)

    def address(self, i: int) -> ExternalAddress:
        return self.orbits[i][1]

    def potential(self, i: int) -> float:
        return self.orbits[i][0]

    @cached_property
    def speeds(self) -> tuple[tuple[float, ...], ...]:
        """Per orbit, the speeds step^j(T_i) for j = 0..depth, cut short
        where they leave the float range (``validate_spec`` rejects that)."""
        return tuple(
            tuple(potentials.chain(self.d, t, max_len=self.depth + 1))
            for t, _ in self.orbits
        )

    @cached_property
    def ladder(self) -> potentials.PotentialLadder:
        """The merged potential ladder of all orbits to level depth."""
        return potentials.build_ladder(self.orbits, self.d, self.depth)

    @cached_property
    def straight(self) -> np.ndarray:
        """The read-only straight grid: point (i, j) at its asymptotic
        position step^j(T_i) + 2*pi*i*s_j/d, shape (m, depth+1)."""
        z = np.zeros((self.m, self.depth + 1), dtype=complex)
        for i, values in enumerate(self.speeds):
            for j, tj in enumerate(values):
                z[i, j] = potentials.straight_point(self.d, tj, self.address(i).entry(j))
        z.flags.writeable = False
        return z

    @cached_property
    def tail(self) -> tuple[complex | tracts.LogPolar, ...]:
        """Per orbit, the frozen level-(depth+1) point at its straight
        position step^(depth+1)(T_i) + 2*pi*i*s/d, as a complex seed in the
        float range and as a ``tracts.LogPolar`` seed beyond it."""
        seeds = []
        for i, values in enumerate(self.speeds):
            t_top = values[self.depth]
            s_next = self.address(i).entry(self.depth + 1)
            log_next = potentials.log_step(self.d, t_top)
            if log_next <= math.log(config.CAP):
                t_next = potentials.step(self.d, t_top)
                seeds.append(potentials.straight_point(self.d, t_next, s_next))
            else:
                v = 2 * math.pi * s_next / self.d
                arg = v * math.exp(-log_next) if log_next < 700 else 0.0
                seeds.append(tracts.LogPolar(log_next, arg))
        return tuple(seeds)


def validate_spec(spec: TargetSpec) -> None:
    """Reject structurally unsupported targets.

    Checks: m <= d, positive potentials whose speeds grow in double
    precision, depth representable in floats, pairwise non-overlapping
    addresses, and finitely many nontrivial clusters (equal-speed orbits
    whose shifted addresses keep agreeing).
    """
    if spec.depth < 1:
        raise SpecRejectionError("grid depth must be >= 1")
    if spec.m < 1:
        raise SpecRejectionError("need at least one singular orbit")
    if spec.m > spec.d:
        raise SpecRejectionError(
            f"a degree-{spec.d} map has at most {spec.d} singular values, "
            f"got {spec.m} orbits"
        )
    for i, (t, _) in enumerate(spec.orbits):
        if not t > 0:
            raise SpecRejectionError(f"orbit {i} potential must be > 0, got {t}")
        # Only a tiny d*T can round step(T) down to T, which stalls the tower.
        if spec.d * t < 1 and potentials.step(spec.d, t) <= t:
            raise SpecRejectionError(
                f"orbit {i} (T={t}): its speed does not grow in double "
                "precision, since step(T) rounds to T; use a larger potential"
            )
        levels = len(spec.speeds[i])
        if levels <= spec.depth:
            raise SpecRejectionError(
                f"depth {spec.depth} is too deep for orbit {i} (T={t}): its "
                f"speed overflows at level {levels}; use a smaller depth"
            )
    if potentials.detect_clusters(spec.orbits, spec.d, spec.depth):
        raise SpecRejectionError(
            "configuration admits infinitely many nontrivial clusters "
            "(equal speeds with persistently agreeing addresses)"
        )
    for i in range(spec.m):
        for k in range(i + 1, spec.m):
            if spec.address(i).overlaps(spec.address(k)):
                raise SpecRejectionError(
                    f"addresses of orbits {i} and {k} overlap under shifts; "
                    "their orbits would share a ray"
                )


@dataclass
class ThurstonState:
    """The map and the truncated orbit grid z[i][j] (orbit i < m, level
    j = 0..depth) of one pullback iterate, with the history so far."""

    map: PolyExpMap
    spec: TargetSpec
    z: np.ndarray  # complex, shape (m, depth+1)
    deltas: list[float] = field(default_factory=list)


def init_state(
    spec: TargetSpec, jitter: float = 0.0, jitter_seed: int = 0
) -> ThurstonState:
    """Straight-spider initial state: grid on the asymptotic positions, map
    fitted to the first column.  ``jitter`` displaces every grid entry by
    that radius (seeded) to probe independence of the starting marking."""
    validate_spec(spec)
    z = spec.straight.copy()
    if jitter:
        rng = np.random.default_rng(jitter_seed)
        phases = rng.uniform(0, 2 * math.pi, z.shape)
        z = z + jitter * np.exp(1j * phases)
    map_ = fit_map(spec.d, [complex(v) for v in z[:, 0]])
    return ThurstonState(map_, spec, z)


def fit_map(
    d: int, targets: Sequence[complex], warm: PolyExpMap | None = None
) -> PolyExpMap:
    """Map whose singular values match the targets, order-matched.

    targets[0] is the asymptotic value p(0); the rest are critical values.
    Degrees 1 and 2 are closed-form (the d=2 square-root sign follows the
    warm start, principal on a tie); higher degrees run a damped Newton
    iteration on the coefficients and require a warm start.
    """
    targets = [complex(v) for v in targets]
    m = len(targets)
    if m < 1 or m > d:
        raise DomainError(f"need between 1 and {d} targets, got {m}")
    if d == 1:
        return PolyExpMap(1, [targets[0]])
    if d == 2:
        c = targets[0]
        vc = targets[1] if m == 2 else targets[0]
        # p = z^2 + b z + c has critical value c - b^2/4.
        b = 2 * cmath.sqrt(c - vc)
        if warm is not None and b != 0:
            bw = warm.coeffs[1]
            gap_pos, gap_neg = abs(b - bw), abs(-b - bw)
            if gap_neg < gap_pos:
                b = -b
            elif gap_neg == gap_pos:
                warnings.warn(
                    "square-root branch tie: warm start is equidistant from "
                    "both signs; keeping the principal branch",
                    stacklevel=2,
                )
        return PolyExpMap(2, [c, b])
    if warm is None:
        raise FitError(f"degree-{d} fitting needs a warm start")
    if m != d:
        raise FitError(f"degree-{d} fitting supports exactly d targets, got {m}")
    return _fit_newton(d, targets, warm)


def _singular_vector(map_: PolyExpMap, reference: Sequence[complex]) -> np.ndarray:
    """(asymptotic, critical values) with the critical values ordered to
    match the reference vector (continuity along the iteration)."""
    sd = map_.singular_data()
    out = [sd.asymptotic_value]
    remaining = list(sd.critical_values)
    for ref in reference[1:]:
        k = min(range(len(remaining)), key=lambda idx: abs(remaining[idx] - ref))
        out.append(remaining.pop(k))
    return np.array(out, dtype=complex)


def _fit_newton(d: int, targets: Sequence[complex], warm: PolyExpMap) -> PolyExpMap:
    """Damped Newton on the coefficients until every singular value sits
    within 1e-10 (relative to the largest target) of its target."""
    rtol = 1e-10
    target_vec = np.array(targets, dtype=complex)
    scale = max(1.0, float(np.abs(target_vec).max()))
    x = np.array(warm.coeffs, dtype=complex)

    def residual(coeffs: np.ndarray) -> np.ndarray:
        return _singular_vector(PolyExpMap(d, list(coeffs)), targets) - target_vec

    res = residual(x)
    for _ in range(80):
        if float(np.abs(res).max()) <= rtol * scale:
            return PolyExpMap(d, list(x))
        jac = np.zeros((d, d), dtype=complex)
        h = 1e-7 * scale
        for k in range(d):
            bumped = x.copy()
            bumped[k] += h
            jac[:, k] = (residual(bumped) - res) / h
        try:
            step_vec = np.linalg.solve(jac, res)
        except np.linalg.LinAlgError as exc:
            raise FitError(f"singular Jacobian in degree-{d} fit") from exc
        for damping in (1.0, 0.5, 0.25, 0.125, 0.0625):
            trial = x - damping * step_vec
            trial_res = residual(trial)
            if float(np.abs(trial_res).max()) < float(np.abs(res).max()):
                x, res = trial, trial_res
                break
        else:
            break
    worst = float(np.abs(res).max())
    if worst <= rtol * scale:
        return PolyExpMap(d, list(x))
    raise FitError(f"degree-{d} fit stalled at residual {worst:.3e}", residual=worst)


def pullback_step(state: ThurstonState) -> ThurstonState:
    """One pullback: lift every grid point one level back through the branch
    its address dictates, then refit the map to the new first column.

    All grid points are pulled in one batched call.  Failures are reported
    in grid order (orbit by orbit, level by level): the first point whose
    seed fell left of the singular values, or whose branch failed.
    """
    spec = state.spec
    map_ = state.map
    cfg = tracts.make_tract_config(map_)
    old = state.z
    points = [(i, j) for i in range(spec.m) for j in range(spec.depth + 1)]
    seeds = [
        spec.tail[i] if j == spec.depth else complex(old[i, j + 1]) for i, j in points
    ]
    new, errors = tracts.inverse_branches(
        map_, cfg, [spec.address(i).entry(j) for i, j in points], seeds
    )
    if errors:
        k = min(errors)
        (i, j), seed, exc = points[k], seeds[k], errors[k]
        if isinstance(exc, DomainError):
            raise InvariantViolationError(
                f"grid point ({i},{j + 1}) fell left of the singular "
                f"values (Re {seed.real:.3g} <= {cfg.r_min:.3g}); "
                "marked points escaped the admissible region"
            ) from exc
        if isinstance(exc, BranchSelectionError):
            raise UnsupportedHomotopyError(
                f"pullback of grid point ({i},{j}) found no branch in its "
                "strip; the configuration would need nontrivial leg words, "
                "which the strip-indexed shadow does not support"
            ) from exc
        raise exc
    new = new.reshape(old.shape)
    delta = float(np.abs(new - old).max())
    new_map = fit_map(spec.d, [complex(v) for v in new[:, 0]], warm=map_)
    return ThurstonState(new_map, spec, new, state.deltas + [delta])


@dataclass(frozen=True)
class OrbitCheck:
    orbit: int
    singular_value: complex
    potential: float
    potential_error: float
    prefix_match_length: int
    prefix_length: int
    residual: float
    escaped: bool


@dataclass(frozen=True)
class Certificate:
    """Forward-orbit verification of a classified map against its target."""

    passed: bool
    checks: tuple[OrbitCheck, ...]
    notes: tuple[str, ...] = ()


def verify(map_: PolyExpMap, spec: TargetSpec) -> Certificate:
    """Iterate each singular value forward and compare the extracted
    (potential, address prefix) against the target.  Independent of the
    pullback route: only forward evaluation and strip reads are used."""
    cfg = tracts.make_tract_config(map_)
    sv = _singular_vector(map_, spec.straight[:, 0])
    checks = []
    notes = []
    passed = True
    for i in range(spec.m):
        target_t = spec.potential(i)
        addr = spec.address(i)
        try:
            ext = rays.extract_potential_address(map_, cfg, complex(sv[i]))
        except NotEscapingError as exc:
            checks.append(
                OrbitCheck(i, complex(sv[i]), math.nan, math.inf, 0, 0, math.inf, False)
            )
            notes.append(f"orbit {i}: {exc}; orbit head: {list(exc.orbit)[:4]}")
            passed = False
            continue
        perr = abs(ext.t - target_t)
        match = 0
        for k, s in enumerate(ext.prefix):
            if s == addr.entry(ext.start + k):
                match += 1
            else:
                break
        ok = (
            perr < config.VERIFY_POTENTIAL_RTOL * max(1.0, target_t)
            and match == len(ext.prefix)
        )
        passed = passed and ok
        checks.append(
            OrbitCheck(
                i, complex(sv[i]), ext.t, perr, match, len(ext.prefix), ext.residual, True
            )
        )
        if not ok:
            notes.append(
                f"orbit {i}: potential error {perr:.3e}, prefix matched "
                f"{match}/{len(ext.prefix)}"
            )
    return Certificate(passed, tuple(checks), tuple(notes))


@dataclass
class ClassifyResult:
    map: PolyExpMap
    z: np.ndarray
    certificate: Certificate
    deltas: list[float]
    iterate_log: list[np.ndarray] = field(default_factory=list)


def _anderson_mix(
    history: Sequence[tuple[np.ndarray, np.ndarray]], pulled: ThurstonState
) -> ThurstonState | None:
    """The Anderson-mixed next iterate from (x, P(x)) pairs of flattened
    grids, oldest first, the last of them ``pulled``: P(x_k) minus the
    weighted differences of successive P(x), with weights that minimise the
    same combination of the residuals P(x) - x, solved from their Gram
    matrix by Cramer's rule.  None when that system is singular or no map
    fits the mixed grid."""
    xs, ps = zip(*history)
    fs = [p - x for x, p in zip(xs, ps)]
    df = [b - a for a, b in zip(fs, fs[1:])]
    dp = [b - a for a, b in zip(ps, ps[1:])]
    gram = [[np.vdot(a, b) for b in df] for a in df]
    rhs = [np.vdot(a, fs[-1]) for a in df]
    if len(df) == 1:
        det = gram[0][0].real
        numerators = [rhs[0]]
    else:
        (g00, g01), (g10, g11) = gram
        det = (g00 * g11 - g01 * g10).real
        numerators = [rhs[0] * g11 - g01 * rhs[1], g00 * rhs[1] - g10 * rhs[0]]
    if not det > 0:
        return None
    x = ps[-1] - sum(n / det * v for n, v in zip(numerators, dp))
    z = x.reshape(pulled.z.shape)
    try:
        map_ = fit_map(pulled.spec.d, [complex(v) for v in z[:, 0]], warm=pulled.map)
    except RayforgeError:
        return None
    return ThurstonState(map_, pulled.spec, z, pulled.deltas)


def classify(
    spec: TargetSpec,
    max_iter: int = config.CLASSIFY_MAX_ITER,
    tol: float = config.CLASSIFY_TOL,
    log_iterates: bool = False,
    jitter: float = 0.0,
    jitter_seed: int = 0,
) -> ClassifyResult:
    """Iterate the pullback to its fixed point and certify the result.

    Each next grid is the Anderson mix (memory ``config.ANDERSON_MEMORY``)
    of the last pullbacks, with the map refitted to its first column.  The
    first real pullback step that moves the grid by less than tol (sup
    norm) stops the run, and its pulled state is the result.  The history
    is dropped and the last pulled grid taken as it is (the plain step)
    when the pullback of a mixed grid raises or moves it more than the step
    before, or when no mixed grid can be formed.  ``deltas`` and
    ``iterate_log`` record real pullback steps only; max_iter bounds the
    ``pullback_step`` calls, a raising one included.

    Raises NotConvergedError (with the delta history attached, so
    oscillation and slow contraction are distinguishable) when max_iter
    steps do not bring the sup-norm grid displacement under tol.
    """
    state = pulled = init_state(spec, jitter=jitter, jitter_seed=jitter_seed)
    iterate_log = [state.z.copy()] if log_iterates else []
    history: list[tuple[np.ndarray, np.ndarray]] = []
    for _ in range(max_iter):
        mixed = state is not pulled  # a mixed grid, not the last pulled one
        try:
            step = pullback_step(state)
        except RayforgeError:
            if not mixed:
                raise
            state, history = pulled, []
            continue
        if log_iterates:
            iterate_log.append(step.z.copy())
        if step.deltas[-1] < tol:
            break
        if mixed and step.deltas[-1] > step.deltas[-2]:
            history = []
        else:
            history.append((state.z.ravel(), step.z.ravel()))
            del history[: -(config.ANDERSON_MEMORY + 1)]
        pulled = state = step
        if len(history) > 1:
            state = _anderson_mix(history, step) or step
            if state is step:
                history = []
    else:
        raise NotConvergedError(
            f"pullback did not converge in {max_iter} iterations "
            f"(last delta {pulled.deltas[-1]:.3e})",
            details=pulled.deltas,
        )
    certificate = verify(step.map, spec)
    return ClassifyResult(step.map, step.z, certificate, step.deltas, iterate_log)


@dataclass(frozen=True)
class InvariantReport:
    """Computable shadows of the invariant-region conditions at one state."""

    rho: float
    inside_disk: bool
    tail_asymptotics: bool
    separation: bool
    homotopy_budget: bool
    pullback_real_parts: bool
    derivative_domain: bool


def invariant_set_diagnostics(grid_z: np.ndarray, spec: TargetSpec) -> InvariantReport:
    """Check the marked-grid shadow of the invariant-region conditions.

    rho is the first midpoint of ``spec.ladder`` above its threshold (else
    its first midpoint, else twice the largest T).
    (1) the first N_i+1 points of each orbit stay in the rho-disk; (2) the
    rest sit within 1/j of their straight asymptotic positions; (3) points
    inside the disk stay pairwise separated by pi/(2d*M^n) with M the
    log-scale derivative bound K*exp(d^3*t_n), K = DERIVATIVE_K; (4) the
    homotopy budget is trivially respected (the shadow forbids nontrivial
    words).  Also checks
    that pullbacks of inside points keep Re < rho/2 and that points mapping
    into the marked disk keep Re < (d+1)*t_n.  ``grid_z`` has the shape
    (m, depth+1) of a spec that ``validate_spec`` accepts.  Report only,
    never raises.
    """
    d = spec.d
    ladder = spec.ladder
    above = ladder.midpoints_above_threshold()
    if not above:
        above = ladder.midpoints or (2 * max(t for t, _ in spec.orbits),)
    rho = above[0]
    t_n = max((t for t in ladder.potentials if t < rho), default=rho / 2)

    m, levels = grid_z.shape
    n_inside = [
        max((j for j, tj in enumerate(values) if tj < rho), default=-1)
        for values in spec.speeds
    ]

    cond_inside = all(
        abs(grid_z[i, j]) < rho
        for i in range(m)
        for j in range(n_inside[i] + 1)
    )
    straight = spec.straight
    cond_tail = all(
        abs(grid_z[i, j] - straight[i, j]) < (1.0 / j if j > 0 else math.inf)
        for i in range(m)
        for j in range(n_inside[i] + 1, levels)
    )
    # Separation in log scale: M^n with M = K e^{d^3 t_n} overflows floats.
    log_m_rho = math.log(config.DERIVATIVE_K) + d**3 * t_n
    cond_sep = True
    inside_pts = [
        (i, j) for i in range(m) for j in range(n_inside[i] + 1)
    ]
    for a in range(len(inside_pts)):
        for b in range(a + 1, len(inside_pts)):
            (i, j), (k, l) = inside_pts[a], inside_pts[b]
            n = min(n_inside[i] + 1 - j, n_inside[k] + 1 - l)
            gap = abs(grid_z[i, j] - grid_z[k, l])
            log_bound = math.log(math.pi / (2 * d)) - n * log_m_rho
            if gap <= 0 or math.log(gap) <= log_bound:
                cond_sep = False
    cond_budget = True  # strip-indexed pullbacks keep every leg word empty

    cond_pullback_re = all(
        grid_z[i, j].real < rho / 2
        for i in range(m)
        for j in range(n_inside[i] + 1)
    )
    disk_radius = max(
        abs(straight[i, min(n_inside[i] + 1, levels - 1)]) for i in range(m)
    ) + 1
    cond_deriv_domain = all(
        grid_z[i, j].real < (d + 1) * t_n
        for i in range(m)
        for j in range(levels - 1)
        if abs(grid_z[i, j + 1]) <= disk_radius
    )
    return InvariantReport(
        rho=rho,
        inside_disk=cond_inside,
        tail_asymptotics=cond_tail,
        separation=cond_sep,
        homotopy_budget=cond_budget,
        pullback_real_parts=cond_pullback_re,
        derivative_domain=cond_deriv_domain,
    )
