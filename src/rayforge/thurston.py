"""Finite-truncation pullback iteration on marked singular orbits.

A target prescribes, for each singular orbit, an escape speed T_i and an
address s_i.  An iterate is a map from the family and a truncated grid
z[i][j] of orbit points (j = 0..J*, the deepest level every speed reaches
under the float-range limit); one step maps (map, grid) to (map, grid).
It pulls point (i, j) back one level through the inverse branch in strip
s_j of s_i, read from the spec's strip table (the level past J* is frozen
at its straight position; beyond the float range its pullback is taken to
first order, exact in double precision there) and refits the map so its
singular values match the new first column.  At a fixed point the grid is
a genuine orbit segment of the map and the singular values escape with the
prescribed speeds and addresses, which an independent forward-orbit
verifier certifies.

The tract certificate gates each step: every step proves the strip
bounds of its own map (``tracts.make_tract_config``), and at d <= 2 the
strip geometry is all the pullback reads.

``classify`` keeps the history and mixes each next grid from the last
pullbacks (Anderson mixing, Walker & Ni 2011): the same fixed point in
fewer steps.

Branches are selected purely by strip index: configurations that would
need nontrivial leg words to pull back are unsupported and surface as
UnsupportedHomotopyError.
"""

from __future__ import annotations

import cmath
import itertools
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from . import config, potentials, rays, tracts
from .errors import (
    BranchSelectionError,
    DomainError,
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
    """Degree, per-orbit (potential, address) targets, and an optional
    bound ``J`` on the grid depth: ``depth`` is J* whatever J is, and
    ``validate_spec`` accepts J in 1..J*.  ``strips`` is the one table of
    the strips s_j that the grid levels and the frozen level use.

    Orbit 0 is assigned to the asymptotic value; the remaining orbits to
    critical values.  Addresses must be pairwise non-overlapping under
    shifts and the configuration must admit only finitely many nontrivial
    clusters.

    A dataclass, not a NamedTuple, because its derived properties are
    cached on the instance.
    """

    d: int
    orbits: tuple[tuple[float, ExternalAddress], ...]
    J: int | None = None

    @property
    def m(self) -> int:
        return len(self.orbits)

    @cached_property
    def towers(self) -> tuple[tuple[float, ...], ...]:
        """Per orbit, the speeds step^j(T_i) under ``config.CAP``, at most
        ``config.CLASSIFY_DEPTH_LIMIT`` + 1 of them."""
        return tuple(
            tuple(potentials.chain(self.d, t, max_len=config.CLASSIFY_DEPTH_LIMIT + 1))
            for t, _ in self.orbits
        )

    @cached_property
    def depth(self) -> int:
        """The grid depth J* = min_i len(towers[i]) - 1, whatever J is given."""
        return min(map(len, self.towers)) - 1

    @cached_property
    def strips(self) -> np.ndarray:
        """The read-only strip table: s_j of orbit i at [i, j], j = 0..depth+1."""
        s = np.array([a.entries(self.depth + 2) for _, a in self.orbits])
        s.flags.writeable = False
        return s

    @cached_property
    def ladder(self) -> potentials.PotentialLadder:
        """The merged potential ladder of all orbits to level depth."""
        return potentials.build_ladder(self.orbits, self.d, self.depth)

    @cached_property
    def straight(self) -> np.ndarray:
        """The read-only straight grid: point (i, j) at its asymptotic
        position step^j(T_i) + 2*pi*i*s_j/d, shape (m, depth+1)."""
        speeds = np.array([tower[: self.depth + 1] for tower in self.towers])
        z = potentials.straight_point(self.d, speeds, self.strips[:, :-1])
        z.flags.writeable = False
        return z

    @cached_property
    def tail(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple]:
        """The pull record (pulls, strips, seeds, far) that every pullback
        step reads, its arrays read-only.  The frozen level-(depth+1) points
        w_i = step^(depth+1)(T_i) + 2*pi*i*s/d split at the float range:
        seeds[i] is w_i as a complex seed where ``towers[i]`` reaches level
        depth+1, else 0; beyond, far pairs orbit i with the part of its
        level-depth pullback that depends on the spec alone, z0 =
        log|w_i|/d + i*(arg w_i + 2*pi*s_depth)/d.  The mask pulls is every
        grid point but the far orbits' last, and strips their strips in
        row-major order."""
        seeds, far = np.zeros(self.m, dtype=complex), []
        for i, (tower, (n, s_next)) in enumerate(zip(self.towers, self.strips[:, -2:].tolist())):
            if len(tower) > self.depth + 1:
                seeds[i] = potentials.straight_point(self.d, tower[self.depth + 1], s_next)
            else:
                # chain stopped at the float range, so d*t > 690 and log(step(d, t)) = d*t
                log_next = self.d * tower[self.depth]
                v = 2 * math.pi * s_next / self.d
                arg = v * math.exp(-log_next) if log_next < config.EXP_ARG_LIMIT else 0.0
                far.append((i, complex(log_next / self.d, arg / self.d + 2 * math.pi * n / self.d)))
        pulls = np.ones((self.m, self.depth + 1), dtype=bool)
        pulls[[i for i, _ in far], -1] = False
        record = pulls, self.strips[:, :-1][pulls], seeds, tuple(far)
        for table in record[:3]:
            table.flags.writeable = False
        return record


def validate_spec(spec: TargetSpec) -> None:
    """Reject structurally unsupported targets.

    Checks, in order: 1 <= m <= d <= ``config.MAX_DEGREE``; per orbit, a
    positive potential whose speed tower passes ``config.CAP`` within
    ``config.CLASSIFY_DEPTH_LIMIT`` levels but not at level 1; a given J in
    1..J*; finitely many nontrivial clusters (equal-speed orbits whose
    shifted addresses keep agreeing); pairwise non-overlapping addresses.
    """
    if spec.m < 1:
        raise SpecRejectionError("need at least one singular orbit")
    if spec.m > spec.d:
        raise SpecRejectionError(
            f"a degree-{spec.d} map has at most {spec.d} singular values, "
            f"got {spec.m} orbits"
        )
    if spec.d > config.MAX_DEGREE:
        raise SpecRejectionError(
            f"the tract certificate needs d <= config.MAX_DEGREE = {config.MAX_DEGREE}, "
            f"got d = {spec.d}"
        )
    for i, (t, _) in enumerate(spec.orbits):
        if not t > 0:
            raise SpecRejectionError(f"orbit {i} potential must be > 0, got {t}")
        levels = len(spec.towers[i])
        if levels > config.CLASSIFY_DEPTH_LIMIT:
            raise SpecRejectionError(
                f"orbit {i} (T={t}): its speed does not grow in double "
                f"precision past config.CAP within {config.CLASSIFY_DEPTH_LIMIT} "
                "levels, classify's grid-depth bound; use a larger potential"
            )
        if levels == 1:
            raise SpecRejectionError(
                f"orbit {i} (T={t}): its speed overflows at level 1, which "
                "leaves no grid level; use a smaller potential"
            )
    if spec.J is not None and not 1 <= spec.J <= spec.depth:
        raise SpecRejectionError(
            f"grid depth J must be in 1..J*, got J = {spec.J} with J* = {spec.depth}; "
            "leave J out to solve at J*"
        )
    if potentials.detect_clusters(spec.orbits, spec.d, spec.depth):
        raise SpecRejectionError(
            "configuration admits infinitely many nontrivial clusters "
            "(equal speeds with persistently agreeing addresses)"
        )
    for (i, (_, a)), (k, (_, b)) in itertools.combinations(enumerate(spec.orbits), 2):
        if a.overlaps(b):
            raise SpecRejectionError(
                f"addresses of orbits {i} and {k} overlap under shifts; "
                "their orbits would share a ray"
            )


def init_state(spec: TargetSpec) -> tuple[PolyExpMap, np.ndarray]:
    """The straight spider (map, grid): the grid on the asymptotic
    positions, a fresh array, and the map fitted to its first column."""
    validate_spec(spec)
    z = spec.straight.copy()
    return fit_map(spec.d, z[:, 0].tolist()), z


def fit_map(
    d: int, targets: Sequence[complex], warm: PolyExpMap | None = None
) -> PolyExpMap:
    """Map whose singular values match the targets, order-matched.

    targets[0] is the asymptotic value p(0); the rest are critical values.
    Degrees 1 and 2 are closed-form (the d=2 square-root sign follows the
    warm start, principal on a tie).  There is no fitter for higher degrees:
    they raise SpecRejectionError, so ``classify`` rejects them after
    ``validate_spec`` has passed the spec.
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
    raise SpecRejectionError(
        f"classify solves degrees 1 and 2; there is no fitter for degree {d}"
    )


def _far_tail_pullback(map_: PolyExpMap, z0: complex) -> complex:
    """The pullback of a frozen seed w beyond the float range, given
    z0 = log(w)/d lifted to its strip: zeta = e^z0 * (1 - b_{d-1}/(d*zeta)
    + ...) solves p(zeta) = w, and only the first correction survives double
    precision.  It is dropped where e^z0 overflows."""
    if z0.real > config.EXP_ARG_LIMIT:
        return z0
    return z0 - map_.coeffs[-1] / (map_.d * cmath.exp(z0))


def pullback_step(
    spec: TargetSpec, map_: PolyExpMap, z: np.ndarray
) -> tuple[PolyExpMap, np.ndarray, float]:
    """One pullback of the iterate (map_, z): lift every grid point one
    level back through the branch its address dictates, then refit the map
    to the new first column.  Returns the new map, the new grid and the
    step's displacement, the sup norm of new grid minus z.

    The step reads what the spec fixes from its pull record, ``spec.tail``:
    all grid points with a complex seed are pulled in one batched call, and
    the far-tail points to first order.  Failures are reported in grid
    order (orbit by orbit, level by level): the first point whose seed fell
    left of the singular values, or whose branch failed.

    The map's own tract certificate gates the step: a map it does not
    certify raises before any point is pulled.  At d >= 3 its ``r`` picks
    a branch row's path, and so its last bits, never its preimage.
    """
    cfg = tracts.make_tract_config(map_)
    pulls, strips, tail, far = spec.tail
    seeds = np.empty_like(z)
    seeds[:, :-1], seeds[:, -1] = z[:, 1:], tail
    pulled, errors = tracts.inverse_branches(map_, cfg, strips, seeds[pulls])
    if errors:
        k = min(errors)  # a mask selects in row-major order, so k is first in grid order
        (i, j), exc = np.argwhere(pulls)[k].tolist(), errors[k]
        seed = complex(seeds[i, j])
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
    new = np.empty_like(z)
    new[pulls] = pulled
    for i, z0 in far:
        new[i, spec.depth] = _far_tail_pullback(map_, z0)
    delta = float(np.abs(new - z).max())
    return fit_map(spec.d, new[:, 0].tolist(), warm=map_), new, delta


class OrbitCheck(NamedTuple):
    orbit: int
    singular_value: complex
    potential: float
    potential_error: float
    prefix_match_length: int
    prefix_length: int
    residual: float
    escaped: bool


class Certificate(NamedTuple):
    """Forward-orbit verification of a classified map against its target."""

    passed: bool
    orbits: tuple[OrbitCheck, ...]
    notes: tuple[str, ...]


def verify(map_: PolyExpMap, spec: TargetSpec) -> Certificate:
    """Iterate each singular value forward and compare the extracted
    (potential, address prefix) against the target.  Independent of the
    pullback route: only forward evaluation and strip reads are used.

    Orbit i is paired with singular value i in the order ``fit_map`` fits:
    p(0) first, then the critical values in ``critical_points`` order."""
    cfg = tracts.make_tract_config(map_)
    sd = map_.singular_data()
    sv = (sd.asymptotic_value, *sd.critical_values)
    orbits, notes = [], []  # every failed orbit adds a note
    for i, (target_t, addr) in enumerate(spec.orbits):
        try:
            ext = rays.extract_potential_address(map_, cfg, sv[i])
        except NotEscapingError as exc:
            orbits.append(
                OrbitCheck(i, sv[i], math.nan, math.inf, 0, 0, math.inf, False)
            )
            notes.append(f"orbit {i}: {exc}; orbit head: {list(exc.orbit)[:4]}")
            continue
        perr = abs(ext.t - target_t)
        n = len(ext.prefix)
        match = next((k for k, s in enumerate(ext.prefix) if s != addr.entry(ext.start + k)), n)
        orbits.append(OrbitCheck(i, sv[i], ext.t, perr, match, n, ext.residual, True))
        if not (perr < config.VERIFY_POTENTIAL_RTOL * max(1.0, target_t) and match == n):
            notes.append(f"orbit {i}: potential error {perr:.3e}, prefix matched {match}/{n}")
    return Certificate(not notes, tuple(orbits), tuple(notes))


class ClassifyResult(NamedTuple):
    map: PolyExpMap
    z: np.ndarray
    certificate: Certificate
    deltas: list[float]
    iterate_log: list[np.ndarray]


# Each mixed grid combines the last _ANDERSON_MEMORY + 1 pullbacks; the
# closed-form weight solve in _anderson_mix handles memory 1 or 2.
_ANDERSON_MEMORY = 2


def _anderson_mix(
    history: Sequence[tuple[np.ndarray, np.ndarray]], d: int, warm: PolyExpMap
) -> tuple[PolyExpMap, np.ndarray] | None:
    """The Anderson-mixed next iterate (map, grid) from (grid, pulled grid)
    pairs (x, P(x)), oldest first: P(x_k) minus the weighted differences of
    successive P(x), with weights that minimise the same combination of the
    residuals P(x) - x, solved from their Gram matrix by Cramer's rule; the
    map is fitted to its first column from ``warm``.  None when that system
    is singular, or its determinant or the mixed grid is not finite."""
    xs, ps = zip(*history)
    with np.errstate(all="ignore"):  # the finiteness test below catches it all
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
        z = ps[-1] - sum(n / det * v for n, v in zip(numerators, dp))
    if not (0 < det < math.inf and np.isfinite(z).all()):
        return None
    return fit_map(d, z[:, 0].tolist(), warm=warm), z


def classify(spec: TargetSpec) -> ClassifyResult:
    """Iterate the pullback to its fixed point and certify the result.

    The grid has the spec's own depth J* (``spec.depth``), which a J in the
    spec only bounds.  Each next grid is the Anderson mix (memory 2, the
    most the closed-form weight solve handles) of the last three pullbacks,
    with the map refitted to its first column.  The first real pullback
    step that moves the grid by less than ``config.CLASSIFY_TOL`` (sup
    norm) stops the run, and its pulled map and grid are the result.  The
    history is dropped and the last pulled grid taken as it is (the plain
    step) when the pullback of a mixed grid raises or moves it more than
    the step before, or when no mixed grid can be formed.  ``deltas`` and
    ``iterate_log`` record real pullback steps only: the log holds the
    straight grid and every pulled grid, the arrays themselves (nothing
    mutates them), so its last entry is the result's ``z``.
    ``config.CLASSIFY_MAX_ITER`` bounds the ``pullback_step`` calls, a
    raising one included.  Both constants are read at call time.

    Raises NotConvergedError (with the delta history attached, so
    oscillation and slow contraction are distinguishable) when
    ``config.CLASSIFY_MAX_ITER`` steps do not bring the sup-norm grid
    displacement under ``config.CLASSIFY_TOL``; and SpecRejectionError for
    degrees above 2, which ``fit_map`` cannot fit.
    """
    map_, z = pulled = init_state(spec)
    mixed = False  # (map_, z) is a mixed iterate, not the last pulled one
    iterate_log = [z]
    deltas, history = [], []  # history: (grid, pulled grid) pairs, oldest first
    for _ in range(config.CLASSIFY_MAX_ITER):
        try:
            new_map, new_z, delta = pullback_step(spec, map_, z)
        except RayforgeError:
            if not mixed:
                raise
            (map_, z), history, mixed = pulled, [], False
            continue
        deltas.append(delta)
        iterate_log.append(new_z)
        if delta < config.CLASSIFY_TOL:
            break
        if mixed and delta > deltas[-2]:
            history = []
        else:
            history.append((z, new_z))
            del history[: -(_ANDERSON_MEMORY + 1)]
        pulled = new_map, new_z
        mix = _anderson_mix(history, spec.d, new_map) if len(history) > 1 else None
        if mix is None and len(history) > 1:
            history = []
        mixed = mix is not None
        map_, z = mix or pulled
    else:
        raise NotConvergedError(
            f"pullback did not converge in {config.CLASSIFY_MAX_ITER} iterations "
            f"(last delta {deltas[-1]:.3e})",
            details=deltas,
        )
    certificate = verify(new_map, spec)
    return ClassifyResult(new_map, new_z, certificate, deltas, iterate_log)


class InvariantReport(NamedTuple):
    """Computable shadows of the invariant-region conditions at one state:
    rho, and each condition as a signed margin, positive exactly when it
    holds and +inf (``null`` on the wire) when it holds vacuously, on no
    points."""

    rho: float
    inside_disk_margin: float
    pullback_real_part_margin: float
    derivative_domain_margin: float


def _margin(bound: float, values) -> float:
    """bound - max(values); +inf for no values."""
    return float(bound - max(values, default=-math.inf))


def invariant_set_diagnostics(grid_z: np.ndarray, spec: TargetSpec) -> InvariantReport:
    """Measure the marked-grid shadow of the invariant-region conditions.

    rho is the first midpoint of ``spec.ladder`` above its threshold (else
    its first midpoint, which every validated spec has), and t_n the largest
    ladder potential below rho (else rho/2).  The inside points of orbit i
    are its first N_i+1, where N_i is the last level whose speed is below
    rho.  Three margins, each positive exactly when its condition holds:

    - ``inside_disk_margin`` = rho - max |z| over the inside points: they
      stay in the rho-disk;
    - ``pullback_real_part_margin`` = rho/2 - max Re z over the inside
      points: their pullbacks keep Re < rho/2;
    - ``derivative_domain_margin`` = (d+1)*t_n - max Re z over the points
      z[i, j] whose image z[i, j+1] lies in the marked disk, of radius 1 +
      max_i |straight[i, N_i+1]| (level capped at depth): they keep
      Re < (d+1)*t_n.

    A margin over no points is +inf, which serializes as ``null``: the
    condition holds vacuously.  ``grid_z`` has the shape (m, depth+1) of a
    spec that ``validate_spec`` accepts.  Report only, never raises.
    """
    ladder = spec.ladder
    rho = next((r for r in ladder.midpoints if r > ladder.t_prime), ladder.midpoints[0])
    t_n = max((t for t in ladder.potentials if t < rho), default=rho / 2)

    m, levels = grid_z.shape
    n_inside = (spec.straight.real < rho).sum(axis=1) - 1  # speeds never fall along a row
    inside = [grid_z[i, j] for i in range(m) for j in range(n_inside[i] + 1)]
    disk_radius = max(
        abs(spec.straight[i, min(n_inside[i] + 1, levels - 1)]) for i in range(m)
    ) + 1
    into_disk = [
        grid_z[i, j]
        for i in range(m)
        for j in range(levels - 1)
        if abs(grid_z[i, j + 1]) <= disk_radius
    ]
    return InvariantReport(
        rho=rho,
        inside_disk_margin=_margin(rho, (abs(z) for z in inside)),
        pullback_real_part_margin=_margin(rho / 2, (z.real for z in inside)),
        derivative_domain_margin=_margin((spec.d + 1) * t_n, (z.real for z in into_disk)),
    )
