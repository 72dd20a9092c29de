import math

import mpmath
import numpy as np
import pytest

from rayforge import config, polyexp, presets
from rayforge import potentials as pot
from rayforge import rays, tracts
from rayforge.errors import (
    BranchSelectionError,
    DomainError,
    NotConvergedError,
    NotEscapingError,
    RayforgeError,
)
from rayforge.polyexp import PolyExpMap
from rayforge.potentials import ExternalAddress

from oracles import check_monotone, ray_point_50_digits

EXP = PolyExpMap(1, [0.0])
D2 = PolyExpMap(2, [0.0, 0.1])
ZERO = ExternalAddress((), (0,))
ONE = ExternalAddress((), (1,))


@pytest.fixture(scope="module")
def cfg_exp():
    return tracts.make_tract_config(EXP)


@pytest.fixture(scope="module")
def cfg_d2():
    return tracts.make_tract_config(D2)


class TestTraceRay:
    def test_high_potential_is_straight(self, cfg_exp):
        pt = rays.trace_ray(EXP, cfg_exp, ZERO, 50.0)
        assert abs(pt.z - 50.0) <= math.exp(-25.0)

    def test_real_map_real_address_real_ray(self, cfg_exp):
        pt = rays.trace_ray(EXP, cfg_exp, ZERO, 3.0)
        assert abs(pt.z.imag) < 1e-12
        # consecutive depths agree to the shallower depth's tail scale
        values = pot.chain(1, 3.0)
        n = len(values) - 1
        (deep, shallower), errors = rays._pull_chains(
            EXP, cfg_exp, ZERO, np.array([values[n], values[n - 1]]), np.array([n, n - 1])
        )
        assert not errors
        assert abs(deep - shallower) < 10 * math.exp(-values[-2] / 2)
        assert pt.error_estimate < 1e-10

    def test_asymptotic_offset_d2(self, cfg_d2):
        pt = rays.trace_ray(D2, cfg_d2, ONE, 10.0)
        assert pt.z == pytest.approx(10 + 1j * math.pi, abs=1e-3)
        # verified through the one-step functional equation (relative scale)
        lhs = D2(pt.z)
        rhs = rays.trace_ray(D2, cfg_d2, ONE.shift(), pot.step(2, 10.0)).z
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))

    def test_functional_equation_sweep(self, cfg_exp):
        for addr in (ZERO, ONE, ExternalAddress((), (2, -1))):
            for t in np.linspace(1.0, 5.0, 9):
                ft = pot.step(1, float(t))
                lhs = EXP(rays.trace_ray(EXP, cfg_exp, addr, float(t)).z)
                rhs = rays.trace_ray(EXP, cfg_exp, addr.shift(), ft).z
                assert abs(lhs - rhs) < 1e-8 * max(1.0, ft)

    def test_depth_stability(self, cfg_exp):
        values = pot.chain(1, 2.0)
        n = len(values) - 1
        (deep, prev), errors = rays._pull_chains(
            EXP, cfg_exp, ZERO, np.array([values[n], values[n - 1]]), np.array([n, n - 1])
        )
        assert not errors
        assert abs(deep - prev) < 1e-10

    def test_error_estimate_reported(self, cfg_exp):
        pt = rays.trace_ray(EXP, cfg_exp, ZERO, 1.0)
        assert 0 < pt.error_estimate < 1e-10
        assert pt.depth_used >= 3

    def test_invalid_potential(self, cfg_exp):
        with pytest.raises(DomainError):
            rays.trace_ray(EXP, cfg_exp, ZERO, 0.0)

    def test_injectivity_of_forward_orbits(self, cfg_exp):
        # distinct potentials separate by more than 1 after a few steps
        z1 = rays.trace_ray(EXP, cfg_exp, ZERO, 1.0).z
        z2 = rays.trace_ray(EXP, cfg_exp, ZERO, 1.2).z
        sep = abs(z1 - z2)
        for _ in range(6):
            if sep > 1:
                break
            z1, z2 = EXP(z1), EXP(z2)
            sep = abs(z1 - z2)
        assert sep > 1


class TestTraceSegment:
    def test_geometric_spacing_and_monotone_reals(self, cfg_exp):
        seg = rays.trace_segment(EXP, cfg_exp, ZERO, 1.0, 5.0, 16)
        assert len(seg) == 16
        ts = [p.t for p in seg]
        ratios = [b / a for a, b in zip(ts, ts[1:])]
        assert all(r == pytest.approx(ratios[0], rel=1e-9) for r in ratios)
        assert all(abs(p.z.imag) < 1e-12 for p in seg)
        res = [p.z.real for p in seg]
        assert all(b > a for a, b in zip(res, res[1:]))

    def test_single_sample_equals_trace(self, cfg_exp):
        seg = rays.trace_segment(EXP, cfg_exp, ZERO, 2.0, 9.0, 1)
        assert seg[0].z == rays.trace_ray(EXP, cfg_exp, ZERO, 2.0).z

    def test_pairwise_functional_residual_d2(self, cfg_d2):
        addr = ExternalAddress((), (1, -1))
        seg = rays.trace_segment(D2, cfg_d2, addr, 1.0, 3.0, 8)
        for p in seg:
            lhs = D2(p.z)
            rhs = rays.trace_ray(D2, cfg_d2, addr.shift(), pot.step(2, p.t)).z
            assert abs(lhs - rhs) < 1e-7 * max(1.0, abs(rhs))

    def test_depth_zero_cap_not_converged(self):
        # the float-range depth traces 0.9194-0.0199i at t=1, far from the
        # straight point 1.0 that a depth-0 sample would have returned
        map_ = PolyExpMap(2, [0.1, 0.1j])
        cfg = tracts.make_tract_config(map_)
        assert rays.trace_ray(map_, cfg, ZERO, 1.0).z == pytest.approx(
            0.9194 - 0.0199j, abs=1e-4
        )

    def test_depth_zero_beyond_float_range_is_straight(self, cfg_exp):
        # step(t) overflows, so the float-range depth is 0: the sample is the straight
        # point, which is exact in double precision
        for t in (701.0, 695.0):
            pt = rays.trace_ray(EXP, cfg_exp, ZERO, t)
            assert pt.depth_used == 0 and pt.z == t
            assert pt.error_estimate == t * 1e-16

    @pytest.mark.parametrize(
        "t_lo, t_hi", [(1.0, math.inf), (math.inf, math.inf), (math.nan, 2.0), (1.0, math.nan)]
    )
    def test_non_finite_potentials_rejected(self, cfg_exp, t_lo, t_hi):
        # t_hi = inf used to pass the ordering check and return an inf sample
        with pytest.raises(DomainError, match="finite"):
            rays.trace_segment(EXP, cfg_exp, ZERO, t_lo, t_hi, 2)

    def test_ordering_enforced(self, cfg_exp):
        # equal potentials with several samples repeat a potential
        with pytest.raises(DomainError, match="strictly increase"):
            rays.trace_segment(EXP, cfg_exp, ZERO, 2.0, 2.0, 3)


class TestTolerance:
    """Every sample the tracer returns reports an error within
    config.TRACER_TOL max(1, |z|): the error it reports is the one it
    tested."""

    def test_returned_samples_meet_tol(self):
        rng = np.random.default_rng(37)
        returned = raised = 0
        # exp(z) + 3 has its singular value at 3: chains that fall left of it raise
        for map_ in (presets.EXP_MAP, presets.D2_RAY_MAP, PolyExpMap(1, [3.0])):
            cfg = tracts.make_tract_config(map_)
            for address in (presets.ZERO, presets.ALTERNATE):
                for _ in range(2):
                    t_lo, t_hi = sorted(rng.uniform(0.5, 8.0, 2))
                    n = int(rng.integers(1, 9))
                    try:
                        seg = rays.trace_segment(map_, cfg, address, t_lo, t_hi, n)
                    except RayforgeError:
                        raised += 1
                        continue
                    returned += len(seg)
                    for p in seg:
                        assert p.error_estimate <= config.TRACER_TOL * max(1.0, abs(p.z)), (
                            map_, address, p,
                        )
        assert returned and raised


def _bits(z: complex) -> tuple[int, int]:
    return tuple(np.array([z.real, z.imag]).view(np.int64))


def _sample_ts(t_lo, t_hi, n):
    """The potentials trace_segment samples (geometric, last one pinned)."""
    if n == 1:
        return [t_lo]
    ratio = (t_hi / t_lo) ** (1.0 / (n - 1))
    return [t_lo * ratio**k for k in range(n - 1)] + [t_hi]


class TestSegmentMatchesSamples:
    """The batched segment against a one-sample segment per sample."""

    CASES = [
        # (map, address, t_lo, t_hi, samples)
        (EXP, ZERO, 0.3, 6.0, 24),
        (D2, ExternalAddress((), (1, -1)), 0.5, 4.0, 17),
        (PolyExpMap(3, [2.0, -1 + 1j, 0.5]), ExternalAddress((3,), (2,)), 0.9, 4.0, 9),
        # sample 0 fails: its chains fall left of the singular values
        (PolyExpMap(2, [8 + 3j, -13 + 9j]), ONE, 0.2, 4.0, 12),
        # sample 0 passes at depth 2; at sample 1 the float range allows
        # depth 1 only, which misses the bound
        (PolyExpMap(20, [0.1] * 20), ZERO, 0.17, 0.2, 4),
        # sample 0 passes, sample 1 pulls a seed left of the singular values,
        # where no single-valued branch exists
        (PolyExpMap(1, [2.45 + 1.3j]), ExternalAddress((7, -3), (2,)), 0.2, 4.0, 12),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_bitwise_samples_and_first_failure(self, case):
        map_, addr, t_lo, t_hi, n = self.CASES[case]
        cfg = tracts.make_tract_config(map_)
        expected = []
        for t in _sample_ts(t_lo, t_hi, n):
            try:
                expected.append(rays.trace_segment(map_, cfg, addr, t, t, 1)[0])
            except RayforgeError as exc:
                expected.append(exc)
                break
        if case == 4:
            assert len(expected) == 2 and isinstance(expected[-1], NotConvergedError)
        if case == 5:
            # the failure comes after passing samples, not at sample 0
            assert len(expected) == 2 and isinstance(expected[-1], BranchSelectionError)
            assert isinstance(expected[-1].__cause__, DomainError)
        if isinstance(expected[-1], Exception):
            with pytest.raises(type(expected[-1])) as err:
                rays.trace_segment(map_, cfg, addr, t_lo, t_hi, n)
            assert str(err.value) == str(expected[-1])
            return
        seg = rays.trace_segment(map_, cfg, addr, t_lo, t_hi, n)
        assert len(seg) == len(expected)
        for got, want in zip(seg, expected):
            assert got.t == want.t and got.depth_used == want.depth_used
            assert _bits(got.z) == _bits(want.z)
            assert _bits(got.error_estimate) == _bits(want.error_estimate)


class TestFloatRangeDepth:
    """At d = 1 the float-range depth grows like 2/t.  These rays raised
    BranchSelectionError when the depth was cut to 128 levels, and trace at
    the float-range depth."""

    @pytest.mark.parametrize(
        "c, period, t_lo, depth",
        [
            (0.6408862862052205 + 2.1424721399198807j, (0,), 0.004213877770110134, 478),
            (1.1934910299149317 + 1.4702093198859112j, (1,), 0.001799977250934607, 1115),
            (0.3082539498882948 - 1.4239004493139131j, (1, 0), 0.0003743750989912918, 5347),
        ],
        ids=["depth478", "depth1115", "depth5347"],
    )
    def test_deep_d1_segment_traces(self, c, period, t_lo, depth):
        map_ = PolyExpMap(1, [c])
        cfg = tracts.make_tract_config(map_)
        address = ExternalAddress((), period)
        assert len(pot.chain(1, t_lo, max_len=depth + 2)) == depth + 1
        seg = rays.trace_segment(map_, cfg, address, t_lo, 4 * t_lo, 8)
        assert seg[0].depth_used == depth
        for p in seg:
            assert p.error_estimate <= config.TRACER_TOL * max(1.0, abs(p.z))
            # f(z(t, s)) = z(step(t), shift s)
            rhs = rays.trace_ray(map_, cfg, address.shift(), pot.step(1, p.t)).z
            assert abs(map_(p.z) - rhs) <= 1e-15 * max(1.0, abs(rhs))


class TestOracle:
    @pytest.mark.parametrize(
        "map_, address",
        [
            (presets.EXP_MAP, presets.MIXED),
            (presets.D2_MAP, presets.WITH_PREPERIOD),
            (presets.D2_RAY_MAP, presets.ALTERNATE),
            (presets.D3_MAP, presets.TRIPLE),
            (PolyExpMap(4, [0.2, -0.1j, 0.1 + 0.1j, -0.2]), presets.MIXED),
            (PolyExpMap(5, [0.1, 0.2j, -0.1, 0.05 + 0.1j, 0.3]), presets.ZERO),
        ],
    )
    def test_samples_within_error_estimate_of_50_digits(self, map_, address):
        cfg = tracts.make_tract_config(map_)
        for p in rays.trace_segment(map_, cfg, address, 0.8, 3.2, 6):
            ref = ray_point_50_digits(map_, address, p.t, p.depth_used)
            ulp = math.ulp(max(abs(p.z.real), abs(p.z.imag)))
            assert abs(mpmath.mpc(p.z) - ref) <= p.error_estimate + 4 * ulp


class TestFarSingularValues:
    """Singular values far left of the seeds: every branch and root carries
    rounding at the scale of p's terms, |b_0| + |zeta|^d, far above |w|,
    and the residual checks measure it there."""

    @pytest.mark.parametrize(
        "map_",
        [PolyExpMap(1, [-1e8]), PolyExpMap(2, [-1e10, 0.0]), PolyExpMap(3, [-1e12, 0.0, 0.0])],
        ids=["d1", "d2", "d3"],
    )
    def test_samples_within_error_estimate_of_50_digits(self, map_):
        cfg = tracts.make_tract_config(map_)
        for p in rays.trace_segment(map_, cfg, ZERO, 1.0, 2.0, 2):
            ref = ray_point_50_digits(map_, ZERO, p.t, p.depth_used)
            ulp = math.ulp(max(abs(p.z.real), abs(p.z.imag)))
            assert abs(mpmath.mpc(p.z) - ref) <= p.error_estimate + 4 * ulp


class TestBatching:
    @pytest.mark.parametrize("case", [1, 2])
    def test_one_branch_call_per_pull_level(self, case, monkeypatch):
        map_, addr, t_lo, t_hi, n = TestSegmentMatchesSamples.CASES[case]
        cfg = tracts.make_tract_config(map_)
        rows = []
        branches = tracts.inverse_branches

        def counted(m, c, ns, ws):
            rows.append(len(ws))
            return branches(m, c, ns, ws)

        monkeypatch.setattr(tracts, "inverse_branches", counted)
        seg = rays.trace_segment(map_, cfg, addr, t_lo, t_hi, n)
        depths = [p.depth_used for p in seg]
        # one call per level, each with every chain that still pulls at it
        assert len(rows) == max(depths)
        assert sum(rows) == sum(2 * k - 1 for k in depths if k)

    def test_no_pull_after_every_chain_failed(self, cfg_exp, monkeypatch):
        # exp(z) at t = 1e-4 pulls from depth 20,005: both chains fall left
        # of the singular value 0 within a few levels, and the levels below
        # are never pulled.
        assert len(pot.chain(1, 1e-4, max_len=10**5)) == 20_006
        rows = []
        branches = tracts.inverse_branches

        def counted(m, c, ns, ws):
            rows.append(len(ws))
            return branches(m, c, ns, ws)

        monkeypatch.setattr(tracts, "inverse_branches", counted)
        with pytest.raises(BranchSelectionError):
            rays.trace_segment(EXP, cfg_exp, ZERO, 1e-4, 1e-4, 1)
        assert 0 < len(rows) < 10 and all(rows)


class TestExtraction:
    def test_round_trip(self, cfg_exp):
        z = rays.trace_ray(EXP, cfg_exp, ZERO, 2.0).z
        ext = rays.extract_potential_address(EXP, cfg_exp, z)
        assert ext.t == pytest.approx(2.0, rel=1e-9)
        assert all(s == 0 for s in ext.prefix)
        assert len(ext.prefix) >= 3

    def test_one_step_strip_readoff(self, cfg_exp):
        z = complex(100.0, 2 * math.pi * 5)
        ext = rays.extract_potential_address(EXP, cfg_exp, z)
        assert ext.prefix[0] == 5

    def test_bounded_orbit_not_escaping(self):
        m = PolyExpMap(1, [-10.0])
        cfg = tracts.make_tract_config(m)
        with pytest.raises(NotEscapingError) as err:
            rays.extract_potential_address(m, cfg, 0.0)
        assert len(err.value.orbit) > 4

    def test_residual_small_on_ray_points(self, cfg_d2):
        addr = ExternalAddress((), (2, 0))
        z = rays.trace_ray(D2, cfg_d2, addr, 1.5).z
        ext = rays.extract_potential_address(D2, cfg_d2, z)
        assert ext.t == pytest.approx(1.5, rel=1e-9)
        assert ext.prefix[: 2] == (2, 0)

    def test_random_round_trips_all_degrees(self):
        from rayforge import presets

        rng = np.random.default_rng(20)
        for _ in range(24):
            d = int(rng.integers(1, 4))
            m = {1: presets.EXP_MAP, 2: presets.D2_MAP, 3: presets.D3_MAP}[d]
            cfg = tracts.make_tract_config(m)
            entries = tuple(int(x) for x in rng.integers(-3, 4, rng.integers(1, 4)))
            addr = ExternalAddress((), entries)
            t = float(rng.uniform(1.0, 4.0))
            pt = rays.trace_ray(m, cfg, addr, t)
            ext = rays.extract_potential_address(m, cfg, pt.z)
            assert abs(ext.t - t) <= 1e-6 * max(1.0, t)
            want = tuple(addr.entry(k) for k in range(len(ext.prefix)))
            assert ext.prefix == want


class TestMonotone:
    def test_real_segment_onset_zero(self, cfg_exp):
        seg = rays.trace_segment(EXP, cfg_exp, ZERO, 1.0, 5.0, 16)
        onset, _, violations = check_monotone(seg, EXP, 6)
        assert onset == 0
        assert violations == {}

    def test_single_point_vacuous(self, cfg_exp):
        seg = rays.trace_segment(EXP, cfg_exp, ZERO, 2.0, 2.0, 1)
        onset, _, _ = check_monotone(seg, EXP, 4)
        assert onset == 0

    def test_mixed_sign_address_small_onset(self, cfg_d2):
        addr = ExternalAddress((), (1, -1))
        seg = rays.trace_segment(D2, cfg_d2, addr, 1.0, 3.0, 12)
        onset, _, violations = check_monotone(seg, D2, 6)
        assert onset <= 3
        assert all(n < onset for n in violations)

    def test_overflow_truncates_horizon(self, cfg_exp):
        seg = rays.trace_segment(EXP, cfg_exp, ZERO, 4.0, 5.0, 4)
        _, horizon, _ = check_monotone(seg, EXP, 50)
        assert horizon < 50
