import cmath
import inspect
import json
import math
import time

import mpmath
import numpy as np
import pytest

from rayforge import potentials as pot
from rayforge import config, presets, rays, serialize, thurston, tracts
from rayforge.errors import (
    InvariantViolationError,
    NotConvergedError,
    RayforgeError,
    SpecRejectionError,
    UnsupportedHomotopyError,
)
from rayforge.polyexp import PolyExpMap
from rayforge.potentials import ExternalAddress
from rayforge.thurston import TargetSpec

from oracles import jittered_classify, plain_pullback, scalar_pullback_grid

ZERO = presets.ZERO
ONE = presets.ONE


class TestValidate:
    def test_too_many_orbits(self):
        spec = TargetSpec(2, ((2.0, ZERO), (2.5, ONE), (3.0, presets.MIXED)), 2)
        with pytest.raises(SpecRejectionError, match="at most"):
            thurston.validate_spec(spec)

    def test_depth_overflow_advises(self):
        # J* = 3 for T = 2: a J above it is rejected, naming J and J*.
        spec = TargetSpec(1, ((2.0, ZERO),), 6)
        with pytest.raises(SpecRejectionError) as err:
            thurston.validate_spec(spec)
        assert str(err.value) == (
            "grid depth J must be in 1..J*, got J = 6 with J* = 3; leave J out to solve at J*"
        )
        assert spec.depth == 3

    def test_depth_checked_after_towers_before_overlap(self):
        # One J check, after the per-orbit tower checks and before the
        # cluster and overlap checks: J = 0 on an otherwise valid spec, and
        # J = J* + 1 on a spec whose addresses also overlap, both name J.
        valid = ((2.0, ZERO), (2.5, ONE))
        overlapping = ((2.0, ZERO), (2.5, ExternalAddress((5,), (0,))))
        for orbits, J in ((valid, 0), (overlapping, 3)):
            with pytest.raises(SpecRejectionError, match="^grid depth J must be in 1..J\\*, "):
                thurston.validate_spec(TargetSpec(2, orbits, J))
        with pytest.raises(SpecRejectionError, match="overlap"):
            thurston.validate_spec(TargetSpec(2, overlapping, 2))
        # A tower check still comes first: T = 800 overflows at level 1.
        with pytest.raises(SpecRejectionError, match="level 1, which leaves no grid level"):
            thurston.validate_spec(TargetSpec(1, ((800.0, ZERO),), 0))

    def test_stalled_speed_tower_rejected_before_chains(self):
        # step(1, 1e-300) rounds to 1e-300: the tower stops at classify's depth limit,
        # and no grid-depth speeds are built.
        spec = TargetSpec(1, ((1e-300, ZERO),), 100_000)
        with pytest.raises(SpecRejectionError, match="does not grow in double precision"):
            thurston.validate_spec(spec)
        assert not {"strips", "straight"} & vars(spec).keys()

    def test_one_ulp_tower_rejected_before_any_pullback(self, monkeypatch):
        # step(1, 1e-15) adds about an ulp, so the tower is still under CAP at
        # level 128, and no pullback can mend that.
        def no_pullback(spec, map_, z):
            raise AssertionError("a rejected spec reached the pullback")

        monkeypatch.setattr(thurston, "pullback_step", no_pullback)
        spec = TargetSpec(1, ((1e-15, ZERO),), 100_000)
        with pytest.raises(SpecRejectionError) as err:
            thurston.classify(spec)
        assert str(err.value).startswith("orbit 0 (T=1e-15): its speed does not grow")
        assert (
            f"within {thurston.config.CLASSIFY_DEPTH_LIMIT} levels, classify's grid-depth "
            "bound; use a larger potential"
        ) in str(err.value)

    def test_overflow_at_level_1_rejected(self):
        # d*T = 800 overflows at the first step: no grid level is left.
        with pytest.raises(SpecRejectionError, match="level 1, which leaves no grid level"):
            thurston.validate_spec(TargetSpec(1, ((800.0, ZERO),)))

    def test_infinite_cluster_diagnostic(self):
        with pytest.raises(SpecRejectionError, match="cluster"):
            thurston.validate_spec(presets.CLUSTER_REJECT)

    def test_distinct_speeds_have_finite_clusters(self):
        assert not pot.detect_clusters(presets.CLUSTER_ACCEPT_ORBITS, 3, 2)

    def test_overlapping_addresses_rejected(self):
        spec = TargetSpec(2, ((2.0, ZERO), (2.5, ExternalAddress((5,), (0,)))), 2)
        with pytest.raises(SpecRejectionError, match="overlap"):
            thurston.validate_spec(spec)

    def test_shipped_specs_validate(self):
        thurston.validate_spec(presets.SPEC_D1)
        thurston.validate_spec(presets.SPEC_D2)

    def test_long_periods_classify_as_their_minimal_periods(self):
        # (0)x10007 and (1)x10009 are the sequences (0) and (1), written
        # with periods whose lcm is about 1e8 levels: they classify to the
        # same map bits, in about the time the short spec takes.
        short = thurston.classify(TargetSpec(2, ((1.0, ZERO), (1.0, ONE))))
        long_spec = TargetSpec(
            2, ((1.0, ExternalAddress((), (0,) * 10007)), (1.0, ExternalAddress((), (1,) * 10009)))
        )
        start = time.perf_counter()
        res = thurston.classify(long_spec)
        assert time.perf_counter() - start < 5
        assert short.certificate.passed
        assert res.map.coeffs == short.map.coeffs
        assert res.certificate == short.certificate

    def test_long_equal_length_periods_validate_quickly(self):
        # Two 40,009-entry periods that are not rotations of each other: the
        # overlap test is one linear text search, not a test of every rotation.
        spec = TargetSpec(2, (
            (1.0, ExternalAddress((), (0,) * 40008 + (1,))),
            (1.5, ExternalAddress((), (0,) * 40007 + (1, 1))),
        ))
        start = time.perf_counter()
        thurston.validate_spec(spec)
        assert time.perf_counter() - start < 2

    def test_coprime_periods_validate_without_a_level_walk(self, monkeypatch):
        # Periods of 2003 and 2011 entries over disjoint alphabets never
        # agree; their lcm has 4,028,033 levels, and validation reads no
        # entry level by level.
        a = ExternalAddress((), tuple(k % 2 for k in range(2003)))
        b = ExternalAddress((), tuple(2 + k % 2 for k in range(2011)))
        reads = []
        entry = ExternalAddress.entry
        monkeypatch.setattr(ExternalAddress, "entry", lambda addr, n: reads.append(n) or entry(addr, n))
        thurston.validate_spec(TargetSpec(2, ((1.0, a), (1.0, b))))
        assert len(reads) < 2003


class TestInitState:
    def test_straight_grid_values(self):
        map_, z = thurston.init_state(presets.SPEC_D1)
        # chained speed steps from T = 2 (50-digit values, rounded)
        assert z[0, 0] == pytest.approx(2.0)
        assert z[0, 1] == pytest.approx(6.3890560989306502, rel=1e-14)
        assert z[0, 2] == pytest.approx(594.29441538075368, rel=1e-14)
        assert z[0, 3] == pytest.approx(1.2554089653312633e258, rel=1e-13)
        assert map_.coeffs[0] == pytest.approx(2.0)

    def test_offsets_follow_addresses(self):
        _, z = thurston.init_state(presets.SPEC_D2)
        assert z[1, 0] == pytest.approx(2.5 + 1j * math.pi)
        assert z[1, 1].imag == pytest.approx(math.pi)

    def test_far_tail_beyond_cap(self):
        # log|w| = step^3(2) for d = 1, so z0 = log|w| in strip s_3 = 0
        pulls, _, seeds, far = presets.SPEC_D1.tail
        far = dict(far)
        assert not pulls[:, -1].any() and list(far) == [0]
        assert not seeds.any()  # no complex seed; 0 on the far orbit
        assert far[0].real == pytest.approx(1.2554089653312633e258, rel=1e-13)
        assert far[0].imag == 0.0

    def test_tail_complex_when_representable(self):
        # The chains differ in length: orbit 0 sets J* = 2, and orbit 1's
        # level-3 point still lies under the float-range limit.
        spec = TargetSpec(2, ((1.5, ZERO), (0.5, ONE)))
        pulls, _, seeds, far = spec.tail
        far, seeded = dict(far), np.flatnonzero(pulls[:, -1]).tolist()
        assert spec.depth == 2 and list(far) == [0] and seeded == [1]
        assert isinstance(seeds[1], complex)
        assert seeds[1] == pot.straight_point(2, pot.step(2, spec.towers[1][2]), 1)

    def test_tail_seeds_are_the_towers_next_level(self):
        # Orbit i gets a complex seed exactly when its tower reaches level
        # depth+1, bit for bit the straight point there; the far orbits are
        # those whose next step passes the float-range limit.
        rng = np.random.default_rng(30)
        for _ in range(400):
            d = int(rng.integers(1, 4))
            orbits = tuple(
                (float(rng.uniform(0.3, 5.0)), ExternalAddress((), (int(rng.integers(-2, 3)),)))
                for _ in range(int(rng.integers(1, d + 1)))
            )
            deepest = TargetSpec(d, orbits).depth
            spec = TargetSpec(d, orbits, int(rng.integers(1, deepest + 1)))
            pulls, strips, seeds, far = spec.tail
            far = dict(far)
            # every grid point but the far tail is pulled, in row-major order
            assert pulls[:, :-1].all() and np.array_equal(strips, spec.strips[:, :-1][pulls])
            for i, tower in enumerate(spec.towers):
                if len(tower) > spec.depth + 1:
                    s = spec.orbits[i][1].entry(spec.depth + 1)
                    seed = pot.straight_point(d, tower[spec.depth + 1], s)
                    assert i not in far and pulls[i, -1]
                    assert (seeds[i].real.hex(), seeds[i].imag.hex()) == (
                        seed.real.hex(), seed.imag.hex()
                    )
                else:
                    assert not pulls[i, -1] and seeds[i] == 0 and i in far
                    # log|w_i| = log(step(d, t)) = d*t + log1p(-e^(-d*t)) is
                    # d*t in double precision past the float-range limit
                    x = d * tower[spec.depth]
                    assert x > math.log(config.CAP)
                    assert x + math.log1p(-math.exp(-x)) == x
                    assert far[i].real == x / d


class TestFitMap:
    def test_d1_direct(self):
        m = thurston.fit_map(1, [1 + 1j])
        assert m.coeffs == (1 + 1j,)

    def test_d2_closed_form(self):
        m = thurston.fit_map(2, [1.0, 0.0], warm=PolyExpMap(2, [0.0, 1.0]))
        assert m.coeffs[0] == pytest.approx(1.0)
        assert m.coeffs[1] == pytest.approx(2.0)

    def test_d2_round_trip(self):
        rng = np.random.default_rng(3)
        warm = PolyExpMap(2, [0.1, 0.1])
        for _ in range(50):
            targets = [complex(*rng.uniform(-3, 3, 2)) for _ in range(2)]
            m = thurston.fit_map(2, targets, warm=warm)
            sd = m.singular_data()
            assert abs(sd.asymptotic_value - targets[0]) < 1e-10
            assert min(abs(cv - targets[1]) for cv in sd.critical_values) < 1e-9

    def test_d2_sign_follows_warm_start(self):
        warm_pos = PolyExpMap(2, [0.0, 1.0])
        warm_neg = PolyExpMap(2, [0.0, -1.0])
        a = thurston.fit_map(2, [1.0, 0.0], warm=warm_pos)
        b = thurston.fit_map(2, [1.0, 0.0], warm=warm_neg)
        assert a.coeffs[1] == pytest.approx(2.0)
        assert b.coeffs[1] == pytest.approx(-2.0)

    def test_d2_branch_tie_flagged(self):
        import warnings as w

        warm_zero = PolyExpMap(2, [0.0, 0.0])
        with w.catch_warnings(record=True) as caught:
            w.simplefilter("always")
            m = thurston.fit_map(2, [1.0, 0.0], warm=warm_zero)
        assert m.coeffs[1] == pytest.approx(2.0)  # principal branch kept
        assert any("tie" in str(c.message) for c in caught)

    def test_degrees_above_2_rejected(self):
        for d in (3, 4):
            targets = [0.1 * (k + 1) for k in range(d)]
            for warm in (None, PolyExpMap(d, [0.5] * d)):
                with pytest.raises(SpecRejectionError, match=f"degrees 1 and 2.*degree {d}$"):
                    thurston.fit_map(d, targets, warm=warm)


class TestPullback:
    def test_fixed_point_has_tiny_delta(self, monkeypatch):
        # converge to the machine fixed point; one more step moves nothing
        monkeypatch.setattr(config, "CLASSIFY_MAX_ITER", 200)
        monkeypatch.setattr(config, "CLASSIFY_TOL", 1e-15)
        res = thurston.classify(presets.SPEC_D1)
        _, _, delta = thurston.pullback_step(presets.SPEC_D1, res.map, res.z)
        assert delta < 1e-12

    def test_deltas_decrease_geometrically(self):
        # the plain operator contracts; classify's mixed deltas are not this
        res = plain_pullback(presets.SPEC_D1)
        dl = res.deltas
        for k in range(3, len(dl) - 1):
            if dl[k] == 0:
                break
            assert dl[k + 1] / dl[k] < 0.9

    def test_grid_is_orbit_at_fixed_point(self, monkeypatch):
        monkeypatch.setattr(config, "CLASSIFY_TOL", 1e-12)
        res = thurston.classify(presets.SPEC_D1)
        z = res.z
        for j in range(presets.SPEC_D1.depth):
            lhs = res.map(complex(z[0, j]))
            rhs = complex(z[0, j + 1])
            assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(rhs))


class TestBatchedPullback:
    """pullback_step pulls all grid points in one call; it must match the
    point-by-point loop bit for bit, and raise that loop's first error."""

    # Strip-odd branches of this map miss their strip for the seed 16+20i
    # although it lies right of the singular values (r_min = 8).
    MAP = PolyExpMap(2, [8 + 3j, -13 + 9j])
    MISS = 16 + 20j
    LEFT = 5 + 0j

    def _state(self, row0):
        spec = TargetSpec(2, ((1.0, ONE), (1.2, ZERO)), 2)
        z = spec.straight.copy()
        z[0, 1:] = row0
        return spec, self.MAP, z

    def _assert_same_error(self, state, kind, point):
        with pytest.raises(kind) as want:
            scalar_pullback_grid(*state)
        with pytest.raises(kind) as got:
            thurston.pullback_step(*state)
        assert str(got.value) == str(want.value)
        assert point in str(got.value)

    def test_branch_failure_before_left_seed(self):
        # (0,0) misses its strip, (0,1) has a seed left of the singular values
        state = self._state([self.MISS, self.LEFT])
        self._assert_same_error(state, UnsupportedHomotopyError, "(0,0)")

    def test_left_seed_before_branch_failure(self):
        # (0,0) has a seed left of the singular values, (0,1) misses its strip
        state = self._state([self.LEFT, self.MISS])
        self._assert_same_error(state, InvariantViolationError, "(0,1)")

    def test_two_branch_failures_report_the_first(self):
        state = self._state([self.MISS, self.MISS * 1.5])
        self._assert_same_error(state, UnsupportedHomotopyError, "(0,0)")

    @pytest.mark.parametrize("spec", [presets.SPEC_D1, presets.SPEC_D2])
    def test_grid_bitwise_equal_to_loop(self, spec):
        map_, z = thurston.init_state(spec)
        for _ in range(3):
            want = scalar_pullback_grid(spec, map_, z)
            map_, z, _ = thurston.pullback_step(spec, map_, z)
            assert np.array_equal(z.view(np.int64), want.view(np.int64))

    # Shortest towers that end by each of potentials.chain's stop rules,
    # d*t > EXP_ARG_LIMIT ("exp-arg"; d = 1, T = 2 ends at 1.26e258) or
    # step(d, t) > CAP ("cap"; the last speed is 695 at d = 1, 347.5 at d = 2,
    # so log|w| = d*t < 700 and the far point keeps its tiny argument), with
    # the orbits whose frozen level is a complex seed; the rest are far.
    FAR_TAILS = {
        "d1-exp-arg": (1, ((2.0, ExternalAddress((), (0, 1))),), "exp-arg", []),
        "d1-cap": (1, ((math.log1p(695.0), ExternalAddress((), (1, 0))),), "cap", []),
        "d2-exp-arg": (2, ((2.0, ZERO), (2.5, ONE)), "exp-arg", []),
        "d2-cap": (2, ((math.log1p(347.5) / 2, ExternalAddress((), (0, 1))), (2.5, ONE)),
                   "cap", [1]),
        "d2-seed-and-far": (2, ((1.5, ZERO), (0.5, ONE)), "exp-arg", [1]),
    }

    @pytest.mark.parametrize("name", list(FAR_TAILS))
    def test_far_tail_grid_bitwise_equal_to_loop(self, name):
        d, orbits, rule, seeded = self.FAR_TAILS[name]
        spec = TargetSpec(d, orbits)
        t = min(spec.towers, key=len)[-1]
        assert (d * t > config.EXP_ARG_LIMIT) == (rule == "exp-arg")
        assert rule == "exp-arg" or pot.step(d, t) > config.CAP
        pulls, _, _, far = spec.tail
        assert np.flatnonzero(pulls[:, -1]).tolist() == seeded
        assert sorted(i for i, _ in far) == sorted(set(range(spec.m)) - set(seeded))
        map_, z = thurston.init_state(spec)
        for _ in range(3):
            want = scalar_pullback_grid(spec, map_, z)
            map_, z, _ = thurston.pullback_step(spec, map_, z)
            assert np.array_equal(z.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("preset", [presets.SPEC_D1, presets.SPEC_D2], ids=["d1", "d2"])
    def test_step_reads_cached_speeds(self, preset, monkeypatch):
        # The frozen tail comes from the spec's cached towers: once the state
        # exists, a pullback step builds no speed chain.
        spec = TargetSpec(preset.d, preset.orbits, preset.depth)
        map_, z = thurston.init_state(spec)

        def no_chain(*args, **kwargs):
            raise AssertionError("pullback_step rebuilt a speed chain")

        monkeypatch.setattr(pot, "chain", no_chain)
        want = scalar_pullback_grid(spec, map_, z)
        _, got, _ = thurston.pullback_step(spec, map_, z)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("preset", [presets.SPEC_D1, presets.SPEC_D2], ids=["d1", "d2"])
    def test_per_spec_tables_are_read_only(self, preset):
        # The strip table, the straight grid and the pull record's arrays
        # refuse writes, so a failed write leaves classify's bits as they were.
        spec = TargetSpec(preset.d, preset.orbits, preset.J)
        want = thurston.classify(TargetSpec(preset.d, preset.orbits, preset.J))
        pulls, strips, seeds, _ = spec.tail
        for table in (spec.strips, spec.straight, pulls, strips, seeds):
            first = (0,) * table.ndim
            with pytest.raises(ValueError):
                table[first] = ~table[first] if table.dtype == bool else table[first] + 1
        got = thurston.classify(spec)
        assert got.map.coeffs == want.map.coeffs and got.deltas == want.deltas
        assert len(got.iterate_log) == len(want.iterate_log)
        for a, b in zip(got.iterate_log, want.iterate_log):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))

    @pytest.mark.parametrize("preset", [presets.SPEC_D1, presets.SPEC_D2], ids=["d1", "d2"])
    def test_classify_certifies_per_step(self, preset, monkeypatch):
        # Every pullback step certifies its own map, and verify the result.
        calls = {"builds": [], "steps": [], "verify": []}

        def counted(name, fn, arg=0):
            # records the map argument: pullback_step takes it second
            def wrapper(*args, **kwargs):
                calls[name].append(args[arg])
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(tracts, "make_tract_config", counted("builds", tracts.make_tract_config))
        monkeypatch.setattr(thurston, "pullback_step", counted("steps", thurston.pullback_step, 1))
        monkeypatch.setattr(thurston, "verify", counted("verify", thurston.verify))
        res = thurston.classify(preset)
        assert res.certificate.passed
        assert calls["builds"] == calls["steps"] + calls["verify"]
        assert len(calls["verify"]) == 1 < len(res.deltas) <= len(calls["steps"])


class TestFarTailPullback:
    """The first-order pullback of a frozen seed beyond the float range."""

    def test_overflowing_exp_drops_correction(self):
        # z0 = log(w)/d in strip n; e^z0 overflows, so z0 is the answer
        exp_map = PolyExpMap(1, [0.0])
        assert thurston._far_tail_pullback(exp_map, complex(1e6, 0.0)) == 1e6
        z0 = complex(800.0, 4 * math.pi)
        assert thurston._far_tail_pullback(PolyExpMap(1, [0.5]), z0) == z0

    def test_matches_exact_root_path_at_700(self):
        # w = exp(700 + 0.1i) is still a float: the exact branch is the check
        m = PolyExpMap(2, [0.3, 0.8])
        cfg = tracts.make_tract_config(m)
        z0 = complex(700.0 / 2, 0.1 / 2 + math.pi)
        exact = tracts.inverse_branch(m, cfg, 1, cmath.rect(math.exp(700.0), 0.1))
        assert abs(thurston._far_tail_pullback(m, z0) - exact) < 1e-12

    @pytest.mark.parametrize("n", [0, 1, -5])
    def test_within_one_ulp_of_mpmath_root(self, n):
        # p = zeta^24 + 40 zeta^23, w = exp(700 + 0.1i): the correction
        # 40/(24 e^z0) ~ 3e-13 is visible, and must carry the strip rotation
        # e^(2 pi i n/d) of e^z0.  The exact z solves p(e^z) = w near z0.
        d, log_abs, arg = 24, 700.0, 0.1
        m = PolyExpMap(d, [0.0] * (d - 1) + [40.0])
        z0 = complex(log_abs / d, arg / d + 2 * math.pi * n / d)
        got = thurston._far_tail_pullback(m, z0)
        with mpmath.workdps(80):
            w = mpmath.exp(mpmath.mpc(log_abs, arg))
            z = mpmath.mpc(z0)
            for _ in range(20):
                e = mpmath.exp(z)
                z -= (e**d + 40 * e ** (d - 1) - w) / (d * e**d + 40 * (d - 1) * e ** (d - 1))
            gap = abs(mpmath.mpc(got) - z)
        assert gap <= math.ulp(max(abs(got.real), abs(got.imag)))


class TestClassify:
    @staticmethod
    def _assert_spec_alone_and_logged(res, spec):
        # classify takes the spec alone, and its log is the straight grid
        # and every pulled grid, ending on the result's grid itself.
        assert list(inspect.signature(thurston.classify).parameters) == ["spec"]
        log = res.iterate_log
        assert np.array_equal(log[0].view(np.int64), spec.straight.view(np.int64))
        assert len(log) == len(res.deltas) + 1
        assert log[-1] is res.z

    def test_d1_shipped_target(self):
        res = thurston.classify(presets.SPEC_D1)
        assert len(res.deltas) <= 50
        assert res.certificate.passed
        kappa = res.map.coeffs[0]
        assert abs(kappa.imag) < 1e-6
        for check in res.certificate.orbits:
            assert check.potential_error < 1e-8
        self._assert_spec_alone_and_logged(res, presets.SPEC_D1)

    def test_d2_shipped_target(self):
        res = thurston.classify(presets.SPEC_D2)
        assert len(res.deltas) <= 50
        assert res.certificate.passed
        self._assert_spec_alone_and_logged(res, presets.SPEC_D2)

    def test_uniqueness_under_grid_perturbation(self):
        base = thurston.classify(presets.SPEC_D2)
        alt = jittered_classify(presets.SPEC_D2, 0.1, 9)
        for a, b in zip(base.map.coeffs, alt.map.coeffs):
            assert abs(a - b) < 1e-8

    def test_grid_matches_ray_tracer(self, monkeypatch):
        # the fixed-point grid equals independently traced ray points
        monkeypatch.setattr(config, "CLASSIFY_TOL", 1e-12)
        res = thurston.classify(presets.SPEC_D1)
        cfg = tracts.make_tract_config(res.map)
        values = pot.chain(1, 2.0, max_len=3)
        for j, tj in enumerate(values):
            pt = rays.trace_ray(res.map, cfg, ZERO, tj)
            assert abs(pt.z - complex(res.z[0, j])) < 1e-6

    def test_nonconvergence_carries_history(self, monkeypatch):
        monkeypatch.setattr(config, "CLASSIFY_MAX_ITER", 2)
        with pytest.raises(NotConvergedError) as err:
            thurston.classify(presets.SPEC_D1)
        assert isinstance(err.value.details, list) and len(err.value.details) == 2

    def test_depth_stability_of_certificate(self):
        # J does not truncate the grid: J = 1, 2 and 6 all solve at J* = 6
        # (a small potential, where a grid cut at level 1 or 2 gives another
        # map) and give the map and certificate of J left out, bit for bit.
        want = thurston.classify(TargetSpec(1, ((0.5, ZERO),)))
        assert want.certificate.passed
        for depth in (1, 2, 6):
            res = thurston.classify(TargetSpec(1, ((0.5, ZERO),), depth))
            assert res.map.coeffs == want.map.coeffs
            assert res.certificate == want.certificate


def _coeff_gap(a, b):
    return max(abs(x - y) for x, y in zip(a.map.coeffs, b.map.coeffs))


# Newly certified by the mixed iteration: the plain iteration contracts by
# only about 0.7 per step on the first (at its J* = 6) and stops short of
# 1e-10 in 50 steps; on the second it converges, but its map fails the
# prefix check (2/3).
SLOW_D1 = TargetSpec(1, ((0.5, ZERO),))
PREFIX_D2 = TargetSpec(2, ((1.3276, ONE), (2.1696, ExternalAddress((), (0, 0)))), 2)


class TestAndersonMixing:
    @pytest.mark.parametrize(
        "spec, most", [(presets.SPEC_D1, 7), (presets.SPEC_D2, 6)], ids=["d1", "d2"]
    )
    def test_shipped_specs_take_few_steps(self, spec, most, monkeypatch):
        plain = plain_pullback(spec)
        calls = []
        step = thurston.pullback_step
        monkeypatch.setattr(
            thurston, "pullback_step", lambda *state: calls.append(state) or step(*state)
        )
        res = thurston.classify(spec)
        assert len(calls) == len(res.deltas) <= most
        assert res.certificate.passed
        assert _coeff_gap(res, plain) < 1e-9

    def test_failed_mixed_pullback_falls_back_to_plain_step(self, monkeypatch):
        # The first pullback of a grid that no earlier step returned (a mixed
        # grid) raises; the safeguard drops the history and steps on from the
        # last pulled grid.
        spec = presets.SPEC_D2
        plain = plain_pullback(spec)
        grids, pulled, raised = [], [], []
        step = thurston.pullback_step

        def first_mixed_raises(spec, map_, z):
            grids.append(z)
            if pulled and not raised and all(z is not p for _, p, _ in pulled):
                raised.append(len(grids) - 1)
                raise InvariantViolationError("forced failure of a mixed pullback")
            pulled.append(step(spec, map_, z))
            return pulled[-1]

        monkeypatch.setattr(thurston, "pullback_step", first_mixed_raises)
        res = thurston.classify(spec)
        assert raised
        # every call before the failure returned, and the next call pulls
        # the last of their grids again
        k = raised[0]
        assert grids[k + 1] is pulled[k - 1][1]
        assert len(res.deltas) == len(pulled)
        assert res.certificate.passed
        assert _coeff_gap(res, plain) < 1e-9

    def test_growing_mixed_step_falls_back_to_plain_step(self, monkeypatch):
        # The first pullback of a mixed grid reports a displacement larger
        # than the step before: the next two grids are the pulled ones (the
        # plain step, then a plain step again while the history refills).
        spec = presets.SPEC_D2
        plain = plain_pullback(spec)
        states, pulled, grown = [], [], []
        step = thurston.pullback_step

        def first_mixed_grows(spec, map_, z):
            states.append(z)
            out = step(spec, map_, z)
            if pulled and not grown and all(z is not p for _, p, _ in pulled):
                grown.append(len(states) - 1)
                out = (*out[:2], 2 * pulled[-1][2])
            pulled.append(out)
            return out

        monkeypatch.setattr(thurston, "pullback_step", first_mixed_grows)
        res = thurston.classify(spec)
        k = grown[0]
        assert states[k + 1] is pulled[k][1] and states[k + 2] is pulled[k + 1][1]
        assert res.certificate.passed
        assert _coeff_gap(res, plain) < 1e-9

    def test_no_mixed_grid_without_weights(self):
        spec = presets.SPEC_D2
        map_, z = thurston.init_state(spec)
        map_one, one, _ = thurston.pullback_step(spec, map_, z)
        map_two, two, _ = thurston.pullback_step(spec, map_one, one)
        pairs = [(z, one), (one, two)]
        assert thurston._anderson_mix(pairs, spec.d, map_two) is not None
        # equal residuals leave the mixing system singular
        assert thurston._anderson_mix([pairs[0], pairs[0]], spec.d, map_one) is None

    @pytest.mark.parametrize("bad", [1e200, math.inf, math.nan])
    def test_no_mixed_grid_from_non_finite_sums(self, bad):
        # An entry of 1e200 overflows the Gram matrix, and inf or NaN make it
        # invalid: the plain step goes on, and no RuntimeWarning escapes.
        spec = presets.SPEC_D2
        map_, z = thurston.init_state(spec)
        map_one, one, _ = thurston.pullback_step(spec, map_, z)
        map_two, two, _ = thurston.pullback_step(spec, map_one, one)
        far = two.copy()
        far.flat[1] = bad
        pairs = [(z, one), (one, far)]
        assert thurston._anderson_mix(pairs, spec.d, map_two) is None

    def test_certifies_every_spec_the_plain_iteration_certifies(self):
        rng = np.random.default_rng(11)

        def address():
            period = rng.integers(-1, 2, size=rng.integers(1, 3))
            return ExternalAddress((), tuple(int(s) for s in period))

        plain_certified = 0
        for k in range(48):
            d = 1 + k % 2
            ts = [float(t) for t in rng.uniform(0.8, 3.0, d)]
            depth = min(len(pot.chain(d, t)) - 1 for t in ts)
            while True:
                spec = TargetSpec(d, tuple((t, address()) for t in ts), depth)
                try:
                    thurston.validate_spec(spec)
                    break
                except SpecRejectionError:
                    pass
            try:
                plain = plain_pullback(spec)
            except RayforgeError:
                continue
            if not plain.certificate.passed:
                continue
            plain_certified += 1
            res = thurston.classify(spec)
            assert res.certificate.passed, spec
            assert _coeff_gap(res, plain) < 1e-9, spec
        assert plain_certified >= 30

    def test_slow_contraction_spec_certified(self):
        with pytest.raises(NotConvergedError):
            plain_pullback(SLOW_D1)
        res = thurston.classify(SLOW_D1)
        assert res.certificate.passed
        assert res.certificate.orbits[0].potential_error < 1e-10

    def test_prefix_spec_certified_from_any_start(self):
        assert not plain_pullback(PREFIX_D2).certificate.passed
        res = thurston.classify(PREFIX_D2)
        assert res.certificate.passed
        alt = jittered_classify(PREFIX_D2, 0.1, 1)
        assert alt.certificate.passed
        assert _coeff_gap(res, alt) < 1e-12


class TestVerify:
    def test_wrong_map_fails(self):
        res = thurston.classify(presets.SPEC_D1)
        wrong = PolyExpMap(1, [res.map.coeffs[0] + 1.0])
        cert = thurston.verify(wrong, presets.SPEC_D1)
        assert not cert.passed

    def test_right_map_passes(self):
        res = thurston.classify(presets.SPEC_D2)
        cert = thurston.verify(res.map, presets.SPEC_D2)
        assert cert.passed
        assert all(c.escaped for c in cert.orbits)

    def test_nonescaping_singular_value_reported(self):
        cert = thurston.verify(PolyExpMap(1, [-10.0]), presets.SPEC_D1)
        assert not cert.passed
        assert any("escape" in note or "orbit" in note for note in cert.notes)


MARGINS = ("inside_disk_margin", "pullback_real_part_margin", "derivative_domain_margin")


def _margins(grid, spec) -> dict[str, float]:
    rep = thurston.invariant_set_diagnostics(grid, spec)
    return {name: getattr(rep, name) for name in MARGINS}


class TestDiagnostics:
    def test_straight_state_passes_all(self):
        _, z = thurston.init_state(presets.SPEC_D2)
        assert all(v > 0 for v in _margins(z, presets.SPEC_D2).values())

    def test_converged_run_passes_all(self):
        res = thurston.classify(presets.SPEC_D1)
        for grid in res.iterate_log:
            assert all(v > 0 for v in _margins(grid, presets.SPEC_D1).values())

    def test_no_points_holds_vacuously(self):
        # Every image z[i, 1] far outside the marked disk: no point is in
        # the derivative domain, so its margin is +inf, null on the wire.
        grid = presets.SPEC_D2.straight.copy()
        grid[:, 1] = 1e6
        rep = thurston.invariant_set_diagnostics(grid, presets.SPEC_D2)
        assert rep.derivative_domain_margin == math.inf
        assert json.loads(serialize.dumps(rep))["derivative_domain_margin"] is None

    def test_every_validated_spec_has_a_ladder_midpoint(self):
        # rho falls back to the ladder's first midpoint, which exists: a
        # validated spec has depth >= 1, so two distinct rungs or more.
        rng = np.random.default_rng(45)
        accepted = 0
        for _ in range(600):
            d = int(rng.integers(1, 6))
            orbits = tuple(
                (
                    float(10 ** rng.uniform(-2, math.log10(5))),
                    ExternalAddress((), tuple(rng.integers(-2, 3, rng.integers(1, 3)).tolist())),
                )
                for _ in range(rng.integers(1, d + 1))
            )
            spec = TargetSpec(d, orbits)
            try:
                thurston.validate_spec(spec)
            except SpecRejectionError:
                continue
            accepted += 1
            assert spec.ladder.midpoints, spec
        assert accepted >= 300


class TestMarginSigns:
    """Moving one point of a hand-built grid just across one condition's
    boundary flips that margin's sign and no other.

    The grid is the straight grid of SPEC_D2: rho ~ 28.05 puts level 0
    alone inside (speeds 2.0 and 2.5; level 1 is at 53.6 and 147.4), the
    images z[i, 1] lie in the marked disk, and the derivative bound is
    (d+1)*t_n = 3 * 2.5, with t_n = 2.5 the largest potential below rho.
    """

    SPEC = presets.SPEC_D2

    def _flipped(self, grid, point, inside, outside) -> set[str]:
        signs = []
        for z in (inside, outside):
            moved = grid.copy()
            moved[point] = z
            margins = _margins(moved, self.SPEC)
            signs.append({name: v > 0 for name, v in margins.items()})
        assert all(signs[0].values())
        return {name for name in MARGINS if signs[0][name] != signs[1][name]}

    def test_inside_disk(self):
        grid = self.SPEC.straight.copy()
        rho = thurston.invariant_set_diagnostics(grid, self.SPEC).rho
        # On the imaginary axis, so the real-part conditions stay far off.
        flipped = self._flipped(grid, (0, 0), 1j * rho * (1 - 1e-9), 1j * rho * (1 + 1e-9))
        assert flipped == {"inside_disk_margin"}

    def test_pullback_real_part(self):
        grid = self.SPEC.straight.copy()
        rho = thurston.invariant_set_diagnostics(grid, self.SPEC).rho
        # Image z[0, 1] outside the marked disk, so z[0, 0] leaves the
        # derivative domain and only the inside conditions read it.
        grid[0, 1] = 1e6
        half = rho / 2
        flipped = self._flipped(grid, (0, 0), half * (1 - 1e-9), half * (1 + 1e-9))
        assert flipped == {"pullback_real_part_margin"}

    def test_derivative_domain(self):
        grid = self.SPEC.straight.copy()
        bound = 3 * 2.5
        assert _margins(grid, self.SPEC)["derivative_domain_margin"] == bound - 2.5
        im = grid[1, 0].imag
        flipped = self._flipped(
            grid, (1, 0), complex(bound * (1 - 1e-9), im), complex(bound * (1 + 1e-9), im)
        )
        assert flipped == {"derivative_domain_margin"}
