import math

import numpy as np
import pytest

from oracles import ladder_threshold_by_search
from rayforge import config
from rayforge import potentials as pot
from rayforge.errors import DomainError, OverflowSignal
from rayforge.potentials import ExternalAddress


class TestStep:
    def test_fixed_at_zero(self):
        assert pot.step(1, 0.0) == 0.0

    def test_d1_t1(self):
        assert pot.step(1, 1.0) == pytest.approx(math.e - 1, rel=1e-15)

    def test_d2_t3(self):
        # exp(6) - 1 at 50-digit precision, rounded to double
        assert pot.step(2, 3.0) == pytest.approx(402.42879349273512261, rel=1e-15)

    def test_overflow_signals(self):
        # expm1 overflows just above log(DBL_MAX) = 709.78
        for t in (709.9, 800.0):
            with pytest.raises(OverflowSignal, match="float range"):
                pot.step(1, t)
        assert math.isfinite(pot.step(1, 709.78))

    def test_bad_degree(self):
        with pytest.raises(DomainError):
            pot.step(0, 1.0)


class TestInverseStep:
    def test_zero(self):
        assert pot.inverse_step(1, 0.0) == 0.0

    def test_inverse_of_trivial(self):
        assert pot.inverse_step(1, math.e - 1) == pytest.approx(1.0, rel=1e-14)

    def test_large_argument(self):
        # log(1000001)/3 at 50-digit precision
        assert pot.inverse_step(3, 1e6) == pytest.approx(
            4.6051705193212580348, rel=1e-15
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            pot.inverse_step(1, -1.0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_round_trip(self, d):
        for k in range(40):
            t = (k + 1) * (200.0 / d) / 40
            if d * t > 690:
                continue
            back = pot.inverse_step(d, pot.step(d, t))
            assert back == pytest.approx(t, rel=1e-12)


class TestIterate:
    def test_chained_values(self):
        # exp-tower of 1 at 50-digit precision
        assert pot.chain(1, 1.0)[3] == pytest.approx(96.022365565026879911, rel=1e-13)

    def test_overflow_index(self):
        # step^5(1) is past the float-range limit, so the chain stops at level 4
        assert len(pot.chain(1, 1.0)) == 5

    def test_zero_fixed(self):
        assert pot.chain(2, 0.0, max_len=11) == [0.0] * 11

    def test_monotone_in_t(self):
        a, b = pot.chain(1, 1.0), pot.chain(1, 1.1)
        assert len(a) == len(b) == 5
        for x, y in zip(a, b):
            assert y > x

    def test_super_exponential_growth(self):
        # The inequality step^n(1) > exp(n^2) kicks in at n = 4 for d = 1
        # (n = 3 gives 96.0 < exp(9)); the only deeper iterate overflows.
        values = pot.chain(1, 1.0)
        f3, f4 = values[3], values[4]
        assert f4 > math.exp(16)
        assert f4 / math.exp(16) > f3 / math.exp(9)


class TestChainTops:
    """chain_tops gives the depth, last speed and previous speed of
    ``chain``, bit for bit, without the list."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_equal_to_chain(self, d):
        rng = np.random.default_rng(d)
        ts = [float(t) for t in 10.0 ** rng.uniform(-3, 3, 300)]
        # depth 0 by the CAP rule, and by the EXP_ARG_LIMIT rule on both
        # sides; depth 1 by the CAP rule, the step landing on 695/d
        ts += [695.0 / d, 700.0 / d, 701.0 / d, math.log1p(695.0 / d) / d]
        stops = set()
        for max_depth in (config.MAX_TRACE_LEVELS, 3):
            depths, last, prev = pot.chain_tops(d, ts, max_depth)
            for t, n, v, u in zip(ts, depths, last, prev):
                values = pot.chain(d, t, max_len=max_depth + 1)
                assert (n, v, u) == (len(values) - 1, values[-1], values[max(n - 1, 0)])
                if n < max_depth:
                    stops.add(("exp" if d * v > config.EXP_ARG_LIMIT else "cap", n == 0))
        assert stops == {("exp", True), ("exp", False), ("cap", True), ("cap", False)}


class TestAdmissibility:
    def test_bounded_address_admissible_at_small_potential(self):
        # For a bounded address s_n / step^n(t) -> 0 at every t > 0, so the
        # smallest potential on the grid is already admissible.
        a = ExternalAddress((7, -3), (2,))
        admissible = []
        for t in (0.02, 0.1, 0.5, 2.0):
            vals = pot.chain(1, t, max_len=2000)
            n = len(vals) - 1
            if abs(a.entry(n)) / vals[n] < 1e-6:
                admissible.append(t)
        assert admissible and min(admissible) == 0.02

    def test_straight_point(self):
        assert pot.straight_point(2, 1.5, -3) == complex(1.5, -3 * math.pi)


class TestExternalAddress:
    def test_non_integral_entries_rejected(self):
        for bad in ((1.5,), (0, 2.0000001), (float("inf"),), ("1",)):
            with pytest.raises(DomainError, match="integers"):
                ExternalAddress((), bad)
            with pytest.raises(DomainError, match="integers"):
                ExternalAddress(bad, (0,))
        assert ExternalAddress((3.0,), (np.int64(-2),)) == ExternalAddress((3,), (-2,))

    def test_entry_walks_preperiod_then_period(self):
        a = ExternalAddress((7, -3), (2,))
        assert [a.entry(n) for n in range(5)] == [7, -3, 2, 2, 2]

    def test_shift_consistency(self):
        a = ExternalAddress((5,), (1, -2, 3))
        for n in range(3 * 3):
            assert a.shift().entry(n) == a.entry(n + 1)

    def test_shift_rotates_pure_period(self):
        a = ExternalAddress((), (1, 2))
        assert a.shift().period == (2, 1)

    def test_shifted_past_the_preperiod(self):
        a = ExternalAddress((7, -3), (1, 2, 3))
        assert a.shifted(0) == a
        assert a.shifted(2) == ExternalAddress((), (1, 2, 3))
        assert a.shifted(2 + 3 * 1000 + 2) == ExternalAddress((), (3, 1, 2))
        with pytest.raises(DomainError):
            a.shifted(-1)

    def test_overlap_detection(self):
        a = ExternalAddress((), (1, 0))
        b = ExternalAddress((), (0, 1))
        assert a.overlaps(b)
        z = ExternalAddress((), (0,))
        assert not a.overlaps(z)
        c = ExternalAddress((5,), (0,))
        assert c.overlaps(z)
        # (0 1 0 1 0 1) is the sequence (0 1) stored with three times the length.
        assert b.overlaps(ExternalAddress((), (0, 1) * 3))
        assert ExternalAddress((), (0, 1) * 3).overlaps(a)
        assert not ExternalAddress((), (0, 1, 0, 1, 0)).overlaps(b)

    def test_overlap_of_long_equal_length_periods(self):
        # Periods of 40,009 entries with one and two 1s: equal lengths, and
        # no rotation of one is the other.  A rotation of either overlaps it.
        p = (0,) * 40008 + (1,)
        q = (0,) * 40007 + (1, 1)
        a, b = ExternalAddress((), p), ExternalAddress((2,), q)
        assert not a.overlaps(b) and not b.overlaps(a)
        rotated = ExternalAddress((), p[12345:] + p[:12345])
        assert a.overlaps(rotated) and rotated.overlaps(a)

    def test_empty_period_rejected(self):
        with pytest.raises(DomainError):
            ExternalAddress((), ())


def _random_orbit_set(rng):
    """(orbits, d, depth) with d in 1..4 and depth in 0..7; each orbit's T
    is log-uniform in [0.02, 8] or, a quarter of the time, within 1e-13
    relative of an earlier T; address entries lie in -4..4, preperiods
    have length 0..2 and periods length 1..3."""
    d, depth = int(rng.integers(1, 5)), int(rng.integers(0, 8))
    orbits = []
    for _ in range(int(rng.integers(1, 4))):
        t = math.exp(rng.uniform(math.log(0.02), math.log(8.0)))
        if orbits and rng.random() < 0.25:
            t = orbits[int(rng.integers(len(orbits)))][0] * (1 + rng.uniform(-1e-13, 1e-13))
        pre = rng.integers(-4, 5, int(rng.integers(0, 3))).tolist()
        per = rng.integers(-4, 5, int(rng.integers(1, 4))).tolist()
        orbits.append((float(t), ExternalAddress(pre, per)))
    return orbits, d, depth


class TestLadder:
    def test_single_orbit_chain(self):
        lad = pot.build_ladder([(1.0, ExternalAddress((), (0,)))], 1, 2)
        assert lad.potentials == pytest.approx(
            (1.0, 1.7182818284590452, 4.574941524760881), rel=1e-14
        )
        assert lad.midpoints == pytest.approx(
            (1.3591409142295226, 3.1466116766099629), rel=1e-14
        )
        # rungs below 1.72 sit closer than 2 apart, everything above passes
        assert lad.t_prime == pytest.approx(1.7182818284590452, rel=1e-14)

    def test_duplicate_potentials_collapse(self):
        orbits = [
            (1.0, ExternalAddress((), (0,))),
            (1.0, ExternalAddress((), (1,))),
        ]
        lad = pot.build_ladder(orbits, 1, 2)
        assert len(lad.potentials) == 3  # collapsed, shorter than 2 * 3

    def test_depth_zero(self):
        lad = pot.build_ladder([(1.5, ExternalAddress((), (0,)))], 1, 0)
        assert lad.potentials == (1.5,)
        assert lad.midpoints == ()

    def test_sorted_and_interleaved_random(self):
        import numpy as np

        rng = np.random.default_rng(5)
        for _ in range(25):
            m = int(rng.integers(1, 4))
            orbits = [
                (
                    float(rng.uniform(0.3, 3.0)),
                    ExternalAddress((), tuple(rng.integers(-3, 4, rng.integers(1, 4)))),
                )
                for _ in range(m)
            ]
            lad = pot.build_ladder(orbits, int(rng.integers(1, 4)), 3)
            ts = lad.potentials
            assert all(b > a for a, b in zip(ts, ts[1:]))
            for i, r in enumerate(lad.midpoints):
                assert ts[i] < r < ts[i + 1]
            above = [t for t in ts if t > lad.t_prime]
            assert all(b - a > 2 for a, b in zip(above, above[1:]))

    def test_matches_the_candidate_search(self):
        # The keyed threshold equals the one found by re-running the checks
        # per candidate.  Leaving the gap or the pair check out of the search
        # moves t_prime on some draws, so those checks are exercised as well
        # as the midpoint check.
        rng = np.random.default_rng(2024)
        decided = {"gaps": 0, "pairs": 0}
        for k in range(3000):
            orbits, d, depth = _random_orbit_set(rng)
            got = pot.build_ladder(orbits, d, depth)
            ref = ladder_threshold_by_search(orbits, d, depth)
            assert got.potentials == ref.potentials, k
            assert got.midpoints == ref.midpoints, k
            assert got.t_prime == ref.t_prime, k
            for check in decided:
                rest = tuple(c for c in ("gaps", "pairs", "midpoints") if c != check)
                without = ladder_threshold_by_search(orbits, d, depth, rest)
                decided[check] += without.t_prime != ref.t_prime
        # 80 and 65 of the 3,000 draws.
        assert decided["gaps"] >= 20 and decided["pairs"] >= 20, decided


class TestSamePotential:
    def test_old_predicates_on_sorted_positive_pairs(self):
        # the ladder merge and its sampled check compared sorted positive
        # values as b - a > rtol * max(1, b) and > rtol * max(1, a, b)
        rtol = 1e-12
        rng = np.random.default_rng(11)
        a = 10 ** rng.uniform(-3, 300, 4000)
        near = a * (1 + rng.choice([0.0, 0.5, 0.99, 1.0, 1.01, 2.0], 4000) * rtol)
        for x, y in zip(a.tolist(), np.maximum(a, near).tolist()):
            assert pot.same_potential(x, y) is not (y - x > rtol * max(1.0, y))
            assert pot.same_potential(y, x) is pot.same_potential(x, y)
        assert pot.same_potential(0.5, 0.5 + 1e-12) and not pot.same_potential(0.5, 0.5 + 2e-12)


class TestClusters:
    def test_distinct_tracts_always_trivial(self):
        assert not pot.detect_clusters(
            [(1.0, ExternalAddress((), (0,))), (1.0, ExternalAddress((), (1,)))],
            1,
            4,
        )

    def test_three_orbit_interleaving_is_infinite(self):
        # Equal speeds; the constant orbit keeps agreeing with one of the
        # alternating pair at every level.
        assert pot.detect_clusters(
            [
                (1.0, ExternalAddress((), (0,))),
                (1.0, ExternalAddress((), (1, 0))),
                (1.0, ExternalAddress((), (0, 1))),
            ],
            3,
            2,
        )

    def test_distinct_potentials_trivial(self):
        # step^j(1) never meets step^k(2) at any sampled depth
        assert not pot.detect_clusters(
            [(1.0, ExternalAddress((), (0,))), (2.0, ExternalAddress((), (0,)))],
            1,
            4,
        )
