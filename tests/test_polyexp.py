import cmath
import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from oracles import (
    appendix_report_per_sample,
    coefficient_ratio,
    critical_point_ratio,
    critical_point_ratio_50_digits,
    critical_values_50_digits,
    exp_maps,
    horner_derivative,
    horner_moduli,
    horner_monic,
    sample_map_with_singular_values_in,
    sample_poly_with_critical_values_in,
    sample_stream,
    sampled_disk_containment,
)

from rayforge import polyexp as pe
from rayforge.errors import OverflowSignal, RootSolveError
from rayforge.polyexp import PolyExpMap

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


# Any double, inf and NaN included, and complex numbers built from two.
DOUBLES = st.floats(allow_nan=True, allow_infinity=True)
COMPLEXES = st.builds(complex, DOUBLES, DOUBLES)


def _bits(x) -> tuple:
    return type(x), np.asarray(x).tobytes()


class TestHorner:
    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(
        st.lists(COMPLEXES, min_size=1, max_size=6), COMPLEXES, st.lists(COMPLEXES, max_size=5)
    )
    def test_poly_and_derivative_match_the_loops(self, coeffs, w, ws):
        # the same bits as the loops they replaced, on scalars and arrays
        map_ = PolyExpMap(len(coeffs), coeffs)
        ws = np.array(ws, dtype=complex)
        with np.errstate(all="ignore"):
            for x in (w, ws, ws.reshape(-1, 1)):
                assert _bits(map_.poly(x)) == _bits(horner_monic(map_.coeffs, x))
                assert _bits(map_.poly_derivative(x)) == _bits(horner_derivative(map_, x))

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.lists(DOUBLES, min_size=1, max_size=7), DOUBLES, st.lists(DOUBLES, max_size=5))
    def test_modulus_sums_match_the_loop(self, cs, u, us):
        # the real sums of make_tract_config and _positive_root, as floats
        # and as arrays
        us = np.array(us)
        with np.errstate(all="ignore"):
            for x in (u, us):
                assert _bits(pe.horner(cs, x)) == _bits(horner_moduli(cs, x))

    def test_derivative_coefficients_follow_the_map(self):
        map_ = PolyExpMap(4, [1 + 2j, 3j, -1.5, 0.25j])
        assert map_.derivative_coeffs == (3j, -3 + 0j, 0.75j, 4 + 0j)
        assert PolyExpMap(1, [7.0]).derivative_coeffs == (1 + 0j,)


class TestEval:
    def test_pure_exponential(self):
        assert PolyExpMap(1, [0.0])(0.0) == 1.0

    def test_degree_two_exponential_at_ipi(self):
        m = PolyExpMap(2, [0.0, 0.0])
        assert m(1j * math.pi) == pytest.approx(1.0)

    def test_polynomial_part(self):
        m = PolyExpMap(2, [1.0, 2.0])
        assert m(0.0) == pytest.approx(4.0)  # p(1) = 1 + 2 + 1

    def test_overflow_signal(self):
        with pytest.raises(OverflowSignal):
            PolyExpMap(1, [0.0])(800.0)

    def test_polynomial_overflow_signal(self):
        # e^z = 1e10 is in range, but b_1 e^z = 1e310 is not.
        with pytest.raises(OverflowSignal, match="polynomial overflow"):
            PolyExpMap(2, [0.0, 1e300])(math.log(1e10))

    def test_asymptotic_modulus(self):
        m = PolyExpMap(2, [1.0, 2.0])
        for x in (30.0, 50.0):
            assert abs(m(x)) == pytest.approx(math.exp(2 * x), rel=1e-3)


class TestSingularValues:
    def test_pure_power_collapses(self):
        sd = PolyExpMap(3, [0.0, 0.0, 0.0]).singular_data()
        assert sd.asymptotic_value == 0.0
        assert all(abs(v) < 1e-12 for v in sd.critical_values)
        assert len(sd.all) == 1

    def test_shifted_power(self):
        c = 0.7 - 0.2j
        sd = PolyExpMap(3, [c, 0.0, 0.0]).singular_data()
        assert all(abs(v - c) < 1e-10 for v in sd.all)

    def test_double_root_quadratic(self):
        # p = (z+1)^2: critical value 0, asymptotic p(0) = 1
        sd = PolyExpMap(2, [1.0, 2.0]).singular_data()
        assert sd.critical_values == pytest.approx((0.0,), abs=1e-12)
        assert sd.asymptotic_value == 1.0
        assert sorted(v.real for v in sd.all) == pytest.approx([0.0, 1.0], abs=1e-12)

    def test_carries_critical_points(self):
        m = PolyExpMap(3, [0.2, 0.5 - 1j, -0.1])
        sd = m.singular_data()
        assert sd.critical_values == tuple(m.poly(c) for c in pe.critical_points(m))
        assert sd.asymptotic_value == m.coeffs[0]
        assert PolyExpMap(1, [0.5]).singular_data().all == (0.5,)

    def test_max_modulus_overflow_signals(self):
        # both parts are finite, the modulus is not: Python's abs raises
        sd = PolyExpMap(1, [1.7e308 + 1.7e308j]).singular_data()
        with pytest.raises(OverflowSignal, match="singular value's modulus"):
            sd.max_modulus()
        assert PolyExpMap(2, [3 - 4j, 0.0]).singular_data().max_modulus() == 5.0

    def test_counts(self):
        m = PolyExpMap(3, [0.2, 0.5 - 1j, -0.1])
        sd = m.singular_data()
        assert len(sd.critical_values) == 2
        assert len(sd.all) <= 3

    def test_matches_grid_refinement_oracle(self):
        # Brute force: scan |p'| on a grid, polish minima by bisection on
        # the derivative's roots via dense local sampling.
        rng = np.random.default_rng(9)
        coeffs = [complex(a, b) for a, b in rng.uniform(-1, 1, (3, 2))]
        m = PolyExpMap(3, coeffs)
        sd = m.singular_data()
        xs = np.linspace(-3, 3, 301)
        grid = xs[:, None] + 1j * xs[None, :]
        dvals = np.abs(
            3 * grid**2 + 2 * coeffs[2] * grid + coeffs[1]
        )
        found = []
        flat = np.argsort(dvals.ravel())[:600]
        cand = grid.ravel()[flat]
        for c in cand:
            z = c
            for _ in range(60):  # Newton polish of p'
                dp = 3 * z**2 + 2 * coeffs[2] * z + coeffs[1]
                ddp = 6 * z + 2 * coeffs[2]
                z = z - dp / ddp
            if not any(abs(z - f) < 1e-6 for f in found):
                found.append(z)
        assert len(found) >= 2
        oracle_cvs = sorted(
            (m.poly(z) for z in found[:2]), key=lambda v: (v.real, v.imag)
        )
        got = sorted(sd.critical_values, key=lambda v: (v.real, v.imag))
        for a, b in zip(oracle_cvs, got):
            assert abs(a - b) < 1e-8


class TestCriticalPointsClosedForm:
    """Degrees 2 and 3 take closed forms in place of ``np.roots``."""

    def test_d2_bitwise_equal_to_np_roots(self):
        rng = np.random.default_rng(21)
        moduli = 10 ** rng.uniform(-3, 3, 20000)
        b1s = moduli * np.exp(1j * rng.uniform(0, 2 * math.pi, 20000))
        for b1 in b1s.tolist():
            want = complex(np.roots(np.asarray([2, b1], dtype=complex))[0])
            assert pe.critical_points(PolyExpMap(2, [0.5, b1])) == (want,)

    def test_d3_within_4_ulp_of_50_digit_roots(self):
        # Each critical point lies within 4 ulp (of its larger component)
        # of the roots of 3w^2 + 2 b_2 w + b_1 at 50 digits; np.roots
        # strays to 14 ulp on such draws.
        rng = np.random.default_rng(22)
        for _ in range(500):
            b = 10 ** rng.uniform(-3, 3, 2) * np.exp(1j * rng.uniform(0, 2 * math.pi, 2))
            m = PolyExpMap(3, [0.5, complex(b[0]), complex(b[1])])
            got = pe.critical_points(m)
            with mpmath.workdps(50):
                exact = mpmath.polyroots(
                    [3, 2 * mpmath.mpc(m.coeffs[2]), mpmath.mpc(m.coeffs[1])], extraprec=200
                )
                for g in got:
                    e = min(exact, key=lambda z: abs(z - mpmath.mpc(g)))
                    gap = float(abs(e - mpmath.mpc(g)))
                    assert gap <= 4 * math.ulp(max(abs(float(e.real)), abs(float(e.imag))))
            assert len(set(got)) == 2 and got == tuple(sorted(got, key=lambda c: (c.real, c.imag)))

    def test_d3_double_root(self):
        assert pe.critical_points(PolyExpMap(3, [0.5, 0.0, 0.0])) == (0j, 0j)
        # (w - 1)^3: p' = 3 (w - 1)^2
        assert pe.critical_points(PolyExpMap(3, [-1.0, 3.0, -3.0])) == (1 + 0j, 1 + 0j)


def poly_roots(coeffs, w):
    """The d solutions of p(z) = w from a one-row batch solve."""
    map_ = PolyExpMap(len(coeffs), coeffs)
    (roots,), stalled = pe.poly_roots_batch(map_, np.array([w], dtype=complex))
    assert not stalled
    return tuple(roots)


class TestPolyRoots:
    def test_square(self):
        roots = poly_roots([0.0, 0.0], 4.0)
        assert sorted(r.real for r in roots) == pytest.approx([-2.0, 2.0], abs=1e-12)

    def test_plus_one(self):
        roots = poly_roots([1.0, 0.0], 0.0)
        assert sorted(r.imag for r in roots) == pytest.approx([-1.0, 1.0], abs=1e-10)

    def test_vieta_random_cubics(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            coeffs = [complex(a, b) for a, b in rng.uniform(-2, 2, (3, 2))]
            w = complex(*rng.uniform(-5, 5, 2))
            roots = poly_roots(coeffs, w)
            assert len(roots) == 3
            s = sum(roots)
            p = roots[0] * roots[1] * roots[2]
            assert abs(s - (-coeffs[2])) < 1e-8 * max(1.0, abs(coeffs[2]))
            assert abs(p - (-(coeffs[0] - w))) < 1e-8 * max(1.0, abs(w))
            for r in roots:
                val = ((r + coeffs[2]) * r + coeffs[1]) * r + coeffs[0]
                assert abs(val - w) <= 1e-10 * max(1.0, abs(w))

    def test_huge_right_hand_side(self):
        roots = poly_roots([0.5, -0.25], 1e280 + 1e270j)
        for r in roots:
            val = (r - 0.25) * r + 0.5
            assert abs(val - (1e280 + 1e270j)) <= 1e-10 * 1e280

    def test_multiple_root_target(self):
        # w at the critical value of p = z^2: double root at 0
        roots = poly_roots([0.0, 0.0], 0.0)
        assert all(abs(r) < 1e-5 for r in roots)

    @pytest.mark.parametrize("w", [math.nan, complex(5, math.inf), math.inf])
    def test_non_finite_right_hand_side_raises(self, w):
        # A NaN residual must fail the post-check, not slip past it: the row
        # gets NaN roots and the error its one-row solve reports, which
        # one-row callers raise; the finite row is its one-row solve.
        map_ = PolyExpMap(2, [0.0, 0.4])
        with np.errstate(all="ignore"):
            roots, stalled = pe.poly_roots_batch(map_, np.array([w, 5.0]))
            _, alone = pe.poly_roots_batch(map_, np.array([w]))
        single, fine = pe.poly_roots_batch(map_, np.array([5.0]))
        assert list(stalled) == list(alone) == [0] and not fine
        assert isinstance(stalled[0], RootSolveError)
        assert str(stalled[0]) == str(alone[0])
        assert str(stalled[0]).startswith("relative-residual post-check failed, worst relative residual")
        assert np.isnan(roots[0]).all()
        assert np.array_equal(roots[1].view(np.int64), single[0].view(np.int64))

    def test_batch_matches_scalar(self):
        # Each row leaves the sweep where its one-row solve would stop, so
        # batch rows are bitwise equal to one-row solves.
        rng = np.random.default_rng(41)
        for d in (1, 2, 3, 4):
            for n_rows in (1, 2, 17, 200, *rng.integers(1, 201, 4)):
                coeffs = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                map_ = PolyExpMap(d, coeffs)
                ws = 10 ** rng.uniform(-1, 6, n_rows) * np.exp(
                    1j * rng.uniform(-np.pi, np.pi, n_rows)
                )
                batch, stalled = pe.poly_roots_batch(map_, ws)
                assert batch.shape == (n_rows, d) and not stalled
                for k in range(n_rows):
                    single = pe.poly_roots_batch(map_, ws[k : k + 1])[0][0]
                    assert np.array_equal(batch[k].view(np.int64), single.view(np.int64))

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_failing_rows_stall_alone(self, d):
        # Rows whose companion matrix is not finite, which np.linalg.eigvals
        # refuses with the whole stack (w not finite, or w - b_0 overflowing
        # for the map with b_0 = -1.7e308), stall; so may rows that overflow
        # (|w| at 1.7e308 (1 + i), p(z) at the largest double).  Every row,
        # stalled or not, is its one-row solve.
        rng = np.random.default_rng(d)
        special = [math.nan, complex(1, math.inf), -math.inf, 1.7e308 + 1.7e308j, np.finfo(float).max]
        for b0 in (complex(*rng.standard_normal(2)), complex(-1.7e308)):
            map_ = PolyExpMap(d, [b0, *(rng.standard_normal(d - 1) + 1j * rng.standard_normal(d - 1))])
            ws = np.concatenate([special, 10 ** rng.uniform(-1, 6, 8) * np.exp(2j * np.pi * rng.random(8))])
            ws[-3:] = 1.7e308
            rng.shuffle(ws)
            with np.errstate(all="ignore"):
                batch, stalled = pe.poly_roots_batch(map_, ws)
                companion_not_finite = ~np.isfinite(ws - map_.coeffs[0])
            assert set(companion_not_finite.nonzero()[0].tolist()) <= set(stalled)
            assert companion_not_finite.sum() == (3 if b0.real > -1 else 8)
            for k in range(len(ws)):
                with np.errstate(all="ignore"):
                    single, alone = pe.poly_roots_batch(map_, ws[k : k + 1])
                assert np.array_equal(batch[k].view(np.int64), single[0].view(np.int64)), k
                assert (k in stalled) == bool(alone) and str(stalled.get(k)) == str(alone.get(0))

    def test_unconverged_row_stalls_alone(self, monkeypatch):
        # eigvals raises LinAlgError for a whole stack when one matrix does
        # not converge: the rows are then solved one at a time, and only the
        # failing one stalls.
        eigvals = np.linalg.eigvals

        def refuse(a):
            if (a[..., 0, -1] == 6.0).any():  # the row w = 7, where w - b_0 = 6
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigvals(a)

        map_ = PolyExpMap(3, [1.0, 2.0, 3.0])
        ws = np.array([5.0 + 1j, 7.0, -40.0j])
        want = [pe.poly_roots_batch(map_, ws[k : k + 1])[0][0] for k in (0, 2)]
        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        roots, stalled = pe.poly_roots_batch(map_, ws)
        assert list(stalled) == [1] and np.isnan(roots[1]).all()
        for k, single in zip((0, 2), want):
            assert np.array_equal(roots[k].view(np.int64), single.view(np.int64))


class TestQuadraticClosedForm:
    """At d = 2, ``poly_roots_batch`` takes the cancellation-free quadratic
    formula, checked against the formula at 700 digits (``mpmath.polyroots``
    fails to converge on some of these rows)."""

    UNIT = 8 * 2.0**-53

    def test_roots_within_8_ulp_of_700_digit_roots(self):
        # |w| log-uniform over 1e-2..1e300, a sixth of the rows with b_1 = 0
        # and a third with w within 1e-12..1 of the critical value
        # b_0 - b_1^2/4, where the roots are ill-conditioned: there the bound
        # is the backward error of p(z) = w divided by |p'(z)|.
        rng = np.random.default_rng(2027)
        n = 2400

        def draw(moduli):
            return moduli * np.exp(2j * np.pi * rng.random(len(moduli)))

        b0 = draw(10 ** rng.uniform(-3, 3, n))
        b1 = draw(10 ** rng.uniform(-3, 3, n))
        b1[: n // 6] = 0
        ws = draw(10 ** rng.uniform(-2, 300, n))
        near = np.arange(n) % 3 == 2
        ws[near] = (b0 - b1 * b1 / 4)[near] + draw(10 ** rng.uniform(-12, 0, near.sum()))
        with mpmath.workdps(700):
            for k in range(n):
                map_ = PolyExpMap(2, [complex(b0[k]), complex(b1[k])])
                (got,), stalled = pe.poly_roots_batch(map_, ws[k : k + 1])
                assert not stalled
                B1 = mpmath.mpc(map_.coeffs[1])
                s = mpmath.sqrt(B1 * B1 - 4 * (mpmath.mpc(map_.coeffs[0]) - complex(ws[k])))
                exact = ((-B1 + s) / 2, (-B1 - s) / 2)
                if sum(abs(complex(g) - e) for g, e in zip(got, exact[::-1])) < sum(
                    abs(complex(g) - e) for g, e in zip(got, exact)
                ):
                    exact = exact[::-1]
                for g, e in zip(got, exact):
                    gap = float(abs(complex(g) - e))
                    if near[k]:
                        size = abs(g) ** 2 + abs(b1[k]) * abs(g) + abs(b0[k]) + abs(ws[k])
                        assert gap * abs(2 * g + b1[k]) <= self.UNIT * size, k
                    else:
                        assert gap <= self.UNIT * float(abs(e)), k

    def test_zero_square(self):
        (roots,), stalled = pe.poly_roots_batch(PolyExpMap(2, [0.0, 0.0]), np.zeros(1))
        assert not stalled and tuple(roots) == (0, 0)

    def test_zero_square_in_a_batch(self):
        # The q = 0 row (w = b_0) keeps roots (0, 0) within a batch; every
        # other row is bitwise its one-row solve, or stalls as it does alone
        # (at w = 1e308 the discriminant 4w overflows).
        map_ = PolyExpMap(2, [0.0, 0.0])
        ws = np.array([0, 1, 4, 1e308], dtype=complex)
        roots, stalled = pe.poly_roots_batch(map_, ws)
        assert tuple(roots[0]) == (0, 0) and list(stalled) == [3]
        for k in range(len(ws)):
            (single,), alone = pe.poly_roots_batch(map_, ws[k : k + 1])
            assert np.array_equal(roots[k].view(np.int64), single.view(np.int64)), k
            assert list(alone) == ([0] if k in stalled else [])
            if k in stalled:
                assert isinstance(stalled[k], RootSolveError) and str(stalled[k]) == str(alone[0])

    def test_overflowing_discriminant_stalls_alone(self):
        # b_1^2 - 4(b_0 - w) overflows at |w| = 1e308: that row stalls with
        # the usual message, and the others are their one-row solves.
        map_ = PolyExpMap(2, [0.3 - 0.1j, 1.5 + 2j])
        ws = np.array([2.0 + 1j, 1e308 * np.exp(0.4j), 1e200j, -0.75])
        with np.errstate(all="ignore"):
            roots, stalled = pe.poly_roots_batch(map_, ws)
        assert list(stalled) == [1] and isinstance(stalled[1], RootSolveError)
        assert str(stalled[1]).startswith("relative-residual post-check failed, worst relative residual")
        assert np.isnan(roots[1]).all()
        for k in (0, 2, 3):
            (single,), fine = pe.poly_roots_batch(map_, ws[k : k + 1])
            assert not fine
            assert np.array_equal(roots[k].view(np.int64), single.view(np.int64))


# Singular values far left of the seeds: p's terms, |b_0| + |zeta|^d, dwarf w.
FAR_MAPS = [PolyExpMap(2, [-1e10, 0.0]), PolyExpMap(3, [-1e12, 0.0, 0.0])]


class TestResidualScale:
    """The post-check measures |p(zeta) - w| against max(1, |w|, sum_k
    |b_k| |zeta|^k + |zeta|^d): it passes right roots whose residual is the
    rounding of p's terms, and still fails roots moved by 1e-8 relative."""

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(COMPLEXES, COMPLEXES, COMPLEXES)
    def test_never_below_the_seed_scale(self, b0, zeta, w):
        map_ = PolyExpMap(2, [b0, 1j])
        with np.errstate(all="ignore"):  # as under its callers
            scale = pe.residual_scale(map_, np.array([zeta]), np.array([w]))[0]
        if all(map(cmath.isfinite, (b0, zeta, w))):
            assert scale >= min(max(1.0, np.abs(w)), np.finfo(float).max)
        assert not scale > np.finfo(float).max

    @pytest.mark.parametrize("map_", FAR_MAPS, ids=["d2", "d3"])
    def test_far_singular_value_roots_pass(self, map_):
        ws = np.array([100.0, 96.02236556502682, 1e3 + 50j, 1e8j])
        roots, stalled = pe.poly_roots_batch(map_, ws)
        assert not stalled
        with mpmath.workdps(50):
            for w, row in zip(ws, roots):
                for zeta in row:
                    # each root is right to 1e-14 relative at 50 digits
                    exact = mpmath.findroot(
                        lambda z: mpmath.polyval([1] + [0] * (map_.d - 1) + [map_.coeffs[0] - w], z),
                        mpmath.mpc(complex(zeta)),
                    )
                    assert abs(complex(zeta) - exact) <= 1e-14 * abs(exact)

    @pytest.mark.parametrize("map_", FAR_MAPS, ids=["d2", "d3"])
    def test_moved_roots_fail(self, map_, monkeypatch):
        solver = "_quadratic_roots" if map_.d == 2 else "_companion_roots"
        solve = getattr(pe, solver)
        monkeypatch.setattr(pe, solver, lambda *args: solve(*args) * (1 + 1e-8))
        ws = np.array([100.0, 1e3 + 50j])
        roots, stalled = pe.poly_roots_batch(map_, ws)
        assert sorted(stalled) == [0, 1] and np.isnan(roots).all()
        assert all(exc.worst_residual > 1e-9 for exc in stalled.values())


class TestCriticalPointBound:
    def test_pure_power(self):
        assert critical_point_ratio(PolyExpMap(3, [0.0, 0.0, 0.0]), 10.0) == 0.0

    def test_quadratic_exact_constant(self):
        # p = z^2 + bz: critical value -b^2/4 in the rho-disk forces
        # |critical point| = |b|/2 <= rho^(1/2): the ratio is at most 1.
        rng = np.random.default_rng(1)
        for _ in range(200):
            b = complex(*rng.uniform(-6, 6, 2))
            rho = abs(b**2 / 4) * rng.uniform(1.0, 4.0) + 1e-9
            assert critical_point_ratio(PolyExpMap(2, [0.0, b]), rho) <= 1.0 + 1e-12

    def test_monte_carlo_cubics_bounded(self):
        rng = np.random.default_rng(12)
        worst = 0.0
        for _ in range(300):
            m = sample_poly_with_critical_values_in(3, 50.0, rng)
            worst = max(worst, critical_point_ratio(m, 50.0))
        assert worst < 4.0  # empirical headroom


class TestCoefficientBound:
    def test_exponential_family_trivial(self):
        # f = exp(z) + kappa has the single singular value kappa
        kappa = 3.0 - 4.0j
        assert coefficient_ratio(PolyExpMap(1, [kappa]), abs(kappa)) == pytest.approx(1.0)

    def test_pure_power_zero(self):
        assert coefficient_ratio(PolyExpMap(3, [0.0, 0.0, 0.0]), 100.0) == 0.0

    def test_scale_independence(self):
        for rho in (1e2, 1e3, 1e4):
            worst = 0.0
            for k in range(100):
                m = sample_map_with_singular_values_in(2, rho, np.random.default_rng((23, k)))
                worst = max(worst, coefficient_ratio(m, rho))
            assert worst < 8.0  # rho-independent headroom


class TestDiskContainment:
    def test_pure_power(self):
        assert pe.check_disk_containment([0.0, 0.0, 0.0], 10.0) is True

    def test_random_d2_maps(self):
        for k in range(25):
            m = sample_map_with_singular_values_in(2, 100.0, np.random.default_rng((5, k)))
            assert pe.check_disk_containment(m.coeffs, 100.0) is True, k

    def test_violated_precondition_reports(self):
        # Singular values far outside the disk: the checker must report a
        # verdict (here: containment genuinely fails) rather than raise.
        assert pe.check_disk_containment([500.0, 40.0], 2.0) in (False, None)

    def test_zero_outside_is_refuted_by_the_winding(self):
        # p = w^2 - 10w: |p| >= 9 on |w| = 1, so no sample refutes it, but p
        # winds once around 0 there and its zero 10 lies outside.
        assert pe.check_disk_containment([0.0, -10.0], 1.0) is False
        assert sampled_disk_containment(PolyExpMap(2, [0.0, -10.0]), 1.0) is False

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_rounding_never_decides(self, d):
        # p = w^d on |w| = r, r = 1 + k 2^-52 or 1 - k 2^-53, where |p| = r^d
        # is within a few ulp of r: above 1 every preimage of the r-disk lies
        # in |z| < r, and below it w = r^d has its preimage r on the circle.
        # The rounding term keeps either answer from flipping to the other.
        for k in range(1, 5):
            assert pe.check_disk_containment([0.0] * d, 1 + k * 2.0**-52) in (True, None), k
            assert pe.check_disk_containment([0.0] * d, 1 - k * 2.0**-53) in (False, None), k

    @pytest.mark.parametrize(
        "coeffs, r",
        [
            ([math.nan, 0.0], 2.0),
            ([0.0, complex(0.0, math.inf)], 2.0),
            ([1e308, 1e308, 1e308], 1e308),
            ([0.0, 0.0], math.inf),
            ([0.0, 0.0], math.nan),
        ],
    )
    def test_non_finite_values_decide_nothing(self, coeffs, r):
        assert pe.check_disk_containment(coeffs, r) is None

    def test_rows_are_one_map_calls(self):
        # An (n, d) array gives each row its one-map verdict: the doubling
        # and the blocks of _PRODUCT_ENTRIES values never couple rows.
        seen = set()
        for d, rho, seed in ((2, 2.0, 0), (2, 10.0, 0), (3, 2.0, 1), (5, 2.0, 2)):
            coeffs = pe._sample(d, rho, np.random.default_rng(seed).random((200, 4 * d)))[3]
            verdicts = pe.check_disk_containment(coeffs, rho)
            assert verdicts.shape == (200,) and verdicts.dtype == object
            assert verdicts.tolist() == [pe.check_disk_containment(row, rho) for row in coeffs]
            seen.update(verdicts.tolist())
        assert seen == {True, False, None}

    def test_inconclusive_maps_hold_at_50_digits(self):
        # Over d = 2..5, rho in {2, 10}, seeds 0-9 and 200 maps each, the
        # maps Cauchy's radius leaves open are proven or refuted but for 15
        # near the threshold, all at rho = 2 and d >= 3; mpmath finds each of
        # those contained at 50 digits, at 16 points of the circle and at the
        # point w = r p(z)/|p(z)| of the sample z where |p| is least.
        open_maps = []
        for d, rho, seed in itertools.product((2, 3, 4, 5), (2.0, 10.0), range(10)):
            coeffs = pe._sample(d, rho, np.random.default_rng(seed).random((200, 4 * d)))[3]
            coeffs = coeffs[~pe.cauchy_proves(coeffs, rho)]
            verdicts = pe.check_disk_containment(coeffs, rho) if len(coeffs) else []
            open_maps += [(rho, row) for row, v in zip(coeffs, verdicts) if v is None]
        assert len(open_maps) == 15
        for rho, row in open_maps:
            values = PolyExpMap(len(row), row).poly(rho * np.exp(2j * np.pi * np.arange(360) / 360))
            nearest = values[np.abs(values).argmin()]
            for w in [rho * nearest / abs(nearest), *rho * np.exp(2j * np.pi * np.arange(16) / 16)]:
                assert _max_root_modulus(row, complex(w)) < rho


def _proven(coeffs, r) -> bool:
    """Cauchy's radius proves containment as ``appendix_report`` decides it."""
    return bool(pe.cauchy_proves(coeffs, r))


def _random_monic(rng, d):
    """b_0..b_{d-1} with moduli spread over 1e-3..1e6 and uniform phases."""
    moduli = 10 ** rng.uniform(-3, 6, d)
    return [complex(m * cmath.exp(1j * rng.uniform(0, 2 * math.pi))) for m in moduli]


def _cauchy_sum(coeffs, r):
    """S = sum_k |b_k| r^(k-d) + r^(1-d) at 50 digits; S < 1 exactly when
    Cauchy's radius, with a_0 = |b_0| + r, is below r."""
    with mpmath.workdps(50):
        r = mpmath.mpf(r)
        d = len(coeffs)
        return sum(abs(mpmath.mpc(b)) * r ** (k - d) for k, b in enumerate(coeffs)) + r ** (1 - d)


def _threshold_radius(coeffs):
    """The exact radius r* with S(r*) = 1, by bisection on log r at 50
    digits (every term of S falls with r at d >= 2)."""
    with mpmath.workdps(50):
        lo, hi = mpmath.mpf(1e-9), mpmath.mpf(1e30)
        for _ in range(200):
            mid = mpmath.sqrt(lo * hi)
            lo, hi = (mid, hi) if _cauchy_sum(coeffs, mid) >= 1 else (lo, mid)
        return hi


def _max_root_modulus(coeffs, w):
    """max |z| over the roots of p(z) = w at 50 digits."""
    with mpmath.workdps(50):
        high_to_low = [mpmath.mpc(1)] + [mpmath.mpc(c) for c in reversed(coeffs[1:])]
        high_to_low.append(mpmath.mpc(coeffs[0]) - mpmath.mpc(w))
        roots = mpmath.polyroots(high_to_low, maxsteps=200, extraprec=60)
        return max(abs(z) for z in roots)


class TestCauchyRadius:
    def test_proven_maps_hold_at_50_digits(self):
        # Wherever the float test proves a map, the inequality holds at 50
        # digits and the roots of p(z) = w over |w| = r, and inside, lie in
        # |z| < r.  Half the radii sit within 2^-40 of the exact threshold,
        # where the rounding factor decides.
        rng = np.random.default_rng(2024)
        proven = 0
        for d in (2, 3, 4, 5):
            for k in range(12):
                coeffs = _random_monic(rng, d)
                if k % 2:
                    r = float(_threshold_radius(coeffs)) * (1 + rng.integers(-8, 9) * 2.0**-43)
                else:
                    r = 10 ** rng.uniform(-1, 7)
                if not _proven(coeffs, r):
                    continue
                proven += 1
                assert _cauchy_sum(coeffs, r) < 1, (d, k)
                phases = np.exp(1j * rng.uniform(0, 2 * math.pi, 4))
                for w in r * phases * np.array([1.0, 1.0, rng.uniform(), rng.uniform()]):
                    assert _max_root_modulus(coeffs, complex(w)) < r, (d, k)
        assert proven >= 12

    def test_proof_switches_at_the_threshold(self):
        rng = np.random.default_rng(7)
        for d in (2, 3, 4, 5):
            for _ in range(3):
                coeffs = _random_monic(rng, d)
                r_star = float(_threshold_radius(coeffs))
                assert _proven(coeffs, r_star * (1 + 1e-9)), d
                assert not _proven(coeffs, r_star * (1 - 1e-9)), d

    def test_degree_one_never_proven(self):
        # S = |b_0| / r + 1 >= 1
        for b0 in (0.0, 1e-300, 3.0 - 4.0j):
            for r in (1e-3, 10.0, 1e300):
                assert not _proven([b0], r)

    @pytest.mark.parametrize(
        "coeffs, r",
        [
            ([math.nan, 0.0], 100.0),
            ([0.0, complex(math.inf, 0.0)], 100.0),
            ([0.0, 0.0, complex(0.0, math.nan)], 100.0),
            ([0.0, 0.0], math.inf),
            ([0.0, 0.0], math.nan),
        ],
    )
    def test_non_finite_input_proves_nothing(self, coeffs, r):
        assert not _proven(coeffs, r)

    def test_no_overflow_near_the_largest_double(self):
        # |b_0| + r overflows here; the x^(d-1) term does not, and the
        # roots of z^3 + 1e308 i z + 1e308 - w lie near 1e154.
        assert _proven([1e308, 1e308j, 0.0], 1e308)
        assert pe.cauchy_proves(np.array([[1e308, 1e308j, 0.0]] * 3), 1.7e308).all()

    def test_proven_maps_pass_the_sampled_oracle(self):
        # appendix_report-style maps: wherever Cauchy's bound or Rouche's
        # test proves containment the sampled oracle passes, and wherever
        # Rouche's test refutes it the oracle fails.  A map may be left
        # inconclusive; none of these 500 is.
        verdicts = {True: 0, False: 0, None: 0}
        cauchy = 0
        for k in range(500):
            d, rho = (2, 3)[k % 2], (2.0, 10.0, 100.0, 1000.0)[(k // 2) % 4]
            m = sample_map_with_singular_values_in(d, rho, np.random.default_rng((17, k)))
            oracle = sampled_disk_containment(m, rho)
            if _proven(m.coeffs, rho):
                cauchy += 1
                assert oracle is True, k
                continue
            verdict = pe.check_disk_containment(m.coeffs, rho)
            verdicts[verdict] += 1
            assert verdict is None or verdict is oracle, k
        assert cauchy and verdicts[True] and verdicts[False]
        assert verdicts[None] <= 2, verdicts

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_no_root_solve_at_any_rho(self, d, monkeypatch):
        # Cauchy's radius leaves maps open at rho = 2 and 10, and Rouche's
        # test decides them with no root solve.
        def unreachable(map_, ws):
            raise AssertionError("root solve reached from appendix_report")

        monkeypatch.setattr(pe, "poly_roots_batch", unreachable)
        for rho in (2.0, 10.0, 100.0):
            rep = pe.appendix_report(d, rho, samples=200, seed=5)
            assert (
                rep.containment_proven + rep.containment_failures + rep.containment_inconclusive
                == rep.containment_maps
            ), rho

    def test_small_rho_maps_proven_without_a_solve(self, monkeypatch):
        # At d = 3, rho = 5 the report proves all 3 maps of seed 0, and runs
        # no root solve, though for samples 0 and 2 the root-power bound
        # 2 max(|a_2|, |a_1|^(1/2), |a_0 / 2|^(1/3)), a_0 = |b_0| + rho, is
        # not below rho.
        def unreachable(map_, ws):
            raise AssertionError("root solve reached on a proven map")

        monkeypatch.setattr(pe, "poly_roots_batch", unreachable)
        rep = pe.appendix_report(3, 5.0, samples=3, seed=0)
        assert rep.containment_proven == rep.containment_maps == 3
        for k in (0, 2):
            map_ = sample_map_with_singular_values_in(3, 5.0, sample_stream(3, 0, k))
            b = [abs(c) for c in map_.coeffs]
            assert 2 * max(b[2], b[1] ** 0.5, ((b[0] + 5.0) / 2) ** (1 / 3)) >= 5.0, k

    def test_proven_map_skips_the_solve(self, monkeypatch):
        def unreachable(map_, ws):
            raise AssertionError("root solve reached on a proven map")

        monkeypatch.setattr(pe, "poly_roots_batch", unreachable)
        for d in (2, 3):
            rep = pe.appendix_report(d, 100.0, samples=200, seed=5)
            assert rep.containment_proven == rep.containment_maps == 200, d
            assert rep.containment_failures == rep.containment_inconclusive == 0, d


def _log_abs_slope(m: PolyExpMap, z: complex) -> float:
    """log |f'(z)| with f'(z) = p'(e^z) e^z, as the forward verifier forms it."""
    w = cmath.exp(z)
    return math.log(abs(m.poly_derivative(w) * w))


def _log_sup_derivative(d: int, t: float, rho: float, seed: int) -> float:
    """log sup |f'(z)| sampled over 32 maps with singular values in the
    rho-disk, at 128 points of the line Re z = (d+1)t and 128 points left
    of it each; by the maximum principle the sup over the half-plane sits
    on the line."""
    rng = np.random.default_rng(seed)
    x_line = (d + 1) * t
    log_sup = -math.inf
    for _ in range(32):
        m = sample_map_with_singular_values_in(d, rho, rng)
        ys = rng.uniform(-math.pi, math.pi, 256)
        xs = np.concatenate([np.full(128, x_line), rng.uniform(0, x_line, 128)])
        log_sup = max(log_sup, *(_log_abs_slope(m, complex(x, y)) for x, y in zip(xs, ys)))
    return log_sup


class TestDerivativeSup:
    def test_d1_boundary_value(self):
        # sup of |exp z| over Re z < 2t is exp(2t): log sup = 2t
        assert _log_sup_derivative(1, 2.0, 5.0, seed=2) == pytest.approx(4.0, abs=1e-9)

    def test_d2_boundary_dominates(self):
        # maximum principle: interior samples never beat the boundary line
        m = PolyExpMap(2, [0.2, 0.1])
        t = 1.2
        line = max(
            _log_abs_slope(m, complex(3 * t, y))
            for y in np.linspace(-math.pi, math.pi, 200)
        )
        rng = np.random.default_rng(8)
        interior = max(
            _log_abs_slope(m, complex(rng.uniform(0, 3 * t), rng.uniform(-4, 4)))
            for _ in range(500)
        )
        assert interior <= line + 1e-9


class TestAppendixReport:
    def test_shifted_critical_values_match_50_digits(self):
        # _sample shrinks a map toward 0.95 rho by the peak of its singular
        # values: b_0 and the critical values of p shifted by b_0.  Those
        # come from the quadrature, and stay within 8 ulp of 50 digits,
        # measured against the larger of the peak and the unshifted values (a
        # critical value that b_0 cancels loses digits to the data, not to the
        # rule).  Horner's rule on the shifted coefficients, which the peak
        # used to come from, cancels: its worst error on the same maps is 18
        # ulp or more at each d.
        bound = 8 * 2.0**-53
        for d in (3, 4, 5):
            horner_worst = 0.0
            for seed in range(10):
                block = np.random.default_rng(seed).random((50, 4 * d))
                cps, a, values, maps = pe._sample(d, 100.0, block)
                cps, a = cps[50:], a[50:]  # the rows of the maps' polynomials
                # With a zero b_0 shift no map leaves the rho-disk, so the
                # maps are the rescaled polynomials themselves.
                assert np.abs(values).max() <= 100.0
                unshifted = block.copy()
                unshifted[:, -2] = 0.0
                coeffs = pe._sample(d, 100.0, unshifted)[3]
                u = block[:, 2 * d - 1 :]
                b0 = 100.0 / 2 * (u[:, -2] * np.exp(2j * np.pi * u[:, -1]))
                shifted = np.column_stack([b0, coeffs[:, 1:]])
                horner = horner_monic(shifted.T[:, :, None], cps / a[:, None])
                # the maps are shrunk by the peak of these values
                peaks = np.maximum(np.abs(values + b0[:, None]).max(axis=1), np.abs(b0))
                shrink = np.where(peaks > 100.0, (peaks / (0.95 * 100.0)) ** (1.0 / d), 1.0)
                assert maps.tobytes() == pe._rescaled(shifted, shrink).tobytes()
                for k in range(len(u)):
                    with mpmath.workdps(50):
                        scale = mpmath.mpf(float(a[k])) ** -d
                        exact = [v * scale for v in critical_values_50_digits(d, cps[k])]
                        top = max(abs(v) for v in exact)
                        b = mpmath.mpc(complex(b0[k]))
                        peak = max([abs(v + b) for v in exact] + [abs(b)])

                        def error(shifted_values):
                            got = max(float(np.abs(shifted_values).max()), abs(b0[k]))
                            return float(abs(got - peak) / max(peak, top))

                        assert error(values[k] + b0[k]) <= bound, (d, seed, k)
                        horner_worst = max(horner_worst, error(horner[k]))
            assert horner_worst > 2 * bound, d

    def test_per_sample_streams(self):
        # Sample k is row k of one block drawn from the seed's stream:
        # reruns agree, and a shorter run ending at the worst sample is a
        # prefix of the longer one and finds the same worst.
        for d in (2, 3, 5):
            a = pe.appendix_report(d, 100.0, samples=40, seed=3)
            assert a == pe.appendix_report(d, 100.0, samples=40, seed=3)
            k = a.worst_case["sample_index"] + 1
            b = pe.appendix_report(d, 100.0, samples=k, seed=3)
            assert b.worst_case == a.worst_case, d
            assert b.max_critical_point_ratio == a.max_critical_point_ratio, d

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(st.integers(0, 2**63 - 1), st.integers(1, 40), st.data())
    def test_one_row_samplers_match_the_batch(self, d, seed, n, data):
        # The generator advanced to row k draws bitwise row k of the block,
        # and the one-row sampler gives bitwise row k of the batched one:
        # rows k and n + k of the batch (the polynomial of sample k and the
        # one under its map) are rows 0 and 1 of the one-row call, and the
        # map is row k (d = 1 has a map, ``exp_maps``, and no polynomial).
        k = data.draw(st.integers(0, n - 1))
        block = np.random.default_rng(seed).random((n, 4 * d))
        assert sample_stream(d, seed, k).random(4 * d).tobytes() == block[k].tobytes()
        if d == 1:
            maps = exp_maps(100.0, block)
        else:
            cps, a, values, maps = pe._sample(d, 100.0, block)
            one = pe._sample(d, 100.0, sample_stream(d, seed, k).random((1, 4 * d)))
            assert cps[[k, n + k]].tobytes() == one[0].tobytes()
            assert a[[k, n + k]].tobytes() == one[1].tobytes()
            assert values[k].tobytes() == one[2].tobytes()
        map_ = sample_map_with_singular_values_in(d, 100.0, sample_stream(d, seed, k))
        assert np.array(map_.coeffs).tobytes() == maps[k].tobytes()

    def test_zero_radius_rows_are_the_zero_map(self, monkeypatch):
        # Radius uniforms of 0 put every critical point at 0: p = w^d has
        # no critical value to scale, so a = inf, the polynomial is zero
        # and its ratio 0, and the report raises no OverflowSignal, even
        # where a nonzero peak would (a target below the smallest normal).
        draw = np.random.default_rng

        class ZeroRadii:
            def __init__(self, seed):
                self.rng = draw(seed)

            def random(self, shape):
                block = self.rng.random(shape)
                d = shape[1] // 4
                block[:, : d - 1] = block[:, 2 * d - 1 : 3 * d - 2] = 0.0
                return block

        for d, rho in itertools.product((2, 3, 5), (100.0, 1e-310)):
            block = ZeroRadii(d).random((4, 4 * d))
            cps, a, values, maps = pe._sample(d, rho, block)
            assert not cps.any() and np.all(a == np.inf) and not values.any()
            # Each map is w^d + b_0: its polynomial part is zero.
            assert not maps[:, 1:].any()
            assert critical_point_ratio(PolyExpMap(d, maps[0]), rho) == 0.0
            with monkeypatch.context() as patch:
                patch.setattr(np.random, "default_rng", ZeroRadii)
                rep = pe.appendix_report(d, rho, samples=6, seed=d)
            assert rep.max_critical_point_ratio == 0.0, (d, rho)

    def test_matches_the_per_sample_oracle(self):
        # Same draws, same counts and worst sample; the reference ratio is
        # the 50-digit one of each row, and the report's is within a few ulp
        # of it (3 at most over seeds 0-29).  rho <= 10 reaches Rouche's
        # containment test.
        ulps = {2: 16, 3: 16, 4: 32, 5: 128}
        for d in (2, 3, 4, 5):
            for rho in (2.0, 5.0, 10.0, 1e2, 1e3, 1e300):
                for seed in range(10):
                    rep = pe.appendix_report(d, rho, samples=10, seed=seed)
                    ref = appendix_report_per_sample(d, rho, 10, seed, 10)
                    case = (d, rho, seed)
                    assert rep.containment_proven == ref.containment_proven, case
                    assert rep.containment_failures == ref.containment_failures, case
                    assert rep.containment_inconclusive == ref.containment_inconclusive, case
                    assert rep.worst_case["sample_index"] == ref.worst_case["sample_index"], case
                    for got, want in (
                        (rep.max_critical_point_ratio, ref.max_critical_point_ratio),
                        (rep.max_coefficient_ratio, ref.max_coefficient_ratio),
                    ):
                        assert abs(got - want) <= ulps[d] * math.ulp(want), case

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_critical_point_ratio_at_50_digits(self, d):
        # The ratio is scale-free, so one reference serves both rho.
        for seed in range(4):
            refs = [
                critical_point_ratio_50_digits(d, sample_stream(d, seed, idx))
                for idx in range(50)
            ]
            for rho in (1e2, 1e300):
                rep = pe.appendix_report(d, rho, samples=50, seed=seed)
                assert abs(rep.max_critical_point_ratio - max(refs)) <= 4 * math.ulp(max(refs))

    def test_undecided_map_is_inconclusive(self, monkeypatch):
        # A map neither test decides counts as inconclusive, never as a
        # failure; Rouche's test runs once, on the maps Cauchy leaves open.
        calls = []

        def undecided(coeffs, r):
            calls.append(len(coeffs))
            return np.full(len(coeffs), None)

        # At rho = 2 Cauchy's radius proves none of the 8 maps (nor any of
        # 40,000 sampled d = 2 maps).
        monkeypatch.setattr(pe, "check_disk_containment", undecided)
        rep = pe.appendix_report(2, 2.0, samples=8, seed=3)
        assert calls == [8]
        assert rep.containment_failures == rep.containment_proven == 0
        assert rep.containment_inconclusive == 8

    def test_scale_invariant_ratio(self):
        a = pe.appendix_report(3, 100.0, samples=60, seed=1)
        for rho in (1000.0, 1e-300):
            b = pe.appendix_report(3, rho, samples=60, seed=1)
            assert a.max_critical_point_ratio == pytest.approx(
                b.max_critical_point_ratio, rel=1e-9
            ), rho

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_small_normal_rho(self, d):
        # peak / target overflows at rho = 1e-307, though its d-th root, the
        # rescale factor, does not: the report measures every sample.
        tiny = pe.appendix_report(d, 1e-307, samples=50, seed=0)
        ref = pe.appendix_report(d, 100.0, samples=50, seed=0)
        assert tiny.max_critical_point_ratio == pytest.approx(
            ref.max_critical_point_ratio, rel=1e-9
        )


class TestSampleMemory:
    """``_sample`` forms its Gauss-Legendre product a chunk of rows at a
    time: memory O(samples d), the same bits as one pass."""

    @pytest.mark.parametrize("d", [2, 3, 4, 7, 20, 60])
    def test_chunked_equals_one_pass(self, d, monkeypatch):
        block = np.random.default_rng(d).random((40, 4 * d))
        monkeypatch.setattr(pe, "_PRODUCT_ENTRIES", 2**62)
        whole = pe._sample(d, 5.0, block)
        for rows in (1, 7, 64):
            monkeypatch.setattr(pe, "_PRODUCT_ENTRIES", rows * (d - 1) ** 2)
            chunked = pe._sample(d, 5.0, block)
            assert [a.tobytes() for a in chunked] == [a.tobytes() for a in whole], (d, rows)

    def test_peak_memory_bounded(self):
        # One pass would hold (400, 59, 59) complex factors, 22 MB, at once.
        tracemalloc.start()
        try:
            rep = pe.appendix_report(60, 1e3, samples=200, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.containment_proven == rep.containment_maps  # no root solve
        assert peak < 8e6
