import cmath
import math

import numpy as np
import pytest

from rayforge import config, rays, tracts
from rayforge import polyexp as pe
from rayforge.errors import DomainError, NotEscapingError, OverflowSignal
from rayforge.polyexp import PolyExpMap

from oracles import interval_tract_violations, scalar_make_tract_config

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

EXP = PolyExpMap(1, [0.0])
D2 = PolyExpMap(2, [0.0, 0.0])
D2_GEN = PolyExpMap(2, [1.0, 2.0])


@pytest.fixture(scope="module")
def cfg_exp():
    return tracts.make_tract_config(EXP)


@pytest.fixture(scope="module")
def cfg_d2():
    return tracts.make_tract_config(D2)


@pytest.fixture(scope="module")
def cfg_d2_gen():
    return tracts.make_tract_config(D2_GEN)


class TestConfig:
    def test_exponential_strips(self, cfg_exp):
        # pure exponential: strips of height 2*pi around Im = 0, r = 2
        assert cfg_exp.r == 2.0
        assert cfg_exp.strip_center(1) == pytest.approx(2 * math.pi)
        # inner strip is genuinely inside the preimage of H_r
        for y in np.linspace(
            -math.pi / 2 + cfg_exp.eps, math.pi / 2 - cfg_exp.eps, 50
        ):
            z = complex(cfg_exp.t_lo, y)
            assert EXP(z).real > cfg_exp.r

    def test_d2_strip_height(self, cfg_d2):
        assert cfg_d2.strip_center(3) == pytest.approx(3 * math.pi)
        assert cfg_d2.strip_half_width() == pytest.approx(math.pi / 4)

    def test_generic_map_inclusions_sampled(self, cfg_d2_gen):
        m = D2_GEN
        cfg = cfg_d2_gen
        half = cfg.strip_half_width()
        rng = np.random.default_rng(2)
        for _ in range(300):
            n = int(rng.integers(-3, 4))
            c = cfg.strip_center(n)
            x = rng.uniform(cfg.t_lo, cfg.t_lo + 20)
            # inside the inner strip: in the preimage of H_r
            y = c + rng.uniform(-(half - cfg.eps), half - cfg.eps)
            assert m(complex(x, y)).real > cfg.r
            # outside the outer strip (between strips): not in the preimage
            gap = rng.uniform(half + cfg.eps, 2 * half * 2 - half - cfg.eps)
            assert m(complex(x, c + gap)).real <= cfg.r

    def test_derivative_expansion(self, cfg_exp):
        # |f'| >= 2 wherever Re f > r, sampled
        rng = np.random.default_rng(4)
        for _ in range(200):
            z = complex(rng.uniform(cfg_exp.t_up, 30), rng.uniform(-3, 3))
            if EXP(z).real > cfg_exp.r:
                w = cmath.exp(z)  # f'(z) = p'(e^z) e^z
                assert abs(EXP.poly_derivative(w) * w) >= 2

    def test_r_min_is_right_of_every_singular_value(self):
        # The critical value 1e8 + 0.05 lies within the dedup tolerance of
        # the asymptotic value 1e8, so ``all`` keeps only 1e8; r_min must
        # still lie right of both.
        m = PolyExpMap(2, [1e8, 1j * math.sqrt(0.2)])
        sd = m.singular_data()
        assert sd.all == (1e8,)
        cfg = tracts.make_tract_config(m)
        assert all(cfg.r_min > v.real for v in (sd.asymptotic_value, *sd.critical_values))

    def test_degree_cap(self):
        # config.ROUNDING covers the certificate's sums up to MAX_DEGREE
        top = config.MAX_DEGREE
        cfg = tracts.make_tract_config(PolyExpMap(top, [0.01] * top))
        assert cfg.d == top and math.isfinite(cfg.t_lo)
        with pytest.raises(DomainError, match=f"config.MAX_DEGREE = {top}, got d = {top + 1}"):
            tracts.make_tract_config(PolyExpMap(top + 1, [0.01] * (top + 1)))

    def test_sixth_radius_certifies(self):
        # p = w^4 + 10w^3 + 20w^2 fails its first five radii; the sixth
        # proves it, so no retry budget may stop the loop before it.
        map_ = PolyExpMap(4, [0, 0, 20, 10])
        cfg = tracts.make_tract_config(map_)
        r = 2 * map_.singular_data().max_modulus() + 2
        for _ in range(5):
            r = 2 * r + 1
        assert cfg.r == r == 9485.467536394055
        assert cfg.eps == math.pi / 4 / 4
        assert interval_tract_violations(map_, cfg) == []

    @pytest.mark.parametrize(
        "map_",
        [
            # its inner strip would start where exp(d x) overflows, d*t_lo > EXP_ARG_LIMIT
            PolyExpMap(1, [1e307]),
            # its critical value overflows, so r and every strip bound are inf
            PolyExpMap(2, [0, 1e200]),
        ],
    )
    def test_strips_beyond_float_range_signal_overflow(self, map_):
        with pytest.raises(OverflowSignal):
            tracts.make_tract_config(map_)


def _config_or_overflow(build, map_):
    try:
        return build(map_)
    except OverflowSignal:
        return "OverflowSignal"


class TestConfigMatchesScalarReference:
    def test_equal_config_or_error_on_seeded_maps(self):
        # d = 1..3 with coefficient moduli 0.01..100, every fourth map of
        # the form (w - a)^d + c, whose coefficients dwarf its singular
        # values (the only maps found that fail the vertical outer edge),
        # and every fifth with moduli 1e290..1e307, where the strips of
        # some maps pass the float range before any radius proves them.
        # Where the sampled reference settles on a smaller r, the interval
        # oracle must refute its config.
        rng = np.random.default_rng(53)
        overflows = 0
        for k in range(520):
            d = 1 + k % 3
            if k % 4 == 3:
                a = 10 ** rng.uniform(-1, 1.3) * np.exp(1j * rng.uniform(0, 2 * math.pi))
                coeffs = np.polynomial.polynomial.polypow([-a, 1], d)[:d]
                coeffs[0] += 10 ** rng.uniform(-2, 1) * np.exp(1j * rng.uniform(0, 2 * math.pi))
            else:
                low, high = (290, 307) if k % 5 == 0 else (-2, 2)
                moduli = 10 ** rng.uniform(low, high, d)
                coeffs = moduli * np.exp(1j * rng.uniform(0, 2 * math.pi, d))
            map_ = PolyExpMap(d, coeffs)
            want = _config_or_overflow(scalar_make_tract_config, map_)
            got = _config_or_overflow(tracts.make_tract_config, map_)
            configs = all(isinstance(c, tracts.TractConfig) for c in (want, got))
            if configs and got.r > want.r:
                # the sampled edges missed a violation; the oracle finds it
                assert interval_tract_violations(map_, want) != []
            else:
                assert got == want
            overflows += want == "OverflowSignal"
        assert overflows > 0


def _map(d, log_moduli, phases):
    return PolyExpMap(d, [10**m * cmath.exp(1j * a) for m, a in zip(log_moduli[:d], phases[:d])])


LOG_MODULI = st.lists(st.floats(-3, 3), min_size=4, max_size=4)
PHASES = st.lists(st.floats(0, 2 * math.pi), min_size=4, max_size=4)


class TestIntervalOracle:
    """Every claim of a certified config holds under interval arithmetic
    (``oracles.interval_tract_violations``)."""

    @hypothesis.settings(max_examples=120, deadline=None)
    @hypothesis.given(st.integers(1, 4), LOG_MODULI, PHASES)
    # Maps on which one check alone decides r: without the outer-left
    # check, the outer horizontal check or the |f'| check, each of these
    # would get a smaller r that the oracle refutes.
    @hypothesis.example(2, [0.617, 0.611, 0, 0], [2.32, 4.298, 0, 0])
    @hypothesis.example(4, [-1.356, -2.957, 0.874, 1.319], [5.25, 1.771, 1.352, 4.017])
    @hypothesis.example(2, [-0.069, 0.349, 0, 0], [3.588, 1.832, 0, 0])
    def test_certified_configs_hold(self, d, log_moduli, phases):
        map_ = _map(d, log_moduli, phases)
        cfg = tracts.make_tract_config(map_)
        assert interval_tract_violations(map_, cfg) == []

    def test_seeded_sweep_certifies_or_overflows(self):
        # d = 1..6, coefficient moduli 10^-L..10^L with L from 3 to 300 and
        # random phases: every map either certifies, and the interval
        # oracle proves its config, or raises OverflowSignal.
        rng = np.random.default_rng(38)
        outcomes = {"certified": 0, "OverflowSignal": 0}
        for _ in range(200):
            d = int(rng.integers(1, 7))
            span = 10 ** rng.uniform(math.log10(3), math.log10(300))
            coeffs = 10 ** rng.uniform(-span, span, d) * np.exp(1j * rng.uniform(0, 2 * math.pi, d))
            map_ = PolyExpMap(d, coeffs)
            try:
                cfg = tracts.make_tract_config(map_)
            except OverflowSignal:
                outcomes["OverflowSignal"] += 1
                continue
            assert interval_tract_violations(map_, cfg) == []
            outcomes["certified"] += 1
        assert all(outcomes.values()), outcomes


class TestFailSafe:
    """A map whose closed-form terms overflow or turn NaN raises
    OverflowSignal and never gets a config."""

    @pytest.mark.parametrize(
        "map_",
        [
            PolyExpMap(1, [math.inf]),
            PolyExpMap(2, [0.0, math.nan]),
            PolyExpMap(3, [0.0, 0.0, 1e200]),
        ],
    )
    def test_no_config(self, map_):
        with pytest.raises(OverflowSignal):
            tracts.make_tract_config(map_)

    @pytest.mark.parametrize("b", [7e5, 1e14, 7e14, 7e17, 7e20, 1e26, 3e38])
    def test_float_ties_never_pass(self, b):
        # p = w^3 + b w^2: the outer horizontal maximum (8/27) b^3 lies 2
        # below r = 2 max|SV| + 2, which rounds to it; a check that compared
        # the rounded values as they are would pass r on these.
        map_ = PolyExpMap(3, [0.0, 0.0, b])
        cfg = tracts.make_tract_config(map_)
        assert interval_tract_violations(map_, cfg) == []

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(
        st.integers(1, 4),
        st.lists(st.floats(-300, 300), min_size=4, max_size=4),
        PHASES,
    )
    def test_extreme_maps_raise_or_hold(self, d, log_moduli, phases):
        # Coefficients across the float range: the config either is
        # refused or holds under interval arithmetic.
        map_ = _map(d, log_moduli, phases)
        try:
            cfg = tracts.make_tract_config(map_)
        except OverflowSignal:
            return
        assert all(math.isfinite(v) for v in (cfg.r, cfg.r_min, cfg.t_up, cfg.t_lo))
        assert interval_tract_violations(map_, cfg) == []


def _note(map_, cfg, z) -> str:
    """The NotEscapingError message of the forward read of z."""
    with pytest.raises(NotEscapingError) as err:
        rays.extract_potential_address(map_, cfg, z)
    return str(err.value)


class TestTractIndex:
    """The one strip reader: (nearest strip, signed offset from its center)
    for scalars and arrays, and the forward read's judgment of each read,
    note for note."""

    def test_center_hits(self, cfg_exp, cfg_d2):
        assert tracts.tract_index(100 + 0j, cfg_exp) == (0, 0.0)
        assert tracts.tract_index(50 + 3 * math.pi * 1j, cfg_d2) == (3, 0.0)
        z = np.array([100 + 0j, 7 + 2j * math.pi, -5 - 4j * math.pi])
        n, offset = tracts.tract_index(z, cfg_exp)
        assert n.tolist() == [0, 1, -2] and offset.tolist() == [0.0, 0.0, 0.0]

    def test_nominal_edge_inclusive(self, cfg_exp, cfg_d2):
        # |offset| = pi/2d exactly still reads as strip n
        assert tracts.tract_index(50 + (math.pi / 2) * 1j, cfg_exp) == (0, math.pi / 2)
        n, offset = tracts.tract_index(np.array([50 + 3 * math.pi / 4 * 1j, 9 - math.pi / 4 * 1j]), cfg_d2)
        assert n.tolist() == [1, 0] and offset.tolist() == [-math.pi / 4, -math.pi / 4]
        assert abs(offset).max() == cfg_d2.strip_half_width()
        assert rays.extract_potential_address(EXP, cfg_exp, 50 + (math.pi / 2) * 1j).prefix == (0,)

    def test_fuzz_zone_is_ambiguous(self, cfg_exp):
        half, eps = cfg_exp.strip_half_width(), cfg_exp.eps
        z = 50 + (half + eps / 2) * 1j
        n, offset = tracts.tract_index(np.array([z, z.conjugate()]), cfg_exp)
        assert n.tolist() == [0, 0] and offset.tolist() == [half + eps / 2, -(half + eps / 2)]
        assert _note(EXP, cfg_exp, z) == (
            "iterate 0 has no readable strip: tract index of (50+1.9634954084936207j) "
            "is ambiguous between (0, 1)"
        )
        assert _note(EXP, cfg_exp, z.conjugate()).endswith("ambiguous between (0, -1)")

    def test_between_strips_rejected(self, cfg_exp, cfg_d2):
        # midway between centers 0 and pi: pi/2 = pi/d from both, past the fuzz
        n, offset = tracts.tract_index(50 + (math.pi / 2) * 1j, cfg_d2)
        assert (n, offset) == (0, math.pi / 2) and offset > cfg_d2.strip_half_width() + cfg_d2.eps
        assert tracts.tract_index(50 + (3 * math.pi / 2) * 1j, cfg_d2) == (2, -math.pi / 2)
        assert _note(EXP, cfg_exp, 2.979874906119652 + 6.091013933028755j) == (
            "iterate 1 left the strip region: point (19.322982770902453-3.7597204542612146j) "
            "lies between strips (offset 2.52)"
        )

    def test_left_of_region_rejected(self, cfg_exp):
        # the reader reads any point; the forward read rejects a later
        # iterate left of t_up
        assert tracts.tract_index(-5 + 0j, cfg_exp) == (0, 0.0)
        assert _note(EXP, cfg_exp, 1.2445143538679204 + 1.5564423340784401j) == (
            "iterate 1 left the strip region: point (0.04982456600623937+3.470890994599219j) "
            "lies left of the strip region (Re < 0.0986)"
        )

    def test_leading_iterates_off_the_strips_are_skipped(self, cfg_exp):
        # iterates 0-2 lie between strips or left of them; the prefix starts at 3
        ext = rays.extract_potential_address(EXP, cfg_exp, 4.006578560535997 - 3.2229860073058156j)
        assert (ext.start, ext.prefix) == (3, (0, 0, 0, 0))

    def test_scalar_reads_equal_array_reads(self, cfg_d2_gen):
        rng = np.random.default_rng(11)
        z = rng.uniform(-5, 60, 200) + 1j * rng.uniform(-40, 40, 200)
        n, offset = tracts.tract_index(z, cfg_d2_gen)
        assert [tracts.tract_index(complex(v), cfg_d2_gen) for v in z] == list(zip(n, offset))
        assert (np.abs(offset) <= math.pi / 2 + 1e-15).all()


class TestInverseBranch:
    def test_exponential_principal(self, cfg_exp):
        assert tracts.inverse_branch(EXP, cfg_exp, 0, cmath.exp(3)) == pytest.approx(3)

    def test_exponential_shifted(self, cfg_exp):
        z = tracts.inverse_branch(EXP, cfg_exp, 2, cmath.exp(3))
        assert z == pytest.approx(3 + 4j * math.pi)

    def test_d2_fan_selection(self, cfg_d2):
        z = tracts.inverse_branch(D2, cfg_d2, 0, cmath.exp(4))
        assert z == pytest.approx(2.0, abs=1e-12)
        z1 = tracts.inverse_branch(D2, cfg_d2, 1, cmath.exp(4))
        assert z1 == pytest.approx(2.0 + 1j * math.pi, abs=1e-12)

    def test_round_trip_indices(self, cfg_d2_gen):
        rng = np.random.default_rng(7)
        for _ in range(120):
            n = int(rng.integers(-10, 11))
            w = complex(
                rng.uniform(cfg_d2_gen.r + 1, cfg_d2_gen.r + 50),
                rng.uniform(-20, 20),
            )
            z = tracts.inverse_branch(D2_GEN, cfg_d2_gen, n, w)
            assert tracts.tract_index(z, cfg_d2_gen)[0] == n
            assert abs(D2_GEN(z) - w) <= 1e-9 * max(1.0, abs(w))

    def test_domain_error_left_of_singular_values(self, cfg_exp):
        with pytest.raises(DomainError):
            tracts.inverse_branch(EXP, cfg_exp, 0, complex(cfg_exp.r_min - 1, 0))


def contraction_ratio(map_, cfg, w1, w2, n):
    """|L_n(w1) - L_n(w2)| / |w1 - w2|; zero when the seeds coincide."""
    if w1 == w2:
        return 0.0
    z1, z2 = (tracts.inverse_branch(map_, cfg, n, w) for w in (w1, w2))
    return abs(z1 - z2) / abs(w1 - w2)


class TestContraction:
    def test_exponential_ratio(self, cfg_exp):
        got = contraction_ratio(EXP, cfg_exp, cmath.exp(10), cmath.exp(10) + 1, 0)
        assert got == pytest.approx(math.exp(-10), rel=1e-3)

    def test_identical_seeds(self, cfg_exp):
        assert contraction_ratio(EXP, cfg_exp, 5 + 1j, 5 + 1j, 0) == 0.0

    def test_random_pairs_below_half(self, cfg_d2_gen):
        rng = np.random.default_rng(10)
        for _ in range(100):
            w1 = complex(rng.uniform(cfg_d2_gen.r + 1, cfg_d2_gen.r + 30), rng.uniform(-10, 10))
            w2 = complex(rng.uniform(cfg_d2_gen.r + 1, cfg_d2_gen.r + 30), rng.uniform(-10, 10))
            n = int(rng.integers(-5, 6))
            assert contraction_ratio(D2_GEN, cfg_d2_gen, w1, w2, n) < 0.5


class TestSeparation:
    def test_exponential_separation_inequality(self, cfg_exp):
        # points in one strip component, at least 2 apart: images separate
        # exponentially in the gap
        rng = np.random.default_rng(6)
        r = cfg_exp.r
        for _ in range(200):
            x1 = rng.uniform(cfg_exp.t_lo, 6.0)
            x2 = x1 + rng.uniform(2.0, 5.0)
            y1 = rng.uniform(-0.5, 0.5)
            y2 = rng.uniform(-0.5, 0.5)
            z, w = complex(x1, y1), complex(x2, y2)
            gap = abs(w - z)
            if gap < 2:
                continue
            fz, fw = EXP(z), EXP(w)
            lhs = abs(fw - fz)
            rhs = math.exp(gap / (8 * math.pi)) * (min(fz.real, fw.real) - r)
            if rhs > 0:
                assert lhs >= rhs
