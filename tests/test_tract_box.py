"""One tract certificate for a box of maps (``tracts.TractBox``): sound
against the independent scalar certifier on the box boundary, and never
reused for a map outside the box."""

import cmath
import math

import pytest

from rayforge import config, presets, thurston, tracts
from rayforge.polyexp import PolyExpMap

from oracles import scalar_make_tract_config

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

PHASES = st.lists(st.floats(0, 2 * math.pi), min_size=3, max_size=3)


def _member(box: tracts.TractBox, scale: float, phases) -> PolyExpMap:
    """The map b_k = center_k + scale * slack_k * e^{i phase_k}."""
    return PolyExpMap(
        len(box.center),
        [c + scale * s * cmath.exp(1j * t) for c, s, t in zip(box.center, box.slack, phases)],
    )


class TestBoxSoundness:
    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(
        st.integers(1, 3),
        st.lists(st.floats(-2, 2), min_size=3, max_size=3),
        PHASES,
        PHASES,
        st.sampled_from([config.TRACT_BOX_RHO, 1.0, 2.0]),
    )
    def test_boundary_members_pass_the_scalar_certifier(self, d, log_moduli, args, phases, rho):
        # A member on the box boundary (a hair inside, so that rounding
        # keeps it covered) passes the per-map certifier started at the
        # box's r, at that r, and is served exactly that certificate.  The
        # wider boxes are those in which the |f'| margins decide.
        coeffs = [10**m * cmath.exp(1j * a) for m, a in zip(log_moduli, args)]
        center = PolyExpMap(d, coeffs[:d])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(config, "TRACT_BOX_RHO", rho)
            box = tracts.make_tract_box(center)
        hypothesis.assume(any(box.slack))
        member = _member(box, 1 - 1e-12, phases)
        served = box.covers(member)
        hypothesis.assume(served is not None)
        assert scalar_make_tract_config(member, r_floor=box.cfg.r) == served


class TestReuseGuard:
    """A map outside its box gets a fresh certificate; a member reuses it."""

    SPEC = presets.SPEC_D2

    @pytest.fixture
    def box_state(self):
        state = thurston.init_state(self.SPEC)
        return tracts.make_tract_box(state.map), state

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        make = tracts.make_tract_config

        def counted(*args, **kwargs):
            calls.append(args[0])
            return make(*args, **kwargs)

        monkeypatch.setattr(tracts, "make_tract_config", counted)
        return calls

    def _step(self, box, state, member):
        return thurston.pullback_step(
            thurston.ThurstonState(member, self.SPEC, state.z, box=box)
        )

    def test_member_reuses_the_box(self, box_state, builds):
        box, state = box_state
        member = _member(box, 0.5, (1.0, 2.0))
        step = self._step(box, state, member)
        assert builds == [] and step.box is box
        served = box.covers(member)
        assert served.r == box.cfg.r and served.r_min == tracts._r_min(member.singular_data())

    @pytest.mark.parametrize("k", [0, 1])
    def test_coefficient_past_its_slack(self, k, box_state, builds):
        box, state = box_state
        coeffs = list(box.center)
        coeffs[k] += box.slack[k] * (1 + 1e-9)
        member = PolyExpMap(2, coeffs)
        assert box.covers(member) is None
        step = self._step(box, state, member)
        assert builds == [member] and step.box.center == member.coeffs

    def test_singular_value_beyond_r(self, box_state, builds):
        # The box's r bounds the singular values to first order in the
        # slack; the critical value b_0 - b_1^2/4 has a second-order term,
        # so some member of the box puts a singular value beyond it.
        box, state = box_state
        grid = [2 * math.pi * k / 48 for k in range(48)]
        member = max(
            (_member(box, 1 - 1e-12, (a, b)) for a in grid for b in grid),
            key=lambda m: m.singular_data().max_modulus(),
        )
        assert 2 * member.singular_data().max_modulus() + 2 > box.cfg.r
        assert box.covers(member) is None
        step = self._step(box, state, member)
        assert builds == [member] and step.box.center == member.coeffs
