"""The array pass of ``tracts.inverse_branches``: every row bitwise equal
to its one-row call (a hypothesis property over mixed batches), and the
same outcomes as the row-by-row rule it replaced."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from rayforge import polyexp, presets, tracts
from rayforge.errors import BranchSelectionError, DomainError, RayforgeError
from rayforge.polyexp import PolyExpMap

from oracles import scalar_inverse_branch

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# Large coefficients, so that rows end in every way a row can end.
WILD = PolyExpMap(
    2, [21392113.801044248 - 261892644.14959052j, 12455648.527295744 + 7193839.955820953j]
)
WILD_CFG = tracts.make_tract_config(WILD)
WILD_ROWS = [
    (0, 3e7 + 1e3j),  # a preimage
    (1, 5e8 - 2e8j),  # a preimage
    (0, complex(WILD_CFG.r_min, 5.0)),  # DomainError: left of the singular values
    (0, 21430613.996445704 - 698305446.9543461j),  # BranchSelectionError: no root in strip
    # preimages near the critical value b_0 - b_1^2/4, whose residuals round
    # at the scale of p's terms, far above |w|
    (-3, 21392114.094972994 + 0.024729019256154863j),
    (1, 21392114.56523069 - 118.74595111004622j),
    (0, 1e308 + 0j),  # RootSolveError: b_1^2 - 4(b_0 - w) overflows
    (2, 1e306 + 0j),  # OverflowSignal: f overflows at the branch
]
# Random rows just right of the singular values: any outcome.
RANDOM_ROWS = st.tuples(
    st.integers(-3, 3),
    st.builds(
        lambda x, y: complex(WILD_CFG.r_min + x, y),
        st.floats(-10.0, 1e9),
        st.floats(-1e9, 1e9),
    ),
)


def _bits(values) -> list:
    return [tuple(np.array([complex(v)]).view(np.int64)) for v in values]


def _outcome(branch, *args):
    """The value ``branch(*args)`` returns, or the error it raises."""
    try:
        return branch(*args)
    except RayforgeError as exc:
        return exc


class TestRowIndependence:
    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(
        st.lists(st.one_of(st.sampled_from(WILD_ROWS), RANDOM_ROWS), min_size=1, max_size=10)
    )
    def test_rows_bitwise_equal_one_row_calls(self, rows):
        ns, ws = zip(*rows)
        z, errors = tracts.inverse_branches(WILD, WILD_CFG, list(ns), list(ws))
        for k, (n, w) in enumerate(rows):
            want = _outcome(tracts.inverse_branch, WILD, WILD_CFG, n, w)
            if isinstance(want, RayforgeError):
                got = errors.pop(k)
                assert type(got) is type(want) and str(got) == str(want)
                assert _bits(getattr(got, "candidates", ())) == _bits(getattr(want, "candidates", ()))
                assert cmath.isnan(z[k])
            else:
                assert _bits([z[k]]) == _bits([want])
        assert not errors
        # the rows as one array, as the ray tracer passes them
        z2, errors2 = tracts.inverse_branches(WILD, WILD_CFG, list(ns), np.array(ws))
        assert _bits(z2) == _bits(z) and errors2.keys() == {
            k for k, (n, w) in enumerate(rows) if cmath.isnan(z[k])
        }

    def test_pool_covers_every_outcome(self):
        kinds = {
            type(_outcome(tracts.inverse_branch, WILD, WILD_CFG, n, w)).__name__
            for n, w in WILD_ROWS
        }
        assert kinds == {
            "complex", "DomainError", "BranchSelectionError", "RootSolveError", "OverflowSignal"
        }


class TestNonFiniteSeeds:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_refused_without_a_solve(self, monkeypatch):
        cfg = tracts.make_tract_config(presets.D2_MAP)
        solved = []
        solve = polyexp.poly_roots_batch
        monkeypatch.setattr(polyexp, "poly_roots_batch", lambda m, ws: solved.append(ws) or solve(m, ws))
        seeds = [math.nan, complex(5, math.inf), math.inf, 50.0]
        z, errors = tracts.inverse_branches(presets.D2_MAP, cfg, [0, 0, 0, 0], seeds)
        assert sorted(errors) == [0, 1, 2]
        for k, exc in errors.items():
            assert type(exc) is DomainError and str(exc) == f"seed {complex(seeds[k])} is not finite"
        assert np.isnan(z[:3]).all() and z[3] == tracts.inverse_branch(presets.D2_MAP, cfg, 0, 50.0)
        assert [list(ws) for ws in solved] == [[50.0], [50.0]]


class TestFarSingularValue:
    """exp(z) - 1e8: the branch log(w + 1e8) is right to the last bits, but
    its residual is the rounding of exp at |f'| = 1e8."""

    MAP = PolyExpMap(1, [-1e8])
    W = 96.02236556502682 + 0j

    def test_right_branch_passes(self):
        z = tracts.inverse_branch(self.MAP, tracts.make_tract_config(self.MAP), 0, self.W)
        with mpmath.workdps(50):
            exact = mpmath.log(mpmath.mpf(self.W.real) + 10**8)
            assert abs(z - exact) <= 2 * math.ulp(z.real)

    def test_moved_branch_fails(self, monkeypatch):
        solve = polyexp.poly_roots_batch

        def moved(map_, ws):
            roots, stalled = solve(map_, ws)
            return roots * (1 + 1e-8), stalled

        monkeypatch.setattr(polyexp, "poly_roots_batch", moved)
        with pytest.raises(BranchSelectionError, match="branch residual"):
            tracts.inverse_branch(self.MAP, tracts.make_tract_config(self.MAP), 0, self.W)


class TestScalarReference:
    """The array pass against the row-by-row rule it replaced: the same
    outcome and strip, and preimages that differ in the last bit at most,
    from numpy's log in place of cmath's."""

    @pytest.mark.parametrize(
        "map_", [PolyExpMap(2, [1.0, 2.0]), WILD, PolyExpMap(3, [2.0, -1 + 1j, 0.5])]
    )
    def test_same_outcomes_to_one_ulp(self, map_):
        cfg = tracts.make_tract_config(map_)
        rng = np.random.default_rng(3)
        ws = cfg.r_min + 10 ** rng.uniform(-3, 9, 300) + 1j * rng.normal(size=300) * 10 ** rng.uniform(-3, 9, 300)
        ns = rng.integers(-4, 5, 300)
        z, errors = tracts.inverse_branches(map_, cfg, ns, ws)
        for k in range(len(ws)):
            want = _outcome(scalar_inverse_branch, map_, cfg, int(ns[k]), ws[k])
            if isinstance(want, RayforgeError):
                assert type(errors[k]) is type(want) and str(errors[k]) == str(want)
                got_c = getattr(errors[k], "candidates", ())
                want_c = getattr(want, "candidates", ())
                assert len(got_c) == len(want_c)
                assert all(_ulps(a, b) <= 1 for a, b in zip(got_c, want_c))
            else:
                assert k not in errors and _ulps(z[k], want) <= 1
                assert z[k].imag == want.imag


def _ulps(a: complex, b: complex) -> float:
    """|a - b| in units of the last place of a's larger component."""
    return abs(a - b) / math.ulp(max(abs(a.real), abs(a.imag)))
