"""The array pass of ``tracts.inverse_branches``: every row bitwise equal
to its one-row call (a hypothesis property over mixed batches, on every
path a row can take), the same outcomes as the row-by-row rule, and
certified rows accurate to a few ulp of 60-digit preimages."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from rayforge import polyexp, presets, tracts
from rayforge.errors import BranchSelectionError, DomainError, RayforgeError
from rayforge.polyexp import PolyExpMap

from oracles import branch_digits, scalar_inverse_branch

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

# One map per path a row can take: at d = 1 no root choice; at d = 3 and
# d = 5 Newton's method for certified rows (Re w > r), with the root solve
# for the rest and for the certified rows whose Newton root fails a check.
# Each pool holds a row of every outcome the map has (d = 1 has no stalled
# solve), and "newton" / "fallback" name the certified rows that do not and
# do reach the root solve.
PATHS = {
    "d1": (
        PolyExpMap(1, [21000000.0 - 260000000.0j]),
        [
            ("solve", 2, 523661528.59531564 - 12015392.650975449j),
            ("solve", 0, complex(21000000.000001, 5.0)),  # DomainError
            ("solve", 2**60, 5216933985462.856 + 0j),  # BranchSelectionError
            ("solve", 0, 1.1352323168578197e304 + 0j),  # OverflowSignal
        ],
    ),
    "d3": (
        PolyExpMap(3, [-80.2 + 42j, -132.4 + 113.6j, -24.8 + 11j]),
        [
            ("newton", 2, 12893.241057251 - 295.8348959911247j),
            ("fallback", 0, 12854.324239956331 - 13630.219052626275j),
            ("solve", -2, 437.75278248709805 - 15.064047142189871j),
            ("solve", 0, complex(54.0, 5.0)),  # DomainError
            ("solve", -1, 62.60868287628567 + 299.2796983477575j),  # no root in strip
            ("fallback", 2**60, 128447830.86274534 + 0j),  # branch residual
            ("fallback", 0, 1.1352323168578197e304 + 0j),  # OverflowSignal
            # RootSolveError: p(z) overflows at the largest double's roots,
            # and |w| overflows beside them
            ("fallback", 0, 1.7976931348623157e308 + 0j),
            ("fallback", 1, 1.7e308 + 1.7e308j),
            ("solve", 0, complex(math.nan, 1.0)),  # DomainError: not finite
        ],
    ),
    "d5": (
        PolyExpMap(5, [-159.4 + 54.1j, 44.6 + 5.9j, -111.6 + 6.6j, -5.6 + 73.1j, 175.9 + 92.1j]),
        [
            ("newton", 2, 201174072829.10687 - 4615930986.417079j),
            ("fallback", 3, 201888047678.7713 - 181611118814.13956j),
            ("solve", -1, 4.042154420707671 + 4795070.076464716j),
            ("solve", -2, -1155.2202810195547 + 39.75369996284444j),  # DomainError
            ("solve", 0, 754.628975405588 - 472907164.1068232j),  # no root in strip
            ("fallback", 2**60, 2004179799786681.8 + 0j),  # branch residual
            ("fallback", 0, 1.1352323168578197e304 + 0j),  # OverflowSignal
            ("fallback", 0, 1.7976931348623157e308 + 0j),  # RootSolveError
            ("fallback", 1, 1.7e308 + 1.7e308j),  # RootSolveError
            ("solve", 0, complex(math.nan, 1.0)),  # DomainError: not finite
        ],
    ),
}


def _path_rows(name):
    """Pool rows of map ``name`` and random rows around its r: certified
    rows to the right, best-effort rows to the left."""
    map_, pool = PATHS[name]
    cfg = tracts.make_tract_config(map_)
    near_r = st.builds(
        lambda x, y: complex(cfg.r * x, cfg.r * y), st.floats(0.0, 4.0), st.floats(-4.0, 4.0)
    )
    return st.lists(
        st.one_of(st.sampled_from([(n, w) for _, n, w in pool]), st.tuples(st.integers(-3, 3), near_r)),
        min_size=1,
        max_size=10,
    )


def _bits(values) -> list:
    return [tuple(np.array([complex(v)]).view(np.int64)) for v in values]


def _outcome(branch, *args):
    """The value ``branch(*args)`` returns, or the error it raises."""
    try:
        return branch(*args)
    except RayforgeError as exc:
        return exc


def _assert_rows_independent(map_, cfg, rows):
    """Every row of one batched call bitwise equal to its one-row call:
    the same value, or the same error with the same candidates."""
    ns, ws = zip(*rows)
    z, errors = tracts.inverse_branches(map_, cfg, list(ns), list(ws))
    for k, (n, w) in enumerate(rows):
        want = _outcome(tracts.inverse_branch, map_, cfg, n, w)
        if isinstance(want, RayforgeError):
            got = errors.pop(k)
            assert type(got) is type(want) and str(got) == str(want)
            assert _bits(getattr(got, "candidates", ())) == _bits(getattr(want, "candidates", ()))
            assert cmath.isnan(z[k])
        else:
            assert _bits([z[k]]) == _bits([want])
    assert not errors
    # the rows as one array, as the ray tracer passes them
    z2, errors2 = tracts.inverse_branches(map_, cfg, list(ns), np.array(ws))
    assert _bits(z2) == _bits(z) and errors2.keys() == {
        k for k, (n, w) in enumerate(rows) if cmath.isnan(z[k])
    }


def _path(map_, cfg, n, w, monkeypatch) -> str:
    """Whether row (n, w) is certified at d >= 3 ("newton" when it never
    reaches the root solve, "fallback" when it does) or not ("solve")."""
    solved = []
    solve = polyexp.poly_roots_batch
    monkeypatch.setattr(polyexp, "poly_roots_batch", lambda m, ws: solved.append(1) or solve(m, ws))
    _outcome(tracts.inverse_branch, map_, cfg, n, w)
    monkeypatch.setattr(polyexp, "poly_roots_batch", solve)
    if map_.d < 3 or not w.real > cfg.r:
        return "solve"
    return "fallback" if solved else "newton"


class TestRowIndependence:
    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(
        st.lists(st.one_of(st.sampled_from(WILD_ROWS), RANDOM_ROWS), min_size=1, max_size=10)
    )
    def test_rows_bitwise_equal_one_row_calls(self, rows):
        _assert_rows_independent(WILD, WILD_CFG, rows)

    def test_pool_covers_every_outcome(self):
        kinds = {
            type(_outcome(tracts.inverse_branch, WILD, WILD_CFG, n, w)).__name__
            for n, w in WILD_ROWS
        }
        assert kinds == {
            "complex", "DomainError", "BranchSelectionError", "RootSolveError", "OverflowSignal"
        }

    @pytest.mark.parametrize("name", sorted(PATHS))
    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(data=st.data())
    def test_rows_bitwise_equal_one_row_calls_on_every_path(self, name, data):
        map_ = PATHS[name][0]
        _assert_rows_independent(map_, tracts.make_tract_config(map_), data.draw(_path_rows(name)))

    @pytest.mark.parametrize("name", sorted(PATHS))
    def test_path_pools_cover_every_path_and_outcome(self, name, monkeypatch):
        map_, pool = PATHS[name]
        cfg = tracts.make_tract_config(map_)
        seen = set()
        for path, n, w in pool:
            assert _path(map_, cfg, n, w, monkeypatch) == path
            outcome = _outcome(tracts.inverse_branch, map_, cfg, n, w)
            seen.add((path, type(outcome).__name__))
        kinds = {kind for _, kind in seen}
        assert kinds == {"complex", "DomainError", "BranchSelectionError", "OverflowSignal"} | (
            {"RootSolveError"} if map_.d >= 3 else set()
        )
        if map_.d >= 3:
            assert {("newton", "complex"), ("fallback", "complex"), ("solve", "complex")} <= seen


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

    def test_left_of_the_singular_values_comes_first(self):
        # A seed with Re <= r_min, -inf included, is refused as left of the
        # singular values even when it is not finite; every other
        # non-finite seed, a NaN real part included, is "not finite".
        cfg = tracts.make_tract_config(presets.D2_MAP)
        left = f"is not right of the singular values (Re <= {cfg.r_min:.3g})"
        rows = [
            (complex(-math.inf, 0.0), left),
            (complex(-math.inf, math.inf), left),
            (complex(cfg.r_min - 1, math.inf), left),
            (complex(cfg.r_min, math.nan), left),
            (complex(math.nan, 0.0), "is not finite"),
            (complex(math.nan, math.nan), "is not finite"),
            (complex(cfg.r_min + 10, math.inf), "is not finite"),
            (complex(math.inf, 0.0), "is not finite"),
        ]
        seeds = [w for w, _ in rows]
        z, errors = tracts.inverse_branches(presets.D2_MAP, cfg, [0] * len(rows), seeds)
        assert sorted(errors) == list(range(len(rows))) and np.isnan(z).all()
        for k, (w, message) in enumerate(rows):
            assert type(errors[k]) is DomainError and str(errors[k]) == f"seed {w} {message}"
            with pytest.raises(DomainError) as one_row:
                tracts.inverse_branch(presets.D2_MAP, cfg, 0, w)
            assert str(one_row.value) == str(errors[k])


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


class TestMovedNewtonRoot:
    """A certified row's Newton root is checked as a chosen root is: moved
    off the preimage, it fails the residual check, and the row falls back
    to the root solve rather than passing."""

    MAP = PATHS["d3"][0]
    N, W = 2, 12893.241057251 - 295.8348959911247j

    def test_moved_root_falls_back(self, monkeypatch):
        cfg = tracts.make_tract_config(self.MAP)
        newton = tracts._newton_roots
        right = tracts.inverse_branch(self.MAP, cfg, self.N, self.W)
        assert _bits([right]) == _bits(newton(self.MAP, np.array([self.N]), np.array([self.W])))

        solved = []
        solve = polyexp.poly_roots_batch
        monkeypatch.setattr(polyexp, "poly_roots_batch", lambda m, ws: solved.append(1) or solve(m, ws))
        monkeypatch.setattr(tracts, "_newton_roots", lambda *args: newton(*args) * (1 + 1e-8))
        moved = tracts.inverse_branch(self.MAP, cfg, self.N, self.W)
        monkeypatch.setattr(tracts, "_newton_roots", lambda m, ns, ws: np.full(len(ws), np.nan + 0j))
        fallback = tracts.inverse_branch(self.MAP, cfg, self.N, self.W)
        assert solved == [1, 1] and _bits([moved]) == _bits([fallback])
        assert abs(moved - right) <= 1e-12 * abs(right)


class TestSixtyDigits:
    """Rows at d = 3..5 (|n| <= 3) against 60-digit preimages: certified
    rows (Re w > r) end Newton's method in the strip within a few ulp, and
    best-effort rows the eigenvalue solve within tens."""

    def test_certified_rows_p99_within_4_ulp(self):
        rng = np.random.default_rng(40)
        errors = []
        for d in (3, 4, 5):
            for _ in range(8):
                map_ = PolyExpMap(d, rng.normal(size=d) + 1j * rng.normal(size=d))
                cfg = tracts.make_tract_config(map_)
                scale = cfg.r * 10 ** rng.uniform(-3, 3, 16)
                ws = cfg.r + scale + 1j * rng.normal(size=16) * scale
                ns = rng.integers(-3, 4, 16)
                z, failed = tracts.inverse_branches(map_, cfg, ns, ws)
                assert not failed
                with mpmath.workdps(60):
                    for zk, n, w in zip(z.tolist(), ns.tolist(), ws.tolist()):
                        exact = branch_digits(map_, n, w)
                        errors.append(float(abs(zk - exact)) / math.ulp(max(abs(zk.real), abs(zk.imag))))
        assert np.percentile(errors, 99) <= 4

    def test_best_effort_rows_p99_within_40_ulp(self):
        # Best-effort rows (r_min < Re w <= r) take all d roots, as
        # companion-matrix eigenvalues, and the choice: p99 24 ulp here,
        # where the Ehrlich-Aberth sweeps' residual stop left 258.
        rng = np.random.default_rng(41)
        errors = []
        for d in (3, 4, 5):
            for _ in range(8):
                map_ = PolyExpMap(d, rng.uniform(-1, 1, d) + 1j * rng.uniform(-1, 1, d))
                cfg = tracts.make_tract_config(map_)
                ws = cfg.r_min + (cfg.r - cfg.r_min) * (1 - rng.random(16)) + 1j * rng.normal(size=16) * cfg.r
                ns = rng.integers(-3, 4, 16)
                z, failed = tracts.inverse_branches(map_, cfg, ns, ws)
                with mpmath.workdps(60):
                    for k in sorted(set(range(16)) - set(failed)):
                        zk, exact = complex(z[k]), branch_digits(map_, int(ns[k]), complex(ws[k]))
                        errors.append(float(abs(zk - exact)) / math.ulp(max(abs(zk.real), abs(zk.imag))))
        assert len(errors) > 300 and np.percentile(errors, 99) <= 40


class TestScalarReference:
    """The array pass against the row-by-row rule it replaced: the same
    outcome and strip, and preimages that differ in the last bit at most,
    from numpy's log in place of cmath's."""

    @pytest.mark.parametrize(
        "map_",
        [PolyExpMap(2, [1.0, 2.0]), WILD, PolyExpMap(3, [2.0, -1 + 1j, 0.5]), PATHS["d5"][0]],
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
