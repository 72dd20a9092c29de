import numpy as np
import pytest

from oracles import (
    OracleDegenerate,
    abelianization,
    curve_clearance,
    random_word_fixture,
    winding_numbers,
)
from rayforge import homotopy as ht
from rayforge.errors import DegenerateCurveError, DomainError
from rayforge.homotopy import HomotopyWord, MarkedSet, PolylineCurve


class TestReduction:
    def test_adjacent_cancel(self):
        assert ht.reduce_letters([(0, 1), (0, -1)]) == ()

    def test_cascade(self):
        letters = [(1, 1), (0, 1), (0, -1), (1, -1), (2, 1)]
        assert ht.reduce_letters(letters) == ((2, 1),)

    def test_idempotent_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            letters = [
                (int(rng.integers(0, 4)), int(rng.choice([-1, 1])))
                for _ in range(rng.integers(0, 30))
            ]
            once = ht.reduce_letters(letters)
            assert ht.reduce_letters(once) == once

    def test_concat_reduces(self):
        a = HomotopyWord(((0, 1), (1, 1)))
        b = HomotopyWord(((1, -1), (2, 1)))
        assert ht.reduce_letters(a.letters + b.letters) == ((0, 1), (2, 1))


class TestWordOfCurve:
    def test_straight_leg_empty(self):
        marked = MarkedSet([0 + 0j, 3 + 2j])
        assert ht.word_of_curve(marked, PolylineCurve([0 + 0j])).letters == ()

    def test_exit_edge_crossing(self):
        marked = MarkedSet([0 + 2j, 3 + 0j])
        word = ht.word_of_curve(marked, PolylineCurve([0 + 2j]))
        assert word.letters == ((1, 1),)

    def test_simple_loop_single_letter(self):
        # one counterclockwise rectangle around the second point, exit below
        marked = MarkedSet([0 + 0j, 5 + 0j])
        verts = [0 + 0j, 4 - 1j, 6 - 1j, 6 + 1j, 4 + 1j, 4 - 1.5j, 7 - 1.5j]
        word = ht.word_of_curve(marked, PolylineCurve(verts))
        assert word.letters == ((1, -1),)

    def test_clockwise_loop_positive(self):
        marked = MarkedSet([0 + 0j, 5 + 0j])
        verts = [0 + 0j, 4 + 1j, 6 + 1j, 6 - 1j, 4 - 1j, 4 - 1.5j, 7 - 1.5j]
        word = ht.word_of_curve(marked, PolylineCurve(verts))
        # the loop crosses once clockwise (+1); exiting below the point adds
        # no further crossing
        assert word.letters == ((1, 1),)

    def test_wiggle_reduces(self):
        # crossing back and forth over one ray leaves a single net letter
        marked = MarkedSet([0 + 0j, 2 - 5j])
        verts = [0 + 0j, 3 + 1j, 1 + 1j, 3 + 2j]
        word = ht.word_of_curve(marked, PolylineCurve(verts))
        assert word.letters == ((1, 1),)

    def test_must_start_at_marked_point(self):
        marked = MarkedSet([0 + 0j])
        with pytest.raises(DomainError):
            ht.word_of_curve(marked, PolylineCurve([1 + 1j]))

    def test_through_point_degenerate(self):
        marked = MarkedSet([0 + 0j, 2 + 0.5j])
        curve = PolylineCurve([0 + 0j, 4 + 1j])  # passes through 2 + 0.5j
        with pytest.raises(DegenerateCurveError):
            ht.word_of_curve(marked, curve)

    def test_vertex_on_ray_degenerate(self):
        marked = MarkedSet([0 + 0j, 2 - 1j])
        curve = PolylineCurve([0 + 0j, 2 + 1j, 4 + 2j])  # vertex above 2 - 1j
        with pytest.raises(DegenerateCurveError):
            ht.word_of_curve(marked, curve)


class TestWindingOracle:
    def test_abelianization_matches_oracle_random(self):
        rng = np.random.default_rng(42)
        done = 0
        while done < 200:
            marked, base_idx, curve = random_word_fixture(rng)
            try:
                word = ht.word_of_curve(marked, curve)
                winds = winding_numbers(marked, curve)
            except (DegenerateCurveError, OracleDegenerate):
                continue
            ab = abelianization(word, len(marked))
            for i, w in enumerate(winds):
                if i == base_idx:
                    continue
                assert ab[i] == w, (done, i, ab, winds)
            done += 1

    def test_homotopy_invariance_random(self):
        rng = np.random.default_rng(7)
        done = 0
        while done < 60:
            marked, base_idx, curve = random_word_fixture(rng)
            try:
                word = ht.word_of_curve(marked, curve)
            except DegenerateCurveError:
                continue
            clearance = curve_clearance(marked, curve)
            if clearance < 1e-3:
                continue
            delta = 0.45 * clearance
            ok_all = True
            for _ in range(3):
                phases = rng.uniform(0, 2 * np.pi, len(curve.vertices) - 1)
                verts = [curve.vertices[0]] + [
                    v + delta * np.exp(1j * p)
                    for v, p in zip(curve.vertices[1:], phases)
                ]
                perturbed = ht.word_of_curve(marked, PolylineCurve(verts))
                ok_all = ok_all and perturbed.letters == word.letters
            assert ok_all
            done += 1

    def test_concatenation_on_fixture(self):
        # loop twice around one point: words concatenate without cancellation
        marked = MarkedSet([0 + 0j, 5 + 0j])
        loop = [0 + 0j, 4 + 1j, 6 + 1j, 6 - 1j, 4 - 1j]
        once = ht.word_of_curve(marked, PolylineCurve(loop + [4 - 1.5j, 7 - 1.5j]))
        assert once.letters == ((1, 1),)
        twice_verts = loop + [
            4 + 1.2j,
            6.2 + 1.2j,
            6.2 - 1.2j,
            3.8 - 1.2j,
            3.8 - 1.5j,
            7 - 1.5j,
        ]
        twice = ht.word_of_curve(marked, PolylineCurve(twice_verts))
        assert twice.letters == ht.reduce_letters(once.letters + once.letters)


class TestLegWords:
    """Words of curves from the points of a two-orbit grid, each relative to
    the points before it in column-major order (level by level)."""

    def _grid(self):
        # two orbits, three levels; distinct real parts per entry
        pts = {}
        for i in range(2):
            for j in range(3):
                pts[(i, j)] = complex(2.0 + 3.0 * j + 0.7 * i, 2.0 * i + 0.3 * j)
        return pts

    def _prefixes(self, pts):
        """(key, marked set of the points up to and including it)."""
        order = sorted(pts, key=lambda key: (key[1], key[0]))
        return [
            (key, MarkedSet([pts[k] for k in order[: n + 1]])) for n, key in enumerate(order)
        ]

    def test_straight_spider_all_empty(self):
        pts = self._grid()
        for key, marked in self._prefixes(pts):
            assert ht.word_of_curve(marked, PolylineCurve([pts[key]])).letters == (), key

    def test_equal_real_parts_straight_spider_empty(self):
        # equal-speed orbits put marked points at equal Re; curves then start
        # on earlier points' cut rays, which must still encode as empty
        pts = {(0, 0): 2.0 + 0j, (1, 0): 2.0 + 3j, (0, 1): 6.0 + 0j, (1, 1): 6.0 + 3j}
        for key, marked in self._prefixes(pts):
            assert ht.word_of_curve(marked, PolylineCurve([pts[key]])).letters == (), key

    def test_single_loop_detected(self):
        # the curve from (1, 1) loops once around grid point (0, 1), the
        # third point before it, before exiting
        pts = self._grid()
        marked = dict(self._prefixes(pts))[(1, 1)]
        start = pts[(1, 1)]  # (5.7, 2.3)
        curve = PolylineCurve(
            [
                start,
                complex(6.0, 1.3),
                complex(6.0, -0.7),
                complex(4.0, -0.7),
                complex(4.0, 1.3),
                complex(7.0, 1.3),
            ]
        )
        assert ht.word_of_curve(marked, curve).letters == ((2, 1),)

    def test_relabeling_consistency_via_abelianization(self):
        # a loop around the first-column point shows up at that generator
        pts = self._grid()
        marked = dict(self._prefixes(pts))[(1, 1)]
        curve = PolylineCurve(
            [
                pts[(1, 1)],  # (5.7, 2.3)
                complex(5.9, -0.7),
                complex(1.3, -0.7),
                complex(1.3, 0.7),
                complex(2.4, 0.7),
                complex(2.4, -1.0),
                complex(7.0, -1.0),
            ]
        )
        ab = abelianization(ht.word_of_curve(marked, curve), len(marked))
        assert ab[marked.points.index(pts[(0, 0)])] == 1
        assert sum(abs(x) for x in ab) == 1
