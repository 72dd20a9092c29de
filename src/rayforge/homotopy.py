"""Reduced free-group words for curves running to +infinity past marked points.

Convention: every marked point w casts a vertical cut ray straight up,
{Re w} x [Im w, oo).  A curve is a polyline whose last vertex continues
horizontally to +infinity; its word is the freely reduced sequence of
transversal cut-ray crossings in order along the curve, signed +1 when the
curve crosses left-to-right.  Any fixed convention encodes the same
homotopy classes up to a fixed change of generators; this one makes the
straight horizontal curve of every marked point the empty word.

Degenerate contacts (vertex on a cut ray, curve through a marked point,
vertical sliding along a ray) are rejected, not resolved; the caller
perturbs by a hair and retries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DegenerateCurveError, DomainError


@dataclass(frozen=True)
class MarkedSet:
    """Finite ordered set of pairwise distinct marked points."""

    points: tuple[complex, ...]

    def __init__(self, points: Sequence[complex]):
        pts = tuple(complex(p) for p in points)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if pts[i] == pts[j]:
                    raise DomainError(f"marked points {i} and {j} coincide")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class PolylineCurve:
    """Polyline from a marked point, continued horizontally to +infinity.

    ``vertices`` are the finite corners; the segment from the last vertex
    extends to Re -> +oo at constant imaginary part.
    """

    vertices: tuple[complex, ...]

    def __init__(self, vertices: Sequence[complex]):
        vs = tuple(complex(v) for v in vertices)
        if not vs:
            raise DomainError("curve needs at least its starting vertex")
        object.__setattr__(self, "vertices", vs)


@dataclass(frozen=True)
class HomotopyWord:
    """Freely reduced word; letters are (marked-point index, sign)."""

    letters: tuple[tuple[int, int], ...]


def reduce_letters(letters: Sequence[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Freely reduce: cancel adjacent (i,+1)(i,-1) and (i,-1)(i,+1)."""
    stack: list[tuple[int, int]] = []
    for letter in letters:
        if stack and stack[-1][0] == letter[0] and stack[-1][1] == -letter[1]:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


def _segment_crossings(
    a: complex, b: complex, marked: MarkedSet, skip_start_vertex: bool
) -> list[tuple[float, int, int]]:
    """Crossing events (parameter, index, sign) of one finite segment."""
    events = []
    for idx, w in enumerate(marked.points):
        xa = a.real - w.real
        xb = b.real - w.real
        if xa == 0.0 and xb == 0.0:
            if max(a.imag, b.imag) >= w.imag:
                raise DegenerateCurveError(
                    f"segment slides along the cut ray of point {idx}"
                )
            continue
        if xa == 0.0:
            if skip_start_vertex or a.imag < w.imag:
                # Either the curve's start (crossings need t > 0, and the
                # segment leaves the vertical line immediately) or a vertex
                # strictly below the ray origin: no crossing either way.
                continue
            raise DegenerateCurveError(f"vertex sits on the cut ray of point {idx}")
        if xb == 0.0:
            if b.imag >= w.imag:
                raise DegenerateCurveError(f"vertex sits on the cut ray of point {idx}")
            continue
        if (xa < 0) == (xb < 0):
            continue
        tstar = xa / (xa - xb)
        ystar = a.imag + tstar * (b.imag - a.imag)
        if ystar == w.imag:
            raise DegenerateCurveError(f"curve passes through marked point {idx}")
        if ystar > w.imag:
            events.append((tstar, idx, 1 if xb > xa else -1))
    events.sort(key=lambda e: e[0])
    return events


def word_of_curve(marked: MarkedSet, curve: PolylineCurve) -> HomotopyWord:
    """Crossing word of the curve relative to the marked set.

    The curve must start at one of the marked points; its interior must
    avoid them.  The final horizontal edge crosses the ray of every marked
    point strictly below it and strictly right of the last vertex.
    """
    start = curve.vertices[0]
    if start not in marked.points:
        raise DomainError("curve must start at a marked point")
    letters: list[tuple[int, int]] = []
    vs = curve.vertices
    for k in range(len(vs) - 1):
        a, b = vs[k], vs[k + 1]
        if a == b:
            continue
        for _, idx, sign in _segment_crossings(a, b, marked, skip_start_vertex=(k == 0)):
            letters.append((idx, sign))
    # Final horizontal edge from the last vertex to +infinity.
    last = vs[-1]
    tail = []
    for idx, w in enumerate(marked.points):
        if w.real == last.real:
            # The open edge has x > Re w throughout, so it never crosses this
            # ray; only an interior exit vertex strictly above w sits on it
            # (the curve's start vertex is exempt, as in the segments).
            if w != last and last != vs[0] and w.imag < last.imag:
                raise DegenerateCurveError(
                    f"exit vertex sits on the cut ray of point {idx}"
                )
            continue
        if w.real > last.real:
            if w.imag == last.imag:
                raise DegenerateCurveError(f"exit line hits marked point {idx}")
            if w.imag < last.imag:
                tail.append((w.real, idx))
    for _, idx in sorted(tail):
        letters.append((idx, 1))
    return HomotopyWord(reduce_letters(letters))
