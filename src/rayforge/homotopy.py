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
perturbs by a hair and retries.  A repeated vertex is a zero-length
segment and changes nothing: the curve's word, or its error, is that of
the curve without the repeat.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Sequence

from .errors import DegenerateCurveError, DomainError


def _finite(values: Sequence[complex], what: str) -> tuple[complex, ...]:
    """The values as complex numbers; DomainError names the first that is
    not finite, whose cut ray or crossing the word cannot place."""
    zs = tuple(map(complex, values))
    bad = next((i for i, z in enumerate(zs) if not cmath.isfinite(z)), None)
    if bad is not None:
        raise DomainError(f"{what} {bad} is not finite: {zs[bad]!r}")
    return zs


@dataclass(frozen=True, init=False)
class MarkedSet:
    """Finite ordered set of pairwise distinct marked points.

    A dataclass, not a NamedTuple, because its own ``__init__`` validates
    the points: a point that is not finite is refused by its index, then
    one pass keeps each value's first index, and a coincidence names the
    first pair (i, j) in lexicographic order (0.0 == -0.0).
    """

    points: tuple[complex, ...]

    def __init__(self, points: Sequence[complex]):
        pts = _finite(points, "marked point")
        first: dict[complex, int] = {}
        clashes = [(i, j) for j, p in enumerate(pts) if (i := first.setdefault(p, j)) != j]
        if clashes:
            i, j = min(clashes)
            raise DomainError(f"marked points {i} and {j} coincide")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True, init=False)
class PolylineCurve:
    """Polyline from a marked point, continued horizontally to +infinity.

    ``vertices`` are the finite corners; the segment from the last vertex
    extends to Re -> +oo at constant imaginary part.  A dataclass, not a
    NamedTuple, because its own ``__init__`` validates the vertices: there
    is at least one, and a vertex that is not finite is refused by its
    index.
    """

    vertices: tuple[complex, ...]

    def __init__(self, vertices: Sequence[complex]):
        vs = _finite(vertices, "curve vertex")
        if not vs:
            raise DomainError("curve needs at least its starting vertex")
        object.__setattr__(self, "vertices", vs)


def reduce_letters(letters: Sequence[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Freely reduce: cancel adjacent (i,+1)(i,-1) and (i,-1)(i,+1)."""
    stack: list[tuple[int, int]] = []
    for letter in letters:
        if stack and stack[-1][0] == letter[0] and stack[-1][1] == -letter[1]:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


def _segment_crossings(a: complex, b: complex, marked: MarkedSet) -> list[tuple[float, int, int]]:
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
            # Crossings need t > 0, and the segment leaves the vertical line
            # at once.  A vertex on the ray itself is the curve's start, once
            # or repeated: the segment ending at any other one rejected it.
            continue
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


def word_of_curve(marked: MarkedSet, curve: PolylineCurve) -> tuple[tuple[int, int], ...]:
    """Crossing word of the curve relative to the marked set: its freely
    reduced letters (marked-point index, sign).

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
        for _, idx, sign in _segment_crossings(a, b, marked):
            letters.append((idx, sign))
    # Final horizontal edge from the last vertex to +infinity.
    last = vs[-1]
    tail = []
    for idx, w in enumerate(marked.points):
        if w.real == last.real:
            # The open edge has x > Re w throughout, so it never crosses this
            # ray.  An exit vertex on the ray ends a non-degenerate segment,
            # whose crossing scan has already rejected it, or is the start.
            continue
        if w.real > last.real:
            if w.imag == last.imag:
                raise DegenerateCurveError(f"exit line hits marked point {idx}")
            if w.imag < last.imag:
                tail.append((w.real, idx))
    for _, idx in sorted(tail):
        letters.append((idx, 1))
    return reduce_letters(letters)
