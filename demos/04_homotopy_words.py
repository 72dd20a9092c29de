"""Crossing words of curves running to +infinity past marked points.

Every marked point casts a vertical cut ray upward; a curve's word is the
reduced sequence of signed ray crossings along it (left-to-right = +1).
The words are what a future steering layer would use to select branches
when marked points wrap around each other; here they detect such wrapping.
"""

import numpy as np

from rayforge import homotopy as ht

marked = ht.MarkedSet([0 + 0j, 5 - 1j, 3 + 2j])
print("marked points:", [f"{p:.0f}" for p in marked.points])

print("\nstraight leg of the rightmost point: nothing lies ahead of it")
word = ht.word_of_curve(marked, ht.straight_leg(5 - 1j))
print("  word:", word.letters)

print("\nstraight leg of the first point: its exit passes above 5-1j")
word = ht.word_of_curve(marked, ht.straight_leg(0 + 0j))
print("  word:", word.letters, "(one crossing of that cut ray)")

print("\nclockwise loop around 5-1j, exiting below it:")
loop = ht.PolylineCurve(
    [0 + 0j, 4 + 0j, 6 + 0j, 6 - 2j, 4 - 2j, 4 - 2.5j, 7 - 2.5j]
)
word = ht.word_of_curve(marked, loop)
print("  word:", word.letters)

print("\na back-and-forth wiggle cancels under free reduction:")
letters = [(1, 1), (2, 1), (2, -1), (1, -1), (0, 1)]
print(f"  raw {letters} -> reduced {ht.reduce_letters(letters)}")

print("\nspider legs of a two-orbit grid, relative the points before them:")
pts = {
    (i, j): complex(2 + 3 * j + 0.7 * i, 2 * i + 0.3 * j)
    for i in range(2)
    for j in range(3)
}
legs = {key: ht.straight_leg(z) for key, z in pts.items()}
words = ht.leg_words(pts, legs)
print("  straight spider:", {k: len(w) for k, w in sorted(words.items())})

legs[(1, 1)] = ht.PolylineCurve(
    [pts[(1, 1)], 6 + 1.3j, 6 - 0.7j, 4 - 0.7j, 4 + 1.3j, 7 + 1.3j]
)
words = ht.leg_words(pts, legs)
print("  after looping leg (1,1) around grid point (0,1):",
      {k: len(w) for k, w in sorted(words.items())})

print("\npullback growth budget (how long words may get per lift):")
for j in range(4):
    print(f"  level {j}: admissible length "
          f"{ht.word_budget(3, j):.0f} (cascade budget), "
          f"one-lift bound {ht.growth_bound(1, j):.0f}")
