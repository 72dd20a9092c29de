"""Crossing words of curves running to +infinity past marked points.

Every marked point casts a vertical cut ray upward; a curve's word is the
reduced sequence of signed ray crossings along it (left-to-right = +1).
The words detect marked points that a curve wraps around.
"""

from rayforge import homotopy as ht

marked = ht.MarkedSet([0 + 0j, 5 - 1j, 3 + 2j])
print("marked points:", [f"{p:.0f}" for p in marked.points])

print("\nstraight leg of the rightmost point: nothing lies ahead of it")
word = ht.word_of_curve(marked, ht.PolylineCurve([5 - 1j]))
print("  word:", word)

print("\nstraight leg of the first point: its exit passes above 5-1j")
word = ht.word_of_curve(marked, ht.PolylineCurve([0 + 0j]))
print("  word:", word, "(one crossing of that cut ray)")

print("\nclockwise loop around 5-1j, exiting below it:")
loop = ht.PolylineCurve(
    [0 + 0j, 4 + 0j, 6 + 0j, 6 - 2j, 4 - 2j, 4 - 2.5j, 7 - 2.5j]
)
word = ht.word_of_curve(marked, loop)
print("  word:", word)

print("\na back-and-forth wiggle cancels under free reduction:")
letters = [(1, 1), (2, 1), (2, -1), (1, -1), (0, 1)]
print(f"  raw {letters} -> reduced {ht.reduce_letters(letters)}")
