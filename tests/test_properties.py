"""Hypothesis properties of the address and word bookkeeping: canonical
forms, shifts, overlaps, tail agreement and free reduction."""

import pytest

from oracles import abelianization
from rayforge.homotopy import HomotopyWord, reduce_letters
from rayforge.potentials import ExternalAddress, _tails_agree_infinitely_often

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

ENTRIES = st.integers(-2, 2)
ADDRESSES = st.builds(
    ExternalAddress,
    st.lists(ENTRIES, max_size=4).map(tuple),
    st.lists(ENTRIES, min_size=1, max_size=4).map(tuple),
)
LETTERS = st.lists(st.tuples(st.integers(0, 3), st.sampled_from((-1, 1))), max_size=30)


def _prefix(addr: ExternalAddress, n: int = 40) -> list[int]:
    return [addr.entry(k) for k in range(n)]


@settings(max_examples=200, deadline=None)
@given(ADDRESSES)
def test_canonical_is_idempotent_and_keeps_the_sequence(addr):
    c = addr.canonical()
    again = c.canonical()
    assert (again.preperiod, again.period) == (c.preperiod, c.period)
    # Another representation of the same sequence has the same canonical form.
    assert ExternalAddress(addr.preperiod + addr.period, addr.period * 2).canonical() == c
    assert _prefix(c) == _prefix(addr)


@settings(max_examples=200, deadline=None)
@given(ADDRESSES)
def test_shift_drops_the_first_entry(addr):
    assert _prefix(addr.shift(), 39) == _prefix(addr)[1:]


def _one_shift(addr: ExternalAddress) -> ExternalAddress:
    """Drop the first entry the step-by-step way."""
    if addr.preperiod:
        return ExternalAddress(addr.preperiod[1:], addr.period)
    return ExternalAddress((), addr.period[1:] + addr.period[:1])


@settings(max_examples=200, deadline=None)
@given(ADDRESSES)
def test_shifted_equals_repeated_single_shifts(addr):
    stepped = addr
    for n in range(3 * (len(addr.preperiod) + len(addr.period))):
        assert addr.shifted(n) == stepped, n
        stepped = _one_shift(stepped)


@settings(max_examples=200, deadline=None)
@given(ADDRESSES, ADDRESSES, st.integers(0, 8))
def test_overlaps_is_symmetric_and_holds_against_any_shift(a, b, k):
    assert a.overlaps(b) == b.overlaps(a)
    assert a.overlaps(a.shifted(k)) and a.shifted(k).overlaps(a)


@settings(max_examples=300, deadline=None)
@given(ADDRESSES, ADDRESSES)
def test_tails_agree_matches_brute_force(a, b):
    # Past both preperiods the pair of entries repeats with period
    # len(a.period) * len(b.period), so one such period decides.
    start = len(a.preperiod) + len(b.preperiod)
    window = len(a.period) * len(b.period)
    brute = any(a.entry(n) == b.entry(n) for n in range(start, start + window))
    assert _tails_agree_infinitely_often(a, b) == brute


@settings(max_examples=300, deadline=None)
@given(LETTERS)
def test_reduce_letters(letters):
    reduced = reduce_letters(letters)
    assert reduce_letters(reduced) == reduced
    assert not any(x == y and s == -t for (x, s), (y, t) in zip(reduced, reduced[1:]))
    assert abelianization(HomotopyWord(reduced), 4) == abelianization(
        HomotopyWord(tuple(letters)), 4
    )
    # each cancellation removes one letter and its inverse
    assert len(reduced) <= len(letters) and (len(letters) - len(reduced)) % 2 == 0
