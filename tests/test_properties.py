"""Hypothesis properties of the address and word bookkeeping: shifts,
entry tables, overlaps, tail agreement and free reduction."""

import pytest

from oracles import abelianization
from rayforge.homotopy import reduce_letters
from rayforge.potentials import ExternalAddress, _tails_agree_infinitely_often

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

ENTRIES = st.integers(-2, 2)
# Periods of 1 to 7 entries, so pairs of coprime lengths are drawn, and
# repeated blocks, whose minimal period is shorter than the period.
PERIODS = st.one_of(
    st.lists(ENTRIES, min_size=1, max_size=7).map(tuple),
    st.builds(
        lambda block, k: tuple(block) * k,
        st.lists(ENTRIES, min_size=1, max_size=3),
        st.integers(2, 3),
    ),
)
ADDRESSES = st.builds(ExternalAddress, st.lists(ENTRIES, max_size=4).map(tuple), PERIODS)
LETTERS = st.lists(st.tuples(st.integers(0, 3), st.sampled_from((-1, 1))), max_size=30)


def _prefix(addr: ExternalAddress, n: int = 40) -> list[int]:
    return [addr.entry(k) for k in range(n)]


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
def test_overlaps_matches_brute_force(a, b):
    # Shifts that coincide can be shifted on until a sits at its period's
    # start, and b then at one of its period's starts.  Past the preperiods
    # the pair of entries repeats with period len(a.period) * len(b.period),
    # so a window of that length decides equality.
    window = len(a.period) * len(b.period)
    tail = _prefix(a.shifted(len(a.preperiod)), window)
    brute = any(
        _prefix(b.shifted(len(b.preperiod) + j), window) == tail for j in range(len(b.period))
    )
    assert a.overlaps(b) == brute


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
    assert abelianization(reduced, 4) == abelianization(tuple(letters), 4)
    # each cancellation removes one letter and its inverse
    assert len(reduced) <= len(letters) and (len(letters) - len(reduced)) % 2 == 0


@settings(max_examples=200, deadline=None)
@given(ADDRESSES, st.integers(0, 40))
def test_entries_read_entry_by_entry(addr, n):
    # with the drawn preperiod (often empty), and with none
    for a in (addr, addr.shifted(len(addr.preperiod))):
        assert a.entries(n) == tuple(a.entry(k) for k in range(n))
