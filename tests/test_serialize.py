import json
import math

import numpy as np
import pytest
from oracles import to_json

from rayforge import polyexp, presets, serialize, tracts
from rayforge.errors import DomainError
from rayforge.polyexp import PolyExpMap
from rayforge.potentials import ExternalAddress
from rayforge.thurston import InvariantReport, OrbitCheck
from rayforge.tracts import TractConfig


def test_address_round_trip():
    for addr in presets.ADDRESSES:
        back = serialize.address_from_json(to_json(addr))
        assert back == addr


def test_map_round_trip():
    for m in (presets.EXP_MAP, presets.D2_MAP, presets.D3_MAP):
        back = serialize.map_from_json(to_json(m))
        assert back == m


def test_spec_round_trip():
    for spec in (presets.SPEC_D1, presets.SPEC_D2):
        back = serialize.spec_from_json(serialize.spec_to_json(spec))
        assert back == spec


def _written(obj):
    """The JSON value that ``serialize.dumps`` writes for ``obj``."""
    return json.loads(serialize.dumps(obj))


def _reference(obj) -> str:
    return json.dumps(to_json(obj), sort_keys=True, indent=2) + "\n"


def test_to_json_map_and_address_wire_format():
    # maps and addresses are dataclasses, which only the reference encodes:
    # no report holds one
    assert to_json(PolyExpMap(2, [1, 0.5j])) == {
        "d": 2,
        "coeffs": [{"re": 1.0, "im": 0.0}, {"re": 0.0, "im": 0.5}],
    }
    assert to_json(ExternalAddress((7, -3), (2,))) == {
        "preperiod": [7, -3],
        "period": [2],
    }
    # a NamedTuple record is a tuple too: it encodes by field, a plain tuple as a list
    for encode in (to_json, _written):
        assert encode(TractConfig(1, 2.0, 0.5, -0.5, 2.5, 0.25)) == {
            "d": 1, "r": 2.0, "r_min": 0.5, "t_up": -0.5, "t_lo": 2.5, "eps": 0.25,
        }
        assert encode((1, 2.0, 0.5)) == [1, 2.0, 0.5]


def test_to_json_non_finite_floats_are_null():
    # a failed orbit check carries nan/inf; JSON has neither, so both are null
    check = OrbitCheck(1, 2 - 3j, math.nan, math.inf, 0, 0, math.inf, False)
    for encode in (to_json, _written):
        assert encode(check) == {
            "orbit": 1,
            "singular_value": {"re": 2.0, "im": -3.0},
            "potential": None,
            "potential_error": None,
            "prefix_match_length": 0,
            "prefix_length": 0,
            "residual": None,
            "escaped": False,
        }
        assert encode([-math.inf, 1.5]) == [None, 1.5]


def test_to_json_arrays_and_containers():
    grid = np.array([[1 + 2j, 3j], [4, 5]], dtype=complex)
    for encode in (to_json, _written):
        assert encode(grid) == [
            [{"re": 1.0, "im": 2.0}, {"re": 0.0, "im": 3.0}],
            [{"re": 4.0, "im": 0.0}, {"re": 5.0, "im": 0.0}],
        ]
        assert encode({"word": ((0, 1), (2, -1))}) == {"word": [[0, 1], [2, -1]]}


_GRID = presets.SPEC_D2.straight
# Every kind of record a report holds, with the non-finite fields a failed
# check or a vacuous margin carries.
REPORT_VALUES = {
    "orbit-checks": (
        OrbitCheck(0, 0.25 - 1e-300j, 1.5, 2e-13, 3, 3, 1e-17, True),
        OrbitCheck(1, -3.5 + 0.1j, math.nan, math.inf, 0, 2, -math.inf, False),
    ),
    "invariant-report": InvariantReport(2.5, 0.125, math.inf, math.inf),
    "appendix-report": polyexp.appendix_report(3, 2.0, samples=20, seed=1),
    "tract-config": tracts.make_tract_config(presets.D3_MAP),
    "complex-1d": np.array([1 + 2j, -0.0 - 5e-324j, 1e308 - 1e-308j]),
    "complex-2d": _GRID,
    "grids": [_GRID, _GRID * (1 + 1e-9j), _GRID[:, :1]],
    "word": ((0, 1), (2, -1), (0, -1)),
    "empty-word": (),
}


@pytest.mark.parametrize("name", sorted(REPORT_VALUES))
def test_dumps_matches_the_reference(name):
    value = REPORT_VALUES[name]
    assert serialize.dumps(value) == _reference(value)
    # as the CLI hands it over: a record unpacked into a report body
    if hasattr(value, "_asdict"):
        body = {"schema": serialize.SCHEMA, **value._asdict()}
        assert serialize.dumps(body) == _reference(body)


def test_dumps_writes_non_finite_complex_parts_as_null():
    # the reference writes the parts as floats, which json would print as
    # Infinity or NaN; the writer applies the one null rule inside a
    # complex number too
    assert _written(complex(math.inf, math.nan)) == {"re": None, "im": None}
    assert _written(np.array([complex(-math.inf, 1.0)])) == [{"re": None, "im": 1.0}]


def test_dumps_is_canonical():
    a = serialize.dumps({"b": 1, "a": [1.5, 2.0]})
    b = serialize.dumps({"a": [1.5, 2.0], "b": 1})
    assert a == b
    assert a.endswith("\n")


hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# Report-shaped payloads: nested lists, tuples and dicts of every leaf
# type, edge floats included, and strings with non-ASCII and control
# characters.
_EDGE_FLOATS = [-0.0, 0.0, 1e16, 5e-324, 1.7976931348623157e308, 0.1, -2.5e-310]
_FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(_EDGE_FLOATS))
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf]).flatmap(
    lambda x: st.sampled_from([x, np.float64(x)])
)
_TEXT = st.text(
    st.one_of(st.characters(), st.sampled_from("\x00\x1f\x7f\"\\/\u00e9\u2028\ud800\U0001f600"))
)
_PAYLOADS = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), _TEXT, _FINITE, _FINITE.map(np.float64)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=4),
    ),
    max_leaves=40,
)


@hypothesis.settings(max_examples=400, deadline=None)
@hypothesis.given(_PAYLOADS)
def test_dumps_equals_json_dumps(obj):
    assert serialize.dumps(obj) == json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(_PAYLOADS, _NON_FINITE, _TEXT)
def test_dumps_writes_non_finite_floats_as_null(obj, bad, key):
    for payload in (bad, [obj, bad], {key: [obj, {key: bad}]}):
        text = serialize.dumps(payload)
        assert text == _reference(payload)
        assert text == json.dumps(to_json(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"


_COMPLEX = st.builds(complex, _FINITE, _FINITE)
_RECORDS = st.builds(
    OrbitCheck, st.integers(0, 3), _COMPLEX, _FINITE | _NON_FINITE, _FINITE | _NON_FINITE,
    st.integers(0, 9), st.integers(0, 9), _FINITE | _NON_FINITE, st.booleans(),
)
_REPORTS = st.recursive(
    st.one_of(
        _PAYLOADS, _COMPLEX, _RECORDS, _NON_FINITE,
        st.lists(_COMPLEX, max_size=4).map(lambda v: np.array(v, dtype=complex)),
        st.sampled_from([2, 4])
        .flatmap(lambda n: st.lists(_COMPLEX, min_size=n, max_size=n))
        .map(lambda v: np.array(v).reshape(2, -1)),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=3),
    ),
    max_leaves=12,
)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(_REPORTS)
def test_dumps_matches_the_reference_on_report_shapes(obj):
    assert serialize.dumps(obj) == _reference(obj)


def test_malformed_objects_raise_domain_errors():
    with pytest.raises(DomainError):
        serialize.map_from_json({"d": 2})
    with pytest.raises(DomainError):
        serialize.address_from_json({"preperiod": [1]})
    with pytest.raises(DomainError):
        serialize.complex_from_json([1, 2])


# Points of a curve or marked-set file read as complex_from_json reads them,
# with its errors.
_GOOD_POINTS = [
    {"re": 1.5, "im": -0.0}, {"re": -0.0, "im": 5e-324}, {"re": 1e308, "im": 1e308},
    {"re": 1, "im": 2}, {"re": 10**20, "im": 0.5}, {"re": 2.0, "im": 0.5, "extra": "x"},
]
_BAD_POINTS = [
    {"re": 1, "im": "2"}, {"re": "1.5", "im": 0.0}, {"re": True, "im": 0.0},
    {"re": 0.0, "im": False}, {"re": math.nan, "im": 0.0}, {"re": 0.0, "im": math.inf},
    {"re": -math.inf, "im": 0.0}, {"re": 10**400, "im": 0.0}, {"re": 0.0, "im": None},
    {"re": [1.0], "im": 0.0}, {"re": 0.0}, [0.0, 1.0], "re", 3, 2.5, None, True,
]
_POINT_READERS = [(serialize.curve_from_json, "vertices"), (serialize.marked_from_json, "points")]


@pytest.mark.parametrize("point", _GOOD_POINTS, ids=repr)
@pytest.mark.parametrize("read, key", _POINT_READERS, ids=["curve", "marked"])
def test_point_readers_read_as_complex_from_json(read, key, point):
    read_back = read({key: [point]})
    assert repr(getattr(read_back, key)) == repr((serialize.complex_from_json(point),))


@pytest.mark.parametrize("point", _BAD_POINTS, ids=repr)
@pytest.mark.parametrize("read, key", _POINT_READERS, ids=["curve", "marked"])
def test_point_readers_keep_complex_from_json_errors(read, key, point):
    with pytest.raises(DomainError) as expected:
        serialize.complex_from_json(point)
    with pytest.raises(DomainError) as got:
        read({key: [{"re": 0.0, "im": 0.0}, point]})
    assert str(got.value) == str(expected.value)
