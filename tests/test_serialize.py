import json
import math

import numpy as np
import pytest

from rayforge import presets, serialize
from rayforge.errors import DomainError
from rayforge.polyexp import PolyExpMap
from rayforge.potentials import ExternalAddress
from rayforge.thurston import OrbitCheck
from rayforge.tracts import TractConfig


def test_address_round_trip():
    for addr in presets.ADDRESSES:
        back = serialize.address_from_json(serialize.to_json(addr))
        assert back == addr


def test_map_round_trip():
    for m in (presets.EXP_MAP, presets.D2_MAP, presets.D3_MAP):
        back = serialize.map_from_json(serialize.to_json(m))
        assert back == m


def test_spec_round_trip():
    for spec in (presets.SPEC_D1, presets.SPEC_D2):
        back = serialize.spec_from_json(serialize.spec_to_json(spec))
        assert back == spec


def test_to_json_map_and_address_wire_format():
    assert serialize.to_json(PolyExpMap(2, [1, 0.5j])) == {
        "d": 2,
        "coeffs": [{"re": 1.0, "im": 0.0}, {"re": 0.0, "im": 0.5}],
    }
    assert serialize.to_json(ExternalAddress((7, -3), (2,))) == {
        "preperiod": [7, -3],
        "period": [2],
    }
    # a NamedTuple record is a tuple too: it encodes by field, a plain tuple as a list
    assert serialize.to_json(TractConfig(1, 2.0, 0.5, -0.5, 2.5, 0.25)) == {
        "d": 1, "r": 2.0, "r_min": 0.5, "t_up": -0.5, "t_lo": 2.5, "eps": 0.25,
    }
    assert serialize.to_json((1, 2.0, 0.5)) == [1, 2.0, 0.5]


def test_to_json_non_finite_floats_are_null():
    # a failed orbit check carries nan/inf; JSON has neither, so both are null
    check = OrbitCheck(1, 2 - 3j, math.nan, math.inf, 0, 0, math.inf, False)
    assert serialize.to_json(check) == {
        "orbit": 1,
        "singular_value": {"re": 2.0, "im": -3.0},
        "potential": None,
        "potential_error": None,
        "prefix_match_length": 0,
        "prefix_length": 0,
        "residual": None,
        "escaped": False,
    }
    assert serialize.to_json([-math.inf, 1.5]) == [None, 1.5]


def test_to_json_arrays_and_containers():
    grid = np.array([[1 + 2j, 3j], [4, 5]], dtype=complex)
    assert serialize.to_json(grid) == [
        [{"re": 1.0, "im": 2.0}, {"re": 0.0, "im": 3.0}],
        [{"re": 4.0, "im": 0.0}, {"re": 5.0, "im": 0.0}],
    ]
    assert serialize.to_json({"word": ((0, 1), (2, -1))}) == {"word": [[0, 1], [2, -1]]}


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
def test_dumps_refuses_non_finite_floats_like_json(obj, bad, key):
    for payload in (bad, [obj, bad], {key: [obj, {key: bad}]}):
        with pytest.raises(ValueError) as want:
            json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
        with pytest.raises(ValueError) as got:
            serialize.dumps(payload)
        assert str(got.value) == str(want.value)


def test_malformed_objects_raise_domain_errors():
    with pytest.raises(DomainError):
        serialize.loads("{broken")
    with pytest.raises(DomainError):
        serialize.map_from_json({"d": 2})
    with pytest.raises(DomainError):
        serialize.address_from_json({"preperiod": [1]})
    with pytest.raises(DomainError):
        serialize.complex_from_json([1, 2])
