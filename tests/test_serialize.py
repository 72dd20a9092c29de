import math

import numpy as np
import pytest

from rayforge import presets, serialize
from rayforge.errors import DomainError
from rayforge.polyexp import PolyExpMap
from rayforge.potentials import ExternalAddress
from rayforge.thurston import OrbitCheck


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


def test_malformed_objects_raise_domain_errors():
    with pytest.raises(DomainError):
        serialize.loads("{broken")
    with pytest.raises(DomainError):
        serialize.map_from_json({"d": 2})
    with pytest.raises(DomainError):
        serialize.address_from_json({"preperiod": [1]})
    with pytest.raises(DomainError):
        serialize.complex_from_json([1, 2])
