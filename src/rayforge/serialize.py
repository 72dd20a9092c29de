"""JSON wire formats.

Schemas ("rayforge/1"):
  address  {"preperiod": [int], "period": [int]}
  orbit    {"T": float, "address": {...}}
  map      {"d": int, "coeffs": [{"re": float, "im": float}, ...]}   # b_0 first
  spec     {"d": int, "J": int, "orbits": [orbit, ...]}
  curve    {"vertices": [{"re": ..., "im": ...}, ...]}
  marked   {"points": [{"re": ..., "im": ...}, ...]}

Every command output embeds the schema string and the run configuration,
and serialization is byte-deterministic for equal inputs.
"""

from __future__ import annotations

import json
from typing import Any

from .errors import DomainError
from .homotopy import MarkedSet, PolylineCurve
from .polyexp import PolyExpMap
from .potentials import ExternalAddress, integers
from .thurston import TargetSpec

SCHEMA = "rayforge/1"


def complex_to_json(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def complex_from_json(obj: Any) -> complex:
    try:
        return complex(float(obj["re"]), float(obj["im"]))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"expected {{re, im}} object, got {obj!r}") from exc


def address_to_json(addr: ExternalAddress) -> dict:
    return {"preperiod": list(addr.preperiod), "period": list(addr.period)}


def address_from_json(obj: Any) -> ExternalAddress:
    try:
        return ExternalAddress(obj.get("preperiod", []), obj["period"])
    except (KeyError, TypeError, AttributeError) as exc:
        raise DomainError(f"bad address object: {obj!r}") from exc


def map_to_json(map_: PolyExpMap) -> dict:
    return {"d": map_.d, "coeffs": [complex_to_json(c) for c in map_.coeffs]}


def map_from_json(obj: Any) -> PolyExpMap:
    try:
        (d,) = integers([obj["d"]], "map degree d")
        return PolyExpMap(d, [complex_from_json(c) for c in obj["coeffs"]])
    except (KeyError, TypeError) as exc:
        raise DomainError(f"bad map object: {obj!r}") from exc


def spec_to_json(spec: TargetSpec) -> dict:
    return {
        "d": spec.d,
        "J": spec.depth,
        "orbits": [
            {"T": float(t), "address": address_to_json(a)} for t, a in spec.orbits
        ],
    }


def spec_from_json(obj: Any) -> TargetSpec:
    try:
        orbits = tuple(
            (float(o["T"]), address_from_json(o["address"])) for o in obj["orbits"]
        )
        d, depth = integers([obj["d"], obj["J"]], "spec fields d and J")
        return TargetSpec(d, orbits, depth)
    except DomainError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"bad spec object: {obj!r}") from exc


def curve_from_json(obj: Any) -> PolylineCurve:
    try:
        return PolylineCurve([complex_from_json(v) for v in obj["vertices"]])
    except (KeyError, TypeError) as exc:
        raise DomainError(f"bad curve object: {obj!r}") from exc


def marked_from_json(obj: Any) -> MarkedSet:
    try:
        return MarkedSet([complex_from_json(v) for v in obj["points"]])
    except (KeyError, TypeError) as exc:
        raise DomainError(f"bad marked-set object: {obj!r}") from exc


def dumps(obj: Any) -> str:
    """Canonical JSON text: sorted keys, fixed separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"invalid JSON: {exc}") from exc
