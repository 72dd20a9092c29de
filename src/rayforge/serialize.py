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

``to_json`` is the one encoder: a dataclass becomes its fields by name, a
dict stays a dict, a list, tuple or ndarray becomes a list, a complex
number becomes {"re", "im"} and a non-finite float null; other values pass
through.  So map, address and report keys are the dataclasses' field
names, except for the ``ray trace`` samples (t, re, im, depth, err).
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Any

import numpy as np

from .errors import DomainError
from .homotopy import MarkedSet, PolylineCurve
from .polyexp import PolyExpMap
from .potentials import ExternalAddress, integers
from .thurston import TargetSpec

SCHEMA = "rayforge/1"


def complex_to_json(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def to_json(obj: Any) -> Any:
    """The JSON value of ``obj`` by the module's one encoding rule."""
    if dataclasses.is_dataclass(obj):
        return {f.name: to_json(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {k: to_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [to_json(v) for v in obj]
    if isinstance(obj, complex):
        return complex_to_json(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def complex_from_json(obj: Any) -> complex:
    try:
        return complex(float(obj["re"]), float(obj["im"]))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"expected {{re, im}} object, got {obj!r}") from exc


def address_from_json(obj: Any) -> ExternalAddress:
    try:
        return ExternalAddress(obj.get("preperiod", []), obj["period"])
    except (KeyError, TypeError, AttributeError) as exc:
        raise DomainError(f"bad address object: {obj!r}") from exc


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
        "orbits": [{"T": float(t), "address": to_json(a)} for t, a in spec.orbits],
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
