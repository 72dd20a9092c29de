"""JSON wire formats.

Schemas ("rayforge/1"):
  address  {"preperiod": [int], "period": [int]}
  orbit    {"T": float, "address": {...}}
  map      {"d": int, "coeffs": [{"re": float, "im": float}, ...]}   # b_0 first
  spec     {"d": int, "J": int, "orbits": [orbit, ...]}   # J optional; echoed as J*
  curve    {"vertices": [{"re": ..., "im": ...}, ...]}
  marked   {"points": [{"re": ..., "im": ...}, ...]}

Every command output embeds the schema string and the run configuration,
and serialization is byte-deterministic for equal inputs.

The ``*_from_json`` readers take the values that ``cli._read_json``, the
one decoder, has parsed.  ``dumps`` is the one encoder, and it walks a
report once: a NamedTuple record becomes an object of its fields by name,
a dict stays a dict, any other list, tuple or ndarray becomes a list, a
complex number becomes {"re", "im"} and a non-finite float null.  So
report keys are the records' field names, except for the ``ray trace``
samples (t, re, im, depth, err).
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii
from typing import Any

import numpy as np

from .errors import DomainError
from .homotopy import MarkedSet, PolylineCurve
from .polyexp import PolyExpMap
from .potentials import ExternalAddress, integers
from .thurston import TargetSpec

SCHEMA = "rayforge/1"


def finite_from_json(value: Any, field: str) -> float:
    """``value`` as a float, naming ``field`` when it is refused: a string
    or a bool, which ``float`` would read, and NaN, an infinity or a
    literal beyond the float range (which Python's json reads as one)."""
    if isinstance(value, (str, bool)):
        raise DomainError(f"{field} must be a JSON number, got {value!r}")
    x = float(value)
    if not math.isfinite(x):
        raise DomainError(f"{field} must be a finite number, got {value!r}")
    return x


def complex_from_json(obj: Any) -> complex:
    try:
        return complex(finite_from_json(obj["re"], "re"), finite_from_json(obj["im"], "im"))
    except DomainError:
        raise
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
        "orbits": [
            {"T": float(t), "address": {"preperiod": list(a.preperiod), "period": list(a.period)}}
            for t, a in spec.orbits
        ],
    }


def spec_from_json(obj: Any) -> TargetSpec:
    try:
        orbits = tuple(
            (finite_from_json(o["T"], "orbit potential T"), address_from_json(o["address"]))
            for o in obj["orbits"]
        )
        given = [obj["d"]] + ([obj["J"]] if "J" in obj else [])
        d, *bound = integers(given, "spec fields d and J")
        return TargetSpec(d, orbits, *bound)
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
    """Canonical JSON text: sorted keys, two-space indent, trailing newline.

    One recursive pass writes ``obj`` by the module's encoding rule, instead
    of the pure-Python encoder that ``json`` falls back to for an indent.
    Keys are strings.  As in ``json``, bools are tested before ints, and
    numbers are written by ``int.__repr__`` and ``float.__repr__`` (so a
    numpy float64 reads as a float); NaN and the infinities are written as
    null, inside a complex number as anywhere else."""
    out: list[str] = []
    _render(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _render(obj: Any, newline: str, out: list[str]) -> None:
    """Append the JSON text of ``obj`` to ``out``; ``newline`` is a line
    break and the indent of the line that ``obj`` starts on."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(float.__repr__(obj) if math.isfinite(obj) else "null")
    elif isinstance(obj, complex):
        _render({"re": obj.real, "im": obj.imag}, newline, out)
    elif isinstance(obj, dict):
        inner, sep = newline + "  ", "{"
        for key in sorted(obj):
            out.append(f"{sep}{inner}{encode_basestring_ascii(key)}: ")
            _render(obj[key], inner, out)
            sep = ","
        out.append(newline + "}" if obj else "{}")
    elif isinstance(obj, tuple) and hasattr(obj, "_fields"):  # a NamedTuple, before tuples
        _render(obj._asdict(), newline, out)
    elif isinstance(obj, np.ndarray):
        _render(obj.tolist(), newline, out)
    elif isinstance(obj, (list, tuple)):
        inner, sep = newline + "  ", "["
        for value in obj:
            out.append(sep + inner)
            _render(value, inner, out)
            sep = ","
        out.append(newline + "]" if obj else "[]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")

