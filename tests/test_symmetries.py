"""The family's two exact symmetries as metamorphic oracles: the
translation by 2*pi*i/d (``oracles.shifted_map``, address s -> s - 1) and
complex conjugation (``oracles.conjugate_map``, address s -> -s).

Ray tracing commutes with both, in the library and through ``ray trace``;
``classify`` commutes with both at d = 1.  The shift moves every point by
exactly 2*pi*i/d, so the shifted trace agrees with the first up to both
error estimates and a few ulp of rounding, taken at the larger of the
points and the offset 2*pi/d, where subtracting the offset rounds.
Conjugation negates imaginary parts, which every operation of the tracer
takes exactly, so it agrees bit for bit.  A trace that fails, fails with
the same error kind on all three sides.
"""

import contextlib
import io
import json
import math

import pytest
from oracles import (
    conjugate_address,
    conjugate_map,
    seeded_specs,
    shifted_address,
    shifted_map,
    spec_image,
    to_json,
)

from rayforge import cli, rays, serialize, thurston, tracts
from rayforge.errors import RayforgeError
from rayforge.polyexp import PolyExpMap
from rayforge.potentials import ExternalAddress

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

PART = st.floats(-0.3, 0.3)
MAPS = st.integers(1, 5).flatmap(
    lambda d: st.lists(st.builds(complex, PART, PART), min_size=d, max_size=d).map(
        lambda coeffs: PolyExpMap(d, coeffs)
    )
)
ADDRESSES = st.lists(st.integers(-2, 2), min_size=1, max_size=2).map(
    lambda period: ExternalAddress((), period)
)
T_LO = st.floats(0.5, 1.5)
T_HI = 3.0
SAMPLES = 64


def _images(map_, address):
    """(map, address) and its images under the shift and under conjugation."""
    return [
        (map_, address),
        (shifted_map(map_), shifted_address(address)),
        (conjugate_map(map_), conjugate_address(address)),
    ]


def _assert_commutes(d, outcomes):
    """Three traces of (map, address), its shift and its conjugate: each a
    list of (z, t, depth, err) samples, or the kind of the error that
    stopped it."""
    points, shifted, conjugate = outcomes
    if any(isinstance(o, str) for o in outcomes):
        assert points == shifted == conjugate
        return
    offset = complex(0, 2 * math.pi / d)
    for (z, t, depth, err), (zs, *_, errs), mirrored in zip(points, shifted, conjugate):
        rounding = 8 * math.ulp(max(abs(z), abs(zs), offset.imag))
        assert abs(zs + offset - z) <= err + errs + rounding, (z, zs)
        assert mirrored == (z.conjugate(), t, depth, err)


def _trace(map_, address, t_lo):
    try:
        cfg = tracts.make_tract_config(map_)
        return [tuple(p) for p in rays.trace_segment(map_, cfg, address, t_lo, T_HI, SAMPLES)]
    except RayforgeError as exc:
        return type(exc).__name__


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(MAPS, ADDRESSES, T_LO)
def test_trace_segment_commutes_with_shift_and_conjugation(map_, address, t_lo):
    _assert_commutes(map_.d, [_trace(m, a, t_lo) for m, a in _images(map_, address)])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("symmetries")


def _cli_trace(workdir, map_, address, t_lo):
    """``ray trace --out json`` of the segment: its samples, or the kind of
    the error that it reports."""
    map_path, address_path = workdir / "map.json", workdir / "address.json"
    map_path.write_text(serialize.dumps(to_json(map_)))
    address_path.write_text(serialize.dumps(to_json(address)))
    argv = ["ray", "trace", "--map", str(map_path), "--address", str(address_path),
            "--t-lo", repr(t_lo), "--t-hi", repr(T_HI), "--samples", str(SAMPLES),
            "--out", "json"]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    report = json.loads(stdout.getvalue())
    if code:
        return report["error"]["kind"]
    return [(complex(s["re"], s["im"]), s["t"], s["depth"], s["err"]) for s in report["samples"]]


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(MAPS, ADDRESSES, T_LO)
def test_ray_trace_report_commutes_with_shift_and_conjugation(workdir, map_, address, t_lo):
    _assert_commutes(map_.d, [_cli_trace(workdir, m, a, t_lo) for m, a in _images(map_, address)])


def _classify(spec):
    """The map and the certificate's verdict, or the kind of the error."""
    try:
        result = thurston.classify(spec)
    except RayforgeError as exc:
        return None, type(exc).__name__
    return result.map, result.certificate.passed


@pytest.mark.parametrize("n, seed, t_lo, most", [(300, 11, 0.3, 120), (600, 5, 0.8, 280)])
def test_classify_commutes_with_shift_and_conjugation_at_d1(n, seed, t_lo, most):
    # seeded_specs alternates d = 1 and d = 2, d = 1 first.  At d = 1 the
    # shift changes b_0 alone, by -2*pi*i.
    solved = 0
    for spec in seeded_specs(n, seed, t_lo)[::2]:
        (f, verdict), (g, shifted), (h, mirrored) = map(_classify, (
            spec, spec_image(spec, shifted_address), spec_image(spec, conjugate_address)
        ))
        assert verdict == shifted == mirrored, spec
        if f is None:
            continue
        b0 = f.coeffs[0]
        assert abs(g.coeffs[0] + 2j * math.pi - b0) <= 1e-12 * max(1.0, abs(b0)), spec
        assert h.coeffs[0] == b0.conjugate(), spec
        solved += 1
    assert solved >= most
