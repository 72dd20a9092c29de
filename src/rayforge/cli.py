"""Command-line surface.

Subcommands: ``ray trace``, ``classify``, ``diag appendix-a``,
``diag invariant-set``, ``homotopy word``, ``tracts inspect``.

Exit codes: 0 success, 2 usage or bad input, 3 numeric non-convergence,
4 target rejection.  Outputs are JSON (or CSV where noted), embed the
schema string and the resolved run configuration, and are byte-identical
for identical arguments and seed.  Each error class in ``errors`` carries
its own exit code.

The argparse parser is built once per process, on the first ``main`` call,
and reused by every later call.  Numeric options are checked as they are
parsed, so a bad value is a usage error (exit 2) with a message on stderr.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import sys

import numpy as np

from . import config, polyexp, rays, serialize, thurston, tracts
from .errors import DomainError, RayforgeError
from .homotopy import word_of_curve

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3

# Strip geometry repeats with period 2*pi/d, so more strips show nothing new.
MAX_STRIPS = 10_000


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return serialize.loads(fh.read())
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc


def _emit(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _run_config(args, **extra) -> dict:
    return {"command": args.command_path, **extra}


def _cmd_ray_trace(args) -> int:
    map_ = serialize.map_from_json(_read_json(args.map))
    address = serialize.address_from_json(_read_json(args.address))
    cfg = tracts.make_tract_config(map_)
    segment = rays.trace_segment(
        map_,
        cfg,
        address,
        args.t_lo,
        args.t_hi,
        args.samples,
        tol=args.tol,
        max_depth=args.max_depth,
    )
    run_cfg = _run_config(
        args, tol=args.tol, max_depth=args.max_depth,
        t_lo=args.t_lo, t_hi=args.t_hi, samples=args.samples, format=args.out,
    )
    if args.out == "csv":
        buf = io.StringIO()
        cfg_line = json.dumps(run_cfg, sort_keys=True)
        buf.write(f"# {serialize.SCHEMA} config={cfg_line}\n")
        buf.write("t,re,im,depth,err\n")
        for p in segment.samples:
            buf.write(f"{p.t!r},{p.z.real!r},{p.z.imag!r},{p.depth_used},{p.error_estimate!r}\n")
        _emit(buf.getvalue(), args.output)
    else:
        payload = {
            "schema": serialize.SCHEMA,
            "config": run_cfg,
            "samples": [
                {
                    "t": p.t,
                    "re": p.z.real,
                    "im": p.z.imag,
                    "depth": p.depth_used,
                    "err": p.error_estimate,
                }
                for p in segment.samples
            ],
        }
        _emit(serialize.dumps(payload), args.output)
    return EXIT_OK


def _cmd_classify(args) -> int:
    spec = serialize.spec_from_json(_read_json(args.spec))
    result = thurston.classify(
        spec, max_iter=args.max_iter, tol=args.tol, log_iterates=args.log_iterates
    )
    cert = result.certificate
    payload = {
        "schema": serialize.SCHEMA,
        "config": _run_config(
            args, tol=args.tol, max_iter=args.max_iter,
            spec=serialize.spec_to_json(spec),
        ),
        "d": result.map.d,
        "coeffs": serialize.to_json(result.map.coeffs),
        "grid": serialize.to_json(result.z),
        "delta_history": list(result.deltas),
        "iterations": len(result.deltas),
        "converged": True,
        "certificate": {
            "passed": cert.passed,
            "notes": list(cert.notes),
            "orbits": serialize.to_json(cert.checks),
        },
    }
    if args.log_iterates:
        payload["iterates"] = serialize.to_json(result.iterate_log)
    _emit(serialize.dumps(payload), args.out)
    return EXIT_OK if cert.passed else EXIT_NUMERIC


def _cmd_diag_appendix(args) -> int:
    report = polyexp.appendix_report(args.d, args.rho, samples=args.samples, seed=args.seed)
    payload = {
        "schema": serialize.SCHEMA,
        "config": _run_config(
            args, d=args.d, rho=args.rho, samples=args.samples, seed=args.seed
        ),
        **serialize.to_json(report),
    }
    _emit(serialize.dumps(payload), args.output)
    return EXIT_OK


def _cmd_diag_invariant(args) -> int:
    run = _read_json(args.run)
    try:
        spec = serialize.spec_from_json(run["config"]["spec"])
        grids = run.get("iterates")
        if grids is None:
            grids = [run["grid"]]
        grids = [
            [[serialize.complex_from_json(v) for v in row] for row in grid]
            for grid in grids
        ]
    except (KeyError, TypeError) as exc:
        raise DomainError(f"run file lacks spec/grid data: {exc}") from exc
    thurston.validate_spec(spec)
    m, levels = spec.m, spec.depth + 1
    rows = []
    for it, grid_rows in enumerate(grids):
        if len(grid_rows) != m or any(len(row) != levels for row in grid_rows):
            raise DomainError(f"grid {it} is not {m}x{levels}, the shape its spec needs")
        grid = np.array(grid_rows, dtype=complex)
        rep = thurston.invariant_set_diagnostics(grid, spec)
        rows.append({"iteration": it, **serialize.to_json(rep)})
    payload = {
        "schema": serialize.SCHEMA,
        "config": _run_config(args, run=args.run),
        "iterations": rows,
    }
    _emit(serialize.dumps(payload), args.output)
    return EXIT_OK


def _cmd_homotopy_word(args) -> int:
    marked = serialize.marked_from_json(_read_json(args.marked))
    curve = serialize.curve_from_json(_read_json(args.curve))
    word = word_of_curve(marked, curve)
    payload = {
        "schema": serialize.SCHEMA,
        "config": _run_config(args),
        "word": serialize.to_json(word.letters),
    }
    _emit(serialize.dumps(payload), args.output)
    return EXIT_OK


def _cmd_tracts_inspect(args) -> int:
    map_ = serialize.map_from_json(_read_json(args.map))
    cfg = tracts.make_tract_config(map_, eps=args.epsilon)
    payload = {
        "schema": serialize.SCHEMA,
        "config": _run_config(args, epsilon=args.epsilon, strips=args.strips),
        **serialize.to_json(cfg),
        "strips": [
            {
                "n": n,
                "center": cfg.strip_center(n),
                "half_width": cfg.strip_half_width(),
            }
            for n in range(-args.strips, args.strips + 1)
        ],
    }
    _emit(serialize.dumps(payload), args.output)
    return EXIT_OK


def _checked(convert, accept, what: str):
    """An argparse ``type=`` callable: ``convert`` the text, then reject
    values that fail ``accept`` as a usage error naming ``what``."""

    def parse(text: str):
        try:
            value = convert(text)
            if accept(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")

    return parse


_positive_int = _checked(int, lambda v: v > 0, "a positive integer")
_non_negative_int = _checked(int, lambda v: v >= 0, "a non-negative integer")
_degree = _checked(int, lambda v: v >= 2, "an integer >= 2")
_strip_count = _checked(
    int, lambda v: 0 <= v <= MAX_STRIPS, f"an integer in [0, {MAX_STRIPS}]"
)
_positive_float = _checked(float, lambda v: 0 < v < math.inf, "a finite positive number")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rayforge",
        description="Escaping dynamics of polynomial-exponential maps",
    )
    sub = parser.add_subparsers(dest="group", required=True)

    ray = sub.add_parser("ray", help="dynamic-ray operations")
    ray_sub = ray.add_subparsers(dest="action", required=True)
    trace = ray_sub.add_parser("trace", help="trace a ray segment")
    trace.add_argument("--map", required=True, help="map JSON file")
    trace.add_argument("--address", required=True, help="address JSON file")
    trace.add_argument("--t-lo", dest="t_lo", type=_positive_float, required=True)
    trace.add_argument("--t-hi", dest="t_hi", type=_positive_float, required=True)
    trace.add_argument("--samples", type=_positive_int, required=True)
    trace.add_argument("--out", choices=("csv", "json"), default="csv",
                       help="output format (default csv)")
    trace.add_argument("--output", default=None, help="output file (default stdout)")
    trace.add_argument("--tol", type=_positive_float, default=config.TRACER_TOL)
    trace.add_argument("--max-depth", dest="max_depth", type=_positive_int,
                       default=config.TRACER_MAX_DEPTH)
    trace.set_defaults(handler=_cmd_ray_trace, command_path="ray trace")

    classify = sub.add_parser("classify", help="solve for a map with the target escape data")
    classify.add_argument("--spec", required=True, help="target spec JSON file")
    classify.add_argument("--out", default=None, help="result JSON file (default stdout)")
    classify.add_argument("--log-iterates", action="store_true")
    classify.add_argument("--max-iter", dest="max_iter", type=_positive_int,
                          default=config.CLASSIFY_MAX_ITER)
    classify.add_argument("--tol", type=_positive_float, default=config.CLASSIFY_TOL)
    classify.set_defaults(handler=_cmd_classify, command_path="classify")

    diag = sub.add_parser("diag", help="diagnostic reports")
    diag_sub = diag.add_subparsers(dest="action", required=True)
    app = diag_sub.add_parser("appendix-a", help="Monte-Carlo bound checkers")
    app.add_argument("--d", type=_degree, required=True)
    app.add_argument("--rho", type=_positive_float, required=True)
    app.add_argument("--samples", type=_positive_int, default=1000)
    app.add_argument("--seed", type=_non_negative_int, default=0)
    app.add_argument("--output", default=None)
    app.set_defaults(handler=_cmd_diag_appendix, command_path="diag appendix-a")

    inv = diag_sub.add_parser("invariant-set", help="invariant-region conditions per iteration")
    inv.add_argument("--run", required=True, help="classify result JSON")
    inv.add_argument("--output", default=None)
    inv.set_defaults(handler=_cmd_diag_invariant, command_path="diag invariant-set")

    hom = sub.add_parser("homotopy", help="curve words relative marked points")
    hom_sub = hom.add_subparsers(dest="action", required=True)
    word = hom_sub.add_parser("word", help="crossing word of a curve")
    word.add_argument("--marked", required=True, help="marked points JSON file")
    word.add_argument("--curve", required=True, help="curve JSON file")
    word.add_argument("--output", default=None)
    word.set_defaults(handler=_cmd_homotopy_word, command_path="homotopy word")

    tr = sub.add_parser("tracts", help="strip geometry")
    tr_sub = tr.add_subparsers(dest="action", required=True)
    inspect = tr_sub.add_parser("inspect", help="dump certified strip bounds")
    inspect.add_argument("--map", required=True, help="map JSON file")
    inspect.add_argument("--epsilon", type=float, default=None)
    inspect.add_argument("--strips", type=_strip_count, default=3)
    inspect.add_argument("--output", default=None)
    inspect.set_defaults(handler=_cmd_tracts_inspect, command_path="tracts inspect")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    except RayforgeError as exc:
        # Usage errors go to stderr; numeric failures and rejections are
        # diagnostic JSON on stdout.
        if exc.exit_code == EXIT_USAGE:
            sys.stderr.write(f"rayforge: {exc}\n")
        else:
            error = {"kind": type(exc).__name__, "message": str(exc)}
            sys.stdout.write(serialize.dumps({"schema": serialize.SCHEMA, "error": error}))
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
