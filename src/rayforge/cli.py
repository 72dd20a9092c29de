"""Command-line surface.

Subcommands: ``ray trace``, ``classify``, ``diag appendix-a``,
``diag invariant-set``, ``homotopy word``, ``tracts inspect``.

Exit codes: 0 success, 2 usage or bad input, 3 numeric non-convergence,
4 target rejection.  Each error class in ``errors`` carries its own exit
code.  Each ``_cmd_*`` handler returns (config extras, body, exit code),
with the library's records, arrays and complex numbers in the body as
they are; ``main`` is the one writer.  It adds the schema string and the resolved
run configuration, renders JSON (CSV for ``ray trace --out csv``) that is
byte-identical for identical arguments and seed, and writes it to the
output path, or to stdout for ``-`` or none.  An unwritable path exits 2.
``_read_json`` is the one JSON reader: an input file that cannot be opened
or is not UTF-8, and text that is not JSON (nesting past the recursion
limit and integers past Python's 4,300-digit limit included), exit 2.

The argparse parser is built once per process, on the first ``main`` call,
and reused by every later call.  ``main`` parses a command's arguments
with that command's own leaf parser, looked up by the first one or two
words of argv, so argparse runs one level, not one per word.  Help, an
unknown command and any argument the leaf leaves unrecognized go through
the full tree, so every message is the tree's.  Numeric options are
checked as they are parsed, so a bad value is a usage error (exit 2) with
a message on stderr.  ``classify`` has none: its numbers depend on the
spec alone (see ``thurston.classify``), its config echo is the command and
the spec, and ``--log-iterates`` only chooses what is printed.
"""

from __future__ import annotations

import argparse
import functools
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

MAX_UNIFORMS = 2**20  # diag appendix-a's one block of samples x 4d uniforms: 8 MB


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DomainError(f"invalid JSON: {exc}") from exc


def _cmd_ray_trace(args) -> tuple[dict, dict, int]:
    map_ = serialize.map_from_json(_read_json(args.map))
    address = serialize.address_from_json(_read_json(args.address))
    cfg = tracts.make_tract_config(map_)
    segment = rays.trace_segment(map_, cfg, address, args.t_lo, args.t_hi, args.samples)
    samples = [
        {
            "t": p.t,
            "re": p.z.real,
            "im": p.z.imag,
            "depth": p.depth_used,
            "err": p.error_estimate,
        }
        for p in segment
    ]
    extras = dict(t_lo=args.t_lo, t_hi=args.t_hi, samples=args.samples, format=args.out)
    return extras, {"samples": samples}, EXIT_OK


def _cmd_classify(args) -> tuple[dict, dict, int]:
    spec = serialize.spec_from_json(_read_json(args.spec))
    result = thurston.classify(spec)
    body = {
        "d": result.map.d,
        "coeffs": result.map.coeffs,
        "grid": result.z,
        "delta_history": list(result.deltas),
        "iterations": len(result.deltas),
        "converged": True,
        "certificate": result.certificate,
    }
    if args.log_iterates:
        body["iterates"] = result.iterate_log
    code = EXIT_OK if result.certificate.passed else EXIT_NUMERIC
    return {"spec": serialize.spec_to_json(spec)}, body, code


def _cmd_diag_appendix(args) -> tuple[dict, dict, int]:
    if (cap := MAX_UNIFORMS // (4 * args.d)) < args.samples:
        raise DomainError(f"argument --samples: expected at most {cap} at d={args.d}, "
                          f"got '{args.samples}'")
    report = polyexp.appendix_report(args.d, args.rho, samples=args.samples, seed=args.seed)
    extras = dict(d=args.d, rho=args.rho, samples=args.samples, seed=args.seed)
    return extras, report._asdict(), EXIT_OK


def _cmd_diag_invariant(args) -> tuple[dict, dict, int]:
    run = _read_json(args.run)
    try:
        spec = serialize.spec_from_json(run["config"]["spec"])
        grids = run.get("iterates")
        if grids is None:
            grids = [run["grid"]]
        if not grids:
            raise DomainError("run file's iterates list is empty; classify "
                              "--log-iterates logs at least the starting grid")
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
        rows.append({"iteration": it, **rep._asdict()})
    return {"run": args.run}, {"iterations": rows}, EXIT_OK


def _cmd_homotopy_word(args) -> tuple[dict, dict, int]:
    marked = serialize.marked_from_json(_read_json(args.marked))
    curve = serialize.curve_from_json(_read_json(args.curve))
    return {}, {"word": word_of_curve(marked, curve)}, EXIT_OK


def _cmd_tracts_inspect(args) -> tuple[dict, dict, int]:
    map_ = serialize.map_from_json(_read_json(args.map))
    return {}, tracts.make_tract_config(map_)._asdict(), EXIT_OK


def _render(run_cfg: dict, body: dict) -> str:
    """The report text: canonical JSON of the envelope and body, or, for
    ``ray trace --out csv``, a config comment line and one row per sample."""
    if run_cfg.get("format") == "csv":
        rows = "".join(",".join(map(repr, s.values())) + "\n" for s in body["samples"])
        cfg_line = json.dumps(run_cfg, sort_keys=True)
        return f"# {serialize.SCHEMA} config={cfg_line}\nt,re,im,depth,err\n{rows}"
    return serialize.dumps({"schema": serialize.SCHEMA, "config": run_cfg, **body})


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
_degree = _checked(int, lambda v: 2 <= v <= config.MAX_DEGREE,
                   f"an integer in [2, {config.MAX_DEGREE}]")
_positive_float = _checked(float, lambda v: 0 < v < math.inf, "a finite positive number")
# A sample pulls at least one level, so no segment of more samples than
# config.MAX_TRACE_LEVELS passes rays.trace_segment's work bound.
_trace_samples = _checked(int, lambda v: 0 < v <= config.MAX_TRACE_LEVELS,
                          f"an integer in [1, {config.MAX_TRACE_LEVELS}]")


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The full parser tree, and each command's leaf parser by its command
    words: ``("ray", "trace")``, ``("classify",)`` and so on."""
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
    trace.add_argument("--samples", type=_trace_samples, required=True)
    trace.add_argument("--out", choices=("csv", "json"), default="csv",
                       help="output format (default csv)")
    trace.add_argument("--output", default=None, help="output file (default stdout)")
    trace.set_defaults(handler=_cmd_ray_trace, command_path="ray trace")

    classify = sub.add_parser("classify", help="solve for a map with the target escape data")
    classify.add_argument("--spec", required=True, help="target spec JSON file")
    classify.add_argument("--output", "--out", dest="output", default=None,
                          help="result JSON file (default stdout)")
    classify.add_argument("--log-iterates", action="store_true")
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
    inspect.add_argument("--output", default=None)
    inspect.set_defaults(handler=_cmd_tracts_inspect, command_path="tracts inspect")

    leaves = (trace, classify, app, inv, word, inspect)
    return parser, {tuple(leaf.get_default("command_path").split()): leaf for leaf in leaves}


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv`` with the leaf parser its first words name, one argparse
    level instead of one per word, into the ``group`` and ``action`` that the
    tree would set.  Argv that names no command, or that the leaf leaves
    unrecognized, goes through the full tree, which prints the usual message."""
    parser, leaves = build_parser()
    words = tuple(argv[:2]) if tuple(argv[:2]) in leaves else tuple(argv[:1])
    if words in leaves:
        namespace = argparse.Namespace(**dict(zip(("group", "action"), words)))
        args, rest = leaves[words].parse_known_args(argv[len(words) :], namespace)
        if not rest:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        extras, body, code = args.handler(args)
        text = _render({"command": args.command_path, **extras}, body)
        if args.output is None or args.output == "-":
            sys.stdout.write(text)
        else:
            try:
                with open(args.output, "w", encoding="utf-8", newline="") as fh:
                    fh.write(text)
            except OSError as exc:
                raise DomainError(f"cannot write {args.output}: {exc}") from exc
        return code
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
