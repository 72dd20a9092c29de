"""Every function defined under ``src/`` is run by some CLI command.

One subprocess installs a profiler before it imports ``rayforge.cli``, then
runs every subcommand in process: ``classify`` on four specs, each followed
by ``diag invariant-set``; ``ray trace`` as CSV and as JSON, and at d = 3; ``tracts
inspect``; ``homotopy word``; and ``diag appendix-a`` at rho = 2, where
Rouche's theorem decides containment, and at rho = 100, where Cauchy's root
radius proves it.  A function
that none of them reaches is dead code, unless ``ALLOWED`` names it with
the reason it stays.  Dunder methods are exempt.  Likewise every constant in
``config.py`` must be read by some other module of the package.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rayforge"

# Functions no CLI command runs, each with the reason it stays.  Functions
# nested inside one are covered by its entry.
PERFBENCH = "traced by perfbench/tracing.py::LAYERS, so a rename must fail there first"
ALLOWED = {
    ("rays", "trace_ray"): PERFBENCH,
    ("tracts", "inverse_branch"): PERFBENCH,
    ("potentials", "ExternalAddress.shift"): "read by the ray-sweep check in perfbench/workloads.py",
}

PROBE = textwrap.dedent(
    """
    import json, sys
    from pathlib import Path

    package = Path(sys.argv[1]).resolve()
    work = Path(sys.argv[2])
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if Path(code.co_filename).resolve().parent == package:
                reached.add((Path(code.co_filename).stem, code.co_qualname))

    sys.setprofile(profile)
    from rayforge import cli, presets, serialize
    from rayforge.thurston import TargetSpec

    def write(name, obj):
        path = work / name
        path.write_text(json.dumps(obj))
        return str(path)

    def main(*argv):
        cli.main(list(argv))

    specs = {
        "d1": presets.SPEC_D1,
        "d2": presets.SPEC_D2,
        "cluster": presets.CLUSTER_REJECT,
        "d3": TargetSpec(3, ((1.6, presets.ZERO), (1.8, presets.ALTERNATE))),
    }
    for name, spec in specs.items():
        spec_json = serialize.spec_to_json(spec)
        run = str(work / f"{name}.run.json")
        main("classify", "--spec", write(f"{name}.spec.json", spec_json),
             "--out", run, "--log-iterates")
        if not Path(run).exists():
            grid = serialize.to_json(spec.straight.tolist())
            run = write(f"{name}.run.json", {"config": {"spec": spec_json}, "grid": grid})
        main("diag", "invariant-set", "--run", run, "--output", str(work / f"{name}.inv"))

    map_ = write("map.json", serialize.to_json(presets.D2_RAY_MAP))
    address = write("address.json", serialize.to_json(presets.WITH_PREPERIOD))
    for fmt in ("csv", "json"):
        main("ray", "trace", "--map", map_, "--address", address, "--t-lo", "1",
             "--t-hi", "3", "--samples", "8", "--out", fmt)
    # d = 3: certified rows take Newton's method, and the best-effort rows
    # that t = 0.3 reaches the root solve
    main("ray", "trace", "--map", write("map3.json", serialize.to_json(presets.D3_MAP)),
         "--address", address, "--t-lo", "0.3", "--t-hi", "3", "--samples", "8")
    main("tracts", "inspect", "--map", map_)
    points = [{"re": 0.0, "im": 0.0}, {"re": 3.0, "im": 0.0}]
    vertices = [{"re": 0.0, "im": 0.0}, {"re": 2.0, "im": 1.0}, {"re": 5.0, "im": 1.0}]
    main("homotopy", "word", "--marked", write("marked.json", {"points": points}),
         "--curve", write("curve.json", {"vertices": vertices}))
    for rho in ("2", "100"):
        main("diag", "appendix-a", "--d", "3", "--rho", rho, "--samples", "40")

    sys.setprofile(None)
    print(json.dumps(sorted(reached)))
    """
)


def _defined() -> set[tuple[str, str]]:
    """(module, qualified name) of every function and method in the package,
    with nested functions named as Python names them (``f.<locals>.g``)."""
    found = set()

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.add((module, prefix + child.name))
                visit(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")
            else:
                visit(child, module, prefix)

    for path in PACKAGE.glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem, "")
    return {(m, q) for m, q in found if not q.rsplit(".", 1)[-1].startswith("__")}


def test_every_function_is_reached(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(PACKAGE), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    reached = {tuple(x) for x in json.loads(proc.stdout.splitlines()[-1])}
    defined = _defined()
    assert sorted(ALLOWED.keys() - defined) == [], "allowlisted but gone"
    assert sorted(ALLOWED.keys() & reached) == [], "allowlisted but reached"

    unreached = defined - reached
    assert sorted((m, q) for m, q in unreached if (m, q.split(".<locals>.")[0]) not in ALLOWED) == []


def test_every_config_constant_is_read():
    tree = ast.parse((PACKAGE / "config.py").read_text())
    constants = {
        target.id
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.isupper()
    }
    read = set()
    for path in PACKAGE.glob("*.py"):
        if path.stem == "config":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "config"
            ):
                read.add(node.attr)
    assert constants, "no constants found in config.py"
    assert sorted(constants - read) == [], "config constants that no module reads as config.NAME"
