"""Importing a module loads only the modules it needs, and defines no
dataclass that could be a NamedTuple."""

import dataclasses
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import rayforge


def _loaded_after(statement: str) -> set[str]:
    src = str(Path(rayforge.__file__).resolve().parents[1])
    probe = f"import sys; {statement}; print(' '.join(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return {name for name in proc.stdout.split() if name.startswith("rayforge.")}


def test_package_loads_no_submodule():
    assert _loaded_after("import rayforge") == set()


def test_potentials_loads_no_higher_layer():
    loaded = _loaded_after("import rayforge.potentials")
    assert "rayforge.potentials" in loaded
    assert not loaded & {"rayforge.tracts", "rayforge.thurston", "rayforge.rays", "rayforge.cli"}


def test_tracts_loads_only_its_layer():
    loaded = _loaded_after("import rayforge.tracts")
    assert loaded == {"rayforge.config", "rayforge.errors", "rayforge.polyexp", "rayforge.tracts"}


# Records stay dataclasses only where construction validates (their own
# __init__) or derived values are cached on the instance; every other
# record is a NamedTuple, whose class costs a fraction of a dataclass's
# to create at import.
DATACLASS_RECORDS = {
    "homotopy.MarkedSet", "homotopy.PolylineCurve", "polyexp.PolyExpMap",
    "potentials.ExternalAddress", "thurston.TargetSpec",
}


def test_only_validating_or_caching_records_are_dataclasses():
    found = {}
    for info in pkgutil.iter_modules(rayforge.__path__):
        module = importlib.import_module(f"rayforge.{info.name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and dataclasses.is_dataclass(obj):
                found[f"{obj.__module__.removeprefix('rayforge.')}.{obj.__name__}"] = obj
    assert set(found) == DATACLASS_RECORDS
    for name, cls in found.items():
        init = vars(cls).get("__init__")
        if init is not None and init.__code__.co_filename == sys.modules[cls.__module__].__file__:
            # an __init__ of the class body's own: with init=True, @dataclass
            # would still generate and compile one for it to override
            assert not cls.__dataclass_params__.init, name
