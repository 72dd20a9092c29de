"""Importing a module loads only the modules it needs."""

import os
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
