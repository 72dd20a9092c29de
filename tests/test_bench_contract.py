"""What the benchmark under ``perfbench/`` reads from the package.

``perfbench --trace 1`` wraps every function that ``tracing.LAYERS`` names,
and ray-sweep marks the singular values of each map; a rename or deletion
in ``src/`` must fail here rather than inside a benchmark run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from rayforge import polyexp, tracts
from rayforge.polyexp import PolyExpMap

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, fn) for mod, fns in module.LAYERS.items() for fn in fns]


@pytest.mark.parametrize("mod, fn", _layers())
def test_traced_layer_resolves(mod, fn):
    assert callable(getattr(importlib.import_module(f"rayforge.{mod}"), fn))


@pytest.mark.parametrize(
    "fn, pos, name",
    [(polyexp.poly_roots_batch, 1, "ws"), (tracts.make_tract_config, 0, "map_")],
)
def test_traced_argument_position(fn, pos, name):
    # The tracer reads rows per call and the map key from these positional
    # arguments; a moved parameter would skew a traced run without failing it.
    assert list(inspect.signature(fn).parameters)[pos] == name


def test_singular_values_of_a_map():
    sd = PolyExpMap(2, [0.1 + 0.2j, -0.3]).singular_data()
    assert isinstance(sd.all, tuple) and len(sd.all) == 2
