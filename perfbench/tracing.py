"""Outside-in span tracing of rayforge's public functions.

``Tracer.install`` replaces each function named in ``LAYERS`` on every
rayforge module that binds it (``thurston.critical_points`` as well as
``polyexp.critical_points``) with a wrapper that records one span per call:
name, job id, parent span, start and end (``perf_counter_ns``), one numeric
attribute and whether the call raised.  Spans live in flat in-memory arrays
until the run ends; ``layer_metrics`` turns them into per-layer counts and
self times, and ``save`` writes them out.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter_ns

import numpy as np

# Functions traced per module, in the order the metrics are listed.
LAYERS = {
    "tracts": ("make_tract_config", "inverse_branch"),
    "polyexp": (
        "poly_roots_batch",
        "critical_points",
        "check_disk_containment",
        "appendix_report",
    ),
    "rays": ("trace_segment", "trace_ray", "extract_potential_address"),
    "thurston": (
        "validate_spec",
        "init_state",
        "pullback_step",
        "fit_map",
        "verify",
        "invariant_set_diagnostics",
    ),
    "potentials": ("detect_clusters", "build_ladder", "chain"),
    "homotopy": ("word_of_curve",),
    "cli": ("main",),
}

# Upper edges of the poly_roots_batch rows-per-call histogram buckets.
ROW_BUCKETS = ((1, "rows_1"), (16, "rows_2_16"), (256, "rows_17_256"), (None, "rows_257_up"))


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Span store for one single-threaded run; set ``job`` before each job."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.job_of = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.attr = array("d")
        self.failed = array("b")
        self.stack: list[int] = []
        self.job = -1
        self.map_keys: dict[tuple, int] = {}
        self._installed: list[tuple] = []

    # -- attributes recorded per span -------------------------------------

    def _map_key(self, args, kwargs) -> float:
        map_ = _arg(args, kwargs, 0, "map_")
        key = (map_.d, tuple(map_.coeffs))
        return float(self.map_keys.setdefault(key, len(self.map_keys)))

    @staticmethod
    def _rows(args, kwargs) -> float:
        return float(np.size(_arg(args, kwargs, 1, "ws")))

    @staticmethod
    def _depth(result) -> float:
        return float(result.depth_used)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, span_name: str, fn, attr_in=None, attr_out=None):
        nid = len(self.names)
        self.names.append(span_name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.job_of.append(self.job)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.attr.append(attr_in(args, kwargs) if attr_in else 0.0)
            self.failed.append(0)
            self.end.append(0)
            self.stack.append(i)
            self.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[i] = 1
                raise
            finally:
                self.end[i] = perf_counter_ns()
                self.stack.pop()
            if attr_out:
                self.attr[i] = attr_out(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every LAYERS function on each rayforge module binding it."""
        hooks = {
            "tracts.make_tract_config": (self._map_key, None),
            "polyexp.poly_roots_batch": (self._rows, None),
            "rays.trace_ray": (None, self._depth),
        }
        modules = [m for n, m in sys.modules.items() if n == "rayforge" or n.startswith("rayforge.")]
        for mod_name, fns in LAYERS.items():
            home = sys.modules["rayforge." + mod_name]
            for fn_name in fns:
                orig = getattr(home, fn_name)
                span_name = f"{mod_name}.{fn_name}"
                wrapper = self._wrap(span_name, orig, *hooks.get(span_name, (None, None)))
                for mod in modules:
                    for attr in [a for a, v in vars(mod).items() if v is orig]:
                        setattr(mod, attr, wrapper)
                        self._installed.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._installed):
            setattr(mod, attr, orig)
        self._installed.clear()

    @staticmethod
    def span_cost_ns(calls: int = 20000) -> float:
        """Cost of recording one span: a wrapped no-op against the bare one."""

        def noop():
            return None

        probe = Tracer()
        best = []
        for fn in (noop, probe._wrap("noop", noop)):
            runs = []
            for _ in range(3):
                start = perf_counter_ns()
                for _ in range(calls):
                    fn()
                runs.append(perf_counter_ns() - start)
            best.append(min(runs))
        return max(0.0, (best[1] - best[0]) / calls)

    # -- results ------------------------------------------------------------

    def _arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "job": np.frombuffer(self.job_of, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "attr": np.frombuffer(self.attr, dtype=np.float64),
            "failed": np.frombuffer(self.failed, dtype=np.int8),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self._arrays())

    def layer_metrics(self, n_jobs: int) -> dict[str, tuple[float, str]]:
        """Per-layer (value, unit) counts, self times and work ratios.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the run is single-threaded.
        """
        a = self._arrays()
        name, job, parent, attr, failed = a["name"], a["job"], a["parent"], a["attr"], a["failed"]
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=len(dur))
        self_ns = dur - child[: len(dur)]
        ids = {n: i for i, n in enumerate(self.names)}

        def sel(span_name):
            return name == ids[span_name]

        out: dict[str, tuple[float, str]] = {}
        for mod_name, fns in LAYERS.items():
            for fn_name in fns:
                s = sel(f"{mod_name}.{fn_name}")
                out[f"{mod_name}.{fn_name}.calls"] = (int(s.sum()), "count")
                out[f"{mod_name}.{fn_name}.self_ms"] = (float(self_ns[s].sum()) / 1e6, "ms")

        builds = sel("tracts.make_tract_config")
        keys = attr[builds]
        out["tracts.make_tract_config.builds_per_map"] = (
            float(len(keys)) / len(np.unique(keys)) if len(keys) else 0.0,
            "ratio",
        )
        out["tracts.make_tract_config.prior_map_job_share"] = (
            _prior_map_share(job[builds], keys, n_jobs),
            "frac",
        )
        out["tracts.inverse_branch.errors"] = (int(failed[sel("tracts.inverse_branch")].sum()), "count")

        roots = sel("polyexp.poly_roots_batch")
        rows = attr[roots]
        out["polyexp.poly_roots_batch.rows_per_call"] = (
            float(rows.mean()) if len(rows) else 0.0,
            "rows",
        )
        lo = 0
        for hi, label in ROW_BUCKETS:
            in_bucket = rows > lo if hi is None else (rows > lo) & (rows <= hi)
            out[f"polyexp.poly_roots_batch.{label}"] = (int(in_bucket.sum()), "count")
            lo = hi
        out["polyexp.poly_roots_batch.errors"] = (int(failed[roots].sum()), "count")

        rays_ok = sel("rays.trace_ray") & (failed == 0)
        out["rays.trace_ray.depth_mean"] = (
            float(attr[rays_ok].mean()) if rays_ok.any() else 0.0,
            "levels",
        )

        steps = job[sel("thurston.pullback_step")]
        out["thurston.pullback_step.per_job"] = (
            float(len(steps)) / len(np.unique(steps)) if len(steps) else 0.0,
            "steps",
        )
        return out


def _prior_map_share(build_jobs: np.ndarray, keys: np.ndarray, n_jobs: int) -> float:
    """Share of jobs that certified a map some earlier job had certified."""
    first_job: dict[float, int] = {}
    hit_jobs = set()
    for j, k in zip(build_jobs.tolist(), keys.tolist()):
        first = first_job.setdefault(k, j)
        if first < j:
            hit_jobs.add(j)
    return len(hit_jobs) / n_jobs if n_jobs else 0.0
