"""The three benchmark workloads: seeded inputs, the timed job, the output check.

Each job drives ``rayforge.cli.main`` in process through the CLI surface only
(no ``--threads``, no ``--seed`` on ``ray trace`` or ``classify``, an explicit
``J`` in every spec).  Inputs come from the workload seed and the job index
alone; the program sees only the files written during set-up.  Checks run
off the clock, after the timed loop, at the shipped tolerances.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

FUNC_EQ_RTOL = 1e-8  # ray functional equation, relative
POTENTIAL_RTOL = 1e-6  # certificate potential error, relative to max(1, T)
RAY_SAMPLES = 64
RAY_CHECKED_SAMPLES = 4
APPENDIX_SAMPLES = 50


@dataclass
class Job:
    index: int
    inputs: dict[str, str]  # path -> text, written during set-up
    data: dict


@dataclass
class Stage:
    """One CLI invocation of a job and what it left behind."""

    code: int | None  # None when main raised instead of returning
    stdout: str
    output: str | None  # file the command was told to write
    crash: str | None = None


@dataclass
class Check:
    ok: bool
    rel_err: float | None = None
    reason: str = ""


def dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def cx(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def address_json(addr) -> dict:
    return {"preperiod": list(addr.preperiod), "period": list(addr.period)}


def latin(rng, n: int, k: int) -> np.ndarray:
    """n points in [0, 1)^k with one point per 1/n-wide cell of every
    coordinate (a Latin hypercube), so that runs with different seeds draw
    nearly the same spread of values."""
    cells = np.array([rng.permutation(n) for _ in range(k)], dtype=float).reshape(k, n).T
    return (cells + rng.random((n, k))) / n


class Workload:
    def __init__(self, name: str, rate: float):
        self.name = name
        # Jobs per second of --seconds: fixes the job count so that every run
        # of a seed does the same work; sized so that a run lasts about
        # --seconds on the 2-core host the bounds were set on.
        self.rate = rate

    @staticmethod
    def path(workdir: str, tag: str, suffix: str) -> str:
        return os.path.join(workdir, f"{tag}.{suffix}")

    def degree(self, index: int) -> int:
        return 1 + index % 3

    def dims(self, d: int) -> int:
        """Number of stratified inputs drawn per job of degree d."""
        return 0

    def make_jobs(self, rf, entropy, n, workdir, prefix) -> list[Job]:
        """Jobs 0..n-1 from the entropy tuple alone.

        Degrees cycle with the job index; the inputs of the jobs of one
        degree are stratified (``latin``); redraws and seeds come from a
        per-job stream.
        """
        plan = np.random.default_rng([*entropy, 0])
        degrees = [self.degree(i) for i in range(n)]
        draws = {}
        for d in sorted(set(degrees)):
            rows = [i for i in range(n) if degrees[i] == d]
            draws.update(zip(rows, latin(plan, len(rows), self.dims(d))))
        return [
            self.make(rf, np.random.default_rng([*entropy, 1, i]), i, degrees[i], draws[i],
                      workdir, f"{prefix}{i:04d}")
            for i in range(n)
        ]


class ClassifyMix(Workload):
    """``classify --spec S`` then ``diag invariant-set --run`` on its output."""

    def __init__(self):
        super().__init__("classify-mix", rate=11.0)

    def dims(self, d):
        return 2 * d  # a potential T and an address per orbit

    @staticmethod
    def address(rf, u: float):
        """Periodic address from u in [0, 1): period 1 or 2 with equal
        probability, entries uniform in {-1, 0, 1}."""
        if u < 0.5:
            return rf.potentials.ExternalAddress((), (int(u * 6) - 1,))
        k = min(int((u - 0.5) * 18), 8)
        return rf.potentials.ExternalAddress((), (k // 3 - 1, k % 3 - 1))

    def make(self, rf, rng, index, d, u, workdir, tag):
        potentials = [0.8 + 2.2 * float(x) for x in u[:d]]
        depth = min(len(rf.potentials.chain(d, t)) - 1 for t in potentials)
        picks = u[d:]
        # Only the addresses can make validate_spec reject these specs
        # (overlap under shifts), so only they are redrawn.
        while True:
            orbits = tuple((t, self.address(rf, float(x))) for t, x in zip(potentials, picks))
            spec = rf.thurston.TargetSpec(d, orbits, depth)
            try:
                rf.thurston.validate_spec(spec)
                break
            except rf.errors.SpecRejectionError:
                picks = rng.random(d)
        spec_json = {
            "d": d,
            "J": depth,
            "orbits": [{"T": t, "address": address_json(a)} for t, a in orbits],
        }
        spec_path = self.path(workdir, tag, "spec.json")
        return Job(
            index,
            {spec_path: dump(spec_json)},
            {
                "spec": spec_path,
                "run": self.path(workdir, tag, "run.json"),
                "inv": self.path(workdir, tag, "inv.json"),
                "potentials": potentials,
            },
        )

    def execute(self, job, call):
        d = job.data
        first = call(["classify", "--spec", d["spec"], "--out", d["run"]], d["run"])
        if first.code != 0:
            return [first]
        return [first, call(["diag", "invariant-set", "--run", d["run"], "--output", d["inv"]], d["inv"])]

    def check(self, rf, job, seed):
        run = load(job.data["run"])
        cert = run["certificate"]
        if not cert["passed"]:
            return Check(False, reason="exit 0 with a failed certificate")
        worst = 0.0
        for orbit in cert["orbits"]:
            t = job.data["potentials"][orbit["orbit"]]
            perr = orbit["potential_error"]
            if perr is None or not perr < POTENTIAL_RTOL * max(1.0, t):
                return Check(False, reason=f"orbit {orbit['orbit']} potential error {perr}")
            worst = max(worst, perr / max(1.0, t))
        if not load(job.data["inv"])["iterations"]:
            return Check(False, worst, "invariant-set report is empty")
        return Check(True, worst)


class RaySweep(Workload):
    """``ray trace --out json`` over 64 samples, then ``homotopy word`` of the
    traced polyline relative to {first traced point, singular values}."""

    def __init__(self):
        super().__init__("ray-sweep", rate=19.0)

    def dims(self, d):
        return 2 + 2 * d  # t_lo, t_hi / t_lo, re and im of each coefficient

    def make(self, rf, rng, index, d, u, workdir, tag):
        address = rf.presets.ADDRESSES[(index // 3) % len(rf.presets.ADDRESSES)]
        t_lo = 0.8 + 0.7 * float(u[0])
        t_hi = t_lo * (2.0 + 2.0 * float(u[1]))
        parts = [0.6 * float(x) - 0.3 for x in u[2:]]
        coeffs = [complex(parts[2 * k], parts[2 * k + 1]) for k in range(d)]
        singular = rf.polyexp.PolyExpMap(d, coeffs).singular_data().all
        map_path = self.path(workdir, tag, "map.json")
        addr_path = self.path(workdir, tag, "address.json")
        return Job(
            index,
            {
                map_path: dump({"d": d, "coeffs": [cx(c) for c in coeffs]}),
                addr_path: dump(address_json(address)),
            },
            {
                "d": d,
                "coeffs": coeffs,
                "address": address,
                "t_lo": t_lo,
                "t_hi": t_hi,
                "singular": [cx(v) for v in singular],
                "map": map_path,
                "addr": addr_path,
                "ray": self.path(workdir, tag, "ray.json"),
                "curve": self.path(workdir, tag, "curve.json"),
                "marked": self.path(workdir, tag, "marked.json"),
                "word": self.path(workdir, tag, "word.json"),
            },
        )

    def execute(self, job, call):
        d = job.data
        trace = call(
            ["ray", "trace", "--map", d["map"], "--address", d["addr"],
             "--t-lo", repr(d["t_lo"]), "--t-hi", repr(d["t_hi"]),
             "--samples", str(RAY_SAMPLES), "--out", "json", "--output", d["ray"]],
            d["ray"],
        )
        if trace.code != 0:
            return [trace]
        vertices = [{"re": s["re"], "im": s["im"]} for s in load(d["ray"])["samples"]]
        with open(d["curve"], "w", encoding="utf-8") as fh:
            fh.write(dump({"vertices": vertices}))
        with open(d["marked"], "w", encoding="utf-8") as fh:
            fh.write(dump({"points": [vertices[0]] + d["singular"]}))
        word = call(
            ["homotopy", "word", "--marked", d["marked"], "--curve", d["curve"], "--output", d["word"]],
            d["word"],
        )
        return [trace, word]

    def check(self, rf, job, seed):
        """f(z(t, s)) = z(step(t), shift s) on a seeded subset of samples."""
        d = job.data
        samples = load(d["ray"])["samples"]
        if len(samples) != RAY_SAMPLES:
            return Check(False, reason=f"{len(samples)} samples instead of {RAY_SAMPLES}")
        if not isinstance(load(d["word"])["word"], list):
            return Check(False, reason="word output holds no letter list")
        map_ = rf.polyexp.PolyExpMap(d["d"], d["coeffs"])
        cfg = rf.tracts.make_tract_config(map_)
        shifted = d["address"].shift()
        picks = np.random.default_rng([seed, 2, job.index]).choice(
            RAY_SAMPLES, RAY_CHECKED_SAMPLES, replace=False
        )
        worst = 0.0
        for k in sorted(picks.tolist()):
            s = samples[k]
            image_t = rf.potentials.step(d["d"], s["t"])
            rhs = rf.rays.trace_ray(map_, cfg, shifted, image_t).z
            err = abs(map_(complex(s["re"], s["im"])) - rhs) / max(1.0, abs(rhs))
            if not err <= FUNC_EQ_RTOL:
                return Check(False, err, f"functional equation off by {err:.3e} at sample {k}")
            worst = max(worst, err)
        return Check(True, worst)


class AppendixMC(Workload):
    """``diag appendix-a`` at d=2 and d=3 for one rho and job seed.

    Both degrees run in one job: one degree per job would split the job
    times into two clusters and put the median in the gap between them.
    """

    def __init__(self):
        super().__init__("appendix-mc", rate=6.0)

    def degree(self, index):
        return 0  # both degrees run in every job

    def make(self, rf, rng, index, d, u, workdir, tag):
        return Job(
            index,
            {},
            {
                "rho": ("1e2", "1e3")[index % 2],
                "seed": int(rng.integers(0, 2**31)),
                "out": {deg: self.path(workdir, tag, f"appendix-d{deg}.json") for deg in (2, 3)},
            },
        )

    def execute(self, job, call):
        d = job.data
        return [
            call(
                ["diag", "appendix-a", "--d", str(deg), "--rho", d["rho"],
                 "--samples", str(APPENDIX_SAMPLES), "--seed", str(d["seed"]),
                 "--output", d["out"][deg]],
                d["out"][deg],
            )
            for deg in (2, 3)
        ]

    def check(self, rf, job, seed):
        for deg, path in job.data["out"].items():
            report = load(path)
            if report["containment_failures"] != 0:
                return Check(False, reason=f"d={deg}: {report['containment_failures']} containment failures")
            if not math.isfinite(report["max_critical_point_ratio"]):
                return Check(False, reason=f"d={deg}: non-finite critical point ratio")
        return Check(True)


WORKLOADS = {w.name: w for w in (ClassifyMix(), RaySweep(), AppendixMC())}
