"""rayforge benchmark: one closed-loop client driving ``rayforge.cli.main``.

Usage, from the root of a source checkout (the package is imported from
``src/``, nothing is installed):

    python3 perfbench/run.py --workload classify-mix --seed 1 --seconds 20 --trace 0

One client, one thread: each job starts after the previous one finished.
The job count is ``rate * seconds`` for the workload, so every run of a seed
does the same work.  ``--trace 0`` reports the end-to-end metrics with
tracing off; ``--trace 1`` reports per-layer metrics from spans recorded
around rayforge's public functions (see ``tracing.py``).  The last stdout
line is the result object; the line before it is the full report.
"""

import os

# Pin BLAS before numpy loads; the benchmark measures one single-threaded client.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["MKL_NUM_THREADS"] = "1"
os.environ.pop("RAYFORGE_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import calibrate  # noqa: E402
import numpy as np  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Stage  # noqa: E402

SETUP_ROUNDS = 7
MIN_JOBS = 12
HELDOUT_SEED = 7919  # never used while the benchmark was tuned; for gain claims
WARMUP_ENTROPY = (0, 0)  # warm-up input, the same for every seed; runs use (1, seed)
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10
WORK_ROOT = ".perfbench_work"
SPAN_ROOT = ".perfbench_out"
RAYFORGE_MODULES = ("cli", "errors", "polyexp", "potentials", "presets", "rays", "thurston", "tracts")


def load_rayforge(src: str) -> SimpleNamespace:
    """Import rayforge afresh from ``src`` (module objects of earlier loads are dropped)."""
    for name in [n for n in sys.modules if n == "rayforge" or n.startswith("rayforge.")]:
        del sys.modules[name]
    package = importlib.import_module("rayforge")
    if not os.path.abspath(package.__file__).startswith(src + os.sep):
        raise ImportError(f"rayforge imported from {package.__file__}, not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"rayforge.{m}") for m in RAYFORGE_MODULES})


def make_call(rf):
    def call(argv, output):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = rf.cli.main(argv)
            except Exception as exc:  # a crash is recorded as a failed job
                return Stage(None, out.getvalue(), output, f"{type(exc).__name__}: {exc}")
        return Stage(code, out.getvalue(), output)

    return call


def write_inputs(job) -> None:
    for path, text in job.inputs.items():
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


@dataclass
class Record:
    stages: list
    wall_s: float
    cpu_s: float
    scale: float  # to nominal host speed, see calibrate.py


def timed_pass(rf, workload, jobs, tracer=None) -> list[Record]:
    """Run jobs back to back, with the reference kernel timed between them."""
    call = make_call(rf)
    records = []
    before = calibrate.kernel_ms()
    for job in jobs:
        if tracer is not None:
            tracer.job = job.index
        wall0, cpu0 = time.perf_counter(), time.process_time()
        stages = workload.execute(job, call)
        wall1, cpu1 = time.perf_counter(), time.process_time()
        after = calibrate.kernel_ms()
        records.append(Record(stages, wall1 - wall0, cpu1 - cpu0, calibrate.scale(before, after)))
        before = after
    return records


def busy_s(records) -> float:
    """Time the jobs took at nominal host speed."""
    return sum(r.wall_s * r.scale for r in records)


def output_bytes(stages) -> bytes:
    parts = []
    for s in stages:
        parts.append(f"exit={s.code}\n{s.stdout}".encode())
        if s.output and os.path.exists(s.output):
            with open(s.output, "rb") as fh:
                parts.append(fh.read())
    return b"\0".join(parts)


def judge(rf, workload, job, stages, seed):
    """(status, rel_err, claimed_but_wrong) for one job, off the clock."""
    crashed = [s.crash for s in stages if s.crash]
    if crashed:
        return f"crash {crashed[0].split(':')[0]}", None, True
    bad = [s for s in stages if s.code != 0]
    if bad:
        try:
            kind = json.loads(bad[0].stdout)["error"]["kind"]
        except (ValueError, KeyError, TypeError):
            kind = "certificate failed" if bad[0].code == 3 and not bad[0].stdout else "no error payload"
        return f"exit {bad[0].code} {kind}", None, False
    try:
        check = workload.check(rf, job, seed)
    except Exception as exc:  # a check that cannot run fails the job
        return f"check raised {type(exc).__name__}: {exc}", None, True
    if not check.ok:
        return f"check failed: {check.reason}", check.rel_err, True
    return "pass", check.rel_err, False


def tail(values):
    """(percentile, value) at the highest ladder percentile that has at
    least ten values beyond it; the median when there are too few values."""
    n = len(values)
    pct = next((p for p in TAIL_LADDER if n * (100 - p) / 100 >= TAIL_BEYOND), 50.0)
    return pct, sorted(values)[max(0, math.ceil(pct / 100 * n) - 1)]


def git_sha():
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(".git", ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None  # not a git checkout


def environment():
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "blas_threads": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "rayforge", "__init__.py")):
        print(f"perfbench: no rayforge sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    workload = WORKLOADS[args.workload]
    n_jobs = max(MIN_JOBS, round(workload.rate * args.seconds))
    workdir = os.path.join(WORK_ROOT, f"{workload.name}-s{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        report = run(args, workload, n_jobs, workdir, src)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)
    report["env"] = environment()
    result = report.pop("result")
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0


def run(args, workload, n_jobs, workdir, src):
    # Set-up, repeated so its median is steady: fresh import of rayforge,
    # input generation, input files, one untimed warm-up job.
    setup_raw, setup_scaled = [], []
    for _ in range(SETUP_ROUNDS):
        before = calibrate.kernel_ms()
        start = time.perf_counter()
        rf = load_rayforge(src)
        jobs = workload.make_jobs(rf, (1, args.seed), n_jobs, workdir, "j")
        warmup = workload.make_jobs(rf, WARMUP_ENTROPY, 2, workdir, "warmup")[1]
        for job in jobs + [warmup]:
            write_inputs(job)
        workload.execute(warmup, make_call(rf))
        elapsed = time.perf_counter() - start
        setup_raw.append(elapsed)
        setup_scaled.append(elapsed * calibrate.scale(before, calibrate.kernel_ms()))

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            records = timed_pass(rf, workload, jobs, tracer)
        finally:
            tracer.uninstall()
    else:
        records = timed_pass(rf, workload, jobs)

    # Off the clock: check every output, digest the bytes, rerun job 0.
    digest = hashlib.sha256()
    statuses, rel_errs = [], []
    claimed_wrong = 0
    blobs = [output_bytes(r.stages) for r in records]
    for job, record, blob in zip(jobs, records, blobs):
        digest.update(f"{job.index}:{len(blob)}\n".encode())
        digest.update(blob)
        status, rel_err, wrong = judge(rf, workload, job, record.stages, args.seed)
        statuses.append(status)
        claimed_wrong += wrong
        if status == "pass" and rel_err is not None:
            rel_errs.append(rel_err)
    rerun_identical = output_bytes(workload.execute(jobs[0], make_call(rf))) == blobs[0]

    passing = [r for r, s in zip(records, statuses) if s == "pass"]
    failed = len(jobs) - len(passing)
    failures = Counter(s for s in statuses if s != "pass")
    timed = passing or records  # all jobs failed: time them all rather than none
    walls_ms = [r.wall_s * r.scale * 1e3 for r in timed]
    tail_pct, tail_ms = tail(walls_ms)

    report = {
        "workload": workload.name,
        "seed": args.seed,
        "heldout_seed": HELDOUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": len(jobs),
        "passed": len(passing),
        "failed": failed,
        "fail_frac": failed / len(jobs),
        "failures": failures,
        "claimed_but_wrong": claimed_wrong,
        "max_rel_err": max(rel_errs) if rel_errs else None,
        "output_digest": digest.hexdigest(),
        "rerun_identical": rerun_identical,
        "tail_percentile": tail_pct,
        "timed_samples": len(walls_ms),
        "setup_rounds_s": setup_raw,
        "kernel_scale_median": statistics.median(r.scale for r in records),
        "raw": {
            "setup_s": statistics.median(setup_raw),
            "jobs_per_s": len(passing) / sum(r.wall_s for r in records),
            "job_p50_ms": statistics.median(r.wall_s * 1e3 for r in timed),
            "job_tail_ms": tail([r.wall_s * 1e3 for r in timed])[1],
            "job_cpu_p50_ms": statistics.median(r.cpu_s * 1e3 for r in timed),
        },
    }
    correct = claimed_wrong == 0 and rerun_identical
    if args.trace:
        layer = tracer.layer_metrics(len(jobs))
        # Tracing overhead, estimated from the measured cost of one span: an
        # untraced pass over the same jobs would run at another time, and the
        # host's drift between two passes (up to 10% after scaling) swamps it.
        overhead_s = len(tracer.start) * tracer.span_cost_ns() / 1e9
        layer["bench.trace_overhead_frac"] = (overhead_s / sum(r.wall_s for r in records), "frac")
        result_metrics = {k: metric(v, unit) for k, (v, unit) in layer.items()}
        os.makedirs(SPAN_ROOT, exist_ok=True)
        report["span_file"] = os.path.join(SPAN_ROOT, f"spans-{workload.name}-s{args.seed}.npz")
        tracer.save(report["span_file"])
        report["spans"] = len(tracer.start)
    else:
        cpu_ms = [r.cpu_s * r.scale * 1e3 for r in timed]
        result_metrics = {
            "setup_s": metric(statistics.median(setup_scaled), "s"),
            "jobs_per_s": metric(len(passing) / busy_s(records), "1/s"),
            "job_p50_ms": metric(statistics.median(walls_ms), "ms"),
            "job_tail_ms": metric(tail_ms, "ms"),
            "job_cpu_p50_ms": metric(statistics.median(cpu_ms), "ms"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    report["result"] = {
        "correct": correct,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": result_metrics,
    }
    return report


if __name__ == "__main__":
    sys.exit(main())
