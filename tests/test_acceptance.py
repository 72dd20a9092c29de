"""Acceptance suite: one test per shipped criterion, at fixed tolerances.

Each test prints a single PASS/FAIL line (run pytest -s to see them all).
Runtime-limited criteria assert their wall-clock budgets.
"""

import math
import time

import numpy as np
import pytest

from oracles import (
    OracleDegenerate,
    abelianization,
    appendix_report_per_sample,
    check_monotone,
    curve_clearance,
    jittered_classify,
    plain_pullback,
    random_word_fixture,
    to_json,
    winding_numbers,
)
from rayforge import cli, polyexp, potentials, presets, rays, serialize, thurston, tracts
from rayforge.errors import DegenerateCurveError, SpecRejectionError
from rayforge.homotopy import PolylineCurve, word_of_curve
from rayforge.potentials import ExternalAddress

# Pure exponential and small-coefficient relatives per degree.
RAY_MAPS = {1: presets.EXP_MAP, 2: presets.D2_MAP, 3: presets.D3_MAP}


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_01_ray_functional_equation():
    t0 = time.perf_counter()
    m = presets.EXP_MAP
    cfg = tracts.make_tract_config(m)
    worst = 0.0
    for addr in presets.ADDRESSES:
        for t in np.linspace(1.0, 5.0, 16):
            t = float(t)
            ft = potentials.step(1, t)
            lhs = m(rays.trace_ray(m, cfg, addr, t).z)
            rhs = rays.trace_ray(m, cfg, addr.shift(), ft).z
            worst = max(worst, abs(lhs - rhs) / max(1.0, ft))
    elapsed = time.perf_counter() - t0
    report(
        1,
        "ray-functional-equation",
        worst < 1e-8 and elapsed < 5.0,
        f"(worst rel resid {worst:.2e}, {elapsed:.2f}s)",
    )


def test_02_asymptotic_straightness():
    noise_floor = 1e-12  # double-precision rounding dominates below this
    ok = True
    detail = []
    for d in (1, 2):
        m = RAY_MAPS[d]
        cfg = tracts.make_tract_config(m)
        for addr in presets.ADDRESSES:
            ts, devs = [], []
            for t in np.arange(20.0, 60.0 + 1e-9, 1.0):
                t = float(t)
                z = rays.trace_ray(m, cfg, addr, t).z
                straight = complex(t, 2 * math.pi * addr.entry(0) / d)
                devs.append(abs(z - straight))
                ts.append(t)
            c_fit = max(dev * math.exp(t / 2) for dev, t in zip(devs, ts))
            ok = ok and c_fit < 100
            signal = [(t, dev) for t, dev in zip(ts, devs) if dev >= noise_floor]
            if len(signal) >= 3:
                xs = np.array([s[0] for s in signal])
                ys = np.log([s[1] for s in signal])
                slope = float(np.polyfit(xs, ys, 1)[0])
                ok = ok and (-slope >= 0.45)
                detail.append(f"d={d} {addr}: C={c_fit:.3g} rate={-slope:.2f}")
            else:
                ok = False
                detail.append(f"d={d} {addr}: no signal above noise floor")
    report(2, "asymptotic-straightness", ok, f"({'; '.join(detail[:3])}; ...)")


def test_03_round_trip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    cfgs = {d: tracts.make_tract_config(RAY_MAPS[d]) for d in (1, 2, 3)}
    worst_t = 0.0
    all_prefix_ok = True
    for k in range(50):
        d = (k % 3) + 1
        m = RAY_MAPS[d]
        entries = tuple(int(x) for x in rng.integers(-3, 4, int(rng.integers(1, 4))))
        pre = tuple(int(x) for x in rng.integers(-3, 4, int(rng.integers(0, 3))))
        addr = ExternalAddress(pre, entries)
        t = float(rng.uniform(1.0, 4.0))
        pt = rays.trace_ray(m, cfgs[d], addr, t)
        ext = rays.extract_potential_address(m, cfgs[d], pt.z)
        worst_t = max(worst_t, abs(ext.t - t) / max(1.0, t))
        want = tuple(addr.entry(ext.start + i) for i in range(len(ext.prefix)))
        all_prefix_ok = all_prefix_ok and ext.prefix == want and ext.start == 0
    elapsed = time.perf_counter() - t0
    report(
        3,
        "round-trip",
        worst_t < 1e-6 and all_prefix_ok and elapsed < 30.0,
        f"(worst rel t err {worst_t:.2e}, prefixes ok={all_prefix_ok}, {elapsed:.1f}s)",
    )


def _classify_with_budget(spec):
    t0 = time.perf_counter()
    res = thurston.classify(spec, max_iter=50, tol=1e-10)
    elapsed = time.perf_counter() - t0
    return res, elapsed


def test_04_classification_end_to_end():
    ok = True
    details = []
    for name, spec in (("d=1", presets.SPEC_D1), ("d=2", presets.SPEC_D2)):
        res, elapsed = _classify_with_budget(spec)
        perr = max(c.potential_error for c in res.certificate.orbits)
        ok = ok and len(res.deltas) <= 50
        ok = ok and res.certificate.passed and perr < 1e-6
        ok = ok and elapsed < 60.0
        alt = jittered_classify(spec, 0.1, 1, max_iter=50, tol=1e-10)
        coeff_gap = max(
            abs(a - b) for a, b in zip(res.map.coeffs, alt.map.coeffs)
        )
        ok = ok and coeff_gap < 1e-8
        details.append(
            f"{name}: iters={len(res.deltas)} perr={perr:.1e} "
            f"uniq={coeff_gap:.1e} {elapsed:.1f}s"
        )
    report(4, "classification-end-to-end", ok, f"({'; '.join(details)})")


def test_05_empirical_contraction():
    # The contraction of the pullback operator itself: classify mixes its
    # iterates, so the plain iteration z <- P(z) is run here.
    ok = True
    details = []
    for name, spec in (("d=1", presets.SPEC_D1), ("d=2", presets.SPEC_D2)):
        res = plain_pullback(spec, max_iter=50, tol=1e-10)
        dl = res.deltas
        ratios = []
        for k in range(3, len(dl) - 1):
            if dl[k] == 0.0:
                break
            ratios.append(dl[k + 1] / dl[k])
        ok = ok and all(r < 0.9 for r in ratios)
        details.append(f"{name}: max ratio {max(ratios):.3f}")
    report(5, "empirical-contraction", ok, f"({'; '.join(details)})")


def test_06_monotonicity():
    ok = True
    details = []
    for m, addr, lo, hi, n in presets.SEGMENTS:
        cfg = tracts.make_tract_config(m)
        seg = rays.trace_segment(m, cfg, addr, lo, hi, n)
        onset, horizon, violations = check_monotone(seg, m, 8)
        ok = ok and onset <= 3
        ok = ok and all(k < onset for k in violations)
        details.append(f"d={m.d} {addr}: N={onset} horizon={horizon}")
    report(6, "monotonicity", ok, f"({'; '.join(details)})")


def test_07_homotopy_oracle():
    rng = np.random.default_rng(777)
    fixtures_done = 0
    mismatches = 0
    invariance_done = 0
    invariance_fail = 0
    while fixtures_done < 200:
        marked, base_idx, curve = random_word_fixture(rng)
        try:
            word = word_of_curve(marked, curve)
            winds = winding_numbers(marked, curve)
        except (DegenerateCurveError, OracleDegenerate):
            continue
        ab = abelianization(word, len(marked))
        for i, w in enumerate(winds):
            if i != base_idx and ab[i] != w:
                mismatches += 1
        fixtures_done += 1
        if invariance_done < 100:
            clearance = curve_clearance(marked, curve)
            if clearance >= 1e-3:
                delta = 0.45 * clearance
                phases = rng.uniform(0, 2 * np.pi, len(curve.vertices) - 1)
                verts = [curve.vertices[0]] + [
                    v + delta * np.exp(1j * p)
                    for v, p in zip(curve.vertices[1:], phases)
                ]
                try:
                    moved = word_of_curve(marked, PolylineCurve(verts))
                    if moved != word:
                        invariance_fail += 1
                    invariance_done += 1
                except DegenerateCurveError:
                    pass
    ok = mismatches == 0 and invariance_fail == 0 and invariance_done >= 100
    report(
        7,
        "homotopy-oracle",
        ok,
        f"(200 fixtures, {mismatches} mismatches; "
        f"{invariance_done} perturbations, {invariance_fail} failures)",
    )


def test_08_appendix_monte_carlo():
    ok = True
    details = []
    for d in (2, 3):
        ratios = {}
        for rho in (1e2, 1e3):
            rep = polyexp.appendix_report(d, rho, samples=1000, seed=7)
            ratios[rho] = rep.max_critical_point_ratio
            # The report checks containment on its first 200 maps; the
            # per-sample reference checks all 1000.
            ref = appendix_report_per_sample(d, rho, 1000, 7, 1000)
            ok = ok and rep.containment_failures == 0 and ref.containment_failures == 0
        ok = ok and ratios[1e3] <= 1.5 * ratios[1e2]
        details.append(
            f"d={d}: max ratio {ratios[1e2]:.3f} (rho=1e2) / {ratios[1e3]:.3f} (rho=1e3)"
        )
    report(8, "appendix-monte-carlo", ok, f"({'; '.join(details)})")


def test_09_cluster_rejection():
    rejected_with_cluster_message = False
    try:
        thurston.validate_spec(presets.CLUSTER_REJECT)
    except SpecRejectionError as exc:
        rejected_with_cluster_message = "cluster" in str(exc)
    infinite = potentials.detect_clusters(presets.CLUSTER_ACCEPT_ORBITS, 3, 2)
    ok = rejected_with_cluster_message and not infinite
    report(
        9,
        "cluster-rejection",
        ok,
        f"(equal-T rejected={rejected_with_cluster_message}, "
        f"distinct-T finite={not infinite})",
    )


def test_10_determinism(tmp_path):
    def write(name, obj):
        p = tmp_path / name
        p.write_text(serialize.dumps(obj))
        return str(p)

    map_path = write("exp.json", to_json(presets.EXP_MAP))
    addr_path = write("zero.json", to_json(presets.ZERO))
    spec_path = write("spec.json", serialize.spec_to_json(presets.SPEC_D1))
    marked_path = write(
        "pts.json", {"points": [{"re": 0.0, "im": 0.0}, {"re": 3.0, "im": -1.0}]}
    )
    curve_path = write(
        "curve.json",
        {"vertices": [{"re": 0.0, "im": 0.0}, {"re": 5.0, "im": 0.5}]},
    )
    commands = [
        (["ray", "trace", "--map", map_path, "--address", addr_path,
          "--t-lo", "1", "--t-hi", "5", "--samples", "8"], "--output"),
        (["ray", "trace", "--map", map_path, "--address", addr_path,
          "--t-lo", "1", "--t-hi", "5", "--samples", "8", "--out", "json"],
         "--output"),
        (["classify", "--spec", spec_path, "--log-iterates"], "--out"),
        (["diag", "appendix-a", "--d", "3", "--rho", "100", "--samples", "25",
          "--seed", "7"], "--output"),
        (["homotopy", "word", "--marked", marked_path, "--curve", curve_path],
         "--output"),
        (["tracts", "inspect", "--map", map_path], "--output"),
    ]
    classify_out = None
    all_same = True
    for k, (argv, flag) in enumerate(commands):
        a, b = tmp_path / f"r{k}a", tmp_path / f"r{k}b"
        assert cli.main(argv + [flag, str(a)]) == 0
        assert cli.main(argv + [flag, str(b)]) == 0
        all_same = all_same and a.read_bytes() == b.read_bytes()
        if argv[0] == "classify":
            classify_out = str(a)
    inv_a, inv_b = tmp_path / "inv_a", tmp_path / "inv_b"
    assert cli.main(["diag", "invariant-set", "--run", classify_out,
                     "--output", str(inv_a)]) == 0
    assert cli.main(["diag", "invariant-set", "--run", classify_out,
                     "--output", str(inv_b)]) == 0
    all_same = all_same and inv_a.read_bytes() == inv_b.read_bytes()
    report(10, "determinism", all_same, "(7 commands, byte-identical reruns)")
