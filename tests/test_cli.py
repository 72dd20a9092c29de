import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from oracles import main_through_full_tree, seeded_specs, to_json

import rayforge
from rayforge import cli, config, errors, potentials, presets, serialize, thurston, tracts
from rayforge.polyexp import PolyExpMap

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@pytest.fixture
def workdir(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(serialize.dumps(obj))
        return str(path)

    paths = {
        "map": write("exp.json", to_json(presets.EXP_MAP)),
        "zero": write("zero.json", to_json(presets.ZERO)),
        "spec1": write("spec1.json", serialize.spec_to_json(presets.SPEC_D1)),
        "bad_spec": write(
            "bad.json", serialize.spec_to_json(presets.CLUSTER_REJECT)
        ),
        "marked": write(
            "points.json",
            {"points": [{"re": 0.0, "im": 0.0}, {"re": 3.0, "im": 0.0}]},
        ),
        "curve": write(
            "curve.json",
            {
                "vertices": [
                    {"re": 0.0, "im": 0.0},
                    {"re": 2.0, "im": 1.0},
                    {"re": 5.0, "im": 1.0},
                ]
            },
        ),
        "dir": tmp_path,
    }
    return paths


def run(argv):
    return cli.main(argv)


class TestRayTrace:
    def test_csv_output(self, workdir, capsys):
        code = run(
            [
                "ray", "trace", "--map", workdir["map"], "--address", workdir["zero"],
                "--t-lo", "1", "--t-hi", "5", "--samples", "4",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# rayforge/1 config=")
        assert lines[1] == "t,re,im,depth,err"
        assert len(lines) == 6

    def test_json_output(self, workdir, capsys):
        code = run(
            [
                "ray", "trace", "--map", workdir["map"], "--address", workdir["zero"],
                "--t-lo", "1", "--t-hi", "5", "--samples", "3", "--out", "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "rayforge/1"
        assert len(payload["samples"]) == 3
        assert "config" in payload

    def test_missing_map_usage_error(self, workdir, capsys):
        code = run(
            ["ray", "trace", "--address", workdir["zero"],
             "--t-lo", "1", "--t-hi", "5", "--samples", "4"]
        )
        assert code == 2

    def test_depth_budget_exhausted_exit_3(self, workdir, tmp_path, capsys):
        # At d = 20 and t = 0.18 the float range allows depth 1 only, and
        # the depth-1 point misses the tracer's bound: the message names the
        # float range, not a depth anyone could raise.
        assert len(potentials.chain(20, 0.18)) == 2
        map_path = _write(tmp_path, "d20.json", to_json(PolyExpMap(20, [0.1] * 20)))
        code = run(
            [
                "ray", "trace", "--map", map_path, "--address", workdir["zero"],
                "--t-lo", "0.18", "--t-hi", "0.18", "--samples", "1",
            ]
        )
        assert code == 3
        assert json.loads(capsys.readouterr().out)["error"] == {
            "kind": "NotConvergedError",
            "message": "the float range allows only depth 1 at potential 0.18 (the next "
            "speed passes config.CAP): increment 2.379e-02, error estimate 4.847e-10 > "
            "config.TRACER_TOL max(1, |z|) = 1.000e-10",
        }

    @pytest.mark.parametrize(
        "b0, period, t_lo, t_hi, seed",
        [
            (14.80 + 4.02j, [0], "1.2795", "3.601", "12.394403491819059"),
            (5.55 + 5.94j, [0, 1], "1.0513", "2.0038", "5.403480077577757"),
        ],
    )
    def test_pull_chain_left_of_singular_values_exit_3(
        self, b0, period, t_lo, t_hi, seed, tmp_path, capsys
    ):
        # valid input whose pull chain dips left of the singular values at
        # the lowest potential; it used to exit 2, blaming the caller
        map_path, addr_path = tmp_path / "map.json", tmp_path / "addr.json"
        map_path.write_text(serialize.dumps(to_json(PolyExpMap(1, [b0]))))
        addr_path.write_text(json.dumps({"period": period}))
        code = run(
            [
                "ray", "trace", "--map", str(map_path), "--address", str(addr_path),
                "--t-lo", t_lo, "--t-hi", t_hi, "--samples", "16",
            ]
        )
        assert code == 3
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["kind"] == "BranchSelectionError"
        assert error["message"].startswith(
            f"no single-valued branch for the ray at potential {t_lo}: its pull-chain "
            f"seed ({seed}"
        )

    @pytest.mark.parametrize("entries", [[1.5], [0, "1"], [float("nan")]])
    def test_non_integral_address_entry_exit_2(self, workdir, tmp_path, capsys, entries):
        # an entry of 1.5 used to be traced as strip 1 with exit 0
        addr = tmp_path / "frac.json"
        addr.write_text(json.dumps({"period": entries}))
        code = run(
            [
                "ray", "trace", "--map", workdir["map"], "--address", str(addr),
                "--t-lo", "1", "--t-hi", "5", "--samples", "4",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "address entries must be integers" in captured.err


class TestClassify:
    def test_shipped_spec_passes(self, workdir, capsys):
        out = str(workdir["dir"] / "result.json")
        code = run(["classify", "--spec", workdir["spec1"], "--out", out])
        assert code == 0
        payload = json.loads(open(out).read())
        assert payload["certificate"]["passed"] is True
        assert payload["converged"] is True
        assert payload["iterations"] <= 50

    def test_cluster_rejection_exit_4(self, workdir, capsys):
        code = run(["classify", "--spec", workdir["bad_spec"]])
        assert code == 4
        payload = json.loads(capsys.readouterr().out)
        assert "cluster" in payload["error"]["message"]

    def test_bad_json_exit_2(self, workdir, tmp_path, capsys):
        bad = tmp_path / "mangled.json"
        bad.write_text("{not json")
        code = run(["classify", "--spec", str(bad)])
        assert code == 2

    @pytest.mark.parametrize("t", [1e-300, 1e-17])
    def test_tiny_potential_exit_4(self, t, tmp_path, capsys):
        # d*T below 1e-16 once made the tail's log step a math domain error;
        # step(1, T) rounds to T there, so the spec is rejected up front.
        spec = tmp_path / "tiny.json"
        spec.write_text(json.dumps(
            {"d": 1, "J": 3, "orbits": [{"T": t, "address": {"period": [0]}}]}
        ))
        assert run(["classify", "--spec", str(spec)]) == 4
        captured = capsys.readouterr()
        assert json.loads(captured.out)["error"]["kind"] == "SpecRejectionError"
        assert captured.err == ""

    def test_stalled_speed_tower_exit_4(self, tmp_path, capsys):
        # step(1, 1e-300) rounds to 1e-300, so no depth ever overflows; the
        # spec used to pass validation after O(J) work, then fail in classify.
        spec = _write(tmp_path, "stalled.json", {
            "d": 1, "J": 100_000, "orbits": [{"T": 1e-300, "address": {"period": [0]}}],
        })
        assert run(["classify", "--spec", spec]) == 4
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["kind"] == "SpecRejectionError"
        assert error["message"].startswith("orbit 0 (T=1e-300): its speed does not grow")

    def test_other_branch_errors_pass_through_exit_3(self, workdir, monkeypatch, capsys):
        # pullback_step turns DomainError and BranchSelectionError rows into
        # its own errors; any other row error, as a stalled root solve's,
        # reaches the report unchanged.
        stalled = errors.RootSolveError("root solve stalled", worst_residual=1.0)

        def failing(map_, cfg, ns, ws):
            return np.full(len(ws), complex("nan")), {0: stalled}

        monkeypatch.setattr(tracts, "inverse_branches", failing)
        assert run(["classify", "--spec", workdir["spec1"]]) == 3
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == {"kind": "RootSolveError", "message": "root solve stalled"}


class TestDepthBound:
    """classify solves at the spec's own depth J*; a given J only bounds it."""

    def _classify(self, tmp_path, obj, capsys) -> tuple[int, str]:
        code = run(["classify", "--spec", _write(tmp_path, "spec.json", obj)])
        return code, capsys.readouterr().out

    def test_every_accepted_J_gives_the_same_bytes(self, tmp_path, capsys):
        certified = 0
        for spec in seeded_specs(120, 5, t_lo=0.3):
            depth = spec.depth
            obj = {k: v for k, v in serialize.spec_to_json(spec).items() if k != "J"}
            code, out = want = self._classify(tmp_path, obj, capsys)
            if code == 0:
                assert json.loads(out)["config"]["spec"]["J"] == depth
                certified += 1
            for J in range(1, depth + 1):
                assert self._classify(tmp_path, obj | {"J": J}, capsys) == want, (obj, J)
            code, out = self._classify(tmp_path, obj | {"J": depth + 1}, capsys)
            assert code == 4, (obj, out)
            assert json.loads(out)["error"]["message"].startswith(
                f"grid depth J must be in 1..J*, got J = {depth + 1} with J* = {depth}; "
            )
        assert certified >= 90

    @pytest.mark.parametrize(
        "d,orbits,bounds",
        [
            (1, [(0.5, [0])], [1, 2, 3]),
            (1, [(1.0, [1])], [1]),
            (2, [(0.3, [0])], [1]),
            # chains of different length: orbit 1's level-3 seed is a number
            (2, [(1.5, [0]), (0.5, [1])], [1, 2]),
        ],
        ids=["d1-T0.5", "d1-T1.0", "d2-T0.3", "d2-two-chains"],
    )
    def test_shallow_J_is_certified(self, d, orbits, bounds, tmp_path, capsys):
        # The one-orbit specs failed their certificates at these J when the
        # grid was cut at level J; all now solve at J*.
        obj = {"d": d, "orbits": [{"T": t, "address": {"period": p}} for t, p in orbits]}
        for J in bounds:
            code, out = self._classify(tmp_path, obj | {"J": J}, capsys)
            assert code == 0
            assert json.loads(out)["certificate"]["passed"] is True

    def test_invariant_set_rejects_a_grid_cut_at_J(self, tmp_path, capsys):
        # A run file from when J set the depth: J = 1 below J* = 6, so its
        # grid has 2 columns where the spec now needs 7.
        spec_obj = {"d": 1, "J": 1, "orbits": [{"T": 0.5, "address": {"period": [0]}}]}
        grid = to_json(serialize.spec_from_json(spec_obj).straight[:, :2])
        path = _write(tmp_path, "run.json", {"config": {"spec": spec_obj}, "grid": grid})
        assert run(["diag", "invariant-set", "--run", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "rayforge: grid 0 is not 1x7, the shape its spec needs\n"


# classify-mix specs (seed 1 job 229; seed 7919 jobs 124, 211 and 250) whose
# converged maps send one singular value to an iterate in the fuzz between two
# strips: the strip read is ambiguous, so the certificate fails at that orbit.
AMBIGUOUS_READ_SPECS = [
    ((1.2401532110404452, [0]), (1.3297366319869068, [-1, -1])),
    ((0.9492931057127437, [0, -1]), (2.4069747135768145, [-1])),
    ((1.6605896289037676, [1, 1]), (1.2903920989418753, [-1, 1])),
    ((1.3311809671796175, [1, 0]), (1.1121698238087603, [-1, 1])),
]


@pytest.mark.parametrize("orbits", AMBIGUOUS_READ_SPECS)
def test_ambiguous_strip_read_fails_the_certificate(orbits, tmp_path, capsys):
    spec = _write(tmp_path, "spec.json", {
        "d": 2, "J": 2,
        "orbits": [{"T": t, "address": {"period": p}} for t, p in orbits],
    })
    out = tmp_path / "result.json"
    assert run(["classify", "--spec", spec, "--out", str(out)]) == 3
    assert capsys.readouterr().err == ""
    cert = json.loads(out.read_text())["certificate"]
    assert cert["passed"] is False
    failed = [c for c in cert["orbits"] if not c["escaped"]]
    assert len(failed) == 1
    # the orbit that did not escape has no potential or residual: null
    assert all(failed[0][key] is None for key in ("potential", "potential_error", "residual"))
    assert set(failed[0]["singular_value"]) == {"im", "re"}
    assert any("has no readable strip" in note and "ambiguous" in note for note in cert["notes"])


# Specs of degree above 2 that validate_spec accepts.  perfbench's
# classify-mix redraws a spec until validate_spec passes, so the degree rule
# must not live there.
HIGH_DEGREE_SPECS = {
    "d=3-m=2": thurston.TargetSpec(3, ((1.6, presets.ZERO), (1.8, presets.ALTERNATE))),
    "d=3-m=3": thurston.TargetSpec(
        3, ((1.6, presets.ZERO), (1.8, presets.ALTERNATE), (2.0, presets.ONE))
    ),
    "d=4": thurston.TargetSpec(
        4, ((1.6, presets.ZERO), (1.8, presets.ALTERNATE), (2.0, presets.ONE))
    ),
    "d=5": thurston.TargetSpec(5, ((1.6, presets.ZERO), (1.8, presets.ONE))),
}


class TestDegreeRejection:
    """classify solves d = 1 and 2 and rejects higher degrees with exit 4."""

    @pytest.mark.parametrize("name", sorted(HIGH_DEGREE_SPECS))
    def test_classify_exit_4(self, name, tmp_path, capsys):
        spec = HIGH_DEGREE_SPECS[name]
        thurston.validate_spec(spec)
        path = _write(tmp_path, "spec.json", serialize.spec_to_json(spec))
        out = tmp_path / "result.json"
        assert run(["classify", "--spec", path, "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.err == ""
        assert not out.exists()
        error = json.loads(captured.out)["error"]
        assert error == {
            "kind": "SpecRejectionError",
            "message": f"classify solves degrees 1 and 2; there is no fitter for degree {spec.d}",
        }

    def test_invalid_spec_keeps_its_reason(self, tmp_path, capsys):
        spec = thurston.TargetSpec(3, ((1.6, presets.ZERO), (1.6, presets.ZERO)))
        with pytest.raises(errors.SpecRejectionError) as want:
            thurston.validate_spec(spec)
        path = _write(tmp_path, "spec.json", serialize.spec_to_json(spec))
        assert run(["classify", "--spec", path]) == 4
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == {"kind": "SpecRejectionError", "message": str(want.value)}

    @pytest.mark.parametrize("command", ["classify", "diag invariant-set"])
    def test_degree_beyond_tract_certificate_exit_4(self, command, tmp_path, capsys):
        # d = 10**400 used to exit 1: d * t overflowed a float in its speed tower
        d = 10**400
        spec = {"d": d, "orbits": [{"T": 1.0, "address": {"period": [0]}}]}
        if command == "classify":
            argv = ["classify", "--spec", _write(tmp_path, "spec.json", spec)]
        else:
            run_obj = {"config": {"spec": spec}, "grid": [[{"re": 1.0, "im": 0.0}]]}
            argv = ["diag", "invariant-set", "--run", _write(tmp_path, "run.json", run_obj)]
        assert run(argv) == 4
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["error"] == {
            "kind": "SpecRejectionError",
            "message": f"the tract certificate needs d <= config.MAX_DEGREE = 170, got d = {d}",
        }

    @pytest.mark.parametrize("name", sorted(HIGH_DEGREE_SPECS))
    def test_invariant_set_serves_straight_grid(self, name, tmp_path, capsys):
        spec = HIGH_DEGREE_SPECS[name]
        grid = to_json(spec.straight.tolist())
        run_obj = {"config": {"spec": serialize.spec_to_json(spec)}, "grid": grid}
        argv = ["diag", "invariant-set", "--run", _write(tmp_path, "run.json", run_obj)]
        assert run(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert len(json.loads(captured.out)["iterations"]) == 1


class TestDiag:
    def test_appendix_report(self, workdir, capsys):
        code = run(
            ["diag", "appendix-a", "--d", "2", "--rho", "100",
             "--samples", "20", "--seed", "7"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["containment_failures"] == 0
        assert payload["max_critical_point_ratio"] > 0

    @pytest.mark.parametrize("d,rho", [("2", "1e62"), ("3", "1e45"), ("20", "1e10")])
    def test_appendix_report_beyond_float_range(self, d, rho, capsys):
        # rho^(2d+1) leaves the float range; the containment check used to
        # raise OverflowError computing it (exit 1 with a traceback)
        code = run(["diag", "appendix-a", "--d", d, "--rho", rho, "--samples", "5"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        payload = json.loads(captured.out)
        assert set(payload) == PAYLOAD_KEYS["diag appendix-a"]
        assert payload["containment_maps"] == 5

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("d", ["2", "3", "4"])
    @pytest.mark.parametrize("rho", ["1e306", "1e307", "1e308"])
    def test_appendix_report_near_float_max(self, d, rho, capsys):
        # Rescaling a sample toward rho used to overflow a^(k-d) on its zero
        # b_0 (exit 1 with an OverflowError traceback).  The report is
        # scale-free: it equals the rho = 1e2 report up to rounding.
        code = run(["diag", "appendix-a", "--d", d, "--rho", rho, "--samples", "200"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        payload = json.loads(captured.out)
        assert set(payload) == PAYLOAD_KEYS["diag appendix-a"]
        assert payload["containment_failures"] == 0
        assert run(["diag", "appendix-a", "--d", d, "--rho", "1e2", "--samples", "200"]) == 0
        near = json.loads(capsys.readouterr().out)
        for key in ("containment_maps", "containment_failures",
                    "containment_inconclusive", "containment_proven"):
            assert payload[key] == near[key], key
        assert payload["worst_case"]["sample_index"] == near["worst_case"]["sample_index"]
        for key in ("max_critical_point_ratio", "max_coefficient_ratio"):
            assert payload[key] == pytest.approx(near[key], rel=1e-12), key

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "d,rho", [("2", "1.7e308"), ("3", "1.7e308"), ("2", "1e-310"), ("3", "1e-310")]
    )
    def test_appendix_report_past_float_max_signals_overflow(self, d, rho, capsys):
        # Singular values past the largest double, or targets below the
        # smallest normal one (which used to report a ratio of 0.0): exit 3
        # with a payload, never an OverflowError traceback or a numpy warning.
        code = run(["diag", "appendix-a", "--d", d, "--rho", rho, "--samples", "200"])
        captured = capsys.readouterr()
        error = json.loads(captured.out)["error"]
        assert code == 3
        assert captured.err == ""
        assert error["kind"] == "OverflowSignal"
        assert "left the float range" in error["message"]

    def test_invariant_set_from_run(self, workdir, capsys):
        out = str(workdir["dir"] / "logged.json")
        assert run(
            ["classify", "--spec", workdir["spec1"], "--out", out, "--log-iterates"]
        ) == 0
        code = run(["diag", "invariant-set", "--run", out])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["iterations"]) > 3
        assert all(row["inside_disk_margin"] > 0 for row in payload["iterations"])

    def test_invariant_set_builds_ladder_once(self, tmp_path, monkeypatch, capsys):
        # The ladder and the straight grid depend on the spec alone, so a run
        # file with one grid per iteration builds them no more often than one
        # with 1 grid.
        spec = _write(tmp_path, "spec2.json", serialize.spec_to_json(presets.SPEC_D2))
        logged, plain = str(tmp_path / "logged.json"), str(tmp_path / "plain.json")
        assert run(["classify", "--spec", spec, "--out", logged, "--log-iterates"]) == 0
        assert run(["classify", "--spec", spec, "--out", plain]) == 0
        capsys.readouterr()
        calls = []

        def counted(fn):
            def wrapper(*args):
                calls.append(fn.__name__)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(potentials, "build_ladder", counted(potentials.build_ladder))
        monkeypatch.setattr(potentials, "straight_point", counted(potentials.straight_point))
        assert run(["diag", "invariant-set", "--run", plain]) == 0
        assert len(json.loads(capsys.readouterr().out)["iterations"]) == 1
        one_grid = calls.count("straight_point")
        calls.clear()
        assert run(["diag", "invariant-set", "--run", logged]) == 0
        rows = json.loads(capsys.readouterr().out)["iterations"]
        with open(logged, encoding="utf-8") as fh:
            assert len(rows) == json.load(fh)["iterations"] + 1
        assert calls.count("build_ladder") == 1
        assert calls.count("straight_point") <= one_grid


class TestHomotopyAndTracts:
    def test_word_command(self, workdir, capsys):
        code = run(
            ["homotopy", "word", "--marked", workdir["marked"],
             "--curve", workdir["curve"]]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["word"] == [[1, 1]]

    def test_tracts_inspect(self, workdir, capsys):
        code = run(["tracts", "inspect", "--map", workdir["map"]])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["r"] == 2.0

    def test_tracts_inspect_sixth_radius(self, tmp_path, capsys):
        # p = w^4 + 10w^3 + 20w^2 is proven at its sixth radius, which a
        # five-radius budget used to refuse with exit 3.
        map_ = PolyExpMap(4, [0, 0, 20, 10])
        path = _write(tmp_path, "m.json", to_json(map_))
        assert run(["tracts", "inspect", "--map", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        cfg = tracts.make_tract_config(map_)
        assert payload == {"schema": serialize.SCHEMA, "config": {"command": "tracts inspect"},
                           **to_json(cfg)}
        assert payload["r"] == 9485.467536394055

    def test_tracts_inspect_overflowing_map_exit_3(self, workdir, tmp_path, capsys):
        # its critical value overflows; the strip bounds used to come out
        # inf and crash the JSON writer
        path = tmp_path / "big.json"
        path.write_text(serialize.dumps(to_json(PolyExpMap(2, [0, 1e200]))))
        code = run(["tracts", "inspect", "--map", str(path)])
        assert code == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["kind"] == "OverflowSignal"

    @pytest.mark.parametrize("command", ["tracts inspect", "ray trace"])
    def test_singular_values_too_far_apart_exit_3(self, command, workdir, tmp_path, capsys):
        # p = w^3 - 3a^2 w has the finite critical values -+2a^3 near
        # 0.8e308 (1+i), whose difference overflows, and so does the first
        # radius 2 max|v| + 2: no radius within the float range proves the
        # strips, and that is an overflow signal, not a bare OverflowError.
        # The message names the modulus |2a^3| = 0.8e308 sqrt(2), not r = inf
        a = (0.4e308 * (1 + 1j)) ** (1 / 3)
        path = tmp_path / "far.json"
        path.write_text(serialize.dumps(to_json(PolyExpMap(3, [0, -3 * a * a, 0]))))
        argv = ["--map", str(path)]
        if command == "ray trace":
            argv += ["--address", workdir["zero"], "--t-lo", "1", "--t-hi", "2", "--samples", "2"]
        code = run(command.split() + argv)
        assert code == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["kind"] == "OverflowSignal"
        assert payload["error"]["message"] == (
            "no radius within the float range proves the strips: the largest singular-value "
            "modulus is 1.13137e+308, so the first radius 2*max|v| + 2 overflows"
        )

    @pytest.mark.parametrize("command", ["tracts inspect", "ray trace"])
    def test_coefficient_modulus_overflow_exit_3(self, command, workdir, tmp_path, capsys):
        # both parts of b_0 are finite but |b_0| is not; Python's abs of it
        # used to escape as a bare OverflowError (exit 1)
        path = _write(tmp_path, "huge.json", {"d": 1, "coeffs": [{"re": 1.7e308, "im": 1.7e308}]})
        argv = ["--map", path]
        if command == "ray trace":
            argv += ["--address", workdir["zero"], "--t-lo", "1", "--t-hi", "2", "--samples", "2"]
        code = run(command.split() + argv)
        assert code == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == {
            "kind": "OverflowSignal",
            "message": "a coefficient's modulus leaves the float range",
        }


# Exit code of each error class raised out of a subcommand handler.
EXIT_CODES = {
    "RayforgeError": 2,
    "DomainError": 2,
    "DegenerateCurveError": 2,
    "OverflowSignal": 3,
    "RootSolveError": 3,
    "BranchSelectionError": 3,
    "NotConvergedError": 3,
    "NotEscapingError": 3,
    "SpecRejectionError": 4,
    "InvariantViolationError": 4,
    "UnsupportedHomotopyError": 4,
}


# A valid, quick invocation of each command that takes numeric options.
BASE_ARGV = {
    "ray trace": ["ray", "trace", "--map", "{map}", "--address", "{zero}",
                  "--t-lo", "1", "--t-hi", "5", "--samples", "4"],
    "classify": ["classify", "--spec", "{spec1}"],
    "diag appendix-a": ["diag", "appendix-a", "--d", "2", "--rho", "50", "--samples", "4"],
    "tracts inspect": ["tracts", "inspect", "--map", "{map}"],
}


class TestNumericOptions:
    """Out-of-range numeric values are usage errors, caught as they are parsed."""

    CASES = [
        # (command, option, value); each comment says what the value used to do
        ("ray trace", "--samples", "0"),  # exit 2, but from the library
        ("ray trace", "--t-hi", "inf"),  # exit 0 with an inf sample
        ("classify", "--max-iter", "0"),  # IndexError
        ("classify", "--tol", "nan"),  # 50 iterations, then exit 3
        ("classify", "--tol", "-1"),  # 50 iterations, then exit 3
        ("diag appendix-a", "--samples", "0"),  # argmax of an empty sequence
        ("diag appendix-a", "--rho", "nan"),  # LinAlgError
        ("diag appendix-a", "--rho", "inf"),  # ZeroDivisionError
        ("diag appendix-a", "--seed", "-1"),  # ValueError in the RNG seeding
        ("diag appendix-a", "--d", "1"),  # exit 2 from the library, naming no option
        # both: ValueError: Maximum allowed dimension exceeded, from the uniform block
        ("diag appendix-a", "--d", "99999999999999999999"),
        ("diag appendix-a", "--samples", "99999999999999999999"),
        # more samples than config.MAX_TRACE_LEVELS, which no depth fits
        ("ray trace", "--samples", "100000000"),
    ]

    @pytest.mark.parametrize(
        "command,option,value", CASES,
        ids=[f"{c.split()[-1]}{o}={v}" for c, o, v in CASES],
    )
    def test_bad_value_exit_2(self, command, option, value, workdir, capsys):
        argv = [a.format(**workdir) for a in BASE_ARGV[command]]
        code = run(argv + [option, value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"argument {option}: expected" in captured.err
        assert repr(value) in captured.err

    def test_appendix_caps(self, capsys):
        # A samples x 4d block above MAX_UNIFORMS is refused before any
        # draw, and so is a degree the shared rounding factor does not cover.
        base = ["diag", "appendix-a", "--rho", "50"]
        over = cli.MAX_UNIFORMS // 12 + 1
        assert run(base + ["--d", "3", "--samples", str(over)]) == 2
        assert f"--samples: expected at most {over - 1} at d=3" in capsys.readouterr().err
        assert run(base + ["--d", str(cli.config.MAX_DEGREE + 1), "--samples", "1"]) == 2
        assert "--d: expected an integer in [2, 170]" in capsys.readouterr().err

    def test_trace_work_cap(self, workdir, monkeypatch, capsys):
        # samples x (depth + 1) pull levels at t_lo's depth, the segment's
        # deepest, up to config.MAX_TRACE_LEVELS trace; past it the tracer
        # exits 2 naming t_lo and the limit, before it builds the sample
        # list or any chain but t_lo's.
        real_chain = potentials.chain
        starts = []
        monkeypatch.setattr(
            potentials, "chain", lambda d, t, **kw: starts.append(t) or real_chain(d, t, **kw)
        )
        base = ["ray", "trace", "--map", workdir["map"], "--address", workdir["zero"]]

        def refused(t_lo, t_hi, samples, levels):
            starts.clear()
            assert run(base + ["--t-lo", t_lo, "--t-hi", t_hi, "--samples", samples]) == 2
            assert capsys.readouterr().err == (
                f"rayforge: {samples} samples x at least {levels} pull levels at "
                f"t_lo={float(t_lo)!r} pass the trace work bound config.MAX_TRACE_LEVELS "
                f"= {config.MAX_TRACE_LEVELS}\n"
            )
            assert starts == [float(t_lo)]

        # step(1, 1e-300) rounds to 1e-300: the stalled tower fills the bound.
        refused("1e-300", "2e-300", "64", config.MAX_TRACE_LEVELS // 64 + 1)
        refused("1", "2", str(config.MAX_TRACE_LEVELS), 2)
        levels = len(real_chain(1, 1.0))
        monkeypatch.setattr(config, "MAX_TRACE_LEVELS", 8 * levels)
        assert run(base + ["--t-lo", "1", "--t-hi", "2", "--samples", "8", "--out", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["samples"][0]["depth"] == levels - 1
        refused("1", "2", "9", levels)


    @pytest.mark.parametrize("command", ["tracts inspect", "ray trace"])
    def test_tract_certificate_degree_cap(self, command, workdir, tmp_path, capsys):
        # The tract certificate's rounding factor covers d <= MAX_DEGREE
        # only, so a map of higher degree is a usage error, not a certificate.
        d = cli.config.MAX_DEGREE + 1
        map_path = _write(tmp_path, "m.json", to_json(PolyExpMap(d, [0.01] * d)))
        argv = command.split() + ["--map", map_path]
        if command == "ray trace":
            argv += ["--address", workdir["zero"], "--t-lo", "1", "--t-hi", "2", "--samples", "2"]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "rayforge: tract certificate needs d <= config.MAX_DEGREE = 170, got d = 171\n"
        )


def _write(tmp_path, name, obj) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


MAP2 = to_json(PolyExpMap(2, [0.1, 0.1j]))
SPEC1 = serialize.spec_to_json(presets.SPEC_D1)


class TestMalformedInput:
    """Malformed or non-integral numbers in input files are usage errors."""

    def _trace(self, workdir, tmp_path, map_obj) -> int:
        return run(
            ["ray", "trace", "--map", _write(tmp_path, "m.json", map_obj),
             "--address", workdir["zero"], "--t-lo", "1", "--t-hi", "2", "--samples", "2"]
        )

    def _classify(self, tmp_path, spec_obj) -> int:
        return run(["classify", "--spec", _write(tmp_path, "s.json", spec_obj)])

    @pytest.mark.parametrize(
        "map_obj",
        [
            MAP2 | {"coeffs": [{"re": "abc", "im": 0.0}, MAP2["coeffs"][1]]},  # exit 1
            MAP2 | {"d": "x"},  # exit 1
            MAP2 | {"d": 2.5},  # traced as d=2
        ],
        ids=["re-abc", "d-x", "d-2.5"],
    )
    def test_ray_trace_map_exit_2(self, map_obj, workdir, tmp_path, capsys):
        assert self._trace(workdir, tmp_path, map_obj) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("rayforge: ")

    @pytest.mark.parametrize(
        "spec_obj",
        [
            SPEC1 | {"d": "x"},  # exit 1
            SPEC1 | {"orbits": [SPEC1["orbits"][0] | {"T": "fast"}]},  # exit 1
            SPEC1 | {"d": 1.7},  # classified at d=1
            SPEC1 | {"J": 2.9},  # classified at J=2
            # solved as d = 1, J = 1 and address (0)
            {"d": True, "J": True, "orbits": [{"T": 2.0, "address": {"period": [False]}}]},
            SPEC1 | {"d": True},  # classified at d=1
            SPEC1 | {"orbits": [SPEC1["orbits"][0] | {"T": "2.0"}]},  # read as 2.0
        ],
        ids=["d-x", "T-fast", "d-1.7", "J-2.9", "bools", "d-true", "T-string"],
    )
    def test_classify_spec_exit_2(self, spec_obj, tmp_path, capsys):
        assert self._classify(tmp_path, spec_obj) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("rayforge: ")

    @pytest.mark.parametrize(
        "coeff,message",
        [
            ({"re": "1e3", "im": "0"}, "re must be a JSON number, got '1e3'"),  # read as 1000
            ({"re": 1.0, "im": True}, "im must be a JSON number, got True"),  # read as 1j
        ],
        ids=["re-string", "im-true"],
    )
    def test_tracts_inspect_non_number_exit_2(self, coeff, message, tmp_path, capsys):
        path = _write(tmp_path, "m.json", {"d": 1, "coeffs": [coeff]})
        assert run(["tracts", "inspect", "--map", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"rayforge: {message}\n"

    @pytest.mark.parametrize(
        "address",
        [
            {"period": [2**64]},  # exit 1, numpy could not round the entry
            {"period": [-(2**63) - 1]},  # exit 1
            {"period": [10**400]},  # exit 1, the entry overflowed a float
            {"preperiod": [10**400], "period": [0]},  # exit 1
        ],
        ids=["2^64", "-2^63-1", "10^400", "preperiod-10^400"],
    )
    @pytest.mark.parametrize("command", ["ray trace", "classify"])
    def test_address_entry_beyond_int64_exit_2(
        self, command, address, workdir, tmp_path, capsys
    ):
        if command == "ray trace":
            code = run(
                ["ray", "trace", "--map", workdir["map"],
                 "--address", _write(tmp_path, "a.json", address),
                 "--t-lo", "1", "--t-hi", "2", "--samples", "2"]
            )
        else:
            orbit = SPEC1["orbits"][0] | {"address": address}
            code = self._classify(tmp_path, SPEC1 | {"orbits": [orbit]})
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "is outside the signed 64-bit range" in captured.err

    def test_address_entry_at_int64_bound_is_read(self, workdir, tmp_path, capsys):
        # 2^63 - 1 fits the pull chains' arrays: the trace itself fails
        address = _write(tmp_path, "a.json", {"period": [2**63 - 1]})
        code = run(
            ["ray", "trace", "--map", workdir["map"], "--address", address,
             "--t-lo", "1", "--t-hi", "2", "--samples", "2"]
        )
        assert code == 3
        assert "64-bit" not in capsys.readouterr().err

    def test_integral_floats_pass(self, workdir, tmp_path, capsys):
        assert self._trace(workdir, tmp_path, MAP2) == 0
        want = capsys.readouterr().out
        assert self._trace(workdir, tmp_path, MAP2 | {"d": 2.0}) == 0
        assert capsys.readouterr().out == want
        assert self._classify(tmp_path, SPEC1) == 0
        want = capsys.readouterr().out
        assert self._classify(tmp_path, SPEC1 | {"d": 1.0, "J": 3.0}) == 0
        assert capsys.readouterr().out == want


class TestNonFiniteInput:
    """NaN, infinities and literals beyond the float range, which Python's
    json reads as floats, are refused with exit 2 by every command that
    reads a file, naming the field."""

    NAN_MAP = '{"d": 2, "coeffs": [{"re": NaN, "im": 0}, {"re": 0.1, "im": 0}]}'

    @staticmethod
    def _file(tmp_path, name, text) -> str:
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def _check(self, argv, field, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"rayforge: {field} must be a finite number, got ")

    def test_ray_trace(self, workdir, tmp_path, capsys):
        argv = ["ray", "trace", "--map", self._file(tmp_path, "m.json", self.NAN_MAP),
                "--address", workdir["zero"], "--t-lo", "1", "--t-hi", "2", "--samples", "2"]
        self._check(argv, "re", capsys)

    @pytest.mark.parametrize("t", ["NaN", "Infinity", "1e400"])
    def test_classify(self, t, tmp_path, capsys):
        text = '{"d": 1, "J": 3, "orbits": [{"T": %s, "address": {"period": [0]}}]}' % t
        argv = ["classify", "--spec", self._file(tmp_path, "s.json", text)]
        self._check(argv, "orbit potential T", capsys)

    def test_invariant_set(self, tmp_path, capsys):
        grid = to_json(presets.SPEC_D1.straight)
        grid[0][1] = {"re": 1e400, "im": 0.0}
        run_obj = {"config": {"spec": serialize.spec_to_json(presets.SPEC_D1)}, "grid": grid}
        text = json.dumps(run_obj)  # writes 1e400 as Infinity
        argv = ["diag", "invariant-set", "--run", self._file(tmp_path, "run.json", text)]
        self._check(argv, "re", capsys)

    def test_homotopy_word(self, workdir, tmp_path, capsys):
        text = '{"vertices": [{"re": 0.0, "im": 0.0}, {"re": 2.0, "im": -Infinity}]}'
        argv = ["homotopy", "word", "--marked", workdir["marked"],
                "--curve", self._file(tmp_path, "c.json", text)]
        self._check(argv, "im", capsys)

    def test_tracts_inspect(self, tmp_path, capsys):
        argv = ["tracts", "inspect", "--map", self._file(tmp_path, "m.json", self.NAN_MAP)]
        self._check(argv, "re", capsys)


class TestInvariantSetInput:
    """diag invariant-set reads only grids of the shape its spec needs."""

    def _run(self, tmp_path, spec, **fields) -> int:
        grid = to_json(spec.straight)
        run_obj = {"config": {"spec": serialize.spec_to_json(spec)}, "grid": grid}
        return run(["diag", "invariant-set", "--run",
                    _write(tmp_path, "run.json", run_obj | fields)])

    def test_straight_grid_passes(self, tmp_path, capsys):
        assert self._run(tmp_path, presets.SPEC_D2) == 0
        assert len(json.loads(capsys.readouterr().out)["iterations"]) == 1

    @pytest.mark.parametrize(
        "spec,fields",
        [
            (presets.SPEC_D1, {"grid": [[{"im": 0.0}] * 4]}),  # KeyError
            (presets.SPEC_D1, {"grid": [[{"re": "abc", "im": 0.0}] * 4]}),  # ValueError
            (presets.SPEC_D1, {"grid": []}),  # ValueError
            (presets.SPEC_D2, {"grid": [[{"re": 2.0, "im": 0.0}] * 3,
                                        [{"re": 2.5, "im": 3.1}] * 2]}),  # ValueError
            (presets.SPEC_D1, {"grid": [[{"re": 2.0, "im": 0.0}]]}),  # exit 0
            (presets.SPEC_D1, {"iterates": [[[{"re": 2.0, "im": 0.0}] * 4], []]}),  # ValueError
            (presets.SPEC_D1, {"iterates": []}),  # exit 0, no rows
        ],
        ids=["no-re", "re-abc", "empty", "ragged", "1x1-for-1x4", "second-iterate",
             "no-iterates"],
    )
    def test_bad_grid_exit_2(self, spec, fields, tmp_path, capsys):
        assert self._run(tmp_path, spec, **fields) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("rayforge: ")

    @pytest.mark.parametrize(
        "spec",
        [
            thurston.TargetSpec(1, ((2.0, presets.ZERO),), 0),
            thurston.TargetSpec(
                2, ((1.0, presets.ZERO), (1.2, presets.ONE), (1.4, presets.MIXED)), 2
            ),
            thurston.TargetSpec(1, ((800.0, presets.ZERO),), 1),
        ],
        ids=["J=0", "3-orbits-d=2", "T=800-J=1"],
    )
    def test_rejected_spec_exit_4(self, spec, tmp_path, capsys):
        # diag invariant-set rejects the specs that validate_spec rejects.
        # spec_to_json echoes J*, so a given J is written as it was given.
        with pytest.raises(errors.SpecRejectionError) as want:
            thurston.validate_spec(spec)
        spec_obj = serialize.spec_to_json(spec) | {"J": spec.J}
        grid = to_json(spec.straight)
        run_obj = {"config": {"spec": spec_obj}, "grid": grid}
        assert run(["diag", "invariant-set", "--run", _write(tmp_path, "run.json", run_obj)]) == 4
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == {"kind": "SpecRejectionError", "message": str(want.value)}


def _c(re, im=0.0) -> dict:
    return {"re": float(re), "im": float(im)}


class TestRefusals:
    """Each input refusal that no other test reaches: its exit code, and its
    message on stderr (exit 2) or in the error payload (exit 4)."""

    @pytest.mark.parametrize(
        "orbits,message",
        [
            ([{"T": 0.0, "address": {"period": [0]}}], "orbit 0 potential must be > 0, got 0.0"),
            ([{"T": -1.0, "address": {"period": [0]}}], "orbit 0 potential must be > 0, got -1.0"),
            ([], "need at least one singular orbit"),
        ],
        ids=["T=0", "T=-1", "no-orbits"],
    )
    def test_classify_exit_4(self, orbits, message, tmp_path, capsys):
        spec = _write(tmp_path, "s.json", {"d": 1, "orbits": orbits})
        assert run(["classify", "--spec", spec]) == 4
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == {"kind": "SpecRejectionError", "message": message}

    MARKED = {"points": [_c(0), _c(3)]}
    CURVE = {"vertices": [_c(0), _c(2, 1), _c(5, 1)]}

    @pytest.mark.parametrize(
        "marked,curve,message",
        [
            ({"points": [_c(0), _c(0)]}, CURVE, "marked points 0 and 1 coincide"),
            (MARKED, {"vertices": []}, "curve needs at least its starting vertex"),
            ({"points": [_c(0), _c(2)]}, {"vertices": [_c(2), _c(2, 3)]},
             "segment slides along the cut ray of point 1"),
            ({"points": [_c(0), _c(2, 1)]}, {"vertices": [_c(0), _c(1, 1)]},
             "exit line hits marked point 1"),
            ({"pts": []}, CURVE, "bad marked-set object: {'pts': []}"),
            (MARKED, {"v": []}, "bad curve object: {'v': []}"),
        ],
        ids=["coincide", "no-vertex", "along-cut", "hits-point", "no-points-key",
             "no-vertices-key"],
    )
    def test_homotopy_word_exit_2(self, marked, curve, message, tmp_path, capsys):
        argv = ["homotopy", "word", "--marked", _write(tmp_path, "m.json", marked),
                "--curve", _write(tmp_path, "c.json", curve)]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"rayforge: {message}\n"

    def test_invariant_set_run_without_config_exit_2(self, tmp_path, capsys):
        grid = to_json(presets.SPEC_D1.straight)
        path = _write(tmp_path, "run.json", {"grid": grid})
        assert run(["diag", "invariant-set", "--run", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "rayforge: run file lacks spec/grid data: 'config'\n"

    def test_invariant_set_missing_run_exit_2(self, tmp_path, capsys):
        path = str(tmp_path / "missing.json")
        assert run(["diag", "invariant-set", "--run", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"rayforge: cannot read {path}: ")


# Keys of the config echo of each command.  Every key but "command" names one
# of the command's own options; "format" is the value of --out.
CONFIG_KEYS = {
    "ray trace": {"command", "t_lo", "t_hi", "samples", "format"},
    "classify": {"command", "tol", "max_iter", "spec"},
    "diag appendix-a": {"command", "d", "rho", "samples", "seed"},
    "diag invariant-set": {"command", "run"},
    "homotopy word": {"command"},
    "tracts inspect": {"command"},
}


# Keys of each command's JSON payload and of the records inside it.  Report
# keys are the field names of the library's records (NamedTuple or
# dataclass), so renaming a field changes the wire format; these sets pin it.
PAYLOAD_KEYS = {
    "ray trace": {"schema", "config", "samples"},
    "classify": {
        "schema", "config", "d", "coeffs", "grid", "delta_history", "iterations",
        "converged", "certificate",
    },
    "diag appendix-a": {
        "schema", "config", "max_critical_point_ratio", "max_coefficient_ratio",
        "containment_maps", "containment_failures", "containment_inconclusive",
        "containment_proven", "worst_case",
    },
    "diag invariant-set": {"schema", "config", "iterations"},
    "homotopy word": {"schema", "config", "word"},
    "tracts inspect": {
        "schema", "config", "d", "r", "r_min", "t_up", "t_lo", "eps",
    },
}
COMPLEX_KEYS = {"re", "im"}
SAMPLE_KEYS = {"t", "re", "im", "depth", "err"}
CERTIFICATE_KEYS = {"passed", "notes", "orbits"}
ORBIT_KEYS = {
    "orbit", "singular_value", "potential", "potential_error",
    "prefix_match_length", "prefix_length", "residual", "escaped",
}
INVARIANT_ROW_KEYS = {
    "iteration", "rho", "inside_disk_margin", "pullback_real_part_margin",
    "derivative_domain_margin",
}
WORST_CASE_KEYS = {"sample_index", "ratio"}


class TestWireSchema:
    """The exact keys of every JSON payload on shipped inputs."""

    def _payload(self, argv, capsys) -> dict:
        assert run(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == PAYLOAD_KEYS[payload["config"]["command"]]
        return payload

    def test_ray_trace(self, workdir, capsys):
        payload = self._payload(
            ["ray", "trace", "--map", workdir["map"], "--address", workdir["zero"],
             "--t-lo", "1", "--t-hi", "5", "--samples", "3", "--out", "json"],
            capsys,
        )
        assert all(set(s) == SAMPLE_KEYS for s in payload["samples"])

    @pytest.mark.parametrize("spec", ["SPEC_D1", "SPEC_D2"])
    @pytest.mark.parametrize("log_iterates", [False, True], ids=["plain", "logged"])
    def test_classify_and_invariant_set(self, spec, log_iterates, tmp_path, capsys):
        spec_obj = serialize.spec_to_json(getattr(presets, spec))
        spec_path = _write(tmp_path, "spec.json", spec_obj)
        out = str(tmp_path / "run.json")
        argv = ["classify", "--spec", spec_path, "--out", out]
        assert run(argv + ["--log-iterates"] * log_iterates) == 0
        payload = json.loads(open(out).read())
        logged = {"iterates"} if log_iterates else set()
        assert set(payload) == PAYLOAD_KEYS["classify"] | logged
        grids = payload.get("iterates", [payload["grid"]])
        points = [v for g in grids + [payload["grid"]] for row in g for v in row]
        points += payload["coeffs"]
        assert all(set(v) == COMPLEX_KEYS for v in points)
        cert = payload["certificate"]
        assert set(cert) == CERTIFICATE_KEYS
        assert all(set(o) == ORBIT_KEYS for o in cert["orbits"])
        assert all(set(o["singular_value"]) == COMPLEX_KEYS for o in cert["orbits"])

        rows = self._payload(["diag", "invariant-set", "--run", out], capsys)["iterations"]
        assert len(rows) == len(grids)
        assert all(set(row) == INVARIANT_ROW_KEYS for row in rows)

    def test_appendix_a(self, capsys):
        payload = self._payload(
            ["diag", "appendix-a", "--d", "2", "--rho", "50", "--samples", "4"], capsys
        )
        assert set(payload["worst_case"]) == WORST_CASE_KEYS

    def test_homotopy_word(self, workdir, capsys):
        payload = self._payload(
            ["homotopy", "word", "--marked", workdir["marked"],
             "--curve", workdir["curve"]],
            capsys,
        )
        assert payload["word"] == [[1, 1]]

    def test_tracts_inspect(self, workdir, capsys):
        self._payload(["tracts", "inspect", "--map", workdir["map"]], capsys)


class TestSurface:
    def test_exit_code_table_covers_every_error_class(self):
        classes = {
            name for name, obj in vars(errors).items()
            if isinstance(obj, type) and issubclass(obj, errors.RayforgeError)
        }
        assert classes == set(EXIT_CODES)

    @pytest.mark.parametrize("name", sorted(EXIT_CODES))
    def test_error_exit_code_and_stream(self, name, workdir, capsys, monkeypatch):
        cls = getattr(errors, name)
        exc = cls("boom")

        def raising(*args, **kwargs):
            raise exc

        monkeypatch.setattr(tracts, "make_tract_config", raising)
        code = run(["tracts", "inspect", "--map", workdir["map"]])
        captured = capsys.readouterr()
        assert code == EXIT_CODES[name]
        if code == 2:
            assert captured.out == ""
            assert captured.err == f"rayforge: {exc}\n"
        else:
            assert captured.err == ""
            payload = json.loads(captured.out)
            assert payload == {
                "schema": "rayforge/1",
                "error": {"kind": name, "message": str(exc)},
            }

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--spec", "{spec1}", "--seed", "1"],
            ["diag", "appendix-a", "--d", "2", "--rho", "50", "--threads", "2"],
            # the float-range limit is fixed at config.CAP
            BASE_ARGV["ray trace"] + ["--cap", "1"],
            BASE_ARGV["classify"] + ["--cap", "1"],
        ],
        ids=["classify-seed", "appendix-threads", "trace-cap", "classify-cap"],
    )
    def test_removed_flags_exit_2(self, argv, workdir, capsys):
        argv = [a.format(**workdir) for a in argv]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err

    def test_config_echo(self, workdir, capsys):
        commands = [
            ["ray", "trace", "--map", workdir["map"], "--address", workdir["zero"],
             "--t-lo", "1", "--t-hi", "5", "--samples", "2", "--out", "json"],
            ["classify", "--spec", workdir["spec1"]],
            ["diag", "appendix-a", "--d", "2", "--rho", "50", "--samples", "4",
             "--seed", "5"],
            ["homotopy", "word", "--marked", workdir["marked"],
             "--curve", workdir["curve"]],
            ["tracts", "inspect", "--map", workdir["map"]],
        ]
        result = str(workdir["dir"] / "run.json")
        assert run(["classify", "--spec", workdir["spec1"], "--out", result]) == 0
        commands.append(["diag", "invariant-set", "--run", result])
        for argv in commands:
            assert run(argv) == 0
            payload = json.loads(capsys.readouterr().out)
            config = payload["config"]
            assert set(config) == CONFIG_KEYS[config["command"]]
            if argv[0] == "diag" and argv[1] == "appendix-a":
                assert config["seed"] == 5
                assert payload["containment_inconclusive"] == 0

    @pytest.mark.parametrize("command", sorted(CONFIG_KEYS))
    def test_config_keys_are_own_options(self, command, capsys):
        assert run(command.split() + ["--help"]) == 0
        usage = capsys.readouterr().out
        for key in CONFIG_KEYS[command] - {"command"}:
            option = "out" if key == "format" else key
            assert f"--{option.replace('_', '-')} " in usage


# One call of every report, with the flag that names its output file.
REPORT_CASES = {
    "ray trace csv": (BASE_ARGV["ray trace"], "--output"),
    "ray trace json": (BASE_ARGV["ray trace"] + ["--out", "json"], "--output"),
    "classify": (BASE_ARGV["classify"] + ["--log-iterates"], "--output"),
    "diag appendix-a": (BASE_ARGV["diag appendix-a"], "--output"),
    "diag invariant-set": (["diag", "invariant-set", "--run", "{run}"], "--output"),
    "homotopy word": (["homotopy", "word", "--marked", "{marked}", "--curve", "{curve}"],
                      "--output"),
    "tracts inspect": (BASE_ARGV["tracts inspect"], "--output"),
}


class TestOutputPath:
    """Every report goes through one writer: a file gets the stdout bytes,
    ``-`` means stdout, and an unwritable path is a usage error."""

    @pytest.fixture
    def paths(self, workdir, tmp_path):
        run_path = str(tmp_path / "run.json")
        assert run(["classify", "--spec", workdir["spec1"], "--out", run_path]) == 0
        return {**workdir, "run": run_path}

    @pytest.mark.parametrize("case", sorted(REPORT_CASES))
    def test_file_equals_stdout(self, case, paths, tmp_path, capsys):
        argv, flag = REPORT_CASES[case]
        argv = [a.format(**paths) for a in argv]
        capsys.readouterr()
        assert run(argv) == 0
        stdout = capsys.readouterr().out.encode()
        assert run(argv + [flag, "-"]) == 0
        assert capsys.readouterr().out.encode() == stdout
        out = tmp_path / "report.out"
        assert run(argv + [flag, str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == stdout

    def test_classify_out_is_a_second_spelling_of_output(self, workdir, tmp_path):
        argv = ["classify", "--spec", workdir["spec1"], "--log-iterates"]
        long, short = tmp_path / "output.json", tmp_path / "out.json"
        assert run(argv + ["--output", str(long)]) == 0
        assert run(argv + ["--out", str(short)]) == 0
        assert long.read_bytes() == short.read_bytes() != b""

    @pytest.mark.parametrize("case", sorted(REPORT_CASES))
    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_output_exit_2(self, case, where, paths, tmp_path, capsys):
        argv, flag = REPORT_CASES[case]
        target = str(tmp_path / "absent" / "x.json") if where == "missing-dir" else str(tmp_path)
        capsys.readouterr()
        code = run([a.format(**paths) for a in argv] + [flag, target])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"rayforge: cannot write {target}: ")
        assert captured.err.count("\n") == 1


class TestDeterminism:
    def test_every_command_byte_identical(self, workdir, tmp_path):
        cases = [
            (
                ["ray", "trace", "--map", workdir["map"], "--address",
                 workdir["zero"], "--t-lo", "1", "--t-hi", "5",
                 "--samples", "8", "--out", "json"],
                "--output",
            ),
            (
                ["classify", "--spec", workdir["spec1"], "--log-iterates"],
                "--output",
            ),
            (
                ["diag", "appendix-a", "--d", "2", "--rho", "100",
                 "--samples", "10", "--seed", "3"],
                "--output",
            ),
            (
                ["homotopy", "word", "--marked", workdir["marked"],
                 "--curve", workdir["curve"]],
                "--output",
            ),
            (
                ["tracts", "inspect", "--map", workdir["map"]],
                "--output",
            ),
        ]
        for k, (argv, out_flag) in enumerate(cases):
            a = tmp_path / f"a{k}.json"
            b = tmp_path / f"b{k}.json"
            assert run(argv + [out_flag, str(a)]) == 0
            assert run(argv + [out_flag, str(b)]) == 0
            assert a.read_bytes() == b.read_bytes()

    def test_invariant_set_deterministic(self, workdir, tmp_path):
        result = tmp_path / "run.json"
        assert run(
            ["classify", "--spec", workdir["spec1"], "--out", str(result),
             "--log-iterates"]
        ) == 0
        a = tmp_path / "inv_a.json"
        b = tmp_path / "inv_b.json"
        assert run(["diag", "invariant-set", "--run", str(result), "--output", str(a)]) == 0
        assert run(["diag", "invariant-set", "--run", str(result), "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestCertificateCount:
    """classify certifies the map of every pullback step and the map that
    verify checks, one certificate each; diag invariant-set makes none."""

    SPECS = [presets.SPEC_D1, presets.SPEC_D2] + seeded_specs(14, 18)

    def test_one_certificate_per_step_and_verify(self, tmp_path, capsys, monkeypatch):
        counts = {"builds": 0, "steps": 0, "verify": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(tracts, "make_tract_config", counted("builds", tracts.make_tract_config))
        monkeypatch.setattr(thurston, "pullback_step", counted("steps", thurston.pullback_step))
        monkeypatch.setattr(thurston, "verify", counted("verify", thurston.verify))
        run_path, inv_path = tmp_path / "run.json", tmp_path / "inv.json"
        codes = []
        for spec in self.SPECS:
            spec_path = _write(tmp_path, "spec.json", serialize.spec_to_json(spec))
            codes.append(run(["classify", "--spec", spec_path, "--out", str(run_path)]))
            if codes[-1] == 0:
                assert run(["diag", "invariant-set", "--run", str(run_path), "--output", str(inv_path)]) == 0
        capsys.readouterr()
        assert codes == [0] * len(self.SPECS)
        assert counts["verify"] == len(self.SPECS)
        assert counts["builds"] == counts["steps"] + counts["verify"]


class TestParserReuse:
    """The parser is built once per process; reusing it changes no output."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_main_builds_no_parser_after_first_call(self, workdir, capsys, monkeypatch):
        run(["tracts", "inspect", "--map", workdir["map"]])
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert run(["tracts", "inspect", "--map", workdir["map"]]) == 0
        assert run(["classify", "--spec", workdir["spec1"], "--seed", "1"]) == 2
        assert run(["diag", "appendix-a", "--d", "2", "--rho", "50", "--samples", "2"]) == 0
        assert built == []

    def test_sequence_matches_fresh_processes(self, workdir, tmp_path, capsys, monkeypatch):
        # argparse wraps usage text to the terminal width; pin it for both sides
        monkeypatch.setenv("COLUMNS", "80")
        src = str(Path(rayforge.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        trace = [
            "ray", "trace", "--map", workdir["map"], "--address", workdir["zero"],
            "--t-lo", "1", "--t-hi", "5", "--samples", "8", "--out", "json",
            "--output", "{out}",
        ]
        sequence = [
            trace,
            ["classify", "--spec", workdir["spec1"], "--seed", "1"],
            ["diag", "appendix-a", "--d", "2", "--rho", "100", "--samples", "5"],
            trace,
        ]
        for k, (argv, exit_code) in enumerate(zip(sequence, [0, 2, 0, 0])):
            mine, fresh = tmp_path / f"mine{k}.json", tmp_path / f"fresh{k}.json"
            code = run([a.format(out=mine) for a in argv])
            captured = capsys.readouterr()
            proc = subprocess.run(
                [sys.executable, "-m", "rayforge", *(a.format(out=fresh) for a in argv)],
                env=env, capture_output=True, timeout=120,
            )
            assert code == proc.returncode == exit_code
            assert captured.out.encode() == proc.stdout
            assert captured.err.encode() == proc.stderr
            if "--output" in argv:
                assert mine.read_bytes() == fresh.read_bytes()


# Every command's words, and the options its leaf parser takes.
_COMMANDS = {
    ("ray", "trace"): ("--map", "--address", "--t-lo", "--t-hi", "--samples", "--out",
                       "--output"),
    ("classify",): ("--spec", "--out", "--log-iterates", "--max-iter", "--tol"),
    ("diag", "appendix-a"): ("--d", "--rho", "--samples", "--seed", "--output"),
    ("diag", "invariant-set"): ("--run", "--output"),
    ("homotopy", "word"): ("--marked", "--curve", "--output"),
    ("tracts", "inspect"): ("--map", "--output"),
}
_OPTIONS = sorted({o for options in _COMMANDS.values() for o in options} | {"-h", "--help"})


class TestLeafParsing:
    """``main`` parses with the leaf parser that argv's first words name; the
    exit code, stdout, stderr and written file are those of parsing with the
    full tree (``oracles.main_through_full_tree``)."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("leaf")

        def write(name, obj):
            (root / name).write_text(serialize.dumps(obj))
            return str(root / name)

        files = {
            "map": write("map.json", to_json(presets.EXP_MAP)),
            "address": write("address.json", to_json(presets.ZERO)),
            "spec": write("spec.json", serialize.spec_to_json(presets.SPEC_D1)),
            "marked": write("marked.json", {"points": [{"re": 0.0, "im": 0.0}]}),
            "curve": write("curve.json", {"vertices": [{"re": -1.0, "im": 1.0}, {"re": 1.0, "im": -1.0}]}),
            "out": str(root / "out.txt"),
        }
        files["run"] = str(root / "run.json")
        assert cli.main(["classify", "--spec", files["spec"], "--out", files["run"]]) == 0
        return files

    @staticmethod
    def _required(words, files):
        return {
            ("ray", "trace"): ["--map", files["map"], "--address", files["address"],
                               "--t-lo", "1", "--t-hi", "2", "--samples", "2"],
            ("classify",): ["--spec", files["spec"]],
            ("diag", "appendix-a"): ["--d", "2", "--rho", "100", "--samples", "2"],
            ("diag", "invariant-set"): ["--run", files["run"]],
            ("homotopy", "word"): ["--marked", files["marked"], "--curve", files["curve"]],
            ("tracts", "inspect"): ["--map", files["map"]],
        }[words]

    @staticmethod
    def _outcome(main, argv, files):
        """Exit code, stdout, stderr and the files written: ``files["out"]``,
        any relative path, which lands in a fresh working directory, and any
        input file that ``--output`` overwrote.  Overwritten inputs are put
        back, so every call reads the same inputs."""
        out = files["out"]
        if os.path.exists(out):
            os.remove(out)
        inputs = {path: Path(path).read_bytes() for name, path in files.items() if name != "out"}
        stdout, stderr = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as cwd, contextlib.chdir(cwd):
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(list(argv))
            written = {p.name: p.read_bytes() for p in Path(cwd).iterdir()}
        if os.path.exists(out):
            written[out] = Path(out).read_bytes()
        for path, before in inputs.items():
            if (after := Path(path).read_bytes()) != before:
                written[path] = after
                Path(path).write_bytes(before)
        return code, stdout.getvalue(), stderr.getvalue(), written

    @hypothesis.settings(
        max_examples=300, deadline=None,
        suppress_health_check=[hypothesis.HealthCheck.too_slow],
    )
    @hypothesis.given(data=st.data())
    def test_leaf_parse_matches_the_full_tree(self, files, data):
        # argv: a command's words (or none), its required options or not, and
        # up to three more chunks: an option of this or another command,
        # whole or abbreviated, with a good or a bad value, as two words or
        # as --opt=value, or a stray word.  The chunks come in any order, and
        # now and then a stray word lands among the command words.
        good = {
            "--map": files["map"], "--address": files["address"], "--t-lo": "1",
            "--t-hi": "2", "--samples": "3", "--out": "json", "--output": files["out"],
            "--tol": "1e-3", "--spec": files["spec"], "--max-iter": "4",
            "--d": "3", "--rho": "100", "--seed": "4", "--run": files["run"],
            "--marked": files["marked"], "--curve": files["curve"],
        }
        bad = ["0", "-1", "x", "nan", "inf", "", "-", "out.txt", "/nonexistent/x", files["map"]]
        strays = sorted({w for c in _COMMANDS for w in c}) + ["bogus", "--", "-", "-x", "--=1"]
        command = data.draw(st.sampled_from([*_COMMANDS, ()]), label="command")

        def value(option):
            return st.just(good.get(option, "1")) | st.sampled_from(bad)

        def spelled(option):  # whole, or abbreviated to a prefix
            return st.sampled_from([option[:n] for n in range(2, len(option) + 1)])

        option = st.sampled_from(_COMMANDS.get(command) or _OPTIONS) | st.sampled_from(_OPTIONS)
        pair = option.flatmap(lambda o: st.tuples(spelled(o), value(o)))
        chunk = (
            pair.map(list)
            | pair.map(lambda p: ["=".join(p)])
            | st.sampled_from(strays).map(lambda w: [w])
        )
        required = []
        if command and data.draw(st.integers(0, 3), label="required options"):
            required = self._required(command, files)
        chunks = [required[k : k + 2] for k in range(0, len(required), 2)]
        chunks = data.draw(st.permutations(chunks + data.draw(st.lists(chunk, max_size=3))))
        argv = list(command) + [word for c in chunks for word in c]
        if data.draw(st.integers(0, 9), label="stray among the words") == 0:
            argv.insert(data.draw(st.integers(0, len(command))), data.draw(st.sampled_from(strays)))
        hypothesis.note(repr(argv))
        outcome = self._outcome(cli.main, argv, files)
        hypothesis.event(f"exit {outcome[0]}, files written: {len(outcome[3])}")
        assert outcome == self._outcome(main_through_full_tree, argv, files)

    def test_leaf_namespace_equals_the_tree_namespace(self, files):
        parser = cli.build_parser()[0]
        for words in _COMMANDS:
            argv = [*words, *self._required(words, files)]
            assert vars(cli._parse(argv)) == vars(parser.parse_args(argv)), words

    def test_main_without_argv_reads_sys_argv(self, files, monkeypatch, capsys):
        argv = ["diag", "appendix-a", "--d", "2", "--rho", "100", "--samples", "3", "--bogus"]
        monkeypatch.setattr(sys, "argv", ["rayforge", *argv])
        assert cli.main() == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: rayforge [-h] {ray,classify,diag,homotopy,tracts} ...")
        assert err.endswith("rayforge: error: unrecognized arguments: --bogus\n")
        monkeypatch.setattr(sys, "argv", ["rayforge", *argv[:-1]])
        assert cli.main() == 0
        assert json.loads(capsys.readouterr().out)["config"]["samples"] == 3

