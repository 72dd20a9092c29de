import json

import pytest

from rayforge import cli, errors, presets, serialize, tracts
from rayforge.polyexp import PolyExpMap


@pytest.fixture
def workdir(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(serialize.dumps(obj))
        return str(path)

    paths = {
        "map": write("exp.json", serialize.map_to_json(presets.EXP_MAP)),
        "zero": write("zero.json", serialize.address_to_json(presets.ZERO)),
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

    def test_depth_budget_exhausted_exit_3(self, workdir, capsys):
        # a forced-shallow depth budget cannot certify convergence
        code = run(
            [
                "ray", "trace", "--map", workdir["map"], "--address", workdir["zero"],
                "--t-lo", "0.8", "--t-hi", "0.9", "--samples", "2",
                "--max-depth", "3",
            ]
        )
        assert code == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["kind"] == "NotConvergedError"

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

    def test_invariant_set_from_run(self, workdir, capsys):
        out = str(workdir["dir"] / "logged.json")
        assert run(
            ["classify", "--spec", workdir["spec1"], "--out", out, "--log-iterates"]
        ) == 0
        code = run(["diag", "invariant-set", "--run", out])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["iterations"]) > 3
        assert all(row["inside_disk"] for row in payload["iterations"])


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
        assert len(payload["strips"]) == 7

    def test_tracts_inspect_overflowing_map_exit_3(self, workdir, tmp_path, capsys):
        # its critical value overflows; the strip bounds used to come out
        # inf and crash the JSON writer
        path = tmp_path / "big.json"
        path.write_text(serialize.dumps(serialize.map_to_json(PolyExpMap(2, [0, 1e200]))))
        code = run(["tracts", "inspect", "--map", str(path)])
        assert code == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["kind"] == "OverflowSignal"


# Exit code of each error class raised out of a subcommand handler.
EXIT_CODES = {
    "RayforgeError": 2,
    "DomainError": 2,
    "DegenerateCurveError": 2,
    "OverflowSignal": 3,
    "RootSolveError": 3,
    "TractConfigError": 3,
    "AmbiguousTractError": 3,
    "BranchSelectionError": 3,
    "NotConvergedError": 3,
    "NotEscapingError": 3,
    "FitError": 3,
    "SpecRejectionError": 4,
    "InvariantViolationError": 4,
    "UnsupportedHomotopyError": 4,
}


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
        exc = cls(1j, (0, 1)) if cls is errors.AmbiguousTractError else cls("boom")

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
        ],
        ids=["classify-seed", "appendix-threads"],
    )
    def test_removed_flags_exit_2(self, argv, workdir, capsys):
        argv = [a.format(**workdir) for a in argv]
        assert run(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

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
        for argv in commands:
            assert run(argv) == 0
            payload = json.loads(capsys.readouterr().out)
            assert "threads" not in payload["config"]
            if argv[0] == "diag":
                assert payload["config"]["seed"] == 5
                assert payload["containment_inconclusive"] == 0
            else:
                assert "seed" not in payload["config"]
        result = str(workdir["dir"] / "run.json")
        assert run(["classify", "--spec", workdir["spec1"], "--out", result]) == 0
        assert run(["diag", "invariant-set", "--run", result]) == 0
        echoed = json.loads(capsys.readouterr().out)["config"]
        assert "seed" not in echoed and "threads" not in echoed


class TestDeterminism:
    def _run_to_file(self, argv, path):
        code = run(argv + ["--output" if "--out" not in argv else "--out", path])
        assert code == 0
        return open(path, "rb").read()

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
                "--out",
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
