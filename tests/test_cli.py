"""End-to-end command line behavior: outputs, exit codes, file writing."""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from wellpoles import chart, cli
from wellpoles.document import parse_chart_document
from wellpoles.errors import EdgeTooClose


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAxis:
    def test_json_output(self, capsys):
        code, out, err = run(capsys, "axis", "--U", "2", "--channel", "plus")
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["kind"] == "axis_poles"
        kinds = sorted(p["kind"] for p in doc["poles"])
        assert kinds == ["bound", "virtual", "virtual"]

    def test_csv_output(self, capsys):
        code, out, err = run(capsys, "axis", "--U", "2", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "channel,alpha,re_k,im_k,kind,multiplicity"
        assert len(lines) == 4

    @pytest.mark.parametrize("argv,expected", [
        (("--U", "2", "--channel", "plus"),
         "channel,alpha,re_k,im_k,kind,multiplicity\n"
         "plus,0.0,0.0,-0.92074323485740017,virtual,1\n"
         "plus,0.0,0.0,-0.40418151859917956,virtual,1\n"
         "plus,0.0,0.0,1.8415955596969533,bound,1\n"),
        (("--U", "5", "--channel", "minus"),
         "channel,alpha,re_k,im_k,kind,multiplicity\n"
         "minus,0.0,0.0,-1.3986419695071617,virtual,1\n"
         "minus,0.0,0.0,0.091785011515097603,bound,1\n"
         "minus,0.0,0.0,2.6582502745903294,bound,1\n"),
        (("--U", "0.05", "--gamma", "-1"),
         "channel,alpha,re_k,im_k,kind,multiplicity\n"
         "plus,3.1415926535897931,0.0,-1.4519741198194809,virtual,1\n"
         "plus,3.1415926535897931,0.0,-0.18177894493151284,virtual,1\n"),
    ])
    def test_csv_bytes(self, capsys, argv, expected):
        code, out, err = run(capsys, "axis", *argv, "--format", "csv")
        assert code == 0 and err == ""
        assert out == expected

    def test_repulsive_side(self, capsys):
        # below the repulsive collision depth 0.0976 the pair is still on
        # the axis; above it the axis holds no pole at all
        code, out, _ = run(capsys, "axis", "--U", "0.05", "--gamma", "-1")
        assert code == 0
        doc = json.loads(out)
        assert doc["gamma"] == -1
        assert [p["kind"] for p in doc["poles"]] == ["virtual", "virtual"]


# SHA-256 of the output of each command, recorded on x86-64 Linux with
# CPython 3.11 and numpy 2.4; moving the document assembly or the float
# formatting must leave every byte unchanged
_GOLDEN_OUTPUT = {
    ("axis", "--U", "2", "--channel", "plus"):
        "9a1c7dfa4e2265efbd99500a05f6bfe4e56442896e863493d5621eae2b1e8a4c",
    ("axis", "--U", "0.05", "--gamma", "-1"):
        "5a29da2f333323c345f94f5ec44541e3a31e3009240fd57dfd07b35d85ea840a",
    ("critical", "--channel", "plus", "--gamma", "+1"):
        "ead4e211c5342254ae793351001442cb207b0a6eb612b224f706b26947427f6b",
    ("critical", "--channel", "minus", "--gamma", "+1", "--index", "2"):
        "04bae62cc74ac1a6d693f8c398fc7058b3c42702c47ae6da8e064fb00bf08f8a",
    ("threshold", "--channel", "minus", "--n", "1"):
        "1a2cefa8ec3860526aba15db5fd9f8d222bc73cd6d0abb2474bc0a4d1dd67a21",
    ("threshold", "--channel", "minus", "--n", "1", "--check"):
        "8c00ffb08f0b14d4e1550c3758b5b83b0ed8a9b43ba9136ea16740648498d4d2",
    ("threshold", "--channel", "plus", "--n", "2", "--check"):
        "1ce416f921444a54dd54aa1ee03b6b628d66d62ed964bcd89582532951d19084",
    ("sweep", "--channel", "plus", "--depths", "1,3,5,8"):
        "e94888cc8ca7c2a81cf04604238303c3292d4c940ad797e38e0c5cf0ed5e0a16",
    ("sweep", "--channel", "minus", "--depths", "1,3,5,8"):
        "bf90c15a5ada898789a6938d0b4935f406fa13e112b599c54e273df1cb223d41",
    ("verify", "--samples", "60", "--seed", "7"):
        "433217ca678b20fb8de17e912ae6fc2673d373a8f8111996b20a84a6323a1e63",
    ("chart", "--U", "2", "--channel", "plus", "--format", "csv"):
        "2b2d5192ffa6352490882d709538d5d708a91772fb8e4f2e593750a30d782960",
}


@pytest.mark.parametrize("argv", sorted(_GOLDEN_OUTPUT), ids=" ".join)
def test_output_bytes_locked(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == _GOLDEN_OUTPUT[argv]


class TestChart:
    def test_json_parses_strictly(self, capsys):
        code, out, err = run(capsys, "chart", "--U", "1", "--channel", "plus")
        assert code == 0 and err == ""
        doc = parse_chart_document(out)
        assert doc["completeness"]["complete"] is True

    def test_repeated_runs_byte_identical(self, capsys):
        code1, out1, _ = run(capsys, "chart", "--U", "1", "--channel", "minus")
        code2, out2, _ = run(capsys, "chart", "--U", "1", "--channel", "minus")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "chart.json"
        code, out, _ = run(
            capsys, "chart", "--U", "1", "--out", str(target)
        )
        assert code == 0 and out == ""
        parse_chart_document(target.read_text())

    def test_svg_render(self, capsys, tmp_path):
        target = tmp_path / "chart.svg"
        code, _, _ = run(
            capsys, "chart", "--U", "2", "--svg", str(target)
        )
        assert code == 0
        text = target.read_text()
        root = ET.fromstring(text)
        assert root.tag.split("}")[-1] == "svg"
        assert "script" not in text.lower()
        assert "polyline" in text

    def test_csv_output(self, capsys):
        code, out, _ = run(
            capsys, "chart", "--U", "1", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines()[0] == "trajectory,closure,alpha,re_k,im_k"

    def test_no_certify_drops_certificate(self, capsys):
        code, out, _ = run(
            capsys, "chart", "--U", "1", "--no-certify"
        )
        assert code == 0
        assert json.loads(out)["completeness"] is None


class TestCritical:
    def test_attractive_even(self, capsys):
        code, out, _ = run(capsys, "critical", "--channel", "plus", "--gamma", "+1")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["U"] - 1.9624365469419596) < 1e-8
        assert doc["transition"] == "plane_to_axis"
        assert doc["pair_count"] == 2

    def test_failed_pair_count_is_null(self, capsys, monkeypatch):
        def edge_too_close(region, spec):
            raise EdgeTooClose(region.lo)

        monkeypatch.setattr(chart, "count_zeros_padded", edge_too_close)
        code, out, err = run(capsys, "critical", "--channel", "plus", "--gamma", "+1")
        assert code == 0 and err == ""
        assert json.loads(out)["pair_count"] is None

    def test_no_collision_is_numeric_failure(self, capsys):
        code, out, err = run(
            capsys, "critical", "--channel", "minus", "--gamma", "-1"
        )
        assert code == 3 and out == ""
        payload = json.loads(err)
        assert payload["error"]["type"] == "NoRootInBracket"
        assert payload["error"]["message"]


class TestThreshold:
    def test_closed_form(self, capsys):
        code, out, _ = run(capsys, "threshold", "--channel", "minus", "--n", "1")
        assert code == 0
        assert abs(json.loads(out)["U"] - 0.5483113556160755) < 1e-12

    def test_check_agrees(self, capsys):
        code, out, _ = run(
            capsys, "threshold", "--channel", "minus", "--n", "1", "--check"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["flip_agrees"] is True
        assert abs(doc["flip"] - doc["U"]) < 1e-4


class TestSweep:
    def test_transition_attributed(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--channel", "plus", "--depths", "1.95,2.0"
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["entries"]) == 2
        assert doc["entries"][0]["topology"] == {"open": 1}
        assert doc["entries"][1]["topology"] == {"closed_4pi": 1, "open": 1}
        (tr,) = doc["transitions"]
        assert abs(tr["critical"]["U"] - 1.9624365469419596) < 1e-6

    def test_depths_required(self, capsys):
        code, _, err = run(capsys, "sweep", "--channel", "plus")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "DocumentError"

    def test_bad_depths_list(self, capsys):
        code, _, err = run(capsys, "sweep", "--depths", "1.0,zap")
        assert code == 2
        assert "depths" in json.loads(err)["error"]["message"]


class TestVerify:
    def test_passes_on_defaults(self, capsys):
        code, out, _ = run(capsys, "verify", "--samples", "60", "--seed", "7")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["worst_residuals"]["transpose_inverse"] < 1e-10
        assert doc["worst_residuals"]["factorization"] < 1e-12

    def test_failure_exits_one(self, capsys, monkeypatch):
        def broken(k, coupling, spec):
            return {
                "transpose_inverse": 1.0,
                "hermitian_adjoint": 0.0,
                "conjugation": 0.0,
            }

        monkeypatch.setattr(cli, "verify_relations", broken)
        code, out, _ = run(capsys, "verify", "--samples", "5")
        assert code == 1
        assert json.loads(out)["passed"] is False

    def test_unevaluable_samples_fail(self):
        # at a = 300 the S-matrix leaves the float range at most complex
        # samples; a nan residual, or one that overflows, is a failure
        proc = subprocess.run(
            [sys.executable, "-m", "wellpoles.cli", "verify", "--a", "300", "--samples", "20"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1 and proc.stderr == ""
        doc = json.loads(proc.stdout)
        assert doc["passed"] is False
        assert any(f["residual"] is None for f in doc["failures"])

    def test_seed_changes_samples_not_verdict(self, capsys):
        code1, out1, _ = run(capsys, "verify", "--samples", "40", "--seed", "1")
        code2, out2, _ = run(capsys, "verify", "--samples", "40", "--seed", "2")
        assert code1 == code2 == 0
        r1 = json.loads(out1)["worst_residuals"]
        r2 = json.loads(out2)["worst_residuals"]
        assert r1 != r2


class TestUsageErrors:
    def test_bad_choice(self, capsys):
        code, _, _ = run(capsys, "axis", "--channel", "bogus")
        assert code == 2

    def test_no_command(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_negative_depth_rejected(self, capsys):
        code, _, err = run(capsys, "axis", "--U", "-3")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "ValueError"

    @pytest.mark.parametrize("flag", ["--alpha-cap", "--k-window"])
    def test_stop_rule_is_not_a_flag(self, capsys, flag):
        # the tracer owns when an open curve stops
        code, out, _ = run(capsys, "chart", "--U", "2", flag, "1")
        assert code == 2 and out == ""

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_verify_needs_a_sample(self, capsys, samples):
        # a verdict over no samples would pass without checking anything
        code, out, err = run(capsys, "verify", "--samples", samples)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert "samples" in json.loads(err)["error"]["message"]


class TestConfigFlag:
    def test_file_sets_cli_overrides(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"U": 2.0, "channel": "minus"}))
        code, out, _ = run(
            capsys, "axis", "--config", str(path), "--channel", "plus"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["potential"]["U"] == 2.0
        assert doc["channel"] == "plus"

    def test_unknown_config_key(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text('{"wat": 1}')
        code, _, err = run(capsys, "axis", "--config", str(path))
        assert code == 2
        assert "unknown keys" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("key", ["step_maximum", "alpha_cap", "k_window"])
    def test_step_schedule_is_not_a_config_key(self, capsys, tmp_path, key):
        # the continuation schedule and the stop rule are internal to the
        # tracer
        path = tmp_path / "run.json"
        path.write_text(json.dumps({key: 0.1}))
        code, out, err = run(capsys, "chart", "--config", str(path))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert key in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("command,values", [
        ("verify", {"samples": 2.5}),
        ("axis", {"U": "2"}),
        ("chart", {"certify": "no"}),
        ("sweep", {"depths": ["a"]}),
        ("verify", {"samples": True}),
    ])
    def test_value_of_the_wrong_type(self, capsys, tmp_path, command, values):
        # a usage error with the one-line JSON error, not a traceback (exit 1)
        # or a truthy string taken as true
        path = tmp_path / "run.json"
        path.write_text(json.dumps(values))
        code, out, err = run(capsys, command, "--config", str(path))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        [key] = values
        assert repr(key) in json.loads(err)["error"]["message"]

    def test_int_accepted_for_a_float(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"U": 2, "m": 1}))
        code, out, _ = run(capsys, "axis", "--config", str(path))
        assert code == 0
        assert json.loads(out)["potential"]["U"] == 2.0

    @pytest.mark.parametrize("argv,ignored", [
        (("axis", "--U", "2"), {"samples": 9, "index": 3, "certify": False}),
        (("chart", "--U", "0.09"), {"gamma": -1, "seed": 1, "depths": [1.0]}),
        (("critical", "--channel", "minus"), {"U": 7.0, "n": 2, "certify": False}),
        (("threshold", "--n", "2"), {"U": 7.0, "gamma": -1, "index": 2}),
        (("sweep", "--depths", "1,3"), {"U": 7.0, "seed": 1, "samples": 9}),
        (("verify", "--samples", "5"), {"channel": "minus", "gamma": -1, "n": 2}),
    ], ids=lambda v: v[0] if isinstance(v, tuple) else None)
    def test_key_a_command_ignores_leaves_its_bytes(self, capsys, tmp_path, argv, ignored):
        # provenance records only the keys the command reads
        path = tmp_path / "run.json"
        path.write_text(json.dumps(ignored))
        code, plain, _ = run(capsys, *argv)
        code_cfg, with_cfg, _ = run(capsys, *argv, "--config", str(path))
        assert code == code_cfg == 0
        assert with_cfg == plain
        assert not set(ignored) & set(json.loads(plain)["provenance"]["config"])

    def test_config_can_supply_depths(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"depths": [1.0], "channel": "plus"}))
        code, out, _ = run(capsys, "sweep", "--config", str(path))
        assert code == 0
        assert len(json.loads(out)["entries"]) == 1


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "wellpoles.cli", "threshold", "--n", "2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["n"] == 2

    @pytest.mark.skipif(
        shutil.which("wellpoles") is None, reason="console script not on PATH"
    )
    def test_console_script(self):
        proc = subprocess.run(
            ["wellpoles", "threshold", "--n", "1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["kind"] == "bound_threshold"
