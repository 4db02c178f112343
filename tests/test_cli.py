"""End-to-end command line behavior: outputs, exit codes, file writing."""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import time
import xml.etree.ElementTree as ET

import pytest

from wellpoles import chart, cli, rootfinder
from wellpoles.document import _READS, parse_chart_document
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
         "plus,0.0,0.0,-0.92074323485740006,virtual,1\n"
         "plus,0.0,0.0,-0.40418151859917822,virtual,1\n"
         "plus,0.0,0.0,1.8415955596969533,bound,1\n"),
        (("--U", "5", "--channel", "minus"),
         "channel,alpha,re_k,im_k,kind,multiplicity\n"
         "minus,0.0,0.0,-1.3986419695071615,virtual,1\n"
         "minus,0.0,0.0,0.091785011515097603,bound,1\n"
         "minus,0.0,0.0,2.6582502745903294,bound,1\n"),
        (("--U", "0.05", "--gamma", "-1"),
         "channel,alpha,re_k,im_k,kind,multiplicity\n"
         "plus,3.1415926535897931,0.0,-1.4519741198194851,virtual,1\n"
         "plus,3.1415926535897931,0.0,-0.18177894493151273,virtual,1\n"),
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
        "6273824213867abfc84def608b048ba923c0ef053a5d5e10d14aa699879dded3",
    ("axis", "--U", "0.05", "--gamma", "-1"):
        "3640ada96d0e5cc19184341f623f5dbf000c19404dc00411a380596586f4997d",
    ("critical", "--channel", "plus", "--gamma", "+1"):
        "f9409c13202275d152e34fcf15efa006038a2c0ce652ff2424526c88457e91fc",
    ("critical", "--channel", "minus", "--gamma", "+1", "--index", "2"):
        "36716d114a0bee65d8f4d7abdb2f13350c4011a1959d9b237cbf06df9195b038",
    ("threshold", "--channel", "minus", "--n", "1"):
        "9fed498236e82b683562443b3dfa91de94a742baef9211ccae51ec7380123de1",
    ("threshold", "--channel", "minus", "--n", "1", "--check"):
        "b6a9150ec81d756951c9a76344456826aeb219ee42965a1998ebf66fce5dfc67",
    ("threshold", "--channel", "plus", "--n", "2", "--check"):
        "6ebe1d25fbaab3448eb9b03e3879509e2c3e327bd94be1a5c90376e38f8b6504",
    ("sweep", "--channel", "plus", "--depths", "1,3,5,8"):
        "e685b1249d81e35c9afab5fef84c9163a29b078892e09e57796a4e3490dd58c1",
    ("sweep", "--channel", "minus", "--depths", "1,3,5,8"):
        "841b3e5065ea819518a0b640edc235b2b0cd92cc24339f833e247384fc7c6377",
    ("verify", "--samples", "60", "--seed", "7"):
        "fc37b7d081039638e24c3f7e4d1bc77134233f2bad53f2946ada464d39714101",
    # most samples overflow at a = 300: their residuals are written as null
    ("verify", "--a", "300", "--samples", "20"):
        "fbe805fbc5cbe5ad31c94e091fcaf6273a36c4f5b21fccbcfcecda93fef45604",
    ("chart", "--U", "2", "--channel", "plus", "--format", "csv"):
        "6a0c9e66ba630d2c70ef0a538ae3d49f9c98c33bd9da6d549ec64161049f1af0",
}


# the exit code of each golden command that does not exit 0
_GOLDEN_EXIT = {("verify", "--a", "300", "--samples", "20"): 1}


@pytest.mark.parametrize("argv", sorted(_GOLDEN_OUTPUT), ids=" ".join)
def test_output_bytes_locked(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == _GOLDEN_EXIT.get(argv, 0) and err == ""
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
        def edge_too_close(re_max, im_lo, im_hi, s, channel):
            raise EdgeTooClose(complex(-re_max, im_lo))

        monkeypatch.setattr(rootfinder, "count_zeros_padded", edge_too_close)
        code, out, err = run(capsys, "critical", "--channel", "plus", "--gamma", "+1")
        assert code == 0 and err == ""
        assert json.loads(out)["pair_count"] is None

    def test_counts_its_pair_once(self, capsys, monkeypatch):
        walks = []

        def counted(*rectangle, _walk=rootfinder.count_zeros_padded):
            walks.append(rectangle)
            return _walk(*rectangle)

        monkeypatch.setattr(rootfinder, "count_zeros_padded", counted)
        code, out, _ = run(capsys, "critical", "--channel", "minus", "--gamma", "+1")
        assert code == 0 and json.loads(out)["pair_count"] == 2
        assert len(walks) == 1

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

    @pytest.mark.parametrize("m,a", [("1", "1.5"), ("1", "1e6"), ("1e6", "1.5"), ("1", "1e-3")])
    @pytest.mark.parametrize("channel", ["plus", "minus"])
    def test_check_agrees_at_any_index_and_scale(self, capsys, channel, m, a):
        # the bracket reaches halfway to the neighbouring thresholds, and
        # the tolerance and the agreement test are relative to u_n
        for n in range(1, 31):
            code, out, _ = run(capsys, "threshold", "--channel", channel, "--n", str(n),
                               "--m", m, "--a", a, "--check")
            doc = json.loads(out)
            assert code == 0, (n, doc)
            assert doc["flip_agrees"] is True
            assert abs(doc["flip"] - doc["U"]) < 1e-4 * doc["U"], (n, doc)


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

    def test_no_sample_ends_the_run(self, capsys):
        # the channel pole functions of this shallow well lose digits at
        # many samples: the run lists their failures and writes its document
        code, out, err = run(capsys, "verify", "--a", "10", "--U", "1e-8",
                             "--samples", "200", "--seed", "5")
        assert code == 1 and err == ""
        assert json.loads(out)["passed"] is False

    @pytest.mark.parametrize("U", ["1e-300", "1e-8", "1e-2"])
    def test_passes_in_shallow_wells_at_the_default_width(self, capsys, U):
        # the full S-matrix from the channel factorization holds every
        # identity where a double-angle formula for it loses its digits
        code, out, err = run(capsys, "verify", "--a", "1.5", "--U", U,
                             "--samples", "200", "--seed", "5")
        assert code == 0 and err == ""
        assert json.loads(out)["failures"] == []

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

    @pytest.mark.parametrize("argv,kind", [
        (("axis", "--channel", "bogus"), "ValueError"),
        (("axis", "--gamma", "2"), "ValueError"),
        (("chart", "--format", "xml"), "ValueError"),
        (("axis", "--U", "abc"), "DocumentError"),
        (("threshold", "--n", "two"), "DocumentError"),
        (("axis", "--bogus", "1"), "DocumentError"),
        (("sweep", "--depths", "1.0,zap"), "DocumentError"),
        ((), "DocumentError"),
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else v)
    def test_one_json_line(self, capsys, argv, kind):
        # a usage error goes the way of every other error: exit 2, nothing
        # on stdout and one JSON line on stderr, not argparse's usage text
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        error = json.loads(err)["error"]
        assert error["type"] == kind and error["message"]

    @pytest.mark.parametrize("argv,named", [
        (("sweep", "--depths", "inf"), "got inf"),
        (("sweep", "--depths", "1e308"), "U=1e+308"),
        (("chart", "--U", "1e308"), "U=1e+308"),
        (("sweep", "--depths", "nan"), "got nan"),
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else v)
    def test_depth_beyond_the_floats(self, capsys, argv, named):
        # a depth that is not finite, or whose strength c = a*sqrt(2 m U) is
        # not, is refused by name before a collision lookup overflows on it
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError" and named in error["message"]

    @pytest.mark.parametrize("argv,message", [
        (("threshold", "--m", "nan"), "mass must be positive and finite, got nan"),
        (("threshold", "--m", "inf"), "mass must be positive and finite, got inf"),
        (("threshold", "--a", "inf"), "half-width must be positive and finite, got inf"),
        (("critical", "--a", "nan"), "half-width must be positive and finite, got nan"),
        (("axis", "--U", "inf"), "depth must be nonnegative and finite, got inf"),
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
    def test_well_beyond_the_floats(self, capsys, argv, message):
        # a mass, width or depth that is not finite is refused by name, in
        # PotentialSpec's words, before a command computes with it: a nan
        # mass once reached the output writer, and an infinite width gave
        # a threshold of 0
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == {"type": "ValueError", "message": message}

    @pytest.mark.parametrize("argv", [
        ("threshold", "--a", "1e-200"),
        ("critical", "--a", "1e-200"),
        ("sweep", "--a", "1e-200", "--depths", "1"),
        ("threshold", "--a", "1e-160"),
        ("threshold", "--a", "1e-160", "--check"),
        ("critical", "--a", "1e-160"),
    ], ids=" ".join)
    def test_width_whose_depths_leave_the_floats(self, capsys, argv):
        # 2 m a^2 underflows to 0 at a = 1e-200, where a ZeroDivisionError
        # once ended these commands with a traceback, and to 2e-320 at
        # a = 1e-160, where every closed-form depth overflows: the width is
        # named, in one JSON line
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError"
        assert f"at m=1.0, a={argv[2]}" in error["message"]

    @pytest.mark.parametrize("argv", [
        ("axis", "--a", "1e-200"),
        ("axis", "--a", "1e-160"),
        ("chart", "--a", "1e-160"),
    ], ids=" ".join)
    def test_width_whose_depths_leave_the_floats_still_charts(self, capsys, argv):
        # a chart or scan at one depth needs no closed-form depth
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert json.loads(out)["potential"]["a"] == float(argv[2])

    @pytest.mark.parametrize("argv", [
        ("axis", "--U", "1e30"),
        ("sweep", "--depths", "1e12"),
        ("sweep", "--depths", "1e13"),
        ("sweep", "--depths", "1e16"),
    ], ids=" ".join)
    def test_depth_beyond_the_limit(self, capsys, argv):
        # past c = 1e4 the axis scan and the sweep ran for many seconds, or
        # failed as numerical errors; the well is refused by name at once
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError"
        assert "exceeds its limit 10000 at m=1.0, a=1.5, U=" in error["message"]

    def test_help_prints_help(self, capsys):
        code, out, err = run(capsys, "chart", "--help")
        assert code == 0 and err == ""
        assert "--no-certify" in out and "--gamma" not in out

    @pytest.mark.parametrize("command,flag,value", [
        ("chart", "--gamma", "-1"),
        ("critical", "--U", "2"),
        ("critical", "--format", "csv"),
        ("threshold", "--U", "2"),
        ("threshold", "--gamma", "-1"),
        ("threshold", "--format", "csv"),
        ("sweep", "--U", "2"),
        ("sweep", "--gamma", "-1"),
        ("sweep", "--format", "csv"),
        ("verify", "--channel", "minus"),
        ("verify", "--gamma", "-1"),
        ("verify", "--format", "csv"),
    ])
    def test_flag_the_command_ignores(self, capsys, command, flag, value):
        # a flag the command would not read is refused, not silently dropped
        code, out, err = run(capsys, command, flag, value)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert flag in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_verify_needs_a_sample(self, capsys, samples):
        # a verdict over no samples would pass without checking anything
        code, out, err = run(capsys, "verify", "--samples", samples)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert "samples" in json.loads(err)["error"]["message"]


def _no_chart(*args, **kwargs):
    raise AssertionError("an uncertified sweep traces no chart")


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

    def test_sweep_no_certify_equals_its_config_key(self, capsys, tmp_path, monkeypatch):
        # with no switch on the command line the file's value stands, as
        # the switch defaults to None, not to True
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"certify": False}))
        monkeypatch.setattr(chart, "build_chart", _no_chart)
        code, flag, _ = run(capsys, "sweep", "--depths", "1,3", "--no-certify")
        code_cfg, with_cfg, _ = run(capsys, "sweep", "--depths", "1,3", "--config", str(path))
        assert code == code_cfg == 0
        assert flag == with_cfg
        assert json.loads(flag)["provenance"]["config"]["certify"] is False

    def test_chart_certify_from_the_file(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"certify": False}))
        code, out, _ = run(capsys, "chart", "--U", "1", "--config", str(path))
        assert code == 0 and json.loads(out)["completeness"] is None

    def test_config_can_supply_depths(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"depths": [1.0], "channel": "plus"}))
        code, out, _ = run(capsys, "sweep", "--config", str(path))
        assert code == 0
        assert len(json.loads(out)["entries"]) == 1


# the document kind and the output flags besides --out of each command
_SINKS = {
    "axis": ("axis_poles", {"format"}),
    "chart": ("pole_chart", {"format", "svg"}),
    "critical": ("critical_depth", set()),
    "threshold": ("bound_threshold", {"check"}),
    "sweep": ("depth_sweep", set()),
    "verify": ("verification", set()),
}


def test_flags_are_the_keys_each_command_reads():
    # every flag of a command is a key its document records, --config,
    # --out or one of its output flags: none is taken and then ignored
    (sub,) = (
        action for action in cli._build_parser()._actions
        if action.dest == "command"
    )
    assert set(sub.choices) == set(_SINKS)
    slots = 0
    for name, parser in sub.choices.items():
        kind, sinks = _SINKS[name]
        flags = {action.dest for action in parser._actions} - {"help"}
        assert flags == {"config", "out"} | set(_READS[kind]) | sinks, name
        slots += len(flags)
    assert slots == 45


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
