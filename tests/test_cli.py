import hashlib
import importlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import warnings

import numpy as np
import pytest

from diskcover import (
    PatternSpec,
    PeriodicConfig,
    covering_radius,
    kershner_theta,
    optimize_single_lattice,
    render_svg,
    triangle_pattern,
    verify_k_coverage,
)
from diskcover import cli, optimize
from diskcover.cli import main
from helpers import child_env

THETA = kershner_theta()
# an integer flag beyond the float range
BIG = str(10**400)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _imported_modules(importtime_log: str) -> set[str]:
    """Module names from the stderr of `python -X importtime`."""
    return {
        line.rsplit("|", 1)[1].strip()
        for line in importtime_log.splitlines()
        if line.startswith("import time:") and "|" in line
    }


@pytest.fixture()
def triangle_config(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(triangle_pattern().to_json())
    return str(path)


class TestPatternCommand:
    def test_triangle_json(self, capsys):
        code, out = _run(capsys, ["pattern", "--name", "triangle"])
        assert code == 0
        payload = json.loads(out)
        assert payload["radius"] == 1.0
        assert len(payload["offsets"]) == 2
        assert payload["u"] == pytest.approx([math.sqrt(3), 0.0])
        assert payload["v"] == pytest.approx([math.sqrt(3) / 2, 1.5])

    def test_pattern_b_with_parameters(self, capsys):
        code, out = _run(
            capsys,
            ["pattern", "--name", "pattern_b", "--x", "0.8", "--y", "1.2", "--d", "0.9"],
        )
        assert code == 0
        assert len(json.loads(out)["offsets"]) == 2

    def test_infeasible_parameters_exit_4(self, capsys):
        code = main(["pattern", "--name", "pattern_b", "--x", "2", "--y", "1", "--d", "0.5"])
        assert code == 4
        assert "error" in capsys.readouterr().err

    def test_unknown_pattern_exit_4(self, capsys):
        assert main(["pattern", "--name", "spiral"]) == 4


class TestVerifyCommand:
    def test_tight_verdict(self, capsys, triangle_config):
        code, out = _run(capsys, ["verify", "--config", triangle_config, "--k", "2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "tight"
        assert payload["k"] == 2

    def test_bad_k_exit_4(self, triangle_config, capsys):
        assert main(["verify", "--config", triangle_config, "--k", "0"]) == 4

    def test_malformed_config_exit_3(self, tmp_path, capsys, monkeypatch):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["verify", "--config", str(bad)]) == 3
        # JSON booleans are no numbers, though float() reads them as 0 and 1:
        # this one certified the unit square at radius 1
        monkeypatch.setattr(
            sys, "stdin", io.StringIO('{"u":[true,0],"v":[0,1],"offsets":[[0,0]],"radius":true}')
        )
        assert main(["verify", "--k", "1"]) == 3
        monkeypatch.setattr(
            sys, "stdin", io.StringIO('{"u":[1,0],"v":[0,1],"offsets":[[false,0]],"radius":1}')
        )
        assert main(["density"]) == 3
        err = capsys.readouterr().err
        assert "'radius' must be numeric" in err and "each offset must be numeric" in err

    def test_missing_file_exit_3(self, capsys):
        assert main(["verify", "--config", "/nonexistent/cfg.json"]) == 3

    def test_unreducible_basis_exit_3(self, tmp_path, capsys):
        path = tmp_path / "skewed.json"
        path.write_text(
            # v - mu * u rounds back to v (test_lattice.py has the numbers)
            json.dumps({"u": [4e-16, 7e-16], "v": [7e29, -4e29], "offsets": [[0, 0]], "radius": 1.0})
        )
        assert main(["verify", "--config", str(path)]) == 3
        assert "did not converge" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload",
        [
            # |v|^2 overflows, and the offset's lattice coordinates are inf
            {"u": [4.72e16, 85532.1], "v": [1.55e224, -4.28e16],
             "offsets": [[-1.797e308, -5e-324]], "radius": 1e-6},
            # det overflows to inf, which leaves no center to search
            {"u": [1e200, 0], "v": [0, 1e200], "offsets": [[0, 0]], "radius": 1},
        ],
    )
    def test_overflowing_config_exit_3(self, tmp_path, capsys, payload):
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(payload))
        assert main(["verify", "--config", str(path), "--k", "2"]) == 3
        assert "overflows" in capsys.readouterr().err

    def test_coincident_offsets_on_skewed_basis_exit_3(self, tmp_path, capsys):
        # 1e-11 apart modulo the lattice, on opposite edges of the cell
        payload = {"u": [1, 0], "v": [5, 1], "radius": 1,
                   "offsets": [[0.3 + 5e-12, 1e-12], [5.3 - 5e-12, 1 - 1e-12]]}
        path = tmp_path / "coincident.json"
        path.write_text(json.dumps(payload))
        assert main(["verify", "--config", str(path), "--k", "2"]) == 3
        assert "coincide" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload",
        [
            # lattice indices past the int64 range, at a radius below the
            # closed-form bound L = 5.000000005e149, so the search runs
            {"u": [1e-155, 0], "v": [1e150, 1e150], "offsets": [[0, 0]], "radius": 5e149},
            # finite indices, but about 1.6e10 lattice points to enumerate
            {"u": [1e-6, 0], "v": [0, 1000], "offsets": [[0, 0]], "radius": 1},
        ],
    )
    def test_enumeration_over_budget_exit_4(self, tmp_path, capsys, payload):
        path = tmp_path / "needle.json"
        path.write_text(json.dumps(payload))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", "--config", str(path), "--k", "2"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: center enumeration needs more than")
        assert captured.err.count("\n") == 1

    def test_covering_needle_is_proven_in_closed_form(self, tmp_path, capsys):
        # the needle above at a radius past L: these disks do 2-cover (an
        # unguarded cast once certified them uncovered), and the closed
        # form A <= max d_2 <= L proves it with no center enumeration
        payload = {"u": [1e-155, 0], "v": [1e150, 1e150], "offsets": [[0, 0]], "radius": 5.001e149}
        path = tmp_path / "needle.json"
        path.write_text(json.dumps(payload))
        code, out = _run(capsys, ["verify", "--config", str(path), "--k", "2"])
        assert code == 0
        cert = json.loads(out)
        assert (cert["status"], cert["witness"]) == ("certified_covered", None)
        assert cert["radius_low"] == pytest.approx(0.0025, rel=0.01)
        assert cert["radius_high"] == pytest.approx(5.0e149, rel=1e-8)

    def test_no_config_no_pipe_exit_2(self, monkeypatch, capsys):
        class FakeTty:
            def isatty(self):
                return True

        monkeypatch.setattr(sys, "stdin", FakeTty())
        with pytest.raises(SystemExit) as err:
            main(["verify", "--k", "2"])
        assert err.value.code == 2


class TestRadiusCommand:
    def test_enclosure_fields(self, capsys, triangle_config):
        code, out = _run(
            capsys, ["radius", "--config", triangle_config, "--k", "2", "--tol", "1e-6"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["low"] == pytest.approx(1.0, abs=1e-5)
        assert payload["high"] >= payload["low"]
        assert payload["converged"] is True
        assert len(payload["witness"]) == 2


class TestDensityCommand:
    def test_triangle_normalized(self, capsys, triangle_config):
        code, out = _run(capsys, ["density", "--config", triangle_config, "--k", "2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["density"] == pytest.approx(2 * THETA, abs=1e-12)
        assert payload["normalized"] == pytest.approx(2.0, abs=1e-12)
        assert payload["meets_toth"] is True


class TestVoronoiCommand:
    def test_cells_and_congruence(self, capsys, triangle_config):
        code, out = _run(
            capsys, ["voronoi", "--config", triangle_config, "--congruence"]
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["cells"]) == 2
        areas = [cell["area"] for cell in payload["cells"]]
        assert sum(areas) == pytest.approx(3 * math.sqrt(3) / 2, abs=1e-9)
        assert payload["all_congruent"] is True
        assert payload["class_count"] == 1
        assert payload["cell_class"] == [0, 0]

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_congruence_tol_exit_4(self, capsys, triangle_config, tol):
        argv = ["voronoi", "--config", triangle_config, "--congruence", "--tol", tol]
        assert main(argv) == 4
        assert "tolerance must be positive" in capsys.readouterr().err

    def test_subnormal_congruence_tol_exit_4(self, capsys, triangle_config):
        argv = ["voronoi", "--config", triangle_config, "--congruence", "--tol", "5e-324"]
        assert main(argv) == 4
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error:") and "too small" in line


class TestBoundsCommand:
    def test_first_order(self, capsys):
        code, out = _run(capsys, ["bounds", "--k", "1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["theta"] == pytest.approx(THETA, abs=1e-15)
        assert payload["toth"] == pytest.approx(THETA, abs=1e-12)
        assert payload["blundon"] == pytest.approx(THETA, abs=1e-12)
        assert "danzer" not in payload

    def test_second_order_includes_danzer(self, capsys):
        code, out = _run(capsys, ["bounds", "--k", "2"])
        payload = json.loads(out)
        assert payload["toth"] == pytest.approx(2 * math.pi / 3, abs=1e-12)
        assert payload["danzer"] == pytest.approx([2.094, 2.347])
        assert payload["blundon"] == pytest.approx(2 * THETA, abs=1e-12)
        assert payload["known_values"]["2theta"] == pytest.approx(2 * THETA)


class TestOptimizeCommand:
    def test_quick_run_with_history(self, capsys, tmp_path):
        out_csv = tmp_path / "history.csv"
        code, out = _run(
            capsys,
            [
                "optimize",
                "--mode",
                "single-lattice",
                "--k",
                "1",
                "--budget",
                "1500",
                "--tol",
                "1e-3",
                "--out",
                str(out_csv),
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["density"] == pytest.approx(THETA, rel=2e-2)
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0].startswith("eval_index,")
        assert len(lines) == payload["evaluations"] + 1

    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    def test_unwritable_out_exit_2_before_the_search(
        self, capsys, tmp_path, monkeypatch, where
    ):
        def no_search(*args, **kwargs):
            raise AssertionError("the search ran")

        # the command imports the search from its module when it runs
        monkeypatch.setattr(optimize, "optimize_single_lattice", no_search)
        out = tmp_path / "missing" / "h.csv" if where == "missing_dir" else tmp_path
        with pytest.raises(SystemExit) as err:
            main(["optimize", "--k", "1", "--budget", "1000", "--out", str(out)])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}:")
        assert captured.err.count("\n") == 1

    def test_failed_search_keeps_the_out_file(self, capsys, tmp_path):
        out = tmp_path / "h.csv"
        out.write_text("keep\n")
        assert main(["optimize", "--k", "7", "--out", str(out)]) == 4
        assert "error" in capsys.readouterr().err
        assert out.read_text() == "keep\n"

    def test_failed_search_leaves_no_new_file(self, capsys, tmp_path):
        out = tmp_path / "new.csv"
        assert main(["optimize", "--k", "7", "--out", str(out)]) == 4
        assert "error" in capsys.readouterr().err
        assert not out.exists()

    def test_pattern_b_rejects_other_folds_exit_4(self, capsys, tmp_path):
        out = tmp_path / "new.csv"
        argv = ["optimize", "--mode", "pattern-b", "--k", "5", "--budget", "1000"]
        assert main(argv + ["--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "k must be 2" in captured.err
        assert not out.exists()

    def test_pattern_b_finds_the_two_fold_honeycomb(self, capsys):
        code, out = _run(capsys, ["optimize", "--mode", "pattern-b", "--budget", "1000"])
        assert code == 0
        payload = json.loads(out)
        assert payload["density"] == pytest.approx(2 * THETA, abs=1e-2)
        assert payload["certificate"]["k"] == 2
        assert payload["param_names"] == ["x", "y", "d"]

    def test_seed_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["optimize", "--k", "1", "--seed", "0"])
        assert err.value.code == 2
        assert "--seed" in capsys.readouterr().err


class TestRenderCommand:
    def test_svg_deterministic(self, capsys, triangle_config, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        assert main(["render", "--config", triangle_config, "--out", str(a)]) == 0
        assert main(["render", "--config", triangle_config, "--out", str(b)]) == 0
        text = a.read_text()
        assert text.startswith("<svg")
        assert "<circle" in text
        assert text == b.read_text()

    @pytest.mark.parametrize("size", [0, -5])
    def test_size_below_one_exit_4(self, capsys, triangle_config, tmp_path, size):
        with pytest.raises(ValueError, match="size"):
            render_svg(triangle_pattern(), size=size)
        out = tmp_path / "bad.svg"
        argv = ["render", "--config", triangle_config, "--out", str(out), "--size", str(size)]
        assert main(argv) == 4
        assert "size" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    def test_unwritable_out_exit_2(self, capsys, triangle_config, tmp_path, where):
        out = tmp_path / "missing" / "x.svg" if where == "missing_dir" else tmp_path
        with pytest.raises(SystemExit) as err:
            main(["render", "--config", triangle_config, "--out", str(out)])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}:")
        assert captured.err.count("\n") == 1


PATTERN_B = ["pattern", "--name", "pattern_b", "--x", "0.8", "--y", "1.2", "--d", "0.9"]


class TestOutputBytes:
    """The default output of every command, pinned byte for byte: the stages
    that read a configuration get the pattern_b one."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["pattern", "--name", "triangle"],
             "7e152825967ac9bdb4bf90df850f0574fed6e57237c32bef9a4878dbb2fd3404"),
            (PATTERN_B, "e03c27f49fd1df40e5485ebe690732d32f21b7a3fcf234e508ea0875c577293f"),
            # k = 2 and 1 are covered in closed form, the lattice reach
            # L = 0.86667 being at most r = 1: no witness, and radius_low the
            # area bound A.  The search gave 69c2b12b...79566f28ce, enclosure
            # [0.8666666666666395, 0.8666666666666989], at k = 2, and at
            # k = 1 f7b45037...c87f95f84, [0.63246, 0.91530], stopped once
            # decided, and 382c5412...c4c7c4359dec, [0.77015, 0.77015], to tol
            (["verify", "--k", "2"],
             "ad1fc80589f94dc8bfc7385511001ea6c76de302f70a44936156fed317f428d1"),
            (["verify", "--k", "1"],
             "7ca0b4e31c9b711b7e7481c58ab117e601665495fb72ddea1752bbd696929c3e"),
            # the search stops once its enclosure decides the verdict; run to
            # tol it gave 1f119a38...7c22d537, [1.22602, 1.22602]
            (["verify", "--k", "4"],
             "de6760d84b2627ed1e5d7bc918f64552d5b043235fe5b799ac6e73879ae6da8d"),
            (["radius", "--k", "2", "--tol", "1e-9"],
             "b6888c1f928ef574f595bccf9ac3a5c2671fbda4046adff7a9046275d4f9cd99"),
            (["density", "--k", "2"],
             "02c036b820f116ddbf61fa228069591ac4f8eb69922b91a4062c43b7e0f2c8a9"),
            (["voronoi", "--congruence"],
             "09cf3af5cde99d36a306ac7ef7ac822c22e3a70c032ed33ebbc8294057230527"),
            (["bounds", "--k", "2"],
             "d7dd22220b437eddc3edf8c52670652bb6267c88467128af3f84be5d1f740261"),
            # the digest of the SVG file; stdout stays empty
            (["render", "--size", "64"],
             "27ba46824b68e56d896075feef6e68ad1bc3aa8620cf08961e8b83cd280bbeca"),
            # aeeb5339...bfa4b3827 and f0b1a248...3b83615baba8f with
            # refinements until one lowered nothing: only "evaluations"
            # differed, 354 and 325 against 162 and 200
            (["optimize", "--k", "2"],
             "762e926c8aa972524d8e550c211830f21fb81cce4b773b5b6af68aca2320d6d8"),
            (["optimize", "--mode", "pattern-b", "--k", "2"],
             "14a98e25cb5fcc7365cecbd373d464a5267d7040aabe5648ca0c8948fc3d7ce5"),
        ],
        ids=["triangle", "pattern_b", "verify", "verify_covered", "verify_uncovered",
             "radius", "density", "voronoi", "bounds", "render", "optimize",
             "optimize_pattern_b"],
    )
    def test_sha256_of_output(self, capsys, tmp_path, argv, digest):
        config, svg = tmp_path / "config.json", tmp_path / "out.svg"
        code, out = _run(capsys, PATTERN_B)
        assert code == 0
        config.write_text(out)
        if argv[0] in ("verify", "radius", "density", "voronoi", "render"):
            argv = argv + ["--config", str(config)]
        if argv[0] == "render":
            argv = argv + ["--out", str(svg)]
        code, out = _run(capsys, argv)
        assert code == 0
        data = out.encode()
        if argv[0] == "render":
            assert data == b""
            data = svg.read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest


# a config whose u[0] is an int of 1 followed by `zeros` zeros
def _int_config(zeros: int) -> bytes:
    return b'{"u":[1' + b"0" * zeros + b',0],"v":[0,1],"offsets":[[0,0]],"radius":1}'


class TestExitCodes:
    """Malformed input, each with its documented exit code and a one-line error."""

    @pytest.mark.parametrize(
        "config, argv, code",
        [
            # float() read these strings as numbers, and the config certified
            pytest.param(b'{"u":["1",0],"v":[0,"1e0"],"offsets":[["0","0"]],"radius":" 1 "}',
                         ["verify", "--k", "1"], 3, id="string-numbers"),
            pytest.param(_int_config(400), ["verify"], 3, id="int-beyond-floats-verify"),
            pytest.param(_int_config(400), ["density"], 3, id="int-beyond-floats-density"),
            # more digits than Python converts to an int
            pytest.param(_int_config(5000), ["verify"], 3, id="int-of-5001-digits"),
            pytest.param(b"[" * 100000 + b"]" * 100000, ["verify"], 3, id="deep-nesting"),
            pytest.param(b"\xff\xfe{", ["verify"], 3, id="not-utf8"),
            pytest.param(b'{"u":[1,0],"v":[0,1],"offsets":[],"radius":1}',
                         ["verify"], 3, id="no-offsets"),
            pytest.param(b'{"u":[1,0],"v":[0,1],"offsets":[[0,0,0]],"radius":1}',
                         ["verify"], 3, id="offset-not-a-pair"),
            # a cycle of the basis reduction past |dot(u, v)| <= |u|^2 / 2
            pytest.param(b'{"u":[-5.656362004619225e-08,-6.560154461510338e-08],'
                         b'"v":[-40410019.78444752,16754419.062762985],'
                         b'"offsets":[[0,0]],"radius":1}',
                         ["verify"], 3, id="reduction-cycle"),
            # each offset's lattice coordinates are finite, but those of their
            # difference overflow in the reduced basis (test_lattice.py)
            pytest.param(b'{"u":[1.3e154,0],"v":[-0.9e154,0.9e154],'
                         b'"offsets":[[1.2987e154,0],[-0.8991e154,0.8991e154]],"radius":1e154}',
                         ["verify"], 3, id="offset-difference-overflows"),
            # 10 offsets past 1e144, where the separation check compares every
            # pair, two of them coinciding
            pytest.param(json.dumps({"u": [2.0**500, 0], "v": [0, 2.0**500], "radius": 2.0**500,
                                     "offsets": [[(i % 9 + 0.5) * 2.0**496, 2.0**499]
                                                 for i in range(10)]}).encode(),
                         ["verify"], 3, id="offsets-coincide-past-1e144"),
            pytest.param(None, ["verify", "--k", BIG], 4, id="k-beyond-floats-verify"),
            pytest.param(None, ["radius", "--k", BIG], 4, id="k-beyond-floats-radius"),
            pytest.param(None, ["density", "--k", BIG], 4, id="k-beyond-floats-density"),
            pytest.param(None, ["bounds", "--k", BIG], 4, id="k-beyond-floats-bounds"),
            pytest.param(None, ["render", "--size", BIG], 4, id="size-beyond-floats-render"),
            pytest.param(None, ["pattern", "--name", "pattern_b", "--x", "nan", "--y", "1",
                                "--d", "0.5"], 4, id="pattern-b-nan"),
        ],
    )
    def test_exit_code_and_one_error_line(self, capsys, tmp_path, config, argv, code):
        path = tmp_path / "config.json"
        # None: a valid config, so that the flag is what fails
        path.write_bytes(triangle_pattern().to_json().encode() if config is None else config)
        if argv[0] not in ("bounds", "pattern"):
            argv = argv + ["--config", str(path)]
        if argv[0] == "render":
            argv = argv + ["--out", str(tmp_path / "out.svg")]
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_non_utf8_stdin_exit_3(self):
        # strict UTF-8 decoding of stdin, as PYTHONIOENCODING=utf-8 sets it;
        # the POSIX locale's surrogateescape leaves bytes that fail as JSON
        proc = subprocess.run(
            [sys.executable, "-m", "diskcover", "verify"], input=b"\xff\xfe{",
            capture_output=True, timeout=120, env=child_env() | {"PYTHONIOENCODING": "utf-8"},
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1


class TestUsageErrors:
    def test_missing_subcommand_exit_2(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_unknown_flag_exit_2(self):
        with pytest.raises(SystemExit) as err:
            main(["bounds", "--quux"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [["verify", "--k", "2"], ["radius"], ["density"], ["voronoi"],
         ["render", "--out", "{svg}"]],
        ids=["verify", "radius", "density", "voronoi", "render"],
    )
    def test_closed_stdin_without_config_exit_2(self, argv, tmp_path):
        # `<&-` starts the child with stdin closed, so its sys.stdin is None
        svg = tmp_path / "out.svg"
        argv = [a.format(svg=svg) for a in argv]
        proc = subprocess.run(
            shlex.join([sys.executable, "-m", "diskcover", *argv]) + " <&-", shell=True,
            capture_output=True, text=True, timeout=120, env=child_env(),
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: no configuration: pass --config or pipe JSON\n"
        assert not svg.exists()

    @pytest.mark.parametrize(
        "argv", [["pattern", "--name", "triangle"], ["bounds", "--k", "2"]],
        ids=["pattern", "bounds"],
    )
    def test_closed_stdout_exit_2(self, argv):
        # `>&-` starts the child with stdout closed, so its sys.stdout is None
        proc = subprocess.run(
            shlex.join([sys.executable, "-m", "diskcover", *argv]) + " >&-", shell=True,
            capture_output=True, text=True, timeout=120, env=child_env(),
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: cannot write stdout:")
        assert proc.stderr.count("\n") == 1

    def test_closed_stdout_optimize_exit_2_before_the_search(self, tmp_path):
        # the search module is never imported, so no search runs, and the
        # --out history is never written
        out = tmp_path / "o.csv"
        argv = ["-X", "importtime", "-m", "diskcover", "optimize", "--k", "1",
                "--budget", "1000", "--out", str(out)]
        proc = subprocess.run(
            shlex.join([sys.executable, *argv]) + " >&-", shell=True,
            capture_output=True, text=True, timeout=120, env=child_env(),
        )
        assert proc.returncode == 2
        errors = [line for line in proc.stderr.splitlines() if not line.startswith("import time:")]
        assert len(errors) == 1 and errors[0].startswith("error: cannot write stdout:")
        assert "diskcover.optimize" not in _imported_modules(proc.stderr)
        assert not out.exists()

    def test_render_with_closed_stdout_writes_its_file(self, triangle_config, tmp_path):
        # render writes nothing to stdout, so a closed one is no error
        svg = tmp_path / "out.svg"
        argv = ["render", "--config", triangle_config, "--out", str(svg)]
        proc = subprocess.run(
            shlex.join([sys.executable, "-m", "diskcover", *argv]) + " >&-", shell=True,
            capture_output=True, text=True, timeout=120, env=child_env(),
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert svg.read_text().startswith("<svg")


class TestPipeline:
    @pytest.mark.parametrize(
        "argv", [["pattern", "--name", "triangle"], ["bounds", "--k", "2"]]
    )
    def test_closed_stdout_pipe_exits_141(self, argv):
        # the read end is closed before the child starts, so its first write
        # meets a pipe without a reader
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "diskcover", *argv],
                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
                env=child_env(),
            )
        finally:
            os.close(write_end)
        assert proc.returncode == cli.BROKEN_PIPE == 141
        assert proc.stderr == ""

    def test_pattern_pipes_into_verify(self):
        # -X importtime lists every module both processes import on stderr
        command = (
            f"{sys.executable} -X importtime -m diskcover pattern --name triangle"
            f" | {sys.executable} -X importtime -m diskcover verify --k 2 --tol 1e-6"
        )
        proc = subprocess.run(
            command, shell=True, capture_output=True, text=True, timeout=120,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["status"] == "tight"
        modules = _imported_modules(proc.stderr)
        assert _loads_numpy(modules) and "diskcover.optimize" not in modules
        assert not any(m == "scipy" or m.startswith("scipy.") for m in modules)
        # nor does a process that imports the optimizer
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import diskcover.optimize"],
            capture_output=True, text=True, timeout=120, env=child_env(),
        )
        modules = _imported_modules(proc.stderr)
        assert "diskcover.optimize" in modules
        assert not any(m == "scipy" or m.startswith("scipy.") for m in modules)


def _pattern_specs() -> list[PatternSpec]:
    # the named patterns, then seeded pattern_b triples
    specs = [PatternSpec(name) for name in ("triangle", "pattern_c_a", "pattern_c_b")]
    rng = np.random.default_rng(41)
    for _ in range(40):
        x = rng.uniform(0.3, 1.0)
        y = rng.uniform(0.2, math.sqrt(1.0 - x * x) + 1.0)
        specs.append(PatternSpec("pattern_b", x, y, rng.uniform(0.01, 1.99) * y))
    return specs


def _pattern_argv(spec: PatternSpec) -> list[str]:
    # repr gives the shortest decimal that reads back as the same float
    params = [(f"--{name}", getattr(spec, name)) for name in ("x", "y", "d")]
    return ["pattern", "--name", spec.name, *(
        arg for flag, value in params if value is not None for arg in (flag, repr(value))
    )]


class TestPipelineEqualsLibrary:
    """`pattern | stage` prints what the library computes on the pattern's
    own configuration: the JSON between them carries every bit of it."""

    def test_pattern_pipes_into_verify_and_radius(self, capsys, monkeypatch):
        for n, spec in enumerate(_pattern_specs()):
            code, text = _run(capsys, _pattern_argv(spec))
            assert code == 0
            config, k = spec.build(), 1 + n % 3
            enclosure = covering_radius(config, k, 1e-9)
            for stage, expected in (
                (["verify", "--k", str(k)], verify_k_coverage(config, k).to_dict()),
                (["radius", "--k", str(k), "--tol", "1e-9"], {
                    "k": k,
                    "low": enclosure.low,
                    "high": enclosure.high,
                    "witness": [enclosure.witness.x, enclosure.witness.y],
                    "converged": enclosure.converged,
                }),
            ):
                monkeypatch.setattr(sys, "stdin", io.StringIO(text))
                code, out = _run(capsys, stage)
                assert code == 0
                assert out == json.dumps(expected) + "\n", (spec, stage)

    def test_a_config_rebuilt_with_its_certified_radius_recertifies_to_it(self):
        # as the optimizer reports its winner: the searched config again,
        # with the upper end of its enclosure as the radius
        for spec in _pattern_specs():
            bare = spec.build()
            high = covering_radius(bare, 2, 1e-4).high
            config = PeriodicConfig(bare.basis, bare.offsets, high)
            assert config.offsets == bare.offsets
            assert covering_radius(config, 2, 1e-4).high == high
        for result in (optimize_single_lattice(2, tol=1e-4), optimize.optimize_pattern_b(tol=1e-4)):
            config = result.best_config
            enclosure = covering_radius(config, 2, 1e-4)
            assert enclosure.high == config.radius
            assert enclosure.certificate(2, config.radius, 1e-4) == result.certificate


def _loads_numpy(modules: set[str]) -> bool:
    return any(m == "numpy" or m.startswith("numpy.") for m in modules)


def _python(code: str) -> list[str]:
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


class TestImportGraph:
    """The package needs numpy alone, and loads it only where it computes
    with arrays: no command imports scipy."""

    @pytest.mark.parametrize(
        "argv, numpy_free",
        [
            (["pattern", "--name", "pattern_b", "--x", "0.8", "--y", "1.2", "--d", "0.9"], True),
            (["bounds", "--k", "2"], True),
            (["density", "--k", "2"], True),
            # the control: a stage that searches does load numpy
            (["radius", "--k", "2"], False),
            (["voronoi", "--congruence", "--tol", "1e-6"], True),
            (["render", "--size", "64", "--out", "{svg}"], True),
        ],
    )
    def test_stages_without_arrays_import_no_numpy(self, argv, numpy_free, tmp_path):
        svg = tmp_path / "out.svg"
        argv = [a.format(svg=svg) for a in argv]
        # the stages that read a configuration get it piped in
        reads_config = argv[0] in ("density", "voronoi", "render", "radius")
        stdin = triangle_pattern().to_json() if reads_config else None
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "diskcover", *argv],
            input=stdin, capture_output=True, text=True, timeout=120, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr[-500:]
        if argv[0] == "render":
            assert svg.read_text() == render_svg(triangle_pattern(), size=64)
        else:
            json.loads(proc.stdout)
        assert _loads_numpy(_imported_modules(proc.stderr)) is not numpy_free

    def test_numpy_loads_on_first_use(self):
        out = _python(
            "import sys, diskcover, diskcover.cli\n"
            "loaded = lambda: any(m.startswith('numpy.') for m in sys.modules)\n"
            "print(loaded())\n"
            "r = diskcover.covering_radius(diskcover.triangle_pattern(), 2, tol=1e-9)\n"
            "print(loaded(), repr(r.low), repr(r.high), r.boxes)\n"
        )
        # the enclosure pinned in test_coverage.py::test_pinned_enclosures
        assert out == ["False", "True", "0.9999999999999689", "1.0000000000000415", "49"]

    def test_numpy_imported_first_is_the_one_bound(self):
        out = _python(
            "import numpy\n"
            "from diskcover import coverage, lattice, optimize\n"
            "print(all(m.np is numpy for m in (coverage, lattice, optimize)))\n"
        )
        assert out == ["True"]

    def test_package_and_cli_import_without_scipy(self):
        code = (
            "import sys, diskcover, diskcover.cli, diskcover.optimize\n"
            "print('scipy' in sys.modules)"
        )
        assert _python(code) == ["False"]

    def test_optimizer_runs_with_scipy_blocked(self):
        # a None entry in sys.modules makes every scipy import fail
        block = "import sys; sys.modules['scipy'] = None\n"
        code = block + (
            "import hashlib\n"
            "from diskcover import optimize_single_lattice\n"
            "res = optimize_single_lattice(1, budget=1000, tol=1e-4)\n"
            "print(hashlib.sha256(repr(res.history).encode()).hexdigest())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=300,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        # the history digest pinned in test_memoized_objective_keeps_history;
        # 30f71065...2a0c2b52a5c0d with refinements from the 5 best grid
        # points, 3897fef9...b4d88f2e with the seeded random polish, and
        # e242452d...c1c0aed before basis reduction used plain float dot products
        assert proc.stdout.split() == [
            "ec557614bef38ce65316206abc100b0c7a56306506ac52750a08d446e22f99cf"
        ]
        code = block + "import runpy; runpy.run_module('diskcover', run_name='__main__')"
        argv = ["optimize", "--mode", "single-lattice", "--k", "1", "--budget", "1000",
                "--tol", "1e-4"]
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv], capture_output=True, text=True, timeout=300,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == optimize_single_lattice(
            1, budget=1000, tol=1e-4
        ).to_dict()

    @pytest.mark.parametrize(
        "argv",
        [
            PATTERN_B,
            ["bounds", "--k", "2"],
            ["density", "--k", "2"],
            ["voronoi", "--congruence"],
            ["render", "--size", "64", "--out", "{svg}"],
        ],
        ids=["pattern", "bounds", "density", "voronoi", "render"],
    )
    def test_stages_import_neither_dataclasses_nor_the_optimizer(self, argv, tmp_path):
        argv = [a.format(svg=tmp_path / "out.svg") for a in argv]
        stdin = None if argv[0] in ("pattern", "bounds") else triangle_pattern().to_json()
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "diskcover", *argv],
            input=stdin, capture_output=True, text=True, timeout=120, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr[-500:]
        modules = _imported_modules(proc.stderr)
        assert "diskcover.cli" in modules
        assert "dataclasses" not in modules and "diskcover.optimize" not in modules

    def test_package_import_loads_no_submodule(self):
        code = (
            "import sys, diskcover\n"
            "print(sorted(m for m in sys.modules if m.startswith('diskcover')))\n"
            "print('numpy' in sys.modules, 'dataclasses' in sys.modules)\n"
        )
        assert _python(code) == ["['diskcover']", "False", "False"]

    def test_voronoi_loads_no_coverage_layer(self):
        code = "import sys, diskcover.voronoi\nprint('diskcover.coverage' in sys.modules)\n"
        assert _python(code) == ["False"]

    def test_every_public_name_is_its_modules_object(self):
        import diskcover

        constants = {"STATUS_COVERED": "coverage", "STATUS_TIGHT": "coverage",
                     "STATUS_UNCOVERED": "coverage", "STATUS_UNDECIDED": "coverage",
                     "PATTERN_NAMES": "patterns"}
        for name in diskcover.__all__:
            obj = getattr(diskcover, name)
            where = obj.__module__ if name not in constants else f"diskcover.{constants[name]}"
            assert getattr(importlib.import_module(where), name) is obj, name
        namespace: dict = {}
        exec("from diskcover import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(diskcover.__all__)
        assert set(diskcover.__all__) <= set(dir(diskcover))
