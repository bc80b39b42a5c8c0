import json
import math
import subprocess
import sys
import warnings

import pytest

from diskcover import kershner_theta, optimize_single_lattice, triangle_pattern
from diskcover.cli import main

THETA = kershner_theta()


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

    def test_malformed_config_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["verify", "--config", str(bad)]) == 3

    def test_missing_file_exit_3(self, capsys):
        assert main(["verify", "--config", "/nonexistent/cfg.json"]) == 3

    def test_unreducible_basis_exit_3(self, tmp_path, capsys):
        path = tmp_path / "skewed.json"
        path.write_text(
            json.dumps({"u": [1e-16, 2e-16], "v": [4e29, -2e29], "offsets": [[0, 0]], "radius": 1.0})
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

    @pytest.mark.parametrize(
        "payload",
        [
            # lattice indices past the int64 range; an unguarded cast wrapped
            # them and certified these disks, which do 2-cover, as uncovered
            {"u": [1e-155, 0], "v": [1e150, 1e150], "offsets": [[0, 0]], "radius": 5.001e149},
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
                "--seed",
                "0",
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


class TestRenderCommand:
    def test_svg_deterministic(self, capsys, triangle_config, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        assert main(["render", "--config", triangle_config, "--out", str(a)]) == 0
        assert main(["render", "--config", triangle_config, "--out", str(b)]) == 0
        text = a.read_text()
        assert text.startswith("<svg")
        assert "<circle" in text
        assert text == b.read_text()


class TestUsageErrors:
    def test_missing_subcommand_exit_2(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_unknown_flag_exit_2(self):
        with pytest.raises(SystemExit) as err:
            main(["bounds", "--quux"])
        assert err.value.code == 2


class TestPipeline:
    def test_pattern_pipes_into_verify(self):
        # -X importtime lists every module both processes import on stderr
        command = (
            f"{sys.executable} -X importtime -m diskcover pattern --name triangle"
            f" | {sys.executable} -X importtime -m diskcover verify --k 2 --tol 1e-6"
        )
        proc = subprocess.run(
            command, shell=True, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["status"] == "tight"
        modules = _imported_modules(proc.stderr)
        assert "diskcover.optimize" in modules
        assert not any(m == "scipy" or m.startswith("scipy.") for m in modules)


class TestImportGraph:
    """scipy is imported by the optimizer's first refinement and nowhere else."""

    def test_package_and_cli_import_without_scipy(self):
        code = "import sys, diskcover, diskcover.cli; print('scipy' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_optimizer_reaches_scipy_with_pinned_history(self):
        code = (
            "import hashlib, sys\n"
            "from diskcover import optimize_single_lattice\n"
            "before = 'scipy.optimize' in sys.modules\n"
            "res = optimize_single_lattice(1, budget=1000, tol=1e-4, seed=7)\n"
            "print(before, 'scipy.optimize' in sys.modules,"
            " hashlib.sha256(repr(res.history).encode()).hexdigest())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        # the history digest pinned in test_memoized_objective_keeps_history
        assert proc.stdout.split() == [
            "False", "True", "c8d0f13fc7f293f7c8b3af0db461d1d14291ad14910f34f2f3d2757b03a99dfa"
        ]
        argv = ["optimize", "--mode", "single-lattice", "--k", "1", "--budget", "1000",
                "--tol", "1e-4", "--seed", "7"]
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "diskcover", *argv],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0
        assert "scipy.optimize" in _imported_modules(proc.stderr)
        assert json.loads(proc.stdout) == optimize_single_lattice(
            1, budget=1000, tol=1e-4, seed=7
        ).to_dict()
