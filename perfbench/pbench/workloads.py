"""The three workloads: how each op runs, is checked and enters the digest.

Each workload is a single caller issuing its next op when the previous
one completes.  `run` is the op as a user issues it; `run_layers` is the
same op in this process, so the traced run can see every layer (for the
CLI that means `cli.main` in-process instead of a shell pipeline).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from diskcover import (
    Point,
    covering_radius,
    density_report,
    kershner_theta,
    kth_nearest_distance,
    known_values,
    render_svg,
    toth_lower_bound,
    verify_k_coverage,
)
from diskcover import cli
from diskcover.lattice import PeriodicConfig
from diskcover.optimize import optimize_pattern_b, optimize_single_lattice
from diskcover.patterns import PatternSpec
from diskcover.voronoi import all_cells_congruent, congruence_signature, voronoi_cell

from . import checks, inputs

OPTIMIZE_TOL = 1e-4
PIPE_TIMEOUT_S = 60.0
OUT_DIR = Path(__file__).resolve().parents[1] / "out"


def _kth(config: PeriodicConfig, k: int):
    return lambda x, y: kth_nearest_distance(Point(x, y), config, k)


class Optimize:
    """optimize_single_lattice for k = 1..4, then optimize_pattern_b."""

    name = "optimize"
    # one round of five searches is the fixed pass that the digest and
    # the traced run cover
    min_rounds = 1

    def __init__(self, seed: int):
        self.seed = seed

    def round(self, index: int) -> list:
        return inputs.optimize_round(self.seed, index)

    def run(self, case):
        if case.mode == "single":
            return optimize_single_lattice(case.k, tol=OPTIMIZE_TOL, seed=case.seed)
        return optimize_pattern_b(tol=OPTIMIZE_TOL, seed=case.seed)

    def run_layers(self, case, tracer):
        if tracer is None:
            return self.run(case)
        return tracer.call("optimize.run", self.run, case)

    def check(self, case, result) -> list[str]:
        problems = checks.density_problems(case.mode, case.k, result.density)
        config = result.best_config
        problems += checks.certificate_problems(
            result.certificate.to_dict(), config.radius, _kth(config, case.k)
        )
        return problems

    def digest_item(self, case, result):
        return [result.density, result.evaluations, result.certificate.status]

    @staticmethod
    def evaluations(result) -> int:
        return result.evaluations


class Certify:
    """verify_k_coverage on stratified random and critical configurations."""

    name = "certify"
    # 15 rounds of 68 ops: at least 1000 ops, so op_p99_ms has at least
    # ten samples beyond it
    min_rounds = 15

    def __init__(self, seed: int):
        self.seed = seed

    def round(self, index: int) -> list:
        return inputs.certify_round(self.seed, index)

    def run(self, case):
        config = PeriodicConfig.from_dict(case.config)
        return config, verify_k_coverage(config, case.k, tol=inputs.CERTIFY_TOL)

    def run_layers(self, case, tracer):
        if tracer is None:
            return self.run(case)
        config = tracer.call("lattice.config_build", PeriodicConfig.from_dict, case.config)
        cert = tracer.call(
            "coverage.verify", verify_k_coverage, config, case.k, tol=inputs.CERTIFY_TOL
        )
        return config, cert

    def check(self, case, result) -> list[str]:
        config, cert = result
        return checks.certificate_problems(
            cert.to_dict(), config.radius, _kth(config, case.k), critical=case.critical
        )

    def digest_item(self, case, result):
        _, cert = result
        return [cert.status, cert.radius_low, cert.radius_high]

    @staticmethod
    def evaluations(result) -> int:
        return 0


class Cli:
    """Shell pipelines through `python -m diskcover`, one pipeline at a time."""

    name = "cli"
    min_rounds = 2

    def __init__(self, seed: int):
        self.seed = seed
        self.render_path = str(OUT_DIR / f"cli-render-{os.getpid()}.svg")

    def round(self, index: int) -> list:
        return inputs.cli_round(self.seed, index)

    def _argv(self, stage) -> list[str]:
        return [self.render_path if a == inputs.RENDER_OUT else a for a in stage]

    def run(self, case):
        """The pipeline as separate processes joined by a pipe."""
        procs = []
        try:
            stdin = subprocess.DEVNULL
            for stage in case.stages:
                last = len(procs) == len(case.stages) - 1
                proc = subprocess.Popen(
                    [sys.executable, "-m", "diskcover", *self._argv(stage)],
                    stdin=stdin,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE if last else subprocess.DEVNULL,
                    text=True,
                )
                if procs:
                    procs[-1].stdout.close()
                procs.append(proc)
                stdin = proc.stdout
            out, err = procs[-1].communicate(timeout=PIPE_TIMEOUT_S)
            codes = [p.wait(timeout=PIPE_TIMEOUT_S) for p in procs]
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if any(codes):
            raise RuntimeError(f"exit codes {codes}: {err.strip()[-200:]}")
        return self._result(case, out)

    def run_layers(self, case, tracer):
        """The same pipeline through cli.main in this process."""
        text = ""
        for stage in case.stages:
            text = self._main(self._argv(stage), text, tracer)
        return self._result(case, text)

    @staticmethod
    def _main(argv: list[str], stdin_text: str, tracer) -> str:
        saved = sys.stdin, sys.stdout
        sys.stdin, sys.stdout = io.StringIO(stdin_text), io.StringIO()
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.call("cli.main", cli.main, argv)
            text = sys.stdout.getvalue()
        except SystemExit as exc:
            raise RuntimeError(f"usage error in {argv}") from exc
        finally:
            sys.stdin, sys.stdout = saved
        if code != 0:
            raise RuntimeError(f"exit code {code} from {argv}")
        return text

    def _result(self, case, stdout: str):
        if case.kind != "render":
            return stdout, None
        with open(self.render_path, encoding="utf-8") as fh:
            svg = fh.read()
        os.remove(self.render_path)
        return stdout, svg

    def check(self, case, result) -> list[str]:
        stdout, svg = result
        expected, config = _library_result(case)
        if case.kind == "render":
            return [] if svg == expected else ["render output differs from render_svg"]
        got = json.loads(stdout)
        problems = []
        if got != json.loads(json.dumps(expected)):
            problems.append(f"{case.kind} output differs from the library result")
        if case.kind == "verify":
            k = int(_flag(case.stages[-1], "--k"))
            problems += checks.certificate_problems(got, config.radius, _kth(config, k))
        return problems

    def digest_item(self, case, result):
        stdout, svg = result
        if svg is None:
            return stdout
        return hashlib.sha256(svg.encode()).hexdigest()

    @staticmethod
    def evaluations(result) -> int:
        return 0


def _flag(argv, name: str) -> str:
    return argv[argv.index(name) + 1]


def _library_result(case):
    """What the pipeline should print, computed by library calls in-process."""
    consumer = case.stages[-1]
    if case.kind == "bounds":
        return _bounds_payload(int(_flag(consumer, "--k"))), None
    producer = case.stages[0]
    spec = PatternSpec(
        _flag(producer, "--name"),
        *(float(_flag(producer, f)) if f in producer else None for f in ("--x", "--y", "--d")),
    )
    # the consumer parses the producer's JSON, so build from that text too
    config = PeriodicConfig.from_json(json.dumps(spec.build().to_dict()))
    if case.kind == "render":
        return render_svg(config, size=int(_flag(consumer, "--size"))), config
    if case.kind == "voronoi":
        return _voronoi_payload(config, float(_flag(consumer, "--tol"))), config
    k = int(_flag(consumer, "--k"))
    if case.kind == "density":
        return density_report(config, k).to_dict(), config
    tol = float(_flag(consumer, "--tol"))
    if case.kind == "verify":
        return verify_k_coverage(config, k, tol).to_dict(), config
    enclosure = covering_radius(config, k, tol)
    return {
        "k": k,
        "low": enclosure.low,
        "high": enclosure.high,
        "witness": [enclosure.witness.x, enclosure.witness.y],
        "converged": enclosure.converged,
    }, config


def _voronoi_payload(config: PeriodicConfig, tol: float) -> dict:
    cells = [voronoi_cell(config, i) for i in range(len(config.offsets))]
    congruent, classes = all_cells_congruent(config, tol)
    return {
        "cells": [
            {
                "site": [c.site.x, c.site.y],
                "vertices": [[p.x, p.y] for p in c.polygon.vertices],
                "area": c.polygon.area,
            }
            for c in cells
        ],
        "all_congruent": congruent,
        "class_count": len(classes),
        "cell_class": [classes.index(congruence_signature(c, tol)) for c in cells],
    }


def _bounds_payload(k: int) -> dict:
    table = known_values()
    payload = {
        "k": k,
        "theta": kershner_theta(),
        "toth": toth_lower_bound(k),
        "known_values": table,
    }
    blundon = {1: "theta", 2: "blundon_2", 3: "blundon_3", 4: "blundon_4"}
    if k in blundon:
        payload["blundon"] = table[blundon[k]]
    if k == 2:
        payload["danzer"] = [table["danzer_low"], table["danzer_high"]]
    return payload


WORKLOADS = {w.name: w for w in (Optimize, Certify, Cli)}
