"""Tests of the benchmark harness itself (inputs, checks, tracing)."""

from __future__ import annotations

import sys
import time
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

from pbench import checks, inputs  # noqa: E402
from pbench.trace import Tracer, instrument, layer_metrics, self_times  # noqa: E402

GENERATORS = (inputs.optimize_round, inputs.certify_round, inputs.cli_round)


@pytest.mark.parametrize("generate", GENERATORS)
def test_same_seed_same_inputs(generate):
    assert generate(7, 3) == generate(7, 3)
    assert generate(7, 3) != generate(8, 3)
    assert generate(7, 3) != generate(7, 4)


def test_stratification_gives_every_seed_the_same_class_counts():
    def stratum(case):
        return case.family if case.critical else (case.k, len(case.config["offsets"]))

    def counts(seed):
        return Counter(stratum(c) for i in range(3) for c in inputs.certify_round(seed, i))

    expected = counts(0)
    assert len(expected) == 8 * 8 + len(inputs.CRITICAL_FAMILIES)
    assert set(expected.values()) == {3}
    for seed in (1, 2, 12345):
        assert counts(seed) == expected


def test_cli_rounds_hold_one_pipeline_of_each_kind():
    for seed in (0, 1):
        kinds = sorted(case.kind for case in inputs.cli_round(seed, 0))
        assert kinds == sorted(inputs.CLI_KINDS)


def _cert(status, low, high, witness=(0.5, 0.5)):
    return {
        "k": 2,
        "status": status,
        "witness": None if witness is None else list(witness),
        "radius_low": low,
        "radius_high": high,
    }


def test_checks_accept_consistent_certificates():
    far = lambda x, y: 2.0  # noqa: E731
    assert checks.certificate_problems(_cert("certified_uncovered", 1.5, 1.6), 1.0, far) == []
    assert checks.certificate_problems(_cert("certified_covered", 0.5, 0.6), 1.0) == []
    assert checks.certificate_problems(_cert("tight", 1.0 - 1e-10, 1.0), 1.0, critical=True) == []
    assert checks.certificate_problems(_cert("undecided", 0.9, 1.1), 1.0) == []


@pytest.mark.parametrize(
    "cert, radius, kth_at, critical",
    [
        # low > r proves uncovered, whatever the tolerance says
        (_cert("tight", 1.001, 1.002), 1.0, None, False),
        # high <= r proves covered
        (_cert("certified_uncovered", 0.5, 0.9), 1.0, None, False),
        (_cert("undecided", 0.5, 0.9), 1.0, None, False),
        # a witness that is in fact covered
        (_cert("certified_uncovered", 1.5, 1.6), 1.0, lambda x, y: 0.9, False),
        (_cert("certified_uncovered", 1.5, 1.6, witness=None), 1.0, None, False),
        # a critical configuration must be tight
        (_cert("certified_covered", 0.5, 0.9), 1.0, None, True),
        (_cert("certified_covered", 1.1, 1.0), 2.0, None, False),
    ],
)
def test_checks_reject_inconsistent_certificates(cert, radius, kth_at, critical):
    assert checks.certificate_problems(cert, radius, kth_at, critical=critical)


def test_density_checks_use_the_known_optima():
    assert checks.density_problems("single", 1, checks.THETA * (1 + 5e-4)) == []
    assert checks.density_problems("single", 1, checks.THETA * (1 + 2e-3))
    assert checks.density_problems("single", 3, 2.841 * checks.THETA * 1.005) == []
    assert checks.density_problems("pattern_b", 2, 2 * checks.THETA + 0.02)


def test_self_times_sum_to_the_root_span():
    tracer = Tracer()
    root = tracer.begin("bench.pass")
    for _ in range(3):
        outer = tracer.begin("a.outer")
        tracer.call("b.inner", time.sleep, 0.001)
        tracer.call("b.inner", lambda: None)
        tracer.end(outer)
    tracer.end(root)
    own = self_times(tracer.spans)
    _, start, end, _ = tracer.spans[root]
    assert sum(own) == end - start
    assert all(t >= 0 for t in own)


def test_traced_certify_pass_accounts_for_its_wall_and_restores_names():
    import diskcover.coverage as coverage
    from pbench.workloads import Certify

    original = coverage.covering_radius
    workload = Certify(0)
    cases = [c for c in workload.round(0) if c.critical][:2]
    tracer = Tracer()
    with instrument(tracer):
        root = tracer.begin("bench.pass")
        results = [workload.run_layers(case, tracer) for case in cases]
        tracer.end(root)
    assert coverage.covering_radius is original
    assert all(workload.check(c, r) == [] for c, r in zip(cases, results))
    _, start, end, _ = tracer.spans[root]
    assert sum(self_times(tracer.spans)) == end - start
    layers = layer_metrics(tracer)
    assert layers["coverage.calls"][0] == 2
    assert layers["lattice.config_builds"][0] == 2
    assert layers["coverage.boxes"][0] > 0
    assert layers["lattice.reduce_basis_calls"][0] > 0


def test_calibrator_probes_in_proportion_to_op_time():
    from pbench.probe import PROBE_REF_S, PROBE_SHARE, Calibrator

    calibrator = Calibrator()
    calibrator.after_op(0.2)
    assert sum(calibrator.samples) >= PROBE_SHARE * 0.2
    calibrator.samples = [PROBE_REF_S, 2 * PROBE_REF_S]
    assert calibrator.speed() == pytest.approx(2 / 3)
