"""One workload in one fresh interpreter; prints a JSON summary on stdout.

Modes:
  setup    import diskcover, build the inputs, report when ready, probe
           the machine's speed, exit;
  measure  then run whole rounds, closed loop, until --seconds have passed
           (and at least the workload's minimum), untraced, probing the
           machine's speed between ops (see probe.py);
  trace    run the minimum rounds traced (cli.main in-process for the
           cli workload) and report per-layer metrics; spans go to
           perfbench/out/;
  plain    the same pass untraced, for the tracing overhead.

Run from the checkout root with perfbench/ and src/ on PYTHONPATH:
  python -m pbench.worker --workload certify --seed 1 --seconds 20 --mode measure
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
import time

from .probe import Calibrator

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="pbench.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument(
        "--mode", choices=("setup", "measure", "plain", "trace"), required=True
    )
    args = parser.parse_args(argv)

    from .workloads import OUT_DIR, WORKLOADS  # imports diskcover, part of set-up

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed)
    rounds = [workload.round(i) for i in range(workload.min_rounds)]
    ready_t = time.monotonic()
    if args.mode == "setup":
        calibrator = Calibrator()
        calibrator.edge()
        calibrator.edge()
        summary = {"speed": calibrator.speed()}
    elif args.mode == "measure":
        summary = measure(workload, rounds, args.seconds)
    else:
        summary = layers_pass(workload, rounds, args.seed, traced=args.mode == "trace")
    summary["ready_t"] = ready_t
    summary["machine"] = machine_facts()
    print(json.dumps(summary))
    return 0


def run_round(cases, run, after_op=None) -> tuple[list, list[float]]:
    """Issue each op once the previous one completes; exceptions are kept."""
    results, op_s = [], []
    for case in cases:
        start = time.perf_counter()
        try:
            results.append((case, run(case), None))
        except Exception as exc:  # an op that raises counts as failed
            results.append((case, None, f"{type(exc).__name__}: {exc}"))
        op_s.append(time.perf_counter() - start)
        if after_op is not None:
            after_op(op_s[-1])
    return results, op_s


def measure(workload, rounds: list, seconds: float) -> dict:
    results, op_s, round_s = [], [], []
    calibrator = Calibrator()
    calibrator.edge()
    start = time.perf_counter()
    index = 0
    while index < workload.min_rounds or time.perf_counter() - start < seconds:
        cases = rounds[index] if index < len(rounds) else workload.round(index)
        got, times = run_round(cases, workload.run, calibrator.after_op)
        round_s.append(sum(times))
        results += got
        op_s += times
        index += 1
    calibrator.edge()
    usage = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    failed, problems = check_all(workload, results)
    return {
        "round_s": round_s,
        "op_s": op_s,
        "evaluations": sum(workload.evaluations(r) for _, r, err in results if err is None),
        "failed": failed,
        "problems": problems[:5],
        "digest": digest(workload, results[: sum(len(r) for r in rounds)]),
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
        "speed": calibrator.speed(),
        "probes": len(calibrator.samples),
    }


def layers_pass(workload, rounds: list, seed: int, traced: bool) -> dict:
    """The minimum rounds through `run_layers`, traced or not."""
    from .trace import Tracer, instrument, layer_metrics
    from .workloads import OUT_DIR

    tracer = Tracer() if traced else None
    results, round_s = [], []
    with instrument(tracer) if traced else contextlib.nullcontext():
        root = tracer.begin("bench.pass") if traced else None
        for cases in rounds:
            t0 = time.perf_counter()
            got, _ = run_round(cases, lambda c: workload.run_layers(c, tracer))
            round_s.append(time.perf_counter() - t0)
            results += got
        if traced:
            tracer.end(root)
    failed, problems = check_all(workload, results)
    summary = {
        "round_s": round_s,
        "attempted": len(results),
        "failed": failed,
        "problems": problems[:5],
        "digest": digest(workload, results),
    }
    if traced:
        tracer.write(OUT_DIR / f"spans-{workload.name}-seed{seed}.csv")
        layers = layer_metrics(tracer)
        evaluations = sum(workload.evaluations(r) for _, r, err in results if err is None)
        layers["optimize.evaluations"] = (evaluations, "count", len(results))
        summary["layers"] = {name: list(v) for name, v in layers.items()}
    return summary


def check_all(workload, results: list) -> tuple[int, list[str]]:
    failed, problems = 0, []
    for case, result, error in results:
        found = [error] if error else []
        if not error:
            try:
                found = workload.check(case, result)
            except Exception as exc:  # unreadable output fails the op
                found = [f"check raised {type(exc).__name__}: {exc}"]
        if found:
            failed += 1
            problems.append(f"{case}: {'; '.join(found)}"[:400])
    return failed, problems


def digest(workload, results: list) -> str:
    items = [
        workload.digest_item(case, result) if error is None else f"error: {error}"
        for case, result, error in results
    ]
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()


def machine_facts() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


if __name__ == "__main__":
    sys.exit(main())
