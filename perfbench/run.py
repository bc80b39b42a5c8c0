"""Benchmark of diskcover: the optimize, certify and cli workloads.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each workload runs in fresh interpreters
(perfbench/pbench/worker.py): several that only set up, for the set-up
time, then one that measures whole rounds, closed loop, for --seconds.
With --trace 1 one worker runs a fixed pass traced and reports per-layer
metrics, and another runs the same pass untraced for the tracing overhead.  `--workload all` runs the three in
turn.  The next-to-last line of stdout is a JSON report with every metric,
its unit and sample count, the results digest and the machine; the last
line is the result in the form BENCHMARK.json's metric lists define.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
SRC_DIR = ROOT / "src"
WORKLOADS = ("optimize", "certify", "cli")

SETUP_ONLY_RUNS = 4  # plus the measuring worker's own set-up
INTERP_SAMPLES = 5
IMPORT_SAMPLES = 3
TIME_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    paths = [str(BENCH_DIR), str(SRC_DIR)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _run(argv: list[str], deadline: float) -> tuple[float, str]:
    """Run a child in its own process group; returns (start time, stdout)."""
    start = time.monotonic()
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"timed out: {' '.join(argv)}") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"exit {proc.returncode} from {' '.join(argv)}:\n{err[-2000:]}")
    return start, out


def _worker(mode: str, workload: str, seed: int, seconds: float, deadline: float) -> dict:
    argv = [
        sys.executable, "-m", "pbench.worker", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
    ]
    start, out = _run(argv, deadline)
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"no output from worker {mode} {workload}")
    data = json.loads(lines[-1])
    data["setup_s"] = data["ready_t"] - start
    return data


def measure(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    workers = [
        _worker("setup", workload, seed, seconds, deadline) for _ in range(SETUP_ONLY_RUNS)
    ]
    data = _worker("measure", workload, seed, seconds, deadline)
    workers.append(data)
    setups = [w["setup_s"] for w in workers]
    setups_at_ref = [w["setup_s"] * w["speed"] for w in workers]
    rounds, ops = data["round_s"], data["op_s"]
    busy = sum(rounds)
    speed = data["speed"]
    # the gated timings are at reference speed (pbench/probe.py); raw beside them
    metrics = {
        "setup_s": (statistics.median(setups_at_ref), "s", len(setups)),
        "wall_s": (statistics.median(rounds) * speed, "s", len(rounds)),
        "op_p50_ms": (statistics.median(ops) * 1e3 * speed, "ms", len(ops)),
        "setup_raw_s": (statistics.median(setups), "s", len(setups)),
        "wall_raw_s": (statistics.median(rounds), "s", len(rounds)),
        "op_p50_raw_ms": (statistics.median(ops) * 1e3, "ms", len(ops)),
        "speed_factor": (speed, "ratio", data["probes"]),
        "ops_per_s": (len(ops) / busy, "1/s", len(ops)),
        "peak_rss_mb": (data["peak_rss_mb"], "MB", 1),
        "fail_ratio": (data["failed"] / len(ops), "ratio", len(ops)),
    }
    if data["evaluations"]:
        metrics["evals_per_s"] = (data["evaluations"] / busy, "1/s", len(ops))
    # the highest percentile with at least ten samples beyond it
    if len(ops) >= 1000:
        metrics["op_p99_ms"] = (statistics.quantiles(ops, n=100)[98] * 1e3, "ms", len(ops))
    return {**data, "metrics": metrics, "attempted": len(ops)}


def trace(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    # the same fixed pass untraced, in its own interpreter so that nothing
    # one pass leaves behind in the program can speed up the other
    plain = _worker("plain", workload, seed, seconds, deadline)
    data = _worker("trace", workload, seed, seconds, deadline)
    metrics = {name: tuple(v) for name, v in data["layers"].items()}
    overhead = statistics.median(data["round_s"]) - statistics.median(plain["round_s"])
    metrics["trace.overhead_s"] = (overhead, "s", len(data["round_s"]))
    data["attempted"] += plain["attempted"]
    data["failed"] += plain["failed"]
    data["problems"] += plain["problems"]
    interp = []
    for _ in range(INTERP_SAMPLES):
        start, _ = _run([sys.executable, "-c", "pass"], deadline)
        interp.append(time.monotonic() - start)
    metrics["cli.interp_ms"] = (statistics.median(interp) * 1e3, "ms", len(interp))
    code = (
        "import time; t = time.perf_counter(); import diskcover.cli; "
        "print(time.perf_counter() - t)"
    )
    imports = [
        float(_run([sys.executable, "-c", code], deadline)[1]) for _ in range(IMPORT_SAMPLES)
    ]
    metrics["cli.import_ms"] = (statistics.median(imports) * 1e3, "ms", len(imports))
    return {**data, "metrics": metrics}


def _declared(trace_on: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace_on else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC_DIR / "diskcover" / "__init__.py").is_file():
        print(f"error: no diskcover sources under {SRC_DIR}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    declared = _declared(bool(args.trace))
    correct, attempted, failed, final = True, 0, 0, {}
    try:
        for name in names:
            run = trace if args.trace else measure
            data = run(name, args.seed, args.seconds, deadline)
            missing = [
                m for m, unit in declared.items()
                if m not in data["metrics"] or data["metrics"][m][1] != unit
            ]
            if missing:
                raise BenchError(f"{name}: metrics missing or in another unit: {missing}")
            report = {
                "workload": name,
                "seed": args.seed,
                "trace": args.trace,
                "metrics": {
                    m: {"value": v, "unit": u, "samples": n}
                    for m, (v, u, n) in data["metrics"].items()
                },
                "attempted": data["attempted"],
                "failed": data["failed"],
                "problems": data["problems"],
                "digest": data["digest"],
                "machine": data["machine"],
            }
            print(json.dumps({"report": report}), flush=True)
            correct = correct and data["failed"] == 0
            attempted += data["attempted"]
            failed += data["failed"]
            prefix = "" if len(names) == 1 else f"{name}."
            for m, unit in declared.items():
                final[prefix + m] = {"value": data["metrics"][m][0], "unit": unit}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": final}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
