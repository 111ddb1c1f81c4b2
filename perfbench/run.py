"""torsep benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload verify-small --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, both modes

Run from the repository root; torsep is imported from ``src/``.  Every
timed process is a fresh interpreter, so torsep's caches start empty
as they do for a command-line user.

``--trace 0`` reports the end-to-end metrics of one closed-loop run of
as many whole catalog passes as fit in ``--seconds`` seconds (at least
one); ``--trace 1`` runs one pass untraced and then traced, and reports
the per-layer metrics.  Every
answer is checked outside the timed region (see ``workloads.check``).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import layer_metrics, per_layer_metric_names  # noqa: E402
from workloads import WORKLOADS, check, load_catalog, stream  # noqa: E402

SETUP_LAUNCHES = 5  # before and again after the timed run; plus one warm-up
WORKER_TIMEOUT_S = 160
PASSES = 20  # passes on offer; a run stops after the last whole pass in --seconds


def _env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH", "")) if p
    )
    env["PYTHONHASHSEED"] = "0"
    return env


# Times, inside a fresh interpreter, the import of torsep.cli and the
# parsing of `--help` (which builds the whole parser).  Timing inside
# leaves out process launch, whose cost on a shared host jumps in steps
# of tens of milliseconds that torsep cannot affect.
_SETUP_PROBE = """
import contextlib, io, time
start = time.perf_counter()
import torsep.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
    torsep.cli.main(["--help"])
print(time.perf_counter() - start)
"""


def time_setup(env, launches) -> list[float]:
    """Set-up times of ``launches`` fresh interpreters."""
    return [
        float(subprocess.run([sys.executable, "-c", _SETUP_PROBE], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=60).stdout)
        for _ in range(launches)
    ]


def run_worker(env, passes, seconds, trace):
    """One fresh worker process over ``passes``; returns (calls, final)."""
    job = json.dumps({"passes": [[[list(i.argv), i.text] for i in items]
                                 for items in passes],
                      "seconds": seconds, "trace": trace})
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=job,
                          capture_output=True, text=True, env=env,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-3000:]}")
    lines = proc.stdout.splitlines()
    return [json.loads(line) for line in lines[:-1]], json.loads(lines[-1])


def grade(items, calls):
    """Check every answer; returns per-call seconds (inf when failed) and
    the list of failures."""
    latencies, failures = [], []
    for call in calls:
        problems = check(items[call["k"]], call["code"], call["out"])
        if problems:
            failures.append({"k": call["k"], "problems": problems[:3],
                             "stderr": call["err"][-300:]})
            latencies.append(math.inf)
        else:
            latencies.append(call["s"])
    return latencies, failures


def percentile(values, q):
    """Harrell-Davis estimate of the q-quantile.

    A weighted mean of all order statistics, the weight of the i-th
    being the Beta(q(n+1), (1-q)(n+1)) probability of ((i-1)/n, i/n].
    It varies less from run to run than a single order statistic.
    Weights below 1e-9 are dropped, so an infinite (failed) sample
    counts only when it lies near the quantile.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 16  # midpoint rule inside each interval
    total = weights = 0.0
    for i, value in enumerate(ordered):
        weight = sum(
            math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
            for x in ((i + (s + 0.5) / steps) / n for s in range(steps))
        )
        if weight > 1e-9 * steps * n:
            total += weight * value
            weights += weight
    return total / weights


def _finite(x):
    return x if math.isfinite(x) else sys.float_info.max


def end_to_end(workload, seed, seconds, env):
    passes = stream(load_catalog(workload), seed, PASSES)
    items = [item for batch in passes for item in batch]
    time_setup(env, 1)  # warm-up: the first launch writes the bytecode cache
    # Launches on both sides of the timed run see the machine at two times.
    setup = time_setup(env, SETUP_LAUNCHES)
    calls, final = run_worker(env, passes, seconds, trace=False)
    setup += time_setup(env, SETUP_LAUNCHES)
    latencies, failures = grade(items, calls)
    passed = sum(1 for x in latencies if math.isfinite(x))
    metrics = {
        "verdicts_per_s": (passed / final["wall_s"], "1/s"),
        "verdict_ms_p50": (_finite(percentile(latencies, 0.5) * 1000), "ms"),
        "verdict_ms_p90": (_finite(percentile(latencies, 0.9) * 1000), "ms"),
        "peak_rss_mb": (final["peak_rss_kb"] / 1024, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    return len(calls), failures, metrics


def per_layer(workload, seed, env):
    passes = stream(load_catalog(workload), seed, 1)
    items = passes[0]
    plain, _ = run_worker(env, passes, None, trace=False)
    traced, final = run_worker(env, passes, None, trace=True)
    _, failures = grade(items, plain + traced)
    raw = layer_metrics(final["layers"], sum(c["s"] for c in plain))
    units = {name: unit for name, unit, _ in per_layer_metric_names()}
    metrics = {name: (raw[name], units[name]) for name in units}
    return len(plain) + len(traced), failures, metrics


def run_one(workload, seed, seconds, trace, env):
    if trace:
        attempted, failures, metrics = per_layer(workload, seed, env)
    else:
        attempted, failures, metrics = end_to_end(workload, seed, seconds, env)
    for f in failures[:10]:
        print(f"FAILED {workload}[{f['k']}]: {f['problems']} {f['stderr']}",
              file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{workload:13s} {name:42s} {value:14.6f} {unit}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "torsep" / "cli.py").is_file():
        print("error: run from the repository root (src/torsep not found)",
              file=sys.stderr)
        return 2
    env = _env(src)
    if args.workload != "all":
        result = run_one(args.workload, args.seed, args.seconds, args.trace, env)
        print(json.dumps(result))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_one(workload, args.seed, args.seconds, trace, env)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, entry in result["metrics"].items():
                combined["metrics"][f"{workload}/{name}"] = entry
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
