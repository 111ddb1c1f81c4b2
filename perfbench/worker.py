"""Closed-loop client: one process, one thread, one instance at a time.

Reads a job from stdin: ``{"passes": [[[argv, text], ...], ...],
"seconds": s or null, "trace": bool}``.  Imports ``torsep.cli`` afresh
(so its caches start empty), then calls ``torsep.cli.main`` on each
instance in turn, exactly as one ``--batch`` line is handled (parse,
decide, re-verify every certificate, emit JSON), and sends the next one
only after the previous call returned.

Only whole passes are run, so every run sees the same mix of instances.
With ``seconds`` set, passes run until there are ``MIN_SAMPLES`` calls
(enough for a 90th percentile with ten samples beyond it); after that a
pass starts only if the previous pass's duration says it ends in time.

Writes one JSON line per call (exit code, milliseconds, report text)
and a final line with the loop's wall time, the process's peak RSS and,
when tracing, the raw per-layer statistics.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time

MIN_SAMPLES = 100


def call_cli(cli, argv, text):
    """Run ``cli.main(argv + ['--format', 'json', '-'])`` on ``text``.

    Returns (exit code, stdout text, stderr text, seconds).
    """
    saved = sys.stdin, sys.stdout, sys.stderr
    out, err = io.StringIO(), io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), out, err
    start = time.perf_counter()
    try:
        code = cli.main([*argv, "--format", "json", "-"])
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        elapsed = time.perf_counter() - start
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue(), elapsed


def main() -> int:
    job = json.load(sys.stdin)
    import torsep.cli as cli

    tracer = None
    if job["trace"]:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    seconds = job["seconds"]
    write = sys.stdout.write
    k = 0
    start = last = time.perf_counter()
    for batch in job["passes"]:
        now = time.perf_counter()
        if (seconds is not None and k >= MIN_SAMPLES
                and now + (now - last) - start > seconds):
            break
        last = now
        for argv, text in batch:
            code, out, err, elapsed = call_cli(cli, argv, text)
            write(json.dumps({"k": k, "code": code, "s": elapsed, "out": out,
                              "err": err[-2000:]}) + "\n")
            k += 1
    wall = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    final = {"wall_s": wall, "peak_rss_kb": peak_kb,
             "layers": tracer.summary() if tracer else None}
    write(json.dumps(final) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
