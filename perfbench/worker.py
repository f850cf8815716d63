"""One measurement in a fresh interpreter: run rounds of CLI commands in process.

Reads a JSON spec on stdin ({"ops": [argv, ...], "seconds": S, "trace":
bool, "period": P}) and prints one JSON object on stdout with the raw
timestamps, every distinct report, the kernel samples and, when traced, the
per-layer totals.  `run.py` turns these into metrics; this file only measures.

A periodic SIGALRM runs the reference kernel every P seconds in the middle
of the workload, so the kernel samples the host's speed throughout each
round; the handler's time is later subtracted from the operations it
interrupted, and, when traced, from the layer times it fell inside.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import statistics
import sys
import time
import traceback

import kernel
from layers import Tracer


def _canonical(text: str) -> str:
    """The report without its wall-clock field, so equal reports compare equal."""
    try:
        report = json.loads(text)
    except ValueError:
        return text
    report.pop("duration_seconds", None)
    return json.dumps(report, sort_keys=True)


def run_op(cli_main, argv: list[str], tracer: Tracer | None) -> tuple[int | None, str, str]:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                code = cli_main(["--jobs", "1", *argv])
            else:
                with tracer.root("cli " + " ".join(argv[:2])):
                    code = cli_main(["--jobs", "1", *argv])
    except SystemExit as e:  # argparse rejects its arguments this way
        code = e.code if isinstance(e.code, int) else 1
    except Exception:
        code = None
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def main() -> int:
    spec = json.load(sys.stdin)
    started = time.perf_counter()
    try:
        from implab.cli import main as cli_main
    except ImportError as e:
        print(f"cannot import the program: {e}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - started

    tracer = None
    samples: list[tuple[float, float, float]] = []  # handler start, handler end, kernel seconds
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
    for _ in range(5):  # let the interpreter specialise the kernel's code
        kernel.timed_kernel()

    def on_alarm(signum, frame):
        begin = time.perf_counter()
        seconds = kernel.timed_kernel()
        end = time.perf_counter()
        samples.append((begin, end, seconds))
        if tracer is not None:
            tracer.paused += end - begin

    signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, spec["period"], spec["period"])

    reports: dict[str, int] = {}
    rounds = []
    measure_start = time.perf_counter()
    while True:
        ops = []
        for argv in spec["ops"]:
            begin = time.perf_counter()
            code, out, err = run_op(cli_main, argv, tracer)
            end = time.perf_counter()
            index = reports.setdefault(_canonical(out), len(reports))
            ops.append({"code": code, "start": begin, "end": end, "report": index, "stderr": err[-4000:]})
        rounds.append(ops)
        # Start another round only if one more of typical length still fits.
        typical = statistics.median(r[-1]["end"] - r[0]["start"] for r in rounds)
        if time.perf_counter() - measure_start + typical > spec["seconds"]:
            break
    signal.setitimer(signal.ITIMER_REAL, 0, 0)

    result = {
        "import_s": import_s,
        "rounds": rounds,
        "reports": list(reports),
        "kernel": samples,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["per_layer"] = tracer.per_round(len(rounds))
        result["spans"] = tracer.spans
        result["missing_hooks"] = tracer.missing
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
