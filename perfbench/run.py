"""Benchmark entry point: one run of one workload, checked by its oracles.

    python3 perfbench/run.py --workload arrow-n3 --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from `src/` next to this
directory.  Each run spawns a few interpreters that only import the program
(their median wall time is `setup_s`) and one fresh interpreter that runs
whole rounds of the workload's commands through `implab.cli.main` with
`--jobs 1` and a fixed `PYTHONHASHSEED`, for about `--seconds` seconds.
Every distinct report is checked by an oracle that does not import the
program.  Human-readable lines come first, then one `{"detail": ...}` line
with the raw figures, and last the result object.

With `--trace 0` the result holds the end-to-end metrics; `verdict_ref` is
the median over rounds of the round's work divided by the reference
kernel's time sampled during that round.  With `--trace 1` it holds the
per-layer metrics, per round, and the spans go to `perfbench/out/`; the
detail line's `round_ratios` then give the traced `verdict_ref`, so the
tracing overhead is the traced figure over the untraced one.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import PER_LAYER
from workloads import WORKLOADS, Op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

END_TO_END = (
    ("verdict_ref", "ref", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
SETUP_PROBES = 7
KERNEL_PERIOD = 0.1  # seconds between reference-kernel samples
KERNEL_WINDOW = 9  # fewest samples a round is normalised by
RUN_LIMIT = 170.0  # seconds the whole run may take


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def measure_setup() -> list[float]:
    """Wall seconds for fresh interpreters that start and import the program."""
    times = []
    for _ in range(SETUP_PROBES):
        begin = time.perf_counter()
        # No timeout: with one, subprocess polls the child in steps of up to 50 ms.
        subprocess.run([sys.executable, "-c", "import implab.cli"], env=child_env(), check=True)
        times.append(time.perf_counter() - begin)
    return times


def run_worker(ops: list[Op], seconds: float, trace: bool, deadline: float) -> dict:
    spec = {"ops": [list(op.argv) for op in ops], "seconds": seconds, "trace": trace, "period": KERNEL_PERIOD}
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(spec),
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def handler_seconds(samples: list, begin: float, end: float) -> float:
    """Time the kernel's signal handler took inside [begin, end)."""
    return sum(h_end - h_start for h_start, h_end, _ in samples if begin <= h_start < end)


def round_reference(samples: list, begin: float, end: float) -> float:
    """Mean kernel time during a round, widened to the nearest samples when
    the round is too short to hold KERNEL_WINDOW of them.  The mean, not the
    median: the samples are evenly spaced in time, and a round's wall time
    adds up the host's slow and fast spells just as their mean does."""
    inside = [k for h_start, _, k in samples if begin <= h_start < end]
    if len(inside) < KERNEL_WINDOW:
        mid = (begin + end) / 2
        inside = [k for _, _, k in sorted(samples, key=lambda s: abs(s[0] - mid))[:KERNEL_WINDOW]]
    return statistics.fmean(inside)


def check_reports(ops: list[Op], result: dict) -> tuple[int, list[str], list[str]]:
    """(attempted, failures, problems): an operation fails when it crashes or
    prints no report; a wrong exit code or a report its oracle rejects is a
    problem, and makes the run incorrect."""
    attempted = 0
    failures: list[str] = []
    problems: list[str] = []
    checked: set[tuple[int, int]] = set()
    for ops_run in result["rounds"]:
        for i, (op, run) in enumerate(zip(ops, ops_run)):
            attempted += 1
            cmd = " ".join(op.argv)
            try:
                report = json.loads(result["reports"][run["report"]])
            except ValueError:
                report = None
            if run["code"] is None or not isinstance(report, dict):
                failures.append(f"{cmd}: {run['stderr'].strip()[-500:]}")
                continue
            if run["code"] != op.expect_code:
                problems.append(f"{cmd}: exited {run['code']}, expected {op.expect_code}")
            if (i, run["report"]) not in checked:
                checked.add((i, run["report"]))
                problems += [f"{cmd}: {p}" for p in op.check(report)]
    return attempted, failures, problems


def round_times(result: dict) -> list[tuple[float, float, float]]:
    """(begin, end, work seconds) per round, kernel handler time removed."""
    out = []
    for ops_run in result["rounds"]:
        begin, end = ops_run[0]["start"], ops_run[-1]["end"]
        work = sum(r["end"] - r["start"] - handler_seconds(result["kernel"], r["start"], r["end"]) for r in ops_run)
        out.append((begin, end, work))
    return out


def op_times(ops: list[Op], result: dict) -> dict[str, float]:
    """Median raw seconds of each command of the round, kernel time removed."""
    out = {}
    for i, op in enumerate(ops):
        runs = [r[i] for r in result["rounds"]]
        work = [r["end"] - r["start"] - handler_seconds(result["kernel"], r["start"], r["end"]) for r in runs]
        out[" ".join(op.argv)] = statistics.median(work)
    return out


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT

    if not (ROOT / "src" / "implab" / "cli.py").is_file():
        print(f"error: no program to measure at {ROOT / 'src' / 'implab'}", file=sys.stderr)
        return 2
    ops = WORKLOADS[args.workload](args.seed)
    try:
        setup = [] if args.trace else measure_setup()
        result = run_worker(ops, args.seconds, bool(args.trace), deadline)
    except (subprocess.SubprocessError, RuntimeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    attempted, failures, problems = check_reports(ops, result)
    rounds = round_times(result)
    raw_round = statistics.median(work for _, _, work in rounds)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, {attempted} operations, {len(failures)} failed")
    for p in failures[:5]:
        print(f"  FAILED {p}")
    for p in problems[:20]:
        print(f"  WRONG {p}")
    for cmd, seconds in op_times(ops, result).items():
        print(f"  raw {seconds:9.4f} s  {cmd}")
    kernel = [k for _, _, k in result["kernel"]]
    if len(kernel) < KERNEL_WINDOW:
        print(f"error: only {len(kernel)} kernel samples in the run", file=sys.stderr)
        return 1
    ratios = [work / round_reference(result["kernel"], b, e) for b, e, work in rounds]
    print(
        f"  raw {statistics.median(kernel) * 1e3:9.4f} ms reference kernel, median of {len(kernel)} samples"
        f" (mean {statistics.fmean(kernel) * 1e3:.4f} ms)"
    )
    print(f"  raw {raw_round:9.4f} s  round; {statistics.median(ratios):.6g} ref")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(rounds),
        "round_raw_s": raw_round,
        "op_raw_s": op_times(ops, result),
        "import_s": result["import_s"],
        "kernel_raw_s": statistics.median(kernel),
        "kernel_mean_s": statistics.fmean(kernel),
        "kernel_samples": len(kernel),
        "round_ratios": ratios,
        "setup_probes_s": setup,
    }

    if args.trace:
        metrics = {name: metric(result["per_layer"][name], unit) for name, unit, _ in PER_LAYER}
        if result["missing_hooks"]:
            print(f"  names not found to trace: {', '.join(result['missing_hooks'])}", file=sys.stderr)
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(
            json.dumps(
                {**detail, "per_layer": result["per_layer"], "missing": result["missing_hooks"], "spans": result["spans"]}
            )
        )
        detail["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        metrics = {
            "verdict_ref": metric(statistics.median(ratios), "ref"),
            "setup_s": metric(statistics.median(setup), "s"),
            "peak_rss_mb": metric(result["peak_rss_kb"] / 1024, "MB"),
        }
    for name, m in metrics.items():
        print(f"  {name:30s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
