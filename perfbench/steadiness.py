"""Steadiness check: a set of runs over many seeds, or a comparison of two sets.

    python3 perfbench/steadiness.py --label A [--seeds 10] [--seconds 20] [--workloads w1,w2]
    python3 perfbench/steadiness.py --compare perfbench/out/steadiness-A.json perfbench/out/steadiness-B.json

A set runs `run.py` once per seed and workload, seed by seed so that a slow
spell of the host is shared by every workload, and reports for each
end-to-end metric and for the raw seconds the median, the quartiles
(`statistics.quantiles(n=4)`) and the spread (q3 - q1) / median, against
the bounds in BENCHMARK.json.  It also checks the reference kernel: its
median raw time must not depend on the workload it ran beside.  A
comparison checks that the second set's medians are no worse than the
first's by more than each bound, and that both sets failed the same share
of operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
KERNEL_TOLERANCE = 0.10  # largest spread of the kernel's median across workloads


def bounds() -> dict[str, float]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def run_set(workloads: list[str], seeds: int, seconds: int) -> dict:
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in range(1, seeds + 1):
        for w in workloads:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed)]
            proc = subprocess.run(
                cmd + ["--seconds", str(seconds), "--trace", "0"], capture_output=True, text=True, timeout=600
            )
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                raise SystemExit(f"{w} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
            result, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
            runs[w].append({"result": result, "detail": detail})
            m = result["metrics"]
            print(
                f"{w:18s} seed {seed:2d}  verdict_ref {m['verdict_ref']['value']:10.3f}  "
                f"raw {detail['round_raw_s']:8.4f} s  kernel {detail['kernel_raw_s'] * 1e3:7.4f} ms  "
                f"setup {m['setup_s']['value']:.4f} s  rss {m['peak_rss_mb']['value']:.2f} MB  "
                f"{result['attempted']} ops {result['failed']} failed correct={result['correct']}",
                flush=True,
            )
    out = {}
    for w, rs in runs.items():
        metrics = {name: summary([r["result"]["metrics"][name]["value"] for r in rs]) for name in rs[0]["result"]["metrics"]}
        out[w] = {
            "metrics": metrics,
            "round_raw_s": summary([r["detail"]["round_raw_s"] for r in rs]),
            "kernel_raw_s": summary([r["detail"]["kernel_raw_s"] for r in rs]),
            "attempted": sum(r["result"]["attempted"] for r in rs),
            "failed": sum(r["result"]["failed"] for r in rs),
            "correct": all(r["result"]["correct"] for r in rs),
        }
    return out


def report_set(data: dict) -> bool:
    ok = True
    limits = bounds()
    print(f"\n{'workload':18s} {'metric':13s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
    for w, d in data.items():
        rows = [(name, s, limits.get(name)) for name, s in d["metrics"].items()]
        rows += [("raw round s", d["round_raw_s"], None), ("raw kernel s", d["kernel_raw_s"], None)]
        for name, s, bound in rows:
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if s["spread"] <= bound / 3 else ("within bound" if s["spread"] <= bound else "TOO WIDE")
                ok &= s["spread"] <= bound
            print(
                f"{w:18s} {name:13s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                f"{s['spread']:7.2%} {'' if bound is None else format(bound, '6.2f')} {flag}"
            )
        if not d["correct"] or d["failed"]:
            print(f"{w}: correct={d['correct']} failed={d['failed']} of {d['attempted']}")
            ok = False
    kernels = {w: d["kernel_raw_s"]["median"] for w, d in data.items()}
    spread = (max(kernels.values()) - min(kernels.values())) / statistics.median(kernels.values())
    verdict = "ok" if spread <= KERNEL_TOLERANCE else "DEPENDS ON WORKLOAD"
    print(f"\nreference kernel median by workload: "
          + ", ".join(f"{w} {k * 1e3:.4f} ms" for w, k in kernels.items())
          + f"; spread {spread:.2%} (tolerance {KERNEL_TOLERANCE:.0%}) {verdict}")
    return ok and spread <= KERNEL_TOLERANCE


def compare(first: dict, second: dict) -> bool:
    ok = True
    limits = bounds()
    for w in first:
        for name, bound in limits.items():
            a, b = first[w]["metrics"][name]["median"], second[w]["metrics"][name]["median"]
            change = (b - a) / a
            good = change <= bound
            ok &= good
            print(f"{w:18s} {name:13s} {a:12.6g} -> {b:12.6g}  {change:+7.2%}  bound {bound:.2f} {'ok' if good else 'WORSE'}")
        share_a = first[w]["failed"] / first[w]["attempted"]
        share_b = second[w]["failed"] / second[w]["attempted"]
        if share_a != share_b:
            print(f"{w}: failed share {share_a} != {share_b}")
            ok = False
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--compare", nargs=2, metavar="SET")
    args = parser.parse_args()
    if args.compare:
        first, second = (json.loads(Path(p).read_text()) for p in args.compare)
        return 0 if compare(first, second) else 1
    if not args.label:
        parser.error("--label or --compare is required")
    data = run_set(args.workloads.split(","), args.seeds, args.seconds)
    OUT.mkdir(exist_ok=True)
    (OUT / f"steadiness-{args.label}.json").write_text(json.dumps(data, indent=1))
    return 0 if report_set(data) else 1


if __name__ == "__main__":
    sys.exit(main())
