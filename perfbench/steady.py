"""Steadiness report: repeat benchmark runs and print each metric's spread.

Usage:
    python3 perfbench/steady.py [--runs 10] [--first-seed 1]

Every workload of BENCHMARK.json runs ``--runs`` times for ``run_seconds``
with ``--trace 0``, each run with the next seed.  For every metric the
report gives the median, the quartiles (``statistics.quantiles``
with n=4) and the spread, (q3 - q1) / median, beside a third of the metric's
bound from BENCHMARK.json.  It also records the machine: CPU count, Python
version and the ``steal`` column of the ``cpu`` line of /proc/stat before
and after (read only, where that file exists).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import sys

from run import SPEC, run


def steal_ticks() -> int | None:
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so the running child is killed and the work dir removed.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    steal_before = steal_ticks()
    print(
        f"nproc={os.cpu_count()} python={platform.python_version()} "
        f"steal_ticks_before={steal_before}"
    )
    report = {}
    all_correct = True
    for name in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run(name, seed, spec["run_seconds"], trace=False)
            all_correct &= result["correct"]
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            line = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"{name} seed={seed} failed={result['failed']} {line}", flush=True)
        report[name] = {}
        for metric, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(metric)
            report[name][metric] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals,
            }
            target = f" (a third of the bound: {bound / 3:.4f})" if bound else ""
            print(
                f"  {name:8s} {metric:40s} median={med:<12.6g} q1={q1:<12.6g} "
                f"q3={q3:<12.6g} spread={spread:.4f}{target}",
                flush=True,
            )
    steal_after = steal_ticks()
    print(f"steal_ticks_after={steal_after}")
    print(
        json.dumps(
            {
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "steal_ticks": [steal_before, steal_after],
                "report": report,
            }
        )
    )
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
