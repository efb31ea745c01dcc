#!/usr/bin/env python3
"""Medians, quartiles and spreads of recorded benchmark runs.

    python3 bench/summarize.py [.bench_out/runs.jsonl ...]

Each run of ``bench/run.py`` appends a record to ``.bench_out/runs.jsonl``.
This prints, per workload and metric, the number of runs, the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread (q3 - q1) / median, followed by the machine's steal time over the
runs.  Traced and untraced runs are summarised apart.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def summarize(records: list[dict]) -> list[str]:
    groups: dict[tuple, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for rec in records:
        key = (rec["workload"], rec["trace"])
        for name, metric in rec["result"]["metrics"].items():
            groups[key][name].append(metric["value"])
        steal = rec["env"].get("steal_pct")
        if steal is not None:
            groups[key]["(steal_pct)"].append(steal)
        groups[key]["(failed share)"].append(
            rec["result"]["failed"] / rec["result"]["attempted"])
    lines = []
    for (workload, trace), metrics in sorted(groups.items()):
        lines.append(f"{workload} trace={trace}")
        for name, values in metrics.items():
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            lines.append(f"  {name:48s} n={len(values):2d} median={med:.6g} "
                         f"q1={q1:.6g} q3={q3:.6g} spread={100 * spread:.2f}%")
    return lines


def main(argv: list[str]) -> int:
    paths = argv or [str(Path(__file__).resolve().parent.parent / ".bench_out" / "runs.jsonl")]
    records = []
    for path in paths:
        with open(path) as fh:
            records += [json.loads(line) for line in fh if line.strip()]
    print("\n".join(summarize(records)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
