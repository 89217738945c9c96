"""Summarize untraced runs into a record of the perfbench trajectory.

    python3 perfbench/summarize.py SEEDS OUT.json [ABOUT]

SEEDS is a range like 0-9 or a list like 0,3,5.  For each workload it reads
``perfbench/out/BENCH_<workload>_seed<N>_trace0.json`` (written by run.py),
and writes the median, quartiles and quartile spread of every end-to-end
metric, and the median, minimum and maximum of every printed detail.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import END_TO_END, OUT  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(workload, seeds):
    records = []
    for seed in seeds:
        with open(os.path.join(OUT, f"BENCH_{workload}_seed{seed}_trace0.json")) as fh:
            records.append(json.load(fh))
    metrics = {}
    for name, unit in END_TO_END:
        values = [r["metrics"][name] for r in records]
        q1, median, q3 = statistics.quantiles(values, n=4)
        metrics[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median, "unit": unit}
    detail = {}
    for r in records:
        for name, value in {**r["detail"], **r["roadmap_rows"]}.items():
            if isinstance(value, (int, float)):
                detail.setdefault(name, []).append(value)
    return {"runs": len(records), "seeds": seeds,
            "attempted": sum(len(r["jobs"]) for r in records),
            "failed": sum(not ok for r in records for _, _, ok in r["jobs"]),
            "metrics": metrics,
            "detail": {name: {"median": statistics.median(v), "min": min(v),
                              "max": max(v)} for name, v in detail.items()}}


def main(argv):
    seeds, path = parse_seeds(argv[0]), argv[1]
    record = {"about": argv[2] if len(argv) > 2 else "",
              "workloads": {w: summarize(w, seeds) for w in WORKLOADS}}
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for w, s in record["workloads"].items():
        print(w, {k: round(m["spread"], 3) for k, m in s["metrics"].items()})


if __name__ == "__main__":
    main(sys.argv[1:])
