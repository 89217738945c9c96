"""Regenerate pins.json: the sha256 of every report in the default seed's pools.

    python3 perfbench/make_pins.py

Run it from the root of a checkout.  Every job must pass its invariant
checks first.  Reports are meant to stay byte-identical, so regenerate the
pins only with a change that alters reports on purpose, or the pools.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def pins_for(workload):
    out_dir = os.path.join(HERE, "out", f"pins_{workload}_{os.getpid()}")
    try:
        rounds = workloads.generate(workload, checks.DEFAULT_SEED,
                                    os.path.join(out_dir, "specs"))
        cls = (worker.Free2Runner if workload == "free2-actions"
               else worker.CliRunner)
        runner = cls(out_dir, [])
        runner.setup()
        pins = []
        for index, job in enumerate(j for jobs in rounds for j in jobs):
            rec = runner.run(job, index)
            if not rec["ok"]:
                raise SystemExit(f"{workload} {job['name']}: {rec['reason']}")
            pins.append(rec["sha256"][:checks.PIN_HEX])
        return {"pool": checks.pool_digest(rounds), "sha256": pins}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def main():
    pins = {}
    for workload in workloads.WORKLOADS:
        pins[workload] = pins_for(workload)
        print(f"{workload}: {len(pins[workload]['sha256'])} reports pinned",
              flush=True)
    with open(checks.PINS_PATH, "w") as fh:
        json.dump(pins, fh, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
