"""The horoscope benchmark: one seeded workload per run, in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the program from ``src``.
Workloads: cayley-exact, cayley-bfs, free2-actions, layered-cover (see
``workloads.py``, and ``record.json`` for why each was chosen).

Set-up is timed from starting a worker process until it reports ready: in up
to four set-up-only workers (fewer once they took 5 s), then in the measuring
one; ``setup_s`` is the median.  The measuring worker then runs a
single-threaded closed loop of jobs for S seconds, in whole rounds, and
checks every job's output.

With ``--trace 0`` the last line of output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics from a
traced rerun of the same jobs.  Lines before it give the per-command medians,
the failed ratio and the ROADMAP baseline jobs.  Each run also writes
``perfbench/out/BENCH_<workload>_seed<N>_trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 4      # set-up-only workers before the measuring one,
SETUP_PROBE_S = 5     # or fewer once this much time went into them
TIME_LIMIT_S = 170
COMMANDS = ("growth", "horo", "orbit", "reroot", "cover", "laws")
ROADMAP_JOBS = ("horo:lattice:radius8", "horo:lattice-diag:radius5",
                "orbit:ladder:default")

DETAIL_UNITS = {"job_s.tail.percentile": "%", "job_s.samples": "count",
                "failed_ratio": "ratio"}   # every other detail is in seconds
END_TO_END = [("setup_s", "s"), ("jobs_per_s", "1/s"), ("job_s.p50", "s"),
              ("job_s.tail", "s"), ("peak_rss_mb", "MB")]

_SELF = ["cli.main", "cli.render", "specs.object_from_spec",
         "specs.valuemap_jsonable", "graphs.layer_decomposition",
         "graphs.enumerate_horofunction_restrictions", "graphs.busemann",
         "graphs.distance", "graphs.reroot_ray", "cayley.cayley_graph",
         "cayley.act", "cayley.orbit_analysis", "cayley.extract_homomorphism",
         "npartite.build_layered", "npartite.monotone_cover",
         "npartite.prune_to_spanning", "npartite.partition_by_matchings",
         "npartite.spanning_intersection_minima",
         "matching.matching_or_violator"]
_CALLS = ["specs.valuemap_jsonable", "graphs.layer_decomposition",
          "graphs.enumerate_horofunction_restrictions", "graphs.busemann",
          "graphs.distance", "graphs.reroot_ray", "graphs.neighbors",
          "graphs.exact_distance", "cayley.act", "npartite.monotone_cover",
          "npartite.spanning_intersection_minima",
          "matching.matching_or_violator"]
_POINTS = ["graphs.busemann", "cayley.act"]
PER_LAYER = ([(f"{n}.self_s", "s") for n in _SELF]
             + [(f"{n}.calls", "count") for n in _CALLS]
             + [(f"{n}.points", "count") for n in _POINTS]
             + [("cli.report_bytes", "bytes"), ("matching.matched_ratio", "ratio"),
                ("trace.overhead_ratio", "ratio")])


class BenchError(Exception):
    pass


def _worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, deadline):
    """Start a worker; return (seconds until it printed READY, its result)."""
    cmd = [sys.executable, WORKER] + args
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=_worker_env(), cwd=ROOT)
    timer = threading.Timer(max(deadline - time.monotonic(), 1), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY" or code != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {code}")
    lines = rest.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


def tail(times):
    """The highest percentile with at least 10 jobs beyond it, as
    (value, percentile); the maximum when there are 10 jobs or fewer."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(result, setups):
    jobs = result["jobs"]
    times = [j["s"] for j in jobs]
    ok = sum(j["ok"] for j in jobs)
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": ok / sum(times),
        "job_s.p50": statistics.median(times),
        "job_s.tail": tail_s,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    detail = {"job_s.tail.percentile": tail_pct, "job_s.samples": len(times),
              "failed_ratio": (len(jobs) - ok) / len(jobs),
              "setup_s.samples": setups}
    for cmd in COMMANDS:   # None where the workload does not run the command
        cmd_times = [j["s"] for j in jobs if j["cmd"] == cmd]
        detail[f"{cmd}_s.p50"] = statistics.median(cmd_times) if cmd_times else None
    return metrics, detail


def per_layer(result):
    metrics = {name: result["trace"].get(name, 0) for name, _ in PER_LAYER}
    plain = sum(j["s"] for j in result["jobs"])
    traced = sum(j["s"] for j in result["traced_jobs"])
    metrics["trace.overhead_ratio"] = traced / plain
    return metrics


def roadmap_rows(result):
    rows = {}
    for name in ROADMAP_JOBS:
        times = [j["s"] for j in result["jobs"] if j["name"] == name]
        if times:
            rows[name] = statistics.median(times)
    busemann = [j["busemann_s"] for j in result["jobs"] if "busemann_s" in j]
    if busemann:
        rows["busemann:free-2:B12"] = statistics.median(busemann)
    if "census:free-2:B12" in result["setup"]:
        rows["census:free-2:B12"] = result["setup"]["census:free-2:B12"]
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "horoscope", "cli.py")):
        print(f"run.py: no program source at {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    # "build": compile the sources once so no timed import pays for it
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC],
                   check=True, stdout=subprocess.DEVNULL,
                   timeout=max(deadline - time.monotonic(), 1))

    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    # every worker writes its specs into a directory of its own: rewriting
    # the files of the worker before it made set-up twice as slow, and noisy
    out_dirs = []

    def worker_args():
        out_dirs.append(os.path.join(OUT, f"{tag}_{os.getpid()}_{len(out_dirs)}"))
        return [args.workload, str(args.seed), str(args.seconds),
                str(args.trace), out_dirs[-1]]

    try:
        setups = []
        probe_start = time.monotonic()
        while len(setups) < SETUP_PROBES \
                and time.monotonic() - probe_start < SETUP_PROBE_S:
            setups.append(run_worker(worker_args() + ["--setup-only"], deadline)[0])
        setup_s, result = run_worker(worker_args(), deadline)
        setups.append(setup_s)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        for out_dir in out_dirs:
            shutil.rmtree(out_dir, ignore_errors=True)

    jobs = result["jobs"] + result.get("traced_jobs", [])
    failed = [j for j in jobs if not j["ok"]]
    e2e, detail = end_to_end(result, setups)
    correct = not failed
    if args.trace:
        metrics = per_layer(result)
        units = dict(PER_LAYER)
        leftover = result["leftover_patches"]
        if leftover:
            correct = False
            print(f"tracer left patched names: {leftover}")
    else:
        metrics = e2e
        units = dict(END_TO_END)
    rows = roadmap_rows(result)
    for j in failed[:20]:
        print(f"FAILED {j['name']}: {j['reason']}")
    for name, value in {**detail, **rows}.items():
        print(f"{args.workload} {name} {value} {DETAIL_UNITS.get(name, 's')}")
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {units[name]}")

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "metrics": metrics, "end_to_end": e2e, "detail": detail,
              "roadmap_rows": rows,
              "jobs": [[j["name"], j["s"], j["ok"]] for j in jobs]}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"BENCH_{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": correct, "attempted": len(jobs), "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
