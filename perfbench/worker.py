"""Run one workload in a fresh process: set up, then a closed loop of jobs.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE OUT_DIR [--setup-only]

``run.py`` starts this with ``src`` on PYTHONPATH.  The worker prints
``READY`` once set-up is done (run.py times set-up up to that line) and, as
its last line, a JSON object with one record per job.  One job runs at a
time; the heap is collected between jobs, outside the timed region.  The
timed phase runs whole rounds until SECONDS have passed.

With TRACE 1 the worker runs the rounds untraced, then runs the same jobs
again under the tracer, and compares every report with its untraced twin.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import os
import resource
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

FREE2_BUDGET = 2_200_000   # |B_12| = 1,062,881 exceeds the default budget
FREE2_RADIUS = 12
HARD_STOP_S = 120          # stop mid-round past this, whatever SECONDS says


class CliRunner:
    """One ``horoscope.cli.main`` call per job, writing its report to a file."""

    def __init__(self, out_dir, pins):
        self.report = os.path.join(out_dir, "report.json")
        self.pins = pins

    def setup(self):
        return {}

    def run(self, job, index):
        import horoscope.cli as cli

        workloads.write_spec(job)
        if os.path.exists(self.report):
            os.unlink(self.report)
        gc.collect()
        t0 = time.perf_counter()
        try:
            code = cli.main(job["argv"] + ["--out", self.report])
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a raising job is a failed job, never a crash
            code = "raised " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
        seconds = time.perf_counter() - t0
        data = None
        if os.path.exists(self.report):
            with open(self.report, "rb") as fh:
                data = fh.read()
        pin = self.pins[index] if self.pins else None
        reason = checks.check_report(job, code, data, pin)
        digest = checks.sha256(data) if data is not None else None
        return {"name": job["name"], "cmd": job["check"]["cmd"],
                "s": seconds, "ok": reason is None, "reason": reason,
                "sha256": digest}


def _digest(*maps):
    h = hashlib.sha256()
    for m in maps:
        h.update(repr(sorted(m.as_dict().items())).encode())
    return h.hexdigest()


class Free2Runner:
    """A library session on free-2: one action-law triple per job."""

    def __init__(self, out_dir, pins):
        self.pins = pins
        self.g = None

    def setup(self):
        import horoscope.cayley as cayley
        import horoscope.graphs as graphs

        t0 = time.perf_counter()
        self.g = cayley.cayley_graph(cayley.GroupSpec("free-2"), FREE2_BUDGET)
        ld = graphs.layer_decomposition(self.g, FREE2_RADIUS, FREE2_BUDGET)
        for r in range(FREE2_RADIUS + 1):
            ld.ball(r)
        return {"census:free-2:B12": time.perf_counter() - t0,
                "census_vertices": len(ld.ball())}

    def run(self, job, index):
        import horoscope.cayley as cayley
        import horoscope.graphs as graphs

        g, budget, chk = self.g, FREE2_BUDGET, job["check"]
        x, y, z = chk["x"], chk["y"], chk["z"]
        mul = g.group.mul
        gc.collect()
        t0 = time.perf_counter()
        f = graphs.busemann(g, z, FREE2_RADIUS, budget).values
        t_table = time.perf_counter() - t0
        lhs = cayley.act(x, cayley.act(y, f, g, budget), g, budget)
        rhs = cayley.act(mul(x, y), f, g, budget)
        moved = cayley.act(x, f, g, budget)
        direct = graphs.busemann(g, mul(x, z), moved.radius, budget).values
        seconds = time.perf_counter() - t0
        reason = None
        fd, rd, md, dd = (m.as_dict() for m in (f, rhs, moved, direct))
        if fd.get(g.basepoint) != 0 or len(fd) != 2 * 3 ** FREE2_RADIUS - 1:
            reason = "Busemann table is not 0 at the identity or not on B_12"
        elif any(rd.get(k) != v for k, v in lhs.as_dict().items()):
            reason = "x.(y.f) != (xy).f"
        elif md != dd:
            reason = "x.b_z != b_xz"
        digest = _digest(lhs, rhs, moved, direct)
        pin = self.pins[index] if self.pins else None
        if reason is None and pin is not None and digest[:checks.PIN_HEX] != pin:
            reason = "outputs differ from the pinned sha256"
        return {"name": job["name"], "cmd": "laws", "s": seconds,
                "ok": reason is None, "reason": reason, "sha256": digest,
                "busemann_s": t_table}


def run_rounds(runner, rounds, seconds, tracer=None, limit=None):
    """Closed loop over whole rounds until ``seconds`` have passed, or over
    the first ``limit`` jobs of the pool."""
    records = []
    pool_size = sum(len(jobs) for jobs in rounds)
    start = time.perf_counter()
    for r in itertools.count():
        for job in rounds[r % len(rounds)]:
            if len(records) == limit or time.perf_counter() - start > HARD_STOP_S:
                return records
            index = len(records) % pool_size
            if tracer is not None:
                tracer.job = index
            records.append(runner.run(job, index))
        if limit is None and time.perf_counter() - start >= seconds:
            return records


def main(argv):
    workload, seed, seconds, trace, out_dir = argv[:5]
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    setup_only = "--setup-only" in argv[5:]

    import horoscope.cli  # noqa: F401  (imports every module; part of set-up)

    spec_dir = os.path.join(out_dir, "specs")
    rounds = workloads.generate(workload, seed, spec_dir)
    pins = []
    if seed == checks.DEFAULT_SEED:
        pins = checks.load_pins(workload, rounds)
    cls = Free2Runner if workload == "free2-actions" else CliRunner
    runner = cls(out_dir, pins)
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.job = "setup"
        tracer.install()
    try:
        setup_detail = runner.setup()
    finally:
        if tracer is not None:
            tracer.uninstall()
    gc.collect()
    gc.freeze()  # keep the set-up heap out of every later collection
    print("READY", flush=True)
    if setup_only:
        return 0

    records = run_rounds(runner, rounds, seconds)
    result = {"jobs": records, "setup": setup_detail,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        if isinstance(runner, Free2Runner):
            tracer.count_exact(runner.g)
        tracer.install()
        try:
            traced = run_rounds(runner, rounds, seconds, tracer=tracer,
                                limit=len(records))
        finally:
            tracer.uninstall()
        for plain, rec in zip(records, traced):
            if rec["ok"] and rec["sha256"] != plain["sha256"]:
                rec["ok"], rec["reason"] = False, "traced report differs from untraced"
        tracer.write_spans(os.path.join(
            os.path.dirname(out_dir), f"spans_{workload}_seed{seed}.jsonl.gz"))
        result["traced_jobs"] = traced
        result["trace"] = tracer.metrics()
        result["leftover_patches"] = tracing.leftover_patches()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
