"""Output checks: invariants that hold for every seed, plus sha256 pins of
every report for the default seed.

``check_report`` returns None for a good report and a one-line reason
otherwise; the caller counts the job as failed.
"""

from __future__ import annotations

import hashlib
import json
import os

DEFAULT_SEED = 0
SCHEMA = "horoscope/1"
PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")

# frozen in the acceptance tests, on the default generating sets
FROZEN_HORO = {
    "integers": lambda r: 2,
    "ladder": lambda r: 4 if 10 <= r <= 20 else None,
    "dihedral": lambda r: 2 if 10 <= r <= 20 else None,
    "lattice": lambda r: 8 * r if r <= 6 else None,
}
FROZEN_GCD = {"integers": 1, "dihedral": 2, "ladder": 1}
# closed-form sphere sizes |S_r|, r >= 1, on the default generating sets
SPHERE_SIZE = {"integers": lambda r: 2, "lattice": lambda r: 4 * r}
SUPERLINEAR = ("lattice", "lattice-diag")
PIN_HEX = 16                # pins keep the first 64 bits of each sha256


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pool_digest(rounds) -> str:
    """sha256 of the pool's jobs (name, flags, spec file bytes), in order."""
    h = hashlib.sha256()
    for job in (j for r in rounds for j in r):
        h.update(json.dumps([job["name"], job["argv"][2:]]).encode())
        if job["argv"]:
            h.update(job["spec"].encode())
    return h.hexdigest()


def load_pins(workload: str, rounds) -> list[str]:
    """The pinned sha256 prefixes of the workload's default-seed pool, one per
    job in pool order.  Raises ValueError when the pins are for another pool."""
    with open(PINS_PATH) as fh:
        entry = json.load(fh)[workload]
    if entry["pool"] != pool_digest(rounds):
        raise ValueError(f"pins.json is stale for {workload}; "
                         "rerun perfbench/make_pins.py")
    return entry["sha256"]


def _basepoint_value(entries):
    """Value of a serialized map at the identity (0, [0, 0] or "")."""
    for tok, val in entries:
        if tok in (0, [0, 0], ""):
            return val
    return None


def _check_growth(rep, chk):
    sizes, balls = rep["sphere_sizes"], rep["ball_sizes"]
    want_r = int(chk["argv_ball"])
    if rep["truncated"] or rep["radius"] != want_r or len(sizes) != want_r + 1:
        return f"census stopped at radius {rep['radius']}, asked {want_r}"
    total = 0
    for s, b in zip(sizes, balls):
        total += s
        if b != total:
            return "ball sizes are not the running sums of sphere sizes"
    if sizes[0] != 1:
        return "S_0 is not the basepoint alone"
    closed = SPHERE_SIZE.get(chk["set"]) if chk["default"] else None
    if closed and any(sizes[r] != closed(r) for r in range(1, len(sizes))):
        return f"sphere sizes {sizes} differ from the closed form"
    want = "not-linear" if chk["set"] in SUPERLINEAR else "linear-candidate"
    if rep["verdict"] != want:
        return f"verdict {rep['verdict']}, expected {want}"
    return None


def _check_horo(rep, chk):
    rows = rep["per_radius"]
    if [row["r"] for row in rows] != list(range(1, int(chk["argv_radius"]) + 1)):
        return "per-radius rows do not cover 1..radius"
    if rep["counts"] != [row["count"] for row in rows]:
        return "counts disagree with per-radius rows"
    frozen = FROZEN_HORO.get(chk["set"]) if chk["default"] else None
    for row in rows:
        if row["count"] != len(row["maps"]):
            return f"r={row['r']}: count {row['count']} != {len(row['maps'])} maps"
        if frozen is not None:
            want = frozen(row["r"])
            if want is not None and row["count"] != want:
                return f"r={row['r']}: count {row['count']}, frozen {want}"
        for m in row["maps"]:
            if _basepoint_value(m) != 0:
                return f"r={row['r']}: a map is not 0 at the basepoint"
    tail = rep["counts"][len(rep["counts"]) // 2:]
    if rep["stable_tail"] != (len(set(tail)) == 1):
        return "stable_tail flag disagrees with the counts"
    return None


def _check_orbit(rep, chk):
    if rep["enumeration"]["count"] != len(rep["orbit"]["members"]):
        return "enumeration count != number of orbit members"
    for m in rep["orbit"]["members"] + [rep["witness"]["base"]]:
        if _basepoint_value(m) != 0:
            return "an orbit member is not 0 at the basepoint"
    gcd = rep["witness"]["image_gcd"]
    want = FROZEN_GCD.get(chk["set"]) if chk["default"] else None
    if want is not None and gcd != want:
        return f"image_gcd {gcd}, frozen {want}"
    if gcd < 1:
        return f"image_gcd {gcd} < 1"
    if rep["growth_verdict"] != "linear-candidate" or "warning" in rep:
        return "linear family judged not linear"
    return None


def _check_reroot(rep, chk):
    if not rep["all_ok"]:
        return "reroot all_ok is false"
    if rep["count"] != 100 or len(rep["results"]) != 100:
        return "reroot did not report 100 prefixes"
    if rep["prefix_length"] != int(chk["argv_depth"]):
        return "prefix length differs from --depth"
    return None


def _check_cover(rep, chk):
    if len(rep["paths"]) != rep["k"]:
        return f"{len(rep['paths'])} paths for k={rep['k']}"
    if "k" in chk and rep["k"] != chk["k"]:
        return f"k={rep['k']}, spec has layers of size {chk['k']}"
    ver = rep["verification"]
    if rep["k"] > 6:
        return None if ver.get("skipped") else "verifier ran on k > 6"
    minima = ver.get("minima")
    if ver.get("skipped") or not minima or None in minima:
        return "verification missing"
    if any(a > b for a, b in zip(minima, minima[1:])):
        return f"verified minima {minima} decrease with depth"
    return None


CHECKS = {"growth": _check_growth, "horo": _check_horo, "orbit": _check_orbit,
          "reroot": _check_reroot, "cover": _check_cover}


def job_check_info(job):
    """The job's check dict, with its CLI flag values as argv_<flag>."""
    chk = dict(job["check"])
    argv = job["argv"]
    for flag, value in zip(argv[2::2], argv[3::2]):
        chk["argv_" + flag.lstrip("-")] = value
    return chk


def check_report(job, exit_code, data: bytes | None, pin: str | None = None):
    """None when the job's report passes, else the reason it fails."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    if data is None:
        return "no report written"
    if pin is not None and sha256(data)[:PIN_HEX] != pin:
        return "report differs from the pinned sha256"
    try:
        rep = json.loads(data)
    except ValueError as exc:
        return f"report is not JSON: {exc}"
    chk = job_check_info(job)
    if not isinstance(rep, dict) or rep.get("schema") != SCHEMA \
            or rep.get("command") != chk["cmd"]:
        return "report header is wrong"
    try:
        return CHECKS[chk["cmd"]](rep, chk)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        return f"report is malformed: {type(exc).__name__}: {exc}"
