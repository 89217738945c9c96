"""Seeded workload generators.

A workload is a pool of rounds; a round is a list of jobs with a fixed
composition whose parameters are drawn from the seed, except those that set
the cost of the jobs near the median or the tail, which are fixed.  The timed
phase runs whole rounds, so every run measures the same mix of commands.  Everything
here is deterministic in the seed and uses the standard library only: the
program under test sees nothing but the spec files written here and argv.

A job is a dict:

    name    "<command>:<set>:<parameters>"; stable across seeds where the
            parameters are fixed (e.g. "horo:lattice:radius8")
    argv    the CLI arguments, without ``--out``; empty for the free2-actions
            jobs, which are library calls
    spec    the text of the spec file argv[1] names; ``write_spec`` writes it
            just before the job, outside the timed region
    check   what the output check needs to know about the job
"""

from __future__ import annotations

import json
import os
import random

WORKLOADS = ("cayley-exact", "cayley-bfs", "free2-actions", "layered-cover")

# rounds per pool; a run that outlives its pool starts it again
POOL_ROUNDS = {"cayley-exact": 32, "cayley-bfs": 8, "free2-actions": 32,
               "layered-cover": 40}

# ---------------------------------------------------------------------------
# Cayley generating sets.  "default" marks the family's standard generators,
# on which the CLI uses the closed-form metric and the acceptance tests
# froze counts.

EXACT_SETS = {
    "integers": {"kind": "cayley", "family": "integers"},
    "ladder": {"kind": "cayley", "family": "integers-times-cyclic", "modulus": 2},
    "ladder3": {"kind": "cayley", "family": "integers-times-cyclic", "modulus": 3},
    "dihedral": {"kind": "cayley", "family": "infinite-dihedral"},
    "lattice": {"kind": "cayley", "family": "integer-lattice-2d"},
}

BFS_SETS = {
    "integers-12": {"kind": "cayley", "family": "integers",
                    "generators": [-2, -1, 1, 2]},
    "integers-13": {"kind": "cayley", "family": "integers",
                    "generators": [-3, -1, 1, 3]},
    "ladder-diag": {"kind": "cayley", "family": "integers-times-cyclic",
                    "modulus": 2,
                    "generators": [[-1, 0], [1, 0], [0, 1], [-1, 1], [1, 1]]},
    "dihedral-3": {"kind": "cayley", "family": "infinite-dihedral",
                   "generators": [[0, 1], [1, 1], [2, 1]]},
    "lattice-diag": {"kind": "cayley", "family": "integer-lattice-2d",
                     "generators": [[-1, 0], [1, 0], [0, -1], [0, 1],
                                    [-1, -1], [1, 1]]},
}

LINEAR_EXACT = ("integers", "ladder", "ladder3", "dihedral")
LINEAR_BFS = ("integers-12", "integers-13", "ladder-diag", "dihedral-3")
BFS_HORO_RADII = (11, 12, 13)


def _cli(cmd, set_name, spec, params, **check):
    path, text = spec
    argv = [cmd, path]
    label = []
    for flag, value in params:
        argv += [f"--{flag}", str(value)]
        label.append(f"{flag}{value}")
    name = f"{cmd}:{set_name}:{'-'.join(label) or 'default'}"
    return {"name": name, "argv": argv, "spec": text,
            "check": {"cmd": cmd, "set": set_name, **check}}


def _spec_file(spec_dir, name, spec):
    return os.path.join(spec_dir, f"{name}.json"), json.dumps(spec, sort_keys=True)


def _spec_files(spec_dir, sets):
    return {name: _spec_file(spec_dir, name, spec) for name, spec in sets.items()}


def write_spec(job):
    """Write the job's spec file, unless a job before it wrote the same one."""
    if job.get("spec") is not None and not os.path.exists(job["argv"][1]):
        with open(job["argv"][1], "w") as fh:
            fh.write(job["spec"])


def cayley_exact_round(rng, files):
    # Growth runs twice on each set, at a small and a large ball, so that
    # the median job of a round falls inside its cluster of 4-8 ms jobs (the
    # lattice growths and the integers and dihedral orbits): 8 cheaper jobs,
    # 7 dearer.  A round of 14 put the median between two jobs 60% apart,
    # where it jumped with the seed's mix.
    jobs = []
    for s in EXACT_SETS:
        for lo, hi in ((8, 16), (17, 24)):
            jobs.append(_cli("growth", s, files[s],
                             [("ball", rng.randint(lo, hi))], default=True))
    for s in LINEAR_EXACT:
        jobs.append(_cli("horo", s, files[s], [("radius", rng.randint(12, 24))],
                         default=True))
    # ROADMAP baseline row: horo on the lattice, exact metric, r <= 8
    jobs.append(_cli("horo", "lattice", files["lattice"], [("radius", 8)],
                     default=True))
    for s in ("integers", "ladder3", "dihedral"):
        jobs.append(_cli("orbit", s, files[s], [("ball", rng.randint(8, 16))],
                         default=True))
    # ROADMAP baseline row: orbit on the ladder, default flags
    jobs.append(_cli("orbit", "ladder", files["ladder"], [], default=True))
    return jobs


def cayley_bfs_round(rng, files):
    # Every round holds the same horo and reroot costs; the seed draws only
    # parameters that barely move a job's time (growth and orbit balls, the
    # reroot ray seed) and the order.  The median job falls among the twelve
    # horo jobs, and seeded horo radii had moved it by up to 40%.
    jobs = []
    for s in BFS_SETS:
        jobs.append(_cli("growth", s, files[s], [("ball", rng.randint(8, 16))],
                         default=False))
    for s in LINEAR_BFS:
        for radius in BFS_HORO_RADII:
            jobs.append(_cli("horo", s, files[s], [("radius", radius)],
                             default=False))
    # ROADMAP baseline row: horo on the lattice with custom generators, r <= 5
    jobs.append(_cli("horo", "lattice-diag", files["lattice-diag"],
                     [("radius", 5)], default=False))
    for s in LINEAR_BFS:
        jobs.append(_cli("orbit", s, files[s], [("ball", rng.randint(8, 12))],
                         default=False))
    for s in LINEAR_BFS:
        jobs.append(_cli("reroot", s, files[s],
                         [("depth", 20), ("ball", 6),
                          ("seed", rng.randrange(1000))], default=False))
    return jobs


# ---------------------------------------------------------------------------
# layered specs


def _steps_json(steps):
    return [[j, a, b] for j, step in enumerate(steps) for a, b in step]


def periodic_spec(layers, steps, wrap, prefix=None, prefix_steps=(), seam=None):
    spec = {"kind": "layered",
            "period": {"layers": layers, "edges": _steps_json(steps)},
            "wrap": [list(e) for e in wrap]}
    if prefix is not None:
        spec["prefix"] = {"layers": prefix, "edges": _steps_json(prefix_steps)}
        spec["seam"] = [list(e) for e in seam]
    return spec


def _pairs(text):
    return [(p[0], p[1]) for p in text.split()]


AB, ABCD = ["a", "b"], ["a", "b", "c", "d"]

# the named corpus fixtures, written out as specs, and one fixed heavy spec
FIXTURES = {
    "half_line": periodic_spec([["a"]], [], _pairs("aa")),
    "two_spine": periodic_spec([AB], [], _pairs("aa bb")),
    "two_spine_crossing": periodic_spec([AB, AB], [_pairs("aa bb")],
                                        _pairs("aa bb ab")),
    "swap_spines": periodic_spec([AB], [], _pairs("ab ba")),
    "hall_funnel": periodic_spec([AB], [], _pairs("aa ba")),
    "three_spine_collapse": periodic_spec([["a", "b", "c"]], [],
                                          _pairs("aa ba cc")),
    "double_funnel_k4": periodic_spec([ABCD], [], _pairs("aa ba cc dc")),
    "four_spine_block": periodic_spec([ABCD, ABCD],
                                      [_pairs("aa bb cc dd ab cd")],
                                      _pairs("aa bb cc dd bc")),
    "prefix_feeder": periodic_spec([AB], [], _pairs("aa bb"),
                                   prefix=[["s"], ["x", "y"]],
                                   prefix_steps=[_pairs("sx sy")],
                                   seam=_pairs("xa yb xb")),
    "period2_funnel": periodic_spec([AB, ["x", "y"]], [_pairs("ax bx")],
                                    _pairs("xa xb")),
    "funnel_both_phases": periodic_spec([AB, ["x", "y"]], [_pairs("ax bx")],
                                        _pairs("xa ya")),
    "prefix_funnel": periodic_spec([AB], [], _pairs("aa ba"), prefix=[["s"]],
                                   seam=_pairs("sa sb")),
    # not a corpus fixture: a fixed k = 4 spec whose verification takes about
    # 0.4 s, so every round holds one job of known, verifier-bound cost
    "k4_dense_verifier": periodic_spec(
        [["v0", "v1", "v2", "v3"]], [],
        [("v0", "v0"), ("v0", "v3"), ("v1", "v2"), ("v1", "v3"), ("v2", "v3"),
         ("v3", "v0")]),
}

# (longest period, most extra random edges per step) by layer size.  Denser
# or longer specs make the exhaustive verifier's cost heavy-tailed (k = 4: up
# to 20 s and 144 MB per spec), and one such spec would set a run's time and
# peak memory; the fixed spec above is the one heavy verifier job per round.
SMALL_SHAPE = {2: (2, 2), 3: (1, 1), 4: (1, 0)}
# one random large spec per band of layer sizes in every round, with exactly
# k extra edges (sparser draws spread wider: at k = 36, 0.02-0.10 s against
# 0.04-0.14 s)
LARGE_BANDS = ((12, 16), (34, 38))


def random_periodic_spec(rng, k, period, extra_min, extra_max):
    """Eventually periodic spec in which every vertex keeps a forward edge and
    each step draws extra_min to extra_max more edges."""
    names = [f"v{i}" for i in range(k)]
    steps = []
    for _ in range(period):
        pairs = {(a, rng.choice(names)) for a in names}
        for _ in range(rng.randint(extra_min, extra_max)):
            pairs.add((rng.choice(names), rng.choice(names)))
        steps.append(sorted(pairs))
    return periodic_spec([names] * period, steps[:-1], steps[-1])


# The k = 56-60 end of the range is one fixed spec.  Random draws there took
# 0.25-1.7 s each (0.04-1.1 s when sparser), so the handful a run holds set
# its job_s.tail and much of its time: five seeds spread job_s.tail by 26%.
# This draw took 0.50-0.52 s; the twelve tried took 0.26-1.34 s.
FIXTURES["k60_cover"] = random_periodic_spec(random.Random("k60/7"), 60, 1,
                                             60, 60)


def layered_cover_round(rng, files, spec_dir, r):
    jobs = [_cli("cover", name, files[name], []) for name in FIXTURES]
    specs = []
    for k, (period_max, extra_max) in SMALL_SHAPE.items():
        for i in range(2):
            period = rng.randint(1, period_max)
            specs.append((f"k{k}-p{period}-{r}.{i}", k,
                          random_periodic_spec(rng, k, period, 0, extra_max)))
    for i, (lo, hi) in enumerate(LARGE_BANDS):
        k = rng.randint(lo, hi)
        specs.append((f"k{k}-p1-{r}.{i}", k,
                      random_periodic_spec(rng, k, 1, k, k)))
    for name, k, spec in specs:
        jobs.append(_cli("cover", name, _spec_file(spec_dir, name, spec), [],
                         k=k))
    return jobs


# ---------------------------------------------------------------------------
# free-2 action-law triples

FREE_INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b"}


def random_word(rng, length, first_not=None):
    """Reduced free-2 word of the given length, not starting with first_not."""
    word = ""
    while len(word) < length:
        banned = FREE_INVERSE[word[-1]] if word else first_not
        word += rng.choice([c for c in "ABab" if c != banned])
    return word


def free2_round(rng):
    # x, y, z on the sphere S_3 with xy reduced, so every job does the same
    # work: one B_12 table, act outputs on B_9 and B_6, one B_9 table
    x = random_word(rng, 3)
    y = random_word(rng, 3, first_not=FREE_INVERSE[x[-1]])
    z = random_word(rng, 3)
    return [{"name": f"laws:free-2:x{x}-y{y}-z{z}", "argv": [],
             "check": {"cmd": "laws", "x": x, "y": y, "z": z}}]


# ---------------------------------------------------------------------------


def generate(workload: str, seed: int, spec_dir: str) -> list[list[dict]]:
    """Return the workload's pool of rounds, each round in a seeded order.

    Spec files are named inside spec_dir, which is made here, but written
    only by ``write_spec``: writing a few hundred files in set-up made its
    time vary by a factor of two from one process to the next."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    os.makedirs(spec_dir, exist_ok=True)
    rounds = []
    if workload == "cayley-exact":
        files = _spec_files(spec_dir, EXACT_SETS)
        make = lambda r: cayley_exact_round(rng, files)
    elif workload == "cayley-bfs":
        files = _spec_files(spec_dir, BFS_SETS)
        make = lambda r: cayley_bfs_round(rng, files)
    elif workload == "layered-cover":
        files = _spec_files(spec_dir, FIXTURES)
        make = lambda r: layered_cover_round(rng, files, spec_dir, r)
    else:
        make = lambda r: free2_round(rng)
    for r in range(POOL_ROUNDS[workload]):
        jobs = make(r)
        rng.shuffle(jobs)
        rounds.append(jobs)
    return rounds
