"""Acceptance suite: one test per criterion A1 .. A10, each printing a
PASS/FAIL line.  A10 is the paper's bound as a cross-check: the rays along
a monotone path cover of k equal-size spheres give exactly the enumerated
horofunction restrictions, at most k of them.

Expected constants marked "frozen" were computed by a standalone brute-force
census before the library was built and are regression-pinned here.
"""

import random
import time

import horoscope as h
from horoscope.npartite import relation_between

import corpus
from conftest import FAMILY_SPECS

FROZEN_COUNTS = {"dihedral": 2, "ladder": 4}      # per-radius, r in [10, 20]
FROZEN_LATTICE_COUNTS = [8, 16, 24, 32, 40, 48]   # r = 1..6
FROZEN_GCD = {"integers": 1, "dihedral": 2, "ladder": 1}

FREE2_BUDGET = 2_200_000

# A10: nine linear generating sets, keyed in RECURRING_SPHERE_SIZES by their
# cover size k, and two superlinear ones, on which no sphere size recurs
BOUND_SPECS = {
    **{f: FAMILY_SPECS[f] for f in ("integers", "dihedral", "ladder", "ladder3",
                                    "lattice")},
    "integers-12": h.GroupSpec("integers", generators=(-2, -1, 1, 2)),
    "integers-13": h.GroupSpec("integers", generators=(-3, -1, 1, 3)),
    "integers-23": h.GroupSpec("integers", generators=(-3, -2, 2, 3)),
    "dihedral-3": h.GroupSpec("infinite-dihedral",
                              generators=((0, 1), (1, 1), (2, 1))),
    "ladder-diag": h.GroupSpec("integers-times-cyclic", modulus=2,
                               generators=((-1, 0), (1, 0), (0, 1),
                                           (-1, 1), (1, 1))),
    "lattice-diag": h.GroupSpec("integer-lattice-2d",
                                generators=((-1, 0), (1, 0), (0, -1), (0, 1),
                                            (-1, -1), (1, 1))),
}
RECURRING_SPHERE_SIZES = {"integers": 2, "dihedral": 2, "ladder": 4,
                          "integers-12": 4, "dihedral-3": 4, "ladder-diag": 4,
                          "ladder3": 6, "integers-13": 6, "integers-23": 6}


def _report(tag, ok, detail=""):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{tag}: {detail}"


def test_a1_integers_two_horofunctions():
    g = h.cayley_graph(h.GroupSpec("integers"))
    t0 = time.perf_counter()
    counts = [len(h.enumerate_horofunction_restrictions(g, r, 4 * r, 8))
              for r in range(1, 21)]
    elapsed = time.perf_counter() - t0
    ok = counts == [2] * 20 and elapsed < 1.0
    _report("A1", ok, f"counts={sorted(set(counts))} time={elapsed:.3f}s (< 1 s)")


def test_a2_linear_growth_stabilization():
    for family, expected in FROZEN_COUNTS.items():
        g = h.cayley_graph(FAMILY_SPECS[family])
        t0 = time.perf_counter()
        counts = [len(h.enumerate_horofunction_restrictions(g, r, 4 * r, 8))
                  for r in range(10, 21)]
        elapsed = time.perf_counter() - t0
        ok = counts == [expected] * 11 and elapsed < 10.0
        _report("A2", ok,
                f"{family}: counts={sorted(set(counts))} expected={expected} "
                f"time={elapsed:.2f}s (< 10 s)")


def test_a3_superlinear_contrast():
    g = h.cayley_graph(h.GroupSpec("integer-lattice-2d"))
    t0 = time.perf_counter()
    counts = [len(h.enumerate_horofunction_restrictions(g, r, 4 * r, 8))
              for r in range(1, 7)]
    elapsed = time.perf_counter() - t0
    increasing = all(a < b for a, b in zip(counts, counts[1:]))
    ok = increasing and counts == FROZEN_LATTICE_COUNTS and elapsed < 60.0
    _report("A3", ok, f"counts={counts} time={elapsed:.2f}s (< 60 s)")


def test_a4_cover_suite():
    fixtures = corpus.corpus(0)
    assert len(fixtures) >= 10
    t0 = time.perf_counter()
    problems = []
    for name, lg in fixtures:
        res = h.monotone_cover(lg)
        if len(res.paths) != res.k:
            problems.append(f"{name}: {len(res.paths)} paths != k={res.k}")

        def walk(node):
            yield node
            for c in node.children:
                yield from walk(c)

        for node in walk(res.trace):
            if node.kind == "split" and node.v + node.w != node.k:
                problems.append(f"{name}: split {node.v}+{node.w} != {node.k}")
        minima = h.spanning_intersection_minima(lg, res.paths, (10, 20, 40))
        if minima[40] is None or minima[40] < 4:
            problems.append(f"{name}: depth-40 minimum {minima[40]} < 4")
        if not (minima[10] <= minima[20] <= minima[40]):
            problems.append(f"{name}: minima not monotone {minima}")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 30.0
    _report("A4", ok,
            f"{len(fixtures)} fixtures, time={elapsed:.2f}s (< 30 s) "
            + "; ".join(problems))


def test_a5_matching_partition_equivalence():
    checked = 0
    problems = []
    for name, lg in corpus.corpus(0):
        sizes = {len(lg.layer(i)) for i in range(41)}
        if len(sizes) != 1:
            continue
        if any(isinstance(h.matching_or_violator(lg.layer(j), lg.layer(j + 1),
                                                 lg.forward_map(j)), h.HallViolator)
               for j in range(40)):
            continue
        checked += 1
        paths = h.partition_by_matchings(lg)
        for i in range(41):
            names = sorted(p.name_at(i) for p in paths)
            if names != sorted(lg.layer(i)):
                problems.append(f"{name}: layer {i} not exactly covered")
                break
    ok = checked >= 3 and not problems
    _report("A5", ok, f"{checked} matchable fixtures verified at depth 40 "
            + "; ".join(problems))


def test_a6_reroot_random_prefixes():
    problems = []
    for family, spec in FAMILY_SPECS.items():
        g = h.cayley_graph(spec)
        rng = random.Random(29)
        ball5 = h.layer_decomposition(g, 5).ball()
        for trial in range(100):
            start = rng.choice(ball5)
            vs = [start]
            for _ in range(30):
                want = len(vs)
                cands = [u for u in g.neighbors(vs[-1])
                         if h.distance(g, start, u) == want]
                vs.append(rng.choice(cands))
            n0, back = h.reroot_ray(g, tuple(vs))
            d0 = h.distance(g, g.basepoint, start)
            if n0 > d0 + 30:
                problems.append(f"{family}#{trial}: N={n0} > d+30")
            if any(h.distance(g, g.basepoint, v) != i
                   for i, v in enumerate(back)):
                problems.append(f"{family}#{trial}: not geodesic from o")
            if back[-(31 - n0):] != tuple(vs[n0:]):
                problems.append(f"{family}#{trial}: tail disagrees from N")
    _report("A6", not problems,
            f"{100 * len(FAMILY_SPECS)} prefixes rerooted " + "; ".join(problems))


def _action_laws(g, seed, budget=1_000_000):
    grp = g.group
    rng = random.Random(seed)
    ball3 = h.layer_decomposition(g, 3, budget).ball()
    triples = [(rng.choice(ball3), rng.choice(ball3), rng.choice(ball3))
               for _ in range(200)]
    by_z = {}
    for t in triples:
        by_z.setdefault(t[2], []).append(t)
    big = len(h.layer_decomposition(g, 12, budget).ball()) > 100_000
    identity_checked = False
    for z in sorted(by_z, key=repr):
        f = h.busemann(g, z, 12, budget).values
        if not big or not identity_checked:
            assert h.act(grp.identity, f, g, budget) == f
            identity_checked = True
        for x, y, _ in by_z[z]:
            lhs = h.act(x, h.act(y, f, g, budget), g, budget)
            rhs = h.act(grp.mul(x, y), f, g, budget)
            assert lhs == rhs.restrict(lhs.domain, lhs.radius)
            moved = h.act(x, f, g, budget)
            direct = h.busemann(g, grp.mul(x, z), moved.radius, budget).values
            assert moved == direct


def test_a7_action_laws_small_families():
    t0 = time.perf_counter()
    for i, family in enumerate(("integers", "ladder", "ladder3",
                                "dihedral", "lattice")):
        _action_laws(h.cayley_graph(FAMILY_SPECS[family]), seed=101 + i)
    elapsed = time.perf_counter() - t0
    _report("A7", True,
            f"4 linear families + lattice, 200 triples each, exact, "
            f"time={elapsed:.2f}s")


def test_a7_action_laws_free_group():
    # the exponential-ball family: same 200 triples at domain radius 12
    t0 = time.perf_counter()
    _action_laws(h.cayley_graph(h.GroupSpec("free-2")), seed=106,
                 budget=FREE2_BUDGET)
    elapsed = time.perf_counter() - t0
    _report("A7", True, f"free-2, 200 triples, exact, time={elapsed:.1f}s")


def test_a8_homomorphism_witnesses():
    for family, expected_gcd in FROZEN_GCD.items():
        g = h.cayley_graph(FAMILY_SPECS[family])
        t0 = time.perf_counter()
        horos = h.enumerate_horofunction_restrictions(g, 12, 48, 8)
        orb = h.orbit_analysis(g, horos, 8)
        wit = h.extract_homomorphism(orb, g)
        # re-verify additivity independently of the extraction
        fd = wit.base.as_dict()
        ball = h.layer_decomposition(g, 8).ball()
        pairs = 0
        additive = True
        for hh, vh in wit.sampled_values:
            for x in ball:
                p = g.group.mul(hh, x)
                if p in fd:
                    pairs += 1
                    additive = additive and fd[p] == vh + fd[x]
        nontrivial = any(v != 0 for _, v in wit.sampled_values)
        elapsed = time.perf_counter() - t0
        ok = (additive and wit.image_gcd == expected_gcd
              and wit.image_gcd >= 1 and nontrivial and elapsed < 10.0)
        _report("A8", ok,
                f"{family}: gcd={wit.image_gcd} (expect {expected_gcd}), "
                f"{pairs} additive pairs, time={elapsed:.2f}s (< 10 s)")


def test_a9_busemann_monotonicity():
    problems = []
    for family, spec in FAMILY_SPECS.items():
        g = h.cayley_graph(spec)
        ray = h.extend_ray(g, (g.basepoint,), 30)
        ld = h.layer_decomposition(g, 6)
        for y in ld.ball():
            dy = ld.depth_of(y)
            prev = None
            for n, z in enumerate(ray):
                b = h.distance(g, z, y) - n
                if b < -dy or (prev is not None and b > prev):
                    problems.append(f"{family} at y={y!r} n={n}")
                    break
                prev = b
    _report("A9", not problems,
            f"{len(FAMILY_SPECS)} families, all y in B_6, ray length 30 "
            + "; ".join(problems))



def test_a10_cover_rays_bound_horofunctions():
    # the paper's bound: k monotone paths on equal-size spheres meet every
    # geodesic ray, so the horofunctions number at most k and each is the
    # limit along a cover path's ray; statuses all read "heuristic", so the
    # sets are compared, not the statuses
    problems = []
    t0 = time.perf_counter()
    for name, spec in BOUND_SPECS.items():
        g = h.cayley_graph(spec)
        try:
            sq = h.sphere_quotient(g, bound=40)
        except h.NoConstantSubsequence:
            if name in RECURRING_SPHERE_SIZES:
                problems.append(f"{name}: no recurring sphere size")
            continue
        if name not in RECURRING_SPHERE_SIZES:
            problems.append(f"{name}: superlinear, yet a sphere size recurs")
            continue
        cover = h.monotone_cover(sq)
        rays = {h.horofunction_approx(g, h.monotone_to_ray(g, sq, p), 4, 8).values
                for p in cover.paths}
        enumerated = set(h.enumerate_horofunction_restrictions(g, 4, 24, 8))
        if cover.k != RECURRING_SPHERE_SIZES[name]:
            problems.append(f"{name}: k={cover.k}")
        if rays != enumerated or len(enumerated) > cover.k:
            problems.append(f"{name}: {len(rays)} cover-ray maps, "
                            f"{len(enumerated)} enumerated, k={cover.k}")
    elapsed = time.perf_counter() - t0
    _report("A10", not problems,
            f"{len(RECURRING_SPHERE_SIZES)} linear sets, "
            f"{len(BOUND_SPECS) - len(RECURRING_SPHERE_SIZES)} superlinear, "
            f"time={elapsed:.2f}s " + "; ".join(problems))
