import hashlib
import json
import random

import pytest

import horoscope as h
from horoscope.npartite import _uniform_selection
from horoscope.specs import cover_jsonable, witness_jsonable

import corpus
from corpus import enumerate_spanning_paths


def brute_minimum(lg, paths, depth):
    """Oracle for the packed-count DP: enumerate every spanning path."""
    best = None
    for names in enumerate_spanning_paths(lg, depth):
        top = max(sum(1 for i, nm in enumerate(names)
                      if q.covers(i) and q.name_at(i) == nm)
                  for q in paths)
        best = top if best is None else min(best, top)
    return best


def walk_trace(node):
    yield node
    for child in node.children:
        yield from walk_trace(child)


@pytest.mark.parametrize("name,lg", corpus.corpus(0))
def test_cover_shape_and_verification(name, lg):
    res = h.monotone_cover(lg)
    assert len(res.paths) == res.k
    assert not res.approximate
    for p in res.paths:
        assert p.infinite
        p.validate(lg, depth=50)
    minima = h.spanning_intersection_minima(lg, res.paths, (10, 20, 40))
    assert minima[10] is not None and minima[10] >= 1
    assert minima[10] <= minima[20] <= minima[40]


@pytest.mark.parametrize("name,lg", corpus.corpus(0))
def test_trace_split_arithmetic(name, lg):
    res = h.monotone_cover(lg)
    for node in walk_trace(res.trace):
        if node.kind == "split":
            assert node.v + node.w == node.k
            assert 1 <= node.v < node.k
            assert 1 <= node.w < node.k
            a, b = node.children
            assert a.k <= node.v
            assert b.k <= node.w
            assert len(node.padded) == (node.v - a.k) + (node.w - b.k)


def test_dp_matches_brute_enumeration():
    for name, lg in corpus.corpus(0):
        if lg.k > 3:
            continue
        res = h.monotone_cover(lg)
        dp = h.spanning_intersection_minima(lg, res.paths, (8,))
        assert dp[8] == brute_minimum(lg, res.paths, 8), name


def test_dp_takes_more_than_eight_paths():
    # the packed counts live in one Python int: no limit on the path count
    lg = corpus.random_periodic(3, k=3, period=2)
    paths = h.monotone_cover(lg).paths * 3
    assert len(paths) == 9
    assert h.spanning_intersection_minima(lg, paths, (8,)) == {8: 5}
    assert brute_minimum(lg, paths, 8) == 5
    lg = corpus.random_periodic(1, k=3, period=2)
    first, *rest = h.monotone_cover(lg).paths
    paths = [first] * 8 + rest
    assert h.spanning_intersection_minima(lg, paths, (8,))[8] == \
        brute_minimum(lg, paths, 8)


def test_hall_funnel_cover_paths():
    lg = corpus.hall_funnel()
    res = h.monotone_cover(lg)
    assert res.k == 2
    spine = next(p for p in res.paths if p.name_at(0) == "a")
    assert all(spine.name_at(i) == "a" for i in range(31))
    # only two paths span the depth-30 unfolding; both ride the a-spine
    for names in enumerate_spanning_paths(lg, 30):
        hits = sum(1 for i, nm in enumerate(names) if spine.name_at(i) == nm)
        assert hits >= 28


def test_crossing_cover_meets_a_spine_often():
    lg = corpus.two_spine_crossing()
    res = h.monotone_cover(lg)
    minima = h.spanning_intersection_minima(lg, res.paths, (30,))
    assert minima[30] >= 15


def test_half_line_base_case():
    res = h.monotone_cover(corpus.half_line())
    assert res.k == 1
    assert res.paths[0].cycle == ("a",)
    assert res.trace.kind == "match"


def test_collapse_needs_split_and_padding():
    res = h.monotone_cover(corpus.three_spine_collapse())
    assert res.k == 3
    split = res.trace
    assert split.kind == "split"
    assert (split.v, split.w) == (1, 2)
    assert split.padded == ("b",)
    starts = sorted(p.name_at(p.start) for p in res.paths)
    assert starts == ["a", "b", "c"]
    pad = next(p for p in res.paths if p.name_at(p.start) == "b")
    assert all(pad.name_at(i) == "a" for i in range(pad.start + 1, 20))


def test_double_funnel_nests_twice():
    res = h.monotone_cover(corpus.double_funnel_k4())
    assert res.k == 4
    kinds = [n.kind for n in walk_trace(res.trace)]
    assert kinds.count("split") >= 2


def test_period2_funnel_collapses_to_one_path():
    res = h.monotone_cover(corpus.period2_funnel())
    assert res.k == 1
    (p,) = res.paths
    # the surviving name x sits on the odd layers; every spanning path must
    # cross it there, so one path covers everything
    assert p.name_at(1) == "x"
    assert p.name_at(3) == "x"


def test_cover_deterministic():
    a = h.monotone_cover(corpus.double_funnel_k4())
    b = h.monotone_cover(corpus.double_funnel_k4())
    assert a == b


def test_reachability_functoriality():
    # paths in a reachability reduction lift to monotone paths of the parent
    # hitting the same vertices at the selected layers
    from horoscope.npartite import _expand_paths

    lg = corpus.two_spine_crossing()
    sel = h.Stride(0, 2)
    paths = h.partition_by_matchings(h.monotone_reachability(lg, sel))
    for q, lifted in zip(paths, _expand_paths(lg, sel, paths)):
        lifted.validate(lg, depth=24)
        for t in range(12):
            assert lifted.name_at(2 * t) == q.name_at(t)


def test_expand_path_realigns_short_cycles():
    # a cycle shorter than the parent period must be unrolled until the
    # segment pattern repeats
    from horoscope.npartite import _expand_paths

    lg = corpus.two_spine_crossing()          # period 2
    spine = h.MonotonePath(0, (), ("a",))     # cycle length 1
    lifted, = _expand_paths(lg, h.Stride(0, 1), [spine])
    assert len(lifted.cycle) == 2
    lifted.validate(lg, depth=24)
    assert all(lifted.name_at(i) == "a" for i in range(24))


def random_prefixed_periodic(seed):
    """Seeded periodic graph: k = 2-4, period 1-3, behind a prefix of 0-2
    layers of 1-4 names drawn from the same pool; the sizes vary, so pruning
    may select a stride."""
    rng = random.Random(seed)
    k, period = rng.randint(2, 4), rng.randint(1, 3)
    names = [f"v{i}" for i in range(k)]
    prefix = [names[:1] + [f"v{i}" for i in range(1, rng.randint(1, 4))]
              for _ in range(rng.randint(0, 2))]
    layers = prefix + [names] * period + [names]      # the wrap ends in block layer 0

    def step(src, dst):
        pairs = {(a, rng.choice(dst)) for a in src}
        pairs |= {(rng.choice(src), rng.choice(dst)) for _ in range(rng.randrange(0, k + 1))}
        return sorted(pairs)

    steps = [step(a, b) for a, b in zip(layers, layers[1:])]
    p = len(prefix)
    return h.LayeredGraph.periodic(
        [names] * period, steps[p:-1], steps[-1], prefix,
        steps[:max(p - 1, 0)], steps[p - 1] if p else None)


def test_shared_segment_memo_lifts_the_same_paths(monkeypatch):
    # the cover lifts the paths through one (parent, selection) in one call,
    # which shares one segment memo among them; a path lifted alone must
    # come out the same
    from horoscope import npartite

    real = npartite._expand_paths
    calls = []

    def recording(parent, selection, paths):
        lifted = real(parent, selection, paths)
        calls.append((parent, selection, paths, lifted))
        return lifted

    monkeypatch.setattr(npartite, "_expand_paths", recording)
    graphs = [lg for _, lg in corpus.corpus(0)]
    graphs += [random_prefixed_periodic(seed) for seed in range(200)]
    graphs += [random_truncation(seed) for seed in range(100)]
    for lg in graphs:
        try:
            h.monotone_cover(lg)
        except h.HoroscopeError:
            pass
    for parent, selection, paths, lifted in calls:
        assert [real(parent, selection, [q])[0] for q in paths] == lifted
    assert any(isinstance(sel, tuple) for _, sel, *_ in calls)
    assert any(parent.num_prefix for parent, *_ in calls)
    assert sum(len(paths) for _, _, paths, _ in calls) > 2 * len(calls)
    # random walks along strides the cover never picks: their segments
    # start in every phase, and from layer 0 inside the prefix
    rng = random.Random(5)
    for seed in range(50):
        lg = random_prefixed_periodic(seed)
        for sel in (h.Stride(0, 3), h.Stride(1, 2)):
            reduced = h.monotone_reachability(lg, sel)
            walks = []
            for _ in range(5):
                walk = [rng.choice(reduced.layer(0))]
                for t in range(8):
                    nxt = sorted(reduced.forward_map(t)[walk[-1]])
                    if not nxt:
                        break
                    walk.append(rng.choice(nxt))
                walks.append(h.MonotonePath(0, tuple(walk)))
            for q, lifted in zip(walks, real(lg, sel, walks)):
                assert lifted == real(lg, sel, [q])[0]
                for t, name in enumerate(q.head):
                    assert lifted.name_at(sel.start + t * sel.stride) == name


def test_matching_selection_walks_the_partition(monkeypatch):
    # the matching branch walks the matchings its decision found; they
    # give the paths partition_by_matchings finds on the reduction
    from horoscope import npartite

    real = npartite._cover_uniform
    graphs = []

    def recording(g):
        graphs.append(g)
        return real(g)

    monkeypatch.setattr(npartite, "_cover_uniform", recording)
    for lg in ([lg for _, lg in corpus.corpus(0)]
               + [random_prefixed_periodic(seed) for seed in range(200)]
               + [random_truncation(seed) for seed in range(100)]):
        try:
            h.monotone_cover(lg)
        except h.HoroscopeError:
            pass
    kinds = set()
    for g in graphs:
        res = npartite._matching_selection(g)
        if isinstance(res, h.HallFailureWitness):
            continue
        sel, paths = res
        assert paths == h.partition_by_matchings(h.monotone_reachability(g, sel))
        kinds.add(type(sel))
    assert kinds == {h.Stride, tuple}


def test_cover_propagates_empty():
    lg = h.LayeredGraph.periodic([["a"]], [], [])
    with pytest.raises(h.EmptyGraph):
        h.monotone_cover(lg)


def test_truncation_cover_flagged_approximate():
    # spanning semantics differ from the periodic ones here: b_i for i >= 1
    # lies on no spanning path (nothing feeds b), so pruning leaves one spine
    lg = corpus.hall_funnel().unfold(30)
    res = h.monotone_cover(lg)
    assert res.approximate
    assert res.k == 1
    (p,) = res.paths
    assert p.covers(0) and p.covers(30)
    assert p.name_at(5) == "a"
    minima = h.spanning_intersection_minima(lg, res.paths, (10, 20))
    assert minima[20] >= minima[10] >= 1


def test_truncation_cover_match_branch():
    lg = corpus.two_spine_crossing().unfold(20)
    res = h.monotone_cover(lg)
    assert res.trace.kind == "match"
    covered = {(i, p.name_at(i)) for p in res.paths for i in range(21)}
    everything = {(i, nm) for i in range(21) for nm in lg.layer(i)}
    assert covered == everything


def test_multi_phase_hall_failure():
    # Hall fails at both phases of a period-2 block with nothing pruned, so
    # the stride analysis runs on the two-phase graph directly
    lg = corpus.funnel_both_phases()
    pruned = h.prune_to_spanning(lg)
    assert pruned.layers == lg.layers and _uniform_selection(pruned) is None
    w = h.find_hall_failure(lg)
    assert w.base_layer == 0
    assert w.U == ("a", "b") and w.sizes == (2, 1)
    res = h.monotone_cover(lg)
    assert res.k == 2 and res.trace.kind == "split"
    spine = next(p for p in res.paths if p.name_at(0) == "a")
    assert spine.name_at(1) == "x" and spine.name_at(2) == "a"


def test_prefix_funnel_sheds_prefix_then_splits():
    res = h.monotone_cover(corpus.prefix_funnel())
    assert res.k == 2
    assert res.trace.kind == "split"
    # paths are prepended back through the seam to layer 0
    assert any(p.covers(0) and p.name_at(0) == "s" for p in res.paths)


@pytest.mark.parametrize("wrap", [[("a", "a"), ("b", "a")], [("a", "a"), ("b", "b")]],
                         ids=["funnel", "spines"])
def test_uniform_prefix_runs_the_recursion_prefixless(wrap):
    # every surviving layer has the block's size, so the cover selects the
    # whole period: the recursion runs on the period alone, and its trace is
    # that of the graph without the prefix
    lg = h.LayeredGraph.periodic(
        [["a", "b"]], [], wrap, prefix_layers=[["s", "t"]], prefix_steps=[],
        seam=[("s", "a"), ("t", "b")])
    assert _uniform_selection(h.prune_to_spanning(lg)) == h.Stride(1, 1)
    res = h.monotone_cover(lg)
    bare = h.LayeredGraph.periodic([["a", "b"]], [], wrap)
    assert res.trace == h.monotone_cover(bare).trace
    assert res.k == 2
    for p in res.paths:
        p.validate(lg, depth=50)
    minima = h.spanning_intersection_minima(lg, res.paths, (10,))
    assert minima[10] == brute_minimum(lg, res.paths, 10) >= 1


def test_reachability_crossing_the_prefix():
    red = h.monotone_reachability(corpus.prefix_feeder(), h.Stride(0, 2))
    assert red.layers[:red.num_prefix] == (("s",),)
    assert red.edge_pairs(0) == {("s", "a"), ("s", "b")}         # the seam
    assert red.period_layers == (("a", "b"),)
    assert red.edge_pairs(1) == {("a", "a"), ("b", "b")}         # the wrap


def test_random_instances_stress():
    for seed in range(25):
        lg = corpus.random_periodic(seed, k=2 + seed % 3, period=1 + seed % 2)
        res = h.monotone_cover(lg)
        assert len(res.paths) == res.k
        minima = h.spanning_intersection_minima(lg, res.paths, (40,))
        assert minima[40] is not None and minima[40] >= 4
        for p in res.paths:
            p.validate(lg, depth=44)


def random_with_dead_ends(seed, k, period):
    """Random periodic graph that may strand vertices (no forward edge)."""
    import random as _random

    rng = _random.Random(seed)
    names = [f"v{i}" for i in range(k)]
    steps = []
    for _ in range(period):
        pairs = {(rng.choice(names), rng.choice(names))
                 for _ in range(rng.randrange(1, 2 * k + 1))}
        steps.append(sorted(pairs))
    return h.LayeredGraph.periodic([names] * period, steps[:-1], steps[-1])


def test_cover_catches_long_random_walks():
    # every maximal forward walk in the pruned graph is infinite; any such
    # walk of 200 layers must already meet some cover path many times
    import random as _random

    rng = _random.Random(99)
    covered_cases = 0
    for seed in range(60):
        lg = random_with_dead_ends(seed, k=2 + seed % 3, period=1 + seed % 2)
        try:
            res = h.monotone_cover(lg)
        except h.EmptyGraph:
            continue
        covered_cases += 1
        pruned = h.prune_to_spanning(lg)
        for _ in range(5):
            start_layer = rng.randrange(0, 3)
            names = pruned.layer(start_layer)
            if not names:
                continue
            cur = rng.choice(names)
            walk = [(start_layer, cur)]
            for i in range(start_layer, start_layer + 200):
                succ = [b for a, b in pruned.edge_pairs(i) if a == cur]
                assert succ, "pruned vertices always extend forward"
                cur = rng.choice(succ)
                walk.append((i + 1, cur))
            best = max(
                sum(1 for i, nm in walk if q.name_at(i) == nm)
                for q in res.paths)
            assert best >= 4, f"seed {seed}: walk met covers only {best} times"
    assert covered_cases >= 30


def test_cover_paths_realize_all_horofunctions(graphs):
    # end to end on the ladder: quotient the spheres, cover them, lift each
    # cover path to a geodesic ray, follow its Busemann limit, and compare
    # with the independently enumerated restrictions: the set is complete
    g = graphs["ladder"]
    sq = h.sphere_quotient(g, bound=24)
    res = h.monotone_cover(sq)
    assert res.k == 4
    limits = set()
    for path in res.paths:
        ray = h.monotone_to_ray(g, sq, path)
        approx = h.horofunction_approx(g, ray, 5, 8)
        limits.add(approx.values)
    enumerated = set(h.enumerate_horofunction_restrictions(g, 5, 40, 8))
    assert limits == enumerated


def test_intersection_minima_past_255_layers():
    lg = corpus.two_spine()
    res = h.monotone_cover(lg)
    assert h.spanning_intersection_minima(lg, res.paths, (255, 256, 300)) == \
        {255: 256, 256: 257, 300: 301}
    assert h.spanning_intersection_minima(lg, res.paths, (10, 254)) == \
        {10: 11, 254: 255}


def test_intersection_minima_count_a_name_none():
    # a path covering layer i is hit there even when its name is None;
    # the same graph with a named vertex gives the same minima
    def one_spine(name):
        lg = h.build_layered({"kind": "layered", "period": {"layers": [[name]]},
                              "wrap": [[name, name]]})
        return h.spanning_intersection_minima(lg, h.monotone_cover(lg).paths)

    assert one_spine(None) == one_spine("a") == {10: 11, 20: 21, 40: 41}


def test_intersection_minima_without_a_depth_is_empty():
    # no depth asked for, or none inside a short truncation: no minima
    lg = corpus.two_spine()
    assert h.spanning_intersection_minima(lg, h.monotone_cover(lg).paths, ()) == {}
    short = lg.unfold(5)
    paths = h.monotone_cover(short).paths
    assert h.spanning_intersection_minima(short, paths) == {}
    assert h.spanning_intersection_minima(short, paths, (10, 5, 6)) == \
        {5: brute_minimum(short, paths, 5)}


def test_grouped_dp_matches_brute_force():
    # the per-vertex state groups keep every state: minima at each depth
    # equal brute-force enumeration on small graphs (k <= 3, depth <= 7)
    rng = random.Random(12)
    compared = 0
    for seed in range(200):
        k = rng.randint(1, 3)
        if seed % 2:
            lg, depth = corpus.random_periodic(seed, k=k, period=rng.randint(1, 3)), 7
        else:
            depth = rng.randint(1, 7)
            names = [f"v{i}" for i in range(k)]
            steps = [sorted({(rng.choice(names), rng.choice(names))
                             for _ in range(rng.randint(k, 2 * k))}) for _ in range(depth)]
            lg = h.LayeredGraph.truncation([names] * (depth + 1), steps)
        try:
            paths = list(h.monotone_cover(lg).paths)
        except h.HoroscopeError:
            continue
        if seed % 3 == 0 and len(paths) > 1:
            paths = paths[1:]        # a dropped cover path lets the minima vary
        depths = range(depth + 1)
        assert h.spanning_intersection_minima(lg, paths, depths) == \
            {d: brute_minimum(lg, paths, d) for d in depths}, seed
        compared += 1
    assert compared > 150

    # spanning paths die out after layer 3: the deeper minima are None
    ab = ["a", "b"]
    lg = h.LayeredGraph.truncation([ab] * 6, [[("a", "a"), ("b", "b")],
                                              [("a", "b"), ("b", "a")],
                                              [("a", "a")], [], [("a", "a")]])
    paths = [h.MonotonePath(0, ("a", "a", "b", "b")), h.MonotonePath(1, ("b",))]
    expected = {d: brute_minimum(lg, paths, d) for d in range(6)}
    assert expected[3] == 1 and expected[4] is expected[5] is None
    assert h.spanning_intersection_minima(lg, paths, range(6)) == expected

    # a path named None at every other layer, beside a finite one that
    # leaves layers uncovered (where name_at also reads None)
    into, out_of = [("a", None), ("b", None)], [(None, "a"), (None, "b")]
    lg = h.LayeredGraph.truncation([ab, [None]] * 3, [into, out_of] * 2 + [into])
    paths = [h.MonotonePath(0, ("a", None, "b", None, "a", None)),
             h.MonotonePath(1, (None, "b"))]
    assert h.spanning_intersection_minima(lg, paths, range(6)) == \
        {d: brute_minimum(lg, paths, d) for d in range(6)}

    # past 255 layers the packed field widens
    for lg in (corpus.two_spine(), corpus.hall_funnel(), corpus.prefix_feeder()):
        paths = h.monotone_cover(lg).paths
        depths = (254, 255, 256, 300)
        assert h.spanning_intersection_minima(lg, paths, depths) == \
            {d: brute_minimum(lg, paths, d) for d in depths}


def test_dp_reads_each_path_from_its_start():
    # the DP reads each path's names in one pass from its start layer; hand-
    # built paths start past layer 0 (one with an empty head), end before the
    # deepest depth, start past it, and carry the name None, on a periodic
    # graph and on a truncation of it; the brute oracle reads name_at
    lg = h.LayeredGraph.periodic(
        [["a", "b"], [None]], [[("a", None), ("b", None)]],
        [(None, "a"), (None, "b")], prefix_layers=[["a", "b", "c"]],
        seam=[("a", "a"), ("b", "b"), ("c", "a")])
    paths = [h.MonotonePath(3, ("b",), (None, "a")),
             h.MonotonePath(2, (), (None, "b")),
             h.MonotonePath(1, ("a", None, "b")),
             h.MonotonePath(0, ("c", "a", None)),
             h.MonotonePath(14, (None,), ("a", None))]
    for q in paths:
        q.validate(lg, depth=16)
    assert {d: brute_minimum(lg, paths, d) for d in (4, 8)} == {4: 2, 8: 5}
    # each path alone too, where its own hits set the minima
    for graph, depths in ((lg, range(9)), (lg.unfold(6), range(7))):
        for chosen in [paths] + [[q] for q in paths]:
            assert h.spanning_intersection_minima(graph, chosen, depths) == \
                {d: brute_minimum(graph, chosen, d) for d in depths}, chosen


# ---------------------------------------------------------------- golden digest


def random_truncation(seed):
    """Seeded truncation with k = 2-4 names in every layer and depth 4-10;
    every name keeps a forward edge, and a few draws split on Hall failure."""
    rng = random.Random(seed)
    k = rng.randint(2, 4)
    depth = rng.randint(4, 10)
    names = [f"v{i}" for i in range(k)]
    steps = []
    for _ in range(depth):
        pairs = {(a, rng.choice(names)) for a in names}
        for _ in range(rng.randrange(0, k + 1)):
            pairs.add((rng.choice(names), rng.choice(names)))
        steps.append(sorted(pairs))
    return h.LayeredGraph.truncation([names] * (depth + 1), steps)


def golden_cases():
    cases = [(f"corpus{s}/{n}", lg) for s in range(4) for n, lg in corpus.corpus(s)]
    cases += [(f"periodic{s}", corpus.random_periodic(s, k=2 + s % 3, period=1 + s % 3))
              for s in range(40)]
    cases += [(f"dead_ends{s}", random_with_dead_ends(s, k=2 + s % 3, period=1 + s % 2))
              for s in range(40)]
    cases += [(f"unfold12/{n}", lg.unfold(12)) for n, lg in corpus.corpus(0)]
    cases += [(f"truncation{s}", random_truncation(s)) for s in range(400)]
    return cases


def golden_record(lg):
    """Cover, DP minima (k <= 4) and Hall witnesses of the graph and of its
    pruning; a typed error stands in for a result by its class name."""
    def attempt(f):
        try:
            return f()
        except h.HoroscopeError as exc:
            return type(exc).__name__

    def witness(w):
        return witness_jsonable(w) if isinstance(w, h.HallFailureWitness) else w

    res = attempt(lambda: h.monotone_cover(lg))
    if isinstance(res, str):
        return [res]
    depths = (6, 12) if lg.is_periodic else (3, 6, 9)
    minima = (sorted(h.spanning_intersection_minima(lg, res.paths, depths).items())
              if res.k <= 4 else None)
    return [cover_jsonable(res), minima,
            witness(attempt(lambda: h.find_hall_failure(lg))),
            witness(attempt(lambda: h.find_hall_failure(h.prune_to_spanning(lg))))]


def test_golden_cover_digest():
    # covers, DP minima and Hall witnesses of 555 graphs: corpora 0-3, random
    # periodic graphs with and without dead ends, depth-12 unfoldings and
    # random truncations (seven of which split on a Hall failure)
    blob = json.dumps([[name, golden_record(lg)] for name, lg in golden_cases()])
    assert hashlib.sha256(blob.encode()).hexdigest() == \
        "041d59e6ee25f2b55f2e1cd22813bbec451a3d0c4412b91a182af012f794f7d4"


def test_truncation_cover_paths_are_spanning_paths():
    # every path of a truncation's cover runs from layer 0 to the last layer,
    # so it is a spanning path: the cover extends its paths in the pruned graph
    for seed in range(2000):
        lg = random_truncation(seed)
        for q in h.monotone_cover(lg).paths:
            q.validate(lg)
            assert (q.start, q.end) == (0, len(lg.layers) - 1), seed


def sparse_truncation(seed):
    """Seeded truncation with 1-3 names in every layer, depth 1-6 and each
    possible edge drawn with probability 0.3, so most draws span nothing."""
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(rng.randint(1, 3))]
    depth = rng.randint(1, 6)
    steps = [[(a, b) for a in names for b in names if rng.random() < 0.3]
             for _ in range(depth)]
    return h.LayeredGraph.truncation([names] * (depth + 1), steps)


def test_truncation_pruning_keeps_the_names_on_spanning_paths():
    # pruning a truncation keeps exactly the names on its spanning paths,
    # and raises EmptyGraph exactly when there is none
    empty = 0
    for lg in ([random_truncation(seed) for seed in range(2000)]
               + [sparse_truncation(seed) for seed in range(500)]):
        spanning = enumerate_spanning_paths(lg, len(lg.layers) - 1)
        if not spanning:
            empty += 1
            with pytest.raises(h.EmptyGraph):
                h.prune_to_spanning(lg)
            continue
        assert h.prune_to_spanning(lg).layers == tuple(
            tuple(sorted(set(names))) for names in zip(*spanning))
    assert empty == 343                 # all of them sparse draws


def test_pruned_names_have_successors():
    # the invariant that lets _walk take the least successor unchecked:
    # after pruning, every name has a successor on every stored step, which
    # on a truncation is every layer but the last
    pruned = 0
    for _, lg in golden_cases():
        try:
            g = h.prune_to_spanning(lg)
        except h.EmptyGraph:
            continue
        pruned += 1
        assert all(ts for succ in g.steps for ts in succ.values())
    assert pruned == 544                # 129 of them periodic


def funnel_truncation(seed):
    """Seeded truncation with k = 3-6 names in every layer and depth 4-8:
    each step squeezes a random funnel set into fewer names while the other
    names feed the rest, so most draws split on a Hall failure.  Every draw
    samples a sorted list, never a set."""
    rng = random.Random(seed)
    k = rng.randint(3, 6)
    depth = rng.randint(4, 8)
    names = [f"v{i}" for i in range(k)]
    steps = []
    for _ in range(depth):
        funnel = sorted(rng.sample(names, rng.randint(2, k - 1)))
        narrow = sorted(rng.sample(names, rng.randint(1, len(funnel) - 1)))
        rest = [a for a in names if a not in funnel]
        pairs = [(a, rng.choice(narrow)) for a in funnel]
        pairs += [(rng.choice(rest), b) for b in names if b not in narrow]
        sources = {a for a, _ in pairs}
        pairs += [(a, rng.choice(names)) for a in rest if a not in sources]
        pairs += [(rng.choice(names), rng.choice(names))
                  for _ in range(rng.randrange(0, 2))]
        steps.append(sorted(set(pairs)))
    return h.LayeredGraph.truncation([names] * (depth + 1), steps)


def test_golden_truncation_split_digest():
    # the truncation branch of the cover recursion: 100 funnel truncations
    # whose covers hold 66 split nodes (59 graphs split), 33 of them padded
    cases = [funnel_truncation(s) for s in range(100)]
    records = [golden_record(lg) for lg in cases]
    splits = [node for lg in cases for node in walk_trace(h.monotone_cover(lg).trace)
              if node.kind == "split"]
    assert len(splits) == 66
    assert sum(1 for node in splits if node.padded) == 33
    blob = json.dumps(records)
    assert hashlib.sha256(blob.encode()).hexdigest() == \
        "2631028539a912b7ec65ea1295b9bfca8874cd07fd5152a784b17e5c19a90ef2"


def test_periodic_splits_pad_only_the_complement():
    # the cover pads the layer-0 names that neither child keeps; in a
    # periodic split the funnel child keeps all of V, so only names of the
    # complement W are ever padded
    splits = 0
    for name, lg in golden_cases():
        if not lg.is_periodic:
            continue
        try:
            res = h.monotone_cover(lg)
        except h.HoroscopeError:
            continue
        for node in walk_trace(res.trace):
            if node.kind == "split":
                splits += 1
                funnel = {a for _, v in node.witness.V for a in v}
                assert node.children[0].k == node.v, name
                assert not funnel & set(node.padded), name
    assert splits == 61


@pytest.mark.parametrize("lg,calls", [
    pytest.param(corpus.double_funnel_k4(), 4, id="periodic-double-funnel"),
    pytest.param(random_truncation(243), 13, id="truncation-243"),
])
def test_cover_matches_each_layer_pair_once(monkeypatch, lg, calls):
    # the decision functions keep the Hall certificates and the matchings
    # they compute, so the cover matches each layer pair it tries once
    from horoscope import npartite

    seen = []

    def counting(*args):
        seen.append(args)
        return h.matching_or_violator(*args)

    monkeypatch.setattr(npartite, "matching_or_violator", counting)
    res = h.monotone_cover(lg)
    assert any(n.kind == "split" for n in walk_trace(res.trace))
    assert len(seen) == calls
