import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import horoscope as h
from conftest import FAMILY_SPECS, LINEAR_FAMILIES, bfs_depths, bfs_distance, run_threads


def half_line_graph():
    return h.RootedGraph(lambda n: [n - 1, n + 1] if n > 0 else [1], 0)


# ---------------------------------------------------------------- distance


def test_distance_integers(graphs):
    assert h.distance(graphs["integers"], 3, -2) == 5


def test_distance_identity(graphs):
    for g in graphs.values():
        assert h.distance(g, g.basepoint, g.basepoint) == 0


def test_distance_lattice(graphs):
    assert h.distance(graphs["lattice"], (0, 0), (2, 3)) == 5


@pytest.mark.parametrize("family", list(FAMILY_SPECS))
def test_exact_metric_matches_bfs(graphs, family):
    # the closed form, directly and through distance(), on pairs of B_6 (B_3
    # on free-2) that include the least and greatest vertices
    g = graphs[family]
    ball = h.layer_decomposition(g, 3 if family == "free2" else 6).ball()
    rng = random.Random(7)
    pairs = [(ball[0], ball[-1]), (ball[-1], ball[0])]
    pairs += [(rng.choice(ball), rng.choice(ball)) for _ in range(40)]
    for x, y in pairs:
        assert g.exact_distance(x, y) == h.distance(g, x, y) == bfs_distance(g, x, y)


def test_distance_budget_exhausted():
    g = h.explicit_graph(["a", "b", "c"], [["a", "b"]], "a")
    with pytest.raises(h.BudgetExhausted):
        h.distance(g, "a", "c")
    path = h.explicit_graph(list(range(6)), [[i, i + 1] for i in range(5)], 0)
    with pytest.raises(h.BudgetExhausted):      # the BFS explores a 4th vertex
        h.distance(path, 0, 5, budget=3)
    assert h.distance(path, 0, 5, budget=6) == 5


def test_symmetry_check(graphs):
    ball = h.layer_decomposition(graphs["dihedral"], 4).ball()
    h.verify_symmetric(graphs["dihedral"], ball)
    broken = h.RootedGraph(lambda n: [n + 1], 0)
    with pytest.raises(h.MalformedSpec):
        h.verify_symmetric(broken, [0, 1])


# ---------------------------------------------------------------- layers


def test_layers_integers(graphs):
    ld = h.layer_decomposition(graphs["integers"], 5)
    assert ld.sphere_sizes == [1, 2, 2, 2, 2, 2]


def test_layers_lattice(graphs):
    assert h.layer_decomposition(graphs["lattice"], 2).sphere_sizes == [1, 4, 8]


def test_layers_free2(graphs):
    assert h.layer_decomposition(graphs["free2"], 3).sphere_sizes == [1, 4, 12, 36]


def test_layer_invariants(graphs):
    for g in graphs.values():
        ld = h.layer_decomposition(g, 5)
        assert ld.layers[0] == (g.basepoint,)
        seen = set()
        for r in range(1, 6):
            for v in ld.layers[r]:
                assert v not in seen
                assert any(u in ld and ld.depth_of(u) == r - 1
                           for u in g.neighbors(v))
            seen.update(ld.layers[r])
        assert len(ld.ball()) == sum(ld.sphere_sizes)


def test_layer_budget():
    g = h.cayley_graph(h.GroupSpec("free-2"))
    with pytest.raises(h.BudgetExhausted):
        h.layer_decomposition(g, 10, budget=100)
    # a small ball still works afterwards
    assert h.layer_decomposition(g, 2, budget=100).sphere_sizes == [1, 4, 12]


def test_ball_radius_outside_decomposition_raises():
    g = h.cayley_graph(FAMILY_SPECS["integers"])
    ld = h.layer_decomposition(g, 5)
    for r in (-2, 6, 9):
        with pytest.raises(ValueError):
            ld.ball(r)
    assert ld.ball(0) == (0,)
    assert ld.ball() == tuple(range(-5, 6))
    assert h.layer_decomposition(g, 9).ball() == tuple(range(-9, 10))


def test_failing_oracle_leaves_no_half_built_layer():
    # the oracle answers at 0 and 1 but fails at 2, after the depth of 3
    # is written: every retry of layer 2 fails, and 3 stays outside B_1
    def oracle(v):
        if v == 2:
            raise h.MalformedSpec("no neighbors at 2")
        return {0: [1, 2], 1: [0, 3]}[v]

    g = h.RootedGraph(oracle, 0)
    for _ in range(2):
        with pytest.raises(h.MalformedSpec):
            h.layer_decomposition(g, 2)
    ld = h.layer_decomposition(g, 1)
    assert ld.sphere_sizes == [1, 2] and 3 not in ld


# ---------------------------------------------------------------- Busemann


def test_busemann_integers(graphs):
    bt = h.busemann(graphs["integers"], 5, 3)
    assert bt.values.value(2) == -2
    assert bt.values.value(-1) == 1
    assert bt.values.value(0) == 0


def test_busemann_at_basepoint(graphs):
    for g in graphs.values():
        bt = h.busemann(g, g.basepoint, 3)
        ld = h.layer_decomposition(g, 3)
        assert all(bt.values.value(y) == ld.depth_of(y) for y in ld.ball())


@given(z=st.integers(-40, 40))
@settings(max_examples=30, deadline=None)
def test_busemann_integers_formula(z):
    g = h.cayley_graph(h.GroupSpec("integers"))
    bt = h.busemann(g, z, 4)
    for y in range(-4, 5):
        assert bt.values.value(y) == abs(z - y) - abs(z)


def _assert_one_lipschitz(g, vm):
    dom = set(vm.domain)
    for y in vm.domain:
        for u in g.neighbors(y):
            if u in dom:
                assert abs(vm.value(y) - vm.value(u)) <= 1


def test_busemann_invariants(graphs):
    for g in graphs.values():
        ld = h.layer_decomposition(g, 4)
        for z in ld.layers[4][:3]:
            bt = h.busemann(g, z, 3)
            for y in bt.values.domain:
                assert abs(bt.values.value(y)) <= ld.depth_of(y)
            _assert_one_lipschitz(g, bt.values)


# ---------------------------------------------------------------- value maps


def test_valuemap_roundtrip():
    vm = h.ValueMap((1, 2, 3), (2, 0, -1), radius=5)
    assert vm.value(3) == -1
    with pytest.raises(KeyError):
        vm.value(9)
    assert vm.restrict([1, 3]).items == ((1, 2), (3, -1))
    assert json.dumps(vm.items) == "[[1, 2], [2, 0], [3, -1]]"


def test_valuemap_restrict_takes_unsorted_sets():
    vm = h.ValueMap(("", "a", "ab", "b", "ba"), (0, 1, 2, 1, 2), radius=2)
    tokens = {"ba", "zz", "", "ab"}   # hash order; "zz" is not in the domain
    assert vm.restrict(tokens, 1).items == (("", 0), ("ab", 2), ("ba", 2))
    assert vm.restrict(tokens, 1).radius == 1
    assert vm.restrict(iter(["ba", "ab", "ba"])).domain == ("ab", "ba")


@given(st.dictionaries(st.integers(-9, 9), st.integers(-5, 5), min_size=1))
def test_valuemap_ordering_is_item_order(d):
    keys = tuple(sorted(d))
    vm = h.ValueMap(keys, tuple(d[y] for y in keys))
    assert vm.as_dict() == d
    assert list(vm.items) == sorted(d.items())


# ---------------------------------------------------------------- rays


def test_canonical_ray(graphs):
    ray = h.extend_ray(graphs["integers"], (0,), 5)
    assert ray == (0, -1, -2, -3, -4, -5)
    h.validate_ray(graphs["integers"], ray)


def test_extend_ray_policy(graphs):
    g = graphs["integers"]
    assert h.extend_ray(g, (0,), 4, choose=max) == (0, 1, 2, 3, 4)
    with pytest.raises(h.NotGeodesic):
        h.extend_ray(g, (0, 1), 4, choose=lambda cands: cands[-1] - 2)


def test_extend_ray_policy_chooses_among_candidates(graphs):
    seen = []
    ray = h.extend_ray(graphs["integers"], (0,), 3,
                       choose=lambda cands: seen.append(cands) or cands[-1])
    assert ray == (0, 1, 2, 3)
    assert seen == [[-1, 1], [2], [3]]


def test_extend_ray_dead_end():
    g = h.explicit_graph([0, 1, 2], [[0, 1], [1, 2]], 0)
    with pytest.raises(h.RayNotExtendable):
        h.extend_ray(g, (0,), 5)


@pytest.mark.parametrize("call", [
    lambda g: h.validate_ray(g, ()),
    lambda g: h.extend_ray(g, (), 3),
    lambda g: h.horofunction_approx(g, (), 2, 3),
    lambda g: h.reroot_ray(g, ()),
    lambda g: h.ray_to_monotone(g, h.sphere_quotient(g, bound=6), ())],
    ids=["validate", "extend", "horofunction", "reroot", "to_monotone"])
def test_empty_ray_is_not_geodesic(graphs, call):
    with pytest.raises(h.NotGeodesic, match="empty vertex sequence"):
        call(graphs["integers"])


def test_validate_ray_rejects_non_geodesic(graphs):
    with pytest.raises(h.NotGeodesic):
        h.validate_ray(graphs["integers"], (0, 1, 0))
    with pytest.raises(h.NotGeodesic):
        h.validate_ray(graphs["integers"], (0, 2))


# ---------------------------------------------------------------- horofunctions


def test_horofunction_integers(graphs):
    g = graphs["integers"]
    ha = h.horofunction_approx(g, (0, 1, 2), 4, 8)
    for y in range(-4, 5):
        assert ha.values.value(y) == -y
    assert ha.values.value(0) == 0
    _assert_one_lipschitz(g, ha.values)


def test_horofunction_ray_vertices(graphs):
    g = graphs["ladder"]
    ray = h.extend_ray(g, (g.basepoint,), 12)
    ha = h.horofunction_approx(g, ray, 5, 6)
    ld = h.layer_decomposition(g, 5)
    for n, z in enumerate(ha.ray):
        if z in ld:
            assert ha.values.value(z) == -n


def test_horofunction_ladder_limit_values(graphs):
    # the canonical ladder ray heads to (-inf, 0); its limit is (y, u) -> y + u
    g = graphs["ladder"]
    ha = h.horofunction_approx(g, h.extend_ray(g, (g.basepoint,), 16), 4, 8)
    for (y, u) in ha.values.domain:
        assert ha.values.value((y, u)) == y + u


def test_horofunction_stabilized_on_half_line():
    g = half_line_graph()
    ha = h.horofunction_approx(g, (0, 1), 4, 6)
    assert ha.status == "stabilized"
    assert ha.floor_certified == 5
    assert [ha.values.value(y) for y in range(5)] == [0, -1, -2, -3, -4]


def test_horofunction_heuristic_on_line(graphs):
    ha = h.horofunction_approx(graphs["integers"], (0, 1), 3, 5)
    assert ha.status == "heuristic"  # values at -y never hit -d(o,y) for y < 0
    assert ha.stabilization_depth <= 3


def test_horofunction_requires_basepoint(graphs):
    with pytest.raises(h.NotGeodesic):
        h.horofunction_approx(graphs["integers"], (1, 2), 3, 4)


# ---------------------------------------------------------------- enumeration


def test_enumerate_integers_two_maps(graphs):
    g = graphs["integers"]
    maps = h.enumerate_horofunction_restrictions(g, 5, 20, 8)
    dom = tuple(range(-5, 6))
    expect = {tuple(-y for y in dom), tuple(y for y in dom)}
    assert {vm.values for vm in maps} == expect
    assert all(vm.domain == dom for vm in maps)


def test_enumerate_restriction_consistency(graphs):
    g = graphs["ladder"]
    ld = h.layer_decomposition(g, 6)
    deep = h.enumerate_horofunction_restrictions(g, 6, 40, 8)
    shallow = set(h.enumerate_horofunction_restrictions(g, 5, 40, 8))
    inner = ld.ball(5)
    for vm in deep:
        assert vm.restrict(inner, 5) in shallow


def test_enumerate_count_monotone_in_radius(graphs):
    for family in ("integers", "ladder", "dihedral", "lattice"):
        g = graphs[family]
        counts = [len(h.enumerate_horofunction_restrictions(g, r, 26, 8))
                  for r in range(1, 6)]
        assert counts == sorted(counts)


def test_lattice_enumeration_distance_calls():
    # the enumeration's work, pinned as the entries of the Busemann rows it
    # reads: every z of a window is read on S_r (95,328 entries), and one z
    # per result on B_r (24,288; reading all of B_r for every z took 367,648)
    g = h.cayley_graph(FAMILY_SPECS["lattice"])
    row, entries = g.busemann_row, [0]

    def counted(z, targets, budget):
        entries[0] += len(targets)
        return row(z, targets, budget)

    g.busemann_row = counted
    for r in range(1, 9):
        h.enumerate_horofunction_restrictions(g, r, 4 * r, 8)
    assert entries[0] == 119_616


def test_enumerate_rejects_shallow_depth(graphs):
    with pytest.raises(ValueError):
        h.enumerate_horofunction_restrictions(graphs["integers"], 5, 10, 8)
    with pytest.raises(ValueError):     # a window below zero selects no sphere
        h.enumerate_horofunction_restrictions(graphs["integers"], 1, 5, -1)


def test_enumerate_empty_sphere():
    g = h.explicit_graph([0, 1, 2], [[0, 1], [1, 2]], 0)
    with pytest.raises(h.EmptySphere):
        h.enumerate_horofunction_restrictions(g, 1, 5, 2)


# ---------------------------------------------------------------- rerooting


def test_reroot_already_at_basepoint(graphs):
    g = graphs["integers"]
    ray = (0, 1, 2, 3)
    n0, back = h.reroot_ray(g, ray)
    assert n0 == 0
    assert back == ray


def test_reroot_shifted_positive(graphs):
    n0, back = h.reroot_ray(graphs["integers"], (1, 2, 3, 4))
    assert n0 == 0
    assert back == (0, 1, 2, 3, 4)


def test_reroot_negative_example(graphs):
    n0, back = h.reroot_ray(graphs["integers"], (-3, -4, -5, -6))
    assert n0 == 0
    assert back == (0, -1, -2, -3, -4, -5, -6)


def test_reroot_with_turnaround(graphs):
    # walks toward o then away: the difference sequence settles mid-prefix
    g = graphs["integers"]
    n0, back = h.reroot_ray(g, (2, 3, 4, 5))
    assert n0 == 0 and back == (0, 1, 2, 3, 4, 5)
    n0, back = h.reroot_ray(g, (-2, -1, 0, 1, 2, 3))
    assert back[-4:] == (0, 1, 2, 3)
    assert all(h.distance(g, 0, v) == i for i, v in enumerate(back))


def test_reroot_prefix_too_short(graphs):
    with pytest.raises(h.PrefixTooShort):
        h.reroot_ray(graphs["integers"], (2, 1))


@pytest.mark.parametrize("family", list(FAMILY_SPECS))
def test_reroot_random_prefixes(graphs, family):
    g = graphs[family]
    rng = random.Random(11)
    ball = h.layer_decomposition(g, 4).ball()
    done = 0
    while done < 10:
        start = rng.choice(ball)
        vs = [start]
        ok = True
        for _ in range(12):
            want = len(vs)
            cands = [u for u in g.neighbors(vs[-1])
                     if h.distance(g, start, u) == want]
            if not cands:
                ok = False
                break
            vs.append(rng.choice(cands))
        if not ok:
            continue
        done += 1
        n0, back = h.reroot_ray(g, tuple(vs))
        assert back[0] == g.basepoint
        for i, v in enumerate(back):
            assert h.distance(g, g.basepoint, v) == i
        tail = len(vs) - 1 - n0
        assert back[-(tail + 1):] == tuple(vs[n0:])


def test_busemann_monotone_along_ray(graphs):
    # non-increasing and bounded below by -d(o, y), per family
    for g in graphs.values():
        ray = h.extend_ray(g, (g.basepoint,), 12)
        ld = h.layer_decomposition(g, 3)
        for y in ld.ball():
            prev = None
            dy = ld.depth_of(y)
            for n, z in enumerate(ray):
                b = h.distance(g, z, y) - n
                assert b >= -dy
                if prev is not None:
                    assert b <= prev
                prev = b


# ---------------------------------------------------------------- custom generators

CUSTOM_SPECS = {
    "integers-23": h.GroupSpec("integers", generators=(-3, -2, 2, 3)),
    "integers-13": h.GroupSpec("integers", generators=(-3, -1, 1, 3)),
    "ladder-diag": h.GroupSpec("integers-times-cyclic", modulus=2,
                               generators=((-1, 0), (1, 0), (0, 1),
                                           (-1, 1), (1, 1))),
    "dihedral-3": h.GroupSpec("infinite-dihedral",
                              generators=((0, 1), (1, 1), (2, 1))),
    "lattice-diag": h.GroupSpec("integer-lattice-2d",
                                generators=((-1, 0), (1, 0), (0, -1), (0, 1),
                                            (-1, -1), (1, 1))),
}


def lattice_diag_length(v):
    a, b = v
    return max(abs(a), abs(b)) if a * b >= 0 else abs(a) + abs(b)


@pytest.mark.parametrize("name", list(CUSTOM_SPECS))
def test_word_length_oracle_matches_bfs(name):
    g = h.cayley_graph(CUSTOM_SPECS[name])
    assert g.exact_distance is None
    ball = h.layer_decomposition(g, 4).ball()
    rng = random.Random(11)
    for _ in range(40):
        x, y = rng.choice(ball), rng.choice(ball)
        assert h.distance(g, x, y) == bfs_distance(g, x, y)


def broken_ladder():
    """Two rails of 81 vertices, joined by every third rung and every fifth
    diagonal, rooted mid-way: every sphere up to radius 40 is non-empty."""
    vs = [(i, t) for i in range(-40, 41) for t in (0, 1)]
    edges = [[(i, t), (i + 1, t)] for i in range(-40, 40) for t in (0, 1)]
    edges += [[(i, 0), (i, 1)] for i in range(-40, 41) if i % 3 == 0]
    edges += [[(i, 0), (i + 1, 1)] for i in range(-40, 40) if i % 5 == 0]
    return h.explicit_graph(vs, edges, (0, 0))


ENUMERATION_CASES = {   # name -> (spec, or None for broken_ladder, r, depth, window)
    **{name: (FAMILY_SPECS[name], 3, 14, 4) for name in LINEAR_FAMILIES},
    "lattice": (FAMILY_SPECS["lattice"], 2, 12, 4),
    "free2": (FAMILY_SPECS["free2"], 2, 6, 1),
    **{name: (spec, 2, 12, 4) for name, spec in CUSTOM_SPECS.items()},
    "broken-ladder": (None, 2, 14, 10),   # the window drops one of S_5's profiles
}


@pytest.mark.parametrize("name", list(ENUMERATION_CASES))
def test_custom_enumeration_matches_brute_force(name):
    spec, r, depth, window = ENUMERATION_CASES[name]
    g = broken_ladder() if spec is None else h.cayley_graph(spec)
    got = h.enumerate_horofunction_restrictions(g, r, depth, window)
    ld = h.layer_decomposition(g, depth)
    ball = ld.ball(r)
    # whole B_r rows, by one BFS from each y of the ball: d(z, y) = d(y, z)
    far = {y: bfs_depths(g, y, depth + r) for y in ball}
    expected = None
    for n in range(max(2 * r + 1, depth - window), depth + 1):
        assert ld.layers[n]
        seen = set()
        for z in ld.layers[n]:
            base = far[g.basepoint][z]
            seen.add(tuple(far[y][z] - base for y in ball))
        expected = seen if expected is None else expected & seen
    assert expected
    assert sorted(m.values for m in got) == sorted(expected)
    assert all(m.domain == ball and m.radius == r for m in got)
    for m in got:   # the docstring's claim: 1-Lipschitz, 0 at o
        assert m.value(g.basepoint) == 0
        _assert_one_lipschitz(g, m)


ROW_CASES = {**FAMILY_SPECS, **CUSTOM_SPECS, "broken-ladder": None}


@pytest.mark.parametrize("name", list(ROW_CASES))
def test_busemann_row_matches_distance(name):
    # the row read on S_r, the stored B_r and a copy of it (free-2 reads
    # only the stored ball by its layout), for three z per sphere up to 2r + 2
    spec, r = ROW_CASES[name], 2
    g = broken_ladder() if spec is None else h.cayley_graph(spec)
    ld, o = h.layer_decomposition(g, 2 * r + 2), g.basepoint

    def expected(z, targets):
        base = h.distance(g, o, z)
        return base, tuple(h.distance(g, z, y) - base for y in targets)

    for targets in (ld.layers[r], ld.ball(r), tuple(list(ld.ball(r)))):
        for layer in ld.layers:
            for z in (layer[0], layer[len(layer) // 2], layer[-1]):
                assert g.busemann_row(z, targets, 10 ** 6) == expected(z, targets)
    if name in CUSTOM_SPECS:
        # a fresh graph's memo holds B_12 only, and every word z^-1 y read
        # here is longer: each entry falls back to growing the memo
        deep = h.layer_decomposition(g, 16)
        fresh = h.cayley_graph(spec)
        assert len(fresh._layers) == 13
        for z in (deep.layers[16][0], deep.layers[16][-1]):
            got = fresh.busemann_row(z, deep.layers[r], 10 ** 6)
            assert got == expected(z, deep.layers[r])
        assert len(fresh._layers) > 13


@pytest.mark.parametrize("name", list(CUSTOM_SPECS))
def test_word_length_reach_matches_bfs(name):
    g = h.cayley_graph(CUSTOM_SPECS[name])
    reach = 3
    ball = h.layer_decomposition(g, reach + 1).ball()
    for z in random.Random(5).sample(ball, 4):
        dist = g.metric_from(z, 10 ** 6, reach=reach)
        for u in ball:
            assert dist(u) == min(bfs_distance(g, z, u), reach + 1)
    size = len(h.layer_decomposition(g, reach).ball())
    fresh = h.cayley_graph(CUSTOM_SPECS[name])
    with pytest.raises(h.BudgetExhausted):
        fresh.metric_from(fresh.basepoint, size - 1, reach=reach)
    assert fresh.metric_from(fresh.basepoint, size, reach=reach)(
        fresh.basepoint) == 0


def test_custom_distance_budget():
    w = (9, 0)                       # |w| = 9 on lattice-diag
    size = len(h.layer_decomposition(h.cayley_graph(CUSTOM_SPECS["lattice-diag"]),
                                     9).ball())
    fresh = h.cayley_graph(CUSTOM_SPECS["lattice-diag"])
    with pytest.raises(h.BudgetExhausted):
        h.distance(fresh, fresh.basepoint, w, budget=size - 1)
    assert h.distance(fresh, fresh.basepoint, w, budget=size) == 9
    # a deeper call with a large budget warms the memo; the outcome holds
    warm = h.cayley_graph(CUSTOM_SPECS["lattice-diag"])
    assert h.distance(warm, (-20, 0), (20, 0)) == 40
    with pytest.raises(h.BudgetExhausted):
        h.distance(warm, warm.basepoint, w, budget=size - 1)
    with pytest.raises(h.BudgetExhausted):
        h.distance(warm, (1, 1), (10, 1), budget=size - 1)
    assert h.distance(warm, warm.basepoint, w, budget=size) == 9


@pytest.mark.parametrize("name", list(CUSTOM_SPECS))
def test_custom_target_distances_are_the_memo_row(name):
    spec = CUSTOM_SPECS[name]
    g = h.cayley_graph(spec)
    deep = h.layer_decomposition(g, 18)
    z = deep.layers[2][0]
    targets = deep.layers[1] + deep.layers[16][:3] + deep.layers[16][-3:]
    near = bfs_depths(g, z, 18)
    ref = [near[t] for t in targets]
    assert max(ref) > 12    # some words z^-1 t lie beyond a fresh B_12 memo
    for read in (tuple, iter):  # a one-pass iterable is read once
        fresh = h.cayley_graph(spec)
        assert len(fresh._layers) == 13
        dist = fresh.metric_from(z, 10 ** 6, targets=read(targets))
        assert [dist(t) for t in targets] == ref
        assert len(fresh._layers) > 13
    # the budget bounds the deepest word read, as for one target
    size = len(deep.ball(max(ref)))
    with pytest.raises(h.BudgetExhausted):
        h.cayley_graph(spec).metric_from(z, size - 1, targets=targets)
    dist = h.cayley_graph(spec).metric_from(z, size, targets=targets)
    assert [dist(t) for t in targets] == ref
    # ... and not |z|: words z^-1 t of length 1 from a z on S_16
    far = deep.layers[16][-1]
    nbrs = g.neighbors(far)
    dist = h.cayley_graph(spec).metric_from(far, len(deep.ball(1)), targets=nbrs)
    assert [dist(t) for t in nbrs] == [1] * len(nbrs)


def test_shared_memo_concurrent_layers():
    g = h.cayley_graph(FAMILY_SPECS["free2"])
    sizes = run_threads(lambda: h.layer_decomposition(g, 8).sphere_sizes)
    expected = [1] + [4 * 3 ** (r - 1) for r in range(1, 9)]
    assert sizes == [expected] * 4
    assert h.layer_decomposition(g, 8).sphere_sizes == expected


def test_shared_memo_concurrent_custom_distances():
    g = h.cayley_graph(CUSTOM_SPECS["lattice-diag"])
    rng = random.Random(5)
    pairs = [((rng.randint(-15, 15), rng.randint(-15, 15)),
              (rng.randint(-15, 15), rng.randint(-15, 15))) for _ in range(300)]
    expected = [lattice_diag_length((y[0] - x[0], y[1] - x[1])) for x, y in pairs]
    got = run_threads(lambda: [h.distance(g, x, y) for x, y in pairs])
    assert got == [expected] * 4


def test_shared_memo_concurrent_balls():
    g = h.cayley_graph(FAMILY_SPECS["free2"])

    def read():
        return [(h.layer_decomposition(g, 8).ball(r), h.layer_decomposition(g, r).ball())
                for r in range(9)]

    results = run_threads(read)
    spheres = h.layer_decomposition(g, 8).layers
    for got in results:
        for r, (deep, own) in enumerate(got):
            assert deep == tuple(sorted(v for s in spheres[: r + 1] for v in s))
            assert own is deep
    assert h.layer_decomposition(g, 8).ball(5) is h.layer_decomposition(g, 5).ball()
