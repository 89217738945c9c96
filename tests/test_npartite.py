import pytest

import horoscope as h
from horoscope.npartite import _cover_uniform, _uniform_selection, relation_between

import corpus
from corpus import enumerate_spanning_paths


def half_line_graph():
    return h.RootedGraph(lambda n: [n - 1, n + 1] if n > 0 else [1], 0)


def leaf_path_graph():
    """0-1-3-4-...-11 with a leaf 2 on 1: the spheres of radius 1 and 3..10
    hold one vertex each, and S_2 = {2, 3} holds two."""
    return h.explicit_graph(list(range(12)),
                            [[0, 1], [1, 2], [1, 3]] + [[v, v + 1] for v in range(3, 11)], 0)


# ---------------------------------------------------------------- building


def test_build_truncation():
    lg = h.build_layered({
        "kind": "layered",
        "layers": [["a0", "b0"], ["a1", "b1"]],
        "edges": [[0, "a0", "a1"], [0, "b0", "b1"]],
    })
    assert lg.k == 2
    assert not lg.is_periodic
    assert lg.layer(1) == ("a1", "b1")


def test_build_periodic_half_line():
    lg = h.build_layered({
        "kind": "layered",
        "period": {"layers": [["a"]], "edges": []},
        "wrap": [["a", "a"]],
    })
    assert lg.k == 1
    assert lg.is_periodic
    assert lg.layer(17) == ("a",)
    assert lg.edge_pairs(17) == frozenset({("a", "a")})


def test_build_hall_fixture():
    lg = h.build_layered({
        "kind": "layered",
        "period": {"layers": [["a", "b"]], "edges": []},
        "wrap": [["a", "a"], ["b", "a"]],
    })
    assert lg.k == 2
    assert lg.edge_pairs(0) == frozenset({("a", "a"), ("b", "a")})


def test_build_rejects_bad_edges():
    with pytest.raises(h.NonConsecutiveEdge):
        h.build_layered({"kind": "layered",
                         "layers": [["a"], ["b"]],
                         "edges": [[1, "b", "a"]]})
    with pytest.raises(h.MalformedSpec):
        h.build_layered({"kind": "layered",
                         "layers": [["a"], ["b"]],
                         "edges": [[0, "a", "zzz"]]})
    with pytest.raises(h.MalformedSpec):
        h.build_layered({"kind": "explicit"})


def test_unknown_edge_names_name_their_step():
    period = {"layers": [["a"], ["b"]], "edges": [[0, "a", "b"]]}
    prefix = {"layers": [["s"], ["t"]], "edges": [[0, "s", "t"]]}
    base = {"kind": "layered", "period": period, "prefix": prefix,
            "seam": [["t", "a"]], "wrap": [["b", "a"]]}
    for where, key, value in [
            ("prefix step 0", "prefix", {**prefix, "edges": [[0, "q", "t"]]}),
            ("seam", "seam", [["t", "q"]]),
            ("period step 0", "period", {**period, "edges": [[0, "a", "q"]]}),
            ("wrap", "wrap", [["q", "a"]])]:
        with pytest.raises(h.MalformedSpec, match=f"^{where}: edge"):
            h.build_layered({**base, key: value})
    # derived graphs are built from maps and pass the same check
    with pytest.raises(h.MalformedSpec, match="^prefix step 0: edge"):
        h.LayeredGraph((("a",), ("b",)), ({"a": frozenset({"q"})},))


def test_unfold_indexing():
    lg = corpus.prefix_feeder()
    flat = lg.unfold(6)
    assert flat.layer(0) == ("s",)
    assert flat.layer(1) == ("x", "y")
    assert flat.layer(2) == ("a", "b")     # first period copy
    assert flat.layer(3) == ("a", "b")
    assert flat.edge_pairs(1) == lg.edge_pairs(1) == {("x", "a"), ("y", "b"), ("x", "b")}
    for i in range(2, 6):
        assert flat.edge_pairs(i) == lg.edge_pairs(i) == {("a", "a"), ("b", "b")}


def test_forward_map_is_built_once_per_stored_step():
    lg = corpus.prefix_feeder()                # prefix s, x y; block a b
    assert lg.forward_map(0) == {"s": frozenset({"x", "y"})}
    assert lg.forward_map(1) == {"x": frozenset({"a", "b"}), "y": frozenset({"b"})}
    assert lg.forward_map(2) is lg.forward_map(9)   # the wrap, stored once
    for i in range(6):
        assert {(a, b) for a, bs in lg.forward_map(i).items() for b in bs} \
            == lg.edge_pairs(i)
    with pytest.raises(IndexError):
        corpus.two_spine().unfold(3).forward_map(3)


def test_validate_raises_typed_errors():
    lg = corpus.two_spine()
    h.MonotonePath(0, ("a", "a", "a")).validate(lg)
    with pytest.raises(h.NotMonotone):
        h.MonotonePath(0, ("a", "b")).validate(lg)     # no edge a -> b
    with pytest.raises(h.NotMonotone):
        h.MonotonePath(0, ("a", "z")).validate(lg)     # z in no layer


# ---------------------------------------------------------------- pruning


def test_prune_removes_isolated_vertex():
    layers = [["a", "b"]] * 5
    layers[3] = ["a", "b", "junk"]
    steps = [[("a", "a"), ("b", "b")]] * 4
    lg = h.LayeredGraph.truncation(layers, steps)
    pruned = h.prune_to_spanning(lg)
    assert not pruned.is_periodic
    assert "junk" in lg.layer(3) and "junk" not in pruned.layer(3)
    assert pruned.layer(3) == ("a", "b")
    assert _uniform_selection(pruned) is None


def test_prune_keeps_matched_spines():
    lg = corpus.two_spine()
    pruned = h.prune_to_spanning(lg)
    assert pruned == lg
    assert pruned.layers == lg.layers
    assert pruned.is_periodic


def test_prune_keeps_funnel_sources():
    # each b starts the infinite path (b, a, a, ...), so everything survives
    lg = corpus.hall_funnel()
    pruned = h.prune_to_spanning(lg)
    assert pruned.layers == lg.layers
    assert pruned.layer(0) == ("a", "b")


def test_prune_detects_dead_period_name():
    pruned = h.prune_to_spanning(corpus.period2_funnel())
    assert pruned.period_layers == (("a", "b"), ("x",))
    assert _uniform_selection(pruned) == h.Stride(1, 2)


def test_prune_prefix_sizes_trigger_selection():
    lg = corpus.prefix_feeder()
    pruned = h.prune_to_spanning(lg)
    assert pruned.layers == lg.layers
    assert _uniform_selection(pruned) == h.Stride(2, 1)


def test_prune_empty_graph():
    lg = h.LayeredGraph.periodic([["a"]], [], [])   # no wrap edges at all
    with pytest.raises(h.EmptyGraph):
        h.prune_to_spanning(lg)


def test_prune_truncation_empty():
    lg = h.LayeredGraph.truncation([["a"], ["b"]], [[]])
    with pytest.raises(h.EmptyGraph):
        h.prune_to_spanning(lg)


# ---------------------------------------------------------------- reachability


def test_reachability_stride_one_is_identity():
    lg = corpus.two_spine_crossing()
    red = h.monotone_reachability(lg, h.Stride(0, 1))
    assert red.unfold(8).layers == lg.unfold(8).layers
    assert [red.edge_pairs(i) for i in range(8)] == \
        [lg.edge_pairs(i) for i in range(8)]


def test_reachability_two_step_crossing():
    # a0-b1 is not an edge, but a0,a1,b2 realizes a0-b2 two steps later
    lg = corpus.two_spine_crossing()
    assert ("a", "b") not in lg.edge_pairs(0)
    red = h.monotone_reachability(lg, [0, 2])
    assert ("a", "b") in red.edge_pairs(0)
    assert ("a", "a") in red.edge_pairs(0)


def test_reachability_funnels_into_spine():
    lg = corpus.hall_funnel()
    for m in (3, 7, 11):
        rel = relation_between(lg, 0, m)
        assert rel["a"] == frozenset({"a"})
        assert rel["b"] == frozenset({"a"})


def test_reachability_periodic_output():
    lg = corpus.two_spine_crossing()
    red = h.monotone_reachability(lg, h.Stride(0, 2))
    assert red.is_periodic and red.period_length == 1
    assert red.layer(0) == ("a", "b")


def test_reachability_rejects_bad_selection():
    lg = corpus.two_spine()
    with pytest.raises(h.MalformedSubsequence):
        h.monotone_reachability(lg, [3, 2])
    with pytest.raises(h.MalformedSubsequence):
        h.monotone_reachability(lg.unfold(5), h.Stride(0, 2))


# ---------------------------------------------------------------- matchings


def test_partition_walks_the_matching():
    # the only matching of two spines is the identity, so each path stays on
    # its spine
    paths = h.partition_by_matchings(corpus.two_spine())
    assert [[p.name_at(i) for i in range(6)] for p in paths] == [["a"] * 6, ["b"] * 6]


def test_partition_truncation_hall_certificate():
    lg = h.LayeredGraph.truncation(
        [["u1", "u2"], ["v1", "v2"]], [[("u1", "v1"), ("u2", "v1")]])
    with pytest.raises(h.NoMatching) as info:
        h.partition_by_matchings(lg)
    assert info.value.certificate.subset == ("u1", "u2")
    assert info.value.certificate.neighborhood == ("v1",)


def test_partition_unequal_layers():
    lg = h.LayeredGraph.truncation([["a"], ["x", "y"]], [[("a", "x")]])
    with pytest.raises(h.UnequalLayers):
        h.partition_by_matchings(lg)


def test_partition_two_spines():
    paths = h.partition_by_matchings(corpus.two_spine())
    assert sorted(p.name_at(0) for p in paths) == ["a", "b"]
    for p in paths:
        assert p.infinite
        assert {p.name_at(i) for i in range(10)} == {p.name_at(0)}


def test_partition_swap_exchanges_names():
    paths = h.partition_by_matchings(corpus.swap_spines())
    by_start = {p.name_at(0): p for p in paths}
    assert by_start["a"].name_at(1) == "b"
    assert by_start["a"].name_at(2) == "a"
    assert by_start["b"].cycle == ("b", "a")


def test_partition_half_line():
    (p,) = h.partition_by_matchings(corpus.half_line())
    assert p.cycle == ("a",)


def test_partition_no_matching_has_certificate():
    with pytest.raises(h.NoMatching) as info:
        h.partition_by_matchings(corpus.hall_funnel())
    assert info.value.certificate.subset == ("a", "b")


def test_partition_is_exact_cover():
    for name, lg in [("two_spine_crossing", corpus.two_spine_crossing()),
                     ("four_spine_block", corpus.four_spine_block())]:
        paths = h.partition_by_matchings(lg)
        for i in range(30):
            names = sorted(p.name_at(i) for p in paths)
            assert names == sorted(lg.layer(i)), (name, i)


# ---------------------------------------------------------------- Hall failure


def test_hall_failure_none_on_spines():
    assert h.find_hall_failure(corpus.two_spine()) is None
    assert h.find_hall_failure(corpus.two_spine_crossing()) is None


def test_hall_failure_funnel_witness():
    w = h.find_hall_failure(corpus.hall_funnel())
    assert w is not None
    assert w.U == ("a", "b")
    assert w.sizes == (2, 1)
    for m in w.witness_layers:
        assert dict(w.V)[m] == ("a",)


def test_hall_failure_collapse_witness():
    w = h.find_hall_failure(corpus.three_spine_collapse())
    assert w.U == ("a", "b")
    assert w.sizes == (2, 1)
    assert all(v == ("a",) for _, v in w.V)


def walk_endpoints(lg, i, start_name, j):
    """Independent oracle: endpoints at layer j of ascending walks from
    (i, start_name), by stepping edge pairs directly."""
    frontier = {start_name}
    for t in range(i, j):
        step = lg.edge_pairs(t)
        frontier = {b for a, b in step if a in frontier}
    return frontier


def test_hall_witness_invariants_by_enumeration():
    # every monotone path from U into a witness layer ends in V, and every
    # element of V is hit: checked by independent path walking at depth >= 20
    for lg in (corpus.hall_funnel(), corpus.three_spine_collapse()):
        w = h.find_hall_failure(lg)
        assert 1 <= w.sizes[1] < w.sizes[0] <= lg.k
        assert len({len(v) for _, v in w.V}) == 1
        layers = list(w.witness_layers) + [w.witness_layers[-1] + 20]
        for m in layers:
            reached = set()
            for u in w.U:
                reached |= walk_endpoints(lg, w.base_layer, u, m)
            if m in dict(w.V):
                assert reached == set(dict(w.V)[m])
            assert len(reached) < len(w.U)


def test_stride_analysis_power_cap_is_budget_exhausted(long_cycle_funnel):
    names, wrap = long_cycle_funnel
    lg = h.LayeredGraph.periodic([names], [], wrap)
    with pytest.raises(h.BudgetExhausted, match="did not cycle within 4096"):
        h.find_hall_failure(lg)
    with pytest.raises(h.BudgetExhausted):
        h.monotone_cover(lg)


def test_stride_analysis_empty_block_layer_is_typed():
    # a typed error, not an assert that python -O strips into "matchings
    # exist" on a graph without vertices
    lg = h.LayeredGraph.periodic([[]], [], [])
    with pytest.raises(h.EmptyGraph, match="empty block layer"):
        h.find_hall_failure(lg)
    with pytest.raises(h.EmptyGraph):
        h.prune_to_spanning(lg)


def test_uniform_recursion_rejects_unequal_layers():
    # the cover recursion's precondition is a typed error, not an assert
    # that python -O strips into "k is the size of some layer"
    trunc = h.LayeredGraph.truncation([["a"], ["b", "c"]], [[("a", "b"), ("a", "c")]])
    with pytest.raises(h.UnequalLayers, match=r"sizes \[1, 2\]"):
        _cover_uniform(trunc)
    periodic = h.LayeredGraph.periodic(
        [["a"], ["b", "c"]], [[("a", "b"), ("a", "c")]], [("b", "a"), ("c", "a")])
    with pytest.raises(h.UnequalLayers):
        _cover_uniform(periodic)


def test_hall_failure_truncation_mode():
    lg = corpus.hall_funnel().unfold(12)
    w = h.find_hall_failure(lg)
    assert w is not None
    assert w.U == ("a", "b")
    assert w.base_layer == 0


def test_funnel_sets_forward_closed():
    # edges of the reachability graph on the witness layers map V into V
    lg = corpus.three_spine_collapse()
    w = h.find_hall_failure(lg)
    gm = h.monotone_reachability(
        lg, h.Stride(w.witness_layers[0],
                     w.witness_layers[1] - w.witness_layers[0]))
    v = set(dict(w.V)[w.witness_layers[0]])
    for a, b in gm.edge_pairs(0):
        if a in v:
            assert b in v


# ---------------------------------------------------------------- sphere quotient


def test_sphere_quotient_integers(graphs):
    sq = h.sphere_quotient(graphs["integers"], bound=12)
    assert sq.layer_tags == tuple(range(1, 13))
    assert sq.k == 2
    assert sq.layer(0) == (-1, 1)
    for i in range(11):
        assert sq.edge_pairs(i) == frozenset({(-(i + 1), -(i + 2)),
                                              (i + 1, i + 2)})


def test_sphere_quotient_half_line():
    sq = h.sphere_quotient(half_line_graph(), bound=10)
    assert sq.k == 1
    cov = h.monotone_cover(sq)
    assert cov.k == 1


def test_sphere_quotient_ladder(graphs):
    sq = h.sphere_quotient(graphs["ladder"], bound=20)
    assert sq.k == 4
    assert sq.layer_tags[0] == 2
    cov = h.monotone_cover(sq)
    assert cov.k == 4 and cov.approximate


def test_sphere_quotient_superlinear(graphs):
    with pytest.raises(h.NoConstantSubsequence):
        h.sphere_quotient(graphs["lattice"], bound=12)


def test_sphere_quotient_explicit_radii():
    # the census skips S_2: step 0 joins the spheres of radius 1 and 3,
    # by the distance 2 from 1 to 4
    sq = h.sphere_quotient(leaf_path_graph(), bound=10)
    assert sq.layer_tags == (1, *range(3, 11))
    assert sq.edge_pairs(0) == frozenset({(1, 4)})
    assert sq.edge_pairs(1) == frozenset({(4, 5)})


# ---------------------------------------------------------------- ray maps


def test_ray_to_monotone_positive_spine(graphs):
    g = graphs["integers"]
    sq = h.sphere_quotient(g, bound=10)
    up = h.extend_ray(g, (0,), 1, choose=max)   # past 1, one candidate a step
    path = h.ray_to_monotone(g, sq, up)
    assert path.head == tuple(range(1, 11))


def test_ray_to_monotone_negative_spine(graphs):
    g = graphs["integers"]
    sq = h.sphere_quotient(g, bound=10)
    down = h.extend_ray(g, (0,), 10)
    path = h.ray_to_monotone(g, sq, down)
    assert path.head == tuple(range(-1, -11, -1))


def test_ray_to_monotone_half_line():
    g = half_line_graph()
    sq = h.sphere_quotient(g, bound=8)
    path = h.ray_to_monotone(g, sq, (0, 1))
    assert path.head == tuple(range(1, 9))


def test_ray_to_monotone_requires_tags(graphs):
    with pytest.raises(h.NotMonotone):
        h.ray_to_monotone(graphs["integers"], corpus.two_spine(),
                          h.extend_ray(graphs["integers"], (0,), 5))


# one case per check of the sphere bridge: (error, call on the integers z and
# their quotient zq, whose sphere radii are 1..10)
BRIDGE_ERRORS = {
    "ray-not-from-basepoint": (
        h.NotGeodesic, lambda z, zq: h.ray_to_monotone(z, zq, (1, 2))),
    "ray-vertex-off-layer": (
        h.NotMonotone, lambda z, zq: h.ray_to_monotone(
            z, h.sphere_quotient(half_line_graph(), bound=10), (0,))),
    "lift-without-radii": (
        h.NotMonotone, lambda z, zq: h.monotone_to_ray(
            z, corpus.two_spine(), h.MonotonePath(0, ("a",)))),
    "lift-short-path": (
        h.NotMonotone, lambda z, zq: h.monotone_to_ray(z, zq, h.MonotonePath(0, (1, 2)))),
    "lift-first-vertex-off-sphere": (
        h.NotGeodesic, lambda z, zq: h.monotone_to_ray(
            z, zq, h.MonotonePath(0, tuple(range(2, 12))))),
    "lift-segment-misses-gap": (
        h.NotGeodesic, lambda z, zq: h.monotone_to_ray(z, zq, h.MonotonePath(0, (1,) * 10))),
}


@pytest.mark.parametrize("case", BRIDGE_ERRORS)
def test_sphere_bridge_typed_errors(graphs, case):
    error, call = BRIDGE_ERRORS[case]
    z = graphs["integers"]
    with pytest.raises(error):
        call(z, h.sphere_quotient(z, bound=10))


def test_ray_too_short_when_extension_fails():
    # the least ray (0, 1, 2) dead-ends at the leaf 2
    g = leaf_path_graph()
    sq = h.sphere_quotient(g, bound=10)
    with pytest.raises(h.RayTooShort):
        h.ray_to_monotone(g, sq, (0, 1, 2))


def test_ray_to_monotone_keeps_budget_errors():
    # extending the ray to the last sphere needs |B_30| = 181 > 20 vertices:
    # a budget error (exit 4), not a short ray (exit 6)
    g = h.cayley_graph(h.GroupSpec("integers", generators=(-3, -2, 2, 3)))
    sq = h.sphere_quotient(g, bound=30)
    with pytest.raises(h.BudgetExhausted):
        h.ray_to_monotone(g, sq, (0,), budget=20)


def test_monotone_ray_roundtrip(graphs):
    # the companion lift realizes every monotone path, and mapping the lifted
    # ray back recovers the path: sphere intersections match exactly
    for family in ("integers", "ladder"):
        g = graphs[family]
        sq = h.sphere_quotient(g, bound=8)
        depth = len(sq.layers) - 1
        for names in enumerate_spanning_paths(sq, depth):
            path = h.MonotonePath(0, names)
            ray = h.monotone_to_ray(g, sq, path)
            h.validate_ray(g, ray)
            assert ray[0] == g.basepoint
            assert h.ray_to_monotone(g, sq, ray) == path
