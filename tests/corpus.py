"""Named layered-graph fixtures, a seeded random instance generator, and a
brute-force enumeration of spanning paths.

These are the eventually periodic graphs the cover machinery is exercised
against: spines, crossings, funnels where Hall's condition fails, and random
instances in which every vertex keeps at least one forward edge (so nothing
is pruned and the cover size equals the layer size).
"""

import random

from horoscope.npartite import LayeredGraph


def half_line() -> LayeredGraph:
    return LayeredGraph.periodic([["a"]], [], [("a", "a")])


def two_spine() -> LayeredGraph:
    return LayeredGraph.periodic([["a", "b"]], [], [("a", "a"), ("b", "b")])


def two_spine_crossing() -> LayeredGraph:
    """Two spines, with a crossing a -> b available at every second step."""
    return LayeredGraph.periodic(
        [["a", "b"], ["a", "b"]],
        [[("a", "a"), ("b", "b")]],
        [("a", "a"), ("b", "b"), ("a", "b")])


def swap_spines() -> LayeredGraph:
    """Two spines whose wrap matching exchanges the names."""
    return LayeredGraph.periodic([["a", "b"]], [], [("a", "b"), ("b", "a")])


def hall_funnel() -> LayeredGraph:
    """Hall's condition fails: both spines feed a, nothing feeds b."""
    return LayeredGraph.periodic([["a", "b"]], [], [("a", "a"), ("b", "a")])


def three_spine_collapse() -> LayeredGraph:
    """Two spines collapsing into one, one independent spine."""
    return LayeredGraph.periodic(
        [["a", "b", "c"]], [], [("a", "a"), ("b", "a"), ("c", "c")])


def double_funnel_k4() -> LayeredGraph:
    """Two independent funnels; the split recursion nests twice."""
    return LayeredGraph.periodic(
        [["a", "b", "c", "d"]], [],
        [("a", "a"), ("b", "a"), ("c", "c"), ("d", "c")])


def four_spine_block() -> LayeredGraph:
    """Four spines with extra crossings inside a period of two layers."""
    return LayeredGraph.periodic(
        [["a", "b", "c", "d"], ["a", "b", "c", "d"]],
        [[("a", "a"), ("b", "b"), ("c", "c"), ("d", "d"), ("a", "b"), ("c", "d")]],
        [("a", "a"), ("b", "b"), ("c", "c"), ("d", "d"), ("b", "c")])


def prefix_feeder() -> LayeredGraph:
    """A two-layer prefix funneling into a two-spine period."""
    return LayeredGraph.periodic(
        [["a", "b"]], [], [("a", "a"), ("b", "b")],
        prefix_layers=[["s"], ["x", "y"]],
        prefix_steps=[[("s", "x"), ("s", "y")]],
        seam=[("x", "a"), ("y", "b"), ("x", "b")])


def period2_funnel() -> LayeredGraph:
    """A funnel visible only inside the period block, not at period scale."""
    return LayeredGraph.periodic(
        [["a", "b"], ["x", "y"]],
        [[("a", "x"), ("b", "x")]],
        [("x", "a"), ("x", "b")])


def funnel_both_phases() -> LayeredGraph:
    """Hall's condition fails at both phases of a period-2 block, with no
    vertex pruned (everything keeps a forward edge)."""
    return LayeredGraph.periodic(
        [["a", "b"], ["x", "y"]],
        [[("a", "x"), ("b", "x")]],
        [("x", "a"), ("y", "a")])


def prefix_funnel() -> LayeredGraph:
    """A prefix feeding the Hall-failure period."""
    return LayeredGraph.periodic(
        [["a", "b"]], [], [("a", "a"), ("b", "a")],
        prefix_layers=[["s"]], prefix_steps=[],
        seam=[("s", "a"), ("s", "b")])


def random_periodic(seed: int, k: int = 3, period: int = 2) -> LayeredGraph:
    """Random eventually periodic layered graph, deterministic per seed.

    Every vertex gets at least one forward edge, so every vertex lies on an
    infinite monotone path and pruning is the identity.
    """
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(k)]
    steps = []
    for _ in range(period):
        pairs = set()
        for a in names:
            pairs.add((a, rng.choice(names)))
        extra = rng.randrange(0, k + 1)
        for _ in range(extra):
            pairs.add((rng.choice(names), rng.choice(names)))
        steps.append(sorted(pairs))
    return LayeredGraph.periodic([names] * period, steps[:-1], steps[-1])


def corpus(seed: int = 0) -> list[tuple[str, LayeredGraph]]:
    """The fixture corpus: named instances plus three random ones per seed."""
    named = [
        ("half_line", half_line()),
        ("two_spine", two_spine()),
        ("two_spine_crossing", two_spine_crossing()),
        ("swap_spines", swap_spines()),
        ("hall_funnel", hall_funnel()),
        ("three_spine_collapse", three_spine_collapse()),
        ("double_funnel_k4", double_funnel_k4()),
        ("four_spine_block", four_spine_block()),
        ("prefix_feeder", prefix_feeder()),
        ("period2_funnel", period2_funnel()),
        ("funnel_both_phases", funnel_both_phases()),
        ("prefix_funnel", prefix_funnel()),
    ]
    for i in range(3):
        sub = 1000 * seed + i
        named.append((f"random_{sub}", random_periodic(sub, k=2 + i % 3,
                                                       period=1 + i % 2)))
    return named


def enumerate_spanning_paths(lg: LayeredGraph, depth: int):
    """All monotone paths spanning layers 0..depth, as name tuples: the
    oracle for ``spanning_intersection_minima``, which scales where this
    enumeration does not."""
    partial = [[a] for a in lg.layer(0)]
    for i in range(depth):
        succ = lg.forward_map(i)
        partial = [p + [bb] for p in partial for bb in sorted(succ[p[-1]])]
    return [tuple(p) for p in partial]
