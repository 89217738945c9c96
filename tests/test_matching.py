import itertools
import random

import pytest

from horoscope.errors import UnequalLayers
from horoscope.matching import (
    HallViolator,
    Matching,
    matching_or_violator,
    maximum_matching,
)


def brute_force_has_perfect_matching(left, right, adj):
    """Oracle: try every bijection."""
    right = list(right)
    for perm in itertools.permutations(right):
        if all(v in adj.get(u, ()) for u, v in zip(sorted(left), perm)):
            return True
    return False


def test_identity_layers():
    res = matching_or_violator(["a", "b"], ["a", "b"],
                               {"a": ["a"], "b": ["b"]})
    assert isinstance(res, Matching)
    assert res.as_dict() == {"a": "a", "b": "b"}


def test_forced_violator():
    res = matching_or_violator(["u1", "u2"], ["v1", "v2"],
                               {"u1": ["v1"], "u2": ["v1"]})
    assert isinstance(res, HallViolator)
    assert res.subset == ("u1", "u2")
    assert res.neighborhood == ("v1",)


def test_unequal_sides_raise_typed_error():
    # a "perfect" matching of one pair would leave y unmatched
    with pytest.raises(UnequalLayers):
        matching_or_violator(["a"], ["x", "y"], {"a": ["x"]})


def test_complete_bipartite_is_bijection():
    names = ["x", "y", "z"]
    res = matching_or_violator(names, names, {u: names for u in names})
    assert isinstance(res, Matching)
    pairs = res.as_dict()
    assert sorted(pairs) == names
    assert sorted(pairs.values()) == names


def test_random_instances_against_brute_force():
    rng = random.Random(3)
    for trial in range(300):
        n = rng.randrange(1, 5)
        left = [f"l{i}" for i in range(n)]
        right = [f"r{i}" for i in range(n)]
        adj = {u: sorted({rng.choice(right)
                          for _ in range(rng.randrange(0, n + 1))})
               for u in left}
        res = matching_or_violator(left, right, adj)
        expected = brute_force_has_perfect_matching(left, right, adj)
        if isinstance(res, Matching):
            assert expected
            pairs = res.as_dict()
            assert sorted(pairs) == left
            assert sorted(pairs.values()) == right
            assert all(v in adj[u] for u, v in pairs.items())
        else:
            assert not expected
            nbhd = set()
            for u in res.subset:
                nbhd.update(adj[u])
            assert set(res.neighborhood) == nbhd
            assert len(nbhd) < len(res.subset)


def recursive_kuhn(left, adjacency):
    """Reference: the textbook recursive augmenting-path search."""
    match_left, match_right = {}, {}

    def augment(u, seen):
        for v in adjacency.get(u, ()):
            if v in seen:
                continue
            seen.add(v)
            if v not in match_right or augment(match_right[v], seen):
                match_left[u] = v
                match_right[v] = u
                return True
        return False

    for u in sorted(left):
        augment(u, set())
    return match_left


def test_same_matching_as_recursive_search():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randrange(1, 9)
        adj = {u: rng.sample(range(n), rng.randrange(0, n + 1)) for u in range(n)}
        assert maximum_matching(range(n), adj) == recursive_kuhn(range(n), adj)


def violator_from(left, adjacency, match_left):
    """Reference Hall certificate from a maximum matching, as a fixed point:
    Y starts at the least unmatched left vertex and takes in the partner of
    every right vertex Y sees, until it stops growing."""
    match_right = {v: u for u, v in match_left.items()}
    start = min(u for u in left if u not in match_left)
    ys, grown = set(), {start}
    while grown != ys:
        ys = grown
        nbhd = {v for u in ys for v in adjacency[u]}
        grown = {start} | {match_right[v] for v in nbhd}
    return HallViolator(tuple(sorted(ys)), tuple(sorted(nbhd)))


def large_cover_spec(rng, k):
    """One-period layered spec drawn as the benchmark draws its large covers:
    every name keeps a forward edge, then k more random edges."""
    names = [f"v{i}" for i in range(k)]
    pairs = {(a, rng.choice(names)) for a in names}
    for _ in range(rng.randint(k, k)):      # the benchmark draws the count
        pairs.add((rng.choice(names), rng.choice(names)))
    return {"kind": "layered", "period": {"layers": [names], "edges": []},
            "wrap": [list(e) for e in sorted(pairs)]}


def funnel_rows(rng, n):
    """Adjacency in which a funnel of left vertices shares a few right ones
    (Hall-deficient), beside rows of random density; rows are unsorted."""
    funnel = rng.sample(range(n), rng.randint(2, n))
    narrow = rng.sample(range(n), rng.randint(1, max(1, len(funnel) // 3)))
    adj = {}
    for u in range(n):
        row = narrow if u in funnel else range(n)
        adj[u] = rng.sample(list(row), rng.randint(0, len(row)))
    return adj


def cover_powers(monkeypatch, lg):
    """(left, adjacency) of every matching the cover of lg asks for, which
    on periodic graphs are the boolean powers ``_stride_analysis`` builds."""
    from horoscope import npartite

    seen = []

    def recording(left, right, adjacency):
        seen.append((list(left), {u: sorted(vs) for u, vs in adjacency.items()}))
        return matching_or_violator(left, right, adjacency)

    monkeypatch.setattr(npartite, "matching_or_violator", recording)
    npartite.monotone_cover(lg)
    monkeypatch.undo()
    return seen


def test_same_matching_as_recursive_search_when_roots_fail(monkeypatch):
    # the kept dead set only changes anything after a root fails, so draw
    # graphs where many do: funnels, dense rows, and the benchmark's powers
    from horoscope.npartite import build_layered

    rng = random.Random(16)
    cases = []
    for _ in range(200):
        n = rng.randint(2, 40)
        cases.append((list(range(n)), funnel_rows(rng, n)))
        rows = {u: rng.sample(range(n), rng.randint(n // 2, n)) for u in range(n)}
        cases.append((list(range(n)), rows))
    specs = [large_cover_spec(random.Random("k60/7"), 60)]      # k60_cover
    specs += [large_cover_spec(random.Random(seed), 36) for seed in (1, 2)]
    for spec in specs:
        cases += cover_powers(monkeypatch, build_layered(spec))
    failed_roots = 0
    for left, adj in cases:
        expected = recursive_kuhn(left, adj)
        assert maximum_matching(left, adj) == expected
        failed_roots += len(left) - len(expected)
        # matching_or_violator searches the rows in sorted order
        rows = {u: sorted(set(vs)) for u, vs in adj.items()}
        expected = recursive_kuhn(left, rows)
        res = matching_or_violator(left, left, adj)
        if len(expected) == len(left):
            assert res == Matching(tuple(sorted(expected.items())))
        else:
            reference = violator_from(left, rows, expected)
            assert res.subset == reference.subset
            assert res.neighborhood == reference.neighborhood
    assert failed_roots > 1000


def test_long_augmenting_paths_do_not_recurse():
    # left i sees i-1 and i: matching i takes i-1 first, and each new left
    # vertex then augments along a path through every earlier one
    k = 3000
    adj = {i: [j for j in (i - 1, i) if j >= 0] for i in range(k)}
    assert maximum_matching(range(k), adj) == {i: i for i in range(k)}
    res = matching_or_violator(range(k), range(k), adj)
    assert res == Matching(tuple((i, i) for i in range(k)))


def test_deterministic():
    adj = {"a": ["x", "y"], "b": ["x", "y"], "c": ["y", "z"]}
    one = matching_or_violator(["a", "b", "c"], ["x", "y", "z"], adj)
    two = matching_or_violator(["a", "b", "c"], ["x", "y", "z"], adj)
    assert one == two
