import sys
import threading

import pytest

import horoscope as h

FAMILY_SPECS = {
    "integers": h.GroupSpec("integers"),
    "ladder": h.GroupSpec("integers-times-cyclic", modulus=2),
    "ladder3": h.GroupSpec("integers-times-cyclic", modulus=3),
    "dihedral": h.GroupSpec("infinite-dihedral"),
    "lattice": h.GroupSpec("integer-lattice-2d"),
    "free2": h.GroupSpec("free-2"),
}

LINEAR_FAMILIES = ("integers", "ladder", "ladder3", "dihedral")


@pytest.fixture(scope="session")
def graphs():
    """One shared Cayley graph per family; BFS memos accumulate across tests."""
    return {name: h.cayley_graph(spec) for name, spec in FAMILY_SPECS.items()}


@pytest.fixture
def long_cycle_funnel():
    """Names and wrap edges of a single-layer period: the Hall funnel f0, f1
    -> f0 beside cycles of lengths 5, 7, 8, 9 and 11 (k = 42).  The powers of
    its one-period relation cycle with period lcm = 27,720."""
    names = ["f0", "f1"]
    wrap = [("f0", "f0"), ("f1", "f0")]
    for n in (5, 7, 8, 9, 11):
        cyc = [f"c{n}_{i}" for i in range(n)]
        names += cyc
        wrap += [(cyc[i], cyc[(i + 1) % n]) for i in range(n)]
    return names, wrap


def bfs_distance(g, x, y, cap=200_000):
    """Independent BFS distance oracle over the neighbor oracle only."""
    if x == y:
        return 0
    from collections import deque
    depth = {x: 0}
    q = deque([x])
    while q:
        v = q.popleft()
        for u in g.neighbors(v):
            if u not in depth:
                depth[u] = depth[v] + 1
                if u == y:
                    return depth[u]
                q.append(u)
        assert len(depth) < cap, "oracle cap"
    raise AssertionError("disconnected")


def bfs_depths(g, x, radius):
    """Independent BFS over the neighbor oracle only: the distance from x of
    every vertex within ``radius`` of it."""
    from collections import deque
    depth = {x: 0}
    q = deque([x])
    while q:
        v = q.popleft()
        if depth[v] == radius:
            continue
        for u in g.neighbors(v):
            if u not in depth:
                depth[u] = depth[v] + 1
                q.append(u)
    return depth


def run_threads(target, n=4):
    """``target()`` in n threads at once, with a 1 us switch interval; the n
    results, after checking that every thread finished without raising."""
    results, errors = [], []

    def work():
        try:
            results.append(target())
        except Exception as exc:   # reported by the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(results) == n
    return results
