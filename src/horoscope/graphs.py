"""Rooted locally finite graphs and their metric structure.

The central object is :class:`RootedGraph`: a basepoint plus a neighbor
oracle returning canonically sorted finite neighbor lists, so graphs may be
infinite and are explored lazily by BFS.  On top of it live sphere
decompositions, Busemann tables b_z(y) = d(z,y) - d(z,o), geodesic rays
(vertex tuples (x_0, ..., x_L), which ``extend_ray(..., choose=)`` lengthens
by choosing among the distance-increasing neighbors of the tip), stabilized
horofunction restrictions, and ray rerooting.

Every distance query goes through one method, :meth:`RootedGraph.metric_from`,
which returns u -> d(z, u), and every Busemann value through
:meth:`RootedGraph.busemann_row`, which gives d(z, o) and b_z on a tuple of
targets in one call.  Here both run a BFS from z; a subclass may override
them (see :class:`~horoscope.cayley.CayleyGraph`).  A Busemann table is one
row over its ball.  The enumeration reads each z of its window on the
sphere S_r only, through which every geodesic from z enters B_r, and one z
per result on B_r.  :class:`ValueMap` lookups bisect the sorted domain.

All operations are pure; graphs are immutable apart from one memo, the BFS
ball about the basepoint with the sorted balls B_r read from it, and results
are independent of call history.  The ball grows one layer at a time under a
lock, and a sorted ball is stored once, so shared instances are safe to use
concurrently (tests/test_graphs.py runs four threads on one graph).  Every
search takes a vertex-exploration budget and raises
:class:`~horoscope.errors.BudgetExhausted` rather than silently truncating:
a BFS from z may explore at most ``budget`` vertices, and a word-length
read of |w| needs |B_|w|| <= budget.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections import Counter, deque
from collections.abc import Callable, Hashable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any

from .errors import (
    BudgetExhausted,
    EmptySphere,
    MalformedSpec,
    NotGeodesic,
    PrefixTooShort,
    RayNotExtendable,
)

Vertex = Any  # canonical token; any sortable, hashable value (per-graph homogeneous)

DEFAULT_BUDGET = 1_000_000


class RootedGraph:
    """A locally finite graph with basepoint, given by a neighbor oracle.

    Parameters
    ----------
    neighbor_fn:
        Maps a vertex token to a finite iterable of neighbor tokens.  Must be
        deterministic; :meth:`neighbors` sorts the result, so the canonical
        neighbor order is the sort order of the tokens.
    basepoint:
        The root vertex o.

    The graph keeps one memo: the BFS ball about the basepoint, as the
    spheres ``_layers`` (sorted tuples), the depths ``_depth`` and the ball
    sizes ``_ball_sizes``, plus ``_balls``, the sorted balls B_r asked for
    so far, which every :class:`LayerDecomposition` of the graph reads.  The
    ball only grows, one layer at a time under ``_lock``.  A depth in
    ``_depth`` is final once written, while ``_layers`` and ``_ball_sizes``
    list complete layers only; readers take a depth beyond them as not yet
    memoized, so none acts on a half-built layer.

    Every distance comes from :meth:`metric_from` and every Busemann value
    from :meth:`busemann_row`, each one BFS here; subclasses may replace
    them.
    """

    def __init__(self, neighbor_fn: Callable[[Vertex], Iterable[Vertex]],
                 basepoint: Vertex):
        self._neighbor_fn = neighbor_fn
        self.basepoint = basepoint
        # BFS-from-basepoint memo: complete layers only
        self._layers: list[tuple[Vertex, ...]] = [(basepoint,)]
        self._depth: dict[Vertex, int] = {basepoint: 0}
        self._ball_sizes: list[int] = [1]   # |B_r| for every memoized r
        self._balls: dict[int, tuple[Vertex, ...]] = {}  # r -> sorted B_r
        self._lock = threading.Lock()       # held while a layer is built

    def __repr__(self):
        return f"{type(self).__name__}(o={self.basepoint!r})"

    def neighbors(self, v: Vertex) -> tuple[Vertex, ...]:
        return tuple(sorted(self._neighbor_fn(v)))

    # -- internal BFS-from-o memo -------------------------------------------

    def _ensure_layers(self, radius: int, budget: int) -> None:
        # the budget caps |B_radius| for this call, independent of how much
        # deeper the memoized exploration already reaches
        if len(self._layers) <= radius:
            with self._lock:
                while len(self._layers) <= radius:
                    self._grow()
                    if self._ball_sizes[-1] > budget:
                        raise BudgetExhausted(
                            f"exploring B_{radius} exceeded budget {budget} "
                            f"at radius {len(self._layers) - 1}")
        size = self._ball_sizes[radius]
        if size > budget:
            raise BudgetExhausted(f"|B_{radius}| = {size} exceeds budget {budget}")

    def _grow(self) -> None:
        """Append the next sphere; the caller holds ``_lock``.  Depths are
        written first, and each is final when written because every layer
        below is complete; the ball size and the layer are appended last."""
        # Writing depths in place rather than into a layer-local dict that is
        # merged afterwards saves one insert per vertex into a large table:
        # 12-18% of the CPU time of a free-2 B_12 census.
        depth = self._depth
        r = len(self._layers)
        nxt = []
        for v in self._layers[-1]:
            for u in self.neighbors(v):
                if u not in depth:
                    depth[u] = r
                    nxt.append(u)
        self._ball_sizes.append(self._ball_sizes[-1] + len(nxt))
        self._layers.append(tuple(sorted(nxt)))

    def metric_from(self, z: Vertex, budget: int, *, reach: int | None = None,
                    targets: Iterable[Vertex] | None = None) -> Callable[[Vertex], int]:
        """The distance oracle u -> d(z, u), here by one BFS from z.

        Give ``reach`` when only distances up to it matter (vertices beyond
        it read as reach + 1), or ``targets`` when only those vertices are
        read (the search stops once all are found).  Raises BudgetExhausted
        when the search explores more than ``budget`` vertices, or exhausts
        the component of z with targets missing.
        """
        depth = {z: 0}
        missing = set(targets) - {z} if targets is not None else None
        q = deque([z])
        while q:
            v = q.popleft()
            r = depth[v]
            if reach is not None and r >= reach:
                continue
            for u in self.neighbors(v):
                if u not in depth:
                    depth[u] = r + 1
                    if len(depth) > budget:
                        raise BudgetExhausted(
                            f"BFS from {z!r} exceeded budget {budget}")
                    if missing is not None:
                        missing.discard(u)
                    q.append(u)
            if missing is not None and not missing:
                break
        if missing:
            raise BudgetExhausted(
                f"BFS from {z!r} exhausted its component; "
                f"{len(missing)} target(s) unreachable (disconnected or cap too small)")
        if reach is None:
            return depth.__getitem__
        far = reach + 1
        return lambda u: depth.get(u, far)

    def busemann_row(self, z: Vertex, targets: tuple[Vertex, ...],
                     budget: int) -> tuple[int, tuple[int, ...]]:
        """(d(z, o), the values b_z(y) = d(z, y) - d(z, o) for y in
        ``targets``), here by one :meth:`metric_from` search from z."""
        o = self.basepoint
        dist = self.metric_from(z, budget, targets=(*targets, o))
        base = dist(o)
        return base, tuple([dist(y) - base for y in targets])


# ---------------------------------------------------------------------------
# value maps


@dataclass(frozen=True, order=True)
class ValueMap:
    """Integer-valued map on a finite vertex set, stored canonically sorted.

    ``domain`` is the sorted token tuple and ``values`` the parallel value
    tuple; the split lets large maps share one domain object.  Hashable and
    totally ordered (domain, then values, lexicographically), which gives
    exact set semantics and a deterministic "least map" tie-break.
    ``radius`` records the ball the map was computed over; it does not take
    part in comparisons.
    """

    domain: tuple[Vertex, ...]
    values: tuple[int, ...]
    radius: int | None = field(default=None, compare=False)

    @property
    def items(self) -> tuple[tuple[Vertex, int], ...]:
        return tuple(zip(self.domain, self.values))

    def as_dict(self) -> dict:
        return dict(zip(self.domain, self.values))

    def index(self, v: Vertex) -> int:
        """The position of v in ``domain``, by bisection; KeyError if absent."""
        i = bisect_left(self.domain, v)
        if i == len(self.domain) or self.domain[i] != v:
            raise KeyError(v)
        return i

    def value(self, v: Vertex) -> int:
        return self.values[self.index(v)]

    def restrict(self, tokens, radius: int | None = None) -> "ValueMap":
        """The map on those ``tokens`` (any iterable) that lie in the domain,
        each found by bisection; the result keeps domain order."""
        dom = self.domain
        keep = sorted({i for t in tokens
                       if (i := bisect_left(dom, t)) < len(dom) and dom[i] == t})
        return ValueMap(tuple(dom[i] for i in keep),
                        tuple(self.values[i] for i in keep), radius)


# ---------------------------------------------------------------------------
# sphere decomposition


class LayerDecomposition:
    """Spheres S_0..S_R about the basepoint: S_r = B_r minus B_{r-1}.

    A view over the graph's memo: the spheres and depths are the graph's
    own, lookups are guarded by the view's radius, and each sorted ball is
    built once per graph and kept in its ``_balls`` table, so every view
    returns the same tuple for B_r.
    """

    def __init__(self, g: RootedGraph, radius: int):
        self.radius = radius
        self.layers = tuple(g._layers[: radius + 1])
        self._depth = g._depth
        self._balls = g._balls

    @property
    def sphere_sizes(self) -> list[int]:
        return [len(layer) for layer in self.layers]

    def ball(self, r: int | None = None) -> tuple[Vertex, ...]:
        """All vertices with d(o, v) <= r, canonically sorted; r defaults to
        the radius, and ValueError unless 0 <= r <= radius."""
        if r is None:
            r = self.radius
        elif not 0 <= r <= self.radius:
            raise ValueError(f"ball radius {r} is outside 0..{self.radius}")
        cached = self._balls.get(r)
        if cached is None:
            # setdefault keeps the first tuple stored when threads race
            cached = self._balls.setdefault(r, tuple(sorted(
                v for layer in self.layers[: r + 1] for v in layer)))
        return cached

    def depth_of(self, v: Vertex) -> int:
        d = self._depth.get(v)
        if d is None or d > self.radius:
            raise KeyError(v)
        return d

    def __contains__(self, v: Vertex) -> bool:
        d = self._depth.get(v)
        return d is not None and d <= self.radius


def layer_decomposition(g: RootedGraph, radius: int,
                        budget: int = DEFAULT_BUDGET) -> LayerDecomposition:
    """BFS sphere decomposition of B_radius about the basepoint."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    g._ensure_layers(radius, budget)
    return LayerDecomposition(g, radius)


RECURRENCE_THRESHOLD = 5   # sphere-size recurrences needed for a linear verdict


def recurring_sphere_size(sizes: Sequence[int]) -> int | None:
    """The least size among |S_1|, |S_2|, ... that occurs at least
    RECURRENCE_THRESHOLD times, or None; ``sizes`` lists |S_0|, |S_1|, ..."""
    counts = Counter(sizes[1:])
    return min((s for s, c in counts.items() if c >= RECURRENCE_THRESHOLD),
               default=None)


def distance(g: RootedGraph, x: Vertex, y: Vertex,
             budget: int = DEFAULT_BUDGET) -> int:
    """Graph distance d(x, y), read from :meth:`RootedGraph.metric_from`
    under the exploration budget."""
    if x == y:
        return 0
    return g.metric_from(x, budget, targets=(y,))(y)


# ---------------------------------------------------------------------------
# Busemann tables


@dataclass(frozen=True)
class BusemannTable:
    """The normalized distance profile y -> d(z,y) - d(z,o) over a ball."""

    source: Vertex
    radius: int
    values: ValueMap


def busemann(g: RootedGraph, z: Vertex, r: int,
             budget: int = DEFAULT_BUDGET) -> BusemannTable:
    """Busemann table of z over B_r.  values(o) = 0 by construction."""
    if r < 0:
        raise ValueError("r must be >= 0")
    ball = layer_decomposition(g, r, budget).ball()
    _, values = g.busemann_row(z, ball, budget)
    return BusemannTable(source=z, radius=r,
                         values=ValueMap(ball, values, radius=r))


# ---------------------------------------------------------------------------
# geodesic rays: a ray is the tuple (x_0, ..., x_L) of its vertices


def ray_start(ray: tuple[Vertex, ...]) -> Vertex:
    """x_0, or NotGeodesic for an empty ray."""
    if not ray:
        raise NotGeodesic("empty vertex sequence")
    return ray[0]


def validate_ray(g: RootedGraph, ray: tuple[Vertex, ...],
                 budget: int = DEFAULT_BUDGET) -> None:
    """Raise NotGeodesic unless consecutive vertices are adjacent and
    d(x_0, x_n) = n for every prefix position."""
    start = ray_start(ray)
    for a, b in zip(ray, ray[1:]):
        if b not in g.neighbors(a):
            raise NotGeodesic(f"{a!r} and {b!r} are not adjacent")
    dist = g.metric_from(start, budget, reach=len(ray) - 1)
    for n, v in enumerate(ray):
        if dist(v) != n:
            raise NotGeodesic(f"d(x_0, x_{n}) != {n}")


def extend_ray(g: RootedGraph, ray: tuple[Vertex, ...], length: int,
               budget: int = DEFAULT_BUDGET,
               choose: Callable[[list], Vertex] = min) -> tuple[Vertex, ...]:
    """Extend the ray to the requested length.

    Each step takes ``choose(candidates)``, where the candidates are the
    sorted neighbors of the tip one step farther from x_0; the default takes
    the least.  Raises RayNotExtendable when there is no candidate, and
    NotGeodesic when ``choose`` returns another vertex.
    """
    start = ray_start(ray)
    if len(ray) > length:
        return ray
    vs = list(ray)
    dist_from_start = g.metric_from(start, budget, reach=length)
    while len(vs) <= length:
        tip = vs[-1]
        want = len(vs)  # required distance from x_0 for the next vertex
        cands = [u for u in g.neighbors(tip) if dist_from_start(u) == want]
        if not cands:
            raise RayNotExtendable(
                f"no distance-increasing neighbor at {tip!r} "
                f"(length {len(vs) - 1})")
        nxt = choose(cands)
        if nxt not in cands:
            raise NotGeodesic(
                f"extension chose {nxt!r}, which does not extend the geodesic")
        vs.append(nxt)
    return tuple(vs)


def canonical_geodesic(g: RootedGraph, a: Vertex, b: Vertex,
                       budget: int = DEFAULT_BUDGET) -> tuple[Vertex, ...]:
    """The canonical geodesic a -> b: walk from a, at every position taking
    the least neighbor strictly closer to b."""
    if a == b:
        return (a,)
    d0 = g.metric_from(b, budget, targets=(a,))(a)
    # every vertex on the way is within d(a, b) of b
    dist_b = g.metric_from(b, budget, reach=d0)
    path = [a]
    cur = a
    for step in range(d0, 0, -1):
        cands = [u for u in g.neighbors(cur) if dist_b(u) == step - 1]
        cur = min(cands)
        path.append(cur)
    return tuple(path)


# ---------------------------------------------------------------------------
# horofunction approximation


@dataclass(frozen=True)
class HorofunctionApprox:
    """Stabilized restriction of lim_n b_{z_n} to a ball B_r.

    ``status`` is "stabilized" only when every value sits at its rigorous
    floor -d(o, y), where the non-increasing integer sequence b_{z_n}(y)
    cannot decrease further; otherwise "heuristic", certified only by
    ``window`` consecutive constant observations beyond ``stabilization_depth``.
    """

    ray: tuple[Vertex, ...]
    radius: int
    values: ValueMap
    stabilization_depth: int
    window: int
    status: str
    floor_certified: int


def horofunction_approx(g: RootedGraph, ray: tuple[Vertex, ...], r: int, window: int,
                        budget: int = DEFAULT_BUDGET) -> HorofunctionApprox:
    """Follow b_{z_n} along the ray until every value in B_r has been
    constant for ``window`` consecutive steps.

    The ray must start at the basepoint (reroot first otherwise); it is
    extended on demand by least candidates.  Along a geodesic from o the
    sequence n -> b_{z_n}(y) is non-increasing and bounded below by
    -d(o, y), so it is eventually constant and the loop terminates.
    """
    if ray_start(ray) != g.basepoint:
        raise NotGeodesic("ray must start at the basepoint; use reroot_ray first")
    if r < 0 or window < 1:
        raise ValueError("need r >= 0 and window >= 1")
    ld = layer_decomposition(g, r, budget)
    ball = ld.ball()
    max_depth = 50 * (r + 1) + 10 * window

    current = {y: ld.depth_of(y) for y in ball}  # b_o(y) = d(o, y), in ball order
    run_start = {y: 0 for y in ball}
    n = 0
    while True:
        if n - max(run_start.values()) >= window:
            break
        n += 1
        if n > max_depth:
            raise BudgetExhausted(
                f"no stabilization of all {len(ball)} values within depth {max_depth}")
        ray = extend_ray(g, ray, n, budget)
        z = ray[n]
        base, values = g.busemann_row(z, ball, budget)
        if base != n:
            raise NotGeodesic(f"ray vertex {n} is at distance {base} from o")
        for y, val in zip(ball, values):
            if val > current[y]:
                raise NotGeodesic(
                    f"b_(z_n)({y!r}) increased at n={n}: ray is not geodesic from o")
            if val < current[y]:
                current[y] = val
                run_start[y] = n

    floors = sum(1 for y in ball if current[y] == -ld.depth_of(y))
    status = "stabilized" if floors == len(ball) else "heuristic"
    return HorofunctionApprox(
        ray=ray, radius=r, values=ValueMap(ball, tuple(current.values()), radius=r),
        stabilization_depth=max(run_start.values()), window=window,
        status=status, floor_certified=floors)


def enumerate_horofunction_restrictions(
        g: RootedGraph, r: int, depth: int, window: int,
        budget: int = DEFAULT_BUDGET) -> tuple[ValueMap, ...]:
    """Distinct Busemann restrictions to B_r that persist across a window of
    sphere depths.

    For every N in [max(2r + 1, depth - window), depth], collect the set
    of restrictions of b_z to B_r over z in S_N, and intersect the sets.
    The lower clamp keeps the window away from spheres closer than 2r,
    where profiles of true limits have not stabilized yet; with
    depth > 2r + window (the recommended regime) it never engages.  The
    result converges to the true limit set for the built-in families as
    depth grows, and every returned map is 1-Lipschitz with value 0 at o.

    Each z is read on the sphere S_r only, by one Busemann row: depth
    changes by at most one per edge, so for |z| > r a geodesic from z into
    B_r enters it through S_r, and b_z(y) is the least b_z(w) + d(w, y) over
    w in S_r.  So b_z on B_r and its row over S_r fix each other; the window
    intersects these rows, and each survivor is extended.
    """
    if r < 1 or window < 0:
        raise ValueError("need r >= 1 and window >= 0")
    if depth < 2 * r + 1:
        raise ValueError(f"depth must be >= 2r + 1 = {2 * r + 1}")
    lo = max(2 * r + 1, depth - window)
    ld = layer_decomposition(g, depth, budget)
    row, s_r = g.busemann_row, ld.layers[r]
    survivors: dict[tuple[int, ...], Vertex] | None = None  # b_z on S_r -> a z
    for n in range(lo, depth + 1):
        sphere = ld.layers[n]
        if not sphere:
            raise EmptySphere(
                f"S_{n} is empty: graph is finite, no horofunctions exist")
        profiles = {}
        for z in sphere:
            profiles.setdefault(row(z, s_r, budget)[1], z)
        survivors = profiles if survivors is None else {
            p: z for p, z in survivors.items() if p in profiles}
    ball = ld.ball(r)
    return tuple(sorted(
        ValueMap(ball, row(z, ball, budget)[1], radius=r)
        for z in survivors.values()))


# ---------------------------------------------------------------------------
# rerooting


def reroot_ray(g: RootedGraph, ray: tuple[Vertex, ...],
               budget: int = DEFAULT_BUDGET) -> tuple[int, tuple[Vertex, ...]]:
    """Turn a geodesic prefix from an arbitrary start into one from o.

    The sequence c_n = d(x_n, o) - d(x_n, x_0) is non-increasing and bounded
    below, hence eventually constant, say from index N on; from there the
    distances d(x_n, o) grow by one per step, so a canonical geodesic
    o -> x_N followed by (x_{N+1}, ...) is geodesic from o.  Returns
    (N, rerooted ray).  Raises PrefixTooShort until constancy has been
    witnessed for at least one step beyond its last change.
    """
    ray_start(ray)  # NotGeodesic for an empty ray
    dist_o = g.metric_from(g.basepoint, budget, targets=ray)
    c = [dist_o(v) - n for n, v in enumerate(ray)]
    for a, b in zip(c, c[1:]):
        if b > a:
            raise NotGeodesic("d(x_n, o) - n increased along the prefix")
    last_change = 0
    for n in range(1, len(c)):
        if c[n] != c[n - 1]:
            last_change = n
    if len(ray) <= last_change + 1:
        raise PrefixTooShort(
            f"constancy from index {last_change} not yet witnessed one step "
            "beyond; extend the ray and retry")
    n0 = last_change
    head = canonical_geodesic(g, g.basepoint, ray[n0], budget)
    # constancy of c from n0 on gives d(o, x_j) = d(o, x_{n0}) + (j - n0),
    # so the splice is geodesic from o position by position
    return n0, head + ray[n0 + 1:]


# ---------------------------------------------------------------------------
# explicit finite graphs (the "explicit" spec kind)


def explicit_graph(vertices: Sequence[Vertex], edges: Sequence[Sequence[Vertex]],
                   basepoint: Vertex) -> RootedGraph:
    """Finite graph from a vertex list and undirected edge pairs."""
    vset = set(vertices)
    if len(vset) != len(list(vertices)):
        raise MalformedSpec("duplicate vertices")
    if not isinstance(basepoint, Hashable) or basepoint not in vset:
        raise MalformedSpec(f"basepoint {basepoint!r} not among vertices")
    adj: dict[Vertex, set] = {v: set() for v in vertices}
    for e in edges:
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise MalformedSpec(f"edge {e!r} is not a pair")
        if not all(isinstance(x, Hashable) and x in vset for x in e):
            raise MalformedSpec(f"edge {e!r} references unknown vertex")
        u, v = e
        if u == v:
            raise MalformedSpec(f"self-loop {e!r} not allowed")
        adj[u].add(v)
        adj[v].add(u)
    frozen = {v: tuple(sorted(s)) for v, s in adj.items()}
    return RootedGraph(lambda v: frozen[v], basepoint)


def verify_symmetric(g: RootedGraph, vertices: Iterable[Vertex]) -> None:
    """Check the neighbor-oracle symmetry invariant on a finite vertex set."""
    for v in vertices:
        for u in g.neighbors(v):
            if v not in g.neighbors(u):
                raise MalformedSpec(
                    f"asymmetric adjacency: {u!r} in N({v!r}) but not conversely")
