"""Layered (N-partite) graphs with finite layers and monotone path covers.

A layered graph has its vertices split into layers 0, 1, 2, ... with edges
only between consecutive layers; a *monotone* path meets each layer at most
once, so an infinite one marches through consecutive layers forever.  Two
finite descriptions are supported:

* truncation: an explicit finite list of layers, and
* eventually periodic: a finite prefix plus a repeating period block (with
  seam edges prefix -> period and wrap edges from the last period layer to
  the first layer of the next copy).

The eventually periodic form is the exactness domain: pruning to vertices on
infinite monotone paths, "matchings exist for all large strides", and the
funnel (Hall-failure) recursion are all decided exactly there, because the
one-period reachability relation is a boolean matrix whose powers repeat.
On truncations, "infinite" is approximated by "spanning the truncation" and
every cover is flagged approximate.

There is one relation type: the successor map ``{name: frozenset(names)}``
keyed by the names of the source layer, in layer order.  A LayeredGraph
stores its graph once, as its stored layers plus one such map per stored
step (prefix steps, seam, period steps, wrap); ``truncation`` and
``periodic`` turn edge pairs into maps once, and every derived graph
(reductions, restrictions, unfoldings, sphere quotients) is built
straight from maps.  ``forward_map(i)`` returns the stored map of unfolded
step i, ``edge_pairs(i)`` is a view of it as pairs, and reachability over
several steps (``relation_between``) composes the maps and has their type.

The monotone cover is the showpiece: k monotone paths such that every
infinite monotone path shares infinitely many vertices with one of them,
computed by induction on k via perfect matchings when they exist and via a
Hall-failure split into a funnel part and its complement when they do not.
``prune_to_spanning`` returns the pruned graph; the cover alone picks the
layers its recursion runs on (``_uniform_selection``: the least-size
layers, and a periodic graph's period without its prefix), and
``_expand_paths`` lifts the paths back through that selection.
One recursion, ``_cover_uniform``, serves both modes.  It asks
``_matching_selection`` for a layer selection with matchings at every
consecutive pair (a Stride, or a tuple of truncation layers) or for the Hall
witness.  The decision matches each layer pair it tries once, through
``_stride_analysis`` on periodic graphs and ``_truncation_witness`` on
truncations, which ``find_hall_failure`` reads as well.  ``_walk`` is the
one forward walk: it follows one successor per name, through head steps and
then around block steps.  The matching branch walks the matchings the
decision found, as ``partition_by_matchings`` does on a whole graph; a
split's pads and a truncation cover's finite paths walk the least
successors of a pruned graph, where every name has one.  The modes differ
only where the input's shape decides: the split selection and how a part
is covered.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass
from itertools import chain, cycle
from math import gcd
from typing import Any, NamedTuple

from .errors import (
    BudgetExhausted,
    EmptyGraph,
    MalformedSpec,
    MalformedSubsequence,
    NoConstantSubsequence,
    NoMatching,
    NonConsecutiveEdge,
    NotGeodesic,
    NotMonotone,
    RayNotExtendable,
    RayTooShort,
    UnequalLayers,
)
from .graphs import (
    DEFAULT_BUDGET,
    RECURRENCE_THRESHOLD,
    RootedGraph,
    canonical_geodesic,
    extend_ray,
    layer_decomposition,
    ray_start,
    recurring_sphere_size,
)
from .matching import HallViolator, Matching, matching_or_violator

Name = Any  # vertex name within one layer: any sortable, hashable value


# ---------------------------------------------------------------------------
# the graph type


@dataclass(frozen=True)
class LayeredGraph:
    """Finitely described layered graph (truncation or eventually periodic).

    ``layers`` holds the stored layers: the prefix, then one period block of
    ``period_length`` layers (0 for a truncation, whose layers are all
    prefix).  ``steps`` holds one successor map per stored step, in unfolded
    order: the prefix steps, the seam into block layer 0, the block steps,
    and the wrap from the last block layer to block layer 0 of the next
    copy.  A truncation of n layers stores n - 1 steps, a periodic graph one
    step per stored layer.  Unfolded layer i is stored layer i up to the end
    of the first block, then block layer (i - P) mod B; unfolded steps follow
    the same rule.  ``layer_tags`` holds the sphere radii of the layers of a
    :func:`sphere_quotient`, and of its reductions and restrictions.
    """

    layers: tuple[tuple[Name, ...], ...]
    steps: tuple[dict, ...]
    period_length: int = 0
    layer_tags: tuple | None = None

    # -- construction -------------------------------------------------------

    @classmethod
    def truncation(cls, layers, steps) -> "LayeredGraph":
        """Truncation from layer name lists and per-step edge pair lists."""
        layers = _layer_tuples(layers)
        steps = list(steps)
        if len(steps) != max(len(layers) - 1, 0):
            raise MalformedSpec(
                f"{len(layers)} layers need {len(layers) - 1} edge steps, "
                f"got {len(steps)}")
        return cls(layers, tuple(map(_succ_map, layers, steps)))

    @classmethod
    def periodic(cls, period_layers, period_steps, wrap,
                 prefix_layers=(), prefix_steps=(), seam=None) -> "LayeredGraph":
        """Eventually periodic graph.

        ``period_steps`` are the B-1 internal steps of the block, ``wrap``
        joins the last block layer to the first one of the next copy, and
        ``seam`` joins the last prefix layer to block layer 0.
        """
        period_layers = _layer_tuples(period_layers)
        if not period_layers:
            raise MalformedSpec("periodic description needs a nonempty period block")
        period_steps = list(period_steps)
        if len(period_steps) != len(period_layers) - 1:
            raise MalformedSpec(
                f"period of {len(period_layers)} layers needs "
                f"{len(period_layers) - 1} internal steps, got {len(period_steps)}")
        prefix_layers = _layer_tuples(prefix_layers)
        prefix_steps = list(prefix_steps)
        if len(prefix_steps) != max(len(prefix_layers) - 1, 0):
            raise MalformedSpec("prefix step count does not match prefix layers")
        if bool(prefix_layers) != (seam is not None):
            raise MalformedSpec("seam edges required exactly when a prefix is present")
        layers = prefix_layers + period_layers
        steps = prefix_steps + ([seam] if prefix_layers else []) + period_steps + [wrap]
        return cls(layers, tuple(map(_succ_map, layers, steps)), len(period_layers))

    def __post_init__(self):
        # every step's names, whether parsed from pairs or derived from maps
        p, n = self.num_prefix, len(self.layers)
        ends = self.layers + self.layers[p:p + 1]     # the wrap ends in block layer 0
        for s, succ in enumerate(self.steps):
            src, dst = set(ends[s]), set(ends[s + 1])
            for a, ts in succ.items():
                if a not in src or not ts <= dst:
                    where = ("seam" if s == p - 1 else "wrap" if s == n - 1
                             else f"prefix step {s}" if s < p else f"period step {s - p}")
                    b = next(iter(ts - dst or ts), None)
                    raise MalformedSpec(
                        f"{where}: edge ({a!r}, {b!r}) references unknown names")

    # -- shape ---------------------------------------------------------------

    @property
    def is_periodic(self) -> bool:
        return self.period_length > 0

    @property
    def num_prefix(self) -> int:
        return len(self.layers) - self.period_length

    @property
    def period_layers(self) -> tuple[tuple[Name, ...], ...]:
        return self.layers[self.num_prefix:]

    @property
    def k(self) -> int:
        """Maximum layer cardinality."""
        return max(map(len, self.layers), default=0)

    def _stored(self, i: int, count: int) -> int:
        """Position of unfolded layer or step i among ``count`` stored ones."""
        if 0 <= i < count:
            return i
        if i < 0 or not self.is_periodic:
            raise IndexError(f"unfolded index {i} out of range")
        return self.num_prefix + (i - self.num_prefix) % self.period_length

    def layer(self, i: int) -> tuple[Name, ...]:
        return self.layers[self._stored(i, len(self.layers))]

    def forward_map(self, i: int) -> dict:
        """Successors {name of layer i: frozenset of layer-(i+1) names}."""
        return self.steps[self._stored(i, len(self.steps))]

    def edge_pairs(self, i: int) -> frozenset:
        """Edges between unfolded layers i and i+1."""
        return frozenset((a, b) for a, ts in self.forward_map(i).items() for b in ts)

    def unfold(self, depth: int) -> "LayeredGraph":
        """Truncation holding layers 0..depth of the unfolding."""
        return LayeredGraph(tuple(map(self.layer, range(depth + 1))),
                            tuple(map(self.forward_map, range(depth))))


def _layer_tuples(layers) -> tuple[tuple[Name, ...], ...]:
    """Each layer as the sorted tuple of its distinct names."""
    try:
        return tuple(tuple(sorted(set(layer))) for layer in layers)
    except TypeError as exc:
        raise MalformedSpec(f"layer names must be hashable and mutually "
                            f"comparable: {exc}") from None


def _succ_map(src, pairs) -> dict:
    """Successor map of edge pairs leaving layer ``src``; a source name outside
    the layer gets its own entry, for the check in LayeredGraph."""
    out = {a: set() for a in src}
    for a, b in pairs:
        out.setdefault(a, set()).add(b)
    return {a: frozenset(ts) for a, ts in out.items()}


def build_layered(spec: dict) -> LayeredGraph:
    """Validated layered graph from its JSON description."""
    if not isinstance(spec, dict) or spec.get("kind") != "layered":
        raise MalformedSpec('layered spec must be an object with "kind": "layered"')

    def name_lists(obj, where, size=None):
        """obj, checked to be a list of lists of scalars (``size`` in each)."""
        if not isinstance(obj, list) or not all(
                isinstance(e, list) and size in (None, len(e))
                and all(isinstance(x, Hashable) for x in e) for e in obj):
            raise MalformedSpec(f"{where} must be a list of lists of scalars"
                                + (f", {size} to a list" if size else ""))
        return obj

    def section(key):
        obj = spec.get(key)
        if obj is not None and not isinstance(obj, dict):
            raise MalformedSpec(f'"{key}" must be an object')
        return obj

    def parse_edges(entries, n_layers, where):
        steps = [[] for _ in range(max(n_layers - 1, 0))]
        for e in name_lists(entries, f"{where} edges", 3):
            j, a, b = e
            if type(j) is not int or not 0 <= j < n_layers - 1:  # no bools
                raise NonConsecutiveEdge(
                    f"{where}: edge {e!r} does not join consecutive layers in range")
            steps[j].append((a, b))
        return steps

    period = section("period")
    if period is not None:
        refuse_unread_keys(spec, "kind period wrap prefix seam", "periodic layered spec")
        refuse_unread_keys(period, "layers edges", '"period"')
        p_layers = name_lists(period.get("layers"), "period.layers")
        if not p_layers or any(not layer for layer in p_layers):
            raise MalformedSpec("period.layers must be nonempty lists of names")
        p_steps = parse_edges(period.get("edges", []), len(p_layers), "period")
        wrap = name_lists(spec.get("wrap", []), "wrap", 2)
        prefix = section("prefix")
        f_layers, f_steps = [], []
        if prefix is not None:
            refuse_unread_keys(prefix, "layers edges", '"prefix"')
            f_layers = name_lists(prefix.get("layers") or [], "prefix.layers")
            f_steps = parse_edges(prefix.get("edges", []), len(f_layers), "prefix")
        # a prefix without a seam has an empty one; a seam without a prefix
        # reaches the refusal in LayeredGraph.periodic
        seam = spec.get("seam", [] if prefix is not None else None)
        return LayeredGraph.periodic(
            p_layers, p_steps, wrap, prefix_layers=f_layers, prefix_steps=f_steps,
            seam=None if seam is None else name_lists(seam, "seam", 2))

    refuse_unread_keys(spec, "kind layers edges", "truncation layered spec")
    layers = spec.get("layers")
    if not layers:
        raise MalformedSpec('truncation spec needs a nonempty "layers" list')
    name_lists(layers, "layers")
    steps = parse_edges(spec.get("edges", []), len(layers), "layers")
    return LayeredGraph.truncation(layers, steps)


def refuse_unread_keys(obj: dict, keys: str, where: str) -> None:
    """MalformedSpec naming the keys of ``obj`` outside ``keys`` (a
    space-separated list), so that no misspelt key is dropped unread."""
    unread = [key for key in obj if key not in keys.split()]
    if unread:
        raise MalformedSpec(f"{where} reads only {keys.replace(' ', ', ')}; got "
                            + ", ".join(f'"{key}"' for key in unread))


# ---------------------------------------------------------------------------
# monotone paths


@dataclass(frozen=True)
class MonotonePath:
    """A monotone path: one vertex in each layer from ``start`` on.

    ``head`` lists the first names explicitly; a nonempty ``cycle`` continues
    them periodically, making the path infinite.
    """

    start: int
    head: tuple[Name, ...]
    cycle: tuple[Name, ...] = ()

    @property
    def infinite(self) -> bool:
        return bool(self.cycle)

    @property
    def end(self) -> int | None:
        """Last covered layer, or None when infinite."""
        return None if self.cycle else self.start + len(self.head) - 1

    def covers(self, i: int) -> bool:
        return i >= self.start and (self.infinite or i <= self.end)

    def name_at(self, i: int) -> Name | None:
        if not self.covers(i):
            return None
        off = i - self.start
        if off < len(self.head):
            return self.head[off]
        return self.cycle[(off - len(self.head)) % len(self.cycle)]

    def validate(self, lg: LayeredGraph, depth: int = 64) -> None:
        """Check adjacency and layer membership on the first ``depth`` layers."""
        last = depth if self.infinite else min(self.end, depth)
        prev = None
        for i in range(self.start, last + 1):
            name = self.name_at(i)
            if name not in lg.layer(i):
                raise NotMonotone(f"{name!r} not in layer {i}")
            if prev is not None and name not in lg.forward_map(i - 1)[prev]:
                raise NotMonotone(f"({prev!r}, {name!r}) not an edge at step {i - 1}")
            prev = name


# ---------------------------------------------------------------------------
# relations between layers (monotone reachability)


def relation_between(lg: LayeredGraph, i: int, j: int) -> dict:
    """Monotone reachability relation from layer i to layer j >= i: maps each
    name of layer i to the layer-j names reachable by an ascending path."""
    rel = {a: frozenset((a,)) for a in lg.layer(i)}
    for t in range(i, j):
        succ = lg.forward_map(t)
        rel = {a: frozenset().union(*map(succ.__getitem__, mids))
               for a, mids in rel.items()}
    return rel


def _reaching(lg: LayeredGraph, lo: int, j: int, target: set) -> list[set]:
    """Reach sets of layers lo, ..., j: entry t - lo holds the names of layer
    t with a monotone path into ``target``, a set of layer-j names."""
    reach = [target]
    for t in range(j - 1, lo - 1, -1):
        succ = lg.forward_map(t)
        reach.append({a for a in lg.layer(t) if succ[a] & reach[-1]})
    reach.reverse()
    return reach


# ---------------------------------------------------------------------------
# selections (layer subsequences)


class Stride(NamedTuple):
    """Arithmetic layer selection start, start + stride, start + 2 stride, ..."""

    start: int
    stride: int


def monotone_reachability(lg: LayeredGraph, selection) -> LayeredGraph:
    """The layered graph on a subsequence of layers, with an edge exactly
    when a monotone path joins the endpoints in ``lg``.

    ``selection`` is either a strictly increasing index sequence (the result
    is a truncation) or a :class:`Stride` on a periodic graph (the result is
    again eventually periodic).  Reduced layer t is layer selection[t] of
    ``lg`` (start + t * stride for a Stride), and each stored step is the
    ``relation_between`` map of its two selected layers, used as it is.
    """
    if isinstance(selection, Stride):
        if not lg.is_periodic:
            raise MalformedSubsequence("stride selections need a periodic graph")
        start, stride = selection
        if start < 0 or stride < 1:
            raise MalformedSubsequence(f"bad stride selection {selection}")
        p, b = lg.num_prefix, lg.period_length
        # selected indices below the prefix boundary become the new prefix;
        # the new block holds b / gcd(b, stride) selected layers, then wraps
        n_pre = len(range(start, p, stride))
        period = b // gcd(b, stride)
        idx = [start + u * stride for u in range(n_pre + period + 1)]
        layers = idx[:-1]
    else:
        idx = layers = tuple(selection)
        if not idx or any(b <= a for a, b in zip(idx, idx[1:])) or idx[0] < 0:
            raise MalformedSubsequence(f"selection must be strictly increasing, got {idx}")
        if not lg.is_periodic and idx[-1] >= len(lg.layers):
            raise MalformedSubsequence(f"selection exceeds truncation depth {len(lg.layers)}")
        period = 0
    return LayeredGraph(tuple(map(lg.layer, layers)),
                        tuple(relation_between(lg, s, t) for s, t in zip(idx, idx[1:])),
                        period,
                        tuple(lg.layer_tags[i] for i in layers) if lg.layer_tags else None)


# ---------------------------------------------------------------------------
# pruning


def _restricted(lg: LayeredGraph, keep) -> LayeredGraph:
    """Subgraph on the names keep[i] (a set) of each stored layer i."""
    p = lg.num_prefix
    ends = list(keep) + list(keep[p:p + 1])     # the wrap ends in block layer 0
    layers = tuple(tuple(sorted(s)) for s in keep)
    steps = tuple({a: succ[a] & ends[s + 1] for a in layers[s]}
                  for s, succ in enumerate(lg.steps))
    return LayeredGraph(layers, steps, lg.period_length, lg.layer_tags)


def prune_to_spanning(lg: LayeredGraph) -> LayeredGraph:
    """The subgraph on the vertices that lie on an infinite monotone path.

    Periodic mode is exact: a vertex survives iff it can reach, at the next
    block boundary, a name from which arbitrarily long walks exist in the
    one-period reachability relation.  Truncation mode keeps the vertices on
    paths spanning the full truncation, an approximation in the depth.
    Raises EmptyGraph when nothing survives.
    """
    if lg.is_periodic:
        p, b = lg.num_prefix, lg.period_length
        one_period = relation_between(lg, p, p + b)
        # names with arbitrarily long forward walks: co-inductive trimming
        alive = set(lg.period_layers[0])
        while True:
            nxt = {u for u in alive if one_period[u] & alive}
            if nxt == alive:
                break
            alive = nxt
        if not alive:
            raise EmptyGraph("no infinite monotone path survives pruning")
        # walk back from block layer 0 of the next copy; at layer p this
        # gives alive again, since a name reaching alive in one period is
        # never trimmed
        return _restricted(lg, _reaching(lg, 0, p + b, alive)[:-1])
    d = len(lg.layers)
    fwd = _reaching(lg, 0, d - 1, set(lg.layer(d - 1)))
    back = [set(lg.layer(0))]
    for i in range(d - 1):
        succ = lg.forward_map(i)
        back.append(set().union(*(succ[a] for a in back[i])))
    keep = [f & bk for f, bk in zip(fwd, back)]
    if not any(keep):
        raise EmptyGraph("no monotone path spans the truncation")
    return _restricted(lg, keep)


def _uniform_selection(g: LayeredGraph):
    """Layers of a pruned graph that the cover recursion runs on, or None for
    all of them: a truncation's least-size layers; on a periodic graph the
    whole period, Stride(P, 1), when its layer sizes agree (the recursion
    runs prefixless), else the first least-size phase once per period."""
    sizes = [len(layer) for layer in g.layers]
    if not g.is_periodic:
        least = min(sizes)
        return None if max(sizes) == least else tuple(
            i for i, size in enumerate(sizes) if size == least)
    p = g.num_prefix
    if len(set(sizes[p:])) > 1:
        return Stride(sizes.index(min(sizes[p:]), p), g.period_length)
    return Stride(p, 1) if p else None


# ---------------------------------------------------------------------------
# matchings along layers


def partition_by_matchings(lg: LayeredGraph) -> tuple[MonotonePath, ...]:
    """Partition all vertices into k vertex-disjoint monotone paths by
    following a perfect matching at every consecutive layer pair.

    Periodic mode composes the block matchings (plus wrap) into a
    permutation of the first block layer; each path then follows one
    permutation cycle forever (see ``_walk``).  Raises UnequalLayers at the
    first pair of unequal sizes, and NoMatching (with the Hall certificate)
    at the first pair without a perfect matching.
    """
    def need(j):
        left, right = lg.layer(j), lg.layer(j + 1)
        if len(left) != len(right):
            raise UnequalLayers(
                f"layers {j} and {j + 1} have sizes {len(left)} != {len(right)}")
        res = matching_or_violator(left, right, lg.forward_map(j))
        if isinstance(res, HallViolator):
            raise NoMatching(f"no perfect matching at layer pair ({j}, {j + 1})",
                             certificate=res)
        return res.as_dict()

    matchings = [need(i) for i in range(len(lg.steps))]
    p = lg.num_prefix
    return tuple(_walk(a, matchings[:p], matchings[p:]) for a in lg.layer(0))


def _walk(name: Name, head_steps, block_steps) -> MonotonePath:
    """The path from ``name`` at layer 0 that follows the head steps (dicts
    of one successor per name), then repeats the block steps, if any, until
    a block entry repeats: the walk from that entry on is the cycle."""
    names = [name]
    for step in head_steps:
        names.append(step[names[-1]])
    if not block_steps:
        return MonotonePath(0, tuple(names))
    entries = {}                  # block entry name -> its offset in names
    while names[-1] not in entries:
        entries[names[-1]] = len(names) - 1
        for step in block_steps:
            names.append(step[names[-1]])
    i = entries[names.pop()]
    return MonotonePath(0, tuple(names[:i]), tuple(names[i:]))


def _least_successors(g: LayeredGraph) -> list[dict]:
    """{name: its least successor} for each stored step of a pruned graph,
    where every name has one: the steps a pad or a finite path walks."""
    return [{a: min(ts) for a, ts in succ.items()} for succ in g.steps]


# ---------------------------------------------------------------------------
# Hall failure analysis


@dataclass(frozen=True)
class HallFailureWitness:
    """A base layer n and sampled layers m with sets U, V_m certifying that
    every monotone path from U into layer m ends inside the strictly smaller
    set V_m (and every v in V_m is so reachable, by construction)."""

    base_layer: int
    witness_layers: tuple[int, ...]
    U: tuple[Name, ...]
    V: tuple[tuple[int, tuple[Name, ...]], ...]
    sizes: tuple[int, int]


_POWER_CAP = 4096  # powers tried per phase before giving up with BudgetExhausted


def _stride_analysis(lg: LayeredGraph) -> tuple[Stride, Matching] | HallFailureWitness:
    """Decide between the matching branch and the Hall-failure branch.

    For each block phase j, the reachability relation over q periods is the
    q-th power of a boolean matrix, so it repeats; if some power of some
    phase admits a perfect matching, an infinite equal-gap subsequence with
    matchings at every consecutive pair exists: (its Stride, the matching of
    the power) is returned, since every pair of the Stride is that pair.
    Otherwise the violators of the powers inside the stabilized cycle repeat
    verbatim and give a Hall-failure witness with constant U and V, built
    from the certificates kept while the powers were tried: each power is
    matched once.  The search over same-phase strides is complete: any
    infinite matchable subsequence contains one along a fixed phase, because
    compositions of perfect matchings are perfect matchings inside the
    composed relation.  Raises EmptyGraph on an empty block layer.
    """
    p, b = lg.num_prefix, lg.period_length
    names = lg.period_layers
    if not all(names):
        raise EmptyGraph("empty block layer: prune first")
    one_period = [relation_between(lg, p + j, p + j + b) for j in range(b)]

    power = list(one_period)
    history = [dict() for _ in range(b)]   # successor sets in layer order -> (q, cert)
    cycle_of = [None] * b                  # (pre_period, cycle_len)
    q = 0
    while True:
        q += 1
        progress = False
        for j in range(b):
            if cycle_of[j] is not None:
                continue
            if q > _POWER_CAP:
                raise BudgetExhausted(
                    f"powers of the one-period relation at phase {j} did not "
                    f"cycle within {_POWER_CAP} periods")
            progress = True
            if q > 1:
                step = one_period[j]
                power[j] = {a: frozenset().union(*map(step.__getitem__, mids))
                            for a, mids in power[j].items()}
            key = tuple(power[j].values())
            if key in history[j]:
                q1 = history[j][key][0]
                cycle_of[j] = (q1, q - q1)
                continue
            cert = matching_or_violator(names[j], names[j], power[j])
            if isinstance(cert, Matching):
                return Stride(p + j, q * b), cert
            history[j][key] = (q, cert)
        if not progress:
            break

    # the witness at phase 0: the least (U, |V|) among the certificates of
    # the stabilized cycle, first reached at power q0
    pre, cyc = cycle_of[0]
    q0, cert = min((qc for qc in history[0].values() if qc[0] >= pre),
                   key=lambda qc: (qc[1].subset, len(qc[1].neighborhood), qc[0]))
    ms = tuple(p + (q0 + i * cyc) * b for i in range(3))
    return HallFailureWitness(
        base_layer=p, witness_layers=ms, U=cert.subset,
        V=tuple((m, cert.neighborhood) for m in ms),
        sizes=(len(cert.subset), len(cert.neighborhood)))


def find_hall_failure(lg: LayeredGraph) -> HallFailureWitness | None:
    """Witness that some base layer fails Hall's condition against all
    sufficiently deep layers, or None when matchings exist along a stride.

    The input should be pruned.  Periodic graphs are decided exactly via the
    stabilized matrix powers; truncations scan base layers against every
    deeper equal-size layer and are approximate by nature.
    """
    if lg.is_periodic:
        res = _stride_analysis(lg)
        return res if isinstance(res, HallFailureWitness) else None
    for n in range(len(lg.layers) - 1):
        res = _truncation_witness(lg, n)
        if isinstance(res, HallFailureWitness):
            return res
    return None


def _truncation_witness(lg: LayeredGraph, n: int) -> tuple | HallFailureWitness | None:
    """The first deeper layer m of the same size as base layer n that matches
    it, as (m, the matching of n to m); else the Hall-failure witness of n
    against all of them, or None when there is none.

    The Hall certificates are grouped by (U, |V|); the witness is the largest
    group, ties going to the least (U, |V|), so the choice is deterministic.
    """
    classes: dict = {}
    for m in range(n + 1, len(lg.layers)):
        if len(lg.layer(m)) != len(lg.layer(n)):
            continue
        cert = matching_or_violator(lg.layer(n), lg.layer(m),
                                    relation_between(lg, n, m))
        if isinstance(cert, Matching):
            return m, cert
        key = (cert.subset, len(cert.neighborhood))
        classes.setdefault(key, []).append((m, cert.neighborhood))
    if not classes:
        return None
    (u_set, vlen), members = min(classes.items(),
                                 key=lambda kv: (-len(kv[1]), kv[0]))
    return HallFailureWitness(
        base_layer=n, witness_layers=tuple(m for m, _ in members), U=u_set,
        V=tuple(members), sizes=(len(u_set), vlen))


# ---------------------------------------------------------------------------
# the cover


@dataclass(frozen=True)
class TraceNode:
    """One step of the cover recursion: a matching branch, or a Hall-failure
    split into the funnel sets and their complements."""

    kind: str                      # "match" | "split" | "void"
    k: int
    selection: tuple | None = None
    witness: HallFailureWitness | None = None
    v: int | None = None
    w: int | None = None
    children: tuple["TraceNode", ...] = ()
    padded: tuple[Name, ...] = ()


@dataclass(frozen=True)
class CoverResult:
    """k monotone paths meeting every infinite monotone path infinitely often
    (spanning paths, in truncation mode), plus the recursion trace."""

    paths: tuple[MonotonePath, ...]
    trace: TraceNode
    k: int
    approximate: bool


def _least_segment(lg: LayeredGraph, i: int, u: Name, j: int, v: Name) -> tuple:
    """Lexicographically least monotone path (layer i, u) -> (layer j, v)."""
    reach = _reaching(lg, i + 1, j, {v})
    out = [u]
    for t in range(i, j):
        out.append(min(lg.forward_map(t)[out[-1]] & reach[t - i]))
    return tuple(out)


def _expand_paths(parent: LayeredGraph, selection, paths) -> list[MonotonePath]:
    """Lift paths through ``monotone_reachability(parent, selection)``: each
    reduced edge becomes its least realizing monotone segment in the parent.
    The paths share one segment memo.  A segment (layer i, u) -> (layer j, v)
    reads only layers i .. j, so (stored index of i, j - i, u, v) fixes it:
    the stored index is i's phase past a periodic prefix, and i itself
    everywhere else."""
    if isinstance(selection, Stride):
        to_parent = lambda t: selection.start + t * selection.stride
    else:
        to_parent = selection.__getitem__
    segments: dict = {}
    n_layers = len(parent.layers)

    def lift(t, names):
        """Parent names of the reduced steps along ``names``, a name sequence
        from reduced layer t on, each segment without its last name."""
        out = []
        i = to_parent(t)
        for u, v in zip(names, names[1:]):
            t += 1
            j = to_parent(t)
            key = (parent._stored(i, n_layers), j - i, u, v)
            segment = segments.get(key)
            if segment is None:
                segment = segments[key] = _least_segment(parent, i, u, j, v)[:-1]
            out += segment
            i = j
        return tuple(out)

    def expand(path):
        start = to_parent(path.start)
        if not path.infinite:
            return MonotonePath(start, lift(path.start, path.head) + path.head[-1:])
        # infinite paths come with a Stride; unroll the cycle until its
        # segments line up with the parent period
        bp = parent.period_length
        repeat = bp // gcd(bp, len(path.cycle) * selection.stride)
        return MonotonePath(start, lift(path.start, path.head + path.cycle[:1]),
                            lift(path.start + len(path.head),
                                 path.cycle * repeat + path.cycle[:1]))

    return [expand(path) for path in paths]


def _least_predecessors(g: LayeredGraph) -> list[dict]:
    """{name: its least predecessor} for each stored step of a pruned graph,
    over the names that have one: the steps ``_extend_back`` walks back.  A
    pruned graph keys its steps in sorted layer order, so reading them in
    reverse leaves each name's least source written last."""
    return [{b: a for a, ts in reversed(succ.items()) for b in ts} for succ in g.steps]


def _extend_back(g: LayeredGraph, preds: list[dict], path: MonotonePath) -> MonotonePath:
    """Prepend least predecessors (``preds``, from ``_least_predecessors(g)``)
    toward layer 0 while one exists."""
    start = path.start
    cur = (path.head or path.cycle)[0]
    prefix = []
    while start > 0:
        pred = preds[g._stored(start - 1, len(preds))]
        if cur not in pred:
            break
        cur = pred[cur]
        prefix.append(cur)
        start -= 1
    if not prefix:
        return path
    prefix.reverse()
    # after an empty head the prefix runs on through one cycle turn: the same
    # path, in the form the reports print
    return MonotonePath(start, tuple(prefix) + (path.head or path.cycle), path.cycle)


def _uniform_size(lg: LayeredGraph) -> int:
    sizes = set(map(len, lg.layers))
    if len(sizes) != 1:
        raise UnequalLayers(f"layers not uniform: sizes {sorted(sizes)}")
    return sizes.pop()


def monotone_cover(lg: LayeredGraph) -> CoverResult:
    """k monotone paths such that every infinite monotone path meets one of
    them infinitely often (for truncations: every spanning path meets one,
    approximately in the depth).

    Pipeline: prune, pass to the ``_uniform_selection`` of the pruned graph
    (equal-size layers, and no prefix on a periodic graph), then run the one
    cover recursion, ``_cover_uniform``, on that uniform graph: take the
    matching branch along the ``_matching_selection`` when one exists,
    otherwise split along the Hall-failure witness into the funnel Γ_A (the
    V sets) and its complement Γ_B, solve both by induction, and lift
    everything back to the pruned graph.  There ``_extend_back`` extends
    each path toward layer 0, and ``_walk`` walks each finite (truncation)
    path on to the last layer by least successors, so a truncation's cover
    paths are spanning paths.  k is the uniform layer size after pruning;
    the result paths live in the original layer indexing.
    """
    g0 = prune_to_spanning(lg)
    sel = _uniform_selection(g0)
    g1 = g0 if sel is None else monotone_reachability(g0, sel)
    paths1, trace = _cover_uniform(g1)
    if sel is not None:
        paths1 = _expand_paths(g0, sel, paths1)
    least, preds = _least_successors(g0), _least_predecessors(g0)
    paths = []
    for q in paths1:
        q = _extend_back(g0, preds, q)
        if not q.infinite:          # walk on to the last truncation layer
            tail = _walk(q.head[-1], least[q.end:], ()).head
            q = MonotonePath(q.start, q.head[:-1] + tail)
        paths.append(q)
    return CoverResult(paths=tuple(paths), trace=trace, k=_uniform_size(g1),
                       approximate=not lg.is_periodic)


def _matching_selection(g: LayeredGraph) -> tuple | HallFailureWitness:
    """(selection, paths): every consecutive selected pair matches, and the
    paths walk those matchings, as ``partition_by_matchings`` does on the
    reduction; else the Hall witness.  A Stride from ``_stride_analysis`` on
    periodic graphs, on truncations the greedy chain of layers each matching
    its predecessor through ``_truncation_witness``."""
    if g.is_periodic:
        res = _stride_analysis(g)
        if isinstance(res, HallFailureWitness):
            return res
        block = (res[1].as_dict(),)
        return res[0], tuple(_walk(a, (), block) for a in g.layer(res[0].start))
    chain, head_steps = [0], []
    while chain[-1] < len(g.layers) - 1:
        res = _truncation_witness(g, chain[-1])
        if isinstance(res, HallFailureWitness):
            return res              # no deeper layer matches the chain's end
        chain.append(res[0])
        head_steps.append(res[1].as_dict())
    return tuple(chain), tuple(_walk(a, head_steps, ()) for a in g.layer(0))


def _cover_uniform(g: LayeredGraph):
    """The cover recursion on a uniform graph (prefixless when periodic):
    exactly k paths plus the trace.

    Matching branch: lift the paths walked along the selection.  Split
    branch: reduce to the witness layers (one layer, a whole period, on
    periodic graphs), cover the funnel V and its complement W by induction,
    and pad with one ``_walk`` over the least successors of that reduction
    from each layer-0 name that neither part accounts for.  A periodic part
    is pruned and recursed on directly, since ``monotone_cover`` would
    extend its nested split paths back to layer 0; a truncation part goes
    through ``monotone_cover``.
    """
    k = _uniform_size(g)
    witness = _matching_selection(g)
    if not isinstance(witness, HallFailureWitness):
        sel, pn = witness
        selection = ("stride", *sel) if isinstance(sel, Stride) else ("layers", sel)
        return _expand_paths(g, sel, pn), TraceNode(kind="match", k=k, selection=selection)

    ms = witness.witness_layers
    sel = Stride(ms[0], ms[1] - ms[0]) if g.is_periodic else ms
    gm = monotone_reachability(g, sel)
    # one V per layer of gm; a periodic gm is one layer, and its V repeats
    v_sets = [set(v) for (_, v), _ in zip(witness.V, gm.layers)]
    w_sets = [set(layer) - v for layer, v in zip(gm.layers, v_sets)]

    def child(layer_sets):
        """Paths and trace of one part, and the layer-0 names it accounts for."""
        try:
            if g.is_periodic:
                pruned = prune_to_spanning(_restricted(gm, layer_sets))
                return (*_cover_uniform(pruned), set(pruned.layers[0]))
            res = monotone_cover(_restricted(gm, layer_sets))
        except EmptyGraph:
            return [], TraceNode(kind="void", k=0), set()
        return (list(res.paths), res.trace,
                {q.name_at(0) for q in res.paths if q.covers(0)})

    paths_a, trace_a, kept_a = child(v_sets)
    paths_b, trace_b, kept_b = child(w_sets)
    # each part path accounts for at most one name: spare never runs short
    spare = [a for a in gm.layer(0) if a not in kept_a and a not in kept_b]
    padded = tuple(spare[:k - len(paths_a) - len(paths_b)])
    least, p = _least_successors(gm), gm.num_prefix
    pad_paths = [_walk(u, least[:p], least[p:]) for u in padded]
    paths = _expand_paths(g, sel, paths_a + paths_b + pad_paths)
    trace = TraceNode(kind="split", k=k, witness=witness, v=witness.sizes[1],
                      w=k - witness.sizes[1], children=(trace_a, trace_b),
                      padded=padded)
    return paths, trace


# ---------------------------------------------------------------------------
# exhaustive verification (independent of the cover construction)


def spanning_intersection_minima(lg: LayeredGraph, paths, depths=(10, 20, 40)):
    """For each depth D: the minimum over all monotone paths spanning layers
    0..D of the unfolding of max_j |path ∩ paths[j]|.

    Dynamic program over (vertex, intersection count vector) states, grouped
    by vertex as {name: set of count vectors}; a step adds a successor's hit
    mask to a whole group, and no state is pruned.  The counts are packed
    into one int, a field per path.  A count is at most the number of
    layers, D + 1, so the field width is sized from the deepest D (8 bits
    while D < 255); Python ints bound neither the width nor the number of
    paths.
    Returns {D: minimum} in increasing D, None when no spanning path reaches
    depth D; a D past a truncation's last layer is left out, {} if all are.
    """
    depths = sorted(dd for dd in depths if lg.is_periodic or dd < len(lg.layers))
    if not depths:
        return {}
    top = depths[-1]
    width = max(8, (top + 1).bit_length())
    field_mask = (1 << width) - 1

    # masks[i]: {name: one count per path through (layer i, name)}, packed;
    # one pass along each path's names, from its start to depth top
    masks = [{} for _ in range(top + 1)]
    for j, q in enumerate(paths):
        bit = 1 << (width * j)
        for hits, name in zip(masks[q.start:], chain(q.head, cycle(q.cycle))):
            hits[name] = hits.get(name, 0) + bit

    def score(states):
        best = None
        for packs in states.values():
            for packed in packs:
                top_count = max((packed >> (width * j)) & field_mask
                                for j in range(len(paths)))
                best = top_count if best is None else min(best, top_count)
        return best

    minima = {}
    states = {a: {masks[0].get(a, 0)} for a in lg.layer(0)}
    for i in range(top + 1):
        if i in depths:
            minima[i] = score(states)
        if i == top:
            break
        succ = lg.forward_map(i)
        hits = masks[i + 1]
        nxt: dict = {}
        for a, packs in states.items():
            for bb in succ[a]:
                m = hits.get(bb, 0)
                nxt.setdefault(bb, set()).update([p + m for p in packs] if m else packs)
        states = nxt
        if not states:
            for dd in depths:
                if dd > i:
                    minima[dd] = None
            return minima
    return minima


# ---------------------------------------------------------------------------
# sphere quotients of rooted graphs


def sphere_quotient(g: RootedGraph, bound: int,
                    budget: int = DEFAULT_BUDGET) -> LayeredGraph:
    """Layered graph on the equal-size spheres of a rooted graph.

    The spheres are located from a census up to ``bound``: the layer size is
    the smallest sphere size occurring at least RECURRENCE_THRESHOLD times,
    and layer t is the sphere of the t-th radius with that size.  An edge
    joins x to x' exactly when d(x, x') equals the radius gap, which happens
    exactly when some path of that length joins them.  The sphere radii are
    kept in ``layer_tags``.
    """
    ld = layer_decomposition(g, bound, budget)
    sizes = ld.sphere_sizes
    k = recurring_sphere_size(sizes)
    if k is None:
        raise NoConstantSubsequence(
            f"no sphere size recurs {RECURRENCE_THRESHOLD} times up to "
            f"radius {bound} (superlinear growth, or the bound is too small)")
    radii = tuple(r for r in range(1, bound + 1) if sizes[r] == k)
    layers = tuple(ld.layers[r] for r in radii)
    steps = []
    for t in range(len(radii) - 1):
        gap = radii[t + 1] - radii[t]
        succ = {}
        for x in layers[t]:
            dist = g.metric_from(x, budget, reach=gap)
            succ[x] = frozenset(y for y in layers[t + 1] if dist(y) == gap)
        steps.append(succ)
    return LayeredGraph(layers, tuple(steps), layer_tags=radii)


def ray_to_monotone(g: RootedGraph, lg: LayeredGraph, ray: tuple[Any, ...],
                    budget: int = DEFAULT_BUDGET) -> MonotonePath:
    """The monotone path through exactly the ray's sphere intersections.

    ``lg`` must come from :func:`sphere_quotient` on the same graph and the
    ray start at o (NotMonotone, NotGeodesic otherwise).  A geodesic ray
    from o meets the sphere of radius m exactly at its vertex number m.
    """
    if lg.layer_tags is None:
        raise NotMonotone("layered graph carries no sphere radii; "
                          "build it with sphere_quotient")
    if ray_start(ray) != g.basepoint:
        raise NotGeodesic("ray must start at the basepoint")
    radii = lg.layer_tags
    try:
        ray = extend_ray(g, ray, radii[-1], budget)
    except RayNotExtendable as exc:
        raise RayTooShort(
            f"ray of length {len(ray) - 1} cannot cross the last sphere "
            f"(radius {radii[-1]})") from exc
    names = []
    for t, m in enumerate(radii):
        v = ray[m]
        if v not in lg.layer(t):
            raise NotMonotone(f"ray vertex {v!r} is not in sphere layer {t}; "
                              "was the layered graph built from this graph?")
        names.append(v)
    return MonotonePath(0, tuple(names))


def monotone_to_ray(g: RootedGraph, lg: LayeredGraph, path: MonotonePath,
                    budget: int = DEFAULT_BUDGET) -> tuple[Any, ...]:
    """Companion lift: realize a monotone path of a sphere quotient as a
    geodesic ray from o, choosing canonical geodesic segments.  NotMonotone
    for a graph or path that is not a sphere quotient's, NotGeodesic for a
    vertex off its sphere or a segment that does not realize its gap."""
    if lg.layer_tags is None:
        raise NotMonotone("layered graph carries no sphere radii")
    if path.infinite or path.start != 0 or len(path.head) != len(lg.layer_tags):
        raise NotMonotone("need a finite path through every sphere layer")
    radii = lg.layer_tags
    vertices = list(canonical_geodesic(g, g.basepoint, path.head[0], budget))
    if len(vertices) - 1 != radii[0]:
        raise NotGeodesic("first vertex does not sit on its sphere")
    for t in range(len(radii) - 1):
        seg = canonical_geodesic(g, path.head[t], path.head[t + 1], budget)
        if len(seg) - 1 != radii[t + 1] - radii[t]:
            raise NotGeodesic(f"no distance-realizing segment at step {t}")
        vertices.extend(seg[1:])
    return tuple(vertices)
