"""Built-in group families as rooted Cayley graphs, the shift action on
value maps, finite-orbit analysis and homomorphism extraction.

Families and their normal forms:

    integers             int n
    integers-times-cyclic(m)   (n, t) with t in 0..m-1
    infinite-dihedral    (k, s): the isometry x -> (-1)^s x + k of the integers
    integer-lattice-2d   (a, b)
    free-2               reduced word over a, A, b, B (A = a inverse)

Each family writes its standard metric once, as ``metric_row(z, targets,
offset)``: the tuple of d(z, y) - offset over the targets.  Free-2 also has
closed forms on its whole sorted balls: a Busemann row (``busemann_row``)
and the action's gather (``act_row``).

The group acts on value maps vanishing at the identity by
x.f(y) = f(x^-1 y) - f(x^-1); for Busemann tables this is x.b_z = b_{xz}.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, repeat
from math import gcd
from operator import itemgetter, sub
from typing import Any

from .errors import (
    AdditivityViolation,
    BudgetExhausted,
    DomainTooSmall,
    GeneratorsDoNotGenerate,
    MalformedSpec,
    NotInvariant,
    TrivialImage,
)
from .graphs import (
    DEFAULT_BUDGET,
    RootedGraph,
    ValueMap,
    distance,
    layer_decomposition,
)


# ---------------------------------------------------------------------------
# family arithmetic


def _int_pair(obj, shape):
    """The pair of exact ints ``obj`` (a 2-sequence) as a tuple; MalformedSpec
    for any other shape or entry, bools and floats included."""
    try:
        a, b = obj
    except (TypeError, ValueError):
        raise MalformedSpec(f"element must be a pair {shape}, got {obj!r}") from None
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in (a, b)):
        raise MalformedSpec(f"element {obj!r} must be a pair of integers {shape}")
    return (a, b)


class Integers:
    identity = 0

    @staticmethod
    def mul(x, y):
        return x + y

    @staticmethod
    def inv(x):
        return -x

    @staticmethod
    def default_generators():
        return (-1, 1)

    @staticmethod
    def metric_row(z, targets, offset=0):
        return tuple([abs(y - z) - offset for y in targets])

    @staticmethod
    def token(obj):
        if not isinstance(obj, int) or isinstance(obj, bool):
            raise MalformedSpec(f"integers element must be an int, got {obj!r}")
        return obj


class IntegersTimesCyclic:
    def __init__(self, modulus: int):
        if not isinstance(modulus, int) or modulus < 2:
            raise MalformedSpec("modulus must be an integer >= 2")
        self.modulus = modulus
        self.identity = (0, 0)

    def mul(self, x, y):
        return (x[0] + y[0], (x[1] + y[1]) % self.modulus)

    def inv(self, x):
        return (-x[0], (-x[1]) % self.modulus)

    def default_generators(self):
        gens = {(1, 0), (-1, 0), (0, 1), (0, self.modulus - 1)}
        return tuple(sorted(gens))

    def metric_row(self, z, targets, offset=0):
        (n, t), m = z, self.modulus
        return tuple([abs(a - n) + min(u := (s - t) % m, m - u) - offset
                      for a, s in targets])

    def token(self, obj):
        n, t = _int_pair(obj, "[n, t]")
        if not 0 <= t < self.modulus:
            raise MalformedSpec(f"bad pair {obj!r} for modulus {self.modulus}")
        return (n, t)


class InfiniteDihedral:
    """Isometries of the integers; (k, s) is x -> (-1)^s x + k."""

    identity = (0, 0)

    @staticmethod
    def mul(x, y):
        (k1, s1), (k2, s2) = x, y
        e1 = -1 if s1 else 1
        return (k1 + e1 * k2, s1 ^ s2)

    @staticmethod
    def inv(x):
        (k, s) = x
        e = -1 if s else 1
        return (-e * k, s)

    @staticmethod
    def default_generators():
        # the two standard involutive reflections
        return ((0, 1), (1, 1))

    @staticmethod
    def metric_row(z, targets, offset=0):
        # z^-1 y = (k, s ^ t) with k = e * (y[0] - z[0]), e = (-1)^s
        (n, s), e = z, (-1 if z[1] else 1)
        return tuple([(abs(2 * e * (k - n) - 1) if s ^ t else 2 * abs(k - n)) - offset
                      for k, t in targets])

    @staticmethod
    def token(obj):
        k, s = _int_pair(obj, "[k, s]")
        if s not in (0, 1):
            raise MalformedSpec(f"bad dihedral pair {obj!r}")
        return (k, s)


class IntegerLattice2D:
    identity = (0, 0)

    @staticmethod
    def mul(x, y):
        return (x[0] + y[0], x[1] + y[1])

    @staticmethod
    def inv(x):
        return (-x[0], -x[1])

    @staticmethod
    def default_generators():
        return ((-1, 0), (0, -1), (0, 1), (1, 0))

    @staticmethod
    def metric_row(z, targets, offset=0):
        a, b = z
        return tuple([abs(y - a) + abs(v - b) - offset for y, v in targets])

    @staticmethod
    def token(obj):
        return _int_pair(obj, "[a, b]")


_FREE_INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b"}


def _whole_ball_radius(ball):
    """R for a whole sorted free-2 ball B_R (ValueError otherwise)."""
    radius = len(ball[-1]) if ball else -1
    if len(ball) != 2 * 3 ** radius - 1 or ball[-1] != "b" * radius:
        raise ValueError("a free-2 closed form needs a whole sorted ball B_R")
    return radius


def _subtree_ranges(ball, radius, word):
    """For k = 0..|word|, the range (lo, hi) of the words with prefix
    word[:k] in the whole sorted free-2 ball B_radius, an empty one where
    word[:k] is too long; a subtree's size depends only on k and radius."""
    lo, hi = 0, len(ball)
    ranges = [(lo, hi)]
    for k in range(1, len(word) + 1):
        lo = bisect_left(ball, word[:k], lo, hi)
        hi = lo + (3 ** max(radius - k + 1, 0) - 1) // 2
        ranges.append((lo, hi))
    return ranges


def _common_prefix(x, y):
    """The length of the longest common prefix of two words."""
    i, m = 0, min(len(x), len(y))
    while i < m and x[i] == y[i]:
        i += 1
    return i


def _depth_run(top, depth):
    """Preorder values of a full ternary tree with ``depth`` levels below its
    root: ``top`` at the root, one more at each level down."""
    run = [top + depth]
    for d in range(depth - 1, -1, -1):
        run = [top + d, *run, *run, *run]
    return run


def _top_offsets(depth, levels):
    """Preorder offsets from the root of the top ``depth`` levels below the
    root of a full ternary tree with ``levels`` levels below its root."""
    offsets = [0]
    for e in range(levels - depth, levels):  # e levels below each child
        size = (3 ** (e + 1) - 1) // 2
        offsets = [0, *chain.from_iterable(map((1 + j * size).__add__, offsets)
                                           for j in range(3))]
    return offsets


class Free2:
    identity = ""

    @staticmethod
    def mul(x, y):
        # both inputs reduced: cancellation happens only at the joint
        i, j = len(x), 0
        while i > 0 and j < len(y) and x[i - 1] == _FREE_INVERSE[y[j]]:
            i -= 1
            j += 1
        return x[:i] + y[j:]

    @staticmethod
    def inv(x):
        return "".join(_FREE_INVERSE[c] for c in reversed(x))

    @staticmethod
    def default_generators():
        return ("A", "B", "a", "b")

    @staticmethod
    def metric_row(z, targets, offset=0):
        # tree metric: cancel the longest common prefix
        n = len(z) - offset
        return tuple([n + len(y) - 2 * _common_prefix(z, y) for y in targets])

    @staticmethod
    def busemann_row(z, ball):
        """(|z|, the values b_z(y) = |y| - 2 lcp(z, y) for y in ``ball``).

        ``ball`` must be a whole sorted ball B_R (ValueError otherwise), a
        preorder of the Cayley tree: the words with prefix p form one range,
        whose size depends only on |p| and R.  So no word is read past the
        bisections for z's prefixes.  The word z[:i] has the value -i, and
        each subtree that leaves z's path below z[:i] holds the preorder
        depths of a full ternary tree lowered by 2i, built by list
        repetition and placed by slice assignment."""
        radius = _whole_ball_radius(ball)
        row = [0] * len(ball)
        m = min(len(z), radius)
        ranges = _subtree_ranges(ball, radius, z[:m])
        for i, (lo, hi) in enumerate(ranges):
            clo, chi = ranges[i + 1] if i < m else (hi, hi)  # z[:i+1]'s subtree
            row[lo] = -i
            if hi - lo > 1:
                run = _depth_run(1 - i, radius - i - 1)
                for a in chain(range(lo + 1, clo, len(run)),
                               range(chi, hi, len(run))):
                    row[a:a + len(run)] = run
                del run  # no run outlives its level, nor lives on beside tuple(row)
        return len(z), tuple(row)

    @staticmethod
    def act_row(x, values, ball, out_ball):
        """The values f(x^-1 y) - f(x^-1) for y in ``out_ball``, where f is
        ``values`` on the whole sorted ball ``ball`` = B_R, ``out_ball`` is
        the whole sorted B_{R-|x|} (ValueError otherwise) and x is reduced.

        With w = x^-1 and n = |x|, the y that leave x's path at depth k,
        i.e. have prefix x[:k] and not x[:k+1], map to w[:n-k] + y[k:].  At
        k = 0 these words are w's subtree of ``ball``, in order, so they are
        one slice of ``values``.  At k >= 1 they are w[:n-k] and, below each
        child of it off w's path, the top R-n-k-1 levels of a full subtree
        with 2k levels more: fixed preorder offsets from the child's position
        (one template per level), all read through one itemgetter.  In ball
        order the output is the part of each level before x[:k+1]'s subtree
        for k = 0..n, then the part after it for k = n..0."""
        n, radius, out_r = len(x), _whole_ball_radius(ball), _whole_ball_radius(out_ball)
        if out_r != radius - n:
            raise ValueError(f"out_ball must be the whole sorted ball B_{radius - n}")
        src = _subtree_ranges(ball, radius, Free2.inv(x))
        dst = _subtree_ranges(out_ball, out_r, x)
        dst.append((dst[n][1], dst[n][1]))  # level n excludes no subtree
        lo = src[n][0]
        cp, cq = dst[1]
        idx, tails = [], []  # positions at levels 1..n: heads, then tails n..1
        for k in range(1, min(n, out_r) + 1):
            (ulo, uhi), (clo, chi) = src[n - k], src[n - k + 1]
            level = [ulo]
            if k < out_r:
                size = chi - clo  # every child subtree of w[:n-k] has this size
                top = _top_offsets(out_r - k - 1, out_r + k - 1)
                for base in chain(range(ulo + 1, clo, size), range(chi, uhi, size)):
                    level += map(base.__add__, top)
            h = dst[k + 1][0] - dst[k][0]
            idx += level[:h]
            tails[:0] = level[h:]
        idx += tails
        # itemgetter of one index returns the value itself, not a tuple
        mid = itemgetter(*idx)(values) if len(idx) > 1 else [values[i] for i in idx]
        fx = values[lo]
        return tuple(map(sub, chain(
            values[lo:lo + cp], mid, values[lo + cp:lo + cp + len(out_ball) - cq]),
            repeat(fx)))

    @staticmethod
    def token(obj):
        if not isinstance(obj, str):
            raise MalformedSpec(f"free-2 element must be a string, got {obj!r}")
        for c in obj:
            if c not in _FREE_INVERSE:
                raise MalformedSpec(f"bad letter {c!r} in word {obj!r}")
        for p, q in zip(obj, obj[1:]):
            if q == _FREE_INVERSE[p]:
                raise MalformedSpec(f"word {obj!r} is not reduced")
        return obj


FAMILIES = {
    "integers": Integers,
    "integers-times-cyclic": IntegersTimesCyclic,
    "infinite-dihedral": InfiniteDihedral,
    "integer-lattice-2d": IntegerLattice2D,
    "free-2": Free2,
}


@dataclass(frozen=True)
class GroupSpec:
    """A built-in family plus a finite symmetric generating set."""

    family: str
    generators: tuple | None = None
    modulus: int | None = None

    def resolve(self):
        family = FAMILIES.get(self.family) if isinstance(self.family, str) else None
        if family is None:
            raise MalformedSpec(
                f"unknown family {self.family!r}; expected one of {tuple(FAMILIES)}")
        if family is IntegersTimesCyclic:
            return family(self.modulus or 0)
        if self.modulus is not None:
            raise MalformedSpec(f"family {self.family!r} reads no modulus")
        return family()


class CayleyGraph(RootedGraph):
    """Cayley graph rooted at the identity; neighbors of x are x*s.

    :meth:`metric_from` gives every distance and :meth:`busemann_row` every
    Busemann value, both read from one row that the constructor picks once;
    only a ``reach`` walk on a custom generating set has its own read.
    On the standard generating set the row is the family's ``metric_row``,
    one comprehension over the targets, and ``exact_distance`` reads it one
    target at a time; a family with a layout of its whole sorted balls
    (free-2's ``busemann_row``) reads that instead when the targets are the
    graph's stored ball B_R.  Free-2 also has a closed-form gather for
    :func:`act` (``Free2.act_row``, kept in ``act_row``), which act uses on
    maps whose domain is the graph's stored ball B_r.  On a custom
    generating set ``exact_distance`` and ``act_row`` are None, and the row
    is :meth:`busemann_row`'s read of word lengths: the graph is
    vertex-transitive, so d(z, y) = |z^-1 y|, read from the graph's one
    memo, the BFS ball about the identity, which grows layer by layer as
    deeper words are read.  No BFS runs from any other source.  The budget
    bounds the ball a read needs: reading a word of length R raises
    BudgetExhausted when |B_R| > budget, whatever the memo already holds.
    """

    exact_distance = act_row = None

    def __init__(self, group, generators):
        self.group = group
        self.generators = gens = tuple(sorted(generators))
        mul = group.mul
        super().__init__(lambda x: [mul(x, s) for s in gens], group.identity)
        if gens != tuple(sorted(group.default_generators())):
            return
        metric_row, o = group.metric_row, (group.identity,)
        layout = getattr(group, "busemann_row", None)
        balls, depth = self._balls, self._depth

        def row(z, targets, budget):
            # a stored ball B_R is found by identity, under the depth R of
            # its greatest element
            if layout and targets and balls.get(depth.get(targets[-1])) is targets:
                return layout(z, targets)
            base, = metric_row(z, o)
            return base, metric_row(z, targets, base)
        self.busemann_row = row
        self.exact_distance = lambda x, y: metric_row(x, (y,))[0]
        self.act_row = getattr(group, "act_row", None)

    def metric_from(self, z, budget, *, reach=None, targets=None):
        """u -> d(z, u): ``exact_distance`` when set.  Otherwise |z^-1 u| from
        the ball memo, which needs ``reach`` or ``targets``: with ``reach``,
        every u, reading reach + 1 beyond it; with ``targets``, the targets
        only, looked up in the row :meth:`busemann_row` from the identity
        over the words z^-1 t, so each read is bounded as that row bounds it."""
        if self.exact_distance is not None:
            return partial(self.exact_distance, z)
        mul, zinv = self.group.mul, self.group.inv(z)
        if reach is not None:
            self._ensure_layers(reach, budget)
            depth, far = self._depth, reach + 1

            def dist(u):
                d = depth.get(mul(zinv, u), far)
                return d if d <= reach else far
            return dist
        targets = tuple(targets)
        _, row = self.busemann_row(
            self.basepoint, [mul(zinv, t) for t in targets], budget)
        return dict(zip(targets, row)).__getitem__

    def busemann_row(self, z, targets, budget):
        """(|z|, the values |z^-1 y| - |z| for y in ``targets``), read from
        the ball memo; on the standard generators the constructor replaces
        it.  Words no longer than ``fits`` need no budget check, as
        |B_fits| <= budget; a longer or unread word grows the memo."""
        zinv, mul, get = self.group.inv(z), self.group.mul, self._depth.get
        fits = bisect_right(self._ball_sizes, budget) - 1
        far = fits + 1
        base = d if (d := get(z, far)) <= fits else self._word_length(z, budget)
        return base, tuple([
            (d if (d := get(w := mul(zinv, y), far)) <= fits
             else self._word_length(w, budget)) - base for y in targets])

    def _word_length(self, w, budget) -> int:
        """|w|, growing the memo as far as needed; BudgetExhausted when
        |B_|w|| > budget."""
        while w not in self._depth:
            r = len(self._layers)
            self._ensure_layers(r, budget)
            if not self._layers[r]:
                raise BudgetExhausted(f"{w!r} is not reachable from the identity")
        d = self._depth[w]
        self._ensure_layers(d, budget)
        return d


def cayley_graph(spec: GroupSpec, budget: int = DEFAULT_BUDGET) -> CayleyGraph:
    """Build the rooted Cayley graph for a group spec.

    Generators must be closed under inversion and must generate: when a
    custom generating set is supplied, every element of the default-metric
    ball of radius 2 must show up in the custom ball of radius 12
    (GeneratorsDoNotGenerate otherwise).
    """
    group = spec.resolve()
    gens = spec.generators
    if gens is None:
        gens = group.default_generators()
    gens = tuple(sorted({group.token(s) for s in gens}))
    if not gens:
        raise MalformedSpec("empty generating set")
    if group.identity in gens:
        raise MalformedSpec("identity cannot be a generator")
    if {group.inv(s) for s in gens} != set(gens):
        raise MalformedSpec("generating set is not closed under inversion")
    g = CayleyGraph(group, gens)
    if g.exact_distance is None:
        # the default ball B_2: products of two of the identity and the
        # default generators
        unit = (group.identity, *group.default_generators())
        small = sorted({group.mul(s, t) for s in unit for t in unit})
        ld = layer_decomposition(g, 12, budget)
        missing = [v for v in small if v not in ld]
        if missing:
            raise GeneratorsDoNotGenerate(
                f"{len(missing)} small element(s) missing from B_12, "
                f"e.g. {missing[0]!r}")
    return g


# ---------------------------------------------------------------------------
# the action


def act(x, f: ValueMap, g: CayleyGraph, budget: int = DEFAULT_BUDGET) -> ValueMap:
    """x.f(y) = f(x^-1 y) - f(x^-1), restricted to the ball of radius
    f.radius - |x| so every lookup stays inside f's domain.

    x must be a group element in normal form (MalformedSpec otherwise).
    When ``f.domain`` is the graph's stored sorted ball B_{f.radius}, as for
    every Busemann table and every output of act, a graph with a closed-form
    gather (``act_row``; free-2 on its standard generators) reads f by
    preorder offsets.  Otherwise each f(x^-1 y) is found by bisecting f's
    sorted domain (:meth:`ValueMap.index`); no dict of f is built."""
    if not isinstance(g, CayleyGraph):
        raise TypeError("act requires a Cayley graph")
    if f.radius is None:
        raise ValueError("value map must carry its domain radius")
    group = g.group
    x = group.token(x)
    word_len = distance(g, g.basepoint, x, budget=budget)
    if word_len > f.radius:
        raise DomainTooSmall(
            f"|x| = {word_len} exceeds the map's domain radius {f.radius}")
    out_r = f.radius - word_len
    ball = layer_decomposition(g, out_r, budget).ball()
    if g.act_row is not None and g._balls.get(f.radius) is f.domain:
        return ValueMap(ball, g.act_row(x, f.values, f.domain, ball), radius=out_r)
    index, values, mul = f.index, f.values, group.mul
    xinv = group.inv(x)
    try:
        fx = values[index(xinv)]
    except KeyError:
        raise DomainTooSmall(f"f is not defined at x^-1 = {xinv!r}") from None
    try:
        out = tuple([values[index(mul(xinv, y))] - fx for y in ball])
    except KeyError as missing:
        raise DomainTooSmall(f"f is not defined at {missing.args[0]!r}") from None
    return ValueMap(ball, out, radius=out_r)


# ---------------------------------------------------------------------------
# orbits and homomorphisms


@dataclass(frozen=True)
class OrbitResult:
    """A finite invariant set of restrictions, the generator action on it,
    and sampled stabilizer/coset data for the chosen least element."""

    members: tuple[ValueMap, ...]
    action_table: tuple[tuple[Any, tuple[int, ...]], ...]  # (generator, row)
    fixed: ValueMap
    orbit: tuple[ValueMap, ...]
    stabilizer_sample: tuple
    index_estimate: int
    radius: int
    images: tuple[tuple[Any, int], ...] = field(repr=False)  # x -> member index of x.fixed


def orbit_analysis(g: CayleyGraph, horos, R: int,
                   budget: int = DEFAULT_BUDGET) -> OrbitResult:
    """Action table of the generators on a finite set of restrictions, plus
    stabilizer and coset census of the least member over the ball B_R.

    The set must be closed under the generator action up to restriction
    (produced by enumerate_horofunction_restrictions with radius > R);
    NotInvariant is raised when a generator image matches no member, matches
    ambiguously, or fails to permute the set.
    """
    members = tuple(sorted(set(horos)))
    if not members:
        raise ValueError("empty set of restrictions")
    radii = {f.radius for f in members}
    if len(radii) != 1 or None in radii:
        raise ValueError("members must share one domain radius")
    r = radii.pop()
    if r < max(R, 1):
        raise ValueError(f"member radius {r} too small for ball R={R}")

    inner = layer_decomposition(g, r - 1, budget).ball()
    fingerprint = {}
    for i, f in enumerate(members):
        fp = f.restrict(inner)
        if fp in fingerprint:
            raise NotInvariant(
                "two members agree on the common domain; increase the radius")
        fingerprint[fp] = i

    rows = []
    for s in g.generators:
        row = []
        for f in members:
            image = act(s, f, g, budget)
            idx = fingerprint.get(image)
            if idx is None:
                raise NotInvariant(
                    f"generator {s!r} maps a member outside the set "
                    "(radius too small or set incomplete)")
            row.append(idx)
        if len(set(row)) != len(members):
            raise NotInvariant(f"generator {s!r} does not permute the set")
        rows.append((s, tuple(row)))
    table = dict(rows)

    # walk B_R through the action table: (p*s).f = p.(s.f)
    ld = layer_decomposition(g, R, budget)
    perms: dict[Any, tuple[int, ...]] = {g.basepoint: tuple(range(len(members)))}
    for depth in range(1, R + 1):
        for v in ld.layers[depth]:
            prev = min(u for u in g.neighbors(v) if u in ld and ld.depth_of(u) == depth - 1)
            s = g.group.mul(g.group.inv(prev), v)
            ps, pp = table[s], perms[prev]
            perms[v] = tuple(pp[ps[i]] for i in range(len(members)))

    images = {x: perm[0] for x, perm in perms.items()}
    stab = tuple(sorted(x for x, i in images.items() if i == 0))
    orbit_idx = sorted(set(images.values()))
    return OrbitResult(
        members=members, action_table=tuple(rows), fixed=members[0],
        orbit=tuple(members[i] for i in orbit_idx),
        stabilizer_sample=stab, index_estimate=len(orbit_idx), radius=R,
        images=tuple(sorted(images.items())))


@dataclass(frozen=True)
class HomomorphismWitness:
    """Sampled evidence that the fixed restriction is a homomorphism to the
    integers on its stabilizer, with nontrivial image of gcd d."""

    base: ValueMap
    sampled_values: tuple[tuple[Any, int], ...]
    image_gcd: int
    coset_shifts: tuple[tuple[Any, int], ...]
    kernel_sample: tuple


def extract_homomorphism(orb: OrbitResult, g: CayleyGraph,
                         budget: int = DEFAULT_BUDGET) -> HomomorphismWitness:
    """Verify additivity f(hx) = f(h) + f(x) for every sampled stabilizer
    element h and every x in B_R with hx inside f's domain, compute the gcd
    of the sampled stabilizer values, and emit the per-coset shift table."""
    f = orb.fixed
    fd = f.as_dict()
    group = g.group
    ball = layer_decomposition(g, orb.radius, budget).ball()
    for h in orb.stabilizer_sample:
        fh = fd[h]
        for x in ball:
            p = group.mul(h, x)
            if p in fd and fd[p] != fh + fd[x]:
                raise AdditivityViolation(
                    f"f({h!r}*{x!r}) = {fd[p]} but f(h)+f(x) = {fh + fd[x]}; "
                    "the fixed map is not truly fixed (upstream approximation)")
    values = {h: fd[h] for h in orb.stabilizer_sample}
    d = 0
    for v in values.values():
        d = gcd(d, abs(v))
    if d == 0:
        raise TrivialImage(
            "all sampled stabilizer values are zero (radius or ball too small)")

    img = dict(orb.images)
    classes: dict[int, list] = {}
    for x in ball:
        classes.setdefault(img[group.inv(x)], []).append(x)
    shifts = {min(xs): fd[min(xs)] for xs in classes.values()}
    kernel = tuple(h for h, v in sorted(values.items()) if v == 0)
    return HomomorphismWitness(
        base=f, sampled_values=tuple(sorted(values.items())), image_gcd=d,
        coset_shifts=tuple(sorted(shifts.items())), kernel_sample=kernel)
