"""Bipartite maximum matching with Hall violator certificates.

Deterministic augmenting-path (Kuhn) matching over canonically sorted
vertices: identical inputs give identical matchings, which the regression
tests rely on.  When no perfect matching exists, a Hall certificate is
extracted: a left subset Y whose neighborhood is strictly smaller than Y.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .errors import UnequalLayers


@dataclass(frozen=True)
class Matching:
    """A perfect matching, stored left -> right."""

    pairs: tuple[tuple[Any, Any], ...]

    def as_dict(self):
        return dict(self.pairs)


@dataclass(frozen=True)
class HallViolator:
    """Left subset Y with |N(Y)| < |Y|, certifying no perfect matching."""

    subset: tuple[Any, ...]
    neighborhood: tuple[Any, ...]


def maximum_matching(left, adjacency) -> dict:
    """Maximum matching via augmenting paths; returns left -> right pairs.

    Kuhn's depth-first search from each left vertex in sorted order, run on
    an explicit stack of [u, neighbor iterator, chosen v] frames, so that
    augmenting paths may be longer than Python's recursion limit.
    ``seen`` is cleared only after an augmentation: a failed search leaves
    the matching unchanged, so the right vertices it visited still reach no
    free vertex, and a later search entering one could only fail there.
    Skipping them keeps the order of the live tries, hence the matching.
    """
    match_left: dict = {}
    match_right: dict = {}
    seen: set = set()
    for root in sorted(left):
        stack = [[root, iter(adjacency.get(root, ())), None]]
        while stack:
            frame = stack[-1]
            for v in frame[1]:
                if v not in seen:
                    seen.add(v)
                    frame[2] = v
                    break
            else:
                stack.pop()             # u has no augmenting path left
                continue
            if v in match_right:
                u = match_right[v]
                stack.append([u, iter(adjacency.get(u, ())), None])
                continue
            for u, _, w in reversed(stack):    # flip the path, innermost first
                match_left[u] = w
                match_right[w] = u
            seen = set()
            break
    return match_left


def matching_or_violator(left, right, adjacency):
    """Perfect matching between equal-size sides, or a Hall certificate.

    ``adjacency`` maps left vertices to iterables of right vertices.  Returns
    either a :class:`Matching` or a :class:`HallViolator` whose subset is the
    set of left vertices reachable by alternating paths from the least
    unmatched one (so |N(Y)| = |Y| - 1).  Raises UnequalLayers when the
    sides differ in size.
    """
    left = sorted(left)
    right = sorted(right)
    if len(left) != len(right):
        raise UnequalLayers(
            f"sides must have equal cardinality, got {len(left)} and {len(right)}")
    adj = {u: tuple(sorted(set(adjacency.get(u, ())))) for u in left}
    match_left = maximum_matching(left, adj)
    if len(match_left) == len(left):
        return Matching(tuple(sorted(match_left.items())))
    match_right = {v: u for u, v in match_left.items()}
    start = min(u for u in left if u not in match_left)
    # the matching is maximum, so every v reached is matched (else an
    # augmenting path exists) and adds its own partner: |ys| = |nbhd| + 1
    ys = {start}
    nbhd: set = set()
    frontier = [start]
    while frontier:
        u = frontier.pop()
        for v in adj[u]:
            if v in nbhd:
                continue
            nbhd.add(v)
            w = match_right.get(v)
            if w is not None and w not in ys:
                ys.add(w)
                frontier.append(w)
    return HallViolator(tuple(sorted(ys)), tuple(sorted(nbhd)))
