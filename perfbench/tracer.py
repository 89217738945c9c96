"""Outside-in tracer: wraps the public functions of each horoscope module and
records a span per call, without touching the program's source.

A function imported elsewhere with ``from ... import`` lives on in the
importing module's namespace, so after wrapping a function the tracer
rebinds every module attribute that still refers to the original.
``RootedGraph.neighbors`` is counted at the class level, and the
``exact_distance`` metric of each Cayley graph built while tracing (or
passed to ``count_exact``) is counted per call.  ``uninstall`` restores
every patched name, and the metric of every graph still alive.

Spans are kept in memory as (name, start, end, parent, job) tuples, where
parent is the index of the enclosing span or -1; ``write_spans`` writes
them out when the run ends.  Self time is a span's duration minus the
durations of its direct children (calls are nested, never concurrent).
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
import weakref


# (module, function, how to read the size of the result or None)
WRAPPED = [
    ("cli", "main", None),
    ("cli", "render", len),
    ("specs", "object_from_spec", None),
    ("specs", "valuemap_jsonable", None),
    ("graphs", "layer_decomposition", None),
    ("graphs", "enumerate_horofunction_restrictions", None),
    ("graphs", "busemann", lambda table: len(table.values.domain)),
    ("graphs", "distance", None),
    ("graphs", "reroot_ray", None),
    ("cayley", "cayley_graph", None),
    ("cayley", "act", lambda vm: len(vm.domain)),
    ("cayley", "orbit_analysis", None),
    ("cayley", "extract_homomorphism", None),
    ("npartite", "build_layered", None),
    ("npartite", "monotone_cover", None),
    ("npartite", "prune_to_spanning", None),
    ("npartite", "partition_by_matchings", None),
    ("npartite", "spanning_intersection_minima", None),
    ("matching", "matching_or_violator", None),
]

_MARK = "__perfbench_traced__"


class Tracer:
    def __init__(self):
        self.spans: list = []
        # name -> [calls, self seconds, points]
        self.stats: dict[str, list] = {f"{m}.{f}": [0, 0.0, 0]
                                       for m, f, _ in WRAPPED}
        self.neighbors_calls = 0
        self.exact_distance_calls = 0
        self.matched = 0
        self.job = None
        self._stack: list = []
        self._patched: list = []
        self._graphs = weakref.WeakSet()   # graphs whose metric is counted

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn, size):
        spans, stack, st = self.spans, self._stack, self.stats[name]
        is_matching = name == "matching.matching_or_violator"
        matching_type = sys.modules["horoscope.matching"].Matching

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            frame = [0.0, len(spans)]
            spans.append(None)
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                spans[frame[1]] = (name, t0, t1, parent, self.job)
                st[0] += 1
                st[1] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
            if size is not None:
                st[2] += size(result)
            if is_matching and isinstance(result, matching_type):
                self.matched += 1
            if name == "cayley.cayley_graph":
                self.count_exact(result)
            return result

        setattr(traced, _MARK, True)
        return traced

    def count_exact(self, g):
        """Count calls to g's exact metric until uninstall()."""
        exact = g.exact_distance
        if exact is None or g in self._graphs:
            return

        def counted(x, y):
            self.exact_distance_calls += 1
            return exact(x, y)

        counted.__wrapped__ = exact
        setattr(counted, _MARK, True)
        g.exact_distance = counted
        self._graphs.add(g)

    def install(self):
        import horoscope.graphs as graphs

        modules = [m for n, m in sys.modules.items()
                   if n == "horoscope" or n.startswith("horoscope.")]
        for mod_name, fn_name, size in WRAPPED:
            original = getattr(sys.modules[f"horoscope.{mod_name}"], fn_name)
            traced = self._wrap(f"{mod_name}.{fn_name}", original, size)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, traced)

        neighbors = graphs.RootedGraph.neighbors

        def counted_neighbors(g, v):
            self.neighbors_calls += 1
            return neighbors(g, v)

        setattr(counted_neighbors, _MARK, True)
        self._patched.append((graphs.RootedGraph, "neighbors", neighbors))
        graphs.RootedGraph.neighbors = counted_neighbors

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        for g in list(self._graphs):
            g.exact_distance = g.exact_distance.__wrapped__
        self._graphs = weakref.WeakSet()

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for name, (calls, self_s, points) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            out[f"{name}.points"] = points
        out["graphs.neighbors.calls"] = self.neighbors_calls
        out["graphs.exact_distance.calls"] = self.exact_distance_calls
        calls = self.stats["matching.matching_or_violator"][0]
        out["matching.matched_ratio"] = self.matched / calls if calls else 0.0
        out["cli.report_bytes"] = self.stats["cli.render"][2]
        return out

    def write_spans(self, path):
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def leftover_patches() -> list[str]:
    """Names in horoscope modules that still refer to a tracer wrapper."""
    import horoscope.graphs as graphs

    found = [f"{n}.{attr}" for n, mod in list(sys.modules.items())
             if n == "horoscope" or n.startswith("horoscope.")
             for attr, value in vars(mod).items()
             if getattr(value, _MARK, False)]
    if getattr(graphs.RootedGraph.neighbors, _MARK, False):
        found.append("RootedGraph.neighbors")
    return found
