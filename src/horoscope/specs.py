"""Input spec parsing and JSON serialization of results.

One JSON file describes one object, discriminated by "kind":

    {"kind": "cayley", "family": "integers", "generators": [1, -1]}
    {"kind": "cayley", "family": "integers-times-cyclic", "modulus": 2}
    {"kind": "explicit", "vertices": [...], "edges": [[u, v], ...],
     "basepoint": u}
    {"kind": "layered", ...}   (see npartite.build_layered)

Emitted reports are versioned with "schema": "horoscope/1"; group elements
serialize as their normal form (ints, [a, b] pairs, or reduced words) and
value maps as sorted [token, value] arrays.  No conversion layer is needed:
``json`` writes a tuple as an array, byte for byte the same as a list.
"""

from __future__ import annotations

import json
from typing import Any

from .cayley import (
    GroupSpec,
    HomomorphismWitness,
    OrbitResult,
    cayley_graph,
)
from .errors import MalformedSpec
from .graphs import DEFAULT_BUDGET, RootedGraph, ValueMap, explicit_graph
from .npartite import (
    CoverResult,
    HallFailureWitness,
    MonotonePath,
    TraceNode,
    build_layered,
)

SCHEMA = "horoscope/1"


def group_spec_from_dict(spec: dict) -> GroupSpec:
    family = spec.get("family")
    if not isinstance(family, str):
        raise MalformedSpec('cayley spec needs a "family" string')
    gens = spec.get("generators")
    if gens is not None:
        if not isinstance(gens, list):
            raise MalformedSpec('"generators" must be a list of group elements')
        gens = tuple(gens)
    return GroupSpec(family=family, generators=gens, modulus=spec.get("modulus"))


def graph_from_spec(spec: dict, budget: int = DEFAULT_BUDGET) -> RootedGraph:
    kind = spec.get("kind")
    if kind == "cayley":
        return cayley_graph(group_spec_from_dict(spec), budget)
    if kind == "explicit":
        for key in ("vertices", "edges", "basepoint"):
            if key not in spec:
                raise MalformedSpec(f'explicit spec needs "{key}"')
        vertices, edges = spec["vertices"], spec["edges"]
        if not isinstance(vertices, list) or not isinstance(edges, list):
            raise MalformedSpec('explicit "vertices" and "edges" must be lists')
        kinds = {type(v) for v in vertices}
        if len(kinds) > 1 or kinds & {list, dict}:
            raise MalformedSpec("explicit vertices must be scalar tokens of one type")
        return explicit_graph(vertices, edges, spec["basepoint"])
    raise MalformedSpec(f'unknown graph kind {kind!r}')


def load_spec(path: str) -> dict:
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise MalformedSpec(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MalformedSpec(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict) or "kind" not in spec:
        raise MalformedSpec(f'{path} must hold an object with a "kind" field')
    return spec


def object_from_spec(spec: dict, budget: int = DEFAULT_BUDGET):
    """Graph or layered graph, per the spec's kind."""
    if spec.get("kind") == "layered":
        return build_layered(spec)
    return graph_from_spec(spec, budget)


# ---------------------------------------------------------------------------
# result serialization


def valuemap_jsonable(vm: ValueMap):
    return vm.items


def path_jsonable(p: MonotonePath):
    return {"start": p.start, "head": p.head, "cycle": p.cycle}


def witness_jsonable(w: HallFailureWitness):
    return {
        "base_layer": w.base_layer,
        "witness_layers": w.witness_layers,
        "U": w.U,
        "V": {str(m): names for m, names in w.V},
        "sizes": w.sizes,
    }


def trace_jsonable(t: TraceNode):
    out: dict[str, Any] = {"kind": t.kind, "k": t.k}
    if t.selection is not None:
        out["selection"] = t.selection
    if t.witness is not None:
        out["witness"] = witness_jsonable(t.witness)
    if t.v is not None:
        out["v"] = t.v
        out["w"] = t.w
    if t.padded:
        out["padded"] = t.padded
    if t.children:
        out["children"] = [trace_jsonable(c) for c in t.children]
    return out


def cover_jsonable(res: CoverResult):
    return {
        "k": res.k,
        "approximate": res.approximate,
        "paths": [path_jsonable(p) for p in res.paths],
        "trace": trace_jsonable(res.trace),
    }


def orbit_jsonable(orb: OrbitResult):
    member_index = {f: i for i, f in enumerate(orb.members)}
    return {
        "members": [valuemap_jsonable(f) for f in orb.members],
        "action_table": {json.dumps(s): row for s, row in orb.action_table},
        "fixed": valuemap_jsonable(orb.fixed),
        "orbit": [member_index[f] for f in orb.orbit],
        "stabilizer_sample": orb.stabilizer_sample,
        "index_estimate": orb.index_estimate,
        "ball_radius": orb.radius,
    }


def witness_hom_jsonable(w: HomomorphismWitness):
    return {
        "base": valuemap_jsonable(w.base),
        "sampled_values": w.sampled_values,
        "image_gcd": w.image_gcd,
        "coset_shifts": w.coset_shifts,
        "kernel_sample": w.kernel_sample,
        "kernel_sample_size": len(w.kernel_sample),
    }
