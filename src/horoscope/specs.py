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
a tuple is written as an array, byte for byte the same as a list.  The JSON
layout is exactly ``json.dumps(obj, sort_keys=True, indent=2)``; ``to_json``
writes it with one format call per array of ints or of value-map items, and
``test_to_json_matches_json_dumps`` in tests/test_specs_cli.py checks it.
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii
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
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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


# ---------------------------------------------------------------------------
# JSON text


def to_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte: dicts
    and mixed lists are walked here, leaf arrays formatted in bulk by
    ``_leaf_array``."""
    return _encode(obj, "\n")


def _encode(o, nl: str) -> str:
    # ``nl`` is the newline and indent before the closing bracket of ``o``
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None or o is True or o is False or isinstance(o, float):
        return json.dumps(o)
    if isinstance(o, int):
        return int.__repr__(o)
    inner = nl + "  "
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        body = _leaf_array(o, inner)
        if body is None:
            body = ("," + inner).join([_encode(v, inner) for v in o])
        return "[" + inner + body + nl + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        return "{" + inner + ("," + inner).join(
            [_key(k) + ": " + _encode(v, inner) for k, v in sorted(o.items())]
        ) + nl + "}"
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _key(k) -> str:
    if k is not None and not isinstance(k, (str, int, float)):
        raise TypeError(f"keys must be str, int, float, bool or None, "
                        f"not {k.__class__.__name__}")
    return encode_basestring_ascii(k if isinstance(k, str) else _encode(k, ""))


def _leaf_array(arr, nl: str) -> str | None:
    """The items of ``arr``, each after ``nl``, joined by commas, or None if
    ``arr`` is not a leaf array.  The shape is told by a type census of the
    whole array (exact types, so a bool never passes as an int); the items
    are then one template repeated, formatted over the flattened scalars."""
    kinds = set(map(type, arr))
    if kinds == {int}:
        item, scalars = "%d", arr
    elif kinds <= {list, tuple} and set(map(len, arr)) == {2}:
        tokens, values = zip(*arr)
        if set(map(type, values)) != {int}:
            return None
        kinds = set(map(type, tokens))
        deep = nl + "  "
        if kinds == {int}:
            token, scalars = "%d", chain.from_iterable(arr)
        elif kinds == {str}:
            token = "%s"
            scalars = chain.from_iterable(zip(map(encode_basestring_ascii, tokens), values))
        elif kinds <= {list, tuple} and set(map(len, tokens)) == {2}:
            firsts, seconds = zip(*tokens)
            if set(map(type, firsts)) | set(map(type, seconds)) != {int}:
                return None
            deeper = deep + "  "
            token = "[" + deeper + "%d," + deeper + "%d" + deep + "]"
            scalars = chain.from_iterable(zip(firsts, seconds, values))
        else:
            return None
        item = "[" + deep + token + "," + deep + "%d" + nl + "]"
    else:
        return None
    return ("," + nl).join([item] * len(arr)) % tuple(scalars)
