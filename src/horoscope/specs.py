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
a tuple is written as an array, byte for byte the same as a list, and a
report holds its ``ValueMap``s as they are.  The JSON layout is exactly
``json.dumps(report, sort_keys=True, indent=2)`` with each map written as its
items array; ``to_json`` writes every value map from one template per ball,
and tests/test_specs_cli.py checks it on generated reports.
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
    refuse_unread_keys,
)

SCHEMA = "horoscope/1"


def group_spec_from_dict(spec: dict) -> GroupSpec:
    refuse_unread_keys(spec, "kind family generators modulus", "cayley spec")
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
        refuse_unread_keys(spec, "kind vertices edges basepoint", "explicit spec")
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


def valuemap_jsonable(vm: ValueMap) -> ValueMap:
    """The map itself: ``to_json`` writes a ``ValueMap`` as its sorted
    [token, value] items array, from one template per ball and indent."""
    return vm


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
    """``json.dumps(obj, sort_keys=True, indent=2)`` with each ``ValueMap``
    replaced by its ``items``, byte for byte: the parts go into one list,
    joined once; leaf arrays are formatted in bulk, each value map from one
    template per (domain, indent) in this call."""
    out: list[str] = []
    _encode(obj, "\n", {}, out)
    return "".join(out)


def _encode(o, nl: str, templates: dict, out: list) -> None:
    # appends the text of ``o`` to ``out``; ``nl`` is the newline and indent
    # before the closing bracket of ``o``; ``templates`` holds each domain
    # beside its template, so no id is reused
    if isinstance(o, str):
        out.append(encode_basestring_ascii(o))
    elif o is None or o is True or o is False or isinstance(o, float):
        out.append(json.dumps(o))
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, (list, tuple)):
        text = _leaf_array(o, nl) if o else "[]"
        if text is not None:
            out.append(text)
            return
        inner = nl + "  "
        sep = "[" + inner
        for v in o:
            out.append(sep)
            _encode(v, inner, templates, out)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k, v in sorted(o.items()):
            out.append(sep + _key(k) + ": ")
            _encode(v, inner, templates, out)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(o, ValueMap):
        key = (id(o.domain), nl)
        if key not in templates:
            templates[key] = (o.domain, _template(o.domain, nl))
        template = templates[key][1]
        if template is None or set(map(type, o.values)) != {int}:
            _encode(o.items, nl, templates, out)
        else:
            out.append(template % tuple(o.values))
    else:
        raise TypeError(
            f"Object of type {o.__class__.__name__} is not JSON serializable")


def _key(k) -> str:
    if k is not None and not isinstance(k, (str, int, float)):
        raise TypeError(f"keys must be str, int, float, bool or None, "
                        f"not {k.__class__.__name__}")
    return encode_basestring_ascii(k if isinstance(k, str) else json.dumps(k))


def _leaf_array(arr, nl: str) -> str | None:
    """The non-empty ``arr`` as an array closed after ``nl``, or None unless it
    holds only ints or only strings.  Censuses read exact types, so a bool
    never passes as an int, nor a str subclass as a str."""
    kinds = set(map(type, arr))
    if kinds == {int}:
        return _repeat("%d", len(arr), arr, nl)
    if kinds == {str}:
        return _repeat("%s", len(arr), map(encode_basestring_ascii, arr), nl)
    return None


def _template(tokens, nl: str) -> str | None:
    """The items array of a map on ``tokens`` closed after ``nl``, with a
    ``%d`` hole per value, or None unless the tokens are all ints, all strings
    or all int pairs; a ``%`` in a string token is doubled to stay text."""
    kinds = set(map(type, tokens))
    inner = nl + "  "
    deep = inner + "  "
    if kinds == {int}:
        token, scalars = "%d", tokens
    elif kinds == {str}:
        token = "%s"
        scalars = [encode_basestring_ascii(t).replace("%", "%%") for t in tokens]
    elif kinds <= {list, tuple} and set(map(len, tokens)) == {2}:
        firsts, seconds = zip(*tokens)
        if set(map(type, firsts)) | set(map(type, seconds)) != {int}:
            return None
        deeper = deep + "  "
        token = "[" + deeper + "%d," + deeper + "%d" + deep + "]"
        scalars = chain.from_iterable(tokens)
    else:
        return None
    item = "[" + deep + token + "," + deep + "%%d" + inner + "]"
    return _repeat(item, len(tokens), scalars, nl)


def _repeat(item: str, n: int, scalars, nl: str) -> str:
    """n copies of ``item`` as an array closed after ``nl``, formatted in one
    call over the flattened ``scalars``."""
    inner = nl + "  "
    body = ("," + inner).join([item] * n) % tuple(scalars)
    return f"[{inner}{body}{nl}]"
