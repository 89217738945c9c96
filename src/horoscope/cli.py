"""Command line front end: reproducible experiments over JSON input specs.

    horoscope {growth,horo,cover,orbit,reroot} INPUT.json
        [--radius r] [--depth N] [--window W] [--ball R] [--format json|csv]
        [--budget B] [--seed S] [--out PATH]

One option set serves all five commands, and each reads the options it
uses; --ball defaults to 12 for growth and 8 otherwise.  The JSON input
file (graph, group, or layered spec, discriminated by "kind") is loaded
once and must build the object its command needs (see ``COMMANDS``).
Reports go to --out or stdout as JSON (default) or CSV, versioned with a
"schema": "horoscope/1" field.  Identical configurations produce
byte-identical reports.

Exit codes: 0 success, 2 usage, 3 malformed spec (or an unwritable --out),
4 budget exhausted, 5 structural precondition failed, 6 ray errors,
7 invariance violations.
"""

from __future__ import annotations

import argparse
import random
import sys

from .cayley import CayleyGraph, extract_homomorphism, orbit_analysis
from .errors import BudgetExhausted, HoroscopeError, MalformedSpec, PrefixTooShort, RayNotExtendable
from .graphs import (
    RECURRENCE_THRESHOLD,
    RootedGraph,
    distance,  # noqa: F401  (perfbench's tracer test reads cli.distance)
    enumerate_horofunction_restrictions,
    extend_ray,
    layer_decomposition,
    recurring_sphere_size,
    reroot_ray,
)
from .npartite import LayeredGraph, monotone_cover, spanning_intersection_minima
from .specs import (
    SCHEMA,
    cover_jsonable,
    load_spec,
    object_from_spec,
    orbit_jsonable,
    to_json,
    valuemap_jsonable,
    witness_hom_jsonable,
)

LINEAR_TOLERANCE = 2       # |B_R| <= tolerance * k * R for linear candidates


def validate(args: argparse.Namespace) -> None:
    for name in ("radius", "window", "ball", "budget"):
        if getattr(args, name) <= 0:
            raise MalformedSpec(f"--{name} must be positive")
    if args.depth is not None:
        if args.depth <= 0:
            raise MalformedSpec("--depth must be positive")
        if args.command == "horo" and args.window >= args.depth:
            raise MalformedSpec("--window must be smaller than --depth")


def _enumeration_depth(args: argparse.Namespace, r: int) -> int:
    """--depth, 4r by default, raised to the least depth the sphere-window
    enumeration accepts at radius r, 2r + 1."""
    return max(args.depth if args.depth is not None else 4 * r, 2 * r + 1)


# ---------------------------------------------------------------------------
# commands


def growth_report(g: RootedGraph, radius: int, budget: int) -> dict:
    sizes = []
    truncated = False
    for r in range(radius + 1):
        try:
            ld = layer_decomposition(g, r, budget)
        except BudgetExhausted:
            truncated = True
            break
        sizes.append(len(ld.layers[r]))
    r_eff = len(sizes) - 1
    ball_sizes = []
    total = 0
    for s in sizes:
        total += s
        ball_sizes.append(total)
    k = recurring_sphere_size(sizes)
    linear = (k is not None and r_eff >= 1
              and ball_sizes[-1] <= LINEAR_TOLERANCE * k * r_eff)
    return {
        "radius": r_eff,
        "truncated": truncated,
        "sphere_sizes": sizes,
        "ball_sizes": ball_sizes,
        "k": k,
        "recurring_radii": ([r for r in range(1, r_eff + 1) if sizes[r] == k]
                            if k is not None else []),
        "fitted_c": (round(ball_sizes[-1] / r_eff, 3) if r_eff >= 1 else None),
        "recurrence_threshold": RECURRENCE_THRESHOLD,
        "verdict": "linear-candidate" if linear else "not-linear",
    }


def cmd_growth(g: RootedGraph, args: argparse.Namespace) -> dict:
    return growth_report(g, args.ball, args.budget)


def cmd_horo(g: RootedGraph, args: argparse.Namespace) -> dict:
    per_radius = []
    counts = []
    for r in range(1, args.radius + 1):
        depth = _enumeration_depth(args, r)
        maps = enumerate_horofunction_restrictions(g, r, depth, args.window,
                                                   budget=args.budget)
        counts.append(len(maps))
        per_radius.append({
            "r": r, "depth": depth, "count": len(maps),
            "maps": [valuemap_jsonable(m) for m in maps]})
    tail = counts[len(counts) // 2:]
    return {
        "window": args.window,
        "per_radius": per_radius,
        "counts": counts,
        "stable_tail": len(set(tail)) == 1,
    }


def cmd_cover(lg: LayeredGraph, args: argparse.Namespace) -> dict:
    res = monotone_cover(lg)
    report = cover_jsonable(res)
    minima = spanning_intersection_minima(lg, res.paths) if lg.k <= 6 else {}
    if minima:
        report["verification"] = {"depths": list(minima), "minima": list(minima.values())}
    else:
        report["verification"] = {
            "skipped": True,
            "note": "layers too large for exhaustive verification"
                    if lg.k > 6 else "truncation shallower than check depths",
        }
    return report


def cmd_orbit(g: CayleyGraph, args: argparse.Namespace) -> dict:
    growth = growth_report(g, max(args.ball, 12), args.budget)
    r_enum = max(args.radius, args.ball + 4)
    depth = _enumeration_depth(args, r_enum)
    horos = enumerate_horofunction_restrictions(g, r_enum, depth, args.window,
                                                budget=args.budget)
    orb = orbit_analysis(g, horos, args.ball, budget=args.budget)
    wit = extract_homomorphism(orb, g, budget=args.budget)
    report = {
        "growth_verdict": growth["verdict"],
        "enumeration": {"radius": r_enum, "depth": depth,
                        "count": len(horos)},
        "orbit": orbit_jsonable(orb),
        "witness": witness_hom_jsonable(wit),
    }
    if growth["verdict"] != "linear-candidate":
        report["warning"] = "growth verdict is not linear; finiteness not expected"
    return report


def cmd_reroot(g: RootedGraph, args: argparse.Namespace) -> dict:
    rng = random.Random(args.seed)
    length = args.depth if args.depth is not None else 30
    ball = layer_decomposition(g, args.ball, args.budget).ball()
    results = []
    count = 100
    for i in range(count):
        start = rng.choice(ball)
        try:
            ray = extend_ray(g, (start,), length, args.budget, rng.choice)
            n0, rerooted = reroot_ray(g, ray, args.budget)
        except RayNotExtendable:
            results.append({"start": start, "skipped": True})
            continue
        except PrefixTooShort:
            results.append({"start": start, "unsettled": True})
            continue
        dist_o = g.metric_from(g.basepoint, args.budget, targets=rerooted)
        geodesic_ok = all(dist_o(v) == i for i, v in enumerate(rerooted))
        agrees = rerooted[-(length - n0 + 1):] == ray[n0:] if n0 < length else True
        results.append({
            "start": start,
            "N": n0,
            "geodesic_ok": geodesic_ok,
            "agrees_from_N": bool(agrees),
        })
    done = [x for x in results if "N" in x]     # neither skipped nor unsettled
    return {
        "prefix_length": length,
        "count": count,
        "seed": args.seed,
        "results": results,
        "all_ok": all(x["geodesic_ok"] and x["agrees_from_N"] for x in done),
    }


# command -> (its function, the object its spec must build, its purpose)
COMMANDS = {
    "growth": (cmd_growth, RootedGraph, "sphere census and linear-growth verdict"),
    "horo": (cmd_horo, RootedGraph, "horofunction restriction counts per radius"),
    "cover": (cmd_cover, LayeredGraph, "monotone path cover of a layered graph"),
    "orbit": (cmd_orbit, CayleyGraph, "orbit, stabilizer and homomorphism witness"),
    "reroot": (cmd_reroot, RootedGraph,
               "reroot random geodesic prefixes to the basepoint"),
}


# ---------------------------------------------------------------------------
# rendering


def _csv_rows(command: str, report: dict):
    if command == "growth":
        yield ("r", "sphere_size", "ball_size")
        for r, (s, b) in enumerate(zip(report["sphere_sizes"],
                                       report["ball_sizes"])):
            yield (r, s, b)
        yield ("verdict", report["verdict"], report["k"])
    elif command == "horo":
        yield ("r", "count")
        for row in report["per_radius"]:
            yield (row["r"], row["count"])
        yield ("stable_tail", report["stable_tail"], "")
    elif command == "cover":
        yield ("key", "value")
        yield ("k", report["k"])
        yield ("approximate", report["approximate"])
        ver = report["verification"]
        for d, m in zip(ver.get("depths", []), ver.get("minima", [])):
            yield (f"minimum_depth_{d}", m)
    elif command == "orbit":
        yield ("key", "value")
        yield ("growth_verdict", report["growth_verdict"])
        yield ("count", report["enumeration"]["count"])
        yield ("index_estimate", report["orbit"]["index_estimate"])
        yield ("image_gcd", report["witness"]["image_gcd"])
        yield ("kernel_sample_size", report["witness"]["kernel_sample_size"])
    elif command == "reroot":
        yield ("index", "N", "geodesic_ok", "agrees_from_N")
        for i, row in enumerate(report["results"]):
            if "N" in row:
                yield (i, row["N"], row["geodesic_ok"], row["agrees_from_N"])
            else:
                yield (i, "skipped" if row.get("skipped") else "unsettled", "", "")
    else:  # pragma: no cover
        raise AssertionError(command)


def render(command: str, report: dict, fmt: str) -> str:
    if fmt == "json":
        return to_json({"schema": SCHEMA, "command": command, **report}) + "\n"
    lines = [f"# schema={SCHEMA}"]
    for row in _csv_rows(command, report):
        lines.append(",".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="horoscope",
        description="horofunction boundary experiments on graphs of linear growth",
        epilog="commands:\n" + "\n".join(
            f"  {name:<8}{purpose}" for name, (_, _, purpose) in COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("input", help="JSON spec file")
    parser.add_argument("--radius", type=int, default=8)
    parser.add_argument("--depth", type=int, default=None)
    parser.add_argument("--window", type=int, default=8)
    parser.add_argument("--ball", type=int, default=None,
                        help="default 12 for growth, 8 otherwise")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--budget", type=int, default=1_000_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    run, needs, _ = COMMANDS[args.command]
    if args.ball is None:
        args.ball = 12 if args.command == "growth" else 8
    try:
        validate(args)
        spec = load_spec(args.input)
        obj = object_from_spec(spec)
        if not isinstance(obj, needs):
            raise MalformedSpec(f"spec kind {spec['kind']!r} builds a "
                                f"{type(obj).__name__}, not a {needs.__name__}")
        text = render(args.command, run(obj, args), args.format)
        if args.out:
            try:
                with open(args.out, "w") as fh:
                    fh.write(text)
            except OSError as exc:
                raise MalformedSpec(f"cannot write {args.out}: {exc.strerror}") from exc
        else:
            sys.stdout.write(text)
    except HoroscopeError as exc:
        print(f"horoscope {args.command}: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
