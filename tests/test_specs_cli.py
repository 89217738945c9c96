import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import horoscope as h
from conftest import run_threads
from horoscope.cli import build_parser, main
from horoscope.specs import graph_from_spec, load_spec, object_from_spec, to_json


def write_spec(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


Z_SPEC = {"kind": "cayley", "family": "integers"}
LATTICE_SPEC = {"kind": "cayley", "family": "integer-lattice-2d"}
DIHEDRAL_SPEC = {"kind": "cayley", "family": "infinite-dihedral"}
D3_SPEC = {**DIHEDRAL_SPEC, "generators": [[0, 1], [1, 1], [2, 1]]}
EDGE_SPEC = {"kind": "explicit", "vertices": [0, 1], "edges": [[0, 1]],
             "basepoint": 0}
HALL_SPEC = {"kind": "layered",
             "period": {"layers": [["a", "b"]], "edges": []},
             "wrap": [["a", "a"], ["b", "a"]]}
FIVE_LAYER_SPEC = {
    "kind": "layered",
    "layers": [["v0", "v1", "v2", "v3"], ["v0", "v1", "v2"]] + [["v0", "v1", "v2", "v3"]] * 3,
    "edges": [[0, "v1", "v1"], [0, "v2", "v1"], [0, "v2", "v2"], [1, "v0", "v0"],
              [1, "v0", "v1"], [1, "v1", "v3"], [1, "v2", "v0"], [1, "v2", "v2"],
              [2, "v0", "v2"], [2, "v0", "v3"], [2, "v1", "v1"], [2, "v3", "v2"],
              [3, "v0", "v0"], [3, "v1", "v0"], [3, "v2", "v2"]]}
TWO_LAYERS = {"kind": "layered", "layers": [["a"], ["a"]], "edges": [[0, "a", "a"]]}


# ---------------------------------------------------------------- spec loading


def test_graph_from_cayley_spec():
    g = graph_from_spec({"kind": "cayley", "family": "integers-times-cyclic",
                         "modulus": 2, "generators": [[1, 0], [-1, 0], [0, 1]]})
    assert g.basepoint == (0, 0)
    assert g.neighbors((0, 0)) == ((-1, 0), (0, 1), (1, 0))


def test_graph_from_explicit_spec():
    g = graph_from_spec({"kind": "explicit", "vertices": ["p", "q", "r"],
                         "edges": [["p", "q"], ["q", "r"]], "basepoint": "p"})
    assert h.distance(g, "p", "r") == 2


def test_explicit_spec_validation():
    with pytest.raises(h.MalformedSpec):
        graph_from_spec({"kind": "explicit", "vertices": ["p", 1],
                         "edges": [], "basepoint": "p"})
    with pytest.raises(h.MalformedSpec):
        graph_from_spec({"kind": "explicit", "vertices": ["p"],
                         "edges": [["p", "zz"]], "basepoint": "p"})
    with pytest.raises(h.MalformedSpec):
        graph_from_spec({"kind": "wat"})


def test_layered_dispatch():
    lg = object_from_spec(HALL_SPEC)
    assert isinstance(lg, h.LayeredGraph)


def test_load_spec_errors(tmp_path):
    with pytest.raises(h.MalformedSpec):
        load_spec(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(h.MalformedSpec):
        load_spec(str(bad))
    nokind = tmp_path / "nokind.json"
    nokind.write_text("{}")
    with pytest.raises(h.MalformedSpec):
        load_spec(str(nokind))
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b'\xff\xfe{"kind": 1}')
    with pytest.raises(h.MalformedSpec):
        load_spec(str(not_utf8))


# ---------------------------------------------------------------- CLI runs


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_growth_linear(tmp_path, capsys):
    path = write_spec(tmp_path, "z.json", Z_SPEC)
    code, out = run_cli(capsys, "growth", path)
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "horoscope/1"
    assert report["verdict"] == "linear-candidate"
    assert report["k"] == 2
    assert report["sphere_sizes"][1:4] == [2, 2, 2]


def test_cli_growth_superlinear(tmp_path, capsys):
    path = write_spec(tmp_path, "l.json", LATTICE_SPEC)
    code, out = run_cli(capsys, "growth", path)
    assert code == 0
    assert json.loads(out)["verdict"] == "not-linear"


def test_cli_growth_free_group_truncates(tmp_path, capsys):
    path = write_spec(tmp_path, "f.json", {"kind": "cayley", "family": "free-2"})
    code, out = run_cli(capsys, "growth", path, "--ball", "14")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "not-linear"
    assert report["truncated"] is True


def test_cli_growth_budget_truncates_the_report(tmp_path, capsys):
    # |B_1| = 5 fits a budget of 10 and |B_2| = 13 does not
    path = write_spec(tmp_path, "l.json", LATTICE_SPEC)
    code, out = run_cli(capsys, "growth", path, "--budget", "10")
    assert code == 0
    report = json.loads(out)
    assert report["radius"] == 1
    assert report["truncated"] is True
    assert report["sphere_sizes"] == [1, 4]


def test_cli_horo_counts(tmp_path, capsys):
    path = write_spec(tmp_path, "z.json", Z_SPEC)
    code, out = run_cli(capsys, "horo", path, "--radius", "6")
    assert code == 0
    report = json.loads(out)
    assert report["counts"] == [2] * 6
    assert report["stable_tail"] is True
    assert report["per_radius"][0]["maps"] == [
        [[-1, -1], [0, 0], [1, 1]], [[-1, 1], [0, 0], [1, -1]]]


def test_cli_cover(tmp_path, capsys):
    path = write_spec(tmp_path, "hall.json", HALL_SPEC)
    code, out = run_cli(capsys, "cover", path)
    assert code == 0
    report = json.loads(out)
    assert report["k"] == 2
    assert report["trace"]["kind"] == "split"
    assert report["verification"]["minima"] == [10, 20, 40]
    assert [m >= b for m, b in zip(report["verification"]["minima"],
                                   [8, 18, 38])] == [True, True, True]


def test_cli_cover_truncation(tmp_path, capsys):
    spec = {"kind": "layered",
            "layers": [["a", "b"]] * 15,
            "edges": [[j, n, n] for j in range(14) for n in ("a", "b")]}
    path = write_spec(tmp_path, "spines.json", spec)
    code, out = run_cli(capsys, "cover", path)
    assert code == 0
    report = json.loads(out)
    assert report["approximate"] is True
    assert report["k"] == 2
    assert report["verification"]["depths"] == [10]


def test_cli_cover_truncation_paths_span(tmp_path, capsys):
    # v0 of layer 1 has no predecessor, so no spanning path starts at layer 1
    path = write_spec(tmp_path, "five.json", FIVE_LAYER_SPEC)
    code, out = run_cli(capsys, "cover", path)
    assert code == 0
    assert json.loads(out)["paths"] == [
        {"cycle": [], "head": ["v2", "v2", "v0", "v2", "v2"], "start": 0}]


def test_cli_orbit(tmp_path, capsys):
    path = write_spec(tmp_path, "d.json", DIHEDRAL_SPEC)
    code, out = run_cli(capsys, "orbit", path)
    assert code == 0
    report = json.loads(out)
    assert report["growth_verdict"] == "linear-candidate"
    assert "warning" not in report
    assert report["witness"]["image_gcd"] == 2
    assert report["orbit"]["index_estimate"] == 2


def test_cli_orbit_warns_on_superlinear(tmp_path, capsys):
    path = write_spec(tmp_path, "l.json", LATTICE_SPEC)
    # at radius 6 two lattice restrictions agree on B_5: the orbit check
    # refuses with exit 7 (the warning itself is pinned on Z on {+-7, +-11})
    assert main(["orbit", path, "--radius", "6", "--ball", "2"]) == 7
    assert ("two members agree on the common domain; increase the radius"
            in capsys.readouterr().err)


def test_cli_orbit_warns_when_growth_reads_not_linear(tmp_path, capsys):
    # Z on {+-7, +-11}: no sphere size recurs within the default census
    # ball, so the verdict reads not-linear, yet the orbit is finite
    spec = {**Z_SPEC, "generators": [-11, -7, 7, 11]}
    code, out = run_cli(capsys, "orbit", write_spec(tmp_path, "z711.json", spec))
    assert code == 0
    report = json.loads(out)
    assert report["growth_verdict"] == "not-linear"
    assert report["warning"] == "growth verdict is not linear; finiteness not expected"


def test_cli_reroot(tmp_path, capsys):
    path = write_spec(tmp_path, "z.json", Z_SPEC)
    code, out = run_cli(capsys, "reroot", path, "--depth", "10")
    assert code == 0
    report = json.loads(out)
    assert report["all_ok"] is True
    assert report["count"] == 100


def test_cli_reroot_unsettled_prefix_is_one_row(tmp_path, capsys):
    path = write_spec(tmp_path, "d3.json", D3_SPEC)
    args = ("reroot", path, "--depth", "10", "--ball", "4")
    code, out = run_cli(capsys, *args)
    assert code == 0
    report = json.loads(out)
    unsettled = [i for i, row in enumerate(report["results"]) if row.get("unsettled")]
    assert len(unsettled) == 1
    assert set(report["results"][unsettled[0]]) == {"start", "unsettled"}
    assert sum("N" in row for row in report["results"]) == 99
    assert report["all_ok"] is True
    code, out = run_cli(capsys, *args, "--format", "csv")
    assert code == 0
    assert f"{unsettled[0]},unsettled,," in out.splitlines()


def test_cli_horo_explicit_depth(tmp_path, capsys):
    path = write_spec(tmp_path, "z.json", Z_SPEC)
    code, out = run_cli(capsys, "horo", path, "--radius", "3", "--depth", "30")
    assert code == 0
    report = json.loads(out)
    assert [row["depth"] for row in report["per_radius"]] == [30, 30, 30]
    assert report["counts"] == [2, 2, 2]


def test_cli_orbit_raises_depth_to_enumeration_minimum(tmp_path, capsys):
    path = write_spec(tmp_path, "z.json", Z_SPEC)
    code, out = run_cli(capsys, "orbit", path, "--depth", "5")
    assert code == 0
    assert json.loads(out)["enumeration"] == {"radius": 12, "depth": 25, "count": 2}


def test_cli_csv_format(tmp_path, capsys):
    path = write_spec(tmp_path, "z.json", Z_SPEC)
    code, out = run_cli(capsys, "growth", path, "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# schema=horoscope/1"
    assert lines[1] == "r,sphere_size,ball_size"
    assert lines[2] == "0,1,1"


def test_cli_deterministic(tmp_path, capsys):
    path = write_spec(tmp_path, "z.json", Z_SPEC)
    _, first = run_cli(capsys, "orbit", path)
    _, second = run_cli(capsys, "orbit", path)
    assert first == second
    _, third = run_cli(capsys, "reroot", path, "--seed", "5")
    _, fourth = run_cli(capsys, "reroot", path, "--seed", "5")
    assert third == fourth


def test_cli_out_file(tmp_path, capsys):
    path = write_spec(tmp_path, "z.json", Z_SPEC)
    dest = tmp_path / "report.json"
    code, out = run_cli(capsys, "growth", path, "--out", str(dest))
    assert code == 0
    assert out == ""
    assert json.loads(dest.read_text())["k"] == 2


def test_cli_exit_codes(tmp_path, capsys, long_cycle_funnel):
    missing = str(tmp_path / "nope.json")
    assert main(["growth", missing]) == 3
    z = write_spec(tmp_path, "z.json", Z_SPEC)
    assert main(["cover", z]) == 3                      # wrong kind
    assert main(["growth", z, "--budget", "-1"]) == 3   # bad flag value
    assert main(["growth", z, "--depth", "0"]) == 3
    assert main(["growth", z, "--out", str(tmp_path / "no-dir" / "r.json")]) == 3
    assert main(["growth", z, "--out", str(tmp_path)]) == 3  # --out is a directory
    # only horo needs the window below an explicit depth
    assert main(["horo", z, "--depth", "5", "--window", "8"]) == 3
    for command in ("orbit", "reroot"):
        assert main([command, z, "--depth", "5", "--window", "8"]) == 0
    hall = write_spec(tmp_path, "hall.json", HALL_SPEC)
    assert main(["horo", hall]) == 3                    # layered where graph needed
    free2 = write_spec(tmp_path, "f.json", {"kind": "cayley", "family": "free-2"})
    assert main(["horo", free2, "--radius", "8", "--budget", "2000"]) == 4
    # custom generators {+-1, +-2}: |B_4| = 17 fits, but reading
    # d(8, -1) = 5 needs |B_5| = 21
    z12 = write_spec(tmp_path, "z12.json", {**Z_SPEC, "generators": [-2, -1, 1, 2]})
    horo = ["horo", z12, "--radius", "1", "--depth", "4", "--window", "2"]
    assert main(horo + ["--budget", "20"]) == 4
    assert main(horo + ["--budget", "21"]) == 0
    # one-period powers of period 27,720 run past the 4,096-power cap
    names, wrap = long_cycle_funnel
    funnel = write_spec(tmp_path, "funnel42.json", {
        "kind": "layered", "period": {"layers": [names], "edges": []},
        "wrap": [list(e) for e in wrap]})
    assert main(["cover", funnel]) == 4
    # one of 100 prefixes never settles: that row is marked, the command
    # still answers (it exited 6 on the first PrefixTooShort)
    d3 = write_spec(tmp_path, "d3.json", D3_SPEC)
    assert main(["reroot", d3, "--depth", "10", "--ball", "4"]) == 0
    # at --ball 1 every sampled stabilizer value is zero: TrivialImage, exit 7
    capsys.readouterr()
    assert main(["orbit", d3, "--ball", "1"]) == 7
    assert "all sampled stabilizer values are zero" in capsys.readouterr().err
    # malformed spec shapes: exit 3, not a raw TypeError or AttributeError
    for command, spec in [
            ("growth", {**Z_SPEC, "generators": 5}),
            ("growth", {"kind": "explicit", "vertices": 5, "edges": [],
                        "basepoint": 0}),
            ("growth", {"kind": "explicit", "vertices": [0, 1], "edges": [5],
                        "basepoint": 0}),
            ("growth", {"kind": "explicit", "vertices": [[0], [1]],
                        "edges": [], "basepoint": [0]}),
            ("cover", {"kind": "layered", "period": 5}),
            ("cover", {**HALL_SPEC, "period": {"layers": 5, "edges": []}}),
            ("cover", {**HALL_SPEC, "wrap": [["a"]]}),
            ("cover", {**HALL_SPEC, "wrap": 5}),
            ("cover", {"kind": "layered", "layers": [["a", 1]], "edges": []}),
            ("cover", {"kind": "layered", "period": {"layers": [["a", 1]]}}),
            ("growth", {**DIHEDRAL_SPEC, "generators": [[0, 1.0], [1, 1]]}),
            # a bool is no layer index (true was read as step 1)
            ("cover", {"kind": "layered", "layers": [["a"], ["a"], ["a"]],
                       "edges": [[0, "a", "a"], [True, "a", "a"]]}),
            # a truncation mixed with a periodic key (one half was dropped)
            ("cover", {**HALL_SPEC, **TWO_LAYERS}),
            ("cover", {**TWO_LAYERS, "wrap": [["a", "a"]]}),
            ("cover", {**TWO_LAYERS, "prefix": {"layers": [["s"]]}}),
            ("cover", {**TWO_LAYERS, "seam": [["s", "a"]]}),
            # a key its kind never reads (each was dropped without a word)
            ("cover", {**HALL_SPEC, "edges": []}),
            ("cover", {**HALL_SPEC, "seam": [["a", "a"]]}),
            ("cover", {**HALL_SPEC, "period": {**HALL_SPEC["period"], "edge": []}}),
            ("cover", {**TWO_LAYERS, "wrapp": [["a", "a"]]}),
            ("growth", {**Z_SPEC, "generator": [-2, -1, 1, 2]}),
            # a modulus on a family without one (it was ignored, exit 0)
            ("growth", {**Z_SPEC, "modulus": 3}),
            # an empty prefix (a prefix without a seam reads an empty one)
            ("cover", {**HALL_SPEC, "prefix": {"layers": []}}),
            # refusals in the builders
            ("growth", {**Z_SPEC, "generators": []}),
            ("growth", {**Z_SPEC, "generators": [-1, 0, 1]}),
            ("growth", {"kind": "cayley"}),
            ("growth", {"kind": "explicit", "vertices": [0, 1], "edges": []}),
            ("growth", {**EDGE_SPEC, "vertices": [0, 0, 1]}),
            ("growth", {**EDGE_SPEC, "basepoint": 7}),
            ("growth", {**EDGE_SPEC, "edges": [[0, 0]]}),
            ("cover", {**HALL_SPEC, "period": {"layers": [["a", "b"], []]}}),
            ("cover", {"kind": "layered", "layers": []}),
            # each command on each spec kind it refuses
            ("growth", HALL_SPEC), ("reroot", HALL_SPEC),
            ("orbit", EDGE_SPEC), ("orbit", HALL_SPEC), ("cover", EDGE_SPEC)]:
        assert main([command, write_spec(tmp_path, "bad.json", spec)]) == 3, spec
    prefixed = {**HALL_SPEC, "prefix": {"layers": [["s"]]}}
    assert main(["cover", write_spec(tmp_path, "prefixed.json", prefixed)]) == 0
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


def test_cli_help_names_each_command():
    text = build_parser().format_help()
    for name, purpose in [
            ("growth", "sphere census and linear-growth verdict"),
            ("horo", "horofunction restriction counts per radius"),
            ("cover", "monotone path cover of a layered graph"),
            ("orbit", "orbit, stabilizer and homomorphism witness"),
            ("reroot", "reroot random geodesic prefixes to the basepoint")]:
        assert f"  {name:<8}{purpose}\n" in text


# ---------------------------------------------------------------- report bytes

LATTICE_DIAG_SPEC = {"kind": "cayley", "family": "integer-lattice-2d",
                     "generators": [[-1, 0], [1, 0], [0, -1], [0, 1],
                                    [-1, -1], [1, 1]]}
LADDER_SPEC = {"kind": "cayley", "family": "integers-times-cyclic", "modulus": 2}
DIHEDRAL3_SPEC = {"kind": "cayley", "family": "infinite-dihedral",
                  "generators": [[0, 1], [1, 1], [2, 1]]}
# a path with the basepoint in the middle: prefixes that run into an end skip
PATH13_SPEC = {"kind": "explicit", "vertices": list(range(13)),
               "edges": [[i, i + 1] for i in range(12)], "basepoint": 6}
FREE2_SPEC = {"kind": "cayley", "family": "free-2"}
ESCAPED_NAMES = ["v4", "v3", "v2", "雪", "é", 'a"b', "c\\d", "t\tab", "v1", "v5", "v6"]
ESCAPED_PATH_SPEC = {"kind": "explicit", "vertices": ESCAPED_NAMES,
                     "edges": [list(e) for e in zip(ESCAPED_NAMES, ESCAPED_NAMES[1:])],
                     "basepoint": 'a"b'}
# names that are format fields to the value-map templates of ``to_json``
PERCENT_NAMES = ["w5", "w4", "w3", "%(x)s", "%%s", "%d", "50%", "w1", "w2", "w6", "w7"]
PERCENT_PATH_SPEC = {"kind": "explicit", "vertices": PERCENT_NAMES,
                     "edges": [list(e) for e in zip(PERCENT_NAMES, PERCENT_NAMES[1:])],
                     "basepoint": "%d"}
# layered specs whose cover skips the verification: k = 7, and a
# truncation of 6 layers, shallower than every check depth
N7 = list("abcdefg")
K7_SPEC = {"kind": "layered",
           "period": {"layers": [N7, N7],
                      "edges": [[0, a, b] for i, a in enumerate(N7)
                                for b in (N7[(i + 1) % 7], N7[(i + 3) % 7])]},
           "wrap": [[a, a] for a in N7]}
SHORT_SPEC = {"kind": "layered", "layers": [["a", "b", "c"]] * 6,
              "edges": [[j, a, b] for j in range(5)
                        for a, b in (("a", "a"), ("b", "a"), ("c", "b"), ("c", "c"))]}

# sha256 of the default reports: int tokens (integers), string tokens
# (free-2, a path whose names need escaping and one whose names hold %),
# pair tokens (ladder, dihedral, lattice with custom generators, and
# generator keys of the orbit action table), a Hall witness in a cover
# trace, both notes of a skipped cover verification, and CSV reports
GOLDEN_REPORTS = [
    pytest.param(
        Z_SPEC, ["growth"],
        "810d9d65b37fceb89d8ec699139445bac811979fb543b4ed32840283778c15db",
        id="growth-integers"),
    pytest.param(
        Z_SPEC, ["growth", "--format", "csv"],
        "0fdfe5c34c7cf2c54b7f6713346564d7877d1a67c1dd0f0313ad04612ebf9cb2",
        id="growth-integers-csv"),
    pytest.param(
        FREE2_SPEC, ["growth", "--ball", "6"],
        "18e6972255a282211a9db915cc8f72dae346747f4f4b0920820a2b63eed7d394",
        id="growth-free2"),
    pytest.param(
        Z_SPEC, ["horo", "--radius", "4"],
        "88ad5d057b8bba2190f56403eb37ef58d49b849c49efddc7178eaaa7c1c047ef",
        id="horo-integers"),
    pytest.param(
        FREE2_SPEC, ["horo", "--radius", "1"],
        "dcd7cd22566d71ff201ccc07f698fed0e6e2995264cf827da64bd9ac1b775c8f",
        id="horo-free2"),
    pytest.param(
        LATTICE_DIAG_SPEC, ["horo", "--radius", "2"],
        "243f5252a6f4065e2e8c1611f3461d5d3a94fddb3bbe617f8011148a9cec41e7",
        id="horo-lattice-diag"),
    pytest.param(
        ESCAPED_PATH_SPEC, ["horo", "--radius", "2", "--depth", "5", "--window", "2"],
        "1abc12f1803e61fb003285f1f52daba0220d8c41bc50855e365c2b0571821da6",
        id="horo-escaped-strings"),
    pytest.param(
        PERCENT_PATH_SPEC, ["horo", "--radius", "2", "--depth", "5", "--window", "2"],
        "06a15ceee8976464a08319d33ed60761ac77bf1b83d218177aa9f1521612233d",
        id="horo-percent-strings"),
    pytest.param(
        DIHEDRAL_SPEC, ["orbit"],
        "f85530406e32abbe4b8a8f8233e68f060596f61844c1f83a5ef45da9bee5a77c",
        id="orbit-dihedral"),
    pytest.param(
        Z_SPEC, ["reroot", "--depth", "10"],
        "1de5af48f9832dfce140aae9b9227f9fd6296b13ef607227fd1e77f05aeb70ea",
        id="reroot-integers-default-ball"),
    pytest.param(
        LADDER_SPEC, ["reroot", "--depth", "10", "--ball", "4"],
        "d331c74b1cdef04ca1c3d5260c1c63144ffba389b6593e14c8a8a12c9610e6ed",
        id="reroot-ladder"),
    pytest.param(
        DIHEDRAL3_SPEC, ["reroot", "--depth", "20", "--ball", "6"],
        "a9630c90199d81f0c7ba9425022da6395815cf03ade4e89c4b356937cf8c9740",
        id="reroot-dihedral3"),
    pytest.param(
        PATH13_SPEC, ["reroot", "--depth", "5", "--ball", "3"],
        "a089bea47e16592f84da73f78b609a202d2b286f5620b628446793912a478f01",
        id="reroot-path-skips"),
    pytest.param(
        PATH13_SPEC, ["reroot", "--depth", "5", "--ball", "3", "--format", "csv"],
        "5c1b07b9e7fe3ff8a35917631205ca12d68c5145c06e33efcbd03b662cad9ad3",
        id="reroot-path-skips-csv"),
    pytest.param(
        Z_SPEC, ["horo", "--radius", "4", "--format", "csv"],
        "8959b319bd9ba292387129c6e8a6bfe4ccef186a5d37abdd88054c17c4a69fd3",
        id="horo-integers-csv"),
    pytest.param(
        DIHEDRAL_SPEC, ["orbit", "--format", "csv"],
        "9185d983cd74c00c76735b7fff02beacca4318ac576ff7e6e6745fb2a55796d5",
        id="orbit-dihedral-csv"),
    pytest.param(
        HALL_SPEC, ["cover"],
        "a8a17096c6688ed1e57738b1ec2b33460c98eb9b3e9f012db27fcc897ff14a0f",
        id="cover-hall"),
    pytest.param(
        HALL_SPEC, ["cover", "--format", "csv"],
        "c9c32201756dea85773f1e5685cdcb9f9eb9bcbed2419f474c54e1f308d0d498",
        id="cover-hall-csv"),
    pytest.param(
        K7_SPEC, ["cover"],
        "e68e8b72a2acd90a7db93d7f7aaf7575b44e68d7c30d650082ee582567384876",
        id="cover-k7-skipped"),
    pytest.param(
        K7_SPEC, ["cover", "--format", "csv"],
        "0ef8def23b4e52fac56f668a7fe733fcacbecfa6b918e9cb4f11d64a8fa609e6",
        id="cover-k7-skipped-csv"),
    pytest.param(
        SHORT_SPEC, ["cover"],
        "ab0a3d29a496e71d96093bb713e66ec227f22d9efc08ad1fd03f7d23551afd2b",
        id="cover-short-truncation-skipped"),
    pytest.param(
        SHORT_SPEC, ["cover", "--format", "csv"],
        "ec3c5d43f8f201bad4a230365d9ddb5730a50aeadb440f0385178c5d6cff1903",
        id="cover-short-truncation-skipped-csv"),
]


@pytest.mark.parametrize("spec,argv,digest", GOLDEN_REPORTS)
def test_cli_report_bytes(tmp_path, capsys, spec, argv, digest):
    path = write_spec(tmp_path, "spec.json", spec)
    code, out = run_cli(capsys, argv[0], path, *argv[1:])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ---------------------------------------------------------------- JSON text

class _Str(str):
    """A str subclass, which the string census leaves to the per-element path."""


_ints = st.integers(-(2 ** 70), 2 ** 70)
_pairs = st.tuples(_ints, _ints) | st.lists(_ints, min_size=2, max_size=2)


def _value_maps(tokens):
    item = st.tuples(tokens, _ints) | st.tuples(tokens, _ints).map(list)
    return st.lists(item, max_size=5) | st.lists(item, max_size=5).map(tuple)


_leaves = (st.none() | st.booleans() | _ints | st.floats() | st.text()
           | st.lists(_ints | st.booleans(), max_size=5)
           | st.lists(st.text(), max_size=5)
           | _value_maps(_ints) | _value_maps(_pairs) | _value_maps(st.text()))
_reports = st.recursive(
    _leaves,
    lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(st.text(), kids, max_size=4)),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(_reports)
@example([1, True, 2])
@example([[1, True], [2, 3]])
@example([[True, 1], [2, 3]])
@example([[(0, 1), 2], [(1, 0), False]])
@example([[(0, 1), 2], [(1, 0, 2), 3]])
@example([[(0, 1), 2], [(True, 0), 3]])
@example([[2 ** 64, -(2 ** 70)], [-1, 0]])
@example([float("nan"), float("inf"), float("-inf"), None, -0.0, 1e300])
@example([["é", 1], ['a"b', 2], ["c\\d\t\x00\u2028", 3], ["雪", -4]])
@example({"a": ([], {}, ()), "b": [[], [[]]], "c": [(), ()]})
@example([("a", 1), ["b", 2], ("c", 3.0)])
@example({"k": {0: "int", 2.5: "float", True: "bool"}, "n": {None: [1]}})
@example({"maps": [[[1, 0], [2, 1]], [[(0, 0), 1]], [["w", 2]]]})
@example(["a", "%s", "%d", "50%", "%(x)s"])
@example(["é", 'a"b', "c\\d\t\x00\u2028", "雪"])
@example([["a", "b"], ["c"], [["d", "%"], []], ("e", "f")])
@example(["a", _Str("b"), "c"])
def test_to_json_matches_json_dumps(x):
    assert to_json(x) == json.dumps(x, sort_keys=True, indent=2)


@pytest.mark.parametrize("x", [{"a": {1, 2}}, [[1, 2], {3}], {(1, 2): 3}, object()])
def test_to_json_rejects_what_json_rejects(x):
    with pytest.raises(TypeError):
        json.dumps(x, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        to_json(x)


def _as_items(x):
    """``x`` with every ValueMap replaced by its items: what ``to_json``
    writes for a report that holds maps."""
    if isinstance(x, h.ValueMap):
        return x.items
    if isinstance(x, (list, tuple)):
        return [_as_items(v) for v in x]
    if isinstance(x, dict):
        return {k: _as_items(v) for k, v in x.items()}
    return x


_FORMAT_TEXT = st.sampled_from(["%", "%d", "%%s", "%(x)s", "50%", 'a"b', "雪", "é\\%"])
_domains = (st.lists(_ints, unique=True, max_size=6)
            | st.lists(_FORMAT_TEXT | st.text(), unique=True, max_size=6)
            | st.lists(st.tuples(_ints, _ints), unique=True, max_size=6)
            | st.lists(_ints | st.text(), max_size=6)).map(tuple)


@st.composite
def _valuemap_reports(draw):
    """A report over a few domains, each also present as an equal tuple that
    is a distinct object; maps draw their domain from that pool, so one
    domain sits at several indents.  About one map in two takes a bool value."""
    pool = draw(st.lists(_domains, min_size=1, max_size=3))
    pool += [tuple(list(d)) for d in pool]

    def valuemap(i, values, flip):
        values = list(values[: len(pool[i])])
        values += [0] * (len(pool[i]) - len(values))
        if flip is not None and values:
            values[flip % len(values)] = True
        return h.ValueMap(pool[i], tuple(values))

    maps = st.builds(valuemap, st.integers(0, len(pool) - 1),
                     st.lists(_ints, max_size=6),
                     st.none() | st.integers(0, 5))
    return draw(st.recursive(
        _leaves | maps,
        lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
                      | st.dictionaries(st.text(), kids, max_size=4)),
        max_leaves=20))


_STR_DOMAIN = ("%", "%%s", "%(x)s", "%d", "50%", 'a"b', "é", "雪")
_PAIR_DOMAIN = ((-1, 0), (0, 0), (1, 2 ** 70))


@settings(max_examples=300, deadline=None)
@given(_valuemap_reports())
@example([h.ValueMap((-2, 0, 5), (1, -1, 2 ** 70)),
          h.ValueMap(_STR_DOMAIN, tuple(range(8))),
          h.ValueMap(_PAIR_DOMAIN, (3, 0, -3))])
@example({"empty": [h.ValueMap((), ()), h.ValueMap((), ())], "m": h.ValueMap((7,), (0,))})
@example({"a": h.ValueMap(_STR_DOMAIN, (0,) * 8),
          "b": [[h.ValueMap(_STR_DOMAIN, (1,) * 8)], h.ValueMap(_STR_DOMAIN, (2,) * 8)]})
@example([h.ValueMap(_PAIR_DOMAIN, (1, 2, 3)),
          h.ValueMap(tuple(list(_PAIR_DOMAIN)), (4, 5, 6))])
@example([h.ValueMap((1, 2), (True, 0)), h.ValueMap((1, 2), (0, 1)),
          h.ValueMap((1, "a", (0, 1)), (0, 1, 2)), h.ValueMap((1, "%d"), (5, 6))])
def test_to_json_writes_value_maps_as_items(x):
    assert to_json(x) == json.dumps(_as_items(x), sort_keys=True, indent=2)


def test_to_json_of_one_report_from_four_threads():
    g = h.cayley_graph(h.GroupSpec("integer-lattice-2d"))
    maps = [h.enumerate_horofunction_restrictions(g, r, 4 * r, 8) for r in (3, 4)]
    report = {"per_radius": [{"maps": ms} for ms in maps],
              "fixed": maps[1][0], "names": h.ValueMap(_STR_DOMAIN, tuple(range(8)))}
    expected = to_json(report)
    assert run_threads(lambda: [to_json(report) for _ in range(5)]) == [[expected] * 5] * 4
    assert expected == json.dumps(_as_items(report), sort_keys=True, indent=2)


# ---------------------------------------------------------------- README


def test_readme_quick_tour_states_its_values():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library quick tour", 1)[1]
    block = block.split("```python\n", 1)[1].split("```", 1)[0]
    ns: dict = {}
    exec(block, ns)
    res = ns["res"]
    stated = {
        "[1, 3, 4, 4, 4]": h.layer_decomposition(ns["g"], 4).sphere_sizes,
        "4": len(ns["maps"]),
        "1": ns["wit"].image_gcd,
        "2 paths, split trace": f"{len(res.paths)} paths, {res.trace.kind} trace",
    }
    for comment, value in stated.items():
        assert f"# {comment}\n" in block
        assert str(value) == comment
