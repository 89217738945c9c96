import random
from dataclasses import replace
from itertools import chain

import pytest
from hypothesis import given
from hypothesis import strategies as st

import horoscope as h
from horoscope import cayley
from horoscope.cayley import Free2
from conftest import FAMILY_SPECS, LINEAR_FAMILIES, bfs_distance

# counts from the pre-build brute-force census, frozen as regression constants
EXPECTED_COUNTS = {"integers": 2, "ladder": 4, "ladder3": 6, "dihedral": 2}


# ---------------------------------------------------------------- families


def test_integers_neighbors(graphs):
    assert graphs["integers"].neighbors(0) == (-1, 1)


def test_dihedral_spheres(graphs):
    assert h.layer_decomposition(graphs["dihedral"], 6).sphere_sizes == \
        [1, 2, 2, 2, 2, 2, 2]


def test_lattice_spheres(graphs):
    assert h.layer_decomposition(graphs["lattice"], 3).sphere_sizes == [1, 4, 8, 12]


def test_ladder_spheres(graphs):
    assert h.layer_decomposition(graphs["ladder"], 4).sphere_sizes == [1, 3, 4, 4, 4]


@pytest.mark.parametrize("family", list(FAMILY_SPECS))
def test_group_axioms_sampled(graphs, family):
    g = graphs[family]
    grp = g.group
    ball = h.layer_decomposition(g, 2).ball()
    rng = random.Random(5)
    for _ in range(40):
        x, y, z = (rng.choice(ball) for _ in range(3))
        assert grp.mul(grp.mul(x, y), z) == grp.mul(x, grp.mul(y, z))
        assert grp.mul(x, grp.inv(x)) == grp.identity
        assert grp.mul(grp.identity, x) == x


def test_dihedral_generators_are_involutions(graphs):
    grp = graphs["dihedral"].group
    for s in graphs["dihedral"].generators:
        assert grp.mul(s, s) == grp.identity


def test_generators_do_not_generate():
    with pytest.raises(h.GeneratorsDoNotGenerate):
        h.cayley_graph(h.GroupSpec("integers", generators=(2, -2)))


def test_bad_specs():
    with pytest.raises(h.MalformedSpec):
        h.cayley_graph(h.GroupSpec("integers", generators=(2, -3)))
    with pytest.raises(h.MalformedSpec):
        h.cayley_graph(h.GroupSpec("integers-times-cyclic", modulus=1))
    for family in ("no-such-family", ["integers"]):
        with pytest.raises(h.MalformedSpec):
            h.cayley_graph(h.GroupSpec(family))
    with pytest.raises(h.MalformedSpec):
        h.cayley_graph(h.GroupSpec("free-2", generators=("a", "A", "aA", "Aa")))
    # pair elements hold exact ints, as integers elements do: no bool, no
    # float; only integers-times-cyclic reads a modulus
    for family, gens in [
            ("infinite-dihedral", ([0, 1.0], [1, 1])),
            ("infinite-dihedral", ([True, 1], [0, 1])),
            ("integer-lattice-2d", ([True, 0], [-1, 0], [0, 1], [0, -1])),
            ("integers-times-cyclic", ([1, 0], [-1, 0], [1, False]))]:
        modulus = 2 if family == "integers-times-cyclic" else None
        with pytest.raises(h.MalformedSpec, match="element"):
            h.cayley_graph(h.GroupSpec(family, generators=gens, modulus=modulus))
    for family in ("integers", "infinite-dihedral", "integer-lattice-2d", "free-2"):
        with pytest.raises(h.MalformedSpec, match="reads no modulus"):
            h.cayley_graph(h.GroupSpec(family, modulus=3))


def test_custom_generators_word_metric():
    g = h.cayley_graph(h.GroupSpec("integers", generators=(2, -2, 3, -3)))
    assert h.distance(g, 0, 1) == 2          # 1 = 3 - 2
    assert h.layer_decomposition(g, 4).sphere_sizes == [1, 4, 8, 6, 6]


def _naive_reduce(letters):
    inv = {"a": "A", "A": "a", "b": "B", "B": "b"}
    out = []
    for c in letters:
        if out and out[-1] == inv[c]:
            out.pop()
        else:
            out.append(c)
    return "".join(out)


@given(st.lists(st.sampled_from("aAbB"), max_size=8),
       st.lists(st.sampled_from("aAbB"), max_size=8))
def test_free2_mul_matches_naive_reduction(xs, ys):
    x, y = _naive_reduce(xs), _naive_reduce(ys)
    assert Free2.mul(x, y) == _naive_reduce(x + y)
    assert Free2.metric_row(x, (y,)) == (len(Free2.mul(Free2.inv(x), y)),)


def test_free2_busemann_row_matches_distance(graphs):
    ld = h.layer_decomposition(graphs["free2"], 8)
    ref_ball = ld.ball()
    # every z in B_4 (the identity among them), and for each ball B_r a word
    # of length r + 3, whose deeper prefix ranges are empty there
    sources = ld.ball(4) + tuple(("abAB" * 3)[: r + 3] for r in range(9))
    for z in sources:
        ref = dict(zip(ref_ball, Free2.metric_row(z, ref_ball, len(z))))
        for r in range(9):
            ball = ld.ball(r)
            base, row = Free2.busemann_row(z, ball)
            assert base == len(z)
            assert row == tuple(ref[y] for y in ball)


# ---------------------------------------------------------------- the action


def test_act_identity(graphs):
    g = graphs["integers"]
    f = h.busemann(g, 9, 6).values
    assert h.act(0, f, g) == f


def test_act_translation_fixes_limit(graphs):
    g = graphs["integers"]
    ys = tuple(range(-8, 9))
    f = h.ValueMap(ys, tuple(-y for y in ys), radius=8)
    out = h.act(7, f, g)
    assert all(out.value(y) == -y for y in range(-1, 2))


def test_act_requires_radius(graphs):
    g = graphs["integers"]
    with pytest.raises(ValueError):
        h.act(1, h.ValueMap((0,), (0,)), g)


def test_act_domain_too_small(graphs):
    g = graphs["integers"]
    f = h.busemann(g, 5, 2).values
    with pytest.raises(h.DomainTooSmall):
        h.act(3, f, g)


def test_act_free2_identity_and_domain_too_small(graphs):
    g = graphs["free2"]
    f = h.busemann(g, "abA", 8).values
    assert h.act("", f, g) == f
    f = h.busemann(g, "ab", 2).values
    with pytest.raises(h.DomainTooSmall, match="x\\^-1 = 'A'"):
        h.act("a", f.restrict(set(f.domain) - {"A"}, radius=2), g)
    # x = a gives out_r = 1, and a^-1 b = Ab lies in B_2
    with pytest.raises(h.DomainTooSmall, match="'Ab'"):
        h.act("a", f.restrict(set(f.domain) - {"Ab"}, radius=2), g)
    with pytest.raises(h.DomainTooSmall):
        h.act("aba", f, g)


def test_free2_busemann_and_act_read_no_distance_or_dict(monkeypatch):
    # a table is one closed-form row, and act bisects f's domain
    g = h.cayley_graph(h.GroupSpec("free-2"))
    calls = []
    exact = g.exact_distance
    monkeypatch.setattr(g, "exact_distance",
                        lambda x, y: calls.append(1) or exact(x, y))
    f = h.busemann(g, "abA", 8).values
    assert calls == []
    assert len(f.domain) == 2 * 3 ** 8 - 1

    def no_dict(self):
        raise AssertionError("act must not build a dict of the map")

    monkeypatch.setattr(h.ValueMap, "as_dict", no_dict)
    moved = h.act("ba", f, g)
    assert moved == h.busemann(g, g.group.mul("ba", "abA"), 6).values


def _twin(f):
    """f over an equal but distinct domain tuple, which act reads by
    bisection, not by subtree slices."""
    twin = h.ValueMap(tuple(list(f.domain)), f.values, radius=f.radius)
    assert twin.domain == f.domain and twin.domain is not f.domain
    return twin


def test_free2_act_slices_match_bisect_gather(graphs):
    g = graphs["free2"]
    ld = h.layer_decomposition(g, 8)
    rng = random.Random(9)
    table = h.busemann(g, "bAb", 8).values
    noise = h.ValueMap(ld.ball(), tuple(rng.randrange(-99, 100) for _ in ld.ball()),
                       radius=8)
    moved = h.act("Ba", h.busemann(g, "abA", 10).values, g)  # y.f, then x.(y.f)
    for f in (table, noise, moved):
        assert f.domain is ld.ball()
        twin = _twin(f)
        for x in ld.ball(4):
            out = h.act(x, f, g)
            assert out == h.act(x, twin, g)
            assert out.domain is ld.ball(8 - len(x))


def test_free2_act_on_whole_ball_runs_no_mul(monkeypatch):
    # on a stored whole ball, act reads f by subtree ranges: no Free2.mul
    # and O(|x|) ValueMap.index calls; a copied domain takes the gather
    g = h.cayley_graph(h.GroupSpec("free-2"))
    f = h.busemann(g, "abA", 8).values
    mul, index = Free2.mul, h.ValueMap.index
    muls, lookups = [], []
    monkeypatch.setattr(Free2, "mul", staticmethod(
        lambda x, y: muls.append(1) or mul(x, y)))
    monkeypatch.setattr(h.ValueMap, "index",
                        lambda self, v: lookups.append(v) or index(self, v))
    for x in ("", "b", "Ab", "bAbA", "aBBaBB"):
        lookups.clear()
        moved = h.act(x, f, g)
        assert muls == [] and len(lookups) <= len(x) + 1
        assert moved == h.busemann(g, mul(x, "abA"), 8 - len(x)).values
    h.act("b", _twin(f), g)
    assert len(muls) == 2 * 3 ** 7 - 1


def test_free2_busemann_row_needs_whole_ball(graphs):
    ld = h.layer_decomposition(graphs["free2"], 9)
    # z in B_2, and words of length 3..11, longer than the smaller balls
    sources = ld.ball(2) + tuple(w[:k] for w in ("abAB" * 3, "B" * 11, "aBaB" * 3)
                                 for k in range(3, 12))
    for z in sources:
        ref = dict(zip(ld.ball(), Free2.metric_row(z, ld.ball(), len(z))))
        for r in range(10):
            ball = ld.ball(r)
            assert Free2.busemann_row(z, ball) == (len(z), tuple(ref[y] for y in ball))
    b3 = ld.ball(3)
    for bad in ((), b3[:-1], b3[1:], b3 + ("bbbb",), b3[::-1],
                tuple(sorted(set(b3) - {"aB"}))):
        with pytest.raises(ValueError, match="whole sorted ball"):
            Free2.busemann_row("ab", bad)


def _bad_balls(ball):
    """Tuples that are not a whole sorted ball: empty, cut at either end,
    overlong, reversed, and missing one word."""
    return ((), ball[:-1], ball[1:], ball + ("b" * (len(ball[-1]) + 1),),
            ball[::-1], tuple(sorted(set(ball) - {"aB"})))


def test_free2_act_row_needs_whole_balls(graphs):
    ld = h.layer_decomposition(graphs["free2"], 6)
    f = h.busemann(graphs["free2"], "abA", 6).values
    good = Free2.act_row("ab", f.values, ld.ball(), ld.ball(4))
    assert good == h.act("ab", _twin(f), graphs["free2"]).values
    bad_sources = _bad_balls(ld.ball())
    bad_outs = _bad_balls(ld.ball(4)) + (ld.ball(3), ld.ball(5), ld.ball())
    missing_ab = tuple(y for y in ld.ball() if y != "ab")
    assert len(missing_ab) == len(ld.ball()) - 1
    for ball, out_ball in chain(((b, ld.ball(4)) for b in bad_sources),
                                ((ld.ball(), b) for b in bad_outs),
                                [(missing_ab, ld.ball(4))]):
        with pytest.raises(ValueError, match="whole sorted ball"):
            Free2.act_row("ab", f.values[:len(ball)], ball, out_ball)


def test_free2_act_bisections_grow_with_x_not_ball(monkeypatch):
    # positions off x's path are offsets from subtree bases: the bisections
    # are a bounded few per letter of x, the same on B_8 and on B_10
    g = h.cayley_graph(h.GroupSpec("free-2"))
    tables = {r: h.busemann(g, "abA", r).values for r in (8, 10)}
    calls = []
    bisect = cayley.bisect_left
    monkeypatch.setattr(cayley, "bisect_left",
                        lambda *a: calls.append(1) or bisect(*a))
    for x in ("", "b", "Ab", "bAbA", "aBBaBB", "abababab"):
        counts = []
        for r, f in tables.items():
            calls.clear()
            out = h.act(x, f, g)
            counts.append(len(calls))
            assert out == h.act(x, _twin(f), g)
        assert counts[0] == counts[1] <= 2 * len(x)


def test_free2_act_matches_bisect_gather_on_every_radius(graphs):
    # radii 0..9, every x with |x| <= min(R, 4) and some x of length R - 1
    # and R: output balls down to B_0 and B_1, and empty offset templates
    g = graphs["free2"]
    rng = random.Random(10)
    for r in range(10):
        ball = h.layer_decomposition(g, r).ball()
        noise = h.ValueMap(ball, tuple(rng.randrange(-99, 100) for _ in ball),
                           radius=r)
        twin = _twin(noise)
        longest = [y for y in ball if len(y) >= r - 1]
        xs = [y for y in ball if len(y) <= 4]
        xs += rng.sample(longest, min(len(longest), 24))
        for x in xs:
            out = h.act(x, noise, g)
            assert out == h.act(x, twin, g)
            assert out.domain is h.layer_decomposition(g, r - len(x)).ball()


def test_act_rejects_malformed_elements(graphs):
    g = graphs["free2"]
    f = h.busemann(g, "ab", 4).values
    for x in ("c", "aA", ["a"], 1):
        with pytest.raises(h.MalformedSpec) as err:
            h.act(x, f, g)
        assert err.value.exit_code == 3
    g = graphs["integers"]
    f = h.busemann(g, 5, 4).values
    for x in (True, 2.0, "1"):
        with pytest.raises(h.MalformedSpec):
            h.act(x, f, g)


@pytest.mark.parametrize("family", list(FAMILY_SPECS))
def test_action_laws_sampled(graphs, family):
    g = graphs[family]
    grp = g.group
    rng = random.Random(13)
    ball3 = h.layer_decomposition(g, 3).ball()
    for _ in range(20):
        x, y, z = (rng.choice(ball3) for _ in range(3))
        f = h.busemann(g, z, 8).values
        assert h.act(grp.identity, f, g) == f
        lhs = h.act(x, h.act(y, f, g), g)
        rhs = h.act(grp.mul(x, y), f, g)
        assert lhs == rhs.restrict(lhs.domain, lhs.radius)


@pytest.mark.parametrize("family", list(FAMILY_SPECS))
def test_busemann_equivariance(graphs, family):
    g = graphs[family]
    grp = g.group
    rng = random.Random(17)
    ball3 = h.layer_decomposition(g, 3).ball()
    for _ in range(15):
        x, z = rng.choice(ball3), rng.choice(ball3)
        moved = h.act(x, h.busemann(g, z, 8).values, g)
        direct = h.busemann(g, grp.mul(x, z), moved.radius).values
        assert moved == direct


# ---------------------------------------------------------------- orbits


def _enumerated(graphs, family, r=12):
    return h.enumerate_horofunction_restrictions(graphs[family], r, 4 * r, 8)


@pytest.mark.parametrize("family", list(EXPECTED_COUNTS))
def test_enumerated_counts_frozen(graphs, family):
    assert len(_enumerated(graphs, family)) == EXPECTED_COUNTS[family]


@pytest.mark.parametrize("family", LINEAR_FAMILIES + ("lattice",))
def test_enumerated_set_is_invariant(graphs, family):
    g = graphs[family]
    r = 6
    members = h.enumerate_horofunction_restrictions(g, r, 4 * r, 8)
    inner = h.layer_decomposition(g, r - 1).ball()
    restricted = {f.restrict(inner, r - 1) for f in members}
    for s in g.generators:
        assert {h.act(s, f, g) for f in members} == restricted


def test_orbit_integers_everything_fixed(graphs):
    g = graphs["integers"]
    orb = h.orbit_analysis(g, _enumerated(graphs, "integers"), 8)
    assert len(orb.members) == 2
    assert orb.index_estimate == 1
    assert orb.orbit == (orb.fixed,)
    assert orb.stabilizer_sample == tuple(range(-8, 9))
    for _, row in orb.action_table:
        assert row == (0, 1)


def test_orbit_ladder_fixture(graphs):
    # frozen by the pre-build oracle: 4 members, orbits of size 2,
    # stabilizer = the translation coordinate
    g = graphs["ladder"]
    orb = h.orbit_analysis(g, _enumerated(graphs, "ladder"), 8)
    assert len(orb.members) == 4
    assert orb.index_estimate == 2
    assert orb.stabilizer_sample == tuple((n, 0) for n in range(-8, 9))
    for _, row in orb.action_table:
        assert sorted(row) == [0, 1, 2, 3]


def test_orbit_not_invariant_on_partial_set(graphs):
    g = graphs["ladder"]
    members = _enumerated(graphs, "ladder")
    with pytest.raises(h.NotInvariant):
        h.orbit_analysis(g, members[:1], 8)


def test_orbit_radius_check(graphs):
    g = graphs["integers"]
    with pytest.raises(ValueError):
        h.orbit_analysis(g, _enumerated(graphs, "integers", r=6), 8)


def test_orbit_identity_only_sample(graphs):
    g = graphs["ladder"]
    orb = h.orbit_analysis(g, _enumerated(graphs, "ladder"), 0)
    assert orb.stabilizer_sample == (g.basepoint,)
    assert orb.orbit == (orb.fixed,)
    assert orb.index_estimate == 1


def test_stabilizer_sample_locally_closed(graphs):
    # closed under products that stay inside the sampled ball
    for family in ("ladder", "dihedral", "ladder3"):
        g = graphs[family]
        orb = h.orbit_analysis(g, _enumerated(graphs, family), 8)
        stab = set(orb.stabilizer_sample)
        ball = set(h.layer_decomposition(g, orb.radius).ball())
        for a in stab:
            for b in stab:
                prod = g.group.mul(a, b)
                if prod in ball:
                    assert prod in stab


# ---------------------------------------------------------------- witnesses


def test_witness_integers(graphs):
    g = graphs["integers"]
    orb = h.orbit_analysis(g, _enumerated(graphs, "integers"), 8)
    wit = h.extract_homomorphism(orb, g)
    # the least member is y -> y, whose sampled homomorphism is the identity
    assert dict(wit.sampled_values) == {x: x for x in range(-8, 9)}
    assert wit.image_gcd == 1
    assert wit.kernel_sample == (0,)
    assert wit.base.value(g.basepoint) == 0


def test_witness_dihedral_translations(graphs):
    g = graphs["dihedral"]
    orb = h.orbit_analysis(g, _enumerated(graphs, "dihedral"), 8)
    wit = h.extract_homomorphism(orb, g)
    assert set(orb.stabilizer_sample) == {(k, 0) for k in range(-4, 5)}
    assert wit.image_gcd == 2
    values = dict(wit.sampled_values)
    assert values[(0, 0)] == 0
    assert sorted(abs(v) for v in values.values()) == [0, 2, 2, 4, 4, 6, 6, 8, 8]


def test_witness_ladder3_kills_torsion(graphs):
    g = graphs["ladder3"]
    orb = h.orbit_analysis(g, _enumerated(graphs, "ladder3"), 8)
    wit = h.extract_homomorphism(orb, g)
    assert all(x[1] == 0 for x in orb.stabilizer_sample)
    assert wit.image_gcd == 1


def test_witness_refuses_a_non_additive_fixed_map(graphs):
    g = graphs["integers"]
    orb = h.orbit_analysis(g, _enumerated(graphs, "integers"), 8)
    f = orb.fixed
    # f(5) + 1 breaks f(1 * 4) = f(1) + f(4) on the fixed map y -> y
    bumped = h.ValueMap(f.domain, tuple(v + (y == 5) for y, v in f.items), f.radius)
    with pytest.raises(h.AdditivityViolation):
        h.extract_homomorphism(replace(orb, fixed=bumped), g)


def test_witness_sparse_generators():
    g = h.cayley_graph(h.GroupSpec("integers", generators=(2, -2, 3, -3)))
    horos = h.enumerate_horofunction_restrictions(g, 14, 56, 8)
    orb = h.orbit_analysis(g, horos, 8)
    wit = h.extract_homomorphism(orb, g)
    assert wit.image_gcd == 1
    assert all(x % 3 == 0 for x in orb.stabilizer_sample)


def test_witness_additivity_not_assumed(graphs):
    # independently re-verify f(hx) = f(h) + f(x) on the emitted samples
    g = graphs["ladder"]
    orb = h.orbit_analysis(g, _enumerated(graphs, "ladder"), 8)
    wit = h.extract_homomorphism(orb, g)
    fd = wit.base.as_dict()
    grp = g.group
    ball = h.layer_decomposition(g, orb.radius).ball()
    checked = 0
    for hh, vh in wit.sampled_values:
        for x in ball:
            p = grp.mul(hh, x)
            if p in fd:
                assert fd[p] == vh + fd[x]
                checked += 1
    assert checked > 100


def test_witness_rescaled_image_generates(graphs):
    g = graphs["dihedral"]
    orb = h.orbit_analysis(g, _enumerated(graphs, "dihedral"), 8)
    wit = h.extract_homomorphism(orb, g)
    from math import gcd
    d = 0
    for _, v in wit.sampled_values:
        d = gcd(d, abs(v) // wit.image_gcd)
    assert d == 1


def test_coset_shifts_cover_classes(graphs):
    g = graphs["ladder"]
    orb = h.orbit_analysis(g, _enumerated(graphs, "ladder"), 8)
    wit = h.extract_homomorphism(orb, g)
    assert len(wit.coset_shifts) == orb.index_estimate
    fd = wit.base.as_dict()
    for rep, shift in wit.coset_shifts:
        assert fd[rep] == shift
