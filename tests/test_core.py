"""Core space/map operations against hand-expanded and brute-force oracles."""
import itertools
import os
import pickle
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import ftop
from ftop.errors import MapError, SpaceError
from ftop.registry import (
    EMPTY,
    INDISCRETE2,
    LAMBDA,
    M,
    M_TO_LAMBDA,
    POINT,
    SIERPINSKI,
    registry,
)
from ftop.space import (
    CMap,
    Space,
    compose,
    coproduct,
    cylinder,
    identity,
    is_isomorphism,
    lam,
    map_from_json,
    map_from_tuple,
    map_to_json,
    product,
    product_map,
    product_projections,
    quotient,
    space_from_json,
    space_to_json,
    sub,
)
from ftop.universe import Universe, enumerate_spaces, get_universe, map_key, space_key


def brute_closure(points, rel, subset):
    """Oracle: grow the subset along the relation until stable."""
    out = set(subset)
    while True:
        nxt = {y for x in out for (a, y) in rel if a == x}
        if nxt <= out:
            return frozenset(out)
        out |= nxt


def random_space(rng, max_points=5, pool="abcdefgh"):
    n = rng.randint(0, max_points)
    pts = list(pool[:n])
    arrows = []
    for x in pts:
        for y in pts:
            if x != y and rng.random() < 0.3:
                arrows.append((x, y))
    return Space.from_arrows(pts, arrows)


class TestSpaceInvariants:
    def test_rejects_duplicate_points(self):
        with pytest.raises(SpaceError):
            Space(["a", "a"], [])

    def test_rejects_unknown_point_in_rel(self):
        with pytest.raises(SpaceError):
            Space(["a"], [("a", "b")])

    def test_rejects_nontransitive_rel(self):
        with pytest.raises(SpaceError):
            Space(["a", "b", "c"], [("a", "b"), ("b", "c")])

    def test_rejects_bad_identifier(self):
        with pytest.raises(SpaceError):
            Space(["a b"], [])

    def test_from_arrows_closes(self):
        x = Space.from_arrows("abc", [("a", "b"), ("b", "c")])
        assert ("a", "c") in x.rel
        assert all((p, p) in x.rel for p in "abc")

    def test_from_arrows_does_not_go_through_the_constructor(self, monkeypatch):
        def refuse(self, points, rel):
            raise AssertionError("Space.__init__ called")

        monkeypatch.setattr(Space, "__init__", refuse)
        x = Space.from_arrows("abc", [("a", "b"), ("b", "c")])
        assert x.points == ("a", "b", "c") and ("a", "c") in x.rel

    def test_from_arrows_equals_the_constructor_on_the_closed_relation(self):
        rng = random.Random(11)
        for _ in range(300):
            pts = rng.sample("abcdefg", rng.randint(0, 7))
            arrows = [(a, b) for a in pts for b in pts if rng.random() < 0.25]
            closed = {(p, p) for p in pts} | set(arrows)
            while True:  # oracle: add composites until none is new
                more = {(a, d) for a, b in closed for c, d in closed if b == c} - closed
                if not more:
                    break
                closed |= more
            x, y = Space.from_arrows(pts, arrows), Space(pts, sorted(closed))
            assert x.points == y.points == tuple(pts)
            assert x.rel == y.rel == closed
            assert (x.up, x.down, hash(x)) == (y.up, y.down, hash(y))

    # inputs with two faults: which one each constructor reports
    @pytest.mark.parametrize("points, rel, message", [
        (["a", "a"], [("a", "z")], "duplicate point 'a'"),
        (["a", "b", "c", "d e"], [("a", "b"), ("b", "c")], "invalid point identifier 'd e'"),
        (["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "z")],
         "relation mentions unknown point 'z'"),
        (["-", "a", "a"], [], "invalid point identifier '-'"),
        (["a", "a", "-"], [], "duplicate point 'a'"),
        ([1, "a"], [("a", "b")], "invalid point identifier 1"),
        (["a", "b", "c", "d"], [("d", "c"), ("c", "b"), ("a", "b"), ("b", "a")],
         "relation is not transitive: ('c', 'a') is implied but missing"),
        (["a"], [("a", "y"), ("a", "z"), ("b", "a")], "relation mentions unknown point 'y'"),
    ])
    def test_constructor_reports_the_first_fault(self, points, rel, message):
        with pytest.raises(SpaceError) as err:
            Space(points, rel)
        assert str(err.value) == message

    def test_unknown_point_message_does_not_depend_on_the_hash_seed(self):
        # the first unknown point in input order, not in a set's order
        code = ("from ftop.space import Space\n"
                "try:\n    Space(['a'], [('a', 'y'), ('a', 'z'), ('b', 'a')])\n"
                "except Exception as err:\n    print(err)\n")
        src = str(Path(ftop.__file__).resolve().parents[1])
        outs = {
            subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           timeout=60, env=dict(os.environ, PYTHONHASHSEED=str(seed),
                                                PYTHONPATH=src)).stdout
            for seed in (0, 1, 2)
        }
        assert outs == {"relation mentions unknown point 'y'\n"}

    @pytest.mark.parametrize("points, arrows, message", [
        (["a", "a"], [("a", "z")], "arrow mentions unknown point 'z'"),
        (["-", "x"], [("x", "q")], "arrow mentions unknown point 'q'"),
        (["a", "b", "-"], [("a", "b")], "invalid point identifier '-'"),
        (["a", "a", "b"], [("b", "a")], "duplicate point 'a'"),
        (["a", "b", "a", "c d"], [("a", "b"), ("b", "a")], "duplicate point 'a'"),
        ([1, "a"], [("a", 1)], "invalid point identifier 1"),
    ])
    def test_from_arrows_reports_the_first_fault(self, points, arrows, message):
        with pytest.raises(SpaceError) as err:
            Space.from_arrows(points, arrows)
        assert str(err.value) == message

    def test_random_spaces_are_reflexive_transitive(self):
        rng = random.Random(7)
        for _ in range(200):
            x = random_space(rng)
            for p in x.points:
                assert (p, p) in x.rel
            for a, b in x.rel:
                for c, d in x.rel:
                    if b == c:
                        assert (a, d) in x.rel

    def test_equality_ignores_point_order(self):
        x = Space(["a", "b"], [("a", "b"), ("a", "a"), ("b", "b")])
        y = Space(["b", "a"], [("a", "b"), ("a", "a"), ("b", "b")])
        assert x == y and hash(x) == hash(y)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            SIERPINSKI.points = ()


class TestClosureAndOpens:
    def test_closure_of_open_point_of_m(self):
        assert M.closure({"u"}) == {"u", "a", "x"}

    def test_closure_of_closed_point_of_sierpinski(self):
        assert SIERPINSKI.closure({"c"}) == {"c"}

    def test_closure_of_lambda_open_point(self):
        # oracle: expand the generating arrows of the 3-point zigzag
        rel = {("w", "a"), ("w", "b"), ("a", "a"), ("b", "b"), ("w", "w")}
        assert brute_closure("awb", rel, {"w"}) == {"w", "a", "b"}
        assert LAMBDA.closure({"w"}) == {"w", "a", "b"}

    def test_closure_rejects_stray_point(self):
        with pytest.raises(SpaceError):
            M.closure({"nope"})

    def test_open_closed_examples(self):
        assert SIERPINSKI.is_open({"o"})
        assert not LAMBDA.is_open({"a"})
        assert M.is_closed({"a", "x", "b"})

    def test_min_nbhd_examples(self):
        assert SIERPINSKI.min_nbhd("o") == {"o"}
        assert LAMBDA.min_nbhd("a") == {"a", "w"}
        assert M.min_nbhd("x") == {"x", "u", "v"}

    def test_closure_laws_on_random_spaces(self):
        rng = random.Random(11)
        for _ in range(100):
            x = random_space(rng)
            pts = list(x.points)
            a = frozenset(p for p in pts if rng.random() < 0.5)
            b = frozenset(p for p in pts if rng.random() < 0.5)
            ca = x.closure(a)
            assert a <= ca
            assert x.closure(ca) == ca
            assert x.closure(a | b) == ca | x.closure(b)
            assert x.closure(a) == brute_closure(pts, x.rel, a)

    def test_open_iff_union_of_min_nbhds(self):
        rng = random.Random(13)
        for _ in range(100):
            x = random_space(rng, max_points=4)
            for mask in range(1 << len(x.points)):
                a = frozenset(
                    p for k, p in enumerate(x.points) if (mask >> k) & 1
                )
                union = frozenset().union(*(x.min_nbhd(p) for p in a)) if a else frozenset()
                assert x.is_open(a) == (union == a)


class TestProductCoproductQuotient:
    def test_product_of_sierpinski_squares(self):
        p = product(SIERPINSKI, SIERPINSKI)
        assert len(p.points) == 4
        assert len(p.rel) == 9  # componentwise: 3 pairs x 3 pairs

    def test_product_projections_are_monotone(self):
        p = product(SIERPINSKI, LAMBDA)
        fst, snd = product_projections(p, SIERPINSKI, LAMBDA)
        assert fst.dst == SIERPINSKI and snd.dst == LAMBDA

    def test_coproduct_of_points_is_discrete(self):
        c = coproduct(POINT, POINT)
        assert len(c.points) == 2
        assert c.rel == frozenset((p, p) for p in c.points)

    def test_product_with_point_is_isomorphic(self):
        for x in (M, LAMBDA, SIERPINSKI, EMPTY):
            assert space_key(product(x, POINT)) == space_key(x)

    def test_quotient_collapse_sierpinski(self):
        q, proj = quotient(SIERPINSKI, [["o", "c"]])
        assert len(q.points) == 1
        assert proj.assign == {"o": "o", "c": "o"}

    def test_quotient_m_gives_lambda(self):
        q, proj = quotient(M, [["u", "x", "v"], ["a"], ["b"]])
        assert space_key(q) == space_key(LAMBDA)
        assert map_key(proj) == map_key(M_TO_LAMBDA)

    def test_quotient_by_singletons_is_identity(self):
        for x in (M, LAMBDA, SIERPINSKI):
            q, proj = quotient(x, [[p] for p in x.points])
            assert q == x
            assert is_isomorphism(proj)

    def test_quotient_rejects_non_partition(self):
        with pytest.raises(SpaceError):
            quotient(SIERPINSKI, [["o"]])
        with pytest.raises(SpaceError):
            quotient(SIERPINSKI, [["o", "c"], ["c"]])

    def test_quotient_relation_matches_open_set_oracle(self):
        # every set partition of every space with at most 5 points
        for x in enumerate_spaces(5):
            for blocks in set_partitions(list(x.points)):
                q, _ = quotient(x, blocks)
                assert q.rel == quotient_rel_by_opens(x, blocks)

    def test_quotient_topology_is_final_on_random_spaces(self):
        # a set is open in the quotient iff its preimage is open
        rng = random.Random(17)
        for _ in range(100):
            x = random_space(rng, max_points=5)
            if not x.points:
                continue
            pts = list(x.points)
            rng.shuffle(pts)
            k = rng.randint(1, len(pts))
            blocks = [pts[i::k] for i in range(k)]
            blocks = [b for b in blocks if b]
            q, proj = quotient(x, blocks)
            for m in range(1 << len(q.points)):
                u = [p for i, p in enumerate(q.points) if (m >> i) & 1]
                pre = [p for p in x.points if proj.assign[p] in set(u)]
                assert q.is_open(u) == x.is_open(pre)


def set_partitions(items):
    """Every partition of the list ``items`` into nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for k in range(len(part)):
            yield part[:k] + [[first] + part[k]] + part[k + 1:]
        yield [[first]] + part


def quotient_rel_by_opens(x, blocks):
    """Oracle: the quotient relation read off the quotient's open sets, the
    families of blocks whose union is open in x.  A block is named by its
    first point in x's order, as ``quotient`` names it."""
    names = [min(c, key=x.points.index) for c in blocks]
    k = len(blocks)
    opens = [
        m for m in range(1 << k)
        if x.is_open([p for i in range(k) if (m >> i) & 1 for p in blocks[i]])
    ]
    return frozenset(
        (names[a], names[b])
        for a in range(k)
        for b in range(k)
        if all(not (o >> b) & 1 or (o >> a) & 1 for o in opens)
    )


def cylinder_by_quotient(p):
    """Oracle: the mapping cylinder as a quotient of (Y x S) + B."""
    y, b = p.src, p.dst
    prod = product(y, SIERPINSKI)
    pairs = prod._lazy["pairs"]
    total = coproduct(prod, b)
    # coproduct may have primed the b-part names; recover them positionally
    bnames = total.points[len(prod.points):]
    bname = dict(zip(b.points, bnames))
    open_slice = {}
    glue = {q: [bname[q]] for q in b.points}
    for nm, (yp, s) in zip(prod.points, pairs):
        if s == "o":
            open_slice[yp] = nm
        else:
            glue[p.assign[yp]].append(nm)
    classes = [[open_slice[yp]] for yp in y.points] + [glue[q] for q in b.points]
    q_space, q_proj = quotient(total, classes)
    proj = {}
    for yp in y.points:
        proj[q_proj.assign[open_slice[yp]]] = p.assign[yp]
    for q in b.points:
        proj[q_proj.assign[bname[q]]] = q
    return q_space, CMap(q_space, b, proj)


class TestCylinder:
    def test_cone_over_point_is_sierpinski(self):
        cyl, proj = cylinder(identity(POINT))
        assert len(cyl.points) == 2
        assert space_key(cyl) == space_key(SIERPINSKI)
        assert proj.dst == POINT

    def test_cylinder_of_point_map_orientation(self):
        cyl, _ = cylinder(identity(POINT))
        y_copy, base = cyl.points[0], cyl.points[1]
        assert cyl.is_open({y_copy})
        assert cyl.is_closed({base})

    def test_cylinder_of_sierpinski_collapse(self):
        cyl, proj = cylinder(M_TO_LAMBDA)
        assert len(cyl.points) == len(M.points) + len(LAMBDA.points)

    def test_open_family_matches_description(self):
        cases = [
            identity(POINT),
            CMap(POINT, SIERPINSKI, {"o": "o"}),  # non-surjective base
            M_TO_LAMBDA,
            CMap(EMPTY, SIERPINSKI, {}),
        ]
        for p in cases:
            cyl, _ = cylinder(p)
            y, b = p.src, p.dst
            yn = len(y.points)
            described = set()
            for um in y.open_masks():
                for vm in b.open_masks():
                    mask = um
                    for k, q in enumerate(b.points):
                        if (vm >> k) & 1:
                            mask |= 1 << (yn + k)
                            for i, yp in enumerate(y.points):
                                if p.assign[yp] == q:
                                    mask |= 1 << i
                    described.add(mask)
            assert set(cyl.open_masks()) == described

    def test_matches_quotient_construction(self):
        for p in (identity(POINT), M_TO_LAMBDA, CMap(POINT, SIERPINSKI, {"o": "o"})):
            direct, dproj = cylinder(p)
            viaq, qproj = cylinder_by_quotient(p)
            assert space_key(direct) == space_key(viaq)
            assert map_key(dproj) == map_key(qproj)


class TestLamSub:
    def test_small_cases_match_named_spaces(self):
        assert space_key(lam(1)) == space_key(LAMBDA)
        assert space_key(lam(2)) == space_key(M)

    def test_lam4_counts(self):
        x = lam(4)
        assert len(x.points) == 9
        open_pts = [p for p in x.points if x.is_open({p})]
        assert len(open_pts) == 4

    def test_sub1_is_the_collapse_of_the_middle(self):
        assert map_key(sub(1)) == map_key(M_TO_LAMBDA)

    def test_sub_rejects_bad_k(self):
        with pytest.raises(SpaceError):
            lam(0)
        with pytest.raises(SpaceError):
            sub(0)


class TestMaps:
    def test_monotonicity_enforced(self):
        with pytest.raises(MapError):
            CMap(SIERPINSKI, SIERPINSKI, {"o": "c", "c": "o"})

    def test_totality_enforced(self):
        with pytest.raises(MapError):
            CMap(SIERPINSKI, SIERPINSKI, {"o": "o"})

    def test_compose_identity(self):
        f = M_TO_LAMBDA
        assert compose(identity(M), f) == f
        assert compose(f, identity(LAMBDA)) == f

    def test_compose_endpoint_mismatch(self):
        with pytest.raises(MapError):
            compose(M_TO_LAMBDA, M_TO_LAMBDA)

    def test_is_isomorphism(self):
        assert not is_isomorphism(M_TO_LAMBDA)
        assert is_isomorphism(identity(M))
        # homeomorphism with renaming
        twist = CMap(INDISCRETE2, INDISCRETE2, {"a": "b", "b": "a"})
        assert is_isomorphism(twist)

    def test_product_map(self):
        f = product_map(M_TO_LAMBDA, identity(SIERPINSKI))
        assert len(f.src.points) == 10
        assert len(f.dst.points) == 6


def reordered(x):
    """The same space with its points listed back to front."""
    return Space(reversed(x.points), x.rel)


def name_compose(f, g):
    """Oracle composite "f then g", through point names only."""
    fa, ga = f.assign, g.assign
    return {p: ga[q] for p, q in fa.items()}


class TestLeanMap:
    """A map stores only its index tuple; names are derived from it."""

    def test_equal_across_reordered_endpoints(self):
        f = M_TO_LAMBDA
        for src, dst in ((reordered(M), LAMBDA), (M, reordered(LAMBDA))):
            g = CMap(src, dst, f.assign)
            assert f.as_tuple() != g.as_tuple()
            assert f == g and g == f
            assert hash(f) == hash(g)
            assert len({f, g}) == 1

    def test_equal_tuples_over_reordered_endpoints_can_differ(self):
        two = Space.from_arrows("ab", [])
        f = CMap(two, two, {"a": "a", "b": "a"})
        g = map_from_tuple(two, reordered(two), f.as_tuple())
        assert g.assign == {"a": "b", "b": "b"}
        assert f != g

    def test_hash_matches_the_name_formula(self):
        u = get_universe(3)
        for k in range(len(u)):
            f = u.map_at(k)
            assert hash(f) == hash((f.src, f.dst, frozenset(f.assign.items())))

    def test_compose_through_a_reordered_middle(self):
        mid = reordered(LAMBDA)
        back = CMap(mid, LAMBDA, {p: p for p in LAMBDA.points})
        h = compose(M_TO_LAMBDA, back)
        assert h == M_TO_LAMBDA
        assert h.assign == name_compose(M_TO_LAMBDA, back)
        for g in (CMap(mid, POINT, {p: "o" for p in mid.points}),
                  CMap(mid, SIERPINSKI, {"a": "c", "w": "o", "b": "o"})):
            assert compose(M_TO_LAMBDA, g).assign == name_compose(M_TO_LAMBDA, g)

    def test_compose_matches_names_on_universe_pairs(self):
        u = get_universe(2)
        maps = [u.map_at(k) for k in range(len(u))]
        for f in maps:
            for g in maps:
                if f.dst == g.src:
                    assert compose(f, g).assign == name_compose(f, g)

    def test_call_and_image(self):
        f = CMap(reordered(M), LAMBDA, M_TO_LAMBDA.assign)
        assert [f(p) for p in M.points] == [M_TO_LAMBDA.assign[p] for p in M.points]
        assert f.image() == frozenset({"a", "w", "b"})
        with pytest.raises(MapError, match="not a point of the domain"):
            f("w")

    def test_is_isomorphism_needs_a_monotone_inverse(self):
        squash = CMap(Space.from_arrows("ab", []), SIERPINSKI, {"a": "o", "b": "c"})
        assert not is_isomorphism(squash)
        u = get_universe(3)
        for k in range(len(u)):
            f = u.map_at(k)
            fa = f.assign
            back = {q: p for p, q in fa.items()}
            want = len(back) == len(fa) == len(f.dst.points) and all(
                (back[a], back[b]) in f.src.rel for a, b in f.dst.rel
            )
            assert is_isomorphism(f) == want

    def test_tuple_of_wrong_length(self):
        with pytest.raises(MapError, match="2 entries for a 3-point domain"):
            map_from_tuple(LAMBDA, POINT, (0, 0))
        with pytest.raises(MapError, match="4 entries for a 3-point domain"):
            map_from_tuple(LAMBDA, POINT, (0, 0, 0, 0))

    def test_tuple_index_out_of_range(self):
        with pytest.raises(MapError, match="sends 'w' to 1, outside a 1-point codomain"):
            map_from_tuple(LAMBDA, POINT, (0, 1, 0))
        with pytest.raises(MapError, match="sends 'a' to -1, outside"):
            map_from_tuple(LAMBDA, POINT, (-1, 0, 0))

    def test_non_monotone_tuple_names_the_first_pair_of_the_relation(self):
        chain = Space.from_arrows("abc", [("a", "b"), ("b", "c")])
        dst = Space.from_arrows("xyz", [("x", "y")])
        text = (
            "not monotone: 'a'->'c' in the domain but 'x'->'z' fails in the codomain"
        )
        with pytest.raises(MapError) as by_tuple:
            map_from_tuple(chain, dst, (0, 1, 2))
        with pytest.raises(MapError) as by_names:
            CMap(chain, dst, {"a": "x", "b": "y", "c": "z"})
        assert str(by_tuple.value) == str(by_names.value) == text

    def test_pickle_round_trip(self):
        for f in (M_TO_LAMBDA, CMap(reordered(M), LAMBDA, M_TO_LAMBDA.assign)):
            g = pickle.loads(pickle.dumps(f))
            assert g == f and hash(g) == hash(f)
            assert g.as_tuple() == f.as_tuple()
            assert f.__getstate__() == (f.src, f.dst, tuple(sorted(f.assign.items())))

    def test_editing_assign_leaves_the_map_unchanged(self):
        f = CMap(SIERPINSKI, SIERPINSKI, {"o": "o", "c": "c"})
        g = identity(SIERPINSKI)
        f.assign["c"] = "o"
        assert f.assign == {"o": "o", "c": "c"}
        assert f == g and hash(f) == hash(g)
        assert f.as_tuple() == g.as_tuple()

    def test_immutable(self):
        with pytest.raises(AttributeError):
            M_TO_LAMBDA._t = (0, 0, 0, 0, 0)
        with pytest.raises(AttributeError):
            M_TO_LAMBDA.assign = {}

    def test_universe_maps_are_small(self):
        u = get_universe(3)
        fresh = Universe(3, u.spaces, u.blocks)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            built = [fresh.map_at(k) for k in range(len(fresh))]
            per_map = (tracemalloc.get_traced_memory()[0] - before) / len(built)
        finally:
            tracemalloc.stop()
        assert per_map <= 200


class TestContinuityDictionary:
    def test_monotone_iff_preimages_of_opens_open(self):
        # cross-check the preorder/topology dictionary on all functions
        # between spaces of up to 3 points
        from ftop.universe import get_universe

        spaces = get_universe(3).spaces
        for x in spaces:
            for y in spaces:
                if len(x.points) > 3 or len(y.points) > 3:
                    continue
                for values in itertools.product(y.points, repeat=len(x.points)):
                    assign = dict(zip(x.points, values))
                    monotone = all(
                        (assign[a], assign[b]) in y.rel for a, b in x.rel
                    )
                    continuous = all(
                        x.is_open([p for p in x.points if assign[p] in o])
                        for o in y.open_sets()
                    )
                    assert monotone == continuous


class TestRegistry:
    def test_lookup_by_alias(self):
        reg = registry()
        assert reg.map("M→Λ") == M_TO_LAMBDA
        assert reg.map("∅→{o}").src == EMPTY
        assert reg.map("{c}-->{o->c}").assign == {"c": "c"}
        assert reg.space("Λ") == LAMBDA
        assert reg.map("sub(2)").src == lam(4)
        assert reg.space("lam(3)") == lam(3)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            registry().space("nonsense")
        with pytest.raises(KeyError):
            registry().map("nonsense")


class TestJson:
    def test_space_round_trip(self):
        for x in (M, LAMBDA, EMPTY, INDISCRETE2):
            assert space_from_json(space_to_json(x)) == x

    def test_map_round_trip(self):
        for f in (M_TO_LAMBDA, identity(SIERPINSKI), CMap(EMPTY, POINT, {})):
            assert map_from_json(map_to_json(f)) == f

    def test_json_requires_closed_rel(self):
        with pytest.raises(SpaceError):
            space_from_json({"points": ["a", "b", "c"], "rel": [["a", "b"], ["b", "c"]]})
