"""Lifting solver against naive assignment-scan oracles."""
import gc
import itertools
import os
import random
import tracemalloc
from collections import Counter
from functools import reduce
from operator import and_

import pytest

from ftop._solve import _search, _table, enum_hom, hom
from ftop.errors import CapacityError, MapError
from ftop.lifting import (
    BoundedClass,
    LiftCertificate,
    Square,
    _blocks_in,
    _keep,
    _left_decide,
    _left_kernel,
    _pays,
    _pinned,
    _right_decide,
    _right_kernel,
    _squares,
    _step,
    factor_search,
    factoring_maps,
    fill,
    is_retract_of,
    lifting_matrix,
    lifts,
    lifts_bool,
    monotone_maps,
    relative_orthogonal,
    squares,
)
from ftop.parser import parse_map
from ftop.registry import (
    EMPTY,
    EMPTY_TO_POINT,
    LAMBDA,
    LAMBDA_TO_POINT,
    M,
    M_TO_LAMBDA,
    OPEN_POINT_INCL,
    POINT,
    SIERPINSKI,
    SUBSET_ARCHETYPE_BWD,
    SUBSET_ARCHETYPE_FWD,
)
from ftop.space import (
    CMap, Space, _fibers, compose, identity, is_isomorphism, map_from_tuple, sub,
)
from ftop.properties import injective, surjective
from ftop.universe import Universe, _space_universe, enumerate_maps, get_universe


def spaces_alive(prefix):
    """Live spaces with a point named ``prefix...``, after a collection."""
    gc.collect()
    return sum(
        isinstance(o, Space) and any(p.startswith(prefix) for p in o.points)
        for o in gc.get_objects()
    )


def all_functions(src, dst):
    """Oracle: every total assignment src -> dst, monotone or not."""
    if not src.points:
        yield {}
        return
    for values in itertools.product(dst.points, repeat=len(src.points)):
        yield dict(zip(src.points, values))


def is_monotone(src, dst, assign):
    return all((assign[a], assign[b]) in dst.rel for a, b in src.rel)


def matrix_word(base, word, n, rows):
    """Oracle: the universe indices of ``base``'s class for ``word``, the
    first letter by direct lifts against the base, each later letter read
    off the pairwise lifting matrix ``rows``."""
    u = get_universe(n)
    maps = [u.map_at(k) for k in range(len(u))]
    everything = (1 << len(u)) - 1
    side = word[0]
    cur = sum(
        1 << k for k, m in enumerate(maps)
        if all(lifts_bool(m, b) if side == "l" else lifts_bool(b, m) for b in base)
    )
    for letter in word[1:]:
        if letter == "r":  # the maps every member lifts against: AND of the rows
            cur = reduce(and_, (row for k, row in enumerate(rows) if (cur >> k) & 1), everything)
        else:  # the maps lifting against every member: rows that hold them all
            cur = sum(1 << j for j, row in enumerate(rows) if row & cur == cur)
    return tuple(k for k in range(len(u)) if (cur >> k) & 1)


def words_up_to(size):
    return ["".join(w) for k in range(1, size + 1) for w in itertools.product("lr", repeat=k)]


BASES = {
    "empty_to_point": [EMPTY_TO_POINT],
    "m_to_lambda": [M_TO_LAMBDA],
    "two_maps": [EMPTY_TO_POINT, OPEN_POINT_INCL],
}


def naive_fill_exists(sq):
    """Oracle: scan all |Y|^|X| assignments for a diagonal."""
    i, g, f, phi = sq.i, sq.g, sq.f, sq.phi
    X, Y = i.dst, g.src
    for h in all_functions(X, Y):
        if not is_monotone(X, Y, h):
            continue
        if any(h[i.assign[a]] != f.assign[a] for a in i.src.points):
            continue
        if any(g.assign[h[x]] != phi.assign[x] for x in X.points):
            continue
        return True
    return False


class TestMonotoneMaps:
    def test_sierpinski_endomaps(self):
        maps = monotone_maps(SIERPINSKI, SIERPINSKI)
        assert len(maps) == 3  # both constants and the identity; the swap fails
        assigns = {tuple(sorted(m.assign.items())) for m in maps}
        assert (("c", "o"), ("o", "o")) in assigns  # constant at the open point

    def test_empty_domain_has_one_map(self):
        for x in (EMPTY, POINT, M):
            assert len(monotone_maps(EMPTY, x)) == 1

    def test_point_into_m(self):
        assert len(monotone_maps(POINT, M)) == 5

    def test_counts_match_naive_filter(self):
        u = get_universe(3)
        for x in u.spaces:
            for y in u.spaces:
                naive = sum(
                    1 for f in all_functions(x, y) if is_monotone(x, y, f)
                )
                assert len(monotone_maps(x, y)) == naive

    def test_deterministic_order(self):
        a = [m.assign for m in monotone_maps(M, LAMBDA)]
        b = [m.assign for m in monotone_maps(M, LAMBDA)]
        assert a == b


class TestSquares:
    def test_empty_to_point_squares_are_codomain_points(self):
        sqs = squares(EMPTY_TO_POINT, M_TO_LAMBDA)
        assert len(sqs) == len(LAMBDA.points)

    def test_identity_squares_pair_with_tops(self):
        sqs = squares(identity(M), M_TO_LAMBDA)
        tops = monotone_maps(M, M)
        assert len(sqs) == len(tops)
        for sq in sqs:
            assert sq.phi == compose(sq.f, sq.g)

    def test_count_matches_double_loop(self):
        i = OPEN_POINT_INCL
        g = M_TO_LAMBDA
        count = 0
        for f in monotone_maps(i.src, g.src):
            for phi in monotone_maps(i.dst, g.dst):
                if compose(f, g) == compose(i, phi):
                    count += 1
        assert len(squares(i, g)) == count

    def test_no_squares_into_an_empty_domain(self):
        # a nonempty A has no map into the empty domain of g
        assert squares(OPEN_POINT_INCL, EMPTY_TO_POINT) == []
        assert lifts_bool(M_TO_LAMBDA, EMPTY_TO_POINT)
        assert len(squares(EMPTY_TO_POINT, EMPTY_TO_POINT)) == 1

    def test_square_validates_commutativity(self):
        f = monotone_maps(POINT, M)[0]
        phi_bad = CMap(SIERPINSKI, LAMBDA, {"o": "w", "c": "a"})
        ok_any = False
        for f2 in monotone_maps(POINT, M):
            try:
                Square(OPEN_POINT_INCL, M_TO_LAMBDA, f2, phi_bad)
                ok_any = True
            except MapError:
                pass
        # phi sending c to the closed point a forces f to pick u upstairs
        assert ok_any


class TestFill:
    def test_iso_left_leg_always_fills(self):
        for sq in squares(identity(M), M_TO_LAMBDA):
            h = fill(sq)
            assert h is not None
            assert compose(sq.i, h) == sq.f
            assert compose(h, sq.g) == sq.phi

    def test_normality_failure_of_lambda(self):
        # the square over the 3-point zigzag with identity base is unfillable
        i = CMap(EMPTY, LAMBDA, {})
        f = CMap(EMPTY, M, {})
        phi = identity(LAMBDA)
        sq = Square(i, M_TO_LAMBDA, f, phi)
        assert fill(sq) is None
        assert not naive_fill_exists(sq)  # 5^3 scan

    def test_constant_base_square_fills(self):
        i = CMap(EMPTY, SIERPINSKI, {})
        f = CMap(EMPTY, M, {})
        phi = CMap(SIERPINSKI, LAMBDA, {"o": "a", "c": "a"})
        sq = Square(i, M_TO_LAMBDA, f, phi)
        h = fill(sq)
        assert h is not None
        assert naive_fill_exists(sq)

    def test_fill_agrees_with_naive_oracle_on_samples(self):
        rng = random.Random(23)
        u = get_universe(3)
        pool = range(len(u))
        checked = 0
        while checked < 150:
            i = u.map_at(rng.choice(pool))
            g = u.map_at(rng.choice(pool))
            sqs = squares(i, g)
            if not sqs:
                continue
            sq = sqs[rng.randrange(len(sqs))]
            checked += 1
            assert (fill(sq) is not None) == naive_fill_exists(sq)


class TestLifts:
    def test_counterexample_recheck_searches_afresh(self, monkeypatch):
        import ftop.lifting as lifting

        # a square that fills, presented as a counterexample, while fill
        # says "no filler": the recheck must not take fill's word for it
        i = parse_map("{o->c}-->{o->c}")
        g = parse_map("{a<-u->x<-v->b}-->{a<-u=x=v->b}")
        assert lifts(i, g).holds
        sq = squares(i, g)[-1]
        monkeypatch.setattr(lifting, "first_solution", lambda X, Y, cand: None)
        assert fill(sq) is None  # fill searches through first_solution
        assert not LiftCertificate(i, g, False, 1, (), sq).recheck()

    def test_surjectivity_encoding_small(self):
        from ftop.properties import surjective

        u = get_universe(3)
        for k in range(len(u)):
            g = u.map_at(k)
            assert lifts_bool(EMPTY_TO_POINT, g) == surjective(g)

    def test_normality_examples(self):
        assert not lifts_bool(CMap(EMPTY, LAMBDA, {}), M_TO_LAMBDA)
        assert lifts_bool(CMap(EMPTY, SIERPINSKI, {}), M_TO_LAMBDA)

    def test_certificate_holds_side(self):
        cert = lifts(EMPTY_TO_POINT, M_TO_LAMBDA)
        assert cert.holds
        assert cert.squares == len(squares(EMPTY_TO_POINT, M_TO_LAMBDA))
        assert len(cert.fillers) == cert.squares
        assert cert.recheck()
        js = cert.to_json()
        assert js["holds"] is True and js["counterexample"] is None

    def test_certificate_failure_side(self):
        i = CMap(EMPTY, LAMBDA, {})
        cert = lifts(i, M_TO_LAMBDA)
        assert not cert.holds
        assert cert.counterexample is not None
        assert not naive_fill_exists(cert.counterexample)
        assert cert.recheck()
        js = cert.to_json()
        assert js["counterexample"] is not None

    def test_counterexample_is_canonically_least(self):
        i = CMap(EMPTY, LAMBDA, {})
        cert = lifts(i, M_TO_LAMBDA)
        for sq in squares(i, M_TO_LAMBDA):
            if fill(sq) is None:
                assert sq == cert.counterexample
                break

    def test_isos_lift_against_everything(self):
        u = get_universe(3)
        rng = random.Random(5)
        iso = identity(LAMBDA)
        for _ in range(50):
            g = u.map_at(rng.randrange(len(u)))
            assert lifts_bool(iso, g)

    def test_every_map_lifts_both_ways_against_every_isomorphism(self):
        # the search that word steps and matrix rows skip for isomorphisms
        u = get_universe(2)
        maps = [u.map_at(k) for k in range(len(u))]
        isos = [m for m in maps if is_isomorphism(m)]
        assert len(isos) == len(u.spaces)
        for m in maps:
            for iso in isos:
                assert lifts_bool(m, iso) and lifts_bool(iso, m)

    def test_queries_leave_no_space_alive(self):
        # fixed partners on both sides, fresh parsed maps: no cache may keep
        # a query's spaces alive, or a long-lived process grows per query
        for k in range(40):
            f = parse_map(f"{{q_{k}a<-q_{k}u->q_{k}b}}-->{{q_{k}a=q_{k}u->q_{k}b}}")
            assert lifts(f, M_TO_LAMBDA).holds == lifts_bool(f, M_TO_LAMBDA)
            assert lifts(OPEN_POINT_INCL, f).holds == lifts_bool(OPEN_POINT_INCL, f)
        assert spaces_alive("q_") == 2  # the last query's own two
        del f
        assert spaces_alive("q_") == 0

    def test_word_memo_dies_with_the_base_spaces(self):
        # the classes of a base's prefixes sit on its domain X under its
        # codomain's identity; they must go when the codomain goes
        base = parse_map("{w_a<-w_u->w_b}-->{w_a=w_u->w_b}")
        X, t = base.src, base.as_tuple()
        key = ("words", id(base.dst))
        cls = relative_orthogonal([base], "lr", 2)
        assert set(X._lazy[key][1]) == {(t, "l", 2), (t, "lr", 2)}
        del base, cls
        assert spaces_alive("w_") == 1  # X itself
        assert key not in X._lazy

    def test_refuted_sweep_keeps_no_enumeration(self):
        # the fifth square refutes sub(2); enumerations the short-circuit
        # abandons must keep nothing (an eager memo peaks at ~30 MB here).
        # sub(4) is why a direct decision walks instead of counting: the
        # right-row kernel would tabulate all of hom(X, Y) and hom(X, B)
        # first (seconds, ~100 MiB), where the walk stops at an early square
        g = parse_map("{a<->b<->c<->d}-->{a=b=c=d}")
        for f in (sub(2), sub(4)):
            tracemalloc.start()
            try:
                holds = lifts_bool(f, g)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert holds is False
            assert peak < 1 << 20

    def test_parsed_base_leaves_no_space_alive(self):
        # the classes cached on a base die with it
        base = parse_map("{b_a<-b_u->b_b}-->{b_a=b_u->b_b}")
        for word in ("l", "r", "lr"):
            cls = relative_orthogonal([base], word, 2)
        assert spaces_alive("b_") == 2
        del base, cls
        assert spaces_alive("b_") == 0


def forget(i, g):
    """Empty the enumeration memo of (A, Y)."""
    _table(i.src, g.src, "enum").clear()


def oracle_walk(i, g):
    """Oracle: the squares from i to g in canonical order, each filled by a
    fresh search along X's linear extension; it neither reads nor fills the
    enumeration memo of (A, Y).
    (fillers before the first unfillable square, its (phi, f) or None)"""
    A, X, Y, B = i.src, i.dst, g.src, g.dst
    it, fib, fillers = i.as_tuple(), _fibers(g), []
    for phi in hom(X, B):
        over = [fib[b] for b in phi]
        for f in _search(A, Y, [over[x] for x in it], tuple(range(len(A.points)))):
            key = tuple(_pinned(over[:], zip(it, f)))
            h = next(_search(X, Y, key, X.linear_extension()), None)
            if h is None:
                return fillers, (phi, f)
            fillers.append(h)
    return fillers, None


def check_walk(i, g):
    fillers, bad = oracle_walk(i, g)
    forget(i, g)  # the walk under test fills the memo itself
    holds, cert = lifts_bool(i, g), lifts(i, g)
    assert holds == cert.holds == (bad is None)
    assert cert.squares == len(fillers) + (bad is not None)
    if bad is None:
        assert [h.as_tuple() for h in cert.fillers] == fillers
        assert cert.counterexample is None
    else:
        assert cert.fillers == ()
        assert (cert.counterexample.phi.as_tuple(), cert.counterexample.f.as_tuple()) == bad
    # and again from the memo entries those calls left
    assert lifts_bool(i, g) == holds
    assert lifts(i, g) == cert


def filtered_squares(i, g):
    """Oracle: ``_squares`` as every phi of hom(X, B), skipping those with an
    empty fiber at a point of i's image, each with a fresh search for f."""
    it, fib = i.as_tuple(), _fibers(g)
    for phi in hom(i.dst, g.dst):
        over = tuple([fib[b] for b in phi])
        cand = [over[x] for x in it]
        if 0 not in cand:
            for f in _search(i.src, g.src, cand, tuple(range(len(i.src.points)))):
                yield phi, f, over


# pairs whose filler domain X does not list its points along its linear
# extension, and for which a least filler in point order is another map
UNORDERED_PAIRS = (
    ("{a}-->{a,v,w,a->v,w->v}", "{x,y,z,x->z,y->z}-->{x=y=z,w}"),
    ("{a<->b}-->{v,a=b,w,a->v,w->v}", "{x,y,z,x->z,y->z}-->{x=y=z,w}"),
    ("{a}-->{v,w,a,a->v,w->v}", "{x,y,z,x->z,y->z}-->{w,v,x=y=z,w->v,v->w}"),
    ("{a<->b<->c}-->{a=b=c,v,w,a->v,w->v}", "{x,y,z,x->z,y->z}-->{w,v,x=y=z,w->v,v->w}"),
)


class TestSquareWalk:
    def test_every_pair_at_2_matches_a_memo_free_walk(self):
        maps = enumerate_maps(2)
        for i in maps:
            for g in maps:
                check_walk(i, g)

    def test_sampled_pairs_at_3_match_a_memo_free_walk(self):
        maps = enumerate_maps(3)
        rng = random.Random(0)
        for _ in range(2000):
            check_walk(maps[rng.randrange(len(maps))], maps[rng.randrange(len(maps))])

    @pytest.mark.parametrize("pair", UNORDERED_PAIRS)
    def test_pairs_out_of_extension_order_match_a_memo_free_walk(self, pair):
        i, g = map(parse_map, pair)
        X = i.dst
        assert X.linear_extension() != tuple(range(len(X.points)))
        check_walk(i, g)

    def test_squares_skip_the_phis_without_a_fiber(self):
        maps = enumerate_maps(2)
        pairs = [(i, g) for i in maps for g in maps]
        pairs += sampled_pairs(3, 2000)
        for i, g in pairs:
            assert list(_squares(i, g)) == list(filtered_squares(i, g)), (i, g)


class TestRelativeOrthogonal:
    def test_r_class_is_surjections_at_3(self):
        from ftop.properties import surjective

        u = get_universe(3)
        cls = relative_orthogonal([EMPTY_TO_POINT], "r", 3)
        assert cls.exact
        got = set(cls.indices)
        expect = {k for k in range(len(u)) if surjective(u.map_at(k))}
        assert got == expect

    def test_contains_all_isomorphisms(self):
        u = get_universe(2)
        cls = relative_orthogonal([EMPTY_TO_POINT], "r", 2)
        got = set(cls.indices)
        for k in range(len(u)):
            if is_isomorphism(u.map_at(k)):
                assert k in got

    def test_left_class_of_m_to_lambda_at_4(self):
        cls = relative_orthogonal([M_TO_LAMBDA], "l", 4)
        assert CMap(EMPTY, SIERPINSKI, {}) in cls
        assert CMap(EMPTY, LAMBDA, {}) not in cls

    def test_membership_matches_a_scan_of_the_indices(self):
        cls = relative_orthogonal([M_TO_LAMBDA], "l", 2)
        u2, u3 = get_universe(2), get_universe(3)
        assert 0 < len(cls.indices) < len(u2)
        seen = {True: 0, False: 0, None: 0}
        for k in range(len(u3)):
            f = u3.map_at(k)
            idx = u2.index_of_map(f)
            want = idx is not None and any(i == idx for i in cls.indices)
            assert (f in cls) == want
            seen[want if idx is not None else None] += 1
        assert min(seen.values()) > 0  # members, non-members, outside maps
        for k in (cls.indices[0], cls.indices[-1]):
            assert u2.map_at(k) in cls

    def test_multi_letter_needs_small_n(self):
        with pytest.raises(CapacityError):
            relative_orthogonal([EMPTY_TO_POINT], "rr", 5)

    def test_word_validation(self):
        with pytest.raises(ValueError):
            relative_orthogonal([EMPTY_TO_POINT], "", 2)
        with pytest.raises(ValueError):
            relative_orthogonal([EMPTY_TO_POINT], "xy", 2)

    def test_caveat_marking(self):
        one = relative_orthogonal([EMPTY_TO_POINT], "r", 2)
        two = relative_orthogonal([EMPTY_TO_POINT], "rr", 2)
        assert one.exact and not one.caveat
        assert not two.exact and "over-approximate" in two.caveat

    @pytest.mark.usefixtures("forked_steps")
    def test_jobs_do_not_change_results(self):
        # a fresh base per call: a class cached on the base would answer the
        # second call without running its pool
        a = relative_orthogonal([parse_map("{}-->{o}")], "r", 3, jobs=1)
        b = relative_orthogonal([parse_map("{}-->{o}")], "r", 3, jobs=2)
        assert a.indices == b.indices

    @pytest.mark.usefixtures("forked_steps")
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="pools need fork")
    def test_pool_workers_build_no_catalog_map(self, monkeypatch):
        # the parent builds the catalog maps before the pool forks, so its
        # workers inherit them instead of building them again
        import ftop.universe as universe

        expect = relative_orthogonal([parse_map("{}-->{o}")], "r", 3).indices
        parent, build = os.getpid(), universe.map_from_tuple

        def parent_only(*args):
            assert os.getpid() == parent, "a pool worker built a catalog map"
            return build(*args)

        monkeypatch.setattr(universe, "map_from_tuple", parent_only)
        monkeypatch.setattr(universe, "_MEMO", {})
        cls = relative_orthogonal([parse_map("{}-->{o}")], "r", 3, jobs=2)
        assert cls.indices == expect

    @pytest.mark.parametrize(
        "base",
        [[EMPTY_TO_POINT], [M_TO_LAMBDA], [EMPTY_TO_POINT, OPEN_POINT_INCL]],
        ids=["empty_to_point", "m_to_lambda", "two_maps"],
    )
    def test_words_match_the_definition(self, base):
        # oracle: each letter keeps the universe maps with the required
        # lifting against every member of the previous class, by direct calls
        u = get_universe(2)
        maps = [u.map_at(k) for k in range(len(u))]
        memo = {}

        def lifts_memo(i, g):
            key = (id(i), id(g))
            if key not in memo:
                memo[key] = lifts_bool(i, g)
            return memo[key]

        for size in (1, 2, 3):
            for word in map("".join, itertools.product("lr", repeat=size)):
                members = list(base)
                for letter in word:
                    members = [
                        m for m in maps
                        if all(lifts_memo(m, c) if letter == "l" else lifts_memo(c, m)
                               for c in members)
                    ]
                expect = tuple(k for k, m in enumerate(maps) if m in members)
                assert relative_orthogonal(base, word, 2).indices == expect, word

    @pytest.mark.usefixtures("forked_steps")
    @pytest.mark.parametrize("word", ["rl", "lrr", "rllr"])
    def test_jobs_do_not_change_word_steps(self, word):
        a = relative_orthogonal([parse_map("{}-->{o}")], word, 3, jobs=1)
        b = relative_orthogonal([parse_map("{}-->{o}")], word, 3, jobs=2)
        assert a.indices == b.indices

    def test_prefix_classes_are_kept_per_bound(self):
        # one base across bounds, against a fresh base per bound
        fresh = {n: relative_orthogonal([parse_map("{}-->{o}")], "rr", n).indices for n in (2, 3)}
        base = parse_map("{}-->{o}")
        for n in (2, 3, 2):
            assert relative_orthogonal([base], "rr", n).indices == fresh[n]

    @pytest.mark.parametrize("base", list(BASES), ids=list(BASES))
    def test_words_match_the_matrix_at_2(self, base):
        rows = lifting_matrix(2)
        for word in words_up_to(5):
            got = relative_orthogonal(BASES[base], word, 2).indices
            assert got == matrix_word(BASES[base], word, 2, rows), word

    def test_decisions_of_a_word_are_pinned(self):
        # each row tries first the member that last refuted a map of the
        # block; without that move-to-front the l letters of rll make 6 559
        # decisions
        import ftop.lifting as lifting

        before = lifting.DECISIONS.copy()
        relative_orthogonal([parse_map("{}-->{o}")], "rll", 3, jobs=1)
        assert dict(lifting.DECISIONS - before) == {"l": 6044, "r": 647}

    def test_repeated_first_letter_is_not_swept_again(self):
        import ftop.lifting as lifting

        base = parse_map("{}-->{o}")
        first = relative_orthogonal([base], "l", 2)

        def decisions(word):  # the class, and the decisions its steps made per letter
            before = dict(lifting.DECISIONS)
            cls = relative_orthogonal([base], word, 2)
            return cls, {k: v - before.get(k, 0) for k, v in lifting.DECISIONS.items()
                         if v != before.get(k, 0)}

        cls, made = decisions("l")
        assert cls.indices == first.indices and made == {}
        # the step after the cached first letter is the only one swept
        made = decisions("lr")[1]
        assert set(made) == {"r"} and made["r"] > 0
        assert decisions("lr")[1] == {}
        # a first letter skips the isomorphisms, as every later one does
        maps = enumerate_maps(2)
        assert decisions("r")[1] == {"r": len(maps) - sum(map(is_isomorphism, maps))} == {"r": 26}

    def test_later_letters_build_only_their_members(self, monkeypatch):
        import ftop.lifting as lifting
        import ftop.universe as universe

        want = relative_orthogonal([parse_map("{}-->{o}")], "rl", 3).indices
        base = CMap(Space.empty(), Space(["o"], []), {})  # fresh spaces: no memo applies
        members = relative_orthogonal([base], "r", 3).indices
        real, built = Universe.map_at, []

        def counting(self, k):
            built.append(k)
            return real(self, k)

        def refuse(n):
            raise AssertionError("a step built every map of the universe")

        monkeypatch.setattr(Universe, "map_at", counting)
        monkeypatch.setattr(universe, "enumerate_maps", refuse)
        monkeypatch.setattr(lifting, "enumerate_maps", refuse)
        assert relative_orthogonal([base], "rl", 3).indices == want
        assert built == list(members)

    def test_two_map_base_stops_at_the_first_refuting_map(self):
        import ftop.lifting as lifting

        def bases():  # maps over fresh spaces, so no class is cached for them
            point, sierpinski = Space(["o"], []), Space(["o", "c"], [("o", "c")])
            return CMap(Space.empty(), point, {}), CMap(point, sierpinski, {"o": "o"})

        before = lifting.DECISIONS["l"]
        singles = [set(relative_orthogonal([b], "l", 3).indices) for b in bases()]
        apart, before = lifting.DECISIONS["l"] - before, lifting.DECISIONS["l"]
        both = relative_orthogonal(bases(), "l", 3)
        assert 0 < lifting.DECISIONS["l"] - before < apart
        assert set(both.indices) == singles[0] & singles[1]

    def test_zeroed_matrix_file_is_rebuilt(self, monkeypatch):
        # an isomorphism's row must be all ones, so zeroed rows are not
        # trusted: they are rebuilt and saved again
        import ftop.universe as universe
        from ftop.universe import _load_cache, _save_cache

        zeros = ["0x0"] * len(get_universe(3))
        _save_cache("matrix_n3", {"n": 3, "rows": zeros})
        monkeypatch.setattr(universe, "_MEMO", {})
        rows = lifting_matrix(3, jobs=2)
        assert _load_cache("matrix_n3")["rows"] == [hex(r) for r in rows] != zeros
        assert len(matrix_word([EMPTY_TO_POINT], "rr", 3, rows)) == 67

    @pytest.mark.usefixtures("forked_steps")
    def test_words_match_the_matrix_at_3(self):
        # after the test above, which leaves the n=3 matrix in the cache
        from ftop.verify import _LADDER

        rows = lifting_matrix(3, jobs=2)
        words = dict.fromkeys([w for w, _, _ in _LADDER] + words_up_to(3))
        for word in words:
            got = relative_orthogonal([EMPTY_TO_POINT], word, 3, jobs=2).indices
            assert got == matrix_word([EMPTY_TO_POINT], word, 3, rows), word
        got = relative_orthogonal([M_TO_LAMBDA], "lr", 3, jobs=2).indices
        assert got == matrix_word([M_TO_LAMBDA], "lr", 3, rows)

    @pytest.mark.parametrize("fault", ["sampled entry", "last sampled entry", "isomorphism row"])
    def test_matrix_file_failing_a_check_is_rebuilt(self, fault, monkeypatch):
        import ftop.lifting as lifting
        import ftop.universe as universe
        from ftop.universe import _load_cache, _save_cache

        u = get_universe(2)
        rows = lifting_matrix(2)
        rng = random.Random(0)  # the load check's sample
        sample = [(rng.randrange(len(u)), rng.randrange(len(u)))
                  for _ in range(lifting.MATRIX_SAMPLE)]
        bad = list(rows)
        if fault != "isomorphism row":  # the first or the last entry of the sample
            i, j = sample[0] if fault == "sampled entry" else sample[-1]
            assert not is_isomorphism(u.map_at(i))  # else the row check sees it
            bad[i] ^= 1 << j
        else:  # a row the sample never reads, so only the row check sees it
            k = next(k for k, (si, di, _) in enumerate(map(u.triple, range(len(u))))
                     if si == di and is_isomorphism(u.map_at(k))
                     and k not in {i for i, _ in sample})
            bad[k] = 0
        _save_cache("matrix_n2", {"n": 2, "rows": [hex(r) for r in bad]})
        monkeypatch.setattr(universe, "_MEMO", {})
        assert lifting_matrix(2) == rows
        assert _load_cache("matrix_n2")["rows"] == [hex(r) for r in rows]

    def test_matrix_agrees_with_direct_lifts(self):
        u = get_universe(2)
        rows = lifting_matrix(2)
        rng = random.Random(31)
        for _ in range(200):
            i = rng.randrange(len(u))
            j = rng.randrange(len(u))
            assert ((rows[i] >> j) & 1) == lifts_bool(u.map_at(i), u.map_at(j))


class TestStep:
    @pytest.mark.usefixtures("forked_steps")
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("n", [2, 3])
    def test_rows_and_index_subsets_match_single_steps(self, n, jobs):
        u = get_universe(n)
        rows = [
            ([EMPTY_TO_POINT], "r"),
            ([M_TO_LAMBDA], "l"),
            ([EMPTY_TO_POINT, OPEN_POINT_INCL], "l"),
            ([u.map_at(k) for k in range(0, len(u), 61 if n == 3 else 5)], "r"),
        ]
        together = _step(u, rows, jobs)
        assert together == [_step(u, [row], jobs)[0] for row in rows]
        assert all(list(kept) == sorted(set(kept)) for kept in together)
        assert 0 < len(together[1]) < len(u)
        # universe indices of the kept subset, in ks order; several blocks at n=3
        ks = tuple(range(1, len(u), 3))
        for full, part in zip(together, _step(u, rows, jobs, ks=ks)):
            assert part == tuple(k for k in full if k in ks)

    @pytest.mark.usefixtures("forked_steps")
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_block_sweep_matches_per_map_decisions(self, jobs):
        import ftop.lifting as lifting

        u = get_universe(3)
        members = [u.map_at(k) for k in range(3, len(u), 97)] + [identity(u.spaces[5])]
        rows = [(members, "l"), (members, "r"), (members, "l", surjective),
                (members, "r", injective), ([M_TO_LAMBDA], "l", injective)]
        ks = range(3, len(u), 2)
        # the positions cross blocks, and some block holds several of them
        assert 1 < len(_blocks_in(u, ks)) < len(ks)
        before = lifting.DECISIONS.copy()
        got = _step(u, rows, jobs, ks)
        want, made = oracle_keep(u, rows, ks)
        assert got == want and all(0 < len(kept) < len(ks) for kept in got)
        assert lifting.DECISIONS - before == made
        for (row_members, letter, *pred), kept in zip(rows, got):
            expect = tuple(k for k in ks if all(
                lifts_bool(u.map_at(k), c) if letter == "l" else lifts_bool(c, u.map_at(k))
                for c in row_members) != (bool(pred) and pred[0](u.map_at(k))))
            assert kept == expect

    @pytest.mark.parametrize("ks", [range(661), range(1, 661, 2)], ids=["all", "odd"])
    def test_keep_is_the_same_cut_at_any_block_boundary(self, ks):
        # member orders restart at every block, so a step may cut ks at any
        # block boundary: one _keep over ks keeps and decides (adds to
        # DECISIONS) what its block slices keep and decide together
        import ftop.lifting as lifting

        def keep(share):
            before = lifting.DECISIONS.copy()
            return _keep(u, rows, share), lifting.DECISIONS - before

        u = get_universe(3)
        members = [c for c in map(u.map_at, range(5, len(u), 23)) if not is_isomorphism(c)]
        rows = [(members, "l"), (members, "r")]
        at = [lo for _, lo in _blocks_in(u, ks)] + [len(ks)]
        parts = [keep(ks[a:b]) for a, b in zip(at, at[1:])]
        kept, made = keep(ks)
        assert kept == [[k for part, _ in parts for k in part[r]] for r in range(len(rows))]
        assert made == sum((part for _, part in parts), Counter())
        assert made["l"] > 0 and made["r"] > 0

    @pytest.mark.usefixtures("forked_steps")
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_rows_without_predicates_read_no_catalog_maps(self, jobs, monkeypatch):
        u = get_universe(3)
        rows = [([M_TO_LAMBDA], "l"), ([OPEN_POINT_INCL], "r"), ([EMPTY_TO_POINT, sub(1)], "l")]
        want = _step(u, rows, jobs)

        def refuse(self, k):
            raise AssertionError("a step built a catalog map")

        monkeypatch.setattr(Universe, "map_at", refuse)
        assert _step(u, rows, jobs) == want


def oracle_keep(u, rows, ks):
    """Oracle: the per-map sweep the block sweep replaced.  Each map against
    each row in turn through the per-map kernels, with member orders that
    restart at every catalog block, isomorphisms kept without a decision;
    (kept positions per row, decisions per letter)."""
    kept, made, tables, block = [[] for _ in rows], Counter(), {}, None
    for k in ks:
        m = u.map_at(k)
        if u.triple(k)[:2] != block:
            block = u.triple(k)[:2]
            orders = [[c for c in row[0] if not is_isomorphism(c)] for row in rows]
        for r, (order, (_, letter, *pred)) in enumerate(zip(orders, rows)):
            lifted = True
            for pos, c in enumerate(() if is_isomorphism(m) else order):
                made[letter] += 1
                if not (_lifts_left(m, c, tables) if letter == "l"
                        else _lifts_right(c, m, tables)):
                    order.insert(0, order.pop(pos))
                    lifted = False
                    break
            if lifted != (bool(pred) and pred[0](m)):
                kept[r].append(k)
    return [tuple(row) for row in kept], made


class TestPool:
    def test_only_steps_that_pay_fork(self):
        # the estimate of _pays: every step over universe(3) runs inline, and
        # the matrix, universe(4), spaces(5) and mlambda's left-class sweeps fork
        u3, u4 = get_universe(3), get_universe(4)
        two = [([SUBSET_ARCHETYPE_FWD], "l"), ([SUBSET_ARCHETYPE_BWD], "l")]
        assert not _pays(u3, two, range(len(u3)))
        assert _pays(u3, [([m], "r") for m in enumerate_maps(3)], range(len(u3)))
        assert _pays(u4, [([EMPTY_TO_POINT], "l")], range(len(u4)))
        spaces = _space_universe(5)
        assert _pays(spaces, [([M_TO_LAMBDA], "l")], range(len(spaces)))
        # two rows over the spaces of up to 4 points: only blocks of the
        # candidates swept count, not the 5-point ones after them
        both = [([M_TO_LAMBDA], "l"), ([M_TO_LAMBDA], "r")]
        assert not _pays(spaces, both, range(len(spaces) - 139))
        assert _pays(spaces, both, range(len(spaces) - 138))  # and one 5-point space
        left = relative_orthogonal([M_TO_LAMBDA], "l", 4).indices
        assert len(left) == 846
        assert _pays(u4, [([sub(1)], "l"), ([sub(2)], "l")], left)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="pools need fork")
    def test_pool_counts_say_which_steps_forked(self):
        from ftop._parallel import POOL

        def counted(word, n):
            before = POOL.copy()
            relative_orthogonal([parse_map("{}-->{o}")], word, n, jobs=2)
            return {k: POOL[k] - before[k] for k in ("calls", "items", "forked")}

        # a step that runs inline is one item, a pool one share per worker
        assert counted("rll", 3) == {"calls": 3, "items": 3, "forked": 0}
        assert counted("l", 4) == {"calls": 1, "items": 2, "forked": 1}

    @pytest.mark.usefixtures("forked_steps")
    @pytest.mark.parametrize("jobs", [2, 3])
    def test_one_share_per_worker_cut_at_block_boundaries(self, jobs, monkeypatch):
        import ftop._parallel as parallel

        real, seen = parallel.pmap, []

        def probe(fn, items, procs):
            seen.append((items, procs))
            return real(fn, items, procs)

        monkeypatch.setattr(parallel, "pmap", probe)
        u = get_universe(3)
        ks = range(2, len(u), 2)
        _step(u, [([M_TO_LAMBDA], "l")], jobs, ks)
        (shares, procs), = seen
        assert procs == len(shares) == jobs
        assert [k for share in shares for k in share] == list(ks)
        # each cut is the block boundary nearest to an equal count
        at = [lo for _, lo in _blocks_in(u, ks)]
        cuts = list(itertools.accumulate(map(len, shares)))[:-1]
        for w, cut in enumerate(cuts, 1):
            assert cut in at
            assert abs(cut * jobs - w * len(ks)) == min(abs(lo * jobs - w * len(ks)) for lo in at)


def _lifts_left(i, g, tables):
    """Decide i ⧄ g by counting squares: the left kernel for one map."""
    return _left_decide(_left_kernel(g, i.src, i.dst, tables), i.as_tuple())


def _lifts_right(i, g, tables):
    """Decide i ⧄ g by counting squares: the right kernel for one map."""
    return _right_decide(_right_kernel(i, g.src, g.dst, tables), g.as_tuple())


def check_kernel(kernel, i, g, tables):
    """A sweep kernel against ``lifts_bool``, once with empty tables
    and once with the state that earlier pairs left in ``tables``; the
    enumeration memo of (A, Y) is emptied first, so a right row streams
    hom(A, Y) before it reads a complete memo entry."""
    holds = lifts_bool(i, g)
    _table(i.src, g.src, "enum").clear()
    assert kernel(i, g, {}) == holds, (i, g)
    assert kernel(i, g, tables) == holds, (i, g)
    return holds


def sampled_pairs(n, count):
    maps, rng = enumerate_maps(n), random.Random(0)
    return [(maps[rng.randrange(len(maps))], maps[rng.randrange(len(maps))])
            for _ in range(count)]


def kernel_pairs(n):
    """Seeded pairs for the kernels: 2 000 uniform ones at n=3; at n=4,
    where few uniform pairs lift, 1 000 of those and 1 000 with i out of a
    space of at most one point and g surjective."""
    if n == 3:
        return sampled_pairs(3, 2000)
    maps, rng = enumerate_maps(n), random.Random(1)
    small = [m for m in maps if len(m.src.points) <= 1]
    onto = [m for m in maps if surjective(m)]
    return sampled_pairs(n, 1000) + [(rng.choice(small), rng.choice(onto)) for _ in range(1000)]


class TestLeftRows:
    def test_every_pair_at_2_matches_lifts_bool(self):
        maps, tables = enumerate_maps(2), {}
        for i in maps:
            for g in maps:
                check_kernel(_lifts_left, i, g, tables)

    @pytest.mark.parametrize("n", [3, 4])
    def test_sampled_pairs_match_lifts_bool(self, n):
        tables, pairs = {}, kernel_pairs(n)
        lifted = sum(check_kernel(_lifts_left, i, g, tables) for i, g in pairs)
        assert 0 < lifted < len(pairs)

    @pytest.mark.usefixtures("forked_steps")
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_multi_member_step_at_3_matches_lifts_bool(self, jobs):
        u = get_universe(3)
        members = [u.map_at(k) for k in range(3, len(u), 41)]
        kept, = _step(u, [(members, "l")], jobs)
        expect = tuple(k for k, m in enumerate(enumerate_maps(3))
                       if all(lifts_bool(m, c) for c in members))
        assert kept == expect
        assert 0 < len(kept) < len(u)

    def test_refuted_decision_stays_small(self):
        # as test_refuted_sweep_keeps_no_enumeration, through the kernel: the
        # abandoned enumerations keep nothing, and H is 4**3 maps
        f = sub(2)
        g = parse_map("{a<->b<->c<->d}-->{a=b=c=d}")
        tracemalloc.start()
        try:
            holds = _lifts_left(f, g, {})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert holds is False
        assert peak < 1 << 20

    @pytest.mark.usefixtures("forked_steps")
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_prepared_members_die_with_the_step(self, jobs, monkeypatch):
        # each _keep call owns its tables: the partial handed to pmap binds
        # only the universe and the rows, and the tables die with the call
        import ftop._parallel as parallel

        real, seen = parallel.pmap, []

        def probe(fn, items, jobs):
            seen.append(len(fn.args))
            return real(fn, items, jobs)

        monkeypatch.setattr(parallel, "pmap", probe)
        member = parse_map("{left_a<-left_u->left_b}-->{left_a=left_u->left_b}")
        _step(get_universe(3), [([member], "l")], jobs)
        assert seen == [2]
        del member
        assert spaces_alive("left_") == 0


class TestRightRows:
    def test_every_pair_at_2_matches_lifts_bool(self):
        maps, tables = enumerate_maps(2), {}
        for i in maps:
            for g in maps:
                check_kernel(_lifts_right, i, g, tables)

    @pytest.mark.parametrize("n", [3, 4])
    def test_sampled_pairs_match_lifts_bool(self, n):
        tables, pairs = {}, kernel_pairs(n)
        lifted = sum(check_kernel(_lifts_right, i, g, tables) for i, g in pairs)
        assert 0 < lifted < len(pairs)

    @pytest.mark.usefixtures("forked_steps")
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_multi_member_step_at_3_matches_lifts_bool(self, jobs):
        u = get_universe(3)
        members = [u.map_at(k) for k in range(3, len(u), 41)]
        kept, = _step(u, [(members, "r")], jobs)
        expect = tuple(k for k, m in enumerate(enumerate_maps(3))
                       if all(lifts_bool(c, m) for c in members))
        assert kept == expect
        assert 0 < len(kept) < len(u)

    def test_refuted_decision_against_a_large_member_stays_small(self):
        # the member's domain has 9 points, so hom(A, Y) has 4**9 maps; the
        # pass over it streams and stops at the first f without enough
        # fillers, and the tables group the 4**5 maps of hom(X, Y)
        f = sub(2)
        g = parse_map("{a<->b<->c<->d}-->{a=b=c=d}")
        tracemalloc.start()
        try:
            holds = _lifts_right(f, g, {})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert holds is False
        assert peak < 1 << 20


class TestRetract:
    def test_every_map_retracts_onto_itself(self):
        w = is_retract_of(M_TO_LAMBDA, M_TO_LAMBDA)
        assert w is not None and w.check(M_TO_LAMBDA, M_TO_LAMBDA)

    def test_empty_to_point_not_retract_of_point_identity(self):
        assert is_retract_of(EMPTY_TO_POINT, identity(POINT)) is None

    def test_single_subdivision_reading_fails(self):
        assert is_retract_of(LAMBDA_TO_POINT, sub(2)) is None

    def test_double_subdivision_reading_succeeds(self):
        g = compose(sub(8), sub(4))
        w = is_retract_of(LAMBDA_TO_POINT, g)
        assert w is not None
        assert w.check(LAMBDA_TO_POINT, g)


def bounded_factor(f, left, right):
    """Oracle: search middles of the bounded universe for f = p∘i with i/p
    in the given classes."""
    n = left.n
    u = get_universe(n)
    if len(f.src.points) > n or len(f.dst.points) > n:
        raise CapacityError(f"factor search: map endpoints exceed n={n}")
    left_set = set(left.indices)
    right_set = set(right.indices)
    A, B = f.src, f.dst
    ft = f.as_tuple()
    for z in u.spaces:
        for i_t in hom(A, z):
            # p is pinned on the image of i by p∘i = f
            cand = [(1 << len(B.points)) - 1] * len(z.points)
            for x, v in zip(i_t, ft):
                cand[x] &= 1 << v
            if 0 in cand:
                continue
            i_map = None
            for p_t in enum_hom(z, B, cand):
                if i_map is None:
                    i_map = map_from_tuple(A, z, i_t)
                    ik = u.index_of_map(i_map)
                    if ik is None or ik not in left_set:
                        break
                p_map = map_from_tuple(z, B, p_t)
                pk = u.index_of_map(p_map)
                if pk is None or pk not in right_set:
                    continue
                return i_map, p_map
    return None


def relabeled(f, rng):
    """f on fresh point names, each endpoint's points listed in shuffled order."""
    def fresh(x, tag):
        order = list(x.points)
        rng.shuffle(order)
        names = {p: f"{tag}{k}" for k, p in enumerate(order)}
        return Space([names[p] for p in order], [(names[a], names[b]) for a, b in x.rel]), names

    src, a = fresh(f.src, "s")
    dst, b = fresh(f.dst, "t")
    return CMap(src, dst, {a[p]: b[q] for p, q in f.assign.items()})


class TestFactorSearch:
    def test_identity_factors_trivially(self):
        got = factor_search(identity(SIERPINSKI), [M_TO_LAMBDA], "", 3, jobs=2)
        assert got is not None
        assert compose(got.i, got.p) == identity(SIERPINSKI)

    def test_empty_to_point_factorization_is_valid(self):
        got = factor_search(EMPTY_TO_POINT, [EMPTY_TO_POINT], "", 2)
        assert got is not None
        assert compose(got.i, got.p) == EMPTY_TO_POINT
        # the left leg must genuinely lift against the base's left class;
        # the identity on the empty space does, the base map itself does not
        assert got.i.src == EMPTY and got.i.dst == EMPTY

    def test_base_map_is_not_in_its_own_left_class(self):
        assert not lifts_bool(EMPTY_TO_POINT, EMPTY_TO_POINT)

    def test_capacity_guard(self, monkeypatch):
        import ftop.lifting as lifting

        def no_class(*args, **kwargs):
            raise AssertionError("a class was computed")

        monkeypatch.setattr(lifting, "relative_orthogonal", no_class)
        with pytest.raises(CapacityError):
            factor_search(M_TO_LAMBDA, [M_TO_LAMBDA], "", 3)

    @pytest.mark.parametrize("base", [M_TO_LAMBDA, EMPTY_TO_POINT],
                             ids=["m_to_lambda", "empty_to_point"])
    def test_witness_exactly_when_the_oracle_finds_one(self, base):
        # every map of universe(2) and a relabeled copy of each
        u, rng = get_universe(2), random.Random(5)
        left = relative_orthogonal([base], "l", 2)
        right = relative_orthogonal([base], "lr", 2)
        found = factoring_maps(left, right)
        for f in [g for m in enumerate_maps(2) for g in (m, relabeled(m, rng))]:
            got = factor_search(f, [base], "", 2)
            assert (got is None) == (bounded_factor(f, left, right) is None)
            assert (got is None) == (u.index_of_map(f) not in found)
            if got is not None:
                assert compose(got.i, got.p) == f
                assert got.i in left and got.p in right

    def test_second_call_reads_the_kept_composites(self, monkeypatch):
        import ftop.lifting as lifting

        real, calls = lifting.factoring_maps, []

        def counting(left, right):
            calls.append(left.word)
            return real(left, right)

        monkeypatch.setattr(lifting, "factoring_maps", counting)
        base = parse_map("{fs_a<-fs_u->fs_b}-->{fs_a=fs_u->fs_b}")
        f = identity(SIERPINSKI)
        first, second = (factor_search(f, [base], "", 2) for _ in range(2))
        assert calls == ["l"]
        assert (first.i, first.p) == (second.i, second.p)
        assert compose(first.i, first.p) == f
        factor_search(EMPTY_TO_POINT, [base], "", 2)
        factor_search(f, [base], "l", 2)  # another word enumerates its own composites
        assert calls == ["l", "ll"]
        # the composites sit next to the classes and die with the base
        del base, first, second
        assert spaces_alive("fs_") == 0

    @pytest.mark.parametrize("n", [2, 3])
    def test_witness_is_the_oracles_on_catalog_maps(self, n):
        # the first composite is the pair the middle-by-middle search finds
        u = get_universe(n)
        left = relative_orthogonal([M_TO_LAMBDA], "l", n)
        right = relative_orthogonal([M_TO_LAMBDA], "lr", n)
        for k in sorted(factoring_maps(left, right))[::7]:
            got = factor_search(u.map_at(k), [M_TO_LAMBDA], "", n)
            assert (got.i, got.p) == bounded_factor(u.map_at(k), left, right)


class TestFactoringMaps:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("base", [M_TO_LAMBDA, EMPTY_TO_POINT],
                             ids=["m_to_lambda", "empty_to_point"])
    def test_composites_are_the_maps_bounded_factor_splits(self, base, n):
        # oracle: a search for a factorization of each map in turn
        u = get_universe(n)
        left = relative_orthogonal([base], "l", n)
        right = relative_orthogonal([base], "lr", n)
        found = factoring_maps(left, right)
        assert set(found) == {k for k in range(len(u))
                              if bounded_factor(u.map_at(k), left, right) is not None}
        if base is M_TO_LAMBDA and n == 3:
            assert len(found) == 135

    def test_composites_need_every_automorphism_of_the_middle(self):
        # for arbitrary index sets, not only orthogonal classes; with the
        # identity as the only automorphism, 22 of 417 maps would be missed
        u, rng = get_universe(3), random.Random(0)
        left, right = (
            BoundedClass((), word, 3, tuple(sorted(rng.sample(range(len(u)), size))), False)
            for word, size in (("l", 200), ("lr", 60))
        )
        found = factoring_maps(left, right)
        assert len(found) == 417
        assert set(found) == {k for k in range(len(u))
                              if bounded_factor(u.map_at(k), left, right) is not None}

    def test_each_witness_composes_to_its_map(self):
        u = get_universe(3)
        left = relative_orthogonal([M_TO_LAMBDA], "l", 3)
        right = relative_orthogonal([M_TO_LAMBDA], "lr", 3)
        for k, (z, ai, p) in factoring_maps(left, right).items():
            si, di, _ = u.triple(k)
            i = map_from_tuple(u.spaces[si], u.spaces[z], ai)
            q = map_from_tuple(u.spaces[z], u.spaces[di], p)
            assert u.index_of_map(compose(i, q)) == k
            assert i in left and q in right


class TestClosureLaws:
    def test_composition_product_retract_stability(self):
        u = get_universe(3)
        rng = random.Random(41)
        from ftop.space import product_map

        comp_checked = prod_checked = retract_checked = 0
        while comp_checked < 40:
            i = u.map_at(rng.randrange(len(u)))
            g1 = u.map_at(rng.randrange(len(u)))
            g2 = u.map_at(rng.randrange(len(u)))
            if g1.dst != g2.src:
                continue
            if lifts_bool(i, g1) and lifts_bool(i, g2):
                comp_checked += 1
                assert lifts_bool(i, compose(g1, g2))
        while prod_checked < 25:
            i = u.map_at(rng.randrange(len(u)))
            g1 = u.map_at(rng.randrange(len(u)))
            g2 = u.map_at(rng.randrange(len(u)))
            if lifts_bool(i, g1) and lifts_bool(i, g2):
                prod_checked += 1
                assert lifts_bool(i, product_map(g1, g2))
        while retract_checked < 10:
            i = u.map_at(rng.randrange(len(u)))
            g = u.map_at(rng.randrange(len(u)))
            g2 = u.map_at(rng.randrange(len(u)))
            if not lifts_bool(i, g):
                continue
            if is_retract_of(g2, g) is None:
                continue
            retract_checked += 1
            assert lifts_bool(i, g2)
