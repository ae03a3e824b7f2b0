"""Lifting solver against naive assignment-scan oracles."""
import gc
import itertools
import os
import random
import tracemalloc
from functools import reduce
from operator import and_

import pytest

from ftop._solve import _table, first_solution
from ftop.errors import CapacityError, MapError
from ftop.lifting import (
    BoundedClass,
    LiftCertificate,
    Square,
    _step,
    bounded_factor,
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
)
from ftop.space import CMap, Space, compose, identity, is_isomorphism, sub
from ftop.universe import get_universe


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
    def test_counterexample_recheck_searches_afresh(self):
        # a square that fills, presented as a counterexample, after its entry
        # in the filler memo is overwritten with "no filler": the recheck
        # must not take that entry's word for it
        i = parse_map("{o->c}-->{o->c}")
        g = parse_map("{a<-u->x<-v->b}-->{a<-u=x=v->b}")
        assert lifts(i, g).holds
        sq = squares(i, g)[-1]
        gt, ft = g.as_tuple(), sq.f.as_tuple()
        cand = [sum(1 << y for y, b in enumerate(gt) if b == pb) for pb in sq.phi.as_tuple()]
        for a, x in enumerate(i.as_tuple()):
            cand[x] &= 1 << ft[a]
        memo = _table(i.dst, g.src, "first")
        assert memo[tuple(cand)] is not None
        memo[tuple(cand)] = None
        assert fill(sq) is None  # fill reads the memo
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

    def test_filler_memo_dies_with_the_query_space(self):
        # the memo of first_solution sits on the long-lived domain X under
        # the query space's identity; it must go when that space goes
        X = M_TO_LAMBDA.dst
        Y = parse_map("{m_a<-m_u->m_b}-->{m_a=m_u->m_b}").src
        assert first_solution(X, Y, [(1 << len(Y.points)) - 1] * len(X.points))
        key = ("first", id(Y))
        assert key in X._lazy
        del Y
        assert spaces_alive("m_") == 0
        assert key not in X._lazy

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
        # the fifth square refutes this; enumerations the short-circuit
        # abandons must keep nothing (an eager memo peaks at ~30 MB here)
        f = sub(2)
        g = parse_map("{a<->b<->c<->d}-->{a=b=c=d}")
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
            relative_orthogonal([EMPTY_TO_POINT], "rr", 4)

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

    def test_jobs_do_not_change_results(self):
        # a fresh base per call: a class cached on the base would answer the
        # second call without running its pool
        a = relative_orthogonal([parse_map("{}-->{o}")], "r", 3, jobs=1)
        b = relative_orthogonal([parse_map("{}-->{o}")], "r", 3, jobs=2)
        assert a.indices == b.indices

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

    def test_repeated_first_letter_is_not_swept_again(self, monkeypatch):
        import ftop.lifting as lifting

        base = parse_map("{}-->{o}")
        first = relative_orthogonal([base], "l", 2)
        calls = []

        def counting(i, g):
            calls.append((i, g))
            return lifts_bool(i, g)

        monkeypatch.setattr(lifting, "lifts_bool", counting)
        assert relative_orthogonal([base], "l", 2).indices == first.indices
        assert calls == []
        # the step after the cached first letter runs inside the universe
        relative_orthogonal([base], "lr", 2)
        assert calls and not any(base is i or base is g for i, g in calls)
        calls.clear()
        relative_orthogonal([base], "lr", 2)
        assert calls == []
        # a first letter skips the isomorphisms, as every later one does
        relative_orthogonal([base], "r", 2)
        u = get_universe(2)
        assert len(calls) == len(u) - sum(map(is_isomorphism, u.maps)) == 26

    def test_two_map_base_stops_at_the_first_refuting_map(self, monkeypatch):
        import ftop.lifting as lifting

        calls = []

        def counting(i, g):
            calls.append((i, g))
            return lifts_bool(i, g)

        def bases():  # maps over fresh spaces, so no class is cached for them
            point, sierpinski = Space(["o"], []), Space(["o", "c"], [("o", "c")])
            return CMap(Space.empty(), point, {}), CMap(point, sierpinski, {"o": "o"})

        monkeypatch.setattr(lifting, "lifts_bool", counting)
        singles = [set(relative_orthogonal([b], "l", 3).indices) for b in bases()]
        apart = len(calls)
        calls.clear()
        both = relative_orthogonal(bases(), "l", 3)
        assert 0 < len(calls) < apart
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

    @pytest.mark.parametrize("fault", ["sampled entry", "isomorphism row"])
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
        if fault == "sampled entry":
            i, j = sample[0]
            bad[i] ^= 1 << j
        else:  # a row the sample never reads, so only the row check sees it
            k = next(k for k, (si, di, _) in enumerate(u.iter_triples())
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
        together = _step(u.maps, rows, jobs)
        assert together == [_step(u.maps, [row], jobs)[0] for row in rows]
        assert 0 < together[1] < (1 << len(u)) - 1
        # positions of ks, not universe indices; several blocks at n=3
        ks = tuple(range(1, len(u), 3))
        for full, part in zip(together, _step(u.maps, rows, jobs, ks=ks)):
            assert part == sum(((full >> k) & 1) << p for p, k in enumerate(ks))


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

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            factor_search(M_TO_LAMBDA, [M_TO_LAMBDA], "", 3)


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
        assert found == {k for k in range(len(u))
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
        assert found == {k for k in range(len(u))
                         if bounded_factor(u.map_at(k), left, right) is not None}


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
