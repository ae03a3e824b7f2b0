"""Direct property checkers against definition-level oracles."""
import random

from ftop.lifting import lifts_bool, monotone_maps
from ftop.properties import (
    _closed_masks,
    _image_mask,
    admits_section,
    classify,
    closed_map,
    closed_pair_extension,
    connected,
    dense_image,
    discrete,
    hereditarily_normal,
    hereditarily_normal_by_separation,
    induced_topology,
    injective,
    normal,
    open_map,
    pi0_surjective,
    quotient_map,
    reflects_rel,
    subset_inclusion,
    summand_inclusion,
    surjective,
    t0,
    t1,
)
from ftop.registry import (
    DENSE_ARCHETYPE,
    DISJOINT_CLOSURES_ARCHETYPE,
    EMPTY,
    INJECTIVE_ARCHETYPE,
    LAMBDA,
    M,
    M_TO_LAMBDA,
    OPEN_POINT_INCL,
    POINT,
    PULLBACK_ARCHETYPE,
    SIERPINSKI,
)
from ftop.space import CMap, Space, _bits, _union, compose, coproduct, identity, quotient
from ftop.universe import enumerate_maps, enumerate_spaces, get_universe


def point_sets(x, masks):
    """The sets of point names of ``x`` at ``masks``."""
    return [{x.points[i] for i in _bits(m)} for m in masks]


def oracle_closed_map(f):
    """Definition-level check: image of every closed set is closed."""
    src, dst = f.src, f.dst
    for c in point_sets(src, _closed_masks(src)):
        if not dst.is_closed({f.assign[p] for p in c}):
            return False
    return True


def oracle_open_map(f):
    src, dst = f.src, f.dst
    for o in point_sets(src, src.open_masks()):
        if not dst.is_open({f.assign[p] for p in o}):
            return False
    return True


def oracle_quotient_map(f):
    if not surjective(f):
        return False
    dst = f.dst
    for m in range(1 << len(dst.points)):
        u = {p for k, p in enumerate(dst.points) if (m >> k) & 1}
        pre = {p for p in f.src.points if f.assign[p] in u}
        if f.src.is_open(pre) != dst.is_open(u):
            return False
    return True


def oracle_closed_pair_extension(f):
    """The pairwise loop: closures and preimages taken again for each pair."""
    src, dst, t = f.src, f.dst, f.as_tuple()
    closed = _closed_masks(src)
    n = len(src.points)
    for c1 in closed:
        for c2 in closed:
            if c1 & c2:
                continue
            d1 = dst.closure_mask(_image_mask(f, c1))
            d2 = dst.closure_mask(_image_mask(f, c2))
            if d1 & d2:
                return False
            pre1 = sum(1 << i for i in range(n) if (d1 >> t[i]) & 1)
            pre2 = sum(1 << i for i in range(n) if (d2 >> t[i]) & 1)
            if pre1 != c1 or pre2 != c2:
                return False
    return True


def all_pairs_closed_pair_extension(f):
    """All pairs: the closure of the image of every closed set, then every
    pair of them."""
    src, dst, t = f.src, f.dst, f.as_tuple()
    n = len(src.points)
    ext = []
    for c in _closed_masks(src):
        d = dst.closure_mask(_image_mask(f, c))
        # every closed set pairs with the empty one, so each must pull back
        if sum(1 << i for i in range(n) if (d >> t[i]) & 1) != c:
            return False
        ext.append((c, d))
    return not any(
        c1 & c2 == 0 and d1 & d2
        for a, (c1, d1) in enumerate(ext)
        for c2, d2 in ext[a + 1:]
    )


# the bodies these checkers had before they were written as enumerate loops,
# on the ``_bits`` generator; kept as oracles for the loops

def bits_image_mask(f, src_mask):
    t = f.as_tuple()
    acc = 0
    for i in _bits(src_mask):
        acc |= 1 << t[i]
    return acc


def bits_closed_map(f):
    src, dst, t = f.src, f.dst, f.as_tuple()
    return all(
        dst.up[t[i]] & ~bits_image_mask(f, src.up[i]) == 0
        for i in range(len(src.points))
    )


def bits_induced_topology(f):
    src, dst, t = f.src, f.dst, f.as_tuple()
    n = len(src.points)
    return all(
        ((src.up[i] >> j) & 1) == ((dst.up[t[i]] >> t[j]) & 1)
        for i in range(n)
        for j in range(n)
    )


def bits_min_open(x, mask):
    acc = 0
    for i in _bits(mask):
        acc |= x.down[i]
    return acc


def bits_closure_mask(x, mask):
    acc = 0
    for i in _bits(mask):
        acc |= x.up[i]
    return acc


def bits_fill(pts, up):
    """The ``down`` rows and the ``rel`` pairs that ``Space._fill`` set."""
    n = len(pts)
    down = [0] * n
    for i in range(n):
        for j in _bits(up[i]):
            down[j] |= 1 << i
    full = frozenset(
        (pts[i], pts[j]) for i in range(n) for j in _bits(up[i])
    )
    return tuple(down), full


class TestEnumerateLoops:
    def test_map_checks_match_their_bit_loops_on_universe_4(self):
        verdicts = set()
        for f in enumerate_maps(4):
            src = f.src
            full = (1 << len(src.points)) - 1
            for mask in (full, *src.up, *src.down):
                assert _image_mask(f, mask) == bits_image_mask(f, mask)
            got = (closed_map(f), induced_topology(f))
            assert got == (bits_closed_map(f), bits_induced_topology(f))
            verdicts.add(got)
        assert verdicts == {(a, b) for a in (True, False) for b in (True, False)}

    def test_space_loops_match_their_bit_loops_on_spaces_5(self):
        spaces = enumerate_spaces(5) + (M, LAMBDA, quotient(M, [["a", "u"], ["x"], ["v", "b"]])[0])
        for x in spaces:
            assert (x.down, x.rel) == bits_fill(x.points, x.up)
            for mask in range(1 << len(x.points)):
                assert _union(x.up, mask) == bits_closure_mask(x, mask)
                assert _union(x.down, mask) == bits_min_open(x, mask)


class TestSetLevelFlags:
    def test_surjective_injective_examples(self):
        assert surjective(M_TO_LAMBDA)
        assert not injective(M_TO_LAMBDA)
        assert injective(DENSE_ARCHETYPE)
        assert surjective(CMap(EMPTY, EMPTY, {}))

    def test_closed_map_examples(self):
        assert not closed_map(OPEN_POINT_INCL)
        assert closed_map(identity(M))
        for arch in (
            DISJOINT_CLOSURES_ARCHETYPE,
            INJECTIVE_ARCHETYPE,
            PULLBACK_ARCHETYPE,
            DENSE_ARCHETYPE,
        ):
            assert closed_map(arch)

    def test_closed_open_match_definition_oracle(self):
        u = get_universe(3)
        for k in range(len(u)):
            f = u.map_at(k)
            assert closed_map(f) == oracle_closed_map(f)
            assert open_map(f) == oracle_open_map(f)

    def test_dense_examples(self):
        assert not dense_image(DENSE_ARCHETYPE)
        assert dense_image(OPEN_POINT_INCL)
        assert dense_image(CMap(EMPTY, EMPTY, {}))
        assert not dense_image(CMap(EMPTY, POINT, {}))

    def test_induced_and_subset(self):
        assert induced_topology(OPEN_POINT_INCL)
        assert subset_inclusion(DENSE_ARCHETYPE)
        assert not subset_inclusion(INJECTIVE_ARCHETYPE)
        squash = CMap(Space.from_arrows("ab", []), SIERPINSKI, {"a": "o", "b": "c"})
        assert injective(squash) and not induced_topology(squash)

    def test_quotient_map(self):
        assert quotient_map(M_TO_LAMBDA)
        assert quotient_map(identity(M))
        assert not quotient_map(OPEN_POINT_INCL)
        u = get_universe(3)
        for k in range(len(u)):
            f = u.map_at(k)
            assert quotient_map(f) == oracle_quotient_map(f)

    def test_closed_pair_extension_matches_pairwise_oracle(self):
        assert not closed_pair_extension(DISJOINT_CLOSURES_ARCHETYPE)
        u = get_universe(4)
        verdicts = set()
        for k in range(len(u)):
            f = u.map_at(k)
            got = closed_pair_extension(f)
            assert got == oracle_closed_pair_extension(f)
            verdicts.add(got)
        assert verdicts == {True, False}

    def test_point_closures_match_the_all_pairs_version(self):
        maps = enumerate_maps(3)
        got = [closed_pair_extension(f) for f in maps]
        assert got == [all_pairs_closed_pair_extension(f) for f in maps]
        assert 0 < sum(got) < len(got)

    def test_quotient_map_closes_the_projected_relation(self):
        # two Sierpinski spaces glued closed point to open point: a chain
        # whose end-to-end pair comes only from the transitive closure
        two = coproduct(SIERPINSKI, SIERPINSKI)
        _, proj = quotient(two, [["o"], ["c", "o'"], ["c'"]])
        assert len(proj.dst.rel) == 6
        assert quotient_map(proj) and oracle_quotient_map(proj)

    def test_admits_section(self):
        # oracle: search the finite hom-set for a one-sided inverse
        assert not any(
            compose(s, M_TO_LAMBDA) == identity(LAMBDA)
            for s in monotone_maps(LAMBDA, M)
        )
        assert not admits_section(M_TO_LAMBDA)
        assert admits_section(identity(M))
        assert admits_section(PULLBACK_ARCHETYPE)

    def test_rel_reflecting(self):
        assert reflects_rel(identity(M))
        two = Space.from_arrows("xy", [])
        assert not reflects_rel(CMap(two, POINT, {"x": "o", "y": "o"}))

    def test_pi0_and_summand(self):
        two = coproduct(POINT, POINT)
        inc = CMap(POINT, two, {"o": two.points[0]})
        assert not pi0_surjective(inc)
        assert summand_inclusion(inc, discrete_complement=True)
        inc_s = CMap(SIERPINSKI, coproduct(SIERPINSKI, SIERPINSKI),
                     {"o": "o", "c": "c"})
        assert summand_inclusion(inc_s, discrete_complement=False)
        assert not summand_inclusion(inc_s, discrete_complement=True)
        assert pi0_surjective(M_TO_LAMBDA)


class TestSpaceFlags:
    def test_normality_examples(self):
        assert normal(SIERPINSKI)
        assert not normal(LAMBDA)
        assert not normal(M)
        assert normal(EMPTY)
        assert normal(POINT)

    def test_normal_matches_lifting_at_4(self):
        for x in enumerate_spaces(4):
            i = CMap(EMPTY, x, {})
            assert normal(x) == lifts_bool(i, M_TO_LAMBDA)

    def test_hereditary_normal_two_routes_agree(self):
        for x in enumerate_spaces(4):
            assert hereditarily_normal(x) == hereditarily_normal_by_separation(x)

    def test_hereditary_normal_is_normality_of_every_subspace(self, monkeypatch):
        # oracle: a Space built for every subset; the checker itself builds none
        spaces = enumerate_spaces(4)
        want = [all(normal(x.subspace([p for k, p in enumerate(x.points) if (m >> k) & 1]))
                    for m in range(1 << len(x.points))) for x in spaces]
        monkeypatch.setattr(Space, "subspace", None)
        assert [hereditarily_normal(x) for x in spaces] == want
        assert 0 < sum(want) < len(spaces)

    def test_t1_iff_discrete(self):
        for x in enumerate_spaces(4):
            assert t1(x) == discrete(x)
            if discrete(x):
                assert t1(x) and t0(x)

    def test_connected_examples(self):
        assert connected(SIERPINSKI)
        assert not connected(coproduct(POINT, POINT))
        assert connected(EMPTY)  # vacuous under the no-proper-clopen reading
        assert connected(M)

    def test_t0(self):
        assert t0(SIERPINSKI)
        assert not t0(Space.from_arrows("ab", [("a", "b"), ("b", "a")]))


class TestClassify:
    def test_m_to_lambda_record(self):
        rec = classify(M_TO_LAMBDA)
        assert rec.surjective and rec.quotient_map
        assert not rec.injective and not rec.admits_section
        assert not rec.src.normal and not rec.dst.normal

    def test_identity_record(self):
        rec = classify(identity(SIERPINSKI))
        assert rec.surjective and rec.injective and rec.closed_map
        assert rec.open_map and rec.quotient_map and rec.admits_section
        assert rec.subset_inclusion and rec.induced_topology

    def test_empty_to_point_record(self):
        rec = classify(CMap(EMPTY, POINT, {}))
        assert not rec.surjective
        assert rec.injective and rec.induced_topology
        assert not rec.dense_image

    def test_json_fields_are_stable(self):
        js = classify(M_TO_LAMBDA).to_json()
        assert set(js) == {
            "surjective",
            "injective",
            "closed_map",
            "open_map",
            "dense_image",
            "induced_topology",
            "subset_inclusion",
            "quotient_map",
            "admits_section",
            "src",
            "dst",
        }
        assert set(js["src"]) == {
            "t0",
            "t1",
            "normal",
            "hereditarily_normal",
            "connected",
            "discrete",
        }

    def test_record_internal_invariants(self):
        u = get_universe(3)
        rng = random.Random(3)
        for _ in range(60):
            rec = classify(u.map_at(rng.randrange(len(u))))
            assert rec.subset_inclusion == (rec.injective and rec.induced_topology)
            for side in (rec.src, rec.dst):
                if side.discrete:
                    assert side.t1
                if side.t1:
                    assert side.t0
                if side.hereditarily_normal:
                    assert side.normal
