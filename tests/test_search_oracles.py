"""The one backtracking kernel and the one canonizer against brute-force
oracles (seeded, stdlib only)."""
import gc
import itertools
import random
import weakref

import pytest

from ftop._solve import _search, _table, enum_hom, first_solution, hom
from ftop.space import Space, _close
from ftop.universe import _enc_bits, _posets, _scan, automorphisms, enumerate_spaces


def random_space(rng, n):
    names = [f"x{k}" for k in range(n)]
    arrows = [(a, b) for a in names for b in names if a != b and rng.random() < 0.3]
    return Space.from_arrows(names, arrows)


def brute_force(X, Y, cand, order):
    """Every monotone assignment within the masks, sorted along ``order``."""
    nX, nY = len(X.points), len(Y.points)
    found = [
        t
        for t in itertools.product(range(nY), repeat=nX)
        if all((cand[i] >> t[i]) & 1 for i in range(nX))
        and all(
            (Y.up[t[i]] >> t[j]) & 1
            for i in range(nX)
            for j in range(nX)
            if (X.up[i] >> j) & 1
        )
    ]
    return sorted(found, key=lambda t: tuple(t[i] for i in order))


def oracle_scan(n, up):
    """The least encoding of ``up`` and every permutation achieving it, by
    trying all n! relabelings in lexicographic order."""
    best = None
    args = []
    for perm in itertools.permutations(range(n)):
        b = _enc_bits(n, up, perm)
        if best is None or b < best:
            best, args = b, [perm]
        elif b == best:
            args.append(perm)
    return best or 0, tuple(args)


def labeled_preorders(n):
    """Every reflexive-transitive relation on n points, as up-set bitmasks."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for mask in range(1 << len(pairs)):
        rows = [1 << i for i in range(n)]
        for bit, (i, j) in enumerate(pairs):
            if (mask >> bit) & 1:
                rows[i] |= 1 << j
        if _close(n, rows[:]) == rows:
            yield rows


def oracle_posets(k):
    """Canonical keys of the posets on k points, in increasing order: every
    upper-triangular relation on k points that is transitive, by key."""
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    keys = set()
    for mask in range(1 << len(pairs)):
        rows = [1 << i for i in range(k)]
        for bit, (i, j) in enumerate(pairs):
            if (mask >> bit) & 1:
                rows[i] |= 1 << j
        if _close(k, rows[:]) == rows:
            keys.add(_scan(k, rows)[0])
    return sorted(keys)


def brute_force_automorphisms(space):
    n = len(space.points)
    up = space.up
    return tuple(
        perm
        for perm in itertools.permutations(range(n))
        if all(
            ((up[perm[i]] >> perm[j]) & 1) == ((up[i] >> j) & 1)
            for i in range(n)
            for j in range(n)
        )
    )


class TestSearchKernel:
    def test_streams_match_brute_force(self):
        rng = random.Random(20211228)
        for _ in range(300):
            X = random_space(rng, rng.randint(0, 4))
            Y = random_space(rng, rng.randint(0, 4))
            full = (1 << len(Y.points)) - 1
            cand = [
                full if rng.random() < 0.4 else rng.randint(0, full)
                for _ in X.points
            ]
            ident, ext = tuple(range(len(X.points))), X.linear_extension()
            for order in (ident, ext):
                assert list(_search(X, Y, cand, order)) == brute_force(X, Y, cand, order)
            # the second pass comes from the memo the first one filled
            for _ in range(2):
                assert list(enum_hom(X, Y, cand)) == brute_force(X, Y, cand, ident)
            want = brute_force(X, Y, cand, ext)
            assert first_solution(X, Y, cand) == (want[0] if want else None)

    @pytest.mark.parametrize("size", [5, 6])
    def test_deep_stacks_match_brute_force(self, size):
        # domains of 5 and 6 points: the search's own stack grows past 4
        rng = random.Random(size)
        for _ in range(8):
            X = random_space(rng, size)
            Y = random_space(rng, rng.randint(2, 3))
            full = (1 << len(Y.points)) - 1
            cand = [full if rng.random() < 0.7 else rng.randint(1, full) for _ in X.points]
            for order in (tuple(range(size)), X.linear_extension()):
                assert list(_search(X, Y, cand, order)) == brute_force(X, Y, cand, order)
            want = brute_force(X, Y, cand, X.linear_extension())
            assert first_solution(X, Y, cand) == (want[0] if want else None)


class TestFirstSolution:
    def test_repeated_call_gives_the_same_answer(self):
        rng = random.Random(7)
        for _ in range(50):
            X, Y = random_space(rng, 4), random_space(rng, 3)
            cand = [rng.randint(0, 7) for _ in X.points]
            first = first_solution(X, Y, cand)
            assert first_solution(X, Y, cand) == first
            assert first_solution(X, Y, list(cand)) == first

    def test_caller_may_mutate_its_masks_afterwards(self):
        X = Space.from_arrows(["a", "b"], [("a", "b")])
        Y = Space.from_arrows(["u", "v"], [("u", "v")])
        cand = [0b11, 0b11]
        assert first_solution(X, Y, cand) == (0, 0)
        cand[0] = 0b10
        assert first_solution(X, Y, cand) == (1, 1)
        cand[0] = 0b11
        assert first_solution(X, Y, cand) == (0, 0)

    def test_equal_spaces_in_other_point_orders_do_not_share_entries(self):
        # answers are index tuples in each space's own point order
        X = Space.from_arrows(["a", "b"], [("a", "b")])
        Y1 = Space.from_arrows(["u", "v"], [("u", "v")])
        Y2 = Space.from_arrows(["v", "u"], [("u", "v")])
        assert Y1 == Y2
        cand = [0b11, 0b10]  # b pinned to the second point of the codomain
        got = [first_solution(X, Y, cand) for Y in (Y1, Y2, Y1, Y2)]
        want = [brute_force(X, Y, cand, X.linear_extension())[0] for Y in (Y1, Y2)]
        assert want[0] != want[1]
        assert got == want * 2
        # so are enumerations
        got = [list(enum_hom(X, Y, cand)) for Y in (Y1, Y2, Y1, Y2)]
        want = [brute_force(X, Y, cand, range(2)) for Y in (Y1, Y2)]
        assert want[0] != want[1]
        assert got == want * 2


class TestEnumerationMemo:
    def test_only_an_enumeration_run_to_its_end_is_kept(self):
        X = Space.from_arrows(["a", "b", "c"], [("a", "b")])
        Y = Space.from_arrows(["u", "v", "w"], [("u", "v"), ("v", "w")])
        cand = [0b111, 0b110, 0b011]
        key = tuple(cand)
        want = brute_force(X, Y, cand, range(3))
        assert len(want) > 1
        stream = iter(enum_hom(X, Y, cand))
        assert next(stream) == want[0]
        stream.close()  # abandoned after one item
        assert key not in _table(X, Y, "enum")
        assert list(enum_hom(X, Y, cand)) == want
        assert list(_table(X, Y, "enum")[key]) == want
        assert enum_hom(X, Y, cand) is _table(X, Y, "enum")[key]

    def test_hom_is_the_all_ones_entry(self):
        X = Space.from_arrows(["a", "b"], [("a", "b")])
        Y = Space.from_arrows(["u", "v", "w"], [("u", "v")])
        got = hom(X, Y)
        assert list(got) == brute_force(X, Y, [0b111] * 2, range(2))
        memo = _table(X, Y, "enum")
        assert list(memo) == [(0b111, 0b111)]
        assert memo[(0b111, 0b111)] == got
        assert hom(X, Y) is memo[(0b111, 0b111)]
        assert enum_hom(X, Y) is memo[(0b111, 0b111)]

    def test_entry_dies_with_either_space(self):
        # the entry sits on X under Y's identity and holds Y weakly
        X = Space.from_arrows(["a", "b"], [("a", "b")])
        Y = Space.from_arrows(["u", "v"], [("u", "v")])
        assert list(enum_hom(X, Y, [0b11, 0b10])) == [(0, 1), (1, 1)]
        key = ("enum", id(Y))
        assert key in X._lazy
        probe = weakref.ref(Y)
        del Y
        gc.collect()
        assert probe() is None
        assert key not in X._lazy
        Y = Space.from_arrows(["u", "v"], [("u", "v")])
        assert list(enum_hom(X, Y, [0b11, 0b10])) == [(0, 1), (1, 1)]
        probe = weakref.ref(X)
        del X
        gc.collect()
        assert probe() is None


class TestPermutationScan:
    """The canonizer ``_scan`` against the permutation scan it replaced, and
    its outputs against brute force."""

    @pytest.mark.parametrize("n, count", enumerate([1, 1, 4, 29, 355]))
    def test_every_labeled_preorder_matches_the_permutation_scan(self, n, count):
        # OEIS A000798: labeled preorders (topologies) on n points
        found = list(labeled_preorders(n))
        assert len(found) == count
        for rows in found:
            assert _scan(n, rows) == oracle_scan(n, rows)

    @pytest.mark.parametrize("n", [5, 6])
    def test_random_preorders_match_the_permutation_scan(self, n):
        rng = random.Random(n)
        for _ in range(100):
            density = rng.random()
            rows = _close(n, [sum(1 << j for j in range(n) if rng.random() < density / 2)
                              for _ in range(n)])
            assert _scan(n, rows) == oracle_scan(n, rows)

    def test_automorphisms_match_brute_force(self):
        for space in enumerate_spaces(4):
            # catalog spaces are canonically labeled; the reversed copy is not
            for sp in (space, Space(space.points[::-1], space.rel)):
                assert automorphisms(sp) == brute_force_automorphisms(sp)

    @pytest.mark.parametrize("k, count", enumerate([1, 1, 2, 5, 16, 63, 318, 2045]))
    def test_poset_counts(self, k, count):
        # OEIS A000112: posets on k unlabeled points
        assert len(_posets(k)) == count

    @pytest.mark.parametrize("k", range(7))
    def test_posets_match_the_mask_filter(self, k):
        # one-point extension finds the iso classes the filter keeps, and
        # lists them in the same order
        assert [_scan(k, rows)[0] for rows, _ in _posets(k)] == oracle_posets(k)

    def test_poset_automorphism_groups(self):
        for k in range(5):
            for rows, auts in _posets(k):
                names = [f"c{i}" for i in range(k)]
                sp = Space(
                    names,
                    [(names[i], names[j]) for i in range(k) for j in range(k)
                     if (rows[i] >> j) & 1],
                )
                assert auts == brute_force_automorphisms(sp)
