"""Universe enumeration against an independent labeled-count oracle."""
import hashlib
import itertools
import json
import os
import shutil
import tracemalloc
from array import array
from pathlib import Path

import pytest

from ftop._solve import hom
from ftop.errors import CapacityError
from ftop.lifting import lifts_bool, monotone_maps, relative_orthogonal
from ftop.registry import EMPTY_TO_POINT, M_TO_LAMBDA
from ftop.space import CMap, Space, is_isomorphism, sub
from ftop.universe import (
    Universe,
    _auts,
    _canon,
    _enc_bits,
    automorphisms,
    canonical_space,
    enumerate_maps,
    enumerate_spaces,
    get_universe,
    map_key,
    space_key,
)


def oracle_class_count(n):
    """Count homeomorphism classes on exactly n points by brute force:
    enumerate every reflexive-transitive relation and bucket by the minimal
    relabeling of its pair set."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    classes = set()
    for mask in range(1 << len(pairs)):
        rel = {(i, i) for i in range(n)}
        for bit, p in enumerate(pairs):
            if (mask >> bit) & 1:
                rel.add(p)
        if any(
            (a, d) not in rel
            for a, b in rel
            for c, d in rel
            if b == c
        ):
            continue
        key = min(
            tuple(sorted((perm[a], perm[b]) for a, b in rel))
            for perm in itertools.permutations(range(n))
        )
        classes.add(key)
    return len(classes)


def orbit_triples(spaces):
    """The catalog's maps by the orbit scan over each hom-set: per pair of
    spaces, the least member of each orbit under Aut(X) x Aut(Y), sorted."""
    triples = []
    auts = [automorphisms(s) for s in spaces]
    for si, x in enumerate(spaces):
        for di, y in enumerate(spaces):
            reps, seen = set(), set()
            for t in hom(x, y):
                if t not in seen:
                    orbit = {tuple(b[t[i]] for i in a) for a in auts[si] for b in auts[di]}
                    seen |= orbit
                    reps.add(min(orbit))
            triples += [(si, di, t) for t in sorted(reps)]
    return triples


def packed(triples, spaces):
    """Blocks (si, di, codes) of sorted triples: a tuple's code reads it as
    a base-|Y| number, first entry most significant."""
    blocks = []
    for (si, di), group in itertools.groupby(triples, key=lambda tr: tr[:2]):
        base = len(spaces[di].points)
        blocks.append((si, di, array("H", [
            sum(v * base ** (len(t) - 1 - x) for x, v in enumerate(t)) for _, _, t in group])))
    return blocks


def monotone_tuples(x, y):
    """Every monotone index tuple x -> y, by filtering all functions."""
    for t in itertools.product(range(len(y.points)), repeat=len(x.points)):
        if all((y.up[t[i]] >> t[j]) & 1
               for i in range(len(t)) for j in range(len(t)) if (x.up[i] >> j) & 1):
            yield t


def burnside_orbits(x, y):
    """Orbits of the monotone maps x -> y under Aut(x) x Aut(y), acting by
    t -> b∘t∘a: the mean number of maps each group element fixes."""
    auts_x, auts_y = automorphisms(x), automorphisms(y)
    maps = list(monotone_tuples(x, y))
    fixed = sum(tuple(b[t[i]] for i in a) == t for a in auts_x for b in auts_y for t in maps)
    orbits, rest = divmod(fixed, len(auts_x) * len(auts_y))
    assert rest == 0
    return orbits


def hex_codes(text):
    """A block's hex as codes: four hex digits, big-endian, per code."""
    return [int(text[k:k + 4], 16) for k in range(0, len(text), 4)]


def code_hex(codes):
    return "".join(f"{c:04x}" for c in codes)


class TestSpaceEnumeration:
    def test_counts_match_oracle(self):
        spaces = enumerate_spaces(4)
        per_size = {}
        for s in spaces:
            per_size[len(s.points)] = per_size.get(len(s.points), 0) + 1
        for n in range(5):
            assert per_size[n] == oracle_class_count(n)

    def test_expected_small_counts(self):
        spaces = enumerate_spaces(5)
        per_size = {}
        for s in spaces:
            per_size[len(s.points)] = per_size.get(len(s.points), 0) + 1
        assert per_size == {0: 1, 1: 1, 2: 3, 3: 9, 4: 33, 5: 139}

    def test_catalog_is_duplicate_free(self):
        spaces = enumerate_spaces(4)
        keys = [space_key(s) for s in spaces]
        assert len(keys) == len(set(keys))

    def test_catalog_spaces_are_keyed_by_their_own_encoding(self):
        # Universe indexes its spaces by their own encoding instead of
        # space_key's scan: every catalog space is canonically labeled
        for s in enumerate_spaces(5):
            n = len(s.points)
            assert space_key(s) == (n, _enc_bits(n, s.up, range(n)))

    def test_catalog_spaces_satisfy_invariants(self):
        for s in enumerate_spaces(4):
            for p in s.points:
                assert (p, p) in s.rel
            for a, b in s.rel:
                for c, d in s.rel:
                    if b == c:
                        assert (a, d) in s.rel

    def test_cold_catalog_at_7_has_the_oeis_counts(self, tmp_path, monkeypatch):
        # OEIS A001930; the loader checks a cached catalog's counts, and
        # this checks a freshly built one
        monkeypatch.setenv("FTOP_CACHE_DIR", str(tmp_path))
        import ftop.universe as uni

        monkeypatch.setattr(uni, "_MEMO", {})
        spaces = enumerate_spaces(7)
        per_size = {}
        for s in spaces:
            per_size[len(s.points)] = per_size.get(len(s.points), 0) + 1
        assert per_size == {0: 1, 1: 1, 2: 3, 3: 9, 4: 33, 5: 139, 6: 718, 7: 4535}
        assert len({space_key(s) for s in spaces}) == len(spaces)

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            enumerate_spaces(8)
        with pytest.raises(ValueError):
            enumerate_spaces(-1)


class TestCanonicalForms:
    def test_canonical_space_is_isomorphic_rename(self):
        x = Space.from_arrows("uvw", [("u", "v"), ("v", "w")])
        c = canonical_space(x)
        assert space_key(c) == space_key(x)
        assert list(c.points) == ["p0", "p1", "p2"]

    def test_isomorphic_spaces_share_keys(self):
        a = Space.from_arrows("xy", [("x", "y")])
        b = Space.from_arrows("pq", [("q", "p")])
        assert space_key(a) == space_key(b)

    def test_map_key_invariant_under_renaming(self):
        f = M_TO_LAMBDA
        ren_src = Space.from_arrows(
            "ABCDE", [("B", "A"), ("B", "C"), ("D", "C"), ("D", "E")]
        )
        ren_dst = Space.from_arrows("PQR", [("Q", "P"), ("Q", "R")])
        g = CMap(ren_src, ren_dst, {"A": "P", "B": "Q", "C": "Q", "D": "Q", "E": "R"})
        assert map_key(f) == map_key(g)

    def test_automorphisms(self):
        disc2 = Space.from_arrows("ab", [])
        assert len(automorphisms(disc2)) == 2
        assert len(automorphisms(Space.from_arrows("ab", [("a", "b")]))) == 1

    def test_automorphisms_are_kept_on_the_space(self):
        for s in (Space.from_arrows("abc", []), *enumerate_spaces(4)):
            group = automorphisms(s)
            assert automorphisms(s) is group
            assert group == _auts(_canon(s)[1])


class TestMapUniverse:
    def test_reps_are_orbit_distinct(self):
        u = get_universe(3)
        keys = [map_key(u.map_at(k)) for k in range(len(u))]
        assert len(keys) == len(set(keys))

    def test_index_of_map_finds_renamed_maps(self):
        u = get_universe(3)
        f = CMap(
            Space.from_arrows("ab", [("a", "b")]),
            Space.from_arrows("z", []),
            {"a": "z", "b": "z"},
        )
        k = u.index_of_map(f)
        assert k is not None
        assert map_key(u.map_at(k)) == map_key(f)

    def test_index_of_map_inverts_map_at(self):
        u = get_universe(3)
        assert all(u.index_of_map(u.map_at(k)) == k for k in range(len(u)))
        # a map whose triple is missing is not found, at either end too
        triples = [u.triple(k) for k in range(len(u))]
        for k in (0, len(u) // 2, len(u) - 1):
            gap = Universe(3, u.spaces, packed(triples[:k] + triples[k + 1:], u.spaces))
            assert len(gap) == len(u) - 1
            assert gap.index_of_map(u.map_at(k)) is None

    def test_index_of_map_outside_universe(self):
        u = get_universe(2)
        assert u.index_of_map(M_TO_LAMBDA) is None

    def test_large_maps_are_rejected_before_canonicalization(self):
        # a 13-point domain would take 13! relabelings to canonicalize
        assert get_universe(3).index_of_map(sub(3)) is None
        assert sub(3) not in relative_orthogonal([EMPTY_TO_POINT], "r", 3)

    def test_every_labeled_map_has_a_representative(self):
        u = get_universe(2)
        for x in u.spaces:
            for y in u.spaces:
                for f in monotone_maps(x, y):
                    assert u.index_of_map(f) is not None

    def test_lifting_invariance_under_iso_reduction_spotcheck(self):
        # pre/post composition with isomorphisms must not change lifting
        u = get_universe(3)
        f = CMap(
            Space.from_arrows("ab", [("a", "b")]),
            Space.from_arrows("z", []),
            {"a": "z", "b": "z"},
        )
        rep = u.map_at(u.index_of_map(f))
        for probe_idx in (0, len(u) // 2, len(u) - 1):
            probe = u.map_at(probe_idx)
            assert lifts_bool(probe, f) == lifts_bool(probe, rep)
            assert lifts_bool(f, probe) == lifts_bool(rep, probe)

    def test_enumerate_maps_sequence(self):
        maps = enumerate_maps(2)
        assert len(maps) > 0
        assert maps[0] == maps[0]
        assert list(maps[:3]) == [maps[0], maps[1], maps[2]]

    def test_capacity(self):
        with pytest.raises(CapacityError):
            get_universe(6)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_block_sizes_match_burnside(self, n):
        # an orbit count that does not run the orbit scan, for every pair of
        # catalog spaces, those with no map between them included
        u = get_universe(n)
        sizes = {(si, di): len(codes) for si, di, codes in u.blocks}
        for si, x in enumerate(u.spaces):
            for di, y in enumerate(u.spaces):
                assert sizes.get((si, di), 0) == burnside_orbits(x, y), (si, di)

    @pytest.mark.parametrize("n, count", [(3, 14), (4, 47)])
    def test_isomorphisms_lie_one_per_diagonal_block(self, n, count):
        # the sweep tests only the maps of blocks (s, s) for isomorphisms
        u = get_universe(n)
        blocks = [u.triple(k)[:2] for k in range(len(u))]
        isos = [blocks[k] for k in range(len(u)) if is_isomorphism(u.map_at(k))]
        assert sorted(isos) == [(s, s) for s in range(len(u.spaces))]
        assert len(isos) == count

    def test_runs_split_indices_by_block(self):
        u = get_universe(3)
        triples = [u.triple(k) for k in range(len(u))]
        for ks in (range(len(u)), range(1, len(u), 3), [5, 4, 3, 600, 2, 2], []):
            runs = list(u.runs(ks))
            assert [k for _, _, run, _ in runs for k in run] == list(ks)
            for si, di, run, ts in runs:
                assert [triples[k] for k in run] == [(si, di, t) for t in ts]
            # maximal: neighbouring runs come from different blocks
            for a, b in zip(runs, runs[1:]):
                assert a[:2] != b[:2]
        assert len(list(u.runs(range(len(u))))) == len(u.blocks)

    def test_triple_is_a_sequence_index(self):
        u = get_universe(3)
        triples = [(si, di, t) for si, di, _, ts in u.runs(range(len(u))) for t in ts]
        assert [u.triple(k) for k in range(len(u))] == triples
        assert u.triple(-1) == triples[-1] and u.triple(-len(u)) == triples[0]
        for k in (len(u), -len(u) - 1):
            with pytest.raises(IndexError):
                u.triple(k)


class TestDiskCache:
    def test_universe_cache_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FTOP_CACHE_DIR", str(tmp_path))
        import ftop.universe as uni

        monkeypatch.setattr(uni, "_MEMO", {})
        first = uni.get_universe(2)
        assert (tmp_path / f"maps_n2_{uni._code_digest()}.json").exists()
        monkeypatch.setattr(uni, "_MEMO", {})
        second = uni.get_universe(2)
        assert first.blocks == second.blocks
        assert [first.map_at(k) for k in range(len(first))] == [
            second.map_at(k) for k in range(len(second))
        ]

    def test_cache_written_by_other_code_is_not_loaded(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FTOP_CACHE_DIR", str(tmp_path))
        import ftop.universe as uni

        monkeypatch.setattr(uni, "_code_digest", lambda: "0" * 16)
        uni._save_cache("maps_n2", {"maps": []})
        assert uni._load_cache("maps_n2") == {"maps": []}
        monkeypatch.setattr(uni, "_code_digest", lambda: "1" * 16)
        assert uni._load_cache("maps_n2") is None
        monkeypatch.setattr(uni, "_MEMO", {})
        assert len(uni.get_universe(2)) > 0  # rebuilt, not the stale empty list

    def test_spaces_file_missing_a_space_is_rebuilt(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FTOP_CACHE_DIR", str(tmp_path))
        import ftop.universe as uni

        monkeypatch.setattr(uni, "_MEMO", {})
        full = uni.enumerate_spaces(3)
        payload = uni._load_cache("spaces_n3")
        del payload["spaces"][5]
        uni._save_cache("spaces_n3", payload)
        monkeypatch.setattr(uni, "_MEMO", {})
        assert uni.enumerate_spaces(3) == full
        assert len(uni._load_cache("spaces_n3")["spaces"]) == len(full)

    # a duplicated item keeps every count; the matrix's sampled check is not
    # meant to see a repeated row
    @pytest.mark.parametrize("stem, fault", [
        (stem, fault)
        for stem in ("spaces_n3", "maps_n2", "matrix_n2")
        for fault in ("empty list", "item dropped", "key missing", "string", "item duplicated")
        if (stem, fault) != ("matrix_n2", "item duplicated")
    ])
    def test_faulty_payload_is_rebuilt(self, stem, fault, tmp_path, monkeypatch):
        monkeypatch.setenv("FTOP_CACHE_DIR", str(tmp_path))
        import ftop.universe as uni
        from ftop.lifting import lifting_matrix

        key, load = {
            "spaces_n3": ("spaces", lambda: uni.enumerate_spaces(3)),
            "maps_n2": ("maps", lambda: uni.get_universe(2).blocks),
            "matrix_n2": ("rows", lambda: lifting_matrix(2)),
        }[stem]
        monkeypatch.setattr(uni, "_MEMO", {})
        built = load()
        good = uni._load_cache(stem)
        bad = dict(good)
        if fault == "key missing":
            del bad[key]
        elif fault == "item duplicated":  # item 6 overwritten by item 5, of the same size
            bad[key] = good[key][:6] + good[key][5:6] + good[key][7:]
        else:
            bad[key] = {"empty list": [], "item dropped": good[key][:-1],
                        "string": "corrupt"}[fault]
        uni._save_cache(stem, bad)
        monkeypatch.setattr(uni, "_MEMO", {})
        assert load() == built
        assert uni._load_cache(stem) == good

    # each fault keeps every other check passing, the count sum included
    @pytest.mark.parametrize("fault", [
        "codes out of order", "repeated code", "code out of range", "count disagrees",
        "repeated key", "key out of range", "empty block",
    ])
    def test_faulty_map_block_is_rebuilt(self, fault, tmp_path, monkeypatch):
        monkeypatch.setenv("FTOP_CACHE_DIR", str(tmp_path))
        import ftop.universe as uni

        monkeypatch.setattr(uni, "_MEMO", {})
        built = uni.get_universe(3).blocks
        size = [len(s.points) for s in uni.enumerate_spaces(3)]
        good = uni._load_cache("maps_n3")
        bad = [list(block) for block in good["maps"]]
        if fault == "codes out of order":
            block = next(b for b in bad if b[2] >= 2)
            codes = hex_codes(block[3])
            block[3] = code_hex([codes[1], codes[0]] + codes[2:])
        elif fault == "repeated code":  # still in order, but not strictly
            block = next(b for b in bad if b[2] >= 2)
            codes = hex_codes(block[3])
            block[3] = code_hex([codes[0], codes[0]] + codes[2:])
        elif fault == "code out of range":
            block = next(b for b in bad if size[b[0]] > 0)
            codes = hex_codes(block[3])
            block[3] = code_hex(codes[:-1] + [size[block[1]] ** size[block[0]]])
        elif fault == "count disagrees":
            bad[3][2] += 1
            bad[-1][2] -= 1
        elif fault == "repeated key":  # between spaces of the same sizes
            k = next(k for k in range(len(bad) - 1)
                     if [size[i] for i in bad[k][:2]] == [size[i] for i in bad[k + 1][:2]])
            bad[k + 1][:2] = bad[k][:2]
        elif fault == "key out of range":
            bad[-1][1] = len(size)
        else:  # from the point into the empty space, between its neighbours
            k = next(k for k, b in enumerate(bad) if b[0] == 1)
            bad.insert(k, [1, 0, 0, ""])
        assert bad != good["maps"]
        uni._save_cache("maps_n3", dict(good, maps=bad))
        monkeypatch.setattr(uni, "_MEMO", {})
        assert uni.get_universe(3).blocks == built
        assert uni._load_cache("maps_n3") == good

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_decoded_catalog_is_the_orbit_scan_packed(self, n, tmp_path, monkeypatch):
        monkeypatch.setenv("FTOP_CACHE_DIR", str(tmp_path))
        import ftop.universe as uni

        monkeypatch.setattr(uni, "_MEMO", {})
        uni.get_universe(n)  # built and saved
        monkeypatch.setattr(uni, "_MEMO", {})
        loaded = uni.get_universe(n)  # decoded from the file
        spaces = uni.enumerate_spaces(n)
        want = orbit_triples(spaces)
        assert [loaded.triple(k) for k in range(len(loaded))] == want
        assert loaded.blocks == tuple(packed(want, spaces))
        assert len(loaded) == uni.MAP_COUNTS[n]

    def test_warm_load_builds_nothing_per_map(self, monkeypatch):
        import ftop.universe as uni

        monkeypatch.setattr(uni, "_MEMO", {})
        uni.get_universe(4)  # the file, and the spaces, loaded or built
        del uni._MEMO["maps_n4"]
        tracemalloc.start()
        try:
            u = uni.get_universe(4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(u) == 25586
        assert peak < 2 * 2**20

    def test_cold_build_keeps_no_enumeration_memo(self, tmp_path, monkeypatch):
        # the build enumerates each hom-set once; no memo outlives it
        monkeypatch.setenv("FTOP_CACHE_DIR", str(tmp_path))
        import ftop.universe as uni

        monkeypatch.setattr(uni, "_MEMO", {})
        u = uni.get_universe(3)
        assert [key for s in u.spaces for key in s._lazy if key[:1] == ("enum",)] == []

    def test_code_digest_follows_the_package_source(self, tmp_path):
        import ftop.universe as uni

        src = Path(uni.__file__).parent
        digest = uni._code_digest.__wrapped__
        copy = tmp_path / "ftop"
        shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
        assert digest(copy) == digest(src) == uni._code_digest()
        with open(copy / "lifting.py", "a") as fh:
            fh.write("# edited\n")
        assert digest(copy) != digest(src)

    def test_save_writes_through_a_per_process_temp_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FTOP_CACHE_DIR", str(tmp_path))
        import ftop.universe as uni

        moved = []
        real = Path.replace

        def spy(self, target):
            moved.append(self.name)
            return real(self, target)

        monkeypatch.setattr(Path, "replace", spy)
        uni._save_cache("probe", {"rows": ["0x1"]})
        name = uni._cache_file("probe").name
        assert moved == [f"{name}.{os.getpid()}.tmp"]
        assert [p.name for p in tmp_path.iterdir()] == [name]
        assert uni._load_cache("probe") == {"rows": ["0x1"]}

    def test_saved_bytes_are_the_compact_dump(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FTOP_CACHE_DIR", str(tmp_path))
        import ftop.universe as uni

        block = uni._JSON_BLOCK
        payload = {"n": 2, "name": "x\u00e9", "empty": [], "spaces": [{"points": ["p0"]}]}
        for size in (1, block - 1, block, block + 1, 2 * block, 2 * block + 3):
            payload[f"maps{size}"] = [[k % 7, k % 5, [k % 3, 0]] for k in range(size)]
        uni._save_cache("probe", payload)
        digest, _, body = uni._cache_file("probe").read_bytes().partition(b"\n")
        assert body == json.dumps(payload).encode()
        assert digest == hashlib.sha256(body).hexdigest().encode()

    def test_hand_edited_file_is_rebuilt(self, tmp_path, monkeypatch):
        # block (1, 2), the one map from the point into the first two-point
        # space, re-coded [1] for [0]: every decode check passes, and
        # without the checksum a 31-map universe with other blocks loads
        monkeypatch.setenv("FTOP_CACHE_DIR", str(tmp_path))
        import ftop.universe as uni

        monkeypatch.setattr(uni, "_MEMO", {})
        built = uni.get_universe(2).blocks
        path = uni._cache_file("maps_n2")
        raw = path.read_bytes()
        assert raw.count(b"[1, 2, 1, \"0000\"]") == 1
        path.write_bytes(raw.replace(b"[1, 2, 1, \"0000\"]", b"[1, 2, 1, \"0001\"]"))
        assert uni._load_cache("maps_n2") is None
        monkeypatch.setattr(uni, "_MEMO", {})
        assert uni.get_universe(2).blocks == built
        assert path.read_bytes() == raw

    def test_failed_save_leaves_no_temp_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FTOP_CACHE_DIR", str(tmp_path))
        import ftop.universe as uni

        real_open = open

        class DiskFull:
            """A temp file that takes one byte, then fails the write."""

            def __init__(self, path, mode):
                self.fh = real_open(path, mode)
                self.fh.write("{")

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                raise OSError("no space left on device")

        monkeypatch.setattr(uni, "open", DiskFull, raising=False)
        uni._save_cache("probe", {"rows": []})
        assert list(tmp_path.iterdir()) == []
