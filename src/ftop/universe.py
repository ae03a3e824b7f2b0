"""Exhaustive catalogs of finite spaces and monotone maps up to isomorphism.

Spaces are enumerated as (poset of indiscernibility classes) x (class sizes).
Posets on k points extend those on k-1 points by one point, and a space's
up rows expand its poset's rows by the class sizes, so nothing is filtered.
One branch and bound, ``_scan``, finds the minimal adjacency encoding of a
relation and every permutation achieving it; canonical keys, canonical
labelings and automorphism groups all come from it.  Maps between catalog
spaces are reduced modulo independent domain/codomain automorphisms.
Catalogs are cached on disk keyed by bound and a digest of the package source.
A universe stores its maps as blocks, one per (source, target) pair of
catalog spaces: an array of the index tuples' base-|target| codes, in
increasing order, on disk as hex.  A cached table of digit tuples decodes a
code, so loading builds no object per map, and a sweep reads index tuples by
runs of one block (``Universe.runs``).  The blocks are the universe's only
copy of its maps: ``Universe.map_at`` builds one map, ``enumerate_maps``
every map afresh on each call, and a map is looked up by bisecting its
block.
"""
from __future__ import annotations

import bisect
import contextlib
import hashlib
import itertools
import json
import operator
import os
import sys
from array import array
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar

from ._solve import _search
from .errors import CapacityError
from .space import CMap, Space, map_from_tuple, space_from_json, space_to_json

SPACES_MAX_N = 7
MAPS_MAX_N = 5
_JSON_BLOCK = 64  # list items encoded per json.dumps call of a cache write
# spaces per point count up to homeomorphism (OEIS A001930), and maps of the
# n-point universe for n = 0..MAPS_MAX_N; a catalog read from disk must match
SPACE_COUNTS = (1, 1, 3, 9, 33, 139, 718, 4535)
MAP_COUNTS = (1, 3, 31, 661, 25586, 1649594)

T = TypeVar("T")
_MEMO: dict[str, object] = {}  # artifacts of this process, by cache stem


def cache_dir() -> Path:
    root = os.environ.get("FTOP_CACHE_DIR")
    if root:
        return Path(root)
    return Path.home() / ".cache" / "ftop"


@lru_cache(maxsize=None)
def _code_digest(root: Path = Path(__file__).parent) -> str:
    """Digest of the package source: a cache file is read back only by the
    code that wrote it."""
    h = hashlib.sha256()
    for path in sorted(root.glob("*.py")):
        h.update(f"\0{path.name}\0".encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _cache_file(stem: str) -> Path:
    return cache_dir() / f"{stem}_{_code_digest()}.json"


def _load_cache(stem: str) -> Optional[dict]:
    """The payload of a cache file, or None if it is missing, unreadable or
    its body does not match the sha256 on its first line."""
    try:
        digest, _, body = _cache_file(stem).read_bytes().partition(b"\n")
        if digest.strip() == hashlib.sha256(body).hexdigest().encode():
            return json.loads(body)
    except (OSError, ValueError):
        pass
    return None


def _json_chunks(payload: dict) -> Iterator[str]:
    """Exactly ``json.dumps(payload)`` (str keys), in chunks of one block of
    list items per ``dumps`` call.  ``json.dump`` would take the pure-Python
    encoder; one string of the whole payload would add megabytes to the
    peak RSS."""
    yield "{"
    for k, (key, value) in enumerate(payload.items()):
        yield f"{', ' if k else ''}{json.dumps(key)}: "
        if isinstance(value, list) and value:
            for start in range(0, len(value), _JSON_BLOCK):
                block = json.dumps(value[start:start + _JSON_BLOCK])[1:-1]
                yield f"{', ' if start else '['}{block}"
            yield "]"
        else:
            yield json.dumps(value)
    yield "}"


def _save_cache(stem: str, payload: dict) -> None:
    """Write the sha256 of the JSON body on the first line, then the body,
    through a temp file of this process's own, so concurrent writers never
    share one.  The body is ASCII (``json.dumps`` escapes the rest), so its
    text is its bytes."""
    path = _cache_file(stem)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    with contextlib.suppress(OSError):  # caching is best-effort
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            h = hashlib.sha256()
            with open(tmp, "w") as fh:
                fh.write("0" * 64 + "\n")  # room for the hex digest, written last
                for chunk in _json_chunks(payload):
                    h.update(chunk.encode())
                    fh.write(chunk)
                fh.seek(0)
                fh.write(h.hexdigest())
            tmp.replace(path)
        finally:
            tmp.unlink(missing_ok=True)


def _artifact(stem: str, decode: Callable[[dict], Optional[T]], build: Callable[[], T],
              encode: Callable[[T], dict]) -> T:
    """The artifact ``stem``: from this process's memo, else from its cache
    file if ``decode`` accepts the payload, else built and saved.  A payload
    that ``decode`` rejects (None) or cannot read (KeyError, TypeError,
    ValueError) is rebuilt."""
    got = _MEMO.get(stem)
    if got is None:
        payload = _load_cache(stem)
        if payload is not None:
            with contextlib.suppress(KeyError, TypeError, ValueError):
                got = decode(payload)
        if got is None:
            got = build()
            _save_cache(stem, encode(got))
        _MEMO[stem] = got
    return got


# -- canonical forms ----------------------------------------------------------


def _enc_bits(n: int, up: Sequence[int], perm: Sequence[int]) -> int:
    bits = 0
    for k in range(n):
        row = up[perm[k]]
        base = k * n
        for l in range(n):
            if l != k and (row >> perm[l]) & 1:
                bits |= 1 << (base + l)
    return bits


def _scan(n: int, up: Sequence[int]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Least encoding of the relation ``up`` over all relabelings, and every
    permutation achieving it, in lexicographic order.

    Positions are filled from the top, as row n-1 is the most significant.
    A state holds the points placed so far, from the top free position up,
    and cells of the others, from the bottom.  A candidate q from the top
    cell has its least row with its out-neighbours at the bottom of each
    cell; only the least rows over all states survive a level, and placing q
    splits each cell into (out-neighbours of q, the rest)."""
    bits = 0
    states = [((), [(1 << n) - 1] if n else [])]
    for pos in range(n - 1, -1, -1):
        least, kept = -1, []
        for placed, cells in states:
            top = cells[-1]
            while top:
                bit = top & -top
                top ^= bit
                q = bit.bit_length() - 1
                out = up[q] & ~bit
                row = lo = 0
                for k, x in enumerate(placed, pos + 1):
                    if (out >> x) & 1:
                        row |= 1 << k
                for c in cells:
                    row |= ((1 << (out & c).bit_count()) - 1) << lo
                    lo += c.bit_count()
                if least < 0 or row < least:
                    least, kept = row, []
                if row == least:
                    kept.append(((q,) + placed, [part for c in cells
                                                 for part in (c & out, c & ~(out | bit)) if part]))
        bits |= least << (pos * n)
        states = kept
    return bits, tuple(sorted(placed for placed, _ in states))


def _inverse(perm: Sequence[int]) -> list[int]:
    inv = [0] * len(perm)
    for pos, orig in enumerate(perm):
        inv[orig] = pos
    return inv


def _auts(perms: Sequence[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """The automorphism group from ``_scan``'s minimizing permutations: any
    two of them differ by an automorphism, so it is {tau∘sigma0^-1}."""
    inv = _inverse(perms[0])
    return tuple(sorted(tuple(tau[k] for k in inv) for tau in perms))


def _canon(space: Space) -> tuple[tuple[int, int], tuple[tuple[int, ...], ...]]:
    """Canonical key (n, bits) and all permutations achieving it (cached)."""
    got = space._lazy.get("canon")
    if got is None:
        n = len(space.points)
        bits, perms = _scan(n, space.up)
        got = ((n, bits), perms)
        space._lazy["canon"] = got
    return got


def space_key(space: Space) -> tuple[int, int]:
    return _canon(space)[0]


def _space_from_enc(n: int, bits: int) -> Space:
    pts = [f"p{k}" for k in range(n)]
    rel = [
        (pts[k], pts[l])
        for k in range(n)
        for l in range(n)
        if k != l and (bits >> (k * n + l)) & 1
    ]
    return Space(pts, rel)


def canonical_space(space: Space) -> Space:
    (n, bits), _ = _canon(space)
    return _space_from_enc(n, bits)


def automorphisms(space: Space) -> tuple[tuple[int, ...], ...]:
    """All relation-preserving permutations of the point indices, sorted (cached)."""
    got = space._lazy.get("auts")
    if got is None:
        got = space._lazy["auts"] = _auts(_canon(space)[1])
    return got


def map_key(f: CMap) -> tuple[int, int, int, int, tuple[int, ...]]:
    """Canonical key of a map under independent endpoint relabeling."""
    (nA, encA), perms_a = _canon(f.src)
    (nB, encB), perms_b = _canon(f.dst)
    t = f.as_tuple()
    best = None
    for pb in perms_b:
        inv_b = _inverse(pb)
        for pa in perms_a:
            cand = tuple(inv_b[t[pa[k]]] for k in range(nA))
            if best is None or cand < best:
                best = cand
    return (nA, encA, nB, encB, best if best is not None else ())


# -- space enumeration ---------------------------------------------------------


@lru_cache(maxsize=None)
def _posets(k: int) -> tuple[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]], ...]:
    """Posets on k labeled points, one labeling per iso class (in order of
    canonical key), paired with their automorphism groups: each poset on k-1
    points gains a last point related to itself and to a set of old points
    closed under the relation (every poset is one, with a point no other
    relates to last).  Points relate only to earlier ones, so point i joins
    each closed set that holds the rest of its row."""
    if k == 0:
        return (((), ((),)),)
    found: dict[int, tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]] = {}
    for rows, _ in _posets(k - 1):
        closed = [0]
        for i, row in enumerate(rows):
            closed += [s | 1 << i for s in closed if row & ~s == 1 << i]
        for s in closed:
            ext = rows + (s | 1 << (k - 1),)
            bits, perms = _scan(k, ext)
            if bits not in found:
                found[bits] = (ext, _auts(perms))
    return tuple(found[bits] for bits in sorted(found))


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    for cuts in itertools.combinations(range(1, total), parts - 1):
        yield tuple(b - a for a, b in zip((0,) + cuts, cuts + (total,)))


def _spaces_of_size(m: int) -> list[Space]:
    """The spaces of m points in key order: each poset of k classes with
    class sizes from each composition of m into k parts, one per orbit of
    the poset's automorphisms, expanded into the up rows of m points."""
    if m == 0:
        return [_space_from_enc(0, 0)]
    keys = set()
    for k in range(1, m + 1):
        for rows, auts in _posets(k):
            for sizes in {min(tuple(sizes[a[i]] for i in range(k)) for a in auts)
                          for sizes in _compositions(m, k)}:
                masks = [(1 << end) - (1 << end - size)  # the points of each class
                         for size, end in zip(sizes, itertools.accumulate(sizes))]
                up = [sum(c for j, c in enumerate(masks) if row >> j & 1)
                      for row, size in zip(rows, sizes) for _ in range(size)]
                keys.add(_scan(m, up)[0])
    return [_space_from_enc(m, bits) for bits in sorted(keys)]


def enumerate_spaces(n: int) -> tuple[Space, ...]:
    """One space per homeomorphism class, all sizes 0..n, canonically named."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > SPACES_MAX_N:
        raise CapacityError(f"space catalog at n={n} (max {SPACES_MAX_N})")

    def decode(payload: dict) -> Optional[tuple[Space, ...]]:
        spaces = tuple(map(space_from_json, payload["spaces"]))
        want = [m for m in range(n + 1) for _ in range(SPACE_COUNTS[m])]
        ok = [len(s.points) for s in spaces] == want and len(set(spaces)) == len(spaces)
        return spaces if ok else None

    return _artifact(
        f"spaces_n{n}", decode,
        lambda: tuple(s for m in range(n + 1) for s in _spaces_of_size(m)),
        lambda spaces: {"n": n, "spaces": [space_to_json(s) for s in spaces]},
    )


# -- map universe ---------------------------------------------------------------


# A block holds the maps X -> Y of one pair of catalog spaces as codes in
# base |Y|, most significant digit first (code = sum of t[x]*|Y|^(|X|-1-x)),
# so numeric order is index-tuple order.  At MAPS_MAX_N = 5, |Y|^|X| <= 5^5
# fits 16 bits.
_CODE = "H"


@lru_cache(maxsize=None)
def _digits(nX: int, nY: int) -> tuple[tuple[int, ...], ...]:
    """The index tuple of each code of a block from nX into nY points."""
    return tuple(itertools.product(range(nY), repeat=nX))


def _code(t: Sequence[int], nY: int) -> int:
    c = 0
    for v in t:
        c = c * nY + v
    return c


def _pack(codes: array) -> str:
    """Codes as the hex of big-endian 16-bit words, on any host."""
    if sys.byteorder == "little":
        codes = array(_CODE, codes)
        codes.byteswap()
    return codes.tobytes().hex()


def _unpack(text: str) -> array:
    codes = array(_CODE, bytes.fromhex(text))
    if sys.byteorder == "little":
        codes.byteswap()
    return codes


class Universe:
    """Canonical catalog of spaces and maps bounded by point count.

    ``blocks`` lists ``(si, di, codes)`` in increasing order of (si, di),
    one per pair of catalog spaces with a map between them, codes strictly
    increasing.  Map k is code ``k - s`` of the block whose maps start at
    index s."""

    def __init__(self, n: int, spaces: Sequence[Space],
                 blocks: Iterable[tuple[int, int, Sequence[int]]]):
        self.n = n
        self.spaces = tuple(spaces)
        self.blocks = tuple(blocks)
        self._starts = list(itertools.accumulate((len(b[2]) for b in self.blocks), initial=0))
        self._block = {(si, di): (start, codes)
                       for (si, di, codes), start in zip(self.blocks, self._starts)}
        # a catalog space is canonically labeled, so its own encoding is its
        # key: a load canonizes no space
        self._space_index = {(size := len(s.points), _enc_bits(size, s.up, range(size))): k
                             for k, s in enumerate(self.spaces)}

    def __len__(self) -> int:
        return self._starts[-1]

    def _table(self, si: int, di: int) -> tuple[tuple[int, ...], ...]:
        return _digits(len(self.spaces[si].points), len(self.spaces[di].points))

    def triple(self, k: int) -> tuple[int, int, tuple[int, ...]]:
        """Map k as (source index, target index, index tuple)."""
        k = range(len(self))[k]
        b = bisect.bisect_right(self._starts, k) - 1
        si, di, codes = self.blocks[b]
        return si, di, self._table(si, di)[codes[k - self._starts[b]]]

    def runs(self, ks: Iterable[int]) -> Iterator[tuple[int, int, list[int], list[tuple]]]:
        """The maps at the indices ``ks``, in ``ks`` order, as maximal runs
        from one block, yielded one at a time: (source index, target index,
        indices, index tuples)."""
        run, start, end = None, 0, 0
        for k in ks:
            if not start <= k < end:
                if run is not None:
                    yield run
                b = bisect.bisect_right(self._starts, k) - 1
                start, end = self._starts[b], self._starts[b + 1]
                si, di, codes = self.blocks[b]
                table, run = self._table(si, di), (si, di, [], [])
            run[2].append(k)
            run[3].append(table[codes[k - start]])
        if run is not None:
            yield run

    def map_at(self, k: int) -> CMap:
        """Map k, built afresh."""
        si, di, t = self.triple(k)
        return map_from_tuple(self.spaces[si], self.spaces[di], t)

    def index_of_map(self, f: CMap) -> Optional[int]:
        if len(f.src.points) > self.n or len(f.dst.points) > self.n:
            return None  # outside the universe; spares a canonicalization
        nA, encA, nB, encB, t = map_key(f)
        index = self._space_index
        got = self._block.get((index.get((nA, encA)), index.get((nB, encB))))
        if got is None:
            return None
        start, codes = got
        c = _code(t, nB)
        j = bisect.bisect_left(codes, c)
        return start + j if j < len(codes) and codes[j] == c else None


def _images(group: Sequence[Sequence[int]], nX: int, nY: int, codomain: bool) -> array:
    """Each code of nX base-nY digits under each member g of ``group``, as
    t∘g (or g∘t for a codomain group), code-major: for k members, the images
    of code c are ``table[c * k:(c + 1) * k]``.  Images are built a digit
    at a time: column i holds what each value of digit i adds."""
    w = [nY ** (nX - 1 - i) for i in range(nX)]
    images = []
    for g in group:
        vals = [0]
        for col in ([[g[d] * v for d in range(nY)] for v in w] if codomain
                    else [[d * w[i] for d in range(nY)] for i in _inverse(g)]):
            vals = [v + c for v in vals for c in col]
        images.append(vals)
    return array(_CODE, itertools.chain.from_iterable(zip(*images)))


def _map_blocks(spaces: Sequence[Space]) -> list[tuple[int, int, array]]:
    """Per pair of spaces, the least member of each orbit of hom(X, Y) under
    Aut(X) x Aut(Y).  ``_search`` yields hom(X, Y) in increasing order, so
    the first member seen of an orbit is its least, and each block is packed
    as it is enumerated.  The orbit of t is marked as the codomain images
    b∘t' of its domain images t' = t∘a, read from tables of ``_images``."""
    auts = [automorphisms(s) for s in spaces]
    images = lru_cache(maxsize=None)(_images)  # shared by equal groups, freed on return
    blocks = []
    for si, X in enumerate(spaces):
        nX, kd = len(X.points), len(auts[si])
        order = tuple(range(nX))
        for di, Y in enumerate(spaces):
            nY, kc = len(Y.points), len(auts[di])
            dom, cod = images(auts[si], nX, nY, False), images(auts[di], nX, nY, True)
            codes = array(_CODE)
            seen: set[int] = set()  # one hom-set at a time
            for t in _search(X, Y, ((1 << nY) - 1,) * nX, order):
                c = _code(t, nY)
                if c not in seen:
                    codes.append(c)
                    for image in dom[c * kd:c * kd + kd]:
                        seen.update(cod[image * kc:image * kc + kc])
            if codes:
                blocks.append((si, di, codes))
    return blocks


def get_universe(n: int) -> Universe:
    """The bounded universe of spaces and map representatives (cached)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > MAPS_MAX_N:
        raise CapacityError(f"map universe at n={n} (max {MAPS_MAX_N})")

    def decode(payload: dict) -> Optional[Universe]:
        spaces = enumerate_spaces(n)
        size = [len(s.points) for s in spaces]
        blocks, last = [], (-1, -1)
        for si, di, count, text in payload["maps"]:
            codes = _unpack(text)
            if not (0 <= si < len(spaces) and 0 <= di < len(spaces) and last < (si, di)
                    and count == len(codes) > 0 and codes[-1] < size[di] ** size[si]
                    and all(map(operator.lt, codes, codes[1:]))):
                return None
            blocks.append((si, di, codes))
            last = (si, di)
        uni = Universe(n, spaces, blocks)
        return uni if len(uni) == MAP_COUNTS[n] else None

    def build() -> Universe:
        spaces = enumerate_spaces(n)
        return Universe(n, spaces, _map_blocks(spaces))

    return _artifact(
        f"maps_n{n}", decode, build,
        lambda uni: {"n": n, "maps": [[si, di, len(codes), _pack(codes)]
                                      for si, di, codes in uni.blocks]},
    )


def _space_universe(n: int) -> Universe:
    """The spaces of ``enumerate_spaces(n)`` as a universe held in memory:
    map k, alone in its block, is the one from the empty space to space k."""
    spaces = enumerate_spaces(n)
    return Universe(n, spaces, [(0, di, (0,)) for di in range(len(spaces))])


def enumerate_maps(n: int) -> tuple[CMap, ...]:
    """Canonical representatives of all maps in the n-point universe, in
    index order, built afresh on each call."""
    u = get_universe(n)
    sp = u.spaces
    return tuple(map_from_tuple(sp[si], sp[di], t)
                 for si, di, _, ts in u.runs(range(len(u))) for t in ts)
