"""The lifting-property decision procedure and bounded orthogonal classes.

A lifting problem for i: A -> X against g: Y -> B is a commutative square
(f: A -> Y, phi: X -> B); "i lifts against g" means every such square admits a
monotone diagonal h: X -> Y with h∘i = f and g∘h = phi.  Squares are
enumerated in a fixed canonical order (phi lexicographic, then f), so failing
certificates always report the least counterexample.
"""
from __future__ import annotations

import hashlib
import json
import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from typing import Iterator, Optional, Sequence

from ._solve import _search, _table, enum_hom, first_solution, hom
from .errors import CapacityError, MapError
from .space import (
    CMap, Space, _fibers, compose, identity, is_isomorphism, map_from_tuple, map_to_json,
)
from .universe import _artifact, automorphisms, get_universe

MATRIX_MAX_N = 3  # largest bound for multi-letter words and the pairwise lifting matrix
STEP_BLOCK = 64  # positions per work item of a _step


def monotone_maps(x: Space, y: Space) -> list[CMap]:
    """All continuous maps x -> y, in a deterministic canonical order."""
    return [map_from_tuple(x, y, t) for t in hom(x, y)]


@dataclass(frozen=True)
class Square:
    """A commutative lifting problem from i: A -> X to g: Y -> B."""

    i: CMap
    g: CMap
    f: CMap
    phi: CMap

    def __post_init__(self):
        if self.f.src != self.i.src or self.f.dst != self.g.src:
            raise MapError("square: f must run from dom(i) to dom(g)")
        if self.phi.src != self.i.dst or self.phi.dst != self.g.dst:
            raise MapError("square: phi must run from cod(i) to cod(g)")
        if compose(self.f, self.g) != compose(self.i, self.phi):
            raise MapError("square does not commute: g∘f != phi∘i")

    def to_json(self) -> dict:
        return {"f": map_to_json(self.f), "phi": map_to_json(self.phi)}


def _squares(i: CMap, g: CMap) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], list[int]]]:
    """(phi, f, over) of every commutative square from i to g, in canonical
    order, as index tuples; over[x] is g's fiber over phi(x), one per phi."""
    A, Y, B = i.src, g.src, g.dst
    if A.points and not Y.points:
        return  # there is no f: A -> Y, so no square
    it = i.as_tuple()
    fib = _fibers(g)
    for phi in hom(i.dst, B):
        over = [fib[b] for b in phi]
        cand = tuple([over[x] for x in it])
        if 0 in cand:
            continue
        for f in enum_hom(A, Y, cand):
            yield phi, f, over


def squares(i: CMap, g: CMap) -> list[Square]:
    """All commutative squares from i to g."""
    return [_square(i, g, phi_t, f_t) for phi_t, f_t, _ in _squares(i, g)]


def _square(i: CMap, g: CMap, phi_t, f_t) -> Square:
    return Square(
        i, g, map_from_tuple(i.src, g.src, f_t), map_from_tuple(i.dst, g.dst, phi_t)
    )


def _pins(i: CMap, f_t, over: Sequence[int]) -> list[int]:
    """Candidate masks of a filler of the square (phi, f): f pinned onto
    phi's fibers ``over``."""
    cand = list(over)
    for xa, fa in zip(i.as_tuple(), f_t):
        cand[xa] &= 1 << fa
    return cand


def _fill_tuple(i: CMap, g: CMap, f_t, over: Sequence[int]) -> tuple[int, ...] | None:
    """The least filler of the square (phi, f)."""
    return first_solution(i.dst, g.src, _pins(i, f_t, over))


def fill(sq: Square) -> Optional[CMap]:
    """A diagonal filler for the square, or None if none exists."""
    fib = _fibers(sq.g)
    t = _fill_tuple(sq.i, sq.g, sq.f.as_tuple(), [fib[b] for b in sq.phi.as_tuple()])
    return None if t is None else map_from_tuple(sq.i.dst, sq.g.src, t)


def lifts_bool(i: CMap, g: CMap) -> bool:
    """Decide i ⧄ g, short-circuiting on the first unfillable square."""
    for _, f_t, over in _squares(i, g):
        if _fill_tuple(i, g, f_t, over) is None:
            return False
    return True


@dataclass(frozen=True)
class LiftCertificate:
    """Verdict of a lifting query with re-checkable evidence.

    When the property holds, ``fillers`` lists one diagonal per square in the
    canonical enumeration order.  When it fails, ``counterexample`` is the
    canonically least unfillable square and the search for its filler was
    exhaustive over all monotone candidates.
    """

    i: CMap
    g: CMap
    holds: bool
    squares: int
    fillers: tuple[CMap, ...] = ()
    counterexample: Optional[Square] = None

    def recheck(self) -> bool:
        """Re-verify the certificate content by direct composition checks."""
        if self.holds:
            sqs = squares(self.i, self.g)
            if len(sqs) != self.squares or len(self.fillers) != self.squares:
                return False
            for sq, h in zip(sqs, self.fillers):
                if compose(sq.i, h) != sq.f or compose(h, sq.g) != sq.phi:
                    return False
            return True
        sq = self.counterexample
        if sq is None:
            return False
        # a fresh search, not the memo entry that ``lifts`` left for this square
        fib, X = _fibers(sq.g), sq.i.dst
        cand = _pins(sq.i, sq.f.as_tuple(), [fib[b] for b in sq.phi.as_tuple()])
        return next(_search(X, sq.g.src, cand, X.linear_extension()), None) is None

    def to_json(self) -> dict:
        fillers: dict | str
        if not self.holds:
            fillers = {}
        else:
            blobs = [sorted(h.assign.items()) for h in self.fillers]
            if self.squares <= 64:
                fillers = {str(k): dict(b) for k, b in enumerate(blobs)}
            else:
                digest = hashlib.sha256(
                    json.dumps(blobs, sort_keys=True).encode()
                ).hexdigest()
                fillers = digest
        return {
            "holds": self.holds,
            "squares": self.squares,
            "counterexample": None
            if self.counterexample is None
            else self.counterexample.to_json(),
            "fillers": fillers,
        }


def lifts(i: CMap, g: CMap) -> LiftCertificate:
    """Decide i ⧄ g with a full certificate (fillers or one counterexample)."""
    fillers = []
    count = 0
    for phi_t, f_t, over in _squares(i, g):
        count += 1
        h = _fill_tuple(i, g, f_t, over)
        if h is None:
            return LiftCertificate(i, g, False, count, (), _square(i, g, phi_t, f_t))
        fillers.append(map_from_tuple(i.dst, g.src, h))
    return LiftCertificate(i, g, True, count, tuple(fillers), None)


# -- bounded orthogonal classes ----------------------------------------------


@dataclass(frozen=True)
class BoundedClass:
    """A relative (bounded-universe) orthogonal class.

    ``exact`` is True only for single-letter words computed against an
    explicit base, where the lifting predicate is decided outright.  Longer
    words over-approximate the true orthogonal intersected with the universe;
    ``caveat`` spells this out and downstream reports must carry it.
    """

    base: tuple[CMap, ...]
    word: str
    n: int
    indices: tuple[int, ...]
    exact: bool

    @property
    def caveat(self) -> str:
        if self.exact:
            return ""
        return (
            f"bounded universe (n={self.n}): each step after the first "
            "over-approximates the true orthogonal within the universe"
        )

    def maps(self) -> list[CMap]:
        u = get_universe(self.n)
        return [u.map_at(k) for k in self.indices]

    def __contains__(self, f: CMap) -> bool:
        idx = get_universe(self.n).index_of_map(f)
        if idx is None:
            return False
        k = bisect_left(self.indices, idx)  # indices are strictly increasing
        return k < len(self.indices) and self.indices[k] == idx


MATRIX_SAMPLE = 64  # entries of a loaded matrix re-decided by lifts_bool


def _matrix_ok(u, rows: Sequence[int]) -> bool:
    """Spot-check a lifting matrix read from disk.  An isomorphism lifts
    against every map, so its row is all ones; and a fixed-seed sample of
    entries must agree with ``lifts_bool``."""
    full = (1 << len(u)) - 1
    if len(rows) != len(u) or any(
        row != full and is_isomorphism(u.map_at(k)) for k, row in enumerate(rows)
    ):
        return False
    rng = random.Random(0)
    for _ in range(MATRIX_SAMPLE):
        i, j = rng.randrange(len(u)), rng.randrange(len(u))
        if (rows[i] >> j) & 1 != lifts_bool(u.map_at(i), u.map_at(j)):
            return False
    return True


def lifting_matrix(n: int, jobs: int = 1) -> list[int]:
    """Pairwise lifting table over the n-universe: row i, bit j = m_i ⧄ m_j.
    Cached on disk and checked on load; word steps do not read it."""
    if n > MATRIX_MAX_N:
        raise CapacityError(f"pairwise lifting matrix at n={n} (max {MATRIX_MAX_N})")
    u = get_universe(n)

    def decode(payload: dict) -> Optional[list[int]]:
        rows = [int(h, 16) for h in payload["rows"]]
        return rows if _matrix_ok(u, rows) else None

    return _artifact(f"matrix_n{n}", decode,
                     lambda: _step(u.maps, [([m], "r") for m in u.maps], jobs),
                     lambda rows: {"n": n, "rows": [hex(r) for r in rows]})


def _keep(maps: Sequence[CMap], rows: Sequence[tuple], ks: Sequence[int]) -> list[int]:
    """Per row (members, letter), the bitmask over the positions p of ``ks``
    of the maps ``maps[ks[p]]`` that lift against every member (letter "l")
    or that every member lifts against (letter "r").  A row (members,
    letter, predicate) instead sets the bits of the maps whose verdict
    disagrees with ``predicate(map)``.

    Isomorphisms lift both ways against every map, so they are skipped as
    members and kept as candidates without a search.  A candidate's test
    stops at the first refuting member, and each row tries first the member
    that last refuted a candidate."""
    orders = [[c for c in row[0] if not is_isomorphism(c)] for row in rows]
    masks = [0] * len(rows)
    for p, k in enumerate(ks):
        m = maps[k]
        iso = is_isomorphism(m)
        for r, (order, (_, letter, *pred)) in enumerate(zip(orders, rows)):
            lifted = True
            for pos, c in enumerate(() if iso else order):
                if not (lifts_bool(m, c) if letter == "l" else lifts_bool(c, m)):
                    order.insert(0, order.pop(pos))
                    lifted = False
                    break
            if lifted != (bool(pred) and pred[0](m)):
                masks[r] |= 1 << p
    return masks


def _step(maps: Sequence[CMap], rows: Sequence[tuple], jobs: int,
          ks: Optional[Sequence[int]] = None) -> list[int]:
    """``_keep`` over ``ks`` (default: every map), in fixed blocks of
    ``STEP_BLOCK`` positions, one pool for all rows.  The orders of the
    members restart in each block, so verdicts and ``lifts_bool`` calls are
    the same for every ``jobs``.  This is the only caller of ``pmap``."""
    from ._parallel import pmap

    ks = range(len(maps)) if ks is None else ks
    starts = range(0, len(ks), STEP_BLOCK)
    blocks = pmap(partial(_keep, maps, rows), [ks[s:s + STEP_BLOCK] for s in starts], jobs)
    return [sum(b[r] << s for s, b in zip(starts, blocks)) for r in range(len(rows))]


def _bits(mask: int, size: int) -> str:
    """The ``size`` low bits of a ``_step`` mask as '0'/'1' characters,
    bit k at index k: one conversion, where testing ``(mask >> k) & 1`` for
    each k shifts the whole integer every time."""
    return format(mask, f"0{size}b")[::-1]


def relative_orthogonal(base: Sequence[CMap], word: str, n: int, jobs: int = 1) -> BoundedClass:
    """Iterate left/right orthogonals of ``base`` inside the n-point universe.

    The word is read left to right; at each letter the new class is the set of
    universe maps with the required lifting against every member of the
    current set.  Every letter is one ``_step``: the first against the base,
    each later one against the current class.  Words of length >= 2 are
    capped at n <= 3.  For a single-map base the class of every prefix is
    kept in the memo of the base's space pair, so words sharing a prefix
    share its steps, and the classes die with either space.
    """
    if not word or set(word) - {"l", "r"}:
        raise ValueError("word must be a nonempty string over {l, r}")
    if n > 4:
        raise CapacityError(f"map universe sweep at n={n}")
    if len(word) > 1 and n > MATRIX_MAX_N:
        raise CapacityError(f"multi-letter orthogonal words at n={n} (max {MATRIX_MAX_N})")
    u = get_universe(n)
    base = tuple(base)
    if len(base) == 1:
        memo, tag = _table(base[0].src, base[0].dst, "words"), base[0].as_tuple()
    else:
        memo, tag = {}, ()
    cur = None  # indices of the class of the prefix read so far
    for end in range(1, len(word) + 1):
        key = (tag, word[:end], n)
        if key not in memo:
            members = base if cur is None else [u.map_at(k) for k in cur]
            mask, = _step(u.maps, [(members, word[end - 1])], jobs)
            memo[key] = tuple(k for k, b in enumerate(_bits(mask, len(u))) if b == "1")
        cur = memo[key]
    return BoundedClass(base, word, n, cur, exact=(len(word) == 1))


# -- retracts in the arrow category -------------------------------------------


@dataclass(frozen=True)
class RetractWitness:
    """Maps exhibiting f as a retract of g in the arrow category."""

    section_dom: CMap
    section_cod: CMap
    retraction_dom: CMap
    retraction_cod: CMap

    def check(self, f: CMap, g: CMap) -> bool:
        s, s2, r, r2 = (
            self.section_dom,
            self.section_cod,
            self.retraction_dom,
            self.retraction_cod,
        )
        return (
            compose(s, r) == identity(f.src)
            and compose(s2, r2) == identity(f.dst)
            and compose(s, g) == compose(f, s2)
            and compose(r, f) == compose(g, r2)
        )


def _pinned(size: int, values: int, pins) -> list[int] | None:
    """Candidate masks for ``size`` points over ``values`` codomain points,
    with point x pinned to v for each (x, v) in ``pins``; None on a clash."""
    cand = [(1 << values) - 1] * size
    for x, v in pins:
        cand[x] &= 1 << v
        if not cand[x]:
            return None
    return cand


def is_retract_of(f: CMap, g: CMap) -> Optional[RetractWitness]:
    """Search for section/retraction pairs exhibiting f as a retract of g."""
    A, B = f.src, f.dst
    C, D = g.src, g.dst
    ft, gt = f.as_tuple(), g.as_tuple()
    # a section (s_dom, s_cod) is a commutative square from f to g
    for s_cod, s_dom, _ in _squares(f, g):
        # retraction on domains: pinned by r∘s = id
        pins = [(c, a) for a, c in enumerate(s_dom)]
        cand_r = _pinned(len(C.points), len(A.points), pins)
        if cand_r is None:
            continue
        for r_dom in _search(C, A, cand_r, C.linear_extension()):
            # retraction on codomains: pinned by r'∘s' = id and f∘r = r'∘g
            pins = [(d, b) for b, d in enumerate(s_cod)]
            pins += [(d, ft[r_dom[c]]) for c, d in enumerate(gt)]
            cand_r2 = _pinned(len(D.points), len(B.points), pins)
            if cand_r2 is None:
                continue
            r_cod = first_solution(D, B, cand_r2)
            if r_cod is None:
                continue
            return RetractWitness(
                map_from_tuple(A, C, s_dom),
                map_from_tuple(B, D, s_cod),
                map_from_tuple(C, A, r_dom),
                map_from_tuple(D, B, r_cod),
            )
    return None


# -- factorization probes ------------------------------------------------------


@dataclass(frozen=True)
class Factorization:
    """A bounded factorization f = p∘i with class-membership evidence."""

    i: CMap
    p: CMap
    left_class: BoundedClass
    right_class: BoundedClass


def factor_search(
    f: CMap, base: Sequence[CMap], word: str, n: int, jobs: int = 1
) -> Optional[Factorization]:
    """Best-effort search for f = p∘i with i in base^(word+l), p in base^(word+lr).

    An exploration tool over middle objects of the bounded universe: a None
    answer only means no factorization exists within the bound.
    """
    if set(word) - {"l", "r"}:
        raise ValueError("word must be a string over {l, r}")
    left = relative_orthogonal(base, word + "l", n, jobs=jobs)
    right = relative_orthogonal(base, word + "lr", n, jobs=jobs)
    pair = bounded_factor(f, left, right)
    if pair is None:
        return None
    return Factorization(pair[0], pair[1], left, right)


def bounded_factor(
    f: CMap, left: BoundedClass, right: BoundedClass
) -> Optional[tuple[CMap, CMap]]:
    """Search middles of the bounded universe for f = p∘i with i/p in the
    given classes; classes are computed once by the caller."""
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
            cand = _pinned(len(z.points), len(B.points), zip(i_t, ft))
            if cand is None:
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


def factoring_maps(left: BoundedClass, right: BoundedClass) -> set[int]:
    """Universe indices of the maps p∘α∘i with i in ``left`` into a catalog
    space z, α an automorphism of z and p in ``right`` out of z.  Up to
    isomorphism these are exactly the maps for which ``bounded_factor``
    finds a pair, without a search per map."""
    u = get_universe(left.n)
    into: dict[int, list] = {}
    for k in left.indices:
        si, z, t = u.triple(k)
        into.setdefault(z, []).append((si, t))
    composites = set()
    for k in right.indices:
        z, di, p = u.triple(k)
        for q in {tuple(p[y] for y in a) for a in automorphisms(u.spaces[z])}:  # each p∘α
            composites.update((si, di, tuple(q[y] for y in t)) for si, t in into.get(z, ()))
    return {u.index_of_map(map_from_tuple(u.spaces[si], u.spaces[di], t))
            for si, di, t in composites}
