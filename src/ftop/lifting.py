"""The lifting-property decision procedure and bounded orthogonal classes.

A lifting problem for i: A -> X against g: Y -> B is a commutative square
(f: A -> Y, phi: X -> B); "i lifts against g" means every such square admits a
monotone diagonal h: X -> Y with h∘i = f and g∘h = phi.  Squares are
enumerated in a fixed canonical order (phi lexicographic, then f), so failing
certificates always report the least counterexample.  ``_squares`` is the
one enumeration of squares, reading the solver's enumeration memo once per
call; ``lifts`` and ``lifts_bool`` fill its squares in order, each through
``first_solution``, and stop at the first unfillable one.  A sweep's
rows count squares instead: the fillable ones are the distinct (h∘i, g∘h) over
h: X -> Y, and i lifts iff no group of squares, by phi in ``_left_decide`` or
by f in ``_right_decide``, outnumbers its fillable ones.  A sweep's unit is
a universe's block: per block a member's kernel, its tables, is looked up
once and the member order restarts; each decision reads an index tuple.
"""
from __future__ import annotations

import hashlib
import json
import random
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import islice
from operator import itemgetter
from typing import Iterator, Optional, Sequence

from ._parallel import DECISIONS
from ._solve import _recorded, _search, _table, enum_hom, first_solution, hom
from .errors import CapacityError, MapError
from .space import (
    CMap, Space, _cmap, _fibers, compose, identity, is_isomorphism, map_from_tuple, map_to_json,
)
from .universe import (
    Universe, _artifact, _canon, _inverse, automorphisms, enumerate_maps, get_universe,
)

MATRIX_MAX_N = 3  # largest bound for the pairwise lifting matrix
# the estimated work of a _step (see _pays) from which forking two cold workers
# pays; below it the step runs in this process: every step over universe(3)
# (at most 2 x 661 x 8^3), not the lifting matrix, universe(4) or spaces(5)
POOL_MIN_WORK = 1 << 21


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


def _squares(i: CMap, g: CMap) -> Iterator[tuple[tuple[int, ...], ...]]:
    """(phi, f, over) of every commutative square from i to g, in canonical
    order, as index tuples; ``over[x]`` is the mask of g's fiber over phi(x).
    Only phis with a nonempty fiber at each point of i's image are
    enumerated: no f lies over the others.  The enumeration memo of (A, Y)
    is looked up once per call."""
    A, X, Y, B = i.src, i.dst, g.src, g.dst
    it = i.as_tuple()
    fib = _fibers(g)
    hit = sum(1 << b for b, m in enumerate(fib) if m)  # the points of B with a nonempty fiber
    masks = [(1 << len(B.points)) - 1] * len(X.points)
    for x in it:
        masks[x] = hit
    if 0 in masks:
        return  # B is empty, or Y is and A is not: no square
    enum = _table(A, Y, "enum")
    for phi in enum_hom(X, B, masks):
        over = tuple([fib[b] for b in phi])
        cand = tuple([over[x] for x in it])
        fs = enum.get(cand)
        for f in _recorded(A, Y, cand, enum) if fs is None else fs:
            yield phi, f, over


def squares(i: CMap, g: CMap) -> list[Square]:
    """All commutative squares from i to g."""
    return [_square(i, g, phi_t, f_t) for phi_t, f_t, _ in _squares(i, g)]


def _square(i: CMap, g: CMap, phi_t, f_t) -> Square:
    return Square(i, g, map_from_tuple(i.src, g.src, f_t), map_from_tuple(i.dst, g.dst, phi_t))


def _pinned(cand: list[int], pins) -> list[int]:
    """The candidate masks ``cand``, point x pinned to value v for each
    (x, v) in ``pins``; a mask left 0 marks a clash."""
    for x, v in pins:
        cand[x] &= 1 << v
    return cand


def _fill_tuple(i: CMap, g: CMap, f_t, over: Sequence[int]) -> tuple[int, ...] | None:
    """The least filler of the square (phi, f): f pinned onto phi's fibers
    ``over``."""
    return first_solution(i.dst, g.src, _pinned(list(over), zip(i.as_tuple(), f_t)))


def fill(sq: Square) -> Optional[CMap]:
    """A diagonal filler for the square, or None if none exists."""
    fib = _fibers(sq.g)
    t = _fill_tuple(sq.i, sq.g, sq.f.as_tuple(), [fib[b] for b in sq.phi.as_tuple()])
    return None if t is None else map_from_tuple(sq.i.dst, sq.g.src, t)


def _walk(i: CMap, g: CMap, fillers: Optional[list]) -> Optional[tuple]:
    """Fill the squares from i to g in canonical order and return the
    (phi, f) of the first unfillable one, or None; each least filler is
    appended to ``fillers`` when it is a list."""
    for phi, f, over in _squares(i, g):
        h = _fill_tuple(i, g, f, over)
        if h is None:
            return phi, f
        if fillers is not None:
            fillers.append(h)
    return None


def lifts_bool(i: CMap, g: CMap) -> bool:
    """Decide i ⧄ g, short-circuiting on the first unfillable square."""
    return _walk(i, g, None) is None


def _restrictor(pts: Sequence[int]):
    """t -> (t[p] for p in pts), a tuple (itemgetter makes one from two indices on)."""
    return itemgetter(*pts) if len(pts) > 1 else lambda t: tuple([t[p] for p in pts])


def _left_kernel(g: CMap, A: Space, X: Space, tables: dict) -> tuple:
    """The tables of the decisions i ⧄ g, for the maps i: A -> X against a
    member g of one ``_step``, as ``_left_decide`` reads them.
    The squares over phi: X -> B are the f: A -> Y over phi∘i, the fillable
    ones the distinct h∘i over the lifts h of phi.  That number depends on
    i only through its image S; ``tables`` keeps its least value per
    (g, X, S) and restriction of phi's fibers to S, unless those are points
    and phi lifts: then at most one f, and a lift, lie over phi∘i.
    The f are counted by a search that stops one past it; per (A, Y) only
    integers are kept: a count, or minus a lower bound.  ``tables`` is keyed
    by the ids of the maps it was filled for and of their spaces, so it may
    not outlive those maps."""
    Y = g.src
    got = tables.get(("l", id(g), id(X)))
    if got is None:
        fib, gt, lifts = _fibers(g), g.as_tuple(), {}
        for h in hom(X, Y):
            lifts.setdefault(tuple([gt[y] for y in h]), []).append(h)
        got = tables["l", id(g), id(X)] = ({}, [
            (tuple([fib[b] for b in phi]), lifts.get(phi, ())) for phi in hom(X, g.dst)])
    return A, Y, *got, tables.setdefault(("n", id(A), id(Y)), {})


def _left_decide(kernel: tuple, it: tuple[int, ...]) -> bool:
    """Whether the map with index tuple ``it`` lifts against the member of
    ``kernel``, a ``_left_kernel``."""
    A, Y, images, phis, counts = kernel
    rows = images.get(img := frozenset(it))
    if rows is None:
        least, part = {}, _restrictor(sorted(img))
        for over, hs in phis:
            if 0 not in (on := part(over)):  # else no f lies over phi∘i
                n = len(set(map(part, hs)))
                least[on] = min((n, over), least.get(on, (n, over)))
        rows = images[img] = sorted(least[on] for on in least
                                    if least[on][0] == 0 or any(m & (m - 1) for m in on))
    for bound, over in rows:
        cand = tuple(map(over.__getitem__, it))
        n = counts.get(cand)
        if n is None or 0 < -n <= bound:  # unknown, or a lower bound too small to decide
            n = sum(1 for _ in islice(_search(A, Y, cand, tuple(range(len(it)))), bound + 1))
            counts[cand] = n if n <= bound else -n
        if abs(n) > bound:
            return False
    return True


def _right_kernel(i: CMap, Y: Space, B: Space, tables: dict) -> tuple:
    """The tables of the decisions i ⧄ g, for a member i: A -> X of one
    ``_step`` against the maps g: Y -> B, as ``_right_decide`` reads them.
    The squares with f: A -> Y are the phis with phi∘i = g∘f, the fillable
    ones the distinct g∘h over the h with h∘i = f.  ``tables`` keeps, per
    (X, i's index tuple), the phis counted by phi∘i per B and the h grouped
    by h∘i per Y.  hom(A, Y) is taken from the enumeration memo if it is
    there, else each decision streams it, so a pair no decision ran to its
    end keeps nothing.  Like ``_squares``, a decision reads the memo
    itself, so no count of ``enum_hom`` calls depends on what the memo holds.
    ``tables`` is keyed by the ids of the spaces of the maps it was filled
    for, so it may not outlive those maps."""
    A, X, it = i.src, i.dst, i.as_tuple()
    phis = tables.get(("r", id(X), id(B), it))
    if phis is None:
        phis = tables["r", id(X), id(B), it] = Counter(map(_restrictor(it), hom(X, B)))
    groups = tables.get(("h", id(X), id(Y), it))
    if groups is None:
        groups, part = tables.setdefault(("h", id(X), id(Y), it), {}), _restrictor(it)
        for h in hom(X, Y):
            groups.setdefault(part(h), []).append(h)
    return A, Y, ((1 << len(Y.points)) - 1,) * len(A.points), _table(A, Y, "enum"), phis, groups


def _right_decide(kernel: tuple, gt: tuple[int, ...]) -> bool:
    """Whether the member of ``kernel``, a ``_right_kernel``, lifts against
    the map with index tuple ``gt``: one pass over hom(A, Y) stops at the
    first f with more phis over g∘f than distinct g∘h."""
    A, Y, key, enum, phis, groups = kernel
    fs = enum.get(key)  # hom(A, Y) once a decision ran it to its end
    for f in _recorded(A, Y, key, enum) if fs is None else fs:
        n = phis.get(tuple([gt[y] for y in f]))
        if n is not None:
            hs = groups.get(f, ())
            if n > len(hs) or n > 1 and n > len({tuple([gt[y] for y in h]) for h in hs}):
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
        # a fresh search in point order, not the linear-extension search of
        # ``fill`` that found this square unfillable
        fib, X = _fibers(sq.g), sq.i.dst
        cand = _pinned([fib[b] for b in sq.phi.as_tuple()], zip(sq.i.as_tuple(), sq.f.as_tuple()))
        return next(_search(X, sq.g.src, cand, tuple(range(len(X.points)))), None) is None

    def to_json(self) -> dict:
        blobs = [sorted(h.assign.items()) for h in self.fillers]
        fillers: dict | str = {} if not self.holds else (
            {str(k): dict(b) for k, b in enumerate(blobs)} if self.squares <= 64
            else hashlib.sha256(json.dumps(blobs, sort_keys=True).encode()).hexdigest())
        sq = self.counterexample
        return {"holds": self.holds, "squares": self.squares,
                "counterexample": None if sq is None else sq.to_json(), "fillers": fillers}


def lifts(i: CMap, g: CMap) -> LiftCertificate:
    """Decide i ⧄ g with a full certificate (fillers or one counterexample)."""
    fillers: list = []
    bad = _walk(i, g, fillers)
    if bad is not None:
        return LiftCertificate(i, g, False, len(fillers) + 1, (), _square(i, g, *bad))
    return LiftCertificate(i, g, True, len(fillers),
                           tuple(map_from_tuple(i.dst, g.src, h) for h in fillers), None)


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
        return "" if self.exact else (
            f"bounded universe (n={self.n}): each step after the first "
            "over-approximates the true orthogonal within the universe")

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
    full, rng = (1 << len(u)) - 1, random.Random(0)
    if len(rows) != len(u) or any(
            row != full and is_isomorphism(u.map_at(k)) for k, row in enumerate(rows)):
        return False
    sample = [(rng.randrange(len(u)), rng.randrange(len(u))) for _ in range(MATRIX_SAMPLE)]
    return all((rows[i] >> j) & 1 == lifts_bool(u.map_at(i), u.map_at(j)) for i, j in sample)


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
                     lambda: [sum(1 << j for j in row)
                              for row in _step(u, [([m], "r") for m in enumerate_maps(n)], jobs)],
                     lambda rows: {"n": n, "rows": [hex(r) for r in rows]})


def _keep(u: Universe, rows: Sequence[tuple], ks: Sequence[int]) -> list[list[int]]:
    """Per row (members, letter), the k of ``ks`` whose map ``u.map_at(k)``
    lifts against every member (letter "l") or that every member lifts
    against (letter "r"), in ``ks`` order.  A row (members, letter,
    predicate) instead keeps the k whose verdict disagrees with the
    predicate of the map.  The members are no isomorphisms (``_step``
    drops those).

    The k are read one run of one block at a time (``Universe.runs``): per
    run a member's kernel, ``_left_kernel`` or ``_right_kernel``, looks up
    its tables once, in a dict this call owns, and ``_left_decide`` or
    ``_right_decide`` decides each candidate on its index tuple.  Only an
    endomorphism can be an isomorphism; those lift both ways against every
    map, so they are kept as candidates without a search.  A candidate's
    test stops at the first refuting member, and each row tries first the
    member that last refuted a candidate of the run, so cutting increasing
    ``ks`` at block boundaries changes neither kept k nor decisions.  A map
    is built (unchecked) only for the predicates.  The decisions made are
    added to ``DECISIONS``, per letter; returns the kept k per row."""
    sp, preds, tables, kept = u.spaces, any(len(row) > 2 for row in rows), {}, [[] for _ in rows]
    for si, di, run, ts in u.runs(ks):
        isos = [si == di and is_isomorphism(_cmap(sp[si], sp[di], t)) for t in ts]
        cmaps = [_cmap(sp[si], sp[di], t) for t in ts] if preds else ()
        for (members, letter, *pred), keep in zip(rows, kept):
            kernel, decide = ((_left_kernel, _left_decide) if letter == "l"
                              else (_right_kernel, _right_decide))
            order, kernels, tried = range(len(members)), {}, 0  # kernels: per member tried
            for p, t in enumerate(ts):
                lifted = True
                for pos, c in enumerate(() if isos[p] else order):
                    tried += 1
                    got = kernels.get(c)
                    if got is None:
                        got = kernels[c] = kernel(members[c], sp[si], sp[di], tables)
                    if not decide(got, t):
                        if pos:  # the refuter goes first; the order is copied at its first move
                            order = order if type(order) is list else list(order)
                            order.insert(0, order.pop(pos))
                        lifted = False
                        break
                if lifted != (bool(pred) and pred[0](cmaps[p])):
                    keep.append(run[p])
            DECISIONS[letter] += tried
    return kept


def _blocks_in(u: Universe, ks: Sequence[int]) -> list[tuple[int, int]]:
    """(block, position in increasing ``ks`` of its first k) per block of ``u`` with a k."""
    at = [bisect_left(ks, start) for start in u._starts]
    return [(b, lo) for b, (lo, hi) in enumerate(zip(at, at[1:])) if lo < hi]


def _pays(u: Universe, rows: Sequence[tuple], ks: Sequence[int]) -> bool:
    """Whether a step's estimated work, rows x candidates x 8^(the largest
    point count of a candidate's ends), reaches ``POOL_MIN_WORK``: each
    worker fills the rows' tables again, and at n=3 that filling is most of
    a step."""
    scale, size = len(rows) * len(ks), [len(s.points) for s in u.spaces]
    return any(scale << 3 * max(size[u.blocks[b][0]], size[u.blocks[b][1]]) >= POOL_MIN_WORK
               for b, _ in _blocks_in(u, ks))


def _step(u: Universe, rows: Sequence[tuple], jobs: int,
          ks: Optional[Sequence[int]] = None) -> list[tuple[int, ...]]:
    """Per row, the tuple of the k in ``ks``, increasing (default: every map
    of ``u``), that ``_keep`` keeps.  The rows' isomorphic members are
    dropped once.  If the step pays for a pool (``_pays``), ``pmap`` gets one
    contiguous share of ``ks`` per worker, cut at the block boundaries
    nearest to equal counts; else ``ks`` is one ``_keep`` call in this
    process.  As ``_keep`` restarts member orders per block, verdicts and
    the decisions it counts, which ``pmap`` brings back from workers, are
    the same for every ``jobs``.  Each ``_keep`` call owns its share's
    tables, keyed by objects that ``u`` and ``rows`` keep alive.
    Besides ``verify.run_suite``, which forks by suite, this is the only
    caller of ``pmap``."""
    from ._parallel import pmap

    ks = range(len(u)) if ks is None else ks
    rows = [([c for c in members if not is_isomorphism(c)], *rest) for members, *rest in rows]
    procs = max(1, jobs) if _pays(u, rows, ks) else 1
    at = [lo for _, lo in _blocks_in(u, ks)]
    cuts = [0, *sorted({min(at, key=lambda lo: abs(lo * procs - w * len(ks)))
                        for w in range(1, procs)}), len(ks)]
    got = pmap(partial(_keep, u, rows), [ks[a:b] for a, b in zip(cuts, cuts[1:]) if a < b], procs)
    return [tuple(k for kept in got for k in kept[r]) for r in range(len(rows))]


def _words(base: tuple) -> tuple[dict, tuple]:
    """A single-map base's memo, on its space pair, and its tag; else a fresh dict."""
    if len(base) != 1:
        return {}, ()
    return _table(base[0].src, base[0].dst, "words"), base[0].as_tuple()


def relative_orthogonal(base: Sequence[CMap], word: str, n: int, jobs: int = 1) -> BoundedClass:
    """Iterate left/right orthogonals of ``base`` inside the n-point universe.

    The word is read left to right; at each letter the new class is the set of
    universe maps with the required lifting against every member of the
    current set.  Every letter is one ``_step``: the first against the base,
    each later one against the current class, whose indices the step
    returns.  For a single-map base the class of every prefix is kept in
    the memo of the base's space pair, so words sharing a prefix share its
    steps, and the classes die with either space.
    """
    if not word or set(word) - {"l", "r"}:
        raise ValueError("word must be a nonempty string over {l, r}")
    if n > 4:
        raise CapacityError(f"map universe sweep at n={n}")
    u = get_universe(n)
    base = tuple(base)
    memo, tag = _words(base)
    cur = None  # indices of the class of the prefix read so far
    for end in range(1, len(word) + 1):
        key = (tag, word[:end], n)
        if key not in memo:
            members = base if cur is None else [u.map_at(k) for k in cur]
            memo[key], = _step(u, [(members, word[end - 1])], jobs)
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
        s, s2, r, r2 = self.section_dom, self.section_cod, self.retraction_dom, self.retraction_cod
        return (
            compose(s, r) == identity(f.src)
            and compose(s2, r2) == identity(f.dst)
            and compose(s, g) == compose(f, s2)
            and compose(r, f) == compose(g, r2)
        )


def is_retract_of(f: CMap, g: CMap) -> Optional[RetractWitness]:
    """Search for section/retraction pairs exhibiting f as a retract of g."""
    A, B = f.src, f.dst
    C, D = g.src, g.dst
    ft, gt = f.as_tuple(), g.as_tuple()
    # a section (s_dom, s_cod) is a commutative square from f to g
    for s_cod, s_dom, _ in _squares(f, g):
        # retraction on domains: pinned by r∘s = id
        cand_r = _pinned([(1 << len(A.points)) - 1] * len(C.points),
                         [(c, a) for a, c in enumerate(s_dom)])
        if 0 in cand_r:
            continue
        for r_dom in _search(C, A, cand_r, C.linear_extension()):
            # retraction on codomains: pinned by r'∘s' = id and f∘r = r'∘g
            pins = [(d, b) for b, d in enumerate(s_cod)]
            pins += [(d, ft[r_dom[c]]) for c, d in enumerate(gt)]
            cand_r2 = _pinned([(1 << len(B.points)) - 1] * len(D.points), pins)
            r_cod = None if 0 in cand_r2 else first_solution(D, B, cand_r2)
            if r_cod is not None:
                return RetractWitness(map_from_tuple(A, C, s_dom), map_from_tuple(B, D, s_cod),
                                      map_from_tuple(C, A, r_dom), map_from_tuple(D, B, r_cod))
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
    """f = p∘i with i in base^(word+l) and p in base^(word+lr) through a
    catalog space of the n-point universe, or None if there is none there.

    An exploration tool: the classes are bounded.  The pair is the first
    composite p∘α∘i that ``factoring_maps`` builds for f's index, carried
    onto f's own endpoints: with f = pb∘(p∘α∘i)∘pa⁻¹ for relabelings pa, pb
    of f's source and target that canonicalization finds, the legs are
    α∘i∘pa⁻¹ and pb∘p.  A single-map base keeps the composites next to its
    classes, so later calls look f up without enumerating again.
    """
    if set(word) - {"l", "r"}:
        raise ValueError("word must be a string over {l, r}")
    if len(f.src.points) > n or len(f.dst.points) > n:
        raise CapacityError(f"factor search: map endpoints exceed n={n}")
    left = relative_orthogonal(base, word + "l", n, jobs=jobs)
    right = relative_orthogonal(base, word + "lr", n, jobs=jobs)
    u = get_universe(n)
    memo, tag = _words(tuple(base))
    found = memo.get((tag, word, n, "factoring"))
    if found is None:
        found = memo[tag, word, n, "factoring"] = factoring_maps(left, right)
    got = found.get(u.index_of_map(f))
    if got is None:
        return None
    z, ai, p = got
    t = f.as_tuple()
    # the composite is in the orbit of f's canonical form, so some pair of
    # minimising relabelings carries it onto f: f∘pa = pb∘(p∘α∘i)
    pa, pb = next((pa, pb) for pb in _canon(f.dst)[1] for pa in _canon(f.src)[1]
                  if all(t[pa[k]] == pb[p[y]] for k, y in enumerate(ai)))
    inv_a, Z = _inverse(pa), u.spaces[z]
    return Factorization(map_from_tuple(f.src, Z, tuple([ai[k] for k in inv_a])),
                         map_from_tuple(Z, f.dst, tuple([pb[y] for y in p])), left, right)


def factoring_maps(left: BoundedClass, right: BoundedClass) -> dict[int, tuple]:
    """Universe indices of the maps p∘α∘i with i in ``left`` into a catalog
    space z, α an automorphism of z and p in ``right`` out of z.  Each maps
    to the first composite built for it, as (z, α∘i, p) with index tuples
    on catalog spaces; right members are taken in increasing order, then
    the automorphisms of z, then the left members.  Up to isomorphism these
    are exactly the maps that factor as a left member, then a right one."""
    u = get_universe(left.n)
    into: dict[int, list] = {}
    for k in left.indices:
        si, z, t = u.triple(k)
        into.setdefault(z, []).append((si, t))
    first: dict[tuple, tuple] = {}  # (si, di, composite) -> its first (z, α∘i, p)
    for k in right.indices:
        z, di, p = u.triple(k)
        for a in automorphisms(u.spaces[z]):
            for si, t in into.get(z, ()):
                ai = tuple([a[y] for y in t])
                first.setdefault((si, di, tuple([p[y] for y in ai])), (z, ai, p))
    found: dict[int, tuple] = {}
    for (si, di, c), witness in first.items():
        found.setdefault(u.index_of_map(map_from_tuple(u.spaces[si], u.spaces[di], c)), witness)
    return found
