"""Finite topological spaces as preorders, and continuous (monotone) maps.

A space is a reflexive-transitive relation ``rel`` on named points, with
``(x, y) in rel`` meaning "y lies in the closure of x".  Open sets are the
down-closed sets of that relation; continuity of a map between finite spaces
is exactly monotonicity.  Everything here is immutable and safe to share.
"""
from __future__ import annotations

import re
from typing import Iterable, Iterator, Mapping

from .errors import CapacityError, MapError, SpaceError

_NAME = re.compile(r"[A-Za-z0-9_']+")  # a point name; the parser reads names with it too

_OPENS_LIMIT = 16  # 2**16 subsets is the largest family we will materialize


def _close(n: int, up: list[int]) -> list[int]:
    """Reflexive-transitive closure of per-point successor bitmasks, in place."""
    for i in range(n):
        up[i] |= 1 << i
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = up[i]
            m = acc
            while m:
                j = (m & -m).bit_length() - 1
                m &= m - 1
                acc |= up[j]
            if acc != up[i]:
                up[i] = acc
                changed = True
    return up


def _check_names(pts: tuple) -> None:
    """Raise on the first point, in order, that is not a name or repeats one."""
    seen = set()
    for p in pts:
        if not isinstance(p, str) or not _NAME.fullmatch(p):
            raise SpaceError(f"invalid point identifier {p!r}")
        if p in seen:
            raise SpaceError(f"duplicate point {p!r}")
        seen.add(p)


_setattr = object.__setattr__


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Space:
    """A finite topological space presented by its specialization preorder.

    The constructor accepts a relation that is already transitive (missing
    transitive pairs are rejected, pointing at one offender); reflexive pairs
    are implied and added if absent.  Use :meth:`from_arrows` to close an
    arbitrary arrow set.  Both build the ``up`` rows once and end in one
    construction core, ``_fill``; ``from_arrows`` takes the closure once and
    does not go through the constructor.
    """

    __slots__ = (
        "points", "rel", "_pset", "_index", "up", "down", "_hash", "_lazy", "__weakref__",
    )

    def __init__(self, points: Iterable[str], rel: Iterable[tuple[str, str]]):
        pts = tuple(points)
        _check_names(pts)
        index = {p: k for k, p in enumerate(pts)}
        n = len(pts)
        up = [1 << i for i in range(n)]
        for a, b in rel:  # in input order, so a fault names the same point every run
            a, b = str(a), str(b)
            if a not in index or b not in index:
                raise SpaceError(f"relation mentions unknown point {a if a not in index else b!r}")
            up[index[a]] |= 1 << index[b]
        closed = _close(n, up[:])
        if closed != up:
            i = next(i for i in range(n) if closed[i] != up[i])
            j = next(_bits(closed[i] & ~up[i]))
            raise SpaceError(
                f"relation is not transitive: ({pts[i]!r}, {pts[j]!r}) is implied but missing"
            )
        self._fill(pts, index, up)

    def _fill(self, pts: tuple[str, ...], index: dict[str, int], up: list[int]) -> None:
        """Set every slot from the points and their closed ``up`` rows."""
        down, rel = [0] * len(pts), []
        for i, row in enumerate(up):
            for j, q in enumerate(pts):
                if row >> j & 1:
                    down[j] |= 1 << i
                    rel.append((pts[i], q))
        full = frozenset(rel)
        _setattr(self, "points", pts)
        _setattr(self, "rel", full)
        _setattr(self, "_pset", frozenset(pts))
        _setattr(self, "_index", index)
        _setattr(self, "up", tuple(up))
        _setattr(self, "down", tuple(down))
        _setattr(self, "_hash", hash((self._pset, full)))
        _setattr(self, "_lazy", {})

    def __setattr__(self, name, value):  # immutability by construction
        raise AttributeError("Space is immutable")

    # -- identity ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Space):
            return NotImplemented
        return self is other or (self._pset == other._pset and self.rel == other.rel)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Space({list(self.points)!r}, {sorted(self.rel)!r})"

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, p) -> bool:
        return p in self._pset

    def __getstate__(self):
        return (self.points, tuple(sorted(self.rel)))

    def __setstate__(self, state):
        self.__init__(state[0], state[1])

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_arrows(cls, points: Iterable[str], arrows: Iterable[tuple[str, str]]) -> "Space":
        """Build a space from generating arrows; the closure is taken here,
        once, and the point names are checked after the arrows."""
        pts = tuple(points)
        index = {p: k for k, p in enumerate(pts)}
        n = len(pts)
        up = [0] * n
        for a, b in arrows:
            if a not in index or b not in index:
                raise SpaceError(f"arrow mentions unknown point {a if a not in index else b!r}")
            up[index[a]] |= 1 << index[b]
        _check_names(pts)
        x = object.__new__(cls)
        x._fill(pts, index, _close(n, up))
        return x

    @classmethod
    def empty(cls) -> "Space":
        return cls((), ())

    # -- subset plumbing ---------------------------------------------------

    def _mask_of(self, subset: Iterable[str]) -> int:
        mask = 0
        for p in subset:
            k = self._index.get(p)
            if k is None:
                raise SpaceError(f"{p!r} is not a point of this space")
            mask |= 1 << k
        return mask

    def _set_of(self, mask: int) -> frozenset[str]:
        return frozenset(self.points[i] for i in _bits(mask))

    def closure_mask(self, mask: int) -> int:
        acc = 0
        for i, row in enumerate(self.up):
            if mask >> i & 1:
                acc |= row
        return acc

    def closure(self, subset: Iterable[str]) -> frozenset[str]:
        """Smallest closed superset of ``subset``."""
        return self._set_of(self.closure_mask(self._mask_of(subset)))

    def min_nbhd(self, p: str) -> frozenset[str]:
        """Smallest open set containing the point ``p``."""
        k = self._index.get(p)
        if k is None:
            raise SpaceError(f"{p!r} is not a point of this space")
        return self._set_of(self.down[k])

    def is_closed(self, subset: Iterable[str]) -> bool:
        mask = self._mask_of(subset)
        return self.closure_mask(mask) == mask

    def is_open(self, subset: Iterable[str]) -> bool:
        mask = self._mask_of(subset)
        comp = ((1 << len(self.points)) - 1) & ~mask
        return self.closure_mask(comp) == comp

    def open_masks(self) -> tuple[int, ...]:
        """All open sets as bitmasks over point indices (cached)."""
        got = self._lazy.get("opens")
        if got is None:
            n = len(self.points)
            if n > _OPENS_LIMIT:
                raise CapacityError(f"open-set family of a {n}-point space")
            down = self.down
            got = tuple(
                m for m in range(1 << n)
                if all(down[i] & ~m == 0 for i in _bits(m))
            )
            self._lazy["opens"] = got
        return got

    def open_sets(self) -> tuple[frozenset[str], ...]:
        return tuple(self._set_of(m) for m in self.open_masks())

    def closed_sets(self) -> tuple[frozenset[str], ...]:
        full = (1 << len(self.points)) - 1
        return tuple(self._set_of(full & ~m) for m in self.open_masks())

    def subspace(self, subset: Iterable[str]) -> "Space":
        """Induced topology on ``subset``: the relation restricted."""
        mask = self._mask_of(subset)
        keep = [p for p in self.points if (mask >> self._index[p]) & 1]
        kset = set(keep)
        return Space(keep, [(a, b) for a, b in self.rel if a in kset and b in kset])

    def components(self) -> tuple[frozenset[str], ...]:
        """Connected components (zigzag components of the relation)."""
        n = len(self.points)
        adj = [self.up[i] | self.down[i] for i in range(n)]
        seen = 0
        comps = []
        for i in range(n):
            if (seen >> i) & 1:
                continue
            comp = 1 << i
            frontier = comp
            while frontier:
                nxt = 0
                for j in _bits(frontier):
                    nxt |= adj[j]
                frontier = nxt & ~comp
                comp |= nxt
            seen |= comp
            comps.append(self._set_of(comp))
        return tuple(comps)

    def linear_extension(self) -> tuple[int, ...]:
        """Point indices ordered so rel-predecessors come first (cached)."""
        got = self._lazy.get("ext")
        if got is None:
            order = sorted(
                range(len(self.points)),
                key=lambda i: (-bin(self.up[i]).count("1"), i),
            )
            got = tuple(order)
            self._lazy["ext"] = got
        return got


# -- module-level operation aliases (the operation names of the engine) ----


def closure(space: Space, subset: Iterable[str]) -> frozenset[str]:
    return space.closure(subset)


def min_nbhd(space: Space, p: str) -> frozenset[str]:
    return space.min_nbhd(p)


def is_open(space: Space, subset: Iterable[str]) -> bool:
    return space.is_open(subset)


def is_closed(space: Space, subset: Iterable[str]) -> bool:
    return space.is_closed(subset)


def _edges(x: Space) -> tuple[tuple[int, int], ...]:
    """The pairs (i, j), i != j, of the relation, transitive ones included,
    by i then j (cached).  Checking a map along them names the same first
    offender as a walk over the whole relation."""
    got = x._lazy.get("edges")
    if got is None:
        got = x._lazy["edges"] = tuple(
            (i, j) for i in range(len(x.points)) for j in _bits(x.up[i]) if j != i
        )
    return got


def _fibers(g: "CMap") -> list[int]:
    """Per codomain point of ``g``, the mask of the domain points over it."""
    fib = [0] * len(g.dst.points)
    for yk, bk in enumerate(g._t):
        fib[bk] |= 1 << yk
    return fib


def _check_monotone(src: Space, dst: Space, t: tuple[int, ...]) -> None:
    up = dst.up
    for i, j in _edges(src):
        if not (up[t[i]] >> t[j]) & 1:
            sp, dp = src.points, dst.points
            raise MapError(
                f"not monotone: {sp[i]!r}->{sp[j]!r} in the domain but "
                f"{dp[t[i]]!r}->{dp[t[j]]!r} fails in the codomain"
            )


def _set_slots(f: "CMap", src: Space, dst: Space, t: tuple[int, ...]) -> None:
    _setattr(f, "src", src)
    _setattr(f, "dst", dst)
    _setattr(f, "_t", t)
    _setattr(f, "_hash", None)


def _cmap(src: Space, dst: Space, t: tuple[int, ...]) -> "CMap":
    """The map with index tuple ``t``, already known to be monotone."""
    f = object.__new__(CMap)
    _set_slots(f, src, dst, t)
    return f


class CMap:
    """A continuous map of finite spaces: a monotone total assignment.

    The only stored form is the index tuple ``as_tuple()``: codomain point
    indices aligned with ``src.points``.  ``assign`` is derived from it and
    is a fresh ``{name: name}`` dict on every access, so editing that dict
    never changes the map.  Maps are immutable and hashable; the hash is
    taken on first use.
    """

    __slots__ = ("src", "dst", "_t", "_hash")

    def __init__(self, src: Space, dst: Space, assign: Mapping[str, str]):
        missing = [p for p in src.points if p not in assign]
        if missing:
            raise MapError(f"assignment misses domain point {missing[0]!r}")
        extra = [p for p in assign if p not in src]
        if extra:
            raise MapError(f"assignment mentions non-domain point {extra[0]!r}")
        for p, q in assign.items():
            if q not in dst:
                raise MapError(f"assignment sends {p!r} to unknown point {q!r}")
        di = dst._index
        t = tuple(di[assign[p]] for p in src.points)
        _check_monotone(src, dst, t)
        _set_slots(self, src, dst, t)

    def __setattr__(self, name, value):
        raise AttributeError("CMap is immutable")

    @property
    def assign(self) -> dict[str, str]:
        """A fresh ``{domain point: codomain point}`` dict, in domain order."""
        dp = self.dst.points
        return {p: dp[v] for p, v in zip(self.src.points, self._t)}

    def __call__(self, p: str) -> str:
        k = self.src._index.get(p)
        if k is None:
            raise MapError(f"{p!r} is not a point of the domain")
        return self.dst.points[self._t[k]]

    def __eq__(self, other) -> bool:
        if not isinstance(other, CMap):
            return NotImplemented
        if self.src != other.src or self.dst != other.dst:
            return False
        if self.src.points == other.src.points and self.dst.points == other.dst.points:
            return self._t == other._t
        return self.assign == other.assign

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.src, self.dst, frozenset(self.assign.items())))
            _setattr(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"CMap({self.src!r}, {self.dst!r}, {self.assign!r})"

    def __getstate__(self):
        return (self.src, self.dst, tuple(sorted(self.assign.items())))

    def __setstate__(self, state):
        self.__init__(state[0], state[1], dict(state[2]))

    def as_tuple(self) -> tuple[int, ...]:
        """Codomain point indices aligned with ``src.points`` order."""
        return self._t

    def image(self) -> frozenset[str]:
        dp = self.dst.points
        return frozenset(dp[v] for v in self._t)


def map_from_tuple(src: Space, dst: Space, t) -> CMap:
    """The map sending ``src.points[k]`` to ``dst.points[t[k]]`` (checked)."""
    t = tuple(t)
    n, m = len(src.points), len(dst.points)
    if len(t) != n:
        raise MapError(f"index tuple has {len(t)} entries for a {n}-point domain")
    if t and (min(t) < 0 or max(t) >= m):
        k = next(k for k, v in enumerate(t) if not 0 <= v < m)
        raise MapError(
            f"index tuple sends {src.points[k]!r} to {t[k]}, outside a "
            f"{m}-point codomain"
        )
    _check_monotone(src, dst, t)
    return _cmap(src, dst, t)


def identity(x: Space) -> CMap:
    return _cmap(x, x, tuple(range(len(x.points))))


def compose(f: CMap, g: CMap) -> CMap:
    """The composite "f then g" (requires f.dst == g.src).  Equal spaces may
    list their points in other orders, so f's indices are renamed into g's."""
    if f.dst != g.src:
        raise MapError("compose: endpoints do not match")
    gt, idx, fp = g._t, g.src._index, f.dst.points
    return _cmap(f.src, g.dst, tuple(gt[idx[fp[v]]] for v in f._t))


def is_isomorphism(f: CMap) -> bool:
    n, t = len(f.src.points), f._t
    if len(f.dst.points) != n or len(set(t)) != n:
        return False
    # inverse monotone: every codomain pair must pull back into the domain
    back = [0] * n
    for i, v in enumerate(t):
        back[v] = i
    up = f.src.up
    return all((up[back[a]] >> back[b]) & 1 for a, b in _edges(f.dst))


# -- constructions ----------------------------------------------------------


def _fresh(name: str, taken: set[str]) -> str:
    """``name`` primed until it is not in ``taken``; the result is taken."""
    while name in taken:
        name += "'"
    taken.add(name)
    return name


def product(x: Space, y: Space) -> Space:
    """Product space; the relation is componentwise."""
    taken: set[str] = set()
    names = []
    pairs = []
    for a in x.points:
        for b in y.points:
            names.append(_fresh(f"{a}_{b}", taken))
            pairs.append((a, b))
    rel = []
    for i, (a1, b1) in enumerate(pairs):
        for j, (a2, b2) in enumerate(pairs):
            if (a1, a2) in x.rel and (b1, b2) in y.rel:
                rel.append((names[i], names[j]))
    sp = Space(names, rel)
    sp._lazy["pairs"] = tuple(pairs)
    return sp


def product_projections(p: Space, x: Space, y: Space) -> tuple[CMap, CMap]:
    pairs = p._lazy.get("pairs")
    if pairs is None or len(pairs) != len(p.points):
        raise SpaceError("not a product space built by product()")
    fst = CMap(p, x, {nm: a for nm, (a, b) in zip(p.points, pairs)})
    snd = CMap(p, y, {nm: b for nm, (a, b) in zip(p.points, pairs)})
    return fst, snd


def product_map(f: CMap, g: CMap) -> CMap:
    """The map f x g between the product spaces."""
    src = product(f.src, g.src)
    dst = product(f.dst, g.dst)
    spairs = src._lazy["pairs"]
    dindex = {pair: nm for nm, pair in zip(dst.points, dst._lazy["pairs"])}
    fa, ga = f.assign, g.assign
    assign = {
        nm: dindex[(fa[a], ga[b])]
        for nm, (a, b) in zip(src.points, spairs)
    }
    return CMap(src, dst, assign)


def coproduct(x: Space, y: Space) -> Space:
    """Disjoint union; y-points are primed on name collision."""
    taken = set(x.points)
    ren = {b: _fresh(b, taken) for b in y.points}
    points = list(x.points) + [ren[b] for b in y.points]
    rel = list(x.rel) + [(ren[a], ren[b]) for a, b in y.rel]
    return Space(points, rel)


def quotient(x: Space, classes: Iterable[Iterable[str]]) -> tuple[Space, CMap]:
    """Quotient space for a partition of the points, with its projection.

    The relation is the reflexive-transitive closure of the projected
    relation, which gives the quotient topology: the finest one making the
    projection continuous.
    """
    blocks = [tuple(dict.fromkeys(c)) for c in classes]
    flat = [p for c in blocks for p in c]
    if len(flat) != len(set(flat)) or set(flat) != set(x.points) or any(
        not c for c in blocks
    ):
        raise SpaceError("classes do not partition the points of the space")
    blocks.sort(key=lambda c: min(x._index[p] for p in c))
    rep = {}
    for c in blocks:
        first = min(c, key=lambda p: x._index[p])
        for p in c:
            rep[p] = first
    arrows = [(rep[a], rep[b]) for a, b in x.rel]
    q = Space.from_arrows([rep[c[0]] for c in blocks], arrows)
    proj = CMap(x, q, {p: rep[p] for p in x.points})
    return q, proj


def cylinder(p: CMap) -> tuple[Space, CMap]:
    """Non-Hausdorff mapping cylinder of p: Y -> B, with its map to B.

    The space is Y together with a copy of B glued below it: opens are
    exactly the sets U + p^-1(V) + V with U open in Y and V open in B.
    """
    y, b = p.src, p.dst
    pa = p.assign
    taken = set(y.points)
    ren = {q: _fresh(q, taken) for q in b.points}
    points = list(y.points) + [ren[q] for q in b.points]
    rel = list(y.rel)
    rel += [(ren[a], ren[c]) for a, c in b.rel]
    rel += [
        (yp, ren[q])
        for yp in y.points
        for q in b.points
        if (pa[yp], q) in b.rel
    ]
    cyl = Space(points, rel)
    proj = dict(pa)
    proj.update({ren[q]: q for q in b.points})
    return cyl, CMap(cyl, b, proj)


def lam(k: int) -> Space:
    """Zigzag model of the interval: k+1 closed endpoints, k open cells."""
    if k < 1:
        raise SpaceError("lam(k) needs k >= 1")
    points = []
    arrows = []
    for i in range(k):
        points.append(f"t{i}")
        cell = f"t{i}_{i + 1}"
        points.append(cell)
        arrows.append((cell, f"t{i}"))
        arrows.append((cell, f"t{i + 1}"))
    points.append(f"t{k}")
    return Space.from_arrows(points, arrows)


def sub(k: int) -> CMap:
    """Subdivision map lam(2k) -> lam(k): each open cell splits in two."""
    if k < 1:
        raise SpaceError("sub(k) needs k >= 1")
    fine, coarse = lam(2 * k), lam(k)
    assign = {}
    for i in range(2 * k + 1):
        assign[f"t{i}"] = f"t{i // 2}" if i % 2 == 0 else f"t{i // 2}_{i // 2 + 1}"
    for j in range(2 * k):
        assign[f"t{j}_{j + 1}"] = f"t{j // 2}_{j // 2 + 1}"
    return CMap(fine, coarse, assign)


# -- JSON encoding -----------------------------------------------------------


def space_to_json(x: Space) -> dict:
    return {"points": list(x.points), "rel": sorted([a, b] for a, b in x.rel)}


def space_from_json(data: dict) -> Space:
    try:
        points = data["points"]
        rel = [(a, b) for a, b in data["rel"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise SpaceError(f"malformed space JSON: {exc}") from exc
    return Space(points, rel)


def map_to_json(f: CMap) -> dict:
    return {
        "src": space_to_json(f.src),
        "dst": space_to_json(f.dst),
        "assign": f.assign,
    }


def map_from_json(data: dict) -> CMap:
    try:
        src = space_from_json(data["src"])
        dst = space_from_json(data["dst"])
        assign = dict(data["assign"])
    except (KeyError, TypeError) as exc:
        raise MapError(f"malformed map JSON: {exc}") from exc
    return CMap(src, dst, assign)
