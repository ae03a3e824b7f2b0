"""Direct (non-lifting) checkers for the classical properties of maps and
spaces, used as independent oracles against the lifting-based definitions."""
from __future__ import annotations

from dataclasses import asdict, dataclass

from ._solve import first_solution
from .space import CMap, Space, _bits, _close, _fibers


def surjective(f: CMap) -> bool:
    return len(set(f.as_tuple())) == len(f.dst.points)


def injective(f: CMap) -> bool:
    return len(set(f.as_tuple())) == len(f.src.points)


def _image_mask(f: CMap, src_mask: int) -> int:
    acc = 0
    for i, v in enumerate(f.as_tuple()):
        if src_mask >> i & 1:
            acc |= 1 << v
    return acc


def _rows_covered(t: tuple[int, ...], src_rows, dst_rows) -> bool:
    """Whether f, with index tuple ``t``, maps each row of ``src_rows`` onto
    a superset of the row of ``dst_rows`` at the image point."""
    for row, v in zip(src_rows, t):
        img = 0
        for j, w in enumerate(t):
            if row >> j & 1:
                img |= 1 << w
        if dst_rows[v] & ~img:
            return False
    return True


def closed_map(f: CMap) -> bool:
    """Image of every closed set is closed (pointwise closure criterion)."""
    return _rows_covered(f.as_tuple(), f.src.up, f.dst.up)


def open_map(f: CMap) -> bool:
    """Image of every open set is open (pointwise minimal-nbhd criterion)."""
    return _rows_covered(f.as_tuple(), f.src.down, f.dst.down)


def dense_image(f: CMap) -> bool:
    full = (1 << len(f.dst.points)) - 1
    return f.dst.closure_mask(_image_mask(f, (1 << len(f.src.points)) - 1)) == full


def induced_topology(f: CMap) -> bool:
    """The domain relation is exactly the pullback of the codomain relation."""
    t, up = f.as_tuple(), f.dst.up
    for row, v in zip(f.src.up, t):
        above, pulled = up[v], 0
        for j, w in enumerate(t):
            if above >> w & 1:
                pulled |= 1 << j
        if pulled != row:
            return False
    return True


def subset_inclusion(f: CMap) -> bool:
    return injective(f) and induced_topology(f)


def quotient_map(f: CMap) -> bool:
    """Surjective with the final topology: codomain relation equals the
    transitive closure of the projected relation."""
    if not surjective(f):
        return False
    t = f.as_tuple()
    up = [0] * len(f.dst.points)
    for i, row in enumerate(f.src.up):
        up[t[i]] |= _image_mask(f, row)
    return _close(len(up), up) == list(f.dst.up)


def admits_section(f: CMap) -> bool:
    fib = _fibers(f)
    if 0 in fib:
        return False
    return first_solution(f.dst, f.src, fib) is not None


def reflects_rel(f: CMap) -> bool:
    """Specialization downstairs pulls back upstairs on every pair."""
    src, dst, t = f.src, f.dst, f.as_tuple()
    n = len(src.points)
    return all(
        not ((dst.up[t[i]] >> t[j]) & 1) or ((src.up[i] >> j) & 1)
        for i in range(n)
        for j in range(n)
    )


def pi0_surjective(f: CMap) -> bool:
    """Every connected component of the codomain meets the image."""
    img = _image_mask(f, (1 << len(f.src.points)) - 1)
    idx = f.dst._index
    return all(
        any((img >> idx[p]) & 1 for p in comp) for comp in f.dst.components()
    )


def summand_inclusion(f: CMap, discrete_complement: bool) -> bool:
    """f embeds its domain as a clopen summand; the complement is a disjoint
    summand (discrete if requested)."""
    if not (injective(f) and induced_topology(f)):
        return False
    dst, t = f.dst, f.as_tuple()
    img = 0
    for k in t:
        img |= 1 << k
    n = len(dst.points)
    comp = ((1 << n) - 1) & ~img
    for i in _bits(comp):
        if (dst.up[i] | dst.down[i]) & img:
            return False
        if discrete_complement and (dst.up[i] & comp) != 1 << i:
            return False
    return True


def closed_pair_extension(f: CMap) -> bool:
    """Every disjoint closed pair upstairs extends along f: the closures of
    the two images are disjoint downstairs and pull back exactly.  A closed
    set is the union of its points' closures and both conditions respect
    unions, so point closures suffice: cl f(x) pulls back to cl(x), and
    disjoint cl(x), cl(y) have disjoint cl f(x), cl f(y).  Each cl f(x)
    pulling back to cl(x) is f carrying the induced topology."""
    if not induced_topology(f):
        return False
    ext = [(c, f.dst.up[v]) for c, v in zip(f.src.up, f.as_tuple())]
    return not any(
        c1 & c2 == 0 and d1 & d2
        for a, (c1, d1) in enumerate(ext)
        for c2, d2 in ext[a + 1:]
    )


# -- space predicates ----------------------------------------------------------


def _closed_masks(x: Space) -> list[int]:
    full = (1 << len(x.points)) - 1
    return [full & ~m for m in x.open_masks()]


def _min_open(x: Space, mask: int) -> int:
    acc = 0
    for i, row in enumerate(x.down):
        if mask >> i & 1:
            acc |= row
    return acc


def _normal_on(x: Space, sub: int, closed) -> bool:
    """The subspace on the points of mask ``sub`` is normal, given its
    closed sets: disjoint ones have disjoint open neighborhoods."""
    pairs = [(c, _min_open(x, c) & sub) for c in closed]
    return all(c1 & c2 or not o1 & o2
               for k, (c1, o1) in enumerate(pairs) for c2, o2 in pairs[k + 1:])


def normal(x: Space) -> bool:
    """Disjoint closed sets have disjoint open neighborhoods."""
    return _normal_on(x, (1 << len(x.points)) - 1, _closed_masks(x))


def hereditarily_normal(x: Space) -> bool:
    """Every subspace is normal; a subspace's closed sets are the traces of
    the closed sets of x."""
    closed = _closed_masks(x)
    return all(_normal_on(x, m, list({c & m for c in closed})) for m in range(1 << len(x.points)))


def hereditarily_normal_by_separation(x: Space) -> bool:
    """Pairs of mutually closure-disjoint sets have disjoint neighborhoods."""
    n = len(x.points)
    for a in range(1 << n):
        cl_a = x.closure_mask(a)
        for b in range(1 << n):
            if a & b:
                continue
            if cl_a & b or x.closure_mask(b) & a:
                continue
            if _min_open(x, a) & _min_open(x, b):
                return False
    return True


def t0(x: Space) -> bool:
    return all(
        x.up[i] & x.down[i] == 1 << i for i in range(len(x.points))
    )


def discrete(x: Space) -> bool:
    return all(x.up[i] == 1 << i for i in range(len(x.points)))


def t1(x: Space) -> bool:
    # finite T1 collapses to discreteness
    return discrete(x)


def connected(x: Space) -> bool:
    """No proper nonempty clopen subset (the empty space passes vacuously)."""
    return len(x.components()) <= 1


# -- aggregate record -----------------------------------------------------------


@dataclass(frozen=True)
class SpaceRecord:
    t0: bool
    t1: bool
    normal: bool
    hereditarily_normal: bool
    connected: bool
    discrete: bool


@dataclass(frozen=True)
class PropertyRecord:
    surjective: bool
    injective: bool
    closed_map: bool
    open_map: bool
    dense_image: bool
    induced_topology: bool
    subset_inclusion: bool
    quotient_map: bool
    admits_section: bool
    src: SpaceRecord
    dst: SpaceRecord

    def to_json(self) -> dict:
        return asdict(self)


def _space_record(x: Space) -> SpaceRecord:
    return SpaceRecord(
        t0=t0(x),
        t1=t1(x),
        normal=normal(x),
        hereditarily_normal=hereditarily_normal(x),
        connected=connected(x),
        discrete=discrete(x),
    )


def classify(f: CMap) -> PropertyRecord:
    """Evaluate every property flag of a map and its two spaces."""
    return PropertyRecord(
        surjective=surjective(f),
        injective=injective(f),
        closed_map=closed_map(f),
        open_map=open_map(f),
        dense_image=dense_image(f),
        induced_topology=induced_topology(f),
        subset_inclusion=subset_inclusion(f),
        quotient_map=quotient_map(f),
        admits_section=admits_section(f),
        src=_space_record(f.src),
        dst=_space_record(f.dst),
    )
