"""The one backtracking search shared by the lifting and universe code.

Maps are handled as tuples of codomain point indices aligned with the domain's
``points`` order; candidate sets are bitmasks over codomain indices.
``_search`` assigns the domain points along a fixed order, least candidate
first, so it yields solutions in lexicographic order along that order.  Each
assignment narrows the masks of the later points related to it (forward
checking), so a dead end shows as soon as a related point runs out of
candidates, not only when the search reaches it: a linear extension may put
every open point of a long zigzag before any closed one.  ``enum_hom``/``hom``
search in point order; ``first_solution`` searches X's linear extension.
"""
from __future__ import annotations

import weakref
from typing import Iterator, Sequence

from .space import Space


def _links(X: Space, order: tuple[int, ...]) -> tuple:
    """Per step of ``order``: the point, then the later points in its
    closure, then the later points whose closure holds it (cached)."""
    key = ("links", order)
    got = X._lazy.get(key)
    if got is None:
        upX, downX = X.up, X.down
        got = tuple(
            (i,
             tuple(j for j in order[k + 1:] if (upX[i] >> j) & 1),
             tuple(j for j in order[k + 1:] if (downX[i] >> j) & 1))
            for k, i in enumerate(order)
        )
        X._lazy[key] = got
    return got


def _search(
    X: Space, Y: Space, cand: Sequence[int], order: tuple[int, ...]
) -> Iterator[tuple[int, ...]]:
    """Monotone assignments X -> Y within per-point candidate masks, in
    lexicographic order of the values along ``order``."""
    steps = _links(X, order)
    nX = len(steps)
    upY, downY = Y.up, Y.down
    t = [0] * nX

    def rec(k: int, masks: list[int]) -> Iterator[tuple[int, ...]]:
        if k == nX:
            yield tuple(t)
            return
        i, below, above = steps[k]
        mask = masks[i]
        while mask:
            low = mask & -mask
            v = low.bit_length() - 1
            mask ^= low
            t[i] = v
            narrowed = masks
            if below or above:
                narrowed = masks[:]
                row = upY[v]
                for j in below:
                    narrowed[j] &= row
                row = downY[v]
                for j in above:
                    narrowed[j] &= row
                if 0 in narrowed:  # some point has no candidate left
                    continue
            yield from rec(k + 1, narrowed)

    return rec(0, list(cand))


def enum_hom(X: Space, Y: Space, cand: list[int] | None = None) -> Iterator[tuple[int, ...]]:
    """All monotone assignments X -> Y within per-point candidate masks,
    lexicographic on the emitted tuples."""
    if cand is None:
        cand = [(1 << len(Y.points)) - 1] * len(X.points)
    return _search(X, Y, cand, tuple(range(len(X.points))))


def hom(X: Space, Y: Space) -> tuple[tuple[int, ...], ...]:
    """All monotone assignments X -> Y, in lexicographic order.

    Cached on X under Y's identity: equal spaces may list their points in
    different orders, and the tuples follow that order.  The entry holds Y
    weakly and is dropped when Y dies, so the cache keeps no space alive."""
    key = ("hom", id(Y))
    got = X._lazy.get(key)
    if got is not None:
        return got[1]
    result = tuple(enum_hom(X, Y))
    owner = weakref.ref(X)

    def drop(_):
        x = owner()
        if x is not None:
            x._lazy.pop(key, None)

    X._lazy[key] = (weakref.ref(Y, drop), result)
    return result


def first_solution(X: Space, Y: Space, cand: list[int]) -> tuple[int, ...] | None:
    """The least monotone assignment under candidate masks along X's linear
    extension, or None."""
    return next(_search(X, Y, cand, X.linear_extension()), None)
