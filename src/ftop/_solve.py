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
Enumerations are memoized per space pair (``_table``) and die with either
space.  ``enum_hom`` keeps one only once it has run to its end (``hom`` reads
the entry for all-ones masks); one abandoned part-way keeps nothing.
"""
from __future__ import annotations

import weakref
from typing import Iterable, Iterator, Sequence

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
    lexicographic order of the values along ``order``.

    One frame with its own stack: ``masks[k]`` holds the candidate masks as
    narrowed before step k, ``left[k]`` the values step k has still to try."""
    steps = _links(X, order)
    nX = len(steps)
    if nX == 0:
        yield ()
        return
    upY, downY = Y.up, Y.down
    t = [0] * nX
    masks = [list(cand)] + [None] * (nX - 1)
    left = [masks[0][steps[0][0]]] + [0] * (nX - 1)
    last = nX - 1
    k = 0
    while k >= 0:
        mask = left[k]
        if not mask:
            k -= 1
            continue
        low = mask & -mask
        left[k] = mask ^ low
        i, below, above = steps[k]
        v = low.bit_length() - 1
        t[i] = v
        narrowed = masks[k]
        if below or above:
            narrowed = narrowed[:]
            row = upY[v]
            for j in below:
                narrowed[j] &= row
            row = downY[v]
            for j in above:
                narrowed[j] &= row
            if 0 in narrowed:  # some point has no candidate left
                continue
        if k == last:
            yield tuple(t)
            continue
        k += 1
        masks[k] = narrowed
        left[k] = narrowed[steps[k][0]]


def _table(X: Space, Y: Space, name: str) -> dict:
    """The memo ``name`` for the pair (X, Y), kept on X under Y's identity:
    equal spaces may list their points in different orders, and answers
    follow that order.  The entry holds Y weakly and is dropped when Y dies,
    so a memo dies with X or with Y and keeps no space alive."""
    key = (name, id(Y))
    got = X._lazy.get(key)
    if got is None:
        owner = weakref.ref(X)

        def drop(_):
            x = owner()
            if x is not None:
                x._lazy.pop(key, None)

        got = X._lazy[key] = (weakref.ref(Y, drop), {})
    return got[1]


def enum_hom(
    X: Space, Y: Space, cand: Sequence[int] | None = None
) -> Iterable[tuple[int, ...]]:
    """All monotone assignments X -> Y within per-point candidate masks,
    lexicographic on the emitted tuples (memoized per space pair on the
    masks' contents).  A hit returns the stored tuple; a miss streams the
    search and stores what it yielded once it runs to its end."""
    if cand is None:
        cand = ((1 << len(Y.points)) - 1,) * len(X.points)
    key = tuple(cand)
    memo = _table(X, Y, "enum")
    got = memo.get(key)
    return _recorded(X, Y, key, memo) if got is None else got


def _recorded(X: Space, Y: Space, key: tuple[int, ...], memo: dict) -> Iterator[tuple[int, ...]]:
    seen = []
    for t in _search(X, Y, key, tuple(range(len(X.points)))):
        seen.append(t)
        yield t
    memo[key] = tuple(seen)  # not reached when the consumer stops early


def hom(X: Space, Y: Space) -> tuple[tuple[int, ...], ...]:
    """All monotone assignments X -> Y, in lexicographic order (``enum_hom``
    under all-ones masks)."""
    return tuple(enum_hom(X, Y))


def first_solution(X: Space, Y: Space, cand: Sequence[int]) -> tuple[int, ...] | None:
    """The least monotone assignment under candidate masks along X's linear
    extension, or None."""
    return next(_search(X, Y, cand, X.linear_extension()), None)
