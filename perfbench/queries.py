"""Seeded query stream for the ``queries`` workload, and its answer checks.

Everything here is the benchmark's own code: it draws small preorders and
monotone maps, writes them in ftop's map notation and checks the answers,
without importing ftop.  So one seed gives the same stream on every commit,
and the timed process sees only the DSL strings.

A map is ``(src, dst, t)``: a space is ``(n, rel)`` with points ``0..n-1``
and ``rel`` the set of pairs ``(x, y)``, ``x != y``, with ``y`` in the
closure of ``x`` (written ``x->y``); ``t[x]`` is the image of point ``x``.
"""
from __future__ import annotations

import functools
import itertools
import random

# One repetition answers the whole stream in about a second, so a run holds
# many repetitions and their median leaves out the ones a busy host slowed.
LIFTS = 1000
LOOKUPS = 1000
MAX_POINTS = 4  # drawn maps have at most this many points at each end: universe(4)
# Out-of-universe lookups by the point count of their larger endpoint.  A
# lookup canonicalizes each endpoint by a scan over all point permutations,
# so these are the slow ones.  12 of 1000 lookups (1.2%) have 6 or 7
# points: just over the 1% that lookup_p99_ms needs to show that cost, and
# no more, so that wall_s stays mostly lift and small-lookup work.
OUTSIDE = {5: 4, 6: 6, 7: 6}
PARTNER_SEED = 0  # fixes the maps paired with sub(1) and sub(2): see partners()


def fence(n: int) -> tuple:
    """The zigzag 0 <- 1 -> 2 <- 3 -> ...: each odd point below its neighbours."""
    return n, frozenset((o, o + d) for o in range(1, n, 2) for d in (-1, 1) if o + d < n)


def chain(n: int) -> tuple:
    return n, frozenset((a, b) for a in range(n) for b in range(a + 1, n))


POINT = (1, frozenset())
# sub(1) and sub(2): the first two barycentric subdivisions of the 3-point
# fence, collapsing onto it.  registry.M_TO_LAMBDA is the same map as sub(1)
# up to the names of its points, so sub(1) stands for both.
SPECIALS = (
    (fence(5), fence(3), (0, 1, 1, 1, 2)),
    (fence(9), fence(5), (0, 1, 1, 1, 2, 3, 3, 3, 4)),
)


@functools.cache
def preorders(n: int) -> tuple:
    """Every preorder on the labeled points 0..n-1."""
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    out = []
    for mask in range(1 << len(pairs)):
        rel = frozenset(p for k, p in enumerate(pairs) if mask >> k & 1)
        if all((a, c) in rel for a, b in rel for b2, c in rel if b == b2 and a != c):
            out.append((n, rel))
    return tuple(out)


@functools.cache
def monotone(src: tuple, dst: tuple) -> tuple:
    """Every order-preserving map from src to dst, as image tuples."""
    (n, rel_x), (m, rel_y) = src, dst
    return tuple(t for t in itertools.product(range(m), repeat=n)
                 if all(t[a] == t[b] or (t[a], t[b]) in rel_y for a, b in rel_x))


def draw(rng: random.Random) -> tuple:
    """A map of the 4-point universe: endpoint sizes uniform (an empty
    codomain only under an empty domain), each endpoint a uniform labeled
    preorder of its size, the map uniform among the monotone ones."""
    n = rng.randrange(MAX_POINTS + 1)
    m = rng.randrange(0 if n == 0 else 1, MAX_POINTS + 1)
    src, dst = rng.choice(preorders(n)), rng.choice(preorders(m))
    return src, dst, rng.choice(monotone(src, dst))


def outside(size: int, k: int) -> tuple:
    """The k-th fixed map with a ``size``-point endpoint: a chain or a fence,
    onto a point or hit by one.  Only the names and the order of the points
    are left to the seed, so its cost does not depend on the seed."""
    big = chain(size) if k % 2 else fence(size)
    return (big, POINT, (0,) * size) if k // 2 % 2 else (POINT, big, (0,))


def write(f: tuple, rng: random.Random | None = None) -> tuple[str, dict]:
    """``f`` in ftop's map notation, and as the JSON ftop's certificates use.
    Domain points are a0, a1, ... and codomain points b0, b1, ...; with
    ``rng``, fresh names in a random order instead."""
    (n, rel_x), (m, rel_y), t = f
    names = [f"a{k}" for k in range(n)] + [f"b{k}" for k in range(m)]
    xs_order, ys_order = list(range(n)), list(range(m))
    arrows_x, arrows_y = sorted(rel_x), sorted(rel_y)
    if rng is not None:
        names = [f"v{k}" for k in rng.sample(range(1000), n + m)]
        for seq in (xs_order, ys_order, arrows_x, arrows_y):
            rng.shuffle(seq)
    xs, ys = names[:n], names[n:]
    dom = [xs[a] for a in xs_order] + [f"{xs[a]}->{xs[b]}" for a, b in arrows_x]
    cod = (["=".join([ys[b]] + [xs[a] for a in xs_order if t[a] == b]) for b in ys_order]
           + [f"{ys[a]}->{ys[b]}" for a, b in arrows_y])
    text = "{" + ",".join(dom) + "}-->{" + ",".join(cod) + "}"
    blob = {"src": {"points": xs, "rel": [[xs[a], xs[b]] for a, b in arrows_x]},
            "dst": {"points": ys, "rel": [[ys[a], ys[b]] for a, b in arrows_y]},
            "assign": {xs[a]: ys[t[a]] for a in range(n)}}
    return text, blob


@functools.cache
def partners() -> tuple:
    """The universe(4) maps lifted against sub(1) and sub(2), one per such
    lift.  Against sub(2) one map costs a few filler searches and another
    hundreds: drawn afresh for every seed, they made a stream's filler
    searches range from 4052 to 5533 over twelve seeds.  They are drawn
    once, from a fixed seed; a run's seed only renames them and reorders
    their points."""
    rng = random.Random(PARTNER_SEED)
    return tuple(draw(rng) for _ in range(LIFTS // 2))


def generate(seed: int) -> list:
    """The query stream for ``seed``, with what each answer is checked against."""
    rng = random.Random(seed)
    queries = []
    # half the lift pairs are two universe(4) maps; the other half pair one
    # with sub(1) or sub(2), on either side, each equally often
    for k in range(LIFTS):
        if k % 2 == 0:
            i, g = write(draw(rng)), write(draw(rng))
        else:
            m, s = write(partners()[k // 2], rng), write(SPECIALS[k // 2 % 2])
            i, g = (m, s) if k // 4 % 2 else (s, m)
        queries.append({"kind": "lift", "i": i[0], "g": g[0], "i_json": i[1], "g_json": g[1]})

    # lookups: fixed out-of-universe maps under fresh names, and universe(4)
    # maps twice, once as drawn and once renamed and reordered
    for size, count in OUTSIDE.items():
        for k in range(count):
            queries.append({"kind": "lookup", "map": write(outside(size, k), rng)[0],
                            "points": size, "pair": None})
    for pair in range((LOOKUPS - sum(OUTSIDE.values())) // 2):
        f = draw(rng)
        for text in (write(f)[0], write(f, rng)[0]):
            queries.append({"kind": "lookup", "map": text,
                            "points": max(f[0][0], f[1][0]), "pair": pair})
    rng.shuffle(queries)
    return queries


# -- checks ---------------------------------------------------------------------


def _rel(space: dict) -> set:
    return {tuple(p) for p in space["rel"]} | {(p, p) for p in space["points"]}


def unfillable(i: dict, g: dict, square: dict) -> bool:
    """True when the square (f, phi) from i to g commutes and no monotone
    diagonal h exists, found by trying every assignment cod(i) -> dom(g)
    that meets h∘i = f and g∘h = phi pointwise."""
    f, phi = square["f"], square["phi"]
    if any(g["assign"][f["assign"][a]] != phi["assign"][i["assign"][a]] for a in i["assign"]):
        return False
    xs = i["dst"]["points"]
    cands = {x: {y for y in g["src"]["points"] if g["assign"][y] == phi["assign"][x]} for x in xs}
    for a, x in i["assign"].items():
        cands[x] &= {f["assign"][a]}
    rel_x, rel_y = _rel(i["dst"]), _rel(g["src"])
    for image in itertools.product(*(sorted(cands[x]) for x in xs)):
        h = dict(zip(xs, image))
        if all((h[a], h[b]) in rel_y for a, b in rel_x):
            return False
    return True


def failures(stream: list, answers: list) -> int:
    """Number of answers that are wrong for their query.  A lookup is
    checked without knowing the universe's order: a map outside it must give
    None, and a drawn map and its renamed copy the same index."""
    bad = 0
    pairs: dict[int, list] = {}
    for q, ans in zip(stream, answers, strict=True):
        if q["kind"] == "lift":
            bad += not ans["recheck"] or (
                not ans["holds"] and not unfillable(q["i_json"], q["g_json"], ans["counterexample"]))
        elif q["pair"] is None:
            bad += ans is not None
        else:
            bad += ans is None
            pairs.setdefault(q["pair"], []).append(ans)
    return bad + sum(a != b for a, b in pairs.values())
