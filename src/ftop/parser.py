"""Textual notation for finite spaces and maps, with a canonical renderer.

Grammar (whitespace insignificant, ASCII output; unicode arrows accepted):

    map    := space "-->" space
    space  := "{" [ chain ("," chain)* ] "}"
    chain  := node (("->" | "<-" | "<->") node)*
    node   := name ("=" name)*
    name   := [A-Za-z0-9_']+

"x->y" declares y in the closure of x.  Inside a standalone space expression
"=" joins aliases of one point; inside the codomain of a map expression it is
the gluing syntax: each domain name must land in exactly one codomain class.
"""
from __future__ import annotations

import re
from typing import Iterable

from .errors import MapError, ParseError
from .space import _NAME, CMap, Space, _fresh

# One alternative per token kind, tried in order at each position, so
# "-->" is read before "->" and "<->" before "<-".  Whitespace matches no
# group and is skipped by the search; any other character is "bad".
_TOKEN = re.compile(
    r"(?P<punct>[{},=])|(?P<maparrow>-->)|(?P<link>->|<->|<-|[→←↔])"
    rf"|(?P<name>{_NAME.pattern})|(?P<bad>\S)"
)
_ASCII_LINK = {"→": "->", "←": "<-", "↔": "<->"}


def _tokens(text: str) -> list[tuple[str, str, int]]:
    out = []
    for m in _TOKEN.finditer(text):
        kind, tok = m.lastgroup, m.group()
        if kind == "bad":
            raise ParseError(f"unexpected character {tok!r}", m.start())
        out.append((tok if kind == "punct" else kind, _ASCII_LINK.get(tok, tok), m.start()))
    out.append(("eof", "", len(text)))
    return out


class _Classes:
    """Name classes of one space expression ("="-groups, union of mentions)."""

    def __init__(self) -> None:
        self.key_of: dict[str, int] = {}
        self.members: list[list[str]] = []
        self.ids: list[str] = []

    def node(self, names: list[str], pos: int) -> int:
        if len(set(names)) != len(names):
            raise ParseError("repeated name inside one '='-class", pos)
        existing = {self.key_of[n] for n in names if n in self.key_of}
        if len(existing) > 1:
            raise ParseError(
                f"names {names} join two distinct '='-classes", pos
            )
        if existing:
            k = existing.pop()
            cur = self.members[k]
            if set(names) <= set(cur):
                return k
            if len(cur) == 1 and cur[0] in names:
                self.members[k] = list(names)
                for n in names:
                    self.key_of[n] = k
                return k
            clash = next(n for n in names if n in self.key_of)
            raise ParseError(
                f"name {clash!r} appears in two distinct '='-classes", pos
            )
        k = len(self.members)
        self.members.append(list(names))
        self.ids.append(names[0])
        for n in names:
            self.key_of[n] = k
        return k

    def space(self, arrows: Iterable[tuple[int, int]]) -> Space:
        return Space.from_arrows(
            self.ids, [(self.ids[a], self.ids[b]) for a, b in arrows]
        )


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.k = 0

    def peek(self) -> tuple[str, str, int]:
        return self.toks[self.k]

    def take(self, kind: str) -> tuple[str, str, int]:
        tok = self.toks[self.k]
        if tok[0] != kind:
            shown = tok[1] or "end of input"
            raise ParseError(f"expected {kind!r}, found {shown!r}", tok[2])
        self.k += 1
        return tok

    def node(self, classes: _Classes) -> int:
        kind, name, pos = self.take("name")
        names = [name]
        while self.peek()[0] == "=":
            self.take("=")
            names.append(self.take("name")[1])
        return classes.node(names, pos)

    def space_expr(self) -> tuple[_Classes, list[tuple[int, int]]]:
        self.take("{")
        classes = _Classes()
        arrows: list[tuple[int, int]] = []
        if self.peek()[0] != "}":
            while True:
                left = self.node(classes)
                while self.peek()[0] == "link":
                    link = self.take("link")[1]
                    right = self.node(classes)
                    if link in ("->", "<->"):
                        arrows.append((left, right))
                    if link in ("<-", "<->"):
                        arrows.append((right, left))
                    left = right
                if self.peek()[0] != ",":
                    break
                self.take(",")
        self.take("}")
        return classes, arrows


def parse_space(text: str) -> Space:
    p = _Parser(text)
    classes, arrows = p.space_expr()
    p.take("eof")
    return classes.space(arrows)


def parse_map(text: str) -> CMap:
    p = _Parser(text)
    dom_classes, dom_arrows = p.space_expr()
    p.take("maparrow")
    cod_classes, cod_arrows = p.space_expr()
    p.take("eof")
    src = dom_classes.space(dom_arrows)
    dst = cod_classes.space(cod_arrows)
    assign = {}
    for k, names in enumerate(dom_classes.members):
        targets = set()
        for n in names:
            ck = cod_classes.key_of.get(n)
            if ck is None:
                raise MapError(
                    f"domain name {n!r} does not occur in the codomain"
                )
            targets.add(ck)
        if len(targets) > 1:
            raise MapError(
                f"domain class {'='.join(names)} is split across "
                "two codomain classes"
            )
        assign[dom_classes.ids[k]] = cod_classes.ids[targets.pop()]
    return CMap(src, dst, assign)


# -- rendering ---------------------------------------------------------------


def _scc_data(x: Space):
    n = len(x.points)
    mutual = [x.up[i] & x.down[i] for i in range(n)]
    seen = set()
    sccs: list[tuple[str, ...]] = []
    scc_of: dict[int, int] = {}
    for i in range(n):
        if i in seen:
            continue
        members = [j for j in range(n) if (mutual[i] >> j) & 1]
        for j in members:
            seen.add(j)
            scc_of[j] = len(sccs)
        sccs.append(tuple(sorted(x.points[j] for j in members)))
    return sccs, scc_of


def _hasse_edges(x: Space, sccs, scc_of) -> set[tuple[int, int]]:
    n = len(sccs)
    rep = {}
    for i, p in enumerate(x.points):
        rep.setdefault(scc_of[i], i)
    below = [
        [b for b in range(n) if a != b and (x.up[rep[a]] >> rep[b]) & 1]
        for a in range(n)
    ]
    edges = set()
    for a in range(n):
        for b in below[a]:
            if not any(c != b and b in below[c] for c in below[a]):
                edges.add((a, b))
    return edges


def _render_space_text(x: Space, label=None) -> str:
    if not x.points:
        return "{}"
    if label is None:
        label = {p: p for p in x.points}
    sccs, scc_of = _scc_data(x)
    edges = _hasse_edges(x, sccs, scc_of)
    index = {p: k for k, p in enumerate(x.points)}

    def node_key(s: int) -> int:
        return min(index[p] for p in sccs[s])

    def node_text(s: int) -> str:
        return "<->".join(
            label[p] for p in sorted(sccs[s], key=index.__getitem__)
        )

    uncovered = set(edges)
    visited = set()
    chains = []
    while uncovered:
        loose = {e[0] for e in uncovered} | {e[1] for e in uncovered}
        cur = min(loose, key=node_key)
        parts = [node_text(cur)]
        start_key = node_key(cur)
        visited.add(cur)
        while True:
            cands = []
            for e in uncovered:
                if e[0] == cur:
                    cands.append((node_key(e[1]), 0, e, e[1], "->"))
                elif e[1] == cur:
                    cands.append((node_key(e[0]), 1, e, e[0], "<-"))
            if not cands:
                break
            _, _, e, nxt, tok = min(cands)
            uncovered.discard(e)
            parts.append(tok)
            parts.append(node_text(nxt))
            visited.add(nxt)
            cur = nxt
        chains.append((start_key, "".join(parts)))
    for s in sorted(set(range(len(sccs))) - visited, key=node_key):
        chains.append((node_key(s), node_text(s)))
    chains.sort()
    return "{" + ",".join(text for _, text in chains) + "}"


def _render_map_text(f: CMap) -> str:
    src, dst = f.src, f.dst
    assign = f.assign
    moving = [p for p in src.points if p in dst and assign[p] != p]
    if moving:
        taken = set(src.points) | set(dst.points)
        rename = {p: _fresh(p, taken) for p in moving}
        newpts = [rename.get(p, p) for p in src.points]
        newrel = [(rename.get(a, a), rename.get(b, b)) for a, b in src.rel]
        src = Space(newpts, newrel)
        assign = {rename.get(p, p): q for p, q in assign.items()}
    extras = {y: [] for y in dst.points}
    for p in src.points:
        if assign[p] != p:
            extras[assign[p]].append(p)
    label = {y: "=".join([y] + sorted(extras[y])) for y in dst.points}
    return _render_space_text(src) + "-->" + _render_space_text(dst, label)


def render(obj: Space | CMap) -> str:
    """Deterministic canonical text; parse(render(v)) reproduces v."""
    if isinstance(obj, Space):
        return _render_space_text(obj)
    if isinstance(obj, CMap):
        return _render_map_text(obj)
    raise TypeError(f"cannot render {type(obj).__name__}")
