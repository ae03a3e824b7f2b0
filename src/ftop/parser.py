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

A parse is one pass over the bare token strings of ``_TOKEN.findall``.  An
error knows only the index of its token; it tokenizes the text again with
``_tokens`` to find that token's offset.  ``_tokens`` raises on the first
unexpected character itself, so such a character, wherever it sits, is
reported before any grammar or class error.
"""
from __future__ import annotations

import re

from .errors import MapError, ParseError
from .space import _NAME, CMap, Space, _bits, _fresh, map_from_tuple

# One alternation, tried in order at each position, so "-->" is read before
# "->" and "<->" before "<-".  Whitespace matches nothing and is skipped by
# the search; any other character is a token of its own, and a bad one.
_TOKEN = re.compile(rf"-->|<->|->|<-|[→←↔{{}},=]|{_NAME.pattern}|\S")
_LINK = {"->": "->", "<-": "<-", "<->": "<->", "→": "->", "←": "<-", "↔": "<->"}
_KIND = dict.fromkeys(_LINK, "link") | {"-->": "maparrow", "{": "{", "}": "}", ",": ",", "=": "="}


def _tokens(text: str) -> list[tuple[str, str, int]]:
    """``(kind, ASCII text, offset)`` of each token, then an "eof" token."""
    out = []
    for m in _TOKEN.finditer(text):
        tok = m.group()
        kind = _KIND.get(tok) or _NAME.match(tok) and "name"
        if not kind:
            raise ParseError(f"unexpected character {tok!r}", m.start())
        out.append((kind, _LINK.get(tok, tok), m.start()))
    out.append(("eof", "", len(text)))
    return out


def _error(text: str, k: int, message: str) -> ParseError:
    return ParseError(message, _tokens(text)[k][2])


def _expected(text: str, k: int, kind: str) -> ParseError:
    _, shown, pos = _tokens(text)[k]
    return ParseError(f"expected {kind!r}, found {shown or 'end of input'!r}", pos)


def _space_expr(text: str, toks: list[str], k: int):
    """Read the space at ``toks[k]``: ``(space, key_of, groups, next k)``.
    ``key_of`` sends a name to its class, which is the index of its point,
    and ``groups`` holds the names of each class written with "="."""
    if toks[k] != "{":
        raise _expected(text, k, "{")
    k += 1
    key_of: dict[str, int] = {}
    ids: list[str] = []
    groups: dict[int, list[str]] = {}
    arrows = []
    link = None
    if toks[k] != "}":
        while True:
            t = toks[k]
            if toks[k + 1] == "=":
                c, k = _group(text, toks, k, key_of, ids, groups)
            else:
                c = key_of.get(t)
                if c is None:
                    if not _NAME.match(t):
                        raise _expected(text, k, "name")
                    c = key_of[t] = len(ids)
                    ids.append(t)
                k += 1
            if link:
                if link != "<-":
                    arrows.append((ids[left], ids[c]))
                if link != "->":
                    arrows.append((ids[c], ids[left]))
            left, link = c, _LINK.get(toks[k])
            if not link and toks[k] != ",":
                break
            k += 1
    if toks[k] != "}":
        raise _expected(text, k, "}")
    return Space.from_arrows(ids, arrows), key_of, groups, k + 1


def _group(text, toks, k, key_of, ids, groups) -> tuple[int, int]:
    """Read the node ``name ("=" name)+`` at ``toks[k]``: its class and the
    next k.  A class named again is named by a subset, or grows from one name."""
    start, names = k, []
    while True:
        if not _NAME.match(toks[k]):
            raise _expected(text, k, "name")
        names.append(toks[k])
        if toks[k + 1] != "=":
            break
        k += 2
    if len(set(names)) != len(names):
        raise _error(text, start, "repeated name inside one '='-class")
    existing = {key_of[n] for n in names if n in key_of}
    if len(existing) > 1:
        raise _error(text, start, f"names {names} join two distinct '='-classes")
    if existing:
        c = existing.pop()
        cur = groups.get(c, [ids[c]])
        if set(names) <= set(cur):
            return c, k + 1
        if len(cur) > 1:
            clash = next(n for n in names if n in key_of)
            raise _error(text, start, f"name {clash!r} appears in two distinct '='-classes")
    else:
        c = len(ids)
        ids.append(names[0])
    groups[c] = names
    for n in names:
        key_of[n] = c
    return c, k + 1


def _token_list(text: str) -> list[str]:
    return _TOKEN.findall(text) + ["", ""]  # ends twice: a node peeks one past its name


def parse_space(text: str) -> Space:
    toks = _token_list(text)
    space, _, _, k = _space_expr(text, toks, 0)
    if toks[k]:
        raise _expected(text, k, "eof")
    return space


def parse_map(text: str) -> CMap:
    toks = _token_list(text)
    src, dom_key, dom_groups, k = _space_expr(text, toks, 0)
    if toks[k] != "-->":
        raise _expected(text, k, "maparrow")
    dst, cod_key, _, k = _space_expr(text, toks, k + 1)
    if toks[k]:
        raise _expected(text, k, "eof")
    t = []
    for j, p in enumerate(src.points):
        names = dom_groups.get(j, (p,))
        targets = {cod_key.get(n) for n in names}
        if None in targets:
            n = next(n for n in names if n not in cod_key)
            raise MapError(f"domain name {n!r} does not occur in the codomain")
        if len(targets) > 1:
            raise MapError(f"domain class {'='.join(names)} is split across two codomain classes")
        t.append(targets.pop())
    return map_from_tuple(src, dst, t)


# -- rendering ---------------------------------------------------------------


def _scc_data(x: Space) -> list[list[int]]:
    """The indiscernibility classes as ascending index lists, numbered in
    increasing order of their least index."""
    classes = []
    for i in range(len(x.points)):
        mutual = x.up[i] & x.down[i]
        if not mutual & ((1 << i) - 1):  # no earlier point is in i's class
            classes.append(list(_bits(mutual)))
    return classes


def _hasse_edges(x: Space, classes: list[list[int]]) -> set[tuple[int, int]]:
    """The covers ``(a, b)``: class b lies below class a, with none between."""
    n = len(classes)
    below = [
        [b for b in range(n) if a != b and (x.up[classes[a][0]] >> classes[b][0]) & 1]
        for a in range(n)
    ]
    return {(a, b) for a in range(n) for b in below[a]
            if not any(c != b and b in below[c] for c in below[a])}


def _render_space_text(x: Space, label=None) -> str:
    """``label`` holds each point's text by index (default: its name).
    Chains start at the least class left and step to the least neighbour
    (two classes never cover each other); chains are listed by first class."""
    if not x.points:
        return "{}"
    if label is None:
        label = x.points
    classes = _scc_data(x)
    uncovered = _hasse_edges(x, classes)

    def node_text(s: int) -> str:
        return "<->".join(label[i] for i in classes[s])

    visited = set()
    chains = []
    while uncovered:
        cur = start = min(min(e) for e in uncovered)
        parts = [node_text(cur)]
        visited.add(cur)
        while True:
            cands = [(e[1], e, "->") for e in uncovered if e[0] == cur]
            cands += [(e[0], e, "<-") for e in uncovered if e[1] == cur]
            if not cands:
                break
            nxt, e, tok = min(cands)
            uncovered.discard(e)
            parts += [tok, node_text(nxt)]
            visited.add(nxt)
            cur = nxt
        chains.append((start, "".join(parts)))
    chains += [(s, node_text(s)) for s in range(len(classes)) if s not in visited]
    chains.sort()
    return "{" + ",".join(text for _, text in chains) + "}"


def _render_map_text(f: CMap) -> str:
    """A domain name that also names a codomain point other than its image is
    primed, in domain order, clear of the names of both spaces."""
    src, dst, t = f.src, f.dst, f.as_tuple()
    taken = set(src.points) | set(dst.points)
    names = [_fresh(p, taken) if p in dst and dst.points[v] != p else p
             for p, v in zip(src.points, t)]
    extras = [[] for _ in dst.points]
    for p, v in zip(names, t):
        if p != dst.points[v]:
            extras[v].append(p)
    label = ["=".join([y] + sorted(e)) for y, e in zip(dst.points, extras)]
    return _render_space_text(src, names) + "-->" + _render_space_text(dst, label)


def render(obj: Space | CMap) -> str:
    """Deterministic canonical text; parse(render(v)) reproduces v."""
    if isinstance(obj, Space):
        return _render_space_text(obj)
    if isinstance(obj, CMap):
        return _render_map_text(obj)
    raise TypeError(f"cannot render {type(obj).__name__}")
