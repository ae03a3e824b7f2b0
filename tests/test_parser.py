"""DSL grammar, error positions, and render round-trips."""
import pickle
import random
import re
from typing import Iterable

import pytest

from ftop import errors
from ftop.errors import FtopError, MapError, ParseError
from ftop.lifting import monotone_maps
from ftop.parser import _tokens, parse_map, parse_space, render
from ftop.registry import INDISCRETE2, LAMBDA, M, SIERPINSKI, registry
from ftop.space import CMap, Space, _fresh, lam, map_from_tuple, sub
from ftop.universe import enumerate_maps, enumerate_spaces


_ORACLE_NAME = re.compile(r"[A-Za-z0-9_']+")


def oracle_tokens(text):
    """Oracle: the character-by-character tokenizer that the one-pattern
    ``_tokens`` replaced, kept verbatim."""
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "{},=":
            out.append((ch, ch, i))
            i += 1
        elif ch == "→":
            out.append(("link", "->", i))
            i += 1
        elif ch == "←":
            out.append(("link", "<-", i))
            i += 1
        elif ch == "↔":
            out.append(("link", "<->", i))
            i += 1
        elif text.startswith("-->", i):
            out.append(("maparrow", "-->", i))
            i += 3
        elif text.startswith("<->", i):
            out.append(("link", "<->", i))
            i += 3
        elif text.startswith("->", i):
            out.append(("link", "->", i))
            i += 2
        elif text.startswith("<-", i):
            out.append(("link", "<-", i))
            i += 2
        else:
            m = _ORACLE_NAME.match(text, i)
            if not m:
                raise ParseError(f"unexpected character {ch!r}", i)
            out.append(("name", m.group(), i))
            i = m.end()
    out.append(("eof", "", n))
    return out


class OracleClasses:
    """Oracle: name classes of one space expression ("="-groups, union of
    mentions), kept verbatim from the parser objects the flat pass replaced."""

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


class OracleParser:
    """Oracle: the recursive descent the flat pass replaced, kept verbatim."""

    def __init__(self, text: str):
        self.toks = oracle_tokens(text)
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

    def node(self, classes: OracleClasses) -> int:
        kind, name, pos = self.take("name")
        names = [name]
        while self.peek()[0] == "=":
            self.take("=")
            names.append(self.take("name")[1])
        return classes.node(names, pos)

    def space_expr(self) -> tuple[OracleClasses, list[tuple[int, int]]]:
        self.take("{")
        classes = OracleClasses()
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


def oracle_parse_space(text: str) -> Space:
    p = OracleParser(text)
    classes, arrows = p.space_expr()
    p.take("eof")
    return classes.space(arrows)


def oracle_parse_map(text: str) -> CMap:
    p = OracleParser(text)
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


def tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as err:
        return str(err), err.position


class TestTokens:
    @pytest.mark.parametrize("text, kinds", [
        ("<-->", [("link", "<-", 0), ("link", "->", 2)]),  # "<->" does not match at 0
        ("<->->", [("link", "<->", 0), ("link", "->", 3)]),
        ("x-->y", [("name", "x", 0), ("maparrow", "-->", 1), ("name", "y", 4)]),
        ("a→b←c↔d", [("name", "a", 0), ("link", "->", 1), ("name", "b", 2),
                     ("link", "<-", 3), ("name", "c", 4), ("link", "<->", 5),
                     ("name", "d", 6)]),
        ("a\tb", [("name", "a", 0), ("name", "b", 2)]),
        ("a\nb", [("name", "a", 0), ("name", "b", 2)]),
        ("a\u00a0b", [("name", "a", 0), ("name", "b", 2)]),
        ("{a'=_0,}", [("{", "{", 0), ("name", "a'", 1), ("=", "=", 3),
                      ("name", "_0", 4), (",", ",", 6), ("}", "}", 7)]),
        ("", []),
    ])
    def test_token_lists(self, text, kinds):
        assert _tokens(text) == kinds + [("eof", "", len(text))]

    @pytest.mark.parametrize("text, char, position", [
        ("--->", "-", 0),
        ("-", "-", 0),
        ("<", "<", 0),
        (">", ">", 0),
        ("a >b", ">", 2),
        ("ab\u00e9", "\u00e9", 2),
    ])
    def test_unexpected_character(self, text, char, position):
        with pytest.raises(ParseError) as err:
            _tokens(text)
        assert err.value.position == position
        assert str(err.value) == f"unexpected character {char!r} (at position {position})"

    def test_fuzz_against_the_character_loop(self):
        rng = random.Random(0x70C)
        alphabet = list("{},=-<>→←↔abzAZ09'_") + [" ", "\t", "\n", "\u00a0", "\u2003", "é", ";"]
        for _ in range(50_000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(13)))
            assert tokens_or_error(_tokens, text) == tokens_or_error(oracle_tokens, text), text


def outcome(parse, text):
    """What a parse gives: the points, relations and index tuple, or the
    error's class, message and position."""
    try:
        v = parse(text)
    except FtopError as err:
        return type(err).__name__, str(err), getattr(err, "position", None)
    if isinstance(v, Space):
        return v.points, v.rel
    return v.src.points, v.src.rel, v.dst.points, v.dst.rel, v.as_tuple()


_FUZZ_NAMES = ["a", "b", "c", "x", "a'", "_0"]
_FUZZ_LINKS = ["->", "<-", "<->", "→", "←", "↔"]
_FUZZ_PIECES = (_FUZZ_NAMES + _FUZZ_LINKS
                + ["{", "}", ",", "=", "-->", ";", "é", "-", "<", ">", " ", " "])


def grammar_text(rng, is_map):
    """A text drawn from the grammar, over few names, so classes collide."""
    def node():
        return "=".join(rng.choice(_FUZZ_NAMES) for _ in range(rng.choice((1, 1, 1, 2, 3))))

    def chain():
        parts = [node()]
        for _ in range(rng.randrange(3)):
            parts += [rng.choice(_FUZZ_LINKS), node()]
        return "".join(parts)

    def space():
        return "{" + ",".join(chain() for _ in range(rng.randrange(4))) + "}"

    return space() + "-->" + space() if is_map else space()


def rendered_maps(rng, count):
    """Texts of random monotone maps, written by ``render``."""
    out = []
    while len(out) < count:
        spaces = []
        for _ in range(2):
            pts = rng.sample(_FUZZ_NAMES, rng.randint(1, 4))
            spaces.append(Space.from_arrows(
                pts, [(p, q) for p in pts for q in pts if p != q and rng.random() < 0.3]))
        src, dst = spaces
        try:
            f = map_from_tuple(src, dst, [rng.randrange(len(dst)) for _ in src.points])
        except MapError:
            continue
        out.append(render(f))
    return out


def mutate(rng, text):
    """``text`` with one or two pieces inserted, deleted or replaced."""
    for _ in range(rng.randint(1, 2)):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randint(1, 3))
        piece = rng.choice(_FUZZ_PIECES)
        text = rng.choice((text[:i] + piece + text[i:], text[:i] + text[j:],
                           text[:i] + piece + text[j:]))
    return text


class TestAgainstTheDescent:
    """The flat pass against the recursive descent it replaced."""

    def test_fuzz(self):
        rng = random.Random(0x16F)
        renders = rendered_maps(rng, 300)
        seen = set()
        for _ in range(20_000):
            is_map = rng.random() < 0.7
            if is_map and rng.random() < 0.4:
                text = rng.choice(renders)
            else:
                text = grammar_text(rng, is_map)
            if rng.random() < 0.5:
                text = mutate(rng, text)
            new, old = (parse_map, oracle_parse_map) if is_map else (parse_space, oracle_parse_space)
            got = outcome(new, text)
            assert got == outcome(old, text), text
            seen.add(re.match("(?:[a-z]+ )*", got[1]).group().strip() if isinstance(got[0], str)
                     else "parsed")
        # every rule of the grammar, of the classes and of the map was reached
        assert seen == {"parsed", "unexpected character", "expected",
                        "repeated name inside one", "names", "name", "domain name",
                        "domain class", "not"}, seen

    @pytest.mark.parametrize("text, error, message", [
        # an unexpected character beats a class error before it
        ("{a=a}-->{!}", ParseError, "unexpected character '!' (at position 9)"),
        # a missing domain name is reported before a split class
        ("{a=b=c}-->{a->b}", MapError, "domain name 'c' does not occur in the codomain"),
    ])
    def test_precedence(self, text, error, message):
        with pytest.raises(error) as err:
            parse_map(text)
        assert str(err.value) == message
        assert outcome(parse_map, text) == outcome(oracle_parse_map, text)


class TestParseSpace:
    def test_sierpinski(self):
        s = parse_space("{o->c}")
        assert s == SIERPINSKI
        assert s.is_open({"o"}) and s.is_closed({"c"})

    def test_m_from_zigzag(self):
        assert parse_space("{a<-u->x<-v->b}") == M

    def test_empty(self):
        assert parse_space("{}") == Space.empty()

    def test_whitespace_insignificant(self):
        assert parse_space(" { a <- u -> x <- v -> b } ") == M

    def test_unicode_arrows(self):
        assert parse_space("{o→c}") == SIERPINSKI
        assert parse_space("{a↔b}") == INDISCRETE2
        assert parse_space("{c←o}") == SIERPINSKI

    def test_indiscrete_not_collapsed(self):
        x = parse_space("{a<->b}")
        assert len(x.points) == 2
        assert x == INDISCRETE2

    def test_aliases_in_plain_space(self):
        x = parse_space("{a=b->c}")
        assert len(x.points) == 2
        assert ("a", "c") in x.rel

    def test_comma_chains(self):
        x = parse_space("{a->b,c->b,d}")
        assert set(x.points) == {"a", "b", "c", "d"}
        assert ("a", "b") in x.rel and ("c", "b") in x.rel

    def test_repeated_mention_is_same_point(self):
        x = parse_space("{a->b,a->c}")
        assert len(x.points) == 3


class TestParseErrors:
    @pytest.mark.parametrize(
        "text",
        ["", "{", "{a", "{a->}", "a}", "{a -> -> b}", "{a;b}", "{a=}", "{a b}"],
    )
    def test_syntax_errors_carry_positions(self, text):
        with pytest.raises(ParseError) as err:
            parse_space(text)
        assert err.value.position >= 0

    def test_name_in_two_classes(self):
        with pytest.raises(ParseError):
            parse_space("{a=b->c,a=d}")

    def test_overlapping_multiclasses_in_codomain(self):
        with pytest.raises(ParseError):
            parse_map("{x}-->{x=y->y=z}")

    def test_map_needs_arrow(self):
        with pytest.raises(ParseError):
            parse_map("{a} {b}")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_space("{a}x")

    @pytest.mark.parametrize("cls", [
        c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, Exception)
        and c.__module__ == errors.__name__])
    def test_every_error_survives_a_pickle_round_trip(self, cls):
        # a forked pmap worker hands its exception to the parent pickled
        err = cls("bad token", 3) if cls is ParseError else cls("bad token")
        err.worker = 2  # instance attributes travel too
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is cls
        assert (str(back), back.args, vars(back)) == (str(err), err.args, vars(err))
        if cls is ParseError:
            assert str(back) == "bad token (at position 3)"
            assert (back.message, back.position) == ("bad token", 3)


class TestParseMap:
    def test_m_to_lambda(self):
        f = parse_map("{a<-u->x<-v->b}-->{a<-u=x=v->b}")
        assert f.src == M
        assert f.assign["u"] == f.assign["x"] == f.assign["v"]
        assert f.assign["a"] == "a" and f.assign["b"] == "b"

    def test_sierpinski_to_point(self):
        f = parse_map("{o->c}-->{o=c}")
        assert len(f.dst.points) == 1
        assert f.assign == {"o": "o", "c": "o"}

    def test_closed_point_inclusion_is_not_dense(self):
        from ftop.properties import dense_image

        f = parse_map("{c}-->{o->c}")
        assert f.assign == {"c": "c"}
        assert not dense_image(f)

    def test_codomain_only_names_allowed(self):
        f = parse_map("{o}-->{o->c}")
        assert f.assign == {"o": "o"}

    def test_domain_name_missing(self):
        with pytest.raises(MapError):
            parse_map("{q}-->{o->c}")

    def test_domain_class_split(self):
        with pytest.raises(MapError):
            parse_map("{a=b}-->{a,b}")

    def test_non_monotone_assignment_names_points(self):
        with pytest.raises(MapError) as err:
            parse_map("{o->c}-->{c->o}")
        # the o->c pair fails downstairs, and the message says which
        assert "monotone" in str(err.value)
        assert "'o'" in str(err.value) and "'c'" in str(err.value)

    def test_empty_domain(self):
        f = parse_map("{}-->{o}")
        assert f.src == Space.empty()
        assert len(f.dst.points) == 1


# -- the name-keyed renderer the index-keyed one replaced, kept verbatim --------


def oracle_scc_data(x: Space):
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


def oracle_hasse_edges(x: Space, sccs, scc_of) -> set[tuple[int, int]]:
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


def oracle_render_space_text(x: Space, label=None) -> str:
    if not x.points:
        return "{}"
    if label is None:
        label = {p: p for p in x.points}
    sccs, scc_of = oracle_scc_data(x)
    edges = oracle_hasse_edges(x, sccs, scc_of)
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


def oracle_render_map_text(f: CMap) -> str:
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
    return oracle_render_space_text(src) + "-->" + oracle_render_space_text(dst, label)


def shared_name_maps(seed: int, count: int) -> list[CMap]:
    """Random maps whose two spaces draw their point names from one pool, in
    random orders, so domain points are often renamed by the renderer."""
    rng = random.Random(seed)
    pool = ["a", "b", "c", "d", "e", "a'", "b'"]

    def space(n):
        pts = rng.sample(pool, n)
        return Space.from_arrows(
            pts, [(x, y) for x in pts for y in pts if x != y and rng.random() < 0.3])

    maps = []
    while len(maps) < count:
        x, y = space(rng.randint(0, 5)), space(rng.randint(1, 4))
        homs = monotone_maps(x, y)
        if homs:
            maps.append(homs[rng.randrange(len(homs))])
    return maps


class TestRender:
    def test_spec_round_trips(self):
        assert render(parse_space("{o->c}")) == "{o->c}"
        assert render(LAMBDA) == "{a<-w->b}"
        assert render(Space.empty()) == "{}"
        assert render(M) == "{a<-u->x<-v->b}"

    def test_registry_round_trips(self):
        reg = registry()
        for name, x in reg.spaces.items():
            assert parse_space(render(x)) == x, name
        for name, f in reg.maps.items():
            assert parse_map(render(f)) == f, name
        for k in range(1, 5):
            assert parse_space(render(lam(k))) == lam(k)

    def test_sub_renders_with_renaming(self):
        # sub(k) moves points whose names also appear in the codomain; the
        # renderer primes those domain points, and the printed string
        # re-parses to the same map up to that renaming
        for k in (1, 2):
            f = sub(k)
            g = parse_map(render(f))
            assert g.dst == f.dst
            back = {p: p.rstrip("'") for p in g.src.points}
            assert any(p != q for p, q in back.items())
            assert sorted(back.values()) == sorted(f.src.points)
            assert {(back[a], back[b]) for a, b in g.src.rel} == f.src.rel
            assert {back[p]: q for p, q in g.assign.items()} == f.assign

    def test_random_spaces_round_trip(self):
        rng = random.Random(0xF70)
        names = ["a", "b", "c", "d", "e", "a'", "q0", "x_1"]
        for _ in range(1000):
            n = rng.randint(0, 5)
            pts = rng.sample(names, n)
            arrows = [
                (x, y)
                for x in pts
                for y in pts
                if x != y and rng.random() < 0.35
            ]
            x = Space.from_arrows(pts, arrows)
            assert parse_space(render(x)) == x

    def test_random_maps_round_trip(self):
        # maps built from fresh disjoint names are always DSL-expressible
        rng = random.Random(0xF71)
        for _ in range(200):
            n = rng.randint(0, 4)
            m = rng.randint(1, 4)
            src_pts = [f"s{i}" for i in range(n)]
            dst_pts = [f"d{i}" for i in range(m)]
            src = Space.from_arrows(
                src_pts,
                [
                    (x, y)
                    for x in src_pts
                    for y in src_pts
                    if x != y and rng.random() < 0.3
                ],
            )
            dst = Space.from_arrows(
                dst_pts,
                [
                    (x, y)
                    for x in dst_pts
                    for y in dst_pts
                    if x != y and rng.random() < 0.3
                ],
            )
            homs = monotone_maps(src, dst)
            if not homs:
                continue
            f = homs[rng.randrange(len(homs))]
            assert parse_map(render(f)) == f

    def test_spaces_render_as_the_name_keyed_renderer_did(self):
        # exact text, chain order included, which a round trip does not pin
        spaces = list(enumerate_spaces(4)) + [lam(k) for k in range(1, 5)]
        spaces += [Space.from_arrows(reversed(x.points), x.rel) for x in spaces]
        for x in spaces:
            assert render(x) == oracle_render_space_text(x), x

    def test_maps_render_as_the_name_keyed_renderer_did(self):
        maps = list(enumerate_maps(3)) + [sub(k) for k in range(1, 5)]
        maps += shared_name_maps(0xF72, 400)
        for f in maps:
            assert render(f) == oracle_render_map_text(f), f
