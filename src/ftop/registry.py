"""Named catalog of the small spaces and maps the engine is organized around."""
from __future__ import annotations

import re

from .space import CMap, Space, lam, sub


_space = Space.from_arrows


EMPTY = Space.empty()
POINT = _space(("o",), ())
SIERPINSKI = _space(("o", "c"), (("o", "c"),))
INDISCRETE2 = _space(("a", "b"), (("a", "b"), ("b", "a")))
# the 5-point zigzag: two open points u, v over three closed points a, x, b
M = _space(("a", "u", "x", "v", "b"), (("u", "a"), ("u", "x"), ("v", "x"), ("v", "b")))
# its 3-point quotient: one open point w over two closed points a, b
LAMBDA = _space(("a", "w", "b"), (("w", "a"), ("w", "b")))

EMPTY_TO_POINT = CMap(EMPTY, POINT, {})
OPEN_POINT_INCL = CMap(POINT, SIERPINSKI, {"o": "o"})
DENSE_ARCHETYPE = CMap(_space(("c",), ()), SIERPINSKI, {"c": "c"})
PULLBACK_ARCHETYPE = CMap(SIERPINSKI, _space(("o",), ()), {"o": "o", "c": "o"})
INJECTIVE_ARCHETYPE = CMap(INDISCRETE2, _space(("a",), ()), {"a": "a", "b": "a"})
DISJOINT_CLOSURES_ARCHETYPE = CMap(
    _space(("a", "u", "b"), (("u", "a"), ("u", "b"))),
    _space(("a",), ()),
    {"a": "a", "u": "a", "b": "a"},
)
M_TO_LAMBDA = CMap(M, LAMBDA, {"a": "a", "u": "w", "x": "w", "v": "w", "b": "b"})
LAMBDA_TO_POINT = CMap(LAMBDA, POINT, {"a": "o", "w": "o", "b": "o"})

# the two 3-to-1 collapses whose left orthogonal carves out subset inclusions
SUBSET_ARCHETYPE_FWD = CMap(
    _space(("x", "y", "c"), (("x", "y"), ("y", "x"), ("y", "c"))),
    _space(("x",), ()),
    {"x": "x", "y": "x", "c": "x"},
)
SUBSET_ARCHETYPE_BWD = CMap(
    _space(("x", "y", "c"), (("x", "y"), ("y", "x"), ("c", "y"))),
    _space(("x",), ()),
    {"x": "x", "y": "x", "c": "x"},
)

_SPACES = {
    "empty": EMPTY,
    "point": POINT,
    "sierpinski": SIERPINSKI,
    "indiscrete2": INDISCRETE2,
    "M": M,
    "Lambda": LAMBDA,
}
_SPACE_ALIASES = {
    "{}": "empty",
    "∅": "empty",
    "{o}": "point",
    "S": "sierpinski",
    "{o->c}": "sierpinski",
    "{a<->b}": "indiscrete2",
    "{a<-u->x<-v->b}": "M",
    "Λ": "Lambda",
    "{a<-w->b}": "Lambda",
}

_MAPS = {
    "empty_to_point": EMPTY_TO_POINT,
    "open_point_incl": OPEN_POINT_INCL,
    "dense_archetype": DENSE_ARCHETYPE,
    "pullback_archetype": PULLBACK_ARCHETYPE,
    "injective_archetype": INJECTIVE_ARCHETYPE,
    "disjoint_closures_archetype": DISJOINT_CLOSURES_ARCHETYPE,
    "subset_archetype_fwd": SUBSET_ARCHETYPE_FWD,
    "subset_archetype_bwd": SUBSET_ARCHETYPE_BWD,
    "m_to_lambda": M_TO_LAMBDA,
    "lambda_to_point": LAMBDA_TO_POINT,
}
_MAP_ALIASES = {
    "{}-->{o}": "empty_to_point",
    "∅→{o}": "empty_to_point",
    "{o}-->{o->c}": "open_point_incl",
    "{c}-->{o->c}": "dense_archetype",
    "{o->c}-->{o=c}": "pullback_archetype",
    "{a<->b}-->{a=b}": "injective_archetype",
    "{a<-u->b}-->{a=u=b}": "disjoint_closures_archetype",
    "{x<->y->c}-->{x=y=c}": "subset_archetype_fwd",
    "{x<->y<-c}-->{x=y=c}": "subset_archetype_bwd",
    "{a<-u->x<-v->b}-->{a<-u=x=v->b}": "m_to_lambda",
    "M->Lambda": "m_to_lambda",
    "M→Λ": "m_to_lambda",
    "Lambda->point": "lambda_to_point",
    "Λ→{o}": "lambda_to_point",
}

_PARAM = re.compile(r"(lam|sub)\((\d+)\)\Z")


class Registry:
    """Lookup of named spaces and maps, including lam(k)/sub(k) families."""

    @property
    def spaces(self) -> dict[str, Space]:
        return dict(_SPACES)

    @property
    def maps(self) -> dict[str, CMap]:
        return dict(_MAPS)

    def space(self, name: str) -> Space:
        key = _SPACE_ALIASES.get(name, name)
        if key in _SPACES:
            return _SPACES[key]
        m = _PARAM.match(name.replace(" ", ""))
        if m and m.group(1) == "lam":
            return lam(int(m.group(2)))
        raise KeyError(f"unknown space name {name!r}")

    def map(self, name: str) -> CMap:
        key = _MAP_ALIASES.get(name, name)
        if key in _MAPS:
            return _MAPS[key]
        m = _PARAM.match(name.replace(" ", ""))
        if m and m.group(1) == "sub":
            return sub(int(m.group(2)))
        raise KeyError(f"unknown map name {name!r}")


_REGISTRY = Registry()


def registry() -> Registry:
    return _REGISTRY
