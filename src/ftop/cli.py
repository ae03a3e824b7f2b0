"""Command-line front end: parsing, lifting queries, orthogonals, classification,
enumeration, retract/factor searches, and the verification suites.

Exit codes: 0 success (lift holds / witness found / suite ok), 1 negative
result, 2 usage or parse errors, 3 capacity errors.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from ._parallel import default_jobs
from .errors import CapacityError, MapError, ParseError, SpaceError
from .lifting import factor_search, is_retract_of, lifts, relative_orthogonal
from .parser import parse_map, parse_space, render
from .properties import classify
from .space import CMap, map_from_json, map_to_json, space_from_json, space_to_json
from .universe import enumerate_spaces
from .verify import SUITE_NAMES, run_suite


def _load_json(path: str):
    with open(path) as fh:
        data = json.load(fh)
    if isinstance(data, dict) and "assign" in data:
        return map_from_json(data)
    return space_from_json(data)


def _object_arg(text: str):
    if text.startswith("@"):
        return _load_json(text[1:])
    if "-->" in text:
        return parse_map(text)
    return parse_space(text)


def _map_arg(text: str) -> CMap:
    obj = _object_arg(text)
    if not isinstance(obj, CMap):
        raise MapError(f"expected a map, got a space: {text!r}")
    return obj


def _split_maps(text: str) -> list[str]:
    """Split a comma-separated map list, respecting braces."""
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def _base_maps(values: list[str]) -> list[CMap]:
    out = []
    for v in values:
        for piece in _split_maps(v):
            out.append(_map_arg(piece))
    if not out:
        raise MapError("no base maps given")
    return out


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ftop",
        description="computer algebra for finite topological spaces as preorders",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="echo the canonical rendering and JSON")
    p.add_argument("expr", help="space or map, DSL or @file.json")

    p = sub.add_parser("lift", help="decide a lifting property i against g")
    p.add_argument("-i", required=True, help="left map")
    p.add_argument("-g", required=True, help="right map")

    p = sub.add_parser("orth", help="bounded orthogonal class of a base set")
    p.add_argument("-P", required=True, action="append", help="base maps, comma separated")
    p.add_argument("-w", required=True, help="word over {l,r}")
    p.add_argument("-n", type=int, required=True, help="universe bound")
    p.add_argument("--jobs", type=int, default=default_jobs())

    p = sub.add_parser("classify", help="evaluate the property record of a map")
    p.add_argument("map")

    p = sub.add_parser("enumerate", help="stream canonical spaces up to a bound")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--t0", action="store_true", help="only T0 spaces (posets)")

    p = sub.add_parser("retract", help="search retract witnesses in the arrow category")
    p.add_argument("-f", required=True, help="candidate retract")
    p.add_argument("-g", required=True, help="ambient map")

    p = sub.add_parser("factor", help="bounded factorization probe")
    p.add_argument("-f", required=True)
    p.add_argument("-P", required=True, action="append")
    p.add_argument("-w", default="", help="word prefix over {l,r} (may be empty)")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--jobs", type=int, default=default_jobs())

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", default="all", choices=list(SUITE_NAMES))
    p.add_argument("-n", type=int, default=None)
    p.add_argument("--jobs", type=int, default=default_jobs())
    p.add_argument("--format", default="text", choices=["text", "json"])

    return ap


def _cmd_parse(args) -> int:
    obj = _object_arg(args.expr)
    print(render(obj))
    blob = map_to_json(obj) if isinstance(obj, CMap) else space_to_json(obj)
    print(json.dumps(blob, sort_keys=True))
    return 0


def _cmd_lift(args) -> int:
    cert = lifts(_map_arg(args.i), _map_arg(args.g))
    print(json.dumps(cert.to_json(), indent=2, sort_keys=True))
    return 0 if cert.holds else 1


def _cmd_orth(args) -> int:
    cls = relative_orthogonal(_base_maps(args.P), args.w, args.n, jobs=args.jobs)
    if cls.exact:
        print(f"# exact class: word={cls.word!r} n={cls.n} members={len(cls.indices)}")
    else:
        print(f"# bounded class: word={cls.word!r} n={cls.n} members={len(cls.indices)}")
        print(f"# caveat: {cls.caveat}")
    for m in cls.maps():
        print(render(m))
    return 0


def _cmd_classify(args) -> int:
    rec = classify(_map_arg(args.map))
    print(json.dumps(rec.to_json(), indent=2, sort_keys=True))
    return 0


def _cmd_enumerate(args) -> int:
    from .properties import t0 as is_t0

    for x in enumerate_spaces(args.n):
        if args.t0 and not is_t0(x):
            continue
        print(render(x))
    return 0


def _cmd_retract(args) -> int:
    f = _map_arg(args.f)
    g = _map_arg(args.g)
    w = is_retract_of(f, g)
    if w is None:
        print("no retract witness found")
        return 1
    print(f"section_dom:    {render(w.section_dom)}")
    print(f"section_cod:    {render(w.section_cod)}")
    print(f"retraction_dom: {render(w.retraction_dom)}")
    print(f"retraction_cod: {render(w.retraction_cod)}")
    return 0


def _cmd_factor(args) -> int:
    got = factor_search(_map_arg(args.f), _base_maps(args.P), args.w, args.n, jobs=args.jobs)
    if got is None:
        print("no bounded factorization found")
        return 1
    print(f"# i in class {got.left_class.word!r}, p in class {got.right_class.word!r} (n={args.n})")
    for caveat in dict.fromkeys(c.caveat for c in (got.left_class, got.right_class) if c.caveat):
        print(f"# caveat: {caveat}")
    print(f"i: {render(got.i)}")
    print(f"p: {render(got.p)}")
    return 0


def _cmd_verify(args) -> int:
    report = run_suite(args.suite, n=args.n, jobs=args.jobs)
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.render_text())
    return 0 if report.ok else 1


_COMMANDS = {
    "parse": _cmd_parse,
    "lift": _cmd_lift,
    "orth": _cmd_orth,
    "classify": _cmd_classify,
    "enumerate": _cmd_enumerate,
    "retract": _cmd_retract,
    "factor": _cmd_factor,
    "verify": _cmd_verify,
}


def main(argv: Optional[list[str]] = None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # the reader closed the pipe (`ftop enumerate | head`): stop quietly
        # with the shell's SIGPIPE status; the final flush goes to devnull
        sys.stdout = open(os.devnull, "w")
        return 141
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, MapError, SpaceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
