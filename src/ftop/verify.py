"""Named, reproducible verification suites over the bounded universes.

Each suite runs a list of claims and reports per-claim status:

* ``pass``   - checked exhaustively at the stated bound, zero counterexamples;
* ``fail``   - a claim expected to hold produced counterexamples (surfaced
  verbatim as DSL);
* ``caveat`` - a bounded-universe over-approximation finding or an explicitly
  directional probe; never fails the run.

For claims about orthogonal classes beyond one decidable step the report is
two-sided: "characterized class inside bounded class" must hold, while the
reverse containment may legitimately fail and is reported as a caveat with
witnesses.

Claims are data.  A suite's claims are its rows of the orthogonal ladder
(``_LADDER``, or the ``_LEMMA21`` words of it), then its rows of ``_SWEEPS``
("lifting against an archetype = a predicate", swept over a universe), then
its rows of ``_CHECKS`` (a named check function and its arguments), in table
order.  One runner, ``_run_claims``, times every claim and renders the
offending maps or spaces it lists, at most ``MAX_LISTED`` of them.

Every lifting sweep is rows of one ``lifting._step``: a ladder word's
letters, or a suite's ``_SWEEPS`` rows over one subject, mlambda's
subdivision checks among them.  Factorization coverage is enumerated by
composition.

``--jobs`` is spent once, at the coarsest grain with independent work.  A
single suite forks by step, through ``_step``.  ``run_suite("all")`` hands
``pmap`` whole suites instead, the items of ``_ITEMS``, whose steps run
inline in the worker, so claim runtimes of different suites overlap.
Suites reading one word memo share an item.  ``pmap`` brings a worker's
counts back with its results, so the counters read the same for every
``jobs``.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import cached_property, partial
from typing import Callable, Optional

from ._parallel import pmap
from .lifting import _step, factoring_maps, is_retract_of, relative_orthogonal
from .parser import render
from .properties import (
    admits_section,
    closed_map,
    closed_pair_extension,
    dense_image,
    discrete,
    hereditarily_normal,
    hereditarily_normal_by_separation,
    induced_topology,
    injective,
    normal,
    pi0_surjective,
    quotient_map,
    reflects_rel,
    subset_inclusion,
    summand_inclusion,
    surjective,
    t0,
)
from .registry import (
    DENSE_ARCHETYPE,
    DISJOINT_CLOSURES_ARCHETYPE,
    EMPTY_TO_POINT,
    INJECTIVE_ARCHETYPE,
    LAMBDA_TO_POINT,
    M_TO_LAMBDA,
    OPEN_POINT_INCL,
    PULLBACK_ARCHETYPE,
    SUBSET_ARCHETYPE_BWD,
    SUBSET_ARCHETYPE_FWD,
)
from .space import CMap, compose, is_isomorphism, sub
from .universe import _space_universe, enumerate_maps, enumerate_spaces, get_universe

MAX_LISTED = 20  # counterexamples listed per claim; totals go in the detail


@dataclass(frozen=True)
class ClaimResult:
    claim_id: str
    anchor: str
    status: str
    detail: str
    counterexamples: tuple[str, ...]
    runtime: float

    def to_json(self) -> dict:
        return {
            "claim": self.claim_id,
            "anchor": self.anchor,
            "status": self.status,
            "detail": self.detail,
            "counterexamples": list(self.counterexamples),
            "runtime": self.runtime,
        }


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    n: int
    jobs: int
    claims: tuple[ClaimResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.claims)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "n": self.n,
            "jobs": self.jobs,
            "ok": self.ok,
            "claims": [c.to_json() for c in self.claims],
        }

    def render_text(self) -> str:
        lines = [f"suite {self.suite} (n={self.n}, jobs={self.jobs})"]
        for c in self.claims:
            mark = {"pass": "PASS", "fail": "FAIL", "caveat": "CAVEAT"}[c.status]
            lines.append(f"  [{mark}] {c.claim_id}: {c.anchor} ({c.runtime:.2f}s)")
            if c.detail:
                lines.append(f"         {c.detail}")
            label = "counterexample" if c.status == "fail" else "finding"
            for ce in c.counterexamples:
                lines.append(f"         {label}: {ce}")
        verdict = "OK" if self.ok else "FAILED"
        lines.append(f"suite {self.suite}: {verdict}")
        return "\n".join(lines)


def _of_dst(pred: Callable, f: CMap) -> bool:
    return pred(f.dst)


def _verdict(bad: list, total: int, subject: str):
    status = "fail" if bad else "pass"
    return status, f"{len(bad)} counterexamples over {total} {subject}", bad


class _Run:
    """One suite run: its bound, its pool size, and what its claims share,
    computed by the first claim that needs it: the universe's maps, the
    mlambda left class, and per subject the disagreements of the suite's
    ``_SWEEPS`` rows."""

    def __init__(self, suite: str, n: int, jobs: int):
        self.suite = suite
        self.n = n
        self.jobs = jobs
        self._sweeps: dict[str, tuple[int, dict[tuple, list]]] = {}

    def sweep(self, subject: str) -> tuple[int, dict[tuple, list]]:
        """The number of items of ``subject``, and per ``_SWEEPS`` row of the
        suite, keyed (side, archetype, predicate), the items whose lifting
        disagrees with the predicate.  The rows are one ``_step``, which
        also evaluates the predicates, in the workers."""
        got = self._sweeps.get(subject)
        if got is None:
            rows = [(side, arch, pred) for owner, _, _, side, arch, pred, subj in _SWEEPS
                    if owner == self.suite and subj == subject]
            steps = [([arch], side, pred) for side, arch, pred in rows]
            if subject == "spaces":  # space k lifted as map k, the one out of the empty space
                u, ks = _space_universe(self.n), None
                item = u.spaces.__getitem__
                steps = [(members, side, partial(_of_dst, pred)) for members, side, pred in steps]
            else:  # the left class first: a bound over 4 fails before a build
                ks = self.left if subject == "left-class maps" else None
                u = get_universe(self.n)
                item = u.map_at
            kept = _step(u, steps, self.jobs, ks)
            got = self._sweeps[subject] = (len(u if ks is None else ks), {
                row: list(map(item, row_kept)) for row, row_kept in zip(rows, kept)})
        return got

    @cached_property
    def maps(self) -> tuple[CMap, ...]:
        """Every map of the n-universe, built once per run."""
        return enumerate_maps(self.n)

    @cached_property
    def left(self) -> tuple[int, ...]:
        """Universe indices of the bounded left class of the zigzag collapse."""
        return relative_orthogonal([M_TO_LAMBDA], "l", self.n, self.jobs).indices


# -- orthogonal ladders ---------------------------------------------------------


def _nonempty_or_empty_pair(f: CMap) -> bool:
    return len(f.src.points) > 0 or len(f.dst.points) == 0


def _empty_dom_or_iso(f: CMap) -> bool:
    return len(f.src.points) == 0 or is_isomorphism(f)


def _summand_discrete(f: CMap) -> bool:
    return summand_inclusion(f, discrete_complement=True)


def _summand_any(f: CMap) -> bool:
    return summand_inclusion(f, discrete_complement=False)


def _always(f: CMap) -> bool:
    return True


def _automatic_sections(f: CMap) -> bool:
    # refinement of "every set-theoretic section is continuous": the lifting
    # class is exactly the surjections reflecting specialization
    return surjective(f) and reflects_rel(f)


# (word, predicate, anchor): the classes of the empty-to-point map, appendix 3.2
_LADDER = (
    ("r", surjective, "right class = surjections"),
    ("l", _nonempty_or_empty_pair,
     "left class = maps with nonempty domain, plus the empty identity"),
    ("rr", subset_inclusion, "rr class = subset inclusions"),
    ("lr", _empty_dom_or_iso,
     "lr class = maps out of the empty space and isomorphisms"),
    ("lrr", admits_section, "lrr class = maps admitting a continuous section"),
    ("rl", _summand_discrete,
     "rl class = clopen summand inclusions with discrete complement"),
    ("rll", pi0_surjective,
     "rll class = maps hitting every component of the codomain"),
    ("rllr", _summand_any, "rllr class = clopen summand inclusions"),
    ("lrrr", injective, "lrrr class = injective maps"),
    ("lrrrr", _automatic_sections,
     "lrrrr class = surjections reflecting specialization "
     "(refines 'every set-theoretic section is continuous')"),
    ("lrrrl", quotient_map, "lrrrl class = quotient maps"),
)

# lemma 2.1's words, in its order, and the two anchors it words differently
_LEMMA21 = ("r", "rl", "rll", "rllr", "rr", "lrrrl")
_LEMMA21_ANCHORS = {
    "r": "right class of the empty-to-point map = surjections",
    "rr": "rr class = subset inclusions (injective, induced topology)",
}


def _ladder(run: _Run, word: str, pred: Callable):
    cls = relative_orthogonal([EMPTY_TO_POINT], word, run.n, jobs=run.jobs)
    in_class = set(cls.indices)
    missing = []
    extra = []
    for k, m in enumerate(run.maps):
        p = pred(m)
        if p and k not in in_class:
            missing.append(m)
        elif not p and k in in_class:
            extra.append(m)
    if missing:
        return (
            "fail",
            f"{len(missing)} characterized maps missing from the bounded "
            f"class (plus {len(extra)} extra members) over {len(run.maps)} maps",
            missing + extra,
        )
    if extra:
        status = "caveat" if not cls.exact else "fail"
        note = cls.caveat or "single-step class is exact"
        return (
            status,
            f"bounded class has {len(extra)} members beyond the "
            f"characterization over {len(run.maps)} maps; {note}",
            extra,
        )
    return "pass", f"exact match over {len(run.maps)} maps", []


# -- single-step equivalence sweeps ---------------------------------------------

# (suite, claim id, anchor, side, archetype, predicate, subject): every item
# lifts against the archetype ("l": item on the left, "r": on the right)
# exactly when the predicate holds.  Items are the maps of the n-universe; for
# "left-class maps" the members of the suite's left class, where the
# predicate is always true; for "spaces" the spaces of enumerate_spaces(n),
# lifted as the map from the empty space.
_SWEEPS = (
    ("appendix32", "subsets.via_fwd_collapse",
     "left lifting against the 3-to-1 collapse decides subset inclusions",
     "l", SUBSET_ARCHETYPE_FWD, subset_inclusion, "maps"),
    ("appendix32", "subsets.via_bwd_collapse",
     "left lifting against the 3-to-1 collapse decides subset inclusions",
     "l", SUBSET_ARCHETYPE_BWD, subset_inclusion, "maps"),
    ("closed_proper", "closed_iff_open_point_lifting",
     "a map of finite spaces is closed (= proper) iff the open-point "
     "inclusion lifts against it",
     "r", OPEN_POINT_INCL, closed_map, "maps"),
    ("normality", "normal_iff_empty_lifting",
     "a space is normal iff the map from the empty space lifts against "
     "the five-to-three zigzag collapse",
     "l", M_TO_LAMBDA, normal, "spaces"),
    ("figure2", "dense_image",
     "left lifting against the closed-point inclusion = dense image",
     "l", DENSE_ARCHETYPE, dense_image, "maps"),
    ("figure2", "injective",
     "left lifting against the indiscrete collapse = injectivity",
     "l", INJECTIVE_ARCHETYPE, injective, "maps"),
    ("figure2", "induced_topology",
     "left lifting against the Sierpinski collapse = induced topology",
     "l", PULLBACK_ARCHETYPE, induced_topology, "maps"),
    ("figure2", "disjoint_closures",
     "left lifting against the zigzag collapse-to-point = disjoint closed "
     "pairs extend with exact preimages",
     "l", DISJOINT_CLOSURES_ARCHETYPE, closed_pair_extension, "maps"),
    ("mlambda", "left_class_lifts_one_step_subdivision",
     "every member of the bounded left class of the zigzag collapse "
     "lifts against the one-step subdivision",
     "l", sub(1), _always, "left-class maps"),
    ("mlambda", "left_class_lifts_two_step_subdivision",
     "every member of the bounded left class lifts against the "
     "subdivision of the doubled zigzag",
     "l", sub(2), _always, "left-class maps"),
)


def _sweep(run: _Run, side: str, arch: CMap, pred: Callable, subject: str):
    total, bad = run.sweep(subject)
    return _verdict(bad[(side, arch, pred)], total, subject)


# -- single checks ----------------------------------------------------------------


def _closed_archetype(run: _Run, arch: CMap):
    ok = closed_map(arch)
    return "pass" if ok else "fail", render(arch), [] if ok else [arch]


def _two_routes(run: _Run):
    spaces = enumerate_spaces(run.n)
    bad = [x for x in spaces if hereditarily_normal(x) != hereditarily_normal_by_separation(x)]
    return _verdict(bad, len(spaces), "spaces")


def _discrete_claim(run: _Run, pred: Callable, restrict: Optional[Callable], subject: str,
                    caveat: Optional[str] = None):
    """``pred`` on the discrete-domain left-class members whose codomain
    passes ``restrict``.  With ``caveat``, a failure is a caveat whose detail
    is ``caveat`` filled with the failures and the members counted."""
    u = get_universe(run.n)
    eligible = [m for m in map(u.map_at, run.left)
                if discrete(m.src) and (restrict is None or restrict(m.dst))]
    bad = [m for m in eligible if not pred(m)]
    if caveat and bad:
        return "caveat", caveat.format(len(bad), len(eligible)), bad
    return _verdict(bad, len(eligible), subject)


def _subdivisions(run: _Run):
    bad = []
    for k in range(1, 5):
        s = sub(k)  # construction already enforces monotonicity
        if not surjective(s) or not quotient_map(s):
            bad.append(s)
    return _verdict(bad, 4, "subdivision maps")


def _retract(run: _Run):
    readings = (
        ("displayed (fine zigzag of 4 cells onto 2)", sub(2)),
        ("text (fine zigzag of 16 cells onto 4)", compose(sub(8), sub(4))),
    )
    outcome = []
    witnesses = 0
    for tag, g in readings:
        w = is_retract_of(LAMBDA_TO_POINT, g)
        if w is not None and w.check(LAMBDA_TO_POINT, g):
            witnesses += 1
            outcome.append(f"{tag}: witness found and verified")
        else:
            outcome.append(f"{tag}: no witness")
    return "pass" if witnesses else "fail", "; ".join(outcome), []


def _factorization(run: _Run):
    left, right = (relative_orthogonal([M_TO_LAMBDA], word, run.n, jobs=run.jobs)
                   for word in ("l", "lr"))
    found = factoring_maps(left, right)
    return (
        "caveat",
        f"bounded factorization found for {len(found)}/{len(run.maps)} maps "
        "(exploration only: classes are bounded over-approximations and "
        "middle objects are capped)",
        [m for k, m in enumerate(run.maps) if k not in found],
    )


# (suite, claim id, anchor, check, *arguments after the run)
_CHECKS = (
    ("archetypes", "archetype_closed.disjoint_closures",
     "the archetype map is closed", _closed_archetype, DISJOINT_CLOSURES_ARCHETYPE),
    ("archetypes", "archetype_closed.injective",
     "the archetype map is closed", _closed_archetype, INJECTIVE_ARCHETYPE),
    ("archetypes", "archetype_closed.pullback_topology",
     "the archetype map is closed", _closed_archetype, PULLBACK_ARCHETYPE),
    ("archetypes", "archetype_closed.dense_image",
     "the archetype map is closed", _closed_archetype, DENSE_ARCHETYPE),
    ("normality", "hereditarily_normal_two_routes",
     "hereditary normality via subspaces agrees with the "
     "separated-pairs characterization", _two_routes),
    ("mlambda", "discrete_domain_members_are_injective",
     "left-class members with discrete domain are injective",
     _discrete_claim, injective, None, "discrete-domain maps"),
    ("mlambda", "discrete_domain_members_have_induced_topology",
     "left-class members with discrete domain carry the induced topology",
     _discrete_claim, induced_topology, None, "discrete-domain maps"),
    ("mlambda", "discrete_domain_members_into_t0_are_closed",
     "left-class members with discrete domain and T0 codomain are closed",
     _discrete_claim, closed_map, t0, "discrete-domain maps into T0"),
    ("mlambda", "discrete_domain_members_into_hn_are_closed",
     "directional probe: with only hereditary normality downstairs "
     "the closed-subset reading can fail off T0",
     _discrete_claim, closed_map, hereditarily_normal, "maps",
     "{} non-closed members over {} maps: the closed-subset reading needs a T0 "
     "codomain at finite scale (finite Hausdorff degenerates to discrete); see the T0 claim"),
    ("subdivision", "subdivisions_are_surjective_quotients",
     "each subdivision map is a surjective quotient", _subdivisions),
    ("retract", "zigzag_to_point_retract_of_subdivision",
     "the zigzag collapse to a point is a retract of an iterated "
     "subdivision under at least one indexing reading", _retract),
    ("factorization", "bounded_factorization_coverage",
     "every map factors as (left-class map, then right-orthogonal map) "
     "within the bounded universe - coverage probe", _factorization),
)


# -- the runner ---------------------------------------------------------------------

# default bound per suite, in report order; 0: the suite takes no bound
_BOUNDS = {
    "lemma21": 3,
    "appendix32": 3,
    "closed_proper": 4,
    "archetypes": 0,
    "normality": 5,
    "mlambda": 4,
    "figure2": 4,
    "subdivision": 0,
    "retract": 0,
    "factorization": 3,
}


def _suite_rows(suite: str) -> list[tuple]:
    """(claim id, anchor, check, arguments) of the suite's claims, in order."""
    rows = []
    ladder = {word: (pred, anchor) for word, pred, anchor in _LADDER}
    words = {"lemma21": _LEMMA21, "appendix32": tuple(ladder)}.get(suite, ())
    for word in words:
        pred, anchor = ladder[word]
        if suite == "lemma21":
            anchor = _LEMMA21_ANCHORS.get(word, anchor)
        rows.append((f"ladder.{word}", anchor, _ladder, (word, pred)))
    for owner, claim_id, anchor, *args in _SWEEPS:
        if owner == suite:
            rows.append((claim_id, anchor, _sweep, tuple(args)))
    for owner, claim_id, anchor, check, *args in _CHECKS:
        if owner == suite:
            rows.append((claim_id, anchor, check, tuple(args)))
    return rows


def _run_claims(suite: str, n: Optional[int], jobs: int) -> tuple[int, list[ClaimResult]]:
    default = _BOUNDS[suite]
    if not default:
        n = 0
    elif n is None:
        n = default
    run = _Run(suite, n, jobs)
    claims = []
    for claim_id, anchor, check, args in _suite_rows(suite):
        start = time.perf_counter()
        status, detail, cxs = check(run, *args)
        claims.append(ClaimResult(
            claim_id, anchor, status, detail, tuple(map(render, cxs[:MAX_LISTED])),
            time.perf_counter() - start,
        ))
    return n, claims


# per-suite callables (n, jobs) -> (bound used, claims), looked up per run
_SUITES: dict[str, Callable] = {name: partial(_run_claims, name) for name in _BOUNDS}

SUITE_NAMES = tuple(_SUITES) + ("all",)

# the items of run_suite("all"), in report order of their first suites.
# Suites whose classes are over one base read one word memo, so they share
# an item and decisions do not depend on the cut: every lemma21 word is an
# appendix32 word, and mlambda's left class is factorization's at one bound
_ITEMS = (("lemma21", "appendix32"), ("closed_proper",), ("archetypes",), ("normality",),
          ("mlambda", "factorization"), ("figure2",), ("subdivision",), ("retract",))


def _run_item(n: Optional[int], names: tuple[str, ...]) -> list[tuple[str, tuple]]:
    """Per suite of ``names``, (name, (bound used, claims)), its steps inline."""
    return [(name, _SUITES[name](n, 1)) for name in names]


def run_suite(name: str, n: Optional[int] = None, jobs: int = 1) -> SuiteReport:
    """Run a named verification suite and return its report."""
    if name == "all":
        runs = dict(run for got in pmap(partial(_run_item, n), _ITEMS, jobs) for run in got)
        claims = [replace(c, claim_id=f"{sub_name}.{c.claim_id}")
                  for sub_name in _BOUNDS for c in runs[sub_name][1]]
        bound = max(used_n for used_n, _ in runs.values())
        return SuiteReport("all", bound, jobs, tuple(claims))
    if name not in _SUITES:
        raise ValueError(
            f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}"
        )
    used_n, claims = _SUITES[name](n, jobs)
    return SuiteReport(name, used_n, jobs, tuple(claims))
