"""Per-layer tracing of ftop from outside the package.

The tracer wraps the public functions of each ``ftop`` module and rebinds
every name that refers to them, in every ``ftop`` module, because callers
bind most of them with ``from ... import`` (``ftop.verify.lifts_bool``,
``ftop.lifting.first_solution``, ``ftop.cli.run_suite``) and the ladder
tables in ``ftop.verify`` hold predicate functions directly.  Calls are
counted on every entry; time is taken around the outermost entry of each
name, so recursion through a rebound name is not counted twice.
Generators (``enum_hom``) and the filler search (``_fill_tuple``) are
counted, not timed.

``pmap`` hands its workers a wrapped callable that returns each item's
duration and the worker's counter deltas with the result, so counts and
layer times are totals over all processes and do not depend on ``jobs``.
"""
from __future__ import annotations

import inspect
import os
import sys
import time

# metric name -> (module, attribute); timed, with calls counted
TIMED = {
    "solve.hom": ("ftop._solve", "hom"),
    "solve.first_solution": ("ftop._solve", "first_solution"),
    "lifting.lifts_bool": ("ftop.lifting", "lifts_bool"),
    "lifting.lifts": ("ftop.lifting", "lifts"),
    "lifting.lifting_matrix": ("ftop.lifting", "lifting_matrix"),
    "lifting.relative_orthogonal": ("ftop.lifting", "relative_orthogonal"),
    "universe.map_key": ("ftop.universe", "map_key"),
    "universe.enumerate_spaces": ("ftop.universe", "enumerate_spaces"),
    "universe.get_universe": ("ftop.universe", "get_universe"),
    "universe.cache_load": ("ftop.universe", "_load_cache"),
    "universe.cache_save": ("ftop.universe", "_save_cache"),
    "parser.render": ("ftop.parser", "render"),
    "space.compose": ("ftop.space", "compose"),
    "verify.run_suite": ("ftop.verify", "run_suite"),
}
# several functions reported under one name
TIMED_GROUPS = {
    "parser.parse": (("ftop.parser", "parse_map"), ("ftop.parser", "parse_space")),
}
# metric name -> (module, class, method)
TIMED_METHODS = {
    "lifting.recheck": ("ftop.lifting", "LiftCertificate", "recheck"),
    "universe.map_at": ("ftop.universe", "Universe", "map_at"),
    "universe.index_of_map": ("ftop.universe", "Universe", "index_of_map"),
}
# counted only
COUNTED = {
    "solve.enum_hom": ("ftop._solve", "enum_hom"),
    "lifting.squares": ("ftop.lifting", "_fill_tuple"),
}
# names left unwrapped where they are defined: hom's own enum_hom calls are
# misses of a per-process cache, so their number depends on which pool
# worker ran which item
KEEP = {("ftop._solve", "enum_hom")}
SUITES = (
    "lemma21", "appendix32", "closed_proper", "archetypes", "normality",
    "mlambda", "figure2", "subdivision", "retract", "factorization",
)


class Tracer:
    """Counters and timers installed into the loaded ``ftop`` modules."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.secs: dict[str, float] = {}
        self.extra: dict[str, float] = {}  # found/true counts, bytes, pmap figures

    # -- counters shipped back from pool workers ---------------------------

    def _snapshot(self):
        return dict(self.calls), dict(self.secs), dict(self.extra)

    def _delta(self, snap):
        calls, secs, extra = snap
        return (
            {k: v - calls[k] for k, v in self.calls.items() if v != calls[k]},
            {k: v - secs[k] for k, v in self.secs.items() if v != secs[k]},
            {k: v - extra[k] for k, v in self.extra.items() if v != extra[k]},
        )

    def _merge(self, delta):
        for mine, theirs in zip((self.calls, self.secs, self.extra), delta):
            for k, v in theirs.items():
                mine[k] += v

    # -- wrappers ------------------------------------------------------------

    def _timed(self, fn, name, outcome=None):
        self.calls.setdefault(name, 0)
        self.secs.setdefault(name, 0.0)
        if outcome:
            self.extra.setdefault(outcome, 0)
        calls, secs, extra, clock = self.calls, self.secs, self.extra, time.perf_counter
        depth = [0]

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] = 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                secs[name] += clock() - start
                depth[0] = 0
            if outcome and result:
                extra[outcome] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, name):
        self.calls.setdefault(name, 0)
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _layer(self, fn, name, depth):
        """Time entries into a layer from outside it, shared ``depth``."""
        self.calls.setdefault(name, 0)
        self.secs.setdefault(name, 0.0)
        calls, secs, clock = self.calls, self.secs, time.perf_counter

        def wrapper(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            calls[name] += 1
            depth[0] = 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                secs[name] += clock() - start
                depth[0] = 0

        wrapper.__wrapped__ = fn
        return wrapper

    def _cache_io(self, fn, key, saves):
        """Add the size of the cache file a load found or a save wrote."""
        from ftop.universe import _cache_file

        extra = self.extra
        extra.setdefault(key, 0)

        def wrapper(stem, *args):
            result = fn(stem, *args)
            if saves or result is not None:
                try:
                    extra[key] += _cache_file(stem).stat().st_size
                except OSError:
                    pass
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _pmap(self, fn):
        tracer = self
        for key in ("parallel.pmap.forked_calls", "parallel.pmap.items",
                    "parallel.worker_busy_s", "parallel.proc_s"):
            self.extra.setdefault(key, 0)
        self.calls.setdefault("parallel.pmap", 0)
        self.secs.setdefault("parallel.pmap", 0.0)
        clock = time.perf_counter

        def pmap(work, items, jobs):
            from ftop._parallel import default_jobs

            seq = list(items)
            parent = os.getpid()

            def item(x):
                inline = os.getpid() == parent
                snap = None if inline else tracer._snapshot()
                start = clock()
                result = work(x)
                took = clock() - start
                return result, took, None if inline else tracer._delta(snap)

            tracer.calls["parallel.pmap"] += 1
            start = clock()
            out = fn(item, seq, jobs)
            wall = clock() - start
            tracer.secs["parallel.pmap"] += wall
            forked = False
            busy = 0.0
            for _, took, delta in out:
                busy += took
                if delta is not None:
                    forked = True
                    tracer._merge(delta)
            extra = tracer.extra
            extra["parallel.pmap.items"] += len(seq)
            extra["parallel.worker_busy_s"] += busy
            procs = min(default_jobs() if jobs is None else jobs, len(seq)) if forked else 1
            extra["parallel.proc_s"] += procs * wall
            extra["parallel.pmap.forked_calls"] += forked
            return [result for result, _, _ in out]

        pmap.__wrapped__ = fn
        return pmap

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap the layers' functions and rebind every name that refers to them."""
        import ftop  # noqa: F401  (loads every layer)
        import ftop.cli  # noqa: F401

        mods = {name: mod for name, mod in sys.modules.items()
                if name == "ftop" or name.startswith("ftop.")}
        swap: dict[int, object] = {}

        def fn(mod, attr):
            return getattr(mods[mod], attr)

        for name, (mod, attr) in TIMED.items():
            outcome = {"solve.first_solution": "solve.first_solution.found",
                       "lifting.lifts_bool": "lifting.lifts_bool.true"}.get(name)
            orig = fn(mod, attr)
            swap[id(orig)] = self._timed(orig, name, outcome)
        for name, members in TIMED_GROUPS.items():
            for mod, attr in members:
                orig = fn(mod, attr)
                swap[id(orig)] = self._timed(orig, name)
        for name, (mod, attr) in COUNTED.items():
            orig = fn(mod, attr)
            swap[id(orig)] = self._counted(orig, name)
        for attr, key, saves in (("_load_cache", "universe.cache_bytes_read", False),
                                 ("_save_cache", "universe.cache_bytes_written", True)):
            orig = fn("ftop.universe", attr)
            swap[id(orig)] = self._cache_io(swap[id(orig)], key, saves)
        orig = fn("ftop._parallel", "pmap")
        swap[id(orig)] = self._pmap(orig)
        depth = [0]
        props = mods["ftop.properties"]
        for attr, orig in vars(props).items():
            if (inspect.isfunction(orig) and not attr.startswith("_")
                    and orig.__module__ == props.__name__):
                swap[id(orig)] = self._layer(orig, "properties", depth)

        # the wrappers keep every original alive, so its id stays unique
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in swap and (mod.__name__, attr) not in KEEP:
                    setattr(mod, attr, swap[id(value)])
                elif isinstance(value, tuple):  # tables of (name, predicate, ...) rows
                    rows = tuple(
                        tuple(swap.get(id(x), x) for x in row) if isinstance(row, tuple) else row
                        for row in value
                    )
                    if rows != value:
                        setattr(mod, attr, rows)
        for name, (mod, cls, attr) in TIMED_METHODS.items():
            klass = getattr(mods[mod], cls)
            setattr(klass, attr, self._timed(getattr(klass, attr), name))
        suites = mods["ftop.verify"]._SUITES
        for name in SUITES:
            suites[name] = self._timed(suites[name], f"verify.suite.{name}")

    # -- report -----------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """The traced figures under their per-layer names (wall and
        unattributed time are filled in by the caller)."""
        calls, secs, extra = self.calls, self.secs, self.extra
        out: dict[str, float] = {}
        for name in list(TIMED) + list(TIMED_GROUPS) + list(TIMED_METHODS):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = secs[name]
        out["solve.enum_hom.calls"] = calls["solve.enum_hom"]
        out["lifting.squares"] = calls["lifting.squares"]
        out["solve.first_solution.found_ratio"] = _ratio(
            extra["solve.first_solution.found"], calls["solve.first_solution"])
        out["lifting.lifts_bool.true_ratio"] = _ratio(
            extra["lifting.lifts_bool.true"], calls["lifting.lifts_bool"])
        out["universe.cache_bytes_read"] = extra["universe.cache_bytes_read"]
        out["universe.cache_bytes_written"] = extra["universe.cache_bytes_written"]
        out["parallel.pmap.calls"] = calls["parallel.pmap"]
        out["parallel.pmap.s"] = secs["parallel.pmap"]
        for key in ("parallel.pmap.forked_calls", "parallel.pmap.items", "parallel.worker_busy_s"):
            out[key] = extra[key]
        out["parallel.efficiency"] = _ratio(extra["parallel.worker_busy_s"], extra["parallel.proc_s"])
        out["properties.calls"] = calls["properties"]
        out["properties.s"] = secs["properties"]
        for name in SUITES:
            out[f"verify.suite.{name}.s"] = secs[f"verify.suite.{name}"]
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
