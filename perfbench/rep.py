"""One repetition of a benchmark workload, in a fresh process.

    python3 perfbench/rep.py <mode> <workload> <out.json> [--trace]

Modes: ``prepare`` builds the warm cache a workload loads, ``setup`` only
imports ftop and loads its caches, ``run`` sets up and then runs one timed
repetition.  ``run.py`` starts this script with ``PYTHONPATH`` pointing at
the checkout's ``src`` and ``FTOP_CACHE_DIR`` at a directory the benchmark
owns.  Results go to ``out.json``; answers are recorded for ``run.py`` to
check after timing.  A ``queries`` run reads its stream of DSL strings,
written by ``run.py``, from ``stream.json`` next to ``out.json``.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import time

WORDS = ("r", "rl", "rll", "rllr", "rr", "lrrrl")  # the lemma 2.1 ladder
ORTH_BASE = "{}-->{o}"
JOBS = 2


def _cpu() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Peak resident set of this process or its largest pool worker.  This
    process's own peak is VmHWM: on Linux its ``ru_maxrss`` also counts the
    memory of the parent it was forked from before it ran this script."""
    kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    try:
        with open("/proc/self/status") as fh:
            own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return max(kb, own) / 1024


def _load(workload: str) -> None:
    """Catalog and cache loads that precede the first timed operation."""
    from ftop.lifting import lifting_matrix
    from ftop.universe import enumerate_spaces, get_universe

    if workload == "verify":
        enumerate_spaces(5)
        get_universe(3)
        get_universe(4)
        lifting_matrix(3, jobs=JOBS)  # computed only when preparing; loaded after
    elif workload == "queries":
        get_universe(4)


def cold_build() -> list:
    """Build the catalogs, then the lemma 2.1 classes with ``ftop orth``;
    one answer per build step."""
    import ftop.cli
    from ftop.universe import enumerate_spaces, get_universe

    spaces = enumerate_spaces(5)
    answers = [[sum(len(s.points) == m for s in spaces) for m in range(6)]]
    answers.append(len(get_universe(3)))
    answers.append(len(get_universe(4)))
    for word in WORDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            ftop.cli.main(["orth", "-P", ORTH_BASE, "-w", word, "-n", "3", "--jobs", str(JOBS)])
        answers.append(sum(not line.startswith("#") for line in out.getvalue().splitlines()))
    return answers


def verify() -> tuple:
    import ftop.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = ftop.cli.main(["verify", "--format", "json", "--jobs", str(JOBS)])
    return code, out.getvalue()


def answer_queries(stream: list) -> tuple[list, list]:
    """Answer each query in turn (closed loop, one client)."""
    from ftop.lifting import lifts
    from ftop.parser import parse_map
    from ftop.universe import get_universe

    u = get_universe(4)
    clock = time.perf_counter
    answers, took = [], []
    for q in stream:
        start = clock()
        if q[0] == "lift":
            cert = lifts(parse_map(q[1]), parse_map(q[2]))
            blob = cert.to_json()
            ok = cert.recheck()
            ans = {"holds": cert.holds, "recheck": ok, "counterexample": blob["counterexample"]}
        else:
            ans = u.index_of_map(parse_map(q[1]))
        took.append(clock() - start)
        answers.append(ans)
    return answers, took


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["prepare", "setup", "run"])
    ap.add_argument("workload", choices=["verify", "cold-build", "queries"])
    ap.add_argument("out")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    work = os.path.dirname(args.out)
    result: dict = {}

    if args.mode == "prepare":  # fills the warm cache
        _load(args.workload)
        with open(args.out, "w") as fh:
            json.dump(result, fh)
        return 0

    stream = None
    if args.workload == "queries" and args.mode == "run":
        with open(os.path.join(work, "stream.json")) as fh:
            stream = json.load(fh)
    start = time.perf_counter()
    import ftop  # noqa: F401
    import ftop.cli  # noqa: F401

    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    _load(args.workload)
    result["setup_s"] = time.perf_counter() - start
    if args.mode == "run":
        cpu0, start = _cpu(), time.perf_counter()
        if args.workload == "verify":
            answers = verify()
        elif args.workload == "cold-build":
            answers = cold_build()
        else:
            answers, result["took"] = answer_queries(stream)
        result["wall_s"] = time.perf_counter() - start
        result["cpu_s"] = _cpu() - cpu0
        result["peak_rss_mb"] = _peak_rss_mb()
        result["answers"] = answers
        if tracer is not None:
            layers = tracer.metrics()
            layers["trace.wall_s"] = result["wall_s"]
            layers["verify.unattributed_s"] = 0.0
            if args.workload == "verify":
                claims = json.loads(answers[1])["claims"]
                layers["verify.unattributed_s"] = (
                    layers["verify.run_suite.s"] - sum(c["runtime"] for c in claims))
            result["layers"] = layers
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
