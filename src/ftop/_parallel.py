"""Order-preserving parallel map over fork-shared state.

Workers inherit the parent's memory via fork, so the callable is handed over
through a module global rather than pickled; items and results still cross
process boundaries and must be picklable.  With jobs <= 1 (or no fork support)
everything runs inline, and results are identical either way.
"""
from __future__ import annotations

import os
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

_WORK: Callable | None = None


def _run(item):
    return _WORK(item)


def default_jobs() -> int:
    return max(1, os.cpu_count() or 1)


def pmap(fn: Callable[[T], R], items: Iterable[T], jobs: int | None) -> list[R]:
    seq: Sequence[T] = list(items)
    if jobs is None:
        jobs = default_jobs()
    if jobs <= 1 or len(seq) < 2:
        return [fn(x) for x in seq]
    import multiprocessing as mp  # here, so that a serial run never imports it

    if "fork" not in mp.get_all_start_methods():
        return [fn(x) for x in seq]
    global _WORK
    _WORK = fn
    try:
        procs = min(jobs, len(seq))
        chunk = max(1, len(seq) // (procs * 4))
        with mp.get_context("fork").Pool(procs) as pool:
            return pool.map(_run, seq, chunksize=chunk)
    finally:
        _WORK = None
