"""ftop benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload verify|cold-build|queries \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every repetition runs in a fresh process
(``rep.py``) against caches the benchmark owns under ``.bench_work/``, so
in-process memos and the user's ``~/.cache/ftop`` never leak in.  Answers are
checked after timing.  The last line of stdout is the result as JSON; the
line before it holds the details (environment, per-repetition figures, the
query mix and query latencies).  See README.md in this directory.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import queries

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = ".bench_work"
DEADLINE_S = 170  # a run must end within 180 s
SETUP_PROBES = 5  # extra set-up-only processes, for a steadier setup_s

# what a cold build must produce, step by step: spaces per size 0..5, the
# 3- and 4-point map universes, then the six lemma 2.1 classes at n=3
COLD_BUILD = [[1, 1, 3, 9, 33, 139], 661, 25586, 101, 22, 514, 34, 67, 44]


class Runner:
    def __init__(self, root: str):
        self.root = root
        self.work = os.path.join(root, WORK)
        self.deadline = time.monotonic() + DEADLINE_S
        self.count = 0

    def rep(self, mode: str, workload: str, cache: str, *extra: str) -> dict | None:
        """Run rep.py once; its result, or None if it failed or ran out of time."""
        self.count += 1
        out = os.path.join(self.work, f"rep{self.count}.json")
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"),
                   FTOP_CACHE_DIR=cache, PYTHONHASHSEED="0", TMPDIR=self.work)
        cmd = [sys.executable, os.path.join(HERE, "rep.py"), mode, workload, out, *extra]
        proc = subprocess.Popen(cmd, env=env, cwd=self.root, stdout=subprocess.DEVNULL,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            print(f"{mode} {workload}: out of time", file=sys.stderr)
            return None
        finally:  # also when this process is interrupted or terminated
            if proc.returncode is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if code != 0:
            print(f"{mode} {workload}: exit code {code}", file=sys.stderr)
            return None
        with open(out) as fh:
            return json.load(fh)

    def fresh_dir(self, name: str) -> str:
        path = os.path.join(self.work, name)
        os.makedirs(path)
        return path


def _pct(values, q):
    """The q-th percentile (nearest rank) of ``values`` in milliseconds."""
    s = sorted(values)
    return 1000 * s[max(0, round(q / 100 * len(s)) - 1)]


def check(workload: str, answers, expected) -> tuple[int, int]:
    """(ops, failed ops) of one repetition's answers."""
    if workload == "verify":
        code, text = answers
        want = expected["claims"]
        try:
            claims = json.loads(text)["claims"]
        except (ValueError, KeyError):
            return len(want), len(want)
        for c in claims:
            c.pop("runtime", None)
        bad = sum(a != b for a, b in zip(claims, want)) + abs(len(claims) - len(want))
        return len(want), max(bad, code != 0)
    if workload == "cold-build":
        return len(COLD_BUILD), sum(a != b for a, b in zip(answers, COLD_BUILD, strict=True))
    return len(answers), queries.failures(expected, answers)


def environment(root: str) -> dict:
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "ftop")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        rev = None
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_rev": rev, "src_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["verify", "cold-build", "queries"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))  # runs the clean-up above
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ftop", "__init__.py")):
        print("error: run from the root of an ftop checkout (no src/ftop here)", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    exact = [name for name, unit in per_layer.items() if unit in ("count", "B")]
    run = Runner(root)
    shutil.rmtree(run.work, ignore_errors=True)
    os.makedirs(run.work)
    wl = args.workload

    # warm caches are rebuilt from the code under test on every invocation:
    # cache files are keyed only by ftop's version string
    warm = run.fresh_dir("cache")
    expected = None
    if wl != "cold-build" and run.rep("prepare", wl, warm) is None:
        return 1
    if wl == "verify":
        with open(os.path.join(HERE, "expected_verify.json")) as fh:
            expected = json.load(fh)
    elif wl == "queries":
        expected = queries.generate(args.seed)
        with open(os.path.join(run.work, "stream.json"), "w") as fh:
            json.dump([[q["kind"], q["i"], q["g"]] if q["kind"] == "lift"
                       else [q["kind"], q["map"]] for q in expected], fh)

    def cache():  # a cold build starts from an empty cache every time
        return run.fresh_dir(f"cold{run.count}") if wl == "cold-build" else warm

    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            got = run.rep("setup", wl, warm)
            if got is None:
                return 1
            setups.append(got["setup_s"])

    reps, attempted, failed = [], 0, 0
    started = time.monotonic()
    least = 2 if args.trace else 1  # traced counts are compared between two runs
    while len(reps) < least or time.monotonic() - started < args.seconds:
        got = run.rep("run", wl, cache(), *(["--trace"] if args.trace else []))
        if got is None:
            return 1
        ops, bad = check(wl, got["answers"], expected)
        attempted += ops
        failed += bad
        if args.trace and reps:
            first = reps[0]["layers"]
            if any(got["layers"][k] != first[k] for k in exact):
                print("traced layer counts differ between repetitions", file=sys.stderr)
                failed += ops
        reps.append(got)

    median = statistics.median
    if args.trace:
        # counts repeat exactly (checked above); times are medians
        metrics = {name: {"value": reps[0]["layers"][name] if name in exact
                          else median([r["layers"][name] for r in reps]), "unit": unit}
                   for name, unit in per_layer.items()}
    else:
        setups += [r["setup_s"] for r in reps]
        values = {"setup_s": median(setups)}
        values.update({name: median([r[name] for r in reps]) for name in end_to_end if name != "setup_s"})
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in end_to_end.items()}
    detail = {"workload": wl, "seed": args.seed, "trace": args.trace, "reps": len(reps),
              "wall_s": [r["wall_s"] for r in reps], "setup_s": setups,
              "env": environment(root)}
    if wl == "queries":
        detail.update(query_detail(expected, reps))
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def query_detail(stream: list, reps: list) -> dict:
    """Query mix and per-kind latency over all repetitions."""
    kinds = {"lift": [], "lookup": []}
    for r in reps:
        for q, took in zip(stream, r["took"]):
            kinds[q["kind"]].append(took)
    sizes = [q["points"] for q in stream if q["kind"] == "lookup"]
    out = {"queries_per_rep": {k: len(v) // len(reps) for k, v in kinds.items()},
           "lookup_share_by_points": {str(p): sizes.count(p) / len(sizes)
                                      for p in sorted(set(sizes))},
           "qps": len(stream) / statistics.median([r["wall_s"] for r in reps])}
    for kind, took in kinds.items():
        out[f"{kind}_p50_ms"] = _pct(took, 50)
        out[f"{kind}_p99_ms"] = _pct(took, 99)
        out[f"{kind}_samples"] = len(took)
    return out


if __name__ == "__main__":
    raise SystemExit(main())
