"""Properties of the source tree itself."""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import ftop

SRC = Path(ftop.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_no_assert_statements_in_the_package():
    # `python -O` strips assert statements; an invariant check must raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_cache_files_are_read_and_written_only_through_artifact():
    # every cached artifact gets the same load check: no loader of its own
    calls = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if name in ("_load_cache", "_save_cache"):
                        calls.append((path.name, getattr(top, "name", None), name))
    assert sorted(calls) == [("universe.py", "_artifact", "_load_cache"),
                             ("universe.py", "_artifact", "_save_cache")]


def test_pmap_is_called_only_by_the_lifting_step():
    # every sweep is rows of lifting._step, so the pool has one caller, and
    # it hands over a partial of a module-level function, not a closure
    calls = [
        (path.name, getattr(top, "name", None), ast.unparse(node.args[0]))
        for path in sorted(SRC.glob("*.py"))
        for top in ast.parse(path.read_text(), filename=str(path)).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "pmap"
    ]
    assert calls == [("lifting.py", "_step", "partial(_keep, maps, rows)")]


def test_verify_steps_only_in_run_sweep():
    # every verify sweep is a _SWEEPS row, so the rows of one subject share
    # one _step and one pool
    uses = []
    for top in ast.parse((SRC / "verify.py").read_text()).body:
        for scope in top.body if isinstance(top, ast.ClassDef) else [top]:
            uses += [f"{getattr(top, 'name', None)}.{getattr(scope, 'name', None)}"
                     for node in ast.walk(scope)
                     if isinstance(node, ast.Name) and node.id == "_step"]
    assert uses == ["_Run.sweep"]


# installs the benchmark's layer tracer, then counts a few small calls
_TRACE = """
import json
from layers import Tracer
tracer = Tracer()
tracer.install()
from ftop.lifting import lifts
from ftop.registry import M_TO_LAMBDA, OPEN_POINT_INCL
from ftop.universe import get_universe
cert = lifts(OPEN_POINT_INCL, M_TO_LAMBDA)
cert.recheck()
get_universe(2)
from ftop.lifting import lifts_bool
from ftop.registry import EMPTY_TO_POINT
# one square each; the second call's filler comes from the memo
before = tracer.metrics()
for _ in range(2):
    lifts_bool(EMPTY_TO_POINT, EMPTY_TO_POINT)
print(json.dumps(before))
print(json.dumps(tracer.metrics()))
"""


def test_benchmark_tracer_binds_to_the_package(tmp_path):
    # the tracer binds private names (_fill_tuple, _load_cache, _SUITES, ...);
    # renaming one must fail here, not first in a traced benchmark run
    env = dict(os.environ, PYTHONPATH=f"{SRC.parent}{os.pathsep}{PERFBENCH}",
               FTOP_CACHE_DIR=str(tmp_path))
    out = subprocess.run([sys.executable, "-c", _TRACE], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    before, metrics = (json.loads(line) for line in out.stdout.splitlines()[-2:])
    # the filler memo sits inside the traced name: a search it answers counts
    name = "solve.first_solution.calls"
    assert metrics[name] - before[name] == 2
    # so does the enumeration memo: a stored enumeration counts as a call
    name = "solve.enum_hom.calls"
    assert metrics[name] - before[name] == 2
    assert metrics["lifting.lifts.calls"] == 1
    assert metrics["lifting.recheck.calls"] == 1
    assert metrics["lifting.squares"] > 0
    assert metrics["universe.cache_save.calls"] > 0
    assert metrics["universe.cache_bytes_written"] > 0


# the lifts_bool calls of one word step, with a fresh base at each jobs value
_STEP_TRACE = """
import json
from layers import Tracer
tracer = Tracer()
tracer.install()
from ftop.lifting import relative_orthogonal
from ftop.parser import parse_map
from ftop.universe import get_universe
get_universe(3)
runs = []
for jobs in (1, 2):
    before = tracer.metrics()
    cls = relative_orthogonal([parse_map("{}-->{o}")], "rll", 3, jobs=jobs)
    after = tracer.metrics()
    runs.append([list(cls.indices)] + [after[k] - before[k] for k in (
        "lifting.lifts_bool.calls", "lifting.squares", "parallel.pmap.forked_calls")])
print(json.dumps(runs))
"""


def test_word_step_counts_do_not_depend_on_jobs():
    env = dict(os.environ, PYTHONPATH=f"{SRC.parent}{os.pathsep}{PERFBENCH}")
    out = subprocess.run([sys.executable, "-c", _STEP_TRACE], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    (idx1, calls1, squares1, forked1), (idx2, calls2, squares2, forked2) = json.loads(
        out.stdout.splitlines()[-1])
    assert forked1 == 0 and forked2 > 0  # the second run really used a pool
    assert (idx1, calls1, squares1) == (idx2, calls2, squares2)
    assert len(idx1) == 514 and calls1 > 0


def test_parser_has_one_tokenizer_and_no_parser_objects():
    # one pattern serves the parse and the error offsets, and the parse is
    # one pass of functions over a token list, with no parser state objects
    tree = ast.parse((SRC / "parser.py").read_text())
    compiles = [node for node in ast.walk(tree)
                if isinstance(node, ast.Call) and ast.unparse(node.func) == "re.compile"]
    classes = [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    assert len(compiles) == 1 and classes == []


# imports the package and the CLI, then decides one lifting question and
# one serial word step, which passes through pmap
_SERIAL = """
import sys
import ftop, ftop.cli
from ftop.lifting import lifts, relative_orthogonal
from ftop.parser import parse_map
from ftop.registry import M_TO_LAMBDA, OPEN_POINT_INCL
lifts(OPEN_POINT_INCL, M_TO_LAMBDA)
relative_orthogonal([parse_map("{}-->{o}")], "r", 2, jobs=1)
print(sorted(m for m in sys.modules if m.split(".")[0] == "multiprocessing"))
"""


def test_a_serial_run_does_not_import_multiprocessing(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC.parent), FTOP_CACHE_DIR=str(tmp_path))
    out = subprocess.run([sys.executable, "-c", _SERIAL], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]"
