"""Properties of the source tree itself."""
import ast
import inspect
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


def test_no_permutation_scan_in_the_package():
    # canonical forms come from universe._scan's branch and bound; trying
    # every relabeling is the oracle's job, in tests/
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Attribute) and node.attr == "permutations")
        or (isinstance(node, ast.alias) and node.name == "permutations")
    ]
    assert found == []


def test_space_catalog_is_built_from_rows():
    # posets come from one-point extension, so no transitivity filter runs,
    # and spaces are keyed from expanded rows, so no throwaway space is built
    tree = ast.parse((SRC / "universe.py").read_text())
    imported = [a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for a in node.names]
    calls = [
        (fn.name, ast.unparse(node.func))
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and fn.name in ("_posets", "_spaces_of_size")
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[0] == "Space"
    ]
    assert "_close" not in imported and calls == []


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


def test_pmap_is_called_only_by_the_lifting_step_and_the_suite_runner():
    # every sweep is rows of lifting._step, and verify --suite all forks by
    # suite instead, so the pool has two callers, and each hands over a
    # partial of a module-level function, not a closure
    calls = [
        (path.name, getattr(top, "name", None), ast.unparse(node.args[0]))
        for path in sorted(SRC.glob("*.py"))
        for top in ast.parse(path.read_text(), filename=str(path)).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "pmap"
    ]
    assert calls == [("lifting.py", "_step", "partial(_keep, u, rows)"),
                     ("verify.py", "run_suite", "partial(_run_item, n)")]


def test_lifting_keeps_no_step_state_in_module_globals():
    # a step's tables live in a dict each _keep call owns and drops, so the
    # only module-level container of lifting.py is the decision counter
    from ftop import lifting

    found = {name for name, value in vars(lifting).items()
             if isinstance(value, (dict, list, set)) and not name.startswith("__")}
    assert found == {"DECISIONS"}


def test_only_parallel_forks_and_nothing_imports_multiprocessing():
    # pmap forks its own workers, so the package needs no multiprocessing
    imports, forks = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imports += [(path.name, a.name) for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                imports.append((path.name, node.module))
            elif isinstance(node, ast.Call) and ast.unparse(node.func) == "os.fork":
                forks.append(path.name)
    assert [i for i in imports if (i[1] or "").split(".")[0] == "multiprocessing"] == []
    assert forks == ["_parallel.py"]


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


def test_lifts_share_one_square_walk():
    # lifts and lifts_bool walk the squares in _walk, which fills the squares
    # of _squares, the one enumeration, through _fill_tuple and reads no memo
    # itself; the least filler along a linear extension is searched only by
    # first_solution
    calls, first = {}, []
    for path in (SRC / "lifting.py", SRC / "_solve.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                calls.setdefault(fn.name, set()).add(ast.unparse(node.func))
                if (ast.unparse(node.func) == "next" and isinstance(node.args[0], ast.Call)
                        and ast.unparse(node.args[0].func) == "_search"
                        and "linear_extension" in ast.unparse(node.args[0].args[3])):
                    first.append(fn.name)
    for name in ("lifts", "lifts_bool"):
        assert "_walk" in calls[name]
        assert not calls[name] & {"_squares", "_fill_tuple", "_search", "first_solution"}
    assert {"_squares", "_fill_tuple"} <= calls["_walk"]
    assert not calls["_walk"] & {"_search", "_table", "_recorded", "first_solution"}
    assert first == ["first_solution"]


def test_one_factorization_path():
    # ftop factor takes its witness from the composite enumeration that the
    # factorization claim counts; the middle-by-middle search is a test oracle,
    # and one helper pins candidate masks
    defs, calls = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.FunctionDef):
                defs.add(node.name)
                if node.name == "factor_search":
                    calls = {ast.unparse(c.func) for c in ast.walk(node) if isinstance(c, ast.Call)}
    assert not defs & {"bounded_factor", "_pins"} and "factoring_maps" in calls


def test_star_import_binds_every_exported_name():
    ns: dict = {}
    exec("from ftop import *", ns)
    assert set(ftop.__all__) <= set(ns) and "__version__" in ftop.__all__
    assert not [name for name in ftop.__all__ if inspect.ismodule(ns[name])]


def test_only_keep_decides_left_rows():
    # the row kernels read tables prepared for one _step, so the sweep is
    # their one user in the package; the per-map callers live in the tests
    kernels = ("_left_kernel", "_left_decide", "_right_kernel", "_right_decide")
    uses = sorted(
        (path.name, getattr(top, "name", None), node.id)
        for path in sorted(SRC.glob("*.py"))
        for top in ast.parse(path.read_text(), filename=str(path)).body
        if not (isinstance(top, ast.FunctionDef) and top.name in kernels)
        for node in ast.walk(top)
        if isinstance(node, ast.Name) and node.id in kernels
    )
    assert uses == sorted(("lifting.py", "_keep", name) for name in kernels)


def test_every_private_definition_is_used_in_the_package():
    # a private function, method or class that only the tests call is a
    # test helper, and belongs in tests/
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    refs = [(name, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
            for name, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    unused = sorted(
        f"{name}:{d.name}"
        for name, tree in trees.items() for d in ast.walk(tree)
        if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and d.name.startswith("_") and not d.name.startswith("__")
        and not any(used == d.name and not (where == name and d.lineno <= line <= d.end_lineno)
                    for where, line, used in refs))
    assert unused == []


# installs the benchmark's layer tracer, then counts a few small calls
_TRACE = """
import json
from layers import Tracer
tracer = Tracer()
tracer.install()
import ftop.lifting as lifting
from ftop.registry import EMPTY_TO_POINT, M_TO_LAMBDA, OPEN_POINT_INCL
from ftop.universe import get_universe
cert = lifting.lifts(OPEN_POINT_INCL, M_TO_LAMBDA)
cert.recheck()
get_universe(2)
sq, = lifting.squares(EMPTY_TO_POINT, EMPTY_TO_POINT)
point = EMPTY_TO_POINT.dst
snaps = [tracer.metrics()]
# one square each, filled through the traced per-square names
for _ in range(2):
    lifting.lifts_bool(EMPTY_TO_POINT, EMPTY_TO_POINT)
snaps.append(tracer.metrics())
# one direct call each; fill's filler search goes through first_solution
lifting.first_solution(point, point, [1])
list(lifting.enum_hom(point, point))
lifting.fill(sq)
snaps.append(tracer.metrics())
print(json.dumps(snaps))
"""


def test_benchmark_tracer_binds_to_the_package(tmp_path):
    # the tracer binds private names (_fill_tuple, _load_cache, _SUITES, ...);
    # renaming one must fail here, not first in a traced benchmark run
    env = dict(os.environ, PYTHONPATH=f"{SRC.parent}{os.pathsep}{PERFBENCH}",
               FTOP_CACHE_DIR=str(tmp_path))
    out = subprocess.run([sys.executable, "-c", _TRACE], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    before, swept, metrics = json.loads(out.stdout.splitlines()[-1])

    def delta(name, start, end):
        return end[name] - start[name]

    # each lifts_bool fills its one square through _fill_tuple and
    # first_solution; _squares takes its phis from enum_hom, once per call,
    # and reads the enumeration memo of (A, Y) for the f
    assert delta("lifting.lifts_bool.calls", before, swept) == 2
    assert delta("lifting.squares", before, swept) == 2
    assert delta("solve.first_solution.calls", before, swept) == 2
    assert delta("solve.enum_hom.calls", before, swept) == 2
    # the direct calls: first_solution once, and once more under fill
    assert delta("solve.first_solution.calls", swept, metrics) == 2
    assert delta("solve.enum_hom.calls", swept, metrics) == 1
    assert delta("lifting.squares", swept, metrics) == 1
    assert metrics["lifting.lifts.calls"] == 1
    assert metrics["lifting.recheck.calls"] == 1
    assert metrics["universe.cache_save.calls"] > 0
    assert metrics["universe.cache_bytes_written"] > 0


# the traced calls of each suite and the traced deltas of one run of every
# suite at n=2; the catalogs are loaded first, as the benchmark loads them,
# so no worker loads one again
_SUITE_TRACE = """
import json, sys
from layers import SUITES, Tracer
tracer = Tracer()
tracer.install()
from ftop.universe import get_universe
from ftop.verify import run_suite
get_universe(2)
before = tracer.metrics()
run_suite("all", n=2, jobs=int(sys.argv[1]))
after = tracer.metrics()
print(json.dumps([{name: tracer.calls[f"verify.suite.{name}"] for name in SUITES},
                  {name: after[name] - before[name] for name in after}]))
"""


def test_traced_suites_run_once_with_the_same_counts_at_any_jobs():
    # forked by suite, each traced suite runs once, in a worker that ships
    # its counts back, so every count the benchmark's traced runs compare
    # reads as inline; only the pool's own figures may differ
    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    counts = [m["name"] for m in spec["per_layer"]
              if m["unit"] in ("count", "B") and not m["name"].startswith("parallel.")]
    env = dict(os.environ, PYTHONPATH=f"{SRC.parent}{os.pathsep}{PERFBENCH}")
    runs = []
    for jobs in (1, 2):  # a fresh process each, so no word memo is warm
        out = subprocess.run([sys.executable, "-c", _SUITE_TRACE, str(jobs)], env=env,
                             capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        runs.append(json.loads(out.stdout.splitlines()[-1]))
    (calls, serial), (pooled_calls, pooled) = runs
    assert calls == pooled_calls == {name: 1 for name in calls} and len(calls) == 10
    assert serial["parallel.pmap.forked_calls"] == 0 and pooled["parallel.pmap.forked_calls"] == 1
    assert {k: serial[k] for k in counts} == {k: pooled[k] for k in counts}
    assert serial["lifting.relative_orthogonal.calls"] > 0


# the lifting decisions of one word's steps, with a fresh base at each jobs value
_STEP_TRACE = """
import json
from layers import Tracer
tracer = Tracer()
tracer.install()
from ftop import lifting
from ftop.parser import parse_map
from ftop.universe import get_universe
lifting.POOL_MIN_WORK = 0  # the n=3 steps fork at jobs=2, as larger ones do
get_universe(3)
runs = []
for jobs in (1, 2, 3):
    before, made = tracer.metrics(), dict(lifting.DECISIONS)
    cls = lifting.relative_orthogonal([parse_map("{}-->{o}")], "rll", 3, jobs=jobs)
    after = tracer.metrics()
    runs.append([list(cls.indices)]
                + [lifting.DECISIONS[k] - made.get(k, 0) for k in ("l", "r")]
                + [after[k] - before[k] for k in ("lifting.squares", "parallel.pmap.forked_calls")])
print(json.dumps(runs))
"""


def test_word_step_counts_do_not_depend_on_jobs():
    env = dict(os.environ, PYTHONPATH=f"{SRC.parent}{os.pathsep}{PERFBENCH}")
    out = subprocess.run([sys.executable, "-c", _STEP_TRACE], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    (idx, *made, squares, forked), *pooled = json.loads(out.stdout.splitlines()[-1])
    assert forked == 0 and all(run[-1] > 0 for run in pooled)  # two and three shares forked
    assert all(run[:-1] == [idx, *made, squares] for run in pooled)
    assert len(idx) == 514 and min(made) > 0  # both letters decided


def test_parser_has_one_tokenizer_and_no_parser_objects():
    # one pattern serves the parse and the error offsets, and the parse is
    # one pass of functions over a token list, with no parser state objects
    tree = ast.parse((SRC / "parser.py").read_text())
    compiles = [node for node in ast.walk(tree)
                if isinstance(node, ast.Call) and ast.unparse(node.func) == "re.compile"]
    classes = [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    assert len(compiles) == 1 and classes == []


def test_solver_memos_are_the_enumerations_and_the_word_classes():
    # a memo on a space pair is kept only where a test says what it holds and
    # that it dies with its spaces; a new one must add its name here
    names = {
        ast.unparse(node.args[2])
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "_table"
    }
    assert names and names <= {"'enum'", "'words'"}


def test_renderer_builds_no_space():
    # the renderer labels the given spaces' points by index, and builds no
    # renamed copy of a space to print other names
    tree = ast.parse((SRC / "parser.py").read_text())
    calls = [
        (fn.name, ast.unparse(node.func))
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_render_")
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
    ]
    assert {name for name, _ in calls} == {"_render_space_text", "_render_map_text"}
    assert not [c for c in calls if c[1] in ("Space", "Space.from_arrows")]


# imports the package and the CLI, then decides one lifting question, one
# serial word step, which passes through pmap, and one forked word step
_SERIAL = """
import sys
import ftop, ftop.cli
from ftop import lifting
from ftop.lifting import lifts, relative_orthogonal
lifting.POOL_MIN_WORK = 0  # the n=3 step forks at jobs=2, as larger ones do
from ftop.parser import parse_map
from ftop.registry import M_TO_LAMBDA, OPEN_POINT_INCL
lifts(OPEN_POINT_INCL, M_TO_LAMBDA)
relative_orthogonal([parse_map("{}-->{o}")], "r", 2, jobs=1)
relative_orthogonal([parse_map("{}-->{o}")], "r", 3, jobs=2)
print(sorted(m for m in sys.modules if m.split(".")[0] == "multiprocessing"))
"""


def test_a_serial_run_does_not_import_multiprocessing(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC.parent), FTOP_CACHE_DIR=str(tmp_path))
    out = subprocess.run([sys.executable, "-c", _SERIAL], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]"
