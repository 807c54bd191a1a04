"""The package keeps only what a run executes.

A top-level function or class, or a method, of ``src/elastica`` that
nothing in the package references is code no run executes: a test oracle
belongs in tests/oracles.py, where it cannot change together with the code
it checks.  A name counts as referenced when some module of the package
reads it as a name, an attribute or an imported name.  Allowed besides:
dunders, the public names of ``elastica.__all__``, and every name the
benchmark under perfbench/ references, which it imports or patches by name
(also as a string).

A name scan cannot see a method whose name another definition shares, so
a second check profiles one run of every CLI job on tiny inputs and lists
the functions and methods it never enters.  A third keeps the solvers free
of options the package never sets: some call in ``src/elastica`` passes
each of their keyword parameters.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import elastica

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "elastica"
PERFBENCH = ROOT / "perfbench"


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def definitions(tree):
    """(qualname, line) of every top-level function and class and of every
    method of a top-level class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs):
                    yield f"{node.name}.{item.name}", item.lineno


def references(tree, strings=False):
    """Every name ``tree`` reads: names, attributes and imported names,
    and with ``strings`` every string constant that is an identifier."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif strings and isinstance(node, ast.Constant) \
                and isinstance(node.value, str) and node.value.isidentifier():
            names.add(node.value)
    return names


def unreferenced():
    """``module:line qualname`` of every definition nothing references."""
    trees = {path.name: parse(path) for path in sorted(SRC.glob("*.py"))}
    used = set(elastica.__all__)
    for tree in trees.values():
        used |= references(tree)
    for path in sorted(PERFBENCH.glob("*.py")):
        used |= references(parse(path), strings=True)
    unused = []
    for module, tree in trees.items():
        for qualname, line in definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            if name not in used \
                    and not (name.startswith("__") and name.endswith("__")):
                unused.append(f"{module}:{line} {qualname}")
    return unused


def test_every_definition_is_referenced():
    unused = unreferenced()
    assert not unused, "referenced by nothing in src:\n" + "\n".join(unused)


def test_the_scan_sees_every_kind_of_definition():
    tree = ast.parse("class A:\n    def used(self): pass\n"
                     "    def unused(self): pass\n"
                     "def f(): pass\n"
                     "def g(): return A().used()\n")
    assert sorted(definitions(tree)) == [("A", 1), ("A.unused", 3),
                                         ("A.used", 2), ("f", 4), ("g", 5)]
    assert {"A", "used"} <= references(tree)
    assert not {"f", "g", "unused"} & references(tree)
    assert "f" in references(ast.parse("x = 'f'"), strings=True)
    assert "f" not in references(ast.parse("x = 'f'"))


#: functions whose every keyword parameter some call in src passes
SETTABLE = ("smallest_eigenpairs", "banded_smallest", "solve_cap")


def unset_keywords(trees, names):
    """``function.parameter`` of every parameter with a default, of a
    top-level function in ``names``, that no call in ``trees`` passes,
    by keyword or by position."""
    params = {node.name: node.args for tree in trees
              for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name in names}
    passed = {name: set() for name in params}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                getattr(func, "attr", None)
            if name in params:
                order = [a.arg for a in params[name].args]
                passed[name] |= set(order[:len(node.args)])
                passed[name] |= {kw.arg for kw in node.keywords}
    unset = [f"{name} not found" for name in names if name not in params]
    for name, args in params.items():
        defaults = [a.arg for a in args.args[len(args.args)
                                             - len(args.defaults):]]
        defaults += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                     if d is not None]
        unset += [f"{name}.{arg}" for arg in defaults
                  if arg not in passed[name]]
    return unset


def test_every_solver_keyword_is_set_somewhere():
    trees = [parse(path) for path in sorted(SRC.glob("*.py"))]
    unset = unset_keywords(trees, SETTABLE)
    assert not unset, "keyword parameters no src call passes:\n" + \
        "\n".join(unset)


def test_the_keyword_scan_sees_unset_options():
    tree = ast.parse("def f(a, b=1, *, c=2): pass\n"
                     "def g(a, b=1): pass\n"
                     "f(0, 1)\nx.g(0, b=2)\n")
    assert unset_keywords([tree], ("f", "g")) == ["f.c"]
    assert unset_keywords([tree], ("f", "h")) == ["h not found", "f.c"]


#: src definitions that no job of PROFILED_JOBS enters, as module.qualname
#: (a class counts as entered when its body runs, at import)
NEVER_ENTERED = {
    # failure-only: an unconverged solve, a banded factorisation breakdown
    "eigensolve.ConvergenceError.__init__",
    "eigensolve.FactorizationError.__init__",
    "eigensolve._first_bad_pivot",
    # benchmark-only: perfbench calls or patches them
    "sparse.BandedSymMatrix.from_dense",
    "sparse.SparseSymMatrix.nnz",
    "assembly.reference_spectrum_alpha0",
    # tests-only: LOBPCG on nodal CSR pencils in tests/test_eigensolve.py
    "sparse.SparseSymMatrix.matvec",
}
#: one run of every CLI job; domain.edges is set so that parse_floats runs
PROFILED_JOBS = [
    ["solve", "--config", "run.cfg", "--output", "s.spec",
     "--dump-matrices", "mats"],
    ["verify", "--set", "domain.edges=pi,2", "--set", "mesh.cells=6,6",
     "--set", "solver.m=5", "--set", "verify.k_max=4", "--set",
     "domain.alpha=2", "--output", "richardson.json"],
    ["verify", "--set", "verify.policy=fixed", "--set", "mesh.cells=6,6",
     "--set", "solver.m=5", "--set", "verify.k_max=4", "--output",
     "fixed.json"],
    ["verify", "--set", "spectrum.path=s.spec", "--set", "verify.k_max=4",
     "--output", "file.json"],
    ["cap", "--set", "cap.theta0=pi/2", "--set", "cap.cells=16", "--set",
     "cap.mode_max=1", "--output", "hemisphere.json"],
    ["cap", "--set", "cap.theta0=2.2", "--set", "cap.cells=16", "--set",
     "cap.mode_max=1", "--output", "wide.json"],
    ["report", "richardson.json", "fixed.json", "file.json",
     "hemisphere.json", "wide.json", "--csv", "all.csv", "--table",
     "all.txt", "--svg-dir", "plots"],
]
#: runs the jobs of argv[1] and writes their exit codes and the
#: module.qualname of every src code object entered to argv[2]; the hook
#: goes in before the import, as RunConfig's field helper runs at import
PROFILE = """
import json, os, sys
entered = set()
def hook(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)
sys.setprofile(hook)
from elastica import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
sys.setprofile(None)
src = os.path.dirname(cli.__file__)
names = {os.path.basename(c.co_filename)[:-3] + "." + c.co_qualname
         for c in entered if os.path.dirname(c.co_filename) == src}
with open(sys.argv[2], "w") as fh:
    json.dump({"codes": codes, "entered": sorted(names)}, fh)
"""


def test_every_function_but_the_listed_runs(tmp_path):
    (tmp_path / "run.cfg").write_text(
        "mesh.cells = 6, 6\nsolver.m = 5\ndomain.alpha = 2\n")
    out = tmp_path / "profile.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", PROFILE, json.dumps(PROFILED_JOBS), str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    profile = json.loads(out.read_text())
    assert 1 not in profile["codes"], proc.stderr
    defined = {f"{path.stem}.{qualname}" for path in sorted(SRC.glob("*.py"))
               for qualname, _ in definitions(parse(path))}
    assert defined - set(profile["entered"]) == NEVER_ENTERED
