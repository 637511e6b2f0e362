"""Every public function of liftzeta runs under the standard reports, or
is pinned here with its reason; and every imported name is read.

`liftzeta verify --q 3` and `liftzeta epsilon-table --q 3` run in process
under sys.setprofile, which records the code object of every Python
function called.  A public function is a module-level function, or a
method, classmethod, staticmethod or property of a class, defined in a
liftzeta module under a name with no leading underscore.  Its code is
taken with the decorator removed (classmethod.__func__, property.fget,
lru_cache's __wrapped__), which is the code the profiler sees.  Code
objects are matched, not line numbers: a decorated function's code
starts at its decorator line, not at its def.  The caches of the
library are emptied first, so that a cached function runs its body.

The public functions that never ran must be a subset of UNRUN, where
each has its reason: a reference that tests compare the library with, a
quantity of the paper that no report row reaches yet, a path that only
other inputs or the benchmark reach, or a name that no library code
calls but bench/tracing.py still wraps.

Every (module, attribute path) that bench/tracing.py wraps must resolve
in liftzeta, so that a rename shows here and not first in a traced
benchmark run, and must run under the same reports or be pinned in
UNRUN, dunders included, so that no traced metric reads zero because
the reports stopped calling its function.  TARGETS is read from the
file's syntax tree, since the tracer itself imports numpy.

Every name that a module of src/liftzeta or tests/ imports must be read
in that module, as a plain name or the root of an attribute chain.  Every
private function or method of src/liftzeta (a leading underscore, not a
dunder) must be read somewhere in src/liftzeta outside its own body, as a
plain name or an attribute.
"""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

import liftzeta
from builders import clear_caches
from liftzeta import cli

UNRUN = {
    # references the tests compare the library with
    "lift2d.LiftedFn.evaluate": "pointwise value of a lifted function",
    "schwartz.SBFunction.evaluate": "pointwise value, the key maps' oracle",
    "setring.DddSet.measure": "per-atom measure of tests/liftoracle.py",
    "setring.KCosetFamily.haar": "coset measure of tests/liftoracle.py",
    "lift2d.DistinguishedSetF.contains": "membership of tests/setoracle.py",
    # quantities of the paper that wait for a report row
    "lift2d.zeta_F1": "one-variable zeta integral on F",
    "lift2d.zeta_F1_regularized": "its principal-value variant",
    "lift2d.LiftedFn.lift": "the lift g^(a, gamma) the zeta_F1 tests build",
    "lift2d.LiftedFn.fourier": "Fourier transform on F",
    "schwartz.SBFunction.translate": "x -> g(x + tau); zeta_F1 calls it",
    # paths that only other inputs or the benchmark reach
    "setring.DddSet.intersection": "the lift2d-measure workload",
    "lift2d.DistinguishedFamily.join": "overlapping inners of one carve",
    "schwartz.SBFunction.twisted": "integrate of a term twisted at its "
                                   "level; no report input has a twist",
    "lift2d.LiftedFn.scale": "-f and f - g; no report negates a lift",
    # no library caller, kept while bench/tracing.py wraps it
    "zeta2d.epsilon2": "bench/tracing.py wraps it; FE2 takes one "
                       "epsilon_star per character",
}


def _code(member):
    if isinstance(member, (classmethod, staticmethod)):
        member = member.__func__
    elif isinstance(member, property):
        member = member.fget
    return getattr(inspect.unwrap(member), "__code__", None)


def _modules():
    return [importlib.import_module("liftzeta." + m) for m in liftzeta.__all__]


def public_functions():
    """code object -> "module.name" or "module.Class.name"."""
    out = {}
    for mod in _modules():
        short = mod.__name__.rsplit(".", 1)[1]
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(
                    inspect.unwrap(obj), "__module__", None) != mod.__name__:
                continue
            members = vars(obj).items() if isinstance(obj, type) else [
                (None, obj)]
            for attr, member in members:
                code = _code(member)
                if code is not None and not (attr or "").startswith("_"):
                    out[code] = ".".join(filter(None, (short, name, attr)))
    return out


def run_reports(out_dir):
    """The code objects called by verify and epsilon-table at q = 3."""
    clear_caches()
    seen = set()

    def record(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)
    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        codes = [cli.main([cmd, "--q", "3", "--out-dir", str(out_dir)])
                 for cmd in ("verify", "epsilon-table")]
    finally:
        sys.setprofile(previous)
    assert codes == [0, 0]
    return seen


@pytest.fixture(scope="module")
def seen(tmp_path_factory):
    return run_reports(tmp_path_factory.mktemp("reports"))


def test_public_functions_run_under_the_reports_or_are_pinned(seen):
    public = public_functions()
    unrun = {name for code, name in public.items() if code not in seen}
    assert unrun <= set(UNRUN), sorted(unrun - set(UNRUN))


def test_every_pin_names_a_public_function():
    assert set(UNRUN) <= set(public_functions().values())


def unread_imports(path):
    """The names path imports but never reads."""
    tree = ast.parse(path.read_text(), str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return imported - read


def test_every_imported_name_is_read():
    root = Path(__file__).resolve().parent.parent
    paths = sorted([*(root / "src" / "liftzeta").glob("*.py"),
                    *(root / "tests").glob("*.py")])
    unread = {str(p.relative_to(root)): sorted(unread_imports(p))
              for p in paths}
    assert not {p: names for p, names in unread.items() if names}


def unread_private_functions(paths):
    """The private functions and methods of paths that no code of paths
    reads outside their own bodies."""
    trees = [ast.parse(p.read_text(), str(p)) for p in paths]
    reads = [(node.id if isinstance(node, ast.Name) else node.attr, id(node))
             for tree in trees for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))
             and isinstance(node.ctx, ast.Load)]
    unread = set()
    for fn in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and fn.name.startswith("_") and not fn.name.endswith("__"):
            inside = set(map(id, ast.walk(fn)))
            if not any(name == fn.name and node not in inside
                       for name, node in reads):
                unread.add(fn.name)
    return unread


def test_every_private_function_is_read():
    root = Path(__file__).resolve().parent.parent
    paths = sorted((root / "src" / "liftzeta").glob("*.py"))
    assert not unread_private_functions(paths)


def tracer_targets():
    """TARGETS of bench/tracing.py, evaluated from its assignments to
    SUITES and TARGETS alone."""
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    tree = ast.parse(path.read_text(), str(path))
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) in ("SUITES", "TARGETS")
                for t in node.targets):
            exec(compile(ast.Module([node], []), str(path), "exec"), names)
    return names["TARGETS"]


def resolved_targets():
    """"module.path" -> the object TARGETS names there, or None."""
    out = {}
    for module, spans in tracer_targets().items():
        for path, _ in spans:
            obj = importlib.import_module("liftzeta." + module)
            for attr in path.split("."):
                obj = getattr(obj, attr, None)
            out["%s.%s" % (module, path)] = obj
    return out


def test_every_tracer_target_resolves():
    assert "verify_FE2" in dict(tracer_targets()["zeta2d"])
    missing = [name for name, obj in resolved_targets().items() if obj is None]
    assert not missing, missing


def test_every_tracer_target_runs_under_the_reports_or_is_pinned(seen):
    unrun = {name for name, obj in resolved_targets().items()
             if _code(obj) not in seen}
    assert unrun <= set(UNRUN), sorted(unrun - set(UNRUN))
