"""The public surface: the enumeration bound and the walk-depth cap are
module constants with no per-call override; the enumeration bound, the
degree bound and the explicit-oracle cap are each read by exactly one
function; InvalidAxisError is read only where an axis is built, and only
the inverse axis is built unchecked; every exported name resolves; no
module or test file imports a name it never uses, no module defines a
private name that no module reads, and no public name is read only by
the tests; and no two helper functions of the tests share a body."""

import ast
import importlib
import inspect
import pkgutil
from collections import Counter
from pathlib import Path

import treescale
from treescale.perm import PermGroup


def defined_callables():
    """Every function and method defined in a treescale module."""
    for info in pkgutil.iter_modules(treescale.__path__):
        module = importlib.import_module(f"treescale.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)
                    if inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_no_bound_or_depth_cap_parameter():
    found = list(defined_callables())
    assert len(found) > 100
    overrides = [name for name, fn in found
                 if {"bound", "depth_cap"} & set(inspect.signature(fn).parameters)]
    assert overrides == []


def bound_readers(sources: dict[str, str], names, count=None) -> dict[str, list[str]]:
    """For each of names, the module-level functions and the methods that
    read it, nested functions counted with the function around them; a
    function's reads are counted by ``count``, ``read_names`` if None."""
    readers = {name: [] for name in names}
    for module, source in sources.items():
        tree = ast.parse(source)
        functions = [(f"{module}.{node.name}", node) for node in tree.body
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                functions += [(f"{module}.{node.name}.{item.name}", item) for item in node.body
                              if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for qualified, node in functions:
            read = (count or read_names)(node)
            for name in names:
                if read[name]:
                    readers[name].append(qualified)
    return readers


def test_bound_reader_finder():
    sources = {"a": "B = 1\ndef f():\n    def g():\n        return B\n    return g\n"
                    "class C:\n    def m(self):\n        return a.B + B",
               "b": "from a import B\nX = B"}
    assert bound_readers(sources, ["B", "X"]) == {"B": ["a.f", "a.C.m"], "X": []}
    calls = {"a": "def f(x):\n    return x.m\ndef g(x):\n    return x.m()"}
    assert bound_readers(calls, ["m"], called_names) == {"m": ["a.g"]}


def test_each_bound_is_read_by_one_function():
    sources = {path.stem: path.read_text()
               for path in sorted(Path(treescale.__file__).parent.glob("*.py"))}
    assert bound_readers(sources, ["ENUMERATION_BOUND", "DEGREE_BOUND", "GROUP_CAP"]) == {
        "ENUMERATION_BOUND": ["perm.PermGroup.elements"],
        "DEGREE_BOUND": ["groupspec._parse_degree"],
        "GROUP_CAP": ["balloracle.exhaustive_applies"],
    }


def test_an_axis_is_checked_only_when_it_is_built():
    # AxisData refuses an invalid axis, so no consumer checks one again
    sources = {path.stem: path.read_text()
               for path in sorted(Path(treescale.__file__).parent.glob("*.py"))}
    assert bound_readers(sources, ["InvalidAxisError"]) == {
        "InvalidAxisError": ["bmtree.AxisData.__post_init__"]}


def called_names(tree: ast.AST) -> Counter:
    """How often each name is called, as ``name(...)`` or ``x.name(...)``."""
    return Counter(node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                   for node in ast.walk(tree) if isinstance(node, ast.Call)
                   and isinstance(node.func, (ast.Name, ast.Attribute)))


def test_only_the_inverse_axis_is_built_unchecked():
    # AxisData._derived skips every check, so it may build only an axis
    # that is valid by its derivation; PermGroup's memo dict shares the
    # name but is never called
    sources = {path.stem: path.read_text()
               for path in sorted(Path(treescale.__file__).parent.glob("*.py"))}
    assert bound_readers(sources, ["_derived"], called_names) == {
        "_derived": ["bmtree.inverse_axis"]}


def test_every_exported_name_resolves():
    assert len(treescale.__all__) == len(set(treescale.__all__)) > 20
    assert [name for name in treescale.__all__ if not hasattr(treescale, name)] == []


def test_benchmark_reads_chain_and_element_slots():
    # the benchmark's tracer reads both with getattr(g, name, True), so a
    # rename would silently zero its chain-build and enumeration counts
    assert {"_chain", "_elements"} <= set(PermGroup.__slots__)


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads and does not list in __all__."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_unused_import_finder():
    assert unused_imports("import os\nimport sys\nsys.exit()") == ["os"]
    assert unused_imports("from a import b as c, d\n__all__ = ['d']") == ["c"]
    assert unused_imports("from __future__ import annotations\nimport os.path\nos.sep") == []


def test_no_module_imports_an_unused_name():
    modules = sorted(Path(treescale.__file__).parent.glob("*.py"))
    tests = sorted(Path(__file__).parent.glob("*.py"))
    assert len(modules) >= 9 and len(tests) >= 12
    found = {f"{path.parent.name}/{path.name}": unused_imports(path.read_text())
             for path in modules + tests}
    assert {name: names for name, names in found.items() if names} == {}


def read_names(tree: ast.AST) -> Counter:
    """How often each name is read as a loaded name, an attribute or an
    import alias."""
    read = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read[node.id] += 1
        elif isinstance(node, ast.Attribute):
            read[node.attr] += 1
        elif isinstance(node, ast.alias):
            read[node.name] += 1
    return read


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level ``_name`` assignments, functions and classes that no
    module reads as a loaded name, an attribute or an import alias."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = sum(map(read_names, trees.values()), Counter())
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [f"{module}.{name}" for name in names
                       if name.startswith("_") and not name.endswith("__")
                       and name not in read]
    return unread


def test_unread_private_name_finder():
    assert unread_private_names({"a": "_X = 1\n_Y = 2\nprint(_Y)"}) == ["a._X"]
    assert unread_private_names({"a": "def _f(): pass\nclass _C: pass\n__all__ = []",
                                 "b": "from a import _f\nimport a\na._C"}) == []
    assert unread_private_names({"a": "_n: int = 0\ndef _g(): pass\nA = B = 1"}) == [
        "a._n", "a._g"]


def test_no_private_module_name_is_unread():
    sources = {path.stem: path.read_text()
               for path in sorted(Path(treescale.__file__).parent.glob("*.py"))}
    assert len(sources) >= 9
    assert unread_private_names(sources) == []


def unread_public_names(sources: dict[str, str], readers=(), exported=()) -> list[str]:
    """Public module-level functions and classes, and public methods, whose
    name no module reads outside its own definition, ``exported`` does not
    list and no ``readers`` source reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = sum(map(read_names, trees.values()), Counter())
    read.update(set(exported))
    for source in readers:
        read.update(read_names(ast.parse(source)))
    definitions = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((f"{module}.{node.name}", node))
            if isinstance(node, ast.ClassDef):
                definitions += [(f"{module}.{node.name}.{item.name}", item) for item in node.body
                                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [qualified for qualified, node in definitions
            if not node.name.startswith("_") and read[node.name] == read_names(node)[node.name]]


def test_unread_public_name_finder():
    assert unread_public_names({"a": "def f(): return f()\ndef g(): pass\ng()"}) == ["a.f"]
    assert unread_public_names({"a": "class C:\n    def m(self): pass\n    def _p(self): pass"}) \
        == ["a.C", "a.C.m"]
    assert unread_public_names({"a": "class C:\n    def m(self): pass"}, ["a.C().m()"]) == []
    assert unread_public_names({"a": "def f(): pass\ndef h(): pass"}, exported=["f"]) == ["a.h"]
    assert unread_public_names({"a": "def f(): pass", "b": "from a import f"}) == []


def test_no_public_name_is_read_only_by_tests():
    package = Path(treescale.__file__).parent
    sources = {path.stem: path.read_text() for path in sorted(package.glob("*.py"))}
    readers = [path.read_text()
               for path in sorted((package.parent.parent / "perfbench").glob("*.py"))]
    assert len(sources) >= 9 and len(readers) >= 5
    assert unread_public_names(sources, readers, treescale.__all__) == []
    # a test-only reference helper left in src/ is flagged
    sources["acceptance"] += "\n\ndef all_subgroups(g):\n    return {g}\n"
    assert unread_public_names(sources, readers, treescale.__all__) == [
        "acceptance.all_subgroups"]


def duplicate_helpers(sources: dict[str, str]) -> list[list[str]]:
    """The groups of module-level helpers (functions not named ``test_*``)
    with the same arguments, decorators and body once the docstring is
    stripped, compared by their AST dumps."""
    found: dict[str, list[str]] = {}
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    or node.name.startswith("test_")):
                continue
            body = node.body
            if ast.get_docstring(node) is not None:
                body = body[1:]
            key = "\n".join(map(ast.dump, [*node.decorator_list, node.args, *body]))
            found.setdefault(key, []).append(f"{module}.{node.name}")
    return [names for names in found.values() if len(names) > 1]


def test_duplicate_helper_finder():
    assert duplicate_helpers({"a": "def f(x):\n    \"\"\"One.\"\"\"\n    return x + 1",
                              "b": "def g(x):\n    \"\"\"Two.\"\"\"\n    return x + 1\n"
                                   "def h(y):\n    return y + 1"}) == [["a.f", "b.g"]]
    assert duplicate_helpers({"a": "def test_f():\n    pass\ndef test_g():\n    pass"}) == []
    assert duplicate_helpers({"a": "@d\ndef f():\n    pass\ndef g():\n    pass"}) == []


def test_no_test_helper_is_defined_twice():
    sources = {path.stem: path.read_text()
               for path in sorted(Path(__file__).parent.glob("*.py"))}
    assert len(sources) >= 10
    assert duplicate_helpers(sources) == []
