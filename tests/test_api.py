"""The public surface: the enumeration bound and the walk-depth cap are
module constants with no per-call override; the enumeration bound, the
degree bound, the explicit-oracle cap and the values-lattice bound are
each read by exactly one function; InvalidAxisError is read only where an axis is built, and only
the inverse axis is built unchecked; every exported name resolves; no
module or test file imports a name it never uses, no module defines a
private name that no module reads, no public name is read only by the
tests, and every definition of a public method name that two classes
share is called by the sylow and inclusion suites; no two helper
functions of the tests share a body; the ball
walk reads no orbital table and no bmtree name but AxisData; only the
itemgetter kernels of perm compose image tuples; no scan that stops at
its first witness lists the whole group first; and a group's sorted
cosets, its one ordered store, are kept only by ``PermGroup._scan``."""

import ast
import importlib
import inspect
import pkgutil
from collections import Counter
from pathlib import Path

import treescale
from treescale import acceptance
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


def module_functions(module: str, source: str) -> list[tuple[str, ast.AST]]:
    """(qualified name, node) of each module-level function, then of each
    method; nested functions belong to the function around them."""
    tree = ast.parse(source)
    functions = [(f"{module}.{node.name}", node) for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            functions += [(f"{module}.{node.name}.{item.name}", item) for item in node.body
                          if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return functions


def bound_readers(sources: dict[str, str], names, count=None) -> dict[str, list[str]]:
    """For each of names, the module-level functions and the methods that
    read it, nested functions counted with the function around them; a
    function's reads are counted by ``count``, ``read_names`` if None."""
    readers = {name: [] for name in names}
    for module, source in sources.items():
        for qualified, node in module_functions(module, source):
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
    assert bound_readers(sources, ["ENUMERATION_BOUND", "DEGREE_BOUND", "GROUP_CAP",
                                   "LATTICE_BITS"]) == {
        "ENUMERATION_BOUND": ["perm.PermGroup._bounded_order"],
        "DEGREE_BOUND": ["groupspec._parse_degree"],
        "GROUP_CAP": ["balloracle.exhaustive_applies"],
        "LATTICE_BITS": ["bmtree._value_lattice"],
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


def test_only_the_engine_and_the_sylow_layer_fill_in_what_a_group_knows():
    # PermGroup._known trusts the order, element set or chain it is given,
    # and a wrong element set would silently corrupt membership
    sources = {path.stem: path.read_text()
               for path in sorted(Path(treescale.__file__).parent.glob("*.py"))}
    callers = bound_readers(sources, ["_known"], called_names)["_known"]
    assert callers and {name.split(".")[0] for name in callers} <= {"perm", "sylow"}


def indexed_by(node: ast.AST, names: set[str]) -> bool:
    """Whether node is an item (not a slice) indexed by an expression of names."""
    return (isinstance(node, ast.Subscript) and not isinstance(node.slice, ast.Slice)
            and bool(names & {n.id for n in ast.walk(node.slice) if isinstance(n, ast.Name)}))


def per_index_compositions(sources: dict[str, str]) -> list[str]:
    """The module-level functions and methods that compose one index at a
    time: a comprehension whose element is an item indexed by its own
    variables, such as ``[t[x - 1] for x in h]``, or a loop that stores
    such an item at such an index, such as ``out[xi - 1] = x[img - 1]``
    for ``xi, img`` in the loop.  Slices and items read further do not
    count."""
    found = []
    for module, source in sources.items():
        for qualified, function in module_functions(module, source):
            for node in ast.walk(function):
                if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
                    bound = {name.id for gen in node.generators for name in ast.walk(gen.target)
                             if isinstance(name, ast.Name)}
                    hit = indexed_by(node.elt, bound)
                elif isinstance(node, ast.For):
                    bound = {name.id for name in ast.walk(node.target) if isinstance(name, ast.Name)}
                    hit = any(isinstance(stmt, ast.Assign) and indexed_by(stmt.value, bound)
                              and any(indexed_by(t, bound) for t in stmt.targets)
                              for stmt in ast.walk(node))
                else:
                    continue
                if hit:
                    found.append(qualified)
                    break
    return found


def test_per_index_composition_finder():
    sources = {"a": "def f(t, h):\n    return tuple([t[x - 1] for x in h])\n"
                    "class C:\n    def m(self, g, u):\n"
                    "        return {inv[g[x - 1] - 1] for inv in self for x in u}\n"
                    "def loop(x, y, out):\n    for xi, img in zip(x, y):\n"
                    "        out[xi - 1] = x[img - 1]\n"
                    "def ok(at, k, inv):\n    for i, img in k:\n        inv[img] = i\n"
                    "    return [at[a:a + k] for a in k] + [t[0] for t in k] + [at[a].x for a in k]"}
    assert per_index_compositions(sources) == ["a.f", "a.loop", "a.C.m"]
    assert per_index_compositions({"a": "def g(xs):\n    return [q - 1 for q in xs]"}) == []


# The functions that compose image tuples, each with operator.itemgetter on
# 0-padded tuples (see perm.py); no other function of perm or sylow may
# compose tuples, and neither one index at a time.
IMAGE_KERNELS = ["perm._times", "perm._conjugator", "perm._schreier_generators",
                 "perm.Permutation.__mul__", "perm._Chain._sift_from", "perm._Chain.cosets"]


def test_image_tuples_are_composed_only_by_the_kernels():
    package = Path(treescale.__file__).parent
    sources = {stem: (package / f"{stem}.py").read_text() for stem in ("perm", "sylow")}
    assert per_index_compositions(sources) == []
    assert bound_readers(sources, ["itemgetter"], called_names) == {"itemgetter": IMAGE_KERNELS}


def listing_witness_scans(sources: dict[str, str]) -> list[str]:
    """The module-level functions and methods with a ``next(...)`` call,
    a scan that stops at its first witness, that iterates a call of
    ``elements``: in its own argument, or in the value assigned to a name
    that the argument reads."""
    found = []
    for module, source in sources.items():
        for qualified, function in module_functions(module, source):
            assigned = {}
            for node in ast.walk(function):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            assigned.setdefault(target.id, []).append(node.value)
            for node in ast.walk(function):
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "next" and node.args):
                    continue
                scanned = [node.args[0]] + [value for name in ast.walk(node.args[0])
                                            if isinstance(name, ast.Name)
                                            for value in assigned.get(name.id, [])]
                if any(called_names(tree)["elements"] for tree in scanned):
                    found.append(qualified)
                    break
    return found


def test_listing_witness_scan_finder():
    sources = {"a": "def f(g):\n    return next(x for x in g.elements() if x)\n"
                    "def h(g, b):\n    c = map(b.conjugate, g.elements())\n"
                    "    return next((y for y in c if y), None)\n"
                    "class C:\n    def m(self, g):\n        return next(iter(g._scan()))\n"
                    "    def full(self, g):\n        return [x for x in g.elements() if x]"}
    assert listing_witness_scans(sources) == ["a.f", "a.h"]


def test_no_first_witness_scan_lists_the_whole_group():
    # a scan that stops at its first witness reads the listing one coset
    # at a time through PermGroup._scan, so it never lists all of G first
    sources = {path.stem: path.read_text()
               for path in sorted(Path(treescale.__file__).parent.glob("*.py"))}
    assert listing_witness_scans(sources) == []


def test_the_cosets_are_kept_only_by_the_scan():
    # _scan fills the cosets on first reach and never joins or drops them,
    # so no other path may write or read them
    sources = {path.stem: path.read_text()
               for path in sorted(Path(treescale.__file__).parent.glob("*.py"))}
    assert bound_readers(sources, ["_cosets"]) == {
        "_cosets": ["perm.PermGroup.__init__", "perm.PermGroup._scan"]}


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


def defined_names(tree: ast.Module) -> list[str]:
    """The names a module defines at module level by assignment, function
    or class, in order; imported names are not among them."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level ``_name`` assignments, functions and classes that no
    module reads as a loaded name, an attribute or an import alias."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = sum(map(read_names, trees.values()), Counter())
    return [f"{module}.{name}" for module, tree in trees.items()
            for name in defined_names(tree)
            if name.startswith("_") and not name.endswith("__") and name not in read]


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


def test_the_ball_walk_shares_no_code_with_the_scale():
    # c08 compares orbit_count with scale: the walk reads neither the
    # orbital table nor any name bmtree defines but AxisData, so however
    # the walk is made faster the two stay unshared computations
    package = Path(treescale.__file__).parent
    read = read_names(ast.parse((package / "balloracle.py").read_text()))
    bmtree_names = defined_names(ast.parse((package / "bmtree.py").read_text()))
    assert len(bmtree_names) > 10
    assert read["orbitals"] == read["Orbitals"] == 0
    assert [name for name in bmtree_names if read[name]] == ["AxisData"]


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


def shared_method_names() -> dict[str, list[type]]:
    """Each public method name that two or more classes of treescale
    define, with those classes."""
    owners: dict[str, list[type]] = {}
    for qualified, _ in defined_callables():
        package, module, *owner, name = qualified.split(".")
        if owner and not name.startswith("_"):
            cls = getattr(importlib.import_module(f"{package}.{module}"), owner[0])
            owners.setdefault(name, []).append(cls)
    return {name: classes for name, classes in owners.items() if len(classes) > 1}


def test_every_definition_of_a_shared_method_name_is_called(monkeypatch):
    # the guard above counts reads by name, so it cannot see a method
    # whose name another class's method shares and is read under
    shared = shared_method_names()
    assert "order" in shared and len(shared["order"]) == 3
    calls = {}
    for name, classes in shared.items():
        for cls in classes:
            key, original = f"{cls.__qualname__}.{name}", vars(cls)[name]
            fn = getattr(original, "__func__", original)
            calls[key] = 0

            def counting(*args, fn=fn, key=key, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(cls, name, counting if fn is original else type(original)(counting))
    acceptance.run_suite("sylow")
    acceptance.run_suite("inclusion")
    assert [key for key, n in calls.items() if n == 0] == []


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
