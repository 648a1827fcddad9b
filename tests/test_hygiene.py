"""Source hygiene checks that need nothing beyond the standard library."""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hierctl"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def used_names(tree: ast.AST) -> set:
    """Every name a tree reads, as a variable or as an attribute."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def imported_names(tree: ast.AST) -> list:
    """Names bound by `from ... import` (the `__future__` ones excepted)."""
    return [alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names]


def unused_imports(source: str) -> list:
    """Names bound by `from ... import` that the module never uses."""
    tree = ast.parse(source)
    used = used_names(tree)
    return [name for name in imported_names(tree) if name not in used]


def dead_definitions(defining, using, exported) -> list:
    """Non-dunder functions, methods and classes (properties included)
    defined in the `defining` sources that no `using` source names and that
    are not in `exported`."""
    defined = {node.name
               for tree in map(ast.parse, defining)
               for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef))
               and not (node.name.startswith("__")
                        and node.name.endswith("__"))}
    used = set().union(*(used_names(ast.parse(s)) for s in using))
    return sorted(defined - used - set(exported))


def _sources(directory: Path) -> list:
    return [p.read_text(encoding="utf-8") for p in sorted(directory.glob("*.py"))]


def test_unused_imports_are_found():
    assert unused_imports("from x import a, b as c, d\nd.a\n") == ["c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_dead_definitions_are_found():
    module = ("def f(): pass\ndef g(): pass\nclass C:\n"
              "    def __init__(self): pass\n    def h(self): pass\n"
              "    def k(self): pass\n")
    assert dead_definitions([module], [module, "g()\nx.h\n"], {"C"}) == [
        "f", "k"]


def test_no_dead_definitions():
    exported = imported_names(ast.parse(
        (SRC / "__init__.py").read_text(encoding="utf-8")))
    using = _sources(SRC) + _sources(ROOT / "tests") + \
        _sources(ROOT / "perfbench")
    assert dead_definitions(_sources(SRC), using, exported) == []


def private_definitions(sources) -> set:
    """Module-level functions and classes whose names start with one
    underscore."""
    return {node.name
            for tree in map(ast.parse, sources) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and node.name.startswith("_") and not node.name.endswith("__")}


def unused_private_definitions(sources) -> list:
    """Private module-level definitions of `sources` that none of them
    names, so that only code outside them (tests, say) could use them."""
    used = set().union(*(used_names(ast.parse(s)) for s in sources))
    return sorted(private_definitions(sources) - used)


def test_unused_private_definitions_are_found():
    module = ("def _f(): pass\ndef _g(): pass\nclass _C:\n"
              "    def _h(self): pass\ndef __dir__(): pass\nx = _g\n")
    assert unused_private_definitions([module, "_h = 1\n"]) == ["_C", "_f"]


def test_private_definitions_are_used_by_the_package():
    # A helper that only tests use belongs in the tests.
    sources = _sources(SRC)
    assert len(private_definitions(sources)) > 50
    assert unused_private_definitions(sources) == []


def long_prose_lines(text: str, width: int = 79) -> list:
    """Numbers of the lines longer than `width` columns outside ``` code
    fences."""
    long, fenced = [], False
    for number, line in enumerate(text.splitlines(), 1):
        if line.startswith("```"):
            fenced = not fenced
        elif not fenced and len(line) > width:
            long.append(number)
    return long


def test_long_prose_lines_are_found():
    text = "ok\n```\n" + "x" * 90 + "\n```\n" + "Σ" * 80 + "\n" + "Σ" * 79
    assert long_prose_lines(text) == [5]


def test_readme_prose_fits_79_columns():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert long_prose_lines(readme) == []


def nodes_inside(tree: ast.AST, allowed) -> set:
    """Ids of the nodes inside the functions named in `allowed`."""
    return {id(n)
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name in allowed
            for n in ast.walk(node)}


def replace_calls(source: str, allowed: str) -> list:
    """Lines of the `dataclasses.replace` calls outside the functions named
    `allowed`, under whatever name the module imports it."""
    tree = ast.parse(source)
    names = {alias.asname or alias.name
             for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and node.module == "dataclasses"
             for alias in node.names if alias.name == "replace"}
    inside = nodes_inside(tree, {allowed})
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in inside
            and (isinstance(node.func, ast.Name) and node.func.id in names
                 or isinstance(node.func, ast.Attribute)
                 and node.func.attr == "replace"
                 and isinstance(node.func.value, ast.Name)
                 and node.func.value.id == "dataclasses")]


def test_replace_calls_are_found():
    module = ("import dataclasses\nfrom dataclasses import replace as r\n"
              "def ok(a):\n    return r(a)\n"
              "def bad(a):\n    return dataclasses.replace(r(a))\n"
              "def fine(s):\n    return s.replace('x', 'y')\n")
    assert replace_calls(module, "ok") == [6, 6]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_automata_are_copied_only_by_derived(path):
    # A copy made elsewhere would not share the tables of its source
    # (`automata._derived`), so it would build them again.
    assert replace_calls(path.read_text(encoding="utf-8"), "_derived") == []


def uses_outside(source: str, name: str, allowed: set) -> list:
    """Lines that use the module-level function `name` outside the
    functions named in `allowed`, under whatever name the module imports
    it, or as an attribute."""
    tree = ast.parse(source)
    names = {name} | {alias.asname or alias.name
                      for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom)
                      for alias in node.names if alias.name == name}
    inside = nodes_inside(tree, allowed)
    return [node.lineno for node in ast.walk(tree)
            if id(node) not in inside
            and (isinstance(node, ast.Name) and node.id in names
                 or isinstance(node, ast.Attribute) and node.attr == name)]


def test_uses_outside_are_found():
    module = ("from m import f as g\nimport m\n"
              "def ok(a):\n    return partial(f, a), g(a)\n"
              "def bad(a):\n    return m.f(a)\n"
              "def worse(a):\n    return [g(x) for x in a], f\n")
    assert uses_outside(module, "f", {"ok"}) == [6, 8, 8]


# The product of a left automaton with the subset construction of a right
# one is built in one place, so a change to its right-subset layer is made
# once: the subset constructions and `subset_steps`, the memo that
# `_difference_product` reads, alone union the rows of a subset.
UNION_USERS = {"determinize", "iter_marked_words", "subset_steps"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_subset_steps_are_taken_only_by_the_kernels(path):
    assert uses_outside(path.read_text(encoding="utf-8"), "_union",
                        UNION_USERS) == []


# Every witness of a breadth-first search is spelled by `first_path`; the
# resumable pair search of the observability checks is the one other
# search, and no module keeps a parent map of its own.
PATH_WORD_USERS = {"first_path", "_observability_engine"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_parent_maps_are_spelled_only_by_first_path(path):
    assert uses_outside(path.read_text(encoding="utf-8"), "path_word",
                        PATH_WORD_USERS) == []


def test_checks_build_no_pair_product_up_front():
    # OC's and MOC's sides are read only as far as their searches step
    # them (`hierarchy._pair_operands`); `relations.sync_pair_compose`
    # stays public API and the tests' reference.
    source = (SRC / "hierarchy.py").read_text(encoding="utf-8")
    assert uses_outside(source, "sync_pair_compose", set()) == []


def test_checks_build_no_determinized_copy():
    # The classical checks and `sup_relobs_closed` step the subsets of K̄,
    # C̄, G and the observer on demand (`automata.subset_steps`).
    source = (SRC / "checks.py").read_text(encoding="utf-8")
    assert uses_outside(source, "determinize", set()) == []


def test_normality_builds_no_inverse_projection():
    # The normality check and `sup_normal_closed` each search subsets of
    # their operands on demand: no inverse projection, saturation,
    # difference or intersection is built whole.
    source = (SRC / "checks.py").read_text(encoding="utf-8")
    for name in ("inverse_project", "marked_saturate", "difference",
                 "intersect"):
        assert uses_outside(source, name, set()) == [], name


def test_synthesis_builds_no_projection():
    # `sup_relobs_closed` reads its observer P(L(G)) on demand, as the
    # normality check and `sup_normal_closed` read theirs.
    source = (SRC / "checks.py").read_text(encoding="utf-8")
    for name in ("project", "ProjectionSpec", "all_marked"):
        assert uses_outside(source, name, set()) == [], name


def module_functions(tree: ast.Module) -> dict:
    return {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)}


def callees(tree: ast.Module, root: str) -> set:
    """The module-level functions that `root` calls, directly or through
    one another, `root` included."""
    bodies = module_functions(tree)
    seen, todo = {root}, [root]
    while todo:
        for node in ast.walk(bodies[todo.pop()]):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id in bodies and node.func.id not in seen:
                seen.add(node.func.id)
                todo.append(node.func.id)
    return seen


def validating_calls(tree: ast.Module, names) -> list:
    """(function, line) of the `Automaton(...)` and `Automaton.make` calls
    in the functions named in `names`."""
    bodies = module_functions(tree)
    return [(name, node.lineno) for name in sorted(names)
            for node in ast.walk(bodies[name])
            if isinstance(node, ast.Call)
            and (isinstance(node.func, ast.Name)
                 and node.func.id == "Automaton"
                 or isinstance(node.func, ast.Attribute)
                 and node.func.attr == "make"
                 and isinstance(node.func.value, ast.Name)
                 and node.func.value.id == "Automaton")]


def test_validating_calls_are_found():
    module = ("def f(a):\n    return g(a)\n"
              "def g(a):\n    return Automaton(a)\n"
              "def h(a):\n    return Automaton.make(a), object.__new__(Automaton)\n"
              "def k(a):\n    return h\n")
    tree = ast.parse(module)
    assert callees(tree, "f") == {"f", "g"}
    assert callees(tree, "k") == {"k"}
    assert validating_calls(tree, {"f", "g", "h", "k"}) == [
        ("g", 4), ("h", 6)]


def test_kernel_constructions_do_not_validate_again():
    # Validation stays where data enters the program; `explore`, `trim`,
    # `all_marked` and `project` build what they derive from valid
    # automata through `_trusted`, with no `__post_init__` walk.
    tree = ast.parse((SRC / "automata.py").read_text(encoding="utf-8"))
    for root in ("explore", "trim", "all_marked", "project"):
        assert validating_calls(tree, callees(tree, root)) == [], root


def test_loc_reads_no_inclusion_machinery():
    # LOC is one search over the determinized verifier: no difference view,
    # no refutation loop, and no abstraction DFA.
    tree = ast.parse((SRC / "hierarchy.py").read_text(encoding="utf-8"))
    check_loc = next(node for node in tree.body
                     if isinstance(node, ast.FunctionDef)
                     and node.name == "check_loc")
    assert used_names(check_loc) & {"iter_difference_words",
                                    "_refutation_loop",
                                    "abstraction_dfa"} == set()


def test_layer_trace_targets_exist():
    # `perfbench/run.py --trace 1` wraps these names; one a refactor
    # removed would fail only there.
    spec = importlib.util.spec_from_file_location(
        "layertrace", ROOT / "perfbench" / "layertrace.py")
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    for module, funcs in layertrace.TARGETS.items():
        home = importlib.import_module(f"hierctl.{module}")
        missing = [f for f in funcs if not callable(getattr(home, f, None))]
        assert missing == [], module
