"""Source hygiene checks that need nothing beyond the standard library."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
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
# once: `iter_marked_words` and `subset_steps`, the memo that
# `_difference_product` and `determinize` read, alone union the rows of a
# subset.
UNION_USERS = {"iter_marked_words", "subset_steps"}


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


def test_no_module_looks_for_silent_moves():
    # `Automaton(...)` eliminates an ε-NFA's silent moves where it is
    # built, and every other automaton is derived from such ones, so no
    # operation eliminates or looks for them again.
    for path in MODULES:
        source = path.read_text(encoding="utf-8")
        for name in ("eliminate_silent", "has_silent"):
            assert uses_outside(source, name, set()) == [], (path.name, name)


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


def test_synthesis_reads_its_candidate_on_demand():
    # `sup_relobs_closed` reads R as an `Implicit` and builds its result
    # from the pruned rows; it built the whole of R by `explore` and cut
    # the result out of it by `trim`.
    tree = ast.parse((SRC / "checks.py").read_text(encoding="utf-8"))
    bodies = {node.name: node for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    reached = callees(tree, "sup_relobs_closed") | {"_PairSearch"}
    called = {node.func.id for name in reached
              for node in ast.walk(bodies[name])
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert {"Implicit", "_PairSearch", "_kept_part"} <= called
    assert not called & {"explore", "trim"}


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
    # `all_marked`, `prefix_close` and `project` build what they derive
    # from valid automata through `_trusted`, with no `__post_init__` walk.
    tree = ast.parse((SRC / "automata.py").read_text(encoding="utf-8"))
    for root in ("explore", "trim", "all_marked", "prefix_close",
                 "project"):
        assert validating_calls(tree, callees(tree, root)) == [], root


def top_level(module: str, name: str) -> ast.AST:
    """The top-level function or class `name` of `src/hierctl/<module>`."""
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    return next(node for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name == name)


def test_loc_reads_no_inclusion_machinery():
    # LOC is one search over the determinized verifier: no difference view,
    # no refutation loop, and no abstraction DFA.
    assert used_names(top_level("hierarchy.py", "check_loc")) & {
        "iter_difference_words", "_refutation_loop",
        "abstraction_dfa"} == set()


def test_hierarchy_builds_no_determinized_copy():
    # The observer, LCC and LOC step subsets of the plant and of the
    # abstraction (`automata.subset_steps`); the context holds no DFA.
    source = (SRC / "hierarchy.py").read_text(encoding="utf-8")
    assert uses_outside(source, "determinize", set()) == []
    context = top_level("hierarchy.py", "HierarchyContext")
    assert {node.name for node in context.body
            if isinstance(node, ast.FunctionDef)} & {
        "dfa", "abstraction_dfa"} == set()


def test_includes_has_no_search_of_its_own():
    # Its witness is the first word of `iter_difference_words`.
    assert used_names(top_level("automata.py", "includes")) & {
        "first_path", "_difference_product"} == set()


def test_the_difference_search_is_written_once():
    # The observer asks each subset pair the search that
    # `iter_difference_words` runs, so neither keeps a copy of it.
    for path in MODULES:
        assert uses_outside(path.read_text(encoding="utf-8"),
                            "_difference_search",
                            {"iter_difference_words", "check_observer"}) \
            == [], path.name
    for module, user in (("automata.py", "iter_difference_words"),
                         ("hierarchy.py", "check_observer")):
        assert "_difference_search" in used_names(top_level(module, user))


def test_hierarchy_keeps_no_dead_pair_memo():
    # The pairs found dead are `automata._difference_search`'s to keep.
    source = (SRC / "hierarchy.py").read_text(encoding="utf-8")
    assert used_names(ast.parse(source)) & {"dead", "expanded"} == set()


def test_interleaving_cells_are_filled_in_one_loop():
    # `exists` fills a missing cell through the explicit stack alone, with
    # no one-step path beside it.
    table = top_level("hierarchy.py", "_interleaving_table")
    nested = [node.name for node in ast.walk(table)
              if isinstance(node, ast.FunctionDef) and node is not table]
    assert len(stack_loops(ast.unparse(table))) == 1
    assert len(nested) <= 3, nested


def test_observer_projects_no_plant_dfa():
    # `project` keeps the plant's states, so both sides of each per-pair
    # inclusion are copies of the abstraction itself.
    assert "project" not in used_names(top_level("hierarchy.py",
                                                 "check_observer"))


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


def test_trusted_builds_from_the_five_fields_alone():
    # `_derived` is the one way an automaton shares another's tables.
    args = top_level("automata.py", "_trusted").args
    assert [x.arg for x in args.posonlyargs + args.args + args.kwonlyargs] \
        == ["alphabet", "states", "transitions", "initial", "marked"]
    assert args.vararg is None and args.kwarg is None


def transition_walks(source: str) -> list:
    """Names of the functions that iterate some `x.transitions`: a loop or
    comprehension over it, or a call given it."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            walked = ([node.iter] if isinstance(node, (ast.For,
                                                       ast.comprehension))
                      else node.args if isinstance(node, ast.Call) else [])
            if any(isinstance(x, ast.Attribute) and x.attr == "transitions"
                   for x in walked):
                found.add(fn.name)
    return sorted(found)


def test_transition_walks_are_found():
    module = ("def f(a):\n    for t in a.transitions:\n        pass\n"
              "def g(a):\n    return {s for (s, _, _) in a.transitions}\n"
              "def h(a):\n    return sorted(a.transitions)\n"
              "def k(a):\n    return a.transitions - set(), len(a.states)\n")
    assert transition_walks(module) == ["f", "g", "h"]


def test_checks_walk_no_transitions():
    # The classical checks read K̄, C̄ and G only as the DFA tables of their
    # `automata.subset_steps`.
    source = (SRC / "checks.py").read_text(encoding="utf-8")
    assert transition_walks(source) == []


def nested_calls(source: str, outer: str, inner: str) -> list:
    """Lines of the calls `outer(inner(...))`, both by plain name."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == outer
            and node.args and isinstance(node.args[0], ast.Call)
            and isinstance(node.args[0].func, ast.Name)
            and node.args[0].func.id == inner]


def test_nested_calls_are_found():
    module = "x = f(g(a))\ny = f(h(g(a)))\nz = g(f(a)), f(a, g(b))\n"
    assert nested_calls(module, "f", "g") == [1]


def test_closed_specifications_take_one_pass():
    # `prefix_close` trims as it marks, in one `automata._restrict`.
    for path in MODULES:
        source = path.read_text(encoding="utf-8")
        assert nested_calls(source, "prefix_close", "trim") == [], path.name
        assert nested_calls(source, "trim", "prefix_close") == [], path.name


def predecessor_maps(source: str) -> list:
    """Names of the functions with a loop `for (src, lbl, dst) in ...` that
    files a transition's source under its target, as `m[dst].add(src)` or
    `m.setdefault(dst, ...).append(src)` do."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for loop in ast.walk(fn):
            if not (isinstance(loop, ast.For)
                    and isinstance(loop.target, ast.Tuple)
                    and len(loop.target.elts) == 3
                    and all(isinstance(x, ast.Name)
                            for x in loop.target.elts)):
                continue
            src, _, dst = (x.id for x in loop.target.elts)
            for call in ast.walk(loop):
                if not (isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Attribute)
                        and any(isinstance(x, ast.Name) and x.id == src
                                for x in call.args)):
                    continue
                held = call.func.value
                key = (held.slice if isinstance(held, ast.Subscript)
                       else held.args[0] if isinstance(held, ast.Call)
                       and isinstance(held.func, ast.Attribute)
                       and held.func.attr == "setdefault" else None)
                if isinstance(key, ast.Name) and key.id == dst:
                    found.add(fn.name)
    return sorted(found)


def test_predecessor_maps_are_found():
    module = ("def coreachable(a):\n"
              "    pred = {s: set() for s in a.states}\n"
              "    for (src, _, dst) in a.transitions:\n"
              "        pred[dst].add(src)\n"
              "def kept(a):\n"
              "    for (src, _, dst) in a.transitions:\n"
              "        post.setdefault(src, []).append(dst)\n"
              "        pre.setdefault(dst, []).append(src)\n"
              "def rows(a):\n"
              "    for (src, lbl, dst) in a.transitions:\n"
              "        row = rows[idx[src]]\n"
              "        row[lbl] = row.get(lbl, 0) | 1 << idx[dst]\n"
              "def succ(a):\n"
              "    for (src, lbl, dst) in a.transitions:\n"
              "        out[src].setdefault(lbl, set()).add(dst)\n")
    assert predecessor_maps(module) == ["coreachable", "kept"]


def test_coreachability_has_one_pass():
    # Every restriction, and the masks of `is_prefix_closed` and
    # `iter_marked_words`, take co-reachable states from `automata._kept`.
    # (`right_quotient` reverses the edges of a pair product, not of an
    # automaton's transitions.)
    found = [(path.name, name) for path in MODULES
             for name in predecessor_maps(path.read_text(encoding="utf-8"))]
    assert found == [("automata.py", "_kept")]


def names(source: str) -> set:
    """Every name a module binds by import or reads."""
    tree = ast.parse(source)
    return used_names(tree) | set(imported_names(tree))


def test_names_are_found():
    assert "cached_property" in names("from functools import "
                                      "cached_property\n")
    assert "cached_property" in names("import functools\n"
                                      "x = functools.cached_property\n")
    assert "cached_property" not in names('"""cached_property"""\n')


def test_lazy_attributes_take_no_lock():
    # Python 3.11's `functools.cached_property` takes a lock on every read
    # of an unset value; `automata._lazy` is the package's lock-free idiom.
    found = [path.name for path in sorted(SRC.glob("*.py"))
             if "cached_property" in names(path.read_text(encoding="utf-8"))]
    assert found == []


def memo_decorators(source: str) -> set:
    """The `functools` memo decorators that a module binds or reads."""
    return names(source) & {"cache", "lru_cache"}


def test_memo_decorators_are_found():
    assert memo_decorators("from functools import cache, reduce\n") == \
        {"cache"}
    assert memo_decorators("import functools\n"
                           "@functools.lru_cache(maxsize=None)\n"
                           "def f(x):\n    return x\n") == {"lru_cache"}
    assert memo_decorators("import functools as ft\ng = ft.cache(len)\n") \
        == {"cache"}
    assert memo_decorators('"""cached by functools.cache"""\n'
                           "from functools import partial\n") == set()


def test_memos_are_plain_dicts():
    # A `functools.cache` wrapper costs `lru_cache` and `update_wrapper`
    # each time one is made, which a check in a fresh process pays for
    # every memo; `automata._Memo` is the package's memo idiom.
    found = [path.name for path in sorted(SRC.glob("*.py"))
             if memo_decorators(path.read_text(encoding="utf-8"))]
    assert found == []


def string_literals(source: str, skip=()) -> list:
    """Every str constant of a module, the literal parts of f-strings
    included, outside the functions named in `skip` and the method calls
    on the variables named in `skip`."""
    out, todo = [], [ast.parse(source)]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.FunctionDef) and node.name in skip or (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in skip):
            continue
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.append(node.value)
        todo.extend(ast.iter_child_nodes(node))
    return out


def test_string_literals_are_found():
    src = ('"""oc"""\nA = {"oc": 1}\nB = [f"oc{A}", "moc"]\n'
           'def f():\n    return "oc"\ng.add(choices=["moc"])\n')
    found = string_literals(src)
    assert found.count("oc") == 4 and found.count("moc") == 2
    found = string_literals(src, skip={"f", "g"})
    assert found.count("oc") == 3 and found.count("moc") == 1


def test_check_properties_are_named_once_in_the_cli():
    # `cli._CHECKS` is what `check` offers: the parser's choices, the file
    # counts and the dispatch read it, so no property is spelled twice.
    # "moc" is also the `modular` subcommand's kind and an entry of the
    # `hier` synthesis reports, which are not `check`'s.
    oracles = importlib.import_module("hierctl.oracle").PROPERTY_ORACLES
    literals = string_literals((SRC / "cli.py").read_text(encoding="utf-8"),
                               skip={"_cmd_hier", "_cmd_modular", "modular"})
    assert {p: literals.count(p) for p in oracles} == dict.fromkeys(oracles, 1)


def private_argparse_reads(source: str) -> list:
    """In a module that imports argparse, the private names it imports
    from argparse and every private attribute it reads: no type tells a
    parser object apart, so any object's private attribute counts."""
    tree = ast.parse(source)
    nodes = list(ast.walk(tree))
    if not any(isinstance(n, ast.Import)
               and any(a.name == "argparse" for a in n.names)
               or isinstance(n, ast.ImportFrom) and n.module == "argparse"
               for n in nodes):
        return []
    found = [a.name for n in nodes
             if isinstance(n, ast.ImportFrom) and n.module == "argparse"
             for a in n.names] + \
        [n.attr for n in nodes if isinstance(n, ast.Attribute)]
    return sorted(name for name in found
                  if name.startswith("_") and not name.endswith("__"))


def test_private_argparse_reads_are_found():
    module = ("import argparse as ap\nfrom argparse import _SubParsersAction"
              ", Namespace\np = ap.ArgumentParser()\nq = p._actions\n"
              "isinstance(q[0], ap._StoreAction)\nx.__class__\np.parse_args\n")
    assert private_argparse_reads(module) == [
        "_StoreAction", "_SubParsersAction", "_actions"]
    assert private_argparse_reads("x._actions\n") == []


def test_the_package_reads_no_private_name_of_argparse():
    # argparse's private grammar (`_actions`, `_defaults`, its action
    # classes) may change in any Python release; the CLI asks the parser
    # to parse and reads nothing else of it.
    found = {path.name: private_argparse_reads(
        path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    assert {name: reads for name, reads in found.items() if reads} == {}


def package_imports(source: str) -> set:
    """What a module imports from its own package: each name of a relative
    or `hierctl` `from ... import`, and each `hierctl` module imported whole."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("hierctl")):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names
                       if alias.name.startswith("hierctl"))
    return out


def test_package_imports_are_found():
    module = ("from __future__ import annotations\nimport json\n"
              "from .automata import a, b as c\nfrom . import relations\n"
              "import hierctl.checks\nfrom hierctl.saut import d\n"
              "def f():\n    from .hierarchy import e\n")
    assert package_imports(module) == {"a", "b", "relations",
                                       "hierctl.checks", "d", "e"}


def stack_loops(source: str, take: str = "pop") -> list:
    """Lines of the `while` loops that pop a node from an explicit stack
    (a `.pop()` call in the loop's body), or with `take` "popleft" take
    one from the front of a queue."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.While)
            and any(isinstance(n, ast.Call)
                    and isinstance(n.func, ast.Attribute)
                    and n.func.attr == take
                    for stmt in node.body for n in ast.walk(stmt))]


def test_stack_loops_are_found():
    module = ("def f(s):\n    while s:\n        x = s.pop()\n"
              "def g(q):\n    while q:\n        q = q[1:]\n"
              "def h(s):\n    while True:\n        if s.pop(): break\n"
              "def k(q):\n    while q:\n        x = q.popleft()\n")
    assert stack_loops(module) == [2, 8]
    assert stack_loops(module, "popleft") == [11]


def test_words_are_enumerated_in_one_loop():
    # `iter_marked_words` is the one length-lexicographic enumerator, and
    # the OC/MOC refutation reads its keys through the same loop: the
    # words it yields are folded by its `step` from its `empty`, so no
    # copy of the loop enumerates keys in place of words.
    loops = [line for path in MODULES for line in stack_loops(
        path.read_text(encoding="utf-8"), "popleft")]
    enumerator = top_level("automata.py", "iter_marked_words")
    assert len(loops) == len(stack_loops(ast.unparse(enumerator),
                                         "popleft")) == 1
    assert [arg.arg for arg in enumerator.args.args] == [
        "a", "bound", "step", "empty"]
    assert "step" in used_names(top_level("automata.py",
                                          "iter_difference_words"))


def test_the_oracle_searches_in_one_loop():
    # Each inner quantifier of the referee is a goal over `_visit`.
    source = (SRC / "oracle.py").read_text(encoding="utf-8")
    visit = ast.unparse(top_level("oracle.py", "_visit"))
    assert len(stack_loops(source)) == len(stack_loops(visit)) == 1


# The private referee names that the benchmark's witness replay
# (`perfbench/gate.py`) and the tests' (`tests/conftest.py`) import, with
# their parameters: a rename would first show as a failed benchmark run.
REPLAY_NAMES = {
    "_exists_oc_pair": ["gl", "t", "tp"],
    "_exists_moc_mate": ["gl", "obs_word", "tp"],
    "_loc_continuations_meet": ["gl", "s", "sp", "e"],
    "_q_extends": ["gl", "t"],
    "_q_of": ["alphabet", "w"],
    "_p_of": ["alphabet", "w"],
    "_proj": ["alphabet", "w", "kept"],
    "_gen_rec": ["a"],
}


def oracle_imports(source: str) -> set:
    """The names imported from `hierctl.oracle`, at any depth."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and node.module == "hierctl.oracle" for alias in node.names}


@pytest.mark.parametrize("path", [ROOT / "perfbench" / "gate.py",
                                  ROOT / "tests" / "conftest.py"],
                         ids=lambda p: p.name)
def test_replay_imports_resolve(path):
    oracle = importlib.import_module("hierctl.oracle")
    imported = oracle_imports(path.read_text(encoding="utf-8"))
    assert {name for name in imported if name.startswith("_")} == \
        set(REPLAY_NAMES)
    for name in imported:
        assert hasattr(oracle, name), name
    for name, params in REPLAY_NAMES.items():
        assert list(inspect.signature(getattr(oracle, name)).parameters) \
            == params, name


def test_the_oracle_shares_no_search_with_the_engine():
    # The bounded oracle referees every check, so it writes its own
    # searches: it reads automata and the two restriction passes that
    # define L and the closure of L_m, and no closure, path or subset
    # construction of the engine.
    source = (SRC / "oracle.py").read_text(encoding="utf-8")
    assert package_imports(source) == {"Automaton", "PreconditionError",
                                       "all_marked", "trim"}
