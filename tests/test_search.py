"""The search and pair-product kernels against the loops they replaced.

`automata._search` is the one breadth-first search: `first_path` spells a
witness through its parent map, `included` passes its antichain as its skip
rule, and the relative-observability search resumes it after a cut-back.
`automata.pair_product` (with its `pair_moves`) is the one product of two
automata stepped by a label table. The references below are the
hand-written loops of the controllability, observer and LCC checks, over
automata determinized whole, the loops of `first_path` and `included` as
they were before the kernel, and the moves of `parallel_compose` and
`sync_pair_compose` as they were before; the kernels must give
byte-identical verdict JSON, identical automata, and the same discovery
order and work.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from collections import deque
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from hierctl import automata
from hierctl.automata import (Automaton, _search, closure, explore,
                              first_path, included, iter_marked_words,
                              merge_alphabets, parallel_compose, path_word,
                              prefix_close, project, trim)
from hierctl.checks import (_PairSearch, _require_inclusion,
                            check_controllability, check_observability,
                            check_relative_observability)
from hierctl.gadgets import (GeneratorParams, random_nfa, random_plant,
                             random_sublanguage)
from hierctl.hierarchy import build_context, check_lcc, check_observer
from hierctl.relations import (decompose_sequence, pair_alphabet,
                               sync_pair_compose)
from hierctl.verdicts import Verdict, Witness

from conftest import make_alphabet, ref_includes
from test_subsets import nfas

SRC = Path(__file__).resolve().parent.parent / "src"


# ---------------------------------------------------------------------------
# references: the loops as they were written before the kernels

def _dfa_table(d: Automaton) -> tuple[dict, object]:
    """{state: {event: target}} of a DFA, and its initial state or None."""
    table: dict = {q: {} for q in d.states}
    for (src, e, dst) in d.transitions:
        table[src][e] = dst
    return table, next(iter(d.initial), None)


def ref_closure_dfa(a: Automaton) -> Automaton:
    """The prefix closure of L_m(a), determinized whole."""
    return automata.determinize(prefix_close(trim(a)))


def ref_check_controllability(k: Automaton, g: Automaton) -> Verdict:
    _require_inclusion(k, g, "specification K must satisfy K ⊆ L_m(G)")
    kt, k0 = _dfa_table(ref_closure_dfa(k))
    gt, g0 = _dfa_table(automata.determinize(g))
    unc = sorted(g.alphabet.uncontrollable, key=g.alphabet.names.index)
    parent: dict = {} if k0 is None else {(k0, g0): None}
    queue = deque(parent)
    while queue:
        kq, gq = cur = queue.popleft()
        kk, gg = kt[kq], gt[gq]
        for e in unc:
            if e in gg and e not in kk:
                word = path_word(parent, cur)
                return Verdict.make_violated(Witness(
                    "controllability", {"s": word, "e": (e,), "se": word + (e,)},
                    "s ∈ K̄, e uncontrollable, se ∈ L(G) but se ∉ K̄"))
        for e in g.alphabet.names:
            if e in kk:
                nxt = (kk[e], gg[e])
                if nxt not in parent:
                    parent[nxt] = (cur, e)
                    queue.append(nxt)
    return Verdict.make_holds()


def ref_observability(k: Automaton, c: Automaton, g: Automaton, events,
                      kind: str) -> Verdict:
    """The pair search of the observability checks over K̄, C̄ and G
    determinized whole."""
    search = _PairSearch(ref_closure_dfa(k), ref_closure_dfa(c),
                         automata.determinize(g), events)
    found = search.next_violation()
    if found is None:
        return Verdict.make_holds()
    node, e = found
    s, sp = decompose_sequence(path_word(search.parent, node))
    return Verdict.make_violated(Witness(
        kind, {"s": s, "s_prime": sp, "e": (e,),
               "se": s + (e,), "s_prime_e": sp + (e,)},
        "P(s)=P(s'), se ∈ K̄, s' ∈ C̄, s'e ∈ L(G), s'e ∉ K̄"))


def ref_check_observer(g: Automaton) -> Verdict:
    """The observer check over the determinized plant and abstraction, one
    inclusion per DFA state pair. The abstraction DFA is deterministic, so
    the reference inclusion search finds the length-lexicographically first
    word."""
    ctx = build_context(g)
    gd = automata.determinize(ctx.plant)
    hd = automata.determinize(ctx.abstraction)
    proj = project(gd, ctx.q)
    hi = ctx.alphabet.highlevel
    parent: dict = dict.fromkeys(itertools.product(gd.initial, hd.initial))
    queue = list(parent)
    for cur in queue:
        gs, xs = cur
        v = ref_includes(automata._derived(hd, initial=frozenset({xs})),
                         automata._derived(proj, initial=frozenset({gs})))
        if not v.holds:
            s = path_word(parent, cur)
            return Verdict.make_violated(Witness(
                "observer",
                {"s": s, "t": ctx.q.apply(s) + v.witness.strings["word"]},
                "t ∈ Q(L) but no low-level continuation of s projects onto it"))
        for e in ctx.alphabet.names:
            sn = gd.succ[gs].get(e)
            if not sn:
                continue
            nxt = (sn[0], hd.succ[xs][e][0] if e in hi else xs)
            if nxt not in parent:
                parent[nxt] = (cur, e)
                queue.append(nxt)
    return Verdict.make_holds()


def _low_reach(gd: Automaton, start: int, events: frozenset) -> set:
    return closure((start,), lambda q: (ts[0] for e, ts in gd.succ[q].items()
                                        if e in events))


def ref_check_lcc(g: Automaton) -> Verdict:
    """The LCC check over the determinized plant's states."""
    ctx = build_context(g)
    gd = automata.determinize(ctx.plant)
    low = frozenset(ctx.alphabet.lowlevel)
    low_unc = low & ctx.alphabet.uncontrollable
    targets = sorted(ctx.alphabet.highlevel & ctx.alphabet.uncontrollable,
                     key=ctx.alphabet.names.index)
    parent: dict = dict.fromkeys(gd.initial)
    for gs in gd.states:
        reach_all = _low_reach(gd, gs, low)
        reach_unc = _low_reach(gd, gs, low_unc)
        for e in targets:
            via_any = any(e in gd.succ[q] for q in reach_all)
            via_unc = any(e in gd.succ[q] for q in reach_unc)
            if via_any and not via_unc:
                return Verdict.make_violated(Witness(
                    "lcc", {"s": path_word(parent, gs), "e": (e,)},
                    "e is reachable from s by low-level events but not by "
                    "uncontrollable ones"))
        for e in ctx.alphabet.names:
            for q in gd.succ[gs].get(e, ()):
                parent.setdefault(q, (gs, e))
    return Verdict.make_holds()


def _initial_pairs(a: Automaton, b: Automaton) -> list:
    return [(p, q) for p in a.sorted_states(a.initial)
            for q in b.sorted_states(b.initial)]


def ref_parallel_compose(a: Automaton, b: Automaton) -> Automaton:
    alphabet = merge_alphabets(a.alphabet, b.alphabet)
    in_a = set(a.alphabet.names)
    in_b = set(b.alphabet.names)

    def moves(pq):
        p, q = pq
        for e in alphabet.names:
            if e in in_a and e in in_b:
                for pn in a.succ[p].get(e, ()):
                    for qn in b.succ[q].get(e, ()):
                        yield e, (pn, qn)
            elif e in in_a:
                for pn in a.succ[p].get(e, ()):
                    yield e, (pn, q)
            else:
                for qn in b.succ[q].get(e, ()):
                    yield e, (p, qn)

    return explore(alphabet, _initial_pairs(a, b), moves,
                   lambda pq: pq[0] in a.marked and pq[1] in b.marked)


def ref_sync_pair_compose(a: Automaton, b: Automaton, sync) -> Automaton:
    alphabet = pair_alphabet(a.alphabet, b.alphabet, frozenset(sync))

    def moves(pq):
        p, q = pq
        for lbl in alphabet.names:
            l, r = lbl
            for pn in (p,) if l is None else a.succ[p].get(l, ()):
                for qn in (q,) if r is None else b.succ[q].get(r, ()):
                    yield lbl, (pn, qn)

    return explore(alphabet, _initial_pairs(a, b), moves,
                   lambda pq: pq[0] in a.marked and pq[1] in b.marked)


# ---------------------------------------------------------------------------
# populations

def _plants():
    """240 generated plants, n ∈ {4, 6, 8, 12}, some nondeterministic."""
    for n in (4, 6, 8, 12):
        for seed in range(60):
            yield random_plant(GeneratorParams(
                n, 3 + seed % 3, 0.3 + 0.05 * (seed % 4),
                deterministic=seed % 5 != 0, seed=seed))


def _same(got: Automaton, want: Automaton) -> None:
    assert got.alphabet == want.alphabet
    assert (got.states, got.transitions, got.initial, got.marked) == \
        (want.states, want.transitions, want.initial, want.marked)


def _same_verdict(got: Verdict, want: Verdict) -> str:
    text = json.dumps(got.to_json(), sort_keys=True)
    assert text == json.dumps(want.to_json(), sort_keys=True)
    return got.outcome


def test_observer_and_lcc_match_the_reference_loops():
    kinds = {"observer": set(), "lcc": set()}
    for g in _plants():
        kinds["observer"].add(
            _same_verdict(check_observer(g), ref_check_observer(g)))
        kinds["lcc"].add(_same_verdict(check_lcc(g), ref_check_lcc(g)))
    assert kinds == {"observer": {"holds", "violated"},
                     "lcc": {"holds", "violated"}}


def test_controllability_matches_the_reference_loop():
    outcomes = set()
    for i, g in enumerate(_plants()):
        k = random_sublanguage(g, 0.3, i)
        outcomes.add(_same_verdict(check_controllability(k, g),
                                   ref_check_controllability(k, g)))
    assert outcomes == {"holds", "violated"}


def test_observability_matches_the_determinized_tables():
    outcomes = {"observability": set(), "relative-observability": set()}
    for i, g in enumerate(_plants()):
        c = random_sublanguage(g, 0.15, i)
        k = random_sublanguage(c, 0.3, i + 1)
        outcomes["observability"].add(_same_verdict(
            check_observability(k, g),
            ref_observability(k, k, g, g.alphabet.controllable,
                              "observability")))
        outcomes["relative-observability"].add(_same_verdict(
            check_relative_observability(k, c, g),
            ref_observability(k, c, g, g.alphabet.names,
                              "relative-observability")))
    assert outcomes == {"observability": {"holds", "violated"},
                        "relative-observability": {"holds", "violated"}}


def test_parallel_compose_matches_the_reference_moves():
    nfas = [random_nfa(GeneratorParams(2 + s % 4, 1 + s % 3, 0.4, seed=s))
            for s in range(30)]
    for a, b in zip(nfas, nfas[1:] + nfas[:1]):
        _same(parallel_compose(a, b), ref_parallel_compose(a, b))
    # silent moves, which the constructor eliminates where it is built
    a = max(nfas, key=lambda x: len(x.transitions))
    raw = frozenset((p, None if e == "a1" else e, q)
                    for p, e, q in a.transitions)
    assert None in {e for _, e, _ in raw}
    silent = Automaton(a.alphabet, a.states, raw, a.initial, a.marked)
    assert None not in {e for _, e, _ in silent.transitions}
    _same(parallel_compose(silent, a), ref_parallel_compose(silent, a))


def test_pair_products_match_the_reference_moves():
    for g in itertools.islice(_plants(), 0, None, 4):
        ctx = build_context(g)
        for a, b, sync in ((ctx.plant, ctx.plant, ctx.alphabet.observable),
                           (ctx.abstraction, ctx.abstraction, ctx.shared),
                           (ctx.plant, ctx.abstraction, ctx.shared)):
            _same(sync_pair_compose(a, b, sync),
                  ref_sync_pair_compose(a, b, sync))


# ---------------------------------------------------------------------------
# first_path

DIAMOND = {0: (("a", 1), ("b", 2)), 1: (("a", 3),), 2: (("b", 3),),
           3: (("a", 0),)}


def _recording(graph, goal=()):
    tested = []

    def test(node):
        tested.append(node)
        return f"v{node}" if node in goal else None

    return tested, lambda node: graph[node], test


def test_first_path_tests_each_node_once_in_discovery_order():
    tested, moves, test = _recording(DIAMOND)
    assert first_path([0], moves, test) is None
    assert tested == [0, 1, 2, 3]


def test_first_path_tests_duplicate_starts_once():
    tested, moves, test = _recording(DIAMOND)
    assert first_path([2, 0, 2], moves, test) is None
    assert tested == [2, 0, 3, 1]


def test_first_path_breaks_ties_by_the_order_of_moves():
    tested, moves, test = _recording(DIAMOND, goal={3})
    assert first_path([0], moves, test) == (("a", "a"), "v3")
    flipped = {node: steps[::-1] for node, steps in DIAMOND.items()}
    tested, moves, test = _recording(flipped, goal={3})
    assert first_path([0], moves, test) == (("b", "b"), "v3")
    assert tested == [0, 2, 1, 3]


def test_first_path_gives_a_failing_start_the_empty_word():
    tested, moves, test = _recording(DIAMOND, goal={1, 2})
    assert first_path([0, 2, 1], moves, test) == ((), "v2")
    assert tested == [0, 2]


# ---------------------------------------------------------------------------
# the kernel's contract, over small graphs and automata

def ref_first_path(starts, moves, test):
    """`first_path` as its own loop was written before the kernel."""
    parent = dict.fromkeys(starts)
    for node in parent:
        value = test(node)
        if value:
            return (), value
    queue = list(parent)
    for node in queue:
        for e, nxt in moves(node):
            if nxt not in parent:
                parent[nxt] = (node, e)
                value = test(nxt)
                if value:
                    return path_word(parent, nxt), value
                queue.append(nxt)
    return None


def ref_included(a, b) -> bool:
    """`included` as its own antichain loop was written before the
    kernel."""
    starts, moves, bad = automata._difference_product(a, b)
    minimal: dict = {}
    queue = []

    def reach(node) -> bool:
        q, m = node
        kept = minimal.setdefault(q, [])
        if any(k & m == k for k in kept):
            return True
        if bad(node):
            return False
        kept[:] = [k for k in kept if k & m != m]
        kept.append(m)
        queue.append(node)
        return True

    if not all(map(reach, starts)):
        return False
    for node in queue:
        if node[1] in minimal[node[0]]:
            if not all(reach(nxt) for _, nxt in moves(node)):
                return False
    return True


@st.composite
def graphs(draw, max_nodes=6):
    """(steps, starts, goal): node -> its (event, node) steps in order,
    start nodes with repeats, and the nodes a test accepts."""
    n = draw(st.integers(1, max_nodes))
    nodes = st.integers(0, n - 1)
    steps = {v: draw(st.lists(st.tuples(st.sampled_from("ab"), nodes),
                              max_size=4)) for v in range(n)}
    return (steps, draw(st.lists(nodes, max_size=3)),
            draw(st.frozensets(nodes)))


def _tested(goal):
    tested = []

    def test(node):
        tested.append(node)
        return f"v{node}" if node in goal else None

    return tested, test


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_discovery_order_and_words_are_those_of_the_old_loop(graph):
    steps, starts, goal = graph
    tested, test = _tested(goal)
    got = first_path(starts, steps.__getitem__, test)
    ref_tested, ref_test = _tested(goal)
    assert got == ref_first_path(starts, steps.__getitem__, ref_test)
    assert tested == ref_tested


def _fresh(steps, starts, test=None) -> tuple:
    """(result, index, queue, parent) of a `_search` from nothing."""
    index, queue, parent = {}, [], []
    found = _search(index, queue, parent, steps.__getitem__, starts, test)
    return found, index, queue, parent


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_a_resume_goes_on_from_where_the_search_stopped(graph):
    # each accepted node once, in discovery order, and at the end the
    # whole search
    steps, starts, goal = graph
    index, queue, parent, found, done = {}, [], [], [], 0
    while (hit := _search(index, queue, parent, steps.__getitem__, starts,
                          goal.__contains__, done=done)) is not None:
        found.append(hit[0])
        done = 0 if parent[hit[0]] is None else parent[hit[0]][0]
    _, _, whole, whole_parent = _fresh(steps, starts)
    assert (queue, parent) == (whole, whole_parent)
    assert found == [i for i, node in enumerate(whole) if node in goal]


@settings(max_examples=300, deadline=None)
@given(graphs(), st.data())
def test_a_resume_after_a_cut_back_is_a_fresh_search(graph, data):
    # The caller's protocol (`checks._PairSearch`): the node whose steps
    # change holds the node the search stopped at, or the search is done.
    # Cut back to just before its discovery, the search goes on as a fresh
    # search over the pruned steps does, round after round.
    steps, starts, goal = graph
    steps = {v: list(s) for v, s in steps.items()}
    found, index, queue, parent = _fresh(steps, starts, goal.__contains__)
    for _ in range(4):
        last = len(queue) - 1 if found is None else found[0]
        if last < 0:
            break
        j = data.draw(st.integers(0, last))
        del steps[queue[j]][data.draw(st.integers(0, len(steps[queue[j]]))):]
        done = 0 if parent[j] is None else parent[j][0]
        for _ in range(len(queue) - j):
            index.popitem()
        del queue[j:], parent[j:]
        found = _search(index, queue, parent, steps.__getitem__, starts,
                        goal.__contains__, done=done)
        assert (found, index, queue, parent) == \
            _fresh(steps, starts, goal.__contains__)


@settings(max_examples=200, deadline=None)
@given(nfas(), nfas())
def test_the_antichain_skip_rule_answers_as_the_old_loop(a, b):
    # the same answer from the same nodes expanded in the same order
    product = automata._difference_product

    def expansions(inclusion) -> tuple:
        expanded = []

        def counted(a, b):
            starts, moves, bad = product(a, b)
            return starts, lambda node: expanded.append(node) or moves(node), bad

        automata._difference_product = counted
        try:
            return inclusion(a, b), expanded
        finally:
            automata._difference_product = product

    got = expansions(included)
    assert got == expansions(ref_included)
    assert got[0] == ref_includes(a, b).holds


# ---------------------------------------------------------------------------
# iter_marked_words on a finite language with a dead cycle

def test_unbounded_enumeration_of_a_finite_language_ends():
    # 0 -a-> 1 (marked), 0 -b-> 2 -b-> 2: the b-cycle reaches no marked
    # state, and the enumeration kept extending words through it. A child
    # process, so that a hang fails the test instead of the suite.
    code = ("from hierctl.automata import Automaton, iter_marked_words\n"
            "from conftest import make_alphabet\n"
            "a = Automaton.make(make_alphabet('ab'), (0, 1, 2),\n"
            "    [(0, 'a', 1), (0, 'b', 2), (2, 'b', 2)], {0}, {1})\n"
            "print(list(iter_marked_words(a)))\n")
    path = os.pathsep.join([str(SRC), str(Path(__file__).parent)])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=20,
                          env={**os.environ, "PYTHONPATH": path})
    assert (done.returncode, done.stdout) == (0, "[('a',)]\n")


def test_dead_steps_change_no_bounded_word():
    # the same words, in the same order, as a frozenset enumeration that
    # keeps every step
    def reference(a, bound):
        queue = deque([((), frozenset(a.initial))]) if a.initial else deque()
        while queue:
            word, cur = queue.popleft()
            if cur & a.marked:
                yield word
            if len(word) < bound:
                for e in a.alphabet.names:
                    nxt = a.step(cur, e)
                    if nxt:
                        queue.append((word + (e,), nxt))

    ab = make_alphabet("ab")
    for s in range(40):
        a = random_nfa(GeneratorParams(2 + s % 5, 2, 0.35, seed=s))
        a = Automaton(ab, a.states, frozenset(
            (p, "ab"[int(e[1:]) % 2], q) for p, e, q in a.transitions),
            a.initial, a.marked)
        assert list(iter_marked_words(a, 5)) == list(reference(a, 5))
