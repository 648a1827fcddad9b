from __future__ import annotations

import collections
import functools
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import tracemalloc
from itertools import islice
from pathlib import Path

import pytest

from hierctl import automata, checks, hierarchy, oracle
from hierctl.automata import (Alphabet, Automaton, Event, Implicit,
                              all_marked, closure, determinize,
                              enumerate_bounded, explore, includes,
                              intersect, inverse_project, is_empty,
                              is_prefix_closed,
                              iter_difference_words, language_equal,
                              merge_alphabets, parallel_compose, project,
                              right_quotient, widen_alphabet,
                              word_automaton)
from hierctl.gadgets import (GeneratorParams, gadget_loc, gadget_moc,
                             gadget_oc, is_universal, random_nfa,
                             random_plant, random_sublanguage)
from hierctl.hierarchy import (HierarchyContext, PreconditionError,
                               _interleaving_table, _pair_operands,
                               build_context,
                               check_lcc, check_loc, check_moc,
                               check_moc_modular, check_observer, check_oc,
                               conform_spec, hier_synth_normal,
                               hier_synth_relobs, hier_verify,
                               lemma_distribute_q,
                               moc_structurally_guaranteed)

from hierctl.relations import (build_quad, decompose_sequence, label_name,
                               normal_forms, pair_alphabet, quad_alphabet)
from hierctl.verdicts import Verdict

from conftest import (agreement_plants, cli_small_inputs, loc_plants,
                      make_alphabet, pair_operands, record_built,
                      replays_violation, searched, tree)


class TestConsistencyChecks:
    """The running seven-word example exercises every verdict shape."""

    def test_oc_holds(self, ex1_plant):
        assert check_oc(ex1_plant).holds

    def test_moc_violated_with_witness(self, ex1_plant):
        v = check_moc(ex1_plant)
        assert v.violated
        w = v.witness.strings
        assert w["s"] == ("c",)
        assert w["t_prime"] == ("b", "c")

    def test_loc_violated(self, ex1_plant):
        v = check_loc(ex1_plant)
        assert v.violated
        assert v.witness.strings["e"] == ("b",)

    def test_observer_violated(self, ex1_plant):
        v = check_observer(ex1_plant)
        assert v.violated
        # Q promises a high-level continuation that the low level cannot
        # realize after the observationally equivalent string.
        assert "t" in v.witness.strings

    def test_lcc_holds(self, ex1_plant):
        assert check_lcc(ex1_plant).holds

    def test_moc_structurally_guaranteed(self):
        al = make_alphabet("ab", observable="ab", highlevel="a")
        assert moc_structurally_guaranteed(al)
        al2 = make_alphabet("ab", observable="a", highlevel="ab")
        assert moc_structurally_guaranteed(al2)
        al3 = make_alphabet("ab", observable="a", highlevel="b")
        assert not moc_structurally_guaranteed(al3)

    def test_structural_guarantee_means_moc_holds(self):
        # the checks decide these from the alphabet alone, so the product
        # search and the bounded oracles referee that decision
        nested = 0
        for seed in range(20):
            g = random_plant(GeneratorParams(seed=seed + 300))
            ctx = build_context(g)
            if moc_structurally_guaranteed(ctx.alphabet):
                assert check_moc(g).holds, f"seed={seed}"
                for kind in ("oc", "moc"):
                    assert searched(ctx, kind).holds, f"seed={seed} {kind}"
                assert oracle.oracle_oc(g, 4).ok, f"seed={seed}"
                assert oracle.oracle_moc(g, 4).ok, f"seed={seed}"
                nested += 1
        assert nested

    def test_moc_implies_oc_on_verdicts(self):
        for seed in range(40):
            g = random_plant(GeneratorParams(
                states=3 + seed % 3, events=2 + seed % 3,
                transition_density=0.35, seed=seed))
            ctx = build_context(g)
            if check_moc(ctx, budget=2000).holds:
                assert not check_oc(ctx, budget=2000).violated, f"seed={seed}"


def _ordered(a: Implicit, order) -> Implicit:
    """`a` as an `Implicit` over the same keys whose successor maps hold
    their labels in the order `order(key)` lists them."""
    succ = a.succ

    def moves(key):
        steps = succ[key]
        for e in order(key):
            for t in steps.get(e, ()):
                yield e, t

    return Implicit(a.alphabet, a.sorted_states(a.initial), moves,
                    a.marked.__contains__)


def _difference_expansions(a, b, words: int) -> list:
    """The nodes whose moves the searches of `iter_difference_words(a, b)`
    read up to its `words`-th word, in order: those of each `first_path`,
    and of any search of `_difference_product`."""
    expanded = []
    search, product = automata.first_path, automata._difference_product

    def counted(moves):
        def reading(node):
            expanded.append(node)
            return moves(node)

        return reading

    def first_path(starts, moves, test):
        return search(starts, counted(moves), test)

    def difference_product(a, b):
        starts, moves, bad = product(a, b)
        return starts, counted(moves), bad

    automata.first_path = first_path
    automata._difference_product = difference_product
    try:
        found = list(islice(iter_difference_words(a, b), words))
    finally:
        automata.first_path, automata._difference_product = search, product
    assert len(found) == words
    return expanded


def _oc_operands(g: Automaton) -> tuple:
    """The two sides of check_oc's inclusion: the implicit left one and
    the right one built as an automaton."""
    return _pair_operands(build_context(g), "oc")[0], pair_operands(g, "oc")[1]


# OC is violated at its first difference sequence here, but a depth-first
# liveness search wandered deep into the right side's subsets before it
# reached it. The probes below take the second word, so they run the
# liveness searches that the words after the first need.
WANDER_PLANT = GeneratorParams(16, 5, 0.35, seed=1000)
# subset pairs expanded up to the second word; wandering made over 100,000
# bad-node tests
WANDER_BOUND = 10_000


def _oc_wander_probe() -> list:
    """check_oc on WANDER_PLANT, and the subset pairs that the searches of
    its difference words expand up to the second word."""
    g = random_plant(WANDER_PLANT)
    v = check_oc(g, 2000)
    return [v.outcome, v.detail,
            len(_difference_expansions(*_oc_operands(g), 2))]


@functools.cache
def _forced_order_work() -> tuple:
    """The subset pairs the same searches expand with each state's
    successor map forced into an order: the alphabet's, its reverse, and
    per-state shuffles. The hash seed does not fix the order in which a
    `succ` map holds its events: that follows set iteration, and tuples
    holding None hash differently in each process before Python 3.12."""
    la, ra = _oc_operands(random_plant(WANDER_PLANT))
    names = la.alphabet.names
    rng = random.Random(0)
    orders = [lambda q: names, lambda q: names[::-1]] + \
        [lambda q: rng.sample(names, len(names))] * 4
    return tuple(len(_difference_expansions(_ordered(la, order), ra, 2))
                 for order in orders)


def _probe(call: str, hash_seed: str):
    """The JSON value of `call`, an expression over this module's names,
    evaluated in a fresh interpreter under PYTHONHASHSEED=`hash_seed`."""
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(filter(None, (
                   str(tests.parent / "src"), str(tests),
                   os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys, test_hierarchy as t; "
         "print(json.dumps(eval(sys.argv[1], vars(t))))", call],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# plants/n8-s3 and plants/n32-s3 of the benchmark: OC on the first and MOC
# on the second refute a whole budget of 2,000 tuples
N8_S3 = GeneratorParams(8, 5, 0.4, seed=3)
N32_S3 = GeneratorParams(32, 5, 0.35, seed=3)
# plants/n32-s9: OC is violated at its second sequence
N32_S9 = GeneratorParams(32, 5, 0.35, seed=9)
# LOC holds here without a difference sequence
N16_S10 = GeneratorParams(16, 5, 0.35, seed=10)


def _succ_reads(check: str, params) -> list:
    """[outcome, detail, plant successor maps read] of the check at budget
    2,000 on `random_plant(params)`."""
    ctx = build_context(random_plant(params))
    reads = []

    class Counting(dict):
        def __getitem__(self, q):
            reads.append(q)
            return dict.__getitem__(self, q)

    ctx.plant.__dict__["succ"] = Counting(ctx.plant.succ)
    v = getattr(hierarchy, "check_" + check)(ctx, 2000)
    return [v.outcome, v.detail, len(reads)]


# OC holds on both; the frontier plant took 535,417 product-node expansions
# and 12.7 s when OC proved "holds" by the normal-form liveness search alone
N32_S4 = GeneratorParams(32, 5, 0.35, seed=4)
N128_S1 = GeneratorParams(128, 5, 0.35, seed=1)


def _expansions(check: str, params) -> list:
    """[outcome, detail, product nodes expanded] of the check's product
    search at budget 2,000 on `random_plant(params)`, whose alphabet alone
    would decide it: the nodes whose steps a search of
    `_difference_product` read, in the antichain inclusion or the
    difference search."""
    expanded = [0]
    product = automata._difference_product

    def counting(a, b):
        starts, moves, bad = product(a, b)

        def counted(node):
            expanded[0] += 1
            return moves(node)

        return starts, counted, bad

    automata._difference_product = counting
    try:
        v = searched(random_plant(params), check)
    finally:
        automata._difference_product = product
    return [v.outcome, v.detail, expanded[0]]


class TestAntichainInclusion:
    """OC and MOC prove "holds" by one antichain inclusion over plain
    operands, before any normal-form search."""

    def test_frontier_oc_holds_within_a_node_bound(self):
        outcome, detail, expanded = _expansions("oc", N128_S1)
        assert (outcome, detail) == ("holds", {})
        assert expanded <= 40_000

    def test_precheck_work_is_independent_of_hash_seed(self):
        work = [_probe(f"_expansions('oc', {N32_S4!r})", seed)
                for seed in ("0", "1")]
        assert work[0] == work[1] == _expansions("oc", N32_S4)
        assert work[0][:2] == ["holds", {}]


class TestRefutationRegressions:
    """Pinned refutation-loop verdicts, witnesses and details."""

    @pytest.mark.parametrize("hash_seed", ["2", "3"])
    def test_oc_search_work_is_independent_of_hash_seed(self, hash_seed):
        # Under these string hash seeds a fresh search per liveness query
        # took over 5 s here, making over 120,000 bad-node tests. The
        # searches over subset pairs expand 116 up to the second word, and
        # exactly as many in every process: they step each pair's letters
        # in alphabet order.
        outcome, detail, work = _probe("_oc_wander_probe()", hash_seed)
        assert outcome == "violated" and detail == {"examined": 1}
        assert work <= WANDER_BOUND
        # the same work as this process does under every forced order
        assert set(_forced_order_work()) == {work}

    @pytest.mark.parametrize("check, params", [("oc", N8_S3),
                                               ("loc", N16_S10)],
                             ids=["oc", "loc"])
    def test_oc_confirmation_work_is_independent_of_hash_seed(self, check,
                                                              params):
        # A depth-first search over plant states read the plant's successor
        # maps in the order they hold their events, which follows the
        # string hash seed: OC read 3,788 and 5,082 under these two, and LOC
        # 1,440 and 1,494. OC's interleaving table steps subsets of its
        # right side, whose rows step the plant's `rows` in state order, and
        # LOC steps plant subsets by `rows` in alphabet order and closes
        # their pairs under the same low-level moves.
        reads = [_probe(f"_succ_reads({check!r}, {params!r})", seed)
                 for seed in ("0", "1")]
        assert reads[0] == reads[1] == _succ_reads(check, params)
        assert reads[0][2] <= 500

    @pytest.mark.parametrize("check, params", [("oc", N8_S3), ("moc", N32_S3)],
                             ids=["oc", "moc"])
    def test_examined_sequences_hold_distinct_tuples(self, monkeypatch,
                                                     check, params):
        # One sequence per tuple, its normal form: OC here examined 2,000
        # interleavings of 202 tuples, and MOC 2,000 of 55. Each examined
        # sequence reaches the table as its key, which spells it.
        tuples = []
        table = hierarchy._interleaving_table

        def recording(la, ra):
            empty, step, exists = table(la, ra)

            def asked(key):
                tuples.append(decompose_sequence(hierarchy._spelled(key)))
                return exists(key)

            return empty, step, asked

        monkeypatch.setattr(hierarchy, "_interleaving_table", recording)
        v = getattr(hierarchy, "check_" + check)(random_plant(params), 2000)
        assert v.inconclusive and v.detail["refuted"] == 2000
        assert len(set(tuples)) == len(tuples) == 2000

    @pytest.mark.parametrize("check, params, spelled", [
        ("oc", N8_S3, 0), ("moc", N32_S3, 0), ("oc", N32_S9, 1)],
        ids=["oc-inconclusive", "moc-inconclusive", "oc-violated"])
    def test_only_a_confirmed_tuple_is_spelled(self, monkeypatch, check,
                                               params, spelled):
        # The enumeration yields each difference sequence as its key in
        # the interleaving table, so a refuted tuple builds no word and is
        # not decomposed: only the witness is. When the enumeration yielded
        # words, each of the 2,000 refuted tuples here was decomposed.
        calls = []
        decompose = hierarchy.decompose_sequence

        def counting(*args):
            calls.append(args)
            return decompose(*args)

        monkeypatch.setattr(hierarchy, "decompose_sequence", counting)
        v = getattr(hierarchy, "check_" + check)(random_plant(params), 2000)
        assert v.violated == bool(spelled)
        assert len(calls) == spelled

    def test_oc_moc_verdicts_are_pinned(self):
        # One digest of the OC and MOC verdicts, witnesses and details
        # included, on the plants of the benchmark's population 0, which
        # hold n8-s3 and n32-s3 (2,000 tuples refuted), n32-s9 (violated
        # at the second sequence) and 25 other violations. Recorded before
        # the enumeration came to carry table keys in place of words.
        reports = []
        for n, density, count in ((8, 0.4, 20), (16, 0.35, 12),
                                  (32, 0.35, 12)):
            for seed in range(count):
                g = random_plant(GeneratorParams(n, 5, density, seed=seed))
                reports += [check_oc(g, 2000).to_json(),
                            check_moc(g, 2000).to_json()]
        assert collections.Counter(r["verdict"] for r in reports) == {
            "holds": 58, "violated": 28, "inconclusive": 2}
        digest = hashlib.sha256(json.dumps(reports).encode()).hexdigest()
        assert digest == (
            "a07eef8265ca580fede4730cf15728aaddd73fc919814fbc17436de6aabdda27")

    def test_observer_verdicts_are_pinned(self):
        # One digest of the observer verdicts and witnesses on the plants
        # of the benchmark's populations 0 and 1. Recorded before the
        # observer's per-pair searches came to share the difference search
        # of `iter_difference_words`.
        reports = []
        for base in (0, 1000):
            for n, density, count in ((8, 0.4, 20), (16, 0.35, 12),
                                      (32, 0.35, 12)):
                for seed in range(base, base + count):
                    g = random_plant(GeneratorParams(n, 5, density, seed=seed))
                    reports.append(check_observer(g).to_json())
        assert collections.Counter(r["verdict"] for r in reports) == {
            "holds": 36, "violated": 52}
        digest = hashlib.sha256(json.dumps(reports).encode()).hexdigest()
        assert digest == (
            "7e601eac0672c42880d2ff8dee04c7dd93c5758d24d77566186c3b4d1273f71b")

    def test_oc_search_work_is_independent_of_successor_order(self):
        work = _forced_order_work()
        assert len(set(work)) == 1 and work[0] <= WANDER_BOUND

    def test_second_sequence_expands_few_subset_pairs(self):
        # A Tarjan pass over (state, subset) nodes expanded 2,780 for the
        # second sequence of check_oc here; the searches over subset pairs
        # expand 245.
        la, ra = _pair_operands(build_context(random_plant(N32_S9)), "oc")
        assert len(_difference_expansions(normal_forms(la), ra, 2)) <= 1000

    def test_oc_violated_at_second_sequence(self):
        g = random_plant(N32_S9)
        v = check_oc(g, 2000)
        assert v.violated
        assert v.detail == {"examined": 2}
        t, tp = v.witness.strings["t"], v.witness.strings["t_prime"]
        assert (t, tp) == (("e3", "e0", "e0", "e4", "e0"), ("e3",))
        # exact replay: the bounded oracle_oc misses it even at bound 6
        shared = build_context(g).shared
        assert [x for x in t if x in shared] == [x for x in tp if x in shared]
        assert not oracle._exists_oc_pair(oracle._gen_rec(g), t, tp)

    def test_refutation_reads_its_words_from_iter_marked_words(
            self, monkeypatch):
        # The difference search ends in the one word enumerator, so a
        # layer trace that wraps it counts every sequence a check examines.
        # It yields each sequence as its interleaving-table key.
        yielded = []
        enumerate_words = automata.iter_marked_words

        def counting(*args):
            for word in enumerate_words(*args):
                yielded.append(word)
                yield word

        monkeypatch.setattr(automata, "iter_marked_words", counting)
        v = check_oc(random_plant(N32_S9), 2000)
        assert v.violated and v.detail == {"examined": 2}
        assert len(yielded) == 2
        assert tuple(map(label_name, hierarchy._spelled(yielded[-1]))) == \
            v.witness.strings["sequence"]

    def test_oc_violated_on_large_difference(self):
        g = random_plant(GeneratorParams(24, 4, 0.4, seed=3))
        v = check_oc(g)
        assert v.violated
        assert v.witness.strings["sequence"] == ("e3:-", "e1:-")

    @staticmethod
    def _nfa(seed: int) -> Automaton:
        return random_nfa(GeneratorParams(2 + seed % 3, 2 + seed % 2, 0.35,
                                          seed=seed))

    def test_universal_moc_gadget_holds(self):
        # Every normal form of the left operand lies in the right one, so
        # the difference search yields nothing: a bare holds. Reading every
        # interleaving, the check refuted 3,000 sequences of a few pairs
        # and was inconclusive.
        a = self._nfa(8)
        assert is_universal(a)
        v = check_moc(gadget_moc(a), 3000)
        assert v.holds and v.detail == {}

    def test_moc_gadget_violated_at_first_sequence(self):
        v = check_moc(gadget_moc(self._nfa(5)), 3000)
        assert v.violated
        assert v.detail == {"examined": 1}
        assert v.witness.strings == {"s": ("#", "a0"), "t_prime": ("a0",),
                                     "sequence": ("#:-", "a0:a0")}


# Event names built from the characters of the pair/quad display layout,
# and state names built from those of product and subset state names.
ODD_EVENTS = ({"b": "p|q"}, {"b": "x:y"}, {"b": "-"}, {"a": "a:-"},
              {"a": "(x,y)"}, {"c": "{b}'"}, {"c": "c|-:d"},
              {"a": "a:-", "b": "p|q", "c": "c|-:d"},
              {"a": "-", "b": "x:y", "c": "{b}'"},
              {"a": "(x,y)", "b": "-", "c": "x:y"})
ODD_STATES = {"n0": "{n0,x}|(n0)", "n1": "(n1)", "n2": "n2|n3",
              "n3": "{n3}", "n5": "n5,'", "n6": "-:-"}


def _renamed(g: Automaton, events: dict, states: dict) -> Automaton:
    ev = lambda x: events.get(x, x)
    st = lambda q: states.get(q, q)
    alphabet = Alphabet(tuple(Event(ev(e.name), *e.flags)
                              for e in g.alphabet.events))
    return Automaton(alphabet, tuple(map(st, g.states)),
                     frozenset((st(p), ev(x), st(q))
                               for (p, x, q) in g.transitions),
                     frozenset(map(st, g.initial)),
                     frozenset(map(st, g.marked)))


class TestOddNames:
    """Verdicts and witnesses do not depend on how events and states are
    named, even when names look like pair or quad labels."""

    CHECKS = {"oc": (check_oc, oracle.oracle_oc),
              "moc": (check_moc, oracle.oracle_moc),
              "loc": (check_loc, oracle.oracle_loc)}

    @pytest.mark.parametrize("states", [{}, ODD_STATES],
                             ids=["plain-states", "odd-states"])
    @pytest.mark.parametrize("events", ODD_EVENTS,
                             ids=lambda m: ",".join(map(str, m.values())))
    def test_renamed_plant_keeps_verdicts_and_witnesses(self, ex1_plant,
                                                        events, states):
        g = _renamed(ex1_plant, events, states)

        def rename_label(name):
            # the original names a, b, c hold no ':', '|' or '-'
            return "|".join(":".join(events.get(x, x) for x in pair.split(":"))
                            for pair in name.split("|"))

        for prop, (check, oracle_check) in self.CHECKS.items():
            want, got = check(ex1_plant), check(g)
            assert got.outcome == want.outcome, prop
            assert got.detail == want.detail, prop
            assert oracle_check(g, 6).ok == got.holds, prop
            if want.witness is None:
                assert got.witness is None, prop
                continue
            expected = {k: tuple(map(rename_label, v)) if k == "sequence"
                        else tuple(events.get(x, x) for x in v)
                        for k, v in want.witness.strings.items()}
            assert got.witness.strings == expected, prop


class TestStateCollisions:
    """Product and subset states are numbered, never named, so a state
    whose name spells a subset or pair of other names is a state of its
    own."""

    CHECKS = {"observer": (check_observer, oracle.oracle_observer),
              "lcc": (check_lcc, oracle.oracle_lcc),
              "oc": (check_oc, oracle.oracle_oc),
              "moc": (check_moc, oracle.oracle_moc),
              "loc": (check_loc, oracle.oracle_loc)}

    @staticmethod
    def _plant(third: str) -> Automaton:
        # {p, q} is the subset after "a"; the state `third` is reached by "b"
        al = make_alphabet("ab", controllable="a", observable="a",
                           highlevel="a")
        return all_marked(Automaton(
            al, ("p", "q", third),
            frozenset({("p", "a", "p"), ("p", "a", "q"), ("p", "b", third)}),
            frozenset({"p"}), frozenset()))

    @pytest.mark.parametrize("prop", CHECKS)
    def test_subset_named_state_keeps_verdicts(self, prop):
        check, oracle_check = self.CHECKS[prop]
        g = self._plant("p,q")
        want, got = check(self._plant("r")), check(g)
        assert got.outcome == want.outcome
        assert got.detail == want.detail
        assert got.witness == want.witness
        # a checker given the plant's context decides as given the plant
        assert check(build_context(g)).to_json() == got.to_json()
        assert oracle_check(g, 6).ok == got.holds

    def test_outcomes_of_the_plain_plant(self):
        g = self._plant("r")
        assert [self.CHECKS[p][0](g).outcome for p in
                ("observer", "lcc", "loc")] == ["violated", "holds",
                                                "violated"]

    def test_determinize_keeps_every_subset(self):
        d = determinize(self._plant("p,q"))
        assert len(d.states) == 3
        assert language_equal(d, self._plant("p,q"))

    def test_parallel_compose_keeps_every_pair(self):
        left = all_marked(Automaton(make_alphabet("a"), ("x|y", "x"),
                                    frozenset({("x|y", "a", "x")}),
                                    frozenset({"x|y"}), frozenset()))
        right = all_marked(Automaton(make_alphabet("b"), ("z", "y|z"),
                                     frozenset({("z", "b", "y|z")}),
                                     frozenset({"z"}), frozenset()))
        prod = parallel_compose(left, right)
        assert len(prod.states) == 4
        assert enumerate_bounded(prod, 2) == [(), ("a",), ("b",), ("a", "b"),
                                              ("b", "a")]


# The automaton constructions the confirmation searches replaced; they are
# the reference the searches must agree with.

def _restricted_language(ctx, t):
    """Recognizer of P(Q⁻¹(t) ∩ L) over the observable sub-alphabet."""
    tw = word_automaton(t, ctx.q.target_alphabet)
    return project(intersect(inverse_project(tw, ctx.q), ctx.plant), ctx.p)


def _reference_oc(ctx, t, tp):
    return not is_empty(intersect(_restricted_language(ctx, t),
                                  _restricted_language(ctx, tp)))


def _oc_pair_exists(ctx, t, tp):
    """∃ s, s' ∈ L with Q(s) = t, Q(s') = tp and P(s) = P(s'): the
    search over nodes (p, i, q, j) that OC ran per tuple before its
    confirmation table. The left path is at p after spelling t[:i] at the
    high level, the right one at q after tp[:j]; an observable event moves
    both, an unobservable one either."""
    hi, obs = ctx.alphabet.highlevel, ctx.alphabet.observable

    def moves(q, word, i):
        for e, targets in ctx.plant.succ[q].items():
            if e not in hi:
                j = i
            elif i < len(word) and word[i] == e:
                j = i + 1
            else:
                continue
            for r in targets:
                yield e, r, j

    def step(node):
        p, i, q, j = node
        right = list(moves(q, tp, j))
        for e, pn, ni in moves(p, t, i):
            if e not in obs:
                yield pn, ni, q, j
                continue
            for f, qn, nj in right:
                if f == e:
                    yield pn, ni, qn, nj
        for f, qn, nj in right:
            if f not in obs:
                yield p, i, qn, nj

    init = ctx.plant.initial
    reached = closure({(p, 0, q, 0) for p in init for q in init}, step)
    return any(i == len(t) and j == len(tp) for _, i, _, j in reached)


def _reference_moc(ctx, s, tp):
    probe = word_automaton(ctx.p.apply(s), ctx.p.target_alphabet)
    return not is_empty(intersect(probe, _restricted_language(ctx, tp)))


def _reference_loc(ctx, s, sp, e):
    plant = ctx.plant
    low = ctx.alphabet.lowlevel
    trans = frozenset(t for t in plant.transitions if t[1] in low)
    enabled = frozenset(q for q in plant.states if plant.succ[q].get(e))

    def continuations(w):
        probe = Automaton(ctx.alphabet, plant.states, trans,
                          frozenset(plant.run(w)), enabled)
        return project(probe, ctx.p)

    return not is_empty(intersect(continuations(s), continuations(sp)))


def _continuations_meet(ctx, s, sp, e) -> bool:
    """check_loc's test: the `_plant_pairs` closure of run(s) × run(s')
    under the low-level moves meets a pair of states that both enable e."""
    column, _, closing, low = ctx.plant_pairs
    index, plant = ctx.plant.state_index, ctx.plant
    enable = sum(1 << i for i, row in enumerate(plant.rows) if e in row)
    run = [sum(1 << index[q] for q in plant.run(w)) for w in (s, sp)]
    return bool(closing(low)(column(run[0]) * run[1])
                & column(enable) * enable)


def _table(ctx, kind):
    """`exists(u, v)` of the interleaving table of check_oc's (`kind`
    "oc") or check_moc's ("moc") operands: the key of (u, v) is folded
    from the table's empty key, u by left-only steps and v by right-only
    ones, and asked."""
    empty, step, exists = _interleaving_table(*_pair_operands(ctx, kind))

    def ask(u, v) -> bool:
        labels = [(e, None) for e in u] + [(None, f) for f in v]
        return exists(functools.reduce(step, labels, empty))

    return ask


def _accepts_interleaving(ref, u, v, labels) -> bool:
    """Does `ref` accept some sequence over the pair `labels` that
    decomposes into (u, v)? A depth-first search over those sequences that
    drops a prefix once `ref` cannot read it."""
    stack = [(u, v, frozenset(ref.initial))]
    while stack:
        u, v, states = stack.pop()
        if not u and not v and states & ref.marked:
            return True
        steps = []   # (label, rest of u, rest of v)
        if u:
            steps.append(((u[0], None), u[1:], v))
        if v:
            steps.append(((None, v[0]), u, v[1:]))
        if u and v and u[0] == v[0]:
            steps.append(((u[0], u[0]), u[1:], v[1:]))
        for label, ru, rv in steps:
            nxt = ref.step(states, label) if label in labels else None
            if nxt:
                stack.append((ru, rv, nxt))
    return False


class TestConfirmationSearches:
    """The exact searches agree with the automaton constructions they
    replaced and with the independent oracle searches."""

    def test_searches_agree_with_constructions_and_oracle(self):
        rng = random.Random(0)
        outcomes = {"oc": set(), "moc": set(), "loc": set()}
        outside = 0
        for g in agreement_plants():
            ctx = build_context(g)
            gl = ctx.plant
            hi = sorted(ctx.alphabet.highlevel)
            words = enumerate_bounded(gl, 3)
            # every high-level string up to length 2, in Q(L) or not
            ts = sorted({ctx.q.apply(w) for w in words}
                        | {w for n in range(3)
                           for w in itertools.product(hi, repeat=n)})
            outside += sum(not oracle._q_extends(gl, t) for t in ts)
            events = sorted(ctx.alphabet.highlevel)
            # one table per plant, as in check_oc and check_moc: later
            # queries read the cells that earlier ones filled
            pair_exists = _table(ctx, "oc")
            mate_exists = _table(ctx, "moc")
            for _ in range(25):
                t, tp = rng.choice(ts), rng.choice(ts)
                got = pair_exists(t, tp)
                assert got == _oc_pair_exists(ctx, t, tp), (g, t, tp)
                assert got == _reference_oc(ctx, t, tp), (g, t, tp)
                assert got == oracle._exists_oc_pair(gl, t, tp), (g, t, tp)
                outcomes["oc"].add(got)

                s = rng.choice(words)
                got = mate_exists(s, tp)
                assert got == _reference_moc(ctx, s, tp), (g, s, tp)
                assert got == oracle._exists_moc_mate(
                    gl, ctx.p.apply(s), tp), (g, s, tp)
                outcomes["moc"].add(got)

                sp, e = rng.choice(words), rng.choice(events)
                got = _continuations_meet(ctx, s, sp, e)
                assert got == _reference_loc(ctx, s, sp, e), (g, s, sp, e)
                assert got == oracle._loc_continuations_meet(
                    gl, s, sp, e), (g, s, sp, e)
                outcomes["loc"].add(got)
        assert outside > 0
        assert all(o == {True, False} for o in outcomes.values()), outcomes

    @pytest.mark.parametrize("kind", ["oc", "moc"])
    def test_table_asks_the_right_side_for_an_interleaving(self, kind):
        # Every pair (u, v) with |u| + |v| <= 6, u in the left language
        # (Q(L) for OC, L for MOC) and v in Q(L): the table answers
        # whether the reference right side accepts an interleaving.
        answers = collections.Counter()
        for g in agreement_plants():
            ctx = build_context(g)
            la, ref = pair_operands(g, kind)
            labels = frozenset(la.alphabet.names)
            exists = _table(ctx, kind)
            vs = collections.defaultdict(list)   # length -> words of Q(L)
            for v in enumerate_bounded(ctx.abstraction, 6):
                vs[len(v)].append(v)
            left = ctx.abstraction if kind == "oc" else ctx.plant
            for u in enumerate_bounded(left, 6):
                for v in itertools.chain(*(vs[k] for k in range(7 - len(u)))):
                    want = _accepts_interleaving(ref, u, v, labels)
                    assert exists(u, v) == want, (g, u, v)
                    answers[want] += 1
        assert answers[True] > 1000 and answers[False] > 1000, answers

    def test_moc_table_reads_every_interleaving(self):
        # b: observable only, h: high-level only. s = b and s' = h b give
        # (s, t') = (b, h). The right side shows b, which moves both paths,
        # as (b, ε), so it accepts (ε, h)(b, ε) but not the normal form
        # (b, ε)(ε, h): the gap that keeps the plain inclusion from proving
        # MOC on the gadgets of universal NFAs.
        al = make_alphabet("bh", observable="b", highlevel="h")
        g = tree([("b",), ("h", "b")], al)
        _, ref = pair_operands(g, "moc")
        assert ref.accepts_marked([(None, "h"), ("b", None)])
        assert not ref.accepts_marked([("b", None), (None, "h")])
        mate_exists = _table(build_context(g), "moc")
        assert mate_exists(("b",), ("h",))
        assert not mate_exists(("b",), ("h", "h"))
        assert check_moc(g).holds

    def test_moc_cells_close_under_silent_events(self):
        # a: observable and high-level, b: observable only, u: neither
        al = make_alphabet("abu", observable="ab", highlevel="a")
        g = tree([("a", "u", "b")], al)
        mate_exists = _table(build_context(g), "moc")
        assert mate_exists(("a", "u", "b"), ("a",))
        assert not mate_exists(("a", "u", "b"), ())
        assert not mate_exists(("b",), ())

    def test_long_moc_query_needs_no_recursion(self):
        # every cell of a 5,000-letter diagonal is filled from the one
        # before it; a recursive fill would pass the recursion limit
        al = make_alphabet("a")   # observable and high-level
        g = Automaton(al, ("q",), frozenset({("q", "a", "q")}),
                      frozenset({"q"}), frozenset({"q"}))
        word = ("a",) * 5000
        assert _table(build_context(g), "moc")(word, word)

    def test_long_moc_query_keeps_little_memory(self):
        # Cells keyed by their two prefix tuples held about n² pointers:
        # a 202 MB peak for this query. Interned prefix ids keep it linear.
        al = make_alphabet("a")
        g = Automaton(al, ("q",), frozenset({("q", "a", "q")}),
                      frozenset({"q"}), frozenset({"q"}))
        word = ("a",) * 5000
        mate_exists = _table(build_context(g), "moc")
        tracemalloc.start()
        try:
            assert mate_exists(word, word)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20_000_000

    def test_low_level_moves_are_stated_once(self):
        # OC's right side erases exactly the low-level moves that LOC's
        # search closes run(s) × run(s') under, so both close with one
        # function and its memo; MOC's erases their right-path part. The
        # 75 seeds give at least 60 plants where LOC searches.
        plants = itertools.chain(
            agreement_plants(), loc_plants(),
            (random_plant(GeneratorParams(seed=seed)) for seed in range(75)))
        searched = 0
        for g in plants:
            ctx = build_context(g)
            column, step, closing, low = ctx.plant_pairs
            asked = []

            def recording(moves):
                asked.append(moves)
                return closing(moves)

            ctx.__dict__["plant_pairs"] = (column, step, recording, low)
            _pair_operands(ctx, "oc")
            check_loc(ctx, 0)
            _pair_operands(ctx, "moc")
            # LOC builds nothing on a plant where no controllable
            # high-level event labels a transition
            al = ctx.alphabet
            used = {e for _, e, _ in ctx.plant.transitions}
            loc = [low] if al.highlevel & al.controllable & used else []
            searched += bool(loc)
            assert asked == [low, *loc, tuple(m for m in low if m[0] == 1)]
            # the moves of the pair labels that `relabel_pair` erases
            for moves, keep in ((low, al.highlevel), (asked[-1], al.names)):
                assert moves == tuple(
                    (2, l) if l == r else (0, l) if r is None else (1, r)
                    for l, r in pair_alphabet(al, al, al.observable).names
                    if l not in keep and r not in al.highlevel), g
        assert searched >= 60, searched

    def test_moc_refutations_read_few_successor_maps(self):
        # A fresh plant search per candidate read 40,550 successor maps on
        # a universal MOC gadget at budget 3,000; the shared table read
        # about 7,700, and none since its cells are bitmasks stepped along
        # the plant's `rows`. The reads left are outside the table.
        outcome, detail, reads = _succ_reads("moc", N32_S3)
        assert outcome == "inconclusive" and detail["refuted"] == 2000
        assert reads <= 10_000

    def test_oc_refutations_read_few_successor_maps(self):
        # A depth-first search per tuple read 3,466-5,082 successor maps
        # here, varying with the hash seed; the interleaving table reads
        # none.
        outcome, detail, reads = _succ_reads("oc", N8_S3)
        assert outcome == "inconclusive" and detail["refuted"] == 2000
        assert reads <= 500


# The materialized LOC construction that the search over the determinized
# verifier replaced; it is the reference the search must agree with.

def _reference_append(a, labels):
    """L_m(a)·label for each of `labels`, for `a` numbered by `explore`:
    the k-th label leads from every marked state to a final state of its
    own, numbered len(a.states) + k."""
    n = len(a.states)
    ends = tuple(range(n, n + len(labels)))
    return Automaton(a.alphabet, a.states + ends,
                     a.transitions | {(q, label, end) for q in a.marked
                                      for label, end in zip(labels, ends)},
                     a.initial, frozenset(ends))


def _reference_tracked(alphabet, trackers):
    """All-marked product whose i-th component, a (dfa, coordinate) of
    `trackers`, follows that quadruple coordinate."""
    if any(not d.states for d, _ in trackers):
        return Automaton(alphabet, ("q0",), frozenset(), frozenset({"q0"}),
                         frozenset())

    def moves(cur):
        for lbl in alphabet.names:
            nxt = []
            for (d, coord), q in zip(trackers, cur):
                if lbl[coord] is None:
                    nxt.append(q)
                elif lbl[coord] in d.succ[q]:
                    nxt.append(d.succ[q][lbl[coord]][0])
                else:
                    break
            else:
                yield lbl, tuple(nxt)

    init = tuple(next(iter(d.initial)) for d, _ in trackers)
    return explore(alphabet, [init], moves, lambda cur: True)


def _reference_divisor(ctx, alphabet, e):
    """Quadruple suffixes (ue, ε, u'e, ε), u, u' low-level, P(u) = P(u')."""
    base = ctx.alphabet
    loops = []
    for a in base.names:
        if a in base.highlevel:
            continue
        if a in base.observable:
            loops.append((a, None, a, None))
        else:
            loops += [(a, None, None, None), (None, None, a, None)]
    trans = {("d0", lbl, "d0") for lbl in loops}
    trans.add(("d0", (e, None, e, None), "d1"))
    return Automaton(alphabet, ("d0", "d1"), frozenset(trans),
                     frozenset({"d0"}), frozenset({"d1"}))


def _reference_loc_left(ctx, events) -> Automaton:
    """The verifier's sequences with coordinates 1 and 3 in Q(L), each
    followed by the marker (ε, e, ε, e) of an event e of `events` that both
    coordinates enable: one automaton for all of them, each marker leading
    to a state of its own."""
    al = ctx.alphabet
    markers = [(None, e, None, e) for e in events]
    alphabet = merge_alphabets(quad_alphabet(al), Alphabet(tuple(
        Event(m) for e in events for m in ((None, e, None, e),
                                           (e, None, e, None)))))
    hd = determinize(ctx.abstraction)
    return intersect(
        _reference_append(widen_alphabet(build_quad(ctx.plant), alphabet),
                          markers),
        _reference_tracked(alphabet, [(hd, 1), (hd, 3)]))


def _reference_loc_operands(ctx, e, left=None):
    """LOC's inclusion for event e: the verifier's sequences with
    coordinates 1 and 3 in Q(L), then (ε, e, ε, e), against those with
    coordinates 0 and 2 in L, right-divided by the continuations to e. The
    left side is `left`, a `_reference_loc_left(ctx, events)` with e among
    `events` (by default e alone), marked where e's marker leads."""
    left = left or _reference_loc_left(ctx, (e,))
    marker = (None, e, None, e)
    left = automata._derived(left, marked=frozenset(
        dst for _, label, dst in left.transitions if label == marker))
    gd = determinize(ctx.plant)
    right = right_quotient(
        _reference_tracked(left.alphabet, [(gd, 0), (gd, 2)]),
        _reference_divisor(ctx, left.alphabet, e))
    return left, right


def _loc_searches(monkeypatch, g) -> tuple:
    """check_loc(g, 2000) and, per `first_path` search it runs, the nodes
    that search expands, in order."""
    searches = []
    first_path = hierarchy.first_path

    def counting(starts, moves, test):
        expanded = []
        searches.append(expanded)

        def counted(node):
            expanded.append(node)
            return moves(node)

        return first_path(starts, counted, test)

    monkeypatch.setattr(hierarchy, "first_path", counting)
    return check_loc(g, 2000), searches


def _reference_loc_words():
    """Per plant of `loc_plants` and `agreement_plants`: the plant, its
    context and, per controllable high-level event in alphabet order, the
    first 20 difference sequences of the reference LOC operands."""
    for g in itertools.chain(loc_plants(), agreement_plants()):
        ctx = build_context(g)
        al = ctx.alphabet
        events = sorted(al.highlevel & al.controllable, key=al.names.index)
        shared = _reference_loc_left(ctx, events)
        words = []
        for e in events:
            left, right = _reference_loc_operands(ctx, e, shared)
            # the witness search rules out a difference the quickest
            words.append((e, [] if includes(left, right).holds else list(
                islice(iter_difference_words(left, right), 20))))
        yield g, ctx, words


class TestLazyLoc:
    """The search over the determinized verifier decides the inclusion the
    materialized construction posed, and nothing large is built."""

    def test_lazy_operands_yield_the_reference_difference_words(self):
        # The search determinizes the verifier as it reads it, in place of
        # the implicit operands it replaced: the first reference difference
        # sequence of the first event that has one is its witness, and a
        # plant without one holds.
        found = {True: 0, False: 0}
        for g, _, words in _reference_loc_words():
            first = next(((e, ws[0]) for e, ws in words if ws), None)
            v = check_loc(g, 2000)
            found[v.violated] += 1
            assert v.violated == (first is not None), g
            if first is not None:
                e, w = first
                s, _, sp, _ = decompose_sequence(w, 4)
                assert v.witness.strings == {
                    "s": s, "s_prime": sp, "e": (e,),
                    "sequence": tuple(map(label_name, w))}, g
        assert found[True] >= 5 and found[False] >= 5, found

    def test_every_difference_sequence_is_a_violation(self):
        # The right side is marked exactly where the continuations of its
        # pair keys meet, so no LOC difference sequence is spurious and
        # check_loc decides at its first one without a confirmation.
        events = 0
        for g, ctx, words in _reference_loc_words():
            for e, ws in words:
                events += bool(ws)
                for w in ws:
                    s, _, sp, _ = decompose_sequence(w, 4)
                    assert not _reference_loc(ctx, s, sp, e), (g, e, w)
                    assert not oracle._loc_continuations_meet(
                        ctx.plant, s, sp, e), (g, e, w)
        assert events >= 5, events

    def test_liveness_tests_each_node_a_few_times(self):
        # A fresh search per liveness query tested each node about 4.3
        # times here. The searches over subset pairs mark the pairs along
        # the word they find live, and expand 1,439 over 958 pairs for 20
        # words; without that mark they expanded 3,437 over 1,072.
        ctx = build_context(random_plant(GeneratorParams(8, 5, 0.4, seed=17)))
        left, right = _reference_loc_operands(ctx, "e2")
        expanded = _difference_expansions(left, right, 20)
        assert len(expanded) <= 2 * len(set(expanded))

    @pytest.mark.parametrize("plant, outcome, detail", [
        (lambda: random_plant(GeneratorParams(16, 5, 0.35, seed=10)),
         "holds", {}),
        (lambda: random_plant(GeneratorParams(8, 5, 0.4, seed=17)),
         "violated", {"examined": 1}),
        (lambda: cli_small_inputs(20)[0], "violated", {"examined": 1}),
    ], ids=["n16-s10-holds", "n8-s17-violated", "small-s20-violated"])
    def test_verifier_expands_few_keys(self, monkeypatch, plant, outcome,
                                       detail):
        # Quadruple keys expanded 3,918 (holds) and 1,303 (violated) in
        # the first two, plant-state pairs 71 and 55. On cli-mix/small-s20
        # of the benchmark, enumerating the difference view's words queued
        # 12,489 entries for the 439 subsets it stepped. The determinized
        # verifier expands 244, 49 and 126 nodes, each once.
        v, searches = _loc_searches(monkeypatch, plant())
        assert (v.outcome, v.detail) == (outcome, detail)
        assert searches
        for expanded in searches:
            assert len(expanded) == len(set(expanded))
        assert sum(map(len, searches)) <= 300

    def test_loc_builds_no_large_product(self, monkeypatch):
        # The materialized construction built a 52,294-state product here.
        g = random_plant(GeneratorParams(8, 5, 0.4, seed=17))
        ctx = build_context(g)
        bound = max(len(determinize(ctx.plant).states),
                    len(determinize(ctx.abstraction).states))
        sizes = _recorded_sizes(monkeypatch)
        assert check_loc(g, 2000).violated
        assert sizes and max(sizes) <= bound


def _recorded_sizes(monkeypatch) -> list:
    """The state count of every Automaton built from now on, validated or
    valid by construction (`record_built`)."""
    sizes = []
    record_built(monkeypatch, lambda a: sizes.append(len(a.states)))
    return sizes


class TestOneContext:
    """A context's derived automata are built once and shared by the checks
    given it; the observer and LCC step subsets of the plant and of the
    abstraction and build no determinized automaton."""

    def test_lcc_builds_no_abstraction_dfa(self, monkeypatch):
        # The plant and its determinization have 10 states each, and the
        # abstraction determinizes to 52: LCC builds no automaton. The
        # plant is all-marked already, so its context's plant is the plant
        # itself, not a copy (`all_marked` returns what it keeps whole).
        g = random_plant(GeneratorParams(12, 5, 0.4, seed=149))
        assert build_context(g).plant is g
        sizes = _recorded_sizes(monkeypatch)
        assert check_lcc(g).holds
        assert sizes == []

    def test_loc_builds_no_abstraction_dfa(self, monkeypatch):
        # The plant and its abstraction have 10 states each, and the
        # abstraction determinizes to 52: LOC steps the abstraction's
        # subsets only as far as its search reads them.
        g = random_plant(GeneratorParams(12, 5, 0.4, seed=149))
        ctx = build_context(g)
        bound = max(len(ctx.plant.states), len(ctx.abstraction.states))
        sizes = _recorded_sizes(monkeypatch)
        assert check_loc(g, 2000).violated
        assert sizes and max(sizes) <= bound
        assert check_loc(ctx, 2000).violated

    def test_verify_builds_one_context(self, monkeypatch, ex1_plant,
                                       ex1_spec):
        # One context per checker made 6 contexts and 5 determinizations;
        # one context made 2, its plant DFA and its abstraction DFA, until
        # the observer and LCC stepped subsets instead.
        calls = {"determinize": 0, "context": 0}
        determinize_, init = automata.determinize, HierarchyContext.__init__

        def counting_determinize(a):
            calls["determinize"] += 1
            return determinize_(a)

        def counting_init(self, *args):
            calls["context"] += 1
            init(self, *args)

        for name, module in list(sys.modules.items()):
            if name.startswith("hierctl") and \
                    getattr(module, "determinize", None) is determinize_:
                monkeypatch.setattr(module, "determinize",
                                    counting_determinize)
        monkeypatch.setattr(HierarchyContext, "__init__", counting_init)
        hier_verify(ex1_plant, ex1_spec)
        assert calls == {"determinize": 0, "context": 1}
        assert not hasattr(build_context(ex1_plant), "dfa")
        assert not hasattr(build_context(ex1_plant), "abstraction_dfa")

    def test_observer_builds_each_table_once(self, monkeypatch):
        # The observer check runs an inclusion search per subset pair (26
        # here), each over subsets of the abstraction. The plant and the
        # abstraction build one table of each kind, and no search reads a
        # successor map.
        ctx = build_context(random_plant(GeneratorParams(12, 4, 0.35,
                                                         seed=9)))
        builds = collections.Counter()   # (table, transitions) -> builds
        # every counted relation stays alive, so no later one reuses its id
        counted = []
        for name in ("state_index", "succ", "rows"):
            table = vars(Automaton)[name]

            def counting(a, build=table.func, name=name):
                counted.append(a.transitions)
                builds[name, id(a.transitions)] += 1
                return build(a)

            monkeypatch.setattr(table, "func", counting)
        assert check_observer(ctx).holds
        assert set(builds.values()) == {1}
        assert {name for name, _ in builds} == {"state_index", "rows"}

    def test_observer_pairs_share_one_subset_step_memo(self, monkeypatch):
        # One inclusion search per subset pair, each over subsets of the
        # abstraction. With a memo per inclusion the subset steps were
        # taken 1,018 times; copies of the abstraction sharing one memo
        # took 129, with the plant and abstraction DFAs built before the
        # count. Every subset step of the check, with no DFA built, is
        # counted now: 135.
        ctx = build_context(random_plant(GeneratorParams(32, 5, 0.5,
                                                         seed=2)))
        unions = []
        union = automata._union

        def counting(rows, m):
            unions.append(m)
            return union(rows, m)

        monkeypatch.setattr(automata, "_union", counting)
        assert check_observer(ctx).violated
        assert 0 < len(unions) <= 200

    def test_observer_builds_no_per_pair_machinery(self, monkeypatch):
        # Each subset pair once built two `with_initial` copies of the
        # abstraction and an `includes` verdict; now it is one search over
        # the abstraction's own subset steps.
        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        plants = list(agreement_plants())
        outcomes = []
        for g in (plants[0], plants[6]):
            ctx = build_context(g)
            monkeypatch.setattr(automata, "_derived",
                                counting("_derived", automata._derived))
            for module in (automata, hierarchy):
                monkeypatch.setattr(module, "includes",
                                    counting("includes", automata.includes))
            outcomes.append(check_observer(ctx).outcome)
            monkeypatch.undo()
        assert outcomes == ["holds", "violated"]
        assert calls == []

    def test_observer_tests_each_pair_once(self, monkeypatch):
        # plants/n32-s1002/observer of the benchmark, the first plant of
        # its population-1 family (n=32, seeds 1000 on) whose observer
        # holds by its search. A per-pair search started afresh tests 114
        # abstraction-subset pairs, 50 of them distinct (on n32-s1008,
        # which a rule on its events decides now: 871, 30 distinct); the
        # pairs that an earlier search found reach no uncovered pair are
        # skipped, so each is tested once. The
        # per-pair searches are the `first_path` calls of
        # `automata._difference_search`; the search over (run(s),
        # run(Q(s))) is `hierarchy`'s own.
        tested = []
        search = automata.first_path

        def spy(starts, moves, test):
            def counted(node):
                tested.append(node)
                return test(node)

            return search(starts, moves, counted)

        monkeypatch.setattr(automata, "first_path", spy)
        g = random_plant(GeneratorParams(32, 5, 0.35, seed=1002))
        assert check_observer(g).holds
        assert len(tested) == len(set(tested)) == 50

    # First witnesses: a check that visits states in another order (the
    # one-step observer test, say) can keep every verdict but change these.
    @pytest.mark.parametrize("check, params, strings", [
        (check_observer, GeneratorParams(8, 5, 0.4, seed=16),
         {"s": ("e0", "e4", "e1", "e1", "e1"),
          "t": ("e0", "e4", "e1", "e1", "e1", "e1", "e0")}),
        (check_observer, GeneratorParams(16, 5, 0.35, seed=1),
         {"s": ("e0",), "t": ("e0", "e2", "e0")}),
        (check_lcc, GeneratorParams(64, 5, 0.6, seed=1),
         {"s": ("e0", "e0"), "e": ("e2",)}),
    ], ids=["observer-n8-s16", "observer-n16-s1", "lcc-n64-s1"])
    def test_first_witness(self, check, params, strings):
        v = check(random_plant(params))
        assert v.violated
        assert v.witness.strings == strings

    def test_checks_build_no_wrapper_and_validate_no_alphabet(self,
                                                             monkeypatch):
        # A check in a fresh process paid for three `functools.cache`
        # wrappers in `_plant_pairs` (plus one per closure) and for about
        # seven `Alphabet.__post_init__` walks of derived alphabets before
        # its first search step, and OC, MOC, LOC and observer each for a
        # `ProjectionSpec.__post_init__` check of the context's P or Q.
        # Its memos are dicts now, and a derived alphabet or projection is
        # valid by construction.
        nfa = random_nfa(GeneratorParams(2, 2, 0.35, seed=0))
        gadgets = {"oc": gadget_oc(nfa), "moc": gadget_moc(nfa),
                   "loc": gadget_loc(nfa)}
        # OC's and MOC's gadgets are not nested: they are searched
        assert not moc_structurally_guaranteed(gadgets["oc"].alphabet)
        assert not moc_structurally_guaranteed(gadgets["moc"].alphabet)
        plant = random_plant(GeneratorParams(8, 5, 0.4, seed=2))
        wrappers, walks, projections = [], [], []
        update_wrapper, post_init = functools.update_wrapper, \
            Alphabet.__post_init__
        spec_init = automata.ProjectionSpec.__post_init__

        def wrapping(*args, **kwargs):
            wrappers.append(args)
            return update_wrapper(*args, **kwargs)

        def walking(self):
            walks.append(self)
            post_init(self)

        def checking(self):
            projections.append(self)
            spec_init(self)

        monkeypatch.setattr(functools, "update_wrapper", wrapping)
        monkeypatch.setattr(Alphabet, "__post_init__", walking)
        monkeypatch.setattr(automata.ProjectionSpec, "__post_init__",
                            checking)
        got = {kind: getattr(hierarchy, "check_" + kind)(g, 3000).to_json()
               for kind, g in gadgets.items()}
        got["lcc"], got["observer"] = (check_lcc(plant).to_json(),
                                       check_observer(plant).to_json())
        assert wrappers == [] and walks == [] and projections == []
        # the unchecked projections are the validated ones, and a
        # projection built directly is still checked
        ctx = build_context(plant)
        assert (ctx.p, ctx.q) == (
            automata.ProjectionSpec(ctx.alphabet, ctx.alphabet.observable),
            automata.ProjectionSpec(ctx.alphabet, ctx.alphabet.highlevel))
        with pytest.raises(automata.AutomataError, match="not in source"):
            automata.ProjectionSpec(ctx.alphabet, frozenset({"nope"}))
        assert len(projections) == 3
        # the verdicts of the parent, which built the wrappers
        assert got == {
            "oc": {"verdict": "violated", "witness": {
                "kind": "oc", "strings": {
                    "t": ["#", "a0"], "t_prime": ["a0"],
                    "sequence": ["#:-", "a0:a0"]},
                "note": "no representatives of t and t' share an "
                        "observation"}, "detail": {"examined": 1}},
            "moc": {"verdict": "violated", "witness": {
                "kind": "moc", "strings": {
                    "s": ["#", "a0"], "t_prime": ["a0"],
                    "sequence": ["#:-", "a0:a0"]},
                "note": "no representative of t' shares the observation "
                        "of s"}, "detail": {"examined": 1}},
            "loc": {"verdict": "violated", "witness": {
                "kind": "loc", "strings": {
                    "s": ["a0", "a0"], "s_prime": ["a0", "a0"],
                    "e": ["a0"],
                    "sequence": ["a0:a0|a0:a0", "a0:a0|a0:a0",
                                 "-:a0|-:a0"]},
                "note": "no observation-equivalent low-level continuations "
                        "reach e"}, "detail": {"examined": 1}},
            "lcc": {"verdict": "holds", "witness": None},
            "observer": {"verdict": "violated", "witness": {
                "kind": "observer", "strings": {
                    "s": ["e2", "e1"], "t": ["e2", "e4"]},
                "note": "t ∈ Q(L) but no low-level continuation of s "
                        "projects onto it"}}}


class TestLocRegressions:
    """Pinned LOC verdicts, witnesses and details of the benchmark plants."""

    # population-1 plants that ran past 25 s while the LOC product was
    # materialized; the first difference sequence is already a violation
    FORMER_OVERRUNS = {
        1000: {"s": ("e3", "e1", "e3"), "s_prime": ("e3", "e3"),
               "e": ("e3",),
               "sequence": ("e3:e3|e3:e3", "e1:e1|-:-", "e3:e3|e3:e3",
                            "-:e3|-:e3")},
        1011: {"s": ("e1", "e4", "e1", "e2", "e2", "e1"),
               "s_prime": ("e1", "e4", "e1", "e2", "e2", "e1"),
               "e": ("e1",),
               "sequence": ("e1:e1|e1:e1", "e4:e4|e4:e4", "e1:e1|e1:e1",
                            "e2:e2|e2:e2", "e2:e2|e2:e2", "e1:e1|e1:e1",
                            "-:e1|-:e1")}}

    @pytest.mark.parametrize("seed", sorted(FORMER_OVERRUNS))
    def test_former_overruns_decide(self, seed):
        g = random_plant(GeneratorParams(32, 5, 0.35, seed=seed))
        v = check_loc(g, 2000)
        assert v.violated
        assert v.detail == {"examined": 1}
        assert v.witness.strings == self.FORMER_OVERRUNS[seed]
        assert replays_violation(g, "loc", v.witness.strings)
        if seed == 1000:
            assert not oracle.oracle_loc(g, 3).ok

    def test_n8_s17_violated_at_first_sequence(self):
        v = check_loc(random_plant(GeneratorParams(8, 5, 0.4, seed=17)), 2000)
        assert v.violated
        assert v.detail == {"examined": 1}
        assert v.witness.strings == {
            "s": ("e3", "e4", "e1", "e1", "e1", "e0", "e3"),
            "s_prime": ("e3", "e4", "e1", "e1", "e1", "e3"),
            "e": ("e2",),
            "sequence": ("e3:e3|-:-", "-:-|e3:e3", "e4:e4|e4:e4",
                         "e1:-|e1:-", "e1:-|e1:-", "e1:-|e1:-", "e0:-|-:-",
                         "e3:e3|-:-", "-:-|e3:e3", "-:e2|-:e2")}

    def test_n16_s10_holds_without_a_difference_sequence(self):
        v = check_loc(random_plant(GeneratorParams(16, 5, 0.35, seed=10)),
                      2000)
        assert v.holds
        assert v.detail == {}


class TestDegeneratePlants:
    """An empty difference search is a bare "holds" on plants with no
    states, no initial state, or no moves."""

    AL = make_alphabet("abc", controllable="ab", observable="ac",
                       highlevel="ab")
    PLANTS = {
        "no-states": Automaton(AL, (), frozenset(), frozenset(), frozenset()),
        "no-initial": Automaton(AL, ("p", "q"),
                                frozenset({("p", "a", "q"), ("q", "c", "p")}),
                                frozenset(), frozenset({"p"})),
        "no-moves": Automaton(AL, ("p", "q"), frozenset(), frozenset({"p"}),
                              frozenset({"p", "q"})),
    }
    CHECKS = {"oc": (check_oc, oracle.oracle_oc),
              "moc": (check_moc, oracle.oracle_moc),
              "loc": (check_loc, oracle.oracle_loc)}

    @pytest.mark.parametrize("prop", CHECKS)
    @pytest.mark.parametrize("plant", PLANTS)
    def test_holds_bare_and_agrees_with_oracle(self, plant, prop):
        check, oracle_check = self.CHECKS[prop]
        v = check(self.PLANTS[plant])
        assert v.holds
        assert v.detail == {}
        assert oracle_check(self.PLANTS[plant], 4).ok


def _with_unreachable(g: Automaton) -> Automaton:
    """`g` plus a state that no start reaches and that moves on every
    event: the same language, with every event on a transition."""
    loops = {("unreached", e, "unreached") for e in g.alphabet.names}
    return Automaton(g.alphabet, (*g.states, "unreached"),
                     g.transitions | loops, g.initial,
                     g.marked | {"unreached"})


class TestEventRules:
    """The checks decide from U, the events that label the plant's
    transitions, before any context is built: the observer, LCC and LOC
    each by rules of their own, OC and MOC by the alphabet lemma asked of
    U (`hierarchy._moc_forced`)."""

    CHECKS = {"oc": functools.partial(check_oc, budget=300),
              "moc": functools.partial(check_moc, budget=300),
              "loc": functools.partial(check_loc, budget=300),
              "observer": check_observer, "lcc": check_lcc}

    def test_rules_agree_with_the_searches(self, monkeypatch):
        # 320 plants: DFAs and NFAs of 2-6 states, each also with an
        # unreachable state that puts every event in U, so that its rules
        # read Σ itself; both have one language, so one set of verdicts
        plants = []
        for seed in range(160):
            g = random_plant(GeneratorParams(
                states=2 + seed % 5, events=3 + seed % 3,
                transition_density=0.3, deterministic=seed % 2 == 0,
                seed=seed + 3000))
            plants += [g, _with_unreachable(g)]
        contexts, build = [], hierarchy.build_context

        def counting(g):
            contexts.append(g)
            return build(g)

        monkeypatch.setattr(hierarchy, "build_context", counting)
        got, decided = {}, []
        for i, g in enumerate(plants):
            for kind, check in self.CHECKS.items():
                contexts.clear()
                got[i, kind] = check(g)
                if not contexts and not (
                        kind in ("oc", "moc")
                        and moc_structurally_guaranteed(g.alphabet)):
                    decided.append((i, kind))
        monkeypatch.undo()
        for i in range(1, len(plants), 2):
            for kind in self.CHECKS:
                assert got[i, kind] == got[i - 1, kind], (i, kind)
        # each rule decides some plant, and the search, which no rule
        # preempts where U is the whole alphabet, gives the same bare
        # "holds"; the bounded oracle finds no violation either
        counts = collections.Counter(kind for _, kind in decided)
        assert min(counts[kind] for kind in self.CHECKS) >= 20, counts
        monkeypatch.setattr(hierarchy, "_labelling",
                            lambda g: set(g.alphabet.names))
        for i, kind in decided:
            g = plants[i]
            if kind in ("oc", "moc"):
                assert searched(g, kind, 300) == got[i, kind]
            else:
                assert self.CHECKS[kind](g) == got[i, kind], (i, kind)
                assert getattr(oracle, "oracle_" + kind)(g, 4).ok, (i, kind)
            assert got[i, kind] == Verdict.make_holds()

    # population-0 plants of the benchmark's `plants` workload on which a
    # rule decides: no uncontrollable high-level event on a transition
    # (n32-s8), no controllable high-level one (n8-s3), no low-level one
    # (n16-s2), and Σo and Σhi nested on U but not on Σ (n8-s19)
    @pytest.mark.parametrize("kind, n, seed", [
        ("lcc", 32, 8), ("loc", 8, 3), ("observer", 16, 2), ("oc", 8, 19),
        ("moc", 8, 19)])
    def test_decided_checks_build_nothing(self, monkeypatch, kind, n, seed):
        g = random_plant(GeneratorParams(n, 5, 0.4 if n == 8 else 0.35,
                                         seed=seed))
        assert kind not in ("oc", "moc") or \
            not moc_structurally_guaranteed(g.alphabet)
        built, calls = [], []
        record_built(monkeypatch, built.append)

        def refused(name):
            def call(*args):
                calls.append(name)
                raise AssertionError(name)
            return call

        monkeypatch.setattr(hierarchy, "build_context",
                            refused("build_context"))
        for module in (automata, hierarchy):
            monkeypatch.setattr(module, "first_path", refused("first_path"))
        assert self.CHECKS[kind](g) == Verdict.make_holds()
        assert built == [] and calls == []


class TestModular:
    def test_precondition_shared_high_observable(self):
        al1 = make_alphabet("xa", highlevel="a")
        al2 = make_alphabet("xb", highlevel="b")
        g1 = tree([("x",), ("a",)], al1)
        g2 = tree([("x",), ("b",)], al2)
        with pytest.raises(PreconditionError):
            check_moc_modular([g1, g2])

    def test_distribute_q_requires_shared_high(self):
        al1 = make_alphabet("xa", highlevel="a")
        al2 = make_alphabet("xb", highlevel="b")
        g1 = tree([("x",)], al1)
        g2 = tree([("x",)], al2)
        with pytest.raises(PreconditionError):
            lemma_distribute_q([g1, g2])

    def test_componentwise_moc_carries_to_composition(self):
        al1 = make_alphabet("xab")
        al2 = make_alphabet("xcd")
        g1 = tree([("a", "x"), ("b",)], al1)
        g2 = tree([("x", "c"), ("d",)], al2)
        verdict, per = check_moc_modular([g1, g2])
        assert len(per) == 2
        assert all(v.holds for v in per)
        assert verdict.holds

    def test_distribute_q_on_shared_high_alphabets(self):
        al1 = make_alphabet("xab", highlevel="xa")
        al2 = make_alphabet("xcd", highlevel="xc")
        g1 = tree([("a", "x"), ("b",)], al1)
        g2 = tree([("x", "c"), ("d",)], al2)
        assert lemma_distribute_q([g1, g2]).holds

    def test_distribute_q_restricts_each_component_once(self, monkeypatch):
        # The components are made all-marked once; they and their product
        # are all-marked and reachable, so their contexts restrict nothing.
        comps = [tree([("x", h), (lo,)], make_alphabet("x" + h + lo,
                                                       highlevel="x" + h))
                 for h, lo in ("ab", "cd", "ef")]
        calls, real = [], automata._restrict

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(automata, "_restrict", spy)
        assert lemma_distribute_q(comps).holds
        assert len(calls) == len(comps)


class TestVerify:
    def test_report_shape(self, ex1_plant, ex1_spec):
        rep = hier_verify(ex1_plant, ex1_spec)
        assert set(rep["hypotheses"]) == {
            "observer", "lcc", "oc", "moc", "loc", "nonconflicting"}
        for prop in rep["properties"].values():
            assert set(prop) == {"high", "low", "agree"}

    def test_nonconflicting_is_not_searched(self, monkeypatch, ex1_plant,
                                            ex1_spec):
        # K̄ and Q(L) are prefix-closed, so they cannot conflict
        calls, real = [], checks.check_nonconflicting

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(hierarchy, "check_nonconflicting", spy,
                            raising=False)
        monkeypatch.setattr(checks, "check_nonconflicting", spy)
        inputs = [(ex1_plant, ex1_spec), *filter(None, map(cli_small_inputs,
                                                           range(4)))]
        for g, k in inputs:
            rep = hier_verify(g, k)
            assert rep["hypotheses"]["nonconflicting"] == \
                Verdict.make_holds()
        assert calls == []

    def test_oc_is_taken_from_moc(self, monkeypatch, ex1_plant, ex1_spec):
        # MOC implies OC, so OC is searched only where MOC fails: on ex1
        # MOC is violated, and on this plant, whose Σo and Σhi are
        # incomparable on Σ and on the events of its transitions, MOC
        # holds by its search (the first such seed of its family)
        calls, real = [], hierarchy._pair_consistency

        def spy(ctx, kind, *args):
            calls.append(kind)
            return real(ctx, kind, *args)

        monkeypatch.setattr(hierarchy, "_pair_consistency", spy)
        g = random_plant(GeneratorParams(4, 4, 0.35, seed=105))
        assert not hierarchy._moc_forced(g)
        k = build_context(g).abstraction
        hyp = hier_verify(g, k)["hypotheses"]
        assert calls == ["moc"]
        assert hyp["oc"] == hyp["moc"] == Verdict.make_holds()
        assert list(hyp) == ["observer", "lcc", "oc", "moc", "loc",
                             "nonconflicting"]
        calls.clear()
        hyp = hier_verify(ex1_plant, ex1_spec)["hypotheses"]
        assert calls == ["moc", "oc"]
        assert hyp["moc"].violated and hyp["oc"].holds

    def test_agreement_under_hypotheses(self):
        # When the abstraction hypotheses hold, high- and low-level
        # verdicts for each supervisory property must agree.
        hits = 0
        for seed in range(60):
            g = random_plant(GeneratorParams(
                states=3 + seed % 3, transition_density=0.4, seed=seed + 40))
            ctx = build_context(g)
            k = random_sublanguage(ctx.abstraction, 0.3, seed + 9)
            rep = hier_verify(g, k, budget=2000)
            hyp = rep["hypotheses"]
            if not all(v.holds for v in hyp.values()):
                continue
            hits += 1
            for name, prop in rep["properties"].items():
                assert prop["agree"], f"seed={seed} prop={name}"
        assert hits >= 3


class TestSynthesis:
    def test_normal_synthesis_anchor(self, ex1_plant, ex1_spec):
        out = hier_synth_normal(ex1_plant, ex1_spec)
        low = set(enumerate_bounded(out["low"], 4))
        high = set(enumerate_bounded(out["high"], 4))
        lift = set(enumerate_bounded(out["lifted"], 4))
        assert low == {(), ("a",), ("b",), ("c",), ("b", "a")}
        assert high == {(), ("b",)}
        assert lift == {(), ("a",), ("b",), ("b", "a")}
        assert out["lift_in_low"].holds
        assert out["low_in_lift"].violated
        assert not out["equal"]
        assert out["moc"].violated

    def test_moc_makes_lift_exact(self):
        # With MOC in force the lifted high-level synthesis result never
        # claims more than the low-level one.
        checked = 0
        for seed in range(60):
            g = random_plant(GeneratorParams(
                states=3 + seed % 3, transition_density=0.4,
                seed=seed + 1000))
            ctx = build_context(g)
            k = random_sublanguage(ctx.abstraction, 0.3, seed + 2000)
            out = hier_synth_normal(g, k, budget=2000)
            if not out["moc"].holds:
                continue
            checked += 1
            assert out["lift_in_low"].holds, f"seed={seed}"
        assert checked >= 5

    def test_relobs_reports(self, relobs_plant):
        al = relobs_plant.alphabet
        k = tree([("a",)], al.restrict(al.highlevel))
        out = hier_synth_relobs(relobs_plant, k)
        assert out["high_report"].converged
        assert out["low_report"].converged


class TestPipelinePreconditions:
    """The two-level pipelines call the checks and syntheses of `checks`
    without their validating shells, since the lifts K̄ ∥ Q(L) and K̄ ∥ L
    meet every precondition by construction."""

    @staticmethod
    def inputs():
        yield from filter(None, map(cli_small_inputs, range(12)))
        for seed in range(40):
            g = random_plant(GeneratorParams(
                states=4 + seed % 6, transition_density=0.4, seed=seed + 300))
            yield g, random_sublanguage(build_context(g).abstraction, 0.3,
                                        seed + 700)

    def test_pipelines_prove_no_precondition_again(self, monkeypatch):
        calls = []
        for name in ("_require_inclusion", "is_prefix_closed"):
            def spy(*args, name=name, real=getattr(checks, name)):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(checks, name, spy)
        for g, k in itertools.islice(self.inputs(), 16):
            hier_verify(g, k, 300)
            hier_synth_normal(g, k, 300)
            hier_synth_relobs(g, k, 300)
        assert calls == []
        # the shells, called on the same lifts, still validate
        ctx, k_hi, _ = hierarchy._lifted_spec(g, k)
        checks.check_controllability(k_hi, ctx.abstraction)
        checks.sup_relobs_closed(k_hi, k_hi, ctx.abstraction)
        assert calls == ["_require_inclusion", "is_prefix_closed",
                         "_require_inclusion"]

    def test_lifted_specifications_meet_the_preconditions(self):
        bodies = ((checks.check_controllability, checks._controllability),
                  (checks.check_observability, checks._observability),
                  (checks.check_normality, checks._normality),
                  (checks.sup_normal_closed, checks._sup_normal))
        violated = collections.Counter()
        for g, k in self.inputs():
            ctx, k_hi, k_lo = hierarchy._lifted_spec(g, k)
            for spec, plant in ((k_hi, ctx.abstraction), (k_lo, ctx.plant)):
                assert spec.alphabet == plant.alphabet
                assert is_prefix_closed(spec) and is_prefix_closed(plant)
                assert includes(spec, plant).holds
                # so the shells accept them and give what the bodies give
                for shell, body in bodies:
                    got = shell(spec, plant)
                    assert got == body(spec, plant), (g, k, shell)
                    violated[shell.__name__] += getattr(got, "violated", 0)
                assert checks.sup_relobs_closed(spec, spec, plant) == \
                    checks._sup_relobs(spec, spec, plant)
        assert min(violated[shell.__name__] for shell, _ in bodies[:3]) > 0
