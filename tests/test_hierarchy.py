from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from itertools import islice
from pathlib import Path

import pytest

from hierctl import hierarchy, oracle
from hierctl.automata import (Alphabet, Automaton, Event, all_marked,
                              determinize, enumerate_bounded, explore,
                              intersect, inverse_project, is_empty,
                              iter_difference_words, language_equal,
                              parallel_compose, project, right_quotient,
                              widen_alphabet, word_automaton)
from hierctl.gadgets import (GeneratorParams, gadget_loc, gadget_moc,
                             gadget_oc, random_nfa, random_plant,
                             random_sublanguage)
from hierctl.hierarchy import (PreconditionError, _common_pair,
                               _continuations_meet, _loc_operands, _loc_shared,
                               _moc_mate_table, _oc_pair_exists,
                               build_context,
                               check_lcc, check_loc, check_moc,
                               check_moc_modular, check_observer, check_oc,
                               conform_spec, hier_synth_normal,
                               hier_synth_relobs, hier_verify,
                               lemma_distribute_q, lemma_moc_implies_oc,
                               moc_structurally_guaranteed)

from hierctl.relations import (build_quad, quad_alphabet, relabel_pair,
                               sync_pair_compose)

from conftest import make_alphabet, tree


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
        for seed in range(20):
            g = random_plant(GeneratorParams(seed=seed + 300))
            ctx = build_context(g)
            if moc_structurally_guaranteed(ctx.alphabet):
                assert check_moc(g).holds, f"seed={seed}"

    def test_moc_implies_oc_on_verdicts(self):
        for seed in range(40):
            g = random_plant(GeneratorParams(
                states=3 + seed % 3, events=2 + seed % 3,
                transition_density=0.35, seed=seed))
            rep = lemma_moc_implies_oc(g, budget=2000)
            if rep["moc"].holds:
                assert not rep["oc"].violated, f"seed={seed}"


class _Asked(frozenset):
    """A marked-state set that records each state it is asked about: the
    difference search asks once per bad-node test."""

    def __contains__(self, q):
        self.asked.append(q)
        return frozenset.__contains__(self, q)


def _counting_marked(a: Automaton) -> tuple:
    """`a` with an `_Asked` marked set, and the list it records into."""
    marked = _Asked(a.marked)
    marked.asked = []
    return replace(a, marked=marked), marked.asked


def _oc_operands(g: Automaton) -> tuple:
    """The two sides of check_oc's inclusion."""
    ctx = build_context(g)
    left = sync_pair_compose(ctx.abstraction, ctx.abstraction, ctx.shared)
    right = relabel_pair(
        sync_pair_compose(ctx.plant, ctx.plant, ctx.alphabet.observable),
        ctx.alphabet.highlevel, ctx.alphabet.highlevel)
    return _common_pair(left, right)


# OC is violated at its first difference sequence here, but a depth-first
# liveness search can wander deep into the right side's subsets first.
WANDER_PLANT = GeneratorParams(16, 5, 0.35, seed=1000)
# bad-node tests up to that first sequence; wandering takes over 100,000
WANDER_BOUND = 10_000


def _oc_wander_probe() -> list:
    """check_oc on WANDER_PLANT, and the bad-node tests its difference
    search makes up to the first sequence."""
    g = random_plant(WANDER_PLANT)
    v = check_oc(g, 2000)
    la, ra = _oc_operands(g)
    la, asked = _counting_marked(la)
    next(iter_difference_words(la, ra))
    return [v.outcome, v.detail, len(asked)]


class TestRefutationRegressions:
    """Pinned refutation-loop verdicts, witnesses and details."""

    @pytest.mark.parametrize("hash_seed", ["2", "3"])
    def test_oc_search_work_is_independent_of_hash_seed(self, hash_seed):
        # Under these string hash seeds a fresh search per liveness query
        # took over 5 s here, making over 120,000 bad-node tests; the test
        # below fixes the order that decides it. One component search that
        # tries the smallest right subsets first makes about 2,700.
        tests = Path(__file__).resolve().parent
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, (
                       str(tests.parent / "src"), str(tests),
                       os.environ.get("PYTHONPATH")))))
        proc = subprocess.run(
            [sys.executable, "-c", "import json, test_hierarchy as t; "
             "print(json.dumps(t._oc_wander_probe()))"],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outcome, detail, asked = json.loads(proc.stdout)
        assert outcome == "violated" and detail == {"examined": 1}
        assert asked <= WANDER_BOUND

    def test_oc_search_work_is_independent_of_successor_order(self):
        # The hash seed does not fix the order in which the search reads a
        # state's events: that follows set iteration, and tuples holding
        # None hash differently in each process before Python 3.12. So
        # force orders: the alphabet's, its reverse, and per-state shuffles.
        la, ra = _oc_operands(random_plant(WANDER_PLANT))
        names = la.alphabet.names
        rng = random.Random(0)
        orders = [lambda q: names, lambda q: names[::-1]] + \
            [lambda q: rng.sample(names, len(names))] * 4
        for order in orders:
            a, asked = _counting_marked(la)
            # the cached successor map, its events in the forced order
            a.__dict__["succ"] = {q: {e: m[e] for e in order(q) if e in m}
                                  for q, m in la.succ.items()}
            assert next(iter_difference_words(a, ra))
            assert len(asked) <= WANDER_BOUND

    def test_oc_violated_at_second_sequence(self):
        g = random_plant(GeneratorParams(32, 5, 0.35, seed=9))
        v = check_oc(g, 2000)
        assert v.violated
        assert v.detail == {"examined": 2}
        t, tp = v.witness.strings["t"], v.witness.strings["t_prime"]
        assert (t, tp) == (("e3", "e0", "e0", "e4", "e0"), ("e3",))
        # exact replay: the bounded oracle_oc misses it even at bound 6
        shared = build_context(g).shared
        assert [x for x in t if x in shared] == [x for x in tp if x in shared]
        assert not oracle._exists_oc_pair(oracle._gen_rec(g), t, tp)

    def test_oc_violated_on_large_difference(self):
        g = random_plant(GeneratorParams(24, 4, 0.4, seed=3))
        v = check_oc(g)
        assert v.violated
        assert v.witness.strings["sequence"] == ("e3:-", "e1:-")

    @staticmethod
    def _gadget(seed: int) -> Automaton:
        return gadget_moc(random_nfa(GeneratorParams(
            2 + seed % 3, 2 + seed % 2, 0.35, seed=seed)))

    def test_universal_moc_gadget_refutes_whole_budget(self):
        v = check_moc(self._gadget(8), 3000)
        assert v.inconclusive
        assert v.detail["refuted"] == 3000

    def test_moc_gadget_violated_at_first_sequence(self):
        v = check_moc(self._gadget(5), 3000)
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
        want, got = check(self._plant("r")), check(self._plant("p,q"))
        assert got.outcome == want.outcome
        assert got.detail == want.detail
        assert got.witness == want.witness
        assert oracle_check(self._plant("p,q"), 6).ok == got.holds

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


def _agreement_plants():
    for seed in range(6):
        yield random_plant(GeneratorParams(
            states=3 + seed % 4, events=3 + seed % 2,
            transition_density=0.4, deterministic=seed % 2 == 0,
            seed=seed + 700))
    for seed in range(4):
        a = random_nfa(GeneratorParams(2 + seed % 3, 2 + seed % 2, 0.35,
                                       seed=seed))
        yield gadget_oc(a)
        yield gadget_moc(a)
        yield gadget_loc(a)


class TestConfirmationSearches:
    """The exact searches agree with the automaton constructions they
    replaced and with the independent oracle searches."""

    def test_searches_agree_with_constructions_and_oracle(self):
        rng = random.Random(0)
        outcomes = {"oc": set(), "moc": set(), "loc": set()}
        outside = 0
        for g in _agreement_plants():
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
            # one table per plant, as in check_moc: later queries read the
            # cells that earlier ones filled
            mate_exists = _moc_mate_table(ctx)
            for _ in range(25):
                t, tp = rng.choice(ts), rng.choice(ts)
                got = _oc_pair_exists(ctx, t, tp)
                assert got == _reference_oc(ctx, t, tp), (g, t, tp)
                assert got == oracle._exists_oc_pair(gl, t, tp), (g, t, tp)
                outcomes["oc"].add(got)

                s = rng.choice(words)
                got = mate_exists(ctx.p.apply(s), tp)
                assert got == _reference_moc(ctx, s, tp), (g, s, tp)
                assert got == oracle._exists_moc_mate(
                    gl, ctx.p.apply(s), tp), (g, s, tp)
                outcomes["moc"].add(got)

                sp, e = rng.choice(words), rng.choice(events)
                got = _continuations_meet(ctx, gl.run(s), gl.run(sp), e)
                assert got == _reference_loc(ctx, s, sp, e), (g, s, sp, e)
                assert got == oracle._loc_continuations_meet(
                    gl, s, sp, e), (g, s, sp, e)
                outcomes["loc"].add(got)
        assert outside > 0
        assert all(o == {True, False} for o in outcomes.values()), outcomes

    def test_moc_cells_close_under_silent_events(self):
        # a: observable and high-level, b: observable only, u: neither
        al = make_alphabet("abu", observable="ab", highlevel="a")
        g = tree([("a", "u", "b")], al)
        mate_exists = _moc_mate_table(build_context(g))
        assert mate_exists(("a", "b"), ("a",))
        assert not mate_exists(("a", "b"), ())
        assert not mate_exists(("b",), ())

    def test_long_moc_query_needs_no_recursion(self):
        # every cell of a 5,000-letter diagonal is filled from the one
        # before it; a recursive fill would pass the recursion limit
        al = make_alphabet("a")   # observable and high-level
        g = Automaton(al, ("q",), frozenset({("q", "a", "q")}),
                      frozenset({"q"}), frozenset({"q"}))
        word = ("a",) * 5000
        assert _moc_mate_table(build_context(g))(word, word)

    def test_moc_gadget_reads_few_successor_maps(self, monkeypatch):
        # A fresh plant search per candidate read 40,550 successor maps
        # here; the shared table reads about 7,700.
        reads = []

        class Counting(dict):
            def __getitem__(self, q):
                reads.append(q)
                return dict.__getitem__(self, q)

        def counting_context(g):
            ctx = build_context(g)
            ctx.plant.__dict__["succ"] = Counting(ctx.plant.succ)
            return ctx

        monkeypatch.setattr(hierarchy, "build_context", counting_context)
        v = check_moc(TestRefutationRegressions._gadget(8), 3000)
        assert v.inconclusive and v.detail["refuted"] == 3000
        assert len(reads) <= 10_000


# The materialized LOC construction that the lazy operands replaced; it is
# the reference they must agree with.

def _reference_append(a, label):
    """L_m(a)·label, for `a` numbered by `explore`."""
    fin = len(a.states)
    return Automaton(a.alphabet, a.states + (fin,),
                     a.transitions | {(q, label, fin) for q in a.marked},
                     a.initial, frozenset({fin}))


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


def _reference_loc_operands(ctx, e):
    alphabet = quad_alphabet(ctx.alphabet, loc_events=(e,))
    hd = determinize(ctx.abstraction)
    left = intersect(
        _reference_append(widen_alphabet(build_quad(ctx.plant), alphabet),
                          (None, e, None, e)),
        _reference_tracked(alphabet, [(hd, 1), (hd, 3)]))
    gd = determinize(ctx.plant)
    right = right_quotient(_reference_tracked(alphabet, [(gd, 0), (gd, 2)]),
                           _reference_divisor(ctx, alphabet, e))
    return left, right


def _loc_plants():
    for seed in range(10):
        yield random_plant(GeneratorParams(
            states=3 + seed % 4, events=3 + seed % 3,
            transition_density=0.4, deterministic=seed % 2 == 0,
            seed=seed + 500))
    for seed in range(6):
        yield gadget_loc(random_nfa(GeneratorParams(
            2 + seed % 3, 2 + seed % 2, 0.35, seed=seed)))


class TestLazyLoc:
    """The implicit LOC operands pose the inclusion the materialized
    construction posed, and nothing large is built any more."""

    def test_lazy_operands_yield_the_reference_difference_words(self):
        found = {True: 0, False: 0}
        for g in _loc_plants():
            ctx = build_context(g)
            shared = _loc_shared(ctx)
            for e in sorted(ctx.alphabet.highlevel
                            & ctx.alphabet.controllable):
                lazy = _loc_operands(ctx, shared, e)
                want = list(islice(iter_difference_words(
                    *_reference_loc_operands(ctx, e)), 50))
                assert list(islice(iter_difference_words(*lazy), 50)) \
                    == want, (g, e)
                found[bool(want)] += 1
        assert found[True] >= 5 and found[False] >= 5, found

    def test_liveness_tests_each_node_a_few_times(self):
        # Every node the search visits is tested, so the distinct left
        # states asked about are at most the product nodes visited. A fresh
        # search per liveness query tested each about 4.3 times here; one
        # component search tests each about 1.25 times.
        ctx = build_context(random_plant(GeneratorParams(8, 5, 0.4, seed=17)))
        left, right = _reference_loc_operands(ctx, "e2")
        left, asked = _counting_marked(left)
        assert next(iter_difference_words(left, right))
        assert len(asked) <= 2 * len(set(asked))

    def test_loc_builds_no_large_product(self, monkeypatch):
        # The materialized construction built a 52,294-state product here.
        g = random_plant(GeneratorParams(8, 5, 0.4, seed=17))
        ctx = build_context(g)
        bound = max(len(determinize(ctx.plant).states),
                    len(determinize(ctx.abstraction).states))
        sizes = []
        post_init = Automaton.__post_init__

        def recording(self):
            sizes.append(len(self.states))
            post_init(self)

        monkeypatch.setattr(Automaton, "__post_init__", recording)
        assert check_loc(g, 2000).violated
        assert sizes and max(sizes) <= bound


def _replays_loc_violation(g, w) -> bool:
    """The witness names s, s' ∈ L with P(s) = P(s'), Q(s)e and Q(s')e in
    Q(L), and no observation-equivalent low-level continuations to e."""
    gl = oracle._gen_rec(g)
    al = gl.alphabet
    s, sp, (e,) = w["s"], w["s_prime"], w["e"]
    return (bool(gl.run(s)) and bool(gl.run(sp))
            and oracle._p_of(al, s) == oracle._p_of(al, sp)
            and oracle._q_extends(gl, oracle._q_of(al, s) + (e,))
            and oracle._q_extends(gl, oracle._q_of(al, sp) + (e,))
            and not oracle._loc_continuations_meet(gl, s, sp, e))


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
        assert _replays_loc_violation(g, v.witness.strings)
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


class TestVerify:
    def test_report_shape(self, ex1_plant, ex1_spec):
        rep = hier_verify(ex1_plant, ex1_spec)
        assert set(rep["hypotheses"]) == {
            "observer", "lcc", "oc", "moc", "loc", "nonconflicting"}
        for prop in rep["properties"].values():
            assert set(prop) == {"high", "low", "agree"}

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
