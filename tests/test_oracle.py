from __future__ import annotations

import hashlib
import inspect
import json

import pytest

from hierctl.automata import Automaton, PreconditionError
from hierctl.gadgets import (GeneratorParams, gadget_loc, gadget_moc,
                             gadget_oc, random_nfa, random_plant,
                             random_sublanguage)
from hierctl.hierarchy import (check_lcc, check_loc, check_moc,
                               check_observer, check_oc)
from hierctl.oracle import (PROPERTY_ORACLES, _visit, oracle_lcc,
                            oracle_loc, oracle_moc, oracle_observer,
                            oracle_oc, oracle_sup_normal, oracle_sup_relobs)

from conftest import make_alphabet, searched, tree

BOUND = 6


def test_registry_covers_all_checkers():
    assert set(PROPERTY_ORACLES) == {
        "controllability", "observability", "relobs", "normality",
        "nonconflicting", "oc", "moc", "loc", "observer", "lcc"}


ORACLES = {**PROPERTY_ORACLES, "sup_normal": oracle_sup_normal,
           "sup_relobs": oracle_sup_relobs}


@pytest.mark.parametrize("prop", sorted(ORACLES))
def test_negative_bound_is_refused(prop, ex1_plant):
    # a bound of -1 once enumerated no word and reported no violation (or,
    # for the syntheses, an empty language)
    oracle = ORACLES[prop]
    inputs = [ex1_plant] * (len(inspect.signature(oracle).parameters) - 1)
    with pytest.raises(PreconditionError, match="bound"):
        oracle(*inputs, -1)


def _pinned_reports() -> list:
    """Every oracle's result at bounds 0-4 on 64 seeded plants (closed,
    deterministic or not, acyclic or not, and four gadgets), with random
    prefix-closed sublanguages K ⊆ C of each; nonconflicting reads K and C
    with every other state marked, so that they can block."""
    plants = [random_plant(GeneratorParams(
        states=3 + seed % 4, events=2 + seed % 3, transition_density=0.4,
        deterministic=seed % 4 != 3, acyclic=seed % 5 == 4, seed=seed))
        for seed in range(60)]
    plants += [make(random_nfa(GeneratorParams(
        states=2, events=2, transition_density=0.5, seed=seed)))
        for seed, make in enumerate((gadget_oc, gadget_moc, gadget_loc,
                                     gadget_loc))]
    out = []
    for seed, g in enumerate(plants):
        c = random_sublanguage(g, 0.15, seed)
        k = random_sublanguage(c, 0.2, seed + 1)
        kb, cb = (Automaton(a.alphabet, a.states, a.transitions, a.initial,
                            frozenset(a.states[::2])) for a in (k, c))
        args = {"controllability": (k, g), "observability": (k, g),
                "relobs": (k, c, g), "normality": (k, g),
                "nonconflicting": (kb, cb)}
        for bound in range(5):
            for prop, oracle in PROPERTY_ORACLES.items():
                out.append(oracle(*args.get(prop, (g,)), bound).to_json())
            out.append(oracle_sup_normal(k, g, bound))
            out.append(oracle_sup_relobs(k, c, g, bound))
    return out


def test_reports_are_pinned():
    """The bounded oracle is the referee of every check, so its reports
    are pinned: one digest of all of them on a fixed population.

    Recording the digest again changes the referee (or the seeded
    generators that build its population), and CHANGES.md must justify
    that change.
    """
    reports = _pinned_reports()
    refuted = {r["property"] for r in reports
               if isinstance(r, dict) and not r["ok"]}
    assert len(refuted) == len(PROPERTY_ORACLES)
    digest = hashlib.sha256(json.dumps(reports).encode()).hexdigest()
    assert digest == (
        "4cd29d41bbed1a09e335c380bafce3c596ff0c59e6c3a0c85181b903140a892c")


class TestVisit:
    """The one depth-first search of the referee, on a graph with a cycle
    and two paths to one node."""

    GRAPH = {0: [1, 2], 1: [3, 0], 2: [3], 3: [3], 4: [0]}

    def recorded(self):
        entered = []

        def step(node):
            entered.append(node)
            return self.GRAPH[node]

        return entered, step

    def test_enters_each_node_once(self):
        entered, step = self.recorded()
        assert _visit([0], step) == {0, 1, 2, 3}
        assert sorted(entered) == [0, 1, 2, 3]

    def test_duplicate_starts_count_once(self):
        entered, step = self.recorded()
        assert _visit([4, 0, 4, 0], step) == {0, 1, 2, 3, 4}
        assert sorted(entered) == [0, 1, 2, 3, 4]

    def test_a_goal_stops_the_search(self):
        entered, step = self.recorded()
        assert _visit([0], step, lambda node: node == 0) is True
        assert entered == []
        assert _visit([0], step, lambda node: node in (1, 2)) is True
        assert 3 not in entered

    def test_an_unreached_goal_is_false(self):
        entered, step = self.recorded()
        assert _visit([0], step, lambda node: node == 4) is False
        assert sorted(entered) == [0, 1, 2, 3]
        assert _visit([], step, lambda node: True) is False


class TestAnchors:
    """The seven-word example, independently re-derived by enumeration."""

    def test_oc(self, ex1_plant):
        assert oracle_oc(ex1_plant, BOUND).ok

    def test_moc(self, ex1_plant):
        rep = oracle_moc(ex1_plant, BOUND)
        assert not rep.ok
        assert rep.witness["s"] == ("c",)

    def test_loc(self, ex1_plant):
        assert not oracle_loc(ex1_plant, BOUND).ok

    def test_observer(self, ex1_plant):
        assert not oracle_observer(ex1_plant, BOUND).ok

    def test_lcc(self, ex1_plant):
        assert oracle_lcc(ex1_plant, BOUND).ok


class TestCrossValidation:
    """Bounded enumeration agrees with the symbolic checkers.

    The protocol is one-sided where the checkers can be inconclusive:
    a Holds/Violated verdict must match the oracle, an inconclusive
    verdict is exempt.
    """

    def _plants(self, base, n=40):
        for seed in range(n):
            yield seed, random_plant(GeneratorParams(
                states=3 + seed % 3, events=2 + seed % 3,
                transition_density=0.35, seed=base + seed))

    def test_oc(self):
        # also by the product search, which a nested alphabet skips
        for seed, g in self._plants(0):
            for v in (check_oc(g, budget=2000), searched(g, "oc")):
                if v.inconclusive:
                    continue
                assert v.holds == oracle_oc(g, BOUND).ok, f"seed={seed}"

    def test_moc(self):
        # also by the product search, which a nested alphabet skips
        for seed, g in self._plants(5000):
            for v in (check_moc(g, budget=2000), searched(g, "moc")):
                if v.inconclusive:
                    continue
                assert v.holds == oracle_moc(g, BOUND).ok, f"seed={seed}"

    def test_loc(self):
        for seed, g in self._plants(9000):
            v = check_loc(g, budget=2000)
            if v.inconclusive:
                continue
            assert v.holds == oracle_loc(g, BOUND).ok, f"seed={seed}"

    def test_observer_and_lcc(self):
        for seed, g in self._plants(13000):
            assert check_observer(g).holds == oracle_observer(g, BOUND).ok
            assert check_lcc(g).holds == oracle_lcc(g, BOUND).ok
        # The plants above seldom violate LCC; these small ones do (16 of
        # 200, each within five letters), so a low-level reach that can be
        # read only once, for the first target event, gives wrong verdicts.
        violated = 0
        for seed in range(200):
            g = random_plant(GeneratorParams(4, 4, 0.3, seed=seed))
            holds = check_lcc(g).holds
            assert holds == oracle_lcc(g, 5).ok, f"seed={seed}"
            violated += not holds
        assert violated == 16


class TestWitnessSemantics:
    def test_moc_witness_names_a_real_abstraction_word(self):
        # Whenever the bounded oracle refutes MOC, the witness pair must
        # consist of a plant word s and a Q-image t' with no mate for s.
        al = make_alphabet("abc", observable="ac", highlevel="bc")
        g = tree([(), ("a", "c"), ("b", "c")], al)
        rep = oracle_moc(g, BOUND)
        if not rep.ok:
            assert "s" in rep.witness and "t_prime" in rep.witness

    def test_report_json_shape(self, ex1_plant):
        rep = oracle_moc(ex1_plant, BOUND)
        j = rep.to_json()
        assert j["property"] == "moc"
        assert j["bound"] == BOUND
        assert j["ok"] is False
