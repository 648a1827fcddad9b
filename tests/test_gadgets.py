from __future__ import annotations

import pytest

from hierctl.automata import (AutomataError, PreconditionError, all_marked,
                              enumerate_bounded)
from hierctl.gadgets import (GeneratorParams, gadget_loc, gadget_moc,
                             gadget_oc, is_universal, random_nfa,
                             random_plant, random_sublanguage)
from hierctl.hierarchy import build_context, check_loc, check_moc, check_oc
from hierctl.oracle import oracle_loc, oracle_moc, oracle_oc

from conftest import make_alphabet, tree


def _nfa(seed):
    return random_nfa(GeneratorParams(states=2 + seed % 3, events=2 + seed % 2,
                                      transition_density=0.35, seed=seed))


def _gen_words(a, bound):
    return set(enumerate_bounded(all_marked(a), bound, generated=True))


class TestEncodings:
    """Each gadget's generated language, rebuilt independently here."""

    @staticmethod
    def _oc_expected(a, bound):
        """@#·L(A) ∪ @·Σ* ∪ #·Σ*, with prefixes, up to the bound."""
        base = sorted(a.alphabet.names)
        free = [()]
        for _ in range(bound - 1):
            free = [w + (x,) for w in free for x in base] + free
        inner = _gen_words(a, bound - 2)
        words = {()}
        words |= {("@",) + tuple(w) for w in free}
        words |= {("#",) + tuple(w) for w in free}
        words |= {("@", "#") + w for w in inner} | {("@", "#")}
        return {w for w in words if len(w) <= bound}

    def test_oc_language(self):
        for seed in range(15):
            a = _nfa(seed)
            g = gadget_oc(a)
            assert _gen_words(g, 4) == self._oc_expected(a, 4), f"seed={seed}"

    def test_moc_language_adds_plain_branch(self):
        for seed in range(15):
            a = _nfa(seed)
            g = gadget_moc(a)
            inner = _gen_words(a, 4)
            got = _gen_words(g, 4)
            assert inner <= got, f"seed={seed}"

    def test_markers_carry_the_right_flags(self):
        g = gadget_oc(_nfa(0))
        at = g.alphabet.by_name["@"]
        hash_ = g.alphabet.by_name["#"]
        assert at.observable and not at.highlevel
        assert hash_.highlevel and not hash_.observable

    def test_loc_needs_two_events(self):
        al = make_alphabet("a")
        a = tree([("a",)], al)
        with pytest.raises(PreconditionError):
            gadget_loc(a)

    def test_reserved_names_rejected(self):
        al = make_alphabet(["@", "b"])
        a = tree([("b",)], al)
        with pytest.raises(AutomataError):
            gadget_oc(a)


class TestReductions:
    """Property of the gadget plant ⟺ universality of the input."""

    def test_oc(self):
        for seed in range(25):
            a = _nfa(seed)
            uni = is_universal(a)
            assert oracle_oc(gadget_oc(a), 5).ok == uni, f"seed={seed}"

    def test_moc(self):
        for seed in range(25):
            a = _nfa(seed + 50)
            uni = is_universal(a)
            assert oracle_moc(gadget_moc(a), 5).ok == uni, f"seed={seed}"

    def test_loc(self):
        for seed in range(25):
            a = _nfa(seed + 100)
            uni = is_universal(a)
            assert oracle_loc(gadget_loc(a), 5).ok == uni, f"seed={seed}"

    def test_checkers_never_contradict_universality(self):
        for seed in range(25):
            a = _nfa(seed + 200)
            uni = is_universal(a)
            for make, check in ((gadget_oc, check_oc),
                                (gadget_moc, check_moc),
                                (gadget_loc, check_loc)):
                v = check(make(a), budget=3000)
                if not v.inconclusive:
                    assert v.holds == uni, f"seed={seed} {make.__name__}"


class TestGenerators:
    @pytest.mark.parametrize("bad", [
        {"states": 0}, {"states": -2}, {"events": -1},
        {"transition_density": 1.5}, {"controllable_density": -0.1},
        {"observable_density": 2.0}, {"highlevel_density": -1.0}])
    def test_bad_params_are_precondition_errors(self, bad):
        with pytest.raises(PreconditionError):
            GeneratorParams(**bad)

    def test_edge_params_are_accepted(self):
        g = random_plant(GeneratorParams(
            states=1, events=0, transition_density=1.0,
            controllable_density=0.0, observable_density=1.0,
            highlevel_density=0.0))
        assert len(g.states) == 1 and not g.alphabet.names

    @pytest.mark.parametrize("check", [check_oc, check_moc, check_loc])
    def test_negative_budget_is_a_precondition_error(self, check):
        g = gadget_loc(_nfa(0))
        with pytest.raises(PreconditionError):
            check(g, -5)
        assert not check(g, 0).violated

    def test_random_plant_is_deterministic_and_reproducible(self):
        p = GeneratorParams(seed=7)
        g1 = random_plant(p)
        g2 = random_plant(p)
        assert g1 == g2
        assert g1.is_deterministic

    def test_acyclic_mode_yields_finite_language(self):
        p = GeneratorParams(states=5, acyclic=True, seed=3)
        g = random_plant(p)
        short = set(enumerate_bounded(all_marked(g), 5, generated=True))
        longer = set(enumerate_bounded(all_marked(g), 12, generated=True))
        assert short == longer  # no word needs more steps than states

    def test_sublanguage_is_contained(self):
        g = random_plant(GeneratorParams(seed=11))
        ctx = build_context(g)
        k = random_sublanguage(ctx.plant, 0.3, 99)
        kw = set(enumerate_bounded(k, 5))
        gw = set(enumerate_bounded(ctx.plant, 5))
        assert kw <= gw
