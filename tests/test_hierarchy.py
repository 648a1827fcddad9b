from __future__ import annotations

import itertools
import random

import pytest

from hierctl import oracle
from hierctl.automata import (Automaton, all_marked, enumerate_bounded,
                              intersect, inverse_project, is_empty,
                              language_equal, project, word_automaton)
from hierctl.gadgets import (GeneratorParams, gadget_loc, gadget_moc,
                             gadget_oc, random_nfa, random_plant,
                             random_sublanguage)
from hierctl.hierarchy import (PreconditionError, _loc_continuations_exist,
                               _moc_mate_exists, _oc_pair_exists,
                               build_context,
                               check_lcc, check_loc, check_moc,
                               check_moc_modular, check_observer, check_oc,
                               conform_spec, hier_synth_normal,
                               hier_synth_relobs, hier_verify,
                               lemma_distribute_q, lemma_moc_implies_oc,
                               moc_structurally_guaranteed)

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


class TestRefutationRegressions:
    """Pinned refutation-loop verdicts, witnesses and details."""

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
            for _ in range(25):
                t, tp = rng.choice(ts), rng.choice(ts)
                got = _oc_pair_exists(ctx, t, tp)
                assert got == _reference_oc(ctx, t, tp), (g, t, tp)
                assert got == oracle._exists_oc_pair(gl, t, tp), (g, t, tp)
                outcomes["oc"].add(got)

                s = rng.choice(words)
                got = _moc_mate_exists(ctx, ctx.p.apply(s), tp)
                assert got == _reference_moc(ctx, s, tp), (g, s, tp)
                assert got == oracle._exists_moc_mate(
                    gl, ctx.p.apply(s), tp), (g, s, tp)
                outcomes["moc"].add(got)

                sp, e = rng.choice(words), rng.choice(events)
                got = _loc_continuations_exist(ctx, s, sp, e)
                assert got == _reference_loc(ctx, s, sp, e), (g, s, sp, e)
                assert got == oracle._loc_continuations_meet(
                    gl, s, sp, e), (g, s, sp, e)
                outcomes["loc"].add(got)
        assert outside > 0
        assert all(o == {True, False} for o in outcomes.values()), outcomes


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
