from __future__ import annotations

import pytest

from hierctl import oracle
from hierctl.automata import (all_marked, enumerate_bounded, language_equal,
                              project)
from hierctl.gadgets import GeneratorParams, random_plant, random_sublanguage
from hierctl.hierarchy import (PreconditionError, build_context,
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
    """Verdicts whose difference automaton is too large to build in time."""

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
