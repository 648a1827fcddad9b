from __future__ import annotations

import copy
import random

import pytest

from hierctl import automata, checks
from hierctl.automata import (Automaton, ProjectionSpec, all_marked,
                              determinize, enumerate_bounded, explore,
                              intersect, inverse_project,
                              iter_difference_words, parallel_compose,
                              prefix_close, project, trim)
from hierctl.checks import (SynthReport, check_controllability,
                            check_nonconflicting, check_normality,
                            check_observability, check_relative_observability,
                            sup_normal_closed, sup_relobs_closed)
from hierctl.gadgets import GeneratorParams, random_plant, random_sublanguage
from hierctl.hierarchy import build_context, conform_spec
from hierctl.oracle import (oracle_controllability, oracle_normality,
                            oracle_observability, oracle_sup_normal,
                            oracle_sup_relobs)

from conftest import (cli_big_inputs, load, make_alphabet, record_built,
                      ref_includes, tree)
from test_search import ref_check_controllability, ref_observability


def _spec(plant, words, alphabet):
    return conform_spec(tree(words, alphabet), plant.alphabet)


class TestControllability:
    def test_holds(self):
        al = make_alphabet("au", controllable="a")
        g = tree([("a",), ("a", "u")], al)
        k = tree([("a",), ("a", "u")], al)
        assert check_controllability(k, g).holds

    def test_violated_with_witness(self):
        al = make_alphabet("au", controllable="a")
        g = tree([("a",), ("a", "u")], al)
        k = tree([("a",)], al)
        v = check_controllability(k, g)
        assert v.violated
        w = v.witness.strings
        assert w["s"] == ("a",) and w["e"] == ("u",)
        assert w["se"] == ("a", "u")

    def test_agrees_with_oracle_on_random_instances(self):
        for seed in range(40):
            g = random_plant(GeneratorParams(seed=seed))
            ctx = build_context(g)
            k = random_sublanguage(ctx.plant, 0.3, seed + 11)
            got = check_controllability(k, ctx.plant, )
            rep = oracle_controllability(k, ctx.plant, bound=5)
            assert got.holds == rep.ok, f"seed={seed}"


class TestObservability:
    def test_classic_violation(self):
        # u is unobservable; after a vs after au, e must be decided the
        # same way, but K allows e only on one side.
        al = make_alphabet("aue", observable="ae")
        g = tree([("a",), ("a", "u"), ("a", "e"), ("a", "u", "e")], al)
        k = tree([("a",), ("a", "u"), ("a", "e")], al)
        v = check_observability(k, g)
        assert v.violated
        w = v.witness.strings
        assert {w["s"], w["s_prime"]} == {("a",), ("a", "u")}
        assert w["e"] == ("e",)

    def test_holds_when_consistent(self):
        al = make_alphabet("aue", observable="ae")
        g = tree([("a",), ("a", "u"), ("a", "e"), ("a", "u", "e")], al)
        k = tree([("a",), ("a", "u"), ("a", "e"), ("a", "u", "e")], al)
        assert check_observability(k, g).holds

    def test_agrees_with_oracle(self):
        for seed in range(40):
            g = random_plant(GeneratorParams(seed=seed + 100))
            ctx = build_context(g)
            k = random_sublanguage(ctx.plant, 0.3, seed + 3)
            got = check_observability(k, ctx.plant)
            rep = oracle_observability(k, ctx.plant, bound=5)
            assert got.holds == rep.ok, f"seed={seed}"


class TestRelativeObservability:
    def test_weaker_than_observability(self, relobs_plant, relobs_spec,
                                       relobs_ambient):
        g = all_marked(relobs_plant)
        k = conform_spec(relobs_spec, g.alphabet)
        c = conform_spec(relobs_ambient, g.alphabet)
        # K is observable outright, hence C-observable for any ambient C.
        assert check_observability(k, g).holds
        assert check_relative_observability(k, c, g).holds

    def test_violation_relative_to_larger_ambient(self):
        al = make_alphabet("aue", observable="ae")
        g = tree([("a",), ("a", "u"), ("a", "e"), ("a", "u", "e")], al)
        k = tree([("a",), ("a", "e")], al)
        c = tree([("a",), ("a", "u"), ("a", "e")], al)
        v = check_relative_observability(k, c, g)
        assert v.violated
        w = v.witness.strings
        assert w["e"] == ("e",)

    def test_precondition_spec_inside_ambient(self):
        al = make_alphabet("a")
        g = tree([("a",)], al)
        k = tree([("a",)], al)
        c = tree([()], al)
        with pytest.raises(Exception):
            check_relative_observability(k, c, g)


class TestNormality:
    def test_normal_language(self):
        al = make_alphabet("ab", observable="a")
        g = tree([("a",), ("b",), ("b", "a")], al)
        k = tree([("a",), ("b",), ("b", "a")], al)
        assert check_normality(k, g).holds

    def test_non_normal_language(self):
        al = make_alphabet("ab", observable="a")
        g = tree([("a",), ("b",), ("b", "a")], al)
        k = tree([("a",)], al)  # P-1P(K) picks up ("b","a")
        assert check_normality(k, g).violated

    def test_agrees_with_oracle(self):
        for seed in range(30):
            g = random_plant(GeneratorParams(seed=seed + 400))
            ctx = build_context(g)
            k = random_sublanguage(ctx.plant, 0.3, seed + 5)
            got = check_normality(k, ctx.plant)
            rep = oracle_normality(k, ctx.plant, bound=5)
            assert got.holds == rep.ok, f"seed={seed}"

    def test_agrees_with_the_reference_and_gives_the_first_word(self):
        # The triple search is deterministic, so its witness is the
        # length-lexicographically first word of (P⁻¹P(K̄) ∩ L(G)) − K̄;
        # the reference inclusion search over the nondeterministic product
        # can stop at a later word of the same length.
        outcomes, changed = set(), 0
        for name, k, g in _normality_instances():
            got, want = check_normality(k, g), ref_check_normality(k, g)
            assert got.holds == want.holds, name
            outcomes.add(got.holds)
            if got.violated:
                word = got.witness.strings["word"]
                assert word == next(iter_difference_words(
                    *_normality_operands(k, g))), name
                changed += word != want.witness.strings["word"]
        assert outcomes == {True, False}
        assert changed >= 3

    def test_witness_on_a_nondeterministic_plant(self):
        g = random_plant(GeneratorParams(6, 5, 0.45, deterministic=False,
                                         seed=296))
        k = random_sublanguage(all_marked(g), 0.3, 219)
        assert ref_check_normality(k, g).witness.strings["word"] == \
            ("e0", "e1")
        assert check_normality(k, g).witness.strings["word"] == ("e0", "e0")

    def test_builds_no_product(self, monkeypatch):
        # On these big cli-mix inputs the projection P(K̄), its inverse
        # projection and their intersection with L(G) made 6 automata of
        # 649–1,503 states per call; the triple search builds trim(K) alone.
        built = []
        record_built(monkeypatch, built.append)
        for seed in (0, 2, 7, 9, 14):
            g, _, k = cli_big_inputs(seed)
            built.clear()
            check_normality(k, g)
            assert len(built) <= 4, seed


class TestNonconflicting:
    def test_conflicting_pair(self):
        al = make_alphabet("ab")
        a = tree([("a", "b")], al)
        b = tree([("a",)], al)
        # shared prefix ("a",) extends to marking only in one component
        v = check_nonconflicting(a, b)
        assert v.violated

    def test_nonconflicting_pair(self):
        al = make_alphabet("ab")
        a = tree([("a",), ("a", "b")], al)
        b = tree([("a",)], al)
        assert check_nonconflicting(a, b).holds


class TestSupNormal:
    def test_removes_unobservably_confusable_words(self):
        al = make_alphabet("ab", observable="a")
        g = tree([("a",), ("b",), ("b", "a")], al)
        b = prefix_close(tree([("a",), ("b",)], al))
        m = all_marked(g)
        s = sup_normal_closed(b, m)
        words = set(enumerate_bounded(s, 3))
        # ("b","a") is outside B but P-confusable with ("a",), so both go.
        assert ("b",) in words
        assert ("a",) not in words

    def test_result_is_normal_and_supremal_vs_oracle(self):
        for seed in range(30):
            g = random_plant(GeneratorParams(seed=seed + 800))
            ctx = build_context(g)
            b = prefix_close(random_sublanguage(ctx.plant, 0.3, seed))
            s = sup_normal_closed(b, ctx.plant)
            assert check_normality(s, ctx.plant).holds
            expected = oracle_sup_normal(b, ctx.plant, bound=5)
            got = set(enumerate_bounded(s, 5))
            assert got == set(expected), f"seed={seed}"


class TestSupRelobs:
    def test_fixpoint_is_relatively_observable(self):
        for seed in range(20):
            g = random_plant(GeneratorParams(states=4, seed=seed + 50))
            ctx = build_context(g)
            k = prefix_close(random_sublanguage(ctx.plant, 0.3, seed + 1))
            s, report = sup_relobs_closed(k, k, ctx.plant)
            assert report.converged
            assert check_relative_observability(s, k, ctx.plant).holds

    def test_supremal_on_acyclic_instances(self):
        for seed in range(25):
            params = GeneratorParams(states=4 + seed % 2, events=2 + seed % 2,
                                     transition_density=0.5, acyclic=True,
                                     seed=seed + 7000)
            g = random_plant(params)
            ctx = build_context(g)
            k = prefix_close(random_sublanguage(ctx.plant, 0.3, seed))
            s, _ = sup_relobs_closed(k, k, ctx.plant)
            expected = oracle_sup_relobs(k, k, ctx.plant, bound=6)
            got = set(enumerate_bounded(s, 6))
            assert got == set(expected), f"seed={seed}"

    def test_agrees_with_one_check_per_round(self):
        rounds = []
        for name, k, c, g in [*_odd_instances(), *_sup_relobs_instances()]:
            got, rep = sup_relobs_closed(k, c, g)
            want, want_rep = _reference_sup_relobs(k, c, g)
            assert got.states == want.states, name
            assert got.transitions == want.transitions, name
            assert got.initial == want.initial, name
            assert got.marked == want.marked, name
            assert rep == want_rep, name
            rounds.append(rep.rounds)
        assert max(rounds) >= 5

    def test_cost_does_not_grow_with_rounds(self, monkeypatch):
        # R is read on demand, so nothing is built before the first
        # deletion, and the rounds build no automaton: only the result
        # follows the last (it was the whole R first, and the result and
        # its trim last).
        k, c, g = _rounds_instance()
        built, at_delete = [], []
        record_built(monkeypatch, built.append)
        delete = checks._PairSearch.delete

        def recording(self, q, e):
            at_delete.append(len(built))
            delete(self, q, e)

        monkeypatch.setattr(checks._PairSearch, "delete", recording)
        got, rep = sup_relobs_closed(k, c, g)
        assert rep.converged and rep.rounds >= 10
        assert at_delete == [0] * rep.rounds
        assert built == [got]

    def test_candidate_is_the_nested_product(self, monkeypatch):
        # Each triple of R that the search reads has the row, and the
        # result the state numbers, of the nested product of the
        # determinized K̄, L(G) and observer.
        candidates = _recorded_candidates(monkeypatch)
        sizes = set()
        for name, k, c, g in [*_odd_instances(), *_sup_relobs_instances()]:
            got, _ = sup_relobs_closed(k, c, g)
            r, want = candidates[-1], _reference_candidate(k, g)
            state = {key: want.run(word)
                     for key, word in _words(r.succ, r.initial).items()}
            assert state.keys() >= r.succ.keys(), name
            for key, row in r.succ.items():
                (q,) = state[key]
                assert {e: tuple(p for t in ts for p in state[t])
                        for e, ts in row.items()} == want.succ[q], name
            assert {q for key in r.succ for q in state[key]} >= \
                set(got.states), name
            assert got.transitions <= want.transitions, name
            assert got.initial == want.initial & set(got.states), name
            assert got.marked == set(got.states), name
            assert want.marked == set(want.states), name
            sizes.add(len(r.succ))
        assert 0 in sizes and max(sizes) >= 20

    def test_reads_a_small_part_of_the_candidate(self, monkeypatch):
        # The whole candidates of these big cli-mix inputs have 1,437 and
        # 1,100 states, and each was built by `explore` before the first
        # round; now a triple is expanded only when the search reads it.
        candidates, explored = _recorded_candidates(monkeypatch), []

        def recording(*args):
            out = explore(*args)
            explored.append(len(out.states))
            return out

        monkeypatch.setattr(checks, "explore", recording)
        for seed, whole in ((7, 1437), (14, 1100)):
            g, c, k = cli_big_inputs(seed)
            assert len(_reference_candidate(k, g).states) == whole
            explored.clear()
            sup_relobs_closed(k, c, g)
            assert sum(explored) + len(candidates[-1].succ) <= 100, seed

    def test_small_results_match_the_reference(self):
        # Results much smaller than R, whose states are named by numbers
        # that the whole R gives, not by the order the search reads R in.
        cases = 0
        for name, k, c, g in _small_result_instances():
            got, rep = sup_relobs_closed(k, c, g)
            want, want_rep = _reference_sup_relobs(k, c, g)
            assert (got.alphabet, got.states, got.transitions, got.initial,
                    got.marked, rep) == (want.alphabet, want.states,
                                         want.transitions, want.initial,
                                         want.marked, want_rep), name
            cases += 1
        assert cases >= 10

    def test_k_as_its_own_ambient_is_an_equal_copy(self):
        # C given as K itself and C given as a distinct but equal copy of
        # K lead to the same result.
        for name, k, c, g in [*_odd_instances(), *_sup_relobs_instances()]:
            want, want_rep = sup_relobs_closed(k, copy.copy(k), g)
            got, rep = sup_relobs_closed(k, k, g)
            assert (got.states, got.transitions, got.initial, got.marked,
                    rep) == (want.states, want.transitions, want.initial,
                             want.marked, want_rep), name

    def test_no_determinized_copy(self, monkeypatch):
        def triples():
            yield from _odd_instances()
            for seed in (0, 1, 14):
                g, c, k = cli_big_inputs(seed)
                yield f"cli-big-{seed}", k, c, g

        def results():
            out = []
            for _, k, c, g in triples():
                got, rep = sup_relobs_closed(k, c, g)
                out.append((check_controllability(k, g).to_json(),
                            check_observability(k, g).to_json(),
                            check_relative_observability(k, c, g).to_json(),
                            got.states, got.transitions, got.initial,
                            got.marked, rep))
            return out

        def boom(a):
            raise AssertionError("determinize called")

        want = results()
        monkeypatch.setattr(automata, "determinize", boom)
        monkeypatch.setattr(checks, "determinize", boom, raising=False)
        assert results() == want

    def test_no_projection(self, monkeypatch):
        # The observer P(L(G)) is read on demand (`checks._observed`); it
        # was `project(all_marked(G))`, built whole on every call.
        def results():
            out = []
            for seed in (0, 1, 14):
                g, c, k = cli_big_inputs(seed)
                got, rep = sup_relobs_closed(k, c, g)
                out.append((got.states, got.transitions, got.initial,
                            got.marked, rep))
            return out

        def boom(*args):
            raise AssertionError("project called")

        want = results()
        monkeypatch.setattr(automata, "project", boom)
        monkeypatch.setattr(checks, "project", boom, raising=False)
        assert results() == want

    def test_synthesis_builds_only_its_candidate(self, monkeypatch):
        # On the fourteenth big cli-mix input the determinized K̄, L(G) and
        # observer and the two nested products built 4,336 states in 7
        # `explore`s; the candidate alone has 1,100.
        g, c, k = cli_big_inputs(14)
        sizes = []

        def recording(*args):
            out = explore(*args)
            sizes.append(len(out.states))
            return out

        monkeypatch.setattr(automata, "explore", recording)
        monkeypatch.setattr(checks, "explore", recording, raising=False)
        sup_relobs_closed(k, c, g)
        assert sum(sizes) <= 1500


AU = make_alphabet("au", controllable="a", observable="a")


def _au(moves, marked) -> Automaton:
    """An automaton over {a, u}, a controllable and observable and u
    neither, from "source event target" moves, started at the first
    source."""
    moves = [tuple(m.split()) for m in moves]
    states = sorted({q for m in moves for q in (m[0], m[2])})
    return Automaton.make(AU, states, moves, moves[0][0], marked)


def _dead_branch_cases():
    """(name, shell, reference, body, inputs): a K, or a C, with a dead
    branch, a reachable state that reaches no marked one. The shell and
    the reference close it; the body handed it raw reads the branch as
    part of K̄ (or C̄) and gives another answer."""
    g1 = _au(["p a q", "p u r"], "pqr")
    g2 = _au(["p u q", "q a s", "p a r"], "pqrs")
    g3 = _au(["p a q", "q u r", "p u s"], "pqrs")
    # K̄ = {ε, a}, which u leaves for L(G), but the raw u-branch does not
    k1 = _au(["x a y", "x u d"], "y")
    # K̄ = {ε, a, u}: a follows ε in K̄ but not the look-alike u, which
    # the raw branch "u a" hides
    k2 = _au(["x a y", "x u z", "z a d"], "xyz")
    # K̄ = {ε, a, au} misses u, a look-alike of ε; normality reads K's
    # marks too, and the raw K, with ε unmarked, is {a, au}, normal
    k3 = _au(["x a y", "y u z", "x u d"], "yz")
    # K = C̄ = {ε, a}; the raw u-branch of C makes u a look-alike s' of ε
    ka, ca = _au(["x a y"], "xy"), _au(["x a y", "x u d"], "xy")
    events = g2.alphabet.names
    yield ("controllability", check_controllability,
           ref_check_controllability, checks._controllability, (k1, g1))
    yield ("observability", check_observability,
           lambda k, g: ref_observability(k, k, g, g.alphabet.controllable,
                                          "observability"),
           checks._observability, (k2, g2))
    for name, inputs in (("relobs-k", (k2, g2, g2)), ("relobs-c", (ka, ca, g2))):
        yield (name, check_relative_observability,
               lambda k, c, g: ref_observability(k, c, g, events,
                                                 "relative-observability"),
               lambda k, c, g: checks._observability_engine(
                   k, c, g, events, "relative-observability"), inputs)
    yield ("normality", check_normality, ref_check_normality,
           checks._normality, (k3, g3))
    for name, inputs in (("sup-relobs-k", (ca, ca, g2)),
                         ("sup-relobs-c", (ka, ca, g2))):
        yield (name, sup_relobs_closed, _reference_sup_relobs,
               checks._sup_relobs, inputs)


def _answer(out):
    """A verdict's outcome and witness strings (the normality reference is
    an inclusion, of another witness kind), or a synthesis result's fields
    and report."""
    if isinstance(out, tuple):
        a, rep = out
        return a.states, a.transitions, a.initial, a.marked, rep
    return out.outcome, out.witness and out.witness.strings


class TestShellsCloseTheSpecification:
    def test_a_dead_branch_is_closed_away(self):
        shells = set()
        for name, shell, reference, body, inputs in _dead_branch_cases():
            got = _answer(shell(*inputs))
            assert got == _answer(reference(*inputs)), name
            assert got != _answer(body(*inputs)), name
            shells.add(shell)
        assert len(shells) == 5


def _normality_operands(k, g):
    """P⁻¹P(K̄) ∩ L(G) and K̄, each built whole."""
    p = ProjectionSpec(g.alphabet, g.alphabet.observable)
    kbar = prefix_close(trim(k))
    return intersect(inverse_project(project(kbar, p), p), all_marked(g)), kbar


def ref_check_normality(k, g):
    """Normality as the inclusion of P⁻¹P(K̄) ∩ L(G) in K̄, with the
    shortest witness that the reference inclusion search finds."""
    return ref_includes(*_normality_operands(k, g))


def _normality_instances():
    """(name, K, G): random plants, half of them nondeterministic, with
    K ⊆ L(G); the big cli-mix inputs; and the odd sup_relobs instances."""
    for i in range(600):
        params = GeneratorParams(3 + i % 4, 2 + i % 4, 0.3 + 0.05 * (i % 4),
                                 deterministic=i % 2 == 0, seed=i + 77)
        g = random_plant(params)
        yield f"random-{i}", random_sublanguage(all_marked(g), 0.3, i), g
    for seed in (0, 2, 7, 9, 14):
        g, _, k = cli_big_inputs(seed)
        yield f"cli-big-{seed}", k, g
    for name, k, _, g in _odd_instances():
        yield name, k, g


def _observer_refinement(g):
    """DFA over Σ whose state after s depends only on P(s) (all marked)."""
    p = ProjectionSpec(g.alphabet, g.alphabet.observable)
    obs = determinize(project(all_marked(g), p))
    loops = {(q, e, q) for q in obs.states for e in g.alphabet.names
             if e not in g.alphabet.observable}
    return Automaton(g.alphabet, obs.states, obs.transitions | loops,
                     obs.initial, frozenset(obs.states))


def _reference_candidate(k, g):
    """R = K̄ × G × observer, each built whole and determinized."""
    return parallel_compose(
        parallel_compose(determinize(prefix_close(trim(k))),
                         determinize(all_marked(g))),
        _observer_refinement(g))


def _reference_sup_relobs(k, c, g):
    """The removal loop as one full C-observability check per round."""
    current = trim(_reference_candidate(k, g))
    removed = 0
    while True:
        if not current.states:
            return current, SynthReport(True, removed, removed)
        v = check_relative_observability(current, c, g)
        if v.holds:
            return current, SynthReport(True, removed, removed)
        s, e = v.witness.strings["s"], v.witness.strings["e"][0]
        (q,) = current.run(s)
        tgt = current.succ[q][e][0]
        current = trim(Automaton(
            current.alphabet, current.states,
            current.transitions - {(q, e, tgt)},
            current.initial, current.marked))
        removed += 1


def _recorded_candidates(monkeypatch) -> list:
    """The candidates R that `sup_relobs_closed` builds from now on, each
    the last `Implicit` of its call (its observer is one too)."""
    made = []

    def recording(*args):
        made.append(automata.Implicit(*args))
        return made[-1]

    monkeypatch.setattr(checks, "Implicit", recording)
    return made


def _words(succ, starts) -> dict:
    """key -> a word that reaches it from `starts` through the keys that
    `succ` holds already."""
    word = dict.fromkeys(starts, ())
    queue = list(word)
    for key in queue:
        for e, targets in succ.get(key, {}).items():
            for t in targets:
                if t not in word:
                    word[t] = word[key] + (e,)
                    queue.append(t)
    return word


def _small_result_instances():
    """(name, K, C, G) whose result has at most a quarter of R's states:
    four big cli-mix inputs and seeded cyclic plants."""
    for seed in (0, 2, 14, 16):
        g, c, k = cli_big_inputs(seed)
        yield f"cli-big-{seed}", k, c, g
    for seed in range(80):
        g = random_plant(GeneratorParams(20, 4, 0.4, seed=seed + 500))
        c = random_sublanguage(g, 0.1, seed + 1000)
        k = random_sublanguage(c, 0.2, seed + 2000)
        got, _ = sup_relobs_closed(k, c, g)
        if 4 * len(got.states) <= len(_reference_candidate(k, g).states):
            yield f"cyclic-{seed}", k, c, g


def _odd_instances():
    """Prefix-closed K ⊆ C ⊆ L(G) on a nondeterministic G with an
    unobservable event and a silent move, an empty K, and a G with no
    initial state."""
    al = make_alphabet("abu", controllable="ab", observable="ab")
    moves = [("p", "a", "q"), ("p", "a", "r"), ("q", "u", "p"),
             ("r", "b", "p"), ("q", None, "r"), ("r", "u", "r"),
             ("q", "b", "q")]
    g = Automaton.make(al, "pqr", moves, "p", "pqr")
    words = enumerate_bounded(all_marked(g), 4)
    for seed in range(8):
        rng = random.Random(seed)
        cw = rng.sample(words, len(words) // 2)
        kw = rng.sample(cw, len(cw) // 2)
        c = prefix_close(tree(cw, al))
        yield f"odd-{seed}", prefix_close(tree(kw, al)), c, g
        yield f"odd-{seed}-kc", c, c, g
    empty = Automaton.make(al, "e", [], "e", [])
    yield "empty-k", empty, c, g
    yield "empty-kc", empty, empty, g
    yield "no-initial", empty, empty, Automaton.make(al, "pqr", moves, [], "pqr")


def _random_levels_params(seed):
    return GeneratorParams(states=4 + seed % 7, events=3 + seed % 3,
                           transition_density=0.35 + 0.05 * (seed % 4),
                           deterministic=seed % 5 != 0, seed=seed + 300)


def _nested_specs(g, seed):
    """Prefix-closed C ⊆ L(G) and K ⊆ C."""
    c = prefix_close(random_sublanguage(g, 0.15, seed + 5))
    k = prefix_close(trim(intersect(c, random_sublanguage(g, 0.2, seed + 9))))
    return k, c


def _rounds_instance():
    """An instance whose fixpoint takes 26 rounds."""
    g = build_context(random_plant(_random_levels_params(25))).plant
    k, _ = _nested_specs(g, 25)
    return k, k, g


def _sup_relobs_instances():
    for seed in range(20):
        g = random_plant(GeneratorParams(states=4, seed=seed + 50))
        ctx = build_context(g)
        k = prefix_close(random_sublanguage(ctx.plant, 0.3, seed + 1))
        yield f"fixpoint-{seed}", k, k, ctx.plant
    for seed in range(25):
        params = GeneratorParams(states=4 + seed % 2, events=2 + seed % 2,
                                 transition_density=0.5, acyclic=True,
                                 seed=seed + 7000)
        ctx = build_context(random_plant(params))
        k = prefix_close(random_sublanguage(ctx.plant, 0.3, seed))
        yield f"acyclic-{seed}", k, k, ctx.plant
    for seed in range(30):
        ctx = build_context(random_plant(_random_levels_params(seed)))
        for level, g in (("plant", ctx.plant), ("abstraction", ctx.abstraction)):
            k, c = _nested_specs(g, seed)
            yield f"{level}-{seed}", k, k, g
            yield f"{level}-{seed}-ambient", k, c, g
    g = all_marked(load("relobs-plant.saut"))
    k = prefix_close(trim(conform_spec(load("relobs-spec.saut"), g.alphabet)))
    c = prefix_close(trim(conform_spec(load("relobs-ambient.saut"), g.alphabet)))
    yield "data-relobs", intersect(k, g), intersect(c, g), g
