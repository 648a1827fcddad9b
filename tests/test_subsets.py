"""The bitmask subset constructions against frozenset references.

The references below are the subset constructions as they were written
over frozensets of states. A bitmask maps one-to-one onto such a set and
`explore` only hashes its keys, so the kernel must give identical automata,
witnesses and words. `marked_saturate`, L_m(a)·Σ*, is a helper of the
tests; it builds fewer states than its frozenset reference.
"""

from __future__ import annotations

from collections import deque
from itertools import islice

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hierctl import cli
from hierctl.automata import (Automaton, Implicit, LazyRows, ProjectionSpec,
                              all_marked, determinize, difference,
                              eliminate_silent, explore, included, includes,
                              intersect, inverse_project, is_prefix_closed,
                              iter_difference_words, iter_marked_words,
                              language_equal, path_word, prefix_close,
                              project, subset_steps, trim)
from hierctl.checks import sup_normal_closed
from hierctl.cli import main
from hierctl.gadgets import GeneratorParams, random_plant, random_sublanguage
from hierctl.hierarchy import _pair_operands, build_context
from hierctl.relations import normal_forms
from hierctl.saut import serialize_automaton
from hierctl.verdicts import Verdict, Witness

from conftest import (agreement_plants, cli_big_inputs, cli_big_seeds,
                      make_alphabet, pair_operands)

AB = make_alphabet("ab")


def _step(a: Automaton, states: frozenset, e) -> frozenset:
    out = set()
    for q in states:
        out.update(a.succ[q].get(e, ()))
    return frozenset(out)


def ref_determinize(a: Automaton) -> Automaton:
    a = eliminate_silent(a)

    def moves(cur):
        for e in a.alphabet.names:
            nxt = _step(a, cur, e)
            if nxt:
                yield e, nxt

    start = frozenset(a.initial)
    return explore(a.alphabet, [start] if start else [], moves,
                   lambda cur: not a.marked.isdisjoint(cur))


def ref_includes(a: Automaton, b: Automaton) -> Verdict:
    a, b = eliminate_silent(a), eliminate_silent(b)
    b0 = frozenset(b.initial)

    def bad(qa, bs):
        return qa in a.marked and not (bs & b.marked)

    parent = dict.fromkeys((qa, b0) for qa in a.sorted_states(a.initial))
    if any(bad(*key) for key in parent):
        return Verdict.make_violated(Witness("inclusion", {"word": ()}))
    queue = deque(parent)
    while queue:
        qa, bs = queue.popleft()
        for e in a.alphabet.names:
            targets = a.succ[qa].get(e)
            if not targets:
                continue
            nbs = _step(b, bs, e)
            for qn in targets:
                key = (qn, nbs)
                if key in parent:
                    continue
                parent[key] = ((qa, bs), e)
                if bad(qn, nbs):
                    return Verdict.make_violated(Witness(
                        "inclusion", {"word": path_word(parent, key)}))
                queue.append(key)
    return Verdict.make_holds()


def ref_difference(a: Automaton, b: Automaton) -> Automaton:
    a, b = eliminate_silent(a), eliminate_silent(b)
    b0 = frozenset(b.initial)

    def moves(node):
        qa, bs = node
        for e in a.alphabet.names:
            for qn in a.succ[qa].get(e, ()):
                yield e, (qn, _step(b, bs, e))

    return explore(a.alphabet, [(qa, b0) for qa in a.sorted_states(a.initial)],
                   moves, lambda node: node[0] in a.marked
                   and b.marked.isdisjoint(node[1]))


def ref_marked_saturate(a: Automaton) -> Automaton:
    d = ref_determinize(a)
    if not d.states:
        return d
    sink = len(d.states)
    trans = {t for t in d.transitions if t[0] not in d.marked}
    for q in set(d.marked) | {sink}:
        for e in d.alphabet.names:
            trans.add((q, e, sink))
    return Automaton(d.alphabet, d.states + (sink,), frozenset(trans),
                     d.initial, d.marked | {sink})


def marked_saturate(a: Automaton) -> Automaton:
    """Automaton for L_m(a)·Σ*: anything after a marked prefix stays marked.

    The subset construction of `a` stops at a marked subset, since every
    word after it is in the language: each marked subset and a new sink
    move to the sink on every event."""
    a = eliminate_silent(a)
    steps = subset_steps(a)

    def moves(m):
        if not a.meets_marked(m):
            for e in a.alphabet.names:
                t = steps[m].get(e)
                if t:
                    yield e, t

    start = a.start_mask
    d = explore(a.alphabet, [start] if start else [], moves, a.meets_marked)
    if not d.states:
        return d
    sink = len(d.states)   # `explore` numbers its states 0..n-1
    trans = set(d.transitions)
    for q in set(d.marked) | {sink}:
        for e in d.alphabet.names:
            trans.add((q, e, sink))
    return Automaton(d.alphabet, d.states + (sink,), frozenset(trans),
                     d.initial, d.marked | {sink})


def ref_sup_normal_closed(b: Automaton, m: Automaton) -> Automaton:
    p = ProjectionSpec(b.alphabet, b.alphabet.observable)
    bad = ref_marked_saturate(inverse_project(project(ref_difference(m, b),
                                                      p), p))
    return trim(prefix_close(ref_difference(b, bad)))


@st.composite
def nfas(draw, max_states=5):
    """Automata over AB with silent moves, any initial and marked sets
    (the empty ones included) and nondeterminism."""
    n = draw(st.integers(1, max_states))
    states = tuple(f"q{i}" for i in range(n))
    labels = ("a", "b", None)
    trans = draw(st.frozensets(st.tuples(st.sampled_from(states),
                                         st.sampled_from(labels),
                                         st.sampled_from(states)),
                               max_size=3 * n))
    initial = draw(st.frozensets(st.sampled_from(states)))
    marked = draw(st.frozensets(st.sampled_from(states)))
    return Automaton(AB, states, trans, initial, marked)


EMPTY_INITIAL = Automaton(AB, ("p",), frozenset({("p", "a", "p")}),
                          frozenset(), frozenset({"p"}))
NONE_MARKED = Automaton(AB, ("p", "q"), frozenset({("p", "a", "q"),
                                                   ("q", "b", "p")}),
                        frozenset({"p"}), frozenset())
SILENT = Automaton(AB, ("p", "q", "r"),
                   frozenset({("p", None, "q"), ("q", "a", "r"),
                              ("r", None, "p"), ("p", "b", "p")}),
                   frozenset({"p"}), frozenset({"r"}))


def _same(got: Automaton, want: Automaton) -> None:
    assert (got.states, got.transitions, got.initial, got.marked) == \
        (want.states, want.transitions, want.initial, want.marked)


@settings(max_examples=200, deadline=None)
@given(nfas())
@example(EMPTY_INITIAL)
@example(NONE_MARKED)
@example(SILENT)
def test_determinize_matches_reference(a):
    _same(determinize(a), ref_determinize(a))


@settings(max_examples=200, deadline=None)
@given(nfas(), nfas())
@example(EMPTY_INITIAL, SILENT)
@example(SILENT, EMPTY_INITIAL)
@example(SILENT, NONE_MARKED)
@example(NONE_MARKED, SILENT)
def test_difference_and_inclusion_match_reference(a, b):
    _same(difference(a, b), ref_difference(a, b))
    assert includes(a, b).to_json() == ref_includes(a, b).to_json()


def _implicit(a: Automaton) -> Implicit:
    a = eliminate_silent(a)
    return Implicit(a.alphabet, a.initial,
                    lambda q: ((lbl, t) for lbl, ts in a.succ[q].items()
                               for t in ts),
                    a.marked.__contains__)


def _lazy_rows(a: Automaton) -> LazyRows:
    a = eliminate_silent(a)
    return LazyRows(a.alphabet, a.start_mask, a.rows.__getitem__,
                    a.marked_mask)


# Two words of length 2 tie, "ab" and "ba": a search that stepped its
# letters in reverse order would reach "ba" first.
TIE = Automaton(AB, ("p", "q", "r", "s"),
                frozenset({("p", "a", "q"), ("q", "b", "s"),
                           ("p", "b", "r"), ("r", "a", "s")}),
                frozenset({"p"}), frozenset({"s"}))


@settings(max_examples=150, deadline=None)
@given(nfas(), nfas())
@example(SILENT, EMPTY_INITIAL)
@example(SILENT, NONE_MARKED)
@example(TIE, NONE_MARKED)
@example(EMPTY_INITIAL, SILENT)
def test_implicit_right_side_gives_the_reference_words(a, b):
    want = list(islice(iter_marked_words(trim(ref_difference(a, b))), 50))
    assert list(islice(iter_difference_words(a, _implicit(b)), 50)) == want
    assert list(islice(iter_difference_words(a, _lazy_rows(b)), 50)) == want
    assert list(islice(iter_difference_words(a, b), 50)) == want


def test_first_difference_word_breaks_length_ties_in_alphabet_order():
    for b in (NONE_MARKED, _implicit(NONE_MARKED), _lazy_rows(NONE_MARKED)):
        assert next(iter_difference_words(TIE, b)) == ("a", "b")


@settings(max_examples=100, deadline=None)
@given(nfas(), nfas())
@example(EMPTY_INITIAL, SILENT)
@example(SILENT, EMPTY_INITIAL)
@example(SILENT, NONE_MARKED)
@example(NONE_MARKED, SILENT)
def test_antichain_inclusion_matches_the_witness_search(a, b):
    want = includes(a, b).holds
    assert included(a, b) == want
    assert included(a, _implicit(b)) == want
    assert included(a, _lazy_rows(b)) == want


def test_lazy_pair_left_sides_accept_the_reference_language():
    # OC's and MOC's left side, an `Implicit` over state pairs, accepts
    # what sync_pair_compose(x, abstraction, Σhi ∩ Σo) accepts, and yields
    # the same normal forms in the same order
    for g in agreement_plants():
        ctx = build_context(g)
        for kind in ("oc", "moc"):
            la, _ = _pair_operands(ctx, kind)
            ref, _ = pair_operands(g, kind)
            assert la.alphabet == ref.alphabet
            assert included(la, ref) and included(ref, la), (g, kind)
            assert list(iter_marked_words(normal_forms(la), 4)) == \
                list(iter_marked_words(normal_forms(ref), 4)), (g, kind)


def test_lazy_pair_right_sides_give_the_reference_words():
    # OC's and MOC's right side over plant-state pairs poses the inclusion
    # that relabel_pair(sync_pair_compose(plant, plant, Σo), ...) posed
    found = {True: 0, False: 0}
    for g in agreement_plants():
        ctx = build_context(g)
        for kind in ("oc", "moc"):
            la, ra = _pair_operands(ctx, kind)
            _, ref = pair_operands(g, kind)
            assert ra.alphabet == ref.alphabet
            words = []
            for left in (la, normal_forms(la)):
                want = list(islice(iter_difference_words(left, ref), 20))
                assert list(islice(iter_difference_words(left, ra),
                                   20)) == want, (g, kind)
                words.append(want)
            # check_oc's and check_moc's pre-check: a plain inclusion that
            # holds leaves no normal form outside the right side either
            assert included(la, ra) == (not words[0])
            assert words[0] or not words[1]
            found[bool(words[0])] += 1
    assert found[True] >= 5 and found[False] >= 5, found


@settings(max_examples=150, deadline=None)
@given(nfas())
@example(EMPTY_INITIAL)
@example(NONE_MARKED)
@example(SILENT)
def test_implicit_gives_the_automaton_marked_words(a):
    # trimmed, so that a finite language ends the unbounded enumeration
    t = trim(eliminate_silent(a))
    want = list(islice(iter_marked_words(t), 50))
    assert list(islice(iter_marked_words(_implicit(t)), 50)) == want
    assert list(iter_marked_words(_implicit(a), 4)) == \
        list(iter_marked_words(a, 4))


@settings(max_examples=200, deadline=None)
@given(nfas())
@example(EMPTY_INITIAL)
@example(NONE_MARKED)
@example(SILENT)
def test_marked_saturate_matches_reference_language(a):
    got, want = marked_saturate(a), ref_marked_saturate(a)
    assert language_equal(got, want)
    assert len(got.states) <= len(want.states)


def _closed_pairs():
    """Prefix-closed B ⊆ M: random plants and random sublanguages."""
    for seed in range(100):
        m = all_marked(random_plant(GeneratorParams(
            states=4 + seed % 9, events=2 + seed % 4,
            transition_density=0.3 + 0.05 * (seed % 5),
            deterministic=seed % 3 != 0, seed=seed + 900)))
        yield prefix_close(random_sublanguage(m, 0.3, seed)), m


def _cli_big_pairs():
    """(B, M) as `synth supn` poses them on the big cli-mix inputs."""
    for seed in cli_big_seeds():
        g, _, k = cli_big_inputs(seed)
        m = all_marked(g)
        yield intersect(prefix_close(trim(k)), m), m


def test_sup_normal_closed_is_byte_identical_to_reference():
    pairs = list(_closed_pairs()) + list(_cli_big_pairs())
    assert len(pairs) == 112
    changed = 0
    for b, m in pairs:
        got, want = sup_normal_closed(b, m), ref_sup_normal_closed(b, m)
        _same(got, want)
        assert serialize_automaton(got) == serialize_automaton(want)
        changed += not language_equal(got, b)
    assert changed > 10   # many instances remove words


def test_supn_builds_only_its_result(tmp_path, monkeypatch, capsys):
    # `synth supn` on the fourteenth big cli-mix input: the difference,
    # projection, inverse projection, saturation and difference built 471
    # states in 8 automata; the one search over (B state, O) and its trim
    # build 50 in 2.
    g, _, k = cli_big_inputs(14)
    gp, kp = tmp_path / "g.saut", tmp_path / "k.saut"
    gp.write_text(serialize_automaton(g), encoding="utf-8")
    kp.write_text(serialize_automaton(k), encoding="utf-8")
    sizes, inside = [], []
    post_init = Automaton.__post_init__

    def counting(self):
        if inside:
            sizes.append(len(self.states))
        post_init(self)

    def recording(b, m):
        inside.append(None)
        try:
            return sup_normal_closed(b, m)
        finally:
            inside.clear()

    monkeypatch.setattr(Automaton, "__post_init__", counting)
    monkeypatch.setattr(cli, "sup_normal_closed", recording)
    assert main(["--json", "synth", "supn", str(kp), str(gp)]) == 0
    assert '"result_states"' in capsys.readouterr().out
    assert len(sizes) <= 2 and sum(sizes) <= 100, sizes


@settings(max_examples=200, deadline=None)
@given(nfas())
@example(EMPTY_INITIAL)
@example(NONE_MARKED)
@example(SILENT)
def test_prefix_closedness_matches_the_inclusion(a):
    for x in (a, prefix_close(a), all_marked(a), trim(a)):
        assert is_prefix_closed(x) == included(prefix_close(x), x)
