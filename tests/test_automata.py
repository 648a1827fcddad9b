from __future__ import annotations

from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hierctl.automata import (AutomataError, Automaton, ProjectionSpec,
                              all_marked, complement, determinize, difference,
                              enumerate_bounded, includes, intersect,
                              inverse_project, is_empty, is_prefix_closed,
                              iter_difference_words, iter_marked_words,
                              language_equal, marked_saturate,
                              parallel_compose, prefix_close, project,
                              right_quotient, sigma_star, trim, union,
                              word_automaton)
from hierctl.gadgets import GeneratorParams, random_plant
from hierctl.hierarchy import _common_pair, build_context
from hierctl.relations import relabel_pair, sync_pair_compose

from conftest import make_alphabet, tree

AB = make_alphabet("ab")


def words(*ws):
    return [tuple(w) for w in ws]


@st.composite
def random_automata(draw, n_events=2, max_states=4):
    alphabet = make_alphabet("ab"[:n_events])
    n = draw(st.integers(1, max_states))
    states = tuple(f"q{i}" for i in range(n))
    trans = set()
    for q in states:
        for e in alphabet.names:
            for t in states:
                if draw(st.booleans()):
                    trans.add((q, e, t))
    marked = frozenset(s for s in states if draw(st.booleans()))
    return Automaton(alphabet, states, frozenset(trans),
                     frozenset({states[0]}), marked)


def test_tree_builder_accepts_exactly_its_words():
    a = tree(words("a", "ab"), AB)
    assert a.accepts_marked(("a",))
    assert a.accepts_marked(("a", "b"))
    assert not a.accepts_marked(())
    assert not a.accepts_marked(("b",))


def test_determinize_preserves_language():
    a = tree(words("", "a", "ab", "b"), AB)
    # add nondeterminism: second a-edge from the root
    trans = set(a.transitions) | {("t", "a", "tb")}
    nfa = Automaton(a.alphabet, a.states, frozenset(trans), a.initial, a.marked)
    assert language_equal(nfa, determinize(nfa))
    assert determinize(nfa).is_deterministic


@settings(max_examples=60, deadline=None)
@given(random_automata())
def test_determinize_agrees_on_bounded_words(a):
    assert enumerate_bounded(a, 4) == enumerate_bounded(determinize(a), 4)


@settings(max_examples=60, deadline=None)
@given(random_automata(), random_automata())
def test_inclusion_matches_bounded_enumeration(a, b):
    v = includes(a, b)
    wa = set(enumerate_bounded(a, 5))
    wb = set(enumerate_bounded(b, 5))
    if v.holds:
        assert wa <= wb
    else:
        w = v.witness.strings["word"]
        assert a.accepts_marked(w) and not b.accepts_marked(w)


def test_inclusion_witness_is_shortest():
    a = tree(words("b", "aa"), AB)
    b = tree(words("b"), AB)
    v = includes(a, b)
    assert v.violated
    assert v.witness.strings["word"] == ("a", "a")


def test_complement_partitions_sigma_star():
    a = tree(words("a", "ba"), AB)
    c = complement(a)
    assert is_empty(intersect_over_common(a, c))
    assert language_equal(union_over_common(a, c), sigma_star(AB))


def intersect_over_common(a, b):
    return intersect(determinize_pad(a), determinize_pad(b))


def union_over_common(a, b):
    return union(determinize_pad(a), determinize_pad(b))


def determinize_pad(a):
    from hierctl.automata import complete
    return complete(determinize(a))[0]


def test_project_and_inverse_project():
    al = make_alphabet("ab", observable="a")
    spec = ProjectionSpec(al, al.observable)
    a = tree(words("ab", "ba"), al)
    assert sorted(enumerate_bounded(project(a, spec), 3)) == [("a",)]
    back = inverse_project(project(a, spec), spec)
    assert back.accepts_marked(("a",))
    assert back.accepts_marked(("b", "a", "b"))
    assert not back.accepts_marked(("b",))


def test_parallel_compose_synchronizes_shared_events():
    left = tree(words("ab"), make_alphabet("ab"))
    right = tree(words("b"), make_alphabet("bc"))
    prod = parallel_compose(left, right)
    assert prod.accepts_marked(("a", "b"))
    assert not prod.accepts_marked(("b",))


def test_difference_and_quotient():
    a = tree(words("", "a", "ab"), AB)
    b = tree(words("a"), AB)
    d = difference(a, b)
    assert sorted(enumerate_bounded(d, 3)) == [(), ("a", "b")]
    q = right_quotient(a, word_automaton(("b",), AB))
    assert enumerate_bounded(q, 3) == [("a",)]


@settings(max_examples=150, deadline=None)
@given(random_automata(), random_automata())
@example(tree(words("a", "ab"), AB), tree(words("a", "ab"), AB))      # empty
@example(tree(words("", "ab", "ba", "b"), AB), tree(words("b"), AB))  # finite
@example(sigma_star(AB), tree(words("", "a", "ba"), AB))            # infinite
def test_difference_words_match_trimmed_difference(a, b):
    first = list(islice(iter_difference_words(a, b), 50))
    assert first == list(islice(iter_marked_words(trim(difference(a, b))), 50))


def test_difference_words_start_length_lex_first_not_at_inclusion_witness():
    # The OC pair of check_oc on this plant: the inclusion witness is
    # shortest, but the first difference word in length-lex order (pair
    # events ordered with "e0:-" before "-:e0") is another one.
    ctx = build_context(random_plant(GeneratorParams(32, 5, 0.35, seed=2)))
    left = sync_pair_compose(ctx.abstraction, ctx.abstraction, ctx.shared)
    right = relabel_pair(
        sync_pair_compose(ctx.plant, ctx.plant, ctx.alphabet.observable),
        "both")
    la, ra = _common_pair(left.automaton, right.automaton)
    first = next(iter_difference_words(la, ra))
    assert first == ("e2:e2", "e4:e4", "e0:-", "e3:e3")
    assert includes(la, ra).witness.strings["word"] == (
        "e2:e2", "e4:e4", "-:e0", "e3:e3")


def test_prefix_close_and_saturate():
    a = tree(words("ab"), AB)
    assert not is_prefix_closed(a)
    closed = prefix_close(a)
    assert is_prefix_closed(closed)
    assert sorted(enumerate_bounded(closed, 2)) == [(), ("a",), ("a", "b")]
    sat = marked_saturate(tree(words("a"), AB))
    assert sat.accepts_marked(("a", "b", "b"))
    assert not sat.accepts_marked(())


def test_all_marked_recognizes_generated_language():
    a = tree(words("ab"), AB)
    gen = all_marked(a)
    assert sorted(enumerate_bounded(gen, 2)) == [(), ("a",), ("a", "b")]


def test_enumerate_bounded_is_length_lex():
    out = enumerate_bounded(sigma_star(AB), 2)
    assert out == [(), ("a",), ("b",), ("a", "a"), ("a", "b"),
                   ("b", "a"), ("b", "b")]


def test_trim_removes_non_coreachable():
    a = Automaton(AB, ("p", "q", "r"), frozenset({("p", "a", "q"), ("p", "b", "r")}),
                  frozenset({"p"}), frozenset({"q"}))
    t = trim(a)
    assert "r" not in t.states


def test_alphabet_mismatch_is_an_error():
    other = tree(words("c"), make_alphabet("c"))
    with pytest.raises(AutomataError):
        includes(tree(words("a"), AB), other)
