from __future__ import annotations

import itertools

import pytest

from hierctl.automata import (Alphabet, AutomataError, Automaton, Event,
                              all_marked, enumerate_bounded, explore,
                              language_equal)
from hierctl.gadgets import GeneratorParams, random_plant
from hierctl.relations import (build_quad, decompose_pairs, decompose_sequence,
                               label_name, quad_alphabet, relabel_pair,
                               sync_pair_compose, verifier_moves)

from conftest import loc_plants, make_alphabet, tree


def test_label_name():
    assert label_name(("a", None)) == "a:-"
    assert label_name((None, "b")) == "-:b"
    assert label_name(("a", None, "a", None)) == "a:-|a:-"
    assert label_name((None, "x:y", "p|q", None)) == "-:x:y|p|q:-"


@pytest.mark.parametrize("label", [(None, None), (None, None, None, None)],
                         ids=["pair", "quad"])
def test_alphabet_rejects_fully_erased_labels(label):
    with pytest.raises(AutomataError):
        Alphabet((Event(label),))
    Alphabet((Event(("a",) + label[1:]),))


def test_sync_pair_compose_pairs():
    al = make_alphabet("ab")
    a = tree([("a",), ("a", "b")], al)
    b = tree([("a",), ("b", "a")], al)
    pairs = decompose_pairs(sync_pair_compose(a, b, {"a"}), bound=6)
    # pairs agree on their projections to {a}
    assert (("a",), ("a",)) in pairs
    assert (("a",), ("b", "a")) in pairs
    assert (("a", "b"), ("a",)) in pairs
    assert all(tuple(x for x in l if x == "a") == tuple(x for x in r if x == "a")
               for l, r in pairs)


def test_sync_pair_compose_accepts_all_interleavings():
    al = make_alphabet("ab")
    a = tree([("b",)], al)
    b = tree([("b",)], al)
    p = sync_pair_compose(a, b, set())
    seqs = set(enumerate_bounded(p, 2))
    assert ((("b", None), (None, "b")) in seqs
            and ((None, "b"), ("b", None)) in seqs)


def test_relabel_erases_low_level_components():
    al = make_alphabet("ab", highlevel="a")
    x = tree([("a", "b")], al)
    p = sync_pair_compose(x, x, {"a", "b"})
    both = relabel_pair(p, al.highlevel, al.highlevel)
    assert decompose_pairs(both, 4) == [(("a",), ("a",))]
    right = relabel_pair(p, frozenset(al.names), al.highlevel)
    assert decompose_pairs(right, 4) == [(("a", "b"), ("a",))]


def test_decompose_sequence_quad():
    seq = (("a", "a", "a", "a"), ("b", None, None, None),
           (None, None, "b", None))
    assert decompose_sequence(seq, 4) == (
        ("a", "b"), ("a",), ("a", "b"), ("a",))


def test_build_quad_language_decomposes_to_matched_pairs():
    # a observable+high, b unobservable+low: quads are (s, Q(s), s', Q(s'))
    # with P(s) = P(s')
    al = make_alphabet("ab", observable="a", highlevel="a")
    g = tree([(), ("a",), ("b",), ("b", "a")], al)
    h = build_quad(g)
    seen = {decompose_sequence(w, 4) for w in enumerate_bounded(h, 4)}
    for (s, t, sp, tp) in seen:
        q = lambda w: tuple(x for x in w if x == "a")
        assert t == q(s) and tp == q(sp)
        assert q(s) == q(sp)  # here P = Q since Σo = Σhi = {a}
    assert (("b", "a"), ("a",), ("a",), ("a",)) in seen


def _two_start_plant():
    # a observable+high, b unobservable+low and nondeterministic, c
    # observable+low, h unobservable+high; two initial states
    al = make_alphabet("abch", observable="ac", highlevel="ah")
    trans = {("0", "b", "1"), ("0", "b", "2"), ("1", "a", "3"),
             ("1", "h", "2"), ("2", "c", "0"), ("2", "b", "3"),
             ("3", "c", "3"), ("3", "h", "0"), ("1", "c", "1")}
    states = ("0", "1", "2", "3")
    return Automaton(al, states, frozenset(trans), frozenset({"0", "1"}),
                     frozenset(states))


def _verifier_plants():
    for seed in range(24):
        yield random_plant(GeneratorParams(
            states=3 + seed % 4, events=3 + seed % 3,
            transition_density=0.5, deterministic=seed % 3 == 0,
            seed=seed + 900))
    yield from itertools.islice(loc_plants(), 10, None)  # the gadget_loc ones
    yield _two_start_plant()


def test_pair_verifier_accepts_the_quadruple_verifier_sequences():
    # every plant state is marked, as in the LOC check
    for g in _verifier_plants():
        g = all_marked(g)
        pairs = explore(quad_alphabet(g.alphabet),
                        itertools.product(g.sorted_states(g.initial),
                                          repeat=2),
                        verifier_moves(g), lambda pr: True)
        assert language_equal(pairs, build_quad(g)), g
