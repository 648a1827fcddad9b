from __future__ import annotations

import pytest

from hierctl.automata import Alphabet, AutomataError, Event, enumerate_bounded
from hierctl.relations import (build_quad, decompose_pairs, decompose_sequence,
                               label_name, relabel_pair, sync_pair_compose)

from conftest import make_alphabet, tree


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
