from __future__ import annotations

import itertools

import pytest

from hierctl.automata import (Alphabet, AutomataError, Event,
                              enumerate_bounded, iter_marked_words)
from hierctl.gadgets import GeneratorParams, random_nfa
from hierctl.relations import (build_quad, decompose_sequence, label_name,
                               normal_form_monitor, normal_forms,
                               relabel_pair, sync_pair_compose)

from conftest import decompose_pairs, make_alphabet, tree


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


# Left-only, right-only and shared labels with the sides' ranks interleaved.
PAIR_LABELS = (("a", None), (None, "b"), ("c", "c"), (None, "a"), ("b", None))


def _commutation_classes(words) -> dict:
    """word -> the least word of its class under swaps of adjacent
    left-only and right-only labels, in `PAIR_LABELS` order."""
    rank = {lbl: i for i, lbl in enumerate(PAIR_LABELS)}
    side = {lbl: (lbl[1] is None) - (lbl[0] is None) for lbl in PAIR_LABELS}
    home = {w: w for w in words}   # union-find over one length's words

    def find(w):
        while home[w] != w:
            home[w] = home[home[w]]
            w = home[w]
        return w

    for w in words:
        for i in range(len(w) - 1):
            if side[w[i]] * side[w[i + 1]] < 0:
                v = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
                home[find(v)] = find(w)
    least: dict = {}
    for w in words:
        r = find(w)
        if r not in least or [rank[x] for x in w] < [rank[x] for x in least[r]]:
            least[r] = w
    return {w: least[find(w)] for w in words}


def test_monitor_accepts_exactly_the_least_word_of_each_class():
    steps = normal_form_monitor(PAIR_LABELS)
    # the coarse monitor: the reset, two left-run and two right-run counts
    assert sorted(steps) == [-2, -1, 0, 1, 2]
    normal = 0
    for n in range(7):
        words = list(itertools.product(PAIR_LABELS, repeat=n))
        least = _commutation_classes(words)
        for w in words:
            m = 0
            for lbl in w:
                m = steps[m].get(lbl)
                if m is None:
                    break
            assert (m is not None) == (least[w] == w), w
            normal += least[w] == w
    assert normal < sum(len(PAIR_LABELS) ** n for n in range(7))


def _assert_first_sequence_per_pair(p, bound: int) -> None:
    """`normal_forms(p)` keeps one sequence per string pair of `p`: the
    first of its interleavings in length-lexicographic order."""
    seqs = list(iter_marked_words(normal_forms(p), bound))
    pairs = [decompose_sequence(w) for w in seqs]
    assert len(pairs) == len(set(pairs))
    assert sorted(pairs) == decompose_pairs(p, bound)
    first: dict = {}
    for w in iter_marked_words(p, bound):
        first.setdefault(decompose_sequence(w), w)
    assert seqs == sorted(first.values(),
                          key=lambda w: (len(w), [p.alphabet.names.index(x)
                                                  for x in w]))


def test_normal_forms_keep_one_sequence_per_string_pair():
    al = make_alphabet("abc")
    a = tree([("a", "c", "b"), ("b", "a")], al)
    b = tree([("b", "c"), ("a", "b", "b")], al)
    _assert_first_sequence_per_pair(sync_pair_compose(a, b, {"c"}), 8)


@pytest.mark.parametrize("seed", range(8))
def test_normal_forms_of_generated_products(seed):
    a = random_nfa(GeneratorParams(3, 3, 0.4, seed=seed))
    b = random_nfa(GeneratorParams(2, 3, 0.5, seed=seed + 100))
    sync = {"a0"} if seed % 2 else {"a0", "a2"}
    _assert_first_sequence_per_pair(sync_pair_compose(a, b, sync), 6)


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
