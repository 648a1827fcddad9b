"""Pair and quadruple events: synchronized pair composition, component
erasure, and the LOC verifier: its quadruple alphabet, which the LOC check
steps its subsets by, and the reference quadruple automaton `build_quad`.
The pair composition is a label table over `automata.pair_product`.

A pair event is the tuple (l, r) and a quadruple event the tuple
(a, b, c, d) of base event names, with None for an erased component. These
tuples are the alphabet members and transition labels of ordinary automata,
so the whole regular-language toolbox (inclusion, difference, enumeration)
applies to them unchanged, and no label is ever parsed. `label_name`
renders a label for display in witnesses only.

Sequence-level versus pair-level semantics is the central trap here: an
accepted *sequence* of pair events determines one string pair by
component-wise concatenation, but one string pair usually has many
interleavings. Inclusion over these automata is sequence-level; pair-level
questions go through `decompose_sequence` or the realizability confirmation
in `hierarchy`. `normal_forms` keeps one interleaving per string pair of a
synchronized product, its lexicographic normal form, so that a
sequence-level search reads each pair once.
"""

from __future__ import annotations

import itertools
from functools import partial
from operator import is_not

from .automata import (Alphabet, Automaton, AutomataError, Event, Implicit,
                       _unchecked, explore, merge_alphabets, pair_product)


def label_name(label: tuple) -> str:
    """Display name of a label: "l:r" or "a:b|c:d", "-" for an erased part.

    Display only: the name is ambiguous when event names contain ":", "|"
    or "-", so nothing parses it back.
    """
    parts = ["-" if x is None else x for x in label]
    return "|".join(":".join(parts[i:i + 2]) for i in range(0, len(parts), 2))


def pair_alphabet(a: Alphabet, b: Alphabet, sync: frozenset) -> Alphabet:
    """Pair events of a ∥_sync b in deterministic (merged-alphabet) order."""
    events = []
    for e in merge_alphabets(a, b).names:
        if e in sync:
            if e in a and e in b:
                events.append(Event((e, e)))
        else:
            if e in a:
                events.append(Event((e, None)))
            if e in b:
                events.append(Event((None, e)))
    return _unchecked(Alphabet, events=tuple(events))


def sync_pair_compose(a: Automaton, b: Automaton, sync) -> Automaton:
    """Pair product synchronizing only on `sync`.

    Accepted sequences decompose to exactly the pairs (w, w') in
    L_m(a) × L_m(b) whose projections to `sync` coincide, with every
    interleaving of the unsynchronized moves accepted.
    """
    sync = frozenset(sync)
    common = merge_alphabets(a.alphabet, b.alphabet)
    missing = sync - set(common.names)
    if missing:
        raise AutomataError(f"sync events not in the common alphabet: {sorted(missing)}")
    alphabet = pair_alphabet(a.alphabet, b.alphabet, sync)
    return pair_product(alphabet, a, b, [(lbl, *lbl) for lbl in alphabet.names])


def relabel_pair(p: Automaton, left_keep, right_keep) -> Automaton:
    """Erase left components outside `left_keep` and right ones outside
    `right_keep`.

    Pairs erased to (ε,ε) become silent moves, which `Automaton(...)`
    eliminates. Pairs with the same image share one label object.
    """
    image: dict = {}
    shared: dict = {}
    for l, r in p.alphabet.names:
        img = (l if l in left_keep else None, r if r in right_keep else None)
        if img != (None, None):
            image[(l, r)] = shared.setdefault(img, img)
    alphabet = Alphabet(tuple(Event(lbl) for lbl in shared))
    trans = frozenset((src, image.get(lbl), dst)
                      for (src, lbl, dst) in p.transitions)
    return Automaton(alphabet, p.states, trans, p.initial, p.marked)


_is_event = partial(is_not, None)   # a component that is not erased


def decompose_sequence(word, width: int = 2) -> tuple:
    """Component-wise concatenation of pair (width 2) or quadruple
    (width 4) labels."""
    if not word:
        return ((),) * width
    return tuple(tuple(filter(_is_event, column)) for column in zip(*word))


def normal_form_monitor(names) -> dict:
    """The monitor of lexicographic normal forms over the pair labels
    `names`, ranked in that order: it maps a state to label -> next state,
    a missing label being refused. Each label has a side, 1 for a
    left-only label, -1 for a right-only one and 0 for a shared one, and a
    rank among the labels of its side.

    A left-only label (l, None) commutes with a right-only one (None, r),
    and a shared label (both sides) with nothing, so the sequences that
    decompose to one string tuple are the interleavings of its one-sided
    runs. The least of them in rank order is its normal form: a sequence is
    one unless a one-sided run holds a label ranked above the next label of
    the other side (Anisimov & Knuth). State 0 is the reset; a run of the
    left side counts the right-only labels ranked below its highest label
    as state c > 0, a right run counts left-only ones as -c < 0, and a run
    that counts none is the reset. A shared label resets the state; a label
    of the other side is refused when it is one of those counted, and
    otherwise starts a run."""
    rank, below = {}, {}   # below: the other side's labels ranked below it
    count = {1: 0, -1: 0}
    for lbl in names:
        s = (lbl[1] is None) - (lbl[0] is None)
        rank[lbl] = s, count[s] if s else 0
        if s:
            below[lbl] = count[-s]
            count[s] += 1
    steps: dict = {}
    for m in range(-count[1], count[-1] + 1):
        row = steps[m] = {}
        for lbl, (s, r) in rank.items():
            if not s:
                row[lbl] = 0
            elif m * s >= 0 or r >= abs(m):
                row[lbl] = s * max(m * s, below[lbl])
    return steps


def normal_forms(a: Automaton) -> Automaton | Implicit:
    """`a`, a pair automaton, restricted to the sequences in lexicographic
    normal form (`normal_form_monitor` over its alphabet order). Keys are
    (state of `a`, monitor state), marked where the state of `a` is.

    A synchronous pair product (`sync_pair_compose`) accepts every
    interleaving of each string pair it holds, so it keeps one sequence per
    pair. Without labels of both sides nothing commutes, and `a` is
    returned as it is."""
    steps = normal_form_monitor(a.alphabet.names)
    if len(steps) == 1:
        return a
    succ, marked = a.succ, a.marked

    def moves(key):
        q, m = key
        row = steps[m]
        for lbl, targets in succ[q].items():
            n = row.get(lbl)
            if n is not None:
                for t in targets:
                    yield lbl, (t, n)

    return Implicit(a.alphabet, [(q, 0) for q in a.sorted_states(a.initial)],
                    moves, lambda key: key[0] in marked)


def _quad_labels(base: Alphabet) -> dict:
    """Base event -> its quadruple labels, one per transition-rule group."""
    obs, hi = base.observable, base.highlevel
    out = {}
    for a in base.names:
        if a in obs and a in hi:
            out[a] = ((a, a, a, a),)
        elif a in obs:
            out[a] = ((a, None, a, None),)
        elif a in hi:
            out[a] = ((a, a, None, None), (None, None, a, a))
        else:
            out[a] = ((a, None, None, None), (None, None, a, None))
    return out


def quad_alphabet(base: Alphabet) -> Alphabet:
    """The quadruple alphabet of the LOC verifier automaton H: the
    transition-rule groups of every base event, in base order."""
    return _unchecked(Alphabet, events=tuple(
        Event(lbl) for group in _quad_labels(base).values() for lbl in group))


def build_quad(g: Automaton) -> Automaton:
    """The verifier automaton H over state space Q^4, one step per
    transition-rule group: the reference for the determinized verifier
    that `hierarchy.check_loc` searches, and a layer-trace target.

    Accepted quadruple sequences decompose to exactly the tuples
    (s, Q(s), s', Q(s')) with s, s' in L_m(g) and P(s) = P(s').
    """
    base = g.alphabet
    obs, hi = base.observable, base.highlevel
    labels = _quad_labels(base)

    def moves(st):
        p, q, r, s = st
        for a in base.names:
            lbl = labels[a]
            if a in obs and a in hi:
                for pn in g.succ[p].get(a, ()):
                    for qn in g.succ[q].get(a, ()):
                        for rn in g.succ[r].get(a, ()):
                            for sn in g.succ[s].get(a, ()):
                                yield lbl[0], (pn, qn, rn, sn)
            elif a in obs:
                for pn in g.succ[p].get(a, ()):
                    for rn in g.succ[r].get(a, ()):
                        for qn in g.succ[q].get(a, ()) + (q,):
                            for sn in g.succ[s].get(a, ()) + (s,):
                                yield lbl[0], (pn, qn, rn, sn)
            elif a in hi:
                for pn in g.succ[p].get(a, ()):
                    for qn in g.succ[q].get(a, ()):
                        yield lbl[0], (pn, qn, r, s)
                for rn in g.succ[r].get(a, ()):
                    for sn in g.succ[s].get(a, ()):
                        yield lbl[1], (p, q, rn, sn)
            else:
                for pn in g.succ[p].get(a, ()):
                    for qn in g.succ[q].get(a, ()) + (q,):
                        yield lbl[0], (pn, qn, r, s)
                for rn in g.succ[r].get(a, ()):
                    for sn in g.succ[s].get(a, ()) + (s,):
                        yield lbl[1], (p, q, rn, sn)

    init = g.sorted_states(g.initial)
    return explore(quad_alphabet(base),
                   itertools.product(init, repeat=4), moves,
                   lambda st: all(x in g.marked for x in st))
