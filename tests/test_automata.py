from __future__ import annotations

from dataclasses import replace
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hierctl import automata
from hierctl.automata import (Alphabet, AlphabetMismatchError,
                              AutomataError, Automaton, Event, Implicit,
                              ProjectionSpec, all_marked, determinize,
                              difference, enumerate_bounded, explore,
                              includes, inverse_project, is_prefix_closed,
                              iter_difference_words, iter_marked_words,
                              language_equal, merge_alphabets,
                              parallel_compose, prefix_close, project,
                              right_quotient, sigma_star, trim,
                              widen_alphabet, word_automaton)
from hierctl.checks import check_controllability, check_normality
from hierctl.gadgets import GeneratorParams, gadget_oc, random_plant
from hierctl.hierarchy import _pair_operands, build_context, conform_spec
from hierctl.relations import pair_alphabet, quad_alphabet
from hierctl.saut import SautParseError, parse_automaton

from conftest import make_alphabet, pair_operands, ref_includes, tree
from test_subsets import marked_saturate

AB = make_alphabet("ab")
# what an automaton builds on first read and keeps in its `__dict__`
TABLES = {"state_index", "succ", "rows", "subset_steps"}


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


def test_new_states_avoid_sparse_kernel_ids():
    # Over the alphabet (b, a) the product numbers (p,p) 0, the dead end
    # (r,r) 1 and (q,q) 2; trim drops 1 and keeps the sparse ids (0, 2).
    ba = make_alphabet("ba")
    a = Automaton(ba, ("p", "q", "r"),
                  frozenset({("p", "b", "r"), ("p", "a", "q")}),
                  frozenset({"p"}), frozenset({"q"}))
    t = trim(parallel_compose(a, a))
    assert t.states == (0, 2)
    sat = marked_saturate(t)
    assert enumerate_bounded(sat, 2) == [("a",), ("a", "b"), ("a", "a")]


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


def a_graph(edges: str, marked: str) -> Automaton:
    """An automaton over AB with a-edges only, such as "sp pq qp": its
    states in order of first mention, the first one initial. A state's
    targets are sorted in that order, so a search reads them in it."""
    pairs = edges.split()
    states = tuple(dict.fromkeys("".join(pairs)))
    return Automaton(AB, states, frozenset((x, "a", y) for x, y in pairs),
                     frozenset(states[:1]), frozenset(marked))


NOTHING = tree((), AB)


@settings(max_examples=150, deadline=None)
@given(random_automata(), random_automata())
@example(tree(words("a", "ab"), AB), tree(words("a", "ab"), AB))      # empty
@example(tree(words("", "ab", "ba", "b"), AB), tree(words("b"), AB))  # finite
@example(sigma_star(AB), tree(words("", "a", "ba"), AB))            # infinite
# the live cycle p-q is left for the dead end d before it meets m
@example(a_graph("sp pd pq qp qm", "m"), NOTHING)
# the dead cycle x-y is finished below s before s meets m through t
@example(a_graph("sx st xy yx tm", "m"), NOTHING)
# q and r reach m only through r's back edge to p, and finish first
@example(a_graph("sp pq pt qr rp tm", "m"), NOTHING)
def test_difference_words_match_trimmed_difference(a, b):
    first = list(islice(iter_difference_words(a, b), 50))
    assert first == list(islice(iter_marked_words(trim(difference(a, b))), 50))


def _implicit(a: Automaton) -> Implicit:
    """`a` handed over as (alphabet, starts, moves, marked)."""
    return Implicit(a.alphabet, a.initial,
                    lambda q: ((lbl, t) for lbl, ts in a.succ[q].items()
                               for t in ts),
                    a.marked.__contains__)


@settings(max_examples=150, deadline=None)
@given(random_automata(), random_automata())
@example(tree(words("a", "ab"), AB), tree(words("a", "ab"), AB))      # empty
@example(sigma_star(AB), tree(words("", "a", "ba"), AB))            # infinite
def test_difference_words_are_empty_exactly_when_included(a, b):
    first = list(islice(iter_difference_words(a, b), 50))
    assert (not first) == includes(a, b).holds
    # an implicit operand on either side yields the same words
    assert list(islice(iter_difference_words(_implicit(a), _implicit(b)),
                       50)) == first
    assert list(islice(iter_difference_words(a, _implicit(b)), 50)) == first


def test_implicit_expands_each_state_once_and_only_where_read():
    calls = []

    def moves(n):
        # the chain 0 -a-> 1 -a-> ... -a-> 9, and b back to 0
        calls.append(n)
        if n < 9:
            yield "a", n + 1
            yield "a", n + 1
        yield "b", 0

    imp = Implicit(AB, [0], moves, lambda n: n == 1)
    assert imp.succ[0] == {"a": (1,), "b": (0,)}
    assert imp.succ[0] is imp.succ[0]
    assert calls == [0]
    assert 1 in imp.marked and 2 not in imp.marked
    # keys are numbered as the subset steps read them: 0, then 1
    assert imp.start_mask == 0b1 and imp.rows[0] == {"a": 0b10, "b": 0b1}
    assert imp.meets_marked(0b11) and not imp.meets_marked(0b1)
    nothing = explore(AB, ["p"], lambda q: [("a", "p"), ("b", "p")],
                      lambda q: False)
    assert next(iter_difference_words(imp, nothing)) == ("a",)
    assert max(calls) < 9


def test_inclusion_witness_is_the_first_difference_word():
    # The OC pair of check_oc on this plant: the reference inclusion
    # search stops at a shortest word, but the first difference word in
    # length-lex order (pair events ordered with ("e0", None) before
    # (None, "e0")) is another one, and it is the one `includes` gives.
    la, ra = pair_operands(random_plant(GeneratorParams(32, 5, 0.35, seed=2)),
                           "oc")
    first = next(iter_difference_words(la, ra))
    assert first == (("e2", "e2"), ("e4", "e4"), ("e0", None), ("e3", "e3"))
    assert includes(la, ra).witness.strings["word"] == first
    assert ref_includes(la, ra).witness.strings["word"] == (
        ("e2", "e2"), ("e4", "e4"), (None, "e0"), ("e3", "e3"))


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


def test_restrictions_return_what_they_keep_whole():
    # Nothing to drop and no mark to change: the argument itself. A
    # restriction that only marks every state is a copy with tables of its
    # own.
    closed = tree(words("", "a", "ab", "b"), AB)   # trim and all marked
    for restrict in (trim, all_marked, prefix_close):
        assert restrict(closed) is closed, restrict.__name__
    a = tree(words("ab"), AB)   # trim, its leaf alone marked
    assert trim(a) is a
    assert a.succ and determinize(a).states and TABLES <= set(vars(a))
    gen = all_marked(a)
    assert gen is not a and gen.marked == frozenset(a.states)
    assert TABLES.isdisjoint(vars(gen))


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
    # the checks meet it first in their K ⊆ L_m(G) precondition
    for check in (check_controllability, check_normality):
        with pytest.raises(AlphabetMismatchError,
                           match="operands must share one alphabet"):
            check(tree(words("a"), AB), other)


def _chain(n: int) -> Automaton:
    """The path 0 -a-> 1 -a-> ... -a-> n-1, with n-1 marked."""
    return explore(AB, [0], lambda q: [("a", q + 1)] if q < n - 1 else [],
                   lambda q: q == n - 1)


def test_derived_copies_check_only_what_they_change(monkeypatch):
    # A copy shares its source's states and transitions, so walking them
    # again (Automaton.__post_init__) would only repeat the source's check.
    a = _chain(5000)
    assert a.start_mask == 1 and a.marked_mask == 1 << 4999
    posts = []
    monkeypatch.setattr(Automaton, "__post_init__",
                        lambda self: posts.append(self))
    b = automata._derived(a, initial=frozenset({4998}))
    closed = prefix_close(a)
    assert posts == []
    assert b == replace(a, initial=frozenset({4998}))
    assert b.succ == a.succ and b.succ is not a.succ
    # per-copy values are read afresh, not carried over from the source
    assert b.start_mask == 1 << 4998 and b.marked_mask == a.marked_mask
    assert closed.marked_mask == (1 << 5000) - 1
    assert list(iter_marked_words(b)) == [("a",)]


def test_copies_build_nothing_on_their_source():
    # A `_derived` copy checks its new states against its source's states,
    # not against an index built on the source, and a copy that is stepped
    # builds its tables on itself alone.
    g = tree(words("ab", "ba"), make_alphabet("abc"))
    k, a = tree(words("ab"), AB), tree(words("ab", "b"), AB)
    copies = [conform_spec(k, g.alphabet), widen_alphabet(a, g.alphabet),
              all_marked(a)]
    assert copies[2].marked == frozenset(a.states)
    for copy in copies:   # stepped by `succ` and as subsets
        assert copy.generates(("a", "b")) and determinize(copy).states
        assert TABLES <= set(vars(copy))
    assert TABLES.isdisjoint(vars(k)) and TABLES.isdisjoint(vars(a))


def test_derived_copies_reject_undeclared_states():
    a = _chain(3)
    with pytest.raises(AutomataError, match="undeclared state 3"):
        automata._derived(a, initial=frozenset({0, 3}))
    with pytest.raises(AutomataError, match="undeclared state 'x'"):
        automata._derived(a, initial=frozenset(["x"]))


FLAGGED = "abcde"


@st.composite
def flagged_alphabets(draw):
    """Two alphabets over subsets of one flagged event set, so that the
    events they share have the same flags."""
    flags = {n: draw(st.tuples(st.booleans(), st.booleans(), st.booleans()))
             for n in FLAGGED}
    return tuple(Alphabet(tuple(Event(n, *flags[n]) for n in draw(
        st.lists(st.sampled_from(FLAGGED), unique=True)))) for _ in "xy")


@settings(max_examples=150, deadline=None)
@given(flagged_alphabets(), st.sets(st.sampled_from(FLAGGED)),
       st.sets(st.sampled_from(FLAGGED)))
def test_derived_alphabets_would_pass_the_validating_constructor(
        xy, sync, keep):
    # Derived alphabets are built without the `__post_init__` walk; each
    # must be one that the walk accepts.
    x, y = xy
    plant = Automaton(x, ("q",), frozenset(("q", e, "q") for e in x.names),
                      frozenset({"q"}), frozenset({"q"}))
    ctx = build_context(plant)
    derived = [pair_alphabet(x, y, frozenset(sync)), quad_alphabet(x),
               merge_alphabets(x, y), x.restrict(keep & set(x.names)),
               ctx.p.target_alphabet, ctx.q.target_alphabet,
               ctx.abstraction.alphabet]
    for kind in ("oc", "moc"):
        left, right = _pair_operands(ctx, kind)
        derived.append(left.alphabet)
        # every event loops at the one plant state, so the row of its pair
        # holds every label of the right side: the left side's, in order
        assert right.alphabet is left.alphabet
        assert tuple(right.rows[0]) == left.alphabet.names
    for alphabet in derived:
        checked = Alphabet(alphabet.events)
        assert type(alphabet) is Alphabet
        assert alphabet == checked and hash(alphabet) == hash(checked)
        assert alphabet.names == checked.names


@pytest.mark.parametrize("names, message", [
    (("a b",), "bad event name"), (("a\tb",), "bad event name"),
    (("",), "bad event name"), (("a", "b", "a"), "duplicate event"),
    (((None, None),), "fully erased"), (((None,) * 4,), "fully erased"),
], ids=["space", "tab", "empty", "duplicate", "erased-pair", "erased-quad"])
def test_alphabets_entering_the_program_are_validated(names, message):
    with pytest.raises(AutomataError, match=message):
        Alphabet(tuple(map(Event, names)))
    with pytest.raises(AutomataError, match=message):
        Alphabet.make(names)


def test_parsed_and_gadget_alphabets_are_validated(monkeypatch):
    # A .saut file cannot spell an empty or spaced name: either one
    # changes the field count of its line.
    for line, message in [("event a b c o hi", "expected: event"),
                          ("event  c o hi", "expected: event"),
                          ("event a c o hi\nevent a c o hi",
                           "duplicate event")]:
        with pytest.raises(SautParseError, match=message):
            parse_automaton(line + "\nstate s\ninitial s\n")
    walks = []
    post_init = Alphabet.__post_init__

    def walking(self):
        walks.append(self)
        post_init(self)

    monkeypatch.setattr(Alphabet, "__post_init__", walking)
    g = parse_automaton("event a c o hi\nstate s\ninitial s\n")
    assert len(walks) == 1
    gadget_oc(g)
    assert len(walks) == 2


def test_merging_and_restricting_keep_their_checks():
    with pytest.raises(AutomataError, match="flag conflict on shared event"):
        merge_alphabets(make_alphabet("ab"),
                        make_alphabet("bc", controllable="c"))
    with pytest.raises(AutomataError, match="events not in alphabet"):
        make_alphabet("ab").restrict({"a", "c"})
