"""The bitmask subset constructions against frozenset references.

The references below are the subset constructions as they were written
over frozensets of states. A bitmask maps one-to-one onto such a set and
`explore` only hashes its keys, so the kernel must give identical automata,
witnesses and words. `marked_saturate`, L_m(a)·Σ*, is a helper of the
tests; it builds fewer states than its frozenset reference. `includes`
answers as the frozenset inclusion search (`conftest.ref_includes`) does,
but its witness is the length-lexicographically first word of the
reference difference, where that search stops at a shortest one.

The one-pass constructions (`trim`, `all_marked`, `prefix_close`,
`project` and `explore`, each valid by construction) are checked against
their references too: the same constructions as they were written over the
sorted `succ` table, with every result validated by `Automaton(...)`.
The silent moves that `Automaton(...)` eliminates where an ε-NFA is built,
and those of a projection, are eliminated by a reference over the raw
transition tuples.
"""

from __future__ import annotations

from itertools import chain, islice

import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hierctl import cli
from hierctl.automata import (AutomataError, Automaton, Implicit, LazyRows,
                              ProjectionSpec, all_marked, closure,
                              determinize, difference, explore, included,
                              includes, intersect, inverse_project,
                              is_prefix_closed,
                              iter_difference_words, iter_marked_words,
                              language_equal, prefix_close,
                              project, subset_steps, trim)
from hierctl.checks import (_sup_normal, check_nonconflicting,
                            sup_normal_closed)
from hierctl.cli import main
from hierctl.gadgets import GeneratorParams, random_plant, random_sublanguage
from hierctl.hierarchy import _pair_operands, build_context
from hierctl.relations import normal_forms
from hierctl.saut import serialize_automaton
from hierctl.verdicts import Verdict, Witness

from conftest import (agreement_plants, cli_big_inputs, cli_big_seeds,
                      make_alphabet, pair_operands, record_built,
                      ref_includes)

AB = make_alphabet("ab")


def _step(a: Automaton, states: frozenset, e) -> frozenset:
    out = set()
    for q in states:
        out.update(a.succ[q].get(e, ()))
    return frozenset(out)


def ref_determinize(a: Automaton) -> Automaton:
    def moves(cur):
        for e in a.alphabet.names:
            nxt = _step(a, cur, e)
            if nxt:
                yield e, nxt

    start = frozenset(a.initial)
    return explore(a.alphabet, [start] if start else [], moves,
                   lambda cur: not a.marked.isdisjoint(cur))


def ref_difference(a: Automaton, b: Automaton) -> Automaton:
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
def raw_nfas(draw, max_states=5):
    """(states, transitions, initial, marked) of ε-NFAs over AB: silent
    (None) labels, any initial and marked sets (the empty ones included)
    and nondeterminism."""
    n = draw(st.integers(1, max_states))
    states = tuple(f"q{i}" for i in range(n))
    labels = ("a", "b", None)
    trans = draw(st.frozensets(st.tuples(st.sampled_from(states),
                                         st.sampled_from(labels),
                                         st.sampled_from(states)),
                               max_size=3 * n))
    initial = draw(st.frozensets(st.sampled_from(states)))
    marked = draw(st.frozensets(st.sampled_from(states)))
    return states, trans, initial, marked


def nfas(max_states=5):
    """Automata built from `raw_nfas`, their silent moves eliminated by
    the constructor."""
    return raw_nfas(max_states).map(lambda raw: Automaton(AB, *raw))


EMPTY_INITIAL = Automaton(AB, ("p",), frozenset({("p", "a", "p")}),
                          frozenset(), frozenset({"p"}))
NONE_MARKED = Automaton(AB, ("p", "q"), frozenset({("p", "a", "q"),
                                                   ("q", "b", "p")}),
                        frozenset({"p"}), frozenset())
SILENT_RAW = (("p", "q", "r"),
              frozenset({("p", None, "q"), ("q", "a", "r"),
                         ("r", None, "p"), ("p", "b", "p")}),
              frozenset({"p"}), frozenset({"r"}))
SILENT = Automaton(AB, *SILENT_RAW)


# L(G) and a sublanguage K of a nondeterministic plant (instance 83 of the
# normality sweep's population): the reference inclusion search stops at
# ("e1", "e2"), a shortest word of L(G) − K but not the first.
_NONDET = all_marked(random_plant(GeneratorParams(
    6, 5, 0.45, deterministic=False, seed=160)))
MOVED_WITNESS = (_NONDET, random_sublanguage(_NONDET, 0.3, 83))


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
@example(*MOVED_WITNESS)
def test_difference_and_inclusion_match_reference(a, b):
    diff = ref_difference(a, b)
    _same(difference(a, b), diff)
    # the verdict is the reference search's; the witness is the
    # length-lexicographically first word of the reference difference
    got = includes(a, b)
    assert got.holds == ref_includes(a, b).holds
    first = next(iter_marked_words(diff), None)
    want = Verdict.make_holds() if first is None else Verdict.make_violated(
        Witness("inclusion", {"word": first}))
    assert got.to_json() == want.to_json()


@settings(max_examples=200, deadline=None)
@given(nfas(), nfas())
@example(SILENT, NONE_MARKED)
@example(EMPTY_INITIAL, SILENT)
def test_closed_languages_never_conflict(a, b):
    # the synchronous product of prefix-closed languages is prefix-closed,
    # which is why `hier_verify` reports K̄ and Q(L) nonconflicting unsearched
    assert check_nonconflicting(prefix_close(a), all_marked(b)).holds


def _implicit(a: Automaton) -> Implicit:
    return Implicit(a.alphabet, a.initial,
                    lambda q: ((lbl, t) for lbl, ts in a.succ[q].items()
                               for t in ts),
                    a.marked.__contains__)


def _lazy_rows(a: Automaton) -> LazyRows:
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
    t = trim(a)
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

    def counting(a):
        if inside:
            sizes.append(len(a.states))

    def recording(b, m):
        inside.append(None)
        try:
            return _sup_normal(b, m)
        finally:
            inside.clear()

    record_built(monkeypatch, counting)
    # the command's specification is prefix-closed and in L(G) as it is
    # built, so it calls the synthesis without its validating shell
    monkeypatch.setattr(cli, "_sup_normal", recording)
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


# ---------------------------------------------------------------------------
# the one-pass constructions against their references


def ref_explore(alphabet, starts, moves, marked) -> Automaton:
    index: dict = {}
    keys: list = []

    def number(key) -> int:
        i = index.get(key)
        if i is None:
            i = index[key] = len(keys)
            keys.append(key)
        return i

    initial = frozenset(map(number, starts))
    trans = set()
    for key in keys:
        src = index[key]
        for lbl, nxt in moves(key):
            trans.add((src, lbl, number(nxt)))
    states = tuple(index.values())
    return Automaton(alphabet, states, frozenset(trans), initial,
                     frozenset(i for i, key in zip(states, keys)
                               if marked(key)))


def ref_eliminate_silent(states, transitions, marked) -> tuple:
    """(transitions, marked) of the raw ε-NFA tuples without their silent
    (None) moves: a state moves on an event wherever a state of its silent
    closure does, and is marked where that closure holds a marked state."""
    silent: dict = {}
    for (src, lbl, dst) in transitions:
        if lbl is None:
            silent.setdefault(src, set()).add(dst)
    trans, out = set(), set()
    for q in states:
        cl = closure((q,), lambda p: silent.get(p, ()))
        if cl & marked:
            out.add(q)
        trans.update((q, lbl, dst) for (src, lbl, dst) in transitions
                     if src in cl and lbl is not None)
    return frozenset(trans), frozenset(out)


def ref_reachable(a: Automaton) -> set:
    return closure(a.initial,
                   lambda q: chain.from_iterable(a.succ[q].values()))


def ref_coreachable(a: Automaton) -> set:
    pred: dict = {s: set() for s in a.states}
    for (src, _, dst) in a.transitions:
        pred[dst].add(src)
    return closure(a.marked, pred.__getitem__)


def ref_trim(a: Automaton) -> Automaton:
    keep = ref_reachable(a) & ref_coreachable(a)
    states = tuple(s for s in a.states if s in keep)
    return Automaton(a.alphabet, states,
                     frozenset(t for t in a.transitions
                               if t[0] in keep and t[2] in keep),
                     a.initial & keep, a.marked & keep)


def ref_all_marked(a: Automaton) -> Automaton:
    keep = ref_reachable(a)
    states = tuple(s for s in a.states if s in keep)
    return Automaton(a.alphabet, states,
                     frozenset(t for t in a.transitions
                               if t[0] in keep and t[2] in keep),
                     a.initial & keep, frozenset(states))


def ref_project(a: Automaton, spec: ProjectionSpec) -> Automaton:
    raw = frozenset((src, lbl if lbl in spec.kept else None, dst)
                    for (src, lbl, dst) in a.transitions)
    trans, marked = ref_eliminate_silent(a.states, raw, a.marked)
    return Automaton(spec.target_alphabet, a.states, trans, a.initial,
                     marked)


@settings(max_examples=200, deadline=None)
@given(raw_nfas())
@example(SILENT_RAW)
def test_construction_eliminates_silent_moves(raw):
    # No `Automaton` holds a silent move: the constructor eliminates those
    # of an ε-NFA where it is built, so no operation looks for them.
    states, transitions, initial, marked = raw
    a = Automaton(AB, *raw)
    assert all(lbl is not None for (_, lbl, _) in a.transitions)
    assert (a.states, a.initial) == (states, initial)
    assert (a.transitions, a.marked) == \
        ref_eliminate_silent(states, transitions, marked)


# Unreachable states (s, u), a reachable state that reaches no marked one
# (r), silent moves (eliminated where it is built) and a marked state that
# only an unreachable one enters (s).
UNTRIMMED = Automaton(AB, ("p", "q", "r", "s", "u"),
                      frozenset({("p", "a", "q"), ("q", "b", "p"),
                                 ("p", "b", "r"), ("s", "a", "p"),
                                 ("u", None, "q"), ("q", None, "r")}),
                      frozenset({"p"}), frozenset({"q", "s"}))


def _own_moves(a: Automaton):
    """`moves` over `a`'s states that yields its transitions in one fixed
    order."""
    steps: dict = {}
    for (src, lbl, dst) in sorted(a.transitions, key=repr):
        steps.setdefault(src, []).append((lbl, dst))
    return lambda q: steps.get(q, ())


@settings(max_examples=200, deadline=None)
@given(nfas())
@example(EMPTY_INITIAL)
@example(NONE_MARKED)
@example(SILENT)
@example(UNTRIMMED)
def test_one_pass_constructions_match_reference(a):
    _same(trim(a), ref_trim(a))
    _same(all_marked(a), ref_all_marked(a))
    for kept in ((), ("a",), ("b",), ("a", "b")):
        spec = ProjectionSpec(AB, frozenset(kept))
        got, want = project(a, spec), ref_project(a, spec)
        assert got.alphabet == want.alphabet
        _same(got, want)
    args = (AB, a.sorted_states(a.initial), _own_moves(a),
            a.marked.__contains__)
    _same(explore(*args), ref_explore(*args))


def test_untrimmed_example_drops_what_it_should():
    assert trim(UNTRIMMED).states == ("p", "q")
    assert all_marked(UNTRIMMED).states == ("p", "q", "r")


def ref_prefix_close(a: Automaton) -> Automaton:
    """K̄ in two passes, as `prefix_close(trim(a))` was spelled when
    `prefix_close` only re-marked: trim, then mark every co-reachable
    state of the result."""
    t = ref_trim(a)
    return Automaton(t.alphabet, t.states, t.transitions, t.initial,
                     frozenset(ref_coreachable(t)))


@settings(max_examples=200, deadline=None)
@given(nfas())
@example(EMPTY_INITIAL)
@example(NONE_MARKED)
@example(SILENT)
@example(UNTRIMMED)
def test_prefix_close_matches_the_two_pass_reference(a):
    got, want = prefix_close(a), ref_prefix_close(a)
    assert language_equal(got, want)
    # trimmed, and every state marked
    _same(got, ref_trim(got))
    assert got.marked == frozenset(got.states)
    _same(got, want)


def test_prefix_close_drops_unreachable_and_dead_states():
    # u is unreachable and r reaches no marked state
    a = Automaton(AB, ("p", "q", "r", "u"),
                  frozenset({("p", "a", "q"), ("q", "b", "r"),
                             ("u", "a", "p")}),
                  frozenset({"p"}), frozenset({"q"}))
    closed = prefix_close(a)
    assert closed.states == ("p", "q")
    assert closed.transitions == frozenset({("p", "a", "q")})
    assert closed.marked == frozenset({"p", "q"})


def test_kept_states_build_no_automaton(monkeypatch):
    # `is_prefix_closed` and `iter_marked_words` mask subsets with the
    # states that `prefix_close` keeps, taken from the same pass.
    x = determinize(UNTRIMMED)
    want = list(iter_marked_words(trim(x), 3))
    built = []
    record_built(monkeypatch, built.append)
    assert not is_prefix_closed(x)
    assert list(iter_marked_words(x, 3)) == want
    assert built == []


def test_explore_rejects_a_label_outside_its_alphabet():
    with pytest.raises(AutomataError, match="unknown event 'c'"):
        explore(AB, [0], lambda q: [("a", 1), ("c", 0)] if q == 0 else [],
                lambda q: True)
    # nor does it build a silent move: None is no event of its alphabet
    with pytest.raises(AutomataError, match="unknown event None"):
        explore(AB, [0], lambda q: [(None, 1)] if q == 0 else [],
                lambda q: True)


def test_automaton_rejects_an_undeclared_endpoint():
    with pytest.raises(AutomataError, match="endpoint not declared"):
        Automaton(AB, ("p",), frozenset({("p", "a", "q")}),
                  frozenset({"p"}), frozenset())
    with pytest.raises(AutomataError, match="unknown event 'c'"):
        Automaton(AB, ("p",), frozenset({("p", "c", "p")}),
                  frozenset({"p"}), frozenset())


def test_trim_builds_no_succ_table():
    # Reachability and co-reachability come from one pass over the
    # transitions; the sorted `succ` table was built only for them.
    x = determinize(UNTRIMMED)
    t, g = trim(x), all_marked(x)
    tt = trim(t)
    for y in (x, t, g, tt):
        assert "succ" not in y._tables
    # `trim` drops the subset {r}; a result that keeps every state shares
    # the tables of its operand
    assert len(t.states) < len(x.states) == len(g.states)
    assert tt == t and tt._tables is t._tables
    assert g._tables is x._tables and t._tables is not x._tables


def test_project_builds_one_automaton(monkeypatch):
    # The projection with silent labels and its silent elimination were
    # two automata; the one-pass image is one.
    built = []
    record_built(monkeypatch, built.append)
    out = project(UNTRIMMED, ProjectionSpec(AB, frozenset({"a"})))
    assert built == [out]


def test_the_kernel_builds_no_validated_automaton(monkeypatch):
    # What the kernel derives from valid automata is valid by
    # construction: no `Automaton.__post_init__` walk runs again.
    def boom(self):
        raise AssertionError("validated again")

    monkeypatch.setattr(Automaton, "__post_init__", boom)
    for a in (UNTRIMMED, SILENT, EMPTY_INITIAL, NONE_MARKED):
        trim(a), all_marked(a), prefix_close(a)
        determinize(a)
        project(a, ProjectionSpec(AB, frozenset({"b"})))
        explore(AB, a.sorted_states(a.initial), _own_moves(a),
                a.marked.__contains__)
