from __future__ import annotations

import sys
from collections import deque
from pathlib import Path

import pytest

from hierctl import automata
from hierctl.automata import (Alphabet, Automaton, iter_marked_words,
                              path_word, widen_alphabet)
from hierctl.gadgets import (GeneratorParams, gadget_loc, gadget_moc,
                             gadget_oc, random_nfa, random_plant,
                             random_sublanguage)
from hierctl.hierarchy import (_pair_consistency, _pair_operands,
                               build_context)
from hierctl.oracle import (_exists_moc_mate, _exists_oc_pair, _gen_rec,
                            _loc_continuations_meet, _p_of, _proj, _q_extends,
                            _q_of)
from hierctl.relations import (decompose_sequence, relabel_pair,
                               sync_pair_compose)
from hierctl.saut import parse_automaton
from hierctl.verdicts import Verdict, Witness

DATA = Path(__file__).resolve().parent.parent / "data"


def load(name: str) -> Automaton:
    return parse_automaton((DATA / name).read_text(encoding="utf-8"))


def record_built(monkeypatch, record) -> None:
    """Call `record(automaton)` on every Automaton built from now on: by
    the validating constructor (`Automaton.__post_init__`) and by
    `automata._trusted`, the constructor of the automata valid by
    construction, under every hierctl module that binds it. The copies
    that `automata._derived` makes are built by `_trusted` too."""
    post_init, trusted = Automaton.__post_init__, automata._trusted

    def checked(self):
        record(self)
        post_init(self)

    def unchecked(*args):
        out = trusted(*args)
        record(out)
        return out

    monkeypatch.setattr(Automaton, "__post_init__", checked)
    for name, module in list(sys.modules.items()):
        if name.startswith("hierctl") and \
                getattr(module, "_trusted", None) is trusted:
            monkeypatch.setattr(module, "_trusted", unchecked)


def ref_includes(a: Automaton, b: Automaton) -> Verdict:
    """L_m(a) ⊆ L_m(b) as the breadth-first search over (state of `a`,
    frozenset of `b` states) nodes that `automata.includes` once was. Its
    witness is a shortest word of L_m(a) − L_m(b), not always the
    length-lexicographically first: ties between nodes reached by
    different words are broken by queue position."""
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
            nbs = b.step(bs, e)
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


def replays_violation(g: Automaton, kind: str, strings: dict) -> bool:
    """Does an OC, MOC or LOC witness violate the definition on plant `g`,
    re-checked with the bounded oracle's exact searches?

    OC: t, t' ∈ Q(L) agree on the observable high-level events, and no
    s, s' ∈ L with Q(s) = t, Q(s') = t' look alike. MOC: s ∈ L, t' ∈ Q(L)
    agrees with Q(s) on those events, and no s' ∈ L looks like s with
    Q(s') = t'. LOC: s, s' ∈ L look alike, Q(s)e and Q(s')e are in Q(L),
    and no look-alike low-level continuations of s and s' both enable e.
    """
    gl = _gen_rec(g)
    al = gl.alphabet
    sh = al.highlevel & al.observable
    w = {k: tuple(x) for k, x in strings.items()}
    if kind == "oc":
        t, tp = w["t"], w["t_prime"]
        return (_q_extends(gl, t) and _q_extends(gl, tp)
                and _proj(al, t, sh) == _proj(al, tp, sh)
                and not _exists_oc_pair(gl, t, tp))
    if kind == "moc":
        s, tp = w["s"], w["t_prime"]
        return (gl.generates(s) and _q_extends(gl, tp)
                and _proj(al, _q_of(al, s), sh) == _proj(al, tp, sh)
                and not _exists_moc_mate(gl, _p_of(al, s), tp))
    s, sp, (e,) = w["s"], w["s_prime"], w["e"]
    return (gl.generates(s) and gl.generates(sp)
            and _p_of(al, s) == _p_of(al, sp)
            and _q_extends(gl, _q_of(al, s) + (e,))
            and _q_extends(gl, _q_of(al, sp) + (e,))
            and not _loc_continuations_meet(gl, s, sp, e))


def decompose_pairs(p: Automaton, bound: int) -> list:
    """Deduplicated string pairs from accepted sequences of length <= bound."""
    pairs = {decompose_sequence(w) for w in iter_marked_words(p, bound)}
    return sorted(pairs)


def make_alphabet(names, controllable=None, observable=None,
                  highlevel=None) -> Alphabet:
    """Alphabet from flag sets; None means the flag is on everywhere."""
    names = tuple(names)
    return Alphabet.make(
        names,
        names if controllable is None else controllable,
        names if observable is None else observable,
        names if highlevel is None else highlevel)


def tree(words, alphabet) -> Automaton:
    """Prefix-tree recognizer marking exactly the given words."""
    words = [tuple(w) for w in words]
    prefixes = {()}
    for w in words:
        for i in range(len(w) + 1):
            prefixes.add(w[:i])
    name = {p: "t" + "".join(p) for p in prefixes}
    trans = {(name[p[:-1]], p[-1], name[p]) for p in prefixes if p}
    states = tuple(name[p] for p in sorted(prefixes, key=lambda p: (len(p), p)))
    return Automaton(alphabet, states, frozenset(trans),
                     frozenset({name[()]}), frozenset(name[tuple(w)] for w in words))


def loc_plants():
    """Small random plants, then `gadget_loc` plants, for LOC tests."""
    for seed in range(10):
        yield random_plant(GeneratorParams(
            states=3 + seed % 4, events=3 + seed % 3,
            transition_density=0.4, deterministic=seed % 2 == 0,
            seed=seed + 500))
    for seed in range(6):
        yield gadget_loc(random_nfa(GeneratorParams(
            2 + seed % 3, 2 + seed % 2, 0.35, seed=seed)))


def agreement_plants():
    """Small random plants, then the three gadgets of small NFAs, for the
    tests that hold the checks' searches to their references."""
    for seed in range(6):
        yield random_plant(GeneratorParams(
            states=3 + seed % 4, events=3 + seed % 2,
            transition_density=0.4, deterministic=seed % 2 == 0,
            seed=seed + 700))
    for seed in range(4):
        a = random_nfa(GeneratorParams(2 + seed % 3, 2 + seed % 2, 0.35,
                                       seed=seed))
        yield gadget_oc(a)
        yield gadget_moc(a)
        yield gadget_loc(a)


def searched(g, kind: str, budget: int = 2000) -> Verdict:
    """check_oc's (`kind` "oc") or check_moc's ("moc") verdict from its
    product search, which the checks skip on a nested alphabet: the referee
    of the alphabet's decision. A witness's note is left empty."""
    return _pair_consistency(build_context(g), kind,
                             "t" if kind == "oc" else "s", "", budget)


def pair_operands(g: Automaton, kind: str) -> tuple:
    """The two sides of check_oc's (`kind` "oc") or check_moc's ("moc")
    inclusion, each built as an automaton: the reference for the implicit
    left and right sides of `hierarchy._pair_operands`."""
    ctx = build_context(g)
    alphabet = _pair_operands(ctx, kind)[0].alphabet
    al = ctx.alphabet
    left = sync_pair_compose(ctx.abstraction if kind == "oc" else ctx.plant,
                             ctx.abstraction, ctx.shared)
    right = relabel_pair(sync_pair_compose(ctx.plant, ctx.plant,
                                           al.observable),
                         al.highlevel if kind == "oc" else al.names,
                         al.highlevel)
    return widen_alphabet(left, alphabet), widen_alphabet(right, alphabet)


def cli_big_inputs(seed: int) -> tuple:
    """(plant, ambient C, spec K) with K ⊆ C ⊆ L(G), all prefix-closed:
    an input of the synthesis and spec-check operations of the `cli-mix`
    benchmark workload (perfbench/workloads.py)."""
    g = random_plant(GeneratorParams(64, 5, 0.4, seed=seed))
    c = random_sublanguage(g, 0.1, seed + 1000)
    k = random_sublanguage(c, 0.2, seed + 2000)
    return g, c, k


def cli_small_inputs(seed: int) -> tuple | None:
    """(plant, high-level spec), or None: an input of the `hier` operations
    of the `cli-mix` benchmark workload (perfbench/workloads.py)."""
    g = random_plant(GeneratorParams(8, 5, 0.4, seed=seed))
    if not g.states:
        return None
    spec = random_sublanguage(build_context(g).abstraction, 0.3, seed + 2000)
    if not spec.states:
        return None
    return g, spec


def cli_big_seeds(count: int = 12) -> list:
    """The first `count` seeds, from 0 up, whose `cli_big_inputs` plant
    has at least 32 states, as the workload picks them."""
    seeds, seed = [], 0
    while len(seeds) < count:
        if len(cli_big_inputs(seed)[0].states) >= 32:
            seeds.append(seed)
        seed += 1
    return seeds


@pytest.fixture
def ex1_plant():
    return load("ex1-plant.saut")


@pytest.fixture
def ex1_spec():
    return load("ex1-spec.saut")


@pytest.fixture
def relobs_plant():
    return load("relobs-plant.saut")


@pytest.fixture
def relobs_spec():
    return load("relobs-spec.saut")


@pytest.fixture
def relobs_ambient():
    return load("relobs-ambient.saut")
