from __future__ import annotations

import sys
from pathlib import Path

import pytest

from hierctl import automata
from hierctl.automata import Alphabet, Automaton, widen_alphabet
from hierctl.gadgets import (GeneratorParams, gadget_loc, gadget_moc,
                             gadget_oc, random_nfa, random_plant,
                             random_sublanguage)
from hierctl.hierarchy import _pair_operands, build_context
from hierctl.relations import relabel_pair, sync_pair_compose
from hierctl.saut import parse_automaton

DATA = Path(__file__).resolve().parent.parent / "data"


def load(name: str) -> Automaton:
    return parse_automaton((DATA / name).read_text(encoding="utf-8"))


def record_built(monkeypatch, record) -> None:
    """Call `record(automaton)` on every Automaton built from now on: by
    the validating constructor (`Automaton.__post_init__`) and by
    `automata._trusted`, the constructor of the automata valid by
    construction, under every hierctl module that binds it."""
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
