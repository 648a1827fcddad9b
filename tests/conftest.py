from __future__ import annotations

from pathlib import Path

import pytest

from hierctl.automata import Alphabet, Automaton
from hierctl.gadgets import (GeneratorParams, gadget_loc, random_nfa,
                             random_plant)
from hierctl.saut import parse_automaton

DATA = Path(__file__).resolve().parent.parent / "data"


def load(name: str) -> Automaton:
    return parse_automaton((DATA / name).read_text(encoding="utf-8"))


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
