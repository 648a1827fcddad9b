"""Hardness gadgets and seeded random-instance generation.

Each gadget embeds an arbitrary finite automaton A into a two-level plant
whose consistency property holds exactly when the generated language of A
is universal. Since universality for nondeterministic automata is
PSPACE-complete, the consistency checks inherit that hardness; the gadget
constructors double as stress-test instance factories.

Reserved marker events: "@" (observable, low-level) and "#" (high-level,
unobservable). They never appear in user alphabets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .automata import (Alphabet, Automaton, AutomataError, Event,
                       PreconditionError, all_marked, includes, sigma_star)

MARKER_AT = "@"
MARKER_HASH = "#"


def _base_names(a: Automaton) -> tuple:
    names = a.alphabet.names
    for m in (MARKER_AT, MARKER_HASH):
        if m in names:
            raise AutomataError(f"input automaton must not use the marker {m!r}")
    return names


def _fresh(name: str, taken) -> str:
    while name in taken:
        name += "'"
    return name


def is_universal(a: Automaton) -> bool:
    """Does `a` generate all of Σ*?"""
    return includes(sigma_star(a.alphabet), all_marked(a)).holds


def gadget_oc(a: Automaton) -> Automaton:
    """Plant whose observation consistency is equivalent to universality of A.

    Generated language @#L(A) ∪ @Σ* ∪ #Σ* with Σhi = Σ ∪ {#} and
    Σo = Σ ∪ {@}: the abstraction contains both w and #w for every w, the
    two are indistinguishable at the high level, and low-level
    representatives with a common observation exist only through the
    @#-branch, hence only for w ∈ L(A).
    """
    names = _base_names(a)
    alphabet = Alphabet(tuple(
        [Event(n, True, True, True) for n in names]
        + [Event(MARKER_AT, True, True, False),
           Event(MARKER_HASH, True, False, True)]))
    a = all_marked(a)
    taken = set(a.states)
    n0 = _fresh("(n0)", taken)
    p1 = _fresh("(p1)", taken | {n0})
    p2 = _fresh("(p2)", taken | {n0, p1})
    r = _fresh("(r)", taken | {n0, p1, p2})
    trans = set(a.transitions)
    trans.add((n0, MARKER_AT, p1))
    trans.add((n0, MARKER_AT, p2))
    trans.add((n0, MARKER_HASH, r))
    for q in a.initial:
        trans.add((p1, MARKER_HASH, q))
    for e in names:
        trans.add((p2, e, p2))
        trans.add((r, e, r))
    states = (n0, p1, p2, r) + a.states
    return Automaton(alphabet, states, frozenset(trans),
                     frozenset({n0}), frozenset(states))


def gadget_moc(a: Automaton) -> Automaton:
    """MOC variant of the universality gadget: adds a plain L(A) branch.

    Generated language @#L(A) ∪ @Σ* ∪ #Σ* ∪ L(A); modified observation
    consistency holds exactly when A is universal.
    """
    base = gadget_oc(a)
    a = all_marked(a)
    return Automaton(base.alphabet, base.states, base.transitions,
                     base.initial | a.initial, base.marked)


def gadget_loc(a: Automaton) -> Automaton:
    """Plant whose local observation consistency mirrors universality of A.

    The alphabet is Σ plus an unobservable low-level primed copy Σ'; the
    plant interleaves a branch closure(Σ·Σ·L(A)) with a two-state
    alternation closure((Σ·Σ')*). Needs at least two base events and a
    nonempty A.
    """
    names = _base_names(a)
    if len(names) < 2:
        raise PreconditionError("the LOC gadget needs at least two base events")
    if not a.initial:
        raise PreconditionError("the LOC gadget needs a nonempty automaton")
    primed = tuple(n + "'" for n in names)
    clash = set(primed) & set(names)
    if clash:
        raise AutomataError(f"primed copies collide with base events: {sorted(clash)}")
    alphabet = Alphabet(tuple(
        [Event(n, True, True, True) for n in names]
        + [Event(n, False, False, False) for n in primed]))
    a = all_marked(a)
    taken = set(a.states)
    n1 = _fresh("(n1)", taken)
    n2 = _fresh("(n2)", taken | {n1})
    n3 = _fresh("(n3)", taken | {n1, n2})
    n4 = _fresh("(n4)", taken | {n1, n2, n3})
    trans = set(a.transitions)
    for e in names:
        trans.add((n1, e, n2))
        for q in a.initial:
            trans.add((n2, e, q))
        trans.add((n3, e, n4))
    for e in primed:
        trans.add((n4, e, n3))
    states = (n1, n2, n3, n4) + a.states
    return Automaton(alphabet, states, frozenset(trans),
                     frozenset({n1, n3}), frozenset(states))


# ---------------------------------------------------------------------------
# seeded random instances

@dataclass(frozen=True)
class GeneratorParams:
    """Knobs for the seeded plant generator; densities are probabilities."""

    states: int = 4
    events: int = 3
    transition_density: float = 0.45
    controllable_density: float = 0.6
    observable_density: float = 0.6
    highlevel_density: float = 0.6
    deterministic: bool = True
    acyclic: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.states < 1:
            raise PreconditionError("states must be >= 1")
        if self.events < 0:
            raise PreconditionError("events must be >= 0")
        for name in ("transition_density", "controllable_density",
                     "observable_density", "highlevel_density"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise PreconditionError(f"{name} must be a probability")


def random_alphabet(params: GeneratorParams) -> Alphabet:
    rng = random.Random(params.seed ^ 0x5EED)
    events = []
    for i in range(params.events):
        events.append(Event(
            f"e{i}",
            rng.random() < params.controllable_density,
            rng.random() < params.observable_density,
            rng.random() < params.highlevel_density))
    return Alphabet(tuple(events))


def random_plant(params: GeneratorParams) -> Automaton:
    """Seeded plant with every state marked (prefix-closed language)."""
    rng = random.Random(params.seed)
    alphabet = random_alphabet(params)
    states = tuple(f"s{i}" for i in range(params.states))
    trans = set()
    for i, q in enumerate(states):
        targets = states[i + 1:] if params.acyclic else states
        if not targets:
            continue
        for e in alphabet.names:
            if rng.random() >= params.transition_density:
                continue
            fanout = 1 if params.deterministic else rng.choice((1, 1, 2))
            for _ in range(fanout):
                trans.add((q, e, rng.choice(targets)))
    g = Automaton(alphabet, states, frozenset(trans),
                  frozenset({states[0]}), frozenset(states))
    return all_marked(g)


def random_nfa(params: GeneratorParams) -> Automaton:
    """Seeded nondeterministic automaton with default (neutral) flags."""
    rng = random.Random(params.seed)
    alphabet = Alphabet(tuple(Event(f"a{i}") for i in range(params.events)))
    states = tuple(f"q{i}" for i in range(params.states))
    trans = set()
    for q in states:
        for e in alphabet.names:
            for t in states:
                if rng.random() < params.transition_density:
                    trans.add((q, e, t))
    g = Automaton(alphabet, states, frozenset(trans),
                  frozenset({states[0]}), frozenset(states))
    return all_marked(g)


def random_sublanguage(a: Automaton, drop: float, seed: int) -> Automaton:
    """Prefix-closed random sublanguage: drop transitions, keep reachable."""
    if not 0.0 <= drop <= 1.0:
        raise PreconditionError("drop must be a probability")
    rng = random.Random(seed)
    a = all_marked(a)
    kept = frozenset(t for t in sorted(a.transitions)
                     if rng.random() >= drop)
    return all_marked(Automaton(a.alphabet, a.states, kept,
                                a.initial, a.marked))
