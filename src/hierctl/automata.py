"""Finite automata over flagged alphabets and the regular-language toolbox.

Automata may be nondeterministic and may carry internal silent transitions
(label ``None``). Silent transitions never appear in files; every
construction eliminates them eagerly (`project` erases its events and
eliminates the erased moves in one pass), so all cross-automaton operations
assume silent-free inputs and enforce it themselves.

An automaton is validated where data enters the program: the public
`Automaton(...)` and `Automaton.make`, and so the `.saut` parser, the gadget
builders and the small builders, check every state, endpoint and label in
`__post_init__`. What the kernel derives from valid automata is valid by
construction and is built by `_trusted`, without that walk: `explore`
(which checks only each distinct label that its caller's `moves` yields),
`trim` and `all_marked` (one restriction, `_restrict`, whose reachability
and co-reachability come from one pass over the transitions and read no
`succ` table), and `project` and `eliminate_silent` (one pass, `_erase`).

All values are immutable; every operation is a pure function of its inputs.
A state id is any hashable value. Automata built by name (parsed files,
gadgets, the small builders) keep their names, and the operations that only
filter or re-mark states keep the ids they receive. Every product and subset
construction goes through `explore`, which numbers the reachable states
0..n-1 in breadth-first discovery order (start states first, then targets in
alphabet order); its state keys are hashed but never formatted into names, so
distinct keys never share a state, and equal inputs give byte-identical
outputs.

Subset constructions (`determinize`, `iter_marked_words`, `includes`,
`included`, `difference`, `iter_difference_words`, `is_prefix_closed`, and
the searches of `checks` through `subset_steps`) hold a subset as an int
bitmask over `state_index`.
A step ORs the `rows` of the set bits, "meets a marked state" is
`m & marked_mask`, and the subset's size is `m.bit_count()`. A mask maps
one-to-one onto the frozenset of its states and the searches only hash it,
so numbering, words, witnesses and search work are those of a frozenset
construction. (A mask is as wide as its automaton is large, where a
frozenset is as large as the subset.) An `Automaton` builds its tables
(`state_index`, `succ`, `rows`, `has_silent`) on first read, once per
transition relation: the copies that `_derived` makes for `with_initial`,
`widen_alphabet`, `prefix_close` and `right_quotient` share them, and check
only the initial and marked states they change.

Five search shapes are written once. `_difference_product(a, b)` is the
product of `a` with the subset construction of `b`: its start nodes, its
steps in alphabet order and its bad-node test. `includes`, `included` and
`difference` each search it, so a change to its right-subset layer is made
in one place. `includes` finds a shortest
witness; `included` answers the boolean alone by an antichain search, which
skips a node whose `b` subset contains one already reached with the same
`a` state. The right operand `b` is an `Automaton`, an `Implicit` (keys
numbered as they are read) or `LazyRows` (states numbered already).
`pair_product(alphabet, a, b, labels)` is every product of two automata
stepped by a label table (`parallel_compose`, the pair products of
`relations`, OC's and MOC's left sides through `pair_moves`).
`first_path(starts, moves, test)` is every breadth-first witness search:
`includes`, the observer, LCC, LOC, controllability and normality
checks, and
`iter_difference_words`, whose searches over subset pairs find its first
word and decide which pairs are live. `iter_marked_words` is the one
length-lexicographic enumerator: `iter_difference_words` runs it over the
live pairs for the words after its first.
`closure(starts, step)` is every "all that is reachable" set: silent
and unobservable closures, (co)reachable states and subsets, the pair
search of `right_quotient`, and the plant reaches of `hierarchy`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields
from functools import partial
from itertools import chain, islice
from typing import Iterable, Iterator

from .verdicts import Verdict, Witness

Word = tuple[str, ...]


class _lazy:
    """`functools.cached_property` without its lock, which Python 3.11
    takes on every read of an unset value: the first read stores
    `func(obj)` in the instance, where later reads find it first."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class _table(_lazy):
    """A `_lazy` table that depends on the states and transitions only.
    `_derived` copies keep both and share one `_tables` dict, so each table
    is built once however many copies read it."""

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        tables = obj._tables
        if self.name not in tables:
            tables[self.name] = self.func(obj)
        value = obj.__dict__[self.name] = tables[self.name]
        return value


class AutomataError(ValueError):
    pass


class AlphabetMismatchError(AutomataError):
    pass


class PreconditionError(AutomataError):
    """A documented operation precondition does not hold."""


@dataclass(frozen=True)
class Event:
    """A named event; pair and quadruple events are named by a tuple of
    base event names with None for an erased component."""

    name: str | tuple
    controllable: bool = True
    observable: bool = True
    highlevel: bool = True

    @property
    def flags(self) -> tuple[bool, bool, bool]:
        return (self.controllable, self.observable, self.highlevel)


@dataclass(frozen=True)
class Alphabet:
    """Ordered event set; the flags partition it into Σc/Σu, Σo/Σuo, Σhi/Σlo."""

    events: tuple[Event, ...]

    def __post_init__(self):
        seen = set()
        for ev in self.events:
            if isinstance(ev.name, tuple):
                if all(x is None for x in ev.name):
                    raise AutomataError(
                        f"fully erased label {ev.name!r} is silent, not an event")
            elif not ev.name or any(ch.isspace() for ch in ev.name):
                raise AutomataError(f"bad event name {ev.name!r}")
            if ev.name in seen:
                raise AutomataError(f"duplicate event {ev.name!r}")
            seen.add(ev.name)

    @staticmethod
    def make(names: Iterable[str], controllable: Iterable[str] = (),
             observable: Iterable[str] = (), highlevel: Iterable[str] = ()) -> "Alphabet":
        c, o, h = set(controllable), set(observable), set(highlevel)
        return Alphabet(tuple(
            Event(n, n in c, n in o, n in h) for n in names))

    @_lazy
    def names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.events)

    @_lazy
    def by_name(self) -> dict:
        return {e.name: e for e in self.events}

    @_lazy
    def controllable(self) -> frozenset:
        return frozenset(e.name for e in self.events if e.controllable)

    @_lazy
    def uncontrollable(self) -> frozenset:
        return frozenset(e.name for e in self.events if not e.controllable)

    @_lazy
    def observable(self) -> frozenset:
        return frozenset(e.name for e in self.events if e.observable)

    @_lazy
    def highlevel(self) -> frozenset:
        return frozenset(e.name for e in self.events if e.highlevel)

    @_lazy
    def lowlevel(self) -> frozenset:
        return frozenset(e.name for e in self.events if not e.highlevel)

    def __contains__(self, name: str) -> bool:
        return name in self.by_name

    def __len__(self) -> int:
        return len(self.events)

    def event(self, name: str) -> Event:
        try:
            return self.by_name[name]
        except KeyError:
            raise AutomataError(f"unknown event {name!r}") from None

    def restrict(self, keep: Iterable[str]) -> "Alphabet":
        keep = set(keep)
        unknown = keep - set(self.names)
        if unknown:
            raise AutomataError(f"events not in alphabet: {sorted(unknown)}")
        return Alphabet(tuple(e for e in self.events if e.name in keep))


@dataclass(frozen=True)
class ProjectionSpec:
    """Natural projection erasing every event outside `kept`."""

    source: Alphabet
    kept: frozenset

    def __post_init__(self):
        extra = self.kept - set(self.source.names)
        if extra:
            raise AutomataError(f"kept events not in source: {sorted(extra)}")

    @_lazy
    def target_alphabet(self) -> Alphabet:
        return self.source.restrict(self.kept)

    def apply(self, word: Iterable[str]) -> Word:
        return tuple(x for x in word if x in self.kept)


@dataclass(frozen=True)
class Automaton:
    """NFA with initial/marked state sets; label None is the silent move."""

    alphabet: Alphabet
    states: tuple   # hashable ids: names, or 0..n-1 from `explore`
    transitions: frozenset
    initial: frozenset
    marked: frozenset

    def __post_init__(self):
        declared = set(self.states)
        if len(declared) != len(self.states):
            raise AutomataError("duplicate state id")
        for s in self.initial | self.marked:
            if s not in declared:
                raise AutomataError(f"undeclared state {s!r}")
        for (src, lbl, dst) in self.transitions:
            if src not in declared or dst not in declared:
                raise AutomataError(f"transition endpoint not declared: {(src, lbl, dst)}")
            if lbl is not None and lbl not in self.alphabet:
                raise AutomataError(f"transition on unknown event {lbl!r}")

    @staticmethod
    def make(alphabet: Alphabet, states: Iterable[str], transitions: Iterable,
             initial: Iterable[str], marked: Iterable[str]) -> "Automaton":
        return Automaton(alphabet, tuple(states),
                         frozenset(tuple(t) for t in transitions),
                         frozenset(initial), frozenset(marked))

    @_lazy
    def _tables(self) -> dict:
        return {}

    @_table
    def state_index(self) -> dict:
        return {s: i for i, s in enumerate(self.states)}

    @_table
    def succ(self) -> dict:
        """state -> label -> sorted tuple of targets."""
        out: dict = {s: {} for s in self.states}
        for (src, lbl, dst) in self.transitions:
            out[src].setdefault(lbl, set()).add(dst)
        idx = self.state_index
        return {s: {lbl: tuple(sorted(ts, key=idx.__getitem__))
                    for lbl, ts in m.items()}
                for s, m in out.items()}

    @_table
    def rows(self) -> list:
        """state index -> label -> bitmask of the targets' indices. Only
        the subset constructions read it: a mask is as wide as the
        automaton is large, so a large automaton that no construction
        steps as subsets never builds it."""
        idx = self.state_index
        rows: list = [{} for _ in self.states]
        for (src, lbl, dst) in self.transitions:
            row = rows[idx[src]]
            row[lbl] = row.get(lbl, 0) | 1 << idx[dst]
        return rows

    @_table
    def has_silent(self) -> bool:
        return any(lbl is None for (_, lbl, _) in self.transitions)

    @_lazy
    def start_mask(self) -> int:
        idx = self.state_index
        return sum(1 << idx[s] for s in self.initial)

    @_lazy
    def marked_mask(self) -> int:
        idx = self.state_index
        return sum(1 << idx[s] for s in self.marked)

    def meets_marked(self, m: int) -> bool:
        """Does the subset bitmask `m` hold a marked state?"""
        return bool(m & self.marked_mask)

    @property
    def is_deterministic(self) -> bool:
        if len(self.initial) != 1 or self.has_silent:
            return False
        return all(len(ts) <= 1 for m in self.succ.values() for ts in m.values())

    def step(self, states: Iterable[str], event: str) -> frozenset:
        out = set()
        for q in states:
            out.update(self.succ[q].get(event, ()))
        return frozenset(out)

    def run(self, word: Iterable[str]) -> frozenset:
        """State set reached from the initial states (silent-free input)."""
        cur = frozenset(self.initial)
        for x in word:
            cur = self.step(cur, x)
            if not cur:
                break
        return cur

    def accepts_marked(self, word: Iterable[str]) -> bool:
        return bool(self.run(word) & self.marked)

    def generates(self, word: Iterable[str]) -> bool:
        return bool(self.run(word))

    def sorted_states(self, states: Iterable[str]) -> tuple:
        return tuple(sorted(states, key=self.state_index.__getitem__))


# ---------------------------------------------------------------------------
# alphabet plumbing

def require_same_alphabet(a: Automaton, b: Automaton) -> None:
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError("operands must share one alphabet (events and flags)")


def merge_alphabets(x: Alphabet, y: Alphabet) -> Alphabet:
    """Union alphabet; a shared event with different flags is an error."""
    events = list(x.events)
    for e in y.events:
        if e.name in x:
            if x.by_name[e.name].flags != e.flags:
                raise AutomataError(
                    f"flag conflict on shared event {e.name!r}")
        else:
            events.append(e)
    return Alphabet(tuple(events))


def widen_alphabet(a: Automaton, alphabet: Alphabet) -> Automaton:
    """Reinterpret `a` over a superset alphabet (flags must agree)."""
    for e in a.alphabet.events:
        if e.name not in alphabet or alphabet.by_name[e.name].flags != e.flags:
            raise AlphabetMismatchError(f"event {e.name!r} missing or flagged differently")
    return _derived(a, alphabet=alphabet)


def with_initial(a: Automaton, states: Iterable[str]) -> Automaton:
    return _derived(a, initial=frozenset(states))


def _derived(a: Automaton, **changes) -> Automaton:
    """`a` with some of alphabet, initial and marked replaced; the copy
    shares `a`'s tables, which depend on the states and transitions only.
    It checks only what changes: the new initial and marked states against
    the shared `state_index` (callers check a new alphabet)."""
    index = a.state_index
    for s in chain(changes.get("initial", ()), changes.get("marked", ())):
        if s not in index:
            raise AutomataError(f"undeclared state {s!r}")
    out = object.__new__(Automaton)   # no `__post_init__` walk
    out.__dict__.update({f.name: getattr(a, f.name) for f in fields(a)},
                        **changes, _tables=a._tables)
    return out


def _trusted(alphabet: Alphabet, states: tuple, transitions: frozenset,
             initial: frozenset, marked: frozenset,
             tables: dict | None = None) -> Automaton:
    """An automaton that is valid by construction, built without the
    `__post_init__` walk: its caller derived every state, endpoint and
    label from a valid automaton, or checked them itself (`explore`
    checks its labels). `tables` are those of an automaton with the same
    states and transitions, shared as `_derived` shares them."""
    out = object.__new__(Automaton)
    out.__dict__.update(alphabet=alphabet, states=states,
                        transitions=transitions, initial=initial,
                        marked=marked)
    if tables is not None:
        out.__dict__["_tables"] = tables
    return out


# ---------------------------------------------------------------------------
# silent elimination, reachability, trimming

def closure(starts: Iterable, step) -> set:
    """Everything reachable from `starts` (included) along `step(node)`,
    an iterable of next nodes."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for nxt in step(stack.pop()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def eliminate_silent(a: Automaton) -> Automaton:
    """`a` without silent moves (`_erase` keeping every event), or `a`
    itself when it has none."""
    if not a.has_silent:
        return a
    return _erase(a, a.alphabet, a.alphabet.by_name)


def _erase(a: Automaton, alphabet: Alphabet, kept) -> Automaton:
    """`a` over `alphabet` with every move whose label is not in `kept`
    (silent moves included) erased, and the erased moves eliminated: a
    state q moves on a kept label to wherever a state of its erased-move
    closure does, and is marked where that closure holds a marked state.
    One pass over the transitions sorts each state's moves into kept and
    erased ones, and each state's closure is taken once."""
    kept_moves: dict = {}
    erased: dict = {}
    for (src, lbl, dst) in a.transitions:
        if lbl in kept:   # never None, the silent label
            kept_moves.setdefault(src, []).append((lbl, dst))
        else:
            erased.setdefault(src, []).append(dst)
    trans, marked = set(), set()
    for q in a.states:
        cl = closure((q,), lambda p: erased.get(p, ())) if q in erased else (q,)
        if not a.marked.isdisjoint(cl):
            marked.add(q)
        for p in cl:
            trans.update((q, lbl, t) for lbl, t in kept_moves.get(p, ()))
    return _trusted(alphabet, a.states, frozenset(trans), a.initial,
                    frozenset(marked))


def coreachable_states(a: Automaton, goal: frozenset | None = None) -> frozenset:
    goal = a.marked if goal is None else goal
    pred: dict = {s: set() for s in a.states}
    for (src, _, dst) in a.transitions:
        pred[dst].add(src)
    return frozenset(closure(goal, pred.__getitem__))


def _restrict(a: Automaton, generated: bool) -> Automaton:
    """The reachable part of `a`, all marked if `generated`, else only its
    co-reachable states kept. Reachability and co-reachability come from
    one pass over the transitions, and no `succ` table is built. A result
    that keeps every state shares `a`'s tables."""
    post: dict = {}
    pre: dict = {}
    for (src, _, dst) in a.transitions:
        post.setdefault(src, []).append(dst)
        if not generated:
            pre.setdefault(dst, []).append(src)
    keep = closure(a.initial, lambda q: post.get(q, ()))
    if not generated:
        keep &= closure(a.marked, lambda q: pre.get(q, ()))
    if len(keep) == len(a.states):   # nothing to drop
        states, trans, tables = a.states, a.transitions, a._tables
    else:
        states = tuple(s for s in a.states if s in keep)
        trans = frozenset(t for t in a.transitions
                          if t[0] in keep and t[2] in keep)
        tables = None
    return _trusted(a.alphabet, states, trans, a.initial & keep,
                    frozenset(states) if generated else a.marked & keep,
                    tables)


def trim(a: Automaton) -> Automaton:
    """The states of `a` that are both reachable and co-reachable, in
    `a`'s order, with the transitions between them (`_restrict`)."""
    return _restrict(a, False)


def all_marked(a: Automaton) -> Automaton:
    """Recognizer of the generated language L(a): reachable part, all
    marked (`_restrict` of the silent-free `a`)."""
    return _restrict(eliminate_silent(a), True)


def prefix_close(a: Automaton) -> Automaton:
    """Mark every state on an accepting path; L_m becomes the prefix closure."""
    a = eliminate_silent(a)
    return _derived(a, marked=coreachable_states(a))


def is_prefix_closed(a: Automaton) -> bool:
    """L_m(prefix_close(a)) ⊆ L_m(a): every subset of `a` that a word
    reaches and that meets a co-reachable state meets a marked one. The
    walk keeps each subset's co-reachable part, stepped through
    `subset_steps`: a co-reachable target has co-reachable sources."""
    a = eliminate_silent(a)
    live = sum(1 << a.state_index[q] for q in coreachable_states(a))
    steps = subset_steps(a)
    reached = closure([a.start_mask & live],
                      lambda m: (t & live for t in steps[m].values()))
    return all(a.meets_marked(m) for m in reached if m)


def is_empty(a: Automaton) -> bool:
    """L_m(a) = ∅: no state is both reachable and co-reachable."""
    return not trim(a).states


# ---------------------------------------------------------------------------
# the construction kernel and determinization

def explore(alphabet: Alphabet, starts: Iterable, moves, marked) -> Automaton:
    """Reachable part of an implicitly given automaton over `alphabet`.

    Keys are any hashable values (states, pairs, subsets, quadruples).
    `starts` lists the start keys, `moves(key)` yields (label, key) steps and
    `marked(key)` tells whether a key is marked. States are numbered 0..n-1
    in breadth-first discovery order: the distinct start keys in the order
    given, then each new target in the order `moves` yields it. Keys are
    never named, so two distinct keys never share a state.

    The numbered states and endpoints are valid by construction, so the
    result is built by `_trusted`; each distinct label that `moves` yields
    is checked once against `alphabet` (None, the silent move, is allowed),
    and an unknown one raises `AutomataError`.
    """
    # Each state is one int object, shared by every tuple and set that holds
    # it: ints above 256 are not cached, and a copy per mention costs memory.
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
    for key in keys:  # `keys` grows while it is read: the BFS queue
        src = index[key]
        for lbl, nxt in moves(key):
            trans.add((src, lbl, number(nxt)))
    for lbl in {lbl for (_, lbl, _) in trans}:   # each distinct label once
        if lbl is not None and lbl not in alphabet:
            raise AutomataError(f"transition on unknown event {lbl!r}")
    states = tuple(index.values())
    return _trusted(alphabet, states, frozenset(trans), initial,
                    frozenset(i for i, key in zip(states, keys)
                              if marked(key)))


class _Memo(dict):
    """A dict that fills each missing key with `fill(key)` on first read."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class _MarkedMemo(_Memo):
    """The keys for which `fill` is true, each decided once."""

    __contains__ = dict.__getitem__


def bits(m: int) -> Iterator[int]:
    """The indices of the set bits of `m`."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def _union(rows, m: int) -> dict:
    """label -> bitmask of the targets of the subset `m`: the OR of the
    rows of its states."""
    if not m & (m - 1):   # at most one state
        return rows[m.bit_length() - 1] if m else {}
    out: dict = {}
    for i in bits(m):
        for lbl, t in rows[i].items():
            out[lbl] = out.get(lbl, 0) | t
    return out


class Implicit:
    """The (alphabet, starts, moves, marked) that `explore` takes, read as
    an automaton: `succ[key]` calls `moves(key)` and `key in marked` calls
    `marked(key)`, each once per key. Keys are numbered as they are read,
    the start keys first in the order given, so `state_index`,
    `sorted_states`, `start_mask`, `rows` and `meets_marked` stand for those
    of an `Automaton`. It offers what the difference and word searches
    read of an `Automaton`. `moves` must yield no silent (None) label, and
    every key must reach a marked key, or an unbounded `iter_marked_words`
    of a finite language does not end."""

    has_silent = False
    sorted_states = Automaton.sorted_states

    def __init__(self, alphabet: Alphabet, starts: Iterable, moves, marked):
        def succ(key) -> dict:
            out: dict = {}
            for lbl, nxt in moves(key):
                out.setdefault(lbl, {})[nxt] = None
            return {lbl: tuple(ts) for lbl, ts in out.items()}

        index: dict = {}
        keys = self._keys = []

        def bit(key) -> int:
            i = index.get(key)
            if i is None:
                i = index[key] = len(keys)
                keys.append(key)
            return 1 << i

        def row(i: int) -> dict:
            return {lbl: sum(map(bit, ts))
                    for lbl, ts in self.succ[keys[i]].items()}

        self.alphabet = alphabet
        self._tables: dict = {}
        self.initial = tuple(dict.fromkeys(starts))
        self.start_mask = sum(map(bit, self.initial))
        self.state_index = index
        self.succ = _Memo(succ)
        self.marked = _MarkedMemo(marked)
        self.rows = _Memo(row)

    def meets_marked(self, m: int) -> bool:
        """Does the subset bitmask `m` hold a marked key? Keys are decided
        in turn, up to the first marked one."""
        return any(self.marked[self._keys[i]] for i in bits(m))


class LazyRows:
    """A silent-free automaton over states 0..n-1 given by its subset rows:
    `row(i)` maps each label to the bitmask of state i's targets, and is
    read once per state, when a subset step first needs it. The start and
    marked states are bitmasks. It offers what `_difference_product` reads
    of its right operand, so a product whose states are numbered already
    (plant-state pairs p·n + q, say) steps subsets of them without building
    an automaton or numbering keys, as `Implicit` does."""

    has_silent = False
    meets_marked = Automaton.meets_marked

    def __init__(self, alphabet: Alphabet, start_mask: int, row,
                 marked_mask: int):
        self.alphabet = alphabet
        self._tables: dict = {}
        self.start_mask = start_mask
        self.marked_mask = marked_mask
        self.rows = _Memo(row)


def determinize(a: Automaton) -> Automaton:
    """Subset construction preserving both L and L_m (partial DFA).

    A subset is an int bitmask over `a.state_index`; its step ORs the
    `rows` of its states, and it is marked when it meets `marked_mask`.
    `explore` only hashes the masks, and they map one-to-one onto the
    subsets, so the numbering is that of a frozenset construction."""
    a = eliminate_silent(a)
    rows, names = a.rows, a.alphabet.names

    def moves(m):
        row = _union(rows, m)
        for e in names:
            t = row.get(e)
            if t:
                yield e, t

    start = a.start_mask
    return explore(a.alphabet, [start] if start else [], moves,
                   a.marked_mask.__and__)


# ---------------------------------------------------------------------------
# inclusion

def path_word(parent: dict, key) -> tuple:
    """The word that a search's parent map {key: (previous key, event)},
    with None at the start keys, spells from a start key to `key`."""
    word = []
    while parent[key] is not None:
        key, e = parent[key]
        word.append(e)
    word.reverse()
    return tuple(word)


def first_path(starts: Iterable, moves, test):
    """(word, value) for the first node of a breadth-first search whose
    `test(node)` is a truthy value, or None. Nodes are discovered in the
    order `explore` numbers keys (the distinct `starts` as given, then each
    node's (event, node) steps as `moves(node)` yields them) and tested
    once, when discovered; `word` spells the path that discovered the node,
    a shortest one, and () for a start."""
    parent = dict.fromkeys(starts)
    for node in parent:
        value = test(node)
        if value:
            return (), value
    queue = list(parent)
    for node in queue:   # `queue` grows while it is read: breadth first
        for e, nxt in moves(node):
            if nxt not in parent:
                parent[nxt] = (node, e)
                value = test(nxt)
                if value:
                    return path_word(parent, nxt), value
                queue.append(nxt)
    return None


def _difference_product(a: Automaton,
                        b: Automaton | Implicit | LazyRows) -> tuple:
    """(starts, moves, bad) of the product of `a` with the subset
    construction of `b`, the one product that `includes`, `included` and
    `difference` search. A node is (state of `a`, bitmask subset of `b`);
    the starts follow `a.sorted_states`, `moves(node)` yields (event,
    node) in alphabet order, and `bad(node)` is true when the `a` state is
    marked and the `b` subset holds no marked state. `b`'s subset steps
    are its `subset_steps`."""
    require_same_alphabet(a, b)
    a = eliminate_silent(a)
    b = eliminate_silent(b)
    b_row = subset_steps(b)
    succ, names, marked = a.succ, a.alphabet.names, a.marked
    meets = b.meets_marked

    def moves(node):
        qa, bs = node
        steps = succ[qa]
        if not steps:
            return
        row = b_row[bs]
        for e in names:
            targets = steps.get(e)
            if targets:
                nbs = row.get(e, 0)
                for qn in targets:
                    yield e, (qn, nbs)

    def bad(node) -> bool:
        return node[0] in marked and not meets(node[1])

    b0 = b.start_mask
    return [(qa, b0) for qa in a.sorted_states(a.initial)], moves, bad


def subset_steps(b: Automaton | Implicit | LazyRows) -> _Memo:
    """b-subset -> event -> b-subset, the subset steps of the silent-free
    `b`, memoized in its `_tables`, which its `_derived` copies share."""
    return b._tables.setdefault("subset_steps", _Memo(partial(_union, b.rows)))


def includes(a: Automaton, b: Automaton, kind: str = "inclusion"):
    """Marked-language inclusion L_m(a) ⊆ L_m(b).

    `first_path` over `_difference_product(a, b)` for a bad node; a failure
    yields a shortest witness word. It need not be the
    length-lexicographically first one: ties between product nodes reached
    by different words are broken by queue position (each node's steps in
    alphabet order), so use `iter_difference_words` for the first word.
    """
    found = first_path(*_difference_product(a, b))
    if found is None:
        return Verdict.make_holds()
    return Verdict.make_violated(Witness(kind, {"word": found[0]}))


def included(a: Automaton, b: Automaton | Implicit | LazyRows) -> bool:
    """L_m(a) ⊆ L_m(b), without a witness: a breadth-first search of
    `_difference_product(a, b)` that stops at its first bad node.

    It keeps an antichain: per state q of `a`, the ⊆-minimal `b` subsets
    reached with it. A node (q, B′) is skipped once some (q, B) with
    B ⊆ B′ is reached, and is not expanded if such a (q, B) is reached
    after it: the subset step is monotone, so a word that leads (q, B′) to
    a bad node leads (q, B) to one too (De Wulf, Doyen, Henzinger &
    Raskin, CAV 2006). Each node's steps are read in `moves` order, so the
    search does the same work in every process. `includes` keeps the plain
    search, since pruning could change which shortest witness it finds."""
    starts, moves, bad = _difference_product(a, b)
    minimal: dict = {}   # state of `a` -> its ⊆-minimal `b` subsets
    queue = []

    def reach(node) -> bool:
        """False if `node` is bad; else queue it unless it is covered."""
        q, m = node
        kept = minimal.setdefault(q, [])
        if any(k & m == k for k in kept):
            return True
        if bad(node):
            return False
        kept[:] = [k for k in kept if k & m != m]
        kept.append(m)
        queue.append(node)
        return True

    if not all(map(reach, starts)):
        return False
    for node in queue:   # `queue` grows while it is read: breadth first
        if node[1] in minimal[node[0]]:   # not displaced by a smaller one
            if not all(reach(nxt) for _, nxt in moves(node)):
                return False
    return True


def language_equal(a: Automaton, b: Automaton) -> bool:
    return included(a, b) and included(b, a)


# ---------------------------------------------------------------------------
# projection

def project(a: Automaton, spec: ProjectionSpec) -> Automaton:
    """Image automaton over the kept sub-alphabet, silent-free: each state
    moves on a kept event wherever a state of its erased-move closure does,
    and is marked where that closure holds a marked state. One pass over
    the transitions (`_erase`) builds it, with no intermediate automaton
    carrying silent labels."""
    if a.alphabet != spec.source:
        raise AlphabetMismatchError("projection source must equal the automaton alphabet")
    return _erase(a, spec.target_alphabet, spec.kept)


def inverse_project(a: Automaton, spec: ProjectionSpec) -> Automaton:
    """Preimage automaton: self-loops on every erased event at every state."""
    if a.alphabet != spec.target_alphabet:
        raise AlphabetMismatchError("automaton must be over the projection target")
    a = eliminate_silent(a)
    erased = [e for e in spec.source.names if e not in spec.kept]
    trans = set(a.transitions)
    for q in a.states:
        for e in erased:
            trans.add((q, e, q))
    return Automaton(spec.source, a.states, frozenset(trans), a.initial, a.marked)


# ---------------------------------------------------------------------------
# products and boolean operations

def pair_moves(a: Automaton, b: Automaton, labels):
    """`moves((p, q))` of a product of the silent-free `a` and `b`: `labels`
    lists (label, left event or None, right event or None) in alphabet
    order, and a label moves each side on its event, a None side not."""
    a_succ, b_succ = a.succ, b.succ

    def moves(pq):
        p, q = pq
        p_steps, q_steps = a_succ[p], b_succ[q]
        for lbl, left, right in labels:
            for pn in (p,) if left is None else p_steps.get(left, ()):
                for qn in (q,) if right is None else q_steps.get(right, ()):
                    yield lbl, (pn, qn)

    return moves


def pair_product(alphabet: Alphabet, a: Automaton, b: Automaton,
                 labels) -> Automaton:
    """The product over `alphabet` of `a` and `b` stepped by `pair_moves`,
    from their initial pairs in state order, marked where both are."""
    a = eliminate_silent(a)
    b = eliminate_silent(b)
    return explore(alphabet,
                   [(p, q) for p in a.sorted_states(a.initial)
                    for q in b.sorted_states(b.initial)],
                   pair_moves(a, b, labels),
                   lambda pq: pq[0] in a.marked and pq[1] in b.marked)


def parallel_compose(a: Automaton, b: Automaton) -> Automaton:
    """Synchronous composition; shared events synchronize, private interleave."""
    alphabet = merge_alphabets(a.alphabet, b.alphabet)
    return pair_product(alphabet, a, b, [
        (e, e if e in a.alphabet else None, e if e in b.alphabet else None)
        for e in alphabet.names])


def intersect(a: Automaton, b: Automaton) -> Automaton:
    require_same_alphabet(a, b)
    return parallel_compose(a, b)


def difference(a: Automaton, b: Automaton) -> Automaton:
    """Automaton marking L_m(a) − L_m(b): `_difference_product(a, b)` built
    by `explore`, its bad nodes marked, each node's steps in alphabet
    order."""
    return explore(a.alphabet, *_difference_product(a, b))


def right_quotient(a: Automaton, d: Automaton) -> Automaton:
    """{w : ∃v ∈ L_m(d), wv ∈ L_m(a)} by re-marking states of `a`."""
    require_same_alphabet(a, d)
    a = eliminate_silent(a)
    d = eliminate_silent(d)
    by_event_a: dict = {}
    for (p, e, q) in a.transitions:
        by_event_a.setdefault(e, []).append((p, q))
    by_event_d: dict = {}
    for (p, e, q) in d.transitions:
        by_event_d.setdefault(e, []).append((p, q))
    # reverse edges of the full pair product, built per shared event
    pred: dict = {}
    for e, a_edges in by_event_a.items():
        d_edges = by_event_d.get(e)
        if not d_edges:
            continue
        for (pa, qa) in a_edges:
            for (pd, qd) in d_edges:
                pred.setdefault((qa, qd), set()).add((pa, pd))
    seen = closure(((qa, qd) for qa in a.marked for qd in d.marked),
                   lambda pair: pred.get(pair, ()))
    good = frozenset(q for q in a.states
                     if any((q, i) in seen for i in d.initial))
    return _derived(a, marked=good)


# ---------------------------------------------------------------------------
# small builders

def word_automaton(word: Iterable[str], alphabet: Alphabet) -> Automaton:
    word = tuple(word)
    for x in word:
        if x not in alphabet:
            raise AutomataError(f"word event {x!r} not in alphabet")
    states = tuple(f"w{i}" for i in range(len(word) + 1))
    trans = frozenset((f"w{i}", x, f"w{i + 1}") for i, x in enumerate(word))
    return Automaton(alphabet, states, trans, frozenset({"w0"}),
                     frozenset({states[-1]}))


def sigma_star(alphabet: Alphabet) -> Automaton:
    trans = frozenset(("q0", e, "q0") for e in alphabet.names)
    return Automaton(alphabet, ("q0",), trans, frozenset({"q0"}), frozenset({"q0"}))


# ---------------------------------------------------------------------------
# bounded enumeration

def iter_marked_words(a: Automaton | Implicit,
                      bound: int | None = None) -> Iterator[Word]:
    """Yield L_m(a) in length-lexicographic order (alphabet order for ties).

    The one such enumerator: a breadth-first search over the bitmask subsets
    of `a`, an `Automaton` or an `Implicit`, that steps each subset once.
    It drops an `Automaton`'s steps into subsets with no co-reachable state,
    so a finite language ends it; an `Implicit`'s keys all reach one."""
    a = eliminate_silent(a)
    live = -1 if isinstance(a, Implicit) else sum(
        1 << a.state_index[q] for q in coreachable_states(a))
    if not a.start_mask & live:
        return
    rows, names, meets = a.rows, a.alphabet.names, a.meets_marked

    def entry(m: int) -> tuple:
        row = _union(rows, m)
        return meets(m), tuple((e, row[e]) for e in names
                               if row.get(e, 0) & live)

    memo = _Memo(entry)   # subset -> (accepting, ((event, subset), ...))
    queue = deque([((), a.start_mask)])
    while queue:
        word, cur = queue.popleft()
        accepting, steps = memo[cur]
        if accepting:
            yield word
        if bound is None or len(word) < bound:
            queue.extend((word + (e,), nxt) for e, nxt in steps)


def iter_difference_words(a: Automaton | Implicit,
                          b: Automaton | Implicit | LazyRows
                          ) -> Iterator[Word]:
    """Yield L_m(a) − L_m(b) in length-lexicographic order; nothing
    exactly when L_m(a) ⊆ L_m(b).

    The words are those of (A, B), the subsets of `a` and of `b` that a
    word reaches, stepped through their `subset_steps` by `a`'s labels in
    alphabet order, a step that empties A dropped; (A, B) is bad when A
    meets a marked state and B does not. A pair is live when it reaches a
    bad one. `search(node)` is one `first_path` from `node` to a bad or
    known-live pair that skips pairs known to be dead: the word it finds
    makes every pair along it live, and finding none makes every pair it
    expanded dead. Breadth first over this deterministic graph, the word
    of `search(start)` is the length-lexicographically first; the words
    after it come from `iter_marked_words` over the live pairs, each
    pair's liveness decided when the enumerator first steps to it."""
    require_same_alphabet(a, b)
    a, b = eliminate_silent(a), eliminate_silent(b)
    a_row, b_row = subset_steps(a), subset_steps(b)
    names = a.alphabet.names
    live: dict = {}   # (A, B) -> whether it reaches a bad pair, once known

    def moves(node):
        row, brow = a_row[node[0]], b_row[node[1]]
        for e in names:
            m = row.get(e)
            if m:
                yield e, (m, brow.get(e, 0))

    def bad(node) -> bool:
        return a.meets_marked(node[0]) and not b.meets_marked(node[1])

    def search(node):
        expanded = []

        def not_dead(n):
            expanded.append(n)
            return ((e, t) for e, t in moves(n) if live.get(t, True))

        found = first_path([node], not_dead, lambda n: live.get(n) or bad(n))
        if found is None:
            live.update(dict.fromkeys(expanded, False))
            return None
        for e in found[0]:
            live[node] = True
            node = a_row[node[0]][e], b_row[node[1]].get(e, 0)
        live[node] = True
        return found[0]

    def live_moves(node):
        for e, t in moves(node):
            if t not in live:
                search(t)
            if live[t]:
                yield e, t

    start = (a.start_mask, b.start_mask)
    first = search(start)
    if first is not None:
        yield first
        yield from islice(iter_marked_words(
            Implicit(a.alphabet, [start], live_moves, bad)), 1, None)


def enumerate_bounded(a: Automaton, bound: int, *, generated: bool = False) -> list[Word]:
    """Exactly L_m(a) ∩ Σ^{≤bound} (or L(a) ∩ Σ^{≤bound}), length-lex order."""
    if bound < 0:
        raise PreconditionError("bound must be >= 0")
    if generated:
        a = all_marked(a)
    return list(iter_marked_words(a, bound))
