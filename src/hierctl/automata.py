"""Finite automata over flagged alphabets and the regular-language toolbox.

Automata may be nondeterministic, but no `Automaton` holds a silent move
(label ``None``). Silent moves never appear in files; an ε-NFA built by
hand, `Automaton(...)` with None labels, has them eliminated where it is
built, once (`_erase`), and `project` erases its events and eliminates the
erased moves in the same one pass. `explore` rejects a None label as an
unknown event. Every other automaton is derived from these, so no operation
looks for silent moves.

Automata and alphabets are validated where data enters the program: the
public `Automaton(...)`, `Automaton.make`, `Alphabet(...)` and
`Alphabet.make`, and so the gadget builders and the small builders, check
every state, endpoint, label and event name in `__post_init__`. The
`.saut` parser checks each line once, as it reads it, and so builds its
automaton by `_trusted`; its alphabet goes through `Alphabet(...)`. What
is derived from valid ones is valid by construction and is built by
`_unchecked`, without that walk: automata through `_trusted` (`explore`,
which checks each distinct label its caller's `moves` yields, the
restrictions and `project`) and `_derived`, and
alphabets (`merge_alphabets` and `Alphabet.restrict`, which keep their
flag and unknown-event checks, and the pair and quadruple alphabets), and
the projections of a plant's own flags (`HierarchyContext.p` and `.q`).

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
the searches of `checks` and `hierarchy` through `subset_steps`) hold a
subset as an int bitmask over `state_index`.
A step ORs the `rows` of the set bits, "meets a marked state" is
`m & marked_mask`, and the subset's size is `m.bit_count()`. A mask maps
one-to-one onto the frozenset of its states and the searches only hash it,
so numbering, words, witnesses and search work are those of a frozenset
construction. (A mask is as wide as its automaton is large, where a
frozenset is as large as the subset.) An `Automaton` builds its tables
(`state_index`, `succ`, `rows`, `subset_steps`) on first read and shares
them with no other automaton. The `_derived` copies for `widen_alphabet`,
`right_quotient` and a restriction that only marks every state check only
the initial and marked states they change. A restriction that keeps `a`
whole returns `a` itself.

Each search shape is written once. `_search` is the one breadth-first
search: nodes numbered in discovery order, a parent map, a resume point,
and a test, a skip rule and an edge set where a caller asks for them. It
runs `explore`, every witness search through `first_path` (the observer,
LCC, LOC, controllability and normality checks, and `_difference_search`,
which finds the first word of `iter_difference_words` and decides which
subset pairs are live), `included`, whose antichain is its skip rule, and
the relative-observability search and result numbering of `checks`.
`_difference_product(a, b)` is the product of `a` with the subset
construction of `b`, an `Automaton`, an `Implicit` or `LazyRows`, that
`included`, `difference` and `checks.sup_normal_closed` search.
`pair_product(alphabet, a, b, labels)` is every product of two automata
stepped by a label table (`parallel_compose`, the pair products of
`relations`, OC's and MOC's left sides through `pair_moves`).
`iter_marked_words` is the one length-lexicographic enumerator, which
`iter_difference_words` runs over the live pairs for the words after its
first; both yield each word folded by a caller's step.
`closure(starts, step)` is every "all that is reachable" set: erased-move
and unobservable closures, (co)reachable states and subsets, and the pair
search of `right_quotient`. It keeps a set and a stack, and no order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial, reduce
from itertools import islice
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

    def restrict(self, keep: Iterable[str]) -> "Alphabet":
        keep = set(keep)
        unknown = keep - set(self.names)
        if unknown:
            raise AutomataError(f"events not in alphabet: {sorted(unknown)}")
        return _unchecked(Alphabet, events=tuple(
            e for e in self.events if e.name in keep))


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
    """NFA with initial/marked state sets. A transition labelled None, the
    silent move, is eliminated here (`_erase`): the automaton built holds
    none, and each state moves and is marked as its silent closure does."""

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
        silent = False
        for (src, lbl, dst) in self.transitions:
            if src not in declared or dst not in declared:
                raise AutomataError(f"transition endpoint not declared: {(src, lbl, dst)}")
            if lbl is None:
                silent = True
            elif lbl not in self.alphabet:
                raise AutomataError(f"transition on unknown event {lbl!r}")
        if silent:
            trans, marked = _erase(self, self.alphabet.by_name)
            object.__setattr__(self, "transitions", trans)
            object.__setattr__(self, "marked", marked)

    @staticmethod
    def make(alphabet: Alphabet, states: Iterable[str], transitions: Iterable,
             initial: Iterable[str], marked: Iterable[str]) -> "Automaton":
        return Automaton(alphabet, tuple(states),
                         frozenset(tuple(t) for t in transitions),
                         frozenset(initial), frozenset(marked))

    @_lazy
    def state_index(self) -> dict:
        return {s: i for i, s in enumerate(self.states)}

    @_lazy
    def succ(self) -> dict:
        """state -> label -> sorted tuple of targets."""
        out: dict = {s: {} for s in self.states}
        for (src, lbl, dst) in self.transitions:
            out[src].setdefault(lbl, set()).add(dst)
        idx = self.state_index
        return {s: {lbl: tuple(sorted(ts, key=idx.__getitem__))
                    for lbl, ts in m.items()}
                for s, m in out.items()}

    @_lazy
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
        if len(self.initial) != 1:
            return False
        return all(len(ts) <= 1 for m in self.succ.values() for ts in m.values())

    def step(self, states: Iterable[str], event: str) -> frozenset:
        out = set()
        for q in states:
            out.update(self.succ[q].get(event, ()))
        return frozenset(out)

    def run(self, word: Iterable[str]) -> frozenset:
        """State set reached from the initial states by `word`."""
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
        if e.name not in x:
            events.append(e)
        elif x.by_name[e.name].flags != e.flags:
            raise AutomataError(f"flag conflict on shared event {e.name!r}")
    return _unchecked(Alphabet, events=tuple(events))


def widen_alphabet(a: Automaton, alphabet: Alphabet) -> Automaton:
    """Reinterpret `a` over a superset alphabet (flags must agree)."""
    for e in a.alphabet.events:
        if e.name not in alphabet or alphabet.by_name[e.name].flags != e.flags:
            raise AlphabetMismatchError(f"event {e.name!r} missing or flagged differently")
    return _derived(a, alphabet=alphabet)


def _derived(a: Automaton, **changes) -> Automaton:
    """`a` with some of alphabet, initial and marked replaced, a `_trusted`
    copy with tables of its own. It checks only what changes: the new
    initial and marked states against `a`'s states, building no table on
    `a` (callers check a new alphabet)."""
    undeclared = (changes.get("initial", frozenset())
                  | changes.get("marked", frozenset())).difference(a.states)
    if undeclared:
        raise AutomataError(f"undeclared state {next(iter(undeclared))!r}")
    out = _trusted(a.alphabet, a.states, a.transitions, a.initial, a.marked)
    out.__dict__.update(changes)
    return out


def _unchecked(cls, **fields):
    """A `cls` (`Automaton`, `Alphabet` or `ProjectionSpec`) of `fields`
    that are valid by construction, built without the `__post_init__`
    walk."""
    out = object.__new__(cls)
    out.__dict__.update(fields)
    return out


def _trusted(alphabet: Alphabet, states: tuple, transitions: frozenset,
             initial: frozenset, marked: frozenset) -> Automaton:
    """An automaton that is valid by construction (`_unchecked`): its
    caller derived every state, endpoint and label from a valid automaton,
    or checked them itself (`explore` checks its labels, the `.saut`
    parser its lines)."""
    return _unchecked(Automaton, alphabet=alphabet, states=states,
                      transitions=transitions, initial=initial, marked=marked)


# ---------------------------------------------------------------------------
# erasure, reachability, trimming

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


def _erase(a: Automaton, kept) -> tuple[frozenset, frozenset]:
    """The transitions and marked states of `a` with every move whose label
    is not in `kept` (silent moves included) erased, and the erased moves
    eliminated: a state q moves on a kept label to wherever a state of its
    erased-move closure does, and is marked where that closure holds a
    marked state. One pass over the transitions sorts each state's moves
    into kept and erased ones, and each state's closure is taken once.
    `project` erases the events it drops; `Automaton(...)` erases only the
    silent moves of an ε-NFA."""
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
    return frozenset(trans), frozenset(marked)


def _kept(a: Automaton, coreachable: bool = True) -> set:
    """The states that a restriction of `a` keeps: the reachable ones and,
    if `coreachable`, only those of them that reach a marked state. One
    pass over the transitions gives both, and no `succ` table is built."""
    post: dict = {}
    pre: dict = {}
    for (src, _, dst) in a.transitions:
        post.setdefault(src, []).append(dst)
        if coreachable:
            pre.setdefault(dst, []).append(src)
    keep = closure(a.initial, lambda q: post.get(q, ()))
    if coreachable:
        keep &= closure(a.marked, lambda q: pre.get(q, ()))
    return keep


def _restrict(a: Automaton, coreachable: bool, mark_all: bool) -> Automaton:
    """`a` cut down to `_kept(a, coreachable)`, in `a`'s order, with the
    transitions between the kept states; all of them marked if `mark_all`,
    else `a`'s marked ones. The restriction family is `trim` (co-reachable,
    marks kept), `all_marked` (reachable, all marked) and `prefix_close`
    (co-reachable, all marked). A result that keeps every state and
    changes no mark is `a` itself; one that only marks every state is
    `a`'s `_derived` copy."""
    keep = _kept(a, coreachable)
    if len(keep) == len(a.states):   # nothing to drop
        if not mark_all or len(a.marked) == len(a.states):
            return a
        return _derived(a, marked=frozenset(a.states))
    states = tuple(s for s in a.states if s in keep)
    trans = frozenset(t for t in a.transitions
                      if t[0] in keep and t[2] in keep)
    return _trusted(a.alphabet, states, trans, a.initial & keep,
                    frozenset(states) if mark_all else a.marked & keep)


def trim(a: Automaton) -> Automaton:
    """The states of `a` that are both reachable and co-reachable, in
    `a`'s order, with the transitions between them (`_restrict`)."""
    return _restrict(a, True, False)


def all_marked(a: Automaton) -> Automaton:
    """Recognizer of the generated language L(a): reachable part, all
    marked (`_restrict`)."""
    return _restrict(a, False, True)


def prefix_close(a: Automaton) -> Automaton:
    """Trimmed recognizer of closure(L_m(a)): the reachable and
    co-reachable states of `a`, in `a`'s order, all marked (`_restrict`)."""
    return _restrict(a, True, True)


def is_prefix_closed(a: Automaton) -> bool:
    """L_m(prefix_close(a)) ⊆ L_m(a): every subset of `a` that a word
    reaches and that meets a kept state (`_kept`) meets a marked one. The
    walk keeps each subset's kept part, stepped through `subset_steps`: in
    a reached subset, the sources of a kept target are kept. No automaton
    is built."""
    live = sum(1 << a.state_index[q] for q in _kept(a))
    steps = subset_steps(a)
    reached = closure([a.start_mask & live],
                      lambda m: (t & live for t in steps[m].values()))
    return all(a.meets_marked(m) for m in reached if m)


def is_empty(a: Automaton) -> bool:
    """L_m(a) = ∅: no state is both reachable and co-reachable."""
    return not _kept(a)


# ---------------------------------------------------------------------------
# the search kernel, witness paths, explore and determinization

def _search(index: dict, queue: list, parent: list, moves,
            starts: Iterable = (), test=None, skip=None, edges=None,
            done: int = 0):
    """The engine's one breadth-first search over the (event, node) steps
    that `moves(node)` yields. Nodes are numbered in discovery order, the
    new `starts` as given and then each new target in the order `moves`
    yields it: `queue[i]` is node i, `index` its inverse, and `parent[i]`
    (number of the node whose step found node i, event), None at a start,
    which `path_word` spells; the kernel only appends to `parent`, so a
    caller that spells no path (`included`) passes a sink that keeps
    nothing. The three hold the search so far, of which `queue[:done]` is
    expanded, so a caller that cuts them back resumes
    (`checks._PairSearch`); one stopped at node i goes on from
    `parent[i][0]`, or 0 at a start. `test(node)` is asked of each node as
    it is discovered, and (i, value) is returned for the first truthy
    value, or None once every node is expanded. A truthy `skip(node)`
    leaves a new node undiscovered (`included`'s antichain); `edges` gets
    each step of an expanded node as numbers (`explore`).
    """
    for node in starts:
        if node not in index and not (skip is not None and skip(node)):
            i = index[node] = len(queue)
            queue.append(node)
            parent.append(None)
            if test is not None and (value := test(node)):
                return i, value
    for node in islice(queue, done, None):   # grows as it is read
        src = index[node]   # the one int object of its number
        for e, nxt in moves(node):
            if nxt in index:
                if edges is not None:
                    edges.add((src, e, index[nxt]))
                continue
            if skip is not None and skip(nxt):
                continue
            i = index[nxt] = len(queue)
            queue.append(nxt)
            parent.append((src, e))
            if test is not None and (value := test(nxt)):
                return i, value
            if edges is not None:
                edges.add((src, e, i))
    return None


def path_word(parent, key) -> tuple:
    """The word that a search's parent map {key: (previous key, event)},
    with None at the start keys, spells from a start key to `key`; the
    map of `_search` is a list over node numbers."""
    word = []
    while parent[key] is not None:
        key, e = parent[key]
        word.append(e)
    word.reverse()
    return tuple(word)


def first_path(starts: Iterable, moves, test):
    """(word, value) for the first node of the `_search` from `starts`
    whose `test(node)` is a truthy value, or None; `word` spells the path
    that discovered the node, a shortest one, and () for a start."""
    parent: list = []
    found = _search({}, [], parent, moves, starts, test)
    return found and (path_word(parent, found[0]), found[1])


def explore(alphabet: Alphabet, starts: Iterable, moves, marked) -> Automaton:
    """Reachable part of an implicitly given automaton over `alphabet`.

    Keys are any hashable values (states, pairs, subsets, quadruples).
    `starts` lists the start keys, `moves(key)` yields (label, key) steps and
    `marked(key)` tells whether a key is marked. States are numbered 0..n-1
    in breadth-first discovery order: the distinct start keys in the order
    given, then each new target in the order `moves` yields it: the
    numbers and `edges` of a `_search`. Keys are never named, so two
    distinct keys never share a state.

    The numbered states and endpoints are valid by construction, so the
    result is built by `_trusted`; each distinct label that `moves` yields
    is checked once against `alphabet`, and an unknown one, None (the
    silent move) included, raises `AutomataError`.
    """
    index, keys, parent, trans = {}, [], [], set()
    _search(index, keys, parent, moves, starts, edges=trans)
    for lbl in {lbl for (_, lbl, _) in trans}:   # each distinct label once
        if lbl not in alphabet:
            raise AutomataError(f"transition on unknown event {lbl!r}")
    states = tuple(index.values())
    return _trusted(alphabet, states, frozenset(trans),
                    frozenset(states[:parent.count(None)]),
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
    read of an `Automaton`. `moves` must yield events of `alphabet` alone,
    as an `Automaton`'s transitions do (no silent None label), and every
    key must reach a marked key, or an unbounded `iter_marked_words` of a
    finite language does not end."""

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
    """An automaton over states 0..n-1 given by its subset rows:
    `row(i)` maps each label to the bitmask of state i's targets, and is
    read once per state, when a subset step first needs it. The start and
    marked states are bitmasks. It offers what `_difference_product` reads
    of its right operand, so a product whose states are numbered already
    (plant-state pairs p·n + q, say) steps subsets of them without building
    an automaton or numbering keys, as `Implicit` does. Like an
    `Automaton`, it holds no silent (None) label."""

    meets_marked = Automaton.meets_marked

    def __init__(self, alphabet: Alphabet, start_mask: int, row,
                 marked_mask: int):
        self.alphabet = alphabet
        self.start_mask = start_mask
        self.marked_mask = marked_mask
        self.rows = _Memo(row)


def determinize(a: Automaton) -> Automaton:
    """Subset construction preserving both L and L_m (partial DFA).

    A subset is an int bitmask over `a.state_index`, stepped by
    `subset_moves`, and it is marked when it meets `marked_mask`.
    `explore` only hashes the masks, and they map one-to-one onto the
    subsets, so the numbering is that of a frozenset construction."""
    start = a.start_mask
    return explore(a.alphabet, [start] if start else [], subset_moves(a),
                   a.marked_mask.__and__)


# ---------------------------------------------------------------------------
# inclusion

def _difference_product(a: Automaton,
                        b: Automaton | Implicit | LazyRows) -> tuple:
    """(starts, moves, bad) of the product of `a` with the subset
    construction of `b`, the one product that `included`, `difference` and
    `checks.sup_normal_closed` search. A node is (state of `a`, bitmask
    subset of `b`); the starts follow `a.sorted_states`, `moves(node)`
    yields (event, node) in alphabet order, and `bad(node)` is true when
    the `a` state is marked and the `b` subset holds no marked state. `b`'s
    subset steps are its `subset_steps`."""
    require_same_alphabet(a, b)
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
    """b-subset -> event -> b-subset, the subset steps of `b`, memoized on
    `b` itself, so every caller that steps `b` shares one memo."""
    return vars(b).setdefault("subset_steps", _Memo(partial(_union, b.rows)))


def subset_moves(a: Automaton):
    """`moves(m)` of the subset construction of `a`: the
    non-empty `subset_steps` of the bitmask m, in alphabet order."""
    after, names = subset_steps(a), a.alphabet.names

    def moves(m):
        row = after[m]
        for e in names:
            t = row.get(e)
            if t:
                yield e, t

    return moves


def includes(a: Automaton, b: Automaton, kind: str = "inclusion"):
    """Marked-language inclusion L_m(a) ⊆ L_m(b); a failure's witness is
    the length-lexicographically first word of L_m(a) − L_m(b), the first
    that `iter_difference_words` yields."""
    word = next(iter_difference_words(a, b), None)
    if word is None:
        return Verdict.make_holds()
    return Verdict.make_violated(Witness(kind, {"word": word}))


def included(a: Automaton, b: Automaton | Implicit | LazyRows) -> bool:
    """L_m(a) ⊆ L_m(b), without a witness: a `_search` of
    `_difference_product(a, b)` that stops at its first bad node.

    Its skip rule is an antichain: per state q of `a`, the ⊆-minimal `b`
    subsets reached with it. A node (q, B′) is skipped once some (q, B)
    with B ⊆ B′ is reached, and is not expanded if such a (q, B) is
    reached after it: the subset step is monotone, so a word that leads
    (q, B′) to a bad node leads (q, B) to one too (De Wulf, Doyen,
    Henzinger & Raskin, CAV 2006). Each node's steps are read in `moves`
    order, so the search does the same work in every process. No path is
    spelled, so its parent map is a sink that keeps nothing."""
    starts, moves, bad = _difference_product(a, b)
    minimal: dict = {}   # state of `a` -> its ⊆-minimal `b` subsets

    def covered(node) -> bool:   # if not, `node`'s subset is kept
        q, m = node
        kept = minimal.setdefault(q, [])
        if any(k & m == k for k in kept):
            return True
        kept[:] = [k for k in kept if k & m != m]
        kept.append(m)
        return False

    return _search({}, [], deque(maxlen=0), lambda node: moves(node)
                   if node[1] in minimal[node[0]] else (),
                   starts, bad, covered) is None


def language_equal(a: Automaton, b: Automaton) -> bool:
    return included(a, b) and included(b, a)


# ---------------------------------------------------------------------------
# projection

def project(a: Automaton, spec: ProjectionSpec) -> Automaton:
    """Image automaton over the kept sub-alphabet: each state moves on a
    kept event wherever a state of its erased-move closure does, and is
    marked where that closure holds a marked state. One pass over the
    transitions (`_erase`) builds it, with no intermediate automaton
    carrying silent labels."""
    if a.alphabet != spec.source:
        raise AlphabetMismatchError("projection source must equal the automaton alphabet")
    trans, marked = _erase(a, spec.kept)
    return _trusted(spec.target_alphabet, a.states, trans, a.initial, marked)


def inverse_project(a: Automaton, spec: ProjectionSpec) -> Automaton:
    """Preimage automaton: self-loops on every erased event at every state."""
    if a.alphabet != spec.target_alphabet:
        raise AlphabetMismatchError("automaton must be over the projection target")
    erased = [e for e in spec.source.names if e not in spec.kept]
    trans = set(a.transitions)
    for q in a.states:
        for e in erased:
            trans.add((q, e, q))
    return Automaton(spec.source, a.states, frozenset(trans), a.initial, a.marked)


# ---------------------------------------------------------------------------
# products and boolean operations

def pair_moves(a: Automaton, b: Automaton, labels):
    """`moves((p, q))` of a product of `a` and `b`: `labels`
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

def _extend(word: Word, e) -> Word:
    """`word` extended by the letter `e`: the fold that spells a word."""
    return word + (e,)


def iter_marked_words(a: Automaton | Implicit, bound: int | None = None,
                      step=_extend, empty=()) -> Iterator:
    """Yield L_m(a) in length-lexicographic order (alphabet order for ties).

    The one such enumerator: a breadth-first search over the bitmask subsets
    of `a`, an `Automaton` or an `Implicit`, that steps each subset once.
    It drops an `Automaton`'s steps into subsets with no kept state
    (`_kept`), so a finite language ends it; an `Implicit`'s keys all
    reach a marked one. Each word is yielded as a value folded over its
    letters: `empty` for ε and `step(value, e)` for the word extended by
    e, so by default the word's tuple. A fold that costs O(1) makes each
    word cost O(1) too, however long it is (`hierarchy._interleaving_table`
    folds the key of its cell). `bound` stops the words at that length."""
    live = -1 if isinstance(a, Implicit) else sum(
        1 << a.state_index[q] for q in _kept(a))
    if not a.start_mask & live:
        return
    rows, names, meets = a.rows, a.alphabet.names, a.meets_marked

    def entry(m: int) -> tuple:
        row = _union(rows, m)
        return meets(m), tuple((e, row[e]) for e in names
                               if row.get(e, 0) & live)

    memo = _Memo(entry)   # subset -> (accepting, ((event, subset), ...))
    queue = deque([(empty, a.start_mask)])
    length, left = 0, 1   # the length of the words dequeued; how many left
    while queue:
        value, cur = queue.popleft()
        accepting, steps = memo[cur]
        if accepting:
            yield value
        if bound is None or length < bound:
            queue.extend((step(value, e), nxt) for e, nxt in steps)
        left -= 1
        if not left:
            length, left = length + 1, len(queue)


def _difference_search(a: Automaton | Implicit,
                       b: Automaton | Implicit | LazyRows) -> tuple:
    """(moves, bad, live, search) of the difference search over (A, B),
    the subsets of `a` and of `b` that a word reaches, stepped through
    their `subset_steps` by `a`'s labels in alphabet order, a step that
    empties A dropped: `moves(node)` yields its (event, pair) steps and
    `bad(node)` is true when A meets a marked state and B does not. A pair
    is live when it reaches a bad one; `live` maps each pair whose
    liveness is known to it.

    `search(node)` is one `first_path` from `node` to a bad or known-live
    pair that skips pairs known to be dead, and returns its (word, True)
    or None. The word it finds makes every pair along it live, and finding
    none makes every pair it expanded dead; a start known to be dead
    returns None at once. Breadth first over this deterministic graph, the
    word is the length-lexicographically first from `node` to a bad pair
    while no pair is known live, as is so in `check_observer`, which stops
    at its first failing pair."""
    require_same_alphabet(a, b)
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
        if live.get(node) is False:
            return None
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
        return found

    return moves, bad, live, search


def iter_difference_words(a: Automaton | Implicit,
                          b: Automaton | Implicit | LazyRows,
                          step=_extend, empty=()) -> Iterator:
    """Yield L_m(a) − L_m(b) in length-lexicographic order; nothing
    exactly when L_m(a) ⊆ L_m(b).

    The words are those of the subset pairs of `_difference_search(a, b)`
    that reach a bad pair. The word of `search(start)` is the
    length-lexicographically first; the words after it come from
    `iter_marked_words` over the live pairs, each pair's liveness decided
    by `search` when the enumerator first steps to it. Each word is
    yielded folded by `step` from `empty`, as `iter_marked_words` yields
    it: by default its tuple."""
    moves, bad, live, search = _difference_search(a, b)

    def live_moves(node):
        for e, t in moves(node):
            if t not in live:
                search(t)
            if live[t]:
                yield e, t

    start = (a.start_mask, b.start_mask)
    first = search(start)
    if first is not None:
        yield reduce(step, first[0], empty)
        yield from islice(iter_marked_words(
            Implicit(a.alphabet, [start], live_moves, bad), None, step, empty),
            1, None)


def enumerate_bounded(a: Automaton, bound: int, *, generated: bool = False) -> list[Word]:
    """Exactly L_m(a) ∩ Σ^{≤bound} (or L(a) ∩ Σ^{≤bound}), length-lex order."""
    if bound < 0:
        raise PreconditionError("bound must be >= 0")
    if generated:
        a = all_marked(a)
    return list(iter_marked_words(a, bound))
