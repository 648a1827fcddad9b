"""Hierarchical consistency checking and the two-level pipelines.

The plant lives over one alphabet Σ whose flags induce the observation
projection P (onto Σo) and the abstraction projection Q (onto Σhi). The
three consistency properties relate strings of the plant language L and of
its abstraction Q(L):

* observation consistency (OC): high-level strings that look alike have
  low-level representatives that look alike,
* modified observation consistency (MOC): every low-level string is
  observation-equivalent to a representative of every abstraction string it
  is high-level-observation-equivalent to,
* local observation consistency (LOC): a controllable high-level event
  enabled after two indistinguishable strings can be reached by
  indistinguishable low-level continuations.

OC and MOC ask the alphabet first: where Σo ⊆ Σhi or Σhi ⊆ Σo, MOC holds
for every plant, and so does OC (`moc_structurally_guaranteed`), a bare
"holds" with no product built. Then they ask the same of U, the events
that label the plant's transitions (`_moc_forced`). LCC, LOC and the
observer ask U first, each by rules of its own: each property quantifies
only over events that occur in strings of L. A check that no rule decides
builds its context. OC and MOC then each reduce their property to a
regular-language inclusion between automata over pair events, neither
side built. The left side is an `Implicit` product, each key's moves read
when a search first steps it. The right side, the P-synchronized
self-product of the plant with some components erased, is `LazyRows` over
plant-state pairs, each pair's row built when a subset step first reads it.

OC and MOC reach "holds" first by one antichain inclusion
(``automata.included``) of their plain left side in the right one, which
needs no normal form and no sequence. Where it fails, the difference
sequences come from breadth-first searches over pairs of left and right
subsets (``automata.iter_difference_words``): the first search yields the
first sequence, and only if its tuple is refuted do further searches decide
which pairs reach a difference, so that the word enumerator yields the
others. Each pair is stepped only as far as the sequences examined need.
The inclusion is sequence-level, but a left-only and a right-only pair
event commute, so the interleavings of one string pair are one trace: OC
and MOC read their left side in lexicographic normal form
(``relations.normal_forms``), one sequence per string pair. A
search that yields no sequence is the inclusion holding: ``holds``, every
normal form lying in the right side, which realizes every string pair.
Otherwise a difference sequence may only reflect a missing interleaving:
OC and MOC confirm or refute its string tuple exactly by asking their right
side whether it accepts any interleaving of it. One table per check answers,
keyed by interned prefix pairs, that all its tuples share and that steps the
right side's subsets with the memo the difference search fills. The
sequences come in length-lexicographic order, each as its key in that table:
the enumeration folds the key letter by letter in O(1) and never builds the
word, so a refuted tuple costs O(1) plus the cells it fills, and only a
confirmed one is spelled and decomposed into its witness. A confirmed
tuple yields ``violated``; exhausting the difference language yields
``holds`` (every genuine violating tuple leaves a difference sequence, its
normal form, because the synchronized products accept all interleavings);
running out of budget, counted in tuples examined, yields ``inconclusive``.

The observer property is decided per pair of a plant and an abstraction
subset by the same difference search (``automata._difference_search``),
with the abstraction on both sides, and LCC per plant subset alone.

LOC is decided exactly by one breadth-first search per event over the
quadruple verifier, determinized as it is read: the verifier's subsets
after a word say whether the tuple it spells violates LOC, so the first
word to reach a violating subset is the witness (``check_loc``). Its
verdict is inconclusive only at budget 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from operator import itemgetter

from .automata import (Alphabet, Automaton, Implicit, LazyRows, _Memo,
                       PreconditionError, ProjectionSpec, _derived,
                       _difference_search, _lazy, _unchecked, all_marked,
                       bits, first_path, included, includes,
                       iter_difference_words, merge_alphabets,
                       pair_moves, parallel_compose, prefix_close, project,
                       subset_moves, subset_steps, widen_alphabet)
from .checks import (_controllability, _normality, _observability,
                     _sup_normal, _sup_relobs)
from .relations import (_quad_labels, decompose_sequence, label_name,
                        normal_forms, pair_alphabet)
from .verdicts import Verdict, Witness

DEFAULT_BUDGET = 10000


@dataclass(frozen=True)
class HierarchyContext:
    """A plant plus the derived projections and abstraction.

    `plant` recognizes the generated language L (every state marked);
    `abstraction` recognizes Q(L) over the high-level sub-alphabet, on the
    plant's states; the checks step both as subsets (`subset_steps`) and
    build no DFA. `shared` = Σhi ∩ Σo is what both P_hi ∘ Q and Q_o ∘ P
    keep, so that square commutes by construction.
    """

    plant: Automaton

    @_lazy
    def alphabet(self) -> Alphabet:
        return self.plant.alphabet

    @_lazy
    def p(self) -> ProjectionSpec:
        return _unchecked(ProjectionSpec, source=self.alphabet,
                          kept=self.alphabet.observable)

    @_lazy
    def q(self) -> ProjectionSpec:
        return _unchecked(ProjectionSpec, source=self.alphabet,
                          kept=self.alphabet.highlevel)

    @_lazy
    def shared(self) -> frozenset:
        return self.alphabet.highlevel & self.alphabet.observable

    @_lazy
    def abstraction(self) -> Automaton:
        return project(self.plant, self.q)

    @_lazy
    def plant_pairs(self) -> tuple:
        """`_plant_pairs(self)`: the pair steps, closures and low-level
        moves that LOC, LCC and OC's and MOC's right sides share."""
        return _plant_pairs(self)


Plant = Automaton | HierarchyContext


def build_context(g: Plant) -> HierarchyContext:
    """The context of plant `g`; a context is returned unchanged."""
    if isinstance(g, HierarchyContext):
        return g
    return HierarchyContext(all_marked(g))


def _labelling(g: Plant) -> set:
    """U, the events that label a transition of plant `g` (of a context's
    plant). Taken from every transition, a superset of the reachable ones,
    so a rule that reads U is sound on a plant with unreachable states:
    an event outside U occurs in no string of L."""
    return set(map(itemgetter(1), getattr(g, "plant", g).transitions))


def conform_spec(k: Automaton, reference: Alphabet) -> Automaton:
    """Reinterpret a specification over (a restriction of) `reference`."""
    for e in k.alphabet.events:
        if e.name not in reference or reference.by_name[e.name].flags != e.flags:
            raise PreconditionError(
                f"specification event {e.name!r} missing from the plant "
                "alphabet or flagged differently")
    return _derived(k, alphabet=reference)


# ---------------------------------------------------------------------------
# observer property and local control consistency

def _enabling(a: Automaton, e: str) -> int:
    """The bitmask of the states of `a` that move on `e`."""
    return sum(1 << i for i, row in enumerate(a.rows) if e in row)


def check_observer(g: Plant) -> Verdict:
    """Is the abstraction projection Q an observer for the plant language?

    For every plant string s and high-level continuation t with
    Q(s)t ∈ Q(L) there must be a low-level continuation u with su ∈ L and
    Q(su) = Q(s)t. Decided exactly per pair (run(s), run(Q(s))) of plant
    and abstraction subsets, in breadth-first order: the abstraction from
    run(Q(s)) must be included in the abstraction from run(s), which
    `project` leaves on the plant's states. Each pair asks the difference
    search of `iter_difference_words`, `automata._difference_search(hi,
    hi)`, once from (run(Q(s)), run(s)), for a pair whose first subset
    meets a marked state and whose second does not, so its word is the
    first of the difference. The per-pair searches share one search, so
    each steps into none of the pairs that an earlier one found dead: a
    dead pair lies on no path to a bad one, so each witness is the word
    that the full search finds. No pair is known live before the last
    search, the one that fails.
    `g` is a plant or its `build_context(plant)`.

    Two rules on U (`_labelling`) hold before any context is built. No
    low-level event in U: Q is the identity on L, so u = t. No high-level
    one: Q(L) = {ε}, so t = ε and u = ε.
    """
    used, high = _labelling(g), g.alphabet.highlevel
    if used <= high or used.isdisjoint(high):
        return Verdict.make_holds()
    ctx = build_context(g)
    plant, hi = ctx.plant, ctx.abstraction
    plant_moves, hi_after = subset_moves(plant), subset_steps(hi)
    *_, search = _difference_search(hi, hi)

    def moves(node):   # se ∈ L puts Q(s)e in Q(L): the abstraction moves
        s, x = node
        for e, t in plant_moves(s):
            yield e, (t, hi_after[x][e] if e in high else x)

    def failure(node):   # the run from Q(s) leads, from s follows
        return search((node[1], node[0]))

    found = first_path([(plant.start_mask, hi.start_mask)], moves, failure)
    if found is None:
        return Verdict.make_holds()
    s, (t, _) = found
    return Verdict.make_violated(Witness(
        "observer", {"s": s, "t": ctx.q.apply(s) + t},
        "t ∈ Q(L) but no low-level continuation of s projects onto it"))


def check_lcc(g: Plant) -> Verdict:
    """Local control consistency of the abstraction projection.

    For every plant string s and uncontrollable high-level event e with
    Q(s)e ∈ Q(L): if some low-level path from s reaches e, then some purely
    uncontrollable low-level path does too. Such a path puts Q(s)e in Q(L),
    so the plant subsets run(s) are checked alone, in breadth-first order,
    by their `_plant_pairs` closures under the low-level and the
    uncontrollable low-level moves. `g` is a plant or its
    `build_context(plant)`.

    Two rules on U (`_labelling`) hold before any context is built. No
    uncontrollable high-level event in U: there is no e to check. No
    controllable low-level one: every low-level path is uncontrollable.
    """
    used, al = _labelling(g), g.alphabet
    if (used & al.highlevel <= al.controllable
            or used & al.controllable <= al.highlevel):
        return Verdict.make_holds()
    ctx = build_context(g)
    plant = ctx.plant
    column, _, closing, _ = ctx.plant_pairs
    # run(s) is closed as the pairs it forms with state 0, by left moves
    low = tuple((0, e) for e in al.names if e in al.lowlevel)
    reach_all = closing(low)
    reach_unc = closing(tuple(m for m in low if m[1] in al.uncontrollable))
    targets = [(e, column(_enabling(plant, e))) for e in al.names
               if e in al.highlevel and e in al.uncontrollable]

    def escape(m):   # a target e reached at low level, not uncontrollably
        every, unc = reach_all(column(m)), reach_unc(column(m))
        return next((e for e, enabled in targets
                     if every & enabled and not unc & enabled), None)

    found = first_path([plant.start_mask], subset_moves(plant), escape)
    if found is None:
        return Verdict.make_holds()
    s, e = found
    return Verdict.make_violated(Witness(
        "lcc", {"s": s, "e": (e,)}, "e is reachable from s by low-level "
        "events but not by uncontrollable ones"))


# ---------------------------------------------------------------------------
# the three consistency checkers

def _require_budget(budget: int) -> None:
    if budget < 0:
        raise PreconditionError("budget must be >= 0")


def _refutation_loop(words, budget: int, confirm) -> Verdict:
    """Decide OC or MOC from its difference sequences.

    `words` yields the difference sequences in length-lexicographic order,
    each as whatever `confirm` reads (OC and MOC: its key in the
    interleaving table, `_interleaving_table`); `confirm` returns a Witness
    for a genuine violation or None for a spurious (interleaving-only)
    difference. No sequence at all is the inclusion holding, a bare
    "holds". The sequences are normal forms, each of a tuple of its own, so
    the budget counts tuples.
    """
    spurious = 0
    examined = 0
    for word in words:
        examined += 1
        if examined > budget:
            return Verdict.make_inconclusive(
                budget={"difference_sequences": budget},
                reason="difference enumeration budget exhausted",
                refuted=spurious)
        witness = confirm(word)
        if witness is not None:
            return Verdict.make_violated(witness, examined=examined)
        spurious += 1
    if not examined:
        return Verdict.make_holds()
    return Verdict.make_holds(
        refuted=spurious,
        reason="difference language exhausted; every sequence was a "
               "spurious interleaving")


# Confirmation. Each OC or MOC refutation candidate asks whether the right
# operand accepts some interleaving of its string tuple, so a refuted
# difference sequence costs no automaton construction. A check's
# length-lexicographic candidates share most of their prefixes, so its
# questions share one table, stepped by the subset steps that the
# difference search fills for the same right operand, and the word
# enumeration carries each candidate's key in that table, not its word.

def _interleaving_table(la: Implicit, ra: LazyRows) -> tuple:
    """(empty, step, exists) of the question "does `ra` accept some
    interleaving of the string pair (u, v) over the pair labels of `la`?".

    A key names a pair (u, v): it is ((u id, v id), previous key, label),
    `empty` for (ε, ε), and `step(key, label)` extends it by a pair label
    of `la` in O(1), whatever the length of u and v. The ids are those of
    a prefix trie, each prefix being its parent's id plus a letter, and
    the previous key and the label spell the sequence that reached the
    key (`_spelled`). So `iter_difference_words` folds each sequence it
    yields into its key and never builds the word.

    `exists(key)` answers the question. A cell, keyed by the id pair, is
    the subset of `ra`, a bitmask, that the interleavings of a pair
    reach: `ra.start_mask` at (ε, ε), and cell (u, v) the union of up to
    three `subset_steps(ra)` steps, each where `la` has the label, e being
    the last letter of u or v: by (e, None) from (u[:-1], v), by (None, e)
    from (u, v[:-1]) and by (e, e) from (u[:-1], v[:-1]). A query fills
    only the cells it needs, from one explicit stack, and stops at filled
    ones.
    """
    after = subset_steps(ra)   # cell -> label -> cell
    # letter -> its label (e, None), (None, e) or (e, e) where `la` has it
    left, right, both = {}, {}, {}
    for label in la.alphabet.names:
        l, r = label
        if r is None:
            left[l] = label
        elif l is None:
            right[r] = label
        else:
            both[l] = label
    letter = {e: k for k, e in enumerate({**left, **right, **both})}
    width = len(letter)
    # parent id * width + letter -> id, where id 0 is the empty prefix
    ids: dict = {}
    parent = [None]      # id -> parent id
    last = [None]        # id -> last letter

    def grow(i: int, e, code: int) -> int:   # a new id, i extended by e
        j = ids[code] = len(parent)
        parent.append(i)
        last.append(e)
        return j

    def step(key, label) -> tuple:
        u, v = key[0]
        l, r = label
        if l is not None:
            code = u * width + letter[l]
            u = ids.get(code) or grow(u, l, code)
        if r is not None:
            code = v * width + letter[r]
            v = ids.get(code) or grow(v, r, code)
        return (u, v), key, label

    cells = {(0, 0): ra.start_mask}
    marked = ra.marked_mask

    def exists(key) -> bool:
        # a frame (pair, None) lists the (predecessor, label) steps into
        # the pair's cell; (pair, steps) fills the cell as the union of
        # those steps once the predecessors it lacked are filled
        stack = [(key[0], None)]
        while stack:
            pair, into = stack.pop()
            if into is None:
                if pair in cells:   # filled, maybe after it was pushed
                    continue
                u, v = pair
                e, f = last[u], last[v]
                into = []
                if e in left:
                    into.append(((parent[u], v), left[e]))
                if f in right:
                    into.append(((u, parent[v]), right[f]))
                if e == f and e in both:
                    into.append(((parent[u], parent[v]), both[e]))
            missing = [(p, None) for p, _ in into if p not in cells]
            if missing:
                stack.append((pair, into))
                stack += missing
                continue
            reached = 0
            for p, label in into:
                reached |= after[cells[p]].get(label, 0)
            cells[pair] = reached
        return bool(cells[key[0]] & marked)

    return ((0, 0), None, None), step, exists


def _spelled(key) -> tuple:
    """The pair-label sequence that reached an `_interleaving_table` key."""
    word = []
    while key[1] is not None:
        word.append(key[2])
        key = key[1]
    word.reverse()
    return tuple(word)


def _plant_pairs(ctx: HierarchyContext) -> tuple:
    """(column, step, closing, low) over the plant-state pairs (p, q),
    each the bit p·n + q of a bitmask, n the number of plant states. The
    memos are `_Memo` dicts of the context, read through `__getitem__`.

    `column(m)` is the state set `m` as the pairs it forms with state 0;
    times a state set Y, the pairs of the two sets (the shifts of Y are n
    bits apart). `step(i, side, e)` is the pairs that pair i reaches by e,
    which moves the left path (side 0), the right one (1) or both (2): a
    shifted column, a shifted row, or one column-times-row product.
    `closing(moves)` is the function, one per tuple `moves` of (side, e)
    steps, that closes a bitmask under them, with a memo of every pair's
    one-move neighbours. `low` is the low-level moves, an unobservable
    event of one path or an event of Σo ∖ Σhi of both, in alphabet order:
    `check_loc` closes run(s) × run(s') under them, and OC's right side
    erases them, MOC's their right-path part (`_pair_operands`).
    """
    rows = ctx.plant.rows
    n = len(rows)
    obs, hi = ctx.alphabet.observable, ctx.alphabet.highlevel
    column = _Memo(lambda m: sum(1 << (p * n) for p in bits(m))).__getitem__

    def step(i: int, side: int, e: str) -> int:
        p, q = divmod(i, n)
        if side == 0:
            return column(rows[p].get(e, 0)) << q
        if side == 1:
            return rows[q].get(e, 0) << (p * n)
        return column(rows[p].get(e, 0)) * rows[q].get(e, 0)

    @_Memo
    def closing(moves: tuple):
        @_Memo
        def nearby(i: int) -> int:   # the pairs one move reaches
            out = 0
            for side, e in moves:
                out |= step(i, side, e)
            return out

        def close(m: int) -> int:
            todo = m
            while todo:
                new = 0
                for i in bits(todo):
                    new |= nearby[i]
                todo = new & ~m
                m |= todo
            return m

        return close

    low = tuple((side, e) for e in ctx.alphabet.names if e not in hi
                for side in ((2,) if e in obs else (0, 1)))
    return column, step, closing.__getitem__, low


def _pair_operands(ctx: HierarchyContext, kind: str) -> tuple:
    """The two sides of OC's (`kind` "oc") or MOC's ("moc") inclusion, over
    one alphabet, neither built: each is read as far as a search steps it.

    The left side is `sync_pair_compose(x, abstraction, Σhi ∩ Σo)`, x the
    abstraction (OC) or the plant (MOC), as an `Implicit` over state pairs,
    whose successor memo the antichain inclusion and the normal-form search
    share. The right side is `relabel_pair(sync_pair_compose(plant, plant,
    Σo), keep, Σhi)`, keep being Σhi for OC and Σ for MOC, as `LazyRows`
    over the plant-state pairs, each the `_plant_pairs` bit p·n + q, a
    pair's row built when a subset step first needs it. Its labels, those
    `relabel_pair` gives, are the left side's, in the same order. A pair
    label erased to (ε, ε) is a silent move: for OC the low-level moves of
    `_plant_pairs`, for MOC their right-path part, a right-only move on
    Σuo ∖ Σhi. The start pairs and each row's targets are closed under
    them, so the pairs reached after a sequence form a closed set, and a
    pair is marked where both of its states are.
    """
    plant, al = ctx.plant, ctx.alphabet
    x, y = (ctx.abstraction if kind == "oc" else plant), ctx.abstraction
    keep = al.highlevel if kind == "oc" else frozenset(al.names)
    column, step, closing, low = ctx.plant_pairs
    close = closing(low if kind == "oc" else
                    tuple(m for m in low if m[0] == 1))
    steps: dict = {}   # label -> the one (side, event) move it stands for
    for e in al.names:   # relabels pair_alphabet(al, al, Σo), in its order
        for side, l, r in (((2, e, e),) if e in al.observable else
                           ((0, e, None), (1, None, e))):
            label = (l if l in keep else None, r if r in al.highlevel else None)
            if label != (None, None):
                steps[label] = side, e

    def row(i: int) -> dict:
        out = {}
        for label, (side, e) in steps.items():
            t = step(i, side, e)
            if t:
                out[label] = close(t)
        return out

    pairs = pair_alphabet(x.alphabet, y.alphabet, ctx.shared)
    start, marked = plant.start_mask, plant.marked_mask
    return (Implicit(pairs, itertools.product(x.sorted_states(x.initial),
                                              y.sorted_states(y.initial)),
                     pair_moves(x, y, [(lbl, *lbl) for lbl in pairs.names]),
                     lambda pq: pq[0] in x.marked and pq[1] in y.marked),
            LazyRows(pairs, close(column(start) * start), row,
                     column(marked) * marked))


def _pair_consistency(ctx: HierarchyContext, kind: str, key: str,
                      note: str, budget: int) -> Verdict:
    """Shared body of OC and MOC: is every sequence of the left side of
    `_pair_operands(ctx, kind)`, read in normal form, in its right side?

    The plain inclusion (`included`) is tried first: its antichain search
    needs no normal forms, and the normal forms are some of the left
    side's sequences, so when it holds the check holds, a bare "holds".
    Otherwise the difference search reads the left side in normal form:
    its first sequence comes from a breadth-first search over subset pairs,
    and the liveness searches that the sequences after it need run only
    when that sequence's tuple is refuted. Each difference tuple (x, t') is
    decided exactly by asking the right side whether it accepts any
    interleaving of it (`_interleaving_table`), the enumeration handing
    over each sequence as its key in the table; a false answer spells the
    sequence and gives a `kind` witness that names x by `key`. The plain
    inclusion can fail where every normal form is in: an event of
    Σo ∖ Σhi moves both paths of the right side, but its label shows one
    side or none, so the right side need not hold every interleaving of
    its string pairs. Then the breadth-first search runs
    to exhaustion without a sequence and gives the bare "holds", as on the
    MOC gadgets of universal NFAs.
    """
    la, ra = _pair_operands(ctx, kind)
    if included(la, ra):
        return Verdict.make_holds()
    empty, step, exists = _interleaving_table(la, ra)

    def confirm(pair):
        if exists(pair):
            return None
        word = _spelled(pair)
        x, tp = decompose_sequence(word)
        return Witness(kind, {key: x, "t_prime": tp,
                              "sequence": tuple(map(label_name, word))}, note)

    return _refutation_loop(
        iter_difference_words(normal_forms(la), ra, step, empty), budget,
        confirm)


def _moc_forced(g: Plant) -> bool:
    """Is MOC forced on plant `g`, by `moc_structurally_guaranteed` asked
    of the alphabet Σ, and then of U (`_labelling`): Σo ∩ U ⊆ Σhi or
    Σhi ∩ U ⊆ Σo? The lemma's proof reads only the letters of strings of
    L, all in U, so it holds with Σo and Σhi cut down to U."""
    al = g.alphabet
    if moc_structurally_guaranteed(al):
        return True
    used = _labelling(g)
    return (used & al.observable <= al.highlevel
            or used & al.highlevel <= al.observable)


def check_oc(g: Plant, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Observation consistency of the plant abstraction;
    `g` is a plant or its `build_context(plant)`. Σo and Σhi nested, on
    Σ or on U, force MOC (`_moc_forced`: the lemma's proof reads only
    letters of strings of L, all in U), and MOC implies OC, so there OC
    holds before any context is built."""
    _require_budget(budget)
    if _moc_forced(g):   # the lemma, then MOC ⇒ OC
        return Verdict.make_holds()
    return _pair_consistency(
        build_context(g), "oc", "t",
        "no representatives of t and t' share an observation", budget)


def check_moc(g: Plant, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Modified observation consistency of the plant abstraction;
    `g` is a plant or its `build_context(plant)`. Σo and Σhi nested, on
    Σ or on U, force it (`_moc_forced`: the lemma's proof reads only
    letters of strings of L, all in U) before any context is built."""
    _require_budget(budget)
    if _moc_forced(g):   # the lemma decides
        return Verdict.make_holds()
    return _pair_consistency(
        build_context(g), "moc", "s",
        "no representative of t' shares the observation of s", budget)


def moc_structurally_guaranteed(alphabet: Alphabet) -> bool:
    """Σo ⊆ Σhi or Σhi ⊆ Σo each force MOC for every plant.

    Let s ∈ L and t' ∈ Q(L) with P_hi(t') = P_hi(Q(s)). If Σhi ⊆ Σo, then
    P_hi is the identity on Σhi*, so t' = Q(s) and s' = s is a mate. If
    Σo ⊆ Σhi, then P = P_hi ∘ Q, so every representative of t' shares the
    observation of s.
    """
    return (alphabet.observable <= alphabet.highlevel
            or alphabet.highlevel <= alphabet.observable)


# ---------------------------------------------------------------------------
# local observation consistency

def check_loc(g: Plant, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Local observation consistency, decided per controllable high event
    e by one breadth-first search (`first_path`) over the LOC verifier,
    determinized as it is read; `g` is a plant or its
    `build_context(plant)`.

    A node is (run(s), run(Q(s)), run(s'), run(Q(s'))), bitmask subsets of
    the plant (coordinates 0 and 2) and of the abstraction (1 and 3). The
    labels of `quad_alphabet` step it in their order, coordinate i by
    component i through `subset_steps`, an erased component leaving it as
    it is; a step that empties a plant subset is dropped. So the words read
    are `build_quad`'s sequences, each spelling a tuple (s, Q(s), s', Q(s'))
    with s, s' ∈ L and P(s) = P(s'). A node is bad for e when Q(s)e and
    Q(s')e are in Q(L) and the `_plant_pairs` closure of run(s) × run(s')
    under the low-level moves meets no pair of states that both enable e:
    no u, u' with P(u) = P(u') and sue, s'u'e ∈ L. Every bad node is a
    violation, so LOC is exact; the first word to reach one, followed by
    (ε, e, ε, e), is the witness sequence. At budget 0 a violation found is
    not examined, and the verdict is inconclusive.

    Only the controllable high-level events in U (`_labelling`) are
    searched, before any context is built: for another such e no state
    enables e, so Q(s)e ∉ Q(L) and no node is bad for e. With none in U,
    LOC holds.
    """
    _require_budget(budget)
    al = g.alphabet
    events = sorted(al.highlevel & al.controllable & _labelling(g),
                    key=al.names.index)
    if not events:
        return Verdict.make_holds()
    ctx = build_context(g)
    plant, hi = ctx.plant, ctx.abstraction
    plant_after, hi_after = subset_steps(plant), subset_steps(hi)
    labels = tuple(itertools.chain.from_iterable(_quad_labels(al).values()))
    column, _, closing, low = ctx.plant_pairs
    close = closing(low)

    def moves(node):
        s, x, sp, xp = node
        rs, rx = plant_after[s], hi_after[x]
        rsp, rxp = plant_after[sp], hi_after[xp]
        for lbl in labels:
            a, b, c, d = lbl
            ns = s if a is None else rs.get(a, 0)
            nsp = sp if c is None else rsp.get(c, 0)
            if ns and nsp:
                yield lbl, (ns, x if b is None else rx.get(b, 0),
                            nsp, xp if d is None else rxp.get(d, 0))

    start = (plant.start_mask, hi.start_mask) * 2
    for e in events:
        plant_e, hi_e = _enabling(plant, e), _enabling(hi, e)
        both = column(plant_e) * plant_e
        found = first_path([start], moves, lambda n: (
            n[1] & hi_e and n[3] & hi_e
            and not close(column(n[0]) * n[2]) & both))
        if found is None:
            continue
        if not budget:
            return Verdict.make_inconclusive(
                budget={"difference_sequences": budget},
                reason="difference enumeration budget exhausted", refuted=0)
        word = found[0] + ((None, e, None, e),)
        s, _, sp, _ = decompose_sequence(word, 4)
        return Verdict.make_violated(Witness(
            "loc", {"s": s, "s_prime": sp, "e": (e,),
                    "sequence": tuple(map(label_name, word))},
            "no observation-equivalent low-level continuations reach e"),
            examined=1)
    return Verdict.make_holds()


# ---------------------------------------------------------------------------
# modular systems

def _shared_events(components) -> frozenset:
    count: dict = {}
    for c in components:
        for n in c.alphabet.names:
            count[n] = count.get(n, 0) + 1
    return frozenset(n for n, k in count.items() if k > 1)


def check_moc_modular(components, budget: int = DEFAULT_BUDGET
                      ) -> tuple[Verdict, list[Verdict]]:
    """MOC of a synchronous composition from component-wise MOC.

    Sound direction only: if every component is MOC and all shared events
    are both high-level and observable, the composition is MOC. A component
    failure does not decide the composition, so it reports inconclusive.
    """
    components = list(components)
    if not components:
        raise PreconditionError("modular check needs at least one component")
    merged = reduce(merge_alphabets, (c.alphabet for c in components))
    shared = _shared_events(components)
    stray = shared - (merged.highlevel & merged.observable)
    if stray:
        raise PreconditionError(
            "shared events must be high-level and observable for the "
            f"modular argument: {sorted(stray)}")
    per = [check_moc(c, budget) for c in components]
    if all(v.holds for v in per):
        return Verdict.make_holds(components=len(per)), per
    reasons = ["holds" if v.holds else v.outcome for v in per]
    return Verdict.make_inconclusive(
        budget={"difference_sequences": budget},
        reason="component verdicts do not certify the composition",
        component_outcomes=reasons), per


def lemma_distribute_q(components) -> Verdict:
    """Q(∥ L_i) = ∥ Q_i(L_i) when every shared event is high-level."""
    components = [all_marked(c) for c in components]
    if not components:
        raise PreconditionError("need at least one component")
    shared = _shared_events(components)
    merged = reduce(merge_alphabets, (c.alphabet for c in components))
    if not shared <= merged.highlevel:
        raise PreconditionError(
            f"shared events must be high-level: {sorted(shared - merged.highlevel)}")
    # the components and their product are all-marked and reachable
    lhs = HierarchyContext(reduce(parallel_compose, components)).abstraction
    rhs = reduce(parallel_compose,
                 (HierarchyContext(c).abstraction for c in components))
    common = merge_alphabets(lhs.alphabet, rhs.alphabet)
    lhs, rhs = widen_alphabet(lhs, common), widen_alphabet(rhs, common)
    v1 = includes(lhs, rhs, kind="distribute")
    if not v1.holds:
        return v1
    return includes(rhs, lhs, kind="distribute")


# ---------------------------------------------------------------------------
# two-level pipelines

def _lifted_spec(g: Automaton, k: Automaton) -> tuple:
    """(ctx, K̄ ∥ Q(L), K̄ ∥ L): the context of the plant `g` and the lifts
    of the closed specification K̄, over the high-level sub-alphabet, to
    the abstraction and to the plant.

    By construction each lift is over the alphabet of its plant, Q(L) or
    L, is included in it, and is prefix-closed, as Q(L) and L are: each is
    a reachable product of automata whose states are all marked. So the
    pipelines call the checks and syntheses of `checks` without their
    validating shells, which would only prove these again."""
    ctx = build_context(g)
    kbar = prefix_close(conform_spec(k, ctx.q.target_alphabet))
    return (ctx, parallel_compose(ctx.abstraction, kbar),
            parallel_compose(ctx.plant, kbar))


def hier_verify(g: Automaton, k: Automaton,
                budget: int = DEFAULT_BUDGET) -> dict:
    """Full two-level audit: hypotheses plus high/low property agreement.

    The low-level specification is the lift K ∥ L; for each of
    controllability, observability, and normality the report records the
    high-level verdict, the low-level verdict, and whether they agree.
    MOC is decided first, and OC is taken from it where it holds, since
    MOC implies OC: a bare "holds" with no search of OC's own.
    """
    ctx, k_hi, k_lo = _lifted_spec(g, k)
    moc = check_moc(ctx, budget)
    report: dict = {
        "hypotheses": {
            "observer": check_observer(ctx),
            "lcc": check_lcc(ctx),
            "oc": Verdict.make_holds() if moc.holds else check_oc(ctx, budget),
            "moc": moc,
            "loc": check_loc(ctx, budget),
            # K̄ and Q(L) are prefix-closed, and so is their synchronous
            # product: closure(K̄ ∥ Q(L)) = K̄ ∥ Q(L), nothing to search
            "nonconflicting": Verdict.make_holds(),
        },
        "properties": {},
    }
    for name, fn in (("controllability", _controllability),
                     ("observability", _observability),
                     ("normality", _normality)):
        hi = fn(k_hi, ctx.abstraction)
        lo = fn(k_lo, ctx.plant)
        report["properties"][name] = {
            "high": hi, "low": lo, "agree": hi.outcome == lo.outcome}
    return report


def _lift_report(ctx: HierarchyContext, kind: str, low: Automaton,
                 high: Automaton, budget: int, **extra) -> dict:
    """The end of both synthesis pipelines: the lift `high` ∥ L, the
    inclusions of `low` and the lift in each other, `extra`, and MOC."""
    lifted = parallel_compose(ctx.plant, high)
    fwd = includes(low, lifted, kind=f"{kind}-low-in-lift")
    bwd = includes(lifted, low, kind=f"{kind}-lift-in-low")
    return {"low": low, "high": high, "lifted": lifted,
            "low_in_lift": fwd, "lift_in_low": bwd, **extra,
            "moc": check_moc(ctx, budget)}


def hier_synth_normal(g: Automaton, k: Automaton,
                      budget: int = DEFAULT_BUDGET) -> dict:
    """Supremal normal synthesis done low-level and via the abstraction.

    Computes LOW = supN(K ∥ L, L) and the lift supN(K, Q(L)) ∥ L and
    reports both inclusions plus the MOC verdict; under MOC (with the
    languages nonconflicting) the two coincide.
    """
    ctx, k_hi, k_lo = _lifted_spec(g, k)
    low = _sup_normal(k_lo, ctx.plant)
    high = _sup_normal(k_hi, ctx.abstraction)
    out = _lift_report(ctx, "supn", low, high, budget)
    out["equal"] = out["low_in_lift"].holds and out["lift_in_low"].holds
    return out


def hier_synth_relobs(g: Automaton, k: Automaton,
                      budget: int = DEFAULT_BUDGET) -> dict:
    """Relatively observable synthesis low-level and via the abstraction.

    The ambient language is the specification itself on both levels. Under
    MOC the low-level result is contained in the lifted high-level result;
    the reverse inclusion can genuinely fail, so both are reported.
    """
    ctx, k_hi, k_lo = _lifted_spec(g, k)
    high, rep_hi = _sup_relobs(k_hi, k_hi, ctx.abstraction)
    low, rep_lo = _sup_relobs(k_lo, k_lo, ctx.plant)
    return _lift_report(ctx, "suprelobs", low, high, budget,
                        high_report=rep_hi, low_report=rep_lo)
