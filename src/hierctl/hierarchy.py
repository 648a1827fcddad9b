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

Each checker reduces its property to a regular-language inclusion between
automata over pair (or quadruple) events and decides it by one lazy
difference search (``iter_difference_words``): an on-the-fly product of the
left side with the subset construction of the right one, expanded only as
far as the sequences examined need. LOC's two sides are implicit products
too, never built as automata. A search that yields no sequence is the
inclusion holding: ``holds``. The inclusion is sequence-level, so a
difference sequence may only reflect a missing interleaving: each one, in
length-lexicographic order, is decomposed into a string tuple, and the tuple
is confirmed or refuted exactly against the plant's states: OC and LOC by a
depth-first existence search per tuple, MOC by one table of plant state
sets per check, keyed by prefix pairs, that all its tuples share. A
confirmed tuple yields ``violated``; exhausting the difference language
yields ``holds`` (every genuine violating tuple leaves at least one
difference sequence, because the synchronized products accept all
interleavings); running out of budget, counted in sequences examined,
yields ``inconclusive``.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import cached_property, partial

from .automata import (Alphabet, Automaton, Implicit, PreconditionError,
                       ProjectionSpec, all_marked, determinize, includes,
                       iter_difference_words, merge_alphabets,
                       parallel_compose, path_word,
                       prefix_close, project, trim, widen_alphabet,
                       with_initial)
from .checks import (check_controllability, check_nonconflicting,
                     check_normality, check_observability, sup_normal_closed,
                     sup_relobs_closed)
from .relations import (decompose_sequence, label_name, quad_alphabet,
                        quad_moves, relabel_pair, sync_pair_compose)
from .verdicts import Verdict, Witness

DEFAULT_BUDGET = 10000


@dataclass(frozen=True)
class HierarchyContext:
    """A plant plus the derived projections and abstraction.

    `plant` recognizes the generated language L (every state marked);
    `abstraction` recognizes Q(L) over the high-level sub-alphabet.
    `shared` = Σhi ∩ Σo is what both P_hi ∘ Q and Q_o ∘ P keep, so that
    square commutes by construction.
    """

    plant: Automaton

    @cached_property
    def alphabet(self) -> Alphabet:
        return self.plant.alphabet

    @cached_property
    def p(self) -> ProjectionSpec:
        return ProjectionSpec(self.alphabet, self.alphabet.observable)

    @cached_property
    def q(self) -> ProjectionSpec:
        return ProjectionSpec(self.alphabet, self.alphabet.highlevel)

    @cached_property
    def shared(self) -> frozenset:
        return self.alphabet.highlevel & self.alphabet.observable

    @cached_property
    def abstraction(self) -> Automaton:
        return project(self.plant, self.q)


def build_context(g: Automaton) -> HierarchyContext:
    return HierarchyContext(all_marked(g))


def conform_spec(k: Automaton, reference: Alphabet) -> Automaton:
    """Reinterpret a specification over (a restriction of) `reference`."""
    for e in k.alphabet.events:
        if e.name not in reference or reference.by_name[e.name].flags != e.flags:
            raise PreconditionError(
                f"specification event {e.name!r} missing from the plant "
                "alphabet or flagged differently")
    return widen_alphabet(k, reference)


# ---------------------------------------------------------------------------
# observer property and local control consistency

def _abstraction_pairs(ctx: HierarchyContext):
    """Reachable (plant-subset, abstraction-subset) pairs with access strings.

    Yields (s, S, X) where S is the determinized-plant state after s and X
    the determinized-abstraction state after Q(s); iteration is breadth
    first, so the first witness found is shortest.
    """
    gd = determinize(ctx.plant)
    hd = determinize(ctx.abstraction)
    if not gd.states:
        return gd, hd, []
    hi = ctx.alphabet.highlevel
    start = (next(iter(gd.initial)), next(iter(hd.initial)))
    parent: dict = {start: None}
    queue = deque([start])
    out = []
    while queue:
        cur = queue.popleft()
        s, x = cur
        out.append((path_word(parent, cur), s, x))
        for e in ctx.alphabet.names:
            sn = gd.succ[s].get(e)
            if not sn:
                continue
            xn = hd.succ[x].get(e) if e in hi else (x,)
            if not xn:
                continue
            nxt = (sn[0], xn[0])
            if nxt not in parent:
                parent[nxt] = (cur, e)
                queue.append(nxt)
    return gd, hd, out


def check_observer(g: Automaton) -> Verdict:
    """Is the abstraction projection Q an observer for the plant language?

    For every plant string s and high-level continuation t with
    Q(s)t ∈ Q(L) there must be a low-level continuation u with su ∈ L and
    Q(su) = Q(s)t. Decided exactly per reachable state pair of the
    determinized plant and abstraction.
    """
    ctx = build_context(g)
    gd, hd, pairs = _abstraction_pairs(ctx)
    proj = project(gd, ctx.q)   # silent elimination does not read `initial`
    for s, gs, xs in pairs:
        cont_hi = with_initial(hd, {xs})
        cont_lo = with_initial(proj, {gs})
        v = includes(cont_hi, cont_lo, kind="observer")
        if not v.holds:
            t_rest = v.witness.strings["word"]
            return Verdict.make_violated(Witness(
                "observer", {"s": s, "t": ctx.q.apply(s) + t_rest},
                "t ∈ Q(L) but no low-level continuation of s projects onto it"))
    return Verdict.make_holds()


def _low_reach(gd: Automaton, start: int, events: frozenset) -> set:
    seen = {start}
    stack = [start]
    while stack:
        q = stack.pop()
        for e, targets in gd.succ[q].items():
            if e in events and targets[0] not in seen:
                seen.add(targets[0])
                stack.append(targets[0])
    return seen


def check_lcc(g: Automaton) -> Verdict:
    """Local control consistency of the abstraction projection.

    For every plant string s and uncontrollable high-level event e with
    Q(s)e ∈ Q(L): if some low-level path from s reaches e, then some purely
    uncontrollable low-level path does too.
    """
    ctx = build_context(g)
    gd, hd, pairs = _abstraction_pairs(ctx)
    low = frozenset(ctx.alphabet.lowlevel)
    low_unc = low & ctx.alphabet.uncontrollable
    targets = sorted(ctx.alphabet.highlevel & ctx.alphabet.uncontrollable,
                     key=ctx.alphabet.names.index)
    for s, gs, xs in pairs:
        reach_all = _low_reach(gd, gs, low)
        reach_unc = _low_reach(gd, gs, low_unc)
        for e in targets:
            if e not in hd.succ[xs]:
                continue
            via_any = any(e in gd.succ[q] for q in reach_all)
            via_unc = any(e in gd.succ[q] for q in reach_unc)
            if via_any and not via_unc:
                return Verdict.make_violated(Witness(
                    "lcc", {"s": s, "e": (e,)},
                    "e is reachable from s by low-level events but not by "
                    "uncontrollable ones"))
    return Verdict.make_holds()


# ---------------------------------------------------------------------------
# the three consistency checkers

def _common_pair(a: Automaton, b: Automaton) -> tuple[Automaton, Automaton]:
    common = merge_alphabets(a.alphabet, b.alphabet)
    return widen_alphabet(a, common), widen_alphabet(b, common)


def _require_budget(budget: int) -> None:
    if budget < 0:
        raise PreconditionError("budget must be >= 0")


def _refutation_loop(words, budget: int, decompose, confirm) -> Verdict:
    """Decide a consistency check from its difference sequences.

    `words` yields the difference sequences in length-lexicographic order,
    `decompose` maps a difference sequence to a hashable string tuple,
    `confirm` returns a Witness for a genuine violation or None for a
    spurious (interleaving-only) difference. No sequence at all is the
    inclusion holding, a bare "holds".
    """
    seen: set = set()
    spurious = 0
    examined = 0
    for word in words:
        examined += 1
        if examined > budget:
            return Verdict.make_inconclusive(
                budget={"difference_sequences": budget},
                reason="difference enumeration budget exhausted",
                refuted=spurious)
        tup = decompose(word)
        if tup in seen:
            continue
        seen.add(tup)
        witness = confirm(tup, word)
        if witness is not None:
            return Verdict.make_violated(witness, examined=examined)
        spurious += 1
    if not examined:
        return Verdict.make_holds()
    return Verdict.make_holds(
        refuted=spurious,
        reason="difference language exhausted; every sequence was a "
               "spurious interleaving")


# Confirmation searches. Each decides one existence question about fixed
# strings over the plant (every state marked), so a refuted difference
# sequence costs no automaton construction. OC and LOC run a depth-first
# search per question; MOC's questions share one table per check, since
# its length-lexicographic candidates share most of their prefixes.

def _reaches(starts, step, goal) -> bool:
    """Is a node satisfying `goal` reachable from `starts` along `step`?"""
    seen = set(starts)
    stack = list(seen)
    while stack:
        node = stack.pop()
        if goal(node):
            return True
        for nxt in step(node):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


def _moves(ctx: HierarchyContext, q: str, word: tuple, i: int):
    """Plant steps (event, target, index) from q that keep following `word`.

    A high-level event must be word[i] and advances the index; a low-level
    event leaves it alone.
    """
    hi = ctx.alphabet.highlevel
    for e, targets in ctx.plant.succ[q].items():
        if e not in hi:
            j = i
        elif i < len(word) and word[i] == e:
            j = i + 1
        else:
            continue
        for r in targets:
            yield e, r, j


def _pair_reaches(ctx: HierarchyContext, starts, t: tuple, tp: tuple,
                  goal) -> bool:
    """Search over two plant paths with equal observations.

    A node (p, i, q, j) has the left path at p after spelling t[:i] at the
    high level and the right path at q after spelling tp[:j]. Observable
    events move both paths together, unobservable ones move one path.
    """
    obs = ctx.alphabet.observable

    def step(node):
        p, i, q, j = node
        right = list(_moves(ctx, q, tp, j))
        for e, pn, ni in _moves(ctx, p, t, i):
            if e not in obs:
                yield pn, ni, q, j
                continue
            for f, qn, nj in right:
                if f == e:
                    yield pn, ni, qn, nj
        for f, qn, nj in right:
            if f not in obs:
                yield p, i, qn, nj

    return _reaches(starts, step, goal)


def _oc_pair_exists(ctx: HierarchyContext, t: tuple, tp: tuple) -> bool:
    """∃ s, s' ∈ L with Q(s) = t, Q(s') = tp and P(s) = P(s')."""
    init = ctx.plant.initial
    return _pair_reaches(ctx, {(p, 0, q, 0) for p in init for q in init},
                         t, tp, lambda n: n[1] == len(t) and n[3] == len(tp))


def _moc_mate_table(ctx: HierarchyContext):
    """`exists(o, t)`: ∃ s' ∈ L with P(s') = o and Q(s') = t.

    The answers share one table of cells. Cell (o, t) holds the plant
    states reached by some s' with P(s') = o and Q(s') = t, closed under
    the silent events (outside Σo ∪ Σhi). It is the closure of three
    steps: an event of Σo ∩ Σhi from cell (o[:-1], t[:-1]) when o and t
    end in it, one of Σo ∖ Σhi from (o[:-1], t) and one of Σhi ∖ Σo from
    (o, t[:-1]). A query fills only the cells it needs, from an explicit
    stack, and stops at filled ones; the length-lexicographic candidates
    of one check share most of their prefixes, so most cells are filled
    by earlier queries.
    """
    plant = ctx.plant
    obs, hi = ctx.alphabet.observable, ctx.alphabet.highlevel
    silent = {q: tuple({r for e, ts in plant.succ[q].items()
                        if e not in obs and e not in hi for r in ts})
              for q in plant.states}

    def close(states) -> frozenset:
        seen = set(states)
        stack = list(seen)
        while stack:
            for r in silent[stack.pop()]:
                if r not in seen:
                    seen.add(r)
                    stack.append(r)
        return frozenset(seen)

    cells = {((), ()): close(plant.initial)}

    def exists(o: tuple, t: tuple) -> bool:
        query = (o, t)
        # a frame (key, None) lists the key's steps; (key, steps) fills the
        # key once the predecessors it lacked are filled
        stack = [(query, None)]
        while stack:
            key, steps = stack.pop()
            if steps is None:
                if key in cells:   # filled, maybe after it was pushed
                    continue
                o, t = key
                steps = []   # (predecessor cell, event)
                if o:
                    e = o[-1]
                    if e not in hi:
                        steps.append(((o[:-1], t), e))
                    elif t and t[-1] == e:
                        steps.append(((o[:-1], t[:-1]), e))
                if t and t[-1] not in obs:
                    steps.append(((o, t[:-1]), t[-1]))
                missing = [(k, None) for k, _ in steps if k not in cells]
                if missing:
                    stack.append((key, steps))
                    stack += missing
                    continue
            reached = set()
            for k, e in steps:
                reached |= plant.step(cells[k], e)
            cells[key] = close(reached)
        return bool(cells[query])

    return exists


def _continuations_meet(ctx: HierarchyContext, left, right, e: str) -> bool:
    """∃ low-level u, u' with P(u) = P(u') leading from a state in `left`
    and one in `right` to states that enable e: with the states after s
    and s', ∃ u, u' with sue, s'u'e ∈ L."""
    plant = ctx.plant
    return _pair_reaches(ctx, {(p, 0, q, 0) for p in left for q in right},
                         (), (), lambda n: e in plant.succ[n[0]]
                         and e in plant.succ[n[2]])


def _pair_consistency(ctx: HierarchyContext, kind: str, left: Automaton,
                      left_keep: frozenset, key: str, exists, note: str,
                      budget: int) -> Verdict:
    """Shared body of OC and MOC: is L_m(left) included in the
    P-synchronized self-product of the plant, with left components outside
    `left_keep` and right components outside Σhi erased?

    Each difference pair (x, t') is decided exactly by `exists(x, t')`; a
    false answer gives a `kind` witness that names x by `key`.
    """
    right = relabel_pair(
        sync_pair_compose(ctx.plant, ctx.plant, ctx.alphabet.observable),
        left_keep, ctx.alphabet.highlevel)
    la, ra = _common_pair(left, right)

    def confirm(tup, word):
        x, tp = tup
        if exists(x, tp):
            return None
        return Witness(kind, {key: x, "t_prime": tp,
                              "sequence": tuple(map(label_name, word))}, note)

    return _refutation_loop(iter_difference_words(la, ra), budget,
                            decompose_sequence, confirm)


def check_oc(g: Automaton, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Observation consistency of the plant abstraction."""
    _require_budget(budget)
    ctx = build_context(g)
    return _pair_consistency(
        ctx, "oc", sync_pair_compose(ctx.abstraction, ctx.abstraction,
                                     ctx.shared),
        ctx.alphabet.highlevel, "t",
        lambda t, tp: _oc_pair_exists(ctx, t, tp),
        "no representatives of t and t' share an observation", budget)


def check_moc(g: Automaton, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Modified observation consistency of the plant abstraction."""
    _require_budget(budget)
    ctx = build_context(g)
    mate_exists = _moc_mate_table(ctx)
    return _pair_consistency(
        ctx, "moc", sync_pair_compose(ctx.plant, ctx.abstraction, ctx.shared),
        frozenset(ctx.alphabet.names), "s",
        lambda s, tp: mate_exists(ctx.p.apply(s), tp),
        "no representative of t' shares the observation of s", budget)


def moc_structurally_guaranteed(alphabet: Alphabet) -> bool:
    """Σo ⊆ Σhi or Σhi ⊆ Σo each force MOC for every plant."""
    return (alphabet.observable <= alphabet.highlevel
            or alphabet.highlevel <= alphabet.observable)


def lemma_moc_implies_oc(g: Automaton, budget: int = DEFAULT_BUDGET) -> dict:
    """Both consistency verdicts; MOC holding entails OC holding."""
    return {"moc": check_moc(g, budget), "oc": check_oc(g, budget)}


# ---------------------------------------------------------------------------
# local observation consistency

def _track(d: Automaton, x: int, letter) -> int | None:
    """The DFA `d` after `letter` from x: x on an erased (None) letter, None
    when `d` cannot move."""
    if letter is None:
        return x
    nxt = d.succ[x].get(letter)
    return nxt[0] if nxt else None


def _loc_shared(ctx: HierarchyContext) -> tuple:
    """What every event's LOC operands share: a memo of the verifier's
    moves (every plant state is marked, so every quadruple is) and the
    abstraction DFA."""
    return (Implicit(quad_alphabet(ctx.alphabet),
                     itertools.product(ctx.plant.initial, repeat=4),
                     quad_moves(ctx.plant), lambda st: True),
            determinize(ctx.abstraction))


def _loc_operands(ctx: HierarchyContext, shared: tuple, e: str) -> tuple:
    """The implicit left and right sides of LOC's inclusion for event e.

    Left: the verifier's sequences with coordinates 1 and 3 in Q(L) (the
    abstraction DFA `hd` tracks them), then (ε, e, ε, e). Right: sequences
    with coordinates 0 and 2 in L (tracked as plant state sets), marked
    where both sides continue to e: the right quotient by (ue, ε, u'e, ε),
    P(u) = P(u').
    """
    quad, hd = shared
    plant = ctx.plant
    alphabet = quad_alphabet(ctx.alphabet, loc_events=(e,))

    def left_moves(key):
        if key is None:  # after the final step
            return
        st, x1, x3 = key
        for lbl, targets in quad.succ[st].items():
            y1, y3 = _track(hd, x1, lbl[1]), _track(hd, x3, lbl[3])
            if y1 is not None and y3 is not None:
                for t in targets:
                    yield lbl, (t, y1, y3)
        if e in hd.succ[x1] and e in hd.succ[x3]:
            yield (None, e, None, e), None

    def right_moves(key):
        s0, s2 = key
        for lbl in alphabet.names:
            y0 = s0 if lbl[0] is None else plant.step(s0, lbl[0])
            y2 = s2 if lbl[2] is None else plant.step(s2, lbl[2])
            if y0 and y2:
                yield lbl, (y0, y2)

    return (Implicit(alphabet, [(st, x, x) for st in quad.initial
                                for x in hd.initial],
                     left_moves, lambda key: key is None),
            Implicit(alphabet, [(plant.initial, plant.initial)], right_moves,
                     lambda key: _continuations_meet(ctx, *key, e)))


def _loc_confirm(ctx: HierarchyContext, e: str, tup, word):
    s, _, sp, _ = tup
    if _continuations_meet(ctx, ctx.plant.run(s), ctx.plant.run(sp), e):
        return None
    return Witness("loc", {"s": s, "s_prime": sp, "e": (e,),
                           "sequence": tuple(map(label_name, word))},
                   "no observation-equivalent low-level continuations reach e")


def check_loc(g: Automaton, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Local observation consistency, decided per controllable high event."""
    _require_budget(budget)
    ctx = build_context(g)
    events = sorted(ctx.alphabet.highlevel & ctx.alphabet.controllable,
                    key=ctx.alphabet.names.index)
    shared = _loc_shared(ctx)
    pending = None
    for e in events:
        v = _refutation_loop(
            iter_difference_words(*_loc_operands(ctx, shared, e)), budget,
            lambda w: decompose_sequence(w, 4), partial(_loc_confirm, ctx, e))
        if v.violated:
            return v
        if v.inconclusive and pending is None:
            pending = v
    return pending if pending is not None else Verdict.make_holds()


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
    merged = components[0].alphabet
    for c in components[1:]:
        merged = merge_alphabets(merged, c.alphabet)
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
    merged = components[0].alphabet
    for c in components[1:]:
        merged = merge_alphabets(merged, c.alphabet)
    if not shared <= merged.highlevel:
        raise PreconditionError(
            f"shared events must be high-level: {sorted(shared - merged.highlevel)}")
    composed = components[0]
    for c in components[1:]:
        composed = parallel_compose(composed, c)
    lhs = project(composed, ProjectionSpec(composed.alphabet,
                                           composed.alphabet.highlevel))
    rhs = None
    for c in components:
        qc = project(c, ProjectionSpec(c.alphabet, c.alphabet.highlevel))
        rhs = qc if rhs is None else parallel_compose(rhs, qc)
    common = merge_alphabets(lhs.alphabet, rhs.alphabet)
    lhs, rhs = widen_alphabet(lhs, common), widen_alphabet(rhs, common)
    v1 = includes(lhs, rhs, kind="distribute")
    if not v1.holds:
        return v1
    return includes(rhs, lhs, kind="distribute")


# ---------------------------------------------------------------------------
# two-level pipelines

def _closed_spec(ctx: HierarchyContext, k: Automaton) -> Automaton:
    """Prefix-closed specification over the high-level sub-alphabet."""
    k = conform_spec(k, ctx.q.target_alphabet)
    return prefix_close(trim(k))


def hier_verify(g: Automaton, k: Automaton,
                budget: int = DEFAULT_BUDGET) -> dict:
    """Full two-level audit: hypotheses plus high/low property agreement.

    The low-level specification is the lift K ∥ L; for each of
    controllability, observability, and normality the report records the
    high-level verdict, the low-level verdict, and whether they agree.
    """
    ctx = build_context(g)
    kbar = _closed_spec(ctx, k)
    k_hi = parallel_compose(ctx.abstraction, kbar)
    k_lo = parallel_compose(ctx.plant, kbar)

    report: dict = {
        "hypotheses": {
            "observer": check_observer(g),
            "lcc": check_lcc(g),
            "oc": check_oc(g, budget),
            "moc": check_moc(g, budget),
            "loc": check_loc(g, budget),
            "nonconflicting": check_nonconflicting(kbar, ctx.abstraction),
        },
        "properties": {},
    }
    for name, fn in (("controllability", check_controllability),
                     ("observability", check_observability),
                     ("normality", check_normality)):
        hi = fn(k_hi, ctx.abstraction)
        lo = fn(k_lo, ctx.plant)
        report["properties"][name] = {
            "high": hi, "low": lo, "agree": hi.outcome == lo.outcome}
    return report


def hier_synth_normal(g: Automaton, k: Automaton,
                      budget: int = DEFAULT_BUDGET) -> dict:
    """Supremal normal synthesis done low-level and via the abstraction.

    Computes LOW = supN(K ∥ L, L) and the lift supN(K, Q(L)) ∥ L and
    reports both inclusions plus the MOC verdict; under MOC (with the
    languages nonconflicting) the two coincide.
    """
    ctx = build_context(g)
    kbar = _closed_spec(ctx, k)
    low = sup_normal_closed(parallel_compose(ctx.plant, kbar), ctx.plant)
    high = sup_normal_closed(parallel_compose(ctx.abstraction, kbar),
                             ctx.abstraction)
    lifted = parallel_compose(ctx.plant, high)
    fwd = includes(low, lifted, kind="supn-low-in-lift")
    bwd = includes(lifted, low, kind="supn-lift-in-low")
    return {
        "low": low, "high": high, "lifted": lifted,
        "low_in_lift": fwd, "lift_in_low": bwd,
        "equal": fwd.holds and bwd.holds,
        "moc": check_moc(g, budget),
    }


def hier_synth_relobs(g: Automaton, k: Automaton,
                      budget: int = DEFAULT_BUDGET,
                      max_iters: int = 1000) -> dict:
    """Relatively observable synthesis low-level and via the abstraction.

    The ambient language is the specification itself on both levels. Under
    MOC the low-level result is contained in the lifted high-level result;
    the reverse inclusion can genuinely fail, so both are reported.
    """
    ctx = build_context(g)
    kbar = _closed_spec(ctx, k)
    b_hi = parallel_compose(ctx.abstraction, kbar)
    b_lo = parallel_compose(ctx.plant, kbar)
    high, rep_hi = sup_relobs_closed(b_hi, b_hi, ctx.abstraction, max_iters)
    low, rep_lo = sup_relobs_closed(b_lo, b_lo, ctx.plant, max_iters)
    lifted = parallel_compose(ctx.plant, high)
    fwd = includes(low, lifted, kind="suprelobs-low-in-lift")
    bwd = includes(lifted, low, kind="suprelobs-lift-in-low")
    return {
        "low": low, "high": high, "lifted": lifted,
        "low_in_lift": fwd, "lift_in_low": bwd,
        "high_report": rep_hi, "low_report": rep_lo,
        "moc": check_moc(g, budget),
    }
