"""Classical supervisory-control property checks and supremal synthesis.

The checks read K̄, C̄ and G as the DFA tables {subset: {event: subset}}
of their `automata.subset_steps`, stepped on demand. In the table of a
specification closure K̄ a missing entry means "outside K̄", so no dead
state is added. Controllability is one `automata.first_path` search over
(K̄, G) state pairs, and normality one over (K̄, G, P(K̄)) subset triples.
The observability-style checks share one breadth-first search over pairs
of strings with equal observations; `path_word` spells its shortest,
deterministic witnesses from its parent map. That search resumes after an
entry of K̄ is deleted, so `sup_relobs_closed` runs all its removal rounds
as one search, over a fresh table of its candidate. `sup_normal_closed`
is one `explore` over pairs of a B state and a subset of P(M−B). Every
projection, P(K̄), P(M−B) and `sup_relobs_closed`'s observer P(L(G)), is
read on demand (`_observed`), each unobservable closure taken once, so no
projected, inverse-projected or saturated automaton is built.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import (Automaton, Implicit, PreconditionError,
                       _difference_product, _Memo, _trusted, bits, closure,
                       eliminate_silent, explore, first_path, includes,
                       is_prefix_closed, parallel_compose, path_word,
                       prefix_close, require_same_alphabet, subset_steps,
                       trim)
from .verdicts import Verdict, Witness


def _dfa_table(d: Automaton) -> tuple[dict, object]:
    """{state: {event: target}} of a DFA, and its initial state or None."""
    table: dict = {q: {} for q in d.states}
    for (src, e, dst) in d.transitions:
        table[src][e] = dst
    return table, next(iter(d.initial), None)


def _subset_table(a: Automaton) -> tuple[dict, object]:
    """`a`'s DFA table stepped on demand (`subset_steps`), and its start or None."""
    a = eliminate_silent(a)
    return subset_steps(a), a.start_mask or None


def _require_inclusion(small: Automaton, big: Automaton, what: str) -> None:
    v = includes(small, big)
    if not v.holds:
        word = v.witness.strings["word"]
        raise PreconditionError(f"{what} (counterexample: {' '.join(word) or 'ε'})")


def _index_moves(a: Automaton):
    """`moves(i)` over the state indices of the silent-free `a`, read from
    its `rows`: the (event, target index) steps of state i."""
    rows = a.rows
    return lambda i: ((e, t) for e, m in rows[i].items() for t in bits(m))


def _observed(alphabet, starts, moves, marked) -> Implicit:
    """The projection onto the observable events of the automaton that
    `explore`'s (starts, moves, marked) give, read on demand: a node steps
    on an observable event to the targets of its unobservable closure,
    each closure taken once, and is marked where that closure holds a
    marked node. These are the steps and marks of `project`'s silent-free
    automaton, so a subset of its nodes is a subset of `project`'s."""
    observable = alphabet.observable
    steps = _Memo(lambda node: tuple(moves(node)))
    reach = _Memo(lambda node: closure(
        (node,), lambda q: (t for e, t in steps[q] if e not in observable)))
    return Implicit(alphabet, starts,
                    lambda node: ((e, t) for q in reach[node]
                                  for e, t in steps[q] if e in observable),
                    lambda node: any(map(marked, reach[node])))


def check_controllability(k: Automaton, g: Automaton) -> Verdict:
    """K̄ Σu ∩ L(G) ⊆ K̄."""
    require_same_alphabet(k, g)
    _require_inclusion(k, g, "specification K must satisfy K ⊆ L_m(G)")
    kt, k0 = _subset_table(prefix_close(trim(k)))
    gt, g0 = _subset_table(g)
    unc = sorted(g.alphabet.uncontrollable, key=g.alphabet.names.index)
    names = g.alphabet.names

    def moves(node):   # se ∈ K̄ ⊆ L(G)
        kk, gg = kt[node[0]], gt[node[1]]
        return ((e, (kk[e], gg[e])) for e in names if e in kk)

    def escape(node):   # the first uncontrollable e with se ∈ L(G) − K̄
        kk, gg = kt[node[0]], gt[node[1]]
        return next((e for e in unc if e in gg and e not in kk), None)

    found = first_path([] if k0 is None else [(k0, g0)], moves, escape)
    if found is None:
        return Verdict.make_holds()
    word, e = found
    return Verdict.make_violated(Witness(
        "controllability", {"s": word, "e": (e,), "se": word + (e,)},
        "s ∈ K̄, e uncontrollable, se ∈ L(G) but se ∉ K̄"))


class _PairSearch:
    """Breadth-first search for (s, s') with P(s) = P(s'), s ∈ K̄, s' ∈ C̄
    and an event e in `events` with se ∈ K̄, s'e ∈ L(G) and s'e ∉ K̄.

    A node is (k, g, k', c', g'): the K̄ and G states after s and the K̄,
    C̄ and G states after s', with k' None once s' has left K̄. It needs
    K̄ ⊆ C̄ ⊆ L(G). No node with s ∉ K̄ or s' ∉ C̄ is generated: K̄ and C̄
    are prefix-closed, so no extension of such a pair violates. `order`
    lists the nodes in discovery order; the first len(front) of them have
    been dequeued and the rest are the queue.

    `delete(q, e)` drops an entry of the K̄ table. That changes the
    violation test and the moves of exactly the nodes that hold q, so a
    fresh search over the smaller table would repeat this one up to the
    first dequeued node holding q. `delete` cuts the queue and the parent
    map back to what was discovered when that node was dequeued, and
    `next_violation` goes on from there.
    """

    def __init__(self, kt: dict, k0, ct: dict, c0, gt: dict, g0,
                 alphabet, events):
        self.kt, self.ct, self.gt = kt, ct, gt
        self.events = sorted(set(events), key=alphabet.names.index)
        self.steps = [(e, e in alphabet.observable, ("b", e), ("l", e), ("r", e))
                      for e in alphabet.names]
        self.parent: dict = {} if k0 is None else {(k0, g0, k0, c0, g0): None}
        self.order = list(self.parent)
        self.front: list = []   # front[i]: len(order) when order[i] was dequeued

    def next_violation(self):
        """The next violating (node, e) in dequeue order, or None."""
        kt, ct, gt, parent, order = self.kt, self.ct, self.gt, self.parent, self.order
        events, steps, front, outside = self.events, self.steps, self.front, {}
        while len(front) < len(order):
            node = order[len(front)]
            front.append(len(order))
            k1, g1, k2, c2, g2 = node
            kk1, gg2 = kt[k1], gt[g2]
            kk2 = outside if k2 is None else kt[k2]
            for e in events:
                if e in kk1 and e in gg2 and e not in kk2:
                    return node, e
            gg1, cc2 = gt[g1], ct[c2]
            for e, observable, both, left, right in steps:
                k1n, c2n = kk1.get(e), cc2.get(e)
                if observable:
                    if k1n is not None and c2n is not None:
                        nxt = (k1n, gg1[e], kk2.get(e), c2n, gg2[e])
                        if nxt not in parent:
                            parent[nxt] = (node, both)
                            order.append(nxt)
                    continue
                if k1n is not None:
                    nxt = (k1n, gg1[e], k2, c2, g2)
                    if nxt not in parent:
                        parent[nxt] = (node, left)
                        order.append(nxt)
                if c2n is not None:
                    nxt = (k1, g1, kk2.get(e), c2n, gg2[e])
                    if nxt not in parent:
                        parent[nxt] = (node, right)
                        order.append(nxt)
        return None

    def delete(self, q, e) -> None:
        """Drop the K̄ entry (q, e) and cut the search back to the first
        dequeued node that holds q."""
        del self.kt[q][e]
        j = next(i for i, node in enumerate(self.order)
                 if node[0] == q or node[2] == q)
        n = self.front[j]
        for _ in range(len(self.order) - n):
            self.parent.popitem()
        del self.order[n:], self.front[j:]


def _observability_engine(k: Automaton, c: Automaton, g: Automaton,
                          events, kind: str) -> Verdict:
    """One pair search over K̄, C̄ and G; the callers checked the alphabets."""
    kt, k0 = _subset_table(prefix_close(trim(k)))
    ct, c0 = (kt, k0) if c is k else _subset_table(prefix_close(trim(c)))
    search = _PairSearch(kt, k0, ct, c0, *_subset_table(g), g.alphabet, events)
    found = search.next_violation()
    if found is None:
        return Verdict.make_holds()
    node, e = found
    steps = path_word(search.parent, node)   # ("b" | "l" | "r", event)
    s = tuple(x for side, x in steps if side != "r")
    sp = tuple(x for side, x in steps if side != "l")
    return Verdict.make_violated(Witness(
        kind, {"s": s, "s_prime": sp, "e": (e,),
         "se": s + (e,), "s_prime_e": sp + (e,)},
        "P(s)=P(s'), se ∈ K̄, s' ∈ C̄, s'e ∈ L(G), s'e ∉ K̄"))


def check_observability(k: Automaton, g: Automaton) -> Verdict:
    """Observability of K wrt L(G), Σo, and Σc."""
    _require_inclusion(k, g, "specification K must satisfy K ⊆ L_m(G)")
    return _observability_engine(k, k, g, g.alphabet.controllable, "observability")


def check_relative_observability(k: Automaton, c: Automaton, g: Automaton) -> Verdict:
    """C-observability of K wrt G and P; e ranges over the whole alphabet."""
    _require_inclusion(k, c, "relative observability needs K ⊆ C")
    _require_inclusion(c, g, "relative observability needs C ⊆ L_m(G)")
    return _observability_engine(k, c, g, g.alphabet.names, "relative-observability")


def check_normality(k: Automaton, g: Automaton) -> Verdict:
    """K̄ = P⁻¹[P(K̄)] ∩ L(G).

    One `first_path` over triples of K̄, G and O subsets, O a subset of
    P(K̄) read on demand (`_observed`): K̄ and G step on every event, O on
    observable ones only, and a step that empties G or O leaves
    P⁻¹P(K̄) ∩ L(G). A triple is bad where O is marked, G's subset is
    non-empty and K̄'s is unmarked. Each component is deterministic and
    stepped in alphabet order, so the witness is the
    length-lexicographically first word of (P⁻¹P(K̄) ∩ L(G)) − K̄."""
    require_same_alphabet(k, g)
    _require_inclusion(k, g, "specification K must satisfy K ⊆ L_m(G)")
    kbar, g = prefix_close(trim(k)), eliminate_silent(g)
    observable, names = g.alphabet.observable, g.alphabet.names
    obs = _observed(g.alphabet, bits(kbar.start_mask), _index_moves(kbar),
                    lambda i: kbar.marked_mask >> i & 1)
    ks, gs, obs_steps = map(subset_steps, (kbar, g, obs))

    def moves(node):
        krow, grow, orow = ks[node[0]], gs[node[1]], obs_steps[node[2]]
        for e in names:
            gn = grow.get(e)
            on = orow.get(e) if e in observable else node[2]
            if gn and on:
                yield e, (krow.get(e, 0), gn, on)

    def bad(node) -> bool:
        return (bool(node[1]) and obs.meets_marked(node[2])
                and not kbar.meets_marked(node[0]))

    start = (kbar.start_mask, g.start_mask, obs.start_mask)
    found = first_path([start], moves, bad)
    if found is None:
        return Verdict.make_holds()
    return Verdict.make_violated(Witness(
        "normality", {"word": found[0]},
        "word ∈ P⁻¹P(K̄) ∩ L(G) but word ∉ K̄"))


def check_nonconflicting(a: Automaton, b: Automaton) -> Verdict:
    """Synchronous nonconflictingness: closure(L1 ∥ L2) = closure(L1) ∥ closure(L2)."""
    lhs = prefix_close(parallel_compose(a, b))
    rhs = parallel_compose(prefix_close(trim(a)), prefix_close(trim(b)))
    v = includes(rhs, lhs, kind="nonconflicting")
    return v if v.holds else Verdict.make_violated(Witness(
        "nonconflicting", {"word": v.witness.strings["word"]},
        "word ∈ closure(L1) ∥ closure(L2) but not in closure(L1 ∥ L2)"))


# ---------------------------------------------------------------------------
# supremal sublanguage synthesis (prefix-closed inputs)

def sup_normal_closed(b: Automaton, m: Automaton) -> Automaton:
    """Supremal normal sublanguage of prefix-closed B ⊆ M: B − P⁻¹P(M−B)Σ*
    (Brandt, Garg, Kumar, Lin, Marcus & Wonham, 1990).

    One `explore` over (B state, O), where s reaches both. O is a bitmask
    subset of P(M−B), the M−B product `_difference_product(m, b)` read on
    demand through `_observed`: the product nodes that the words t with
    P(t) = P(s) reach by an observable last event, or the start nodes. O
    is bad when one of its nodes' unobservable closures holds a bad node,
    that is s ∈ P⁻¹P(M−B). An observable event steps O, an unobservable
    one leaves it as it is, and every event takes a bad O to the sink
    None, which stands for Σ*. A key is marked where the B state is and O
    is neither bad nor the sink.

    The keys correspond one to one, in the same discovery order, to those
    of difference(B, marked_saturate(P⁻¹(P(difference(M, B))))): O to the
    saturated DFA's subset of the inverse projection, None to its sink,
    and the empty O to the empty subset. So the result after
    `prefix_close` and `trim` is the same automaton."""
    require_same_alphabet(b, m)
    if not is_prefix_closed(b) or not is_prefix_closed(m):
        raise PreconditionError("sup_normal_closed needs prefix-closed inputs")
    _require_inclusion(b, m, "sup_normal_closed needs B ⊆ M")
    b = eliminate_silent(b)
    names, observable = b.alphabet.names, b.alphabet.observable
    diff = _observed(b.alphabet, *_difference_product(m, b))
    diff_steps = subset_steps(diff)
    saturated = _Memo(lambda o: o is None or diff.meets_marked(o))

    def row(o) -> dict:   # event -> the next O
        if saturated[o]:
            return dict.fromkeys(names)
        step = diff_steps[o]
        return {e: step.get(e, 0) if e in observable else o for e in names}

    rows, succ = _Memo(row), b.succ

    def moves(node):
        q, o = node
        targets = succ[q]
        if targets:
            nxt = rows[o]
            for e in names:
                for qn in targets.get(e, ()):
                    yield e, (qn, nxt[e])

    return trim(prefix_close(explore(
        b.alphabet, [(q, diff.start_mask) for q in b.sorted_states(b.initial)],
        moves, lambda node: node[0] in b.marked and not saturated[node[1]])))


@dataclass(frozen=True)
class SynthReport:
    converged: bool
    rounds: int
    removed_transitions: int

    def to_json(self) -> dict:
        return {"converged": self.converged, "rounds": self.rounds,
                "removed_transitions": self.removed_transitions}


def sup_relobs_closed(k: Automaton, c: Automaton, g: Automaton,
                      max_iters: int = 1000) -> tuple[Automaton, SynthReport]:
    """Greedy relatively observable sublanguage of prefix-closed K ⊆ C.

    The candidate is the refined product R = K̄ × G × observer, in which
    the observer's state after s depends only on P(s): one `explore` over
    triples of K̄, G and P(L(G)) subsets stepped by their `subset_steps`
    (the observer's on observable events only), numbered as the nested
    `parallel_compose` of their DFAs would be and, K̄ being prefix-closed,
    all marked. The observer P(L(G)) is read on demand (`_observed`), so
    no projection of G is built. Each round runs the C-observability
    search on a fresh table of R and deletes the transition (q, e) of the
    violation it finds, q being the state that s reaches in R. The search
    resumes after each deletion (`_PairSearch.delete`), so it deletes
    exactly what a fresh check of the trimmed candidate would. R is
    trimmed once, at the end; R less the deleted transitions is valid by
    construction (`automata._trusted`).

    The result is that greedy fixpoint: C-observable on convergence, not
    proven supremal; `oracle_sup_relobs` audits it on acyclic instances.
    A violation found in round `max_iters` is still deleted, so a capped
    run reports rounds=max_iters and removed_transitions=max_iters + 1.
    """
    require_same_alphabet(k, g)
    require_same_alphabet(c, g)
    if not is_prefix_closed(k) or not is_prefix_closed(c):
        raise PreconditionError("sup_relobs_closed needs prefix-closed K and C")
    _require_inclusion(k, c, "sup_relobs_closed needs K ⊆ C")
    _require_inclusion(c, g, "sup_relobs_closed needs C ⊆ L(G)")

    kbar, g, observable = prefix_close(trim(k)), eliminate_silent(g), g.alphabet.observable
    obs = _observed(g.alphabet, bits(g.start_mask), _index_moves(g),
                    lambda i: True)
    ks, gs, obs_steps = map(subset_steps, (kbar, g, obs))

    def moves(key):
        krow, grow, orow = ks[key[0]], gs[key[1]], obs_steps[key[2]]
        for e in g.alphabet.names:
            nxt = (krow.get(e), grow.get(e), orow.get(e) if e in observable else key[2])
            if all(nxt):
                yield e, nxt

    start = (kbar.start_mask, g.start_mask, obs.start_mask)
    refined = explore(g.alphabet, [start] if all(start) else [], moves, bool)
    kt, k0 = _dfa_table(refined)
    search = _PairSearch(kt, k0, *_subset_table(prefix_close(trim(c))),
                         *_subset_table(g), g.alphabet, g.alphabet.names)
    removed = set()
    converged, rounds = False, max_iters
    for i in range(max_iters + 1):
        found = search.next_violation()
        if found is None:
            converged, rounds = True, i
            break
        (q, *_), e = found
        removed.add((q, e, kt[q][e]))
        search.delete(q, e)
    result = trim(_trusted(refined.alphabet, refined.states,
                           refined.transitions - removed,
                           refined.initial, refined.marked))
    return result, SynthReport(converged, rounds, len(removed))
