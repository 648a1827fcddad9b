"""Classical supervisory-control property checks and supremal synthesis.

The checks read K̄, C̄ and G as the DFA tables {subset: {event: subset}}
of their `automata.subset_steps`, stepped on demand. In the table of a
specification closure K̄ a missing entry means "outside K̄", so no dead
state is added. Controllability is one `automata.first_path` search over
(K̄, G) state pairs. The observability-style checks share one breadth-first
search over pairs of strings with equal observations; `path_word` spells
its shortest, deterministic witnesses from its parent map. That search
resumes after an entry of K̄ is deleted, so `sup_relobs_closed` runs all
its removal rounds as one search, over a fresh table of its candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import (Automaton, PreconditionError, ProjectionSpec, all_marked,
                       difference, eliminate_silent, explore, first_path, includes,
                       intersect, inverse_project, is_prefix_closed, marked_saturate,
                       parallel_compose, path_word, prefix_close, project,
                       require_same_alphabet, subset_steps, trim)
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


def _inclusion_verdict(small: Automaton, big: Automaton, kind, detail) -> Verdict:
    """Holds when L_m(small) ⊆ L_m(big); else `includes`' shortest word."""
    v = includes(small, big, kind=kind)
    return v if v.holds else Verdict.make_violated(
        Witness(kind, {"word": v.witness.strings["word"]}, detail))


def _require_inclusion(small: Automaton, big: Automaton, what: str) -> None:
    v = includes(small, big)
    if not v.holds:
        word = v.witness.strings["word"]
        raise PreconditionError(f"{what} (counterexample: {' '.join(word) or 'ε'})")


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
    """K̄ = P⁻¹[P(K̄)] ∩ L(G)."""
    require_same_alphabet(k, g)
    _require_inclusion(k, g, "specification K must satisfy K ⊆ L_m(G)")
    p = ProjectionSpec(g.alphabet, g.alphabet.observable)
    kbar = prefix_close(trim(k))
    rhs = intersect(inverse_project(project(kbar, p), p), all_marked(g))
    return _inclusion_verdict(rhs, kbar, "normality",
                              "word ∈ P⁻¹P(K̄) ∩ L(G) but word ∉ K̄")


def check_nonconflicting(a: Automaton, b: Automaton) -> Verdict:
    """Synchronous nonconflictingness: closure(L1 ∥ L2) = closure(L1) ∥ closure(L2)."""
    lhs = prefix_close(parallel_compose(a, b))
    rhs = parallel_compose(prefix_close(trim(a)), prefix_close(trim(b)))
    return _inclusion_verdict(
        rhs, lhs, "nonconflicting",
        "word ∈ closure(L1) ∥ closure(L2) but not in closure(L1 ∥ L2)")


# ---------------------------------------------------------------------------
# supremal sublanguage synthesis (prefix-closed inputs)

def sup_normal_closed(b: Automaton, m: Automaton) -> Automaton:
    """Supremal normal sublanguage of prefix-closed B ⊆ M: B − P⁻¹P(M−B)Σ*."""
    require_same_alphabet(b, m)
    if not is_prefix_closed(b) or not is_prefix_closed(m):
        raise PreconditionError("sup_normal_closed needs prefix-closed inputs")
    _require_inclusion(b, m, "sup_normal_closed needs B ⊆ M")
    p = ProjectionSpec(b.alphabet, b.alphabet.observable)
    bad = marked_saturate(inverse_project(project(difference(m, b), p), p))
    return trim(prefix_close(difference(b, bad)))


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
    all marked. Each round runs the C-observability search on a fresh
    table of R and deletes the transition (q, e) of the violation it
    finds, q being the state that s reaches in R. The search resumes
    after each deletion (`_PairSearch.delete`), so it deletes exactly
    what a fresh check of the trimmed candidate would. R is trimmed once,
    at the end.

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
    obs = project(all_marked(g), ProjectionSpec(g.alphabet, observable))
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
    result = trim(Automaton(refined.alphabet, refined.states,
                            refined.transitions - removed,
                            refined.initial, refined.marked))
    return result, SynthReport(converged, rounds, len(removed))
