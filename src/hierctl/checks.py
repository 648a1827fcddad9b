"""Classical supervisory-control property checks and supremal synthesis.

The observability-style checks share one engine: the specification closure
is dead-state completed so that "still inside K̄" is a state predicate, the
completed recognizer is paired with the plant, and the two copies are
synchronized on the observable events. A violation is then a reachable
product state with a suitably enabled/disabled event, found by breadth-first
search, which makes witnesses shortest and deterministic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .automata import (Automaton, PreconditionError, ProjectionSpec, all_marked,
                       complete, determinize, difference, includes, intersect,
                       inverse_project, is_prefix_closed, marked_saturate,
                       parallel_compose, path_word, prefix_close, project,
                       require_same_alphabet, trim)
from .verdicts import Verdict, Witness


def _closure_dfa(a: Automaton) -> tuple[Automaton, int]:
    """Completed DFA of the prefix closure of L_m(a); returns (dfa, dead)."""
    return complete(determinize(prefix_close(trim(a))))


def _one_step(dfa: Automaton, q: int, e: str) -> int | None:
    t = dfa.succ[q].get(e)
    return t[0] if t else None


def _require_inclusion(small: Automaton, big: Automaton, what: str) -> None:
    v = includes(small, big)
    if not v.holds:
        word = v.witness.strings["word"]
        raise PreconditionError(f"{what} (counterexample: {' '.join(word) or 'ε'})")


def check_controllability(k: Automaton, g: Automaton) -> Verdict:
    """K̄ Σu ∩ L(G) ⊆ K̄."""
    require_same_alphabet(k, g)
    _require_inclusion(k, g, "specification K must satisfy K ⊆ L_m(G)")
    kd, dead = _closure_dfa(k)
    gd = determinize(g)
    unc = sorted(g.alphabet.uncontrollable, key=g.alphabet.names.index)

    start = (next(iter(kd.initial)), next(iter(gd.initial)))
    parent: dict = {start: None}
    queue = deque([start])
    while queue:
        kq, gq = queue.popleft()
        if kq == dead:
            continue
        for e in unc:
            gn = _one_step(gd, gq, e)
            if gn is not None and _one_step(kd, kq, e) == dead:
                word = path_word(parent, (kq, gq))
                return Verdict.make_violated(Witness(
                    "controllability", {"s": word, "e": (e,), "se": word + (e,)},
                    "s ∈ K̄, e uncontrollable, se ∈ L(G) but se ∉ K̄"))
        for e in g.alphabet.names:
            gn = _one_step(gd, gq, e)
            kn = _one_step(kd, kq, e)
            if gn is None or kn == dead:
                continue
            nxt = (kn, gn)
            if nxt not in parent:
                parent[nxt] = ((kq, gq), e)
                queue.append(nxt)
    return Verdict.make_holds()


def _observability_engine(k: Automaton, c: Automaton, g: Automaton,
                          events, kind: str) -> Verdict:
    """Shared verifier for observability and relative observability.

    Searches pairs (s, s') with P(s) = P(s') for an event e in `events`
    with se ∈ K̄, s' ∈ C̄, s'e ∈ L(G), s'e ∉ K̄.
    """
    require_same_alphabet(k, g)
    require_same_alphabet(c, g)
    kd, kdead = _closure_dfa(k)
    cd, cdead = _closure_dfa(c)
    gd = determinize(g)
    alphabet = g.alphabet
    obs = alphabet.observable
    events = sorted(set(events), key=alphabet.names.index)

    k0 = next(iter(kd.initial))
    c0 = next(iter(cd.initial))
    g0 = next(iter(gd.initial))
    start = ((k0, g0), (k0, c0, g0))
    parent: dict = {start: None}
    queue = deque([start])

    def violation(left, right):
        (k1, g1), (k2, c2, g2) = left, right
        if c2 == cdead:
            return None
        for e in events:
            if _one_step(kd, k1, e) == kdead or k1 == kdead:
                continue  # se ∉ K̄
            if _one_step(gd, g2, e) is None:
                continue  # s'e ∉ L(G)
            if _one_step(kd, k2, e) == kdead:
                return e
        return None

    while queue:
        cur = queue.popleft()
        (k1, g1), (k2, c2, g2) = cur
        e = violation(*cur)
        if e is not None:
            s, sp = _rebuild_pair(parent, cur)
            return Verdict.make_violated(Witness(
                kind,
                {"s": s, "s_prime": sp, "e": (e,),
                 "se": s + (e,), "s_prime_e": sp + (e,)},
                "P(s)=P(s'), se ∈ K̄, s' ∈ C̄, s'e ∈ L(G), s'e ∉ K̄"))
        for e in alphabet.names:
            moves = []
            if e in obs:
                g1n = _one_step(gd, g1, e)
                g2n = _one_step(gd, g2, e)
                if g1n is not None and g2n is not None:
                    moves.append((("b", e),
                                  ((_one_step(kd, k1, e), g1n),
                                   (_one_step(kd, k2, e), _one_step(cd, c2, e), g2n))))
            else:
                g1n = _one_step(gd, g1, e)
                if g1n is not None:
                    moves.append((("l", e),
                                  ((_one_step(kd, k1, e), g1n), (k2, c2, g2))))
                g2n = _one_step(gd, g2, e)
                if g2n is not None:
                    moves.append((("r", e),
                                  ((k1, g1),
                                   (_one_step(kd, k2, e), _one_step(cd, c2, e), g2n))))
            for tag, nxt in moves:
                if nxt not in parent:
                    parent[nxt] = (cur, tag)
                    queue.append(nxt)
    return Verdict.make_holds()


def _rebuild_pair(parent: dict, key) -> tuple[tuple, tuple]:
    s: list = []
    sp: list = []
    while parent[key] is not None:
        key, (side, e) = parent[key]
        if side in ("b", "l"):
            s.append(e)
        if side in ("b", "r"):
            sp.append(e)
    s.reverse()
    sp.reverse()
    return tuple(s), tuple(sp)


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
    v = includes(rhs, kbar, kind="normality")
    if v.holds:
        return Verdict.make_holds()
    word = v.witness.strings["word"]
    return Verdict.make_violated(Witness(
        "normality", {"word": word},
        "word ∈ P⁻¹P(K̄) ∩ L(G) but word ∉ K̄"))


def check_nonconflicting(a: Automaton, b: Automaton) -> Verdict:
    """Synchronous nonconflictingness: closure(L1 ∥ L2) = closure(L1) ∥ closure(L2)."""
    lhs = prefix_close(parallel_compose(a, b))
    rhs = parallel_compose(prefix_close(trim(a)), prefix_close(trim(b)))
    v = includes(rhs, lhs, kind="nonconflicting")
    if v.holds:
        return Verdict.make_holds()
    word = v.witness.strings["word"]
    return Verdict.make_violated(Witness(
        "nonconflicting", {"word": word},
        "word ∈ closure(L1) ∥ closure(L2) but not in closure(L1 ∥ L2)"))


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


def _observer_refinement(g: Automaton) -> Automaton:
    """DFA over Σ whose state after s depends only on P(s) (all marked)."""
    p = ProjectionSpec(g.alphabet, g.alphabet.observable)
    obs = determinize(project(all_marked(g), p))
    lift_trans = set()
    for (src, e, dst) in obs.transitions:
        lift_trans.add((src, e, dst))
    for q in obs.states:
        for e in g.alphabet.names:
            if e not in g.alphabet.observable:
                lift_trans.add((q, e, q))
    return Automaton(g.alphabet, obs.states, frozenset(lift_trans),
                     obs.initial, frozenset(obs.states))


def sup_relobs_closed(k: Automaton, c: Automaton, g: Automaton,
                      max_iters: int = 1000) -> tuple[Automaton, SynthReport]:
    """Supremal-candidate relatively observable sublanguage, prefix-closed K.

    Fixpoint: verify C-observability of the current candidate, delete the
    offending event transition at the product state reached by the witness
    (the product is refined by the observation subset automaton so strings
    with equal observations share a state), trim, repeat. On convergence the
    result is C-observable; supremality is audited externally at desk scale.
    """
    require_same_alphabet(k, g)
    require_same_alphabet(c, g)
    if not is_prefix_closed(k) or not is_prefix_closed(c):
        raise PreconditionError("sup_relobs_closed needs prefix-closed K and C")
    _require_inclusion(k, c, "sup_relobs_closed needs K ⊆ C")
    _require_inclusion(c, g, "sup_relobs_closed needs C ⊆ L(G)")

    refined = parallel_compose(
        parallel_compose(determinize(prefix_close(trim(k))), determinize(all_marked(g))),
        _observer_refinement(g))
    current = trim(refined)
    removed = 0
    for rounds in range(max_iters + 1):
        if not current.states:
            return current, SynthReport(True, rounds, removed)
        v = check_relative_observability(current, c, g)
        if v.holds:
            return current, SynthReport(True, rounds, removed)
        s, e = v.witness.strings["s"], v.witness.strings["e"][0]
        cur = current.run(s)
        assert len(cur) == 1
        (q,) = cur
        tgt = current.succ[q][e][0]
        current = trim(Automaton(
            current.alphabet, current.states,
            current.transitions - {(q, e, tgt)},
            current.initial, current.marked))
        removed += 1
    return current, SynthReport(False, max_iters, removed)
