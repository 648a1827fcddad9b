"""Classical supervisory-control property checks and supremal synthesis.

The checks read K̄, C̄ and G only as the DFA tables {subset: {event:
subset}} of their `automata.subset_steps`, stepped on demand, and walk no
transitions. In the table of a specification closure K̄ a missing entry
means "outside K̄", so no dead state is added. Every search is the
breadth-first `automata._search`. Controllability is one `first_path` over
(K̄, G) state pairs, and normality one over (K̄, G, P(K̄)) subset triples.
The observability-style checks share one search over pairs of strings with
equal observations (`_PairSearch`), which resumes after an entry of K̄ is
deleted, so `sup_relobs_closed` runs all its removal rounds as one search,
over the table of its candidate R. R is read on demand too (an
`Implicit`), and the result is numbered as the whole nested product would
be (`_kept_part`). `sup_normal_closed` is one
`explore` over pairs of a B state and a subset of P(M−B). Every
projection, P(K̄), P(M−B) and `sup_relobs_closed`'s observer P(L(G)), is
read on demand (`_observed`), each unobservable closure taken once, so no
projected, inverse-projected or saturated automaton is built.

Controllability, observability, normality and the two syntheses are each a
validating shell, which proves the inclusions and prefix-closures that
their definitions assume of user input, around a body (`_controllability`,
`_observability`, `_normality`, `_sup_normal`, `_sup_relobs`) that assumes
them. The shells close K (and C) once, so the check bodies and `_sup_relobs`
take K̄ and C̄, trim and all marked, and restrict no operand. The two-level
pipelines of `hierarchy` and `hierctl synth` build their specifications so
that these hold, and call the bodies.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import (Automaton, Implicit, PreconditionError,
                       _difference_product, _Memo, _search, _trusted, bits,
                       closure, explore, first_path, includes,
                       is_prefix_closed, parallel_compose, path_word,
                       prefix_close, require_same_alphabet, subset_steps)
from .relations import decompose_sequence
from .verdicts import Verdict, Witness


def _require_inclusion(small: Automaton, big: Automaton, what: str) -> None:
    v = includes(small, big)
    if not v.holds:
        word = v.witness.strings["word"]
        raise PreconditionError(f"{what} (counterexample: {' '.join(word) or 'ε'})")


def _index_moves(a: Automaton):
    """`moves(i)` over the state indices of `a`, read from its `rows`: the
    (event, target index) steps of state i."""
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
    """K̄ Σu ∩ L(G) ⊆ K̄, for K ⊆ L_m(G) (`_controllability` of K̄)."""
    _require_inclusion(k, g, "specification K must satisfy K ⊆ L_m(G)")
    return _controllability(prefix_close(k), g)


def _controllability(kbar: Automaton, g: Automaton) -> Verdict:
    """`check_controllability` of a trim, all-marked K̄ ⊆ L(G)."""
    kt, gt, k0 = subset_steps(kbar), subset_steps(g), kbar.start_mask
    unc = sorted(g.alphabet.uncontrollable, key=g.alphabet.names.index)
    names = g.alphabet.names

    def moves(node):   # se ∈ K̄ ⊆ L(G)
        kk, gg = kt[node[0]], gt[node[1]]
        return ((e, (kk[e], gg[e])) for e in names if e in kk)

    def escape(node):   # the first uncontrollable e with se ∈ L(G) − K̄
        kk, gg = kt[node[0]], gt[node[1]]
        return next((e for e in unc if e in gg and e not in kk), None)

    found = first_path([(k0, g.start_mask)] if k0 else [], moves, escape)
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
    C̄ and G states after s', with k' None once s' has left K̄; K̄, C̄ and
    G are `k`, `c` and `g` read through their `subset_steps`, so a state
    is a subset bitmask. It needs K̄ ⊆ C̄ ⊆ L(G). No node with s ∉ K̄ or
    s' ∉ C̄ is generated: K̄ and C̄ are prefix-closed, so no extension of
    such a pair violates. Its `_search` test is a node's first such e, and
    its parent map labels a step with its pair event, (e, e), (e, None) or
    (None, e), which `relations.decompose_sequence` splits into s and s'.

    `delete(q, e)` drops an entry of K̄'s `subset_steps`, the memo on `k`
    itself. That changes the violation test and the moves of exactly the
    nodes that hold q, so a fresh search over the smaller table would
    repeat this one up to the discovery of the first node holding q.
    `delete` cuts the search back to just before it, and `next_violation`
    goes on from there.
    """

    def __init__(self, k: Automaton, c: Automaton, g: Automaton, events):
        alphabet, k0, g0 = g.alphabet, k.start_mask, g.start_mask
        kt, ct, gt = map(subset_steps, (k, c, g))
        self.kt = kt
        events = sorted(set(events), key=alphabet.names.index)
        steps = [(e, e in alphabet.observable, (e, e), (e, None), (None, e))
                 for e in alphabet.names]
        outside: dict = {}

        def violation(node):
            k1, _, k2, _, g2 = node
            kk1, gg2 = kt[k1], gt[g2]
            kk2 = outside if k2 is None else kt[k2]
            for e in events:
                if e in kk1 and e in gg2 and e not in kk2:
                    return e
            return None

        def moves(node):
            k1, g1, k2, c2, g2 = node
            kk1, gg1, cc2, gg2 = kt[k1], gt[g1], ct[c2], gt[g2]
            kk2 = outside if k2 is None else kt[k2]
            for e, observable, both, left, right in steps:
                k1n, c2n = kk1.get(e), cc2.get(e)
                if observable:
                    if k1n is not None and c2n is not None:
                        yield both, (k1n, gg1[e], kk2.get(e), c2n, gg2[e])
                    continue
                if k1n is not None:
                    yield left, (k1n, gg1[e], k2, c2, g2)
                if c2n is not None:
                    yield right, (k1, g1, kk2.get(e), c2n, gg2[e])

        self.moves, self.violation = moves, violation
        self.starts = [(k0, g0, k0, c.start_mask, g0)] if k0 else []
        self.index, self.queue, self.parent, self.done = {}, [], [], 0

    def next_violation(self):
        """(number, e) of the next violating node, or None."""
        return _search(self.index, self.queue, self.parent, self.moves,
                       self.starts, self.violation, done=self.done)

    def delete(self, q, e) -> None:
        """Drop the K̄ entry (q, e) and cut the search back to just before
        the discovery of the first node that holds q."""
        del self.kt[q][e]
        queue, parent = self.queue, self.parent
        j = next(i for i, node in enumerate(queue)
                 if node[0] == q or node[2] == q)
        self.done = 0 if parent[j] is None else parent[j][0]
        for _ in range(len(queue) - j):
            self.index.popitem()
        del queue[j:], parent[j:]


def _observability_engine(kbar: Automaton, cbar: Automaton, g: Automaton,
                          events, kind: str) -> Verdict:
    """One pair search over K̄, C̄ and G, which the callers closed and checked."""
    search = _PairSearch(kbar, cbar, g, events)
    found = search.next_violation()
    if found is None:
        return Verdict.make_holds()
    i, e = found
    s, sp = decompose_sequence(path_word(search.parent, i))
    return Verdict.make_violated(Witness(
        kind, {"s": s, "s_prime": sp, "e": (e,),
         "se": s + (e,), "s_prime_e": sp + (e,)},
        "P(s)=P(s'), se ∈ K̄, s' ∈ C̄, s'e ∈ L(G), s'e ∉ K̄"))


def check_observability(k: Automaton, g: Automaton) -> Verdict:
    """Observability of K wrt L(G), Σo, and Σc, for K ⊆ L_m(G)
    (`_observability` of K̄)."""
    _require_inclusion(k, g, "specification K must satisfy K ⊆ L_m(G)")
    return _observability(prefix_close(k), g)


def _observability(kbar: Automaton, g: Automaton) -> Verdict:
    """`check_observability` of a trim, all-marked K̄ ⊆ L(G)."""
    return _observability_engine(kbar, kbar, g, g.alphabet.controllable,
                                 "observability")


def check_relative_observability(k: Automaton, c: Automaton, g: Automaton) -> Verdict:
    """C-observability of K wrt G and P, e over Σ (the engine on K̄ and C̄)."""
    _require_inclusion(k, c, "relative observability needs K ⊆ C")
    _require_inclusion(c, g, "relative observability needs C ⊆ L_m(G)")
    return _observability_engine(prefix_close(k), prefix_close(c), g,
                                 g.alphabet.names, "relative-observability")


def check_normality(k: Automaton, g: Automaton) -> Verdict:
    """K̄ = P⁻¹[P(K̄)] ∩ L(G).

    One `first_path` over triples of K̄, G and O subsets, O a subset of
    P(K̄) read on demand (`_observed`): K̄ and G step on every event, O on
    observable ones only, and a step that empties G or O leaves
    P⁻¹P(K̄) ∩ L(G). A triple is bad where O is marked, G's subset is
    non-empty and K̄'s is unmarked. Each component is deterministic and
    stepped in alphabet order, so the witness is the
    length-lexicographically first word of (P⁻¹P(K̄) ∩ L(G)) − K̄. K must
    lie in L_m(G); `_normality` is the check of K̄ without that test."""
    _require_inclusion(k, g, "specification K must satisfy K ⊆ L_m(G)")
    return _normality(prefix_close(k), g)


def _normality(kbar: Automaton, g: Automaton) -> Verdict:
    """`check_normality` of a trim, all-marked K̄ ⊆ L(G)."""
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
    rhs = parallel_compose(prefix_close(a), prefix_close(b))
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
    `prefix_close` is the same automaton. The inputs are validated here;
    `_sup_normal` is the synthesis alone."""
    require_same_alphabet(b, m)
    if not is_prefix_closed(b) or not is_prefix_closed(m):
        raise PreconditionError("sup_normal_closed needs prefix-closed inputs")
    _require_inclusion(b, m, "sup_normal_closed needs B ⊆ M")
    return _sup_normal(b, m)


def _sup_normal(b: Automaton, m: Automaton) -> Automaton:
    """`sup_normal_closed` of inputs that its caller knows to be
    prefix-closed, over one alphabet, with B ⊆ M."""
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

    return prefix_close(explore(
        b.alphabet, [(q, diff.start_mask) for q in b.sorted_states(b.initial)],
        moves, lambda node: node[0] in b.marked and not saturated[node[1]]))


@dataclass(frozen=True)
class SynthReport:
    converged: bool
    rounds: int
    removed_transitions: int

    def to_json(self) -> dict:
        return {"converged": self.converged, "rounds": self.rounds,
                "removed_transitions": self.removed_transitions}


def sup_relobs_closed(k: Automaton, c: Automaton,
                      g: Automaton) -> tuple[Automaton, SynthReport]:
    """Greedy relatively observable sublanguage of prefix-closed K ⊆ C.

    The candidate is the refined product R = K̄ × G × observer, in which
    the observer's state after s depends only on P(s): triples of K̄, G
    and P(L(G)) subsets stepped by their `subset_steps` (the observer's on
    observable events only), all marked, K̄ being prefix-closed. R is read
    on demand, as an `Implicit`, and so is the observer (`_observed`), so
    neither R nor a projection of G is built whole: a triple is expanded
    only when a round or the final numbering first reads it. Each round
    runs the C-observability search over R's `subset_steps` and deletes
    from them the transition (q, e) of the violation it finds, q being the
    subset that s reaches in R: a singleton, R being a DFA, whose row is
    R's own `rows` entry. The search resumes after each deletion
    (`_PairSearch.delete`), so it deletes exactly what a fresh check of
    the trimmed candidate would. Each round deletes one entry of R's
    finite table, so the rounds end without a cap, and the report always
    reads converged, with as many rounds as removed transitions. The
    result is what the pruned rows still reach (`_kept_part`), numbered as
    `explore` numbers the whole of R, that is as the nested
    `parallel_compose` of the DFAs of K̄, L(G) and the observer would be;
    every kept triple is reachable and marked, so no trim is needed.

    The result is that greedy fixpoint: C-observable, not proven supremal;
    `oracle_sup_relobs` audits it on acyclic instances. The inputs are
    validated here, and K and C closed once; `_sup_relobs` is the
    synthesis alone.
    """
    require_same_alphabet(k, g)
    require_same_alphabet(c, g)
    if not is_prefix_closed(k) or not is_prefix_closed(c):
        raise PreconditionError("sup_relobs_closed needs prefix-closed K and C")
    _require_inclusion(k, c, "sup_relobs_closed needs K ⊆ C")
    _require_inclusion(c, g, "sup_relobs_closed needs C ⊆ L(G)")
    return _sup_relobs(prefix_close(k), prefix_close(c), g)


def _sup_relobs(kbar: Automaton, cbar: Automaton,
                g: Automaton) -> tuple[Automaton, SynthReport]:
    """`sup_relobs_closed` of a trim, all-marked K̄ ⊆ C̄ ⊆ L(G) over one
    alphabet, which its caller has built so."""
    observable = g.alphabet.observable
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
    refined = Implicit(g.alphabet, [start] if all(start) else [], moves, bool)
    # R's singleton steps are its own `rows`, which `delete` prunes for `_kept_part`
    search = _PairSearch(refined, cbar, g, g.alphabet.names)
    rounds = 0
    while (found := search.next_violation()) is not None:
        search.delete(search.queue[found[0]][0], found[1])
        rounds += 1
    return _kept_part(refined), SynthReport(True, rounds, rounds)


def _kept_part(r: Implicit) -> Automaton:
    """The DFA `r` cut down to the keys still reachable over its pruned
    `rows`, all marked, its states named as `explore` numbers the whole of
    `r`: by a `_search` over the unpruned `succ`, in the order its moves
    were yielded, that stops once every kept key has a number."""
    keys, rows = list(r.state_index), r.rows
    kept = closure(bits(r.start_mask),
                   lambda i: (m.bit_length() - 1 for m in rows[i].values()))
    missing = {keys[i] for i in kept}
    number: dict = {}
    _search(number, [], [],
            lambda key: ((e, t) for e, ts in r.succ[key].items() for t in ts),
            r.initial, lambda key: missing.discard(key) or not missing)
    name = {i: number[keys[i]] for i in kept}
    states = tuple(sorted(name.values()))
    return _trusted(r.alphabet, states,
                    frozenset((name[i], e, name[m.bit_length() - 1])
                              for i in kept for e, m in rows[i].items()),
                    frozenset(name[i] for i in bits(r.start_mask)),
                    frozenset(states))
