"""Bounded brute-force oracle for every property the toolkit decides.

The oracle re-evaluates each definition literally: universal quantifiers
range over explicitly enumerated words up to a length bound, and inner
existential quantifiers are decided exactly by small ad-hoc reachability
searches written directly against the transition structure. None of the
pair-event reductions, subset constructions, or difference automata from
the main code paths are involved, so agreement between a checker and the
oracle is meaningful evidence.

Each search is written once:

- `_walk` enumerates words level by level from a state set, optionally
  closing each set under hidden events first: the bounded universe
  (`_bounded_words`) and the observer's two continuation walks;
- `_visit(starts, step, goal)` is the one depth-first search: it enters
  each node once and answers whether a reached node meets the goal, or,
  without a goal, returns the nodes reached;
- each inner existential quantifier is a start set, a step and a goal
  over `_visit`: `_closure` (states under allowed events), `_q_ends` and
  `_q_extends` ((state, index into t) pairs, ending at the end of t),
  `_exists_oc_pair`, `_exists_moc_mate`, `_loc_continuations_meet` and
  `oracle_nonconflicting`'s co-reachability, each over tuples of states
  (and indices) of one definition.

A reported violation is always genuine. A report of "no violation found"
is conclusive only when the bound covers the instance (for example on
acyclic automata with the bound at least the longest word); otherwise it
is a bounded claim, which is exactly what the cross-check tests use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .automata import Automaton, PreconditionError, all_marked, trim

Word = tuple


@dataclass(frozen=True)
class OracleReport:
    prop: str
    bound: int
    ok: bool
    witness: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"property": self.prop, "bound": self.bound, "ok": self.ok,
                "witness": {k: list(v) if isinstance(v, tuple) else v
                            for k, v in self.witness.items()}}


# ---------------------------------------------------------------------------
# word-level plumbing

def _gen_rec(a: Automaton) -> Automaton:
    """Recognizer whose generated language is L(a)."""
    return all_marked(a)


def _walk(a: Automaton, states, events, hidden, bound: int) -> list:
    """Words over `events`, up to the bound and length-lexicographic, that
    lead from `states` to a nonempty set when any `hidden` events may come
    before each letter."""
    out = []
    start = frozenset(states)
    level = [((), start)] if start else []
    for _ in range(bound + 1):
        nxt = []
        for word, cur in level:
            out.append(word)
            if hidden:
                cur = _closure(a, cur, hidden)
            for e in events:
                step = a.step(cur, e)
                if step:
                    nxt.append((word + (e,), step))
        level = nxt
        if not level:
            break
    return out


def _visit(starts, step, goal=None):
    """Depth-first search from `starts` over `step(node)`, the nodes one
    move away, entering each node once. With a `goal`, whether some
    reached node satisfies it; without one, the set of nodes reached."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        node = stack.pop()
        if goal is not None and goal(node):
            return True
        for nxt in step(node):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen if goal is None else False


def _closure(a: Automaton, states, allowed) -> set:
    """`states` and every state that `allowed` events reach from them."""
    succ = a.succ
    return _visit(states, lambda q: [t for e, targets in succ[q].items()
                                     if e in allowed for t in targets])


def _bounded_words(a: Automaton, bound: int) -> list:
    """Generated words of `a` up to the bound, length-lexicographic."""
    if bound < 0:
        raise PreconditionError("oracle bound must be >= 0")
    return _walk(a, a.initial, a.alphabet.names, (), bound)


def _proj(alphabet, w: Word, kept) -> Word:
    return tuple(x for x in w if x in kept)


def _group_by(words, key) -> dict:
    groups: dict = {}
    for w in words:
        groups.setdefault(key(w), []).append(w)
    return groups


# ---------------------------------------------------------------------------
# classical properties

def oracle_controllability(k: Automaton, g: Automaton, bound: int) -> OracleReport:
    kc = trim(k)
    gl = _gen_rec(g)
    unc = g.alphabet.uncontrollable
    for s in _bounded_words(kc, bound):
        for e in sorted(unc, key=g.alphabet.names.index):
            if gl.generates(s + (e,)) and not kc.generates(s + (e,)):
                return OracleReport("controllability", bound, False,
                                    {"s": s, "e": (e,)})
    return OracleReport("controllability", bound, True)


def _oracle_obs_engine(k: Automaton, c: Automaton, g: Automaton,
                       events, bound: int, prop: str) -> OracleReport:
    kc = trim(k)
    cc = trim(c)
    gl = _gen_rec(g)
    obs = g.alphabet.observable
    kwords = _bounded_words(kc, bound)
    cwords = _bounded_words(cc, bound)
    groups = _group_by(cwords, lambda w: _proj(g.alphabet, w, obs))
    for s in kwords:
        mates = groups.get(_proj(g.alphabet, s, obs), ())
        for e in events:
            if not kc.generates(s + (e,)):
                continue
            for sp in mates:
                if gl.generates(sp + (e,)) and not kc.generates(sp + (e,)):
                    return OracleReport(prop, bound, False,
                                        {"s": s, "s_prime": sp, "e": (e,)})
    return OracleReport(prop, bound, True)


def oracle_observability(k: Automaton, g: Automaton, bound: int) -> OracleReport:
    events = sorted(g.alphabet.controllable, key=g.alphabet.names.index)
    return _oracle_obs_engine(k, k, g, events, bound, "observability")


def oracle_relative_observability(k: Automaton, c: Automaton, g: Automaton,
                                  bound: int) -> OracleReport:
    return _oracle_obs_engine(k, c, g, list(g.alphabet.names), bound,
                              "relative-observability")


def oracle_normality(k: Automaton, g: Automaton, bound: int) -> OracleReport:
    kc = trim(k)
    gl = _gen_rec(g)
    obs = g.alphabet.observable
    kimages = {_proj(g.alphabet, w, obs) for w in _bounded_words(kc, bound)}
    for w in _bounded_words(gl, bound):
        if _proj(g.alphabet, w, obs) in kimages and not kc.generates(w):
            return OracleReport("normality", bound, False, {"word": w})
    return OracleReport("normality", bound, True)


def oracle_nonconflicting(a: Automaton, b: Automaton, bound: int) -> OracleReport:
    """Reachable joint closure states must stay co-reachable to joint marking."""
    if bound < 0:
        raise PreconditionError("oracle bound must be >= 0")
    at, bt = trim(a), trim(b)
    in_a = set(at.alphabet.names)
    in_b = set(bt.alphabet.names)
    events = list(dict.fromkeys(at.alphabet.names + bt.alphabet.names))

    def moves(p, q):
        for e in events:
            if e in in_a and e in in_b:
                for pn in at.succ[p].get(e, ()):
                    for qn in bt.succ[q].get(e, ()):
                        yield e, (pn, qn)
            elif e in in_a:
                for pn in at.succ[p].get(e, ()):
                    yield e, (pn, q)
            else:
                for qn in bt.succ[q].get(e, ()):
                    yield e, (p, qn)

    reached = {(p, q): () for p in at.initial for q in bt.initial}
    frontier = list(reached)
    while frontier:
        nxt = []
        for pq in frontier:
            if len(reached[pq]) >= bound:
                continue
            for e, new in moves(*pq):
                if new not in reached:
                    reached[new] = reached[pq] + (e,)
                    nxt.append(new)
        frontier = nxt

    def step(pq):
        return [new for _, new in moves(*pq)]

    def both_marked(pq) -> bool:
        return pq[0] in at.marked and pq[1] in bt.marked

    for pq, word in sorted(reached.items(), key=lambda kv: (len(kv[1]), kv[1])):
        if not _visit([pq], step, both_marked):
            return OracleReport("nonconflicting", bound, False, {"word": word})
    return OracleReport("nonconflicting", bound, True)


# ---------------------------------------------------------------------------
# hierarchical consistency

def _q_of(alphabet, w: Word) -> Word:
    return _proj(alphabet, w, alphabet.highlevel)


def _p_of(alphabet, w: Word) -> Word:
    return _proj(alphabet, w, alphabet.observable)


def _exists_oc_pair(gl: Automaton, t: Word, tp: Word) -> bool:
    """∃ s, s' ∈ L with Q(s)=t, Q(s')=tp, P(s)=P(s')."""
    alphabet, succ = gl.alphabet, gl.succ
    obs, hi = alphabet.observable, alphabet.highlevel

    def step(node):   # observable events move both runs, others either one
        p, q, i, j = node
        out = []
        for e in alphabet.names:
            ni, nj = _advance(t, i, e, hi), _advance(tp, j, e, hi)
            if e in obs:
                if ni is not None and nj is not None:
                    out += [(pn, qn, ni, nj) for pn in succ[p].get(e, ())
                            for qn in succ[q].get(e, ())]
                continue
            if ni is not None:
                out += [(pn, q, ni, j) for pn in succ[p].get(e, ())]
            if nj is not None:
                out += [(p, qn, i, nj) for qn in succ[q].get(e, ())]
        return out

    return _visit([(p, q, 0, 0) for p in gl.initial for q in gl.initial],
                  step, lambda node: node[2] == len(t) and node[3] == len(tp))


def _advance(t: Word, i: int, e: str, hi) -> int | None:
    """Next index into t after consuming e, or None if e contradicts t."""
    if e not in hi:
        return i
    if i < len(t) and t[i] == e:
        return i + 1
    return None


def _exists_moc_mate(gl: Automaton, obs_word: Word, tp: Word) -> bool:
    """∃ s' ∈ L with P(s') = obs_word and Q(s') = tp."""
    alphabet, succ = gl.alphabet, gl.succ
    obs, hi = alphabet.observable, alphabet.highlevel

    def step(node):
        q, k, j = node
        out = []
        for e, targets in succ[q].items():
            nk, nj = _advance(obs_word, k, e, obs), _advance(tp, j, e, hi)
            if nk is not None and nj is not None:
                out += [(qn, nk, nj) for qn in targets]
        return out

    return _visit([(q, 0, 0) for q in gl.initial], step,
                  lambda node: node[1] == len(obs_word) and node[2] == len(tp))


def _q_groups(alphabet, words) -> dict:
    """Q(words), length-lexicographic, grouped by their projection onto the
    observable high-level events."""
    shared = alphabet.highlevel & alphabet.observable
    ts = sorted({_q_of(alphabet, w) for w in words}, key=lambda w: (len(w), w))
    return _group_by(ts, lambda w: _proj(alphabet, w, shared))


def oracle_oc(g: Automaton, bound: int) -> OracleReport:
    gl = _gen_rec(g)
    groups = _q_groups(gl.alphabet, _bounded_words(gl, bound))
    for key, members in sorted(groups.items()):
        for t in members:
            for tp in members:
                if not _exists_oc_pair(gl, t, tp):
                    return OracleReport("oc", bound, False,
                                        {"t": t, "t_prime": tp})
    return OracleReport("oc", bound, True)


def oracle_moc(g: Automaton, bound: int) -> OracleReport:
    gl = _gen_rec(g)
    alphabet = gl.alphabet
    shared = alphabet.highlevel & alphabet.observable
    words = _bounded_words(gl, bound)
    groups = _q_groups(alphabet, words)
    for s in words:
        # shared events are high-level, so Q(s) projects as s does
        for tp in groups.get(_proj(alphabet, s, shared), ()):
            if not _exists_moc_mate(gl, _p_of(alphabet, s), tp):
                return OracleReport("moc", bound, False,
                                    {"s": s, "t_prime": tp})
    return OracleReport("moc", bound, True)


def _loc_continuations_meet(gl: Automaton, s: Word, sp: Word, e: str) -> bool:
    """∃ low-level u, u' with P(u)=P(u'), sue ∈ L, s'u'e ∈ L."""
    alphabet, succ = gl.alphabet, gl.succ
    obs = alphabet.observable
    low = [a for a in alphabet.names if a not in alphabet.highlevel]

    def step(node):   # observable events move both runs, others either one
        p, q = node
        out = []
        for a in low:
            if a in obs:
                out += [(pn, qn) for pn in succ[p].get(a, ())
                        for qn in succ[q].get(a, ())]
            else:
                out += [(pn, q) for pn in succ[p].get(a, ())]
                out += [(p, qn) for qn in succ[q].get(a, ())]
        return out

    return _visit([(p, q) for p in gl.run(s) for q in gl.run(sp)], step,
                  lambda node: succ[node[0]].get(e) and succ[node[1]].get(e))


def _q_visit(gl: Automaton, t: Word, goal=None):
    """`_visit` over the (state, index into t) pairs of the words w ∈ L
    whose Q(w) is a prefix of t."""
    succ, hi = gl.succ, gl.alphabet.highlevel

    def step(node):
        q, i = node
        out = []
        for e, targets in succ[q].items():
            ni = _advance(t, i, e, hi)
            if ni is not None:
                out += [(qn, ni) for qn in targets]
        return out

    return _visit([(q, 0) for q in gl.initial], step, goal)


def _q_ends(gl: Automaton, t: Word) -> set:
    """The states reached by the words w ∈ L with Q(w) = t."""
    return {q for q, i in _q_visit(gl, t) if i == len(t)}


def _q_extends(gl: Automaton, t: Word) -> bool:
    """t ∈ Q(L), decided exactly."""
    return _q_visit(gl, t, lambda node: node[1] == len(t))


def oracle_loc(g: Automaton, bound: int) -> OracleReport:
    gl = _gen_rec(g)
    alphabet = gl.alphabet
    events = sorted(alphabet.highlevel & alphabet.controllable,
                    key=alphabet.names.index)
    words = _bounded_words(gl, bound)
    groups = _group_by(words, lambda w: _p_of(alphabet, w))
    for _, members in sorted(groups.items()):
        # the events e with Q(s)e ∈ Q(L), once per member s
        enabled = [{e for e in events
                    if _q_extends(gl, _q_of(alphabet, s) + (e,))}
                   for s in members]
        for s, at_s in zip(members, enabled):
            for sp, at_sp in zip(members, enabled):
                for e in events:
                    if e not in at_s or e not in at_sp:
                        continue
                    if not _loc_continuations_meet(gl, s, sp, e):
                        return OracleReport("loc", bound, False,
                                            {"s": s, "s_prime": sp, "e": (e,)})
    return OracleReport("loc", bound, True)


def oracle_observer(g: Automaton, bound: int) -> OracleReport:
    gl = _gen_rec(g)
    alphabet = gl.alphabet
    hi = sorted(alphabet.highlevel, key=alphabet.names.index)
    low = alphabet.lowlevel
    for s in _bounded_words(gl, bound):
        # the t that some continuation u of s realizes high-level ...
        realizable = set(_walk(gl, gl.run(s), hi, low, bound))
        # ... must include every t with Q(s)t ∈ Q(L)
        for t in _walk(gl, _q_ends(gl, _q_of(alphabet, s)), hi, low, bound):
            if t not in realizable:
                return OracleReport("observer", bound, False,
                                    {"s": s, "t": t})
    return OracleReport("observer", bound, True)


def oracle_lcc(g: Automaton, bound: int) -> OracleReport:
    gl = _gen_rec(g)
    alphabet = gl.alphabet
    events = sorted(alphabet.highlevel & alphabet.uncontrollable,
                    key=alphabet.names.index)
    low = alphabet.lowlevel
    low_unc = low & alphabet.uncontrollable
    for s in _bounded_words(gl, bound):
        reached = gl.run(s)
        for e in events:
            if not _q_extends(gl, _q_of(alphabet, s) + (e,)):
                continue
            via_any = any(gl.succ[q].get(e) for q in _closure(gl, reached, low))
            via_unc = any(gl.succ[q].get(e)
                          for q in _closure(gl, reached, low_unc))
            if via_any and not via_unc:
                return OracleReport("lcc", bound, False, {"s": s, "e": (e,)})
    return OracleReport("lcc", bound, True)


# ---------------------------------------------------------------------------
# bounded supremal synthesis

def oracle_sup_normal(b: Automaton, m: Automaton, bound: int) -> list:
    """Bounded words of supN(B, M) = B − P⁻¹[P(M−B)]Σ* for closed B ⊆ M."""
    bc = trim(b)
    mc = trim(m)
    obs = b.alphabet.observable
    bad = {_proj(b.alphabet, w, obs) for w in _bounded_words(mc, bound)
           if not bc.generates(w)}
    out = []
    for w in _bounded_words(bc, bound):
        prefixes = [w[:i] for i in range(len(w) + 1)]
        if all(_proj(b.alphabet, x, obs) not in bad for x in prefixes):
            out.append(w)
    return sorted(out, key=lambda w: (len(w), w))


def oracle_sup_relobs(k: Automaton, c: Automaton, g: Automaton,
                      bound: int) -> list:
    """Bounded greatest fixpoint for the supremal C-observable sublanguage.

    Exact on instances whose languages the bound exhausts (acyclic test
    plants); prefix closure is maintained by removing extensions together
    with a removed word.
    """
    kc = trim(k)
    cc = trim(c)
    gl = _gen_rec(g)
    alphabet = g.alphabet
    obs = alphabet.observable
    # mates stop one step short of the enumerated universe so that their
    # extension stays inside it; otherwise the cutoff itself would doom words
    cwords = _bounded_words(cc, bound)
    live = set(_bounded_words(kc, bound + 1))
    changed = True
    while changed:
        changed = False
        doomed = set()
        for se in live:
            if not se:
                continue
            s, e = se[:-1], se[-1]
            for sp in cwords:
                if _proj(alphabet, sp, obs) != _proj(alphabet, s, obs):
                    continue
                spe = sp + (e,)
                if gl.generates(spe) and spe not in live:
                    doomed.add(se)
                    break
        if doomed:
            changed = True
            live = {w for w in live
                    if not any(w[:i] in doomed for i in range(1, len(w) + 1))}
    return sorted((w for w in live if len(w) <= bound),
                  key=lambda w: (len(w), w))


PROPERTY_ORACLES = {
    "controllability": oracle_controllability,
    "observability": oracle_observability,
    "relobs": oracle_relative_observability,
    "normality": oracle_normality,
    "nonconflicting": oracle_nonconflicting,
    "oc": oracle_oc,
    "moc": oracle_moc,
    "loc": oracle_loc,
    "observer": oracle_observer,
    "lcc": oracle_lcc,
}
