"""Correctness gate: canonical result digests, references and referees.

Every result is reduced to (outcome, digest) in canonical names (the seed's
renaming undone), so one reference answer serves every seed. A decisive
result must equal a decisive reference; a decisive result without one must
pass the bounded oracle. Gadget verdicts must also agree with this module's
own universality test, which shares no code with hierctl's `includes`.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque

DECISIVE = ("holds", "violated", "automaton")
ORACLE_BOUND = 4
WITNESS_BOUND_CAP = 6
# JSON report keys that describe how hierctl built a result, not what the
# result is; a faster equivalent result may change them
DROP_KEYS = ("states", "result_states", "rounds", "removed_transitions",
             "detail", "budget", "note")


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# canonical language form (own subset construction and minimization)

def _closure(trans, states) -> frozenset:
    seen = set(states)
    stack = list(states)
    while stack:
        q = stack.pop()
        for dst in trans.get((q, None), ()):
            if dst not in seen:
                seen.add(dst)
                stack.append(dst)
    return frozenset(seen)


def canonical_dfa(events, transitions, initial, marked):
    """Minimal complete DFA of L_m, numbered in BFS order over `events`.

    Returns (table, accepting): table[i][j] is the successor of state i on
    events[j]. Two automata accept the same language iff the results are
    equal.
    """
    trans: dict = {}
    for src, ev, dst in transitions:
        trans.setdefault((src, ev), set()).add(dst)
    start = _closure(trans, initial)
    index = {start: 0}
    order = [start]
    table = []
    i = 0
    while i < len(order):
        cur = order[i]
        row = []
        for ev in events:
            nxt = set()
            for q in cur:
                nxt.update(trans.get((q, ev), ()))
            nxt = _closure(trans, nxt)
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
            row.append(index[nxt])
        table.append(row)
        i += 1
    accepting = [bool(s & marked) for s in order]
    # Moore refinement to the coarsest partition
    block = [int(a) for a in accepting]
    while True:
        sig = [(block[q],) + tuple(block[t] for t in table[q])
               for q in range(len(order))]
        ids: dict = {}
        nblock = [ids.setdefault(s, len(ids)) for s in sig]
        if len(ids) == len(set(block)):
            break
        block = nblock
    # renumber blocks in BFS order from the start block
    rep = {}
    for q in range(len(order)):
        rep.setdefault(block[q], q)
    number = {block[0]: 0}
    queue = deque([block[0]])
    out_table, out_acc = [], []
    while queue:
        b = queue.popleft()
        q = rep[b]
        row = []
        for t in table[q]:
            if block[t] not in number:
                number[block[t]] = len(number)
                queue.append(block[t])
            row.append(number[block[t]])
        out_table.append(row)
        out_acc.append(accepting[q])
    return out_table, out_acc


def language_digest(aut, back) -> str:
    """Digest of L_m(aut) over its alphabet, event names mapped by `back`."""
    events = [(back(e.name), e.flags) for e in aut.alphabet.events]
    names = [e.name for e in aut.alphabet.events]
    table, acc = canonical_dfa(names, aut.transitions, aut.initial,
                               aut.marked)
    return _digest({"events": events, "table": table, "accepting": acc})


def is_universal(nfa) -> bool:
    """Does the all-marked NFA generate every word? Its minimal DFA is then
    one accepting state looping on every event."""
    events = [e.name for e in nfa.alphabet.events]
    table, accepting = canonical_dfa(events, nfa.transitions, nfa.initial,
                                     nfa.marked)
    return accepting == [True] and table == [[0] * len(events)]


# ---------------------------------------------------------------------------
# result summaries

def _map_witness(witness, back):
    if witness is None:
        return None
    return {k: [back(x) for x in v] for k, v in sorted(witness.items())}


def _canonical_report(value, back):
    """JSON report of the CLI with names mapped back and automata digested."""
    from hierctl.saut import parse_automaton

    if isinstance(value, dict):
        if "verdict" in value:
            return {"verdict": value["verdict"],
                    "witness": _map_witness(
                        (value.get("witness") or {}).get("strings"), back)}
        if "saut" in value:
            return {"language": language_digest(
                parse_automaton(value["saut"], allow_reserved=True), back)}
        return {k: _canonical_report(v, back) for k, v in value.items()
                if k not in DROP_KEYS}
    if isinstance(value, list):
        return [_canonical_report(v, back) for v in value]
    return value


def _verdicts_in(value) -> list:
    if isinstance(value, dict):
        if "verdict" in value:
            return [value["verdict"]]
        return [x for v in value.values() for x in _verdicts_in(v)]
    if isinstance(value, list):
        return [x for v in value for x in _verdicts_in(v)]
    return []


def summarize(op, status: str, summary, back) -> dict:
    """(outcome, digest) of one result in canonical names.

    outcome is holds / violated / inconclusive for checks, automaton for a
    synthesis that returned one, overrun or error otherwise.
    """
    if status == "error":
        return {"outcome": "error", "digest": None, "error": summary["error"]}
    if status != "ok":
        return {"outcome": status, "digest": None}
    if op.call[0] == "check":
        witness = _map_witness(summary["witness"], back)
        return {"outcome": summary["outcome"], "digest": _digest(witness),
                "witness": witness}
    from hierctl.saut import parse_automaton

    try:
        report = json.loads(summary["stdout"])
    except ValueError:
        return {"outcome": "error", "digest": None,
                "error": "CLI printed no JSON report: " + summary["stderr"]}
    canon = {"rc": summary["rc"], "report": _canonical_report(report, back)}
    if summary["out"] is not None:
        canon["out"] = language_digest(
            parse_automaton(summary["out"], allow_reserved=True), back)
    verdicts = _verdicts_in(report)
    if "inconclusive" in verdicts:
        outcome = "inconclusive"
    elif op.meta["cmd"].startswith("check-") or op.meta["cmd"] in (
            "controllability", "observability", "normality", "relobs"):
        outcome = verdicts[0]
    elif op.meta["cmd"] == "hier-verify":
        outcome = "violated" if "violated" in verdicts else "holds"
    else:
        outcome = "automaton"
    return {"outcome": outcome, "digest": _digest(canon), "report": canon,
            "raw": report}


# ---------------------------------------------------------------------------
# bounded-oracle confirmation (outside the timing)

def _replay(g, prop: str, w: dict) -> bool:
    """Does the witness violate the property's definition exactly?"""
    from hierctl.oracle import (_exists_moc_mate, _exists_oc_pair, _gen_rec,
                                _loc_continuations_meet, _p_of, _proj,
                                _q_extends, _q_of)
    gl = _gen_rec(g)
    al = gl.alphabet
    sh = al.highlevel & al.observable
    w = {k: tuple(x) for k, x in w.items()}
    if prop == "oc":
        t, tp = w["t"], w["t_prime"]
        return (_q_extends(gl, t) and _q_extends(gl, tp)
                and _proj(al, t, sh) == _proj(al, tp, sh)
                and not _exists_oc_pair(gl, t, tp))
    if prop == "moc":
        s, tp = w["s"], w["t_prime"]
        return (gl.generates(s) and _q_extends(gl, tp)
                and _proj(al, _q_of(al, s), sh) == _proj(al, tp, sh)
                and not _exists_moc_mate(gl, _p_of(al, s), tp))
    s, sp, e = w["s"], w["s_prime"], w["e"][0]
    return (gl.generates(s) and gl.generates(sp)
            and _p_of(al, s) == _p_of(al, sp)
            and _q_extends(gl, _q_of(al, s) + (e,))
            and _q_extends(gl, _q_of(al, sp) + (e,))
            and not _loc_continuations_meet(gl, s, sp, e))


def _oracle_agrees(oracle, args, outcome: str, witness) -> str:
    """confirmed / contradicted / unverified for one exact-check verdict."""
    if outcome == "holds":
        return "confirmed" if oracle(*args, ORACLE_BOUND).ok \
            else "contradicted"
    length = max((len(v) for v in (witness or {}).values()), default=0)
    bound = max(ORACLE_BOUND, length + 1)
    if bound > WITNESS_BOUND_CAP:
        return "unverified"
    return "confirmed" if not oracle(*args, bound).ok else "contradicted"


def _check_plant_verdict(g, prop: str, outcome: str, witness) -> str:
    from hierctl.oracle import PROPERTY_ORACLES
    if outcome == "violated" and prop in ("oc", "moc", "loc"):
        return "confirmed" if _replay(g, prop, witness) else "contradicted"
    return _oracle_agrees(PROPERTY_ORACLES[prop], (g,), outcome, witness)


def _bounded(aut, bound: int) -> list:
    """Generated words of a trimmed automaton up to `bound`, sorted."""
    trans: dict = {}
    for src, ev, dst in aut.transitions:
        trans.setdefault((src, ev), set()).add(dst)
    names = aut.alphabet.names
    out, frontier = [], [((), frozenset(aut.initial))] if aut.initial else []
    for _ in range(bound + 1):
        nxt = []
        for word, cur in frontier:
            out.append(word)
            for ev in names:
                step = frozenset(d for q in cur
                                 for d in trans.get((q, ev), ()))
                if step:
                    nxt.append((word + (ev,), step))
        frontier = nxt
    return sorted(out, key=lambda w: (len(w), w))


def oracle_check(op, result: dict, back) -> str:
    """Confirm a decisive result against the bounded oracles.

    Returns confirmed, contradicted or unverified (no oracle covers it at a
    small bound). Works on the regenerated canonical inputs.
    """
    from hierctl.automata import (all_marked, includes, intersect,
                                  prefix_close, trim, widen_alphabet)
    from hierctl.hierarchy import conform_spec
    from hierctl.oracle import (PROPERTY_ORACLES, oracle_sup_normal)
    from hierctl.saut import parse_automaton
    from workloads import canonical_input

    meta = op.meta
    inputs = canonical_input(meta["plant"])
    if op.call[0] == "check":
        return _check_plant_verdict(inputs, meta["prop"], result["outcome"],
                                    result.get("witness"))
    report = result["report"]["report"]
    cmd = meta["cmd"]
    if cmd.startswith("hier-"):
        g = inputs[0]
        hyps = report.get("hypotheses") or {"moc": report["moc"]}
        worst = "confirmed"
        for prop, v in sorted(hyps.items()):
            if prop == "nonconflicting" or v["verdict"] == "inconclusive":
                continue
            got = _check_plant_verdict(g, prop, v["verdict"], v["witness"])
            if got == "contradicted":
                return got
            if got == "unverified":
                worst = got
        return worst
    g, c, k = inputs

    def spec(x):
        return widen_alphabet(conform_spec(x, g.alphabet), g.alphabet)

    if cmd in ("controllability", "observability", "normality", "relobs"):
        v = report["result"]
        args = (spec(k), spec(c), g) if cmd == "relobs" else (spec(k), g)
        return _oracle_agrees(PROPERTY_ORACLES[cmd], args, v["verdict"],
                              v["witness"])
    got = parse_automaton(result["raw"]["result"]["saut"],
                          allow_reserved=True)
    got = type(got)(g.alphabet, got.states,
                    frozenset((p, back(x), q) for p, x, q in got.transitions),
                    got.initial, got.marked)
    gm = all_marked(g)
    kk = prefix_close(trim(spec(k)))
    if cmd == "supn":
        # the bounded oracle misses bad words longer than the bound, so its
        # answer over-approximates supN: the result must lie inside it
        want = set(oracle_sup_normal(intersect(kk, gm), gm, ORACLE_BOUND))
        return "confirmed" if set(_bounded(got, ORACLE_BOUND)) <= want \
            else "contradicted"
    cc = prefix_close(trim(spec(c)))
    inside = includes(got, intersect(kk, gm)).holds
    relobs = PROPERTY_ORACLES["relobs"](got, intersect(cc, gm), gm,
                                        ORACLE_BOUND).ok
    return "confirmed" if inside and relobs else "contradicted"


# ---------------------------------------------------------------------------
# the gate

def judge(op, result: dict, ref: dict | None, back) -> tuple[str, str]:
    """(verdict, reason): ok, undecided, wrong or error for one result."""
    outcome = result["outcome"]
    if outcome == "error":
        return "error", result.get("error", "operation raised")
    if outcome not in DECISIVE:
        return "undecided", outcome
    if ref is not None and ref["outcome"] in DECISIVE:
        if (outcome, result["digest"]) != (ref["outcome"], ref["digest"]):
            return "wrong", (f"{outcome}/{result['digest']} differs from "
                             f"reference {ref['outcome']}/{ref['digest']}")
        return "ok", "matches reference"
    got = oracle_check(op, result, back)
    if got == "contradicted":
        return "wrong", "new decisive result contradicts the bounded oracle"
    return "ok", f"new decisive result, oracle {got}"


def gadget_referee(ops, results: dict, universal: dict) -> list:
    """Operation ids whose gadget verdicts contradict universality.

    A gadget's own property holds iff its NFA is universal; MOC holding on a
    gadget while OC is violated on the same gadget is a contradiction
    (crit 5 of the acceptance suite).
    """
    bad = []
    by_gadget: dict = {}
    for op in ops:
        res = results.get(op.oid)
        if res is None:
            continue
        m = op.meta
        by_gadget.setdefault((m["nfa"], m["gadget"]), {})[m["prop"]] = \
            (op.oid, res["outcome"])
        if m["prop"] == m["gadget"] and res["outcome"] in ("holds",
                                                           "violated"):
            if (res["outcome"] == "holds") != universal[m["nfa"]]:
                bad.append(op.oid)
    for key, per in by_gadget.items():
        moc, oc = per.get("moc"), per.get("oc")
        if moc and oc and moc[1] == "holds" and oc[1] == "violated":
            bad.append(oc[0])
    return sorted(set(bad))
