"""Tests of the benchmark's correctness gate.

Run from the repository root:  python3 -m pytest -q perfbench/test_gate.py
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gate  # noqa: E402
import run  # noqa: E402
from workloads import (build_ops, names_back, rename,  # noqa: E402
                       renaming_for)

from hierctl import hierarchy  # noqa: E402
from hierctl.automata import Alphabet, Automaton, Event  # noqa: E402
from hierctl.gadgets import GeneratorParams, random_plant  # noqa: E402


def _check_result(op):
    """Run a plant check in-process and summarize it like the worker does."""
    import pickle
    from worker import _verdict_summary
    _, name, budget = op.call
    args = (pickle.loads(op.payload),) + ((budget,) if budget else ())
    v = getattr(hierarchy, "check_" + name)(*args)
    return _verdict_summary(v)


def _violated_op(seed: int, oracle_finds: bool = False):
    """An n=8 plant operation whose check says violated; with
    `oracle_finds`, one whose violation the bounded oracle also finds."""
    from hierctl.oracle import PROPERTY_ORACLES
    from workloads import canonical_input
    ops = sorted(build_ops("plants", 0, seed, "unused"), key=lambda o: o.oid)
    for op in ops:
        if not op.oid.startswith("plants/n8-"):
            continue
        summary = _check_result(op)
        if summary["outcome"] != "violated":
            continue
        oracle = PROPERTY_ORACLES[op.meta["prop"]]
        if not oracle_finds or not oracle(canonical_input(op.meta["plant"]),
                                          gate.ORACLE_BOUND).ok:
            return op, summary
    raise AssertionError("no violated plant in the population")


def _metrics(judgements):
    reply = {"t": 0.001, "norm": 0.001, "cal": 0.001, "status": "ok",
             "rss_mb": 10.0}
    return run.end_to_end(0.1, [[(reply, j)] for j in judgements], 10.0)


def test_same_result_under_another_seed_matches_reference():
    op0, s0 = _violated_op(0)
    back0 = names_back("plants", 0)
    ref = gate.summarize(op0, "ok", s0, back0)
    ops3 = {op.oid: op for op in build_ops("plants", 0, 3, "unused")}
    op3 = ops3[op0.oid]
    res3 = gate.summarize(op3, "ok", _check_result(op3),
                          names_back("plants", 3))
    assert gate.judge(op3, res3, ref, None)[0] == "ok"


def test_wrong_verdict_or_changed_witness_raises_failed_share():
    op, summary = _violated_op(0)
    back = names_back("plants", 0)
    ref = gate.summarize(op, "ok", summary, back)
    good = gate.judge(op, ref, ref, back)
    assert good[0] == "ok"

    flipped = dict(summary, outcome="holds", witness=None)
    wrong = gate.judge(op, gate.summarize(op, "ok", flipped, back), ref, back)
    assert wrong[0] == "wrong"

    witness = {k: list(v) for k, v in summary["witness"].items()}
    key = sorted(witness)[0]
    witness[key] = witness[key] + [witness[key][-1] if witness[key] else "e0"]
    changed = dict(summary, witness=witness)
    moved = gate.judge(op, gate.summarize(op, "ok", changed, back), ref, back)
    assert moved[0] == "wrong"

    ok_metrics, ok_counts = _metrics([list(good) + [ref]] * 4)
    bad_metrics, bad_counts = _metrics([list(good) + [ref]] * 3
                                       + [list(moved) + [ref]])
    assert ok_counts["failed"] == 0 and ok_metrics["correct_share"] == 1.0
    assert bad_counts["failed"] == 1
    assert bad_metrics["correct_share"] == 0.75
    assert bad_metrics["decided_share"] == 0.75


def test_error_counts_as_failed():
    verdict, _ = gate.judge(None, {"outcome": "error", "error": "boom"},
                            None, None)
    assert verdict == "error"


def test_new_decisive_result_is_checked_by_the_oracle():
    op, summary = _violated_op(0, oracle_finds=True)
    back = names_back("plants", 0)
    res = gate.summarize(op, "ok", summary, back)
    undecided_ref = {"outcome": "overrun", "digest": None}
    assert gate.judge(op, res, undecided_ref, back)[0] == "ok"
    lie = gate.summarize(op, "ok", dict(summary, outcome="holds",
                                        witness=None), back)
    assert gate.judge(op, lie, undecided_ref, back)[0] == "wrong"


def _nfa(transitions, events=("a0", "a1")):
    al = Alphabet(tuple(Event(e) for e in events))
    states = ("q0", "q1")
    return Automaton(al, states, frozenset(transitions), frozenset({"q0"}),
                     frozenset(states))


def test_universality_referee():
    full = _nfa({("q0", "a0", "q0"), ("q0", "a1", "q1"),
                 ("q1", "a0", "q0"), ("q1", "a1", "q0")})
    gap = _nfa({("q0", "a0", "q0"), ("q0", "a1", "q1"), ("q1", "a0", "q0")})
    assert gate.is_universal(full)
    assert not gate.is_universal(gap)


def test_gadget_referee_flags_contradictions():
    ops = build_ops("gadgets", 0, 0, "unused")
    own = next(op for op in ops if op.meta["prop"] == op.meta["gadget"])
    nfa = own.meta["nfa"]
    results = {own.oid: {"outcome": "holds"}}
    assert gate.gadget_referee(ops, results, {nfa: False}) == [own.oid]
    assert gate.gadget_referee(ops, results, {nfa: True}) == []
    same = [op for op in ops if op.meta["nfa"] == nfa
            and op.meta["gadget"] == "loc"]
    moc = next(op for op in same if op.meta["prop"] == "moc")
    oc = next(op for op in same if op.meta["prop"] == "oc")
    results = {moc.oid: {"outcome": "holds"}, oc.oid: {"outcome": "violated"}}
    assert gate.gadget_referee(ops, results, {nfa: True}) == [oc.oid]


def test_language_digest_ignores_state_names_only():
    g = random_plant(GeneratorParams(states=8, events=3, seed=2))
    assert len(g.transitions) > 4
    ren = renaming_for(4)
    same = gate.language_digest(rename(g, ren), ren.event_back("e"))
    assert gate.language_digest(g, lambda e: e) == same
    smaller = Automaton(g.alphabet, g.states,
                        frozenset(sorted(g.transitions)[1:]), g.initial,
                        g.marked)
    assert gate.language_digest(smaller, lambda e: e) != same
