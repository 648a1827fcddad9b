"""Outside-in layer trace of hierctl, installed in a worker process.

`install()` replaces the public functions of the hierctl layers with
wrappers in every hierctl module that binds them, so calls made through
`from .automata import trim` are traced too. Nothing under `src/` changes.

A span is (id, parent, name, start, end, extra): extra carries the counts a
layer reports (states and transitions built, bytes parsed, ...). Calls to
the two leaf hooks `Automaton.succ` and `Automaton.__post_init__` are too
many to keep one by one, so each parent span folds them into one span per
hook with a `calls` count. Spans stay in worker memory until the operation
ends and are handed to the parent with its result.
"""

from __future__ import annotations

import sys
from time import perf_counter

TARGETS = {
    "automata": ("determinize", "parallel_compose", "includes", "difference",
                 "trim", "project", "right_quotient", "iter_marked_words"),
    "relations": ("sync_pair_compose", "relabel_pair", "build_quad",
                  "decompose_sequence"),
    "hierarchy": ("check_oc", "check_moc", "check_loc", "check_observer",
                  "check_lcc", "hier_verify", "hier_synth_normal",
                  "hier_synth_relobs", "build_context", "_refutation_loop"),
    "checks": ("check_controllability", "check_observability",
               "check_normality", "check_relative_observability",
               "check_nonconflicting", "sup_normal_closed",
               "sup_relobs_closed"),
    "saut": ("parse_automaton", "serialize_automaton"),
    "cli": ("main",),
}
LEAVES = ("automata.Automaton.succ", "automata.Automaton.post_init")
GENERATORS = ("automata.iter_marked_words",)
ROOT = "bench.op"


def span_name(module: str, func: str) -> str:
    return f"{module}.refutation" if func == "_refutation_loop" \
        else f"{module}.{func}"


class Recorder:
    """Span store of one worker; `take()` empties it after each operation."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.leaf: dict = {}
        self.next_id = 0

    def open(self) -> tuple[int, int]:
        sid = self.next_id
        self.next_id += 1
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(sid)
        return sid, parent

    def close(self, sid, parent, name, t0, t1, extra=None) -> None:
        self.stack.pop()
        self.spans.append((sid, parent, name, t0, t1, extra))

    def add_leaf(self, name: str, t0: float, t1: float) -> None:
        key = (self.stack[-1] if self.stack else -1, name)
        acc = self.leaf.get(key)
        if acc is None:
            self.leaf[key] = [1, t1 - t0, t0, t1]
        else:
            acc[0] += 1
            acc[1] += t1 - t0
            acc[3] = t1

    def take(self) -> list:
        spans = self.spans
        for (parent, name), (calls, busy, t0, t1) in self.leaf.items():
            sid = self.next_id
            self.next_id += 1
            spans.append((sid, parent, name, t0, t0 + busy,
                          {"calls": calls, "folded_end": t1}))
        self.spans, self.leaf, self.stack = [], {}, []
        return spans


def _extra(name: str, result):
    """Counts a layer reports about what it returned."""
    aut = getattr(result, "automaton", result)
    if hasattr(aut, "transitions") and hasattr(aut, "states"):
        return {"states": len(aut.states),
                "transitions": len(aut.transitions)}
    if name == "automata.includes":
        return {"failed": int(not result.holds)}
    if name == "hierarchy.refutation":
        detail = dict(result.detail)
        return {"outcome": result.outcome,
                "refuted": int(detail.get("refuted", 0))}
    if name == "checks.sup_relobs_closed":
        aut, rep = result
        return {"states": len(aut.states),
                "transitions": len(aut.transitions),
                "rounds": rep.rounds,
                "removed_transitions": rep.removed_transitions}
    if name == "saut.serialize_automaton":
        return {"bytes": len(result.encode("utf-8"))}
    return None


def _wrap(rec: Recorder, name: str, fn):
    def traced(*args, **kwargs):
        sid, parent = rec.open()
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.close(sid, parent, name, t0, perf_counter(), {"raised": 1})
            raise
        t1 = perf_counter()
        extra = _extra(name, result)
        if name == "saut.parse_automaton":
            extra = {"bytes": len(args[0].encode("utf-8"))}
        rec.close(sid, parent, name, t0, t1, extra)
        return result
    traced.__wrapped__ = fn
    return traced


class _TracedIter:
    """Times each `next()` of a generator as one span of its layer."""

    def __init__(self, rec: Recorder, name: str, gen):
        self.rec, self.name, self.gen, self.first = rec, name, gen, True

    def __iter__(self):
        return self

    def __next__(self):
        sid, parent = self.rec.open()
        t0 = perf_counter()
        extra = {"first": 1} if self.first else {}
        self.first = False
        try:
            word = next(self.gen)
        except StopIteration:
            self.rec.close(sid, parent, self.name, t0, perf_counter(), extra)
            raise
        except BaseException:
            extra["raised"] = 1
            self.rec.close(sid, parent, self.name, t0, perf_counter(), extra)
            raise
        extra["words"] = 1
        self.rec.close(sid, parent, self.name, t0, perf_counter(), extra)
        return word


def _wrap_gen(rec: Recorder, name: str, fn):
    def traced(*args, **kwargs):
        return _TracedIter(rec, name, fn(*args, **kwargs))
    traced.__wrapped__ = fn
    return traced


def _wrap_leaf(rec: Recorder, name: str, fn):
    def traced(*args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.add_leaf(name, t0, perf_counter())
    traced.__wrapped__ = fn
    return traced


def install() -> Recorder:
    """Wrap every target in every hierctl module namespace that binds it."""
    import hierctl.automata as automata
    import hierctl.checks  # noqa: F401  (loads every layer module)
    import hierctl.cli  # noqa: F401

    rec = Recorder()
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "hierctl" or n.startswith("hierctl.")]
    for module, funcs in TARGETS.items():
        home = sys.modules[f"hierctl.{module}"]
        for func in funcs:
            original = getattr(home, func)
            name = span_name(module, func)
            wrap = _wrap_gen if name in GENERATORS else _wrap
            traced = wrap(rec, name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, traced)
    succ = automata.Automaton.__dict__["succ"]
    succ.func = _wrap_leaf(rec, LEAVES[0], succ.func)
    automata.Automaton.__post_init__ = _wrap_leaf(
        rec, LEAVES[1], automata.Automaton.__post_init__)
    return rec


# ---------------------------------------------------------------------------
# aggregation (parent process)

def self_times(spans) -> dict:
    """Span id -> duration minus the time its child spans cover."""
    child = {}
    for sid, parent, name, t0, t1, extra in spans:
        child[parent] = child.get(parent, 0.0) + (t1 - t0)
    return {sid: (t1 - t0) - child.get(sid, 0.0)
            for sid, parent, name, t0, t1, extra in spans}


def layer_table(op_spans) -> dict:
    """Aggregate (op completed?, spans) pairs into per-function figures.

    Times add up over every operation; counts (calls, states, words, ...)
    only over operations that completed, so that an interrupted overrun
    cannot make two runs disagree.
    """
    table: dict = {}
    for completed, spans in op_spans:
        selfs = self_times(spans)
        for sid, parent, name, t0, t1, extra in spans:
            row = table.setdefault(name, {"self_s": 0.0, "busy_s": 0.0,
                                          "calls": 0})
            row["self_s"] += selfs[sid]
            row["busy_s"] += t1 - t0
            if not completed:
                continue
            extra = extra or {}
            if name in LEAVES:
                row["calls"] += extra["calls"]
            elif name in GENERATORS:
                row["calls"] += extra.get("first", 0)
                row["words"] = row.get("words", 0) + extra.get("words", 0)
            elif name != ROOT:
                row["calls"] += 1
            for key, value in extra.items():
                if key in ("states", "transitions", "bytes", "failed",
                           "rounds", "removed_transitions", "refuted"):
                    row[key] = row.get(key, 0) + value
            if name == "hierarchy.refutation" and \
                    extra.get("outcome") in ("holds", "violated"):
                row["decisive"] = row.get("decisive", 0) + 1
    return table


def refutation_words(op_spans) -> int:
    """Difference sequences examined: words yielded inside refutation loops."""
    total = 0
    for completed, spans in op_spans:
        if not completed:
            continue
        names = {sid: name for sid, parent, name, t0, t1, extra in spans}
        for sid, parent, name, t0, t1, extra in spans:
            if name in GENERATORS and names.get(parent) == \
                    "hierarchy.refutation":
                total += (extra or {}).get("words", 0)
    return total
