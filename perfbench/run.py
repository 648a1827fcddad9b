"""Verdict benchmark for hierctl: time-to-verdict and decided share.

Run from the repository root:

    python3 perfbench/run.py --workload plants --seed 0 --seconds 40 --trace 0

One closed-loop client runs the workload's operations one after another in
a worker process (see worker.py), each under a per-operation time limit.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it are the
human-readable report. `--trace 1` reports the per-layer metrics instead
and writes every span to perfbench/out/. `--record` writes the reference
answers that the correctness gate compares against. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

SETUP_REPS = 5
# operations faster than this in the first round are run again, while
# time is left, and report the median of their runs
REPEAT_BELOW_S = 0.5
MAX_ROUNDS = 4
# seconds `worker.calibrate` takes at the reference machine speed, the unit
# of every reported time; never change it, or old and new figures part ways
CAL_REF_S = 0.002
# runs on each side whose calibrations give the speed behind one run
CAL_WINDOW = 10
REPLY_GRACE_S = 15.0
REFERENCE_DIR = HERE / "reference"
OUT_DIR = HERE / "out"

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("decided_share", "ratio"),
              ("correct_share", "ratio"), ("peak_rss_mb", "MB"))


# ---------------------------------------------------------------------------
# worker handling

class Worker:
    """The fork server (worker.py) and the pipes to it."""

    def __init__(self, args, workdir: str, trace: bool):
        from workloads import LIMIT_S
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), args.workload,
             str(args.population), str(args.seed), workdir,
             "1" if trace else "0", repr(LIMIT_S)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT,
            start_new_session=True)
        reply = self.receive(None)
        if not reply or reply[0] != "ready":
            self.stop(kill=True)
            raise RuntimeError("worker failed to start")

    def receive(self, timeout):
        """The next reply, or None if none arrives within `timeout`."""
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            return None
        try:
            return pickle.load(self.proc.stdout)
        except (EOFError, pickle.UnpicklingError):
            return None

    def send(self, obj) -> None:
        pickle.dump(obj, self.proc.stdin)
        self.proc.stdin.flush()

    def run(self, i: int, timeout: float):
        """The worker's reply for operation i, or None if it is gone."""
        try:
            self.send(i)
        except OSError:
            return None
        return self.receive(timeout)

    def alive(self) -> bool:
        return self.proc.poll() is None

    def stop(self, kill: bool = False) -> None:
        """Ask the worker to exit (or kill it) and wait until it has."""
        if not kill:
            try:
                self.send(None)
                self.proc.wait(10)
            except (OSError, subprocess.TimeoutExpired):
                pass
        if self.alive():
            # the worker's session also holds the child of a running operation
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def load_reference(population: int) -> dict:
    path = REFERENCE_DIR / f"p{population}.json"
    if not path.exists():
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["ops"]


def setup(args, workdir: str):
    """Time SETUP_REPS set-ups; returns (median seconds, worker, reference).

    One set-up is a fresh worker importing hierctl and generating every
    input (writing the .saut files of cli-mix) plus loading the reference
    answers. The worker of the last set-up runs the operations.
    """
    times = []
    worker = None
    for _ in range(SETUP_REPS):
        if worker is not None:
            worker.stop()
        t0 = time.perf_counter()
        worker = Worker(args, workdir, trace=False)
        reference = load_reference(args.population)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), worker, reference


def run_round(args, ops, indices, worker, workdir: str, trace: bool,
              limit: float, log: list):
    """Run the given operations once each; returns (replies, worker).

    Each reply gains `norm`, its time at the reference machine speed.
    """
    replies = []
    for i in indices:
        reply = worker.run(i, limit + REPLY_GRACE_S)
        if reply is None:
            worker.stop(kill=True)
            worker = Worker(args, workdir, trace)
            reply = {"status": "overrun", "t": limit, "cal": None,
                     "rss_mb": None, "summary": None, "spans": None}
            log.append(f"worker did not answer {ops[i].oid}; replaced")
        replies.append(reply)
    normalize(replies, limit)
    return replies, worker


def normalize(replies, limit: float) -> None:
    """Set each reply's `norm`: its time divided by the machine's speed.

    Other tenants of a shared machine slow it by up to half for minutes at
    a time. The calibration run just before each operation slows with it,
    so the median calibration of the neighbouring runs, over CAL_REF_S,
    says how slow the machine was; on the 2-core VM these figures were
    measured on, that held operation times within ±4% while raw times
    swung ±18%. An overrun stays at the limit.
    """
    cals = [r["cal"] for r in replies]
    for j, reply in enumerate(replies):
        window = [c for c in cals[max(0, j - CAL_WINDOW):j + CAL_WINDOW + 1]
                  if c is not None]
        if reply["status"] == "overrun" or not window:
            reply["norm"] = min(reply["t"], limit)
        else:
            speed = statistics.median(window) / CAL_REF_S
            reply["norm"] = min(reply["t"] / speed, limit)


# ---------------------------------------------------------------------------
# metrics

def percentile(values, q: float) -> float:
    values = sorted(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] \
        if len(values) > 1 else values[0]


def judge_round(ops, replies, reference, back, universal, report,
                check=True):
    """Gate a full round; returns per-op [judgement, reason, summary].

    With `check` off (while recording) only the summaries are made.
    """
    import gate
    judged = []
    summaries = {}
    for op, res in zip(ops, replies):
        summary = gate.summarize(op, res["status"], res["summary"], back)
        summaries[op.oid] = summary
        if check:
            verdict, reason = gate.judge(op, summary,
                                         reference.get(op.oid), back)
        else:
            verdict, reason = "unchecked", "recording"
        judged.append([verdict, reason, summary])
    if universal:
        bad = set(gate.gadget_referee(ops, summaries, universal))
        for op, item in zip(ops, judged):
            if op.oid in bad and item[0] != "wrong":
                item[0], item[1] = "wrong", "contradicts NFA universality"
    for op, (verdict, reason, summary) in zip(ops, judged):
        if verdict in ("wrong", "error"):
            report.append(f"FAILED {op.oid}: {verdict}: {reason}")
    return judged


def judge_repeat(op, first, reply, reference, back, report):
    """Gate a repeated run: the same raw result as the first run is judged
    the same; anything else is judged afresh."""
    import gate
    if reply["status"] == first[0]["status"] and \
            reply["summary"] == first[0]["summary"]:
        return first[1]
    summary = gate.summarize(op, reply["status"], reply["summary"], back)
    verdict, reason = gate.judge(op, summary, reference.get(op.oid), back)
    if verdict in ("wrong", "error"):
        report.append(f"FAILED {op.oid} (repeat): {verdict}: {reason}")
    return [verdict, reason, summary]


def end_to_end(setup_s, runs, limit) -> tuple[dict, dict]:
    """Metrics from runs[i] = [(reply, judgement), ...] of operation i.

    An operation's latency is the median of its runs' times at the
    reference machine speed (see `normalize`); an overrun counts at the
    limit. Shares count operations: decided if its first run gave a correct
    decisive result, failed if any run raised or was wrong. `counts` also
    carries the raw (unnormalized) wall time and the machine's speed.
    """
    latency, raw, cals, rss = [], [], [], []
    counts = {"attempted": 0, "failed": 0, "decided": 0, "failed_ops": 0}
    for op_runs in runs:
        latency.append(statistics.median(r["norm"] for r, _ in op_runs)
                       * 1000.0)
        raw.append(statistics.median(min(r["t"], limit)
                                     for r, _ in op_runs))
        cals += [r["cal"] for r, _ in op_runs if r["cal"] is not None]
        bad = [j for _, j in op_runs if j[0] in ("wrong", "error")]
        counts["attempted"] += len(op_runs)
        counts["failed"] += len(bad)
        counts["failed_ops"] += bool(bad)
        counts["decided"] += op_runs[0][1][0] == "ok"
        rss += [r["rss_mb"] for r, _ in op_runs
                if r["status"] == "ok" and r["rss_mb"] is not None]
    n = len(runs)
    metrics = {
        "setup_s": setup_s,
        "wall_s": sum(latency) / 1000.0,
        "op_p50_ms": percentile(latency, 50),
        "op_p90_ms": percentile(latency, 90),
        "decided_share": counts["decided"] / n,
        "correct_share": (n - counts["failed_ops"]) / n,
        "peak_rss_mb": max(rss) if rss else 0.0,
    }
    counts["raw_wall_s"] = sum(raw)
    counts["speed"] = statistics.median(cals) / CAL_REF_S if cals else 1.0
    return metrics, counts


def per_layer(traced_replies, untraced_replies, limit: float) -> dict:
    """Per-layer figures of the traced round, in BENCHMARK.json order.

    Times are at the reference machine speed: span times are scaled by the
    traced round's normalized over raw wall time, and the tracing overhead
    compares the two rounds' normalized walls, so machine drift between
    the rounds does not pass for overhead.
    """
    import layertrace
    traced = [(r["status"] == "ok", r["spans"] or [])
              for r in traced_replies]
    table = layertrace.layer_table(traced)
    examined = layertrace.refutation_words(traced)
    traced_wall = sum(r["norm"] for r in traced_replies)
    scale = traced_wall / sum(min(r["t"], limit) for r in traced_replies)
    out = {}
    for name, fields in layer_metric_names():
        row = table.get(name, {})
        for field in fields:
            value = row.get(field, 0)
            out[f"{name}.{field}"] = value * scale \
                if field.endswith("_s") else value
    ref = table.get("hierarchy.refutation", {})
    out["hierarchy.refutation.examined"] = examined
    out["hierarchy.refutation.useful_ratio"] = \
        ref.get("decisive", 0) / examined if examined else 0.0
    out["hierarchy.difference_states_per_sequence"] = \
        table.get("automata.difference", {}).get("states", 0) / examined \
        if examined else 0.0
    untraced_wall = sum(r["norm"] for r in untraced_replies)
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.traced_wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - untraced_wall
    out["trace.layer_self_s"] = scale * sum(
        row["self_s"] for name, row in table.items()
        if name != layertrace.ROOT)
    out["trace.spans"] = sum(len(spans) for _, spans in traced)
    return out, table


def layer_metric_names():
    """(span name, fields) for every traced function, in report order."""
    import layertrace
    sized = {"determinize", "parallel_compose", "difference", "trim",
             "project", "right_quotient", "sync_pair_compose", "relabel_pair",
             "build_quad", "sup_normal_closed"}
    rows = [(layertrace.LEAVES[0], ("calls", "self_s")),
            (layertrace.LEAVES[1], ("calls", "self_s"))]
    for module, funcs in layertrace.TARGETS.items():
        for func in funcs:
            name = layertrace.span_name(module, func)
            fields = ["calls", "self_s"]
            if func in sized:
                fields += ["states", "transitions"]
            if func == "includes":
                fields.append("failed")
            if func == "iter_marked_words":
                fields = ["calls", "busy_s", "self_s", "words"]
            if func == "_refutation_loop":
                fields.append("refuted")
            if func == "sup_relobs_closed":
                fields += ["rounds", "removed_transitions"]
            if module == "saut":
                fields.append("bytes")
            rows.append((name, tuple(fields)))
    return rows


def layer_units():
    """Unit of every per-layer metric name (for BENCHMARK.json)."""
    units = {}
    for name, fields in layer_metric_names():
        for field in fields:
            units[f"{name}.{field}"] = "s" if field.endswith("_s") else \
                ("bytes" if field == "bytes" else "count")
    units["hierarchy.refutation.examined"] = "count"
    units["hierarchy.refutation.useful_ratio"] = "ratio"
    units["hierarchy.difference_states_per_sequence"] = "states/seq"
    for key in ("untraced_wall_s", "traced_wall_s", "overhead_s",
                "layer_self_s"):
        units["trace." + key] = "s"
    units["trace.spans"] = "count"
    return units


def self_time_table(table: dict) -> list[str]:
    lines = [f"{'layer function':44s} {'calls':>9s} {'self_s':>9s}"]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"{name:44s} {row['calls']:9d} {row['self_s']:9.3f}")
    return lines


# ---------------------------------------------------------------------------
# main

def parse_args(argv=None):
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0,
                   help="renames inputs and orders operations (default 0)")
    p.add_argument("--seconds", type=float, default=40.0,
                   help="measuring time: after one round of every operation"
                        ", rounds of the cheap ones run while one still fits")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--population", type=int, default=0,
                   help="input population: 0 default, 1 held-out")
    p.add_argument("--record", action="store_true",
                   help="record reference answers (checked by the oracles)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    if not (ROOT / "src" / "hierctl" / "__init__.py").exists():
        print(f"error: no hierctl sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    args = parse_args(argv)
    import gate
    from workloads import LIMIT_S, build_ops, names_back, nfa_params

    workdir = OUT_DIR / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    worker = None
    try:
        ops = build_ops(args.workload, args.population, args.seed,
                        str(workdir))
        back = names_back(args.workload, args.seed)
        universal = {}
        if args.workload == "gadgets":
            from hierctl.gadgets import random_nfa
            universal = {op.meta["nfa"]: gate.is_universal(
                random_nfa(nfa_params(op.meta["nfa"]))) for op in ops}
        setup_s, worker, reference = setup(args, str(workdir))
        if args.record:
            reference = {}
        report: list = []
        everything = list(range(len(ops)))
        t_start = time.perf_counter()
        replies, worker = run_round(args, ops, everything, worker,
                                    str(workdir), False, LIMIT_S, report)
        judged = judge_round(ops, replies, reference, back, universal,
                             report, check=not args.record)
        runs = [[(r, j)] for r, j in zip(replies, judged)]
        round_s = time.perf_counter() - t_start
        # repeat the cheap operations while another round fits the time
        cheap = [i for i, r in enumerate(replies)
                 if r["status"] == "ok" and r["t"] < REPEAT_BELOW_S]
        per_op = (round_s - sum(r["t"] for r in replies)) / len(ops)
        next_s = sum(replies[i]["t"] + per_op for i in cheap)
        rounds = 1
        while cheap and not (args.trace or args.record) and \
                rounds < MAX_ROUNDS and \
                time.perf_counter() - t_start + next_s <= args.seconds:
            t0 = time.perf_counter()
            again, worker = run_round(args, ops, cheap, worker, str(workdir),
                                      False, LIMIT_S, report)
            for i, r in zip(cheap, again):
                runs[i].append((r, judge_repeat(ops[i], runs[i][0], r,
                                                reference, back, report)))
            next_s = time.perf_counter() - t0
            rounds += 1
        if args.trace:
            worker.stop()
            worker = Worker(args, str(workdir), trace=True)
            traced_replies, worker = run_round(
                args, ops, everything, worker, str(workdir), True, LIMIT_S,
                report)
            judge_round(ops, traced_replies, reference, back, universal,
                        report)
    finally:
        if worker is not None:
            worker.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    metrics, counts = end_to_end(setup_s, runs, LIMIT_S)
    for op, r, (verdict, _, summary) in zip(ops, replies, judged):
        if r["status"] == "overrun":
            report.append(f"overrun {op.oid} at the {LIMIT_S:g} s limit")
        elif summary["outcome"] == "inconclusive":
            report.append(f"inconclusive {op.oid} in {r['t']:.2f} s")
    report.append(f"workload {args.workload}, population "
                  f"{args.population}, seed {args.seed}: {len(ops)} "
                  f"operations ({len(cheap)} under {REPEAT_BELOW_S:g} s run "
                  f"{rounds} times, {counts['attempted']} runs); latency "
                  f"samples: {len(ops)}, the median run of each operation;"
                  f" failed_share {counts['failed_ops'] / len(ops):g}")
    report.append(f"machine speed: calibration took {counts['speed']:.3f} x "
                  f"its reference time; raw wall {counts['raw_wall_s']:.3f}"
                  f" s; times below are at the reference speed")
    for name, unit in END_TO_END:
        report.append(f"{name} = {metrics[name]:.6g} {unit}")
    if args.record:
        write_reference(args, ops, judged, back)
    if args.trace:
        import layertrace
        layers, table = per_layer(traced_replies, replies, LIMIT_S)
        report.append("per-layer self time (traced round, raw seconds):")
        report.extend(self_time_table(table))
        report.append(f"tracing overhead {layers['trace.overhead_s']:.3f} s;"
                      f" layer self time {layers['trace.layer_self_s']:.3f} s"
                      f" against untraced wall "
                      f"{layers['trace.untraced_wall_s']:.3f} s (at the "
                      f"reference speed)")
        write_trace(args, ops, traced_replies, table, layers)
        units = layer_units()
        shown = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
    else:
        shown = {name: {"value": metrics[name], "unit": unit}
                 for name, unit in END_TO_END}
    for line in report:
        print(line)
    print(json.dumps({"correct": counts["failed"] == 0,
                      "attempted": counts["attempted"],
                      "failed": counts["failed"], "metrics": shown}))
    return 0


def write_reference(args, ops, judged, back) -> None:
    """Record outcome and digest per operation, oracle-checked."""
    import gate
    path = REFERENCE_DIR / f"p{args.population}.json"
    data = {"population": args.population, "ops": {}}
    if path.exists():
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    for op, (verdict, reason, summary) in zip(ops, judged):
        entry = {"outcome": summary["outcome"], "digest": summary["digest"]}
        if summary["outcome"] in gate.DECISIVE:
            entry["oracle"] = gate.oracle_check(op, summary, back)
            if entry["oracle"] == "contradicted":
                raise SystemExit(f"oracle contradicts {op.oid}; not recorded")
        data["ops"][op.oid] = entry
    data["ops"] = dict(sorted(data["ops"].items()))
    REFERENCE_DIR.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_trace(args, ops, results, table, layers) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / (f"trace-{args.workload}-p{args.population}"
                      f"-s{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "population": args.population, "layers": table,
                   "metrics": layers,
                   "span_fields": ["id", "parent", "name", "start", "end",
                                   "extra"],
                   "ops": [{"op": op.oid, "status": r["status"],
                            "t": r["t"], "spans": r["spans"]}
                           for op, r in zip(ops, results)]}, fh)
    print(f"spans written to {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
