"""Fork server that runs the timed operations, one child per operation.

The parent starts it as a fresh interpreter (`python3 worker.py ...`): it
imports hierctl, builds the workload's inputs, reports ready, then answers
one operation index at a time. For each operation it forks a child, so
every operation starts from the same heap whatever ran before it, and an
overrun or a crash leaves nothing behind. The child loads a fresh copy of
its input (unpickled, so no `cached_property` value carries over), collects
garbage, runs the operation under an interval timer that interrupts it at
the limit, and writes the reply itself.
"""

from __future__ import annotations

import contextlib
import gc
import io
import os
import pickle
import resource
import signal
import sys
import traceback
from time import perf_counter


class OpTimeout(BaseException):
    """Raised inside an operation when it reaches the limit.

    A BaseException, so hierctl's own `except Exception` handlers cannot
    swallow it.
    """


def _alarm(signum, frame):
    raise OpTimeout()


def calibrate() -> float:
    """Seconds for a fixed piece of dict, tuple and frozenset churn.

    Run right before each operation, it measures how fast the machine is
    at that moment; see `run.normalize`.
    """
    t0 = perf_counter()
    d = {}
    for i in range(1500):
        d[(i % 97, str(i))] = frozenset((i, i + 1, i % 7))
    return perf_counter() - t0


def _verdict_summary(v) -> dict:
    return {"outcome": v.outcome,
            "witness": ({k: list(x) for k, x in v.witness.strings.items()}
                        if v.witness else None),
            "detail": dict(v.detail), "budget": v.budget}


def _run(op, limit: float, rec):
    """Run one operation; returns (status, seconds, calibration, summary)."""
    from hierctl import cli, hierarchy

    kind = op.call[0]
    if kind == "check":
        _, name, budget = op.call
        fn = getattr(hierarchy, "check_" + name)
        args = (pickle.loads(op.payload),) + \
            ((budget,) if budget is not None else ())
    else:
        if op.out and os.path.exists(op.out):
            os.remove(op.out)
        args = (list(op.call[1]),)
        out, err = io.StringIO(), io.StringIO()
    gc.collect()
    cal = calibrate()
    if rec is not None:
        rec.take()
        root = rec.open()
    signal.setitimer(signal.ITIMER_REAL, limit)
    t0 = perf_counter()
    try:
        if kind == "check":
            result = fn(*args)
        else:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                result = cli.main(*args)
        t1 = perf_counter()
        status = "ok"
    except OpTimeout:
        t1 = t0 + limit
        status = "overrun"
    except (Exception, SystemExit):
        t1 = perf_counter()
        status = "error"
        result = traceback.format_exc(limit=-3)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    if rec is not None:
        rec.close(*root, "bench.op", t0, t1)
    if status == "overrun":
        summary = None
    elif status == "error":
        summary = {"error": result}
    elif kind == "check":
        summary = _verdict_summary(result)
    else:
        text = None
        if op.out and os.path.exists(op.out):
            with open(op.out, encoding="utf-8") as fh:
                text = fh.read()
        summary = {"rc": result, "stdout": out.getvalue(),
                   "stderr": err.getvalue(), "out": text}
    return status, min(t1 - t0, limit), cal, summary


def _child(op, limit: float, rec, send) -> None:
    status, seconds, cal, summary = _run(op, limit, rec)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    send({"status": status, "t": seconds, "cal": cal, "rss_mb": rss_mb,
          "summary": summary,
          "spans": rec.take() if rec is not None else None})


def main(argv) -> None:
    """Worker entry point: `worker.py WORKLOAD POPULATION SEED WORKDIR TRACE
    LIMIT`. Requests (operation indices, None to stop) arrive pickled on
    stdin; replies go pickled to the original stdout, which is first moved
    aside so that stray prints cannot corrupt the stream."""
    workload, population, seed, workdir, trace, limit = argv
    replies = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    requests = sys.stdin.buffer
    signal.signal(signal.SIGALRM, _alarm)
    rec = None
    if trace == "1":
        from layertrace import install
        rec = install()
    import hierctl.cli  # noqa: F401  (so no child pays for the import)
    from workloads import build_ops
    ops = build_ops(workload, int(population), int(seed), workdir)

    def send(obj) -> None:
        pickle.dump(obj, replies, protocol=pickle.HIGHEST_PROTOCOL)
        replies.flush()

    gc.collect()
    gc.freeze()
    send(("ready", len(ops)))
    while True:
        i = pickle.load(requests)
        if i is None:
            break
        pid = os.fork()
        if pid == 0:
            code = 0
            try:
                _child(ops[i], float(limit), rec, send)
            except BaseException:
                traceback.print_exc()
                code = 1
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        if status != 0:
            send({"status": "error", "t": 0.0, "cal": None, "rss_mb": None,
                  "summary": {"error": f"operation process ended with "
                                       f"wait status {status}"},
                  "spans": None})


if __name__ == "__main__":
    sys.path[:0] = [os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")]
    main(sys.argv[1:])
