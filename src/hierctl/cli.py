"""Command-line front end.

Exit codes follow the verdict: 0 holds, 1 violated, 2 inconclusive,
3 usage or input error. Synthesis, gadget, and generator commands exit 0
on success. With --json the full machine-readable report goes to stdout;
--out writes a synthesized or generated automaton in .saut form.
"""

from __future__ import annotations

import argparse
import json
import sys

from .automata import (Automaton, AutomataError, all_marked, intersect,
                       prefix_close, trim, widen_alphabet)
from .checks import (check_controllability, check_nonconflicting,
                     check_normality, check_observability,
                     check_relative_observability, sup_normal_closed,
                     sup_relobs_closed)
from .gadgets import (GeneratorParams, gadget_loc, gadget_moc, gadget_oc,
                      random_plant)
from .hierarchy import (DEFAULT_BUDGET, check_lcc, check_loc, check_moc,
                        check_moc_modular, check_observer, check_oc,
                        conform_spec, hier_synth_normal, hier_synth_relobs,
                        hier_verify, lemma_distribute_q)
from .oracle import PROPERTY_ORACLES
from .saut import SautParseError, parse_automaton, serialize_automaton
from .verdicts import HOLDS, INCONCLUSIVE, VIOLATED, Verdict

EXIT = {HOLDS: 0, VIOLATED: 1, INCONCLUSIVE: 2}
EXIT_ERROR = 3


def _load(path: str) -> Automaton:
    with open(path, encoding="utf-8") as fh:
        return parse_automaton(fh.read(), allow_reserved=True)


def _spec_for(k: Automaton, g: Automaton) -> Automaton:
    """Reinterpret a specification over the plant alphabet."""
    return widen_alphabet(conform_spec(k, g.alphabet), g.alphabet)


def _jsonify(value):
    if isinstance(value, Verdict):
        return value.to_json()
    if isinstance(value, Automaton):
        return {"states": len(value.states),
                "saut": serialize_automaton(value)}
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if hasattr(value, "to_json"):
        return value.to_json()
    return value


def _collect_verdicts(value) -> list:
    if isinstance(value, Verdict):
        return [value]
    if isinstance(value, dict):
        out = []
        for v in value.values():
            out.extend(_collect_verdicts(v))
        return out
    return []


def _worst_exit(verdicts) -> int:
    codes = [EXIT[v.outcome] for v in verdicts] or [0]
    for code in (1, 2):
        if code in codes:
            return code
    return 0


def _emit(args, report: dict, text_lines) -> None:
    if args.json:
        json.dump(_jsonify(report), sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        for line in text_lines:
            print(line)


def _describe(v: Verdict) -> str:
    if v.witness is None:
        return v.outcome
    parts = [f"{k}={' '.join(x) if x else 'ε'}"
             for k, x in sorted(v.witness.strings.items())]
    return f"{v.outcome} ({'; '.join(parts)})"


def _write_out(args, aut: Automaton) -> None:
    text = serialize_automaton(aut)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    elif not args.json:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_check(args) -> int:
    prop = args.property
    report: dict = {"command": "check", "property": prop}
    if prop in ("oc", "moc", "loc"):
        g = _load(args.files[0])
        fn = {"oc": check_oc, "moc": check_moc, "loc": check_loc}[prop]
        v = fn(g, args.budget)
        inputs = (g,)
    elif prop in ("observer", "lcc"):
        g = _load(args.files[0])
        v = (check_observer if prop == "observer" else check_lcc)(g)
        inputs = (g,)
    elif prop == "nonconflicting":
        a, b = map(_load, args.files[:2])
        v = check_nonconflicting(a, b)
        inputs = (a, b)
    elif prop == "relobs":
        k, c, g = map(_load, args.files[:3])
        k, c = _spec_for(k, g), _spec_for(c, g)
        v = check_relative_observability(k, c, g)
        inputs = (k, c, g)
    else:
        k, g = map(_load, args.files[:2])
        k = _spec_for(k, g)
        fn = {"controllability": check_controllability,
              "observability": check_observability,
              "normality": check_normality}[prop]
        v = fn(k, g)
        inputs = (k, g)
    report["result"] = v
    lines = [f"{prop}: {_describe(v)}"]
    if args.oracle_bound is not None and prop in PROPERTY_ORACLES:
        rep = PROPERTY_ORACLES[prop](*inputs, args.oracle_bound)
        report["oracle"] = rep
        lines.append(f"oracle (bound {rep.bound}): "
                     f"{'no violation found' if rep.ok else 'violated'}")
    _emit(args, report, lines)
    return EXIT[v.outcome]


def _cmd_synth(args) -> int:
    if args.kind == "supn":
        k, g = map(_load, args.files[:2])
        g = all_marked(g)
        k = prefix_close(trim(_spec_for(k, g)))
        result = sup_normal_closed(intersect(k, g), g)
        report = {"command": "synth", "kind": "supn",
                  "result_states": len(result.states)}
        lines = [f"supn: {len(result.states)} states"]
    else:
        k, c, g = map(_load, args.files[:3])
        g = all_marked(g)
        k = prefix_close(trim(_spec_for(k, g)))
        c = prefix_close(trim(_spec_for(c, g)))
        result, rep = sup_relobs_closed(intersect(k, g), intersect(c, g),
                                        g)
        report = {"command": "synth", "kind": "suprelobs",
                  "result_states": len(result.states), "report": rep}
        lines = [f"suprelobs: {len(result.states)} states, "
                 f"{'converged' if rep.converged else 'iteration cap hit'} "
                 f"after {rep.rounds} rounds"]
    report["result"] = result
    _emit(args, report, lines)
    _write_out(args, result)
    return 0


def _cmd_hier(args) -> int:
    g = _load(args.files[0])
    k = _load(args.files[1])
    if args.kind == "verify":
        report = hier_verify(g, k, args.budget)
        lines = ["hypotheses:"]
        for name, v in report["hypotheses"].items():
            lines.append(f"  {name}: {_describe(v)}")
        lines.append("properties (high / low / agree):")
        for name, entry in report["properties"].items():
            lines.append(f"  {name}: {entry['high'].outcome} / "
                         f"{entry['low'].outcome} / {entry['agree']}")
        _emit(args, {"command": "hier-verify", **report}, lines)
        return _worst_exit(_collect_verdicts(report))
    fn = hier_synth_normal if args.kind == "synth-normal" else hier_synth_relobs
    report = fn(g, k, args.budget)
    lines = [
        f"low-level result: {len(report['low'].states)} states",
        f"lifted high-level result: {len(report['lifted'].states)} states",
        f"low ⊆ lift: {report['low_in_lift'].outcome}",
        f"lift ⊆ low: {report['lift_in_low'].outcome}",
        f"moc: {_describe(report['moc'])}",
    ]
    _emit(args, {"command": f"hier-{args.kind}", **report}, lines)
    _write_out(args, report["low"])
    return 0


def _cmd_modular(args) -> int:
    components = [_load(f) for f in args.files]
    if args.kind == "moc":
        composed, per = check_moc_modular(components, args.budget)
        lines = [f"component {i}: {_describe(v)}" for i, v in enumerate(per)]
        lines.append(f"composition: {_describe(composed)}")
        _emit(args, {"command": "modular-moc", "composition": composed,
                     "components": per}, lines)
        return EXIT[composed.outcome]
    v = lemma_distribute_q(components)
    _emit(args, {"command": "modular-distribute", "result": v},
          [f"abstraction distributes over composition: {_describe(v)}"])
    return EXIT[v.outcome]


def _cmd_gadget(args) -> int:
    a = _load(args.files[0])
    fn = {"oc": gadget_oc, "moc": gadget_moc, "loc": gadget_loc}[args.kind]
    out = fn(a)
    _emit(args, {"command": f"gadget-{args.kind}", "result": out},
          [f"gadget-{args.kind}: {len(out.states)} states, "
           f"{len(out.alphabet)} events"])
    _write_out(args, out)
    return 0


def _cmd_random(args) -> int:
    params = GeneratorParams(
        states=args.states, events=args.events,
        transition_density=args.density, seed=args.seed,
        deterministic=not args.nondeterministic)
    out = random_plant(params)
    _emit(args, {"command": "random", "result": out},
          [f"random plant: {len(out.states)} states"])
    _write_out(args, out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hierctl",
        description="verification and synthesis for hierarchical "
                    "supervisory control under partial observation")
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="difference-sequence enumeration budget")
    parser.add_argument("--oracle-bound", type=int, default=None,
                        help="also run the bounded brute-force oracle")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable report on stdout")
    parser.add_argument("--out", default=None,
                        help="write the resulting automaton to this file")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="decide a property")
    check.add_argument("property", choices=[
        "oc", "loc", "moc", "observer", "lcc", "controllability",
        "observability", "normality", "relobs", "nonconflicting"])
    check.add_argument("files", nargs="+", metavar="FILE")
    check.set_defaults(handler=_cmd_check)

    synth = sub.add_parser("synth", help="supremal sublanguage synthesis")
    synth.add_argument("kind", choices=["supn", "suprelobs"])
    synth.add_argument("files", nargs="+", metavar="FILE")
    synth.set_defaults(handler=_cmd_synth)

    hier = sub.add_parser("hier", help="two-level pipelines (plant, spec)")
    hier.add_argument("kind", choices=["verify", "synth-normal", "synth-relobs"])
    hier.add_argument("files", nargs=2, metavar="FILE")
    hier.set_defaults(handler=_cmd_hier)

    modular = sub.add_parser("modular", help="component-wise results")
    modular.add_argument("kind", choices=["moc", "distribute"])
    modular.add_argument("files", nargs="+", metavar="FILE")
    modular.set_defaults(handler=_cmd_modular)

    gadget = sub.add_parser("gadget", help="hardness gadget construction")
    gadget.add_argument("kind", choices=["oc", "moc", "loc"])
    gadget.add_argument("files", nargs=1, metavar="FILE")
    gadget.set_defaults(handler=_cmd_gadget)

    rand = sub.add_parser("random", help="seeded random plant")
    rand.add_argument("--states", type=int, default=5)
    rand.add_argument("--events", type=int, default=3)
    rand.add_argument("--density", type=float, default=0.45)
    rand.add_argument("--seed", type=int, default=0)
    rand.add_argument("--nondeterministic", action="store_true")
    rand.set_defaults(handler=_cmd_random)
    return parser


def _expected_files(args) -> int | None:
    if args.command != "check":
        return None
    return {"relobs": 3, "nonconflicting": 2, "controllability": 2,
            "observability": 2, "normality": 2}.get(args.property, 1)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    want = _expected_files(args)
    if want is not None and len(args.files) != want:
        print(f"error: 'check {args.property}' takes exactly {want} file(s)",
              file=sys.stderr)
        return EXIT_ERROR
    try:
        return args.handler(args)
    except (AutomataError, SautParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
