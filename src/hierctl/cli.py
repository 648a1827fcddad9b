"""Command-line front end.

Exit codes follow the verdict: 0 holds, 1 violated, 2 inconclusive,
3 usage or input error. Synthesis, gadget, and generator commands exit 0
on success. With --json the full machine-readable report goes to stdout;
--out writes a synthesized or generated automaton in .saut form.

What `check` offers is one table, `_CHECKS`: per property its check, the
files it takes, whether it takes --budget and whether its leading files
are specifications conformed to the plant's alphabet; the parser's
choices, the file-count error and the oracle run all read it.

The grammar is written once, in `_build_parser`, and `main` hands every
argv to the one parser it builds, so usage errors keep argparse's text.
argparse matches an argv with regexes that a process compiles on its first
parse; parsing one argv per subcommand at import compiles them once, so
forked children of a host that calls `main` repeatedly do not pay for them
on every call.
"""

from __future__ import annotations

import argparse
import json
import sys

from .automata import (Automaton, AutomataError, all_marked, intersect,
                       prefix_close)
from .checks import (_require_inclusion, _sup_normal, _sup_relobs,
                     check_controllability, check_nonconflicting,
                     check_normality, check_observability,
                     check_relative_observability)
from .gadgets import (GeneratorParams, gadget_loc, gadget_moc, gadget_oc,
                      random_plant)
from .hierarchy import (DEFAULT_BUDGET, check_lcc, check_loc, check_moc,
                        check_moc_modular, check_observer, check_oc,
                        conform_spec, hier_synth_normal, hier_synth_relobs,
                        hier_verify, lemma_distribute_q)
from .saut import parse_automaton, serialize_automaton
from .verdicts import HOLDS, INCONCLUSIVE, VIOLATED, Verdict

EXIT = {HOLDS: 0, VIOLATED: 1, INCONCLUSIVE: 2}
EXIT_ERROR = 3


def _load(path: str) -> Automaton:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise AutomataError(f"{path} is not UTF-8 text: {exc}") from None
    return parse_automaton(text, allow_reserved=True)


def _saut(aut: Automaton, texts: dict) -> str:
    """The `.saut` text of `aut`, serialized once per call: `texts` maps
    the id of each automaton serialized so far, all alive in the call's
    report, to its text."""
    text = texts.get(id(aut))
    if text is None:
        text = texts[id(aut)] = serialize_automaton(aut)
    return text


def _jsonify(value, texts: dict):
    if isinstance(value, Automaton):
        return {"states": len(value.states), "saut": _saut(value, texts)}
    if isinstance(value, dict):
        return {k: _jsonify(v, texts) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v, texts) for v in value]
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
    return min(filter(None, (EXIT[v.outcome] for v in verdicts)), default=0)


def _emit(args, report: dict, text_lines, result: Automaton | None = None
          ) -> None:
    """The report, as JSON with --json and as `text_lines` without; then
    the synthesized or generated `result`, if any, in `.saut` form to the
    --out file, or to stdout after the text lines. The --out text is the
    one the JSON report holds, not a second serialization."""
    texts: dict = {}
    if args.json:
        json.dump(_jsonify(report, texts), sys.stdout, indent=2,
                  sort_keys=True)
        sys.stdout.write("\n")
    else:
        for line in text_lines:
            print(line)
    if result is None:
        return
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(_saut(result, texts))
    elif not args.json:
        sys.stdout.write(_saut(result, texts))


def _describe(v: Verdict) -> str:
    if v.witness is None:
        return v.outcome
    parts = [f"{k}={' '.join(x) if x else 'ε'}"
             for k, x in sorted(v.witness.strings.items())]
    return f"{v.outcome} ({'; '.join(parts)})"


# ---------------------------------------------------------------------------
# subcommand handlers

# `check`'s properties in `--help` order: (check, files it takes, whether
# it takes --budget, whether its leading files are specifications that
# are conformed to the alphabet of the last file, the plant)
_CHECKS = {
    "oc": (check_oc, 1, True, False),
    "loc": (check_loc, 1, True, False),
    "moc": (check_moc, 1, True, False),
    "observer": (check_observer, 1, False, False),
    "lcc": (check_lcc, 1, False, False),
    "controllability": (check_controllability, 2, False, True),
    "observability": (check_observability, 2, False, True),
    "normality": (check_normality, 2, False, True),
    "relobs": (check_relative_observability, 3, False, True),
    "nonconflicting": (check_nonconflicting, 2, False, False),
}

# `gadget`'s kinds oc, moc, loc, keyed by their builders' names so that
# no `check` property is spelled twice in this module
_GADGETS = {fn.__name__.removeprefix("gadget_"): fn
            for fn in (gadget_oc, gadget_moc, gadget_loc)}


def _cmd_check(args) -> int:
    prop = args.property
    fn, _, budget, specs = _CHECKS[prop]
    *head, g = map(_load, args.files)
    if specs:
        head = [conform_spec(k, g.alphabet) for k in head]
    inputs = (*head, g)
    v = fn(*inputs, args.budget) if budget else fn(*inputs)
    report: dict = {"command": "check", "property": prop, "result": v}
    lines = [f"{prop}: {_describe(v)}"]
    if args.oracle_bound is not None:
        from .oracle import PROPERTY_ORACLES   # the referee, loaded on use
        rep = PROPERTY_ORACLES[prop](*inputs, args.oracle_bound)
        report["oracle"] = rep
        lines.append(f"oracle (bound {rep.bound}): "
                     f"{'no violation found' if rep.ok else 'violated'}")
    _emit(args, report, lines)
    return EXIT[v.outcome]


def _cmd_synth(args) -> int:
    *specs, g = map(_load, args.files)
    g = all_marked(g)
    # each specification is closed, trim and all marked, as the bodies take
    # it, and included in L(G), so only K ⊆ C is left to check
    k, *c = [intersect(prefix_close(conform_spec(x, g.alphabet)), g)
             for x in specs]
    if args.kind == "supn":
        result, extra, tail = _sup_normal(k, g), {}, ""
    else:
        _require_inclusion(k, c[0], "sup_relobs_closed needs K ⊆ C")
        result, rep = _sup_relobs(k, c[0], g)
        extra = {"report": rep}
        tail = f", converged after {rep.rounds} rounds"
    _emit(args, {"command": "synth", "kind": args.kind, "result": result,
                 "result_states": len(result.states), **extra},
          [f"{args.kind}: {len(result.states)} states{tail}"], result)
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
    _emit(args, {"command": f"hier-{args.kind}", **report}, lines,
          report["low"])
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
    out = _GADGETS[args.kind](_load(args.files[0]))
    _emit(args, {"command": f"gadget-{args.kind}", "result": out},
          [f"gadget-{args.kind}: {len(out.states)} states, "
           f"{len(out.alphabet)} events"], out)
    return 0


def _cmd_random(args) -> int:
    params = GeneratorParams(
        states=args.states, events=args.events,
        transition_density=args.density, seed=args.seed,
        deterministic=not args.nondeterministic)
    out = random_plant(params)
    _emit(args, {"command": "random", "result": out},
          [f"random plant: {len(out.states)} states"], out)
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
    check.add_argument("property", choices=list(_CHECKS))
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
    gadget.add_argument("kind", choices=list(_GADGETS))
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


# Built once: parsing leaves the parser as it was, and `prog` is fixed.
_PARSER = _build_parser()

# argparse matches each parser's positionals and options with regexes that
# `re` compiles on first use and caches. One argv per subcommand, with every
# option, compiles them all here, at import, so that forked children of a
# host that calls `main` repeatedly inherit them rather than compile them on
# each call. A property and a gadget kind are taken from the tables that
# alone spell them.
for _argv in (["check", next(iter(_CHECKS)), "F"], ["synth", "supn", "F"],
              ["hier", "verify", "F", "F"], ["modular", "distribute", "F"],
              ["gadget", next(iter(_GADGETS)), "F"],
              ["random", "--states", "1", "--events", "1", "--density", "1",
               "--seed", "0", "--nondeterministic"]):
    _PARSER.parse_args(["--json", "--budget", "0", "--oracle-bound", "0",
                        "--out", "F", *_argv])


def _expected_files(args) -> tuple | None:
    """(subcommand, files it takes) for the commands whose file count
    their positional `nargs` leaves open, or None."""
    if args.command == "check":
        return f"check {args.property}", _CHECKS[args.property][1]
    if args.command == "synth":
        return f"synth {args.kind}", 2 if args.kind == "supn" else 3
    return None


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its usage error and exits 2, which means
        # "inconclusive"; --help exits 0
        if exc.code != 2:
            raise
        return EXIT_ERROR
    expected = _expected_files(args)
    if expected is not None and len(args.files) != expected[1]:
        print(f"error: '{expected[0]}' takes exactly {expected[1]} file(s)",
              file=sys.stderr)
        return EXIT_ERROR
    try:
        return args.handler(args)
    except (AutomataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
