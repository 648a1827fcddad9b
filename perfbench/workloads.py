"""Operation lists of the three benchmark workloads.

A workload is a fixed population of generated inputs (chosen by
`population`) and one operation per (input, check) pair. The workload seed
renames every state and event with an order-preserving prefix swap and
shuffles the order in which operations run: each seed gives hierctl
different inputs that pose the same problems, so verdicts and costs are
comparable across seeds and a result maps back to one reference answer.

`build_ops` runs in a fresh worker process during set-up and in the parent
for the correctness gate; both see the same list for the same arguments.
"""

from __future__ import annotations

import os
import pickle
import random
import re
from dataclasses import dataclass, field

from hierctl.automata import Alphabet, Automaton, Event
from hierctl.gadgets import (GeneratorParams, gadget_loc, gadget_moc,
                             gadget_oc, random_nfa, random_plant,
                             random_sublanguage)
from hierctl.hierarchy import build_context
from hierctl.saut import serialize_automaton

WORKLOADS = ("plants", "gadgets", "cli-mix")

# Per-operation time limit (seconds); an operation still running at the
# limit is interrupted and counts as an overrun at the limit.
LIMIT_S = 10.0

PLANT_LADDER = ((8, 0.4, 20), (16, 0.35, 12), (32, 0.35, 12))
PLANT_CHECKS = ("oc", "moc", "loc", "observer", "lcc")
PLANT_BUDGET = 2000
GADGET_NFAS = 16
GADGET_BUDGET = 3000
# gadget -> checks run on it: its own property first, then the crit-4
# cross-checks of OC and MOC
GADGET_CHECKS = {"oc": ("oc", "moc"), "moc": ("moc", "oc"),
                 "loc": ("loc", "oc", "moc")}
GADGET_BUILDERS = {"oc": gadget_oc, "moc": gadget_moc, "loc": gadget_loc}
CLI_BIG = 12           # ~50-state plants: synth and spec checks
CLI_BIG_MIN_STATES = 32
CLI_SMALL = 32         # 8-state plants: two-level pipelines
CLI_HIER_BUDGET = 300

# Name prefixes a seed may swap in. All are lowercase letters, so every
# comparison with digits, quotes and the punctuation hierctl puts into
# derived names keeps its outcome.
STATE_PREFIXES = ("s", "q", "st", "node", "x", "loc", "k")
EVENT_PREFIXES = ("ev", "a", "act", "t", "u", "sig", "m")


@dataclass
class Op:
    """One timed operation.

    `oid` names the operation independently of the seed, e.g.
    ``plants/n32-s9/oc``. `call` is ("check", name, budget) for a library
    check on the pickled plant in `payload`, or ("cli", argv) for an
    in-process `hierctl.cli.main` call whose `--out` file is `out`.
    """

    oid: str
    call: tuple
    payload: bytes = b""
    out: str | None = None
    meta: dict = field(default_factory=dict)


@dataclass
class Renaming:
    """Order-preserving renaming of canonical names for one seed."""

    state_prefix: str
    event_prefix: str

    def state(self, name: str) -> str:
        return self.state_prefix + name[1:]

    def event(self, name: str) -> str:
        return self.event_prefix + name[1:]

    def event_back(self, canonical_prefix: str):
        """Map renamed event names back to the canonical ones, also inside
        the pair and quad labels of witness sequences ("u1:-")."""
        token = re.compile(r"(?<![A-Za-z])" + re.escape(self.event_prefix)
                           + r"(?=\d)")

        def back(name: str) -> str:
            return token.sub(canonical_prefix, name)
        return back


def renaming_for(seed: int) -> Renaming:
    rng = random.Random(seed * 7919 + 1)
    return Renaming(rng.choice(STATE_PREFIXES), rng.choice(EVENT_PREFIXES))


def names_back(workload: str, seed: int):
    """Map the event names a seed gave back to the canonical ones."""
    canonical = "a" if workload == "gadgets" else "e"
    return renaming_for(seed).event_back(canonical)


def rename(a: Automaton, ren: Renaming) -> Automaton:
    """Same automaton with every state and event renamed, order kept."""
    ev = {e.name: ren.event(e.name) for e in a.alphabet.events}
    st = {s: ren.state(s) for s in a.states}
    alphabet = Alphabet(tuple(Event(ev[e.name], *e.flags)
                              for e in a.alphabet.events))
    return Automaton(alphabet, tuple(st[s] for s in a.states),
                     frozenset((st[p], ev[x], st[q])
                               for (p, x, q) in a.transitions),
                     frozenset(st[s] for s in a.initial),
                     frozenset(st[s] for s in a.marked))


def plant_params(n: int, density: float, seed: int) -> GeneratorParams:
    return GeneratorParams(states=n, events=5, transition_density=density,
                           seed=seed)


def nfa_params(seed: int) -> GeneratorParams:
    """The crit-4 NFA population of the acceptance suite."""
    return GeneratorParams(states=2 + seed % 3, events=2 + seed % 2,
                           transition_density=0.35, seed=seed)


def _plants(population: int, ren: Renaming) -> list[Op]:
    ops = []
    base = 1000 * population
    for n, density, count in PLANT_LADDER:
        for seed in range(base, base + count):
            g = random_plant(plant_params(n, density, seed))
            data = pickle.dumps(rename(g, ren))
            for chk in PLANT_CHECKS:
                budget = PLANT_BUDGET if chk in ("oc", "moc", "loc") else None
                ops.append(Op(f"plants/n{n}-s{seed}/{chk}",
                              ("check", chk, budget), data,
                              meta={"plant": ("plant", n, density, seed),
                                    "prop": chk}))
    return ops


def _gadgets(population: int, ren: Renaming) -> list[Op]:
    ops = []
    seed = 1000 * population
    nfas = 0
    while nfas < GADGET_NFAS:
        a = random_nfa(nfa_params(seed))
        if a.states and a.initial:
            nfas += 1
            renamed = rename(a, ren)
            for gname, checks in GADGET_CHECKS.items():
                data = pickle.dumps(GADGET_BUILDERS[gname](renamed))
                for chk in checks:
                    ops.append(Op(f"gadgets/nfa-s{seed}/{gname}/{chk}",
                                  ("check", chk, GADGET_BUDGET), data,
                                  meta={"plant": ("gadget", gname, seed),
                                        "nfa": seed, "gadget": gname,
                                        "prop": chk}))
        seed += 1
    return ops


def cli_big_inputs(seed: int):
    """(plant, ambient C, spec K) with K ⊆ C ⊆ L(G), all prefix-closed."""
    g = random_plant(plant_params(64, 0.4, seed))
    c = random_sublanguage(g, 0.1, seed + 1000)
    k = random_sublanguage(c, 0.2, seed + 2000)
    return g, c, k


def cli_small_inputs(seed: int):
    """(plant, high-level spec) for the two-level pipelines."""
    g = random_plant(plant_params(8, 0.4, seed))
    if not g.states:
        return None
    spec = random_sublanguage(build_context(g).abstraction, 0.3, seed + 2000)
    if not spec.states:
        return None
    return g, spec


def _cli(population: int, ren: Renaming, workdir: str) -> list[Op]:
    ops = []

    def write(name: str, a: Automaton) -> str:
        path = os.path.join(workdir, name + ".saut")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(serialize_automaton(rename(a, ren)))
        return path

    seed, big = 1000 * population, 0
    while big < CLI_BIG:
        g, c, k = cli_big_inputs(seed)
        if len(g.states) >= CLI_BIG_MIN_STATES:
            big += 1
            tag = f"big-s{seed}"
            gp, cp, kp = write(tag + "-g", g), write(tag + "-c", c), \
                write(tag + "-k", k)
            meta = {"plant": ("cli-big", seed)}
            out = os.path.join(workdir, tag + "-suprelobs.out.saut")
            ops.append(Op(f"cli-mix/{tag}/synth-supn",
                          ("cli", ["--json", "synth", "supn", kp, gp]),
                          meta=dict(meta, cmd="supn")))
            ops.append(Op(f"cli-mix/{tag}/synth-suprelobs",
                          ("cli", ["--json", "--out", out, "synth",
                                   "suprelobs", kp, cp, gp]),
                          out=out, meta=dict(meta, cmd="suprelobs")))
            for prop in ("controllability", "observability", "normality"):
                ops.append(Op(f"cli-mix/{tag}/check-{prop}",
                              ("cli", ["--json", "check", prop, kp, gp]),
                              meta=dict(meta, cmd=prop)))
            ops.append(Op(f"cli-mix/{tag}/check-relobs",
                          ("cli", ["--json", "check", "relobs", kp, cp, gp]),
                          meta=dict(meta, cmd="relobs")))
        seed += 1

    seed, small = 1000 * population, 0
    while small < CLI_SMALL:
        pair = cli_small_inputs(seed)
        if pair is not None:
            small += 1
            tag = f"small-s{seed}"
            gp, kp = write(tag + "-g", pair[0]), write(tag + "-k", pair[1])
            for kind in ("verify", "synth-normal", "synth-relobs"):
                ops.append(Op(f"cli-mix/{tag}/hier-{kind}",
                              ("cli", ["--json", "--budget",
                                       str(CLI_HIER_BUDGET), "hier", kind,
                                       gp, kp]),
                              meta={"plant": ("cli-small", seed),
                                    "cmd": "hier-" + kind}))
        seed += 1
    return ops


def build_ops(workload: str, population: int, seed: int,
              workdir: str) -> list[Op]:
    """The workload's operations in the seed's run order."""
    ren = renaming_for(seed)
    if workload == "plants":
        ops = _plants(population, ren)
    elif workload == "gadgets":
        ops = _gadgets(population, ren)
    elif workload == "cli-mix":
        ops = _cli(population, ren, workdir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(ops)
    return ops


def canonical_input(meta_plant: tuple) -> Automaton | tuple:
    """Regenerate the un-renamed input behind an operation (for oracles)."""
    kind = meta_plant[0]
    if kind == "plant":
        _, n, density, seed = meta_plant
        return random_plant(plant_params(n, density, seed))
    if kind == "gadget":
        _, gname, seed = meta_plant
        return GADGET_BUILDERS[gname](random_nfa(nfa_params(seed)))
    if kind == "cli-big":
        return cli_big_inputs(meta_plant[1])
    return cli_small_inputs(meta_plant[1])
