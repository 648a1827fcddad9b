"""The `.saut` line-oriented automaton format.

Grammar (sections in this fixed order, lines starting with '#' are comments):

    event <name> <c|u> <o|x> <hi|lo>
    state <name>
    initial <name>
    marked <name>
    trans <src> <event> <dst>

'@' and '#' are reserved event names injected by the hardness-gadget
builders; user files may not declare them unless `allow_reserved` is set
(the CLI sets it so gadget output files can be fed back in).
"""

from __future__ import annotations

from .automata import Alphabet, AutomataError, Automaton, Event, _trusted

# keyword -> section, the sections in their fixed order
_SECTIONS = {"event": 0, "state": 1, "initial": 2, "marked": 3, "trans": 4}
RESERVED_EVENTS = ("@", "#")


class SautParseError(AutomataError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def parse_automaton(text: str, *, allow_reserved: bool = False) -> Automaton:
    """The automaton that `text`, in `.saut` form, spells.

    One pass reads the lines and checks each one once, in place: its
    keyword and section order, its field count, then its names against
    what the lines above it declared, so a `SautParseError` names the
    first fault of the first faulty line. What passes is valid, and the
    automaton is built by `_trusted`, not walked again by
    `Automaton.__post_init__`; only the alphabet is checked by
    `Alphabet(...)`. One leading byte-order mark is ignored."""
    events: dict[str, Event] = {}   # in file order, as are the states
    states: dict[str, None] = {}
    initial: set = set()
    marked: set = set()
    trans: set = set()
    section = 0

    for lineno, raw in enumerate(text.removeprefix("\ufeff").splitlines(),
                                 start=1):
        parts = raw.split()
        if not parts:
            continue
        kw = parts[0]
        want = _SECTIONS.get(kw)
        if want == 4:   # trans: most lines, and no section follows
            if len(parts) != 4:
                raise SautParseError(lineno, "expected: trans <src> <event> <dst>")
            _, src, ev, dst = parts
            if src not in states:
                raise SautParseError(lineno, f"unknown state {src!r}")
            if dst not in states:
                raise SautParseError(lineno, f"unknown state {dst!r}")
            if ev not in events:
                raise SautParseError(lineno, f"unknown event {ev!r}")
            trans.add((src, ev, dst))
            section = want
            continue
        if want is None:
            if kw.startswith("#"):
                continue
            raise SautParseError(lineno, f"unknown keyword {kw!r}")
        if want < section:
            raise SautParseError(lineno, f"{kw!r} section out of order")
        section = want
        if want == 0:
            if len(parts) != 5:
                raise SautParseError(lineno, "expected: event <name> <c|u> <o|x> <hi|lo>")
            _, name, cflag, oflag, hflag = parts
            if name in events:
                raise SautParseError(lineno, f"duplicate event {name!r}")
            if name in RESERVED_EVENTS and not allow_reserved:
                raise SautParseError(lineno, f"event name {name!r} is reserved for gadgets")
            if cflag not in ("c", "u") or oflag not in ("o", "x") or hflag not in ("hi", "lo"):
                raise SautParseError(lineno, f"bad flags for event {name!r}")
            events[name] = Event(name, cflag == "c", oflag == "o", hflag == "hi")
        elif len(parts) != 2:
            raise SautParseError(lineno, f"expected: {kw} <name>")
        elif want == 1:
            if parts[1] in states:
                raise SautParseError(lineno, f"duplicate state {parts[1]!r}")
            states[parts[1]] = None
        elif parts[1] not in states:
            raise SautParseError(lineno, f"unknown state {parts[1]!r}")
        else:
            (initial if want == 2 else marked).add(parts[1])

    return _trusted(Alphabet(tuple(events.values())), tuple(states),
                    frozenset(trans), frozenset(initial), frozenset(marked))


def serialize_automaton(a: Automaton) -> str:
    """Canonical text form; two serializations of equal automata are identical.

    Transitions are listed by source state, event and target, in state
    and alphabet order: the one integer rank (src·|Σ| + event)·n + dst
    orders them as the triple would, with no tuple built per transition."""
    lines = []
    for e in a.alphabet.events:
        lines.append("event {} {} {} {}".format(
            e.name, "c" if e.controllable else "u",
            "o" if e.observable else "x", "hi" if e.highlevel else "lo"))
    for s in a.states:
        lines.append(f"state {s}")
    for s in a.sorted_states(a.initial):
        lines.append(f"initial {s}")
    for s in a.sorted_states(a.marked):
        lines.append(f"marked {s}")
    idx = a.state_index
    eidx = {e: i for i, e in enumerate(a.alphabet.names)}
    n, k = len(idx), len(eidx)
    for (src, ev, dst) in sorted(
            a.transitions,
            key=lambda t: (idx[t[0]] * k + eidx[t[1]]) * n + idx[t[2]]):
        lines.append(f"trans {src} {ev} {dst}")
    return "\n".join(lines) + "\n"
