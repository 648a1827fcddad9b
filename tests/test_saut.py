from __future__ import annotations

import json

import pytest

from hierctl.automata import Alphabet, AutomataError, Automaton, Event
from hierctl.gadgets import GeneratorParams, random_plant
from hierctl.hierarchy import (check_lcc, check_loc, check_moc,
                               check_observer, check_oc)
from hierctl.saut import SautParseError, parse_automaton, serialize_automaton

from conftest import DATA

VALID = """\
# a small two-state machine
event go c o hi
event stop u x lo
state s0
state s1
initial s0
marked s0
trans s0 go s1
trans s1 stop s0
"""


def test_parse_basic():
    a = parse_automaton(VALID)
    assert a.alphabet.names == ("go", "stop")
    assert a.alphabet.controllable == {"go"}
    assert a.alphabet.observable == {"go"}
    assert a.alphabet.highlevel == {"go"}
    assert a.initial == {"s0"}
    assert a.accepts_marked(("go", "stop"))


def test_roundtrip_is_canonical():
    a = parse_automaton(VALID)
    text = serialize_automaton(a)
    b = parse_automaton(text)
    assert serialize_automaton(b) == text
    assert a == b


def test_comment_lines_and_hash_event():
    text = VALID.replace("event stop u x lo", "event # u x lo")
    text = text.replace("trans s1 stop s0", "trans s1 # s0")
    a = parse_automaton(text, allow_reserved=True)
    assert "#" in a.alphabet
    with pytest.raises(SautParseError):
        parse_automaton(text)


@pytest.mark.parametrize("old, mutation, fragment", [
    ("event go c o hi", "event go c o hi\nevent go c o hi", "duplicate event"),
    ("event go c o hi", "badkw x", "unknown keyword"),
    ("event go c o hi", "event go c o wrong", "bad flags"),
    ("trans s1 stop s0", "trans s1 nosuch s0", "unknown event"),
])
def test_errors_carry_line_numbers(old, mutation, fragment):
    text = VALID.replace(old, mutation, 1)
    with pytest.raises(SautParseError) as err:
        parse_automaton(text)
    assert "line" in str(err.value)
    assert fragment in str(err.value)


def test_sections_must_stay_in_order():
    out_of_order = "state s0\nevent go c o hi\n"
    with pytest.raises(SautParseError) as err:
        parse_automaton(out_of_order)
    assert "out of order" in str(err.value)


def test_unknown_states_rejected():
    with pytest.raises(SautParseError):
        parse_automaton("event a c o hi\nstate s0\ninitial s9\n")


# Every `SautParseError` branch: (lines of the file, line number, message).
# The faulty line stands where its keyword's section lets it, unless the
# case is about the order of the sections.
_LINES = VALID.splitlines()


def _with(lineno: int, line: str) -> list:
    """VALID with its line `lineno` replaced by `line`."""
    lines = list(_LINES)
    lines[lineno - 1] = line
    return lines


PARSE_ERRORS = [
    # field counts, on all five line kinds
    (_with(2, "event go c o"), 2,
     "expected: event <name> <c|u> <o|x> <hi|lo>"),
    (_with(2, "event go c o hi lo"), 2,
     "expected: event <name> <c|u> <o|x> <hi|lo>"),
    (_with(4, "state"), 4, "expected: state <name>"),
    (_with(4, "state s0 s1"), 4, "expected: state <name>"),
    (_with(6, "initial"), 6, "expected: initial <name>"),
    (_with(7, "marked s0 s1"), 7, "expected: marked <name>"),
    (_with(8, "trans s0 go"), 8, "expected: trans <src> <event> <dst>"),
    (_with(9, "trans s1 stop s0 s0"), 9,
     "expected: trans <src> <event> <dst>"),
    # declarations and the names that must be declared
    (_with(5, "state s0"), 5, "duplicate state 's0'"),
    (_with(3, "event go u x lo"), 3, "duplicate event 'go'"),
    (_with(6, "initial s9"), 6, "unknown state 's9'"),
    (_with(7, "marked s9"), 7, "unknown state 's9'"),
    (_with(8, "trans s9 go s1"), 8, "unknown state 's9'"),
    (_with(8, "trans s0 go s9"), 8, "unknown state 's9'"),
    (_with(8, "trans s0 nosuch s1"), 8, "unknown event 'nosuch'"),
    (_with(3, "event @ u x lo"), 3, "event name '@' is reserved for gadgets"),
    (_with(3, "event # u x lo"), 3, "event name '#' is reserved for gadgets"),
    (_with(3, "event stop q x lo"), 3, "bad flags for event 'stop'"),
    (_with(3, "event stop u q lo"), 3, "bad flags for event 'stop'"),
    (_with(3, "event stop u x q"), 3, "bad flags for event 'stop'"),
    # keywords and the order of the sections
    (_with(4, "stat s0"), 4, "unknown keyword 'stat'"),
    (_with(4, "Event s0 c o hi"), 4, "unknown keyword 'Event'"),
    (_with(7, "state s2"), 7, "'state' section out of order"),
    ([*_LINES, "event late c o hi"], 10, "'event' section out of order"),
    ([*_LINES, "marked s1"], 10, "'marked' section out of order"),
    (["state s0", "initial s0", "event go c o hi"], 3,
     "'event' section out of order"),
    # comment and blank lines are skipped but counted
    (["#", "  # indented", "", "#event x c o hi", *_with(4, "stat s0")],
     8, "unknown keyword 'stat'"),
    ([*_LINES, "# trailing comment", "", "trans s0 go s9"], 12,
     "unknown state 's9'"),
    # a line with two faults reports the first in the order: keyword,
    # section, field count, then its names from left to right
    (_with(8, "trans x nosuch y"), 8, "unknown state 'x'"),
    (_with(8, "trans s0 nosuch y"), 8, "unknown state 'y'"),
    (_with(8, "trans x y"), 8, "expected: trans <src> <event> <dst>"),
    ([*_LINES, "state"], 10, "'state' section out of order"),
    (_with(3, "event go q q q"), 3, "duplicate event 'go'"),
    (_with(3, "event @ q q q"), 3, "event name '@' is reserved for gadgets"),
    (_with(6, "initial s0 s9"), 6, "expected: initial <name>"),
    # the first faulty line is the one reported
    (_with(8, "trans s0 go s9")[:8] + ["trans s9 go s0"], 8,
     "unknown state 's9'"),
]


@pytest.mark.parametrize("lines, lineno, message", PARSE_ERRORS,
                         ids=lambda case: None)
def test_every_parse_error_names_its_line(lines, lineno, message):
    with pytest.raises(SautParseError) as err:
        parse_automaton("\n".join(lines) + "\n")
    assert err.value.lineno == lineno
    assert str(err.value) == f"line {lineno}: {message}"


def test_one_leading_byte_order_mark_is_ignored():
    assert parse_automaton("\ufeff" + VALID) == parse_automaton(VALID)
    # a second one, or one later in the file, is part of a keyword
    with pytest.raises(SautParseError) as err:
        parse_automaton("\ufeff\ufeff" + VALID)
    assert str(err.value) == "line 1: unknown keyword '\\ufeff#'"
    with pytest.raises(SautParseError) as err:
        parse_automaton(VALID + "\ufefftrans s0 go s1\n")
    assert str(err.value) == "line 10: unknown keyword '\\ufefftrans'"


def test_parsing_builds_without_the_validating_walk(monkeypatch):
    # The parser checks each line itself, so the automaton it returns is
    # not walked again by `Automaton.__post_init__`; what it builds equals
    # what the validating constructor builds from the same fields.
    texts = [VALID, *(path.read_text(encoding="utf-8")
                      for path in sorted(DATA.glob("*.saut")))]
    parsed = []
    walks = []
    post_init = Automaton.__post_init__

    def walking(self):
        walks.append(self)
        post_init(self)

    monkeypatch.setattr(Automaton, "__post_init__", walking)
    for text in texts:
        parsed.append(parse_automaton(text))
    assert walks == []
    for a in parsed:
        assert a == Automaton(a.alphabet, a.states, a.transitions,
                              a.initial, a.marked)
    assert len(walks) == len(texts)


# Names a `.saut` file may hold: anything without whitespace, including
# the separators of pair and quad labels and Python's spelling of None.
ODD_EVENTS = ("-", ":", "|", "a:b", "x|y", "None", "é")
ODD_PLANT_SEEDS = (3, 7, 11, 19)


def _odd_plant(seed: int) -> Automaton:
    g = random_plant(GeneratorParams(states=5, events=len(ODD_EVENTS),
                                     transition_density=0.4, seed=seed))
    ev = dict(zip(g.alphabet.names, ODD_EVENTS))
    st = {s: f"{s}:{i}|-" if i % 2 else f"None{s}é"
          for i, s in enumerate(g.states)}
    return Automaton(
        Alphabet(tuple(Event(ev[e.name], *e.flags) for e in g.alphabet.events)),
        tuple(st[s] for s in g.states),
        frozenset((st[p], ev[x], st[q]) for (p, x, q) in g.transitions),
        frozenset(st[s] for s in g.initial),
        frozenset(st[s] for s in g.marked))


def _verdicts(a: Automaton) -> str:
    return json.dumps([check_oc(a, 300).to_json(),
                       check_moc(a, 300).to_json(),
                       check_loc(a, 300).to_json(),
                       check_observer(a).to_json(), check_lcc(a).to_json()],
                      sort_keys=True)


@pytest.mark.parametrize("seed", ODD_PLANT_SEEDS)
def test_odd_names_survive_the_round_trip(seed):
    a = _odd_plant(seed)
    b = parse_automaton(serialize_automaton(a))
    assert b == a
    assert b == Automaton(b.alphabet, b.states, b.transitions, b.initial,
                          b.marked)
    assert _verdicts(b) == _verdicts(a)


def test_odd_plants_reach_both_verdicts():
    # so that the round trip above carries witnesses as well as holds
    outcomes = {v["verdict"] for seed in ODD_PLANT_SEEDS
                for v in json.loads(_verdicts(_odd_plant(seed)))}
    assert {"holds", "violated"} <= outcomes


def test_a_name_holding_a_space_is_refused():
    a = parse_automaton(VALID)
    spaced = Automaton(a.alphabet, ("s0", "s 1"),
                       frozenset({("s0", "go", "s 1"), ("s 1", "stop", "s0")}),
                       a.initial, a.marked)
    with pytest.raises(SautParseError) as err:
        parse_automaton(serialize_automaton(spaced))
    assert str(err.value) == "line 4: expected: state <name>"
    with pytest.raises(AutomataError, match="bad event name"):
        Alphabet((Event("g o"),))
