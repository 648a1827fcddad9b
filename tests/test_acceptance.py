"""End-to-end acceptance suite.

One test per acceptance criterion; each prints a single PASS line on
success (a failure shows up as the test failing). Heavy populations are
shared through module-scoped fixtures so the cross-criterion consistency
check sees exactly the instances the earlier criteria examined.
"""
from __future__ import annotations

import random
import time

import pytest

from hierctl import automata, hierarchy
from hierctl.automata import (Alphabet, Automaton, Event, all_marked,
                              enumerate_bounded, included, includes,
                              parallel_compose, prefix_close, trim)
from hierctl.checks import (check_observability, check_relative_observability,
                            sup_normal_closed, sup_relobs_closed)
from hierctl.gadgets import (GeneratorParams, gadget_loc, gadget_moc,
                             gadget_oc, is_universal, random_nfa,
                             random_plant, random_sublanguage)
from hierctl.hierarchy import (build_context, check_lcc, check_loc,
                               check_moc, check_moc_modular, check_oc,
                               check_observer, conform_spec,
                               hier_synth_normal, lemma_distribute_q,
                               moc_structurally_guaranteed)
from hierctl.oracle import (oracle_loc, oracle_moc, oracle_oc,
                            oracle_sup_normal, oracle_sup_relobs)
from hierctl.verdicts import Verdict

from conftest import (agreement_plants, make_alphabet, replays_violation,
                      searched, tree)

CHECKS = {"oc": check_oc, "moc": check_moc, "loc": check_loc}
ORACLES = {"oc": oracle_oc, "moc": oracle_moc, "loc": oracle_loc}
GADGETS = {"oc": gadget_oc, "moc": gadget_moc, "loc": gadget_loc}


def _passline(n, msg):
    print(f"criterion {n}: PASS — {msg}")


# ---------------------------------------------------------------------------
# shared populations

@pytest.fixture(scope="module")
def crit3_results():
    """200 seeded plants, all three consistency verdicts each."""
    out = []
    start = time.monotonic()
    for seed in range(200):
        g = random_plant(GeneratorParams(
            states=3 + seed % 3, events=2 + seed % 3,
            transition_density=0.35, seed=seed))
        if not g.states:
            continue
        verdicts = {name: chk(g, 2000) for name, chk in CHECKS.items()}
        out.append((seed, g, verdicts))
    return out, time.monotonic() - start


@pytest.fixture(scope="module")
def crit3_searched(crit3_results):
    """The product search's OC and MOC verdicts on each criterion-3 plant
    with a nested alphabet, which the checks decide from the alphabet
    alone. They are taken apart from the timed checker pass."""
    return [(seed, g, {kind: searched(g, kind, 2000) for kind in ("oc", "moc")})
            for seed, g, _ in crit3_results[0]
            if moc_structurally_guaranteed(g.alphabet)]


@pytest.fixture(scope="module")
def crit4_results():
    """100 seeded NFAs, every gadget checked for OC and MOC (and LOC
    where it is the gadget's own property)."""
    out = []
    for seed in range(100):
        a = random_nfa(GeneratorParams(
            states=2 + seed % 3, events=2 + seed % 2,
            transition_density=0.35, seed=seed))
        if not a.states or not a.initial:
            continue
        uni = is_universal(a)
        per = {}
        for name, gad in GADGETS.items():
            g = gad(a)
            per[name] = {
                "own": CHECKS[name](g, 3000),
                "oc": check_oc(g, 3000) if name != "oc" else None,
                "moc": check_moc(g, 3000) if name != "moc" else None,
                "plant": g,
            }
            if per[name]["oc"] is None:
                per[name]["oc"] = per[name]["own"]
            if per[name]["moc"] is None:
                per[name]["moc"] = per[name]["own"]
        out.append((seed, a, uni, per))
    return out


def _refit(g, mode):
    """Force one of the two alphabet containments that trivialize MOC."""
    evs = []
    for e in g.alphabet.events:
        if mode == "obs_in_hi":
            evs.append(Event(e.name, e.controllable, e.observable,
                             e.highlevel or e.observable))
        else:
            evs.append(Event(e.name, e.controllable,
                             e.observable or e.highlevel, e.highlevel))
    al = Alphabet(tuple(evs))
    return Automaton(al, g.states, g.transitions, g.initial, g.marked)


@pytest.fixture(scope="module")
def crit67_instances():
    out = []
    for i in range(100):
        mode = "obs_in_hi" if i < 50 else "hi_in_obs"
        g = _refit(random_plant(GeneratorParams(
            states=3 + i % 3, events=2 + i % 3,
            transition_density=0.4, seed=1000 + i)), mode)
        if not g.states:
            continue
        out.append((i, mode, g))
    return out


# ---------------------------------------------------------------------------
# criteria

def test_criterion_01_seven_word_example_end_to_end(ex1_plant, ex1_spec):
    ctx = build_context(ex1_plant)
    ql = set(enumerate_bounded(ctx.abstraction, 4))
    assert ql == {(), ("b",), ("c",), ("b", "c")}
    kbar = prefix_close(trim(conform_spec(ex1_spec, ctx.q.target_alphabet)))
    kl = set(enumerate_bounded(parallel_compose(ctx.plant, kbar), 4))
    assert kl == {(), ("a",), ("b",), ("c",), ("b", "a"), ("a", "c")}
    out = hier_synth_normal(ex1_plant, ex1_spec)
    low = set(enumerate_bounded(out["low"], 4))
    lift = set(enumerate_bounded(out["lifted"], 4))
    assert low == {(), ("a",), ("b",), ("c",), ("b", "a")}
    assert lift == {(), ("a",), ("b",), ("b", "a")}
    assert ("c",) in low and ("c",) not in lift
    assert not out["equal"]
    _passline(1, "seven-word example: all four bounded languages exact")


def test_criterion_02_relative_observability_levels(relobs_plant):
    ctx = build_context(relobs_plant)
    hi = ctx.q.target_alphabet
    kh = tree([("a",)], hi)
    ch = tree([("a",), ("a", "u")], hi)
    assert check_relative_observability(kh, ch, ctx.abstraction).holds
    klo = parallel_compose(ctx.plant, kh)
    clo = parallel_compose(ctx.plant, ch)
    v = check_relative_observability(klo, clo, ctx.plant)
    assert v.violated
    w = v.witness.strings
    assert w["se"] == ("a", "e")
    assert w["s_prime"] == ("a", "u")
    assert w["e"] == ("e",)
    assert check_observability(klo, ctx.plant).holds
    _passline(2, "holds at the high level, violated below with witness "
                 "(ae, au, e); plain observability still holds")


def test_criterion_03_checkers_sound_against_oracle(crit3_results,
                                                    crit3_searched):
    results, elapsed = crit3_results
    replayed = 0
    # the searched verdicts referee the alphabet's decisions
    for seed, g, verdicts in results + crit3_searched:
        for name, v in verdicts.items():
            if v.holds:
                assert ORACLES[name](g, 6).ok, f"seed={seed} {name}"
            elif v.violated:
                assert replays_violation(g, name, v.witness.strings), \
                    f"seed={seed} {name}"
                replayed += 1
    assert elapsed < 120, f"checker pass took {elapsed:.1f}s"
    _passline(3, f"{len(results)} plants, zero disagreements at bound 6, "
                 f"{replayed} violated witnesses replayed, "
                 f"{elapsed:.1f}s; OC and MOC searched on the "
                 f"{len(crit3_searched)} with nested alphabets")


def test_criterion_04_gadget_differential(crit4_results):
    runs = 0
    inconclusive = 0
    for seed, a, uni, per in crit4_results:
        for name, entry in per.items():
            runs += 1
            v = entry["own"]
            # MOC reads one normal form per string pair, so exhausting them
            # decides the MOC gadget of a universal NFA
            assert not (name == "moc" and v.inconclusive), f"seed={seed}"
            if v.inconclusive:
                # fall back to the bounded oracle: it can still refute
                rep = ORACLES[name](entry["plant"], 5)
                if not rep.ok:
                    assert not uni, f"seed={seed} {name}"
                else:
                    inconclusive += 1
                continue
            assert v.holds == uni, f"seed={seed} {name}"
    rate = inconclusive / runs
    assert rate < 0.10, f"inconclusive rate {rate:.1%}"
    _passline(4, f"{runs} gadget runs agree with universality; "
                 f"{inconclusive} inconclusive ({rate:.1%} < 10%)")


def test_criterion_05_moc_implies_oc_at_verdict_level(crit3_results,
                                                      crit3_searched,
                                                      crit4_results):
    pairs = 0
    # the searched verdicts of the nested-alphabet plants and LOC gadgets,
    # whose checks read the alphabet alone, are held to it too
    gadgets = [(seed, None, {kind: searched(per["loc"]["plant"], kind, 3000)
                             for kind in ("oc", "moc")})
               for seed, _, _, per in crit4_results]
    for seed, g, verdicts in crit3_results[0] + crit3_searched + gadgets:
        pairs += 1
        assert not (verdicts["moc"].holds and verdicts["oc"].violated), seed
    for seed, a, uni, per in crit4_results:
        for name, entry in per.items():
            pairs += 1
            assert not (entry["moc"].holds and entry["oc"].violated), \
                f"seed={seed} {name}"
    _passline(5, f"no MOC=holds with OC=violated across {pairs} instances")


def test_criterion_06_alphabet_containments_force_moc(crit67_instances):
    # the checks decide these plants from the alphabet alone, so the product
    # search and the bounded oracles referee that decision
    for i, mode, g in crit67_instances:
        assert check_moc(g, 3000).holds, f"instance={i} mode={mode}"
        for kind in ("oc", "moc"):
            assert searched(g, kind, 3000).holds, f"instance={i} {kind}"
        assert oracle_oc(g, 4).ok and oracle_moc(g, 4).ok, f"instance={i}"
    _passline(6, f"MOC holds on all {len(crit67_instances)} plants with "
                 "nested alphabets, by the alphabet, the product search and "
                 "the oracles")


def test_nested_alphabets_build_no_product(crit67_instances, monkeypatch):
    def refuse(*args):
        raise AssertionError("a pair product was built")

    monkeypatch.setattr(hierarchy, "_pair_operands", refuse)
    plants = [g for _, _, g in crit67_instances]
    for obs, hi in (("abc", "a"), ("a", "ab"), ("", "bc"), ("ac", "")):
        al = make_alphabet("abc", observable=obs, highlevel=hi)
        plants.append(tree(["abc", "cab", "ba"], al))
    for g in plants:
        for ctx in (g, build_context(g)):
            assert check_oc(ctx, 0) == check_moc(ctx, 0) == \
                Verdict.make_holds()


def test_criterion_07_normal_synthesis_commutes(crit67_instances):
    checked = 0
    for i, mode, g in crit67_instances:
        ctx = build_context(g)
        spec = random_sublanguage(ctx.abstraction, 0.3, seed=2000 + i)
        if not spec.states:
            continue
        kbar = prefix_close(trim(spec))
        low = sup_normal_closed(parallel_compose(ctx.plant, kbar), ctx.plant)
        high = sup_normal_closed(parallel_compose(ctx.abstraction, kbar),
                                 ctx.abstraction)
        lift = parallel_compose(ctx.plant, high)
        assert includes(low, lift).holds, f"instance={i}"
        assert includes(lift, low).holds, f"instance={i}"
        checked += 1
    assert checked >= 80
    _passline(7, f"supN commutes with lifting on {checked} instances, "
                 "both inclusions exact")


def test_criterion_08_relobs_synthesis_one_sided(crit67_instances):
    forward = 0
    for i, mode, g in crit67_instances:
        ctx = build_context(g)
        spec = random_sublanguage(ctx.abstraction, 0.3, seed=2000 + i)
        if not spec.states:
            continue
        kbar = prefix_close(trim(spec))
        b_hi = parallel_compose(ctx.abstraction, kbar)
        b_lo = parallel_compose(ctx.plant, kbar)
        high, rep_hi = sup_relobs_closed(b_hi, b_hi, ctx.abstraction)
        low, rep_lo = sup_relobs_closed(b_lo, b_lo, ctx.plant)
        if not (rep_hi.converged and rep_lo.converged):
            continue
        lift = parallel_compose(ctx.plant, high)
        assert includes(low, lift).holds, f"instance={i}"
        forward += 1
    assert forward >= 80

    # A constructed non-MOC instance where the reverse inclusion fails
    # strictly: the lift admits a word the low-level supremal rejects,
    # and the bounded oracle confirms the rejection is genuine.
    g = random_plant(GeneratorParams(states=5, events=4,
                                     transition_density=0.4, seed=59))
    ctx = build_context(g)
    assert not check_moc(g, 3000).holds
    spec = random_sublanguage(ctx.abstraction, 0.3, seed=592)
    kbar = prefix_close(trim(spec))
    b_hi = parallel_compose(ctx.abstraction, kbar)
    b_lo = parallel_compose(ctx.plant, kbar)
    high, _ = sup_relobs_closed(b_hi, b_hi, ctx.abstraction)
    low, _ = sup_relobs_closed(b_lo, b_lo, ctx.plant)
    lift = parallel_compose(ctx.plant, high)
    rev = includes(lift, low)
    assert not rev.holds
    assert ("e1",) in set(enumerate_bounded(lift, 2))
    assert ("e1",) not in set(enumerate_bounded(low, 2))
    assert ("e1",) not in set(oracle_sup_relobs(b_lo, b_lo, ctx.plant, 6))
    _passline(8, f"low ⊆ lift on {forward} converged instances; one "
                 "oracle-confirmed strict failure of the reverse inclusion")


def _component(seed, shared, prefix):
    rng = random.Random(seed)
    evs = [Event(s, True, True, True) for s in shared]
    for i in range(2):
        evs.append(Event(f"{prefix}{i}", rng.random() < 0.6,
                         rng.random() < 0.6, rng.random() < 0.6))
    al = Alphabet(tuple(evs))
    states = tuple(f"{prefix}s{i}" for i in range(3))
    trans = set()
    for q in states:
        for e in al.names:
            if rng.random() < 0.4:
                trans.add((q, e, rng.choice(states)))
    return all_marked(Automaton(al, states, frozenset(trans),
                                frozenset({states[0]}), frozenset(states)))


def test_criterion_09_modular_moc_two_components():
    found = 0
    seed = 0
    while found < 50 and seed < 2000:
        g1 = _component(seed * 2 + 1, ("x",), "a")
        g2 = _component(seed * 2 + 2, ("x",), "b")
        seed += 1
        if not g1.states or not g2.states:
            continue
        if not (check_moc(g1, 1500).holds and check_moc(g2, 1500).holds):
            continue
        found += 1
        composed, per = check_moc_modular([g1, g2], 1500)
        assert composed.holds and all(v.holds for v in per)
        direct = check_moc(parallel_compose(g1, g2), 1500)
        assert not direct.violated, f"seed={seed}"
        assert lemma_distribute_q([g1, g2]).holds, f"seed={seed}"
    assert found == 50
    _passline(9, "50 component-wise MOC pairs: composition never violated, "
                 "Q distributes over ∥ on all")


def _gen_words(a, bound):
    return set(enumerate_bounded(a, bound, generated=True))


def _free_words(names, bound):
    words = [()]
    layer = [()]
    for _ in range(bound):
        layer = [w + (x,) for w in layer for x in sorted(names)]
        words += layer
    return words


def test_criterion_10_gadget_languages_exact():
    bound = 5
    for seed in range(20):
        a = random_nfa(GeneratorParams(states=2 + seed % 3,
                                       events=2 + seed % 2,
                                       transition_density=0.35, seed=seed))
        if not a.states or not a.initial:
            continue
        names = sorted(a.alphabet.names)
        inner = _gen_words(a, bound)
        free = _free_words(names, bound - 1)

        expect_oc = {()}
        expect_oc |= {("@",) + w for w in free}
        expect_oc |= {("#",) + w for w in free}
        expect_oc |= {("@", "#") + w for w in inner if len(w) <= bound - 2}
        got_oc = _gen_words(gadget_oc(a), bound)
        assert got_oc == expect_oc, f"seed={seed} oc"

        expect_moc = expect_oc | {w for w in inner if len(w) <= bound}
        got_moc = _gen_words(gadget_moc(a), bound)
        assert got_moc == expect_moc, f"seed={seed} moc"

        expect_loc = {()}
        expect_loc |= {(x,) for x in names}
        expect_loc |= {(x, y) + w for x in names for y in names
                       for w in inner if len(w) <= bound - 2}
        alternating = [()]
        layer = [()]
        for depth in range(bound):
            pool = names if depth % 2 == 0 else [n + "'" for n in names]
            layer = [w + (x,) for w in layer for x in pool]
            alternating += layer
        expect_loc |= {w for w in alternating if len(w) <= bound}
        got_loc = _gen_words(gadget_loc(a), bound)
        assert got_loc == expect_loc, f"seed={seed} loc"
    _passline(10, "all three gadget languages exact to length 5 against "
                  "independent reconstruction")


def _supn(ctx, kbar) -> tuple:
    """(supN low, its lift) for the prefix-closed high-level specification
    `kbar`."""
    low = sup_normal_closed(parallel_compose(ctx.plant, kbar), ctx.plant)
    high = sup_normal_closed(parallel_compose(ctx.abstraction, kbar),
                             ctx.abstraction)
    return low, parallel_compose(ctx.plant, high)


def _relobs(ctx, kbar) -> tuple:
    """(sup-relobs low, its lift), the specification also the ambient
    language at each level."""
    b_hi = parallel_compose(ctx.abstraction, kbar)
    b_lo = parallel_compose(ctx.plant, kbar)
    high, rep_hi = sup_relobs_closed(b_hi, b_hi, ctx.abstraction)
    low, rep_lo = sup_relobs_closed(b_lo, b_lo, ctx.plant)
    assert rep_hi.converged and rep_lo.converged
    return low, parallel_compose(ctx.plant, high)


def _preservation(ctx, kbar) -> tuple:
    """(supN low = lift, sup-relobs low ⊆ lift) for the prefix-closed
    high-level specification `kbar`."""
    low, lift = _supn(ctx, kbar)
    low_relobs, lift_relobs = _relobs(ctx, kbar)
    return (included(low, lift) and included(lift, low),
            included(low_relobs, lift_relobs))


@pytest.fixture(scope="module")
def crit11_plants():
    """Criteria 11 and 12's plants with incomparable alphabets, each with
    its engine-decided MOC verdict: (i, context, verdict)."""
    out = []
    for i in range(600):
        g = random_plant(GeneratorParams(3 + i % 4, 3 + i % 3, 0.4,
                                         seed=5000 + i))
        ctx = build_context(g)
        if moc_structurally_guaranteed(ctx.alphabet):
            continue
        v = check_moc(ctx, 2000)
        if not v.inconclusive:
            out.append((i, ctx, v))
    return out


def test_criterion_11_moc_licenses_the_supremal_results(crit11_plants):
    # Criteria 7 and 8 test the results on nested alphabets, where MOC is
    # forced. Here the alphabets are incomparable and MOC is decided by the
    # engine: each "holds" must license both results, and the violations
    # that break them show that a false "holds" would be caught.
    holds = 0
    broken = {"supn": 0, "relobs": 0}
    for i, ctx, v in crit11_plants:
        spec = random_sublanguage(ctx.abstraction, 0.3, seed=7000 + i)
        supn, relobs = _preservation(ctx, prefix_close(trim(spec)))
        if v.holds:
            assert supn and relobs, f"plant={i}"
            holds += 1
        else:
            broken["supn"] += not supn
            broken["relobs"] += not relobs
    assert holds >= 100
    assert broken["supn"] > 0 and broken["relobs"] > 0
    _passline(11, f"supN low = lift and sup-relobs low ⊆ lift on all "
                  f"{holds} engine-decided MOC holds; of the violations, "
                  f"{broken['supn']} break supN and {broken['relobs']} "
                  "sup-relobs")


def _finite(g) -> bool:
    """Is the generated language of `g` finite? A word as long as `g` has
    states runs through a cycle."""
    n = len(g.states)
    return all(len(w) < n for w in enumerate_bounded(g, n, generated=True))


def test_criterion_12_oc_and_loc_do_not_license_the_supremal_results(
        crit11_plants):
    # The paper's negative result: OC, LOC, the observer property and LCC
    # do not make the supremal normal sublanguages of the two levels
    # coincide; MOC does (criterion 11). And under MOC the lift of the
    # high-level sup-relobs may be strictly larger than the low-level one.
    supn_break = relobs_gain = None   # the first of each: (i, kbar, word)
    four_hold = supn_breaks = moc_holds = relobs_gains = 0
    for i, ctx, moc in crit11_plants:
        if moc.violated:
            # OC, the costliest of the four, last
            if not (check_loc(ctx, 2000).holds and check_observer(ctx).holds
                    and check_lcc(ctx).holds and check_oc(ctx, 2000).holds):
                continue
            four_hold += 1
        for j in range(3):
            spec = random_sublanguage(ctx.abstraction, 0.3,
                                      seed=7000 + 31 * i + j)
            kbar = prefix_close(trim(spec))
            if moc.violated:
                low, lift = _supn(ctx, kbar)
                w = includes(low, lift).witness or includes(lift, low).witness
                if w is not None:
                    supn_breaks += 1
                    supn_break = supn_break or (i, kbar, w.strings["word"])
            else:
                moc_holds += 1
                low, lift = _relobs(ctx, kbar)
                assert included(low, lift), f"plant={i} spec={j}"
                w = includes(lift, low).witness
                if w is not None:
                    relobs_gains += 1
                    relobs_gain = relobs_gain or (i, kbar, w.strings["word"])
    assert supn_break and relobs_gain, (supn_breaks, relobs_gains)

    # Replay the supN break: the word lies in exactly one of the low-level
    # supremal and the lift of the high-level one.
    i, kbar, word = supn_break
    ctx = next(c for k, c, _ in crit11_plants if k == i)
    bound = max(5, len(word))
    low = oracle_sup_normal(parallel_compose(ctx.plant, kbar), ctx.plant,
                            bound)
    high = oracle_sup_normal(parallel_compose(ctx.abstraction, kbar),
                             ctx.abstraction, bound)
    assert ctx.plant.generates(word)
    assert (word in low) != (ctx.q.apply(word) in high), (i, word)

    # The sup-relobs gain: the bounded oracle is exact on a finite plant
    # language only.
    i, kbar, word = relobs_gain
    ctx = next(c for k, c, _ in crit11_plants if k == i)
    if _finite(ctx.plant):
        bound = len(ctx.plant.states)
        b_hi = parallel_compose(ctx.abstraction, kbar)
        b_lo = parallel_compose(ctx.plant, kbar)
        assert ctx.q.apply(word) in oracle_sup_relobs(b_hi, b_hi,
                                                      ctx.abstraction, bound)
        assert word not in oracle_sup_relobs(b_lo, b_lo, ctx.plant, bound)
        evidence = "the first confirmed by the oracle"
    else:
        evidence = "engine-only evidence, the plant language being infinite"
    _passline(12, f"on {four_hold} plants where OC, LOC, observer and LCC "
                  f"hold and MOC is violated, {supn_breaks} instances break "
                  "supN low = lift, the first replayed through the oracle; "
                  f"{relobs_gains} of {moc_holds} MOC-holds instances have a "
                  "sup-relobs lift strictly above the low-level result "
                  f"({evidence})")


# ---------------------------------------------------------------------------
# the first difference sequence

# OC on these two benchmark frontier plants (`plant_params(n, d, 3)`) is
# violated at its first sequence; a depth-first liveness search ran past
# 20 s on each before it reached it.
FIRST_SEQUENCE_PLANTS = (GeneratorParams(64, 5, 0.45, seed=3),
                         GeneratorParams(48, 5, 0.5, seed=3))


def test_first_sequences_need_no_liveness_search(crit4_results, monkeypatch):
    # OC and MOC take their first difference sequence from one
    # breadth-first search, and only the words after it from the
    # enumerator over live subset pairs. So with the enumerator gone every
    # check decided at its first sequence gives the same verdict and
    # witness.
    def refuse(*args):
        raise AssertionError("the enumerator ran")

    def agrees(g, kind, budget, v) -> bool:
        if v.detail != {"examined": 1}:
            return False
        with monkeypatch.context() as m:
            m.setattr(automata, "iter_marked_words", refuse)
            assert CHECKS[kind](g, budget).to_json() == v.to_json()
        return True

    runs = [(entry["plant"], kind, 3000, entry[kind])
            for _, _, _, per in crit4_results for entry in per.values()
            for kind in ("oc", "moc")]
    runs += [(g, kind, 2000, CHECKS[kind](g, 2000))
             for g in agreement_plants() for kind in ("oc", "moc")]
    first = sum(agrees(*run) for run in runs)
    assert first >= 300, first
    for p in FIRST_SEQUENCE_PLANTS:
        g = random_plant(p)
        v = check_oc(g, 2000)
        assert agrees(g, "oc", 2000, v), p
        assert v.violated and replays_violation(g, "oc", v.witness.strings), p
    print(f"first sequence: PASS — {first} of {len(runs)} OC/MOC checks and "
          f"OC on {len(FIRST_SEQUENCE_PLANTS)} frontier plants decided at "
          "their first sequence need no liveness search")
