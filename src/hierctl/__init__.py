"""Verification and synthesis for hierarchical supervisory control of
discrete-event systems under partial observation."""

from .automata import (Alphabet, AlphabetMismatchError, AutomataError,
                       Automaton, Event, PreconditionError, ProjectionSpec,
                       all_marked, determinize, difference, enumerate_bounded,
                       included, includes, intersect, inverse_project,
                       is_empty, is_prefix_closed, iter_marked_words,
                       language_equal, parallel_compose, prefix_close,
                       project, sigma_star, trim, word_automaton)
from .checks import (SynthReport, check_controllability, check_nonconflicting,
                     check_normality, check_observability,
                     check_relative_observability, sup_normal_closed,
                     sup_relobs_closed)
from .gadgets import (GeneratorParams, gadget_loc, gadget_moc, gadget_oc,
                      is_universal, random_nfa, random_plant,
                      random_sublanguage)
from .hierarchy import (DEFAULT_BUDGET, HierarchyContext, build_context,
                        check_lcc, check_loc, check_moc, check_moc_modular,
                        check_observer, check_oc, conform_spec,
                        hier_synth_normal, hier_synth_relobs, hier_verify,
                        lemma_distribute_q, moc_structurally_guaranteed)
from .relations import (decompose_sequence, label_name, pair_alphabet,
                        quad_alphabet)
from .saut import SautParseError, parse_automaton, serialize_automaton
from .verdicts import HOLDS, INCONCLUSIVE, VIOLATED, Verdict, Witness

__version__ = "0.1.0"

# The bounded oracles are the referee, not the engine: they are imported on
# first use of one of their exports (PEP 562), so a process that only
# decides and synthesizes does not load them.
_ORACLE_EXPORTS = frozenset((
    "PROPERTY_ORACLES", "OracleReport", "oracle_controllability",
    "oracle_lcc", "oracle_loc", "oracle_moc", "oracle_nonconflicting",
    "oracle_normality", "oracle_observability", "oracle_observer",
    "oracle_oc", "oracle_relative_observability", "oracle_sup_normal",
    "oracle_sup_relobs"))


def __getattr__(name: str):
    if name in _ORACLE_EXPORTS:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
