"""Verification and synthesis for hierarchical supervisory control of
discrete-event systems under partial observation."""

from .automata import (Alphabet, AlphabetMismatchError, AutomataError,
                       Automaton, Event, PreconditionError, ProjectionSpec,
                       all_marked, determinize, difference, enumerate_bounded,
                       includes, intersect, inverse_project, is_empty,
                       is_prefix_closed, iter_marked_words, language_equal,
                       parallel_compose, prefix_close, project,
                       right_quotient, sigma_star, trim, union,
                       word_automaton)
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
                        lemma_distribute_q, lemma_moc_implies_oc,
                        moc_structurally_guaranteed)
from .oracle import (PROPERTY_ORACLES, OracleReport, oracle_controllability,
                     oracle_lcc, oracle_loc, oracle_moc, oracle_nonconflicting,
                     oracle_normality, oracle_observability, oracle_observer,
                     oracle_oc, oracle_relative_observability,
                     oracle_sup_normal, oracle_sup_relobs)
from .relations import (PairAutomaton, PairEvent, QuadAutomaton, QuadEvent,
                        build_quad, decompose_pairs, decompose_sequence,
                        pair_alphabet, quad_alphabet, relabel_pair,
                        sync_pair_compose)
from .saut import SautParseError, parse_automaton, serialize_automaton
from .verdicts import HOLDS, INCONCLUSIVE, VIOLATED, Verdict, Witness

__version__ = "0.1.0"
