"""Combinatorial and measure-theoretic invariants of shift spaces.

Words are tuples of string symbols, languages are oracles that read
words letter by letter up to an explicit horizon, and every asymptotic
statement made by the reporting layer is tagged as evidence at that
horizon.
"""

from .errors import (AlphabetMismatchError, AmbiguousDigitError,
                     CannotCloseError, ConvergenceError, EmptyShiftError,
                     EmptySupportError, EnumerationCapError,
                     HorizonExceededError, InfeasibleSetError,
                     InsufficientDigitsError, NonGrowingSubstitutionError,
                     NotAnAutomorphismError, ReducibleGraphError,
                     ReturnTimeCapError, ShiftlabError, UndefinedEntropyError,
                     UnsupportedSpecError, WrongStatusError)
from .language import (Alphabet, LanguageOracle, complexity, format_word,
                       special_words, stepping_oracle)
from .graph import LabeledGraph, make_labeled_graph, prune_labeled
from .sft import (BlockGraph, FiniteTypeSpec, build_block_graph, full_shift,
                  per_count, periodic_count_le, periodic_counts,
                  scc_subgraphs, sft_cover, sft_entropy, sft_oracle)
from .forbidden import (LSReport, MFWTable, example_nonempty_shift, ls_report,
                        minimal_forbidden, minimal_forbidden_lengths, tau_eval,
                        well_approx_check, window_density_report)
from .sofic import (BlockCode, apply_block_code, compose_codes, determinize,
                    finite_type_presentation, is_sft, language_equal_exact,
                    language_equal_up_to, mfw_length_set, per_le_enumerate,
                    sofic_entropy, sofic_oracle, theorem1_diagnostic)
from .measures import (CylinderMeasure, automorphism_invariance_check,
                       cylinder_table, eval_cylinder, max_entropy_decomposition,
                       mu_y_average, nu_cylinder_measure, nu_point_measure,
                       parry_cylinders, parry_measure, weak_star_distance)
from .beta import (DigitStream, beta_algebraic, beta_decimal, beta_expand,
                   beta_ls_diagnostic, beta_mfw, beta_oracle, beta_presentation,
                   beta_rational, beta_stream, example_betashift,
                   parse_beta_spec, star_expansion, stream_alphabet)
from .algebraic import AlgebraicNumber
from .dynamics import (InducedSpec, Substitution, bispecial_lengths,
                       cassaigne_profile, induce_recode, induced_data,
                       speedup_gap_compare, subst_oracle)
from .shifts import (RealizedShift, ShiftDocument, document_from_object,
                     load_shift_document, parse_block_code,
                     parse_shift_document, periodic_points_le, realize,
                     serialize_shift_document, shift_entropy)

__version__ = "0.1.0"
