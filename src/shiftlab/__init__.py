"""Combinatorial and measure-theoretic invariants of shift spaces.

Words are tuples of string symbols, languages are oracles that read
words letter by letter up to an explicit horizon, and every asymptotic
statement made by the reporting layer is tagged as evidence at that
horizon.

Importing the package imports none of its modules: each name of
``__all__`` is imported from its module on first use.
"""

import functools
import sys

__version__ = "0.1.0"

# each module -> the names the package exports from it, imported on first use
_EXPORTS = {
    "errors": ("AlphabetMismatchError", "AmbiguousDigitError", "CannotCloseError",
               "ConvergenceError", "EmptyShiftError", "EmptySupportError",
               "EnumerationCapError", "HorizonExceededError", "InfeasibleSetError",
               "InsufficientDigitsError", "NonGrowingSubstitutionError",
               "NotAnAutomorphismError", "ReducibleGraphError", "ReturnTimeCapError",
               "ShiftlabError", "UndefinedEntropyError", "UnsupportedSpecError",
               "WrongStatusError"),
    "language": ("Alphabet", "LanguageOracle", "complexity", "format_word",
                 "special_words", "stepping_oracle"),
    "graph": ("LabeledGraph", "make_labeled_graph", "prune_labeled"),
    "sft": ("BlockGraph", "FiniteTypeSpec", "build_block_graph", "full_shift",
            "per_count", "periodic_count_le", "periodic_counts", "scc_subgraphs",
            "sft_cover", "sft_entropy", "sft_oracle"),
    "forbidden": ("LSReport", "MFWTable", "example_nonempty_shift", "ls_report",
                  "minimal_forbidden", "minimal_forbidden_lengths", "tau_eval",
                  "well_approx_check", "window_density_report"),
    "sofic": ("BlockCode", "apply_block_code", "compose_codes", "determinize",
              "finite_type_presentation", "is_sft", "language_equal_exact",
              "language_equal_up_to", "mfw_length_set", "per_le_enumerate",
              "sofic_entropy", "sofic_oracle", "theorem1_diagnostic"),
    "measures": ("CylinderMeasure", "automorphism_invariance_check", "cylinder_table",
                 "eval_cylinder", "max_entropy_decomposition", "mu_y_average",
                 "nu_cylinder_measure", "nu_point_measure", "parry_cylinders",
                 "parry_measure", "weak_star_distance"),
    "beta": ("DigitStream", "beta_algebraic", "beta_decimal", "beta_expand",
             "beta_ls_diagnostic", "beta_mfw", "beta_oracle", "beta_presentation",
             "beta_rational", "beta_stream", "example_betashift", "parse_beta_spec",
             "star_expansion", "stream_alphabet"),
    "algebraic": ("AlgebraicNumber",),
    "dynamics": ("InducedSpec", "Substitution", "bispecial_lengths",
                 "cassaigne_profile", "induce_recode", "induced_data",
                 "speedup_gap_compare", "subst_oracle"),
    "shifts": ("RealizedShift", "ShiftDocument", "document_from_object",
               "load_shift_document", "parse_block_code", "parse_shift_document",
               "periodic_points_le", "realize", "serialize_shift_document",
               "shift_entropy"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


@functools.cache
def _module(name):
    """The module ``name`` of this package, imported on first use.  Code
    that reads a module only in some calls reads it through here: after
    the first call this is one dict lookup, where an import statement runs
    the import machinery on every call.  ``__import__`` is the path that
    ``-X importtime`` times; ``importlib.import_module`` is not."""
    __import__(__name__ + "." + name)
    return sys.modules[__name__ + "." + name]


def __getattr__(name):
    """An exported name, imported from its module on first use (PEP 562)
    and kept in the package from then on."""
    if name not in _MODULE_OF:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(_module(_MODULE_OF[name]), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
