"""Regular expressions over element types, NFAs, Parikh images and univocality.

This subpackage is the string-language substrate used by DTDs
(:mod:`repro.xmlmodel.dtd`), the tree automata (:mod:`repro.automata`), the
chase (:mod:`repro.exchange.chase`) and the dichotomy classifier
(:mod:`repro.exchange.dichotomy`).
"""

from .ast import (Concat, Empty, Epsilon, Regex, Star, Symbol, Union,
                  concat, empty, epsilon, optional, plus, star, sym, union)
from .nfa import DFA, NFA, nfa_to_dfa, regex_to_dfa, regex_to_nfa
from .parikh import (CountVector, LinearSet, SemilinearSet, SemilinearSizeError,
                     in_permutation_language, minimal_extensions, parikh_vector,
                     semilinear_of)
from .parse import RegexParseError, parse_regex
from .univocal import (RegexAnalysis, analyse, c_value, is_simple_regex,
                       is_univocal, max_repairs, maximum_of,
                       nested_relational_factors, preorder_leq, repairs)

__all__ = [
    "Regex", "Epsilon", "Empty", "Symbol", "Concat", "Union", "Star",
    "epsilon", "empty", "sym", "concat", "union", "star", "plus", "optional",
    "parse_regex", "RegexParseError",
    "NFA", "DFA", "regex_to_nfa", "nfa_to_dfa", "regex_to_dfa",
    "CountVector", "LinearSet", "SemilinearSet", "SemilinearSizeError",
    "parikh_vector", "semilinear_of", "in_permutation_language",
    "minimal_extensions",
    "RegexAnalysis", "analyse", "c_value", "is_univocal", "is_simple_regex",
    "nested_relational_factors", "repairs", "max_repairs", "maximum_of",
    "preorder_leq",
]
