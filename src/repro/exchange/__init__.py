"""XML data exchange: settings, consistency, the chase and certain answers."""

from .certain_answers import CertainAnswers, certain_answer_boolean, certain_answers
from .chase import ChaseError, ChaseResult, canonical_solution, chase
from .consistency import (ConsistencyResult, check_consistency,
                          check_consistency_general, minimal_source_skeletons,
                          pattern_satisfiable, target_satisfiable)
from .dichotomy import DichotomyReport, classify_setting
from .errors import (ChaseError, ConsistencyUndecidedError, ExchangeError,
                     NoSolutionError)
from .naive import NaiveResult, enumerate_target_trees, naive_certain_answers
from .nested_relational import (NestedRelationalConsistency,
                                check_consistency_nested_relational)
from .ordering import OrderingError, order_tree, order_word
from .presolution import PreSolutionError, canonical_pre_solution, pattern_to_tree
from .setting import DataExchangeSetting, SolutionReport
from .std import STD, classify_std, std

__all__ = [
    "STD", "std", "classify_std",
    "DataExchangeSetting", "SolutionReport",
    "canonical_pre_solution", "pattern_to_tree", "PreSolutionError",
    "chase", "canonical_solution", "ChaseResult",
    "ExchangeError", "ChaseError", "NoSolutionError",
    "ConsistencyUndecidedError",
    "certain_answers", "certain_answer_boolean", "CertainAnswers",
    "order_tree", "order_word", "OrderingError",
    "check_consistency", "check_consistency_general", "ConsistencyResult",
    "check_consistency_nested_relational", "NestedRelationalConsistency",
    "pattern_satisfiable", "target_satisfiable", "minimal_source_skeletons",
    "naive_certain_answers", "enumerate_target_trees", "NaiveResult",
    "classify_setting", "DichotomyReport",
]
