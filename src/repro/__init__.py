"""repro — a reproduction of Arenas & Libkin, *XML Data Exchange: Consistency
and Query Answering* (PODS 2005 / JACM 2008).

The recommended entry point is the **engine API** (:mod:`repro.engine`): it
separates the *compile-once* work derived from a setting ``(D_S, D_T, Σ_ST)``
— content-model NFAs, univocality analyses, STD classification, dichotomy
routing, consistency machinery — from the *per-request* work on source trees
and queries, and serves the whole pipeline through one object::

    from repro import ExchangeEngine, parse_dtd, std, DataExchangeSetting
    from repro import parse_pattern, pattern_query

    setting = DataExchangeSetting(source_dtd, target_dtd, [dependency])
    engine = ExchangeEngine(setting)          # compiles the setting once

    engine.classify().payload.tractable       # dichotomy routing (Thm 6.2)
    engine.check_consistency().payload        # auto strategy routing (Sec 4)
    engine.solve(tree).payload                # canonical solution (Sec 6.1)
    engine.certain_answers(tree, query).payload
    engine.certain_answers_batch(trees, query)   # order-preserving loop

Every engine method returns an :class:`~repro.engine.EngineResult` (success
flag, payload, strategy used, timing, cache statistics).  The functional API
(``check_consistency``, ``canonical_solution``, ``certain_answers``, …) runs
the same pipeline the engine delegates to; a bare call compiles the setting
once per call, which suits one-shot scripts — see ``examples/quickstart.py``
for both styles side by side.

The package is organised in layers:

* :mod:`repro.xmlmodel`   — XML trees, attribute values (constants / nulls), DTDs;
* :mod:`repro.regexlang`  — regular expressions over element types, NFAs,
  Parikh images / semilinear sets, univocality (Definition 6.9);
* :mod:`repro.automata`   — unranked tree automata (Appendix A);
* :mod:`repro.patterns`   — tree-pattern formulae and CTQ//,∪ queries;
* :mod:`repro.exchange`   — data exchange settings, consistency (Section 4),
  canonical pre-solutions, the chase and certain answers (Sections 5–6);
* :mod:`repro.engine`     — the compiled, cached facade over
  :mod:`repro.exchange`;
* :mod:`repro.service`    — the serving layer: async multi-setting facade,
  fingerprint-sharded routing, bounded caches, the multi-process shard
  host, JSON-lines server/client;
* :mod:`repro.reductions` — the paper's hardness gadgets (3-SAT reductions);
* :mod:`repro.workloads`  — scalable workload generators for the benchmarks.

For a long-lived process serving many settings, hold one
:class:`repro.service.AsyncExchangeService` instead of bare engines::

    from repro.service import AsyncExchangeService

    async with AsyncExchangeService(max_compiled=64,
                                    result_cache_maxsize=1024) as service:
        fp = service.register(setting)
        result = await service.certain_answers(fp, tree, query)
"""

from . import generators, service
from .engine import (CacheStats, CompiledSetting, EngineResult,
                     ExchangeEngine, compile_setting)
from .exchange import (STD, CertainAnswers, ChaseError, ChaseResult,
                       ConsistencyUndecidedError, DataExchangeSetting,
                       ExchangeError, NoSolutionError,
                       canonical_pre_solution, canonical_solution,
                       certain_answer_boolean, certain_answers, chase,
                       check_consistency, check_consistency_general,
                       check_consistency_nested_relational, classify_setting,
                       naive_certain_answers, order_tree, pattern_satisfiable,
                       std, target_satisfiable)
from .patterns import (PatternPlan, PlanCache, Query, QueryPlan, Variable,
                       compile_pattern, compile_query, conjunction,
                       descendant, exists, node, parse_pattern,
                       pattern_query, union_query, wildcard)
from .regexlang import (is_univocal, parse_regex, c_value,
                        in_permutation_language)
from .service import AsyncExchangeService, SettingRegistry
from .xmlmodel import DTD, FrozenTree, Null, NullFactory, XMLTree, parse_dtd

__version__ = "1.3.0"

__all__ = [
    # XML model
    "XMLTree", "DTD", "parse_dtd", "Null", "NullFactory",
    # regular expressions
    "parse_regex", "is_univocal", "c_value", "in_permutation_language",
    # patterns and queries
    "parse_pattern", "node", "wildcard", "descendant", "Variable",
    "Query", "pattern_query", "conjunction", "exists", "union_query",
    # compiled plans
    "FrozenTree", "PatternPlan", "QueryPlan", "PlanCache",
    "compile_pattern", "compile_query",
    # engine
    "ExchangeEngine", "EngineResult", "CompiledSetting",
    "compile_setting", "CacheStats",
    # generators
    "generators",
    # serving layer
    "service", "AsyncExchangeService", "SettingRegistry",
    # errors
    "ExchangeError", "ChaseError", "NoSolutionError",
    "ConsistencyUndecidedError",
    # exchange
    "STD", "std", "DataExchangeSetting",
    "canonical_pre_solution", "canonical_solution", "chase", "ChaseResult",
    "certain_answers", "certain_answer_boolean", "CertainAnswers",
    "order_tree", "check_consistency", "check_consistency_general",
    "check_consistency_nested_relational", "pattern_satisfiable",
    "target_satisfiable", "naive_certain_answers", "classify_setting",
    "__version__",
]
