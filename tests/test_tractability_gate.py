"""The tractability gate: the canonical-solution pipeline answers only in C_U.

Theorem 6.2 and Lemmas 6.5 / 6.15 make the chase's result the canonical
solution, and its failure a proof of "no solution", only for fully-specified
STDs and a target DTD whose content models are all univocal (Definition 6.9).
``canonical_solution`` reads that verdict off the compiled setting's
dichotomy report and raises ``ChaseError`` ("not univocal") outside it; a
direct ``chase`` raises the same when ChangeReg finds no ⊑_w-maximum.

Two checks:

* the reproduction — target ``r → a | b`` with ``a`` and ``b`` empty, where
  ``r[a]`` and ``r[b]`` are both solutions, so ``r[a]`` is not certain — is
  refused on every path (engine, host workers, wire, the chase itself),
  while ``naive_certain_answers`` answers it exactly;
* a sweep over small generated settings: requests are refused exactly when
  ``classify()`` calls the setting intractable, and the tractable ones agree
  with ``naive_certain_answers`` wherever its bounded search is conclusive.
  The seed count scales with ``REPRO_GENERATED_SCENARIOS``.
"""

import asyncio
import os

import pytest

from repro import (ChaseError, DataExchangeSetting, DTD, ExchangeEngine,
                   XMLTree, canonical_pre_solution, std)
from repro.exchange.chase import chase
from repro.exchange.naive import naive_certain_answers
from repro.generators import (generate_dtd, generate_query, generate_stds,
                              generate_tree)
from repro.patterns.parse import parse_pattern
from repro.patterns.queries import pattern_query
from repro.service import AsyncExchangeService
from repro.service.client import ServiceClient
from repro.service.server import serve_in_background

#: One seed is one (general, non_univocal) pair of target profiles.
SWEEP_SEEDS = int(os.environ.get("REPRO_GENERATED_SCENARIOS", "200")) // 4


@pytest.fixture
def either_setting():
    """Source ``r → A*`` with ``@a`` on ``A``; target ``r → a | b``."""
    source = DTD("r", {"r": "A*", "A": ""}, {"A": ["a"]})
    target = DTD("r", {"r": "a | b", "a": "", "b": ""})
    return DataExchangeSetting(source, target, [std("r", "r")])


@pytest.fixture
def either_source():
    return XMLTree.build(("r", [("A", {"a": "1"})]))


QUERY_TEXT = "r[a]"
QUERY = pattern_query(parse_pattern(QUERY_TEXT))


class TestReproduction:
    def test_engine_refuses_both_requests(self, either_setting,
                                          either_source):
        engine = ExchangeEngine(either_setting)
        with pytest.raises(ChaseError, match="not univocal"):
            engine.certain_answers(either_source, QUERY)
        with pytest.raises(ChaseError, match="not univocal"):
            engine.solve(either_source)
        # The refusal is the verdict's: classify() says the same.
        assert engine.classify().payload.tractable is False

    def test_naive_search_answers_exactly(self, either_setting,
                                          either_source):
        naive = naive_certain_answers(either_setting, either_source, QUERY,
                                      max_repeat=2)
        assert naive.exhausted and naive.has_solution
        assert naive.answers == set()  # r[b] is a solution too

    def test_direct_chase_refuses_to_pick(self, either_setting,
                                          either_source):
        cps = canonical_pre_solution(either_setting, either_source)
        with pytest.raises(ChaseError, match="not univocal"):
            chase(either_setting.target_dtd, cps)

    def test_host_workers_refuse(self, either_setting, either_source):
        async def scenario():
            async with AsyncExchangeService(executor="host",
                                            workers=1) as service:
                fingerprint = service.register(either_setting)
                with pytest.raises(ChaseError, match="not univocal"):
                    await service.certain_answers(fingerprint,
                                                  either_source, QUERY)
                with pytest.raises(ChaseError, match="not univocal"):
                    await service.solve(fingerprint, either_source)

        asyncio.run(scenario())

    def test_wire_replies_typed_and_the_connection_lives(
            self, either_setting, either_source):
        port, _, join = serve_in_background(executor="thread")
        with ServiceClient("127.0.0.1", port) as client:
            fingerprint = client.register(either_setting)
            with pytest.raises(ChaseError, match="not univocal"):
                client.certain_answers(fingerprint, either_source,
                                       QUERY_TEXT)
            with pytest.raises(ChaseError, match="not univocal"):
                client.solve(fingerprint, either_source)
            assert client.ping()
            assert client.shutdown()
        join(timeout=30)


def _sweep_case(seed, profile):
    source = generate_dtd(seed, "nested_relational", n_elements=3).dtd
    target = generate_dtd(seed + 1000, profile, n_elements=3,
                          max_children=2).dtd
    setting = DataExchangeSetting(
        source, target,
        [generated.std for generated in generate_stds(source, target, 2,
                                                      seed)])
    tree = generate_tree(source, seed, max_depth=3, max_repeat=2).tree
    query = generate_query(target, seed).query
    return setting, tree, query


def test_refused_exactly_outside_c_u_and_equal_to_naive_inside():
    refused = matched = 0
    for seed in range(SWEEP_SEEDS):
        for profile in ("general", "non_univocal"):
            setting, tree, query = _sweep_case(seed, profile)
            context = f"seed={seed} profile={profile}"
            engine = ExchangeEngine(setting)
            if not engine.classify().payload.tractable:
                with pytest.raises(ChaseError, match="not univocal"):
                    engine.certain_answers(tree, query)
                with pytest.raises(ChaseError, match="not univocal"):
                    engine.solve(tree)
                refused += 1
                continue
            answered = engine.certain_answers(tree, query)
            solved = engine.solve(tree)
            assert answered.ok == solved.ok, context
            naive = naive_certain_answers(setting, tree, query, max_repeat=2,
                                          max_candidates=5000)
            # Naive's space holds no tree with more than two children of
            # one type, so only a found solution makes it conclusive.
            if not (naive.exhausted and naive.has_solution):
                continue
            assert answered.ok, context
            assert answered.payload == naive.answers, context
            matched += 1
    if SWEEP_SEEDS >= 10:  # both sides of the dichotomy were exercised
        assert refused and matched
