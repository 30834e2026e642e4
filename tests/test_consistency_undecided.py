"""Consistency returns only proven verdicts (Section 4, Claim 4.2).

"Inconsistent" is a proof only when the ⪯-minimal source-skeleton
enumeration was complete and every source pattern binds pairwise-distinct
variables.  Each setting below falls outside that and is in fact
consistent, so every path must refuse it with
:class:`ConsistencyUndecidedError` instead of answering "inconsistent":

* (a) a cut search: 2¹¹ skeletons exceed the enumeration bound, and the one
  that fires nothing (every ``ai`` a ``c``) comes after it;
* (b) a repeated variable: ``r[A(@x=v, @y=v)]`` fires on no tree whose two
  attributes differ;
* (c) a source constant: ``r[A(@x="c")]`` fires on no tree with another
  value.

A "consistent" verdict is never refused: a witness found before the cut is
a proof.
"""

import asyncio

import pytest

from repro import (ConsistencyUndecidedError, DTD, DataExchangeSetting,
                   ExchangeEngine, XMLTree, std)
from repro.exchange import check_consistency
from repro.exchange.consistency import MAX_SOURCE_SKELETONS
from repro.service import AsyncExchangeService
from repro.service.client import ServiceClient
from repro.service.server import serve_in_background
from repro.workloads import library

_BRANCHES = 11


def cut_search_setting(fired: str = "b") -> DataExchangeSetting:
    """Case (a): ``r → a0 … a10``, ``ai → b | c``, one STD
    ``t[f] :– r[ai[<fired>]]`` per ``i``; the target forbids ``f``."""
    rules = {"r": " ".join(f"a{i}" for i in range(_BRANCHES)),
             "b": "", "c": ""}
    rules.update({f"a{i}": "b | c" for i in range(_BRANCHES)})
    return DataExchangeSetting(
        DTD("r", rules), DTD("t", {"t": "", "f": ""}),
        [std("t[f]", f"r[a{i}[{fired}]]") for i in range(_BRANCHES)])


def _attribute_setting(source_pattern: str) -> DataExchangeSetting:
    return DataExchangeSetting(
        DTD("r", {"r": "A", "A": ""}, {"A": ["x", "y"]}),
        DTD("r", {"r": "", "b": ""}),
        [std("r[b]", source_pattern)])


def repeated_variable_setting() -> DataExchangeSetting:
    """Case (b)."""
    return _attribute_setting("r[A(@x=v, @y=v)]")


def source_constant_setting() -> DataExchangeSetting:
    """Case (c)."""
    return _attribute_setting('r[A(@x="c")]')


#: Cases (b) and (c): refused in milliseconds on every path.
PROVISO_CASES = {"repeated-variable": repeated_variable_setting,
                 "source-constant": source_constant_setting}


class TestTheCasesAreConsistent:
    """Each refused setting has a source tree with a solution, so
    "inconsistent" would be a wrong answer."""

    def test_cut_search_has_an_unfired_source_tree(self):
        setting = cut_search_setting()
        source = XMLTree.build(
            ("r", [(f"a{i}", [("c", [])]) for i in range(_BRANCHES)]))
        assert setting.source_dtd.conforms(source)
        assert setting.is_unordered_solution(source, XMLTree.build(("t", [])))

    @pytest.mark.parametrize("make", list(PROVISO_CASES.values()),
                             ids=list(PROVISO_CASES))
    def test_proviso_cases_have_witnesses(self, make):
        setting = make()
        source = XMLTree.build(("r", [("A", {"x": "1", "y": "2"})]))
        assert setting.source_dtd.conforms(source)
        assert setting.is_unordered_solution(source, XMLTree.build(("r", [])))
        assert not setting.has_distinct_source_variables()


class TestFunctionalAPI:
    @pytest.mark.parametrize("method", ["auto", "general"])
    @pytest.mark.parametrize("make", list(PROVISO_CASES.values()),
                             ids=list(PROVISO_CASES))
    def test_proviso_cases_are_refused(self, make, method):
        with pytest.raises(ConsistencyUndecidedError,
                           match="repeats a variable or fixes a constant"):
            check_consistency(make(), method=method)


class TestEngine:
    def test_cut_search_is_refused(self):
        engine = ExchangeEngine(cut_search_setting())
        with pytest.raises(ConsistencyUndecidedError,
                           match=f"stopped at its bound "
                                 f"\\({MAX_SOURCE_SKELETONS} trees"):
            engine.check_consistency()
        _, complete = engine.compiled.source_skeletons()
        assert complete is False

    @pytest.mark.parametrize("strategy", ["auto", "general"])
    @pytest.mark.parametrize("make", list(PROVISO_CASES.values()),
                             ids=list(PROVISO_CASES))
    def test_proviso_cases_are_refused(self, make, strategy):
        with pytest.raises(ConsistencyUndecidedError):
            ExchangeEngine(make()).check_consistency(strategy)

    def test_cut_search_still_proves_consistent(self):
        """(a)'s mirror: the STDs fire on ``c``, so the first skeleton
        (every ``ai`` a ``b``) is a witness, found although the search is
        cut."""
        engine = ExchangeEngine(cut_search_setting(fired="c"))
        result = engine.check_consistency()
        assert result.ok is True and result.payload is True
        assert result.strategy == "general"
        _, complete = engine.compiled.source_skeletons()
        assert complete is False


class TestHostService:
    def test_proviso_cases_are_refused_in_a_worker(self, library_setting):
        async def run():
            async with AsyncExchangeService(executor="host",
                                            workers=1) as service:
                for make in PROVISO_CASES.values():
                    fingerprint = service.register(make())
                    with pytest.raises(ConsistencyUndecidedError):
                        await service.check_consistency(fingerprint)
                fingerprint = service.register(library_setting)
                result = await service.check_consistency(fingerprint)
                return result.payload, service.stats()["host"]

        consistent, host = asyncio.run(run())
        assert consistent is True
        assert host["worker_restarts"] == 0


@pytest.fixture
def client():
    port, _server, join = serve_in_background(executor="thread")
    with ServiceClient("127.0.0.1", port) as connected:
        yield connected
        assert connected.shutdown()
    join()


class TestWire:
    def test_every_case_is_a_typed_refusal_on_a_live_connection(self, client):
        for make in (cut_search_setting, *PROVISO_CASES.values()):
            fingerprint = client.register(make())
            with pytest.raises(ConsistencyUndecidedError):
                client.check_consistency(fingerprint)
            assert client.ping()
        # A proven "yes" still answers on the same connection.
        assert client.check_consistency(client.register(
            library.library_setting())) is True
