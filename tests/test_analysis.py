"""ReproLint invariant-linter tests: one fixture trio per rule
(positive / negative / suppressed), directive hygiene (RL000), module
naming, the CLI, and a self-check that the committed tree is clean."""

import textwrap
from pathlib import Path

from repro.analysis import ALL_RULES, analyze_source, run
from repro.analysis.__main__ import main as lint_main
from repro.analysis.core import module_name_for, summary_markdown
from repro.analysis.directives import parse_directives


def findings_for(source, *, module, strict=False, rules=ALL_RULES):
    return analyze_source(textwrap.dedent(source), rules,
                          path="fixture.py", module=module, strict=strict)


def codes(findings):
    return [finding.rule for finding in findings]


# --------------------------------------------------------------------- #
# RL001 — no blocking calls in repro.service coroutines
# --------------------------------------------------------------------- #

def test_rl001_flags_blocking_calls_in_async_def():
    found = findings_for("""
        import time

        async def handler(self):
            time.sleep(1)
            print("served")
    """, module="repro.service.server")
    assert codes(found) == ["RL001", "RL001"]
    assert "time.sleep" in found[0].message
    assert "print" in found[1].message


def test_rl001_flags_unawaited_engine_call_only():
    found = findings_for("""
        async def handler(self):
            result = self.engine.certain_answers(tree, query)
            awaited = await self.service.certain_answers(fp, tree, query)
            return result, awaited
    """, module="repro.service.server")
    assert codes(found) == ["RL001"]
    assert ".certain_answers" in found[0].message


def test_rl001_ignores_sync_defs_nested_defs_and_other_layers():
    # The same blocking calls outside repro.service, or in synchronous
    # (including nested-sync) contexts, are fine.
    clean = """
        import time

        def sync_helper():
            time.sleep(1)
            print("fine")

        async def handler(self):
            def render():
                print("fine: runs on the executor")
            await self.offload(render)
    """
    assert findings_for(clean, module="repro.service.server") == []
    blocking_elsewhere = """
        import time

        async def compute():
            time.sleep(1)
    """
    assert findings_for(blocking_elsewhere, module="repro.engine.engine") == []


def test_rl001_flags_unawaited_host_forwarding_calls():
    # ShardHost.execute blocks on a worker pipe round-trip and
    # ShardHost.submit pickles and writes the frame on the calling thread;
    # a coroutine must reach them through offload, never by direct call.
    found = findings_for("""
        async def submit(self, request):
            return self._host.execute(request)
    """, module="repro.service.service")
    assert codes(found) == ["RL001"]
    assert ".execute" in found[0].message
    found = findings_for("""
        async def batch(self, request):
            return self._host.submit(request)
    """, module="repro.service.service")
    assert codes(found) == ["RL001"]
    assert ".submit" in found[0].message


def test_rl001_host_forwarding_behind_offload_is_clean():
    clean = """
        from functools import partial

        async def submit(self, request):
            return await self.offload(partial(self._host.execute, request))

        async def batch(self, request):
            return await self.offload(partial(self._host.submit, request))
    """
    assert findings_for(clean, module="repro.service.service") == []


def test_rl001_host_forwarding_suppressed_with_reason():
    found = findings_for("""
        async def drain(self, request):
            # repro-lint: disable=RL001 -- test shim: loop has no traffic
            return self._host.execute(request)
    """, module="repro.service.service", strict=True)
    assert found == []


def test_rl001_suppressed_with_reason():
    found = findings_for("""
        async def serve(self):
            # repro-lint: disable=RL001 -- startup banner the smoke test reads
            print("listening")
    """, module="repro.service.server", strict=True)
    assert found == []


# --------------------------------------------------------------------- #
# RL002 — no await while holding a threading lock
# --------------------------------------------------------------------- #

def test_rl002_flags_await_under_sync_lock():
    found = findings_for("""
        async def transfer(self):
            with self._lock:
                await self.flush()
    """, module="repro.engine.registry")
    assert codes(found) == ["RL002"]
    assert "self._lock" in found[0].message


def test_rl002_flags_inline_threading_lock_factory():
    found = findings_for("""
        import threading

        async def transfer(self):
            with threading.Lock():
                await self.flush()
    """, module="repro.anything")
    assert codes(found) == ["RL002"]


def test_rl002_ignores_async_with_and_non_lock_contexts():
    clean = """
        async def transfer(self):
            async with self._lock:
                await self.flush()
            with self.tracer:
                await self.flush()

        async def outer(self):
            def sync_part():
                with self._lock:
                    pass
            await self.offload(sync_part)
    """
    assert findings_for(clean, module="repro.service.service") == []


def test_rl002_suppressed_with_reason():
    found = findings_for("""
        async def transfer(self):
            with self._lock:
                # repro-lint: disable=RL002 -- lock is re-entrant and private
                await self.flush()
    """, module="repro.engine.registry", strict=True)
    assert found == []


# --------------------------------------------------------------------- #
# RL003 — layering: restricted layers stay off the parity oracles
# --------------------------------------------------------------------- #

def test_rl003_flags_oracle_import_in_restricted_layer():
    found = findings_for("""
        from repro.patterns.evaluate import PatternMatcher
    """, module="repro.engine.compiled")
    assert codes(found) == ["RL003"]


def test_rl003_flags_oracle_name_via_package_and_relative_import():
    found = findings_for("""
        from repro.patterns import PatternMatcher
        from ..patterns import match_anywhere
    """, module="repro.engine.compiled")
    assert codes(found) == ["RL003", "RL003"]


def test_rl003_flags_bare_functional_call_without_compiled():
    found = findings_for("""
        from repro.exchange import certain_answers

        def serve(setting, tree, query):
            return certain_answers(setting, tree, query)
    """, module="repro.engine.engine")
    assert codes(found) == ["RL003"]
    assert "compiled=" in found[0].message


def test_rl003_allows_compiled_kwarg_methods_and_unrestricted_modules():
    clean = """
        from repro.exchange import certain_answers

        def serve(self, setting, tree, query):
            fast = certain_answers(setting, tree, query,
                                   compiled=self.compiled)
            also_fine = self.engine.certain_answers(tree, query)
            return fast, also_fine
    """
    assert findings_for(clean, module="repro.engine.engine") == []
    # The interpreter package itself is not a restricted layer.
    oracle_side = "from repro.patterns.evaluate import PatternMatcher\n"
    assert findings_for(oracle_side, module="repro.patterns.queries") == []


def test_rl003_parity_oracle_marker_exempts_module():
    found = findings_for("""
        # repro-lint: parity-oracle -- this module IS the interpreted oracle
        from repro.patterns.evaluate import PatternMatcher
    """, module="repro.engine.compiled", strict=True)
    assert found == []


# --------------------------------------------------------------------- #
# RL004 — cache counters move only through CacheStats
# --------------------------------------------------------------------- #

def test_rl004_flags_raw_counter_arithmetic():
    found = findings_for("""
        class Cache:
            def get(self, key):
                self.hits += 1
                self._probe_misses += 1
    """, module="repro.engine.registry")
    assert codes(found) == ["RL004", "RL004"]


def test_rl004_flags_cachestats_internal_mutation():
    found = findings_for("""
        def cheat(stats):
            stats._hits["plan_cache"] += 5
    """, module="repro.engine.compiled")
    assert codes(found) == ["RL004"]
    assert "_hits[...]" in found[0].message


def test_rl004_exempts_stats_module_and_non_repro_code():
    mutation = """
        class CacheStats:
            def hit(self, name):
                self._hits[name] += 1
    """
    assert findings_for(mutation, module="repro.engine.stats") == []
    assert findings_for(mutation, module="tests.test_helpers") == []


def test_rl004_suppressed_with_reason():
    found = findings_for("""
        class DTD:
            def _rule_cache(self, element):
                # repro-lint: disable=RL004 -- republished via set_counts
                self._cache_misses += 1
    """, module="repro.xmlmodel.dtd", strict=True)
    assert found == []


# --------------------------------------------------------------------- #
# RL005 — generator determinism
# --------------------------------------------------------------------- #

def test_rl005_flags_naked_random_and_wall_clock():
    found = findings_for("""
        import random
        import time

        def generate():
            return random.choice("abc"), time.time()
    """, module="repro.generators.scenarios")
    assert codes(found) == ["RL005", "RL005"]
    assert "random.choice" in found[0].message
    assert "time.time" in found[1].message


def test_rl005_allows_seeded_random_and_perf_counter():
    clean = """
        import random
        import time

        def generate(seed):
            rng = random.Random(seed)
            started = time.perf_counter()
            return rng.choice("abc"), time.perf_counter() - started
    """
    assert findings_for(clean, module="repro.generators.scenarios") == []
    # Out of RL005's scope: engine wall-clock reads are RL006's problem,
    # never a determinism finding.
    clocky = "import time\n\ndef now():\n    return time.time()\n"
    engine_findings = findings_for(clocky, module="repro.engine.engine")
    assert "RL005" not in codes(engine_findings)


def test_rl005_suppressed_with_reason():
    found = findings_for("""
        import time

        def stamp():
            # repro-lint: disable=RL005 -- run id only, never drawn content
            return time.time()
    """, module="repro.workloads.library", strict=True)
    assert found == []


# --------------------------------------------------------------------- #
# RL006 — latency is measured on the monotonic clock
# --------------------------------------------------------------------- #

def test_rl006_flags_wall_clock_latency_measurement():
    found = findings_for("""
        import time

        def timed_call(fn):
            started = time.time()
            result = fn()
            return result, time.time() - started
    """, module="repro.service.shard")
    assert codes(found) == ["RL006", "RL006"]
    assert "perf_counter" in found[0].message


def test_rl006_allows_perf_counter_and_defers_generators_to_rl005():
    clean = """
        import time

        def timed_call(fn):
            started = time.perf_counter()
            result = fn()
            return result, time.perf_counter() - started
    """
    assert findings_for(clean, module="repro.service.shard") == []
    # Generator wall-clock discipline belongs to RL005 — RL006 staying out
    # keeps it one finding per sin, not two.
    clocky = "import time\n\ndef now():\n    return time.time()\n"
    generator_findings = findings_for(clocky,
                                      module="repro.generators.scenarios")
    assert "RL006" not in codes(generator_findings)
    # ... and modules outside repro.* are out of scope entirely.
    assert findings_for(clocky, module="benchmarks.bench_service") == []


def test_rl006_suppressed_with_reason():
    found = findings_for("""
        import time

        def artifact_stamp():
            # repro-lint: disable=RL006 -- artifact timestamp, not a duration
            return time.time()
    """, module="repro.service.server", strict=True)
    assert found == []


# --------------------------------------------------------------------- #
# RL000 — directive hygiene
# --------------------------------------------------------------------- #

def test_reasonless_suppression_reports_rl000_and_does_not_suppress():
    found = findings_for("""
        import time

        async def handler(self):
            time.sleep(1)  # repro-lint: disable=RL001
    """, module="repro.service.server")
    assert sorted(codes(found)) == ["RL000", "RL001"]
    rl000 = next(f for f in found if f.rule == "RL000")
    assert "no reason" in rl000.message


def test_unknown_rule_id_reports_rl000():
    found = findings_for("""
        x = 1  # repro-lint: disable=RL099 -- typo for a real rule
    """, module="repro.engine.engine")
    assert codes(found) == ["RL000"]
    assert "RL099" in found[0].message


def test_malformed_directive_reports_rl000():
    found = findings_for("""
        x = 1  # repro-lint: disable RL001 -- missing equals sign
    """, module="repro.engine.engine")
    assert codes(found) == ["RL000"]


def test_strict_reports_unused_suppression():
    lax = findings_for("""
        x = 1  # repro-lint: disable=RL004 -- nothing here triggers it
    """, module="repro.engine.engine")
    assert lax == []
    strict = findings_for("""
        x = 1  # repro-lint: disable=RL004 -- nothing here triggers it
    """, module="repro.engine.engine", strict=True)
    assert codes(strict) == ["RL000"]
    assert "unused" in strict[0].message


def test_directive_in_string_literal_is_not_a_directive():
    found = findings_for('''
        TEXT = "# repro-lint: disable=RL001"
    ''', module="repro.service.docs", strict=True)
    assert found == []


def test_standalone_directive_covers_next_code_line_across_comments():
    directives = parse_directives(textwrap.dedent("""
        # repro-lint: disable=RL001 -- reason line one
        # continuation prose that is not a directive
        print("covered")
    """))
    assert len(directives.directives) == 1
    assert directives.directives[0].covers == 4


def test_syntax_error_is_reported_not_raised():
    found = findings_for("def broken(:\n", module="repro.engine.engine")
    assert codes(found) == ["RL000"]
    assert "does not parse" in found[0].message


# --------------------------------------------------------------------- #
# Module naming, CLI, self-check
# --------------------------------------------------------------------- #

def test_module_name_for_anchors():
    assert module_name_for(
        Path("src/repro/service/server.py")) == "repro.service.server"
    assert module_name_for(
        Path("/abs/src/repro/patterns/plan.py")) == "repro.patterns.plan"
    assert module_name_for(Path("src/repro/__init__.py")) == "repro"
    assert module_name_for(Path("tests/test_plan.py")) == "tests.test_plan"
    assert module_name_for(
        Path("benchmarks/bench_patterns.py")) == "benchmarks.bench_patterns"
    assert module_name_for(Path("examples/quickstart.py")) \
        == "examples.quickstart"


def test_cli_reports_findings_and_exit_codes(tmp_path, capsys):
    bad = tmp_path / "src" / "repro" / "service" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import time\n\n\n"
                   "async def f():\n    time.sleep(1)\n",
                   encoding="utf-8")
    assert lint_main([str(tmp_path / "src")]) == 1
    out = capsys.readouterr().out
    assert "RL001" in out and "bad.py:5:" in out
    assert "1 finding(s)" in out

    bad.write_text("async def f():\n    return 1\n", encoding="utf-8")
    assert lint_main([str(tmp_path / "src")]) == 0
    assert lint_main([str(tmp_path / "missing")]) == 2


def test_cli_summary_markdown(tmp_path):
    clean = tmp_path / "src" / "repro" / "ok.py"
    clean.parent.mkdir(parents=True)
    clean.write_text("VALUE = 1\n", encoding="utf-8")
    summary = tmp_path / "summary.md"
    assert lint_main([str(tmp_path / "src"),
                      "--summary", str(summary)]) == 0
    text = summary.read_text(encoding="utf-8")
    assert "## ReproLint" in text
    for rule in ALL_RULES:
        assert rule.id in text


def test_summary_markdown_lists_findings_block():
    found = findings_for("""
        import time

        async def f():
            time.sleep(1)
    """, module="repro.service.x")
    text = summary_markdown(found, ALL_RULES, checked_files=1)
    assert "1 finding(s)" in text
    assert "```text" in text and "RL001" in text


def test_repository_tree_is_lint_clean():
    """The committed tree carries zero findings (strict: and zero unused
    suppressions) — the same bar the CI lint job enforces."""
    root = Path(__file__).resolve().parent.parent
    paths = [root / area for area in
             ("src", "tests", "benchmarks", "examples")
             if (root / area).exists()]
    findings = run(paths, ALL_RULES, strict=True, display_root=root)
    assert findings == [], "\n".join(f.format() for f in findings)
