"""Unit tests for the ScenarioForge generator subsystem (repro.generators).

Every generator must (a) be a pure function of its seed — identical seeds
give identical specs and fingerprints — and (b) deliver on its profile's
structural promises (nested-relational DTDs really are nested-relational,
generated trees really conform, generated STDs really are fully specified).
"""

import pytest

from repro import compile_setting
from repro.generators import (DTD_PROFILES, QUERY_KINDS, SCENARIO_PROFILES,
                              generate_dtd, generate_query, generate_scenario,
                              generate_std, generate_stds, generate_tree,
                              generate_trees, scenario_batch)
from repro.patterns.queries import classify_query

SEEDS = range(5)


class TestDeterminism:
    def test_dtd_same_seed_same_spec(self):
        for seed in SEEDS:
            for profile in DTD_PROFILES:
                first = generate_dtd(seed, profile)
                second = generate_dtd(seed, profile)
                assert first.spec == second.spec
                assert first.dtd.to_text() == second.dtd.to_text()

    def test_different_seeds_differ(self):
        specs = {repr(generate_dtd(seed, "nested_relational").spec)
                 for seed in range(20)}
        assert len(specs) > 15  # collisions are possible but must be rare

    def test_tree_same_seed_same_fingerprint(self):
        dtd = generate_dtd(1, "nested_relational").dtd
        for seed in SEEDS:
            first = generate_tree(dtd, seed)
            second = generate_tree(dtd, seed)
            assert first.tree.fingerprint() == second.tree.fingerprint()
            assert first.spec == second.spec

    def test_scenario_same_seed_same_spec(self):
        assert generate_scenario(7).spec == generate_scenario(7).spec

    def test_scenario_batch_is_reproducible(self):
        first = scenario_batch(4, seed=3)
        second = scenario_batch(4, seed=3)
        assert [s.spec for s in first] == [s.spec for s in second]
        assert len({s.seed for s in first}) == 4


class TestDTDProfiles:
    def test_nested_relational_profile(self):
        for seed in SEEDS:
            generated = generate_dtd(seed, "nested_relational")
            assert generated.dtd.is_nested_relational()
            assert generated.dtd.is_univocal()
            assert generated.dtd.is_satisfiable()

    def test_general_profile_is_satisfiable_and_nonrecursive(self):
        for seed in SEEDS:
            generated = generate_dtd(seed, "general")
            assert generated.dtd.is_satisfiable()
            assert not generated.dtd.is_recursive()

    def test_non_univocal_profile(self):
        for seed in SEEDS:
            generated = generate_dtd(seed, "non_univocal")
            assert not generated.dtd.is_univocal()

    def test_spec_rebuilds_the_dtd(self):
        from repro import DTD
        generated = generate_dtd(11, "general")
        rebuilt = DTD(generated.spec["root"], generated.spec["rules"],
                      generated.spec["attributes"])
        assert rebuilt.to_text() == generated.dtd.to_text()

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown DTD profile"):
            generate_dtd(0, "exotic")


class TestTrees:
    @pytest.mark.parametrize("profile", ["nested_relational", "general"])
    def test_generated_trees_conform(self, profile):
        for seed in SEEDS:
            dtd = generate_dtd(seed, profile).dtd
            for generated in generate_trees(dtd, 3, seed=seed * 13 + 1):
                violations = dtd.conformance_violations(generated.tree)
                assert not violations, violations

    def test_depth_and_branching_are_bounded(self):
        dtd = generate_dtd(2, "nested_relational", n_elements=8).dtd
        generated = generate_tree(dtd, 5, max_depth=2, max_repeat=2)
        assert generated.tree.depth() <= 2 + 1  # slack only drains minimal rules

    def test_spec_records_fingerprint(self):
        dtd = generate_dtd(0, "nested_relational").dtd
        generated = generate_tree(dtd, 9)
        assert generated.spec["fingerprint"] == generated.tree.fingerprint()

    def test_max_nodes_aborts_early_without_changing_the_stream(self):
        from repro.generators import GenerationError
        dtd = generate_dtd(1, "nested_relational", n_elements=8).dtd
        unbounded = generate_tree(dtd, 3, max_repeat=6)
        # Same seed, generous budget: identical tree.
        bounded = generate_tree(dtd, 3, max_repeat=6,
                                max_nodes=len(unbounded.tree))
        assert bounded.tree.fingerprint() == unbounded.tree.fingerprint()
        with pytest.raises(GenerationError, match="max_nodes"):
            generate_tree(dtd, 3, max_repeat=6,
                          max_nodes=len(unbounded.tree) - 1)


class TestSTDs:
    def test_generated_stds_are_fully_specified(self):
        for seed in SEEDS:
            source = generate_dtd(seed, "general", prefix="s").dtd
            target = generate_dtd(seed + 100, "nested_relational",
                                  prefix="t").dtd
            for generated in generate_stds(source, target, 3, seed=seed):
                dep = generated.std
                assert dep.is_fully_specified(target.root)
                assert dep.has_distinct_source_variables()
                assert not dep.source.uses_descendant()

    def test_std_spec_matches_patterns(self):
        source = generate_dtd(1, "nested_relational", prefix="s").dtd
        target = generate_dtd(2, "nested_relational", prefix="t").dtd
        generated = generate_std(source, target, 5)
        assert generated.spec["source"] == str(generated.std.source)
        assert generated.spec["target"] == str(generated.std.target)


class TestQueries:
    def test_kinds_and_fragments(self):
        target = generate_dtd(4, "nested_relational", prefix="t").dtd
        for kind in QUERY_KINDS:
            for seed in SEEDS:
                generated = generate_query(target, seed, kind=kind)
                assert generated.spec["kind"] == kind
                assert generated.spec["fragment"] == \
                    classify_query(generated.query)
                assert generated.spec["text"] == str(generated.query)

    def test_union_members_share_free_variables(self):
        target = generate_dtd(8, "nested_relational", prefix="t").dtd
        for seed in SEEDS:
            generated = generate_query(target, seed, kind="union")
            # UnionQuery's own validation would have raised otherwise; the
            # fingerprint must also be stable.
            assert generated.query.fingerprint() == \
                generate_query(target, seed, kind="union").query.fingerprint()

    def test_unknown_kind_rejected(self):
        target = generate_dtd(0, "nested_relational").dtd
        with pytest.raises(ValueError, match="unknown query kind"):
            generate_query(target, 0, kind="xpath")


class TestScenarios:
    def test_profiles_resolve_and_compile(self):
        for profile in SCENARIO_PROFILES:
            scenario = generate_scenario(21, profile=profile)
            assert scenario.profile in ("nested_relational", "general")
            compiled = compile_setting(scenario.setting)
            # The chase-based pipeline needs these two verdicts.
            assert compiled.dichotomy.fully_specified
            assert scenario.setting.target_dtd.is_univocal()

    def test_source_trees_conform_and_queries_target(self):
        scenario = generate_scenario(33)
        for tree in scenario.source_trees:
            assert scenario.setting.source_dtd.conforms(tree)
        for query in scenario.queries:
            labels = {p.attribute.label
                      for pattern in query.patterns()
                      for p in pattern.subpatterns()
                      if hasattr(p, "attribute")}
            assert labels <= scenario.setting.target_dtd.element_types

    def test_describe_mentions_seed(self):
        scenario = generate_scenario(5)
        assert "seed=5" in scenario.describe()
