"""The plan verifier: every well-formed compiled plan passes, every
deliberately corrupted op sequence / operator tree is rejected, the
``REPRO_PLAN_VERIFY`` compile-time hook stamps ``plan.verified``, and the
stamp travels through pickle without re-verification (plans arriving in
pickled compiled settings pay zero overhead)."""

import pickle

import pytest

from repro.analysis import PlanVerificationError, verify_plan
from repro.analysis import plancheck
from repro.engine import compile_setting
from repro.patterns import (compile_pattern, compile_query, conjunction,
                            descendant, exists, node, pattern_query,
                            union_query)
from repro.patterns import plan as planmod
from repro.workloads import library, nested_relational


def book_query():
    return pattern_query(node("db", None, node("book", {"title": "$t"},
                                               node("author",
                                                    {"name": "$n"}))))


def exists_query():
    return exists(["n"], pattern_query(
        node("book", {"title": "$t"}, node("author", {"name": "$n"}))))


# --------------------------------------------------------------------- #
# Acceptance: real plans verify
# --------------------------------------------------------------------- #

class TestAcceptsRealPlans:
    def test_workload_std_source_plans(self):
        for setting in (library.library_setting(),
                        nested_relational.company_setting()):
            compiled = compile_setting(setting)
            assert compiled.std_source_plans
            for plan in compiled.std_source_plans:
                assert verify_plan(plan) is plan

    def test_canned_queries_all_connectives(self):
        queries = [
            book_query(),
            conjunction(book_query(), book_query()),
            exists_query(),
            union_query(exists_query(),
                        pattern_query(descendant(node("book",
                                                      {"title": "$t"})))),
            library.query_writer_of("Computational Complexity"),
            nested_relational.query_projects_of("Dept-0"),
        ]
        for query in queries:
            assert verify_plan(compile_query(query)) is not None

    def test_descendant_pattern_plan(self):
        plan = compile_pattern(descendant(node("book", {"title": "$t"})))
        assert verify_plan(plan) is plan

    def test_non_plan_is_rejected(self):
        with pytest.raises(PlanVerificationError, match="not a compiled"):
            verify_plan(object())


# --------------------------------------------------------------------- #
# Rejection: corrupted op sequences / operator trees
# --------------------------------------------------------------------- #

class TestRejectsCorruptedPlans:
    def test_unknown_op_kind(self):
        plan = compile_pattern(node("book", {"title": "$t"}))
        plan.ops = (("frobnicate", 0),)
        with pytest.raises(PlanVerificationError, match="unknown op kind"):
            verify_plan(plan)

    def test_empty_ops(self):
        plan = compile_pattern(node("book", {"title": "$t"}))
        plan.ops = ()
        with pytest.raises(PlanVerificationError, match="non-empty"):
            verify_plan(plan)

    def test_desc_op_forward_reference(self):
        plan = compile_pattern(descendant(node("book", {"title": "$t"})))
        # The desc op must point at a strictly earlier op; aim it at itself.
        ops = list(plan.ops)
        for index, op in enumerate(ops):
            if op[0] == "desc":
                ops[index] = ("desc", index)
        plan.ops = tuple(ops)
        with pytest.raises(PlanVerificationError,
                           match="strictly earlier"):
            verify_plan(plan)

    def test_variable_slot_outside_width(self):
        plan = compile_pattern(node("book", {"title": "$t"}))
        kind, label, const_tests, var_tests, children = plan.ops[-1]
        bad = tuple((attr, 99) for attr, _slot in var_tests)
        plan.ops = plan.ops[:-1] + ((kind, label, const_tests, bad,
                                     children),)
        with pytest.raises(PlanVerificationError, match="outside row width"):
            verify_plan(plan)

    def test_label_foreign_to_pattern(self):
        plan = compile_pattern(node("book", {"title": "$t"}))
        kind, _label, const_tests, var_tests, children = plan.ops[-1]
        plan.ops = plan.ops[:-1] + ((kind, "pamphlet", const_tests,
                                     var_tests, children),)
        with pytest.raises(PlanVerificationError, match="does not occur"):
            verify_plan(plan)

    def test_child_index_not_earlier(self):
        plan = compile_pattern(node("db", None, node("book",
                                                     {"title": "$t"})))
        kind, label, const_tests, var_tests, _children = plan.ops[-1]
        plan.ops = plan.ops[:-1] + ((kind, label, const_tests, var_tests,
                                     (len(plan.ops) - 1,)),)
        with pytest.raises(PlanVerificationError, match="def-before-use"):
            verify_plan(plan)

    def test_root_outside_ops(self):
        plan = compile_pattern(node("book", {"title": "$t"}))
        plan.root = 99
        with pytest.raises(PlanVerificationError, match="root op index"):
            verify_plan(plan)

    def test_root_chain_not_trailing(self):
        plan = compile_pattern(descendant(node("db", None, node("book"))))
        assert plan.ops[-1] == ("desc", len(plan.ops) - 2)
        plan.ops = plan.ops[:-1] + (("desc", 0),)
        with pytest.raises(PlanVerificationError, match="trailing ops"):
            verify_plan(plan)

    def test_aliased_slots(self):
        plan = compile_pattern(node("book", {"title": "$t",
                                             "year": "$y"}))
        only = min(plan.slots.values())
        plan.slots = {name: only for name in plan.slots}
        with pytest.raises(PlanVerificationError, match="two names"):
            verify_plan(plan)

    def test_atom_width_disagrees_with_query(self):
        plan = compile_query(book_query())
        plan.node.plan.width = plan.width + 3
        with pytest.raises(PlanVerificationError,
                           match="enclosing query width"):
            verify_plan(plan)

    def test_projection_clears_a_free_slot(self):
        plan = compile_query(exists_query())
        assert isinstance(plan.node, planmod._Project)
        assert len(plan.free_slots) == 1
        plan.node.cleared = frozenset({plan.free_slots[0]})
        with pytest.raises(PlanVerificationError, match="scope leak"):
            verify_plan(plan)

    def test_shape_mismatch_atom_vs_join(self):
        plan = compile_query(book_query())
        plan.node = planmod._Join((plan.node,))
        with pytest.raises(PlanVerificationError, match="expected _Atom"):
            verify_plan(plan)

    def test_union_arm_count_mismatch(self):
        plan = compile_query(union_query(
            exists_query(),
            pattern_query(descendant(node("book", {"title": "$t"})))))
        assert isinstance(plan.node, planmod._Union)
        plan.node = planmod._Union(plan.node.members[:1])
        with pytest.raises(PlanVerificationError, match="arms"):
            verify_plan(plan)

    def test_slot_table_width_mismatch(self):
        plan = compile_query(book_query())
        plan.width = plan.width + 1
        with pytest.raises(PlanVerificationError, match="slot names"):
            verify_plan(plan)


# --------------------------------------------------------------------- #
# The compile-time hook and the pickled stamp
# --------------------------------------------------------------------- #

class TestVerifyHook:
    def test_stamped_when_enabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_PLAN_VERIFY", "1")
        assert compile_query(book_query()).verified
        assert compile_pattern(node("book", {"title": "$t"})).verified

    def test_not_stamped_when_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_PLAN_VERIFY", "0")
        assert not compile_query(book_query()).verified
        monkeypatch.delenv("REPRO_PLAN_VERIFY")
        assert not compile_query(book_query()).verified

    def test_pickle_preserves_stamp_without_reverification(self, monkeypatch):
        monkeypatch.setenv("REPRO_PLAN_VERIFY", "1")
        plan = compile_query(book_query())
        assert plan.verified

        calls = []
        real = plancheck.verify_plan

        def counting(target):
            calls.append(target)
            return real(target)

        monkeypatch.setattr(plancheck, "verify_plan", counting)
        revived = pickle.loads(pickle.dumps(plan))
        assert revived.verified          # the stamp travelled
        assert calls == []               # ... and nothing re-verified
        # The revived plan still answers like the original.
        assert revived.free_variables == plan.free_variables
        assert revived.width == plan.width

    def test_compiled_setting_roundtrip_keeps_stamps(self, monkeypatch):
        monkeypatch.setenv("REPRO_PLAN_VERIFY", "1")
        compiled = compile_setting(library.library_setting())
        revived = pickle.loads(pickle.dumps(compiled))
        for plan in revived.std_source_plans:
            assert plan.verified


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #

class TestPlancheckCLI:
    def test_main_verifies_committed_workloads(self, capsys):
        assert plancheck.main([]) == 0
        out = capsys.readouterr().out
        assert "0 failure(s)" in out

    def test_main_summary(self, tmp_path, capsys):
        summary = tmp_path / "summary.md"
        assert plancheck.main(["--summary", str(summary)]) == 0
        text = summary.read_text(encoding="utf-8")
        assert "## Plan verifier" in text
        assert "0 failure(s)" in text
