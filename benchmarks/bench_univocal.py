"""E11 — Definition 6.9 / Proposition 6.10: deciding univocality and c(r).

The paper leaves the complexity of the univocality test open (it reduces it to
Presburger arithmetic); this benchmark records the cost of our decision on
the expressions the paper discusses plus nested-relational shapes of
increasing width.  Simple and nested-relational expressions are decided by
their shape; ``(bc)*(de)*`` and ``(b*|c*)`` time the bounded semilinear sweep.
"""

import pytest

from repro.regexlang import RegexAnalysis, parse_regex

_PAPER_EXAMPLES = {
    "bc+d*e?": "b c+ d* e?",
    "(b*|c*)": "(b*|c*)",
    "(bc)*(de)*": "(b c)* (d e)*",
    "a|aab*": "a | a a b*",
    "simple-5": "(a1|a2|a3|a4|a5)*",
}


@pytest.mark.parametrize("name", sorted(_PAPER_EXAMPLES))
def test_univocality_decision_paper_examples(benchmark, name):
    text = _PAPER_EXAMPLES[name]

    def decide():
        analysis = RegexAnalysis(parse_regex(text))
        return analysis.is_univocal(), analysis.c_value()

    univocal, c = benchmark(decide)
    expected_univocal = name != "a|aab*"
    assert univocal is expected_univocal
    assert (c >= 2) == (name == "a|aab*")


@pytest.mark.parametrize("width", [2, 3, 4])
def test_univocality_nested_relational_width(benchmark, width):
    text = " ".join(f"l{i}{'*' if i % 2 else '+'}" for i in range(width))

    def decide():
        # Times the shape test: nested-relational shapes never reach the
        # ∀w sweep, whatever their width.
        return RegexAnalysis(parse_regex(text)).is_univocal()

    assert benchmark(decide) is True
