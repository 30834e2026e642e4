"""DTDs (Document Type Definitions) over element types and attributes.

Following Section 2 of the paper, a DTD over ``(E, A)`` is a triple
``(P, R, r)`` where ``P`` maps element types to regular expressions over
``E``, ``R`` maps element types to sets of attribute names, and ``r`` is the
root element type (which cannot occur in content models and has no
attributes — we check but do not hard-require the latter two conditions, since
several constructions in the paper's reductions use the root inside patterns).

The module implements:

* conformance of ordered trees (``T ⊨ D``) and of unordered trees
  (``T |≈ D``, Section 5.2),
* emptiness of ``SAT(D)`` and DTD *consistency* (every element type occurs in
  some conforming tree), together with the polynomial trimming construction of
  Lemma 2.2,
* the DTD graph ``G(D)``, recursiveness, reachability restriction ``D_ℓ``,
* detection of *nested-relational* DTDs and the ``D°`` / ``D*`` transforms
  used by Theorem 4.5,
* detection of *simple* DTDs (all content models simple) and univocal DTDs
  (all content models univocal, Definition 6.9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Set

from ..regexlang.ast import (Concat, Empty, Epsilon, Regex, Star, Symbol, Union,
                             concat, empty, epsilon, star, sym, union)
from ..regexlang.nfa import NFA, regex_to_nfa
from ..regexlang.parse import parse_regex
from ..regexlang.parikh import parikh_vector
from ..regexlang.univocal import (RegexAnalysis, analyse, is_simple_regex,
                                  nested_relational_factors)
from .tree import XMLTree

__all__ = ["DTD", "parse_dtd"]


@dataclass
class _RuleCache:
    nfa: NFA
    analysis: RegexAnalysis


class DTD:
    """A DTD ``(P, R, r)``.

    Parameters
    ----------
    root:
        The root element type.
    rules:
        Mapping element type -> content model.  Values may be
        :class:`~repro.regexlang.ast.Regex` instances or strings parsed by
        :func:`~repro.regexlang.parse.parse_regex`.  Element types mentioned
        in content models but absent from the mapping default to ``ε``.
    attributes:
        Mapping element type -> iterable of attribute names (without ``@``).
    """

    def __init__(self, root: str,
                 rules: Mapping[str, object],
                 attributes: Optional[Mapping[str, Iterable[str]]] = None) -> None:
        self.root = root
        self.rules: Dict[str, Regex] = {}
        for element, model in rules.items():
            self.rules[element] = model if isinstance(model, Regex) else parse_regex(str(model))
        self.attributes: Dict[str, Set[str]] = {}
        for element, attrs in (attributes or {}).items():
            self.attributes[element] = set(attrs)
        # Close the element-type universe over everything mentioned anywhere.
        for element in list(self.rules):
            for mentioned in self.rules[element].alphabet():
                self.rules.setdefault(mentioned, epsilon())
        self.rules.setdefault(root, epsilon())
        for element in self.rules:
            self.attributes.setdefault(element, set())
        self._cache: Dict[str, _RuleCache] = {}
        self._cache_hits = 0
        self._cache_misses = 0

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    @property
    def element_types(self) -> Set[str]:
        """The finite set ``E`` of element types of the DTD."""
        return set(self.rules)

    def content_model(self, element: str) -> Regex:
        """``P(ℓ)`` (defaults to ``ε`` for element types without a rule)."""
        return self.rules.get(element, epsilon())

    def attributes_of(self, element: str) -> Set[str]:
        """``R(ℓ)``."""
        return self.attributes.get(element, set())

    def size(self) -> int:
        """``‖D‖``: total size of content models plus attribute lists."""
        total = 0
        for element, model in self.rules.items():
            total += 1 + model.norm() + len(self.attributes_of(element))
        return total

    def _rule_cache(self, element: str) -> _RuleCache:
        cached = self._cache.get(element)
        if cached is None:
            # repro-lint: disable=RL004 -- plain counts by design: xmlmodel
            # cannot import engine.stats (circular); the compiled setting
            # re-publishes these via CacheStats.set_counts
            self._cache_misses += 1
            model = self.content_model(element)
            cached = _RuleCache(nfa=regex_to_nfa(model),
                                analysis=analyse(model))
            self._cache[element] = cached
        else:
            # repro-lint: disable=RL004 -- plain counts by design, see above
            self._cache_hits += 1
        return cached

    def rule_analysis(self, element: str) -> RegexAnalysis:
        """The cached :class:`RegexAnalysis` of ``P(ℓ)`` (used by the chase)."""
        return self._rule_cache(element).analysis

    def precompile_rules(self) -> None:
        """Force the NFA / semilinear / univocality analysis of every content
        model into the rule cache (compile-once entry point for the engine)."""
        for element in self.rules:
            self._rule_cache(element)

    def rule_cache_info(self) -> Dict[str, int]:
        """Hit/miss/entry counters of the per-element rule cache.  A *miss*
        is a fresh regex→NFA compilation; after :meth:`precompile_rules` the
        miss counter should never move again for this DTD instance."""
        return {"hits": self._cache_hits, "misses": self._cache_misses,
                "entries": len(self._cache)}

    # ------------------------------------------------------------------ #
    # Conformance (ordered and unordered)
    # ------------------------------------------------------------------ #

    def conformance_violations(self, tree: XMLTree,
                               ordered: Optional[bool] = None) -> List[str]:
        """Return a list of human-readable violations of ``T ⊨ D`` (ordered)
        or ``T |≈ D`` (unordered).  Empty list means the tree conforms.

        The walk is columnar, over the tree's memoised
        :meth:`~repro.xmlmodel.tree.XMLTree.freeze` snapshot: nodes are
        visited label by label via ``nodes_by_label``, so every element
        type pays one rule-cache lookup per call instead of one per node,
        and attribute presence comes from the per-attribute tables.
        Messages name the tree's node idents and are grouped by label.
        """
        frozen = tree.freeze()
        if ordered is None:
            ordered = frozen.ordered
        problems: List[str] = []
        if frozen.label(0) != self.root:
            problems.append(
                f"root is {frozen.label(0)!r}, expected {self.root!r}")
        attrs_of: Dict[int, Set[str]] = {}
        for aid, table in enumerate(frozen.attr_tables):
            name = frozen.attr_names[aid]
            for pos in table:
                attrs_of.setdefault(pos, set()).add(name)
        orig = frozen.orig_ids
        for lid, label in enumerate(frozen.label_names):
            positions = frozen.nodes_by_label[lid]
            if not positions:
                continue
            if label not in self.rules:
                problems.extend(
                    f"node {orig[pos]}: unknown element type {label!r}"
                    for pos in positions)
                continue
            expected_attrs = self.attributes_of(label)
            cache = self._rule_cache(label)
            model = self.content_model(label)
            for pos in positions:
                actual_attrs = attrs_of.get(pos, set())
                if expected_attrs != actual_attrs:
                    problems.append(
                        f"node {orig[pos]} ({label}): attributes "
                        f"{sorted(actual_attrs)} do not match "
                        f"R({label}) = {sorted(expected_attrs)}")
                child_labels = [frozen.label(c) for c in frozen.children(pos)]
                if ordered:
                    if not cache.nfa.accepts(child_labels):
                        problems.append(
                            f"node {orig[pos]} ({label}): children "
                            f"{child_labels} not in L({model})")
                else:
                    if not cache.analysis.semilinear.contains(parikh_vector(child_labels)):
                        problems.append(
                            f"node {orig[pos]} ({label}): children "
                            f"{child_labels} not in π({model})")
        return problems

    def conforms(self, tree: XMLTree, ordered: Optional[bool] = None) -> bool:
        """``T ⊨ D`` for ordered trees / ``T |≈ D`` for unordered trees."""
        return not self.conformance_violations(tree, ordered)

    def weakly_conforms(self, tree: XMLTree) -> bool:
        """Unordered conformance ``T |≈ D`` regardless of the tree's flag."""
        return self.conforms(tree, ordered=False)

    # ------------------------------------------------------------------ #
    # Satisfiability, consistency and trimming (Lemma 2.2)
    # ------------------------------------------------------------------ #

    def realizable_types(self) -> Set[str]:
        """Element types ``ℓ`` admitting a finite tree rooted at ``ℓ`` whose
        every node satisfies its content model."""
        realizable: Set[str] = set()
        changed = True
        while changed:
            changed = False
            for element in self.rules:
                if element in realizable:
                    continue
                nfa = self._rule_cache(element).nfa.restricted_to(realizable)
                if not nfa.is_empty():
                    realizable.add(element)
                    changed = True
        return realizable

    def is_satisfiable(self) -> bool:
        """``SAT(D) ≠ ∅``."""
        return self.root in self.realizable_types()

    def usable_types(self) -> Set[str]:
        """Element types occurring in at least one tree of ``SAT(D)``."""
        realizable = self.realizable_types()
        if self.root not in realizable:
            return set()
        usable = {self.root}
        frontier = [self.root]
        while frontier:
            element = frontier.pop()
            nfa = self._rule_cache(element).nfa.restricted_to(realizable)
            # A symbol is usable below ``element`` if it appears in some word
            # of the restricted language.
            for candidate in self.content_model(element).alphabet() & realizable:
                if candidate in usable:
                    continue
                if _symbol_occurs_in_language(nfa, candidate, realizable):
                    usable.add(candidate)
                    frontier.append(candidate)
        return usable

    def is_consistent(self) -> bool:
        """Every element type of the DTD occurs in some conforming tree."""
        return self.usable_types() == self.element_types and self.is_satisfiable()

    def trimmed(self) -> "DTD":
        """The consistent DTD ``D'`` of Lemma 2.2 with ``SAT(D) = SAT(D')``.

        Raises ``ValueError`` if ``SAT(D)`` is empty (no equivalent consistent
        DTD exists in that case).
        """
        if not self.is_satisfiable():
            raise ValueError("SAT(D) is empty; the DTD admits no conforming tree")
        usable = self.usable_types()
        rules = {}
        attributes = {}
        for element in usable:
            rules[element] = _erase_symbols(self.content_model(element),
                                            keep=usable)
            attributes[element] = set(self.attributes_of(element))
        return DTD(self.root, rules, attributes)

    # ------------------------------------------------------------------ #
    # The DTD graph, recursion, restriction
    # ------------------------------------------------------------------ #

    def graph(self) -> Dict[str, Set[str]]:
        """``G(D)``: edges ``ℓ → ℓ'`` whenever ``ℓ'`` is mentioned in ``P(ℓ)``."""
        return {element: set(self.content_model(element).alphabet())
                for element in self.rules}

    def is_recursive(self) -> bool:
        """True iff ``G(D)`` has a cycle."""
        graph = self.graph()
        WHITE, GREY, BLACK = 0, 1, 2
        colour = {node: WHITE for node in graph}

        def visit(node: str) -> bool:
            colour[node] = GREY
            for nxt in graph.get(node, ()):  # pragma: no branch
                if colour.get(nxt, WHITE) == GREY:
                    return True
                if colour.get(nxt, WHITE) == WHITE and visit(nxt):
                    return True
            colour[node] = BLACK
            return False

        return any(colour[node] == WHITE and visit(node) for node in graph)

    def reachable_from(self, element: str) -> Set[str]:
        """Element types reachable from ``element`` in ``G(D)`` (including it)."""
        graph = self.graph()
        seen = {element}
        frontier = [element]
        while frontier:
            node = frontier.pop()
            for nxt in graph.get(node, ()):  # pragma: no branch
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen

    def restricted_to(self, element: str) -> "DTD":
        """``D_ℓ``: the restriction of ``D`` to element types reachable from
        ``ℓ``, with ``ℓ`` as the new root (used in the proof of Theorem 4.5)."""
        reachable = self.reachable_from(element)
        rules = {e: self.content_model(e) for e in reachable}
        attributes = {e: set(self.attributes_of(e)) for e in reachable}
        return DTD(element, rules, attributes)

    # ------------------------------------------------------------------ #
    # Structural classes: simple, nested-relational, univocal
    # ------------------------------------------------------------------ #

    def is_simple(self) -> bool:
        """All content models are simple regular expressions (Section 5.3)."""
        return all(is_simple_regex(model) for model in self.rules.values())

    def is_nested_relational(self) -> bool:
        """Non-recursive and every rule is ``ℓ → l̃_1 … l̃_m`` with distinct
        ``l_i`` and each ``l̃`` one of ``l``, ``l?``, ``l+``, ``l*``."""
        if self.is_recursive():
            return False
        return all(nested_relational_factors(model) is not None
                   for model in self.rules.values())

    def is_univocal(self) -> bool:
        """All content models univocal (Definition 6.9); implies tractable
        certain answers for fully-specified settings (Theorem 6.2)."""
        return all(self.rule_analysis(element).is_univocal()
                   for element in self.rules)

    def nested_relational_lower(self) -> "DTD":
        """``D°`` of Theorem 4.5: ``l → l``, ``l? → ε``, ``l+ → l``, ``l* → ε``."""
        return self._nested_relational_transform(lower=True)

    def nested_relational_upper(self) -> "DTD":
        """``D*`` of Theorem 4.5: every ``l̃`` becomes ``l``."""
        return self._nested_relational_transform(lower=False)

    def _nested_relational_transform(self, lower: bool) -> "DTD":
        rules = {}
        for element, model in self.rules.items():
            factors = nested_relational_factors(model)
            if factors is None:
                raise ValueError(
                    f"rule for {element!r} is not nested-relational: {model}")
            parts = []
            for symbol, quant in factors:
                if quant == "1" or quant == "+":
                    parts.append(sym(symbol))
                elif quant in {"?", "*"}:
                    if not lower:
                        parts.append(sym(symbol))
                else:  # pragma: no cover - defensive
                    raise AssertionError(quant)
            rules[element] = concat(*parts) if parts else epsilon()
        attributes = {e: set(a) for e, a in self.attributes.items()}
        return DTD(self.root, rules, attributes)

    def unique_tree(self) -> XMLTree:
        """For a non-recursive DTD whose rules are plain concatenations of
        distinct symbols (the shape of ``D°``/``D*``), build the unique
        attribute-free conforming tree (used by Theorem 4.5)."""
        tree = XMLTree(self.root, ordered=True)
        self._expand_unique(tree, tree.root, self.root, depth=0)
        return tree

    def _expand_unique(self, tree: XMLTree, node: int, element: str, depth: int) -> None:
        if depth > len(self.rules) + 1:
            raise ValueError("DTD is recursive; no unique finite tree exists")
        factors = nested_relational_factors(self.content_model(element))
        if factors is None or any(q not in {"1"} for _, q in factors):
            raise ValueError(
                f"rule for {element!r} does not determine a unique tree")
        for symbol, _quant in factors:
            child = tree.add_child(node, symbol)
            self._expand_unique(tree, child, symbol, depth + 1)

    # ------------------------------------------------------------------ #
    # Rendering
    # ------------------------------------------------------------------ #

    def to_text(self) -> str:
        """Render the DTD in the paper's ``ℓ → e`` notation."""
        lines = [f"root: {self.root}"]
        for element in sorted(self.rules):
            attrs = "".join(f" @{a}" for a in sorted(self.attributes_of(element)))
            lines.append(f"  {element} -> {self.content_model(element)}{attrs}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<DTD root={self.root!r} |E|={len(self.rules)}>"


# --------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------- #

def _symbol_occurs_in_language(nfa: NFA, symbol: str, allowed: Set[str]) -> bool:
    """Is there a word of ``L(nfa)`` over ``allowed`` containing ``symbol``?"""
    if symbol not in allowed:
        return False
    # Forward-reachable state sets before reading ``symbol`` ...
    start = nfa.epsilon_closure({nfa.start})
    seen = {start}
    frontier = [start]
    while frontier:
        states = frontier.pop()
        # can we take ``symbol`` here and then reach acceptance?
        after = nfa.step(states, symbol)
        if after and _can_accept(nfa, after, allowed):
            return True
        for letter in allowed & nfa.alphabet:
            nxt = nfa.step(states, letter)
            if nxt and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return False


def _can_accept(nfa: NFA, states, allowed: Set[str]) -> bool:
    seen = {states}
    frontier = [states]
    while frontier:
        current = frontier.pop()
        if any(s in nfa.accepting for s in current):
            return True
        for letter in allowed & nfa.alphabet:
            nxt = nfa.step(current, letter)
            if nxt and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return False


def _erase_symbols(model: Regex, keep: Set[str]) -> Regex:
    """The ``ρ`` rewriting of Lemma 2.2: replace dropped symbols by ∅ and
    simplify (the smart constructors implement exactly the ρ equations)."""
    if isinstance(model, Symbol):
        return model if model.name in keep else empty()
    if isinstance(model, (Epsilon, Empty)):
        return model
    if isinstance(model, Concat):
        return concat(_erase_symbols(model.left, keep),
                      _erase_symbols(model.right, keep))
    if isinstance(model, Union):
        return union(_erase_symbols(model.left, keep),
                     _erase_symbols(model.right, keep))
    if isinstance(model, Star):
        return star(_erase_symbols(model.inner, keep))
    raise TypeError(f"unknown regex node: {model!r}")


# --------------------------------------------------------------------- #
# Textual DTD parser (a pragmatic subset of the W3C syntax)
# --------------------------------------------------------------------- #

def parse_dtd(text: str, root: Optional[str] = None) -> DTD:
    """Parse a DTD written in (a subset of) the standard syntax.

    Supports ``<!ELEMENT name (model)>`` with ``,`` ``|`` ``*`` ``+`` ``?``
    and ``EMPTY``, plus ``<!ATTLIST name attr CDATA #REQUIRED>`` declarations
    (only the attribute names are retained).  The root defaults to the first
    declared element.  Example — the source DTD of Figure 1(a)::

        <!ELEMENT db (book*)>
        <!ELEMENT book (author*)>
        <!ATTLIST book title CDATA #REQUIRED>
        <!ELEMENT author EMPTY>
        <!ATTLIST author name CDATA #REQUIRED aff CDATA #REQUIRED>
    """
    import re as _re

    rules: Dict[str, object] = {}
    attributes: Dict[str, Set[str]] = {}
    order: List[str] = []
    element_re = _re.compile(r"<!ELEMENT\s+([\w.\-]+)\s+(.*?)>", _re.S)
    attlist_re = _re.compile(r"<!ATTLIST\s+([\w.\-]+)\s+(.*?)>", _re.S)
    for match in element_re.finditer(text):
        name, model = match.group(1), match.group(2).strip()
        if model in {"EMPTY", "(EMPTY)", "ANY"}:
            rules[name] = epsilon()
        else:
            rules[name] = parse_regex(model)
        order.append(name)
    for match in attlist_re.finditer(text):
        name, body = match.group(1), match.group(2)
        attrs = attributes.setdefault(name, set())
        for attr_match in _re.finditer(r"([\w.\-]+)\s+CDATA\s+#\w+", body):
            attrs.add(attr_match.group(1))
    if not order:
        raise ValueError("no <!ELEMENT> declarations found")
    return DTD(root or order[0], rules, attributes)
