"""XML data exchange settings and solutions (Definitions 3.2 and 3.3).

A setting is a triple ``(D_S, D_T, Σ_ST)``.  Given ``T ⊨ D_S``, a tree
``T' ⊨ D_T`` such that ``⟨T, T'⟩`` satisfies every STD in ``Σ_ST`` is a
*solution* for ``T``; when ``T'`` is only required to conform in the unordered
sense (``T' |≈ D_T``, Section 5.2) we speak of an *unordered solution*.
Proposition 5.1 shows that certain answers agree over the two notions, and
Proposition 5.2 turns any unordered solution into an ordered one in polynomial
time, which is why the query-answering pipeline works with unordered trees and
orders the final result on demand.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..xmlmodel.dtd import DTD
from ..xmlmodel.tree import XMLTree
from .std import STD, classify_std

__all__ = ["DataExchangeSetting", "SolutionReport"]


@dataclass
class SolutionReport:
    """Diagnostic outcome of a solution check."""

    is_solution: bool
    dtd_violations: List[str] = field(default_factory=list)
    std_violations: List[Tuple[STD, List[Dict[str, object]]]] = field(default_factory=list)

    def summary(self) -> str:
        if self.is_solution:
            return "solution"
        lines = []
        for problem in self.dtd_violations:
            lines.append(f"target DTD: {problem}")
        for dependency, missing in self.std_violations:
            lines.append(f"STD {dependency}: {len(missing)} unsatisfied source match(es)")
        return "; ".join(lines) or "not a solution"


class DataExchangeSetting:
    """An XML data exchange setting ``(D_S, D_T, Σ_ST)``."""

    def __init__(self, source_dtd: DTD, target_dtd: DTD,
                 stds: Iterable[STD]) -> None:
        self.source_dtd = source_dtd
        self.target_dtd = target_dtd
        self.stds: List[STD] = list(stds)
        self._fingerprint: Optional[str] = None

    # ------------------------------------------------------------------ #
    # Structural classification
    # ------------------------------------------------------------------ #

    def is_fully_specified(self) -> bool:
        """All STDs are fully-specified (Definition 5.10)."""
        return all(dep.is_fully_specified(self.target_dtd.root) for dep in self.stds)

    def std_classes(self) -> List[str]:
        """Per-STD classification per Theorem 5.11."""
        return [classify_std(dep, self.target_dtd.root) for dep in self.stds]

    def has_distinct_source_variables(self) -> bool:
        """The consistency-section proviso (Section 4): every source pattern
        binds pairwise-distinct variables, and no constants."""
        return all(dep.has_distinct_source_variables() for dep in self.stds)

    def size(self) -> int:
        """``‖Σ_ST‖`` plus the two DTD sizes."""
        return (self.source_dtd.size() + self.target_dtd.size()
                + sum(dep.size() for dep in self.stds))

    def std_size(self) -> int:
        """``m = ‖Σ_ST‖`` as used in Theorem 4.5's ``O(n·m²)``."""
        return sum(dep.size() for dep in self.stds)

    def dtd_size(self) -> int:
        """``n = ‖D_S‖ + ‖D_T‖``."""
        return self.source_dtd.size() + self.target_dtd.size()

    # ------------------------------------------------------------------ #
    # Solutions
    # ------------------------------------------------------------------ #

    def solution_report(self, source_tree: XMLTree, candidate: XMLTree,
                        ordered: Optional[bool] = None) -> SolutionReport:
        """Detailed check of whether ``candidate`` is a solution for
        ``source_tree`` (Definition 3.3).  ``ordered=False`` checks the
        unordered notion ``T' |≈ D_T`` of Section 5.2."""
        dtd_problems = self.target_dtd.conformance_violations(candidate, ordered)
        std_problems: List[Tuple[STD, List[Dict[str, object]]]] = []
        for dependency in self.stds:
            missing = dependency.violations(source_tree, candidate)
            if missing:
                std_problems.append((dependency, missing))
        return SolutionReport(
            is_solution=not dtd_problems and not std_problems,
            dtd_violations=dtd_problems,
            std_violations=std_problems,
        )

    def is_solution(self, source_tree: XMLTree, candidate: XMLTree,
                    ordered: Optional[bool] = None) -> bool:
        """Is ``candidate`` a solution for ``source_tree``?"""
        return self.solution_report(source_tree, candidate, ordered).is_solution

    def is_unordered_solution(self, source_tree: XMLTree, candidate: XMLTree) -> bool:
        """Is ``candidate`` an unordered (weak) solution for ``source_tree``?"""
        return self.solution_report(source_tree, candidate, ordered=False).is_solution

    def fingerprint(self) -> str:
        """A content fingerprint of the whole setting: the SHA-256 digest of
        both DTDs (textual rendering) and the STD list in order.  Settings
        with equal fingerprints are syntactically identical, which makes the
        digest usable as a sharding / result-cache namespace key — it is what
        :mod:`repro.service` routes every request by.

        The digest is computed once and memoised: a setting is treated as
        immutable after construction (nothing in the pipeline mutates one,
        and the serving layer relies on the key being stable)."""
        if self._fingerprint is None:
            key = "\n".join([self.source_dtd.to_text(),
                             self.target_dtd.to_text(),
                             *(str(dep) for dep in self.stds)])
            self._fingerprint = hashlib.sha256(
                key.encode("utf-8")).hexdigest()
        return self._fingerprint

    def __repr__(self) -> str:
        return (f"<DataExchangeSetting source={self.source_dtd.root!r} "
                f"target={self.target_dtd.root!r} |Σ|={len(self.stds)}>")
